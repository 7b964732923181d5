//! Span recording for the traced runs, and the kernel counters read from
//! `Bdd::stats()`.
//!
//! Spans are taken by the benchmark around its own calls into each layer
//! (no span lives inside the library crates). A span's layer is the part
//! of its name before the first `.`; its self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use bddmin_bdd::BddStats;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// The call, instance, verdict or job the span serves.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Governed recursion steps charged inside the span: the manager's
    /// `steps_used()` at its end minus the reading it was opened with.
    pub steps: u64,
}

/// Handle of an open span; inert when tracing is off.
#[must_use]
pub struct Open {
    index: usize,
    steps_at_start: u64,
}

/// In-memory span recorder. With tracing off every call is a no-op that
/// reads no clock, which is what the tracing overhead is measured against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a span; `steps` is the manager's `steps_used()` now (0 when
    /// the span has no manager, or when the call inside it arms a budget,
    /// which zeroes the counter on entry).
    pub fn begin(&mut self, name: &'static str, id: u64, steps: u64) -> Open {
        if !self.enabled {
            return Open {
                index: usize::MAX,
                steps_at_start: 0,
            };
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            steps: 0,
        });
        self.open.push(index);
        Open {
            index,
            steps_at_start: steps,
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, open: Open, steps: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.index), "spans must nest");
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.steps = steps.checked_sub(open.steps_at_start).unwrap_or_else(|| {
            panic!(
                "{}: step counter fell from {} to {steps}; a call that arms a budget must open its span at 0",
                span.name, open.steps_at_start
            )
        });
    }

    /// Adds to an exact work counter (traced runs only).
    pub fn count(&mut self, name: &'static str, by: u64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0) += by;
        }
    }

    /// Folds the spans and counters into per-layer metrics: total time and
    /// steps per span name, self time per layer, and the counters.
    pub fn summarize(&self, out: &mut BTreeMap<String, f64>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
                has_child[p] = true;
            }
        }
        let mut leaf_steps = 0u64;
        for (i, span) in self.spans.iter().enumerate() {
            let dur = (span.end_ns - span.start_ns) as f64 * 1e-9;
            if !span.name.starts_with("bench.") {
                *out.entry(time_metric(span.name)).or_insert(0.0) += dur;
            }
            let self_s = (span.end_ns - span.start_ns - child_ns[i]) as f64 * 1e-9;
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *out.entry(format!("layer.{layer}.self_s")).or_insert(0.0) += self_s;
            if let Some(h) = span.name.strip_prefix("core.") {
                if h != "lower_bound" {
                    *out.entry(format!("core.{h}.steps")).or_insert(0.0) += span.steps as f64;
                }
            }
            if !has_child[i] {
                leaf_steps += span.steps;
            }
        }
        *out.entry("bdd.steps".to_owned()).or_insert(0.0) += leaf_steps as f64;
        *out.entry("trace.spans".to_owned()).or_insert(0.0) += self.spans.len() as f64;
        for (&name, &value) in &self.counters {
            *out.entry(name.to_owned()).or_insert(0.0) += value as f64;
        }
    }

    /// Writes the spans to `.bench_trace/<workload>.jsonl`, one JSON object
    /// per line after a header line; a failure is reported, not fatal.
    pub fn write_trace(&self, workload: &str, seed: u64) {
        let path = Path::new(".bench_trace").join(format!("{workload}.jsonl"));
        let header = format!("{{\"workload\":\"{workload}\",\"seed\":{seed}}}");
        if let Err(e) = self.write_jsonl(&path, &header) {
            eprintln!("  could not write {}: {e}", path.display());
        }
    }

    fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"steps\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.steps
            )?;
        }
        out.flush()
    }
}

/// One traced walk of a run, with the untraced walk it is paired with.
pub struct TracedPass<R> {
    pub result: R,
    pub tracer: Tracer,
    /// Seconds of the traced walk.
    pub on_s: f64,
    /// Seconds of the untraced walk run just before it.
    pub off_s: f64,
}

/// Alternates an untraced and a traced run of `walk` until `seconds` are
/// used (at least [`MIN_PASSES`](crate::measure::MIN_PASSES) pairs).
pub fn alternate<R>(seconds: f64, mut walk: impl FnMut(&mut Tracer) -> R) -> Vec<TracedPass<R>> {
    let (passes, _) = crate::measure::repeat_for(seconds, None, || {
        let mut off = Tracer::new(false);
        let t = Instant::now();
        std::hint::black_box(walk(&mut off));
        let off_s = t.elapsed().as_secs_f64();
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let result = walk(&mut tracer);
        let on_s = t.elapsed().as_secs_f64();
        TracedPass {
            result,
            tracer,
            on_s,
            off_s,
        }
    });
    passes.into_iter().map(|(pass, _)| pass).collect()
}

/// The metric that totals a span's time: `core.<h>` spans report
/// `core.<h>.s`, image spans `fsm.image_s.<method>`, the rest `<name>_s`.
fn time_metric(name: &str) -> String {
    if let Some(method) = name.strip_prefix("fsm.image.") {
        return format!("fsm.image_s.{method}");
    }
    match name.strip_prefix("core.") {
        Some(h) if h != "lower_bound" => format!("{name}.s"),
        _ => format!("{name}_s"),
    }
}

/// Kernel counters summed over every manager a pass used, each read once
/// from `Bdd::stats()` when the pass is done with the manager.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelTotals {
    class_hits: Vec<u64>,
    class_misses: Vec<u64>,
    evictions: u64,
    resizes: u64,
    memo_hits: u64,
    memo_misses: u64,
    gc_runs: u64,
    gc_reclaimed: u64,
    nodes_created: u64,
    peak_live: u64,
}

impl KernelTotals {
    pub fn add(&mut self, s: &BddStats) {
        if self.class_hits.is_empty() {
            self.class_hits = vec![0; BddStats::OP_CLASSES.len()];
            self.class_misses = vec![0; BddStats::OP_CLASSES.len()];
        }
        for (i, (&h, &m)) in s
            .cache_class_hits
            .iter()
            .zip(&s.cache_class_misses)
            .enumerate()
        {
            self.class_hits[i] += h;
            self.class_misses[i] += m;
        }
        self.evictions += s.cache_evictions;
        self.resizes += s.cache_resizes;
        self.memo_hits += s.memo_hits;
        self.memo_misses += s.memo_misses;
        self.gc_runs += s.gc_runs;
        self.gc_reclaimed += s.gc_reclaimed;
        // Every node ever created is either still live or was reclaimed.
        self.nodes_created += s.live_nodes as u64 + s.gc_reclaimed;
        self.peak_live = self.peak_live.max(s.peak_live_nodes as u64);
    }

    pub fn emit(&self, out: &mut BTreeMap<String, f64>) {
        let rate = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        for (i, class) in BddStats::OP_CLASSES.iter().enumerate() {
            let (h, m) = (
                self.class_hits.get(i).copied().unwrap_or(0),
                self.class_misses.get(i).copied().unwrap_or(0),
            );
            out.insert(format!("bdd.cache.{class}.hits"), h as f64);
            out.insert(format!("bdd.cache.{class}.misses"), m as f64);
            out.insert(format!("bdd.cache.{class}.hit_rate"), rate(h, m));
        }
        out.insert("bdd.cache.evictions".into(), self.evictions as f64);
        out.insert("bdd.cache.resizes".into(), self.resizes as f64);
        out.insert("bdd.memo.hits".into(), self.memo_hits as f64);
        out.insert("bdd.memo.misses".into(), self.memo_misses as f64);
        out.insert(
            "bdd.memo.hit_rate".into(),
            rate(self.memo_hits, self.memo_misses),
        );
        out.insert("bdd.gc.runs".into(), self.gc_runs as f64);
        out.insert("bdd.gc.reclaimed".into(), self.gc_reclaimed as f64);
        out.insert("bdd.nodes_created".into(), self.nodes_created as f64);
        out.insert("bdd.peak_live_nodes".into(), self.peak_live as f64);
    }
}

/// Static span names for the heuristics (`core.<name>`), so recording a
/// span allocates nothing.
pub fn heuristic_span(h: bddmin_core::Heuristic) -> &'static str {
    use bddmin_core::Heuristic::*;
    match h {
        FOrig => "core.f_orig",
        FAndC => "core.f_and_c",
        FOrNc => "core.f_or_nc",
        Constrain => "core.const",
        Restrict => "core.restr",
        OsmTd => "core.osm_td",
        OsmNv => "core.osm_nv",
        OsmCp => "core.osm_cp",
        OsmBt => "core.osm_bt",
        TsmTd => "core.tsm_td",
        TsmCp => "core.tsm_cp",
        OptLv => "core.opt_lv",
        Scheduled => "core.sched",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("eval.intercept", 1, 0);
        let inner = tr.begin("core.opt_lv", 1, 10);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner, 25);
        tr.end(outer, 25);
        let mut m = BTreeMap::new();
        tr.summarize(&mut m);
        assert!(m["core.opt_lv.s"] >= 0.002);
        assert!(m["layer.eval.self_s"] < m["core.opt_lv.s"]);
        assert_eq!(m["core.opt_lv.steps"], 15.0);
        assert_eq!(
            m["bdd.steps"], 15.0,
            "only leaf spans count toward bdd.steps"
        );
        assert_eq!(m["trace.spans"], 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let open = tr.begin("bdd.gc", 0, 0);
        tr.count("fsm.image_calls", 1);
        tr.end(open, 5);
        assert!(tr.spans.is_empty());
        let mut m = BTreeMap::new();
        tr.summarize(&mut m);
        assert_eq!(m["trace.spans"], 0.0);
    }

    #[test]
    fn time_metric_names() {
        assert_eq!(time_metric("core.opt_lv"), "core.opt_lv.s");
        assert_eq!(time_metric("core.lower_bound"), "core.lower_bound_s");
        assert_eq!(time_metric("fsm.image.part"), "fsm.image_s.part");
        assert_eq!(time_metric("eval.filter"), "eval.filter_s");
    }
}
