//! `serve_stream`: `bddmin-serve` in process, through `process_stream`.
//!
//! A seeded closed-loop stream: the whole stream is available up front and
//! the service's in-flight bound (4 jobs per shard) paces it. Spec jobs of
//! 8–12 variables across the demo's heuristic filters, a fixed share of
//! exact repeats (signature-cache hits), some `step_limit` jobs (the
//! degradation ladder) and a few BLIF jobs (ODC simplification, 2 ms to
//! 0.4 s each; in-order emission makes them the latency tail).
//!
//! * Untraced runs time `process_stream` with [`SHARDS`] workers; one
//!   operation is one job, timed from when its line is handed to the
//!   service until its result line is written.
//! * Each spec result's SOP cover is evaluated on every assignment against
//!   the job's leaf spec, in plain code.
//! * The traced walk replays the service one job at a time through public
//!   calls (`parse_job`, `SigCache::probe`, leaf-spec build, the
//!   heuristics, ISOP, `parse_blif`, `simplify_report`, `render_result`)
//!   and must reproduce the service's output byte for byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::time::Instant;

use bddmin_bdd::{Bdd, Edge, LeafSpec};
use bddmin_core::{Heuristic, Isf};
use bddmin_fsm::{generators, parse_blif, print_blif, simplify_report};
use bddmin_serve::protocol::error_body;
use bddmin_serve::{
    json, parse_job, process_stream, render_result, CacheDecision, CacheLabel, Job, JobKind,
    ServeOpts, SigCache,
};

use crate::measure::{self, Timed};
use crate::trace::{heuristic_span, KernelTotals, Tracer};
use crate::Outcome;

/// Worker threads: the two cores of the reference machine.
const SHARDS: usize = 2;

/// Jobs per stream.
const JOBS: usize = 1000;

// The traffic mix — the shares below, the 40% don't cares of a spec, the
// eight BLIF jobs of `blif_circuits` and the uniform draw over `FILTERS` —
// is an unverified assumption. No measured traffic exists, and the one
// stream the service ships, `engine::demo_stream`, is a smoke stream
// (six tiny specs cycled so that almost every job repeats, a step limit of
// 40 on every third job), not a description of use. The mix sets the
// signature-cache hit rate, how often the degradation ladder runs and
// where the latency tail sits, so a change tuned to it is not a gain.

/// Share of jobs that repeat an earlier spec job exactly, in percent.
const REPEAT_PCT: u64 = 20;

/// Share of new spec jobs that carry a `step_limit`, in percent.
const STEP_LIMIT_PCT: u64 = 10;

/// The demo stream's heuristic filters.
const FILTERS: [&str; 5] = ["all", "osm_*", "sched", "osm_bt,tsm_td", "restr"];

/// A generated stream: the job lines and, per line, the leaf spec its
/// cover is checked against (`None` for BLIF jobs).
pub struct Stream {
    pub lines: Vec<String>,
    pub specs: Vec<Option<String>>,
}

/// The BLIF jobs of every stream, ODC-simplified in 2 ms to 0.4 s.
fn blif_circuits(seed: u64) -> Vec<bddmin_fsm::Circuit> {
    vec![
        generators::traffic_light(),
        generators::minmax("minmax5", 5),
        generators::serial_mult("mult8", 8),
        generators::carry_bypass_acc("cbp8_4", 8, 4),
        generators::serial_mult("mult10", 10),
        generators::carry_bypass_acc("cbp10_4", 10, 4),
        generators::random_fsm("rand12", 12, 6, measure::mix(seed, 7)),
        generators::random_fsm("rand16", 16, 8, measure::mix(seed, 8)),
    ]
}

/// The stream for `seed`.
pub fn stream(seed: u64) -> Stream {
    let mut draw = {
        let mut counter = 0u64;
        move |n: u64| {
            counter += 1;
            measure::mix(seed, 1000 + counter) % n
        }
    };
    let blifs: Vec<String> = blif_circuits(seed).iter().map(print_blif).collect();
    // BLIF jobs at seeded positions, one per equal slice of the stream.
    let slice = JOBS / blifs.len();
    let blif_at: Vec<usize> = (0..blifs.len())
        .map(|k| k * slice + draw(slice as u64) as usize)
        .collect();
    let mut lines = Vec::with_capacity(JOBS);
    let mut specs: Vec<Option<String>> = Vec::with_capacity(JOBS);
    // (spec, filter, step_limit) of every new spec job, for repeats.
    let mut earlier: Vec<(String, &str, Option<u64>)> = Vec::new();
    for i in 0..JOBS {
        if let Some(k) = blif_at.iter().position(|&at| at == i) {
            lines.push(format!(
                "{{\"id\":\"b{i}\",\"blif\":\"{}\"}}",
                json::escape(&blifs[k])
            ));
            specs.push(None);
            continue;
        }
        let (spec, filter, step_limit) = if !earlier.is_empty() && draw(100) < REPEAT_PCT {
            earlier[draw(earlier.len() as u64) as usize].clone()
        } else {
            let vars = 8 + draw(5) as usize;
            let spec: String = (0..1usize << vars)
                .map(|_| match draw(10) {
                    0..=3 => 'd',
                    4..=6 => '0',
                    _ => '1',
                })
                .collect();
            let filter = FILTERS[draw(FILTERS.len() as u64) as usize];
            let step_limit = (draw(100) < STEP_LIMIT_PCT).then(|| 50 + draw(450));
            earlier.push((spec.clone(), filter, step_limit));
            (spec, filter, step_limit)
        };
        let mut line = format!("{{\"id\":\"j{i}\",\"spec\":\"{spec}\",\"heuristic\":\"{filter}\"");
        if let Some(limit) = step_limit {
            let _ = write!(line, ",\"step_limit\":{limit}");
        }
        line.push('}');
        lines.push(line);
        specs.push(Some(spec));
    }
    Stream { lines, specs }
}

/// Hands the stream to the service one line at a time and records when
/// each line was first exposed.
struct Feeder<'a> {
    lines: &'a [String],
    next: usize,
    pos: usize,
    buf: Vec<u8>,
    handed: Vec<Instant>,
}

impl BufRead for Feeder<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == 0 && self.next < self.lines.len() && self.handed.len() == self.next {
            self.buf.clear();
            self.buf.extend_from_slice(self.lines[self.next].as_bytes());
            self.buf.push(b'\n');
            self.handed.push(Instant::now());
        }
        if self.next >= self.lines.len() {
            return Ok(&[]);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        if self.pos >= self.buf.len() && self.next < self.lines.len() {
            self.next += 1;
            self.pos = 0;
        }
    }
}

impl Read for Feeder<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Collects the result lines and stamps the moment each one is complete.
struct Stamper {
    bytes: Vec<u8>,
    done: Vec<Instant>,
}

impl Write for Stamper {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.done.push(Instant::now());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One stream through `process_stream`: the result lines and each job's
/// latency in milliseconds.
fn public_pass(s: &Stream) -> (Vec<String>, Vec<f64>) {
    let mut feeder = Feeder {
        lines: &s.lines,
        next: 0,
        pos: 0,
        buf: Vec::new(),
        handed: Vec::with_capacity(s.lines.len()),
    };
    let mut out = Stamper {
        bytes: Vec::new(),
        done: Vec::with_capacity(s.lines.len()),
    };
    let opts = ServeOpts {
        shards: SHARDS,
        ..ServeOpts::default()
    };
    process_stream(&mut feeder, &mut out, &opts).expect("in-memory I/O cannot fail");
    let latencies = feeder
        .handed
        .iter()
        .zip(&out.done)
        .map(|(&h, &d)| (d - h).as_secs_f64() * 1e3)
        .collect();
    let text = String::from_utf8(out.bytes).expect("result lines are UTF-8");
    (text.lines().map(str::to_owned).collect(), latencies)
}

/// What a walk adds up over the jobs the service computes (cache hits
/// repeat an earlier result and add nothing).
#[derive(Default)]
struct Totals {
    kernel: KernelTotals,
    /// Result size of each heuristic, summed over the spec jobs.
    result_nodes: BTreeMap<&'static str, u64>,
}

/// The service replayed one job at a time through public calls, with spans.
fn walk(s: &Stream, tr: &mut Tracer) -> (Vec<String>, Totals, SigCache) {
    let mut cache = SigCache::new();
    let mut totals = Totals::default();
    let mut out = Vec::with_capacity(s.lines.len());
    let pass = tr.begin("bench.pass", 0, 0);
    for (index, line) in s.lines.iter().enumerate() {
        let id = index as u64;
        let sp = tr.begin("serve.parse", id, 0);
        let parsed = parse_job(line);
        tr.end(sp, 0);
        let job = match parsed {
            Ok(job) => job,
            Err(msg) => {
                out.push(render_result(
                    index,
                    None,
                    false,
                    CacheLabel::Bypass,
                    None,
                    &error_body(&msg),
                ));
                continue;
            }
        };
        let sp = tr.begin("serve.probe", id, 0);
        let decision = cache.probe(&job);
        tr.end(sp, 0);
        let (label, entry) = match decision {
            CacheDecision::Hit(entry) => {
                tr.count("serve.sig_cache.hits", 1);
                let (ok, body) = cache.result(entry).expect("hits follow their seeding job");
                out.push(render_result(
                    index,
                    job.id.as_deref(),
                    *ok,
                    CacheLabel::Hit,
                    None,
                    body,
                ));
                continue;
            }
            CacheDecision::Miss(entry, _) => (CacheLabel::Miss, Some(entry)),
            CacheDecision::Bypass => (CacheLabel::Bypass, None),
        };
        let sp = tr.begin("serve.job", id, 0);
        let (ok, body) = match run_job(&job, id, tr, &mut totals) {
            Ok(body) => (true, body),
            Err(msg) => (false, error_body(&msg)),
        };
        tr.end(sp, 0);
        if let Some(entry) = entry {
            cache.fill(entry, ok, body.clone());
        }
        out.push(render_result(
            index,
            job.id.as_deref(),
            ok,
            label,
            None,
            &body,
        ));
    }
    tr.end(pass, 0);
    (out, totals, cache)
}

fn run_job(job: &Job, id: u64, tr: &mut Tracer, totals: &mut Totals) -> Result<String, String> {
    match &job.kind {
        JobKind::Spec {
            spec,
            var_map: None,
        } => Ok(spec_job(job, spec, id, tr, totals)),
        JobKind::Spec { .. } => Err("the stream carries no var_map jobs".into()),
        JobKind::Blif { source } => blif_job(job, source, id, tr, &mut totals.kernel),
    }
}

/// The step count a heuristic's span opens with. Under an armed budget
/// every heuristic but `f_orig` re-arms it on entry, which zeroes the
/// manager's counter, so its steps count from 0.
fn heuristic_start_steps(bdd: &Bdd, h: Heuristic, budgeted: bool) -> u64 {
    if budgeted && h != Heuristic::FOrig {
        0
    } else {
        bdd.steps_used()
    }
}

/// The service's spec job (`engine::run_spec_job` without a var map).
fn spec_job(job: &Job, spec: &LeafSpec, id: u64, tr: &mut Tracer, totals: &mut Totals) -> String {
    let sp = tr.begin("bdd.leafspec_build", id, 0);
    let mut bdd = Bdd::new(spec.num_vars().max(1));
    let (f, c) = spec.build(&mut bdd);
    tr.end(sp, bdd.steps_used());
    let isf = Isf::new(f, c);
    let (f_size, c_size) = (bdd.size(isf.f), bdd.size(isf.c));
    let mut rows = String::new();
    let mut best: Option<(usize, Edge, Heuristic)> = None;
    let mut degraded = false;
    for (i, &h) in job.filter.selected.iter().enumerate() {
        bdd.clear_caches();
        let start = heuristic_start_steps(&bdd, h, job.budget.armed());
        let sp = tr.begin(heuristic_span(h), id, start);
        let (g, report) = if job.budget.armed() {
            let (g, report) = h.minimize_budgeted(&mut bdd, isf, job.budget.to_budget());
            (g, Some(report))
        } else {
            (h.minimize(&mut bdd, isf), None)
        };
        tr.end(sp, bdd.steps_used());
        let size = bdd.size(g);
        *totals.result_nodes.entry(h.name()).or_insert(0) += size as u64;
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(rows, "{{\"name\":\"{}\",\"size\":{size}", h.name());
        if let Some(report) = &report {
            degraded |= report.degraded();
            let _ = write!(rows, ",\"report\":{}", report.to_json());
        }
        rows.push('}');
        if best.is_none_or(|(bs, _, _)| size < bs) {
            best = Some((size, g, h));
        }
    }
    let (min_size, best_edge, best_h) = best.expect("stream filters select at least one heuristic");
    let sp = tr.begin("bdd.isop", id, bdd.steps_used());
    let cover = bdd.isop(best_edge, best_edge).to_sop_string(&bdd);
    tr.end(sp, bdd.steps_used());
    totals.kernel.add(&bdd.stats());
    format!(
        "\"kind\":\"spec\",\"f_size\":{f_size},\"c_size\":{c_size},\
         \"heuristics\":[{rows}],\"min_size\":{min_size},\"best\":\"{}\",\
         \"cover\":\"{}\",\"degraded\":{degraded}",
        best_h.name(),
        json::escape(&cover)
    )
}

/// The service's BLIF job (`engine::run_blif_job`).
fn blif_job(
    job: &Job,
    source: &str,
    id: u64,
    tr: &mut Tracer,
    kernel: &mut KernelTotals,
) -> Result<String, String> {
    let sp = tr.begin("fsm.blif_parse", id, 0);
    let parsed = parse_blif(source);
    tr.end(sp, 0);
    let circuit = parsed.map_err(|e| format!("bad blif: {e}"))?;
    let h = job.filter.selected[0];
    let budget = job.budget;
    let mut last_stats = None;
    let sp = tr.begin("fsm.odc_simplify", id, 0);
    let report = simplify_report(&circuit, |bdd, isf| {
        let s = tr.begin(
            heuristic_span(h),
            id,
            heuristic_start_steps(bdd, h, budget.armed()),
        );
        let g = if budget.armed() {
            h.minimize_budgeted(bdd, isf, budget.to_budget()).0
        } else {
            h.minimize(bdd, isf)
        };
        tr.end(s, bdd.steps_used());
        last_stats = Some(bdd.stats());
        g
    });
    tr.end(sp, 0);
    if let Some(stats) = &last_stats {
        kernel.add(stats);
    }
    let mut nets = String::new();
    let (mut total_orig, mut total_min) = (0usize, 0usize);
    for (i, entry) in report.iter().enumerate() {
        total_orig += entry.original_size;
        total_min += entry.minimized_size;
        if i > 0 {
            nets.push(',');
        }
        let _ = write!(
            nets,
            "{{\"name\":\"{}\",\"orig\":{},\"min\":{}}}",
            json::escape(&entry.name),
            entry.original_size,
            entry.minimized_size
        );
    }
    Ok(format!(
        "\"kind\":\"blif\",\"nets\":[{nets}],\"total_orig\":{total_orig},\"total_min\":{total_min}"
    ))
}

/// Evaluates an SOP cover (`x1·¬x3 + x2`, variables `x1…xn`, `x1` the
/// leaf spec's first and most significant variable) on every assignment
/// and compares it with each specified leaf. Plain code, no BDDs.
pub fn cover_matches_spec(cover: &str, spec: &str) -> Result<(), String> {
    let leaves: Vec<char> = spec
        .chars()
        .filter(|c| matches!(c, '0' | '1' | 'd'))
        .collect();
    let n = leaves.len().trailing_zeros() as usize;
    // Each cube as (mask of variables it mentions, required values).
    let mut cubes: Vec<(u64, u64)> = Vec::new();
    if cover != "0" {
        for cube in cover.split(" + ") {
            let (mut mask, mut value) = (0u64, 0u64);
            if cube != "1" {
                for lit in cube.split('·') {
                    let (positive, name) = match lit.strip_prefix('¬') {
                        Some(rest) => (false, rest),
                        None => (true, lit),
                    };
                    let k: usize = name
                        .strip_prefix('x')
                        .and_then(|d| d.parse().ok())
                        .filter(|&k| (1..=n).contains(&k))
                        .ok_or_else(|| format!("bad literal {lit:?}"))?;
                    let bit = 1u64 << (n - k);
                    mask |= bit;
                    if positive {
                        value |= bit;
                    }
                }
            }
            cubes.push((mask, value));
        }
    }
    for (idx, &leaf) in leaves.iter().enumerate() {
        let want = match leaf {
            '0' => false,
            '1' => true,
            _ => continue,
        };
        let got = cubes
            .iter()
            .any(|&(mask, value)| idx as u64 & mask == value);
        if got != want {
            return Err(format!("cover is {got} on leaf {idx}, spec says {want}"));
        }
    }
    Ok(())
}

/// The raw value of the first `"key":` in a result line: a string's
/// contents or a number's digits. Result lines are read by hand because
/// the service's own JSON parser revalidates the rest of the line at every
/// string character, which is quadratic on lines of many kilobytes.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|end| &s[..end]),
        None => {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            Some(&rest[..end])
        }
    }
}

fn number(line: &str, key: &str) -> Result<u64, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no numeric {key}"))
}

/// Checks every result line; returns the checks made, the failures, and
/// the result nodes and the input nodes they came from (`min_size` and
/// `f_size` of spec jobs, `total_min` and `total_orig` of BLIF jobs).
fn check_output(s: &Stream, out: &[String]) -> (u64, u64, u64, u64) {
    let (mut checked, mut failed, mut nodes, mut from) = (0u64, 0u64, 0u64, 0u64);
    if out.len() != s.lines.len() {
        eprintln!("  {} result lines for {} jobs", out.len(), s.lines.len());
        failed += 1;
    }
    for (i, (line, spec)) in out.iter().zip(&s.specs).enumerate() {
        checked += 1;
        let verdict = (|| -> Result<(u64, u64), String> {
            if field(line, "status") != Some("ok") {
                return Err("status is not ok".into());
            }
            match spec {
                Some(spec) => {
                    let cover = field(line, "cover").ok_or("no cover")?;
                    cover_matches_spec(cover, spec)?;
                    Ok((number(line, "min_size")?, number(line, "f_size")?))
                }
                None => Ok((number(line, "total_min")?, number(line, "total_orig")?)),
            }
        })();
        match verdict {
            Ok((n, f)) => {
                nodes += n;
                from += f;
            }
            Err(e) => {
                eprintln!("  job {i}: {e}: {line}");
                failed += 1;
            }
        }
    }
    (checked, failed, nodes, from)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (s, mut setup) = measure::Setup::new(|| stream(seed));
    eprintln!(
        "serve_stream: seed {seed}, {} jobs, {SHARDS} shards, closed loop",
        s.lines.len()
    );
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let metrics;
    if trace {
        let (reference, _) = public_pass(&s);
        let passes = crate::trace::alternate(seconds, |tr| walk(&s, tr));
        let mut per_pass = Vec::new();
        for (i, p) in passes.iter().enumerate() {
            let (lines, totals, cache) = &p.result;
            attempted += lines.len() as u64;
            let differ = lines.iter().zip(&reference).filter(|(a, b)| a != b).count()
                + lines.len().abs_diff(reference.len());
            if differ > 0 {
                eprintln!("  walk {i}: {differ} result lines differ from process_stream");
                failed += differ as u64;
            }
            let mut m = BTreeMap::new();
            p.tracer.summarize(&mut m);
            totals.kernel.emit(&mut m);
            let spec_jobs = s.specs.iter().filter(|x| x.is_some()).count() as f64;
            let hits = m.remove("serve.sig_cache.hits").unwrap_or(0.0);
            m.insert("serve.sig_cache.hit_rate".into(), hits / spec_jobs);
            m.insert("serve.sig_collisions".into(), cache.collisions as f64);
            for (name, nodes) in &totals.result_nodes {
                m.insert(format!("core.{name}.result_nodes"), *nodes as f64);
            }
            per_pass.push(m);
        }
        passes[0].tracer.write_trace("serve_stream", seed);
        let on: Vec<f64> = passes.iter().map(|p| p.on_s).collect();
        let off: Vec<f64> = passes.iter().map(|p| p.off_s).collect();
        let (m, bad) = measure::fold_traced(&per_pass, &off, &on);
        failed += bad;
        metrics = m;
    } else {
        let mut timed = Timed::default();
        // Only the first pass's output is kept; later passes are compared
        // with it as they finish, so the benchmark's own memory does not
        // grow with the number of passes.
        let mut first: Option<Vec<String>> = None;
        let mut differing = 0u64;
        let (passes, rss) = measure::repeat_for(seconds, Some(&mut setup), || {
            let (lines, latencies) = public_pass(&s);
            match &first {
                None => first = Some(lines),
                Some(f) => differing += u64::from(*f != lines),
            }
            latencies
        });
        for (latencies, secs) in passes {
            attempted += latencies.len() as u64;
            timed.pass_s.push(secs);
            timed.op_ms.push(latencies);
        }
        if differing > 0 {
            eprintln!("  {differing} passes differ from the first pass's output");
            failed += differing;
        }
        let (checked, bad, nodes, from) =
            check_output(&s, first.as_ref().expect("at least one pass"));
        attempted += checked;
        failed += bad;
        metrics = measure::end_to_end(&setup, &timed, nodes as f64 / from as f64, rss);
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sop_evaluator_follows_the_leaf_order() {
        // (d1 01) over x1 x2: leaves x1x2 = 00 d, 01 → 1, 10 → 0, 11 → 1.
        assert!(cover_matches_spec("x2", "d1 01").is_ok());
        assert!(cover_matches_spec("¬x1 + x2", "d1 01").is_ok());
        assert!(cover_matches_spec("x1", "d1 01").is_err());
        assert!(cover_matches_spec("1", "d1 01").is_err());
        assert!(cover_matches_spec("0", "dd 00").is_ok());
        assert!(cover_matches_spec("x1·¬x2", "00 10").is_ok());
        assert!(
            cover_matches_spec("x3", "d1 01").is_err(),
            "unknown variable"
        );
    }

    #[test]
    fn fields_are_read_from_result_lines() {
        let line = r#"{"index":3,"id":"j3","status":"ok","cache":"miss","kind":"spec","heuristics":[{"name":"osm_bt","size":4,"report":{"steps":[{"kind":"x","status":"completed"}]}},{"name":"tsm_td","size":5}],"min_size":4,"cover":"x1·¬x2","degraded":false}"#;
        assert_eq!(field(line, "status"), Some("ok"));
        assert_eq!(field(line, "cover"), Some("x1·¬x2"));
        assert_eq!(number(line, "min_size"), Ok(4));
        assert!(number(line, "total_min").is_err());
    }

    #[test]
    fn budgeted_heuristics_count_steps_from_their_rearm() {
        let spec = stream(3)
            .specs
            .into_iter()
            .flatten()
            .find(|s| s.len() >= 1 << 10)
            .expect("the stream has a spec of at least 10 variables");
        let line = format!(
            "{{\"id\":\"t\",\"spec\":\"{spec}\",\"heuristic\":\"f_orig,f_and_c,opt_lv\",\"step_limit\":1000000000}}"
        );
        let job = parse_job(&line).expect("valid job");
        let JobKind::Spec { spec: leaf, .. } = &job.kind else {
            panic!("a spec job");
        };
        // Reference: the counter read right after each heuristic, which
        // has counted from 0 since the heuristic re-armed the budget.
        let mut bdd = Bdd::new(leaf.num_vars().max(1));
        let (f, c) = leaf.build(&mut bdd);
        let isf = Isf::new(f, c);
        let mut want = BTreeMap::new();
        let mut previous = bdd.steps_used();
        for &h in &job.filter.selected {
            bdd.clear_caches();
            h.minimize_budgeted(&mut bdd, isf, job.budget.to_budget());
            let after = bdd.steps_used();
            let steps = if h == Heuristic::FOrig { 0 } else { after };
            if h == Heuristic::OptLv {
                assert!(
                    after > previous,
                    "opt_lv must charge more than the reading before it ({after} vs {previous})"
                );
            }
            want.insert(format!("core.{}.steps", h.name()), steps as f64);
            previous = after;
        }
        let mut tr = Tracer::new(true);
        let mut totals = Totals::default();
        spec_job(&job, leaf, 0, &mut tr, &mut totals);
        let mut m = BTreeMap::new();
        tr.summarize(&mut m);
        for (name, steps) in &want {
            assert_eq!(m[name], *steps, "{name}");
        }
        assert_eq!(totals.result_nodes.len(), job.filter.selected.len());
    }

    #[test]
    fn stream_is_seeded_and_well_formed() {
        let a = stream(5);
        assert_eq!(a.lines, stream(5).lines);
        assert_ne!(a.lines, stream(6).lines);
        assert_eq!(a.lines.len(), JOBS);
        assert_eq!(
            a.specs.iter().filter(|s| s.is_none()).count(),
            blif_circuits(5).len()
        );
        for line in &a.lines {
            parse_job(line).expect("every line is a valid job");
        }
    }

    #[test]
    fn walk_reproduces_process_stream_and_covers_check_out() {
        let full = stream(2);
        // A short prefix with one BLIF job keeps the test fast.
        let blif = full.specs.iter().position(Option::is_none).unwrap();
        let keep: Vec<usize> = (0..60).chain([blif]).collect();
        let s = Stream {
            lines: keep.iter().map(|&i| full.lines[i].clone()).collect(),
            specs: keep.iter().map(|&i| full.specs[i].clone()).collect(),
        };
        let (public, latencies) = public_pass(&s);
        assert_eq!(latencies.len(), s.lines.len());
        let (walked, _, _) = walk(&s, &mut Tracer::new(true));
        assert_eq!(public, walked);
        let (checked, failed, nodes, from) = check_output(&s, &public);
        assert_eq!((checked, failed), (s.lines.len() as u64, 0));
        assert!(nodes > 0 && nodes < from);
    }
}
