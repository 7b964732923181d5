//! Timing helpers shared by the workloads: medians, percentiles, seeded
//! mixing, set-up timing and peak resident memory.

use std::collections::BTreeMap;
use std::time::Instant;

/// How many times the inputs are built again after every timed pass.
const SETUP_REPS_PER_PASS: usize = 5;

/// Fewest timed passes a run makes, however long a pass takes.
pub const MIN_PASSES: usize = 3;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` (0–100) of a non-empty sample, linearly interpolated
/// between the two order statistics around position `p/100 · (n − 1)`
/// (numpy's default). Unlike the nearest rank it does not jump from one
/// order statistic to the next when `n` changes by one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// SplitMix64 finaliser: derives independent generator seeds from the
/// benchmark seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times the building of a workload's inputs. They are built once before
/// the timed passes and [`SETUP_REPS_PER_PASS`] times after each of them
/// (see [`repeat_for`]); `setup_s` is the median of all those builds. A
/// build takes milliseconds, so builds made in one burst would all read
/// whatever the shared host was doing in that fraction of a second; spread
/// over the run, their median follows the host as the pass timings do.
pub struct Setup<'a> {
    /// Builds the inputs, drops them and returns the seconds taken.
    rebuild: Box<dyn FnMut() -> f64 + 'a>,
    times: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Builds the inputs once; returns them and the set-up clock.
    pub fn new<T>(mut build: impl FnMut() -> T + 'a) -> (T, Self) {
        let start = Instant::now();
        let inputs = build();
        let first = start.elapsed().as_secs_f64();
        let rebuild = move || {
            let start = Instant::now();
            std::hint::black_box(build());
            start.elapsed().as_secs_f64()
        };
        let clock = Setup {
            rebuild: Box::new(rebuild),
            times: vec![first],
        };
        (inputs, clock)
    }

    fn after_pass(&mut self) {
        for _ in 0..SETUP_REPS_PER_PASS {
            let s = (self.rebuild)();
            self.times.push(s);
        }
    }

    /// Median build time in seconds.
    fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Resets the kernel's peak-RSS watermark for this process, so the next
/// [`peak_rss_mb`] covers only what runs after this call. Best effort: a
/// kernel that refuses leaves the watermark covering set-up as well.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Timings of the untraced passes of one run.
#[derive(Default)]
pub struct Timed {
    /// Wall seconds of each pass.
    pub pass_s: Vec<f64>,
    /// Latency of every operation of each pass, in milliseconds. Every
    /// pass runs the same operations in the same order.
    pub op_ms: Vec<Vec<f64>>,
}

/// The end-to-end metrics of an untraced run.
///
/// `pass_s` is the median of the faster half of the passes (at least two):
/// on a shared host other tenants slow whole passes down, and the slow half
/// is where that interference lands. The latency percentiles are taken
/// over operations, not samples: each operation's latency is first reduced
/// to its median over all passes, and `op_p50_ms` / `op_p99_ms` are
/// interpolated percentiles of those medians. The per-operation median
/// drops the passes a slowdown hit for that operation alone, and the
/// percentile of one value per operation does not move when the number of
/// passes that fit in the run changes.
pub fn end_to_end(
    setup: &Setup,
    timed: &Timed,
    result_size_ratio: f64,
    peak_rss: Option<f64>,
) -> BTreeMap<String, f64> {
    let mut order: Vec<usize> = (0..timed.pass_s.len()).collect();
    order.sort_by(|&a, &b| timed.pass_s[a].total_cmp(&timed.pass_s[b]));
    order.truncate(timed.pass_s.len().div_ceil(2).max(2));
    let kept_s: Vec<f64> = order.iter().map(|&i| timed.pass_s[i]).collect();
    let ops = per_op_medians(&timed.op_ms);
    let mut m = BTreeMap::new();
    m.insert("setup_s".to_owned(), setup.median_s());
    m.insert("pass_s".to_owned(), median(&kept_s));
    m.insert("op_p50_ms".to_owned(), percentile(&ops, 50.0));
    m.insert("op_p99_ms".to_owned(), percentile(&ops, 99.0));
    if let Some(rss) = peak_rss {
        m.insert("peak_rss_mb".to_owned(), rss);
    }
    m.insert("result_size_ratio".to_owned(), result_size_ratio);
    eprintln!(
        "  passes {}: pass_s {:?}; pass_s from the {} fastest; {} operations, each the median of {} latencies (p99 has {} operations beyond it); setup_s from {} builds",
        timed.pass_s.len(),
        timed.pass_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        order.len(),
        ops.len(),
        timed.op_ms.len(),
        ops.len() - 1 - (0.99 * (ops.len() - 1) as f64).floor() as usize,
        setup.times.len()
    );
    m
}

/// The median latency of each operation over the passes.
fn per_op_medians(op_ms: &[Vec<f64>]) -> Vec<f64> {
    let n = op_ms[0].len();
    assert!(
        op_ms.iter().all(|pass| pass.len() == n),
        "passes ran different numbers of operations"
    );
    (0..n)
        .map(|i| median(&op_ms.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// True for the wall-clock per-layer metrics; the rest are exact counts.
fn is_time(name: &str) -> bool {
    name.ends_with("_s") || name.ends_with(".s") || name.starts_with("fsm.image_s.")
}

/// Folds the traced passes of one run into per-layer metrics: the median
/// of each wall-clock metric, each count as recorded (it must repeat
/// exactly; every disagreement is returned as a failure), and the tracing
/// overhead from the alternating untraced (`off_s`) and traced (`on_s`)
/// passes.
pub fn fold_traced(
    passes: &[BTreeMap<String, f64>],
    off_s: &[f64],
    on_s: &[f64],
) -> (BTreeMap<String, f64>, u64) {
    let mut out = BTreeMap::new();
    let mut mismatches = 0;
    for name in passes[0].keys() {
        let values: Vec<f64> = passes
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        if is_time(name) {
            out.insert(name.clone(), median(&values));
        } else {
            if values.iter().any(|&v| v != values[0]) {
                eprintln!("  count {name} differs between traced passes: {values:?}");
                mismatches += 1;
            }
            out.insert(name.clone(), values[0]);
        }
    }
    let overhead = (median(on_s) / median(off_s) - 1.0) * 100.0;
    out.insert("trace.overhead_pct".to_owned(), overhead);
    eprintln!(
        "  walk untraced {:?} s, traced {:?} s: overhead {overhead:.2}%",
        off_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
        on_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    );
    (out, mismatches)
}

/// Runs `pass` until `seconds` would be exceeded by one more pass (at
/// least [`MIN_PASSES`] times), timing set-up builds after every pass when
/// `setup` is given; returns each pass's result and seconds, and the peak
/// RSS of the first pass (later passes only add allocator fragmentation,
/// and how many of them fit depends on the machine's speed).
pub fn repeat_for<T>(
    seconds: f64,
    mut setup: Option<&mut Setup>,
    mut pass: impl FnMut() -> T,
) -> (Vec<(T, f64)>, Option<f64>) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut rss = None;
    reset_peak_rss();
    loop {
        let t = Instant::now();
        let value = pass();
        let s = t.elapsed().as_secs_f64();
        eprintln!("  pass {}: {s:.3} s", out.len());
        out.push((value, s));
        if out.len() == 1 {
            rss = peak_rss_mb();
        }
        if let Some(setup) = setup.as_deref_mut() {
            setup.after_pass();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if out.len() >= MIN_PASSES && elapsed + s > seconds {
            return (out, rss);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Between order statistics the percentile is interpolated.
        assert!((percentile(&[0.0, 10.0, 20.0, 30.0], 50.0) - 15.0).abs() < 1e-12);
        assert!((percentile(&[1.0, 2.0, 100.0], 99.0) - 98.04).abs() < 1e-9);
    }

    #[test]
    fn operations_are_reduced_to_their_median_over_passes() {
        let passes = vec![vec![1.0, 50.0], vec![9.0, 10.0], vec![2.0, 20.0]];
        assert_eq!(per_op_medians(&passes), vec![2.0, 20.0]);
    }

    #[test]
    fn mix_separates_streams_and_seeds() {
        assert_ne!(mix(0, 1), mix(0, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
