//! `bddmin-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload ebm_sweep --seed 0 --seconds 35 --trace 0
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! of a separate traced run. See README.md for the workloads, metrics and
//! the correctness references.

mod ebm;
mod measure;
mod serve;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every workload, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 3] = ["ebm_sweep", "fsm_verify", "serve_stream"];

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("result_size_ratio", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for h in bddmin_core::Heuristic::ALL
        .into_iter()
        .chain([bddmin_core::Heuristic::Scheduled])
    {
        add(format!("core.{}.s", h.name()), "s");
        add(format!("core.{}.steps", h.name()), "count");
        add(format!("core.{}.result_nodes", h.name()), "count");
    }
    for name in ["core.lower_bound_s", "eval.intercept_s", "eval.filter_s"] {
        add(name.into(), "s");
    }
    for name in [
        "eval.calls_intercepted",
        "eval.calls_measured",
        "bdd.steps",
        "bdd.nodes_created",
    ] {
        add(name.into(), "count");
    }
    for class in bddmin_bdd::BddStats::OP_CLASSES {
        add(format!("bdd.cache.{class}.hits"), "count");
        add(format!("bdd.cache.{class}.misses"), "count");
        add(format!("bdd.cache.{class}.hit_rate"), "ratio");
    }
    for name in [
        "bdd.cache.evictions",
        "bdd.cache.resizes",
        "bdd.memo.hits",
        "bdd.memo.misses",
    ] {
        add(name.into(), "count");
    }
    add("bdd.memo.hit_rate".into(), "ratio");
    for name in ["bdd.peak_live_nodes", "bdd.gc.runs", "bdd.gc.reclaimed"] {
        add(name.into(), "count");
    }
    for name in [
        "bdd.gc_s",
        "bdd.apply_s",
        "bdd.constrain_s",
        "fsm.build_s",
        "fsm.image_s.mono",
        "fsm.image_s.part",
        "fsm.image_s.range",
    ] {
        add(name.into(), "s");
    }
    for name in ["fsm.image_calls", "fsm.bfs_iterations"] {
        add(name.into(), "count");
    }
    for name in [
        "serve.parse_s",
        "serve.probe_s",
        "serve.job_s",
        "bdd.isop_s",
        "bdd.leafspec_build_s",
        "fsm.blif_parse_s",
        "fsm.odc_simplify_s",
    ] {
        add(name.into(), "s");
    }
    add("serve.sig_cache.hit_rate".into(), "ratio");
    add("serve.sig_collisions".into(), "count");
    for layer in ["bench", "bdd", "core", "fsm", "eval", "serve"] {
        add(format!("layer.{layer}.self_s"), "s");
    }
    add("trace.overhead_pct".into(), "%");
    add("trace.spans".into(), "count");
    m
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations run (heuristic runs, verdicts or jobs) plus checks made.
    pub attempted: u64,
    /// Operations or checks whose result disagreed with its reference.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            WORKLOADS.join(" ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(35.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line. Every catalogued metric of the run's kind is
/// present; a per-layer metric the workload never touches reads 0.
fn render(outcome: &Outcome, trace: bool) -> String {
    let catalog: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    for name in outcome.metrics.keys() {
        assert!(
            catalog.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the catalogue"
        );
    }
    let fields: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite");
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ebm_sweep" => ebm::run(args.seed, args.seconds, args.trace),
        "fsm_verify" => verify::run(args.seed, args.seconds, args.trace),
        "serve_stream" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated in parse_args"),
    };
    println!("{}", render(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_have_units() {
        let mut all: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        all.extend(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
        }
        assert!(per_layer().len() <= 128);
    }

    /// BENCHMARK.json (one directory up) must list exactly the metrics,
    /// units and workloads this binary prints.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = bddmin_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(|v| v.as_str()).expect("name");
                    let unit = m.get("unit").and_then(|v| v.as_str()).unwrap_or("");
                    (name.to_owned(), unit.to_owned())
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_lists_every_metric_of_its_kind() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: BTreeMap::from([("pass_s".to_owned(), 1.25)]),
        };
        let line = render(&outcome, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"pass_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":")), "{name} missing");
        }
        let parsed = bddmin_serve::json::parse(&line).expect("result line is JSON");
        assert!(parsed.get("metrics").is_some());
    }
}
