//! Tier-1 gates for the service determinism and soundness contracts.
//!
//! Everything runs in-process through [`bddmin_serve::process_stream`] —
//! no subprocesses, so the suite is fast and failure output points at
//! engine state, not at a broken pipe.

use bddmin_core::rng::XorShift64;
use bddmin_serve::{demo_stream, json, process_stream, ServeOpts, ServeSummary};

fn run(input: &str, shards: usize) -> (String, ServeSummary) {
    let mut out = Vec::new();
    let summary = process_stream(
        input.as_bytes(),
        &mut out,
        &ServeOpts {
            shards,
            ..ServeOpts::default()
        },
    )
    .expect("in-memory I/O cannot fail");
    (String::from_utf8(out).expect("output is UTF-8"), summary)
}

/// Parses a result line back through the crate's own JSON module.
fn parsed(line: &str) -> json::Json {
    json::parse(line).unwrap_or_else(|e| panic!("unparsable result line {line:?}: {e}"))
}

fn field_u64(v: &json::Json, key: &str) -> u64 {
    v.get(key)
        .and_then(json::Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer {key:?} in {v:?}"))
}

fn field_str<'a>(v: &'a json::Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(json::Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?} in {v:?}"))
}

#[test]
fn demo_stream_is_byte_identical_across_shard_counts() {
    let input = demo_stream(50);
    let (one, sum1) = run(&input, 1);
    let (four, sum4) = run(&input, 4);
    assert_eq!(one, four, "shard count leaked into the result stream");
    assert_eq!(sum1.jobs, 50);
    assert_eq!((sum1.ok, sum1.errors), (sum4.ok, sum4.errors));
    assert_eq!(sum1.cache_hits, sum4.cache_hits);
    assert!(sum1.cache_hits > 0, "demo stream must exercise the cache");
    // The acceptance-criteria mix: a malformed line and a non-injective
    // map both produce structured error lines; a budget-starved job
    // degrades; nothing panics the stream (process_stream returned).
    assert_eq!(sum1.errors, 2, "{one}");
    assert!(one.contains("malformed job"), "{one}");
    assert!(one.contains("not injective"), "{one}");
    assert!(one.contains("\"degraded\":true"), "{one}");
    // One result line per job, in input order.
    for (i, line) in one.lines().enumerate() {
        assert_eq!(field_u64(&parsed(line), "index"), i as u64);
    }
    assert_eq!(one.lines().count(), 50);
}

#[test]
fn cache_hits_pass_exact_confirmation_and_reuse_the_result() {
    // Same ISF + filter + budget twice, with a different ISF in between.
    let input = "\
{\"id\":\"first\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"other\",\"spec\":\"dd 01 10 11\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"again\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\"}\n\
{\"id\":\"budgeted\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\",\"step_limit\":99}\n";
    let (out, summary) = run(input, 2);
    let lines: Vec<json::Json> = out.lines().map(parsed).collect();
    assert_eq!(field_str(&lines[0], "cache"), "miss");
    assert_eq!(field_str(&lines[1], "cache"), "miss");
    assert_eq!(field_str(&lines[2], "cache"), "hit");
    // A different budget is a different request: no hit.
    assert_eq!(field_str(&lines[3], "cache"), "miss");
    assert_eq!(summary.cache_hits, 1);
    assert_eq!(summary.sig_collisions, 0);
    // The hit reuses the seeding job's body verbatim.
    for key in ["f_size", "min_size"] {
        assert_eq!(field_u64(&lines[0], key), field_u64(&lines[2], key));
    }
    assert_eq!(field_str(&lines[0], "cover"), field_str(&lines[2], "cover"));
    // But echoes its own id and index.
    assert_eq!(field_str(&lines[2], "id"), "again");
    assert_eq!(field_u64(&lines[2], "index"), 2);
}

#[test]
fn budget_starved_stream_satisfies_the_budget_oracle() {
    // Every spec in the pool under a 1-step budget, all heuristics:
    // every run must degrade to a valid cover no larger than |f|.
    let specs = ["d1 01", "d1 01 1d 01", "01 1d d1 10", "01 10 d0 0d 11 1d 00 dd"];
    let mut input = String::new();
    for spec in specs {
        input.push_str(&format!("{{\"spec\":\"{spec}\",\"step_limit\":1}}\n"));
    }
    let (out, summary) = run(&input, 3);
    assert_eq!(summary.errors, 0, "starvation must degrade, not fail: {out}");
    assert_eq!(summary.ok, specs.len());
    let mut degraded = 0;
    for line in out.lines() {
        let v = parsed(line);
        assert_eq!(field_str(&v, "status"), "ok");
        let f_size = field_u64(&v, "f_size");
        assert!(field_u64(&v, "min_size") <= f_size, "oracle violated: {line}");
        // Per-heuristic: every reported size obeys the clamp.
        for h in v.get("heuristics").and_then(json::Json::as_array).unwrap() {
            assert!(
                field_u64(h, "size") <= f_size,
                "budgeted result exceeds |f|: {line}"
            );
        }
        if line.contains("\"degraded\":true") {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "a 1-step budget never bit: {out}");
}

#[test]
fn malicious_transfer_job_cannot_kill_the_worker() {
    // One shard, so the poisoned job and the follow-ups share a worker:
    // the bad variable map must produce a structured error line and the
    // worker must keep answering.
    let input = "\
{\"id\":\"evil\",\"spec\":\"d1 01 1d 01\",\"var_map\":[1,1,1]}\n\
{\"id\":\"after1\",\"spec\":\"d1 01\"}\n\
{\"id\":\"after2\",\"spec\":\"dd 01 10 11\",\"heuristic\":\"sched\"}\n";
    let (out, summary) = run(input, 1);
    let lines: Vec<json::Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 3);
    assert_eq!(field_str(&lines[0], "status"), "error");
    assert!(
        field_str(&lines[0], "error").contains("not injective"),
        "error must name the cause: {out}"
    );
    assert_eq!(field_str(&lines[1], "status"), "ok");
    assert_eq!(field_str(&lines[2], "status"), "ok");
    assert_eq!(summary.ok, 2);
    assert_eq!(summary.errors, 1);
    // An out-of-range map is the other structured transfer error.
    let (out, _) = run("{\"spec\":\"d1 01\",\"var_map\":[0,9]}\n", 1);
    assert!(out.contains("not declared"), "{out}");
    assert!(out.contains("\"status\":\"error\""), "{out}");
}

#[test]
fn emit_shard_is_opt_in_because_it_breaks_invariance() {
    let input = "{\"spec\":\"d1 01\"}\n{\"spec\":\"d1 01 1d 01\"}\n";
    let mut out = Vec::new();
    process_stream(
        input.as_bytes(),
        &mut out,
        &ServeOpts {
            shards: 2,
            emit_shard: true,
            ..ServeOpts::default()
        },
    )
    .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("\"shard\":0"), "{out}");
    assert!(out.contains("\"shard\":1"), "{out}");
    // Hash-sharding keeps the default stream identical too: assignment
    // changes, output does not.
    let input = demo_stream(20);
    let (rr, _) = run(&input, 3);
    let mut hashed = Vec::new();
    process_stream(
        input.as_bytes(),
        &mut hashed,
        &ServeOpts {
            shards: 3,
            hash_shard: true,
            ..ServeOpts::default()
        },
    )
    .unwrap();
    assert_eq!(rr, String::from_utf8(hashed).unwrap());
}

/// FNV-1a (64-bit) of the result stream of
/// [`seeded_spec_covers_match_golden_hash`], recorded with the clone-based
/// ISOP that `crates/bdd/tests/random_props.rs` keeps as its reference.
/// Any drift in a heuristic size, the chosen best result or the cube
/// order of a `cover` moves it.
const GOLDEN_SPEC_STREAM_FNV: u64 = 0xfb8c_e2e9_a97a_dfc7;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn seeded_spec_covers_match_golden_hash() {
    // Serve-style spec jobs: 8–12 variables, 40% don't cares, the demo
    // stream's five filters, no budgets (every cover is the exact ISOP of
    // the best heuristic's result).
    const FILTERS: [&str; 5] = ["all", "osm_*", "sched", "osm_bt,tsm_td", "restr"];
    const JOBS: usize = 24;
    let mut rng = XorShift64::seed_from_u64(12);
    let mut input = String::new();
    for i in 0..JOBS {
        let vars = 8 + rng.gen_range(0..5);
        let spec: String = (0..1usize << vars)
            .map(|_| match rng.gen_range(0..10) {
                0..=3 => 'd',
                4..=6 => '0',
                _ => '1',
            })
            .collect();
        let filter = FILTERS[i % FILTERS.len()];
        input.push_str(&format!(
            "{{\"id\":\"g{i}\",\"spec\":\"{spec}\",\"heuristic\":\"{filter}\"}}\n"
        ));
    }
    let (out, summary) = run(&input, 2);
    assert_eq!((summary.ok, summary.errors), (JOBS, 0), "{out}");
    assert_eq!(
        fnv1a(out.as_bytes()),
        GOLDEN_SPEC_STREAM_FNV,
        "serve result lines drifted: {out}"
    );
}
