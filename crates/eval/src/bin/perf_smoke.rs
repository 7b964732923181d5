//! Dependency-free kernel performance smoke test.
//!
//! Exercises the hot paths of the BDD kernel and reports throughput:
//!
//! 1. **ITE storm** — a pool-based storm of top-level `ite` calls over
//!    random operands, the workload dominated by unique-table probing and
//!    computed-cache traffic.
//! 2. **Constrain/restrict** — the paper's generalized-cofactor operators
//!    over random incompletely specified functions (cube-cover `f` and
//!    care set `c`).
//! 3. **GC cycles** — scratch churn followed by explicit mark–sweep
//!    collections with a dense unique-table rebuild.
//! 4. **Heuristic storm** — the full minimization registry (all twelve
//!    paper heuristics plus the scheduler) over random ISFs, driving the
//!    manager-resident minimization memo.
//! 5. **Level storm** — the tsm clique-cover solve over a wide gathered
//!    set (n ≥ 64), run with the matching-graph acceleration layer off
//!    and on at parity; results are asserted byte-identical and the
//!    median speedup is recorded.
//! 6. **Reorder storm** — adversarially-ordered functions (Σ aᵢ·bᵢ under
//!    the worst-case split order) sifted to a locally optimal order; the
//!    nodes-before/after, swap counts, wall clock, and a semantic
//!    identity check (exact model count + 64-lane signatures) land in a
//!    separate `BENCH_6.json` (`BENCH_6.quick.json` in quick mode).
//! 7. **Chain storm** — chain-heavy workloads (long or-chains over random
//!    cube frontiers, their and-chain complements, don't-care restricts,
//!    and existential steps: the shapes of cube care-sets and fsm
//!    reachability frontiers) replayed identically on a plain and a
//!    chain-reduced (CBDD) manager; live-node compression after GC,
//!    wall clock on both modes, peak memory, and a per-root semantic
//!    identity check (sat_count bit equality + 64-lane signatures) land
//!    in `BENCH_7.json` (`BENCH_7.quick.json` in quick mode).
//! 8. **Image storm** — breadth-first reachability sweeps over random
//!    sequential circuits with the image computed three ways, each in a
//!    fresh manager: monolithic-unfused (`and(T, S)` materialized, then
//!    `exists`), the fused `and_exists` kernel, and the partitioned
//!    early-quantification schedule. Wall clock, peak live nodes, peak
//!    bytes, and the `exists`-vs-`and_exists` computed-cache hit rates
//!    land in `BENCH_8.json` (`BENCH_8.quick.json` in quick mode); the
//!    peak-memory delta is the headline number.
//!
//! The first three phases replay byte-for-byte the workload that produced
//! `BENCH_1.json` (same seed, same operation order), so the JSON written to
//! `BENCH_5.json` (`BENCH_5.quick.json` in quick mode, so CI never clobbers
//! the committed full-mode baseline) carries a same-workload comparison
//! block. Per-phase cache
//! deltas, per-operation-class hit rates and adaptive resize counts are
//! reported alongside the aggregate counters. In full mode a small
//! parallel-evaluation check (table3 instance stream, 1 vs 4 jobs) is run
//! and its wall-clocks recorded.
//!
//! All randomness comes from the in-tree `XorShift64` generator, so runs
//! are deterministic and the binary builds offline.
//!
//! Usage: `cargo run --release -p bddmin-eval --bin perf_smoke [-- --quick]`

use std::time::Instant;

use bddmin_bdd::{Bdd, BddStats, Edge, Var};
use bddmin_core::rng::XorShift64;
use bddmin_core::{Heuristic, Isf};
use bddmin_eval::par::run_experiment_jobs;
use bddmin_eval::runner::ExperimentConfig;
use bddmin_fsm::{generators, Circuit, SymbolicFsm};

const NUM_VARS: u32 = 24;

struct PhaseReport {
    name: &'static str,
    ops: u64,
    secs: f64,
    peak_live: usize,
    /// Stats snapshot at phase entry, for per-phase deltas.
    before: BddStats,
    after: BddStats,
}

impl PhaseReport {
    fn ops_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs
        } else {
            0.0
        }
    }

    fn cache_hits(&self) -> u64 {
        self.after.cache_hits - self.before.cache_hits
    }

    fn cache_misses(&self) -> u64 {
        self.after.cache_misses - self.before.cache_misses
    }

    fn hit_rate(&self) -> f64 {
        rate(self.cache_hits(), self.cache_misses())
    }

    fn memo_hits(&self) -> u64 {
        self.after.memo_hits - self.before.memo_hits
    }

    fn memo_misses(&self) -> u64 {
        self.after.memo_misses - self.before.memo_misses
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total > 0 {
        hits as f64 / total as f64
    } else {
        0.0
    }
}

/// A random function built as an OR of random cubes (an ISF component in
/// the paper's sense: the on-set or care-set of an incompletely specified
/// function).
fn random_cover(bdd: &mut Bdd, rng: &mut XorShift64, cubes: usize, lits: usize) -> Edge {
    let mut f = bdd.constant(false);
    for _ in 0..cubes {
        let mut cube = bdd.constant(true);
        for _ in 0..lits {
            let v = bdd.var(Var(rng.gen_range(0..NUM_VARS as usize) as u32));
            let lit = if rng.gen_bool(0.5) { v } else { v.complement() };
            cube = bdd.and(cube, lit);
        }
        f = bdd.or(f, cube);
    }
    f
}

fn ite_storm(bdd: &mut Bdd, rng: &mut XorShift64, ops: u64) -> PhaseReport {
    // Operand pool seeded with the variables; results feed back in, but
    // only while they stay below a size cap — unconstrained random ite
    // composition over 24 variables grows without bound.
    const POOL: usize = 128;
    const MAX_OPERAND_NODES: usize = 250;
    let before = bdd.stats();
    let mut pool: Vec<Edge> = (0..NUM_VARS).map(|i| bdd.var(Var(i))).collect();
    let mut peak_live = bdd.stats().live_nodes;
    let start = Instant::now();
    for i in 0..ops {
        let f = pool[rng.gen_range(0..pool.len())];
        let g = pool[rng.gen_range(0..pool.len())];
        let h = pool[rng.gen_range(0..pool.len())];
        let r = bdd.ite(f, g, h);
        if bdd.size(r) <= MAX_OPERAND_NODES {
            if pool.len() < POOL {
                pool.push(r);
            } else {
                // Keep the variables in the first NUM_VARS slots so the
                // operand mix stays diverse.
                pool[rng.gen_range(NUM_VARS as usize..POOL)] = r;
            }
        }
        if i % 512 == 511 {
            peak_live = peak_live.max(bdd.stats().live_nodes);
            bdd.collect_garbage(&pool.clone());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    peak_live = peak_live.max(bdd.stats().live_nodes);
    PhaseReport {
        name: "ite_storm",
        ops,
        secs,
        peak_live,
        before,
        after: bdd.stats(),
    }
}

fn minimize_storm(bdd: &mut Bdd, rng: &mut XorShift64, rounds: u64) -> PhaseReport {
    let before = bdd.stats();
    let mut peak_live = bdd.stats().live_nodes;
    let mut sink = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        let f = random_cover(bdd, rng, 12, 6);
        let care = random_cover(bdd, rng, 10, 3);
        let g1 = bdd.constrain(f, care);
        let g2 = bdd.restrict(f, care);
        sink = sink.wrapping_add(bdd.size(g1)).wrapping_add(bdd.size(g2));
        peak_live = peak_live.max(bdd.stats().live_nodes);
    }
    let secs = start.elapsed().as_secs_f64();
    // Keep the size sums observable so the loop cannot be optimised away.
    assert!(sink > 0);
    PhaseReport {
        name: "minimize",
        ops: rounds * 2,
        secs,
        peak_live,
        before,
        after: bdd.stats(),
    }
}

fn gc_storm(bdd: &mut Bdd, rng: &mut XorShift64, cycles: u64) -> PhaseReport {
    let before = bdd.stats();
    let mut peak_live = bdd.stats().live_nodes;
    let start = Instant::now();
    for _ in 0..cycles {
        let keep = random_cover(bdd, rng, 8, 4);
        for _ in 0..64 {
            let _scratch = random_cover(bdd, rng, 4, 4);
        }
        peak_live = peak_live.max(bdd.stats().live_nodes);
        bdd.collect_garbage(&[keep]);
    }
    let secs = start.elapsed().as_secs_f64();
    PhaseReport {
        name: "gc_cycles",
        ops: cycles,
        secs,
        peak_live,
        before,
        after: bdd.stats(),
    }
}

/// Runs every registered heuristic (the paper's twelve plus the scheduler)
/// over random ISFs — the workload the manager-resident minimization memo
/// exists for. One "op" is one heuristic application.
fn heuristic_storm(bdd: &mut Bdd, rng: &mut XorShift64, rounds: u64) -> PhaseReport {
    let before = bdd.stats();
    let mut peak_live = bdd.stats().live_nodes;
    let mut sink = 0usize;
    let mut ops = 0u64;
    let heuristics: Vec<Heuristic> = Heuristic::ALL
        .into_iter()
        .chain([Heuristic::Scheduled])
        .collect();
    let start = Instant::now();
    for round in 0..rounds {
        let f = random_cover(bdd, rng, 10, 5);
        let dc = random_cover(bdd, rng, 8, 3);
        let care = bdd.not(dc);
        if care.is_zero() || care.is_one() || f.is_constant() {
            continue;
        }
        let isf = Isf::new(f, care);
        for &h in &heuristics {
            let g = h.minimize(bdd, isf);
            sink = sink.wrapping_add(bdd.size(g));
            ops += 1;
        }
        peak_live = peak_live.max(bdd.stats().live_nodes);
        if round % 16 == 15 {
            bdd.collect_garbage(&[]);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(sink > 0);
    PhaseReport {
        name: "heuristic_storm",
        ops,
        secs,
        peak_live,
        before,
        after: bdd.stats(),
    }
}

/// Level-matching storm results: the tsm clique-cover solve over a wide
/// gathered set, accelerated vs unfiltered at parity.
struct LevelStormReport {
    /// Gathered sub-functions (the matching graph's vertex count).
    gathered: usize,
    /// Timed repetitions per path.
    reps: u64,
    /// Median seconds per unfiltered solve.
    unfiltered_median_secs: f64,
    /// Median seconds per accelerated solve.
    filtered_median_secs: f64,
}

impl LevelStormReport {
    fn median_speedup(&self) -> f64 {
        if self.filtered_median_secs > 0.0 {
            self.unfiltered_median_secs / self.filtered_median_secs
        } else {
            0.0
        }
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Gathers a wide set of sub-functions (n ≥ 64) below a level of a large
/// random ISF and solves the tsm clique cover with the acceleration layer
/// off and on, at parity: same manager, same gathered set, caches (and
/// the tsm pair memo) cleared before every timed solve, so each rep pays
/// the full matching-graph construction. The two paths must return
/// byte-identical replacements — the filter is refutation-only.
fn level_storm(quick: bool) -> LevelStormReport {
    use bddmin_core::{gather_below_level, solve_fmm_tsm_with, CliqueOptions, LevelAccel};

    let (reps, limit) = if quick { (3u64, 80) } else { (7u64, 128) };
    let mut bdd = Bdd::new(NUM_VARS as usize);
    let mut rng = XorShift64::seed_from_u64(0x1994_DAC5_157A_BDD5);
    let f = random_cover(&mut bdd, &mut rng, 48, 8);
    let dc = random_cover(&mut bdd, &mut rng, 24, 5);
    let care = bdd.not(dc);
    let isf = Isf::new(f, care);
    // Walk down the order until the frontier below the level is wide
    // enough to exercise the quadratic graph construction.
    let mut gathered = Vec::new();
    for lvl in 2..NUM_VARS {
        gathered = gather_below_level(&mut bdd, isf, Var(lvl), Some(limit));
        if gathered.len() >= 64 {
            break;
        }
    }
    assert!(
        gathered.len() >= 64,
        "level_storm workload too narrow: only {} gathered functions",
        gathered.len()
    );

    let opts = CliqueOptions::default();
    // Warmup solve: allocates the merge results once so neither timed
    // path pays first-touch node allocation.
    let reference = solve_fmm_tsm_with(&mut bdd, &gathered, opts, LevelAccel::UNFILTERED);
    let mut unf_secs = Vec::new();
    let mut fil_secs = Vec::new();
    for _ in 0..reps {
        bdd.clear_caches();
        let t = Instant::now();
        let unfiltered = solve_fmm_tsm_with(&mut bdd, &gathered, opts, LevelAccel::UNFILTERED);
        unf_secs.push(t.elapsed().as_secs_f64());
        bdd.clear_caches();
        let t = Instant::now();
        let accelerated = solve_fmm_tsm_with(&mut bdd, &gathered, opts, LevelAccel::default());
        fil_secs.push(t.elapsed().as_secs_f64());
        assert!(
            unfiltered == reference && accelerated == reference,
            "level_storm: accelerated and unfiltered solutions diverged"
        );
    }
    LevelStormReport {
        gathered: gathered.len(),
        reps,
        unfiltered_median_secs: median(&mut unf_secs),
        filtered_median_secs: median(&mut fil_secs),
    }
}

/// One adversarially-ordered reordering case: nodes before/after the
/// sift, swap count, wall clock, and the semantic ground-truth check.
struct ReorderCase {
    name: String,
    nodes_before: usize,
    nodes_after: usize,
    swaps: usize,
    secs: f64,
    semantics_identical: bool,
}

impl ReorderCase {
    fn reduction(&self) -> f64 {
        if self.nodes_after > 0 {
            self.nodes_before as f64 / self.nodes_after as f64
        } else {
            0.0
        }
    }
}

/// The reorder storm: sift adversarially-ordered functions (the classic
/// Σ aᵢ·bᵢ with every `a` declared above every `b`, whose size is
/// exponential in the pair count until the order interleaves) and record
/// node counts before/after, swaps, wall clock, and whether the exact
/// model count and the 64-lane identity-keyed signature survived. Each
/// case runs in its own manager so the main phases stay byte-identical
/// to their committed baselines.
fn reorder_storm(quick: bool) -> Vec<ReorderCase> {
    use bddmin_bdd::{ReorderSettings, SigEvaluator};

    let pair_counts: &[usize] = if quick { &[4, 5, 6] } else { &[6, 8, 10, 12, 14] };
    let mut cases = Vec::new();
    for &pairs in pair_counts {
        let n = 2 * pairs;
        let mut bdd = Bdd::new(n);
        let mut f = bdd.constant(false);
        for i in 0..pairs {
            let a = bdd.var(Var(i as u32));
            let b = bdd.var(Var((pairs + i) as u32));
            let t = bdd.and(a, b);
            f = bdd.or(f, t);
        }
        bdd.pin(f);
        bdd.collect_garbage(&[]);
        let sat_before = bdd.sat_count(f);
        let sig_before = {
            let mut ev = SigEvaluator::for_bdd(&bdd);
            ev.signature(&bdd, f)
        };
        let t = Instant::now();
        let stats = bdd.reorder(&ReorderSettings::sift(1.2));
        let secs = t.elapsed().as_secs_f64();
        let sat_after = bdd.sat_count(f);
        let sig_after = {
            let mut ev = SigEvaluator::for_bdd(&bdd);
            ev.signature(&bdd, f)
        };
        cases.push(ReorderCase {
            name: format!("pairs_{pairs}"),
            nodes_before: stats.nodes_before,
            nodes_after: stats.nodes_after,
            swaps: stats.swaps,
            secs,
            semantics_identical: sat_before == sat_after && sig_before == sig_after,
        });
    }
    cases
}

/// One chain-storm case: the same chain-heavy workload replayed on a
/// plain and a chain-reduced manager, compared after a final GC to the
/// surviving roots.
struct ChainCase {
    name: String,
    ops: u64,
    plain_live: usize,
    chained_live: usize,
    chain_nodes: usize,
    plain_secs: f64,
    chained_secs: f64,
    plain_peak_bytes: usize,
    chained_peak_bytes: usize,
    semantics_identical: bool,
}

impl ChainCase {
    fn compression(&self) -> f64 {
        if self.chained_live > 0 {
            self.plain_live as f64 / self.chained_live as f64
        } else {
            0.0
        }
    }

    fn speedup(&self) -> f64 {
        if self.chained_secs > 0.0 {
            self.plain_secs / self.chained_secs
        } else {
            0.0
        }
    }
}

/// The chain-heavy workload: per round, a random cube frontier over the
/// bottom six variables is extended upward by a long or-chain — the shape
/// of a cube care-set's complement and of an fsm reachability frontier
/// ("any of these state bits is set") — then stressed with its and-chain
/// complement, a restrict under a negative-cube care set, and an
/// existential step that recurses through the chain and re-fuses on the
/// way back up. Deterministic: both managers replay the identical
/// operation stream, so every root pair must denote the same function.
fn chain_workload(bdd: &mut Bdd, n: u32, rounds: u64) -> (Vec<Edge>, u64) {
    let mut rng = XorShift64::seed_from_u64(0x1994_DAC5_C4A1_BDD7);
    let mut roots: Vec<Edge> = Vec::new();
    let mut ops = 0u64;
    for round in 0..rounds {
        // Cube frontier over the bottom six variables.
        let mut g = bdd.constant(false);
        for _ in 0..3 {
            let mut cube = bdd.constant(true);
            for _ in 0..3 {
                let v = n - 6 + rng.gen_range(0..6) as u32;
                let x = bdd.var(Var(v));
                let lit = if rng.gen_bool(0.5) { x } else { x.complement() };
                cube = bdd.and(cube, lit);
                ops += 1;
            }
            g = bdd.or(g, cube);
            ops += 1;
        }
        // Or-chain extension: x_s + x_{s+1} + ... + x_{n-7} + g. In chain
        // mode the whole prefix fuses into a single node; in plain mode
        // every level is a distinct node, and since the tails differ per
        // round the chains cannot share across rounds either.
        let start = rng.gen_range(0..4) as u32;
        let mut f = g;
        for i in (start..n - 6).rev() {
            let x = bdd.var(Var(i));
            f = bdd.or(x, f);
            ops += 1;
        }
        // And-chain dual (free via the complement edge), a don't-care
        // restrict (all-negative cube care sets are never empty), and an
        // existential step over two frontier variables.
        let d = bdd.not(f);
        ops += 1;
        let mut care = bdd.constant(false);
        for _ in 0..2 {
            let mut cube = bdd.constant(true);
            for _ in 0..2 {
                let v = n - 6 + rng.gen_range(0..6) as u32;
                let x = bdd.var(Var(v));
                cube = bdd.and(cube, x.complement());
                ops += 1;
            }
            care = bdd.or(care, cube);
            ops += 1;
        }
        let r = bdd.restrict(f, care);
        ops += 1;
        let va = bdd.var(Var(n - 1));
        let vb = bdd.var(Var(n - 3));
        let qcube = bdd.and(va, vb);
        let e = bdd.exists(f, qcube);
        ops += 2;
        roots.push(f);
        roots.push(d);
        roots.push(r);
        roots.push(e);
        if round % 8 == 7 {
            bdd.collect_garbage(&roots);
        }
    }
    // Final collection so live-node counts compare reachable frontiers,
    // not construction scratch (fused chain building leaves each or-prefix
    // behind as an unreachable intermediate until GC).
    bdd.collect_garbage(&roots);
    (roots, ops)
}

/// The chain storm: replay [`chain_workload`] on a plain and a
/// chain-reduced manager at several widths and compare live-node counts,
/// wall clock, peak memory, and semantics root by root. Each case runs in
/// its own managers so the main phases stay byte-identical to their
/// committed baselines.
fn chain_storm(quick: bool) -> Vec<ChainCase> {
    use bddmin_bdd::SigEvaluator;

    let var_counts: &[u32] = if quick { &[16, 24] } else { &[24, 32, 48] };
    let rounds = if quick { 6 } else { 24 };
    let mut cases = Vec::new();
    for &n in var_counts {
        let mut plain = Bdd::new(n as usize);
        let t = Instant::now();
        let (plain_roots, ops) = chain_workload(&mut plain, n, rounds);
        let plain_secs = t.elapsed().as_secs_f64();

        let mut chained = Bdd::new_chained(n as usize);
        let t = Instant::now();
        let (chained_roots, chained_ops) = chain_workload(&mut chained, n, rounds);
        let chained_secs = t.elapsed().as_secs_f64();
        assert_eq!(ops, chained_ops, "chain_storm op streams diverged");

        let mut semantics_identical = plain_roots.len() == chained_roots.len();
        let mut pev = SigEvaluator::for_bdd(&plain);
        let mut cev = SigEvaluator::for_bdd(&chained);
        for (&p, &c) in plain_roots.iter().zip(&chained_roots) {
            semantics_identical &=
                plain.sat_count(p).to_bits() == chained.sat_count(c).to_bits();
            semantics_identical &= pev.signature(&plain, p) == cev.signature(&chained, c);
            // Virtual (plain-equivalent) sizes must agree so heuristic
            // decisions stay mode-invariant.
            semantics_identical &= plain.size(p) == chained.size(c);
        }

        let pstats = plain.stats();
        let cstats = chained.stats();
        cases.push(ChainCase {
            name: format!("vars_{n}"),
            ops,
            plain_live: pstats.live_nodes,
            chained_live: cstats.live_nodes,
            chain_nodes: cstats.chain_nodes,
            plain_secs,
            chained_secs,
            plain_peak_bytes: pstats.peak_bytes,
            chained_peak_bytes: cstats.peak_bytes,
            semantics_identical,
        });
    }
    cases
}

/// One image-storm case: the same breadth-first reachability sweep over a
/// random circuit computed three ways, each in its own fresh manager so
/// the peak-memory numbers are attributable to the image method alone.
/// "mono" materializes the unfused conjunction `and(T, S)` before
/// quantifying, "fused" is the single-descent `and_exists` kernel, and
/// "part" is the clustered early-quantification schedule.
struct ImageCase {
    name: String,
    latches: usize,
    steps: usize,
    clusters: usize,
    mono_secs: f64,
    fused_secs: f64,
    part_secs: f64,
    mono_peak_live: usize,
    fused_peak_live: usize,
    part_peak_live: usize,
    mono_peak_bytes: usize,
    fused_peak_bytes: usize,
    part_peak_bytes: usize,
    /// Computed-cache hit rate of the `exists` class in the unfused sweep
    /// vs. the `and_exists` class in the fused/partitioned sweeps.
    mono_exists_hit_rate: f64,
    fused_and_exists_hit_rate: f64,
    part_and_exists_hit_rate: f64,
    semantics_identical: bool,
}

impl ImageCase {
    /// Monolithic-unfused wall clock over the better of the two fused
    /// sweeps.
    fn speedup(&self) -> f64 {
        let best = self.fused_secs.min(self.part_secs);
        if best > 0.0 {
            self.mono_secs / best
        } else {
            0.0
        }
    }

    /// Peak-live-node reduction — the headline number: how much smaller
    /// the working set is when the `and(T, S)` intermediate is never
    /// built.
    fn peak_reduction(&self) -> f64 {
        let best = self.fused_peak_live.min(self.part_peak_live);
        if best > 0 {
            self.mono_peak_live as f64 / best as f64
        } else {
            0.0
        }
    }
}

/// Which image computation an [`image_sweep`] uses.
#[derive(Clone, Copy, PartialEq)]
enum SweepKind {
    /// Unfused: materialize `and(T, S)`, then `exists`, then rename.
    MonoUnfused,
    /// The fused `and_exists` kernel ([`SymbolicFsm::image`]).
    Fused,
    /// Clustered relations with early quantification
    /// ([`SymbolicFsm::image_partitioned`]).
    Part,
}

/// BFS to the reachability fixpoint (capped at `max_steps`); returns the
/// finished machine, the reached set, the step count, and the sweep's
/// wall clock. Compilation and the one-time build of the relation the
/// mode reads (`T` for the monolithic modes, the partition for `Part`)
/// happen before the clock starts, and their garbage is collected before
/// the peak watermark resets, so both numbers are attributable to the
/// image method alone. A `Part` sweep never builds `T`.
fn image_sweep(
    circuit: &Circuit,
    kind: SweepKind,
    max_steps: usize,
) -> (SymbolicFsm, Edge, usize, f64) {
    let mut fsm = SymbolicFsm::new(circuit);
    if kind == SweepKind::Part {
        fsm.num_clusters();
    } else {
        fsm.transition_relation();
    }
    fsm.collect_garbage(&[]);
    fsm.bdd_mut().reset_peak_stats();
    let t = Instant::now();
    let mut reached = fsm.initial_states();
    let mut steps = 0usize;
    while steps < max_steps {
        let image = match kind {
            SweepKind::MonoUnfused => {
                let trans = fsm.transition_relation();
                let cube = fsm.img_quant_cube();
                let next: Vec<Var> = fsm.next_vars().to_vec();
                let present: Vec<Var> = fsm.present_vars().to_vec();
                let bdd = fsm.bdd_mut();
                let conj = bdd.and(trans, reached);
                let ns = bdd.exists(conj, cube);
                bdd.rename(ns, &next, &present)
            }
            SweepKind::Fused => fsm.image(reached),
            SweepKind::Part => fsm.image_partitioned(reached),
        };
        let next = fsm.bdd_mut().or(reached, image);
        if next == reached {
            break;
        }
        reached = next;
        steps += 1;
    }
    (fsm, reached, steps, t.elapsed().as_secs_f64())
}

/// The image storm: reachability sweeps over random circuits computed
/// monolithic-unfused, fused, and partitioned — fresh managers per mode so
/// the peak-memory delta is attributable — with the final reached sets
/// compared across managers (step counts, sat_count bit equality, 64-lane
/// signatures, and virtual sizes).
fn image_storm(quick: bool) -> Vec<ImageCase> {
    use bddmin_bdd::SigEvaluator;

    let specs: &[(usize, usize, u64)] = if quick {
        &[(8, 2, 0xDAC5_0001), (10, 2, 0xDAC5_0002)]
    } else {
        &[(10, 2, 0xDAC5_0001), (12, 3, 0xDAC5_0002), (14, 3, 0xDAC5_0003)]
    };
    let max_steps = if quick { 12 } else { 32 };
    let exists_class = BddStats::OP_CLASSES
        .iter()
        .position(|n| *n == "exists")
        .expect("exists op class");
    let and_exists_class = BddStats::OP_CLASSES
        .iter()
        .position(|n| *n == "and_exists")
        .expect("and_exists op class");
    let class_rate = |s: &BddStats, class: usize| {
        rate(s.cache_class_hits[class], s.cache_class_misses[class])
    };

    let mut cases = Vec::new();
    for &(latches, inputs, seed) in specs {
        let name = format!("img_{latches}");
        let circuit = generators::random_fsm(&name, latches, inputs, seed);

        let (mono_fsm, mono_set, mono_steps, mono_secs) =
            image_sweep(&circuit, SweepKind::MonoUnfused, max_steps);
        let (fused_fsm, fused_set, fused_steps, fused_secs) =
            image_sweep(&circuit, SweepKind::Fused, max_steps);
        let (mut part_fsm, part_set, part_steps, part_secs) =
            image_sweep(&circuit, SweepKind::Part, max_steps);
        let clusters = part_fsm.num_clusters();

        let mut semantics_identical = mono_steps == fused_steps && mono_steps == part_steps;
        let mut mev = SigEvaluator::for_bdd(mono_fsm.bdd());
        let msig = mev.signature(mono_fsm.bdd(), mono_set);
        let mbits = mono_fsm.bdd().sat_count(mono_set).to_bits();
        let msize = mono_fsm.bdd().size(mono_set);
        for (fsm, set) in [(&fused_fsm, fused_set), (&part_fsm, part_set)] {
            let mut ev = SigEvaluator::for_bdd(fsm.bdd());
            semantics_identical &= ev.signature(fsm.bdd(), set) == msig;
            semantics_identical &= fsm.bdd().sat_count(set).to_bits() == mbits;
            semantics_identical &= fsm.bdd().size(set) == msize;
        }

        let mstats = mono_fsm.bdd().stats();
        let fstats = fused_fsm.bdd().stats();
        let pstats = part_fsm.bdd().stats();
        cases.push(ImageCase {
            name,
            latches,
            steps: mono_steps,
            clusters,
            mono_secs,
            fused_secs,
            part_secs,
            mono_peak_live: mstats.peak_live_nodes,
            fused_peak_live: fstats.peak_live_nodes,
            part_peak_live: pstats.peak_live_nodes,
            mono_peak_bytes: mstats.peak_bytes,
            fused_peak_bytes: fstats.peak_bytes,
            part_peak_bytes: pstats.peak_bytes,
            mono_exists_hit_rate: class_rate(&mstats, exists_class),
            fused_and_exists_hit_rate: class_rate(&fstats, and_exists_class),
            part_and_exists_hit_rate: class_rate(&pstats, and_exists_class),
            semantics_identical,
        });
    }
    cases
}

/// Pulls `"key": <number>` out of `section` of a hand-rolled JSON file.
/// Good enough for the files this binary writes; returns `None` on any
/// surprise.
fn extract_number(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = format!("\"{section}\":");
    let start = json.find(&sec)? + sec.len();
    let pat = format!("\"{key}\":");
    let at = json[start..].find(&pat)? + start + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Timed table3 instance stream at a given job count; returns
/// (seconds, rendered-table fingerprint length) for the comparison block.
/// The stream is sized so per-instance measurement (all heuristics plus the
/// sampled lower bound) dominates the sequential record/transfer prologue —
/// on a trivially small stream the prologue hides any parallel speedup.
fn parallel_eval_run(jobs: usize) -> (f64, usize) {
    let config = ExperimentConfig {
        lower_bound_cubes: 25,
        max_iterations: Some(8),
        only_benchmarks: vec!["tlc".to_owned(), "minmax5".to_owned()],
        ..Default::default()
    };
    let start = Instant::now();
    let mut results = run_experiment_jobs(&config, jobs);
    let secs = start.elapsed().as_secs_f64();
    results.strip_times();
    let t = bddmin_eval::tables::table3(&results, None);
    (secs, bddmin_eval::report::render_table3(&t).len())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (ite_ops, min_rounds, gc_cycles, heur_rounds) = if quick {
        (5_000u64, 60u64, 8u64, 12u64)
    } else {
        (40_000u64, 400u64, 32u64, 80u64)
    };

    let mut bdd = Bdd::new(NUM_VARS as usize);
    let mut rng = XorShift64::seed_from_u64(0x5EED_CAFE_D00D_1994);

    println!(
        "perf_smoke: {} mode ({} ite ops, {} minimize rounds, {} gc cycles, {} heuristic rounds)",
        if quick { "quick" } else { "full" },
        ite_ops,
        min_rounds,
        gc_cycles,
        heur_rounds
    );

    let phases = [
        ite_storm(&mut bdd, &mut rng, ite_ops),
        minimize_storm(&mut bdd, &mut rng, min_rounds),
        gc_storm(&mut bdd, &mut rng, gc_cycles),
        heuristic_storm(&mut bdd, &mut rng, heur_rounds),
    ];
    // The level-matching storm runs in its own manager so the phases
    // above keep replaying BENCH_1's exact operation stream.
    let storm = level_storm(quick);

    let stats = bdd.stats();
    let hit_rate = rate(stats.cache_hits, stats.cache_misses);

    for p in &phases {
        println!(
            "  {:<15} {:>9} ops in {:>8.3} s  ({:>12.0} ops/s, peak live {} = {} KiB, cache hit {:.1}%)",
            p.name,
            p.ops,
            p.secs,
            p.ops_per_sec(),
            p.peak_live,
            p.peak_live * p.after.bytes_per_node / 1024,
            p.hit_rate() * 100.0,
        );
    }
    println!(
        "  cache: {:.1}% hit rate ({} hits / {} misses / {} evictions, capacity {}, {} resizes)",
        hit_rate * 100.0,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_capacity,
        stats.cache_resizes,
    );
    for (i, name) in BddStats::OP_CLASSES.iter().enumerate() {
        let (h, m) = (stats.cache_class_hits[i], stats.cache_class_misses[i]);
        if h + m > 0 {
            println!(
                "    {:<9} {:.1}% hit rate ({h} hits / {m} misses)",
                name,
                rate(h, m) * 100.0
            );
        }
    }
    println!(
        "  min memo: {:.1}% hit rate ({} hits / {} misses / {} evictions, capacity {}, {} resizes)",
        rate(stats.memo_hits, stats.memo_misses) * 100.0,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_evictions,
        stats.memo_capacity,
        stats.memo_resizes,
    );
    println!(
        "  unique table: {} live nodes, {} slots; peak {} nodes ({} KiB at {} B/node); \
         gc: {} runs, {} reclaimed",
        stats.live_nodes,
        stats.unique_capacity,
        stats.peak_live_nodes,
        stats.peak_bytes / 1024,
        stats.bytes_per_node,
        stats.gc_runs,
        stats.gc_reclaimed
    );
    println!(
        "  level_storm: {} gathered, tsm solve {:.4} s unfiltered -> {:.4} s accelerated \
         ({:.2}x median speedup over {} reps, byte-identical results)",
        storm.gathered,
        storm.unfiltered_median_secs,
        storm.filtered_median_secs,
        storm.median_speedup(),
        storm.reps,
    );

    // Same-workload comparison: the first three phases replay BENCH_1's
    // exact operation stream (same seed and order) — but only in full
    // mode; the quick-mode stream is a shorter prefix, so comparing its
    // rates against the full-mode baseline would be apples-to-oranges.
    let bench1_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_1.json");
    let comparison = std::fs::read_to_string(&bench1_path)
        .ok()
        .filter(|_| !quick)
        .and_then(|b1| {
            let min_b1 = extract_number(&b1, "minimize", "ops_per_sec")?;
            let ite_b1 = extract_number(&b1, "ite_storm", "ops_per_sec")?;
            let hit_b1 = extract_number(&b1, "cache", "hit_rate")?;
            Some((min_b1, ite_b1, hit_b1))
        });
    let mut comparison_json = String::new();
    if let Some((min_b1, ite_b1, hit_b1)) = comparison {
        let min_now = phases[1].ops_per_sec();
        let ite_now = phases[0].ops_per_sec();
        println!(
            "  vs BENCH_1: minimize {:.0} -> {:.0} ops/s ({:.2}x), ite {:.0} -> {:.0} ops/s ({:.2}x), hit rate {:.1}% -> {:.1}%",
            min_b1,
            min_now,
            min_now / min_b1,
            ite_b1,
            ite_now,
            ite_now / ite_b1,
            hit_b1 * 100.0,
            phases[0].hit_rate() * 100.0,
        );
        comparison_json = format!(
            ",\n  \"comparison\": {{\"baseline\": \"BENCH_1.json\", \
             \"minimize_ops_per_sec_before\": {:.1}, \"minimize_ops_per_sec_after\": {:.1}, \
             \"minimize_speedup\": {:.4}, \"ite_ops_per_sec_before\": {:.1}, \
             \"ite_ops_per_sec_after\": {:.1}, \"ite_speedup\": {:.4}, \
             \"hit_rate_before\": {:.4}, \"ite_hit_rate_after\": {:.4}}}",
            min_b1,
            min_now,
            min_now / min_b1,
            ite_b1,
            ite_now,
            ite_now / ite_b1,
            hit_b1,
            phases[0].hit_rate(),
        );
    }

    // Parallel-evaluation wall-clock check (full mode only: the quick mode
    // backs the CI schema check and must stay fast).
    let mut parallel_json = String::new();
    if !quick {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (secs_1, fp_1) = parallel_eval_run(1);
        let (secs_4, fp_4) = parallel_eval_run(4);
        println!(
            "  parallel eval: jobs=1 {:.3} s, jobs=4 {:.3} s ({:.2}x on {} core(s)), \
             tables identical: {}",
            secs_1,
            secs_4,
            secs_1 / secs_4,
            cores,
            fp_1 == fp_4,
        );
        parallel_json = format!(
            ",\n  \"parallel_eval\": {{\"jobs_1_secs\": {:.4}, \"jobs_4_secs\": {:.4}, \
             \"speedup\": {:.4}, \"cores\": {}, \"tables_identical\": {}}}",
            secs_1,
            secs_4,
            secs_1 / secs_4,
            cores,
            fp_1 == fp_4,
        );
    }

    let mut phase_json = String::new();
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            phase_json.push_str(",\n");
        }
        phase_json.push_str(&format!(
            "    \"{}\": {{\"ops\": {}, \"secs\": {:.6}, \"ops_per_sec\": {:.1}, \
             \"peak_live_nodes\": {}, \"peak_bytes\": {}, \"hit_rate\": {:.4}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"memo_hits\": {}, \"memo_misses\": {}}}",
            p.name,
            p.ops,
            p.secs,
            p.ops_per_sec(),
            p.peak_live,
            p.peak_live * p.after.bytes_per_node,
            p.hit_rate(),
            p.cache_hits(),
            p.cache_misses(),
            p.memo_hits(),
            p.memo_misses(),
        ));
    }
    let mut per_op_json = String::new();
    for (i, name) in BddStats::OP_CLASSES.iter().enumerate() {
        if i > 0 {
            per_op_json.push_str(", ");
        }
        let (h, m) = (stats.cache_class_hits[i], stats.cache_class_misses[i]);
        per_op_json.push_str(&format!(
            "\"{name}\": {{\"hits\": {h}, \"misses\": {m}, \"hit_rate\": {:.4}}}",
            rate(h, m)
        ));
    }
    let level_storm_json = format!(
        "  \"level_storm\": {{\"gathered\": {}, \"reps\": {}, \
         \"unfiltered_median_secs\": {:.6}, \"filtered_median_secs\": {:.6}, \
         \"median_speedup\": {:.4}, \"byte_identical\": true}},\n",
        storm.gathered,
        storm.reps,
        storm.unfiltered_median_secs,
        storm.filtered_median_secs,
        storm.median_speedup(),
    );
    let json = format!(
        "{{\n  \"bench\": \"perf_smoke\",\n  \"mode\": \"{}\",\n  \"phases\": {{\n{}\n  }},\n{}  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}, \
         \"capacity\": {}, \"resizes\": {},\n    \"per_op\": {{{}}}}},\n  \
         \"memo\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}, \
         \"capacity\": {}, \"resizes\": {}}},\n  \
         \"nodes\": {{\"live\": {}, \"allocated\": {}, \"unique_capacity\": {}, \
         \"peak_live\": {}, \"bytes_per_node\": {}, \"peak_bytes\": {}}},\n  \
         \"gc\": {{\"runs\": {}, \"reclaimed\": {}}}{}{}\n}}\n",
        if quick { "quick" } else { "full" },
        phase_json,
        level_storm_json,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        hit_rate,
        stats.cache_capacity,
        stats.cache_resizes,
        per_op_json,
        stats.memo_hits,
        stats.memo_misses,
        stats.memo_evictions,
        rate(stats.memo_hits, stats.memo_misses),
        stats.memo_capacity,
        stats.memo_resizes,
        stats.live_nodes,
        stats.allocated_nodes,
        stats.unique_capacity,
        stats.peak_live_nodes,
        stats.bytes_per_node,
        stats.peak_bytes,
        stats.gc_runs,
        stats.gc_reclaimed,
        comparison_json,
        parallel_json,
    );

    // Repo root = two levels up from this crate's manifest. Quick mode
    // (the CI schema check) writes to a scratch name so it never clobbers
    // the committed full-mode baseline.
    let name = if quick {
        "BENCH_5.quick.json"
    } else {
        "BENCH_5.json"
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }

    // ------------------------------------------------------------------
    // Reorder storm → BENCH_6. A separate file so the reordering numbers
    // get their own committed baseline without perturbing BENCH_5's
    // byte-replay comparison contract.
    // ------------------------------------------------------------------
    let cases = reorder_storm(quick);
    let mut reductions: Vec<f64> = cases.iter().map(|c| c.reduction()).collect();
    let median_reduction = median(&mut reductions);
    let semantics_identical = cases.iter().all(|c| c.semantics_identical);
    let total_secs: f64 = cases.iter().map(|c| c.secs).sum();

    println!("\nreorder storm (adversarial split order, sift growth 1.2):");
    let mut case_json = String::new();
    for (i, c) in cases.iter().enumerate() {
        println!(
            "  {:<9} {:>6} -> {:>4} nodes ({:.2}x, {} swaps, {:.4}s, semantics {})",
            c.name,
            c.nodes_before,
            c.nodes_after,
            c.reduction(),
            c.swaps,
            c.secs,
            if c.semantics_identical { "ok" } else { "CHANGED" },
        );
        if i > 0 {
            case_json.push_str(",\n");
        }
        case_json.push_str(&format!(
            "      \"{}\": {{\"nodes_before\": {}, \"nodes_after\": {}, \"reduction\": {:.4}, \
             \"swaps\": {}, \"secs\": {:.6}, \"semantics_identical\": {}}}",
            c.name,
            c.nodes_before,
            c.nodes_after,
            c.reduction(),
            c.swaps,
            c.secs,
            c.semantics_identical,
        ));
    }
    println!(
        "  median node reduction {:.2}x over {} cases, semantics identical: {}",
        median_reduction,
        cases.len(),
        semantics_identical,
    );

    let json6 = format!(
        "{{\n  \"bench\": \"reorder_storm\",\n  \"mode\": \"{}\",\n  \
         \"reorder_storm\": {{\n    \"cases\": {{\n{}\n    }},\n    \
         \"num_cases\": {},\n    \"median_node_reduction\": {:.4},\n    \
         \"total_secs\": {:.6},\n    \"semantics_identical\": {}\n  }}\n}}\n",
        if quick { "quick" } else { "full" },
        case_json,
        cases.len(),
        median_reduction,
        total_secs,
        semantics_identical,
    );
    let name6 = if quick {
        "BENCH_6.quick.json"
    } else {
        "BENCH_6.json"
    };
    let out6 = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name6);
    match std::fs::write(&out6, &json6) {
        Ok(()) => println!("wrote {}", out6.display()),
        Err(e) => eprintln!("could not write {}: {e}", out6.display()),
    }

    // ------------------------------------------------------------------
    // Chain storm → BENCH_7. Plain vs chain-reduced (CBDD) managers over
    // the identical chain-heavy operation stream: live-node compression
    // after GC, wall clock on both modes, peak memory, and a per-root
    // semantic identity check.
    // ------------------------------------------------------------------
    let ccases = chain_storm(quick);
    let mut compressions: Vec<f64> = ccases.iter().map(|c| c.compression()).collect();
    let median_compression = median(&mut compressions);
    let chain_semantics = ccases.iter().all(|c| c.semantics_identical);
    let chain_total_secs: f64 = ccases.iter().map(|c| c.plain_secs + c.chained_secs).sum();

    println!("\nchain storm (plain vs chain-reduced manager, identical op streams):");
    let mut ccase_json = String::new();
    for (i, c) in ccases.iter().enumerate() {
        println!(
            "  {:<8} {:>6} -> {:>5} live nodes ({:.2}x compression, {} chain nodes, \
             {:.4}s -> {:.4}s ({:.2}x), peak {} -> {} KiB, semantics {})",
            c.name,
            c.plain_live,
            c.chained_live,
            c.compression(),
            c.chain_nodes,
            c.plain_secs,
            c.chained_secs,
            c.speedup(),
            c.plain_peak_bytes / 1024,
            c.chained_peak_bytes / 1024,
            if c.semantics_identical { "ok" } else { "CHANGED" },
        );
        if i > 0 {
            ccase_json.push_str(",\n");
        }
        ccase_json.push_str(&format!(
            "      \"{}\": {{\"ops\": {}, \"plain_live_nodes\": {}, \"chained_live_nodes\": {}, \
             \"compression\": {:.4}, \"chain_nodes\": {}, \"plain_secs\": {:.6}, \
             \"chained_secs\": {:.6}, \"speedup\": {:.4}, \"plain_peak_bytes\": {}, \
             \"chained_peak_bytes\": {}, \"semantics_identical\": {}}}",
            c.name,
            c.ops,
            c.plain_live,
            c.chained_live,
            c.compression(),
            c.chain_nodes,
            c.plain_secs,
            c.chained_secs,
            c.speedup(),
            c.plain_peak_bytes,
            c.chained_peak_bytes,
            c.semantics_identical,
        ));
    }
    println!(
        "  median live-node compression {:.2}x over {} cases, semantics identical: {}",
        median_compression,
        ccases.len(),
        chain_semantics,
    );

    let json7 = format!(
        "{{\n  \"bench\": \"chain_storm\",\n  \"mode\": \"{}\",\n  \
         \"chain_storm\": {{\n    \"cases\": {{\n{}\n    }},\n    \
         \"num_cases\": {},\n    \"median_compression\": {:.4},\n    \
         \"total_secs\": {:.6},\n    \"semantics_identical\": {}\n  }}\n}}\n",
        if quick { "quick" } else { "full" },
        ccase_json,
        ccases.len(),
        median_compression,
        chain_total_secs,
        chain_semantics,
    );
    let name7 = if quick {
        "BENCH_7.quick.json"
    } else {
        "BENCH_7.json"
    };
    let out7 = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name7);
    match std::fs::write(&out7, &json7) {
        Ok(()) => println!("wrote {}", out7.display()),
        Err(e) => eprintln!("could not write {}: {e}", out7.display()),
    }

    // ------------------------------------------------------------------
    // Image storm → BENCH_8. Monolithic-unfused vs fused and_exists vs
    // partitioned image computation over identical reachability sweeps;
    // the peak-memory delta (the `and(T, S)` intermediate that the fused
    // and partitioned sweeps never build) is the headline number.
    // ------------------------------------------------------------------
    let icases = image_storm(quick);
    let mut speedups: Vec<f64> = icases.iter().map(|c| c.speedup()).collect();
    let median_speedup = median(&mut speedups);
    let mut reductions: Vec<f64> = icases.iter().map(|c| c.peak_reduction()).collect();
    let peak_reduction = median(&mut reductions);
    let image_semantics = icases.iter().all(|c| c.semantics_identical);
    let image_total_secs: f64 = icases
        .iter()
        .map(|c| c.mono_secs + c.fused_secs + c.part_secs)
        .sum();

    println!("\nimage storm (mono-unfused vs fused and_exists vs partitioned, fresh managers):");
    let mut icase_json = String::new();
    for (i, c) in icases.iter().enumerate() {
        println!(
            "  {:<8} ({} latches, {} clusters, {} steps) peak {:>7} -> {:>6}/{:>6} live \
             nodes ({:.2}x), {:.4}s -> {:.4}s/{:.4}s ({:.2}x), semantics {}",
            c.name,
            c.latches,
            c.clusters,
            c.steps,
            c.mono_peak_live,
            c.fused_peak_live,
            c.part_peak_live,
            c.peak_reduction(),
            c.mono_secs,
            c.fused_secs,
            c.part_secs,
            c.speedup(),
            if c.semantics_identical { "ok" } else { "CHANGED" },
        );
        println!(
            "           cache: exists {:.1}% (unfused) vs and_exists {:.1}% (fused) / \
             {:.1}% (partitioned)",
            c.mono_exists_hit_rate * 100.0,
            c.fused_and_exists_hit_rate * 100.0,
            c.part_and_exists_hit_rate * 100.0,
        );
        if i > 0 {
            icase_json.push_str(",\n");
        }
        icase_json.push_str(&format!(
            "      \"{}\": {{\"latches\": {}, \"clusters\": {}, \"steps\": {}, \
             \"mono_secs\": {:.6}, \"fused_secs\": {:.6}, \"part_secs\": {:.6}, \
             \"speedup\": {:.4}, \"mono_peak_live_nodes\": {}, \"fused_peak_live_nodes\": {}, \
             \"part_peak_live_nodes\": {}, \"peak_reduction\": {:.4}, \
             \"mono_peak_bytes\": {}, \"fused_peak_bytes\": {}, \"part_peak_bytes\": {}, \
             \"mono_exists_hit_rate\": {:.4}, \"fused_and_exists_hit_rate\": {:.4}, \
             \"part_and_exists_hit_rate\": {:.4}, \"semantics_identical\": {}}}",
            c.name,
            c.latches,
            c.clusters,
            c.steps,
            c.mono_secs,
            c.fused_secs,
            c.part_secs,
            c.speedup(),
            c.mono_peak_live,
            c.fused_peak_live,
            c.part_peak_live,
            c.peak_reduction(),
            c.mono_peak_bytes,
            c.fused_peak_bytes,
            c.part_peak_bytes,
            c.mono_exists_hit_rate,
            c.fused_and_exists_hit_rate,
            c.part_and_exists_hit_rate,
            c.semantics_identical,
        ));
    }
    println!(
        "  median speedup {:.2}x, median peak-live reduction {:.2}x over {} cases, \
         semantics identical: {}",
        median_speedup,
        peak_reduction,
        icases.len(),
        image_semantics,
    );

    let json8 = format!(
        "{{\n  \"bench\": \"image_storm\",\n  \"mode\": \"{}\",\n  \
         \"image_storm\": {{\n    \"cases\": {{\n{}\n    }},\n    \
         \"num_cases\": {},\n    \"median_speedup\": {:.4},\n    \
         \"peak_reduction\": {:.4},\n    \"total_secs\": {:.6},\n    \
         \"semantics_identical\": {}\n  }}\n}}\n",
        if quick { "quick" } else { "full" },
        icase_json,
        icases.len(),
        median_speedup,
        peak_reduction,
        image_total_secs,
        image_semantics,
    );
    let name8 = if quick {
        "BENCH_8.quick.json"
    } else {
        "BENCH_8.json"
    };
    let out8 = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name8);
    match std::fs::write(&out8, &json8) {
        Ok(()) => println!("wrote {}", out8.display()),
        Err(e) => eprintln!("could not write {}: {e}", out8.display()),
    }
}
