//! `fsm_verify`: the `bddmin verify` path.
//!
//! `verify_fsm_equivalence_with` under the default `constrain` frontier
//! minimization, on each machine against its copy (equivalent) and against
//! a copy with one latch flipped (not equivalent), once per image method.
//! One long-lived manager per verdict with warm caches: the opposite use
//! of the kernel from `ebm_sweep`.
//!
//! * Untraced runs time the public call; one operation is one BFS step
//!   (the time between successive frontier minimizations).
//! * Verdicts and depths are checked against an explicit-state BFS of the
//!   product built from `Circuit::simulate`, computed outside the timed
//!   region.
//! * The traced walk re-walks `verify_fsm_equivalence_with` through public
//!   calls and must reproduce its verdicts and depths.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use bddmin_bdd::{Bdd, Edge};
use bddmin_core::Isf;
use bddmin_fsm::{
    generators, print_blif, product_circuit, verify_fsm_equivalence_with, with_flipped_latch,
    Circuit, ImageMethod, SymbolicFsm,
};

use crate::measure::{self, Timed};
use crate::trace::{KernelTotals, Tracer};
use crate::Outcome;

/// Generator seed of the random machine.
const RANDOM_DRAW: u64 = 7919;

const METHODS: [ImageMethod; 3] = [ImageMethod::Mono, ImageMethod::Part, ImageMethod::Range];

/// A verdict to reach: machine `a` against `b`.
pub struct Pair {
    pub label: String,
    pub a: Circuit,
    pub b: Circuit,
}

/// The machines: arithmetic generators and one fixed random draw. The
/// random machine does not follow the benchmark seed: from one draw to the
/// next, 10–12-latch `random_fsm` machines differ up to 13× in
/// verification time, which would swamp every timing metric.
pub fn machines() -> Vec<(String, Circuit)> {
    vec![
        ("mult8".into(), generators::serial_mult("mult8", 8)),
        (
            "cbp8_4".into(),
            generators::carry_bypass_acc("cbp8_4", 8, 4),
        ),
        (
            "rand12".into(),
            generators::random_fsm("rand12", 12, 5, RANDOM_DRAW),
        ),
        ("counter11".into(), generators::counter("counter11", 11)),
    ]
}

/// The pairs for `seed`: each machine against its copy and against a copy
/// with one latch flipped; the seed picks the latch.
pub fn pairs(seed: u64) -> Vec<Pair> {
    let mut out = Vec::new();
    for (i, (name, c)) in machines().into_iter().enumerate() {
        let flip = (measure::mix(seed, 100 + i as u64) % c.num_latches() as u64) as usize;
        out.push(Pair {
            label: format!("{name}=copy"),
            a: c.clone(),
            b: c.clone(),
        });
        out.push(Pair {
            label: format!("{name}!=flip{flip}"),
            b: with_flipped_latch(&c, flip),
            a: c,
        });
    }
    out
}

/// What one pass through the public call produced.
struct PassResult {
    /// Verdicts, pair-major and method-minor.
    verdicts: Vec<Result<usize, usize>>,
    /// Latency of each BFS step, in milliseconds.
    step_ms: Vec<f64>,
    /// Sizes of the minimized frontiers, summed.
    frontier_nodes: u64,
    /// Sizes of the frontiers before minimization, summed.
    f_nodes: u64,
    /// Seconds per verdict, in `verdicts` order.
    verdict_s: Vec<f64>,
}

/// One pass: every pair under every method through the public call.
fn public_pass(pairs: &[Pair]) -> PassResult {
    let mut r = PassResult {
        verdicts: Vec::with_capacity(pairs.len() * METHODS.len()),
        step_ms: Vec::new(),
        frontier_nodes: 0,
        f_nodes: 0,
        verdict_s: Vec::with_capacity(pairs.len() * METHODS.len()),
    };
    for p in pairs {
        for method in METHODS {
            let start = Instant::now();
            let mut last = start;
            // The default frontier minimization, with a timestamp per BFS step.
            let mut hook = |bdd: &mut Bdd, isf: Isf| {
                let now = Instant::now();
                r.step_ms.push((now - last).as_secs_f64() * 1e3);
                last = now;
                let g = bdd.constrain(isf.f, isf.c);
                r.frontier_nodes += bdd.size(g) as u64;
                r.f_nodes += bdd.size(isf.f) as u64;
                g
            };
            let verdict = verify_fsm_equivalence_with(&p.a, &p.b, Some(&mut hook), method);
            r.verdicts.push(verdict);
            r.verdict_s.push(start.elapsed().as_secs_f64());
        }
    }
    r
}

/// `verify_fsm_equivalence_with`, op for op, with spans.
fn walk(pairs: &[Pair], tr: &mut Tracer) -> (Vec<Result<usize, usize>>, KernelTotals) {
    let mut verdicts = Vec::new();
    let mut kernel = KernelTotals::default();
    let pass = tr.begin("bench.pass", 0, 0);
    for p in pairs {
        for method in METHODS {
            let id = verdicts.len() as u64;
            let (verdict, fsm) = walk_one(p, method, id, tr);
            kernel.add(&fsm.bdd().stats());
            verdicts.push(verdict);
        }
    }
    tr.end(pass, 0);
    (verdicts, kernel)
}

fn walk_one(
    p: &Pair,
    method: ImageMethod,
    id: u64,
    tr: &mut Tracer,
) -> (Result<usize, usize>, SymbolicFsm) {
    let image_span = match method {
        ImageMethod::Mono => "fsm.image.mono",
        ImageMethod::Part => "fsm.image.part",
        ImageMethod::Range => "fsm.image.range",
    };
    let s = tr.begin("fsm.build", id, 0);
    let prod = product_circuit(&p.a, &p.b);
    let mut fsm = SymbolicFsm::new(&prod);
    let miter = {
        let outs = fsm.output_fns().to_vec();
        fsm.bdd_mut().or_many(outs)
    };
    tr.end(s, fsm.bdd().steps_used());
    let init = fsm.initial_states();
    let (mut reached, mut frontier) = (init, init);
    let mut depth = 0;
    let steps = |fsm: &SymbolicFsm| fsm.bdd().steps_used();
    loop {
        let s = tr.begin("bdd.apply", id, steps(&fsm));
        let bad = fsm.bdd_mut().and(frontier, miter);
        tr.end(s, steps(&fsm));
        if !bad.is_zero() {
            return (Err(depth), fsm);
        }
        if frontier.is_zero() {
            return (Ok(depth), fsm);
        }
        let s = tr.begin("bdd.apply", id, steps(&fsm));
        let care = {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.or(frontier, not_reached)
        };
        tr.end(s, steps(&fsm));
        let s = tr.begin("bdd.constrain", id, steps(&fsm));
        let minimized: Edge = fsm.bdd_mut().constrain(frontier, care);
        tr.end(s, steps(&fsm));
        let s = tr.begin(image_span, id, steps(&fsm));
        let image = fsm.image_with(method, minimized);
        tr.end(s, steps(&fsm));
        tr.count("fsm.image_calls", 1);
        let s = tr.begin("bdd.apply", id, steps(&fsm));
        let new_reached = fsm.bdd_mut().or(reached, image);
        frontier = {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.and(image, not_reached)
        };
        tr.end(s, steps(&fsm));
        reached = new_reached;
        depth += 1;
        tr.count("fsm.bfs_iterations", 1);
    }
}

/// Per-state successor table of one machine: for every input vector (bit
/// `k` of the index is input `k`), the packed outputs and next state.
struct Explicit<'a> {
    circuit: &'a Circuit,
    table: HashMap<u64, Vec<(u64, u64)>>,
}

fn pack(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
}

fn unpack(word: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| word >> i & 1 == 1).collect()
}

impl<'a> Explicit<'a> {
    fn new(circuit: &'a Circuit) -> Explicit<'a> {
        Explicit {
            circuit,
            table: HashMap::new(),
        }
    }

    fn row(&mut self, state: u64) -> &[(u64, u64)] {
        let c = self.circuit;
        self.table.entry(state).or_insert_with(|| {
            let st = unpack(state, c.num_latches());
            (0..1u64 << c.num_inputs())
                .map(|x| {
                    let (outs, next) = c.simulate(&unpack(x, c.num_inputs()), &st);
                    (pack(&outs), pack(&next))
                })
                .collect()
        })
    }
}

/// Explicit-state BFS of the product of `a` and `b` (shared inputs,
/// pairwise output miters): `Ok(depth)` when no reachable state and input
/// tells the machines apart, else `Err(depth)` of the first BFS level that
/// does. `ta` and `tb` may be the same table when `b` is a copy of `a`.
fn explicit_verdict(
    a: &Circuit,
    b: &Circuit,
    ta: &mut Explicit,
    tb: Option<&mut Explicit>,
) -> Result<usize, usize> {
    let names = |c: &Circuit| -> Vec<String> {
        c.inputs()
            .iter()
            .map(|&n| c.net_name(n).to_owned())
            .collect()
    };
    assert_eq!(names(a), names(b), "pairs share their input order");
    let init = (pack(&a.initial_state()), pack(&b.initial_state()));
    let mut reached: HashSet<(u64, u64)> = HashSet::from([init]);
    let mut frontier = vec![init];
    let mut tb = tb;
    let mut depth = 0;
    loop {
        let mut next = Vec::new();
        for &(sa, sb) in &frontier {
            let ra = ta.row(sa).to_vec();
            let rb = match tb.as_deref_mut() {
                Some(t) => t.row(sb).to_vec(),
                None => ta.row(sb).to_vec(),
            };
            for ((oa, na), (ob, nb)) in ra.into_iter().zip(rb) {
                if oa != ob {
                    return Err(depth);
                }
                if reached.insert((na, nb)) {
                    next.push((na, nb));
                }
            }
        }
        if frontier.is_empty() {
            return Ok(depth);
        }
        frontier = next;
        depth += 1;
    }
}

/// The explicit-state verdict of every pair.
fn references(pairs: &[Pair]) -> Vec<Result<usize, usize>> {
    pairs
        .iter()
        .map(|p| {
            let mut ta = Explicit::new(&p.a);
            if print_blif(&p.a) == print_blif(&p.b) {
                explicit_verdict(&p.a, &p.b, &mut ta, None)
            } else {
                let mut tb = Explicit::new(&p.b);
                explicit_verdict(&p.a, &p.b, &mut ta, Some(&mut tb))
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (pairs, mut setup) = measure::Setup::new(|| pairs(seed));
    eprintln!(
        "fsm_verify: seed {seed}, {} pairs x {} image methods",
        pairs.len(),
        METHODS.len()
    );
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let metrics = if trace {
        let reference = public_pass(&pairs).verdicts;
        let passes = crate::trace::alternate(seconds, |tr| walk(&pairs, tr));
        let mut per_pass = Vec::new();
        for (i, p) in passes.iter().enumerate() {
            attempted += p.result.0.len() as u64;
            failed += mismatches(&p.result.0, &reference, &pairs, &format!("walk {i}"));
            let mut m = BTreeMap::new();
            p.tracer.summarize(&mut m);
            p.result.1.emit(&mut m);
            per_pass.push(m);
        }
        passes[0].tracer.write_trace("fsm_verify", seed);
        let on: Vec<f64> = passes.iter().map(|p| p.on_s).collect();
        let off: Vec<f64> = passes.iter().map(|p| p.off_s).collect();
        let (m, bad) = measure::fold_traced(&per_pass, &off, &on);
        failed += bad;
        m
    } else {
        let mut timed = Timed::default();
        let mut passes = Vec::new();
        let (runs, rss) = measure::repeat_for(seconds, Some(&mut setup), || public_pass(&pairs));
        for (r, s) in runs {
            timed.pass_s.push(s);
            timed.op_ms.push(r.step_ms.clone());
            passes.push(r);
        }
        report_methods(&pairs, &passes);
        let expected: Vec<Result<usize, usize>> = references(&pairs)
            .into_iter()
            .flat_map(|v| std::iter::repeat_n(v, METHODS.len()))
            .collect();
        for (i, r) in passes.iter().enumerate() {
            attempted += r.verdicts.len() as u64;
            failed += mismatches(&r.verdicts, &expected, &pairs, &format!("pass {i}"));
            if r.frontier_nodes != passes[0].frontier_nodes {
                eprintln!("  pass {i}: frontier sizes differ from pass 0");
                failed += 1;
            }
        }
        let ratio = passes[0].frontier_nodes as f64 / passes[0].f_nodes as f64;
        measure::end_to_end(&setup, &timed, ratio, rss)
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// One row per image method: the median seconds of each machine's two
/// verdicts, and the pass total.
fn report_methods(pairs: &[Pair], passes: &[PassResult]) {
    let machines: Vec<&str> = pairs
        .iter()
        .step_by(2)
        .map(|p| p.label.split('=').next().unwrap_or(&p.label))
        .collect();
    eprintln!(
        "  image  {}  total (median s over {} passes)",
        machines.join("  "),
        passes.len()
    );
    for (k, method) in METHODS.into_iter().enumerate() {
        let cell = |pick: &dyn Fn(usize) -> bool| {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|r| {
                    (0..pairs.len())
                        .filter(|&i| pick(i))
                        .map(|i| r.verdict_s[i * METHODS.len() + k])
                        .sum()
                })
                .collect();
            measure::median(&per_pass)
        };
        let row: Vec<String> = (0..machines.len())
            .map(|m| format!("{:.3}", cell(&|i| i / 2 == m)))
            .collect();
        eprintln!(
            "  {:5}  {}  {:.3}",
            method.name(),
            row.join("  "),
            cell(&|_| true)
        );
    }
}

fn mismatches(
    got: &[Result<usize, usize>],
    want: &[Result<usize, usize>],
    pairs: &[Pair],
    what: &str,
) -> u64 {
    let mut bad = 0;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            let p = &pairs[i / METHODS.len()];
            eprintln!(
                "  {what}: {} under {}: got {g:?}, expected {w:?}",
                p.label,
                METHODS[i % METHODS.len()].name()
            );
            bad += 1;
        }
    }
    bad + got.len().abs_diff(want.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_reference_agrees_on_small_machines() {
        for c in [
            generators::counter("c", 4),
            generators::random_fsm("r", 5, 3, 9),
        ] {
            let copy = c.clone();
            let flip = with_flipped_latch(&c, 1);
            let mut ta = Explicit::new(&c);
            let eq = explicit_verdict(&c, &copy, &mut ta, None);
            assert_eq!(
                eq,
                verify_fsm_equivalence_with(&c, &copy, None, ImageMethod::Mono)
            );
            assert!(eq.is_ok());
            let mut tb = Explicit::new(&flip);
            let ne = explicit_verdict(&c, &flip, &mut ta, Some(&mut tb));
            assert_eq!(
                ne,
                verify_fsm_equivalence_with(&c, &flip, None, ImageMethod::Mono)
            );
        }
    }

    #[test]
    fn walk_reproduces_the_public_verdicts() {
        let pairs = vec![
            Pair {
                label: "c".into(),
                a: generators::counter("c", 5),
                b: generators::counter("c", 5),
            },
            Pair {
                label: "r".into(),
                a: generators::random_fsm("r", 6, 3, 4),
                b: with_flipped_latch(&generators::random_fsm("r", 6, 3, 4), 2),
            },
        ];
        let public = public_pass(&pairs);
        let (walked, _) = walk(&pairs, &mut Tracer::new(true));
        assert_eq!(public.verdicts, walked);
        assert!(!public.step_ms.is_empty());
    }

    #[test]
    fn seeds_change_only_the_flipped_latches() {
        let (a, b) = (pairs(0), pairs(1));
        assert_eq!(a.len(), b.len());
        let mut changed = 0;
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(print_blif(&pa.a), print_blif(&pb.a));
            if print_blif(&pa.b) != print_blif(&pb.b) {
                changed += 1;
                assert!(pa.label.contains("!=flip"), "{}", pa.label);
            }
        }
        assert!(changed > 0, "another seed flips other latches");
    }
}
