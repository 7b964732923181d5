//! Randomized property tests for the BDD substrate, ported from the
//! feature-gated `proptest` suite (`src/proptests.rs`) to the in-tree
//! [`XorShift64`] generator so they run under plain `cargo test -q` in
//! the offline container. Same strategy: random truth tables over a
//! small variable set, built through the public API and checked against
//! direct truth-table evaluation. Fixed seeds keep every run identical;
//! a failure message always includes the offending table(s).

use std::collections::HashMap;

use bddmin_bdd::{Bdd, Cube, Edge, ReorderSettings, Var};
use bddmin_core::rng::XorShift64;

const NVARS: usize = 4;
const TABLE: usize = 1 << NVARS;
const CASES: usize = 64;

/// Builds the function with the given truth table (bit `i` = value on
/// the assignment whose bits are `i`, MSB = `Var(0)`).
fn from_table(bdd: &mut Bdd, table: u16) -> Edge {
    let mut f = Edge::ZERO;
    for row in 0..TABLE {
        if table >> row & 1 == 1 {
            let lits: Vec<(Var, bool)> = (0..NVARS)
                .map(|v| (Var(v as u32), row >> (NVARS - 1 - v) & 1 == 1))
                .collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
    }
    f
}

fn to_table(bdd: &Bdd, f: Edge) -> u16 {
    let mut t = 0u16;
    for row in 0..TABLE {
        let assign: Vec<bool> = (0..NVARS)
            .map(|v| row >> (NVARS - 1 - v) & 1 == 1)
            .collect();
        if bdd.eval(f, &assign) {
            t |= 1 << row;
        }
    }
    t
}

#[test]
fn truth_table_round_trip_and_canonicity() {
    let mut rng = XorShift64::seed_from_u64(0xB0D);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        assert_eq!(to_table(&bdd, f), table, "round trip of {table:#06x}");
        // Rebuild through a different construction path: minterms
        // high-to-low must land on the identical edge.
        let mut g = Edge::ZERO;
        for row in (0..TABLE).rev() {
            if table >> row & 1 == 1 {
                let lits: Vec<(Var, bool)> = (0..NVARS)
                    .map(|v| (Var(v as u32), row >> (NVARS - 1 - v) & 1 == 1))
                    .collect();
                let cube = Cube::new(lits).to_edge(&mut bdd);
                g = bdd.or(g, cube);
            }
        }
        assert_eq!(f, g, "canonicity of {table:#06x}");
    }
}

#[test]
fn boolean_algebra_laws() {
    let mut rng = XorShift64::seed_from_u64(0xA16EB2A);
    for _ in 0..CASES {
        let (ta, tb, tc) = (rng.gen_u16(), rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let c = from_table(&mut bdd, tc);
        // Distributivity.
        let bc = bdd.or(b, c);
        let lhs = bdd.and(a, bc);
        let ab = bdd.and(a, b);
        let ac = bdd.and(a, c);
        let rhs = bdd.or(ab, ac);
        assert_eq!(lhs, rhs, "distributivity on {ta:#06x} {tb:#06x} {tc:#06x}");
        // De Morgan.
        let n_ab = bdd.and(a, b).complement();
        let na_or_nb = bdd.or(a.complement(), b.complement());
        assert_eq!(n_ab, na_or_nb, "De Morgan on {ta:#06x} {tb:#06x}");
        // Double complement.
        assert_eq!(a.complement().complement(), a);
        // XOR associativity.
        let x1 = bdd.xor(a, b);
        let x1c = bdd.xor(x1, c);
        let x2 = bdd.xor(b, c);
        let ax2 = bdd.xor(a, x2);
        assert_eq!(x1c, ax2, "xor associativity on {ta:#06x} {tb:#06x} {tc:#06x}");
    }
}

#[test]
fn ite_matches_semantics() {
    let mut rng = XorShift64::seed_from_u64(0x17E);
    for _ in 0..CASES {
        let (tf, tg, th) = (rng.gen_u16(), rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let g = from_table(&mut bdd, tg);
        let h = from_table(&mut bdd, th);
        let r = bdd.ite(f, g, h);
        let expect = (tf & tg) | (!tf & th);
        assert_eq!(to_table(&bdd, r), expect, "ite on {tf:#06x} {tg:#06x} {th:#06x}");
    }
}

#[test]
fn shannon_decomposition() {
    let mut rng = XorShift64::seed_from_u64(0x5A);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let var = rng.gen_range(0..NVARS) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let f1 = bdd.cofactor(f, Var(var), true);
        let f0 = bdd.cofactor(f, Var(var), false);
        let v = bdd.var(Var(var));
        let rebuilt = bdd.ite(v, f1, f0);
        assert_eq!(rebuilt, f, "Shannon on {table:#06x} at var {var}");
        // Cofactors do not depend on the variable.
        assert!(!bdd.depends_on(f1, Var(var)));
        assert!(!bdd.depends_on(f0, Var(var)));
    }
}

#[test]
fn quantifier_duality() {
    let mut rng = XorShift64::seed_from_u64(0x0D7);
    for _ in 0..CASES {
        let table = rng.gen_u16();
        let var = rng.gen_range(0..NVARS) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, table);
        let cube = bdd.cube_of_vars(&[Var(var)]);
        let ex = bdd.exists(f, cube);
        let fa = bdd.forall(f, cube);
        // ∃x.f = f1 + f0 ; ∀x.f = f1·f0.
        let f1 = bdd.cofactor(f, Var(var), true);
        let f0 = bdd.cofactor(f, Var(var), false);
        assert_eq!(ex, bdd.or(f1, f0), "exists on {table:#06x}");
        assert_eq!(fa, bdd.and(f1, f0), "forall on {table:#06x}");
        // Duality: ¬∃x.f = ∀x.¬f.
        let nf = bdd.not(f);
        let fanf = bdd.forall(nf, cube);
        assert_eq!(ex.complement(), fanf, "duality on {table:#06x}");
        // Containment: ∀x.f ≤ f ≤ ∃x.f.
        assert!(bdd.implies_holds(fa, f));
        assert!(bdd.implies_holds(f, ex));
    }
}

#[test]
fn constrain_restrict_are_covers_and_constrain_agrees_on_care() {
    let mut rng = XorShift64::seed_from_u64(0xC0);
    let mut checked = 0;
    while checked < CASES {
        let (tf, tc) = (rng.gen_u16(), rng.gen_u16());
        if tc == 0 {
            continue;
        }
        checked += 1;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let onset = bdd.and(f, c);
        let nc = bdd.not(c);
        let upper = bdd.or(f, nc);
        for g in [bdd.constrain(f, c), bdd.restrict(f, c)] {
            assert!(bdd.implies_holds(onset, g), "cover lower on {tf:#06x}/{tc:#06x}");
            assert!(bdd.implies_holds(g, upper), "cover upper on {tf:#06x}/{tc:#06x}");
        }
        // constrain agrees with f everywhere on the care set.
        let g = bdd.constrain(f, c);
        let gf = bdd.xor(g, f);
        let disagreement = bdd.and(gf, c);
        assert!(disagreement.is_zero(), "constrain image on {tf:#06x}/{tc:#06x}");
    }
}

#[test]
fn sat_counts_are_exact_and_additive() {
    let mut rng = XorShift64::seed_from_u64(0x5A7);
    for _ in 0..CASES {
        let (ta, tb) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let aub = bdd.or(a, b);
        let aib = bdd.and(a, b);
        let lhs = bdd.sat_fraction(aub) + bdd.sat_fraction(aib);
        let rhs = bdd.sat_fraction(a) + bdd.sat_fraction(b);
        assert!((lhs - rhs).abs() < 1e-12, "additivity on {ta:#06x} {tb:#06x}");
        assert_eq!(bdd.sat_count(a), f64::from(ta.count_ones()));
    }
}

#[test]
fn gc_preserves_roots_and_canonicity() {
    let mut rng = XorShift64::seed_from_u64(0x6C);
    for _ in 0..CASES {
        let (ta, tb) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let a = from_table(&mut bdd, ta);
        let b = from_table(&mut bdd, tb);
        let keep = bdd.xor(a, b);
        let table_before = to_table(&bdd, keep);
        let size_before = bdd.size(keep);
        bdd.collect_garbage(&[keep]);
        assert_eq!(to_table(&bdd, keep), table_before, "gc on {ta:#06x} {tb:#06x}");
        assert_eq!(bdd.size(keep), size_before);
        // Rebuild after GC stays canonical: identical edge.
        let a2 = from_table(&mut bdd, ta);
        let b2 = from_table(&mut bdd, tb);
        let keep2 = bdd.xor(a2, b2);
        assert_eq!(keep2, keep, "post-gc canonicity on {ta:#06x} {tb:#06x}");
    }
}

#[test]
fn isop_interval_soundness_and_irredundancy() {
    let mut rng = XorShift64::seed_from_u64(0x150F);
    for _ in 0..CASES / 2 {
        let (t_onset, t_extra) = (rng.gen_u16(), rng.gen_u16());
        let mut bdd = Bdd::new(NVARS);
        let lower = from_table(&mut bdd, t_onset);
        let extra = from_table(&mut bdd, t_extra);
        let upper = bdd.or(lower, extra);
        let isop = bdd.isop(lower, upper);
        assert!(bdd.implies_holds(lower, isop.function));
        assert!(bdd.implies_holds(isop.function, upper));
        // Cube list and function agree.
        let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(&mut bdd)).collect();
        let union = bdd.or_many(parts);
        assert_eq!(union, isop.function);
        // Irredundancy: dropping any one cube uncovers part of lower.
        for skip in 0..isop.cubes.len() {
            let parts: Vec<Edge> = isop
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.to_edge(&mut bdd))
                .collect();
            let partial = bdd.or_many(parts);
            assert!(
                !bdd.implies_holds(lower, partial),
                "redundant cube on {t_onset:#06x}/{t_extra:#06x}"
            );
        }
        // No freedom ⟹ exact.
        let exact = bdd.isop(lower, lower);
        assert_eq!(exact.function, lower);
    }
}

/// Reference ISOP: the plain Minato–Morreale recursion with every
/// sub-cover stored as its own `Vec<Cube>` (cloned on each memo hit,
/// each literal prepended by re-sorting the cube). `Bdd::isop` shares
/// sub-covers in a DAG instead and must reproduce this output exactly,
/// cube order included.
fn reference_isop(
    bdd: &mut Bdd,
    lower: Edge,
    upper: Edge,
    memo: &mut HashMap<(Edge, Edge), (Vec<Cube>, Edge)>,
) -> (Vec<Cube>, Edge) {
    if lower.is_zero() {
        return (Vec::new(), Edge::ZERO);
    }
    if upper.is_one() {
        return (vec![Cube::default()], Edge::ONE);
    }
    if let Some(r) = memo.get(&(lower, upper)) {
        return r.clone();
    }
    let x = bdd.level(lower).min(bdd.level(upper));
    let (l1, l0) = bdd.cof_at(lower, x);
    let (u1, u0) = bdd.cof_at(upper, x);
    let lx0 = bdd.diff(l0, u1);
    let lx1 = bdd.diff(l1, u0);
    let (cubes0, f0) = reference_isop(bdd, lx0, u0, memo);
    let (cubes1, f1) = reference_isop(bdd, lx1, u1, memo);
    let rem0 = bdd.diff(l0, f0);
    let rem1 = bdd.diff(l1, f1);
    let l_rest = bdd.or(rem0, rem1);
    let u_rest = bdd.and(u0, u1);
    let (rest, f_rest) = reference_isop(bdd, l_rest, u_rest, memo);
    let xv = bdd.var_at_level(x);
    let with = |cube: &Cube, positive: bool| {
        let mut lits = cube.literals().to_vec();
        lits.push((xv, positive));
        Cube::new(lits)
    };
    let mut cubes: Vec<Cube> = cubes0.iter().map(|c| with(c, false)).collect();
    cubes.extend(cubes1.iter().map(|c| with(c, true)));
    cubes.extend(rest);
    let xvar = bdd.var(xv);
    let with_x = bdd.ite(xvar, f1, f0);
    let function = bdd.or(with_x, f_rest);
    memo.insert((lower, upper), (cubes.clone(), function));
    (cubes, function)
}

/// A random leaf spec over `vars` variables with ~40% don't cares.
fn random_spec(rng: &mut XorShift64, vars: usize) -> String {
    (0..1usize << vars)
        .map(|_| match rng.gen_range(0..10) {
            0..=3 => 'd',
            4..=6 => '0',
            _ => '1',
        })
        .collect()
}

/// Checks `Bdd::isop` against [`reference_isop`] on `[lower, upper]`,
/// plus the interval and irredundancy contracts.
fn check_isop_matches_reference(bdd: &mut Bdd, lower: Edge, upper: Edge, what: &str) {
    let isop = bdd.isop(lower, upper);
    let (cubes, function) = reference_isop(bdd, lower, upper, &mut HashMap::new());
    assert_eq!(isop.cubes, cubes, "cube list differs on {what}");
    assert_eq!(isop.function, function, "function differs on {what}");
    assert!(bdd.implies_holds(lower, isop.function), "{what}");
    assert!(bdd.implies_holds(isop.function, upper), "{what}");
    let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(bdd)).collect();
    let union = bdd.or_many(parts);
    assert_eq!(
        union, isop.function,
        "cubes and function disagree on {what}"
    );
    for skip in 0..isop.cubes.len() {
        let parts: Vec<Edge> = isop
            .cubes
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, c)| c.to_edge(bdd))
            .collect();
        let partial = bdd.or_many(parts);
        assert!(
            !bdd.implies_holds(lower, partial),
            "redundant cube {skip} on {what}"
        );
    }
    for cube in &isop.cubes {
        assert!(
            cube.literals().windows(2).all(|w| w[0].0 < w[1].0),
            "cube literals not sorted by variable on {what}"
        );
    }
}

#[test]
fn isop_matches_the_reference_recursion() {
    let mut rng = XorShift64::seed_from_u64(0x1509);
    let (mut reordered, mut chained) = (0, 0);
    for case in 0..24 {
        let vars = 5 + case % 3;
        let spec = random_spec(&mut rng, vars);
        // Identity order, a sifted (non-identity) order, and chain mode.
        for mode in 0..3 {
            let mut bdd = if mode == 2 {
                Bdd::new_chained(vars)
            } else {
                Bdd::new(vars)
            };
            let (f, c) = bdd.from_leaf_spec(&spec).unwrap();
            if mode == 1 {
                bdd.reorder_roots(&ReorderSettings::sift(1.2), &[f, c]);
                if (0..vars).any(|v| bdd.level_of_var(Var(v as u32)) != Var(v as u32)) {
                    reordered += 1;
                }
            }
            let lower = bdd.and(f, c);
            let nc = bdd.not(c);
            let upper = bdd.or(f, nc);
            if bdd.stats().chain_nodes > 0 {
                chained += 1;
            }
            let what = format!("{spec} (mode {mode})");
            assert_ne!(lower, upper, "{what}");
            check_isop_matches_reference(&mut bdd, lower, upper, &what);
            check_isop_matches_reference(&mut bdd, lower, lower, &what);
            check_isop_matches_reference(&mut bdd, upper, upper, &what);
        }
    }
    assert!(
        reordered >= 12,
        "sifting left the identity order only {reordered} times"
    );
    assert!(chained >= 12, "only {chained} chain-mode cases built chain nodes");
}

/// `Bdd::isop` reads a level before recursing and builds a node at it
/// afterwards, and its memo holds unpinned edges across inner
/// operations. Automatic GC or reordering at an inner quiescent point
/// would free those edges or move that level, so an interval large
/// enough to cross both thresholds during the call must still give the
/// reference cover, and the triggered run must happen. The 13-variable
/// interval starts below the 4096-node reordering threshold: a larger one
/// is sifted at the entry check, before the recursion, which changes the
/// order the cubes follow.
#[test]
fn isop_is_unaffected_by_automatic_gc_and_reordering() {
    let vars = 13;
    let spec = random_spec(&mut XorShift64::seed_from_u64(0x150f), vars);
    for auto_reorder in [false, true] {
        let mut bdd = Bdd::new(vars);
        let (f, c) = bdd.from_leaf_spec(&spec).unwrap();
        let lower = bdd.and(f, c);
        let nc = bdd.not(c);
        let upper = bdd.or(f, nc);
        let (cubes, function) = reference_isop(&mut bdd, lower, upper, &mut HashMap::new());
        for edge in [lower, upper, function] {
            bdd.pin(edge);
        }
        bdd.collect_garbage(&[]);
        let before = bdd.stats();
        if auto_reorder {
            bdd.set_auto_reorder(true);
        } else {
            bdd.set_auto_gc(true);
        }
        let isop = bdd.isop(lower, upper);
        let after = bdd.stats();
        let what = if auto_reorder { "auto reorder" } else { "auto GC" };
        if auto_reorder {
            assert!(after.reorder_runs > before.reorder_runs, "no {what} ran");
        } else {
            assert!(after.gc_runs > before.gc_runs, "no {what} ran");
        }
        assert_eq!(isop.cubes, cubes, "cube list differs under {what}");
        assert_eq!(isop.function, function, "function differs under {what}");
    }
}

/// `Bdd::rename` is a simultaneous substitution under any map: swaps,
/// non-monotone permutations and partial maps (where two sources may
/// share a target), in plain and chained managers, with the identity
/// order and with a permuted-then-sifted one. The expected function is
/// read off the truth table, never built through another kernel
/// operation.
#[test]
fn rename_is_a_simultaneous_substitution() {
    const N: usize = 6;
    let bit = |row: usize, v: usize| row >> (N - 1 - v) & 1 == 1;
    let mut rng = XorShift64::seed_from_u64(0x2e4a);
    let (mut reordered, mut chained) = (0, 0);
    for case in 0..48 {
        let table = rng.gen_u64();
        // `map[v]` is the variable substituted for `Var(v)`, if any.
        let mut map: Vec<Option<usize>> = vec![None; N];
        match case % 3 {
            0 => {
                let a = rng.gen_range(0..N);
                let b = (a + 1 + rng.gen_range(0..N - 1)) % N;
                map[a] = Some(b);
                map[b] = Some(a);
            }
            1 => {
                let mut perm: Vec<usize> = (0..N).collect();
                for i in (1..N).rev() {
                    perm.swap(i, rng.gen_range(0..i + 1));
                }
                for (v, &p) in perm.iter().enumerate() {
                    map[v] = Some(p);
                }
            }
            _ => {
                for m in map.iter_mut() {
                    if rng.gen_bool(0.5) {
                        *m = Some(rng.gen_range(0..N));
                    }
                }
            }
        }
        let mut pairs: Vec<(Var, Var)> = map
            .iter()
            .enumerate()
            .filter_map(|(v, m)| m.map(|t| (Var(v as u32), Var(t as u32))))
            .collect();
        // The pair order must not matter.
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..i + 1));
        }
        let (from, to): (Vec<Var>, Vec<Var>) = pairs.into_iter().unzip();
        let swaps: Vec<usize> = (0..8).map(|_| rng.gen_range(0..N - 1)).collect();
        for mode in 0..4 {
            let mut bdd = if mode & 1 == 1 {
                Bdd::new_chained(N)
            } else {
                Bdd::new(N)
            };
            let mut f = Edge::ZERO;
            for row in (0..1 << N).filter(|row| table >> row & 1 == 1) {
                let lits = (0..N).map(|v| (Var(v as u32), bit(row, v))).collect();
                let cube = Cube::new(lits).to_edge(&mut bdd);
                f = bdd.or(f, cube);
            }
            if mode & 2 == 2 {
                for &i in &swaps {
                    bdd.swap_levels(i);
                }
                bdd.reorder_roots(&ReorderSettings::sift(1.2), &[f]);
                if (0..N).any(|v| bdd.level_of_var(Var(v as u32)) != Var(v as u32)) {
                    reordered += 1;
                }
            }
            let r = bdd.rename(f, &from, &to);
            if bdd.stats().chain_nodes > 0 {
                chained += 1;
            }
            for row in 0..1usize << N {
                let assign: Vec<bool> = (0..N).map(|v| bit(row, v)).collect();
                let src = (0..N).fold(0, |acc, v| {
                    acc << 1 | usize::from(assign[map[v].unwrap_or(v)])
                });
                assert_eq!(
                    bdd.eval(r, &assign),
                    table >> src & 1 == 1,
                    "rename of {table:#018x} by {map:?} (mode {mode}) at row {row:#b}"
                );
            }
        }
    }
    assert!(
        reordered >= 40,
        "only {reordered} cases ran under a permuted order"
    );
    assert!(
        chained >= 24,
        "only {chained} chain-mode cases built chain nodes"
    );
}
