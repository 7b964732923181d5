//! Irredundant sum-of-products over a function interval
//! (Minato–Morreale ISOP).
//!
//! Given `lower ≤ upper`, [`Bdd::isop`] produces a cube cover `g` with
//! `lower ≤ g ≤ upper` that is *irredundant*: no cube can be dropped
//! without uncovering part of `lower`. This solves the same interval
//! problem as the don't-care BDD minimization of Shiple et al. with a
//! different cost function (cube count instead of BDD nodes) — the
//! two-level analogue; it is provided both as a useful operation in its
//! own right (SOP extraction, PLA-style output) and as a comparison point
//! for the BDD-size heuristics.

use std::collections::HashMap;

use crate::cubes::Cube;
use crate::edge::{Edge, Var};
use crate::manager::Bdd;
use crate::util::FastBuild;

/// An ISOP result: the cube list and its characteristic function.
#[derive(Clone, Debug, PartialEq)]
pub struct Isop {
    /// The cubes, each contained in `upper`, jointly covering `lower`.
    ///
    /// The order is part of the contract (service result lines render it
    /// verbatim): at a split on variable `x`, the cubes covering the
    /// `x = 0` part come first, each with `¬x` added, then those covering
    /// the `x = 1` part with `x` added, then the `x`-free remainder, with
    /// the same order applied recursively inside each group. Literals
    /// within a cube are sorted by variable identity, whatever the
    /// current order.
    ///
    /// The recursion shares sub-covers in a cover DAG: one node per
    /// memoized subproblem `(x, ¬x-part, x-part, rest)`, with reserved
    /// ids for "no cubes" and "the universal cube". This list is the
    /// DAG's depth-first expansion, built once per call.
    pub cubes: Vec<Cube>,
    /// The BDD of the sum of the cubes.
    pub function: Edge,
}

impl Isop {
    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True when the cover is empty (the constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Renders the cover as a sum of products using the manager's variable
    /// names, e.g. `x1·¬x3 + x2`.
    pub fn to_sop_string(&self, bdd: &Bdd) -> String {
        if self.cubes.is_empty() {
            return "0".to_owned();
        }
        let mut out = String::new();
        for (i, cube) in self.cubes.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            if cube.is_empty() {
                out.push('1');
            }
            for (j, &(v, pos)) in cube.literals().iter().enumerate() {
                if j > 0 {
                    out.push('·');
                }
                if !pos {
                    out.push('¬');
                }
                out.push_str(bdd.var_name(v));
            }
        }
        out
    }
}

/// A sub-cover: [`NO_CUBES`], [`UNIVERSAL`], or `i + 2` for node `i` of
/// the call's cover DAG.
type CoverId = usize;

/// The cover with no cubes (the constant 0).
const NO_CUBES: CoverId = 0;

/// The cover made of the universal cube alone (the constant 1).
const UNIVERSAL: CoverId = 1;

/// A cover DAG node `(x, part0, part1, rest)`: the cubes of `part0` with
/// `¬x`, then those of `part1` with `x`, then those of `rest`.
type CoverNode = (Var, CoverId, CoverId, CoverId);

/// Appends the cubes of cover `id` to `out`, each extended by the
/// literals on `path`.
fn expand(dag: &[CoverNode], id: CoverId, path: &mut Vec<(Var, bool)>, out: &mut Vec<Cube>) {
    match id {
        NO_CUBES => {}
        UNIVERSAL => out.push(Cube::new(path.clone())),
        _ => {
            let (x, part0, part1, rest) = dag[id - 2];
            path.push((x, false));
            expand(dag, part0, path, out);
            path.pop();
            path.push((x, true));
            expand(dag, part1, path, out);
            path.pop();
            expand(dag, rest, path, out);
        }
    }
}

/// Memo of one call: `(lower, upper)` to the cover's function and id.
type IsopMemo = HashMap<(Edge, Edge), (Edge, CoverId), FastBuild>;

impl Bdd {
    /// Computes an irredundant sum-of-products `g` with
    /// `lower ≤ g ≤ upper` (Minato–Morreale).
    ///
    /// # Panics
    ///
    /// Panics if `lower ≤ upper` does not hold.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(1));
    /// let f = bdd.or(a, b);
    /// let isop = bdd.isop(f, f);
    /// assert_eq!(isop.len(), 2); // a + b
    /// assert_eq!(isop.function, f);
    /// ```
    pub fn isop(&mut self, lower: Edge, upper: Edge) -> Isop {
        assert!(
            self.implies_holds(lower, upper),
            "isop: lower must imply upper"
        );
        let mut dag = Vec::new();
        // One operation for the whole recursion: no collection or
        // reordering may run between the levels it reads and the nodes
        // it builds at them.
        self.begin_op();
        let (function, root) = self.isop_rec(lower, upper, &mut IsopMemo::default(), &mut dag);
        let function = self.end_op(function);
        let mut cubes = Vec::new();
        expand(&dag, root, &mut Vec::new(), &mut cubes);
        Isop { cubes, function }
    }

    fn isop_rec(
        &mut self,
        lower: Edge,
        upper: Edge,
        memo: &mut IsopMemo,
        dag: &mut Vec<CoverNode>,
    ) -> (Edge, CoverId) {
        if lower.is_zero() {
            return (Edge::ZERO, NO_CUBES);
        }
        if upper.is_one() {
            return (Edge::ONE, UNIVERSAL);
        }
        if let Some(&r) = memo.get(&(lower, upper)) {
            return r;
        }
        let x = self.level(lower).min(self.level(upper));
        debug_assert!(!x.is_terminal());
        let (l1, l0) = self.cof_at(lower, x);
        let (u1, u0) = self.cof_at(upper, x);
        // Parts of each cofactor that cannot be covered by x-free cubes.
        let lx0 = self.diff(l0, u1);
        let lx1 = self.diff(l1, u0);
        let (f0, part0) = self.isop_rec(lx0, u0, memo, dag);
        let (f1, part1) = self.isop_rec(lx1, u1, memo, dag);
        // The remainder must be covered without mentioning x.
        let rem0 = self.diff(l0, f0);
        let rem1 = self.diff(l1, f1);
        let l_rest = self.or(rem0, rem1);
        let u_rest = self.and(u0, u1);
        let (f_rest, rest) = self.isop_rec(l_rest, u_rest, memo, dag);
        // `x` is a level; cube literals carry identities.
        dag.push((self.var_at_level(x), part0, part1, rest));
        let cover = dag.len() + 1;
        // Every sub-cover lies strictly below `x`, so `x·f1 + ¬x·f0` is
        // a single node.
        let with_x = self.mk(x, f1, f0);
        let function = self.or(with_x, f_rest);
        debug_assert!(self.implies_holds(lower, function));
        debug_assert!(self.implies_holds(function, upper));
        memo.insert((lower, upper), (function, cover));
        (function, cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_interval(bdd: &mut Bdd, isop: &Isop, lower: Edge, upper: Edge) {
        assert!(bdd.implies_holds(lower, isop.function));
        assert!(bdd.implies_holds(isop.function, upper));
        // The cube list and the function agree.
        let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(bdd)).collect();
        let union = bdd.or_many(parts);
        assert_eq!(union, isop.function);
    }

    fn check_irredundant(bdd: &mut Bdd, isop: &Isop, lower: Edge) {
        for skip in 0..isop.cubes.len() {
            let parts: Vec<Edge> = isop
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.to_edge(bdd))
                .collect();
            let union = bdd.or_many(parts);
            assert!(
                !bdd.implies_holds(lower, union),
                "cube {skip} is redundant"
            );
        }
    }

    #[test]
    fn exact_function_sop() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c);
        let isop = bdd.isop(f, f);
        assert_eq!(isop.function, f);
        assert_eq!(isop.len(), 2); // a·b + c
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }

    #[test]
    fn interval_allows_fewer_cubes() {
        // lower = a·b, upper = a: the single cube `a` suffices.
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let ab = bdd.and(a, b);
        let isop = bdd.isop(ab, a);
        assert_eq!(isop.len(), 1);
        assert_eq!(isop.function, a);
        check_interval(&mut bdd, &isop, ab, a);
    }

    #[test]
    fn constants() {
        let mut bdd = Bdd::new(2);
        let zero = bdd.isop(Edge::ZERO, Edge::ZERO);
        assert!(zero.is_empty());
        assert_eq!(zero.function, Edge::ZERO);
        let one = bdd.isop(Edge::ONE, Edge::ONE);
        assert_eq!(one.len(), 1);
        assert!(one.cubes[0].is_empty());
        let free = bdd.isop(Edge::ZERO, Edge::ONE);
        assert!(free.is_empty(), "all-DC chooses the empty cover");
    }

    #[test]
    #[should_panic(expected = "lower must imply upper")]
    fn bad_interval_panics() {
        let mut bdd = Bdd::new(1);
        let a = bdd.var(Var(0));
        bdd.isop(Edge::ONE, a);
    }

    #[test]
    fn xor_needs_two_cubes() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        let isop = bdd.isop(f, f);
        assert_eq!(isop.len(), 2); // a·¬b + ¬a·b
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }

    #[test]
    fn sop_string_rendering() {
        let mut bdd = Bdd::with_names(&["a", "b"]);
        let a = bdd.var(Var(0));
        let nb = bdd.literal(Var(1), false);
        let f = bdd.and(a, nb);
        let isop = bdd.isop(f, f);
        assert_eq!(isop.to_sop_string(&bdd), "a·¬b");
        let zero = bdd.isop(Edge::ZERO, Edge::ZERO);
        assert_eq!(zero.to_sop_string(&bdd), "0");
        let one = bdd.isop(Edge::ONE, Edge::ONE);
        assert_eq!(one.to_sop_string(&bdd), "1");
    }

    #[test]
    fn random_intervals_sound_and_irredundant() {
        // Exhaustive over a family of 3-var (onset, care) pairs.
        let mut bdd = Bdd::new(3);
        for spec in ["d1 01 1d 01", "1d d1 d0 0d", "0d 0d 11 dd"] {
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let onset = bdd.and(f, c);
            let nc = bdd.not(c);
            let upper = bdd.or(f, nc);
            let isop = bdd.isop(onset, upper);
            check_interval(&mut bdd, &isop, onset, upper);
            check_irredundant(&mut bdd, &isop, onset);
        }
    }

    #[test]
    fn isop_cube_count_at_most_minterm_count() {
        let mut bdd = Bdd::new(4);
        let vars: Vec<Edge> = (0..4).map(|i| bdd.var(Var(i))).collect();
        let x01 = bdd.xor(vars[0], vars[1]);
        let a23 = bdd.and(vars[2], vars[3]);
        let f = bdd.or(x01, a23);
        let isop = bdd.isop(f, f);
        let minterms = bdd.sat_count(f) as usize;
        assert!(isop.len() <= minterms);
        assert!(isop.len() >= 2);
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }
}
