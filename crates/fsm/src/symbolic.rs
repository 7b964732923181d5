//! Symbolic (BDD) representation of a sequential circuit.
//!
//! Variable order: primary inputs first (topmost), then present/next state
//! variables interleaved per latch — the standard order for transition
//! relations (Touati et al. \[9\]).

use bddmin_bdd::{Bdd, Edge, ReorderSettings, ReorderStats, Var};

use crate::circuit::Circuit;

/// How an image is computed (the `--image {mono,part,range}` flag).
///
/// All three methods produce identical state sets — the `image-equivalence`
/// oracle and the `fused_image` differential suite pin this — but with very
/// different peak memory profiles (BENCH_8.json).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageMethod {
    /// Monolithic transition relation through the fused `and_exists`.
    Mono,
    /// Partitioned transition relation with IWLS95-style early
    /// quantification ([`SymbolicFsm::image_partitioned`]).
    Part,
    /// Constrain + range over the next-state vector
    /// ([`SymbolicFsm::image_by_range`]) — the paper's own method.
    Range,
}

impl ImageMethod {
    /// Every method, for exhaustive cross-checks.
    pub const ALL: [ImageMethod; 3] = [ImageMethod::Mono, ImageMethod::Part, ImageMethod::Range];

    /// The flag spelling (`mono`, `part`, `range`).
    pub fn name(self) -> &'static str {
        match self {
            ImageMethod::Mono => "mono",
            ImageMethod::Part => "part",
            ImageMethod::Range => "range",
        }
    }
}

impl std::str::FromStr for ImageMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<ImageMethod, String> {
        match s {
            "mono" => Ok(ImageMethod::Mono),
            "part" => Ok(ImageMethod::Part),
            "range" => Ok(ImageMethod::Range),
            other => Err(format!(
                "unknown image method `{other}` (expected mono, part, or range)"
            )),
        }
    }
}

impl std::fmt::Display for ImageMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Greedy clustering threshold: a cluster stops absorbing per-latch
/// relations once its BDD would exceed this many nodes (IWLS95's partition
/// size limit). Small enough that the experiment circuits actually
/// partition; conjunctions stay shallow either way.
const CLUSTER_NODE_THRESHOLD: usize = 250;

/// A partitioned transition relation with its early-quantification
/// schedule. `clusters[i]` is a conjunction of per-latch next-state
/// relations; `cubes[i]` is the cube of variables whose **last** mention is
/// in cluster `i` — sound to abstract immediately after conjoining it,
/// since ∃v·(A ∧ B) = (∃v·A) ∧ B whenever v ∉ support(B).
#[derive(Debug)]
struct Partition {
    clusters: Vec<Edge>,
    cubes: Vec<Edge>,
}

/// A circuit compiled to BDDs: next-state and output functions over input
/// and present-state variables, plus the machinery for image computation.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{CircuitBuilder, GateKind, SymbolicFsm};
///
/// let mut b = CircuitBuilder::new("toggle");
/// let en = b.input("en");
/// let q = b.latch("q", false);
/// let next = b.gate(GateKind::Xor, &[en, q]);
/// b.connect_latch(q, next);
/// b.output("count", q);
/// let circuit = b.build();
///
/// let mut fsm = SymbolicFsm::new(&circuit);
/// let reached = {
///     let init = fsm.initial_states();
///     fsm.reachable_from(init)
/// };
/// // Both states of the toggle are reachable.
/// assert!(reached.is_one());
/// ```
#[derive(Debug)]
pub struct SymbolicFsm {
    bdd: Bdd,
    input_vars: Vec<Var>,
    present_vars: Vec<Var>,
    next_vars: Vec<Var>,
    next_fns: Vec<Edge>,
    output_fns: Vec<Edge>,
    output_names: Vec<String>,
    initial: Edge,
    /// The monolithic transition relation, built on first use: only the
    /// `mono` image and relation minimization read it.
    transition: Option<Edge>,
    /// Cube of input ∪ present variables (quantified during image).
    img_quant_cube: Edge,
    /// Lazily-built partitioned transition relation (see [`Partition`]).
    partition: Option<Partition>,
    name: String,
}

impl SymbolicFsm {
    /// Compiles a circuit into its symbolic form.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's combinational logic is not in topological
    /// order (cannot happen for circuits produced by `CircuitBuilder`).
    pub fn new(circuit: &Circuit) -> SymbolicFsm {
        Self::compile(circuit, Bdd::with_names(&[]))
    }

    /// Compiles a circuit into a chain-reduced (CBDD) manager. Reachable
    /// state sets and transition relations keep plain-equivalent sizes,
    /// so every measurement is mode-invariant; only the node store is
    /// compressed.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SymbolicFsm::new`].
    pub fn new_chained(circuit: &Circuit) -> SymbolicFsm {
        Self::compile(circuit, Bdd::with_names_chained(&[]))
    }

    fn compile(circuit: &Circuit, mut bdd: Bdd) -> SymbolicFsm {
        // Inputs on top.
        let input_vars: Vec<Var> = circuit
            .inputs()
            .iter()
            .map(|&n| bdd.add_var(&format!("in.{}", circuit.net_name(n))))
            .collect();
        // Interleaved present/next per latch.
        let mut present_vars = Vec::with_capacity(circuit.num_latches());
        let mut next_vars = Vec::with_capacity(circuit.num_latches());
        for (i, latch) in circuit.latches().iter().enumerate() {
            let base = circuit.net_name(latch.output);
            present_vars.push(bdd.add_var(&format!("ps.{base}")));
            next_vars.push(bdd.add_var(&format!("ns.{base}.{i}")));
        }
        // Evaluate every net symbolically.
        let mut net_fn: Vec<Option<Edge>> = vec![None; circuit.num_nets()];
        for (i, &n) in circuit.inputs().iter().enumerate() {
            net_fn[n.index()] = Some(bdd.var(input_vars[i]));
        }
        for (i, latch) in circuit.latches().iter().enumerate() {
            net_fn[latch.output.index()] = Some(bdd.var(present_vars[i]));
        }
        for gate in circuit.gates() {
            let ins: Vec<Edge> = gate
                .inputs
                .iter()
                .map(|n| net_fn[n.index()].expect("gates in topological order"))
                .collect();
            let out = build_gate(&mut bdd, gate.kind, &ins);
            net_fn[gate.output.index()] = Some(out);
        }
        let next_fns: Vec<Edge> = circuit
            .latches()
            .iter()
            .map(|l| net_fn[l.input.index()].expect("latch input defined"))
            .collect();
        let output_fns: Vec<Edge> = circuit
            .outputs()
            .iter()
            .map(|o| net_fn[o.net.index()].expect("output defined"))
            .collect();
        let output_names = circuit.outputs().iter().map(|o| o.name.clone()).collect();
        // Initial state cube.
        let mut initial = Edge::ONE;
        for (i, latch) in circuit.latches().iter().enumerate() {
            let lit = bdd.literal(present_vars[i], latch.init);
            initial = bdd.and(initial, lit);
        }
        let quant: Vec<Var> = input_vars
            .iter()
            .chain(present_vars.iter())
            .copied()
            .collect();
        let img_quant_cube = bdd.cube_of_vars(&quant);
        SymbolicFsm {
            bdd,
            input_vars,
            present_vars,
            next_vars,
            next_fns,
            output_fns,
            output_names,
            initial,
            transition: None,
            img_quant_cube,
            partition: None,
            name: circuit.name().to_owned(),
        }
    }

    /// The underlying BDD manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the manager (for minimization passes on state
    /// sets).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Primary-input variables.
    pub fn input_vars(&self) -> &[Var] {
        &self.input_vars
    }

    /// Present-state variables.
    pub fn present_vars(&self) -> &[Var] {
        &self.present_vars
    }

    /// Next-state variables (used only inside the transition relation).
    pub fn next_vars(&self) -> &[Var] {
        &self.next_vars
    }

    /// Next-state functions `δ_i(inputs, present)`.
    pub fn next_fns(&self) -> &[Edge] {
        &self.next_fns
    }

    /// Output functions `λ_k(inputs, present)`.
    pub fn output_fns(&self) -> &[Edge] {
        &self.output_fns
    }

    /// Output port names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The characteristic function of the reset state (a cube over the
    /// present-state variables).
    pub fn initial_states(&self) -> Edge {
        self.initial
    }

    /// The monolithic transition relation `T(in, ps, ns) = ∧ᵢ (nsᵢ ≡ δᵢ)`,
    /// built on the first call and kept as a root from then on.
    pub fn transition_relation(&mut self) -> Edge {
        if let Some(t) = self.transition {
            return t;
        }
        let mut t = Edge::ONE;
        for (&nv, &nf) in self.next_vars.iter().zip(&self.next_fns) {
            let nv = self.bdd.var(nv);
            let eq = self.bdd.xnor(nv, nf);
            t = self.bdd.and(t, eq);
        }
        self.transition = Some(t);
        t
    }

    /// The cube of input and present-state variables quantified during
    /// image computation.
    pub fn img_quant_cube(&self) -> Edge {
        self.img_quant_cube
    }

    /// The image of a state set `S(ps)`: all states reachable in one step,
    /// expressed over the **present** variables again.
    pub fn image(&mut self, states: Edge) -> Edge {
        let t = self.transition_relation();
        let ns_image = self.bdd.and_exists(t, states, self.img_quant_cube);
        self.next_to_present(ns_image)
    }

    /// Renames a set over the next-state variables to the present ones.
    pub(crate) fn next_to_present(&mut self, f: Edge) -> Edge {
        self.bdd.rename(f, &self.next_vars, &self.present_vars)
    }

    /// The image of `states` through the partitioned transition relation:
    /// per-latch relations greedily clustered under a node threshold, each
    /// input/present variable abstracted at the last cluster that mentions
    /// it (IWLS95-style early quantification). Produces the same state set
    /// as [`SymbolicFsm::image`] with a far smaller peak conjunction.
    pub fn image_partitioned(&mut self, states: Edge) -> Edge {
        self.ensure_partition();
        let part = self.partition.as_ref().expect("partition built");
        let steps: Vec<(Edge, Edge)> = part
            .clusters
            .iter()
            .copied()
            .zip(part.cubes.iter().copied())
            .collect();
        let mut acc = states;
        for (cluster, cube) in steps {
            acc = self.bdd.and_exists(acc, cluster, cube);
        }
        self.next_to_present(acc)
    }

    /// Dispatches to the image computation selected by `method`.
    pub fn image_with(&mut self, method: ImageMethod, states: Edge) -> Edge {
        match method {
            ImageMethod::Mono => self.image(states),
            ImageMethod::Part => self.image_partitioned(states),
            ImageMethod::Range => self.image_by_range(states),
        }
    }

    /// Number of clusters in the partitioned transition relation (builds
    /// it if necessary). One cluster per latch before clustering; fewer
    /// after greedy merging under the node threshold.
    pub fn num_clusters(&mut self) -> usize {
        self.ensure_partition();
        self.partition.as_ref().expect("partition built").clusters.len()
    }

    fn ensure_partition(&mut self) {
        if self.partition.is_some() {
            return;
        }
        // Per-latch relations ns_i ≡ δ_i, greedily conjoined while the
        // cluster stays under the node threshold.
        let mut clusters: Vec<Edge> = Vec::new();
        let mut current = Edge::ONE;
        for (i, &nf) in self.next_fns.clone().iter().enumerate() {
            let nv = self.bdd.var(self.next_vars[i]);
            let rel = self.bdd.xnor(nv, nf);
            if current.is_one() {
                current = rel;
                continue;
            }
            let merged = self.bdd.and(current, rel);
            if self.bdd.size(merged) > CLUSTER_NODE_THRESHOLD {
                clusters.push(current);
                current = rel;
            } else {
                current = merged;
            }
        }
        if !current.is_one() || clusters.is_empty() {
            clusters.push(current);
        }
        // Early-quantification schedule: each input/present variable is
        // abstracted at the LAST cluster whose support mentions it. A
        // variable mentioned by no cluster can go anywhere (only `states`
        // carries it); schedule it first so it disappears immediately.
        let supports: Vec<Vec<Var>> =
            clusters.iter().map(|&c| self.bdd.support(c)).collect();
        let quant: Vec<Var> = self
            .input_vars
            .iter()
            .chain(self.present_vars.iter())
            .copied()
            .collect();
        let mut per_cluster: Vec<Vec<Var>> = vec![Vec::new(); clusters.len()];
        for &v in &quant {
            let last = supports.iter().rposition(|s| s.contains(&v)).unwrap_or(0);
            per_cluster[last].push(v);
        }
        let cubes: Vec<Edge> = per_cluster
            .iter()
            .map(|vars| self.bdd.cube_of_vars(vars))
            .collect();
        self.partition = Some(Partition { clusters, cubes });
    }

    /// Full reachable state set from `from`, by naive BFS (no frontier
    /// minimization). See [`Reachability`](crate::Reachability) for the
    /// instrumented traversal used by the experiments.
    pub fn reachable_from(&mut self, from: Edge) -> Edge {
        let mut reached = from;
        loop {
            let img = self.image(reached);
            let next = self.bdd.or(reached, img);
            if next == reached {
                return reached;
            }
            reached = next;
        }
    }

    /// Garbage-collects the manager, protecting the machine's own
    /// functions (next-state, outputs, initial state, the transition
    /// relations built so far) plus the given extra roots. Returns the
    /// number of reclaimed nodes.
    ///
    /// Long instrumented traversals that repeatedly build and discard
    /// minimized covers should call this between iterations to keep the
    /// node table bounded.
    pub fn collect_garbage(&mut self, extra_roots: &[Edge]) -> usize {
        let roots = self.roots(extra_roots);
        self.bdd.collect_garbage(&roots)
    }

    /// Dynamically reorders the manager's variables, protecting the same
    /// roots as [`SymbolicFsm::collect_garbage`]: the machine's own
    /// functions plus `extra_roots`. Every protected edge keeps its
    /// identity across the reorder (slots denote the same functions), so
    /// the traversal continues unchanged afterwards.
    pub fn reorder(&mut self, settings: &ReorderSettings, extra_roots: &[Edge]) -> ReorderStats {
        let roots = self.roots(extra_roots);
        self.bdd.reorder_roots(settings, &roots)
    }

    /// The machine's own functions, the relations built so far, and
    /// `extra_roots`.
    fn roots(&self, extra_roots: &[Edge]) -> Vec<Edge> {
        let mut roots = [self.next_fns.as_slice(), &self.output_fns].concat();
        roots.push(self.initial);
        roots.extend(self.transition);
        roots.push(self.img_quant_cube);
        if let Some(part) = &self.partition {
            roots.extend_from_slice(&part.clusters);
            roots.extend_from_slice(&part.cubes);
        }
        roots.extend_from_slice(extra_roots);
        roots
    }

    /// Number of states in a state set (over the present variables).
    pub fn count_states(&self, set: Edge) -> f64 {
        let frac = self.bdd.sat_fraction(set);
        frac * 2f64.powi(self.bdd.num_vars() as i32)
            / 2f64.powi((self.bdd.num_vars() - self.present_vars.len()) as i32)
    }
}

fn build_gate(bdd: &mut Bdd, kind: crate::circuit::GateKind, ins: &[Edge]) -> Edge {
    use crate::circuit::GateKind::*;
    match kind {
        And => bdd.and_many(ins.iter().copied()),
        Or => bdd.or_many(ins.iter().copied()),
        Nand => bdd.and_many(ins.iter().copied()).complement(),
        Nor => bdd.or_many(ins.iter().copied()).complement(),
        Xor => ins.iter().fold(Edge::ZERO, |a, &b| bdd.xor(a, b)),
        Xnor => ins
            .iter()
            .fold(Edge::ZERO, |a, &b| bdd.xor(a, b))
            .complement(),
        Not => ins[0].complement(),
        Buf => ins[0],
        Const0 => Edge::ZERO,
        Const1 => Edge::ONE,
    }
}

/// Checks that the symbolic next-state/output functions agree with concrete
/// simulation on the given stimulus (used by tests and the BLIF round-trip).
pub fn symbolic_matches_simulation(
    circuit: &Circuit,
    fsm: &SymbolicFsm,
    inputs: &[bool],
    state: &[bool],
) -> bool {
    let (outs, next) = circuit.simulate(inputs, state);
    let nvars = fsm.bdd.num_vars();
    let mut assign = vec![false; nvars];
    for (i, &v) in fsm.input_vars.iter().enumerate() {
        assign[v.index()] = inputs[i];
    }
    for (i, &v) in fsm.present_vars.iter().enumerate() {
        assign[v.index()] = state[i];
    }
    let sym_outs: Vec<bool> = fsm
        .output_fns
        .iter()
        .map(|&f| fsm.bdd.eval(f, &assign))
        .collect();
    let sym_next: Vec<bool> = fsm
        .next_fns
        .iter()
        .map(|&f| fsm.bdd.eval(f, &assign))
        .collect();
    sym_outs == outs && sym_next == next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, GateKind};

    fn two_bit_counter() -> Circuit {
        let mut b = CircuitBuilder::new("cnt2");
        let en = b.input("en");
        let q0 = b.latch("q0", false);
        let q1 = b.latch("q1", false);
        let n0 = b.gate(GateKind::Xor, &[en, q0]);
        let carry = b.gate(GateKind::And, &[en, q0]);
        let n1 = b.gate(GateKind::Xor, &[carry, q1]);
        b.connect_latch(q0, n0);
        b.connect_latch(q1, n1);
        b.output("q0", q0);
        b.output("q1", q1);
        b.build()
    }

    #[test]
    fn symbolic_agrees_with_simulation() {
        let c = two_bit_counter();
        let fsm = SymbolicFsm::new(&c);
        for bits in 0..8u32 {
            let inputs = [(bits & 4) != 0];
            let state = [(bits & 2) != 0, (bits & 1) != 0];
            assert!(symbolic_matches_simulation(&c, &fsm, &inputs, &state));
        }
    }

    #[test]
    fn image_of_reset_state() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        assert_eq!(fsm.count_states(init), 1.0);
        let img = fsm.image(init);
        // From 00 the counter can stay (en=0) or go to 01 (en=1).
        assert_eq!(fsm.count_states(img), 2.0);
    }

    #[test]
    fn full_reachability() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let reached = fsm.reachable_from(init);
        assert_eq!(fsm.count_states(reached), 4.0);
    }

    #[test]
    fn unreachable_states_detected() {
        // A latch that can never become 1: next = q & 0.
        let mut b = CircuitBuilder::new("stuck");
        let q = b.latch("q", false);
        let zero = b.gate(GateKind::Const0, &[]);
        let nx = b.gate(GateKind::And, &[q, zero]);
        b.connect_latch(q, nx);
        b.output("o", q);
        let c = b.build();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let reached = fsm.reachable_from(init);
        assert_eq!(fsm.count_states(reached), 1.0);
    }

    #[test]
    fn transition_relation_is_deterministic() {
        // For every (in, ps) exactly one ns: ∃ns.T = 1 and T is a partial
        // function — check via counting.
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let t = fsm.transition_relation();
        let ns_cube = {
            let vars = fsm.next_vars().to_vec();
            fsm.bdd_mut().cube_of_vars(&vars)
        };
        let any_ns = fsm.bdd_mut().exists(t, ns_cube);
        assert!(any_ns.is_one(), "total transition function");
        // Each (in, ps) admits exactly one ns: count = 2^(inputs+present).
        let frac = fsm.bdd().sat_fraction(t);
        let total_vars = fsm.bdd().num_vars() as i32;
        let count = frac * 2f64.powi(total_vars);
        assert_eq!(count, 2f64.powi(3)); // 1 input + 2 present bits
    }

    #[test]
    fn partitioned_image_matches_monolithic() {
        for circuit in [
            crate::generators::counter("c", 4),
            crate::generators::lfsr("l", 4, 0b0011),
            crate::generators::traffic_light(),
            crate::generators::random_fsm("r", 4, 3, 7),
        ] {
            for chained in [false, true] {
                let mut fsm = if chained {
                    SymbolicFsm::new_chained(&circuit)
                } else {
                    SymbolicFsm::new(&circuit)
                };
                let mut set = fsm.initial_states();
                for step in 0..4 {
                    let mono = fsm.image(set);
                    let part = fsm.image_partitioned(set);
                    let range = fsm.image_by_range(set);
                    assert_eq!(
                        mono,
                        part,
                        "mono vs part on {} (chained={chained}) step {step}",
                        circuit.name()
                    );
                    assert_eq!(mono, range, "mono vs range on {}", circuit.name());
                    set = fsm.bdd_mut().or(set, mono);
                }
            }
        }
    }

    #[test]
    fn image_with_dispatches_every_method() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let want = fsm.image(init);
        for m in ImageMethod::ALL {
            assert_eq!(fsm.image_with(m, init), want, "method {m}");
        }
    }

    #[test]
    fn partition_survives_gc() {
        let c = crate::generators::counter("c", 5);
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let before = fsm.image_partitioned(init);
        assert!(fsm.num_clusters() >= 1);
        fsm.collect_garbage(&[init]);
        let after = fsm.image_partitioned(init);
        assert_eq!(before, after);
    }

    #[test]
    fn image_method_round_trips_names() {
        for m in ImageMethod::ALL {
            assert_eq!(m.name().parse::<ImageMethod>(), Ok(m));
        }
        assert!("bogus".parse::<ImageMethod>().is_err());
    }

    #[test]
    fn metadata_accessors() {
        let c = two_bit_counter();
        let fsm = SymbolicFsm::new(&c);
        assert_eq!(fsm.name(), "cnt2");
        assert_eq!(fsm.present_vars().len(), 2);
        assert_eq!(fsm.next_vars().len(), 2);
        assert_eq!(fsm.next_fns().len(), 2);
        assert_eq!(fsm.output_fns().len(), 2);
        assert_eq!(fsm.output_names(), &["q0".to_owned(), "q1".to_owned()]);
    }
}
