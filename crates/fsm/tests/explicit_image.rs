//! Image computation checked against explicit-state simulation.
//!
//! Every image method ends in the same `Bdd::rename`, so comparing the
//! methods with one another cannot catch a wrong rename. Here each BFS
//! step's image is compared state by state with the successors that
//! `Circuit::simulate` produces from the states of the symbolic set.

use std::collections::BTreeSet;

use bddmin_bdd::Edge;
use bddmin_fsm::{generators, Circuit, ImageMethod, SymbolicFsm};

/// The states of a set over the present variables, as latch bit vectors
/// packed with latch `i` in bit `i`.
fn states_of(fsm: &SymbolicFsm, set: Edge) -> BTreeSet<u32> {
    let latches = fsm.present_vars().len();
    let mut assign = vec![false; fsm.bdd().num_vars()];
    (0..1u32 << latches)
        .filter(|&s| {
            for (i, v) in fsm.present_vars().iter().enumerate() {
                assign[v.index()] = s >> i & 1 == 1;
            }
            fsm.bdd().eval(set, &assign)
        })
        .collect()
}

/// The successors of `states` under every input vector.
fn explicit_image(circuit: &Circuit, states: &BTreeSet<u32>) -> BTreeSet<u32> {
    let bits = |word: u32, n: usize| -> Vec<bool> { (0..n).map(|i| word >> i & 1 == 1).collect() };
    let mut image = BTreeSet::new();
    for &s in states {
        let state = bits(s, circuit.num_latches());
        for x in 0..1u32 << circuit.num_inputs() {
            let (_, next) = circuit.simulate(&bits(x, circuit.num_inputs()), &state);
            image.insert(next.iter().rev().fold(0, |acc, &b| acc << 1 | u32::from(b)));
        }
    }
    image
}

#[test]
fn every_image_method_matches_explicit_successors() {
    for seed in 0..6u64 {
        let latches = 3 + seed as usize % 3;
        let inputs = 1 + seed as usize % 2;
        let circuit = generators::random_fsm("img", latches, inputs, 0x1a6e + seed);
        for chained in [false, true] {
            // `None` is `image_via` through the monolithic relation.
            for method in ImageMethod::ALL.map(Some).into_iter().chain([None]) {
                let mut fsm = if chained {
                    SymbolicFsm::new_chained(&circuit)
                } else {
                    SymbolicFsm::new(&circuit)
                };
                let mut set = fsm.initial_states();
                for step in 0..5 {
                    let image = match method {
                        Some(m) => fsm.image_with(m, set),
                        None => {
                            let t = fsm.transition_relation();
                            fsm.image_via(t, set)
                        }
                    };
                    let support = fsm.bdd().support(image);
                    assert!(
                        support.iter().all(|v| fsm.present_vars().contains(v)),
                        "image leaves the present variables"
                    );
                    let want = explicit_image(&circuit, &states_of(&fsm, set));
                    assert_eq!(
                        states_of(&fsm, image),
                        want,
                        "{method:?} image of seed {seed} (chained={chained}) at step {step}"
                    );
                    set = fsm.bdd_mut().or(set, image);
                    fsm.collect_garbage(&[set]);
                }
            }
        }
    }
}

/// A traversal that never asks for the monolithic relation never builds
/// it: the same `part` or `range` BFS creates more nodes once
/// `transition_relation()` has been called first. The machine is large
/// enough that its partition has several clusters.
#[test]
fn part_and_range_traversals_never_build_the_monolithic_relation() {
    let circuit = generators::random_fsm("lazy", 12, 4, 0x7a2);
    let nodes_created = |fsm: &SymbolicFsm| {
        let s = fsm.bdd().stats();
        s.live_nodes as u64 + s.gc_reclaimed
    };
    for method in [ImageMethod::Part, ImageMethod::Range] {
        let mut created = Vec::new();
        for build_t in [false, true] {
            let mut fsm = SymbolicFsm::new(&circuit);
            if build_t {
                fsm.transition_relation();
            }
            let mut set = fsm.initial_states();
            for _ in 0..4 {
                let image = fsm.image_with(method, set);
                set = fsm.bdd_mut().or(set, image);
            }
            created.push(nodes_created(&fsm));
            // With one cluster the partition would be `T` itself.
            assert!(fsm.num_clusters() > 1);
        }
        assert!(
            created[0] < created[1],
            "{method} traversal created {} nodes without T and {} with it",
            created[0],
            created[1]
        );
    }
}
