//! Determinism of the work-stealing executor.
//!
//! The persistent pool claims chunks dynamically, so which participant runs
//! which node — and in which order — varies from run to run. These tests pin
//! down the property the whole experiment harness relies on: outputs, radii
//! and error selection of `FrozenExecutor::run` are **bit-identical** to a
//! sequential left-to-right run, on every topology family, under maximally skewed
//! (adversarial) identifier assignments, and across repeated runs.

use avglocal::algorithms::LargestId;
use avglocal::analysis::recurrence::clustered_adversarial_arrangement;
use avglocal::prelude::*;
use avglocal::runtime::{FrozenExecutor, Knowledge, Scheduling};
use proptest::prelude::*;

/// The scheduler-adversarial assignment: the paper's
/// worst-case `a(p)` segment arrangement packed into one quarter of the
/// ring, ascending filler, global maximum adjacent to the block (shared
/// construction: [`clustered_adversarial_arrangement`]).
fn clustered_adversarial(n: usize) -> IdAssignment {
    let ids = clustered_adversarial_arrangement(n).iter().map(|&id| id as usize).collect();
    IdAssignment::from_vec(ids).expect("clustered adversarial ids form a permutation")
}

/// Every topology family at a size each of them accepts.
fn families() -> Vec<(Topology, usize)> {
    vec![
        (Topology::Cycle, 64),
        (Topology::Path, 64),
        (Topology::CompleteBinaryTree, 63),
        (Topology::Grid, 64),
        (Topology::Torus, 36),
        (Topology::gnp_connected(48, 7), 48),
    ]
}

/// Maximally skewed assignments for a family: identity (the winner pays
/// `Θ(diameter)` while everyone else pays 1 on the ring), reversed, and —
/// on the cycle — the clustered worst-case-block construction.
fn skewed_assignments(topology: &Topology, n: usize) -> Vec<IdAssignment> {
    let mut assignments = vec![IdAssignment::Identity, IdAssignment::Reversed];
    if topology.is_cycle() && n >= 8 {
        assignments.push(clustered_adversarial(n));
    }
    assignments
}

#[test]
fn stealing_matches_sequential_on_all_families_under_skew() {
    for (topology, n) in families() {
        for assignment in skewed_assignments(&topology, n) {
            let mut graph = topology.build(n).unwrap();
            assignment.apply(&mut graph).unwrap();
            let session = FrozenExecutor::new(&graph);
            let run = session.run(&LargestId, Knowledge::none()).unwrap();
            let reference = session
                .with_scheduling(Scheduling::Sequential)
                .run(&LargestId, Knowledge::none())
                .unwrap();
            assert_eq!(run.outputs(), reference.outputs(), "{topology}, {assignment:?}");
            assert_eq!(run.radii(), reference.radii(), "{topology}, {assignment:?}");
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Scheduling-dependent results would show up as run-to-run differences:
    // run the same frozen session several times and demand equality of every
    // output and radius, on the most skewed cycle workload we have.
    let n = 1024;
    let graph = topology_with_assignment(&Topology::Cycle, n, &clustered_adversarial(n)).unwrap();
    let session = FrozenExecutor::new(&graph);
    let first = session.run(&LargestId, Knowledge::none()).unwrap();
    for round in 0..4 {
        let again = session.run(&LargestId, Knowledge::none()).unwrap();
        assert_eq!(first.outputs(), again.outputs(), "round {round}");
        assert_eq!(first.radii(), again.radii(), "round {round}");
    }
}

#[test]
fn sweep_results_are_repeatable_under_the_pool() {
    // The whole harness path: parallel trials, nested parallel node loops,
    // per-participant session reuse — two identical sweeps must agree on
    // every aggregate bit for bit.
    let sweep = Sweep::new(Problem::LargestId, vec![32, 64])
        .with_policy(AssignmentPolicy::Random { base_seed: 9 })
        .with_trials(8);
    let a = sweep.run().unwrap();
    let b = sweep.run().unwrap();
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work-stealing output equals the sequential reference for random
    /// sizes, seeds and families.
    #[test]
    fn stealing_matches_sequential_on_random_instances(
        k in 3usize..20,
        seed in 0u64..500,
        family in 0usize..5,
    ) {
        let (topology, n) = match family {
            0 => (Topology::Cycle, k * 3),
            1 => (Topology::Path, k * 3),
            2 => (Topology::CompleteBinaryTree, k * 3),
            3 => (Topology::Grid, k * 3),
            // Both torus dimensions must be at least 3.
            _ => (Topology::Torus, 3 * k.max(3)),
        };
        let mut graph = topology.build(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut graph).unwrap();
        let session = FrozenExecutor::new(&graph);
        let stolen = session.run(&LargestId, Knowledge::none()).unwrap();
        let reference = session
            .with_scheduling(Scheduling::Sequential)
            .run(&LargestId, Knowledge::none())
            .unwrap();
        prop_assert_eq!(stolen.outputs(), reference.outputs());
        prop_assert_eq!(stolen.radii(), reference.radii());
    }
}
