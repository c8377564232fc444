//! Cross-view equivalence: the ball executor and the message-passing
//! executor assign identical costs to every node — the property that lets the
//! paper talk about "radii" and "rounds" interchangeably.

use avglocal::prelude::*;
use avglocal::runtime::{examples::NaiveLargestId, GatherAdapter};
use avglocal_integration_tests::{shuffled_ring, test_sizes};
use proptest::prelude::*;

#[test]
fn gather_adapter_matches_ball_executor_on_cycles() {
    for n in test_sizes() {
        let g = shuffled_ring(n, 5);
        let ball = FrozenExecutor::new(&g)
            .run(&avglocal::algorithms::LargestId, Knowledge::none())
            .unwrap();
        let rounds = SyncExecutor::new()
            .run(&g, &GatherAdapter::new(avglocal::algorithms::LargestId), Knowledge::none())
            .unwrap();
        for v in g.nodes() {
            assert_eq!(rounds.decision_round(v), Some(ball.radius(v)), "n={n}, node={v}");
            assert_eq!(rounds.output(v), Some(ball.output(v)), "n={n}, node={v}");
        }
        // The profiles (and hence both measures) coincide exactly.
        let p1 = RadiusProfile::from_ball_execution(&ball);
        let p2 = RadiusProfile::from_execution(&rounds).unwrap();
        assert_eq!(p1, p2);
    }
}

#[test]
fn gather_adapter_matches_ball_executor_on_other_topologies() {
    use avglocal::graph::generators;
    let mut graphs = [
        generators::grid(5, 4).unwrap(),
        generators::balanced_tree(3, 3).unwrap(),
        generators::hypercube(4).unwrap(),
        generators::petersen(),
        generators::caterpillar(6, 2).unwrap(),
    ];
    for (i, g) in graphs.iter_mut().enumerate() {
        IdAssignment::Shuffled { seed: i as u64 }.apply(g).unwrap();
        let ball = FrozenExecutor::new(g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let rounds = SyncExecutor::new()
            .run(g, &GatherAdapter::new(NaiveLargestId), Knowledge::none())
            .unwrap();
        for v in g.nodes() {
            assert_eq!(rounds.decision_round(v), Some(ball.radius(v)));
        }
    }
}

#[test]
fn radii_are_independent_of_the_identifier_universe_offset() {
    // Shifting every identifier by a constant must not change any radius:
    // the algorithms only compare identifiers.
    let n = 40;
    let base_graph = shuffled_ring(n, 8);
    let shifted = {
        let mut g = avglocal::graph::generators::cycle(n).unwrap();
        let perm = IdAssignment::Shuffled { seed: 8 }.permutation(n);
        IdAssignment::Explicit(perm).apply_with_base(&mut g, 1_000_000).unwrap();
        g
    };
    let a = Problem::LargestId.run(&base_graph).unwrap();
    let b = Problem::LargestId.run(&shifted).unwrap();
    assert_eq!(a.radii(), b.radii());
    let a = Problem::LandmarkColoring.run(&base_graph).unwrap();
    let b = Problem::LandmarkColoring.run(&shifted).unwrap();
    assert_eq!(a.radii(), b.radii());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rotating the identifier arrangement around the cycle permutes the
    /// radius profile but preserves both measures (the problem is symmetric).
    #[test]
    fn rotation_invariance_of_measures(n in 4usize..40, seed in 0u64..100, shift in 1usize..40) {
        let shift = shift % n;
        let base = IdAssignment::Shuffled { seed };
        let base_profile = run_on_topology(Problem::LargestId, &Topology::Cycle, n, &base).unwrap();

        // Compose the shuffle with a rotation of the positions.
        let perm = base.permutation(n);
        let rotated: Vec<usize> = (0..n).map(|i| perm.get((i + shift) % n)).collect();
        let rotated_profile = run_on_topology(
            Problem::LargestId, &Topology::Cycle,
            n,
            &IdAssignment::from_vec(rotated).unwrap())
        .unwrap();

        let mut a = base_profile.radii().to_vec();
        let mut b = rotated_profile.radii().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!((base_profile.average() - rotated_profile.average()).abs() < 1e-9);
        prop_assert_eq!(base_profile.max(), rotated_profile.max());
    }
}
