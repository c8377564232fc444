//! E1 end-to-end: the exponential separation between the worst-case and the
//! average measure for the largest-ID problem (paper, Section 2).

use avglocal::prelude::*;
use avglocal_integration_tests::{shuffled_ring, test_sizes};

#[test]
fn worst_case_is_linear_for_every_assignment() {
    for n in [16usize, 64, 256] {
        for assignment in
            [IdAssignment::Identity, IdAssignment::Reversed, IdAssignment::Shuffled { seed: 9 }]
        {
            let profile =
                run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
            assert_eq!(profile.max(), n / 2, "n={n}, assignment={assignment:?}");
        }
    }
}

#[test]
fn average_grows_much_slower_than_worst_case() {
    // Measure the average radius under random identifiers for growing n and
    // check the separation factor keeps increasing — the qualitative shape of
    // the paper's exponential gap.
    let mut previous_separation = 0.0;
    for k in [5u32, 7, 9, 11] {
        let n = 1usize << k;
        let result = Sweep::new(Problem::LargestId, vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: 3 })
            .with_trials(3)
            .run()
            .unwrap();
        let row = &result.rows[0];
        let separation = row.separation();
        assert!(
            separation > previous_separation,
            "separation should grow with n: {separation} after {previous_separation}"
        );
        previous_separation = separation;
    }
    // By n = 2048 the separation is already enormous.
    assert!(previous_separation > 60.0, "final separation {previous_separation}");
}

#[test]
fn identity_assignment_realises_the_minimum_average() {
    // With identifiers increasing around the ring, all nodes except the
    // winner decide at radius 1 — the best possible average for this
    // algorithm, useful as a sanity lower bracket.
    for n in test_sizes() {
        let profile =
            run_on_topology(Problem::LargestId, &Topology::Cycle, n, &IdAssignment::Identity)
                .unwrap();
        let expected = ((n - 1) + n / 2) as f64 / n as f64;
        assert!((profile.average() - expected).abs() < 1e-9, "n={n}");
    }
}

#[test]
fn measured_average_is_within_theory_bounds() {
    for n in [32usize, 128, 512] {
        for seed in 0..3u64 {
            let g = shuffled_ring(n, seed);
            let profile = Problem::LargestId.run(&g).unwrap();
            // Lower bracket: at least 1 - 1/n (every non-winner needs >= 1).
            assert!(profile.average() >= (n as f64 - 1.0) / n as f64);
            // Upper bracket: the worst-case-over-permutations average.
            assert!(
                profile.average() <= theory::largest_id_worst_average(n) + 1e-9,
                "n={n} seed={seed}: {} > {}",
                profile.average(),
                theory::largest_id_worst_average(n)
            );
        }
    }
}

#[test]
fn full_information_baseline_has_no_gap() {
    let g = shuffled_ring(128, 5);
    let lazy = Problem::FullInfoLargestId.run(&g).unwrap();
    assert_eq!(lazy.average(), lazy.max() as f64);
    assert_eq!(lazy.max(), 64);
    let smart = Problem::LargestId.run(&g).unwrap();
    assert!(smart.average() < lazy.average() / 5.0);
}
