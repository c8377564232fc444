//! The measure layer against brute-force recomputation.
//!
//! Every measure a sweep row reports (node-averaged, edge-averaged under
//! both endpoint weightings, worst case, total, median) must equal a
//! from-scratch recomputation that runs the same trials through the plain
//! `Problem::run` entry point on a freshly built graph and folds the raw
//! radius vectors by hand — same summation order, so the comparison is
//! exact, not approximate.
//! The per-component mode is checked the same way: aggregate and
//! per-component sets recomputed from the labelled radius vectors.

use avglocal::analysis::Summary;
use avglocal::graph::{ComponentLabels, ComponentMode};
use avglocal::prelude::*;
use proptest::prelude::*;

/// Sizes for which every deterministic family (including the torus) has an
/// instance.
const UNIVERSAL_SIZES: [usize; 3] = [9, 16, 24];

fn supported_topologies(n: usize, seed: u64) -> Vec<Topology> {
    let mut all = Topology::DETERMINISTIC.to_vec();
    all.push(Topology::gnp_connected(n, seed));
    all
}

/// Brute-force edge-averaged measure straight from the definition.
fn brute_force_edge_averaged(graph: &Graph, radii: &[usize], use_max: bool) -> f64 {
    let mut sum = 0.0;
    let mut edges = 0usize;
    for (u, v) in graph.edges() {
        let (ru, rv) = (radii[u.index()], radii[v.index()]);
        sum += if use_max { ru.max(rv) as f64 } else { (ru + rv) as f64 / 2.0 };
        edges += 1;
    }
    if edges == 0 {
        0.0
    } else {
        sum / edges as f64
    }
}

/// Brute-force nearest-rank median.
fn brute_force_median(radii: &[usize]) -> f64 {
    if radii.is_empty() {
        return 0.0;
    }
    let mut sorted = radii.to_vec();
    sorted.sort_unstable();
    sorted[(500 * (sorted.len() - 1) + 500) / 1000] as f64
}

/// The identity, per-trial random and fixed explicit policies at size `n`.
fn policies(n: usize) -> [AssignmentPolicy; 3] {
    // i -> 7i + 2 (mod n) is a permutation whenever gcd(7, n) = 1.
    let explicit = IdAssignment::from_vec((0..n).map(|i| (7 * i + 2) % n).collect()).unwrap();
    [
        AssignmentPolicy::Fixed(IdAssignment::Identity),
        AssignmentPolicy::Random { base_seed: 3 },
        AssignmentPolicy::Fixed(explicit),
    ]
}

/// Runs a 3-trial sweep row and checks it bit for bit against a from-scratch
/// recomputation: every trial builds its own graph, applies the trial's
/// assignment, runs `Problem::run` on it (`Problem::run_per_component` in
/// per-component mode), and folds the measures by hand, aggregated in trial
/// order. Returns the row's component count.
fn assert_row_matches_brute_force(
    problem: Problem,
    topology: &Topology,
    n: usize,
    policy: &AssignmentPolicy,
    mode: ComponentMode,
) -> usize {
    let trials = 3;
    let result = Sweep::on(problem, topology.clone(), vec![n])
        .with_policy(policy.clone())
        .with_trials(trials)
        .with_component_mode(mode)
        .run()
        .unwrap();
    let row = &result.rows[0];
    let mut columns: [Vec<f64>; 6] = Default::default();
    for trial in 0..trials {
        let mut graph = topology.build_for(n, mode).unwrap();
        policy.assignment_for_trial(trial).apply(&mut graph).unwrap();
        let profile = if mode == ComponentMode::PerComponent {
            problem.run_per_component(&graph, &ComponentLabels::of_graph(&graph))
        } else {
            problem.run(&graph)
        }
        .unwrap();
        let radii = profile.radii();
        let values = [
            profile.max() as f64,
            profile.average(),
            profile.total() as f64,
            brute_force_edge_averaged(&graph, radii, true),
            brute_force_edge_averaged(&graph, radii, false),
            brute_force_median(radii),
        ];
        for (column, value) in columns.iter_mut().zip(values) {
            column.push(value);
        }
    }
    let [worst, average, total, edge_max, edge_mean, median] =
        columns.map(|v| v.iter().sum::<f64>() / v.len() as f64);
    let at = format!("{problem} on {topology} n={n} {policy:?} {mode:?}");
    assert_eq!(row.worst_case, worst, "{at}");
    assert_eq!(row.average, average, "{at}");
    assert_eq!(row.total, total, "{at}");
    assert_eq!(row.edge_averaged, edge_max, "{at}");
    assert_eq!(row.edge_averaged_mean, edge_mean, "{at}");
    assert_eq!(row.median, median, "{at}");
    row.components
}

#[test]
fn sweep_measures_equal_brute_force_on_every_family() {
    // Every ball-view problem — the ones whose trials run on the frozen
    // snapshot alone — against per-trial `Problem::run(&graph)` folds.
    for problem in Problem::ALL.into_iter().filter(Problem::uses_ball_view) {
        for &n in &UNIVERSAL_SIZES {
            let topologies = if problem.requires_cycle() {
                vec![Topology::Cycle]
            } else {
                supported_topologies(n, 5)
            };
            for topology in &topologies {
                for policy in &policies(n) {
                    let mode = ComponentMode::RequireConnected;
                    let components =
                        assert_row_matches_brute_force(problem, topology, n, policy, mode);
                    assert_eq!(components, 1, "{problem} on {topology} n={n}");
                }
            }
        }
    }
    // Per-component mode on subcritical G(n, p), which falls apart.
    let n = 40;
    for problem in Problem::ALL.into_iter().filter(|p| p.uses_ball_view() && !p.requires_cycle()) {
        for seed in [2u64, 9] {
            let topology = Topology::Gnp { p: 1.0 / n as f64, seed };
            for policy in &policies(n) {
                let mode = ComponentMode::PerComponent;
                let components =
                    assert_row_matches_brute_force(problem, &topology, n, policy, mode);
                assert!(components > 1, "{topology} must be disconnected");
            }
        }
    }
}

#[test]
fn round_based_problems_report_edge_measures_too() {
    // The round-based pipeline (no frozen snapshot) clones and re-labels the
    // graph per trial, and the measure layer folds over the Graph edge list.
    for problem in Problem::ALL.into_iter().filter(|p| !p.uses_ball_view()) {
        for policy in &policies(24) {
            let mode = ComponentMode::RequireConnected;
            assert_row_matches_brute_force(problem, &Topology::Cycle, 24, policy, mode);
        }
    }
}

#[test]
fn study_measures_equal_brute_force() {
    // The random-permutation study (a one-size sweep under random ids, one
    // trial per sample) against per-sample folds of `run_on_topology` on
    // independently shuffled graphs, the worst case and the per-sample
    // summary E5 prints included.
    let n = 32;
    let samples = 5;
    let base_seed = 11;
    let result = Sweep::on(Problem::LargestId, Topology::Grid, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed })
        .with_trials(samples)
        .run()
        .unwrap();
    let row = &result.rows[0];
    let mut worst = Vec::new();
    let mut averages = Vec::new();
    let mut edge_max = Vec::new();
    let mut medians = Vec::new();
    for i in 0..samples {
        let assignment =
            IdAssignment::Shuffled { seed: avglocal::graph::derive_seed(base_seed, i as u64) };
        let graph = topology_with_assignment(&Topology::Grid, n, &assignment).unwrap();
        let profile = run_on_topology(Problem::LargestId, &Topology::Grid, n, &assignment).unwrap();
        worst.push(profile.max() as f64);
        averages.push(profile.average());
        edge_max.push(brute_force_edge_averaged(&graph, profile.radii(), true));
        medians.push(brute_force_median(profile.radii()));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert_eq!(row.worst_case, mean(&worst));
    assert_eq!(row.average_summary, Summary::from_values(&averages));
    assert_eq!(row.average, mean(&averages));
    assert_eq!(row.edge_averaged, mean(&edge_max));
    assert_eq!(row.median, mean(&medians));
}

#[test]
fn per_component_aggregates_recompose_from_the_components() {
    // Subcritical G(n, p): totals are additive over components, the worst
    // case is the max, and node/edge averages recompose from the
    // component-weighted sums.
    for seed in [2u64, 9, 21] {
        let n = 40;
        let topology = Topology::Gnp { p: 1.0 / n as f64, seed };
        let (profile, measures) = run_on_topology_per_component(
            Problem::LargestId,
            &topology,
            n,
            &IdAssignment::Shuffled { seed: 31 },
        )
        .unwrap();
        let agg = &measures.aggregate;
        assert_eq!(agg.nodes, n);
        let node_sum: usize = measures.per_component.iter().map(|m| m.nodes).sum();
        assert_eq!(node_sum, n);
        let total: f64 = measures.per_component.iter().map(|m| m.total).sum();
        assert_eq!(total, agg.total);
        let worst = measures.per_component.iter().map(|m| m.worst_case).fold(0.0, f64::max);
        assert_eq!(worst, agg.worst_case);
        let edge_sum: f64 =
            measures.per_component.iter().map(|m| m.edge_averaged * m.edges as f64).sum();
        if agg.edges > 0 {
            assert!((edge_sum / agg.edges as f64 - agg.edge_averaged).abs() < 1e-9);
        }
        // And the aggregate matches a direct recomputation on the labelled
        // instance.
        let mut graph = topology.build_for(n, ComponentMode::PerComponent).unwrap();
        IdAssignment::Shuffled { seed: 31 }.apply(&mut graph).unwrap();
        assert_eq!(agg.edge_averaged, brute_force_edge_averaged(&graph, profile.radii(), true));
        // Radii are scoped to components: no ball outgrows its component.
        let labels = ComponentLabels::of_graph(&graph);
        for v in graph.nodes() {
            let size = labels.sizes()[labels.label(v) as usize] as usize;
            assert!(profile.radius(v).unwrap() < size.max(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The regular-family sandwich: on cycles (2-regular) the edge-averaged
    /// (max-endpoint) measure is within [1, 2] x the node-averaged one, for
    /// every problem and identifier assignment.
    #[test]
    fn cycle_edge_average_is_sandwiched(n in 4usize..48, seed in 0u64..200) {
        let assignment = IdAssignment::Shuffled { seed };
        let graph = topology_with_assignment(&Topology::Cycle,n, &assignment).unwrap();
        let profile = run_on_topology(Problem::LargestId, &Topology::Cycle, n, &assignment).unwrap();
        let edge = brute_force_edge_averaged(&graph, profile.radii(), true);
        let node = profile.average();
        prop_assert!(edge >= node - 1e-12);
        prop_assert!(edge <= 2.0 * node + 1e-12);
    }

    /// An identity that needs no oracle. Under `LargestId` the smaller-id
    /// endpoint of an edge decides at radius 1 and the other at radius >= 1,
    /// so max(r_u, r_v) = r_u + r_v - 1 on every edge, and a row's max edge
    /// average is exactly 2 * (mean edge average) - 1.
    #[test]
    fn largest_id_edge_max_is_twice_edge_mean_minus_one(size in 0usize..3, seed in 0u64..200) {
        let n = UNIVERSAL_SIZES[size];
        let mut topologies = supported_topologies(n, seed);
        topologies.push(Topology::PreferentialAttachment { m: 2, seed });
        for topology in &topologies {
            for (assignment, policy) in [
                (IdAssignment::Identity, AssignmentPolicy::Fixed(IdAssignment::Identity)),
                (IdAssignment::Reversed, AssignmentPolicy::Fixed(IdAssignment::Reversed)),
                (IdAssignment::Shuffled { seed }, AssignmentPolicy::Random { base_seed: seed }),
            ] {
                let graph = topology_with_assignment(topology, n, &assignment).unwrap();
                let profile =
                    run_on_topology(Problem::LargestId, topology, n, &assignment).unwrap();
                for (u, v) in graph.edges() {
                    let (ru, rv) = (profile.radii()[u.index()], profile.radii()[v.index()]);
                    prop_assert_eq!(ru.max(rv) + 1, ru + rv, "{topology} {assignment:?} {u:?}");
                }
                let sweep = Sweep::on(Problem::LargestId, topology.clone(), vec![n]);
                let row = &sweep.with_policy(policy).with_trials(2).run().unwrap().rows[0];
                if graph.edge_count() > 0 {
                    let gap = row.edge_averaged - (2.0 * row.edge_averaged_mean - 1.0);
                    prop_assert!(gap.abs() <= 1e-12, "{topology} n={n} {assignment:?}: {row:?}");
                }
            }
        }
    }

    /// Per-component sweeps are deterministic: same configuration, same
    /// rows, bit for bit — the labelling, the trial seeds and the aggregate
    /// order are all canonical.
    #[test]
    fn per_component_sweeps_are_deterministic(seed in 0u64..100) {
        let n = 32;
        let sweep = |s: u64| {
            Sweep::on(Problem::LargestId, Topology::Gnp { p: 1.0 / 32.0, seed: s }, vec![n])
                .with_policy(AssignmentPolicy::Random { base_seed: 1 })
                .with_trials(2)
                .with_component_mode(ComponentMode::PerComponent)
                .run()
                .unwrap()
        };
        prop_assert_eq!(sweep(seed), sweep(seed));
    }
}
