//! Statistical correctness of the sampling estimators.
//!
//! Three properties on families small enough for exact sweeps:
//!
//! 1. **Census degeneration** — a sample plan whose budget covers the whole
//!    population reproduces the exact `MeasureSet` values **bit-identically**
//!    (same arithmetic, same order), with zero half-width.
//! 2. **Coverage** — the reported 95% confidence intervals cover the exact
//!    value at the nominal rate over ≥ 200 seeded replications. The assert
//!    is tolerance-banded (`coverage ≥ 0.90`, about 3σ below nominal for
//!    200 draws), never a flaky point check.
//! 3. **Design efficiency** — stratified-by-degree sampling beats uniform
//!    sampling on mean-squared error on hub families at equal budget (the
//!    reason the stratified plan exists).
//!
//! Plus the determinism leg: same `(seed, plan)` → bit-identical sample set
//! and estimate across WorkStealing/Sequential (and both CI thread legs,
//! which run this whole suite); disjoint seeds → disjoint sample streams.

use std::sync::Arc;

use avglocal::algorithms::{KnowTheLeader, LargestId};
use avglocal::prelude::*;
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::{BallAlgorithm, FrozenExecutor, NodeBatchOptions, Scheduling};
use avglocal::sampling::SampleQueries;
use avglocal::service::{QueryOptions, RadiusQueryService, ServiceConfig, TestClock};
use avglocal::{hub_adversarial_assignment, SamplePlan};
use proptest::prelude::*;

/// Exact per-node radii of `algo` on `csr`, from the sequential reference
/// executor (the determinism anchor of the repo).
fn exact_radii<A>(csr: &avglocal::graph::CsrGraph, algo: &A) -> Vec<usize>
where
    A: BallAlgorithm + Sync,
    A::Output: Send,
{
    let run = FrozenExecutor::from_csr(csr.clone())
        .with_scheduling(Scheduling::Sequential)
        .run(algo, Knowledge::none())
        .unwrap();
    (0..csr.node_count()).map(|v| run.radius(NodeId::new(v))).collect()
}

fn exact_measures(csr: &avglocal::graph::CsrGraph, radii: &[usize]) -> MeasureSet {
    MeasureSet::of_csr(&RadiusProfile::new(radii.to_vec()), csr)
}

/// A shuffled ring and a hub-adversarial preferential-attachment family —
/// one regular, one heavy-tailed — both connected.
fn census_families() -> Vec<avglocal::graph::CsrGraph> {
    let mut ring = generators::cycle(96).unwrap();
    IdAssignment::Shuffled { seed: 11 }.apply(&mut ring).unwrap();

    let mut hub = Topology::PreferentialAttachment { m: 1, seed: 13 }.build(96).unwrap();
    let adversarial = hub_adversarial_assignment(&hub).unwrap();
    adversarial.apply(&mut hub).unwrap();

    vec![ring.freeze(), hub.freeze()]
}

#[test]
fn full_population_plans_reproduce_measure_set_bit_identically() {
    for csr in census_families() {
        let n = csr.node_count();
        let m = csr.edge_count();
        let radii = exact_radii(&csr, &LargestId);
        let exact = exact_measures(&csr, &radii);

        for seed in [0u64, 7, 991] {
            let uniform = SamplePlan::Uniform { budget: n }.draw(&csr, seed);
            assert!(uniform.is_census());
            let est = uniform.estimate_against(&radii);
            let node = est.node_averaged.unwrap();
            assert_eq!(node.value, exact.node_averaged, "uniform census, seed {seed}");
            assert_eq!(node.half_width_95, 0.0);
            assert_eq!(est.median().unwrap(), exact.median);
            for per_mille in [0, 100, 500, 900, 990, 1000] {
                assert_eq!(est.quantile(per_mille).unwrap(), exact.cdf.quantile(per_mille));
            }

            let strata = SamplePlan::StratifiedByDegree { budget: n }.draw(&csr, seed);
            assert!(strata.is_census());
            let est = strata.estimate_against(&radii);
            assert_eq!(est.node_averaged.unwrap().value, exact.node_averaged);
            assert_eq!(est.node_averaged.unwrap().half_width_95, 0.0);
            assert_eq!(est.median().unwrap(), exact.median);

            let edges = SamplePlan::EdgeEndpoint { budget: 2 * m }.draw(&csr, seed);
            assert!(edges.is_census());
            let est = edges.estimate_against(&radii);
            assert_eq!(est.edge_averaged.unwrap().value, exact.edge_averaged);
            assert_eq!(est.edge_averaged_mean.unwrap().value, exact.edge_averaged_mean);
            assert_eq!(est.edge_averaged.unwrap().half_width_95, 0.0);
            assert!(est.node_averaged.is_none(), "edge plans must not fake node measures");
        }
    }
}

/// Coverage is measured under `KnowTheLeader`, whose radius profile (the
/// distance at which the leader's identifier enters a node's ball) spreads
/// over many distinct values, so the t-interval premise behind the reported
/// CI actually holds. `LargestId` radii on these families are discrete with
/// rare extreme outliers: most 10% samples see zero in-sample variance and
/// report a zero-width interval, which no honest CI can rescue — that regime
/// is exercised by the MSE test below instead.
fn hub_family(n: usize) -> avglocal::graph::CsrGraph {
    let mut hub = Topology::PreferentialAttachment { m: 1, seed: 13 }.build(n).unwrap();
    let adversarial = hub_adversarial_assignment(&hub).unwrap();
    adversarial.apply(&mut hub).unwrap();
    hub.freeze()
}

/// Coverage of the node-averaged CI at 10% budget — the acceptance criterion
/// of the sampling layer: ≥ 90% of 200 seeded replications must cover the
/// exact value. A shuffled grid gives leader distances spread over a wide
/// range (the ring is degenerate under `KnowTheLeader`: every radius equals
/// half the cycle, which would make coverage trivially 1).
#[test]
fn uniform_ci_covers_the_exact_node_average_at_nominal_rate() {
    let mut grid = Topology::Grid.build(484).unwrap();
    IdAssignment::Shuffled { seed: 5 }.apply(&mut grid).unwrap();
    let csr = grid.freeze();
    let radii = exact_radii(&csr, &KnowTheLeader);
    let exact = exact_measures(&csr, &radii).node_averaged;

    let plan = SamplePlan::Uniform { budget: 48 }; // ~10% of 484
    let replications = 200;
    let mut covered = 0usize;
    for rep in 0..replications {
        let sample = plan.draw(&csr, plan.seed_for(42, rep));
        let estimate = sample.estimate_against(&radii).node_averaged.unwrap();
        assert!(estimate.half_width_95.is_finite() && estimate.half_width_95 > 0.0);
        if estimate.covers(exact) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / replications as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "95% CI coverage over {replications} replications was {coverage}"
    );
}

/// Same banded-coverage property for the edge-endpoint design and the
/// edge-averaged (max-endpoint) measure, on the hub family where edge
/// endpoints are the natural frame.
#[test]
fn edge_endpoint_ci_covers_the_exact_edge_average_at_nominal_rate() {
    let csr = hub_family(512);
    let radii = exact_radii(&csr, &KnowTheLeader);
    let exact = exact_measures(&csr, &radii).edge_averaged;

    let plan = SamplePlan::EdgeEndpoint { budget: 102 }; // ~51 edges
    let replications = 200;
    let mut covered = 0usize;
    for rep in 0..replications {
        let sample = plan.draw(&csr, plan.seed_for(42, rep));
        let estimate = sample.estimate_against(&radii).edge_averaged.unwrap();
        if estimate.covers(exact) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / replications as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "95% CI coverage over {replications} replications was {coverage}"
    );
}

/// Stratified-by-degree coverage on the hub family it exists for.
#[test]
fn stratified_ci_covers_the_exact_node_average_on_hub_families() {
    let csr = hub_family(512);
    let radii = exact_radii(&csr, &KnowTheLeader);
    let exact = exact_measures(&csr, &radii).node_averaged;

    let plan = SamplePlan::StratifiedByDegree { budget: 51 };
    let replications = 200;
    let mut covered = 0usize;
    for rep in 0..replications {
        let sample = plan.draw(&csr, plan.seed_for(42, rep));
        let estimate = sample.estimate_against(&radii).node_averaged.unwrap();
        if estimate.covers(exact) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / replications as f64;
    assert!(
        (0.90..=1.0).contains(&coverage),
        "95% CI coverage over {replications} replications was {coverage}"
    );
}

/// The reason the stratified plan exists: on a hub family, the heavy-degree
/// tail is a vanishing fraction of nodes but carries extreme radii, so a
/// uniform sample that misses it is far off while stratification always
/// represents it. At equal budget, stratified must win on MSE.
#[test]
fn stratified_beats_uniform_on_mse_for_hub_families() {
    let csr = hub_family(256);
    let radii = exact_radii(&csr, &LargestId);
    let exact = exact_measures(&csr, &radii).node_averaged;

    let budget = 32;
    let replications = 200;
    let mse = |plan: SamplePlan| {
        let mut sum = 0.0;
        for rep in 0..replications {
            let sample = plan.draw(&csr, plan.seed_for(45, rep));
            let err = sample.estimate_against(&radii).node_averaged.unwrap().value - exact;
            sum += err * err;
        }
        sum / replications as f64
    };
    let uniform = mse(SamplePlan::Uniform { budget });
    let stratified = mse(SamplePlan::StratifiedByDegree { budget });
    assert!(
        stratified < uniform,
        "stratified MSE {stratified} must beat uniform MSE {uniform} at budget {budget}"
    );
}

/// `query_sample` rides the batched service path: the draw and every probe
/// come from one pinned generation, and the estimate is bit-identical to
/// estimating offline against the sequential reference radii.
#[test]
fn service_query_sample_pins_one_generation_and_matches_offline_estimation() {
    let mut ring = generators::cycle(128).unwrap();
    IdAssignment::Shuffled { seed: 21 }.apply(&mut ring).unwrap();
    let csr = ring.freeze();
    let service = RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        csr.clone(),
        Arc::new(TestClock::new()),
        ServiceConfig::default(),
    );
    let plan = SamplePlan::Uniform { budget: 32 };
    let seed = plan.seed_for(9, 0);
    let reply = service.query_sample(plan, seed, QueryOptions::new()).unwrap();
    assert_eq!(reply.epoch, 1);

    let radii = exact_radii(&csr, &LargestId);
    let offline = plan.draw(&csr, seed).estimate_against(&radii);
    assert_eq!(reply.measures, offline, "service estimate must equal the offline one bitwise");

    // A publish after the call does not disturb a fresh call's pinned draw.
    service.publish_csr(generators::cycle(128).unwrap().freeze()).unwrap();
    let second = service.query_sample(plan, seed, QueryOptions::new()).unwrap();
    assert_eq!(second.epoch, 2, "the sample must be drawn from the newly pinned generation");
}

/// Same (seed, plan) → bit-identical sample set and estimate across both
/// schedulings; the CI thread matrix runs this under 1 and 4 threads.
#[test]
fn estimates_are_bit_identical_across_schedulings() {
    for csr in census_families() {
        let n = csr.node_count();
        for plan in [
            SamplePlan::Uniform { budget: n / 4 },
            SamplePlan::EdgeEndpoint { budget: n / 4 },
            SamplePlan::StratifiedByDegree { budget: n / 4 },
        ] {
            let sample = plan.draw(&csr, plan.seed_for(3, 0));
            let mut estimates = Vec::new();
            for scheduling in [Scheduling::WorkStealing, Scheduling::Sequential] {
                let session = FrozenExecutor::from_csr(csr.clone()).with_scheduling(scheduling);
                let radii = Problem::LargestId
                    .probe_radii(&session, sample.nodes(), &NodeBatchOptions::new())
                    .unwrap();
                estimates.push(sample.estimate(&radii));
            }
            assert_eq!(estimates[0], estimates[1], "{plan:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Drawing is a pure function of (plan, graph, seed): two draws agree
    /// bit for bit, and probing the drawn set under either scheduling gives
    /// the same estimate.
    #[test]
    fn sampled_estimates_are_deterministic(
        k in 8usize..32,
        seed in 0u64..1000,
        base in 0u64..1000,
        kind in 0usize..3,
    ) {
        let n = k * 4;
        let mut graph = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut graph).unwrap();
        let csr = graph.freeze();
        let plan = match kind {
            0 => SamplePlan::Uniform { budget: k },
            1 => SamplePlan::EdgeEndpoint { budget: k },
            _ => SamplePlan::StratifiedByDegree { budget: k },
        };
        let stream = plan.seed_for(base, 0);
        let first = plan.draw(&csr, stream);
        let second = plan.draw(&csr, stream);
        prop_assert_eq!(&first, &second);

        let session = FrozenExecutor::from_csr(csr);
        let stealing = Problem::LargestId
            .probe_radii(&session, first.nodes(), &NodeBatchOptions::new())
            .unwrap();
        let session = session.with_scheduling(Scheduling::Sequential);
        let sequential = Problem::LargestId
            .probe_radii(&session, first.nodes(), &NodeBatchOptions::new())
            .unwrap();
        prop_assert_eq!(&stealing, &sequential);
        prop_assert_eq!(first.estimate(&stealing), second.estimate(&sequential));
    }

    /// Disjoint base seeds derive disjoint sample streams: different stream
    /// seeds, and (for strict subsets of a non-trivial population) different
    /// sampled node sets.
    #[test]
    fn disjoint_seeds_draw_disjoint_streams(
        base in 0u64..10_000,
        trial in 0usize..16,
        kind in 0usize..3,
    ) {
        let plan = match kind {
            0 => SamplePlan::Uniform { budget: 8 },
            1 => SamplePlan::EdgeEndpoint { budget: 8 },
            _ => SamplePlan::StratifiedByDegree { budget: 8 },
        };
        prop_assert_ne!(plan.seed_for(base, trial), plan.seed_for(base + 1, trial));
        prop_assert_ne!(plan.seed_for(base, trial), plan.seed_for(base, trial + 1));

        let graph = generators::cycle(96).unwrap();
        let csr = graph.freeze();
        let a = plan.draw(&csr, plan.seed_for(base, trial));
        let b = plan.draw(&csr, plan.seed_for(base + 1, trial));
        // 8 nodes out of 96: a collision of the whole set is ~1e-12 per
        // case, so inequality is a sound deterministic assertion for the
        // seeds proptest enumerates here.
        prop_assert_ne!(a.nodes(), b.nodes());
    }
}
