//! Property tests for the batched, sharded query path of the radius-query
//! service.
//!
//! The central claim of `query_batch`: however the pool's participants
//! split the node set — on either CI thread leg — every completed batch
//! entry is **bit-identical** to a sequential single `query_with` of the
//! same node on the same pinned generation. On top of that, the
//! batch-specific contracts:
//! one admission slot per batch regardless of size, typed *partial* replies
//! when the shared deadline expires mid-batch, per-entry typed failures
//! that never disturb their neighbours, and the same `QueryOptions`
//! consistency semantics as single queries.

use std::sync::Arc;

use avglocal::graph::{generators, CsrGraph, GraphError, IdAssignment, NodeId};
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::{Knowledge, RuntimeError};
use avglocal::AggregateQueries;
use avglocal_service::{
    BatchOutcome, Consistency, QueryOptions, QueryRequest, RadiusQueryService, ServiceConfig,
    ServiceError, TestClock,
};
use proptest::prelude::*;

/// A cycle on `n` nodes with a shuffled identifier table, frozen.
fn shuffled_cycle(n: usize, seed: u64) -> CsrGraph {
    let mut graph = generators::cycle(n).expect("cycles are valid");
    IdAssignment::Shuffled { seed }.apply(&mut graph).expect("shuffles are permutations");
    graph.freeze()
}

fn service_on(csr: CsrGraph, config: ServiceConfig) -> RadiusQueryService<NaiveLargestId> {
    RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        csr,
        Arc::new(TestClock::new()),
        config,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `query_batch` replies are bit-identical to a loop of single
    /// `query_with` calls on the same pinned generation.
    #[test]
    fn batch_entries_are_bit_identical_to_single_queries(
        n in 8usize..64,
        seed in 0u64..500,
        batch_len in 1usize..80,
    ) {
        let service = service_on(shuffled_cycle(n, seed), ServiceConfig::default());

        // A scripted node list with duplicates and arbitrary order.
        let nodes: Vec<NodeId> =
            (0..batch_len).map(|q| NodeId::new((q * 7 + seed as usize) % n)).collect();
        let reply = service
            .query_batch(&QueryRequest::nodes(nodes.clone(), QueryOptions::new()))
            .expect("unlimited-budget batches admit");

        prop_assert_eq!(reply.len(), nodes.len());
        prop_assert!(reply.is_complete(), "no deadline, no faults: every entry completes");
        prop_assert_eq!(reply.epoch(), 1);
        for (slot, node) in reply.outcomes().iter().zip(&nodes) {
            let single =
                service.query_with(*node, QueryOptions::new()).expect("single queries complete");
            match slot {
                BatchOutcome::Completed { output, radius } => {
                    prop_assert_eq!(output, &single.output, "{:?}", node);
                    prop_assert_eq!(*radius, single.radius, "{:?}", node);
                }
                other => prop_assert!(false, "expected completion, got {:?}", other),
            }
        }
    }

    /// A whole batch costs exactly one admission slot: a service whose
    /// bound would shed the same nodes as individual concurrent queries
    /// admits them as one batch, and the admission counters say so.
    #[test]
    fn a_batch_holds_one_admission_slot(n in 8usize..48, seed in 0u64..200) {
        let config = ServiceConfig { max_in_flight: 1 };
        let service = service_on(shuffled_cycle(n, seed), config);
        let reply = service
            .query_batch(&QueryRequest::all(QueryOptions::new()))
            .expect("one batch fits the single slot");
        prop_assert_eq!(reply.len(), n);
        prop_assert!(reply.is_complete());
        let stats = service.stats();
        prop_assert_eq!(stats.admitted, 1, "one slot for the whole batch");
        prop_assert_eq!(stats.batches, 1);
        prop_assert_eq!(stats.batch_entries, n as u64);
        prop_assert_eq!(stats.shed, 0);
    }

    /// An expired shared deadline yields a typed **partial** reply: with a
    /// zero budget on an autoticking clock every entry is cancelled at
    /// radius 0, deterministically.
    #[test]
    fn expired_batch_deadline_is_a_typed_partial_reply(
        n in 8usize..48,
        seed in 0u64..200,
    ) {
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            shuffled_cycle(n, seed),
            Arc::new(TestClock::with_autotick(1)),
            ServiceConfig::default(),
        );
        let reply = service
            .query_batch(&QueryRequest::all(QueryOptions::new().with_deadline(0)))
            .expect("an expired deadline is a partial reply, not an admission failure");
        prop_assert_eq!(reply.expired(), n);
        prop_assert_eq!(reply.completed(), 0);
        for outcome in reply.outcomes() {
            prop_assert!(
                matches!(outcome, BatchOutcome::Expired { radius: 0 }),
                "zero budget cancels before any growth, got {:?}", outcome
            );
        }
        // Folding the partial vector reports the same typed error a single
        // query would.
        prop_assert!(matches!(
            reply.radii(),
            Err(ServiceError::DeadlineExceeded { budget: 0, radius: 0 })
        ));
        prop_assert_eq!(service.stats().deadline_expired, n as u64);

        // A generous budget completes the identical request.
        let full = service
            .query_batch(&QueryRequest::all(QueryOptions::new()))
            .expect("unlimited-budget batches admit");
        prop_assert!(full.is_complete());
    }

    /// The aggregate endpoints agree with folding the sequential per-node
    /// answers by hand, on the same pinned generation.
    #[test]
    fn aggregates_fold_exactly_the_single_query_radii(n in 8usize..48, seed in 0u64..200) {
        let service = service_on(shuffled_cycle(n, seed), ServiceConfig::default());
        let radii: Vec<usize> = (0..n)
            .map(|v| {
                let reply = service.query_with(NodeId::new(v), QueryOptions::new());
                reply.expect("single queries complete").radius
            })
            .collect();

        let cdf = service.query_cdf(QueryOptions::new()).expect("aggregates admit");
        prop_assert_eq!(cdf.epoch, 1);
        prop_assert_eq!(&cdf.cdf, &avglocal::RadiusCdf::from_radii(&radii));

        let quantile = service.query_quantile(990, QueryOptions::new()).expect("aggregates admit");
        prop_assert_eq!(quantile.radius, cdf.cdf.quantile(990));

        let measures = service.query_measures(QueryOptions::new()).expect("aggregates admit");
        let profile = avglocal::RadiusProfile::new(radii);
        prop_assert_eq!(
            measures.measures,
            avglocal::MeasureSet::of_csr(&profile, service.pin().session().csr())
        );
    }
}

#[test]
fn out_of_bounds_entries_fail_typed_without_disturbing_neighbours() {
    let service = service_on(shuffled_cycle(12, 3), ServiceConfig::default());
    let nodes = vec![NodeId::new(2), NodeId::new(12), NodeId::new(5)];
    let reply = service.query_batch(&QueryRequest::nodes(nodes, QueryOptions::new())).unwrap();
    assert_eq!(reply.completed(), 2);
    assert!(matches!(
        &reply.outcomes()[1],
        BatchOutcome::Failed(RuntimeError::Graph(GraphError::NodeOutOfBounds {
            node_count: 12,
            ..
        }))
    ));
    assert!(reply.outcomes()[0].is_completed());
    assert!(reply.outcomes()[2].is_completed());
    // radii() surfaces the first failure in node order as the typed probe
    // error a single query would report.
    assert!(matches!(reply.radii(), Err(ServiceError::Probe(_))));
}

#[test]
fn batches_pin_one_epoch_and_latest_consistency_tracks_swaps() {
    let service = service_on(shuffled_cycle(24, 9), ServiceConfig::default());
    let before =
        service.query_batch(&QueryRequest::all(QueryOptions::new())).expect("batches admit");
    assert_eq!(before.epoch(), 1);

    service.publish_csr(shuffled_cycle(24, 10)).expect("valid candidates publish");

    // A pinned batch serves from the new current generation...
    let pinned =
        service.query_batch(&QueryRequest::all(QueryOptions::new())).expect("batches admit");
    assert_eq!(pinned.epoch(), 2);
    // ...and so does a latest-consistency batch (no concurrent swaps here,
    // so the first attempt is already current).
    let latest = service
        .query_batch(&QueryRequest::all(
            QueryOptions::new().with_consistency(Consistency::Latest { retry_limit: 2 }),
        ))
        .expect("batches admit");
    assert_eq!(latest.epoch(), 2);
    assert!(latest.is_complete());

    // The reply that pinned epoch 1 still folds against its own snapshot.
    assert_eq!(before.generation().epoch(), 1);
    assert_eq!(before.generation().node_count(), 24);
}
