//! Pins that publishing a prebuilt snapshot and assigning identifiers to a
//! graph do no per-node work on the heap. A snapshot is valid by
//! construction, so publishing one allocates only the new generation, the
//! same at every size; re-checking its adjacency would allocate scratch in
//! proportion to `n + m`. An assignment's table is a permutation by
//! construction and is written straight into the graph; building it apart,
//! or sorting a copy to look for duplicates, would allocate `n` identifiers.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use std::sync::Arc;

use avglocal::graph::{generators, IdAssignment};
use avglocal::runtime::examples::NaiveLargestId;
use avglocal::runtime::Knowledge;
use avglocal_integration_tests::alloc_count::{allocated_bytes, allocations, CountingAllocator};
use avglocal_service::{RadiusQueryService, ServiceConfig, TestClock};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and requested bytes of `work`.
fn allocations_of(work: impl FnOnce()) -> (u64, u64) {
    let before = (allocations(), allocated_bytes());
    work();
    (allocations() - before.0, allocated_bytes() - before.1)
}

/// Allocations and requested bytes of publishing a prebuilt snapshot of the
/// `n`-cycle, cloned before the measured window as a publisher holding
/// prebuilt snapshots would.
fn publish_allocations(n: usize) -> (u64, u64) {
    let snapshot = generators::cycle(n).expect("a cycle of at least 3 nodes").freeze();
    let service = RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        snapshot.clone(),
        Arc::new(TestClock::new()),
        ServiceConfig::default(),
    );
    let candidate = snapshot.clone();
    allocations_of(|| {
        let epoch = service.publish_csr(candidate).expect("a frozen snapshot publishes");
        assert_eq!(epoch, 2);
    })
}

#[test]
fn publishing_and_assigning_allocate_nothing_per_node() {
    let small = publish_allocations(4096);
    let large = publish_allocations(65_536);
    assert_eq!(
        small, large,
        "publishing made {small:?} (allocations, bytes) at n = 4096 but {large:?} at n = 65536"
    );

    let mut cycle = generators::cycle(65_536).expect("a cycle of at least 3 nodes");
    let assign = allocations_of(|| {
        IdAssignment::Shuffled { seed: 7 }.apply(&mut cycle).expect("a shuffle fits any graph");
    });
    assert_eq!(assign, (0, 0), "a shuffled assignment of the 65536-cycle allocated {assign:?}");
}
