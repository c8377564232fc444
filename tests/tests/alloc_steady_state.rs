//! Verifies the acceptance criterion that the incremental [`BallGrower`]
//! performs **no heap allocation in the steady state**: once its scratch
//! buffers have warmed up on one full-component growth, re-centring and
//! re-growing (the per-node probe loop of the executor) must not allocate.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use avglocal::algorithms::{KnowTheLeader, LargestId};
use avglocal::graph::BallGrower;
use avglocal::prelude::*;
use avglocal::runtime::{BallAlgorithm, Knowledge, LocalView};
use avglocal_integration_tests::alloc_count::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Warms a grower on `graph` with one full growth from node 0, which sizes
/// every scratch buffer to its maximum (node 0 has the largest eccentricity
/// on both instances), then asserts that the exact probe loop the executor
/// drives per node — reset, consult the algorithm on the lazy view at each
/// radius, grow — allocates nothing over every centre.
fn assert_probe_loop_does_not_allocate<A: BallAlgorithm>(graph: &Graph, algorithm: &A) {
    let csr = graph.freeze();
    let n = csr.node_count();
    let knowledge = Knowledge::none();
    let mut grower = BallGrower::new(&csr, NodeId::new(0));
    while !grower.is_saturated() {
        grower.grow();
    }

    let before = allocations();
    let mut decisions = 0usize;
    for center in 0..n {
        grower.reset(NodeId::new(center));
        loop {
            let view = LocalView::from_grower(&grower);
            if algorithm.decide(&view, &knowledge).is_some() {
                decisions += 1;
                break;
            }
            assert!(!view.is_saturated(), "both algorithms decide on a saturated view");
            grower.grow();
        }
    }
    let allocations = allocations() - before;

    assert_eq!(decisions, n);
    assert_eq!(
        allocations,
        0,
        "the incremental probe loop of {} must not allocate in the steady state \
         ({allocations} allocations over {n} nodes)",
        std::any::type_name::<A>()
    );
}

#[test]
fn grower_steady_state_does_not_allocate() {
    // Largest-ID on a 512-cycle: most probes stop long before saturation.
    let cycle = topology_with_assignment(&Topology::Cycle, 512, &IdAssignment::Identity)
        .expect("a 512-cycle is a valid instance");
    assert_probe_loop_does_not_allocate(&cycle, &LargestId);
    // Know-the-leader on a 16x16 grid: every probe saturates, so `members`
    // reaches n and the identifier fold covers the whole ball.
    let grid = topology_with_assignment(&Topology::Grid, 256, &IdAssignment::Identity)
        .expect("a 16x16 grid is a valid instance");
    assert_probe_loop_does_not_allocate(&grid, &KnowTheLeader);
}
