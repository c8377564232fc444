//! Pins that building and cloning the graphs sweeps build in bulk allocates
//! per table, not per node. Every node of a cycle, path, grid, torus or
//! complete binary tree has degree at most 4, so its neighbour list sits
//! inline in the node's slot: a build costs the same 2 allocations (the
//! adjacency and identifier tables) at any size, and a clone one per table.
//! A `Vec` per neighbour list would cost n more of each.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use avglocal::prelude::*;
use avglocal_integration_tests::alloc_count::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by `topology.build(n)` and by cloning its graph.
fn build_and_clone_allocations(topology: &Topology, n: usize) -> (u64, u64) {
    let before = allocations();
    let graph = topology.build(n).expect("the bulk families build at these sizes");
    let build = allocations() - before;
    let before = allocations();
    let copy = graph.clone();
    let clone = allocations() - before;
    assert_eq!(graph.node_count(), n);
    assert_eq!(copy, graph);
    (build, clone)
}

#[test]
fn building_a_bulk_family_allocates_per_table_not_per_node() {
    let families = [
        (Topology::Cycle, [1024, 4096]),
        (Topology::Path, [1024, 4096]),
        (Topology::Grid, [1024, 4096]),
        (Topology::Torus, [1024, 4096]),
        (Topology::CompleteBinaryTree, [1023, 4095]),
    ];
    for (topology, sizes) in families {
        let [small, large] = sizes.map(|n| build_and_clone_allocations(&topology, n));
        assert_eq!(
            small.0, large.0,
            "{topology:?}: building allocated {} times at n = {} but {} times at n = {}",
            small.0, sizes[0], large.0, sizes[1]
        );
        for (n, (_, clone)) in sizes.into_iter().zip([small, large]) {
            assert!(clone <= 2, "{topology:?}: cloning the {n}-node graph allocated {clone} times");
        }
    }
}
