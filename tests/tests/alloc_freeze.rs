//! Pins that freezing a graph and decoding a snapshot do no per-component
//! work: a snapshot holds only adjacency and identifiers, so one long cycle
//! and many short ones with the same node and edge counts cost the same
//! number of allocations. A component labelling built at freeze or decode
//! time would grow its size table once per component.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use avglocal::graph::CsrGraph;
use avglocal::prelude::*;
use avglocal_integration_tests::alloc_count::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `copies` disjoint cycles of `len` nodes each, numbered consecutively.
fn disjoint_cycles(copies: usize, len: usize) -> Graph {
    let mut graph = Graph::with_capacity(copies * len);
    let nodes = graph.add_nodes_with_default_ids(copies * len);
    for c in 0..copies {
        for i in 0..len {
            graph.add_edge(nodes[c * len + i], nodes[c * len + (i + 1) % len]).unwrap();
        }
    }
    graph
}

/// Allocations made by `graph.freeze()` and by decoding its encoding.
fn freeze_and_decode_allocations(graph: &Graph) -> (u64, u64) {
    let before = allocations();
    let csr = graph.freeze();
    let freeze = allocations() - before;
    let bytes = csr.to_bytes();
    let before = allocations();
    let decoded = CsrGraph::from_bytes(&bytes).expect("own snapshots decode cleanly");
    let decode = allocations() - before;
    assert_eq!(decoded, csr);
    (freeze, decode)
}

#[test]
fn freeze_and_decode_allocate_the_same_for_one_component_or_many() {
    // n = m = 4096 for both: one 4096-cycle, and 1,024 disjoint 4-cycles.
    let one = disjoint_cycles(1, 4096);
    let many = disjoint_cycles(1024, 4);
    assert_eq!((one.node_count(), one.edge_count()), (many.node_count(), many.edge_count()));
    assert_eq!(freeze_and_decode_allocations(&one), freeze_and_decode_allocations(&many));
}
