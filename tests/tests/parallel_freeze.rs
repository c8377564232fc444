//! `Graph::freeze` against the graph it freezes.
//!
//! A snapshot must reproduce its source exactly: node and edge counts, every
//! neighbour list in port order and the identifier table. Every frozen
//! graph's encoding must also decode to the same snapshot, through the
//! checks untrusted snapshots go through. Snapshots carry no component
//! labelling; the one the per-component runs compute from the graph must
//! equal the BFS-based `traversal::connected_components` partition
//! (components numbered by smallest member).

use avglocal::graph::csr::CsrGraph;
use avglocal::graph::{traversal, ComponentLabels, ComponentMode};
use avglocal::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes for which every deterministic family (including the torus) has an
/// instance.
const UNIVERSAL_SIZES: [usize; 3] = [9, 16, 24];

fn assert_freeze_agreement(graph: &Graph) {
    let csr = graph.freeze();
    assert_eq!(csr.node_count(), graph.node_count());
    assert_eq!(csr.edge_count(), graph.edge_count());
    for v in graph.nodes() {
        let expected: Vec<u32> = graph.neighbors(v).iter().map(|u| u.index() as u32).collect();
        assert_eq!(csr.neighbors(v.index() as u32), expected.as_slice(), "node {v}");
        assert_eq!(csr.identifier(v.index() as u32), graph.identifier(v));
    }
    assert_eq!(CsrGraph::from_bytes(&csr.to_bytes()), Ok(csr.clone()));
    // The component labelling matches the BFS ground truth: same partition,
    // components numbered by smallest member.
    let expected = traversal::connected_components(graph);
    let labels = ComponentLabels::of_graph(graph);
    assert_eq!(labels.count(), expected.len());
    for (c, nodes) in expected.iter().enumerate() {
        assert_eq!(labels.sizes()[c] as usize, nodes.len());
        for &v in nodes {
            assert_eq!(labels.label(v), c as u32);
        }
    }
    assert_eq!(labels.is_connected(), traversal::is_connected(graph));
}

#[test]
fn freeze_agrees_on_every_topology_family() {
    for &n in &UNIVERSAL_SIZES {
        for topology in Topology::DETERMINISTIC {
            assert_freeze_agreement(&topology.build(n).unwrap());
        }
        assert_freeze_agreement(&Topology::gnp_connected(n, 7).build(n).unwrap());
    }
}

#[test]
fn freeze_agrees_on_disconnected_instances() {
    // Subcritical G(n, p) instances in per-component mode are the graphs the
    // component labelling exists for.
    for seed in 0..8u64 {
        let n = 48;
        let topology = Topology::Gnp { p: 0.6 / n as f64, seed };
        let graph = topology.build_for(n, ComponentMode::PerComponent).unwrap();
        assert_freeze_agreement(&graph);
    }
    // The degenerate extremes: no edges at all, and the empty graph.
    assert_freeze_agreement(&Topology::Gnp { p: 0.0, seed: 1 }.build_unchecked(16).unwrap());
    assert_freeze_agreement(&Graph::new());
}

#[test]
fn freeze_agrees_on_large_instances_past_the_parallel_cutoff() {
    // 2^13 nodes: the size from which `Graph::freeze` used to switch to a
    // separate parallel build.
    let n = 1 << 13;
    for topology in [Topology::Cycle, Topology::Grid] {
        assert_freeze_agreement(&topology.build(n).unwrap());
    }
}

#[test]
fn frozen_components_feed_the_executors_unchanged() {
    // A session over the snapshot of a disconnected graph, verified against
    // the graph's labelling, reports the profile of the per-component run:
    // one winner per component.
    let graph = Topology::Gnp { p: 0.02, seed: 3 }.build_unchecked(40).unwrap();
    let labels = ComponentLabels::of_graph(&graph);
    assert!(labels.count() > 1);
    let session = FrozenExecutor::from_csr(graph.freeze());
    let on_session = Problem::LargestId.run_on_session(&session, Some(&labels)).unwrap();
    assert_eq!(on_session, Problem::LargestId.run_per_component(&graph, &labels).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random multigraph-free edge sets: the snapshot matches its source on
    /// arbitrary (often disconnected) graphs.
    #[test]
    fn freeze_agrees_on_random_graphs(n in 1usize..64, extra in 0usize..96, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = Graph::new();
        for i in 0..n {
            graph.add_node(Identifier::new(i as u64));
        }
        for _ in 0..extra {
            let u = NodeId::new(rng.gen_range(0..n));
            let v = NodeId::new(rng.gen_range(0..n));
            if u != v && !graph.contains_edge(u, v) {
                graph.add_edge(u, v).unwrap();
            }
        }
        assert_freeze_agreement(&graph);
    }
}
