//! Cycles, paths and ring lattices — the one-dimensional topologies the paper
//! analyses.

use crate::error::{GraphError, Result};
use crate::{Graph, NodeId};

/// The cycle (ring) `C_n` on `n >= 3` nodes.
///
/// Node `i` is adjacent to nodes `i-1` and `i+1` modulo `n`, and carries the
/// default identifier `i`. This is the topology of both Section 2 (largest ID)
/// and Section 3 (3-colouring) of the paper.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `n < 3`.
pub fn cycle(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("a cycle needs at least 3 nodes, got {n}"),
        });
    }
    let mut g = Graph::with_default_nodes(n);
    for i in 0..n {
        g.push_edge(i, (i + 1) % n);
    }
    Ok(g)
}

/// The path `P_n` on `n >= 1` nodes.
///
/// The paper's analysis of the largest-ID algorithm decomposes the cycle into
/// a path (the "segment" left once the maximum is removed), so paths are a
/// first-class workload.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `n == 0`.
pub fn path(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: "a path needs at least 1 node".to_string(),
        });
    }
    let mut g = Graph::with_default_nodes(n);
    for i in 1..n {
        g.push_edge(i - 1, i);
    }
    Ok(g)
}

/// The ring lattice `C_n^{k}`: each node is connected to its `k` nearest
/// neighbours (`k/2` on each side). `k` must be even, `2 <= k < n`.
///
/// A ring lattice with `k = 2` is the plain cycle. Larger `k` models denser
/// one-dimensional networks where information travels `k/2` hops per round.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `k` is odd, zero, or
/// at least `n`, or when `n < 3`.
pub fn ring_lattice(n: usize, k: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("a ring lattice needs at least 3 nodes, got {n}"),
        });
    }
    if k == 0 || !k.is_multiple_of(2) || k >= n {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("ring lattice degree k must be even and in [2, n), got k={k}, n={n}"),
        });
    }
    let mut g = Graph::with_capacity(n);
    let nodes = g.add_nodes_with_default_ids(n);
    for i in 0..n {
        for step in 1..=(k / 2) {
            let j = (i + step) % n;
            // Each edge is added once, from the smaller offset side.
            if !g.contains_edge(nodes[i], nodes[j]) {
                g.add_edge(nodes[i], nodes[j])?;
            }
        }
    }
    Ok(g)
}

/// Returns the two neighbours of `v` on a cycle generated by [`cycle`], in
/// (clockwise, counter-clockwise) order of the generator's construction.
///
/// This is a convenience for tests and cycle-specific algorithms; it simply
/// reads the port order of the generator.
///
/// # Panics
///
/// Panics if `v` does not have exactly two neighbours.
#[must_use]
pub fn cycle_neighbors(graph: &Graph, v: NodeId) -> (NodeId, NodeId) {
    let nbrs = graph.neighbors(v);
    assert!(nbrs.len() == 2, "cycle_neighbors requires a degree-2 node");
    (nbrs[0], nbrs[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn cycle_structure() {
        let g = cycle(7).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.min_degree(), Some(2));
        assert_eq!(g.max_degree(), Some(2));
        assert!(traversal::is_connected(&g));
        assert_eq!(traversal::diameter(&g), Some(3));
    }

    #[test]
    fn cycle_rejects_small_n() {
        assert!(cycle(0).is_err());
        assert!(cycle(2).is_err());
        assert!(cycle(3).is_ok());
    }

    #[test]
    fn path_structure() {
        let g = path(6).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(g.max_degree(), Some(2));
        assert_eq!(traversal::diameter(&g), Some(5));
    }

    #[test]
    fn path_of_one_node() {
        let g = path(1).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn path_rejects_zero() {
        assert!(path(0).is_err());
    }

    #[test]
    fn ring_lattice_is_regular() {
        let g = ring_lattice(10, 4).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 20);
        assert_eq!(g.min_degree(), Some(4));
        assert_eq!(g.max_degree(), Some(4));
    }

    #[test]
    fn ring_lattice_k2_is_cycle() {
        let g = ring_lattice(8, 2).unwrap();
        let c = cycle(8).unwrap();
        assert_eq!(g.edge_count(), c.edge_count());
        assert_eq!(g.max_degree(), Some(2));
    }

    #[test]
    fn ring_lattice_rejects_bad_parameters() {
        assert!(ring_lattice(10, 3).is_err());
        assert!(ring_lattice(10, 0).is_err());
        assert!(ring_lattice(10, 10).is_err());
        assert!(ring_lattice(2, 2).is_err());
    }

    #[test]
    fn cycle_neighbors_returns_both_sides() {
        let g = cycle(5).unwrap();
        let (a, b) = cycle_neighbors(&g, NodeId::new(0));
        assert_ne!(a, b);
        assert!(g.contains_edge(NodeId::new(0), a));
        assert!(g.contains_edge(NodeId::new(0), b));
    }
}
