//! Trees: stars, balanced trees and caterpillars.

use crate::error::{GraphError, Result};
use crate::Graph;

/// The star `K_{1,n-1}` on `n >= 2` nodes; node 0 is the centre.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `n < 2`.
pub fn star(n: usize) -> Result<Graph> {
    if n < 2 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("a star needs at least 2 nodes, got {n}"),
        });
    }
    let mut g = Graph::with_capacity(n);
    let nodes = g.add_nodes_with_default_ids(n);
    for leaf in &nodes[1..] {
        g.add_edge(nodes[0], *leaf)?;
    }
    Ok(g)
}

/// The complete `arity`-ary tree of the given `depth`.
///
/// Depth 0 is a single root. Every internal node has exactly `arity`
/// children. Nodes are numbered in breadth-first order, so the root is 0.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `arity == 0`, or
/// when the tree would exceed one million nodes.
pub fn balanced_tree(arity: usize, depth: usize) -> Result<Graph> {
    if arity == 0 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: "balanced tree arity must be positive".to_string(),
        });
    }
    // Compute the node count, guarding against absurd sizes.
    let mut count: usize = 1;
    let mut level = 1usize;
    for _ in 0..depth {
        level = level.saturating_mul(arity);
        count = count.saturating_add(level);
        if count > 1_000_000 {
            return Err(GraphError::InvalidGeneratorParameter {
                reason: format!("balanced tree with arity {arity} and depth {depth} is too large"),
            });
        }
    }
    let mut g = Graph::with_capacity(count);
    let nodes = g.add_nodes_with_default_ids(count);
    // Children of node i (breadth-first numbering): arity*i + 1 ..= arity*i + arity.
    for i in 0..count {
        for c in 1..=arity {
            let child = arity * i + c;
            if child < count {
                g.add_edge(nodes[i], nodes[child])?;
            }
        }
    }
    Ok(g)
}

/// The heap-shaped complete binary tree on exactly `n` nodes: node `i` has
/// children `2i + 1` and `2i + 2` (when they exist), so every level is full
/// except possibly the last, which fills left to right.
///
/// Unlike [`balanced_tree`], which only realises sizes of the form
/// `2^(d+1) - 1`, this shape exists for every positive `n` — which is what
/// the topology-parameterised sweeps need.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `n == 0`.
pub fn complete_binary_tree(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: "a complete binary tree needs at least 1 node".to_string(),
        });
    }
    let mut g = Graph::with_default_nodes(n);
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                g.push_edge(i, child);
            }
        }
    }
    Ok(g)
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves attached.
///
/// Caterpillars are useful stress tests for average-radius measures because a
/// constant fraction of the nodes (the legs) can often decide very early.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph> {
    if spine == 0 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: "caterpillar needs a non-empty spine".to_string(),
        });
    }
    let n = spine + spine * legs;
    let mut g = Graph::with_capacity(n);
    let nodes = g.add_nodes_with_default_ids(n);
    for i in 1..spine {
        g.add_edge(nodes[i - 1], nodes[i])?;
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            g.add_edge(nodes[s], nodes[leaf])?;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn star_counts() {
        let g = star(7).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), Some(6));
        assert_eq!(g.min_degree(), Some(1));
        assert_eq!(traversal::diameter(&g), Some(2));
    }

    #[test]
    fn star_rejects_tiny() {
        assert!(star(1).is_err());
        assert!(star(0).is_err());
    }

    #[test]
    fn balanced_binary_tree() {
        let g = balanced_tree(2, 3).unwrap();
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert!(traversal::is_connected(&g));
        assert!(traversal::is_bipartite(&g));
        assert_eq!(traversal::diameter(&g), Some(6));
    }

    #[test]
    fn balanced_tree_depth_zero_is_single_node() {
        let g = balanced_tree(3, 0).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn balanced_tree_ternary() {
        let g = balanced_tree(3, 2).unwrap();
        assert_eq!(g.node_count(), 13);
        assert_eq!(g.edge_count(), 12);
    }

    #[test]
    fn balanced_tree_rejects_bad_parameters() {
        assert!(balanced_tree(0, 3).is_err());
        assert!(balanced_tree(10, 10).is_err()); // too large
    }

    #[test]
    fn complete_binary_tree_exists_for_every_size() {
        for n in 1usize..40 {
            let g = complete_binary_tree(n).unwrap();
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n - 1);
            assert!(traversal::is_connected(&g));
        }
    }

    #[test]
    fn complete_binary_tree_matches_balanced_tree_on_full_sizes() {
        // 2^(d+1) - 1 nodes: the heap shape IS the complete binary tree of
        // depth d, edge for edge.
        assert_eq!(complete_binary_tree(15).unwrap(), balanced_tree(2, 3).unwrap());
        assert_eq!(complete_binary_tree(7).unwrap(), balanced_tree(2, 2).unwrap());
    }

    #[test]
    fn complete_binary_tree_rejects_zero() {
        assert!(complete_binary_tree(0).is_err());
    }

    #[test]
    fn caterpillar_counts() {
        let g = caterpillar(4, 3).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 15);
        assert!(traversal::is_connected(&g));
        assert_eq!(traversal::diameter(&g), Some(5));
    }

    #[test]
    fn caterpillar_without_legs_is_a_path() {
        let g = caterpillar(5, 0).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), Some(2));
    }

    #[test]
    fn caterpillar_rejects_empty_spine() {
        assert!(caterpillar(0, 3).is_err());
    }
}
