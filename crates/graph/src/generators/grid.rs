//! Two-dimensional grids, tori, and hypercubes.

use crate::error::{GraphError, Result};
use crate::Graph;

/// The `w x h` grid graph: nodes are lattice points, edges join horizontal and
/// vertical neighbours. Node `(x, y)` has index `y * w + x`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when either dimension is
/// zero.
pub fn grid(w: usize, h: usize) -> Result<Graph> {
    if w == 0 || h == 0 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("grid dimensions must be positive, got {w}x{h}"),
        });
    }
    let mut g = Graph::with_default_nodes(w * h);
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                g.push_edge(i, i + 1);
            }
            if y + 1 < h {
                g.push_edge(i, i + w);
            }
        }
    }
    Ok(g)
}

/// The `w x h` torus: a grid with wrap-around edges in both dimensions.
///
/// Both dimensions must be at least 3 so the graph stays simple (no parallel
/// edges from wrapping a dimension of length 2).
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when a dimension is
/// smaller than 3.
pub fn torus(w: usize, h: usize) -> Result<Graph> {
    if w < 3 || h < 3 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("torus dimensions must be at least 3, got {w}x{h}"),
        });
    }
    // With both sides at least 3, each wrap-around edge comes up once.
    let mut g = Graph::with_default_nodes(w * h);
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            g.push_edge(i, y * w + (x + 1) % w);
            g.push_edge(i, ((y + 1) % h) * w + x);
        }
    }
    Ok(g)
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes.
///
/// Node indices are interpreted as bit strings; two nodes are adjacent when
/// their indices differ in exactly one bit.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameter`] when `d == 0` or
/// `d > 20` (the latter only to bound memory).
pub fn hypercube(d: u32) -> Result<Graph> {
    if d == 0 || d > 20 {
        return Err(GraphError::InvalidGeneratorParameter {
            reason: format!("hypercube dimension must be in [1, 20], got {d}"),
        });
    }
    let n = 1usize << d;
    let mut g = Graph::with_capacity(n);
    let nodes = g.add_nodes_with_default_ids(n);
    for i in 0..n {
        for b in 0..d {
            let j = i ^ (1 << b);
            if i < j {
                g.add_edge(nodes[i], nodes[j])?;
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn grid_counts() {
        let g = grid(4, 3).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 4 * 2 + 3 * 3); // horizontal + vertical
        assert!(traversal::is_connected(&g));
        assert!(traversal::is_bipartite(&g));
        assert_eq!(traversal::diameter(&g), Some(3 + 2));
    }

    #[test]
    fn grid_single_row_is_a_path() {
        let g = grid(5, 1).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), Some(2));
    }

    #[test]
    fn grid_rejects_zero_dimension() {
        assert!(grid(0, 3).is_err());
        assert!(grid(3, 0).is_err());
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.min_degree(), Some(4));
        assert_eq!(g.max_degree(), Some(4));
        assert_eq!(g.edge_count(), 40);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn torus_rejects_small_dimensions() {
        assert!(torus(2, 5).is_err());
        assert!(torus(5, 2).is_err());
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.min_degree(), Some(4));
        assert_eq!(traversal::diameter(&g), Some(4));
        assert!(traversal::is_bipartite(&g));
    }

    #[test]
    fn hypercube_dimension_one_is_an_edge() {
        let g = hypercube(1).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn hypercube_rejects_bad_dimension() {
        assert!(hypercube(0).is_err());
        assert!(hypercube(21).is_err());
    }
}
