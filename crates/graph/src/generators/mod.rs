//! Graph family generators.
//!
//! Every generator returns a [`crate::Graph`] whose node `i` carries the
//! default identifier `i`; experiments re-assign identifiers afterwards with
//! [`crate::assignment::IdAssignment`] so that the worst-case-over-permutations
//! measure of the paper can be explored independently of the topology.
//!
//! The cycle (ring) is the topology the paper studies; the other families are
//! provided so that the "further work" direction of the paper — general graphs
//! — can be explored with the same tooling.

mod classic;
mod cycle;
mod grid;
mod hub;
mod random;
mod tree;

pub use classic::{complete, complete_bipartite, petersen};
pub use cycle::{cycle, cycle_neighbors, path, ring_lattice};
pub use grid::{grid, hypercube, torus};
pub use hub::{power_law_configuration, power_law_degrees, preferential_attachment};
pub use random::{erdos_renyi, gnm_random, random_tree};
pub use tree::{balanced_tree, caterpillar, complete_binary_tree, star};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn all_generators_have_unique_default_identifiers() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let graphs = vec![
            preferential_attachment(12, 2, &mut StdRng::seed_from_u64(1)).unwrap(),
            cycle(5).unwrap(),
            path(5).unwrap(),
            ring_lattice(8, 4).unwrap(),
            complete(5).unwrap(),
            complete_bipartite(3, 4).unwrap(),
            petersen(),
            grid(3, 4).unwrap(),
            torus(3, 4).unwrap(),
            hypercube(3).unwrap(),
            star(6).unwrap(),
            balanced_tree(2, 3).unwrap(),
            complete_binary_tree(10).unwrap(),
            caterpillar(4, 2).unwrap(),
        ];
        for g in graphs {
            assert!(g.has_unique_identifiers());
            assert!(traversal::is_connected(&g));
        }
    }

    /// The graph on `n` default-identifier nodes with `edges` added one by
    /// one through the checked [`crate::Graph::add_edge`].
    fn per_edge(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> crate::Graph {
        let mut g = crate::Graph::with_capacity(n);
        let nodes = g.add_nodes_with_default_ids(n);
        for (u, v) in edges {
            g.add_edge(nodes[u], nodes[v]).unwrap();
        }
        g
    }

    fn grid_edges(w: usize, h: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for i in 0..w * h {
            let (x, y) = (i % w, i / w);
            if x + 1 < w {
                edges.push((i, i + 1));
            }
            if y + 1 < h {
                edges.push((i, i + w));
            }
        }
        edges
    }

    fn torus_edges(w: usize, h: usize) -> Vec<(usize, usize)> {
        (0..w * h)
            .flat_map(|i| {
                let (x, y) = (i % w, i / w);
                [(i, y * w + (x + 1) % w), (i, ((y + 1) % h) * w + x)]
            })
            .collect()
    }

    #[test]
    fn bulk_families_equal_their_per_edge_builds() {
        let linear = |n: usize| {
            assert_eq!(path(n).unwrap(), per_edge(n, (1..n).map(|i| (i - 1, i))));
            let tree = (0..n).flat_map(|i| [(i, 2 * i + 1), (i, 2 * i + 2)]);
            let tree: Vec<_> = tree.filter(|&(_, child)| child < n).collect();
            assert_eq!(complete_binary_tree(n).unwrap(), per_edge(n, tree));
            if n >= 3 {
                assert_eq!(cycle(n).unwrap(), per_edge(n, (0..n).map(|i| (i, (i + 1) % n))));
            }
        };
        let rectangular = |w: usize, h: usize| {
            assert_eq!(grid(w, h).unwrap(), per_edge(w * h, grid_edges(w, h)));
            if w >= 3 && h >= 3 {
                assert_eq!(torus(w, h).unwrap(), per_edge(w * h, torus_edges(w, h)));
            }
        };
        for n in 1..=64 {
            linear(n);
            for w in (1..=n).filter(|w| n % w == 0) {
                rectangular(w, n / w);
            }
        }
        rectangular(128, 128);
        linear(1 << 18);
    }
}
