//! Connected-component labellings and the component-handling mode of the
//! experiment harness.
//!
//! A disconnected instance changes the semantics of a LOCAL execution: a
//! ball saturates when it has seen its whole **component**, so every radius,
//! output and verifier is implicitly component-scoped. [`ComponentLabels`]
//! makes that structure explicit — one canonical label per node, components
//! numbered in order of their smallest node index — and [`ComponentMode`]
//! lets callers choose between the historical "reject disconnected
//! instances" behaviour and the explicit per-component semantics.
//!
//! Labels are computed from a [`Graph`] by one BFS sweep, and only by runs
//! that work per component; a [`crate::CsrGraph`] snapshot carries none. The
//! labelling is canonical — components numbered by smallest member, sizes in
//! label order — so it does not depend on discovery order.

use crate::{Graph, NodeId};

/// How an experiment treats disconnected instances.
///
/// The historical behaviour ([`ComponentMode::RequireConnected`]) redraws
/// random families until they are connected and rejects instances that never
/// connect; [`ComponentMode::PerComponent`] accepts the instance as drawn and
/// scopes every measure (and "the ball saturates") to the component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ComponentMode {
    /// Only connected instances are valid; random families are redrawn and a
    /// persistently disconnected family is a hard
    /// [`crate::GraphError::Disconnected`].
    #[default]
    RequireConnected,
    /// Disconnected instances are first-class: the first draw is used as-is
    /// (no redraw loop, no derived-seed burn) and results are reported per
    /// component as well as aggregated.
    PerComponent,
}

/// A canonical connected-component labelling of a graph.
///
/// Component `c` is the `c`-th component in order of smallest node index, so
/// two labellings of the same graph are equal whatever order the sweep
/// discovers its nodes in.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{ComponentLabels, Graph, Identifier};
///
/// let mut g = Graph::new();
/// let a = g.add_node(Identifier::new(0));
/// let b = g.add_node(Identifier::new(1));
/// let c = g.add_node(Identifier::new(2));
/// g.add_edge(a, c).unwrap();
/// let labels = ComponentLabels::of_graph(&g);
/// assert_eq!(labels.count(), 2);
/// assert_eq!(labels.label(a), 0);
/// assert_eq!(labels.label(b), 1);
/// assert_eq!(labels.label(c), 0); // same component as `a`
/// assert_eq!(labels.sizes(), &[2, 1]);
/// assert!(!labels.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentLabels {
    /// Component label of each node, indexed by node.
    labels: Vec<u32>,
    /// Number of nodes in each component, indexed by label.
    sizes: Vec<u32>,
}

impl ComponentLabels {
    /// Labels the components of `graph` with a sequential BFS sweep.
    #[must_use]
    pub fn of_graph(graph: &Graph) -> Self {
        let mut labels = vec![u32::MAX; graph.node_count()];
        let mut sizes: Vec<u32> = Vec::new();
        let mut queue: Vec<NodeId> = Vec::new();
        for start in graph.nodes() {
            if labels[start.index()] != u32::MAX {
                continue;
            }
            let label = sizes.len() as u32;
            let mut size = 0u32;
            labels[start.index()] = label;
            queue.push(start);
            while let Some(v) = queue.pop() {
                size += 1;
                for &u in graph.neighbors(v) {
                    if labels[u.index()] == u32::MAX {
                        labels[u.index()] = label;
                        queue.push(u);
                    }
                }
            }
            sizes.push(size);
        }
        ComponentLabels { labels, sizes }
    }

    /// Number of connected components (0 for the empty graph).
    #[must_use]
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Component label of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn label(&self, node: NodeId) -> u32 {
        self.labels[node.index()]
    }

    /// All labels, indexed by node.
    #[must_use]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Number of nodes per component, indexed by label.
    #[must_use]
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Number of labelled nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when there is at most one component (the empty graph
    /// counts as connected, matching [`crate::traversal::is_connected`]).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.sizes.len() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, traversal, Identifier};

    fn assert_matches_traversal(graph: &Graph, labels: &ComponentLabels) {
        let expected = traversal::connected_components(graph);
        assert_eq!(labels.count(), expected.len());
        for (c, nodes) in expected.iter().enumerate() {
            assert_eq!(labels.sizes()[c] as usize, nodes.len());
            for &v in nodes {
                assert_eq!(labels.label(v), c as u32, "node {v}");
            }
        }
    }

    #[test]
    fn connected_graph_has_one_component() {
        let g = generators::cycle(12).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        assert_eq!(labels.count(), 1);
        assert!(labels.is_connected());
        assert_eq!(labels.sizes(), &[12]);
        assert!(labels.labels().iter().all(|&l| l == 0));
        assert_matches_traversal(&g, &labels);
    }

    #[test]
    fn empty_graph_is_connected_with_zero_components() {
        let labels = ComponentLabels::of_graph(&Graph::new());
        assert_eq!(labels.count(), 0);
        assert_eq!(labels.node_count(), 0);
        assert!(labels.is_connected());
    }

    #[test]
    fn isolated_nodes_get_their_own_components() {
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_node(Identifier::new(i));
        }
        g.add_edge(NodeId::new(1), NodeId::new(3)).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        assert_eq!(labels.count(), 4);
        assert_eq!(labels.label(NodeId::new(1)), labels.label(NodeId::new(3)));
        assert_eq!(labels.sizes(), &[1, 2, 1, 1]);
        assert_matches_traversal(&g, &labels);
    }

    #[test]
    fn components_are_numbered_by_smallest_member() {
        // Edges chosen so BFS discovery order differs from node order inside
        // the components; the labelling must still be canonical.
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(Identifier::new(i));
        }
        g.add_edge(NodeId::new(5), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(4), NodeId::new(0)).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(2)).unwrap();
        let labels = ComponentLabels::of_graph(&g);
        // Component 0 contains node 0, component 1 node 1, component 2 node 2.
        assert_eq!(labels.label(NodeId::new(0)), 0);
        assert_eq!(labels.label(NodeId::new(4)), 0);
        assert_eq!(labels.label(NodeId::new(1)), 1);
        assert_eq!(labels.label(NodeId::new(5)), 1);
        assert_eq!(labels.label(NodeId::new(2)), 2);
        assert_eq!(labels.label(NodeId::new(3)), 2);
    }

    #[test]
    fn csr_labelling_matches_traversal() {
        let graphs = [
            generators::cycle(64).unwrap(),
            generators::path(33).unwrap(),
            generators::grid(5, 7).unwrap(),
            {
                let mut g = Graph::new();
                for i in 0..40 {
                    g.add_node(Identifier::new(i));
                }
                for i in 0..20u64 {
                    let u = NodeId::new((i * 7 % 40) as usize);
                    let v = NodeId::new((i * 11 % 40) as usize);
                    if u != v && !g.contains_edge(u, v) {
                        g.add_edge(u, v).unwrap();
                    }
                }
                g
            },
        ];
        // Snapshots carry no labels, so the one labelling is `of_graph`'s.
        for g in &graphs {
            assert_matches_traversal(g, &ComponentLabels::of_graph(g));
        }
    }

    #[test]
    fn component_mode_default_requires_connected() {
        assert_eq!(ComponentMode::default(), ComponentMode::RequireConnected);
    }
}
