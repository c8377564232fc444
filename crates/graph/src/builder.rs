//! Incremental construction of graphs with validation.

use crate::error::{GraphError, Result};
use crate::{Graph, Identifier, NodeId};

/// Builder for [`Graph`] values that defers validation to a single point.
///
/// The builder collects nodes (by identifier) and edges (by identifier pair)
/// and checks uniqueness of identifiers and well-formedness of edges when
/// [`GraphBuilder::build`] is called. It is convenient when a graph is
/// described by data (for example a list of identifier pairs) rather than
/// constructed programmatically.
///
/// # Examples
///
/// ```
/// use avglocal_graph::GraphBuilder;
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let g = GraphBuilder::new()
///     .node(10)
///     .node(20)
///     .node(30)
///     .edge(10, 20)
///     .edge(20, 30)
///     .build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    identifiers: Vec<u64>,
    edges: Vec<(u64, u64)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Declares a node carrying identifier `identifier`.
    #[must_use]
    pub fn node(mut self, identifier: u64) -> Self {
        self.identifiers.push(identifier);
        self
    }

    /// Declares several nodes at once.
    #[must_use]
    pub fn nodes<I: IntoIterator<Item = u64>>(mut self, identifiers: I) -> Self {
        self.identifiers.extend(identifiers);
        self
    }

    /// Declares an undirected edge between the nodes carrying `a` and `b`.
    #[must_use]
    pub fn edge(mut self, a: u64, b: u64) -> Self {
        self.edges.push((a, b));
        self
    }

    /// Declares several edges at once.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (u64, u64)>>(mut self, edges: I) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Number of nodes declared so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.identifiers.len()
    }

    /// Number of edges declared so far.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validates the description and produces the [`Graph`].
    ///
    /// One sorted `(identifier, node)` table does all identifier work: equal
    /// neighbours are the duplicate check and a binary search resolves each
    /// edge endpoint, so building costs `O((n + m) log n)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateIdentifier`] naming the smallest
    /// identifier two nodes share, [`GraphError::InvalidGeneratorParameter`]
    /// when an edge references an undeclared identifier, and propagates edge
    /// errors ([`GraphError::SelfLoop`], [`GraphError::DuplicateEdge`]).
    pub fn build(self) -> Result<Graph> {
        let mut table: Vec<(u64, NodeId)> =
            self.identifiers.iter().enumerate().map(|(i, &raw)| (raw, NodeId::new(i))).collect();
        table.sort_unstable();
        if let Some(w) = table.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(GraphError::DuplicateIdentifier { identifier: w[0].0 });
        }
        let node_of = |raw: u64| match table.binary_search_by_key(&raw, |&(id, _)| id) {
            Ok(slot) => Ok(table[slot].1),
            Err(_) => Err(GraphError::InvalidGeneratorParameter {
                reason: format!("edge references unknown identifier {raw}"),
            }),
        };
        let mut graph = Graph::with_capacity(self.identifiers.len());
        for &raw in &self.identifiers {
            graph.add_node(Identifier::new(raw));
        }
        for &(a, b) in &self.edges {
            graph.add_edge(node_of(a)?, node_of(b)?)?;
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let g = GraphBuilder::new()
            .nodes([1, 2, 3, 4])
            .edges([(1, 2), (2, 3), (3, 4), (4, 1)])
            .build()
            .unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn duplicate_identifier_rejected() {
        let err = GraphBuilder::new().node(1).node(1).build().unwrap_err();
        assert_eq!(err, GraphError::DuplicateIdentifier { identifier: 1 });
    }

    #[test]
    fn unknown_identifier_in_edge_rejected() {
        let err = GraphBuilder::new().node(1).node(2).edge(1, 9).build().unwrap_err();
        assert!(matches!(err, GraphError::InvalidGeneratorParameter { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let err = GraphBuilder::new().node(1).edge(1, 1).build().unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { .. }));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = GraphBuilder::new().nodes([1, 2]).edge(1, 2).edge(2, 1).build().unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
    }

    #[test]
    fn counts_track_declarations() {
        let b = GraphBuilder::new().nodes([1, 2, 3]).edge(1, 2);
        assert_eq!(b.node_count(), 3);
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert!(g.is_empty());
    }
}
