//! Undirected simple graphs with per-node identifiers.

use std::fmt;
use std::ops::Deref;

use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::{Identifier, NodeId};

/// An undirected simple graph whose nodes carry distributed [`Identifier`]s.
///
/// This is the substrate every LOCAL-model execution runs on. Nodes are stored
/// densely and addressed by [`NodeId`]; each node holds the identifier it
/// exposes to the distributed algorithm. Neighbour lists are kept in insertion
/// order, which doubles as the port numbering used by the runtime.
///
/// A neighbour list of degree at most 4 (every node of a cycle, path, binary
/// tree, grid or torus) sits inline in its node's slot, so building or
/// cloning such a graph allocates per table, not per node; the fifth
/// neighbour moves that node's list to the heap once.
///
/// Nothing derived from the adjacency or the identifier table is stored:
/// [`Graph::contains_edge`] (and so [`Graph::add_edge`]) scans the shorter
/// neighbour list in `O(min degree)`, and [`Graph::node_by_identifier`]
/// scans the table in `O(n)`.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{Graph, Identifier};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node(Identifier::new(10));
/// let b = g.add_node(Identifier::new(20));
/// g.add_edge(a, b)?;
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.degree(a), 1);
/// assert!(g.contains_edge(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Neighbors>,
    identifiers: Vec<Identifier>,
    edge_count: usize,
}

/// Neighbours a list holds without a heap allocation: the largest degree of
/// the families that sweeps build in bulk (4 on grids and tori).
const INLINE: usize = 4;

/// One node's neighbour list, in port order. Up to [`INLINE`] neighbours sit
/// in the 40-byte slot itself; the next one moves the list to a `Vec` once,
/// and it stays there. It dereferences to the slice, and readers, equality
/// and `Debug` see only that, never which of the two the list is.
#[derive(Clone)]
enum Neighbors {
    Inline { len: u8, ids: [NodeId; INLINE] },
    Heap(Vec<NodeId>),
}

impl Neighbors {
    const EMPTY: Neighbors = Neighbors::Inline { len: 0, ids: [NodeId::new(0); INLINE] };

    // Inlined into every caller, whichever codegen unit it lands in: the
    // generators' build loops call it once per arc, and an out-of-line call
    // there measurably slowed a 128x128 grid build.
    #[inline]
    fn push(&mut self, v: NodeId) {
        match self {
            Neighbors::Inline { len, ids } if usize::from(*len) < INLINE => {
                ids[usize::from(*len)] = v;
                *len += 1;
            }
            Neighbors::Inline { ids, .. } => *self = Neighbors::Heap(spill(ids, v)),
            Neighbors::Heap(heap) => heap.push(v),
        }
    }
}

/// The heap list a full inline list moves to when `v` joins it.
#[cold]
fn spill(ids: &[NodeId; INLINE], v: NodeId) -> Vec<NodeId> {
    let mut heap = Vec::with_capacity(2 * INLINE);
    heap.extend_from_slice(ids);
    heap.push(v);
    heap
}

impl Deref for Neighbors {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Neighbors::Inline { len, ids } => &ids[..usize::from(*len)],
            Neighbors::Heap(heap) => heap,
        }
    }
}

impl PartialEq for Neighbors {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Neighbors {}

impl fmt::Debug for Neighbors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The smallest identifier that occurs more than once in `identifiers`.
fn smallest_duplicate(identifiers: &[Identifier]) -> Option<Identifier> {
    let mut sorted = identifiers.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph with room for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        Graph {
            adjacency: Vec::with_capacity(nodes),
            identifiers: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Adds a node carrying `identifier` and returns its [`NodeId`].
    ///
    /// Identifiers are not required to be unique at insertion time (the
    /// builder validates uniqueness when it matters).
    pub fn add_node(&mut self, identifier: Identifier) -> NodeId {
        let id = NodeId::new(self.adjacency.len());
        self.adjacency.push(Neighbors::EMPTY);
        self.identifiers.push(identifier);
        id
    }

    /// Adds `count` nodes with identifiers `0..count` and returns their ids.
    pub fn add_nodes_with_default_ids(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|i| self.add_node(Identifier::new(i as u64))).collect()
    }

    /// `n` isolated nodes carrying the default identifiers `0..n`: the start
    /// of the bulk generators, one allocation per table.
    pub(crate) fn with_default_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Neighbors::EMPTY; n],
            identifiers: (0..n as u64).map(Identifier::new).collect(),
            edge_count: 0,
        }
    }

    /// Appends the edge `(u, v)` between node indices without the checks of
    /// [`Graph::add_edge`], pushing both endpoints in its order. Only for
    /// generators whose edges are simple by construction: both nodes exist,
    /// `u != v`, and the edge is new.
    #[inline]
    pub(crate) fn push_edge(&mut self, u: usize, v: usize) {
        debug_assert!(
            u != v && !self.contains_edge(NodeId::new(u), NodeId::new(v)),
            "push_edge({u}, {v}) would break a simple graph"
        );
        self.adjacency[u].push(NodeId::new(v));
        self.adjacency[v].push(NodeId::new(u));
        self.edge_count += 1;
    }

    /// Adds the undirected edge `(u, v)` in `O(min degree)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint does not
    /// exist, [`GraphError::SelfLoop`] when `u == v`, and
    /// [`GraphError::DuplicateEdge`] when the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.contains_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        self.adjacency[u.index()].push(v);
        self.adjacency[v.index()].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Returns `true` if `node` is a valid node id of this graph.
    #[must_use]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.adjacency.len()
    }

    /// Returns `true` if the undirected edge `(u, v)` exists; `false` when
    /// either node is not in the graph. `O(min degree)`.
    #[must_use]
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        match (self.adjacency.get(u.index()), self.adjacency.get(v.index())) {
            (Some(of_u), Some(of_v)) if of_u.len() <= of_v.len() => of_u.contains(&v),
            (Some(_), Some(of_v)) => of_v.contains(&u),
            _ => false,
        }
    }

    /// Freezes the adjacency into a flat [`CsrGraph`] snapshot for
    /// traversal-heavy workloads; see [`crate::csr`]. One pass copies the
    /// adjacency lists in port order; no component labelling is computed.
    ///
    /// # Panics
    ///
    /// Panics when the graph has `u32::MAX` nodes or more, or when its
    /// directed edge count exceeds `u32::MAX`.
    #[must_use]
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_graph(self)
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Neighbours of `node`, in port order (insertion order of the edges).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Identifier carried by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the graph.
    #[must_use]
    pub fn identifier(&self, node: NodeId) -> Identifier {
        self.identifiers[node.index()]
    }

    /// Replaces the identifier of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node` does not exist.
    pub fn set_identifier(&mut self, node: NodeId, identifier: Identifier) -> Result<()> {
        self.check_node(node)?;
        self.identifiers[node.index()] = identifier;
        Ok(())
    }

    /// Looks up the first node carrying `identifier`, if any. `O(n)`.
    #[must_use]
    pub fn node_by_identifier(&self, identifier: Identifier) -> Option<NodeId> {
        self.identifiers.iter().position(|&id| id == identifier).map(NodeId::new)
    }

    /// Returns the node with the largest identifier, if the graph is non-empty.
    #[must_use]
    pub fn max_identifier_node(&self) -> Option<NodeId> {
        self.identifiers.iter().enumerate().max_by_key(|(_, id)| **id).map(|(i, _)| NodeId::new(i))
    }

    /// Iterator over all node ids, in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(NodeId::new)
    }

    /// Iterator over all identifiers, in node-index order.
    pub fn identifiers(&self) -> impl ExactSizeIterator<Item = Identifier> + '_ {
        self.identifiers.iter().copied()
    }

    /// All identifiers as a slice indexed by node — the same table shape as
    /// [`CsrGraph::identifiers`], so slice-based checks run on either.
    #[must_use]
    pub fn identifier_slice(&self) -> &[Identifier] {
        &self.identifiers
    }

    /// The identifier table, written in place by
    /// [`crate::IdAssignment::write_identifiers`], whose tables are unique
    /// by construction.
    pub(crate) fn identifiers_mut(&mut self) -> &mut [Identifier] {
        &mut self.identifiers
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = NodeId::new(u);
            nbrs.iter().copied().filter_map(move |v| (u < v).then_some((u, v)))
        })
    }

    /// Minimum degree over all nodes, or `None` for the empty graph.
    #[must_use]
    pub fn min_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(|nbrs| nbrs.len()).min()
    }

    /// Maximum degree over all nodes, or `None` for the empty graph.
    #[must_use]
    pub fn max_degree(&self) -> Option<usize> {
        self.adjacency.iter().map(|nbrs| nbrs.len()).max()
    }

    /// Replaces the identifiers of every node at once.
    ///
    /// `identifiers[i]` becomes the identifier of the node with index `i`.
    /// One sort of a copy of the table finds duplicates; the graph is
    /// modified only once the whole table is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::AssignmentLengthMismatch`] if the slice length
    /// differs from the node count, and [`GraphError::DuplicateIdentifier`]
    /// with the smallest identifier two nodes would share. Either way the
    /// graph is left unchanged.
    pub fn set_all_identifiers(&mut self, identifiers: &[Identifier]) -> Result<()> {
        if identifiers.len() != self.node_count() {
            return Err(GraphError::AssignmentLengthMismatch {
                provided: identifiers.len(),
                expected: self.node_count(),
            });
        }
        if let Some(duplicate) = smallest_duplicate(identifiers) {
            return Err(GraphError::DuplicateIdentifier { identifier: duplicate.value() });
        }
        self.identifiers.clear();
        self.identifiers.extend_from_slice(identifiers);
        Ok(())
    }

    /// Checks that every node carries a distinct identifier.
    #[must_use]
    pub fn has_unique_identifiers(&self) -> bool {
        smallest_duplicate(&self.identifiers).is_none()
    }

    fn check_node(&self, node: NodeId) -> Result<()> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds { node, node_count: self.node_count() })
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph({} nodes, {} edges)", self.node_count(), self.edge_count())?;
        for v in self.nodes() {
            let nbrs: Vec<String> = self.neighbors(v).iter().map(|u| u.to_string()).collect();
            writeln!(f, "  {v} [{}] -> {}", self.identifier(v), nbrs.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(1));
        let b = g.add_node(Identifier::new(2));
        let c = g.add_node(Identifier::new(3));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        g.add_edge(c, a).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.min_degree(), None);
        assert_eq!(g.max_degree(), None);
        assert_eq!(g.max_identifier_node(), None);
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(a), 2);
        assert!(g.contains_edge(a, b));
        assert!(g.contains_edge(b, a));
        assert!(g.contains_edge(c, a));
        assert!(!g.is_empty());

        // On a star the hub's list is the longer one: both scan branches run.
        let mut star = Graph::new();
        let [hub, leaf, other_leaf] = [0, 1, 2].map(|id| star.add_node(Identifier::new(id)));
        star.add_edge(hub, leaf).unwrap();
        star.add_edge(hub, other_leaf).unwrap();
        assert!(star.contains_edge(hub, leaf) && star.contains_edge(leaf, hub));
        assert!(!star.contains_edge(leaf, other_leaf));
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let (mut g, a, b, _) = triangle();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop { node: a }));
        assert_eq!(g.add_edge(a, b), Err(GraphError::DuplicateEdge { u: a, v: b }));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn rejects_out_of_bounds_edges() {
        let mut g = Graph::new();
        let a = g.add_node(Identifier::new(1));
        let ghost = NodeId::new(10);
        assert!(matches!(g.add_edge(a, ghost), Err(GraphError::NodeOutOfBounds { .. })));
        assert!(!g.contains_edge(a, ghost));
        assert!(!g.contains_edge(ghost, a));
    }

    #[test]
    fn identifier_lookup() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.identifier(a), Identifier::new(1));
        assert_eq!(g.node_by_identifier(Identifier::new(2)), Some(b));
        assert_eq!(g.node_by_identifier(Identifier::new(99)), None);
        assert_eq!(g.max_identifier_node(), Some(c));
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn set_identifier_updates_lookup() {
        let (mut g, a, _, _) = triangle();
        g.set_identifier(a, Identifier::new(50)).unwrap();
        assert_eq!(g.identifier(a), Identifier::new(50));
        assert_eq!(g.node_by_identifier(Identifier::new(50)), Some(a));
        assert_eq!(g.node_by_identifier(Identifier::new(1)), None);
        assert_eq!(g.max_identifier_node(), Some(a));
    }

    #[test]
    fn node_by_identifier_finds_the_remaining_holder_after_set_identifier() {
        let mut g = Graph::new();
        let first = g.add_node(Identifier::new(5));
        let second = g.add_node(Identifier::new(5));
        assert_eq!(g.node_by_identifier(Identifier::new(5)), Some(first));
        g.set_identifier(first, Identifier::new(7)).unwrap();
        assert_eq!(g.node_by_identifier(Identifier::new(5)), Some(second));
    }

    #[test]
    fn set_identifier_out_of_bounds() {
        let mut g = Graph::new();
        assert!(matches!(
            g.set_identifier(NodeId::new(0), Identifier::new(1)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn set_all_identifiers_validates() {
        let (mut g, a, b, c) = triangle();
        let err = g.set_all_identifiers(&[Identifier::new(5)]);
        assert!(matches!(err, Err(GraphError::AssignmentLengthMismatch { .. })));

        let err =
            g.set_all_identifiers(&[Identifier::new(5), Identifier::new(5), Identifier::new(6)]);
        assert!(matches!(err, Err(GraphError::DuplicateIdentifier { identifier: 5 })));

        g.set_all_identifiers(&[Identifier::new(30), Identifier::new(20), Identifier::new(10)])
            .unwrap();
        assert_eq!(g.identifier(a), Identifier::new(30));
        assert_eq!(g.identifier(b), Identifier::new(20));
        assert_eq!(g.identifier(c), Identifier::new(10));
        assert_eq!(g.max_identifier_node(), Some(a));
        assert_eq!(g.node_by_identifier(Identifier::new(10)), Some(c));
        assert_eq!(g.node_by_identifier(Identifier::new(1)), None);
    }

    #[test]
    fn rejected_duplicate_leaves_identifiers_and_index_unchanged() {
        let (mut g, a, b, c) = triangle();
        let err =
            g.set_all_identifiers(&[Identifier::new(7), Identifier::new(8), Identifier::new(7)]);
        assert!(matches!(err, Err(GraphError::DuplicateIdentifier { identifier: 7 })));
        let ids: Vec<u64> = g.identifiers().map(Identifier::value).collect();
        assert_eq!(ids, [1, 2, 3]);
        for (node, id) in [(a, 1), (b, 2), (c, 3)] {
            assert_eq!(g.node_by_identifier(Identifier::new(id)), Some(node));
        }
        assert_eq!(g.node_by_identifier(Identifier::new(7)), None);
        assert_eq!(g.node_by_identifier(Identifier::new(8)), None);
    }

    #[test]
    fn edges_reported_once() {
        let (g, _, _, _) = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn default_id_nodes() {
        let mut g = Graph::new();
        let nodes = g.add_nodes_with_default_ids(4);
        assert_eq!(nodes.len(), 4);
        assert_eq!(g.identifier(nodes[3]), Identifier::new(3));
        assert!(g.has_unique_identifiers());
    }

    #[test]
    fn degree_bounds() {
        let (g, _, _, _) = triangle();
        assert_eq!(g.min_degree(), Some(2));
        assert_eq!(g.max_degree(), Some(2));
    }

    #[test]
    fn display_contains_structure() {
        let (g, _, _, _) = triangle();
        let s = g.to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("v0"));
        assert!(s.contains("#1"));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let g = Graph::with_capacity(16);
        assert!(g.is_empty());
        assert_eq!(g, Graph::new());
    }

    /// A graph on `n` default-id nodes with `edges` added in order.
    fn graph_with(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new();
        g.add_nodes_with_default_ids(n);
        for &(u, v) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        g
    }

    fn indices(nodes: &[NodeId]) -> Vec<usize> {
        nodes.iter().map(|v| v.index()).collect()
    }

    #[test]
    fn port_order_survives_the_move_to_the_heap() {
        // A 7-star whose leaves join the hub out of index order: the hub's
        // list moves to the heap at its fifth neighbour.
        let leaves = [3, 1, 7, 5, 2, 6, 4];
        let star = graph_with(8, &leaves.map(|leaf| (0, leaf)));
        assert_eq!(indices(star.neighbors(NodeId::new(0))), leaves);
        assert_eq!(star.degree(NodeId::new(0)), 7);
        assert_eq!(indices(star.neighbors(NodeId::new(7))), [0]);

        // K6, each edge added from its larger endpoint: every list reaches
        // degree 5, so every list moves.
        let pairs: Vec<(usize, usize)> =
            (0..6).flat_map(|u| (0..u).rev().map(move |v| (u, v))).collect();
        let k6 = graph_with(6, &pairs);
        let ports = [
            [1, 2, 3, 4, 5],
            [0, 2, 3, 4, 5],
            [1, 0, 3, 4, 5],
            [2, 1, 0, 4, 5],
            [3, 2, 1, 0, 5],
            [4, 3, 2, 1, 0],
        ];
        for (u, expected) in ports.iter().enumerate() {
            assert_eq!(indices(k6.neighbors(NodeId::new(u))), expected);
        }
    }

    #[test]
    fn contains_edge_on_both_sides_of_the_inline_boundary() {
        let mut g = graph_with(7, &[(0, 1), (0, 2), (0, 3)]);
        let [hub, a, b, c, d, e, f] = [0, 1, 2, 3, 4, 5, 6].map(NodeId::new);
        for (degree, next) in [(3, d), (4, e), (5, f)] {
            assert_eq!(g.degree(hub), degree);
            assert!(!g.contains_edge(hub, next) && !g.contains_edge(next, hub));
            g.add_edge(hub, next).unwrap();
            for leaf in [a, b, c, next] {
                assert!(g.contains_edge(hub, leaf) && g.contains_edge(leaf, hub));
            }
            assert_eq!(g.add_edge(next, hub), Err(GraphError::DuplicateEdge { u: next, v: hub }));
            assert!(!g.contains_edge(a, next));
        }
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn debug_prints_each_list_as_a_slice() {
        let (g, _, _, _) = triangle();
        assert_eq!(
            format!("{g:?}"),
            "Graph { adjacency: [[NodeId(1), NodeId(2)], [NodeId(0), NodeId(2)], \
             [NodeId(1), NodeId(0)]], identifiers: [Identifier(1), Identifier(2), \
             Identifier(3)], edge_count: 3 }"
        );
        let star = graph_with(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        assert_eq!(
            format!("{star:?}"),
            "Graph { adjacency: [[NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5), \
             NodeId(6)], [NodeId(0)], [NodeId(0)], [NodeId(0)], [NodeId(0)], [NodeId(0)], \
             [NodeId(0)]], identifiers: [Identifier(0), Identifier(1), Identifier(2), \
             Identifier(3), Identifier(4), Identifier(5), Identifier(6)], edge_count: 6 }"
        );
    }

    proptest! {
        /// Inline and heap lists are invisible to every reader: after each
        /// insertion attempt the graph agrees with a plain `Vec<Vec<usize>>`
        /// model, with at most 10 nodes so degrees regularly pass 4.
        #[test]
        fn graph_matches_a_vec_of_vecs_model(
            n in 1usize..11,
            attempts in proptest::collection::vec(0usize..100, 0..41),
        ) {
            let mut g = Graph::new();
            g.add_nodes_with_default_ids(n);
            let mut model: Vec<Vec<usize>> = vec![Vec::new(); n];
            for attempt in attempts {
                let (u, v) = (attempt / 10 % n, attempt % 10 % n);
                let before = g.clone();
                let added = g.add_edge(NodeId::new(u), NodeId::new(v)).is_ok();
                prop_assert_eq!(added, u != v && !model[u].contains(&v));
                if added {
                    model[u].push(v);
                    model[v].push(u);
                }
                prop_assert_eq!(g == before, !added);
                let csr = g.freeze();
                let copy = g.clone();
                prop_assert!(copy == g);
                prop_assert_eq!(&copy.freeze(), &csr);
                let mut edges = Vec::new();
                for (x, list) in model.iter().enumerate() {
                    let node = NodeId::new(x);
                    prop_assert_eq!(&indices(g.neighbors(node)), list);
                    prop_assert_eq!(g.degree(node), list.len());
                    let frozen: Vec<usize> =
                        csr.neighbors(x as u32).iter().map(|&y| y as usize).collect();
                    prop_assert_eq!(&frozen, list);
                    for y in 0..n {
                        prop_assert_eq!(g.contains_edge(node, NodeId::new(y)), list.contains(&y));
                    }
                    edges.extend(list.iter().filter(|&&y| x < y).map(|&y| (x, y)));
                }
                let reported: Vec<(usize, usize)> =
                    g.edges().map(|(a, b)| (a.index(), b.index())).collect();
                prop_assert_eq!(reported, edges);
                prop_assert_eq!(g.edge_count(), g.edges().count());
            }
        }
    }
}
