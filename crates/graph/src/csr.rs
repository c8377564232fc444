//! Compressed sparse row (CSR) adjacency snapshots.
//!
//! [`Graph`] stores adjacency as one list per node, which is the right shape
//! for incremental construction but the wrong one for traversal-heavy hot
//! loops: every node takes a 40-byte slot whatever its degree, and a list
//! longer than 4 lives on the heap behind a pointer. [`CsrGraph`] is the
//! frozen, read-only counterpart — two flat arrays (`offsets`, `targets`)
//! plus the identifier table — produced once per execution by
//! [`Graph::freeze`] and shared immutably by every worker thread. Port order
//! (the neighbour order of the source graph) is preserved exactly, so
//! anything derived from a CSR snapshot matches the `Graph`-based code paths
//! node for node.
//!

use std::sync::Arc;

use crate::{Graph, IdAssignment, Identifier, NodeId};

/// A frozen adjacency snapshot of a [`Graph`] in compressed sparse row form.
///
/// Node `v`'s neighbours are `targets[offsets[v] .. offsets[v + 1]]`, in the
/// same port order as [`Graph::neighbors`]. Indices are `u32`, which halves
/// the memory traffic of the hot traversal loops; graphs with more than
/// `u32::MAX - 1` nodes are rejected by [`Graph::freeze`].
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let g = generators::cycle(8)?;
/// let csr = g.freeze();
/// assert_eq!(csr.node_count(), 8);
/// assert_eq!(csr.degree(0), 2);
/// assert_eq!(csr.neighbors(0), &[1, 7]);
/// assert_eq!(csr.identifier(3), g.identifier(NodeId::new(3)));
/// # Ok(())
/// # }
/// ```
/// The adjacency is immutable once frozen and shared behind an [`Arc`], so
/// cloning a snapshot — how each participant of an identifier-assignment
/// sweep gets its session, whose table every trial then rewrites in place
/// with [`CsrGraph::try_assign`] — copies only the `O(n)` identifier table,
/// never the `O(n + m)` edge arrays.
///
/// A snapshot is valid by construction: [`Graph::freeze`] copies a simple
/// graph, the decoder ([`crate::snapshot`]) checks untrusted arrays before
/// it builds one, and nothing afterwards changes the adjacency. Nothing
/// checks a built snapshot again.
///
/// A snapshot carries no component labelling: per-component runs compute
/// one with [`crate::ComponentLabels::of_graph`] from the graph they froze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v] .. offsets[v + 1]` brackets node `v`'s slice of `targets`.
    offsets: Arc<[u32]>,
    /// Concatenated neighbour lists, in port order.
    targets: Arc<[u32]>,
    /// Identifier of each node, indexed by node.
    identifiers: Vec<Identifier>,
    /// The largest degree, which bounds how far one ring of a ball can grow.
    max_degree: usize,
}

impl CsrGraph {
    /// Builds the snapshot; called through [`Graph::freeze`]: one
    /// left-to-right pass over the adjacency lists.
    ///
    /// # Panics
    ///
    /// Panics when the graph has `u32::MAX` nodes or more, or when its
    /// directed edge count `2·m` exceeds `u32::MAX` (dense graphs can hit the
    /// edge limit well below the node limit).
    #[must_use]
    pub(crate) fn from_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "CSR snapshots index nodes with u32; {n} nodes do not fit"
        );
        let directed_edges = 2 * graph.edge_count();
        assert!(
            u32::try_from(directed_edges).is_ok(),
            "CSR snapshots index edge offsets with u32; {directed_edges} edge endpoints do not fit"
        );
        // Both arrays are written in their shared allocations: no growing
        // `Vec` and no copy into an `Arc` afterwards.
        let mut offsets: Arc<[u32]> = std::iter::repeat_n(0, n + 1).collect();
        let mut targets: Arc<[u32]> = std::iter::repeat_n(0, directed_edges).collect();
        let fresh = "a freshly collected slice has no other owner";
        let offset_slots = Arc::get_mut(&mut offsets).expect(fresh);
        let target_slots = Arc::get_mut(&mut targets).expect(fresh);
        let mut end = 0;
        for v in graph.nodes() {
            for &u in graph.neighbors(v) {
                target_slots[end] = u.index() as u32;
                end += 1;
            }
            offset_slots[v.index() + 1] = end as u32;
        }
        CsrGraph::from_parts(offsets, targets, graph.identifiers().collect())
    }

    /// Assembles a snapshot from raw arrays — the one constructor. The
    /// arrays are not validated: [`CsrGraph::from_graph`] builds valid ones,
    /// and the snapshot decoder ([`crate::snapshot`]) checks them first.
    pub(crate) fn from_parts(
        offsets: Arc<[u32]>,
        targets: Arc<[u32]>,
        identifiers: Vec<Identifier>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), identifiers.len() + 1);
        let degrees =
            offsets.iter().zip(&offsets[1..]).map(|(start, end)| end.wrapping_sub(*start));
        let max_degree = degrees.max().unwrap_or(0) as usize;
        CsrGraph { offsets, targets, identifiers, max_degree }
    }

    /// Number of nodes.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The largest degree of any node (0 for an empty or edgeless graph).
    #[inline]
    pub(crate) fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbours of node `v`, in port order.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The raw offset array (`offsets[v] .. offsets[v + 1]` brackets node
    /// `v`'s slice of [`CsrGraph::targets`]).
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbour lists, in port order.
    #[must_use]
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// Identifier of node `v`.
    #[inline]
    #[must_use]
    pub fn identifier(&self, v: u32) -> Identifier {
        self.identifiers[v as usize]
    }

    /// All identifiers, indexed by node.
    #[inline]
    #[must_use]
    pub fn identifiers(&self) -> &[Identifier] {
        &self.identifiers
    }

    /// Host [`NodeId`] of CSR node `v`.
    #[must_use]
    pub fn node_id(&self, v: u32) -> NodeId {
        NodeId::new(v as usize)
    }

    /// Iterator over all undirected edges as `(u, v)` node-index pairs with
    /// `u < v`, in node order — the edge stream the measure layer folds over.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.node_count() as u32).flat_map(move |v| {
            self.neighbors(v).iter().copied().filter_map(move |u| (v < u).then_some((v, u)))
        })
    }

    /// Replaces the identifier table, keeping the frozen adjacency.
    ///
    /// Experiment trials vary only the identifier assignment, so a session
    /// can reuse one adjacency snapshot across trials and swap the `O(n)`
    /// identifier table instead of re-freezing the `O(n + m)` structure.
    ///
    /// # Panics
    ///
    /// Panics when `identifiers` does not provide exactly one identifier per
    /// node. [`CsrGraph::try_assign`] writes an assignment policy's table in
    /// place and reports a wrong-length permutation instead.
    pub fn set_identifiers(&mut self, identifiers: &[Identifier]) {
        assert!(
            identifiers.len() == self.node_count(),
            "identifier table must cover every node exactly once ({} identifiers for {} nodes)",
            identifiers.len(),
            self.node_count()
        );
        self.identifiers.copy_from_slice(identifiers);
    }

    /// Writes `assignment`'s identifier table over `0..n` straight into the
    /// snapshot ([`IdAssignment::write_identifiers`]), keeping the frozen
    /// adjacency: the table [`CsrGraph::set_identifiers`] would install,
    /// with no table built first.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::AssignmentLengthMismatch`] (leaving the
    /// snapshot unchanged) when an explicit permutation does not have
    /// exactly one entry per node.
    pub fn try_assign(&mut self, assignment: &IdAssignment) -> crate::Result<()> {
        assignment.write_identifiers(&mut self.identifiers, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn csr_mirrors_graph_adjacency() {
        let graphs = [
            generators::cycle(9).unwrap(),
            generators::path(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::complete(6).unwrap(),
            generators::petersen(),
        ];
        for g in &graphs {
            assert_mirrors(g, &g.freeze());
        }
    }

    /// Node and edge counts, every neighbour list in port order, degrees and
    /// identifiers of `csr` equal those of `g`.
    fn assert_mirrors(g: &Graph, csr: &CsrGraph) {
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for v in g.nodes() {
            let expected: Vec<u32> = g.neighbors(v).iter().map(|u| u.index() as u32).collect();
            assert_eq!(csr.neighbors(v.index() as u32), expected.as_slice());
            assert_eq!(csr.degree(v.index() as u32), g.degree(v));
            assert_eq!(csr.identifier(v.index() as u32), g.identifier(v));
        }
    }

    #[test]
    fn empty_graph_freezes() {
        let csr = Graph::new().freeze();
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert!(csr.identifiers().is_empty());
    }

    #[test]
    fn parallel_build_matches_serial_on_every_small_family() {
        let graphs = [
            generators::cycle(9).unwrap(),
            generators::path(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::complete(6).unwrap(),
            generators::star(7).unwrap(),
            Graph::new(),
        ];
        for g in &graphs {
            assert_mirrors(g, &g.freeze());
        }
    }

    #[test]
    fn parallel_build_matches_serial_above_the_cutoff() {
        // 2^13 nodes: the size from which `Graph::freeze` used to switch to
        // a separate parallel build.
        let g = generators::cycle(1 << 13).unwrap();
        assert_mirrors(&g, &g.freeze());
    }

    #[test]
    fn edges_iterate_each_edge_once() {
        let g = generators::grid(3, 4).unwrap();
        let csr = g.freeze();
        let edges: Vec<(u32, u32)> = csr.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(g.contains_edge(NodeId::new(u as usize), NodeId::new(v as usize)));
        }
    }

    #[test]
    fn disconnected_snapshot_reports_components() {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(crate::Identifier::new(i));
        }
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(3), NodeId::new(4)).unwrap();
        // The snapshot mirrors its disconnected source; the labelling comes
        // from the source graph, since snapshots carry none.
        assert_mirrors(&g, &g.freeze());
        let labels = crate::ComponentLabels::of_graph(&g);
        assert_eq!(labels.count(), 4);
        assert_eq!(labels.sizes(), &[2, 1, 2, 1]);
    }

    #[test]
    fn set_identifiers_swaps_the_table_only() {
        let g = generators::cycle(5).unwrap();
        let mut csr = g.freeze();
        let reversed: Vec<Identifier> = (0..5).rev().map(Identifier::new).collect();
        csr.set_identifiers(&reversed);
        assert_eq!(csr.identifier(0), Identifier::new(4));
        assert_eq!(csr.identifiers(), reversed.as_slice());
        // Adjacency untouched.
        assert_eq!(csr.neighbors(0), g.freeze().neighbors(0));
    }

    #[test]
    #[should_panic(expected = "identifier table must cover every node")]
    fn set_identifiers_rejects_wrong_length() {
        let mut csr = generators::cycle(4).unwrap().freeze();
        csr.set_identifiers(&[Identifier::new(0)]);
    }

    #[test]
    fn clones_share_the_adjacency_arrays() {
        let csr = generators::cycle(6).unwrap().freeze();
        let mut clone = csr.clone();
        // The adjacency is behind an Arc: a clone points at the same arrays…
        assert!(std::ptr::eq(csr.neighbors(0).as_ptr(), clone.neighbors(0).as_ptr()));
        // …while the identifier table stays independent.
        clone.set_identifiers(&(0..6).rev().map(Identifier::new).collect::<Vec<_>>());
        assert_ne!(csr.identifier(0), clone.identifier(0));
        assert_eq!(csr.neighbors(3), clone.neighbors(3));
    }

    #[test]
    fn node_id_round_trip() {
        let g = generators::cycle(4).unwrap();
        let csr = g.freeze();
        assert_eq!(csr.node_id(3), NodeId::new(3));
    }
}
