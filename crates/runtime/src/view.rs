//! The local view an algorithm sees: identifiers only, no global names.
//!
//! [`LocalView`] is the runtime's representation of "the ball of radius `r`
//! around me" from the point of view of the node itself. Unlike
//! [`avglocal_graph::Ball`], which indexes nodes by their simulator-level
//! [`NodeId`]s, a `LocalView` is expressed purely in terms of the identifiers
//! and adjacency the node could actually have learnt through communication —
//! this is what keeps ball-view algorithms honest.
//!
//! The view is **lazy**: when it is backed by the incremental
//! [`BallGrower`], the `O(1)` queries the common algorithms ask at every
//! radius (centre identifier, running maximum, saturation, node count) are
//! answered straight from the grower's state, and the induced subgraph is
//! only materialised if an algorithm actually asks for it
//! ([`LocalView::graph`] and friends). This is what keeps the per-probe cost
//! of the ball executor proportional to the *growth* of the ball instead of
//! its size.

use std::cell::OnceCell;
use std::collections::BTreeMap;

use avglocal_graph::{traversal, Ball, BallGrower, Graph, Identifier, NodeId};

/// Everything a node knows after gathering a ball of some radius.
///
/// A `LocalView` can be produced in three ways that must agree (and are
/// tested to agree):
///
/// * by the ball executor, straight from the incremental grower
///   ([`LocalView::from_grower`]);
/// * from a materialised [`Ball`] extracted from the host graph
///   ([`LocalView::from_ball`]); or
/// * by the message-passing gather adapter, from the records flooded through
///   the network ([`LocalView::from_records`]).
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, extract_ball, NodeId};
/// use avglocal_runtime::LocalView;
///
/// # fn main() -> Result<(), avglocal_graph::GraphError> {
/// let ring = generators::cycle(8)?;
/// let ball = extract_ball(&ring, NodeId::new(3), 2);
/// let view = LocalView::from_ball(&ball);
/// assert_eq!(view.radius(), 2);
/// assert_eq!(view.node_count(), 5);
/// assert!(!view.is_saturated());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalView<'a> {
    /// Radius the view was gathered at.
    radius: usize,
    /// Whether the view covers the centre's whole connected component.
    saturated: bool,
    backing: Backing<'a>,
}

/// Fully materialised view data: the reconstructed subgraph in local ids.
#[derive(Debug, Clone)]
struct OwnedView {
    /// Reconstructed subgraph; node ids are local to this view.
    graph: Graph,
    /// The centre node in the local graph.
    center: NodeId,
    /// Distance from the centre for every local node.
    distances: Vec<usize>,
}

/// The materialised data is boxed, so dropping a grower-backed view that
/// never materialised inlines to one check: the probe loop drops a view at
/// every growth step.
#[derive(Debug, Clone)]
enum Backing<'a> {
    /// Eagerly materialised (from a [`Ball`] or from flooded records).
    Owned(Box<OwnedView>),
    /// Backed by the incremental grower; the subgraph is materialised only on
    /// first demand.
    Grower { grower: &'a BallGrower<'a>, materialized: OnceCell<Box<OwnedView>> },
}

impl OwnedView {
    fn from_ball(ball: &Ball) -> Self {
        let graph = ball.to_subgraph();
        let distances = ball
            .members()
            .iter()
            .map(|&v| ball.distance_to(v).expect("members always have a distance"))
            .collect();
        OwnedView { graph, center: NodeId::new(0), distances }
    }
}

impl<'a> LocalView<'a> {
    /// Builds a lazily materialised view of the grower's current ball.
    ///
    /// All `O(1)` queries (radius, saturation, centre identifier, maximum
    /// identifier, node count) are answered from the grower without copying;
    /// the induced subgraph is snapshotted only if asked for.
    #[inline]
    #[must_use]
    pub fn from_grower(grower: &'a BallGrower<'a>) -> LocalView<'a> {
        LocalView {
            radius: grower.radius(),
            saturated: grower.is_saturated(),
            backing: Backing::Grower { grower, materialized: OnceCell::new() },
        }
    }

    /// Builds a view from a [`Ball`] extracted from the host graph.
    #[must_use]
    pub fn from_ball(ball: &Ball) -> LocalView<'static> {
        LocalView {
            radius: ball.radius(),
            saturated: ball.is_saturated(),
            backing: Backing::Owned(Box::new(OwnedView::from_ball(ball))),
        }
    }

    /// Builds a view from flooded *records*.
    ///
    /// `records` maps the identifier of every node within distance `radius`
    /// of the centre to the identifiers of all of that node's neighbours
    /// (which may include identifiers outside the ball). This is exactly the
    /// information a node holds after `radius` rounds of full-information
    /// flooding.
    ///
    /// # Panics
    ///
    /// Panics if `center` is not among the record keys.
    #[must_use]
    pub fn from_records(
        center: Identifier,
        records: &BTreeMap<Identifier, Vec<Identifier>>,
        radius: usize,
    ) -> LocalView<'static> {
        assert!(records.contains_key(&center), "the centre must have a record of itself");
        let mut graph = Graph::with_capacity(records.len());
        let mut local_of: BTreeMap<Identifier, NodeId> = BTreeMap::new();
        for id in records.keys() {
            local_of.insert(*id, graph.add_node(*id));
        }
        // Edges: those with both endpoints inside the ball. Each such edge
        // appears in at least one endpoint's record.
        for (id, neighbors) in records {
            let u = local_of[id];
            for nbr in neighbors {
                if let Some(&v) = local_of.get(nbr) {
                    if !graph.contains_edge(u, v) {
                        graph.add_edge(u, v).expect("records describe a simple graph");
                    }
                }
            }
        }
        // Saturated iff no record mentions an identifier outside the ball.
        let saturated = records.values().all(|nbrs| nbrs.iter().all(|id| records.contains_key(id)));
        let center_local = local_of[&center];
        let bfs = traversal::bfs(&graph, center_local);
        let distances = graph.nodes().map(|v| bfs.distance(v).unwrap_or(usize::MAX)).collect();
        LocalView {
            radius,
            saturated,
            backing: Backing::Owned(Box::new(OwnedView { graph, center: center_local, distances })),
        }
    }

    /// The materialised view data, built on first demand for grower-backed
    /// views.
    fn owned(&self) -> &OwnedView {
        match &self.backing {
            Backing::Owned(owned) => owned,
            Backing::Grower { grower, materialized } => {
                materialized.get_or_init(|| Box::new(OwnedView::from_ball(&grower.snapshot_ball())))
            }
        }
    }

    /// The reconstructed subgraph (local node ids, original identifiers).
    ///
    /// For grower-backed views this materialises the induced subgraph on
    /// first call; the cheap queries below never do.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.owned().graph
    }

    /// The centre node, in local ids.
    #[inline]
    #[must_use]
    pub fn center(&self) -> NodeId {
        match &self.backing {
            Backing::Owned(owned) => owned.center,
            // Grower snapshots list the centre first.
            Backing::Grower { .. } => NodeId::new(0),
        }
    }

    /// Identifier of the centre node.
    #[inline]
    #[must_use]
    pub fn center_identifier(&self) -> Identifier {
        match &self.backing {
            Backing::Owned(owned) => owned.graph.identifier(owned.center),
            Backing::Grower { grower, .. } => grower.center_identifier(),
        }
    }

    /// Degree of the centre node *inside the view*.
    #[inline]
    #[must_use]
    pub fn center_degree(&self) -> usize {
        match &self.backing {
            Backing::Owned(owned) => owned.graph.degree(owned.center),
            Backing::Grower { grower, .. } => {
                // At radius 0 the induced subgraph is the lone centre; from
                // radius 1 on, every host neighbour is inside the ball.
                if self.radius == 0 {
                    0
                } else {
                    grower.center_host_degree()
                }
            }
        }
    }

    /// Radius the view was gathered at.
    #[inline]
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of nodes visible in the view.
    #[inline]
    #[must_use]
    pub fn node_count(&self) -> usize {
        match &self.backing {
            Backing::Owned(owned) => owned.graph.node_count(),
            Backing::Grower { grower, .. } => grower.node_count(),
        }
    }

    /// Whether the view covers the whole connected component of the centre,
    /// i.e. growing the radius further cannot reveal anything new.
    #[inline]
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Distance from the centre of the local node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of the view.
    #[must_use]
    pub fn distance_of(&self, v: NodeId) -> usize {
        match &self.backing {
            Backing::Owned(owned) => owned.distances[v.index()],
            Backing::Grower { grower, .. } => grower.distance_of_index(v.index()),
        }
    }

    /// All identifiers visible in the view, in ascending order.
    #[must_use]
    pub fn sorted_identifiers(&self) -> Vec<Identifier> {
        let mut ids: Vec<Identifier> = match &self.backing {
            Backing::Owned(owned) => owned.graph.identifiers().collect(),
            Backing::Grower { grower, .. } => grower.identifiers().collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// The largest identifier visible in the view.
    ///
    /// `O(1)` on grower-backed views — the grower maintains the running
    /// maximum, which is all the largest-ID algorithm ever needs.
    #[inline]
    #[must_use]
    pub fn max_identifier(&self) -> Identifier {
        match &self.backing {
            Backing::Owned(owned) => {
                owned.graph.identifiers().max().expect("a view always contains its centre")
            }
            Backing::Grower { grower, .. } => grower.max_identifier(),
        }
    }

    /// Returns `true` when the centre's identifier is the maximum of all
    /// identifiers visible in the view.
    #[inline]
    #[must_use]
    pub fn center_has_max_identifier(&self) -> bool {
        self.center_identifier() == self.max_identifier()
    }

    /// Returns `true` when `id` is visible in the view.
    #[must_use]
    pub fn contains_identifier(&self, id: Identifier) -> bool {
        match &self.backing {
            Backing::Owned(owned) => owned.graph.node_by_identifier(id).is_some(),
            Backing::Grower { grower, .. } => grower.identifiers().any(|x| x == id),
        }
    }

    /// Identifiers of the nodes at exactly distance `d` from the centre.
    #[must_use]
    pub fn identifiers_at_distance(&self, d: usize) -> Vec<Identifier> {
        let mut ids: Vec<Identifier> = match &self.backing {
            Backing::Owned(owned) => owned
                .graph
                .nodes()
                .filter(|v| owned.distances[v.index()] == d)
                .map(|v| owned.graph.identifier(v))
                .collect(),
            Backing::Grower { grower, .. } => grower.ring_identifiers(d).collect(),
        };
        ids.sort_unstable();
        ids
    }

    /// Walks away from the centre along one of its incident edges without
    /// backtracking and returns the identifiers encountered, in order of
    /// increasing distance.
    ///
    /// `direction` indexes the centre's neighbours in port order. The walk is
    /// only defined when the nodes traversed have degree at most 2 (paths and
    /// cycles), which is the paper's setting; it stops at the edge of the
    /// view, at an endpoint, or when it wraps back to the centre.
    ///
    /// # Panics
    ///
    /// Panics if `direction >= self.center_degree()` or if the walk reaches a
    /// node of degree greater than 2.
    #[must_use]
    pub fn arm_identifiers(&self, direction: usize) -> Vec<Identifier> {
        let owned = self.owned();
        let first = owned.graph.neighbors(owned.center)[direction];
        avglocal_graph::arm(
            &owned.graph,
            owned.center,
            first,
            self.radius.max(owned.graph.node_count()),
        )
        .into_iter()
        .map(|v| owned.graph.identifier(v))
        .collect()
    }

    /// A canonical fingerprint of the view: (centre id, radius, saturation,
    /// sorted identifiers at each distance). Two views with the same
    /// fingerprint are indistinguishable to any deterministic algorithm that
    /// treats the topology up to isomorphism fixing the centre.
    #[must_use]
    pub fn fingerprint(&self) -> (Identifier, usize, bool, Vec<Vec<Identifier>>) {
        let max_d = match &self.backing {
            Backing::Owned(owned) => {
                owned.distances.iter().copied().filter(|&d| d != usize::MAX).max().unwrap_or(0)
            }
            // The last published member lies in the outermost non-empty ring.
            Backing::Grower { grower, .. } => grower.distance_of_index(grower.node_count() - 1),
        };
        let by_distance = (0..=max_d).map(|d| self.identifiers_at_distance(d)).collect();
        (self.center_identifier(), self.radius, self.saturated, by_distance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{extract_ball, generators, IdAssignment};

    fn ring_view(n: usize, center: usize, radius: usize) -> LocalView<'static> {
        let g = generators::cycle(n).unwrap();
        LocalView::from_ball(&extract_ball(&g, NodeId::new(center), radius))
    }

    #[test]
    fn from_ball_basic_properties() {
        let v = ring_view(10, 0, 3);
        assert_eq!(v.radius(), 3);
        assert_eq!(v.node_count(), 7);
        assert_eq!(v.center_identifier(), Identifier::new(0));
        assert_eq!(v.center_degree(), 2);
        assert!(!v.is_saturated());
        assert_eq!(v.distance_of(v.center()), 0);
    }

    #[test]
    fn saturation_when_ball_covers_cycle() {
        let v = ring_view(7, 2, 3);
        assert!(v.is_saturated());
        assert_eq!(v.node_count(), 7);
    }

    #[test]
    fn max_identifier_queries() {
        let mut g = generators::cycle(8).unwrap();
        IdAssignment::Reversed.apply(&mut g).unwrap();
        let view = LocalView::from_ball(&extract_ball(&g, NodeId::new(0), 2));
        // Node 0 carries identifier 7, the global maximum.
        assert!(view.center_has_max_identifier());
        assert_eq!(view.max_identifier(), Identifier::new(7));
        assert!(view.contains_identifier(Identifier::new(6)));
        assert!(!view.contains_identifier(Identifier::new(3)));
    }

    #[test]
    fn identifiers_at_distance_on_ring() {
        let v = ring_view(12, 4, 2);
        assert_eq!(v.identifiers_at_distance(0), vec![Identifier::new(4)]);
        assert_eq!(v.identifiers_at_distance(1), vec![Identifier::new(3), Identifier::new(5)]);
        assert_eq!(v.identifiers_at_distance(2), vec![Identifier::new(2), Identifier::new(6)]);
        assert!(v.identifiers_at_distance(3).is_empty());
    }

    #[test]
    fn arms_walk_both_directions() {
        let v = ring_view(12, 4, 3);
        let a = v.arm_identifiers(0);
        let b = v.arm_identifiers(1);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        // The two arms are disjoint and together cover every non-centre node.
        let mut all: Vec<Identifier> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn from_records_matches_from_ball_fingerprint() {
        let g = generators::cycle(9).unwrap();
        for center in 0..9usize {
            for radius in 0..6usize {
                let ball = extract_ball(&g, NodeId::new(center), radius);
                let via_ball = LocalView::from_ball(&ball);

                // Build the records a node would hold after `radius` rounds of
                // flooding: every member's identifier mapped to its full
                // neighbour identifier list in the host graph.
                let mut records = BTreeMap::new();
                for &m in ball.members() {
                    let nbrs = g.neighbors(m).iter().map(|&u| g.identifier(u)).collect();
                    records.insert(g.identifier(m), nbrs);
                }
                let via_records =
                    LocalView::from_records(g.identifier(NodeId::new(center)), &records, radius);

                assert_eq!(via_ball.fingerprint(), via_records.fingerprint());
                assert_eq!(via_ball.is_saturated(), via_records.is_saturated());
            }
        }
    }

    #[test]
    fn from_grower_matches_from_ball_exactly() {
        let mut g = generators::cycle(10).unwrap();
        IdAssignment::Shuffled { seed: 4 }.apply(&mut g).unwrap();
        let csr = g.freeze();
        for center in 0..10usize {
            let mut grower = avglocal_graph::BallGrower::new(&csr, NodeId::new(center));
            for radius in 0..7usize {
                if radius > 0 {
                    grower.grow();
                }
                let lazy = LocalView::from_grower(&grower);
                let eager = LocalView::from_ball(&extract_ball(&g, NodeId::new(center), radius));
                assert_eq!(lazy.fingerprint(), eager.fingerprint());
                assert_eq!(lazy.node_count(), eager.node_count());
                assert_eq!(lazy.center_degree(), eager.center_degree());
                assert_eq!(lazy.max_identifier(), eager.max_identifier());
                assert_eq!(lazy.center(), eager.center());
                assert_eq!(lazy.sorted_identifiers(), eager.sorted_identifiers());
                // Materialisation on demand agrees too.
                assert_eq!(lazy.graph(), eager.graph());
                for v in lazy.graph().nodes() {
                    assert_eq!(lazy.distance_of(v), eager.distance_of(v));
                }
            }
        }
    }

    #[test]
    fn grower_backed_arm_walks() {
        let g = generators::cycle(9).unwrap();
        let csr = g.freeze();
        let mut grower = avglocal_graph::BallGrower::new(&csr, NodeId::new(4));
        grower.grow();
        grower.grow();
        let lazy = LocalView::from_grower(&grower);
        let eager = LocalView::from_ball(&extract_ball(&g, NodeId::new(4), 2));
        assert_eq!(lazy.arm_identifiers(0), eager.arm_identifiers(0));
        assert_eq!(lazy.arm_identifiers(1), eager.arm_identifiers(1));
    }

    #[test]
    fn from_records_detects_saturation() {
        let g = generators::cycle(5).unwrap();
        let mut records = BTreeMap::new();
        for v in g.nodes() {
            records
                .insert(g.identifier(v), g.neighbors(v).iter().map(|&u| g.identifier(u)).collect());
        }
        let view = LocalView::from_records(Identifier::new(2), &records, 2);
        assert!(view.is_saturated());
        assert_eq!(view.node_count(), 5);
    }

    #[test]
    fn sorted_identifiers_are_sorted() {
        let v = ring_view(10, 5, 2);
        let ids = v.sorted_identifiers();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), 5);
    }

    #[test]
    #[should_panic(expected = "centre must have a record")]
    fn from_records_requires_center_record() {
        let records = BTreeMap::new();
        let _ = LocalView::from_records(Identifier::new(0), &records, 1);
    }
}
