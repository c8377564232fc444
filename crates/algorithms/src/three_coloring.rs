//! 3-colouring the oriented ring: the Cole–Vishkin pipeline, and a
//! variable-radius colouring in the spirit of the paper's Lemma 2.

use avglocal_graph::{Graph, Identifier, NodeId};
use avglocal_runtime::{
    broadcast, BallAlgorithm, Envelope, Knowledge, LocalView, NodeContext, RoundAlgorithm,
};

use crate::cole_vishkin::{cv_iterations_for_knowledge, cv_step, RingOrientation};
use crate::reduce::free_color;

/// The complete Cole–Vishkin 3-colouring pipeline on an oriented ring, as a
/// message-passing [`RoundAlgorithm`].
///
/// Phases:
///
/// 1. **Cole–Vishkin iterations** (a `log*`-type number of rounds, 4 for
///    64-bit identifiers): every node repeatedly combines its colour with its
///    successor's colour, shrinking the palette to `{0, …, 5}`.
/// 2. **Reduction** (3 rounds): the colour classes 5, 4, 3 are removed one
///    per round, every affected node picking a free colour among `{0, 1, 2}`.
///
/// Every node outputs at round `iterations + 3`, so the per-node radius is
/// `O(log* n)` — the matching upper bound for the paper's Theorem 1. The
/// algorithm needs no knowledge of `n`; it only uses the identifier-space
/// bound (via [`Knowledge::identifier_bound`], defaulting to 64-bit).
///
/// # Examples
///
/// ```
/// use avglocal_algorithms::{verify, ThreeColorRing};
/// use avglocal_algorithms::cole_vishkin::RingOrientation;
/// use avglocal_graph::{generators, IdAssignment};
/// use avglocal_runtime::{Knowledge, SyncExecutor};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(64)?;
/// IdAssignment::Shuffled { seed: 11 }.apply(&mut ring)?;
/// let algo = ThreeColorRing::new(RingOrientation::trace(&ring)?);
/// let run = SyncExecutor::new().run(&ring, &algo, Knowledge::none())?;
/// assert!(verify::is_proper_coloring(&ring, &run.outputs(), 3));
/// assert_eq!(run.decision_rounds().iter().max(), Some(&7)); // 4 CV + 3 reduction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThreeColorRing {
    orientation: RingOrientation,
}

impl ThreeColorRing {
    /// Creates the pipeline for a ring with the given orientation.
    #[must_use]
    pub fn new(orientation: RingOrientation) -> Self {
        ThreeColorRing { orientation }
    }

    /// The orientation the pipeline was built with.
    #[must_use]
    pub fn orientation(&self) -> &RingOrientation {
        &self.orientation
    }
}

/// Per-node state of [`ThreeColorRing`].
#[derive(Debug, Clone)]
pub struct ThreeColorState {
    color: u64,
    /// Port through which the successor is reached.
    successor_port: usize,
}

impl RoundAlgorithm for ThreeColorRing {
    type Message = u64;
    type Output = u64;
    type State = ThreeColorState;

    fn init(&self, ctx: &NodeContext) -> Self::State {
        let successor_id = self
            .orientation
            .successor(ctx.identifier)
            .expect("the orientation must cover every node of the ring");
        let successor_port = ctx
            .neighbor_identifiers
            .iter()
            .position(|&id| id == successor_id)
            .expect("the successor must be one of the two neighbours");
        ThreeColorState { color: ctx.identifier.value(), successor_port }
    }

    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        broadcast(ctx.degree, &state.color)
    }

    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output> {
        let iterations = cv_iterations_for_knowledge(&ctx.knowledge);
        if ctx.round <= iterations {
            // Cole–Vishkin phase: combine with the successor's colour.
            let successor_color = inbox
                .iter()
                .find(|env| env.port == state.successor_port)
                .map(|env| env.payload)
                .expect("the successor sends every round");
            state.color = cv_step(state.color, successor_color);
            None
        } else {
            // Reduction phase: remove classes 5, 4, 3 in successive rounds.
            let class = 5 - (ctx.round - iterations - 1) as u64;
            if state.color == class {
                let neighbor_colors: Vec<u64> = inbox.iter().map(|env| env.payload).collect();
                state.color = free_color(&neighbor_colors, 3)
                    .expect("a ring node has at most 2 neighbours, so a free colour exists");
            }
            (class == 3).then_some(state.color)
        }
    }
}

/// A variable-radius proper 4-colouring of the ring, in the spirit of the
/// paper's Lemma 2 construction.
///
/// *Landmarks* are the nodes whose identifier is a local maximum (larger than
/// both neighbours' identifiers); no two landmarks are adjacent. Every node
/// grows its ball until it can certify its distance `d` to the nearest
/// landmark (and its neighbours' distances), then outputs
///
/// * colour 2 if it is a landmark (`d = 0`),
/// * colour 3 if it ties with a neighbour (`d` equal) and has the larger
///   identifier of the tied pair,
/// * colour `d mod 2` otherwise.
///
/// The interesting property for the paper is the *radius profile*: a node's
/// radius is essentially its distance to the nearest landmark, which is small
/// on average for random identifiers but can be `Θ(n)` for adversarial ones
/// (a monotone identifier sequence has a single landmark). This gives the
/// experiment harness a colouring algorithm whose average and worst-case
/// radii genuinely differ, complementing the constant-radius Cole–Vishkin
/// pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LandmarkColoring;

impl LandmarkColoring {
    /// Computes the final colour of `node` (given by local id) assuming the
    /// view contains enough certified information around it.
    fn color_of(view: &LocalView, node: NodeId) -> Option<u64> {
        let g = view.graph();
        let d = Self::distance_to_landmark(view, node)?;
        if d == 0 {
            return Some(2);
        }
        // Tie detection: a neighbour at the same distance from its own nearest
        // landmark.
        let my_id = g.identifier(node);
        let mut tie_with_smaller = false;
        let mut tie_with_larger = false;
        for &u in g.neighbors(node) {
            let du = Self::distance_to_landmark(view, u)?;
            if du == d {
                if g.identifier(u) < my_id {
                    tie_with_smaller = true;
                } else {
                    tie_with_larger = true;
                }
            }
        }
        if tie_with_smaller && !tie_with_larger {
            Some(3)
        } else {
            Some((d % 2) as u64)
        }
    }

    /// Distance from `node` to its nearest landmark, certified within the
    /// view, or `None` when the view cannot certify it.
    fn distance_to_landmark(view: &LocalView, node: NodeId) -> Option<usize> {
        let g = view.graph();
        // BFS from `node` inside the view graph, looking for certified
        // landmarks; the search is also bounded by the view, so a landmark
        // only counts when every closer node is certified non-landmark.
        let bfs = avglocal_graph::traversal::bfs(g, node);
        let mut candidates: Vec<(usize, NodeId)> =
            g.nodes().filter_map(|v| bfs.distance(v).map(|d| (d, v))).collect();
        candidates.sort_unstable();
        for (d, v) in candidates {
            if g.degree(v) != 2 {
                // Reached the frontier before certifying a landmark: the true
                // nearest landmark might be just outside the view.
                return None;
            }
            let id = g.identifier(v);
            if g.neighbors(v).iter().all(|&u| g.identifier(u) < id) {
                return Some(d);
            }
        }
        None
    }
}

impl BallAlgorithm for LandmarkColoring {
    type Output = u64;

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
        if view.is_saturated() {
            // Whole ring visible: everything is certified.
            return Self::color_of(view, view.center());
        }
        if view.center_degree() != 2 {
            // Not a ring; refuse to colour rather than produce garbage.
            return None;
        }
        Self::color_of(view, view.center())
    }
}

/// Runs the Cole–Vishkin pipeline on `graph` (which must be a cycle) and
/// returns `(colors, decision_rounds)` in node order.
///
/// # Errors
///
/// Returns an error when the graph is not a single cycle or the execution
/// fails.
pub fn run_three_coloring(
    graph: &Graph,
) -> Result<(Vec<u64>, Vec<usize>), avglocal_runtime::RuntimeError> {
    let orientation = RingOrientation::trace(graph)?;
    let algo = ThreeColorRing::new(orientation);
    let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, Knowledge::none())?;
    Ok((run.outputs(), run.decision_rounds()))
}

/// Identifiers of the local-maximum landmarks of a graph, mostly useful for
/// tests and reports about [`LandmarkColoring`].
#[must_use]
pub fn landmarks(graph: &Graph) -> Vec<Identifier> {
    graph
        .nodes()
        .filter(|&v| {
            let id = graph.identifier(v);
            !graph.neighbors(v).is_empty()
                && graph.neighbors(v).iter().all(|&u| graph.identifier(u) < id)
        })
        .map(|v| graph.identifier(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use avglocal_graph::{generators, IdAssignment};
    use avglocal_runtime::{FrozenExecutor, SyncExecutor};

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn cole_vishkin_produces_proper_three_coloring() {
        for n in [3usize, 4, 5, 8, 16, 33, 100] {
            for seed in 0..3u64 {
                let g = ring(n, seed);
                let (colors, rounds) = run_three_coloring(&g).unwrap();
                assert!(
                    verify::is_proper_coloring(&g, &colors, 3),
                    "n={n} seed={seed} colors={colors:?}"
                );
                // Every node decides at exactly 4 + 3 rounds (64-bit budget).
                assert!(rounds.iter().all(|&r| r == 7), "n={n} rounds={rounds:?}");
            }
        }
    }

    #[test]
    fn cole_vishkin_with_identifier_bound_is_faster() {
        let g = ring(32, 5);
        let orientation = RingOrientation::trace(&g).unwrap();
        let algo = ThreeColorRing::new(orientation);
        let knowledge = Knowledge::none().and_identifier_bound(31);
        let run = SyncExecutor::new().run(&g, &algo, knowledge).unwrap();
        assert!(verify::is_proper_coloring(&g, &run.outputs(), 3));
        // 5-bit identifiers need 3 CV iterations instead of 4.
        assert!(run.decision_rounds().iter().all(|&r| r == 6));
    }

    #[test]
    fn cole_vishkin_on_identity_and_reversed_rings() {
        for assignment in [IdAssignment::Identity, IdAssignment::Reversed] {
            let mut g = generators::cycle(40).unwrap();
            assignment.apply(&mut g).unwrap();
            let (colors, _) = run_three_coloring(&g).unwrap();
            assert!(verify::is_proper_coloring(&g, &colors, 3));
        }
    }

    #[test]
    fn landmark_coloring_is_proper_on_random_rings() {
        for n in [4usize, 5, 9, 16, 40, 101] {
            for seed in 0..4u64 {
                let g = ring(n, seed);
                let run =
                    FrozenExecutor::new(&g).run(&LandmarkColoring, Knowledge::none()).unwrap();
                assert!(
                    verify::is_proper_coloring(&g, run.outputs(), 4),
                    "n={n} seed={seed} colors={:?}",
                    run.outputs()
                );
            }
        }
    }

    #[test]
    fn landmark_coloring_handles_monotone_identifiers() {
        // Identity assignment has a single landmark (node n-1), the hardest
        // case: some radii become linear but the colouring stays proper.
        let g = {
            let mut g = generators::cycle(24).unwrap();
            IdAssignment::Identity.apply(&mut g).unwrap();
            g
        };
        let run = FrozenExecutor::new(&g).run(&LandmarkColoring, Knowledge::none()).unwrap();
        assert!(verify::is_proper_coloring(&g, run.outputs(), 4));
        assert_eq!(landmarks(&g).len(), 1);
        assert!(run.max_radius() >= 6);
    }

    #[test]
    fn landmark_radius_profile_varies() {
        let g = ring(200, 9);
        let run = FrozenExecutor::new(&g).run(&LandmarkColoring, Knowledge::none()).unwrap();
        assert!(run.max_radius() > 2);
        assert!(run.average_radius() < run.max_radius() as f64);
    }

    #[test]
    fn landmarks_are_never_adjacent() {
        for seed in 0..5u64 {
            let g = ring(50, seed);
            let marks = landmarks(&g);
            for v in g.nodes() {
                if marks.contains(&g.identifier(v)) {
                    for &u in g.neighbors(v) {
                        assert!(!marks.contains(&g.identifier(u)));
                    }
                }
            }
        }
    }

    #[test]
    fn three_coloring_rejects_non_cycles() {
        let g = generators::path(6).unwrap();
        assert!(run_three_coloring(&g).is_err());
    }
}
