//! The ball-view executor: a session that freezes the graph once and reuses
//! everything.
//!
//! [`FrozenExecutor`] owns the [`CsrGraph`] and a pool of detached
//! [`GrowerScratch`](avglocal_graph::GrowerScratch) buffers, so after the
//! first probe each [`FrozenExecutor::run_node_with`] costs only
//! `Θ(ball(v))`, and repeated [`FrozenExecutor::run`] /
//! [`FrozenExecutor::run_nodes_with`] calls hand the same warmed buffers to
//! the worker pool's participants. Each participant builds one
//! [`BallGrower`] on its buffer and re-centres it for every node it claims.
//! Probing a node at radii `0, 1, …, r(v)` costs `Θ(ball(v))` edges in total
//! (one incremental grower) instead of the `Θ(r(v)²)` a from-scratch
//! extraction per probe would cost.
//!
//! Experiment trials vary only the identifier assignment, never the
//! adjacency, so a session rewrites its identifier table in place in `O(n)`
//! via [`FrozenExecutor::try_assign`] instead of re-freezing.
//!
//! Every probe of the runtime runs through this module: one probe loop
//! (grow the ball until the algorithm decides, polling an optional
//! cancellation hook once per growth step) and one node loop (slot `i`
//! answers the `i`-th requested node). Under [`Scheduling::WorkStealing`]
//! the persistent worker pool hands out fine-grained index chunks from an
//! atomic cursor, so on the paper's skewed workloads — one `Θ(n)` node among
//! `n - 1` cheap ones — the expensive node stalls only its own chunk while
//! the other participants steal the rest. Results land in index-addressed
//! slots and a full run reports the first error in node order, so outputs,
//! radii and error selection are bit-identical to the left-to-right
//! reference ([`Scheduling::Sequential`]) no matter how chunks are stolen.

use std::convert::identity;
use std::fmt;

use avglocal_graph::{BallGrower, CsrGraph, Graph, GraphError, IdAssignment, Identifier, NodeId};
use rayon::prelude::*;

use crate::algorithm::BallAlgorithm;
use crate::ball_executor::{collect_execution, BallExecution, Scheduling};
use crate::error::{Result, RuntimeError};
use crate::knowledge::Knowledge;
use crate::scratch::{PooledScratch, ScratchPool};
use crate::view::LocalView;

/// Options of a single-node probe ([`FrozenExecutor::run_node_with`]).
///
/// The default options probe to completion with no cancellation hook.
#[derive(Default)]
pub struct ProbeOptions<'c> {
    cancel: Option<&'c mut dyn FnMut(usize) -> bool>,
}

impl<'c> ProbeOptions<'c> {
    /// Options that probe to completion (no cancellation).
    #[must_use]
    pub fn new() -> Self {
        ProbeOptions::default()
    }

    /// Polls `cancel` cooperatively once per ball-growth step, with the
    /// radius the probe is about to inspect; a `true` return stops the probe
    /// with [`RuntimeError::Cancelled`]. A hook that never fires leaves the
    /// probe bit-identical to the hook-less options.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'c mut dyn FnMut(usize) -> bool) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl fmt::Debug for ProbeOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeOptions").field("cancel", &self.cancel.is_some()).finish()
    }
}

/// Options of a multi-node probe ([`FrozenExecutor::run_nodes_with`]): an
/// optional shared cancellation hook polled by every participant. The
/// session's [`Scheduling`] decides how the node set is distributed.
#[derive(Clone, Copy, Default)]
pub struct NodeBatchOptions<'c> {
    cancel: Option<&'c (dyn Fn(usize) -> bool + Sync)>,
}

impl<'c> NodeBatchOptions<'c> {
    /// Options that probe every node to completion (no cancellation).
    #[must_use]
    pub fn new() -> Self {
        NodeBatchOptions::default()
    }

    /// A shared cancellation hook, polled cooperatively by **every**
    /// participant once per ball-growth step — the batch-wide deadline seam
    /// of the service layer. Cancelled probes report
    /// [`RuntimeError::Cancelled`] in their result slot; completed slots are
    /// unaffected and stay bit-identical to an uncancelled run.
    #[must_use]
    pub fn with_cancel(mut self, cancel: &'c (dyn Fn(usize) -> bool + Sync)) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

impl fmt::Debug for NodeBatchOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeBatchOptions").field("cancel", &self.cancel.is_some()).finish()
    }
}

/// Executor for [`BallAlgorithm`]s: a reusable session over one frozen
/// graph snapshot.
///
/// # Examples
///
/// ```
/// use avglocal_graph::{generators, IdAssignment};
/// use avglocal_runtime::{FrozenExecutor, Knowledge, ProbeOptions};
/// use avglocal_runtime::examples::NaiveLargestId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(32)?;
/// IdAssignment::Shuffled { seed: 7 }.apply(&mut ring)?;
///
/// // Freeze once; every probe after the first is O(ball).
/// let session = FrozenExecutor::new(&ring);
/// let full = session.run(&NaiveLargestId, Knowledge::none())?;
/// // Exactly one node answers `true` and the worst radius is n/2.
/// assert_eq!(full.outputs().iter().filter(|&&b| b).count(), 1);
/// assert_eq!(full.max_radius(), 16);
/// assert!(full.average_radius() < 16.0);
/// for v in ring.nodes() {
///     let (out, r) =
///         session.run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())?;
///     assert_eq!((out, r), (*full.output(v), full.radius(v)));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FrozenExecutor {
    csr: CsrGraph,
    scheduling: Scheduling,
    /// Warmed grower scratch buffers, shared by the single-node probes and
    /// (one per pool participant) the parallel runs.
    scratch_pool: ScratchPool,
}

impl FrozenExecutor {
    /// Freezes `graph` and creates a session over the snapshot.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        Self::from_csr(graph.freeze())
    }

    /// Creates a session over an already-frozen snapshot, with
    /// [`Scheduling::WorkStealing`].
    #[must_use]
    pub fn from_csr(csr: CsrGraph) -> Self {
        FrozenExecutor { csr, scheduling: Scheduling::default(), scratch_pool: ScratchPool::new() }
    }

    /// Sets how [`FrozenExecutor::run`] and
    /// [`FrozenExecutor::run_nodes_with`] distribute their nodes over the
    /// threads, keeping the other settings.
    #[must_use]
    pub fn with_scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// The scheduling this session uses.
    #[must_use]
    pub fn scheduling(&self) -> Scheduling {
        self.scheduling
    }

    /// Number of nodes in the frozen snapshot.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.csr.node_count()
    }

    /// The frozen snapshot the session runs on.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// Replaces the snapshot's identifier table in `O(n)`, keeping the frozen
    /// adjacency.
    ///
    /// # Panics
    ///
    /// Panics when `identifiers` does not provide exactly one identifier per
    /// node. [`FrozenExecutor::try_assign`] writes an assignment policy's
    /// table in place and reports a wrong-length permutation instead.
    pub fn set_identifiers(&mut self, identifiers: &[Identifier]) {
        self.csr.set_identifiers(identifiers);
    }

    /// Writes `assignment`'s identifier table straight into the session's
    /// snapshot ([`CsrGraph::try_assign`]): the per-trial operation of an
    /// identifier-assignment sweep, with no permutation or table built
    /// first.
    ///
    /// # Errors
    ///
    /// Returns the graph layer's
    /// [`avglocal_graph::GraphError::AssignmentLengthMismatch`], leaving the
    /// session unchanged, when an explicit permutation does not have exactly
    /// one entry per node.
    pub fn try_assign(&mut self, assignment: &IdAssignment) -> avglocal_graph::Result<()> {
        self.csr.try_assign(assignment)
    }

    fn probe<'a, A: BallAlgorithm>(
        &'a self,
        algorithm: &'a A,
        knowledge: Knowledge,
    ) -> Probe<'a, A> {
        Probe {
            csr: &self.csr,
            algorithm,
            knowledge,
            scheduling: self.scheduling,
            scratch_pool: &self.scratch_pool,
        }
    }

    /// Runs `algorithm` for a single node under `options` and returns
    /// `(output, radius)` — the session's single-node probe. Takes `&self`,
    /// so concurrent queries can share one session behind an `Arc`; the
    /// grower buffers are reused across calls, so repeated probes cost
    /// `Θ(ball(v))`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Graph`] with [`GraphError::NodeOutOfBounds`] for a
    /// node outside the snapshot, the conditions of [`FrozenExecutor::run`],
    /// and [`RuntimeError::Cancelled`] when the options' cancellation hook
    /// fires.
    pub fn run_node_with<A: BallAlgorithm>(
        &self,
        node: NodeId,
        algorithm: &A,
        knowledge: Knowledge,
        options: ProbeOptions<'_>,
    ) -> Result<(A::Output, usize)> {
        let mut grower = LiveGrower::new(&self.scratch_pool);
        let probe = self.probe(algorithm, knowledge);
        match options.cancel {
            Some(cancel) => probe.node(&mut grower, node, cancel),
            None => probe.node(&mut grower, node, |_| false),
        }
    }

    /// Probes an arbitrary **set** of nodes on the shared session, under the
    /// session's [`Scheduling`] — the batched counterpart of
    /// [`FrozenExecutor::run_node_with`] and the probe engine of the service
    /// layer's `query_batch`.
    ///
    /// Returns one result per requested node, **index-addressed** (slot `i`
    /// answers `nodes[i]`), so results are deterministic by position no
    /// matter which participant ran which slot: every completed slot is
    /// bit-identical to a sequential [`FrozenExecutor::run_node_with`] on
    /// the same snapshot. A shared cancellation hook
    /// ([`NodeBatchOptions::with_cancel`]) marks slots it interrupts with
    /// [`RuntimeError::Cancelled`]; out-of-bounds nodes report
    /// [`GraphError::NodeOutOfBounds`] in their slot without disturbing the
    /// others.
    #[must_use]
    pub fn run_nodes_with<A>(
        &self,
        nodes: &[NodeId],
        algorithm: &A,
        knowledge: Knowledge,
        options: &NodeBatchOptions<'_>,
    ) -> Vec<Result<(A::Output, usize)>>
    where
        A: BallAlgorithm + Sync,
        A::Output: Send,
    {
        self.probe(algorithm, knowledge).nodes(nodes.len(), |i| nodes[i], options, identity)
    }

    /// Runs `algorithm` on every node of the snapshot under the session's
    /// [`Scheduling`] and collects outputs and radii, with the session's
    /// warmed scratch buffers handed to the pool participants. A
    /// steady-state run allocates a bounded handful of buffers per call (the
    /// per-node slots, outputs and radii among them) and nothing per
    /// successful probe; a failing node allocates its boxed error. Outputs,
    /// radii and error selection are identical under every [`Scheduling`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NonTerminating`] if a node still refuses to
    /// decide on a saturated view (it has seen its whole component, so no
    /// larger radius can help); the error reported is the first in node
    /// order.
    pub fn run<A>(&self, algorithm: &A, knowledge: Knowledge) -> Result<BallExecution<A::Output>>
    where
        A: BallAlgorithm + Sync,
        A::Output: Send,
    {
        let probe = self.probe(algorithm, knowledge);
        let options = NodeBatchOptions::new();
        let slots = probe
            .nodes(self.node_count(), NodeId::new, &options, |probed| probed.map_err(Box::new));
        collect_execution(slots)
    }
}

/// A node-loop participant's grower: the first in-bounds slot it claims
/// builds the grower on the participant's pooled scratch, and every later
/// slot re-centres the same grower with [`BallGrower::reset`]. Dropping it
/// hands the grower's buffers back to the pooled scratch, which parks them
/// in the session's pool.
struct LiveGrower<'a> {
    scratch: PooledScratch<'a>,
    grower: Option<BallGrower<'a>>,
}

impl<'a> LiveGrower<'a> {
    /// Checks a scratch out of `pool`; the grower is built on first use.
    fn new(pool: &'a ScratchPool) -> Self {
        LiveGrower { scratch: pool.checkout(), grower: None }
    }
}

impl Drop for LiveGrower<'_> {
    fn drop(&mut self) {
        if let Some(grower) = self.grower.take() {
            *self.scratch = grower.into_scratch();
        }
    }
}

/// One algorithm on one session's snapshot, scheduling and scratch pool:
/// the probe loop and the node loop every entry point of the runtime ends
/// in.
struct Probe<'a, A> {
    csr: &'a CsrGraph,
    algorithm: &'a A,
    knowledge: Knowledge,
    scheduling: Scheduling,
    scratch_pool: &'a ScratchPool,
}

impl<'a, A: BallAlgorithm> Probe<'a, A> {
    /// Probes `node` on the participant's live grower until the algorithm
    /// decides, polling `cancel(radius)` once per ball-growth step — before
    /// the radius-`r` view is inspected. When the hook returns `true` the
    /// probe stops with [`RuntimeError::Cancelled`] without growing further,
    /// so an expired deadline costs at most one additional decide call; a
    /// hook that never fires leaves the probe bit-identical to an
    /// uncancelled one. An out-of-bounds node is rejected before the grower
    /// is touched.
    ///
    /// The hook is a type parameter, so a hook-less probe polls a constant
    /// `false` and makes no indirect call per growth step; only a caller's
    /// own `dyn` hook costs one.
    fn node(
        &self,
        live: &mut LiveGrower<'a>,
        node: NodeId,
        mut cancel: impl FnMut(usize) -> bool,
    ) -> Result<(A::Output, usize)> {
        let node_count = self.csr.node_count();
        if node.index() >= node_count {
            return Err(RuntimeError::Graph(GraphError::NodeOutOfBounds { node, node_count }));
        }
        let grower = match &mut live.grower {
            Some(grower) => {
                grower.reset(node);
                grower
            }
            None => live.grower.insert(BallGrower::with_scratch(
                self.csr,
                node,
                std::mem::take(&mut *live.scratch),
            )),
        };
        loop {
            if cancel(grower.radius()) {
                return Err(RuntimeError::Cancelled { node, radius: grower.radius() });
            }
            let view = LocalView::from_grower(grower);
            let saturated = view.is_saturated();
            if let Some(out) = self.algorithm.decide(&view, &self.knowledge) {
                return Ok((out, view.radius()));
            }
            if saturated {
                return Err(RuntimeError::NonTerminating { node });
            }
            grower.grow();
        }
    }

    /// The node loop: slot `i` holds `slot(result)` for the probe of
    /// `node_at(i)`, `i in 0..count`. The caller picks the slot type: a batch
    /// keeps every probe's result, a full run a compact
    /// [`Slot`](crate::ball_executor::Slot). Each participant (every pool
    /// participant under [`Scheduling::WorkStealing`], the calling thread
    /// under [`Scheduling::Sequential`]) keeps one [`LiveGrower`] for every
    /// slot it claims; results land in index-addressed slots, so they are
    /// deterministic by position no matter who stole which chunk.
    fn nodes<S: Send>(
        &self,
        count: usize,
        node_at: impl Fn(usize) -> NodeId + Sync,
        options: &NodeBatchOptions<'_>,
        slot: impl Fn(Result<(A::Output, usize)>) -> S + Sync,
    ) -> Vec<S>
    where
        A: Sync,
    {
        let probe = |live: &mut LiveGrower<'a>, i: usize| {
            let node = node_at(i);
            slot(match options.cancel {
                Some(cancel) => self.node(live, node, cancel),
                None => self.node(live, node, |_| false),
            })
        };
        match self.scheduling {
            Scheduling::WorkStealing => (0..count)
                .into_par_iter()
                .map_init(|| LiveGrower::new(self.scratch_pool), probe)
                .collect(),
            Scheduling::Sequential => {
                let mut live = LiveGrower::new(self.scratch_pool);
                (0..count).map(|i| probe(&mut live, i)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::NaiveLargestId;
    use avglocal_graph::{generators, IdAssignment, Topology};

    /// A hook-less largest-ID probe of `v` on `session`.
    fn probe(session: &FrozenExecutor, v: NodeId) -> (bool, usize) {
        session.run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new()).unwrap()
    }

    #[test]
    fn session_matches_per_call_executor_on_all_topologies() {
        let topologies = [
            Topology::Cycle,
            Topology::Path,
            Topology::CompleteBinaryTree,
            Topology::Grid,
            Topology::Torus,
            Topology::gnp_connected(18, 3),
        ];
        for topology in topologies {
            let mut g = topology.build(18).unwrap();
            IdAssignment::Shuffled { seed: 11 }.apply(&mut g).unwrap();
            let session = FrozenExecutor::new(&g);
            let full = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            for v in g.nodes() {
                let fresh = probe(&FrozenExecutor::new(&g), v);
                assert_eq!(fresh, probe(&session, v), "{topology}, node {v:?}");
                assert_eq!(fresh, (*full.output(v), full.radius(v)), "{topology}, node {v:?}");
            }
        }
    }

    #[test]
    fn session_full_run_matches_ball_executor() {
        let mut g = generators::grid(4, 5).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let a = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        let b = FrozenExecutor::new(&g)
            .with_scheduling(Scheduling::Sequential)
            .run(&NaiveLargestId, Knowledge::none())
            .unwrap();
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.radii(), b.radii());
    }

    #[test]
    fn set_identifiers_reuses_the_adjacency() {
        let g = generators::cycle(12).unwrap();
        let mut session = FrozenExecutor::new(&g);
        for seed in 0u64..4 {
            let assignment = IdAssignment::Shuffled { seed };
            session.set_identifiers(&assignment.identifiers(12, 0));
            let mut fresh_graph = generators::cycle(12).unwrap();
            assignment.apply(&mut fresh_graph).unwrap();
            let expected =
                FrozenExecutor::new(&fresh_graph).run(&NaiveLargestId, Knowledge::none()).unwrap();
            let got = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            assert_eq!(expected.radii(), got.radii(), "seed {seed}");
            for v in fresh_graph.nodes() {
                let (out, r) = probe(&session, v);
                assert_eq!(out, *expected.output(v));
                assert_eq!(r, expected.radius(v));
            }
        }
    }

    #[test]
    fn try_assign_equals_installing_the_built_table() {
        let g = generators::cycle(12).unwrap();
        let mut assigned = FrozenExecutor::new(&g);
        let mut installed = FrozenExecutor::new(&g);
        for seed in 0u64..3 {
            let assignment = IdAssignment::Shuffled { seed };
            assigned.try_assign(&assignment).unwrap();
            installed.set_identifiers(&assignment.identifiers(12, 0));
            assert_eq!(assigned.csr(), installed.csr(), "seed {seed}");
        }
        let wrong = IdAssignment::from_vec(vec![2, 0, 1]).unwrap();
        let err = assigned.try_assign(&wrong).unwrap_err();
        assert_eq!(err, GraphError::AssignmentLengthMismatch { provided: 3, expected: 12 });
        assert_eq!(assigned.csr(), installed.csr(), "a rejected assignment writes nothing");
    }

    #[test]
    fn never_firing_cancel_hook_is_bit_identical_to_run_node() {
        let mut g = generators::grid(4, 4).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        for v in g.nodes() {
            let mut never = |_: usize| false;
            let cancellable = session
                .run_node_with(
                    v,
                    &NaiveLargestId,
                    Knowledge::none(),
                    ProbeOptions::new().with_cancel(&mut never),
                )
                .unwrap();
            assert_eq!(probe(&session, v), cancellable, "node {v:?}");
        }
    }

    #[test]
    fn cancel_hook_sees_each_radius_once_and_stops_the_probe() {
        struct DecideAtRadius(usize);
        impl BallAlgorithm for DecideAtRadius {
            type Output = usize;
            fn decide(&self, view: &crate::LocalView, _knowledge: &Knowledge) -> Option<usize> {
                (view.radius() >= self.0).then_some(view.radius())
            }
        }
        let g = generators::cycle(40).unwrap();
        let session = FrozenExecutor::new(&g);
        let mut seen = Vec::new();
        let mut hook = |r: usize| {
            seen.push(r);
            r >= 3
        };
        let err = session
            .run_node_with(
                NodeId::new(0),
                &DecideAtRadius(10),
                Knowledge::none(),
                ProbeOptions::new().with_cancel(&mut hook),
            )
            .unwrap_err();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert!(matches!(err, RuntimeError::Cancelled { radius: 3, .. }), "{err}");
    }

    #[test]
    fn immediate_cancellation_costs_no_growth() {
        // A deadline that is already expired on admission cancels at radius 0
        // before any ball is grown.
        let g = generators::cycle(8).unwrap();
        let session = FrozenExecutor::new(&g);
        let mut expired = |_: usize| true;
        let options = ProbeOptions::new().with_cancel(&mut expired);
        let err = session
            .run_node_with(NodeId::new(2), &NaiveLargestId, Knowledge::none(), options)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Cancelled { node, radius: 0 } if node == NodeId::new(2)
        ));
    }

    #[test]
    fn cancellable_probes_share_the_session_across_threads() {
        // &self probing: many threads query one session concurrently and each
        // gets the same answer as the sequential reference.
        let mut g = generators::grid(5, 5).unwrap();
        IdAssignment::Shuffled { seed: 9 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let reference = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let session = &session;
                let reference = &reference;
                scope.spawn(move || {
                    for v in (t..25).step_by(4).map(NodeId::new) {
                        let mut never = |_: usize| false;
                        let (out, r) = session
                            .run_node_with(
                                v,
                                &NaiveLargestId,
                                Knowledge::none(),
                                ProbeOptions::new().with_cancel(&mut never),
                            )
                            .unwrap();
                        assert_eq!(out, *reference.output(v));
                        assert_eq!(r, reference.radius(v));
                    }
                });
            }
        });
    }

    #[test]
    fn run_nodes_with_matches_single_probes_on_every_scheduling() {
        let mut g = generators::grid(4, 5).unwrap();
        IdAssignment::Shuffled { seed: 3 }.apply(&mut g).unwrap();
        // An arbitrary, repetitive, out-of-order node set: slots must answer
        // positionally, duplicates included.
        let nodes: Vec<NodeId> = [7usize, 0, 19, 3, 3, 12, 8, 1, 19].map(NodeId::new).to_vec();
        for scheduling in [Scheduling::WorkStealing, Scheduling::Sequential] {
            let session = FrozenExecutor::new(&g).with_scheduling(scheduling);
            let batch = session.run_nodes_with(
                &nodes,
                &NaiveLargestId,
                Knowledge::none(),
                &NodeBatchOptions::new(),
            );
            assert_eq!(batch.len(), nodes.len());
            for (slot, &node) in batch.iter().zip(&nodes) {
                let single = probe(&session, node);
                assert_eq!(slot.as_ref().unwrap(), &single, "{scheduling:?} node {node:?}");
            }
        }
    }

    #[test]
    fn run_nodes_with_reports_out_of_bounds_per_slot() {
        let mut g = generators::cycle(6).unwrap();
        IdAssignment::Shuffled { seed: 4 }.apply(&mut g).unwrap();
        for scheduling in [Scheduling::WorkStealing, Scheduling::Sequential] {
            let session = FrozenExecutor::new(&g).with_scheduling(scheduling);
            let nodes = [NodeId::new(2), NodeId::new(6), NodeId::new(5)];
            let batch = session.run_nodes_with(
                &nodes,
                &NaiveLargestId,
                Knowledge::none(),
                &Default::default(),
            );
            assert!(batch[0].is_ok());
            assert!(matches!(
                batch[1],
                Err(RuntimeError::Graph(avglocal_graph::GraphError::NodeOutOfBounds {
                    node_count: 6,
                    ..
                }))
            ));
            assert!(batch[2].is_ok(), "a bad slot must not disturb its neighbours");

            // Slot 0 is out of bounds before its participant has built a
            // grower, slot 3 mid-list.
            let nodes = [6, 1, 3, 9, 4, 0, 3].map(NodeId::new);
            let batch = session.run_nodes_with(
                &nodes,
                &NaiveLargestId,
                Knowledge::none(),
                &Default::default(),
            );
            for (slot, &node) in batch.iter().zip(&nodes) {
                if node.index() < 6 {
                    let got = slot.as_ref().unwrap();
                    assert_eq!(got, &probe(&session, node), "{scheduling:?} node {node:?}");
                } else {
                    assert!(
                        matches!(
                            slot,
                            Err(RuntimeError::Graph(GraphError::NodeOutOfBounds {
                                node_count: 6,
                                ..
                            }))
                        ),
                        "{scheduling:?} node {node:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_nodes_with_shared_cancel_marks_cancelled_slots_only() {
        let g = generators::cycle(40).unwrap();
        let session = FrozenExecutor::new(&g);
        let nodes: Vec<NodeId> = (0..40).map(NodeId::new).collect();
        // Cancel every probe before it can grow past radius 1: the cycle's
        // largest-ID losers decide at radius 1 and complete; deeper probes
        // are cancelled.
        let cancel = |radius: usize| radius >= 2;
        let options = NodeBatchOptions::new().with_cancel(&cancel);
        let batch = session.run_nodes_with(&nodes, &NaiveLargestId, Knowledge::none(), &options);
        let cancelled = batch
            .iter()
            .filter(|r| matches!(r, Err(RuntimeError::Cancelled { radius: 2, .. })))
            .count();
        let completed = batch.iter().filter(|r| r.is_ok()).count();
        assert_eq!(cancelled + completed, 40);
        assert!(cancelled >= 1, "the winner needs radius 20 and must be cancelled");
        // Completed slots are bit-identical to uncancelled single probes.
        for (slot, &node) in batch.iter().zip(&nodes) {
            if let Ok(got) = slot {
                assert_eq!(*got, probe(&session, node));
            }
        }
    }

    #[test]
    fn run_nodes_with_empty_request_is_empty() {
        let g = generators::cycle(4).unwrap();
        let session = FrozenExecutor::new(&g);
        let batch: Vec<_> =
            session.run_nodes_with(&[], &NaiveLargestId, Knowledge::none(), &Default::default());
        assert!(batch.is_empty());
    }

    #[test]
    fn run_node_with_is_the_one_probe_path() {
        // Single probes, batches and the full run agree bit for bit, hook or
        // no hook.
        let mut g = generators::cycle(24).unwrap();
        IdAssignment::Shuffled { seed: 8 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let full = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let batch = session.run_nodes_with(
            &nodes,
            &NaiveLargestId,
            Knowledge::none(),
            &NodeBatchOptions::new(),
        );
        for (v, slot) in nodes.into_iter().zip(batch) {
            let mut hook = |_: usize| false;
            let cancellable = session
                .run_node_with(
                    v,
                    &NaiveLargestId,
                    Knowledge::none(),
                    ProbeOptions::new().with_cancel(&mut hook),
                )
                .unwrap();
            assert_eq!(probe(&session, v), (*full.output(v), full.radius(v)));
            assert_eq!(cancellable, slot.unwrap());
            assert_eq!(cancellable, probe(&session, v));
        }
    }

    #[test]
    fn run_node_with_reports_out_of_bounds_typed() {
        let session = FrozenExecutor::new(&generators::cycle(6).unwrap());
        let err = session
            .run_node_with(NodeId::new(6), &NaiveLargestId, Knowledge::none(), ProbeOptions::new())
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Graph(GraphError::NodeOutOfBounds { node_count: 6, .. })
        ));
    }
}
