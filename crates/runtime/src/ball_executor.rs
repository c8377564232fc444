//! What a ball-view run produces and how it is scheduled.
//!
//! Every node independently grows the radius of the ball it sees until the
//! algorithm commits to an output; the radius of the first decision is the
//! node's cost `r(v)`. This is the view in which the paper states all of its
//! results. [`crate::FrozenExecutor`] runs it and returns a
//! [`BallExecution`]; its [`Scheduling`] decides how the nodes are spread
//! over the threads, and never what they answer.

use avglocal_graph::NodeId;

use crate::error::{Result, RuntimeError};

/// The result of a ball-view execution: per-node outputs and radii.
#[derive(Debug, Clone)]
pub struct BallExecution<O> {
    outputs: Vec<O>,
    radii: Vec<usize>,
}

impl<O> BallExecution<O> {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.outputs.len()
    }

    /// Output committed by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn output(&self, node: NodeId) -> &O {
        &self.outputs[node.index()]
    }

    /// Radius at which `node` committed (the paper's `r(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn radius(&self, node: NodeId) -> usize {
        self.radii[node.index()]
    }

    /// All outputs, in node order.
    #[must_use]
    pub fn outputs(&self) -> &[O] {
        &self.outputs
    }

    /// All radii, in node order.
    #[must_use]
    pub fn radii(&self) -> &[usize] {
        &self.radii
    }

    /// The classical (worst-case) running time: `max_v r(v)`.
    #[must_use]
    pub fn max_radius(&self) -> usize {
        self.radii.iter().copied().max().unwrap_or(0)
    }

    /// The total cost `Σ_v r(v)` — the quantity the paper's recurrence
    /// `a(p)` bounds.
    #[must_use]
    pub fn total_radius(&self) -> usize {
        self.radii.iter().sum()
    }

    /// The paper's measure: the average radius `Σ_v r(v) / n`.
    ///
    /// Returns 0.0 for the empty execution.
    #[must_use]
    pub fn average_radius(&self) -> f64 {
        if self.radii.is_empty() {
            0.0
        } else {
            self.total_radius() as f64 / self.radii.len() as f64
        }
    }

    /// Consumes the execution and returns `(outputs, radii)`.
    #[must_use]
    pub fn into_parts(self) -> (Vec<O>, Vec<usize>) {
        (self.outputs, self.radii)
    }
}

/// How the nodes of a run are distributed over the threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Fine-grained dynamic chunks claimed from the persistent worker pool's
    /// atomic cursor — idle participants steal the remaining chunks, so a
    /// single expensive node cannot serialise a large static chunk behind
    /// it. The default.
    #[default]
    WorkStealing,
    /// Every node probed left to right on the calling thread, without the
    /// pool: the reference the work-stealing schedule is tested
    /// bit-identical against (outputs, radii and error selection).
    Sequential,
}

/// A full run's per-node slot: the probe's `(output, radius)`, or its error
/// boxed, so the slot is no larger than the pair plus a tag (16 bytes for a
/// `bool` output, where an inline [`RuntimeError`] would take 48) and only a
/// failing node allocates.
pub(crate) type Slot<O> = std::result::Result<(O, usize), Box<RuntimeError>>;

/// Unzips a full run's per-node slots into a [`BallExecution`]'s outputs and
/// radii, surfacing the first error **in node order** — the same error a
/// sequential left-to-right run would report, independent of chunk
/// scheduling.
pub(crate) fn collect_execution<O>(slots: Vec<Slot<O>>) -> Result<BallExecution<O>> {
    let mut outputs = Vec::with_capacity(slots.len());
    let mut radii = Vec::with_capacity(slots.len());
    for slot in slots {
        let (output, radius) = slot.map_err(|error| *error)?;
        outputs.push(output);
        radii.push(radius);
    }
    Ok(BallExecution { outputs, radii })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::NaiveLargestId;
    use crate::{
        BallAlgorithm, FrozenExecutor, Knowledge, LocalView, NodeBatchOptions, ProbeOptions,
        RuntimeError,
    };
    use avglocal_graph::{extract_ball, generators, traversal, Graph, IdAssignment, Identifier};

    struct NeverDecides;
    impl BallAlgorithm for NeverDecides {
        type Output = ();
        fn decide(&self, _view: &LocalView, _knowledge: &Knowledge) -> Option<()> {
            None
        }
    }

    struct DecideAtRadius(usize);
    impl BallAlgorithm for DecideAtRadius {
        type Output = usize;
        fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<usize> {
            (view.radius() >= self.0).then_some(view.radius())
        }
    }

    #[test]
    fn largest_id_radii_on_identity_cycle() {
        // With identifiers laid out in increasing order around the cycle,
        // node i (for i < n-1) sees the larger identifier i+1 at radius 1,
        // while node n-1 must see the whole cycle.
        let g = generators::cycle(10).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(run.node_count(), 10);
        for i in 0..9 {
            assert_eq!(run.radius(NodeId::new(i)), 1);
            assert!(!run.output(NodeId::new(i)));
        }
        assert_eq!(run.radius(NodeId::new(9)), 5);
        assert!(run.output(NodeId::new(9)));
        assert_eq!(run.max_radius(), 5);
        assert_eq!(run.total_radius(), 9 + 5);
        assert!((run.average_radius() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn non_terminating_algorithm_is_detected() {
        // A node that never decides fails on its saturated view, which it
        // reaches at its own eccentricity, on every family and component.
        // The mixed graph is a 5-cycle, a 3-node path and an isolated node.
        let mut mixed = Graph::new();
        let vs = mixed.add_nodes_with_default_ids(9);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7)] {
            mixed.add_edge(vs[a], vs[b]).unwrap();
        }
        let graphs = [
            generators::cycle(5).unwrap(),
            generators::path(6).unwrap(),
            generators::star(5).unwrap(),
            generators::grid(3, 4).unwrap(),
            mixed,
        ];
        for g in &graphs {
            let nodes: Vec<NodeId> = g.nodes().collect();
            for scheduling in [Scheduling::WorkStealing, Scheduling::Sequential] {
                let session = FrozenExecutor::new(g).with_scheduling(scheduling);
                let err = session.run(&NeverDecides, Knowledge::none()).unwrap_err();
                assert!(
                    matches!(err, RuntimeError::NonTerminating { node } if node.index() == 0),
                    "{scheduling:?}: {err}"
                );
                let options = NodeBatchOptions::new();
                let slots =
                    session.run_nodes_with(&nodes, &NeverDecides, Knowledge::none(), &options);
                for (slot, &v) in slots.iter().zip(&nodes) {
                    assert!(
                        matches!(slot, Err(RuntimeError::NonTerminating { node }) if *node == v),
                        "{scheduling:?} node {v:?}: {slot:?}"
                    );
                }
                for &v in &nodes {
                    let mut polled = Vec::new();
                    let mut hook = |radius: usize| {
                        polled.push(radius);
                        false
                    };
                    let options = ProbeOptions::new().with_cancel(&mut hook);
                    let err = session
                        .run_node_with(v, &NeverDecides, Knowledge::none(), options)
                        .unwrap_err();
                    assert!(matches!(err, RuntimeError::NonTerminating { node } if node == v));
                    let eccentricity = traversal::eccentricity(g, v);
                    assert_eq!(polled, (0..=eccentricity).collect::<Vec<_>>(), "node {v:?}");
                }
            }
        }
    }

    #[test]
    fn decide_at_radius_reports_that_radius() {
        let g = generators::cycle(12).unwrap();
        let run = FrozenExecutor::new(&g).run(&DecideAtRadius(4), Knowledge::none()).unwrap();
        assert!(run.radii().iter().all(|&r| r == 4));
        assert_eq!(run.max_radius(), 4);
        assert_eq!(run.average_radius(), 4.0);
    }

    #[test]
    fn run_node_matches_run() {
        let mut g = generators::cycle(9).unwrap();
        IdAssignment::Shuffled { seed: 2 }.apply(&mut g).unwrap();
        let full = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let session = FrozenExecutor::new(&g);
        for v in g.nodes() {
            let (out, r) = session
                .run_node_with(v, &NaiveLargestId, Knowledge::none(), ProbeOptions::new())
                .unwrap();
            assert_eq!(out, *full.output(v));
            assert_eq!(r, full.radius(v));
        }
    }

    /// The quadratic reference: a fresh [`extract_ball`] at every radius,
    /// sharing nothing with the incremental grower.
    fn from_scratch_radius(g: &Graph, v: NodeId) -> (bool, usize) {
        (0..)
            .find_map(|r| {
                let ball = extract_ball(g, v, r);
                NaiveLargestId
                    .decide(&LocalView::from_ball(&ball), &Knowledge::none())
                    .map(|o| (o, r))
            })
            .unwrap()
    }

    #[test]
    fn incremental_matches_from_scratch_baseline() {
        for (n, seed) in [(9usize, 0u64), (16, 1), (33, 5), (64, 9)] {
            let mut g = generators::cycle(n).unwrap();
            IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
            let fast = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
            for v in g.nodes() {
                assert_eq!((*fast.output(v), fast.radius(v)), from_scratch_radius(&g, v));
            }
        }
    }

    #[test]
    fn schedulings_are_selectable() {
        let g = generators::cycle(30).unwrap();
        assert_eq!(FrozenExecutor::new(&g).scheduling(), Scheduling::WorkStealing);
        let exec = FrozenExecutor::new(&g).with_scheduling(Scheduling::Sequential);
        assert_eq!(exec.scheduling(), Scheduling::Sequential);
    }

    #[test]
    fn all_schedules_match_the_sequential_reference() {
        // Adversarial (identity) and random assignments; outputs and radii
        // must be bit-identical between work-stealing and the sequential
        // reference.
        for assignment in [IdAssignment::Identity, IdAssignment::Shuffled { seed: 13 }] {
            let mut g = generators::cycle(257).unwrap();
            assignment.apply(&mut g).unwrap();
            let session = FrozenExecutor::new(&g);
            let run = session.run(&NaiveLargestId, Knowledge::none()).unwrap();
            let reference = session
                .with_scheduling(Scheduling::Sequential)
                .run(&NaiveLargestId, Knowledge::none())
                .unwrap();
            assert_eq!(run.outputs(), reference.outputs());
            assert_eq!(run.radii(), reference.radii());
        }
    }

    #[test]
    fn error_selection_is_in_node_order_under_stealing() {
        // An algorithm that never decides for a band of node identifiers:
        // work-stealing must surface the *first* failing node in node order,
        // exactly like the sequential run.
        struct FailsOnSmallIds;
        impl BallAlgorithm for FailsOnSmallIds {
            type Output = u64;
            fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
                if view.center_identifier().value() % 3 == 1 {
                    None
                } else {
                    Some(view.center_identifier().value())
                }
            }
        }
        let mut g = generators::cycle(200).unwrap();
        IdAssignment::Shuffled { seed: 5 }.apply(&mut g).unwrap();
        let session = FrozenExecutor::new(&g);
        let run = |scheduling| {
            session
                .clone()
                .with_scheduling(scheduling)
                .run(&FailsOnSmallIds, Knowledge::none())
                .unwrap_err()
        };
        let RuntimeError::NonTerminating { node: expected_node } = run(Scheduling::Sequential)
        else {
            panic!("sequential reference must fail with NonTerminating");
        };
        let err = run(Scheduling::WorkStealing);
        assert!(
            matches!(err, RuntimeError::NonTerminating { node } if node == expected_node),
            "work-stealing selected a different error node: {err:?}"
        );
    }

    #[test]
    fn into_parts_round_trip() {
        let mut g = generators::cycle(6).unwrap();
        IdAssignment::Reversed.apply(&mut g).unwrap();
        let (outputs, radii) =
            FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap().into_parts();
        assert_eq!(outputs.len(), 6);
        assert_eq!(radii.len(), 6);
        assert_eq!(outputs.iter().filter(|&&b| b).count(), 1);
        // Node 0 carries identifier 5 (the maximum) and needs radius 3.
        assert!(outputs[0]);
        assert_eq!(radii[0], 3);
    }

    #[test]
    fn empty_execution_statistics() {
        let exec: BallExecution<u8> = BallExecution { outputs: vec![], radii: vec![] };
        assert_eq!(exec.average_radius(), 0.0);
        assert_eq!(exec.max_radius(), 0);
        assert_eq!(exec.total_radius(), 0);
        assert_eq!(exec.node_count(), 0);
    }

    #[test]
    fn empty_graph_runs_to_empty_execution() {
        let run =
            FrozenExecutor::new(&Graph::new()).run(&NaiveLargestId, Knowledge::none()).unwrap();
        assert_eq!(run.node_count(), 0);
    }

    #[test]
    fn clique_winner_needs_radius_one() {
        let mut g = generators::complete(6).unwrap();
        IdAssignment::Shuffled { seed: 4 }.apply(&mut g).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let winner = g.max_identifier_node().unwrap();
        assert!(*run.output(winner));
        assert_eq!(run.radius(winner), 1);
        assert_eq!(run.max_radius(), 1);
        assert_eq!(g.identifier(winner), Identifier::new(5));
    }
}
