//! A uniform interface over the problems studied in the experiments.
//!
//! Each [`Problem`] bundles an algorithm, the executor that drives it, and
//! the verifier that checks its output, so the experiment harness can sweep
//! over problems without caring about their output types.

use std::fmt;

use avglocal_algorithms::{
    run_three_coloring, verify, FullInfoColoring, FullInfoLargestId, KnowTheLeader,
    LandmarkColoring, LargestId,
};
use avglocal_graph::{ComponentLabels, Graph};
use avglocal_runtime::{BallAlgorithm, FrozenExecutor, Knowledge};

use crate::error::{CoreError, Result};
use crate::profile::RadiusProfile;

/// The problems (algorithm + verifier) available to the experiment harness.
///
/// All of them run on cycles; [`Problem::LargestId`], [`Problem::KnowTheLeader`]
/// and the full-information baselines also run on arbitrary connected graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Problem {
    /// The paper's Section 2 problem with its ball-growing algorithm.
    LargestId,
    /// Largest ID solved by the lazy full-information baseline.
    FullInfoLargestId,
    /// Every node must name the leader — no early stopping is possible.
    KnowTheLeader,
    /// 3-colouring of the oriented ring via Cole–Vishkin.
    ThreeColoring,
    /// Variable-radius 4-colouring via landmarks (Lemma 2 style).
    LandmarkColoring,
    /// 3-colouring by the full-information baseline.
    FullInfoColoring,
    /// Maximal independent set on the ring via 3-colouring.
    Mis,
    /// Maximal matching on the ring via 3-colouring and successor-edge claims.
    Matching,
}

impl Problem {
    /// All problems, in display order.
    pub const ALL: [Problem; 8] = [
        Problem::LargestId,
        Problem::FullInfoLargestId,
        Problem::KnowTheLeader,
        Problem::ThreeColoring,
        Problem::LandmarkColoring,
        Problem::FullInfoColoring,
        Problem::Mis,
        Problem::Matching,
    ];

    /// Short machine-friendly name.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Problem::LargestId => "largest_id",
            Problem::FullInfoLargestId => "full_info_largest_id",
            Problem::KnowTheLeader => "know_the_leader",
            Problem::ThreeColoring => "three_coloring",
            Problem::LandmarkColoring => "landmark_coloring",
            Problem::FullInfoColoring => "full_info_coloring",
            Problem::Mis => "mis",
            Problem::Matching => "matching",
        }
    }

    /// Returns `true` when the problem's algorithm requires the graph to be a
    /// cycle.
    #[must_use]
    pub fn requires_cycle(&self) -> bool {
        matches!(
            self,
            Problem::ThreeColoring
                | Problem::LandmarkColoring
                | Problem::FullInfoColoring
                | Problem::Mis
                | Problem::Matching
        )
    }

    /// Returns `true` when the problem's algorithm runs through the ball
    /// view ([`FrozenExecutor`]) — these are the problems whose sweep trials
    /// run on one frozen adjacency snapshot with only the identifier table
    /// swapped.
    ///
    /// The match is deliberately exhaustive (no wildcard) and mirrors which
    /// arms of `run_graph` go through [`Problem::run_on_session`]: adding a
    /// variant forces both places to classify it.
    #[must_use]
    pub fn uses_ball_view(&self) -> bool {
        match self {
            Problem::LargestId
            | Problem::FullInfoLargestId
            | Problem::KnowTheLeader
            | Problem::LandmarkColoring
            | Problem::FullInfoColoring => true,
            Problem::ThreeColoring | Problem::Mis | Problem::Matching => false,
        }
    }

    /// Runs the problem's algorithm on `graph`, verifies the output, and
    /// returns the radius profile.
    ///
    /// Ball-view problems freeze `graph` once and take the
    /// [`Problem::run_on_session`] path; round-based ones run on `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when the execution fails (for example
    /// when a ring-only algorithm is run on another topology) and
    /// [`CoreError::InvalidOutput`] when the verifier rejects the output —
    /// the latter should never happen and indicates a bug.
    pub fn run(&self, graph: &Graph) -> Result<RadiusProfile> {
        self.run_graph(graph, None)
    }

    /// Like [`Problem::run`], but with explicit per-component semantics:
    /// `graph` may be disconnected, every ball saturates at its component
    /// boundary, and outputs are verified **per component** (e.g. largest-ID
    /// elects one winner per component, not one global winner).
    ///
    /// `labels` must be the component labelling of `graph`, as computed by
    /// [`ComponentLabels::of_graph`]. On a connected graph this is
    /// equivalent to [`Problem::run`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`], before anything runs, when
    /// `labels` does not cover exactly the nodes of `graph`; otherwise the
    /// conditions of [`Problem::run`], and ring-only problems additionally
    /// fail on any disconnected (hence non-cycle) instance.
    pub fn run_per_component(
        &self,
        graph: &Graph,
        labels: &ComponentLabels,
    ) -> Result<RadiusProfile> {
        check_coverage(labels, graph.node_count(), "graph")?;
        self.run_graph(graph, Some(labels))
    }

    /// Runs a ball-view problem on every node of `session`'s snapshot and
    /// verifies the outputs against that snapshot alone: its identifier
    /// table, its edge stream and, when `components` is given, a component
    /// labelling (per-component semantics as in
    /// [`Problem::run_per_component`]). No [`Graph`] is involved, so a sweep
    /// trial is an identifier-table swap on the session followed by this
    /// call.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for round-based problems (see
    /// [`Problem::uses_ball_view`]) and, before any node is probed, for a
    /// `components` labelling that does not cover exactly the snapshot's
    /// nodes; otherwise the conditions of [`Problem::run`].
    pub fn run_on_session(
        &self,
        session: &FrozenExecutor,
        components: Option<&ComponentLabels>,
    ) -> Result<RadiusProfile> {
        /// Runs `algorithm` on the session, checks its outputs and moves the
        /// radii into the profile.
        fn checked<A>(
            problem: &Problem,
            session: &FrozenExecutor,
            algorithm: &A,
            valid: impl FnOnce(&[A::Output]) -> bool,
        ) -> Result<RadiusProfile>
        where
            A: BallAlgorithm + Sync,
            A::Output: Send,
        {
            let run = session.run(algorithm, Knowledge::none())?;
            problem.check(valid(run.outputs()))?;
            let (_, radii) = run.into_parts();
            Ok(RadiusProfile::new(radii))
        }

        if let Some(labels) = components {
            check_coverage(labels, session.node_count(), "snapshot")?;
        }
        let csr = session.csr();
        let ids = csr.identifiers();
        // Outputs of ball algorithms are scoped to the component the ball
        // saturates in, so per-component runs swap in the component-wise
        // verifiers; on a connected graph the two coincide.
        let winner = |outputs: &[bool]| match components {
            Some(labels) => verify::largest_id_per_component_ok(ids, labels, outputs),
            None => verify::largest_id_ok(ids, outputs),
        };
        let coloring = |palette| {
            move |colors: &[u64]| {
                let edges = csr.edges().map(|(u, v)| (u as usize, v as usize));
                verify::proper_coloring_ok(csr.node_count(), edges, colors, palette)
            }
        };
        match self {
            Problem::LargestId => checked(self, session, &LargestId, winner),
            Problem::FullInfoLargestId => checked(self, session, &FullInfoLargestId, winner),
            Problem::KnowTheLeader => {
                checked(self, session, &KnowTheLeader, |outputs| match components {
                    Some(labels) => verify::component_leader_ok(ids, labels, outputs),
                    None => verify::leader_ok(ids, outputs),
                })
            }
            Problem::LandmarkColoring => checked(self, session, &LandmarkColoring, coloring(4)),
            Problem::FullInfoColoring => checked(self, session, &FullInfoColoring, coloring(3)),
            Problem::ThreeColoring | Problem::Mis | Problem::Matching => {
                Err(self.round_based("session runs"))
            }
        }
    }

    fn run_graph(
        &self,
        graph: &Graph,
        components: Option<&ComponentLabels>,
    ) -> Result<RadiusProfile> {
        let knowledge = Knowledge::none();
        match self {
            Problem::LargestId
            | Problem::FullInfoLargestId
            | Problem::KnowTheLeader
            | Problem::LandmarkColoring
            | Problem::FullInfoColoring => {
                self.run_on_session(&FrozenExecutor::new(graph), components)
            }
            Problem::ThreeColoring => {
                let (colors, rounds) = run_three_coloring(graph)?;
                self.check(verify::is_proper_coloring(graph, &colors, 3))?;
                Ok(RadiusProfile::new(rounds))
            }
            Problem::Mis => {
                let orientation = avglocal_algorithms::RingOrientation::trace(graph)?;
                let algo = avglocal_algorithms::MisRing::new(orientation);
                let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, knowledge)?;
                self.check(verify::is_maximal_independent_set(graph, &run.outputs()))?;
                RadiusProfile::from_execution(&run)
            }
            Problem::Matching => {
                let orientation = avglocal_algorithms::RingOrientation::trace(graph)?;
                let algo = avglocal_algorithms::MatchingRing::new(orientation);
                let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, knowledge)?;
                let matched = avglocal_algorithms::partner_indices(graph, &run.outputs());
                self.check(verify::is_maximal_matching(graph, &matched))?;
                RadiusProfile::from_execution(&run)
            }
        }
    }

    /// Probes the decision radii of an explicit node subset on a frozen
    /// session — the engine of the sampling estimators.
    ///
    /// Results come back positionally aligned with `nodes` through the
    /// index-addressed batch path
    /// ([`FrozenExecutor::run_nodes_with`]), so they are bit-identical
    /// across schedulings and thread counts. Unlike the full-sweep entry
    /// points this **skips output verification**: global predicates (one
    /// leader, proper colouring) are not checkable on a sampled subset, and
    /// the statistical suite pins sampled radii against verified full
    /// sweeps instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`] for round-based problems (no
    /// per-node ball probes exist; see [`Problem::uses_ball_view`]);
    /// [`CoreError::Runtime`] with the first failing probe in node order
    /// otherwise.
    pub fn probe_radii(
        &self,
        session: &FrozenExecutor,
        nodes: &[avglocal_graph::NodeId],
        options: &avglocal_runtime::NodeBatchOptions<'_>,
    ) -> Result<Vec<usize>> {
        fn probe<A>(
            session: &FrozenExecutor,
            algorithm: &A,
            nodes: &[avglocal_graph::NodeId],
            options: &avglocal_runtime::NodeBatchOptions<'_>,
        ) -> Result<Vec<usize>>
        where
            A: BallAlgorithm + Sync,
            A::Output: Send,
        {
            session
                .run_nodes_with(nodes, algorithm, Knowledge::none(), options)
                .into_iter()
                .map(|r| r.map(|(_, radius)| radius).map_err(CoreError::from))
                .collect()
        }

        match self {
            Problem::LargestId => probe(session, &LargestId, nodes, options),
            Problem::FullInfoLargestId => probe(session, &FullInfoLargestId, nodes, options),
            Problem::KnowTheLeader => probe(session, &KnowTheLeader, nodes, options),
            Problem::LandmarkColoring => probe(session, &LandmarkColoring, nodes, options),
            Problem::FullInfoColoring => probe(session, &FullInfoColoring, nodes, options),
            Problem::ThreeColoring | Problem::Mis | Problem::Matching => {
                Err(self.round_based("sampled probes"))
            }
        }
    }

    /// The error for a ball-view-only operation on a round-based problem.
    fn round_based(&self, operation: &str) -> CoreError {
        CoreError::InvalidConfiguration {
            reason: format!(
                "{operation} need a ball-view problem; '{}' is round-based",
                self.key()
            ),
        }
    }

    fn check(&self, valid: bool) -> Result<()> {
        if valid {
            Ok(())
        } else {
            Err(CoreError::InvalidOutput { problem: self.key().to_string() })
        }
    }
}

/// Rejects a component labelling that does not cover exactly the `nodes`
/// nodes of the instance (`what` names it in the error).
fn check_coverage(labels: &ComponentLabels, nodes: usize, what: &str) -> Result<()> {
    if labels.node_count() == nodes {
        return Ok(());
    }
    Err(CoreError::InvalidConfiguration {
        reason: format!(
            "the component labelling covers {} nodes, the {what} has {nodes}",
            labels.node_count()
        ),
    })
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Problem::LargestId => "largest ID (ball-growing)",
            Problem::FullInfoLargestId => "largest ID (full information)",
            Problem::KnowTheLeader => "know the leader",
            Problem::ThreeColoring => "3-colouring (Cole-Vishkin)",
            Problem::LandmarkColoring => "4-colouring (landmarks)",
            Problem::FullInfoColoring => "3-colouring (full information)",
            Problem::Mis => "maximal independent set",
            Problem::Matching => "maximal matching",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{generators, IdAssignment};

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn every_problem_runs_on_a_ring() {
        let g = ring(24, 7);
        for problem in Problem::ALL {
            let profile = problem.run(&g).expect("problem should run on a ring");
            assert_eq!(profile.len(), 24, "{problem}");
            assert!(profile.max() <= 24, "{problem}");
        }
    }

    #[test]
    fn largest_id_has_smaller_average_than_baseline() {
        let g = ring(40, 3);
        let smart = Problem::LargestId.run(&g).unwrap();
        let lazy = Problem::FullInfoLargestId.run(&g).unwrap();
        assert!(smart.average() < lazy.average());
        assert_eq!(smart.max(), lazy.max());
    }

    #[test]
    fn coloring_beats_know_the_leader_on_average() {
        let g = ring(64, 9);
        let coloring = Problem::ThreeColoring.run(&g).unwrap();
        let leader = Problem::KnowTheLeader.run(&g).unwrap();
        assert!(coloring.average() < leader.average());
        assert!(coloring.max() < leader.max());
    }

    #[test]
    fn ring_only_problems_fail_on_other_topologies() {
        let mut star = generators::star(8).unwrap();
        IdAssignment::Shuffled { seed: 1 }.apply(&mut star).unwrap();
        assert!(Problem::ThreeColoring.run(&star).is_err());
        assert!(Problem::Mis.run(&star).is_err());
        assert!(Problem::Matching.run(&star).is_err());
        // Topology-agnostic problems still work.
        assert!(Problem::LargestId.run(&star).is_ok());
        assert!(Problem::KnowTheLeader.run(&star).is_ok());
    }

    #[test]
    fn per_component_runs_on_disconnected_graphs() {
        // Two disjoint rings: the global run rejects the two winners, the
        // per-component run accepts them and scopes every radius to the
        // component.
        let mut g = Graph::new();
        for i in 0..12 {
            g.add_node(avglocal_graph::Identifier::new(i));
        }
        let v = avglocal_graph::NodeId::new;
        for c in [0usize, 6] {
            for i in 0..6 {
                g.add_edge(v(c + i), v(c + (i + 1) % 6)).unwrap();
            }
        }
        let labels = ComponentLabels::of_graph(&g);
        assert_eq!(labels.count(), 2);
        for problem in [Problem::LargestId, Problem::FullInfoLargestId, Problem::KnowTheLeader] {
            assert!(problem.run(&g).is_err(), "{problem} must reject global verification");
            let profile = problem.run_per_component(&g, &labels).unwrap();
            assert_eq!(profile.len(), 12, "{problem}");
            // No ball ever needs to leave its 6-node component.
            assert!(profile.max() <= 3, "{problem}");
        }
    }

    #[test]
    fn per_component_equals_global_on_connected_graphs() {
        let g = ring(20, 11);
        let labels = ComponentLabels::of_graph(&g);
        for problem in [Problem::LargestId, Problem::KnowTheLeader] {
            assert_eq!(problem.run(&g).unwrap(), problem.run_per_component(&g, &labels).unwrap());
        }
    }

    #[test]
    fn a_labelling_that_does_not_cover_the_snapshot_is_rejected() {
        // A 5-node labelling on a 12-node ring is a caller error for every
        // ball-view problem, the colourings included, whose verifiers never
        // read the labels.
        let graph = ring(12, 4);
        let session = FrozenExecutor::new(&graph);
        let short = ComponentLabels::of_graph(&ring(5, 4));
        let ball_view: Vec<Problem> =
            Problem::ALL.into_iter().filter(Problem::uses_ball_view).collect();
        assert_eq!(ball_view.len(), 5);
        for problem in ball_view {
            let err = problem.run_on_session(&session, Some(&short)).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfiguration { reason }
                    if reason.contains("covers 5 nodes, the snapshot has 12")),
                "{problem}: {err}"
            );
        }
        // The graph entry point returns the same error for every problem,
        // the round-based ones included, which never read the labels.
        for problem in Problem::ALL {
            let err = problem.run_per_component(&graph, &short).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfiguration { reason }
                    if reason.contains("covers 5 nodes, the graph has 12")),
                "{problem}: {err}"
            );
        }
    }

    #[test]
    fn keys_and_names_are_distinct() {
        let mut keys: Vec<&str> = Problem::ALL.iter().map(Problem::key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Problem::ALL.len());
        let mut names: Vec<String> = Problem::ALL.iter().map(|p| p.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Problem::ALL.len());
    }

    #[test]
    fn requires_cycle_classification() {
        assert!(!Problem::LargestId.requires_cycle());
        assert!(Problem::ThreeColoring.requires_cycle());
        assert!(Problem::Mis.requires_cycle());
        assert!(Problem::Matching.requires_cycle());
        assert!(!Problem::KnowTheLeader.requires_cycle());
    }
}
