//! Maximal independent set on the oriented ring, derived from 3-colouring.
//!
//! The standard pipeline: 3-colour the ring with Cole–Vishkin, then let the
//! colour classes join the independent set greedily, one class per round.
//! Every step is local, so the whole algorithm runs in `O(log* n)` rounds —
//! another problem for which the new average measure cannot asymptotically
//! beat the classical one (by the paper's Theorem 1 and the reduction from
//! colouring to MIS on the ring).

use avglocal_runtime::{broadcast, Envelope, NodeContext, RoundAlgorithm};

use crate::cole_vishkin::{cv_iterations_for_knowledge, RingOrientation};
use crate::three_coloring::{ThreeColorRing, ThreeColorState};

/// Messages exchanged by [`MisRing`]: colours during the colouring phase,
/// membership announcements afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisMessage {
    /// Current Cole–Vishkin colour.
    Color(u64),
    /// Whether the sender has already joined the independent set.
    Joined(bool),
}

/// Per-node state of [`MisRing`].
#[derive(Debug, Clone)]
pub struct MisState {
    coloring: ThreeColorState,
    final_color: Option<u64>,
    joined: Option<bool>,
    neighbor_joined: bool,
}

/// Maximal independent set on an oriented ring via 3-colouring.
///
/// Phase 1 runs the full [`ThreeColorRing`] pipeline; phase 2 spends one
/// round per colour class (0, then 1, then 2): a node of the active class
/// joins the set iff none of its neighbours joined earlier. Nodes therefore
/// decide at slightly different rounds depending on their colour.
#[derive(Debug, Clone)]
pub struct MisRing {
    coloring: ThreeColorRing,
}

impl MisRing {
    /// Creates the algorithm for a ring with the given orientation.
    #[must_use]
    pub fn new(orientation: RingOrientation) -> Self {
        MisRing { coloring: ThreeColorRing::new(orientation) }
    }

    /// Number of rounds of the colouring phase under `knowledge`.
    fn coloring_rounds(knowledge: &avglocal_runtime::Knowledge) -> usize {
        cv_iterations_for_knowledge(knowledge) + 3
    }
}

impl RoundAlgorithm for MisRing {
    type Message = MisMessage;
    type Output = bool;
    type State = MisState;

    fn init(&self, ctx: &NodeContext) -> Self::State {
        MisState {
            coloring: self.coloring.init(ctx),
            final_color: None,
            joined: None,
            neighbor_joined: false,
        }
    }

    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        match state.final_color {
            None => self
                .coloring
                .send(&state.coloring, ctx)
                .into_iter()
                .map(|env| Envelope::new(env.port, MisMessage::Color(env.payload)))
                .collect(),
            Some(_) => broadcast(ctx.degree, &MisMessage::Joined(state.joined == Some(true))),
        }
    }

    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output> {
        let coloring_rounds = Self::coloring_rounds(&ctx.knowledge);
        if ctx.round <= coloring_rounds {
            let color_inbox: Vec<Envelope<u64>> = inbox
                .iter()
                .filter_map(|env| match env.payload {
                    MisMessage::Color(c) => Some(Envelope::new(env.port, c)),
                    MisMessage::Joined(_) => None,
                })
                .collect();
            if let Some(color) = self.coloring.receive(&mut state.coloring, ctx, &color_inbox) {
                state.final_color = Some(color);
            }
            return None;
        }
        // MIS phase: one round per colour class, in order 0, 1, 2.
        for env in inbox {
            if env.payload == MisMessage::Joined(true) {
                state.neighbor_joined = true;
            }
        }
        let active_class = (ctx.round - coloring_rounds - 1) as u64;
        if state.joined.is_none() && state.final_color == Some(active_class) {
            let join = !state.neighbor_joined;
            state.joined = Some(join);
            return Some(join);
        }
        None
    }
}

/// Convenience: runs [`MisRing`] on a cycle graph and returns the membership
/// vector in node order.
///
/// # Errors
///
/// Returns an error when the graph is not a single cycle or the execution
/// fails.
pub fn run_mis(graph: &avglocal_graph::Graph) -> Result<Vec<bool>, avglocal_runtime::RuntimeError> {
    let orientation = RingOrientation::trace(graph)?;
    let algo = MisRing::new(orientation);
    let run = avglocal_runtime::SyncExecutor::new().run(
        graph,
        &algo,
        avglocal_runtime::Knowledge::none(),
    )?;
    Ok(run.outputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use avglocal_graph::{generators, Graph, IdAssignment};
    use avglocal_runtime::{Knowledge, SyncExecutor};

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn mis_is_valid_on_random_rings() {
        for n in [3usize, 4, 5, 7, 16, 33, 90] {
            for seed in 0..3u64 {
                let g = ring(n, seed);
                let in_set = run_mis(&g).unwrap();
                assert!(
                    verify::is_maximal_independent_set(&g, &in_set),
                    "n={n} seed={seed} set={in_set:?}"
                );
            }
        }
    }

    #[test]
    fn mis_is_valid_on_structured_rings() {
        for assignment in [IdAssignment::Identity, IdAssignment::Reversed] {
            let mut g = generators::cycle(30).unwrap();
            assignment.apply(&mut g).unwrap();
            let in_set = run_mis(&g).unwrap();
            assert!(verify::is_maximal_independent_set(&g, &in_set));
        }
    }

    #[test]
    fn decision_rounds_depend_on_color_class() {
        let g = ring(24, 4);
        let orientation = RingOrientation::trace(&g).unwrap();
        let run =
            SyncExecutor::new().run(&g, &MisRing::new(orientation), Knowledge::none()).unwrap();
        let rounds = run.decision_rounds();
        // Colouring takes 7 rounds; classes decide at rounds 8, 9, 10.
        assert!(rounds.iter().all(|&r| (8..=10).contains(&r)), "{rounds:?}");
        assert!(rounds.contains(&8));
        assert!(verify::is_maximal_independent_set(&g, &run.outputs()));
    }

    #[test]
    fn mis_rejects_non_cycles() {
        let g = generators::star(5).unwrap();
        assert!(run_mis(&g).is_err());
    }

    #[test]
    fn mis_members_are_not_too_sparse() {
        // On a cycle a maximal independent set has at least n/3 members.
        let g = ring(60, 11);
        let in_set = run_mis(&g).unwrap();
        let size = in_set.iter().filter(|&&b| b).count();
        assert!(size >= 20, "MIS of size {size} on C_60");
        assert!(size <= 30);
    }
}
