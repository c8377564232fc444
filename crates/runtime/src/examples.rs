//! Small built-in algorithms used in documentation and tests.
//!
//! These are not part of the paper; the paper's algorithms (largest ID,
//! Cole–Vishkin, …) live in `avglocal-algorithms`. The ones here exist so the
//! runtime crate can be exercised and documented without a dependency cycle.

use avglocal_graph::Identifier;

use crate::algorithm::{BallAlgorithm, NodeContext, RoundAlgorithm};
use crate::knowledge::Knowledge;
use crate::message::{broadcast, Envelope};
use crate::view::LocalView;

/// Round algorithm: each node outputs the number of neighbours it heard from
/// in the first round (its degree).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountNeighbors;

impl RoundAlgorithm for CountNeighbors {
    type Message = ();
    type Output = usize;
    type State = ();

    fn init(&self, _ctx: &NodeContext) -> Self::State {}

    fn send(&self, _state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        broadcast(ctx.degree, &())
    }

    fn receive(
        &self,
        _state: &mut Self::State,
        _ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output> {
        Some(inbox.len())
    }
}

/// Round algorithm: flood the maximum identifier and output it after
/// `⌈n/2⌉` rounds.
///
/// The stopping rule relies on [`Knowledge::node_count`] and on the diameter
/// being at most `⌈n/2⌉`, which holds on cycles (the topology of the paper)
/// and on cliques. Without knowledge of `n` the algorithm never terminates —
/// precisely the kind of assumption the unknown-`n` model removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodMax;

/// Per-node state of [`FloodMax`]: the largest identifier seen so far.
#[derive(Debug, Clone)]
pub struct FloodMaxState {
    best: Identifier,
}

impl RoundAlgorithm for FloodMax {
    type Message = Identifier;
    type Output = Identifier;
    type State = FloodMaxState;

    fn init(&self, ctx: &NodeContext) -> Self::State {
        FloodMaxState { best: ctx.identifier }
    }

    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        broadcast(ctx.degree, &state.best)
    }

    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output> {
        for env in inbox {
            state.best = state.best.max(env.payload);
        }
        let n = ctx.knowledge.node_count()?;
        if ctx.round >= n.div_ceil(2) {
            Some(state.best)
        } else {
            None
        }
    }
}

/// Ball algorithm: output `true` iff the centre holds the largest identifier
/// seen so far, deciding as soon as the ball is saturated or a larger
/// identifier appears.
///
/// This is exactly the paper's Section 2 algorithm; the canonical
/// implementation (with verification helpers and a message-passing twin)
/// lives in `avglocal-algorithms`, this copy exists for runtime-level tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveLargestId;

impl BallAlgorithm for NaiveLargestId {
    type Output = bool;

    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<bool> {
        if !view.center_has_max_identifier() {
            Some(false)
        } else if view.is_saturated() {
            Some(true)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SyncExecutor;
    use crate::FrozenExecutor;
    use avglocal_graph::{generators, IdAssignment, NodeId};

    #[test]
    fn flood_max_on_clique() {
        let mut g = generators::complete(5).unwrap();
        IdAssignment::Shuffled { seed: 1 }.apply(&mut g).unwrap();
        let run = SyncExecutor::new().run(&g, &FloodMax, Knowledge::with_node_count(5)).unwrap();
        assert!(run.outputs().iter().all(|&id| id == Identifier::new(4)));
    }

    #[test]
    fn naive_largest_id_flags_exactly_the_maximum() {
        let mut g = generators::cycle(11).unwrap();
        IdAssignment::Shuffled { seed: 9 }.apply(&mut g).unwrap();
        let run = FrozenExecutor::new(&g).run(&NaiveLargestId, Knowledge::none()).unwrap();
        let winners: Vec<NodeId> = g.nodes().filter(|&v| *run.output(v)).collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(g.identifier(winners[0]), Identifier::new(10));
    }

    #[test]
    fn count_neighbors_on_star() {
        let g = generators::star(6).unwrap();
        let run = SyncExecutor::new().run(&g, &CountNeighbors, Knowledge::none()).unwrap();
        assert_eq!(*run.output(NodeId::new(0)).unwrap(), 5);
        assert!((1..6).all(|i| *run.output(NodeId::new(i)).unwrap() == 1));
    }
}
