//! The two algorithm interfaces of the LOCAL model.
//!
//! The paper uses two equivalent descriptions of the LOCAL model and this
//! crate implements both:
//!
//! * [`RoundAlgorithm`] — the operational view: synchronous rounds in which
//!   every node sends messages to its neighbours, receives theirs, updates
//!   its state, and may commit to an output while continuing to relay
//!   messages.
//! * [`BallAlgorithm`] — the knowledge view: a node looks at the ball of
//!   radius `r` around itself for growing `r` and outputs a function of the
//!   first ball that suffices.
//!
//! The per-node cost in both cases is the round/radius at which the node
//! commits to its output; the paper's contribution is to average this cost
//! over the nodes instead of taking its maximum.

use avglocal_graph::Identifier;

use crate::knowledge::Knowledge;
use crate::message::Envelope;
use crate::view::LocalView;

/// The information a node starts with in the message-passing view.
///
/// Identifier and neighbourhood are local; anything global must come through
/// [`Knowledge`]. By convention the runtime exposes the identifiers of the
/// direct neighbours from round 0 (a port-labelled variant of the model that
/// differs from the purely port-numbered one by at most one round and keeps
/// the round count aligned with the ball radius).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeContext {
    /// This node's identifier.
    pub identifier: Identifier,
    /// Degree of the node (number of ports).
    pub degree: usize,
    /// Identifiers of the neighbours, indexed by port.
    pub neighbor_identifiers: Vec<Identifier>,
    /// Global knowledge the algorithm may rely on.
    pub knowledge: Knowledge,
    /// Current round (0 before any communication).
    pub round: usize,
}

/// A deterministic distributed algorithm in the synchronous message-passing
/// (round-based) view of the LOCAL model.
///
/// The executor drives the algorithm as follows:
///
/// 1. [`init`](RoundAlgorithm::init) builds the per-node state;
/// 2. [`decide_initial`](RoundAlgorithm::decide_initial) may commit an output
///    already at radius 0;
/// 3. each round, [`send`](RoundAlgorithm::send) produces the outgoing
///    envelopes, then [`receive`](RoundAlgorithm::receive) consumes the
///    incoming ones and may commit an output.
///
/// A node that has committed **keeps participating**: `send` and `receive`
/// are still called so it can relay information, exactly as required by the
/// unknown-`n` variant of the model the paper builds on. Only the first
/// committed output and its round are recorded.
pub trait RoundAlgorithm {
    /// Message payload exchanged between neighbours.
    type Message: Clone;
    /// Output each node eventually commits to.
    type Output: Clone;
    /// Per-node state.
    type State;

    /// Builds the initial state of a node.
    fn init(&self, ctx: &NodeContext) -> Self::State;

    /// Gives the node a chance to commit before any communication (radius 0).
    fn decide_initial(&self, _state: &mut Self::State, _ctx: &NodeContext) -> Option<Self::Output> {
        None
    }

    /// Produces the messages to send this round, as `(port, payload)`
    /// envelopes.
    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>>;

    /// Consumes the messages received this round and optionally commits an
    /// output. The executor records only the first `Some` returned.
    fn receive(
        &self,
        state: &mut Self::State,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Message>],
    ) -> Option<Self::Output>;
}

/// A deterministic distributed algorithm in the ball (knowledge) view of the
/// LOCAL model.
///
/// The executor shows the node its [`LocalView`] at radius 0, 1, 2, … and the
/// algorithm returns `Some(output)` on the first radius at which it can
/// decide. The radius of that first decision is the node's cost `r(v)`.
pub trait BallAlgorithm {
    /// Output each node eventually commits to.
    type Output: Clone;

    /// Inspects the view and either commits to an output or asks for a larger
    /// radius by returning `None`.
    fn decide(&self, view: &LocalView, knowledge: &Knowledge) -> Option<Self::Output>;
}

impl<B: BallAlgorithm + ?Sized> BallAlgorithm for &B {
    type Output = B::Output;

    fn decide(&self, view: &LocalView, knowledge: &Knowledge) -> Option<Self::Output> {
        (**self).decide(view, knowledge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_graph::{extract_ball, generators, NodeId};

    /// A trivial ball algorithm that outputs its centre identifier at radius 0.
    struct Immediate;

    impl BallAlgorithm for Immediate {
        type Output = u64;
        fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<u64> {
            Some(view.center_identifier().value())
        }
    }

    #[test]
    fn ball_algorithm_by_reference_delegates() {
        let g = generators::cycle(5).unwrap();
        let view = LocalView::from_ball(&extract_ball(&g, NodeId::new(2), 0));
        let algo = Immediate;
        assert_eq!(algo.decide(&view, &Knowledge::none()), Some(2));
        let r = &algo;
        assert_eq!(r.decide(&view, &Knowledge::none()), Some(2));
    }

    #[test]
    fn node_context_is_plain_data() {
        let ctx = NodeContext {
            identifier: Identifier::new(3),
            degree: 2,
            neighbor_identifiers: vec![Identifier::new(1), Identifier::new(2)],
            knowledge: Knowledge::none(),
            round: 0,
        };
        let clone = ctx.clone();
        assert_eq!(ctx, clone);
        assert_eq!(clone.neighbor_identifiers.len(), 2);
    }
}
