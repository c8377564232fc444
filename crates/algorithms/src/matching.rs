//! Maximal matching on the oriented ring, derived from 3-colouring.
//!
//! Every node *owns* the edge to its successor. After the Cole–Vishkin
//! 3-colouring, the colour classes act in turn: a node of the active class
//! claims its successor edge iff neither endpoint is already covered. Because
//! adjacent nodes have different colours, no two conflicting edges are ever
//! claimed in the same round, and because coverage only grows, an uncovered
//! edge would have been claimed at its owner's turn — so the result is a
//! maximal matching. One final round propagates the last claims, after which
//! every node knows its partner (or that it has none).
//!
//! The decision rounds are `O(log* n)` and differ slightly between nodes
//! (claimers decide one round before the nodes they claim), giving yet
//! another radius profile for the average-measure experiments.

use avglocal_graph::{Graph, Identifier};
use avglocal_runtime::{broadcast, Envelope, Knowledge, NodeContext, RoundAlgorithm};

use crate::cole_vishkin::{cv_iterations_for_knowledge, RingOrientation};
use crate::three_coloring::{ThreeColorRing, ThreeColorState};

/// Messages exchanged by [`MatchingRing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchingMessage {
    /// Current Cole–Vishkin colour (colouring phase).
    Color(u64),
    /// Matching-phase status: whether the sender is already covered, and the
    /// identifier of the neighbour whose edge it has claimed, if any.
    Status {
        /// The sender is an endpoint of an already-claimed edge.
        covered: bool,
        /// The neighbour the sender claimed (its successor), if any.
        claimed: Option<Identifier>,
    },
}

/// Per-node state of [`MatchingRing`].
#[derive(Debug, Clone)]
pub struct MatchingState {
    coloring: ThreeColorState,
    final_color: Option<u64>,
    covered: bool,
    partner: Option<Identifier>,
    decided: bool,
}

/// Maximal matching on an oriented ring via 3-colouring and successor-edge
/// claims.
#[derive(Debug, Clone)]
pub struct MatchingRing {
    coloring: ThreeColorRing,
}

impl MatchingRing {
    /// Creates the algorithm for a ring with the given orientation.
    #[must_use]
    pub fn new(orientation: RingOrientation) -> Self {
        MatchingRing { coloring: ThreeColorRing::new(orientation) }
    }

    fn coloring_rounds(knowledge: &Knowledge) -> usize {
        cv_iterations_for_knowledge(knowledge) + 3
    }

    fn successor_of(&self, ctx: &NodeContext) -> Identifier {
        self.coloring
            .orientation()
            .successor(ctx.identifier)
            .expect("the orientation must cover every node of the ring")
    }
}

impl RoundAlgorithm for MatchingRing {
    type Message = MatchingMessage;
    type Output = Option<Identifier>;
    type State = MatchingState;

    fn init(&self, ctx: &NodeContext) -> Self::State {
        MatchingState {
            coloring: self.coloring.init(ctx),
            final_color: None,
            covered: false,
            partner: None,
            decided: false,
        }
    }

    fn send(&self, state: &Self::State, ctx: &NodeContext) -> Vec<Envelope<Self::Message>> {
        match state.final_color {
            None => self
                .coloring
                .send(&state.coloring, ctx)
                .into_iter()
                .map(|env| Envelope::new(env.port, MatchingMessage::Color(env.payload)))
                .collect(),
            Some(_) => broadcast(
                ctx.degree,
                &MatchingMessage::Status { covered: state.covered, claimed: state.partner },
            ),
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
                    MatchingMessage::Color(c) => Some(Envelope::new(env.port, c)),
                    MatchingMessage::Status { .. } => None,
                })
                .collect();
            if let Some(color) = self.coloring.receive(&mut state.coloring, ctx, &color_inbox) {
                state.final_color = Some(color);
            }
            return None;
        }

        // Matching phase. First absorb incoming claims: a claim naming this
        // node means the predecessor has matched the edge (pred, self).
        let successor = self.successor_of(ctx);
        let mut successor_covered = false;
        for env in inbox {
            if let MatchingMessage::Status { covered, claimed } = env.payload {
                if claimed == Some(ctx.identifier) && !state.decided {
                    let sender = ctx.neighbor_identifiers[env.port];
                    state.covered = true;
                    state.partner = Some(sender);
                    state.decided = true;
                    return Some(Some(sender));
                }
                if ctx.neighbor_identifiers[env.port] == successor {
                    successor_covered = covered;
                }
            }
        }

        let phase_round = ctx.round - coloring_rounds;
        if phase_round <= 3 {
            let active_class = (phase_round - 1) as u64;
            if state.final_color == Some(active_class) && !state.covered && !successor_covered {
                // Claim the successor edge.
                state.covered = true;
                state.partner = Some(successor);
                state.decided = true;
                return Some(Some(successor));
            }
            None
        } else {
            // Final propagation round: anyone still uncovered stays unmatched.
            if state.decided {
                None
            } else {
                state.decided = true;
                Some(state.partner)
            }
        }
    }
}

/// Runs [`MatchingRing`] on a cycle and returns, for each node (in node
/// order), the index of its matching partner.
///
/// # Errors
///
/// Returns an error when the graph is not a single cycle or the execution
/// fails.
pub fn run_matching(graph: &Graph) -> Result<Vec<Option<usize>>, avglocal_runtime::RuntimeError> {
    let orientation = RingOrientation::trace(graph)?;
    let algo = MatchingRing::new(orientation);
    let run = avglocal_runtime::SyncExecutor::new().run(graph, &algo, Knowledge::none())?;
    Ok(partner_indices(graph, &run.outputs()))
}

/// Resolves the partner identifiers a matching run outputs to node indices.
///
/// One table of `(identifier, node)` pairs is sorted per call and searched
/// per partner, `O(n log n)` for a whole run where a
/// [`Graph::node_by_identifier`] scan per partner is `O(n²)`. Like that
/// scan, the first node carrying a repeated identifier wins, and an
/// identifier no node carries resolves to `None`.
#[must_use]
pub fn partner_indices(graph: &Graph, partners: &[Option<Identifier>]) -> Vec<Option<usize>> {
    let mut by_identifier: Vec<(Identifier, usize)> = graph.identifiers().zip(0..).collect();
    // Sorting the pairs puts the lowest node of a repeated identifier first.
    by_identifier.sort_unstable();
    partners
        .iter()
        .map(|partner| {
            let id = (*partner)?;
            let at = by_identifier.partition_point(|&(held, _)| held < id);
            by_identifier.get(at).filter(|&&(held, _)| held == id).map(|&(_, node)| node)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use avglocal_graph::{generators, IdAssignment, NodeId};
    use avglocal_runtime::SyncExecutor;

    fn ring(n: usize, seed: u64) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        IdAssignment::Shuffled { seed }.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn matching_is_maximal_on_random_rings() {
        for n in [3usize, 4, 5, 6, 9, 16, 33, 80] {
            for seed in 0..4u64 {
                let g = ring(n, seed);
                let matched = run_matching(&g).unwrap();
                assert!(
                    verify::is_maximal_matching(&g, &matched),
                    "n={n} seed={seed} matching={matched:?}"
                );
            }
        }
    }

    /// The reference mapping: one `node_by_identifier` scan per partner.
    fn scanned_partner_indices(g: &Graph, partners: &[Option<Identifier>]) -> Vec<Option<usize>> {
        partners
            .iter()
            .map(|p| p.and_then(|id| g.node_by_identifier(id)).map(NodeId::index))
            .collect()
    }

    #[test]
    fn partner_indices_equal_the_identifier_scan_on_shuffled_rings() {
        for n in 3usize..=512 {
            let g = ring(n, n as u64);
            // Every identifier of the ring, no partner, and an absent one.
            let mut partners: Vec<Option<Identifier>> = g.identifiers().map(Some).collect();
            partners.extend([None, Some(Identifier::new(n as u64))]);
            assert_eq!(partner_indices(&g, &partners), scanned_partner_indices(&g, &partners));
            // A whole run's partners on every 16th size (runs dominate the
            // test's time).
            if n % 16 == 3 {
                let run = SyncExecutor::new()
                    .run(
                        &g,
                        &MatchingRing::new(RingOrientation::trace(&g).unwrap()),
                        Knowledge::none(),
                    )
                    .unwrap();
                let expected = scanned_partner_indices(&g, &run.outputs());
                assert_eq!(run_matching(&g).unwrap(), expected, "n={n}");
            }
        }
    }

    #[test]
    fn partner_indices_resolve_a_repeated_identifier_to_its_first_node() {
        let mut g = ring(9, 4);
        let repeated = g.identifier(NodeId::new(6));
        g.set_identifier(NodeId::new(2), repeated).unwrap();
        g.set_identifier(NodeId::new(8), repeated).unwrap();
        let partners: Vec<Option<Identifier>> = g.identifiers().map(Some).collect();
        let resolved = partner_indices(&g, &partners);
        assert_eq!(resolved, scanned_partner_indices(&g, &partners));
        assert_eq!(resolved[6], Some(2));
    }

    #[test]
    fn matching_is_maximal_on_structured_rings() {
        for assignment in [IdAssignment::Identity, IdAssignment::Reversed] {
            for n in [8usize, 15, 30] {
                let mut g = generators::cycle(n).unwrap();
                assignment.apply(&mut g).unwrap();
                let matched = run_matching(&g).unwrap();
                assert!(verify::is_maximal_matching(&g, &matched), "n={n} {assignment:?}");
            }
        }
    }

    #[test]
    fn matching_size_is_large_on_even_rings() {
        // A maximal matching on C_n has at least n/3 edges, i.e. covers at
        // least 2n/3 nodes.
        let g = ring(60, 7);
        let matched = run_matching(&g).unwrap();
        let covered = matched.iter().filter(|m| m.is_some()).count();
        assert!(covered >= 40, "only {covered} covered nodes");
    }

    #[test]
    fn decision_rounds_are_constant_and_small() {
        let g = ring(48, 2);
        let orientation = RingOrientation::trace(&g).unwrap();
        let run = SyncExecutor::new()
            .run(&g, &MatchingRing::new(orientation), Knowledge::none())
            .unwrap();
        let rounds = run.decision_rounds();
        // Colouring takes 7 rounds; claims happen at rounds 8-10, claimed
        // partners learn one round later, stragglers at round 11.
        assert!(rounds.iter().all(|&r| (8..=11).contains(&r)), "{rounds:?}");
        assert!(verify::is_maximal_matching(
            &g,
            &run.outputs()
                .into_iter()
                .map(|p| p.map(|id| g.node_by_identifier(id).unwrap().index()))
                .collect::<Vec<_>>()
        ));
    }

    #[test]
    fn matching_rejects_non_cycles() {
        let g = generators::path(6).unwrap();
        assert!(run_matching(&g).is_err());
    }
}
