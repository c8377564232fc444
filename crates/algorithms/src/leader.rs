//! Leader election variants built on the largest-ID problem.
//!
//! The paper's Section 2 problem (largest ID) is "a classic way to elect a
//! leader": each node only announces whether *it* is the leader. A strictly
//! harder variant — every node must output *who* the leader is — is also
//! provided, because it is a natural example of a problem where the average
//! radius cannot beat the worst case: no node can name the leader before
//! seeing the entire graph. Together the two variants illustrate the paper's
//! concluding question about which problems admit an average/worst-case gap.

use avglocal_graph::{Graph, Identifier, NodeId};
use avglocal_runtime::{
    BallAlgorithm, BallExecution, FrozenExecutor, Knowledge, LocalView, Result,
};

use crate::largest_id::LargestId;

/// Every node outputs the identifier of the leader (the global maximum).
///
/// A node can only be certain about the global maximum once it has seen its
/// whole connected component, so every node's radius equals the saturation
/// radius — the average equals the worst case, in sharp contrast with
/// [`LargestId`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnowTheLeader;

impl BallAlgorithm for KnowTheLeader {
    type Output = Identifier;

    #[inline]
    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<Identifier> {
        view.is_saturated().then(|| view.max_identifier())
    }
}

/// Result of a leader election: the elected node and the execution that
/// produced it.
#[derive(Debug, Clone)]
pub struct Election {
    /// The node elected as leader (the one carrying the maximum identifier).
    pub leader: NodeId,
    /// The underlying largest-ID execution (per-node outputs and radii).
    pub execution: BallExecution<bool>,
}

/// Elects a leader on `graph` by running the largest-ID algorithm.
///
/// # Errors
///
/// Propagates executor errors.
pub fn elect_leader(graph: &Graph) -> Result<Election> {
    let execution = FrozenExecutor::new(graph).run(&LargestId, Knowledge::none())?;
    let leader = graph
        .nodes()
        .find(|&v| *execution.output(v))
        .expect("largest-ID always elects exactly one leader on a graph with distinct identifiers");
    Ok(Election { leader, execution })
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
    fn elected_leader_has_maximum_identifier() {
        let g = ring(15, 3);
        let election = elect_leader(&g).unwrap();
        assert_eq!(Some(election.leader), g.max_identifier_node());
        assert!(*election.execution.output(election.leader));
    }

    #[test]
    fn know_the_leader_agrees_everywhere() {
        let g = ring(12, 8);
        let run = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        let expected = g.identifier(g.max_identifier_node().unwrap());
        assert!(run.outputs().iter().all(|&id| id == expected));
    }

    #[test]
    fn know_the_leader_has_no_average_gap() {
        let g = ring(20, 5);
        let run = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        // Every node needs the saturation radius, so average == max.
        assert_eq!(run.average_radius(), run.max_radius() as f64);
        assert_eq!(run.max_radius(), 10);
    }

    #[test]
    fn largest_id_has_an_average_gap_on_the_same_instance() {
        let g = ring(20, 5);
        let largest = FrozenExecutor::new(&g).run(&LargestId, Knowledge::none()).unwrap();
        let naming = FrozenExecutor::new(&g).run(&KnowTheLeader, Knowledge::none()).unwrap();
        assert!(largest.average_radius() < naming.average_radius());
        assert_eq!(largest.max_radius(), naming.max_radius());
    }

    #[test]
    fn election_works_on_trees() {
        let mut g = generators::balanced_tree(3, 3).unwrap();
        IdAssignment::Shuffled { seed: 21 }.apply(&mut g).unwrap();
        let election = elect_leader(&g).unwrap();
        assert_eq!(Some(election.leader), g.max_identifier_node());
    }
}
