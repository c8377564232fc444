//! The largest-ID problem and the paper's Section 2 algorithm.
//!
//! Every node must output `true` iff it carries the largest identifier of the
//! whole graph — the classic way to elect a leader. On the cycle the problem
//! has worst-case complexity `Θ(n)` (the winner must see everything), but the
//! natural algorithm below has *average* radius `Θ(log n)`, which is the
//! paper's headline separation.

use avglocal_graph::Graph;
use avglocal_runtime::{
    BallAlgorithm, BallExecution, FrozenExecutor, Knowledge, LocalView, Result,
};

/// The paper's algorithm for the largest-ID problem.
///
/// Each node grows the radius of its ball until it either discovers an
/// identifier larger than its own (output `false`) or has seen the entire
/// graph while still being the maximum (output `true`).
///
/// The algorithm needs no knowledge of `n` and works on any connected graph,
/// not only cycles.
///
/// # Examples
///
/// ```
/// use avglocal_algorithms::LargestId;
/// use avglocal_graph::{generators, IdAssignment};
/// use avglocal_runtime::{FrozenExecutor, Knowledge};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ring = generators::cycle(128)?;
/// IdAssignment::Shuffled { seed: 5 }.apply(&mut ring)?;
/// let run = FrozenExecutor::new(&ring).run(&LargestId, Knowledge::none())?;
/// assert_eq!(run.outputs().iter().filter(|&&b| b).count(), 1);
/// assert_eq!(run.max_radius(), 64);       // worst case is n/2
/// assert!(run.average_radius() < 10.0);   // average is logarithmic
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LargestId;

impl BallAlgorithm for LargestId {
    type Output = bool;

    #[inline]
    fn decide(&self, view: &LocalView, _knowledge: &Knowledge) -> Option<bool> {
        if !view.center_has_max_identifier() {
            // Someone with a larger identifier is visible: certainly not the
            // global maximum.
            Some(false)
        } else if view.is_saturated() {
            // The whole component is visible and nobody beats the centre.
            Some(true)
        } else {
            None
        }
    }
}

/// Runs the largest-ID algorithm on `graph` and returns the execution
/// (outputs and per-node radii).
///
/// # Errors
///
/// Propagates executor errors; with [`LargestId`] these can only occur on
/// graphs with non-distinct identifiers.
pub fn run_largest_id(graph: &Graph) -> Result<BallExecution<bool>> {
    FrozenExecutor::new(graph).run(&LargestId, Knowledge::none())
}

/// The exact radius the paper predicts for each node of a **cycle**, given
/// the identifier arrangement: the distance to the nearest node with a larger
/// identifier, or `⌊n/2⌋` for the maximum (it must see the whole cycle).
///
/// This is the combinatorial ground truth the executor is tested against.
///
/// # Panics
///
/// Panics if `graph` is not a cycle (some node does not have degree 2).
#[must_use]
pub fn predicted_cycle_radii(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    assert!(graph.nodes().all(|v| graph.degree(v) == 2), "predicted_cycle_radii expects a cycle");
    let winner = graph.max_identifier_node().expect("cycle is non-empty");
    graph
        .nodes()
        .map(|v| {
            if v == winner {
                return n / 2;
            }
            let own = graph.identifier(v);
            // Walk both directions simultaneously; the first larger identifier
            // determines the radius.
            let mut best = n / 2;
            for (dir, first) in graph.neighbors(v).iter().copied().enumerate() {
                let _ = dir;
                let walk = avglocal_graph::arm(graph, v, first, n);
                for (steps, u) in walk.iter().enumerate() {
                    if graph.identifier(*u) > own {
                        best = best.min(steps + 1);
                        break;
                    }
                }
            }
            best
        })
        .collect()
}

/// Sum of the predicted radii over a cycle — the quantity the paper's
/// recurrence `a(p)` (plus the `n/2` of the winner) upper-bounds.
#[must_use]
pub fn predicted_cycle_total(graph: &Graph) -> usize {
    predicted_cycle_radii(graph).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_correct_largest_id;
    use avglocal_graph::{generators, IdAssignment, Identifier, NodeId};

    fn ring(n: usize, assignment: IdAssignment) -> Graph {
        let mut g = generators::cycle(n).unwrap();
        assignment.apply(&mut g).unwrap();
        g
    }

    #[test]
    fn exactly_one_winner() {
        let g = ring(21, IdAssignment::Shuffled { seed: 77 });
        let run = run_largest_id(&g).unwrap();
        assert!(is_correct_largest_id(&g, run.outputs()));
        assert_eq!(run.outputs().iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn winner_needs_half_the_cycle() {
        let g = ring(30, IdAssignment::Shuffled { seed: 1 });
        let run = run_largest_id(&g).unwrap();
        let winner = g.max_identifier_node().unwrap();
        assert_eq!(run.radius(winner), 15);
        assert_eq!(run.max_radius(), 15);
    }

    #[test]
    fn executor_matches_combinatorial_prediction() {
        for seed in 0..10u64 {
            let g = ring(25, IdAssignment::Shuffled { seed });
            let run = run_largest_id(&g).unwrap();
            assert_eq!(run.radii(), predicted_cycle_radii(&g).as_slice(), "seed {seed}");
        }
    }

    #[test]
    fn identity_assignment_radii() {
        // Identifiers increase around the cycle: every non-maximum node sees a
        // larger identifier at radius 1; the maximum needs ⌊n/2⌋.
        let g = ring(16, IdAssignment::Identity);
        let run = run_largest_id(&g).unwrap();
        let radii = run.radii();
        assert_eq!(radii[15], 8);
        assert!(radii[..15].iter().all(|&r| r == 1));
        assert_eq!(predicted_cycle_total(&g), 8 + 15);
    }

    #[test]
    fn works_on_paths_and_trees_too() {
        let mut g = generators::path(10).unwrap();
        IdAssignment::Shuffled { seed: 4 }.apply(&mut g).unwrap();
        let run = run_largest_id(&g).unwrap();
        assert!(is_correct_largest_id(&g, run.outputs()));

        let mut t = generators::balanced_tree(2, 4).unwrap();
        IdAssignment::Shuffled { seed: 8 }.apply(&mut t).unwrap();
        let run = run_largest_id(&t).unwrap();
        assert!(is_correct_largest_id(&t, run.outputs()));
    }

    #[test]
    fn verify_rejects_wrong_outputs() {
        let g = ring(9, IdAssignment::Identity);
        let mut outputs = vec![false; 9];
        assert!(!is_correct_largest_id(&g, &outputs)); // nobody claims leadership
        outputs[0] = true;
        assert!(!is_correct_largest_id(&g, &outputs)); // wrong node
        let mut correct = vec![false; 9];
        correct[8] = true;
        assert!(is_correct_largest_id(&g, &correct));
        assert!(!is_correct_largest_id(&g, &correct[..5])); // wrong length
    }

    #[test]
    fn average_is_much_smaller_than_max_on_large_rings() {
        let g = ring(1024, IdAssignment::Shuffled { seed: 3 });
        let run = run_largest_id(&g).unwrap();
        assert_eq!(run.max_radius(), 512);
        // ln(1024) ≈ 6.9; allow a generous constant.
        assert!(run.average_radius() < 20.0, "average was {}", run.average_radius());
    }

    #[test]
    fn reversed_assignment_mirrors_identity() {
        let g = ring(12, IdAssignment::Reversed);
        let run = run_largest_id(&g).unwrap();
        assert!(*run.output(NodeId::new(0)));
        assert_eq!(run.radius(NodeId::new(0)), 6);
        assert_eq!(g.identifier(NodeId::new(0)), Identifier::new(11));
    }

    #[test]
    #[should_panic(expected = "expects a cycle")]
    fn predicted_radii_reject_non_cycles() {
        let g = generators::star(5).unwrap();
        let _ = predicted_cycle_radii(&g);
    }
}
