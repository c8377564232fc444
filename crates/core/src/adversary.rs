//! Adversarial search over identifier assignments.
//!
//! The paper's measures are worst-case over the identifier permutation, so a
//! faithful reproduction needs a way to *find* bad permutations. Three
//! strategies are provided, in increasing scalability:
//!
//! * exhaustive enumeration (`n ≤ 8`), which is exact;
//! * random restarts with greedy swap-based hill climbing;
//! * the paper's own Section 3 slice construction
//!   ([`avglocal_algorithms::SliceConstruction`]), re-exported through
//!   [`section3_assignment`] with the threshold set to `½·log*(n/2)` as in
//!   the proof of Theorem 1.

use avglocal_analysis::logstar::linial_threshold;
use avglocal_graph::{traversal, Graph, IdAssignment, Permutation, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use crate::error::{CoreError, Result};
use crate::measure::Measure;
use crate::problem::Problem;
use crate::profile::RadiusProfile;

/// The outcome of an adversarial search.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryResult {
    /// The worst assignment found.
    pub assignment: IdAssignment,
    /// The value of the objective measure under that assignment.
    pub objective: f64,
    /// The radius profile under that assignment.
    pub profile: RadiusProfile,
    /// Number of candidate assignments evaluated.
    pub evaluations: usize,
}

/// Searches for the identifier assignment of an `n`-cycle that maximises
/// `measure` for `problem`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySearch {
    problem: Problem,
    measure: Measure,
}

impl AdversarySearch {
    /// Creates a search maximising `measure` for `problem`.
    #[must_use]
    pub fn new(problem: Problem, measure: Measure) -> Self {
        AdversarySearch { problem, measure }
    }

    fn evaluate(&self, n: usize, assignment: &IdAssignment) -> Result<(f64, RadiusProfile)> {
        // Build the cycle explicitly so the objective can be *any* measure,
        // including the edge-averaged ones that need the graph structure.
        let graph = crate::experiment::topology_with_assignment(&Topology::Cycle, n, assignment)?;
        let profile = self.problem.run(&graph)?;
        Ok((self.measure.evaluate_on(&profile, &graph), profile))
    }

    /// Exhaustively enumerates every identifier permutation of the `n`-cycle.
    /// Exact but limited to `n ≤ 8` (already 40 320 executions).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when `n < 3` or `n > 8`,
    /// and propagates execution errors.
    pub fn exhaustive(&self, n: usize) -> Result<AdversaryResult> {
        if !(3..=8).contains(&n) {
            return Err(CoreError::InvalidConfiguration {
                reason: format!("exhaustive search requires 3 <= n <= 8, got {n}"),
            });
        }
        let mut best: Option<AdversaryResult> = None;
        let mut evaluations = 0usize;
        for perm in Permutation::enumerate_all(n)? {
            let assignment = IdAssignment::Explicit(perm);
            let (value, profile) = self.evaluate(n, &assignment)?;
            evaluations += 1;
            if best.as_ref().is_none_or(|b| value > b.objective) {
                best = Some(AdversaryResult { assignment, objective: value, profile, evaluations });
            }
        }
        let mut result = best.expect("at least one permutation was evaluated");
        result.evaluations = evaluations;
        Ok(result)
    }

    /// Hill climbing with random restarts: starting from random permutations,
    /// repeatedly applies the best improving transposition found among a
    /// random sample of swaps.
    ///
    /// This is a heuristic lower bound on the true worst case; for the
    /// largest-ID problem it reliably rediscovers the monotone (identity-like)
    /// arrangements predicted by the Section 2 recurrence.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] when `n < 3`, `restarts ==
    /// 0`, or `steps == 0`, and propagates execution errors.
    pub fn hill_climb(
        &self,
        n: usize,
        restarts: usize,
        steps: usize,
        seed: u64,
    ) -> Result<AdversaryResult> {
        if n < 3 || restarts == 0 || steps == 0 {
            return Err(CoreError::InvalidConfiguration {
                reason: format!(
                    "hill climbing needs n >= 3, restarts >= 1, steps >= 1 (got n={n}, restarts={restarts}, steps={steps})"
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<AdversaryResult> = None;
        let mut evaluations = 0usize;
        for _ in 0..restarts {
            let mut current = Permutation::random(n, &mut rng);
            let (mut current_value, mut current_profile) =
                self.evaluate(n, &IdAssignment::Explicit(current.clone()))?;
            evaluations += 1;
            for _ in 0..steps {
                // Propose a random transposition.
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if i == j {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.swap(i, j);
                let (value, profile) =
                    self.evaluate(n, &IdAssignment::Explicit(candidate.clone()))?;
                evaluations += 1;
                if value > current_value {
                    current = candidate;
                    current_value = value;
                    current_profile = profile;
                }
            }
            if best.as_ref().is_none_or(|b| current_value > b.objective) {
                best = Some(AdversaryResult {
                    assignment: IdAssignment::Explicit(current),
                    objective: current_value,
                    profile: current_profile,
                    evaluations,
                });
            }
        }
        let mut result = best.expect("at least one restart was evaluated");
        result.evaluations = evaluations;
        Ok(result)
    }
}

/// The paper's Section 3 construction with the threshold `½·log*(n/2)` used
/// in the proof of Theorem 1, specialised to `problem`.
///
/// # Errors
///
/// Propagates execution errors from the radius oracle runs.
pub fn section3_assignment(problem: Problem, n: usize) -> Result<IdAssignment> {
    let threshold = linial_threshold(n as u64) as usize;
    let construction = avglocal_algorithms::SliceConstruction::new(n, threshold.max(1));
    let oracle = move |arrangement: &[u64]| -> Vec<usize> {
        let graph = avglocal_algorithms::cycle_with_arrangement(arrangement);
        problem
            .run(&graph)
            .map(crate::profile::RadiusProfile::into_radii)
            .unwrap_or_else(|_| vec![0; arrangement.len()])
    };
    Ok(construction.build_assignment(&oracle))
}

/// The minimum pairwise distance [`hub_adversarial_assignment`] keeps
/// between its selected hubs — and therefore a lower bound on every
/// selected hub's largest-ID radius (the nearest larger identifier always
/// sits on another selected hub).
pub const HUB_ADVERSARY_SEPARATION: usize = 3;

/// The node [`hub_adversarial_assignment`] crowns: the maximum-degree node,
/// ties broken by smallest node index. This is the hub that receives the
/// **maximum** identifier and therefore pays its full eccentricity under
/// the largest-ID problem — reporting layers (E9's `hub degree` /
/// `hub radius` columns) should identify the hub through this function
/// rather than re-deriving the rule. Returns `None` for the empty graph.
#[must_use]
pub fn top_hub(graph: &Graph) -> Option<avglocal_graph::NodeId> {
    graph.nodes().max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v.index())))
}

/// The hub adversary: the identifier assignment under which a hub-weighted
/// family detaches the edge-averaged measure from the node-averaged one
/// **while staying connected** (E9).
///
/// The construction selects a set of high-degree hubs that are pairwise at
/// distance at least [`HUB_ADVERSARY_SEPARATION`] (greedily, in decreasing
/// degree order, among nodes whose degree clearly exceeds the mean), gives
/// them the **top** identifiers (the highest-degree hub the maximum), and
/// assigns the remaining identifiers in strictly decreasing order of BFS
/// distance from the hub set (closer nodes get larger identifiers; ties
/// broken by node index). Three consequences for the largest-ID problem:
///
/// * every non-hub node has a BFS parent strictly closer to the hub set
///   carrying a strictly larger identifier — it stops at radius exactly 1;
/// * every hub except the top one runs until it meets a *larger* hub, which
///   the selection keeps at least [`HUB_ADVERSARY_SEPARATION`] hops away;
/// * the top hub holds the maximum and must saturate the graph — its radius
///   is its full eccentricity.
///
/// The whole cost of the execution is thus concentrated on exactly the
/// nodes with the most incident edges. The node average hardly notices
/// (each hub adds `(r - 1)/n`) while the edge average pays each hub's
/// radius once per incident edge — on a family whose hubs hold a constant
/// fraction of the edges, the `edge/node` ratio escapes the `[1, 2]`
/// bounded-degree sandwich that pins every near-regular family.
///
/// On a disconnected graph the nodes unreachable from the hub set are
/// ordered after the reachable ones (smallest identifiers, same index
/// tie-break); the construction stays a valid permutation but the hub story
/// only applies to the hubs' components.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfiguration`] for the empty graph.
pub fn hub_adversarial_assignment(graph: &Graph) -> Result<IdAssignment> {
    use avglocal_graph::NodeId;

    let n = graph.node_count();
    let lead = top_hub(graph).ok_or_else(|| CoreError::InvalidConfiguration {
        reason: "the hub adversary needs a non-empty graph".to_string(),
    })?;
    // Hub candidates: degree well above the mean (and at least 3), in
    // decreasing degree order with index tie-breaks for determinism — the
    // same ordering whose first element [`top_hub`] exposes.
    let mean_degree = 2.0 * graph.edge_count() as f64 / n as f64;
    let degree_floor = ((2.0 * mean_degree).ceil() as usize).max(3);
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v.index()));
    debug_assert_eq!(by_degree[0], lead, "top_hub is the head of the candidate order");

    // Greedy far-apart selection: the top-degree node always leads; later
    // candidates join only if they keep the pairwise separation. BFS from
    // each accepted hub maintains `dist_to_hubs` = min distance to the set.
    let mut hubs: Vec<NodeId> = vec![lead];
    let mut dist_to_hubs: Vec<Option<usize>> = {
        let bfs = traversal::bfs(graph, lead);
        (0..n).map(|i| bfs.distance(NodeId::new(i))).collect()
    };
    for &candidate in by_degree.iter().skip(1) {
        if graph.degree(candidate) < degree_floor {
            break;
        }
        let far_enough =
            dist_to_hubs[candidate.index()].is_none_or(|d| d >= HUB_ADVERSARY_SEPARATION);
        if far_enough {
            hubs.push(candidate);
            let bfs = traversal::bfs(graph, candidate);
            for (slot, i) in dist_to_hubs.iter_mut().zip(0..n) {
                *slot = match (*slot, bfs.distance(NodeId::new(i))) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
        }
    }

    // Identifiers: hubs take the top |hubs| in selection order, everyone
    // else follows in decreasing distance rank from the hub set (closer =
    // larger; unreachable nodes last; ties by index).
    let is_hub: Vec<bool> = {
        let mut flags = vec![false; n];
        for &h in &hubs {
            flags[h.index()] = true;
        }
        flags
    };
    let mut rest: Vec<usize> = (0..n).filter(|&i| !is_hub[i]).collect();
    rest.sort_by_key(|&i| (dist_to_hubs[i].unwrap_or(usize::MAX), i));
    let mut ids = vec![0usize; n];
    let ranked = hubs.iter().map(|h| h.index()).chain(rest);
    for (rank, node) in ranked.enumerate() {
        ids[node] = n - 1 - rank;
    }
    IdAssignment::from_vec(ids).map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avglocal_analysis::a000788::total_bit_count;

    #[test]
    fn exhaustive_matches_the_recurrence_for_small_n() {
        // The exact worst-case total radius over all permutations of the
        // n-cycle is a(n-1) + floor(n/2): the winner contributes n/2 and the
        // remaining segment of n-1 nodes contributes at most a(n-1).
        for n in [4usize, 5, 6, 7] {
            let search = AdversarySearch::new(Problem::LargestId, Measure::Total);
            let result = search.exhaustive(n).unwrap();
            let expected = total_bit_count(n as u64 - 1) + (n as u64 / 2);
            assert_eq!(result.objective as u64, expected, "n = {n}");
            assert_eq!(result.evaluations, (1..=n).product::<usize>());
        }
    }

    #[test]
    fn exhaustive_validates_bounds() {
        let search = AdversarySearch::new(Problem::LargestId, Measure::NodeAveraged);
        assert!(search.exhaustive(2).is_err());
        assert!(search.exhaustive(9).is_err());
    }

    #[test]
    fn hill_climbing_reaches_at_least_the_random_baseline() {
        let search = AdversarySearch::new(Problem::LargestId, Measure::NodeAveraged);
        let n = 16;
        let result = search.hill_climb(n, 2, 30, 11).unwrap();
        // Any random assignment is a lower bound for the hill-climbed value.
        let random = crate::experiment::run_on_topology(
            Problem::LargestId,
            &Topology::Cycle,
            n,
            &IdAssignment::Shuffled { seed: 0 },
        )
        .unwrap();
        assert!(result.objective >= random.average() * 0.99);
        assert!(result.evaluations >= 2);
        assert_eq!(result.profile.len(), n);
    }

    #[test]
    fn hill_climbing_validates_configuration() {
        let search = AdversarySearch::new(Problem::LargestId, Measure::NodeAveraged);
        assert!(search.hill_climb(2, 1, 1, 0).is_err());
        assert!(search.hill_climb(8, 0, 1, 0).is_err());
        assert!(search.hill_climb(8, 1, 0, 0).is_err());
    }

    #[test]
    fn hill_climbing_is_deterministic_per_seed() {
        let search = AdversarySearch::new(Problem::LargestId, Measure::NodeAveraged);
        let a = search.hill_climb(12, 2, 20, 3).unwrap();
        let b = search.hill_climb(12, 2, 20, 3).unwrap();
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn hub_adversary_concentrates_the_cost_on_the_hubs() {
        // On a star, the hub adversary gives the centre the largest id: its
        // radius is its eccentricity (1), every leaf stops at 1 too.
        let mut star = avglocal_graph::generators::star(8).unwrap();
        let assignment = hub_adversarial_assignment(&star).unwrap();
        assignment.apply(&mut star).unwrap();
        assert!(star.has_unique_identifiers());
        let centre = star.nodes().max_by_key(|&v| star.degree(v)).unwrap();
        assert_eq!(star.identifier(centre).value(), 7, "the centre holds the largest identifier");
        // On a hub-weighted tree (a caterpillar: star centres strung on a
        // spine): the top hub saturates (radius = eccentricity), every other
        // node either stops at radius 1 (it has a closer-to-the-hubs
        // neighbour with a larger id) or is itself a selected hub paying at
        // least the enforced separation.
        let mut g = avglocal_graph::generators::caterpillar(5, 3).unwrap();
        let assignment = hub_adversarial_assignment(&g).unwrap();
        assignment.apply(&mut g).unwrap();
        let profile = Problem::LargestId.run(&g).unwrap();
        let top = g.max_identifier_node().unwrap();
        assert_eq!(
            g.degree(top),
            g.max_degree().unwrap(),
            "the maximum identifier sits on a maximum-degree node"
        );
        assert_eq!(
            profile.radius(top).unwrap(),
            traversal::eccentricity(&g, top),
            "the top hub pays its full eccentricity"
        );
        let mut selected_hubs = 0usize;
        for v in g.nodes() {
            if v == top {
                continue;
            }
            let r = profile.radius(v).unwrap();
            if r > 1 {
                selected_hubs += 1;
                assert!(
                    r >= HUB_ADVERSARY_SEPARATION,
                    "a selected hub never meets a larger id before the separation"
                );
                assert!(g.degree(v) >= 3, "only high-degree nodes pay more than radius 1");
            }
        }
        // The caterpillar has spine hubs far enough apart for the greedy
        // selection to pick more than just the top one.
        assert!(selected_hubs >= 1, "the multi-hub selection found a second hub");
    }

    #[test]
    fn hub_adversary_is_deterministic_and_rejects_the_empty_graph() {
        let g = avglocal_graph::generators::complete_binary_tree(15).unwrap();
        assert_eq!(
            hub_adversarial_assignment(&g).unwrap(),
            hub_adversarial_assignment(&g).unwrap()
        );
        assert!(hub_adversarial_assignment(&Graph::new()).is_err());
    }

    #[test]
    fn section3_assignment_is_a_valid_permutation() {
        let assignment = section3_assignment(Problem::LandmarkColoring, 32).unwrap();
        let graph =
            crate::experiment::topology_with_assignment(&Topology::Cycle, 32, &assignment).unwrap();
        assert!(graph.has_unique_identifiers());
        // The profile under the adversarial assignment is at least as bad as
        // under a fixed random one.
        let adv = Problem::LandmarkColoring.run(&graph).unwrap();
        let rnd = crate::experiment::run_on_topology(
            Problem::LandmarkColoring,
            &Topology::Cycle,
            32,
            &IdAssignment::Shuffled { seed: 1 },
        )
        .unwrap();
        assert!(adv.average() >= rnd.average() * 0.8);
    }
}
