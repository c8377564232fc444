//! The experiment harness: sweeps over sizes, topologies and identifier
//! assignments.
//!
//! Every experiment in `EXPERIMENTS.md` is a sweep: pick a problem, a
//! [`Topology`], a list of sizes, and a policy for assigning identifiers; run
//! the algorithm; record the worst-case and average radii. The harness keeps
//! the runs deterministic (seeds are explicit) so the reported tables are
//! exactly reproducible.
//!
//! The paper states its results on the ring, which is
//! [`Topology::Cycle`] here: every entry point takes the topology, and the
//! ring is one value of it.
//!
//! Within a sweep, the topology instance is built **once per size** and only
//! the identifier assignment varies across trials — for random graphs this is
//! a semantic requirement, not just an optimisation: the trials of a row must
//! measure identifier randomness on one fixed graph, not mix draws of the
//! graph itself.
//!
//! # Examples
//!
//! A two-size sweep over a hub-weighted family, reading both the scalar
//! measure columns and the full radius distribution of a row:
//!
//! ```
//! use avglocal::prelude::*;
//!
//! # fn main() -> Result<(), avglocal::CoreError> {
//! let result = Sweep::on(
//!     Problem::LargestId,
//!     Topology::PreferentialAttachment { m: 2, seed: 7 },
//!     vec![32, 64],
//! )
//! .with_policy(AssignmentPolicy::Random { base_seed: 1 })
//! .with_trials(3)
//! .run()?;
//!
//! assert_eq!(result.sizes(), vec![32, 64]);
//! let row = &result.rows[1];
//! assert_eq!(row.trials, 3);
//! assert!(row.worst_case >= row.average);
//! // The row's distribution pools all trials: 3 x 64 observations.
//! assert_eq!(row.cdf.observations(), 3 * 64);
//! assert_eq!(row.cdf.fraction_within(row.cdf.max_radius()), 1.0);
//! assert!(row.cdf.quantile(500) <= row.cdf.quantile(900));
//! # Ok(())
//! # }
//! ```

use avglocal_analysis::Summary;
use avglocal_graph::{
    derive_seed, ComponentLabels, ComponentMode, CsrGraph, Graph, IdAssignment, Topology,
};
use avglocal_runtime::{FrozenExecutor, NodeBatchOptions};
use rayon::prelude::*;

use crate::cdf::RadiusCdf;
use crate::error::{CoreError, Result};
use crate::measure::{ComponentMeasures, MeasureSet};
use crate::problem::Problem;
use crate::profile::RadiusProfile;
use crate::sampling::{Estimate, SamplePlan, SampledMeasureSet};

/// How identifiers are assigned to the nodes in a sweep.
///
/// `Random` is the paper's Section 4 question — both measures under
/// uniformly random identifiers — asked of every trial of the row;
/// `Fixed(IdAssignment::Identity)` is the adversarial case for the
/// largest-ID average.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AssignmentPolicy {
    /// One uniformly random permutation per trial, derived from `base_seed`.
    Random {
        /// Seed from which per-trial seeds are derived.
        base_seed: u64,
    },
    /// A fixed explicit assignment used for every trial.
    Fixed(IdAssignment),
}

impl AssignmentPolicy {
    /// The assignment used for trial number `trial`.
    ///
    /// Per-trial seeds are a SplitMix64-style mix of `(base_seed, trial)`
    /// (see [`derive_seed`]), so adjacent base seeds draw unrelated
    /// permutation streams — under the old additive derivation, base 0 /
    /// trial 1 and base 1 / trial 0 were the *same* permutation.
    #[must_use]
    pub fn assignment_for_trial(&self, trial: usize) -> IdAssignment {
        match self {
            AssignmentPolicy::Random { base_seed } => {
                IdAssignment::Shuffled { seed: derive_seed(*base_seed, trial as u64) }
            }
            AssignmentPolicy::Fixed(a) => a.clone(),
        }
    }
}

/// One row of a sweep: a single size, every measure aggregated over the
/// trials.
///
/// All measures of a trial come from **one** execution: the per-node radius
/// vector is folded into a [`MeasureSet`] (node-averaged, edge-averaged,
/// worst-case, median, total) in a single pass, so adding measures never
/// re-runs the algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The topology the row was measured on.
    pub topology: Topology,
    /// Number of nodes.
    pub n: usize,
    /// Number of trials aggregated in this row.
    pub trials: usize,
    /// Number of connected components of the instance (1 unless the sweep
    /// runs in [`ComponentMode::PerComponent`]).
    pub components: usize,
    /// Mean (over trials) of the worst-case radius.
    pub worst_case: f64,
    /// Mean (over trials) of the node-averaged radius.
    pub average: f64,
    /// Summary of the per-trial node-averaged radii (for confidence
    /// intervals).
    pub average_summary: Summary,
    /// Mean (over trials) of the total radius.
    pub total: f64,
    /// Mean (over trials) of the edge-averaged radius with
    /// [`crate::measure::EdgeWeight::Max`] endpoints.
    pub edge_averaged: f64,
    /// Mean (over trials) of the edge-averaged radius with
    /// [`crate::measure::EdgeWeight::Mean`] endpoints.
    pub edge_averaged_mean: f64,
    /// Mean (over trials) of the per-trial median radius.
    pub median: f64,
    /// The pooled radius distribution of the row: every trial's radius
    /// vector merged exactly (`trials x n` observations), so any quantile —
    /// not just the scalar columns above — can be read off after the sweep.
    /// It holds one entry per distinct radius of the pooled trials, not one
    /// per node or per radius up to the largest.
    ///
    /// In a sampled sweep this pools the **raw sampled** radii (the
    /// observations actually probed) — unweighted, so biased for stratified
    /// and edge-endpoint designs; read quantile estimates off
    /// [`SweepRow::sampled`] instead.
    pub cdf: RadiusCdf,
    /// The sampling estimates when the sweep ran with
    /// [`Sweep::with_sample_plan`]; `None` for an exact sweep. When set,
    /// the scalar columns above hold the estimated values for the measures
    /// the plan supports and `0.0` for the rest — the typed [`SampledRow`]
    /// is the authoritative record of what was (and was not) estimated.
    pub sampled: Option<SampledRow>,
}

/// The per-size record of a sampled sweep: combined estimates with their
/// confidence half-widths, plus every trial's full [`SampledMeasureSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRow {
    /// The plan the sweep sampled with.
    pub plan: SamplePlan,
    /// Nodes probed per trial (constant across trials of one row).
    pub probes: usize,
    /// Whether the budget covered the whole population (estimates are then
    /// exact, bit-identical to an exact sweep's measures).
    pub census: bool,
    /// Trial-combined node-averaged estimate ([`Estimate::mean_of`]), when
    /// the plan estimates it.
    pub node_averaged: Option<Estimate>,
    /// Trial-combined edge-averaged (max-endpoint) estimate.
    pub edge_averaged: Option<Estimate>,
    /// Trial-combined edge-averaged (mean-endpoint) estimate.
    pub edge_averaged_mean: Option<Estimate>,
    /// Mean over trials of the estimated median radius, when the plan
    /// estimates quantiles.
    pub median: Option<f64>,
    /// Every trial's estimate, in trial order.
    pub per_trial: Vec<SampledMeasureSet>,
}

impl SweepRow {
    /// The separation factor `worst_case / average` of this row.
    #[must_use]
    pub fn separation(&self) -> f64 {
        if self.average == 0.0 {
            1.0
        } else {
            self.worst_case / self.average
        }
    }
}

/// The outcome of a sweep: one row per requested size.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The problem that was swept.
    pub problem: Problem,
    /// The topology the sweep ran on.
    pub topology: Topology,
    /// One row per size, in the order the sizes were given.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// The sizes of the sweep.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.rows.iter().map(|r| r.n).collect()
    }

    /// The average-radius column as `f64`s (for model fitting).
    #[must_use]
    pub fn average_column(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.average).collect()
    }

    /// The worst-case-radius column as `f64`s (for model fitting).
    #[must_use]
    pub fn worst_case_column(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.worst_case).collect()
    }

    /// The edge-averaged-radius column (max-endpoint weighting) as `f64`s.
    #[must_use]
    pub fn edge_averaged_column(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.edge_averaged).collect()
    }

    /// The median-radius column as `f64`s.
    #[must_use]
    pub fn median_column(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.median).collect()
    }

    /// An arbitrary quantile column, read off each row's pooled radius
    /// distribution (`per_mille` in thousandths, `500` = median). Unlike
    /// [`SweepResult::median_column`] — the mean of per-trial medians — this
    /// is the quantile of the **pooled** observations of the row.
    #[must_use]
    pub fn quantile_column(&self, per_mille: u16) -> Vec<f64> {
        self.rows.iter().map(|r| r.cdf.quantile(per_mille)).collect()
    }
}

/// Configuration of a sweep experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    problem: Problem,
    topology: Topology,
    sizes: Vec<usize>,
    policy: AssignmentPolicy,
    trials: usize,
    mode: ComponentMode,
    sample: Option<SamplePlan>,
    sample_seed: u64,
}

impl Sweep {
    /// Creates a sweep of `problem` over the given ring sizes (the paper's
    /// setting; use [`Sweep::on`] for other families).
    #[must_use]
    pub fn new(problem: Problem, sizes: Vec<usize>) -> Self {
        Sweep::on(problem, Topology::Cycle, sizes)
    }

    /// Creates a sweep of `problem` over the given sizes of `topology`.
    #[must_use]
    pub fn on(problem: Problem, topology: Topology, sizes: Vec<usize>) -> Self {
        Sweep {
            problem,
            topology,
            sizes,
            policy: AssignmentPolicy::Random { base_seed: 0 },
            trials: 1,
            mode: ComponentMode::RequireConnected,
            sample: None,
            sample_seed: 0,
        }
    }

    /// Sets the identifier-assignment policy (default: random with seed 0).
    ///
    /// A one-size sweep with [`AssignmentPolicy::Random`] and `samples`
    /// trials is the random-permutation study of the paper's Section 4: its
    /// row holds the mean and spread of both measures over the sampled
    /// permutations, and the pooled radius distribution of all of them.
    #[must_use]
    pub fn with_policy(mut self, policy: AssignmentPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the number of trials per size (default: 1).
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets how disconnected instances are handled (default:
    /// [`ComponentMode::RequireConnected`]).
    ///
    /// In [`ComponentMode::PerComponent`] a disconnected family — e.g.
    /// `G(n, p)` below the connectivity threshold — is a supported
    /// configuration instead of a hard error: the first draw is used as-is
    /// (no redraw loop), outputs are verified per component, every ball
    /// saturates at its component boundary, and the row reports the
    /// aggregated measures plus the component count.
    #[must_use]
    pub fn with_component_mode(mut self, mode: ComponentMode) -> Self {
        self.mode = mode;
        self
    }

    /// Switches the sweep to **sampled estimation**: instead of probing
    /// every node every trial, each trial probes only the subset `plan`
    /// draws and the rows report estimates with confidence half-widths
    /// ([`SweepRow::sampled`]). This is what extends E-style curves past
    /// the exact-sweep frontier — probe cost drops from Θ(n) balls per
    /// trial to Θ(budget).
    ///
    /// The sample set of trial `t` is a pure function of
    /// `(sample seed, t, plan)` and the instance (see
    /// [`SamplePlan::seed_for`]), so sampled sweeps keep the exact sweep's
    /// determinism contract: bit-identical results across runs,
    /// schedulings and thread counts. Only ball-view problems support
    /// per-node probes, and only whole-population (connected) sweeps are
    /// estimable; [`Sweep::run`] rejects other configurations.
    #[must_use]
    pub fn with_sample_plan(mut self, plan: SamplePlan) -> Self {
        self.sample = Some(plan);
        self
    }

    /// Sets the base seed of the sample streams (default 0). Kept separate
    /// from the id-assignment policy seed so resampling never perturbs the
    /// identifier draw and vice versa.
    #[must_use]
    pub fn with_sample_seed(mut self, seed: u64) -> Self {
        self.sample_seed = seed;
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfiguration`] for an empty size list,
    /// zero trials, or a ring-only problem on a non-cycle topology, and
    /// propagates any construction, execution or validation error (including
    /// [`avglocal_graph::GraphError::Disconnected`] when a `G(n, p)` family
    /// cannot produce a connected instance).
    pub fn run(&self) -> Result<SweepResult> {
        if self.sizes.is_empty() {
            return Err(CoreError::InvalidConfiguration {
                reason: "sweep needs at least one size".to_string(),
            });
        }
        if self.trials == 0 {
            return Err(CoreError::InvalidConfiguration {
                reason: "sweep needs at least one trial".to_string(),
            });
        }
        check_problem_supports_topology(self.problem, &self.topology)?;
        if self.sample.is_some() {
            if !self.problem.uses_ball_view() {
                return Err(CoreError::InvalidConfiguration {
                    reason: format!(
                        "sampled sweeps need a ball-view problem; '{}' is round-based",
                        self.problem.key()
                    ),
                });
            }
            if self.mode == ComponentMode::PerComponent {
                return Err(CoreError::InvalidConfiguration {
                    reason: "sampled sweeps estimate whole-population measures; \
                             per-component mode is not supported"
                        .to_string(),
                });
            }
        }
        let rows = self.sizes.iter().map(|&n| self.row(n)).collect::<Result<_>>()?;
        Ok(SweepResult { problem: self.problem, topology: self.topology.clone(), rows })
    }

    /// One size of the sweep, exact or sampled.
    ///
    /// One instance per size: trials vary the identifiers, never the graph
    /// (essential for random families, cheaper for all). In per-component
    /// mode the instance is the first draw (no connectivity redraws) and one
    /// BFS sweep of it labels the components that scope verification.
    /// Ball-view problems freeze the instance once, free it (the labels are
    /// taken first, and a trial reads only the snapshot) and run every trial
    /// on a session over that snapshot ([`Sweep::run_trials`]): an exact
    /// trial probes and verifies every node, a sampled trial probes exactly
    /// the subset the plan draws through the index-addressed batch path.
    /// Round-based problems clone the instance and apply the assignment per
    /// trial instead.
    fn row(&self, n: usize) -> Result<SweepRow> {
        let base = self.topology.build_for(n, self.mode)?;
        let labels =
            (self.mode == ComponentMode::PerComponent).then(|| ComponentLabels::of_graph(&base));
        let components = labels.as_ref().map_or(1, ComponentLabels::count);
        if !self.problem.uses_ball_view() {
            let per_trial: Vec<Result<MeasureSet>> = (0..self.trials)
                .into_par_iter()
                .map(|trial| {
                    let mut graph = base.clone();
                    self.policy.assignment_for_trial(trial).apply(&mut graph)?;
                    Ok(MeasureSet::of(&self.problem.run(&graph)?, &base))
                })
                .collect();
            let sets = per_trial.into_iter().collect::<Result<Vec<_>>>()?;
            return Ok(self.exact_row(n, components, &sets));
        }
        let csr = base.freeze();
        drop(base);
        let Some(plan) = self.sample else {
            let sets = self.run_trials(&csr, |session, _| {
                let profile = self.problem.run_on_session(session, labels.as_ref())?;
                Ok(MeasureSet::of_csr(&profile, &csr))
            })?;
            return Ok(self.exact_row(n, components, &sets));
        };
        let per_trial = self.run_trials(&csr, |session, trial| {
            let sample = plan.draw(&csr, plan.seed_for(self.sample_seed, trial));
            let radii =
                self.problem.probe_radii(session, sample.nodes(), &NodeBatchOptions::new())?;
            // The raw sampled observations: pooled into the row cdf, and
            // their maximum is a certified lower bound on the trial's worst
            // case.
            let worst = radii.iter().copied().max().unwrap_or(0) as f64;
            Ok((sample.estimate(&radii), RadiusCdf::from_radii(&radii), worst))
        })?;
        Ok(self.sampled_row(n, plan, per_trial))
    }

    /// Runs the sweep's trials on the frozen instance `csr` and returns
    /// `trial(session, t)` for every trial `t`, in trial order.
    ///
    /// Trials are independent and their seeds explicit, so they run on the
    /// work-stealing pool: the pool claims trials dynamically (a slow trial
    /// stalls only itself) and each participant keeps one session alive
    /// across every trial it steals. The participant's first trial creates
    /// the session by cloning the snapshot (the adjacency is shared, only the
    /// `O(n)` identifier table copies); every trial then writes the policy's
    /// identifier table for `t` straight into the session's table
    /// ([`FrozenExecutor::try_assign`]): a permutation, so unique by
    /// construction, with no permutation or second table built first and
    /// nothing hashed or re-indexed. A trial costs that write plus its
    /// probes, and the grower scratch stays warm from trial to trial.
    /// Results are collected in trial order (the error is the first failing
    /// trial's), keeping every aggregate bit-for-bit identical to a
    /// sequential sweep.
    fn run_trials<T: Send>(
        &self,
        csr: &CsrGraph,
        trial: impl Fn(&FrozenExecutor, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let per_trial: Vec<Result<T>> = (0..self.trials)
            .into_par_iter()
            .map_init(
                || None,
                |session: &mut Option<FrozenExecutor>, t| {
                    let session =
                        session.get_or_insert_with(|| FrozenExecutor::from_csr(csr.clone()));
                    session.try_assign(&self.policy.assignment_for_trial(t))?;
                    trial(session, t)
                },
            )
            .collect();
        per_trial.into_iter().collect()
    }

    /// Folds the exact trials of one size into its row: the scalar measures
    /// average over the trials, and the distribution merges exactly (in trial
    /// order, for determinism by construction rather than by commutativity).
    fn exact_row(&self, n: usize, components: usize, sets: &[MeasureSet]) -> SweepRow {
        let mean_of =
            |f: fn(&MeasureSet) -> f64| sets.iter().map(f).sum::<f64>() / sets.len() as f64;
        let averages: Vec<f64> = sets.iter().map(|s| s.node_averaged).collect();
        let average_summary = Summary::from_values(&averages);
        let mut cdf = RadiusCdf::empty();
        for set in sets {
            cdf.merge(&set.cdf);
        }
        SweepRow {
            topology: self.topology.clone(),
            n,
            trials: self.trials,
            components,
            worst_case: mean_of(|s| s.worst_case),
            average: average_summary.mean,
            average_summary,
            total: mean_of(|s| s.total),
            edge_averaged: mean_of(|s| s.edge_averaged),
            edge_averaged_mean: mean_of(|s| s.edge_averaged_mean),
            median: mean_of(|s| s.median),
            cdf,
            sampled: None,
        }
    }

    /// Folds the sampled trials of one size (each trial's estimate, raw
    /// sampled distribution and largest sampled radius) into its row.
    fn sampled_row(
        &self,
        n: usize,
        plan: SamplePlan,
        per_trial: Vec<(SampledMeasureSet, RadiusCdf, f64)>,
    ) -> SweepRow {
        let mut estimates = Vec::with_capacity(self.trials);
        let mut cdf = RadiusCdf::empty();
        let mut worst_sum = 0.0;
        for (estimate, trial_cdf, worst) in per_trial {
            cdf.merge(&trial_cdf);
            worst_sum += worst;
            estimates.push(estimate);
        }
        let collect = |f: &dyn Fn(&SampledMeasureSet) -> Option<Estimate>| {
            let per: Vec<Estimate> = estimates.iter().filter_map(f).collect();
            if per.len() == estimates.len() {
                Estimate::mean_of(&per)
            } else {
                None
            }
        };
        let node_averaged = collect(&|e| e.node_averaged);
        let edge_averaged = collect(&|e| e.edge_averaged);
        let edge_averaged_mean = collect(&|e| e.edge_averaged_mean);
        let medians: Vec<f64> = estimates.iter().filter_map(SampledMeasureSet::median).collect();
        let median = (medians.len() == estimates.len())
            .then(|| medians.iter().sum::<f64>() / medians.len() as f64);
        let averages: Vec<f64> =
            estimates.iter().filter_map(|e| e.node_averaged.map(|est| est.value)).collect();
        let average_summary = Summary::from_values(&averages);
        SweepRow {
            topology: self.topology.clone(),
            n,
            trials: self.trials,
            components: 1,
            worst_case: worst_sum / self.trials as f64,
            average: node_averaged.map_or(0.0, |e| e.value),
            average_summary,
            total: node_averaged.map_or(0.0, |e| e.value * n as f64),
            edge_averaged: edge_averaged.map_or(0.0, |e| e.value),
            edge_averaged_mean: edge_averaged_mean.map_or(0.0, |e| e.value),
            median: median.unwrap_or(0.0),
            cdf,
            sampled: Some(SampledRow {
                plan,
                probes: estimates.first().map_or(0, |e| e.probes),
                census: estimates.iter().all(|e| e.census),
                node_averaged,
                edge_averaged,
                edge_averaged_mean,
                median,
                per_trial: estimates,
            }),
        }
    }
}

/// Runs `problem` on a size-`n` instance of `topology` with the given
/// identifier assignment and returns the radius profile.
///
/// # Errors
///
/// Propagates graph-construction and execution errors.
pub fn run_on_topology(
    problem: Problem,
    topology: &Topology,
    n: usize,
    assignment: &IdAssignment,
) -> Result<RadiusProfile> {
    check_problem_supports_topology(problem, topology)?;
    let graph = topology_with_assignment(topology, n, assignment)?;
    problem.run(&graph)
}

/// Runs `problem` on a size-`n` instance of `topology` with **per-component
/// semantics**: the instance is the first draw of the family (no
/// connectivity redraws — a disconnected instance is the object of study,
/// not an error), outputs are verified per component, and the returned
/// [`ComponentMeasures`] carries one [`MeasureSet`] per component plus the
/// whole-graph aggregate.
///
/// # Errors
///
/// Propagates graph-construction and execution errors.
pub fn run_on_topology_per_component(
    problem: Problem,
    topology: &Topology,
    n: usize,
    assignment: &IdAssignment,
) -> Result<(RadiusProfile, ComponentMeasures)> {
    check_problem_supports_topology(problem, topology)?;
    let mut graph = topology.build_for(n, ComponentMode::PerComponent)?;
    assignment.apply(&mut graph)?;
    let labels = ComponentLabels::of_graph(&graph);
    let profile = problem.run_per_component(&graph, &labels)?;
    let measures = ComponentMeasures::of(&profile, &graph, &labels);
    Ok((profile, measures))
}

/// Rejects ring-only problems on non-cycle topologies, so every entry point
/// of the harness fails with the same clear configuration error instead of
/// letting a ring-only algorithm loose on the wrong family.
fn check_problem_supports_topology(problem: Problem, topology: &Topology) -> Result<()> {
    if problem.requires_cycle() && !topology.is_cycle() {
        return Err(CoreError::InvalidConfiguration {
            reason: format!("problem '{}' only runs on cycles, not on '{topology}'", problem.key()),
        });
    }
    Ok(())
}

/// Builds a size-`n` instance of `topology` and applies `assignment` to it.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn topology_with_assignment(
    topology: &Topology,
    n: usize,
    assignment: &IdAssignment,
) -> Result<Graph> {
    let mut graph = topology.build(n)?;
    assignment.apply(&mut graph)?;
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_row_per_size() {
        let result = Sweep::new(Problem::LargestId, vec![8, 16, 32])
            .with_policy(AssignmentPolicy::Random { base_seed: 1 })
            .with_trials(3)
            .run()
            .unwrap();
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.sizes(), vec![8, 16, 32]);
        assert_eq!(result.topology, Topology::Cycle);
        for row in &result.rows {
            assert_eq!(row.trials, 3);
            assert_eq!(row.topology, Topology::Cycle);
            assert!(row.worst_case >= row.average);
            assert!(row.separation() >= 1.0);
        }
        // Worst case grows linearly with n for largest ID.
        assert_eq!(result.rows[2].worst_case, 16.0);
    }

    #[test]
    fn sampled_sweep_with_full_budget_matches_the_exact_sweep() {
        // A census budget degenerates the estimator to the exact
        // measurement: every shared column must be bit-identical.
        let exact = Sweep::new(Problem::LargestId, vec![32])
            .with_policy(AssignmentPolicy::Random { base_seed: 9 })
            .with_trials(3)
            .run()
            .unwrap();
        let sampled = Sweep::new(Problem::LargestId, vec![32])
            .with_policy(AssignmentPolicy::Random { base_seed: 9 })
            .with_trials(3)
            .with_sample_plan(SamplePlan::Uniform { budget: 32 })
            .run()
            .unwrap();
        let (e, s) = (&exact.rows[0], &sampled.rows[0]);
        let record = s.sampled.as_ref().unwrap();
        assert!(record.census);
        assert_eq!(record.probes, 32);
        assert_eq!(s.average, e.average);
        assert_eq!(s.median, e.median);
        assert_eq!(s.worst_case, e.worst_case);
        assert_eq!(s.total, e.total);
        assert_eq!(s.cdf, e.cdf);
        assert_eq!(record.node_averaged.unwrap().half_width_95, 0.0);
    }

    #[test]
    fn sampled_sweep_is_bit_reproducible_and_budget_bounded() {
        let build = || {
            Sweep::new(Problem::LargestId, vec![64])
                .with_policy(AssignmentPolicy::Random { base_seed: 3 })
                .with_trials(4)
                .with_sample_plan(SamplePlan::Uniform { budget: 12 })
                .with_sample_seed(77)
                .run()
                .unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "sampled sweeps are bit-reproducible");
        let record = a.rows[0].sampled.as_ref().unwrap();
        assert_eq!(record.probes, 12);
        assert!(!record.census);
        let est = record.node_averaged.unwrap();
        assert!(est.half_width_95.is_finite() && est.half_width_95 > 0.0);
        // The trial-pooled cdf holds exactly trials x budget observations.
        assert_eq!(a.rows[0].cdf.observations(), 4 * 12);
    }

    #[test]
    fn sampled_sweep_rejects_unsupported_configurations() {
        // Round-based problems have no per-node probe.
        let err = Sweep::new(Problem::ThreeColoring, vec![16])
            .with_sample_plan(SamplePlan::Uniform { budget: 8 })
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfiguration { .. }), "{err:?}");
        // Per-component mode estimates nothing meaningful from a sample.
        let err = Sweep::new(Problem::LargestId, vec![16])
            .with_component_mode(ComponentMode::PerComponent)
            .with_sample_plan(SamplePlan::Uniform { budget: 8 })
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfiguration { .. }), "{err:?}");
    }

    #[test]
    fn wrong_length_explicit_assignment_fails_every_trial_loop() {
        // A 3-entry permutation on a 16-cycle must fail, not measure the
        // identity table the unchecked `IdAssignment::identifiers` falls
        // back to.
        let fixed = AssignmentPolicy::Fixed(IdAssignment::from_vec(vec![2, 0, 1]).unwrap());
        let mismatch = CoreError::Graph(avglocal_graph::GraphError::AssignmentLengthMismatch {
            provided: 3,
            expected: 16,
        });
        for problem in [Problem::LargestId, Problem::ThreeColoring] {
            let exact = Sweep::new(problem, vec![16]).with_policy(fixed.clone()).run();
            assert_eq!(exact.unwrap_err(), mismatch, "{problem}");
        }
        let sampled = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(fixed)
            .with_sample_plan(SamplePlan::Uniform { budget: 4 })
            .run();
        assert_eq!(sampled.unwrap_err(), mismatch);
    }

    #[test]
    fn sweep_validates_configuration() {
        assert!(Sweep::new(Problem::LargestId, vec![]).run().is_err());
        assert!(Sweep::new(Problem::LargestId, vec![8]).with_trials(0).run().is_err());
    }

    #[test]
    fn ring_only_problems_reject_other_topologies() {
        let err = Sweep::on(Problem::ThreeColoring, Topology::Grid, vec![16]).run().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfiguration { .. }));
        assert!(err.to_string().contains("only runs on cycles"));
        // Every entry point of the harness enforces the same guard.
        let err = run_on_topology(Problem::Mis, &Topology::Grid, 16, &IdAssignment::Identity)
            .unwrap_err();
        assert!(err.to_string().contains("only runs on cycles"));
        let err = Sweep::on(Problem::LandmarkColoring, Topology::CompleteBinaryTree, vec![16])
            .with_policy(AssignmentPolicy::Random { base_seed: 0 })
            .with_trials(2)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("only runs on cycles"));
        // The cycle variant of the same configuration is fine.
        assert!(Sweep::on(Problem::ThreeColoring, Topology::Cycle, vec![16]).run().is_ok());
    }

    #[test]
    fn sweep_runs_on_every_deterministic_topology() {
        for topology in Topology::DETERMINISTIC {
            let n = if topology == Topology::Torus { 16 } else { 15 };
            let result = Sweep::on(Problem::LargestId, topology.clone(), vec![n])
                .with_policy(AssignmentPolicy::Random { base_seed: 2 })
                .with_trials(2)
                .run()
                .unwrap();
            assert_eq!(result.rows.len(), 1, "{topology}");
            assert_eq!(result.rows[0].n, n, "{topology}");
            assert_eq!(result.rows[0].topology, topology);
            assert!(result.rows[0].worst_case >= result.rows[0].average, "{topology}");
        }
    }

    #[test]
    fn disconnected_gnp_family_fails_loudly() {
        let err = Sweep::on(Problem::LargestId, Topology::Gnp { p: 0.0, seed: 1 }, vec![8])
            .run()
            .unwrap_err();
        assert!(matches!(err, CoreError::Graph(avglocal_graph::GraphError::Disconnected { .. })));
    }

    #[test]
    fn per_component_mode_supports_disconnected_gnp() {
        // The same subcritical family that is a hard error in the default
        // mode is a supported configuration in per-component mode.
        let topology = Topology::Gnp { p: 0.05, seed: 3 };
        let result = Sweep::on(Problem::LargestId, topology.clone(), vec![24])
            .with_policy(AssignmentPolicy::Random { base_seed: 4 })
            .with_trials(2)
            .with_component_mode(ComponentMode::PerComponent)
            .run()
            .unwrap();
        let row = &result.rows[0];
        // The drawn instance is genuinely disconnected (that is the point of
        // the mode) and the row records its component count.
        let instance = topology.build_unchecked(24).unwrap();
        let labels = ComponentLabels::of_graph(&instance);
        assert!(labels.count() > 1, "p = 0.05 at n = 24 must fall apart");
        assert_eq!(row.components, labels.count());
        assert!(row.worst_case >= row.average);
        // p = 0 degenerates to isolated nodes: every radius is 0.
        let isolated = Sweep::on(Problem::LargestId, Topology::Gnp { p: 0.0, seed: 1 }, vec![8])
            .with_component_mode(ComponentMode::PerComponent)
            .run()
            .unwrap();
        assert_eq!(isolated.rows[0].components, 8);
        assert_eq!(isolated.rows[0].worst_case, 0.0);
        assert_eq!(isolated.rows[0].edge_averaged, 0.0);
    }

    #[test]
    fn per_component_mode_is_identical_on_connected_instances() {
        // On a deterministic (always connected) family, the mode changes the
        // verification path but never the numbers.
        let run = |mode: ComponentMode| {
            Sweep::on(Problem::LargestId, Topology::Grid, vec![12])
                .with_policy(AssignmentPolicy::Random { base_seed: 9 })
                .with_trials(3)
                .with_component_mode(mode)
                .run()
                .unwrap()
        };
        let connected = run(ComponentMode::RequireConnected);
        let per_component = run(ComponentMode::PerComponent);
        assert_eq!(connected.rows[0].worst_case, per_component.rows[0].worst_case);
        assert_eq!(connected.rows[0].average, per_component.rows[0].average);
        assert_eq!(connected.rows[0].edge_averaged, per_component.rows[0].edge_averaged);
        assert_eq!(connected.rows[0].components, 1);
        assert_eq!(per_component.rows[0].components, 1);
    }

    #[test]
    fn sweep_rows_carry_every_measure() {
        let result = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .unwrap();
        let row = &result.rows[0];
        // Identity on the 16-cycle: 15 nodes stop at radius 1, the winner at
        // 8. Node average (15 + 8)/16; edge maxima: the winner's two edges
        // weigh 8, the other 14 weigh 1.
        assert!((row.average - 23.0 / 16.0).abs() < 1e-12);
        assert!((row.edge_averaged - (2.0 * 8.0 + 14.0) / 16.0).abs() < 1e-12);
        assert!((row.edge_averaged_mean - (2.0 * 4.5 + 14.0) / 16.0).abs() < 1e-12);
        assert_eq!(row.median, 1.0);
        assert_eq!(row.worst_case, 8.0);
        assert_eq!(row.total, 23.0);
        assert_eq!(result.edge_averaged_column().len(), 1);
        assert_eq!(result.median_column(), vec![1.0]);
    }

    #[test]
    fn sweep_rows_carry_the_full_distribution() {
        // Identity ids on the 16-cycle, one trial: 15 nodes stop at radius
        // 1, the winner at 8 — the row's distribution is exactly that.
        let result = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .unwrap();
        let row = &result.rows[0];
        assert_eq!(row.cdf.observations(), 16);
        assert_eq!(row.cdf.count_at(1), 15);
        assert_eq!(row.cdf.count_at(8), 1);
        assert_eq!(row.cdf.max_radius(), 8);
        assert!((row.cdf.fraction_within(1) - 15.0 / 16.0).abs() < 1e-12);
        // With one trial the pooled median is bit-identical to the median
        // column, and the pooled mean to the node average.
        assert_eq!(row.cdf.quantile(500), row.median);
        assert_eq!(row.cdf.mean(), row.average);
        assert_eq!(result.quantile_column(1000), vec![8.0]);
        // Across trials the distribution pools: trials x n observations.
        let result = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(AssignmentPolicy::Random { base_seed: 3 })
            .with_trials(4)
            .run()
            .unwrap();
        assert_eq!(result.rows[0].cdf.observations(), 4 * 16);
    }

    #[test]
    fn sweeps_run_on_hub_weighted_families() {
        // Preferential attachment is always connected, so it runs in the
        // default mode.
        let pa = Topology::PreferentialAttachment { m: 2, seed: 7 };
        let result = Sweep::on(Problem::LargestId, pa.clone(), vec![40])
            .with_policy(AssignmentPolicy::Random { base_seed: 5 })
            .with_trials(2)
            .run()
            .unwrap();
        assert_eq!(result.rows[0].n, 40);
        assert_eq!(result.rows[0].components, 1);
        assert!(result.rows[0].worst_case >= result.rows[0].average);
        // The power-law configuration model may disconnect; per-component
        // mode accepts the first draw as-is.
        let plc = Topology::PowerLawConfiguration { gamma: 2.5, seed: 3 };
        let result = Sweep::on(Problem::LargestId, plc, vec![40])
            .with_policy(AssignmentPolicy::Random { base_seed: 5 })
            .with_component_mode(ComponentMode::PerComponent)
            .run()
            .unwrap();
        assert_eq!(result.rows[0].n, 40);
        assert!(result.rows[0].components >= 1);
    }

    /// The random-permutation study of Section 4: `LargestId` on one size
    /// of `topology`, one trial per uniformly random permutation.
    fn random_study(topology: Topology, n: usize, samples: usize, seed: u64) -> Result<SweepRow> {
        let sweep = Sweep::on(Problem::LargestId, topology, vec![n])
            .with_policy(AssignmentPolicy::Random { base_seed: seed })
            .with_trials(samples);
        Ok(sweep.run()?.rows.remove(0))
    }

    #[test]
    fn study_distribution_pools_all_samples() {
        let row = random_study(Topology::Cycle, 32, 5, 11).unwrap();
        assert_eq!(row.cdf.observations(), 5 * 32);
        // The pooled mean is the mean of per-sample node averages (equal
        // sample sizes), up to floating-point reassociation.
        assert!((row.cdf.mean() - row.average_summary.mean).abs() < 1e-9);
        // Every sample's winner saw half the ring (a diametrically placed
        // runner-up can add a second radius-16 observation).
        assert!(row.cdf.count_at(16) >= 5);
    }

    #[test]
    fn per_component_topology_run_reports_component_measures() {
        let (profile, measures) = run_on_topology_per_component(
            Problem::LargestId,
            &Topology::Gnp { p: 0.0, seed: 5 },
            6,
            &IdAssignment::Reversed,
        )
        .unwrap();
        // Six isolated nodes: six components, all radii 0.
        assert_eq!(profile.len(), 6);
        assert_eq!(measures.component_count(), 6);
        assert_eq!(measures.aggregate.worst_case, 0.0);
        assert!(measures.per_component.iter().all(|m| m.nodes == 1 && m.edges == 0));
        // A connected instance degenerates to the plain run.
        let (profile, measures) = run_on_topology_per_component(
            Problem::LargestId,
            &Topology::Cycle,
            12,
            &IdAssignment::Identity,
        )
        .unwrap();
        let plain =
            run_on_topology(Problem::LargestId, &Topology::Cycle, 12, &IdAssignment::Identity)
                .unwrap();
        assert_eq!(profile, plain);
        assert_eq!(measures.component_count(), 1);
        assert_eq!(measures.aggregate, measures.per_component[0]);
    }

    #[test]
    fn identity_policy_is_deterministic() {
        let a = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .unwrap();
        let b = Sweep::new(Problem::LargestId, vec![16])
            .with_policy(AssignmentPolicy::Fixed(IdAssignment::Identity))
            .run()
            .unwrap();
        assert_eq!(a, b);
        // Identity: n-1 nodes stop at radius 1, the winner at n/2.
        assert!((a.rows[0].average - (15.0 + 8.0) / 16.0).abs() < 1e-12);
    }

    #[test]
    fn policies_produce_expected_assignments() {
        assert_eq!(
            AssignmentPolicy::Random { base_seed: 10 }.assignment_for_trial(2),
            IdAssignment::Shuffled { seed: derive_seed(10, 2) }
        );
        for fixed in
            [IdAssignment::Identity, IdAssignment::Reversed, IdAssignment::Rotated { shift: 1 }]
        {
            let policy = AssignmentPolicy::Fixed(fixed.clone());
            assert_eq!(policy.assignment_for_trial(0), fixed);
            assert_eq!(policy.assignment_for_trial(5), fixed);
        }
    }

    #[test]
    fn adjacent_base_seeds_draw_unrelated_streams() {
        // The additive scheme aliased base b / trial t with base b+1 /
        // trial t-1; the mixed derivation must keep every such pair distinct.
        for base in 0u64..8 {
            for trial in 1usize..8 {
                let a = AssignmentPolicy::Random { base_seed: base }.assignment_for_trial(trial);
                let b = AssignmentPolicy::Random { base_seed: base + 1 }
                    .assignment_for_trial(trial - 1);
                assert_ne!(a, b, "base {base}, trial {trial}");
            }
        }
    }

    #[test]
    fn random_study_brackets_the_measures() {
        let row = random_study(Topology::Cycle, 64, 10, 7).unwrap();
        assert_eq!(row.trials, 10);
        assert_eq!(row.topology, Topology::Cycle);
        // The worst-case radius is always n/2 = 32 for largest ID.
        assert_eq!(row.worst_case, 32.0);
        assert!(row.average < 10.0);
        assert!(row.average_summary.min >= 1.0);
    }

    #[test]
    fn random_study_runs_off_ring() {
        let row = random_study(Topology::CompleteBinaryTree, 31, 6, 3).unwrap();
        assert_eq!(row.trials, 6);
        assert_eq!(row.topology, Topology::CompleteBinaryTree);
        // On a depth-4 complete binary tree the eccentricity is at most 8.
        assert!(row.cdf.max_radius() <= 8);
        assert!(row.average <= row.worst_case);
    }

    #[test]
    fn random_study_rejects_zero_samples() {
        let err = random_study(Topology::Cycle, 16, 0, 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfiguration { .. }), "{err:?}");
    }

    #[test]
    fn sweep_columns_align_with_rows() {
        let result = Sweep::new(Problem::ThreeColoring, vec![8, 32])
            .with_policy(AssignmentPolicy::Random { base_seed: 5 })
            .run()
            .unwrap();
        assert_eq!(result.average_column().len(), 2);
        // Exact deterministic values for base seed 5 under derive_seed-based
        // trial seeds (every node of these Cole-Vishkin runs stops at 7).
        assert_eq!(result.worst_case_column(), vec![7.0, 7.0]);
        assert_eq!(result.average_column(), vec![7.0, 7.0]);
    }
}
