//! The two sweep workloads: the exact `Sweep` on the paper's ring and the
//! sampled `Sweep` on a grid where every probe saturates.
//!
//! The untraced run times whole `Sweep::run` calls. The traced run replays
//! `Sweep::run` stage by stage through the same public calls the library
//! makes (build, freeze, assign, session, probe, verify, fold; draw and
//! estimate when sampled), with a span around each, and insists the
//! replayed row equals the `Sweep::run` row bit for bit.

use std::hint::black_box;
use std::time::Instant;

use avglocal::algorithms::{verify, LargestId};
use avglocal::analysis::Summary;
use avglocal::graph::{CsrGraph, Graph, Topology};
use avglocal::runtime::{FrozenExecutor, Knowledge, NodeBatchOptions};
use avglocal::{
    AssignmentPolicy, Estimate, MeasureSet, Problem, RadiusCdf, RadiusProfile, SamplePlan,
    SampledMeasureSet, SampledRow, Sweep, SweepRow,
};

use crate::stats::{median, quiet, secs, timed};
use crate::trace::Tracer;
use crate::{oracle, Args, Report};

/// Minimum timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// The stages a replay attributes time to, in pipeline order: span name and
/// the per-layer metric of its self time.
const STAGES: [(&str, &str); 9] = [
    ("graph.build", "graph.build_s"),
    ("graph.freeze", "graph.freeze_s"),
    ("graph.assign", "graph.assign_s"),
    ("runtime.session", "runtime.session_s"),
    ("core.draw", "core.draw_s"),
    ("runtime.probe", "runtime.probe_s"),
    ("algorithms.verify", "algorithms.verify_s"),
    ("core.estimate", "core.estimate_s"),
    ("core.fold", "core.fold_s"),
];

/// One sweep workload: a single-size `Sweep` plus its oracle.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    problem: Problem,
    topology: Topology,
    n: usize,
    trials: usize,
    plan: Option<SamplePlan>,
}

/// Deterministic work of one sweep: probes, the radii they returned, and
/// the ball nodes those radii imply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    probes: u64,
    radius_sum: u64,
    ball_nodes: u64,
}

impl SweepSpec {
    /// `LargestId` on the 2^18-cycle with random-permutation ids, 8 trials.
    pub fn exact_ring() -> Self {
        SweepSpec {
            problem: Problem::LargestId,
            topology: Topology::Cycle,
            n: 1 << 18,
            trials: 8,
            plan: None,
        }
    }

    /// `KnowTheLeader` on the 128x128 grid, a 10% uniform sample, 4 trials.
    pub fn sampled_grid() -> Self {
        SweepSpec {
            problem: Problem::KnowTheLeader,
            topology: Topology::Grid,
            n: 16_384,
            trials: 4,
            plan: Some(SamplePlan::Uniform { budget: 1_638 }),
        }
    }

    fn sweep(&self, seed: u64) -> Sweep {
        let sweep = Sweep::on(self.problem, self.topology.clone(), vec![self.n])
            .with_policy(AssignmentPolicy::Random { base_seed: seed })
            .with_trials(self.trials);
        match self.plan {
            Some(plan) => sweep.with_sample_plan(plan).with_sample_seed(seed),
            None => sweep,
        }
    }

    /// Ball size implied by a decision radius: `min(2r+1, n)` on the
    /// cycle, the whole graph for a (saturated) grid probe.
    fn ball_nodes(&self, radius: usize) -> u64 {
        match self.topology {
            Topology::Cycle => (2 * radius + 1).min(self.n) as u64,
            _ => self.n as u64,
        }
    }

    fn work_of(&self, row: &SweepRow) -> Work {
        let mut work = Work { probes: row.cdf.observations(), radius_sum: 0, ball_nodes: 0 };
        for r in 0..=row.cdf.max_radius() {
            let count = row.cdf.count_at(r);
            work.radius_sum += count * r as u64;
            work.ball_nodes += count * self.ball_nodes(r);
        }
        work
    }

    /// Checks a row against the oracle. Exact ring: every trial's worst
    /// case is `n/2` and the pooled radius distribution equals the one the
    /// nearest-larger-id scan predicts. Sampled grid: the pooled sampled
    /// radii equal the closed-form eccentricities of the drawn nodes.
    /// Returns the sampled estimate's relative error (0 when exact).
    fn check_oracle(&self, row: &SweepRow, seed: u64, report: &mut Report) -> f64 {
        let mut expected = RadiusCdf::empty();
        match self.plan {
            None => {
                let half = (self.n / 2) as f64;
                report.check(row.worst_case == half, || {
                    format!("worst case {} is not n/2 = {half}", row.worst_case)
                });
                let policy = AssignmentPolicy::Random { base_seed: seed };
                for trial in 0..self.trials {
                    let ids: Vec<u64> = policy
                        .assignment_for_trial(trial)
                        .identifiers(self.n, 0)
                        .iter()
                        .map(|id| id.value())
                        .collect();
                    expected.merge(&RadiusCdf::from_radii(&oracle::ring_largest_id_radii(&ids)));
                }
                report.check(row.cdf == expected, || "ring radius distribution differs".into());
                0.0
            }
            Some(plan) => {
                let (w, h) = oracle::grid_sides(self.n);
                let csr = self.topology.build(self.n).expect("grid builds").freeze();
                for trial in 0..self.trials {
                    let sample = plan.draw(&csr, plan.seed_for(seed, trial));
                    let eccentricities: Vec<usize> = sample
                        .nodes()
                        .iter()
                        .map(|v| oracle::grid_eccentricity(w, h, v.index()))
                        .collect();
                    expected.merge(&RadiusCdf::from_radii(&eccentricities));
                }
                report.check(row.cdf == expected, || "sampled eccentricities differ".into());
                let probes = row.sampled.as_ref().map_or(0, |s| s.probes);
                report.check(probes == plan.budget(), || format!("{probes} probes per trial"));
                let exact = oracle::grid_mean_eccentricity(w, h);
                (row.average - exact).abs() / exact
            }
        }
    }

    /// Replays `Sweep::run` stage by stage with a span around every public
    /// call; returns the row it assembles.
    fn replay(&self, seed: u64, tracer: &mut Tracer) -> Result<SweepRow, String> {
        tracer.span("core.sweep", 0, |t| {
            let base = t
                .span("graph.build", 0, |_| self.topology.build(self.n))
                .map_err(|e| e.to_string())?;
            let frozen = t.span("graph.freeze", 0, |_| base.freeze());
            let policy = AssignmentPolicy::Random { base_seed: seed };
            let mut session: Option<FrozenExecutor> = None;
            let mut exact_sets = Vec::with_capacity(self.trials);
            let mut sampled = Vec::with_capacity(self.trials);
            for trial in 0..self.trials {
                let request = trial as u64;
                let graph = t
                    .span("graph.assign", request, |_| {
                        let assignment = policy.assignment_for_trial(trial);
                        let mut graph = base.clone();
                        assignment.apply(&mut graph).map(|()| graph)
                    })
                    .map_err(|e| e.to_string())?;
                let session = t.span("runtime.session", request, |_| {
                    let session =
                        session.get_or_insert_with(|| FrozenExecutor::from_csr(frozen.clone()));
                    let identifiers: Vec<_> = graph.identifiers().collect();
                    session.set_identifiers(&identifiers);
                    &*session
                });
                match self.plan {
                    None => {
                        exact_sets.push(self.exact_trial(t, request, session, &graph, &frozen)?)
                    }
                    Some(plan) => {
                        sampled.push(self.sampled_trial(t, request, session, &frozen, plan, seed)?);
                    }
                }
            }
            Ok(t.span("core.fold", self.trials as u64, |_| match self.plan {
                None => self.exact_row(&exact_sets),
                Some(plan) => self.sampled_row(plan, sampled),
            }))
        })
    }

    fn exact_trial(
        &self,
        t: &mut Tracer,
        request: u64,
        session: &FrozenExecutor,
        graph: &Graph,
        frozen: &CsrGraph,
    ) -> Result<MeasureSet, String> {
        let run = t
            .span("runtime.probe", request, |_| session.run(&LargestId, Knowledge::none()))
            .map_err(|e| e.to_string())?;
        let correct = t.span("algorithms.verify", request, |_| {
            verify::is_correct_largest_id(graph, run.outputs())
        });
        if !correct {
            return Err(format!("trial {request}: largest-id outputs rejected"));
        }
        Ok(t.span("core.fold", request, |_| {
            MeasureSet::of_csr(&RadiusProfile::from_ball_execution(&run), frozen)
        }))
    }

    fn sampled_trial(
        &self,
        t: &mut Tracer,
        request: u64,
        session: &FrozenExecutor,
        frozen: &CsrGraph,
        plan: SamplePlan,
        seed: u64,
    ) -> Result<(SampledMeasureSet, RadiusCdf, f64), String> {
        let trial = request as usize;
        let sample =
            t.span("core.draw", request, |_| plan.draw(frozen, plan.seed_for(seed, trial)));
        let radii = t
            .span("runtime.probe", request, |_| {
                self.problem.probe_radii(session, sample.nodes(), &NodeBatchOptions::new())
            })
            .map_err(|e| e.to_string())?;
        let (w, h) = oracle::grid_sides(self.n);
        if let Some((v, r)) = sample
            .nodes()
            .iter()
            .zip(&radii)
            .find(|(v, r)| **r != oracle::grid_eccentricity(w, h, v.index()))
        {
            return Err(format!("trial {trial}: node {} probed radius {r}", v.index()));
        }
        let estimate = t.span("core.estimate", request, |_| sample.estimate(&radii));
        Ok(t.span("core.fold", request, |_| {
            let worst = radii.iter().copied().max().unwrap_or(0) as f64;
            (estimate, RadiusCdf::from_radii(&radii), worst)
        }))
    }

    /// The exact row, folded exactly as `Sweep::run` folds it.
    fn exact_row(&self, sets: &[MeasureSet]) -> SweepRow {
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
            n: self.n,
            trials: self.trials,
            components: 1,
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

    /// The sampled row, folded exactly as `Sweep::run` folds it.
    fn sampled_row(
        &self,
        plan: SamplePlan,
        per_trial: Vec<(SampledMeasureSet, RadiusCdf, f64)>,
    ) -> SweepRow {
        let mut estimates = Vec::with_capacity(per_trial.len());
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
        let n = self.n;
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

/// Runs one sweep workload in the mode `args` selects.
pub fn run(spec: &SweepSpec, args: &Args) -> Report {
    let mut report = Report::default();
    if args.baseline {
        baseline(spec, args, &mut report);
        return report;
    }
    let sweep = spec.sweep(args.seed);
    // Warm-up: the first call pays lazy pool start-up and page faults, and
    // its row is the reference every later call must reproduce.
    report.attempted += 1;
    let reference = match sweep.run() {
        Ok(result) => result.rows.into_iter().next().expect("one size, one row"),
        Err(e) => {
            report.fail(format!("Sweep::run failed: {e}"));
            return report;
        }
    };
    let rel_error = spec.check_oracle(&reference, args.seed, &mut report);
    let work = spec.work_of(&reference);
    record_work(&mut report, work);
    if args.trace {
        traced(spec, args, &sweep, &reference, work, &mut report);
        report.metric("core.estimate_rel_error", rel_error);
        return report;
    }

    // One set-up (build, freeze, session) before every timed call, so the
    // set-up samples span the same stretch of time as the calls.
    let mut setup = Vec::new();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_REPS || secs(start) < args.seconds {
        let ((), s) = timed(|| {
            let graph = spec.topology.build(spec.n).expect("workload topology builds");
            black_box(FrozenExecutor::from_csr(graph.freeze()));
        });
        setup.push(s);
        let (result, s) = timed(|| sweep.run());
        times.push(s);
        timed_call_check(&mut report, result, &reference);
    }
    // One repetition is one `Sweep::run`, so its p50 and p99 coincide.
    let run_s = quiet(&times, true);
    report.metric("setup_s", quiet(&setup, true));
    report.metric("nodes_per_s", work.probes as f64 / run_s);
    report.metric("op_p50_us", run_s * 1e6);
    report.metric("op_p99_us", run_s * 1e6);
    report
}

fn timed_call_check(
    report: &mut Report,
    result: avglocal::Result<avglocal::SweepResult>,
    reference: &SweepRow,
) {
    report.attempted += 1;
    match result {
        Ok(result) => {
            report.check(result.rows.first() == Some(reference), || {
                "Sweep::run is not bit-identical across calls".into()
            });
        }
        Err(e) => report.fail(format!("Sweep::run failed: {e}")),
    }
}

fn record_work(report: &mut Report, work: Work) {
    report.counts.insert("runtime.probes", work.probes);
    report.counts.insert("runtime.radius_sum", work.radius_sum);
    report.counts.insert("runtime.ball_nodes", work.ball_nodes);
}

/// The traced run: alternates an untraced `Sweep::run`, a traced replay and
/// an untraced replay until the time is spent, and reports stage medians.
fn traced(
    spec: &SweepSpec,
    args: &Args,
    sweep: &Sweep,
    reference: &SweepRow,
    work: Work,
    report: &mut Report,
) {
    let mut sweep_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut untraced_times = Vec::new();
    let mut stage_times: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut last = Tracer::new(true);
    let start = Instant::now();
    while sweep_times.len() < MIN_REPS || secs(start) < args.seconds {
        let (result, s) = timed(|| sweep.run());
        sweep_times.push(s);
        timed_call_check(report, result, reference);

        let mut tracer = Tracer::new(true);
        let (row, s) = timed(|| spec.replay(args.seed, &mut tracer));
        traced_times.push(s);
        check_replay(report, row, reference);
        let self_times = tracer.self_times();
        for ((stage, _), times) in STAGES.iter().zip(&mut stage_times) {
            times.push(self_times.get(stage).copied().unwrap_or(0.0));
        }
        last = tracer;

        let (row, s) = timed(|| spec.replay(args.seed, &mut Tracer::new(false)));
        untraced_times.push(s);
        check_replay(report, row, reference);
    }
    let mut attributed = 0.0;
    for ((_, metric), times) in STAGES.iter().zip(&stage_times) {
        let value = median(times);
        attributed += value;
        report.metric(metric, value);
    }
    let probe_s = report.metrics["runtime.probe_s"];
    report.metric("runtime.ns_per_ball_node", probe_s * 1e9 / work.ball_nodes as f64);
    report.metric("core.unattributed_s", median(&sweep_times) - attributed);
    report.metric("trace.overhead_s", median(&traced_times) - median(&untraced_times));
    report.metric("trace.spans", last.spans().len() as f64);
    let path = args.work_dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = last.write_json(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// The single-threaded baseline process: traced replays only.
fn baseline(spec: &SweepSpec, args: &Args, report: &mut Report) {
    let mut probe_times = Vec::new();
    let start = Instant::now();
    let mut reference: Option<SweepRow> = None;
    while probe_times.len() < MIN_REPS || secs(start) < args.seconds {
        let mut tracer = Tracer::new(true);
        report.attempted += 1;
        let row = match spec.replay(args.seed, &mut tracer) {
            Ok(row) => row,
            Err(e) => {
                report.fail(e);
                return;
            }
        };
        match &reference {
            None => {
                spec.check_oracle(&row, args.seed, report);
                record_work(report, spec.work_of(&row));
                reference = Some(row);
            }
            Some(first) => report.check(&row == first, || "replay is not reproducible".into()),
        }
        probe_times.push(tracer.self_times().get("runtime.probe").copied().unwrap_or(0.0));
    }
    report.metric("runtime.probe_s", median(&probe_times));
}

/// A replayed row must equal the `Sweep::run` row bit for bit (its work
/// counts, read off the row's radius distribution, then agree too).
fn check_replay(report: &mut Report, row: Result<SweepRow, String>, reference: &SweepRow) {
    report.attempted += 1;
    match row {
        Ok(row) => {
            report.check(&row == reference, || "stage replay differs from Sweep::run".into())
        }
        Err(e) => report.fail(e),
    }
}
