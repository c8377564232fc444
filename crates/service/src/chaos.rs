//! Deterministic chaos harness: scripted queries, swaps, and fault storms.
//!
//! The harness drives a [`RadiusQueryService`] through a scripted
//! interleaving of concurrent readers, epoch swaps, corrupt-bytes publish
//! attempts, `compat/rayon` failpoint panic storms inside candidate builds,
//! and injected worker kills — then checks the service's core promise: a
//! request is either **shed or failed with a typed error**, or it completes
//! with an answer **bit-identical** to the sequential reference execution on
//! the generation (epoch) it reports it was served from. Scripted reader
//! turns include **batched queries** racing the same storms: deadline storms
//! mid-batch must yield fully-expired typed partial replies, and every
//! *completed* batch entry is held to the same bit-identity invariant as a
//! single query.
//!
//! Everything that must be reproducible is: the publish schedule, the
//! per-reader query scripts, and the epoch → graph mapping are all derived
//! from [`ChaosPlan::seed`] with a splitmix64 stream, and time comes from a
//! frozen [`TestClock`] (scheduled deadline faults use an already-expired
//! budget, so they cancel at radius 0 deterministically). Thread
//! interleaving still varies run to run — which epoch a given query lands on
//! is scheduling-dependent — but every epoch's reference answer is
//! precomputed, so correctness checking is interleaving-independent.

use std::sync::Arc;

use avglocal_graph::{generators, CsrGraph, IdAssignment, NodeId};
use avglocal_runtime::examples::NaiveLargestId;
use avglocal_runtime::{BallExecution, FrozenExecutor, Knowledge, Scheduling};
use rayon::prelude::*;

use crate::batch::{BatchOutcome, Consistency, QueryOptions, QueryRequest};
use crate::clock::TestClock;
use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::service::RadiusQueryService;

/// The script of one chaos run. Cadences are "every k-th" (0 = never).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed of every derived script.
    pub seed: u64,
    /// Nodes per generation; must be a multiple of 6 (the harness mixes
    /// cycles and 6-row grids of the same size).
    pub nodes: usize,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Queries each reader issues.
    pub queries_per_reader: usize,
    /// Publish attempts the publisher makes while readers run.
    pub publish_attempts: usize,
    /// Every `torn_every`-th attempt publishes corrupt bytes (a simulated
    /// torn write) that must be rejected typed and rolled back.
    pub torn_every: usize,
    /// Every `panic_every`-th attempt builds its candidate under an armed
    /// failpoint panic storm, which must be caught and rolled back.
    pub panic_every: usize,
    /// Every `kill_every`-th attempt also injects a pool worker kill,
    /// exercising the worker supervisor while the service keeps serving.
    pub kill_every: usize,
    /// Every `deadline_every`-th query carries an already-expired budget and
    /// must fail with a typed deadline error at radius 0.
    pub deadline_every: usize,
    /// Every `latest_every`-th query runs in latest-generation mode (may
    /// surface typed staleness under heavy swapping).
    pub latest_every: usize,
    /// Every `batch_every`-th query turn issues a batched query instead of
    /// a single one. Every 3rd batch turn is a **deadline storm** (an
    /// already-expired shared budget: every entry must come back
    /// `Expired { radius: 0 }`), and every 2nd non-storm batch turn runs
    /// under latest consistency so swaps race whole batches.
    pub batch_every: usize,
    /// Nodes per batched query (scripted, duplicates allowed).
    pub batch_size: usize,
    /// Admission bound; small values exercise typed load shedding.
    pub max_in_flight: usize,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0x5eed_cafe,
            nodes: 36,
            readers: 4,
            queries_per_reader: 250,
            publish_attempts: 24,
            torn_every: 5,
            panic_every: 7,
            kill_every: 11,
            deadline_every: 13,
            latest_every: 3,
            batch_every: 6,
            batch_size: 12,
            max_in_flight: 8,
        }
    }
}

/// Outcome counts of a chaos run. `mismatches` and `unexpected_errors` must
/// be zero for a healthy service; every other count just describes how the
/// scripted faults landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// Queries that completed with an answer.
    pub completed: usize,
    /// Completed answers that did **not** match the sequential reference on
    /// their reported epoch — the invariant violation counter.
    pub mismatches: usize,
    /// Queries shed at admission (typed).
    pub shed: usize,
    /// Queries cancelled by their scripted expired deadline (typed).
    pub deadline_expired: usize,
    /// Latest-mode queries that exhausted retries under swapping (typed).
    pub stale: usize,
    /// Errors of any type the script did not provoke.
    pub unexpected_errors: usize,
    /// Publish attempts that succeeded (epochs beyond the initial one).
    pub published: usize,
    /// Publish attempts rejected for corrupt bytes (typed, rolled back).
    pub publish_rejected: usize,
    /// Publish attempts whose build panicked (caught, rolled back).
    pub publish_panicked: usize,
    /// Worker kills injected into the pool during the run.
    pub worker_kills: usize,
    /// Batched queries that were admitted and replied.
    pub batches: usize,
    /// Total entries across admitted batches.
    pub batch_entries: usize,
    /// Batch entries cancelled by a shared deadline (typed, partial reply).
    pub batch_expired: usize,
}

/// splitmix64: the harness's deterministic number stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pool of candidate generations: same node count, alternating
/// topology, per-generation shuffled identifier tables — so serving a
/// mixed-generation answer (the torn-read failure mode) would be caught by
/// the reference comparison.
fn build_generations(plan: &ChaosPlan) -> Vec<CsrGraph> {
    assert!(
        plan.nodes >= 6 && plan.nodes.is_multiple_of(6),
        "ChaosPlan::nodes must be a multiple of 6"
    );
    let mut graphs = Vec::new();
    for g in 0..4u64 {
        let mut graph = if g % 2 == 0 {
            generators::cycle(plan.nodes).expect("cycle generator")
        } else {
            generators::grid(6, plan.nodes / 6).expect("grid generator")
        };
        IdAssignment::Shuffled { seed: plan.seed ^ (g.wrapping_mul(0x9e37_79b9)) }
            .apply(&mut graph)
            .expect("shuffled identifiers");
        graphs.push(graph.freeze());
    }
    graphs
}

/// What publish attempt `s` (1-based) is scripted to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attempt {
    Torn,
    Panicking,
    Publish(usize),
}

fn attempt_script(plan: &ChaosPlan) -> Vec<Attempt> {
    let mut next_graph = 1usize; // the initial generation used graph 0
    (1..=plan.publish_attempts)
        .map(|s| {
            if plan.torn_every > 0 && s % plan.torn_every == 0 {
                Attempt::Torn
            } else if plan.panic_every > 0 && s % plan.panic_every == 0 {
                Attempt::Panicking
            } else {
                let graph = next_graph;
                next_graph = (next_graph + 1) % 4;
                Attempt::Publish(graph)
            }
        })
        .collect()
}

/// The graph index each epoch serves: epoch 1 is graph 0, and every
/// successful scripted publish appends one entry. Derived purely from the
/// plan, so readers can check any epoch they observe.
fn epoch_graphs(script: &[Attempt]) -> Vec<usize> {
    let mut epochs = vec![0usize];
    for attempt in script {
        if let Attempt::Publish(graph) = attempt {
            epochs.push(*graph);
        }
    }
    epochs
}

/// Runs the scripted chaos and reports what happened.
///
/// The report's [`ChaosReport::mismatches`] and
/// [`ChaosReport::unexpected_errors`] are the invariants — a healthy service
/// holds both at zero whatever the interleaving; everything else is
/// descriptive. Uses [`NaiveLargestId`] as the workload (every generation
/// has a distinct identifier table, so cross-generation leakage in answers
/// is detectable).
#[must_use]
pub fn run_chaos(plan: &ChaosPlan) -> ChaosReport {
    let graphs = build_generations(plan);
    let references: Vec<BallExecution<bool>> = graphs
        .iter()
        .map(|csr| {
            FrozenExecutor::from_csr(csr.clone())
                .with_scheduling(Scheduling::Sequential)
                .run(&NaiveLargestId, Knowledge::none())
                .expect("sequential reference")
        })
        .collect();
    let script = attempt_script(plan);
    let epoch_graph = epoch_graphs(&script);

    let service = RadiusQueryService::new(
        NaiveLargestId,
        Knowledge::none(),
        graphs[0].clone(),
        Arc::new(TestClock::new()),
        ServiceConfig { max_in_flight: plan.max_in_flight },
    );

    let mut report = ChaosReport::default();
    std::thread::scope(|scope| {
        let service = &service;
        let graphs = &graphs;
        let references = &references;
        let epoch_graph = &epoch_graph;

        let readers: Vec<_> = (0..plan.readers)
            .map(|reader| {
                scope.spawn(move || {
                    let mut rng = plan.seed ^ (reader as u64).wrapping_mul(0xd134_2543_de82_ef95);
                    let mut local = ChaosReport::default();
                    for q in 1..=plan.queries_per_reader {
                        if plan.batch_every > 0 && q % plan.batch_every == 0 {
                            batch_turn(
                                plan,
                                service,
                                references,
                                epoch_graph,
                                &mut rng,
                                q,
                                &mut local,
                            );
                            continue;
                        }
                        let node = NodeId::new(splitmix64(&mut rng) as usize % plan.nodes);
                        let options = if plan.deadline_every > 0 && q % plan.deadline_every == 0 {
                            // Already-expired budget: a scripted deadline
                            // fault, cancelled deterministically at radius 0.
                            QueryOptions::new().with_deadline(0)
                        } else if plan.latest_every > 0 && q % plan.latest_every == 0 {
                            QueryOptions::new()
                                .with_consistency(Consistency::Latest { retry_limit: 3 })
                        } else {
                            QueryOptions::new()
                        };
                        let result = service.query_with(node, options);
                        match result {
                            Ok(reply) => {
                                local.completed += 1;
                                let reference =
                                    &references[epoch_graph[(reply.epoch - 1) as usize]];
                                if reply.output != *reference.output(node)
                                    || reply.radius != reference.radius(node)
                                {
                                    local.mismatches += 1;
                                }
                            }
                            Err(ServiceError::Overloaded { .. }) => local.shed += 1,
                            Err(ServiceError::DeadlineExceeded { radius: 0, .. }) => {
                                local.deadline_expired += 1;
                            }
                            Err(ServiceError::StaleGeneration { .. }) => local.stale += 1,
                            Err(_) => local.unexpected_errors += 1,
                        }
                    }
                    local
                })
            })
            .collect();

        // The publisher runs on this thread, interleaving swaps and fault
        // storms with the readers' queries.
        for (s, attempt) in script.iter().enumerate() {
            if plan.kill_every > 0 && (s + 1) % plan.kill_every == 0 {
                rayon::failpoints::kill_workers(1);
                report.worker_kills += 1;
            }
            match attempt {
                Attempt::Torn => {
                    let mut bytes = graphs[(s + 1) % 4].to_bytes();
                    let cut = bytes.len() / 2;
                    bytes.truncate(cut);
                    match service.publish_bytes(&bytes) {
                        Err(ServiceError::PublishRejected { .. }) => report.publish_rejected += 1,
                        _ => report.unexpected_errors += 1,
                    }
                }
                Attempt::Panicking => {
                    // Build the candidate under an armed failpoint storm: the
                    // parallel verification pass panics on its first chunk
                    // claim, the build unwinds, and the service rolls back.
                    rayon::failpoints::arm(rayon::failpoints::Plan::new().panic_every(1));
                    let candidate = &graphs[(s + 1) % 4];
                    let outcome = service.publish_with(|| {
                        let _: Vec<u64> =
                            (0..plan.nodes).into_par_iter().map(|i| i as u64 * 3).collect();
                        candidate.clone()
                    });
                    rayon::failpoints::disarm();
                    match outcome {
                        Err(ServiceError::PublishPanicked { .. }) => report.publish_panicked += 1,
                        _ => report.unexpected_errors += 1,
                    }
                }
                Attempt::Publish(graph) => match service.publish_csr(graphs[*graph].clone()) {
                    Ok(_) => report.published += 1,
                    Err(_) => report.unexpected_errors += 1,
                },
            }
        }

        for reader in readers {
            let local = reader.join().expect("chaos reader panicked");
            report.completed += local.completed;
            report.mismatches += local.mismatches;
            report.shed += local.shed;
            report.deadline_expired += local.deadline_expired;
            report.stale += local.stale;
            report.unexpected_errors += local.unexpected_errors;
            report.batches += local.batches;
            report.batch_entries += local.batch_entries;
            report.batch_expired += local.batch_expired;
        }
    });
    report
}

/// One scripted batch turn of a chaos reader: a batched query racing the
/// publisher's swap/fault storm, checked entry by entry.
///
/// Storm turns (every 3rd) ship an already-expired shared budget — with the
/// frozen test clock, every entry must come back `Expired { radius: 0 }`.
/// Every 2nd non-storm turn demands latest consistency, so a swap landing
/// mid-batch forces a whole-batch re-probe (or typed staleness). Completed
/// entries must always be bit-identical to the sequential reference on the
/// epoch the reply reports.
fn batch_turn(
    plan: &ChaosPlan,
    service: &RadiusQueryService<NaiveLargestId>,
    references: &[BallExecution<bool>],
    epoch_graph: &[usize],
    rng: &mut u64,
    q: usize,
    local: &mut ChaosReport,
) {
    let nodes: Vec<NodeId> = (0..plan.batch_size.max(1))
        .map(|_| NodeId::new(splitmix64(rng) as usize % plan.nodes))
        .collect();
    let turn = q / plan.batch_every;
    let storm = plan.deadline_every > 0 && turn.is_multiple_of(3);
    let mut options = QueryOptions::new();
    if storm {
        options = options.with_deadline(0);
    } else if plan.latest_every > 0 && turn.is_multiple_of(2) {
        options = options.with_consistency(Consistency::Latest { retry_limit: 3 });
    }
    match service.query_batch(&QueryRequest::nodes(nodes, options)) {
        Ok(reply) => {
            local.batches += 1;
            local.batch_entries += reply.len();
            local.batch_expired += reply.expired();
            if storm {
                let all_expired_at_zero = reply
                    .outcomes()
                    .iter()
                    .all(|o| matches!(o, BatchOutcome::Expired { radius: 0 }));
                if !all_expired_at_zero {
                    local.unexpected_errors += 1;
                }
            }
            let reference = &references[epoch_graph[(reply.epoch() - 1) as usize]];
            for (node, outcome) in reply.nodes().iter().zip(reply.outcomes()) {
                match outcome {
                    BatchOutcome::Completed { output, radius } => {
                        local.completed += 1;
                        if output != reference.output(*node) || *radius != reference.radius(*node) {
                            local.mismatches += 1;
                        }
                    }
                    BatchOutcome::Expired { .. } => {}
                    BatchOutcome::Failed(_) => local.unexpected_errors += 1,
                }
            }
        }
        Err(ServiceError::Overloaded { .. }) => local.shed += 1,
        Err(ServiceError::StaleGeneration { .. }) => local.stale += 1,
        Err(_) => local.unexpected_errors += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_functions_of_the_plan() {
        let plan = ChaosPlan::default();
        assert_eq!(attempt_script(&plan), attempt_script(&plan));
        assert_eq!(epoch_graphs(&attempt_script(&plan)), epoch_graphs(&attempt_script(&plan)));
        // Epoch 1 is always the initial generation (graph 0).
        assert_eq!(epoch_graphs(&attempt_script(&plan))[0], 0);
    }

    #[test]
    fn scripted_faults_land_where_scheduled() {
        let plan = ChaosPlan { publish_attempts: 14, ..ChaosPlan::default() };
        let script = attempt_script(&plan);
        assert_eq!(script[4], Attempt::Torn); // attempt 5
        assert_eq!(script[6], Attempt::Panicking); // attempt 7
        assert_eq!(script[9], Attempt::Torn); // attempt 10
        assert!(matches!(script[0], Attempt::Publish(_)));
    }

    #[test]
    fn splitmix_is_reproducible() {
        let mut a = 7;
        let mut b = 7;
        for _ in 0..10 {
            assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        }
    }

    #[test]
    fn small_chaos_run_holds_the_invariants() {
        let plan = ChaosPlan {
            readers: 2,
            queries_per_reader: 60,
            publish_attempts: 10,
            ..ChaosPlan::default()
        };
        let report = run_chaos(&plan);
        assert_eq!(report.mismatches, 0, "{report:?}");
        assert_eq!(report.unexpected_errors, 0, "{report:?}");
        assert!(report.completed > 0, "{report:?}");
        assert!(report.publish_rejected > 0, "{report:?}");
        assert!(report.publish_panicked > 0, "{report:?}");
        assert!(report.deadline_expired > 0, "{report:?}");
        assert!(report.batches > 0, "{report:?}");
        assert!(report.batch_expired > 0, "{report:?}");
    }
}
