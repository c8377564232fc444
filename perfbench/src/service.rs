//! The `service_mixed` workload: a `RadiusQueryService<LargestId>` on a
//! 65,536-node cycle, driven in a closed loop by two threads, a query
//! client and a publisher.
//!
//! The client replays a seeded script of single `query_with` calls on
//! uniformly random nodes, one operation in 256 being a 256-node
//! `query_batch`. Twice per script it cues the publisher, which publishes
//! the next of two prebuilt snapshots (different id shuffles) while the
//! client keeps querying. Every reply is checked against the radii of the
//! snapshot its epoch names. Each repetition replays the same script, so
//! the service's counters move by exactly the same amounts every time.
//!
//! There is one query client, not one per core: with two querying clients
//! on a 2-vCPU virtual machine the shared admission and pin cache lines
//! bounce between vCPUs whose placement on the host drifts, and the
//! single-query p50 moved by about 20% between runs, against 2% with one
//! client.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use avglocal::algorithms::LargestId;
use avglocal::graph::{derive_seed, generators, CsrGraph, IdAssignment, NodeId};
use avglocal::runtime::{FrozenExecutor, Knowledge, NodeBatchOptions, ProbeOptions};
use avglocal::service::{
    BatchOutcome, QueryOptions, QueryRequest, RadiusQueryService, ServiceConfig, SnapshotStore,
    StatsSnapshot, WallClock,
};

use crate::stats::{median, nearest_rank, quiet, secs, timed, SplitMix};
use crate::trace::Tracer;
use crate::{oracle, Args, Report};

/// Cycle size of both snapshots.
const N: usize = 1 << 16;
/// Nodes per batched query.
const BATCH: usize = 256;
/// Operations the client issues per repetition.
const OPS: usize = 50_000;
/// One operation in this many is a batch.
const BATCH_ONE_IN: usize = 256;
/// Publishes per repetition, cued at evenly spaced points of the script.
const PUBLISHES: usize = 2;
/// Set-up repetitions per run.
const SETUP_REPS: usize = 10;
/// Minimum timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;

type Service = RadiusQueryService<LargestId>;

/// The two snapshots the publisher alternates, with their oracle radii.
struct Snapshots {
    csr: [CsrGraph; 2],
    radii: [Vec<usize>; 2],
    winner: [usize; 2],
}

/// Which snapshot an epoch serves: epoch 1 (the recovered one) and every
/// odd epoch serve snapshot 0, even epochs snapshot 1.
fn slot(epoch: u64) -> usize {
    usize::from(epoch.is_multiple_of(2))
}

impl Snapshots {
    /// Builds both shuffled cycles and their radii: from `FrozenExecutor::run`
    /// and, independently, from the nearest-larger-id scan; the two must agree.
    fn build(seed: u64, report: &mut Report) -> Snapshots {
        let mut csr = Vec::new();
        let mut radii = Vec::new();
        let mut winner = Vec::new();
        for which in 0..2u64 {
            let mut graph = generators::cycle(N).expect("cycle builds");
            IdAssignment::Shuffled { seed: derive_seed(seed, which) }
                .apply(&mut graph)
                .expect("shuffle fits");
            let ids: Vec<u64> = graph.identifiers().map(|id| id.value()).collect();
            let frozen = graph.freeze();
            let run = FrozenExecutor::from_csr(frozen.clone())
                .run(&LargestId, Knowledge::none())
                .expect("largest id runs");
            let expected = oracle::ring_largest_id_radii(&ids);
            report.check(run.radii() == expected.as_slice(), || {
                format!("snapshot {which}: FrozenExecutor::run radii differ from the ring oracle")
            });
            winner.push((0..N).max_by_key(|&v| ids[v]).expect("non-empty"));
            radii.push(expected);
            csr.push(frozen);
        }
        Snapshots {
            csr: csr.try_into().expect("two snapshots"),
            radii: radii.try_into().expect("two snapshots"),
            winner: winner.try_into().expect("two snapshots"),
        }
    }

    fn reply_ok(&self, epoch: u64, node: NodeId, output: bool, radius: usize) -> bool {
        let s = slot(epoch);
        radius == self.radii[s][node.index()] && output == (node.index() == self.winner[s])
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Single(NodeId),
    Batch(usize),
}

/// The client's seeded operation stream.
struct Script {
    ops: Vec<Op>,
    batches: Vec<QueryRequest>,
}

impl Script {
    fn new(seed: u64) -> Script {
        let mut rng = SplitMix::new(derive_seed(seed, 100));
        let mut batches = Vec::new();
        let ops = (0..OPS)
            .map(|_| {
                if rng.below(BATCH_ONE_IN) == 0 {
                    let nodes = (0..BATCH).map(|_| NodeId::new(rng.below(N))).collect();
                    batches.push(QueryRequest::nodes(nodes, QueryOptions::new()));
                    Op::Batch(batches.len() - 1)
                } else {
                    Op::Single(NodeId::new(rng.below(N)))
                }
            })
            .collect();
        Script { ops, batches }
    }

    fn singles(&self) -> Vec<NodeId> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Single(v) => Some(*v),
                Op::Batch(_) => None,
            })
            .collect()
    }
}

/// What one client observed during one repetition.
#[derive(Debug, Default)]
struct Tally {
    single_ns: Vec<u32>,
    batch_ns: Vec<u32>,
    publish_ns: Vec<u32>,
    nodes: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn elapsed_ns(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Replays the script once, cueing the publisher `PUBLISHES` times.
fn client(service: &Service, snaps: &Snapshots, script: &Script, cue: &Sender<()>) -> Tally {
    let mut tally = Tally::default();
    tally.single_ns.reserve(script.ops.len());
    let period = script.ops.len() / PUBLISHES;
    for (k, op) in script.ops.iter().enumerate() {
        // Cue early in each half, so each publish ends well before the
        // client does and the repetition's length stays the client's.
        if k % period == 0 {
            cue.send(()).expect("the publisher outlives the repetition");
        }
        tally.attempted += 1;
        match *op {
            Op::Single(node) => {
                let start = Instant::now();
                let reply = service.query_with(node, QueryOptions::new());
                tally.single_ns.push(elapsed_ns(start));
                match reply {
                    Ok(r) if snaps.reply_ok(r.epoch, node, r.output, r.radius) => tally.nodes += 1,
                    other => tally
                        .failures
                        .push(format!("query_with({}) returned {other:?}", node.index())),
                }
            }
            Op::Batch(i) => {
                let request = &script.batches[i];
                let start = Instant::now();
                let reply = service.query_batch(request);
                tally.batch_ns.push(elapsed_ns(start));
                match reply {
                    Ok(reply) => {
                        let epoch = reply.epoch();
                        let wrong = reply.nodes().iter().zip(reply.outcomes()).find(|(v, o)| {
                            !matches!(o, BatchOutcome::Completed { output, radius }
                                if snaps.reply_ok(epoch, **v, *output, *radius))
                        });
                        match wrong {
                            None => tally.nodes += reply.len() as u64,
                            Some((v, o)) => tally
                                .failures
                                .push(format!("batch entry {} returned {o:?}", v.index())),
                        }
                    }
                    Err(e) => tally.failures.push(format!("query_batch failed: {e}")),
                }
            }
        }
    }
    tally
}

/// Publishes the other snapshot on each of the client's `PUBLISHES` cues.
fn publisher(service: &Service, snaps: &Snapshots, cues: &Receiver<()>) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..PUBLISHES {
        cues.recv().expect("the client cues every publish");
        let next = slot(service.current_epoch() + 1);
        let csr = snaps.csr[next].clone();
        tally.attempted += 1;
        let start = Instant::now();
        let published = service.publish_csr(csr);
        tally.publish_ns.push(elapsed_ns(start));
        match published {
            Ok(epoch) if slot(epoch) == next => {}
            other => tally.failures.push(format!("publish_csr returned {other:?}")),
        }
    }
    tally
}

/// Runs `work` once per repetition, between the two gates, until stopped.
fn gated(
    gates: &(Barrier, Barrier),
    stop: &AtomicBool,
    out: Sender<Tally>,
    work: impl Fn() -> Tally,
) {
    loop {
        gates.0.wait();
        // ordering: the gate orders the flag's store before this load.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        out.send(work()).expect("the collector outlives the loop");
        gates.1.wait();
    }
}

/// One closed-loop repetition: every client replays its script once.
struct Rep {
    wall_s: f64,
    tallies: Vec<Tally>,
    stats: StatsSnapshot,
}

fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        admitted: a.admitted - b.admitted,
        shed: a.shed - b.shed,
        deadline_expired: a.deadline_expired - b.deadline_expired,
        stale: a.stale - b.stale,
        retries: a.retries - b.retries,
        publishes: a.publishes - b.publishes,
        publish_rejected: a.publish_rejected - b.publish_rejected,
        publish_panicked: a.publish_panicked - b.publish_panicked,
        batches: a.batches - b.batches,
        batch_entries: a.batch_entries - b.batch_entries,
    }
}

/// The counter movement one repetition must produce, from the script
/// alone: every operation admitted, none shed, expired or stale.
fn expected_stats(script: &Script) -> StatsSnapshot {
    let batches = script.batches.len() as u64;
    StatsSnapshot {
        admitted: script.ops.len() as u64,
        publishes: PUBLISHES as u64,
        batches,
        batch_entries: batches * BATCH as u64,
        ..StatsSnapshot::default()
    }
}

/// Closed-loop measurements, per repetition or pooled over repetitions.
#[derive(Debug, Default)]
struct Loop {
    nodes_per_s: Vec<f64>,
    single_p50_ns: Vec<f64>,
    single_p99_ns: Vec<f64>,
    batch_ns: Vec<u32>,
    publish_ns: Vec<u32>,
    stats: StatsSnapshot,
}

/// Runs repetitions for `seconds` after one warm-up repetition. The client
/// and publisher threads live for the whole loop and meet the collector at
/// a gate before and after every repetition.
fn closed_loop(
    service: &Service,
    snaps: &Snapshots,
    script: &Script,
    seconds: f64,
    report: &mut Report,
) -> Loop {
    let expected = expected_stats(script);
    let gates = (Barrier::new(3), Barrier::new(3));
    let stop = AtomicBool::new(false);
    let (sender, tallies) = mpsc::channel();
    let (cue, cues) = mpsc::channel();
    std::thread::scope(|scope| {
        let (gates, stop) = (&gates, &stop);
        let out = sender.clone();
        scope.spawn(move || gated(gates, stop, out, || client(service, snaps, script, &cue)));
        scope.spawn(move || gated(gates, stop, sender, || publisher(service, snaps, &cues)));
        let rep = || {
            let before = service.stats();
            gates.0.wait();
            let start = Instant::now();
            gates.1.wait();
            let wall_s = secs(start);
            let tallies: Vec<Tally> = (0..2).map(|_| tallies.recv().expect("sent")).collect();
            Rep { wall_s, tallies, stats: delta(&service.stats(), &before) }
        };
        // Warm-up repetition: fills caches, starts the pool, faults pages in.
        absorb(report, &rep(), &expected);
        let mut out = Loop::default();
        let mut singles = Vec::new();
        let before = service.stats();
        let start = Instant::now();
        while out.nodes_per_s.len() < MIN_REPS || secs(start) < seconds {
            let r = rep();
            absorb(report, &r, &expected);
            singles.clear();
            let mut nodes = 0;
            for tally in &r.tallies {
                singles.extend_from_slice(&tally.single_ns);
                out.batch_ns.extend_from_slice(&tally.batch_ns);
                out.publish_ns.extend_from_slice(&tally.publish_ns);
                nodes += tally.nodes;
            }
            singles.sort_unstable();
            out.single_p50_ns.push(nearest_rank(&singles, 0.50));
            out.single_p99_ns.push(nearest_rank(&singles, 0.99));
            out.nodes_per_s.push(nodes as f64 / r.wall_s);
        }
        out.stats = delta(&service.stats(), &before);
        stop.store(true, Ordering::Relaxed);
        gates.0.wait();
        out.batch_ns.sort_unstable();
        out.publish_ns.sort_unstable();
        out
    })
}

fn absorb(report: &mut Report, r: &Rep, expected: &StatsSnapshot) {
    for tally in &r.tallies {
        report.attempted += tally.attempted;
        for failure in &tally.failures {
            report.fail(failure.clone());
        }
    }
    report.check(r.stats == *expected, || {
        format!("stats moved by {:?}, the script implies {expected:?}", r.stats)
    });
}

fn new_service(csr: CsrGraph) -> Service {
    RadiusQueryService::new(
        LargestId,
        Knowledge::none(),
        csr,
        Arc::new(WallClock::new()),
        ServiceConfig::default(),
    )
}

/// Set-up: recover the persisted snapshot, start the service, answer the
/// first query. Timed `SETUP_REPS` times; returns the last service with the
/// quiet set-up time and the median recovery time.
fn set_up(
    store: &SnapshotStore,
    snaps: &Snapshots,
    first: NodeId,
    report: &mut Report,
) -> Option<(Service, f64, f64)> {
    let mut setup = Vec::new();
    let mut recover = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let recovered = store.recover();
        recover.push(secs(start));
        let Some((epoch, csr)) = recovered.durable else {
            report.fail(format!("nothing recovered; skipped {:?}", recovered.skipped));
            return None;
        };
        let s = new_service(csr);
        let reply = s.query_with(first, QueryOptions::new());
        setup.push(secs(start));
        report.attempted += 1;
        report.check(epoch == 1 && s.pin().session().csr() == &snaps.csr[0], || {
            format!("recovered epoch {epoch} is not the persisted snapshot")
        });
        match reply {
            Ok(r) if snaps.reply_ok(r.epoch, first, r.output, r.radius) => {}
            other => report.fail(format!("first query returned {other:?}")),
        }
        service = Some(s);
    }
    service.map(|s| (s, quiet(&setup, true), median(&recover)))
}

/// Runs `service_mixed` in the mode `args` selects.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let snaps = Snapshots::build(args.seed, &mut report);
    let script = Script::new(args.seed);
    let store_dir = args.work_dir.join(format!("store-{}", std::process::id()));
    let report = with_store(&store_dir, |store| {
        if let Err(e) = store.persist(1, &snaps.csr[0]) {
            report.fail(format!("persisting the snapshot failed: {e}"));
            return report;
        }
        let first = script.singles()[0];
        let Some((service, setup_s, recover_s)) = set_up(store, &snaps, first, &mut report) else {
            return report;
        };
        if args.trace {
            traced(args, &service, &snaps, &script, recover_s, &mut report);
            return report;
        }
        let measured = closed_loop(&service, &snaps, &script, args.seconds, &mut report);
        report.metric("setup_s", setup_s);
        report.metric("nodes_per_s", quiet(&measured.nodes_per_s, false));
        report.metric("op_p50_us", quiet(&measured.single_p50_ns, true) * 1e-3);
        report.metric("op_p99_us", quiet(&measured.single_p99_ns, true) * 1e-3);
        report
    });
    report
}

/// Runs `f` on a fresh snapshot store under `dir`, removing it afterwards.
fn with_store(dir: &Path, f: impl FnOnce(&SnapshotStore) -> Report) -> Report {
    let _ = std::fs::remove_dir_all(dir);
    let report = match SnapshotStore::open(dir) {
        Ok(store) => f(&store),
        Err(e) => {
            let mut report = Report::default();
            report.fail(format!("opening the snapshot store failed: {e}"));
            report
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    report
}

/// The traced run: per-layer costs of the service path.
fn traced(
    args: &Args,
    service: &Service,
    snaps: &Snapshots,
    script: &Script,
    recover_s: f64,
    report: &mut Report,
) {
    let budget = Instant::now();
    let mut build = Vec::new();
    let mut freeze = Vec::new();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..SETUP_REPS {
        let (graph, s) = timed(|| generators::cycle(N).expect("cycle builds"));
        build.push(s);
        let (csr, s) = timed(|| graph.freeze());
        freeze.push(s);
        black_box(csr);
        let (encoded, s) = timed(|| snaps.csr[0].to_bytes());
        encode.push(s);
        bytes = encoded.len();
        let (decoded, s) = timed(|| CsrGraph::from_bytes(&encoded));
        decode.push(s);
        report
            .check(decoded.as_ref() == Ok(&snaps.csr[0]), || "snapshot round trip differs".into());
    }
    let (encode_s, decode_s) = (median(&encode), median(&decode));
    report.metric("graph.build_s", median(&build));
    report.metric("graph.freeze_s", median(&freeze));
    report.metric("graph.encode_s", encode_s);
    report.metric("graph.decode_s", decode_s);
    report.metric("graph.decode_mb_per_s", bytes as f64 / decode_s / 1e6);
    report.counts.insert("graph.snapshot_bytes", bytes as u64);
    report.metric("service.recover_s", recover_s);

    // Closed loop for part of the time, for the latency tails and counters.
    let measured = closed_loop(service, snaps, script, args.seconds * 0.4, report);
    let publish_s = nearest_rank(&measured.publish_ns, 0.5) * 1e-9;
    report.metric("service.query_p50_ns", median(&measured.single_p50_ns));
    report.metric("service.query_p99_ns", median(&measured.single_p99_ns));
    report.metric("service.batch_p50_us", nearest_rank(&measured.batch_ns, 0.50) * 1e-3);
    report.metric("service.batch_p99_us", nearest_rank(&measured.batch_ns, 0.99) * 1e-3);
    report.metric("service.publish_p50_ms", publish_s * 1e3);
    report.metric("service.install_s", publish_s - encode_s - decode_s);
    let stats = measured.stats;
    for (name, value) in [
        ("service.admitted", stats.admitted),
        ("service.shed", stats.shed),
        ("service.deadline_expired", stats.deadline_expired),
        ("service.stale", stats.stale),
        ("service.publishes", stats.publishes),
        ("service.batches", stats.batches),
        ("service.batch_entries", stats.batch_entries),
    ] {
        report.metric(name, value as f64);
    }
    report.metric("service.shed_ratio", stats.shed as f64 / (stats.admitted + stats.shed) as f64);
    report.metric("service.fail_ratio", report.failed as f64 / report.attempted.max(1) as f64);

    // Replays of the client's script on a quiet service and on the bare
    // session it wraps: the service's own overhead per query and per batch.
    let quiet = new_service(snaps.csr[0].clone());
    let session = FrozenExecutor::from_csr(snaps.csr[0].clone());
    let singles = script.singles();
    let batches = &script.batches;
    let radii = &snaps.radii[0];
    let mut raw = Vec::new();
    let mut served = Vec::new();
    let mut served_traced = Vec::new();
    let mut raw_batch = Vec::new();
    let mut served_batch = Vec::new();
    let mut radius_sum = 0u64;
    let mut last = Tracer::new(true);
    let remaining = || args.seconds - secs(budget);
    let pin_budget = 0.05 * args.seconds;
    while raw.len() < MIN_REPS || remaining() > pin_budget {
        let (sum, s) = timed(|| {
            let mut sum = 0u64;
            for &v in &singles {
                let (_, r) = session
                    .run_node_with(v, &LargestId, Knowledge::none(), ProbeOptions::new())
                    .expect("raw probes complete");
                sum += r as u64;
            }
            sum
        });
        raw.push(s);
        radius_sum = sum;
        let (ok, s) = timed(|| replay_singles(&quiet, &singles, radii, &mut Tracer::new(false)));
        served.push(s);
        report.check(ok, || "quiet single-query replay mismatched".into());
        let mut tracer = Tracer::new(true);
        let (ok, s) = timed(|| replay_singles(&quiet, &singles, radii, &mut tracer));
        served_traced.push(s);
        report.check(ok, || "traced single-query replay mismatched".into());
        last = tracer;
        let ((), s) = timed(|| {
            for request in batches {
                let nodes = match &request.nodes {
                    avglocal::service::NodeSelection::Nodes(nodes) => nodes.as_slice(),
                    avglocal::service::NodeSelection::All => &[],
                };
                black_box(session.run_nodes_with(
                    nodes,
                    &LargestId,
                    Knowledge::none(),
                    &NodeBatchOptions::new(),
                ));
            }
        });
        raw_batch.push(s);
        let ((), s) = timed(|| {
            for request in batches {
                black_box(quiet.query_batch(request).expect("quiet batches admit"));
            }
        });
        served_batch.push(s);
        report.attempted += 3 * singles.len() as u64 + 2 * batches.len() as u64;
    }
    let probe_s = median(&raw);
    let ball_nodes: u64 = singles.iter().map(|v| (2 * radii[v.index()] + 1).min(N) as u64).sum();
    report
        .check(radius_sum == singles.iter().map(|v| radii[v.index()] as u64).sum::<u64>(), || {
            "raw replay radius sum differs from the oracle".into()
        });
    report.metric("runtime.probe_s", probe_s);
    report.counts.insert("runtime.probes", singles.len() as u64);
    report.counts.insert("runtime.radius_sum", radius_sum);
    report.counts.insert("runtime.ball_nodes", ball_nodes);
    report.metric("runtime.ns_per_ball_node", probe_s * 1e9 / ball_nodes as f64);
    report.metric("service.overhead", median(&served) / probe_s);
    report.metric("service.batch_overhead", median(&served_batch) / median(&raw_batch));
    report.metric("trace.overhead_s", median(&served_traced) - median(&served));
    report.metric("trace.spans", last.spans().len() as f64);
    report.metric("service.pin_ns", pin_under_churn(&quiet, snaps, pin_budget.max(0.2)));
    let path = args.work_dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = last.write_json(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Sequential `query_with` over `nodes`, one span per request; `true` when
/// every reply matches `radii`.
fn replay_singles(
    service: &Service,
    nodes: &[NodeId],
    radii: &[usize],
    tracer: &mut Tracer,
) -> bool {
    let mut ok = true;
    for (i, &v) in nodes.iter().enumerate() {
        let reply = tracer
            .span("service.query_with", i as u64, |_| service.query_with(v, QueryOptions::new()));
        ok &= reply.is_ok_and(|r| r.radius == radii[v.index()]);
    }
    ok
}

/// Nanoseconds per `pin` while another thread keeps publishing.
fn pin_under_churn(service: &Service, snaps: &Snapshots, seconds: f64) -> f64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let churn = scope.spawn(|| {
            // ordering: a stop flag publishing no other data.
            while !stop.load(Ordering::Relaxed) {
                let next = slot(service.current_epoch() + 1);
                service.publish_csr(snaps.csr[next].clone()).expect("prebuilt snapshots publish");
            }
        });
        let start = Instant::now();
        let mut pins = 0u64;
        while secs(start) < seconds {
            for _ in 0..1_000 {
                black_box(service.pin());
            }
            pins += 1_000;
        }
        let elapsed = secs(start);
        stop.store(true, Ordering::Relaxed);
        churn.join().expect("publisher does not panic");
        elapsed * 1e9 / pins as f64
    })
}
