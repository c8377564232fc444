//! E1 perf trajectory of the radius engine: the single-node probe loop
//! (session reuse vs per-call freeze), the **snapshot block** (encode vs the
//! validating decode), the **hub block** (the E9 hub adversary on the
//! committed preferential-attachment family: sweep wall time plus the
//! measured edge/node detachment, gated at the regular-family sandwich bound
//! of 2), the **service block** (sustained query load through the resilient
//! radius-query service vs the bare frozen session, recording qps and p99
//! latency, overhead gated at 3x), the **service_batch block** (one
//! reader's whole population through `query_batch`, sharded across the pool,
//! vs the same population as single queries; total radii bit-identical by
//! assertion and the batched qps gated at 2x the single-query qps on
//! machines with real parallelism) and the **sampling block** (the
//! node-averaged measure from a seeded 10% uniform sample vs the exact
//! sweep — relative error gated at a 25% budget, wall-time speedup gated at
//! 5x with real cores — plus frontier rows extending the curve an order of
//! magnitude past the largest exact sweep).
//!
//! Writes `BENCH_e1.json` (next to the current working directory) so the
//! repository keeps a perf trajectory across PRs, and exits non-zero if any
//! two engines or schedules disagree on a radius or output.
//!
//! ```text
//! cargo run --release -p avglocal-bench --bin bench_e1                # full sizes
//! cargo run --release -p avglocal-bench --bin bench_e1 -- --quick     # smoke run
//! cargo run --release -p avglocal-bench --bin bench_e1 -- --quick --check  # CI gate
//! AVG_LOCAL_THREADS=4 ./bench.sh                                      # pinned pool
//! ```
//!
//! `--check` evaluates the full regression-gate table (one speedup gate per
//! recorded block) and exits non-zero if any gate regresses below its
//! threshold — this is the step CI runs on every push. Gates that only
//! develop their full separation with real cores underneath the pool
//! (batching, sampling speedup) use their full threshold on `>= 4`-core
//! machines and a relaxed *sanity* threshold elsewhere. Every block is
//! gated on every run.
//!
//! The worker-pool size is recorded in every block: parallel speedups only
//! show when the pool has real cores underneath (`available_parallelism` is
//! recorded too, so a 1-core container's ~1× ratios are self-explanatory).

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use avglocal::algorithms::{KnowTheLeader, LargestId};
use avglocal::graph::CsrGraph;
use avglocal::prelude::*;
use avglocal::runtime::{FrozenExecutor, Knowledge, NodeBatchOptions, ProbeOptions};
use avglocal_bench::load::{raw_probe_load, service_batch_load, service_load, LoadConfig};

/// Repetitions per measurement; the minimum is reported.
const REPS: usize = 3;

struct ProbeRow {
    n: usize,
    session_ms: f64,
    refreeze_ms: f64,
}

struct HubRow {
    n: usize,
    edges: usize,
    hub_degree: usize,
    edge_node_ratio: f64,
    assignment_ms: f64,
    sweep_ms: f64,
}

struct SnapshotRow {
    n: usize,
    edges: usize,
    bytes: usize,
    bytes_per_edge: f64,
    encode_ms: f64,
    decode_ms: f64,
}

struct SamplingRow {
    n: usize,
    budget: usize,
    exact: f64,
    estimate: f64,
    half_width: f64,
    rel_error: f64,
    exact_ms: f64,
    sampled_ms: f64,
}

struct FrontierRow {
    n: usize,
    budget: usize,
    estimate: f64,
    half_width: f64,
    sampled_ms: f64,
}

/// One regression gate of the `--check` suite: the measured speedup of a
/// recorded block must stay at or above its threshold. Gates whose full
/// separation needs real cores underneath the pool fall back to a relaxed
/// *sanity* threshold elsewhere (quick mode, undersized machines), so every
/// recorded block is gated on every run — a pathological regression can
/// never hide behind a SKIP.
struct Gate {
    name: &'static str,
    speedup: f64,
    threshold: f64,
    sanity: bool,
}

impl Gate {
    /// A gate that always applies at its full threshold.
    fn full(name: &'static str, speedup: f64, threshold: f64) -> Gate {
        Gate { name, speedup, threshold, sanity: false }
    }

    /// A gate with its full threshold when `strong` holds and the relaxed
    /// `sanity_threshold` otherwise.
    fn scaled(
        name: &'static str,
        speedup: f64,
        strong: bool,
        full_threshold: f64,
        sanity_threshold: f64,
    ) -> Gate {
        Gate {
            name,
            speedup,
            threshold: if strong { full_threshold } else { sanity_threshold },
            sanity: !strong,
        }
    }
}

/// Times one pass of `probe` over every node of `graph`; the minimum over
/// [`REPS`] passes is reported. Returns `(total radius, best ms)`.
fn measure_probe_loop(graph: &Graph, mut probe: impl FnMut(NodeId) -> usize) -> (usize, f64) {
    let mut best = f64::INFINITY;
    let mut total = 0usize;
    for _ in 0..REPS {
        let start = Instant::now();
        total = graph.nodes().map(&mut probe).sum();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (total, best)
}

/// Times `body` [`REPS`] times and returns `(last result, best ms)`.
fn measure_ms<T>(mut body: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        result = Some(body());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (result.expect("REPS >= 1"), best)
}

fn main() -> ExitCode {
    let quick = env::args().any(|a| a == "--quick");
    let check = env::args().any(|a| a == "--check");
    let sizes: &[usize] = if quick { &[256, 1024] } else { &[256, 1024, 4096] };
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("pool: {threads} thread(s), machine: {cores} core(s)");

    // The run_node datapoint: probe every node individually, reusing one
    // frozen session vs freezing a fresh snapshot per call.
    println!("\nE1 run_node probes: frozen session reuse vs per-call refreeze");
    println!("{:>6} {:>12} {:>13} {:>9}", "n", "session ms", "refreeze ms", "speedup");
    let mut probe_rows = Vec::new();
    for &n in sizes {
        let graph = topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Identity)
            .expect("cycles of the benchmarked sizes are valid");
        let probe = |session: &FrozenExecutor, v| {
            let options = ProbeOptions::new();
            session.run_node_with(v, &LargestId, Knowledge::none(), options).expect("terminates").1
        };
        let session = FrozenExecutor::new(&graph);
        let (session_total, session_ms) = measure_probe_loop(&graph, |v| probe(&session, v));
        let (refreeze_total, refreeze_ms) =
            measure_probe_loop(&graph, |v| probe(&FrozenExecutor::new(&graph), v));
        assert_eq!(session_total, refreeze_total, "probe engines disagree at n={n}");
        println!(
            "{:>6} {:>12.3} {:>13.3} {:>8.1}x",
            n,
            session_ms,
            refreeze_ms,
            refreeze_ms / session_ms
        );
        probe_rows.push(ProbeRow { n, session_ms, refreeze_ms });
    }

    // The snapshot datapoint: the versioned binary codec around `CsrGraph`
    // (`to_bytes` / validating `from_bytes`). Decoding re-establishes every
    // structural invariant from untrusted bytes (checksum, offsets, symmetry,
    // component relabelling), so its throughput is the price of the trust
    // boundary; the bytes-per-edge density is a deterministic property of the
    // format and is gated exactly.
    let snapshot_sizes: &[usize] = if quick { &[1 << 14, 1 << 16] } else { &[1 << 16, 1 << 18] };
    println!("\nE1 snapshot codec: encode vs validating decode, cycle instances");
    println!(
        "{:>8} {:>8} {:>10} {:>11} {:>11} {:>11} {:>12}",
        "n", "edges", "bytes", "bytes/edge", "encode ms", "decode ms", "decode MB/s"
    );
    let mut snapshot_rows = Vec::new();
    for &n in snapshot_sizes {
        let graph = topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Identity)
            .expect("cycles of the benchmarked sizes are valid");
        let csr = graph.freeze();
        let (bytes, encode_ms) = measure_ms(|| csr.to_bytes());
        let (decoded, decode_ms) =
            measure_ms(|| CsrGraph::from_bytes(&bytes).expect("own snapshots decode cleanly"));
        assert_eq!(decoded, csr, "snapshot round trip diverged at n={n}");
        assert_eq!(decoded.components(), csr.components(), "labels diverged at n={n}");
        let bytes_per_edge = bytes.len() as f64 / csr.edge_count() as f64;
        println!(
            "{:>8} {:>8} {:>10} {:>11.1} {:>11.3} {:>11.3} {:>12.1}",
            n,
            csr.edge_count(),
            bytes.len(),
            bytes_per_edge,
            encode_ms,
            decode_ms,
            bytes.len() as f64 / decode_ms / 1e3
        );
        snapshot_rows.push(SnapshotRow {
            n,
            edges: csr.edge_count(),
            bytes: bytes.len(),
            bytes_per_edge,
            encode_ms,
            decode_ms,
        });
    }

    // The hub datapoint: the E9 acceptance configuration — the hub
    // adversary on the committed preferential-attachment tree — timed
    // through the sweep harness, with the measured edge/node detachment
    // recorded and gated (a connected family must escape the regular-family
    // sandwich bound of 2). Everything here is deterministic (fixed family
    // seed, fixed assignment), so the ratio gate is exact, not statistical.
    let hub_sizes: &[usize] = if quick { &[64] } else { &[64, 128, 256] };
    let hub_topology = Topology::PreferentialAttachment { m: 1, seed: 13 };
    println!("\nE1 hub detachment: hub adversary on {hub_topology}, edge/node ratio gate >= 2");
    println!(
        "{:>6} {:>8} {:>11} {:>11} {:>14} {:>10}",
        "n", "edges", "hub degree", "edge/node", "assignment ms", "sweep ms"
    );
    let mut hub_rows = Vec::new();
    for &n in hub_sizes {
        let base = hub_topology.build(n).expect("the committed hub family stays connected");
        let (assignment, assignment_ms) = measure_ms(|| {
            hub_adversarial_assignment(&base).expect("the hub adversary works on non-empty graphs")
        });
        let (row, sweep_ms) = measure_ms(|| {
            let result = Sweep::on(Problem::LargestId, hub_topology.clone(), vec![n])
                .with_policy(AssignmentPolicy::Fixed(assignment.clone()))
                .run()
                .expect("largest-ID sweeps run on connected hub families");
            let mut rows = result.rows;
            rows.remove(0)
        });
        let hub_degree = base.max_degree().expect("hub instances are non-empty");
        let edge_node_ratio = row.edge_averaged / row.average;
        println!(
            "{:>6} {:>8} {:>11} {:>10.2}x {:>14.3} {:>10.3}",
            n,
            base.edge_count(),
            hub_degree,
            edge_node_ratio,
            assignment_ms,
            sweep_ms
        );
        hub_rows.push(HubRow {
            n,
            edges: base.edge_count(),
            hub_degree,
            edge_node_ratio,
            assignment_ms,
            sweep_ms,
        });
    }

    // The service datapoint: the same reader scripts driven once through the
    // resilient radius-query service (admission, deadline bookkeeping, epoch
    // pinning on every query) and once straight on the shared frozen session.
    // Total radii must agree bit for bit; the qps ratio is the service
    // layer's per-query overhead and is gated at a 3x budget.
    let load_config = if quick {
        LoadConfig { nodes: 256, readers: 2, queries_per_reader: 256 }
    } else {
        LoadConfig { nodes: 1024, readers: 4, queries_per_reader: 1024 }
    };
    println!(
        "\nE1 service load: {} readers x {} queries on an n={} generation",
        load_config.readers, load_config.queries_per_reader, load_config.nodes
    );
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "service qps", "raw qps", "p50 us", "p99 us", "max us", "overhead"
    );
    let mut service_run = service_load(&load_config);
    let mut raw_run = raw_probe_load(&load_config);
    for _ in 1..REPS {
        let service_again = service_load(&load_config);
        if service_again.qps > service_run.qps {
            service_run = service_again;
        }
        let raw_again = raw_probe_load(&load_config);
        if raw_again.qps > raw_run.qps {
            raw_run = raw_again;
        }
    }
    assert_eq!(
        service_run.total_radius, raw_run.total_radius,
        "service answers diverged from raw probes"
    );
    let service_overhead = raw_run.qps / service_run.qps;
    println!(
        "{:>12.0} {:>12.0} {:>10} {:>10} {:>10} {:>8.2}x",
        service_run.qps,
        raw_run.qps,
        service_run.p50_us,
        service_run.p99_us,
        service_run.max_us,
        service_overhead
    );

    // The batched datapoint: one reader's whole population issued as
    // `query_batch` requests (one admission slot and one generation pin per
    // batch, node set sharded across the persistent pool) against the same
    // population as sequential single queries. Total radii must agree bit
    // for bit; the qps ratio is the batching win, gated at 2x wherever the
    // pool has real cores underneath.
    let batch_config = if quick {
        LoadConfig { nodes: 256, readers: 1, queries_per_reader: 256 }
    } else {
        LoadConfig { nodes: 4096, readers: 1, queries_per_reader: 4096 }
    };
    let batch_size = batch_config.nodes;
    println!(
        "\nE1 batched load: 1 reader x {} queries in batches of {} on an n={} generation",
        batch_config.queries_per_reader, batch_size, batch_config.nodes
    );
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>9}",
        "batch qps", "single qps", "batch p99 us", "single p99 us", "speedup"
    );
    let mut batch_run = service_batch_load(&batch_config, batch_size);
    let mut single_run = service_load(&batch_config);
    for _ in 1..REPS {
        let batch_again = service_batch_load(&batch_config, batch_size);
        if batch_again.qps > batch_run.qps {
            batch_run = batch_again;
        }
        let single_again = service_load(&batch_config);
        if single_again.qps > single_run.qps {
            single_run = single_again;
        }
    }
    assert_eq!(
        batch_run.total_radius, single_run.total_radius,
        "batched answers diverged from single queries"
    );
    let batch_speedup = batch_run.qps / single_run.qps;
    println!(
        "{:>12.0} {:>12.0} {:>12} {:>13} {:>8.2}x",
        batch_run.qps, single_run.qps, batch_run.p99_us, single_run.p99_us, batch_speedup
    );

    // The sampling datapoint: the node-averaged measure estimated from a 10%
    // uniform sample (one drawn set, one sharded probe pass) against the
    // exact full sweep on the same instance. On the common sizes both run,
    // recording the estimate's relative error and the wall-time speedup;
    // past the exact frontier only the sampled estimator runs, extending the
    // E7-style curve at least an order of magnitude beyond the largest exact
    // sweep. The family is the shuffled grid under `KnowTheLeader` — leader
    // distances spread over many values, so a 10% sample is genuinely
    // informative (ring `LargestId` radii hide half the mean in one extreme
    // node, which no 10% sample can estimate — that regime belongs to the
    // stratified MSE test, not a relative-error gate). Draws are seeded, so
    // every recorded value is deterministic.
    let sampling_sizes: &[usize] = if quick { &[256, 1024] } else { &[256, 1024, 4096] };
    let frontier_sizes: &[usize] = if quick { &[4096, 16384] } else { &[16384, 65536] };
    println!("\nE1 sampling: 10% uniform sample vs exact know-the-leader sweep, shuffled grid");
    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>10} {:>10} {:>11} {:>9}",
        "n", "budget", "exact", "estimate", "rel err", "exact ms", "sampled ms", "speedup"
    );
    let sampled_estimate = |csr: &CsrGraph, session: &FrozenExecutor, plan: SamplePlan| {
        let sample = plan.draw(csr, plan.seed_for(42, 0));
        let probed = Problem::KnowTheLeader
            .probe_radii(session, sample.nodes(), &NodeBatchOptions::new())
            .expect("know-the-leader terminates on every probed node");
        sample.estimate(&probed).node_averaged.expect("uniform plans estimate the node average")
    };
    let sampling_graph = |n: usize| {
        let mut graph = Topology::Grid.build(n).expect("grids of the benchmarked sizes are valid");
        IdAssignment::Shuffled { seed: 5 }.apply(&mut graph).expect("shuffles are permutations");
        graph.freeze()
    };
    let mut sampling_rows = Vec::new();
    for &n in sampling_sizes {
        let csr = sampling_graph(n);
        let session = FrozenExecutor::from_csr(csr.clone());
        let (exact_run, exact_ms) =
            measure_ms(|| session.run(&KnowTheLeader, Knowledge::none()).expect("terminates"));
        let exact =
            MeasureSet::of_csr(&RadiusProfile::new(exact_run.radii().to_vec()), &csr).node_averaged;
        let plan = SamplePlan::Uniform { budget: n / 10 };
        let (estimate, sampled_ms) = measure_ms(|| sampled_estimate(&csr, &session, plan));
        let rel_error = (estimate.value - exact).abs() / exact;
        println!(
            "{:>6} {:>7} {:>10.3} {:>10.3} {:>10.4} {:>10.3} {:>11.3} {:>8.1}x",
            n,
            plan.budget(),
            exact,
            estimate.value,
            rel_error,
            exact_ms,
            sampled_ms,
            exact_ms / sampled_ms
        );
        sampling_rows.push(SamplingRow {
            n,
            budget: plan.budget(),
            exact,
            estimate: estimate.value,
            half_width: estimate.half_width_95,
            rel_error,
            exact_ms,
            sampled_ms,
        });
    }
    println!("  -- past the exact frontier (sampled only) --");
    let mut frontier_rows = Vec::new();
    for &n in frontier_sizes {
        let csr = sampling_graph(n);
        let session = FrozenExecutor::from_csr(csr.clone());
        let plan = SamplePlan::Uniform { budget: n / 10 };
        let (estimate, sampled_ms) = measure_ms(|| sampled_estimate(&csr, &session, plan));
        println!(
            "{:>6} {:>7} {:>10} {:>10.3} {:>10} {:>10} {:>11.3}",
            n,
            plan.budget(),
            "-",
            estimate.value,
            "-",
            "-",
            sampled_ms
        );
        frontier_rows.push(FrontierRow {
            n,
            budget: plan.budget(),
            estimate: estimate.value,
            half_width: estimate.half_width_95,
            sampled_ms,
        });
    }

    let mut json = String::from("{\n  \"experiment\": \"e1_largest_id_identity\",\n");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    json.push_str("  \"run_node\": {\n");
    json.push_str(
        "    \"description\": \"per-node probes: FrozenExecutor session reuse vs a \
         fresh freeze per call\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    json.push_str("    \"rows\": [\n");
    for (i, row) in probe_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"session_ms\": {:.3}, \"refreeze_ms\": {:.3}, \"speedup\": {:.1}}}{}",
            row.n,
            row.session_ms,
            row.refreeze_ms,
            row.refreeze_ms / row.session_ms,
            if i + 1 == probe_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  },\n  \"snapshot\": {\n");
    json.push_str(
        "    \"description\": \"versioned binary CsrGraph snapshots: to_bytes vs the validating \
         from_bytes (checksum, offsets, endpoint bounds, symmetry, canonical component \
         relabelling re-established from untrusted bytes); round trips bit-identical by \
         assertion\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    json.push_str("    \"rows\": [\n");
    for (i, row) in snapshot_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"edges\": {}, \"bytes\": {}, \"bytes_per_edge\": {:.1}, \"encode_ms\": {:.3}, \"decode_ms\": {:.3}, \"decode_mb_s\": {:.1}}}{}",
            row.n,
            row.edges,
            row.bytes,
            row.bytes_per_edge,
            row.encode_ms,
            row.decode_ms,
            row.bytes as f64 / row.decode_ms / 1e3,
            if i + 1 == snapshot_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  },\n  \"hub\": {\n");
    json.push_str(
        "    \"description\": \"E9 hub detachment: the hub adversary on the committed \
         preferential-attachment tree (m=1, seed=13) through the sweep harness; \
         edge_node_ratio is the edge-averaged/node-averaged detachment of the connected \
         instance and is gated at >= 2 (the regular-family sandwich bound)\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    json.push_str("    \"rows\": [\n");
    for (i, row) in hub_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"edges\": {}, \"hub_degree\": {}, \"edge_node_ratio\": {:.2}, \"assignment_ms\": {:.3}, \"sweep_ms\": {:.3}}}{}",
            row.n,
            row.edges,
            row.hub_degree,
            row.edge_node_ratio,
            row.assignment_ms,
            row.sweep_ms,
            if i + 1 == hub_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  },\n  \"service\": {\n");
    json.push_str(
        "    \"description\": \"sustained query load through the resilient radius-query \
         service (admission, deadlines, epoch pinning) vs the same reader scripts on the \
         bare frozen session; total radii bit-identical by assertion, overhead gated at a \
         3x per-query budget\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(
        json,
        "    \"rows\": [\n      {{\"nodes\": {}, \"readers\": {}, \"queries\": {}, \"service_qps\": {:.0}, \"raw_qps\": {:.0}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"overhead\": {:.2}}}\n    ]",
        load_config.nodes,
        load_config.readers,
        service_run.completed,
        service_run.qps,
        raw_run.qps,
        service_run.p50_us,
        service_run.p99_us,
        service_run.max_us,
        service_overhead
    );
    json.push_str("  },\n  \"service_batch\": {\n");
    json.push_str(
        "    \"description\": \"batched query path: one reader's whole population through \
         query_batch (one admission slot and one generation pin per batch, node set sharded \
         across the persistent pool) vs the same population as sequential single queries; \
         total radii bit-identical by assertion, batched qps gated at 2x the single-query \
         qps on machines with real parallelism\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    let _ = writeln!(
        json,
        "    \"rows\": [\n      {{\"nodes\": {}, \"batch_size\": {}, \"entries\": {}, \"batch_qps\": {:.0}, \"single_qps\": {:.0}, \"batch_p99_us\": {}, \"single_p99_us\": {}, \"speedup\": {:.2}}}\n    ]",
        batch_config.nodes,
        batch_size,
        batch_run.completed,
        batch_run.qps,
        single_run.qps,
        batch_run.p99_us,
        single_run.p99_us,
        batch_speedup
    );
    json.push_str("  },\n  \"sampling\": {\n");
    json.push_str(
        "    \"description\": \"sampled estimation: the node-averaged know-the-leader \
         measure from a 10% uniform sample (seeded draw, one sharded probe pass) vs the \
         exact full sweep on the shuffled grid; rel_error is gated at a 25% budget and \
         the sampled path must beat the exact sweep 5x wherever the pool has real cores \
         underneath; frontier rows extend the curve an order of magnitude past the \
         largest exact sweep\",\n",
    );
    let _ = writeln!(json, "    \"threads\": {threads},");
    json.push_str("    \"rows\": [\n");
    for (i, row) in sampling_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"budget\": {}, \"exact\": {:.6}, \"estimate\": {:.6}, \"half_width_95\": {:.6}, \"rel_error\": {:.6}, \"exact_ms\": {:.3}, \"sampled_ms\": {:.3}, \"speedup\": {:.1}}}{}",
            row.n,
            row.budget,
            row.exact,
            row.estimate,
            row.half_width,
            row.rel_error,
            row.exact_ms,
            row.sampled_ms,
            row.exact_ms / row.sampled_ms,
            if i + 1 == sampling_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ],\n    \"frontier\": [\n");
    for (i, row) in frontier_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"n\": {}, \"budget\": {}, \"estimate\": {:.6}, \"half_width_95\": {:.6}, \"sampled_ms\": {:.3}}}{}",
            row.n,
            row.budget,
            row.estimate,
            row.half_width,
            row.sampled_ms,
            if i + 1 == frontier_rows.len() { "" } else { "," }
        );
    }
    json.push_str("    ]\n  }\n}\n");
    fs::write("BENCH_e1.json", &json).expect("BENCH_e1.json must be writable");
    println!("\nwrote BENCH_e1.json");

    // The regression-gate table: one gate per recorded block, evaluated on
    // every run. Parallel speedups only develop their full ratios with >= 4
    // real cores underneath the pool, so elsewhere they gate at a relaxed
    // sanity threshold instead — enough to catch a pathological regression
    // without flaking on shared CI runners.
    let machine_parallel = threads >= 4 && cores >= 4;
    let mut gates = Vec::new();
    if let Some(last) = probe_rows.last() {
        gates.push(Gate::full(
            "run_node: frozen session vs per-call refreeze",
            last.refreeze_ms / last.session_ms,
            5.0,
        ));
    }
    // The snapshot gates: format density is a deterministic property of the
    // byte layout (a cycle costs ~24 bytes/edge in version 1), so it gates
    // exactly everywhere; the validating-decode throughput is machine time
    // and gates at a relaxed sanity bound that still catches an accidental
    // quadratic slip in the validators.
    if let Some(last) = snapshot_rows.last() {
        gates.push(Gate::full(
            "snapshot: format density (40 bytes/edge budget)",
            40.0 / last.bytes_per_edge,
            1.0,
        ));
        gates.push(Gate::full(
            "snapshot: validating decode vs encode (50x budget)",
            50.0 * last.encode_ms / last.decode_ms,
            1.0,
        ));
    }
    // The service gate: admission bookkeeping, a clock read per ball-growth
    // step and the generation pin must cost at most 3x the bare probe loop.
    // The ratio is machine time but compares two runs of the same process on
    // the same machine, so it holds at full strength on every leg.
    gates.push(Gate::full(
        "service: per-query overhead vs raw probes (3x budget)",
        3.0 / service_overhead,
        1.0,
    ));
    // The batch gate: sharding one reader's population across the pool must
    // beat sequential single queries by 2x wherever the pool has >= 4 real
    // cores underneath (the pinned-4 CI leg included — the win is pool
    // fan-out plus amortised admission, present in quick mode too). On a
    // 1-core container the batch runs inline and only the amortisation
    // remains, so the gate relaxes to a 0.5x sanity bound there.
    gates.push(Gate::scaled(
        "service_batch: batched vs single-query qps",
        batch_speedup,
        machine_parallel,
        2.0,
        0.5,
    ));
    // The sampling gates: the draws are seeded, so the relative error of the
    // 10% estimate is a deterministic property of (family seed, plan seed)
    // and gates exactly at a 25% budget — generous against the measured
    // values (a few percent) but tight enough to catch a broken estimator or
    // a silently re-seeded stream. The wall-time speedup comes from probing
    // a tenth of the population through the same pool as the exact sweep, so
    // it holds near-10x with real cores and still well above 1.5x inline.
    let max_rel_error = sampling_rows.iter().map(|r| r.rel_error).fold(0.0f64, f64::max);
    gates.push(Gate::full(
        "sampling: node-average relative error (25% budget)",
        if max_rel_error == 0.0 { f64::INFINITY } else { 0.25 / max_rel_error },
        1.0,
    ));
    if let Some(last) = sampling_rows.last() {
        gates.push(Gate::scaled(
            "sampling: sampled vs exact sweep wall time",
            last.exact_ms / last.sampled_ms,
            machine_parallel,
            5.0,
            1.5,
        ));
    }
    // The hub gate is deterministic (fixed family seed + fixed assignment),
    // so it applies at full strength everywhere — quick mode, 1-core
    // containers, every leg of the thread matrix.
    let min_hub_ratio = hub_rows.iter().map(|r| r.edge_node_ratio).fold(f64::INFINITY, f64::min);
    gates.push(Gate::full(
        "hub: edge/node detachment on the connected pa tree",
        min_hub_ratio,
        2.0,
    ));

    println!("\nregression gates ({threads} thread(s), {cores} core(s)):");
    let mut failed = false;
    for gate in &gates {
        let status = if gate.speedup >= gate.threshold {
            "PASS"
        } else {
            failed = true;
            "FAIL"
        };
        let kind = if gate.sanity { "sanity gate" } else { "gate" };
        println!(
            "  [{status}] {:<48} {:>7.2}x ({kind} {:.2}x)",
            gate.name, gate.speedup, gate.threshold
        );
    }
    if failed {
        eprintln!("a recorded speedup block regressed below its gate");
        if check {
            return ExitCode::FAILURE;
        }
        panic!("regression gates failed (run with --check for a non-panicking exit)");
    }
    ExitCode::SUCCESS
}
