//! Extends the zero-allocation acceptance criterion to the work-stealing
//! executor path: once a [`avglocal::runtime::FrozenExecutor`] session has
//! warmed up (pool started, per-participant grower scratch parked), a full
//! `run` must allocate only a bounded handful of per-run buffers — output
//! vectors, job bookkeeping, state slots — **never anything per probe**.
//! With per-worker scratch reuse across stolen chunks, the allocation count
//! of a steady-state run is independent of the node count.
//!
//! The whole binary holds exactly this one test so the counting allocator
//! observes nothing but the measured window.

use avglocal::algorithms::LargestId;
use avglocal::prelude::*;
use avglocal::runtime::Knowledge;
use avglocal_integration_tests::alloc_count::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_run_frozen_allocations_are_bounded_per_run() {
    let n = 2048usize;
    let graph = topology_with_assignment(&Topology::Cycle, n, &IdAssignment::Identity)
        .expect("a 2048-cycle is a valid instance");
    let session = FrozenExecutor::new(&graph);

    // Warm-up: starts the worker pool (thread stacks, injector) and parks
    // one fully grown scratch per participant in the session's pool.
    let warm = session.run(&LargestId, Knowledge::none()).expect("largest-ID terminates");
    assert_eq!(warm.node_count(), n);

    // Steady state: measure a handful of further runs. Each may allocate
    // per-run buffers (outputs, radii, the vector of compact per-node slots,
    // the job's state slots) but nothing proportional to the number of
    // probes — the per-participant scratch comes warm out of the session's
    // pool and is reused across every stolen chunk.
    const RUNS: u64 = 4;
    let before = allocations();
    for _ in 0..RUNS {
        let run = session.run(&LargestId, Knowledge::none()).expect("largest-ID terminates");
        assert_eq!(run.node_count(), n);
    }
    let allocations = allocations() - before;
    let per_run = allocations / RUNS;

    // `n` probes per run: a per-probe allocation would cost thousands here.
    // The observed steady state is < 10 per run single-threaded and grows
    // only with the pool size (state slots), never with `n`.
    let budget = 64;
    assert!(
        per_run < budget,
        "steady-state runs must not allocate per probe: \
         {per_run} allocations per run over {n} nodes (budget {budget})"
    );
}
