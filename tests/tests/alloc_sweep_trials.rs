//! Pins the per-trial allocation cost of an exact ball-view sweep: a trial
//! is an identifier-table swap on a frozen-snapshot session plus the probe
//! run, so it allocates a bounded handful of buffers (the identifier table,
//! the execution's output vectors, the measure fold) and nothing per node.
//! A trial that cloned the instance's `Graph` would allocate at least one
//! adjacency `Vec` per node.
//!
//! The per-trial count is the difference between a 9-trial and a 1-trial
//! sweep divided by 8, so everything a sweep pays once (build, freeze,
//! session creation) cancels out. The whole binary holds exactly this one
//! test so the counting allocator observes nothing but the measured window.

use avglocal::prelude::*;
use avglocal_integration_tests::alloc_count::{allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations of one `LargestId` cycle sweep with `trials` trials.
fn sweep_allocations(n: usize, trials: usize) -> u64 {
    let sweep = Sweep::new(Problem::LargestId, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 5 })
        .with_trials(trials);
    let before = allocations();
    let result = sweep.run().expect("largest-ID sweeps on a cycle succeed");
    let allocations = allocations() - before;
    assert_eq!(result.rows[0].trials, trials);
    allocations
}

/// Allocations per trial at size `n`: (9 trials - 1 trial) / 8, the minimum
/// over a few repetitions. Each participant of the pool that claims a trial
/// creates its session and grows its grower scratch on that first trial, so
/// one repetition can carry a few warm-up allocations from the scheduling;
/// the minimum filters that noise without hiding a per-node cost, which
/// every repetition would pay.
fn per_trial_allocations(n: usize) -> u64 {
    // Warm-up: starts the worker pool so its one-time set-up is not counted.
    sweep_allocations(n, 2);
    (0..3)
        .map(|_| {
            let one = sweep_allocations(n, 1);
            let nine = sweep_allocations(n, 9);
            nine.saturating_sub(one) / 8
        })
        .min()
        .expect("three repetitions")
}

#[test]
fn sweep_trials_allocate_a_bounded_handful_independent_of_n() {
    let (small, large) = (per_trial_allocations(2048), per_trial_allocations(8192));
    // A trial that cloned the graph would pay at least n allocations: 2048
    // and 8192 here. The steady state is under 10 single-threaded; each
    // extra pool thread adds warm-up sessions and scratch whose buffers
    // reallocate a few more times per doubling of n.
    let threads = rayon::current_num_threads() as u64;
    let budget = 32 * threads;
    assert!(
        small < budget && large < budget,
        "a sweep trial must not allocate per node: {small} allocations per trial at n = 2048, \
         {large} at n = 8192 (budget {budget} on {threads} threads)"
    );
    assert!(
        large < small + budget / 2,
        "per-trial allocations grew with n: {small} at n = 2048, {large} at n = 8192"
    );
}
