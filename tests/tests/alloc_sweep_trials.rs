//! Pins the per-trial cost of an exact ball-view sweep: a trial is an
//! identifier-table swap on a frozen-snapshot session plus the probe run, so
//! it allocates a bounded handful of buffers (the identifier table, the
//! execution's output vectors, the measure fold) and nothing per node.
//!
//! A cycle's `Graph` keeps its neighbour lists inline, so cloning it costs 2
//! allocations and the allocation count alone cannot see a trial that clones
//! the instance. The requested bytes can: such a clone adds 48 bytes per
//! node (a 40-byte neighbour slot and an 8-byte identifier) to a trial that
//! requests about 45-65. And a row that kept its base `Graph` alive through
//! the trials would hold those 48 bytes per node at the peak, next to the
//! snapshot and the trial's buffers: the live-heap high-water mark of a
//! one-trial sweep pins that the base graph is freed once it is frozen.
//!
//! The per-trial costs are the difference between a 9-trial and a 1-trial
//! sweep divided by 8, so everything a sweep pays once (build, freeze,
//! session creation) cancels out. The whole binary holds exactly this one
//! test so the counting allocator observes nothing but the measured window.

use avglocal::prelude::*;
use avglocal_integration_tests::alloc_count::{
    allocated_bytes, allocations, peak_live_bytes, reset_peak_live_bytes, CountingAllocator,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations and requested bytes of one `LargestId` cycle sweep with
/// `trials` trials.
fn sweep_cost(n: usize, trials: usize) -> (u64, u64) {
    let sweep = Sweep::new(Problem::LargestId, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 5 })
        .with_trials(trials);
    let (before, bytes_before) = (allocations(), allocated_bytes());
    let result = sweep.run().expect("largest-ID sweeps on a cycle succeed");
    let cost = (allocations() - before, allocated_bytes() - bytes_before);
    assert_eq!(result.rows[0].trials, trials);
    cost
}

/// Allocations and requested bytes per trial at size `n`: (9 trials - 1
/// trial) / 8, each the minimum over a few repetitions. Each participant of
/// the pool that claims a trial creates its session and grows its grower
/// scratch on that first trial, so one repetition can carry a few warm-up
/// allocations from the scheduling; the minimum filters that noise without
/// hiding a per-node cost, which every repetition would pay.
fn per_trial_cost(n: usize) -> (u64, u64) {
    // Warm-up: starts the worker pool so its one-time set-up is not counted.
    sweep_cost(n, 2);
    (0..3)
        .map(|_| {
            let one = sweep_cost(n, 1);
            let nine = sweep_cost(n, 9);
            (nine.0.saturating_sub(one.0) / 8, nine.1.saturating_sub(one.1) / 8)
        })
        .fold((u64::MAX, u64::MAX), |min, cost| (min.0.min(cost.0), min.1.min(cost.1)))
}

/// The live heap bytes a warmed 1-trial sweep at size `n` adds at its peak.
fn peak_live_bytes_of_one_trial(n: usize) -> u64 {
    sweep_cost(n, 1);
    let start = reset_peak_live_bytes();
    sweep_cost(n, 1);
    peak_live_bytes() - start
}

#[test]
fn sweep_trials_allocate_a_bounded_handful_independent_of_n() {
    let (small, large) = (per_trial_cost(2048), per_trial_cost(8192));
    // The steady state is under 10 allocations single-threaded; each extra
    // pool thread adds warm-up sessions and scratch whose buffers reallocate
    // a few more times per doubling of n.
    let threads = rayon::current_num_threads() as u64;
    let budget = 32 * threads;
    assert!(
        small.0 < budget && large.0 < budget,
        "a sweep trial must not allocate per node: {} allocations per trial at n = 2048, \
         {} at n = 8192 (budget {budget} on {threads} threads)",
        small.0,
        large.0
    );
    assert!(
        large.0 < small.0 + budget / 2,
        "per-trial allocations grew with n: {} at n = 2048, {} at n = 8192",
        small.0,
        large.0
    );
    // About 45 bytes per node single-threaded and up to about 65 on 4
    // threads; a per-trial `Graph` clone would add 48.
    for (n, (_, bytes)) in [(2048, small), (8192, large)] {
        assert!(
            bytes <= 80 * n as u64,
            "a sweep trial requested {bytes} bytes at n = {n}, more than 80 per node"
        );
    }
    // About 70 bytes per node on 1 to 4 threads: the larger of the freeze
    // (the base graph next to its snapshot) and the trial (the snapshot next
    // to the trial's buffers). A base graph alive through the trial would
    // add its 48 to the second.
    let n = 8192;
    let peak = peak_live_bytes_of_one_trial(n);
    assert!(
        peak < 100 * n as u64,
        "a 1-trial sweep peaked at {peak} live heap bytes at n = {n}, 100 per node or more"
    );
}
