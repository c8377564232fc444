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
//!
//! What a sweep keeps is pinned at n = 65,536, where the `LargestId` winner
//! decides at radius 32,768. Every trial's measure set lives until the row
//! folds them, and a distribution stored up to its largest radius would cost
//! 4 bytes per node per trial. So the finished `SweepResult` must hold under
//! a byte per node, and a 16-trial sweep must peak within 4 bytes per node
//! of an 8-trial sweep. The second check runs on pools of 1 or 2 threads
//! only: on 4 threads up to four trials are in flight, and how many of them
//! meet at the peak depends on scheduling (one run on a 2-vCPU host read the
//! 16-trial sweep 25 bytes per node above the 8-trial one, with nothing
//! retained per trial).

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

/// The live heap of one `LargestId` cycle sweep with `trials` trials: the
/// bytes its `SweepResult` still holds when `run` returns, and the peak the
/// sweep adds above the bytes live before it.
fn live_heap_of_sweep(n: usize, trials: usize) -> (u64, u64) {
    let sweep = Sweep::new(Problem::LargestId, vec![n])
        .with_policy(AssignmentPolicy::Random { base_seed: 5 })
        .with_trials(trials);
    let start = reset_peak_live_bytes();
    let result = sweep.run().expect("largest-ID sweeps on a cycle succeed");
    let peak = peak_live_bytes() - start;
    let held = reset_peak_live_bytes().saturating_sub(start);
    assert_eq!(result.rows[0].trials, trials);
    (held, peak)
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
    sweep_cost(n, 1);
    let (_, peak) = live_heap_of_sweep(n, 1);
    assert!(
        peak < 100 * n as u64,
        "a 1-trial sweep peaked at {peak} live heap bytes at n = {n}, 100 per node or more"
    );
    // The pooled distribution keeps one entry per distinct radius, about
    // 26 KB here; one slot per radius up to the winner's would be 262 KB.
    let n = 65_536;
    sweep_cost(n, 2);
    let (held, sixteen) = live_heap_of_sweep(n, 16);
    assert!(
        held < n as u64,
        "a finished 16-trial sweep holds {held} live heap bytes at n = {n}, a byte per node or more"
    );
    // Within a byte per node; a dense per-trial distribution adds 32. On 2
    // threads the peak falls in one of two modes about 8.5 bytes per node
    // apart: how the participants' trials line up decides which of their
    // `O(n)` buffers are live at once. The minimum over a few repetitions
    // filters that, and a per-trial retention would show in every one.
    if threads <= 2 {
        let (sixteen, eight) = (0..5)
            .map(|_| (live_heap_of_sweep(n, 16).1, live_heap_of_sweep(n, 8).1))
            .fold((sixteen, u64::MAX), |min, peak| (min.0.min(peak.0), min.1.min(peak.1)));
        assert!(
            sixteen <= eight + 4 * n as u64,
            "a 16-trial sweep peaked at {sixteen} live heap bytes at n = {n}, an 8-trial one at \
             {eight}: more than 4 bytes per node apart on {threads} threads"
        );
    }
}
