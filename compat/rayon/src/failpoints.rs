//! Test-only fault injection for the worker pool.
//!
//! Robustness claims about the pool — "a panic storm does not kill the
//! process", "the first panic in index order is the one re-thrown", "a
//! session is still usable after a poisoned run" — need a way to *make*
//! workers fail on demand. This module is that switchboard: a test arms a
//! [`Plan`] (panic and/or delay injection, counted per claimed worker
//! chunk), the pool consults it at every chunk claim, and the test disarms
//! it again when done.
//!
//! # Scoping
//!
//! Plans are **thread-local to the publishing thread** and are captured into
//! a job when the job is published. That means a test arming failpoints
//! perturbs only the parallel calls *it* issues — concurrently running tests
//! in the same process (cargo's default) are untouched, even though the
//! injected panics and delays fire on shared pool workers.
//!
//! # Example
//!
//! ```
//! use rayon::prelude::*;
//!
//! rayon::failpoints::arm(rayon::failpoints::Plan::new().delay_every(2, 10));
//! let doubled: Vec<usize> = (0..100).into_par_iter().map(|x| x * 2).collect();
//! rayon::failpoints::disarm();
//! assert_eq!(doubled[7], 14); // delays never change results
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// An injection plan: which claimed chunks panic and/or stall.
///
/// Counters are per job, starting at 1 for the first claimed chunk; a
/// setting of `0` (the default) disables that injection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plan {
    /// Panic on every `panic_every`-th claimed chunk (0 = never).
    pub panic_every: u64,
    /// Sleep on every `delay_every`-th claimed chunk (0 = never).
    pub delay_every: u64,
    /// Sleep duration for delay injection, in microseconds.
    pub delay_micros: u64,
}

impl Plan {
    /// An inert plan (no injection).
    #[must_use]
    pub fn new() -> Self {
        Plan::default()
    }

    /// Panics on every `every`-th claimed chunk.
    #[must_use]
    pub fn panic_every(mut self, every: u64) -> Self {
        self.panic_every = every;
        self
    }

    /// Sleeps `micros` microseconds on every `every`-th claimed chunk.
    #[must_use]
    pub fn delay_every(mut self, every: u64, micros: u64) -> Self {
        self.delay_every = every;
        self.delay_micros = micros;
        self
    }

    /// `true` when the plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.panic_every > 0 || self.delay_every > 0
    }
}

thread_local! {
    /// The plan armed on this thread, captured by jobs it publishes.
    static ARMED: Cell<Plan> = const { Cell::new(Plan { panic_every: 0, delay_every: 0, delay_micros: 0 }) };
}

/// Arms `plan` for every parallel call subsequently published **by this
/// thread**, until [`disarm`] (or a later `arm`) replaces it.
pub fn arm(plan: Plan) {
    ARMED.with(|cell| cell.set(plan));
}

/// Removes this thread's armed plan.
pub fn disarm() {
    ARMED.with(|cell| cell.set(Plan::default()));
}

/// Pending worker-kill tokens (see [`kill_workers`]): each is consumed by
/// one pool worker at its next job boundary.
static WORKER_KILLS: AtomicU64 = AtomicU64::new(0);

/// Arms `count` worker-kill tokens, process-wide.
///
/// Unlike a [`Plan`] panic — which unwinds *inside* a job's per-chunk
/// `catch_unwind` — a kill token makes a pool worker panic at its next **job
/// boundary**, outside any job scope, killing the thread itself. This is the
/// fault the pool supervisor exists for: the dead worker is detected and
/// respawned (see `pool::worker_respawn_count`), and the fault-injection
/// suite uses this hook to prove the pool keeps serving afterwards.
///
/// Tokens are consumed by whichever workers reach a job boundary first; on a
/// single-participant pool (no worker threads) they sit armed but unclaimed.
pub fn kill_workers(count: u64) {
    // ordering: `Relaxed` — a token counter, not a publication channel; the
    // RMW total order keeps grants and claims balanced, and no other memory
    // is synchronised through it.
    WORKER_KILLS.fetch_add(count, Ordering::Relaxed);
}

/// Claims one armed worker-kill token, if any; called by pool workers at
/// every job boundary.
fn take_worker_kill() -> bool {
    // ordering: `Relaxed` — same token counter as `kill_workers`; no other
    // memory is synchronised through it.
    let mut current = WORKER_KILLS.load(Ordering::Relaxed);
    while current > 0 {
        // ordering: `Relaxed` — CAS on the same token counter; the RMW
        // total order alone guarantees each token is claimed exactly once.
        match WORKER_KILLS.compare_exchange_weak(
            current,
            current - 1,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
    false
}

/// Panics iff a worker-kill token is armed; called by pool workers at job
/// boundaries (no locks held), so the unwind escapes every job scope and
/// reaches the worker supervisor.
pub(crate) fn maybe_kill_worker(index: usize) {
    if take_worker_kill() {
        panic!("injected worker kill (outside any job) on pool participant {index}");
    }
}

/// The failpoint state of one published job: the plan captured at publish
/// time plus a per-job chunk counter shared by every participant.
#[derive(Debug)]
pub(crate) struct JobFailpoints {
    plan: Plan,
    chunks: AtomicU64,
}

impl JobFailpoints {
    /// Captures the publishing thread's armed plan into a fresh per-job
    /// state.
    pub(crate) fn capture() -> Self {
        JobFailpoints { plan: ARMED.with(Cell::get), chunks: AtomicU64::new(0) }
    }

    /// Called by a participant at every chunk claim; sleeps and/or panics
    /// according to the captured plan. Panics raised here unwind through the
    /// pool's regular per-chunk `catch_unwind`, so they exercise exactly the
    /// path a panicking work item takes.
    pub(crate) fn before_chunk(&self) {
        if !self.plan.is_active() {
            return;
        }
        // ordering: `Relaxed` — a private event counter driving the fault
        // schedule; nothing is published through it, and the RMW total order
        // alone keeps the counts distinct across participants.
        let count = self.chunks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.delay_every > 0 && count.is_multiple_of(self.plan.delay_every) {
            std::thread::sleep(Duration::from_micros(self.plan.delay_micros));
        }
        if self.plan.panic_every > 0 && count.is_multiple_of(self.plan.panic_every) {
            panic!("injected failpoint panic (chunk claim #{count})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_default_inert_and_compose() {
        assert!(!Plan::new().is_active());
        let plan = Plan::new().panic_every(3).delay_every(2, 100);
        assert!(plan.is_active());
        assert_eq!(plan, Plan { panic_every: 3, delay_every: 2, delay_micros: 100 });
    }

    #[test]
    fn capture_snapshots_the_armed_plan() {
        arm(Plan::new().panic_every(5));
        let job = JobFailpoints::capture();
        disarm();
        assert_eq!(job.plan.panic_every, 5);
        // Disarming after capture does not defuse the captured job, while
        // new captures see the disarmed state.
        assert!(!JobFailpoints::capture().plan.is_active());
    }

    #[test]
    fn before_chunk_counts_and_panics_on_schedule() {
        let job = JobFailpoints { plan: Plan::new().panic_every(3), chunks: AtomicU64::new(0) };
        job.before_chunk();
        job.before_chunk();
        let caught = std::panic::catch_unwind(|| job.before_chunk());
        assert!(caught.is_err());
        let message = *caught
            .unwrap_err()
            .downcast::<String>()
            .expect("injected panics carry a String payload");
        assert!(message.contains("injected failpoint panic"), "{message}");
    }

    #[test]
    fn inactive_plans_never_touch_the_counter() {
        let job = JobFailpoints { plan: Plan::default(), chunks: AtomicU64::new(0) };
        for _ in 0..10 {
            job.before_chunk();
        }
        assert_eq!(job.chunks.load(Ordering::Relaxed), 0);
    }
}
