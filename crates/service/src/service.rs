//! The long-lived radius-query service: epoch-published generations,
//! bounded admission, deadlines, and retry.
//!
//! # Generation lifecycle
//!
//! The service serves every query from an immutable [`Generation`] — an
//! epoch number plus a [`FrozenExecutor`] session over one [`CsrGraph`]
//! snapshot. Publication is epoch-based:
//!
//! 1. a candidate snapshot is built **off to the side** (the service keeps
//!    answering on the current generation throughout);
//! 2. a bad candidate is **rolled back**, never published: the snapshot
//!    decoder rejects invalid bytes ([`RadiusQueryService::publish_bytes`],
//!    [`ServiceError::PublishRejected`]), and a build that panics is caught
//!    ([`RadiusQueryService::publish_with`],
//!    [`ServiceError::PublishPanicked`]). A [`CsrGraph`] in memory is valid
//!    by construction and is not checked again;
//! 3. an accepted candidate is installed by atomically swapping the shared
//!    `Arc<Generation>` under a mutex, bumping the epoch.
//!
//! Readers **pin** a generation (clone the `Arc`) on admission and finish
//! their probe on it even if a swap lands mid-probe: a completed answer is
//! always internally consistent with exactly one published generation, and
//! carries that generation's epoch so callers can tell which.
//!
//! # Request lifecycle
//!
//! Admission is bounded: at most `max_in_flight` requests hold admission at
//! once, and the excess is shed immediately with
//! [`ServiceError::Overloaded`] — typed backpressure instead of an unbounded
//! queue. A batched query ([`RadiusQueryService::query_batch`]) counts as
//! **one** admission slot regardless of how many nodes it shards across the
//! pool. Admitted requests carry a deadline budget in [`Clock`] ticks,
//! enforced by cooperative cancellation polled once per ball-growth step
//! ([`ServiceError::DeadlineExceeded`]): a finite budget reads the clock
//! once when the probe starts and once per step. The unbounded budget
//! [`u64::MAX`] (the default) is no deadline, and its probes read no clock.
//!
//! Single queries ([`RadiusQueryService::query_with`]) and batches share one
//! path driven by [`QueryOptions`]: the deadline budget plus a
//! [`Consistency`] mode. Pinned consistency (the default) serves from the
//! generation pinned at admission; latest consistency re-probes with bounded
//! exponential backoff when a swap invalidated the pinned generation
//! mid-probe, giving up with [`ServiceError::StaleGeneration`].

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use avglocal_graph::{CsrGraph, NodeId};
use avglocal_runtime::{BallAlgorithm, FrozenExecutor, Knowledge, ProbeOptions, RuntimeError};

use crate::batch::{Consistency, QueryOptions};
use crate::clock::Clock;
use crate::config::ServiceConfig;
use crate::error::{Result, ServiceError};

/// One published snapshot generation: an epoch plus a frozen session.
#[derive(Debug)]
pub struct Generation {
    epoch: u64,
    session: FrozenExecutor,
}

impl Generation {
    /// The generation's epoch; strictly increasing across publishes.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen session queries on this generation run against.
    #[must_use]
    pub fn session(&self) -> &FrozenExecutor {
        &self.session
    }

    /// Number of nodes in this generation's snapshot.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.session.node_count()
    }
}

/// A completed answer: the algorithm's output, the ball radius it needed,
/// and the epoch of the generation it was computed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryReply<O> {
    /// The algorithm's output for the queried node.
    pub output: O,
    /// The ball radius at which the algorithm decided.
    pub radius: usize,
    /// Epoch of the generation the answer is consistent with.
    pub epoch: u64,
}

/// Monotone counters describing the service's lifetime, snapshotted by
/// [`RadiusQueryService::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests that passed admission.
    pub admitted: u64,
    /// Requests shed at admission ([`ServiceError::Overloaded`]).
    pub shed: u64,
    /// Probes cancelled by deadline expiry.
    pub deadline_expired: u64,
    /// Latest-generation queries that exhausted their retries.
    pub stale: u64,
    /// Probe re-runs performed by latest-generation queries.
    pub retries: u64,
    /// Generations successfully published (the initial one included).
    pub publishes: u64,
    /// Candidate snapshot bytes the decoder rejected
    /// ([`RadiusQueryService::publish_bytes`]).
    pub publish_rejected: u64,
    /// Candidate generations whose build panicked.
    pub publish_panicked: u64,
    /// Batched queries admitted (each holds a single admission slot).
    pub batches: u64,
    /// Individual node entries probed by batched queries, retries included.
    pub batch_entries: u64,
}

/// Lifetime counters, all monotone; see `StatsSnapshot` for meanings.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    stale: AtomicU64,
    retries: AtomicU64,
    publishes: AtomicU64,
    publish_rejected: AtomicU64,
    publish_panicked: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batch_entries: AtomicU64,
}

/// A long-lived, failure-tolerant in-process radius-query service over
/// epoch-published [`FrozenExecutor`] generations.
///
/// See the crate-level docs for the generation and request lifecycles. The
/// service is `Sync`: readers query through `&self` from any
/// number of threads while publishers swap generations concurrently.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use avglocal_graph::{generators, NodeId};
/// use avglocal_runtime::{examples::NaiveLargestId, Knowledge};
/// use avglocal_service::{QueryOptions, RadiusQueryService, ServiceConfig, TestClock};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let csr = generators::cycle(16)?.freeze();
/// let service = RadiusQueryService::new(
///     NaiveLargestId,
///     Knowledge::none(),
///     csr,
///     Arc::new(TestClock::new()),
///     ServiceConfig::default(),
/// );
/// let reply = service.query_with(NodeId::new(3), QueryOptions::new())?;
/// assert_eq!(reply.epoch, 1);
/// # Ok(())
/// # }
/// ```
pub struct RadiusQueryService<A: BallAlgorithm> {
    algorithm: A,
    knowledge: Knowledge,
    clock: Arc<dyn Clock>,
    config: ServiceConfig,
    /// The published generation; swapped atomically under the lock, pinned
    /// by readers via `Arc` clone. Nothing run under the lock can panic:
    /// `pin` only clones the `Arc`, and `install` adds one to a `u64` epoch
    /// and stores an already built `Arc<Generation>` (allocation failure
    /// aborts, and dropping the old generation runs no panicking `Drop`). So
    /// the mutex is never poisoned; and since the one update is a single
    /// store of a whole generation, the guarded value is valid at every
    /// step. Both lockers take the guard out of a poison error without
    /// changing behaviour.
    current: Mutex<Arc<Generation>>,
    /// Requests currently holding admission.
    in_flight: AtomicUsize,
    counters: Counters,
}

impl<A: BallAlgorithm> fmt::Debug for RadiusQueryService<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RadiusQueryService")
            .field("epoch", &self.current_epoch())
            .field("config", &self.config)
            .field("in_flight", &self.in_flight.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII admission slot: releases the in-flight count even when the probe
/// path unwinds, so a panicking algorithm cannot leak capacity.
pub(crate) struct Admission<'a> {
    in_flight: &'a AtomicUsize,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<A: BallAlgorithm> RadiusQueryService<A> {
    /// Starts a service on `csr` as generation epoch 1.
    ///
    /// The initial snapshot is installed as given (the caller built it
    /// in-process); snapshots from untrusted bytes go through
    /// [`RadiusQueryService::publish_bytes`] instead.
    #[must_use]
    pub fn new(
        algorithm: A,
        knowledge: Knowledge,
        csr: CsrGraph,
        clock: Arc<dyn Clock>,
        config: ServiceConfig,
    ) -> Self {
        let session = FrozenExecutor::from_csr(csr);
        let service = RadiusQueryService {
            algorithm,
            knowledge,
            clock,
            config,
            current: Mutex::new(Arc::new(Generation { epoch: 1, session })),
            in_flight: AtomicUsize::new(0),
            counters: Counters::default(),
        };
        service.counters.publishes.fetch_add(1, Ordering::Relaxed);
        service
    }

    /// The currently published generation's epoch.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.pin().epoch
    }

    /// Pins the currently published generation: the returned `Arc` keeps it
    /// alive (and answerable-against) across any number of later swaps.
    #[must_use]
    pub fn pin(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A snapshot of the service's lifetime counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            deadline_expired: self.counters.deadline_expired.load(Ordering::Relaxed),
            stale: self.counters.stale.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            publishes: self.counters.publishes.load(Ordering::Relaxed),
            publish_rejected: self.counters.publish_rejected.load(Ordering::Relaxed),
            publish_panicked: self.counters.publish_panicked.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            batch_entries: self.counters.batch_entries.load(Ordering::Relaxed),
        }
    }

    /// The cancellation hook that enforces `budget` from now, or `None` for
    /// [`u64::MAX`], which means no deadline and reads no clock. A finite
    /// budget reads the start tick here and one tick per poll of the hook.
    pub(crate) fn deadline(&self, budget: u64) -> Option<impl Fn(usize) -> bool + Sync + '_> {
        if budget == u64::MAX {
            return None;
        }
        let clock = self.clock.as_ref();
        let start = clock.now();
        Some(move |_radius: usize| clock.now().saturating_sub(start) >= budget)
    }

    /// The algorithm every probe runs.
    pub(crate) fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The a-priori knowledge handed to every probe.
    pub(crate) fn knowledge(&self) -> Knowledge {
        self.knowledge
    }

    /// The lifetime counters, for probe paths outside this module.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Queries `node`: one admission slot, then one probe per consistency
    /// attempt, each under the deadline budget of `options` (none for
    /// [`u64::MAX`], the default).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when shed at admission,
    /// [`ServiceError::DeadlineExceeded`] when the budget expires mid-probe,
    /// [`ServiceError::Probe`] for algorithm/runtime failures (an
    /// out-of-bounds node included), and — under [`Consistency::Latest`] —
    /// [`ServiceError::StaleGeneration`] when every allowed attempt was
    /// invalidated by a swap. Each attempt gets the full budget.
    pub fn query_with(&self, node: NodeId, options: QueryOptions) -> Result<QueryReply<A::Output>> {
        let _slot = self.admit()?;
        self.with_consistency(options.consistency, |generation| {
            self.probe(generation, node, options.deadline)
        })
    }

    /// The one consistency loop shared by single and batched queries: pin,
    /// attempt, and — under latest consistency — re-attempt with bounded
    /// exponential backoff while swaps invalidate the pinned generation, at
    /// most `min(request's retry_limit, MAX_RETRIES)` times.
    ///
    /// Admission is the caller's job (a batch holds one slot across every
    /// attempt).
    pub(crate) fn with_consistency<T>(
        &self,
        consistency: Consistency,
        mut attempt: impl FnMut(&Arc<Generation>) -> Result<T>,
    ) -> Result<T> {
        let retry_limit = match consistency {
            Consistency::Pinned => return attempt(&self.pin()),
            Consistency::Latest { retry_limit } => retry_limit.min(MAX_RETRIES),
        };
        let mut tries: u32 = 0;
        loop {
            let generation = self.pin();
            let reply = attempt(&generation)?;
            if self.current_epoch() == generation.epoch {
                return Ok(reply);
            }
            if tries >= retry_limit {
                self.counters.stale.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::StaleGeneration { retries: tries });
            }
            tries += 1;
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            self.clock.sleep(backoff(tries));
        }
    }

    /// Claims an admission slot or sheds the request.
    pub(crate) fn admit(&self) -> Result<Admission<'_>> {
        let before = self.in_flight.fetch_add(1, Ordering::Relaxed);
        if before >= self.config.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                in_flight: before,
                limit: self.config.max_in_flight,
            });
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Admission { in_flight: &self.in_flight })
    }

    /// One probe attempt on a pinned generation, under a deadline budget.
    fn probe(
        &self,
        generation: &Generation,
        node: NodeId,
        budget: u64,
    ) -> Result<QueryReply<A::Output>> {
        let mut deadline = self.deadline(budget);
        let options = match &mut deadline {
            Some(expired) => ProbeOptions::new().with_cancel(expired),
            None => ProbeOptions::new(),
        };
        let result =
            generation.session.run_node_with(node, &self.algorithm, self.knowledge, options);
        match result {
            Ok((output, radius)) => Ok(QueryReply { output, radius, epoch: generation.epoch }),
            Err(RuntimeError::Cancelled { radius, .. }) => {
                self.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::DeadlineExceeded { budget, radius })
            }
            Err(e) => Err(ServiceError::Probe(e)),
        }
    }

    /// Publishes a candidate built by `build`, catching a panicking build.
    ///
    /// The build runs off to the side — queries keep being served from the
    /// current generation — and a build that panics is rolled back without
    /// ever being visible to a reader. A build that returns is installed by
    /// [`RadiusQueryService::publish_csr`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::PublishPanicked`] when `build` panics; the previously
    /// published generation stays current.
    pub fn publish_with(&self, build: impl FnOnce() -> CsrGraph) -> Result<u64> {
        match catch_unwind(AssertUnwindSafe(build)) {
            Ok(csr) => self.publish_csr(csr),
            Err(payload) => {
                self.counters.publish_panicked.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::PublishPanicked { reason: panic_reason(&*payload) })
            }
        }
    }

    /// Installs `csr` as the next generation and returns its epoch.
    ///
    /// A [`CsrGraph`] is valid by construction — frozen from a simple graph
    /// or decoded from checked bytes — so nothing is checked here. Only
    /// [`RadiusQueryService::publish_bytes`], which decodes untrusted bytes,
    /// can reject a candidate, and only [`RadiusQueryService::publish_with`]
    /// can roll back a build that panics.
    ///
    /// # Errors
    ///
    /// None: the `Result` matches the other publish paths.
    pub fn publish_csr(&self, csr: CsrGraph) -> Result<u64> {
        Ok(self.install(csr))
    }

    /// Decodes untrusted snapshot bytes and, on success, installs them as
    /// the next generation.
    ///
    /// # Errors
    ///
    /// [`ServiceError::PublishRejected`] carrying the codec's typed
    /// rejection; the current generation is untouched.
    pub fn publish_bytes(&self, bytes: &[u8]) -> Result<u64> {
        match CsrGraph::from_bytes(bytes) {
            Ok(csr) => Ok(self.install(csr)),
            Err(source) => {
                self.counters.publish_rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::PublishRejected { source })
            }
        }
    }

    /// Swaps a snapshot in as the next generation.
    fn install(&self, csr: CsrGraph) -> u64 {
        let session = FrozenExecutor::from_csr(csr);
        let mut current = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = current.epoch + 1;
        *current = Arc::new(Generation { epoch, session });
        self.counters.publishes.fetch_add(1, Ordering::Relaxed);
        epoch
    }
}

/// How many times a latest-consistency request re-probes after losing its
/// pinned generation to a swap, at most, whatever its `retry_limit` asks.
const MAX_RETRIES: u32 = 3;

/// The backoff before retry `retry` (1-based): `2^(retry − 1)` ticks,
/// saturating at [`u64::MAX`] instead of dropping bits, so it never backs off
/// for 0 ticks however many retries a request allows.
fn backoff(retry: u32) -> u64 {
    2u64.checked_pow(retry - 1).unwrap_or(u64::MAX)
}

/// Best-effort extraction of a panic payload's message.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryRequest;
    use crate::clock::TestClock;
    use avglocal_graph::{generators, GraphError, IdAssignment};
    use avglocal_runtime::examples::NaiveLargestId;
    use avglocal_runtime::{FrozenExecutor, Scheduling};
    use std::sync::Weak;

    fn service_on_cycle(n: usize, config: ServiceConfig) -> RadiusQueryService<NaiveLargestId> {
        RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            generators::cycle(n).unwrap().freeze(),
            Arc::new(TestClock::new()),
            config,
        )
    }

    #[test]
    fn answers_match_the_sequential_reference() {
        let csr = generators::grid(4, 5).unwrap().freeze();
        let reference = FrozenExecutor::from_csr(csr.clone())
            .with_scheduling(Scheduling::Sequential)
            .run(&NaiveLargestId, Knowledge::none())
            .unwrap();
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            csr,
            Arc::new(TestClock::new()),
            ServiceConfig::default(),
        );
        for v in (0..20).map(NodeId::new) {
            let reply = service.query_with(v, QueryOptions::new()).unwrap();
            assert_eq!(reply.output, *reference.output(v));
            assert_eq!(reply.radius, reference.radius(v));
            assert_eq!(reply.epoch, 1);
        }
    }

    #[test]
    fn publish_bumps_the_epoch_and_serves_the_new_snapshot() {
        let service = service_on_cycle(8, ServiceConfig::default());
        assert_eq!(service.current_epoch(), 1);
        let epoch = service.publish_csr(generators::cycle(12).unwrap().freeze()).unwrap();
        assert_eq!(epoch, 2);
        let reply = service.query_with(NodeId::new(10), QueryOptions::new()).unwrap();
        assert_eq!(reply.epoch, 2);
        assert_eq!(service.stats().publishes, 2);
    }

    #[test]
    fn pinned_generation_survives_swaps() {
        let service = service_on_cycle(8, ServiceConfig::default());
        let pinned = service.pin();
        service.publish_csr(generators::cycle(30).unwrap().freeze()).unwrap();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.node_count(), 8);
        assert_eq!(service.current_epoch(), 2);
    }

    #[test]
    fn panicking_build_is_rolled_back() {
        let service = service_on_cycle(8, ServiceConfig::default());
        let err = service.publish_with(|| panic!("injected build panic")).unwrap_err();
        assert!(matches!(err, ServiceError::PublishPanicked { .. }), "{err}");
        assert!(err.to_string().contains("injected build panic"));
        assert_eq!(service.current_epoch(), 1);
        assert_eq!(service.stats().publish_panicked, 1);
        // The service still answers on the rolled-back-to generation.
        assert_eq!(service.query_with(NodeId::new(0), QueryOptions::new()).unwrap().epoch, 1);
    }

    #[test]
    fn corrupt_bytes_are_rejected_typed_and_rolled_back() {
        let service = service_on_cycle(8, ServiceConfig::default());
        let mut bytes = generators::cycle(12).unwrap().freeze().to_bytes();
        bytes[30] ^= 0x40;
        let err = service.publish_bytes(&bytes).unwrap_err();
        assert!(matches!(err, ServiceError::PublishRejected { .. }), "{err}");
        assert_eq!(service.current_epoch(), 1);
        assert_eq!(service.stats().publish_rejected, 1);
    }

    #[test]
    fn admission_bound_sheds_typed() {
        let service = service_on_cycle(8, ServiceConfig { max_in_flight: 0 });
        let err = service.query_with(NodeId::new(0), QueryOptions::new()).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { limit: 0, .. }), "{err}");
        assert_eq!(service.stats().shed, 1);
        assert_eq!(service.stats().admitted, 0);
    }

    #[test]
    fn shedding_releases_no_capacity_it_never_held() {
        // A shed request must leave in_flight at zero, so later requests
        // are admitted again once load drops.
        let service = service_on_cycle(8, ServiceConfig { max_in_flight: 1 });
        assert!(service.query_with(NodeId::new(0), QueryOptions::new()).is_ok());
        assert!(service.query_with(NodeId::new(1), QueryOptions::new()).is_ok());
        assert_eq!(service.stats().shed, 0);
    }

    #[test]
    fn expired_deadline_is_typed_and_counts() {
        // An autoticking clock ages the query one tick per growth step; a
        // zero budget expires at radius 0, before any growth.
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            generators::cycle(64).unwrap().freeze(),
            Arc::new(TestClock::with_autotick(1)),
            ServiceConfig::default(),
        );
        let err =
            service.query_with(NodeId::new(0), QueryOptions::new().with_deadline(0)).unwrap_err();
        assert!(matches!(err, ServiceError::DeadlineExceeded { budget: 0, radius: 0 }), "{err}");
        assert_eq!(service.stats().deadline_expired, 1);
        // A generous budget completes.
        let reply = service
            .query_with(NodeId::new(0), QueryOptions::new().with_deadline(u64::MAX))
            .unwrap();
        assert_eq!(reply.epoch, 1);
    }

    /// The clock reads `request` makes, counted on a clock that ages one
    /// tick per read: the ticks between the caller's own reads before and
    /// after, minus the read after.
    fn reads_during<T>(clock: &TestClock, request: impl FnOnce() -> T) -> (u64, T) {
        let before = clock.now();
        let out = request();
        (clock.now() - before - 1, out)
    }

    #[test]
    fn only_a_finite_budget_reads_the_clock() {
        let mut g = generators::cycle(32).unwrap();
        IdAssignment::Shuffled { seed: 6 }.apply(&mut g).unwrap();
        let clock = Arc::new(TestClock::with_autotick(1));
        let service = RadiusQueryService::new(
            NaiveLargestId,
            Knowledge::none(),
            g.freeze(),
            clock.clone(),
            ServiceConfig::default(),
        );
        let nodes: Vec<NodeId> = [3, 17, 0, 29, 11].map(NodeId::new).to_vec();
        assert_eq!(QueryOptions::new(), QueryOptions::new().with_deadline(u64::MAX));
        for options in [QueryOptions::new(), QueryOptions::new().with_deadline(1_000_000_000)] {
            let finite = options.deadline != u64::MAX;
            for &node in &nodes {
                let (reads, reply) = reads_during(&clock, || service.query_with(node, options));
                // One start read, then one per growth step at radii 0..=r.
                let expected = if finite { reply.unwrap().radius as u64 + 2 } else { 0 };
                assert_eq!(reads, expected, "{options:?}, node {node:?}");
            }
            let request = QueryRequest::nodes(nodes.clone(), options);
            let (reads, reply) = reads_during(&clock, || service.query_batch(&request));
            let radii = reply.unwrap().radii().unwrap();
            let expected =
                if finite { 1 + radii.iter().map(|&r| r as u64 + 1).sum::<u64>() } else { 0 };
            assert_eq!(reads, expected, "{options:?}, batch of {radii:?}");
        }
    }

    #[test]
    fn backoff_doubles_per_retry_and_saturates() {
        assert_eq!(backoff(1), 1);
        assert_eq!(backoff(3), 4);
        assert_eq!(backoff(64), 1 << 63);
        assert_eq!(backoff(65), u64::MAX);
        for retry in 1..=255 {
            assert_ne!(backoff(retry), 0, "retry {retry}");
        }
    }

    /// A clock on which every attempt goes stale: each read publishes a new
    /// generation. `sleep` only sums the ticks the backoff asks for.
    #[derive(Debug)]
    struct SwappingClock(Weak<RadiusQueryService<NaiveLargestId>>, Arc<Mutex<u64>>);

    impl Clock for SwappingClock {
        fn now(&self) -> u64 {
            let service = self.0.upgrade().unwrap();
            service.publish_csr(generators::cycle(16).unwrap().freeze()).unwrap();
            0
        }

        fn sleep(&self, ticks: u64) {
            *self.1.lock().unwrap() += ticks;
        }
    }

    #[test]
    fn the_configured_retry_limit_caps_every_request() {
        // The service allows at most 3 retries, backing off 1 + 2 + 4 ticks:
        // a request asking for more is capped, one asking for fewer is not,
        // and one asking for none makes a single attempt and sleeps not at
        // all.
        for (asked, retries, ticks) in [(100, 3, 7), (1, 1, 1), (0, 0, 0)] {
            let latest = QueryOptions::new()
                .with_deadline(1_000)
                .with_consistency(Consistency::Latest { retry_limit: asked });
            for batch in [false, true] {
                let (slept, config) = (Arc::new(Mutex::new(0)), ServiceConfig::default());
                let service = Arc::new_cyclic(|weak| {
                    let clock = Arc::new(SwappingClock(weak.clone(), slept.clone()));
                    let csr = generators::cycle(16).unwrap().freeze();
                    RadiusQueryService::new(NaiveLargestId, Knowledge::none(), csr, clock, config)
                });
                let err = if batch {
                    service.query_batch(&QueryRequest::nodes(vec![NodeId::new(3)], latest)).err()
                } else {
                    service.query_with(NodeId::new(3), latest).err()
                };
                let Some(ServiceError::StaleGeneration { retries: got }) = err else {
                    panic!("asked for {asked}, batch {batch}: {err:?}");
                };
                let got = (got, *slept.lock().unwrap());
                assert_eq!(got, (retries, ticks), "asked for {asked}, batch {batch}");
            }
        }
    }

    #[test]
    fn out_of_bounds_node_is_a_typed_probe_error() {
        let service = service_on_cycle(8, ServiceConfig::default());
        let err = service.query_with(NodeId::new(8), QueryOptions::new()).unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Probe(RuntimeError::Graph(GraphError::NodeOutOfBounds {
                    node_count: 8,
                    ..
                }))
            ),
            "{err}"
        );
    }

    #[test]
    fn query_latest_returns_current_epoch_answers() {
        let service = service_on_cycle(16, ServiceConfig::default());
        let latest = QueryOptions::new().with_consistency(Consistency::Latest { retry_limit: 2 });
        let reply = service.query_with(NodeId::new(3), latest).unwrap();
        assert_eq!(reply.epoch, 1);
        service.publish_csr(generators::cycle(16).unwrap().freeze()).unwrap();
        let reply = service.query_with(NodeId::new(3), latest).unwrap();
        assert_eq!(reply.epoch, 2);
    }
}
