//! In-tree stand-in for the subset of the
//! [`rayon`](https://crates.io/crates/rayon) crate this workspace uses.
//!
//! The build environment has no access to a crate registry, so the workspace
//! vendors the data-parallel surface its executors need:
//! `into_par_iter().map(..).collect()` / [`ParallelIterator::map_init`] over
//! ranges and vectors, plus [`join`].
//!
//! Unlike the first-generation shim — which spawned fresh
//! `std::thread::scope` threads on every call and split the input into
//! static contiguous chunks — this version executes on a **persistent,
//! lazily initialised global worker pool** with **dynamic chunk
//! distribution**: parallel calls publish a job with an atomic chunk cursor,
//! idle participants steal the remaining chunks, and results land in
//! pre-allocated index-addressed slots. Outputs are therefore always in
//! input order — parallelism never changes an answer — while a single
//! expensive item no longer serialises the whole static chunk behind it (see
//! [`pool`] for the architecture). Every call, [`join`] included, runs as
//! the same kind of job: a chunk job over an index space.
//!
//! The pool size is, in order of precedence: the
//! [`ThreadPoolBuilder::build_global`] request, the `AVG_LOCAL_THREADS`
//! environment variable, or the machine's available parallelism. A pool of
//! size 1 runs every call inline on the caller, which keeps single-core and
//! `AVG_LOCAL_THREADS=1` runs allocation- and thread-free — the reference
//! behaviour determinism tests compare against. Nested parallel calls share
//! the same pool and injector (no extra threads), and the nesting caller
//! always participates in its own job, so nesting cannot deadlock.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod failpoints;
pub mod pool;
mod sync;

use std::ops::Range;
use std::sync::Mutex;

/// The traits to import to use parallel iterators.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

/// The number of participants (worker threads plus the calling thread) the
/// global pool executes with, initialising the pool on first use.
#[must_use]
pub fn current_num_threads() -> usize {
    pool::num_threads()
}

/// Error returned when the global pool was already initialised with a
/// different size than the builder requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError {
    /// The size the already-running global pool was built with.
    pub active_threads: usize,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already initialised with {} threads", self.active_threads)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global pool, mirroring rayon's
/// `ThreadPoolBuilder::new().num_threads(n).build_global()` surface so
/// benches and CI can pin worker counts programmatically (the
/// `AVG_LOCAL_THREADS` environment variable is the non-programmatic route).
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with no explicit thread count.
    #[must_use]
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Requests a pool of exactly `num_threads` participants (0 keeps the
    /// automatic choice, like upstream rayon).
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Installs the request for the global pool.
    ///
    /// # Errors
    ///
    /// Returns [`ThreadPoolBuildError`] when the global pool has already
    /// been initialised (by an earlier parallel call) with a different size.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        match self.num_threads {
            None | Some(0) => Ok(()),
            Some(threads) => pool::request_threads(threads)
                .map_err(|active_threads| ThreadPoolBuildError { active_threads }),
        }
    }
}

/// Runs the two closures, in parallel when a pool worker is free to take
/// one of them, and returns both results.
///
/// This is a two-item chunk job: item 0 runs `a` and item 1 runs `b`. With
/// two or more participants both closures run to completion, either
/// participant may run either one, and a panic in `a` is re-thrown only
/// after `b` has finished (it wins over a panic in `b`, by the chunk job's
/// smallest-index rule). With one participant `join` runs `(a(), b())`
/// inline.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    pool::join_on(pool::shared(), a, b)
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// The type of the items.
    type Item: Send;
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// A parallel iterator: a pipeline that can be executed across the pool.
pub trait ParallelIterator: Sized {
    /// The type of the items.
    type Item: Send;

    /// Drives the pipeline on the pool with a per-participant `state`
    /// threaded through `f` — the engine hook every adapter reduces to.
    /// Results are returned in input order.
    fn apply_with_state<S, R, G, F>(self, init: G, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) -> R + Sync;

    /// Maps every item through `f` (applied in parallel when driven).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Maps every item through `f`, handing it a mutable state created by
    /// `init` once per pool participant and reused across all chunks that
    /// participant claims — rayon's `map_init`. This is how executors keep
    /// per-worker scratch buffers warm across stolen chunks.
    fn map_init<S, R, G, F>(self, init: G, f: F) -> MapInit<Self, G, F>
    where
        S: Send,
        R: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, Self::Item) -> R + Sync,
    {
        MapInit { base: self, init, f }
    }

    /// Executes the pipeline and returns the items in input order.
    fn drive(self) -> Vec<Self::Item> {
        self.apply_with_state(|| (), |_, item| item)
    }

    /// Executes the pipeline and collects the items.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Executes the pipeline for its effects.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _: Vec<()> = self.apply_with_state(|| (), |_, item| f(item));
    }
}

/// Parallel iterator over an already-materialised list of items.
#[derive(Debug)]
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn apply_with_state<S, R, G, F>(self, init: G, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        // The cursor claims each index once, so each item is taken once;
        // on a panic, the items no participant took drop with their slots.
        let slots: Vec<Mutex<Option<T>>> =
            self.items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        pool::run_chunked(slots.len(), init, |state, index| {
            f(state, pool::take_slot(&slots[index]))
        })
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

/// Parallel iterator over a contiguous index range — drives the pool's chunk
/// cursor directly, with no materialised item buffer.
#[derive(Debug)]
pub struct RangeIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn apply_with_state<S, R, G, F>(self, init: G, f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        let start = self.range.start;
        let len = self.range.len();
        pool::run_chunked(len, init, |state, index| f(state, start + index))
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeIter;
    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

/// A mapping stage of a parallel pipeline.
#[derive(Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;

    fn apply_with_state<S, R2, G, F2>(self, init: G, f: F2) -> Vec<R2>
    where
        S: Send,
        R2: Send,
        G: Fn() -> S + Sync,
        F2: Fn(&mut S, R) -> R2 + Sync,
    {
        let map = self.f;
        self.base.apply_with_state(init, |state, item| f(state, map(item)))
    }
}

/// A stateful mapping stage of a parallel pipeline (see
/// [`ParallelIterator::map_init`]).
#[derive(Debug)]
pub struct MapInit<I, G, F> {
    base: I,
    init: G,
    f: F,
}

impl<I, S, R, G, F> ParallelIterator for MapInit<I, G, F>
where
    I: ParallelIterator,
    S: Send,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, I::Item) -> R + Sync,
{
    type Item = R;

    fn apply_with_state<S2, R2, G2, F2>(self, init: G2, f: F2) -> Vec<R2>
    where
        S2: Send,
        R2: Send,
        G2: Fn() -> S2 + Sync,
        F2: Fn(&mut S2, R) -> R2 + Sync,
    {
        let my_init = self.init;
        let my_f = self.f;
        self.base.apply_with_state(
            move || (my_init(), init()),
            move |state, item| {
                let (inner, outer) = state;
                f(outer, my_f(inner, item))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::pool::Shared;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        assert!(squares.iter().enumerate().all(|(i, &s)| s == i * i));
    }

    #[test]
    fn vec_source_and_chained_maps() {
        let v: Vec<i64> = vec![3, 1, 2];
        let out: Vec<i64> = v.into_par_iter().map(|x| x * 10).map(|x| x + 1).collect();
        assert_eq!(out, vec![31, 11, 21]);
    }

    #[test]
    fn vec_source_moves_every_item_exactly_once() {
        // Non-Copy items with a drop counter: every item must be consumed by
        // the pipeline exactly once and dropped exactly once.
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let items: Vec<Tracked> = (0..500).map(|_| Tracked(Arc::clone(&drops))).collect();
        let consumed: Vec<usize> = items.into_par_iter().map(drop).map(|()| 1).collect();
        assert_eq!(consumed.len(), 500);
        assert_eq!(drops.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn vec_source_drops_every_item_once_when_an_item_panics() {
        // Item 7 panics. Whether the other items still run or (with one
        // participant) are abandoned, each is dropped exactly once.
        struct Tracked<'a>(usize, &'a [AtomicUsize]);
        impl Drop for Tracked<'_> {
            fn drop(&mut self) {
                self.1[self.0].fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<Tracked> = (0..64).map(|i| Tracked(i, &drops)).collect();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let pipeline =
                items.into_par_iter().map(|t| if t.0 == 7 { panic!("boom") } else { t.0 });
            let _: Vec<usize> = pipeline.collect();
        }));
        assert!(attempt.is_err(), "the panic must propagate to the caller");
        assert_eq!(drops.iter().map(|d| d.load(Ordering::Relaxed)).collect::<Vec<_>>(), [1; 64]);
    }

    #[test]
    fn map_init_reuses_state_within_a_participant() {
        // The number of `init` calls is bounded by the pool size, never by
        // the item count — that is the whole point of per-worker state.
        let inits = AtomicUsize::new(0);
        let out: Vec<usize> = (0..4096)
            .into_par_iter()
            .map_init(
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |calls, i| {
                    *calls += 1;
                    i
                },
            )
            .collect();
        assert_eq!(out.len(), 4096);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
        let init_count = inits.load(Ordering::Relaxed);
        assert!(init_count >= 1);
        assert!(
            init_count <= super::current_num_threads(),
            "map_init must create at most one state per pool participant \
             ({init_count} inits on a {}-thread pool)",
            super::current_num_threads()
        );
    }

    #[test]
    fn map_init_after_map_composes() {
        let out: Vec<usize> = (0..100)
            .into_par_iter()
            .map(|i| i * 2)
            .map_init(|| 3usize, |offset, i| i + *offset)
            .collect();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 2 + 3));
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let totals: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| (0..100).into_par_iter().map(move |j| i + j).collect::<Vec<_>>().len())
            .collect();
        assert!(totals.iter().all(|&t| t == 100));
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn join_propagates_panics_from_the_right_side() {
        let attempt = std::panic::catch_unwind(|| {
            super::join(|| 1, || -> usize { panic!("right side boom") });
        });
        assert!(attempt.is_err());
        // The pool still works afterwards.
        let (a, b) = super::join(|| 5, || 6);
        assert_eq!((a, b), (5, 6));
    }

    #[test]
    fn join_runs_both_sides_when_the_left_panics() {
        // Joins a panicking `a` with a counting `b` on `shared` (else the
        // global pool) and returns how often `b` ran.
        let b_runs = AtomicUsize::new(0);
        let left_panics = |shared: Option<&Shared>| {
            let a = || -> usize { panic!("left side boom") };
            let b = || b_runs.fetch_add(1, Ordering::Relaxed);
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| match shared {
                Some(shared) => crate::pool::join_on(shared, a, b),
                None => super::join(a, b),
            }))
            .unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"left side boom"));
            b_runs.swap(0, Ordering::Relaxed)
        };
        // Two or more participants run `b`; one runs `(a(), b())` inline.
        assert_eq!(left_panics(Some(&Shared::with_threads(2))), 1);
        assert_eq!(left_panics(Some(&Shared::with_threads(1))), 0);
        assert_eq!(left_panics(None), usize::from(super::current_num_threads() > 1));
        // The pool answers afterwards.
        assert_eq!(super::join(|| 5, || 6), (5, 6));
        let v: Vec<usize> = (0..256).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v[255], 256);
    }

    #[test]
    fn panicking_item_propagates_and_pool_survives() {
        let attempt = std::panic::catch_unwind(|| {
            let _: Vec<usize> = (0..64)
                .into_par_iter()
                .map(|i| if i == 33 { panic!("worker boom") } else { i })
                .collect();
        });
        assert!(attempt.is_err(), "the panic must propagate to the caller");
        // The persistent pool must survive a panicking job.
        for _ in 0..3 {
            let v: Vec<usize> = (0..100).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(v[99], 100);
        }
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        // Several items panic with index-carrying payloads; whatever the
        // chunk interleaving, the payload re-thrown on the caller must be
        // the one of the smallest panicking index.
        for round in 0..8 {
            let payload = std::panic::catch_unwind(|| {
                let _: Vec<usize> = (0..512)
                    .into_par_iter()
                    .map(|i| if i % 97 == 19 { panic!("boom at {i}") } else { i })
                    .collect();
            })
            .unwrap_err();
            let message = payload.downcast::<String>().expect("panic payload is a String");
            assert_eq!(*message, "boom at 19", "round {round}");
        }
    }

    #[test]
    fn injected_panic_storm_leaves_the_pool_usable() {
        // Panic on every claimed chunk of the armed jobs — a storm, not a
        // single fault — and the pool must keep answering afterwards.
        crate::failpoints::arm(crate::failpoints::Plan::new().panic_every(1));
        for _ in 0..3 {
            let attempt = std::panic::catch_unwind(|| {
                let _: Vec<usize> = (0..256).into_par_iter().map(|i| 512 - i).collect();
            });
            assert!(attempt.is_err(), "the injected storm must surface");
        }
        crate::failpoints::disarm();
        let v: Vec<usize> = (0..256).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v[255], 510);
    }

    #[test]
    fn injected_delays_never_change_results() {
        crate::failpoints::arm(crate::failpoints::Plan::new().delay_every(2, 200));
        let delayed: Vec<u64> =
            (0..1024).into_par_iter().map(|i| (i as u64).wrapping_mul(0x9e37_79b9)).collect();
        crate::failpoints::disarm();
        let plain: Vec<u64> =
            (0..1024).into_par_iter().map(|i| (i as u64).wrapping_mul(0x9e37_79b9)).collect();
        assert_eq!(delayed, plain);
    }

    #[test]
    fn repeated_runs_are_bit_identical() {
        let run = || -> Vec<u64> {
            (0..2048).into_par_iter().map(|i| (i as u64).wrapping_mul(0x9e37_79b9)).collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = Vec::<usize>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<usize> = vec![5].into_par_iter().map(|x| x * 2).collect();
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn for_each_visits_every_item() {
        let count = AtomicUsize::new(0);
        (0..333).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn builder_rejects_resizing_a_running_pool() {
        // Force pool start, then ask for an absurd size: either the pool was
        // not started yet (request accepted) or the builder must refuse.
        let _ = (0..16).into_par_iter().map(|i| i).collect::<Vec<_>>();
        let active = super::current_num_threads();
        match super::ThreadPoolBuilder::new().num_threads(active + 7).build_global() {
            Ok(()) => panic!("builder accepted resizing an already-running pool"),
            Err(err) => assert_eq!(err.active_threads, active),
        }
        // A no-op request is always fine.
        assert!(super::ThreadPoolBuilder::new().build_global().is_ok());
    }
}
