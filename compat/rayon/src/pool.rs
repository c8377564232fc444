//! The persistent worker pool behind the crate's parallel primitives.
//!
//! # Architecture
//!
//! A single global pool is initialised lazily on the first parallel call. It
//! owns `threads - 1` **persistent** worker threads (the calling thread is
//! always the remaining participant), so steady-state parallel calls never
//! pay thread-spawn latency — the overhead the old scoped-thread shim paid on
//! every call.
//!
//! Work is distributed **dynamically**: a parallel call publishes one
//! *chunk job* carrying an atomic cursor over the index space `0..len`.
//! Every participant — the caller plus any worker that picks the job up from
//! the shared injector — repeatedly claims the next small chunk of indices
//! from the cursor and processes it. A participant stuck on one expensive
//! item therefore stalls only its own chunk while the others drain the rest
//! of the index space, which is exactly what the skewed per-node costs of
//! adversarial identifier assignments need (one `Θ(n)` node among `n - 1`
//! cheap ones). This is shared-queue work *sharing* rather than per-worker
//! deques, but it provides the property that matters here: idle participants
//! steal remaining chunks instead of idling behind a static partition.
//!
//! Results are written into pre-allocated, index-addressed output slots, so
//! outputs are deterministic by **position** no matter which participant
//! processed which chunk and in which order.
//!
//! The chunk job is the pool's **only** kind of job: [`join_on`] is a
//! two-item chunk job, and a vector source is an index range over slots.
//!
//! # Nested calls
//!
//! A participant may itself issue a parallel call (the nested-call budget
//! semantics of the old shim). The nested job is published to the same
//! injector; the nesting participant claims its chunks itself, so progress
//! never depends on another thread being free — a pool of total size 1
//! degrades to plain inline execution.
//!
//! # Safety
//!
//! Jobs live on the publishing caller's stack and are shared with workers by
//! raw pointer, so the protocol below guarantees no worker can touch a job
//! after its caller returns:
//!
//! * a worker only learns about a job from the injector, and **enters** it
//!   (increments the job's `inside` count) while holding the injector lock;
//! * the caller removes the job from the injector (same lock) before its
//!   final wait, so no new participant can enter afterwards;
//! * the caller returns only once every index is completed **and**
//!   `inside == 0`, i.e. after the last worker has left the job.
//!
//! # Panics
//!
//! A panicking work item is caught and recorded per chunk; the remaining
//! chunks still run to completion, and the panic whose item index is
//! **smallest** is the one re-thrown on the caller. For a deterministic work
//! closure this makes the propagated payload deterministic — the same
//! first-in-index-order panic no matter how the pool interleaved the chunks
//! or how many participants it has — at the price of finishing the job on
//! the (rare) panic path instead of aborting it early. Job panics therefore
//! never unwind a pool thread, and the pool survives arbitrarily many
//! panicking jobs. On the panic path the already produced outputs are
//! leaked rather than dropped — a deliberate simplification over upstream
//! rayon — while a vector source's untaken items drop with their slots.
//!
//! Should a panic nevertheless escape every job scope — only possible
//! between jobs, e.g. an injected worker kill — the worker thread itself
//! dies, and a per-worker supervisor respawns a replacement under the same
//! participant index (counted by [`worker_respawn_count`]), so the pool's
//! capacity is self-healing rather than silently degrading.
//!
//! Fault-injection hooks (see [`crate::failpoints`]) fire at every chunk
//! claim inside the same `catch_unwind` as the work items, so injected
//! panic storms exercise exactly the recovery path above; worker-kill
//! injection (see [`crate::failpoints::kill_workers`]) fires at job
//! boundaries to exercise the supervisor path.

use std::any::Any;
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::failpoints::JobFailpoints;
use crate::sync::{AtomicUsize, Condvar, Mutex, Ordering, UnsafeCell};

/// Environment variable pinning the pool size (total participants, counting
/// the calling thread). Read once, at first use of the pool; values that do
/// not parse to a positive integer are ignored.
pub const THREADS_ENV: &str = "AVG_LOCAL_THREADS";

/// Hard cap on the pool size, guarding against absurd overrides.
const MAX_THREADS: usize = 512;

/// Pool size requested by [`crate::ThreadPoolBuilder::build_global`] before
/// the pool was initialised (0 = no request). Deliberately a `std` atomic,
/// not a `crate::sync` one: this is pool *configuration*, outside the
/// protocol the loom model checks.
static REQUESTED_THREADS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Records a builder request for the global pool size and initialises the
/// pool eagerly (like upstream rayon's `build_global`), so success means
/// the pool *is* running at the requested size — there is no window in
/// which a racing first parallel call can win with a different size after
/// an `Ok` was reported.
///
/// Returns `Err` with the actually-active size when the pool was (or ends
/// up, under a race) initialised with a different one.
pub(crate) fn request_threads(threads: usize) -> Result<(), usize> {
    let clamped = threads.clamp(1, MAX_THREADS);
    if POOL.get().is_none() {
        // ordering: `Relaxed` is sufficient: `OnceLock` initialisation
        // serialises the read in `resolve_thread_count` against this store,
        // and success is decided by re-reading the truth below, not by the
        // store having won.
        REQUESTED_THREADS.store(clamped, std::sync::atomic::Ordering::Relaxed);
    }
    // `OnceLock` serialises initialisation: either our request (stored
    // above) wins, or someone else's resolution did — read the truth back.
    let active = num_threads();
    if active == clamped {
        Ok(())
    } else {
        Err(active)
    }
}

/// The number of participants (workers + the calling thread) of the global
/// pool, initialising it if necessary.
pub(crate) fn num_threads() -> usize {
    shared().threads
}

fn resolve_thread_count() -> usize {
    // ordering: `Relaxed` is sufficient: only the integer itself is read;
    // the `OnceLock` in `shared()` provides the happens-before edge to
    // whichever thread ends up initialising the pool.
    let requested = REQUESTED_THREADS.load(std::sync::atomic::Ordering::Relaxed);
    if requested > 0 {
        return requested;
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// State shared between the workers and every caller.
///
/// Normally there is exactly one, global, lazily-started instance (see
/// `run_chunked` / `join`), but the struct is deliberately constructible
/// on its own: the loom suite builds a local `Shared` per model iteration
/// and drives the *same* job protocol against it through [`run_chunked_on`],
/// [`join_on`], and [`worker_step`].
pub struct Shared {
    /// Total participants: `threads - 1` workers plus the calling thread.
    threads: usize,
    /// Jobs currently accepting helpers, newest last.
    injector: Mutex<Vec<JobRef>>,
    /// Signalled when a job is published.
    work_available: Condvar,
}

impl Shared {
    /// A fresh, isolated pool state for `threads` participants. Spawns no
    /// workers: callers participate inline, and additional participants are
    /// driven explicitly with [`worker_step`] (as the loom models do) or by
    /// a surrounding `worker_loop`.
    pub fn with_threads(threads: usize) -> Shared {
        Shared {
            threads: threads.max(1),
            injector: Mutex::new(Vec::new()),
            work_available: Condvar::new(),
        }
    }
}

static POOL: OnceLock<Shared> = OnceLock::new();

/// Workers respawned by the supervisor after dying outside a job boundary.
/// A `std` atomic (not `crate::sync`): supervision bookkeeping, outside the
/// loom-modelled job protocol.
static WORKER_RESPAWNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// How many pool workers the supervisor has respawned after an unwind
/// escaped every job scope (see [`crate::failpoints::kill_workers`] for the
/// injection hook). Normally 0 for the whole process lifetime.
#[must_use]
pub fn worker_respawn_count() -> usize {
    // ordering: `Relaxed` — a monotone statistics counter; readers only need
    // eventual counts, nothing is published through it.
    WORKER_RESPAWNS.load(std::sync::atomic::Ordering::Relaxed)
}

/// The global pool, started on first use.
pub(crate) fn shared() -> &'static Shared {
    let shared = POOL.get_or_init(|| Shared::with_threads(resolve_thread_count()));
    static WORKERS_STARTED: OnceLock<()> = OnceLock::new();
    WORKERS_STARTED.get_or_init(|| {
        for index in 1..shared.threads {
            spawn_worker(shared, index);
        }
    });
    shared
}

/// Spawns the supervised worker thread for participant `index`.
fn spawn_worker(shared: &'static Shared, index: usize) {
    std::thread::Builder::new()
        .name(format!("avglocal-pool-{index}"))
        .spawn(move || supervise_worker(shared, index))
        .expect("spawning a pool worker thread");
}

/// Runs `worker_loop` and, should it ever unwind — a panic escaping every
/// job scope, which job-level `catch_unwind` recovery cannot see — respawns
/// a replacement worker under the same participant index, so the pool's
/// capacity survives worker death.
///
/// The unwind can only originate *between* jobs (job panics are caught per
/// chunk, and `worker_loop` holds no lock while running a job), so the dying
/// worker is registered with no job and poisons no mutex; the replacement
/// takes over a clean protocol state. The respawn happens on the dying
/// thread itself before it finishes unwinding, which keeps supervision free
/// of any watchdog thread or health-check traffic on the hot path.
fn supervise_worker(shared: &'static Shared, index: usize) {
    let outcome = catch_unwind(AssertUnwindSafe(|| worker_loop(shared, index)));
    if outcome.is_err() {
        // ordering: `Relaxed` — monotone statistics counter read only by
        // `worker_respawn_count`; no memory is published through it.
        WORKER_RESPAWNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        spawn_worker(shared, index);
    }
}

thread_local! {
    /// Stable participant index of this thread: workers get `1..threads`,
    /// any external thread acts as participant 0 of the jobs it publishes.
    static PARTICIPANT_INDEX: Cell<usize> = const { Cell::new(0) };
}

/// A type- and lifetime-erased reference to a job living on some caller's
/// stack. The protocol in the module docs keeps the pointer valid for as
/// long as any worker can reach it.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    /// Registers the calling worker as a participant; called under the
    /// injector lock. Returns `false` when the job has no work left.
    // SAFETY: callers must pass the `data` of the same `JobRef` while the
    // owning stack frame is live (the enter/inside protocol guarantees it).
    enter: unsafe fn(*const ()) -> bool,
    /// Claims and processes chunks until none remain, then deregisters the
    /// participant. Called *without* the injector lock.
    // SAFETY: same contract as `enter`, plus the caller must have obtained
    // `true` from `enter` for this job first.
    run: unsafe fn(*const (), usize),
}

// SAFETY: the pointed-to job is shared across threads by design; the public
// entry points bound the user closures by `Sync` and the results by `Send`,
// and the enter/inside protocol bounds the pointer's lifetime.
unsafe impl Send for JobRef {}

/// Scans the injector for a job with work left, newest (deepest nesting
/// level) first, dropping exhausted entries on the way. The caller must hold
/// the injector lock: entering under it is what guarantees that a caller who
/// later removes the job from the injector observes the incremented `inside`.
fn pick_job(queue: &mut Vec<JobRef>) -> Option<JobRef> {
    while let Some(&job) = queue.last() {
        // SAFETY: the ref was found in the injector under the lock, so
        // its caller has not returned (removal precedes return).
        if unsafe { (job.enter)(job.data) } {
            return Some(job);
        }
        queue.pop();
    }
    None
}

/// One bounded worker iteration against `shared`: pick up at most one job
/// from the injector (entering under the lock) and run it to exhaustion
/// (without the lock). Returns whether a job was run.
///
/// This is `worker_loop` minus the blocking wait — the loom suite drives
/// model workers through it so every iteration of a model terminates, while
/// exercising exactly the enter/run scan the real workers use.
pub fn worker_step(shared: &Shared, index: usize) -> bool {
    let mut queue = shared.injector.lock().expect("pool injector poisoned");
    let picked = pick_job(&mut queue);
    drop(queue);
    match picked {
        Some(job) => {
            // SAFETY: this worker is registered in the job's `inside`
            // count (by `enter`), so the caller waits for it before
            // returning.
            unsafe { (job.run)(job.data, index) };
            true
        }
        None => false,
    }
}

fn worker_loop(shared: &'static Shared, index: usize) {
    PARTICIPANT_INDEX.with(|cell| cell.set(index));
    let mut queue = shared.injector.lock().expect("pool injector poisoned");
    loop {
        match pick_job(&mut queue) {
            Some(job) => {
                drop(queue);
                // SAFETY: this worker is registered in the job's `inside`
                // count, so the caller waits for it before returning.
                unsafe { (job.run)(job.data, index) };
                // Job boundary: the worker is deregistered from the job and
                // holds no lock, so an injected kill here unwinds out of
                // `worker_loop` entirely — the fault `supervise_worker`
                // recovers from.
                crate::failpoints::maybe_kill_worker(index);
                queue = shared.injector.lock().expect("pool injector poisoned");
            }
            None => {
                queue = shared.work_available.wait(queue).expect("pool injector poisoned");
            }
        }
    }
}

/// Completion bookkeeping of a job, all under one mutex so the final
/// notification cannot race the caller's teardown of the job.
struct JobStatus {
    /// Indices whose processing has finished (panicking chunks count in
    /// full: their unprocessed tail can never be claimed again).
    completed: usize,
    /// Workers currently registered with the job.
    inside: usize,
    /// The captured panic with the smallest item index, re-thrown by the
    /// caller — deterministic for deterministic work closures.
    panic: Option<(usize, Box<dyn Any + Send + 'static>)>,
}

/// A dynamic chunk job over the index space `0..len`: the cursor hands out
/// chunks, every claimed index `i` writes its result into `outputs[i]`, and
/// each participant lazily builds one reusable state in its own slot.
struct ChunkJob<S, R, G, F> {
    len: usize,
    chunk: usize,
    cursor: AtomicUsize,
    /// Fault-injection plan captured from the publishing thread, consulted
    /// at every chunk claim (inert unless a test armed it).
    failpoints: JobFailpoints,
    /// Base of `len` pre-allocated output slots, written by claimed index.
    outputs: *const UnsafeCell<MaybeUninit<R>>,
    /// Base of one state slot per possible participant index.
    states: *const UnsafeCell<Option<S>>,
    init: *const G,
    work: *const F,
    sync: Mutex<JobStatus>,
    done: Condvar,
}

impl<S, R, G, F> ChunkJob<S, R, G, F>
where
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    /// Claims and processes chunks until the cursor is exhausted.
    ///
    /// # Safety
    ///
    /// `index` must be unique among the job's live participants (guaranteed
    /// by the pool: workers use their own index, the caller uses its), and
    /// the job's pointers must still be valid (guaranteed by the
    /// enter/remove/wait protocol).
    unsafe fn participate(&self, index: usize) {
        loop {
            // ordering: `Relaxed` is sufficient: fetch_adds on one atomic
            // form a single total modification order, so every index is
            // handed out exactly once no matter how claims interleave; the
            // results written for those indices reach the caller through
            // the `sync` mutex, not through the cursor. Verified by the
            // loom model (`loom_pool.rs`).
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                break;
            }
            let end = (start + self.chunk).min(self.len);
            // Tracks how far into the chunk the work got, so a panic can be
            // attributed to the exact item that raised it (injected chunk
            // failpoints attribute to the chunk's first item).
            let done_in_chunk = Cell::new(0usize);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.failpoints.before_chunk();
                // SAFETY: only this participant touches state slot `index`
                // (workers use their unique pool index, the caller its own),
                // so the access is exclusive; the raw pointer stays valid
                // and ours for the whole chunk.
                let state = unsafe { &*self.states.add(index) }.with_mut(|slot| {
                    // SAFETY: exclusive per-participant slot, see above.
                    let slot = unsafe { &mut *slot };
                    std::ptr::from_mut::<S>(slot.get_or_insert_with(|| unsafe { (*self.init)() }))
                });
                for i in start..end {
                    // SAFETY: `state` is this participant's private slot.
                    let value = unsafe { (*self.work)(&mut *state, i) };
                    // SAFETY: index `i` was claimed from the cursor exactly
                    // once, so this is the slot's only write ever.
                    unsafe { &*self.outputs.add(i) }.with_mut(|out| {
                        // SAFETY: same exactly-once claim as above.
                        unsafe { *out = MaybeUninit::new(value) };
                    });
                    done_in_chunk.set(done_in_chunk.get() + 1);
                }
            }));
            let mut status = self.sync.lock().expect("job status poisoned");
            status.completed += end - start;
            if let Err(payload) = outcome {
                // Keep the panic with the smallest item index. Remaining
                // chunks keep running (no early abort), so for work closures
                // that panic deterministically per index the smallest
                // panicking index always runs — and wins — regardless of
                // chunk interleaving.
                let at = start + done_in_chunk.get();
                let replace = match &status.panic {
                    None => true,
                    Some((recorded, _)) => at < *recorded,
                };
                if replace {
                    status.panic = Some((at, payload));
                }
            }
            if status.completed == self.len {
                self.done.notify_all();
            }
        }
    }
}

/// `JobRef::enter` for a [`ChunkJob`].
///
/// # Safety
///
/// `data` must point at the live [`ChunkJob`] this `JobRef` was built from,
/// and the caller must hold the injector lock.
unsafe fn chunk_enter<S, R, G, F>(data: *const ()) -> bool
where
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    // SAFETY: called under the injector lock on a listed job (see JobRef).
    let job = unsafe { &*data.cast::<ChunkJob<S, R, G, F>>() };
    // ordering: `Relaxed` is sufficient: this is a conservative has-work
    // probe. The cursor only grows, so a stale low read merely admits a
    // worker whose first claim then finds nothing; job-lifetime correctness
    // rests on the `inside` count under the `sync` mutex, not on this load.
    // Verified by the loom model (`loom_pool.rs`).
    if job.cursor.load(Ordering::Relaxed) >= job.len {
        return false;
    }
    job.sync.lock().expect("job status poisoned").inside += 1;
    true
}

/// `JobRef::run` for a [`ChunkJob`]: participate, then deregister.
///
/// # Safety
///
/// `data` must point at the live [`ChunkJob`] this worker entered via
/// [`chunk_enter`]; `index` must be the worker's unique pool index.
unsafe fn chunk_run<S, R, G, F>(data: *const (), index: usize)
where
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    // SAFETY: the worker is registered via `chunk_enter`, so the job
    // outlives this call; `index` is the worker's unique pool index.
    let job = unsafe { &*data.cast::<ChunkJob<S, R, G, F>>() };
    unsafe { job.participate(index) };
    let mut status = job.sync.lock().expect("job status poisoned");
    status.inside -= 1;
    if status.inside == 0 && status.completed == job.len {
        job.done.notify_all();
    }
}

/// Chunk size for a job of `len` items on a pool of `threads` participants:
/// roughly 16 claims per participant, so one expensive item stalls only a
/// small chunk while cursor traffic stays negligible.
fn chunk_size(len: usize, threads: usize) -> usize {
    (len / (threads * 16)).clamp(1, 1024)
}

/// Runs `work(state, index)` for every `index in 0..len` on the global pool
/// and returns the results in index order.
///
/// Each participant lazily creates one `state` with `init` and reuses it for
/// every chunk it claims — the hook executors use to keep per-worker scratch
/// buffers warm across stolen chunks.
///
/// # Panics
///
/// Re-throws the recorded panic with the smallest item index among those
/// raised by `init` or `work` (see the module docs); the pool survives.
pub(crate) fn run_chunked<S, R, G, F>(len: usize, init: G, work: F) -> Vec<R>
where
    S: Send,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    run_chunked_on(shared(), len, init, work)
}

/// `run_chunked` against an explicit pool state instead of the global one.
/// The loom suite uses this to run the real job protocol inside a model.
pub fn run_chunked_on<S, R, G, F>(shared: &Shared, len: usize, init: G, work: F) -> Vec<R>
where
    S: Send,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    let failpoints = JobFailpoints::capture();
    if shared.threads == 1 || len == 1 {
        // Inline execution still honours the failpoint plan, batched at the
        // same chunk granularity the pool would use, so the 1-thread CI leg
        // exercises injected faults too (panics propagate directly to the
        // caller here — there is no pool to survive).
        let chunk = chunk_size(len, 1);
        let mut state = init();
        return (0..len)
            .map(|i| {
                if i % chunk == 0 {
                    failpoints.before_chunk();
                }
                work(&mut state, i)
            })
            .collect();
    }

    let outputs: Vec<UnsafeCell<MaybeUninit<R>>> =
        (0..len).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let states: Vec<UnsafeCell<Option<S>>> =
        (0..shared.threads).map(|_| UnsafeCell::new(None)).collect();
    let job = ChunkJob {
        len,
        chunk: chunk_size(len, shared.threads),
        cursor: AtomicUsize::new(0),
        failpoints,
        outputs: outputs.as_ptr(),
        states: states.as_ptr(),
        init: &init,
        work: &work,
        sync: Mutex::new(JobStatus { completed: 0, inside: 0, panic: None }),
        done: Condvar::new(),
    };
    let job_ref = JobRef {
        data: std::ptr::from_ref(&job).cast(),
        enter: chunk_enter::<S, R, G, F>,
        run: chunk_run::<S, R, G, F>,
    };
    shared.injector.lock().expect("pool injector poisoned").push(job_ref);
    shared.work_available.notify_all();

    // The caller claims chunks too, under its own participant index.
    let index = PARTICIPANT_INDEX.with(Cell::get);
    // SAFETY: the caller's index cannot collide with a worker helping this
    // job, and the job outlives this frame.
    unsafe { job.participate(index) };

    // No new helper may enter once the ref is gone from the injector …
    shared
        .injector
        .lock()
        .expect("pool injector poisoned")
        .retain(|j| !std::ptr::eq(j.data, job_ref.data));
    // … so waiting for `inside == 0` below makes freeing the job safe.
    let mut status = job.sync.lock().expect("job status poisoned");
    while status.completed < len || status.inside > 0 {
        status = job.done.wait(status).expect("job status poisoned");
    }
    let panic = status.panic.take();
    drop(status);
    if let Some((_at, payload)) = panic {
        // `outputs` frees its buffer without dropping the written `R`s —
        // the panic path leaks results instead of tracking which slots are
        // initialised.
        resume_unwind(payload);
    }
    collect_outputs(outputs, len)
}

/// Turns the fully-written output slots into the result vector.
///
/// Precondition (upheld by [`run_chunked_on`]): every slot in `0..len` was
/// written exactly once, and those writes happen-before this call via the
/// job's `sync` mutex — the exact claim the loom variant below verifies.
#[cfg(not(avg_local_loom))]
fn collect_outputs<R>(outputs: Vec<UnsafeCell<MaybeUninit<R>>>, len: usize) -> Vec<R> {
    debug_assert_eq!(outputs.len(), len);
    // SAFETY: per the precondition every slot holds an initialised `R`, and
    // the seam's `UnsafeCell` is `#[repr(transparent)]` over
    // `MaybeUninit<R>`, which has the layout of `R` — so the buffer can be
    // reinterpreted in place without copying.
    let mut buffer = std::mem::ManuallyDrop::new(outputs);
    unsafe { Vec::from_raw_parts(buffer.as_mut_ptr().cast::<R>(), len, buffer.capacity()) }
}

/// Model-checked variant: reads each slot through the instrumented cell, so
/// the model proves the write of every slot happens-before the caller's read
/// (the `MaybeUninit`-soundness claim), at the cost of a per-slot move.
#[cfg(avg_local_loom)]
fn collect_outputs<R>(outputs: Vec<UnsafeCell<MaybeUninit<R>>>, len: usize) -> Vec<R> {
    debug_assert_eq!(outputs.len(), len);
    outputs
        .into_iter()
        .map(|cell| {
            // SAFETY: per the precondition the slot was written exactly
            // once; reading it out leaves a `MaybeUninit` behind, which
            // never drops its contents, so no double-drop.
            cell.with(|slot| unsafe { (*slot).assume_init_read() })
        })
        .collect()
}

/// Takes the value out of a per-index slot. The chunk cursor hands out
/// every index exactly once, so each slot is emptied exactly once.
pub(crate) fn take_slot<T>(slot: &std::sync::Mutex<Option<T>>) -> T {
    slot.lock().expect("pool slot poisoned").take().expect("pool slot taken twice")
}

/// [`crate::join`] against an explicit pool state: a two-item chunk job
/// whose item 0 runs `a` and item 1 runs `b`. The loom suite uses this to
/// model-check it.
pub fn join_on<A, B, RA, RB>(shared: &Shared, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if shared.threads == 1 {
        return (a(), b());
    }
    let a = std::sync::Mutex::new(Some(a));
    let b = std::sync::Mutex::new(Some(b));
    let results = run_chunked_on(
        shared,
        2,
        || (),
        |(), i| match i {
            0 => (Some(take_slot(&a)()), None),
            _ => (None, Some(take_slot(&b)())),
        },
    );
    let Ok([(Some(ra), _), (_, Some(rb))]) = <[_; 2]>::try_from(results) else {
        unreachable!("item 0 returns `a`'s result and item 1 `b`'s");
    };
    (ra, rb)
}
