//! The shared worker [`Scheduler`] and deterministic fan-out wrappers.
//!
//! Every parallel path in the reproduction — the design-space sweep
//! engine ([`crate::sweep`]), batched DNN inference
//! (`mindful_dnn::infer::Network::forward_batch`), block-sampled
//! Monte-Carlo BER measurement (`mindful_rf::modem`), multi-stream
//! serving (`mindful_pipeline::StreamSet`), and the fleet serving
//! layer (`mindful_pipeline::serve`) — runs as a *client* of one
//! [`Scheduler`]: a long-lived dispatch service that owns the worker
//! threads, the claim queue, and the fairness/steal accounting. No
//! consumer owns its own pool; they differ only in which dispatch
//! discipline they ask for:
//!
//! * [`Scheduler::map_init_with`] (and the [`par_map`] /
//!   [`par_map_init`] wrappers over the private shared scheduler) —
//!   **chunked** dispatch: the input splits into contiguous chunks,
//!   each processed with private state built once per chunk, and
//!   results land in pre-assigned slots. Output order — and any
//!   state-dependent output — is byte-identical for every worker
//!   count and schedule.
//! * [`Scheduler::map_mut_with`] — the same chunked discipline over
//!   `&mut` items (warm pipelines that must not be rebuilt per call).
//! * [`Scheduler::dispatch`] — **epoch / work-stealing** dispatch
//!   over claimable [`TaskSlot`]s: every ready task is claimed exactly
//!   once per epoch through a shared cursor, so a worker that runs dry
//!   steals the tail of a slower worker's share. This is the
//!   discipline the fleet layer uses to multiplex heterogeneous
//!   implant sessions; it is only appropriate for tasks whose output
//!   is independent of *which* worker runs them (each task owns its
//!   whole state).
//!
//! ## The worker pool
//!
//! A scheduler with `w` workers owns `w − 1` long-lived helper threads,
//! started by [`Scheduler::new`] (which returns once every one of them
//! is parked, so thread start-up never lands inside a dispatch) and
//! parked on a condition variable between dispatches; a one-worker
//! scheduler starts none. The calling thread is always the `w`-th
//! participant. Every parallel dispatch phase is one *wake* and one
//! *barrier*:
//!
//! 1. the caller publishes the phase's claim loop (a borrowed closure)
//!    together with a number of participation tickets and wakes that
//!    many helpers;
//! 2. the caller runs the same claim loop itself — every participant
//!    pulls work through one shared atomic cursor until it is dry;
//! 3. the caller revokes the tickets no helper has taken yet (a helper
//!    that wakes late finds the work gone and parks again) and waits
//!    until every helper that did join has left the closure.
//!
//! Helpers never spin: they sleep in the kernel until the next phase.
//! A one-worker (or one-task) dispatch touches no shared state at all
//! and runs inline on the caller's thread, and no dispatch allocates
//! for the hand-off itself, so a warm multi-worker fleet epoch is as
//! allocation-free as the serial one. Dropping the [`Scheduler`] shuts
//! the pool down and joins its threads.
//!
//! **Panics.** A task that panics on a helper is caught there; the
//! barrier still completes and the first payload is re-raised on the
//! caller once every participant has left the phase (a panic in the
//! caller's own share likewise waits for the barrier before it
//! unwinds). The helpers survive, so the same scheduler serves the
//! next epoch.
//!
//! **Busy pool.** The pool serves one dispatch at a time. A dispatch
//! that finds it busy — a second thread sharing the scheduler (such as
//! the process-wide one behind [`par_map`]), or a task dispatching from
//! inside a task — runs its whole phase inline on the calling thread
//! instead of blocking. Every discipline's results are
//! schedule-independent by construction, so this never changes an
//! output.
//!
//! **Lifetime erasure.** Helpers outlive any one dispatch, so the
//! borrowed claim loop is handed to them as a `'static` reference. That
//! erasure happens in exactly one place (the private `Pool::run`) and
//! is sound only because the caller does not return — or unwind —
//! before the barrier has seen every helper leave the closure and the
//! published reference has been cleared.
//!
//! Worker count defaults to the machine's available parallelism and
//! can be pinned with the `MINDFUL_SWEEP_THREADS` environment variable
//! (see [`default_threads`] for the precedence contract, and
//! [`crate::env::parse_count`] for the one shared numeric-knob
//! parser). The variable predates this module — it is named after the
//! sweep engine that introduced it — and governs every consumer of
//! [`default_threads`].

// SAFETY: the only unsafe construct in this module is the lifetime
// erasure in `Pool::run`, which publishes a borrowed closure to the
// parked helper threads. The caller blocks at the phase barrier until
// every helper that took a participation ticket has returned from the
// closure, then clears the published reference before returning, on
// the normal path and when its own share (or a helper's) panicked.
#![allow(unsafe_code)]

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Environment variable that pins the worker count for every consumer
/// of [`default_threads`] (historically named after the sweep engine).
pub const SWEEP_THREADS_ENV: &str = "MINDFUL_SWEEP_THREADS";

/// Upper bound on the worker count (env values are clamped to it).
pub const MAX_SWEEP_THREADS: usize = 256;

/// Resolves the default worker count for parallel fan-outs.
///
/// The one documented precedence for the thread knob, shared by every
/// consumer (the sweep engine's `sweep_threads` alias, `forward_batch`
/// defaults, the serving layers):
///
/// 1. An explicit integer in [`SWEEP_THREADS_ENV`] always wins,
///    clamped into `[1, MAX_SWEEP_THREADS]` by
///    [`crate::env::parse_count`] — so `"0"` pins one worker and an
///    overlong value (one that overflows `usize`) pins the maximum
///    rather than being silently ignored.
/// 2. Empty, whitespace-only, or non-numeric values defer to the
///    machine's available parallelism.
/// 3. If that cannot be queried, one worker.
#[must_use]
pub fn default_threads() -> NonZeroUsize {
    if let Some(n) = std::env::var(SWEEP_THREADS_ENV)
        .ok()
        .as_deref()
        .and_then(thread_override)
    {
        return n;
    }
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Parses a [`SWEEP_THREADS_ENV`] value into a worker count.
///
/// A thin alias of [`crate::env::parse_count`] at the
/// [`MAX_SWEEP_THREADS`] cap, kept so the thread knob's clamping lives
/// in exactly one place (the shared env parser) while this module
/// still owns the knob's name and documentation. See
/// [`default_threads`] for the full precedence.
#[must_use]
pub fn thread_override(raw: &str) -> Option<NonZeroUsize> {
    crate::env::parse_count(raw, MAX_SWEEP_THREADS)
}

/// Maps `f` over `items` split into up to `threads` chunks, returning
/// outputs in input order.
///
/// A thin wrapper over the private shared [`Scheduler`]
/// ([`Scheduler::map_with`]): the slice is split into contiguous
/// chunks, claimed by the shared scheduler's workers; each chunk's
/// outputs land in the matching slots of the result vector, so the
/// output order is independent of scheduling. `f` receives the item's
/// index alongside the item. With one thread (or one item) everything
/// runs inline on the caller's thread.
pub fn par_map<I, T, F>(items: &[I], threads: NonZeroUsize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    shared().map_with(items, threads, f)
}

/// [`par_map`] with per-chunk mutable state.
///
/// A thin wrapper over the private shared [`Scheduler`]
/// ([`Scheduler::map_init_with`]). `init` runs exactly once per chunk,
/// before the chunk's first item, and the resulting state is threaded
/// through every item of that chunk — the shape needed for reusable
/// scratch buffers (e.g. an inference workspace) that must not be
/// shared across threads nor rebuilt per item. On the serial path (one
/// thread or at most one item) `init` is called once overall.
///
/// Results come back in input order for any worker count; the state is
/// deterministically partitioned (chunk `c` is the `c`-th contiguous
/// run of items), so any state-dependent output is reproducible too.
pub fn par_map_init<I, T, S, G, F>(items: &[I], threads: NonZeroUsize, init: G, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &I) -> T + Sync,
{
    shared().map_init_with(items, threads, init, f)
}

/// [`par_map`] over `&mut` items.
///
/// A thin wrapper over the private shared [`Scheduler`]
/// ([`Scheduler::map_mut_with`]) for clients whose tasks are long-lived
/// warm state (a `StreamSet`'s pipelines) rather than inputs to copy
/// from. Same chunk math and determinism guarantees as [`par_map`].
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: NonZeroUsize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    shared().map_mut_with(items, threads, f)
}

/// The process-wide scheduler behind [`par_map`] / [`par_map_init`].
///
/// Kept private to the wrappers; layers that want to share one
/// scheduler explicitly (the fleet serving layer) construct and pass
/// their own [`Scheduler`]. Its helper threads start on first use and
/// live for the rest of the process.
fn shared() -> &'static Scheduler {
    static SHARED: OnceLock<Scheduler> = OnceLock::new();
    SHARED.get_or_init(Scheduler::with_default_threads)
}

/// A cumulative snapshot of a [`Scheduler`]'s dispatch accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Dispatch calls served (chunked maps and stealing epochs alike).
    pub epochs: u64,
    /// Tasks run across all dispatches.
    pub tasks: u64,
    /// Tasks claimed by a worker beyond its fair per-epoch share —
    /// the work-stealing ledger (always zero for chunked dispatch,
    /// which pre-assigns shares).
    pub steals: u64,
}

/// A claimable work slot for [`Scheduler::dispatch`].
///
/// Interior-mutable so that *any* worker can take exclusive access to
/// the task it claims: the dispatch cursor hands each ready index to
/// exactly one worker per epoch, so the lock is uncontended by
/// construction and exists only to make the hand-off safe. Locking a
/// warm slot performs no heap allocation.
#[derive(Debug, Default)]
pub struct TaskSlot<T>(Mutex<T>);

impl<T> TaskSlot<T> {
    /// Wraps a task.
    pub fn new(task: T) -> Self {
        Self(Mutex::new(task))
    }

    /// Exclusive access without locking (requires `&mut self`, so the
    /// borrow checker proves no worker holds the slot).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Unwraps the task.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the slot (used by the dispatch workers; a claimed slot is
    /// never contended).
    fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A phase's claim loop as published to the helpers.
type Job<'a> = dyn Fn() + Sync + 'a;

/// What the caller and the helpers share, all under one mutex.
#[derive(Default)]
struct PoolState {
    /// The current phase's claim loop; `Some` only between publication
    /// and the end of that phase's barrier.
    job: Option<&'static Job<'static>>,
    /// Helpers that may still join the current phase.
    tickets: usize,
    /// Helpers currently inside `job`.
    running: usize,
    /// The caller is parked at the barrier.
    waiting: bool,
    /// The first panic payload caught on a helper this phase.
    panic: Option<Box<dyn Any + Send>>,
    /// Helpers that have finished starting up.
    started: usize,
    shutdown: bool,
}

#[derive(Default)]
struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers park here between phases.
    wake: Condvar,
    /// The caller parks here at the barrier (and the constructor,
    /// until every helper has started).
    idle: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Nothing panics while holding the lock (jobs run outside it),
        // so poisoning cannot leave the state inconsistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The parked helper threads of one [`Scheduler`].
struct Pool {
    shared: Arc<PoolShared>,
    helpers: Vec<JoinHandle<()>>,
    /// Held by the one dispatch currently using the helpers.
    busy: AtomicBool,
}

/// Releases [`Pool::busy`] on every exit path, unwinding included.
struct BusyGuard<'a>(&'a AtomicBool);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Pool {
    /// Starts `helpers` threads and returns once all of them are
    /// parked, so their start-up (and its allocations) is part of
    /// construction, never of a later dispatch. A thread the OS
    /// refuses to start only shrinks the pool; dispatch stays correct
    /// with any number of helpers, including none.
    fn new(helpers: usize) -> Self {
        let shared = Arc::new(PoolShared::default());
        let helpers: Vec<_> = (0..helpers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mindful-pool-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect();
        let mut state = shared.lock();
        while state.started < helpers.len() {
            state = shared
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        Self {
            shared,
            helpers,
            busy: AtomicBool::new(false),
        }
    }

    /// Runs `job` on the caller and on up to `participants − 1`
    /// helpers, returning once every participant has left it. `job`
    /// must be a claim loop: any one participant running it alone
    /// completes the whole phase.
    fn run(&self, participants: usize, job: &Job<'_>) {
        let helpers = self.helpers.len().min(participants.saturating_sub(1));
        if helpers == 0
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            job();
            return;
        }
        let _busy = BusyGuard(&self.busy);
        // SAFETY: only the lifetime is erased. Helpers dereference the
        // published reference only while holding a ticket, and the
        // barrier below returns only after the tickets are revoked, no
        // helper is inside `job` any more, and `job` is unpublished. The
        // caller's own share runs under `catch_unwind`, so that barrier
        // is reached on every path before `job`'s borrow can end.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        {
            let mut state = self.shared.lock();
            state.job = Some(erased);
            state.tickets = helpers;
        }
        if helpers == self.helpers.len() {
            self.shared.wake.notify_all();
        } else {
            for _ in 0..helpers {
                self.shared.wake.notify_one();
            }
        }
        let own = panic::catch_unwind(AssertUnwindSafe(job));
        let helper_panic = {
            let mut state = self.shared.lock();
            state.tickets = 0;
            while state.running > 0 {
                state.waiting = true;
                state = self
                    .shared
                    .idle
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting = false;
            state.job = None;
            state.panic.take()
        };
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }
}

/// A helper's life: park until a ticket is offered, run the published
/// claim loop, report at the barrier, repeat until shutdown.
fn helper_loop(shared: &PoolShared) {
    let mut state = shared.lock();
    state.started += 1;
    shared.idle.notify_one();
    loop {
        if state.shutdown {
            return;
        }
        if state.tickets == 0 {
            state = shared
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        }
        state.tickets -= 1;
        state.running += 1;
        let job = state.job.expect("tickets are only offered with a job");
        drop(state);
        let outcome = panic::catch_unwind(AssertUnwindSafe(job));
        state = shared.lock();
        state.running -= 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        if state.running == 0 && state.waiting {
            shared.idle.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every task panic, so a join error is
            // impossible; there is nothing to report at drop either way.
            let _ = helper.join();
        }
    }
}

// The join handles are touched only by `Drop`, and every other field
// is a lock or an atomic, so a dispatch that unwinds leaves nothing
// observably broken: a `Scheduler` stays usable across `catch_unwind`
// (the std handles opt out only because of their result slot, which
// no dispatch reads).
impl std::panic::UnwindSafe for Pool {}
impl std::panic::RefUnwindSafe for Pool {}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("helpers", &self.helpers.len())
            .finish_non_exhaustive()
    }
}

/// A long-lived dispatch service multiplexing clients over one worker
/// budget.
///
/// A scheduler with `w` workers owns `w − 1` parked helper threads for
/// its whole life and uses the calling thread as the last participant;
/// clients still hand it borrowed data without `'static` bounds, and
/// the serial paths (one worker or at most one task) run inline
/// without waking anyone or allocating. See the module docs for the
/// two dispatch disciplines, the pool's barrier, and its panic and
/// busy-pool rules.
#[derive(Debug)]
pub struct Scheduler {
    workers: NonZeroUsize,
    pool: Pool,
    epochs: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl Scheduler {
    /// A scheduler with an explicit worker budget; starts
    /// `workers − 1` helper threads and returns once all are parked.
    #[must_use]
    pub fn new(workers: NonZeroUsize) -> Self {
        Self {
            workers,
            pool: Pool::new(workers.get() - 1),
            epochs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// A scheduler sized by [`default_threads`] (the
    /// `MINDFUL_SWEEP_THREADS` precedence, resolved at construction).
    #[must_use]
    pub fn with_default_threads() -> Self {
        Self::new(default_threads())
    }

    /// The scheduler's worker budget.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// A snapshot of the cumulative dispatch accounting.
    #[must_use]
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            epochs: self.epochs.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    fn account(&self, tasks: usize, steals: u64) {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        if steals > 0 {
            self.steals.fetch_add(steals, Ordering::Relaxed);
        }
    }

    /// Runs `body(k)` once for every `k` in `0..n` on up to
    /// `min(workers, n)` participants, claiming indices in order
    /// through a shared cursor, and returns how many claims went beyond
    /// a participant's fair share. With one participant this is a plain
    /// in-order loop on the caller.
    fn claim_all<B>(&self, n: usize, body: B) -> u64
    where
        B: Fn(usize) + Sync,
    {
        let workers = self.workers.get().min(n);
        let share = n.div_ceil(workers.max(1)) as u64;
        let cursor = AtomicUsize::new(0);
        let stolen = AtomicU64::new(0);
        self.pool.run(workers, &|| {
            let mut claimed = 0_u64;
            loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                claimed += 1;
                body(k);
            }
            let over = claimed.saturating_sub(share);
            if over > 0 {
                stolen.fetch_add(over, Ordering::Relaxed);
            }
        });
        stolen.load(Ordering::Relaxed)
    }

    /// Chunked map over `items` using the scheduler's own worker
    /// budget. See [`Scheduler::map_init_with`].
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_with(items, self.workers, f)
    }

    /// Chunked map over `items` split into up to `threads` chunks
    /// (stateless form of [`Scheduler::map_init_with`]).
    pub fn map_with<I, T, F>(&self, items: &[I], threads: NonZeroUsize, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_init_with(items, threads, || (), |(), i, x| f(i, x))
    }

    /// Chunked map with per-chunk state using the scheduler's own
    /// worker budget. See [`Scheduler::map_init_with`].
    pub fn map_init<I, T, S, G, F>(&self, items: &[I], init: G, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        self.map_init_with(items, self.workers, init, f)
    }

    /// Chunked, deterministic dispatch: maps `f` over `items` split
    /// into up to `threads` contiguous chunks, each processed with
    /// private state built once by `init`, returning outputs in input
    /// order.
    ///
    /// The pool's participants (at most the scheduler's worker budget)
    /// claim whole chunks through a cursor; chunk `c` is always the
    /// `c`-th contiguous run of `⌈n / threads⌉` items and writes into
    /// the matching result slots, so the output — including any
    /// state-dependent output — is byte-identical for every schedule.
    /// With one thread (or at most one item) everything runs inline on
    /// the caller's thread with a single `init`.
    pub fn map_init_with<I, T, S, G, F>(
        &self,
        items: &[I],
        threads: NonZeroUsize,
        init: G,
        f: F,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        G: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let n = items.len();
        self.account(n, 0);
        let workers = threads.get().min(n);
        if workers <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| f(&mut state, i, x))
                .collect();
        }
        let chunk = n.div_ceil(workers);
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let parts: Vec<_> = out.chunks_mut(chunk).map(TaskSlot::new).collect();
        self.claim_all(parts.len(), |ci| {
            let base = ci * chunk;
            let mut out_chunk = parts[ci].lock();
            let mut state = init();
            for (j, slot) in out_chunk.iter_mut().enumerate() {
                *slot = Some(f(&mut state, base + j, &items[base + j]));
            }
        });
        drop(parts);
        out.into_iter()
            .map(|slot| slot.expect("every slot is written by exactly one chunk"))
            .collect()
    }

    /// Chunked dispatch over `&mut` items: maps `f` over `items` split
    /// into up to `threads` chunks, returning outputs in input order.
    ///
    /// The `&mut` twin of [`Scheduler::map_with`] for clients whose
    /// tasks are long-lived warm state (a `StreamSet`'s pipelines)
    /// rather than inputs to copy from. Same chunk math, same
    /// determinism guarantees.
    pub fn map_mut_with<T, R, F>(&self, items: &mut [T], threads: NonZeroUsize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        self.account(n, 0);
        let workers = threads.get().min(n);
        if workers <= 1 {
            return items.iter_mut().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let chunk = n.div_ceil(workers);
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let parts: Vec<_> = items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .map(TaskSlot::new)
            .collect();
        self.claim_all(parts.len(), |ci| {
            let base = ci * chunk;
            let mut part = parts[ci].lock();
            let (in_chunk, out_chunk) = &mut *part;
            for (j, (item, slot)) in in_chunk.iter_mut().zip(out_chunk.iter_mut()).enumerate() {
                *slot = Some(f(base + j, item));
            }
        });
        drop(parts);
        out.into_iter()
            .map(|slot| slot.expect("every slot is written by exactly one chunk"))
            .collect()
    }

    /// One epoch of work-stealing dispatch: runs `run` once for every
    /// index in `ready`, claiming tasks through a shared cursor so
    /// workers that finish their fair share steal the remainder.
    ///
    /// `ready` indexes into `slots`; each listed slot is claimed by
    /// exactly one worker this epoch (listing an index twice runs it
    /// twice, sequentially — the slot lock serializes the runs). Tasks
    /// run in `ready` order *of claiming*, but which worker runs which
    /// task is schedule-dependent, so this discipline is only for
    /// tasks whose output is independent of the executing worker (each
    /// task owns its whole state). With one worker (or at most one
    /// ready task) the epoch runs inline, in `ready` order, without
    /// waking a helper — and no path allocates.
    pub fn dispatch<T, F>(&self, slots: &[TaskSlot<T>], ready: &[usize], run: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.dispatch_phased(slots, &[ready], run);
    }

    /// One epoch of *phased* work-stealing dispatch: the phases run
    /// strictly in order — every task of phase `p` completes before any
    /// task of phase `p + 1` starts — while tasks *within* a phase keep
    /// the full steal-balanced claiming of [`Scheduler::dispatch`].
    ///
    /// This is the priority-class discipline the fleet serving layer
    /// uses: each phase is one priority class's ready list, so a
    /// realtime session can never be delayed behind best-effort work,
    /// yet workers still steal freely inside a class. The barrier
    /// between phases is the pool's per-phase barrier: the caller
    /// publishes phase `p + 1` only after every helper has left phase
    /// `p`. The whole call accounts as **one** scheduling epoch (tasks
    /// and steals summed over the phases); empty phases wake no one.
    /// With one worker every phase runs inline in ready order — phased
    /// serial dispatch is exactly concatenated serial dispatch, which
    /// is what makes fleet accounting worker-count invariant.
    pub fn dispatch_phased<T, F>(&self, slots: &[TaskSlot<T>], phases: &[&[usize]], run: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let mut tasks = 0_usize;
        let mut steals = 0_u64;
        for ready in phases {
            tasks += ready.len();
            steals += self.claim_all(ready.len(), |k| {
                let idx = ready[k];
                run(idx, &mut slots[idx].lock());
            });
        }
        self.account(tasks, steals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            let got = par_map(&items, threads(workers), |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, threads(8), |_, &x| x).is_empty());
        assert_eq!(par_map(&[7_u32], threads(8), |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_init_builds_one_state_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 2, 4, 16] {
            let inits = AtomicUsize::new(0);
            let got = par_map_init(
                &items,
                threads(workers),
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |scratch, _, &x| {
                    scratch.push(x);
                    x + scratch.len() as u32 - scratch.len() as u32 + 1
                },
            );
            let expect: Vec<u32> = items.iter().map(|x| x + 1).collect();
            assert_eq!(got, expect, "{workers} workers");
            assert!(
                inits.load(Ordering::Relaxed) <= workers.min(items.len()),
                "at most one init per worker"
            );
            assert!(inits.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn par_map_init_state_is_chunk_local() {
        // Each worker's state sees exactly its contiguous chunk, so a
        // stateful fold over the chunk is deterministic per slot.
        let items: Vec<u64> = (0..40).collect();
        let serial = par_map_init(
            &items,
            threads(1),
            || 0_u64,
            |acc, i, &x| {
                *acc += x;
                (i as u64, x)
            },
        );
        let parallel = par_map_init(
            &items,
            threads(4),
            || 0_u64,
            |acc, i, &x| {
                *acc += x;
                (i as u64, x)
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads().get() >= 1);
    }

    /// Regression for the env-parsing bug: `"0"` used to fail the
    /// `NonZeroUsize` conversion and overlong values failed the parse,
    /// both silently falling back to auto-detection instead of
    /// honouring the explicit (if extreme) request. The parsing now
    /// lives in [`crate::env::parse_count`]; these pins prove the
    /// delegation preserves the contract at this knob's cap.
    #[test]
    fn thread_override_clamps_explicit_values() {
        assert_eq!(thread_override("0"), NonZeroUsize::new(1));
        assert_eq!(thread_override(" 0 "), NonZeroUsize::new(1));
        assert_eq!(thread_override("1"), NonZeroUsize::new(1));
        assert_eq!(thread_override(" 8 "), NonZeroUsize::new(8));
        assert_eq!(thread_override("256"), NonZeroUsize::new(MAX_SWEEP_THREADS));
        assert_eq!(
            thread_override("9999"),
            NonZeroUsize::new(MAX_SWEEP_THREADS),
            "above the cap clamps to the cap"
        );
        // 39 digits: overflows usize but is still an explicit number.
        assert_eq!(
            thread_override("340282366920938463463374607431768211456"),
            NonZeroUsize::new(MAX_SWEEP_THREADS),
            "overlong values clamp instead of being ignored"
        );
    }

    #[test]
    fn thread_override_defers_on_non_numeric_values() {
        assert_eq!(thread_override(""), None);
        assert_eq!(thread_override("   "), None);
        assert_eq!(thread_override("\t\n"), None);
        assert_eq!(thread_override("abc"), None);
        assert_eq!(thread_override("8 workers"), None);
        assert_eq!(thread_override("-4"), None, "signs are not digits");
        assert_eq!(thread_override("3.5"), None);
    }

    #[test]
    fn scheduler_map_matches_the_wrappers_byte_for_byte() {
        let items: Vec<u64> = (0..53).collect();
        let scheduler = Scheduler::new(threads(4));
        for workers in [1, 2, 4, 9] {
            let via_wrapper = par_map_init(
                &items,
                threads(workers),
                || 1_u64,
                |s, i, &x| {
                    *s = s.wrapping_mul(31).wrapping_add(x);
                    (i as u64, *s)
                },
            );
            let via_scheduler = scheduler.map_init_with(
                &items,
                threads(workers),
                || 1_u64,
                |s, i, &x| {
                    *s = s.wrapping_mul(31).wrapping_add(x);
                    (i as u64, *s)
                },
            );
            assert_eq!(via_wrapper, via_scheduler, "{workers} workers");
        }
    }

    #[test]
    fn map_mut_matches_map_over_the_same_items() {
        let base: Vec<u32> = (0..37).collect();
        let scheduler = Scheduler::new(threads(4));
        for workers in [1, 2, 4, 16] {
            let mut items = base.clone();
            let got = scheduler.map_mut_with(&mut items, threads(workers), |i, x| {
                *x += 1;
                (i, *x)
            });
            let expect: Vec<(usize, u32)> =
                base.iter().enumerate().map(|(i, &x)| (i, x + 1)).collect();
            assert_eq!(got, expect, "{workers} workers");
            assert!(items.iter().zip(&base).all(|(a, b)| *a == b + 1));
        }
    }

    #[test]
    fn dispatch_runs_every_ready_task_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let scheduler = Scheduler::new(threads(workers));
            let slots: Vec<TaskSlot<u64>> = (0..29).map(|_| TaskSlot::new(0)).collect();
            let ready: Vec<usize> = (0..slots.len()).collect();
            for epoch in 1..=3_u64 {
                scheduler.dispatch(&slots, &ready, |_, count| *count += 1);
                for (i, slot) in slots.iter().enumerate() {
                    assert_eq!(*slot.lock(), epoch, "slot {i} on {workers} workers");
                }
            }
            let stats = scheduler.stats();
            assert_eq!(stats.epochs, 3);
            assert_eq!(stats.tasks, 3 * 29);
        }
    }

    #[test]
    fn dispatch_honors_a_partial_ready_list() {
        let scheduler = Scheduler::new(threads(4));
        let mut slots: Vec<TaskSlot<u64>> = (0..10).map(|_| TaskSlot::new(0)).collect();
        let ready = [1_usize, 4, 7];
        scheduler.dispatch(&slots, &ready, |idx, count| *count += idx as u64 + 1);
        for (i, slot) in slots.iter_mut().enumerate() {
            let expect = if ready.contains(&i) { i as u64 + 1 } else { 0 };
            assert_eq!(*slot.get_mut(), expect, "slot {i}");
        }
        // An empty epoch is a no-op.
        scheduler.dispatch(&slots, &[], |_, _: &mut u64| unreachable!());
    }

    #[test]
    fn dispatch_steals_when_shares_are_unbalanced() {
        // 2 workers over 8 tasks: one task sleeps, so the other worker
        // must claim (steal) most of the queue for the epoch to finish.
        let scheduler = Scheduler::new(threads(2));
        let slots: Vec<TaskSlot<u64>> = (0..8).map(|_| TaskSlot::new(0)).collect();
        let ready: Vec<usize> = (0..slots.len()).collect();
        scheduler.dispatch(&slots, &ready, |idx, count| {
            if idx == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            *count += 1;
        });
        for slot in &slots {
            assert_eq!(*slot.lock(), 1, "every task ran despite the straggler");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.tasks, 8);
        assert!(
            stats.steals >= 2,
            "the free worker stole the straggler's share (got {})",
            stats.steals
        );
    }

    #[test]
    fn phased_dispatch_is_a_strict_barrier_between_phases() {
        use std::sync::atomic::AtomicUsize;
        // Phase 1 tasks sleep; phase 2 tasks assert every phase-1 task
        // already ran. Any overlap across the barrier trips the assert.
        for workers in [1, 2, 4] {
            let scheduler = Scheduler::new(threads(workers));
            let slots: Vec<TaskSlot<u64>> = (0..12).map(|_| TaskSlot::new(0)).collect();
            let first: Vec<usize> = (0..6).collect();
            let second: Vec<usize> = (6..12).collect();
            let done_first = AtomicUsize::new(0);
            scheduler.dispatch_phased(&slots, &[&first, &second], |idx, count| {
                if idx < 6 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    done_first.fetch_add(1, Ordering::Relaxed);
                } else {
                    assert_eq!(
                        done_first.load(Ordering::Relaxed),
                        6,
                        "phase 2 task {idx} ran before phase 1 drained ({workers} workers)"
                    );
                }
                *count += 1;
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot.lock(), 1, "slot {i} ran exactly once");
            }
            let stats = scheduler.stats();
            assert_eq!(stats.epochs, 1, "phases account as one epoch");
            assert_eq!(stats.tasks, 12);
        }
    }

    #[test]
    fn phased_dispatch_matches_sequential_dispatches_and_skips_empty_phases() {
        let scheduler = Scheduler::new(threads(3));
        let slots: Vec<TaskSlot<u64>> = (0..9).map(|_| TaskSlot::new(0)).collect();
        let high = [0_usize, 3];
        let low: Vec<usize> = vec![1, 4, 7];
        scheduler.dispatch_phased(&slots, &[&high, &[], &low], |idx, count| {
            *count += idx as u64 + 1;
        });
        for (i, slot) in slots.iter().enumerate() {
            let expect = if high.contains(&i) || low.contains(&i) {
                i as u64 + 1
            } else {
                0
            };
            assert_eq!(*slot.lock(), expect, "slot {i}");
        }
        let stats = scheduler.stats();
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.tasks, 5);
        // An all-empty phased epoch is a no-op apart from accounting.
        scheduler.dispatch_phased(&slots, &[&[], &[]], |_, _: &mut u64| unreachable!());
        assert_eq!(scheduler.stats().epochs, 2);
    }

    #[test]
    fn phased_dispatch_still_steals_within_a_phase() {
        // 2 workers over one 8-task phase with a straggler: the free
        // worker must steal the remainder, exactly like flat dispatch.
        let scheduler = Scheduler::new(threads(2));
        let slots: Vec<TaskSlot<u64>> = (0..8).map(|_| TaskSlot::new(0)).collect();
        let ready: Vec<usize> = (0..slots.len()).collect();
        scheduler.dispatch_phased(&slots, &[&ready], |idx, count| {
            if idx == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            *count += 1;
        });
        for slot in &slots {
            assert_eq!(*slot.lock(), 1);
        }
        assert!(
            scheduler.stats().steals >= 2,
            "steal balance survives inside a phase (got {})",
            scheduler.stats().steals
        );
    }

    #[test]
    fn task_slot_access_paths_agree() {
        let mut slot = TaskSlot::new(5_u32);
        *slot.get_mut() += 1;
        *slot.lock() += 1;
        assert_eq!(slot.into_inner(), 7);
    }

    /// The pool's threads must not cost the scheduler its auto traits:
    /// it is shared across threads (the process-wide instance is a
    /// `static`) and used on both sides of `catch_unwind`.
    #[test]
    fn scheduler_is_shareable_and_unwind_safe() {
        fn assert_traits<T>()
        where
            T: Send + Sync + std::panic::UnwindSafe + std::panic::RefUnwindSafe,
        {
        }
        assert_traits::<Scheduler>();
    }

    #[test]
    fn scheduler_reports_its_worker_budget() {
        let scheduler = Scheduler::new(threads(3));
        assert_eq!(scheduler.workers().get(), 3);
        assert!(Scheduler::with_default_threads().workers().get() >= 1);
        assert_eq!(
            Scheduler::new(threads(2)).stats(),
            SchedulerStats::default()
        );
    }
}
