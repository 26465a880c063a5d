//! Persistent evaluation engine (population-level parallelism).
//!
//! The paper's PLP configuration (Table III, CPU_b/CPU_d) fans genome
//! evaluation out over OS threads. The original implementation spawned
//! fresh scoped threads every generation and split the population into
//! `div_ceil(n, threads)` static chunks — so (a) thousands of generations
//! paid thread startup thousands of times, and (b) one deep genome or slow
//! gym episode at the end of a chunk serialized the whole generation (and
//! when `n % threads` was small the last thread received no work at all).
//!
//! An [`Executor`] fixes both: a pool of worker threads is spawned **once**
//! and reused across generations, and each batch hands its indices out
//! through one shared claim counter. Every participant takes the next run
//! of unclaimed indices with a single `fetch_add` until none remain, so a
//! thread that finishes early claims more work instead of waiting at a
//! chunk boundary. Runs are short (about an eighth of a fair share, at
//! most 32 indices), so no thread is left holding a long tail of
//! unstarted jobs when the batch runs dry.
//!
//! # Determinism contract
//!
//! Parallel evaluation is **bit-identical** to serial evaluation provided
//! the job closure is a pure function of the *job index* (and any state it
//! captures immutably):
//!
//! 1. Every index in `0..n` is executed **exactly once** per batch — the
//!    claim counter hands each index to a single thread.
//! 2. Results are gathered **by index**, never by completion order; slot
//!    `i` of the output always holds the result of job `i`.
//! 3. Which thread runs a job, and in what order, is *not* deterministic.
//!    Any randomness must therefore derive from the job index (e.g.
//!    `genesys_gym::episode_seed(base, generation, index)`), never from a
//!    worker id, a shared `fetch_add` counter, or thread-local RNG state.
//!    Per-worker streams would make fitness depend on the race winner.
//! 4. The batch submitter participates in the processing loop (caller-runs
//!    semantics), so an `Executor` with `workers == 1` still makes progress
//!    even before its worker wakes, and small batches finish without a
//!    full pool wake-up.
//! 5. A job may cover a contiguous **chunk** of items rather than one (the
//!    population's evaluation hands each job a run of genomes, for
//!    workloads that step several genomes in lockstep). The chunking is a
//!    pure function of the item count and the worker count, each chunk
//!    writes only its own disjoint output slots, and every item's result
//!    must still be a pure function of that item's index — never of the
//!    chunk it landed in or of its neighbours — so results are identical
//!    at any chunk length, and therefore at any worker count.
//!
//! A panic inside a job is caught on the thread that claimed it, the rest
//! of the batch is skipped, and the payload is re-raised on the submitting
//! thread once the batch has quiesced — the pool itself survives and can
//! run further batches.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The longest run of indices one claim takes. It bounds the tail of a
/// large batch: once the counter passes `n`, no participant holds more
/// than this many unstarted jobs.
const MAX_RUN: usize = 32;

/// Indices per claim for a batch of `n` jobs shared by `participants`
/// threads: about eight claims per participant's fair share, so early
/// finishers keep finding work, between 1 and `MAX_RUN`.
fn run_len(n: usize, participants: usize) -> usize {
    (n / (8 * participants)).clamp(1, MAX_RUN)
}

/// One batch of `n` index jobs. It lives in [`Executor::run`]'s stack
/// frame; the workers see it through a `'static` reference, a lie whose
/// safety argument is in `run`.
struct Batch<'a> {
    task: &'a (dyn Fn(usize) + Sync),
    n: usize,
    /// Indices taken per claim.
    run: usize,
    /// The first unclaimed index. Claims that start at or past `n` find
    /// the batch exhausted.
    next: AtomicUsize,
    /// Set when a job panicked: claimed indices are skipped, not run.
    aborted: AtomicBool,
    /// First panic payload of the batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch<'_> {
    /// Claims runs of indices and executes them until the batch is
    /// exhausted or aborted. Shared by the worker threads and the
    /// submitting thread.
    fn process(&self) {
        // `Relaxed` suffices for `next` and `aborted`: they publish no
        // other data. Job results and the panic payload reach the
        // submitter through the state lock every participant takes when
        // it leaves the batch.
        loop {
            let start = self.next.fetch_add(self.run, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            for index in start..(start + self.run).min(self.n) {
                if self.aborted.load(Ordering::Relaxed) {
                    return;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(index))) {
                    self.aborted.store(true, Ordering::Relaxed);
                    lock(&self.panic).get_or_insert(payload);
                    return;
                }
            }
        }
    }
}

/// Locks `mutex`, ignoring poison: every value guarded here stays
/// consistent even if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Identities (by `Shared` address) of the pools whose jobs this
    /// thread is currently executing. A re-entrant [`Executor::run`] on a
    /// pool already on this stack is a guaranteed deadlock (the submit
    /// lock is held, or the calling worker can never finish the outer
    /// batch), so it is turned into a panic with a clear message instead.
    static ACTIVE_POOLS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII marker for "this thread is processing a batch of pool `.0`".
struct PoolEntryGuard(usize);

impl PoolEntryGuard {
    fn enter(pool_id: usize) -> PoolEntryGuard {
        ACTIVE_POOLS.with(|stack| stack.borrow_mut().push(pool_id));
        PoolEntryGuard(pool_id)
    }

    fn is_active(pool_id: usize) -> bool {
        ACTIVE_POOLS.with(|stack| stack.borrow().contains(&pool_id))
    }
}

impl Drop for PoolEntryGuard {
    fn drop(&mut self) {
        ACTIVE_POOLS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let pos = stack
                .iter()
                .rposition(|&p| p == self.0)
                .expect("entry guard was pushed");
            stack.remove(pos);
        });
    }
}

struct PoolState {
    /// The live batch, if any.
    batch: Option<&'static Batch<'static>>,
    /// Monotonic batch counter; lets sleeping workers distinguish a new
    /// batch from the one they already left.
    epoch: u64,
    /// Threads currently inside the live batch's processing loop. The
    /// batch is done when this reaches 0.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new batch (or shutdown) is available.
    job_cv: Condvar,
    /// Signals the submitter that the live batch may have quiesced.
    done_cv: Condvar,
}

impl Shared {
    fn worker_loop(&self) {
        let mut seen = 0u64;
        loop {
            let batch = {
                let mut state = lock(&self.state);
                loop {
                    if state.shutdown {
                        return;
                    }
                    match state.batch {
                        Some(batch) if state.epoch != seen => {
                            seen = state.epoch;
                            state.active += 1;
                            break batch;
                        }
                        _ => {
                            state = self
                                .job_cv
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            let _entry = PoolEntryGuard::enter(self as *const Shared as usize);
            batch.process();
            let mut state = lock(&self.state);
            state.active -= 1;
            if state.active == 0 {
                self.done_cv.notify_all();
            }
        }
    }
}

/// A persistent pool of evaluation workers that share each batch through
/// one claim counter.
///
/// Create one per process (or per experiment binary) and share it across
/// populations and generations via `Arc`; see the module docs for the
/// determinism contract. Dropping the executor shuts the workers down and
/// joins them.
pub struct Executor {
    shared: Arc<Shared>,
    /// Serializes batches: one live batch at a time even when the pool is
    /// shared between populations on different threads.
    submit: Mutex<()>,
    workers: usize,
    /// Threads spawned by this pool over its whole lifetime (monotonic).
    /// Equals `workers` forever: construction is the only spawn site, which
    /// is what tests assert to prove reuse across generations.
    threads_spawned: AtomicU64,
    handles: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Executor {
    /// Spawns a pool of `workers` threads (clamped to at least 1). The
    /// threads live until the executor is dropped; no further threads are
    /// ever spawned, no matter how many batches run.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                active: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads_spawned = AtomicU64::new(0);
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                threads_spawned.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("genesys-eval-{id}"))
                    .spawn(move || shared.worker_loop())
                    .expect("failed to spawn evaluation worker")
            })
            .collect();
        Executor {
            shared,
            submit: Mutex::new(()),
            workers,
            threads_spawned,
            handles,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Threads this pool has spawned over its whole lifetime (monotonic).
    /// Stays equal to [`Executor::workers`] no matter how many batches
    /// run — the observable proof that evaluation never spawns threads in
    /// the hot path. Per-instance, so assertions on it are immune to other
    /// pools being created concurrently (e.g. by parallel tests).
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::SeqCst)
    }

    /// Runs `task(i)` for every `i in 0..n`, returning once all jobs have
    /// finished. The workers and the calling thread claim short runs of
    /// indices from one shared counter, so the assignment of jobs to
    /// threads is load-balanced, not chunked.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any job (remaining jobs are
    /// skipped). The pool survives and can run further batches.
    ///
    /// Also panics on **re-entrant use**: calling `run` on a pool from
    /// inside one of that same pool's jobs (directly, or by evaluating a
    /// nested `Population` bound to the shared pool) would deadlock — the
    /// submit lock is held for the outer batch, and a worker that blocks
    /// submitting can never finish it. Nested evaluation must be serial or
    /// use a separate pool. Distinct pools may be nested freely.
    pub fn run<F>(&self, n: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        let pool_id = Arc::as_ptr(&self.shared) as usize;
        assert!(
            !PoolEntryGuard::is_active(pool_id),
            "re-entrant Executor::run from inside one of this pool's own jobs \
             would deadlock; evaluate nested work serially or on a separate pool"
        );
        let _entry = PoolEntryGuard::enter(pool_id);
        let _batch_guard = lock(&self.submit);
        let batch = Batch {
            task: &task,
            n,
            run: run_len(n, self.workers + 1),
            next: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            panic: Mutex::new(None),
        };
        // SAFETY (lifetime erasure): workers only dereference the batch
        // between registering in `state.active` (under the state lock,
        // while `state.batch` holds it) and deregistering. Before
        // `batch` goes out of scope, this function waits until every
        // participant has left the processing loop (`active == 0`) and
        // clears `state.batch` under the same lock, so no thread can
        // reach the reference afterwards. The borrow therefore outlives
        // every dereference, and the `'static` cast is never acted upon.
        let erased: &'static Batch<'static> =
            unsafe { std::mem::transmute::<&Batch<'_>, &'static Batch<'static>>(&batch) };
        {
            let mut state = lock(&self.shared.state);
            state.epoch += 1;
            state.batch = Some(erased);
            // The submitter participates too (caller-runs).
            state.active += 1;
            self.shared.job_cv.notify_all();
        }
        batch.process();
        let mut state = lock(&self.shared.state);
        state.active -= 1;
        while state.active > 0 {
            state = self
                .shared
                .done_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.batch = None;
        drop(state);
        let payload = batch.panic.into_inner();
        if let Some(payload) = payload.unwrap_or_else(PoisonError::into_inner) {
            std::panic::resume_unwind(payload);
        }
    }

    /// Maps `f` over `0..n`, collecting results **by index** — slot `i`
    /// always holds `f(i)` regardless of which worker computed it.
    pub fn map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        self.for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
        out.into_iter()
            .map(|r| r.expect("executor ran every index"))
            .collect()
    }

    /// Runs `f(i, &mut items[i])` for every index in parallel, collecting
    /// the per-index results by index. Each job owns exactly one disjoint
    /// slot of `items`, so index-keyed jobs can build results **in place**
    /// (e.g. the reproduction pipeline writing each child genome into its
    /// preallocated arena slot) without per-job allocation.
    pub fn map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        let item_slots = SliceSlots::new(items);
        // SAFETY: each index is delivered to exactly one job (executor
        // contract #1), so the item slots of distinct jobs never alias.
        self.map(n, |i| f(i, unsafe { item_slots.get(i) }))
    }

    /// Runs `f(i, &mut items[i])` for every index in parallel, like
    /// [`Executor::map_mut`] without a result vector: each job writes its
    /// output into its own slot (one speciation scan row per genome, one
    /// evaluation chunk per job).
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let slots = SliceSlots::new(items);
        // SAFETY: each index is delivered to exactly one job (executor
        // contract #1), so writes to distinct slots never alias.
        self.run(n, |i| f(i, unsafe { slots.get(i) }));
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-thread reusable scratch state for executor jobs.
///
/// Evaluation jobs need mutable workspace (e.g. a
/// [`crate::network::Scratch`] plus gym rollout buffers) that is expensive
/// to reallocate per job but must not be shared between threads. A
/// `WorkerLocal` is a checkout pool: [`WorkerLocal::with`] hands the
/// calling thread an instance for the duration of one job — reusing a
/// previously returned one when available, creating a fresh one (via the
/// factory) only when all instances are currently checked out. The live
/// instance count is therefore bounded by the number of threads ever
/// concurrently inside `with`, no matter how many jobs run.
///
/// Determinism: scratch contents never carry information between jobs
/// (each job fully overwrites what it reads), so which instance a job
/// receives cannot affect results — consistent with the executor's
/// determinism contract.
pub struct WorkerLocal<S> {
    free: Mutex<Vec<S>>,
    make: Box<dyn Fn() -> S + Send + Sync>,
    created: AtomicUsize,
}

impl<S> fmt::Debug for WorkerLocal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerLocal")
            .field("created", &self.created.load(Ordering::Relaxed))
            .finish()
    }
}

impl<S> WorkerLocal<S> {
    /// Creates an empty pool; `make` builds one instance per concurrent
    /// thread, lazily.
    pub fn new(make: impl Fn() -> S + Send + Sync + 'static) -> WorkerLocal<S> {
        WorkerLocal {
            free: Mutex::new(Vec::new()),
            make: Box::new(make),
            created: AtomicUsize::new(0),
        }
    }

    /// Runs `f` with a checked-out instance; the instance is returned to
    /// the pool afterwards for reuse by the next job on any thread. If `f`
    /// panics the instance is dropped, not returned.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let free = lock(&self.free).pop();
        let mut state = free.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            (self.make)()
        });
        let result = f(&mut state);
        lock(&self.free).push(state);
        result
    }

    /// Instances created so far — bounded by the peak number of threads
    /// concurrently inside [`WorkerLocal::with`], which is what tests
    /// assert to prove buffer reuse across jobs and generations.
    pub fn instances(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }
}

/// Shared mutable access to disjoint slots of a slice. The executor's
/// exactly-once index delivery guarantees writes never alias.
struct SliceSlots<T> {
    ptr: *mut T,
}

// SAFETY: the one field points into a slice whose slots `get` hands out
// only to distinct jobs, so sharing or sending a `SliceSlots` lets other
// threads take `&mut T` to disjoint slots, which `T: Send` allows.
unsafe impl<T: Send> Sync for SliceSlots<T> {}
// SAFETY: as for `Sync` above.
unsafe impl<T: Send> Send for SliceSlots<T> {}

impl<T> SliceSlots<T> {
    fn new(slice: &mut [T]) -> Self {
        SliceSlots {
            ptr: slice.as_mut_ptr(),
        }
    }

    /// # Safety
    ///
    /// The caller must ensure `i` is in bounds and that no two threads
    /// access the same slot concurrently.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU32, AtomicUsize};

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Executor::new(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn every_index_runs_exactly_once_over_many_batches() {
        // Three workers plus the caller contend for one counter. The sizes
        // cover the empty batch, one job, fewer jobs than participants, a
        // prime (runs that do not divide it) and a batch long enough to
        // take full MAX_RUN claims.
        const SIZES: [usize; 5] = [0, 1, 3, 1_009, 10_000];
        let pool = Executor::new(3);
        let hits: Vec<AtomicU32> = (0..10_000).map(|_| AtomicU32::new(0)).collect();
        for batch in 0..1_000 {
            let n = SIZES[batch % SIZES.len()];
            pool.run(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                let expect = u32::from(i < n);
                assert_eq!(
                    h.swap(0, Ordering::Relaxed),
                    expect,
                    "batch {batch}, index {i}"
                );
            }
        }
    }

    #[test]
    fn every_participant_claims_a_run() {
        // Four jobs that each wait until all four are running: the batch
        // can only finish if the three workers and the caller each claim
        // one of them concurrently.
        let pool = Executor::new(3);
        let entered = AtomicUsize::new(0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let threads = pool.map(4, |_| {
            entered.fetch_add(1, Ordering::SeqCst);
            while entered.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            std::thread::current().id()
        });
        assert_eq!(
            entered.load(Ordering::SeqCst),
            4,
            "all four jobs ran at once"
        );
        assert_eq!(threads.iter().collect::<HashSet<_>>().len(), 4);
    }

    #[test]
    fn run_length_shrinks_with_the_batch_and_is_capped() {
        assert_eq!(run_len(1, 4), 1);
        assert_eq!(run_len(3, 4), 1);
        assert_eq!(run_len(64, 2), 4);
        assert_eq!(run_len(10_000, 2), MAX_RUN);
    }

    #[test]
    fn map_gathers_by_index() {
        let pool = Executor::new(3);
        let out = pool.map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_mut_updates_slots_and_gathers_by_index() {
        let pool = Executor::new(4);
        let mut items: Vec<u64> = (0..100).collect();
        let out = pool.map_mut(&mut items, |i, item| {
            *item *= 2;
            i as u64 + *item
        });
        assert_eq!(items, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(out, (0..100).map(|i| 3 * i).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_writes_every_slot() {
        let pool = Executor::new(3);
        let mut rows = vec![0u32; 35];
        pool.for_each_mut(&mut rows, |i, row| *row = i as u32 * 3);
        assert_eq!(rows, (0..35).map(|i| i * 3).collect::<Vec<_>>());
        pool.for_each_mut(&mut [] as &mut [u32], |_, _| panic!("no slots"));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = Executor::new(2);
        pool.run(0, |_| panic!("must not run"));
        assert!(pool.map(0, |i| i).is_empty());
    }

    #[test]
    fn single_worker_pool_completes() {
        let pool = Executor::new(1);
        let out = pool.map(32, |i| i + 1);
        assert_eq!(out[31], 32);
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let pool = Executor::new(4);
        assert_eq!(pool.threads_spawned(), 4);
        for round in 0..5 {
            let out = pool.map(64, move |i| i + round);
            assert_eq!(out[0], round);
        }
        assert_eq!(pool.threads_spawned(), 4, "batches must not spawn threads");
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = Executor::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("unlucky genome");
                }
            });
        }));
        assert!(result.is_err(), "job panic must reach the submitter");
        // The pool must still work afterwards.
        let out = pool.map(16, |i| i * 2);
        assert_eq!(out[8], 16);
    }

    #[test]
    fn a_panic_skips_the_rest_of_its_batch_and_is_raised_once() {
        let pool = Executor::new(3);
        let n = 10_000;
        assert_eq!(run_len(n, 4), MAX_RUN);
        let ran: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(n, |i| {
                ran[i].fetch_add(1, Ordering::Relaxed);
                if i % MAX_RUN == 0 {
                    panic!("genome {i}");
                }
            });
        }));
        let payload = result.expect_err("the panic reaches the submitter");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with("genome "), "{message}");
        // Every claimed run opens on a panicking index, so each claim runs
        // exactly one job: nothing else in any run executes, and the
        // participants stop claiming once the batch has aborted.
        let executed: Vec<usize> = (0..n)
            .filter(|&i| ran[i].load(Ordering::Relaxed) > 0)
            .collect();
        assert!(executed.iter().all(|i| i % MAX_RUN == 0), "{executed:?}");
        assert!(
            executed.len() <= 4,
            "one run per participant at most: {executed:?}"
        );
        assert!(ran.iter().all(|r| r.load(Ordering::Relaxed) <= 1));
        // The pool then runs the next batch in full.
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.run(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn imbalanced_jobs_all_complete() {
        let pool = Executor::new(4);
        let out = pool.map(40, |i| {
            // Simulate stragglers: later indices do quadratically more work.
            let mut acc = 0u64;
            for k in 0..(i as u64 * i as u64 * 50) {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            (i, acc)
        });
        let indices: HashSet<usize> = out.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices.len(), 40);
    }

    #[test]
    fn more_workers_than_jobs() {
        let pool = Executor::new(8);
        let out = pool.map(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn worker_local_reuses_instances_across_batches() {
        let pool = Executor::new(4);
        let scratch: WorkerLocal<Vec<u64>> = WorkerLocal::new(Vec::new);
        for _round in 0..5 {
            pool.run(64, |i| {
                scratch.with(|buf| {
                    buf.clear();
                    buf.extend(0..(i as u64 % 7));
                });
            });
        }
        // 1 submitter + 4 workers can be concurrently active at most.
        assert!(
            scratch.instances() <= 5,
            "instances bounded by participants, got {}",
            scratch.instances()
        );
        assert!(scratch.instances() >= 1);
    }

    #[test]
    fn worker_local_serial_use_creates_one_instance() {
        let scratch: WorkerLocal<Vec<u8>> = WorkerLocal::new(Vec::new);
        for _ in 0..100 {
            scratch.with(|buf| buf.push(1));
        }
        assert_eq!(scratch.instances(), 1);
        // The single instance accumulated all pushes: proof of reuse.
        scratch.with(|buf| assert_eq!(buf.len(), 100));
    }

    #[test]
    fn reentrant_run_panics_instead_of_deadlocking() {
        let pool = Executor::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |_| pool.run(1, |_| {}));
        }));
        assert!(result.is_err(), "nested run on the same pool must panic");
        // Distinct pools may nest, and the outer pool still works.
        let inner = Executor::new(2);
        let out = pool.map(4, |i| inner.map(2, move |j| i * 10 + j)[1]);
        assert_eq!(out, vec![1, 11, 21, 31]);
        assert_eq!(pool.map(3, |i| i + 1), vec![1, 2, 3]);
    }
}
