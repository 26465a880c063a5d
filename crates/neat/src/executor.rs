//! Persistent work-stealing evaluation engine (population-level parallelism).
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
//! and reused across generations, and each evaluation batch is distributed
//! through a shared [`crossbeam::deque::Injector`] plus per-worker
//! work-stealing deques, so idle workers steal queued genomes from busy
//! ones instead of waiting at a chunk boundary.
//!
//! # Determinism contract
//!
//! Parallel evaluation is **bit-identical** to serial evaluation provided
//! the job closure is a pure function of the *job index* (and any state it
//! captures immutably):
//!
//! 1. Every index in `0..n` is executed **exactly once** per batch — the
//!    deques deliver each queued index to a single thread.
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
//! A panic inside a job is caught on the worker, remaining queued jobs are
//! drained unexecuted, and the payload is re-raised on the submitting
//! thread once the batch has quiesced — the pool itself survives and can
//! run further batches.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A batch of `n` jobs, type-erased. The `'static` lifetime is a lie told
/// to the worker threads; see the safety argument in [`Executor::run`].
/// (`Send` holds automatically: `&T` is `Send` when `T: Sync`, and the
/// task is `Sync` by bound.)
#[derive(Clone, Copy)]
struct BatchDesc {
    task: &'static (dyn Fn(usize) + Sync),
    epoch: u64,
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
    batch: Option<BatchDesc>,
    /// Monotonic batch counter; lets sleeping workers distinguish a new
    /// batch from the one they already finished.
    epoch: u64,
    /// Threads currently inside the processing loop of the live batch.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new batch (or shutdown) is available.
    job_cv: Condvar,
    /// Signals the submitter that the live batch may have quiesced.
    done_cv: Condvar,
    /// Global queue the submitter seeds with job indices.
    injector: Injector<usize>,
    /// Thief handles onto every worker's local deque.
    stealers: Vec<Stealer<usize>>,
    /// Jobs of the live batch that have been taken off a queue (executed
    /// or drained after a panic).
    completed: AtomicUsize,
    /// Set when a job panicked: remaining jobs are drained, not executed.
    abort: AtomicBool,
    /// First panic payload of the live batch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Shared {
    /// Takes one job index: local deque first, then the injector (batched),
    /// then stealing from sibling workers. `local` may be `None` for the
    /// submitting thread, which steals single jobs instead of batches.
    fn find_job(&self, local: Option<&Worker<usize>>) -> Option<usize> {
        if let Some(local) = local {
            if let Some(i) = local.pop() {
                return Some(i);
            }
            loop {
                match self.injector.steal_batch_and_pop(local) {
                    Steal::Success(i) => return Some(i),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        } else if let Some(i) = self.injector.steal().success() {
            return Some(i);
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(i) => return Some(i),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Runs jobs of the live batch until no queued work remains. Shared by
    /// the worker threads and the submitting thread. The caller must have
    /// registered itself in `state.active` while holding the state lock.
    fn process(&self, batch: BatchDesc, n: usize, local: Option<&Worker<usize>>) {
        while let Some(index) = self.find_job(local) {
            if !self.abort.load(Ordering::Acquire) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.task)(index))) {
                    self.abort.store(true, Ordering::Release);
                    let mut slot = self
                        .panic
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.get_or_insert(payload);
                }
            }
            // Count drained-after-abort jobs too: completion means "no job
            // left on any queue", which is what the submitter waits for.
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                let _guard = self
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                self.done_cv.notify_all();
            }
        }
    }

    fn worker_loop(&self, local: Worker<usize>) {
        let mut last_epoch = 0u64;
        loop {
            let batch = {
                let mut state = self
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if state.shutdown {
                        return;
                    }
                    match state.batch {
                        Some(batch) if batch.epoch != last_epoch => {
                            state.active += 1;
                            break batch;
                        }
                        _ => {
                            state = self
                                .job_cv
                                .wait(state)
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                        }
                    }
                }
            };
            last_epoch = batch.epoch;
            let _entry = PoolEntryGuard::enter(self as *const Shared as usize);
            // Workers pass `usize::MAX` as the batch size so the
            // `completed == n` fast-path notification never fires here;
            // their authoritative completion signal is `active` reaching 0
            // when they leave the processing loop below.
            self.process(batch, usize::MAX, Some(&local));
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.active -= 1;
            if state.active == 0 {
                self.done_cv.notify_all();
            }
        }
    }
}

/// A persistent pool of evaluation workers with work-stealing scheduling.
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
        let locals: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<usize>> = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                batch: None,
                epoch: 0,
                active: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            injector: Injector::new(),
            stealers,
            completed: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let threads_spawned = AtomicU64::new(0);
        let handles = locals
            .into_iter()
            .enumerate()
            .map(|(id, local)| {
                let shared = Arc::clone(&shared);
                threads_spawned.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("genesys-eval-{id}"))
                    .spawn(move || shared.worker_loop(local))
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
    /// finished. Jobs are pulled from a shared work-stealing deque, so the
    /// assignment of jobs to threads is load-balanced, not chunked.
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
        let _batch_guard = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY (lifetime erasure): workers only dereference `task`
        // between registering in `state.active` (under the state lock,
        // while the batch is live) and deregistering. Before returning,
        // this function (a) waits until every job has been taken off the
        // queues (`completed == n`) and every participant has left the
        // processing loop (`active == 0`), and (b) clears `state.batch`,
        // so no thread can observe the reference afterwards. The borrow
        // therefore outlives every dereference, and the `'static` cast is
        // never acted upon.
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };

        self.shared.completed.store(0, Ordering::SeqCst);
        self.shared.abort.store(false, Ordering::SeqCst);
        for i in 0..n {
            self.shared.injector.push(i);
        }
        let batch = {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.epoch += 1;
            let batch = BatchDesc {
                task: task_static,
                epoch: state.epoch,
            };
            state.batch = Some(batch);
            // The submitter participates too (caller-runs).
            state.active += 1;
            self.shared.job_cv.notify_all();
            batch
        };
        self.shared.process(batch, n, None);
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.active -= 1;
        while !(self.shared.completed.load(Ordering::Acquire) >= n && state.active == 0) {
            state = self
                .shared
                .done_cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        state.batch = None;
        drop(state);
        let payload = self
            .shared
            .panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(payload) = payload {
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
        let slots = SliceSlots::new(&mut out);
        self.run(n, |i| {
            // SAFETY: each index is delivered to exactly one job (executor
            // contract #1), so writes to distinct slots never alias.
            unsafe { *slots.get(i) = Some(f(i)) };
        });
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
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SliceSlots::new(&mut out);
        let item_slots = SliceSlots::new(items);
        self.run(n, |i| {
            // SAFETY: each index is delivered to exactly one job (executor
            // contract #1), so the item and result slots of distinct jobs
            // never alias.
            unsafe { *slots.get(i) = Some(f(i, &mut *item_slots.get(i))) };
        });
        out.into_iter()
            .map(|r| r.expect("executor ran every index"))
            .collect()
    }

    /// Runs `f(i, chunk_i)` over the disjoint fixed-size chunks of
    /// `items`, in parallel, where chunk `i` is
    /// `items[i * chunk_len..(i + 1) * chunk_len]`. This is the primitive
    /// behind the speciation distance matrix: row `i` (one genome against
    /// every representative) is one index-keyed job.
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` is not a multiple of `chunk_len`.
    pub fn for_each_chunk<T, F>(&self, items: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if items.is_empty() {
            return;
        }
        assert!(
            chunk_len > 0 && items.len().is_multiple_of(chunk_len),
            "items must split into whole chunks"
        );
        let n = items.len() / chunk_len;
        let chunks = ChunkSlots::new(items, chunk_len);
        self.run(n, |i| {
            // SAFETY: chunks at distinct indices are disjoint, and each
            // index is delivered to exactly one job.
            f(i, unsafe { chunks.get(i) });
        });
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
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
        let mut state = {
            let mut free = self
                .free
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            free.pop()
        }
        .unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            (self.make)()
        });
        let result = f(&mut state);
        self.free
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(state);
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

unsafe impl<T: Send> Sync for SliceSlots<T> {}
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

/// Shared mutable access to disjoint fixed-size chunks of a slice; the
/// chunked sibling of [`SliceSlots`].
struct ChunkSlots<T> {
    ptr: *mut T,
    chunk_len: usize,
}

unsafe impl<T: Send> Sync for ChunkSlots<T> {}
unsafe impl<T: Send> Send for ChunkSlots<T> {}

impl<T> ChunkSlots<T> {
    fn new(slice: &mut [T], chunk_len: usize) -> Self {
        ChunkSlots {
            ptr: slice.as_mut_ptr(),
            chunk_len,
        }
    }

    /// # Safety
    ///
    /// The caller must ensure chunk `i` is in bounds and that no two
    /// threads access the same chunk concurrently.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut [T] {
        std::slice::from_raw_parts_mut(self.ptr.add(i * self.chunk_len), self.chunk_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

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
    fn for_each_chunk_covers_disjoint_rows() {
        let pool = Executor::new(3);
        let mut matrix = vec![0u32; 7 * 5];
        pool.for_each_chunk(&mut matrix, 5, |row, chunk| {
            for (col, cell) in chunk.iter_mut().enumerate() {
                *cell = (row * 5 + col) as u32;
            }
        });
        assert_eq!(matrix, (0..35).collect::<Vec<_>>());
        // Empty input is a no-op regardless of chunk length.
        pool.for_each_chunk(&mut [] as &mut [u32], 5, |_, _| panic!("no chunks"));
    }

    #[test]
    #[should_panic(expected = "whole chunks")]
    fn for_each_chunk_rejects_ragged_input() {
        let pool = Executor::new(2);
        pool.for_each_chunk(&mut [1u8, 2, 3], 2, |_, _| {});
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
