//! Fixed worker pool with a scope-like, panic-propagating batch entry point.
//!
//! The pool intentionally exposes a *single* execution primitive,
//! [`ThreadPool::run_indexed`]: run a `Sync` closure once for each index in
//! `0..tasks`, distributing indices over the workers *and* the calling
//! thread, and return only when every index has completed. Callers build
//! their passes on it directly: `pba-core`'s `Backend` runs one index per
//! [`Chunking`](crate::Chunking) chunk, and seed replication runs one index
//! per seed. Keeping the unsafe lifetime-erasure confined to this one
//! entry point makes the soundness argument short: the caller blocks until
//! the job's completion latch fires *and* every late-waking worker has left
//! the job slot, so every borrow smuggled to a worker is dead before
//! `run_indexed` returns.
//!
//! ## Allocation-free dispatch
//!
//! Dispatch reuses one long-lived job slot per pool instead of allocating a
//! job object per call: the caller publishes `(ctx, call, tasks)` under the
//! slot mutex with a bumped generation counter, wakes the workers through a
//! condvar, participates, and then retires the slot. Steady-state
//! `run_indexed` therefore performs **zero heap allocations** — a property
//! the engine's per-round allocation test (`tests/alloc_steady_state.rs`)
//! depends on. Concurrent callers are serialized by a dispatch mutex; a
//! nested `run_indexed` on the *same* pool from inside a task runs inline on
//! the calling lane (results are index-keyed, so inlining cannot change
//! them), which also rules out self-deadlock on the dispatch mutex.
//!
//! ## Utilization counters
//!
//! Every pool keeps cheap, always-on counters — jobs dispatched, task
//! indices executed — as relaxed atomics (one `fetch_add` per *chunk*, not
//! per item, for the engine's passes). Per-lane busy time additionally
//! requires two clock reads per job per lane and is therefore off by
//! default; [`ThreadPool::set_timing`] turns it on. [`ThreadPool::stats`]
//! snapshots everything as a [`PoolStats`], and
//! [`PoolStats::since`] diffs two snapshots to scope counters to one run —
//! this is what the engine reports through its `MetricsSink` (see
//! `pba-core`).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Snapshot of a pool's utilization counters.
///
/// Obtained from [`ThreadPool::stats`]; use [`PoolStats::since`] to diff
/// two snapshots and scope the counters to a region of interest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `run_indexed` invocations (including inline fast-path runs).
    pub jobs: u64,
    /// Total task indices executed (for chunked passes: chunks, not items).
    pub tasks: u64,
    /// Busy nanoseconds per lane (`lanes()` entries; workers first, the
    /// calling thread last). All zero unless [`ThreadPool::set_timing`]
    /// was enabled.
    pub busy_nanos: Vec<u64>,
}

impl PoolStats {
    /// Counters accumulated since `earlier` (a previous snapshot of the
    /// same pool). Saturates rather than panicking on mismatched inputs.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        let busy_nanos = self
            .busy_nanos
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(earlier.busy_nanos.get(i).copied().unwrap_or(0)))
            .collect();
        PoolStats {
            jobs: self.jobs.saturating_sub(earlier.jobs),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            busy_nanos,
        }
    }

    /// Total busy nanoseconds across all lanes.
    pub fn total_busy_nanos(&self) -> u64 {
        self.busy_nanos.iter().sum()
    }
}

/// Shared counter block; workers hold an `Arc` so counters survive
/// arbitrarily interleaved jobs without locking.
struct Counters {
    timing: AtomicBool,
    jobs: AtomicU64,
    tasks: AtomicU64,
    /// One slot per lane: workers `0..threads`, the caller at `threads`.
    busy: Vec<AtomicU64>,
}

impl Counters {
    fn new(lanes: usize) -> Self {
        Self {
            timing: AtomicBool::new(false),
            jobs: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            busy: (0..lanes).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Time `f` into lane `lane`'s busy counter when timing is enabled;
    /// otherwise run it with zero clock reads.
    fn timed<R>(&self, lane: usize, f: impl FnOnce() -> R) -> R {
        if self.timing.load(Ordering::Relaxed) {
            let start = Instant::now();
            let r = f();
            self.busy[lane].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            r
        } else {
            f()
        }
    }
}

/// The pool's single, reusable job slot. All fields are guarded by
/// `Shared::slot`; publication of a new job bumps `seq` so workers can tell
/// a fresh job from one they already drained.
struct Slot {
    /// Generation counter; workers remember the last value they acted on.
    seq: u64,
    /// Type-erased pointer to the caller's closure (`&F`). Null between jobs.
    ctx: *const (),
    /// Monomorphized trampoline that invokes `*ctx` with an index.
    call: Option<unsafe fn(*const (), usize)>,
    /// Total number of task indices in the current job.
    tasks: usize,
    /// True while the current job admits new participants.
    live: bool,
    /// Workers currently inside `participate` for the current job.
    participants: usize,
    /// Set once every task index of the current job has completed.
    done: bool,
    /// Set by `Drop` to terminate the workers.
    shutdown: bool,
}

// SAFETY: `ctx` points to a closure that is `Sync` (enforced by the bounds
// on `run_indexed`), and the pointer is only dereferenced between
// publication and retirement of a job, during which the caller is blocked
// inside `run_indexed`, keeping the referent alive.
unsafe impl Send for Slot {}

/// State shared between the caller and the workers.
struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for `slot.seq` to change.
    job_cv: Condvar,
    /// The caller waits here for `slot.done` and `slot.participants == 0`.
    done_cv: Condvar,
    /// Next task index to claim (reset per job).
    next: AtomicUsize,
    /// Task indices not yet completed (reset per job).
    remaining: AtomicUsize,
    /// Set when any task of the current job panicked.
    panicked: AtomicBool,
}

impl Shared {
    /// Claim and run indices of the current job until it is drained.
    ///
    /// Returns the number of indices this call executed. Panics inside the
    /// user closure are captured (so a worker thread never dies) and
    /// re-raised on the caller.
    fn participate(&self, ctx: *const (), call: unsafe fn(*const (), usize), tasks: usize) -> u64 {
        let mut executed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return executed;
            }
            executed += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: see `unsafe impl Send for Slot` — the caller keeps
                // the closure alive until the job is retired, and we only
                // run between publication and retirement.
                unsafe { call(ctx, i) }
            }));
            if result.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut slot = self.slot.lock().unwrap();
                slot.done = true;
                self.done_cv.notify_all();
            }
        }
    }
}

thread_local! {
    /// Address of the `Shared` block of the pool whose job this thread is
    /// currently executing (0 when not inside a pool task). Used to run
    /// same-pool nested `run_indexed` calls inline instead of deadlocking
    /// on the dispatch mutex.
    static ACTIVE_POOL: Cell<usize> = const { Cell::new(0) };
}

/// RAII guard marking this thread as executing tasks of the pool at `addr`.
struct ActivePoolGuard {
    prev: usize,
}

impl ActivePoolGuard {
    fn enter(addr: usize) -> Self {
        let prev = ACTIVE_POOL.with(|c| c.replace(addr));
        Self { prev }
    }
}

impl Drop for ActivePoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        ACTIVE_POOL.with(|c| c.set(prev));
    }
}

/// A fixed pool of worker threads for bulk-synchronous array passes.
///
/// The pool is cheap to share (`&ThreadPool` is all the API needs) and
/// long-lived: workers park on a condvar between jobs and dispatch reuses a
/// single job slot, so steady-state `run_indexed` allocates nothing.
/// Dropping the pool shuts the workers down and joins them.
///
/// # Examples
///
/// ```
/// use pba_par::ThreadPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicU64::new(0);
/// pool.run_indexed(100, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 4950);
/// assert!(pool.stats().tasks >= 100);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    /// Serializes concurrent `run_indexed` callers over the single job slot.
    dispatch: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    counters: Arc<Counters>,
}

impl ThreadPool {
    /// Create a pool with `threads` worker threads.
    ///
    /// `threads == 0` is allowed and yields a pool that executes everything
    /// on the calling thread (useful for tests and for forcing sequential
    /// execution through the same code path).
    pub fn new(threads: usize) -> Self {
        let counters = Arc::new(Counters::new(threads + 1));
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                seq: 0,
                ctx: std::ptr::null(),
                call: None,
                tasks: 0,
                live: false,
                participants: 0,
                done: false,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                let counters = Arc::clone(&counters);
                std::thread::Builder::new()
                    .name(format!("pba-par-{idx}"))
                    .spawn(move || worker_loop(shared, counters, idx))
                    .expect("failed to spawn pba-par worker")
            })
            .collect();
        Self {
            shared,
            dispatch: Mutex::new(()),
            workers,
            threads,
            counters,
        }
    }

    /// Create a pool sized to the machine: `available_parallelism() - 1`
    /// workers (the calling thread is the final lane), overridable with the
    /// `PBA_THREADS` environment variable (total lanes, minimum 1).
    pub(crate) fn with_default_size() -> Self {
        Self::new(default_lanes().saturating_sub(1))
    }

    /// Number of execution lanes: worker threads plus the calling thread.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.threads + 1
    }

    /// Enable or disable per-lane busy-time measurement.
    ///
    /// Off by default: the task/job counters are always on (relaxed atomic
    /// adds), but busy time costs two `Instant` reads per job per lane, so
    /// it is opt-in. Returns the previous setting.
    pub fn set_timing(&self, enabled: bool) -> bool {
        self.counters.timing.swap(enabled, Ordering::Relaxed)
    }

    /// Snapshot the utilization counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.counters.jobs.load(Ordering::Relaxed),
            tasks: self.counters.tasks.load(Ordering::Relaxed),
            busy_nanos: self
                .counters
                .busy
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Address used as this pool's identity for nesting detection.
    fn shared_addr(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// Run `f(i)` for every `i in 0..tasks`, in parallel, returning when all
    /// have completed. The calling thread participates in the work.
    ///
    /// Indices are claimed dynamically from a shared counter, so uneven task
    /// costs are load-balanced automatically. A nested call on the same pool
    /// from inside a task runs the whole batch inline on the calling lane.
    ///
    /// # Panics
    ///
    /// If any invocation of `f` panics, the panic is re-raised here (after
    /// all other indices have finished or been claimed).
    pub fn run_indexed<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if tasks == 0 {
            return;
        }
        self.counters.jobs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .tasks
            .fetch_add(tasks as u64, Ordering::Relaxed);
        let nested = ACTIVE_POOL.with(|c| c.get()) == self.shared_addr();
        if tasks == 1 || self.threads == 0 || nested {
            self.counters.timed(self.threads, || {
                for i in 0..tasks {
                    f(i);
                }
            });
            return;
        }

        unsafe fn call_impl<F: Fn(usize) + Sync>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` was created from `&f` below and `f` outlives the
            // job (the caller blocks until the slot is retired and empty of
            // participants before returning).
            let f = unsafe { &*(ctx as *const F) };
            f(i);
        }

        // One job at a time: the slot is a single broadcast cell.
        let _dispatch = self.dispatch.lock().unwrap();
        let shared = &*self.shared;
        shared.next.store(0, Ordering::Relaxed);
        shared.remaining.store(tasks, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        {
            let mut slot = shared.slot.lock().unwrap();
            slot.seq = slot.seq.wrapping_add(1);
            slot.ctx = &f as *const F as *const ();
            slot.call = Some(call_impl::<F>);
            slot.tasks = tasks;
            slot.live = true;
            slot.done = false;
            shared.job_cv.notify_all();
        }

        {
            let _active = ActivePoolGuard::enter(self.shared_addr());
            self.counters.timed(self.threads, || {
                shared.participate(&f as *const F as *const (), call_impl::<F>, tasks)
            });
        }

        // Retire the job: wait for the last task, stop admitting workers,
        // then wait until every participant has left so the borrow of `f`
        // is provably dead.
        {
            let mut slot = shared.slot.lock().unwrap();
            while !slot.done {
                slot = shared.done_cv.wait(slot).unwrap();
            }
            slot.live = false;
            while slot.participants > 0 {
                slot = shared.done_cv.wait(slot).unwrap();
            }
            slot.ctx = std::ptr::null();
            slot.call = None;
        }

        if shared.panicked.load(Ordering::Relaxed) {
            // Release the dispatch mutex before unwinding so a propagated
            // task panic cannot poison it and wedge the pool.
            drop(_dispatch);
            resume_unwind(Box::new("a pba-par task panicked"));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, counters: Arc<Counters>, lane: usize) {
    let mut last_seen = 0u64;
    loop {
        // Wait for a job generation we have not acted on yet.
        let (ctx, call, tasks) = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.seq != last_seen {
                    last_seen = slot.seq;
                    if slot.live {
                        slot.participants += 1;
                        break (
                            slot.ctx,
                            slot.call.expect("live slot has a call"),
                            slot.tasks,
                        );
                    }
                    // Job retired before we woke; keep waiting.
                }
                slot = shared.job_cv.wait(slot).unwrap();
            }
        };
        {
            let _active = ActivePoolGuard::enter(Arc::as_ptr(&shared) as usize);
            counters.timed(lane, || shared.participate(ctx, call, tasks));
        }
        let mut slot = shared.slot.lock().unwrap();
        slot.participants -= 1;
        if slot.participants == 0 {
            shared.done_cv.notify_all();
        }
    }
}

fn default_lanes() -> usize {
    if let Ok(value) = std::env::var("PBA_THREADS") {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            return parsed.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A process-wide default pool, created lazily on first use.
///
/// Sized by `PBA_THREADS` or `available_parallelism()`. Library code that
/// does not want to thread a pool through its API can use this.
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::with_default_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn zero_tasks_is_noop() {
        let pool = ThreadPool::new(2);
        pool.run_indexed(0, |_| panic!("must not run"));
        assert_eq!(pool.stats().jobs, 0);
    }

    #[test]
    fn zero_threads_runs_inline() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.lanes(), 1);
        let count = AtomicUsize::new(0);
        pool.run_indexed(17, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 17);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run_indexed(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for round in 0..20 {
            pool.run_indexed(100, |i| {
                total.fetch_add((round * i) as u64, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..20u64).map(|r| r * 4950).sum();
        assert_eq!(total.into_inner(), expected);
    }

    #[test]
    fn borrows_from_caller_stack_are_visible() {
        let pool = ThreadPool::new(2);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.run_indexed(1000, |i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 499_500);
    }

    #[test]
    fn nested_same_pool_calls_run_inline() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        pool.run_indexed(8, |_| {
            pool.run_indexed(4, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.into_inner(), 32);
    }

    #[test]
    fn concurrent_callers_are_serialized_not_corrupted() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run_indexed(64, |i| {
                            total.fetch_add(i as u64, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 2016);
    }

    #[test]
    fn panic_in_task_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run_indexed(5, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 5);
    }

    /// Stress: many consecutive panicking jobs — varying which lane's
    /// task blows up, multiple panics per job, panics in the final task —
    /// interleaved with healthy jobs. The pool must re-raise every time,
    /// never wedge a worker, keep running healthy jobs to completion, and
    /// keep its job/task counters consistent throughout.
    #[test]
    fn panic_stress_survives_repeated_crashing_jobs() {
        let pool = ThreadPool::new(4);
        let before = pool.stats();
        let healthy = AtomicUsize::new(0);
        let mut jobs = 0u64;
        let mut tasks = 0u64;
        for round in 0..50usize {
            // A crashing job: the panicking index moves each round so
            // every lane gets to be the one that unwinds, including the
            // last task of the batch.
            let n = 64 + round;
            let bad = round % n;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_indexed(n, |i| {
                    // Several tasks may panic in the same job; all must
                    // be contained by the workers.
                    if i == bad || (round % 7 == 0 && i % 13 == 0) {
                        panic!("chaos round {round} task {i}");
                    }
                });
            }));
            assert!(result.is_err(), "round {round}: panic was swallowed");
            jobs += 1;
            tasks += n as u64;
            // A healthy job straight after must run all tasks on the
            // same, still-live workers.
            pool.run_indexed(32, |_| {
                healthy.fetch_add(1, Ordering::Relaxed);
            });
            jobs += 1;
            tasks += 32;
        }
        assert_eq!(healthy.into_inner(), 50 * 32);
        let delta = pool.stats().since(&before);
        assert_eq!(delta.jobs, jobs, "job counter drifted across panics");
        assert_eq!(delta.tasks, tasks, "task counter drifted across panics");
        assert_eq!(pool.lanes(), 5, "lane count changed (4 workers + caller)");
    }

    #[test]
    fn global_pool_works() {
        let sum = AtomicU64::new(0);
        global_pool().run_indexed(64, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 2016);
    }

    #[test]
    fn counters_track_jobs_and_tasks() {
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        pool.run_indexed(37, |_| {});
        pool.run_indexed(1, |_| {}); // inline fast path counts too
        let delta = pool.stats().since(&before);
        assert_eq!(delta.jobs, 2);
        assert_eq!(delta.tasks, 38);
        // Timing disabled: no lane accumulated busy time.
        assert_eq!(delta.total_busy_nanos(), 0);
        assert_eq!(delta.busy_nanos.len(), pool.lanes());
    }

    #[test]
    fn timing_accumulates_busy_nanos() {
        let pool = ThreadPool::new(2);
        assert!(!pool.set_timing(true));
        let before = pool.stats();
        pool.run_indexed(64, |_| {
            std::hint::black_box((0..2000).sum::<u64>());
        });
        let delta = pool.stats().since(&before);
        assert!(delta.total_busy_nanos() > 0);
        assert!(pool.set_timing(false));
    }

    #[test]
    fn stats_since_is_saturating() {
        let a = PoolStats {
            jobs: 1,
            tasks: 2,
            busy_nanos: vec![5],
        };
        let b = PoolStats {
            jobs: 3,
            tasks: 7,
            busy_nanos: vec![9, 4],
        };
        let d = b.since(&a);
        assert_eq!(d.jobs, 2);
        assert_eq!(d.tasks, 5);
        assert_eq!(d.busy_nanos, vec![4, 4]);
        assert_eq!(a.since(&b).jobs, 0);
    }
}
