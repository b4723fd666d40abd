//! A persistent work-stealing worker pool for the superstep executor.
//!
//! The original `ExecMode::Threaded` scheduler spawned a fresh
//! `crossbeam::thread::scope` for every phase of every parallel step and
//! statically chunked ranks contiguously. That has two costs the paper's
//! workload makes visible: thread spawn/join overhead dominates small
//! steps (Distributed Southwell runs two short phases per step, most of
//! which relax only a handful of "winning" ranks), and contiguous chunking
//! clusters the hot ranks of an imbalanced step onto one thread.
//!
//! This pool fixes both. Workers are created **once per executor** and
//! parked on a condvar between dispatches. A dispatch publishes a
//! type-erased task closure plus a task count; workers self-schedule
//! batches of `grain` consecutive task indices from a shared atomic cursor
//! (chunked self-scheduling — the lock-free equivalent of a work-stealing
//! deque for an indexed task list: whichever worker finishes early steals
//! the next batch). Hot ranks therefore spread across workers no matter
//! where they sit in rank order, and a tiny grain amortizes the cursor
//! traffic when subdomains are small.
//!
//! Determinism is unaffected by construction: a task index is claimed by
//! exactly one worker (`fetch_add`), every task writes only to its own
//! preallocated result slot, and the dispatch does not return until every
//! worker has quiesced — scheduling order can change *when* a rank runs,
//! never *what* it computes or where the result lands.
//!
//! A task that panics does not take its worker down: the worker catches
//! the panic, finishes the dispatch, and the dispatcher re-raises the
//! first payload once every worker has quiesced — the same panic the
//! caller would see had the task run on its own thread.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A raw pointer a pool task may share across workers. Sound only where
/// each worker dereferences the indices it claimed from the atomic
/// cursor, and those claims are disjoint.
pub(crate) struct SyncPtr<T>(pub(crate) *mut T);
// SAFETY: the one field is a pointer to `T`s that workers mutate through
// disjoint indices (see above); `T: Send` lets a `T` move its mutation to
// another thread.
unsafe impl<T: Send> Send for SyncPtr<T> {}
// SAFETY: sharing the pointer shares no `T`: each `T` is reached by one
// worker only, so `T: Send` suffices here as well.
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// A dispatch closure: runs the tasks of one claimed batch of indices.
type BatchFn<'a> = dyn Fn(Range<usize>) + Sync + 'a;

/// Type-erased pointer to the dispatch closure. The pointee is guaranteed
/// by [`WorkerPool::run`] to outlive the dispatch (the call blocks until
/// all workers have finished with it).
struct TaskPtr(*const BatchFn<'static>);
// SAFETY: the pointee is Sync and `run` fences its lifetime.
unsafe impl Send for TaskPtr {}

/// Dispatch state guarded by the pool mutex.
struct Dispatch {
    /// Monotone dispatch counter; a worker runs one dispatch per increment.
    generation: u64,
    /// The current task closure (`None` between dispatches).
    task: Option<TaskPtr>,
    /// Number of task indices in the current dispatch.
    ntasks: usize,
    /// Batch size workers claim from the cursor.
    grain: usize,
    /// Workers that have finished the current dispatch.
    done: usize,
    /// The first panic a task raised in the current dispatch.
    panic: Option<Box<dyn Any + Send>>,
    /// Pool is shutting down (drop).
    shutdown: bool,
}

struct Shared {
    state: Mutex<Dispatch>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The dispatcher waits here for `done == nworkers`.
    done_cv: Condvar,
    /// Next unclaimed task index of the current dispatch.
    cursor: AtomicUsize,
    /// Cumulative busy wall-time per worker, nanoseconds.
    busy_ns: Vec<AtomicU64>,
}

/// Persistent worker pool. Created once, reused for every phase dispatch,
/// joined on drop.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `nworkers` parked worker threads (`nworkers >= 1`).
    pub(crate) fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(Dispatch {
                generation: 0,
                task: None,
                ntasks: 0,
                grain: 1,
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cursor: AtomicUsize::new(0),
            busy_ns: (0..nworkers).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..nworkers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dsw-rma-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of workers.
    pub(crate) fn nworkers(&self) -> usize {
        self.handles.len()
    }

    /// Cumulative busy wall-time of worker `w` in nanoseconds.
    pub(crate) fn busy_ns(&self, w: usize) -> u64 {
        self.shared.busy_ns[w].load(Ordering::Relaxed)
    }

    /// Dispatches made since the pool was created.
    pub(crate) fn dispatches(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("a pool worker panicked while holding the state lock")
            .generation
    }

    /// Runs every index of `0..ntasks` across the pool: workers claim
    /// batches of `grain` consecutive indices and call `task(lo..hi)` once
    /// per batch, so per-batch work (a clock read, a pointer setup) is paid
    /// once per batch, not per index. Blocks until all indices have been
    /// executed and every worker has quiesced, then re-raises the first
    /// panic a task raised, if any.
    pub(crate) fn run(&self, ntasks: usize, grain: usize, task: &BatchFn<'_>) {
        if ntasks == 0 {
            return;
        }
        let shared = &*self.shared;
        {
            let mut st = shared
                .state
                .lock()
                .expect("a pool worker panicked while holding the state lock");
            shared.cursor.store(0, Ordering::Relaxed);
            // SAFETY: we erase the lifetime, then block below until every
            // worker reports done, which happens-after its last use of the
            // pointer (the `done` increment is made under the same mutex).
            let ptr: *const BatchFn<'_> = task;
            st.task = Some(TaskPtr(unsafe {
                std::mem::transmute::<*const BatchFn<'_>, *const BatchFn<'static>>(ptr)
            }));
            st.ntasks = ntasks;
            st.grain = grain.max(1);
            st.done = 0;
            st.generation += 1;
            shared.work_cv.notify_all();
        }
        let mut st = shared
            .state
            .lock()
            .expect("a pool worker panicked while holding the state lock");
        while st.done < self.handles.len() {
            st = shared
                .done_cv
                .wait(st)
                .expect("a pool worker panicked while holding the state lock");
        }
        st.task = None;
        if let Some(payload) = st.panic.take() {
            drop(st);
            resume_unwind(payload);
        }
    }
}

/// A worker pool for callers outside this crate — the serving-layer
/// substrate.
///
/// An [`Executor`](crate::Executor) in
/// [`ExecMode::Threaded`](crate::ExecMode) owns a private `WorkerPool`,
/// which is right for one long solve. A service multiplexing hundreds of
/// tenants instead owns one `SharedPool` and hands it whole items of
/// work: [`SharedPool::for_each_mut`] runs a closure on every element of
/// a slice, each element on exactly one worker. The service's items are
/// tenants, each advancing its own sequential executor by a quantum of
/// supersteps, so one dispatch carries a whole scheduler round instead of
/// one phase of one tenant. The workers stay parked between dispatches.
///
/// Cloning is shallow (an [`Arc`] bump): clones dispatch onto the same
/// workers. The threads join when the last clone drops.
#[derive(Clone)]
pub struct SharedPool {
    pool: Arc<WorkerPool>,
}

impl SharedPool {
    /// Spawns a pool of `nworkers` parked workers (`nworkers >= 1`).
    pub fn new(nworkers: usize) -> Self {
        SharedPool {
            pool: Arc::new(WorkerPool::new(nworkers)),
        }
    }

    /// Runs `f` on every element of `items` across the pool and returns
    /// once all have run. Each element is claimed by exactly one worker,
    /// so `f` holds the only reference to it; elements share nothing
    /// through this call, and the result is independent of the worker
    /// count. A panic in `f` is re-raised here after every worker has
    /// quiesced.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], f: impl Fn(&mut T) + Sync) {
        let base = SyncPtr(items.as_mut_ptr());
        self.pool.run(items.len(), 1, &|batch| {
            let base = &base;
            for i in batch {
                // SAFETY: `run` hands each index in `0..items.len()` to
                // exactly one worker (disjoint claims from the cursor) and
                // returns only after every worker has quiesced, so this is
                // the sole reference to `items[i]` and it ends within
                // `items`' borrow.
                f(unsafe { &mut *base.0.add(i) })
            }
        });
    }

    /// Opens a per-epoch accounting view positioned at *now*: the returned
    /// [`PoolStats`] reports busy time accumulated **after** this call, so
    /// a reused pool never smears one run's busy time into the next.
    pub fn stats(&self) -> PoolStats {
        let base = (0..self.pool.nworkers())
            .map(|w| self.pool.busy_ns(w))
            .collect();
        PoolStats {
            base_dispatches: self.pool.dispatches(),
            pool: Arc::clone(&self.pool),
            base,
        }
    }
}

/// Per-epoch busy accounting of a [`SharedPool`].
///
/// The pool's raw `busy_ns` counters are cumulative over its lifetime;
/// utilization quoted from them after the pool served several windows
/// would blend every window's work. A `PoolStats` carries an epoch
/// baseline: [`PoolStats::take_epoch`] returns the busy time since the
/// baseline and resets the baseline to *now* — one call per window gives
/// exact per-window attribution on a pool of any age. The pool's dispatch
/// count is baselined the same way ([`PoolStats::dispatches`]).
pub struct PoolStats {
    pool: Arc<WorkerPool>,
    /// Cumulative busy-ns snapshot at the epoch start, per worker.
    base: Vec<u64>,
    /// Cumulative dispatch count at the epoch start.
    base_dispatches: u64,
}

impl PoolStats {
    /// Pool dispatches since the epoch baseline.
    pub fn dispatches(&self) -> u64 {
        self.pool.dispatches() - self.base_dispatches
    }

    /// Harvests the epoch: returns per-worker busy-ns since the baseline
    /// and resets the baseline (busy time and dispatch count) to *now*, so
    /// the next epoch starts at zero.
    pub fn take_epoch(&mut self) -> Vec<u64> {
        self.base_dispatches = self.pool.dispatches();
        let snapshot: Vec<u64> = (0..self.base.len()).map(|w| self.pool.busy_ns(w)).collect();
        let epoch = snapshot
            .iter()
            .zip(&self.base)
            .map(|(&now, &b)| now.saturating_sub(b))
            .collect();
        self.base = snapshot;
        epoch
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .expect("a pool worker panicked while holding the state lock");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen = 0u64;
    loop {
        let (task, ntasks, grain) = {
            let mut st = shared
                .state
                .lock()
                .expect("a pool worker panicked while holding the state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    let TaskPtr(ptr) = *st.task.as_ref().expect("dispatch has a task");
                    break (ptr, st.ntasks, st.grain);
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .expect("dispatch panicked while holding the state lock");
            }
        };
        let t0 = Instant::now();
        // SAFETY: `run` keeps the closure alive until we report done below.
        let task = unsafe { &*task };
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let start = shared.cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= ntasks {
                break;
            }
            task(start..(start + grain).min(ntasks));
        }));
        shared.busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut st = shared
            .state
            .lock()
            .expect("a pool worker panicked while holding the state lock");
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.done += 1;
        if st.done == shared.busy_ns.len() {
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for grain in [1usize, 3, 16, 1000] {
            let hits: Vec<AtomicU32> = (0..257).map(|_| AtomicU32::new(0)).collect();
            pool.run(hits.len(), grain, &|batch| {
                assert!(batch.len() <= grain, "a batch is at most one grain");
                for i in batch {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "grain {grain}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(2);
        let sum = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(10, 2, &|batch| {
                sum.fetch_add(batch.sum::<usize>() as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 45 * 100);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkerPool::new(3);
        pool.run(0, 1, &|_| panic!("no task should run"));
    }

    #[test]
    fn pool_stats_take_epoch_resets_the_baseline() {
        // Two back-to-back "runs" on one pool: each epoch must see only
        // its own busy time and dispatches, not the pool-lifetime
        // accumulation.
        let shared = SharedPool::new(2);
        let mut stats = shared.stats();
        let mut items = vec![0u64; 64];
        let spin = |v: &mut u64| {
            *v += std::hint::black_box((0..20_000).sum::<u64>());
        };
        shared.for_each_mut(&mut items, spin);
        assert_eq!(stats.dispatches(), 1);
        let first = stats.take_epoch();
        assert!(first.iter().sum::<u64>() > 0, "first epoch measured");
        // A fresh epoch starts at zero even though the pool counters do not.
        assert_eq!(stats.dispatches(), 0);
        shared.for_each_mut(&mut items, spin);
        shared.for_each_mut(&mut items, spin);
        assert_eq!(stats.dispatches(), 2);
        let second = stats.take_epoch();
        let lifetime: u64 = (0..shared.pool.nworkers())
            .map(|w| shared.pool.busy_ns(w))
            .sum();
        assert!(second.iter().sum::<u64>() > 0, "second epoch measured");
        assert_eq!(
            first.iter().sum::<u64>() + second.iter().sum::<u64>(),
            lifetime,
            "epochs partition the pool-lifetime busy time"
        );
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        let shared = SharedPool::new(3);
        let mut items: Vec<(usize, u32)> = (0..100).map(|i| (i, 0)).collect();
        shared.for_each_mut(&mut items, |(i, hits)| *hits += 1 + *i as u32);
        assert!(items.iter().all(|&(i, hits)| hits == 1 + i as u32));
        // An empty slice makes no dispatch.
        let stats = shared.stats();
        shared.for_each_mut(&mut Vec::<u8>::new(), |_| unreachable!());
        assert_eq!(stats.dispatches(), 0);
    }

    #[test]
    fn a_task_panic_reaches_the_dispatcher_and_the_pool_survives() {
        let shared = SharedPool::new(2);
        let mut items = vec![0u32; 16];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            shared.for_each_mut(&mut items, |v| {
                *v += 1;
                std::panic::panic_any(*v);
            })
        }));
        let payload = caught.expect_err("the task panic is re-raised");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&1));
        // Every worker is still alive and serves the next dispatch.
        let mut items = vec![0u32; 16];
        shared.for_each_mut(&mut items, |v| *v = 7);
        assert!(items.iter().all(|&v| v == 7));
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = WorkerPool::new(1);
        pool.run(64, 4, &|batch| {
            for _ in batch {
                std::hint::black_box((0..100).sum::<u64>());
            }
        });
        assert!(pool.busy_ns(0) > 0);
    }
}
