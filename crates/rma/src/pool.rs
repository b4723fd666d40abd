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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Type-erased pointer to the dispatch closure. The pointee is guaranteed
/// by [`WorkerPool::run`] to outlive the dispatch (the call blocks until
/// all workers have finished with it).
struct TaskPtr(*const (dyn Fn(usize) + Sync));
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

    /// Runs `task(i)` for every `i in 0..ntasks` across the pool, claiming
    /// batches of `grain` indices at a time. Blocks until all indices have
    /// been executed and every worker has quiesced.
    pub(crate) fn run(&self, ntasks: usize, grain: usize, task: &(dyn Fn(usize) + Sync)) {
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
            let ptr: *const (dyn Fn(usize) + Sync) = task;
            st.task = Some(TaskPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(ptr)
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
    }
}

/// A worker pool shared by many executors — the serving-layer substrate.
///
/// The original design creates one `WorkerPool` per
/// [`Executor`](crate::Executor) ([`ExecMode::Threaded`](crate::ExecMode)),
/// which is right for a single long solve but wrong for a service
/// multiplexing hundreds of tenants: P tenants would spawn P pools of N
/// threads each, oversubscribing the host N-fold. A `SharedPool` is one
/// pool handed to every executor via
/// [`Executor::with_shared_pool`](crate::Executor::with_shared_pool); the
/// executors take turns dispatching onto it (one dispatch at a time — the
/// service scheduler interleaves whole supersteps, never phases), and the
/// pool's workers stay parked between dispatches exactly as in the
/// single-executor case.
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

    /// Number of workers.
    pub fn nworkers(&self) -> usize {
        self.pool.nworkers()
    }

    /// The underlying pool handle (crate-internal: executors store it).
    pub(crate) fn inner(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// A stable identity for this pool's worker set, shared by clones of
    /// the handle. Callers that cache executors built against a pool use
    /// it to check "same pool as last time" without holding a reference.
    pub fn id(&self) -> usize {
        Arc::as_ptr(&self.pool) as usize
    }

    /// Opens a per-epoch accounting view positioned at *now*: the returned
    /// [`PoolStats`] reports busy time accumulated **after** this call, so
    /// a reused pool never smears one run's busy time into the next.
    pub fn stats(&self) -> PoolStats {
        let base = (0..self.pool.nworkers())
            .map(|w| self.pool.busy_ns(w))
            .collect();
        PoolStats {
            pool: Arc::clone(&self.pool),
            base,
        }
    }
}

/// Per-epoch busy accounting of a [`SharedPool`].
///
/// The pool's raw `busy_ns` counters are cumulative over its lifetime;
/// utilization quoted from them after the pool served several runs would
/// blend every tenant's work (and can exceed 1.0 for the last run). A
/// `PoolStats` carries an epoch baseline: [`PoolStats::busy_ns`] reports
/// only the busy time since the baseline, and [`PoolStats::take_epoch`]
/// harvests it and resets the baseline to *now* — one call per solve gives
/// exact per-solve attribution on a pool of any age.
pub struct PoolStats {
    pool: Arc<WorkerPool>,
    /// Cumulative busy-ns snapshot at the epoch start, per worker.
    base: Vec<u64>,
}

impl PoolStats {
    /// Busy nanoseconds per worker since the epoch baseline.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.base
            .iter()
            .enumerate()
            .map(|(w, &b)| self.pool.busy_ns(w).saturating_sub(b))
            .collect()
    }

    /// Harvests the epoch: returns per-worker busy-ns since the baseline
    /// and resets the baseline to *now*, so the next epoch starts at zero.
    pub fn take_epoch(&mut self) -> Vec<u64> {
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
        loop {
            let start = shared.cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= ntasks {
                break;
            }
            for i in start..(start + grain).min(ntasks) {
                task(i);
            }
        }
        shared.busy_ns[w].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut st = shared
            .state
            .lock()
            .expect("a pool worker panicked while holding the state lock");
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
            pool.run(hits.len(), grain, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
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
            pool.run(10, 2, &|i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
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
        // its own busy time, not the pool-lifetime accumulation.
        let shared = SharedPool::new(2);
        let mut stats = shared.stats();
        let spin = |_: usize| {
            std::hint::black_box((0..20_000).sum::<u64>());
        };
        shared.inner().run(64, 4, &spin);
        let first = stats.take_epoch();
        assert!(first.iter().sum::<u64>() > 0, "first epoch measured");
        // A fresh epoch starts at zero even though the pool counters do not.
        assert_eq!(stats.busy_ns().iter().sum::<u64>(), 0);
        shared.inner().run(64, 4, &spin);
        let second = stats.take_epoch();
        let lifetime: u64 = (0..shared.nworkers())
            .map(|w| shared.inner().busy_ns(w))
            .sum();
        assert!(second.iter().sum::<u64>() > 0, "second epoch measured");
        assert_eq!(
            first.iter().sum::<u64>() + second.iter().sum::<u64>(),
            lifetime,
            "epochs partition the pool-lifetime busy time"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let pool = WorkerPool::new(1);
        pool.run(64, 4, &|_| {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(pool.busy_ns(0) > 0);
    }
}
