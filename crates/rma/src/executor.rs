//! The superstep executor: epochs, puts, delivery, counters.
//!
//! # Epoch close
//!
//! Every rank declares the ranks it may put to up front
//! ([`RankAlgorithm::put_targets`]), as an MPI-3 process names its
//! neighbour group before an access epoch. From those sets the executor
//! builds a *reverse-neighbor index* once at construction: for every
//! target, the ordered list of origins that may message it, each with a
//! dedicated outbox bucket. [`PhaseCtx::put`] appends into the
//! per-(origin, target) bucket; at the close, each target drains its
//! senders' buckets in origin order, so delivery is origin-major *by
//! construction* and no post-hoc sort is needed on the fault-free path.
//! Because distinct targets touch disjoint buckets, inboxes, and delayed
//! queues, the close runs serially or chunked over the worker pool
//! ([`CloseMode`]), folding the per-rank `PhaseTotals` and the
//! modelled-time reduction in the same pass.
//!
//! Serial or pooled, at any worker count or grain, the close produces
//! bit-identical results: fault fates are pure functions of
//! `(epoch, origin, target, index, class)` (see
//! [`FaultInjector::fate_at`]), per-target work is independent, and the
//! chunk partials combine with exact integer arithmetic.

use crate::fault::{ChaosConfig, FaultInjector};
use crate::pool::{SharedPool, WorkerPool};
use crate::stats::{ClassCounts, CommClass, CostModel, FaultStats, RunStats, StepStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A message as it sits in a target rank's memory window.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Origin rank of the put.
    pub src: usize,
    /// Message class (for the Table 3 breakdown).
    pub class: CommClass,
    /// Modelled payload size of the originating put (the β-term bytes).
    /// Carried on the wire so a forwarding layer (the redundancy wrapper)
    /// can re-charge exact byte counts for its fan-out copies.
    pub bytes: u64,
    /// Payload.
    pub payload: M,
}

/// Deterministic counters of one rank's phase, or — folded with
/// [`PhaseTotals::accumulate`] — of many; [`StepStats::absorb`] adds them
/// to a step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTotals {
    /// Messages put, per class.
    pub msgs: ClassCounts,
    /// Modelled payload bytes put, per class.
    pub bytes: ClassCounts,
    pub flops: u64,
    pub relaxations: u64,
    /// Ranks that reported relaxing (0 or 1 for a single rank's phase).
    pub active: u64,
    /// Measured wall-clock ns of the phase callbacks (set by the executor,
    /// not the rank; feeds the load-imbalance observables only — never
    /// the deterministic counters).
    pub wall_ns: u64,
}

impl PhaseTotals {
    fn accumulate(&mut self, other: &PhaseTotals) {
        self.msgs.accumulate(&other.msgs);
        self.bytes.accumulate(&other.bytes);
        self.flops += other.flops;
        self.relaxations += other.relaxations;
        self.active += other.active;
        self.wall_ns += other.wall_ns;
    }
}

/// Public summary of a capture context's counters (see
/// [`PhaseCtx::capture`]). A composition layer that runs an inner
/// algorithm's phase against a captured context reads the deterministic
/// counters here and re-reports them (flops, relaxations) or re-accounts
/// them (messages, bytes) on the real context it packs into.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaptureTotals {
    /// Messages the inner phase put.
    pub msgs: u64,
    /// Modelled payload bytes across those puts.
    pub bytes: u64,
    /// Flops the inner phase reported.
    pub flops: u64,
    /// Rows the inner phase reported relaxing.
    pub relaxations: u64,
}

/// Where a [`PhaseCtx`]'s puts go.
enum Sink<M> {
    /// A capture context: `(target, envelope)` pairs in put order, handed
    /// back to the composition layer that created the context.
    Capture(Vec<(usize, Envelope<M>)>),
    /// An executor context: this origin's `(target, bucket id)` edge list
    /// plus the base of the executor's shared bucket storage. Each put
    /// lands directly in its `(origin, target)` bucket.
    Bucketed {
        edges: *const (u32, u32),
        nedges: usize,
        base: *mut Vec<Envelope<M>>,
        /// Per-target dirty flags: set on a bucket's empty→non-empty
        /// transition so the close can skip targets nobody messaged.
        touched: *const AtomicBool,
    },
}

/// The per-phase context handed to a rank: issue puts, report work.
///
/// Every `put` is one message, exactly as in the paper's counting (one
/// `MPI_Put` per target per phase; piggybacked data rides in the same
/// message at zero extra message cost but nonzero bytes).
pub struct PhaseCtx<M> {
    rank: usize,
    sink: Sink<M>,
    totals: PhaseTotals,
}

impl<M> PhaseCtx<M> {
    /// Constructor for the executor's bucketed (reverse-neighbor-indexed)
    /// path.
    ///
    /// # Safety contract (upheld by the executor)
    /// The `(target, bucket id)` pairs in `edges` must outlive the
    /// context, every bucket id must be in bounds of the
    /// storage at `base`, and no other thread may touch those buckets
    /// while the context lives (each `(origin, target)` bucket belongs to
    /// exactly one origin, and one origin runs on exactly one worker).
    fn bucketed(
        rank: usize,
        edges: &[(u32, u32)],
        base: *mut Vec<Envelope<M>>,
        touched: *const AtomicBool,
    ) -> Self {
        PhaseCtx {
            rank,
            sink: Sink::Bucketed {
                edges: edges.as_ptr(),
                nedges: edges.len(),
                base,
                touched,
            },
            totals: PhaseTotals::default(),
        }
    }

    /// The calling rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Consumes a capture context, yielding the outbox and the counters.
    pub(crate) fn into_outbox_and_totals(self) -> (Vec<(usize, Envelope<M>)>, PhaseTotals) {
        match self.sink {
            Sink::Capture(outbox) => (outbox, self.totals),
            Sink::Bucketed { .. } => unreachable!("bucketed contexts have no outbox"),
        }
    }

    /// Puts `payload` into `target`'s window. Visible to `target` at the
    /// next phase (after the epoch closes). `bytes` is the modelled payload
    /// size used by the β term of the cost model.
    ///
    /// # Panics
    /// If `target` is the calling rank, or — in an executor context — if
    /// `target` is not in the set this rank declared via
    /// [`RankAlgorithm::put_targets`].
    pub fn put(&mut self, target: usize, class: CommClass, payload: M, bytes: u64) {
        assert_ne!(target, self.rank, "a rank must not put to itself");
        let env = Envelope {
            src: self.rank,
            class,
            bytes,
            payload,
        };
        match &mut self.sink {
            Sink::Capture(outbox) => outbox.push((target, env)),
            Sink::Bucketed {
                edges,
                nedges,
                base,
                touched,
            } => {
                // SAFETY: see `PhaseCtx::bucketed`.
                let edges = unsafe { std::slice::from_raw_parts(*edges, *nedges) };
                let Some(&(_, bid)) = edges.iter().find(|&&(t, _)| t as usize == target) else {
                    panic!(
                        "rank {} put to rank {target}, which is not in its declared put_targets",
                        self.rank
                    );
                };
                // SAFETY: this origin's buckets are exclusively owned (see
                // `PhaseCtx::bucketed`); the touched flags are atomic, so
                // concurrent origins marking the same target are fine
                // (Relaxed suffices — the close runs after the phase
                // barrier, which orders these stores before its loads).
                unsafe {
                    let bucket = &mut *base.add(bid as usize);
                    if bucket.is_empty() {
                        (*touched.add(target)).store(true, Ordering::Relaxed);
                    }
                    bucket.push(env);
                }
            }
        }
        self.totals.msgs.add(class, 1);
        self.totals.bytes.add(class, bytes);
    }

    /// Reports computational work for the γ term of the cost model.
    #[inline]
    pub fn add_flops(&mut self, flops: u64) {
        self.totals.flops += flops;
    }

    /// Reports that this rank relaxed `rows` of its equations this step
    /// (feeds the "relaxations" and "active processes" columns of Table 2).
    #[inline]
    pub fn record_relaxations(&mut self, rows: u64) {
        self.totals.relaxations += rows;
        self.totals.active = 1;
    }

    /// Constructor for a *capture* context, whose puts are collected
    /// rather than routed: the context a composition layer (the multi-RHS
    /// panel adapter in [`crate::panel`], the redundancy wrapper) or the
    /// asynchronous executor hands to a rank's phase. Pair with
    /// [`PhaseCtx::into_captured`].
    pub fn capture(rank: usize) -> Self {
        Self::capture_reusing(rank, Vec::new())
    }

    /// As [`PhaseCtx::capture`], reusing a caller-owned (empty) outbox
    /// buffer so a per-phase composition loop stops allocating one per
    /// inner call. Recover the buffer from [`PhaseCtx::into_captured`]
    /// after draining it.
    pub fn capture_reusing(rank: usize, outbox: Vec<(usize, Envelope<M>)>) -> Self {
        debug_assert!(outbox.is_empty());
        PhaseCtx {
            rank,
            sink: Sink::Capture(outbox),
            totals: PhaseTotals::default(),
        }
    }

    /// Consumes a capture context, yielding the captured `(target,
    /// envelope)` pairs in put order plus a public summary of the counters.
    ///
    /// # Panics
    /// If called on an executor-internal bucketed context (never the case
    /// for contexts created via [`PhaseCtx::capture`]).
    pub fn into_captured(self) -> (Vec<(usize, Envelope<M>)>, CaptureTotals) {
        let (outbox, totals) = self.into_outbox_and_totals();
        (
            outbox,
            CaptureTotals {
                msgs: totals.msgs.total(),
                bytes: totals.bytes.total(),
                flops: totals.flops,
                relaxations: totals.relaxations,
            },
        )
    }
}

/// A per-rank program, written as phases of a parallel step.
///
/// Phase semantics: in phase `k` the rank sees exactly the messages that
/// were put during phase `k − 1` (for `k = 0`: during the *last* phase of
/// the previous parallel step). This is the one-sided epoch visibility rule.
pub trait RankAlgorithm: Send {
    /// Payload type of the messages this algorithm puts.
    type Msg: Send + Sync + Clone;

    /// Number of communication phases (epochs) per parallel step.
    fn phases(&self) -> usize;

    /// Executes one phase. `inbox` holds the envelopes delivered at the
    /// close of the previous epoch, ordered by origin rank.
    fn phase(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], ctx: &mut PhaseCtx<Self::Msg>);

    /// The static set of ranks this rank may ever `put` to (for the
    /// solvers: the subdomain neighbor set) — the neighbour group an MPI-3
    /// process names before its access epochs.
    ///
    /// The executor builds its reverse-neighbor routing index from these
    /// sets at construction and closes every epoch target-major. It panics
    /// if a rank declares itself or an out-of-range rank, or puts to a
    /// rank outside its declared set.
    fn put_targets(&self) -> Vec<usize>;

    /// The squared 2-norm of this rank's locally maintained residual, kept
    /// current at parallel-step boundaries, if the algorithm maintains one.
    ///
    /// Returning `Some` lets a driver monitor global convergence as an
    /// `O(P)` sum of per-rank scalars instead of gathering the solution and
    /// recomputing `‖b − Ax‖₂` every step. `None` (the default) declares
    /// that the algorithm has no maintained norm and the driver must fall
    /// back to exact recomputation.
    fn maintained_norm_sq(&self) -> Option<f64> {
        None
    }

    /// The squared 2-norm of residual deltas this rank has produced but
    /// whose delivery is still outstanding at the step boundary (parked by
    /// message coalescing, or sent in the step's final epoch and not yet
    /// applied by the receiver). By the triangle inequality the true global
    /// norm lies within `√Σ undelivered` of the maintained one, so a
    /// monitor widens its convergence trigger by this slack. `0.0` when
    /// every delta is applied at the boundary (the default).
    fn undelivered_delta_sq(&self) -> f64 {
        0.0
    }
}

/// How the executor schedules rank phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All ranks run on the calling thread, in rank order.
    Sequential,
    /// Rank phases are dispatched to a **persistent pool** of `n` worker
    /// threads (created once per executor), which self-schedule batches of
    /// ranks from a shared atomic cursor (work stealing). Results are
    /// bit-identical to [`ExecMode::Sequential`] for any `n` and any steal
    /// order: ranks interact only at epoch boundaries, which the executor
    /// closes over disjoint per-target state, and fault decisions are pure
    /// functions of per-message keys.
    Threaded(usize),
}

/// How the executor closes epochs (routes the phase's puts into inboxes).
///
/// Every mode produces bit-identical results; this knob only chooses
/// *where* the routing work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloseMode {
    /// Close on the worker pool when it pays: the executor has a pool with
    /// ≥ 2 workers and the phase's message volume clears
    /// [`Executor::set_parallel_close_threshold`]. Serial otherwise.
    #[default]
    Auto,
    /// Always close on the calling thread.
    Serial,
    /// Close on the worker pool whenever one is present, regardless of
    /// volume.
    Parallel,
}

/// A put whose delivery was deferred by fault injection, parked in its
/// target's delayed queue.
struct DelayedEnv<M> {
    /// Global epoch index at whose close the put becomes visible.
    due_epoch: u64,
    env: Envelope<M>,
}

/// The static routing index: one bucket per directed `(origin, target)`
/// edge, plus both orientations of the edge list.
struct Topology {
    /// origin → `(target, bucket id)`, target-ascending.
    out_edges: Vec<Vec<(u32, u32)>>,
    /// target → `(origin, bucket id)`, origin-ascending — the
    /// reverse-neighbor index the close scans.
    in_edges: Vec<Vec<(u32, u32)>>,
    /// Number of buckets (directed edges).
    nbuckets: usize,
}

/// Builds the routing index from every rank's declared put targets.
fn build_topology<A: RankAlgorithm>(ranks: &[A]) -> Topology {
    let n = ranks.len();
    assert!(n < u32::MAX as usize, "rank count must fit in u32");
    let mut out_edges = Vec::with_capacity(n);
    let mut nbuckets = 0usize;
    for (i, r) in ranks.iter().enumerate() {
        let mut ts = r.put_targets();
        ts.sort_unstable();
        ts.dedup();
        assert!(
            ts.iter().all(|&t| t < n && t != i),
            "rank {i} declared an out-of-range or self put target"
        );
        let edges: Vec<(u32, u32)> = ts
            .iter()
            .map(|&t| {
                let bid = nbuckets as u32;
                nbuckets += 1;
                (t as u32, bid)
            })
            .collect();
        out_edges.push(edges);
    }
    let mut in_edges: Vec<Vec<(u32, u32)>> = (0..n).map(|_| Vec::new()).collect();
    for (o, edges) in out_edges.iter().enumerate() {
        for &(t, bid) in edges {
            in_edges[t as usize].push((o as u32, bid));
        }
    }
    Topology {
        out_edges,
        in_edges,
        nbuckets,
    }
}

/// Per-chunk partial of the epoch-close fold: fault outcomes of the
/// chunk's targets plus the [`PhaseTotals`] reduction over the chunk's
/// origins. Chunks combine with exact integer arithmetic (sums and maxes),
/// so the fold is bit-identical for any chunk count.
#[derive(Debug, Clone, Copy, Default)]
struct ClosePartial {
    faults: FaultStats,
    totals: PhaseTotals,
    max_flops: u64,
}

impl ClosePartial {
    fn absorb_rank(&mut self, t: &PhaseTotals) {
        self.totals.accumulate(t);
        self.max_flops = self.max_flops.max(t.flops);
    }

    fn merge(&mut self, other: &ClosePartial) {
        self.faults.accumulate(&other.faults);
        self.totals.accumulate(&other.totals);
        self.max_flops = self.max_flops.max(other.max_flops);
    }
}

/// Runs a set of [`RankAlgorithm`] instances in lock-step parallel steps.
pub struct Executor<A: RankAlgorithm> {
    ranks: Vec<A>,
    /// Inboxes holding envelopes visible at the next phase.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-rank counters of the current phase, refilled every phase.
    phase_totals: Vec<PhaseTotals>,
    /// The static routing index.
    topo: Topology,
    /// Bucket storage, one slot per directed `(origin, target)` edge.
    /// Every bucket is allocated at construction, in bucket-id
    /// (origin-major) order, with room for one envelope, the usual load
    /// of an edge per phase: one origin's buckets then sit together in
    /// memory, and a first put never grows a bucket to `Vec`'s
    /// four-element minimum. The close moves envelopes out and keeps the
    /// capacity.
    buckets: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-target queues of delay-injected puts, in deferral order.
    delayed_q: Vec<Vec<DelayedEnv<A::Msg>>>,
    /// Per-target flag: a fault perturbed this inbox's origin order this
    /// phase, so it needs the stable re-sort (and only then).
    unsorted: Vec<bool>,
    /// Per-target dirty flags: [`PhaseCtx::put`] marks a target when one
    /// of its inbound buckets goes empty → non-empty, and the close skips
    /// unmarked targets entirely (atomic because concurrent origins may
    /// mark the same target).
    touched: Vec<AtomicBool>,
    /// Per-chunk partials of the close fold.
    partials: Vec<ClosePartial>,
    /// Per-rank compute-ns scratch for the current step (reset each step).
    step_rank_ns: Vec<u64>,
    /// Persistent worker pool ([`ExecMode::Threaded`], owned exclusively)
    /// or a service-shared pool ([`Executor::with_shared_pool`]).
    pool: Option<Arc<WorkerPool>>,
    /// Work-stealing batch size override (`None` = auto; see
    /// [`Executor::set_grain`]).
    grain: Option<usize>,
    /// Last observed cumulative per-worker busy ns (for per-step deltas).
    worker_busy_seen: Vec<u64>,
    model: CostModel,
    mode: ExecMode,
    close_mode: CloseMode,
    /// Minimum phase message volume before [`CloseMode::Auto`] dispatches
    /// the close to the pool.
    parallel_close_min_msgs: u64,
    /// Fault decisions (drops / duplicates / delays / stalls).
    injector: FaultInjector,
    /// Global epoch (phase) counter, for delay due-dates and fate keys.
    epochs_executed: u64,
    /// Statistics accumulated over all executed steps.
    pub stats: RunStats,
}

/// A raw pointer the pool closure may share across workers. Sound because
/// each worker dereferences only the indices it claimed from the atomic
/// cursor, and those claims are disjoint.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

/// Everything the close touches, shared across close workers. Raw
/// pointers cover the per-target state (inboxes, delayed queues, sort
/// flags, chunk partials) and the per-origin state (`msgs_per_rank`,
/// `step_rank_ns`); a worker only dereferences indices inside its chunk,
/// and chunks are disjoint. Buckets are indexed per `(origin, target)`
/// edge, and every edge belongs to exactly one target chunk.
struct CloseShared<'a, M> {
    inboxes: *mut Vec<Envelope<M>>,
    buckets: *mut Vec<Envelope<M>>,
    delayed: *mut Vec<DelayedEnv<M>>,
    unsorted: *mut bool,
    touched: &'a [AtomicBool],
    partials: *mut ClosePartial,
    msgs_per_rank: *mut u64,
    step_rank_ns: *mut u64,
    in_edges: &'a [Vec<(u32, u32)>],
    totals: &'a [PhaseTotals],
    stalled: &'a [bool],
    injector: &'a FaultInjector,
    epoch: u64,
    /// Ranks per chunk (the last chunk may be short).
    chunk: usize,
    n: usize,
}
unsafe impl<M: Send> Send for CloseShared<'_, M> {}
unsafe impl<M: Send> Sync for CloseShared<'_, M> {}

impl<A: RankAlgorithm> Executor<A> {
    /// Creates an executor over `ranks` with the given cost model.
    pub fn new(ranks: Vec<A>, model: CostModel, mode: ExecMode) -> Self {
        Self::with_chaos(ranks, model, mode, ChaosConfig::none())
    }

    /// As [`new`](Self::new), with fault injection at epoch boundaries.
    ///
    /// # Panics
    /// If `chaos` fails [`ChaosConfig::validate`], or a rank's
    /// [`RankAlgorithm::put_targets`] names itself or an out-of-range rank.
    pub fn with_chaos(ranks: Vec<A>, model: CostModel, mode: ExecMode, chaos: ChaosConfig) -> Self {
        assert!(!ranks.is_empty(), "need at least one rank");
        let n = ranks.len();
        // Workers are created once, here, and live for the executor's
        // lifetime; `step` only parks/unparks them.
        let (pool, nworkers) = match mode {
            ExecMode::Sequential => (None, 1),
            ExecMode::Threaded(t) => {
                assert!(t > 0, "threaded mode needs at least one thread");
                (Some(Arc::new(WorkerPool::new(t.min(n)))), t.min(n))
            }
        };
        let mut stats = RunStats::new(n);
        stats.worker_busy_ns = vec![0; nworkers];
        let topo = build_topology(&ranks);
        Executor {
            injector: FaultInjector::new(chaos, n),
            ranks,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            phase_totals: vec![PhaseTotals::default(); n],
            buckets: (0..topo.nbuckets).map(|_| Vec::with_capacity(1)).collect(),
            topo,
            delayed_q: (0..n).map(|_| Vec::new()).collect(),
            unsorted: vec![false; n],
            touched: (0..n).map(|_| AtomicBool::new(false)).collect(),
            partials: Vec::new(),
            step_rank_ns: vec![0; n],
            pool,
            grain: None,
            worker_busy_seen: vec![0; nworkers],
            model,
            mode,
            close_mode: CloseMode::Auto,
            parallel_close_min_msgs: 256,
            epochs_executed: 0,
            stats,
        }
    }

    /// As [`with_chaos`](Self::with_chaos), but dispatching phases onto a
    /// [`SharedPool`] instead of spawning a private one — the serving
    /// layer's constructor, letting many executors (one per tenant)
    /// multiplex over one set of worker threads.
    ///
    /// Results are bit-identical to every other mode (ranks interact only
    /// at epoch boundaries). Dispatches from different executors must not
    /// overlap in time — the pool runs one dispatch at a time, and a
    /// service scheduler interleaves whole supersteps — but interleaving
    /// *steps* of different executors on one pool is fully supported:
    /// per-step worker-busy accounting brackets each step with its own
    /// baseline, so no tenant's busy time bleeds into another's stats.
    pub fn with_shared_pool(
        ranks: Vec<A>,
        model: CostModel,
        chaos: ChaosConfig,
        pool: &SharedPool,
    ) -> Self {
        let nworkers = pool.nworkers();
        let mut ex = Self::with_chaos(ranks, model, ExecMode::Sequential, chaos);
        ex.mode = ExecMode::Threaded(nworkers);
        ex.pool = Some(Arc::clone(pool.inner()));
        ex.stats.worker_busy_ns = vec![0; nworkers];
        // Baseline at the pool's *current* cumulative counters: a shared
        // pool has usually been busy before this executor existed, and
        // that history must not be charged to this executor's first step.
        ex.worker_busy_seen = (0..nworkers).map(|w| pool.inner().busy_ns(w)).collect();
        ex
    }

    /// Overrides the work-stealing batch size (ranks claimed per cursor
    /// fetch) for [`ExecMode::Threaded`]. The default grain targets ~8
    /// batches per worker so tiny subdomains amortize cursor traffic while
    /// hot ranks still spread; set `1` for maximal stealing granularity.
    /// Scheduling-only: results are bit-identical for every grain.
    pub fn set_grain(&mut self, grain: usize) {
        assert!(grain >= 1, "grain must be at least 1");
        self.grain = Some(grain);
    }

    /// Chooses where epoch closes run (see [`CloseMode`]). Results are
    /// bit-identical in every mode.
    pub fn set_close_mode(&mut self, mode: CloseMode) {
        self.close_mode = mode;
    }

    /// The close strategy in force.
    pub fn close_mode(&self) -> CloseMode {
        self.close_mode
    }

    /// Minimum per-phase message volume before [`CloseMode::Auto`]
    /// dispatches the close to the pool (default 256 — below that the
    /// pool's wake/quiesce latency outweighs the routing work).
    pub fn set_parallel_close_threshold(&mut self, msgs: u64) {
        self.parallel_close_min_msgs = msgs;
    }

    /// The number of compute workers (1 for [`ExecMode::Sequential`]).
    pub fn nworkers(&self) -> usize {
        self.worker_busy_seen.len()
    }

    /// Direct access to the fault injector, e.g. to force targeted
    /// stragglers with [`FaultInjector::inject_stall`].
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Immutable access to the rank programs (for the harness to read
    /// local solution vectors etc. — out-of-band, not counted as
    /// communication, exactly like the paper's measurement hooks).
    pub fn ranks(&self) -> &[A] {
        &self.ranks
    }

    /// Mutable access to the rank programs.
    pub fn ranks_mut(&mut self) -> &mut [A] {
        &mut self.ranks
    }

    /// Drops every undelivered envelope: pending inboxes and chaos-delayed
    /// queues. The warm-start reseed of the serving layer uses this as an
    /// out-of-band epoch boundary — when a tenant's right-hand side
    /// changes between solves, estimate messages still in flight describe
    /// the old system and are superseded by the reseed's exact exchange,
    /// exactly as the initial setup exchange supersedes nothing.
    ///
    /// Callers must ensure no in-flight message carries state that cannot
    /// be reconstructed (the solvers guarantee this at step boundaries on
    /// a reliable link with coalescing off: all residual *deltas* are
    /// applied before the boundary; only norm estimates remain in flight).
    pub fn discard_in_flight(&mut self) {
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        for q in &mut self.delayed_q {
            q.clear();
        }
        for u in &mut self.unsorted {
            *u = false;
        }
    }

    /// Executes one parallel step (all phases); returns its stats.
    ///
    /// With fault injection active, the epoch close additionally: drops,
    /// duplicates, or defers puts per [`FaultInjector::fate_at`]; surfaces
    /// deferred puts whose delay expired; and skips the compute phases of
    /// stalled ranks (their inboxes keep accumulating until they resume).
    /// Fates are pure functions of per-message keys, so the fault pattern
    /// is identical under every [`ExecMode`] and [`CloseMode`].
    pub fn step(&mut self) -> StepStats {
        let nphases = self.ranks[0].phases();
        debug_assert!(
            self.ranks.iter().all(|r| r.phases() == nphases),
            "all ranks must agree on the phase count"
        );
        let mut step = StepStats::default();
        // Re-baseline the per-worker busy counters at the step *start*: on
        // a shared pool other executors may have dispatched since this
        // executor's previous step, and their busy time must not be
        // attributed to this step's delta below.
        if let Some(pool) = &self.pool {
            for (w, seen) in self.worker_busy_seen.iter_mut().enumerate() {
                *seen = pool.busy_ns(w);
            }
        }
        // Stall decisions hold for every phase of this step.
        let stalled = self.injector.step_stalls();
        step.faults.stalled_ranks += stalled.iter().filter(|&&s| s).count() as u64;
        for phase in 0..nphases {
            let t_dispatch = Instant::now();
            self.run_phase(phase, &stalled);
            step.span_ns += t_dispatch.elapsed().as_nanos() as u64;
            let t_close = Instant::now();
            self.close(&stalled, &mut step);
            step.route_ns += t_close.elapsed().as_nanos() as u64;
            self.epochs_executed += 1;
        }
        // Fold the measured timing of this step (observables only — none of
        // this feeds the deterministic counters or the modelled clock).
        step.workers = self.nworkers() as u32;
        for (i, ns) in self.step_rank_ns.iter_mut().enumerate() {
            step.compute_ns_max_rank = step.compute_ns_max_rank.max(*ns);
            self.stats.rank_time_ns[i] += *ns;
            *ns = 0;
        }
        if let Some(pool) = &self.pool {
            for w in 0..pool.nworkers() {
                let cum = pool.busy_ns(w);
                self.stats.worker_busy_ns[w] += cum - self.worker_busy_seen[w];
                self.worker_busy_seen[w] = cum;
            }
        }
        self.stats.steps.push(step);
        step
    }

    /// Closes one epoch over the reverse-neighbor index: each target
    /// drains its senders' buckets in origin order. Runs on the calling
    /// thread or chunked across the worker pool ([`CloseMode`]); both
    /// produce bit-identical results because distinct targets touch
    /// disjoint state and chunk partials combine exactly.
    fn close(&mut self, stalled: &[bool], step: &mut StepStats) {
        let n = self.ranks.len();
        let use_pool = match self.close_mode {
            CloseMode::Serial => false,
            CloseMode::Parallel => self.pool.is_some(),
            CloseMode::Auto => {
                self.pool.as_ref().is_some_and(|p| p.nworkers() >= 2)
                    && self
                        .phase_totals
                        .iter()
                        .map(|t| t.msgs.total())
                        .sum::<u64>()
                        >= self.parallel_close_min_msgs
            }
        };
        let nchunks = if use_pool {
            let pool = self.pool.as_ref().expect("use_pool implies a pool");
            (pool.nworkers() * 4).min(n)
        } else {
            1
        };
        let chunk = n.div_ceil(nchunks);
        self.partials.clear();
        self.partials.resize(nchunks, ClosePartial::default());
        let sh = CloseShared {
            inboxes: self.inboxes.as_mut_ptr(),
            buckets: self.buckets.as_mut_ptr(),
            delayed: self.delayed_q.as_mut_ptr(),
            unsorted: self.unsorted.as_mut_ptr(),
            touched: &self.touched,
            partials: self.partials.as_mut_ptr(),
            msgs_per_rank: self.stats.msgs_per_rank.as_mut_ptr(),
            step_rank_ns: self.step_rank_ns.as_mut_ptr(),
            in_edges: &self.topo.in_edges,
            totals: &self.phase_totals,
            stalled,
            injector: &self.injector,
            epoch: self.epochs_executed,
            chunk,
            n,
        };
        if use_pool {
            let pool = self.pool.as_ref().expect("pool exists");
            // SAFETY: chunk `c` touches only targets/origins in
            // `[c*chunk, (c+1)*chunk)`, ranges are disjoint across chunks,
            // and `pool.run` blocks until every chunk is done.
            pool.run(nchunks, 1, &|c| unsafe {
                close_chunk(&sh, c);
            });
        } else {
            for c in 0..nchunks {
                // SAFETY: serial execution — no aliasing at all.
                unsafe { close_chunk(&sh, c) };
            }
        }
        // Combine the chunk partials in chunk order. Integer sums and
        // maxes are exact, so the result is independent of the chunking.
        let mut ph = ClosePartial::default();
        for c in 0..nchunks {
            ph.merge(&self.partials[c]);
        }
        step.faults.accumulate(&ph.faults);
        step.absorb(&ph.totals);
        // Time: the slowest rank gates the computation; message and byte
        // volume are charged at the per-rank average (congestion /
        // epoch-overhead model — see `CostModel`).
        let p = n as f64;
        step.time += self.model.sync
            + self.model.gamma * ph.max_flops as f64
            + self.model.alpha * ph.totals.msgs.total() as f64 / p
            + self.model.beta * ph.totals.bytes.total() as f64 / p;
    }

    /// Runs `phase` on every non-stalled rank, filling the preallocated
    /// `self.phase_totals` slots and the per-edge buckets (every container
    /// is empty on entry — the previous epoch close drained it in place).
    /// Stalled ranks contribute no puts and zero counters (they perform no
    /// work at all this phase).
    fn run_phase(&mut self, phase: usize, stalled: &[bool]) {
        let n = self.ranks.len();
        let buckets = SyncPtr(self.buckets.as_mut_ptr());
        match self.mode {
            ExecMode::Sequential => {
                let mut busy = 0u64;
                // Chained timing: one clock read per rank boundary instead
                // of two per rank — the delta between consecutive reads is
                // the rank's wall time (plus a few ns of loop overhead,
                // fine for a load-imbalance observable that never feeds the
                // deterministic counters). At thousands of ranks the saved
                // clock reads are a measurable slice of the phase.
                let mut t_prev = Instant::now();
                for (i, &is_stalled) in stalled.iter().enumerate().take(n) {
                    if is_stalled {
                        self.phase_totals[i] = PhaseTotals::default();
                        continue;
                    }
                    let edges = &self.topo.out_edges[i];
                    let mut ctx = PhaseCtx::bucketed(i, edges, buckets.0, self.touched.as_ptr());
                    self.ranks[i].phase(phase, &self.inboxes[i], &mut ctx);
                    let now = Instant::now();
                    let wall_ns = now.duration_since(t_prev).as_nanos() as u64;
                    t_prev = now;
                    ctx.totals.wall_ns = wall_ns;
                    self.phase_totals[i] = ctx.totals;
                    busy += wall_ns;
                }
                self.stats.worker_busy_ns[0] += busy;
            }
            ExecMode::Threaded(_) => {
                let pool = self.pool.as_ref().expect("pool exists in Threaded mode");
                // Default grain: ~8 batches per worker balances steal
                // granularity (hot ranks spread) against cursor traffic
                // (tiny subdomains amortize).
                let grain = self
                    .grain
                    .unwrap_or_else(|| (n / (8 * pool.nworkers())).max(1));
                let ranks = SyncPtr(self.ranks.as_mut_ptr());
                let slots = SyncPtr(self.phase_totals.as_mut_ptr());
                let touched = &self.touched;
                let inboxes = &self.inboxes;
                let out_edges = &self.topo.out_edges;
                pool.run(n, grain, &|i| {
                    // Capture the `SyncPtr` wrappers whole (precise capture
                    // would otherwise grab the raw-pointer fields, which are
                    // not `Sync`).
                    let (ranks, slots, buckets) = (&ranks, &slots, &buckets);
                    // SAFETY: the pool hands each index to exactly one
                    // worker, so `ranks[i]`, `slots[i]` — and, through the
                    // edge list, origin `i`'s buckets — are accessed
                    // exclusively; `inboxes` is only read.
                    let rank = unsafe { &mut *ranks.0.add(i) };
                    let slot = unsafe { &mut *slots.0.add(i) };
                    if stalled[i] {
                        *slot = PhaseTotals::default();
                        return;
                    }
                    let mut ctx = PhaseCtx::bucketed(i, &out_edges[i], buckets.0, touched.as_ptr());
                    let t0 = Instant::now();
                    rank.phase(phase, &inboxes[i], &mut ctx);
                    ctx.totals.wall_ns = t0.elapsed().as_nanos() as u64;
                    *slot = ctx.totals;
                });
            }
        }
    }
}

/// Closes one chunk of targets: routes their inbound buckets, expires
/// their delayed queues, re-sorts the inboxes a fault perturbed, and folds
/// the chunk's origin counters into its [`ClosePartial`].
///
/// # Safety
/// The caller must guarantee that no other thread touches any state of
/// targets/origins in chunk `c`'s range (see [`CloseShared`]).
unsafe fn close_chunk<M: Clone + Send>(sh: &CloseShared<'_, M>, c: usize) {
    let lo = c * sh.chunk;
    let hi = ((c + 1) * sh.chunk).min(sh.n);
    let mut part = ClosePartial::default();
    for t in lo..hi {
        close_one_target(sh, t, &mut part.faults);
    }
    for i in lo..hi {
        let totals = &sh.totals[i];
        part.absorb_rank(totals);
        *sh.msgs_per_rank.add(i) += totals.msgs.total();
        *sh.step_rank_ns.add(i) += totals.wall_ns;
    }
    *sh.partials.add(c) = part;
}

/// Routes everything addressed to target `t`: clears the inbox (unless the
/// target is stalled), drains the inbound buckets in origin order deciding
/// per-message fates, delivers expired delayed puts in deferral order (an
/// order-preserving partition pass), and stable-sorts the inbox only if a
/// fate perturbed its origin order.
///
/// # Safety
/// Exclusive access to target `t`'s inbox, delayed queue, sort flag, and
/// every bucket in `in_edges[t]`.
unsafe fn close_one_target<M: Clone>(sh: &CloseShared<'_, M>, t: usize, faults: &mut FaultStats) {
    let inbox = &mut *sh.inboxes.add(t);
    let is_stalled = sh.stalled[t];
    // Dirty-target fast path: if no put touched any of `t`'s inbound
    // buckets this phase and no delayed put is parked, there is nothing to
    // route — skip the per-edge bucket scan entirely. The inbox still
    // empties (the target read it this phase) unless the target is
    // stalled, and `unsorted[t]` cannot be pending here (the close
    // always clears it before returning).
    let touched = sh.touched[t].load(Ordering::Relaxed);
    if !touched && (*sh.delayed.add(t)).is_empty() {
        if !is_stalled {
            inbox.clear();
        }
        return;
    }
    if touched {
        sh.touched[t].store(false, Ordering::Relaxed);
    }
    if !is_stalled {
        inbox.clear();
    }
    let message_faults = sh.injector.config().message_faults_active();
    let mut appended = false;
    let mut late = false;
    for &(origin, bid) in &sh.in_edges[t] {
        let bucket = &mut *sh.buckets.add(bid as usize);
        if bucket.is_empty() {
            continue;
        }
        appended = true;
        if !message_faults {
            // Fault-free fast path: a straight ordered move.
            inbox.append(bucket);
            continue;
        }
        for (idx, env) in bucket.drain(..).enumerate() {
            let fate = sh
                .injector
                .fate_at(sh.epoch, origin, t as u32, idx as u32, env.class);
            if fate.dropped {
                faults.dropped.add(env.class, 1);
                continue;
            }
            if fate.duplicated {
                faults.duplicated.add(env.class, 1);
                inbox.push(env.clone());
            }
            if fate.delay > 0 {
                faults.delayed.add(env.class, 1);
                (*sh.delayed.add(t)).push(DelayedEnv {
                    due_epoch: sh.epoch + fate.delay as u64,
                    env,
                });
            } else {
                inbox.push(env);
            }
        }
    }
    // Deliver expired delayed puts in deferral order.
    let dq = &mut *sh.delayed.add(t);
    if !dq.is_empty() {
        let due = sh.epoch;
        for d in dq.extract_if(.., |d| d.due_epoch <= due) {
            inbox.push(d.env);
            late = true;
        }
    }
    // Re-sort only when a fate perturbed origin order: a late arrival, or
    // appends behind a stalled target's accumulated content. The fresh
    // fault-free fill is origin-major by construction (buckets are drained
    // origin-ascending), so it needs no sort at all.
    let unsorted = &mut *sh.unsorted.add(t);
    if late || (is_stalled && appended) {
        *unsorted = true;
    }
    if *unsorted {
        inbox.sort_by_key(|env| env.src);
        *unsorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy algorithm on a ring: each rank holds a value; every step it puts
    /// the value to its right neighbor in phase 0 and adds what it received
    /// (visible in phase 0 of the *next* step, per the epoch rule).
    struct Ring {
        id: usize,
        n: usize,
        value: u64,
        received_this_phase: Vec<u64>,
    }

    impl RankAlgorithm for Ring {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
            self.received_this_phase = inbox.iter().map(|e| e.payload).collect();
            for e in inbox {
                self.value += e.payload;
            }
            let target = (self.id + 1) % self.n;
            ctx.put(target, CommClass::Solve, self.value, 8);
            ctx.add_flops(1);
            ctx.record_relaxations(1);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % self.n]
        }
    }

    fn ring(n: usize) -> Vec<Ring> {
        (0..n)
            .map(|id| Ring {
                id,
                n,
                value: id as u64 + 1,
                received_this_phase: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn messages_delivered_next_phase_not_same() {
        let mut ex = Executor::new(ring(3), CostModel::default(), ExecMode::Sequential);
        let s1 = ex.step();
        // Nothing was in flight during the first step's phase 0.
        assert!(ex.ranks()[0].received_this_phase.is_empty());
        assert_eq!(s1.msgs, 3);
        let _s2 = ex.step();
        // Now each rank saw exactly the value its left neighbor sent.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1]);
        assert_eq!(ex.ranks()[0].received_this_phase, vec![3]);
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let mut a = Executor::new(ring(7), CostModel::default(), ExecMode::Sequential);
        let mut b = Executor::new(ring(7), CostModel::default(), ExecMode::Threaded(3));
        for _ in 0..5 {
            a.step();
            b.step();
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
        assert_eq!(a.stats.total_msgs(), b.stats.total_msgs());
        assert_eq!(a.stats.msgs_per_rank, b.stats.msgs_per_rank);
    }

    #[test]
    fn all_modes_and_grains_agree() {
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for (mode, grain) in [
            (ExecMode::Sequential, None),
            (ExecMode::Threaded(2), None),
            (ExecMode::Threaded(4), Some(1)),
            (ExecMode::Threaded(7), Some(3)),
            (ExecMode::Threaded(32), Some(1000)),
        ] {
            let mut ex = Executor::new(ring(13), CostModel::default(), mode);
            if let Some(g) = grain {
                ex.set_grain(g);
            }
            for _ in 0..6 {
                ex.step();
            }
            let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
            assert_eq!(v, vref, "{mode:?} grain {grain:?}");
            assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
            for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                assert_eq!(sa, sb, "{mode:?} grain {grain:?}");
            }
        }
    }

    #[test]
    fn close_modes_agree_bit_for_bit() {
        // The close strategy is a pure scheduling knob: Serial, Parallel,
        // and Auto (with a zero threshold, forcing the pool at this tiny
        // size) must all match the sequential reference.
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for close in [CloseMode::Serial, CloseMode::Parallel, CloseMode::Auto] {
            let mut ex = Executor::new(ring(13), CostModel::default(), ExecMode::Threaded(3));
            ex.set_close_mode(close);
            ex.set_parallel_close_threshold(0);
            for _ in 0..6 {
                ex.step();
            }
            let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
            assert_eq!(v, vref, "{close:?}");
            assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
            for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                assert_eq!(sa, sb, "{close:?}");
            }
        }
    }

    #[test]
    fn timing_observables_populate() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let mut ex = Executor::new(ring(5), CostModel::default(), mode);
            let s = ex.step();
            assert_eq!(s.workers, ex.nworkers() as u32, "{mode:?}");
            assert!(s.compute_ns > 0, "{mode:?}: per-rank wall time measured");
            assert!(s.compute_ns_max_rank > 0, "{mode:?}");
            assert!(s.compute_ns_max_rank <= s.compute_ns, "{mode:?}");
            assert!(s.span_ns >= s.compute_ns_max_rank, "{mode:?}");
            assert!(s.imbalance(5) >= 1.0, "{mode:?}");
            assert!(
                ex.stats.rank_time_ns.iter().all(|&ns| ns > 0),
                "{mode:?}: every rank accumulated wall time"
            );
            assert!(
                ex.stats.worker_busy_ns.iter().sum::<u64>() > 0,
                "{mode:?}: workers accumulated busy time"
            );
            assert!(ex.stats.worker_utilization() > 0.0, "{mode:?}");
        }
    }

    /// Regression for pool-lifetime smear: two executors sharing one
    /// `SharedPool` back-to-back must each see only their own busy time.
    /// Before per-solve baselining, the second run's `worker_busy_ns`
    /// (and hence `worker_utilization`) absorbed the first run's work.
    #[test]
    fn shared_pool_busy_time_is_per_run() {
        use crate::pool::SharedPool;
        let pool = SharedPool::new(2);

        let mut first = Executor::with_shared_pool(
            ring(64),
            CostModel::default(),
            ChaosConfig::default(),
            &pool,
        );
        for _ in 0..20 {
            first.step();
        }
        let first_busy: u64 = first.stats.worker_busy_ns.iter().sum();
        assert!(first_busy > 0, "first run accumulated busy time");

        let mut second = Executor::with_shared_pool(
            ring(64),
            CostModel::default(),
            ChaosConfig::default(),
            &pool,
        );
        let second_initial: u64 = second.stats.worker_busy_ns.iter().sum();
        assert_eq!(second_initial, 0, "fresh executor starts at zero busy");
        second.step();
        let second_busy: u64 = second.stats.worker_busy_ns.iter().sum();
        assert!(second_busy > 0);
        // One step on the same workload cannot plausibly cost as much as
        // the first executor's 20 steps — unless lifetime busy smeared in.
        assert!(
            second_busy < first_busy,
            "second run's busy ({second_busy}ns) must exclude the first \
             run's 20 steps ({first_busy}ns)"
        );
        assert!(second.stats.worker_utilization() <= 1.0);

        // Interleaved epochs: re-baselining at step start keeps each
        // executor's accounting isolated even when their steps alternate
        // on the shared pool. After a second.step() ran in between,
        // first.step() must still charge first only for its own work —
        // i.e. a single step's worth, not first's step plus second's.
        let before: u64 = first.stats.worker_busy_ns.iter().sum();
        second.step();
        first.step();
        let grew = first.stats.worker_busy_ns.iter().sum::<u64>() - before;
        assert!(grew > 0, "first's own interleaved step is charged");
        assert!(
            grew < first_busy,
            "one interleaved step ({grew}ns) charges less than 20 steps \
             ({first_busy}ns): second's work did not smear into first"
        );
    }

    /// `RunStats::take_epoch` drains per-solve accumulators and resets
    /// them in place, so consecutive harvests partition the run.
    #[test]
    fn run_stats_take_epoch_partitions_accumulators() {
        let mut ex = Executor::new(ring(8), CostModel::default(), ExecMode::Sequential);
        ex.step();
        ex.step();
        let lifetime_msgs: u64 = ex.stats.msgs_per_rank.iter().sum();
        let lifetime_rank_ns: u64 = ex.stats.rank_time_ns.iter().sum();

        let epoch1 = ex.stats.take_epoch();
        assert_eq!(epoch1.nsteps(), 2);
        assert_eq!(epoch1.msgs_per_rank.iter().sum::<u64>(), lifetime_msgs);
        assert_eq!(epoch1.rank_time_ns.iter().sum::<u64>(), lifetime_rank_ns);
        assert_eq!(ex.stats.nsteps(), 0);
        assert_eq!(ex.stats.msgs_per_rank.iter().sum::<u64>(), 0);
        assert_eq!(ex.stats.rank_time_ns.iter().sum::<u64>(), 0);
        assert_eq!(ex.stats.msgs_per_rank.len(), 8, "shape preserved");

        ex.step();
        let epoch2 = ex.stats.take_epoch();
        assert_eq!(epoch2.nsteps(), 1);
        assert!(epoch2.msgs_per_rank.iter().sum::<u64>() > 0);
    }

    #[test]
    fn counters_and_cost_model() {
        let model = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            sync: 0.5,
        };
        let mut ex = Executor::new(ring(4), model, ExecMode::Sequential);
        let s = ex.step();
        assert_eq!(s.msgs, 4);
        assert_eq!(s.msgs_solve, 4);
        assert_eq!(s.msgs_residual, 0);
        assert_eq!(s.bytes, 32);
        assert_eq!(s.bytes_solve, 32);
        assert_eq!(s.bytes_residual, 0);
        assert_eq!(s.bytes_recovery, 0);
        assert_eq!(s.flops, 4);
        assert_eq!(s.active_ranks, 4);
        assert_eq!(s.relaxations, 4);
        // Each rank sends one message: max over ranks = 1 message * alpha,
        // plus the sync charge.
        assert!((s.time - 1.5).abs() < 1e-12);
        assert!((ex.stats.comm_cost() - 1.0).abs() < 1e-12);
    }

    /// Two-phase algorithm verifying that phase-1 messages arrive in
    /// phase 0 of the next step and phase-0 messages arrive in phase 1.
    struct TwoPhase {
        id: usize,
        log: Vec<(usize, Vec<u64>)>,
    }

    impl RankAlgorithm for TwoPhase {
        type Msg = u64;
        fn phases(&self) -> usize {
            2
        }
        fn phase(&mut self, phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
            self.log
                .push((phase, inbox.iter().map(|e| e.payload).collect()));
            let peer = 1 - self.id;
            // Tag the message with 10*phase so the receiver can tell which
            // phase it was sent in.
            ctx.put(peer, CommClass::Residual, (10 * phase) as u64, 8);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![1 - self.id]
        }
    }

    #[test]
    fn two_phase_visibility() {
        let ranks = vec![
            TwoPhase { id: 0, log: vec![] },
            TwoPhase { id: 1, log: vec![] },
        ];
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
        ex.step();
        let log = &ex.ranks()[0].log;
        // Step 1: phase 0 sees nothing; phase 1 sees the phase-0 put (0).
        assert_eq!(log[0], (0, vec![]));
        assert_eq!(log[1], (1, vec![0]));
        // Step 2: phase 0 sees the phase-1 put (10) of step 1.
        assert_eq!(log[2], (0, vec![10]));
        assert_eq!(log[3], (1, vec![0]));
        assert_eq!(ex.stats.total_msgs_residual(), 8);
    }

    #[test]
    #[should_panic(expected = "must not put to itself")]
    fn self_put_panics() {
        struct SelfPut;
        impl RankAlgorithm for SelfPut {
            type Msg = ();
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, _i: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
                ctx.put(0, CommClass::Solve, (), 0);
            }
            fn put_targets(&self) -> Vec<usize> {
                Vec::new()
            }
        }
        let ranks = vec![SelfPut, SelfPut];
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
    }

    #[test]
    #[should_panic(expected = "not in its declared put_targets")]
    fn undeclared_target_put_panics() {
        struct Liar {
            id: usize,
        }
        impl RankAlgorithm for Liar {
            type Msg = ();
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, _i: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
                // Declared only the right neighbor; puts left.
                ctx.put((self.id + 2) % 3, CommClass::Solve, (), 0);
            }
            fn put_targets(&self) -> Vec<usize> {
                vec![(self.id + 1) % 3]
            }
        }
        let ranks = (0..3).map(|id| Liar { id }).collect();
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
    }

    /// A rank declaring the given put targets (and never putting).
    struct Declares(Vec<usize>);

    impl RankAlgorithm for Declares {
        type Msg = ();
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _p: usize, _i: &[Envelope<()>], _ctx: &mut PhaseCtx<()>) {}
        fn put_targets(&self) -> Vec<usize> {
            self.0.clone()
        }
    }

    #[test]
    #[should_panic(expected = "declared an out-of-range or self put target")]
    fn self_put_target_panics() {
        let ranks = vec![Declares(vec![1]), Declares(vec![0, 1])];
        Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    }

    #[test]
    #[should_panic(expected = "declared an out-of-range or self put target")]
    fn out_of_range_put_target_panics() {
        let ranks = vec![Declares(vec![1]), Declares(vec![2])];
        Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    }

    #[test]
    fn inbox_ordered_by_origin_rank() {
        // Every rank sends to rank 0 in one phase; rank 0 must see origins
        // in increasing order in every exec mode.
        struct AllToZero {
            id: usize,
            seen: Vec<usize>,
        }
        impl RankAlgorithm for AllToZero {
            type Msg = ();
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
                if self.id == 0 {
                    self.seen = inbox.iter().map(|e| e.src).collect();
                } else {
                    ctx.put(0, CommClass::Solve, (), 1);
                }
            }
            fn put_targets(&self) -> Vec<usize> {
                if self.id == 0 {
                    vec![]
                } else {
                    vec![0]
                }
            }
        }
        for mode in [ExecMode::Sequential, ExecMode::Threaded(4)] {
            let ranks: Vec<AllToZero> = (0..9).map(|id| AllToZero { id, seen: vec![] }).collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.set_close_mode(CloseMode::Parallel);
            ex.step();
            ex.step();
            assert_eq!(ex.ranks()[0].seen, (1..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn drops_counted_per_class_in_stats() {
        let chaos = ChaosConfig {
            drop_rate: 1.0,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos);
        ex.step();
        ex.step();
        // Everything dropped: nothing ever arrives.
        assert!(ex.ranks()[1].received_this_phase.is_empty());
        assert_eq!(ex.stats.total_msgs_dropped(), 6);
        assert_eq!(ex.stats.total_faults().dropped.of(CommClass::Solve), 6);
        // Send-side accounting is unaffected by delivery faults.
        assert_eq!(ex.stats.total_msgs(), 6);
        assert_eq!(ex.stats.msgs_per_rank, vec![2, 2, 2]);
    }

    #[test]
    fn duplicates_are_delivered_twice() {
        let chaos = ChaosConfig {
            duplicate_rate: 1.0,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos);
        ex.step();
        ex.step();
        // Rank 1 sees its left neighbor's step-1 value twice.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1, 1]);
        assert_eq!(ex.stats.total_faults().duplicated.total(), 6);
    }

    #[test]
    fn delays_defer_delivery_by_configured_epochs() {
        let chaos = ChaosConfig {
            delay_rate: 1.0,
            max_delay_epochs: 1,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos);
        ex.step();
        ex.step();
        // One-epoch delay: the step-1 put (normally visible in step 2) is
        // still in flight during step 2...
        assert!(ex.ranks()[1].received_this_phase.is_empty());
        ex.step();
        // ...and lands for step 3.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1]);
        assert_eq!(ex.stats.total_faults().delayed.total(), 9);
    }

    #[test]
    fn same_epoch_expirations_keep_deferral_order() {
        // Regression for the delayed-put drain: several puts from one
        // origin to one target, all deferred at the same epoch to the same
        // due epoch, must surface in their original put order (the drain is
        // a single order-preserving partition pass, not an index-shifting
        // remove loop).
        struct Burst {
            id: usize,
            step: u64,
            seen: Vec<u64>,
        }
        impl RankAlgorithm for Burst {
            type Msg = u64;
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
                if self.id == 0 {
                    for k in 0..3 {
                        ctx.put(1, CommClass::Solve, self.step * 10 + k, 8);
                    }
                } else {
                    self.seen.extend(inbox.iter().map(|e| e.payload));
                }
                self.step += 1;
            }
            fn put_targets(&self) -> Vec<usize> {
                if self.id == 0 {
                    vec![1]
                } else {
                    vec![]
                }
            }
        }
        let chaos = ChaosConfig {
            delay_rate: 1.0,
            max_delay_epochs: 1,
            seed: 7,
            ..ChaosConfig::none()
        };
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let ranks = (0..2)
                .map(|id| Burst {
                    id,
                    step: 0,
                    seen: vec![],
                })
                .collect();
            let mut ex = Executor::with_chaos(ranks, CostModel::default(), mode, chaos);
            ex.set_close_mode(CloseMode::Parallel);
            for _ in 0..5 {
                ex.step();
            }
            // Every step's burst is delayed one epoch, then arrives intact
            // and in put order.
            assert_eq!(
                ex.ranks()[1].seen,
                vec![0, 1, 2, 10, 11, 12, 20, 21, 22],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn several_puts_on_one_edge_deliver_in_put_order() {
        // Fault-free counterpart of the burst test above: origins put a
        // step-dependent number of messages (0 to 3) to each neighbor in
        // one phase, interleaving targets, so buckets fill past the one
        // envelope allocated at construction, drain, and refill. Every
        // inbox must hold the previous phase's puts origin-major, each
        // origin's in put order, under every exec and close mode.
        const N: usize = 5;
        struct Fan {
            id: usize,
            step: u64,
            seen: Vec<Vec<u64>>,
        }
        impl RankAlgorithm for Fan {
            type Msg = u64;
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
                self.seen.push(inbox.iter().map(|e| e.payload).collect());
                for (k, t) in fan_puts(self.id, self.step).into_iter().enumerate() {
                    let payload = fan_payload(self.id, self.step, k);
                    ctx.put(t, CommClass::Solve, payload, 8);
                }
                self.step += 1;
            }
            fn put_targets(&self) -> Vec<usize> {
                vec![(self.id + N - 1) % N, (self.id + 1) % N]
            }
        }
        // The targets of one origin's puts in one step, in put order.
        fn fan_puts(id: usize, step: u64) -> Vec<usize> {
            let (left, right) = ((id + N - 1) % N, (id + 1) % N);
            let (nl, nr) = ((id + step as usize) % 4, (2 * id + step as usize + 1) % 4);
            let mut ts = Vec::new();
            for i in 0..nl.max(nr) {
                if i < nr {
                    ts.push(right);
                }
                if i < nl {
                    ts.push(left);
                }
            }
            ts
        }
        fn fan_payload(id: usize, step: u64, k: usize) -> u64 {
            (id as u64) * 1_000_000 + step * 1_000 + k as u64
        }
        let steps = 8u64;
        // The epoch rule, spelled out: step `s` sees step `s − 1`'s puts.
        let mut expected = vec![vec![Vec::new()]; N];
        for step in 0..steps - 1 {
            for (t, exp) in expected.iter_mut().enumerate() {
                let mut inbox = Vec::new();
                for o in 0..N {
                    for (k, tt) in fan_puts(o, step).into_iter().enumerate() {
                        if tt == t {
                            inbox.push(fan_payload(o, step, k));
                        }
                    }
                }
                exp.push(inbox);
            }
        }
        assert!(
            expected.iter().flatten().any(|inbox| inbox.len() > 2),
            "some edge must carry several puts in one phase"
        );
        let mut reference: Option<Vec<StepStats>> = None;
        for (mode, close) in [
            (ExecMode::Sequential, CloseMode::Serial),
            (ExecMode::Threaded(2), CloseMode::Serial),
            (ExecMode::Threaded(2), CloseMode::Parallel),
        ] {
            let ranks = (0..N)
                .map(|id| Fan {
                    id,
                    step: 0,
                    seen: vec![],
                })
                .collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.set_close_mode(close);
            let stats: Vec<StepStats> = (0..steps).map(|_| ex.step()).collect();
            for (t, r) in ex.ranks().iter().enumerate() {
                assert_eq!(r.seen, expected[t], "{mode:?} {close:?} rank {t}");
            }
            match &reference {
                None => reference = Some(stats),
                Some(s) => assert_eq!(s, &stats, "{mode:?} {close:?}"),
            }
        }
    }

    #[test]
    fn stalled_rank_skips_compute_and_keeps_inbox() {
        let mut ex = Executor::new(ring(3), CostModel::default(), ExecMode::Sequential);
        ex.injector_mut().inject_stall(1, 2);
        let s1 = ex.step();
        assert_eq!(s1.faults.stalled_ranks, 1);
        assert_eq!(s1.relaxations, 2, "stalled rank does no work");
        assert_eq!(s1.active_ranks, 2);
        let s2 = ex.step();
        assert_eq!(s2.faults.stalled_ranks, 1);
        let s3 = ex.step();
        assert_eq!(s3.faults.stalled_ranks, 0);
        // While stalled, rank 1's inbox accumulated rank 0's puts from both
        // steps (values 1, then 1+3 after rank 0 absorbed rank 2's put);
        // nothing was lost, only late.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1, 4]);
        assert_eq!(ex.ranks()[1].value, 2 + 1 + 4);
    }

    #[test]
    fn full_chaos_identical_across_modes_and_routing_paths() {
        let chaos = ChaosConfig {
            drop_rate: 0.15,
            duplicate_rate: 0.15,
            delay_rate: 0.2,
            max_delay_epochs: 2,
            stall_rate: 0.1,
            stall_steps: 2,
            seed: 1234,
            ..ChaosConfig::none()
        };
        let mut a =
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Sequential, chaos);
        let mut bs: Vec<Executor<Ring>> = vec![
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Threaded(3), chaos),
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Threaded(3), chaos),
        ];
        bs[1].set_close_mode(CloseMode::Parallel);
        for _ in 0..12 {
            let sa = a.step();
            for b in &mut bs {
                let sb = b.step();
                assert_eq!(sa, sb, "per-step stats must match bit-for-bit");
            }
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        for b in &bs {
            let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
            assert_eq!(va, vb);
            assert_eq!(a.stats.msgs_per_rank, b.stats.msgs_per_rank);
        }
        let fa = a.stats.total_faults();
        assert!(
            fa.dropped.total() > 0,
            "chaos should have dropped something"
        );
        assert!(fa.duplicated.total() > 0);
        assert!(fa.delayed.total() > 0);
        assert!(fa.stalled_ranks > 0);
    }

    #[test]
    fn zero_rate_chaos_identical_to_no_chaos() {
        let mut a = Executor::new(ring(5), CostModel::default(), ExecMode::Sequential);
        let mut b = Executor::with_chaos(
            ring(5),
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig {
                seed: 99,
                ..ChaosConfig::none()
            },
        );
        for _ in 0..6 {
            assert_eq!(a.step(), b.step());
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
    }
}
