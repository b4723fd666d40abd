//! The superstep executor: epochs, puts, delivery, counters.
//!
//! # Epoch close
//!
//! Delivering the puts of a phase — deciding fault fates, routing
//! envelopes into target inboxes, expiring delayed puts, folding the
//! per-rank counters — used to be a serial section that grew with total
//! message volume, the Amdahl bottleneck of large-P runs. The executor
//! now has two routing strategies:
//!
//! * **origin-major (flat)**: the original path, used when the rank
//!   topology is unknown. Each origin's outbox is scanned in rank order
//!   on the calling thread.
//! * **target-major (bucketed)**: when every rank declares its possible
//!   put targets up front ([`RankAlgorithm::put_targets`]), the executor
//!   builds a *reverse-neighbor index* once at construction — for every
//!   target, the ordered list of origins that may message it, each with a
//!   dedicated outbox bucket. [`PhaseCtx::put`] appends into the
//!   per-(origin, target) bucket; at the close, each target drains its
//!   senders' buckets in origin order, so delivery is origin-major *by
//!   construction* and no post-hoc sort is needed on the fault-free path.
//!   Because distinct targets touch disjoint buckets, inboxes, and
//!   delayed queues, the close parallelizes over the worker pool
//!   ([`CloseMode`]), folding the per-rank [`PhaseTotals`] and the
//!   modelled-time reduction in the same pass.
//!
//! Both strategies, serial or pooled, at any worker count or grain,
//! produce bit-identical results: fault fates are pure functions of
//! `(epoch, origin, target, index, class)` (see
//! [`FaultInjector::fate_at`]), per-target work is independent, and the
//! chunk partials combine with exact integer arithmetic.

use crate::fault::{ChaosConfig, Fate, FaultInjector};
use crate::pool::{SharedPool, WorkerPool};
use crate::stats::{CommClass, CostModel, FaultStats, RunStats, StepStats};
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

/// Per-rank, per-phase counters the executor folds into [`StepStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTotals {
    pub msgs: u64,
    pub msgs_solve: u64,
    pub msgs_residual: u64,
    pub msgs_recovery: u64,
    pub msgs_redundancy: u64,
    pub msgs_transfer: u64,
    pub bytes: u64,
    pub bytes_solve: u64,
    pub bytes_residual: u64,
    pub bytes_recovery: u64,
    pub bytes_redundancy: u64,
    pub bytes_transfer: u64,
    pub flops: u64,
    pub relaxations: u64,
    pub active: bool,
    /// Measured wall-clock ns of this rank's phase callback (set by the
    /// executor, not the rank; feeds the load-imbalance observables only —
    /// never the deterministic counters).
    pub wall_ns: u64,
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

/// A flat per-origin outbox: `(target, envelope)` pairs in put order.
type FlatOutbox<M> = Vec<(usize, Envelope<M>)>;

/// Where a [`PhaseCtx`]'s puts go.
enum Sink<M> {
    /// Dynamic routing: `(target, envelope)` pairs in put order, drained
    /// origin-major at the epoch close.
    Flat(Vec<(usize, Envelope<M>)>),
    /// Static routing: this origin's `(target, bucket id)` edge list plus
    /// the base of the executor's shared bucket storage. Each put lands
    /// directly in its `(origin, target)` bucket.
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
    /// Constructor reusing a preallocated (cleared) outbox buffer, so the
    /// hot path stops reallocating every phase.
    fn with_outbox(rank: usize, outbox: Vec<(usize, Envelope<M>)>) -> Self {
        debug_assert!(outbox.is_empty());
        PhaseCtx {
            rank,
            sink: Sink::Flat(outbox),
            totals: PhaseTotals::default(),
        }
    }

    /// Constructor for the bucketed (reverse-neighbor-indexed) path.
    ///
    /// # Safety contract (upheld by the executor)
    /// `edges` must point at `nedges` valid `(target, bucket id)` pairs
    /// that outlive the context, every bucket id must be in bounds of the
    /// storage at `base`, and no other thread may touch those buckets
    /// while the context lives (each `(origin, target)` bucket belongs to
    /// exactly one origin, and one origin runs on exactly one worker).
    fn bucketed(
        rank: usize,
        edges: *const (u32, u32),
        nedges: usize,
        base: *mut Vec<Envelope<M>>,
        touched: *const AtomicBool,
    ) -> Self {
        PhaseCtx {
            rank,
            sink: Sink::Bucketed {
                edges,
                nedges,
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

    /// Constructor for alternate executors in this crate.
    pub(crate) fn new_for_async(rank: usize) -> Self {
        Self::with_outbox(rank, Vec::new())
    }

    /// Consumes the context, yielding the outbox and the counters
    /// (flat-sink contexts only — the async executor's path).
    pub(crate) fn into_outbox_and_totals(self) -> (Vec<(usize, Envelope<M>)>, PhaseTotals) {
        match self.sink {
            Sink::Flat(outbox) => (outbox, self.totals),
            Sink::Bucketed { .. } => unreachable!("bucketed contexts have no flat outbox"),
        }
    }

    /// Consumes the context, yielding the flat outbox (if any) and the
    /// counters.
    fn finish(self) -> (Option<FlatOutbox<M>>, PhaseTotals) {
        match self.sink {
            Sink::Flat(outbox) => (Some(outbox), self.totals),
            Sink::Bucketed { .. } => (None, self.totals),
        }
    }

    /// Puts `payload` into `target`'s window. Visible to `target` at the
    /// next phase (after the epoch closes). `bytes` is the modelled payload
    /// size used by the β term of the cost model.
    ///
    /// # Panics
    /// If `target` is the calling rank, or — on the statically routed path
    /// — if `target` is not in the set this rank declared via
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
            Sink::Flat(outbox) => outbox.push((target, env)),
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
        self.totals.msgs += 1;
        match class {
            CommClass::Solve => {
                self.totals.msgs_solve += 1;
                self.totals.bytes_solve += bytes;
            }
            CommClass::Residual => {
                self.totals.msgs_residual += 1;
                self.totals.bytes_residual += bytes;
            }
            CommClass::Recovery => {
                self.totals.msgs_recovery += 1;
                self.totals.bytes_recovery += bytes;
            }
            CommClass::Redundancy => {
                self.totals.msgs_redundancy += 1;
                self.totals.bytes_redundancy += bytes;
            }
            CommClass::Transfer => {
                self.totals.msgs_transfer += 1;
                self.totals.bytes_transfer += bytes;
            }
        }
        self.totals.bytes += bytes;
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
        self.totals.active = true;
    }

    /// Constructor for a *capture* context: a flat-sink context handed by a
    /// composition layer (the multi-RHS panel adapter in [`crate::panel`])
    /// to an inner algorithm's phase so its puts are collected rather than
    /// routed. Pair with [`PhaseCtx::into_captured`].
    pub fn capture(rank: usize) -> Self {
        Self::with_outbox(rank, Vec::new())
    }

    /// As [`PhaseCtx::capture`], reusing a caller-owned (empty) outbox
    /// buffer so a per-phase composition loop stops allocating one per
    /// inner call. Recover the buffer from [`PhaseCtx::into_captured`]
    /// after draining it.
    pub fn capture_reusing(rank: usize, outbox: Vec<(usize, Envelope<M>)>) -> Self {
        Self::with_outbox(rank, outbox)
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
                msgs: totals.msgs,
                bytes: totals.bytes,
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

    /// The static set of ranks this rank may ever `put` to, if known up
    /// front (for the solvers: the subdomain neighbor set).
    ///
    /// Returning `Some` from **every** rank lets the executor build a
    /// reverse-neighbor routing index at construction and close epochs
    /// target-major — in parallel on the worker pool — instead of
    /// scanning origin outboxes serially; a put to a rank outside the
    /// declared set then panics. `None` (the default) keeps dynamic
    /// origin-major routing; if any rank returns `None` the whole
    /// executor falls back to it.
    fn put_targets(&self) -> Option<Vec<usize>> {
        None
    }

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
    /// ranks from a shared atomic cursor (work stealing — see
    /// [`crate::pool`]). Results are bit-identical to
    /// [`ExecMode::Sequential`] for any `n` and any steal order: ranks
    /// interact only at epoch boundaries, which the executor routes either
    /// serially or over disjoint per-target state, and fault decisions are
    /// pure functions of per-message keys.
    Threaded(usize),
}

/// How the executor closes epochs (routes the phase's puts into inboxes).
///
/// Every mode produces bit-identical results; this knob only chooses
/// *where* the routing work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloseMode {
    /// Close on the worker pool when it pays: the routing index exists
    /// ([`RankAlgorithm::put_targets`]), the executor has a pool with ≥ 2
    /// workers, tracing is off, and the phase's message volume clears
    /// [`Executor::set_parallel_close_threshold`]. Serial otherwise.
    #[default]
    Auto,
    /// Always close on the calling thread (the reference path).
    Serial,
    /// Close on the worker pool whenever structurally possible (routing
    /// index + pool present, tracing off), regardless of volume.
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
    /// reverse-neighbor index the target-major close scans.
    in_edges: Vec<Vec<(u32, u32)>>,
}

/// Builds the routing index if every rank declares its put targets.
fn build_topology<A: RankAlgorithm>(ranks: &[A]) -> Option<(Topology, usize)> {
    let n = ranks.len();
    assert!(n < u32::MAX as usize, "rank count must fit in u32");
    let mut out_edges = Vec::with_capacity(n);
    let mut nbuckets = 0usize;
    for (i, r) in ranks.iter().enumerate() {
        let mut ts = r.put_targets()?;
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
    Some((
        Topology {
            out_edges,
            in_edges,
        },
        nbuckets,
    ))
}

/// Per-chunk partial of the epoch-close fold: fault outcomes of the
/// chunk's targets plus the [`PhaseTotals`] reduction over the chunk's
/// origins. Chunks combine with exact integer arithmetic (sums and maxes),
/// so the fold is bit-identical for any chunk count.
#[derive(Debug, Clone, Copy, Default)]
struct ClosePartial {
    faults: FaultStats,
    msgs: u64,
    msgs_solve: u64,
    msgs_residual: u64,
    msgs_recovery: u64,
    msgs_redundancy: u64,
    msgs_transfer: u64,
    bytes: u64,
    bytes_solve: u64,
    bytes_residual: u64,
    bytes_recovery: u64,
    bytes_redundancy: u64,
    bytes_transfer: u64,
    flops: u64,
    max_flops: u64,
    relaxations: u64,
    active: u64,
    compute_ns: u64,
}

impl ClosePartial {
    fn absorb_rank(&mut self, t: &PhaseTotals) {
        self.msgs += t.msgs;
        self.msgs_solve += t.msgs_solve;
        self.msgs_residual += t.msgs_residual;
        self.msgs_recovery += t.msgs_recovery;
        self.msgs_redundancy += t.msgs_redundancy;
        self.msgs_transfer += t.msgs_transfer;
        self.bytes += t.bytes;
        self.bytes_solve += t.bytes_solve;
        self.bytes_residual += t.bytes_residual;
        self.bytes_recovery += t.bytes_recovery;
        self.bytes_redundancy += t.bytes_redundancy;
        self.bytes_transfer += t.bytes_transfer;
        self.flops += t.flops;
        self.max_flops = self.max_flops.max(t.flops);
        self.relaxations += t.relaxations;
        self.active += u64::from(t.active);
        self.compute_ns += t.wall_ns;
    }

    fn merge(&mut self, other: &ClosePartial) {
        self.faults.accumulate(&other.faults);
        self.msgs += other.msgs;
        self.msgs_solve += other.msgs_solve;
        self.msgs_residual += other.msgs_residual;
        self.msgs_recovery += other.msgs_recovery;
        self.msgs_redundancy += other.msgs_redundancy;
        self.msgs_transfer += other.msgs_transfer;
        self.bytes += other.bytes;
        self.bytes_solve += other.bytes_solve;
        self.bytes_residual += other.bytes_residual;
        self.bytes_recovery += other.bytes_recovery;
        self.bytes_redundancy += other.bytes_redundancy;
        self.bytes_transfer += other.bytes_transfer;
        self.flops += other.flops;
        self.max_flops = self.max_flops.max(other.max_flops);
        self.relaxations += other.relaxations;
        self.active += other.active;
        self.compute_ns += other.compute_ns;
    }
}

/// Runs a set of [`RankAlgorithm`] instances in lock-step parallel steps.
pub struct Executor<A: RankAlgorithm> {
    ranks: Vec<A>,
    /// Inboxes holding envelopes visible at the next phase.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-rank counters of the current phase, refilled every phase.
    phase_totals: Vec<PhaseTotals>,
    /// Preallocated per-origin outboxes (flat routing only), drained in
    /// place at the close so the hot path stops reallocating.
    flat_out: Vec<Vec<(usize, Envelope<A::Msg>)>>,
    /// The static routing index (`None` = flat routing).
    topo: Option<Topology>,
    /// Bucket storage, one slot per directed `(origin, target)` edge.
    buckets: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-target queues of delay-injected puts, in deferral order.
    delayed_q: Vec<Vec<DelayedEnv<A::Msg>>>,
    /// Delay-injected puts currently parked (flat path bookkeeping).
    delayed_pending: usize,
    /// Per-target flag: a fault perturbed this inbox's origin order this
    /// phase, so it needs the stable re-sort (and only then).
    unsorted: Vec<bool>,
    /// Per-target dirty flags for the bucketed close: [`PhaseCtx::put`]
    /// marks a target when one of its inbound buckets goes empty →
    /// non-empty, and the close skips unmarked targets entirely (atomic
    /// because concurrent origins may mark the same target).
    touched: Vec<AtomicBool>,
    /// Per-(origin, target) put indices for the flat path's fate keys.
    fate_seq: Vec<u32>,
    /// Targets touched in `fate_seq` by the current origin.
    seq_touched: Vec<usize>,
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
    /// Optional delivery log (see [`Executor::enable_trace`]).
    pub trace: Option<crate::trace::Trace>,
    steps_executed: usize,
    /// Statistics accumulated over all executed steps.
    pub stats: RunStats,
}

/// A raw pointer the pool closure may share across workers. Sound because
/// each worker dereferences only the indices it claimed from the atomic
/// cursor, and those claims are disjoint.
struct SyncPtr<T>(*mut T);
unsafe impl<T> Send for SyncPtr<T> {}
unsafe impl<T> Sync for SyncPtr<T> {}

/// Everything the target-major close touches, shared across close workers.
/// Raw pointers cover the per-target state (inboxes, delayed queues, sort
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
    /// If `chaos` fails [`ChaosConfig::validate`].
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
        let (topo, nbuckets) = match build_topology(&ranks) {
            Some((t, nb)) => (Some(t), nb),
            None => (None, 0),
        };
        Executor {
            injector: FaultInjector::new(chaos, n),
            ranks,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            phase_totals: vec![PhaseTotals::default(); n],
            flat_out: (0..n).map(|_| Vec::new()).collect(),
            topo,
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            delayed_q: (0..n).map(|_| Vec::new()).collect(),
            delayed_pending: 0,
            unsorted: vec![false; n],
            touched: (0..n).map(|_| AtomicBool::new(false)).collect(),
            fate_seq: vec![0; n],
            seq_touched: Vec::new(),
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
            trace: None,
            steps_executed: 0,
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

    /// Whether the reverse-neighbor routing index exists (every rank
    /// declared [`RankAlgorithm::put_targets`]).
    pub fn has_routing_index(&self) -> bool {
        self.topo.is_some()
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

    /// Starts logging every delivered message (up to `capacity` events)
    /// into [`Executor::trace`]. Tracing serializes the epoch close (the
    /// log is ordered), so it overrides [`CloseMode::Parallel`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(crate::trace::Trace::new(capacity));
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
        self.delayed_pending = 0;
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
        // Covers configured faults and targeted `inject_stall` calls.
        let faults_possible = self.injector.config().is_active() || stalled.contains(&true);
        for phase in 0..nphases {
            let t_dispatch = Instant::now();
            self.run_phase(phase, &stalled);
            step.span_ns += t_dispatch.elapsed().as_nanos() as u64;
            let t_close = Instant::now();
            if self.topo.is_some() {
                self.close_bucketed(phase, &stalled, &mut step);
            } else {
                self.close_flat(phase, &stalled, faults_possible, &mut step);
            }
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
        self.steps_executed += 1;
        step
    }

    /// Applies one phase's combined close partial to the step counters and
    /// the modelled clock. Shared by every close path, so the arithmetic —
    /// and therefore the `f64` result — is identical across them.
    fn apply_phase_partial(&self, ph: &ClosePartial, step: &mut StepStats) {
        step.faults.accumulate(&ph.faults);
        step.msgs += ph.msgs;
        step.msgs_solve += ph.msgs_solve;
        step.msgs_residual += ph.msgs_residual;
        step.msgs_recovery += ph.msgs_recovery;
        step.msgs_redundancy += ph.msgs_redundancy;
        step.msgs_transfer += ph.msgs_transfer;
        step.bytes += ph.bytes;
        step.bytes_solve += ph.bytes_solve;
        step.bytes_residual += ph.bytes_residual;
        step.bytes_recovery += ph.bytes_recovery;
        step.bytes_redundancy += ph.bytes_redundancy;
        step.bytes_transfer += ph.bytes_transfer;
        step.flops += ph.flops;
        step.relaxations += ph.relaxations;
        step.active_ranks += ph.active;
        step.compute_ns += ph.compute_ns;
        // Time: the slowest rank gates the computation; message and byte
        // volume are charged at the per-rank average (congestion /
        // epoch-overhead model — see `CostModel`).
        let p = self.ranks.len() as f64;
        step.time += self.model.sync
            + self.model.gamma * ph.max_flops as f64
            + self.model.alpha * ph.msgs as f64 / p
            + self.model.beta * ph.bytes as f64 / p;
    }

    /// The origin-major close for topology-unknown algorithms: scan every
    /// origin's outbox in rank order on the calling thread.
    fn close_flat(
        &mut self,
        phase: usize,
        stalled: &[bool],
        faults_possible: bool,
        step: &mut StepStats,
    ) {
        let n = self.ranks.len();
        // A stalled rank has not read its inbox, so it keeps accumulating
        // until the rank next executes a phase.
        for (inbox, &is_stalled) in self.inboxes.iter_mut().zip(stalled) {
            if !is_stalled {
                inbox.clear();
            }
        }
        let message_faults = self.injector.config().message_faults_active();
        let epoch = self.epochs_executed;
        let mut ph = ClosePartial::default();
        // Detach the outboxes so `deliver` can borrow `self`; `drain`
        // keeps every slot's capacity for the next phase.
        let mut slots = std::mem::take(&mut self.flat_out);
        for (origin, outbox) in slots.iter_mut().enumerate() {
            self.stats.msgs_per_rank[origin] += outbox.len() as u64;
            for (target, env) in outbox.drain(..) {
                let fate = if message_faults {
                    // Per-(origin, target) put index for the fate key.
                    let idx = self.fate_seq[target];
                    self.fate_seq[target] += 1;
                    if idx == 0 {
                        self.seq_touched.push(target);
                    }
                    self.injector
                        .fate_at(epoch, origin as u32, target as u32, idx, env.class)
                } else {
                    Fate::DELIVER
                };
                if fate.dropped {
                    ph.faults.dropped.add(env.class, 1);
                    continue;
                }
                if fate.duplicated {
                    ph.faults.duplicated.add(env.class, 1);
                    if stalled[target] {
                        self.unsorted[target] = true;
                    }
                    self.deliver(phase, target, env.clone());
                }
                if fate.delay > 0 {
                    ph.faults.delayed.add(env.class, 1);
                    self.delayed_q[target].push(DelayedEnv {
                        due_epoch: epoch + fate.delay as u64,
                        env,
                    });
                    self.delayed_pending += 1;
                } else {
                    if stalled[target] {
                        self.unsorted[target] = true;
                    }
                    self.deliver(phase, target, env);
                }
            }
            for &t in &self.seq_touched {
                self.fate_seq[t] = 0;
            }
            self.seq_touched.clear();
        }
        self.flat_out = slots;
        // Surface deferred puts whose delay expired at this close, per
        // target in the order they were deferred (a single order-preserving
        // partition pass — `extract_if` keeps both the extraction order and
        // the retained order).
        if self.delayed_pending > 0 {
            for t in 0..n {
                if self.delayed_q[t].is_empty() {
                    continue;
                }
                let mut dq = std::mem::take(&mut self.delayed_q[t]);
                for d in dq.extract_if(.., |d| d.due_epoch <= epoch) {
                    self.deliver(phase, t, d.env);
                    self.delayed_pending -= 1;
                    // A late arrival interleaves origins: this inbox needs
                    // the re-sort.
                    self.unsorted[t] = true;
                }
                self.delayed_q[t] = dq;
            }
        }
        // Restore the "ordered by origin rank" inbox contract — but only
        // where a fate actually perturbed delivery this phase (late
        // arrival, or appends behind a stalled rank's accumulation). The
        // sort is stable, so within one origin the delivery order (which
        // delays may have scrambled — that is the injected fault) is
        // preserved.
        if faults_possible {
            for t in 0..n {
                if self.unsorted[t] {
                    self.inboxes[t].sort_by_key(|env| env.src);
                    self.unsorted[t] = false;
                }
            }
        }
        // Fold the per-rank counters (serially here; the bucketed close
        // folds them in its parallel pass).
        for (i, totals) in self.phase_totals.iter().enumerate() {
            ph.absorb_rank(totals);
            self.step_rank_ns[i] += totals.wall_ns;
        }
        self.apply_phase_partial(&ph, step);
    }

    /// The target-major close over the reverse-neighbor index: each target
    /// drains its senders' buckets in origin order. Runs on the calling
    /// thread or chunked across the worker pool ([`CloseMode`]); both
    /// produce bit-identical results because distinct targets touch
    /// disjoint state and chunk partials combine exactly.
    fn close_bucketed(&mut self, phase: usize, stalled: &[bool], step: &mut StepStats) {
        let n = self.ranks.len();
        let use_pool = match self.close_mode {
            CloseMode::Serial => false,
            CloseMode::Parallel => self.pool.is_some() && self.trace.is_none(),
            CloseMode::Auto => {
                self.pool.as_ref().is_some_and(|p| p.nworkers() >= 2)
                    && self.trace.is_none()
                    && self.phase_totals.iter().map(|t| t.msgs).sum::<u64>()
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
        let topo = self.topo.as_ref().expect("bucketed close has a topology");
        let sh = CloseShared {
            inboxes: self.inboxes.as_mut_ptr(),
            buckets: self.buckets.as_mut_ptr(),
            delayed: self.delayed_q.as_mut_ptr(),
            unsorted: self.unsorted.as_mut_ptr(),
            touched: &self.touched,
            partials: self.partials.as_mut_ptr(),
            msgs_per_rank: self.stats.msgs_per_rank.as_mut_ptr(),
            step_rank_ns: self.step_rank_ns.as_mut_ptr(),
            in_edges: &topo.in_edges,
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
                close_chunk(&sh, c, None, phase, 0);
            });
        } else {
            let step_idx = self.steps_executed;
            let mut trace = self.trace.as_mut();
            for c in 0..nchunks {
                // SAFETY: serial execution — no aliasing at all.
                unsafe {
                    close_chunk(&sh, c, trace.as_deref_mut(), phase, step_idx);
                }
            }
        }
        // Combine the chunk partials in chunk order. Integer sums and
        // maxes are exact, so the result is independent of the chunking.
        let mut ph = ClosePartial::default();
        for c in 0..nchunks {
            ph.merge(&self.partials[c]);
        }
        self.apply_phase_partial(&ph, step);
    }

    /// Delivers one envelope to `target` (trace + inbox push) — flat path.
    fn deliver(&mut self, phase: usize, target: usize, env: Envelope<A::Msg>) {
        if let Some(trace) = &mut self.trace {
            trace.record(crate::trace::TraceEvent {
                step: self.steps_executed,
                phase,
                src: env.src,
                dst: target,
                class: env.class,
            });
        }
        self.inboxes[target].push(env);
    }

    /// Runs `phase` on every non-stalled rank, filling the preallocated
    /// `self.phase_totals` slots and either the per-origin flat outboxes or
    /// the per-edge buckets (every container is empty on entry — the
    /// previous epoch close drained it in place). Stalled ranks contribute
    /// no puts and zero counters (they perform no work at all this phase).
    fn run_phase(&mut self, phase: usize, stalled: &[bool]) {
        let n = self.ranks.len();

        match self.mode {
            ExecMode::Sequential => {
                let buckets_base = self.buckets.as_mut_ptr();
                let touched_base = self.touched.as_ptr();
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
                    let mut ctx = match &self.topo {
                        Some(tp) => {
                            let edges = &tp.out_edges[i];
                            PhaseCtx::bucketed(
                                i,
                                edges.as_ptr(),
                                edges.len(),
                                buckets_base,
                                touched_base,
                            )
                        }
                        None => PhaseCtx::with_outbox(i, std::mem::take(&mut self.flat_out[i])),
                    };
                    self.ranks[i].phase(phase, &self.inboxes[i], &mut ctx);
                    let now = Instant::now();
                    let wall_ns = now.duration_since(t_prev).as_nanos() as u64;
                    t_prev = now;
                    let (flat, mut totals) = ctx.finish();
                    totals.wall_ns = wall_ns;
                    self.phase_totals[i] = totals;
                    if let Some(buf) = flat {
                        self.flat_out[i] = buf;
                    }
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
                let flat = SyncPtr(self.flat_out.as_mut_ptr());
                let buckets = SyncPtr(self.buckets.as_mut_ptr());
                let touched = &self.touched;
                let inboxes = &self.inboxes;
                let topo = self.topo.as_ref();
                pool.run(n, grain, &|i| {
                    // Capture the `SyncPtr` wrappers whole (precise capture
                    // would otherwise grab the raw-pointer fields, which are
                    // not `Sync`).
                    let (ranks, slots, flat, buckets) = (&ranks, &slots, &flat, &buckets);
                    // SAFETY: the pool hands each index to exactly one
                    // worker, so `ranks[i]`, `slots[i]`, `flat[i]` — and,
                    // through the edge list, origin `i`'s buckets — are
                    // accessed exclusively; `inboxes` is only read.
                    let rank = unsafe { &mut *ranks.0.add(i) };
                    let slot = unsafe { &mut *slots.0.add(i) };
                    if stalled[i] {
                        *slot = PhaseTotals::default();
                        return;
                    }
                    let ctx = match topo {
                        Some(tp) => {
                            let edges = &tp.out_edges[i];
                            PhaseCtx::bucketed(
                                i,
                                edges.as_ptr(),
                                edges.len(),
                                buckets.0,
                                touched.as_ptr(),
                            )
                        }
                        None => {
                            let buf = unsafe { std::mem::take(&mut *flat.0.add(i)) };
                            PhaseCtx::with_outbox(i, buf)
                        }
                    };
                    if let Some(buf) = run_one_rank(rank, phase, &inboxes[i], ctx, slot) {
                        unsafe {
                            *flat.0.add(i) = buf;
                        }
                    }
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
unsafe fn close_chunk<M: Clone + Send>(
    sh: &CloseShared<'_, M>,
    c: usize,
    mut trace: Option<&mut crate::trace::Trace>,
    phase: usize,
    step_idx: usize,
) {
    let lo = c * sh.chunk;
    let hi = ((c + 1) * sh.chunk).min(sh.n);
    let mut part = ClosePartial::default();
    for t in lo..hi {
        close_one_target(
            sh,
            t,
            trace.as_deref_mut(),
            &mut part.faults,
            phase,
            step_idx,
        );
    }
    for i in lo..hi {
        let totals = &sh.totals[i];
        part.absorb_rank(totals);
        *sh.msgs_per_rank.add(i) += totals.msgs;
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
unsafe fn close_one_target<M: Clone>(
    sh: &CloseShared<'_, M>,
    t: usize,
    mut trace: Option<&mut crate::trace::Trace>,
    faults: &mut FaultStats,
    phase: usize,
    step_idx: usize,
) {
    let inbox = &mut *sh.inboxes.add(t);
    let is_stalled = sh.stalled[t];
    // Dirty-target fast path: if no put touched any of `t`'s inbound
    // buckets this phase and no delayed put is parked, there is nothing to
    // route — skip the per-edge bucket scan entirely. The inbox still
    // empties (the target read it this phase) unless the target is
    // stalled, and `unsorted[t]` cannot be pending here (the bucketed
    // close always clears it before returning).
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
            if let Some(tr) = trace.as_deref_mut() {
                for env in bucket.iter() {
                    tr.record(crate::trace::TraceEvent {
                        step: step_idx,
                        phase,
                        src: env.src,
                        dst: t,
                        class: env.class,
                    });
                }
            }
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
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record(crate::trace::TraceEvent {
                        step: step_idx,
                        phase,
                        src: env.src,
                        dst: t,
                        class: env.class,
                    });
                }
                inbox.push(env.clone());
            }
            if fate.delay > 0 {
                faults.delayed.add(env.class, 1);
                (*sh.delayed.add(t)).push(DelayedEnv {
                    due_epoch: sh.epoch + fate.delay as u64,
                    env,
                });
            } else {
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record(crate::trace::TraceEvent {
                        step: step_idx,
                        phase,
                        src: env.src,
                        dst: t,
                        class: env.class,
                    });
                }
                inbox.push(env);
            }
        }
    }
    // Deliver expired delayed puts in deferral order.
    let dq = &mut *sh.delayed.add(t);
    if !dq.is_empty() {
        let due = sh.epoch;
        for d in dq.extract_if(.., |d| d.due_epoch <= due) {
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(crate::trace::TraceEvent {
                    step: step_idx,
                    phase,
                    src: d.env.src,
                    dst: t,
                    class: d.env.class,
                });
            }
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

/// Executes one rank's phase, timing the callback for the load-imbalance
/// observables. Returns the flat outbox buffer for recycling (flat path
/// only — bucketed puts already sit in their buckets).
fn run_one_rank<A: RankAlgorithm>(
    rank: &mut A,
    phase: usize,
    inbox: &[Envelope<A::Msg>],
    mut ctx: PhaseCtx<A::Msg>,
    slot: &mut PhaseTotals,
) -> Option<Vec<(usize, Envelope<A::Msg>)>> {
    let t0 = Instant::now();
    rank.phase(phase, inbox, &mut ctx);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let (flat, mut totals) = ctx.finish();
    totals.wall_ns = wall_ns;
    *slot = totals;
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy algorithm on a ring: each rank holds a value; every step it puts
    /// the value to its right neighbor in phase 0 and adds what it received
    /// (visible in phase 0 of the *next* step, per the epoch rule).
    /// With `declare` set the rank advertises its put target up front,
    /// switching the executor to the bucketed (reverse-neighbor-indexed)
    /// routing path.
    struct Ring {
        id: usize,
        n: usize,
        value: u64,
        declare: bool,
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
        fn put_targets(&self) -> Option<Vec<usize>> {
            self.declare.then(|| vec![(self.id + 1) % self.n])
        }
    }

    fn ring_with(n: usize, declare: bool) -> Vec<Ring> {
        (0..n)
            .map(|id| Ring {
                id,
                n,
                value: id as u64 + 1,
                declare,
                received_this_phase: Vec::new(),
            })
            .collect()
    }

    fn ring(n: usize) -> Vec<Ring> {
        ring_with(n, false)
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
        for declare in [false, true] {
            for (mode, grain) in [
                (ExecMode::Sequential, None),
                (ExecMode::Threaded(2), None),
                (ExecMode::Threaded(4), Some(1)),
                (ExecMode::Threaded(7), Some(3)),
                (ExecMode::Threaded(32), Some(1000)),
            ] {
                let mut ex = Executor::new(ring_with(13, declare), CostModel::default(), mode);
                assert_eq!(ex.has_routing_index(), declare);
                if let Some(g) = grain {
                    ex.set_grain(g);
                }
                for _ in 0..6 {
                    ex.step();
                }
                let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
                assert_eq!(v, vref, "{mode:?} grain {grain:?} declare {declare}");
                assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
                for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                    assert_eq!(sa, sb, "{mode:?} grain {grain:?} declare {declare}");
                }
            }
        }
    }

    #[test]
    fn close_modes_agree_bit_for_bit() {
        // The close strategy is a pure scheduling knob: Serial, Parallel,
        // and Auto (with a zero threshold, forcing the pool at this tiny
        // size) must all match the flat-path sequential reference.
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for close in [CloseMode::Serial, CloseMode::Parallel, CloseMode::Auto] {
            let mut ex = Executor::new(
                ring_with(13, true),
                CostModel::default(),
                ExecMode::Threaded(3),
            );
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
    fn trace_records_deliveries() {
        for declare in [false, true] {
            let mut ex = Executor::new(
                ring_with(3, declare),
                CostModel::default(),
                ExecMode::Sequential,
            );
            ex.enable_trace(100);
            ex.step();
            ex.step();
            let trace = ex.trace.as_ref().unwrap();
            // First step's puts are delivered at its epoch close (3 events),
            // second step likewise.
            assert_eq!(trace.len(), 6);
            let m = trace.traffic_matrix(3);
            assert_eq!(m[0][1], 2);
            assert_eq!(m[2][0], 2);
            assert_eq!(m[0][2], 0);
            assert!(trace.to_csv().contains("0,0,0,1,Solve"));
        }
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
            fn put_targets(&self) -> Option<Vec<usize>> {
                Some(vec![(self.id + 1) % 3])
            }
        }
        let ranks = (0..3).map(|id| Liar { id }).collect();
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
    }

    #[test]
    fn inbox_ordered_by_origin_rank() {
        // Every rank sends to rank 0 in one phase; rank 0 must see origins
        // in increasing order in every exec mode, with and without the
        // routing index.
        struct AllToZero {
            id: usize,
            declare: bool,
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
            fn put_targets(&self) -> Option<Vec<usize>> {
                self.declare
                    .then(|| if self.id == 0 { vec![] } else { vec![0] })
            }
        }
        for declare in [false, true] {
            for mode in [ExecMode::Sequential, ExecMode::Threaded(4)] {
                let ranks: Vec<AllToZero> = (0..9)
                    .map(|id| AllToZero {
                        id,
                        declare,
                        seen: vec![],
                    })
                    .collect();
                let mut ex = Executor::new(ranks, CostModel::default(), mode);
                ex.set_close_mode(CloseMode::Parallel);
                ex.step();
                ex.step();
                assert_eq!(ex.ranks()[0].seen, (1..9).collect::<Vec<_>>());
            }
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
            declare: bool,
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
            fn put_targets(&self) -> Option<Vec<usize>> {
                self.declare
                    .then(|| if self.id == 0 { vec![1] } else { vec![] })
            }
        }
        let chaos = ChaosConfig {
            delay_rate: 1.0,
            max_delay_epochs: 1,
            seed: 7,
            ..ChaosConfig::none()
        };
        for declare in [false, true] {
            for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
                let ranks = (0..2)
                    .map(|id| Burst {
                        id,
                        declare,
                        step: 0,
                        seen: vec![],
                    })
                    .collect();
                let mut ex = Executor::with_chaos(ranks, CostModel::default(), mode, chaos);
                ex.set_close_mode(CloseMode::Parallel);
                for _ in 0..5 {
                    ex.step();
                }
                // Every step's burst is delayed one epoch, then arrives
                // intact and in put order.
                assert_eq!(
                    ex.ranks()[1].seen,
                    vec![0, 1, 2, 10, 11, 12, 20, 21, 22],
                    "declare {declare} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn stalled_rank_skips_compute_and_keeps_inbox() {
        for declare in [false, true] {
            let mut ex = Executor::new(
                ring_with(3, declare),
                CostModel::default(),
                ExecMode::Sequential,
            );
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
            Executor::with_chaos(
                ring_with(7, true),
                CostModel::default(),
                ExecMode::Sequential,
                chaos,
            ),
            Executor::with_chaos(
                ring_with(7, true),
                CostModel::default(),
                ExecMode::Threaded(3),
                chaos,
            ),
        ];
        bs[2].set_close_mode(CloseMode::Parallel);
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
