//! The superstep executor: epochs, puts, delivery, counters.
//!
//! # Epoch close
//!
//! Every rank declares the ranks it may put to up front
//! ([`RankAlgorithm::put_targets`]), as an MPI-3 process names its
//! neighbour group before an access epoch. From those sets the executor
//! builds a routing index once at construction: one *window slot* per
//! directed `(origin, target)` edge, numbered origin-major, and for each
//! target the list of its in-edge slots in origin order. [`PhaseCtx::put`]
//! writes its envelope straight into its edge's slot, and a target reads
//! its slots where they lie: its [`Inbox`] visits them in origin order,
//! each slot in put order, so delivery is origin-major *by construction*
//! and nothing moves or sorts on the fault-free path.
//!
//! The slots come in two *generations*. Epoch `e` puts into generation
//! `e mod 2` while the phases of epoch `e` read generation `e − 1`, which
//! the close of epoch `e − 1` left in place. The worker that ran rank `t`
//! drops `t`'s consumed envelopes right after `t`'s phase, where they lie,
//! and each origin zeroes its slots' counts before it next puts into that
//! generation, so a read writes nothing into another rank's slots. A
//! fault-free epoch close therefore does no per-message work at all: it
//! only folds the per-rank `PhaseTotals` and the modelled-time reduction.
//!
//! Two cases take the one *materialising* path, which moves envelopes
//! into a per-target *held* `Vec` that the target's next inbox reads
//! instead of its slots:
//!
//! * a target that sat the epoch out (stalled, or not picked by the
//!   asynchronous schedule) did not read its slots, and the next epoch
//!   puts into them: its unread content moves into held, followed by its
//!   new arrivals;
//! * with message faults active, every new arrival takes its fate
//!   (dropped, duplicated, deferred) on its way into held, and deferred
//!   puts whose delay expired join it from the target's delayed queue.
//!
//! Held content is re-sorted by origin (a stable sort) only when a fate
//! perturbed origin order: a late arrival, or new arrivals behind unread
//! content. After every close, a target's held `Vec` is non-empty only if
//! its next-read slots are empty, so an inbox is either held or in place
//! and never needs a merge.
//!
//! Distinct targets touch disjoint slots, held `Vec`s and delayed queues,
//! so the close runs serially or chunked over the worker pool
//! ([`CloseMode`]). Serial or pooled, at any worker count, the close
//! produces bit-identical results: fault fates are pure functions of
//! `(epoch, origin, target, index, class)` (see
//! [`FaultInjector::fate_at`]), per-target work is independent, and the
//! chunk partials combine with exact integer arithmetic. The phases are
//! as deterministic: a rank reads only its own inbox, which no one writes
//! during the epoch, and writes only its own slots of the other
//! generation, so what it reads does not depend on which worker runs
//! which rank when.
//!
//! An epoch runs every rank that is not skipped, each at phase
//! `clock % phases()` of its own clock, then closes; a skipped rank keeps
//! its inbox. A lock-step [`Executor::step`] is `phases()` epochs that
//! skip only stalled ranks; a [scheduled](Executor::scheduled) one is one
//! epoch of the ranks the asynchronous schedule picks.

use crate::async_exec::{AsyncOptions, Schedule};
use crate::fault::{ChaosConfig, FaultInjector};
use crate::pool::{SyncPtr, WorkerPool};
use crate::stats::{ClassCounts, CommClass, CostModel, FaultStats, RunStats, StepStats};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::time::Instant;

/// A message as it sits in a target rank's memory window: in its
/// `(origin, target)` window slot, or in the target's held `Vec` when the
/// close materialised it (see the module doc).
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

/// A rank's view of the envelopes visible in its phase, in origin order
/// (each origin's in put order): the held envelopes the close
/// materialised, then the target's in-edge window slots read in place.
/// The executor fills at most one of the two for a target; a composition
/// layer builds a view from a plain slice with `Inbox::from`.
pub struct Inbox<'a, M> {
    held: &'a [Envelope<M>],
    /// The in-edge slot ids, origin-ascending.
    slots: &'a [u32],
    /// The generation those slots are read in; unchanged while `'a` lives.
    window: WindowPtr<M>,
    _window: PhantomData<&'a Envelope<M>>,
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The envelopes in origin order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            cur: self.held.iter(),
            slots: self.slots.iter(),
            window: self.window,
            _window: PhantomData,
        }
    }

    /// Number of envelopes.
    pub fn len(&self) -> usize {
        // SAFETY: the view's slots are readable while it lives.
        let in_place = self.slots.iter().map(|&s| unsafe { self.window.count(s) });
        self.held.len() + in_place.map(|c| c as usize).sum::<usize>()
    }

    /// Whether no envelope is visible.
    pub fn is_empty(&self) -> bool {
        // SAFETY: as in `len`.
        self.held.is_empty()
            && self
                .slots
                .iter()
                .all(|&s| unsafe { self.window.count(s) } == 0)
    }
}

impl<'a, M> From<&'a [Envelope<M>]> for Inbox<'a, M> {
    fn from(held: &'a [Envelope<M>]) -> Self {
        Inbox {
            held,
            slots: &[],
            window: WindowPtr::dangling(),
            _window: PhantomData,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a Envelope<M>;
    type IntoIter = InboxIter<'a, M>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]'s envelopes, in origin order.
pub struct InboxIter<'a, M> {
    /// The held slice, or the spill of the slot whose first envelope was
    /// yielded last.
    cur: std::slice::Iter<'a, Envelope<M>>,
    /// The in-edge slots not yet visited.
    slots: std::slice::Iter<'a, u32>,
    window: WindowPtr<M>,
    _window: PhantomData<&'a Envelope<M>>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a Envelope<M>;

    #[inline]
    fn next(&mut self) -> Option<&'a Envelope<M>> {
        if let Some(env) = self.cur.next() {
            return Some(env);
        }
        for &s in self.slots.by_ref() {
            // SAFETY: the view's slots are readable while it lives, and a
            // slot's first envelope is initialised when its count is
            // non-zero (see `Window`).
            unsafe {
                match self.window.count(s) {
                    0 => continue,
                    1 => {}
                    _ => self.cur = (*self.window.spill.add(s as usize)).iter(),
                }
                return Some((*self.window.first.add(s as usize)).assume_init_ref());
            }
        }
        None
    }
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
    /// An executor context: this origin's declared targets, ascending, and
    /// the window generation the epoch puts into, offset to this origin's
    /// first slot (its slots follow in target order). Each put lands
    /// directly in its `(origin, target)` slot. `next` is the index past
    /// the last put's target: ranks put in ascending target order, so the
    /// next put's target is found by walking forward from there.
    Windowed {
        targets: *const u32,
        ntargets: usize,
        window: WindowPtr<M>,
        next: usize,
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
    /// Constructor for the executor's windowed path.
    ///
    /// # Safety contract (upheld by the executor)
    /// `targets` must outlive the context, `window` must point at this
    /// origin's first slot with `targets.len()` zero-count slots from
    /// there, and no other thread may touch those slots while the context
    /// lives (each `(origin, target)` slot belongs to exactly one origin,
    /// one origin runs on exactly one worker, and the phases read only the
    /// other generation).
    fn windowed(rank: usize, targets: &[u32], window: WindowPtr<M>) -> Self {
        PhaseCtx {
            rank,
            sink: Sink::Windowed {
                targets: targets.as_ptr(),
                ntargets: targets.len(),
                window,
                next: 0,
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
            Sink::Windowed { .. } => unreachable!("windowed contexts have no outbox"),
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
    #[inline]
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
            Sink::Windowed {
                targets,
                ntargets,
                window,
                next,
            } => {
                // SAFETY: see `PhaseCtx::windowed`.
                let targets = unsafe { std::slice::from_raw_parts(*targets, *ntargets) };
                let e = target_index(targets, *next, target, self.rank);
                *next = e + 1;
                // SAFETY: this origin's slots are exclusively owned (see
                // `PhaseCtx::windowed`), and `e < ntargets`.
                unsafe { window.put(e as u32, env) };
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
    /// panel adapter in [`crate::panel`], the redundancy wrapper) hands to
    /// an inner rank's phase. Pair with [`PhaseCtx::into_captured`].
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
    /// If called on an executor-internal windowed context (never the case
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

/// The index of `target` in an origin's ascending declared `targets`,
/// walking forward from `from`, where the next put's target usually is;
/// a target behind `from` (puts out of target order) is binary-searched.
///
/// # Panics
/// If `target` is not declared.
#[inline]
fn target_index(targets: &[u32], from: usize, target: usize, rank: usize) -> usize {
    let mut e = from;
    while e < targets.len() && (targets[e] as usize) < target {
        e += 1;
    }
    if targets.get(e).is_some_and(|&t| t as usize == target) {
        return e;
    }
    let found = u32::try_from(target)
        .ok()
        .and_then(|t| targets.binary_search(&t).ok());
    found.unwrap_or_else(|| {
        panic!("rank {rank} put to rank {target}, which is not in its declared put_targets")
    })
}

/// A per-rank program, written as phases of a parallel step.
///
/// Phase semantics: in phase `k` the rank sees exactly the messages that
/// were put during phase `k − 1` (for `k = 0`: during the *last* phase of
/// the previous parallel step). This is the one-sided epoch visibility rule:
/// the executor's two window generations keep a phase's puts out of every
/// inbox read in the same epoch.
pub trait RankAlgorithm: Send {
    /// Payload type of the messages this algorithm puts.
    type Msg: Send + Sync + Clone;

    /// Number of communication phases (epochs) per parallel step.
    fn phases(&self) -> usize;

    /// Executes one phase. `inbox` views the envelopes visible since the
    /// close of the previous epoch, ordered by origin rank (each origin's
    /// in put order): read in place from this rank's in-edge window
    /// slots, or from the content the close held for it after a skipped
    /// epoch or a fault (see the [module doc](self)). The executor drops
    /// them once the phase returns; a stalled or unscheduled rank keeps
    /// them.
    fn phase(&mut self, phase: usize, inbox: Inbox<'_, Self::Msg>, ctx: &mut PhaseCtx<Self::Msg>);

    /// The static set of ranks this rank may ever `put` to (for the
    /// solvers: the subdomain neighbor set) — the neighbour group an MPI-3
    /// process names before its access epochs.
    ///
    /// The executor builds its window slots and each target's in-edge
    /// index from these sets at construction. It panics
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

/// How the executor closes epochs (folds the phase's counters and
/// materialises the inboxes that need it; see the module doc).
///
/// Every mode produces bit-identical results; this knob only chooses
/// *where* the close work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CloseMode {
    /// Close on the worker pool when it pays: the executor has a pool with
    /// ≥ 2 workers and the phase moved at least 256 messages. Serial
    /// otherwise.
    #[default]
    Auto,
    /// Always close on the calling thread.
    Serial,
    /// Close on the worker pool whenever one is present, regardless of
    /// volume.
    Parallel,
}

/// Minimum phase message volume before [`CloseMode::Auto`] closes on the
/// pool: below it the pool's wake/quiesce latency outweighs the routing
/// work.
const PARALLEL_CLOSE_MIN_MSGS: u64 = 256;

/// A put whose delivery was deferred by fault injection, parked in its
/// target's delayed queue.
struct DelayedEnv<M> {
    /// Global epoch index at whose close the put becomes visible.
    due_epoch: u64,
    env: Envelope<M>,
}

/// The static routing index: one window slot per directed `(origin,
/// target)` edge, numbered origin-major.
struct Topology {
    /// Origin `o`'s slots are `out_start[o]..out_start[o + 1]` (`n + 1`
    /// entries), one per declared target, target-ascending.
    out_start: Vec<usize>,
    /// Slot id → target rank.
    target_of: Vec<u32>,
    /// Slot id → origin rank.
    origin_of: Vec<u32>,
    /// Target `t`'s in-edges are the slot ids `in_slots[in_start[t]..
    /// in_start[t + 1]]`, origin-ascending (`n + 1` entries).
    in_start: Vec<usize>,
    in_slots: Vec<u32>,
}

impl Topology {
    /// Origin `o`'s slot ids.
    #[inline]
    fn out_range(&self, o: usize) -> std::ops::Range<usize> {
        self.out_start[o]..self.out_start[o + 1]
    }

    /// Target `t`'s in-edge slot ids, origin-ascending.
    #[inline]
    fn in_slots(&self, t: usize) -> &[u32] {
        &self.in_slots[self.in_start[t]..self.in_start[t + 1]]
    }
}

/// Builds the routing index from every rank's declared put targets.
fn build_topology<A: RankAlgorithm>(ranks: &[A]) -> Topology {
    let n = ranks.len();
    assert!(n < u32::MAX as usize, "rank count must fit in u32");
    let mut out_start = vec![0usize; n + 1];
    let mut target_of = Vec::new();
    let mut origin_of = Vec::new();
    for (i, r) in ranks.iter().enumerate() {
        let mut ts = r.put_targets();
        ts.sort_unstable();
        ts.dedup();
        assert!(
            ts.iter().all(|&t| t < n && t != i),
            "rank {i} declared an out-of-range or self put target"
        );
        target_of.extend(ts.iter().map(|&t| t as u32));
        origin_of.resize(target_of.len(), i as u32);
        out_start[i + 1] = target_of.len();
    }
    assert!(
        target_of.len() < u32::MAX as usize,
        "edge count must fit in u32"
    );
    let mut in_start = vec![0usize; n + 1];
    for &t in &target_of {
        in_start[t as usize + 1] += 1;
    }
    for t in 0..n {
        in_start[t + 1] += in_start[t];
    }
    // Slots are numbered origin-major, so visiting them in order fills
    // each target's in-edge list origin-ascending.
    let mut fill = in_start.clone();
    let mut in_slots = vec![0u32; target_of.len()];
    for (slot, &t) in target_of.iter().enumerate() {
        in_slots[fill[t as usize]] = slot as u32;
        fill[t as usize] += 1;
    }
    Topology {
        out_start,
        target_of,
        origin_of,
        in_start,
        in_slots,
    }
}

/// One generation of the exposed windows: per directed edge (slot id,
/// origin-major), the number of envelopes put on it, the first of them
/// inline, and any later ones in a spill `Vec` (an edge usually carries
/// one put per phase). During the phases only the origin writes a slot
/// and only the target reads it; the close may move a slot's content into
/// the target's held `Vec`.
///
/// A slot's count is *live* from the put until the target reads the slot
/// or the close holds its content; `first` is initialised and `spill`
/// holds `count − 1` envelopes while it is. A target reads a slot in
/// place and drops its envelopes there, leaving a *stale* count that the
/// origin zeroes before it next puts into this generation; that keeps the
/// target's read free of writes to the origin's slots (but for emptying a
/// spill). Which generation's counts are live is the executor's to know
/// ([`Windows`]).
struct Window<M> {
    count: Vec<u32>,
    first: Box<[MaybeUninit<Envelope<M>>]>,
    spill: Vec<Vec<Envelope<M>>>,
}

impl<M> Window<M> {
    fn new(nslots: usize) -> Self {
        Window {
            count: vec![0; nslots],
            first: Box::new_uninit_slice(nslots),
            spill: (0..nslots).map(|_| Vec::new()).collect(),
        }
    }

    fn as_ptr(&mut self) -> WindowPtr<M> {
        WindowPtr {
            count: self.count.as_mut_ptr(),
            first: self.first.as_mut_ptr(),
            spill: self.spill.as_mut_ptr(),
        }
    }
}

/// The two window generations: epoch `e` puts into `gens[e % 2]`, and
/// reads `gens[(e + 1) % 2]`, which the epoch before put into.
struct Windows<M> {
    gens: [Window<M>; 2],
    /// The generation whose counts are live: the last epoch's puts, not
    /// yet read. Every count of the other generation is stale or zero.
    /// [`POISONED`] while an epoch runs.
    live: usize,
}

/// [`Windows::live`] from the start of an epoch's phases to the end of its
/// close. A rank phase that panics leaves it so: which counts are stale is
/// then unknown, so the windows leak their envelopes rather than drop one
/// twice, and the executor refuses to run another epoch.
const POISONED: usize = usize::MAX;

impl<M> Windows<M> {
    fn new(nslots: usize) -> Self {
        Windows {
            gens: [Window::new(nslots), Window::new(nslots)],
            live: 0,
        }
    }

    /// The generations epoch `epoch` puts into and reads.
    fn ptrs(&mut self, epoch: u64) -> (WindowPtr<M>, WindowPtr<M>) {
        let [w0, w1] = &mut self.gens;
        let (write, read) = if epoch.is_multiple_of(2) {
            (w0, w1)
        } else {
            (w1, w0)
        };
        (write.as_ptr(), read.as_ptr())
    }

    /// Unread envelopes in the windows.
    fn len(&self) -> usize {
        let Some(live) = self.gens.get(self.live) else {
            return 0;
        };
        live.count.iter().map(|&c| c as usize).sum()
    }

    /// Drops every unread envelope.
    fn clear(&mut self) {
        let Some(live) = self.gens.get_mut(self.live) else {
            return;
        };
        let ptr = live.as_ptr();
        for s in 0..live.count.len() {
            // SAFETY: `&mut self` is exclusive, and the live generation's
            // counts are live.
            unsafe { ptr.take(s as u32, |_, env| drop(env)) };
        }
    }
}

impl<M> Drop for Windows<M> {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A [`Window`] shared with the workers that put into, read, or hold
/// disjoint sets of its slots. The pointers may be offset to one origin's
/// first slot ([`WindowPtr::offset`]).
struct WindowPtr<M> {
    count: *mut u32,
    first: *mut MaybeUninit<Envelope<M>>,
    spill: *mut Vec<Envelope<M>>,
}

impl<M> Clone for WindowPtr<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for WindowPtr<M> {}

// SAFETY: the pointers reach `Envelope<M>`s that workers move or drop
// through disjoint slot sets (see each method), so `M: Send` suffices.
unsafe impl<M: Send> Send for WindowPtr<M> {}
unsafe impl<M: Send> Sync for WindowPtr<M> {}

impl<M> WindowPtr<M> {
    /// A pointer to no slot, for views that read none.
    fn dangling() -> Self {
        WindowPtr {
            count: std::ptr::NonNull::dangling().as_ptr(),
            first: std::ptr::NonNull::dangling().as_ptr(),
            spill: std::ptr::NonNull::dangling().as_ptr(),
        }
    }

    /// The same window, from slot `s` on.
    fn offset(self, s: usize) -> Self {
        WindowPtr {
            count: self.count.wrapping_add(s),
            first: self.first.wrapping_add(s),
            spill: self.spill.wrapping_add(s),
        }
    }

    /// Slot `s`'s count.
    ///
    /// # Safety
    /// No one writes slot `s`'s count meanwhile.
    #[inline]
    unsafe fn count(self, s: u32) -> u32 {
        *self.count.add(s as usize)
    }

    /// The in-place inbox of `slots` (`held` before them).
    ///
    /// # Safety
    /// No one writes those slots while the view lives, and their counts
    /// are live.
    unsafe fn inbox<'a>(self, held: &'a [Envelope<M>], slots: &'a [u32]) -> Inbox<'a, M> {
        Inbox {
            held,
            slots,
            window: self,
            _window: PhantomData,
        }
    }

    /// Zeroes the (stale or zero) counts of `range` before its origin
    /// puts into them.
    ///
    /// # Safety
    /// Exclusive access to those slots, none of them live.
    #[inline]
    unsafe fn reset(self, range: std::ops::Range<usize>) {
        std::slice::from_raw_parts_mut(self.count.add(range.start), range.len()).fill(0);
    }

    /// Appends an envelope to slot `s`: into `first` when it is the slot's
    /// first this phase, to the spill otherwise.
    ///
    /// # Safety
    /// Exclusive access to slot `s`, whose count is zero or live.
    #[inline]
    unsafe fn put(self, s: u32, env: Envelope<M>) {
        let s = s as usize;
        let count = &mut *self.count.add(s);
        *count += 1;
        if *count == 1 {
            (*self.first.add(s)).write(env);
        } else {
            (*self.spill.add(s)).push(env);
        }
    }

    /// Drops slot `s`'s envelopes where they lie, leaving its count stale;
    /// the spill keeps its capacity.
    ///
    /// # Safety
    /// Exclusive access to slot `s`, whose count is live.
    #[inline]
    unsafe fn drop_read(self, s: u32) {
        let s = s as usize;
        let count = *self.count.add(s);
        if count > 0 {
            (*self.first.add(s)).assume_init_drop();
            if count > 1 {
                (*self.spill.add(s)).clear();
            }
        }
    }

    /// Moves slot `s`'s envelopes out in put order, numbering them from 0,
    /// and zeroes its count.
    ///
    /// # Safety
    /// Exclusive access to slot `s`, whose count is live.
    #[inline]
    unsafe fn take(self, s: u32, mut f: impl FnMut(u32, Envelope<M>)) {
        let s = s as usize;
        let count = std::mem::replace(&mut *self.count.add(s), 0);
        if count == 0 {
            return;
        }
        f(0, (*self.first.add(s)).assume_init_read());
        if count > 1 {
            for (idx, env) in (*self.spill.add(s)).drain(..).enumerate() {
                f(idx as u32 + 1, env);
            }
        }
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
    /// Per-target held envelopes: content the materialising close moved
    /// out of the window slots (see the module doc), read by the target's
    /// next phase instead of its slots.
    held: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-rank counters of the current phase, refilled every phase.
    phase_totals: Vec<PhaseTotals>,
    /// The static routing index.
    topo: Topology,
    /// The two generations of the exposed windows, one slot per directed
    /// `(origin, target)` edge each. Slot ids are origin-major, so one
    /// origin's puts land together in memory, and a put writes its
    /// envelope straight into its slot without a per-edge allocation.
    windows: Windows<A::Msg>,
    /// Per-target queues of delay-injected puts, in deferral order.
    delayed_q: Vec<Vec<DelayedEnv<A::Msg>>>,
    /// Per-chunk partials of the close fold.
    partials: Vec<ClosePartial>,
    /// Per-rank compute-ns scratch for the current step (reset each step).
    step_rank_ns: Vec<u64>,
    /// Persistent worker pool ([`ExecMode::Threaded`], owned exclusively).
    pool: Option<WorkerPool>,
    /// Last observed cumulative per-worker busy ns (for per-step deltas).
    worker_busy_seen: Vec<u64>,
    model: CostModel,
    mode: ExecMode,
    close_mode: CloseMode,
    /// Fault decisions (drops / duplicates / delays / stalls).
    injector: FaultInjector,
    /// Global epoch (phase) counter, for delay due-dates and fate keys.
    epochs_executed: u64,
    /// Per-rank phase clocks: phases each rank has executed.
    clock: Vec<usize>,
    /// Stall draws, redrawn every `phases()` epochs.
    stalled: Vec<bool>,
    /// The asynchronous schedule, if any.
    pub(crate) schedule: Option<Schedule>,
    /// Statistics accumulated over all executed steps.
    pub stats: RunStats,
}

/// Everything the close touches, shared across close workers. Raw
/// pointers cover the per-target state (held `Vec`s, delayed queues, chunk
/// partials) and the per-origin state (`msgs_per_rank`, `step_rank_ns`);
/// a worker only dereferences indices inside its chunk, and chunks are
/// disjoint. A slot belongs to one target, so to exactly one target
/// chunk; slots of one origin may sit in several chunks, and their counts
/// share cache lines, but no two workers touch the same count.
struct CloseShared<'a, M> {
    held: *mut Vec<Envelope<M>>,
    /// The generation this epoch's phases read.
    read: WindowPtr<M>,
    /// The generation this epoch's phases put into.
    write: WindowPtr<M>,
    delayed: *mut Vec<DelayedEnv<M>>,
    partials: *mut ClosePartial,
    msgs_per_rank: *mut u64,
    step_rank_ns: *mut u64,
    topo: &'a Topology,
    totals: &'a [PhaseTotals],
    /// Ranks that did not run this epoch (stalled or unscheduled).
    skip: &'a [bool],
    injector: &'a FaultInjector,
    /// Whether any message fault (drop, duplicate, delay) can fire.
    message_faults: bool,
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
                (Some(WorkerPool::new(t.min(n))), t.min(n))
            }
        };
        let mut stats = RunStats::new(n);
        stats.worker_busy_ns = vec![0; nworkers];
        let topo = build_topology(&ranks);
        Executor {
            injector: FaultInjector::new(chaos, n),
            ranks,
            held: (0..n).map(|_| Vec::new()).collect(),
            phase_totals: vec![PhaseTotals::default(); n],
            windows: Windows::new(topo.target_of.len()),
            topo,
            delayed_q: (0..n).map(|_| Vec::new()).collect(),
            partials: Vec::new(),
            step_rank_ns: vec![0; n],
            pool,
            worker_busy_seen: vec![0; nworkers],
            model,
            mode,
            close_mode: CloseMode::Auto,
            epochs_executed: 0,
            clock: vec![0; n],
            stalled: vec![false; n],
            schedule: None,
            stats,
        }
    }

    /// As [`with_chaos`](Self::with_chaos), scheduled by `opts`: each
    /// [`step`](Self::step) is one tick, an epoch of the ranks the schedule
    /// picks. A bad `opts` or `chaos` is an `Err`, not a panic.
    pub fn scheduled(
        ranks: Vec<A>,
        model: CostModel,
        mode: ExecMode,
        chaos: ChaosConfig,
        opts: AsyncOptions,
    ) -> Result<Self, String> {
        chaos.validate()?;
        opts.validate()?;
        let mut ex = Self::with_chaos(ranks, model, mode, chaos);
        ex.schedule = Some(Schedule::new(&opts, ex.nranks()));
        Ok(ex)
    }

    /// Declares logical lag groups, e.g. the replica sets of a coded
    /// placement: a group progresses at its fastest member, so the
    /// schedule's `max_lag` bound gates on the slowest group, not the
    /// slowest rank. Groups may overlap; every rank must be in one.
    ///
    /// # Panics
    /// On an unscheduled executor, or if the groups miss a rank.
    pub fn set_lag_groups(&mut self, groups: Vec<Vec<u32>>) {
        let schedule = self.schedule.as_mut().expect("lag groups gate a schedule");
        schedule.set_lag_groups(groups);
    }

    /// The per-rank phase clocks.
    pub fn clocks(&self) -> &[usize] {
        &self.clock
    }

    /// Per-lag-group best clocks (the per-rank clocks without groups).
    pub fn logical_clocks(&self) -> Vec<usize> {
        let schedule = self.schedule.as_ref();
        schedule.map_or_else(|| self.clock.clone(), |s| s.logical_clocks(&self.clock))
    }

    /// The advance probability of the slowest lag group's fastest member
    /// (1 unscheduled): what a tick budget divides by.
    pub fn pacing_probability(&self) -> f64 {
        let schedule = self.schedule.as_ref();
        schedule.map_or(1.0, Schedule::pacing_probability)
    }

    /// Messages delivered to an inbox its rank has not yet read (in either
    /// window generation or a held `Vec`), or parked by a delay fault: zero
    /// means no undelivered put can wake an idle run.
    pub fn in_flight(&self) -> usize {
        self.windows.len()
            + self.held.iter().map(Vec::len).sum::<usize>()
            + self.delayed_q.iter().map(Vec::len).sum::<usize>()
    }

    /// Chooses where epoch closes run (see [`CloseMode`]). Results are
    /// bit-identical in every mode.
    pub fn set_close_mode(&mut self, mode: CloseMode) {
        self.close_mode = mode;
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

    /// Drops every undelivered envelope: both window generations, the held
    /// `Vec`s and the chaos-delayed queues. The warm-start reseed of the serving layer uses this as an
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
        self.windows.clear();
        for held in &mut self.held {
            held.clear();
        }
        for q in &mut self.delayed_q {
            q.clear();
        }
    }

    /// Executes one parallel step (all phases) — one tick on a
    /// [scheduled](Self::scheduled) executor — and returns its stats.
    ///
    /// With fault injection active, the epoch close additionally: drops,
    /// duplicates, or defers puts per [`FaultInjector::fate_at`]; surfaces
    /// deferred puts whose delay expired; and skips the compute phases of
    /// stalled ranks, redrawn every `phases()` epochs (their inboxes keep
    /// accumulating until they resume). Fates are pure functions of
    /// per-message keys, so the fault pattern is identical under every
    /// [`ExecMode`] and [`CloseMode`].
    pub fn step(&mut self) -> StepStats {
        let nphases = self.ranks[0].phases();
        debug_assert!(
            self.ranks.iter().all(|r| r.phases() == nphases),
            "all ranks must agree on the phase count"
        );
        let mut step = StepStats::default();
        if self.epochs_executed.is_multiple_of(nphases as u64) {
            self.stalled = self.injector.step_stalls();
            step.faults.stalled_ranks += self.stalled.iter().filter(|&&s| s).count() as u64;
        }
        let stalled = std::mem::take(&mut self.stalled);
        let schedule = self.schedule.as_mut();
        let picked = schedule.map(|s| s.pick(&self.clock, &stalled));
        match picked {
            Some(skip) => self.epoch(&skip, &mut step),
            None => (0..nphases).for_each(|_| self.epoch(&stalled, &mut step)),
        }
        self.stalled = stalled;
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

    /// One epoch: every rank not in `skip` runs its next phase, then the
    /// epoch closes.
    fn epoch(&mut self, skip: &[bool], step: &mut StepStats) {
        assert_ne!(
            self.windows.live, POISONED,
            "a rank phase panicked in an earlier epoch"
        );
        self.windows.live = POISONED;
        let t_dispatch = Instant::now();
        self.run_phase(skip);
        step.span_ns += t_dispatch.elapsed().as_nanos() as u64;
        let t_close = Instant::now();
        self.close(skip, step);
        step.route_ns += t_close.elapsed().as_nanos() as u64;
        self.epochs_executed += 1;
    }

    /// Closes one epoch: folds the per-rank counters and, for the targets
    /// that need it (skipped this epoch, message faults active, or delayed
    /// puts parked), materialises their content into held `Vec`s. Runs on
    /// the calling thread or chunked across the worker pool
    /// ([`CloseMode`]); both produce bit-identical results because distinct
    /// targets touch disjoint state and chunk partials combine exactly.
    fn close(&mut self, skip: &[bool], step: &mut StepStats) {
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
                        >= PARALLEL_CLOSE_MIN_MSGS
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
        let (write, read) = self.windows.ptrs(self.epochs_executed);
        let sh = CloseShared {
            held: self.held.as_mut_ptr(),
            read,
            write,
            delayed: self.delayed_q.as_mut_ptr(),
            partials: self.partials.as_mut_ptr(),
            msgs_per_rank: self.stats.msgs_per_rank.as_mut_ptr(),
            step_rank_ns: self.step_rank_ns.as_mut_ptr(),
            topo: &self.topo,
            totals: &self.phase_totals,
            skip,
            injector: &self.injector,
            message_faults: self.injector.config().message_faults_active(),
            epoch: self.epochs_executed,
            chunk,
            n,
        };
        if use_pool {
            let pool = self.pool.as_ref().expect("pool exists");
            // SAFETY: chunk `c` touches only targets/origins in
            // `[c*chunk, (c+1)*chunk)`, ranges are disjoint across chunks,
            // and `pool.run` blocks until every chunk is done.
            pool.run(nchunks, 1, &|cs| {
                for c in cs {
                    unsafe { close_chunk(&sh, c) };
                }
            });
        } else {
            for c in 0..nchunks {
                // SAFETY: serial execution — no aliasing at all.
                unsafe { close_chunk(&sh, c) };
            }
        }
        self.windows.live = (self.epochs_executed % 2) as usize;
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

    /// Runs every rank not in `skip` at its next phase, advancing its
    /// clock, and fills the preallocated `self.phase_totals` slots and the
    /// write generation's window slots (each origin first zeroes the stale
    /// counts its slots kept from the epoch before last). Each rank that
    /// ran drops its own inbox (its held `Vec` and its in-edge slots of the
    /// read generation) right after its phase. Skipped ranks contribute no
    /// puts and zero counters (they perform no work at all this epoch) and
    /// keep their inboxes.
    fn run_phase(&mut self, skip: &[bool]) {
        let n = self.ranks.len();
        let nphases = self.ranks[0].phases();
        let (write, read) = self.windows.ptrs(self.epochs_executed);
        let topo = &self.topo;
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
                for (i, &skipped) in skip.iter().enumerate().take(n) {
                    let out = topo.out_range(i);
                    // SAFETY: one rank runs at a time; rank `i` reads only
                    // its own in-edge slots of the read generation and puts
                    // only into its own slots of the other one.
                    unsafe { write.reset(out.clone()) };
                    if skipped {
                        self.phase_totals[i] = PhaseTotals::default();
                        continue;
                    }
                    let phase = self.clock[i] % nphases;
                    self.clock[i] += 1;
                    let targets = &topo.target_of[out.clone()];
                    let mut ctx = PhaseCtx::windowed(i, targets, write.offset(out.start));
                    // SAFETY: as above.
                    unsafe {
                        let inbox = read.inbox(&self.held[i], topo.in_slots(i));
                        self.ranks[i].phase(phase, inbox, &mut ctx);
                        consume(&mut self.held[i], read, topo.in_slots(i));
                    }
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
                // Grain: ~8 batches per worker balances steal
                // granularity (hot ranks spread) against cursor traffic
                // (tiny subdomains amortize).
                let grain = (n / (8 * pool.nworkers())).max(1);
                let ranks = SyncPtr(self.ranks.as_mut_ptr());
                let slots = SyncPtr(self.phase_totals.as_mut_ptr());
                let clocks = SyncPtr(self.clock.as_mut_ptr());
                let held = SyncPtr(self.held.as_mut_ptr());
                pool.run(n, grain, &|batch| {
                    // Capture the `SyncPtr` wrappers whole (precise capture
                    // would otherwise grab the raw-pointer fields, which are
                    // not `Sync`).
                    let (ranks, slots, clocks, held) = (&ranks, &slots, &clocks, &held);
                    // Chained timing across the batch, as in the
                    // sequential branch: one clock read per rank.
                    let mut t_prev = Instant::now();
                    for i in batch {
                        let out = topo.out_range(i);
                        // SAFETY: the pool hands each index to exactly one
                        // worker, so `ranks[i]`, `slots[i]`, `clocks[i]`,
                        // `held[i]`, target `i`'s in-edge slots of the read
                        // generation and origin `i`'s slots of the write
                        // generation are accessed exclusively.
                        unsafe { write.reset(out.clone()) };
                        let slot = unsafe { &mut *slots.0.add(i) };
                        if skip[i] {
                            *slot = PhaseTotals::default();
                            continue;
                        }
                        // SAFETY: index `i` is this worker's alone (above).
                        let (rank, clock, held) = unsafe {
                            (
                                &mut *ranks.0.add(i),
                                &mut *clocks.0.add(i),
                                &mut *held.0.add(i),
                            )
                        };
                        let phase = *clock % nphases;
                        *clock += 1;
                        let targets = &topo.target_of[out.clone()];
                        let mut ctx = PhaseCtx::windowed(i, targets, write.offset(out.start));
                        // SAFETY: as above.
                        unsafe {
                            rank.phase(phase, read.inbox(held, topo.in_slots(i)), &mut ctx);
                            consume(held, read, topo.in_slots(i));
                        }
                        let now = Instant::now();
                        ctx.totals.wall_ns = now.duration_since(t_prev).as_nanos() as u64;
                        t_prev = now;
                        *slot = ctx.totals;
                    }
                });
            }
        }
    }
}

/// Drops an inbox its rank has read: the held `Vec`, and the in-edge
/// `slots` of the read generation, where they lie.
///
/// # Safety
/// Exclusive access to those slots, whose counts are live.
unsafe fn consume<M>(held: &mut Vec<Envelope<M>>, read: WindowPtr<M>, slots: &[u32]) {
    debug_assert!(held.is_empty() || slots.iter().all(|&s| read.count(s) == 0));
    held.clear();
    for &s in slots {
        read.drop_read(s);
    }
}

/// Closes one chunk of targets — materialises the ones that need it (see
/// [`hold_one_target`]) — and folds the chunk's origin counters into its
/// [`ClosePartial`].
///
/// # Safety
/// The caller must guarantee that no other thread touches any state of
/// targets/origins in chunk `c`'s range (see [`CloseShared`]).
unsafe fn close_chunk<M: Clone + Send>(sh: &CloseShared<'_, M>, c: usize) {
    let lo = c * sh.chunk;
    let hi = ((c + 1) * sh.chunk).min(sh.n);
    let mut part = ClosePartial::default();
    for t in lo..hi {
        if sh.skip[t] || sh.message_faults || !(*sh.delayed.add(t)).is_empty() {
            hold_one_target(sh, t, &mut part.faults);
        }
    }
    for i in lo..hi {
        let totals = &sh.totals[i];
        part.absorb_rank(totals);
        *sh.msgs_per_rank.add(i) += totals.msgs.total();
        *sh.step_rank_ns.add(i) += totals.wall_ns;
    }
    *sh.partials.add(c) = part;
}

/// The materialising close of target `t`. A skipped target's unread
/// read-generation slots join its held envelopes; then, unless nothing
/// is unread, no fault can fire and no delayed put is parked (the new
/// arrivals then stay in place for the next phase to read), its
/// write-generation slots drain into held in origin order, each envelope
/// taking its fault fate, and expired delayed puts follow in deferral
/// order (an order-preserving partition pass). Held content is
/// stable-sorted by origin only if a fate perturbed origin order.
///
/// # Safety
/// Exclusive access to target `t`'s held `Vec`, delayed queue, and its
/// in-edge slots of both generations.
unsafe fn hold_one_target<M: Clone>(sh: &CloseShared<'_, M>, t: usize, faults: &mut FaultStats) {
    let held = &mut *sh.held.add(t);
    let slots = sh.topo.in_slots(t);
    if sh.skip[t] {
        for &s in slots {
            sh.read.take(s, |_, env| held.push(env));
        }
    }
    // A target that ran emptied its held `Vec` after its phase, so only a
    // skipped target can have unread content here.
    let unread = !held.is_empty();
    let dq = &mut *sh.delayed.add(t);
    if !unread && !sh.message_faults && dq.is_empty() {
        return;
    }
    let mut appended = false;
    for &s in slots {
        if sh.write.count(s) == 0 {
            continue;
        }
        appended = true;
        if !sh.message_faults {
            sh.write.take(s, |_, env| held.push(env));
            continue;
        }
        let origin = sh.topo.origin_of[s as usize];
        sh.write.take(s, |idx, env| {
            let fate = sh
                .injector
                .fate_at(sh.epoch, origin, t as u32, idx, env.class);
            if fate.dropped {
                faults.dropped.add(env.class, 1);
                return;
            }
            if fate.duplicated {
                faults.duplicated.add(env.class, 1);
                held.push(env.clone());
            }
            if fate.delay > 0 {
                faults.delayed.add(env.class, 1);
                dq.push(DelayedEnv {
                    due_epoch: sh.epoch + fate.delay as u64,
                    env,
                });
            } else {
                held.push(env);
            }
        });
    }
    // Deliver expired delayed puts in deferral order.
    let mut late = false;
    if !dq.is_empty() {
        let due = sh.epoch;
        for d in dq.extract_if(.., |d| d.due_epoch <= due) {
            held.push(d.env);
            late = true;
        }
    }
    // Re-sort only when a fate perturbed origin order: a late arrival, or
    // arrivals behind unread content. Fresh arrivals alone are
    // origin-major by construction (the range is origin-ascending).
    if late || (unread && appended) {
        held.sort_by_key(|env| env.src);
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
        fn phase(&mut self, _phase: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
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
    fn all_modes_agree() {
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for mode in [
            ExecMode::Sequential,
            ExecMode::Threaded(2),
            ExecMode::Threaded(4),
            ExecMode::Threaded(7),
            ExecMode::Threaded(32),
        ] {
            let mut ex = Executor::new(ring(13), CostModel::default(), mode);
            for _ in 0..6 {
                ex.step();
            }
            let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
            assert_eq!(v, vref, "{mode:?}");
            assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
            for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                assert_eq!(sa, sb, "{mode:?}");
            }
        }
    }

    #[test]
    fn close_modes_agree_bit_for_bit() {
        // The close strategy is a pure scheduling knob: Serial, Parallel,
        // and Auto must all match the sequential reference. A 256-rank
        // ring puts 256 messages per phase, exactly
        // `PARALLEL_CLOSE_MIN_MSGS`, so Auto closes on the pool here.
        let n = PARALLEL_CLOSE_MIN_MSGS as usize;
        let mut reference = Executor::new(ring(n), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for close in [CloseMode::Serial, CloseMode::Parallel, CloseMode::Auto] {
            let mut ex = Executor::new(ring(n), CostModel::default(), ExecMode::Threaded(2));
            ex.set_close_mode(close);
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

        // On the pool, per-rank times are chained across each claimed
        // batch. 64 ranks on 2 workers run in batches of 4, 16 batches in
        // all: chained reads must neither count a rank's time twice (the
        // per-rank sum stays within the workers' busy time) nor leak into
        // a skipped rank (the stalled rank reads 0).
        let (n, stalled) = (64, 21);
        let mut ex = Executor::new(ring(n), CostModel::default(), ExecMode::Threaded(2));
        ex.injector_mut().inject_stall(stalled, 3);
        for step in 0..4 {
            let ranks_before = ex.stats.rank_time_ns.clone();
            let busy_before: u64 = ex.stats.worker_busy_ns.iter().sum();
            ex.step();
            let rank_ns: Vec<u64> = ex
                .stats
                .rank_time_ns
                .iter()
                .zip(&ranks_before)
                .map(|(a, b)| a - b)
                .collect();
            let busy = ex.stats.worker_busy_ns.iter().sum::<u64>() - busy_before;
            assert!(
                rank_ns.iter().sum::<u64>() <= busy,
                "step {step}: ranks {} ns > workers busy {busy} ns",
                rank_ns.iter().sum::<u64>()
            );
            for (i, &ns) in rank_ns.iter().enumerate() {
                if i == stalled && step < 3 {
                    assert_eq!(ns, 0, "step {step}: the stalled rank reads 0");
                } else {
                    assert!(ns > 0, "step {step}: rank {i} ran and reads 0");
                }
            }
        }
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
        fn phase(&mut self, phase: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
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
            fn phase(&mut self, _p: usize, _i: Inbox<'_, ()>, ctx: &mut PhaseCtx<()>) {
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
            fn phase(&mut self, _p: usize, _i: Inbox<'_, ()>, ctx: &mut PhaseCtx<()>) {
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
        fn phase(&mut self, _p: usize, _i: Inbox<'_, ()>, _ctx: &mut PhaseCtx<()>) {}
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
            fn phase(&mut self, _p: usize, inbox: Inbox<'_, ()>, ctx: &mut PhaseCtx<()>) {
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
            fn phase(&mut self, _p: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
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
        // one phase, interleaving targets, so slots spill past their one
        // inline envelope, drain, and refill. Every
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
            fn phase(&mut self, _p: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
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

    /// Ring rank whose puts carry the step they were made in, so a
    /// receiver can tell which step's puts it saw.
    struct Stamped {
        id: usize,
        n: usize,
        step: u64,
        seen: Vec<(usize, u64)>,
    }

    impl RankAlgorithm for Stamped {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _p: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
            self.seen.extend(inbox.iter().map(|e| (e.src, e.payload)));
            // Two puts on one edge, so an edge also carries spilled
            // envelopes.
            for _ in 0..2 {
                ctx.put((self.id + 1) % self.n, CommClass::Solve, self.step, 8);
            }
            ctx.put(
                (self.id + self.n - 1) % self.n,
                CommClass::Solve,
                self.step,
                8,
            );
            self.step += 1;
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % self.n, (self.id + self.n - 1) % self.n]
        }
    }

    #[test]
    fn discard_in_flight_spans_held_and_in_place_content() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let ranks = (0..4)
                .map(|id| Stamped {
                    id,
                    n: 4,
                    step: 0,
                    seen: vec![],
                })
                .collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.set_close_mode(CloseMode::Parallel);
            // Puts in one epoch; then rank 1 sits out two more, so its
            // unread content is held across both window generations
            // while the other ranks' arrivals are read in place.
            ex.step();
            ex.injector_mut().inject_stall(1, 2);
            ex.step();
            ex.step();
            assert!(ex.ranks()[1].seen.is_empty(), "{mode:?}: rank 1 stalled");
            // Rank 1 holds steps 0–2's three puts each; ranks 0, 2 and 3
            // read step 2's puts in place: rank 1 put none of them.
            assert_eq!(ex.in_flight(), 3 * 3 + 2 + 1 + 3, "{mode:?}");
            ex.discard_in_flight();
            assert_eq!(ex.in_flight(), 0, "{mode:?}");
            for r in ex.ranks_mut() {
                r.seen.clear();
            }
            for _ in 0..3 {
                ex.step();
            }
            // Before the discard rank 1 put only in its own step 0 and the
            // others in steps 0–2: none of those puts may ever be
            // delivered.
            for (t, r) in ex.ranks().iter().enumerate() {
                assert!(!r.seen.is_empty(), "{mode:?}: rank {t} hears again");
                assert!(
                    r.seen
                        .iter()
                        .all(|&(src, step)| step >= if src == 1 { 1 } else { 3 }),
                    "{mode:?}: rank {t} saw a discarded put: {:?}",
                    r.seen
                );
            }
        }
    }

    #[test]
    fn inbox_views_iterate_in_origin_order_and_count_what_they_yield() {
        // Ranks 1–8 put to rank 0, the odd ones twice; rank 0 records
        // each inbox. A stall makes one of its inboxes held (unread
        // content plus new arrivals, materialised by the close); the
        // others are read in place.
        /// One inbox: `(len, is_empty, [(src, payload)])`.
        type Logged = (usize, bool, Vec<(usize, u64)>);
        struct Gather {
            id: usize,
            step: u64,
            log: Vec<Logged>,
        }
        impl RankAlgorithm for Gather {
            type Msg = u64;
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
                if self.id == 0 {
                    let items = inbox.into_iter().map(|e| (e.src, e.payload)).collect();
                    self.log.push((inbox.len(), inbox.is_empty(), items));
                } else {
                    for _ in 0..1 + self.id % 2 {
                        ctx.put(0, CommClass::Solve, self.step, 8);
                    }
                }
                self.step += 1;
            }
            fn put_targets(&self) -> Vec<usize> {
                if self.id == 0 {
                    vec![]
                } else {
                    vec![0]
                }
            }
        }
        for mode in [ExecMode::Sequential, ExecMode::Threaded(3)] {
            let ranks = (0..9)
                .map(|id| Gather {
                    id,
                    step: 0,
                    log: vec![],
                })
                .collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.step();
            ex.step();
            ex.injector_mut().inject_stall(0, 1);
            ex.step();
            ex.step();
            let log = &ex.ranks()[0].log;
            assert_eq!(log.len(), 3, "{mode:?}: rank 0 sat one step out");
            for (k, (len, empty, items)) in log.iter().enumerate() {
                assert_eq!(*len, items.len(), "{mode:?} inbox {k}");
                assert_eq!(*empty, items.is_empty(), "{mode:?} inbox {k}");
                assert!(
                    items.windows(2).all(|w| w[0] <= w[1]),
                    "{mode:?} inbox {k}: origin order, then put order: {items:?}"
                );
            }
            assert!(log[0].1, "{mode:?}: nothing was put before step 0");
            // In place: step 0's puts, 12 of them.
            assert_eq!(log[1].0, 12, "{mode:?}");
            assert!(log[1].2.iter().all(|&(_, step)| step == 0));
            // Held: steps 1 and 2, each origin's older puts first.
            assert_eq!(log[2].0, 24, "{mode:?}");
            let first = [(1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 2)];
            assert_eq!(log[2].2[..6], first, "{mode:?}");
        }
        // A view over a plain slice, as a composition layer builds one.
        let envs: Vec<Envelope<u64>> = [3, 5]
            .map(|src| Envelope {
                src,
                class: CommClass::Solve,
                bytes: 8,
                payload: src as u64,
            })
            .into();
        let view = Inbox::from(&envs[..]);
        assert_eq!((view.len(), view.is_empty()), (2, false));
        assert_eq!(view.iter().map(|e| e.src).collect::<Vec<_>>(), [3, 5]);
        let empty = Inbox::<u64>::from(&[][..]);
        assert_eq!(
            (empty.len(), empty.is_empty(), empty.iter().count()),
            (0, true, 0)
        );
    }

    #[test]
    fn a_panicking_phase_poisons_the_executor() {
        // Heap payloads, so dropping an envelope twice would free twice.
        struct Faulty {
            id: usize,
            step: u64,
        }
        impl RankAlgorithm for Faulty {
            type Msg = Vec<u64>;
            fn phases(&self) -> usize {
                1
            }
            fn phase(
                &mut self,
                _p: usize,
                inbox: Inbox<'_, Vec<u64>>,
                ctx: &mut PhaseCtx<Vec<u64>>,
            ) {
                assert!(self.step < 2 || self.id != 3, "rank 3 fails in step 2");
                let sum = inbox.iter().map(|e| e.payload.len() as u64).sum::<u64>();
                ctx.put((self.id + 1) % 4, CommClass::Solve, vec![sum; 3], 24);
                self.step += 1;
            }
            fn put_targets(&self) -> Vec<usize> {
                vec![(self.id + 1) % 4]
            }
        }
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let ranks = (0..4).map(|id| Faulty { id, step: 0 }).collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.step();
            ex.step();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.step()));
            assert!(caught.is_err(), "{mode:?}");
            // Which envelopes were read is unknown now: no further epoch
            // runs, and dropping the executor leaks them.
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.step()));
            let msg = again.expect_err("a poisoned executor refuses to step");
            let msg = msg.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("panicked in an earlier epoch"),
                "{mode:?}: {msg}"
            );
            assert_eq!(ex.in_flight(), 0, "{mode:?}");
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
