//! Multi-RHS panel fusion: one wire message per (edge, phase, class)
//! carrying every column's payload.
//!
//! The paper's cost argument is per-message: α dominates β for the small
//! boundary exchanges of Algorithms 1–3, so `k` independent solves over
//! the same partition pay the α term `k` times for bytes that travel the
//! same edges in the same phases. [`PanelRank`] fuses `k` clones of an
//! inner [`RankAlgorithm`] — one per right-hand-side column — and packs
//! their per-phase puts edge-by-edge into [`PanelMsg`] envelopes, so each
//! (target, class) pair costs one message per phase regardless of `k`.
//!
//! The wire accounting keeps header amortization honest instead of free:
//! a packed message charges [`PANEL_HEADER_BYTES`] once plus
//! [`PANEL_PART_TAG_BYTES`] per carried part on top of the parts' own
//! modelled bytes. A `k = 1` panel therefore reproduces the scalar
//! solver's message counts exactly and its byte counts up to exactly
//! `6` bytes per message — the visible price of the framing.
//!
//! Correctness leans on an ordering invariant of the fused solvers: under
//! the panel session preconditions (superstep executor, no chaos, no
//! redundancy, no solve-message thresholding, recovery audits off) each
//! column puts **at most one message per (target, class) per phase**, so
//! grouping parts by class preserves every column's per-origin delivery
//! order. Unpacking restores, per column, byte-for-byte the envelope
//! sequence the scalar executor would have delivered.

use crate::executor::{Envelope, PhaseCtx, RankAlgorithm};
use crate::stats::CommClass;

/// Bytes charged once per packed panel message (column count + framing).
pub const PANEL_HEADER_BYTES: u64 = 4;

/// Bytes charged per carried part (column id tag).
pub const PANEL_PART_TAG_BYTES: u64 = 2;

/// Most columns one panel carries: a shared part addresses its columns
/// through a `u64` bitmask ([`PanelPart::mask`]).
pub const PANEL_MAX_COLS: usize = 64;

/// One column's payload inside a packed panel message.
#[derive(Debug, Clone)]
pub struct PanelPart<M> {
    /// Panel column this part belongs to.
    pub col: u16,
    /// For a shared part ([`PanelPhaseCtx::stage_shared`]): the bitmask of
    /// panel columns whose payloads it carries (bit `c` = column `c`),
    /// set by the stager from the column list. `0` means a plain
    /// single-column part addressed by `col`. Self-describing addressing
    /// lets a receiver unpack a shared part even when a column dropped
    /// out while the message was in flight, instead of inferring the
    /// sender's column set from its own (possibly newer) active set.
    pub mask: u64,
    /// Class of the original (scalar) put, kept for per-column unpacking.
    pub class: CommClass,
    /// Modelled bytes of the original put (excluding panel framing).
    pub bytes: u64,
    /// The inner algorithm's message.
    pub msg: M,
}

/// A packed panel message: every column's payload for one (edge, class)
/// in one phase.
#[derive(Debug, Clone)]
pub struct PanelMsg<M> {
    /// Carried parts, grouped by the packer in column order.
    pub parts: Vec<PanelPart<M>>,
}

impl<M> PanelMsg<M> {
    /// Modelled wire size: one header plus per-part tag and payload bytes.
    pub fn wire_bytes(&self) -> u64 {
        PANEL_HEADER_BYTES
            + self
                .parts
                .iter()
                .map(|p| PANEL_PART_TAG_BYTES + p.bytes)
                .sum::<u64>()
    }
}

/// Staging surface handed to an algorithm-level fused phase
/// ([`FusedPhaseFn`]): the adapter's per-target part staging plus the
/// per-column counters, so a fused implementation reports exactly what
/// the per-column fallback loop would have reported.
///
/// Parts staged here are packed by the adapter after the fused phase
/// returns — one message per (target, class), targets ascending — with
/// the same framing and ordering as the fallback path.
pub struct PanelPhaseCtx<'a, M> {
    ctx: &'a mut PhaseCtx<PanelMsg<M>>,
    staging: &'a mut [Vec<PanelPart<M>>],
    touched: &'a mut Vec<usize>,
    col_msgs: &'a mut [u64],
    col_relax: &'a mut [u64],
    /// Persistent per-rank scratch for interleaved panel layouts; the
    /// adapter keeps it across phases so fused sweeps allocate nothing
    /// in steady state.
    pub scratch: &'a mut Vec<f64>,
    /// Columns whose solve vectors currently live interleaved in
    /// `scratch` instead of in their own rank state (the resident-lane
    /// optimization): a fused phase that keeps lanes resident across
    /// steps records the column list here and must register a
    /// [`FlushFn`] so the driver can scatter the lanes back before any
    /// out-of-band read of per-column state. Empty = nothing resident.
    pub resident: &'a mut Vec<usize>,
}

impl<M> PanelPhaseCtx<'_, M> {
    /// The executing rank id.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Stages one column's payload for `target`, counting it as one
    /// logical per-column message (what a scalar put would have been).
    pub fn stage(&mut self, target: usize, part: PanelPart<M>) {
        self.col_msgs[part.col as usize] += 1;
        let staged = &mut self.staging[target];
        if staged.is_empty() {
            self.touched.push(target);
            // The staged vector was moved into the previous phase's packed
            // message, so it starts at zero capacity: one up-front reserve
            // (≤ one part per column per class is the common case) beats a
            // doubling chain of reallocations per phase.
            staged.reserve(self.col_msgs.len());
        }
        staged.push(part);
    }

    /// Stages one part that carries *every* listed column's payload for
    /// `target` — the aggregated form for fused implementations whose
    /// peers understand the shared layout (all ranks run the same
    /// algorithm, so sender and receiver agree). Counts one logical
    /// message per carried column, exactly as if each had been staged
    /// alone; `part.bytes` must already account for all of them.
    pub fn stage_shared(&mut self, target: usize, cols: &[usize], mut part: PanelPart<M>) {
        part.mask = 0;
        for &c in cols {
            debug_assert!(
                c < PANEL_MAX_COLS,
                "shared parts address at most {PANEL_MAX_COLS} columns"
            );
            part.mask |= 1 << c;
            self.col_msgs[c] += 1;
        }
        let staged = &mut self.staging[target];
        if staged.is_empty() {
            self.touched.push(target);
            // One shared part per class is the practical maximum.
            staged.reserve(CommClass::ALL.len());
        }
        staged.push(part);
    }

    /// Forwards modelled flops to the real phase context.
    pub fn add_flops(&mut self, flops: u64) {
        self.ctx.add_flops(flops);
    }

    /// Records `rows` relaxations for column `col` (marks the rank
    /// active, exactly as the fallback loop does per column).
    pub fn record_relaxations(&mut self, col: usize, rows: u64) {
        self.col_relax[col] += rows;
        self.ctx.record_relaxations(rows);
    }
}

/// An algorithm-level fused panel phase: runs all active columns at once
/// against the packed inbox, staging puts through [`PanelPhaseCtx`].
///
/// Contract (checked by the `multirhs` proptests): per column, the
/// floating-point state after the phase, the staged parts (payloads,
/// classes, modelled bytes, per-target column order), and the reported
/// counters must be **bit-identical** to running the column alone
/// through the per-column fallback loop. Implementations may rely on
/// the panel preconditions: all columns are clones of one rank (same
/// matrix, topology, and solver), differing only in per-column vectors.
/// Parts addressed to inactive columns must be dropped unapplied.
pub type FusedPhaseFn<A> = fn(
    cols: &mut [A],
    active: &[bool],
    phase: usize,
    inbox: &[Envelope<PanelMsg<<A as RankAlgorithm>::Msg>>],
    out: &mut PanelPhaseCtx<'_, <A as RankAlgorithm>::Msg>,
);

/// Scatters resident interleaved lanes back into the listed columns'
/// own state: `(cols, resident, scratch)`, where `resident` is the
/// column list a fused phase recorded in [`PanelPhaseCtx::resident`] and
/// `scratch` holds the lanes in the fused phase's own layout.
///
/// Contract: after the call each listed column's per-solve vectors are
/// bit-identical to what the fused phase would have scattered eagerly
/// every step — flushing is an observability point, not a computation.
pub type FlushFn<A> = fn(cols: &mut [A], resident: &[usize], scratch: &mut [f64]);

/// `k` clones of an inner rank algorithm — one per right-hand-side
/// column — fused behind a single [`RankAlgorithm`] whose messages are
/// packed [`PanelMsg`]s.
///
/// Each phase: inbound panel envelopes are unpacked into per-column
/// inboxes (parts addressed to deactivated columns are dropped — under
/// the session preconditions they carry only norm estimates), every
/// active column runs its phase against a capture context, and the
/// captured puts are re-packed per (target, class) in [`CommClass::ALL`]
/// order. Flops and relaxations are forwarded to the real context;
/// per-column message and relaxation counts accumulate in the adapter
/// for the driver's per-column idle detection.
pub struct PanelRank<A: RankAlgorithm> {
    cols: Vec<A>,
    active: Vec<bool>,
    col_msgs: Vec<u64>,
    col_relax: Vec<u64>,
    /// Per-column undelivered slack frozen at deactivation time, so a
    /// dropped-out column's monitor view stays consistent.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    staging: Vec<Vec<PanelPart<A::Msg>>>,
    touched: Vec<usize>,
    /// Reused capture outbox, threaded through the per-column inner calls
    /// so the hot loop performs no per-phase allocation.
    cap_outbox: Vec<(usize, Envelope<A::Msg>)>,
    /// Algorithm-level fused phase, replacing the per-column loop when
    /// the inner algorithm provides one ([`PanelRank::set_fused`]).
    fused: Option<FusedPhaseFn<A>>,
    /// Scratch loaned to the fused phase (interleaved panel layouts).
    scratch: Vec<f64>,
    /// Columns whose lanes are resident in `scratch` (see
    /// [`PanelPhaseCtx::resident`]).
    resident: Vec<usize>,
    /// Scatter-back hook for resident lanes ([`PanelRank::set_flush`]).
    flush: Option<FlushFn<A>>,
}

impl<A: RankAlgorithm> PanelRank<A> {
    /// Fuses `cols` (one pre-seeded inner rank per column, all for the
    /// same rank id) into a panel rank on an `nranks`-wide executor.
    pub fn new(cols: Vec<A>, nranks: usize) -> Self {
        assert!(!cols.is_empty(), "a panel needs at least one column");
        let k = cols.len();
        PanelRank {
            cols,
            active: vec![true; k],
            col_msgs: vec![0; k],
            col_relax: vec![0; k],
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            staging: (0..nranks).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            cap_outbox: Vec::new(),
            fused: None,
            scratch: Vec::new(),
            resident: Vec::new(),
            flush: None,
        }
    }

    /// Installs (or clears) an algorithm-level fused phase. When set, the
    /// adapter skips the unpack → per-column capture → restage loop and
    /// hands the packed inbox straight to `fused`; packing of the staged
    /// parts is unchanged. See [`FusedPhaseFn`] for the exactness
    /// contract.
    pub fn set_fused(&mut self, fused: Option<FusedPhaseFn<A>>) {
        self.fused = fused;
    }

    /// Installs (or clears) the resident-lane scatter-back hook. Must be
    /// set whenever the installed fused phase keeps lanes resident; see
    /// [`FlushFn`] for the contract.
    pub fn set_flush(&mut self, flush: Option<FlushFn<A>>) {
        self.flush = flush;
    }

    /// Scatters any resident lanes back into their columns' own state
    /// and marks nothing resident. Call before reading per-column solve
    /// vectors out-of-band (exact verification, solution gather); a
    /// no-op when nothing is resident.
    pub fn flush_resident(&mut self) {
        if self.resident.is_empty() {
            return;
        }
        if let Some(flush) = self.flush {
            flush(&mut self.cols, &self.resident, &mut self.scratch);
        }
        self.resident.clear();
    }

    /// Drops residency without scattering — for when every column's
    /// state is about to be overwritten wholesale (panel reseed), so the
    /// stale lanes must not be written back.
    pub fn clear_resident(&mut self) {
        self.resident.clear();
    }

    /// Number of columns (including dropped-out ones).
    pub fn k(&self) -> usize {
        self.cols.len()
    }

    /// The inner rank for column `c`.
    pub fn col(&self, c: usize) -> &A {
        &self.cols[c]
    }

    /// Mutable access to the inner rank for column `c`.
    pub fn col_mut(&mut self, c: usize) -> &mut A {
        &mut self.cols[c]
    }

    /// Whether column `c` still participates in sweeps.
    pub fn is_active(&self, c: usize) -> bool {
        self.active[c]
    }

    /// Activates or deactivates column `c`. A deactivated column neither
    /// runs phases nor receives unpacked parts.
    pub fn set_active(&mut self, c: usize, on: bool) {
        self.active[c] = on;
    }

    /// Messages column `c` put since the last [`PanelRank::begin_step`].
    pub fn col_msgs(&self, c: usize) -> u64 {
        self.col_msgs[c]
    }

    /// Rows column `c` relaxed since the last [`PanelRank::begin_step`].
    pub fn col_relaxations(&self, c: usize) -> u64 {
        self.col_relax[c]
    }

    /// Resets the per-column step counters; call once per parallel step,
    /// before the executor runs the step's phases.
    pub fn begin_step(&mut self) {
        self.col_msgs.fill(0);
        self.col_relax.fill(0);
    }
}

impl<A: RankAlgorithm> RankAlgorithm for PanelRank<A> {
    type Msg = PanelMsg<A::Msg>;

    fn phases(&self) -> usize {
        self.cols[0].phases()
    }

    fn put_targets(&self) -> Vec<usize> {
        self.cols[0].put_targets()
    }

    fn phase(
        &mut self,
        phase: usize,
        inbox: &[Envelope<Self::Msg>],
        ctx: &mut PhaseCtx<Self::Msg>,
    ) {
        debug_assert!(self.touched.iter().all(|&t| self.staging[t].is_empty()));
        self.touched.clear();

        if let Some(fused) = self.fused {
            // Algorithm-level path: the fused phase consumes the packed
            // inbox in place (no per-column envelope reconstruction) and
            // stages parts directly.
            let Self {
                cols,
                active,
                col_msgs,
                col_relax,
                staging,
                touched,
                scratch,
                resident,
                ..
            } = self;
            let mut out = PanelPhaseCtx {
                ctx,
                staging,
                touched,
                col_msgs,
                col_relax,
                scratch,
                resident,
            };
            fused(cols, active, phase, inbox, &mut out);
        } else {
            // Unpack: restore each column's scalar envelope stream.
            // Envelopes arrive origin-ordered; parts within a message keep
            // put order, so each column sees exactly the sequence the
            // scalar executor would have delivered.
            for ib in &mut self.inboxes {
                ib.clear();
            }
            for env in inbox {
                for part in &env.payload.parts {
                    let c = part.col as usize;
                    if !self.active[c] {
                        continue;
                    }
                    self.inboxes[c].push(Envelope {
                        src: env.src,
                        class: part.class,
                        bytes: part.bytes,
                        payload: part.msg.clone(),
                    });
                }
            }

            // Run each active column against a capture context, then stage
            // its puts per target.
            let k = self.cols.len();
            for (c, col) in self.cols.iter_mut().enumerate() {
                if !self.active[c] {
                    continue;
                }
                let mut cap =
                    PhaseCtx::capture_reusing(ctx.rank(), std::mem::take(&mut self.cap_outbox));
                col.phase(phase, &self.inboxes[c], &mut cap);
                let (mut outbox, totals) = cap.into_captured();
                self.col_msgs[c] += totals.msgs;
                self.col_relax[c] += totals.relaxations;
                ctx.add_flops(totals.flops);
                if totals.relaxations > 0 {
                    ctx.record_relaxations(totals.relaxations);
                }
                for (target, env) in outbox.drain(..) {
                    if self.staging[target].is_empty() {
                        self.touched.push(target);
                        self.staging[target].reserve(k);
                    }
                    self.staging[target].push(PanelPart {
                        col: c as u16,
                        mask: 0,
                        class: env.class,
                        bytes: env.bytes,
                        msg: env.payload,
                    });
                }
                self.cap_outbox = outbox;
            }
        }

        // Pack: one put per non-empty (target, class), targets ascending,
        // classes in `CommClass::ALL` order. Grouping by class is a stable
        // partition of the staged order, so per-column order survives.
        self.touched.sort_unstable();
        for &target in &self.touched {
            let staged = &mut self.staging[target];
            // Fast path: within one phase the fused solvers put a single
            // class (Solve in the sweep phase, Residual in the broadcast
            // phase), so a target's staged parts are almost always
            // class-uniform — the whole batch moves into the message with
            // no clones and no second pass.
            if staged.windows(2).all(|w| w[0].class == w[1].class) {
                let class = staged[0].class;
                let msg = PanelMsg {
                    parts: std::mem::take(staged),
                };
                let bytes = msg.wire_bytes();
                ctx.put(target, class, msg, bytes);
                continue;
            }
            let staged = std::mem::take(staged);
            for class in CommClass::ALL {
                let parts: Vec<PanelPart<A::Msg>> = staged
                    .iter()
                    .filter(|p| p.class == class)
                    .cloned()
                    .collect();
                if parts.is_empty() {
                    continue;
                }
                let msg = PanelMsg { parts };
                let bytes = msg.wire_bytes();
                ctx.put(target, class, msg, bytes);
            }
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{ExecMode, Executor};
    use crate::stats::CostModel;

    /// A toy ring algorithm: each step, send `value + rank` to the right
    /// neighbor (Solve class), absorb what arrived from the left.
    struct Ring {
        rank: usize,
        n: usize,
        value: f64,
    }

    impl RankAlgorithm for Ring {
        type Msg = f64;

        fn phases(&self) -> usize {
            1
        }

        fn phase(&mut self, _p: usize, inbox: &[Envelope<f64>], ctx: &mut PhaseCtx<f64>) {
            for env in inbox {
                self.value += env.payload;
            }
            let next = (self.rank + 1) % self.n;
            ctx.put(next, CommClass::Solve, self.value + self.rank as f64, 8);
            ctx.record_relaxations(1);
            ctx.add_flops(1);
        }

        fn put_targets(&self) -> Vec<usize> {
            vec![(self.rank + 1) % self.n]
        }
    }

    fn ring(n: usize, c: usize) -> Vec<Ring> {
        (0..n)
            .map(|rank| Ring {
                rank,
                n,
                value: c as f64 + 1.0,
            })
            .collect()
    }

    #[test]
    fn panel_of_k_matches_k_scalar_runs_with_one_message_per_edge() {
        let n = 4;
        let k = 3;
        let steps = 5;

        // Scalar reference runs, one per column.
        let mut scalar_vals = Vec::new();
        let mut scalar_msgs = 0u64;
        for c in 0..k {
            let mut ex = Executor::new(ring(n, c), CostModel::default(), ExecMode::Sequential);
            for _ in 0..steps {
                let s = ex.step();
                scalar_msgs += s.msgs;
            }
            scalar_vals.push(ex.ranks().iter().map(|r| r.value).collect::<Vec<_>>());
        }

        // Fused panel run.
        let panels: Vec<PanelRank<Ring>> = (0..n)
            .map(|rank| PanelRank::new((0..k).map(|c| ring(n, c).remove(rank)).collect(), n))
            .collect();
        let mut ex = Executor::new(panels, CostModel::default(), ExecMode::Sequential);
        let mut fused_msgs = 0u64;
        for _ in 0..steps {
            for r in ex.ranks_mut() {
                r.begin_step();
            }
            let s = ex.step();
            fused_msgs += s.msgs;
        }

        for (c, expect) in scalar_vals.iter().enumerate() {
            let got: Vec<f64> = ex.ranks().iter().map(|r| r.col(c).value).collect();
            assert_eq!(&got, expect, "column {c} diverged from scalar run");
        }
        // One packed message per edge per step, regardless of k.
        assert_eq!(fused_msgs * k as u64, scalar_msgs);
        for r in ex.ranks() {
            for c in 0..k {
                assert_eq!(r.col_msgs(c), 1, "per-column counter after last step");
                assert_eq!(r.col_relaxations(c), 1);
            }
        }
    }

    #[test]
    fn deactivated_columns_stop_running_and_receiving() {
        let n = 3;
        let k = 2;
        let panels: Vec<PanelRank<Ring>> = (0..n)
            .map(|rank| PanelRank::new((0..k).map(|c| ring(n, c).remove(rank)).collect(), n))
            .collect();
        let mut ex = Executor::new(panels, CostModel::default(), ExecMode::Sequential);
        ex.step();
        let frozen: Vec<f64> = ex.ranks().iter().map(|r| r.col(1).value).collect();
        for r in ex.ranks_mut() {
            r.set_active(1, false);
            r.begin_step();
        }
        ex.step();
        let after: Vec<f64> = ex.ranks().iter().map(|r| r.col(1).value).collect();
        assert_eq!(after, frozen, "deactivated column must not change");
        for r in ex.ranks() {
            assert_eq!(r.col_msgs(1), 0);
            assert!(r.col_msgs(0) > 0);
        }
    }

    #[test]
    fn wire_bytes_charges_header_once_and_tag_per_part() {
        let msg = PanelMsg {
            parts: vec![
                PanelPart {
                    col: 0,
                    mask: 0,
                    class: CommClass::Solve,
                    bytes: 24,
                    msg: 0.0_f64,
                },
                PanelPart {
                    col: 1,
                    mask: 0,
                    class: CommClass::Solve,
                    bytes: 24,
                    msg: 0.0_f64,
                },
            ],
        };
        assert_eq!(msg.wire_bytes(), 4 + 2 * (2 + 24));
    }
}
