//! Multi-RHS panel fusion: one wire message per (edge, phase) carrying
//! every column's payload.
//!
//! The paper's cost argument is per-message: α dominates β for the small
//! boundary exchanges of Algorithms 1–3, so `k` independent solves over
//! the same partition pay the α term `k` times for bytes that travel the
//! same edges in the same phases. [`PanelRank`] fuses `k` clones of an
//! inner [`RankAlgorithm`] — one per right-hand-side column — and packs
//! their per-phase puts edge-by-edge into [`PanelMsg`] envelopes, so each
//! target costs one message per phase regardless of `k`.
//!
//! The wire accounting keeps header amortization honest instead of free:
//! a packed message charges [`PANEL_HEADER_BYTES`] once plus
//! [`PANEL_PART_TAG_BYTES`] per carried part on top of the parts' own
//! modelled bytes. A `k = 1` panel therefore reproduces the scalar
//! solver's message counts exactly and its byte counts up to exactly
//! `6` bytes per message — the visible price of the framing.
//!
//! Correctness leans on two invariants of the fused solvers under the
//! panel session preconditions (superstep executor, no chaos, no
//! redundancy, no solve-message thresholding, recovery off): each column
//! puts **at most one message per target per phase**, and every put of
//! one phase has **one class** (Block Jacobi puts Solve in phase 0;
//! Parallel and Distributed Southwell put Solve in phase 0 and Residual
//! in phase 1). So a target's parts pack into one message of that class
//! in column order, and unpacking restores, per column, byte-for-byte
//! the envelope sequence the scalar executor would have delivered.
//!
//! Every part addresses its columns by a bitmask ([`PanelPart::mask`]):
//! the per-column path stages one part per column (`1 << c`), and a
//! fused phase ([`FusedPanel`]) may stage one shared part for many.

use crate::executor::{Envelope, Inbox, PhaseCtx, RankAlgorithm};
use crate::stats::CommClass;

/// Bytes charged once per packed panel message (column count + framing).
pub const PANEL_HEADER_BYTES: u64 = 4;

/// Bytes charged per carried part (column id tag).
pub const PANEL_PART_TAG_BYTES: u64 = 2;

/// Most columns one panel carries: a part addresses its columns through
/// a `u64` bitmask ([`PanelPart::mask`]).
pub const PANEL_MAX_COLS: usize = 64;

/// One column's payload inside a packed panel message.
#[derive(Debug, Clone)]
pub struct PanelPart<M> {
    /// The panel columns whose payloads this part carries (bit `c` =
    /// column `c`): one bit for a per-column part, the staged column list
    /// for a shared part ([`PanelPhaseCtx::stage_shared`]). Self-describing
    /// addressing lets a receiver unpack a shared part even when a column
    /// dropped out while the message was in flight, instead of inferring
    /// the sender's column set from its own (possibly newer) active set.
    pub mask: u64,
    /// Class of the original (scalar) put, kept for per-column unpacking.
    pub class: CommClass,
    /// Modelled bytes of the original put (excluding panel framing).
    pub bytes: u64,
    /// The inner algorithm's message.
    pub msg: M,
}

/// A packed panel message: every column's payload for one edge in one
/// phase.
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
/// the per-column loop would have reported.
///
/// Parts staged here are packed by the adapter after the fused phase
/// returns — one message per target, targets ascending — with the same
/// framing as the per-column path.
pub struct PanelPhaseCtx<'a, M> {
    ctx: &'a mut PhaseCtx<PanelMsg<M>>,
    targets: &'a [usize],
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
    /// steps records the column list here; its [`FusedPanel::flush`]
    /// scatters the lanes back before any out-of-band read of per-column
    /// state. Empty = nothing resident.
    pub resident: &'a mut Vec<usize>,
}

impl<M> PanelPhaseCtx<'_, M> {
    /// Stages one part that carries *every* listed column's payload for
    /// `target` — the aggregated form for fused implementations whose
    /// peers understand the shared layout (all ranks run the same
    /// algorithm, so sender and receiver agree). Counts one logical
    /// message per carried column, exactly as if each had been staged
    /// alone; `bytes` must already account for all of them.
    ///
    /// # Panics
    /// If `target` is not among the rank's declared put targets.
    pub fn stage_shared(
        &mut self,
        target: usize,
        cols: &[usize],
        class: CommClass,
        bytes: u64,
        msg: M,
    ) {
        let mut mask = 0;
        for &c in cols {
            debug_assert!(
                c < PANEL_MAX_COLS,
                "parts address at most {PANEL_MAX_COLS} columns"
            );
            mask |= 1 << c;
            self.col_msgs[c] += 1;
        }
        let slot = target_slot(self.targets, target);
        let staged = &mut self.staging[slot];
        if staged.is_empty() {
            self.touched.push(slot);
        }
        staged.push(PanelPart {
            mask,
            class,
            bytes,
            msg,
        });
    }

    /// Forwards modelled flops to the real phase context.
    pub fn add_flops(&mut self, flops: u64) {
        self.ctx.add_flops(flops);
    }

    /// Records `rows` relaxations for column `col` (marks the rank
    /// active, exactly as the per-column loop does).
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
/// through the per-column loop. Implementations may rely on the panel
/// preconditions: all columns are clones of one rank (same matrix,
/// topology, and solver), differing only in per-column vectors.
/// Parts addressed to inactive columns must be dropped unapplied.
pub type FusedPhaseFn<A> = fn(
    cols: &mut [A],
    active: &[bool],
    phase: usize,
    inbox: Inbox<'_, PanelMsg<<A as RankAlgorithm>::Msg>>,
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

/// An algorithm-level fused panel kernel: the phase that replaces the
/// per-column loop, installed together with the flush that scatters
/// whatever lanes it leaves resident ([`PanelRank::set_fused`]).
pub struct FusedPanel<A: RankAlgorithm> {
    /// The fused phase ([`FusedPhaseFn`]).
    pub phase: FusedPhaseFn<A>,
    /// Its resident-lane scatter-back ([`FlushFn`]).
    pub flush: FlushFn<A>,
}

/// `k` clones of an inner rank algorithm — one per right-hand-side
/// column — fused behind a single [`RankAlgorithm`] whose messages are
/// packed [`PanelMsg`]s.
///
/// Each phase: inbound panel envelopes are unpacked into per-column
/// inboxes (parts addressed to deactivated columns are dropped — under
/// the session preconditions they carry only norm estimates), every
/// active column runs its phase against a capture context, and the
/// captured puts are re-packed into one message per target. Flops and
/// relaxations are forwarded to the real context; per-column message
/// and relaxation counts accumulate in the adapter over each parallel
/// step for the driver's per-column idle detection.
pub struct PanelRank<A: RankAlgorithm> {
    cols: Vec<A>,
    active: Vec<bool>,
    col_msgs: Vec<u64>,
    col_relax: Vec<u64>,
    /// Per-column undelivered slack frozen at deactivation time, so a
    /// dropped-out column's monitor view stays consistent.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    /// The declared put targets, sorted and deduplicated.
    targets: Vec<usize>,
    /// Parts staged this phase, one list per declared target (indexed
    /// like `targets`).
    staging: Vec<Vec<PanelPart<A::Msg>>>,
    /// Target slots staged to this phase.
    touched: Vec<usize>,
    /// Reused capture outbox, threaded through the per-column inner calls
    /// so the hot loop performs no per-phase allocation.
    cap_outbox: Vec<(usize, Envelope<A::Msg>)>,
    /// Algorithm-level fused kernel, replacing the per-column loop when
    /// the inner algorithm provides one ([`PanelRank::set_fused`]).
    fused: Option<FusedPanel<A>>,
    /// Scratch loaned to the fused phase (interleaved panel layouts).
    scratch: Vec<f64>,
    /// Columns whose lanes are resident in `scratch` (see
    /// [`PanelPhaseCtx::resident`]).
    resident: Vec<usize>,
}

impl<A: RankAlgorithm> PanelRank<A> {
    /// Fuses `cols` (one pre-seeded inner rank per column, all for the
    /// same rank id) into a panel rank. Staging is sized by the columns'
    /// declared put targets, so a panel rank costs O(neighbors), not
    /// O(executor ranks).
    pub fn new(cols: Vec<A>) -> Self {
        assert!(!cols.is_empty(), "a panel needs at least one column");
        let k = cols.len();
        let mut targets = cols[0].put_targets();
        targets.sort_unstable();
        targets.dedup();
        PanelRank {
            cols,
            active: vec![true; k],
            col_msgs: vec![0; k],
            col_relax: vec![0; k],
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            staging: targets.iter().map(|_| Vec::new()).collect(),
            targets,
            touched: Vec::new(),
            cap_outbox: Vec::new(),
            fused: None,
            scratch: Vec::new(),
            resident: Vec::new(),
        }
    }

    /// Installs (or clears) an algorithm-level fused kernel. When set, the
    /// adapter skips the unpack → per-column capture → restage loop and
    /// hands the packed inbox straight to its phase; packing of the
    /// staged parts is unchanged. See [`FusedPhaseFn`] and [`FlushFn`]
    /// for the exactness contracts.
    pub fn set_fused(&mut self, fused: Option<FusedPanel<A>>) {
        self.fused = fused;
    }

    /// Scatters any resident lanes back into their columns' own state
    /// and marks nothing resident. Call before reading per-column solve
    /// vectors out-of-band (exact verification, solution gather); a
    /// no-op when nothing is resident.
    pub fn flush_resident(&mut self) {
        if self.resident.is_empty() {
            return;
        }
        if let Some(fused) = &self.fused {
            (fused.flush)(&mut self.cols, &self.resident, &mut self.scratch);
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

    /// Messages column `c` put in the current parallel step (since this
    /// rank's last phase 0).
    pub fn col_msgs(&self, c: usize) -> u64 {
        self.col_msgs[c]
    }

    /// Rows column `c` relaxed in the current parallel step (since this
    /// rank's last phase 0).
    pub fn col_relaxations(&self, c: usize) -> u64 {
        self.col_relax[c]
    }
}

/// The staging slot of `target` in the sorted declared-target list.
fn target_slot(targets: &[usize], target: usize) -> usize {
    targets.binary_search(&target).unwrap_or_else(|_| {
        panic!("panel put to rank {target}, which is not a declared put target")
    })
}

impl<A: RankAlgorithm> RankAlgorithm for PanelRank<A> {
    type Msg = PanelMsg<A::Msg>;

    fn phases(&self) -> usize {
        self.cols[0].phases()
    }

    fn put_targets(&self) -> Vec<usize> {
        self.targets.clone()
    }

    fn phase(&mut self, phase: usize, inbox: Inbox<'_, Self::Msg>, ctx: &mut PhaseCtx<Self::Msg>) {
        debug_assert!(self.touched.iter().all(|&t| self.staging[t].is_empty()));
        self.touched.clear();
        if phase == 0 {
            self.col_msgs.fill(0);
            self.col_relax.fill(0);
        }

        if let Some(fused) = self.fused.as_ref().map(|f| f.phase) {
            // Algorithm-level path: the fused phase consumes the packed
            // inbox in place (no per-column envelope reconstruction) and
            // stages parts directly.
            let Self {
                cols,
                active,
                col_msgs,
                col_relax,
                targets,
                staging,
                touched,
                scratch,
                resident,
                ..
            } = self;
            let mut out = PanelPhaseCtx {
                ctx,
                targets,
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
                    debug_assert_eq!(part.mask.count_ones(), 1, "a per-column part");
                    let c = part.mask.trailing_zeros() as usize;
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
                col.phase(phase, Inbox::from(&self.inboxes[c][..]), &mut cap);
                let (mut outbox, totals) = cap.into_captured();
                self.col_msgs[c] += totals.msgs;
                self.col_relax[c] += totals.relaxations;
                ctx.add_flops(totals.flops);
                if totals.relaxations > 0 {
                    ctx.record_relaxations(totals.relaxations);
                }
                for (target, env) in outbox.drain(..) {
                    let slot = target_slot(&self.targets, target);
                    if self.staging[slot].is_empty() {
                        self.touched.push(slot);
                        self.staging[slot].reserve(k);
                    }
                    self.staging[slot].push(PanelPart {
                        mask: 1 << c,
                        class: env.class,
                        bytes: env.bytes,
                        msg: env.payload,
                    });
                }
                self.cap_outbox = outbox;
            }
        }

        // Pack: one put per touched target, targets ascending (slots follow
        // the sorted targets). Every put of a phase has one class (see the
        // module doc), so the staged parts move into the message whole, in
        // staged (column) order.
        self.touched.sort_unstable();
        for &slot in &self.touched {
            let target = self.targets[slot];
            let parts = std::mem::take(&mut self.staging[slot]);
            let class = parts[0].class;
            debug_assert!(
                parts.iter().all(|p| p.class == class),
                "one class per target per phase"
            );
            let msg = PanelMsg { parts };
            let bytes = msg.wire_bytes();
            ctx.put(target, class, msg, bytes);
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

        fn phase(&mut self, _p: usize, inbox: Inbox<'_, f64>, ctx: &mut PhaseCtx<f64>) {
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
            .map(|rank| PanelRank::new((0..k).map(|c| ring(n, c).remove(rank)).collect()))
            .collect();
        let mut ex = Executor::new(panels, CostModel::default(), ExecMode::Sequential);
        let mut fused_msgs = 0u64;
        for _ in 0..steps {
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
            .map(|rank| PanelRank::new((0..k).map(|c| ring(n, c).remove(rank)).collect()))
            .collect();
        let mut ex = Executor::new(panels, CostModel::default(), ExecMode::Sequential);
        ex.step();
        let frozen: Vec<f64> = ex.ranks().iter().map(|r| r.col(1).value).collect();
        for r in ex.ranks_mut() {
            r.set_active(1, false);
        }
        ex.step();
        let after: Vec<f64> = ex.ranks().iter().map(|r| r.col(1).value).collect();
        assert_eq!(after, frozen, "deactivated column must not change");
        for r in ex.ranks() {
            assert_eq!(r.col_msgs(1), 0);
            assert!(r.col_msgs(0) > 0);
        }
    }

    /// A two-phase toy with the fused solvers' class pattern: Solve to
    /// the right neighbor in phase 0, Residual to both neighbors in
    /// phase 1.
    struct TwoClass {
        rank: usize,
        n: usize,
    }

    impl RankAlgorithm for TwoClass {
        type Msg = u64;

        fn phases(&self) -> usize {
            2
        }

        fn phase(&mut self, phase: usize, _inbox: Inbox<'_, u64>, ctx: &mut PhaseCtx<u64>) {
            let right = (self.rank + 1) % self.n;
            let left = (self.rank + self.n - 1) % self.n;
            if phase == 0 {
                ctx.put(right, CommClass::Solve, 0, 8);
            } else {
                ctx.put(left, CommClass::Residual, 1, 8);
                ctx.put(right, CommClass::Residual, 1, 8);
            }
        }

        fn put_targets(&self) -> Vec<usize> {
            let mut t = vec![(self.rank + 1) % self.n, (self.rank + self.n - 1) % self.n];
            t.sort_unstable();
            t
        }
    }

    #[test]
    fn per_column_parts_carry_their_column_bit_in_class_uniform_messages() {
        let n = 4;
        let k = 3;
        let rank = 1;
        let mut panel = PanelRank::new((0..k).map(|_| TwoClass { rank, n }).collect());
        panel.set_active(1, false);
        for (phase, class, targets) in [
            (0, CommClass::Solve, vec![2]),
            (1, CommClass::Residual, vec![0, 2]),
        ] {
            let mut ctx = PhaseCtx::capture(rank);
            panel.phase(phase, Inbox::from(&[][..]), &mut ctx);
            let (out, _) = ctx.into_captured();
            let got: Vec<usize> = out.iter().map(|(t, _)| *t).collect();
            assert_eq!(got, targets, "one message per target, ascending");
            for (_, env) in &out {
                assert_eq!(env.class, class, "phase {phase}");
                let masks: Vec<u64> = env.payload.parts.iter().map(|p| p.mask).collect();
                assert_eq!(masks, [1 << 0, 1 << 2], "active columns, in column order");
                assert!(env.payload.parts.iter().all(|p| p.class == class));
                assert_eq!(env.bytes, env.payload.wire_bytes());
            }
        }
    }

    #[test]
    fn staging_holds_one_list_per_declared_target() {
        // On a wide executor a rank with two declared targets stages into
        // two lists, not one per rank.
        let n = 1000;
        let panel = PanelRank::new((0..4).map(|_| TwoClass { rank: 7, n }).collect());
        assert_eq!(panel.targets, [6, 8]);
        assert_eq!(panel.staging.len(), panel.targets.len());
        assert_eq!(panel.put_targets(), [6, 8]);
    }

    #[test]
    #[should_panic(expected = "not a declared put target")]
    fn staging_to_an_undeclared_target_panics() {
        let mut panel = PanelRank::new(vec![Ring {
            rank: 0,
            n: 3,
            value: 0.0,
        }]);
        panel.targets.clear();
        panel.staging.clear();
        let mut ctx = PhaseCtx::capture(0);
        panel.phase(0, Inbox::from(&[][..]), &mut ctx);
    }

    #[test]
    fn wire_bytes_charges_header_once_and_tag_per_part() {
        let msg = PanelMsg {
            parts: vec![
                PanelPart {
                    mask: 1,
                    class: CommClass::Solve,
                    bytes: 24,
                    msg: 0.0_f64,
                },
                PanelPart {
                    mask: 2,
                    class: CommClass::Solve,
                    bytes: 24,
                    msg: 0.0_f64,
                },
            ],
        };
        assert_eq!(msg.wire_bytes(), 4 + 2 * (2 + 24));
    }
}
