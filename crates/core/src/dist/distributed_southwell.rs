//! Distributed Southwell, block form (Algorithm 3 — the paper's
//! contribution).
//!
//! The premise (§3): neighbor residual norms "do not need to be known
//! exactly". Each rank keeps
//!
//! * `Γ` (`gamma_sq`) — *estimates* of the neighbors' residual norms,
//! * `z` — a ghost layer holding its copy of the residual values at the
//!   neighbors' boundary points,
//! * `Γ̃` (`tilde_sq`) — its record of what each neighbor currently believes
//!   *its own* norm to be.
//!
//! When a rank relaxes, formula (3) of the paper lets it compute the effect
//! of its relaxation on each neighbor's boundary residuals from purely local
//! data (`a_{ηj,i} = a_{i,ηj}` is stored with row `i`), so it refreshes `z`
//! and `Γ` **without communication**. `Γ̃` is what makes the scheme safe:
//! if `‖r_p‖ < Γ̃_p[q]`, neighbor `q` overestimates `p` and might wait on
//! `p` forever — `p` then sends `q` one explicit residual update. That is
//! the *only* explicit communication, which is why DS needs roughly a third
//! of Parallel Southwell's messages (Tables 2–3).
//!
//! ### Crossing-message rule
//!
//! Algorithm 3 overwrites `Γ̃` with the estimate piggybacked on every
//! incoming message. When two neighbors send to each other in the *same*
//! epoch, the piggybacked estimates are mutually stale: `q`'s own piggyback
//! overwrites `p`'s estimate of `q` after `q` computed the estimate field it
//! sent. To keep `Γ̃` exact — the property the paper relies on ("this value
//! is always exactly known") — the receiver ignores the estimate field from
//! a sender it itself messaged in that epoch; its own piggyback, which it
//! already recorded at send time, is the sender's final word. The
//! `gamma_tilde_is_exact` integration test checks the invariant globally.

use super::layout::LocalSystem;
use super::local_solver::{LocalSolver, LocalSolverImpl};
use super::msg::{DistMsg, SeqMsg, SlabVec};
use super::recovery::{Recoverable, RecoveryConfig};
use super::seq::{SeqIn, SeqVerdict};
use crate::scalar::beats;
use dsw_rma::{CommClass, Envelope, PhaseCtx, RankAlgorithm};

/// Toggles for the ablation studies (see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct DsConfig {
    /// Refine `Γ` and `z` locally when relaxing (the paper's scheme).
    /// Disabled, estimates change only via incoming messages, and far more
    /// explicit updates are needed (`ablation_ghost` bench).
    pub refine_estimates: bool,
    /// Send deadlock-avoidance messages (Alg. 3 lines 27–30). Disabled, the
    /// method can freeze exactly like the ICCS'16 scheme.
    pub deadlock_avoidance: bool,
    /// Local subdomain solver (the artifact's `-loc_solver` switch).
    pub local_solver: LocalSolver,
    /// Variable-threshold message coalescing — the further
    /// communication-reduction possibility the paper points to in §5
    /// (de Jager & Bradley's asynchronous variable-threshold scheme).
    /// After relaxing, the residual deltas for neighbor `q` are sent only
    /// once their accumulated 2-norm reaches `threshold · ‖r_p‖`; smaller
    /// contributions stay in a local pending buffer and ride along with the
    /// next flush. `0.0` (default) reproduces Algorithm 3 exactly. The
    /// receiver's maintained residual lags by the pending amount — an
    /// additional, bounded estimate error the protocol already tolerates —
    /// and because the threshold is relative to the sender's shrinking
    /// residual norm, every contribution is eventually delivered.
    pub solve_msg_threshold: f64,
    /// Self-healing layer for unreliable transports (sequencing, periodic
    /// invariant audit, freeze watchdog — see [`RecoveryConfig`]). Off by
    /// default, which reproduces the paper's protocol and metrics exactly.
    pub recovery: RecoveryConfig,
}

impl Default for DsConfig {
    fn default() -> Self {
        DsConfig {
            refine_estimates: true,
            deadlock_avoidance: true,
            local_solver: LocalSolver::GaussSeidel,
            solve_msg_threshold: 0.0,
            recovery: RecoveryConfig::off(),
        }
    }
}

/// One rank of block Distributed Southwell.
#[derive(Clone)]
pub struct DistributedSouthwellRank {
    /// The local piece of the system.
    pub ls: LocalSystem,
    /// `Γ`: estimated neighbor residual norms (squared), per neighbor slot.
    pub gamma_sq: Vec<f64>,
    /// `Γ̃`: per neighbor slot, the (exact) record of that neighbor's
    /// estimate of *this* rank's norm (squared).
    pub tilde_sq: Vec<f64>,
    /// Ghost residual layer, aligned with `ls.ext_cols`.
    pub z: Vec<f64>,
    /// ‖r_p‖² cache.
    my_norm_sq: f64,
    /// Whether `ls.r` changed since `my_norm_sq` was last computed (solve
    /// deltas, audit repairs, or a local relaxation). While clean, the
    /// cached norm is bit-identical to a recomputation — the norm is a
    /// pure function of `r` — so the per-phase recompute is skipped.
    norm_dirty: bool,
    /// Which neighbors this rank messaged in the previous phase
    /// (for the crossing-message rule).
    sent_prev_phase: Vec<bool>,
    /// Whether this rank relaxed in the most recent parallel step
    /// (observability hook for tests and the harness).
    pub relaxed_last_step: bool,
    cfg: DsConfig,
    solver: LocalSolverImpl,
    ghost_dr: Vec<f64>,
    /// Residual deltas not yet delivered under the variable-threshold
    /// extension (always zero when `solve_msg_threshold == 0`).
    pending_dr: Vec<f64>,
    /// Σ dr² of solve messages flushed in the current step's phase 1 —
    /// still in flight at the step boundary (delivered at the receivers'
    /// next phase 0). Feeds [`RankAlgorithm::undelivered_delta_sq`].
    in_flight_flush_sq: f64,
    /// Cached Σ (parked + in-flight) delta² at the last step boundary.
    undelivered_sq: f64,
    // --- self-healing layer (see `super::recovery`) -------------------
    /// Sequencing and audit state per neighbor link; `None` unless
    /// sequencing or the audit is on.
    link: Option<Box<LinkRecovery>>,
    /// Parallel steps this rank has executed (audit cadence).
    steps_done: usize,
    /// Watchdog flag: force a residual rebroadcast to all neighbors in the
    /// next phase 1 (set by [`Recoverable::nudge`]).
    force_rebroadcast: bool,
    /// Boundary residual rows overwritten by the invariant audit.
    pub drift_repairs: u64,
    /// Messages discarded as duplicate / stale / subsumed.
    pub stale_discards: u64,
}

/// The recovery layer's per-link state: sequence tracking and the
/// audit's ghost-solution snapshots. Only sequencing and the audit read
/// it, so a rank holds it only when one of them is on.
#[derive(Clone)]
struct LinkRecovery {
    /// Next outgoing sequence number per neighbor link (sequencing).
    seq_out: Vec<u64>,
    /// Incoming sequence state per neighbor link.
    seq_in: Vec<SeqIn>,
    /// Sequence number of the last *applied* audit per neighbor; older
    /// messages from that neighbor are subsumed by the audit snapshot.
    last_audit_seq: Vec<u64>,
    /// Ghost *solution* values from audit snapshots, aligned with
    /// `ls.ext_cols`. Only meaningful where `audit_fresh` holds.
    ghost_x: Vec<f64>,
    /// Per neighbor slot: `ghost_x` currently equals that neighbor's true
    /// boundary solution (set by an applied audit, cleared by any applied
    /// solve message — the neighbor relaxed after the snapshot).
    audit_fresh: Vec<bool>,
    /// Neighbor slot owning each ghost slot (repair coverage check).
    owner_of_slot: Vec<u32>,
}

impl LinkRecovery {
    fn new(ls: &LocalSystem) -> Self {
        let nb = ls.neighbors.len();
        let g = ls.ext_cols.len();
        let mut owner_of_slot = vec![0u32; g];
        for (s, slots) in ls.ghosts_of.iter().enumerate() {
            for &slot in slots {
                owner_of_slot[slot as usize] = s as u32;
            }
        }
        LinkRecovery {
            seq_out: vec![0; nb],
            seq_in: vec![SeqIn::new(); nb],
            last_audit_seq: vec![0; nb],
            ghost_x: vec![0.0; g],
            audit_fresh: vec![false; nb],
            owner_of_slot,
        }
    }

    /// Copies `other`'s per-solve link state in place; `owner_of_slot`
    /// is topology and stays.
    fn copy_state_from(&mut self, other: &Self) {
        self.seq_out.copy_from_slice(&other.seq_out);
        self.seq_in.clone_from_slice(&other.seq_in);
        self.last_audit_seq.copy_from_slice(&other.last_audit_seq);
        self.ghost_x.copy_from_slice(&other.ghost_x);
        self.audit_fresh.copy_from_slice(&other.audit_fresh);
    }
}

impl DistributedSouthwellRank {
    /// Wraps local systems into Distributed Southwell ranks with the
    /// default configuration. `norms_sq` holds every rank's initial ‖r‖²
    /// and `r_global` the initial global residual (the setup exchange that
    /// fills the ghost layers exactly).
    pub fn build(locals: Vec<LocalSystem>, norms_sq: &[f64], r_global: &[f64]) -> Vec<Self> {
        Self::build_with(locals, norms_sq, r_global, DsConfig::default())
    }

    /// As [`build`](Self::build) with explicit configuration.
    pub fn build_with(
        locals: Vec<LocalSystem>,
        norms_sq: &[f64],
        r_global: &[f64],
        cfg: DsConfig,
    ) -> Vec<Self> {
        locals
            .into_iter()
            .map(|ls| {
                let gamma_sq: Vec<f64> = ls.neighbors.iter().map(|&q| norms_sq[q]).collect();
                let tilde_sq = vec![norms_sq[ls.rank]; ls.neighbors.len()];
                let z: Vec<f64> = ls.ext_cols.iter().map(|&g| r_global[g]).collect();
                let my = norms_sq[ls.rank];
                let nb = ls.neighbors.len();
                let g = ls.ext_cols.len();
                let recovery = cfg.recovery;
                let link = (recovery.sequencing || recovery.audit_every.is_some())
                    .then(|| Box::new(LinkRecovery::new(&ls)));
                DistributedSouthwellRank {
                    solver: LocalSolverImpl::new(cfg.local_solver, &ls),
                    ls,
                    gamma_sq,
                    tilde_sq,
                    z,
                    my_norm_sq: my,
                    norm_dirty: true,
                    sent_prev_phase: vec![false; nb],
                    relaxed_last_step: false,
                    cfg,
                    ghost_dr: vec![0.0; g],
                    pending_dr: vec![0.0; g],
                    in_flight_flush_sq: 0.0,
                    undelivered_sq: 0.0,
                    link,
                    steps_done: 0,
                    force_rebroadcast: false,
                    drift_repairs: 0,
                    stale_discards: 0,
                }
            })
            .collect()
    }

    /// The Southwell criterion against the local *estimates*.
    fn wins(&self) -> bool {
        if self.my_norm_sq == 0.0 {
            return false;
        }
        self.ls
            .neighbors
            .iter()
            .zip(&self.gamma_sq)
            .all(|(&q, &g)| beats(self.my_norm_sq, self.ls.rank, g, q))
    }

    /// Recomputes `my_norm_sq` only if `ls.r` changed since the last
    /// computation. Skipping the recompute over an unchanged `r` yields
    /// the exact same bits, so protocol decisions are unaffected.
    #[inline]
    fn refresh_norm(&mut self) {
        if self.norm_dirty {
            self.my_norm_sq = self.ls.residual_norm_sq();
            self.norm_dirty = false;
        }
    }

    /// Declares that `ls` was mutated out-of-band (test harnesses, fault
    /// simulations), so the cached ‖r‖² must be recomputed at the next
    /// phase. Protocol-internal mutations set the flag themselves.
    pub fn invalidate_norm_cache(&mut self) {
        self.norm_dirty = true;
    }

    /// Sequences (when enabled) and puts one protocol message to the
    /// neighbor in slot `s`.
    fn send(&mut self, ctx: &mut PhaseCtx<SeqMsg>, s: usize, class: CommClass, body: DistMsg) {
        let seq = match self.link.as_deref_mut() {
            Some(link) if self.cfg.recovery.sequencing => {
                link.seq_out[s] += 1;
                link.seq_out[s]
            }
            _ => 0,
        };
        let msg = SeqMsg { seq, body };
        let bytes = msg.wire_bytes();
        ctx.put(self.ls.neighbors[s], class, msg, bytes);
    }

    /// Applies one inbox batch with the sequencing verdicts of
    /// [`super::seq`], then runs the invariant audit repair if any audit
    /// snapshot was applied.
    ///
    /// Without recovery every message judges `FreshNewest` and this is
    /// exactly Algorithm 3's handling: residual deltas (solve only), ghost
    /// overwrite, `Γ` overwrite, and — subject to the crossing rule — `Γ̃`
    /// overwrite. Under sequencing, duplicates are discarded (idempotent
    /// redelivery), reordered stale messages contribute only their additive
    /// deltas, and messages older than an applied audit snapshot are
    /// discarded entirely (the snapshot subsumes their effect).
    fn apply_inbox(&mut self, inbox: &[Envelope<SeqMsg>], ctx: &mut PhaseCtx<SeqMsg>) {
        let mut any_audit = false;
        for env in inbox {
            let s = self.ls.neighbor_slot(env.src);
            let seq = env.payload.seq;
            // Senders sequence (seq > 0) only with sequencing on, which
            // also gives every receiver its link state.
            let (verdict, subsumed) = match self.link.as_deref_mut() {
                Some(link) if seq > 0 => (link.seq_in[s].judge(seq), seq < link.last_audit_seq[s]),
                _ => (SeqVerdict::FreshNewest, false),
            };
            if verdict == SeqVerdict::Duplicate || subsumed {
                self.stale_discards += 1;
                continue;
            }
            let newest = verdict == SeqVerdict::FreshNewest;
            match &env.payload.body {
                DistMsg::Solve {
                    dr,
                    boundary_r,
                    norm_sq,
                    est_of_target_sq,
                } => {
                    // Additive deltas apply exactly once whatever the order.
                    for (&li, &d) in self.ls.shape.boundary_rows_to[s].iter().zip(dr) {
                        self.ls.r[li as usize] += d;
                    }
                    self.norm_dirty = true;
                    // The sender relaxed after its last audit snapshot, so
                    // the recorded ghost solution no longer matches.
                    if let Some(link) = self.link.as_deref_mut() {
                        link.audit_fresh[s] = false;
                    }
                    if newest {
                        for (&slot, &v) in self.ls.ghosts_of[s].iter().zip(boundary_r) {
                            self.z[slot as usize] = v;
                        }
                        self.gamma_sq[s] = *norm_sq;
                        if !self.sent_prev_phase[s] {
                            self.tilde_sq[s] = *est_of_target_sq;
                        }
                    }
                }
                DistMsg::Residual {
                    boundary_r,
                    norm_sq,
                    est_of_target_sq,
                } => {
                    if newest {
                        for (&slot, &v) in self.ls.ghosts_of[s].iter().zip(boundary_r) {
                            self.z[slot as usize] = v;
                        }
                        self.gamma_sq[s] = *norm_sq;
                        if !self.sent_prev_phase[s] {
                            self.tilde_sq[s] = *est_of_target_sq;
                        }
                    } else {
                        // Purely state-carrying and outdated: discard.
                        self.stale_discards += 1;
                    }
                }
                DistMsg::Audit {
                    boundary_x,
                    boundary_r,
                    norm_sq,
                    est_of_target_sq,
                } => {
                    if newest {
                        for (&slot, &v) in self.ls.ghosts_of[s].iter().zip(boundary_r) {
                            self.z[slot as usize] = v;
                        }
                        self.gamma_sq[s] = *norm_sq;
                        if !self.sent_prev_phase[s] {
                            self.tilde_sq[s] = *est_of_target_sq;
                        }
                        // Only ranks with the audit on send snapshots, and
                        // the audit gives every rank its link state.
                        if let Some(link) = self.link.as_deref_mut() {
                            for (&slot, &v) in self.ls.ghosts_of[s].iter().zip(boundary_x) {
                                link.ghost_x[slot as usize] = v;
                            }
                            if seq > 0 {
                                link.last_audit_seq[s] = seq;
                            }
                            link.audit_fresh[s] = true;
                            any_audit = true;
                        }
                    } else {
                        self.stale_discards += 1;
                    }
                }
            }
        }
        if any_audit {
            self.audit_repair(ctx);
        }
    }

    /// The invariant audit: recompute every boundary residual row whose
    /// external entries are all covered by fresh audit snapshots, and
    /// overwrite the maintained value when the drift exceeds the tolerance.
    /// Interior rows never drift (their residuals change only through the
    /// exact local relaxation), so the audit is boundary-only.
    fn audit_repair(&mut self, ctx: &mut PhaseCtx<SeqMsg>) {
        let Some(link) = self.link.as_deref() else {
            return;
        };
        let tol = self.cfg.recovery.audit_tol;
        let mut flops = 0u64;
        for i in 0..self.ls.nrows() {
            let (k0, k1) = (self.ls.a_ext_ptr[i], self.ls.a_ext_ptr[i + 1]);
            if k0 == k1 {
                continue;
            }
            let covered = (k0..k1).all(|k| {
                link.audit_fresh[link.owner_of_slot[self.ls.a_ext_idx[k] as usize] as usize]
            });
            if !covered {
                continue;
            }
            let mut r_new = self.ls.b[i];
            for (j, aij) in self.ls.a_int.row(i) {
                r_new -= aij * self.ls.x[j];
            }
            for k in k0..k1 {
                r_new -= self.ls.a_ext_val[k] * link.ghost_x[self.ls.a_ext_idx[k] as usize];
            }
            flops += 2 * (self.ls.a_int.row_cols(i).len() + (k1 - k0)) as u64;
            if (r_new - self.ls.r[i]).abs() > tol * (1.0 + r_new.abs()) {
                self.ls.r[i] = r_new;
                self.drift_repairs += 1;
                self.norm_dirty = true;
            }
        }
        ctx.add_flops(flops);
    }

    /// The sender-side audit payload for neighbor slot `s`: boundary
    /// solution and residual values in the agreed ordering.
    fn audit_body(&self, s: usize) -> DistMsg {
        DistMsg::Audit {
            boundary_x: self.ls.boundary_rows_to[s]
                .iter()
                .map(|&i| self.ls.x[i as usize])
                .collect(),
            boundary_r: self.ls.boundary_residuals(s),
            norm_sq: self.my_norm_sq,
            est_of_target_sq: self.gamma_sq[s],
        }
    }
}

impl RankAlgorithm for DistributedSouthwellRank {
    type Msg = SeqMsg;

    fn phases(&self) -> usize {
        2
    }

    fn put_targets(&self) -> Vec<usize> {
        // Every message class (solve, residual, recovery) flows only along
        // the static subdomain neighbor set.
        self.ls.neighbors.clone()
    }

    fn phase(&mut self, phase: usize, inbox: &[Envelope<SeqMsg>], ctx: &mut PhaseCtx<SeqMsg>) {
        match phase {
            0 => {
                // The previous step's phase-1 flushes are delivered during
                // this epoch; they are no longer in flight.
                self.in_flight_flush_sq = 0.0;
                // Read the deadlock-avoidance updates of the previous step.
                self.apply_inbox(inbox, ctx);
                self.sent_prev_phase.iter_mut().for_each(|f| *f = false);
                self.refresh_norm();
                self.relaxed_last_step = self.wins();
                if self.relaxed_last_step {
                    self.ghost_dr.iter_mut().for_each(|v| *v = 0.0);
                    let flops = self.solver.relax(&mut self.ls, &mut self.ghost_dr);
                    ctx.add_flops(flops);
                    ctx.record_relaxations(self.ls.nrows() as u64);
                    self.my_norm_sq = self.ls.residual_norm_sq();
                    self.norm_dirty = false;
                    // Local refinement: fold this relaxation's contribution
                    // into the ghost layer and the Γ estimates — no
                    // communication needed (formula (3) of the paper).
                    if self.cfg.refine_estimates {
                        for s in 0..self.ls.nneighbors() {
                            let mut est = self.gamma_sq[s];
                            for &slot in &self.ls.ghosts_of[s] {
                                let old = self.z[slot as usize];
                                let new = old + self.ghost_dr[slot as usize];
                                est += new * new - old * old;
                                self.z[slot as usize] = new;
                            }
                            self.gamma_sq[s] = est.max(0.0);
                        }
                        ctx.add_flops(4 * self.ls.ext_cols.len() as u64);
                    }
                    for s in 0..self.ls.nneighbors() {
                        // Accumulate this relaxation's contributions into
                        // the pending buffer and measure the total.
                        let mut acc_sq = 0.0;
                        for &slot in &self.ls.ghosts_of[s] {
                            let p = &mut self.pending_dr[slot as usize];
                            *p += self.ghost_dr[slot as usize];
                            acc_sq += *p * *p;
                        }
                        // Variable-threshold coalescing (§5 extension):
                        // defer the message while the accumulated deltas
                        // stay small relative to our residual norm.
                        let thresh = self.cfg.solve_msg_threshold;
                        if thresh > 0.0 && acc_sq < thresh * thresh * self.my_norm_sq {
                            continue;
                        }
                        let dr: SlabVec = self.ls.ghosts_of[s]
                            .iter()
                            .map(|&slot| {
                                let slot = slot as usize;
                                let v = self.pending_dr[slot];
                                self.pending_dr[slot] = 0.0;
                                v
                            })
                            .collect();
                        let body = DistMsg::Solve {
                            dr,
                            boundary_r: self.ls.boundary_residuals(s),
                            norm_sq: self.my_norm_sq,
                            est_of_target_sq: self.gamma_sq[s],
                        };
                        self.send(ctx, s, CommClass::Solve, body);
                        // Record the piggyback: q's estimate of us becomes
                        // our freshly sent norm.
                        self.tilde_sq[s] = self.my_norm_sq;
                        self.sent_prev_phase[s] = true;
                    }
                }
            }
            1 => {
                // Read solve updates from neighbors that relaxed.
                self.apply_inbox(inbox, ctx);
                self.sent_prev_phase.iter_mut().for_each(|f| *f = false);
                if self.norm_dirty {
                    self.my_norm_sq = self.ls.residual_norm_sq();
                    self.norm_dirty = false;
                    ctx.add_flops(2 * self.ls.nrows() as u64);
                }
                // Coalescing leak fix: deltas parked in `pending_dr` by the
                // variable-threshold rule were only reconsidered on the
                // rank's *next* relaxation — a rank that stopped winning
                // (or converged) left its neighbors' ghost residuals
                // permanently stale. Re-evaluate the parked deltas against
                // the current norm every step: because the threshold is
                // relative to our own shrinking residual, everything
                // pending flushes as we approach convergence.
                let thresh = self.cfg.solve_msg_threshold;
                if thresh > 0.0 {
                    for s in 0..self.ls.nneighbors() {
                        let mut acc_sq = 0.0;
                        for &slot in &self.ls.ghosts_of[s] {
                            let p = self.pending_dr[slot as usize];
                            acc_sq += p * p;
                        }
                        if acc_sq == 0.0 || acc_sq < thresh * thresh * self.my_norm_sq {
                            continue;
                        }
                        let dr: SlabVec = self.ls.ghosts_of[s]
                            .iter()
                            .map(|&slot| {
                                let slot = slot as usize;
                                let v = self.pending_dr[slot];
                                self.pending_dr[slot] = 0.0;
                                v
                            })
                            .collect();
                        // A phase-1 flush crosses the step boundary in
                        // flight (applied at the receiver's next phase 0).
                        self.in_flight_flush_sq += dr.iter().map(|v| v * v).sum::<f64>();
                        let body = DistMsg::Solve {
                            dr,
                            boundary_r: self.ls.boundary_residuals(s),
                            norm_sq: self.my_norm_sq,
                            est_of_target_sq: self.gamma_sq[s],
                        };
                        self.send(ctx, s, CommClass::Solve, body);
                        self.tilde_sq[s] = self.my_norm_sq;
                        self.sent_prev_phase[s] = true;
                    }
                }
                if self.force_rebroadcast {
                    // Watchdog response: unconditionally rebroadcast exact
                    // boundary residuals and norms to every neighbor. This
                    // restores exact Γ everywhere, so the Southwell
                    // tie-break elects a winner next step unless the system
                    // is genuinely converged.
                    self.force_rebroadcast = false;
                    for s in 0..self.ls.nneighbors() {
                        let body = DistMsg::Residual {
                            boundary_r: self.ls.boundary_residuals(s),
                            norm_sq: self.my_norm_sq,
                            est_of_target_sq: self.gamma_sq[s],
                        };
                        self.send(ctx, s, CommClass::Recovery, body);
                        self.tilde_sq[s] = self.my_norm_sq;
                        self.sent_prev_phase[s] = true;
                    }
                } else if self.cfg.deadlock_avoidance {
                    // Deadlock check: any neighbor overestimating us gets
                    // one explicit residual update.
                    for s in 0..self.ls.nneighbors() {
                        if self.my_norm_sq < self.tilde_sq[s] {
                            let body = DistMsg::Residual {
                                boundary_r: self.ls.boundary_residuals(s),
                                norm_sq: self.my_norm_sq,
                                est_of_target_sq: self.gamma_sq[s],
                            };
                            self.send(ctx, s, CommClass::Residual, body);
                            self.tilde_sq[s] = self.my_norm_sq;
                            self.sent_prev_phase[s] = true;
                        }
                    }
                }
                // Periodic invariant audit: snapshot the boundary state to
                // every neighbor. Sent last in the phase so that on a
                // reliable link it is the newest message on the wire.
                if let Some(every) = self.cfg.recovery.audit_every {
                    if self.steps_done % every == every - 1 {
                        for s in 0..self.ls.nneighbors() {
                            let body = self.audit_body(s);
                            self.send(ctx, s, CommClass::Recovery, body);
                            self.tilde_sq[s] = self.my_norm_sq;
                            self.sent_prev_phase[s] = true;
                        }
                    }
                }
                self.steps_done += 1;
                // Refresh the undelivered-delta cache for the monitor: the
                // coalescing extension is the only source of residual
                // deltas that outlive the step boundary.
                self.undelivered_sq = if self.cfg.solve_msg_threshold > 0.0 {
                    self.pending_dr.iter().map(|p| p * p).sum::<f64>() + self.in_flight_flush_sq
                } else {
                    0.0
                };
            }
            _ => unreachable!("Distributed Southwell has two phases"),
        }
    }

    /// DS keeps `my_norm_sq` exact at step boundaries on a reliable link
    /// with coalescing off; with coalescing on, parked and in-flight
    /// deltas are reported through
    /// [`RankAlgorithm::undelivered_delta_sq`].
    fn maintained_norm_sq(&self) -> Option<f64> {
        Some(self.my_norm_sq)
    }

    fn undelivered_delta_sq(&self) -> f64 {
        self.undelivered_sq
    }
}

impl Recoverable for DistributedSouthwellRank {
    fn nudge(&mut self) -> bool {
        if !self.cfg.recovery.watchdog {
            return false;
        }
        self.force_rebroadcast = true;
        true
    }

    fn drift_repairs(&self) -> u64 {
        self.drift_repairs
    }

    fn stale_discards(&self) -> u64 {
        self.stale_discards
    }
}

impl super::session::WarmStart for DistributedSouthwellRank {
    fn local(&self) -> &LocalSystem {
        &self.ls
    }

    fn reseed_rhs(&mut self, delta_b: &[f64]) -> f64 {
        // r = b − Ax shifts purely locally under a b change; the ghost
        // layer `z` mirrors the neighbors' residuals at the boundary rows,
        // which shift by the same per-row deltas on the owning ranks.
        for (li, &g) in self.ls.shape.rows.iter().enumerate() {
            self.ls.b[li] += delta_b[g];
            self.ls.r[li] += delta_b[g];
        }
        for (slot, &g) in self.ls.ext_cols.iter().enumerate() {
            self.z[slot] += delta_b[g];
        }
        self.my_norm_sq = self.ls.residual_norm_sq();
        // The cache is exact as of this recompute — leaving it dirty would
        // be correct too, but the session's warm-start audit requires the
        // reseed itself to re-establish the clean-cache invariant.
        self.norm_dirty = false;
        self.my_norm_sq
    }

    fn reseed_estimates(&mut self, norms_sq: &[f64]) {
        // Out-of-band exact exchange, mirroring `build_with`'s setup: Γ
        // gets each neighbor's exact post-reseed norm, and Γ̃ records that
        // every neighbor was handed this rank's exact norm.
        for (s, &q) in self.ls.neighbors.iter().enumerate() {
            self.gamma_sq[s] = norms_sq[q];
        }
        for t in &mut self.tilde_sq {
            *t = self.my_norm_sq;
        }
        // Any flushed-but-undelivered deltas are discarded alongside the
        // executor's in-flight queues (the session only reseeds at a step
        // boundary with `solve_msg_threshold == 0`, where the pending
        // buffer is empty and in-flight messages carry norms only).
        for p in &mut self.pending_dr {
            *p = 0.0;
        }
        self.in_flight_flush_sq = 0.0;
        self.undelivered_sq = 0.0;
        for s in &mut self.sent_prev_phase {
            *s = false;
        }
        self.relaxed_last_step = false;
        self.force_rebroadcast = false;
    }

    fn copy_state_from(&mut self, other: &Self) {
        // `cfg` is configuration and the solver is shared with the
        // clone-sibling; `ghost_dr` is transient scratch.
        self.ls.copy_solve_state_from(&other.ls);
        self.gamma_sq.copy_from_slice(&other.gamma_sq);
        self.tilde_sq.copy_from_slice(&other.tilde_sq);
        self.z.copy_from_slice(&other.z);
        self.my_norm_sq = other.my_norm_sq;
        self.norm_dirty = other.norm_dirty;
        self.sent_prev_phase.copy_from_slice(&other.sent_prev_phase);
        self.relaxed_last_step = other.relaxed_last_step;
        self.pending_dr.copy_from_slice(&other.pending_dr);
        self.in_flight_flush_sq = other.in_flight_flush_sq;
        self.undelivered_sq = other.undelivered_sq;
        // Clone-siblings share one recovery configuration, so both or
        // neither hold link state; the clone covers a mismatch.
        match (self.link.as_deref_mut(), other.link.as_deref()) {
            (Some(link), Some(src)) => link.copy_state_from(src),
            _ => self.link.clone_from(&other.link),
        }
        self.steps_done = other.steps_done;
        self.force_rebroadcast = other.force_rebroadcast;
        self.drift_repairs = other.drift_repairs;
        self.stale_discards = other.stale_discards;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::layout::{distribute, gather_x};
    use dsw_partition::partition_strip;
    use dsw_rma::{CostModel, ExecMode, Executor};
    use dsw_sparse::gen;

    fn build_ds(
        nx: usize,
        ny: usize,
        p: usize,
        cfg: DsConfig,
    ) -> (
        dsw_sparse::CsrMatrix,
        Vec<f64>,
        Executor<DistributedSouthwellRank>,
    ) {
        build_ds_part(nx, ny, p, cfg, false)
    }

    fn build_ds_part(
        nx: usize,
        ny: usize,
        p: usize,
        cfg: DsConfig,
        multilevel: bool,
    ) -> (
        dsw_sparse::CsrMatrix,
        Vec<f64>,
        Executor<DistributedSouthwellRank>,
    ) {
        let a = gen::grid2d_poisson(nx, ny);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let x0 = vec![0.0; n];
        let part = if multilevel {
            dsw_partition::partition_multilevel(
                &dsw_partition::Graph::from_matrix(&a),
                p,
                dsw_partition::MultilevelOptions::default(),
            )
        } else {
            partition_strip(n, p)
        };
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
        let r0 = a.residual(&b, &x0);
        let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, cfg);
        let ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        (a, b, ex)
    }

    fn global_norm(
        ex: &Executor<DistributedSouthwellRank>,
        a: &dsw_sparse::CsrMatrix,
        b: &[f64],
    ) -> f64 {
        let locals: Vec<_> = ex.ranks().iter().map(|r| r.ls.clone()).collect();
        let x = gather_x(&locals, a.nrows());
        dsw_sparse::vecops::norm2(&a.residual(b, &x))
    }

    #[test]
    fn ds_converges_on_poisson() {
        let (a, b, mut ex) = build_ds(12, 12, 6, DsConfig::default());
        for _ in 0..2000 {
            ex.step();
            if global_norm(&ex, &a, &b) < 1e-8 {
                return;
            }
        }
        panic!("did not converge; residual {}", global_norm(&ex, &a, &b));
    }

    #[test]
    fn gamma_tilde_is_exact() {
        // The Γ̃ invariant: rank p's record of "q's estimate of ‖r_p‖"
        // equals q's actual Γ entry for p — checked at every step boundary
        // after which no messages are in flight. (Explicit updates are sent
        // in phase 1 and land at the next step's phase 0, so on steps that
        // sent them the records legitimately lead the receiver's state.)
        let (_, _, mut ex) = build_ds_part(16, 16, 8, DsConfig::default(), true);
        let mut checked = 0;
        for step in 0..80 {
            let s = ex.step();
            if s.msgs_residual != 0 {
                continue;
            }
            checked += 1;
            for p in ex.ranks() {
                for (slot, &q) in p.ls.neighbors.iter().enumerate() {
                    let qrank = &ex.ranks()[q];
                    let back = qrank.ls.neighbor_slot(p.ls.rank);
                    let actual = qrank.gamma_sq[back];
                    assert!(
                        (p.tilde_sq[slot] - actual).abs() <= 1e-12 * actual.max(1.0),
                        "step {step}: rank {} tilde[{q}]={} but q's gamma={}",
                        p.ls.rank,
                        p.tilde_sq[slot],
                        actual
                    );
                }
            }
        }
        assert!(checked > 0, "no quiescent steps to check");
    }

    #[test]
    fn maintained_residuals_exact_at_step_boundaries() {
        // After each full parallel step all solve deltas are applied, so the
        // locally maintained r equals b - Ax globally.
        let (a, b, mut ex) = build_ds(10, 10, 5, DsConfig::default());
        for _ in 0..30 {
            ex.step();
            let locals: Vec<_> = ex.ranks().iter().map(|r| r.ls.clone()).collect();
            let x = gather_x(&locals, a.nrows());
            let r_true = a.residual(&b, &x);
            let r_kept = crate::dist::layout::gather_r(&locals, a.nrows());
            for (k, t) in r_kept.iter().zip(&r_true) {
                assert!((k - t).abs() < 1e-10, "kept {k} vs true {t}");
            }
        }
    }

    #[test]
    fn coalesced_deltas_flush_when_rank_converges() {
        // Regression for the variable-threshold residual leak: deltas
        // parked in `pending_dr` were only reconsidered on the rank's
        // *next relaxation*, so a rank whose residual collapsed (it
        // converged, or incoming deltas solved its subdomain) never won
        // again and left its neighbors' ghost residuals permanently stale.
        // The phase-1 flush re-evaluates parked deltas against the current
        // norm every step, so a converged rank delivers them.
        let cfg = DsConfig {
            solve_msg_threshold: 0.9,
            ..DsConfig::default()
        };
        let (_a, _b, mut ex) = build_ds(12, 12, 4, cfg);
        // Run until some rank has deltas parked by the coalescing rule.
        let mut victim = None;
        for _ in 0..200 {
            ex.step();
            if let Some(p) = ex
                .ranks()
                .iter()
                .position(|r| r.pending_dr.iter().any(|&v| v != 0.0))
            {
                victim = Some(p);
                break;
            }
        }
        let p = victim.expect("θ = 0.9 must park deltas within 200 steps");
        let parked: Vec<f64> = ex.ranks()[p].pending_dr.clone();
        // Simulate the rank converging: its maintained residual hits zero
        // while the parked deltas are still undelivered.
        ex.ranks_mut()[p].ls.r.iter_mut().for_each(|v| *v = 0.0);
        ex.ranks_mut()[p].invalidate_norm_cache();
        let neighbors = ex.ranks()[p].ls.neighbors.clone();
        let ghost_r_before: Vec<Vec<f64>> = neighbors
            .iter()
            .map(|&q| ex.ranks()[q].ls.r.clone())
            .collect();
        let msgs_before = ex.stats.total_msgs_solve();
        // Two steps: phase 1 of the first flushes (visible to neighbors at
        // the next epoch), phase 0 of the second applies the deltas.
        ex.step();
        ex.step();
        assert!(
            ex.ranks()[p].pending_dr.iter().all(|&v| v == 0.0),
            "parked deltas must flush once the rank's norm collapses: {:?}",
            ex.ranks()[p].pending_dr
        );
        assert!(
            ex.stats.total_msgs_solve() > msgs_before,
            "the flush must go out as a Solve message"
        );
        // The neighbors' maintained residuals moved by the delivered
        // deltas (ghost state repaired, not silently discarded).
        let moved = neighbors
            .iter()
            .zip(&ghost_r_before)
            .any(|(&q, before)| ex.ranks()[q].ls.r != *before);
        assert!(moved, "flushed deltas must land in neighbor residuals");
        assert!(
            parked.iter().any(|&v| v != 0.0),
            "sanity: the victim really had parked deltas"
        );
    }

    #[test]
    fn ds_sends_fewer_messages_than_ps() {
        // The headline of Table 2: DS needs far less communication than PS
        // for the same accuracy.
        let a = gen::grid2d_poisson(20, 20);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let x0 = vec![0.0; n];
        let part = partition_strip(n, 10);
        let r0 = a.residual(&b, &x0);
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();

        let target = 0.1 * dsw_sparse::vecops::norm2(&r0);
        let mut ds_ex = Executor::new(
            DistributedSouthwellRank::build(locals.clone(), &norms, &r0),
            CostModel::default(),
            ExecMode::Sequential,
        );
        let mut ds_msgs = None;
        for _ in 0..500 {
            ds_ex.step();
            if global_norm(&ds_ex, &a, &b) <= target {
                ds_msgs = Some(ds_ex.stats.total_msgs());
                break;
            }
        }
        let ps_ranks =
            crate::dist::parallel_southwell::ParallelSouthwellRank::build(locals, &norms);
        let mut ps_ex = Executor::new(ps_ranks, CostModel::default(), ExecMode::Sequential);
        let mut ps_msgs = None;
        for _ in 0..500 {
            ps_ex.step();
            let loc: Vec<_> = ps_ex.ranks().iter().map(|r| r.ls.clone()).collect();
            let x = gather_x(&loc, n);
            if dsw_sparse::vecops::norm2(&a.residual(&b, &x)) <= target {
                ps_msgs = Some(ps_ex.stats.total_msgs());
                break;
            }
        }
        let (ds, ps) = (
            ds_msgs.expect("DS converged"),
            ps_msgs.expect("PS converged"),
        );
        assert!(ds < ps, "DS msgs {ds} should be below PS msgs {ps}");
    }

    #[test]
    fn no_deadlock_avoidance_can_freeze() {
        // Disable Alg. 3 lines 27-30 and reproduce the deadlock under the
        // paper's setup (unit-diagonal scaling, b = 0, random scaled guess).
        let mut a = gen::grid2d_poisson(16, 16);
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        let mut x0 = gen::random_guess(n, 11);
        let s = 1.0 / dsw_sparse::vecops::norm2(&a.residual(&b, &x0));
        x0.iter_mut().for_each(|v| *v *= s);
        let part = crate::dist::freeze_partition();
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
        let r0 = a.residual(&b, &x0);
        let cfg = DsConfig {
            refine_estimates: true,
            deadlock_avoidance: false,
            ..DsConfig::default()
        };
        let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, cfg);
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        let mut frozen = false;
        for _ in 0..500 {
            let s = ex.step();
            if s.relaxations == 0 && s.msgs == 0 && global_norm(&ex, &a, &b) > 1e-6 {
                frozen = true;
                break;
            }
        }
        assert!(
            frozen,
            "expected the no-avoidance variant to freeze before converging"
        );
    }

    #[test]
    fn recovery_standard_is_transparent_on_a_reliable_link() {
        // Full self-healing enabled, but no injected faults: the sequencing
        // layer must judge every message fresh, and the audit's tolerance
        // gate must never fire (the maintained residuals are exact, so the
        // recomputed rows agree to round-off).
        let cfg = DsConfig {
            recovery: RecoveryConfig::standard(),
            ..DsConfig::default()
        };
        let (a, b, mut ex) = build_ds(12, 12, 6, cfg);
        for _ in 0..60 {
            ex.step();
        }
        for r in ex.ranks() {
            assert_eq!(r.drift_repairs, 0, "rank {}", r.ls.rank);
            assert_eq!(r.stale_discards, 0, "rank {}", r.ls.rank);
        }
        assert!(
            ex.stats.total_msgs_recovery() > 0,
            "periodic audits should have been sent"
        );
        // The protocol still works: maintained residuals stay exact.
        let locals: Vec<_> = ex.ranks().iter().map(|r| r.ls.clone()).collect();
        let x = gather_x(&locals, a.nrows());
        let r_true = a.residual(&b, &x);
        let r_kept = crate::dist::layout::gather_r(&locals, a.nrows());
        for (k, t) in r_kept.iter().zip(&r_true) {
            assert!((k - t).abs() < 1e-10, "kept {k} vs true {t}");
        }
        for _ in 0..1500 {
            ex.step();
            if global_norm(&ex, &a, &b) < 1e-8 {
                return;
            }
        }
        panic!("did not converge with recovery on");
    }

    #[test]
    fn link_state_is_allocated_only_for_sequencing_or_the_audit() {
        let with = |recovery| DsConfig {
            recovery,
            ..DsConfig::default()
        };
        let cases = [
            (RecoveryConfig::off(), false),
            (
                RecoveryConfig {
                    watchdog: true,
                    ..RecoveryConfig::off()
                },
                false,
            ),
            (
                RecoveryConfig {
                    sequencing: true,
                    ..RecoveryConfig::off()
                },
                true,
            ),
            (
                RecoveryConfig {
                    audit_every: Some(4),
                    ..RecoveryConfig::off()
                },
                true,
            ),
            (RecoveryConfig::standard(), true),
        ];
        for (recovery, expected) in cases {
            let (_, _, ex) = build_ds(8, 8, 4, with(recovery));
            for r in ex.ranks() {
                assert_eq!(r.link.is_some(), expected, "{recovery:?}");
            }
        }
    }

    #[test]
    fn sequencing_adds_eight_wire_bytes_per_message() {
        let base = DsConfig::default();
        let seq_cfg = DsConfig {
            recovery: RecoveryConfig {
                sequencing: true,
                ..RecoveryConfig::off()
            },
            ..DsConfig::default()
        };
        let (_, _, mut plain) = build_ds(10, 10, 5, base);
        let (_, _, mut seq) = build_ds(10, 10, 5, seq_cfg);
        for _ in 0..10 {
            plain.step();
            seq.step();
        }
        // Sequencing never changes what is sent, only how it is framed.
        assert_eq!(plain.stats.total_msgs(), seq.stats.total_msgs());
        let (pb, sb): (u64, u64) = (
            plain.stats.steps.iter().map(|s| s.bytes).sum(),
            seq.stats.steps.iter().map(|s| s.bytes).sum(),
        );
        assert_eq!(sb, pb + 8 * seq.stats.total_msgs());
    }

    #[test]
    fn ds_converges_on_strong_coupling() {
        let mut a = gen::clique_grid2d(
            12,
            12,
            gen::CliqueOptions {
                coupling: 0.7,
                weight_jump: 0.2,
                seed: 1,
                hot_fraction: 0.0,
                hot_coupling: 0.0,
            },
        );
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        let x0 = gen::random_guess(n, 4);
        let part = partition_strip(n, 8);
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
        let r0 = a.residual(&b, &x0);
        let mut ex = Executor::new(
            DistributedSouthwellRank::build(locals, &norms, &r0),
            CostModel::default(),
            ExecMode::Sequential,
        );
        let start = global_norm(&ex, &a, &b);
        for _ in 0..3000 {
            ex.step();
            if global_norm(&ex, &a, &b) < 0.01 * start {
                return;
            }
        }
        panic!(
            "no convergence on strong coupling; residual {}",
            global_norm(&ex, &a, &b) / start
        );
    }
}
