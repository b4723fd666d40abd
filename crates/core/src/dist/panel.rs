//! Fused multi-RHS panel solves: `k` right-hand sides of one system,
//! relaxed per sweep with one packed message per (edge, phase).
//!
//! A [`PanelRun`] fuses `k` warm-started solves of `A x = b_c` into one
//! executor of [`PanelRank`]s: every rank hosts `k` clones of its solver
//! state — one per column, each sharing the session rank's
//! [`LocalShape`](super::layout::LocalShape) and local-solver setup and
//! owning only per-solve vectors — and the rma-layer adapter packs each
//! phase's per-column puts edge-by-edge, so message counts amortize `k`-fold
//! while every column's floating-point trajectory stays bit-identical to
//! the scalar session path (the `multirhs` proptests pin `k = 1`
//! end-to-end and `k > 1` column-for-column against independent solves).
//!
//! Each column is an ordinary warm-started solve, so the panel steps
//! through the driver's one run loop: the run holds `k` columns, each a
//! `PanelColView` over column `c`'s clones, its own monitor, step
//! records and verdict, and its right-hand side. Per column, the
//! measurement cadence, the exact-norm trigger and the stop rule (with
//! the two-strikes freeze watchdog) are the scalar session's; the view
//! reads the column's own relaxation and message counts for its idle
//! rule, and nudges target that column's clones only.
//!
//! * A column that reaches a verdict **retires**: resident lanes are
//!   flushed, its solution is gathered, its clones are deactivated on
//!   every rank, and later panel messages simply stop carrying (and stop
//!   charging for) its parts. Deactivation mid-flight is safe for the same
//!   reason warm-start reseeding is — under the session preconditions the
//!   only in-flight payloads at a step boundary are norm estimates.
//! * Exact residual verification is *blocked*: when two or more columns
//!   need an exact `‖b_c − A x_c‖₂` at the same boundary (always, in
//!   [`MonitorMode::Exact`](crate::dist::MonitorMode::Exact)), the run
//!   interleaves their iterates and runs one `CsrMatrix::spmv_panel`, so
//!   each column's exact norm is bit-identical to the scalar monitor's
//!   gather + SpMV.
//!
//! What stays here is panel-specific: building the clones, the warm
//! reseed (and its reuse of a cached run), and adoption. When the job
//! finishes, the **last** column's solver state is swapped into the
//! owning session (and re-seeded by the same exact out-of-band norm
//! exchange a changed-`b` warm start performs), so subsequent scalar
//! solves continue from the panel's final solution.

use super::driver::{recovery_counts, superstep_executor, DistReport, NormView, SuperstepRun};
use super::layout::LocalSystem;
use super::session::{reseed_warm, SolveSession, WarmStart};
use super::verdict::nudge_all;
use dsw_rma::{Executor, PanelRank, StepStats, PANEL_MAX_COLS};
use std::time::Instant;

/// The per-column [`NormView`]: reads column `c`'s local systems and
/// maintained norms out of a [`PanelRank`] set, exactly as the scalar
/// session's `DirectView` reads its single solve.
pub(crate) struct PanelColView(pub(crate) usize);

impl<R: WarmStart> NormView<PanelRank<R>> for PanelColView {
    type Block = R;

    fn blocks<'a>(&'a self, ex: &'a Executor<PanelRank<R>>) -> impl Iterator<Item = &'a R> {
        ex.ranks().iter().map(|r| r.col(self.0))
    }

    fn local<'a>(&self, block: &'a R) -> &'a LocalSystem {
        block.local()
    }

    fn recovery(&self, ranks: &[PanelRank<R>]) -> [u64; 2] {
        recovery_counts(ranks.iter().map(|r| r.col(self.0)))
    }

    fn nudge(&self, ranks: &mut [PanelRank<R>]) -> bool {
        nudge_all(ranks.iter_mut().map(|r| r.col_mut(self.0)))
    }

    fn step_counts(&self, ranks: &[PanelRank<R>], _: &StepStats) -> (u64, u64) {
        let c = self.0;
        ranks.iter().fold((0, 0), |(relax, msgs), r| {
            (relax + r.col_relaxations(c), msgs + r.col_msgs(c))
        })
    }

    /// Resident panel lanes scatter back into per-column state.
    fn flush(&self, ranks: &mut [PanelRank<R>]) {
        for r in ranks {
            r.flush_resident();
        }
    }

    fn retire(&self, ranks: &mut [PanelRank<R>]) {
        for r in ranks {
            r.set_active(self.0, false);
        }
    }
}

/// An in-progress fused panel solve over `k` right-hand sides.
///
/// Owned by a [`SolveSession`] between [`begin`](SolveSession::begin)
/// and [`finish`](SolveSession::finish) of a job with two or more
/// right-hand sides; stepped in quanta via [`step`](SolveSession::step)
/// so a serving layer can schedule a whole tenant batch as one
/// fair-share job.
pub struct PanelRun<R: WarmStart> {
    /// The driver's run, one column per right-hand side.
    pub(crate) run: SuperstepRun<PanelRank<R>, PanelColView>,
}

impl<R: WarmStart + Clone> PanelRun<R> {
    /// Builds a fused panel run from `session`'s current rank state: `k`
    /// clones per rank, each column warm-started by the same `Δb` reseed +
    /// exact norm exchange a scalar changed-`b` solve performs.
    ///
    /// Panics unless the options satisfy the warm-start preconditions
    /// (superstep backend, no chaos, no redundancy, unbuffered solve
    /// messages, recovery off) — the check [`TenantSession`] runs, which
    /// also names the executor mode.
    ///
    /// [`TenantSession`]: super::session::TenantSession
    pub(crate) fn new(session: &mut SolveSession<R>, bs: &[Vec<f64>]) -> Self {
        assert!(!bs.is_empty(), "a panel solve needs at least one rhs");
        let opts = session.run.opts;
        let mode = opts.warm_start_mode("a panel solve");
        assert!(
            bs.len() <= PANEL_MAX_COLS,
            "panel width is capped at {PANEL_MAX_COLS} columns (shared-part column masks)"
        );
        let ranks: Vec<PanelRank<R>> = session
            .run
            .ex
            .ranks()
            .iter()
            .map(|r| {
                let mut panel = PanelRank::new(vec![r.clone(); bs.len()]);
                // Algorithm-level fusion, when the rank provides it
                // (bit-identical per column to the per-column path — the
                // `multirhs` proptests pin both paths).
                panel.set_fused(r.panel_kernel());
                panel
            })
            .collect();
        let ex = superstep_executor(ranks, &opts, mode);
        let cols = bs
            .iter()
            .enumerate()
            .map(|(c, b)| (PanelColView(c), b.clone()));
        let mut run = PanelRun {
            run: SuperstepRun::with_columns(session.run.method, ex, cols, opts),
        };
        run.reseed(session, bs);
        run
    }

    /// Re-arms the panel for a fresh batch of `k` right-hand sides,
    /// re-adopting `session`'s current state into every column clone —
    /// the warm path a cached run takes instead of re-cloning every
    /// rank's per-solve state and rebuilding the executor's routing
    /// index. Bit-identical to [`PanelRun::new`] from the same session
    /// state: a clone and a [`WarmStart::copy_state_from`] leave the
    /// column in the same per-solve state (the copy moves only that,
    /// allocating nothing), and the per-column Δb reseed + estimate
    /// exchange below is the constructor's own.
    pub(crate) fn reseed(&mut self, session: &mut SolveSession<R>, bs: &[Vec<f64>]) {
        let run = &mut self.run;
        let k = run.cols.len();
        assert_eq!(bs.len(), k, "panel width mismatch");
        let n = session.a.nrows();
        for b in bs {
            assert_eq!(b.len(), n, "rhs dimension mismatch");
        }
        // In-flight messages describe the previous batch's systems; the
        // exact exchange below supersedes them, exactly as a changed-b
        // warm start's does.
        run.ex.discard_in_flight();
        for (panel, base) in run.ex.ranks_mut().iter_mut().zip(session.run.ex.ranks()) {
            // Every column's state is overwritten below; stale resident
            // lanes from the previous batch must not scatter over it.
            panel.clear_resident();
            for c in 0..k {
                panel.col_mut(c).copy_state_from(base);
                panel.set_active(c, true);
            }
        }

        // Warm-start every column exactly like a changed-b scalar solve:
        // Δb reseed (Δ may be zero) for the exact local norms, then the
        // out-of-band estimate exchange.
        let session_b = &session.run.cols[0].b;
        for (c, (col, b_new)) in run.cols.iter_mut().zip(bs).enumerate() {
            col.b.copy_from_slice(b_new);
            for ((d, &new), &old) in session.delta_b.iter_mut().zip(b_new).zip(session_b) {
                *d = new - old;
            }
            reseed_warm(
                run.ex.ranks_mut(),
                |panel| panel.col_mut(c),
                &session.delta_b,
                &mut session.norms_sq,
            );
        }

        // Every column starts from the session's current solution, so one
        // gather + SpMV prices all k initial exact norms; the per-column
        // sum keeps the scalar monitor's row-order fold bit for bit.
        let t0 = Instant::now();
        run.x_panel.resize(n, 0.0);
        run.ax_panel.resize(n, 0.0);
        let (x0, ax0) = (&mut run.x_panel[..n], &mut run.ax_panel[..n]);
        PanelColView(0).scatter_into(&run.ex, x0);
        session.a.spmv(x0, ax0);
        let init_ns_share = (t0.elapsed().as_nanos() as u64) / k as u64;

        // Each column's log restarts in place; its monitor counters were
        // reported (and zeroed) when the previous batch finished.
        for col in &mut run.cols {
            let t0 = Instant::now();
            let norm_sq: f64 = col
                .b
                .iter()
                .zip(&*ax0)
                .map(|(&b, &ax)| {
                    let d = b - ax;
                    d * d
                })
                .sum();
            col.restart(&run.opts, norm_sq.sqrt(), run.ex.ranks());
            let monitor = &mut col.log.monitor;
            monitor.stats.verifications += 1;
            monitor.stats.verify_ns += init_ns_share + t0.elapsed().as_nanos() as u64;
        }
        run.step = 0;
        // Clean stats epoch: build and reseed work is not a step.
        let _ = run.ex.stats.take_epoch();
    }

    /// Number of columns in the panel.
    pub fn k(&self) -> usize {
        self.run.cols.len()
    }

    /// Closes the panel: one [`DistReport`] per column (records, verdicts,
    /// monitor stats, and recovery deltas are per-column; the run-level
    /// communication stats are the *panel's* — shared across the batch,
    /// which is the whole point), then adopts the **last** column's solver
    /// state into `session` so subsequent scalar solves warm-start from
    /// the panel's final solution.
    pub(crate) fn finish_into(&mut self, session: &mut SolveSession<R>) -> Vec<DistReport> {
        let reports = self.run.finish();
        let last = self.k() - 1;

        // Adoption: swap the last column into the session's ranks and
        // re-seed estimates by the exact exchange (Δb = 0), exactly like a
        // changed-b warm start — the session's previous state is the
        // panel's base, so its in-flight messages are superseded.
        let srun = &mut session.run;
        srun.cols[0].b.copy_from_slice(&self.run.cols[last].b);
        session.delta_b.fill(0.0);
        for (sr, panel) in srun.ex.ranks_mut().iter_mut().zip(self.run.ex.ranks_mut()) {
            std::mem::swap(sr, panel.col_mut(last));
        }
        reseed_warm(
            srun.ex.ranks_mut(),
            |r| r,
            &session.delta_b,
            &mut session.norms_sq,
        );
        srun.ex.discard_in_flight();
        let norm = reports[last].final_residual();
        srun.cols[0].settle(&srun.opts, norm, srun.ex.ranks());
        reports
    }
}
