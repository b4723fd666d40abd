//! Fused multi-RHS panel solves: `k` right-hand sides of one system,
//! relaxed per sweep with one packed message per (edge, phase, class).
//!
//! A [`PanelRun`] fuses `k` warm-started solves of `A x = b_c` into one
//! executor of [`PanelRank`]s: every rank hosts `k` clones of its solver
//! state — one per column — and the rma-layer adapter packs each phase's
//! per-column puts edge-by-edge, so message counts amortize `k`-fold
//! while every column's floating-point trajectory stays bit-identical to
//! the scalar session path (the `multirhs` proptests pin `k = 1`
//! end-to-end and `k > 1` column-for-column against independent solves).
//!
//! Per-column bookkeeping is the scalar session's own:
//!
//! * each column has its own [`MonitorCore`], maintained-norm view
//!   (`PanelColView`), step records, and verdict — the driver's
//!   `SolveLog` and `Verdict`, so the exact-norm trigger and the
//!   convergence / deadlock / divergence rule (with the two-strikes freeze
//!   watchdog) are shared; nudges target one column's clones only;
//! * a column that reaches a verdict **drops out**: its solution is
//!   gathered, its clones are deactivated on every rank, and later panel
//!   messages simply stop carrying (and stop charging for) its parts.
//!   Deactivation mid-flight is safe for the same reason warm-start
//!   reseeding is — under the session preconditions the only in-flight
//!   payloads at a step boundary are norm estimates.
//!
//! Exact residual verification is *blocked*: when two or more columns
//! need an exact `‖b_c − A x_c‖₂` at the same boundary (always, in
//! [`MonitorMode::Exact`](crate::dist::MonitorMode::Exact)), the panel
//! interleaves their iterates row-major and runs one
//! [`CsrMatrix::spmv_panel`] — a single CSR index walk for all columns —
//! then reduces per-column norms with [`norm2_sq_cols`]. Both kernels
//! keep the repo's ordered-accumulation contract, so each column's exact
//! norm is bit-identical to the scalar monitor's gather + SpMV.
//!
//! When the run finishes, the **last** column's solver state is swapped
//! into the owning session (and re-seeded by the same exact out-of-band
//! norm exchange a changed-`b` warm start performs), so subsequent scalar
//! solves continue from the panel's final solution.

use super::driver::{
    recovery_counts, superstep_executor, DistOptions, DistReport, MaintainedNorm, Method,
    MonitorCore, NormView, Reading, SolveLog,
};
use super::layout::LocalSystem;
use super::session::{reseed_warm, SolveSession, WarmStart};
use super::verdict::{nudge_all, Boundary, Transition};
use dsw_rma::{Executor, PanelRank, SharedPool, PANEL_MAX_COLS};
use dsw_sparse::vecops::norm2_sq_cols;
use dsw_sparse::CsrMatrix;
use std::time::Instant;

/// The per-column [`NormView`]: reads column `c`'s local systems and
/// maintained norms out of a [`PanelRank`] set, exactly as the scalar
/// session's `DirectView` reads its single solve.
pub(crate) struct PanelColView(pub(crate) usize);

impl<R: WarmStart> NormView<PanelRank<R>> for PanelColView {
    type Block = R;

    fn blocks<'a>(&'a self, ranks: &'a [PanelRank<R>]) -> impl Iterator<Item = &'a R> {
        ranks.iter().map(|r| r.col(self.0))
    }

    fn local<'a>(&self, block: &'a R) -> &'a LocalSystem {
        block.local()
    }
}

/// Per-column solve progress: the column's log (monitor, records,
/// verdict), plus its solution, gathered at drop-out time while the
/// column's state is still warm.
struct ColState {
    log: SolveLog,
    x: Option<Vec<f64>>,
}

/// An in-progress fused panel solve over `k` right-hand sides.
///
/// Owned by a [`SolveSession`] between
/// [`begin_panel`](SolveSession::begin_panel) and
/// [`finish_panel`](SolveSession::finish_panel); stepped in quanta via
/// [`step_panel`](SolveSession::step_panel) so a serving layer can
/// schedule a whole tenant batch as one fair-share job.
pub struct PanelRun<R: WarmStart> {
    pub(crate) ex: Executor<PanelRank<R>>,
    cols: Vec<ColState>,
    bs: Vec<Vec<f64>>,
    step: usize,
    method: Method,
    opts: DistOptions,
    n: usize,
    // Per-step scratch (k-sized; no steady-state allocation).
    relax_sum: Vec<u64>,
    msgs_sum: Vec<u64>,
    need_exact: Vec<usize>,
    maintained: Vec<Option<MaintainedNorm>>,
    col_norms: Vec<f64>,
    // Blocked-verification scratch (n·|need_exact|, grown on demand).
    x_panel: Vec<f64>,
    ax_panel: Vec<f64>,
    sq_scratch: Vec<f64>,
    /// Identity of the shared pool the executor was built on (`None` =
    /// private executor), so a cached run is only reused against the
    /// same pool.
    pool_id: Option<usize>,
}

impl<R: WarmStart> PanelRun<R> {
    /// Builds a fused panel run from a session's current rank state: `k`
    /// clones per rank, each column warm-started by the same `Δb` reseed +
    /// exact norm exchange a scalar changed-`b` solve performs.
    ///
    /// Panics unless the options satisfy the warm-start preconditions
    /// (superstep backend, no chaos, no redundancy, unbuffered solve
    /// messages, recovery off) — the check [`TenantSession`] runs,
    /// repeated here because direct [`SolveSession`] construction
    /// bypasses it.
    ///
    /// [`TenantSession`]: super::session::TenantSession
    pub(crate) fn new(
        method: Method,
        a: &CsrMatrix,
        session_b: &[f64],
        base_ranks: &[R],
        bs: &[Vec<f64>],
        opts: DistOptions,
        pool: Option<&SharedPool>,
    ) -> Self
    where
        R: Clone,
    {
        assert!(!bs.is_empty(), "a panel solve needs at least one rhs");
        let mode = opts.warm_start_mode("a panel solve");

        let k = bs.len();
        assert!(
            k <= PANEL_MAX_COLS,
            "panel width is capped at {PANEL_MAX_COLS} columns (shared-part column masks)"
        );
        let nranks = base_ranks.len();
        let ranks: Vec<PanelRank<R>> = base_ranks
            .iter()
            .map(|r| {
                let mut panel = PanelRank::new(vec![r.clone(); k], nranks);
                // Algorithm-level fusion, when the rank type provides it
                // (bit-identical per column to the fallback loop — the
                // `multirhs` proptests pin both paths).
                panel.set_fused(R::panel_fused());
                panel.set_flush(R::panel_flush());
                panel
            })
            .collect();
        let ex = superstep_executor(ranks, &opts, mode, pool);
        let mut run = PanelRun {
            ex,
            cols: Vec::with_capacity(k),
            bs: Vec::new(),
            step: 0,
            method,
            opts,
            n: a.nrows(),
            relax_sum: vec![0; k],
            msgs_sum: vec![0; k],
            need_exact: Vec::with_capacity(k),
            maintained: vec![None; k],
            col_norms: vec![0.0; k],
            x_panel: Vec::new(),
            ax_panel: Vec::new(),
            sq_scratch: Vec::new(),
            pool_id: pool.map(SharedPool::id),
        };
        run.reseed(a, session_b, base_ranks, bs);
        run
    }

    /// Re-arms the panel for a fresh batch of `k` right-hand sides,
    /// re-adopting `base_ranks`' current state into every column clone —
    /// the warm path a cached run takes instead of re-cloning every
    /// rank's matrix and topology and rebuilding the executor's routing
    /// index. Bit-identical to [`PanelRun::new`] from the same session
    /// state: a clone and a [`WarmStart::copy_state_from`] leave the
    /// column in the same state, and the per-column Δb reseed + estimate
    /// exchange below is the constructor's own.
    pub(crate) fn reseed(
        &mut self,
        a: &CsrMatrix,
        session_b: &[f64],
        base_ranks: &[R],
        bs: &[Vec<f64>],
    ) where
        R: Clone,
    {
        let n = self.n;
        let k = self.k();
        let nranks = base_ranks.len();
        assert_eq!(bs.len(), k, "panel width mismatch");
        for b in bs {
            assert_eq!(b.len(), n, "rhs dimension mismatch");
        }
        self.bs = bs.to_vec();
        self.step = 0;
        // In-flight messages describe the previous batch's systems; the
        // exact exchange below supersedes them, exactly as a changed-b
        // warm start's does.
        self.ex.discard_in_flight();
        for (p, base) in base_ranks.iter().enumerate() {
            let panel = &mut self.ex.ranks_mut()[p];
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
        let mut delta = vec![0.0; n];
        let mut norms = vec![0.0; nranks];
        for (c, b_new) in bs.iter().enumerate() {
            for ((d, &new), &old) in delta.iter_mut().zip(b_new).zip(session_b) {
                *d = new - old;
            }
            reseed_warm(
                self.ex.ranks_mut(),
                |panel| panel.col_mut(c),
                &delta,
                &mut norms,
            );
        }

        // Every column starts from the session's current solution, so one
        // gather + SpMV prices all k initial exact norms; the per-column
        // sum keeps the scalar monitor's row-order fold bit for bit.
        let t0 = Instant::now();
        let mut x0 = vec![0.0; n];
        PanelColView(0).scatter_into(self.ex.ranks(), &mut x0);
        let mut ax0 = vec![0.0; n];
        a.spmv(&x0, &mut ax0);
        let init_ns_share = (t0.elapsed().as_nanos() as u64) / k as u64;

        self.cols.clear();
        for (c, b) in bs.iter().enumerate() {
            let t0 = Instant::now();
            let norm_sq: f64 = b
                .iter()
                .zip(&ax0)
                .map(|(&b, &ax)| {
                    let d = b - ax;
                    d * d
                })
                .sum();
            let initial = norm_sq.sqrt();
            let mut monitor = MonitorCore::new(n);
            monitor.stats.verifications += 1;
            monitor.stats.verify_ns += init_ns_share + t0.elapsed().as_nanos() as u64;
            let base = recovery_counts(self.ex.ranks().iter().map(|r| r.col(c)));
            self.cols.push(ColState {
                log: SolveLog::new(monitor, &self.opts, initial, base),
                x: None,
            });
        }
        // Clean stats epoch: build and reseed work is not a step.
        let _ = self.ex.stats.take_epoch();
    }

    /// Number of columns in the panel.
    pub fn k(&self) -> usize {
        self.ex.ranks()[0].k()
    }

    /// Identity of the shared pool the panel executor runs on (`None`
    /// for a private executor) — the cache-reuse compatibility key.
    pub(crate) fn pool_id(&self) -> Option<usize> {
        self.pool_id
    }

    /// Whether every column has reached a verdict.
    pub fn all_done(&self) -> bool {
        self.cols.iter().all(|c| c.log.verdict.is_done())
    }

    /// One blocked exact verification over every column in `need_exact`:
    /// interleave the iterates row-major, one `spmv_panel`, per-column
    /// ordered norm reduction. Bit-identical per column to the scalar
    /// monitor's `exact_view`.
    fn blocked_exact(&mut self, a: &CsrMatrix) {
        let t0 = Instant::now();
        let kk = self.need_exact.len();
        let n = self.n;
        self.x_panel.resize(n * kk, 0.0);
        self.ax_panel.resize(n * kk, 0.0);
        for r in self.ex.ranks() {
            for (j, &c) in self.need_exact.iter().enumerate() {
                let ls = r.col(c).local();
                for (li, &g) in ls.rows.iter().enumerate() {
                    self.x_panel[g * kk + j] = ls.x[li];
                }
            }
        }
        a.spmv_panel(&self.x_panel[..n * kk], kk, &mut self.ax_panel[..n * kk]);
        for (i, row) in self.ax_panel[..n * kk].chunks_exact_mut(kk).enumerate() {
            for (j, &c) in self.need_exact.iter().enumerate() {
                row[j] = self.bs[c][i] - row[j];
            }
        }
        self.sq_scratch.resize(kk, 0.0);
        norm2_sq_cols(&self.ax_panel[..n * kk], kk, &mut self.sq_scratch[..kk]);
        // The walk is shared; charge each column an equal share of it.
        let ns_share = t0.elapsed().as_nanos() as u64 / kk as u64;
        for (j, &c) in self.need_exact.iter().enumerate() {
            let monitor = &mut self.cols[c].log.monitor;
            monitor.stats.verifications += 1;
            monitor.stats.verify_ns += ns_share;
            self.col_norms[c] = monitor.confirm(self.sq_scratch[j].sqrt(), self.maintained[c]);
        }
    }

    /// Scatters every rank's resident panel lanes back into per-column
    /// state, so out-of-band readers (exact verification, solution
    /// gathers) see current vectors. No-op when nothing is resident.
    fn flush_resident_lanes(&mut self) {
        for r in self.ex.ranks_mut() {
            r.flush_resident();
        }
    }

    /// A column reached a verdict or the step budget: gather its solution
    /// while the state is warm, then deactivate its clones so it drops out
    /// of every subsequent sweep and packed message.
    fn finish_col(&mut self, c: usize) {
        self.flush_resident_lanes();
        let col = &mut self.cols[c];
        col.log.verdict.stop();
        col.x = Some(
            col.log
                .monitor
                .gather_view(self.ex.ranks(), &PanelColView(c)),
        );
        for r in self.ex.ranks_mut() {
            r.set_active(c, false);
        }
    }

    /// Column `c`'s view of the current step's boundary.
    fn col_boundary(&self, c: usize, step: usize) -> Boundary {
        Boundary {
            index: step,
            relaxations: self.relax_sum[c],
            idle: self.relax_sum[c] == 0 && self.msgs_sum[c] == 0,
            last: step == self.opts.max_steps,
        }
    }

    /// Advances up to `quantum` fused supersteps; returns `true` once
    /// every column has reached a verdict. Per column, the measurement
    /// cadence and the stop rule are [`SolveSession::step_batch`]'s.
    pub(crate) fn step_batch(&mut self, a: &CsrMatrix, quantum: usize) -> bool {
        let k = self.bs.len();
        let nranks = self.ex.nranks();
        let mut left = quantum;
        while !self.all_done() && left > 0 && self.step < self.opts.max_steps {
            left -= 1;
            self.step += 1;
            let step = self.step;
            for r in self.ex.ranks_mut() {
                r.begin_step();
            }
            let s = self.ex.step();

            self.relax_sum.fill(0);
            self.msgs_sum.fill(0);
            for r in self.ex.ranks() {
                for c in 0..k {
                    self.relax_sum[c] += r.col_relaxations(c);
                    self.msgs_sum[c] += r.col_msgs(c);
                }
            }

            // Stage 1: per-column maintained norms and exact triggers, with
            // the exact recomputes deferred so they can be blocked.
            self.need_exact.clear();
            self.maintained.fill(None);
            for c in 0..k {
                if self.cols[c].log.verdict.is_done() {
                    continue;
                }
                let at = self.col_boundary(c, step);
                let log = &mut self.cols[c].log;
                match log
                    .monitor
                    .read(self.ex.ranks(), &PanelColView(c), &log.verdict, at)
                {
                    Reading::Maintained(norm) => self.col_norms[c] = norm,
                    Reading::Exact(m) => {
                        self.maintained[c] = m;
                        self.need_exact.push(c);
                    }
                }
            }

            // Stage 2: exact recomputes — blocked when 2+ columns need
            // one, the scalar monitor path when exactly one does. Both
            // read iterates out-of-band, so resident lanes scatter back
            // first.
            if !self.need_exact.is_empty() {
                self.flush_resident_lanes();
            }
            if self.need_exact.len() >= 2 {
                self.blocked_exact(a);
            } else if let Some(&c) = self.need_exact.first() {
                let monitor = &mut self.cols[c].log.monitor;
                let e = monitor.exact_view(a, &self.bs[c], self.ex.ranks(), &PanelColView(c));
                self.col_norms[c] = monitor.confirm(e, self.maintained[c]);
            }

            // Stage 3: per-column records and verdicts.
            for c in 0..k {
                if self.cols[c].log.verdict.is_done() {
                    continue;
                }
                let at = self.col_boundary(c, step);
                let reading = (self.col_norms[c], self.need_exact.contains(&c));
                let ranks = self.ex.ranks_mut();
                let nudge = || nudge_all(ranks.iter_mut().map(|r| r.col_mut(c)));
                if let Transition::Done(_) = self.cols[c].log.push(at, reading, &s, nranks, nudge) {
                    self.finish_col(c);
                }
            }
        }
        if self.step >= self.opts.max_steps {
            for c in 0..k {
                if !self.cols[c].log.verdict.is_done() {
                    self.finish_col(c);
                }
            }
        }
        self.all_done()
    }

    /// Closes the panel: one [`DistReport`] per column (records, verdicts,
    /// monitor stats, and recovery deltas are per-column; the run-level
    /// communication stats are the *panel's* — shared across the batch,
    /// which is the whole point), then adopts the **last** column's solver
    /// state into `session` so subsequent scalar solves warm-start from
    /// the panel's final solution.
    pub(crate) fn finish_into(&mut self, session: &mut SolveSession<R>) -> Vec<DistReport> {
        let k = self.bs.len();
        let nranks = self.ex.nranks();
        for c in 0..k {
            if !self.cols[c].log.verdict.is_done() {
                self.finish_col(c);
            }
        }
        let panel_stats = self.ex.stats.take_epoch();
        let mut reports = Vec::with_capacity(k);
        for c in 0..k {
            let now = recovery_counts(self.ex.ranks().iter().map(|r| r.col(c)));
            let col = &mut self.cols[c];
            let x = col.x.take().expect("finished column has a gathered x");
            reports.push(
                col.log
                    .report(self.method, nranks, panel_stats.clone(), now, x),
            );
        }

        // Adoption: swap the last column into the session's ranks and
        // re-seed estimates by the exact exchange (Δb = 0), exactly like a
        // changed-b warm start — the session's previous state is the
        // panel's base, so its in-flight messages are superseded.
        session.b.copy_from_slice(&self.bs[k - 1]);
        session.delta_b.fill(0.0);
        for (p, sr) in session.run.ex.ranks_mut().iter_mut().enumerate() {
            std::mem::swap(sr, self.ex.ranks_mut()[p].col_mut(k - 1));
        }
        reseed_warm(
            session.run.ex.ranks_mut(),
            |r| r,
            &session.delta_b,
            &mut session.norms_sq,
        );
        session.run.ex.discard_in_flight();
        session.run.settle(reports[k - 1].final_residual());
        reports
    }
}
