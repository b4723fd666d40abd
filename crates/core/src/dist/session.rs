//! Persistent solve sessions: distributed state that survives across
//! solves.
//!
//! The paper measures one solve; the ROADMAP's north star is heavy
//! traffic — many repeated solves of the same system with an evolving
//! right-hand side (Hong's D-iteration framing: the diffusion *continues
//! from current state* when `b` changes). A [`SolveSession`] keeps
//! everything that is expensive to set up — the partition-routed
//! [`LocalSystem`]s, the per-rank algorithm state, the executor's routing
//! index, the monitor scratch — alive across solves, so a repeated solve
//! warm-starts from the previous solution and only re-seeds residuals.
//! No re-partition, no re-route, zero steady-state allocation.
//!
//! # Warm-start semantics
//!
//! Re-solving with an **unchanged** `b` touches nothing: the session
//! simply continues stepping the existing rank states, so the resulting
//! iterates are bit-identical to having let the original run continue
//! (the `warm_start` proptests pin this).
//!
//! Re-solving with a **changed** `b` exploits `r = b − Ax`: a change in
//! `b` shifts the residual by exactly `Δb`, purely locally — `x` and
//! `Ax` are untouched. Each rank applies its owned slice of `Δb` to `b`
//! and `r` ([`WarmStart::reseed_rhs`]), recomputes its exact norm, and
//! mirrors the boundary-row deltas into the DS ghost layer `z`. Then the
//! cross-rank estimate state (PS/DS `Γ`, DS `Γ̃`) is re-seeded from the
//! exact post-reseed norms ([`WarmStart::reseed_estimates`]) — the same
//! out-of-band exchange the cold build performs — and the executor's
//! in-flight queues are discarded. Discarding is safe *only* at a step
//! boundary with `solve_msg_threshold == 0`, no chaos, and recovery off:
//! there, every residual delta sent in phase 0 was applied in phase 1 of
//! the same step, so in-flight messages carry norm estimates only — and
//! those are superseded by the exact exchange. [`TenantSession::build`]
//! and the fused panel assert exactly these preconditions (one
//! `DistOptions` check).
//!
//! # Quantum stepping
//!
//! [`SolveSession::step_batch`] advances a bounded number of supersteps
//! and returns whether the solve reached a verdict, so a serving layer
//! can interleave many sessions on one shared [`SharedPool`] with
//! per-tenant quanta (see the `dsw-serve` crate). A session holds the
//! driver's own superstep run and steps it — the loop
//! [`run_method`](super::run_method) runs, with the same measurement
//! cadence and verdict rule — so a cold session solve and a `run_method`
//! solve of the same problem produce identical reports
//! (`tests/driver_equivalence.rs`).

use super::block_jacobi::BlockJacobiRank;
use super::distributed_southwell::DistributedSouthwellRank;
use super::driver::{
    superstep_executor, with_ranks, DirectView, DistOptions, DistReport, Method, SuperstepRun,
};
use super::layout::{distribute, LocalSystem};
use super::panel::PanelRun;
use super::parallel_southwell::ParallelSouthwellRank;
use super::recovery::Recoverable;
use dsw_partition::Partition;
use dsw_rma::{Executor, RankAlgorithm, SharedPool};
use dsw_sparse::CsrMatrix;

/// A rank algorithm whose state can be warm-started in place when the
/// right-hand side changes between solves.
///
/// Implementations live next to each solver (private-field access); the
/// contract is shared: [`reseed_rhs`](WarmStart::reseed_rhs) applies the
/// owned slice of `Δb` to `b` and `r` and returns the recomputed exact
/// `‖r_p‖²`, and [`reseed_estimates`](WarmStart::reseed_estimates)
/// re-seeds all cross-rank estimate state from the exact per-rank norms,
/// exactly as the cold build's setup exchange does.
pub trait WarmStart: RankAlgorithm + Recoverable {
    /// The rank's local piece of the system (the driver's gather view).
    fn local(&self) -> &LocalSystem;

    /// Applies the global `Δb` to the owned rows' `b` and `r` (and any
    /// mirrored ghost residuals) and returns the exact recomputed
    /// `‖r_p‖²`.
    fn reseed_rhs(&mut self, delta_b: &[f64]) -> f64;

    /// Re-seeds cross-rank estimate state (`Γ`, `Γ̃`, last-sent norms)
    /// from the exact per-rank `‖r_q‖²` vector, indexed by rank.
    fn reseed_estimates(&mut self, norms_sq: &[f64]);

    /// Algorithm-level fused panel phase for multi-RHS solves, if the
    /// rank type provides one. The panel adapter then relaxes all
    /// columns in a single pass per phase (amortizing the sparse index
    /// walk and skipping per-column envelope reconstruction) instead of
    /// looping its per-column fallback. Implementations must be
    /// bit-identical per column to the fallback — see
    /// [`dsw_rma::panel::FusedPhaseFn`] for the contract.
    fn panel_fused() -> Option<dsw_rma::FusedPhaseFn<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// Scatter-back hook for a fused panel phase that keeps column lanes
    /// resident in the panel scratch across steps (see
    /// [`dsw_rma::FlushFn`]). Must be provided whenever
    /// [`panel_fused`](WarmStart::panel_fused) installs a phase that
    /// records residency; the panel driver calls it before any
    /// out-of-band read of per-column solve vectors.
    fn panel_flush() -> Option<dsw_rma::FlushFn<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// Overwrites this rank's solver state with `other`'s. `other` is a
    /// clone-sibling: same rank id, matrix, topology, and local solver —
    /// only the per-solve vectors (`b`, `x`, `r`, norms, estimate state)
    /// may differ. A cached panel column uses this to re-adopt the
    /// session's current state without re-cloning the shared immutable
    /// structure. The default full clone is always correct; overrides
    /// must leave `self` equal to `other` in every field a subsequent
    /// solve can observe.
    fn copy_state_from(&mut self, other: &Self)
    where
        Self: Clone + Sized,
    {
        self.clone_from(other);
    }
}

/// The changed-`b` warm-start reseed over one executor's ranks: shifts
/// each rank's `b` and `r` by `delta_b`, writes the recomputed exact
/// `‖r_p‖²` into `norms_sq`, and re-seeds every rank's estimates from
/// them. `rank` picks the warm-started solver inside an executor rank:
/// the rank itself for a session, one column for a panel. The caller
/// discards the in-flight messages this exact exchange supersedes.
pub(crate) fn reseed_warm<P, R: WarmStart>(
    ranks: &mut [P],
    rank: impl Fn(&mut P) -> &mut R,
    delta_b: &[f64],
    norms_sq: &mut [f64],
) {
    for (p, r) in ranks.iter_mut().enumerate() {
        norms_sq[p] = rank(r).reseed_rhs(delta_b);
    }
    for r in ranks {
        rank(r).reseed_estimates(norms_sq);
    }
}

/// The monitor's view of a session's ranks.
type LocalView<R> = DirectView<fn(&R) -> &LocalSystem>;

/// A persistent solver instance: distributed state that survives across
/// solves with evolving right-hand sides.
///
/// Constructed through [`TenantSession::build`] (which picks the rank
/// type for the method and enforces the warm-start preconditions), or
/// directly from pre-built ranks for tests.
pub struct SolveSession<R: WarmStart> {
    a: CsrMatrix,
    pub(crate) b: Vec<f64>,
    /// The driver's superstep run: executor, monitor, records, verdict.
    pub(crate) run: SuperstepRun<R, LocalView<R>>,
    /// `Δb` scratch (global indexing), reused across reseeds.
    pub(crate) delta_b: Vec<f64>,
    /// Exact per-rank `‖r_p‖²` scratch, reused across reseeds.
    pub(crate) norms_sq: Vec<f64>,
    /// The in-progress fused multi-RHS solve, if one is active
    /// ([`SolveSession::begin_panel`]).
    panel: Option<PanelRun<R>>,
    /// The most recently finished panel run, kept warm so the next
    /// same-shape [`begin_panel`](SolveSession::begin_panel) reseeds it
    /// instead of re-cloning every rank and rebuilding the executor.
    panel_cache: Option<PanelRun<R>>,
}

impl<R: WarmStart> SolveSession<R> {
    /// Wraps a built executor into a session ready to solve `b`.
    pub fn new(
        method: Method,
        a: CsrMatrix,
        b: Vec<f64>,
        ex: Executor<R>,
        opts: DistOptions,
    ) -> Self {
        let n = a.nrows();
        let nranks = ex.nranks();
        let view = DirectView(R::local as fn(&R) -> &LocalSystem);
        let mut run = SuperstepRun::new(method, ex, view, &a, &b, opts);
        // Harvest setup-time accounting so the first solve's stats start
        // from a clean epoch (the distribute/build work is not a step).
        let _ = run.ex.stats.take_epoch();
        SolveSession {
            a,
            b,
            run,
            delta_b: vec![0.0; n],
            norms_sq: vec![0.0; nranks],
            panel: None,
            panel_cache: None,
        }
    }

    /// Read access to the per-rank state (tests audit warm-start
    /// invariants through this).
    pub fn ranks(&self) -> &[R] {
        self.run.ex.ranks()
    }

    /// Mutable access to the per-rank state (test harnesses only;
    /// out-of-band mutation of a rank's residual requires the rank's own
    /// cache invalidation hooks).
    pub fn ranks_mut(&mut self) -> &mut [R] {
        self.run.ex.ranks_mut()
    }

    /// Whether the current solve has reached a verdict.
    pub fn is_done(&self) -> bool {
        self.run.is_done()
    }

    /// Begins a solve of `A x = b_new`, warm-starting from the current
    /// `x`.
    ///
    /// If `b_new` is bitwise identical to the session's current `b`, the
    /// rank states are left completely untouched — the solve is a pure
    /// continuation of the previous one. Otherwise the residuals are
    /// re-seeded by the `Δb` shift, the cross-rank estimates by an exact
    /// out-of-band norm exchange, and stale in-flight norm messages are
    /// discarded.
    pub fn begin_solve(&mut self, b_new: &[f64]) {
        assert!(
            self.panel.is_none(),
            "finish the active panel solve before beginning a scalar solve"
        );
        assert_eq!(b_new.len(), self.a.nrows(), "rhs dimension mismatch");
        let changed = self.b != b_new;
        if changed {
            for ((d, &new), old) in self.delta_b.iter_mut().zip(b_new).zip(&mut self.b) {
                *d = new - *old;
                *old = new;
            }
            reseed_warm(
                self.run.ex.ranks_mut(),
                |r| r,
                &self.delta_b,
                &mut self.norms_sq,
            );
            // Only norm-estimate messages can be in flight at a step
            // boundary under the session preconditions; the exact
            // exchange above supersedes them.
            self.run.ex.discard_in_flight();
        }
        // Even a below-target initial state steps at least once — the
        // driver's loop only checks verdicts at step boundaries.
        self.run.begin(&self.a, &self.b);
    }

    /// Advances up to `quantum` supersteps of the current solve; returns
    /// `true` once the solve has reached a verdict (converged, deadlocked,
    /// diverged, or out of steps).
    pub fn step_batch(&mut self, quantum: usize) -> bool {
        self.run.step_batch(&self.a, &self.b, quantum)
    }

    /// Closes the current solve and returns its report. Stats cover this
    /// solve only: the executor's accumulators are harvested as an epoch
    /// ([`dsw_rma::RunStats::take_epoch`]), so back-to-back solves on one
    /// session never bleed into each other.
    ///
    /// The session is left finished at its final state: a second
    /// `finish` (or one after [`finish_panel`](SolveSession::finish_panel))
    /// reports an empty solve — the step-0 record at the current norm, no
    /// steps, no verdict — instead of a report without records.
    pub fn finish(&mut self) -> DistReport {
        self.run.finish()
    }

    /// One full solve: begin, run to a verdict, report.
    pub fn solve(&mut self, b: &[f64]) -> DistReport {
        self.begin_solve(b);
        while !self.step_batch(self.run.opts.max_steps) {}
        self.finish()
    }

    /// Batched right-hand sides, solved sequentially: each solve
    /// warm-starts from its predecessor's solution. The fused alternative
    /// is [`SolveSession::solve_panel`].
    pub fn solve_many(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// Begins a fused panel solve of `A x_c = bs[c]` for every column at
    /// once, each warm-started from the session's current solution (see
    /// [`PanelRun`]). With `pool`, the panel executor runs on the shared
    /// worker pool. The session's scalar state is untouched until
    /// [`finish_panel`](SolveSession::finish_panel) adopts the last
    /// column.
    pub fn begin_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>)
    where
        R: Clone,
    {
        assert!(self.panel.is_none(), "a panel solve is already active");
        if let Some(mut run) = self.panel_cache.take() {
            // A cached run owns warm column clones, a built routing
            // index, and grown buffers; when the batch shape and pool
            // match, re-adopting the session state and reseeding is
            // bit-identical to a fresh build at a fraction of the cost.
            if run.k() == bs.len() && run.pool_id() == pool.map(SharedPool::id) {
                run.reseed(&self.a, &self.b, self.run.ex.ranks(), bs);
                self.panel = Some(run);
                return;
            }
        }
        self.panel = Some(PanelRun::new(
            self.run.method,
            &self.a,
            &self.b,
            self.run.ex.ranks(),
            bs,
            self.run.opts,
            pool,
        ));
    }

    /// Whether a panel solve is currently active.
    pub fn panel_active(&self) -> bool {
        self.panel.is_some()
    }

    /// Advances up to `quantum` fused supersteps of the active panel;
    /// returns `true` once every column has reached a verdict.
    pub fn step_panel(&mut self, quantum: usize) -> bool {
        let run = self.panel.as_mut().expect("no active panel solve");
        run.step_batch(&self.a, quantum)
    }

    /// Closes the active panel solve: one report per column, in `bs`
    /// order, and the last column's state adopted as the session's —
    /// subsequent scalar solves warm-start from it.
    pub fn finish_panel(&mut self) -> Vec<DistReport> {
        let mut run = self.panel.take().expect("no active panel solve");
        let reports = run.finish_into(self);
        self.panel_cache = Some(run);
        reports
    }

    /// One full fused panel solve: begin, run to verdicts, report.
    pub fn solve_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>) -> Vec<DistReport>
    where
        R: Clone,
    {
        self.begin_panel(bs, pool);
        while !self.step_panel(self.run.opts.max_steps) {}
        self.finish_panel()
    }
}

/// Forwards a call to the session a [`TenantSession`] holds.
macro_rules! each {
    ($self:ident, $s:ident => $call:expr) => {
        match $self {
            TenantSession::Bj($s) => $call,
            TenantSession::Ps($s) => $call,
            TenantSession::Ds($s) => $call,
        }
    };
}

/// A method-erased [`SolveSession`] — what a serving layer holds per
/// tenant.
pub enum TenantSession {
    /// Algorithm 1.
    Bj(SolveSession<BlockJacobiRank>),
    /// Algorithm 2 (with or without explicit updates).
    Ps(SolveSession<ParallelSouthwellRank>),
    /// Algorithm 3.
    Ds(SolveSession<DistributedSouthwellRank>),
}

impl TenantSession {
    /// Distributes the system, builds the per-rank state for `method`,
    /// and wraps it in a session — the cold-start path, paid once per
    /// tenant. With `pool`, the executor runs its phases on the shared
    /// worker pool instead of spawning its own.
    ///
    /// Panics unless the options satisfy the warm-start preconditions:
    /// superstep backend, no chaos, no redundancy, no message coalescing
    /// (`solve_msg_threshold == 0`), recovery off.
    pub fn build(
        method: Method,
        a: CsrMatrix,
        b: &[f64],
        x0: &[f64],
        partition: &Partition,
        opts: &DistOptions,
        pool: Option<&SharedPool>,
    ) -> TenantSession {
        let mode = opts.warm_start_mode("TenantSession");
        let locals = distribute(&a, b, x0, partition).expect("valid distribution");
        with_ranks!(method, opts.ds_config, a.nrows(), |build, wrap| {
            let ex = superstep_executor(build(locals), opts, mode, pool);
            wrap(SolveSession::new(method, a, b.to_vec(), ex, *opts))
        })
    }

    /// See [`SolveSession::begin_solve`].
    pub fn begin_solve(&mut self, b: &[f64]) {
        each!(self, s => s.begin_solve(b))
    }

    /// See [`SolveSession::step_batch`].
    pub fn step_batch(&mut self, quantum: usize) -> bool {
        each!(self, s => s.step_batch(quantum))
    }

    /// See [`SolveSession::is_done`].
    pub fn is_done(&self) -> bool {
        each!(self, s => s.is_done())
    }

    /// See [`SolveSession::finish`].
    pub fn finish(&mut self) -> DistReport {
        each!(self, s => s.finish())
    }

    /// See [`SolveSession::solve`].
    pub fn solve(&mut self, b: &[f64]) -> DistReport {
        each!(self, s => s.solve(b))
    }

    /// See [`SolveSession::solve_many`].
    pub fn solve_many(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        each!(self, s => s.solve_many(bs))
    }

    /// See [`SolveSession::begin_panel`].
    pub fn begin_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>) {
        each!(self, s => s.begin_panel(bs, pool))
    }

    /// See [`SolveSession::panel_active`].
    pub fn panel_active(&self) -> bool {
        each!(self, s => s.panel_active())
    }

    /// See [`SolveSession::step_panel`].
    pub fn step_panel(&mut self, quantum: usize) -> bool {
        each!(self, s => s.step_panel(quantum))
    }

    /// See [`SolveSession::finish_panel`].
    pub fn finish_panel(&mut self) -> Vec<DistReport> {
        each!(self, s => s.finish_panel())
    }

    /// See [`SolveSession::solve_panel`].
    pub fn solve_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>) -> Vec<DistReport> {
        each!(self, s => s.solve_panel(bs, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen;

    /// Regression: `finish` used to move the records out, so a second
    /// `finish`, or one after `finish_panel`, returned a report without
    /// records and `final_residual` / `comm_cost` panicked. The session is
    /// now left settled at its final state: finishing again reports an
    /// empty solve that still holds its step-0 record.
    #[test]
    fn finishing_again_reports_an_empty_solve() {
        let mut a = gen::grid2d_poisson(8, 8);
        a.scale_unit_diagonal().expect("nonzero diagonal");
        let n = a.nrows();
        let part = Partition::new(4, (0..n).map(|i| i * 4 / n).collect());
        let b = vec![0.5; n];
        let opts = DistOptions {
            target_residual: Some(1e-3),
            max_steps: 200,
            ..DistOptions::default()
        };
        for method in [Method::BlockJacobi, Method::DistributedSouthwell] {
            let mut s =
                TenantSession::build(method, a.clone(), &b, &vec![0.0; n], &part, &opts, None);
            let first = s.solve(&b);
            assert!(first.converged_at.is_some());
            let again = s.finish();
            assert_eq!(again.records.len(), 1, "{method:?}");
            assert_eq!(again.final_residual(), first.final_residual());
            assert_eq!(again.comm_cost(), 0.0);
            assert_eq!(again.x, first.x);
            assert!(again.converged_at.is_none() && !again.deadlocked && !again.diverged);
            assert!(s.is_done() && again.stats.steps.is_empty());

            let bs = vec![vec![0.25; n], vec![0.75; n]];
            let cols = s.solve_panel(&bs, None);
            let adopted = s.finish();
            assert_eq!(adopted.records.len(), 1, "{method:?}");
            assert_eq!(adopted.final_residual(), cols[1].final_residual());
            assert_eq!(adopted.x, cols[1].x);
            assert_eq!(adopted.comm_cost(), 0.0);
        }
    }
}
