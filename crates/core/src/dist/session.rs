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
//! A job has one lifecycle whatever its width:
//! [`begin`](SolveSession::begin) takes the job's right-hand sides,
//! [`step`](SolveSession::step) advances a bounded number of supersteps
//! and returns whether every right-hand side reached a verdict, and
//! [`finish`](SolveSession::finish) returns one report per right-hand
//! side. A serving layer interleaves many sessions this way with
//! per-tenant quanta (see the `dsw-serve` crate, which hands each worker
//! of its pool whole tenants to step, never single ranks). Every job
//! steps through the driver's one run loop — the loop
//! [`run_method`](super::run_method) runs, with the same measurement
//! cadence and verdict rule. A one-rhs job steps the session's own
//! one-column run, so a cold session solve and a `run_method` solve of
//! the same problem produce identical reports
//! (`tests/driver_equivalence.rs`); a job of `k ≥ 2` right-hand sides
//! steps a fused [`PanelRun`], a run of `k` columns over panel ranks.
//! Finishing a job before its verdicts reports each right-hand side as
//! far as it got, exactly as an independent scalar job stepped as far.

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
use dsw_rma::{Executor, RankAlgorithm};
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

    /// The algorithm-level fused panel kernel for multi-RHS solves of
    /// this rank, if it has one: a phase that relaxes all columns in a
    /// single pass (amortizing the sparse index walk and skipping
    /// per-column envelope reconstruction), and the flush that scatters
    /// the column lanes it keeps resident back before any out-of-band
    /// read. `None` (the default) runs the panel's per-column path.
    /// Block Jacobi returns a kernel for its Gauss–Seidel local solver
    /// only. A kernel must be bit-identical per column to the per-column
    /// path — see [`dsw_rma::panel::FusedPhaseFn`] for the contract.
    fn panel_kernel(&self) -> Option<dsw_rma::FusedPanel<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// Overwrites this rank's per-solve state with `other`'s, in place.
    ///
    /// `other` is a clone-sibling: same rank id, matrix, topology, local
    /// solver and configuration. A cached panel run calls this for every
    /// column clone at the start of each batch — in a serving layer, on
    /// the dispatcher thread while the pool waits — so it copies in place
    /// and reallocates no shared structure.
    ///
    /// * **Per-solve state** is everything a later solve can observe that
    ///   the algorithm mutates: the `b`, `x` and `r` vectors, the norm
    ///   cache and its flags, cross-rank estimates (`Γ`, `Γ̃`, the ghost
    ///   layer `z`), pending and in-flight deltas, and counters. It must
    ///   end equal to `other`'s, bit for bit.
    /// * **Shared structure** — the matrix, the topology, the local
    ///   solver and the configuration — is equal by the contract and is
    ///   neither copied nor reallocated. Scratch that every phase
    ///   overwrites before reading (`ghost_dr`) is skipped too.
    ///
    /// The `multirhs` test of two same-width panels on one session pins
    /// this against scalar solves.
    fn copy_state_from(&mut self, other: &Self)
    where
        Self: Sized;
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
/// Constructed through [`TenantSession::build`], which picks the rank
/// type for the method and enforces the warm-start preconditions.
pub struct SolveSession<R: WarmStart> {
    pub(crate) a: CsrMatrix,
    /// The driver's run: executor and one column (monitor, records,
    /// verdict, and the session's current `b`).
    pub(crate) run: SuperstepRun<R, LocalView<R>>,
    /// `Δb` scratch (global indexing), reused across reseeds.
    pub(crate) delta_b: Vec<f64>,
    /// Exact per-rank `‖r_p‖²` scratch, reused across reseeds.
    pub(crate) norms_sq: Vec<f64>,
    /// The in-progress fused multi-RHS job, if one is active.
    panel: Option<PanelRun<R>>,
    /// The most recently finished panel run, kept warm so the next
    /// same-width panel job reseeds it instead of re-cloning every rank
    /// and rebuilding the executor.
    panel_cache: Option<PanelRun<R>>,
}

impl<R: WarmStart + Clone> SolveSession<R> {
    /// Wraps a built executor into a session ready to solve `b`.
    fn new(method: Method, a: CsrMatrix, b: &[f64], ex: Executor<R>, opts: DistOptions) -> Self {
        let n = a.nrows();
        let nranks = ex.nranks();
        let view = DirectView(R::local as fn(&R) -> &LocalSystem);
        let mut run = SuperstepRun::with_columns(method, ex, [(view, b.to_vec())], opts);
        run.begin(&a);
        // Harvest setup-time accounting so the first solve's stats start
        // from a clean epoch (the distribute/build work is not a step).
        let _ = run.ex.stats.take_epoch();
        SolveSession {
            a,
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

    /// Begins a job solving `A x = b` for every `b` in `bs`, each
    /// warm-started from the session's current `x`. The batch width alone
    /// picks the driver: one right-hand side runs the session's own
    /// superstep run, two or more one fused [`PanelRun`].
    pub fn begin(&mut self, bs: &[Vec<f64>]) {
        match bs {
            [b] => self.begin_solve(b),
            _ => self.begin_panel(bs),
        }
    }

    /// Advances up to `quantum` supersteps of the current job; returns
    /// `true` once every right-hand side has reached a verdict
    /// (converged, deadlocked, diverged, or out of steps).
    pub fn step(&mut self, quantum: usize) -> bool {
        match &mut self.panel {
            Some(panel) => panel.run.step_batch(&self.a, quantum),
            None => self.run.step_batch(&self.a, quantum),
        }
    }

    /// Closes the current job: one report per right-hand side, in `bs`
    /// order. Stats cover this job only: the executor's accumulators are
    /// harvested as an epoch ([`dsw_rma::RunStats::take_epoch`]), so
    /// back-to-back jobs on one session never bleed into each other. A
    /// panel adopts its last column's state as the session's, so the
    /// next job warm-starts from it.
    ///
    /// The session is left finished at its final state: finishing again
    /// reports an empty solve — the step-0 record at the current norm, no
    /// steps, no verdict — instead of a report without records.
    pub fn finish(&mut self) -> Vec<DistReport> {
        let Some(mut run) = self.panel.take() else {
            return self.run.finish();
        };
        let reports = run.finish_into(self);
        self.panel_cache = Some(run);
        reports
    }

    /// One full solve: begin, run to a verdict, report.
    pub fn solve(&mut self, b: &[f64]) -> DistReport {
        self.begin_solve(b);
        while !self.step(self.run.opts.max_steps) {}
        self.run.finish().remove(0)
    }

    /// Batched right-hand sides, solved sequentially: each solve
    /// warm-starts from its predecessor's solution. The fused alternative
    /// is [`SolveSession::solve_panel`].
    pub fn solve_many(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// One full fused panel solve: begin, run to verdicts, report. Fuses
    /// even a single column, which then matches [`SolveSession::solve`]
    /// bit for bit.
    pub fn solve_panel(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        self.begin_panel(bs);
        while !self.step(self.run.opts.max_steps) {}
        self.finish()
    }

    /// Begins a scalar solve of `A x = b_new`.
    ///
    /// If `b_new` is bitwise identical to the session's current `b`, the
    /// rank states are left completely untouched — the solve is a pure
    /// continuation of the previous one. Otherwise the residuals are
    /// re-seeded by the `Δb` shift, the cross-rank estimates by an exact
    /// out-of-band norm exchange, and stale in-flight norm messages are
    /// discarded.
    fn begin_solve(&mut self, b_new: &[f64]) {
        assert!(
            self.panel.is_none(),
            "finish the active panel solve before beginning another job"
        );
        assert_eq!(b_new.len(), self.a.nrows(), "rhs dimension mismatch");
        let b = &mut self.run.cols[0].b;
        if b[..] != *b_new {
            for ((d, &new), old) in self.delta_b.iter_mut().zip(b_new).zip(b) {
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
        self.run.begin(&self.a);
    }

    /// Begins a fused panel solve of `A x_c = bs[c]` for every column at
    /// once, each warm-started from the session's current solution (see
    /// [`PanelRun`]). The session's scalar state is untouched until
    /// [`finish`](SolveSession::finish) adopts the last column.
    fn begin_panel(&mut self, bs: &[Vec<f64>]) {
        assert!(self.panel.is_none(), "a panel solve is already active");
        if let Some(mut run) = self.panel_cache.take() {
            // A cached run owns warm column clones, a built routing
            // index, and grown buffers; when the batch shape matches,
            // re-adopting the session state and reseeding is
            // bit-identical to a fresh build at a fraction of the cost.
            if run.k() == bs.len() {
                run.reseed(self, bs);
                self.panel = Some(run);
                return;
            }
        }
        self.panel = Some(PanelRun::new(self, bs));
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
    /// tenant.
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
    ) -> TenantSession {
        let mode = opts.warm_start_mode("TenantSession");
        let locals = distribute(&a, b, x0, partition).expect("valid distribution");
        with_ranks!(method, opts.ds_config, a.nrows(), |build, wrap| {
            let ex = superstep_executor(build(locals), opts, mode);
            wrap(SolveSession::new(method, a, b, ex, *opts))
        })
    }

    /// See [`SolveSession::begin`].
    pub fn begin(&mut self, bs: &[Vec<f64>]) {
        each!(self, s => s.begin(bs))
    }

    /// See [`SolveSession::step`].
    pub fn step(&mut self, quantum: usize) -> bool {
        each!(self, s => s.step(quantum))
    }

    /// See [`SolveSession::finish`].
    pub fn finish(&mut self) -> Vec<DistReport> {
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

    /// See [`SolveSession::solve_panel`].
    pub fn solve_panel(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        each!(self, s => s.solve_panel(bs))
    }
}

// The serving layer steps sessions on its pool's worker threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<TenantSession>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::MonitorMode;
    use dsw_sparse::gen;

    /// Regression: `finish` used to move the records out, so a second
    /// `finish`, or one after a panel job's, returned a report without
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
            let mut s = TenantSession::build(method, a.clone(), &b, &vec![0.0; n], &part, &opts);
            let first = s.solve(&b);
            assert!(first.converged_at.is_some());
            let again = s.finish().remove(0);
            assert_eq!(again.records.len(), 1, "{method:?}");
            assert_eq!(again.final_residual(), first.final_residual());
            assert_eq!(again.comm_cost(), 0.0);
            assert_eq!(again.x, first.x);
            assert!(again.converged_at.is_none() && !again.deadlocked && !again.diverged);
            // Nothing is left to step.
            assert!(s.step(1) && again.stats.steps.is_empty());

            let bs = vec![vec![0.25; n], vec![0.75; n]];
            let cols = s.solve_panel(&bs);
            let adopted = s.finish().remove(0);
            assert_eq!(adopted.records.len(), 1, "{method:?}");
            assert_eq!(adopted.final_residual(), cols[1].final_residual());
            assert_eq!(adopted.x, cols[1].x);
            assert_eq!(adopted.comm_cost(), 0.0);
        }
    }

    /// A panel job finished before its columns reach a verdict reports
    /// each column as far as it got: every column matches an independent
    /// warm-started scalar job stepped as far and finished, and the
    /// session then continues from the last column's solution.
    #[test]
    fn finishing_a_panel_mid_way_matches_scalar_jobs_stepped_as_far() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut a = gen::grid2d_poisson(12, 12);
        a.scale_unit_diagonal().expect("nonzero diagonal");
        let n = a.nrows();
        let part = Partition::new(6, (0..n).map(|i| i * 6 / n).collect());
        let b = vec![0.5; n];
        let x0 = vec![0.0; n];
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|c| {
                (0..n)
                    .map(|i| ((i * 7 + c * 5) % 11) as f64 / 11.0)
                    .collect()
            })
            .collect();
        let opts = DistOptions {
            monitor: MonitorMode::Exact,
            target_residual: Some(1e-10),
            max_steps: 200,
            ..DistOptions::default()
        };
        let warmed = |method| {
            let mut s = TenantSession::build(method, a.clone(), &b, &x0, &part, &opts);
            s.begin(std::slice::from_ref(&b));
            s.step(3);
            s.finish();
            s
        };
        for method in [Method::BlockJacobi, Method::DistributedSouthwell] {
            let mut panel = warmed(method);
            panel.begin(&bs);
            assert!(!panel.step(2), "{method:?}: no column has a verdict yet");
            let cols = panel.finish();
            assert_eq!(cols.len(), 3);

            let mut relax_sum = vec![0; 3];
            for (c, col) in cols.iter().enumerate() {
                let mut solo = warmed(method);
                solo.begin(std::slice::from_ref(&bs[c]));
                assert!(!solo.step(2));
                let scalar = solo.finish().remove(0);
                let case = format!("{method:?} col {c}");
                assert_eq!(col.records.len(), 3, "{case}: step-0 record and two steps");
                for (p, s) in col.records.iter().zip(&scalar.records) {
                    assert_eq!(p.step, s.step, "{case}");
                    assert_eq!(
                        p.residual_norm.to_bits(),
                        s.residual_norm.to_bits(),
                        "{case}"
                    );
                }
                // Counters are the panel's, shared across its columns: a
                // panel record relaxes what the three scalar jobs did.
                for (sum, s) in relax_sum.iter_mut().zip(&scalar.records) {
                    *sum += s.relaxations;
                }
                assert_eq!(bits(&col.x), bits(&scalar.x), "{case}: solution");
                for r in [col, &scalar] {
                    assert!(
                        r.converged_at.is_none() && !r.deadlocked && !r.diverged,
                        "{case}"
                    );
                    assert_eq!(r.watchdog_nudges, 0, "{case}");
                }
            }
            for col in &cols {
                let relax: Vec<u64> = col.records.iter().map(|r| r.relaxations).collect();
                assert_eq!(relax, relax_sum, "{method:?}: panel relaxations");
            }

            // The session adopted column 2: a job on its rhs starts from
            // its solution, at its final norm.
            panel.begin(std::slice::from_ref(&bs[2]));
            let next = panel.finish().remove(0);
            assert_eq!(bits(&next.x), bits(&cols[2].x), "{method:?}: adopted x");
            assert_eq!(
                next.records[0].residual_norm.to_bits(),
                cols[2].final_residual().to_bits(),
                "{method:?}: adopted norm"
            );
        }
    }
}
