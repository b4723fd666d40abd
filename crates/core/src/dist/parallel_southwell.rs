//! Parallel Southwell, block form (Algorithm 2 of the paper).

use super::layout::{LocalSystem, SlotCursor};
use super::local_solver::{LocalSolver, LocalSolverImpl};
use super::msg::{DistMsg, SlabVec};
use crate::scalar::beats;
use dsw_rma::{CommClass, Inbox, PhaseCtx, RankAlgorithm};

/// One rank of block Parallel Southwell.
///
/// `Γ` holds the **exact** residual norms of the neighbors: every time a
/// rank's residual norm changes without it having relaxed (i.e. it received
/// updates), it broadcasts the new norm to all neighbors in a second epoch —
/// the *explicit residual update* whose cost dominates Table 3. A rank that
/// relaxed piggybacks its new norm on the solve messages instead.
///
/// With `explicit_updates = false` this degenerates to the piggyback-only
/// scheme of the authors' earlier ICCS'16 paper, which the paper reports
/// "deadlocks for all our test problems" — reproduce that with the
/// `ablation_deadlock` bench.
#[derive(Clone)]
pub struct ParallelSouthwellRank {
    /// The local piece of the system.
    pub ls: LocalSystem,
    /// Exact neighbor residual norms (squared), per neighbor slot.
    pub gamma_sq: Vec<f64>,
    /// ‖r_p‖² as of the start of the current phase.
    my_norm_sq: f64,
    /// The norm last communicated to the neighbors (piggyback or explicit).
    last_sent_norm_sq: f64,
    /// Whether to send the deadlock-preventing explicit updates.
    explicit_updates: bool,
    /// Whether this rank relaxed in the most recent parallel step
    /// (observability hook for tests and the harness).
    pub relaxed_last_step: bool,
    solver: LocalSolverImpl,
    ghost_dr: Vec<f64>,
}

impl ParallelSouthwellRank {
    /// Wraps local systems into Parallel Southwell ranks. `norms_sq` holds
    /// every rank's initial ‖r‖² (the setup exchange, not counted as solver
    /// communication).
    pub fn build(locals: Vec<LocalSystem>, norms_sq: &[f64]) -> Vec<Self> {
        Self::build_with(locals, norms_sq, true)
    }

    /// As [`build`](Self::build), optionally disabling explicit residual
    /// updates (the deadlock-prone ICCS'16 variant).
    pub fn build_with(
        locals: Vec<LocalSystem>,
        norms_sq: &[f64],
        explicit_updates: bool,
    ) -> Vec<Self> {
        Self::build_cfg(locals, norms_sq, explicit_updates, LocalSolver::GaussSeidel)
    }

    /// Fully configurable constructor (explicit updates, local solver).
    pub fn build_cfg(
        locals: Vec<LocalSystem>,
        norms_sq: &[f64],
        explicit_updates: bool,
        solver: LocalSolver,
    ) -> Vec<Self> {
        locals
            .into_iter()
            .map(|ls| {
                let gamma_sq = ls.neighbors.iter().map(|&q| norms_sq[q]).collect();
                let my = norms_sq[ls.rank];
                let g = ls.ext_cols.len();
                ParallelSouthwellRank {
                    solver: LocalSolverImpl::new(solver, &ls),
                    ls,
                    gamma_sq,
                    my_norm_sq: my,
                    last_sent_norm_sq: my,
                    explicit_updates,
                    relaxed_last_step: false,
                    ghost_dr: vec![0.0; g],
                }
            })
            .collect()
    }

    /// The Parallel Southwell criterion: does this rank hold the largest
    /// residual norm in its neighborhood (rank-id tie-break)?
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

    /// Applies one inbox, whatever phase it lands in (in the superstep
    /// executor solve messages arrive at phase 1 and explicit updates at
    /// phase 0; under asynchronous scheduling either can arrive at either
    /// boundary). Returns `true` if residual data changed.
    fn apply_inbox(&mut self, inbox: Inbox<'_, DistMsg>) -> bool {
        let mut cursor = SlotCursor::default();
        let mut received = false;
        for env in inbox {
            let s = cursor.slot(&self.ls, env.src);
            received |= self.apply_msg(s, &env.payload);
        }
        received
    }

    /// Applies one message from the neighbor in slot `s`. Returns `true`
    /// if residual data changed.
    fn apply_msg(&mut self, s: usize, msg: &DistMsg) -> bool {
        match msg {
            DistMsg::Solve { dr, norm_sq, .. } => {
                for (&li, &d) in self.ls.shape.boundary_rows_to[s].iter().zip(dr) {
                    self.ls.r[li as usize] += d;
                }
                self.gamma_sq[s] = *norm_sq;
                true
            }
            DistMsg::Residual { norm_sq, .. } => {
                self.gamma_sq[s] = *norm_sq;
                false
            }
            // PS has no self-healing layer and never sends audits; an audit
            // from a foreign protocol still carries a valid norm.
            DistMsg::Audit { norm_sq, .. } => {
                self.gamma_sq[s] = *norm_sq;
                false
            }
        }
    }
}

impl super::recovery::Recoverable for ParallelSouthwellRank {}

impl super::session::WarmStart for ParallelSouthwellRank {
    fn local(&self) -> &LocalSystem {
        &self.ls
    }

    fn reseed_rhs(&mut self, delta_b: &[f64]) -> f64 {
        // r = b − Ax: the b change shifts r purely locally (x untouched).
        for (li, &g) in self.ls.shape.rows.iter().enumerate() {
            self.ls.b[li] += delta_b[g];
            self.ls.r[li] += delta_b[g];
        }
        self.my_norm_sq = self.ls.residual_norm_sq();
        self.my_norm_sq
    }

    fn reseed_estimates(&mut self, norms_sq: &[f64]) {
        // Out-of-band exact exchange, mirroring `build_cfg`'s setup: every
        // neighbor estimate becomes the neighbor's exact post-reseed norm,
        // and `last_sent` reflects that the neighbors hold *this* rank's
        // exact norm too.
        for (s, &q) in self.ls.neighbors.iter().enumerate() {
            self.gamma_sq[s] = norms_sq[q];
        }
        self.last_sent_norm_sq = self.my_norm_sq;
        self.relaxed_last_step = false;
    }

    fn copy_state_from(&mut self, other: &Self) {
        // `explicit_updates` is configuration and the solver is shared
        // with the clone-sibling; `ghost_dr` is transient scratch.
        self.ls.copy_solve_state_from(&other.ls);
        self.gamma_sq.copy_from_slice(&other.gamma_sq);
        self.my_norm_sq = other.my_norm_sq;
        self.last_sent_norm_sq = other.last_sent_norm_sq;
        self.relaxed_last_step = other.relaxed_last_step;
    }
}

impl RankAlgorithm for ParallelSouthwellRank {
    type Msg = DistMsg;

    fn phases(&self) -> usize {
        2
    }

    fn put_targets(&self) -> Vec<usize> {
        // Solve and residual traffic both stay on the static subdomain
        // neighbor set.
        self.ls.neighbors.clone()
    }

    fn phase(&mut self, phase: usize, inbox: Inbox<'_, DistMsg>, ctx: &mut PhaseCtx<DistMsg>) {
        match phase {
            0 => {
                // Read explicit residual updates from the previous step
                // (and any solve updates arriving here under asynchrony).
                if self.apply_inbox(inbox) {
                    self.my_norm_sq = self.ls.residual_norm_sq();
                    ctx.add_flops(2 * self.ls.nrows() as u64);
                }
                self.relaxed_last_step = self.wins();
                if self.relaxed_last_step {
                    self.ghost_dr.iter_mut().for_each(|v| *v = 0.0);
                    let flops = self.solver.relax(&mut self.ls, &mut self.ghost_dr);
                    ctx.add_flops(flops);
                    ctx.record_relaxations(self.ls.nrows() as u64);
                    self.my_norm_sq = self.ls.residual_norm_sq();
                    self.last_sent_norm_sq = self.my_norm_sq;
                    for s in 0..self.ls.nneighbors() {
                        let dr = SlabVec::gather(&self.ls.ghosts_of[s], &self.ghost_dr);
                        let msg = DistMsg::Solve {
                            dr,
                            boundary_r: SlabVec::new(),
                            norm_sq: self.my_norm_sq,
                            est_of_target_sq: 0.0,
                        };
                        let bytes = msg.wire_bytes();
                        ctx.put(self.ls.neighbors[s], CommClass::Solve, msg, bytes);
                    }
                }
            }
            1 => {
                // Read solve updates; piggybacked norms keep Γ exact.
                if self.apply_inbox(inbox) {
                    self.my_norm_sq = self.ls.residual_norm_sq();
                    ctx.add_flops(2 * self.ls.nrows() as u64);
                }
                // Explicit residual update whenever the norm changed without
                // being communicated — the deadlock preventer.
                if self.explicit_updates && self.my_norm_sq != self.last_sent_norm_sq {
                    for s in 0..self.ls.nneighbors() {
                        let msg = DistMsg::Residual {
                            boundary_r: SlabVec::new(),
                            norm_sq: self.my_norm_sq,
                            est_of_target_sq: 0.0,
                        };
                        let bytes = msg.wire_bytes();
                        ctx.put(self.ls.neighbors[s], CommClass::Residual, msg, bytes);
                    }
                    self.last_sent_norm_sq = self.my_norm_sq;
                }
            }
            _ => unreachable!("Parallel Southwell has two phases"),
        }
    }

    /// PS keeps `my_norm_sq` exact at step boundaries on a reliable link:
    /// solve deltas sent in phase 0 are applied in phase 1 of the same
    /// step, and explicit updates carry no residual data.
    fn maintained_norm_sq(&self) -> Option<f64> {
        Some(self.my_norm_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::layout::{distribute, gather_x};
    use dsw_partition::partition_strip;
    use dsw_rma::{CostModel, ExecMode, Executor};
    use dsw_sparse::gen;

    fn build_ps(
        nx: usize,
        ny: usize,
        p: usize,
        explicit: bool,
    ) -> (
        dsw_sparse::CsrMatrix,
        Vec<f64>,
        Executor<ParallelSouthwellRank>,
    ) {
        build_ps_part(nx, ny, p, explicit, false)
    }

    fn build_ps_part(
        nx: usize,
        ny: usize,
        p: usize,
        explicit: bool,
        multilevel: bool,
    ) -> (
        dsw_sparse::CsrMatrix,
        Vec<f64>,
        Executor<ParallelSouthwellRank>,
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
        let ranks = ParallelSouthwellRank::build_with(locals, &norms, explicit);
        let ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        (a, b, ex)
    }

    fn global_norm(
        ex: &Executor<ParallelSouthwellRank>,
        a: &dsw_sparse::CsrMatrix,
        b: &[f64],
    ) -> f64 {
        let locals: Vec<_> = ex.ranks().iter().map(|r| r.ls.clone()).collect();
        let x = gather_x(&locals, a.nrows());
        dsw_sparse::vecops::norm2(&a.residual(b, &x))
    }

    #[test]
    fn ps_converges_on_poisson() {
        let (a, b, mut ex) = build_ps(12, 12, 6, true);
        for _ in 0..2000 {
            ex.step();
        }
        let norm = global_norm(&ex, &a, &b);
        assert!(norm < 1e-8, "residual {norm}");
    }

    #[test]
    fn at_most_an_independent_set_relaxes() {
        // With exact norms and rank tie-breaks, two neighboring ranks never
        // relax in the same step (PS preserves the SPD guarantee this way).
        let (_, _, mut ex) = build_ps_part(16, 16, 8, true, true);
        for step in 0..60 {
            ex.step();
            for r in ex.ranks() {
                if !r.relaxed_last_step {
                    continue;
                }
                for &q in &r.ls.neighbors {
                    assert!(
                        !ex.ranks()[q].relaxed_last_step,
                        "step {step}: neighbors {} and {q} both relaxed",
                        r.ls.rank
                    );
                }
            }
        }
    }

    #[test]
    fn relax_set_matches_exact_criterion() {
        // The explicit residual updates keep Γ an exact snapshot: the set
        // of ranks relaxing in step k must equal the Parallel Southwell
        // criterion evaluated on the TRUE norms at the end of step k−1
        // (this is what makes distributed PS mathematically identical to
        // its shared-memory definition, §2.4).
        let (_, _, mut ex) = build_ps_part(16, 16, 8, true, true);
        for step in 0..60 {
            let prev: Vec<f64> = ex.ranks().iter().map(|r| r.ls.residual_norm_sq()).collect();
            ex.step();
            for r in ex.ranks() {
                let mine = prev[r.ls.rank];
                let expected = mine > 0.0
                    && r.ls
                        .neighbors
                        .iter()
                        .all(|&q| crate::scalar::beats(mine, r.ls.rank, prev[q], q));
                assert_eq!(
                    r.relaxed_last_step, expected,
                    "step {step}, rank {}: relaxed={} but exact criterion={}",
                    r.ls.rank, r.relaxed_last_step, expected
                );
            }
        }
    }

    #[test]
    fn piggyback_only_variant_deadlocks() {
        // The ICCS'16 scheme: no explicit updates. The paper reports it
        // deadlocks on all test problems; detect the frozen state (a step
        // with no relaxations and no messages) under the paper's setup
        // (unit-diagonal scaling, b = 0, random scaled guess).
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
        let ranks = ParallelSouthwellRank::build_with(locals, &norms, false);
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        let mut frozen = false;
        for _ in 0..500 {
            let s = ex.step();
            if s.relaxations == 0 && s.msgs == 0 {
                frozen = true;
                break;
            }
        }
        assert!(frozen, "piggyback-only Parallel Southwell should deadlock");
    }

    #[test]
    fn explicit_variant_never_freezes_before_convergence() {
        let (a, b, mut ex) = build_ps(10, 10, 5, true);
        for _ in 0..400 {
            let s = ex.step();
            let norm = global_norm(&ex, &a, &b);
            if norm < 1e-10 {
                return; // converged
            }
            assert!(
                !(s.relaxations == 0 && s.msgs == 0),
                "froze at residual {norm}"
            );
        }
    }

    #[test]
    fn res_comm_dominates_solve_comm() {
        // Table 3's headline: explicit residual updates dominate PS's
        // communication. Every neighbor of a relaxer re-broadcasts its
        // changed norm to all of *its* neighbors, so with realistic
        // (multilevel) partitions Res comm exceeds Solve comm.
        let (_, _, mut ex) = build_ps_part(24, 24, 12, true, true);
        for _ in 0..100 {
            ex.step();
        }
        let solve = ex.stats.total_msgs_solve();
        let res = ex.stats.total_msgs_residual();
        assert!(
            res > solve,
            "expected residual comm to dominate: solve={solve} res={res}"
        );
    }
}
