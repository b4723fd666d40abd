//! Local subdomain solvers.
//!
//! The paper's artifact exposes a `-loc_solver` switch: a single
//! Gauss–Seidel sweep (the default, used for every reported experiment) or
//! a direct solve of the local block (PARDISO in the artifact; a dense
//! Cholesky here). The exact solve drives the local residual to zero,
//! which makes a relaxing rank piggyback a zero norm — the same mechanism
//! that degrades the scalar form of Distributed Southwell on strongly
//! coupled systems — so the Gauss–Seidel sweep is both cheaper and
//! better-behaved; the option exists for completeness and experimentation,
//! mirroring the artifact.

use super::layout::LocalSystem;
use dsw_partition::{greedy_coloring_bfs, Graph};
use dsw_sparse::dense::Cholesky;
use std::sync::Arc;

/// Which local solver to use when a rank relaxes its subdomain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSolver {
    /// One Gauss–Seidel sweep over the owned rows (`-loc_solver gs`).
    #[default]
    GaussSeidel,
    /// One Multicolor Gauss–Seidel sweep: mathematically a GS sweep in
    /// color order, but each color class could be relaxed by local threads
    /// — the "single process per node with a multi-threaded local solver,
    /// e.g. Multicolor Gauss-Seidel" configuration the paper notes in §4.2.
    MulticolorGaussSeidel,
    /// Exact solve of the local block via dense Cholesky
    /// (`-loc_solver pardiso` in the artifact). Factors each block once at
    /// setup; only sensible for small subdomains.
    Exact,
}

/// The instantiated solver held by each rank.
///
/// Its setup is immutable, so copies of a rank (fused-panel column
/// clones) share it: cloning bumps a reference count and copies no
/// order or factor.
#[derive(Clone)]
pub enum LocalSolverImpl {
    /// Sweep; stateless.
    GaussSeidel,
    /// Sweep in color order; holds the local row order (colors
    /// concatenated) computed once at setup.
    Multicolor(Arc<[u32]>),
    /// Direct solve with a prefactored local block.
    Exact(Arc<Cholesky>),
}

impl LocalSolverImpl {
    /// Instantiates the solver for one local system.
    pub fn new(kind: LocalSolver, ls: &LocalSystem) -> Self {
        match kind {
            LocalSolver::GaussSeidel => LocalSolverImpl::GaussSeidel,
            LocalSolver::MulticolorGaussSeidel => {
                let coloring = greedy_coloring_bfs(&Graph::from_matrix(&ls.a_int));
                let order: Arc<[u32]> = coloring
                    .classes()
                    .into_iter()
                    .flatten()
                    .map(|i| i as u32)
                    .collect();
                LocalSolverImpl::Multicolor(order)
            }
            LocalSolver::Exact => LocalSolverImpl::Exact(Arc::new(
                Cholesky::factor_csr(&ls.a_int)
                    .expect("local diagonal blocks of an SPD matrix are SPD"),
            )),
        }
    }

    /// Relaxes the subdomain: updates `ls.x` and `ls.r`, accumulates the
    /// off-process residual deltas into `ghost_dr` (pre-zeroed by the
    /// caller), and returns the flop count for the time model.
    pub fn relax(&self, ls: &mut LocalSystem, ghost_dr: &mut [f64]) -> u64 {
        match self {
            LocalSolverImpl::GaussSeidel => ls.gs_sweep(ghost_dr),
            LocalSolverImpl::Multicolor(order) => ls.gs_sweep_ordered(order, ghost_dr),
            LocalSolverImpl::Exact(chol) => ls.exact_solve(chol, ghost_dr),
        }
    }
}

impl LocalSystem {
    /// Exact local solve: `δ = A_int⁻¹ r`, `x += δ`, local residual
    /// becomes zero, and the off-process residual deltas are accumulated
    /// into `ghost_dr`. Returns the flop count.
    pub fn exact_solve(&mut self, chol: &Cholesky, ghost_dr: &mut [f64]) -> u64 {
        debug_assert_eq!(chol.dim(), self.nrows());
        let delta = chol.solve(&self.r);
        for (x, d) in self.x.iter_mut().zip(&delta) {
            *x += d;
        }
        // Off-process contributions: a_{ji} = a_{ij}.
        for (i, &d) in delta.iter().enumerate() {
            for k in self.a_ext_ptr[i]..self.a_ext_ptr[i + 1] {
                ghost_dr[self.a_ext_idx[k] as usize] -= self.a_ext_val[k] * d;
            }
        }
        // The local block is solved exactly.
        self.r.iter_mut().for_each(|v| *v = 0.0);
        let m = self.nrows() as u64;
        // Two triangular solves (forward + backward, ~m² each) plus the
        // off-process delta accumulation (one multiply-add per external
        // coupling entry).
        2 * m * m + 2 * (self.a_ext_idx.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::layout::distribute;
    use dsw_partition::partition_strip;
    use dsw_sparse::gen;

    #[test]
    fn exact_solve_zeroes_local_residual_and_matches_global_semantics() {
        let a = gen::grid2d_poisson(8, 8);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let x0 = gen::random_guess(n, 2);
        let part = partition_strip(n, 4);
        let mut locals = distribute(&a, &b, &x0, &part).unwrap();
        let mut all_dr: Vec<Vec<f64>> = Vec::new();
        for ls in locals.iter_mut() {
            let solver = LocalSolverImpl::new(LocalSolver::Exact, ls);
            let mut gdr = vec![0.0; ls.ext_cols.len()];
            solver.relax(ls, &mut gdr);
            assert!(ls.r.iter().all(|&v| v == 0.0));
            all_dr.push(gdr);
        }
        // Deliver deltas, then the maintained residuals must equal b - Ax.
        for p in 0..locals.len() {
            let (ext, dr) = (locals[p].ext_cols.clone(), all_dr[p].clone());
            for (slot, &g) in ext.iter().enumerate() {
                let q = locals
                    .iter()
                    .position(|l| l.rows.binary_search(&g).is_ok())
                    .unwrap();
                let li = locals[q].rows.binary_search(&g).unwrap();
                locals[q].r[li] += dr[slot];
            }
        }
        let x = crate::dist::layout::gather_x(&locals, n);
        let r_true = a.residual(&b, &x);
        let r_kept = crate::dist::layout::gather_r(&locals, n);
        for (k, t) in r_kept.iter().zip(&r_true) {
            assert!((k - t).abs() < 1e-11, "{k} vs {t}");
        }
    }

    #[test]
    fn exact_solve_flop_model_charges_both_triangular_solves() {
        // Regression: the model charged m·m for "two triangular solves";
        // a dense forward + backward substitution is 2·m² (+ the external
        // delta accumulation), so exact solves were under-billed 2x
        // relative to the Gauss–Seidel sweep on the modelled clock.
        let a = gen::grid2d_poisson(8, 8);
        let n = a.nrows();
        let b = gen::random_rhs(n, 1);
        let part = partition_strip(n, 4);
        let mut locals = distribute(&a, &b, &vec![0.0; n], &part).unwrap();
        for ls in locals.iter_mut() {
            let solver = LocalSolverImpl::new(LocalSolver::Exact, ls);
            let m = ls.nrows() as u64;
            let ext_nnz = ls.a_ext_idx.len() as u64;
            let mut gdr = vec![0.0; ls.ext_cols.len()];
            let flops = solver.relax(ls, &mut gdr);
            assert_eq!(flops, 2 * m * m + 2 * ext_nnz);
        }
    }

    #[test]
    fn multicolor_sweep_visits_every_row_once() {
        let a = gen::grid2d_poisson(8, 8);
        let n = a.nrows();
        let b = gen::random_rhs(n, 4);
        let x0 = gen::random_guess(n, 5);
        let part = partition_strip(n, 4);
        let mut locals = distribute(&a, &b, &x0, &part).unwrap();
        for ls in locals.iter_mut() {
            let solver = LocalSolverImpl::new(LocalSolver::MulticolorGaussSeidel, ls);
            if let LocalSolverImpl::Multicolor(order) = &solver {
                let mut sorted: Vec<u32> = order.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..ls.nrows() as u32).collect::<Vec<_>>());
            } else {
                panic!("expected multicolor solver");
            }
            let before = ls.residual_norm_sq();
            let mut gdr = vec![0.0; ls.ext_cols.len()];
            solver.relax(ls, &mut gdr);
            assert!(ls.residual_norm_sq() < before);
        }
    }

    #[test]
    fn all_local_solvers_converge_block_jacobi() {
        use crate::dist::{run_method, DistOptions, DsConfig, Method};
        let mut a = gen::grid2d_poisson(12, 12);
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = gen::random_rhs(n, 6);
        let x0 = vec![0.0; n];
        let part = partition_strip(n, 4);
        for kind in [
            LocalSolver::GaussSeidel,
            LocalSolver::MulticolorGaussSeidel,
            LocalSolver::Exact,
        ] {
            let opts = DistOptions {
                max_steps: 500,
                target_residual: Some(1e-8),
                ds_config: DsConfig {
                    local_solver: kind,
                    ..DsConfig::default()
                },
                ..DistOptions::default()
            };
            let rep = run_method(Method::BlockJacobi, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{kind:?}: final {}",
                rep.final_residual()
            );
        }
    }

    #[test]
    fn single_rank_exact_solve_is_direct_solution() {
        let a = gen::grid2d_poisson(6, 6);
        let n = a.nrows();
        let b = gen::random_rhs(n, 3);
        let part = partition_strip(n, 1);
        let mut locals = distribute(&a, &b, &vec![0.0; n], &part).unwrap();
        let solver = LocalSolverImpl::new(LocalSolver::Exact, &locals[0]);
        let mut gdr = vec![];
        solver.relax(&mut locals[0], &mut gdr);
        let r = a.residual(&b, &locals[0].x);
        assert!(dsw_sparse::vecops::norm2(&r) < 1e-11);
    }
}
