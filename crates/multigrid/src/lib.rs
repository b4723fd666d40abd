//! Geometric multigrid for the 2D Poisson model problem (§4.1 / Figure 6).
//!
//! The paper tests Distributed Southwell as a multigrid smoother: V-cycles
//! on the unit square with centered finite differences, grid dimensions
//! 15×15 … 255×255, one pre- and one post-smoothing step, coarsened down
//! to a 3×3 grid that is solved exactly. The headline result is that the
//! Distributed Southwell smoother gives grid-size-independent convergence
//! and is more efficient per relaxation than Gauss–Seidel — even when
//! budgeted at *half* a sweep.
//!
//! Grid hierarchy: dimensions follow `d → (d−1)/2`, so admissible sizes are
//! `2^k − 1` (15, 31, 63, …). Transfer operators are bilinear interpolation
//! `P` and its adjoint for restriction (which equals 4× full weighting, the
//! correct scaling when every level is re-discretized with the unit-`h`
//! 5-point stencil).

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod dist;
pub mod dsmooth;
pub mod smoother;
pub mod transfer;

pub use dist::{
    CycleReport, DistMultigrid, DistMultigridConfig, LevelCycleStats, TransferExchange,
};
pub use smoother::Smoother;

use dsw_sparse::dense::Cholesky;
use dsw_sparse::gen::grid2d_poisson;
use dsw_sparse::{vecops, CsrMatrix};

/// Why a multigrid hierarchy cannot be built, reported as a value instead
/// of a panic (workspace panic policy: setup mistakes surface as errors,
/// never as asserts in library code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultigridError {
    /// The requested interior dimension does not admit a `d → (d−1)/2`
    /// hierarchy (`need dim = 2^k - 1 with dim >= 3`).
    BadDimension {
        /// The offending dimension.
        dim: usize,
    },
    /// The coarsest-level operator failed its Cholesky factorization
    /// (not SPD — impossible for the built-in 5-point stencil, but the
    /// error is propagated rather than asserted away).
    CoarseFactorization(String),
    /// A distributed hierarchy cannot be built as configured (bad
    /// partition layout, incompatible level grids, or a smoother/backend
    /// combination the substrate cannot honor).
    Setup(String),
}

impl std::fmt::Display for MultigridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultigridError::BadDimension { dim } => {
                write!(f, "grid dimension must be 2^k - 1 with dim >= 3, got {dim}")
            }
            MultigridError::CoarseFactorization(m) => {
                write!(f, "coarse operator factorization failed: {m}")
            }
            MultigridError::Setup(m) => {
                write!(f, "distributed multigrid setup failed: {m}")
            }
        }
    }
}

impl std::error::Error for MultigridError {}

/// One level of the grid hierarchy.
pub struct Level {
    /// Interior grid dimension (the grid is `dim × dim`).
    pub dim: usize,
    /// The 5-point operator at this level (diag 4, off-diag −1).
    pub a: CsrMatrix,
    /// Scratch: right-hand side at this level.
    rhs: Vec<f64>,
    /// Scratch: iterate at this level.
    sol: Vec<f64>,
}

/// A geometric multigrid solver for the 2D Poisson problem.
pub struct Multigrid {
    /// Levels, finest first.
    pub levels: Vec<Level>,
    coarse_solver: Cholesky,
    smoother: Smoother,
}

impl Multigrid {
    /// Builds a hierarchy for a `dim × dim` interior grid; `dim` must be of
    /// the form `2^k − 1` with `dim ≥ 3`. The coarsest level is 3×3 (or
    /// `dim` itself if `dim == 3`), solved exactly.
    ///
    /// # Panics
    /// On an inadmissible dimension; use [`Multigrid::try_new`] for a
    /// recoverable error.
    pub fn new(dim: usize, smoother: Smoother) -> Self {
        match Self::try_new(dim, smoother) {
            Ok(mg) => mg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds a hierarchy, reporting inadmissible dimensions and coarse
    /// factorization failures as [`MultigridError`] values instead of
    /// panicking — the non-panicking form of [`Multigrid::new`].
    pub fn try_new(dim: usize, smoother: Smoother) -> Result<Self, MultigridError> {
        let dims = level_dims(dim)?;
        let levels: Vec<Level> = dims
            .into_iter()
            .map(|d| Level {
                dim: d,
                a: grid2d_poisson(d, d),
                rhs: vec![0.0; d * d],
                sol: vec![0.0; d * d],
            })
            .collect();
        let coarsest = levels.last().expect("hierarchy has at least one level");
        let coarse_solver = Cholesky::factor_csr(&coarsest.a)
            .map_err(|e| MultigridError::CoarseFactorization(e.to_string()))?;
        Ok(Multigrid {
            levels,
            coarse_solver,
            smoother,
        })
    }

    /// One V(1,1)-cycle for `A x = b` on the finest level, updating `x`.
    /// Returns the relative residual norm `‖b − Ax‖ / ‖b‖` afterwards.
    pub fn vcycle(&mut self, b: &[f64], x: &mut [f64]) -> f64 {
        let n = self.levels[0].dim * self.levels[0].dim;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        self.levels[0].rhs.copy_from_slice(b);
        self.levels[0].sol.copy_from_slice(x);
        self.cycle(0);
        x.copy_from_slice(&self.levels[0].sol);
        let bnorm = vecops::norm2(b).max(1e-300);
        vecops::norm2(&self.levels[0].a.residual(b, x)) / bnorm
    }

    fn cycle(&mut self, l: usize) {
        if l == self.levels.len() - 1 {
            // Exact coarse solve.
            let lev = &mut self.levels[l];
            let r = lev.a.residual(&lev.rhs, &lev.sol);
            let e = self.coarse_solver.solve(&r);
            for (s, ei) in lev.sol.iter_mut().zip(&e) {
                *s += ei;
            }
            return;
        }
        // Pre-smooth.
        {
            let lev = &mut self.levels[l];
            self.smoother
                .smooth(&lev.a, &lev.rhs, &mut lev.sol, l as u64);
        }
        // Restrict the residual.
        let (fine_dim, coarse_dim) = (self.levels[l].dim, self.levels[l + 1].dim);
        let r = {
            let lev = &self.levels[l];
            lev.a.residual(&lev.rhs, &lev.sol)
        };
        let rc = transfer::restrict(&r, fine_dim, coarse_dim);
        {
            let coarse = &mut self.levels[l + 1];
            coarse.rhs.copy_from_slice(&rc);
            coarse.sol.iter_mut().for_each(|v| *v = 0.0);
        }
        self.cycle(l + 1);
        // Prolong and correct.
        let e = transfer::prolong(&self.levels[l + 1].sol, coarse_dim, fine_dim);
        {
            let lev = &mut self.levels[l];
            for (s, ei) in lev.sol.iter_mut().zip(&e) {
                *s += ei;
            }
            // Post-smooth.
            self.smoother
                .smooth(&lev.a, &lev.rhs, &mut lev.sol, 1_000_000 + l as u64);
        }
    }

    /// Runs `cycles` V-cycles from a zero initial guess; returns the
    /// relative residual norm after each cycle (the quantity Figure 6
    /// reports after 9 cycles).
    pub fn solve(&mut self, b: &[f64], cycles: usize) -> (Vec<f64>, Vec<f64>) {
        let n = self.levels[0].dim * self.levels[0].dim;
        let mut x = vec![0.0; n];
        let mut history = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            history.push(self.vcycle(b, &mut x));
        }
        (x, history)
    }
}

/// The interior dimensions of the `d → (d−1)/2` hierarchy rooted at `dim`,
/// finest first, down to the exactly solved 3×3 level. Errs on dimensions
/// that do not admit the coarsening.
pub fn level_dims(dim: usize) -> Result<Vec<usize>, MultigridError> {
    if dim < 3 || !(dim + 1).is_power_of_two() {
        return Err(MultigridError::BadDimension { dim });
    }
    let mut dims = Vec::new();
    let mut d = dim;
    loop {
        dims.push(d);
        if d == 3 {
            break;
        }
        d = (d - 1) / 2;
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen;

    #[test]
    fn hierarchy_dimensions() {
        let mg = Multigrid::new(15, Smoother::gauss_seidel(1.0));
        let dims: Vec<usize> = mg.levels.iter().map(|l| l.dim).collect();
        assert_eq!(dims, vec![15, 7, 3]);
        let mg = Multigrid::new(63, Smoother::gauss_seidel(1.0));
        assert_eq!(mg.levels.len(), 5);
    }

    #[test]
    #[should_panic(expected = "2^k - 1")]
    fn rejects_bad_dimension() {
        Multigrid::new(16, Smoother::gauss_seidel(1.0));
    }

    #[test]
    fn try_new_reports_bad_dimensions_as_errors() {
        // The recoverable form: no panic, a descriptive error value.
        for dim in [0, 1, 2, 4, 16, 100] {
            assert_eq!(
                Multigrid::try_new(dim, Smoother::gauss_seidel(1.0)).err(),
                Some(MultigridError::BadDimension { dim }),
                "dim {dim} must be rejected"
            );
        }
        assert!(Multigrid::try_new(15, Smoother::gauss_seidel(1.0)).is_ok());
        assert_eq!(level_dims(31).unwrap(), vec![31, 15, 7, 3]);
        assert!(level_dims(9).is_err());
    }

    #[test]
    fn vcycle_converges_fast_gs() {
        let dim = 31;
        let n = dim * dim;
        let b = gen::random_rhs(n, 3);
        let mut mg = Multigrid::new(dim, Smoother::gauss_seidel(1.0));
        let (_, hist) = mg.solve(&b, 9);
        assert!(
            hist[8] < 1e-6,
            "9 V-cycles should reduce the residual far below 1e-6, got {}",
            hist[8]
        );
        // Roughly geometric decay.
        assert!(hist[1] < 0.5 * hist[0]);
    }

    #[test]
    fn gs_convergence_is_grid_independent() {
        let mut finals = Vec::new();
        for dim in [15, 31, 63] {
            let n = dim * dim;
            let b = gen::random_rhs(n, 4);
            let mut mg = Multigrid::new(dim, Smoother::gauss_seidel(1.0));
            let (_, hist) = mg.solve(&b, 9);
            finals.push(hist[8]);
        }
        let max = finals.iter().cloned().fold(0.0f64, f64::max);
        let min = finals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max / min < 50.0,
            "grid-independent convergence expected, got {finals:?}"
        );
    }

    #[test]
    fn ds_smoother_grid_independent_even_half_sweep() {
        // Figure 6: Distributed Southwell at half a sweep still gives
        // grid-independent convergence.
        let mut finals = Vec::new();
        for dim in [15, 31, 63] {
            let n = dim * dim;
            let b = gen::random_rhs(n, 4);
            let mut mg = Multigrid::new(dim, Smoother::distributed_southwell(0.5, 7));
            let (_, hist) = mg.solve(&b, 9);
            finals.push(hist[8]);
        }
        assert!(
            finals.iter().all(|&f| f < 1e-4),
            "DS half-sweep smoother should converge well: {finals:?}"
        );
        let max = finals.iter().cloned().fold(0.0f64, f64::max);
        let min = finals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 100.0, "grid independence violated: {finals:?}");
    }

    #[test]
    fn ds_full_sweep_beats_gs_per_relaxation() {
        // Figure 6's second claim: DS with the same relaxation budget as GS
        // gives better multigrid convergence.
        let dim = 63;
        let n = dim * dim;
        let b = gen::random_rhs(n, 5);
        let (_, gs_hist) = Multigrid::new(dim, Smoother::gauss_seidel(1.0)).solve(&b, 9);
        let (_, ds_hist) =
            Multigrid::new(dim, Smoother::distributed_southwell(1.0, 7)).solve(&b, 9);
        assert!(
            ds_hist[8] < gs_hist[8],
            "DS {} should beat GS {}",
            ds_hist[8],
            gs_hist[8]
        );
    }

    #[test]
    fn solution_matches_direct_solver() {
        let dim = 15;
        let n = dim * dim;
        let a = grid2d_poisson(dim, dim);
        let b = gen::random_rhs(n, 6);
        let mut mg = Multigrid::new(dim, Smoother::gauss_seidel(1.0));
        let (x, _) = mg.solve(&b, 30);
        let x_true = Cholesky::factor_csr(&a).unwrap().solve(&b);
        let err: f64 = x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-8, "error {err}");
    }
}
