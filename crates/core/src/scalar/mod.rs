//! Scalar (one-equation-per-process) forms of the methods.
//!
//! All solvers here assume a **symmetric** matrix (the paper's setting is
//! SPD): when row `i` is relaxed, the induced residual updates
//! `r_j ← r_j − a_{ji}·δ` are applied by walking row `i`, using
//! `a_{ji} = a_{ij}`.
//!
//! Every solver returns its final iterate together with a
//! [`ScalarHistory`](crate::ScalarHistory) sampled the way the paper plots
//! Figures 2 and 5: residual norm against cumulative relaxations, with
//! parallel-step boundaries marked.

pub mod gauss_seidel;
pub mod jacobi;
pub mod multicolor;
pub mod sor;
pub mod southwell_dist;
pub mod southwell_par;
pub mod southwell_seq;

pub use gauss_seidel::gauss_seidel;
pub use jacobi::jacobi;
pub use multicolor::multicolor_gauss_seidel;
pub use sor::{damped_jacobi, sor, symmetric_gauss_seidel};
pub use southwell_dist::{distributed_southwell_scalar, DsScalarReport};
pub use southwell_par::parallel_southwell;
pub use southwell_seq::sequential_southwell;

use dsw_sparse::{vecops, CsrMatrix};

/// Options shared by the scalar solvers.
#[derive(Debug, Clone, Copy)]
pub struct ScalarOptions {
    /// Stop after this many row relaxations (e.g. `3 n` for "3 sweeps").
    pub max_relaxations: u64,
    /// Stop once `‖r‖₂ ≤ target` (checked at sample points).
    pub target_residual: Option<f64>,
    /// For one-at-a-time methods, sample the residual every this many
    /// relaxations (parallel methods sample once per parallel step).
    pub record_stride: u64,
    /// Seed for solvers that randomize (Distributed Southwell's exact
    /// relaxation budget).
    pub seed: u64,
}

impl ScalarOptions {
    /// `sweeps` sweeps over an `n`-row system with a sensible stride.
    pub fn sweeps(n: usize, sweeps: f64) -> Self {
        ScalarOptions {
            max_relaxations: (n as f64 * sweeps).round() as u64,
            target_residual: None,
            record_stride: (n as u64 / 64).max(1),
            seed: 0,
        }
    }
}

/// Shared iteration state: solution, residual, and bookkeeping.
pub(crate) struct ScalarState<'a> {
    pub a: &'a CsrMatrix,
    pub x: Vec<f64>,
    pub r: Vec<f64>,
    pub relaxations: u64,
    pub history: crate::ScalarHistory,
    next_sample: u64,
    stride: u64,
}

impl<'a> ScalarState<'a> {
    pub fn new(a: &'a CsrMatrix, b: &[f64], x0: &[f64], opts: &ScalarOptions) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "square systems only");
        assert_eq!(b.len(), a.nrows());
        assert_eq!(x0.len(), a.nrows());
        let r = a.residual(b, x0);
        let mut st = ScalarState {
            a,
            x: x0.to_vec(),
            r,
            relaxations: 0,
            history: crate::ScalarHistory::default(),
            next_sample: 0,
            stride: opts.record_stride.max(1),
        };
        st.sample(); // record the initial residual at 0 relaxations
        st
    }

    /// Relaxes row `i`: `x_i += r_i / a_ii`, updating all coupled residuals
    /// through the (symmetric) row pattern. Returns the applied delta.
    #[inline]
    pub fn relax_row(&mut self, i: usize) -> f64 {
        self.relax_row_weighted(i, 1.0)
    }

    /// Weighted relaxation `x_i += omega · r_i / a_ii` (SOR step).
    #[inline]
    pub fn relax_row_weighted(&mut self, i: usize, omega: f64) -> f64 {
        let aii = self.a.get(i, i);
        debug_assert!(aii != 0.0, "zero diagonal at row {i}");
        let delta = omega * self.r[i] / aii;
        self.x[i] += delta;
        for (j, aij) in self.a.row(i) {
            // Symmetric: a_ji = a_ij.
            self.r[j] -= aij * delta;
        }
        self.relaxations += 1;
        delta
    }

    /// Current residual norm (exact recomputation over the maintained `r`).
    #[inline]
    pub fn residual_norm(&self) -> f64 {
        vecops::norm2(&self.r)
    }

    /// Records a history sample now.
    pub fn sample(&mut self) {
        let norm = self.residual_norm();
        self.history.samples.push(crate::ScalarSample {
            relaxations: self.relaxations,
            residual_norm: norm,
        });
        // Saturating: `record_stride: u64::MAX` means "never sample again"
        // and must not wrap around.
        self.next_sample = self.relaxations.saturating_add(self.stride);
    }

    /// Records a sample if the stride has elapsed; returns the residual
    /// norm if a sample was taken.
    pub fn sample_if_due(&mut self) -> Option<f64> {
        if self.relaxations >= self.next_sample {
            self.sample();
            let last = self.history.samples.last();
            Some(last.expect("sample() just pushed").residual_norm)
        } else {
            None
        }
    }

    /// Marks a parallel-step boundary and records a sample.
    pub fn end_parallel_step(&mut self) -> f64 {
        self.history.step_boundaries.push(self.relaxations);
        self.sample();
        let last = self.history.samples.last();
        last.expect("sample() just pushed").residual_norm
    }

    /// Finalizes the history and returns `(x, history)`.
    pub fn finish(mut self) -> (Vec<f64>, crate::ScalarHistory) {
        if self
            .history
            .samples
            .last()
            .map(|s| s.relaxations != self.relaxations)
            .unwrap_or(true)
        {
            self.sample();
        }
        self.history.total_relaxations = self.relaxations;
        self.history.final_residual = self
            .history
            .samples
            .last()
            .expect("finish() samples when the history is empty")
            .residual_norm;
        (self.x, self.history)
    }
}

/// Returns `true` if, under the Parallel Southwell criterion with
/// rank-id tie-breaking, the owner of `mine` beats a neighbor with
/// magnitude `theirs` and index `their_idx`.
#[inline]
pub(crate) fn beats(mine: f64, my_idx: usize, theirs: f64, their_idx: usize) -> bool {
    mine > theirs || (mine == theirs && my_idx < their_idx)
}

#[cfg(test)]
pub(crate) mod test_support {
    use dsw_sparse::dense::Cholesky;
    use dsw_sparse::gen;
    use dsw_sparse::CsrMatrix;

    /// A small SPD test system with a known solution.
    pub fn poisson_system(nx: usize, ny: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = gen::grid2d_poisson(nx, ny);
        let n = a.nrows();
        let b = gen::random_rhs(n, 42);
        let x_true = Cholesky::factor_csr(&a).unwrap().solve(&b);
        (a, b, x_true)
    }

    pub fn error_norm(x: &[f64], x_true: &[f64]) -> f64 {
        x.iter()
            .zip(x_true)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Index of the entry with the largest magnitude, ties toward the
    /// smallest index: the row a greedy Southwell step must relax.
    pub fn argmax_abs(x: &[f64]) -> usize {
        let mut best = 0;
        for (i, v) in x.iter().enumerate() {
            if v.abs() > x[best].abs() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_sparse::gen;

    #[test]
    fn relax_row_zeroes_its_residual() {
        let a = gen::grid2d_poisson(3, 3);
        let b = gen::random_rhs(9, 1);
        let opts = ScalarOptions::sweeps(9, 1.0);
        let mut st = ScalarState::new(&a, &b, &[0.0; 9], &opts);
        st.relax_row(4);
        assert!(st.r[4].abs() < 1e-15);
        // The maintained residual still equals b - Ax.
        let exact = a.residual(&b, &st.x);
        for (m, e) in st.r.iter().zip(&exact) {
            assert!((m - e).abs() < 1e-14);
        }
    }

    #[test]
    fn history_sampling_and_boundaries() {
        let a = gen::grid2d_poisson(4, 4);
        let b = gen::random_rhs(16, 2);
        let opts = ScalarOptions {
            max_relaxations: 100,
            target_residual: None,
            record_stride: 4,
            seed: 0,
        };
        let mut st = ScalarState::new(&a, &b, &[0.0; 16], &opts);
        for i in 0..8 {
            st.relax_row(i % 16);
            st.sample_if_due();
        }
        st.end_parallel_step();
        let (_, h) = st.finish();
        assert_eq!(h.total_relaxations, 8);
        assert_eq!(h.step_boundaries, vec![8]);
        assert!(h.samples.first().unwrap().relaxations == 0);
        assert!(h.samples.last().unwrap().relaxations == 8);
    }

    #[test]
    fn beats_tie_breaking() {
        assert!(beats(1.0, 5, 0.5, 2));
        assert!(beats(1.0, 2, 1.0, 5));
        assert!(!beats(1.0, 5, 1.0, 2));
        assert!(!beats(0.5, 0, 1.0, 1));
    }
}
