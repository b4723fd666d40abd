//! Matrix analysis: the structural and spectral quantities that predict
//! how the methods in this workspace behave.
//!
//! The headline diagnostic is [`jacobi_spectral_radius`]: for an SPD matrix
//! scaled to unit diagonal, (point) Jacobi converges iff
//! `ρ(I − A) < 1`, and Block Jacobi's behaviour interpolates between that
//! and Gauss–Seidel as the blocks grow — the mechanism behind the paper's
//! Figure 9. The suite generators in [`crate::suite`] are tuned against
//! these numbers.

use crate::{vecops, CsrMatrix};

/// Summary statistics of a (square, structurally symmetric) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Rows.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Mean nonzeros per row.
    pub avg_row_nnz: f64,
    /// Maximum nonzeros in any row.
    pub max_row_nnz: usize,
    /// Matrix bandwidth.
    pub bandwidth: usize,
    /// Fraction of rows that are strictly diagonally dominant.
    pub diag_dominant_fraction: f64,
    /// Smallest value of `|a_ii| − Σ_{j≠i} |a_ij|` over all rows
    /// (negative when some row is not diagonally dominant).
    pub min_dominance_margin: f64,
    /// Fraction of off-diagonal entries that are positive (clique-assembled
    /// matrices have 1.0; Poisson matrices 0.0).
    pub positive_offdiag_fraction: f64,
}

/// Computes [`MatrixStats`].
pub fn matrix_stats(a: &CsrMatrix) -> MatrixStats {
    let n = a.nrows();
    let mut max_row_nnz = 0;
    let mut dominant = 0usize;
    let mut min_margin = f64::INFINITY;
    let mut pos_off = 0usize;
    let mut off_total = 0usize;
    for i in 0..n {
        let cols = a.row_cols(i);
        let vals = a.row_values(i);
        max_row_nnz = max_row_nnz.max(cols.len());
        let mut diag = 0.0f64;
        let mut off_sum = 0.0f64;
        for (&j, &v) in cols.iter().zip(vals) {
            if j == i {
                diag = v.abs();
            } else {
                off_sum += v.abs();
                off_total += 1;
                if v > 0.0 {
                    pos_off += 1;
                }
            }
        }
        let margin = diag - off_sum;
        min_margin = min_margin.min(margin);
        if margin > 0.0 {
            dominant += 1;
        }
    }
    MatrixStats {
        n,
        nnz: a.nnz(),
        avg_row_nnz: a.nnz() as f64 / n as f64,
        max_row_nnz,
        bandwidth: bandwidth(a),
        diag_dominant_fraction: dominant as f64 / n as f64,
        min_dominance_margin: min_margin,
        positive_offdiag_fraction: if off_total == 0 {
            0.0
        } else {
            pos_off as f64 / off_total as f64
        },
    }
}

/// Matrix bandwidth: `max |i − j|` over stored entries.
fn bandwidth(a: &CsrMatrix) -> usize {
    let mut bw = 0usize;
    for i in 0..a.nrows() {
        for &j in a.row_cols(i) {
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

/// Estimates the spectral radius of the point-Jacobi iteration matrix
/// `G = I − D⁻¹A` by power iteration (`iters` steps from a deterministic
/// pseudo-random start). For symmetric unit-diagonal matrices `G` is
/// symmetric, so the power method converges to `ρ(G)`; Jacobi converges
/// iff the result is below 1.
pub fn jacobi_spectral_radius(a: &CsrMatrix, iters: usize) -> f64 {
    let n = a.nrows();
    let diag = a.diagonal().expect("square matrix");
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9e3779b97f4a7c15) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    vecops::normalize(&mut v);
    let mut lambda: f64 = 0.0;
    let mut av = vec![0.0; n];
    for _ in 0..iters {
        // w = (I - D^{-1} A) v
        a.spmv(&v, &mut av);
        for i in 0..n {
            av[i] = v[i] - av[i] / diag[i];
        }
        lambda = vecops::norm2(&av);
        if lambda == 0.0 {
            return 0.0;
        }
        for i in 0..n {
            v[i] = av[i] / lambda;
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_poisson() {
        let a = gen::grid2d_poisson(6, 6);
        let s = matrix_stats(&a);
        assert_eq!(s.n, 36);
        assert_eq!(s.max_row_nnz, 5);
        assert_eq!(s.positive_offdiag_fraction, 0.0);
        // Boundary rows strictly dominant, interior rows weakly (margin 0).
        assert!(s.diag_dominant_fraction > 0.0);
        assert!(s.min_dominance_margin.abs() < 1e-12);
        assert_eq!(s.bandwidth, 6);
    }

    #[test]
    fn jacobi_radius_predicts_convergence() {
        // Poisson (unit-scaled): radius < 1.
        let mut p = gen::grid2d_poisson(10, 10);
        p.scale_unit_diagonal().unwrap();
        let rp = jacobi_spectral_radius(&p, 200);
        assert!(rp < 1.0, "poisson radius {rp}");
        // Strong clique coupling: radius > 1 (Jacobi diverges).
        let mut c = gen::clique_grid2d(
            10,
            10,
            gen::CliqueOptions {
                coupling: 0.8,
                ..Default::default()
            },
        );
        c.scale_unit_diagonal().unwrap();
        let rc = jacobi_spectral_radius(&c, 200);
        assert!(rc > 1.0, "clique radius {rc}");
        // Weak coupling: radius < 1.
        let mut w = gen::clique_grid2d(
            10,
            10,
            gen::CliqueOptions {
                coupling: 0.1,
                ..Default::default()
            },
        );
        w.scale_unit_diagonal().unwrap();
        let rw = jacobi_spectral_radius(&w, 200);
        assert!(rw < 1.0, "weak clique radius {rw}");
    }

    #[test]
    fn clique_matrices_have_positive_offdiagonals() {
        let a = gen::clique_grid3d(4, 4, 4, Default::default());
        let s = matrix_stats(&a);
        assert_eq!(s.positive_offdiag_fraction, 1.0);
        assert!(s.min_dominance_margin < 0.0, "cliques are not dominant");
    }
}
