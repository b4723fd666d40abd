//! Small dense matrices with a Cholesky factorization.
//!
//! Used for exact coarse-grid solves in the multigrid hierarchy and as the
//! reference solver the test suite validates iterative methods against.

use crate::{CsrMatrix, Result, SparseError};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Builds from a row-major buffer.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != nrows * ncols {
            return Err(SparseError::Shape(format!(
                "dense buffer length {} != {}x{}",
                data.len(),
                nrows,
                ncols
            )));
        }
        Ok(DenseMatrix { nrows, ncols, data })
    }

    /// Densifies a sparse matrix.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        DenseMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            data: a.to_dense(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] = v;
    }

    /// Dense matrix–vector product.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.ncols..(i + 1) * self.ncols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// A Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
/// matrix, stored as the lower triangle `L`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Lower triangle, row-major over the full `n × n` layout.
    l: Vec<f64>,
}

impl Cholesky {
    /// Factors a dense SPD matrix. Fails if a pivot is not strictly positive
    /// (i.e. the matrix is not numerically positive definite).
    pub fn factor(a: &DenseMatrix) -> Result<Self> {
        if a.nrows != a.ncols {
            return Err(SparseError::Shape("Cholesky of non-square matrix".into()));
        }
        let n = a.nrows;
        let mut l = a.data.clone();
        for j in 0..n {
            // Diagonal pivot.
            let mut d = l[j * n + j];
            for k in 0..j {
                d -= l[j * n + k] * l[j * n + k];
            }
            if d <= 0.0 {
                return Err(SparseError::Numeric(format!(
                    "non-positive pivot {d} at column {j}: matrix not SPD"
                )));
            }
            let d = d.sqrt();
            l[j * n + j] = d;
            for i in (j + 1)..n {
                let mut s = l[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = s / d;
            }
        }
        // Zero the strict upper triangle so the factor is unambiguous.
        for i in 0..n {
            for j in (i + 1)..n {
                l[i * n + j] = 0.0;
            }
        }
        Ok(Cholesky { n, l })
    }

    /// Factors a sparse SPD matrix by densifying (small systems only).
    pub fn factor_csr(a: &CsrMatrix) -> Result<Self> {
        Self::factor(&DenseMatrix::from_csr(a))
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` in place using forward then backward substitution.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward: L y = b.
        for i in 0..n {
            let mut s = b[i];
            for (k, bk) in b.iter().enumerate().take(i) {
                s -= self.l[i * n + k] * bk;
            }
            b[i] = s / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for (k, bk) in b.iter().enumerate().take(n).skip(i + 1) {
                s -= self.l[k * n + i] * bk;
            }
            b[i] = s / self.l[i * n + i];
        }
    }

    /// Allocating solve.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooBuilder;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_row_major(3, 3, vec![4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0])
            .unwrap()
    }

    #[test]
    fn cholesky_solves_spd() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = ch.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(Cholesky::factor(&a), Err(SparseError::Numeric(_))));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = DenseMatrix::from_row_major(2, 3, vec![0.0; 6]).unwrap();
        assert!(matches!(Cholesky::factor(&a), Err(SparseError::Shape(_))));
    }

    #[test]
    fn factor_csr_matches_dense_path() {
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 4.0);
        }
        b.push_sym(0, 1, -1.0);
        b.push_sym(1, 2, -1.0);
        let a = b.build().unwrap();
        let ch = Cholesky::factor_csr(&a).unwrap();
        let x_true = vec![0.25, 1.0, -1.5];
        let bvec = a.mul_vec(&x_true);
        let x = ch.solve(&bvec);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_from_buffer_validates_shape() {
        assert!(DenseMatrix::from_row_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn dense_mul_vec() {
        let a = spd3();
        let y = a.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 2.0, 3.0]);
    }
}
