//! Compressed sparse row matrices and a coordinate-format builder.

use crate::{Result, SparseError};

/// A square or rectangular sparse matrix in compressed sparse row format.
///
/// Rows are stored contiguously; within each row, column indices are strictly
/// increasing. All solvers in this workspace assume this invariant, and
/// [`CooBuilder::build`] establishes it (summing duplicates).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, length `nnz`, sorted within each row.
    col_idx: Vec<usize>,
    /// Nonzero values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::Shape(format!(
                "row_ptr length {} != nrows+1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("len checked = nrows+1 >= 1") != col_idx.len()
        {
            return Err(SparseError::Shape(
                "row_ptr must start at 0 and end at nnz".into(),
            ));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::Shape("col_idx/values length mismatch".into()));
        }
        for i in 0..nrows {
            if row_ptr[i] > row_ptr[i + 1] {
                return Err(SparseError::Shape(format!(
                    "row_ptr not monotone at row {i}"
                )));
            }
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Shape(format!(
                        "columns not strictly increasing in row {i}"
                    )));
                }
            }
            if let Some(&c) = row.last() {
                if c >= ncols {
                    return Err(SparseError::Shape(format!(
                        "column index {c} out of bounds in row {i}"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer slice (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index slice.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Values slice.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Looks up entry `(i, j)` by binary search; zero if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&j) {
            Ok(k) => self.values[self.row_ptr[i] + k],
            Err(_) => 0.0,
        }
    }

    /// The diagonal as a dense vector (square matrices only).
    pub fn diagonal(&self) -> Result<Vec<f64>> {
        if self.nrows != self.ncols {
            return Err(SparseError::Shape("diagonal of non-square matrix".into()));
        }
        Ok((0..self.nrows).map(|i| self.get(i, i)).collect())
    }

    /// Dense `y = A x`.
    ///
    /// The per-row accumulation walks 4-entry chunks (bounds checks hoisted,
    /// products computed lane-wise) but folds the products into the
    /// accumulator in the original left-to-right order, so the result is
    /// bit-identical to the naive scalar loop.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            *yi = crate::vecops::gather_dot(&self.values[lo..hi], &self.col_idx[lo..hi], x);
        }
    }

    /// Allocating variant of [`CsrMatrix::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// Dense panel product `Y = A X` over row-major `k`-column panels.
    ///
    /// One CSR index walk serves all `k` columns; each output column is
    /// bit-identical to [`CsrMatrix::spmv`] on the extracted column (the
    /// per-row fold is [`crate::vecops::gather_dot_k`]).
    pub fn spmv_panel(&self, x_panel: &[f64], k: usize, y_panel: &mut [f64]) {
        assert_eq!(
            x_panel.len(),
            self.ncols * k,
            "spmv_panel: x length mismatch"
        );
        assert_eq!(
            y_panel.len(),
            self.nrows * k,
            "spmv_panel: y length mismatch"
        );
        if k == 0 {
            return;
        }
        for (i, yi) in y_panel.chunks_exact_mut(k).enumerate() {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            crate::vecops::gather_dot_k(
                &self.values[lo..hi],
                &self.col_idx[lo..hi],
                x_panel,
                k,
                yi,
            );
        }
    }

    /// The residual `r = b - A x`.
    pub fn residual(&self, b: &[f64], x: &[f64]) -> Vec<f64> {
        let mut r = self.mul_vec(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        r
    }

    /// Transpose (also used to obtain CSC access to the same matrix).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let c = self.col_idx[k];
                let dst = next[c];
                next[c] += 1;
                col_idx[dst] = i;
                values[dst] = self.values[k];
            }
        }
        // Rows of the transpose are filled in increasing original-row order,
        // so columns are already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns `true` if the matrix is structurally and numerically symmetric
    /// to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Symmetrically scales the matrix to unit diagonal:
    /// `A ← D^{-1/2} A D^{-1/2}` with `D = diag(A)`.
    ///
    /// This is the normalization the paper applies to every test matrix
    /// ("symmetrically scaled to have unit diagonal values"). Returns the
    /// scaling vector `d^{-1/2}` so right-hand sides / solutions can be
    /// mapped between the scaled and unscaled systems. Fails if any diagonal
    /// entry is not strictly positive.
    pub fn scale_unit_diagonal(&mut self) -> Result<Vec<f64>> {
        let diag = self.diagonal()?;
        let mut dinv_sqrt = Vec::with_capacity(diag.len());
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 {
                return Err(SparseError::Numeric(format!(
                    "non-positive diagonal {d} at row {i}; cannot unit-scale"
                )));
            }
            dinv_sqrt.push(1.0 / d.sqrt());
        }
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                self.values[k] *= dinv_sqrt[i] * dinv_sqrt[self.col_idx[k]];
            }
        }
        Ok(dinv_sqrt)
    }

    /// Extracts the principal submatrix on `rows` (which must be sorted and
    /// unique), relabelling indices to `0..rows.len()`.
    pub fn principal_submatrix(&self, rows: &[usize]) -> CsrMatrix {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let mut global_to_local = vec![usize::MAX; self.ncols];
        for (local, &g) in rows.iter().enumerate() {
            global_to_local[g] = local;
        }
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for &g in rows {
            for k in self.row_ptr[g]..self.row_ptr[g + 1] {
                let lc = global_to_local[self.col_idx[k]];
                if lc != usize::MAX {
                    col_idx.push(lc);
                    values.push(self.values[k]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: rows.len(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to a dense row-major buffer (tests and small solves only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            for (j, v) in self.row(i) {
                out[i * self.ncols + j] = v;
            }
        }
        out
    }
}

/// A coordinate-format accumulator used to assemble matrices.
///
/// Duplicate entries are summed on [`CooBuilder::build`], which is exactly
/// the semantics finite-element assembly needs.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Creates a builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates a builder with a capacity hint.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooBuilder {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of accumulated (possibly duplicate) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    /// If `(i, j)` is out of bounds — in release builds too. A silent
    /// out-of-range entry would otherwise ride along until `build`
    /// (or corrupt assembly logic that reads `entries` back), so the
    /// bounds check is unconditional.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "entry ({i},{j}) out of bounds for {}x{} builder",
            self.nrows,
            self.ncols
        );
        self.entries.push((i, j, v));
    }

    /// Adds `v` at `(i, j)` and `(j, i)` (off-diagonal symmetric pair).
    pub fn push_sym(&mut self, i: usize, j: usize, v: f64) {
        self.push(i, j, v);
        if i != j {
            self.push(j, i, v);
        }
    }

    /// Builds the CSR matrix, sorting entries and summing duplicates.
    /// Entries that sum to exactly zero are kept (pattern-preserving).
    pub fn build(mut self) -> Result<CsrMatrix> {
        self.entries.sort_unstable_by_key(|e| (e.0, e.1));
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        let mut prev: Option<(usize, usize)> = None;
        for &(i, j, v) in &self.entries {
            if i >= self.nrows || j >= self.ncols {
                return Err(SparseError::Shape(format!("entry ({i},{j}) out of bounds")));
            }
            if prev == Some((i, j)) {
                *values.last_mut().expect("prev set implies a pushed value") += v;
                continue;
            }
            prev = Some((i, j));
            col_idx.push(j);
            values.push(v);
            row_ptr[i + 1] += 1;
        }
        // The per-row counts in row_ptr[1..] become offsets by prefix sum.
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix::from_parts(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 2.0);
        }
        b.push_sym(0, 1, -1.0);
        b.push_sym(1, 2, -1.0);
        b.build().unwrap()
    }

    #[test]
    fn builder_sorts_and_sums_duplicates() {
        let mut b = CooBuilder::new(2, 2);
        b.push(1, 0, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 0, 3.0);
        b.push(0, 1, -1.0);
        let a = b.build().unwrap();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(1, 0), 4.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn builder_rejects_out_of_bounds() {
        let mut b = CooBuilder::new(2, 2);
        b.entries.push((5, 0, 1.0)); // bypass push's check
        assert!(matches!(b.build(), Err(SparseError::Shape(_))));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_bounds_check_is_unconditional() {
        // Regression: this was a debug_assert!, so release builds silently
        // accepted garbage indices until build() (or never, for callers
        // reading entries back). It must abort in every profile.
        let mut b = CooBuilder::new(2, 2);
        b.push(5, 0, 1.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.mul_vec(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn residual_is_b_minus_ax() {
        let a = small();
        let x = vec![1.0, 1.0, 1.0];
        let b = vec![1.0, 0.0, 1.0];
        let r = a.residual(&b, &x);
        assert_eq!(r, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let a = small();
        let t = a.transpose();
        assert_eq!(a, t);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn transpose_rectangular() {
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 2, 5.0);
        b.push(1, 0, 7.0);
        let a = b.build().unwrap();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 1), 7.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn unit_diagonal_scaling() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 4.0);
        b.push(1, 1, 9.0);
        b.push_sym(0, 1, -1.0);
        let mut a = b.build().unwrap();
        let d = a.scale_unit_diagonal().unwrap();
        assert_eq!(d, vec![0.5, 1.0 / 3.0]);
        assert!((a.get(0, 0) - 1.0).abs() < 1e-15);
        assert!((a.get(1, 1) - 1.0).abs() < 1e-15);
        assert!((a.get(0, 1) + 1.0 / 6.0).abs() < 1e-15);
        assert!(a.is_symmetric(1e-15));
    }

    #[test]
    fn scaling_rejects_nonpositive_diagonal() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(1, 1, -2.0);
        let mut a = b.build().unwrap();
        assert!(matches!(
            a.scale_unit_diagonal(),
            Err(SparseError::Numeric(_))
        ));
    }

    #[test]
    fn principal_submatrix_extracts_block() {
        let a = small();
        let s = a.principal_submatrix(&[0, 2]);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 1), 2.0);
        assert_eq!(s.get(0, 1), 0.0);
        let s2 = a.principal_submatrix(&[1, 2]);
        assert_eq!(s2.get(0, 1), -1.0);
    }

    #[test]
    fn identity_acts_as_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![3.0, -1.0, 0.5, 2.0];
        assert_eq!(i.mul_vec(&x), x);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let a = small();
        assert_eq!(a.get(0, 2), 0.0);
    }

    #[test]
    fn from_parts_validates() {
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 2], vec![0, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let a = small();
        let d = a.to_dense();
        assert_eq!(d[0], 2.0);
        assert_eq!(d[1], -1.0);
        assert_eq!(d[5], -1.0);
        assert_eq!(d[8], 2.0);
    }
}
