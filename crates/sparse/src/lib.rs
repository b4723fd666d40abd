//! Sparse-matrix substrate for the Distributed Southwell reproduction.
//!
//! This crate provides everything the solvers need from a linear-algebra
//! layer, implemented from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with a COO builder,
//!   sparse matrix–vector products, transposition, and the symmetric
//!   unit-diagonal scaling the paper applies to every test matrix,
//! * [`dense`] — a small dense matrix type with a Cholesky factorization,
//!   used for exact coarse-grid and reference solves,
//! * [`gen`] — generators for the model problems of the paper (2D/3D
//!   Poisson finite differences, an irregular-triangulation P1 finite
//!   element Poisson matrix, anisotropic grids) and for FE-style
//!   clique-assembled SPD matrices with a tunable coupling strength,
//! * [`suite`] — the synthetic stand-in registry for the paper's 14
//!   SuiteSparse test matrices (Table 1),
//! * [`io`] — Matrix Market (`.mtx`) reading and writing,
//! * [`vecops`] — the handful of dense-vector kernels the solvers use.
#![cfg_attr(feature = "nightly-simd", feature(portable_simd))]
// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod analysis;
pub mod csr;
pub mod dense;
pub mod gen;
pub mod io;
pub mod io_bin;
pub mod krylov;
pub mod suite;
pub mod vecops;

pub use csr::{CooBuilder, CsrMatrix};
pub use dense::DenseMatrix;

/// Errors produced by the sparse substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A matrix dimension or index was inconsistent.
    Shape(String),
    /// The matrix was structurally or numerically unsuitable
    /// (e.g. a zero diagonal where a positive one is required).
    Numeric(String),
    /// A Matrix Market file could not be parsed.
    Parse(String),
    /// An I/O error, stringified (keeps the error type `Clone + PartialEq`).
    Io(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Shape(m) => write!(f, "shape error: {m}"),
            SparseError::Numeric(m) => write!(f, "numeric error: {m}"),
            SparseError::Parse(m) => write!(f, "parse error: {m}"),
            SparseError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
