//! Matrix and workload generators.
//!
//! Three families cover everything the paper's experiments need:
//!
//! * [`grid`] — finite-difference Poisson matrices (5-point 2D, 7-point 3D,
//!   anisotropic 2D). These are the multigrid model problem of §4.1 and the
//!   "Jacobi-friendly" end of the test suite.
//! * [`fe`] — a P1 finite-element Poisson matrix on an irregular (jittered,
//!   randomly-flipped) triangulation of the unit square: the "small finite
//!   element problem" of Figures 2 and 5.
//! * [`clique`] — FE-style clique-assembled SPD matrices with a tunable
//!   positive off-diagonal coupling `c`. For a `k`-clique element the matrix
//!   is `w·(I + c(J − I))`, SPD for `-1/(k-1) < c < 1`; the assembled,
//!   unit-diagonal-scaled matrix makes (Block) Jacobi diverge once `c`
//!   crosses a threshold that depends on the block size, which is exactly
//!   the knob needed to reproduce the paper's three Block Jacobi regimes
//!   (always converges / reaches 0.1 then diverges / diverges early).
//!
//! All generators are deterministic given their seed.

pub mod clique;
pub mod fe;
pub mod grid;

pub use clique::{clique_grid2d, clique_grid3d, fe_clique, CliqueOptions};
pub use fe::{fe_poisson, FeMeshOptions};
pub use grid::{anisotropic2d, grid2d_poisson, grid3d_poisson};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A right-hand side with entries sampled uniformly from `[-1, 1]`,
/// scaled so that `‖b‖₂ = 1` (the setup used for Figures 2 and 5).
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
    crate::vecops::normalize(&mut b);
    b
}

/// A random initial guess with entries uniform in `[-1, 1]` (unscaled).
/// The experiment harness rescales it so the *initial residual* has unit
/// norm, matching §4.2 ("scaled all initial guesses such that ‖r⁰‖₂ = 1").
pub fn random_guess(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_rhs_is_unit_norm_and_deterministic() {
        let b1 = random_rhs(100, 7);
        let b2 = random_rhs(100, 7);
        assert_eq!(b1, b2);
        assert!((crate::vecops::norm2(&b1) - 1.0).abs() < 1e-12);
        let b3 = random_rhs(100, 8);
        assert_ne!(b1, b3);
    }

    #[test]
    fn random_guess_in_range() {
        let x = random_guess(1000, 3);
        assert!(x.iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
