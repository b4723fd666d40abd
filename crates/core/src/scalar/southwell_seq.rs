//! The Sequential Southwell method.

use super::{ScalarOptions, ScalarState};
use crate::ScalarHistory;
use dsw_sparse::CsrMatrix;
use std::collections::BinaryHeap;

/// A max-heap entry ordered by `|r|`, with a version stamp for lazy
/// invalidation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    mag: f64,
    row: usize,
    version: u64,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max by magnitude; ties broken toward the smaller row index so the
        // method is deterministic.
        self.mag
            .total_cmp(&other.mag)
            .then_with(|| other.row.cmp(&self.row))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sequential Southwell (Gauss–Southwell): each step relaxes the single
/// row with the largest residual magnitude (§2.2 of the paper). Implemented
/// with a lazily-invalidated max-heap, so each relaxation costs
/// `O(deg · log n)` instead of the `O(n)` scan that made the method
/// unpopular on early computers.
///
/// Since the paper scales every matrix to unit diagonal, `max |r_i|` and
/// the Gauss–Southwell rule `max |r_i / a_ii|` coincide.
pub fn sequential_southwell(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &ScalarOptions,
) -> (Vec<f64>, ScalarHistory) {
    let n = a.nrows();
    let mut st = ScalarState::new(a, b, x0, opts);
    let mut version = vec![0u64; n];
    let mut heap: BinaryHeap<HeapEntry> = (0..n)
        .map(|row| HeapEntry {
            mag: st.r[row].abs(),
            row,
            version: 0,
        })
        .collect();

    while st.relaxations < opts.max_relaxations {
        // Pop until a current entry emerges.
        let top = loop {
            match heap.pop() {
                Some(e) if e.version == version[e.row] => break Some(e),
                Some(_) => continue,
                None => break None,
            }
        };
        let Some(top) = top else { break };
        if top.mag == 0.0 {
            break; // exact solution reached
        }
        st.relax_row(top.row);
        // Re-stamp and re-push every touched row (the relaxed row and its
        // neighbors all changed residuals).
        for (j, _) in a.row(top.row) {
            version[j] += 1;
            heap.push(HeapEntry {
                mag: st.r[j].abs(),
                row: j,
                version: version[j],
            });
        }
        if let Some(norm) = st.sample_if_due() {
            if let Some(t) = opts.target_residual {
                if norm <= t {
                    break;
                }
            }
        }
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::test_support::{argmax_abs, error_norm, poisson_system};
    use crate::scalar::{gauss_seidel, ScalarOptions};

    #[test]
    fn southwell_converges_on_poisson() {
        let (a, b, x_true) = poisson_system(8, 8);
        let n = a.nrows();
        let opts = ScalarOptions {
            max_relaxations: 500 * n as u64,
            target_residual: Some(1e-9),
            record_stride: 1,
            seed: 0,
        };
        let (x, h) = sequential_southwell(&a, &b, &vec![0.0; n], &opts);
        assert!(h.final_residual <= 1e-9);
        assert!(error_norm(&x, &x_true) < 1e-7);
    }

    #[test]
    fn southwell_always_relaxes_the_max_row() {
        // Check directly against a brute-force argmax on a few steps.
        let (a, b, _) = poisson_system(5, 5);
        let n = a.nrows();
        let mut x = vec![0.0; n];
        let mut r = a.residual(&b, &x);
        for _ in 0..20 {
            let imax = argmax_abs(&r);
            // One step of the solver from this state must relax imax: emulate
            // by running with max_relaxations = 1 from (x, r).
            let opts = ScalarOptions {
                max_relaxations: 1,
                target_residual: None,
                record_stride: 1,
                seed: 0,
            };
            let (x1, _) = sequential_southwell(&a, &b, &x, &opts);
            // Only x[imax] changed.
            let changed: Vec<usize> = (0..n).filter(|&i| x1[i] != x[i]).collect();
            assert_eq!(changed, vec![imax]);
            x = x1;
            r = a.residual(&b, &x);
        }
    }

    #[test]
    fn southwell_beats_gs_at_low_accuracy() {
        // The paper's headline for Fig. 2: Southwell needs roughly half the
        // relaxations of GS to reach residual norm 0.6 from a random RHS.
        let a = dsw_sparse::gen::fe::fe_poisson(dsw_sparse::gen::fe::FeMeshOptions {
            nx: 20,
            ny: 20,
            jitter: 0.25,
            seed: 1,
        });
        let n = a.nrows();
        let mut b = dsw_sparse::gen::random_rhs(n, 7);
        dsw_sparse::vecops::normalize(&mut b);
        let opts = ScalarOptions {
            max_relaxations: 3 * n as u64,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let x0 = vec![0.0; n];
        let (_, hsw) = sequential_southwell(&a, &b, &x0, &opts);
        let (_, hgs) = gauss_seidel(&a, &b, &x0, &opts);
        let sw = hsw.relaxations_to_reach(0.6).expect("SW reaches 0.6");
        let gs = hgs.relaxations_to_reach(0.6).expect("GS reaches 0.6");
        assert!(
            sw < 0.8 * gs,
            "SW should need far fewer relaxations: sw={sw}, gs={gs}"
        );
    }

    #[test]
    fn stops_on_exact_zero_residual() {
        // Solve a 1x1 system: one relaxation zeroes the residual, after
        // which the solver must stop on its own.
        let a = CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![1.0]).unwrap();
        let opts = ScalarOptions {
            max_relaxations: 100,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let (x, h) = sequential_southwell(&a, &[2.0], &[0.0], &opts);
        assert_eq!(x, vec![2.0]);
        assert!(h.total_relaxations <= 1);
    }
}
