//! The Parallel Southwell method (scalar form).

use super::{beats, ScalarOptions, ScalarState};
use crate::ScalarHistory;
use dsw_sparse::CsrMatrix;

/// Parallel Southwell: in each parallel step, row `i` is relaxed if
/// `|r_i|` is maximal in its neighborhood `{Γ_i, |r_i|}` (§2.3 of the
/// paper). Ties are broken toward the smaller row index, which makes the
/// selected set independent: two coupled rows are never relaxed together,
/// so the step equals a fragment of Gauss–Seidel and the SPD convergence
/// guarantee is preserved.
pub fn parallel_southwell(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &ScalarOptions,
) -> (Vec<f64>, ScalarHistory) {
    let n = a.nrows();
    let mut st = ScalarState::new(a, b, x0, opts);
    let mut selected: Vec<usize> = Vec::new();

    loop {
        // Selection against a consistent snapshot of |r|.
        selected.clear();
        'rows: for i in 0..n {
            let mine = st.r[i].abs();
            if mine == 0.0 {
                continue;
            }
            for (j, _) in a.row(i) {
                if j != i && !beats(mine, i, st.r[j].abs(), j) {
                    continue 'rows;
                }
            }
            selected.push(i);
        }
        if selected.is_empty() {
            break; // converged exactly (all residuals zero)
        }
        if st.relaxations + selected.len() as u64 > opts.max_relaxations {
            break;
        }
        // The selected set is independent, so sequential application of the
        // row relaxations equals simultaneous application.
        for &i in &selected {
            st.relax_row(i);
        }
        let norm = st.end_parallel_step();
        if let Some(t) = opts.target_residual {
            if norm <= t {
                break;
            }
        }
    }
    st.finish()
}

/// Returns the rows that satisfy the Parallel Southwell criterion for the
/// residual snapshot `r` (exposed for tests and the Figure 1 illustration).
pub fn southwell_selection(a: &CsrMatrix, r: &[f64]) -> Vec<usize> {
    let n = a.nrows();
    let mut out = Vec::new();
    'rows: for i in 0..n {
        let mine = r[i].abs();
        if mine == 0.0 {
            continue;
        }
        for (j, _) in a.row(i) {
            if j != i && !beats(mine, i, r[j].abs(), j) {
                continue 'rows;
            }
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::test_support::{argmax_abs, error_norm, poisson_system};

    #[test]
    fn selection_is_independent_set() {
        let (a, b, _) = poisson_system(8, 8);
        let x = vec![0.0; a.nrows()];
        let r = a.residual(&b, &x);
        let sel = southwell_selection(&a, &r);
        assert!(!sel.is_empty());
        for &i in &sel {
            for (j, _) in a.row(i) {
                if j != i {
                    assert!(!sel.contains(&j), "coupled rows {i},{j} both selected");
                }
            }
        }
    }

    #[test]
    fn selection_contains_global_max() {
        let (a, b, _) = poisson_system(7, 6);
        let x = vec![0.0; a.nrows()];
        let r = a.residual(&b, &x);
        let imax = argmax_abs(&r);
        let sel = southwell_selection(&a, &r);
        assert!(sel.contains(&imax));
    }

    #[test]
    fn par_southwell_converges_on_poisson() {
        let (a, b, x_true) = poisson_system(8, 8);
        let n = a.nrows();
        let opts = ScalarOptions {
            max_relaxations: 500 * n as u64,
            target_residual: Some(1e-9),
            record_stride: 1,
            seed: 0,
        };
        let (x, h) = parallel_southwell(&a, &b, &vec![0.0; n], &opts);
        assert!(h.final_residual <= 1e-9);
        assert!(error_norm(&x, &x_true) < 1e-7);
        // Parallel steps relax several rows each.
        assert!(h.parallel_steps() > 0);
        assert!((h.total_relaxations as usize) > h.parallel_steps());
    }

    #[test]
    fn par_southwell_converges_on_strong_coupling() {
        let mut a = dsw_sparse::gen::clique_grid2d(
            8,
            8,
            dsw_sparse::gen::CliqueOptions {
                coupling: 0.8,
                weight_jump: 0.0,
                seed: 0,
                hot_fraction: 0.0,
                hot_coupling: 0.0,
            },
        );
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        let x0 = dsw_sparse::gen::random_guess(n, 3);
        let opts = ScalarOptions {
            max_relaxations: 2000 * n as u64,
            target_residual: Some(1e-8),
            record_stride: 1,
            seed: 0,
        };
        let (_, h) = parallel_southwell(&a, &b, &x0, &opts);
        assert!(h.final_residual <= 1e-8, "final {}", h.final_residual);
    }

    #[test]
    fn tracks_sequential_southwell_early() {
        // Fig. 2: Parallel Southwell converges almost as fast per relaxation
        // as Sequential Southwell at low accuracy.
        let a = dsw_sparse::gen::fe::fe_poisson(dsw_sparse::gen::fe::FeMeshOptions {
            nx: 20,
            ny: 20,
            jitter: 0.25,
            seed: 1,
        });
        let n = a.nrows();
        let b = dsw_sparse::gen::random_rhs(n, 7);
        let opts = ScalarOptions {
            max_relaxations: 3 * n as u64,
            target_residual: None,
            record_stride: 1,
            seed: 0,
        };
        let x0 = vec![0.0; n];
        let (_, hp) = parallel_southwell(&a, &b, &x0, &opts);
        let (_, hs) = crate::scalar::sequential_southwell(&a, &b, &x0, &opts);
        let rp = hp.relaxations_to_reach(0.6).unwrap();
        let rs = hs.relaxations_to_reach(0.6).unwrap();
        assert!(rp < 1.8 * rs, "ParSW {rp} vs SeqSW {rs}");
    }
}
