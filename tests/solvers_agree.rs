//! Cross-solver agreement: the direct solver, conjugate gradients,
//! geometric multigrid, and the Southwell family must all find the same
//! solution of the same system — and reordering the unknowns must not
//! change it.

use distributed_southwell::core::scalar::{self, ScalarOptions};
use distributed_southwell::multigrid::{Multigrid, Smoother};
use distributed_southwell::sparse::dense::Cholesky;
use distributed_southwell::sparse::krylov::{conjugate_gradient, CgOptions};
use distributed_southwell::sparse::{gen, vecops, CooBuilder};

fn err(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q) * (p - q))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn direct_cg_multigrid_and_southwell_agree() {
    let dim = 15;
    let a = gen::grid2d_poisson(dim, dim);
    let n = a.nrows();
    let b = gen::random_rhs(n, 33);

    let x_direct = Cholesky::factor_csr(&a).unwrap().solve(&b);
    let x_cg = conjugate_gradient(
        &a,
        &b,
        &vec![0.0; n],
        &CgOptions {
            max_iters: 2000,
            rel_tolerance: 1e-12,
        },
    )
    .x;
    let (x_mg, _) = Multigrid::new(dim, Smoother::gauss_seidel(1.0)).solve(&b, 25);
    let opts = ScalarOptions {
        max_relaxations: 5000 * n as u64,
        target_residual: Some(1e-12),
        record_stride: n as u64,
        seed: 0,
    };
    let x_ds = scalar::distributed_southwell_scalar(&a, &b, &vec![0.0; n], &opts).x;

    assert!(
        err(&x_cg, &x_direct) < 1e-9,
        "CG vs direct: {}",
        err(&x_cg, &x_direct)
    );
    assert!(
        err(&x_mg, &x_direct) < 1e-9,
        "MG vs direct: {}",
        err(&x_mg, &x_direct)
    );
    assert!(
        err(&x_ds, &x_direct) < 1e-9,
        "DS vs direct: {}",
        err(&x_ds, &x_direct)
    );
}

#[test]
fn southwell_on_reordered_matrix_converges_identically_well() {
    // The Southwell criterion is ordering-aware only through tie-breaks;
    // reordering must not change the convergence *quality*.
    let a = gen::grid2d_poisson(10, 10);
    let n = a.nrows();
    let b = gen::random_rhs(n, 35);
    let opts = ScalarOptions {
        max_relaxations: 3 * n as u64,
        target_residual: None,
        record_stride: 1,
        seed: 0,
    };
    let (_, h1) = scalar::parallel_southwell(&a, &b, &vec![0.0; n], &opts);

    // Symmetric stride permutation: new row `i` is old row `37 i mod n`.
    let old_of = |new: usize| (37 * new) % n;
    let mut new_of = vec![0; n];
    for new in 0..n {
        new_of[old_of(new)] = new;
    }
    let mut coo = CooBuilder::new(n, n);
    for new_i in 0..n {
        for (old_j, v) in a.row(old_of(new_i)) {
            coo.push(new_i, new_of[old_j], v);
        }
    }
    let ap = coo.build().unwrap();
    let bp: Vec<f64> = (0..n).map(|new| b[old_of(new)]).collect();
    let (_, h2) = scalar::parallel_southwell(&ap, &bp, &vec![0.0; n], &opts);
    // Same budget, same ballpark result (tie-breaking differs slightly).
    assert!(
        (h1.final_residual - h2.final_residual).abs()
            < 0.5 * h1.final_residual.max(h2.final_residual),
        "reordering changed convergence too much: {} vs {}",
        h1.final_residual,
        h2.final_residual
    );
}

#[test]
fn cg_beats_stationary_methods_on_iterations_to_high_accuracy() {
    // Sanity: the reference Krylov solver is the right gold standard.
    let a = gen::grid2d_poisson(20, 20);
    let n = a.nrows();
    let b = gen::random_rhs(n, 36);
    let cg = conjugate_gradient(
        &a,
        &b,
        &vec![0.0; n],
        &CgOptions {
            max_iters: 10_000,
            rel_tolerance: 1e-10,
        },
    );
    assert!(cg.converged);
    let cg_sweep_equivalents = cg.residual_history.len(); // one spmv each
    let opts = ScalarOptions {
        max_relaxations: 2000 * n as u64,
        target_residual: Some(1e-10 * vecops::norm2(&b)),
        record_stride: n as u64,
        seed: 0,
    };
    let (_, gs) = scalar::gauss_seidel(&a, &b, &vec![0.0; n], &opts);
    let gs_sweeps = gs.total_relaxations / n as u64;
    assert!(
        (cg_sweep_equivalents as u64) < gs_sweeps,
        "CG {} sweeps !< GS {} sweeps",
        cg_sweep_equivalents,
        gs_sweeps
    );
}
