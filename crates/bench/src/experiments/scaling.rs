//! Figures 8 and 9: strong scaling over the rank count.
//!
//! Figure 8 plots the (modelled) wall-clock time to reach ‖r‖₂ = 0.1 as a
//! function of the number of ranks; a missing point means the method never
//! reached the target within 50 parallel steps. Figure 9 plots the
//! residual norm after exactly 50 parallel steps — values above 1 mean the
//! method diverged. The paper sweeps 32…8192 MPI processes over 0.4M–1.6M
//! rows; we sweep 8…512 simulated ranks over the scaled-down stand-ins,
//! preserving the subdomain-size regime (see DESIGN.md).

use crate::harness::{fmt_or_dagger, setup_problem, suite_partition, write_csv, ExperimentCtx};
use dsw_core::dist::{run_method, DistOptions, DistReport, Method};
use dsw_sparse::suite::by_name;

/// The six matrices the paper plots in Figures 8 and 9.
pub const SCALING_MATRICES: [&str; 6] = [
    "Flan_1565",
    "ldoor",
    "StocF-1465",
    "inline_1",
    "bone010",
    "Hook_1498",
];

/// One (matrix, ranks, method) measurement.
pub struct ScalingPoint {
    /// Matrix name.
    pub matrix: &'static str,
    /// Rank count.
    pub ranks: usize,
    /// Method.
    pub method: Method,
    /// Modelled seconds to reach 0.1 (`None` = not reached in 50 steps).
    pub time_to_target: Option<f64>,
    /// Residual norm after the full 50 steps.
    pub residual_after_50: f64,
}

/// Rank counts for the sweep at a given context scale.
pub fn rank_sweep(ctx: &ExperimentCtx) -> Vec<usize> {
    let full = [8usize, 16, 32, 64, 128, 256, 512];
    if ctx.scale >= 1.0 {
        full.to_vec()
    } else {
        vec![4, 8, 16, 32]
    }
}

/// Runs the sweep shared by Figures 8 and 9.
fn scaling_points(ctx: &ExperimentCtx) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    for name in SCALING_MATRICES {
        let e = by_name(name).expect("matrix in suite");
        let a = ctx.build_suite_matrix(&e);
        let prob = setup_problem(a, 0x5CA1E + e.paper_nnz);
        for &p in &rank_sweep(ctx) {
            // Tiny smoke-scale stand-ins can have fewer rows than the rank
            // count; clamp so every rank owns at least a few rows.
            let p = p.min((prob.n() / 4).max(1));
            let part = suite_partition(&prob.a, p, 1);
            for m in [
                Method::BlockJacobi,
                Method::ParallelSouthwell,
                Method::DistributedSouthwell,
            ] {
                let opts = DistOptions {
                    max_steps: ctx.max_steps,
                    target_residual: None,
                    divergence_cutoff: None,
                    ..DistOptions::default()
                };
                let rep: DistReport = run_method(m, &prob.a, &prob.b, &prob.x0, &part, &opts);
                points.push(ScalingPoint {
                    matrix: name,
                    ranks: p,
                    method: m,
                    time_to_target: rep.time_to_reach(0.1),
                    residual_after_50: rep.final_residual(),
                });
            }
        }
    }
    points
}

/// Figures 8 and 9 entry point: runs the shared sweep once, prints both
/// grids and writes `fig8.csv` and `fig9.csv` (the same rows).
pub fn run_scaling(ctx: &ExperimentCtx) {
    let points = scaling_points(ctx);
    println!("\n=== fig8 — modelled time (ms) to ‖r‖₂ = 0.1 vs ranks ===");
    print_grid(&points, |pt| pt.time_to_target.map(|t| t * 1e3), 2);
    println!("\n=== fig9 — residual norm after 50 parallel steps vs ranks ===");
    print_grid(&points, |pt| Some(pt.residual_after_50), 4);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.matrix.to_string(),
                pt.ranks.to_string(),
                pt.method.label().to_string(),
                fmt_or_dagger(pt.time_to_target, 6),
                format!("{:.6e}", pt.residual_after_50),
            ]
        })
        .collect();
    let header = [
        "matrix",
        "ranks",
        "method",
        "time_to_target_s",
        "residual_after_50",
    ];
    write_csv(&ctx.out_dir, "fig8", &header, &rows);
    write_csv(&ctx.out_dir, "fig9", &header, &rows);
}

fn print_grid(points: &[ScalingPoint], f: impl Fn(&ScalingPoint) -> Option<f64>, decimals: usize) {
    let mut matrices: Vec<&str> = points.iter().map(|p| p.matrix).collect();
    matrices.dedup();
    let mut ranks: Vec<usize> = points.iter().map(|p| p.ranks).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for m in matrices {
        println!("{m}:");
        for method in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let mut line = format!("  {:<3}", method.label());
            for &p in &ranks {
                let pt = points
                    .iter()
                    .find(|x| x.matrix == m && x.ranks == p && x.method == method)
                    .unwrap();
                line.push_str(&format!(" {:>10}", fmt_or_dagger(f(pt), decimals)));
            }
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_combinations() {
        let mut ctx = ExperimentCtx::smoke();
        // 0.3 keeps the smallest stand-in above ~30 rows per rank at the
        // top of the sweep — the paper's subdomain regime. (Degenerately
        // small blocks reintroduce the adjacent-relax risk of §4.3.)
        ctx.scale = 0.3;
        let pts = scaling_points(&ctx);
        assert_eq!(pts.len(), 6 * rank_sweep(&ctx).len() * 3);
        // DS never diverges on the sweep.
        for pt in pts
            .iter()
            .filter(|p| p.method == Method::DistributedSouthwell)
        {
            assert!(
                pt.residual_after_50 < 10.0,
                "{} at {} ranks: DS residual {}",
                pt.matrix,
                pt.ranks,
                pt.residual_after_50
            );
        }
    }
}
