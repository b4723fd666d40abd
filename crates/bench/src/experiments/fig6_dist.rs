//! Figure 6, distributed edition: relative residual after 9 V-cycles for
//! increasing grid dimensions, with the whole cycle running on the
//! distributed substrate — DS smoothing through the superstep executor
//! and grid transfers as `CommClass::Transfer` exchanges. The scalar
//! Gauss–Seidel multigrid provides the baseline column, exactly as in
//! the paper's legend.

use crate::harness::{write_csv, ExperimentCtx};
use dsw_multigrid::{DistMultigrid, DistMultigridConfig, Multigrid, Smoother};
use dsw_rma::ExecMode;
use dsw_sparse::gen;

/// One (smoother, grid) measurement on the distributed hierarchy.
pub struct Fig6DistPoint {
    /// Smoother label as in the paper's legend.
    pub label: &'static str,
    /// Grid dimension.
    pub dim: usize,
    /// Relative residual norm after 9 V-cycles.
    pub rel_residual: f64,
    /// Substrate messages over the 9 cycles (0 for the scalar baseline).
    pub total_msgs: u64,
    /// Bytes carried by inter-level transfers over the 9 cycles.
    pub transfer_bytes: u64,
}

const CYCLES: usize = 9;

/// The DS-smoothed hierarchy every row of the experiment runs: `sweeps`
/// DS sweeps per smoothing pass over `ranks` finest-level parts on the
/// threaded superstep backend.
pub fn ds_config(sweeps: f64, ranks: usize) -> DistMultigridConfig {
    DistMultigridConfig {
        sweeps,
        seed: 99,
        mode: ExecMode::Threaded(4),
        nparts: ranks,
        min_rows_per_part: 32,
        ..DistMultigridConfig::default()
    }
}

/// Runs the experiment.
pub fn run_fig6_dist(ctx: &ExperimentCtx) -> Vec<Fig6DistPoint> {
    let ranks = ctx.ranks.max(1);
    let mut points = Vec::new();
    println!("\n=== fig6_dist — rel. residual after 9 distributed V-cycles ===");
    println!("{:<22} dim: rel residual ...", "smoother");
    let variants: [(&'static str, Option<f64>); 3] = [
        ("GS, 1 sweep", None),
        ("Dist SW, 1/2 sweep", Some(0.5)),
        ("Dist SW, 1 sweep", Some(1.0)),
    ];
    for (label, sweeps) in variants {
        let mut line = format!("{label:<22}");
        for dim in super::fig6::dims(ctx) {
            let n = dim * dim;
            let b = gen::random_rhs(n, 4100 + dim as u64);
            let point = match sweeps {
                None => {
                    let mut mg = Multigrid::new(dim, Smoother::gauss_seidel(1.0));
                    let (_, hist) = mg.solve(&b, CYCLES);
                    Fig6DistPoint {
                        label,
                        dim,
                        rel_residual: hist[CYCLES - 1],
                        total_msgs: 0,
                        transfer_bytes: 0,
                    }
                }
                Some(sweeps) => {
                    let mut mg = DistMultigrid::try_new(dim, ds_config(sweeps, ranks))
                        .expect("paper grids build admissible hierarchies");
                    let (_, hist, reports) = mg.solve(&b, CYCLES);
                    Fig6DistPoint {
                        label,
                        dim,
                        rel_residual: hist[CYCLES - 1],
                        total_msgs: reports.iter().map(|r| r.total_msgs()).sum(),
                        transfer_bytes: reports
                            .iter()
                            .flat_map(|r| r.levels.iter())
                            .map(|l| l.transfer_bytes)
                            .sum(),
                    }
                }
            };
            line.push_str(&format!(" {dim}:{:.3e}", point.rel_residual));
            points.push(point);
        }
        println!("{line}");
    }
    let csv: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.dim.to_string(),
                format!("{:.6e}", p.rel_residual),
                p.total_msgs.to_string(),
                p.transfer_bytes.to_string(),
            ]
        })
        .collect();
    write_csv(
        &ctx.out_dir,
        "fig6_dist",
        &[
            "smoother",
            "grid_dim",
            "rel_residual_after_9_vcycles",
            "substrate_msgs",
            "transfer_bytes",
        ],
        &csv,
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_dist_shape_holds() {
        let ctx = ExperimentCtx::smoke();
        let pts = run_fig6_dist(&ctx);
        for label in ["GS, 1 sweep", "Dist SW, 1/2 sweep", "Dist SW, 1 sweep"] {
            let vals: Vec<f64> = pts
                .iter()
                .filter(|p| p.label == label)
                .map(|p| p.rel_residual)
                .collect();
            assert!(!vals.is_empty());
            let max = vals.iter().cloned().fold(0.0f64, f64::max);
            let min = vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min < 200.0, "{label}: not grid independent {vals:?}");
            assert!(max < 1e-4, "{label}: 9 V-cycles should converge, {vals:?}");
        }
        // The distributed runs actually exercised the substrate, and the
        // transfer volume grows with the grid.
        let ds: Vec<&Fig6DistPoint> = pts
            .iter()
            .filter(|p| p.label == "Dist SW, 1 sweep")
            .collect();
        assert!(ds.iter().all(|p| p.total_msgs > 0 && p.transfer_bytes > 0));
        for pair in ds.windows(2) {
            assert!(
                pair[1].transfer_bytes > pair[0].transfer_bytes,
                "transfer volume should grow with the grid"
            );
        }
    }
}
