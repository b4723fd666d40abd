//! Asynchronous backend study (beyond the paper's tables): DS vs PS vs BJ
//! driven through [`ExecBackend::Async`], swept over the progress bound
//! (`max_lag`) and the straggler skew. The paper's MPI implementation runs
//! asynchronously (Casper ghost processes); this experiment asks whether
//! Distributed Southwell's communication advantage survives uncoordinated
//! schedules and heterogeneous rank speeds — reporting scheduler ticks to
//! ‖r‖₂ ≤ 0.1, per-rank message cost to the target, and per-class totals.

use crate::harness::{fmt_or_dagger, setup_problem, suite_partition, write_csv, ExperimentCtx};
use dsw_core::dist::{run_method, DistOptions, ExecBackend, Method};
use dsw_rma::AsyncOptions;
use dsw_sparse::gen;

/// The sweep's convergence target (the paper's Table 2 rule).
pub const TARGET: f64 = 0.1;

/// The `(max_lag, straggler_skew)` point of the gate in
/// `tests/experiment_gates.rs`.
pub const DEFAULT_LAG: usize = 4;
pub const DEFAULT_SKEW: f64 = 0.5;

/// One row of the async sweep.
pub struct AsyncRow {
    /// Method label (DS / PS / BJ).
    pub method: &'static str,
    /// Progress bound: max phases any rank may lead the slowest.
    pub max_lag: usize,
    /// Straggler skew of the per-rank advance probabilities.
    pub skew: f64,
    /// Scheduler tick at which ‖r‖₂ ≤ 0.1 was first (verifiably) met.
    pub converged_tick: Option<usize>,
    /// Messages per rank expended to reach the target (interpolated).
    pub msgs_to_target: Option<f64>,
    /// Total delivered messages over the whole run.
    pub msgs: u64,
    /// ... of the solve class.
    pub msgs_solve: u64,
    /// ... of the explicit-residual class.
    pub msgs_residual: u64,
    /// Final true residual norm.
    pub final_residual: f64,
    /// The run froze permanently.
    pub deadlocked: bool,
}

/// Runs `method` once at `(max_lag, skew)`; at `ctx.scale = 0.5` this is
/// the gate point of `tests/experiment_gates.rs`.
pub fn run_one(method: Method, max_lag: usize, skew: f64, ctx: &ExperimentCtx) -> AsyncRow {
    // §4.2 Poisson setup, sized with the context's scale (the smoke scale
    // gives a 12×12 grid over 8 ranks).
    let g = ((48.0 * ctx.scale).round() as usize).max(12);
    let mut a = gen::grid2d_poisson(g, g);
    a.scale_unit_diagonal().unwrap();
    let prob = setup_problem(a, 11);
    let p = (g * g / 32).max(8);
    let part = suite_partition(&prob.a, p, 1);
    let opts = DistOptions {
        max_steps: ctx.max_steps.max(200),
        target_residual: Some(TARGET),
        backend: ExecBackend::Async(AsyncOptions {
            advance_probability: 0.6,
            max_lag,
            seed: 1,
            straggler_skew: skew,
        }),
        ..DistOptions::default()
    };
    let rep = run_method(method, &prob.a, &prob.b, &prob.x0, &part, &opts);
    AsyncRow {
        method: method.label(),
        max_lag,
        skew,
        converged_tick: rep.converged_at,
        msgs_to_target: rep.comm_to_reach(TARGET),
        msgs: rep.stats.total_msgs(),
        msgs_solve: rep.stats.total_msgs_solve(),
        msgs_residual: rep.stats.total_msgs_residual(),
        final_residual: rep.final_residual(),
        deadlocked: rep.deadlocked,
    }
}

/// Runs the sweep: DS / PS / BJ × `max_lag` × straggler skew.
pub fn run_async_convergence(ctx: &ExperimentCtx) -> Vec<AsyncRow> {
    let methods = [
        Method::DistributedSouthwell,
        Method::ParallelSouthwell,
        Method::BlockJacobi,
    ];
    let lags = [2usize, DEFAULT_LAG, 8];
    let skews = [0.0f64, DEFAULT_SKEW, 0.9];
    let mut rows = Vec::new();
    for m in methods {
        for &lag in &lags {
            for &skew in &skews {
                rows.push(run_one(m, lag, skew, ctx));
            }
        }
    }

    println!(
        "\n=== async — DS vs PS vs BJ under asynchronous scheduling (target ‖r‖₂ = {TARGET}) ==="
    );
    println!(
        "{:<6} {:>7} {:>5} {:>8} {:>12} {:>9} {:>9} {:>9} {:>10}",
        "method", "max_lag", "skew", "ticks", "msgs/rank→t", "msgs", "solve", "resid", "final ‖r‖"
    );
    let mut csv = Vec::new();
    for r in &rows {
        let ticks = match (r.converged_tick, r.deadlocked) {
            (Some(t), _) => t.to_string(),
            (None, true) => "frozen".to_string(),
            (None, false) => "†".to_string(),
        };
        println!(
            "{:<6} {:>7} {:>5.1} {:>8} {:>12} {:>9} {:>9} {:>9} {:>10.2e}",
            r.method,
            r.max_lag,
            r.skew,
            ticks,
            fmt_or_dagger(r.msgs_to_target, 1),
            r.msgs,
            r.msgs_solve,
            r.msgs_residual,
            r.final_residual
        );
        csv.push(vec![
            r.method.to_string(),
            r.max_lag.to_string(),
            format!("{:.2}", r.skew),
            r.converged_tick.map(|t| t.to_string()).unwrap_or("".into()),
            r.msgs_to_target
                .map(|m| format!("{m:.2}"))
                .unwrap_or("".into()),
            r.msgs.to_string(),
            r.msgs_solve.to_string(),
            r.msgs_residual.to_string(),
            format!("{:.6e}", r.final_residual),
            r.deadlocked.to_string(),
        ]);
    }
    write_csv(
        &ctx.out_dir,
        "async_convergence",
        &[
            "method",
            "max_lag",
            "straggler_skew",
            "converged_tick",
            "msgs_per_rank_to_target",
            "msgs",
            "msgs_solve",
            "msgs_residual",
            "final_residual",
            "deadlocked",
        ],
        &csv,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ds_keeps_its_message_advantage_under_asynchrony() {
        let ctx = ExperimentCtx::smoke();
        let rows = run_async_convergence(&ctx);
        let find = |method: &str, lag: usize, skew: f64| {
            rows.iter()
                .find(|r| r.method == method && r.max_lag == lag && (r.skew - skew).abs() < 1e-12)
                .unwrap()
        };
        // Every method converges at the default sweep point (the
        // acceptance problem is small and well-conditioned).
        for m in ["DS", "PS", "BJ"] {
            let r = find(m, DEFAULT_LAG, DEFAULT_SKEW);
            assert!(
                r.converged_tick.is_some(),
                "{m} did not converge at the default sweep point (final {:.2e})",
                r.final_residual
            );
            assert!(!r.deadlocked);
        }
        // The headline claim survives asynchrony: DS spends fewer messages
        // per rank to the target than PS at the default sweep point...
        let ds = find("DS", DEFAULT_LAG, DEFAULT_SKEW);
        let ps = find("PS", DEFAULT_LAG, DEFAULT_SKEW);
        let (dsm, psm) = (
            ds.msgs_to_target.expect("DS crossed the target"),
            ps.msgs_to_target.expect("PS crossed the target"),
        );
        assert!(
            dsm < psm,
            "DS msgs/rank {dsm:.1} should beat PS {psm:.1} at lag {DEFAULT_LAG}, skew {DEFAULT_SKEW}"
        );
        // ... and under every straggler-skew setting of the sweep.
        for &skew in &[0.0, DEFAULT_SKEW, 0.9] {
            let ds = find("DS", DEFAULT_LAG, skew);
            let ps = find("PS", DEFAULT_LAG, skew);
            if let (Some(d), Some(p)) = (ds.msgs_to_target, ps.msgs_to_target) {
                assert!(d < p, "skew {skew}: DS {d:.1} !< PS {p:.1}");
            }
        }
    }
}
