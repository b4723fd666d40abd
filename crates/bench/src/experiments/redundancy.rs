//! Coded straggler resilience study (beyond the paper's tables): DS on
//! the asynchronous backend with redundancy-coded block placement
//! ([`DistOptions::redundancy`]), swept over straggler skew × replication
//! factor r ∈ {1, 2, 3}. With r = 1 (the uncoded placement) the progress
//! bound gates on the slowest *rank*, so a heavy straggler stalls the
//! whole run; with r ≥ 2 every block is hosted by r ranks, the bound
//! gates on the slowest *replica set* (which progresses at its fastest
//! member), and first-arrival-wins reconciliation absorbs whichever copy
//! lands first — time to ‖r‖₂ ≤ 0.1 must degrade gracefully where the
//! uncoded run stalls. The price is the replica fan-out, reported
//! separately under `CommClass::Redundancy`.

use crate::harness::{fmt_or_dagger, setup_problem, suite_partition, write_csv, ExperimentCtx};
use dsw_core::dist::{run_method, DistOptions, ExecBackend, Method, Redundancy};
use dsw_rma::AsyncOptions;
use dsw_sparse::gen;

/// The sweep's convergence target (the paper's Table 2 rule).
pub const TARGET: f64 = 0.1;

/// Progress bound of every run (the `async` experiment's gate point).
pub const LAG: usize = 4;

/// The straggler regime of the gate in `tests/experiment_gates.rs`: at
/// this skew the slowest rank advances at a small fraction of the nominal
/// probability, and the uncoded placement is gated on it.
pub const STALL_SKEW: f64 = 0.9;

/// The replication factor that gate checks against uncoded.
pub const GATE_R: usize = 2;

/// One row of the redundancy sweep (DS only — the coded placement wraps
/// the method transparently, so one method isolates the r × skew effect).
pub struct RedundancyRow {
    /// Replication factor (1 = the uncoded placement).
    pub r: usize,
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
    /// ... of the redundancy class (replica fan-out copies).
    pub msgs_redundancy: u64,
    /// Modelled bytes of the redundancy class.
    pub bytes_redundancy: u64,
    /// Duplicate copies absorbed by first-arrival-wins reconciliation.
    pub reconciled: u64,
    /// Final true residual norm.
    pub final_residual: f64,
    /// The run froze permanently.
    pub deadlocked: bool,
}

/// Runs DS once with replication factor `r` at straggler `skew`; at
/// `ctx.scale = 0.5` this is the gate point of `tests/experiment_gates.rs`.
pub fn run_one(r: usize, skew: f64, ctx: &ExperimentCtx) -> RedundancyRow {
    // §4.2 Poisson setup, sized with the context's scale (the smoke scale
    // gives a 12×12 grid over 8 ranks) — the same construction as the
    // `async` experiment, so r = 1 rows are directly comparable.
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
            max_lag: LAG,
            seed: 1,
            straggler_skew: skew,
        }),
        redundancy: Some(Redundancy::new(r)),
        ..DistOptions::default()
    };
    let rep = run_method(
        Method::DistributedSouthwell,
        &prob.a,
        &prob.b,
        &prob.x0,
        &part,
        &opts,
    );
    RedundancyRow {
        r,
        skew,
        converged_tick: rep.converged_at,
        msgs_to_target: rep.comm_to_reach(TARGET),
        msgs: rep.stats.total_msgs(),
        msgs_solve: rep.stats.total_msgs_solve(),
        msgs_residual: rep.stats.total_msgs_residual(),
        msgs_redundancy: rep.stats.total_msgs_redundancy(),
        bytes_redundancy: rep.records.last().unwrap().bytes_redundancy,
        reconciled: rep.stale_discards,
        final_residual: rep.final_residual(),
        deadlocked: rep.deadlocked,
    }
}

/// Runs the sweep: r ∈ {1, 2, 3} × straggler skew ∈ {0, 0.5, 0.9}.
pub fn run_redundancy(ctx: &ExperimentCtx) -> Vec<RedundancyRow> {
    let rs = [1usize, 2, 3];
    let skews = [0.0f64, 0.5, STALL_SKEW];
    let mut rows = Vec::new();
    for &r in &rs {
        for &skew in &skews {
            rows.push(run_one(r, skew, ctx));
        }
    }

    // Slowdown is relative to the healthy uncoded run (r = 1, skew 0):
    // the graceful-degradation claim is that coded rows stay within a
    // small factor of it at skews where the uncoded row blows up.
    let baseline = rows[0].converged_tick;
    println!("\n=== redundancy — coded straggler resilience, DS async (target ‖r‖₂ = {TARGET}, max_lag = {LAG}) ===");
    println!(
        "{:>2} {:>5} {:>8} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "r",
        "skew",
        "ticks",
        "vs base",
        "msgs/rank→t",
        "msgs",
        "solve",
        "resid",
        "redun",
        "reconciled",
        "final ‖r‖"
    );
    let mut csv = Vec::new();
    for row in &rows {
        let ticks = match (row.converged_tick, row.deadlocked) {
            (Some(t), _) => t.to_string(),
            (None, true) => "frozen".to_string(),
            (None, false) => "†".to_string(),
        };
        let slowdown = match (row.converged_tick, baseline) {
            (Some(t), Some(b)) if b > 0 => format!("{:.2}x", t as f64 / b as f64),
            _ => "†".to_string(),
        };
        println!(
            "{:>2} {:>5.1} {:>8} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10.2e}",
            row.r,
            row.skew,
            ticks,
            slowdown,
            fmt_or_dagger(row.msgs_to_target, 1),
            row.msgs,
            row.msgs_solve,
            row.msgs_residual,
            row.msgs_redundancy,
            row.reconciled,
            row.final_residual
        );
        csv.push(vec![
            row.r.to_string(),
            format!("{:.2}", row.skew),
            row.converged_tick
                .map(|t| t.to_string())
                .unwrap_or("".into()),
            row.msgs_to_target
                .map(|m| format!("{m:.2}"))
                .unwrap_or("".into()),
            row.msgs.to_string(),
            row.msgs_solve.to_string(),
            row.msgs_residual.to_string(),
            row.msgs_redundancy.to_string(),
            row.bytes_redundancy.to_string(),
            row.reconciled.to_string(),
            format!("{:.6e}", row.final_residual),
            row.deadlocked.to_string(),
        ]);
    }
    write_csv(
        &ctx.out_dir,
        "redundancy",
        &[
            "r",
            "straggler_skew",
            "converged_tick",
            "msgs_per_rank_to_target",
            "msgs",
            "msgs_solve",
            "msgs_residual",
            "msgs_redundancy",
            "bytes_redundancy",
            "reconciled",
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
    fn coded_placement_rides_through_the_straggler_regime() {
        // Half scale (24x24 grid over 18 ranks) -- the same point the
        // root gate test pins. The 8-rank smoke scale is too small for a
        // meaningful straggler regime: with so few ranks the r = 2
        // placement has even odds of pairing the two slowest ranks into
        // one replica set, which is exactly the coupon-collector effect
        // larger rank counts wash out.
        let ctx = ExperimentCtx {
            scale: 0.5,
            ..ExperimentCtx::smoke()
        };
        let rows = run_redundancy(&ctx);
        let find = |r: usize, skew: f64| {
            rows.iter()
                .find(|row| row.r == r && (row.skew - skew).abs() < 1e-12)
                .unwrap()
        };
        let baseline = find(1, 0.0);
        let base_ticks = baseline
            .converged_tick
            .expect("healthy uncoded run must converge") as f64;

        // Accounting: the uncoded rows carry no redundancy traffic, the
        // coded rows must, and every row that converged is verified.
        for row in &rows {
            if row.r == 1 {
                assert_eq!(row.msgs_redundancy, 0, "uncoded row charged redundancy");
                assert_eq!(row.bytes_redundancy, 0);
            } else {
                assert!(row.msgs_redundancy > 0, "replica fan-out must be accounted");
                assert!(row.reconciled > 0, "duplicate copies must be reconciled");
            }
            if row.converged_tick.is_some() {
                assert!(row.final_residual <= TARGET * (1.0 + 1e-9));
            }
        }

        // The stall: at STALL_SKEW the uncoded run is gated on the
        // slowest rank and pays a large multiple of the healthy baseline
        // (full runs show >5x; the half-scale point shows ~4.7x).
        let uncoded = find(1, STALL_SKEW);
        let uncoded_ok = match uncoded.converged_tick {
            None => true,
            Some(t) => t as f64 >= 2.0 * base_ticks,
        };
        assert!(
            uncoded_ok,
            "uncoded at skew {STALL_SKEW} finished in {:?} ticks - no stall to ride through \
             (baseline {base_ticks})",
            uncoded.converged_tick
        );

        // The claim: coded placements degrade gracefully where uncoded
        // stalls. r = 2 must converge and strictly beat the uncoded run
        // at the same skew; deeper replication tightens the bound.
        let coded = find(GATE_R, STALL_SKEW);
        let coded_ticks = coded
            .converged_tick
            .expect("r = 2 must converge in the straggler regime") as f64;
        assert!(
            coded_ticks <= 4.0 * base_ticks,
            "r = {GATE_R} took {coded_ticks} ticks at skew {STALL_SKEW} - more than 4x the \
             healthy baseline {base_ticks}"
        );
        if let Some(t) = uncoded.converged_tick {
            assert!(
                coded_ticks < t as f64,
                "r = {GATE_R} ({coded_ticks}) should beat uncoded ({t}) at skew {STALL_SKEW}"
            );
        }
        let deep = find(3, STALL_SKEW);
        let deep_ticks = deep
            .converged_tick
            .expect("r = 3 must converge in the straggler regime") as f64;
        assert!(
            deep_ticks <= 3.0 * base_ticks,
            "r = 3 took {deep_ticks} ticks at skew {STALL_SKEW} - more than 3x the healthy \
             baseline {base_ticks}"
        );
        assert!(
            deep_ticks <= coded_ticks,
            "deeper replication should not degrade resilience (r3 {deep_ticks} vs r2 {coded_ticks})"
        );
    }
}
