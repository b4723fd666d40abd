//! Property tests for the incremental convergence monitor: the `O(P)`
//! maintained global norm must agree with the exact `‖b − Ax‖₂` at every
//! superstep boundary on a reliable link, and in `Maintained` mode the
//! driver must never *declare* convergence that an exact recompute would
//! not confirm — even under chaos (drops and duplicates), where the
//! maintained norms genuinely drift.

use distributed_southwell::core::dist::{
    distribute, run_method, BlockJacobiRank, DistOptions, DistributedSouthwellRank, DsConfig,
    LocalSystem, Method, MonitorMode, ParallelSouthwellRank,
};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions};
use distributed_southwell::rma::{ChaosConfig, CostModel, ExecMode, Executor, RankAlgorithm};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A small random SPD clique-assembled system with a random guess.
fn random_problem(
    nx: usize,
    ny: usize,
    coupling: f64,
    seed: u64,
) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let mut a = gen::clique_grid2d(
        nx,
        ny,
        gen::CliqueOptions {
            coupling,
            weight_jump: 0.3,
            hot_fraction: 0.0,
            hot_coupling: 0.0,
            seed,
        },
    );
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = gen::random_rhs(n, seed ^ 0x5eed);
    let x0 = gen::random_guess(n, seed ^ 0x9e37);
    (a, b, x0)
}

/// The `O(P)` maintained view the driver's monitor reads, summed here
/// straight from the ranks: `(√Σ ‖r_p‖², √Σ undelivered-delta²)`.
fn maintained<A: RankAlgorithm>(ranks: &[A]) -> (f64, f64) {
    let (norm_sq, slack_sq) = ranks.iter().fold((0.0, 0.0), |(n, s), r| {
        let m = r
            .maintained_norm_sq()
            .expect("method maintains local norms");
        (n + m, s + r.undelivered_delta_sq())
    });
    (norm_sq.sqrt(), slack_sq.sqrt())
}

/// The oracle: `‖b − Ax‖₂` with `x` gathered from the ranks' local
/// systems, independent of the driver's monitor code.
fn exact<A>(a: &CsrMatrix, b: &[f64], ranks: &[A], local_of: impl Fn(&A) -> &LocalSystem) -> f64 {
    let mut x = vec![0.0; a.nrows()];
    for ls in ranks.iter().map(local_of) {
        for (li, &g) in ls.rows.iter().enumerate() {
            x[g] = ls.x[li];
        }
    }
    vecops::norm2(&a.residual(b, &x))
}

/// Steps an executor and checks, at every superstep boundary, that the
/// maintained norm agrees with the exact recompute to 1e-10 relative and
/// that the reliable-link slack is exactly zero.
fn assert_agreement<A: RankAlgorithm>(
    a: &CsrMatrix,
    b: &[f64],
    ranks: Vec<A>,
    mode: ExecMode,
    steps: usize,
    local_of: impl Fn(&A) -> &LocalSystem,
) -> Result<(), TestCaseError> {
    let mut ex = Executor::new(ranks, CostModel::default(), mode);
    for step in 0..steps {
        ex.step();
        let (norm, slack) = maintained(ex.ranks());
        let e = exact(a, b, ex.ranks(), &local_of);
        prop_assert_eq!(slack, 0.0, "no parked deltas without a threshold");
        prop_assert!(
            (norm - e).abs() <= 1e-10 * e.max(1.0),
            "step {}: maintained {} vs exact {} (gap {:.3e})",
            step,
            norm,
            e,
            (norm - e).abs()
        );
    }
    Ok(())
}

proptest! {
    // Each case runs six executors (3 methods × 2 exec modes).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn maintained_norm_matches_exact_on_reliable_link(
        nx in 3usize..8,
        ny in 3usize..8,
        coupling in 0.05f64..0.7,
        seed in 0u64..1000,
        nranks in 2usize..7,
        steps in 1usize..10,
    ) {
        let (a, b, x0) = random_problem(nx, ny, coupling, seed);
        let part =
            partition_multilevel(&Graph::from_matrix(&a), nranks, MultilevelOptions::default());
        for mode in [ExecMode::Sequential, ExecMode::Threaded(4)] {
            let locals = distribute(&a, &b, &x0, &part).unwrap();
            let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
            let r0 = a.residual(&b, &x0);
            assert_agreement(
                &a,
                &b,
                DistributedSouthwellRank::build(locals, &norms, &r0),
                mode,
                steps,
                |r: &DistributedSouthwellRank| &r.ls,
            )?;
            let locals = distribute(&a, &b, &x0, &part).unwrap();
            let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
            assert_agreement(
                &a,
                &b,
                ParallelSouthwellRank::build(locals, &norms),
                mode,
                steps,
                |r: &ParallelSouthwellRank| &r.ls,
            )?;
            let locals = distribute(&a, &b, &x0, &part).unwrap();
            assert_agreement(
                &a,
                &b,
                BlockJacobiRank::build(locals),
                mode,
                steps,
                |r: &BlockJacobiRank| &r.ls,
            )?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The verified-convergence invariant: under arbitrary drop/duplicate
    /// chaos the maintained norms drift (lost deltas leave `r`
    /// inconsistent with `b − Ax`), but `Maintained` mode may only ever
    /// *declare* convergence after an exact recompute confirms it — so
    /// whenever `converged_at` is set, the true residual of the reported
    /// solution is at (or below) the target.
    #[test]
    fn maintained_mode_never_declares_unverified_convergence(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        chaos_seed in 0u64..500,
        verify_every in 0usize..6,
        threshold_on in 0usize..2,
    ) {
        let threshold = if threshold_on == 1 { 0.9 } else { 0.0 };
        let mut a = gen::grid2d_poisson(12, 12);
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        let mut x0 = gen::random_guess(n, 7);
        let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
        x0.iter_mut().for_each(|v| *v *= s);
        let part =
            partition_multilevel(&Graph::from_matrix(&a), 12, MultilevelOptions::default());
        let target = 0.05;
        let opts = DistOptions {
            max_steps: 60,
            target_residual: Some(target),
            monitor: MonitorMode::Maintained { verify_every },
            chaos: ChaosConfig {
                drop_rate,
                duplicate_rate,
                seed: chaos_seed,
                ..ChaosConfig::none()
            },
            ds_config: DsConfig {
                solve_msg_threshold: threshold,
                ..DsConfig::default()
            },
            ..DistOptions::default()
        };
        let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        if let Some(step) = rep.converged_at {
            let true_norm = vecops::norm2(&a.residual(&b, &rep.x));
            prop_assert!(
                true_norm <= target * (1.0 + 1e-9),
                "declared convergence at step {} but true ‖b−Ax‖ = {} > {}",
                step,
                true_norm,
                target
            );
            prop_assert!(
                (rep.final_residual() - true_norm).abs() <= 1e-12 * true_norm.max(1.0),
                "final record {} is not the verified exact norm {}",
                rep.final_residual(),
                true_norm
            );
        }
    }
}

/// Chaos off, default `verify_every`: `Maintained` mode must report the
/// same convergence step, the same (bit-identical) verified final
/// residual, and the same solution as `Exact` mode — the acceptance
/// criterion that the monitoring strategy never changes *results*, only
/// how often the simulator pays for an exact recompute.
#[test]
fn maintained_and_exact_modes_agree_without_chaos() {
    let mut a = gen::grid2d_poisson(20, 20);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 42);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = partition_multilevel(&Graph::from_matrix(&a), 16, MultilevelOptions::default());
    for method in [
        Method::BlockJacobi,
        Method::ParallelSouthwell,
        Method::DistributedSouthwell,
    ] {
        let run = |monitor: MonitorMode| {
            let opts = DistOptions {
                max_steps: 80,
                target_residual: Some(0.01),
                monitor,
                ..DistOptions::default()
            };
            run_method(method, &a, &b, &x0, &part, &opts)
        };
        let exact = run(MonitorMode::Exact);
        let maintained = run(MonitorMode::default());
        assert_eq!(
            exact.converged_at, maintained.converged_at,
            "{method:?}: convergence step changed"
        );
        assert_eq!(
            exact.final_residual().to_bits(),
            maintained.final_residual().to_bits(),
            "{method:?}: verified final residual changed"
        );
        let xe: Vec<u64> = exact.x.iter().map(|v| v.to_bits()).collect();
        let xm: Vec<u64> = maintained.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xe, xm, "{method:?}: solution changed");
        // The whole point: far fewer exact recomputes.
        assert!(
            maintained.monitor_stats().verifications < exact.monitor_stats().verifications,
            "{method:?}: maintained mode did not reduce verifications"
        );
        // Per-rank partial sums round differently than the exact
        // ascending sum, so "drift" on a reliable link is summation
        // round-off, not protocol drift.
        assert!(
            maintained.monitor_stats().max_rel_drift <= 1e-14,
            "{method:?}: real drift on a reliable link: {:e}",
            maintained.monitor_stats().max_rel_drift
        );
    }
}

/// With DS threshold coalescing, parked deltas make the maintained norm
/// drift from the exact one; the reported `slack` must be nonzero at
/// some boundary and the gap stays within a small multiple of it
/// (deltas overlapping on shared boundary rows can inflate the true gap
/// past the root-sum-square slightly, hence the factor).
#[test]
fn threshold_parking_reports_nonzero_slack_bounding_the_gap() {
    let mut a = gen::grid2d_poisson(16, 16);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let x0 = gen::random_guess(n, 5);
    let part = partition_multilevel(&Graph::from_matrix(&a), 16, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let cfg = DsConfig {
        solve_msg_threshold: 0.9,
        ..DsConfig::default()
    };
    let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, cfg);
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    let mut saw_slack = false;
    for step in 0..30 {
        ex.step();
        let (norm, slack) = maintained(ex.ranks());
        let e = exact(&a, &b, ex.ranks(), |r: &DistributedSouthwellRank| &r.ls);
        if slack > 0.0 {
            saw_slack = true;
        }
        assert!(
            (norm - e).abs() <= 4.0 * slack + 1e-10 * e.max(1.0),
            "step {step}: gap {:.3e} not covered by slack {:.3e}",
            (norm - e).abs(),
            slack
        );
    }
    assert!(saw_slack, "threshold 0.9 never parked a delta in 30 steps");
}
