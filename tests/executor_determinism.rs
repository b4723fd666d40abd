//! Property test for the persistent-pool executor's determinism contract:
//! for ANY chaos mix of drops and duplicates, a 64-rank Distributed
//! Southwell run is bit-identical across `ExecMode::Sequential` and the
//! work-stealing pool with 2, 4, and 7 workers — solutions, maintained
//! residuals, per-class message counts, per-rank message counts, and
//! fault counters all match exactly, step by step.
//!
//! Why this holds by construction: rank phases are pure with respect to
//! each other (puts land in per-(origin, target) window slots of one
//! generation while every rank reads its in-edge slots of the other, in
//! origin order), the epoch close materialises a skipped or faulted
//! target's inbox over disjoint per-target state — serially or chunked
//! across the worker pool ([`CloseMode`]) — and the fault injector
//! computes each message's fate as a pure function of its
//! `(epoch, origin, target, index, class)` key, so no steal order, worker
//! count, grain, or close chunking can reorder anything observable. See
//! DESIGN.md ("Persistent worker pool", "Parallel epoch close").

use distributed_southwell::core::dist::{
    distribute, run_method, DistOptions, DistributedSouthwellRank, ExecBackend, Method, MonitorMode,
};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions};
use distributed_southwell::rma::{
    ChaosConfig, CloseMode, CostModel, ExecMode, Executor, StepStats,
};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;

/// Everything observable about a finished run, bitwise-comparable.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Concatenated per-rank solution vectors.
    x: Vec<f64>,
    /// Concatenated per-rank maintained residuals.
    r: Vec<f64>,
    /// Per-rank residual norms (squared, as the protocol tracks them).
    norms_sq: Vec<f64>,
    /// (total, solve, residual, recovery) delivered message counts.
    msgs: (u64, u64, u64, u64),
    /// Per-rank delivered message counts.
    msgs_per_rank: Vec<u64>,
    /// (dropped, duplicated) fault counters.
    faults: (u64, u64),
    /// Per-step counters (timing fields excluded by StepStats's PartialEq).
    steps: Vec<StepStats>,
}

/// The §4.2 setup at 64 ranks: 16×16 Poisson (256 rows, 4 rows per rank),
/// unit diagonal, b = 0, fixed guess scaled to a unit initial residual.
fn problem_64() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let mut a = gen::grid2d_poisson(16, 16);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 11);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    (a, b, x0)
}

fn run(mode: ExecMode, close: CloseMode, chaos: ChaosConfig, nsteps: usize) -> Fingerprint {
    let (a, b, x0) = problem_64();
    let part = partition_multilevel(&Graph::from_matrix(&a), 64, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let ranks = DistributedSouthwellRank::build(locals, &norms, &r0);
    let mut ex = Executor::with_chaos(ranks, CostModel::default(), mode, chaos);
    ex.set_close_mode(close);
    for _ in 0..nsteps {
        ex.step();
    }
    let faults = ex.stats.total_faults();
    Fingerprint {
        x: ex.ranks().iter().flat_map(|r| r.ls.x.clone()).collect(),
        r: ex.ranks().iter().flat_map(|r| r.ls.r.clone()).collect(),
        norms_sq: ex.ranks().iter().map(|r| r.ls.residual_norm_sq()).collect(),
        msgs: (
            ex.stats.total_msgs(),
            ex.stats.total_msgs_solve(),
            ex.stats.total_msgs_residual(),
            ex.stats.total_msgs_recovery(),
        ),
        msgs_per_rank: ex.stats.msgs_per_rank.clone(),
        faults: (faults.dropped.total(), faults.duplicated.total()),
        steps: ex.stats.steps.clone(),
    }
}

#[test]
fn pool_is_bit_identical_to_sequential_without_chaos() {
    let reference = run(
        ExecMode::Sequential,
        CloseMode::Serial,
        ChaosConfig::none(),
        10,
    );
    for nworkers in [2usize, 4, 7] {
        for close in [CloseMode::Serial, CloseMode::Parallel] {
            let pooled = run(ExecMode::Threaded(nworkers), close, ChaosConfig::none(), 10);
            assert_eq!(
                reference, pooled,
                "Threaded({nworkers}) × {close:?} diverged on a clean link"
            );
        }
    }
}

proptest! {
    // Each case runs four full executors; keep the count container-sized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pool_is_bit_identical_to_sequential_under_chaos(
        drop_rate in 0.0f64..0.3,
        duplicate_rate in 0.0f64..0.3,
        seed in 0u64..1000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            seed,
            ..ChaosConfig::none()
        };
        let reference = run(ExecMode::Sequential, CloseMode::Serial, chaos, 10);
        for nworkers in [2usize, 4, 7] {
            for close in [CloseMode::Serial, CloseMode::Parallel] {
                let pooled = run(ExecMode::Threaded(nworkers), close, chaos, 10);
                prop_assert_eq!(
                    &reference,
                    &pooled,
                    "Threaded({}) × {:?} diverged from Sequential (drop {:.3}, dup {:.3}, seed {})",
                    nworkers,
                    close,
                    drop_rate,
                    duplicate_rate,
                    seed
                );
            }
        }
    }
}

/// Everything a driver run reports, bitwise-comparable: the per-step
/// residual records (maintained or exact depending on the monitor mode),
/// the gathered solution, the verdicts, and the monitor accounting.
#[derive(Debug, PartialEq)]
struct ReportPrint {
    records: Vec<(usize, u64)>,
    x: Vec<u64>,
    converged_at: Option<usize>,
    deadlocked: bool,
    diverged: bool,
    evals: u64,
    verifications: u64,
    max_rel_drift_bits: u64,
}

fn drive_print(
    mode: ExecMode,
    close_mode: CloseMode,
    monitor: MonitorMode,
    chaos: ChaosConfig,
) -> ReportPrint {
    let (a, b, x0) = problem_64();
    let part = partition_multilevel(&Graph::from_matrix(&a), 64, MultilevelOptions::default());
    let opts = DistOptions {
        max_steps: 15,
        target_residual: Some(1e-4),
        backend: ExecBackend::Superstep(mode),
        close_mode,
        monitor,
        chaos,
        ..DistOptions::default()
    };
    let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
    let mon = rep.monitor_stats();
    ReportPrint {
        records: rep
            .records
            .iter()
            .map(|r| (r.step, r.residual_norm.to_bits()))
            .collect(),
        x: rep.x.iter().map(|v| v.to_bits()).collect(),
        converged_at: rep.converged_at,
        deadlocked: rep.deadlocked,
        diverged: rep.diverged,
        evals: mon.evals,
        verifications: mon.verifications,
        max_rel_drift_bits: mon.max_rel_drift.to_bits(),
    }
}

/// The determinism contract lifted to the driver: in BOTH monitor modes,
/// a full `drive()` run — records, solution, verdicts, monitor counters —
/// is bit-identical across the sequential executor, the persistent pool
/// (with the epoch close serial and parallel), and the legacy
/// spawn-per-phase scheduler, with and without chaos.
#[test]
fn drive_is_bit_identical_across_exec_modes_in_both_monitor_modes() {
    let chaotic = ChaosConfig {
        drop_rate: 0.15,
        duplicate_rate: 0.1,
        seed: 99,
        ..ChaosConfig::none()
    };
    for monitor in [
        MonitorMode::Exact,
        MonitorMode::Maintained { verify_every: 3 },
        MonitorMode::default(),
    ] {
        for chaos in [ChaosConfig::none(), chaotic] {
            let reference = drive_print(ExecMode::Sequential, CloseMode::Serial, monitor, chaos);
            for (mode, close) in [
                (ExecMode::Threaded(2), CloseMode::Parallel),
                (ExecMode::Threaded(4), CloseMode::Parallel),
                (ExecMode::Threaded(4), CloseMode::Serial),
                (ExecMode::Threaded(2), CloseMode::Auto),
            ] {
                assert_eq!(
                    reference,
                    drive_print(mode, close, monitor, chaos),
                    "{mode:?} × {close:?} diverged from Sequential under {monitor:?}"
                );
            }
        }
    }
}
