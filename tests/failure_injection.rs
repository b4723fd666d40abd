//! Failure injection: what happens to the protocols when the substrate's
//! delivery guarantee is broken. One-sided MPI guarantees that puts are
//! visible once the epoch closes; the first half of these tests documents
//! that Distributed Southwell genuinely depends on that guarantee — exactly
//! why the paper implements it on RMA with collective epoch management.
//! The second half exercises the recovery layer (sequencing, periodic
//! invariant audits, freeze watchdog) that makes the method converge on an
//! unreliable transport anyway.

use distributed_southwell::core::dist::{
    distribute, DistributedSouthwellRank, DsConfig, RecoveryConfig,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::{ChaosConfig, CommClass, CostModel, ExecMode, Executor};
use distributed_southwell::sparse::{gen, vecops};

/// The §4.2 freeze instance's 8 parts of the 16×16 grid, pinned as a part
/// map (one row of 16 digits per grid row) so that whether the freeze tests
/// freeze does not depend on the partitioner.
fn freeze_partition() -> Partition {
    let map = include_str!("fixtures/freeze_16x16_8parts.map");
    let assignment = map
        .split_whitespace()
        .flat_map(str::bytes)
        .map(|d| usize::from(d - b'0'))
        .collect();
    Partition::new(8, assignment)
}

/// The paper's §4.2 setup: 16×16 Poisson, unit-diagonal scaling, b = 0,
/// random guess scaled to a unit initial residual, 8 pinned parts.
fn ds_executor_cfg(
    chaos: ChaosConfig,
    cfg: DsConfig,
    mode: ExecMode,
) -> (
    distributed_southwell::sparse::CsrMatrix,
    Vec<f64>,
    Executor<DistributedSouthwellRank>,
) {
    let mut a = gen::grid2d_poisson(16, 16);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 11);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = freeze_partition();
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, cfg);
    (
        a,
        b,
        Executor::with_chaos(ranks, CostModel::default(), mode, chaos),
    )
}

fn ds_executor(
    chaos: ChaosConfig,
) -> (
    distributed_southwell::sparse::CsrMatrix,
    Vec<f64>,
    Executor<DistributedSouthwellRank>,
) {
    ds_executor_cfg(chaos, DsConfig::default(), ExecMode::Sequential)
}

fn recovery_cfg() -> DsConfig {
    DsConfig {
        recovery: RecoveryConfig::standard(),
        ..DsConfig::default()
    }
}

fn global_norm(
    ex: &Executor<DistributedSouthwellRank>,
    a: &distributed_southwell::sparse::CsrMatrix,
    b: &[f64],
) -> f64 {
    let mut x = vec![0.0; a.nrows()];
    for r in ex.ranks() {
        for (li, &g) in r.ls.rows.iter().enumerate() {
            x[g] = r.ls.x[li];
        }
    }
    vecops::norm2(&a.residual(b, &x))
}

/// ‖maintained r − (b − Ax)‖₂: the invariant drift caused by lost deltas.
fn residual_drift(
    ex: &Executor<DistributedSouthwellRank>,
    a: &distributed_southwell::sparse::CsrMatrix,
    b: &[f64],
) -> f64 {
    let mut kept = vec![0.0; a.nrows()];
    let mut x = vec![0.0; a.nrows()];
    for r in ex.ranks() {
        for (li, &g) in r.ls.rows.iter().enumerate() {
            kept[g] = r.ls.r[li];
            x[g] = r.ls.x[li];
        }
    }
    let truth = a.residual(b, &x);
    kept.iter()
        .zip(&truth)
        .map(|(k, t)| (k - t) * (k - t))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn zero_drop_rate_is_identity() {
    let (_, _, mut healthy) = ds_executor(ChaosConfig::none());
    let (_, _, mut chaotic) = ds_executor(ChaosConfig {
        drop_rate: 0.0,
        drop_class: Some(CommClass::Residual),
        seed: 99,
        ..ChaosConfig::none()
    });
    for _ in 0..20 {
        healthy.step();
        chaotic.step();
    }
    assert_eq!(chaotic.stats.total_msgs_dropped(), 0);
    let hx: Vec<f64> = healthy
        .ranks()
        .iter()
        .flat_map(|r| r.ls.x.clone())
        .collect();
    let cx: Vec<f64> = chaotic
        .ranks()
        .iter()
        .flat_map(|r| r.ls.x.clone())
        .collect();
    assert_eq!(hx, cx);
}

#[test]
fn dropping_residual_updates_can_freeze_distributed_southwell() {
    // Losing every deadlock-avoidance message is equivalent to turning the
    // mechanism off: with recovery disabled the method freezes before
    // converging — the failure mode the watchdog exists for.
    let (a, b, mut ex) = ds_executor(ChaosConfig {
        drop_rate: 1.0,
        drop_class: Some(CommClass::Residual),
        seed: 1,
        ..ChaosConfig::none()
    });
    let mut frozen = false;
    for _ in 0..500 {
        let s = ex.step();
        if s.relaxations == 0 && s.msgs == 0 && global_norm(&ex, &a, &b) > 1e-6 {
            frozen = true;
            break;
        }
    }
    assert!(frozen, "expected a freeze without avoidance messages");
    assert!(ex.stats.total_msgs_dropped() > 0);
}

#[test]
fn audits_recover_from_dropped_residual_updates() {
    // Same total loss of deadlock-avoidance traffic, but with the recovery
    // layer on: the periodic audit rebroadcasts exact norms every few
    // steps (as recovery-class messages, which this chaos config does not
    // touch), so the freeze never becomes permanent and the run converges.
    let (a, b, mut ex) = ds_executor_cfg(
        ChaosConfig {
            drop_rate: 1.0,
            drop_class: Some(CommClass::Residual),
            seed: 1,
            ..ChaosConfig::none()
        },
        recovery_cfg(),
        ExecMode::Sequential,
    );
    for _ in 0..500 {
        ex.step();
        if global_norm(&ex, &a, &b) <= 0.1 {
            assert!(ex.stats.total_msgs_dropped() > 0);
            return;
        }
    }
    panic!(
        "no convergence under dropped avoidance messages: residual {}",
        global_norm(&ex, &a, &b)
    );
}

#[test]
fn dropping_solve_updates_corrupts_maintained_residuals() {
    // Lost solve messages mean the receiver's maintained residual no
    // longer equals b - Ax: the invariant every solver relies on breaks,
    // which is why the paper's implementation sits on reliable RMA.
    let (a, b, mut ex) = ds_executor(ChaosConfig {
        drop_rate: 0.5,
        drop_class: Some(CommClass::Solve),
        seed: 7,
        ..ChaosConfig::none()
    });
    for _ in 0..30 {
        ex.step();
    }
    assert!(
        ex.stats.total_msgs_dropped() > 0,
        "some solve messages must have dropped"
    );
    let drift = residual_drift(&ex, &a, &b);
    assert!(
        drift > 1e-8,
        "maintained residuals should drift from the truth, drift = {drift}"
    );
}

#[test]
fn audits_repair_solve_update_drift() {
    // With the recovery layer on, the invariant audit detects the drift of
    // the previous test and overwrites the corrupted boundary rows with
    // values recomputed from the audited neighbor solutions — so the run
    // still converges and repairs are observable.
    let (a, b, mut ex) = ds_executor_cfg(
        ChaosConfig {
            drop_rate: 0.5,
            drop_class: Some(CommClass::Solve),
            seed: 7,
            ..ChaosConfig::none()
        },
        recovery_cfg(),
        ExecMode::Sequential,
    );
    for _ in 0..1000 {
        ex.step();
        if global_norm(&ex, &a, &b) <= 0.1 {
            let repairs: u64 = ex.ranks().iter().map(|r| r.drift_repairs).sum();
            assert!(repairs > 0, "the audit should have overwritten rows");
            return;
        }
    }
    panic!(
        "no convergence under 50% solve loss: residual {}, drift {}",
        global_norm(&ex, &a, &b),
        residual_drift(&ex, &a, &b)
    );
}

#[test]
fn light_chaos_changes_the_trajectory_deterministically() {
    let mk = || {
        ds_executor(ChaosConfig {
            drop_rate: 0.1,
            drop_class: None,
            seed: 42,
            ..ChaosConfig::none()
        })
    };
    let (_, _, mut e1) = mk();
    let (_, _, mut e2) = mk();
    for _ in 0..15 {
        e1.step();
        e2.step();
    }
    assert_eq!(e1.stats.total_msgs_dropped(), e2.stats.total_msgs_dropped());
    let x1: Vec<f64> = e1.ranks().iter().flat_map(|r| r.ls.x.clone()).collect();
    let x2: Vec<f64> = e2.ranks().iter().flat_map(|r| r.ls.x.clone()).collect();
    assert_eq!(x1, x2, "chaos must be deterministic per seed");
}

#[test]
fn acceptance_ten_percent_drops_and_stragglers_still_converge() {
    // The headline robustness scenario: 10% uniform message loss across
    // all classes, plus injected stragglers, on the paper's 16×16 Poisson
    // / 8-rank setup. With the standard recovery preset, DS must still
    // reach ‖r‖₂ ≤ 0.1 — no freeze, and the audit keeps the maintained
    // residuals near the truth.
    let chaos = ChaosConfig {
        drop_rate: 0.1,
        drop_class: None,
        seed: 2024,
        ..ChaosConfig::none()
    };
    let (a, b, mut ex) = ds_executor_cfg(chaos, recovery_cfg(), ExecMode::Sequential);
    let mut converged = None;
    for step in 0..600 {
        // Deterministic stragglers: two ranks periodically lose whole steps.
        if step % 17 == 3 {
            ex.injector_mut().inject_stall(2, 2);
        }
        if step % 23 == 5 {
            ex.injector_mut().inject_stall(5, 3);
        }
        ex.step();
        if global_norm(&ex, &a, &b) <= 0.1 {
            converged = Some(step + 1);
            break;
        }
    }
    let steps = converged.unwrap_or_else(|| {
        panic!(
            "did not reach 0.1 under drops+stragglers: residual {}, drift {}",
            global_norm(&ex, &a, &b),
            residual_drift(&ex, &a, &b)
        )
    });
    let faults = ex.stats.total_faults();
    assert!(
        faults.dropped.total() > 0,
        "chaos should have dropped messages"
    );
    assert!(
        faults.stalled_ranks > 0,
        "stragglers should have stalled steps"
    );
    // The invariant drift is bounded: lost deltas are healed by the audit,
    // so the maintained residuals stay near b - Ax (same scale as the
    // target, not accumulated corruption).
    assert!(
        residual_drift(&ex, &a, &b) <= 0.1,
        "drift {} should stay within the audit's reach",
        residual_drift(&ex, &a, &b)
    );
    println!(
        "converged in {steps} steps with {} drops",
        faults.dropped.total()
    );
}

#[test]
fn chaos_with_recovery_is_bit_identical_across_exec_modes() {
    // Fault decisions happen in the executor's serialized epoch-close
    // section and recovery state is purely per-rank, so a faulty recovered
    // run must be reproducible bit-for-bit under threading.
    let chaos = ChaosConfig {
        drop_rate: 0.15,
        duplicate_rate: 0.1,
        delay_rate: 0.15,
        max_delay_epochs: 2,
        stall_rate: 0.05,
        stall_steps: 2,
        seed: 77,
        ..ChaosConfig::none()
    };
    let (_, _, mut seq) = ds_executor_cfg(chaos, recovery_cfg(), ExecMode::Sequential);
    let (_, _, mut thr) = ds_executor_cfg(chaos, recovery_cfg(), ExecMode::Threaded(3));
    for step in 0..40 {
        let a = seq.step();
        let b = thr.step();
        assert_eq!(a, b, "step {step}: stats must match bit-for-bit");
    }
    let xs: Vec<f64> = seq.ranks().iter().flat_map(|r| r.ls.x.clone()).collect();
    let xt: Vec<f64> = thr.ranks().iter().flat_map(|r| r.ls.x.clone()).collect();
    assert_eq!(xs, xt, "solutions must be bit-identical");
    let ds: Vec<u64> = seq.ranks().iter().map(|r| r.drift_repairs).collect();
    let dt: Vec<u64> = thr.ranks().iter().map(|r| r.drift_repairs).collect();
    assert_eq!(ds, dt, "recovery counters must be bit-identical");
}
