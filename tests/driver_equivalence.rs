//! One superstep loop, two entry points: a cold `TenantSession` solve is
//! bit-identical to `run_method` on the same inputs.
//!
//! `run_method` drives a freshly built executor to a verdict in one call;
//! a `TenantSession` builds the same ranks and executor, then steps them
//! in quanta through the session API. Both must run the same measurement
//! cadence and the same verdict rules, so every observable that does not
//! depend on wall time has to match to the bit: the step records
//! (residual bits and cumulative counters), the verdict flags, the
//! watchdog nudges, the recovery counters, every step's deterministic
//! substrate counters, and the bits of `x`. The property covers every
//! `Method`, both superstep exec modes and both monitor modes;
//! `ParallelSouthwellPiggybackOnly` at a tight target exercises the
//! idle → nudge → deadlock path.
//!
//! A divergence case rides along: point-block Block Jacobi is Jacobi, and
//! on the SPD matrix `(1 − a)I + a·11ᵀ` with `a > 1/2` and `n ≥ 3` the
//! Jacobi iteration matrix has spectral radius `a(n − 1) > 1`. With a
//! divergence cutoff every driver — superstep, async and session — must
//! report `diverged`, and the superstep and session reports must agree.

use distributed_southwell::core::dist::{
    run_method, DistOptions, DistReport, ExecBackend, Method, MonitorMode, TenantSession,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::{AsyncOptions, ExecMode};
use distributed_southwell::sparse::csr::CooBuilder;
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;

const METHODS: [Method; 4] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::ParallelSouthwellPiggybackOnly,
    Method::DistributedSouthwell,
];

const MODES: [ExecMode; 2] = [ExecMode::Sequential, ExecMode::Threaded(3)];

const MONITORS: [MonitorMode; 2] = [
    MonitorMode::Exact,
    MonitorMode::Maintained { verify_every: 4 },
];

/// 16×16 Poisson at 16 ranks, unit diagonal, a random right-hand side and
/// a random guess scaled to a unit initial residual.
fn problem(seed: u64) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
    let mut a = gen::grid2d_poisson(16, 16);
    a.scale_unit_diagonal().expect("nonzero diagonal");
    let n = a.nrows();
    let b: Vec<f64> = gen::random_guess(n, seed ^ 0x5eed)
        .iter()
        .map(|v| 0.01 * v)
        .collect();
    let mut x0 = gen::random_guess(n, seed);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = Partition::new(16, (0..n).map(|i| i * 16 / n).collect());
    (a, b, x0, part)
}

/// Everything in a report that does not depend on wall time, as bits —
/// except the substrate step counters, whose `PartialEq` already skips
/// the measured timings (`both_agree` compares those).
fn fingerprint(r: &DistReport) -> String {
    let records: Vec<_> = r
        .records
        .iter()
        .map(|rec| {
            (
                rec.step,
                rec.residual_norm.to_bits(),
                rec.relaxations,
                [
                    rec.msgs,
                    rec.msgs_solve,
                    rec.msgs_residual,
                    rec.msgs_recovery,
                ],
                [
                    rec.bytes,
                    rec.bytes_solve,
                    rec.bytes_residual,
                    rec.bytes_recovery,
                ],
                rec.time.to_bits(),
                rec.active_ranks,
            )
        })
        .collect();
    let x: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
    format!(
        "{:?} {} {} {} {} {} {:?} {:?}",
        r.converged_at,
        r.deadlocked,
        r.diverged,
        r.watchdog_nudges,
        r.drift_repairs,
        r.stale_discards,
        records,
        x
    )
}

/// Solves through both entry points, asserts the reports agree, and
/// returns the `run_method` one.
fn both_agree(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    part: &Partition,
    opts: &DistOptions,
) -> DistReport {
    let cold = run_method(method, a, b, x0, part, opts);
    let mut session = TenantSession::build(method, a.clone(), b, x0, part, opts);
    let warm = session.solve(b);
    assert_eq!(
        fingerprint(&warm),
        fingerprint(&cold),
        "{:?} {:?} {:?}: session and run_method reports differ",
        method,
        opts.backend,
        opts.monitor
    );
    assert!(
        warm.stats.steps == cold.stats.steps,
        "{method:?} {:?} {:?}: substrate step counters differ",
        opts.backend,
        opts.monitor
    );
    cold
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The session loop is the driver's loop: same records, verdicts,
    /// counters and solution for every method, exec mode and monitor.
    #[test]
    fn cold_session_solve_is_bit_identical_to_run_method(
        seed in 1u64..1000,
        tight in 0usize..2,
    ) {
        let (a, b, x0, part) = problem(seed);
        let target = if tight == 1 { 1e-6 } else { 0.1 };
        for method in METHODS {
            for mode in MODES {
                for monitor in MONITORS {
                    let opts = DistOptions {
                        max_steps: 200,
                        target_residual: Some(target),
                        backend: ExecBackend::Superstep(mode),
                        monitor,
                        ..DistOptions::default()
                    };
                    both_agree(method, &a, &b, &x0, &part, &opts);
                }
            }
        }
    }
}

/// The deadlock-prone ICCS'16 variant freezes short of a tight target; a
/// nudge that no rank reacts to ends the run at once, identically on both
/// entry points.
#[test]
fn piggyback_only_deadlocks_identically() {
    let (a, b, x0, part) = problem(7);
    for mode in MODES {
        for monitor in MONITORS {
            let opts = DistOptions {
                max_steps: 300,
                target_residual: Some(1e-6),
                backend: ExecBackend::Superstep(mode),
                monitor,
                ..DistOptions::default()
            };
            let rep = both_agree(
                Method::ParallelSouthwellPiggybackOnly,
                &a,
                &b,
                &x0,
                &part,
                &opts,
            );
            assert!(rep.deadlocked, "{mode:?} {monitor:?}: expected a deadlock");
            assert!(rep.converged_at.is_none() && !rep.diverged);
            assert_eq!(rep.watchdog_nudges, 0, "no rank reacts to a nudge");
        }
    }
}

/// `(1 − a)I + a·11ᵀ`: SPD for `0 < a < 1`, unit diagonal.
fn jacobi_divergent(n: usize, a: f64) -> CsrMatrix {
    let mut coo = CooBuilder::new(n, n);
    for i in 0..n {
        for j in 0..n {
            coo.push(i, j, if i == j { 1.0 } else { a });
        }
    }
    coo.build().expect("dense pattern builds")
}

/// Point-block Block Jacobi diverges on every driver, and the superstep
/// and session reports of the divergence agree bit for bit.
#[test]
fn divergent_jacobi_is_reported_on_every_driver() {
    let n = 6;
    let a = jacobi_divergent(n, 0.8);
    let b = vec![1.0; n];
    let x0 = gen::random_guess(n, 3);
    let part = Partition::new(n, (0..n).collect());
    for monitor in MONITORS {
        let base = DistOptions {
            max_steps: 50,
            target_residual: Some(1e-8),
            divergence_cutoff: Some(10.0),
            monitor,
            ..DistOptions::default()
        };
        for mode in MODES {
            let opts = DistOptions {
                backend: ExecBackend::Superstep(mode),
                ..base
            };
            let rep = both_agree(Method::BlockJacobi, &a, &b, &x0, &part, &opts);
            assert!(
                rep.diverged,
                "superstep {mode:?} {monitor:?}: expected divergence"
            );
            assert!(rep.converged_at.is_none() && !rep.deadlocked);
            assert!(rep.records.len() < 51, "the cutoff ends the run early");
        }
        // Every rank advances every tick: the async scheduler then runs
        // plain Jacobi (a partial-advance schedule mixes in Gauss–Seidel
        // ordering, which converges on this SPD matrix).
        let async_opts = DistOptions {
            backend: ExecBackend::Async(AsyncOptions {
                advance_probability: 1.0,
                ..AsyncOptions::default()
            }),
            ..base
        };
        let rep = run_method(Method::BlockJacobi, &a, &b, &x0, &part, &async_opts);
        assert!(rep.diverged, "async {monitor:?}: expected divergence");
        assert!(rep.converged_at.is_none() && !rep.deadlocked);
    }
}
