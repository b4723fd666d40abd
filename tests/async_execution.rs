//! Asynchronous execution of the distributed solvers: ranks progressing at
//! different speeds, with messages arriving whenever the target next
//! reaches a phase boundary — the regime the paper's Casper-based RMA
//! implementation actually runs in. Distributed Southwell treats all its
//! neighbor data as estimates, so it tolerates the staleness.
//!
//! Includes the cross-executor fate-parity suite: with advance probability
//! 1 and an unbinding lag bound, the async scheduler's ticks coincide with
//! the superstep executor's epochs, so the pure fate function
//! `(epoch, origin, target, index, class)` must inject the *same* drops,
//! duplicates, and delays on both substrates, producing bit-identical
//! solver state and fault counters.

use distributed_southwell::core::dist::{distribute, BlockJacobiRank, DistributedSouthwellRank};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions};
use distributed_southwell::rma::{AsyncOptions, ChaosConfig, CostModel, ExecMode, Executor};
use distributed_southwell::sparse::{gen, vecops};

fn problem(nx: usize, seed: u64) -> (distributed_southwell::sparse::CsrMatrix, Vec<f64>, Vec<f64>) {
    let mut a = gen::grid2d_poisson(nx, nx);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, seed);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    (a, b, x0)
}

fn residual_of<R>(
    ranks: &[R],
    ls_of: impl Fn(&R) -> &distributed_southwell::core::dist::LocalSystem,
    a: &distributed_southwell::sparse::CsrMatrix,
    b: &[f64],
) -> f64 {
    let mut x = vec![0.0; a.nrows()];
    for r in ranks {
        let ls = ls_of(r);
        for (li, &g) in ls.rows.iter().enumerate() {
            x[g] = ls.x[li];
        }
    }
    vecops::norm2(&a.residual(b, &x))
}

#[test]
fn distributed_southwell_converges_under_async_scheduling() {
    let (a, b, x0) = problem(16, 3);
    let part = partition_multilevel(&Graph::from_matrix(&a), 8, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let ranks = DistributedSouthwellRank::build(locals, &norms, &r0);
    let mut ex = Executor::scheduled(
        ranks,
        CostModel::default(),
        ExecMode::Sequential,
        ChaosConfig::none(),
        AsyncOptions {
            advance_probability: 0.6,
            max_lag: 6,
            seed: 5,
            ..AsyncOptions::default()
        },
    )
    .expect("valid async options");
    ex.run_steps(400, 200_000).expect("budget is ample");
    let res = residual_of(ex.ranks(), |r| &r.ls, &a, &b);
    assert!(res < 1e-3, "async DS should converge, residual {res}");
}

#[test]
fn distributed_southwell_converges_under_straggler_skew() {
    // The heterogeneous regime: some ranks advance at a fraction of the
    // base probability. Convergence slows but survives, and the slowest
    // rank still progresses (the lag bound throttles the fast ones).
    let (a, b, x0) = problem(16, 3);
    let part = partition_multilevel(&Graph::from_matrix(&a), 8, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let ranks = DistributedSouthwellRank::build(locals, &norms, &r0);
    let mut ex = Executor::scheduled(
        ranks,
        CostModel::default(),
        ExecMode::Sequential,
        ChaosConfig::none(),
        AsyncOptions {
            advance_probability: 0.7,
            max_lag: 8,
            seed: 11,
            straggler_skew: 0.8,
        },
    )
    .expect("valid async options");
    ex.run_steps(400, 400_000).expect("budget is ample");
    let res = residual_of(ex.ranks(), |r| &r.ls, &a, &b);
    assert!(
        res < 1e-3,
        "skewed async DS should converge, residual {res}"
    );
    let min = ex.clocks().iter().min().unwrap();
    let max = ex.clocks().iter().max().unwrap();
    assert!(max - min <= 8, "lag bound must hold under skew");
}

#[test]
fn block_jacobi_becomes_asynchronous_jacobi_and_still_converges_on_poisson() {
    let (a, b, x0) = problem(12, 4);
    let part = partition_multilevel(&Graph::from_matrix(&a), 6, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let ranks = BlockJacobiRank::build(locals);
    let mut ex = Executor::scheduled(
        ranks,
        CostModel::default(),
        ExecMode::Sequential,
        ChaosConfig::none(),
        AsyncOptions {
            advance_probability: 0.5,
            max_lag: 3,
            seed: 9,
            ..AsyncOptions::default()
        },
    )
    .expect("valid async options");
    ex.run_steps(300, 100_000).expect("budget is ample");
    let res = residual_of(ex.ranks(), |r| &r.ls, &a, &b);
    assert!(
        res < 1e-4,
        "asynchronous block Jacobi should converge on Poisson, residual {res}"
    );
}

#[test]
fn async_and_superstep_agree_when_everyone_always_advances() {
    // With advance probability 1 and a lag bound that never binds, the
    // async scheduler degenerates into lock-step supersteps.
    let (a, b, x0) = problem(10, 7);
    let part = partition_multilevel(&Graph::from_matrix(&a), 5, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);

    let mut sync_ex = Executor::new(
        DistributedSouthwellRank::build(locals.clone(), &norms, &r0),
        CostModel::default(),
        ExecMode::Sequential,
    );
    for _ in 0..12 {
        sync_ex.step();
    }

    let mut async_ex = Executor::scheduled(
        DistributedSouthwellRank::build(locals, &norms, &r0),
        CostModel::default(),
        ExecMode::Sequential,
        ChaosConfig::none(),
        AsyncOptions {
            advance_probability: 1.0,
            max_lag: 1_000_000,
            seed: 0,
            ..AsyncOptions::default()
        },
    )
    .expect("valid async options");
    async_ex.run_steps(12, 1_000).expect("lock-step: 24 ticks");

    let xs: Vec<f64> = sync_ex
        .ranks()
        .iter()
        .flat_map(|r| r.ls.x.clone())
        .collect();
    let xa: Vec<f64> = async_ex
        .ranks()
        .iter()
        .flat_map(|r| r.ls.x.clone())
        .collect();
    assert_eq!(xs, xa, "lock-step async must equal the superstep executor");
}

/// Runs DS for `nsteps` on both substrates under the same chaos config
/// (async in its lock-step degeneration, where ticks equal epochs) and
/// asserts bit-identical solver state plus identical fault and message
/// accounting — the fate function must make the same per-message decision
/// on both executors.
fn assert_fate_parity(chaos: ChaosConfig, nsteps: usize) {
    let (a, b, x0) = problem(12, 7);
    let part = partition_multilevel(&Graph::from_matrix(&a), 6, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);

    let mut sync_ex = Executor::with_chaos(
        DistributedSouthwellRank::build(locals.clone(), &norms, &r0),
        CostModel::default(),
        ExecMode::Sequential,
        chaos,
    );
    for _ in 0..nsteps {
        sync_ex.step();
    }

    let mut async_ex = Executor::scheduled(
        DistributedSouthwellRank::build(locals, &norms, &r0),
        CostModel::default(),
        ExecMode::Sequential,
        chaos,
        AsyncOptions {
            advance_probability: 1.0,
            max_lag: 1_000_000,
            seed: 0,
            ..AsyncOptions::default()
        },
    )
    .expect("message faults are supported");
    async_ex
        .run_steps(nsteps, 10 * nsteps)
        .expect("lock-step ticks");

    let state = |ranks: &[DistributedSouthwellRank]| -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            ranks
                .iter()
                .flat_map(|r| r.ls.x.iter().map(|v| v.to_bits()))
                .collect(),
            ranks
                .iter()
                .flat_map(|r| r.ls.r.iter().map(|v| v.to_bits()))
                .collect(),
            ranks
                .iter()
                .map(|r| r.ls.residual_norm_sq().to_bits())
                .collect(),
        )
    };
    assert_eq!(
        state(sync_ex.ranks()),
        state(async_ex.ranks()),
        "solver state diverged under {chaos:?}"
    );
    let sf = sync_ex.stats.total_faults();
    let af = async_ex.stats.total_faults();
    assert_eq!(sf.dropped, af.dropped, "drop accounting under {chaos:?}");
    assert_eq!(
        sf.duplicated, af.duplicated,
        "duplicate accounting under {chaos:?}"
    );
    assert_eq!(sf.delayed, af.delayed, "delay accounting under {chaos:?}");
    assert_eq!(
        (
            sync_ex.stats.total_msgs(),
            sync_ex.stats.total_msgs_solve(),
            sync_ex.stats.total_msgs_residual(),
            sync_ex.stats.total_msgs_recovery(),
        ),
        (
            async_ex.stats.total_msgs(),
            async_ex.stats.total_msgs_solve(),
            async_ex.stats.total_msgs_residual(),
            async_ex.stats.total_msgs_recovery(),
        ),
        "per-class message accounting under {chaos:?}"
    );
    assert_eq!(
        sync_ex.stats.msgs_per_rank, async_ex.stats.msgs_per_rank,
        "per-rank message accounting under {chaos:?}"
    );
}

#[test]
fn fate_semantics_are_identical_across_executors() {
    let combos = [
        ChaosConfig {
            drop_rate: 0.25,
            seed: 13,
            ..ChaosConfig::none()
        },
        ChaosConfig {
            duplicate_rate: 0.25,
            seed: 13,
            ..ChaosConfig::none()
        },
        ChaosConfig {
            delay_rate: 0.25,
            max_delay_epochs: 3,
            seed: 13,
            ..ChaosConfig::none()
        },
        // Overlapping fates: a surviving message may be both duplicated
        // (the copy lands now) and delayed (the original lands late).
        ChaosConfig {
            drop_rate: 0.15,
            duplicate_rate: 0.2,
            delay_rate: 0.2,
            max_delay_epochs: 2,
            seed: 29,
            ..ChaosConfig::none()
        },
    ];
    for chaos in combos {
        assert_fate_parity(chaos, 14);
    }
}
