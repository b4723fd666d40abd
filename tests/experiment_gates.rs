//! The experiments' exact claims, held at their gate thresholds.
//!
//! Each claim is a deterministic count (messages, cycles, scheduler
//! ticks), so it is checked exactly rather than timed. Every test runs the
//! experiment's own point through `dsw-bench`, and asserts that each side
//! it compares reached its target before it compares them: a run that
//! misses its target fails here instead of slipping through the
//! comparison.

use dsw_bench::experiments::{async_convergence, fig6_dist, multirhs, redundancy};
use dsw_bench::ExperimentCtx;
use dsw_core::dist::Method;
use dsw_multigrid::DistMultigrid;
use dsw_sparse::gen;

/// The half-scale context of the async and redundancy gate points: a
/// 24×24 Poisson grid over 18 ranks, at most 200 logical steps.
fn gate_ctx() -> ExperimentCtx {
    ExperimentCtx {
        scale: 0.5,
        ..ExperimentCtx::smoke()
    }
}

#[test]
fn fused_panel_cuts_messages_at_the_gate_width() {
    let row = multirhs::run_point(multirhs::GATE_METHOD, multirhs::GATE_K, 1);
    assert!(
        row.converged,
        "every fused column and sequential solve must reach the target"
    );
    assert!(
        row.msg_reduction >= multirhs::GATE_MSG_REDUCTION,
        "fused k={} panel cut msgs/rank only {:.2}x (need >= {}x)",
        multirhs::GATE_K,
        row.msg_reduction,
        multirhs::GATE_MSG_REDUCTION
    );
}

#[test]
fn ds_vcycles_stay_grid_independent_to_dim_255() {
    // Figure 6's grid independence as a hard ratio: DS-smoothed V-cycles
    // to a 1e-8 relative residual at dim 255 exceed the dim-63 count by
    // at most 15%.
    const TOL: f64 = 1e-8;
    const MAX_CYCLES: usize = 20;
    let cycles = |dim: usize| {
        let b = gen::random_rhs(dim * dim, 4100 + dim as u64);
        let mut mg = DistMultigrid::try_new(dim, fig6_dist::ds_config(1.0, 8))
            .expect("paper grids build admissible hierarchies");
        let (_, hist, _) = mg.solve(&b, MAX_CYCLES);
        let reached = hist.iter().position(|&r| r < TOL);
        reached.map(|p| p + 1).unwrap_or_else(|| {
            panic!("dim {dim}: no convergence to {TOL:e} in {MAX_CYCLES} cycles: {hist:?}")
        })
    };
    let (c63, c255) = (cycles(63), cycles(255));
    assert!(
        c255 as f64 <= 1.15 * c63 as f64,
        "dim-255 cycle count {c255} exceeds 1.15x the dim-63 count {c63}"
    );
}

#[test]
fn ds_beats_ps_on_messages_on_the_async_backend() {
    use async_convergence::{run_one, DEFAULT_LAG, DEFAULT_SKEW};
    let ctx = gate_ctx();
    let msgs = |method: Method| {
        let row = run_one(method, DEFAULT_LAG, DEFAULT_SKEW, &ctx);
        assert!(
            row.converged_tick.is_some() && !row.deadlocked,
            "{} must converge at lag {DEFAULT_LAG}, skew {DEFAULT_SKEW} (final {:.2e})",
            row.method,
            row.final_residual
        );
        row.msgs_to_target
            .unwrap_or_else(|| panic!("{} converged without crossing the target", row.method))
    };
    let (ds, ps) = (
        msgs(Method::DistributedSouthwell),
        msgs(Method::ParallelSouthwell),
    );
    assert!(
        ds < ps,
        "DS {ds:.1} msgs/rank should beat PS {ps:.1} at lag {DEFAULT_LAG}, skew {DEFAULT_SKEW}"
    );
}

#[test]
fn coded_placement_beats_uncoded_in_the_straggler_regime() {
    use redundancy::{run_one, GATE_R, STALL_SKEW};
    let ctx = gate_ctx();
    let ticks = |r: usize| {
        let row = run_one(r, STALL_SKEW, &ctx);
        let tick = row.converged_tick.unwrap_or_else(|| {
            panic!(
                "r = {r} must converge at skew {STALL_SKEW} (final {:.2e})",
                row.final_residual
            )
        });
        (tick, row.msgs_redundancy)
    };
    let ((t1, _), (t2, fanout)) = (ticks(1), ticks(GATE_R));
    assert!(
        t2 < t1,
        "r = {GATE_R} ({t2} ticks) should beat uncoded ({t1} ticks) at skew {STALL_SKEW}"
    );
    assert!(
        fanout > 0,
        "replica fan-out must be accounted under CommClass::Redundancy"
    );
}
