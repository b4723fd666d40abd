//! Fused multi-RHS panel correctness against the scalar session path.
//!
//! Two contracts, pinned per solver (BJ / PS / DS) and per exec mode
//! (Sequential + Threaded):
//!
//! 1. **`k = 1` fusion is free.** A one-column panel solve is bit-identical
//!    to the scalar changed-`b` warm start it replaces: every boundary's
//!    exact residual norm, the cumulative message and relaxation counters,
//!    the verdicts, and the final solution all match to the bit. The only
//!    difference the panel is allowed to make is on the modelled wire: each
//!    packed message pays the 4-byte panel header plus one 2-byte part tag,
//!    so fused bytes exceed scalar bytes by exactly `6 × msgs` while the
//!    message *counts* are equal.
//! 2. **`k > 1` columns are independent solves.** Each column of a fused
//!    panel produces the same per-boundary norms, convergence step, and
//!    solution as a standalone warm-started solve of that right-hand side
//!    from the same base state. (Communication counters are panel-level by
//!    design — shared across the batch — so they are excluded here and
//!    reconciled by the `multirhs` bench instead.)
//!
//! Both contracts rest on the packing invariant: under the warm-start
//! preconditions each column puts at most one message per (target, class)
//! per phase, so per-(target, class) packing preserves every column's
//! delivery order and the per-column trajectories cannot drift.

use distributed_southwell::core::dist::{
    DistOptions, DistReport, DsConfig, ExecBackend, LocalSolver, Method, MonitorMode, TenantSession,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::{ExecMode, PANEL_HEADER_BYTES, PANEL_PART_TAG_BYTES};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;

const METHODS: [Method; 3] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::DistributedSouthwell,
];

/// The warm-start test setup at 16 ranks: 16×16 Poisson, unit diagonal,
/// random guess scaled to a unit initial residual.
fn problem(seed: u64) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
    let mut a = gen::grid2d_poisson(16, 16);
    a.scale_unit_diagonal().expect("nonzero diagonal");
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, seed);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = Partition::new(16, (0..n).map(|i| i * 16 / n).collect());
    (a, b, x0, part)
}

fn opts(mode: ExecMode, max_steps: usize, target: Option<f64>) -> DistOptions {
    DistOptions {
        backend: ExecBackend::Superstep(mode),
        // Exact measurement at every boundary: every recorded norm is a
        // true ‖b − Ax‖₂, so the sequences compare bitwise.
        monitor: MonitorMode::Exact,
        target_residual: target,
        divergence_cutoff: None,
        max_steps,
        ..DistOptions::default()
    }
}

/// A fresh session warmed by one cold solve of the base rhs — the common
/// starting state both the scalar and the fused paths continue from.
fn warmed_session(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    part: &Partition,
    o: &DistOptions,
) -> TenantSession {
    let mut s = TenantSession::build(method, a.clone(), b, x0, part, o, None);
    s.solve(b);
    s
}

fn perturbed_rhs(n: usize, seed: u64, col: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i * 37 + seed as usize * 13 + col * 101) % 17;
            0.3 * (h as f64 / 17.0 - 0.5)
        })
        .collect()
}

fn norm_bits(r: &DistReport) -> Vec<u64> {
    r.records
        .iter()
        .map(|rec| rec.residual_norm.to_bits())
        .collect()
}

fn x_bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Contract 1: a one-column panel solve is the scalar warm start, bit
    /// for bit — except the modelled wire, which pays exactly the packing
    /// overhead (header + one part tag) per message.
    #[test]
    fn one_column_panel_is_bit_identical_to_scalar_solve(
        seed in 1u64..1000,
        steps in 3usize..10,
        mi in 0usize..3,
        threaded in 0usize..2,
    ) {
        let method = METHODS[mi];
        let mode = if threaded == 1 { ExecMode::Threaded(3) } else { ExecMode::Sequential };
        let (a, b, x0, part) = problem(seed);
        let o = opts(mode, steps, None);

        let mut scalar = warmed_session(method, &a, &b, &x0, &part, &o);
        let mut fused = warmed_session(method, &a, &b, &x0, &part, &o);

        let b2 = perturbed_rhs(a.nrows(), seed, 0);
        let sr = scalar.solve(&b2);
        let frs = fused.solve_panel(&[b2], None);
        prop_assert_eq!(frs.len(), 1);
        let fr = &frs[0];

        prop_assert_eq!(
            norm_bits(&sr),
            norm_bits(fr),
            "{:?} {:?}: boundary norms diverged",
            method,
            mode
        );
        prop_assert_eq!(x_bits(&sr.x), x_bits(&fr.x), "{:?} {:?}: solutions diverged", method, mode);
        prop_assert_eq!(sr.converged_at, fr.converged_at);
        prop_assert_eq!(sr.deadlocked, fr.deadlocked);
        prop_assert_eq!(sr.diverged, fr.diverged);

        // Counter parity per boundary: with one part per packed message the
        // panel sends exactly the scalar message stream.
        for (s_rec, f_rec) in sr.records.iter().zip(&fr.records) {
            prop_assert_eq!(s_rec.msgs, f_rec.msgs, "step {}: msgs diverged", s_rec.step);
            prop_assert_eq!(s_rec.relaxations, f_rec.relaxations);
            prop_assert_eq!(s_rec.msgs_solve, f_rec.msgs_solve);
            prop_assert_eq!(s_rec.msgs_residual, f_rec.msgs_residual);
        }
        prop_assert_eq!(sr.stats.total_msgs(), fr.stats.total_msgs());

        // The wire delta is pure packing overhead: header + one tag per
        // message, nothing else.
        let overhead = (PANEL_HEADER_BYTES + PANEL_PART_TAG_BYTES) * fr.stats.total_msgs();
        prop_assert_eq!(
            fr.stats.total_bytes(),
            sr.stats.total_bytes() + overhead,
            "{:?} {:?}: fused bytes are not scalar + 6/msg",
            method,
            mode
        );
    }

    /// Contract 2: every column of a `k > 1` fused panel reports the same
    /// trajectory as a standalone warm-started solve of that rhs from the
    /// same base state.
    #[test]
    fn fused_columns_match_independent_solves(
        seed in 1u64..1000,
        k in 2usize..5,
        mi in 0usize..3,
        threaded in 0usize..2,
    ) {
        let method = METHODS[mi];
        let mode = if threaded == 1 { ExecMode::Threaded(3) } else { ExecMode::Sequential };
        let (a, b, x0, part) = problem(seed);
        let o = opts(mode, 400, Some(1e-5));
        let n = a.nrows();

        let bs: Vec<Vec<f64>> = (0..k).map(|c| perturbed_rhs(n, seed, c)).collect();

        let mut fused = warmed_session(method, &a, &b, &x0, &part, &o);
        let frs = fused.solve_panel(&bs, None);
        prop_assert_eq!(frs.len(), k);

        for (c, fr) in frs.iter().enumerate() {
            let mut indep = warmed_session(method, &a, &b, &x0, &part, &o);
            let ir = indep.solve(&bs[c]);
            prop_assert_eq!(
                norm_bits(&ir),
                norm_bits(fr),
                "{:?} {:?} col {}: boundary norms diverged",
                method,
                mode,
                c
            );
            prop_assert_eq!(
                x_bits(&ir.x),
                x_bits(&fr.x),
                "{:?} {:?} col {}: solutions diverged",
                method,
                mode,
                c
            );
            prop_assert_eq!(ir.converged_at, fr.converged_at, "col {}: converged_at", c);
            prop_assert_eq!(ir.deadlocked, fr.deadlocked);
            prop_assert_eq!(ir.diverged, fr.diverged);
            prop_assert_eq!(ir.watchdog_nudges, fr.watchdog_nudges);
        }
    }
}

/// After a panel solve the session owns the *last* column's state: an
/// immediate scalar re-solve of the last rhs warm-starts from its
/// converged solution and needs no more steps than the fused column did.
#[test]
fn panel_adoption_warm_starts_next_scalar_solve() {
    let (a, b, x0, part) = problem(7);
    let n = a.nrows();
    let o = opts(ExecMode::Sequential, 2000, Some(1e-8));
    let mut session = warmed_session(Method::DistributedSouthwell, &a, &b, &x0, &part, &o);

    let bs: Vec<Vec<f64>> = (0..3).map(|c| perturbed_rhs(n, 7, c)).collect();
    let frs = session.solve_panel(&bs, None);
    let fused_steps = frs[2].converged_at.expect("fused column converges");

    let warm = session.solve(&bs[2]);
    let warm_steps = warm.converged_at.expect("warm re-solve converges");
    assert!(
        warm_steps <= fused_steps,
        "adopted state must warm-start: re-solve took {warm_steps} vs fused {fused_steps}"
    );
    let err = vecops::norm2(&a.residual(&bs[2], &warm.x));
    assert!(err <= 1e-7, "adopted solution drifted: ‖b − Ax‖ = {err}");
}

/// The fused Block Jacobi kernels beyond the widths and local solver the
/// proptests draw: dynamic-width lanes (`k = 12`), the full 64-column
/// panel, and the column-by-column branch taken by multicolor
/// Gauss–Seidel and exact local solves. Every column must match its
/// independent warm-started solve bit for bit. The Gauss–Seidel widths
/// run under the maintained monitor too, whose boundary norms are the
/// per-column lane sums the fused kernels fold.
#[test]
fn fused_bj_columns_match_independent_solves_at_every_width_and_local_solver() {
    let (a, b, x0, part) = problem(3);
    let n = a.nrows();
    let cases = [
        (LocalSolver::GaussSeidel, 12, MonitorMode::Exact),
        (LocalSolver::GaussSeidel, 12, MonitorMode::default()),
        (LocalSolver::GaussSeidel, 64, MonitorMode::default()),
        (LocalSolver::MulticolorGaussSeidel, 3, MonitorMode::Exact),
        (LocalSolver::Exact, 3, MonitorMode::Exact),
    ];
    for (local_solver, k, monitor) in cases {
        let o = DistOptions {
            ds_config: DsConfig {
                local_solver,
                ..DsConfig::default()
            },
            monitor,
            ..opts(ExecMode::Sequential, 400, Some(1e-4))
        };
        // `perturbed_rhs` repeats every 17 columns; scale each repeat so
        // all 64 right-hand sides differ.
        let bs: Vec<Vec<f64>> = (0..k)
            .map(|c| {
                let scale = 1.0 + (c / 17) as f64 * 0.25;
                perturbed_rhs(n, 3, c).iter().map(|v| v * scale).collect()
            })
            .collect();
        for c in 1..k {
            assert!(!bs[..c].contains(&bs[c]), "rhs {c} repeats an earlier one");
        }

        let mut fused = warmed_session(Method::BlockJacobi, &a, &b, &x0, &part, &o);
        let frs = fused.solve_panel(&bs, None);
        assert_eq!(frs.len(), k);
        for (c, fr) in frs.iter().enumerate() {
            let mut indep = warmed_session(Method::BlockJacobi, &a, &b, &x0, &part, &o);
            let ir = indep.solve(&bs[c]);
            let case = format!("{local_solver:?} k = {k} {monitor:?} col {c}");
            assert!(ir.converged_at.is_some(), "{case}: converged");
            assert_eq!(norm_bits(&ir), norm_bits(fr), "{case}: boundary norms");
            assert_eq!(x_bits(&ir.x), x_bits(&fr.x), "{case}: solutions");
            assert_eq!(ir.converged_at, fr.converged_at, "{case}: converged_at");
        }
    }
}
