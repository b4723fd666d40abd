//! Warm-start correctness of the persistent solve sessions.
//!
//! Two contracts, pinned per solver (BJ / PS / DS) and per exec mode
//! (Sequential + Threaded):
//!
//! 1. **Unchanged `b` ⇒ pure continuation.** Re-solving with a bitwise
//!    identical right-hand side touches no rank state and discards no
//!    messages, so the re-solve's steps are bit-identical to having let
//!    the original run continue for the same number of steps — exact
//!    residual norms at every boundary and the final solution match to
//!    the bit.
//! 2. **Changed `b` ⇒ exact reseed.** After `begin` with a new
//!    right-hand side, every rank's maintained `‖r_p‖²` equals a bitwise
//!    recompute from its residual (no stale `norm_dirty` cache), the
//!    residual itself equals `b − Ax` to rounding, and the DS ghost
//!    layer `z` mirrors the owning neighbors' residuals to the bit.
//!
//! A direct audit of `invalidate_norm_cache()` rides along: out-of-band
//! mutation of `ls.r` *without* the invalidation hook leaves the DS norm
//! cache stale (that is what the hook exists for), and the warm-start
//! reseed path must therefore never rely on a later refresh — it
//! recomputes eagerly, which the proptest checks bitwise.

use distributed_southwell::core::dist::{
    DistOptions, DistReport, ExecBackend, Method, MonitorMode, TenantSession,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::ExecMode;
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;

const METHODS: [Method; 4] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::ParallelSouthwellPiggybackOnly,
    Method::DistributedSouthwell,
];

/// The §4.2 setup at 16 ranks: 16×16 Poisson, unit diagonal, random
/// guess scaled to a unit initial residual.
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

fn opts(mode: ExecMode, max_steps: usize) -> DistOptions {
    DistOptions {
        backend: ExecBackend::Superstep(mode),
        // Exact measurement at every boundary: makes the recorded norm
        // sequence bitwise comparable between a continuation and a
        // re-solve (the maintained cadence would differ by the solve-local
        // step counter).
        monitor: MonitorMode::Exact,
        // No verdict targets: both runs execute exactly `max_steps` steps.
        target_residual: None,
        divergence_cutoff: None,
        max_steps,
        ..DistOptions::default()
    }
}

/// Exact per-boundary norms of a finished solve, as bits.
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

    /// Contract 1: an unchanged-`b` re-solve continues the original run
    /// bit for bit.
    #[test]
    fn unchanged_rhs_resolve_is_bit_identical_to_continuing(
        seed in 1u64..1000,
        k in 3usize..10,
        mi in 0usize..4,
        threaded in 0usize..2,
    ) {
        let method = METHODS[mi];
        let mode = if threaded == 1 { ExecMode::Threaded(3) } else { ExecMode::Sequential };
        let (a, b, x0, part) = problem(seed);

        // Subject: solve k steps, then re-solve (same b) for k more.
        let mut subject = TenantSession::build(
            method, a.clone(), &b, &x0, &part, &opts(mode, k),
        );
        subject.begin(std::slice::from_ref(&b));
        while !subject.step(2) {}
        let first = subject.finish().remove(0);
        subject.begin(std::slice::from_ref(&b)); // bitwise-unchanged: must touch nothing
        while !subject.step(2) {}
        let resumed = subject.finish().remove(0);

        // Reference: one uninterrupted 2k-step run.
        let mut reference = TenantSession::build(
            method, a.clone(), &b, &x0, &part, &opts(mode, 2 * k),
        );
        let continued = reference.solve(&b);

        // The re-solve's boundary norms continue the reference's: its
        // step-0 record is the reference's step-k record, and so on.
        let cont = norm_bits(&continued);
        let sub: Vec<u64> = norm_bits(&first)
            .into_iter()
            .chain(norm_bits(&resumed).into_iter().skip(1))
            .collect();
        prop_assert_eq!(&sub, &cont, "{:?} {:?}: boundary norms diverged", method, mode);
        prop_assert_eq!(
            x_bits(&resumed.x),
            x_bits(&continued.x),
            "{:?} {:?}: solutions diverged",
            method,
            mode
        );
        // Message counters continue too: the re-solve's cumulative counts
        // plus the first solve's total equal the uninterrupted run's.
        let last_first = first.records.last().expect("k >= 1 records");
        let last_res = resumed.records.last().expect("k >= 1 records");
        let last_cont = continued.records.last().expect("2k records");
        prop_assert_eq!(last_first.msgs + last_res.msgs, last_cont.msgs);
        prop_assert_eq!(
            last_first.relaxations + last_res.relaxations,
            last_cont.relaxations
        );
    }

    /// Contract 2: a changed-`b` re-solve re-seeds everything exactly.
    #[test]
    fn changed_rhs_reseeds_norms_and_ghosts_exactly(
        seed in 1u64..1000,
        k in 1usize..8,
        mi in 0usize..4,
        threaded in 0usize..2,
        amp in 0.05f64..2.0,
    ) {
        let method = METHODS[mi];
        let mode = if threaded == 1 { ExecMode::Threaded(3) } else { ExecMode::Sequential };
        let (a, b, x0, part) = problem(seed);
        let n = a.nrows();

        let mut session = TenantSession::build(
            method, a.clone(), &b, &x0, &part, &opts(mode, k),
        );
        session.begin(std::slice::from_ref(&b));
        while !session.step(2) {}
        session.finish();

        // Snapshot the DS ghost layer before the reseed: the reseed must
        // shift it by exactly Δb at each external row — anything else
        // (forgetting z, wrong indexing) breaks the z-mirrors-neighbor-r
        // coupling the protocol relies on.
        let z_before: Option<Vec<Vec<f64>>> = match &session {
            TenantSession::Ds(s) => Some(s.ranks().iter().map(|r| r.z.clone()).collect()),
            _ => None,
        };

        // Evolve the right-hand side and re-solve. (The session's current
        // b is the all-zero one from `problem`, so Δb = b2.)
        let b2: Vec<f64> = (0..n)
            .map(|i| amp * (((i * 37 + seed as usize) % 11) as f64 / 11.0 - 0.5))
            .collect();
        session.begin(std::slice::from_ref(&b2));

        macro_rules! snap {
            ($s:expr) => {{
                let ranks = $s.ranks();
                (
                    gather(ranks.iter().map(|r| &r.ls), n),
                    ranks.iter().map(|r| r.ls.r.clone()).collect::<Vec<Vec<f64>>>(),
                    ranks.iter().map(maintained).collect::<Vec<f64>>(),
                    ranks.iter().map(|r| r.ls.rows.clone()).collect::<Vec<Vec<usize>>>(),
                )
            }};
        }
        let (x, r_parts, norms, rows) = match &session {
            TenantSession::Bj(s) => snap!(s),
            TenantSession::Ps(s) => snap!(s),
            TenantSession::Ds(s) => snap!(s),
        };

        // DS-only invariants: Γ/Γ̃ carry the exact post-reseed norms and
        // the ghost layer shifted by exactly Δb.
        if let TenantSession::Ds(s) = &session {
            let ranks = s.ranks();
            let exact_norms: Vec<f64> = ranks.iter().map(|r| r.ls.residual_norm_sq()).collect();
            let z0 = z_before.as_ref().expect("snapshotted before reseed");
            for (p, rk) in ranks.iter().enumerate() {
                for (slot, &q) in rk.ls.neighbors.iter().enumerate() {
                    prop_assert_eq!(
                        rk.gamma_sq[slot].to_bits(),
                        exact_norms[q].to_bits(),
                        "rank {} Γ[{}] not the exact reseeded norm of {}",
                        p, slot, q
                    );
                    prop_assert_eq!(
                        rk.tilde_sq[slot].to_bits(),
                        exact_norms[p].to_bits(),
                        "rank {} Γ̃[{}] not its own exact norm", p, slot
                    );
                }
                for (slot, &g) in rk.ls.ext_cols.iter().enumerate() {
                    let expected = z0[p][slot] + b2[g];
                    prop_assert_eq!(
                        rk.z[slot].to_bits(),
                        expected.to_bits(),
                        "rank {} ghost slot {} (row {}) not shifted by Δb",
                        p, slot, g
                    );
                }
            }
        }

        // (a) — bitwise: maintained norm == recompute from r — no stale
        // `norm_dirty` cache survives a reseed.
        for (p, (norm, rp)) in norms.iter().zip(&r_parts).enumerate() {
            let recomputed = vecops::norm2_sq(rp);
            prop_assert_eq!(
                norm.to_bits(),
                recomputed.to_bits(),
                "rank {}: stale maintained norm after reseed", p
            );
        }

        // (b) — to rounding: the delta-shifted r equals a cold recompute
        // (the maintained residual drifts from b − Ax only by the
        // protocol's own per-step rounding, which the reseed preserves).
        let r_exact = a.residual(&b2, &x);
        for (rows_p, rp) in rows.iter().zip(&r_parts) {
            for (li, &g) in rows_p.iter().enumerate() {
                let err = (rp[li] - r_exact[g]).abs();
                prop_assert!(
                    err <= 1e-10,
                    "row {}: reseeded r={} vs exact {}", g, rp[li], r_exact[g]
                );
            }
        }

        // And the re-solve still works end to end.
        while !session.step(4) {}
        let report = session.finish().remove(0);
        let final_norm = report
            .records
            .last()
            .expect("at least the initial record")
            .residual_norm;
        prop_assert!(final_norm.is_finite());
    }
}

fn gather<'a>(
    locals: impl Iterator<Item = &'a distributed_southwell::core::dist::LocalSystem>,
    n: usize,
) -> Vec<f64> {
    let mut x = vec![0.0; n];
    for ls in locals {
        for (li, &g) in ls.rows.iter().enumerate() {
            x[g] = ls.x[li];
        }
    }
    x
}

fn maintained<R: distributed_southwell::rma::RankAlgorithm>(r: &R) -> f64 {
    r.maintained_norm_sq()
        .expect("all three solvers maintain norms")
}

/// The `invalidate_norm_cache()` audit: out-of-band residual mutation
/// without the hook leaves the DS cache stale — which is exactly why the
/// warm-start reseed recomputes eagerly instead of relying on a later
/// refresh. This pins the hook's semantics so a future refactor cannot
/// silently make the reseed's eager recompute redundant-looking but
/// load-bearing.
#[test]
fn norm_cache_requires_invalidation_after_out_of_band_mutation() {
    use distributed_southwell::rma::RankAlgorithm;
    let (a, b, x0, part) = problem(3);
    let session = TenantSession::build(
        Method::DistributedSouthwell,
        a,
        &b,
        &x0,
        &part,
        &opts(ExecMode::Sequential, 4),
    );
    let TenantSession::Ds(mut s) = session else {
        panic!("DS build returns a DS session");
    };
    s.begin(std::slice::from_ref(&b));
    s.step(2);

    let rank = &mut s.ranks_mut()[0];
    let before = rank.maintained_norm_sq().expect("DS maintains norms");
    // Out-of-band mutation, no invalidation: the cache must NOT track it
    // (the cache is refreshed lazily, at phase boundaries).
    rank.ls.r[0] += 10.0;
    let stale = rank.maintained_norm_sq().expect("DS maintains norms");
    assert_eq!(
        stale.to_bits(),
        before.to_bits(),
        "maintained norm is a cache; out-of-band writes must not show up unbidden"
    );
    // With the hook: the next phase refreshes. Stepping once makes the
    // maintained norm consistent with the mutated residual again.
    rank.invalidate_norm_cache();
    s.step(1);
    let rank = &s.ranks()[0];
    let after = rank.maintained_norm_sq().expect("DS maintains norms");
    let recomputed = rank.ls.residual_norm_sq();
    assert_eq!(
        after.to_bits(),
        recomputed.to_bits(),
        "invalidate_norm_cache + one phase refreshes the cache exactly"
    );
}

/// Warm starting pays: after a converged solve, a small perturbation of
/// `b` re-converges in fewer steps than the cold solve took.
#[test]
fn warm_start_reconverges_faster() {
    let (a, _, x0, part) = problem(5);
    let n = a.nrows();
    let b1: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 0.05).collect();
    let run_opts = DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        target_residual: Some(1e-6),
        max_steps: 2000,
        ..DistOptions::default()
    };
    let mut session =
        TenantSession::build(Method::DistributedSouthwell, a, &b1, &x0, &part, &run_opts);
    let cold = session.solve(&b1);
    let cold_steps = cold.converged_at.expect("cold solve converges");

    let b2: Vec<f64> = b1.iter().map(|v| v + 1e-7).collect();
    let warm = session.solve(&b2);
    let warm_steps = warm.converged_at.expect("warm solve converges");
    assert!(
        warm_steps < cold_steps,
        "warm ({warm_steps}) must beat cold ({cold_steps})"
    );
}
