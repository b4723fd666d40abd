//! Equivalence and convergence contract for the distributed multigrid
//! (`dsw_multigrid::DistMultigrid`):
//!
//! * **Scalar equivalence** — a distributed V(1,1)-cycle with the
//!   row-granular DS smoother is bit-identical to the scalar
//!   [`Multigrid`] with [`Smoother::distributed_southwell`] — same
//!   iterates, same residual history — for any partition count, any
//!   agglomeration floor, and any superstep scheduling mode. The whole
//!   cycle runs on the substrate (smoothing, restriction, prolongation),
//!   so this pins the full distributed pipeline against the scalar
//!   reference, property-tested over seeds.
//! * **Figure 6 (distributed)** — DS-smoothed V-cycles converge
//!   grid-size-independently on the threaded backend, at one sweep and at
//!   half a sweep.

use distributed_southwell::multigrid::{DistMultigrid, DistMultigridConfig, Multigrid, Smoother};
use distributed_southwell::rma::ExecMode;
use distributed_southwell::sparse::gen;
use proptest::prelude::*;

fn dist_config(sweeps: f64, seed: u64, nparts: usize, mode: ExecMode) -> DistMultigridConfig {
    DistMultigridConfig {
        sweeps,
        seed,
        mode,
        nparts,
        min_rows_per_part: 16,
        ..DistMultigridConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ds_vcycle_is_bit_identical_to_the_scalar_multigrid(
        dim_sel in 0usize..3,
        nparts in 1usize..9,
        half in 0usize..2,
        seed in 0u64..1000,
    ) {
        let dim = [15usize, 31, 63][dim_sel];
        let sweeps = if half == 1 { 0.5 } else { 1.0 };
        let n = dim * dim;
        let b = gen::random_rhs(n, seed ^ 0x5EED);
        let mut scalar = Multigrid::try_new(dim, Smoother::distributed_southwell(sweeps, seed))
            .expect("admissible dimension");
        let (x_ref, hist_ref) = scalar.solve(&b, 3);
        let mut dist = DistMultigrid::try_new(
            dim,
            dist_config(sweeps, seed, nparts, ExecMode::Sequential),
        )
        .expect("admissible hierarchy");
        let (x, hist, _) = dist.solve(&b, 3);
        prop_assert_eq!(x, x_ref, "iterates must be bit-identical");
        prop_assert_eq!(hist, hist_ref, "residual history must be bit-identical");
    }

    #[test]
    fn threaded_and_sequential_cycles_agree_bitwise(
        nparts in 2usize..7,
        workers in 2usize..5,
        seed in 0u64..1000,
    ) {
        let dim = 15;
        let b = gen::random_rhs(dim * dim, seed ^ 0x7EAD);
        let solve = |mode: ExecMode| {
            DistMultigrid::try_new(dim, dist_config(1.0, seed, nparts, mode))
                .expect("admissible hierarchy")
                .solve(&b, 3)
        };
        let (x_seq, hist_seq, _) = solve(ExecMode::Sequential);
        let (x_thr, hist_thr, _) = solve(ExecMode::Threaded(workers));
        prop_assert_eq!(x_seq, x_thr);
        prop_assert_eq!(hist_seq, hist_thr);
    }
}

/// Cycles to push the relative residual below `tol`.
fn cycles_to(hist: &[f64], tol: f64) -> usize {
    hist.iter()
        .position(|&r| r < tol)
        .map(|p| p + 1)
        .unwrap_or(hist.len() + 1)
}

#[test]
fn fig6_grid_independence_on_the_threaded_backend() {
    // Figure 6, distributed edition: the cycle count to a fixed tolerance
    // must not grow with the grid, at one DS sweep and at half a sweep.
    for &sweeps in &[1.0f64, 0.5] {
        let mut counts = Vec::new();
        for &dim in &[15usize, 31, 63] {
            let b = gen::random_rhs(dim * dim, 40 + dim as u64);
            let cfg = DistMultigridConfig {
                sweeps,
                seed: 7,
                mode: ExecMode::Threaded(4),
                nparts: 8,
                min_rows_per_part: 32,
                ..DistMultigridConfig::default()
            };
            let mut mg = DistMultigrid::try_new(dim, cfg).expect("admissible hierarchy");
            let (_, hist, _) = mg.solve(&b, 12);
            assert!(
                hist[11] < 1e-6,
                "dim {dim} sweeps {sweeps}: 12 cycles should be plenty, got {hist:?}"
            );
            counts.push(cycles_to(&hist, 1e-6));
        }
        let max = *counts.iter().max().expect("nonempty");
        let min = *counts.iter().min().expect("nonempty");
        assert!(
            max <= min + 2,
            "grid-independent convergence expected at {sweeps} sweeps: {counts:?}"
        );
    }
}

#[test]
fn agglomeration_floors_stay_bit_identical() {
    // The equivalence is independent of how hard the coarse levels
    // agglomerate.
    let dim = 31;
    let b = gen::random_rhs(dim * dim, 77);
    let (x_ref, hist_ref) = Multigrid::try_new(dim, Smoother::distributed_southwell(1.0, 4))
        .expect("admissible dimension")
        .solve(&b, 3);
    for min_rows in [1usize, 16, 256] {
        let cfg = DistMultigridConfig {
            seed: 4,
            nparts: 6,
            min_rows_per_part: min_rows,
            ..DistMultigridConfig::default()
        };
        let (x, hist, _) = DistMultigrid::try_new(dim, cfg)
            .expect("admissible hierarchy")
            .solve(&b, 3);
        assert_eq!(x, x_ref, "min_rows_per_part {min_rows}");
        assert_eq!(hist, hist_ref);
    }
}

#[test]
fn per_level_accounting_is_populated() {
    let dim = 31;
    let b = gen::random_rhs(dim * dim, 88);
    let mut mg = DistMultigrid::try_new(dim, dist_config(1.0, 2, 6, ExecMode::Sequential))
        .expect("admissible hierarchy");
    let (_, _, reports) = mg.solve(&b, 2);
    let rep = &reports[0];
    // Levels 15/31: dims 31, 15, 7, 3.
    assert_eq!(rep.levels.len(), 4);
    for lev in &rep.levels[..3] {
        assert!(lev.relaxations > 0, "level {} smoothed", lev.level);
        assert!(lev.transfer_msgs > 0, "level {} transferred", lev.level);
        assert!(lev.transfer_bytes > 0);
    }
    // The coarsest level is solved exactly on the host: no smoothing, no
    // outgoing transfers.
    let coarsest = rep.levels.last().expect("has levels");
    assert_eq!(coarsest.relaxations, 0);
    assert_eq!(coarsest.transfer_msgs, 0);
    assert!(rep.total_msgs() > 0);
    assert!(rep.rel_residual < 1.0);
}
