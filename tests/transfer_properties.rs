//! Property-based tests on the multigrid transfer operators and the
//! binary IO layer — the pieces whose correctness is a precise
//! algebraic statement.

use distributed_southwell::multigrid::transfer::{prolong, restrict};
use distributed_southwell::multigrid::TransferExchange;
use distributed_southwell::partition::partition_strip;
use distributed_southwell::rma::{CostModel, ExecMode};
use distributed_southwell::sparse::io_bin;
use distributed_southwell::sparse::{gen, vecops};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prolong_and_restrict_are_adjoint(
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Grids cd = 2^k - 1, fd = 2cd + 1.
        let cd = (1usize << k) - 1;
        let fd = 2 * cd + 1;
        let ec = gen::random_guess(cd * cd, seed);
        let rf = gen::random_guess(fd * fd, seed ^ 0xABCD);
        let lhs = vecops::dot(&prolong(&ec, cd, fd), &rf);
        let rhs = vecops::dot(&ec, &restrict(&rf, fd, cd));
        prop_assert!((lhs - rhs).abs() < 1e-12, "{lhs} vs {rhs}");
    }

    #[test]
    fn distributed_transfers_are_bit_identical_for_any_partition_and_pool(
        k in 1usize..4,
        nf in 1usize..7,
        nc in 1usize..4,
        workers in 1usize..4,
        seed in 0u64..500,
    ) {
        // The substrate transfers (union-rank executor, every stencil
        // input by message) must reproduce the scalar operators bit for
        // bit, whatever the two partitions and whatever the superstep
        // scheduling mode.
        let cd = (1usize << k) - 1;
        let fd = 2 * cd + 1;
        let fpart = partition_strip(fd * fd, nf.min(fd * fd));
        let cpart = partition_strip(cd * cd, nc.min(cd * cd));
        let mode = if workers == 1 {
            ExecMode::Sequential
        } else {
            ExecMode::Threaded(workers)
        };
        let mut ex = TransferExchange::new(&fpart, &cpart, fd, cd, CostModel::default(), mode)
            .expect("compatible level pair");
        let rf = gen::random_guess(fd * fd, seed);
        let ec = gen::random_guess(cd * cd, seed ^ 0xABCD);
        prop_assert_eq!(ex.restrict(&rf), restrict(&rf, fd, cd));
        prop_assert_eq!(ex.prolong(&ec), prolong(&ec, cd, fd));
        // Repeat in the opposite order on the same (persistent) exchange:
        // direction switches must not leak state between modes.
        prop_assert_eq!(ex.prolong(&ec), prolong(&ec, cd, fd));
        prop_assert_eq!(ex.restrict(&rf), restrict(&rf, fd, cd));
    }

    #[test]
    fn prolongation_preserves_smooth_functions_in_the_interior(
        k in 2usize..5,
    ) {
        // Interpolating a linear function reproduces it exactly away from
        // the Dirichlet boundary (bilinear interpolation is exact on
        // linears).
        let cd = (1usize << k) - 1;
        let fd = 2 * cd + 1;
        let lin = |i: usize, j: usize, d: usize| {
            let h = 1.0 / (d + 1) as f64;
            0.3 * (i + 1) as f64 * h + 0.7 * (j + 1) as f64 * h
        };
        let coarse: Vec<f64> = (0..cd * cd)
            .map(|idx| lin(idx % cd, idx / cd, cd))
            .collect();
        let fine = prolong(&coarse, cd, fd);
        // Interior fine points (at least one coarse cell away from the
        // boundary) must match the linear function exactly.
        for j in 2..fd - 2 {
            for i in 2..fd - 2 {
                let expect = lin(i, j, fd);
                let got = fine[j * fd + i];
                prop_assert!(
                    (got - expect).abs() < 1e-12,
                    "({i},{j}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn binary_io_roundtrips_any_clique_matrix(
        nx in 3usize..8,
        ny in 3usize..8,
        c in 0.05f64..0.9,
        seed in 0u64..100,
    ) {
        let a = gen::clique_grid2d(nx, ny, gen::CliqueOptions {
            coupling: c,
            weight_jump: 0.4,
            hot_fraction: 0.0,
            hot_coupling: 0.0,
            seed,
        });
        let mut buf = Vec::new();
        io_bin::write_bin(&a, &mut buf).unwrap();
        prop_assert_eq!(io_bin::read_bin(&buf[..]).unwrap(), a);
    }
}
