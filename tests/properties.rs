//! Property-based tests (proptest) on the core data structures and the
//! solver invariants, over randomized matrices, vectors, and partitions.

use distributed_southwell::core::dist::{run_method, DistOptions, Method};
use distributed_southwell::core::scalar::{self, ScalarOptions};
use distributed_southwell::partition::{
    greedy_coloring_bfs, partition_multilevel, Coloring, Graph, MultilevelOptions,
};
use distributed_southwell::sparse::{gen, io, vecops, CooBuilder, CsrMatrix};
use proptest::prelude::*;

/// Whether no edge of `g` joins two vertices of one color.
fn is_proper(c: &Coloring, g: &Graph) -> bool {
    (0..g.nvertices()).all(|v| {
        g.neighbors(v)
            .iter()
            .all(|&w| w == v || c.color_of[w] != c.color_of[v])
    })
}

/// Vertices per color.
fn class_sizes(c: &Coloring) -> Vec<usize> {
    let mut sizes = vec![0usize; c.ncolors];
    for &k in &c.color_of {
        sizes[k] += 1;
    }
    sizes
}

/// Strategy: a random SPD clique-assembled matrix on a small 2D grid.
fn spd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (3usize..9, 3usize..9, 0.05f64..0.9, 0u64..1000).prop_map(|(nx, ny, c, seed)| {
        let mut a = gen::clique_grid2d(
            nx,
            ny,
            gen::CliqueOptions {
                coupling: c,
                weight_jump: 0.3,
                hot_fraction: 0.0,
                hot_coupling: 0.0,
                seed,
            },
        );
        a.scale_unit_diagonal().unwrap();
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coo_builder_matches_dense_accumulation(
        entries in proptest::collection::vec((0usize..6, 0usize..6, -2.0f64..2.0), 0..40)
    ) {
        let mut builder = CooBuilder::new(6, 6);
        let mut dense = vec![0.0f64; 36];
        for &(i, j, v) in &entries {
            builder.push(i, j, v);
            dense[i * 6 + j] += v;
        }
        let a = builder.build().unwrap();
        for i in 0..6 {
            for j in 0..6 {
                prop_assert!((a.get(i, j) - dense[i * 6 + j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn transpose_is_involution_and_preserves_spmv_adjoint(
        entries in proptest::collection::vec((0usize..5, 0usize..7, -1.0f64..1.0), 1..25),
        x in proptest::collection::vec(-1.0f64..1.0, 7),
        y in proptest::collection::vec(-1.0f64..1.0, 5),
    ) {
        let mut b = CooBuilder::new(5, 7);
        for &(i, j, v) in &entries {
            b.push(i, j, v);
        }
        let a = b.build().unwrap();
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        // <Ax, y> == <x, A^T y>
        let lhs = vecops::dot(&a.mul_vec(&x), &y);
        let rhs = vecops::dot(&x, &a.transpose().mul_vec(&y));
        prop_assert!((lhs - rhs).abs() < 1e-10);
    }

    #[test]
    fn matrix_market_roundtrip(a in spd_matrix()) {
        let mut buf = Vec::new();
        io::write_matrix_market(&a, &mut buf).unwrap();
        let b = io::read_matrix_market(&buf[..]).unwrap();
        prop_assert_eq!(a.nrows(), b.nrows());
        prop_assert_eq!(a.nnz(), b.nnz());
        for i in 0..a.nrows() {
            for (j, v) in a.row(i) {
                prop_assert!((b.get(i, j) - v).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn coloring_is_always_proper(a in spd_matrix()) {
        let g = Graph::from_matrix(&a);
        let c = greedy_coloring_bfs(&g);
        prop_assert!(is_proper(&c, &g));
        prop_assert!(c.ncolors >= 1);
        prop_assert_eq!(class_sizes(&c).iter().sum::<usize>(), g.nvertices());
    }

    #[test]
    fn partitions_are_complete_and_nonempty(a in spd_matrix(), p in 2usize..6) {
        let g = Graph::from_matrix(&a);
        let nparts = p.min(g.nvertices());
        let part = partition_multilevel(&g, nparts, MultilevelOptions::default());
        prop_assert!(!part.sizes().contains(&0));
        prop_assert_eq!(part.assignment().len(), g.nvertices());
    }

    #[test]
    fn southwell_selection_is_independent(a in spd_matrix(), seed in 0u64..500) {
        let n = a.nrows();
        let x = gen::random_guess(n, seed);
        let r = a.residual(&vec![0.0; n], &x);
        let sel = scalar::southwell_par::southwell_selection(&a, &r);
        for &i in &sel {
            for (j, _) in a.row(i) {
                if j != i {
                    prop_assert!(!sel.contains(&j), "coupled {i},{j} both selected");
                }
            }
        }
    }

    #[test]
    fn gauss_seidel_never_increases_energy_norm(a in spd_matrix(), seed in 0u64..500) {
        // For SPD systems every exact row relaxation decreases the energy
        // norm of the error; with b = 0 the error is x itself.
        let n = a.nrows();
        let x0 = gen::random_guess(n, seed);
        let b = vec![0.0; n];
        let energy = |x: &[f64]| vecops::dot(&a.mul_vec(x), x);
        let opts = ScalarOptions {
            max_relaxations: n as u64,
            target_residual: None,
            record_stride: u64::MAX,
            seed: 0,
        };
        let (x1, _) = scalar::gauss_seidel(&a, &b, &x0, &opts);
        prop_assert!(energy(&x1) <= energy(&x0) * (1.0 + 1e-12));
    }

    #[test]
    fn distributed_southwell_never_deadlocks(a in spd_matrix(), seed in 0u64..500, p in 2usize..5) {
        let n = a.nrows();
        let b = vec![0.0; n];
        let mut x0 = gen::random_guess(n, seed);
        let nrm = vecops::norm2(&a.residual(&b, &x0));
        prop_assume!(nrm > 0.0);
        x0.iter_mut().for_each(|v| *v /= nrm);
        let g = Graph::from_matrix(&a);
        let nparts = p.min(n);
        let part = partition_multilevel(&g, nparts, MultilevelOptions::default());
        let opts = DistOptions {
            max_steps: 200,
            target_residual: Some(0.05),
            ..DistOptions::default()
        };
        let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        prop_assert!(!rep.deadlocked, "deadlocked at residual {}", rep.final_residual());
        prop_assert!(rep.converged_at.is_some(),
            "no convergence: final {}", rep.final_residual());
    }

    #[test]
    fn ds_and_ps_relaxation_counts_are_sane(a in spd_matrix(), seed in 0u64..100) {
        let n = a.nrows();
        let b = vec![0.0; n];
        let mut x0 = gen::random_guess(n, seed);
        let nrm = vecops::norm2(&a.residual(&b, &x0));
        prop_assume!(nrm > 0.0);
        x0.iter_mut().for_each(|v| *v /= nrm);
        let g = Graph::from_matrix(&a);
        let part = partition_multilevel(&g, 3.min(n), MultilevelOptions::default());
        let opts = DistOptions {
            max_steps: 20,
            target_residual: None,
            ..DistOptions::default()
        };
        for m in [Method::ParallelSouthwell, Method::DistributedSouthwell] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            let last = rep.records.last().unwrap();
            // Every step relaxes at most all rows, at least zero; counters
            // are monotone.
            prop_assert!(last.relaxations <= 20 * n as u64);
            for w in rep.records.windows(2) {
                prop_assert!(w[1].relaxations >= w[0].relaxations);
                prop_assert!(w[1].msgs >= w[0].msgs);
                prop_assert!(w[1].time >= w[0].time);
            }
        }
    }
}
