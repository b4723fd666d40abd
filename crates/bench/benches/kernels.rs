//! Micro-benchmarks of the computational kernels underneath the solvers:
//! SpMV, the local Gauss–Seidel sweep, the multilevel partitioner, and a
//! single superstep of the RMA executor.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, LocalSystem, ParallelSouthwellRank,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CostModel, ExecMode, Executor, RankAlgorithm};
use dsw_sparse::gen;

fn bench_spmv(c: &mut Criterion) {
    let a = gen::grid3d_poisson(24, 24, 24);
    let x = gen::random_guess(a.nrows(), 1);
    let mut y = vec![0.0; a.nrows()];
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(a.nnz() as u64));
    g.bench_function("spmv_poisson3d_24", |b| b.iter(|| a.spmv(&x, &mut y)));
    g.finish();
}

fn bench_local_sweep(c: &mut Criterion) {
    let a = gen::grid3d_poisson(16, 16, 16);
    let n = a.nrows();
    let b = gen::random_rhs(n, 2);
    let x0 = vec![0.0; n];
    let g = Graph::from_matrix(&a);
    let part = partition_multilevel(&g, 8, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let mut group = c.benchmark_group("kernels");
    group.bench_function("gs_sweep_local_block", |bench| {
        let mut ls = locals[0].clone();
        let mut gdr = vec![0.0; ls.ext_cols.len()];
        bench.iter(|| {
            gdr.iter_mut().for_each(|v| *v = 0.0);
            ls.gs_sweep(&mut gdr)
        })
    });
    group.finish();
}

fn bench_partitioner(c: &mut Criterion) {
    let a = gen::grid2d_poisson(64, 64);
    let g = Graph::from_matrix(&a);
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    group.bench_function("multilevel_partition_4096_to_32", |b| {
        b.iter(|| partition_multilevel(&g, 32, MultilevelOptions::default()))
    });
    group.finish();
}

fn bench_executor_step(c: &mut Criterion) {
    let mut a = gen::grid2d_poisson(48, 48);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let x0 = gen::random_guess(n, 3);
    let g = Graph::from_matrix(&a);
    let part = partition_multilevel(&g, 32, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let mut ex = Executor::new(
        DistributedSouthwellRank::build(locals, &norms, &r0),
        CostModel::default(),
        ExecMode::Sequential,
    );
    let mut group = c.benchmark_group("kernels");
    group.bench_function("ds_superstep_32_ranks", |bench| bench.iter(|| ex.step()));
    group.finish();
}

/// Shared setup for the 512-rank executor comparison: the §4.2 Poisson
/// problem (4096 rows) partitioned to the scaling sweep's top rank count.
fn executor_problem_512() -> (Vec<LocalSystem>, Vec<f64>, Vec<f64>) {
    let mut a = gen::grid2d_poisson(64, 64);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let x0 = gen::random_guess(n, 3);
    let g = Graph::from_matrix(&a);
    let part = partition_multilevel(&g, 512, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    (locals, norms, r0)
}

fn bench_one_mode<A: RankAlgorithm>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    ranks: Vec<A>,
    mode: ExecMode,
) {
    let mut ex = Executor::new(ranks, CostModel::default(), mode);
    group.bench_function(name, |b| b.iter(|| ex.step()));
}

/// The executor on 512-rank supersteps: `pool4` is the persistent
/// work-stealing pool (`ExecMode::Threaded`), with `seq` as the
/// single-thread floor.
fn bench_executor_modes(c: &mut Criterion) {
    let (locals, norms, r0) = executor_problem_512();
    let mut group = c.benchmark_group("executor_512");
    group.sample_size(10);
    for (label, mode) in [
        ("seq", ExecMode::Sequential),
        ("pool4", ExecMode::Threaded(4)),
    ] {
        bench_one_mode(
            &mut group,
            &format!("ds_step_512_{label}"),
            DistributedSouthwellRank::build(locals.clone(), &norms, &r0),
            mode,
        );
        bench_one_mode(
            &mut group,
            &format!("ps_step_512_{label}"),
            ParallelSouthwellRank::build(locals.clone(), &norms),
            mode,
        );
        bench_one_mode(
            &mut group,
            &format!("bj_step_512_{label}"),
            BlockJacobiRank::build(locals.clone()),
            mode,
        );
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_spmv,
    bench_local_sweep,
    bench_partitioner,
    bench_executor_step,
    bench_executor_modes
);
criterion_main!(kernels);
