//! Paper-scale step throughput: the arena/SoA + SIMD + slab-payload hot
//! paths at 4096 and 8192 ranks.
//!
//! Rows mirror `epoch_close` so the two files stay directly comparable:
//!
//! * `route_serial_{P}` — the pure-routing grid program (`GridRoute`
//!   shape: `BURST` solve puts to every 4-neighbor, no numerics), at 4096
//!   and 8192 ranks.
//! * `{ds,ps,bj}_step_serial_{P}` — the paper's solvers on the same 40³
//!   Poisson system `epoch_close` uses, so `ds_step_serial_4096` here is
//!   the row CI gates against the *checked-in* `BENCH_epoch_close.json`
//!   baseline (quick mode ≥ 2×; full runs archive ≥ 5× in
//!   `results/BENCH_scale.json`).
//!
//! Serial rows run on [`ExecMode::Sequential`] — the actual serial
//! configuration (no pool dispatch), bit-identical to every other mode by
//! the executor's determinism contract. `meta_workers` records the host
//! parallelism for context; per-row `route_ns` / `span_ns` breakdowns feed
//! the EXPERIMENTS.md table.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, ParallelSouthwellRank,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CommClass, CostModel, Envelope, ExecMode, Executor, PhaseCtx, RankAlgorithm};
use dsw_sparse::gen;

/// Messages per neighbor per step in the routing rows (matches
/// `epoch_close`).
const BURST: u64 = 4;

/// Supersteps run before timing starts (matches `epoch_close`).
const WARMUP_STEPS: usize = 10;

/// A pure-routing rank on a `w × h` grid (the `epoch_close` shape).
struct GridRoute {
    id: usize,
    w: usize,
    h: usize,
    step: u64,
    sum: u64,
}

impl GridRoute {
    fn neighbors(&self) -> Vec<usize> {
        let (x, y) = (self.id % self.w, self.id / self.w);
        let mut out = Vec::new();
        if x > 0 {
            out.push(self.id - 1);
        }
        if x + 1 < self.w {
            out.push(self.id + 1);
        }
        if y > 0 {
            out.push(self.id - self.w);
        }
        if y + 1 < self.h {
            out.push(self.id + self.w);
        }
        out
    }
}

impl RankAlgorithm for GridRoute {
    type Msg = u64;

    fn phases(&self) -> usize {
        1
    }

    fn put_targets(&self) -> Vec<usize> {
        self.neighbors()
    }

    fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
        for e in inbox {
            self.sum = self.sum.wrapping_add(e.payload);
        }
        for t in self.neighbors() {
            for k in 0..BURST {
                ctx.put(t, CommClass::Solve, self.step.wrapping_add(k), 16);
            }
        }
        self.step += 1;
    }
}

/// Grid side lengths giving exactly 4096 / 8192 ranks.
fn grid_dims(p: usize) -> (usize, usize) {
    match p {
        4096 => (64, 64),
        8192 => (128, 64),
        _ => unreachable!("unsupported rank count {p}"),
    }
}

fn grid_route(p: usize) -> Vec<GridRoute> {
    let (w, h) = grid_dims(p);
    (0..w * h)
        .map(|id| GridRoute {
            id,
            w,
            h,
            step: 0,
            sum: 0,
        })
        .collect()
}

/// Records the measured per-step `route_ns` / `span_ns` breakdown.
fn record_breakdown<A: RankAlgorithm>(ex: &Executor<A>, id_prefix: &str) {
    let steps = ex.stats.nsteps().max(1) as f64;
    record_metric(
        "scale_8192",
        &format!("{id_prefix}_route_ns_per_step"),
        ex.stats.total_route_ns() as f64 / steps,
    );
    record_metric(
        "scale_8192",
        &format!("{id_prefix}_span_ns_per_step"),
        ex.stats.total_span_ns() as f64 / steps,
    );
}

/// The three solver rank types behind one constructor indirection.
enum BuiltRanks {
    Ds(Vec<DistributedSouthwellRank>),
    Ps(Vec<ParallelSouthwellRank>),
    Bj(Vec<BlockJacobiRank>),
}

fn run_solver_bench<A: RankAlgorithm>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    ranks: Vec<A>,
) {
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    group.bench_function(id, |bench| bench.iter(|| ex.step()));
    record_breakdown(&ex, id);
}

fn bench_scale(c: &mut Criterion) {
    let nworkers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    record_metric("scale_8192", "meta_workers", nworkers as f64);

    let mut group = c.benchmark_group("scale_8192");
    group.sample_size(20);
    for p in [4096usize, 8192] {
        let mut ex = Executor::new(grid_route(p), CostModel::default(), ExecMode::Sequential);
        for _ in 0..3 {
            ex.step();
        }
        group.bench_function(&format!("route_serial_{p}"), |bench| {
            bench.iter(|| ex.step())
        });
        record_breakdown(&ex, &format!("route_serial_{p}"));
    }

    // The epoch_close solver system: 40³ Poisson, unit diagonal, error
    // seeded in a 16³ cube — identical construction so the 4096-rank rows
    // are comparable against the archived epoch_close baselines.
    let dim = 40usize;
    let mut a = gen::grid3d_poisson(dim, dim, dim);
    a.scale_unit_diagonal()
        .expect("Poisson matrices have nonzero diagonals");
    let n = a.nrows();
    let b = vec![0.0; n];
    let full = gen::random_guess(n, 3);
    let mut x0 = vec![0.0; n];
    for z in 0..16 {
        for y in 0..16 {
            for x in 0..16 {
                x0[(z * dim + y) * dim + x] = full[(z * dim + y) * dim + x];
            }
        }
    }
    let g = Graph::from_matrix(&a);

    group.sample_size(10);
    for p in [4096usize, 8192] {
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        let locals = distribute(&a, &b, &x0, &part).expect("bench system distributes cleanly");
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
        let r0 = a.residual(&b, &x0);

        let mut bench_one = |name: &str, build: &dyn Fn() -> BuiltRanks| {
            let id = format!("{name}_step_serial_{p}");
            match build() {
                BuiltRanks::Ds(ranks) => run_solver_bench(&mut group, &id, ranks),
                BuiltRanks::Ps(ranks) => run_solver_bench(&mut group, &id, ranks),
                BuiltRanks::Bj(ranks) => run_solver_bench(&mut group, &id, ranks),
            }
        };
        bench_one("ds", &|| {
            BuiltRanks::Ds(DistributedSouthwellRank::build(locals.clone(), &norms, &r0))
        });
        bench_one("ps", &|| {
            BuiltRanks::Ps(ParallelSouthwellRank::build(locals.clone(), &norms))
        });
        bench_one("bj", &|| {
            BuiltRanks::Bj(BlockJacobiRank::build(locals.clone()))
        });
    }
    group.finish();
}

criterion_group!(scale_8192, bench_scale);
criterion_main!(scale_8192);
