//! Many tenants served from one shared worker pool.
//!
//! A closed loop of bursts: each window submits `JOBS` drifted
//! right-hand sides for every tenant — one `submit` each, or one
//! `submit_many` batch per tenant that runs as a fused panel — drains the
//! service with `run_until_idle` and takes the reports. The next window
//! starts only after the last one drained. Sessions stay warm across
//! windows, so a solve restarts from the tenant's previous solution. A
//! reference pass (see `reference`) is timed right before and right after
//! each window.

use crate::check::{check_report, Digest, Expect};
use crate::metrics::ExecTotals;
use crate::reference::{in_ref_units, RefPass};
use crate::stats::median;
use crate::sys::{cpu_seconds, nproc};
use crate::trace::Tracer;
use crate::{mix, spmv_ns_per_nnz, Outcome, RunConfig, SetupReps, Size, Workload};
use dsw_core::dist::{distribute, DistOptions, DistReport, ExecBackend, Method};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::ExecMode;
use dsw_serve::{ServeConfig, ServiceStats, SolveService, TenantId};
use dsw_sparse::{gen, CsrMatrix};
use std::f64::consts::TAU;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median. A set-up takes about
/// 0.25 s, so nine of them cost little and sample the host at nine moments.
const SETUP_REPS: usize = 9;

/// Right-hand sides per tenant per window.
const JOBS: usize = 8;

/// Timed windows the exact counts and the digest cover, so those do not
/// depend on how many windows fit in the run.
const PREFIX_WINDOWS: usize = 6;

/// Convergence target of every solve.
const TARGET: f64 = 0.1;

/// Step cap of every solve.
const MAX_STEPS: usize = 400;

/// Supersteps a tenant advances per scheduler visit.
const QUANTUM: usize = 4;

/// Amplitude of a tenant's fixed right-hand-side shape.
const BASE_AMP: f64 = 0.05;

/// Amplitude of the per-job drift. Sized so a warm BJ solve takes 1–2
/// supersteps and a warm DS solve about 5, from the first window on.
const DRIFT_AMP: f64 = 0.01;

/// One serving workload.
pub struct ServeSpec {
    tenants: usize,
    /// Side of each tenant's 2-D Poisson grid.
    grid: usize,
    ranks: usize,
    /// Submit each tenant's window as one fused panel batch.
    panel: bool,
}

/// The spec of a serving workload.
pub fn spec(w: Workload, size: Size) -> ServeSpec {
    let (tenants, grid, ranks) = match size {
        Size::Paper => (128, 32, 64),
        Size::Tiny => (8, 8, 4),
    };
    assert!(
        matches!(w, Workload::Serve128 | Workload::ServePanel128),
        "{} is not a serving workload",
        w.name()
    );
    ServeSpec {
        tenants,
        grid,
        ranks,
        panel: w == Workload::ServePanel128,
    }
}

/// Every fourth tenant runs the paper's method; the rest run Block
/// Jacobi, so short jobs share the pool with longer ones.
fn method_of(tenant: usize) -> Method {
    if tenant % 4 == 3 {
        Method::DistributedSouthwell
    } else {
        Method::BlockJacobi
    }
}

impl ServeSpec {
    /// A tenant's system: 2-D 5-point Poisson, unit diagonal.
    fn matrix(&self) -> CsrMatrix {
        let mut a = gen::grid2d_poisson(self.grid, self.grid);
        a.scale_unit_diagonal()
            .expect("Poisson diagonals are positive");
        a
    }

    /// `amp · sin(2π·fx·x/g + φx) · cos(2π·fy·y/g + φy) · (−1)^(x+y)` with
    /// seeded frequencies (1 or 2) and phases. A smooth shape times the
    /// checkerboard puts the energy in the highest-frequency modes, which
    /// the block solvers damp in a few supersteps; a smooth right-hand
    /// side would measure the slow smooth-error tail instead.
    fn field(&self, h: u64, amp: f64, out: &mut [f64]) {
        let g = self.grid;
        let unit = |k: u64| (mix(h, k) >> 11) as f64 / (1u64 << 53) as f64;
        let (fx, fy) = (1.0 + (mix(h, 0) % 2) as f64, 1.0 + (mix(h, 1) % 2) as f64);
        let (px, py) = (TAU * unit(2), TAU * unit(3));
        let gx: Vec<f64> = (0..g)
            .map(|x| (TAU * fx * x as f64 / g as f64 + px).sin())
            .collect();
        let gy: Vec<f64> = (0..g)
            .map(|y| (TAU * fy * y as f64 / g as f64 + py).cos())
            .collect();
        for (i, v) in out.iter_mut().enumerate() {
            let (x, y) = (i % g, i / g);
            let parity = if (x + y) % 2 == 0 { 1.0 } else { -1.0 };
            *v += amp * parity * gx[x] * gy[y];
        }
    }

    /// Tenant `t`'s `job`-th right-hand side: its fixed shape plus a drift
    /// drawn afresh for every job.
    fn rhs(&self, seed: u64, t: usize, job: usize) -> Vec<f64> {
        let mut b = vec![0.0; self.grid * self.grid];
        let tenant = mix(seed, t as u64);
        self.field(mix(tenant, 0), BASE_AMP, &mut b);
        self.field(mix(tenant, 1 + job as u64), DRIFT_AMP, &mut b);
        b
    }

    /// Tenant `t`'s initial guess.
    fn guess(&self, seed: u64, t: usize) -> Vec<f64> {
        let mut x0 = vec![0.0; self.grid * self.grid];
        self.field(mix(mix(seed, t as u64), u64::MAX), BASE_AMP, &mut x0);
        x0
    }

    /// Window `w`'s right-hand sides, `[tenant][job]`.
    fn window_jobs(&self, seed: u64, w: usize) -> Vec<Vec<Vec<f64>>> {
        (0..self.tenants)
            .map(|t| {
                (0..JOBS)
                    .map(|j| self.rhs(seed, t, 1 + w * JOBS + j))
                    .collect()
            })
            .collect()
    }
}

/// What one window measured.
struct Window {
    wall: f64,
    cpu: f64,
    submit_s: f64,
    stats: ServiceStats,
    /// Per tenant, in completion order.
    reports: Vec<Vec<DistReport>>,
}

/// Submits, drains and collects one window. Rejected submissions count
/// as failed attempts.
fn run_window(
    svc: &mut SolveService,
    ids: &[TenantId],
    jobs: Vec<Vec<Vec<f64>>>,
    panel: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Window {
    let c0 = cpu_seconds();
    let root = tr.begin("serve.window", None);
    let id = tr.begin("serve.submit", Some(root));
    for (&tenant, bs) in ids.iter().zip(jobs) {
        let k = bs.len();
        if panel {
            if let Err((admitted, e)) = svc.submit_many(tenant, bs) {
                for _ in admitted..k {
                    out.record(Err(format!("submit_many rejected: {e}")));
                }
            }
        } else {
            for b in bs {
                if let Err(e) = svc.submit(tenant, b) {
                    out.record(Err(format!("submit rejected: {e}")));
                }
            }
        }
    }
    let submit_s = tr.end(id);
    let id = tr.begin("serve.run_until_idle", Some(root));
    let stats = svc.run_until_idle();
    tr.arg(id, "solves", stats.solves as f64);
    tr.arg(id, "pool_utilization", stats.pool_utilization);
    tr.end(id);
    let id = tr.begin("serve.take_reports", Some(root));
    let reports = ids.iter().map(|&t| svc.take_reports(t)).collect();
    tr.end(id);
    let wall = tr.end(root);
    Window {
        wall,
        cpu: cpu_seconds() - c0,
        submit_s,
        stats,
        reports,
    }
}

/// Adds a window's reports to `tot`: each fused batch's shared executor
/// stats once, every solve's own outcome once.
fn add_window(tot: &mut ExecTotals, reports: &[Vec<DistReport>], panel: bool) {
    for reps in reports {
        for (j, r) in reps.iter().enumerate() {
            if !panel || j == 0 {
                tot.add_run(&r.stats);
            }
            tot.add_solve(r);
        }
    }
}

/// Runs a serving workload.
pub fn run(spec: &ServeSpec, cfg: &RunConfig) -> Outcome {
    // Two pool workers, or fewer on a smaller host.
    let pool = nproc().min(2);
    let mut out = Outcome {
        pool_size: pool,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(cfg.trace);
    let opts = DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        target_residual: Some(TARGET),
        max_steps: MAX_STEPS,
        ..DistOptions::default()
    };
    let first: Vec<(Vec<f64>, Vec<f64>)> = (0..spec.tenants)
        .map(|t| (spec.rhs(cfg.seed, t, 0), spec.guess(cfg.seed, t)))
        .collect();

    // Set-up: matrix, one partition per tenant and tenant registration.
    // The first service is kept; the repetitions behind the `setup_s`
    // median run between the timed windows (see `SetupReps`).
    let (mut setup_cpu, mut partition_s, mut add_tenant_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut set_up = |tr: &mut Tracer| {
        let c0 = cpu_seconds();
        let root = tr.begin("setup", None);
        let a = spec.matrix();
        let g = Graph::from_matrix(&a);
        let mut svc = SolveService::new(ServeConfig {
            workers: pool,
            quantum: QUANTUM,
            queue_capacity: spec.tenants * JOBS,
            seed: cfg.seed,
            ..ServeConfig::default()
        });
        let (mut parts, mut ids) = (Vec::new(), Vec::new());
        for (t, (b, x0)) in first.iter().enumerate() {
            let id = tr.begin("partition.multilevel", Some(root));
            let part = partition_multilevel(
                &g,
                spec.ranks,
                MultilevelOptions {
                    seed: mix(cfg.seed, t as u64),
                    ..MultilevelOptions::default()
                },
            );
            partition_s.push(tr.end(id));
            let id = tr.begin("serve.add_tenant", Some(root));
            ids.push(svc.add_tenant(method_of(t), a.clone(), b, x0, &part, &opts));
            add_tenant_s.push(tr.end(id));
            parts.push(part);
        }
        tr.end(root);
        setup_cpu.push(cpu_seconds() - c0);
        (a, g, parts, svc, ids)
    };
    let (a, g, parts, mut svc, ids) = set_up(&mut tr);

    let check_window = |win: &Window, jobs: &[Vec<Vec<f64>>], out: &mut Outcome| {
        for (t, (reps, bs)) in win.reports.iter().zip(jobs).enumerate() {
            if reps.len() != bs.len() {
                out.record(Err(format!(
                    "tenant {t}: {} reports for {} jobs",
                    reps.len(),
                    bs.len()
                )));
            }
            for (r, b) in reps.iter().zip(bs) {
                out.record(check_report(&a, b, r, Expect::Target(TARGET)));
            }
        }
        if win.stats.max_queue_depth != spec.tenants * JOBS {
            out.fail(format!("max queue depth {}", win.stats.max_queue_depth));
        }
    };

    // Untimed warm-up window: every tenant's first, cold, solves.
    let jobs = spec.window_jobs(cfg.seed, 0);
    let win = run_window(&mut svc, &ids, jobs.clone(), spec.panel, &mut tr, &mut out);
    check_window(&win, &jobs, &mut out);

    // Timed windows. The traced run records every other window, so the
    // untraced ones between them measure what recording costs.
    let refpass = RefPass::new();
    let (mut per_solve, mut cpu_per_solve, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let (mut in_ref, mut ref_pass) = (vec![], vec![]);
    let (mut wall_plain, mut wall_traced, mut submit_us, mut self_ms, mut util) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut max_depth = 0;
    let mut digest = Digest::default();
    let (mut prefix, mut traced) = (ExecTotals::default(), ExecTotals::default());
    let mut setups = SetupReps::new(SETUP_REPS);
    let mut serving_s = 0.0;
    let mut w = 1;
    while w <= PREFIX_WINDOWS || serving_s < cfg.seconds {
        if setups.due(serving_s, cfg.seconds) {
            tr.set_enabled(cfg.trace);
            set_up(&mut tr);
        }
        let t = Instant::now();
        let recorded = cfg.trace && w % 2 == 1;
        tr.set_enabled(recorded);
        let jobs = spec.window_jobs(cfg.seed, w);
        let before = refpass.time();
        let win = run_window(&mut svc, &ids, jobs.clone(), spec.panel, &mut tr, &mut out);
        let after = refpass.time();
        check_window(&win, &jobs, &mut out);

        let k = win.stats.solves.max(1) as f64;
        per_solve.push(win.wall / k);
        cpu_per_solve.push(win.cpu / k);
        in_ref.push(in_ref_units(win.cpu / k, before, after));
        ref_pass.extend([before, after]);
        p50.push(win.stats.p50_ms);
        p99.push(win.stats.p99_ms);
        max_depth = max_depth.max(win.stats.max_queue_depth);
        if w <= PREFIX_WINDOWS {
            add_window(&mut prefix, &win.reports, spec.panel);
            win.reports.iter().flatten().for_each(|r| digest.report(r));
        }
        if recorded {
            let mut own = ExecTotals::default();
            add_window(&mut own, &win.reports, spec.panel);
            add_window(&mut traced, &win.reports, spec.panel);
            wall_traced.push(win.wall);
            submit_us.push(win.submit_s / (spec.tenants * JOBS) as f64 * 1e6);
            self_ms.push((win.wall - own.solver_s()) * 1e3);
            util.push(win.stats.pool_utilization);
        } else {
            wall_plain.push(win.wall);
        }
        serving_s += t.elapsed().as_secs_f64();
        w += 1;
    }
    tr.set_enabled(cfg.trace);
    while setups.owed() {
        set_up(&mut tr);
    }
    out.digest = digest.value();

    let v = &mut out.values;
    prefix.exact_e2e(v);
    prefix.exact_layers(v);
    v.insert("setup_s", median(&setup_cpu));
    v.insert("solve_ref", median(&in_ref));
    v.insert("peak_rss_mb", setups.peak_rss_mb());
    v.insert("host.ref_pass_ms", median(&ref_pass) * 1e3);
    v.insert("serve.latency_ms_p50", median(&p50));
    v.insert("serve.latency_ms_p99", median(&p99));
    v.insert("partition.multilevel_s", median(&partition_s));
    let cuts: Vec<f64> = parts.iter().map(|p| p.edge_cut(&g)).collect();
    v.insert(
        "partition.edge_cut",
        cuts.iter().sum::<f64>() / cuts.len() as f64,
    );
    v.insert("serve.add_tenant_ms", median(&add_tenant_s) * 1e3);
    v.insert("serve.max_queue_depth", max_depth as f64);
    if spec.panel {
        v.insert("panel.steps_per_batch", prefix.steps_per_run());
        v.insert("panel.column_efficiency", prefix.column_efficiency());
    }
    if cfg.trace {
        traced.timed_layers(v);
        let (b, x0) = &first[0];
        let distribute_s: Vec<f64> = (0..5)
            .map(|_| {
                let id = tr.begin("layout.distribute", None);
                let locals =
                    distribute(&a, b, x0, &parts[0]).expect("the tenant system distributes");
                std::hint::black_box(locals);
                tr.end(id)
            })
            .collect();
        v.insert("layout.distribute_s", median(&distribute_s));
        v.insert("sparse.spmv_ns_per_nnz", spmv_ns_per_nnz(&a, x0));
        v.insert("serve.submit_us_per_job", median(&submit_us));
        v.insert("serve.window_ms", median(&wall_traced) * 1e3);
        v.insert("serve.self_ms_per_window", median(&self_ms));
        v.insert("serve.pool_utilization", median(&util));
        v.insert(
            "trace.overhead_frac",
            median(&wall_traced) / median(&wall_plain) - 1.0,
        );
    }
    out.timing("setup_s", &setup_cpu);
    out.timing("partition_s", &partition_s);
    out.timing("add_tenant_s", &add_tenant_s);
    out.timing("solve_s", &per_solve);
    out.timing("solve_cpu_s", &cpu_per_solve);
    out.timing("solve_ref", &in_ref);
    out.timing("ref_pass_s", &ref_pass);
    out.timing("serve.latency_ms_p50", &p50);
    out.timing("serve.latency_ms_p99", &p99);
    out.tracer = tr;
    out
}
