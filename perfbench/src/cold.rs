//! Cold solves at the paper's process counts.
//!
//! Each operation is one `run_method` call: distribute the system, build
//! the ranks, and drive them from a fresh initial guess. A reference pass
//! (see `reference`) is timed right before and right after it. The traced
//! run interleaves every untraced solve with the same solve decomposed
//! into its public calls (`distribute`, the rank constructor, `residual`,
//! `drive`), so the layer times and the end-to-end time come from the
//! same minutes of the host, and the traced reports are checked to be the
//! same bits as `run_method`'s.

use crate::check::{check_report, Digest, Expect};
use crate::metrics::ExecTotals;
use crate::reference::{in_ref_units, RefPass};
use crate::stats::median;
use crate::sys::{cpu_seconds, nproc};
use crate::trace::{SpanId, Tracer};
use crate::{mix, spmv_ns_per_nnz, Outcome, RunConfig, SetupReps, Size, Workload};
use dsw_core::dist::{
    distribute, drive, run_method, BlockJacobiRank, DistOptions, DistReport,
    DistributedSouthwellRank, ExecBackend, LocalSystem, Method, Recoverable,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CloseMode, ExecMode, RankAlgorithm};
use dsw_sparse::{gen, suite, CsrMatrix};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Distinct seeded initial guesses, cycled by the timed solves. The first
/// pass over them is the fixed prefix the exact counts and the digest
/// cover, so those do not depend on how many solves fit in the run; 16
/// keeps their spread across seeds under 2%.
const INPUTS: usize = 16;

/// Largest tolerated gap between the traced layer sum and the untraced
/// solve time.
const LAYER_SUM_RTOL: f64 = 0.10;

/// One cold-solve workload.
pub struct ColdSpec {
    method: Method,
    ranks: usize,
    /// `Some`: converge to this ‖r‖₂ within 50 steps. `None`: the fixed
    /// 50-step sweep of the paper's Figure 7.
    target: Option<f64>,
    /// Worker threads: 1 runs `ExecMode::Sequential`, more run the
    /// persistent pool with `CloseMode::Auto`.
    workers: usize,
    matrix: fn(Size) -> CsrMatrix,
    size: Size,
}

/// Steps per solve: the paper's cap, and the length of the BJ sweep.
const MAX_STEPS: usize = 50;

/// The Flan_1565 stand-in: 3-D clique FE assembly, 64,000 rows,
/// 1.64 M nonzeros, unit diagonal.
fn flan(size: Size) -> CsrMatrix {
    let entry = suite::by_name("Flan_1565").expect("Flan_1565 is in the suite");
    entry.build_small(match size {
        Size::Paper => 1.0,
        Size::Tiny => 0.2,
    })
}

/// 40³ 7-point Poisson, unit diagonal.
fn poisson_40(size: Size) -> CsrMatrix {
    let d = match size {
        Size::Paper => 40,
        Size::Tiny => 8,
    };
    let mut a = gen::grid3d_poisson(d, d, d);
    a.scale_unit_diagonal()
        .expect("Poisson diagonals are positive");
    a
}

/// The spec of a cold-solve workload.
pub fn spec(w: Workload, size: Size) -> ColdSpec {
    let tiny = size == Size::Tiny;
    match w {
        Workload::Ds4096 => ColdSpec {
            method: Method::DistributedSouthwell,
            ranks: if tiny { 16 } else { 4096 },
            target: Some(0.1),
            workers: 1,
            matrix: flan,
            size,
        },
        Workload::Bj8192 => ColdSpec {
            method: Method::BlockJacobi,
            ranks: if tiny { 32 } else { 8192 },
            target: None,
            // Two pool workers, or fewer on a smaller host.
            workers: nproc().min(2),
            matrix: poisson_40,
            size,
        },
        _ => unreachable!("{} is not a cold-solve workload", w.name()),
    }
}

/// A seeded initial guess scaled to ‖b − A·x0‖₂ = 1 for `b = 0` (§4.2).
fn unit_residual_guess(a: &CsrMatrix, seed: u64) -> Vec<f64> {
    let mut x0 = gen::random_guess(a.nrows(), seed);
    let norm = crate::check::residual_norm(a, &vec![0.0; a.nrows()], &x0);
    x0.iter_mut().for_each(|v| *v /= norm);
    x0
}

/// Layer times of one traced solve, seconds.
struct Layers {
    distribute: f64,
    build: f64,
    drive: f64,
    /// `drive` minus the executor and monitor time it reports.
    driver_self: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.distribute + self.build + self.drive
    }
}

/// `run_method` decomposed into its public calls, each under a span.
fn traced_solve(
    tr: &mut Tracer,
    spec: &ColdSpec,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    part: &dsw_partition::Partition,
    opts: &DistOptions,
) -> (DistReport, Layers) {
    let root = tr.begin("solve", None);
    let id = tr.begin("layout.distribute", Some(root));
    let locals = distribute(a, b, x0, part).expect("the benchmark system distributes");
    let distribute_s = tr.end(id);

    let build = tr.begin("ranks.build", Some(root));
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let (report, build_s, drive_s) = match spec.method {
        Method::DistributedSouthwell => {
            let id = tr.begin("ranks.r0", Some(build));
            let r0 = a.residual(b, x0);
            tr.end(id);
            let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, opts.ds_config);
            let build_s = tr.end(build);
            let (rep, drive_s) = traced_drive(tr, root, spec.method, ranks, |r| &r.ls, a, b, opts);
            (rep, build_s, drive_s)
        }
        Method::BlockJacobi => {
            let ranks = BlockJacobiRank::build_with_solver(locals, opts.ds_config.local_solver);
            let build_s = tr.end(build);
            let (rep, drive_s) = traced_drive(tr, root, spec.method, ranks, |r| &r.ls, a, b, opts);
            (rep, build_s, drive_s)
        }
        other => unreachable!("no cold workload runs {}", other.label()),
    };
    tr.end(root);
    let st = &report.stats;
    let solver_ns =
        st.total_span_ns() + st.total_route_ns() + st.monitor.eval_ns + st.monitor.verify_ns;
    let layers = Layers {
        distribute: distribute_s,
        build: build_s,
        drive: drive_s,
        driver_self: drive_s - solver_ns as f64 * 1e-9,
    };
    (report, layers)
}

#[allow(clippy::too_many_arguments)]
fn traced_drive<R: RankAlgorithm + Recoverable>(
    tr: &mut Tracer,
    root: SpanId,
    method: Method,
    ranks: Vec<R>,
    local_of: impl Fn(&R) -> &LocalSystem,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> (DistReport, f64) {
    let id = tr.begin("driver.drive", Some(root));
    let report = drive(method, ranks, local_of, a, b, opts);
    let drive_s = tr.end(id);
    let st = &report.stats;
    tr.arg(id, "exec.span_ms", st.total_span_ns() as f64 * 1e-6);
    tr.arg(id, "exec.route_ms", st.total_route_ns() as f64 * 1e-6);
    tr.arg(id, "monitor.eval_ms", st.monitor.eval_ns as f64 * 1e-6);
    tr.arg(id, "monitor.verify_ms", st.monitor.verify_ns as f64 * 1e-6);
    tr.arg(id, "steps", st.nsteps() as f64);
    (report, drive_s)
}

fn digest_of(r: &DistReport) -> Digest {
    let mut d = Digest::default();
    d.report(r);
    d
}

/// Runs a cold-solve workload.
pub fn run(spec: &ColdSpec, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome {
        pool_size: spec.workers,
        ..Outcome::default()
    };
    let mut tr = Tracer::new(cfg.trace);

    // Set-up: matrix, graph and partition. The first one is kept; the
    // repetitions behind the `setup_s` median run between the timed solves
    // (see `SetupReps`).
    let (mut setup_cpu, mut partition_s) = (Vec::new(), Vec::new());
    let mut set_up = |tr: &mut Tracer| {
        let c0 = cpu_seconds();
        let root = tr.begin("setup", None);
        let id = tr.begin("matrix", Some(root));
        let a = (spec.matrix)(spec.size);
        let g = Graph::from_matrix(&a);
        tr.end(id);
        let id = tr.begin("partition.multilevel", Some(root));
        let part = partition_multilevel(
            &g,
            spec.ranks,
            MultilevelOptions {
                seed: cfg.seed,
                ..MultilevelOptions::default()
            },
        );
        partition_s.push(tr.end(id));
        tr.end(root);
        setup_cpu.push(cpu_seconds() - c0);
        (a, g, part)
    };
    let (a, g, part) = set_up(&mut tr);

    let b = vec![0.0; a.nrows()];
    let inputs: Vec<Vec<f64>> = (0..INPUTS as u64)
        .map(|k| unit_residual_guess(&a, mix(cfg.seed, k)))
        .collect();
    let opts = DistOptions {
        max_steps: MAX_STEPS,
        target_residual: spec.target,
        backend: ExecBackend::Superstep(match spec.workers {
            1 => ExecMode::Sequential,
            n => ExecMode::Threaded(n),
        }),
        close_mode: CloseMode::Auto,
        ..DistOptions::default()
    };
    let expect = spec.target.map_or(Expect::Sweep(MAX_STEPS), Expect::Target);

    // Untimed warm-up.
    let rep = run_method(spec.method, &a, &b, &inputs[0], &part, &opts);
    out.record(check_report(&a, &b, &rep, expect));
    if cfg.trace {
        let (rep, _) = traced_solve(&mut tr, spec, &a, &b, &inputs[0], &part, &opts);
        out.record(check_report(&a, &b, &rep, expect));
    }

    let refpass = RefPass::new();
    let (mut wall, mut cpu, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let (mut in_ref, mut ref_pass) = (Vec::new(), Vec::new());
    let mut digest = Digest::default();
    let (mut prefix, mut traced) = (ExecTotals::default(), ExecTotals::default());
    let mut setups = SetupReps::new(SETUP_REPS);
    let mut solving_s = 0.0;
    let mut i = 0;
    while i < INPUTS || solving_s < cfg.seconds {
        if setups.due(solving_s, cfg.seconds) {
            set_up(&mut tr);
        }
        let t = Instant::now();
        let x0 = &inputs[i % INPUTS];
        let before = refpass.time();
        let (c, w) = (cpu_seconds(), Instant::now());
        let rep = run_method(spec.method, &a, &b, x0, &part, &opts);
        wall.push(w.elapsed().as_secs_f64());
        let solve_cpu = cpu_seconds() - c;
        let after = refpass.time();
        cpu.push(solve_cpu);
        in_ref.push(in_ref_units(solve_cpu, before, after));
        ref_pass.extend([before, after]);
        out.record(check_report(&a, &b, &rep, expect));
        if i < INPUTS {
            digest.report(&rep);
            prefix.add_report(&rep);
        }
        if cfg.trace {
            let (trep, l) = traced_solve(&mut tr, spec, &a, &b, x0, &part, &opts);
            out.record(check_report(&a, &b, &trep, expect));
            if digest_of(&trep) != digest_of(&rep) {
                out.fail(format!(
                    "solve {i}: traced report differs from run_method's"
                ));
            }
            traced.add_report(&trep);
            layers.push(l);
        }
        solving_s += t.elapsed().as_secs_f64();
        i += 1;
    }
    while setups.owed() {
        set_up(&mut tr);
    }
    out.digest = digest.value();

    let v = &mut out.values;
    prefix.exact_e2e(v);
    prefix.exact_layers(v);
    let wall_med = median(&wall);
    v.insert("setup_s", median(&setup_cpu));
    v.insert("solve_ref", median(&in_ref));
    v.insert("peak_rss_mb", setups.peak_rss_mb());
    v.insert("host.ref_pass_ms", median(&ref_pass) * 1e3);
    v.insert("partition.multilevel_s", median(&partition_s));
    v.insert("partition.edge_cut", part.edge_cut(&g));
    if cfg.trace {
        traced.timed_layers(v);
        let pick = |f: fn(&Layers) -> f64| layers.iter().map(f).collect::<Vec<f64>>();
        v.insert("layout.distribute_s", median(&pick(|l| l.distribute)));
        v.insert("ranks.build_s", median(&pick(|l| l.build)));
        v.insert(
            "driver.self_ms_per_solve",
            median(&pick(|l| l.driver_self)) * 1e3,
        );
        v.insert("sparse.spmv_ns_per_nnz", spmv_ns_per_nnz(&a, &inputs[0]));
        let sum = median(&pick(Layers::sum));
        let overhead = sum / wall_med - 1.0;
        v.insert("trace.overhead_frac", overhead);
        // A timing comparison, so host noise can break it on a correct
        // program: reported, not counted as a failed operation.
        if overhead.abs() > LAYER_SUM_RTOL {
            eprintln!(
                "warning: traced layers sum to {sum:.4} s against an untraced solve of \
                 {wall_med:.4} s (more than {LAYER_SUM_RTOL} apart)"
            );
        }
        out.timing("layers_sum_s", &pick(Layers::sum));
    }
    out.timing("setup_s", &setup_cpu);
    out.timing("partition_s", &partition_s);
    out.timing("solve_s", &wall);
    out.timing("solve_cpu_s", &cpu);
    out.timing("solve_ref", &in_ref);
    out.timing("ref_pass_s", &ref_pass);
    out.tracer = tr;
    out
}
