//! The metric tables (names and units, mirrored by `BENCHMARK.json`), the
//! executor/monitor counter totals both workload families read their
//! layer metrics from, and the result line.

use dsw_core::dist::DistReport;
use dsw_rma::RunStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("solve_ref", "ref"),
    m("msgs_per_rank", "msgs"),
    m("steps", "steps"),
    m("modelled_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs. A layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("partition.multilevel_s", "s"),
    m("partition.edge_cut", "weight"),
    m("layout.distribute_s", "s"),
    m("ranks.build_s", "s"),
    m("sparse.spmv_ns_per_nnz", "ns"),
    m("exec.compute_ms_per_step", "ms"),
    m("exec.route_ms_per_step", "ms"),
    m("exec.span_ms_per_step", "ms"),
    m("exec.worker_utilization", "fraction"),
    m("exec.imbalance", "ratio"),
    m("exec.msgs_per_step", "msgs"),
    m("exec.bytes_per_step", "bytes"),
    m("exec.active_frac", "fraction"),
    m("monitor.verify_ms_per_solve", "ms"),
    m("monitor.verifications_per_solve", "count"),
    m("monitor.eval_ms_per_solve", "ms"),
    m("driver.self_ms_per_solve", "ms"),
    m("serve.add_tenant_ms", "ms"),
    m("serve.submit_us_per_job", "us"),
    m("serve.window_ms", "ms"),
    m("serve.latency_ms_p50", "ms"),
    m("serve.latency_ms_p99", "ms"),
    m("serve.self_ms_per_window", "ms"),
    m("serve.pool_utilization", "fraction"),
    m("serve.max_queue_depth", "jobs"),
    m("panel.steps_per_batch", "steps"),
    m("panel.column_efficiency", "fraction"),
    m("trace.overhead_frac", "fraction"),
    m("host.ref_pass_ms", "ms"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Counter totals over a set of reports. Executor counters are added once
/// per executor run — a fused panel batch shares one `RunStats` across
/// its columns — and solve outcomes once per solve.
#[derive(Debug, Default, Clone)]
pub struct ExecTotals {
    nranks: usize,
    solves: u64,
    /// Supersteps each solve took to its own verdict, summed.
    solve_steps: u64,
    runs: u64,
    steps: u64,
    msgs: u64,
    bytes: u64,
    active: u64,
    modelled_s: f64,
    compute_ns: u64,
    route_ns: u64,
    span_ns: u64,
    busy_ns: u64,
    /// Σ (span + route) × workers: the worker time offered while the
    /// executor ran. A pooled epoch close keeps the workers busy too, so
    /// the span alone would put utilization above 1.
    offered_ns: f64,
    imbalance_sum: f64,
    eval_ns: u64,
    verify_ns: u64,
    verifications: u64,
}

impl ExecTotals {
    /// Adds one executor run.
    pub fn add_run(&mut self, s: &RunStats) {
        self.nranks = s.msgs_per_rank.len();
        self.runs += 1;
        self.steps += s.nsteps() as u64;
        self.msgs += s.total_msgs();
        self.bytes += s.total_bytes();
        self.active += s.steps.iter().map(|st| st.active_ranks).sum::<u64>();
        self.modelled_s += s.total_time();
        self.compute_ns += s.total_compute_ns();
        self.route_ns += s.total_route_ns();
        self.span_ns += s.total_span_ns();
        self.busy_ns += s.worker_busy_ns.iter().sum::<u64>();
        self.offered_ns +=
            (s.total_span_ns() + s.total_route_ns()) as f64 * s.worker_busy_ns.len() as f64;
        self.imbalance_sum += s.mean_imbalance();
    }

    /// Adds one solve's own outcome: supersteps to its verdict and its
    /// monitor counters.
    pub fn add_solve(&mut self, r: &DistReport) {
        let mon = r.monitor_stats();
        self.solves += 1;
        self.solve_steps += (r.records.len() - 1) as u64;
        self.eval_ns += mon.eval_ns;
        self.verify_ns += mon.verify_ns;
        self.verifications += mon.verifications;
    }

    /// Adds a scalar solve: its own executor run and its outcome.
    pub fn add_report(&mut self, r: &DistReport) {
        self.add_run(&r.stats);
        self.add_solve(r);
    }

    /// Supersteps per executor run.
    pub fn steps_per_run(&self) -> f64 {
        self.steps as f64 / self.runs as f64
    }

    /// Σ per-solve supersteps over Σ run supersteps × solves per run: how
    /// much of a fused panel's work advanced a still-unconverged column.
    pub fn column_efficiency(&self) -> f64 {
        self.solve_steps as f64 / (self.steps as f64 * self.solves as f64 / self.runs as f64)
    }

    /// Executor plus monitor seconds: the solver work inside a window.
    pub fn solver_s(&self) -> f64 {
        (self.span_ns + self.route_ns + self.eval_ns + self.verify_ns) as f64 * 1e-9
    }

    /// The exact end-to-end counts: messages per rank, supersteps and
    /// modelled seconds, each per solve.
    pub fn exact_e2e(&self, v: &mut Values) {
        let solves = self.solves as f64;
        v.insert(
            "msgs_per_rank",
            self.msgs as f64 / (self.nranks as f64 * solves),
        );
        v.insert("steps", self.solve_steps as f64 / solves);
        v.insert("modelled_s", self.modelled_s / solves);
    }

    /// The exact per-layer counts.
    pub fn exact_layers(&self, v: &mut Values) {
        let steps = self.steps as f64;
        v.insert("exec.msgs_per_step", self.msgs as f64 / steps);
        v.insert("exec.bytes_per_step", self.bytes as f64 / steps);
        v.insert(
            "exec.active_frac",
            self.active as f64 / (steps * self.nranks as f64),
        );
        v.insert(
            "monitor.verifications_per_solve",
            self.verifications as f64 / self.solves as f64,
        );
    }

    /// The measured per-layer timings.
    pub fn timed_layers(&self, v: &mut Values) {
        let (steps, solves) = (self.steps as f64, self.solves as f64);
        v.insert(
            "exec.compute_ms_per_step",
            self.compute_ns as f64 * 1e-6 / steps,
        );
        v.insert(
            "exec.route_ms_per_step",
            self.route_ns as f64 * 1e-6 / steps,
        );
        v.insert("exec.span_ms_per_step", self.span_ns as f64 * 1e-6 / steps);
        v.insert(
            "exec.worker_utilization",
            self.busy_ns as f64 / self.offered_ns,
        );
        v.insert("exec.imbalance", self.imbalance_sum / self.runs as f64);
        v.insert(
            "monitor.verify_ms_per_solve",
            self.verify_ns as f64 * 1e-6 / solves,
        );
        v.insert(
            "monitor.eval_ms_per_solve",
            self.eval_ns as f64 * 1e-6 / solves,
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `defs` with its unit. A metric missing from `values`, or not finite,
/// reads 0 (the caller counts a non-finite value as a failed check).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values
            .get(d.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    out
}
