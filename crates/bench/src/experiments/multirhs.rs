//! Fused multi-RHS panel study (beyond the paper's tables): one tenant's
//! batch of `k` right-hand sides solved as a fused panel versus `k`
//! sequential warm-started solves.
//!
//! Both sides run the §4.2 serve workload — the 64-rank unit-diagonal
//! Poisson system of [`serve_problem`], warmed by one untimed priming
//! solve, then `k` drifted right-hand sides per timed window. The
//! sequential side is [`solve_many`]: each rhs re-seeds the session and
//! runs to its own verdict, paying the full superstep cadence (epoch
//! close, monitor boundary, per-put routing) `k` separate times. The
//! fused side is [`solve_panel`]: one executor of `k`-column panel ranks
//! relaxes every column per sweep, packs all columns' puts into one
//! message per (edge, class), and verifies convergence with one blocked
//! SpMV across the columns that need it — so the per-superstep fixed
//! costs and the per-message α amortize `k`-fold while each column's
//! trajectory stays bit-identical to its scalar solve (pinned by the
//! `multirhs` proptests).
//!
//! Messages are the paper's metric, so the table reconciles them
//! directly: `seq_msgs_per_rank` sums the `k` scalar solves,
//! `fused_msgs_per_rank` is the panel's shared count, and the gate
//! requires the ratio ≥ [`GATE_MSG_REDUCTION`] at `k =` [`GATE_K`]. The
//! message counts are deterministic; the solves/sec speedup is printed
//! but not gated. Each point runs [`REPEATS`] times: the CSV carries the
//! median and interquartile range of every rate, and the counts, which
//! every run must reproduce exactly.
//!
//! [`serve_problem`]: super::serve::serve_problem
//! [`solve_many`]: dsw_core::dist::SolveSession::solve_many
//! [`solve_panel`]: dsw_core::dist::SolveSession::solve_panel

use super::serve::{serve_opts, serve_problem, tenant_rhs, RANKS};
use crate::harness::{write_csv, ExperimentCtx, Spread};
use dsw_core::dist::{Method, TenantSession};
use std::time::Instant;

/// The measured columns of `multirhs.csv` (rates, their IQRs and their
/// ratio): `experiments check` skips them.
pub const MEASURED: &[&str] = &[
    "fused_solves_per_sec",
    "fused_solves_per_sec_iqr",
    "seq_solves_per_sec",
    "seq_solves_per_sec_iqr",
    "speedup",
    "speedup_iqr",
];

/// Panel widths swept by the study.
pub const KS: [usize; 3] = [4, 8, 16];

/// The gated panel width.
pub const GATE_K: usize = 8;

/// The gate: sequential msgs/rank must be at least this multiple of the
/// fused panel's at `k =` [`GATE_K`].
pub const GATE_MSG_REDUCTION: f64 = 3.0;

/// Timed windows per point: each window draws `k` fresh drifted
/// right-hand sides and both sides continue from their previous window's
/// final state, so the measurement stays in the warm steady state the
/// serving layer cares about.
pub const WINDOWS: usize = 3;

/// The gate's method, matching the serve study: Block Jacobi's short
/// convergence tail keeps the measurement on the batching layer instead
/// of the solver's input-sensitive asymptotics. Distributed Southwell is
/// recorded alongside, ungated.
pub const GATE_METHOD: Method = Method::BlockJacobi;

/// Runs of every sweep point. One run takes tens of milliseconds, and
/// single-run rates swung by a quarter between back-to-back runs of one
/// binary, so each rate is the median over this many runs.
pub const REPEATS: usize = 15;

/// One run of a (method, k) point of the multi-RHS sweep.
pub struct MultiRhsRow {
    /// The solver both sides run.
    pub method: Method,
    /// Panel width (right-hand sides per batch).
    pub k: usize,
    /// Fused-panel throughput, solves/sec.
    pub fused_solves_per_sec: f64,
    /// Sequential warm-started throughput, solves/sec.
    pub seq_solves_per_sec: f64,
    /// `fused / seq` throughput ratio.
    pub speedup: f64,
    /// Panel messages per rank over the timed windows.
    pub fused_msgs_per_rank: f64,
    /// Summed scalar-solve messages per rank over the same windows.
    pub seq_msgs_per_rank: f64,
    /// `seq / fused` message ratio.
    pub msg_reduction: f64,
    /// Panel wire bytes per rank (headers + tags + payloads).
    pub fused_bytes_per_rank: f64,
    /// Summed scalar wire bytes per rank.
    pub seq_bytes_per_rank: f64,
    /// Fused supersteps over the windows (the panel runs to the slowest
    /// column's verdict).
    pub fused_steps: u64,
    /// Summed sequential supersteps over the windows.
    pub seq_steps: u64,
    /// Every timed solve on both sides reached the target.
    pub converged: bool,
}

/// The drifted batch for window `w`: `k` right-hand sides that differ
/// from each other and from the previous window's final solution, so
/// both sides do real warm-restart work on every column.
fn window_rhs(n: usize, w: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k).map(|c| tenant_rhs(n, w * k + c, 1 + c)).collect()
}

/// Measures one (method, k) point: two identically-primed sessions, one
/// timed on `solve_many`, the other on `solve_panel`, over [`WINDOWS`]
/// batches of `k` drifted right-hand sides.
pub fn run_point(method: Method, k: usize, windows: usize) -> MultiRhsRow {
    let (a, _b, x0, part) = serve_problem();
    let n = a.nrows();
    let opts = serve_opts();
    let prime = tenant_rhs(n, 0, 0);

    let mut seq = TenantSession::build(method, a.clone(), &prime, &x0, &part, &opts);
    seq.solve(&prime);
    let mut fused = TenantSession::build(method, a.clone(), &prime, &x0, &part, &opts);
    fused.solve(&prime);

    // One untimed warmup window per side: the first fused window grows
    // the panel's staging, scratch, and executor buffers from cold; the
    // steady state is what a serving layer sees.
    let warm = window_rhs(n, windows, k);
    let _ = seq.solve_many(&warm);
    let _ = fused.solve_panel(&warm);

    let mut seq_secs = 0.0;
    let mut fused_secs = 0.0;
    let mut seq_msgs = 0u64;
    let mut fused_msgs = 0u64;
    let mut seq_bytes = 0u64;
    let mut fused_bytes = 0u64;
    let mut seq_steps = 0u64;
    let mut fused_steps = 0u64;
    let mut converged = true;
    for w in 0..windows {
        let bs = window_rhs(n, w, k);

        let t0 = Instant::now();
        let reports = seq.solve_many(&bs);
        seq_secs += t0.elapsed().as_secs_f64();
        for r in &reports {
            seq_msgs += r.stats.total_msgs();
            seq_bytes += r.stats.total_bytes();
            seq_steps += r.stats.nsteps() as u64;
            converged &= r.converged_at.is_some();
        }

        let t0 = Instant::now();
        let reports = fused.solve_panel(&bs);
        fused_secs += t0.elapsed().as_secs_f64();
        // Panel communication stats are shared across the batch — every
        // column's report carries the same run-level counters, so charge
        // them once per window, not once per column.
        let shared = &reports[0].stats;
        fused_msgs += shared.total_msgs();
        fused_bytes += shared.total_bytes();
        fused_steps += shared.nsteps() as u64;
        converged &= reports.iter().all(|r| r.converged_at.is_some());
    }

    let solves = (windows * k) as f64;
    let fused_sps = solves / fused_secs;
    let seq_sps = solves / seq_secs;
    MultiRhsRow {
        method,
        k,
        fused_solves_per_sec: fused_sps,
        seq_solves_per_sec: seq_sps,
        speedup: fused_sps / seq_sps,
        fused_msgs_per_rank: fused_msgs as f64 / RANKS as f64,
        seq_msgs_per_rank: seq_msgs as f64 / RANKS as f64,
        msg_reduction: seq_msgs as f64 / (fused_msgs as f64).max(1.0),
        fused_bytes_per_rank: fused_bytes as f64 / RANKS as f64,
        seq_bytes_per_rank: seq_bytes as f64 / RANKS as f64,
        fused_steps,
        seq_steps,
        converged,
    }
}

/// A (method, k) point over `repeats` runs: the first run, whose
/// deterministic counts every run reproduces, and the spread of each
/// measured rate.
pub struct MultiRhsPoint {
    /// The first run (its counts are every run's).
    pub first: MultiRhsRow,
    /// Runs behind each [`Spread`].
    pub repeats: usize,
    /// Fused-panel throughput, solves/sec.
    pub fused_solves_per_sec: Spread,
    /// Sequential warm-started throughput, solves/sec.
    pub seq_solves_per_sec: Spread,
    /// `fused / seq`, per run (the two sides of a run alternate window
    /// by window).
    pub speedup: Spread,
}

/// Measures one (method, k) point `repeats` times over [`WINDOWS`]
/// windows each.
pub fn run_repeated(method: Method, k: usize, repeats: usize) -> MultiRhsPoint {
    assert!(repeats > 0, "a point needs at least one run");
    let runs: Vec<MultiRhsRow> = (0..repeats)
        .map(|_| run_point(method, k, WINDOWS))
        .collect();
    let counts = |r: &MultiRhsRow| {
        (
            r.fused_msgs_per_rank.to_bits(),
            r.seq_msgs_per_rank.to_bits(),
            r.fused_bytes_per_rank.to_bits(),
            r.seq_bytes_per_rank.to_bits(),
            r.fused_steps,
            r.seq_steps,
            r.converged,
        )
    };
    for r in &runs {
        assert_eq!(counts(r), counts(&runs[0]), "the counts are deterministic");
    }
    let spread = |f: fn(&MultiRhsRow) -> f64| Spread::of(&runs.iter().map(f).collect::<Vec<_>>());
    let (fused_solves_per_sec, seq_solves_per_sec, speedup) = (
        spread(|r| r.fused_solves_per_sec),
        spread(|r| r.seq_solves_per_sec),
        spread(|r| r.speedup),
    );
    MultiRhsPoint {
        first: runs.into_iter().next().expect("at least one run"),
        repeats,
        fused_solves_per_sec,
        seq_solves_per_sec,
        speedup,
    }
}

/// Runs the sweep and writes `results/multirhs.csv`: the gate method at
/// every `k` in [`KS`], plus one Distributed Southwell point at
/// [`GATE_K`] for paper fidelity. Each rate is the median over
/// [`REPEATS`] runs, followed by an `_iqr` column.
pub fn run_multirhs(ctx: &ExperimentCtx) -> Vec<MultiRhsPoint> {
    let mut points: Vec<MultiRhsPoint> = KS
        .iter()
        .map(|&k| run_repeated(GATE_METHOD, k, REPEATS))
        .collect();
    points.push(run_repeated(Method::DistributedSouthwell, GATE_K, REPEATS));

    println!(
        "\n=== multirhs — fused k-column panels vs k sequential warm solves \
         ({RANKS} ranks, {WINDOWS} windows; medians of {REPEATS} runs, IQR in brackets) ==="
    );
    println!(
        "{:>6} {:>4} {:>16} {:>16} {:>15} {:>11} {:>11} {:>8} {:>10} {:>10}",
        "method",
        "k",
        "fused s/s",
        "seq s/s",
        "speedup",
        "fused m/r",
        "seq m/r",
        "msg red",
        "fused st",
        "seq st"
    );
    let mut csv = Vec::new();
    for point in &points {
        let row = &point.first;
        let (fused, seq, speedup) = (
            point.fused_solves_per_sec,
            point.seq_solves_per_sec,
            point.speedup,
        );
        println!(
            "{:>6} {:>4} {:>16} {:>16} {:>15} {:>11.1} {:>11.1} {:>7.2}x {:>10} {:>10}",
            row.method.label(),
            row.k,
            format!("{:.1} [{:.1}]", fused.median, fused.iqr),
            format!("{:.1} [{:.1}]", seq.median, seq.iqr),
            format!("{:.2}x [{:.2}]", speedup.median, speedup.iqr),
            row.fused_msgs_per_rank,
            row.seq_msgs_per_rank,
            row.msg_reduction,
            row.fused_steps,
            row.seq_steps
        );
        let cell = |s: Spread, decimals: usize| {
            [
                format!("{:.decimals$}", s.median),
                format!("{:.decimals$}", s.iqr),
            ]
        };
        let mut line = vec![
            row.method.label().to_string(),
            row.k.to_string(),
            point.repeats.to_string(),
        ];
        line.extend(cell(fused, 2));
        line.extend(cell(seq, 2));
        line.extend(cell(speedup, 3));
        line.extend([
            format!("{:.1}", row.fused_msgs_per_rank),
            format!("{:.1}", row.seq_msgs_per_rank),
            format!("{:.3}", row.msg_reduction),
            format!("{:.1}", row.fused_bytes_per_rank),
            format!("{:.1}", row.seq_bytes_per_rank),
            row.fused_steps.to_string(),
            row.seq_steps.to_string(),
        ]);
        csv.push(line);
    }
    write_csv(
        &ctx.out_dir,
        "multirhs",
        &[
            "method",
            "k",
            "repeats",
            "fused_solves_per_sec",
            "fused_solves_per_sec_iqr",
            "seq_solves_per_sec",
            "seq_solves_per_sec_iqr",
            "speedup",
            "speedup_iqr",
            "fused_msgs_per_rank",
            "seq_msgs_per_rank",
            "msg_reduction",
            "fused_bytes_per_rank",
            "seq_bytes_per_rank",
            "fused_steps",
            "seq_steps",
        ],
        &csv,
    );
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mechanics_are_sane() {
        // One tiny window pins the accounting (counters populated, msgs
        // strictly reduced, both sides complete); the message gate at
        // `GATE_K` is the root `tests/experiment_gates.rs`.
        let row = run_point(GATE_METHOD, 4, 1);
        assert_eq!(row.k, 4);
        assert!(row.fused_solves_per_sec > 0.0);
        assert!(row.seq_solves_per_sec > 0.0);
        assert!(row.fused_msgs_per_rank > 0.0);
        assert!(
            row.msg_reduction > 1.0,
            "fusing must reduce messages: {:.2}x",
            row.msg_reduction
        );
        assert!(
            row.fused_steps < row.seq_steps,
            "the panel runs to the slowest column, not the sum"
        );
    }
}
