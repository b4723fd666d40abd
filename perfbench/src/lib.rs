//! End-to-end benchmark of the Distributed Southwell stack with a
//! per-layer breakdown.
//!
//! Four workloads (see `README.md` for why each was chosen):
//!
//! * `ds_4096` / `bj_8192` — cold solves at the paper's process counts
//!   ([`cold`]);
//! * `serve_128` / `serve_panel_128` — 128 tenants served from one shared
//!   pool, scalar or fused-panel ([`serve`]).
//!
//! The benchmark generates every input from the seed; the library crates
//! receive only the generated inputs. Layers are measured from outside:
//! by timing calls into public functions and by reading the counters the
//! reports already carry. The end-to-end time of an operation is its
//! on-CPU time over that of a reference memory pass timed beside it
//! (`reference`), so that contention from other tenants of the host moves
//! it much less than it moves the seconds.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the 64-bit Linux rusage layout");

pub mod check;
pub mod cold;
pub mod metrics;
mod reference;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

use metrics::Values;
use stats::Summary;
use trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distributed Southwell cold solves, Flan_1565 stand-in, 4096 ranks.
    Ds4096,
    /// Block Jacobi 50-step sweeps, 40³ Poisson, 8192 ranks.
    Bj8192,
    /// 128 tenants, single-RHS jobs.
    Serve128,
    /// 128 tenants, each window's jobs as one fused panel per tenant.
    ServePanel128,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ds4096,
        Workload::Bj8192,
        Workload::Serve128,
        Workload::ServePanel128,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ds4096 => "ds_4096",
            Workload::Bj8192 => "bj_8192",
            Workload::Serve128 => "serve_128",
            Workload::ServePanel128 => "serve_panel_128",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmark always runs [`Size::Paper`]; tests run the
/// same code on [`Size::Tiny`] instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workload names promise.
    Paper,
    /// Seconds-scale instances for tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Drives the partition, the initial guesses and the right-hand sides.
    pub seed: u64,
    /// How long the timed loop runs (a fixed prefix always runs).
    pub seconds: f64,
    /// Whether this is the traced run that yields the per-layer metrics.
    pub trace: bool,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Solves attempted (plus rejected submissions).
    pub attempted: u64,
    /// Attempts that failed a check or were rejected.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest over the reports of the fixed prefix of operations.
    pub digest: u64,
    /// Worker threads the workload ran on.
    pub pool_size: usize,
    /// Metric values (end-to-end or per-layer, by run kind).
    pub values: Values,
    /// Every timing behind a metric: sample count, median, quartiles.
    pub timings: Vec<(&'static str, Summary)>,
    /// Spans recorded during the run.
    pub tracer: Tracer,
}

impl Outcome {
    /// Counts one attempt and its check result.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failure of an attempt already counted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Records a timing's samples under `name`.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        self.timings.push((name, Summary::of(samples)));
    }
}

/// When the set-up repetitions behind `setup_s` run.
///
/// The first set-up is the one the workload keeps. The others are spread
/// evenly over the timed loop: host memory contention comes in episodes of
/// seconds to minutes, and this way the set-ups and the timed operations
/// both sample the whole run instead of one end of it. The repetitions
/// allocate on top of the heap the timed operations leave behind, so the
/// peak memory is read before the first of them.
pub struct SetupReps {
    total: usize,
    done: usize,
    peak_rss_mb: Option<f64>,
}

impl SetupReps {
    /// `total` repetitions, the first of which has run.
    pub fn new(total: usize) -> Self {
        SetupReps {
            total,
            done: 1,
            peak_rss_mb: None,
        }
    }

    /// Whether a repetition is due after `elapsed` of the loop's `seconds`
    /// timed seconds; the caller then runs it.
    pub fn due(&mut self, elapsed: f64, seconds: f64) -> bool {
        let due =
            self.done < self.total && elapsed >= seconds * self.done as f64 / self.total as f64;
        if due {
            self.take();
        }
        due
    }

    /// Whether a repetition is still owed after the timed loop; the caller
    /// then runs it.
    pub fn owed(&mut self) -> bool {
        let owed = self.done < self.total;
        if owed {
            self.take();
        }
        owed
    }

    fn take(&mut self) {
        self.peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
        self.done += 1;
    }

    /// Peak memory of the kept set-up and the timed operations.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.unwrap_or_else(sys::peak_rss_mb)
    }
}

/// Runs one workload.
pub fn run(w: Workload, size: Size, cfg: &RunConfig) -> Outcome {
    match w {
        Workload::Ds4096 | Workload::Bj8192 => cold::run(&cold::spec(w, size), cfg),
        Workload::Serve128 | Workload::ServePanel128 => serve::run(&serve::spec(w, size), cfg),
    }
}

/// Median nanoseconds per stored nonzero of `CsrMatrix::spmv` on `a`.
pub fn spmv_ns_per_nnz(a: &dsw_sparse::CsrMatrix, x: &[f64]) -> f64 {
    // 16 samples of at least 10⁶ nonzeros each, so a small matrix is not
    // timed at clock resolution.
    let reps = (1_000_000 / a.nnz().max(1)).max(1);
    let mut y = vec![0.0; a.nrows()];
    let samples: Vec<f64> = (0..16)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                a.spmv(std::hint::black_box(x), &mut y);
                std::hint::black_box(&y);
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    stats::median(&samples) * 1e9 / a.nnz() as f64
}

/// SplitMix64: mixes `seed` and a stream index into independent seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::SetupReps;

    #[test]
    fn setup_reps_spread_over_the_loop_then_catch_up() {
        let mut reps = SetupReps::new(3);
        // Due after a third and two thirds of 15 s, once each.
        let due: Vec<bool> = [0.0, 4.9, 5.0, 5.1, 9.9, 10.0, 14.0]
            .iter()
            .map(|&t| reps.due(t, 15.0))
            .collect();
        assert_eq!(due, [false, false, true, false, false, true, false]);
        assert!(!reps.owed());
        // A loop that ends early owes the rest.
        let mut reps = SetupReps::new(3);
        assert!(!reps.due(1.0, 15.0));
        assert_eq!((reps.owed(), reps.owed(), reps.owed()), (true, true, false));
        assert!(reps.peak_rss_mb() > 0.0);
    }
}
