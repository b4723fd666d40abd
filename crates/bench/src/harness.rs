//! Shared harness utilities: §4.2's problem setup, partitioning, CSV
//! output, and the run-context plumbing every experiment uses.

use dsw_core::dist::{run_method, DistOptions, DistReport, Method};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use dsw_sparse::suite::SuiteEntry;
use dsw_sparse::{gen, vecops, CsrMatrix};
use std::io::Write;
use std::path::PathBuf;

/// The simulated-rank count standing in for the paper's 8192 MPI processes
/// (scaled with the matrix sizes so subdomain sizes match the paper's
/// regime; see DESIGN.md).
pub const DEFAULT_RANKS: usize = 512;

/// A ready-to-run test problem in the paper's §4.2 setup: unit-diagonal
/// SPD matrix, `b = 0`, random initial guess scaled so `‖r⁰‖₂ = 1`.
pub struct Problem {
    /// The (already unit-diagonal) matrix.
    pub a: CsrMatrix,
    /// Right-hand side (all zeros in the distributed experiments).
    pub b: Vec<f64>,
    /// Initial guess, scaled for a unit initial residual.
    pub x0: Vec<f64>,
}

impl Problem {
    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.a.nrows()
    }
}

/// Builds the §4.2 problem for an (already unit-scaled) matrix.
///
/// # Panics
/// If no random guess with a nonzero initial residual can be found (see
/// [`try_setup_problem`]) — possible only for a degenerate (e.g. all-zero)
/// matrix.
pub fn setup_problem(a: CsrMatrix, seed: u64) -> Problem {
    try_setup_problem(a, seed).expect("problem setup failed")
}

/// As [`setup_problem`], but reports failure instead of panicking.
///
/// The initial guess is scaled by `1 / ‖r⁰‖₂`; a guess that already solves
/// the system (zero residual) would turn that into `inf`/NaN and poison
/// every downstream norm. Such a guess is reseeded a few times — it can
/// only recur if the matrix maps every guess to zero (e.g. a zero matrix),
/// which is reported as an error naming the problem.
pub fn try_setup_problem(a: CsrMatrix, seed: u64) -> Result<Problem, String> {
    const RESEED_ATTEMPTS: u64 = 8;
    let n = a.nrows();
    let b = vec![0.0; n];
    for attempt in 0..RESEED_ATTEMPTS {
        let mut x0 = gen::random_guess(n, seed.wrapping_add(attempt));
        let r0 = a.residual(&b, &x0);
        let norm = vecops::norm2(&r0);
        if !norm.is_finite() || norm == 0.0 {
            continue;
        }
        let scale = 1.0 / norm;
        for v in x0.iter_mut() {
            *v *= scale;
        }
        return Ok(Problem { a, b, x0 });
    }
    Err(format!(
        "setup_problem: every random guess (seed {seed}, {RESEED_ATTEMPTS} reseeds) \
         produced a zero or non-finite initial residual; the matrix appears to \
         annihilate all guesses (zero or near-zero matrix?)"
    ))
}

/// Partitions a suite problem over `p` ranks with the multilevel
/// partitioner (the METIS stand-in).
pub fn suite_partition(a: &CsrMatrix, p: usize, seed: u64) -> Partition {
    let g = Graph::from_matrix(a);
    partition_multilevel(
        &g,
        p,
        MultilevelOptions {
            seed,
            ..MultilevelOptions::default()
        },
    )
}

/// Experiment context: where outputs go and how large runs are.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Directory for CSV outputs.
    pub out_dir: PathBuf,
    /// Scale factor applied to suite matrix dimensions (1.0 = full size;
    /// smaller for smoke tests).
    pub scale: f64,
    /// Rank count for the fixed-P experiments.
    pub ranks: usize,
    /// Maximum parallel steps (the paper uses 50).
    pub max_steps: usize,
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            out_dir: PathBuf::from("results"),
            scale: 1.0,
            ranks: DEFAULT_RANKS,
            max_steps: 50,
        }
    }
}

impl ExperimentCtx {
    /// A small configuration for smoke tests.
    pub fn smoke() -> Self {
        ExperimentCtx {
            out_dir: std::env::temp_dir().join("dsw-results"),
            scale: 0.25,
            ranks: 32,
            max_steps: 50,
        }
    }

    /// Builds a suite matrix at this context's scale.
    pub fn build_suite_matrix(&self, e: &SuiteEntry) -> CsrMatrix {
        if (self.scale - 1.0).abs() < 1e-12 {
            e.build()
        } else {
            e.build_small(self.scale)
        }
    }

    /// Rank count scaled the same way the matrices are.
    pub fn scaled_ranks(&self) -> usize {
        if (self.scale - 1.0).abs() < 1e-12 {
            self.ranks
        } else {
            // Subdomain sizes shrink with scale³ for 3D recipes; keep the
            // rank count proportional to the *row* count reduction so
            // subdomain sizes stay in the paper's regime.
            ((self.ranks as f64) * self.scale * self.scale)
                .ceil()
                .max(4.0) as usize
        }
    }
}

/// Runs one method on a problem/partition with the context's step cap.
pub fn run_one(
    method: Method,
    prob: &Problem,
    part: &Partition,
    max_steps: usize,
    target: Option<f64>,
) -> DistReport {
    let opts = DistOptions {
        max_steps,
        target_residual: target,
        ..DistOptions::default()
    };
    run_method(method, &prob.a, &prob.b, &prob.x0, part, &opts)
}

/// Writes rows of `(header, rows)` to `<out_dir>/<name>.csv`.
pub fn write_csv(out_dir: &PathBuf, name: &str, header: &[&str], rows: &[Vec<String>]) {
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        writeln!(f, "{}", row.join(",")).unwrap();
    }
}

/// Formats a float like the paper's tables (3 decimals), with a dagger for
/// missing values ("could not achieve the target in 50 parallel steps").
pub fn fmt_or_dagger(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(x) => format!("{x:.decimals$}"),
        None => "†".to_string(),
    }
}

/// The median and interquartile range of repeated measurements of one
/// quantity; quartiles interpolate linearly between closest ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the samples.
    pub median: f64,
    /// Third minus first quartile.
    pub iqr: f64,
}

impl Spread {
    /// Summarizes `xs`; `NaN` for both when it is empty.
    pub fn of(xs: &[f64]) -> Spread {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let Some(last) = s.len().checked_sub(1) else {
                return f64::NAN;
            };
            let pos = q * last as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        };
        Spread {
            median: quantile(0.5),
            iqr: quantile(0.75) - quantile(0.25),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_interpolates_quartiles_in_any_order() {
        let s = Spread::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.iqr), (3.0, 2.0));
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.iqr), (2.5, 1.5));
        assert_eq!(
            Spread::of(&[7.0]),
            Spread {
                median: 7.0,
                iqr: 0.0
            }
        );
        assert!(Spread::of(&[]).median.is_nan());
    }

    #[test]
    fn setup_problem_has_unit_residual() {
        let mut a = gen::grid2d_poisson(10, 10);
        a.scale_unit_diagonal().unwrap();
        let p = setup_problem(a, 3);
        let r0 = p.a.residual(&p.b, &p.x0);
        assert!((vecops::norm2(&r0) - 1.0).abs() < 1e-12);
        assert!(p.b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn setup_problem_rejects_zero_initial_residual() {
        // Regression: a guess that already solves the system made
        // `scale = 1/‖r⁰‖` infinite and poisoned x0 with inf/NaN. A zero
        // matrix annihilates every guess, so every reseed fails and the
        // error must say so instead of returning a poisoned problem.
        let zero = dsw_sparse::CooBuilder::new(4, 4).build().unwrap();
        let err = match try_setup_problem(zero, 7) {
            Err(e) => e,
            Ok(_) => panic!("zero matrix must be rejected"),
        };
        assert!(err.contains("zero or non-finite"), "unhelpful error: {err}");
        // A healthy matrix still sets up fine through the fallible path...
        let mut a = gen::grid2d_poisson(6, 6);
        a.scale_unit_diagonal().unwrap();
        let p = try_setup_problem(a, 7).expect("healthy setup");
        assert!(p.x0.iter().all(|v| v.is_finite()));
        let r0 = p.a.residual(&p.b, &p.x0);
        assert!((vecops::norm2(&r0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "problem setup failed")]
    fn setup_problem_panics_with_clear_message_on_degenerate_matrix() {
        let zero = dsw_sparse::CooBuilder::new(3, 3).build().unwrap();
        let _ = setup_problem(zero, 1);
    }

    #[test]
    fn smoke_ctx_scales() {
        let ctx = ExperimentCtx::smoke();
        assert!(ctx.scaled_ranks() < DEFAULT_RANKS);
        assert!(ctx.scaled_ranks() >= 4);
    }

    #[test]
    fn fmt_dagger() {
        assert_eq!(fmt_or_dagger(Some(1.23456), 3), "1.235");
        assert_eq!(fmt_or_dagger(None, 3), "†");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("dsw-csv-test");
        write_csv(&dir, "t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let text = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
    }
}
