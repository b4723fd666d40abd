//! Output checks, independent of the solver code: the residual of every
//! returned `x` is recomputed here, and a digest over each report's
//! deterministic content makes bit-identical reports checkable across runs
//! and commits.

use dsw_core::dist::DistReport;
use dsw_sparse::CsrMatrix;

/// Relative tolerance between a recomputed residual and the report's.
const RESIDUAL_RTOL: f64 = 1e-10;

/// ‖b − A·x‖₂ by a plain CSR loop.
pub fn residual_norm(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
    let mut sum = 0.0;
    for (i, &bi) in b.iter().enumerate() {
        let mut ax = 0.0;
        for k in row_ptr[i]..row_ptr[i + 1] {
            ax += values[k] * x[col_idx[k]];
        }
        sum += (bi - ax) * (bi - ax);
    }
    sum.sqrt()
}

/// What a solve must achieve.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Converge to ‖r‖₂ ≤ target.
    Target(f64),
    /// Run exactly this many finite steps (a fixed sweep with no target).
    Sweep(usize),
}

/// Checks one report against the system it solved. `Err` names the
/// first failed check.
pub fn check_report(
    a: &CsrMatrix,
    b: &[f64],
    r: &DistReport,
    expect: Expect,
) -> Result<(), String> {
    let claimed = r.final_residual();
    let actual = residual_norm(a, b, &r.x);
    if !actual.is_finite() || (actual - claimed).abs() > RESIDUAL_RTOL * actual.max(claimed) {
        return Err(format!(
            "residual {actual:e} recomputed, report says {claimed:e}"
        ));
    }
    if r.deadlocked || r.diverged {
        return Err(format!(
            "deadlocked={} diverged={}",
            r.deadlocked, r.diverged
        ));
    }
    match expect {
        Expect::Target(t) => {
            if r.converged_at.is_none() || claimed > t {
                return Err(format!("missed target {t}: ‖r‖ = {claimed:e}"));
            }
        }
        Expect::Sweep(steps) => {
            let finite = r.records.iter().all(|rec| rec.residual_norm.is_finite());
            if r.records.len() != steps + 1 || r.stats.nsteps() != steps || !finite {
                return Err(format!(
                    "sweep ran {} steps ({} records, all finite: {finite}), expected {steps}",
                    r.stats.nsteps(),
                    r.records.len()
                ));
            }
        }
    }
    Ok(())
}

/// FNV-1a over the deterministic content of reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a report: verdicts, every step record (residual bits and
    /// cumulative counters), every step's deterministic substrate counters,
    /// the monitor's counts and the bits of `x`. Measured timings are left
    /// out.
    pub fn report(&mut self, r: &DistReport) {
        self.word(r.converged_at.map_or(u64::MAX, |s| s as u64));
        self.word(u64::from(r.deadlocked) | u64::from(r.diverged) << 1);
        self.word(r.watchdog_nudges);
        for rec in &r.records {
            for v in [
                rec.step as u64,
                rec.residual_norm.to_bits(),
                rec.relaxations,
                rec.msgs,
                rec.msgs_residual,
                rec.bytes,
                rec.time.to_bits(),
                rec.active_ranks,
            ] {
                self.word(v);
            }
        }
        for s in &r.stats.steps {
            for v in [s.msgs, s.bytes, s.flops, s.relaxations, s.time.to_bits()] {
                self.word(v);
            }
        }
        self.word(r.stats.monitor.evals);
        self.word(r.stats.monitor.verifications);
        for v in &r.x {
            self.word(v.to_bits());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_residual_matches_the_library_spmv() {
        let a = dsw_sparse::gen::grid2d_poisson(6, 5);
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..30).map(|i| (i % 4) as f64).collect();
        let lib: f64 = a.residual(&b, &x).iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((residual_norm(&a, &b, &x) - lib).abs() <= 1e-13 * lib);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut d1, mut d2) = (Digest::default(), Digest::default());
        d1.word(1);
        d1.word(2);
        d2.word(2);
        d2.word(1);
        assert_ne!(d1, d2);
    }
}
