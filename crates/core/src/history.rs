//! Convergence histories shared by the scalar and distributed solvers.

/// One sample of a scalar-method convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarSample {
    /// Cumulative number of row relaxations when the sample was taken.
    pub relaxations: u64,
    /// Global residual 2-norm at that point.
    pub residual_norm: f64,
}

/// The convergence record of a scalar-method run, in the shape the paper
/// plots: residual norm against the number of relaxations, with markers at
/// parallel-step boundaries (Figures 2 and 5).
#[derive(Debug, Clone, Default)]
pub struct ScalarHistory {
    /// Residual samples in relaxation order (one per parallel step for
    /// parallel methods; subsampled for one-at-a-time methods).
    pub samples: Vec<ScalarSample>,
    /// Cumulative relaxation counts at the end of each parallel step
    /// (the markers along the paper's curves).
    pub step_boundaries: Vec<u64>,
    /// Total relaxations performed.
    pub total_relaxations: u64,
    /// Final residual norm.
    pub final_residual: f64,
}

impl ScalarHistory {
    /// Number of parallel steps taken.
    pub fn parallel_steps(&self) -> usize {
        self.step_boundaries.len()
    }

    /// Relaxations needed to reach `target`, by linear interpolation on
    /// `log10` of the residual norm between the bracketing samples —
    /// the extraction rule the paper uses for Table 2.
    pub fn relaxations_to_reach(&self, target: f64) -> Option<f64> {
        interpolate_crossing(
            self.samples
                .iter()
                .map(|s| (s.relaxations as f64, s.residual_norm)),
            target,
        )
    }
}

/// Linear interpolation on `log10(residual)` over a monotone x-axis:
/// returns the x at which the residual first crosses `target`.
pub fn interpolate_crossing(
    points: impl IntoIterator<Item = (f64, f64)>,
    target: f64,
) -> Option<f64> {
    let mut prev: Option<(f64, f64)> = None;
    for (x, r) in points {
        if r <= target {
            match prev {
                None => return Some(x),
                Some((px, pr)) => {
                    if pr <= target {
                        return Some(px);
                    }
                    // log-linear interpolation between (px, pr) and (x, r).
                    if r <= 0.0 {
                        return Some(x);
                    }
                    let lt = target.log10();
                    let lp = pr.log10();
                    let lc = r.log10();
                    let frac = if (lc - lp).abs() < 1e-300 {
                        1.0
                    } else {
                        (lt - lp) / (lc - lp)
                    };
                    return Some(px + frac * (x - px));
                }
            }
        }
        prev = Some((x, r));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_steps_counts_step_boundaries() {
        let h = ScalarHistory {
            samples: vec![
                ScalarSample {
                    relaxations: 0,
                    residual_norm: 1.0,
                },
                ScalarSample {
                    relaxations: 10,
                    residual_norm: 0.5,
                },
                ScalarSample {
                    relaxations: 20,
                    residual_norm: 0.05,
                },
            ],
            step_boundaries: vec![10, 20],
            total_relaxations: 20,
            final_residual: 0.05,
        };
        assert_eq!(h.parallel_steps(), 2);
    }

    #[test]
    fn interpolation_is_log_linear() {
        // Residual falls 1.0 -> 0.01 between x = 0 and x = 2; the log-linear
        // crossing of 0.1 is exactly x = 1.
        let x = interpolate_crossing([(0.0, 1.0), (2.0, 0.01)], 0.1).unwrap();
        assert!((x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interpolation_none_if_never_reached() {
        assert!(interpolate_crossing([(0.0, 1.0), (1.0, 0.5)], 0.1).is_none());
    }

    #[test]
    fn interpolation_at_first_sample() {
        let x = interpolate_crossing([(5.0, 0.05), (6.0, 0.01)], 0.1).unwrap();
        assert_eq!(x, 5.0);
    }

    #[test]
    fn interpolation_handles_zero_residual() {
        let x = interpolate_crossing([(0.0, 1.0), (3.0, 0.0)], 0.1).unwrap();
        assert_eq!(x, 3.0);
    }
}
