//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation between
/// closest ranks. `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Sample count, median and quartiles of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            n: xs.len(),
            q1: quantile(xs, 0.25),
            median: median(xs),
            q3: quantile(xs, 0.75),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.q1, s.median, s.q3), (9, 3.0, 5.0, 7.0));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
    }

    #[test]
    fn percentiles_hit_the_ends_and_ignore_input_order() {
        let xs: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert!((quantile(&[0.0, 10.0], 0.99) - 9.9).abs() < 1e-12);
    }
}
