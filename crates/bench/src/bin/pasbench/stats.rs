//! Nearest-rank order statistics over samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer, one outlier would decide the number. The
//! median is the centre of the sample, not a tail claim, so it is always
//! reported.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    sorted(samples)[rank(samples.len(), 0.5)]
}

/// Nearest-rank `q` percentile, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    (n - 1 - r >= MIN_BEYOND).then(|| sorted(samples)[r])
}

/// Distance between the nearest-rank quartiles as a share of the median;
/// `0` for a single sample.
pub fn spread(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    let mid = s[rank(n, 0.5)];
    if mid == 0.0 {
        return 0.0;
    }
    (s[rank(n, 0.75)] - s[rank(n, 0.25)]) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        assert_eq!(median(&ramp(1)), 1.0);
        assert_eq!(median(&ramp(3)), 2.0);
        assert_eq!(median(&ramp(4)), 2.0);
        assert_eq!(tail(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_samples_beyond_is_refused() {
        assert_eq!(tail(&ramp(99), 0.9), None);
        assert_eq!(tail(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail(&ramp(999), 0.99), None);
        assert_eq!(tail(&ramp(19), 0.5), None);
        assert_eq!(tail(&[], 0.5), None);
        // The median itself is never refused.
        assert_eq!(median(&ramp(2)), 1.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[4.0, 4.0, 4.0, 4.0]), 0.0);
        // Quartiles of 1..=8 are 2 and 6, the median 4.
        assert_eq!(spread(&ramp(8)), 1.0);
    }
}
