//! Order statistics under the ten-samples-beyond rule.
//!
//! A percentile is only reported when at least ten samples lie beyond
//! it, so p50 needs 20 samples and p99 needs 1000. Metrics that must be
//! printed on every workload fall back to the highest percentile the
//! sample supports, and the report names the one used.

/// Samples that must lie strictly beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Nearest rank of the `q`-quantile among `n` samples (1-based): the
/// smallest rank with at least `q·n` samples at or below it.
fn rank(q: f64, n: usize) -> usize {
    // The epsilon keeps q·n that is integral in exact arithmetic from
    // rounding up past itself (0.95 · 200 is 190.00000000000003).
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The highest quantile at most `q` that the rule supports, never
/// below the median: `(quantile used, value)`. With fewer than
/// 2·[`BEYOND`] samples the median is returned as is.
pub fn tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    if n < 2 * BEYOND {
        return Some((0.5, median(samples)));
    }
    let r = rank(q, n).min(n - BEYOND);
    Some((r as f64 / n as f64, sorted(samples)[r - 1]))
}

/// The median (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled-looking order: the helper must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: rank 990, ten values (991..=1000) beyond it.
        assert_eq!(tail(&ramp(1000), 0.99), Some((0.99, 990.0)));
        // One fewer and p99 would have nine beyond: fall back.
        let (q, v) = tail(&ramp(999), 0.99).unwrap();
        assert!(q < 0.99 && v == 989.0, "{q} {v}");
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(tail(&ramp(20), 0.5), Some((0.5, 10.0)));
        // Nineteen: no percentile has ten beyond; the plain median.
        assert_eq!(tail(&ramp(19), 0.5), Some((0.5, 10.0)));
        assert_eq!(tail(&ramp(19), 0.99), Some((0.5, 10.0)));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_quantile() {
        // 200 samples support p95 at most: ten values beyond rank 190.
        assert_eq!(tail(&ramp(200), 0.99), Some((0.95, 190.0)));
        assert_eq!(tail(&ramp(200), 0.9), Some((0.9, 180.0)));
        assert_eq!(tail(&ramp(5), 0.99), Some((0.5, 3.0)));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
