//! Scalar statistics: exact percentiles and compensated sums.

/// Exact percentile over a collected sample, by sorting a copy.
///
/// `q` is in `[0, 1]`; uses the nearest-rank method (the convention in the
/// datacenter-networking literature for "99th percentile FCT").
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, q)
}

/// Nearest-rank percentile of an already-sorted slice.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if q <= 0.0 {
        return sorted[0];
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Compensated (Kahan-Babuska/Neumaier) summation in slice order.
///
/// The error of a naive left-to-right `sum::<f64>()` grows with the number
/// of samples and depends on the order they arrive in — which is exactly
/// what parallel sweeps perturb. Kahan summation carries the rounding
/// residual in a second accumulator, making the result deterministic for a
/// given slice order and accurate to within a couple of ulps regardless of
/// length. All aggregate reporting should funnel through this (the
/// `float-accum` lint in `cargo xtask lint` points here).
pub fn kahan_sum(samples: &[f64]) -> f64 {
    let mut sum = 0.0f64;
    let mut comp = 0.0f64;
    for &x in samples {
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Convenience: mean of a slice (NaN when empty). Compensated summation.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    kahan_sum(samples) / samples.len() as f64
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_nan() {
        assert!(percentile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_handles_unsorted_input() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), 5.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.34), 3.0);
    }

    #[test]
    fn percentile_tolerates_nan_samples() {
        // total_cmp sorts NaN to the top instead of panicking; real samples
        // still land at the right ranks.
        let xs = [2.0, f64::NAN, 1.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert!(percentile(&xs, 1.0).is_nan());
    }

    #[test]
    fn kahan_sum_recovers_cancellation() {
        // Naive left-to-right summation loses the 1.0 entirely:
        // 1e16 + 1.0 == 1e16 in f64. The compensated sum keeps it.
        let xs = [1e16, 1.0, -1e16];
        assert_eq!(xs.iter().sum::<f64>(), 0.0); // lint:allow(float-accum)
        assert_eq!(kahan_sum(&xs), 1.0);
    }

    #[test]
    fn kahan_sum_matches_naive_on_benign_input() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 7) as f64 * 0.125).collect();
        let naive: f64 = xs.iter().sum(); // lint:allow(float-accum)
        assert_eq!(kahan_sum(&xs), naive);
        assert_eq!(kahan_sum(&[]), 0.0);
    }
}
