//! Scalar statistics: online moments and exact percentiles.

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Merge another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

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
        comp += if sum.abs() >= x.abs() { (sum - t) + x } else { (x - t) + sum };
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
    fn online_stats_match_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 3.875).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        let naive_var =
            xs.iter().map(|x| (x - 3.875f64).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.variance() - naive_var).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_nan() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert!(s.min().is_nan());
        assert!(percentile(&[], 0.5).is_nan());
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 101) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..33] {
            a.push(x);
        }
        for &x in &xs[33..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.count(), a.mean());
        a.merge(&OnlineStats::new());
        assert_eq!((a.count(), a.mean()), before);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
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
