//! Fixed-bucket and log-bucket histograms for high-volume counters (OOD,
//! queue lengths) where keeping every sample would be wasteful.

use serde::Serialize;

/// Power-of-two log-bucketed histogram of `u64` values.
///
/// Bucket `i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds the value 0
/// and 1 (i.e. values < 2). Gives exact counts with ~64 buckets and supports
/// approximate quantiles (upper bound of the containing bucket), which is
/// plenty for the out-of-order-degree distributions in Fig. 3b.
#[derive(Debug, Clone, Serialize)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (nearest-rank). Exact for values that land on bucket edges; otherwise
    /// an overestimate by at most 2x — fine for log-scale plots.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i }.min(self.max.max(1));
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_assignment() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_bound_covers_true_quantile() {
        let mut h = LogHistogram::new();
        let vals: Vec<u64> = (0..1000).map(|i| i * 7 % 513).collect();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let bound = h.quantile_upper_bound(q);
            assert!(bound >= truth, "q={q}: bound {bound} < truth {truth}");
            assert!(
                bound <= truth.max(1) * 2,
                "q={q}: bound {bound} too loose for {truth}"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(LogHistogram::new().quantile_upper_bound(0.99), 0);
    }
}
