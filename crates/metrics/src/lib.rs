//! # rlb-metrics — measurement and reporting
//!
//! Everything the paper's evaluation section measures, as reusable types:
//!
//! * [`FlowRecord`] / [`FctSummary`] — per-flow FCT, out-of-order packets,
//!   out-of-order degree (OOD), retransmissions; aggregate means and tail
//!   percentiles.
//! * [`FabricCounters`] — PFC pause/resume activity, CNM warnings,
//!   recirculation and reroute counts, buffer drops.
//! * [`record!`] — the one field list behind each result record: the
//!   struct, its `(name, value)` listing and its field-wise merge.
//! * [`percentile`], [`mean`], [`kahan_sum`], [`LogHistogram`] — scalar
//!   statistics.
//! * [`Table`] — aligned ASCII output for the `figN` experiment harnesses.

pub mod counters;
pub mod flows;
pub mod histogram;
pub mod record;
pub mod stats;
pub mod table;

pub use counters::FabricCounters;
pub use flows::{downsample_cdf, fct_cdf, slowdown_summary, FctSummary, FlowRecord};
pub use histogram::LogHistogram;
pub use record::{Merge, Num};
pub use stats::{kahan_sum, mean, percentile, percentile_of_sorted};
pub use table::{ms, pct, Table};

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Nearest-rank percentile always returns an element of the sample,
        /// and is monotone in q.
        #[test]
        fn percentile_properties(
            mut xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let p_lo = percentile(&xs, lo);
            let p_hi = percentile(&xs, hi);
            prop_assert!(xs.contains(&p_lo));
            prop_assert!(xs.contains(&p_hi));
            prop_assert!(p_lo <= p_hi);
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert_eq!(percentile_of_sorted(&xs, 1.0), *xs.last().unwrap());
        }

        /// Histogram quantile upper bound dominates the true quantile and
        /// count/max/mean stay exact.
        #[test]
        fn log_histogram_bounds(vals in proptest::collection::vec(0u64..1_000_000, 1..300)) {
            let mut h = LogHistogram::new();
            for &v in &vals { h.record(v); }
            prop_assert_eq!(h.count() as usize, vals.len());
            prop_assert_eq!(h.max(), *vals.iter().max().unwrap());
            let mut sorted = vals.clone();
            sorted.sort();
            for &q in &[0.5, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                prop_assert!(h.quantile_upper_bound(q) >= sorted[rank - 1]);
            }
        }
    }
}
