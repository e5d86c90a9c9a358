//! Per-flow records and the flow-completion-time summaries the paper plots.

use crate::record;
use crate::stats::{mean, percentile};
use serde::Serialize;

/// Everything measured about one flow over its lifetime.
#[derive(Debug, Clone, Serialize)]
pub struct FlowRecord {
    pub flow_id: u64,
    pub src_host: u32,
    pub dst_host: u32,
    /// Application bytes requested.
    pub size_bytes: u64,
    /// Data packets making up the flow.
    pub total_packets: u32,
    pub start_ps: u64,
    /// Completion time (last byte ACKed at the sender); `None` if the flow
    /// was still running when the simulation horizon ended.
    pub finish_ps: Option<u64>,
    /// Packets that arrived with a sequence number above the receiver's
    /// expectation (each is discarded by the go-back-N NIC).
    pub ooo_packets: u64,
    /// Sum over OOO arrivals of (got_seq - expected_seq); `max_ood` is the
    /// per-flow max — the paper's "out-of-order degree".
    pub max_ood: u64,
    /// Data packets the sender transmitted, including go-back-N rewinds.
    pub packets_sent: u64,
    /// NAKs received by the sender (each triggers a rewind).
    pub naks: u64,
    /// Times this flow's packets were recirculated by RLB.
    pub recirculations: u64,
}

impl FlowRecord {
    pub fn fct_ps(&self) -> Option<u64> {
        self.finish_ps.map(|f| f - self.start_ps)
    }
    pub fn fct_ms(&self) -> Option<f64> {
        self.fct_ps().map(|p| p as f64 / 1e9)
    }
    pub fn completed(&self) -> bool {
        self.finish_ps.is_some()
    }
    pub fn retransmitted_packets(&self) -> u64 {
        self.packets_sent.saturating_sub(self.total_packets as u64)
    }

    /// FCT slowdown: measured FCT over the ideal FCT of this flow on an
    /// idle fabric (`size/line_rate + base RTT`, with `wire_overhead` the
    /// header inflation factor, e.g. 1.048 for 48 B headers on 1000 B
    /// payloads). 1.0 = ideal; `None` if the flow never finished.
    pub fn slowdown(
        &self,
        line_rate_bps: f64,
        base_rtt_ps: u64,
        wire_overhead: f64,
    ) -> Option<f64> {
        let fct = self.fct_ps()? as f64;
        let ideal = (self.size_bytes as f64 * wire_overhead * 8.0 / line_rate_bps) * 1e12
            + base_rtt_ps as f64;
        Some(fct / ideal)
    }
}

/// Mean and tail FCT slowdown over the completed flows.
pub fn slowdown_summary(
    records: &[FlowRecord],
    line_rate_bps: f64,
    base_rtt_ps: u64,
    wire_overhead: f64,
) -> (f64, f64) {
    let s: Vec<f64> = records
        .iter()
        .filter_map(|r| r.slowdown(line_rate_bps, base_rtt_ps, wire_overhead))
        .collect();
    (mean(&s), percentile(&s, 0.99))
}

record! {
    /// Aggregate FCT statistics over a set of completed flows. Means and
    /// percentiles of one flow set: two summaries do not combine.
    #[derive(Debug, Clone, Serialize)]
    pub struct FctSummary {
        Keep flows_total: usize,
        Keep flows_completed: usize,
        Keep avg_fct_ms: f64,
        Keep p50_fct_ms: f64,
        Keep p95_fct_ms: f64,
        Keep p99_fct_ms: f64,
        Keep max_fct_ms: f64,
        /// Fraction of delivered-attempt packets that arrived out of order.
        Keep ooo_ratio: f64,
        /// 99th-percentile of per-flow max out-of-order degree (packets).
        Keep p99_ood: f64,
        Keep total_ooo_packets: u64,
        Keep total_packets_sent: u64,
        Keep total_naks: u64,
        Keep total_recirculations: u64,
    }
}

impl FctSummary {
    pub fn from_records(records: &[FlowRecord]) -> FctSummary {
        let fcts: Vec<f64> = records.iter().filter_map(|r| r.fct_ms()).collect();
        let oods: Vec<f64> = records
            .iter()
            .filter(|r| r.packets_sent > 0)
            .map(|r| r.max_ood as f64)
            .collect();
        let sent: u64 = records.iter().map(|r| r.packets_sent).sum();
        let ooo: u64 = records.iter().map(|r| r.ooo_packets).sum();
        FctSummary {
            flows_total: records.len(),
            flows_completed: fcts.len(),
            avg_fct_ms: mean(&fcts),
            p50_fct_ms: percentile(&fcts, 0.50),
            p95_fct_ms: percentile(&fcts, 0.95),
            p99_fct_ms: percentile(&fcts, 0.99),
            max_fct_ms: fcts.iter().cloned().fold(f64::NAN, f64::max),
            ooo_ratio: if sent == 0 {
                0.0
            } else {
                ooo as f64 / sent as f64
            },
            p99_ood: percentile(&oods, 0.99),
            total_ooo_packets: ooo,
            total_packets_sent: sent,
            total_naks: records.iter().map(|r| r.naks).sum(),
            total_recirculations: records.iter().map(|r| r.recirculations).sum(),
        }
    }

    /// Summary restricted to flows smaller than `cutoff` bytes ("small
    /// flows" in FCT breakdowns).
    pub fn for_sizes(records: &[FlowRecord], min: u64, max: u64) -> FctSummary {
        let subset: Vec<FlowRecord> = records
            .iter()
            .filter(|r| r.size_bytes >= min && r.size_bytes < max)
            .cloned()
            .collect();
        FctSummary::from_records(&subset)
    }
}

/// Empirical CDF over FCTs (for Fig. 6-style plots): returns (x_ms, F(x))
/// at every completed-flow sample point.
pub fn fct_cdf(records: &[FlowRecord]) -> Vec<(f64, f64)> {
    let mut fcts: Vec<f64> = records.iter().filter_map(|r| r.fct_ms()).collect();
    fcts.sort_by(f64::total_cmp);
    let n = fcts.len() as f64;
    fcts.iter()
        .enumerate()
        .map(|(i, &x)| (x, (i + 1) as f64 / n))
        .collect()
}

/// Downsample a CDF to `points` evenly spaced quantiles for compact output.
pub fn downsample_cdf(cdf: &[(f64, f64)], points: usize) -> Vec<(f64, f64)> {
    if cdf.is_empty() || points == 0 {
        return Vec::new();
    }
    (1..=points)
        .map(|i| {
            let q = i as f64 / points as f64;
            let idx = ((q * cdf.len() as f64).ceil() as usize).clamp(1, cdf.len()) - 1;
            cdf[idx]
        })
        .collect()
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn rec(id: u64, size: u64, fct_us: Option<u64>, ooo: u64, ood: u64) -> FlowRecord {
        FlowRecord {
            flow_id: id,
            src_host: 0,
            dst_host: 1,
            size_bytes: size,
            total_packets: (size / 1000).max(1) as u32,
            start_ps: 1_000_000,
            finish_ps: fct_us.map(|us| 1_000_000 + us * 1_000_000),
            ooo_packets: ooo,
            max_ood: ood,
            packets_sent: (size / 1000).max(1) + ooo,
            naks: ooo.min(3),
            recirculations: 0,
        }
    }

    #[test]
    fn fct_math() {
        let r = rec(1, 10_000, Some(500), 0, 0);
        assert_eq!(r.fct_ps(), Some(500_000_000));
        assert!((r.fct_ms().unwrap() - 0.5).abs() < 1e-12);
        assert!(r.completed());
        assert!(!rec(2, 10_000, None, 0, 0).completed());
    }

    #[test]
    fn summary_counts_completion_and_ooo() {
        let records = vec![
            rec(1, 10_000, Some(100), 2, 5),
            rec(2, 10_000, Some(300), 0, 0),
            rec(3, 10_000, None, 1, 9),
        ];
        let s = FctSummary::from_records(&records);
        assert_eq!(s.flows_total, 3);
        assert_eq!(s.flows_completed, 2);
        assert!((s.avg_fct_ms - 0.2).abs() < 1e-12);
        assert_eq!(s.total_ooo_packets, 3);
        assert!(s.ooo_ratio > 0.0 && s.ooo_ratio < 1.0);
        assert_eq!(s.p99_ood, 9.0);
    }

    #[test]
    fn size_filtered_summary() {
        let records = vec![
            rec(1, 5_000, Some(10), 0, 0),
            rec(2, 50_000, Some(90), 0, 0),
        ];
        let small = FctSummary::for_sizes(&records, 0, 10_000);
        assert_eq!(small.flows_total, 1);
        assert!((small.avg_fct_ms - 0.01).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let records: Vec<FlowRecord> = (0..50)
            .map(|i| rec(i, 1000, Some(1 + (i * 13) % 97), 0, 0))
            .collect();
        let cdf = fct_cdf(&records);
        assert_eq!(cdf.len(), 50);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        let ds = downsample_cdf(&cdf, 10);
        assert_eq!(ds.len(), 10);
        assert!((ds.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn downsample_handles_degenerate_inputs() {
        assert!(downsample_cdf(&[], 10).is_empty());
        let cdf = vec![(1.0, 0.5), (2.0, 1.0)];
        assert!(downsample_cdf(&cdf, 0).is_empty());
        // More points than samples: still ends at (2.0, 1.0), never panics.
        let ds = downsample_cdf(&cdf, 10);
        assert_eq!(ds.len(), 10);
        assert_eq!(*ds.last().unwrap(), (2.0, 1.0));
        assert_eq!(ds[0], (1.0, 0.5));
    }

    #[test]
    fn slowdown_math() {
        // 1 MB at 40G with 4.8% overhead = 209.6 µs + 20 µs RTT = 229.6 µs
        // ideal. A measured FCT of 459.2 µs is a slowdown of 2.0.
        let mut r = rec(1, 1_000_000, None, 0, 0);
        assert_eq!(r.slowdown(40e9, 20_000_000, 1.048), None);
        r.finish_ps = Some(r.start_ps + 459_200_000);
        let sd = r.slowdown(40e9, 20_000_000, 1.048).unwrap();
        assert!((sd - 2.0).abs() < 1e-9, "slowdown {sd}");
        let (avg, p99) = slowdown_summary(&[r], 40e9, 20_000_000, 1.048);
        assert!((avg - 2.0).abs() < 1e-9);
        assert!((p99 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_records() {
        let s = FctSummary::from_records(&[]);
        assert_eq!(s.flows_total, 0);
        assert_eq!(s.flows_completed, 0);
        assert!(s.avg_fct_ms.is_nan());
        assert_eq!(s.ooo_ratio, 0.0);
        assert_eq!(s.total_packets_sent, 0);
    }

    #[test]
    fn retransmissions_derived_from_sent() {
        let r = rec(1, 10_000, Some(10), 4, 2);
        assert_eq!(r.retransmitted_packets(), 4);
    }
}
