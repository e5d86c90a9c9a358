//! Continuous-burst traffic for the motivation scenario (Fig. 2 / §2.2).
//!
//! "Each server in Hb generates 40 bursty flows with 64KB at line rate and
//! sends them to the receiver Rc. ... By default, two continuous bursts are
//! generated." A *burst* is one round of `flows_per_burst` simultaneous
//! 64 KB flows from every burst sender; continuous bursts follow each other
//! after `burst_gap`.

use crate::spec::FlowSpec;
use rlb_engine::{SimDuration, SimTime};

#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// The hosts in the set Hb.
    pub senders: Vec<u32>,
    /// The common victim receiver Rc.
    pub dst_host: u32,
    /// Simultaneous flows per sender per burst (paper default 40).
    pub flows_per_burst: u32,
    /// Size of each bursty flow (paper default 64 KB).
    pub flow_bytes: u64,
    /// Number of continuous bursts (paper sweeps 1–6, default 2).
    pub bursts: u32,
    /// Start of the first burst.
    pub start: SimTime,
    /// Gap between the starts of consecutive bursts.
    pub burst_gap: SimDuration,
}

impl BurstConfig {
    pub fn generate(&self) -> Vec<FlowSpec> {
        let mut flows = Vec::with_capacity(
            (self.senders.len() as u32 * self.flows_per_burst * self.bursts) as usize,
        );
        for b in 0..self.bursts {
            let t = self.start + self.burst_gap.mul_u64(b as u64);
            for &s in &self.senders {
                for k in 0..self.flows_per_burst {
                    flows.push(
                        FlowSpec::new(t, s, self.dst_host, self.flow_bytes)
                            .with_group(((b as u64) << 32) | k as u64),
                    );
                }
            }
        }
        flows
    }

    /// Total bytes one burst round injects.
    pub fn bytes_per_burst(&self) -> u64 {
        self.senders.len() as u64 * self.flows_per_burst as u64 * self.flow_bytes
    }
}

/// The long "congested flow" fc of Fig. 2 — a single large transfer from Hc
/// to Rc that the load balancer spreads over parallel paths.
pub fn congested_flow(src: u32, dst: u32, bytes: u64, start: SimTime) -> FlowSpec {
    FlowSpec::new(start, src, dst, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_layout_matches_paper_defaults() {
        let cfg = BurstConfig {
            senders: vec![10, 11, 12],
            dst_host: 5,
            flows_per_burst: 40,
            flow_bytes: 64_000,
            bursts: 2,
            start: SimTime::from_us(100),
            burst_gap: SimDuration::from_us(500),
        };
        let flows = cfg.generate();
        assert_eq!(flows.len(), 3 * 40 * 2);
        assert!(flows
            .iter()
            .all(|f| f.dst_host == 5 && f.size_bytes == 64_000));
        let first_burst: Vec<_> = flows
            .iter()
            .filter(|f| f.start == SimTime::from_us(100))
            .collect();
        assert_eq!(first_burst.len(), 120);
        let second_burst: Vec<_> = flows
            .iter()
            .filter(|f| f.start == SimTime::from_us(600))
            .collect();
        assert_eq!(second_burst.len(), 120);
        assert_eq!(cfg.bytes_per_burst(), 3 * 40 * 64_000);
    }

    #[test]
    fn more_bursts_scale_linearly() {
        let mut cfg = BurstConfig {
            senders: vec![1],
            dst_host: 0,
            flows_per_burst: 4,
            flow_bytes: 1_000,
            bursts: 1,
            start: SimTime::ZERO,
            burst_gap: SimDuration::from_us(10),
        };
        assert_eq!(cfg.generate().len(), 4);
        cfg.bursts = 6;
        assert_eq!(cfg.generate().len(), 24);
    }

    #[test]
    fn congested_flow_builder() {
        let f = congested_flow(3, 9, 250_000_000, SimTime::ZERO);
        assert_eq!((f.src_host, f.dst_host, f.size_bytes), (3, 9, 250_000_000));
    }
}
