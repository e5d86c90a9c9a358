//! Fabric time-series monitoring: periodic snapshots of buffer occupancy,
//! pause state and flow progress, for deep-dive plots and debugging
//! (queue-evolution figures, pause-storm timelines).

use rlb_engine::SimDuration;
use serde::Serialize;

/// Enables periodic sampling during a run.
#[derive(Debug, Clone, Serialize)]
pub struct MonitorConfig {
    /// Sampling period. Each tick costs one event plus a scan over the
    /// switches, so keep it ≥ a few µs for long runs.
    pub interval: SimDuration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: SimDuration::from_us(20),
        }
    }
}

/// One fabric snapshot.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FabricSample {
    pub t_ps: u64,
    /// Total bytes in all switch shared buffers.
    pub buffered_bytes: u64,
    /// Egress ports currently paused by PFC (switches only).
    pub paused_ports: u32,
    /// Hosts whose NIC is currently paused by the leaf.
    pub paused_hosts: u32,
    /// Flows started but not yet completed.
    pub active_flows: u32,
    /// Deepest single egress data queue in the fabric.
    pub max_egress_queue_bytes: u64,
}

/// The collected series with a few convenience reductions.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FabricTimeSeries {
    pub samples: Vec<FabricSample>,
}

impl FabricTimeSeries {
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Peak total buffer occupancy over the run.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.buffered_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Peak single-queue depth.
    pub fn peak_queue_bytes(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.max_egress_queue_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Fraction of samples with at least one paused port.
    pub fn paused_fraction(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.paused_ports > 0).count() as f64
            / self.samples.len() as f64
    }

    /// Render as whitespace-separated columns (gnuplot friendly).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# t_us buffered_bytes paused_ports paused_hosts active_flows max_queue\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3} {} {} {} {} {}\n",
                s.t_ps as f64 / 1e6,
                s.buffered_bytes,
                s.paused_ports,
                s.paused_hosts,
                s.active_flows,
                s.max_egress_queue_bytes
            ));
        }
        out
    }
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn sample(t: u64, buf: u64, paused: u32, q: u64) -> FabricSample {
        FabricSample {
            t_ps: t,
            buffered_bytes: buf,
            paused_ports: paused,
            paused_hosts: 0,
            active_flows: 1,
            max_egress_queue_bytes: q,
        }
    }

    #[test]
    fn reductions() {
        let ts = FabricTimeSeries {
            samples: vec![
                sample(0, 100, 0, 50),
                sample(1, 900, 2, 800),
                sample(2, 300, 0, 100),
                sample(3, 500, 1, 200),
            ],
        };
        assert_eq!(ts.peak_buffered_bytes(), 900);
        assert_eq!(ts.peak_queue_bytes(), 800);
        assert!((ts.paused_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn empty_series() {
        let ts = FabricTimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.peak_buffered_bytes(), 0);
        assert_eq!(ts.paused_fraction(), 0.0);
    }

    #[test]
    fn render_format() {
        let ts = FabricTimeSeries {
            samples: vec![sample(2_000_000, 42, 1, 7)],
        };
        let r = ts.render();
        assert!(r.starts_with("# t_us"));
        assert!(r.contains("2.000 42 1 0 1 7"));
    }
}
