//! The flow descriptor shared by all traffic generators.

use rlb_engine::SimTime;
use serde::Serialize;

/// One application flow to inject into the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FlowSpec {
    /// Arrival time of the first byte at the sender NIC.
    #[serde(skip)]
    pub start: SimTime,
    /// Source host index (fabric-wide host numbering).
    pub src_host: u32,
    /// Destination host index.
    pub dst_host: u32,
    /// Application bytes to transfer.
    pub size_bytes: u64,
    /// Tag grouping flows that belong to one logical request (used by the
    /// incast harness to compute "incast completion time" = completion of
    /// the last flow in the group). `u64::MAX` means untagged.
    pub group: u64,
    /// Restrict this flow to the first `k` parallel paths (spines).
    /// `None` = all paths. This is the control the paper's Fig. 4(a) uses:
    /// "we control the number of affected paths ... through controlling
    /// the number of multiple paths that can be chosen by the congested
    /// flows".
    pub path_limit: Option<u8>,
}

impl FlowSpec {
    pub fn new(start: SimTime, src_host: u32, dst_host: u32, size_bytes: u64) -> FlowSpec {
        FlowSpec {
            start,
            src_host,
            dst_host,
            size_bytes,
            group: u64::MAX,
            path_limit: None,
        }
    }

    pub fn with_group(mut self, group: u64) -> FlowSpec {
        self.group = group;
        self
    }

    pub fn with_path_limit(mut self, k: u8) -> FlowSpec {
        assert!(k >= 1, "path limit must allow at least one path");
        self.path_limit = Some(k);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder() {
        let f = FlowSpec::new(SimTime::from_us(3), 1, 2, 64_000).with_group(9);
        assert_eq!(f.start, SimTime::from_us(3));
        assert_eq!(
            (f.src_host, f.dst_host, f.size_bytes, f.group),
            (1, 2, 64_000, 9)
        );
        assert_eq!(FlowSpec::new(SimTime::ZERO, 0, 1, 1).group, u64::MAX);
        assert_eq!(f.path_limit, None);
        assert_eq!(f.with_path_limit(5).path_limit, Some(5));
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_path_limit_rejected() {
        FlowSpec::new(SimTime::ZERO, 0, 1, 1).with_path_limit(0);
    }
}
