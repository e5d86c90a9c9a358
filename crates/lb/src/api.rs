//! The load-balancer interface.
//!
//! In a two-tier leaf–spine fabric the only real path decision is which
//! uplink (spine) the **source leaf** forwards a packet to — the spine's
//! downlink and the destination leaf's host port are determined by the
//! destination. Each scheme therefore implements one function: given a
//! snapshot of every candidate uplink's state, pick one.
//!
//! Vanilla schemes must only read the signals their papers use (local queue
//! lengths for DRILL, flowlet gaps for LetFlow, ...). The `warned` flag is
//! populated by the RLB predictor and is exclusively consumed by RLB's
//! decision (`rlb-core`'s Algorithm 1 and the simulator's sticky reroute
//! override) — that separation is the paper's whole point (§2.2: existing
//! schemes cannot perceive PFC pausing).

use serde::Serialize;

/// Per-candidate-path state snapshot presented to a scheme.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PathInfo {
    /// Bytes queued in the local egress queue of this uplink.
    pub queue_bytes: u64,
    /// The uplink egress is currently paused by a *real* PFC PAUSE.
    pub paused: bool,
    /// RLB PFC-warning active for this (uplink, destination-leaf) path.
    /// Only RLB's decision may act on this.
    pub warned: bool,
    /// Estimated RTT of the path to the destination leaf, nanoseconds.
    pub rtt_ns: f64,
    /// EWMA fraction of ECN-marked feedback on this path (Hermes signal).
    pub ecn_fraction: f64,
    /// Uplink capacity — differs across paths in asymmetric topologies.
    pub link_rate_bps: f64,
}

/// A neutral path: empty queue, 10 µs RTT, clean 40G link. The starting
/// point simulators refine with live switch state, and the baseline tests
/// perturb one field at a time from.
impl Default for PathInfo {
    fn default() -> PathInfo {
        PathInfo {
            queue_bytes: 0,
            paused: false,
            warned: false,
            rtt_ns: 10_000.0,
            ecn_fraction: 0.0,
            link_rate_bps: 40e9,
        }
    }
}

/// Context for one forwarding decision.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    pub now_ps: u64,
    pub flow_id: u64,
    /// Destination leaf (all paths in `paths` lead to it).
    pub dst_leaf: u32,
    /// Packet sequence number within the flow (PSN).
    pub seq: u32,
    /// Packet payload bytes.
    pub pkt_bytes: u32,
    /// Candidate uplinks; index is the path id handed back by `select`.
    pub paths: &'a [PathInfo],
}

/// A path decision: index into `Ctx::paths`.
pub type PathIdx = usize;

/// A load-balancing scheme deployed at the source leaf.
pub trait LoadBalancer: Send {
    fn name(&self) -> &'static str;

    /// Choose the uplink for this packet. Must return a valid index into
    /// `ctx.paths`.
    fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx;

    /// A flow finished; schemes may garbage-collect per-flow state.
    fn on_flow_complete(&mut self, _flow_id: u64) {}
}

/// Identifier for constructing schemes from experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Scheme {
    Ecmp,
    Presto,
    LetFlow,
    Hermes,
    Drill,
}

/// One row per scheme, in declaration order: the variant, the name tables
/// print, and the lowercase key spec files and CLI flags spell.
const SCHEMES: [(Scheme, &str, &str); 5] = [
    (Scheme::Ecmp, "ECMP", "ecmp"),
    (Scheme::Presto, "Presto", "presto"),
    (Scheme::LetFlow, "LetFlow", "letflow"),
    (Scheme::Hermes, "Hermes", "hermes"),
    (Scheme::Drill, "DRILL", "drill"),
];

impl Scheme {
    pub const PAPER_SET: [Scheme; 4] = [
        Scheme::Presto,
        Scheme::LetFlow,
        Scheme::Hermes,
        Scheme::Drill,
    ];

    /// Every scheme, in declaration order: `ALL[s as usize] == s`.
    pub const ALL: [Scheme; 5] = {
        let mut all = [Scheme::Ecmp; 5];
        let mut i = 0;
        while i < all.len() {
            all[i] = SCHEMES[i].0;
            i += 1;
        }
        all
    };

    pub fn name(self) -> &'static str {
        SCHEMES[self as usize].1
    }

    /// The name spec files and CLI flags use for this scheme.
    pub fn key(self) -> &'static str {
        SCHEMES[self as usize].2
    }

    pub fn from_key(key: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.key() == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Presto.name(), "Presto");
        assert_eq!(Scheme::PAPER_SET.len(), 4);
        assert!(!Scheme::PAPER_SET.contains(&Scheme::Ecmp));
    }

    #[test]
    fn scheme_table_is_in_declaration_order() {
        for (i, s) in Scheme::ALL.into_iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?} sits at row {i}");
            assert_eq!(Scheme::from_key(s.key()), Some(s));
        }
        assert_eq!(Scheme::Drill.key(), "drill");
        assert_eq!(Scheme::from_key("DRILL"), None);
    }

    #[test]
    fn default_path_is_clean() {
        let p = PathInfo::default();
        assert!(!p.paused && !p.warned);
        assert_eq!(p.queue_bytes, 0);
    }
}
