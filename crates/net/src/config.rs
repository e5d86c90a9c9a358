//! Simulation configuration.

use rlb_core::RlbConfig;
use rlb_engine::{SimDuration, SimTime};
use rlb_lb::Scheme;
use rlb_transport::DcqcnConfig;
use serde::{Deserialize, Serialize};

/// Leaf–spine fabric shape and link properties.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoConfig {
    pub n_leaves: u32,
    pub n_spines: u32,
    pub hosts_per_leaf: u32,
    /// Leaf–spine link rate (bits/s). Paper: 40 Gbps.
    pub link_rate_bps: u64,
    /// Host–leaf link rate (bits/s). Paper: 40 Gbps.
    pub host_link_rate_bps: u64,
    /// One-way propagation delay of every link. Paper: 2 µs.
    pub link_delay_ps: u64,
    /// Degraded leaf–spine links (leaf, spine) — the asymmetric topology of
    /// §4.2 cuts 20% of links from 40 to 10 Gbps.
    pub degraded_links: Vec<(u32, u32)>,
    pub degraded_rate_bps: u64,
}

impl Default for TopoConfig {
    fn default() -> Self {
        // Scaled-down default (see DESIGN.md §2): 4×4 leaf–spine, 8 hosts
        // per leaf. `paper_scale` gives the 12×12×24 fabric.
        TopoConfig {
            n_leaves: 4,
            n_spines: 4,
            hosts_per_leaf: 8,
            link_rate_bps: 40_000_000_000,
            host_link_rate_bps: 40_000_000_000,
            link_delay_ps: 2_000_000,
            degraded_links: Vec::new(),
            degraded_rate_bps: 10_000_000_000,
        }
    }
}

/// Most spines a fabric may have: spine indices must stay below
/// [`crate::packet::NO_PATH`].
const MAX_SPINES: u32 = crate::packet::NO_PATH as u32;
/// Most hosts + leaves + spines a fabric may have: every entity needs a
/// 16-bit rank after the two reserved ones.
const MAX_ENTITIES: u64 = u16::MAX as u64 - 2;
/// Most ports (host NICs, leaf and spine ports) a fabric may have: events
/// name a port by its 16-bit `PortId`.
const MAX_PORTS: u64 = u16::MAX as u64;
/// Largest frame a packet can describe: `Packet::size_bytes` is 16 bits.
const MAX_FRAME_BYTES: u64 = u16::MAX as u64;

impl TopoConfig {
    /// The paper's evaluation fabric: 12 leaves × 12 spines, 24 hosts/leaf.
    pub fn paper_scale() -> TopoConfig {
        TopoConfig {
            n_leaves: 12,
            n_spines: 12,
            hosts_per_leaf: 24,
            ..TopoConfig::default()
        }
    }

    pub fn n_hosts(&self) -> u32 {
        self.n_leaves * self.hosts_per_leaf
    }

    /// Every directed port of the fabric: one NIC per host, a leaf port per
    /// host and per spine, a spine port per leaf (`2·H + 2·L·S`). In `u64`,
    /// so it is exact for any shape `validate` has to reject.
    pub fn n_ports(&self) -> u64 {
        let (l, s, hpl) = (
            self.n_leaves as u64,
            self.n_spines as u64,
            self.hosts_per_leaf as u64,
        );
        2 * l * hpl + 2 * l * s
    }

    /// Aggregate leaf→spine capacity, the "network core" loads are
    /// expressed against.
    pub fn core_bits_per_sec(&self) -> f64 {
        let mut total = 0.0;
        for l in 0..self.n_leaves {
            for s in 0..self.n_spines {
                total += self.uplink_rate_bps(l, s) as f64;
            }
        }
        total
    }

    pub fn uplink_rate_bps(&self, leaf: u32, spine: u32) -> u64 {
        if self.degraded_links.contains(&(leaf, spine)) {
            self.degraded_rate_bps
        } else {
            self.link_rate_bps
        }
    }

    /// Uncongested one-way host→host latency across the core, in ps:
    /// 4 links of propagation plus serialization of one MTU at each hop.
    pub fn base_one_way_ps(&self, mtu_wire_bytes: u64) -> u64 {
        let ser = rlb_engine::tx_delay(mtu_wire_bytes, self.link_rate_bps);
        (rlb_engine::SimDuration::from_ps(self.link_delay_ps) + ser)
            .mul_u64(4)
            .as_ps()
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.n_leaves < 2 {
            return Err("need at least 2 leaves".into());
        }
        if self.n_spines < 1 || self.hosts_per_leaf < 1 {
            return Err("need at least 1 spine and 1 host per leaf".into());
        }
        if self.link_rate_bps == 0 || self.host_link_rate_bps == 0 {
            return Err("link rates must be positive".into());
        }
        // A packet names its spine in a `u8` whose top value is the
        // `NO_PATH` sentinel.
        if self.n_spines > MAX_SPINES {
            return Err(format!(
                "{} spines exceed the limit of {MAX_SPINES} (packets carry the spine in one byte)",
                self.n_spines
            ));
        }
        // Event tie keys give the entity rank 16 bits: 2 reserved ranks
        // plus one per host, leaf and spine.
        let entities = self.n_leaves as u64 * self.hosts_per_leaf as u64
            + self.n_leaves as u64
            + self.n_spines as u64;
        if entities > MAX_ENTITIES {
            return Err(format!(
                "{entities} hosts + leaves + spines exceed the limit of {MAX_ENTITIES} \
                 (event keys rank entities in 16 bits)"
            ));
        }
        if self.n_ports() > MAX_PORTS {
            return Err(format!(
                "{} ports exceed the limit of {MAX_PORTS} (events name a port in 16 bits)",
                self.n_ports()
            ));
        }
        for &(l, s) in &self.degraded_links {
            if l >= self.n_leaves || s >= self.n_spines {
                return Err(format!("degraded link ({l},{s}) out of range"));
            }
        }
        Ok(())
    }
}

/// ECN marking at egress queues (DCQCN's congestion point).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EcnConfig {
    pub kmin_bytes: u64,
    pub kmax_bytes: u64,
    pub pmax: f64,
}

impl Default for EcnConfig {
    fn default() -> Self {
        // DCQCN's 40 Gbps defaults (Zhu et al. 2015): marking starts early
        // but gently, so bursts outrun ECN and PFC still engages — the
        // regime the paper studies.
        EcnConfig {
            kmin_bytes: 5_000,
            kmax_bytes: 200_000,
            pmax: 0.01,
        }
    }
}

/// Shared-buffer PFC switch parameters (Fig. 1's architecture).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// Shared memory pool. Paper: 9 MB.
    pub buffer_bytes: u64,
    /// Per-ingress-port PFC PAUSE threshold. Paper: 256 KB.
    pub pfc_threshold_bytes: u64,
    /// RESUME fires once the ingress counter falls below
    /// `pfc_threshold_bytes - pfc_hysteresis_bytes`.
    pub pfc_hysteresis_bytes: u64,
    /// Enable PFC at all (Fig. 3 contrasts with/without).
    pub pfc_enabled: bool,
    pub ecn: EcnConfig,
    /// Dynamic-threshold buffer management: a data packet is tail-dropped
    /// when its egress queue exceeds `dt_alpha × remaining free pool`.
    /// Prevents one hot egress from starving the whole shared memory — the
    /// standard Broadcom-style DT policy. Mostly relevant with PFC off.
    pub dt_alpha: f64,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            buffer_bytes: 9_000_000,
            pfc_threshold_bytes: 256 * 1024,
            pfc_hysteresis_bytes: 2 * 1048,
            pfc_enabled: true,
            ecn: EcnConfig::default(),
            dt_alpha: 4.0,
        }
    }
}

/// Host / NIC transport parameters.
#[derive(Debug, Clone, Serialize)]
pub struct TransportConfig {
    pub dcqcn: DcqcnConfig,
    /// Reliable-delivery scheme at the NICs (go-back-N is the paper's
    /// lossless baseline; selective repeat models IRN from §5).
    pub mode: crate::host::TransportMode,
    /// Go-back-N retransmission timeout.
    pub rto_ps: u64,
    /// Data payload per packet.
    pub mtu_bytes: u32,
    /// Link-layer + transport header overhead per data packet.
    pub hdr_bytes: u32,
    /// Wire size of control packets (ACK/NAK/CNP/CNM).
    pub ctrl_bytes: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            dcqcn: DcqcnConfig::default(),
            mode: crate::host::TransportMode::GoBackN,
            rto_ps: 400_000_000, // 400 µs ≫ base RTT (~20 µs)
            mtu_bytes: 1000,
            hdr_bytes: 48,
            ctrl_bytes: 64,
        }
    }
}

/// Everything one simulation run needs.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    pub topo: TopoConfig,
    pub switch: SwitchConfig,
    pub transport: TransportConfig,
    /// The load-balancing scheme deployed at the leaves.
    pub scheme: Scheme,
    /// `Some` = the scheme is RLB-enhanced (predictor + Algorithm 1).
    pub rlb: Option<RlbConfig>,
    pub seed: u64,
    /// Hard stop: the simulation ends at this time even with flows open.
    pub hard_stop: SimTime,
    /// Optional periodic fabric snapshots (see [`crate::monitor`]).
    pub monitor: Option<crate::monitor::MonitorConfig>,
    /// Flow ids to trace packet-by-packet (see [`crate::trace`]).
    pub trace_flows: Vec<u32>,
    /// Run the fabric invariant sweep every N processed events (0 = only at
    /// drain). Only consulted when the crate is built with the `audit`
    /// feature; the field always exists so configs stay feature-independent.
    pub audit_every_events: u64,
    /// Ordered fault timeline: each entry is scheduled as an ordinary wheel
    /// event at construction (see [`crate::fault`]). Empty = healthy fabric.
    pub faults: Vec<crate::fault::TimedFault>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            topo: TopoConfig::default(),
            switch: SwitchConfig::default(),
            transport: TransportConfig::default(),
            scheme: Scheme::Drill,
            rlb: None,
            seed: 1,
            hard_stop: SimTime::from_ms(200),
            monitor: None,
            trace_flows: Vec::new(),
            audit_every_events: 4096,
            faults: Vec::new(),
        }
    }
}

impl SimConfig {
    pub fn validate(&self) -> Result<(), String> {
        self.topo.validate()?;
        if let Some(rlb) = &self.rlb {
            rlb.validate()?;
        }
        if self.switch.pfc_threshold_bytes == 0 && self.switch.pfc_enabled {
            return Err("PFC enabled with zero threshold".into());
        }
        if self.switch.pfc_hysteresis_bytes >= self.switch.pfc_threshold_bytes {
            return Err("hysteresis must be below the PFC threshold".into());
        }
        if self.transport.mtu_bytes == 0 {
            return Err("mtu must be positive".into());
        }
        if self.switch.ecn.kmin_bytes > self.switch.ecn.kmax_bytes {
            return Err("ECN kmin above kmax".into());
        }
        let t = &self.transport;
        let frames = [
            ("MTU plus header", t.mtu_bytes as u64 + t.hdr_bytes as u64),
            ("control frame", t.ctrl_bytes as u64),
        ];
        for (what, bytes) in frames {
            if bytes > MAX_FRAME_BYTES {
                return Err(format!(
                    "{what} of {bytes} bytes exceeds the limit of {MAX_FRAME_BYTES} \
                     (packets carry their size in 16 bits)"
                ));
            }
        }
        crate::fault::validate_timeline(&self.faults, &self.topo)?;
        Ok(())
    }

    /// Wire size of a full data packet.
    pub fn mtu_wire_bytes(&self) -> u32 {
        self.transport.mtu_bytes + self.transport.hdr_bytes
    }

    pub fn link_delay(&self) -> SimDuration {
        SimDuration(self.topo.link_delay_ps)
    }

    /// Display label like "DRILL+RLB" / "DRILL".
    pub fn label(&self) -> String {
        match &self.rlb {
            Some(_) => format!("{}+RLB", self.scheme.name()),
            None => self.scheme.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate().unwrap();
        let c = SimConfig {
            rlb: Some(RlbConfig::default()),
            ..SimConfig::default()
        };
        c.validate().unwrap();
    }

    #[test]
    fn paper_scale_matches_evaluation_section() {
        let t = TopoConfig::paper_scale();
        assert_eq!((t.n_leaves, t.n_spines, t.hosts_per_leaf), (12, 12, 24));
        assert_eq!(t.n_hosts(), 288);
        assert_eq!(t.link_rate_bps, 40_000_000_000);
        assert_eq!(t.link_delay_ps, 2_000_000);
    }

    #[test]
    fn degraded_links_change_rate_and_core_capacity() {
        let mut t = TopoConfig::default();
        let full = t.core_bits_per_sec();
        t.degraded_links.push((0, 0));
        assert_eq!(t.uplink_rate_bps(0, 0), 10_000_000_000);
        assert_eq!(t.uplink_rate_bps(0, 1), 40_000_000_000);
        assert!(t.core_bits_per_sec() < full);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let t = TopoConfig {
            n_leaves: 1,
            ..TopoConfig::default()
        };
        assert!(t.validate().is_err());
        let mut t = TopoConfig::default();
        t.degraded_links.push((99, 0));
        assert!(t.validate().is_err());
        let mut c = SimConfig::default();
        c.switch.pfc_hysteresis_bytes = c.switch.pfc_threshold_bytes;
        assert!(c.validate().is_err());
    }

    /// Spine 255 would alias `NO_PATH` in `Packet::path`, spine 256 wrap
    /// to 0: a wrong route, silently.
    #[test]
    fn validation_rejects_spines_the_path_byte_cannot_name() {
        let with_spines = |n_spines| TopoConfig {
            n_spines,
            ..TopoConfig::default()
        };
        with_spines(255)
            .validate()
            .expect("spine 254 is the last nameable one");
        let e = with_spines(256)
            .validate()
            .expect_err("spine 255 is NO_PATH");
        assert!(e.contains("limit of 255"), "{e}");
    }

    /// 2 + hosts + leaves + spines must fit the 16-bit rank of the event
    /// key; past it `Simulation::new` used to die on an `assert!`.
    #[test]
    fn validation_rejects_fabrics_beyond_the_rank_space() {
        let fabric = |n_leaves, hosts_per_leaf| TopoConfig {
            n_leaves,
            hosts_per_leaf,
            n_spines: 1,
            ..TopoConfig::default()
        };
        // 2 + 255·256 + 255 + 1 = 65 538 entities: the rank space is the
        // first limit named.
        let e = fabric(255, 256).validate().expect_err("65 536 entities");
        assert!(e.contains("65536") && e.contains("limit of 65533"), "{e}");
        // The product alone overflows `u32`: still a diagnostic.
        assert!(fabric(1 << 20, 1 << 20).validate().is_err());
    }

    /// Every port needs a 16-bit `PortId`: `2·H + 2·L·S` ports. A
    /// 65 536-port fabric is a message, not a panic; 65 534 (ports come in
    /// pairs) fits.
    #[test]
    fn validation_rejects_fabrics_beyond_the_port_space() {
        let fabric = |n_leaves, hosts_per_leaf| TopoConfig {
            n_leaves,
            hosts_per_leaf,
            n_spines: 1,
            ..TopoConfig::default()
        };
        let fits = fabric(7, 4_680);
        assert_eq!(fits.n_ports(), 65_534);
        fits.validate().expect("inside the port space");
        let over = fabric(2, 16_383);
        assert_eq!(over.n_ports(), 65_536);
        let e = over.validate().expect_err("65 536 ports");
        assert!(e.contains("65536 ports exceed the limit of 65535"), "{e}");
        Topology::new(fits);
    }

    /// A packet carries its size in 16 bits: a 65 536-byte data or control
    /// frame is a message, not a panic.
    #[test]
    fn validation_rejects_frames_beyond_16_bits() {
        let mut c = SimConfig::default();
        c.transport.mtu_bytes = 65_535 - c.transport.hdr_bytes;
        c.validate().expect("the largest frame fits");
        c.transport.mtu_bytes += 1;
        let e = c.validate().expect_err("65 536-byte data frame");
        assert!(e.contains("MTU plus header of 65536 bytes"), "{e}");
        let mut c = SimConfig::default();
        c.transport.ctrl_bytes = 65_536;
        let e = c.validate().expect_err("65 536-byte control frame");
        assert!(e.contains("control frame of 65536 bytes"), "{e}");
        // The sum is taken wide: it cannot wrap back under the limit.
        c.transport.ctrl_bytes = 64;
        c.transport.mtu_bytes = u32::MAX;
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels() {
        let mut c = SimConfig::default();
        assert_eq!(c.label(), "DRILL");
        c.rlb = Some(RlbConfig::default());
        assert_eq!(c.label(), "DRILL+RLB");
    }

    #[test]
    fn base_one_way_delay() {
        let t = TopoConfig::default();
        // 4 hops × (2 µs + 1048B × 0.2 ns/B = 209.6 ns) ≈ 8.84 µs
        let d = t.base_one_way_ps(1048);
        assert_eq!(d, 4 * (2_000_000 + 209_600));
    }
}
