//! The shared-memory PFC switch (Fig. 1), and the one transmitter every
//! node has.
//!
//! Each switch owns a shared buffer pool; every buffered data packet is
//! charged against the counter of the ingress port it arrived on. When a
//! counter crosses the PFC threshold the MMU emits PAUSE to that port's
//! upstream peer; when it drains below threshold−hysteresis it emits
//! RESUME. Egress is per-port FIFO with a strict-priority control queue on
//! top (control frames are never paused, marked or counted — the standard
//! lossless-fabric arrangement that keeps ACK/CNP/CNM flowing).
//!
//! [`EgressPort`] is that egress, and it is also the host NIC
//! (`Host::nic`): the paper's one kind of PFC-paused sender, whose data
//! class stops on PAUSE while control keeps flowing. A switch port takes
//! its data from `data_q`; a NIC pulls it from its flows instead.
//!
//! This module holds the switch *state* and its local rules; the event
//! orchestration (scheduling arrivals, transmissions, predictor samples)
//! lives in [`crate::sim`].

use crate::config::SwitchConfig;
use crate::packet::Packet;
use rand::Rng;
use rlb_core::{ContributorTable, PfcPredictor, Rlb, WarningTable};
use rlb_engine::{PacketArena, PacketHandle, SimRng};
use std::collections::VecDeque;

/// A serialization end whose completion event was never scheduled (DESIGN
/// §9.7): the `EgressDone` it stands for — at a switch port or a NIC —
/// would fire at `done_ps` under the canonical `key` the launch reserved
/// for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reserved {
    pub done_ps: u64,
    pub key: u128,
}

impl Reserved {
    /// Whether the completion still lies ahead of the event being
    /// dispatched at `cursor = (now_ps, its key)`: the order in which the
    /// wheel would have popped the two.
    #[inline]
    pub fn pending_at(self, cursor: (u64, u128)) -> bool {
        (self.done_ps, self.key) > cursor
    }
}

/// The buffer release of an elided data completion, applied by the first
/// reader of the buffer counters after it falls due (`Switch::settle`).
#[derive(Debug, Clone, Copy)]
struct DeferredRelease {
    at: Reserved,
    ingress: u16,
    bytes: u32,
    /// The egress port whose completion carries it.
    port: u16,
}

/// One egress port: data FIFO + strict-priority control FIFO. A host NIC
/// is one too, with `data_q` always empty: its data comes from its flows.
///
/// The FIFOs hold [`PacketHandle`]s into the simulation's [`PacketArena`];
/// the packets themselves sit still in the arena from enqueue to dequeue.
/// Byte accounting reads the arena's SoA size column, never the cold
/// payload.
#[derive(Debug, Default)]
pub struct EgressPort {
    pub data_q: VecDeque<PacketHandle>,
    pub ctrl_q: VecDeque<PacketHandle>,
    pub data_q_bytes: u64,
    /// Queue generation: bumped whenever a data packet enters or leaves
    /// this port's FIFO or its pause state toggles — exactly the
    /// port-local changes a cached `PathInfo` snapshot depends on. The
    /// path-snapshot cache compares these per spine, so activity on one
    /// uplink no longer invalidates its siblings (see
    /// `Simulation::assemble_paths`).
    pub q_gen: u64,
    /// A frame is serializing out of this port and its `EgressDone` is in
    /// the event queue.
    pub busy: bool,
    /// The last frame launched here finishes at this reserved completion,
    /// which was not scheduled because nothing waited behind it.
    pub reserved: Option<Reserved>,
    /// Data class paused by a downstream PFC PAUSE.
    pub paused: bool,
    /// When the current pause began (for paused-time accounting).
    pub paused_since_ps: u64,
    /// Rate of the attached channel, bits/sec.
    pub rate_bps: u64,
    /// The attached link is failed (fault injection). Unlike `paused`, this
    /// blocks *both* traffic classes — a dead wire carries no PFC frames
    /// either. Queued packets freeze in place until recovery.
    pub link_down: bool,
}

impl EgressPort {
    /// True when the data class cannot leave this port right now, whether
    /// throttled (PFC) or physically dead (fault). This is the signal
    /// surfaced as `PathInfo::paused` in path snapshots.
    pub fn data_blocked(&self) -> bool {
        self.paused || self.link_down
    }

    /// A frame is still serializing at `cursor`: its completion is
    /// scheduled, or reserved and not yet passed.
    #[inline]
    pub fn busy_at(&self, cursor: (u64, u128)) -> bool {
        self.busy || self.reserved.is_some_and(|r| r.pending_at(cursor))
    }

    /// No frame waits in either class queue.
    #[inline]
    pub fn queues_empty(&self) -> bool {
        self.ctrl_q.is_empty() && self.data_q.is_empty()
    }

    /// Park the packet in the arena and enqueue its handle on the proper
    /// class queue. `now_ps` stamps the arena's enqueue-time hot column.
    pub fn enqueue(&mut self, arena: &mut PacketArena<Packet>, pkt: Packet, now_ps: u64) {
        let control = pkt.kind.is_control();
        let size = pkt.size_bytes;
        let h = arena.alloc(size, pkt.flow, control, now_ps, pkt);
        if control {
            self.ctrl_q.push_back(h);
        } else {
            self.data_q_bytes += size as u64;
            self.data_q.push_back(h);
            self.q_gen = self.q_gen.wrapping_add(1);
        }
    }

    /// Pick the next queued frame eligible for transmission, honouring
    /// strict control priority and data-class pausing, and take it out of
    /// the arena. Returns `None` when nothing queued may leave now.
    pub fn next_to_transmit(&mut self, arena: &mut PacketArena<Packet>) -> Option<Packet> {
        debug_assert!(!self.busy);
        if self.link_down {
            return None;
        }
        if let Some(h) = self.ctrl_q.pop_front() {
            return Some(arena.free(h));
        }
        if self.paused {
            return None;
        }
        let h = self.data_q.pop_front()?;
        let (pkt, size) = arena.free_sized(h);
        self.data_q_bytes -= size as u64;
        self.q_gen = self.q_gen.wrapping_add(1);
        Some(pkt)
    }

    /// A PAUSE (`pause`) or RESUME frame takes effect at `now_ps`; `false`
    /// when the data class already stood so.
    pub(crate) fn set_paused(&mut self, pause: bool, now_ps: u64) -> bool {
        if self.paused == pause {
            return false;
        }
        self.paused = pause;
        self.q_gen = self.q_gen.wrapping_add(1);
        if pause {
            self.paused_since_ps = now_ps;
        }
        true
    }

    /// Whether a packet of the given class arriving during the event at
    /// `cursor` would be handed straight back by [`enqueue`](Self::enqueue)
    /// followed by [`next_to_transmit`](Self::next_to_transmit): port idle,
    /// link up, no control frame queued ahead of it, and — for data — the
    /// class not paused and the data FIFO empty. The simulator's hot path
    /// uses this to skip the arena alloc/free round trip entirely on quiet
    /// ports, which is the dominant case at moderate load.
    #[inline]
    pub fn pass_through(&self, control: bool, cursor: (u64, u128)) -> bool {
        !self.busy_at(cursor)
            && !self.link_down
            && self.ctrl_q.is_empty()
            && (control || (!self.paused && self.data_q.is_empty()))
    }
}

/// Per-leaf load-balancing state: the deployed scheme (optionally wrapped
/// in RLB), the warning table fed by CNMs, and the per-path RTT/ECN
/// estimators the schemes and Algorithm 1 read.
pub struct LeafState {
    pub lb: LbInstance,
    pub warnings: WarningTable,
    /// EWMA RTT estimate, ns, indexed `[spine * n_leaves + dst_leaf]`.
    pub rtt_ns: Vec<f64>,
    /// EWMA ECN-mark fraction, same indexing.
    pub ecn_frac: Vec<f64>,
    /// Per-(spine, dst_leaf) signal generation: bumped whenever an
    /// estimator sample or a path-granular warning could change that one
    /// path's warned/rtt/ecn fields. Indexed `[spine * n_leaves +
    /// dst_leaf]`. Read by the simulator's path-snapshot cache, which
    /// compares these per spine so an ACK for one destination no longer
    /// invalidates snapshots toward every other.
    path_sig_gens: Vec<u64>,
    /// Per-spine generation for uplink-granularity warnings (those
    /// endanger every destination through the spine, so they get their own
    /// axis instead of fanning out over all `path_sig_gens`).
    uplink_sig_gens: Vec<u64>,
    n_leaves: usize,
}

/// A leaf either runs a vanilla scheme or the RLB-wrapped version.
pub enum LbInstance {
    Vanilla(Box<dyn rlb_lb::LoadBalancer>),
    Rlb(Rlb<dyn rlb_lb::LoadBalancer>),
}

impl LbInstance {
    pub fn on_flow_complete(&mut self, flow_id: u64) {
        match self {
            LbInstance::Vanilla(lb) => lb.on_flow_complete(flow_id),
            LbInstance::Rlb(rlb) => rlb.on_flow_complete(flow_id),
        }
    }
}

impl LeafState {
    pub fn new(lb: LbInstance, n_spines: usize, n_leaves: usize, base_rtt_ns: f64) -> LeafState {
        LeafState {
            lb,
            warnings: WarningTable::new(n_spines, n_leaves),
            rtt_ns: vec![base_rtt_ns; n_spines * n_leaves],
            ecn_frac: vec![0.0; n_spines * n_leaves],
            path_sig_gens: vec![0; n_spines * n_leaves],
            uplink_sig_gens: vec![0; n_spines],
            n_leaves,
        }
    }

    #[inline]
    fn idx(&self, spine: usize, dst_leaf: usize) -> usize {
        spine * self.n_leaves + dst_leaf
    }

    /// Fold a returning ACK's RTT sample and CE echo into the estimators.
    ///
    /// The gain is deliberately small: Algorithm 1 compares path delays
    /// against the recirculation cost, so the estimate must track the
    /// *persistent* queueing difference between paths, not per-packet
    /// jitter.
    pub fn observe(&mut self, spine: usize, dst_leaf: usize, rtt_ns: f64, ecn: bool) {
        const A: f64 = 0.1; // EWMA gain
        let i = self.idx(spine, dst_leaf);
        self.rtt_ns[i] = (1.0 - A) * self.rtt_ns[i] + A * rtt_ns;
        self.ecn_frac[i] = (1.0 - A) * self.ecn_frac[i] + A * if ecn { 1.0 } else { 0.0 };
        self.path_sig_gens[i] = self.path_sig_gens[i].wrapping_add(1);
    }

    /// Warn the (spine, dst_leaf) path until `until_ps`; cached snapshots
    /// of that one path re-probe the warning table.
    pub(crate) fn warn_path(&mut self, spine: usize, dst_leaf: usize, until_ps: u64) {
        self.warnings.warn_path(spine, dst_leaf, until_ps);
        let i = self.idx(spine, dst_leaf);
        self.path_sig_gens[i] = self.path_sig_gens[i].wrapping_add(1);
    }

    /// Warn every destination through `spine` until `until_ps`.
    pub(crate) fn warn_uplink(&mut self, spine: usize, until_ps: u64) {
        self.warnings.warn_uplink(spine, until_ps);
        self.uplink_sig_gens[spine] = self.uplink_sig_gens[spine].wrapping_add(1);
    }

    /// Current path-granular signal generation for (spine, dst_leaf).
    #[inline]
    pub fn path_sig_gen(&self, spine: usize, dst_leaf: usize) -> u64 {
        self.path_sig_gens[self.idx(spine, dst_leaf)]
    }

    /// Current uplink-granular signal generation for `spine`.
    #[inline]
    pub fn uplink_sig_gen(&self, spine: usize) -> u64 {
        self.uplink_sig_gens[spine]
    }

    pub fn rtt(&self, spine: usize, dst_leaf: usize) -> f64 {
        self.rtt_ns[self.idx(spine, dst_leaf)]
    }

    pub fn ecn(&self, spine: usize, dst_leaf: usize) -> f64 {
        self.ecn_frac[self.idx(spine, dst_leaf)]
    }
}

/// Shared-buffer admission failure: the pool is full, the packet is
/// tail-dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferOverflow;

impl std::fmt::Display for BufferOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shared buffer overflow: packet tail-dropped")
    }
}

impl std::error::Error for BufferOverflow {}

/// Instructions a switch-local operation hands back to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcAction {
    None,
    /// Counter crossed the threshold upward: PAUSE the upstream of `port`.
    SendPause(u16),
    /// Counter drained: RESUME the upstream of `port`.
    SendResume(u16),
}

/// One switch (leaf or spine).
pub struct Switch {
    pub egress: Vec<EgressPort>,
    /// PFC byte counter per ingress port (data class only).
    pub ingress_bytes: Vec<u64>,
    /// We have PAUSEd the upstream of this ingress port.
    pub paused_upstream: Vec<bool>,
    pub shared_used: u64,
    /// Releases of elided data completions not yet applied to
    /// `ingress_bytes` / `shared_used`; every reader of those two settles
    /// first (`settle`).
    deferred: Vec<DeferredRelease>,
    /// No entry of `deferred` falls due before this instant (a lower
    /// bound; `u64::MAX` when it is empty).
    deferred_due_ps: u64,
    /// RLB predictor per ingress port (present iff RLB runs in this fabric).
    pub predictors: Vec<PfcPredictor>,
    /// This ingress port participates in the Δt sampling tick.
    pub sampler_active: Vec<bool>,
    /// A per-switch `PredictorTick` event is currently scheduled; it
    /// samples every `sampler_active` port in one dispatch.
    pub sampler_tick_armed: bool,
    /// Who recently fed each egress port (CNM relay targeting).
    pub contributors: ContributorTable,
    cfg: SwitchConfig,
    rng: SimRng,
}

impl Switch {
    pub fn new(
        n_ports: usize,
        cfg: SwitchConfig,
        port_rates: Vec<u64>,
        contributor_window_ps: u64,
        rng: SimRng,
    ) -> Switch {
        assert_eq!(port_rates.len(), n_ports);
        Switch {
            egress: port_rates
                .into_iter()
                .map(|rate_bps| EgressPort {
                    rate_bps,
                    ..EgressPort::default()
                })
                .collect(),
            ingress_bytes: vec![0; n_ports],
            paused_upstream: vec![false; n_ports],
            shared_used: 0,
            deferred: Vec::new(),
            deferred_due_ps: u64::MAX,
            predictors: Vec::new(),
            sampler_active: vec![false; n_ports],
            sampler_tick_armed: false,
            contributors: ContributorTable::new(n_ports, contributor_window_ps),
            cfg,
            rng,
        }
    }

    pub fn n_ports(&self) -> usize {
        self.egress.len()
    }

    /// Admit an arriving data packet into the shared buffer, charging its
    /// ingress port. Returns [`BufferOverflow`] on a tail drop, otherwise
    /// the PFC action the MMU demands.
    pub fn admit_data(&mut self, in_port: u16, bytes: u32) -> Result<PfcAction, BufferOverflow> {
        if self.shared_used + bytes as u64 > self.cfg.buffer_bytes {
            return Err(BufferOverflow);
        }
        self.shared_used += bytes as u64;
        let c = &mut self.ingress_bytes[in_port as usize];
        *c += bytes as u64;
        if self.cfg.pfc_enabled
            && !self.paused_upstream[in_port as usize]
            && *c >= self.cfg.pfc_threshold_bytes
        {
            self.paused_upstream[in_port as usize] = true;
            return Ok(PfcAction::SendPause(in_port));
        }
        Ok(PfcAction::None)
    }

    /// Release a departing data packet's buffer share; may trigger RESUME.
    pub fn release_data(&mut self, ingress_port: u16, bytes: u32) -> PfcAction {
        let c = &mut self.ingress_bytes[ingress_port as usize];
        debug_assert!(*c >= bytes as u64, "ingress counter underflow");
        *c = c.saturating_sub(bytes as u64);
        debug_assert!(self.shared_used >= bytes as u64);
        self.shared_used = self.shared_used.saturating_sub(bytes as u64);
        let resume_at = self
            .cfg
            .pfc_threshold_bytes
            .saturating_sub(self.cfg.pfc_hysteresis_bytes);
        if self.paused_upstream[ingress_port as usize] && *c < resume_at {
            self.paused_upstream[ingress_port as usize] = false;
            PfcAction::SendResume(ingress_port)
        } else {
            PfcAction::None
        }
    }

    /// Defer the buffer release of a data frame leaving on `port` to its
    /// unscheduled completion `at`. The caller guarantees the release
    /// cannot send a RESUME: its ingress is not paused, and a PAUSE for it
    /// reclaims the release before it falls due.
    pub fn defer_release(&mut self, at: Reserved, port: u16, ingress: u16, bytes: u32) {
        debug_assert!(!self.paused_upstream[ingress as usize]);
        self.deferred_due_ps = self.deferred_due_ps.min(at.done_ps);
        self.deferred.push(DeferredRelease {
            at,
            ingress,
            bytes,
            port,
        });
    }

    /// Apply every deferred release whose completion precedes the event at
    /// `cursor`, as that completion would have when it fired. One compare
    /// while nothing is due.
    #[inline]
    pub fn settle(&mut self, cursor: (u64, u128)) {
        if cursor.0 >= self.deferred_due_ps {
            self.settle_due(cursor);
        }
    }

    fn settle_due(&mut self, cursor: (u64, u128)) {
        let mut due = u64::MAX;
        let mut i = 0;
        while i < self.deferred.len() {
            let r = self.deferred[i];
            if r.at.pending_at(cursor) {
                due = due.min(r.at.done_ps);
                i += 1;
            } else {
                // Releases commute, so the order within one settle is free.
                self.deferred.swap_remove(i);
                let action = self.release_data(r.ingress, r.bytes);
                debug_assert_eq!(action, PfcAction::None, "a deferred release resumed");
            }
        }
        self.deferred_due_ps = due;
    }

    /// Take back the deferred release of the completion keyed `key`, which
    /// is being scheduled after all and will release for itself.
    pub fn reclaim_release(&mut self, key: u128) -> Option<(u16, u32)> {
        let i = self.deferred.iter().position(|r| r.at.key == key)?;
        let r = self.deferred.swap_remove(i);
        Some((r.ingress, r.bytes))
    }

    /// An egress port with a deferred release charged to `ingress`.
    pub fn port_charged_to(&self, ingress: u16) -> Option<u16> {
        self.deferred
            .iter()
            .find(|r| r.ingress == ingress)
            .map(|r| r.port)
    }

    /// Dynamic-threshold egress admission: drop when this egress queue
    /// already holds more than `dt_alpha ×` the remaining free pool.
    pub fn dt_exceeded(&self, port: u16) -> bool {
        let free = self.cfg.buffer_bytes.saturating_sub(self.shared_used) as f64;
        self.egress[port as usize].data_q_bytes as f64 > self.cfg.dt_alpha * free
    }

    /// RED/ECN mark decision for a data packet entering `port`'s queue.
    pub fn ecn_mark(&mut self, port: u16) -> bool {
        let q = self.egress[port as usize].data_q_bytes;
        let e = &self.cfg.ecn;
        let p = if q <= e.kmin_bytes {
            0.0
        } else if q >= e.kmax_bytes {
            1.0
        } else {
            e.pmax * (q - e.kmin_bytes) as f64 / (e.kmax_bytes - e.kmin_bytes) as f64
        };
        p > 0.0 && self.rng.gen_bool(p.min(1.0))
    }

    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }
}

#[cfg(test)]
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use rlb_engine::substream;

    fn sw() -> Switch {
        let cfg = SwitchConfig {
            buffer_bytes: 10_000,
            pfc_threshold_bytes: 4_000,
            pfc_hysteresis_bytes: 1_000,
            pfc_enabled: true,
            ..SwitchConfig::default()
        };
        Switch::new(4, cfg, vec![40_000_000_000; 4], 10_000_000, substream(1, b"sw", 0))
    }

    fn data(bytes: u32) -> Packet {
        Packet::data(0, 0, bytes, 0, 1, 0)
    }

    #[test]
    fn pause_fires_once_at_threshold_and_resume_below_hysteresis() {
        let mut s = sw();
        assert_eq!(s.admit_data(2, 3_000).unwrap(), PfcAction::None);
        assert_eq!(s.admit_data(2, 1_000).unwrap(), PfcAction::SendPause(2));
        // Further arrivals do not re-pause.
        assert_eq!(s.admit_data(2, 1_000).unwrap(), PfcAction::None);
        // Drain: resume only below threshold − hysteresis = 3 000.
        assert_eq!(s.release_data(2, 1_000), PfcAction::None); // 4 000 left
        assert_eq!(s.release_data(2, 1_000), PfcAction::None); // 3 000 left (not < 3 000)
        assert_eq!(s.release_data(2, 1_000), PfcAction::SendResume(2)); // 2 000
        assert!(!s.paused_upstream[2]);
    }

    #[test]
    fn counters_are_per_ingress_port() {
        let mut s = sw();
        s.admit_data(0, 3_900).unwrap();
        assert_eq!(s.admit_data(1, 3_900).unwrap(), PfcAction::None);
        assert_eq!(s.admit_data(0, 200).unwrap(), PfcAction::SendPause(0));
        assert_eq!(s.ingress_bytes[0], 4_100);
        assert_eq!(s.ingress_bytes[1], 3_900);
    }

    #[test]
    fn pfc_disabled_never_pauses() {
        let mut s = sw();
        s.cfg.pfc_enabled = false;
        for _ in 0..3 {
            assert_eq!(s.admit_data(0, 3_000).unwrap(), PfcAction::None);
        }
    }

    #[test]
    fn buffer_overflow_drops() {
        let mut s = sw();
        s.cfg.pfc_enabled = false;
        assert!(s.admit_data(0, 9_000).is_ok());
        assert_eq!(s.admit_data(1, 2_000), Err(BufferOverflow));
        assert_eq!(s.shared_used, 9_000, "dropped packet not charged");
    }

    #[test]
    fn control_has_strict_priority_and_ignores_pause() {
        let mut s = sw();
        let mut arena: PacketArena<Packet> = PacketArena::new();
        s.egress[0].enqueue(&mut arena, data(1_000), 0);
        let mut cnp = Packet::data(0, 0, 64, 1, 0, 0);
        cnp.kind = PacketKind::Cnp;
        s.egress[0].enqueue(&mut arena, cnp, 0);
        assert_eq!(arena.len(), 2, "both frames parked in the arena");
        // Paused port: control still flows, data does not.
        s.egress[0].paused = true;
        let first = s.egress[0].next_to_transmit(&mut arena).unwrap();
        assert_eq!(first.kind, PacketKind::Cnp);
        assert!(
            s.egress[0].next_to_transmit(&mut arena).is_none(),
            "data must wait out the pause"
        );
        s.egress[0].paused = false;
        assert_eq!(
            s.egress[0].next_to_transmit(&mut arena).unwrap().kind,
            PacketKind::Data
        );
        assert_eq!(s.egress[0].data_q_bytes, 0);
        assert!(arena.is_empty(), "dequeued frames leave the arena");
    }

    #[test]
    fn queue_generation_tracks_data_plane_only() {
        let mut s = sw();
        let mut arena: PacketArena<Packet> = PacketArena::new();
        let g0 = s.egress[0].q_gen;
        let mut cnp = Packet::data(0, 0, 64, 1, 0, 0);
        cnp.kind = PacketKind::Cnp;
        s.egress[0].enqueue(&mut arena, cnp, 0);
        assert_eq!(s.egress[0].q_gen, g0, "control traffic is invisible to snapshots");
        s.egress[0].enqueue(&mut arena, data(1_000), 0);
        assert_eq!(s.egress[0].q_gen, g0 + 1);
        s.egress[1].enqueue(&mut arena, data(1_000), 0);
        assert_eq!(s.egress[0].q_gen, g0 + 1, "sibling port activity stays per-port");
        let _ = s.egress[0].next_to_transmit(&mut arena); // pops the CNP (control)
        assert_eq!(s.egress[0].q_gen, g0 + 1);
        let _ = s.egress[0].next_to_transmit(&mut arena); // pops the data frame
        assert_eq!(s.egress[0].q_gen, g0 + 2);
    }

    #[test]
    fn pause_toggles_bump_the_queue_generation() {
        let mut s = sw();
        let ep = &mut s.egress[0];
        let g0 = ep.q_gen;
        assert!(ep.set_paused(true, 7));
        assert_eq!((ep.q_gen, ep.paused_since_ps), (g0 + 1, 7));
        assert!(!ep.set_paused(true, 9), "a repeated PAUSE changes nothing");
        assert_eq!((ep.q_gen, ep.paused_since_ps), (g0 + 1, 7));
        assert!(ep.set_paused(false, 12));
        assert_eq!((ep.q_gen, ep.paused_since_ps), (g0 + 2, 7));
        assert!(!ep.paused && !ep.set_paused(false, 13));
        assert_eq!(ep.q_gen, g0 + 2);
    }

    #[test]
    fn ecn_marking_ramps_with_queue_depth() {
        let mut s = sw();
        // Below kmin: never marks.
        assert!(!s.ecn_mark(0));
        // Far above kmax: always marks.
        s.egress[0].data_q_bytes = s.cfg.ecn.kmax_bytes + 1;
        assert!(s.ecn_mark(0));
        // Between: marks sometimes (DCQCN defaults: pmax=1% → ~0.5% at the
        // midpoint of [kmin, kmax]).
        s.egress[0].data_q_bytes = (s.cfg.ecn.kmin_bytes + s.cfg.ecn.kmax_bytes) / 2;
        let marks: usize = (0..100_000).filter(|_| s.ecn_mark(0)).count();
        assert!(marks > 200 && marks < 1_200, "marks={marks}");
    }

    #[test]
    fn leaf_state_estimators_converge() {
        let lb = LbInstance::Vanilla(rlb_lb::build(
            rlb_lb::Scheme::Ecmp,
            1000,
            substream(0, b"t", 0),
        ));
        let mut ls = LeafState::new(lb, 4, 4, 10_000.0);
        assert_eq!(ls.rtt(2, 3), 10_000.0);
        for _ in 0..200 {
            ls.observe(2, 3, 50_000.0, true);
        }
        assert!((ls.rtt(2, 3) - 50_000.0).abs() < 100.0);
        assert!(ls.ecn(2, 3) > 0.95);
        // Other paths untouched.
        assert_eq!(ls.rtt(1, 3), 10_000.0);
        assert_eq!(ls.ecn(2, 2), 0.0);
    }

    /// A warning bumps the one generation its granularity names: the
    /// path's, or the uplink's.
    #[test]
    fn leaf_warnings_bump_exactly_their_generation() {
        let lb = LbInstance::Vanilla(rlb_lb::build(
            rlb_lb::Scheme::Ecmp,
            1000,
            substream(0, b"t", 0),
        ));
        let mut ls = LeafState::new(lb, 3, 4, 10_000.0);
        let gens = |ls: &LeafState| {
            let paths: Vec<u64> = (0..3)
                .flat_map(|s| (0..4).map(move |d| (s, d)))
                .map(|(s, d)| ls.path_sig_gen(s, d))
                .collect();
            let uplinks: Vec<u64> = (0..3).map(|s| ls.uplink_sig_gen(s)).collect();
            (paths, uplinks)
        };
        let (mut paths, mut uplinks) = gens(&ls);
        ls.warn_path(1, 2, 500);
        paths[4 + 2] += 1;
        assert_eq!(gens(&ls), (paths.clone(), uplinks.clone()));
        assert_eq!(ls.warnings.warned_until(1, 2), 500);
        ls.warn_uplink(2, 800);
        uplinks[2] += 1;
        assert_eq!(gens(&ls), (paths, uplinks));
        assert!((0..4).all(|d| ls.warnings.warned_until(2, d) == 800));
    }

    /// Differential: the arena-backed egress plane vs inline-packet queues,
    /// with the real `Packet` type and the real `EgressPort` transmit rules.
    /// Runs under `--features audit` alongside the other differential
    /// reference tests.
    #[cfg(feature = "audit")]
    mod arena_differential {
        use super::*;
        use proptest::prelude::*;
        use rlb_engine::PacketArena;
        use std::collections::VecDeque;

        /// Observable identity of a packet (it doesn't derive `PartialEq`).
        fn sig(p: &Packet) -> (PacketKind, u32, u32, u32, u64) {
            (p.kind, p.flow, p.psn, p.size_bytes, p.sent_ps)
        }

        proptest! {
            /// Random interleavings of data/control enqueues, pause
            /// toggles, and transmissions on a 4-port switch must match a
            /// per-port `VecDeque<Packet>` model: same pop order and
            /// payloads, same `data_q_bytes`, same arena occupancy.
            #[test]
            fn switch_egress_matches_vecdeque_reference(
                ops in proptest::collection::vec((0u8..8, 0u16..4, 1u32..9_000), 1..300)
            ) {
                let mut s = sw();
                let mut arena: PacketArena<Packet> = PacketArena::new();
                let mut data: Vec<VecDeque<Packet>> = vec![VecDeque::new(); 4];
                let mut ctrl: Vec<VecDeque<Packet>> = vec![VecDeque::new(); 4];
                let mut paused = [false; 4];
                let mut seq = 0u32;
                for (kind, port, size) in ops {
                    let p = port as usize;
                    match kind {
                        0..=2 => {
                            let pkt = Packet::data(seq, seq, size, 0, 1, seq as u64 * 13);
                            seq += 1;
                            s.egress[p].enqueue(&mut arena, pkt, pkt.sent_ps);
                            data[p].push_back(pkt);
                        }
                        3 => {
                            let d = Packet::data(seq, seq, size, 0, 1, seq as u64 * 13);
                            let pkt = Packet::response(PacketKind::Ack, &d, seq, 64);
                            seq += 1;
                            s.egress[p].enqueue(&mut arena, pkt, 0);
                            ctrl[p].push_back(pkt);
                        }
                        4 => {
                            paused[p] = !paused[p];
                            s.egress[p].paused = paused[p];
                        }
                        _ => {
                            let want = if let Some(c) = ctrl[p].pop_front() {
                                Some(c)
                            } else if paused[p] {
                                None
                            } else {
                                data[p].pop_front()
                            };
                            let got = s.egress[p].next_to_transmit(&mut arena);
                            prop_assert_eq!(got.as_ref().map(sig), want.as_ref().map(sig));
                        }
                    }
                    for (q, model_q) in data.iter().enumerate() {
                        let model_bytes: u64 =
                            model_q.iter().map(|x| x.size_bytes as u64).sum();
                        prop_assert_eq!(s.egress[q].data_q_bytes, model_bytes);
                    }
                    let queued: usize =
                        data.iter().chain(ctrl.iter()).map(|q| q.len()).sum();
                    prop_assert_eq!(arena.len(), queued);
                }
                // Unpause everything and drain: the full remaining order
                // must match port by port.
                for q in 0..4 {
                    s.egress[q].paused = false;
                    loop {
                        let want = ctrl[q].pop_front().or_else(|| data[q].pop_front());
                        let got = s.egress[q].next_to_transmit(&mut arena);
                        prop_assert_eq!(got.as_ref().map(sig), want.as_ref().map(sig));
                        if got.is_none() {
                            break;
                        }
                    }
                }
                prop_assert!(arena.is_empty());
            }
        }
    }
}
