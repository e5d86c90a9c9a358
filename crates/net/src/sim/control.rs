//! The control plane: the source leaf's load-balancing decision with
//! RLB's Algorithm 1 over a path view read from the fabric, the
//! per-switch PFC predictor ticks (§3.2.1) and the hop-by-hop CNM warnings
//! (§3.2.2). [`Control`] owns every leaf's LB state and estimators behind
//! typed calls; the predictors and contributor tables are per-port state
//! of every switch, and stay there.
//!
//! Algorithm 1 reads each path's state for every packet, and so does the
//! simulator: `decide` builds the view afresh from the uplink ports and the
//! leaf's estimators and warning table, so a decision never reads a stale
//! input and a new input needs no invalidation rule.

use super::{Event, JEffect, PerfStats, Simulation};
use crate::config::SimConfig;
use crate::packet::{Packet, PacketKind, NO_PATH};
use crate::switch::{EgressPort, LbInstance, LeafState};
use crate::topology::Node;
use rlb_core::{Decision, Prediction, Rlb};
use rlb_engine::{substream, SimDuration, SimTime};
use rlb_lb::{Ctx, PathInfo};

/// Hops a CNM may still be relayed when its origin emits it.
const CNM_TTL: u8 = 4;

/// Encode a switch identity into the CNM origin field.
fn encode_node(n: Node) -> u32 {
    match n {
        Node::Leaf(l) => l,
        Node::Spine(s) => 0x8000_0000 | s,
        Node::Host(_) => unreachable!("hosts never originate CNMs"),
    }
}

fn decode_node(v: u32) -> Node {
    if v & 0x8000_0000 != 0 {
        Node::Spine(v & 0x7FFF_FFFF)
    } else {
        Node::Leaf(v)
    }
}

/// Every leaf's load-balancing state, and the path view its decisions read.
pub(super) struct Control {
    /// Leaf `l`'s scheme (optionally RLB-wrapped), warnings and estimators.
    leaves: Vec<LeafState>,
    /// Scratch: the path view of the decision being taken, rebuilt from
    /// the fabric for every decision.
    paths: Vec<PathInfo>,
    /// This replica's decision counts.
    pub(super) perf: PerfStats,
    /// Scratch: the ports one predictor tick warns, or one CNM relays to.
    ports_scratch: Vec<u16>,
}

impl Control {
    pub(super) fn new(cfg: &SimConfig, base_rtt_ns: f64) -> Control {
        let (n_leaves, n_spines) = (cfg.topo.n_leaves as usize, cfg.topo.n_spines as usize);
        let leaf = |l| {
            // The deployed LB scheme, optionally wrapped in RLB.
            let mtu = cfg.transport.mtu_bytes as u64;
            let inner = rlb_lb::build(cfg.scheme, mtu, substream(cfg.seed, b"lb-leaf", l));
            let lb = match &cfg.rlb {
                Some(rcfg) => LbInstance::Rlb(Rlb::new(inner, rcfg.clone())),
                None => LbInstance::Vanilla(inner),
            };
            LeafState::new(lb, n_spines, n_leaves, base_rtt_ns)
        };
        Control {
            leaves: (0..n_leaves as u64).map(leaf).collect(),
            paths: Vec::with_capacity(n_spines),
            perf: PerfStats::default(),
            ports_scratch: Vec::new(),
        }
    }

    /// `ack` reached its flow's source under `leaf` at `now`, from leaf
    /// `dst`: its RTT sample and CE echo feed the estimators of the
    /// path its data took, if it left the leaf.
    #[inline]
    pub(super) fn on_ack(&mut self, leaf: u32, dst: u32, ack: &Packet, now: SimTime) {
        if ack.path != NO_PATH {
            let rtt_ns = (now.as_ps().saturating_sub(ack.sent_ps)) as f64 / 1e3;
            self.leaves[leaf as usize].observe(ack.path as usize, dst as usize, rtt_ns, ack.ecn);
        }
    }

    /// Flow `flow_id`, sourced under `leaf`, completed.
    pub(super) fn on_flow_complete(&mut self, leaf: u32, flow_id: u64) {
        self.leaves[leaf as usize].lb.on_flow_complete(flow_id);
    }

    /// Leaf `leaf`'s uplink for the packet `ctx` describes, after `recircs`
    /// recirculations, with `ctx.paths` from `uplinks` (the first `limit`
    /// for a path-limited flow); and what it moved in RLB's counters, for
    /// the journal (the `Rlb` accumulator itself is physical state).
    pub(super) fn decide(
        &mut self,
        leaf: u32,
        uplinks: &[EgressPort],
        ctx: Ctx<'_>,
        limit: Option<u8>,
        recircs: u8,
    ) -> (Decision, Option<JEffect>) {
        self.perf.decisions += 1;
        self.perf.snapshot_rebuilds += 1;
        // Path-restricted flows (Fig. 4a's experimental control) only see
        // a prefix of the uplinks.
        let uplinks = &uplinks[..limit.map_or(uplinks.len(), |k| (k as usize).min(uplinks.len()))];
        let (now_ps, dst) = (ctx.now_ps, ctx.dst_leaf as usize);
        let ls = &mut self.leaves[leaf as usize];
        self.paths.clear();
        self.paths.extend(uplinks.iter().enumerate().map(|(s, ep)| PathInfo {
            queue_bytes: ep.data_q_bytes,
            paused: ep.data_blocked(),
            warned: ls.warnings.is_warned(s, dst, now_ps),
            rtt_ns: ls.rtt(s, dst),
            ecn_fraction: ls.ecn(s, dst),
            link_rate_bps: ep.rate_bps as f64,
        }));
        let ctx = Ctx { paths: &self.paths, ..ctx };
        match &mut ls.lb {
            LbInstance::Vanilla(lb) => (Decision::Forward(lb.select(&ctx)), None),
            LbInstance::Rlb(rlb) => {
                let s = &rlb.stats;
                let b = (s.reroutes, s.forwards_unwarned, s.forced_out);
                let d = rlb.decide(&ctx, recircs as u32);
                let s = &rlb.stats;
                let (re, fw, fo) =
                    (s.reroutes - b.0, s.forwards_unwarned - b.1, s.forced_out - b.2);
                (d, ((re, fw, fo) != (0, 0, 0)).then_some(JEffect::RlbStats { re, fw, fo }))
            }
        }
    }
}

impl Simulation {
    /// Start Δt sampling for an ingress port once it shows congestion
    /// (half the warning threshold), per §3.2.1's "only performs
    /// prediction when there is congestion". The sampling clock itself is
    /// one `PredictorTick` per switch; activating a port joins it to the
    /// switch's tick (arming the tick if it isn't running).
    pub(super) fn maybe_activate_sampler(&mut self, node: Node, in_port: u16) {
        let dt = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.dt_ps,
            None => return,
        };
        let now = self.now();
        let arm = {
            let sw = self.switch_mut(node);
            if sw.predictors.is_empty() || sw.sampler_active[in_port as usize] {
                return;
            }
            let activation = sw.predictors[in_port as usize].qth_bytes() / 2;
            if sw.ingress_bytes[in_port as usize] < activation.max(1) {
                return;
            }
            sw.sampler_active[in_port as usize] = true;
            sw.predictors[in_port as usize].reset();
            let arm = !sw.sampler_tick_armed;
            sw.sampler_tick_armed = true;
            arm
        };
        if arm {
            let at = now + SimDuration(dt);
            self.sched.schedule(node, at, Event::PredictorTick(node));
        }
    }

    /// One Δt tick for a switch: sample every active ingress port in
    /// ascending port order (deterministic CNM emission), deactivate ports
    /// that went quiet, and keep ticking while any port stays active.
    pub(super) fn on_predictor_tick(&mut self, node: Node) {
        let dt = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.dt_ps,
            None => return,
        };
        let now = self.now();
        let cursor = self.sched.cursor();
        let mut warns = std::mem::take(&mut self.control.ports_scratch);
        warns.clear();
        let keep_ticking = {
            let sw = self.switch_mut(node);
            sw.settle(cursor);
            let mut any_active = false;
            for port in 0..sw.n_ports() {
                if !sw.sampler_active[port] {
                    continue;
                }
                let qlen = sw.ingress_bytes[port];
                let pred = sw.predictors[port].on_sample(now.as_ps(), qlen);
                if pred == Prediction::Warn {
                    warns.push(port as u16);
                }
                // Keep sampling while the port stays congested.
                let activation = sw.predictors[port].qth_bytes() / 2;
                if qlen >= activation.max(1) || pred == Prediction::Warn {
                    any_active = true;
                } else {
                    sw.sampler_active[port] = false;
                    sw.predictors[port].reset();
                }
            }
            sw.sampler_tick_armed = any_active;
            any_active
        };
        if !warns.is_empty() {
            self.jot(JEffect::CnmGen(warns.len() as u64));
        }
        for &port in &warns {
            self.send_cnm_upstream(node, port, encode_node(node), port, CNM_TTL);
        }
        self.control.ports_scratch = warns;
        if keep_ticking {
            let at = now + SimDuration(dt);
            self.sched.schedule(node, at, Event::PredictorTick(node));
        }
    }

    /// Emit a CNM out of `out_port`'s reverse link (toward the upstream
    /// neighbour feeding that ingress). Skips host neighbours — servers
    /// cannot reroute.
    fn send_cnm_upstream(
        &mut self,
        node: Node,
        out_port: u16,
        origin_node: u32,
        origin_port: u16,
        ttl: u8,
    ) {
        let (peer, _) = self.topo.peer(node, out_port);
        if matches!(peer, Node::Host(_)) {
            return;
        }
        let now_ps = self.now().as_ps();
        let pkt = Packet {
            kind: PacketKind::Cnm {
                origin_node,
                origin_ingress_port: origin_port,
                ttl,
            },
            flow: u32::MAX,
            psn: 0,
            size_bytes: self.cfg.transport.ctrl_bytes,
            src_host: u32::MAX,
            dst_host: u32::MAX,
            ecn: false,
            sent_ps: now_ps,
            path: NO_PATH,
            recircs: 0,
            ingress_port: 0,
            cum: 0,
            nack: false,
        };
        let pkt = pkt.park(&mut self.arena, now_ps);
        self.enqueue_or_launch(node, out_port, pkt);
    }

    /// CNM arrived at `node` on `in_port`.
    ///
    /// * At a **leaf**, arriving from a spine: record the warning —
    ///   path-granular if the origin is a (destination) leaf's uplink
    ///   ingress, uplink-granular if the origin is the spine's own ingress
    ///   from *this* leaf.
    /// * At a **spine**: relay toward the leaves that recently contributed
    ///   traffic to the endangered direction (the paper's flow-table
    ///   driven hop-by-hop propagation).
    pub(super) fn handle_cnm(&mut self, node: Node, in_port: u16, origin_node: u32, origin_port: u16, ttl: u8) {
        let now = self.now();
        // Copy the one field we need instead of cloning the whole RlbConfig
        // on every CNM (this runs per control frame under congestion).
        let warn_lifetime_ps = match self.cfg.rlb.as_ref() {
            Some(rcfg) => rcfg.warn_lifetime_ps,
            None => return, // CNMs in a fabric without RLB: ignore
        };
        match node {
            Node::Leaf(l) => {
                let Some(via_spine) = self.topo.spine_of_leaf_port(in_port) else {
                    return; // CNM from a host port: not meaningful
                };
                let until = (now + SimDuration(warn_lifetime_ps)).as_ps();
                let ls = &mut self.control.leaves[l as usize];
                match decode_node(origin_node) {
                    Node::Leaf(dst_leaf) => {
                        // Congestion predicted at dst_leaf's ingress from
                        // some spine: that (spine, dst_leaf) path is hot.
                        if let Some(s) = self.topo.spine_of_leaf_port(origin_port) {
                            if dst_leaf != l {
                                ls.warnings.warn_path(s as usize, dst_leaf as usize, until);
                            }
                        }
                    }
                    // Congestion at spine s's ingress from leaf
                    // `origin_port`. If that leaf is us, every path through
                    // s from here is endangered; if another leaf overloads
                    // the spine this CNM came through, its egress toward our
                    // destinations may still pause — a mild uplink warning
                    // too.
                    Node::Spine(s) if origin_port as u32 == l || s == via_spine => {
                        ls.warnings.warn_uplink(s as usize, until);
                    }
                    Node::Spine(_) | Node::Host(_) => {}
                }
            }
            Node::Spine(s) => {
                if ttl == 0 {
                    return;
                }
                // Relay to recent contributors of the egress pointing back
                // at the CNM's arrival direction (the endangered path).
                let mut targets = std::mem::take(&mut self.control.ports_scratch);
                targets.clear();
                let table = &self.spines[s as usize].contributors;
                let recent = table.contributors(in_port as usize, now.as_ps());
                targets.extend(recent.filter(|&p| p != in_port as usize).map(|p| p as u16));
                for &p in &targets {
                    self.jot(JEffect::CnmRelay);
                    self.send_cnm_upstream(node, p, origin_node, origin_port, ttl - 1);
                }
                self.control.ports_scratch = targets;
            }
            Node::Host(_) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnm_origin_encoding_round_trips() {
        for node in [Node::Leaf(0), Node::Leaf(11), Node::Spine(0), Node::Spine(39)] {
            assert_eq!(decode_node(encode_node(node)), node);
        }
        // Leaves and spines never collide.
        assert_ne!(encode_node(Node::Leaf(3)), encode_node(Node::Spine(3)));
    }

    #[test]
    #[should_panic]
    fn host_origin_is_rejected() {
        encode_node(Node::Host(0));
    }
}
