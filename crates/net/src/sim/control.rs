//! The control plane: the source leaf's load-balancing decision with
//! RLB's Algorithm 1 over a path view read from the fabric, the
//! per-switch PFC predictor ticks (§3.2.1) and the hop-by-hop CNM warnings
//! (§3.2.2). [`Control`] owns every leaf's [`LeafState`] — its scheme,
//! warnings, estimators and RLB's per-flow reroute overrides — behind
//! typed calls; the predictors and contributor tables are per-port state
//! of every switch, and stay there.
//!
//! Algorithm 1 reads each path's state for every packet, and so does the
//! simulator: `decide` builds the view afresh from the uplink ports and the
//! leaf's estimators and warning table, so a decision never reads a stale
//! input and a new input needs no invalidation rule. The decision itself
//! is one function of the leaf's state, [`LeafState::decide`].

use super::{Event, JEffect, PerfStats, Simulation};
use crate::config::SimConfig;
use crate::packet::{Packet, NO_PATH};
use crate::switch::EgressPort;
use crate::topology::Node;
use rlb_core::{algorithm1, Decision, DecisionReason, Prediction, RlbConfig, WarningTable};
use rlb_engine::{substream, FlowTable, SimDuration, SimTime};
use rlb_lb::{Ctx, LoadBalancer, PathIdx, PathInfo};

/// Hops a CNM may still be relayed when its origin emits it.
const CNM_TTL: u8 = 4;

/// One leaf's load-balancing state: the deployed scheme, the warning table
/// fed by CNMs, the per-path RTT/ECN estimators the schemes and Algorithm 1
/// read, and RLB's sticky reroute overrides.
struct LeafState {
    lb: Box<dyn LoadBalancer>,
    warnings: WarningTable,
    /// EWMA RTT estimate, ns, indexed `[spine * n_leaves + dst_leaf]`.
    rtt_ns: Vec<f64>,
    /// EWMA ECN-mark fraction, same indexing.
    ecn_frac: Vec<f64>,
    n_leaves: usize,
    /// Flow → the path RLB rerouted it to, and until when (ps) its packets
    /// follow it (DESIGN §6, `RlbConfig::sticky_reroutes`).
    overrides: FlowTable<(PathIdx, u64)>,
}

impl LeafState {
    fn new(
        lb: Box<dyn LoadBalancer>,
        n_spines: usize,
        n_leaves: usize,
        base_rtt_ns: f64,
    ) -> LeafState {
        LeafState {
            lb,
            warnings: WarningTable::new(n_spines, n_leaves),
            rtt_ns: vec![base_rtt_ns; n_spines * n_leaves],
            ecn_frac: vec![0.0; n_spines * n_leaves],
            n_leaves,
            overrides: FlowTable::new(),
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
    fn observe(&mut self, spine: usize, dst_leaf: usize, rtt_ns: f64, ecn: bool) {
        const A: f64 = 0.1; // EWMA gain
        let i = self.idx(spine, dst_leaf);
        self.rtt_ns[i] = (1.0 - A) * self.rtt_ns[i] + A * rtt_ns;
        self.ecn_frac[i] = (1.0 - A) * self.ecn_frac[i] + A * if ecn { 1.0 } else { 0.0 };
    }

    fn rtt(&self, spine: usize, dst_leaf: usize) -> f64 {
        self.rtt_ns[self.idx(spine, dst_leaf)]
    }

    fn ecn(&self, spine: usize, dst_leaf: usize) -> f64 {
        self.ecn_frac[self.idx(spine, dst_leaf)]
    }

    /// The uplink for the packet `ctx` describes after `recircs`
    /// recirculations, and — under RLB (`rlb`) — why, unless a sticky
    /// override decided.
    ///
    /// The inner scheme selects first (Algorithm 1 l.2), so its state stays
    /// warm even when an override wins. A flow RLB rerouted then follows
    /// its new path while that path is unwarned, the inner choice is still
    /// warned and `warn_lifetime_ps` has not passed since the reroute: a
    /// flow's packets would otherwise alternate between the two paths at
    /// every warning-refresh edge. Otherwise Algorithm 1 decides.
    fn decide(
        &mut self,
        ctx: &Ctx<'_>,
        rlb: Option<&RlbConfig>,
        recircs: u32,
    ) -> (Decision, Option<DecisionReason>) {
        let initial = self.lb.select(ctx);
        let Some(cfg) = rlb else {
            return (Decision::Forward(initial), None);
        };
        // Only `sticky_reroutes` makes overrides (below), so none is read
        // without it.
        if let Some(&(path, until)) = self.overrides.get(ctx.flow_id) {
            let paths = ctx.paths;
            let holds = ctx.now_ps < until
                && path < paths.len()
                && !paths[path].warned
                && paths[initial].warned;
            if holds {
                return (Decision::Forward(path), None);
            }
            self.overrides.remove(ctx.flow_id);
        }
        let (decision, reason) = algorithm1(initial, ctx, cfg, recircs);
        if let (Decision::Forward(ps), DecisionReason::Rerouted) = (decision, reason) {
            if cfg.sticky_reroutes {
                let until = SimTime(ctx.now_ps) + SimDuration::from_ps(cfg.warn_lifetime_ps);
                self.overrides.insert(ctx.flow_id, (ps, until.as_ps()));
            }
        }
        (decision, Some(reason))
    }

    /// Flow `flow_id` completed: drop its override and the scheme's state.
    fn on_flow_complete(&mut self, flow_id: u64) {
        self.overrides.remove(flow_id);
        self.lb.on_flow_complete(flow_id);
    }
}

/// Every leaf's load-balancing state, and the path view its decisions read.
pub(super) struct Control {
    /// Leaf `l`'s scheme, warnings, estimators and overrides.
    leaves: Vec<LeafState>,
    /// RLB's parameters, when RLB runs in this fabric.
    rlb: Option<RlbConfig>,
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
        let mtu = cfg.transport.mtu_bytes as u64;
        let leaf = |l| {
            let lb = rlb_lb::build(cfg.scheme, mtu, substream(cfg.seed, b"lb-leaf", l));
            LeafState::new(lb, n_spines, n_leaves, base_rtt_ns)
        };
        Control {
            leaves: (0..n_leaves as u64).map(leaf).collect(),
            rlb: cfg.rlb.clone(),
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
            self.leaves[leaf as usize].observe(ack.path as usize, dst as usize, rtt_ns, ack.ecn());
        }
    }

    /// Flow `flow_id`, sourced under `leaf`, completed.
    pub(super) fn on_flow_complete(&mut self, leaf: u32, flow_id: u64) {
        self.leaves[leaf as usize].on_flow_complete(flow_id);
    }

    /// Leaf `leaf`'s uplink for the packet `ctx` describes, after `recircs`
    /// recirculations, with `ctx.paths` from `uplinks` (the first `limit`
    /// for a path-limited flow); and RLB's reason, for the journal
    /// ([`LeafState::decide`]).
    pub(super) fn decide(
        &mut self,
        leaf: u32,
        uplinks: &[EgressPort],
        ctx: Ctx<'_>,
        limit: Option<u8>,
        recircs: u8,
    ) -> (Decision, Option<DecisionReason>) {
        self.perf.decisions += 1;
        self.perf.snapshot_rebuilds += 1;
        // Path-restricted flows (Fig. 4a's experimental control) only see
        // a prefix of the uplinks.
        let uplinks = &uplinks[..limit.map_or(uplinks.len(), |k| (k as usize).min(uplinks.len()))];
        let (now_ps, dst) = (ctx.now_ps, ctx.dst_leaf as usize);
        let ls = &mut self.leaves[leaf as usize];
        self.paths.clear();
        self.paths
            .extend(uplinks.iter().enumerate().map(|(s, ep)| PathInfo {
                queue_bytes: ep.data_q_bytes,
                paused: ep.data_blocked(),
                warned: ls.warnings.is_warned(s, dst, now_ps),
                rtt_ns: ls.rtt(s, dst),
                ecn_fraction: ls.ecn(s, dst),
                link_rate_bps: ep.rate_bps as f64,
            }));
        let ctx = Ctx {
            paths: &self.paths,
            ..ctx
        };
        ls.decide(&ctx, self.rlb.as_ref(), recircs as u32)
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
            let ev = Event::PredictorTick(self.topo.node_index(node));
            self.sched.schedule(node, at, ev);
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
            let origin = self.topo.node_index(node);
            self.send_cnm_upstream(node, port, origin, port, CNM_TTL);
        }
        self.control.ports_scratch = warns;
        if keep_ticking {
            let at = now + SimDuration(dt);
            let ev = Event::PredictorTick(self.topo.node_index(node));
            self.sched.schedule(node, at, ev);
        }
    }

    /// Emit a CNM out of `out_port`'s reverse link (toward the upstream
    /// neighbour feeding that ingress). Skips host neighbours — servers
    /// cannot reroute.
    fn send_cnm_upstream(
        &mut self,
        node: Node,
        out_port: u16,
        origin_node: u16,
        origin_port: u16,
        ttl: u8,
    ) {
        let (peer, _) = self.topo.peer(node, out_port);
        if matches!(peer, Node::Host(_)) {
            return;
        }
        let now_ps = self.now().as_ps();
        // Validated to fit 16 bits (`SimConfig::validate`).
        let size = self.cfg.transport.ctrl_bytes as u16;
        let pkt = Packet::cnm(origin_node, origin_port, ttl, size, now_ps);
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
    pub(super) fn handle_cnm(
        &mut self,
        node: Node,
        in_port: u16,
        origin_node: u16,
        origin_port: u16,
        ttl: u8,
    ) {
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
                match self.topo.node_at(origin_node) {
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
// Tests assert exact values that are exactly representable in binary floating
// point; the workspace-level float_cmp deny targets simulator arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rlb_core::DecisionReason::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn ecmp_leaf(n_spines: usize, n_leaves: usize) -> LeafState {
        let lb = rlb_lb::build(rlb_lb::Scheme::Ecmp, 1000, substream(0, b"t", 0));
        LeafState::new(lb, n_spines, n_leaves, 10_000.0)
    }

    #[test]
    fn leaf_state_estimators_converge() {
        let mut ls = ecmp_leaf(4, 4);
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

    /// A warning covers the paths its granularity names, until it lapses:
    /// one (spine, dst_leaf) path, or every destination through the uplink.
    #[test]
    fn leaf_warnings_cover_exactly_their_granularity() {
        let mut ls = ecmp_leaf(3, 4);
        let warned = |ls: &LeafState, now_ps: u64| -> Vec<(usize, usize)> {
            (0..3)
                .flat_map(|s| (0..4).map(move |d| (s, d)))
                .filter(|&(s, d)| ls.warnings.is_warned(s, d, now_ps))
                .collect()
        };
        assert!(warned(&ls, 0).is_empty());
        ls.warnings.warn_path(1, 2, 500);
        assert_eq!(warned(&ls, 0), [(1, 2)]);
        ls.warnings.warn_uplink(2, 800);
        assert_eq!(warned(&ls, 499), [(1, 2), (2, 0), (2, 1), (2, 2), (2, 3)]);
        assert_eq!(warned(&ls, 500), [(2, 0), (2, 1), (2, 2), (2, 3)]);
        assert!(warned(&ls, 800).is_empty());
    }

    /// An inner scheme that picks the path numbered by the packet's PSN, and
    /// counts its calls.
    struct BySeq(Arc<AtomicU32>);

    impl LoadBalancer for BySeq {
        fn name(&self) -> &'static str {
            "by-seq"
        }

        fn select(&mut self, ctx: &Ctx<'_>) -> PathIdx {
            self.0.fetch_add(1, Ordering::Relaxed);
            ctx.seq as usize
        }
    }

    const FLOW: u64 = 7;
    /// `RlbConfig::default`'s warn lifetime: an override set at 0 lapses here.
    const LIFETIME_PS: u64 = 20_000_000;

    /// `(warned, rtt_ns, queue_bytes)` per path.
    fn view(specs: &[(bool, f64, u64)]) -> Vec<PathInfo> {
        specs
            .iter()
            .map(|&(warned, rtt_ns, queue_bytes)| PathInfo {
                warned,
                rtt_ns,
                queue_bytes,
                ..PathInfo::default()
            })
            .collect()
    }

    /// A packet of `flow_id` at `now_ps` whose inner choice is `inner`.
    fn ctx(now_ps: u64, flow_id: u64, inner: u32, paths: &[PathInfo]) -> Ctx<'_> {
        Ctx {
            now_ps,
            flow_id,
            dst_leaf: 1,
            seq: inner,
            pkt_bytes: 1000,
            paths,
        }
    }

    /// Path 0 (the inner choice) warned; path 1 unwarned, 0.5 µs slower:
    /// Algorithm 1 reroutes onto it.
    fn first_view() -> Vec<PathInfo> {
        view(&[
            (true, 10_000.0, 0),
            (false, 10_500.0, 0),
            (false, 10_400.0, 100),
        ])
    }

    /// The same, but path 2 is now the better suboptimal path: Algorithm 1
    /// alone would reroute onto path 2, so `Forward(1)` can only come from
    /// the override.
    fn later_view(warned: [bool; 3]) -> Vec<PathInfo> {
        view(&[
            (warned[0], 10_000.0, 0),
            (warned[1], 10_500.0, 100),
            (warned[2], 10_400.0, 0),
        ])
    }

    /// A leaf whose flow `FLOW` was just rerouted from path 0 to path 1 at 0.
    fn rerouted_leaf(cfg: &RlbConfig) -> (LeafState, Arc<AtomicU32>) {
        let calls = Arc::new(AtomicU32::new(0));
        let mut ls = LeafState::new(Box::new(BySeq(calls.clone())), 3, 2, 10_000.0);
        let paths = first_view();
        let got = ls.decide(&ctx(0, FLOW, 0, &paths), Some(cfg), 0);
        assert_eq!(got, (Decision::Forward(1), Some(Rerouted)));
        (ls, calls)
    }

    #[test]
    fn override_holds_while_its_path_is_clean_the_inner_choice_warned_and_the_lifetime_runs() {
        let cfg = RlbConfig::default();
        assert_eq!(cfg.warn_lifetime_ps, LIFETIME_PS);
        let (mut ls, calls) = rerouted_leaf(&cfg);
        assert_eq!(ls.overrides.get(FLOW), Some(&(1, LIFETIME_PS)));
        let paths = later_view([true, false, false]);
        for now_ps in [1, LIFETIME_PS / 2, LIFETIME_PS - 1] {
            // A sticky forward carries no reason: it counts nothing.
            let got = ls.decide(&ctx(now_ps, FLOW, 0, &paths), Some(&cfg), 0);
            assert_eq!(got, (Decision::Forward(1), None));
        }
        // The inner scheme selected for every packet, the overridden ones too.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        // Another flow has no override: Algorithm 1 decides.
        let other = ls.decide(&ctx(1, FLOW + 1, 0, &paths), Some(&cfg), 0);
        assert_eq!(other, (Decision::Forward(2), Some(Rerouted)));
    }

    #[test]
    fn override_is_dropped_when_its_path_is_warned() {
        let cfg = RlbConfig::default();
        let (mut ls, _) = rerouted_leaf(&cfg);
        let paths = later_view([true, true, false]);
        let got = ls.decide(&ctx(1, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
        // Algorithm 1's new reroute is the flow's override now.
        assert_eq!(ls.overrides.get(FLOW), Some(&(2, 1 + LIFETIME_PS)));
    }

    #[test]
    fn override_is_dropped_when_the_inner_choice_is_clean() {
        let cfg = RlbConfig::default();
        let (mut ls, _) = rerouted_leaf(&cfg);
        // The warning on path 0 lifted.
        let paths = later_view([false, false, false]);
        let got = ls.decide(&ctx(1, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(0), Some(UnwarnedInitial)));
        assert_eq!(ls.overrides.get(FLOW), None);
        // Dropped for good: the next warned packet is Algorithm 1's again.
        let paths = later_view([true, false, false]);
        let got = ls.decide(&ctx(2, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
        // The inner scheme now picks path 1, which is clean.
        let got = ls.decide(&ctx(3, FLOW, 1, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(1), Some(UnwarnedInitial)));
        assert_eq!(ls.overrides.get(FLOW), None);
    }

    #[test]
    fn override_is_dropped_when_its_lifetime_passes() {
        let cfg = RlbConfig::default();
        let (mut ls, _) = rerouted_leaf(&cfg);
        let paths = later_view([true, false, false]);
        let got = ls.decide(&ctx(LIFETIME_PS, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
    }

    #[test]
    fn override_is_dropped_when_its_path_leaves_the_view() {
        let cfg = RlbConfig::default();
        let calls = Arc::new(AtomicU32::new(0));
        let mut ls = LeafState::new(Box::new(BySeq(calls)), 3, 2, 10_000.0);
        let paths = later_view([true, false, false]);
        let got = ls.decide(&ctx(0, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
        // A path-limited view of the first two uplinks.
        let got = ls.decide(&ctx(1, FLOW, 0, &paths[..2]), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(1), Some(Rerouted)));
    }

    #[test]
    fn override_is_dropped_when_the_flow_completes() {
        let cfg = RlbConfig::default();
        let (mut ls, _) = rerouted_leaf(&cfg);
        ls.on_flow_complete(FLOW);
        assert_eq!(ls.overrides.get(FLOW), None);
        let paths = later_view([true, false, false]);
        let got = ls.decide(&ctx(1, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
    }

    #[test]
    fn without_sticky_reroutes_no_override_is_kept_or_used() {
        let cfg = RlbConfig {
            sticky_reroutes: false,
            ..RlbConfig::default()
        };
        let (mut ls, _) = rerouted_leaf(&cfg);
        assert!(ls.overrides.is_empty());
        let paths = later_view([true, false, false]);
        let got = ls.decide(&ctx(1, FLOW, 0, &paths), Some(&cfg), 0);
        assert_eq!(got, (Decision::Forward(2), Some(Rerouted)));
    }

    #[test]
    fn without_rlb_the_inner_choice_goes_out_unexplained() {
        let calls = Arc::new(AtomicU32::new(0));
        let mut ls = LeafState::new(Box::new(BySeq(calls)), 3, 2, 10_000.0);
        let paths = later_view([true, false, false]);
        assert_eq!(
            ls.decide(&ctx(0, FLOW, 0, &paths), None, 0),
            (Decision::Forward(0), None)
        );
        assert!(ls.overrides.is_empty());
    }

    /// Algorithm 1's reason comes back for every decision it takes over a
    /// real scheme's choice.
    #[test]
    fn decide_reports_algorithm1s_reason_over_a_real_scheme() {
        let cfg = RlbConfig::default();
        let mut ls = ecmp_leaf(4, 2);
        let clean = view(&[(false, 10_000.0, 0); 4]);
        let got = ls.decide(&ctx(0, 1, 0, &clean), Some(&cfg), 0);
        assert!(
            matches!(got, (Decision::Forward(_), Some(UnwarnedInitial))),
            "{got:?}"
        );
        // All-warned view: forced out on the inner choice.
        let warned = view(&[(true, 10_000.0, 0); 4]);
        let got = ls.decide(&ctx(0, 1, 0, &warned), Some(&cfg), 0);
        assert!(
            matches!(got, (Decision::Forward(_), Some(ForcedOut))),
            "{got:?}"
        );
        // Selective warning with a large gap: recirculates. ECMP is
        // deterministic per flow id, so probe for a flow that lands on the
        // warned fast path.
        let selective = view(&[(true, 10_000.0, 0), (false, 50_000.0, 0)]);
        let hit = (0..64u64).find(|&fid| {
            ls.decide(&ctx(0, fid, 0, &selective), Some(&cfg), 0)
                == (Decision::Recirculate, Some(RecirculatedGap))
        });
        assert!(
            hit.is_some(),
            "some flow must hash onto the warned fast path"
        );
    }
}
