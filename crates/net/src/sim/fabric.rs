//! The fabric plane: switch ingress and buffer admission, routing, PFC,
//! and the one transmitter switch ports and host NICs share (`try_transmit`
//! → `launch` → `EgressDone`, idle completions only reserved, DESIGN §9.7).

use super::{Event, JEffect, Simulation};
use crate::packet::Packet;
use crate::switch::{PfcAction, Release, Reserved};
use crate::topology::Node;
use crate::trace::TraceEvent;
use rlb_core::Decision;
use rlb_engine::{tx_delay, PacketHandle, SimDuration, SimTime};
use rlb_lb::Ctx;
use std::num::NonZeroU16;

impl Simulation {
    /// A frame arrived at switch `node` on `in_port`.
    pub(super) fn switch_rx(&mut self, node: Node, in_port: u16, h: PacketHandle) {
        let pkt = self.arena.get_mut(h);
        if let Some((origin_node, origin_port, ttl)) = pkt.cnm_origin() {
            self.arena.free(h);
            self.handle_cnm(node, in_port, origin_node, origin_port, ttl);
            return;
        }
        if pkt.kind.is_control() {
            let out = self.route_control(node, self.arena.get(h));
            self.enqueue_or_launch(node, out, h);
            return;
        }
        // Data plane: buffer admission + PFC accounting against the
        // ingress port, which the packet records for its release.
        pkt.ingress_port = in_port;
        let size = pkt.size_bytes as u32;
        let cursor = self.sched.cursor();
        let (admitted, action) = {
            let sw = self.switch_mut(node);
            sw.settle(cursor);
            match sw.admit_data(in_port, size) {
                Ok(a) => (true, a),
                Err(crate::switch::BufferOverflow) => (false, PfcAction::None),
            }
        };
        if !admitted {
            self.arena.free(h);
            #[cfg(feature = "audit")]
            self.auditor.on_dropped();
            self.jot(JEffect::BufferDrop);
            return; // tail-dropped; go-back-N will recover end-to-end
        }
        self.apply_pfc_action(node, action);
        self.jot(JEffect::SwitchPkt);
        self.maybe_activate_sampler(node, in_port);
        self.route_data(node, in_port, h);
    }

    /// The fixed egress toward `pkt`'s destination host: down from a spine
    /// or from the host's own leaf; `None` where a leaf picks an uplink.
    fn route_down(&self, node: Node, pkt: &Packet) -> Option<u16> {
        let dst_leaf = self.topo.leaf_of_host(pkt.dst_host);
        match node {
            Node::Spine(_) => Some(dst_leaf as u16),
            Node::Leaf(l) => (dst_leaf == l).then(|| self.topo.leaf_port_of_host(pkt.dst_host)),
            Node::Host(_) => unreachable!(),
        }
    }

    /// Egress port for a control frame. Control takes ECMP (hash) at the
    /// leaf — its ordering is irrelevant and it must not perturb the
    /// data-plane LB state.
    fn route_control(&self, node: Node, pkt: &Packet) -> u16 {
        self.route_down(node, pkt).unwrap_or_else(|| {
            let s = (crate::hash_u64(pkt.flow as u64 ^ 0xC0FFEE) % self.cfg.topo.n_spines as u64)
                as u32;
            self.topo.leaf_uplink_port(s)
        })
    }

    /// Route data packet `h`: deterministic except at the source leaf's
    /// uplink choice, where the LB scheme (and RLB) decide.
    fn route_data(&mut self, node: Node, in_port: u16, h: PacketHandle) {
        let now = self.now();
        let pkt = self.arena.get(h);
        let (ingress, size) = (pkt.ingress_port, pkt.size_bytes as u32);
        let (out, path) = match (node, self.route_down(node, pkt)) {
            (_, Some(out)) => (out, None),
            (Node::Leaf(l), None) => {
                // --- the load-balancing decision point ---
                let (flow, psn) = (pkt.flow, pkt.psn);
                let ctx = Ctx {
                    now_ps: now.as_ps(),
                    flow_id: flow as u64,
                    dst_leaf: self.topo.leaf_of_host(pkt.dst_host),
                    seq: psn,
                    pkt_bytes: size,
                    paths: &[],
                };
                let hpl = self.cfg.topo.hosts_per_leaf as usize;
                let uplinks = &self.leaves[l as usize].egress[hpl..];
                let limit = self.flows[flow as usize].spec.path_limit;
                let (decision, reason) = self.control.decide(l, uplinks, ctx, limit, pkt.recircs);
                if let Some(reason) = reason {
                    self.jot(JEffect::Rlb(reason));
                }
                let trace = match decision {
                    Decision::Forward(s) => TraceEvent::Routed { path: s as u8 },
                    Decision::Recirculate => TraceEvent::Recirculated,
                };
                if self.traces.wants(flow) {
                    self.traces.record(flow, now.as_ps(), psn, trace);
                }
                let Decision::Forward(s) = decision else {
                    self.jot(JEffect::Recirc { flow });
                    let pkt = self.arena.get_mut(h);
                    pkt.recircs = pkt.recircs.saturating_add(1);
                    let rlb = self.cfg.rlb.as_ref().expect("recirculation without RLB");
                    let at = now + SimDuration(rlb.t_rc_ps);
                    let ev = Event::Recirculate {
                        node: self.topo.node_index(node),
                        pkt: h,
                    };
                    self.sched.schedule(node, at, ev);
                    return;
                };
                (self.topo.leaf_uplink_port(s as u32), Some(s as u8))
            }
            _ => unreachable!(),
        };
        // Dynamic-threshold egress admission, then ECN congestion-point
        // marking against the egress data queue.
        let mark = {
            let sw = self.switch_mut(node);
            if sw.dt_exceeded(out) {
                let action = sw.release_data(ingress, size);
                self.arena.free(h);
                #[cfg(feature = "audit")]
                self.auditor.on_dropped();
                self.jot(JEffect::BufferDrop);
                self.apply_pfc_action(node, action);
                return;
            }
            sw.contributors
                .record(out as usize, in_port as usize, now.as_ps());
            sw.ecn_mark(out)
        };
        if mark || path.is_some() {
            let pkt = self.arena.get_mut(h);
            pkt.path = path.unwrap_or(pkt.path);
            if mark {
                pkt.set_ecn(true);
            }
        }
        if mark {
            self.jot(JEffect::EcnMark);
        }
        self.enqueue_or_launch(node, out, h);
    }

    pub(super) fn on_recirculate(&mut self, node: Node, h: PacketHandle) {
        // The packet kept its buffer share while looping; it re-enters the
        // routing pipeline with its original ingress accounting.
        let cursor = self.sched.cursor();
        self.switch_mut(node).settle(cursor);
        let in_port = self.arena.get(h).ingress_port;
        self.route_data(node, in_port, h);
    }

    /// Start the next frame out of `node`'s egress `port` if the port is
    /// free: a queued control frame first (pause-immune), then data unless
    /// the class is paused — the head of a switch port's FIFO, or what a
    /// NIC pulls from its flows (`nic_pull`).
    pub(super) fn try_transmit(&mut self, node: Node, port: u16) {
        let cursor = self.sched.cursor();
        let (ep, arena) = self.port_and_arena(node, port);
        if ep.busy {
            return;
        }
        if ep.reserved.is_some_and(|r| r.pending_at(cursor)) {
            // The port is mid-frame; once work waits behind it, the
            // completion that ends the frame must fire to pick it up.
            if !ep.queues_empty() || self.nic_has_live_flow(node) {
                self.materialize_egress(node, port);
            }
            return;
        }
        if let Some(h) = ep.next_to_transmit(arena) {
            self.launch(node, port, h);
        } else if let Node::Host(h) = node {
            if !ep.paused {
                self.nic_pull(h);
            }
        }
    }

    /// Hand packet `h` to `node`'s egress `port`. When the port would
    /// transmit it immediately ([`EgressPort::pass_through`]) the packet
    /// launches directly, skipping the queue visit — the dominant case on
    /// quiet ports, and for the ACK a NIC sends per delivered data packet.
    /// Otherwise its handle queues on the class FIFO and the transmitter
    /// is kicked. Both paths produce identical simulation state and
    /// events: the bypass fires exactly when `enqueue` + `next_to_transmit`
    /// would hand the same handle straight back with every queue counter
    /// netting to zero.
    pub(super) fn enqueue_or_launch(&mut self, node: Node, port: u16, h: PacketHandle) {
        let cursor = self.sched.cursor();
        let (ep, arena) = self.port_and_arena(node, port);
        let control = arena.get(h).kind.is_control();
        debug_assert!(
            control || !matches!(node, Node::Host(_)),
            "a NIC pulls its data from its flows"
        );
        if ep.pass_through(control, cursor) {
            self.launch(node, port, h);
            return;
        }
        ep.enqueue(arena, h);
        self.try_transmit(node, port);
    }

    /// Start serializing packet `h` out of `node`'s idle egress `port`, and
    /// schedule its wire arrival and — when it has anything to do — its
    /// completion (DESIGN §9.7).
    pub(super) fn launch(&mut self, node: Node, port: u16, h: PacketHandle) {
        let now = self.now();
        let prop = SimDuration(self.cfg.topo.link_delay_ps);
        let (peer, peer_port) = self.topo.peer(node, port);
        let key = self.sched.reserve(node);
        // Nothing left to do at `done`: nothing follows this frame — no
        // queued frame, and at a NIC no flow that could send at `done` —
        // and its buffer release cannot resume the ingress it is charged
        // to. Work that arrives later kicks `try_transmit`, and a PAUSE of
        // that ingress goes through `apply_pfc_action`; both schedule the
        // completion then.
        let pkt = self.arena.get(h);
        let (size, data, ingress) = (pkt.size_bytes, !pkt.kind.is_control(), pkt.ingress_port);
        let (ep, release, ser, idle) = match node {
            // A NIC frame holds no switch buffer; its data enters the fabric.
            Node::Host(host) => {
                #[cfg(feature = "audit")]
                if data {
                    self.auditor.on_injected();
                }
                let ser = tx_delay(size as u64, self.hosts[host as usize].nic.rate_bps);
                let done_ps = (now + ser).as_ps();
                let idle = !self.nic_has_live_flow(node) || self.nic_quiet_until(host, done_ps);
                (&mut self.hosts[host as usize].nic, None, ser, idle)
            }
            Node::Leaf(_) | Node::Spine(_) => {
                let release = data.then(|| {
                    let bytes = NonZeroU16::new(size).expect("a data frame has bytes");
                    (ingress, bytes)
                });
                let sw = self.switch_mut(node);
                let idle = release.is_none_or(|(ingress, _)| !sw.paused_upstream[ingress as usize]);
                let ep = &mut sw.egress[port as usize];
                let ser = tx_delay(size as u64, ep.rate_bps);
                (ep, release, ser, idle)
            }
        };
        let done = Reserved {
            done_ps: (now + ser).as_ps(),
            key,
        };
        // The port was idle, so any earlier reserved completion has passed.
        let passed = ep.reserved.take().is_some();
        if idle && ser.as_ps() > 0 && ep.queues_empty() {
            ep.reserved = Some(done);
            if let Some(release) = release {
                self.switch_mut(node).defer_release(done, port, release);
            }
        } else {
            ep.busy = true;
            let ev = Event::EgressDone {
                port: self.topo.port_id(node, port),
                release,
            };
            self.sched.schedule_reserved(done, ev);
        }
        self.perf.completions_elided += passed as u64;
        let at = now + ser + prop;
        let to = self.topo.port_id(peer, peer_port);
        self.sched
            .send_frame(&mut self.arena, node, peer, to, at, h);
    }

    pub(super) fn on_egress_done(&mut self, node: Node, port: u16, release: Option<Release>) {
        let cursor = self.sched.cursor();
        self.port_and_arena(node, port).0.busy = false;
        if let Some(sw) = self.switch_of(node) {
            sw.settle(cursor);
            if let Some((ingress, bytes)) = release {
                let action = sw.release_data(ingress, bytes.get() as u32);
                self.apply_pfc_action(node, action);
            }
        }
        self.try_transmit(node, port);
    }

    /// Schedule the completion `port` reserved, under the key it reserved
    /// and with its deferred buffer release: something can now observe it.
    fn materialize_egress(&mut self, node: Node, port: u16) {
        let (ep, _) = self.port_and_arena(node, port);
        let done = ep.reserved.take().expect("a reserved completion");
        ep.busy = true;
        let release = self
            .switch_of(node)
            .and_then(|sw| sw.reclaim_release(done.key));
        let ev = Event::EgressDone {
            port: self.topo.port_id(node, port),
            release,
        };
        self.sched.schedule_reserved(done, ev);
    }

    fn apply_pfc_action(&mut self, node: Node, action: PfcAction) {
        let now = self.now();
        let prop = SimDuration(self.cfg.topo.link_delay_ps);
        let (port, pause) = match action {
            PfcAction::None => return,
            PfcAction::SendPause(p) => (p, true),
            PfcAction::SendResume(p) => (p, false),
        };
        if pause {
            // A release charged to this ingress may now send the RESUME,
            // so every completion carrying one must really fire.
            while let Some(out) = self.switch_mut(node).port_charged_to(port) {
                self.materialize_egress(node, out);
            }
        }
        let id = match node {
            Node::Leaf(l) => (false, l),
            Node::Spine(s) => (true, s),
            Node::Host(_) => unreachable!("hosts do not emit PFC"),
        };
        if pause {
            self.jot(JEffect::Pause { id, port });
        } else {
            self.jot(JEffect::Resume);
        }
        #[cfg(feature = "audit")]
        {
            // The auditor ledger tracks *physical* frames, paired against
            // live pause flags — it stays immediate even in sharded mode.
            if pause {
                self.auditor.on_pause_sent(id, port);
            } else {
                self.auditor.on_resume_sent(id, port);
            }
        }
        let (peer, peer_port) = self.topo.peer(node, port);
        self.sched.send(
            node,
            peer,
            now + prop,
            Event::PauseFrame {
                port: self.topo.port_id(peer, peer_port),
                pause,
            },
        );
    }

    /// PAUSE or RESUME of `node`'s egress `port` — a switch port or a NIC
    /// alike: the data class stops, control keeps flowing.
    pub(super) fn on_pause_frame(&mut self, node: Node, port: u16, pause: bool) {
        let now_ps = self.now().as_ps();
        let (ep, _) = self.port_and_arena(node, port);
        if ep.set_paused(pause, now_ps) && !pause {
            let dwell = SimTime(now_ps).saturating_since(SimTime(ep.paused_since_ps));
            self.jot(JEffect::PausedDwell(dwell));
            self.try_transmit(node, port);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, TopoConfig};
    use crate::fault::Fault;
    use crate::host::TransportMode;
    use rlb_workloads::FlowSpec;

    /// Elided completions driven by hand (DESIGN §9.7): two leaves, one
    /// spine, two hosts per leaf, and two flows (two packets to host 1, one
    /// to host 2) that start only at 1 s, so
    /// until then every event is one a test put in the queue. Frames are
    /// 1 000 bytes, 200 ns on a 40 Gbps port; a link delay is 2 µs, so no
    /// test window reaches a frame's next hop.
    mod elided {
        use super::*;
        use crate::config::SwitchConfig;
        use crate::fault::TimedFault;
        use crate::packet::{Packet, PacketKind};

        const SER: u64 = 200_000;

        fn sim(switch: SwitchConfig, faults: Vec<TimedFault>) -> Simulation {
            let cfg = SimConfig {
                topo: TopoConfig {
                    n_leaves: 2,
                    n_spines: 1,
                    hosts_per_leaf: 2,
                    ..TopoConfig::default()
                },
                switch,
                faults,
                ..SimConfig::default()
            };
            let late = SimTime::from_ms(1000);
            let flows = vec![
                FlowSpec::new(late, 0, 1, 2_000),
                FlowSpec::new(late, 0, 2, 1),
            ];
            let s = Simulation::new(cfg, flows);
            assert_eq!(tx_delay(1000, s.cfg.topo.link_rate_bps).as_ps(), SER);
            s
        }

        /// A data frame of `flow`, host 0 to host `flow + 1`.
        fn frame(flow: u32, bytes: u16) -> Packet {
            Packet::data(flow, 0, bytes, flow + 1, 0)
        }

        /// Queue the arrival of `pkt`, a frame no host sent, at `node`'s
        /// `port` at `at` ps; the auditor counts data injected, so the
        /// run's books balance.
        fn inject(s: &mut Simulation, at: u64, node: Node, port: u16, pkt: Packet) {
            #[cfg(feature = "audit")]
            if !pkt.kind.is_control() {
                s.auditor.on_injected();
            }
            let pkt = pkt.park(&mut s.arena, 0);
            let port = s.topo.port_id(node, port);
            s.sched
                .schedule_global(SimTime(at), Event::LinkArrive { port, pkt });
        }

        /// Dispatch every event before `t` ps.
        fn run_to(s: &mut Simulation, t: u64) {
            s.dispatch_window(SimTime(t));
            // The books balance with releases pending or not.
            #[cfg(feature = "audit")]
            s.audit_cut(false).assert_conserved();
        }

        /// Leaf 0: a frame from host 0 to host 1 finds the port idle and
        /// nobody behind it, so its completion is only reserved; a second
        /// one queued behind it schedules that completion, which then
        /// launches the second frame at exactly the reserved instant.
        #[test]
        fn a_frame_queued_behind_launches_at_the_reserved_time() {
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let (leaf, out) = (Node::Leaf(0), 1usize);
            inject(&mut s, 0, leaf, 0, frame(0, 1000));
            inject(&mut s, 10, leaf, 0, frame(0, 1000));
            run_to(&mut s, 1);
            let ep = &s.leaves[0].egress[out];
            assert_eq!(ep.reserved.map(|r| r.done_ps), Some(SER));
            assert!(!ep.busy);
            run_to(&mut s, 11);
            let ep = &s.leaves[0].egress[out];
            assert!(
                ep.busy && ep.reserved.is_none(),
                "the queued frame scheduled it"
            );
            assert_eq!(s.leaves[0].ingress_bytes[0], 2000);
            run_to(&mut s, SER);
            assert_eq!(s.perf.events_egress_done, 0);
            run_to(&mut s, SER + 1);
            assert_eq!(s.perf.events_egress_done, 1);
            let ep = &s.leaves[0].egress[out];
            assert_eq!(
                ep.reserved.map(|r| r.done_ps),
                Some(2 * SER),
                "launched at SER"
            );
            // The first frame released by its event; the second's release waits.
            assert_eq!(s.leaves[0].ingress_bytes[0], 1000);
            assert_eq!(s.perf.completions_elided, 0);
        }

        /// A PAUSE of the ingress a deferred release is charged to: that
        /// release could now resume it, so its completion is scheduled, and
        /// it does send the RESUME.
        #[test]
        fn a_pause_of_the_charged_ingress_schedules_the_completion() {
            let pfc = SwitchConfig {
                pfc_threshold_bytes: 1500,
                pfc_hysteresis_bytes: 400,
                ..SwitchConfig::default()
            };
            let mut s = sim(pfc, Vec::new());
            let leaf = Node::Leaf(0);
            // To host 1, then through the uplink to host 2: the second
            // admission takes ingress 0 to 2 000 bytes, over the threshold.
            inject(&mut s, 0, leaf, 0, frame(0, 1000));
            inject(&mut s, 10, leaf, 0, frame(1, 1000));
            run_to(&mut s, 1);
            assert!(s.leaves[0].egress[1].reserved.is_some());
            run_to(&mut s, 11);
            assert_eq!(s.counters.pause_frames, 1);
            let ep = &s.leaves[0].egress[1];
            assert!(ep.busy && ep.reserved.is_none(), "the PAUSE scheduled it");
            assert!(
                s.leaves[0].egress[2].busy,
                "a paused ingress's frame schedules"
            );
            run_to(&mut s, SER + 1);
            // 2 000 − 1 000 bytes < 1 500 − 400: the release resumed host 0.
            assert_eq!(s.counters.resume_frames, 1);
            assert_eq!(s.perf.events_egress_done, 1);
        }

        /// Spine 0 toward leaf 1 while the link flaps, with 20 000-byte
        /// frames (4 µs each, so a flap at least one link delay apart fits
        /// inside one). A link-up kick during a reserved completion with
        /// nothing queued schedules nothing; a frame frozen behind the
        /// downed link after the completion passed launches at the next
        /// kick, and the passed completion counts as elided.
        #[test]
        fn a_link_up_kick_launches_the_frozen_frame() {
            const BIG: u64 = 20 * SER;
            let flap = |t: u64, down: bool| {
                let (leaf, spine) = (1, 0);
                let fault = if down {
                    Fault::LinkDown { leaf, spine }
                } else {
                    Fault::LinkUp { leaf, spine }
                };
                TimedFault::new(SimTime(t), fault)
            };
            const US: u64 = 1_000_000;
            let faults = vec![
                flap(US / 2, true),
                flap(5 * US / 2, false),
                flap(9 * US / 2, true),
                flap(7 * US, false),
            ];
            let mut s = sim(SwitchConfig::default(), faults);
            let spine = Node::Spine(0);
            inject(&mut s, 0, spine, 0, frame(1, 20_000));
            inject(&mut s, 5 * US, spine, 0, frame(1, 20_000));
            run_to(&mut s, 5 * US / 2 + 1);
            let ep = &s.spines[0].egress[1];
            assert_eq!(ep.reserved.map(|r| r.done_ps), Some(BIG));
            assert!(!ep.busy, "kicked, nothing to launch");
            run_to(&mut s, 5 * US + 1);
            assert_eq!(
                s.spines[0].egress[1].data_q.len(),
                1,
                "frozen behind the link"
            );
            run_to(&mut s, 7 * US + 1);
            let ep = &s.spines[0].egress[1];
            assert_eq!(
                ep.reserved.map(|r| r.done_ps),
                Some(7 * US + BIG),
                "launched at 7 µs"
            );
            assert_eq!(s.perf.events_egress_done, 0);
            assert_eq!(s.perf.completions_elided, 1);
            assert_eq!(s.counters.faults_applied, 4);
        }

        /// The hard stop: a reserved completion past it is the pending
        /// event the run ends on, as its event would have been, and one
        /// before it counts as elided when the run concludes.
        #[test]
        fn a_hard_stop_sees_reserved_completions() {
            for (stop, end, elided) in [(SER / 2, SER, 0), (SER + 1, SER + 2_000_000, 1)] {
                let mut s = sim(SwitchConfig::default(), Vec::new());
                s.cfg.hard_stop = SimTime(stop);
                inject(&mut s, 0, Node::Spine(0), 0, frame(1, 1000));
                let res = s.run();
                assert_eq!(res.end_time, SimTime(end), "hard stop at {stop}");
                assert_eq!(res.events_processed, 1);
                assert_eq!(res.perf.completions_elided, elided, "hard stop at {stop}");
            }
        }

        /// A frame at exactly the reserved picosecond: keyed before the
        /// reserved completion it finds the port busy and queues, which
        /// schedules the completion; keyed after, it finds the port idle.
        /// Either way it leaves at that picosecond.
        #[test]
        fn same_picosecond_arrivals_order_by_key_around_the_reservation() {
            for before in [true, false] {
                let mut s = sim(SwitchConfig::default(), Vec::new());
                let spine = Node::Spine(0);
                inject(&mut s, 0, spine, 0, frame(1, 1000));
                run_to(&mut s, 1);
                let r = s.spines[0].egress[1].reserved.expect("reserved");
                let key = if before { r.key - 1 } else { r.key + 1 };
                #[cfg(feature = "audit")]
                s.auditor.on_injected();
                let at = Reserved {
                    done_ps: r.done_ps,
                    key,
                };
                let pkt = frame(1, 1000).park(&mut s.arena, 0);
                let port = s.topo.port_id(spine, 0);
                s.sched
                    .schedule_reserved(at, Event::LinkArrive { port, pkt });
                run_to(&mut s, r.done_ps + 1);
                let ep = &s.spines[0].egress[1];
                assert_eq!(
                    ep.reserved.map(|r| r.done_ps),
                    Some(2 * SER),
                    "before: {before}"
                );
                assert_eq!(s.perf.events_egress_done, before as u64);
                assert_eq!(s.perf.completions_elided, !before as u64);
            }
        }

        /// Host 1 sends no flow, so its NIC has nothing to follow the ACK
        /// for an arriving frame and only reserves that completion. A
        /// second ACK queued behind it schedules the completion under the
        /// reserved key, which launches the second ACK at the reserved
        /// instant.
        #[test]
        fn a_nic_ack_queued_behind_launches_at_the_reserved_time() {
            const ACK_SER: u64 = 12_800;
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let host = Node::Host(1);
            inject(&mut s, 0, host, 0, frame(0, 1000));
            let second = Packet::data(0, 1, 1000, 1, 0);
            inject(&mut s, 10, host, 0, second);
            run_to(&mut s, 1);
            let nic = &s.hosts[1].nic;
            let r = nic.reserved.expect("the ACK's completion is reserved");
            assert_eq!(r.done_ps, ACK_SER);
            assert_eq!(tx_delay(64, nic.rate_bps).as_ps(), ACK_SER);
            assert!(!nic.busy);
            run_to(&mut s, 11);
            let nic = &s.hosts[1].nic;
            assert!(
                nic.busy && nic.reserved.is_none(),
                "the queued ACK scheduled it"
            );
            assert_eq!(nic.ctrl_q.len(), 1);
            let (at, key, ev) = s.sched.pop_before(SimTime(ACK_SER + 1)).expect("scheduled");
            assert_eq!(
                (at.as_ps(), key),
                (r.done_ps, r.key),
                "under the reserved key"
            );
            let nic = s.topo.port_id(host, 0);
            assert!(matches!(ev, Event::EgressDone { port, release: None } if port == nic));
            s.dispatch(ev);
            let nic = &s.hosts[1].nic;
            assert_eq!(
                nic.reserved.map(|r| r.done_ps),
                Some(2 * ACK_SER),
                "launched at done_ps"
            );
            assert!(nic.ctrl_q.is_empty());
            assert_eq!(s.perf.events_host_egress_done, 1);
            assert_eq!(s.perf.events_egress_done, 0);
            assert_eq!(s.perf.completions_elided, 0);
        }

        /// A PAUSE at host 0's NIC holds its flows' data when they start;
        /// the RESUME books the dwell as paused port time and kicks the
        /// NIC, which sends at once.
        #[test]
        fn a_nic_holds_data_while_paused_and_resumes_on_resume() {
            const LATE: u64 = 1_000_000_000_000;
            let mut s = sim(SwitchConfig::default(), Vec::new());
            let nic = s.topo.port_id(Node::Host(0), 0);
            let pfc = |pause| Event::PauseFrame { port: nic, pause };
            s.sched.schedule_global(SimTime(LATE - 10), pfc(true));
            s.sched.schedule_global(SimTime(LATE + 1_000), pfc(false));
            run_to(&mut s, LATE + 1);
            assert!(s.flows.iter().all(|f| f.tx.is_some()), "started");
            let ep = &s.hosts[0].nic;
            assert!(ep.paused && !ep.busy && ep.reserved.is_none(), "data held");
            assert!(s.flows.iter().all(|f| f.packets_sent() == 0));
            run_to(&mut s, LATE + 1_001);
            assert_eq!(s.paused_port_time, SimDuration(1_010));
            let ep = &s.hosts[0].nic;
            assert!(!ep.paused && ep.busy, "the RESUME kicked the NIC");
            assert_eq!(s.flows[0].packets_sent(), 1);
            assert_eq!(s.perf.events_pause_frame, 2);
        }

        /// The `sim` fabric running `flows` under `mode`.
        fn nic_sim(mode: TransportMode, flows: Vec<FlowSpec>) -> Simulation {
            let mut s = sim(SwitchConfig::default(), Vec::new());
            s.cfg.transport.mode = mode;
            Simulation::new(s.cfg, flows)
        }

        const LATE: u64 = 1_000_000_000_000;

        /// Bytes of a full data frame on the wire.
        fn data_wire(s: &Simulation) -> u64 {
            (s.cfg.transport.mtu_bytes + s.cfg.transport.hdr_bytes) as u64
        }

        /// Serialization of a full data frame on host 0's NIC.
        fn data_ser(s: &Simulation) -> u64 {
            tx_delay(data_wire(s), s.hosts[0].nic.rate_bps).as_ps()
        }

        /// A one-packet flow at a go-back-N NIC: once its packet is on the
        /// wire it has nothing left to send, so the completion is only
        /// reserved, though the flow is live until its ACK.
        #[test]
        fn a_nic_whose_flows_have_nothing_to_send_reserves() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            run_to(&mut s, LATE + 1);
            assert_eq!(s.hosts[0].live(), [0]);
            let nic = &s.hosts[0].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(LATE + ser));
            assert!(!nic.busy);
            run_to(&mut s, LATE + ser + 1);
            assert_eq!(s.perf.events_host_egress_done, 0);
            assert_eq!(s.flows[0].packets_sent(), 1);
        }

        /// A go-back-N NIC whose one flow with data is pacing-limited past
        /// the frame's end, with the wake for that deadline already armed:
        /// the completion would find nothing to send and arm nothing, so
        /// it is reserved, and the wake sends at the deadline.
        #[test]
        fn a_nic_with_its_wake_armed_before_the_deadline_reserves() {
            // Flow 0 (three packets) paces; flow 1 (one packet) starts
            // once flow 0's second frame is done and its wake is armed.
            let probe = nic_sim(TransportMode::GoBackN, Vec::new());
            let ser = data_ser(&probe);
            let flows = vec![
                FlowSpec::new(SimTime(LATE), 0, 1, 3_000),
                FlowSpec::new(SimTime(LATE + 2 * ser + 1), 0, 2, 1000),
            ];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            run_to(&mut s, LATE + 1);
            // Two CNPs quarter flow 0's rate: from its second packet on,
            // it may send one frame per four frame times.
            let wire = data_wire(&s);
            let tx = s.flows[0].tx.as_deref_mut().expect("sending");
            tx.dcqcn.on_cnp();
            tx.dcqcn.on_cnp();
            let wake = LATE + ser + tx.dcqcn.pacing_delay_ps(wire);
            let done = LATE + 3 * ser + 1;
            assert!(wake > done);
            run_to(&mut s, LATE + 2 * ser + 1);
            assert_eq!(
                s.hosts[0].wake_at,
                Some(wake),
                "armed by the second completion"
            );
            assert_eq!(s.perf.events_host_egress_done, 2);
            run_to(&mut s, LATE + 2 * ser + 2);
            let nic = &s.hosts[0].nic;
            assert_eq!(nic.reserved.map(|r| r.done_ps), Some(done), "flow 1 sent");
            assert!(!nic.busy, "deadline {wake} > {done}, wake armed between");
            run_to(&mut s, wake + 1);
            assert_eq!(s.perf.events_host_egress_done, 2);
            assert_eq!(s.perf.completions_elided, 1, "passed before the wake sent");
            assert_eq!(s.flows[0].packets_sent(), 3);
        }

        /// A frame queued behind a reserved NIC completion — the ACK for
        /// data arriving at host 0 — schedules it under its key, and the
        /// ACK leaves at the reserved instant.
        #[test]
        fn an_ack_queued_behind_a_quiet_nic_schedules_its_completion() {
            let flows = vec![
                FlowSpec::new(SimTime(LATE), 0, 1, 1000),
                FlowSpec::new(SimTime(2 * LATE), 3, 0, 1000),
            ];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            let pkt = Packet::data(1, 0, 1000, 0, 0);
            inject(&mut s, LATE + 10, Node::Host(0), 0, pkt);
            run_to(&mut s, LATE + 1);
            let r = s.hosts[0].nic.reserved.expect("reserved");
            run_to(&mut s, LATE + 11);
            let nic = &s.hosts[0].nic;
            assert!(
                nic.busy && nic.reserved.is_none(),
                "the queued ACK scheduled it"
            );
            assert_eq!(nic.ctrl_q.len(), 1);
            let (at, key, ev) = s
                .sched
                .pop_before(SimTime(LATE + ser + 1))
                .expect("scheduled");
            assert_eq!(
                (at.as_ps(), key),
                (r.done_ps, r.key),
                "under the reserved key"
            );
            s.dispatch(ev);
            let nic = &s.hosts[0].nic;
            assert_eq!(
                nic.reserved.map(|r| r.done_ps),
                Some(LATE + ser + 12_800),
                "ACK at done"
            );
            assert_eq!(s.perf.events_host_egress_done, 1);
        }

        /// A NAK before a reserved NIC completion rewinds the flow, which
        /// then has data again: the kick schedules the completion, and the
        /// retransmission leaves when it fires.
        #[test]
        fn a_nak_before_a_quiet_nic_completion_schedules_it() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::GoBackN, flows);
            let ser = data_ser(&s);
            let data = Packet::data(0, 0, data_wire(&s) as u16, 1, 0);
            let nak = Packet::response(PacketKind::Nak, &data, 0, 0, 64);
            // A control frame: the audit's books count data only.
            inject(&mut s, LATE + 10, Node::Host(0), 0, nak);
            run_to(&mut s, LATE + 1);
            assert!(s.hosts[0].nic.reserved.is_some());
            run_to(&mut s, LATE + 11);
            let nic = &s.hosts[0].nic;
            assert!(
                nic.busy && nic.reserved.is_none(),
                "the NAK's kick scheduled it"
            );
            assert_eq!(s.flows[0].naks(), 1);
            run_to(&mut s, LATE + ser + 1);
            assert_eq!(s.perf.events_host_egress_done, 1);
            assert_eq!(s.flows[0].packets_sent(), 2, "resent at done");
        }

        /// Selective repeat keeps the live-flow rule: an IRN flow's NIC
        /// completion is scheduled whatever the flows hold.
        #[test]
        fn an_irn_nic_with_a_live_flow_schedules() {
            let flows = vec![FlowSpec::new(SimTime(LATE), 0, 1, 1000)];
            let mut s = nic_sim(TransportMode::SelectiveRepeat, flows);
            run_to(&mut s, LATE + 1);
            let nic = &s.hosts[0].nic;
            assert!(nic.busy && nic.reserved.is_none());
            assert_eq!(s.flows[0].packets_sent(), 1);
        }
    }
}
