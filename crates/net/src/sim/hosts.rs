//! The host plane: flow starts, the NIC's data source, the receive path
//! and the transport timers. Frames leave through the fabric's transmitter
//! (a NIC is an `EgressPort`); ACKs and completions reach `Control`.

use super::{Event, Sched, Simulation};
use crate::host::{FlowState, Rx, TransportMode, Tx};
use crate::packet::{Packet, PacketKind};
use crate::topology::Node;
use crate::trace::TraceEvent;
use rlb_engine::{SimDuration, SimTime};

impl Simulation {
    /// Queue flow `f`'s start under its construction key: every shard
    /// derives the same key for the same flow, so ownership gaps in the id
    /// sequence are harmless, and a start armed by its predecessor pops
    /// exactly where one queued at construction would.
    pub(super) fn arm_start(sched: &mut Sched, flows: &[FlowState], f: u32) {
        let at = flows[f as usize].spec.start;
        sched.schedule_construct(at, f as u64, Event::FlowStart(f));
    }

    /// `node` is a NIC with a live flow. A NIC's flows are its data source,
    /// standing where a switch port's `data_q` stands, so something may
    /// follow the frame it is sending even with its queues empty.
    #[inline(always)]
    pub(super) fn nic_has_live_flow(&self, node: Node) -> bool {
        matches!(node, Node::Host(h) if !self.hosts[h as usize].live().is_empty())
    }

    /// No live flow of host `h`'s, as the flows stand, gives the
    /// completion of a frame ending at `done_ps` anything to do: under
    /// go-back-N, where only a kick or the clock makes a flow eligible, no
    /// live flow has data left, or every pacing deadline is after
    /// `done_ps` and a wake already armed at `w`, `done_ps ≤ w ≤` the
    /// earliest, sends or re-arms for them. Whatever changes the flows
    /// before `done_ps` kicks the NIC, which then schedules the
    /// completion. Selective repeat keeps the live-flow rule: an ACK there
    /// can hand a flow a PSN (DESIGN §9.7). Out of line: it scans the live
    /// flows, and `launch` is every port's hot path.
    #[inline(never)]
    pub(super) fn nic_quiet_until(&self, h: u32, done_ps: u64) -> bool {
        if self.transport.mode != TransportMode::GoBackN {
            return false;
        }
        let host = &self.hosts[h as usize];
        match host.earliest_deadline(&self.flows) {
            None => true,
            Some(d) => d > done_ps && host.wake_at.is_some_and(|w| done_ps <= w && w <= d),
        }
    }

    pub(super) fn on_flow_start(&mut self, f: u32) {
        let now = self.now();
        debug_assert_eq!(self.starts.last(), Some(&f));
        self.starts.pop();
        if let Some(&next) = self.starts.last() {
            Self::arm_start(&mut self.sched, &self.flows, next);
        }
        let host = {
            let fs = &mut self.flows[f as usize];
            fs.tx = Some(self.transport.sender(fs.total_packets, now.as_ps()));
            fs.spec.src_host
        };
        self.hosts[host as usize].start(f);
        // The global DCQCN ticks are construction-armed (see `new_shard`);
        // only the per-flow RTO probe starts here.
        let rto = SimDuration(self.cfg.transport.rto_ps);
        self.sched.schedule(Node::Host(host), now + rto, Event::RtoCheck(f));
        self.try_transmit(Node::Host(host), 0);
    }

    pub(super) fn on_host_wake(&mut self, h: u32) {
        if self.hosts[h as usize].wake_at == Some(self.now().as_ps()) {
            self.hosts[h as usize].wake_at = None;
        }
        self.try_transmit(Node::Host(h), 0);
    }

    /// The data source of a free NIC whose data class may leave: one
    /// packet from the round-robin-eligible flow, else a pacing wake-up.
    /// Not inlined: it would triple `try_transmit`, the switch ports' hot
    /// path.
    #[inline(never)]
    pub(super) fn nic_pull(&mut self, h: u32) {
        let now = self.now();
        let picked = self.hosts[h as usize].pick_eligible(&self.flows, now.as_ps());
        if let Some(f) = picked {
            let pkt = {
                let mtu = self.cfg.transport.mtu_bytes;
                let hdr = self.cfg.transport.hdr_bytes;
                let fs = &mut self.flows[f as usize];
                let psn = fs.tx.as_deref_mut().and_then(|s| s.tx.take_next());
                let psn = psn.expect("eligible flow has data");
                let wire = fs.payload_bytes(psn, mtu) + hdr;
                let s = fs.tx.as_deref_mut().expect("an eligible flow is sending");
                s.dcqcn.on_bytes_sent(wire as u64);
                let gap = s.dcqcn.pacing_delay_ps(wire as u64);
                s.next_eligible_ps = s.next_eligible_ps.max(now.as_ps()) + gap;
                Packet::data(f, psn, wire, fs.spec.src_host, fs.spec.dst_host, now.as_ps())
            };
            if self.traces.wants(f) {
                self.traces.record(f, now.as_ps(), pkt.psn, TraceEvent::Sent);
            }
            self.launch(Node::Host(h), 0, pkt);
            return;
        }
        // Nothing eligible now: wake at the earliest pacing deadline.
        let deadline = self.hosts[h as usize].earliest_deadline(&self.flows);
        if let Some(d) = deadline {
            let d = d.max(now.as_ps());
            let sooner = self.hosts[h as usize]
                .wake_at
                .is_none_or(|w| d < w || w < now.as_ps());
            if sooner {
                self.hosts[h as usize].wake_at = Some(d);
                self.sched.schedule(Node::Host(h), SimTime(d), Event::HostWake(h));
            }
        }
    }

    pub(super) fn on_host_rx(&mut self, h: u32, pkt: Packet) {
        let now = self.now();
        match pkt.kind {
            PacketKind::Data => {
                debug_assert_eq!(pkt.dst_host, h);
                #[cfg(feature = "audit")]
                self.auditor.on_arrived();
                let ctrl_bytes = self.cfg.transport.ctrl_bytes;
                let cnp_interval = self.cfg.transport.dcqcn.cnp_interval_ps;
                let fs = &mut self.flows[pkt.flow as usize];
                // DCQCN NP: CE-marked arrivals elicit CNPs (rate-limited),
                // regardless of PSN order.
                let mut responses: [Option<Packet>; 2] = [None, None];
                if pkt.ecn && fs.cnp_gen.on_marked_packet(now.as_ps(), cnp_interval) {
                    responses[0] = Some(Packet::response(
                        PacketKind::Cnp,
                        &pkt,
                        0,
                        ctrl_bytes));
                }
                // Once every packet is delivered the receiver half is gone
                // and a late arrival is a duplicate that nothing answers.
                let mut trace_ev = TraceEvent::Duplicate;
                match fs.receiver(&self.transport) {
                    None => {}
                    Some(Rx::Gbn(rx)) => match rx.on_packet(pkt.psn) {
                        rlb_transport::RxAction::Deliver { ack_psn } => {
                            trace_ev = TraceEvent::Delivered;
                            responses[1] =
                                Some(Packet::response(PacketKind::Ack, &pkt, ack_psn, ctrl_bytes));
                        }
                        rlb_transport::RxAction::OutOfOrder { nak_psn, ood } => {
                            trace_ev = TraceEvent::OutOfOrder { ood };
                            self.ood_histogram.record(ood as u64);
                            if let Some(nak) = nak_psn {
                                responses[1] =
                                    Some(Packet::response(PacketKind::Nak, &pkt, nak, ctrl_bytes));
                            }
                        }
                        rlb_transport::RxAction::Duplicate => {}
                    },
                    Some(Rx::Irn(rx)) => {
                        if pkt.psn > rx.cumulative() {
                            self.ood_histogram.record((pkt.psn - rx.cumulative()) as u64);
                        }
                        let ood = pkt.psn.saturating_sub(rx.cumulative());
                        if let Some(ack) = rx.on_packet(pkt.psn) {
                            trace_ev = if ack.nack {
                                TraceEvent::OutOfOrder { ood }
                            } else {
                                TraceEvent::Delivered
                            };
                            let mut resp =
                                Packet::response(PacketKind::Ack, &pkt, ack.sack, ctrl_bytes);
                            resp.cum = ack.cumulative;
                            resp.nack = ack.nack;
                            responses[1] = Some(resp);
                        }
                    }
                }
                fs.settle_receiver();
                if self.traces.wants(pkt.flow) {
                    self.traces.record(pkt.flow, now.as_ps(), pkt.psn, trace_ev);
                }
                for r in responses.into_iter().flatten() {
                    self.enqueue_or_launch(Node::Host(h), 0, r);
                }
            }
            PacketKind::Ack => {
                // RTT sample + CE echo → the source leaf's estimators.
                let src_leaf = self.topo.leaf_of_host(h);
                let dst_leaf = self.topo.leaf_of_host(pkt.src_host);
                self.control.on_ack(src_leaf, dst_leaf, &pkt, now);
                let fs = &mut self.flows[pkt.flow as usize];
                let Some(s) = fs.tx.as_deref_mut() else {
                    // A late ACK for a finished flow: all it still counts
                    // is IRN's NACK flag (a go-back-N ACK never carries it).
                    if pkt.nack {
                        fs.late_nak();
                    }
                    return;
                };
                let mut irn_has_retx = false;
                match &mut s.tx {
                    Tx::Gbn(tx) => tx.on_ack(pkt.psn),
                    Tx::Irn(tx) => {
                        tx.on_ack(rlb_transport::IrnAck {
                            cumulative: pkt.cum,
                            sack: pkt.psn,
                            nack: pkt.nack,
                        });
                        irn_has_retx = tx.peek_next().is_some();
                    }
                }
                if s.tx.is_complete() {
                    fs.finish(now.as_ps());
                    self.completed += 1;
                    // Completions arrive in canonical order, so the last
                    // write is this shard's maximum completion point.
                    self.last_completion = Some(self.sched.cursor());
                    self.control.on_flow_complete(src_leaf, pkt.flow as u64);
                    self.hosts[h as usize].finish(pkt.flow);
                } else if irn_has_retx {
                    // A NACK opened retransmission work (or the window
                    // reopened): kick the NIC.
                    self.try_transmit(Node::Host(h), 0);
                }
            }
            PacketKind::Nak => {
                if self.traces.wants(pkt.flow) {
                    self.traces
                        .record(pkt.flow, now.as_ps(), pkt.psn, TraceEvent::NakReceived);
                }
                let fs = &mut self.flows[pkt.flow as usize];
                match fs.tx.as_deref_mut() {
                    Some(s) => {
                        if let Tx::Gbn(tx) = &mut s.tx {
                            tx.on_nak(pkt.psn);
                        }
                    }
                    // A stale NAK after the final ACK still counts.
                    None => fs.late_nak(),
                }
                self.try_transmit(Node::Host(h), 0);
            }
            PacketKind::Cnp => {
                // A finished flow's rate no longer matters.
                if let Some(s) = self.flows[pkt.flow as usize].tx.as_deref_mut() {
                    s.dcqcn.on_cnp();
                }
            }
            PacketKind::Cnm { .. } => {
                // Hosts do not participate in rerouting; drop.
            }
        }
    }

    /// Global alpha-update tick: one *replicated* event per shard services
    /// every live flow of every host — a replica's unowned hosts never see a
    /// `FlowStart`, so their live prefixes are empty — then re-arms
    /// unconditionally: the fixed tick phase is part of the canonical-order
    /// contract between shard replicas (see `new_shard`). The run still
    /// terminates: completion and the hard stop end the event loop, not
    /// queue drain.
    pub(super) fn on_alpha_tick(&mut self) {
        for &f in self.hosts.iter().flat_map(|h| h.live()) {
            if let Some(s) = self.flows[f as usize].tx.as_deref_mut() {
                s.dcqcn.on_alpha_timer();
            }
        }
        let dt = SimDuration(self.cfg.transport.dcqcn.alpha_timer_ps);
        let at = self.now() + dt;
        self.sched.schedule_global(at, Event::AlphaTick);
    }

    /// Global rate-increase tick over the same live prefixes; re-arms like
    /// `on_alpha_tick`. A host is kicked at most once per tick (ascending
    /// host id — deterministic), however many of its flows just got a rate
    /// increase and could be eligible sooner.
    pub(super) fn on_increase_tick(&mut self) {
        let dt = SimDuration(self.cfg.transport.dcqcn.increase_timer_ps);
        let at = self.now() + dt;
        self.sched.schedule_global(at, Event::IncreaseTick);
        for h in 0..self.hosts.len() {
            let mut kick = false;
            for &f in self.hosts[h].live() {
                if let Some(s) = self.flows[f as usize].tx.as_deref_mut() {
                    s.dcqcn.on_increase_timer();
                    kick = true;
                }
            }
            if kick {
                self.try_transmit(Node::Host(h as u32), 0);
            }
        }
    }

    pub(super) fn on_rto_check(&mut self, f: u32) {
        let fs = &mut self.flows[f as usize];
        let host = fs.spec.src_host;
        // A finished flow's probe stops here, unarmed.
        let Some(s) = fs.tx.as_deref_mut() else {
            return;
        };
        let mark = s.tx.progress_mark();
        let stuck = mark == s.last_una_at_rto && s.tx.has_outstanding();
        s.last_una_at_rto = mark;
        if stuck && s.tx.on_timeout() {
            if self.traces.wants(f) {
                let mark = s.tx.progress_mark();
                self.traces
                    .record(f, self.now().as_ps(), mark, TraceEvent::TimeoutRewind);
            }
            self.try_transmit(Node::Host(host), 0);
        }
        let dt = SimDuration(self.cfg.transport.rto_ps);
        let at = self.now() + dt;
        self.sched.schedule(Node::Host(host), at, Event::RtoCheck(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SimConfig, TopoConfig};
    use rlb_workloads::FlowSpec;

    /// The shape of `shard_equivalence.rs`'s late-frame golden (pause-heavy
    /// DRILL+RLB dumbbell, seed 3): the CNPs its receivers send, those for
    /// ECN-marked duplicates after their sender finished included. Recorded
    /// at commit 5962e2d, the last one that kept every flow's transport
    /// state from construction to the end of the run.
    #[test]
    fn late_frame_run_sends_the_recorded_cnps() {
        use crate::scenario::{MotivationConfig, Scenario};
        let mc = MotivationConfig {
            n_paths: 12,
            n_background: 12,
            n_burst_senders: 2,
            n_burst_senders_dst: 2,
            flows_per_burst: 40,
            bursts: 3,
            affected_paths: 4,
            congested_flow_bytes: 20_000_000,
            background_load: 0.25,
            horizon: SimTime::from_ms(2),
            seed: 3,
        };
        let rlb = Some(rlb_core::RlbConfig::default());
        let sc = Scenario::motivation(&mc, rlb_lb::Scheme::Drill, rlb);
        let mut s = Simulation::new(sc.cfg, sc.flows);
        s.dispatch_window(SimTime(u64::MAX));
        assert_eq!(s.completed, s.flows.len(), "every flow completes");
        let cnps: u64 = s.flows.iter().map(|f| f.cnp_gen.cnps_sent).sum();
        assert_eq!(cnps, 31_618);
    }

    /// Frames that reach a flow after its transport halves are gone are
    /// answered from the resident record, as the halves answered them
    /// (DESIGN §9.6).
    mod late_frames {
        use super::*;
        use crate::packet::Packet;

        /// Host 0's one-packet flow to host 1 run to its final ACK, under
        /// `mode`: both halves are gone.
        fn finished(mode: TransportMode) -> Simulation {
            let mut cfg = SimConfig {
                topo: TopoConfig {
                    n_leaves: 2,
                    n_spines: 1,
                    hosts_per_leaf: 2,
                    ..TopoConfig::default()
                },
                ..SimConfig::default()
            };
            cfg.transport.mode = mode;
            let flows = vec![FlowSpec::new(SimTime::ZERO, 0, 1, 1000)];
            let mut s = Simulation::new(cfg, flows);
            s.dispatch_window(SimTime(u64::MAX));
            let f = &s.flows[0];
            assert!(f.is_complete() && f.delivered && f.tx.is_none() && f.rx.is_none());
            assert_eq!((f.packets_sent(), f.naks(), f.ooo_packets()), (1, 0, 0));
            s
        }

        fn data(ecn: bool) -> Packet {
            let mut pkt = Packet::data(0, 0, 1048, 0, 1, 0);
            pkt.ecn = ecn;
            pkt
        }

        /// A stale NAK still counts, and still kicks the NIC.
        #[test]
        fn a_nak_after_the_final_ack_counts() {
            let mut s = finished(TransportMode::GoBackN);
            let nak = Packet::response(PacketKind::Nak, &data(false), 0, 64);
            s.on_host_rx(0, nak);
            assert_eq!(s.flows[0].naks(), 1);
            assert_eq!(s.flows[0].packets_sent(), 1, "nothing to resend");
        }

        /// A duplicate after delivery is answered by nothing; an ECN-marked
        /// one still elicits its CNP through the resident generator.
        #[test]
        fn a_duplicate_after_delivery_answers_only_its_ecn_mark() {
            let mut s = finished(TransportMode::GoBackN);
            let nic = |s: &Simulation| (s.hosts[1].nic.busy, s.hosts[1].nic.reserved.map(|r| r.key));
            let before = nic(&s);
            s.on_host_rx(1, data(false));
            assert_eq!(nic(&s), before, "no response");
            assert!(s.flows[0].rx.is_none());
            let cnps = s.flows[0].cnp_gen.cnps_sent;
            s.on_host_rx(1, data(true));
            assert_eq!(s.flows[0].cnp_gen.cnps_sent, cnps + 1);
            assert_ne!(nic(&s), before, "the CNP left");
            assert_eq!(s.flows[0].ooo_packets(), 0);
        }

        /// A late IRN ACK counts its NACK flag; a CNP or an RTO probe for a
        /// finished flow changes nothing and arms nothing.
        #[test]
        fn late_acks_cnps_and_rto_probes_change_nothing_else() {
            let mut s = finished(TransportMode::SelectiveRepeat);
            let mut ack = Packet::response(PacketKind::Ack, &data(false), 0, 64);
            ack.cum = 1;
            s.on_host_rx(0, ack);
            assert_eq!(s.flows[0].naks(), 0);
            ack.nack = true;
            s.on_host_rx(0, ack);
            assert_eq!(s.flows[0].naks(), 1);
            s.on_host_rx(0, Packet::response(PacketKind::Cnp, &data(false), 0, 64));
            let pending = s.sched.len();
            s.on_rto_check(0);
            assert_eq!(s.sched.len(), pending, "no RTO re-arm");
            assert_eq!((s.flows[0].packets_sent(), s.flows[0].naks()), (1, 1));
        }
    }
}
