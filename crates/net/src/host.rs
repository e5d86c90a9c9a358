//! Host / NIC model: per-flow sender+receiver transport state and the NIC
//! egress arbitration bookkeeping.
//!
//! The NIC's transmitter is an [`EgressPort`], the same one a switch port
//! is: it launches and completes frames, honours PFC PAUSE on the data
//! class and sends queued control frames first through the simulator's
//! one egress path. Only its data source differs. The NIC uses a *pull*
//! model, like hardware RoCE NICs: whenever the egress link is free (and
//! not PFC-paused by the leaf), it round-robins over the host's active
//! flows and transmits one packet from the first flow whose DCQCN pacing
//! clock allows. If no flow is eligible yet, the simulator schedules a
//! wake-up at the earliest pacing deadline.

use crate::switch::EgressPort;
use rlb_transport::{
    CnpGenerator, DcqcnConfig, DcqcnRate, GbnReceiver, GbnSender, IrnReceiver, IrnSender,
};
use rlb_workloads::FlowSpec;
use serde::Serialize;

/// Which reliable-delivery scheme the NICs run (see `rlb-transport`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransportMode {
    /// RoCEv2 go-back-N — the paper's lossless-DCN baseline (§2.1.2).
    GoBackN,
    /// IRN-style selective repeat with a BDP window — the abandon-PFC
    /// alternative from the paper's related work (§5).
    SelectiveRepeat,
}

/// Per-flow reliability state, one variant per transport mode.
pub enum Reliability {
    Gbn { tx: GbnSender, rx: GbnReceiver },
    Irn { tx: IrnSender, rx: IrnReceiver },
}

impl Reliability {
    pub fn new(mode: TransportMode, total_packets: u32, irn_window: u32) -> Reliability {
        match mode {
            TransportMode::GoBackN => Reliability::Gbn {
                tx: GbnSender::new(total_packets),
                rx: GbnReceiver::new(total_packets),
            },
            TransportMode::SelectiveRepeat => Reliability::Irn {
                tx: IrnSender::new(total_packets, irn_window.max(1)),
                rx: IrnReceiver::new(total_packets),
            },
        }
    }

    pub fn peek_next(&self) -> Option<u32> {
        match self {
            Reliability::Gbn { tx, .. } => tx.peek_next(),
            Reliability::Irn { tx, .. } => tx.peek_next(),
        }
    }

    pub fn take_next(&mut self) -> Option<u32> {
        match self {
            Reliability::Gbn { tx, .. } => tx.take_next(),
            Reliability::Irn { tx, .. } => tx.take_next(),
        }
    }

    pub fn sender_complete(&self) -> bool {
        match self {
            Reliability::Gbn { tx, .. } => tx.is_complete(),
            Reliability::Irn { tx, .. } => tx.is_complete(),
        }
    }

    /// Cumulative progress marker (for RTO progress detection).
    pub fn progress_mark(&self) -> u32 {
        match self {
            Reliability::Gbn { tx, .. } => tx.snd_una(),
            Reliability::Irn { tx, .. } => tx.cumulative(),
        }
    }

    pub fn has_outstanding(&self) -> bool {
        match self {
            Reliability::Gbn { tx, .. } => tx.in_flight() > 0,
            Reliability::Irn { tx, .. } => tx.in_flight() > 0,
        }
    }

    pub fn on_timeout(&mut self) -> bool {
        match self {
            Reliability::Gbn { tx, .. } => tx.on_timeout(),
            Reliability::Irn { tx, .. } => tx.on_timeout(),
        }
    }

    pub fn packets_sent(&self) -> u64 {
        match self {
            Reliability::Gbn { tx, .. } => tx.packets_sent,
            Reliability::Irn { tx, .. } => tx.packets_sent,
        }
    }

    /// NAKs (go-back-N) / NACK-flagged ACKs (IRN) seen by the sender.
    pub fn naks(&self) -> u64 {
        match self {
            Reliability::Gbn { tx, .. } => tx.naks_received,
            Reliability::Irn { tx, .. } => tx.nacks,
        }
    }

    pub fn ooo_packets(&self) -> u64 {
        match self {
            Reliability::Gbn { rx, .. } => rx.ooo_packets,
            Reliability::Irn { rx, .. } => rx.ooo_arrivals,
        }
    }

    pub fn max_ood(&self) -> u32 {
        match self {
            Reliability::Gbn { rx, .. } => rx.max_ood,
            Reliability::Irn { rx, .. } => rx.max_ood,
        }
    }
}

/// Everything the simulation tracks for one flow.
pub struct FlowState {
    pub spec: FlowSpec,
    pub total_packets: u32,
    pub reliability: Reliability,
    pub dcqcn: DcqcnRate,
    pub cnp_gen: CnpGenerator,
    /// Pacing: earliest time the sender may emit its next packet.
    pub next_eligible_ps: u64,
    pub started: bool,
    pub finish_ps: Option<u64>,
    /// Progress marker observed at the previous RTO check.
    pub last_una_at_rto: u32,
    /// RLB recirculations suffered by this flow's packets.
    pub recirculations: u64,
}

impl FlowState {
    pub fn new(spec: FlowSpec, mtu_bytes: u32, dcqcn_cfg: DcqcnConfig) -> FlowState {
        FlowState::with_mode(spec, mtu_bytes, dcqcn_cfg, TransportMode::GoBackN, 0)
    }

    pub fn with_mode(
        spec: FlowSpec,
        mtu_bytes: u32,
        dcqcn_cfg: DcqcnConfig,
        mode: TransportMode,
        irn_window: u32,
    ) -> FlowState {
        let total_packets = spec.size_bytes.div_ceil(mtu_bytes as u64).max(1) as u32;
        FlowState {
            spec,
            total_packets,
            reliability: Reliability::new(mode, total_packets, irn_window),
            dcqcn: DcqcnRate::new(dcqcn_cfg),
            cnp_gen: CnpGenerator::default(),
            next_eligible_ps: 0,
            started: false,
            finish_ps: None,
            last_una_at_rto: 0,
            recirculations: 0,
        }
    }

    pub fn is_complete(&self) -> bool {
        self.finish_ps.is_some()
    }

    /// Payload bytes of packet `psn` (the last packet may be short).
    pub fn payload_bytes(&self, psn: u32, mtu_bytes: u32) -> u32 {
        debug_assert!(psn < self.total_packets);
        if psn + 1 == self.total_packets {
            let rem = self.spec.size_bytes - (self.total_packets as u64 - 1) * mtu_bytes as u64;
            rem.max(1) as u32
        } else {
            mtu_bytes
        }
    }

    /// Ready to transmit at `now`: pacing allows and the sender has a PSN.
    pub fn eligible(&self, now_ps: u64) -> bool {
        self.started
            && !self.is_complete()
            && self.next_eligible_ps <= now_ps
            && self.reliability.peek_next().is_some()
    }

    /// Has queued data but its pacing clock hasn't expired yet.
    pub fn pending(&self) -> bool {
        self.started && !self.is_complete() && self.reliability.peek_next().is_some()
    }
}

/// NIC-level state for one host.
pub struct Host {
    /// The transmitter toward the leaf. Its `data_q` stays empty: data is
    /// pulled from the flows below when the port is free.
    pub nic: EgressPort,
    /// Flows whose sender lives on this host, unfinished, ascending id
    /// (indices into the flow table).
    tx_flows: Vec<u32>,
    /// Every started flow sits in `tx_flows[..live_end]`; when flows start
    /// in id order (every generator) nothing else does, so NIC work scales
    /// with live flows rather than with the scenario (DESIGN §9.6).
    live_end: usize,
    rr_cursor: usize,
    /// Earliest outstanding HostWake event time (dedup).
    pub wake_at: Option<u64>,
}

impl Host {
    /// A host whose NIC serializes at `nic_rate_bps`, with no flows listed.
    pub fn new(nic_rate_bps: u64) -> Host {
        Host {
            nic: EgressPort {
                rate_bps: nic_rate_bps,
                ..EgressPort::default()
            },
            tx_flows: Vec::new(),
            live_end: 0,
            rr_cursor: 0,
            wake_at: None,
        }
    }

    /// Append flow `f` to the service list at construction; ids ascend.
    pub fn list(&mut self, f: u32) {
        debug_assert!(self.tx_flows.last().is_none_or(|&l| l < f));
        self.tx_flows.push(f);
    }

    /// Flow `f` (listed) has started: the live prefix now reaches it.
    pub fn start(&mut self, f: u32) {
        let pos = self
            .tx_flows
            .binary_search(&f)
            .expect("started flow is listed");
        self.live_end = self.live_end.max(pos + 1);
    }

    /// Flow `f` (started) has completed: drop it from the service list.
    /// The cursor index stays put unless it fell off the end, so a removal
    /// before it costs the next flow one turn (DESIGN §6, frozen).
    pub fn finish(&mut self, f: u32) {
        let pos = self
            .tx_flows
            .binary_search(&f)
            .expect("finished flow is listed");
        debug_assert!(pos < self.live_end);
        self.tx_flows.remove(pos);
        self.live_end -= 1;
        if self.rr_cursor >= self.tx_flows.len() {
            self.rr_cursor = 0;
        }
    }

    /// The listed prefix that holds every started flow (unstarted ones only
    /// where starts were not id-ordered; completed ones never).
    pub fn live(&self) -> &[u32] {
        &self.tx_flows[..self.live_end]
    }

    /// Round-robin pick of an eligible flow; advances the cursor past the
    /// chosen flow so heavy flows can't starve others. Same order as a scan
    /// of the whole list from the cursor, and the cursor still wraps over
    /// the whole listed length.
    pub fn pick_eligible(&mut self, flows: &[FlowState], now_ps: u64) -> Option<u32> {
        let from = self.rr_cursor.min(self.live_end);
        for i in (from..self.live_end).chain(0..from) {
            let f = self.tx_flows[i];
            if flows[f as usize].eligible(now_ps) {
                self.rr_cursor = (i + 1) % self.tx_flows.len();
                return Some(f);
            }
        }
        None
    }

    /// Earliest pacing deadline among flows that have data but aren't
    /// eligible yet — when the NIC should wake up.
    pub fn earliest_deadline(&self, flows: &[FlowState]) -> Option<u64> {
        self.live()
            .iter()
            .filter(|&&f| flows[f as usize].pending())
            .map(|&f| flows[f as usize].next_eligible_ps)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlb_engine::SimTime;

    fn flow(size: u64) -> FlowState {
        let mut f = FlowState::new(
            FlowSpec::new(SimTime::ZERO, 0, 9, size),
            1000,
            DcqcnConfig::default(),
        );
        f.started = true;
        f
    }

    #[test]
    fn packetization_rounds_up_and_shortens_tail() {
        let f = flow(2_500);
        assert_eq!(f.total_packets, 3);
        assert_eq!(f.payload_bytes(0, 1000), 1000);
        assert_eq!(f.payload_bytes(2, 1000), 500);
        let g = flow(1);
        assert_eq!(g.total_packets, 1);
        assert_eq!(g.payload_bytes(0, 1000), 1);
        let h = flow(3_000);
        assert_eq!(h.payload_bytes(2, 1000), 1000);
    }

    #[test]
    fn eligibility_gates_on_pacing_and_data() {
        let mut f = flow(2_000);
        assert!(f.eligible(0));
        f.next_eligible_ps = 500;
        assert!(!f.eligible(499));
        assert!(f.eligible(500));
        // Exhaust the send window.
        f.reliability.take_next();
        f.reliability.take_next();
        assert!(!f.eligible(1_000), "nothing left to send");
        assert!(!f.pending());
    }

    /// A host listing `flows[0..n_listed]`, with the started ones started.
    fn host_listing(flows: &[FlowState], n_listed: u32) -> Host {
        let mut h = Host::new(0);
        for f in 0..n_listed {
            h.list(f);
        }
        for (f, fs) in flows.iter().enumerate() {
            if fs.started {
                h.start(f as u32);
            }
        }
        h
    }

    #[test]
    fn round_robin_is_fair_and_skips_ineligible() {
        let mut flows = vec![flow(10_000), flow(10_000), flow(10_000)];
        flows[1].next_eligible_ps = 1_000_000; // not eligible now
        let mut h = host_listing(&flows, 3);
        assert_eq!(h.pick_eligible(&flows, 0), Some(0));
        assert_eq!(h.pick_eligible(&flows, 0), Some(2));
        assert_eq!(h.pick_eligible(&flows, 0), Some(0));
        // Once flow 1 becomes eligible it gets service too.
        assert_eq!(h.pick_eligible(&flows, 2_000_000), Some(1));
    }

    #[test]
    fn earliest_deadline_for_wakeup() {
        let mut flows = vec![flow(10_000), flow(10_000)];
        flows[0].next_eligible_ps = 700;
        flows[1].next_eligible_ps = 300;
        let mut h = host_listing(&flows, 2);
        assert_eq!(h.earliest_deadline(&flows), Some(300));
        // Completed flows leave the service list.
        flows[1].finish_ps = Some(1);
        h.finish(1);
        assert_eq!(h.earliest_deadline(&flows), Some(700));
        assert_eq!(h.live(), [0]);
    }

    #[test]
    fn pick_on_empty_flow_list() {
        let mut h = Host::new(0);
        assert_eq!(h.pick_eligible(&[], 0), None);
        assert_eq!(h.earliest_deadline(&[]), None);
        assert!(h.live().is_empty());
    }

    /// Frozen quirk (DESIGN §6): a completion before the cursor shifts the
    /// list under it, and the flow that was next in line is passed over.
    #[test]
    fn completion_before_cursor_costs_the_next_flow_one_turn() {
        let mut flows = vec![flow(10_000), flow(10_000), flow(10_000), flow(10_000)];
        let mut h = host_listing(&flows, 4);
        assert_eq!(h.pick_eligible(&flows, 0), Some(0));
        assert_eq!(h.pick_eligible(&flows, 0), Some(1));
        flows[0].finish_ps = Some(1);
        h.finish(0);
        // Flow 2 was next; the cursor index (2) now names flow 3.
        let picks: Vec<_> = (0..3).map(|_| h.pick_eligible(&flows, 0)).collect();
        assert_eq!(picks, [Some(3), Some(1), Some(2)]);
    }

    /// The cursor wraps at the end of the *listed* flows, not of the live
    /// prefix: after serving the last live flow it waits on the first
    /// unstarted position, so that flow is served first once it starts.
    #[test]
    fn cursor_wraps_over_the_full_listed_length() {
        let mut flows = vec![flow(10_000), flow(10_000), flow(10_000), flow(10_000)];
        flows[2].started = false;
        flows[3].started = false;
        let mut h = host_listing(&flows, 4);
        assert_eq!(h.pick_eligible(&flows, 0), Some(0));
        assert_eq!(h.pick_eligible(&flows, 0), Some(1));
        flows[2].started = true;
        h.start(2);
        assert_eq!(
            h.pick_eligible(&flows, 0),
            Some(2),
            "cursor held position 2"
        );
        flows[3].started = true;
        h.start(3);
        assert_eq!(h.pick_eligible(&flows, 0), Some(3));
        assert_eq!(h.pick_eligible(&flows, 0), Some(0), "wrapped at 4 listed");
    }

    /// With id-ordered starts the arbiter never touches an unstarted flow's
    /// state: the flow table handed in ends before the unstarted ids, so
    /// any such read is an out-of-bounds panic.
    #[test]
    fn unstarted_flow_state_is_never_read() {
        let mut flows = vec![flow(10_000), flow(10_000), flow(10_000)];
        let mut h = host_listing(&flows, 500);
        for round in 0..3 {
            for f in 0..3 {
                assert_eq!(h.pick_eligible(&flows, 0), Some(f), "round {round}");
            }
        }
        for fs in &mut flows {
            fs.next_eligible_ps = 900;
        }
        assert_eq!(h.pick_eligible(&flows, 0), None);
        assert_eq!(h.earliest_deadline(&flows), Some(900));
        flows[1].finish_ps = Some(1);
        h.finish(1);
        assert_eq!(h.pick_eligible(&flows[..1], 900), Some(0));
        assert_eq!(h.live(), [0, 2]);
    }

    /// The arbiter as it was before the live-flow bound: every operation
    /// scans the whole service list. Reference for the differential below.
    #[derive(Default)]
    struct FullScan {
        tx_flows: Vec<u32>,
        rr_cursor: usize,
    }

    impl FullScan {
        fn pick_eligible(&mut self, flows: &[FlowState], now_ps: u64) -> Option<u32> {
            let n = self.tx_flows.len();
            for k in 0..n {
                let i = (self.rr_cursor + k) % n;
                let f = self.tx_flows[i];
                if flows[f as usize].eligible(now_ps) {
                    self.rr_cursor = (i + 1) % n;
                    return Some(f);
                }
            }
            None
        }

        fn earliest_deadline(&self, flows: &[FlowState]) -> Option<u64> {
            let pending = self
                .tx_flows
                .iter()
                .filter(|&&f| flows[f as usize].pending());
            pending.map(|&f| flows[f as usize].next_eligible_ps).min()
        }

        fn gc_flows(&mut self, flows: &[FlowState]) {
            self.tx_flows.retain(|&f| !flows[f as usize].is_complete());
            if self.rr_cursor >= self.tx_flows.len() {
                self.rr_cursor = 0;
            }
        }
    }

    proptest! {
        /// Differential: random interleavings of flow starts (in id order or
        /// shuffled), pacing changes, window exhaustion and rewind,
        /// completions, picks and deadline queries must give the same
        /// picks, deadlines, service list and cursor as the full scan.
        #[test]
        fn nic_arbiter_matches_full_scan_reference(
            listed in proptest::collection::vec(any::<bool>(), 1..40),
            ordered in any::<bool>(),
            ops in proptest::collection::vec((0u8..9, 0usize..64, 0u64..3_000), 1..400),
        ) {
            let mut flows: Vec<FlowState> = (0..listed.len()).map(|i| {
                let mut f = flow(1_000 * (1 + i as u64 % 4));
                f.started = false;
                f
            }).collect();
            let mut h = Host::new(0);
            let mut r = FullScan::default();
            for f in (0..listed.len() as u32).filter(|&f| listed[f as usize]) {
                h.list(f);
                r.tx_flows.push(f);
            }
            let mut now = 0u64;
            for (op, idx, val) in ops {
                let nth = |want_started: bool, flows: &[FlowState]| {
                    let c: Vec<u32> = r.tx_flows.iter().copied()
                        .filter(|&f| flows[f as usize].started == want_started).collect();
                    (!c.is_empty()).then(|| c[idx % c.len()])
                };
                match op {
                    0 | 1 => if let Some(f) = nth(false, &flows) {
                        let f = if ordered {
                            *r.tx_flows.iter().find(|&&g| !flows[g as usize].started).unwrap()
                        } else {
                            f
                        };
                        flows[f as usize].started = true;
                        flows[f as usize].next_eligible_ps = now;
                        h.start(f);
                    },
                    2 => if let Some(f) = nth(true, &flows) {
                        flows[f as usize].next_eligible_ps = now + val;
                    },
                    3 => if let Some(f) = nth(true, &flows) {
                        flows[f as usize].reliability.take_next();
                    },
                    4 => if let Some(f) = nth(true, &flows) {
                        flows[f as usize].reliability.on_timeout();
                    },
                    5 => if let Some(f) = nth(true, &flows) {
                        flows[f as usize].finish_ps = Some(now);
                        h.finish(f);
                        r.gc_flows(&flows);
                    },
                    6 | 7 => {
                        now += val;
                        let got = h.pick_eligible(&flows, now);
                        prop_assert_eq!(got, r.pick_eligible(&flows, now));
                        if let Some(f) = got {
                            flows[f as usize].reliability.take_next();
                            flows[f as usize].next_eligible_ps = now + val / 2;
                        }
                    }
                    _ => prop_assert_eq!(
                        h.earliest_deadline(&flows), r.earliest_deadline(&flows)),
                }
                prop_assert_eq!(&h.tx_flows, &r.tx_flows);
                prop_assert_eq!(h.rr_cursor, r.rr_cursor);
                prop_assert!(h.live_end <= h.tx_flows.len());
                prop_assert!(h.tx_flows[h.live_end..].iter()
                    .all(|&f| !flows[f as usize].started));
            }
        }
    }
}
