//! Host / NIC model: per-flow transport state and the NIC egress
//! arbitration bookkeeping.
//!
//! A flow's resident record ([`FlowState`]) holds only what the report
//! reads and what outlives the transfer; its transport state comes in two
//! halves that live only while they work (DESIGN §9.6). The [`Sender`] is
//! built at `FlowStart` and dropped at the final ACK; the receiver half
//! ([`Rx`]) is built at the first data arrival and dropped once every
//! packet is delivered. What a dropped half counted folds into the record,
//! and the late frames it used to absorb are answered from the record.
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
use rlb_metrics::FlowRecord;
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

/// What every flow of a run builds its transport halves from.
#[derive(Debug)]
pub struct FlowTransport {
    pub mode: TransportMode,
    /// IRN's in-flight cap in packets (ignored by go-back-N).
    pub irn_window: u32,
    /// DCQCN parameters, line rate included, shared by every sender.
    pub dcqcn: DcqcnConfig,
}

impl FlowTransport {
    /// The sender half of a `total_packets` flow starting at `now_ps`.
    pub fn sender(&self, total_packets: u32, now_ps: u64) -> Box<Sender> {
        let tx = match self.mode {
            TransportMode::GoBackN => Tx::Gbn(GbnSender::new(total_packets)),
            TransportMode::SelectiveRepeat => {
                Tx::Irn(IrnSender::new(total_packets, self.irn_window.max(1)))
            }
        };
        Box::new(Sender {
            tx,
            dcqcn: DcqcnRate::new(self.dcqcn.clone()),
            next_eligible_ps: now_ps,
            last_una_at_rto: 0,
        })
    }

    /// The receiver half of a `total_packets` flow.
    pub fn receiver(&self, total_packets: u32) -> Box<Rx> {
        Box::new(match self.mode {
            TransportMode::GoBackN => Rx::Gbn(GbnReceiver::new(total_packets)),
            TransportMode::SelectiveRepeat => Rx::Irn(IrnReceiver::new(total_packets)),
        })
    }
}

/// Sender-side reliability, one variant per transport mode.
pub enum Tx {
    Gbn(GbnSender),
    Irn(IrnSender),
}

impl Tx {
    pub fn peek_next(&self) -> Option<u32> {
        match self {
            Tx::Gbn(tx) => tx.peek_next(),
            Tx::Irn(tx) => tx.peek_next(),
        }
    }

    pub fn take_next(&mut self) -> Option<u32> {
        match self {
            Tx::Gbn(tx) => tx.take_next(),
            Tx::Irn(tx) => tx.take_next(),
        }
    }

    pub fn is_complete(&self) -> bool {
        match self {
            Tx::Gbn(tx) => tx.is_complete(),
            Tx::Irn(tx) => tx.is_complete(),
        }
    }

    /// Cumulative progress marker (for RTO progress detection).
    pub fn progress_mark(&self) -> u32 {
        match self {
            Tx::Gbn(tx) => tx.snd_una(),
            Tx::Irn(tx) => tx.cumulative(),
        }
    }

    pub fn has_outstanding(&self) -> bool {
        match self {
            Tx::Gbn(tx) => tx.in_flight() > 0,
            Tx::Irn(tx) => tx.in_flight() > 0,
        }
    }

    pub fn on_timeout(&mut self) -> bool {
        match self {
            Tx::Gbn(tx) => tx.on_timeout(),
            Tx::Irn(tx) => tx.on_timeout(),
        }
    }

    pub fn packets_sent(&self) -> u64 {
        match self {
            Tx::Gbn(tx) => tx.packets_sent,
            Tx::Irn(tx) => tx.packets_sent,
        }
    }

    /// NAKs (go-back-N) / NACK-flagged ACKs (IRN) seen by the sender.
    pub fn naks(&self) -> u64 {
        match self {
            Tx::Gbn(tx) => tx.naks_received,
            Tx::Irn(tx) => tx.nacks,
        }
    }
}

/// The sender half of a flow: built at `FlowStart` on the replica that
/// owns the source host, dropped at the final ACK.
pub struct Sender {
    pub tx: Tx,
    pub dcqcn: DcqcnRate,
    /// Pacing: earliest time the sender may emit its next packet.
    pub next_eligible_ps: u64,
    /// Progress marker observed at the previous RTO check.
    pub last_una_at_rto: u32,
}

/// The receiver half of a flow, one variant per transport mode: built at
/// the first data arrival on the replica that owns the destination host,
/// dropped once every packet is delivered.
pub enum Rx {
    Gbn(GbnReceiver),
    Irn(IrnReceiver),
}

impl Rx {
    pub fn is_complete(&self) -> bool {
        match self {
            Rx::Gbn(rx) => rx.is_complete(),
            Rx::Irn(rx) => rx.is_complete(),
        }
    }

    pub fn ooo_packets(&self) -> u64 {
        match self {
            Rx::Gbn(rx) => rx.ooo_packets,
            Rx::Irn(rx) => rx.ooo_arrivals,
        }
    }

    pub fn max_ood(&self) -> u32 {
        match self {
            Rx::Gbn(rx) => rx.max_ood,
            Rx::Irn(rx) => rx.max_ood,
        }
    }
}

/// The resident record of one flow, from construction to the end of the
/// run: the spec, the counters the report reads and the receiver's CNP
/// pacing, plus the transport halves while they live. At the end of the
/// run it becomes its [`FlowRecord`] in place ([`into_record`](Self::into_record)).
///
/// The four counters are `u32`, widened when the record is made: a 120 MB
/// flow in 1 000-byte packets is 120 k packets, so a count reaches
/// `u32::MAX` only after some 35 000 go-back-N resends of the whole flow.
pub struct FlowState {
    pub spec: FlowSpec,
    pub total_packets: u32,
    /// Every packet reached the receiver in order; its half is gone.
    pub delivered: bool,
    pub finish_ps: Option<u64>,
    /// DCQCN notification point: outlives the receiver half, so an
    /// ECN-marked duplicate still elicits its CNP.
    pub cnp_gen: CnpGenerator,
    /// Counts folded in from a dropped half, plus the NAKs that arrived
    /// after the sender's; the accessors add a live half's own.
    packets_sent: u32,
    naks: u32,
    ooo_packets: u32,
    max_ood: u32,
    /// RLB recirculations suffered by this flow's packets.
    pub recirculations: u32,
    pub tx: Option<Box<Sender>>,
    pub rx: Option<Box<Rx>>,
}

/// The record has to fit in the state's slot, at the state's alignment,
/// for [`FlowState::into_record`] to reuse the flow vector's buffer
/// (std collects `vec::IntoIter` → `Map` → `Vec` in place then).
const _: () = assert!(
    size_of::<FlowRecord>() <= size_of::<FlowState>()
        && align_of::<FlowRecord>() == align_of::<FlowState>()
);

/// `acc += n` for a count folded in from a dropped half; the bound on
/// [`FlowState`] keeps it from overflowing, which debug builds check.
fn add(acc: &mut u32, n: u64) {
    let sum = *acc as u64 + n;
    debug_assert!(sum <= u32::MAX as u64, "per-flow counter overflows u32");
    *acc = sum as u32;
}

impl FlowState {
    pub fn new(spec: FlowSpec, mtu_bytes: u32) -> FlowState {
        FlowState {
            spec,
            total_packets: spec.size_bytes.div_ceil(mtu_bytes as u64).max(1) as u32,
            delivered: false,
            finish_ps: None,
            cnp_gen: CnpGenerator::default(),
            packets_sent: 0,
            naks: 0,
            ooo_packets: 0,
            max_ood: 0,
            recirculations: 0,
            tx: None,
            rx: None,
        }
    }

    pub fn is_complete(&self) -> bool {
        self.finish_ps.is_some()
    }

    /// The final ACK arrived at `now_ps`: fold the sender's counts into
    /// the record and drop it.
    pub fn finish(&mut self, now_ps: u64) {
        let s = self.tx.take().expect("a finishing flow is sending");
        add(&mut self.packets_sent, s.tx.packets_sent());
        add(&mut self.naks, s.tx.naks());
        self.finish_ps = Some(now_ps);
    }

    /// A NAK or NACK for a sender that has already finished.
    pub fn late_nak(&mut self) {
        debug_assert!(self.tx.is_none());
        self.naks += 1;
    }

    /// The receiver half, built on the first data arrival; `None` once
    /// every packet is delivered.
    pub fn receiver(&mut self, t: &FlowTransport) -> Option<&mut Rx> {
        if self.delivered {
            return None;
        }
        let total = self.total_packets;
        Some(self.rx.get_or_insert_with(|| t.receiver(total)))
    }

    /// Drop the receiver half once it has delivered everything, folding
    /// its counts into the record.
    pub fn settle_receiver(&mut self) {
        if self.rx.as_ref().is_some_and(|rx| rx.is_complete()) {
            let rx = self.rx.take().expect("checked above");
            add(&mut self.ooo_packets, rx.ooo_packets());
            self.max_ood = self.max_ood.max(rx.max_ood());
            self.delivered = true;
        }
    }

    pub fn packets_sent(&self) -> u64 {
        self.packets_sent as u64 + self.tx.as_ref().map_or(0, |s| s.tx.packets_sent())
    }

    pub fn naks(&self) -> u64 {
        self.naks as u64 + self.tx.as_ref().map_or(0, |s| s.tx.naks())
    }

    pub fn ooo_packets(&self) -> u64 {
        self.ooo_packets as u64 + self.rx.as_ref().map_or(0, |rx| rx.ooo_packets())
    }

    pub fn max_ood(&self) -> u32 {
        self.max_ood
            .max(self.rx.as_ref().map_or(0, |rx| rx.max_ood()))
    }

    /// What the report keeps of flow `flow_id`, live halves included.
    pub fn into_record(self, flow_id: u64) -> FlowRecord {
        FlowRecord {
            flow_id,
            src_host: self.spec.src_host,
            dst_host: self.spec.dst_host,
            size_bytes: self.spec.size_bytes,
            total_packets: self.total_packets,
            start_ps: self.spec.start.as_ps(),
            finish_ps: self.finish_ps,
            ooo_packets: self.ooo_packets(),
            max_ood: self.max_ood() as u64,
            packets_sent: self.packets_sent(),
            naks: self.naks(),
            recirculations: self.recirculations as u64,
        }
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

    /// Ready to transmit at `now`: sending, pacing allows, and the sender
    /// has a PSN.
    pub fn eligible(&self, now_ps: u64) -> bool {
        self.tx
            .as_ref()
            .is_some_and(|s| s.next_eligible_ps <= now_ps && s.tx.peek_next().is_some())
    }

    /// The pacing deadline of a sender with a PSN to send, eligible yet or
    /// not.
    pub fn pending_deadline(&self) -> Option<u64> {
        let s = self.tx.as_ref()?;
        s.tx.peek_next().map(|_| s.next_eligible_ps)
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
            .filter_map(|&f| flows[f as usize].pending_deadline())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rlb_engine::SimTime;

    fn gbn() -> FlowTransport {
        FlowTransport {
            mode: TransportMode::GoBackN,
            irn_window: 0,
            dcqcn: DcqcnConfig::default(),
        }
    }

    /// The flow has started: it is sending or has finished.
    fn started(f: &FlowState) -> bool {
        f.tx.is_some() || f.is_complete()
    }

    /// A started flow of `size` bytes in 1 000-byte packets.
    fn flow(size: u64) -> FlowState {
        let mut f = FlowState::new(FlowSpec::new(SimTime::ZERO, 0, 9, size), 1000);
        start(&mut f, 0);
        f
    }

    fn start(f: &mut FlowState, now_ps: u64) {
        f.tx = Some(gbn().sender(f.total_packets, now_ps));
    }

    fn sender(f: &mut FlowState) -> &mut Sender {
        f.tx.as_deref_mut().expect("started")
    }

    /// The resident record stays small: it is paid for every flow of the
    /// scenario, live or not (DESIGN §9.6).
    #[test]
    fn flow_record_is_small() {
        assert!(std::mem::size_of::<FlowState>() <= 128);
    }

    /// The sender half folds its counts into the record when it finishes;
    /// NAKs after that count on the record.
    #[test]
    fn finishing_folds_the_sender_counts() {
        let mut f = flow(2_000);
        let Tx::Gbn(tx) = &mut sender(&mut f).tx else {
            unreachable!("go-back-N")
        };
        tx.take_next();
        tx.on_nak(0);
        tx.take_next();
        tx.take_next();
        tx.on_ack(1);
        assert_eq!((f.packets_sent(), f.naks()), (3, 1));
        f.finish(7);
        assert!(f.tx.is_none() && started(&f));
        assert_eq!((f.packets_sent(), f.naks()), (3, 1));
        f.late_nak();
        assert_eq!(f.naks(), 2);
    }

    /// The receiver half is built by the first arrival and dropped once
    /// everything is delivered; its counts stay on the record.
    #[test]
    fn the_receiver_lives_until_everything_is_delivered() {
        let mut f = FlowState::new(FlowSpec::new(SimTime::ZERO, 0, 9, 2_000), 1000);
        assert!(f.rx.is_none());
        let Some(Rx::Gbn(rx)) = f.receiver(&gbn()) else {
            unreachable!("go-back-N")
        };
        rx.on_packet(1);
        rx.on_packet(0);
        f.settle_receiver();
        assert!(f.rx.is_some() && !f.delivered);
        assert_eq!((f.ooo_packets(), f.max_ood()), (1, 1));
        let Some(Rx::Gbn(rx)) = f.receiver(&gbn()) else {
            unreachable!("go-back-N")
        };
        rx.on_packet(1);
        f.settle_receiver();
        assert!(f.rx.is_none() && f.delivered);
        assert!(f.receiver(&gbn()).is_none(), "a late arrival finds no half");
        assert_eq!((f.ooo_packets(), f.max_ood()), (1, 1));
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
        sender(&mut f).next_eligible_ps = 500;
        assert!(!f.eligible(499));
        assert!(f.eligible(500));
        assert_eq!(f.pending_deadline(), Some(500));
        // Exhaust the send window.
        sender(&mut f).tx.take_next();
        sender(&mut f).tx.take_next();
        assert!(!f.eligible(1_000), "nothing left to send");
        assert_eq!(f.pending_deadline(), None);
    }

    /// A host listing `flows[0..n_listed]`, with the started ones started.
    fn host_listing(flows: &[FlowState], n_listed: u32) -> Host {
        let mut h = Host::new(0);
        for f in 0..n_listed {
            h.list(f);
        }
        for (f, fs) in flows.iter().enumerate() {
            if started(fs) {
                h.start(f as u32);
            }
        }
        h
    }

    #[test]
    fn round_robin_is_fair_and_skips_ineligible() {
        let mut flows = vec![flow(10_000), flow(10_000), flow(10_000)];
        sender(&mut flows[1]).next_eligible_ps = 1_000_000; // not eligible now
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
        sender(&mut flows[0]).next_eligible_ps = 700;
        sender(&mut flows[1]).next_eligible_ps = 300;
        let mut h = host_listing(&flows, 2);
        assert_eq!(h.earliest_deadline(&flows), Some(300));
        // Completed flows leave the service list.
        flows[1].finish(1);
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
        flows[0].finish(1);
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
        flows[2].tx = None;
        flows[3].tx = None;
        let mut h = host_listing(&flows, 4);
        assert_eq!(h.pick_eligible(&flows, 0), Some(0));
        assert_eq!(h.pick_eligible(&flows, 0), Some(1));
        start(&mut flows[2], 0);
        h.start(2);
        assert_eq!(
            h.pick_eligible(&flows, 0),
            Some(2),
            "cursor held position 2"
        );
        start(&mut flows[3], 0);
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
            sender(fs).next_eligible_ps = 900;
        }
        assert_eq!(h.pick_eligible(&flows, 0), None);
        assert_eq!(h.earliest_deadline(&flows), Some(900));
        flows[1].finish(1);
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
            let pending = self.tx_flows.iter();
            pending
                .filter_map(|&f| flows[f as usize].pending_deadline())
                .min()
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
                let spec = FlowSpec::new(SimTime::ZERO, 0, 9, 1_000 * (1 + i as u64 % 4));
                FlowState::new(spec, 1000)
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
                        .filter(|&f| started(&flows[f as usize]) == want_started).collect();
                    (!c.is_empty()).then(|| c[idx % c.len()])
                };
                match op {
                    0 | 1 => if let Some(f) = nth(false, &flows) {
                        let f = if ordered {
                            *r.tx_flows.iter().find(|&&g| !started(&flows[g as usize])).unwrap()
                        } else {
                            f
                        };
                        start(&mut flows[f as usize], now);
                        h.start(f);
                    },
                    2 => if let Some(f) = nth(true, &flows) {
                        sender(&mut flows[f as usize]).next_eligible_ps = now + val;
                    },
                    3 => if let Some(f) = nth(true, &flows) {
                        sender(&mut flows[f as usize]).tx.take_next();
                    },
                    4 => if let Some(f) = nth(true, &flows) {
                        sender(&mut flows[f as usize]).tx.on_timeout();
                    },
                    5 => if let Some(f) = nth(true, &flows) {
                        flows[f as usize].finish(now);
                        h.finish(f);
                        r.gc_flows(&flows);
                    },
                    6 | 7 => {
                        now += val;
                        let got = h.pick_eligible(&flows, now);
                        prop_assert_eq!(got, r.pick_eligible(&flows, now));
                        if let Some(f) = got {
                            let s = sender(&mut flows[f as usize]);
                            s.tx.take_next();
                            s.next_eligible_ps = now + val / 2;
                        }
                    }
                    _ => prop_assert_eq!(
                        h.earliest_deadline(&flows), r.earliest_deadline(&flows)),
                }
                prop_assert_eq!(&h.tx_flows, &r.tx_flows);
                prop_assert_eq!(h.rr_cursor, r.rr_cursor);
                prop_assert!(h.live_end <= h.tx_flows.len());
                prop_assert!(h.tx_flows[h.live_end..].iter()
                    .all(|&f| !started(&flows[f as usize])));
            }
        }
    }
}
