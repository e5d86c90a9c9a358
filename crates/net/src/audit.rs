//! Runtime invariant auditing (`--features audit`).
//!
//! Double-entry bookkeeping for the fabric: the simulator increments edge
//! counters (NIC injections, NIC arrivals, drops) as packets cross the
//! fabric boundary, and the auditor independently *walks the live state*
//! (switch queues, pending events) to count packets in flight. The two
//! views must always balance:
//!
//! ```text
//! injected == arrived + dropped + in_switch_buffers + in_flight_events
//!             + recirculating
//! ```
//!
//! A second ledger balances the packet arenas: every live slot is held by
//! exactly one queue or pending event (`LinkArrive`, `Recirculate`), so
//! `handles == arena_live`. A frame crossing shards is in neither arena
//! while it sits in a mailbox, and no cut is taken then.
//!
//! Additional invariants checked on the same cadence:
//! * **PFC pairing** — per (switch, ingress port): `resumes <= pauses` and
//!   `pauses - resumes <= 1`; at drain the imbalance must equal the port's
//!   live `paused_upstream` flag.
//! * **Buffer occupancy** — per switch: `shared_used <= buffer_bytes`,
//!   `sum(ingress_bytes) == shared_used`, and every egress `data_q_bytes`
//!   equals the byte sum of the packets actually queued there.
//!
//! (Event-clock monotonicity is checked inside `rlb_engine::ShardEventQueue`
//! under the same feature.)
//!
//! A violation panics with the full [`AuditReport`] — an invariant break
//! means every metric downstream of it is untrustworthy, so dying loudly
//! beats producing a subtly wrong figure.
//!
//! There is one sweep, [`FabricAuditor::check`]: it asserts the invariants
//! a single shard replica can judge alone and returns that replica's side
//! of the ledger. Whoever holds *every* side asserts the balance
//! ([`AuditReport::assert_conserved`]): a lone replica on its own cut, the
//! window driver on the sum of all shards' cuts at each round barrier —
//! a cross-shard flow injects on one shard and arrives on another.
//!
//! Sweeps run every [`crate::SimConfig::audit_every_events`] events of a
//! replica, at every round barrier and once at drain; the walk is
//! O(state), so the default interval keeps the overhead negligible.

use crate::packet::Packet;
use crate::switch::Switch;
use rlb_engine::PacketArena;
use std::collections::BTreeMap;

/// Stable identity of a switch for audit bookkeeping: `(is_spine, index)`.
pub type SwitchId = (bool, u32);

/// Running edge-counters plus per-port PFC ledgers.
#[derive(Debug, Default)]
pub struct FabricAuditor {
    /// Data packets put on the wire by host NICs (incl. retransmissions).
    pub injected: u64,
    /// Data packets consumed by receiver NICs (incl. dups and OOO).
    pub arrived: u64,
    /// Data packets dropped (ingress admission overflow + DT egress drops).
    pub dropped: u64,
    /// PAUSE / RESUME frames sent, keyed by the emitting switch's ingress
    /// port (the port whose upstream the frame throttles).
    pfc: BTreeMap<(SwitchId, u16), PfcLedger>,
    /// Number of audit sweeps performed (diagnostic).
    pub checks_run: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct PfcLedger {
    pauses: u64,
    resumes: u64,
}

/// Everything one sweep counted — one replica's side of the ledger, or
/// the sum over shards — kept for the panic report.
#[derive(Debug, Default, Clone, Copy)]
pub struct AuditReport {
    pub at_ps: u64,
    pub injected: u64,
    pub arrived: u64,
    pub dropped: u64,
    pub in_switch_buffers: u64,
    pub in_flight_events: u64,
    pub recirculating: u64,
    /// Packet handles held by queues and pending events.
    pub handles: u64,
    /// Live packet-arena slots.
    pub arena_live: u64,
}

impl AuditReport {
    fn accounted(&self) -> u64 {
        self.arrived
            + self.dropped
            + self.in_switch_buffers
            + self.in_flight_events
            + self.recirculating
    }

    /// Add another shard's cut taken at the same barrier.
    pub fn absorb(&mut self, other: &AuditReport) {
        self.at_ps = self.at_ps.max(other.at_ps);
        self.injected += other.injected;
        self.arrived += other.arrived;
        self.dropped += other.dropped;
        self.in_switch_buffers += other.in_switch_buffers;
        self.in_flight_events += other.in_flight_events;
        self.recirculating += other.recirculating;
        self.handles += other.handles;
        self.arena_live += other.arena_live;
    }

    /// The conservation balance and the arena balance. Only meaningful on
    /// a cut that covers the whole fabric (1 shard, or every shard's cuts
    /// absorbed): every thread of a sharded run asserts the same sum, so a
    /// violation stops them all rather than one while its peers wait at
    /// the barrier.
    pub fn assert_conserved(&self) {
        assert!(
            self.accounted() == self.injected,
            "audit violation [packet-conservation]:\n{self}"
        );
        assert!(
            self.handles == self.arena_live,
            "audit violation [handle-balance]: a packet-arena slot is leaked \
             or a handle dangles:\n{self}"
        );
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fabric audit @ t={} ps", self.at_ps)?;
        writeln!(f, "  injected           = {}", self.injected)?;
        writeln!(f, "  arrived            = {}", self.arrived)?;
        writeln!(f, "  dropped            = {}", self.dropped)?;
        writeln!(f, "  in switch buffers  = {}", self.in_switch_buffers)?;
        writeln!(f, "  in flight (events) = {}", self.in_flight_events)?;
        writeln!(f, "  recirculating      = {}", self.recirculating)?;
        writeln!(f, "  handles held       = {}", self.handles)?;
        writeln!(f, "  arena slots live   = {}", self.arena_live)?;
        write!(
            f,
            "  accounted          = {} ({})",
            self.accounted(),
            if self.accounted() == self.injected {
                "balanced"
            } else {
                "IMBALANCED"
            }
        )
    }
}

impl FabricAuditor {
    pub fn on_injected(&mut self) {
        self.injected += 1;
    }

    pub fn on_arrived(&mut self) {
        self.arrived += 1;
    }

    pub fn on_dropped(&mut self) {
        self.dropped += 1;
    }

    pub fn on_pause_sent(&mut self, sw: SwitchId, port: u16) {
        let l = self.pfc.entry((sw, port)).or_default();
        l.pauses += 1;
        assert!(
            l.pauses - l.resumes <= 1,
            "audit violation [pfc-pairing]: switch {sw:?} port {port} sent \
             PAUSE while already paused ({} pauses vs {} resumes)",
            l.pauses,
            l.resumes
        );
    }

    pub fn on_resume_sent(&mut self, sw: SwitchId, port: u16) {
        let l = self.pfc.entry((sw, port)).or_default();
        l.resumes += 1;
        assert!(
            l.resumes <= l.pauses,
            "audit violation [pfc-pairing]: switch {sw:?} port {port} sent \
             RESUME without a matching PAUSE ({} pauses vs {} resumes)",
            l.pauses,
            l.resumes
        );
    }

    /// The invariant sweep over one replica. `switches` yields every switch
    /// with its id; `arena` is the packet arena the queued handles point
    /// into (any stale handle panics right here, inside the sweep);
    /// `in_flight_events` / `recirculating` are the packet counts the
    /// caller tallied from the pending event set; `drain` additionally
    /// requires each PFC ledger to match the live pause flags. Asserts
    /// buffer occupancy (and PFC pairing) and returns the replica's cut of
    /// the conservation ledger for the caller to balance.
    #[must_use = "the cut must be balanced: alone with 1 shard, summed otherwise"]
    pub fn check<'a>(
        &mut self,
        at_ps: u64,
        switches: impl Iterator<Item = (SwitchId, &'a Switch)>,
        arena: &PacketArena<Packet>,
        in_flight_events: u64,
        recirculating: u64,
        drain: bool,
    ) -> AuditReport {
        self.checks_run += 1;
        let mut report = AuditReport {
            at_ps,
            injected: self.injected,
            arrived: self.arrived,
            dropped: self.dropped,
            in_flight_events,
            recirculating,
            ..AuditReport::default()
        };
        for (id, sw) in switches {
            self.check_buffers(id, sw, arena, at_ps);
            if drain {
                self.check_pfc_drained(id, sw, at_ps);
            }
            for ep in &sw.egress {
                report.in_switch_buffers += ep.data_q.len() as u64;
            }
        }
        report
    }

    fn check_buffers(&self, id: SwitchId, sw: &Switch, arena: &PacketArena<Packet>, at_ps: u64) {
        let cap = sw.config().buffer_bytes;
        assert!(
            sw.shared_used <= cap,
            "audit violation [buffer-occupancy]: switch {id:?} holds \
             {} bytes > capacity {cap} at t={at_ps} ps",
            sw.shared_used
        );
        let ingress_sum: u64 = sw.ingress_bytes.iter().sum();
        assert!(
            ingress_sum == sw.shared_used,
            "audit violation [buffer-occupancy]: switch {id:?} ingress \
             counters sum to {ingress_sum} but shared_used={} at t={at_ps} ps",
            sw.shared_used
        );
        for (p, ep) in sw.egress.iter().enumerate() {
            // SoA sweep: the byte sum reads only the arena's size column —
            // and validates every handle's generation along the way.
            let q_sum: u64 = ep.data_q.iter().map(|&h| arena.size_bytes(h) as u64).sum();
            assert!(
                q_sum == ep.data_q_bytes,
                "audit violation [buffer-occupancy]: switch {id:?} egress \
                 port {p} queue holds {q_sum} bytes but data_q_bytes={} \
                 at t={at_ps} ps",
                ep.data_q_bytes
            );
        }
    }

    fn check_pfc_drained(&self, id: SwitchId, sw: &Switch, at_ps: u64) {
        for (port, &paused) in sw.paused_upstream.iter().enumerate() {
            let l = self
                .pfc
                .get(&(id, port as u16))
                .copied()
                .unwrap_or_default();
            let open = l.pauses - l.resumes; // ledger methods keep this in {0, 1}
            assert!(
                open == paused as u64,
                "audit violation [pfc-pairing]: switch {id:?} port {port} \
                 ends with {} pauses vs {} resumes but paused_upstream={} \
                 at t={at_ps} ps",
                l.pauses,
                l.resumes,
                paused
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchConfig;
    use rlb_engine::substream;

    fn test_switch() -> Switch {
        Switch::new(
            2,
            SwitchConfig::default(),
            vec![40_000_000_000; 2],
            1_000_000,
            substream(0, b"audit-test", 0),
        )
    }

    #[test]
    fn balanced_ledger_passes() {
        let mut a = FabricAuditor::default();
        for _ in 0..5 {
            a.on_injected();
        }
        for _ in 0..3 {
            a.on_arrived();
        }
        a.on_dropped();
        let sw = test_switch();
        // 5 = 3 arrived + 1 dropped + 1 in-flight.
        a.check(
            1_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            1,
            0,
            true,
        )
        .assert_conserved();
        assert_eq!(a.checks_run, 1);
    }

    #[test]
    #[should_panic(expected = "packet-conservation")]
    fn leaked_packet_is_caught() {
        let mut a = FabricAuditor::default();
        a.on_injected();
        a.on_injected();
        a.on_arrived();
        let sw = test_switch();
        // Second packet is nowhere: not arrived, dropped, buffered or in
        // flight — the sweep must refuse to balance the books.
        a.check(
            2_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            false,
        )
        .assert_conserved();
    }

    #[test]
    fn cross_shard_cuts_balance_only_when_summed() {
        // The sender's shard injected a packet that arrived on the
        // receiver's shard: neither side balances alone, the sum does.
        let (mut tx, mut rx) = (FabricAuditor::default(), FabricAuditor::default());
        tx.on_injected();
        rx.on_arrived();
        let sw = test_switch();
        let mut sum = tx.check(
            8_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            true,
        );
        assert!(std::panic::catch_unwind(|| sum.assert_conserved()).is_err());
        sum.absorb(&rx.check(
            9_000,
            [((false, 1), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            true,
        ));
        sum.assert_conserved();
        assert_eq!(sum.at_ps, 9_000);
    }

    #[test]
    fn arena_cuts_balance_when_summed() {
        // A frame sent across shards left the sender's arena and sits in
        // the receiver's; a sender that kept the slot holds one live slot
        // no handle refers to, and the summed cut refuses it.
        let cut = |handles, arena_live| AuditReport {
            handles,
            arena_live,
            ..AuditReport::default()
        };
        let mut sum = cut(3, 3);
        sum.absorb(&cut(1, 1));
        sum.assert_conserved();
        sum.absorb(&cut(0, 1));
        let err = std::panic::catch_unwind(|| sum.assert_conserved()).expect_err("leaked slot");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("handle-balance"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "pfc-pairing")]
    fn double_pause_is_caught() {
        let mut a = FabricAuditor::default();
        a.on_pause_sent((false, 0), 3);
        a.on_pause_sent((false, 0), 3);
    }

    #[test]
    #[should_panic(expected = "pfc-pairing")]
    fn resume_without_pause_is_caught() {
        let mut a = FabricAuditor::default();
        a.on_resume_sent((true, 1), 0);
    }

    #[test]
    #[should_panic(expected = "pfc-pairing")]
    fn unmatched_pause_at_drain_is_caught() {
        let mut a = FabricAuditor::default();
        // PAUSE sent but the switch's live flag says unpaused: inconsistent.
        a.on_pause_sent((false, 0), 1);
        let sw = test_switch();
        let _ = a.check(
            3_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            true,
        );
    }

    #[test]
    #[should_panic(expected = "buffer-occupancy")]
    fn overfull_buffer_is_caught() {
        let mut a = FabricAuditor::default();
        let mut sw = test_switch();
        sw.shared_used = sw.config().buffer_bytes + 1;
        let _ = a.check(
            4_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            false,
        );
    }

    #[test]
    #[should_panic(expected = "buffer-occupancy")]
    fn ingress_counter_drift_is_caught() {
        let mut a = FabricAuditor::default();
        let mut sw = test_switch();
        sw.ingress_bytes[0] = 512; // shared_used still 0
        let _ = a.check(
            5_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            false,
        );
    }

    #[test]
    fn paused_port_balances_at_drain() {
        let mut a = FabricAuditor::default();
        a.on_pause_sent((false, 0), 1);
        let mut sw = test_switch();
        sw.paused_upstream[1] = true;
        a.check(
            6_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            true,
        )
        .assert_conserved();
        a.on_resume_sent((false, 0), 1);
        sw.paused_upstream[1] = false;
        a.check(
            7_000,
            [((false, 0), &sw)].into_iter(),
            &PacketArena::new(),
            0,
            0,
            true,
        )
        .assert_conserved();
    }
}
