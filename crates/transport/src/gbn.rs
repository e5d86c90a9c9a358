//! Go-back-N reliable delivery, as implemented by RoCEv2 NICs (§2.1.2).
//!
//! RoCE NICs have too little memory for out-of-order buffering, so the
//! receiver discards any packet whose PSN (packet sequence number) exceeds
//! the expected one, replies with a NAK carrying the expected PSN, and the
//! sender rewinds its transmit pointer to that PSN — retransmitting
//! everything sent after the last in-order packet. These state machines are
//! pure (no clocks, no I/O): the simulator drives them and owns pacing.

use serde::Serialize;

/// Sender-side go-back-N state for one flow (queue pair).
#[derive(Debug, Clone, Serialize)]
pub struct GbnSender {
    total_packets: u32,
    /// Next PSN to transmit (new or rewound).
    next_psn: u32,
    /// Lowest unacknowledged PSN.
    snd_una: u32,
    /// Diagnostics.
    pub packets_sent: u64,
    pub naks_received: u64,
    pub rewind_packets: u64,
    pub timeouts: u64,
}

/// What the receiver NIC does with an arriving data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxAction {
    /// In order: deliver to the application, acknowledge `ack_psn`
    /// cumulatively.
    Deliver { ack_psn: u32 },
    /// Sequence gap: the NIC discards the packet and (first time per gap)
    /// NAKs the PSN it expected. `ood` is the out-of-order degree —
    /// `got - expected` — the quantity Fig. 3(b) plots.
    OutOfOrder { nak_psn: Option<u32>, ood: u32 },
    /// PSN below expectation — a go-back-N duplicate. Discarded silently
    /// (duplicates are the *consequence* of reordering, not reordering
    /// itself, so they don't count toward OOD).
    Duplicate,
}

impl GbnSender {
    pub fn new(total_packets: u32) -> GbnSender {
        assert!(total_packets > 0, "flow must have at least one packet");
        GbnSender {
            total_packets,
            next_psn: 0,
            snd_una: 0,
            packets_sent: 0,
            naks_received: 0,
            rewind_packets: 0,
            timeouts: 0,
        }
    }

    pub fn total_packets(&self) -> u32 {
        self.total_packets
    }

    /// PSN of the next packet to put on the wire, or `None` if everything
    /// (including any rewound range) has been transmitted and we are
    /// waiting for ACKs.
    pub fn peek_next(&self) -> Option<u32> {
        (self.next_psn < self.total_packets).then_some(self.next_psn)
    }

    /// Consume the next PSN for transmission.
    pub fn take_next(&mut self) -> Option<u32> {
        let psn = self.peek_next()?;
        self.next_psn += 1;
        self.packets_sent += 1;
        Some(psn)
    }

    /// Cumulative ACK: everything up to and including `psn` is delivered.
    pub fn on_ack(&mut self, psn: u32) {
        let new_una = (psn + 1).min(self.total_packets);
        if new_una > self.snd_una {
            self.snd_una = new_una;
            // ACKs never move the send pointer backwards, but a stale rewind
            // below the cumulative ACK would resend delivered data; clamp.
            if self.next_psn < self.snd_una {
                self.next_psn = self.snd_una;
            }
        }
    }

    /// NAK: receiver expected `psn`; rewind and resend from there.
    pub fn on_nak(&mut self, psn: u32) {
        self.naks_received += 1;
        // Ignore stale NAKs for already-acknowledged data.
        if psn < self.snd_una {
            return;
        }
        if psn < self.next_psn {
            self.rewind_packets += u64::from(self.next_psn - psn);
            self.next_psn = psn;
        }
    }

    /// Retransmission timeout: no ACK progress while data was outstanding.
    ///
    /// NAK-once receivers can strand a flow: if the retransmitted window is
    /// itself reordered, the receiver silently discards the overtakers (its
    /// NAK for this gap was already spent) and, once the wire drains, nobody
    /// ever speaks again. Hardware RoCE NICs break this with a transport
    /// timer that rewinds to the oldest unacknowledged PSN; so do we.
    /// Returns true if the timeout actually rewound anything.
    pub fn on_timeout(&mut self) -> bool {
        if self.is_complete() || self.next_psn == self.snd_una {
            return false;
        }
        self.timeouts += 1;
        self.rewind_packets += u64::from(self.next_psn - self.snd_una);
        self.next_psn = self.snd_una;
        true
    }

    /// All packets acknowledged — flow complete.
    pub fn is_complete(&self) -> bool {
        self.snd_una >= self.total_packets
    }

    pub fn snd_una(&self) -> u32 {
        self.snd_una
    }

    /// Unacknowledged packets currently outstanding.
    pub fn in_flight(&self) -> u32 {
        self.next_psn - self.snd_una
    }
}

/// Receiver-side go-back-N state for one flow.
#[derive(Debug, Clone, Serialize)]
pub struct GbnReceiver {
    total_packets: u32,
    expected: u32,
    /// A NAK for the current gap has already been sent; RoCE NICs emit one
    /// NAK per out-of-sequence event, then drop further OOO arrivals
    /// silently until the expected PSN shows up.
    nak_outstanding: bool,
    pub ooo_packets: u64,
    pub max_ood: u32,
    pub duplicates: u64,
}

impl GbnReceiver {
    pub fn new(total_packets: u32) -> GbnReceiver {
        assert!(total_packets > 0);
        GbnReceiver {
            total_packets,
            expected: 0,
            nak_outstanding: false,
            ooo_packets: 0,
            max_ood: 0,
            duplicates: 0,
        }
    }

    pub fn on_packet(&mut self, psn: u32) -> RxAction {
        if psn == self.expected {
            self.expected += 1;
            self.nak_outstanding = false;
            RxAction::Deliver { ack_psn: psn }
        } else if psn > self.expected {
            let ood = psn - self.expected;
            self.ooo_packets += 1;
            self.max_ood = self.max_ood.max(ood);
            let nak = if self.nak_outstanding {
                None
            } else {
                self.nak_outstanding = true;
                Some(self.expected)
            };
            RxAction::OutOfOrder { nak_psn: nak, ood }
        } else {
            self.duplicates += 1;
            RxAction::Duplicate
        }
    }

    pub fn is_complete(&self) -> bool {
        self.expected >= self.total_packets
    }

    pub fn expected(&self) -> u32 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_transfer_completes_without_naks() {
        let mut tx = GbnSender::new(5);
        let mut rx = GbnReceiver::new(5);
        while let Some(psn) = tx.take_next() {
            match rx.on_packet(psn) {
                RxAction::Deliver { ack_psn } => tx.on_ack(ack_psn),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(tx.is_complete());
        assert!(rx.is_complete());
        assert_eq!(tx.packets_sent, 5);
        assert_eq!(rx.ooo_packets, 0);
    }

    #[test]
    fn out_of_order_packet_naks_once_and_records_ood() {
        let mut rx = GbnReceiver::new(10);
        assert_eq!(rx.on_packet(0), RxAction::Deliver { ack_psn: 0 });
        // Packet 3 arrives while 1 is expected: OOD = 2, NAK(1).
        assert_eq!(
            rx.on_packet(3),
            RxAction::OutOfOrder {
                nak_psn: Some(1),
                ood: 2
            }
        );
        // Further OOO arrivals in the same gap are dropped without NAK.
        assert_eq!(
            rx.on_packet(4),
            RxAction::OutOfOrder {
                nak_psn: None,
                ood: 3
            }
        );
        assert_eq!(rx.max_ood, 3);
        assert_eq!(rx.ooo_packets, 2);
        // Expected packet arrives: gap closes, NAK re-arms.
        assert_eq!(rx.on_packet(1), RxAction::Deliver { ack_psn: 1 });
        assert_eq!(
            rx.on_packet(5),
            RxAction::OutOfOrder {
                nak_psn: Some(2),
                ood: 3
            }
        );
    }

    #[test]
    fn nak_rewinds_sender() {
        let mut tx = GbnSender::new(10);
        for _ in 0..6 {
            tx.take_next();
        }
        assert_eq!(tx.peek_next(), Some(6));
        tx.on_nak(2);
        assert_eq!(tx.peek_next(), Some(2));
        assert_eq!(tx.rewind_packets, 4);
        assert_eq!(tx.naks_received, 1);
        // Retransmission counts toward packets_sent.
        tx.take_next();
        assert_eq!(tx.packets_sent, 7);
    }

    #[test]
    fn stale_nak_below_cumulative_ack_is_ignored() {
        let mut tx = GbnSender::new(10);
        for _ in 0..8 {
            tx.take_next();
        }
        tx.on_ack(5);
        assert_eq!(tx.snd_una(), 6);
        tx.on_nak(3);
        assert_eq!(tx.peek_next(), Some(8), "stale NAK must not rewind");
    }

    #[test]
    fn duplicates_are_silent() {
        let mut rx = GbnReceiver::new(5);
        rx.on_packet(0);
        rx.on_packet(1);
        assert_eq!(rx.on_packet(0), RxAction::Duplicate);
        assert_eq!(rx.duplicates, 1);
        assert_eq!(rx.ooo_packets, 0);
    }

    #[test]
    fn full_go_back_n_recovery_round_trip() {
        // Simulate a reorder: sender emits 0..5, network delivers 0,2,3,1,4 —
        // classic PFC-induced overtaking.
        let mut tx = GbnSender::new(5);
        let mut rx = GbnReceiver::new(5);
        let first: Vec<u32> = std::iter::from_fn(|| tx.take_next()).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        let mut naks = Vec::new();
        for psn in [0u32, 2, 3, 1, 4] {
            match rx.on_packet(psn) {
                RxAction::Deliver { ack_psn } => tx.on_ack(ack_psn),
                RxAction::OutOfOrder {
                    nak_psn: Some(n), ..
                } => naks.push(n),
                _ => {}
            }
        }
        // Receiver delivered 0 and 1 (1 closed the gap, re-arming the NAK),
        // so NAK(1) fired for packet 2's arrival and NAK(2) for packet 4's.
        assert_eq!(naks, vec![1, 2]);
        assert_eq!(rx.expected(), 2);
        tx.on_nak(naks[0]); // stale: una is already 2
        tx.on_nak(naks[1]); // rewinds to 2
        let retrans: Vec<u32> = std::iter::from_fn(|| tx.take_next()).collect();
        assert_eq!(retrans, vec![2, 3, 4]);
        for psn in retrans {
            if let RxAction::Deliver { ack_psn } = rx.on_packet(psn) {
                tx.on_ack(ack_psn);
            }
        }
        assert!(tx.is_complete() && rx.is_complete());
    }

    #[test]
    fn in_flight_tracking() {
        let mut tx = GbnSender::new(4);
        assert_eq!(tx.in_flight(), 0);
        tx.take_next();
        tx.take_next();
        assert_eq!(tx.in_flight(), 2);
        tx.on_ack(0);
        assert_eq!(tx.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn zero_length_flow_rejected() {
        GbnSender::new(0);
    }

    #[test]
    fn timeout_rewinds_to_oldest_unacked() {
        let mut tx = GbnSender::new(6);
        for _ in 0..6 {
            tx.take_next();
        }
        tx.on_ack(1); // una = 2
        assert!(tx.on_timeout());
        assert_eq!(tx.peek_next(), Some(2));
        assert_eq!(tx.timeouts, 1);
        assert_eq!(tx.rewind_packets, 4);
    }

    #[test]
    fn timeout_is_noop_when_idle_or_complete() {
        let mut tx = GbnSender::new(2);
        assert!(!tx.on_timeout(), "nothing in flight");
        tx.take_next();
        tx.take_next();
        tx.on_ack(1);
        assert!(tx.is_complete());
        assert!(!tx.on_timeout(), "complete flow");
        assert_eq!(tx.timeouts, 0);
    }
}
