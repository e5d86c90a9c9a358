//! IRN-style selective-repeat transport (Mittal et al., SIGCOMM 2018,
//! "Revisiting Network Support for RDMA").
//!
//! The paper's related work (§5) positions IRN as the opposite design
//! point to RLB: instead of keeping PFC and avoiding reordering, IRN
//! *abandons* PFC and makes the NIC tolerate loss and reordering with
//! selective retransmission and a BDP-bounded window. Implementing it
//! makes the lossless+RLB vs. lossy+IRN comparison runnable (see the
//! `irn_compare` binary in `rlb-bench`).
//!
//! Model (faithful to IRN's transport logic, simplified bookkeeping):
//!
//! * The receiver **buffers** out-of-order arrivals (no go-back-N
//!   discard); every data packet is acknowledged with the *cumulative*
//!   PSN plus the PSN just received (a one-entry SACK). The first arrival
//!   beyond a gap also raises a NACK flag for the gap's base.
//! * The sender keeps a bitmap of delivered PSNs, bounds its in-flight
//!   packets by one BDP, retransmits selectively on NACK, and falls back
//!   to a retransmission timeout when everything in flight was lost.

use serde::Serialize;
use std::collections::VecDeque;

/// Receiver feedback for one data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrnAck {
    /// Highest PSN such that all PSNs below it are delivered.
    pub cumulative: u32,
    /// The PSN this ACK acknowledges selectively.
    pub sack: u32,
    /// Set when this arrival exposed a sequence gap: the sender should
    /// retransmit starting at `cumulative` without waiting for an RTO.
    pub nack: bool,
}

/// Receiver state: out-of-order arrivals are kept, not discarded.
#[derive(Debug, Clone, Serialize)]
pub struct IrnReceiver {
    total: u32,
    received: Vec<bool>,
    /// All PSNs `< cumulative` delivered to the application.
    cumulative: u32,
    pub ooo_arrivals: u64,
    pub duplicates: u64,
    pub max_ood: u32,
}

impl IrnReceiver {
    pub fn new(total_packets: u32) -> IrnReceiver {
        assert!(total_packets > 0);
        IrnReceiver {
            total: total_packets,
            received: vec![false; total_packets as usize],
            cumulative: 0,
            ooo_arrivals: 0,
            duplicates: 0,
            max_ood: 0,
        }
    }

    /// Process an arriving data packet; returns the ACK to send, or
    /// `None` for duplicates (still harmless — real IRN would re-ACK; we
    /// suppress to halve control traffic, the sender's bitmap copes).
    pub fn on_packet(&mut self, psn: u32) -> Option<IrnAck> {
        debug_assert!(psn < self.total);
        if self.received[psn as usize] {
            self.duplicates += 1;
            return None;
        }
        self.received[psn as usize] = true;
        let nack = psn > self.cumulative;
        if nack {
            self.ooo_arrivals += 1;
            self.max_ood = self.max_ood.max(psn - self.cumulative);
        }
        while (self.cumulative as usize) < self.received.len()
            && self.received[self.cumulative as usize]
        {
            self.cumulative += 1;
        }
        Some(IrnAck {
            cumulative: self.cumulative,
            sack: psn,
            nack,
        })
    }

    pub fn is_complete(&self) -> bool {
        self.cumulative >= self.total
    }

    pub fn cumulative(&self) -> u32 {
        self.cumulative
    }
}

/// Sender state: selective retransmission under a BDP window.
#[derive(Debug, Clone, Serialize)]
pub struct IrnSender {
    total: u32,
    acked: Vec<bool>,
    /// Next never-sent PSN.
    next_new: u32,
    /// All PSNs below this are acked (mirror of the receiver's cumulative).
    cumulative: u32,
    /// PSNs queued for selective retransmission (ordered, deduplicated).
    /// A deque: the hot consumer pops from the front (`take_next`), which
    /// must not shift the whole tail the way `Vec::remove(0)` did.
    retx_queue: VecDeque<u32>,
    /// In-flight cap (BDP in packets).
    window: u32,
    in_flight: u32,
    pub packets_sent: u64,
    pub retransmissions: u64,
    pub nacks: u64,
    pub timeouts: u64,
}

impl IrnSender {
    pub fn new(total_packets: u32, window: u32) -> IrnSender {
        assert!(total_packets > 0);
        assert!(window > 0);
        IrnSender {
            total: total_packets,
            acked: vec![false; total_packets as usize],
            next_new: 0,
            cumulative: 0,
            retx_queue: VecDeque::new(),
            window,
            in_flight: 0,
            packets_sent: 0,
            retransmissions: 0,
            nacks: 0,
            timeouts: 0,
        }
    }

    /// The next PSN to put on the wire (retransmissions first), if the
    /// window allows.
    pub fn peek_next(&self) -> Option<u32> {
        if self.in_flight >= self.window {
            return None;
        }
        if let Some(&psn) = self.retx_queue.front() {
            return Some(psn);
        }
        (self.next_new < self.total).then_some(self.next_new)
    }

    pub fn take_next(&mut self) -> Option<u32> {
        let psn = self.peek_next()?;
        if self.retx_queue.pop_front().is_some() {
            self.retransmissions += 1;
        } else {
            self.next_new += 1;
        }
        self.in_flight += 1;
        self.packets_sent += 1;
        Some(psn)
    }

    /// Process receiver feedback.
    pub fn on_ack(&mut self, ack: IrnAck) {
        if (ack.sack as usize) < self.acked.len() && !self.acked[ack.sack as usize] {
            self.acked[ack.sack as usize] = true;
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        // Cumulative advance may cover PSNs we never saw a SACK for
        // (their ACKs can still be in flight); trust it.
        while self.cumulative < ack.cumulative.min(self.total) {
            if !self.acked[self.cumulative as usize] {
                self.acked[self.cumulative as usize] = true;
                self.in_flight = self.in_flight.saturating_sub(1);
            }
            self.cumulative += 1;
        }
        self.retx_queue.retain(|&p| !self.acked[p as usize]);
        if ack.nack {
            self.nacks += 1;
            // Selective retransmit: the unacked range between the
            // receiver's cumulative pointer and the SACKed packet.
            for p in ack.cumulative..ack.sack {
                if !self.acked[p as usize] && !self.retx_queue.contains(&p) && p < self.next_new {
                    self.retx_queue.push_back(p);
                }
            }
            self.retx_queue.make_contiguous().sort_unstable();
        }
    }

    /// Retransmission timeout: everything sent-but-unacked goes back on
    /// the retransmit queue and the window reopens.
    pub fn on_timeout(&mut self) -> bool {
        if self.is_complete() {
            return false;
        }
        let mut any = false;
        for p in self.cumulative..self.next_new {
            if !self.acked[p as usize] && !self.retx_queue.contains(&p) {
                self.retx_queue.push_back(p);
                any = true;
            }
        }
        if any {
            self.retx_queue.make_contiguous().sort_unstable();
            self.in_flight = 0;
            self.timeouts += 1;
        }
        any
    }

    pub fn is_complete(&self) -> bool {
        self.cumulative >= self.total
    }

    pub fn cumulative(&self) -> u32 {
        self.cumulative
    }

    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_transfer() {
        let mut tx = IrnSender::new(5, 16);
        let mut rx = IrnReceiver::new(5);
        while let Some(psn) = tx.take_next() {
            let ack = rx.on_packet(psn).expect("no duplicates here");
            tx.on_ack(ack);
        }
        assert!(tx.is_complete() && rx.is_complete());
        assert_eq!(tx.packets_sent, 5);
        assert_eq!(tx.retransmissions, 0);
        assert_eq!(rx.ooo_arrivals, 0);
    }

    #[test]
    fn out_of_order_arrivals_are_buffered_not_discarded() {
        let mut rx = IrnReceiver::new(5);
        let a0 = rx.on_packet(0).unwrap();
        assert_eq!((a0.cumulative, a0.sack, a0.nack), (1, 0, false));
        // 3 arrives before 1 and 2: buffered, NACK raised, OOD recorded.
        let a3 = rx.on_packet(3).unwrap();
        assert_eq!((a3.cumulative, a3.sack, a3.nack), (1, 3, true));
        assert_eq!(rx.max_ood, 2);
        // 1 then 2: cumulative jumps over the buffered 3.
        let a1 = rx.on_packet(1).unwrap();
        assert_eq!(a1.cumulative, 2);
        let a2 = rx.on_packet(2).unwrap();
        assert_eq!(a2.cumulative, 4, "buffered PSN 3 must be consumed");
        let a4 = rx.on_packet(4).unwrap();
        assert_eq!(a4.cumulative, 5);
        assert!(rx.is_complete());
    }

    #[test]
    fn nack_triggers_selective_retransmit_only() {
        let mut tx = IrnSender::new(10, 16);
        for _ in 0..6 {
            tx.take_next();
        }
        // Receiver saw 0..3 and then 5 (4 lost): cum=4, sack=5, nack.
        for p in 0..4 {
            tx.on_ack(IrnAck {
                cumulative: p + 1,
                sack: p,
                nack: false,
            });
        }
        tx.on_ack(IrnAck {
            cumulative: 4,
            sack: 5,
            nack: true,
        });
        // Only PSN 4 is queued for retransmission — selective, not go-back-N.
        assert_eq!(tx.peek_next(), Some(4));
        tx.take_next();
        assert_eq!(tx.retransmissions, 1);
        // Next transmission resumes new data.
        assert_eq!(tx.peek_next(), Some(6));
    }

    #[test]
    fn window_caps_in_flight() {
        let mut tx = IrnSender::new(100, 4);
        for _ in 0..4 {
            assert!(tx.take_next().is_some());
        }
        assert_eq!(tx.peek_next(), None, "window full");
        tx.on_ack(IrnAck {
            cumulative: 1,
            sack: 0,
            nack: false,
        });
        assert_eq!(tx.peek_next(), Some(4));
    }

    #[test]
    fn timeout_requeues_all_unacked() {
        let mut tx = IrnSender::new(6, 16);
        for _ in 0..6 {
            tx.take_next();
        }
        tx.on_ack(IrnAck {
            cumulative: 2,
            sack: 1,
            nack: false,
        });
        assert!(tx.on_timeout());
        assert_eq!(tx.timeouts, 1);
        // 2..6 unacked → retransmit in order.
        let order: Vec<u32> = std::iter::from_fn(|| tx.take_next()).take(4).collect();
        assert_eq!(order, vec![2, 3, 4, 5]);
        assert!(!IrnSender::new(1, 1).on_timeout(), "nothing sent: no-op");
    }

    #[test]
    fn duplicate_arrivals_suppressed() {
        let mut rx = IrnReceiver::new(3);
        rx.on_packet(0).unwrap();
        assert!(rx.on_packet(0).is_none());
        assert_eq!(rx.duplicates, 1);
    }

    #[test]
    fn cumulative_ack_covers_unsacked_psns() {
        let mut tx = IrnSender::new(4, 16);
        for _ in 0..4 {
            tx.take_next();
        }
        // A single late ACK with cum=4 (all delivered) finishes the flow
        // even though the per-packet SACKs were lost.
        tx.on_ack(IrnAck {
            cumulative: 4,
            sack: 3,
            nack: false,
        });
        assert!(tx.is_complete());
        assert_eq!(tx.in_flight(), 0);
    }
}
