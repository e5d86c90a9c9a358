//! The packet — the unit every queue and wire in the simulator carries.
//!
//! A packet is parked in the simulation's `PacketArena` by whoever creates
//! it ([`Packet::park`]) and stays there until a host consumes it or a
//! switch drops it: queues and events hold its 4-byte handle. Along the
//! way only the fields no arena hot column mirrors change (`ingress_port`,
//! `path`, `ecn`, `recircs`); `size_bytes`, `flow` and the kind's control
//! class are fixed at creation. Nothing in the hot path allocates per
//! packet: the arena reuses its slots.

use rlb_engine::{PacketArena, PacketHandle};
use serde::Serialize;

/// What kind of frame this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PacketKind {
    /// Application data (counted by PFC, subject to pausing and ECN).
    Data,
    /// Cumulative acknowledgement; `psn` is the highest delivered PSN.
    /// Carries echoes for RTT/ECN estimation (see field docs).
    Ack,
    /// Negative acknowledgement; `psn` is the PSN the receiver expected.
    Nak,
    /// DCQCN congestion notification packet (receiver → sender).
    Cnp,
    /// RLB PFC-warning CNM relayed hop-by-hop upstream (§3.2.1).
    Cnm {
        origin_node: u32,
        origin_ingress_port: u16,
        ttl: u8,
    },
}

impl PacketKind {
    /// Control frames ride the strict-priority lossless control class:
    /// never ECN-marked, never PFC-counted, never paused.
    #[inline]
    pub fn is_control(self) -> bool {
        !matches!(self, PacketKind::Data)
    }
}

/// One frame on the wire.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Packet {
    pub kind: PacketKind,
    /// Flow index into the simulation's flow table (unused for CNM).
    pub flow: u32,
    /// Data: PSN. Ack: cumulative PSN. Nak: expected PSN.
    pub psn: u32,
    /// Wire size in bytes (payload + headers).
    pub size_bytes: u32,
    pub src_host: u32,
    pub dst_host: u32,
    /// ECN CE mark. For Ack/Nak this is the *echo* of the data packet's CE
    /// bit (control frames themselves are never marked).
    pub ecn: bool,
    /// Departure time from the source NIC; echoed in ACKs for RTT samples.
    pub sent_ps: u64,
    /// Spine index chosen at the source leaf; `u8::MAX` until routed.
    /// Echoed in ACKs so the source leaf can attribute the RTT sample.
    pub path: u8,
    /// Times this packet has been recirculated by RLB.
    pub recircs: u8,
    /// Ingress port at the switch currently holding the packet — the port
    /// whose PFC counter this packet's bytes were charged against.
    pub ingress_port: u16,
    /// IRN selective-repeat ACKs: the receiver's cumulative PSN.
    pub cum: u32,
    /// IRN: this ACK exposes a sequence gap (NACK semantics).
    pub nack: bool,
}

pub const NO_PATH: u8 = u8::MAX;

impl Packet {
    /// Park the packet in `arena`, its hot columns filled from it, at
    /// `now_ps`.
    #[inline]
    pub fn park(self, arena: &mut PacketArena<Packet>, now_ps: u64) -> PacketHandle {
        arena.alloc(
            self.size_bytes,
            self.flow,
            self.kind.is_control(),
            now_ps,
            self,
        )
    }

    pub fn data(flow: u32, psn: u32, size_bytes: u32, src: u32, dst: u32, now_ps: u64) -> Packet {
        Packet {
            kind: PacketKind::Data,
            flow,
            psn,
            size_bytes,
            src_host: src,
            dst_host: dst,
            ecn: false,
            sent_ps: now_ps,
            path: NO_PATH,
            recircs: 0,
            ingress_port: 0,
            cum: 0,
            nack: false,
        }
    }

    /// Control response travelling back from a data packet's receiver to
    /// its sender, echoing path / timestamp / CE for the estimators.
    pub fn response(kind: PacketKind, data: &Packet, psn: u32, size_bytes: u32) -> Packet {
        debug_assert!(kind.is_control());
        Packet {
            kind,
            flow: data.flow,
            psn,
            size_bytes,
            src_host: data.dst_host,
            dst_host: data.src_host,
            ecn: data.ecn,
            sent_ps: data.sent_ps,
            path: data.path,
            recircs: 0,
            ingress_port: 0,
            cum: 0,
            nack: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_classification() {
        assert!(!PacketKind::Data.is_control());
        for k in [
            PacketKind::Ack,
            PacketKind::Nak,
            PacketKind::Cnp,
            PacketKind::Cnm {
                origin_node: 0,
                origin_ingress_port: 0,
                ttl: 3,
            },
        ] {
            assert!(k.is_control());
        }
    }

    #[test]
    fn response_reverses_direction_and_echoes() {
        let mut d = Packet::data(7, 42, 1048, 3, 9, 1_000_000);
        d.path = 2;
        d.ecn = true;
        let ack = Packet::response(PacketKind::Ack, &d, 42, 64);
        assert_eq!((ack.src_host, ack.dst_host), (9, 3));
        assert_eq!(ack.path, 2);
        assert_eq!(ack.sent_ps, 1_000_000);
        assert!(ack.ecn, "CE echo preserved");
        assert_eq!(ack.flow, 7);
    }

    #[test]
    fn packet_is_small() {
        // The arena's cold payload and the cross-shard `WireMsg` both carry
        // it whole; it fits in three quarters of a cache line.
        assert!(std::mem::size_of::<Packet>() <= 48);
    }

    #[test]
    fn park_fills_the_hot_columns_from_the_packet() {
        let mut arena = PacketArena::new();
        let ack = Packet::response(PacketKind::Ack, &Packet::data(7, 1, 1048, 3, 9, 0), 1, 64);
        let h = ack.park(&mut arena, 5);
        assert_eq!(
            (arena.size_bytes(h), arena.flow(h), arena.is_control(h)),
            (64, 7, true)
        );
        assert_eq!(arena.enqueued_at_ps(h), 5);
    }
}
