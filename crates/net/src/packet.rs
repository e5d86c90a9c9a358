//! The packet — the unit every queue and wire in the simulator carries.
//!
//! A packet is parked in the simulation's `PacketArena` by whoever creates
//! it ([`Packet::park`]) and stays there until a host consumes it or a
//! switch drops it: queues and events hold its 4-byte handle. Along the
//! way only the fields no arena hot column mirrors change (`ingress_port`,
//! `path`, the ECN flag, `recircs`); `size_bytes`, `flow` and the kind's control
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
    /// RLB PFC-warning CNM relayed hop-by-hop upstream (§3.2.1); its
    /// origin rides in fields a CNM never uses ([`Packet::cnm`]).
    Cnm,
}

impl PacketKind {
    /// Control frames ride the strict-priority lossless control class:
    /// never ECN-marked, never PFC-counted, never paused.
    #[inline]
    pub fn is_control(self) -> bool {
        !matches!(self, PacketKind::Data)
    }
}

/// `Packet::flags`: the ECN CE mark (or its echo).
const ECN: u8 = 1;
/// `Packet::flags`: an IRN ACK that exposes a sequence gap.
const NACK: u8 = 2;

/// One frame on the wire: 32 bytes, so the arena's payload column
/// (`Option<Packet>`, the kind's spare values are its niche) and the
/// cross-shard `WireMsg` stay small. The sender is not on the frame: both
/// ends of a flow hold its spec, so a host reads it from there.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Packet {
    pub kind: PacketKind,
    /// `ECN` and `NACK`; read through [`ecn`](Self::ecn) and
    /// [`nack`](Self::nack).
    flags: u8,
    /// Spine index chosen at the source leaf; `u8::MAX` until routed.
    /// Echoed in ACKs so the source leaf can attribute the RTT sample.
    pub path: u8,
    /// Times this packet has been recirculated by RLB. A CNM: its TTL.
    pub recircs: u8,
    /// Ingress port at the switch currently holding the packet — the port
    /// whose PFC counter this packet's bytes were charged against.
    pub ingress_port: u16,
    /// Wire size in bytes (payload + headers); `SimConfig::validate` keeps
    /// every frame within 16 bits.
    pub size_bytes: u16,
    /// Flow index into the simulation's flow table (`u32::MAX` for a CNM).
    pub flow: u32,
    /// Data: PSN. Ack: cumulative PSN. Nak: expected PSN. A CNM: its
    /// origin switch.
    pub psn: u32,
    pub dst_host: u32,
    /// IRN selective-repeat ACKs: the receiver's cumulative PSN. A CNM:
    /// its origin ingress port.
    pub cum: u32,
    /// Departure time from the source NIC; echoed in ACKs for RTT samples.
    pub sent_ps: u64,
}

pub const NO_PATH: u8 = u8::MAX;

impl Packet {
    /// Park the packet in `arena`, its hot columns filled from it, at
    /// `now_ps`.
    #[inline]
    pub fn park(self, arena: &mut PacketArena<Packet>, now_ps: u64) -> PacketHandle {
        arena.alloc(
            self.size_bytes as u32,
            self.flow,
            self.kind.is_control(),
            now_ps,
            self,
        )
    }

    pub fn data(flow: u32, psn: u32, size_bytes: u16, dst: u32, now_ps: u64) -> Packet {
        Packet {
            kind: PacketKind::Data,
            flags: 0,
            path: NO_PATH,
            recircs: 0,
            ingress_port: 0,
            size_bytes,
            flow,
            psn,
            dst_host: dst,
            cum: 0,
            sent_ps: now_ps,
        }
    }

    /// Control response travelling back from a data packet's receiver to
    /// its sender, host `to` (the flow's source), echoing path / timestamp
    /// / CE for the estimators.
    pub fn response(kind: PacketKind, data: &Packet, to: u32, psn: u32, size_bytes: u16) -> Packet {
        debug_assert!(kind.is_control());
        Packet {
            kind,
            flags: data.flags & ECN,
            path: data.path,
            recircs: 0,
            ingress_port: 0,
            size_bytes,
            flow: data.flow,
            psn,
            dst_host: to,
            cum: 0,
            sent_ps: data.sent_ps,
        }
    }

    /// A PFC-warning CNM about switch `origin_node`'s (its node index,
    /// `Topology::node_index`) ingress `origin_port`, with `ttl` relays
    /// left.
    /// It is never routed by destination nor tied to a flow, so the
    /// origin rides in `psn` and `cum` and the TTL in `recircs`; read it
    /// back with [`cnm_origin`](Self::cnm_origin).
    pub fn cnm(
        origin_node: u16,
        origin_port: u16,
        ttl: u8,
        size_bytes: u16,
        now_ps: u64,
    ) -> Packet {
        Packet {
            kind: PacketKind::Cnm,
            flags: 0,
            path: NO_PATH,
            recircs: ttl,
            ingress_port: 0,
            size_bytes,
            flow: u32::MAX,
            psn: origin_node as u32,
            dst_host: u32::MAX,
            cum: origin_port as u32,
            sent_ps: now_ps,
        }
    }

    /// A CNM's `(origin node, origin ingress port, ttl)`; `None` for any
    /// other kind.
    #[inline]
    pub fn cnm_origin(&self) -> Option<(u16, u16, u8)> {
        let origin = (self.psn as u16, self.cum as u16, self.recircs);
        (self.kind == PacketKind::Cnm).then_some(origin)
    }

    /// ECN CE mark. For Ack/Nak/Cnp this is the *echo* of the data
    /// packet's CE bit (control frames themselves are never marked).
    #[inline]
    pub fn ecn(&self) -> bool {
        self.flags & ECN != 0
    }

    #[inline]
    pub fn set_ecn(&mut self, on: bool) {
        self.set_flag(ECN, on);
    }

    /// IRN: this ACK exposes a sequence gap (NACK semantics).
    #[inline]
    pub fn nack(&self) -> bool {
        self.flags & NACK != 0
    }

    #[inline]
    pub fn set_nack(&mut self, on: bool) {
        self.set_flag(NACK, on);
    }

    #[inline]
    fn set_flag(&mut self, flag: u8, on: bool) {
        self.flags = if on {
            self.flags | flag
        } else {
            self.flags & !flag
        };
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
            PacketKind::Cnm,
        ] {
            assert!(k.is_control());
        }
    }

    #[test]
    fn response_reverses_direction_and_echoes() {
        let mut d = Packet::data(7, 42, 1048, 9, 1_000_000);
        d.path = 2;
        d.set_ecn(true);
        d.set_nack(true);
        let ack = Packet::response(PacketKind::Ack, &d, 3, 42, 64);
        assert_eq!(ack.dst_host, 3);
        assert_eq!(ack.path, 2);
        assert_eq!(ack.sent_ps, 1_000_000);
        assert!(ack.ecn(), "CE echo preserved");
        assert!(!ack.nack(), "the NACK flag is the receiver's to set");
        assert_eq!(ack.flow, 7);
    }

    #[test]
    fn packet_is_small() {
        // The arena's cold payload and the cross-shard `WireMsg` both carry
        // it whole: half a cache line, the payload column's `Option`
        // included.
        assert_eq!(std::mem::size_of::<Packet>(), 32);
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 32);
    }

    #[test]
    fn flags_are_independent() {
        let mut p = Packet::data(0, 0, 1, 1, 0);
        p.set_ecn(true);
        p.set_nack(true);
        p.set_ecn(false);
        assert!(!p.ecn() && p.nack());
        p.set_nack(false);
        assert!(!p.ecn() && !p.nack());
    }

    #[test]
    fn a_cnm_carries_its_origin() {
        let cnm = Packet::cnm(700, 517, 4, 64, 9);
        assert_eq!(cnm.cnm_origin(), Some((700, 517, 4)));
        assert!(cnm.kind.is_control());
        assert_eq!((cnm.flow, cnm.size_bytes, cnm.sent_ps), (u32::MAX, 64, 9));
        assert_eq!(Packet::data(0, 0, 1, 1, 0).cnm_origin(), None);
    }

    #[test]
    fn park_fills_the_hot_columns_from_the_packet() {
        let mut arena = PacketArena::new();
        let ack = Packet::response(PacketKind::Ack, &Packet::data(7, 1, 1048, 9, 0), 3, 1, 64);
        let h = ack.park(&mut arena, 5);
        assert_eq!(
            (arena.size_bytes(h), arena.flow(h), arena.is_control(h)),
            (64, 7, true)
        );
        assert_eq!(arena.enqueued_at_ps(h), 5);
    }
}
