//! The scheduling handle: the clock, the event queue, and the one place
//! that derives an event's canonical key and decides where it goes.
//!
//! Every event carries a `u128` key packing the simulated time the schedule
//! was *issued*, the rank of the scheduling entity, and that entity's own
//! running schedule counter (`shard_key`). Ranks are a fixed property of
//! the **topology**, never of the shard layout — two reserved ranks, then
//! `2 + node index` (`Topology`'s node order: hosts, leaves, spines) — so
//! a causal event chain takes the same keys on one shard or many. (Keying
//! by *shard id* instead would reorder same-picosecond ties from different
//! leaves whenever the leaf→shard map changes.) Callers name a [`Node`], a
//! construction index or the global clock; ranks, counters and the shard
//! map never leave this file.

use super::Event;
use crate::config::TopoConfig;
use crate::packet::Packet;
use crate::switch::Reserved;
use crate::topology::{Node, Numbering, PortId, Topology};
use rlb_engine::{shard_key, PacketArena, PacketHandle, ShardEventQueue, SimTime};

/// Keys construction-time schedules (flow starts, the fault timeline, the
/// initial DCQCN ticks) under a single global index, and sorts before
/// every runtime rank so time-zero construction events dispatch in
/// insertion order for every shard count.
const RANK_CONSTRUCT: u16 = 0;
/// Keys fabric-wide clocks (DCQCN tick re-arms, monitor ticks) that are
/// replicated on every shard and therefore advance each replica's counter
/// identically.
const RANK_GLOBAL: u16 = 1;
/// Rank of node index 0; a fabric entity's rank is this plus its node
/// index. `TopoConfig::validate`'s port limit keeps it within 16 bits
/// (a fabric has at least three ports per spine more than it has nodes).
const RANK_NODE0: u16 = 2;

/// A timestamped cross-shard event: produced by [`Sched::send`] or
/// [`Sched::send_frame`] when the receiving entity lives on another shard,
/// carried through the bounded-window driver's mailboxes, and applied at
/// the receiver via [`Sched::deliver`]. The key is computed by the
/// *sender* with exactly the derivation a local schedule uses, so merge
/// order at the receiver is independent of delivery route and arrival
/// order.
pub(crate) struct WireMsg {
    pub at: SimTime,
    pub key: u128,
    pub ev: Wire,
}

/// What a [`WireMsg`] carries. Packet handles are replica-local, so a
/// frame crosses by value: it leaves the sender's arena at `send_frame`
/// and is parked in the receiver's at `deliver`.
pub(crate) enum Wire {
    /// An event that holds no packet (a PFC frame).
    Event(Event),
    /// A `LinkArrive` at `port` with its packet.
    Frame { port: PortId, pkt: Packet },
}

/// One replica's scheduling state.
pub(super) struct Sched {
    q: ShardEventQueue<Event>,
    /// This replica's shard id / total shard count (0 of 1 = the whole fabric).
    shard_id: u16,
    n_shards: u16,
    /// The topology's node order (`rank` runs once per frame sent).
    numbering: Numbering,
    /// Owning shard of every entity, indexed by node index — `shard_for`
    /// tabulated once, so `send` pays one load per frame instead of the
    /// host→leaf and band divisions.
    shard_map: Vec<u16>,
    /// Per-entity schedule counters backing the canonical tie key, by rank.
    ent_cnt: Vec<u64>,
    /// Cross-shard messages produced by the current window, per destination
    /// shard (drained by the driver at the window barrier).
    outbox: Vec<Vec<WireMsg>>,
    /// Canonical key of the event currently being dispatched.
    cur_key: u128,
    /// End (exclusive) of the window last dispatched (`pop_before`'s
    /// bound): every reserved completion before it has passed, every one at
    /// or after it is still pending at the barrier.
    window_end: u64,
}

impl Sched {
    /// Shard `shard_id` of an `n_shards`-way partition of `topo`.
    pub(super) fn new(topo: &Topology, shard_id: u16, n_shards: u16) -> Sched {
        assert!(shard_id < n_shards, "shard {shard_id} of {n_shards}");
        let numbering = topo.numbering;
        let n_nodes = numbering.node_count();
        let shard_map: Vec<u16> = (0..n_nodes)
            .map(|i| Self::shard_for(&topo.cfg, n_shards, numbering.node_at(i as u16)))
            .collect();
        Sched {
            q: ShardEventQueue::new(),
            shard_id,
            n_shards,
            numbering,
            shard_map,
            ent_cnt: vec![0; RANK_NODE0 as usize + n_nodes as usize],
            outbox: (0..n_shards).map(|_| Vec::new()).collect(),
            cur_key: 0,
            window_end: 0,
        }
    }

    /// The ownership partition: `n_shards` *columns*. Shard `i` owns leaf
    /// band `i` (leaf `l` → `l·n / n_leaves`) with its hosts, and spine
    /// band `i` (spine `s` → `s·n / n_spines`). Host↔leaf traffic is
    /// therefore always shard-local, a leaf↔spine wire is local whenever
    /// both ends fall in the same column (`1/n` of them when `n` divides
    /// both counts), and the wires that do cross — data frames and PFC —
    /// carry at least one link propagation delay, which is exactly the
    /// window the driver synchronizes on. Bands differ in size by at most
    /// one; `shard::shard_count` keeps `n ≤ n_leaves`, so no shard is
    /// empty (one may own no spine when `n > n_spines`).
    fn shard_for(topo: &TopoConfig, n_shards: u16, node: Node) -> u16 {
        let n = n_shards as u64;
        let band = |i: u32, of: u32| (i as u64 * n / of as u64) as u16;
        match node {
            Node::Spine(s) => band(s, topo.n_spines),
            Node::Leaf(l) => band(l, topo.n_leaves),
            Node::Host(h) => band(h / topo.hosts_per_leaf, topo.n_leaves),
        }
    }

    /// Canonical rank of any fabric entity.
    #[inline]
    fn rank(&self, node: Node) -> u16 {
        RANK_NODE0 + self.numbering.node_index(node)
    }

    pub(super) fn shard_id(&self) -> u16 {
        self.shard_id
    }

    #[inline]
    pub(super) fn n_shards(&self) -> u16 {
        self.n_shards
    }

    #[inline]
    pub(super) fn shard_of(&self, node: Node) -> u16 {
        self.shard_map[self.numbering.node_index(node) as usize]
    }

    pub(super) fn owns(&self, node: Node) -> bool {
        self.shard_of(node) == self.shard_id
    }

    #[inline]
    pub(super) fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Where dispatch stands: the time and canonical key of the event being
    /// dispatched. Whatever sorts before it has happened.
    #[inline]
    pub(super) fn cursor(&self) -> (u64, u128) {
        (self.q.now().as_ps(), self.cur_key)
    }

    /// Take `node`'s next canonical key. A schedule consumes it; so does a
    /// completion that is reserved instead (DESIGN §9.7), which keeps every
    /// later key exactly where scheduling it would have put it.
    #[inline]
    pub(super) fn reserve(&mut self, node: Node) -> u128 {
        self.take_key(self.rank(node))
    }

    #[inline]
    fn take_key(&mut self, rank: u16) -> u128 {
        let cnt = self.ent_cnt[rank as usize];
        self.ent_cnt[rank as usize] = cnt + 1;
        shard_key(self.q.now().as_ps(), rank, cnt)
    }

    /// Schedule a shard-local event under `node`'s canonical key.
    #[inline]
    pub(super) fn schedule(&mut self, node: Node, at: SimTime, ev: Event) {
        let key = self.reserve(node);
        self.q.insert_message(at, key, ev);
    }

    /// Schedule a replicated fabric-wide clock event.
    pub(super) fn schedule_global(&mut self, at: SimTime, ev: Event) {
        let key = self.take_key(RANK_GLOBAL);
        self.q.insert_message(at, key, ev);
    }

    /// Schedule the construction-time event numbered `index`, under the key
    /// `(0, RANK_CONSTRUCT, index)` whenever it is issued: every shard
    /// derives the same key for it.
    pub(super) fn schedule_construct(&mut self, at: SimTime, index: u64, ev: Event) {
        self.q
            .insert_message(at, shard_key(0, RANK_CONSTRUCT, index), ev);
    }

    /// Schedule the completion `done` reserved, under its key.
    #[inline]
    pub(super) fn schedule_reserved(&mut self, done: Reserved, ev: Event) {
        self.q.insert_message(SimTime(done.done_ps), done.key, ev);
    }

    /// `from`'s next canonical key for a schedule toward `peer`, and the
    /// shard that owns `peer`.
    #[inline]
    fn route(&mut self, from: Node, peer: Node) -> (u128, u16) {
        (self.reserve(from), self.shard_of(peer))
    }

    /// Schedule an event that crosses a wire from `from` toward `peer`:
    /// inserted locally if this shard owns the peer, else queued in the
    /// outbox for barrier delivery. The key derivation is identical either
    /// way — the delivery route never affects the canonical merge order.
    /// Frames go through [`send_frame`](Self::send_frame).
    #[inline]
    pub(super) fn send(&mut self, from: Node, peer: Node, at: SimTime, ev: Event) {
        debug_assert!(
            !matches!(ev, Event::LinkArrive { .. } | Event::Recirculate { .. }),
            "a packet handle is replica-local"
        );
        let (key, dst) = self.route(from, peer);
        if dst == self.shard_id {
            self.q.insert_message(at, key, ev);
        } else {
            self.outbox[dst as usize].push(WireMsg {
                at,
                key,
                ev: Wire::Event(ev),
            });
        }
    }

    /// [`send`](Self::send) for packet `h`'s arrival at `port`, one of
    /// `peer`'s: the event carries the handle when this shard owns the
    /// peer; else the packet leaves `arena` and crosses in the wire
    /// message.
    #[inline]
    pub(super) fn send_frame(
        &mut self,
        arena: &mut PacketArena<Packet>,
        from: Node,
        peer: Node,
        port: PortId,
        at: SimTime,
        h: PacketHandle,
    ) {
        let (key, dst) = self.route(from, peer);
        if dst == self.shard_id {
            self.q
                .insert_message(at, key, Event::LinkArrive { port, pkt: h });
        } else {
            let pkt = arena.free(h);
            let ev = Wire::Frame { port, pkt };
            self.outbox[dst as usize].push(WireMsg { at, key, ev });
        }
    }

    pub(super) fn window_end(&self) -> u64 {
        self.window_end
    }

    /// Pop the next event strictly before `end`, the end of the window
    /// being dispatched; it becomes the event being dispatched.
    #[inline]
    pub(super) fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, u128, Event)> {
        self.window_end = end.as_ps();
        let (at, key, ev) = self.q.pop_before(end)?;
        self.cur_key = key;
        Some((at, key, ev))
    }

    pub(super) fn peek_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    /// Peak events pending at once, and what the queue's storage can hold.
    pub(super) fn storage(&self) -> (usize, usize) {
        (self.q.high_water(), self.q.capacity())
    }

    #[cfg(feature = "audit")]
    pub(super) fn events(&self) -> impl Iterator<Item = &Event> {
        self.q.iter_events()
    }

    /// Hand this window's sends for shard `dst` over by exchanging the
    /// outbox with `mailbox`, which the receiver left drained (empty,
    /// capacity kept) — so the next window pushes into storage that is
    /// already allocated and nothing is copied. Returns the number sent.
    pub(super) fn swap_outbox(&mut self, dst: u16, mailbox: &mut Vec<WireMsg>) -> usize {
        debug_assert!(
            mailbox.is_empty(),
            "mailbox handed over before it was drained"
        );
        std::mem::swap(&mut self.outbox[dst as usize], mailbox);
        mailbox.len()
    }

    /// Drain `mailbox` into the event queue, in place, parking each frame
    /// it carries in `arena`.
    pub(super) fn deliver(&mut self, mailbox: &mut Vec<WireMsg>, arena: &mut PacketArena<Packet>) {
        let now_ps = self.q.now().as_ps();
        for m in mailbox.drain(..) {
            let ev = match m.ev {
                Wire::Event(ev) => ev,
                Wire::Frame { port, pkt } => Event::LinkArrive {
                    port,
                    pkt: pkt.park(arena, now_ps),
                },
            };
            self.q.insert_message(m.at, m.key, ev);
        }
    }
}

#[cfg(test)]
impl Sched {
    /// Events pending.
    pub(super) fn len(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 leaves × 2 spines × 2 hosts per leaf.
    fn topo() -> Topology {
        Topology::new(TopoConfig {
            n_leaves: 4,
            n_spines: 2,
            hosts_per_leaf: 2,
            ..TopoConfig::default()
        })
    }

    fn keys(s: &mut Sched) -> Vec<u128> {
        std::iter::from_fn(|| s.pop_before(SimTime(u64::MAX)).map(|(_, key, _)| key)).collect()
    }

    /// A send from leaf 0 to spine 1 on two shards leaves through the
    /// outbox under exactly the key a send to a local peer would take.
    #[test]
    fn a_send_to_another_shard_takes_the_local_key() {
        let (from, local, remote) = (Node::Leaf(0), Node::Spine(0), Node::Spine(1));
        let mut s = Sched::new(&topo(), 0, 2);
        assert!(s.owns(from) && s.owns(local) && !s.owns(remote));
        let mut twin = Sched::new(&topo(), 0, 2);
        for _ in 0..3 {
            s.send(from, remote, SimTime(7), Event::AlphaTick);
            twin.send(from, local, SimTime(7), Event::AlphaTick);
        }
        let mut mailbox = Vec::new();
        assert_eq!(s.swap_outbox(1, &mut mailbox), 3);
        assert_eq!(s.len(), 0, "nothing stays local");
        let sent: Vec<u128> = mailbox.iter().map(|m| m.key).collect();
        assert_eq!(sent, keys(&mut twin));
        // Delivered, they pop in that order at the receiver.
        let mut peer = Sched::new(&topo(), 1, 2);
        peer.deliver(&mut mailbox, &mut PacketArena::new());
        assert!(mailbox.is_empty());
        assert_eq!(keys(&mut peer), sent);
    }

    /// A frame to a peer on another shard leaves the sender's arena and is
    /// parked in the receiver's at delivery; to a local peer it keeps its
    /// handle. Both take the same key.
    #[test]
    fn a_frame_to_another_shard_crosses_by_value() {
        let (from, local, remote) = (Node::Leaf(0), Node::Spine(0), Node::Spine(1));
        let pkt = Packet::data(4, 9, 1_048, 5, 0);
        let (mut s, mut twin) = (Sched::new(&topo(), 0, 2), Sched::new(&topo(), 0, 2));
        let (mut arena, mut twin_arena) = (PacketArena::new(), PacketArena::new());
        let h = pkt.park(&mut arena, 0);
        s.send_frame(&mut arena, from, remote, PortId(3), SimTime(7), h);
        assert!(arena.is_empty(), "the packet left the sender's arena");
        let h = pkt.park(&mut twin_arena, 0);
        twin.send_frame(&mut twin_arena, from, local, PortId(3), SimTime(7), h);
        assert_eq!(twin_arena.len(), 1, "a local frame keeps its slot");
        let mut mailbox = Vec::new();
        assert_eq!(s.swap_outbox(1, &mut mailbox), 1);
        let mut peer = Sched::new(&topo(), 1, 2);
        let mut peer_arena = PacketArena::new();
        peer.deliver(&mut mailbox, &mut peer_arena);
        let (_, key, ev) = peer.pop_before(SimTime(u64::MAX)).expect("delivered");
        assert_eq!(key, keys(&mut twin)[0]);
        let Event::LinkArrive {
            port: PortId(3),
            pkt: h,
        } = ev
        else {
            panic!("{ev:?}")
        };
        let got = peer_arena.free(h);
        assert_eq!((got.flow, got.psn, got.size_bytes), (4, 9, 1_048));
        assert!(peer_arena.is_empty());
    }

    /// A reserved key is the key the entity's schedule would have taken,
    /// and the next schedule takes the key after it.
    #[test]
    fn a_reservation_consumes_the_counter_as_a_schedule_does() {
        let (node, other) = (Node::Host(3), Node::Host(2));
        let mut reserving = Sched::new(&topo(), 0, 1);
        let mut scheduling = Sched::new(&topo(), 0, 1);
        let reserved = reserving.reserve(node);
        reserving.schedule(node, SimTime(5), Event::RtoCheck(0));
        reserving.schedule(other, SimTime(5), Event::RtoCheck(1));
        for _ in 0..2 {
            scheduling.schedule(node, SimTime(5), Event::RtoCheck(0));
        }
        scheduling.schedule(other, SimTime(5), Event::RtoCheck(1));
        // Host 2 ranks before host 3, and its counter is its own.
        let taken = keys(&mut scheduling);
        assert_eq!(reserved, taken[1]);
        assert_eq!(keys(&mut reserving), [taken[0], taken[2]]);
    }

    /// Replicated clocks take the same keys on every replica of every
    /// partition, whatever else each replica schedules.
    #[test]
    fn global_schedules_advance_identically_on_every_replica() {
        let replicas = [(0, 1), (0, 2), (1, 2), (3, 4)];
        let runs: Vec<Vec<u128>> = replicas
            .iter()
            .map(|&(id, n)| {
                let mut s = Sched::new(&topo(), id, n);
                for i in 0..4u64 {
                    s.schedule(Node::Leaf(id as u32), SimTime(9), Event::RtoCheck(0));
                    s.schedule_global(SimTime(10 + i), Event::IncreaseTick);
                }
                assert_eq!(s.len(), 8);
                std::iter::from_fn(|| s.pop_before(SimTime(u64::MAX)))
                    .filter(|(_, _, ev)| matches!(ev, Event::IncreaseTick))
                    .map(|(_, key, _)| key)
                    .collect()
            })
            .collect();
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "{runs:?}");
    }

    /// The column partition over every small fabric shape and every shard
    /// count the driver can ask for (`shard_count` keeps `n ≤ n_leaves`).
    #[test]
    fn shard_for_cuts_the_fabric_into_balanced_columns() {
        for (leaves, spines, hpl) in
            (2..=13u32).flat_map(|l| (1..=13u32).flat_map(move |s| [(l, s, 1), (l, s, 3)]))
        {
            let topo = TopoConfig {
                n_leaves: leaves,
                n_spines: spines,
                hosts_per_leaf: hpl,
                ..TopoConfig::default()
            };
            for n in 1..=leaves as u16 {
                let of = |node| Sched::shard_for(&topo, n, node);
                let (mut leaf_band, mut spine_band) =
                    (vec![0u32; n as usize], vec![0u32; n as usize]);
                for l in 0..leaves {
                    // `of` is a function, so "exactly one owner" is the range.
                    assert!(of(Node::Leaf(l)) < n);
                    leaf_band[of(Node::Leaf(l)) as usize] += 1;
                    for h in l * hpl..(l + 1) * hpl {
                        assert_eq!(
                            of(Node::Host(h)),
                            of(Node::Leaf(l)),
                            "host {h} left its leaf"
                        );
                    }
                }
                for s in 0..spines {
                    assert!(of(Node::Spine(s)) < n);
                    spine_band[of(Node::Spine(s)) as usize] += 1;
                }
                let what = format!("{leaves}x{spines} on {n} shards");
                assert!(
                    leaf_band.iter().all(|&c| c >= 1),
                    "{what}: a shard without a leaf"
                );
                for band in [&leaf_band, &spine_band] {
                    let (lo, hi) = (band.iter().min().unwrap(), band.iter().max().unwrap());
                    assert!(hi - lo <= 1, "{what}: bands {band:?}");
                }
                if leaves % n as u32 == 0 && spines % n as u32 == 0 {
                    let local = (0..leaves)
                        .flat_map(|l| (0..spines).map(move |s| (l, s)))
                        .filter(|&(l, s)| of(Node::Leaf(l)) == of(Node::Spine(s)))
                        .count() as u32;
                    assert_eq!(local, leaves * spines / n as u32, "{what}: local links");
                }
            }
        }
    }

    /// One shard owns everything, and the map the hot path reads is
    /// `shard_for` tabulated by node index.
    #[test]
    fn shard_map_tabulates_shard_for_by_node_index() {
        let topo = Topology::new(TopoConfig {
            n_leaves: 5,
            n_spines: 3,
            hosts_per_leaf: 2,
            ..TopoConfig::default()
        });
        for n in [1u16, 2, 5] {
            let s = Sched::new(&topo, n - 1, n);
            let nodes = (0..10)
                .map(Node::Host)
                .chain((0..5).map(Node::Leaf))
                .chain((0..3).map(Node::Spine));
            for (i, node) in nodes.enumerate() {
                assert_eq!(s.shard_map[i], Sched::shard_for(&topo.cfg, n, node));
                assert_eq!(s.shard_of(node), s.shard_map[i]);
                assert_eq!(s.rank(node), 2 + i as u16);
                assert!(n > 1 || s.owns(node));
            }
        }
    }

    /// The `net/shard_sync` criterion group hands over a stand-in of this
    /// size (the real type is crate-private); keep the two in step. A
    /// frame crosses with its 32-byte packet by value, so the message is
    /// 64 bytes while the event it becomes is 8.
    #[test]
    fn wire_msg_size_is_what_the_mailbox_bench_assumes() {
        assert_eq!(std::mem::size_of::<Wire>(), 40);
        assert_eq!(std::mem::size_of::<WireMsg>(), 64);
    }
}
