//! # rlb-engine — deterministic discrete-event simulation core
//!
//! The foundation under the RLB network simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-picosecond clock in which
//!   serialization delays at datacenter link rates are exact.
//! * [`ShardEventQueue`] — the future-event list, ordered by `(time, key)`
//!   with a caller-computed [`shard_key`], so equal-seed runs replay
//!   bit-exactly on any shard count; [`EventQueue`] is the same list with
//!   FIFO tie-breaking on an insertion counter. Both sit on one
//!   hierarchical timing wheel (see `wheel`); the original binary-heap
//!   queue survives only in the tests, as the differential reference.
//! * [`FlowTable`] — dense O(1) per-flow state storage with
//!   `BTreeMap`-compatible deterministic iteration, for the per-packet
//!   decision hot path in the load balancers.
//! * [`PacketArena`] — a generational slab owning every live packet, with
//!   SoA hot columns (size, flow, class, allocation time) so occupancy
//!   sweeps and byte accounting never touch the cold payload; queues and
//!   events move 4-byte [`PacketHandle`]s instead of full packets.
//! * [`rng`] — seed-derived independent random substreams.
//!
//! The engine is deliberately ignorant of packets and switches; the network
//! semantics live in `rlb-net`, which owns the dispatch loop.

// Library code must justify every panic site: bare unwrap() is denied here
// (tests are exempt). Enforced alongside `cargo xtask lint`'s lib-unwrap rule.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod arena;
pub mod queue;
pub mod rng;
pub mod table;
pub mod time;
mod wheel;

pub use arena::{PacketArena, PacketHandle};
pub use queue::{shard_key, EventQueue, ShardEventQueue};
pub use rng::{substream, SimRng};
pub use table::FlowTable;
pub use time::{bytes_in, tx_delay, SimDuration, SimTime};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::queue::HeapEventQueue;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the insertion order, events pop sorted by time, and
        /// equal-time events pop in insertion order.
        #[test]
        fn queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let mut popped = Vec::new();
            while let Some((t, idx)) = q.pop() {
                popped.push((t.as_ps(), idx));
            }
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "FIFO violated at t={}", w[0].0);
                }
            }
        }

        /// Differential: the timing-wheel queue and the reference heap queue,
        /// driven through the same schedule/pop interleaving, produce
        /// identical pop sequences. Deltas span wheel levels, the far-future
        /// spillover, and massive same-timestamp tie batches.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..200_000_000_000, 1u16..300), 1..120)
        ) {
            let mut wheel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut payload = 0u64;
            for (kind, delta, reps) in ops {
                match kind {
                    // Burst of same-timestamp ties at now + delta.
                    0 => {
                        let at = SimTime(wheel.now().as_ps() + delta);
                        for _ in 0..reps {
                            wheel.schedule(at, payload);
                            heap.schedule(at, payload);
                            payload += 1;
                        }
                    }
                    // Spread of distinct near timestamps.
                    1 => {
                        for r in 0..reps as u64 {
                            let at = SimTime(wheel.now().as_ps() + delta + r * 777);
                            wheel.schedule(at, payload);
                            heap.schedule(at, payload);
                            payload += 1;
                        }
                    }
                    // Far-future spillover (beyond the 2^36-tick span).
                    2 => {
                        let at = SimTime(
                            wheel.now().as_ps() + delta + (1u64 << 51));
                        wheel.schedule(at, payload);
                        heap.schedule(at, payload);
                        payload += 1;
                    }
                    // Pop a batch, checking equality as we go.
                    _ => {
                        for _ in 0..reps {
                            let (a, b) = (wheel.pop(), heap.pop());
                            prop_assert_eq!(a, b);
                            if a.is_none() {
                                break;
                            }
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            // Drain to empty: full tail must match too.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(wheel.now(), heap.now());
            prop_assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
        }

        /// Differential: `FlowTable` driven through random
        /// insert/remove/get/sweep interleavings behaves observably
        /// identically to a `BTreeMap` reference model — returned old
        /// values, lookups, lengths, and full ascending-key iteration
        /// order included. Keys mix the dense slab region with sparse
        /// open-addressed overflow keys so both layouts are exercised.
        #[test]
        fn table_matches_btreemap_reference(
            ops in proptest::collection::vec(
                (0u8..6, 0u64..64, 0u64..1_000_000), 1..300)
        ) {
            use std::collections::BTreeMap;
            let mut table: FlowTable<u64> = FlowTable::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            // Map the small key index onto a mix of dense and sparse keys,
            // with deliberate collisions (same index → same key).
            let key_of = |i: u64| -> u64 {
                match i % 4 {
                    0 | 1 => i,                                   // dense, tiny
                    2 => table::DENSE_KEY_LIMIT + i * 131,        // sparse
                    _ => table::DENSE_KEY_LIMIT - 1 - (i / 4),    // dense, near boundary
                }
            };
            for (kind, ki, val) in ops {
                let k = key_of(ki);
                match kind {
                    0 | 1 => {
                        prop_assert_eq!(table.insert(k, val), model.insert(k, val));
                    }
                    2 => {
                        prop_assert_eq!(table.remove(k), model.remove(&k));
                    }
                    3 => {
                        prop_assert_eq!(table.get(k), model.get(&k));
                        prop_assert_eq!(table.contains_key(k), model.contains_key(&k));
                    }
                    4 => {
                        // Mutate-through-get_mut parity.
                        if let Some(v) = table.get_mut(k) { *v = v.wrapping_add(val); }
                        if let Some(v) = model.get_mut(&k) { *v = v.wrapping_add(val); }
                    }
                    _ => {
                        // GC sweep: drop entries below a value threshold,
                        // age the survivors; both sides must visit the
                        // same entries in the same (ascending key) order.
                        let mut t_visit = Vec::new();
                        table.retain(|key, v| {
                            t_visit.push(key);
                            *v = v.wrapping_add(1);
                            *v % 3 != 0
                        });
                        let mut m_visit = Vec::new();
                        model.retain(|&key, v| {
                            m_visit.push(key);
                            *v = v.wrapping_add(1);
                            *v % 3 != 0
                        });
                        prop_assert_eq!(t_visit, m_visit);
                    }
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
            }
            let got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
        }

        /// Differential: a FIFO queue of `PacketArena` handles, driven
        /// through random push/pop/churn interleavings, is observably
        /// identical to a `VecDeque` of inline values — same pop order,
        /// same payloads, same hot-column reads, same occupancy. This is
        /// the exact shape the switch egress queues use the arena in.
        #[test]
        fn arena_queue_matches_vecdeque_reference(
            ops in proptest::collection::vec((0u8..3, 1u32..10_000, 0u64..1_000_000), 1..300)
        ) {
            use std::collections::VecDeque;
            let mut arena: PacketArena<(u32, u64)> = PacketArena::new();
            let mut q: VecDeque<PacketHandle> = VecDeque::new();
            let mut model: VecDeque<(u32, u64)> = VecDeque::new();
            let mut seq = 0u32;
            for (kind, size, t) in ops {
                match kind {
                    // Push: arena-alloc + handle enqueue vs inline enqueue.
                    0 | 1 => {
                        let h = arena.alloc(size, seq, false, t, (size, t));
                        q.push_back(h);
                        model.push_back((size, t));
                        seq += 1;
                    }
                    // Pop: hot columns must match the inline value, then
                    // the freed payload must too.
                    _ => {
                        let (got, want) = (q.pop_front(), model.pop_front());
                        prop_assert_eq!(got.is_some(), want.is_some());
                        if let (Some(h), Some(w)) = (got, want) {
                            prop_assert_eq!(arena.size_bytes(h), w.0);
                            prop_assert_eq!(arena.enqueued_at_ps(h), w.1);
                            prop_assert_eq!(arena.free(h), w);
                        }
                    }
                }
                prop_assert_eq!(arena.len(), model.len());
                // Byte accounting straight off the hot column.
                let arena_bytes: u64 = q.iter().map(|&h| arena.size_bytes(h) as u64).sum();
                let model_bytes: u64 = model.iter().map(|v| v.0 as u64).sum();
                prop_assert_eq!(arena_bytes, model_bytes);
            }
            // Drain the tail: full remaining order must match.
            while let Some(h) = q.pop_front() {
                let w = model.pop_front();
                prop_assert_eq!(Some(arena.free(h)), w);
            }
            prop_assert!(model.is_empty());
            prop_assert!(arena.is_empty());
        }

        /// Differential: a `ShardEventQueue` driven through the same
        /// schedule/pop interleaving as the sequential `EventQueue` pops the
        /// identical sequence — the packed `(sched_ps, rank, seq)` key
        /// collapses to plain insertion order when one entity produces every
        /// event.
        #[test]
        fn shard_queue_matches_sequential_reference(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..200_000_000_000, 1u16..200), 1..120)
        ) {
            let mut seqq = EventQueue::new();
            let mut shq = ShardEventQueue::new();
            let mut payload = 0u64;
            for (kind, delta, reps) in ops {
                match kind {
                    0 => {
                        let at = SimTime(seqq.now().as_ps() + delta);
                        for _ in 0..reps {
                            seqq.schedule(at, payload);
                            shq.insert_message(at, shard_key(shq.now().as_ps(), 0, payload), payload);
                            payload += 1;
                        }
                    }
                    1 => {
                        for r in 0..reps as u64 {
                            let at = SimTime(seqq.now().as_ps() + delta + r * 777);
                            seqq.schedule(at, payload);
                            shq.insert_message(at, shard_key(shq.now().as_ps(), 0, payload), payload);
                            payload += 1;
                        }
                    }
                    _ => {
                        for _ in 0..reps {
                            let a = seqq.pop();
                            let b = shq.pop().map(|(t, _k, e)| (t, e));
                            prop_assert_eq!(a, b);
                            if a.is_none() {
                                break;
                            }
                        }
                    }
                }
                prop_assert_eq!(seqq.len(), shq.len());
                prop_assert_eq!(seqq.peek_time(), shq.peek_time());
            }
            loop {
                let a = seqq.pop();
                let b = shq.pop().map(|(t, _k, e)| (t, e));
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(seqq.now(), shq.now());
        }

        /// Differential: `pop_before(limit)` refills the drain batch up to
        /// the limit's tick instead of scanning for the minimum; it must
        /// pop exactly what its definition — `peek_time() < limit`, then
        /// `pop()` — pops, window after window, with messages landing at
        /// or after each closed window's edge (including inside the tick
        /// the cursor stopped in). Bursts run past one storage chunk, so
        /// chunk rollover and the per-slot minimum `peek_time` reads are
        /// on this path too.
        #[test]
        fn pop_before_matches_peek_then_pop(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..200_000_000_000, 1u16..200), 1..120)
        ) {
            let mut fast = ShardEventQueue::new();
            let mut slow = ShardEventQueue::new();
            let mut payload = 0u64;
            let mut edge = SimTime::ZERO; // nothing may land before it
            for (kind, delta, reps) in ops {
                match kind {
                    0 | 1 => {
                        for r in 0..reps as u64 {
                            // Same-time bursts (kind 0) or a spread (kind 1),
                            // keyed like cross-shard messages.
                            let at = SimTime(edge.as_ps() + delta + r * 777 * kind as u64);
                            let key = shard_key(edge.as_ps(), (payload % 5) as u16, payload);
                            fast.insert_message(at, key, payload);
                            slow.insert_message(at, key, payload);
                            payload += 1;
                        }
                    }
                    _ => {
                        let limit = SimTime(edge.as_ps() + delta / kind as u64);
                        loop {
                            let want = match slow.peek_time() {
                                Some(t) if t < limit => slow.pop(),
                                _ => None,
                            };
                            let got = fast.pop_before(limit);
                            prop_assert_eq!(got, want);
                            if got.is_none() {
                                break;
                            }
                        }
                        edge = limit;
                    }
                }
                prop_assert_eq!(fast.len(), slow.len());
                prop_assert_eq!(fast.peek_time(), slow.peek_time());
                prop_assert_eq!(fast.now(), slow.now());
            }
            loop {
                let (a, b) = (fast.pop(), slow.pop());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }

        /// Merge keys order by (time at schedule, rank, seq) and never
        /// collide across ranks.
        #[test]
        fn shard_keys_are_canonical(
            a_ps in 0u64..u64::MAX / 2, b_ps in 0u64..u64::MAX / 2,
            a_sh in 0u16..1024, b_sh in 0u16..1024,
            a_seq in 0u64..(1 << 48), b_seq in 0u64..(1 << 48),
        ) {
            let (ka, kb) = (shard_key(a_ps, a_sh, a_seq), shard_key(b_ps, b_sh, b_seq));
            prop_assert_eq!(
                ka.cmp(&kb),
                (a_ps, a_sh, a_seq).cmp(&(b_ps, b_sh, b_seq))
            );
        }

        /// tx_delay is monotone in bytes and additive across packet splits.
        #[test]
        fn tx_delay_additive(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let rate = 40_000_000_000u64;
            let whole = tx_delay(a + b, rate);
            let split = tx_delay(a, rate) + tx_delay(b, rate);
            prop_assert_eq!(whole, split);
        }
    }
}
