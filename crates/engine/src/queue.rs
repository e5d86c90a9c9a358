//! Deterministic future-event queues.
//!
//! [`ShardEventQueue`] is the simulator's future-event list: every event
//! carries a `u128` key its producer computed ([`shard_key`]), and events
//! pop in `(SimTime, key)` order, so whole-simulation replays are bit-exact
//! for a fixed seed on any shard count. [`EventQueue`] is the same list
//! keyed by a plain insertion counter: two events scheduled for the same
//! instant pop in the order they were scheduled (FIFO).
//!
//! Storage is a hierarchical timing wheel ([`crate::wheel`]): near-future
//! scheduling — the overwhelmingly common case in a packet simulation — is
//! an O(1) bucket append instead of a `BinaryHeap`'s O(log n) sift. The
//! heap-backed queue it replaced survives only in this module's tests, as
//! the reference implementation the differential proptests compare against.

use crate::time::SimTime;
use crate::wheel::{Entry, TimingWheel};

/// A FIFO future-event list: a [`ShardEventQueue`] whose key is the
/// insertion counter.
///
/// Generic over the event payload so the engine stays ignorant of network
/// semantics; the caller's dispatch loop owns the interpretation.
pub struct EventQueue<E> {
    q: ShardEventQueue<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            q: ShardEventQueue::new(),
            next_seq: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (time never moves backwards).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past is always a
    /// simulator bug, and silently clamping would hide causality violations.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.q.now,
            "event scheduled in the past: at={at}, now={now}",
            at = at.as_ps(),
            now = self.q.now.as_ps()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.q.insert(at, seq as u128, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.q.pop().map(|(t, _, e)| (t, e))
    }

    /// See [`ShardEventQueue::peek_time`].
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.q.peek_time()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Total number of events ever scheduled (diagnostic).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.q.scheduled_total()
    }
}

/// Canonical merge key: `(sched_ps, rank, seq)` packed into a `u128` so one
/// integer comparison decides the drain order.
///
/// * bits 127..64 — the picosecond timestamp at which the event was
///   *scheduled* (the producer's clock at that moment),
/// * bits 63..48 — the rank of the entity that scheduled it: a fixed
///   property of the topology, never of the shard layout,
/// * bits 47..0 — that entity's own running schedule counter.
///
/// One entity schedules in nondecreasing dispatch-time order, so
/// `(sched_ps, seq)` sorts like [`EventQueue`]'s plain insertion counter;
/// across entities the packed key gives every event a globally unique,
/// replayable position independent of shard count and thread timing.
#[inline]
pub fn shard_key(sched_ps: u64, rank: u16, seq: u64) -> u128 {
    debug_assert!(seq < (1 << 48), "shard seq overflow");
    ((sched_ps as u128) << 64) | ((rank as u128) << 48) | seq as u128
}

/// A shard-local future-event list for the bounded-window parallel driver.
///
/// Ordered by a key the caller computes ([`shard_key`]), so events produced locally and events received
/// as cross-shard messages interleave in one deterministic sequence that
/// does not depend on which thread ran when. The owning driver (`rlb-net`'s
/// shard module) is responsible for only delivering messages whose
/// timestamps are at or beyond the current window edge — the conservative
/// lookahead guarantee that makes `insert_message` never schedule into the
/// past.
pub struct ShardEventQueue<E> {
    wheel: TimingWheel<E>,
    now: SimTime,
    scheduled_total: u64,
}

impl<E> Default for ShardEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardEventQueue<E> {
    pub fn new() -> Self {
        ShardEventQueue {
            wheel: TimingWheel::new(),
            now: SimTime::ZERO,
            scheduled_total: 0,
        }
    }

    /// Timestamp of the most recently popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Insert an event under the key its producer computed — a local
    /// schedule and a delivered cross-shard message alike.
    ///
    /// # Panics
    /// Panics if `at` is in the past — for a message, the window protocol's
    /// lookahead guarantee (arrival ≥ window edge ≥ receiver clock) is
    /// violated.
    #[inline]
    pub fn insert_message(&mut self, at: SimTime, key: u128, event: E) {
        assert!(
            at >= self.now,
            "cross-shard message in the past: at={at}, now={now}",
            at = at.as_ps(),
            now = self.now.as_ps()
        );
        self.insert(at, key, event);
    }

    /// Insert without the past check, which the caller has made.
    #[inline]
    fn insert(&mut self, at: SimTime, key: u128, event: E) {
        self.scheduled_total += 1;
        self.wheel.insert(at, key, event);
    }

    /// Pop the next event with its merge key, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u128, E)> {
        let entry = self.wheel.pop()?;
        Some(self.advance_to(entry))
    }

    /// Pop the next event only if it is strictly before `limit` — the
    /// window-bounded dispatch step, O(1) amortized like [`pop`](Self::pop).
    /// After a `None` the caller may insert at or after `limit` only (the
    /// window protocol's lookahead guarantee; see `TimingWheel::pop_before`).
    #[inline]
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u128, E)> {
        let entry = self.wheel.pop_before(limit)?;
        Some(self.advance_to(entry))
    }

    #[inline]
    fn advance_to(&mut self, entry: Entry<E>) -> (SimTime, u128, E) {
        #[cfg(any(debug_assertions, feature = "audit"))]
        assert!(
            entry.time >= self.now,
            "audit violation [event-clock monotonicity]: popped t={} ps \
             behind clock now={} ps (key={:?})",
            entry.time.as_ps(),
            self.now.as_ps(),
            entry.key
        );
        self.now = entry.time;
        (entry.time, entry.key, entry.event)
    }

    /// Visit every pending event in unspecified order (diagnostic walker
    /// used by the fabric conservation audit; see `rlb-net`'s `audit`
    /// feature).
    #[inline]
    pub fn iter_events(&self) -> impl Iterator<Item = &E> {
        self.wheel.iter_events()
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Total number of events ever scheduled or delivered (diagnostic).
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Most events ever pending at once (diagnostic).
    pub fn high_water(&self) -> usize {
        self.wheel.high_water()
    }

    /// Events the queue's storage can hold without allocating, spare
    /// storage included; only level-0 burst storage is ever given back
    /// (diagnostic).
    pub fn capacity(&self) -> usize {
        self.wheel.capacity()
    }
}

/// The original `BinaryHeap`-backed future-event list, kept as the
/// **reference implementation** of [`EventQueue`]'s pop order: the
/// differential tests drive both with identical schedule/pop
/// interleavings and demand identical output.
#[cfg(test)]
pub(crate) struct HeapEventQueue<E> {
    heap: std::collections::BinaryHeap<Entry<E>>,
    next_seq: u128,
    now: SimTime,
}

#[cfg(test)]
impl<E> HeapEventQueue<E> {
    pub fn new() -> Self {
        HeapEventQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "event scheduled in the past");
        let key = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            key,
            event,
        });
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn scheduled_total(&self) -> u64 {
        self.next_seq as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), ());
        q.schedule(SimTime::from_ns(5), ());
        q.schedule(SimTime::from_ns(9), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_ns(9));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // schedule relative to now
        q.schedule(t + SimDuration::from_ns(1), 2);
        q.schedule(t + SimDuration::from_ns(1), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn far_future_spillover_round_trips() {
        // Deltas beyond the wheel span (2^36 ticks ≈ 19 min) take the
        // overflow-heap path; mixing near and far events must still pop in
        // global (time, seq) order.
        let mut q = EventQueue::new();
        let far = SimTime(2_000 * crate::time::PS_PER_SEC); // ~33 min
        q.schedule(far, "far2");
        q.schedule(SimTime::from_ns(10), "near");
        q.schedule(far, "far2-tie");
        q.schedule(far + SimDuration::from_ns(1), "far3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "far2", "far2-tie", "far3"]);
        assert_eq!(q.now(), far + SimDuration::from_ns(1));
    }

    #[test]
    fn high_bit_carry_crossing_stays_ordered() {
        // A 1-tick delta that flips a bit group above the top wheel level
        // (cursor 2^42 − 1 → 2^42 in ticks) exercises the carry spill path;
        // the smaller crossing at 2^36 exercises the top in-wheel level.
        for bit in [50u32, 56] {
            let base = SimTime((1u64 << bit) - (1 << 14));
            let mut q = EventQueue::new();
            q.schedule(base, 0u32);
            assert_eq!(q.pop().unwrap().1, 0);
            q.schedule(SimTime(1u64 << bit), 1);
            q.schedule(SimTime((1u64 << bit) + (1 << 15)), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            assert_eq!(q.pop().unwrap().1, 2);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn same_tick_insert_during_drain_merges_fifo() {
        // Several events inside one wheel tick; after popping the first,
        // schedule more at both the popped instant and later inside the
        // same tick — they must merge into the drain batch in (time, seq)
        // order.
        let mut q = EventQueue::new();
        q.schedule(SimTime(2048), "a");
        q.schedule(SimTime(2050), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime(2049), "b");
        q.schedule(SimTime(2050), "d"); // ties after "c" (FIFO)
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
    }

    #[test]
    fn heap_reference_matches_on_dense_ties() {
        let mut wheel = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // 3 bursts of 500 same-timestamp events at 2 µs spacing, the shape
        // of the coalesced predictor tick.
        for burst in 0..3u64 {
            let t = SimTime::from_us(2 * (burst + 1));
            for i in 0..500u64 {
                wheel.schedule(t, burst * 1000 + i);
                heap.schedule(t, burst * 1000 + i);
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
