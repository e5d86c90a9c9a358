//! Hierarchical timing wheel — the future-event list's storage engine.
//!
//! A calendar-queue layout tuned for discrete-event simulation at
//! picosecond resolution: most scheduling is near-future (packet
//! serialization, link propagation, Δt predictor ticks), so the common
//! case must be an O(1) bucket append and an O(1) bucket drain instead of
//! a `BinaryHeap`'s O(log n) sift per operation.
//!
//! ## Layout
//!
//! * Time is bucketed into **ticks** of `2^TICK_BITS` ps (16.384 ns). The
//!   width is tuned so the simulator's dominant deltas — packet
//!   serialization and link propagation, roughly 200 ns to 2 µs — land in
//!   level 0 or 1 (≤ 64² ticks ahead): inserts then skip the cascade
//!   machinery entirely or pay for at most one redistribution. Events
//!   sharing a tick are ordered by one `(time, seq)` sort at drain time,
//!   and at realistic event rates a tick holds only a handful of them.
//! * `LEVELS` wheels of `SLOTS = 64` slots each. Level *l* slot *s* holds
//!   every pending event whose tick agrees with the cursor above bit group
//!   *l* and has slot index *s* within it — the classic hashed hierarchical
//!   wheel (`level = significant 6-bit group of cursor ⊕ tick`). Level 0
//!   resolves single ticks; level *l* covers `64^l` ticks per slot.
//! * Events more than `2^36` ticks (~70 s of simulated time) ahead spill
//!   into a far-future binary heap ordered by `(time, seq)` and merge back
//!   tick-by-tick when the cursor approaches.
//!
//! ## Determinism
//!
//! The pop order contract is exactly the heap's: strictly nondecreasing
//! `(SimTime, insertion-seq)`. Within one tick multiple distinct
//! picosecond timestamps (and FIFO ties) can coexist, so when the cursor
//! reaches a tick its bucket is sorted **once** by `(time, seq)` into the
//! drain batch; `seq` is a total order, so the sort has a unique result
//! regardless of the (deterministic, append-only) bucket layout history.
//! Cascades redistribute buckets in stored order and never reorder equal
//! keys. No hashing, no pointer identity, no wall clock: replays are
//! bit-exact, which the differential proptests in `queue.rs` pin against
//! the reference heap implementation.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the tick width in picoseconds: one tick = 16.384 ns. See the
/// module docs for how this interacts with the simulator's delta profile.
const TICK_BITS: u32 = 14;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Six 6-bit groups cover 2^36 ticks; the seventh absorbs
/// the common carry case where a small delta still flips a high bit group
/// (e.g. cursor 2^36 − 1 → tick 2^36). Carries above level 6 spill to the
/// overflow heap in `insert`.
const LEVELS: usize = 7;
/// Deltas of at least this many ticks (~19 simulated minutes) go to the
/// far-future heap.
const SPAN_TICKS: u64 = 1 << 36;

/// Tie-break key for events sharing a timestamp. The sequential queue uses
/// the plain insertion counter (`u64`, FIFO); the sharded queue packs
/// `(sched_ps, src_shard, seq)` into a `u128` so independently produced
/// streams merge in one canonical order (see `crate::queue::ShardEventQueue`).
pub trait TieKey: Copy + Ord + std::fmt::Debug {}
impl TieKey for u64 {}
impl TieKey for u128 {}

/// One pending event. `key` is the within-timestamp tie-breaker: a total
/// order, so equal-time events drain in a unique, replayable sequence.
pub(crate) struct Entry<E, K: TieKey = u64> {
    pub time: SimTime,
    pub key: K,
    pub event: E,
}

impl<E, K: TieKey> PartialEq for Entry<E, K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<E, K: TieKey> Eq for Entry<E, K> {}
impl<E, K: TieKey> PartialOrd for Entry<E, K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E, K: TieKey> Ord for Entry<E, K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
    }
}

#[inline]
fn tick_of(t: SimTime) -> u64 {
    t.as_ps() >> TICK_BITS
}

/// The hierarchical wheel proper. Pure storage: the owning
/// [`crate::queue::EventQueue`] supplies `seq` numbers, enforces the
/// no-past-scheduling contract and owns the public clock.
pub(crate) struct TimingWheel<E, K: TieKey = u64> {
    /// `LEVELS × SLOTS` buckets, flattened; append-only between drains, so
    /// every bucket is key-ascending.
    slots: Vec<Vec<Entry<E, K>>>,
    /// One occupancy bit per slot, per level — `SLOTS == 64` makes a `u64`
    /// bitmap exact, and `trailing_zeros` finds the next bucket in O(1).
    occupied: [u64; LEVELS],
    /// Current tick. Invariant: no pending event has `tick < cursor`, and
    /// at every level the occupied slot indexes are ≥ the cursor's index
    /// at that level (strictly greater above level 0).
    cursor: u64,
    /// The drain batch for the cursor's tick, sorted **descending** by
    /// `(time, seq)` so consuming from the back (`Vec::pop`, an O(1) move)
    /// yields ascending order; same-tick late arrivals merge in at their
    /// `(time, seq)` slot. Installed by `mem::swap` with the tick's bucket,
    /// so tick turnover copies nothing and recycles both allocations.
    batch: Vec<Entry<E, K>>,
    /// Far-future spillover, min-ordered by `(time, key)`.
    overflow: BinaryHeap<Entry<E, K>>,
    /// Recycled bucket storage for cascades, so redistributing a slot
    /// allocates nothing in steady state.
    cascade_scratch: Vec<Entry<E, K>>,
    len: usize,
}

impl<E, K: TieKey> TimingWheel<E, K> {
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            batch: Vec::new(),
            overflow: BinaryHeap::new(),
            cascade_scratch: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level for an event `tick` seen from the cursor: the index of the
    /// most significant 6-bit group in which they differ (0 when equal).
    #[inline]
    fn level_for(&self, tick: u64) -> usize {
        let x = self.cursor ^ tick;
        if x == 0 {
            return 0;
        }
        ((63 - x.leading_zeros()) / SLOT_BITS) as usize
    }

    #[inline]
    fn slot_index(level: usize, tick: u64) -> usize {
        ((tick >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize
    }

    /// Insert an event. The caller guarantees `time` is not in the past
    /// and that `(time, key)` exceeds every previously popped pair.
    pub fn insert(&mut self, time: SimTime, key: K, event: E) {
        let tick = tick_of(time);
        debug_assert!(tick >= self.cursor, "wheel insert behind cursor");
        self.len += 1;
        let entry = Entry { time, key, event };
        // Scheduling into the tick currently being drained: merge into the
        // descending-sorted batch at the (time, key) position. Sequential
        // keys are maximal (fresh seqs), so the insert lands *before* every
        // equal-time entry in the vec and therefore pops after them (FIFO);
        // sharded message keys may land anywhere still ahead of the cursor.
        if tick == self.cursor && !self.batch.is_empty() {
            let at = self
                .batch
                .partition_point(|e| (e.time, e.key) > (entry.time, entry.key));
            self.batch.insert(at, entry);
            return;
        }
        let level = self.level_for(tick);
        // Far-future events — and the rare carry where even a small delta
        // flips a bit group above the top level (e.g. cursor 2^59 − 1 →
        // tick 2^59) — spill into the heap and merge back tick-by-tick.
        if tick - self.cursor >= SPAN_TICKS || level >= LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = Self::slot_index(level, tick);
        self.slots[level * SLOTS + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Earliest occupied `(level, slot)` at or after the cursor, if any.
    /// Because the levels partition time hierarchically, the lowest
    /// occupied level always holds the earliest pending wheel event.
    #[inline]
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for level in 0..LEVELS {
            let cursor_idx = Self::slot_index(level, self.cursor);
            let ahead = self.occupied[level] & (!0u64 << cursor_idx);
            if ahead != 0 {
                return Some((level, ahead.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Start tick of `slot` at `level`, relative to the cursor's rotation.
    #[inline]
    fn slot_start_tick(&self, level: usize, slot: usize) -> u64 {
        let group = level as u32 * SLOT_BITS;
        let above = group + SLOT_BITS;
        let high = if above >= 64 { 0 } else { (self.cursor >> above) << above };
        high | ((slot as u64) << group)
    }

    /// Pop the earliest `(time, key)` entry.
    pub fn pop(&mut self) -> Option<Entry<E, K>> {
        if self.batch.is_empty() && !self.refill(u64::MAX) {
            return None;
        }
        self.len -= 1;
        self.batch.pop()
    }

    /// Pop the earliest entry only if its time is strictly before `limit`.
    /// O(1) amortized like [`pop`](Self::pop) — it refills the drain batch
    /// instead of scanning for the minimum — and it never moves the cursor
    /// past `limit`'s tick, so after a `None` the caller may still insert
    /// anything at or after `limit` (but nothing earlier).
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Entry<E, K>> {
        if self.batch.is_empty() && !self.refill(tick_of(limit)) {
            return None;
        }
        if self.batch.last()?.time >= limit {
            return None;
        }
        self.len -= 1;
        self.batch.pop()
    }

    /// Advance the cursor to the earliest pending tick and install its
    /// events as the drain batch, going no further than `max_tick`; `false`
    /// if nothing is pending at or before it. Called with an empty batch.
    fn refill(&mut self, max_tick: u64) -> bool {
        while self.batch.is_empty() {
            let overflow_tick = self.overflow.peek().map(|e| tick_of(e.time));
            match self.next_occupied() {
                Some((level, slot)) => {
                    let start = self.slot_start_tick(level, slot);
                    // The far-future heap may have crept inside the wheel's
                    // horizon as the cursor advanced; serve it first (or
                    // merged, below) when its tick is due sooner.
                    if let Some(t) = overflow_tick.filter(|&t| t < start) {
                        if t > max_tick {
                            return false;
                        }
                        self.drain_overflow_tick();
                        continue;
                    }
                    if start > max_tick {
                        return false;
                    }
                    if level == 0 {
                        self.cursor = start;
                        self.occupied[0] &= !(1 << slot);
                        self.begin_batch(slot, overflow_tick == Some(start));
                    } else {
                        // Cascade: advance to the slot's start and
                        // redistribute its bucket into lower levels. The
                        // bucket's storage is swapped through the scratch
                        // vec, so steady-state cascades allocate nothing.
                        self.cursor = start;
                        self.occupied[level] &= !(1 << slot);
                        let mut scratch = std::mem::take(&mut self.cascade_scratch);
                        std::mem::swap(&mut scratch, &mut self.slots[level * SLOTS + slot]);
                        for e in scratch.drain(..) {
                            let tick = tick_of(e.time);
                            let lv = self.level_for(tick);
                            debug_assert!(lv < level, "cascade must descend");
                            let s = Self::slot_index(lv, tick);
                            self.slots[lv * SLOTS + s].push(e);
                            self.occupied[lv] |= 1 << s;
                        }
                        self.cascade_scratch = scratch;
                    }
                }
                None => {
                    if overflow_tick.is_none_or(|t| t > max_tick) {
                        return false;
                    }
                    self.drain_overflow_tick();
                }
            }
        }
        true
    }

    /// Move every overflow entry sharing the earliest overflow tick into
    /// the drain batch (the heap yields them `(time, seq)`-ascending, so a
    /// final reverse produces the batch's descending order).
    fn drain_overflow_tick(&mut self) {
        let first = self.overflow.pop().expect("overflow checked non-empty");
        let tick = tick_of(first.time);
        debug_assert!(tick >= self.cursor);
        self.cursor = tick;
        debug_assert!(self.batch.is_empty());
        self.batch.push(first);
        while self
            .overflow
            .peek()
            .is_some_and(|e| tick_of(e.time) == tick)
        {
            self.batch.push(self.overflow.pop().expect("peeked"));
        }
        self.batch.reverse();
    }

    /// Install the level-0 bucket at `slot` (the cursor tick's events) as
    /// the drain batch, merging any same-tick far-future entries, sorted
    /// descending by `(time, seq)`. The bucket and the (empty) previous
    /// batch swap storage, so the per-tick hot path copies no entries and
    /// allocates nothing.
    fn begin_batch(&mut self, slot: usize, merge_overflow: bool) {
        debug_assert!(self.batch.is_empty());
        if merge_overflow {
            while self
                .overflow
                .peek()
                .is_some_and(|e| tick_of(e.time) == self.cursor)
            {
                let e = self.overflow.pop().expect("peeked");
                self.slots[slot].push(e);
            }
        }
        let (slots, batch) = (&mut self.slots, &mut self.batch);
        let bucket = &mut slots[slot];
        if bucket.len() > 1 {
            bucket.sort_unstable_by(|a, b| {
                b.time.cmp(&a.time).then_with(|| b.key.cmp(&a.key))
            });
        }
        std::mem::swap(batch, bucket);
    }

    /// Timestamp of the earliest pending entry without disturbing the
    /// structure. O(bucket) for the imminent bucket, O(1) otherwise.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<(SimTime, K)> = None;
        let mut consider = |time: SimTime, key: K| {
            if best.is_none_or(|(bt, bs)| (time, key) < (bt, bs)) {
                best = Some((time, key));
            }
        };
        if let Some(e) = self.batch.last() {
            // The batch is sorted descending; its back is its minimum.
            consider(e.time, e.key);
        } else if let Some((level, slot)) = self.next_occupied() {
            // The earliest wheel event lives in this bucket (buckets
            // partition time); scan it for the (time, key) minimum.
            for e in &self.slots[level * SLOTS + slot] {
                consider(e.time, e.key);
            }
        }
        if let Some(e) = self.overflow.peek() {
            consider(e.time, e.key);
        }
        best.map(|(t, _)| t)
    }

    /// Visit every pending event in unspecified order.
    pub fn iter_events(&self) -> impl Iterator<Item = &E> {
        self.batch
            .iter()
            .chain(self.slots.iter().flatten())
            .chain(self.overflow.iter())
            .map(|e| &e.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_and_slots_are_consistent() {
        let w: TimingWheel<u32> = TimingWheel::new();
        assert_eq!(w.level_for(0), 0);
        assert_eq!(w.level_for(63), 0);
        assert_eq!(w.level_for(64), 1);
        assert_eq!(w.level_for(64 * 64), 2);
        assert_eq!(TimingWheel::<u32>::slot_index(0, 37), 37);
        assert_eq!(TimingWheel::<u32>::slot_index(1, 64), 1);
    }
}
