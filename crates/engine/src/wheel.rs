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
//!   sharing a tick are ordered by one `(time, key)` sort at drain time,
//!   and at realistic event rates a tick holds only a handful of them.
//! * `LEVELS` wheels of `SLOTS = 64` slots each. Level *l* slot *s* holds
//!   every pending event whose tick agrees with the cursor above bit group
//!   *l* and has slot index *s* within it — the classic hashed hierarchical
//!   wheel (`level = significant 6-bit group of cursor ⊕ tick`). Level 0
//!   resolves single ticks; level *l* covers `64^l` ticks per slot.
//! * Events `2^36` ticks (~19 simulated minutes) or more ahead spill into
//!   a far-future binary heap ordered by `(time, key)` and merge back
//!   tick-by-tick when the cursor approaches.
//!
//! ## Storage: what is retained tracks what is pending
//!
//! * **Level 0** keeps one growable `Vec` per tick, and the drain batch is
//!   installed by `mem::swap` with the tick's bucket, so tick turnover
//!   copies nothing. The swap leaves the previous batch's storage in the
//!   slot it drained; beyond one [`CHUNK`] that storage is a past burst's
//!   and is freed. So the 64 buckets retain at most a chunk each between
//!   bursts, and the drain batch one tick's events: a burst no longer
//!   leaves its capacity behind in every slot it passes through.
//! * **Levels 1 and up** store each slot as a list of fixed
//!   [`CHUNK`]-entry chunks: the full ones in insertion order, then the
//!   open **tail** chunk, kept inline in the slot so an insert is one
//!   `push`. Every chunk comes from, and on a cascade goes back to, one
//!   LIFO **spare pool** shared by all upper slots; an empty slot holds no
//!   chunk at all, so a wheel that never schedules far ahead never
//!   allocates upper-level storage. What levels 1+ retain is therefore
//!   the peak number of chunks in use at once — the live upper-level
//!   events rounded up per occupied slot — not a per-slot history.
//! * Why not one `Vec` per upper slot: each `Vec` keeps its own
//!   high-water capacity, and a cascade that recycles storage by swapping
//!   the drained slot with a scratch `Vec` hands the largest capacity seen
//!   so far to the slot it drains. Slot after slot, every one of the 384
//!   upper buckets ends up holding the biggest burst any of them ever
//!   held: on the paper-scale fabric, tens of MB of capacity for a few
//!   thousand pending events.
//! * Each upper slot keeps the **earliest `time`** among its entries, so
//!   [`TimingWheel::peek_time`] (which the sharded driver calls at every
//!   window barrier) never walks a chunk list: it reads the drain batch's
//!   back, an upper slot's minimum, or at worst scans one tick's level-0
//!   bucket. Only the time is kept: it is all `peek_time` reports, and the
//!   drain order never reads it.
//!
//! ## Determinism
//!
//! The pop order contract is exactly the heap's: strictly nondecreasing
//! `(SimTime, key)`, where no two pending entries share a key. Within one
//! tick multiple distinct picosecond timestamps (and ties) can coexist, so
//! when the cursor reaches a tick its bucket is sorted **once** by
//! `(time, key)` into the drain batch; keys are unique, so the sort has a
//! unique result regardless of the (deterministic, append-only) bucket
//! layout history.
//! Cascades redistribute slots in stored order (chunk by chunk, oldest
//! first) and never reorder equal keys; chunk boundaries and pool reuse
//! move storage, never entries relative to each other. No hashing, no
//! pointer identity, no wall clock: replays are bit-exact, which the
//! differential proptests in `lib.rs` pin against the reference heap
//! implementation in `queue.rs`'s tests.

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
/// Entries per chunk of upper-level (level ≥ 1) slot storage.
const CHUNK: usize = 64;

/// One pending event. `key` is the within-timestamp tie-breaker: a total
/// order, so equal-time events drain in a unique, replayable sequence. The
/// queues in `crate::queue` supply it: a `shard_key` packing
/// `(sched_ps, rank, seq)`, or a plain insertion counter.
pub(crate) struct Entry<E> {
    pub time: SimTime,
    pub key: u128,
    pub event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
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

/// One wheel slot: its entries in insertion order, as full chunks
/// followed by the open tail, plus (above level 0) the earliest time
/// among them.
struct Slot<E> {
    /// The vector inserts push into. At level 0 the whole tick bucket,
    /// grown as needed and swapped with the drain batch; above, the open
    /// chunk: no allocation while the slot is empty, a `CHUNK`-capacity
    /// chunk from the spare pool otherwise.
    tail: Vec<Entry<E>>,
    /// Earliest `time` among the slot's entries; `SimTime::MAX` when empty
    /// and at level 0, where keeping it up to date cost more than the
    /// one-tick scan it saves.
    min: SimTime,
    /// Full chunks, oldest first (always empty at level 0).
    full: Vec<Vec<Entry<E>>>,
}

impl<E> Slot<E> {
    /// Replace the full (or, in an empty slot, unallocated) tail with a
    /// chunk from `spare`. Kept out of line: inlined, it slows every
    /// insert, and it runs once per `CHUNK` of them.
    #[cold]
    #[inline(never)]
    fn open_chunk(&mut self, spare: &mut Vec<Vec<Entry<E>>>) {
        let fresh = spare.pop().unwrap_or_else(|| Vec::with_capacity(CHUNK));
        let closed = std::mem::replace(&mut self.tail, fresh);
        if !closed.is_empty() {
            self.full.push(closed);
        }
    }
}

/// The hierarchical wheel proper. Pure storage: the owning
/// [`crate::queue::ShardEventQueue`] supplies keys, enforces the
/// no-past-scheduling contract and owns the public clock.
pub(crate) struct TimingWheel<E> {
    /// `LEVELS × SLOTS` slots, flattened; append-only between drains.
    slots: Vec<Slot<E>>,
    /// Empty chunks, reused last-in first-out by every upper slot.
    spare: Vec<Vec<Entry<E>>>,
    /// One occupancy bit per slot, per level — `SLOTS == 64` makes a `u64`
    /// bitmap exact, and `trailing_zeros` finds the next bucket in O(1).
    occupied: [u64; LEVELS],
    /// Current tick. Invariant: no pending event has `tick < cursor`, and
    /// at every level the occupied slot indexes are ≥ the cursor's index
    /// at that level (strictly greater above level 0).
    cursor: u64,
    /// The drain batch for the cursor's tick, sorted **descending** by
    /// `(time, key)` so consuming from the back (`Vec::pop`, an O(1) move)
    /// yields ascending order; same-tick late arrivals merge in at their
    /// `(time, key)` slot. Installed by `mem::swap` with the tick's bucket,
    /// so tick turnover copies nothing and recycles both allocations.
    batch: Vec<Entry<E>>,
    /// Far-future spillover, min-ordered by `(time, key)`.
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    /// Largest `len` ever reached.
    high_water: usize,
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..LEVELS * SLOTS)
                .map(|_| Slot {
                    tail: Vec::new(),
                    min: SimTime::MAX,
                    full: Vec::new(),
                })
                .collect(),
            spare: Vec::new(),
            occupied: [0; LEVELS],
            cursor: 0,
            batch: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            high_water: 0,
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

    /// Most entries ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries the wheel's storage can hold without allocating: every
    /// bucket, chunk, spare chunk, the drain batch and the overflow heap.
    /// Only level 0 gives storage back (a past burst's, beyond a chunk per
    /// bucket), so this is the peak of everything else.
    pub fn capacity(&self) -> usize {
        let slots = self
            .slots
            .iter()
            .flat_map(|s| s.full.iter().chain([&s.tail]));
        let vecs = std::iter::once(&self.batch).chain(&self.spare).chain(slots);
        vecs.map(Vec::capacity).sum::<usize>() + self.overflow.capacity()
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
    pub fn insert(&mut self, time: SimTime, key: u128, event: E) {
        let tick = tick_of(time);
        debug_assert!(tick >= self.cursor, "wheel insert behind cursor");
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
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
        self.place(level, tick, entry);
    }

    /// Append `entry` (at `tick`) to its bucket at `level < LEVELS`.
    #[inline]
    fn place(&mut self, level: usize, tick: u64, entry: Entry<E>) {
        let slot = Self::slot_index(level, tick);
        self.occupied[level] |= 1 << slot;
        let s = &mut self.slots[level * SLOTS + slot];
        if level > 0 {
            if s.tail.len() == s.tail.capacity() {
                s.open_chunk(&mut self.spare);
            }
            s.min = s.min.min(entry.time);
        }
        s.tail.push(entry);
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
        let high = if above >= 64 {
            0
        } else {
            (self.cursor >> above) << above
        };
        high | ((slot as u64) << group)
    }

    /// Pop the earliest `(time, key)` entry.
    pub fn pop(&mut self) -> Option<Entry<E>> {
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
    pub fn pop_before(&mut self, limit: SimTime) -> Option<Entry<E>> {
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
                    self.cursor = start;
                    self.occupied[level] &= !(1 << slot);
                    if level == 0 {
                        self.begin_batch(slot, overflow_tick == Some(start));
                    } else {
                        self.cascade(level, slot);
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

    /// Redistribute upper `slot` at `level`, whose start the cursor has
    /// just reached, into lower levels in stored order, handing each
    /// drained chunk back to the spare pool before the next is read.
    fn cascade(&mut self, level: usize, slot: usize) {
        let s = &mut self.slots[level * SLOTS + slot];
        s.min = SimTime::MAX;
        let mut full = std::mem::take(&mut s.full);
        let tail = std::mem::take(&mut s.tail);
        for mut chunk in full.drain(..).chain([tail]) {
            for e in chunk.drain(..) {
                let tick = tick_of(e.time);
                // A level-1 slot, the common cascade, only feeds level 0.
                let lv = if level == 1 { 0 } else { self.level_for(tick) };
                debug_assert!(lv < level, "cascade must descend");
                self.place(lv, tick, e);
            }
            self.spare.push(chunk);
        }
        // The emptied list keeps its (small) capacity for the slot's next
        // burst.
        self.slots[level * SLOTS + slot].full = full;
    }

    /// Move every overflow entry sharing the earliest overflow tick into
    /// the drain batch (the heap yields them `(time, key)`-ascending, so a
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
    /// descending by `(time, key)`. The bucket and the (empty) previous
    /// batch swap storage, so the per-tick hot path copies no entries and
    /// allocates nothing; storage the swap leaves in the slot beyond one
    /// chunk is a past burst's, and is given back.
    fn begin_batch(&mut self, slot: usize, merge_overflow: bool) {
        debug_assert!(self.batch.is_empty());
        if merge_overflow {
            while self
                .overflow
                .peek()
                .is_some_and(|e| tick_of(e.time) == self.cursor)
            {
                let e = self.overflow.pop().expect("peeked");
                self.slots[slot].tail.push(e);
            }
        }
        let bucket = &mut self.slots[slot].tail;
        if bucket.len() > 1 {
            // Cascaded entries arrive nearly ascending: sorting that way
            // and reversing once is cheaper than sorting descending, their
            // worst case. Keys are unique, so the order is the same.
            bucket.sort_unstable_by(|a, b| a.time.cmp(&b.time).then_with(|| a.key.cmp(&b.key)));
            bucket.reverse();
        }
        std::mem::swap(&mut self.batch, bucket);
        if bucket.capacity() > CHUNK {
            *bucket = Vec::new();
        }
    }

    /// Timestamp of the earliest pending entry without disturbing the
    /// structure: O(1), except a scan of one tick's bucket when the
    /// earliest event is already in level 0.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = match self.batch.last() {
            // The batch is sorted descending; its back is its minimum.
            Some(e) => Some(e.time),
            // The earliest wheel event lives in this slot (slots partition
            // time); upper slots track their minimum.
            None => match self.next_occupied() {
                Some((0, slot)) => self.slots[slot].tail.iter().map(|e| e.time).min(),
                Some((level, slot)) => Some(self.slots[level * SLOTS + slot].min),
                None => None,
            },
        };
        let overflow = self.overflow.peek().map(|e| e.time);
        wheel.into_iter().chain(overflow).min()
    }

    /// Visit every pending event in unspecified order.
    pub fn iter_events(&self) -> impl Iterator<Item = &E> {
        let slots = self
            .slots
            .iter()
            .flat_map(|s| s.full.iter().flatten().chain(&s.tail));
        self.batch
            .iter()
            .chain(slots)
            .chain(self.overflow.iter())
            .map(|e| &e.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulator's entries: time, a `u128` canonical key and an
    /// 8-byte event (its packets stay in the arena, its ports are 16-bit
    /// ids) fill 32 bytes, two to a cache line.
    #[test]
    fn a_sharded_entry_with_an_8_byte_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 32);
    }

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

    /// Retained storage follows the pending set, not the history: a burst
    /// walked through every level-1 slot, then through level-2 slots (which
    /// cascade into level 1 before level 0), then tick by tick through the
    /// level-0 slots, leaves the wheel holding about one burst in the drain
    /// batch and one in spare chunks, plus at most a chunk per level-0
    /// slot. Storage that kept each slot's own high water would hold a
    /// burst in every slot the walk touched, about `64·N`.
    #[test]
    fn storage_tracks_the_live_set() {
        const N: u64 = 1_000;
        let tick_ps = 1u64 << TICK_BITS;
        let bound = 2 * (N as usize + SLOTS * CHUNK);
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut seq = 0u128;
        let mut burst = |w: &mut TimingWheel<u64>, tick: u64| {
            for i in 0..N {
                w.insert(SimTime(tick * tick_ps + i % 7), seq, i);
                seq += 1;
            }
            let mut last = (SimTime::ZERO, 0);
            for _ in 0..N {
                let e = w.pop().expect("burst pending");
                assert!((e.time, e.key) > last, "pop order");
                last = (e.time, e.key);
            }
            assert!(w.is_empty());
            let cap = w.capacity();
            assert!(cap <= bound, "tick {tick}: {cap} > {bound}");
        };
        // One level-1 slot, then every later one (the last step carries
        // into level 2's next slot), then a walk over level-2 slots at an
        // offset that lands in level 1 first.
        burst(&mut w, SLOTS as u64);
        for slot in 2..=SLOTS as u64 {
            burst(&mut w, slot * SLOTS as u64);
        }
        let l2 = (SLOTS * SLOTS) as u64;
        for slot in 2..SLOTS as u64 {
            burst(&mut w, slot * l2 + SLOTS as u64 + 1);
        }
        // Same-tick bursts through every level-0 slot, one tick after
        // another: each tick's bucket becomes the drain batch, and the
        // batch's old storage, sized for the previous burst, moves into
        // the slot just drained. Kept there, it would leave a burst's
        // capacity in every level-0 slot.
        let c = w.cursor;
        for tick in c + 1..=c + 2 * SLOTS as u64 {
            burst(&mut w, tick);
        }
        assert_eq!(w.high_water(), N as usize);
        // Only the chunks of one burst were ever needed at once.
        assert!(w.spare.len() <= (N as usize).div_ceil(CHUNK) + 1);
    }
}
