//! `PacketArena` — a generational slab for the packet hot plane.
//!
//! The simulator's packets live here for their whole life: a NIC, a
//! receiver or a switch parks each frame it creates, the events that
//! carry it across a wire or around a recirculation loop and the queues
//! it waits in hold 4-byte [`PacketHandle`]s, and whoever consumes or
//! drops it frees the slot. A queue entry or an event's packet is one
//! handle instead of a 32-byte payload.
//!
//! **Hot columns.** Next to the payloads sit columns for the handful of
//! fields the transmit path and the occupancy sweeps read — wire size,
//! flow id, control-class flag and the time given at allocation — so byte
//! accounting and the audit sweeps never load a payload, and the
//! generation check reads a dense `u32` column.
//!
//! **Chunks that never move.** Slots come in chunks of 1 024, each a set
//! of fixed-size columns, allocated as the live population first needs
//! them and never reallocated: growth copies nothing and leaves no freed
//! block behind in the heap, so the arena's footprint is its high water
//! rounded up to a chunk, and a slot offset masked to the chunk indexes
//! every column without a bounds check. Freed slots are reused LIFO (most
//! recently freed first — deterministic and cache-warm). Slot assignment
//! is a pure function of the alloc/free history, never of pointer values.
//!
//! **Generational safety.** A handle packs a slot index with a generation
//! stamp; freeing a slot bumps its generation, so any handle retained past
//! the packet's lifetime stops matching. Every accessor checks the stamp
//! and panics on a stale handle — a use-after-free of a packet slot means
//! queue bookkeeping has diverged and every downstream metric is suspect,
//! so dying loudly beats silently reading a recycled packet. (The stamp is
//! [`GEN_BITS`] wide; a stale handle could only false-match after exactly
//! `2^GEN_BITS` reuses of its slot, which the audit-feature sweeps would
//! catch long before.)
//!
//! The arena is generic over the payload type: the engine stays ignorant
//! of what a packet *is* (see the crate docs) while still owning the
//! memory discipline. `rlb-net` instantiates it with its `Packet`.

/// Bits of a handle devoted to the slot index. 2^20 simultaneously-live
/// packets is far beyond any reachable population (the shared-buffer
/// admission caps per-switch occupancy in the low thousands, and a wire
/// holds a few frames).
pub const INDEX_BITS: u32 = 20;
/// Bits devoted to the generation stamp.
pub const GEN_BITS: u32 = 32 - INDEX_BITS;

const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

/// A 4-byte ticket for one live packet: slot index in the low
/// [`INDEX_BITS`], generation stamp in the high [`GEN_BITS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle(u32);

impl PacketHandle {
    #[inline]
    fn new(index: u32, gen: u32) -> PacketHandle {
        debug_assert!(index <= INDEX_MASK);
        PacketHandle(index | (gen << INDEX_BITS))
    }

    #[inline]
    pub fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }

    #[inline]
    fn gen(self) -> u32 {
        self.0 >> INDEX_BITS
    }
}

#[cold]
#[inline(never)]
fn stale(h: PacketHandle, slot_gen: Option<u32>) -> ! {
    panic!(
        "stale packet handle: slot {} is at generation {}, handle carries {} (use after free)",
        h.index(),
        slot_gen.unwrap_or(u32::MAX),
        h.gen(),
    )
}

/// Slots per chunk (a power of two: a slot index splits into chunk and
/// offset by shift and mask).
const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 10;

/// `CHUNK` slots, one fixed-size column per field: an offset masked to
/// the chunk indexes every column without a bounds check, and the
/// generation check reads a dense `u32` column.
#[derive(Debug, Clone)]
struct Chunk<T> {
    /// Generation stamp per slot (low [`GEN_BITS`] bits used).
    gens: Box<[u32; CHUNK]>,
    // --- hot columns, valid only for live slots ---
    /// Wire size in bytes.
    sizes: Box<[u32; CHUNK]>,
    /// Flow id.
    flows: Box<[u32; CHUNK]>,
    /// Control-class flag (strict-priority, PFC-immune).
    ctrl: Box<[bool; CHUNK]>,
    /// Simulation time given at allocation, ps.
    enqueued_at: Box<[u64; CHUNK]>,
    /// Payloads. `None` exactly for slots never allocated or on the free
    /// list.
    slots: Box<[Option<T>; CHUNK]>,
}

/// A fixed-size column of `CHUNK` values made by `f`.
fn column<V>(f: impl FnMut() -> V) -> Box<[V; CHUNK]> {
    let v: Vec<V> = std::iter::repeat_with(f).take(CHUNK).collect();
    match v.into_boxed_slice().try_into() {
        Ok(col) => col,
        Err(_) => unreachable!("a column holds CHUNK values"),
    }
}

impl<T> Chunk<T> {
    fn new() -> Chunk<T> {
        Chunk {
            gens: column(|| 0),
            sizes: column(|| 0),
            flows: column(|| 0),
            ctrl: column(|| false),
            enqueued_at: column(|| 0),
            slots: column(|| None),
        }
    }
}

/// Generational slab owning every live packet, with hot columns.
#[derive(Debug, Clone)]
pub struct PacketArena<T> {
    /// Slot `i` is offset `i % CHUNK` of `chunks[i / CHUNK]`.
    chunks: Vec<Chunk<T>>,
    /// Slots ever allocated (live + free-listed).
    n_slots: usize,
    /// Free slots, reused LIFO.
    free: Vec<u32>,
    /// Live packets.
    len: usize,
    /// Peak simultaneous occupancy over the arena's lifetime.
    high_water: usize,
}

impl<T> Default for PacketArena<T> {
    fn default() -> Self {
        PacketArena::new()
    }
}

impl<T> PacketArena<T> {
    pub fn new() -> PacketArena<T> {
        PacketArena {
            chunks: Vec::new(),
            n_slots: 0,
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Pre-allocate the chunks an expected live population needs
    /// (optional — the slab grows a chunk at a time either way).
    pub fn with_capacity(n: usize) -> PacketArena<T> {
        let mut a = PacketArena::new();
        let n = n.min(INDEX_MASK as usize + 1);
        a.chunks = (0..n.div_ceil(CHUNK)).map(|_| Chunk::new()).collect();
        a
    }

    /// Live packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (live + free-listed).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.n_slots
    }

    /// Peak simultaneous occupancy over the arena's lifetime.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Park a packet in the arena. The hot-column values are snapshot at
    /// allocation: the caller keeps the payload fields they mirror fixed
    /// for the packet's life (only the rest of the payload may change
    /// through [`get_mut`](Self::get_mut)), so the two never disagree.
    #[inline]
    pub fn alloc(
        &mut self,
        size_bytes: u32,
        flow: u32,
        control: bool,
        enqueued_at_ps: u64,
        value: T,
    ) -> PacketHandle {
        let i = match self.free.pop() {
            Some(i) => i as usize,
            None => {
                let i = self.n_slots;
                assert!(
                    i <= INDEX_MASK as usize,
                    "PacketArena overflow: more than 2^{INDEX_BITS} live packets"
                );
                if i >> CHUNK_BITS == self.chunks.len() {
                    self.chunks.push(Chunk::new());
                }
                self.n_slots += 1;
                i
            }
        };
        let (c, o) = (&mut self.chunks[i >> CHUNK_BITS], i & (CHUNK - 1));
        debug_assert!(c.slots[o].is_none(), "free-listed slot is live");
        c.slots[o] = Some(value);
        c.sizes[o] = size_bytes;
        c.flows[o] = flow;
        c.ctrl[o] = control;
        c.enqueued_at[o] = enqueued_at_ps;
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        PacketHandle::new(i as u32, c.gens[o])
    }

    /// The chunk and offset `h` points at, generation-checked. Panics on
    /// stale handles: the caller is holding a ticket for a packet that
    /// already left.
    #[inline]
    fn check(&self, h: PacketHandle) -> (usize, usize) {
        let (c, o) = (h.index() >> CHUNK_BITS, h.index() & (CHUNK - 1));
        match self.chunks.get(c) {
            Some(chunk) if chunk.gens[o] == h.gen() => (c, o),
            chunk => stale(h, chunk.map(|chunk| chunk.gens[o])),
        }
    }

    /// Take the packet out, retiring its slot. The handle (and any copy of
    /// it) is dead from here on.
    #[inline]
    pub fn free(&mut self, h: PacketHandle) -> T {
        let (c, o) = self.check(h);
        let chunk = &mut self.chunks[c];
        let v = chunk.slots[o]
            .take()
            .expect("generation-checked slot is live");
        chunk.gens[o] = chunk.gens[o].wrapping_add(1) & GEN_MASK;
        self.free.push(h.index() as u32);
        self.len -= 1;
        v
    }

    /// Payload access.
    #[inline]
    pub fn get(&self, h: PacketHandle) -> &T {
        let (c, o) = self.check(h);
        self.chunks[c].slots[o]
            .as_ref()
            .expect("generation-checked slot is live")
    }

    /// Payload access for in-place updates of the fields no hot column
    /// mirrors (see [`alloc`](Self::alloc)).
    #[inline]
    pub fn get_mut(&mut self, h: PacketHandle) -> &mut T {
        let (c, o) = self.check(h);
        self.chunks[c].slots[o]
            .as_mut()
            .expect("generation-checked slot is live")
    }

    // --- hot-column reads (no payload touch) ---

    /// Wire size in bytes.
    #[inline]
    pub fn size_bytes(&self, h: PacketHandle) -> u32 {
        let (c, o) = self.check(h);
        self.chunks[c].sizes[o]
    }

    /// Flow id.
    #[inline]
    pub fn flow(&self, h: PacketHandle) -> u32 {
        let (c, o) = self.check(h);
        self.chunks[c].flows[o]
    }

    /// Control-class flag.
    #[inline]
    pub fn is_control(&self, h: PacketHandle) -> bool {
        let (c, o) = self.check(h);
        self.chunks[c].ctrl[o]
    }

    /// The time given at allocation, ps.
    #[inline]
    pub fn enqueued_at_ps(&self, h: PacketHandle) -> u64 {
        let (c, o) = self.check(h);
        self.chunks[c].enqueued_at[o]
    }

    /// Whether `h` still points at the packet it was issued for.
    #[inline]
    pub fn contains(&self, h: PacketHandle) -> bool {
        let (c, o) = (h.index() >> CHUNK_BITS, h.index() & (CHUNK - 1));
        self.chunks
            .get(c)
            .is_some_and(|chunk| chunk.gens[o] == h.gen() && chunk.slots[o].is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut a: PacketArena<u64> = PacketArena::new();
        assert!(a.is_empty());
        let h = a.alloc(1_048, 7, false, 5_000, 0xDEAD);
        assert_eq!(a.len(), 1);
        assert_eq!(*a.get(h), 0xDEAD);
        assert_eq!(a.size_bytes(h), 1_048);
        assert_eq!(a.flow(h), 7);
        assert!(!a.is_control(h));
        assert_eq!(a.enqueued_at_ps(h), 5_000);
        assert!(a.contains(h));
        assert_eq!(a.free(h), 0xDEAD);
        assert!(a.is_empty());
        assert!(!a.contains(h));
    }

    #[test]
    fn slots_are_reused_lifo_with_fresh_generations() {
        let mut a: PacketArena<u32> = PacketArena::new();
        let h0 = a.alloc(1, 0, false, 0, 10);
        let h1 = a.alloc(2, 0, false, 0, 11);
        assert_eq!(a.capacity(), 2);
        a.free(h1);
        a.free(h0);
        // LIFO: slot 0 (freed last) comes back first.
        let h0b = a.alloc(3, 0, true, 9, 12);
        assert_eq!(h0b.index(), 0);
        assert_ne!(h0b, h0, "recycled slot must issue a new generation");
        assert_eq!(a.capacity(), 2, "no growth while the free list serves");
        let h1b = a.alloc(4, 0, false, 9, 13);
        assert_eq!(h1b.index(), 1);
        assert_eq!(*a.get(h0b), 12);
        assert_eq!(*a.get(h1b), 13);
        assert!(a.is_control(h0b));
    }

    #[test]
    fn handles_stay_stable_under_churn() {
        // Long-lived handles must survive arbitrary alloc/free churn of
        // *other* slots: the slab never moves a live entry.
        let mut a: PacketArena<u64> = PacketArena::new();
        let keep: Vec<PacketHandle> = (0..16)
            .map(|i| a.alloc(i, i, false, 0, 1_000 + i as u64))
            .collect();
        let mut churn: Vec<PacketHandle> = Vec::new();
        for round in 0..1_000u64 {
            if round % 3 == 2 {
                if let Some(h) = churn.pop() {
                    a.free(h);
                }
            } else {
                churn.push(a.alloc(64, round as u32, round % 2 == 0, round, round));
            }
        }
        for (i, h) in keep.iter().enumerate() {
            assert_eq!(*a.get(*h), 1_000 + i as u64, "handle {i} went stale");
            assert_eq!(a.size_bytes(*h), i as u32);
        }
        let expect_live = 16 + churn.len();
        assert_eq!(a.len(), expect_live);
        assert!(a.high_water() >= expect_live);
    }

    #[test]
    fn get_mut_updates_the_payload_in_place() {
        let mut a: PacketArena<(u32, u8)> = PacketArena::new();
        let h = a.alloc(4_096, 3, false, 7, (9, 0));
        a.get_mut(h).1 += 1;
        assert_eq!(*a.get(h), (9, 1));
        assert_eq!(a.size_bytes(h), 4_096, "hot columns untouched");
        assert_eq!(a.free(h), (9, 1));
        assert!(!a.contains(h));
    }

    #[test]
    fn slots_past_a_chunk_keep_their_handles_and_the_chunks_their_storage() {
        let mut a: PacketArena<u64> = PacketArena::with_capacity(CHUNK);
        let hs: Vec<_> = (0..2 * CHUNK as u64 + 1)
            .map(|i| a.alloc(1, 0, false, 0, i))
            .collect();
        assert_eq!(a.chunks.len(), 3);
        for (i, &h) in hs.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert_eq!(*a.get(h), i as u64);
        }
        assert_eq!(a.free(hs[CHUNK + 7]), CHUNK as u64 + 7);
        let h = a.alloc(2, 0, false, 0, 99);
        assert_eq!(h.index(), CHUNK + 7, "the freed slot comes back first");
        assert_eq!(a.capacity(), 2 * CHUNK + 1);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let hs: Vec<_> = (0..10).map(|i| a.alloc(1, i, false, 0, 0)).collect();
        for h in hs {
            a.free(h);
        }
        assert_eq!(a.len(), 0);
        assert_eq!(a.high_water(), 10);
        assert_eq!(a.capacity(), 10);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_use_panics() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h = a.alloc(100, 1, false, 0, 42);
        a.free(h);
        // Reoccupy the slot so this is a true use-after-free, not an
        // empty-slot access.
        let _h2 = a.alloc(200, 2, false, 0, 43);
        let _ = a.size_bytes(h);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn double_free_panics() {
        let mut a: PacketArena<u8> = PacketArena::new();
        let h = a.alloc(100, 1, false, 0, 42);
        a.free(h);
        a.free(h);
    }

    #[test]
    fn handle_packing_roundtrips_at_the_edges() {
        // Index occupies the low bits, generation the high bits; neither
        // corrupts the other at their extremes.
        let h = PacketHandle::new(INDEX_MASK, GEN_MASK);
        assert_eq!(h.index(), INDEX_MASK as usize);
        assert_eq!(h.gen(), GEN_MASK);
        let h0 = PacketHandle::new(0, 1);
        assert_eq!(h0.index(), 0);
        assert_eq!(h0.gen(), 1);
    }
}
