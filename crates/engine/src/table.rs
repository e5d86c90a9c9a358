//! `FlowTable` — a dense, deterministic map for per-flow state on the
//! per-packet decision hot path.
//!
//! Every load-balancing scheme keeps some per-flow state (a flowlet entry,
//! a round-robin base, a reroute override) that is read and written once
//! per data packet. Simulator flow ids are dense indices assigned in
//! arrival order (`crates/net/src/sim/` numbers flows `0..n`), so a
//! `BTreeMap<u64, V>` there pays O(log n) pointer-chasing for what is
//! morally an array access. `FlowTable<V>` is the array: a lazily-grown
//! `Vec<Option<V>>` slab for keys below [`DENSE_KEY_LIMIT`], with O(1)
//! get/insert/remove, plus a small deterministic open-addressed map for
//! the rare genuinely-sparse keys — so nothing here ever reaches for
//! `std::HashMap` (whose iteration order would break bit-exact replay;
//! see `cargo xtask lint`'s hash-container rule).
//!
//! Determinism contract: every observable — lookups, returned old values,
//! `len`, and crucially **iteration order** (ascending key, exactly like
//! `BTreeMap`) — is a pure function of the table's logical contents,
//! never of insertion history or probe-sequence accidents. The
//! `table_matches_btreemap_reference` proptest in `lib.rs` pins this
//! against a `BTreeMap` reference model under random insert/remove/sweep
//! interleavings.

/// Keys below this bound live in the dense slab; keys at or above it go
/// to the sparse fallback. The bound caps the slab's worst-case footprint
/// (one `Option<V>` per key below the largest dense key seen): simulation
/// flow ids are sequential from zero, so in practice the slab holds
/// exactly the live flow population.
pub const DENSE_KEY_LIMIT: u64 = 1 << 20;

/// One open-addressed bucket of the sparse region.
#[derive(Debug, Clone)]
enum Slot<V> {
    Empty,
    /// A removed entry; probes continue past it, inserts may reuse it.
    Tomb,
    Full(u64, V),
}

/// Deterministic open-addressed map (linear probing, power-of-two
/// capacity, multiplicative hashing). Only ever holds the "overflow"
/// keys `>= DENSE_KEY_LIMIT`, which real workloads do not produce — it
/// exists so a stray key (a hash-derived id, a sentinel) degrades to a
/// still-correct, still-deterministic slow path instead of a panic.
#[derive(Debug, Clone)]
struct SparseMap<V> {
    slots: Vec<Slot<V>>,
    /// Live entries.
    len: usize,
    /// Live entries + tombstones (drives rehashing).
    occupied: usize,
}

/// Fibonacci multiplicative hash — deterministic and seed-free.
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl<V> SparseMap<V> {
    fn new() -> SparseMap<V> {
        SparseMap {
            slots: Vec::new(),
            len: 0,
            occupied: 0,
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        debug_assert!(self.slots.len().is_power_of_two());
        self.slots.len() as u64 - 1
    }

    /// Index of the slot holding `key`, if present.
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = spread(key) & mask;
        loop {
            match &self.slots[i as usize] {
                Slot::Empty => return None,
                Slot::Full(k, _) if *k == key => return Some(i as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| match &self.slots[i] {
            Slot::Full(_, v) => v,
            _ => unreachable!("find() returns Full slots only"),
        })
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        match &mut self.slots[i] {
            Slot::Full(_, v) => Some(v),
            _ => unreachable!("find() returns Full slots only"),
        }
    }

    /// Grow (or initially allocate) and re-seat every live entry.
    fn rehash(&mut self, min_capacity: usize) {
        let new_cap = min_capacity.next_power_of_two().max(8);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || Slot::Empty);
        self.occupied = self.len;
        let mask = self.mask();
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let mut i = spread(k) & mask;
                while !matches!(self.slots[i as usize], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i as usize] = Slot::Full(k, v);
            }
        }
    }

    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        // Keep load (live + tombstones) under 3/4 so probes stay short.
        if self.slots.is_empty() || (self.occupied + 1) * 4 > self.slots.len() * 3 {
            self.rehash((self.len + 1) * 2);
        }
        let mask = self.mask();
        let mut i = spread(key) & mask;
        let mut reuse: Option<u64> = None;
        loop {
            match &mut self.slots[i as usize] {
                Slot::Empty => {
                    let target = reuse.unwrap_or(i);
                    if reuse.is_none() {
                        self.occupied += 1;
                    }
                    self.slots[target as usize] = Slot::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Tomb => {
                    // Remember the first tombstone; the key may still live
                    // further down the probe chain.
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                Slot::Full(k, v) => {
                    if *k == key {
                        return Some(std::mem::replace(v, value));
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        match std::mem::replace(&mut self.slots[i], Slot::Tomb) {
            Slot::Full(_, v) => {
                self.len -= 1;
                Some(v)
            }
            _ => unreachable!("find() returns Full slots only"),
        }
    }

    /// Live keys in ascending order. Sorting makes iteration a pure
    /// function of the contents — probe layout depends on the
    /// insert/remove history and must never leak out.
    fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Full(k, _) => Some(*k),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Dense flow-state table: O(1) access keyed by `u64` flow id, with
/// `BTreeMap`-compatible observable behavior (see module docs).
#[derive(Debug, Clone)]
pub struct FlowTable<V> {
    /// Slab for keys `< DENSE_KEY_LIMIT`; index == key.
    dense: Vec<Option<V>>,
    /// Live entries in `dense`.
    dense_len: usize,
    sparse: SparseMap<V>,
}

impl<V> Default for FlowTable<V> {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl<V> FlowTable<V> {
    pub fn new() -> FlowTable<V> {
        FlowTable {
            dense: Vec::new(),
            dense_len: 0,
            sparse: SparseMap::new(),
        }
    }

    /// Pre-size the slab for an expected flow population (optional — the
    /// slab grows lazily either way).
    pub fn with_capacity(n: usize) -> FlowTable<V> {
        let mut t = FlowTable::new();
        t.dense.reserve(n.min(DENSE_KEY_LIMIT as usize));
        t
    }

    pub fn len(&self) -> usize {
        self.dense_len + self.sparse.len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        if key < DENSE_KEY_LIMIT {
            self.dense.get(key as usize).and_then(Option::as_ref)
        } else {
            self.sparse.get(key)
        }
    }

    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if key < DENSE_KEY_LIMIT {
            self.dense.get_mut(key as usize).and_then(Option::as_mut)
        } else {
            self.sparse.get_mut(key)
        }
    }

    /// Insert, returning the previous value for the key (like `BTreeMap`).
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if key < DENSE_KEY_LIMIT {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            let old = self.dense[i].replace(value);
            if old.is_none() {
                self.dense_len += 1;
            }
            old
        } else {
            self.sparse.insert(key, value)
        }
    }

    /// Remove, returning the value if present. This is the slot
    /// reclamation hook `on_flow_complete` wires into: a completed flow's
    /// slot is freed for reuse (dense slots are cheap `None`s; sparse
    /// slots become tombstones and are compacted on the next rehash).
    pub fn remove(&mut self, key: u64) -> Option<V> {
        if key < DENSE_KEY_LIMIT {
            let old = self.dense.get_mut(key as usize).and_then(Option::take);
            if old.is_some() {
                self.dense_len -= 1;
            }
            old
        } else {
            self.sparse.remove(key)
        }
    }

    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// `entry(key).or_insert_with(default)` for the common "first packet
    /// of a flow creates its state" pattern, without the borrow gymnastics.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key, default());
        }
        self.get_mut(key).expect("just inserted")
    }

    pub fn clear(&mut self) {
        self.dense.clear();
        self.dense_len = 0;
        self.sparse = SparseMap::new();
    }

    /// Expiry/GC sweep hook (flowlet aging): visit every entry in
    /// ascending key order, dropping those for which `keep` returns
    /// false. The deterministic visit order matters — predicates may be
    /// stateful, and replay must not depend on layout accidents.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        for (i, slot) in self.dense.iter_mut().enumerate() {
            if let Some(v) = slot {
                if !keep(i as u64, v) {
                    *slot = None;
                    self.dense_len -= 1;
                }
            }
        }
        for k in self.sparse.sorted_keys() {
            let drop_it = {
                let v = self.sparse.get_mut(k).expect("key from live scan");
                !keep(k, v)
            };
            if drop_it {
                self.sparse.remove(k);
            }
        }
    }

    /// Iterate `(key, &value)` in ascending key order (dense keys are all
    /// below [`DENSE_KEY_LIMIT`], sparse keys all at or above it, so the
    /// concatenation is globally sorted — identical to `BTreeMap` order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i as u64, v)));
        let sparse_keys = self.sparse.sorted_keys();
        let sparse = sparse_keys.into_iter().map(move |k| {
            (k, self.sparse.get(k).expect("key from live scan"))
        });
        dense.chain(sparse)
    }

    /// Live keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_insert_get_remove_roundtrip() {
        let mut t: FlowTable<u32> = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.insert(0, 10), None);
        assert_eq!(t.insert(3, 31), Some(30));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(&31));
        assert_eq!(t.get(1), None);
        assert_eq!(t.remove(3), Some(31));
        assert_eq!(t.remove(3), None);
        assert_eq!(t.len(), 1);
        assert!(t.contains_key(0));
    }

    #[test]
    fn sparse_keys_fall_back_to_open_addressing() {
        let mut t: FlowTable<u64> = FlowTable::new();
        let base = DENSE_KEY_LIMIT;
        for k in 0..100u64 {
            // Adversarial stride: many keys collide modulo small powers
            // of two after the multiplicative spread.
            assert_eq!(t.insert(base + k * 1024, k), None);
        }
        assert_eq!(t.len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.get(base + k * 1024), Some(&k));
        }
        // Remove half, re-insert with new values; tombstones must not
        // shadow live entries or lose updates.
        for k in (0..100u64).step_by(2) {
            assert_eq!(t.remove(base + k * 1024), Some(k));
        }
        assert_eq!(t.len(), 50);
        for k in (0..100u64).step_by(2) {
            assert_eq!(t.insert(base + k * 1024, 1000 + k), None);
        }
        for k in 0..100u64 {
            let want = if k % 2 == 0 { 1000 + k } else { k };
            assert_eq!(t.get(base + k * 1024), Some(&want), "key stride {k}");
        }
    }

    #[test]
    fn iteration_is_ascending_across_both_regions() {
        let mut t: FlowTable<&str> = FlowTable::new();
        t.insert(DENSE_KEY_LIMIT + 7, "s7");
        t.insert(2, "d2");
        t.insert(DENSE_KEY_LIMIT, "s0");
        t.insert(0, "d0");
        let got: Vec<(u64, &str)> = t.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            got,
            vec![
                (0, "d0"),
                (2, "d2"),
                (DENSE_KEY_LIMIT, "s0"),
                (DENSE_KEY_LIMIT + 7, "s7"),
            ]
        );
    }

    #[test]
    fn retain_sweeps_in_key_order_and_reclaims() {
        let mut t: FlowTable<u64> = FlowTable::new();
        for k in [0u64, 1, 5, DENSE_KEY_LIMIT + 1, DENSE_KEY_LIMIT + 9] {
            t.insert(k, k * 10);
        }
        let mut visited = Vec::new();
        t.retain(|k, v| {
            visited.push(k);
            *v += 1; // sweep may mutate survivors (aging timestamps)
            k % 2 == 1
        });
        assert_eq!(
            visited,
            vec![0, 1, 5, DENSE_KEY_LIMIT + 1, DENSE_KEY_LIMIT + 9]
        );
        let got: Vec<u64> = t.keys().collect();
        assert_eq!(got, vec![1, 5, DENSE_KEY_LIMIT + 1, DENSE_KEY_LIMIT + 9]);
        assert_eq!(t.get(5), Some(&51));
        assert_eq!(t.get(0), None);
    }

    #[test]
    fn get_or_insert_with_runs_default_once() {
        let mut t: FlowTable<u64> = FlowTable::new();
        let mut calls = 0;
        *t.get_or_insert_with(9, || {
            calls += 1;
            7
        }) += 1;
        *t.get_or_insert_with(9, || {
            calls += 1;
            100
        }) += 1;
        assert_eq!(calls, 1);
        assert_eq!(t.get(9), Some(&9));
    }

    #[test]
    fn clear_resets_both_regions() {
        let mut t: FlowTable<u8> = FlowTable::new();
        t.insert(1, 1);
        t.insert(DENSE_KEY_LIMIT + 1, 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        t.insert(1, 3);
        assert_eq!(t.get(1), Some(&3));
    }

    #[test]
    fn u64_max_key_is_a_legal_sparse_key() {
        let mut t: FlowTable<u8> = FlowTable::new();
        t.insert(u64::MAX, 1);
        assert_eq!(t.get(u64::MAX), Some(&1));
        assert_eq!(t.remove(u64::MAX), Some(1));
        assert!(t.is_empty());
    }

    #[test]
    fn sparse_heavy_churn_keeps_probe_chains_sound() {
        // Interleave inserts and removes so tombstones accumulate and
        // rehashes must compact them.
        let mut t: FlowTable<u64> = FlowTable::new();
        let key = |i: u64| DENSE_KEY_LIMIT + spread(i) % 100_000;
        let mut live = std::collections::BTreeMap::new();
        for round in 0..2_000u64 {
            let k = key(round % 500);
            if round % 3 == 0 {
                assert_eq!(t.remove(k), live.remove(&k), "round {round}");
            } else {
                assert_eq!(t.insert(k, round), live.insert(k, round), "round {round}");
            }
            assert_eq!(t.len(), live.len(), "round {round}");
        }
        let got: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        let want: Vec<(u64, u64)> = live.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }
}
