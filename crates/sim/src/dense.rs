//! Dense, allocation-light containers for hot per-node state.
//!
//! Both shard drivers touch per-node timer state on every timer arm, cancel
//! and fire ([`TimerTable`](crate::wheel::TimerTable)). The std hash map
//! pays SipHash plus a heap-allocated table per node; at the
//! million-process frontier that is
//! millions of hashes per virtual second on state that is two machine words
//! per entry. [`TagMap`] is an open-addressing `u64 → u64` map with a
//! multiplicative hash, linear probing and backward-shift deletion — no
//! per-entry allocation, no hasher state, deterministic iteration-free API.

/// Sentinel marking an empty slot. The key `u64::MAX` itself is still
/// usable: it is stored out-of-line in a dedicated field.
const EMPTY: u64 = u64::MAX;

/// Fibonacci hashing constant (2^64 / φ, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing `u64 → u64` hash map specialised for timer tables.
///
/// * power-of-two capacity, multiplicative (Fibonacci) hashing,
/// * linear probing with backward-shift deletion (no tombstones),
/// * the full key domain is supported — `u64::MAX` is kept out-of-line.
///
/// ```
/// use sle_sim::dense::TagMap;
/// let mut m = TagMap::new();
/// m.insert(7, 100);
/// m.insert(7, 200);
/// assert_eq!(m.get(7), Some(200));
/// assert_eq!(m.remove(7), Some(200));
/// assert!(m.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct TagMap {
    /// Slot keys; `EMPTY` marks a free slot. Length is zero or a power of two.
    keys: Vec<u64>,
    vals: Vec<u64>,
    /// Number of occupied slots in `keys` (excludes the reserved key).
    occupied: usize,
    /// Value for the key `u64::MAX`, which cannot live in `keys`.
    reserved: Option<u64>,
}

impl TagMap {
    /// Creates an empty map. Does not allocate until the first insert.
    pub fn new() -> Self {
        TagMap::default()
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.occupied + usize::from(self.reserved.is_some())
    }

    /// Returns true if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // keys.len() is a power of two; multiply-shift spreads the high bits.
        let bits = self.keys.len().trailing_zeros();
        (key.wrapping_mul(HASH_MUL) >> (64 - bits)) as usize
    }

    /// Returns the value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        if key == EMPTY {
            return self.reserved;
        }
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts `value` under `key`, returning the previous value if present.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        if key == EMPTY {
            return self.reserved.replace(value);
        }
        // Grow at 7/8 occupancy so probe chains stay short.
        if self.keys.is_empty() || (self.occupied + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], value));
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.occupied += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key == EMPTY {
            return self.reserved.take();
        }
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let removed = self.vals[i];
        self.occupied -= 1;
        // Backward-shift deletion: pull every displaced follower one slot
        // toward its home so lookups never need tombstones.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let home = self.home(k);
            // `k` may fill the hole iff doing so does not move it before its
            // home slot: its probe distance must reach back to the hole.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        Some(removed)
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.occupied = 0;
        self.reserved = None;
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(8);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; new_cap];
        self.occupied = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

/// Inserts `value` at `index` like [`Vec::insert`], but grows a full `vec`
/// by `len / 8 + 1` slots instead of doubling it.
///
/// Per-membership tables (a group's monitors, members and elector peers)
/// reach their final length one insert at a time and then keep it for the
/// life of the membership, so doubling would leave up to half of each one
/// unused: 9 remote members sit in 16 slots. Growing by an eighth keeps
/// the slack to `len / 8 + 1` slots, for a few more reallocations while
/// the membership forms. Appending is `insert_tight(vec, vec.len(), value)`.
///
/// ```
/// let mut v = Vec::new();
/// for x in 0..9 {
///     sle_sim::dense::insert_tight(&mut v, 0, x);
/// }
/// assert_eq!(v, [8, 7, 6, 5, 4, 3, 2, 1, 0]);
/// assert_eq!(v.capacity(), 10);
/// ```
pub fn insert_tight<T>(vec: &mut Vec<T>, index: usize, value: T) {
    if vec.len() == vec.capacity() {
        vec.reserve_exact(vec.len() / 8 + 1);
    }
    vec.insert(index, value);
}

/// A dense index from a `u32` id space (node ids, group ids) to `u32` slots.
///
/// Backed by a sorted vector of `(id, slot)` pairs: lookups are binary
/// searches over contiguous memory, iteration is automatically in id order
/// (deterministic), and the whole index for a bounded peer set fits in a
/// cache line or two. This is the interning structure behind the dense
/// arenas — ids are interned once at join/hello time, hot paths then work
/// with `u32` slot indices.
///
/// ```
/// use sle_sim::dense::SlotIndex;
/// let mut ix = SlotIndex::new();
/// ix.insert(40, 0);
/// ix.insert(7, 1);
/// assert_eq!(ix.get(7), Some(1));
/// assert_eq!(ix.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![7, 40]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlotIndex {
    entries: Vec<(u32, u32)>,
}

impl SlotIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        SlotIndex::default()
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no ids are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the slot for `id`, if interned.
    #[inline]
    pub fn get(&self, id: u32) -> Option<u32> {
        self.entries
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Maps `id` to `slot`, returning the previous slot if it was interned.
    pub fn insert(&mut self, id: u32, slot: u32) -> Option<u32> {
        match self.entries.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, slot)),
            Err(i) => {
                self.entries.insert(i, (id, slot));
                None
            }
        }
    }

    /// Removes `id`, returning its slot if it was interned.
    pub fn remove(&mut self, id: u32) -> Option<u32> {
        match self.entries.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates `(id, slot)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.entries.iter().copied()
    }

    /// Removes every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagmap_roundtrip_and_overwrite() {
        let mut m = TagMap::new();
        assert_eq!(m.get(3), None);
        assert_eq!(m.insert(3, 10), None);
        assert_eq!(m.insert(3, 11), Some(10));
        assert_eq!(m.get(3), Some(11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(3), Some(11));
        assert_eq!(m.remove(3), None);
        assert!(m.is_empty());
    }

    #[test]
    fn tagmap_survives_growth() {
        let mut m = TagMap::new();
        for k in 0..1000u64 {
            m.insert(k * 0x1_0000_0001, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k * 0x1_0000_0001), Some(k));
        }
    }

    #[test]
    fn tagmap_backward_shift_keeps_probe_chains_intact() {
        // Insert clustered keys, remove from the middle of the cluster, and
        // verify every survivor is still reachable (a tombstone-free delete
        // that breaks a probe chain would lose them).
        let mut m = TagMap::new();
        for k in 0..256u64 {
            m.insert(k, k + 1000);
        }
        for k in (0..256u64).step_by(2) {
            assert_eq!(m.remove(k), Some(k + 1000));
        }
        for k in 0..256u64 {
            let expect = if k % 2 == 0 { None } else { Some(k + 1000) };
            assert_eq!(m.get(k), expect, "key {k}");
        }
        assert_eq!(m.len(), 128);
    }

    #[test]
    fn tagmap_supports_the_sentinel_key() {
        let mut m = TagMap::new();
        assert_eq!(m.insert(u64::MAX, 5), None);
        assert_eq!(m.get(u64::MAX), Some(5));
        assert_eq!(m.len(), 1);
        assert_eq!(m.insert(u64::MAX, 6), Some(5));
        assert_eq!(m.remove(u64::MAX), Some(6));
        assert!(m.is_empty());
    }

    #[test]
    fn tagmap_clear_resets_without_shrinking() {
        let mut m = TagMap::new();
        for k in 0..100 {
            m.insert(k, k);
        }
        m.insert(u64::MAX, 1);
        m.clear();
        assert!(m.is_empty());
        for k in 0..100 {
            assert_eq!(m.get(k), None);
        }
        m.insert(2, 3);
        assert_eq!(m.get(2), Some(3));
    }

    #[test]
    fn insert_tight_keeps_slack_within_an_eighth() {
        let mut v: Vec<u64> = Vec::new();
        let mut reallocations = 0;
        for n in 0..2_000u64 {
            let before = v.capacity();
            // Alternate front, middle and back so every position is used.
            let at = [0, v.len() / 2, v.len()][n as usize % 3];
            insert_tight(&mut v, at, n);
            reallocations += usize::from(v.capacity() != before);
            let len = v.len();
            assert!(
                v.capacity() <= len + (len - 1) / 8,
                "{len} in {}",
                v.capacity()
            );
        }
        // Still geometric: about log_{9/8} of the length, not one per insert.
        assert!(reallocations < 60, "{reallocations} reallocations");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn slot_index_sorted_semantics() {
        let mut ix = SlotIndex::new();
        assert_eq!(ix.insert(40, 0), None);
        assert_eq!(ix.insert(7, 1), None);
        assert_eq!(ix.insert(19, 2), None);
        assert_eq!(ix.insert(7, 9), Some(1));
        assert_eq!(ix.get(19), Some(2));
        assert_eq!(ix.get(8), None);
        let ids: Vec<u32> = ix.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![7, 19, 40]);
        assert_eq!(ix.remove(19), Some(2));
        assert_eq!(ix.remove(19), None);
        assert_eq!(ix.len(), 2);
    }
}
