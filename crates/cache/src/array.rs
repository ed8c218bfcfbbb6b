//! Pure set-associative tag array with LRU replacement.
//!
//! Untimed: timing lives in [`crate::CacheLevel`]. Keys are opaque
//! `u64` block keys so that the same array can index physical-space
//! blocks, cache-space blocks (with an address-space discriminator bit
//! folded into the key) or the DC tag store of a HW-based scheme.
//!
//! Set/tag decomposition is precomputed as a [`Pow2`] at construction,
//! so the per-access index math is pure shift-and-mask.

use nomad_types::Pow2;

/// A victim line evicted by [`CacheArray::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Block key of the evicted line.
    pub key: u64,
    /// Whether the victim was dirty and needs a writeback.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Set-associative array of cache lines with true-LRU replacement.
///
/// `sets × ways` lines; a line is identified by an opaque block key
/// whose low bits select the set.
#[derive(Debug, Clone)]
pub struct CacheArray {
    ways: Vec<Way>,
    /// Set count as shift-and-mask: `sets.rem(key)` is the set index,
    /// `sets.div(key)` the tag.
    sets: Pow2,
    assoc: usize,
    stamp: u64,
}

impl CacheArray {
    /// Create an array with `num_sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc == 0`.
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        let sets = Pow2::new(num_sets as u64).expect("sets must be a power of two");
        assert!(assoc > 0, "associativity must be non-zero");
        CacheArray {
            ways: vec![Way::default(); num_sets * assoc],
            sets,
            assoc,
            stamp: 0,
        }
    }

    /// Array sized for `size_bytes` of 64-byte lines at `assoc` ways.
    pub fn with_geometry(size_bytes: u64, assoc: usize) -> Self {
        let lines = (size_bytes / 64).max(1) as usize;
        let sets = (lines / assoc).max(1).next_power_of_two();
        CacheArray::new(sets, assoc)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.value() as usize
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.num_sets() * self.assoc
    }

    /// Invalidate every line and rewind the LRU stamp — the state of a
    /// freshly built array, with the `ways` allocation retained (arena
    /// reuse between sweep cells).
    pub fn reset(&mut self) {
        self.ways.fill(Way::default());
        self.stamp = 0;
    }

    #[inline]
    fn set_range(&self, key: u64) -> std::ops::Range<usize> {
        let set = self.sets.rem(key) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    #[inline]
    fn tag(&self, key: u64) -> u64 {
        self.sets.div(key)
    }

    /// Look up `key`, updating LRU on hit. Returns whether the line is
    /// present. Use [`CacheArray::probe`] for a side-effect-free check.
    pub fn touch(&mut self, key: u64) -> bool {
        let tag = self.tag(key);
        let range = self.set_range(key);
        self.stamp += 1;
        let stamp = self.stamp;
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.lru = stamp;
                return true;
            }
        }
        false
    }

    /// Look up `key` without disturbing LRU state.
    pub fn probe(&self, key: u64) -> bool {
        let tag = self.tag(key);
        self.ways[self.set_range(key)]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Mark `key` dirty (on a write hit). Returns `false` if absent.
    pub fn mark_dirty(&mut self, key: u64) -> bool {
        let tag = self.tag(key);
        let range = self.set_range(key);
        self.stamp += 1;
        let stamp = self.stamp;
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.dirty = true;
                w.lru = stamp;
                return true;
            }
        }
        false
    }

    /// Insert `key` (e.g. on a fill), evicting the LRU way if the set is
    /// full. Re-inserting a present key updates its dirty bit (OR-ing).
    pub fn insert(&mut self, key: u64, dirty: bool) -> Option<Victim> {
        let tag = self.tag(key);
        let set_base = self.set_range(key).start;
        let set_idx = self.sets.rem(key);
        self.stamp += 1;
        let stamp = self.stamp;

        let set = &mut self.ways[set_base..set_base + self.assoc];
        // Already present?
        if let Some(w) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.dirty |= dirty;
            w.lru = stamp;
            return None;
        }
        // Free way?
        if let Some(w) = set.iter_mut().find(|w| !w.valid) {
            *w = Way {
                tag,
                valid: true,
                dirty,
                lru: stamp,
            };
            return None;
        }
        // Evict LRU.
        let victim_way = set.iter_mut().min_by_key(|w| w.lru).expect("assoc > 0");
        let victim = Victim {
            key: self.sets.mul(victim_way.tag) | set_idx,
            dirty: victim_way.dirty,
        };
        *victim_way = Way {
            tag,
            valid: true,
            dirty,
            lru: stamp,
        };
        Some(victim)
    }

    /// Remove `key`; returns its dirty bit if it was present.
    pub fn invalidate(&mut self, key: u64) -> Option<bool> {
        let tag = self.tag(key);
        let range = self.set_range(key);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == tag {
                w.valid = false;
                return Some(w.dirty);
            }
        }
        None
    }

    /// Every valid line as `(key, dirty)`, in way order — the full-scan
    /// view tests compare probe-based operations against.
    #[cfg(test)]
    pub(crate) fn lines(&self) -> Vec<(u64, bool)> {
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.valid)
            .map(|(i, w)| (self.sets.mul(w.tag) | (i / self.assoc) as u64, w.dirty))
            .collect()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_then_probe() {
        let mut a = CacheArray::new(4, 2);
        assert!(a.insert(0x10, false).is_none());
        assert!(a.probe(0x10));
        assert!(!a.probe(0x11));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut a = CacheArray::new(1, 2);
        a.insert(1, false);
        a.insert(2, false);
        a.touch(1); // 2 is now LRU
        let v = a.insert(3, false).expect("eviction");
        assert_eq!(v.key, 2);
        assert!(a.probe(1) && a.probe(3) && !a.probe(2));
    }

    #[test]
    fn victim_key_reconstruction() {
        let mut a = CacheArray::new(8, 1);
        let key = 8 * 5 + 3; // tag 5, set 3
        a.insert(key, true);
        let v = a.insert(8 * 9 + 3, false).expect("conflict eviction");
        assert_eq!(v.key, key);
        assert!(v.dirty);
    }

    #[test]
    fn dirty_propagates_through_reinsert() {
        let mut a = CacheArray::new(4, 2);
        a.insert(0x20, false);
        a.insert(0x20, true);
        let d = a.invalidate(0x20);
        assert_eq!(d, Some(true));
        assert_eq!(a.invalidate(0x20), None);
    }

    #[test]
    fn mark_dirty_only_on_present_lines() {
        let mut a = CacheArray::new(4, 2);
        assert!(!a.mark_dirty(7));
        a.insert(7, false);
        assert!(a.mark_dirty(7));
        assert_eq!(a.invalidate(7), Some(true));
    }

    #[test]
    fn geometry_helper() {
        let a = CacheArray::with_geometry(32 * 1024, 8);
        assert_eq!(a.capacity(), 512);
        assert_eq!(a.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheArray::new(3, 2);
    }

    proptest! {
        /// The array never exceeds its capacity and eviction victims are
        /// always lines that were previously inserted.
        #[test]
        fn prop_capacity_respected(keys in proptest::collection::vec(0u64..4096, 1..500)) {
            let mut a = CacheArray::new(16, 4);
            let mut inserted = std::collections::HashSet::new();
            for &k in &keys {
                if let Some(v) = a.insert(k, false) {
                    prop_assert!(inserted.contains(&v.key), "victim {} never inserted", v.key);
                    inserted.remove(&v.key);
                }
                inserted.insert(k);
                prop_assert!(a.occupancy() <= a.capacity());
            }
            // Everything the array claims to hold must have been inserted.
            for &k in &keys {
                if a.probe(k) {
                    prop_assert!(inserted.contains(&k));
                }
            }
        }

        /// A probe immediately after insert always hits.
        #[test]
        fn prop_insert_then_hit(key in 0u64..1_000_000) {
            let mut a = CacheArray::new(64, 8);
            a.insert(key, false);
            prop_assert!(a.probe(key));
        }
    }
}
