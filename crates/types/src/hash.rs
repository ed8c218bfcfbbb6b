//! The workspace's two hashes.
//!
//! **FNV-1a 64 ([`fnv1a`]) is the one content-key hash.**
//! Every content-addressed identity in the repo derives from this
//! function — a job's key is the FNV-1a of its canonical JSON; the
//! serve result cache and the result store on disk (shared by
//! `nomad-serve` and the figure harnesses) key on it, and the fleet
//! router places cells on its hash ring by the same digests — so every
//! layer agrees on what "the same experiment" means byte-for-byte. FNV
//! is not cryptographic; every consumer stores the canonical string
//! alongside the key and verifies it on lookup, so a 64-bit collision
//! degrades to a cache bypass (or an uncached run), never to a wrong
//! result.
//!
//! The digests are load-bearing across processes and releases: store
//! file names and ring placement must not silently change.
//! The `pinned_digests` test holds the standard FNV-1a test vectors
//! plus repo-specific strings against hard-coded values.
//!
//! **[`IntHasher`] hashes the simulator's integer-keyed maps** ([`IntMap`],
//! [`IntSet`]): page numbers, frame numbers, request tokens. It never
//! leaves the process, so nothing pins its values.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hasher for the simulator's integer keys: one multiply by a
/// golden-ratio odd constant, high bits folded down. The keys are
/// simulator state no outside party chooses, so SipHash's flooding
/// resistance buys nothing, and no simulator code iterates these maps,
/// so their order never reaches a report.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A `HashMap` over integer keys hashed by [`IntHasher`]; build one
/// with `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of integers hashed by [`IntHasher`]; build one with
/// `IntSet::default()`.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The digests are stable forever: store file names and fleet ring
    /// placement both persist them.
    #[test]
    fn pinned_digests() {
        // Standard FNV-1a 64 reference vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Repo-shaped inputs: a grid-descriptor string and fleet ring
        // vnode labels. Regenerating these values means every stored
        // report on disk just got orphaned — don't.
        assert_eq!(
            fnv1a(b"sweep:i6000w500c2s13:Baseline,NOMAD,tc,libq"),
            0x934e_5850_e39e_b3a9
        );
        assert_eq!(fnv1a(b"node-0#0"), 0x013a_67d2_f646_5dfb);
        assert_eq!(fnv1a(b"node-1#63"), 0xc8b2_8380_b268_ac23);
    }

    #[test]
    fn int_maps_hold_distinct_keys() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for k in 0..10_000u64 {
            m.insert(k << 12, k);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|k| m.get(&(k << 12)) == Some(&k)));
        let s: IntSet<u64> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }

    #[test]
    fn sensitive_to_every_byte_and_order() {
        assert_ne!(fnv1a(b"job-1"), fnv1a(b"job-2"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        assert_ne!(fnv1a(b"node-1#2"), fnv1a(b"node-2#1"));
    }
}
