//! Two-level TLBs with eviction notifications.
//!
//! OS-managed DRAM caches read their tags out of TLBs, so TLB behaviour
//! is on the critical path of the schemes:
//!
//! * a TLB **hit** delivers the CFN for free — the "ideal DC access
//!   time" property;
//! * a TLB **miss** triggers a page-table walk during which a DC *tag
//!   miss* may be discovered and handled by the scheme's front-end;
//! * TLB **evictions** must be reported so the front-end can clear the
//!   cache-page-descriptor TLB directory used for shootdown avoidance
//!   (the eviction daemon skips frames whose translation is still
//!   TLB-resident).
//!
//! The hierarchy is inclusive: every L1 entry is also in L2; an L2
//! eviction removes the L1 copy and constitutes a full "left the TLBs"
//! event.

use crate::page_table::FrameKind;
use nomad_types::{Cycle, NextActivity, Vpn};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: Vpn,
    /// Current frame mapping (the DC tag when cached).
    pub frame: FrameKind,
    /// NC bit copied from the PTE.
    pub noncacheable: bool,
}

/// Configuration of a two-level TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// L1 TLB entries.
    pub l1_entries: usize,
    /// L2 TLB entries.
    pub l2_entries: usize,
    /// L1 hit latency in cycles (usually folded into the L1D access).
    pub l1_latency: Cycle,
    /// L2 hit latency in cycles.
    pub l2_latency: Cycle,
    /// Page-table walk latency in cycles (page-walk caches assumed).
    pub walk_latency: Cycle,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            l1_entries: 64,
            l2_entries: 1536,
            l1_latency: 1,
            l2_latency: 9,
            walk_latency: 80,
        }
    }
}

/// One fully-associative LRU TLB level.
///
/// Entries live in a fixed arena of parallel `stamps`/`entries` arrays
/// with a `u64`-word occupancy bit-vector; a `vpn → slot` map provides
/// O(1) lookup. LRU victim selection walks the set bits of the
/// occupancy words over the flat stamp array — a cache-friendly linear
/// scan instead of a `HashMap` iteration. Recency stamps are unique
/// (one counter bump per operation), so the minimum-stamp victim is
/// identical to the one the old map-scan implementation chose.
#[derive(Debug)]
pub struct Tlb {
    /// `vpn → slot` index into the arena.
    map: HashMap<u64, usize>,
    /// Per-slot recency stamps; meaningful only where `live` is set.
    stamps: Vec<u64>,
    /// Per-slot entry payloads; meaningful only where `live` is set.
    entries: Vec<TlbEntry>,
    /// Occupancy bit-vector, one bit per slot.
    live: Vec<u64>,
    /// Free slots.
    free: Vec<usize>,
    stamp: u64,
}

impl Tlb {
    /// A TLB holding `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let filler = TlbEntry {
            vpn: Vpn(0),
            frame: FrameKind::Phys(nomad_types::Pfn(0)),
            noncacheable: false,
        };
        Tlb {
            map: HashMap::with_capacity(capacity + 1),
            stamps: vec![0; capacity],
            entries: vec![filler; capacity],
            live: vec![0; capacity.div_ceil(64)],
            free: (0..capacity).rev().collect(),
            stamp: 0,
        }
    }

    /// Look up `vpn`, refreshing its recency on a hit.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get(&vpn.raw()).map(|&slot| {
            self.stamps[slot] = stamp;
            self.entries[slot]
        })
    }

    /// Side-effect-free presence check.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.map.contains_key(&vpn.raw())
    }

    /// Slot holding the oldest (minimum-stamp) live entry.
    fn lru_slot(&self) -> usize {
        let mut best_slot = usize::MAX;
        let mut best_stamp = u64::MAX;
        for (wi, &word) in self.live.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let slot = wi * 64 + w.trailing_zeros() as usize;
                if self.stamps[slot] < best_stamp {
                    best_stamp = self.stamps[slot];
                    best_slot = slot;
                }
                w &= w - 1;
            }
        }
        assert!(best_slot != usize::MAX, "non-empty");
        best_slot
    }

    /// Insert an entry, returning the LRU victim if the TLB was full.
    pub fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(&slot) = self.map.get(&entry.vpn.raw()) {
            // Refresh in place; no eviction.
            self.stamps[slot] = stamp;
            self.entries[slot] = entry;
            return None;
        }
        let (slot, victim) = match self.free.pop() {
            Some(slot) => (slot, None),
            None => {
                // Full: evict the LRU entry and reuse its slot. The
                // incoming entry carries the newest stamp, so it can
                // never be its own victim.
                let slot = self.lru_slot();
                let victim = self.entries[slot];
                self.map.remove(&victim.vpn.raw());
                (slot, Some(victim))
            }
        };
        self.live[slot / 64] |= 1u64 << (slot % 64);
        self.stamps[slot] = stamp;
        self.entries[slot] = entry;
        self.map.insert(entry.vpn.raw(), slot);
        victim
    }

    /// Remove `vpn` (shootdown), returning the entry if present.
    pub fn invalidate(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        self.map.remove(&vpn.raw()).map(|slot| {
            self.live[slot / 64] &= !(1u64 << (slot % 64));
            self.free.push(slot);
            self.entries[slot]
        })
    }

    /// Apply `f` to the entry for `vpn`, if present (PTE update
    /// propagation).
    pub fn update(&mut self, vpn: Vpn, f: impl FnOnce(&mut TlbEntry)) -> bool {
        if let Some(&slot) = self.map.get(&vpn.raw()) {
            f(&mut self.entries[slot]);
            true
        } else {
            false
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Result of a hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// Found; translation available after `latency` cycles.
    Hit {
        /// The matching entry.
        entry: TlbEntry,
        /// L1 or L2 hit latency.
        latency: Cycle,
    },
    /// Both levels missed; the caller must walk the page table. The
    /// reported latency covers the L1+L2 probes; walk time is added by
    /// the walker.
    Miss {
        /// Cycles spent probing both levels.
        latency: Cycle,
    },
}

/// A per-core, inclusive, two-level TLB hierarchy.
#[derive(Debug)]
pub struct TlbHierarchy {
    cfg: TlbConfig,
    l1: Tlb,
    l2: Tlb,
    /// Fully-departed entries awaiting collection by the scheme for
    /// TLB-directory maintenance.
    departures: Vec<TlbEntry>,
    /// Stats: hits at each level and misses.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that hit L2).
    pub l2_hits: u64,
    /// Full misses (walks).
    pub misses: u64,
}

impl TlbHierarchy {
    /// Build a hierarchy from `cfg`.
    pub fn new(cfg: TlbConfig) -> Self {
        TlbHierarchy {
            l1: Tlb::new(cfg.l1_entries),
            l2: Tlb::new(cfg.l2_entries),
            cfg,
            departures: Vec::new(),
            l1_hits: 0,
            l2_hits: 0,
            misses: 0,
        }
    }

    /// Configuration in use.
    pub fn cfg(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Look up `vpn` across both levels, promoting L2 hits into L1.
    pub fn lookup(&mut self, vpn: Vpn) -> TlbLookup {
        if let Some(entry) = self.l1.lookup(vpn) {
            self.l1_hits += 1;
            return TlbLookup::Hit {
                entry,
                latency: self.cfg.l1_latency,
            };
        }
        if let Some(entry) = self.l2.lookup(vpn) {
            self.l2_hits += 1;
            // Promote; inclusive, so the L1 victim stays in L2.
            self.l1.insert(entry);
            return TlbLookup::Hit {
                entry,
                latency: self.cfg.l1_latency + self.cfg.l2_latency,
            };
        }
        self.misses += 1;
        TlbLookup::Miss {
            latency: self.cfg.l1_latency + self.cfg.l2_latency,
        }
    }

    /// Install a translation after a walk. Entries pushed fully out of
    /// the hierarchy are queued for
    /// [`take_departures`](TlbHierarchy::take_departures).
    pub fn insert(&mut self, entry: TlbEntry) {
        self.l1.insert(entry);
        if let Some(victim) = self.l2.insert(entry) {
            // Inclusive hierarchy: remove the L1 copy too.
            self.l1.invalidate(victim.vpn);
            self.departures.push(victim);
        }
    }

    /// Whether `vpn`'s translation is resident anywhere in the
    /// hierarchy (what the TLB directory tracks).
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.l2.contains(vpn) || self.l1.contains(vpn)
    }

    /// Update a resident translation in both levels (PTE change
    /// without shootdown, e.g. the NOMAD tag-miss handler rewriting
    /// PFN → CFN).
    pub fn update(&mut self, vpn: Vpn, frame: FrameKind) {
        self.l1.update(vpn, |e| e.frame = frame);
        self.l2.update(vpn, |e| e.frame = frame);
    }

    /// Shoot down `vpn`; returns whether it was resident.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let in_l1 = self.l1.invalidate(vpn).is_some();
        match self.l2.invalidate(vpn) {
            Some(e) => {
                self.departures.push(e);
                true
            }
            None => in_l1,
        }
    }

    /// Drain entries that fully left the hierarchy since the last call;
    /// the scheme clears their TLB-directory bits.
    pub fn take_departures(&mut self) -> Vec<TlbEntry> {
        std::mem::take(&mut self.departures)
    }

    /// Page-table-walk latency of this hierarchy's walker.
    pub fn walk_latency(&self) -> Cycle {
        self.cfg.walk_latency
    }
}

impl NextActivity for TlbHierarchy {
    /// TLBs have no clocked state at all — every lookup, insert, and
    /// shootdown happens synchronously inside someone else's cycle —
    /// so they never request a wake-up.
    fn next_activity_at(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_types::Pfn;

    fn entry(vpn: u64) -> TlbEntry {
        TlbEntry {
            vpn: Vpn(vpn),
            frame: FrameKind::Phys(Pfn(vpn + 1000)),
            noncacheable: false,
        }
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut t = Tlb::new(2);
        assert!(t.insert(entry(1)).is_none());
        assert!(t.insert(entry(2)).is_none());
        t.lookup(Vpn(1)); // 2 becomes LRU
        let v = t.insert(entry(3)).expect("eviction");
        assert_eq!(v.vpn, Vpn(2));
        assert!(t.contains(Vpn(1)) && t.contains(Vpn(3)));
    }

    #[test]
    fn hierarchy_promotion_and_latencies() {
        let cfg = TlbConfig {
            l1_entries: 1,
            l2_entries: 4,
            ..TlbConfig::default()
        };
        let mut h = TlbHierarchy::new(cfg);
        h.insert(entry(1));
        h.insert(entry(2)); // pushes 1 out of L1 (still in L2)
        match h.lookup(Vpn(1)) {
            TlbLookup::Hit { latency, .. } => {
                assert_eq!(latency, cfg.l1_latency + cfg.l2_latency)
            }
            _ => panic!("expected L2 hit"),
        }
        // Now promoted into L1.
        match h.lookup(Vpn(1)) {
            TlbLookup::Hit { latency, .. } => assert_eq!(latency, cfg.l1_latency),
            _ => panic!("expected L1 hit"),
        }
        assert_eq!(h.l1_hits, 1);
        assert_eq!(h.l2_hits, 1);
    }

    #[test]
    fn full_departure_reported_once() {
        let cfg = TlbConfig {
            l1_entries: 1,
            l2_entries: 2,
            ..TlbConfig::default()
        };
        let mut h = TlbHierarchy::new(cfg);
        h.insert(entry(1));
        h.insert(entry(2));
        h.insert(entry(3)); // L2 evicts LRU (1)
        let departed = h.take_departures();
        assert_eq!(departed.len(), 1);
        assert_eq!(departed[0].vpn, Vpn(1));
        assert!(!h.contains(Vpn(1)));
        assert!(h.take_departures().is_empty(), "drained");
    }

    #[test]
    fn miss_counts_and_latency() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        match h.lookup(Vpn(9)) {
            TlbLookup::Miss { latency } => assert_eq!(latency, 10),
            _ => panic!("expected miss"),
        }
        assert_eq!(h.misses, 1);
    }

    #[test]
    fn update_propagates_to_both_levels() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        h.insert(entry(5));
        h.update(Vpn(5), FrameKind::Phys(Pfn(777)));
        match h.lookup(Vpn(5)) {
            TlbLookup::Hit { entry, .. } => {
                assert_eq!(entry.frame, FrameKind::Phys(Pfn(777)))
            }
            _ => panic!("expected hit"),
        }
    }

    #[test]
    fn invalidate_reports_departure() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        h.insert(entry(4));
        assert!(h.invalidate(Vpn(4)));
        assert!(!h.contains(Vpn(4)));
        assert_eq!(h.take_departures().len(), 1);
        assert!(!h.invalidate(Vpn(4)));
    }

    /// The arena'd TLB behaves identically to a naive ordered-list LRU
    /// over a seeded random op stream (lookup/insert/invalidate),
    /// including victim identity.
    #[test]
    fn arena_tlb_matches_naive_lru() {
        // Naive reference: most-recent at the back.
        struct Naive {
            cap: usize,
            order: Vec<TlbEntry>,
        }
        impl Naive {
            fn lookup(&mut self, vpn: Vpn) -> Option<TlbEntry> {
                let pos = self.order.iter().position(|e| e.vpn == vpn)?;
                let e = self.order.remove(pos);
                self.order.push(e);
                Some(e)
            }
            fn insert(&mut self, entry: TlbEntry) -> Option<TlbEntry> {
                if let Some(pos) = self.order.iter().position(|e| e.vpn == entry.vpn) {
                    self.order.remove(pos);
                    self.order.push(entry);
                    return None;
                }
                self.order.push(entry);
                if self.order.len() > self.cap {
                    Some(self.order.remove(0))
                } else {
                    None
                }
            }
            fn invalidate(&mut self, vpn: Vpn) -> Option<TlbEntry> {
                let pos = self.order.iter().position(|e| e.vpn == vpn)?;
                Some(self.order.remove(pos))
            }
        }

        let mut state = 7u64;
        let mut rng = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for cap in [1usize, 2, 7, 64] {
            let mut t = Tlb::new(cap);
            let mut n = Naive {
                cap,
                order: Vec::new(),
            };
            for _ in 0..3000 {
                let vpn = rng() % (cap as u64 * 2 + 1);
                match rng() % 4 {
                    0 => assert_eq!(t.lookup(Vpn(vpn)), n.lookup(Vpn(vpn))),
                    1 | 2 => assert_eq!(t.insert(entry(vpn)), n.insert(entry(vpn))),
                    _ => assert_eq!(t.invalidate(Vpn(vpn)), n.invalidate(Vpn(vpn))),
                }
                assert_eq!(t.len(), n.order.len());
            }
        }
    }
}
