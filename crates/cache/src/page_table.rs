//! Page tables with the NOMAD PTE extension.
//!
//! A [`Pte`] holds either a physical frame number (uncached page) or a
//! cache frame number (page resident in the DRAM cache) — the central
//! trick of OS-managed DRAM caches: the DC tag lives in the PTE and is
//! delivered to the core through the ordinary TLB path. The paper's
//! `cached` (C) and `non-cacheable` (NC) bits are modeled directly.
//!
//! The page table also keeps the reverse mapping (PFN → VPNs) that
//! Algorithm 2 uses to restore PTEs when evicting cache frames, and it
//! performs first-touch physical-frame allocation for the synthetic
//! workloads.

use crate::tlb::TlbEntry;
use nomad_types::{Cfn, IntMap, Pfn, Vpn};
use serde::{Deserialize, Serialize};

/// What a PTE currently points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Off-package physical frame (page not in the DRAM cache).
    Phys(Pfn),
    /// On-package cache frame (page cached; the CFN is the DC tag).
    Cache(Cfn),
}

/// A page-table entry with the NOMAD extension bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pte {
    /// Current frame mapping.
    pub frame: FrameKind,
    /// NC bit: the page must never enter the DRAM cache.
    pub noncacheable: bool,
    /// Architectural dirty bit (set on write accesses).
    pub dirty: bool,
}

impl Pte {
    /// C bit: whether the page is currently in the DRAM cache.
    pub fn cached(&self) -> bool {
        matches!(self.frame, FrameKind::Cache(_))
    }

    /// A DC *tag miss* in the paper's sense: cacheable but not cached.
    pub fn tag_miss(&self) -> bool {
        !self.noncacheable && !self.cached()
    }

    /// The TLB entry this PTE fills for `vpn`.
    pub fn tlb_entry(&self, vpn: Vpn) -> TlbEntry {
        TlbEntry {
            vpn,
            frame: self.frame,
            noncacheable: self.noncacheable,
        }
    }
}

/// A process page table plus reverse mappings and a first-touch
/// physical-frame allocator.
#[derive(Debug, Default)]
pub struct PageTable {
    ptes: IntMap<u64, Pte>,
    /// PFN → the VPN whose first touch allocated it. PFNs are handed out
    /// densely from 0, so the PFN is the index.
    rmap: Vec<u64>,
    /// PFN → the further VPNs [`alias`](Self::alias)ed to it (shared
    /// pages), in aliasing order.
    aliases: IntMap<u64, Vec<u64>>,
    next_pfn: u64,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.ptes.len()
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.ptes.is_empty()
    }

    /// The PTE for `vpn`, allocating a fresh physical frame on first
    /// touch (demand paging; the page-fault cost itself is outside the
    /// paper's model, which fast-forwards past warm-up).
    pub fn pte_mut(&mut self, vpn: Vpn) -> &mut Pte {
        let next_pfn = &mut self.next_pfn;
        let rmap = &mut self.rmap;
        self.ptes.entry(vpn.raw()).or_insert_with(|| {
            let pfn = Pfn(*next_pfn);
            *next_pfn += 1;
            rmap.push(vpn.raw());
            Pte {
                frame: FrameKind::Phys(pfn),
                noncacheable: false,
                dirty: false,
            }
        })
    }

    /// A conventional page walk: `vpn`'s PTE (allocated on first
    /// touch), marked dirty on a write, as the TLB entry it fills.
    pub fn walk(&mut self, vpn: Vpn, write: bool) -> TlbEntry {
        let pte = self.pte_mut(vpn);
        pte.dirty |= write;
        pte.tlb_entry(vpn)
    }

    /// Read-only PTE lookup (no allocation).
    pub fn get(&self, vpn: Vpn) -> Option<&Pte> {
        self.ptes.get(&vpn.raw())
    }

    /// Map `vpn` as an alias of the page already mapped at `pfn`
    /// (shared page). Returns `false` if `pfn` was never allocated.
    pub fn alias(&mut self, vpn: Vpn, pfn: Pfn) -> bool {
        let Some(&first) = self.rmap.get(pfn.raw() as usize) else {
            return false;
        };
        if first != vpn.raw() {
            let extra = self.aliases.entry(pfn.raw()).or_default();
            if !extra.contains(&vpn.raw()) {
                extra.push(vpn.raw());
            }
        }
        self.ptes.insert(
            vpn.raw(),
            Pte {
                frame: FrameKind::Phys(pfn),
                noncacheable: false,
                dirty: false,
            },
        );
        true
    }

    /// Mark `vpn` non-cacheable (NC bit). Allocates on first touch.
    pub fn set_noncacheable(&mut self, vpn: Vpn, nc: bool) {
        self.pte_mut(vpn).noncacheable = nc;
    }

    /// All VPNs mapping `pfn` (the reverse mapping of Algorithm 2,
    /// lines 12–15): the first-touch VPN, then any aliases in aliasing
    /// order. Empty if the PFN was never allocated.
    pub fn reverse_map(&self, pfn: Pfn) -> impl Iterator<Item = u64> + '_ {
        reverse_map(&self.rmap, &self.aliases, pfn)
    }

    /// Point every PTE mapping `pfn` at cache frame `cfn` (cache-frame
    /// allocation for a — possibly shared — page). Returns the number
    /// of PTEs updated.
    pub fn cache_all(&mut self, pfn: Pfn, cfn: Cfn) -> usize {
        self.update_all(pfn, |pte| pte.frame = FrameKind::Cache(cfn))
    }

    /// Restore every PTE mapping `pfn` back to the physical frame
    /// (cache-frame eviction). Returns the number of PTEs updated.
    pub fn uncache_all(&mut self, pfn: Pfn) -> usize {
        self.update_all(pfn, |pte| {
            pte.frame = FrameKind::Phys(pfn);
            pte.dirty = false;
        })
    }

    /// Apply `f` to every PTE mapping `pfn`; returns how many VPNs map
    /// it.
    fn update_all(&mut self, pfn: Pfn, mut f: impl FnMut(&mut Pte)) -> usize {
        let mut n = 0;
        for v in reverse_map(&self.rmap, &self.aliases, pfn) {
            if let Some(pte) = self.ptes.get_mut(&v) {
                f(pte);
            }
            n += 1;
        }
        n
    }

    /// Number of distinct physical frames allocated so far (the
    /// footprint in pages).
    pub fn allocated_frames(&self) -> u64 {
        self.next_pfn
    }
}

/// [`PageTable::reverse_map`] over the two reverse-map fields, so
/// callers holding `ptes` mutably can walk it too.
fn reverse_map<'a>(
    rmap: &'a [u64],
    aliases: &'a IntMap<u64, Vec<u64>>,
    pfn: Pfn,
) -> impl Iterator<Item = u64> + 'a {
    let first = rmap.get(pfn.raw() as usize).copied();
    let extra = first.and_then(|_| aliases.get(&pfn.raw()));
    first
        .into_iter()
        .chain(extra.into_iter().flatten().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_allocates_sequential_pfns() {
        let mut pt = PageTable::new();
        let a = *pt.pte_mut(Vpn(100));
        let b = *pt.pte_mut(Vpn(200));
        let a2 = *pt.pte_mut(Vpn(100));
        assert_eq!(a.frame, FrameKind::Phys(Pfn(0)));
        assert_eq!(b.frame, FrameKind::Phys(Pfn(1)));
        assert_eq!(a, a2, "second touch must not reallocate");
        assert_eq!(pt.allocated_frames(), 2);
    }

    #[test]
    fn tag_miss_semantics() {
        let pte = Pte {
            frame: FrameKind::Phys(Pfn(3)),
            noncacheable: false,
            dirty: false,
        };
        assert!(pte.tag_miss());
        let cached = Pte {
            frame: FrameKind::Cache(Cfn(9)),
            ..pte
        };
        assert!(!cached.tag_miss());
        assert!(cached.cached());
        let nc = Pte {
            noncacheable: true,
            ..pte
        };
        assert!(!nc.tag_miss(), "non-cacheable pages never tag-miss");
    }

    #[test]
    fn cache_and_uncache_round_trip() {
        let mut pt = PageTable::new();
        pt.pte_mut(Vpn(7));
        assert_eq!(pt.cache_all(Pfn(0), Cfn(42)), 1);
        assert_eq!(pt.get(Vpn(7)).unwrap().frame, FrameKind::Cache(Cfn(42)));
        assert_eq!(pt.uncache_all(Pfn(0)), 1);
        assert_eq!(pt.get(Vpn(7)).unwrap().frame, FrameKind::Phys(Pfn(0)));
    }

    #[test]
    fn shared_pages_update_all_ptes() {
        let mut pt = PageTable::new();
        pt.pte_mut(Vpn(1)); // pfn 0
        assert!(pt.alias(Vpn(2), Pfn(0)));
        // Re-aliasing a mapped VPN adds nothing.
        assert!(pt.alias(Vpn(2), Pfn(0)));
        assert!(pt.alias(Vpn(1), Pfn(0)));
        assert_eq!(pt.reverse_map(Pfn(0)).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(pt.reverse_map(Pfn(1)).count(), 0);
        assert_eq!(pt.cache_all(Pfn(0), Cfn(5)), 2);
        assert_eq!(pt.get(Vpn(1)).unwrap().frame, FrameKind::Cache(Cfn(5)));
        assert_eq!(pt.get(Vpn(2)).unwrap().frame, FrameKind::Cache(Cfn(5)));
        assert_eq!(pt.uncache_all(Pfn(0)), 2);
    }

    #[test]
    fn alias_to_unallocated_pfn_fails() {
        let mut pt = PageTable::new();
        assert!(!pt.alias(Vpn(9), Pfn(77)));
    }

    #[test]
    fn noncacheable_flag() {
        let mut pt = PageTable::new();
        pt.set_noncacheable(Vpn(4), true);
        assert!(pt.get(Vpn(4)).unwrap().noncacheable);
        assert!(!pt.get(Vpn(4)).unwrap().tag_miss());
    }
}
