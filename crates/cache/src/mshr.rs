//! Miss status/information holding registers (MSHRs).
//!
//! MSHRs are what make a cache *non-blocking* (Kroft '81): each primary
//! miss allocates an entry that traces the outstanding line fetch, and
//! subsequent (secondary) misses to the same line merge into the entry
//! instead of stalling the cache. The NOMAD paper's PCSHRs apply the
//! same principle at page granularity; this SRAM-level implementation
//! is the baseline the back-end is architected after.
//!
//! # Layout
//!
//! The file is a fixed arena of parallel arrays — per-slot keys, target
//! lists and a packed dirty-bit word — plus a `u64`-word occupancy
//! bit-vector (`live`). The hot [`MshrFile::find`] scan walks the set
//! bits of `live` with mask-and-trailing-zeros and compares packed
//! keys, never touching the target lists. Target `Vec`s are recycled in
//! place on reallocation, so a slot's list keeps its capacity across
//! uses and steady-state misses allocate nothing.
//!
//! Free-slot selection stays an explicit LIFO stack: the token an
//! allocation yields is architecturally visible (it becomes the
//! downstream fetch's `ReqId`), and the stack preserves the exact token
//! order of the original `Vec<Option<Entry>>` implementation — pinned
//! by the differential test in `tests/mshr_differential.rs`.

use nomad_types::{MemReq, ReqId};

/// Index of an allocated MSHR entry; used as the `token` of the
/// downstream fetch so the response can be routed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MshrToken(pub usize);

impl From<MshrToken> for ReqId {
    fn from(t: MshrToken) -> ReqId {
        ReqId(t.0 as u64)
    }
}

/// Why an allocation or merge attempt was refused; the cache must stall
/// the offending request and retry later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrReject {
    /// All entries are in use (primary-miss structural hazard).
    Full,
    /// The matching entry exists but its target list is full
    /// (secondary-miss structural hazard).
    TargetsFull,
}

impl core::fmt::Display for MshrReject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MshrReject::Full => f.write_str("all MSHRs in use"),
            MshrReject::TargetsFull => f.write_str("MSHR target list full"),
        }
    }
}

impl std::error::Error for MshrReject {}

/// A bounded file of MSHR entries keyed by block key, stored as a flat
/// arena with a `u64` occupancy bit-vector (see the module docs).
#[derive(Debug)]
pub struct MshrFile {
    /// Per-slot block keys; meaningful only where the `live` bit is set.
    keys: Vec<u64>,
    /// Per-slot merged-target lists; cleared (not dropped) on free so
    /// capacity is retained across reuse.
    targets: Vec<Vec<MemReq>>,
    /// Packed per-slot "fills dirty" flags, one bit per slot.
    fills_dirty: Vec<u64>,
    /// Occupancy bit-vector: bit `i % 64` of word `i / 64` is set while
    /// slot `i` is allocated.
    live: Vec<u64>,
    /// LIFO free stack; preserves the original token allocation order.
    free: Vec<usize>,
    max_targets: usize,
    in_use: usize,
}

/// Outcome of [`MshrFile::allocate_or_merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// A new entry was allocated — the caller must issue the line fetch
    /// downstream using this token.
    Primary(MshrToken),
    /// Merged into an existing in-flight entry — no fetch needed.
    Secondary(MshrToken),
}

impl MshrFile {
    /// A file of `entries` MSHRs, each merging at most `max_targets`
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(entries: usize, max_targets: usize) -> Self {
        assert!(entries > 0 && max_targets > 0);
        MshrFile {
            keys: vec![0; entries],
            targets: (0..entries).map(|_| Vec::new()).collect(),
            fills_dirty: vec![0; entries.div_ceil(64)],
            live: vec![0; entries.div_ceil(64)],
            free: (0..entries).rev().collect(),
            max_targets,
            in_use: 0,
        }
    }

    /// Number of entries currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        self.live
            .get(slot / 64)
            .is_some_and(|w| w & (1u64 << (slot % 64)) != 0)
    }

    /// Find the entry tracking `key`, if any: a mask-and-trailing-zeros
    /// scan over the occupancy words against the packed key array.
    pub fn find(&self, key: u64) -> Option<MshrToken> {
        for (wi, &word) in self.live.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let slot = wi * 64 + w.trailing_zeros() as usize;
                if self.keys[slot] == key {
                    return Some(MshrToken(slot));
                }
                w &= w - 1;
            }
        }
        None
    }

    /// Allocate an entry for `req`'s block (primary miss) or merge it
    /// into an existing one (secondary miss).
    ///
    /// # Errors
    ///
    /// [`MshrReject::Full`] when no entry is free for a primary miss,
    /// [`MshrReject::TargetsFull`] when a secondary miss cannot merge.
    pub fn allocate_or_merge(&mut self, key: u64, req: MemReq) -> Result<MshrAlloc, MshrReject> {
        if let Some(tok) = self.find(key) {
            if self.targets[tok.0].len() >= self.max_targets {
                return Err(MshrReject::TargetsFull);
            }
            if req.kind.is_write() {
                self.fills_dirty[tok.0 / 64] |= 1u64 << (tok.0 % 64);
            }
            self.targets[tok.0].push(req);
            return Ok(MshrAlloc::Secondary(tok));
        }
        let idx = self.free.pop().ok_or(MshrReject::Full)?;
        self.in_use += 1;
        self.live[idx / 64] |= 1u64 << (idx % 64);
        if req.kind.is_write() {
            self.fills_dirty[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.fills_dirty[idx / 64] &= !(1u64 << (idx % 64));
        }
        self.keys[idx] = key;
        debug_assert!(self.targets[idx].is_empty());
        self.targets[idx].push(req);
        Ok(MshrAlloc::Primary(MshrToken(idx)))
    }

    /// Complete the fetch for `token`: frees the entry, appends the
    /// merged target requests to `out` and returns the block key plus
    /// whether the filled line is dirty. The slot's target list keeps
    /// its capacity for the next allocation.
    ///
    /// # Panics
    ///
    /// Panics if `token` does not name an allocated entry (a protocol
    /// bug in the caller).
    pub fn complete_into(&mut self, token: MshrToken, out: &mut Vec<MemReq>) -> (u64, bool) {
        assert!(self.is_live(token.0), "MSHR token must be live");
        self.live[token.0 / 64] &= !(1u64 << (token.0 % 64));
        self.free.push(token.0);
        self.in_use -= 1;
        out.append(&mut self.targets[token.0]);
        let dirty = self.fills_dirty[token.0 / 64] & (1u64 << (token.0 % 64)) != 0;
        (self.keys[token.0], dirty)
    }

    /// [`complete_into`](Self::complete_into) returning a fresh target
    /// list (convenience for callers without a scratch buffer).
    ///
    /// # Panics
    ///
    /// Panics if `token` does not name an allocated entry.
    pub fn complete(&mut self, token: MshrToken) -> (u64, Vec<MemReq>, bool) {
        let mut targets = Vec::new();
        let (key, dirty) = self.complete_into(token, &mut targets);
        (key, targets, dirty)
    }

    /// Key being fetched by `token`, if live.
    pub fn key_of(&self, token: MshrToken) -> Option<u64> {
        if self.is_live(token.0) {
            Some(self.keys[token.0])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_types::{AccessKind, BlockAddr, MemTarget};

    fn req(token: u64, kind: AccessKind) -> MemReq {
        MemReq {
            token: ReqId(token),
            addr: BlockAddr(token),
            target: MemTarget::OffPackage,
            kind,
            class: nomad_types::TrafficClass::DemandRead,
            core: 0,
            wants_response: true,
        }
    }

    #[test]
    fn primary_then_secondary() {
        let mut m = MshrFile::new(2, 4);
        let a = m.allocate_or_merge(10, req(1, AccessKind::Read)).unwrap();
        assert!(matches!(a, MshrAlloc::Primary(_)));
        let b = m.allocate_or_merge(10, req(2, AccessKind::Read)).unwrap();
        assert!(matches!(b, MshrAlloc::Secondary(_)));
        assert_eq!(m.in_use(), 1);
        let tok = match a {
            MshrAlloc::Primary(t) => t,
            _ => unreachable!(),
        };
        let (key, targets, dirty) = m.complete(tok);
        assert_eq!(key, 10);
        assert_eq!(targets.len(), 2);
        assert!(!dirty);
        assert_eq!(m.in_use(), 0);
    }

    #[test]
    fn write_target_fills_dirty() {
        let mut m = MshrFile::new(1, 4);
        let a = m.allocate_or_merge(5, req(1, AccessKind::Read)).unwrap();
        m.allocate_or_merge(5, req(2, AccessKind::Write)).unwrap();
        let tok = match a {
            MshrAlloc::Primary(t) => t,
            _ => unreachable!(),
        };
        let (_, _, dirty) = m.complete(tok);
        assert!(dirty);
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(1, 4);
        m.allocate_or_merge(1, req(1, AccessKind::Read)).unwrap();
        assert_eq!(
            m.allocate_or_merge(2, req(2, AccessKind::Read)),
            Err(MshrReject::Full)
        );
    }

    #[test]
    fn full_targets_reject() {
        let mut m = MshrFile::new(2, 1);
        m.allocate_or_merge(1, req(1, AccessKind::Read)).unwrap();
        assert_eq!(
            m.allocate_or_merge(1, req(2, AccessKind::Read)),
            Err(MshrReject::TargetsFull)
        );
    }

    #[test]
    fn tokens_are_reusable_after_complete() {
        let mut m = MshrFile::new(1, 2);
        let a = m.allocate_or_merge(1, req(1, AccessKind::Read)).unwrap();
        let tok = match a {
            MshrAlloc::Primary(t) => t,
            _ => unreachable!(),
        };
        m.complete(tok);
        assert!(m.allocate_or_merge(2, req(2, AccessKind::Read)).is_ok());
    }

    #[test]
    #[should_panic(expected = "live")]
    fn completing_dead_token_panics() {
        let mut m = MshrFile::new(2, 2);
        m.complete(MshrToken(0));
    }

    /// A slot reused after completion must not leak the previous
    /// occupant's dirty flag or targets.
    #[test]
    fn recycled_slot_state_is_clean() {
        let mut m = MshrFile::new(1, 4);
        let a = m.allocate_or_merge(1, req(1, AccessKind::Write)).unwrap();
        let tok = match a {
            MshrAlloc::Primary(t) => t,
            _ => unreachable!(),
        };
        let (_, targets, dirty) = m.complete(tok);
        assert!(dirty);
        assert_eq!(targets.len(), 1);
        // Reuse the slot with a read-only miss.
        let b = m.allocate_or_merge(2, req(2, AccessKind::Read)).unwrap();
        let tok = match b {
            MshrAlloc::Primary(t) => t,
            _ => unreachable!(),
        };
        let (key, targets, dirty) = m.complete(tok);
        assert_eq!(key, 2);
        assert_eq!(targets.len(), 1);
        assert!(!dirty, "dirty bit must not leak across reuse");
    }

    /// A file wider than one occupancy word scans correctly.
    #[test]
    fn find_scans_past_first_word() {
        let mut m = MshrFile::new(130, 2);
        let mut last = None;
        for k in 0..130u64 {
            match m.allocate_or_merge(1000 + k, req(k, AccessKind::Read)) {
                Ok(MshrAlloc::Primary(t)) => last = Some((t, 1000 + k)),
                other => panic!("unexpected {other:?}"),
            }
        }
        let (tok, key) = last.unwrap();
        assert_eq!(tok.0, 129, "stack allocates slots in order");
        assert_eq!(m.find(key), Some(tok));
        assert_eq!(m.key_of(tok), Some(key));
        assert_eq!(m.find(99_999), None);
    }
}
