//! Cache page descriptors and the circular free queue (paper Figs. 4–5).
//!
//! OS-managed schemes treat the on-package DRAM as an array of 4 KiB
//! *cache frames* managed FIFO: a DC tag-miss handler allocates frames
//! from the `head` of a circular queue, and a background eviction
//! daemon reclaims them from the `tail`. Each frame has a cache page
//! descriptor ([`Cpd`]) holding its validity, dirty-in-cache bit, the
//! original PFN (for PTE restoration) and a TLB directory used to skip
//! frames whose translations are TLB-resident — avoiding TLB
//! shootdowns entirely.
//!
//! The descriptor array is stored column-wise: `valid`, `dirty` and
//! "any TLB-directory bit set" are packed one bit per frame into `u64`
//! words, with the PFNs and full per-frame TLB-directory words in flat
//! arrays beside them. Head allocation probes and tail eviction scans
//! — which walk thousands of frames when the cache runs full or empty
//! — become word-at-a-time bit scans instead of per-frame struct loads.
//! [`Cpd`] survives as the by-value snapshot type the scans assemble on
//! demand.

use nomad_types::{Cfn, Pfn};
use serde::{Deserialize, Serialize};

/// Cache page descriptor (paper Fig. 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cpd {
    /// V: frame holds a valid mapping.
    pub valid: bool,
    /// DC: dirty-in-cache — a writeback is required on eviction.
    pub dirty: bool,
    /// PFN of the physical frame mapped here (for reclamation).
    pub pfn: Pfn,
    /// TLB directory: bitmask of cores whose TLBs hold this frame's
    /// translation.
    pub tlb_dir: u64,
}

/// A frame reclaimed by the eviction daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictCandidate {
    /// Reclaimed cache frame.
    pub cfn: Cfn,
    /// Its descriptor at eviction time (PFN and dirty bit drive the
    /// PTE restoration and writeback).
    pub cpd: Cpd,
}

/// The CPD array plus circular free-queue head/tail (paper Fig. 5),
/// stored column-wise (see the module docs).
#[derive(Debug, Clone)]
pub struct CacheFrames {
    /// Packed validity, one bit per frame; padding bits stay clear.
    valid: Vec<u64>,
    /// Packed dirty-in-cache bits; meaningful only where `valid`.
    dirty: Vec<u64>,
    /// Packed "some TLB holds this translation" bits — the word-scan
    /// mirror of `tlb_dirs[i] != 0`.
    tlb_resident_bits: Vec<u64>,
    /// Full per-frame TLB-directory words.
    tlb_dirs: Vec<u64>,
    /// Mapped PFN per frame; meaningful only where `valid`.
    pfns: Vec<Pfn>,
    frames: usize,
    head: usize,
    tail: usize,
    num_free: usize,
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1u64 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

impl CacheFrames {
    /// A DRAM cache of `frames` 4 KiB frames, all free.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "cache must have at least one frame");
        let words = frames.div_ceil(64);
        CacheFrames {
            valid: vec![0; words],
            dirty: vec![0; words],
            tlb_resident_bits: vec![0; words],
            tlb_dirs: vec![0; frames],
            pfns: vec![Pfn(0); frames],
            frames,
            head: 0,
            tail: 0,
            num_free: frames,
        }
    }

    /// Mask of in-range frame bits for word `wi` (all ones except in a
    /// partial last word).
    #[inline]
    fn word_mask(&self, wi: usize) -> u64 {
        let rem = self.frames - wi * 64;
        if rem >= 64 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Total frames.
    pub fn capacity(&self) -> usize {
        self.frames
    }

    /// Currently free frames.
    pub fn num_free(&self) -> usize {
        self.num_free
    }

    /// The descriptor of `cfn`, assembled from the packed columns.
    ///
    /// # Panics
    ///
    /// Panics if `cfn` is out of range.
    pub fn cpd(&self, cfn: Cfn) -> Cpd {
        let i = cfn.raw() as usize;
        assert!(i < self.frames, "cfn out of range");
        Cpd {
            valid: bit_get(&self.valid, i),
            dirty: bit_get(&self.dirty, i),
            pfn: self.pfns[i],
            tlb_dir: self.tlb_dirs[i],
        }
    }

    /// Allocate a frame for `pfn` from the head of the free queue
    /// (Algorithm 1, lines 2–10). Returns the frame and the number of
    /// occupied frames the head had to skip (each probe costs a CPD
    /// read on the handler's critical path). `None` when no frame is
    /// free.
    pub fn allocate(&mut self, pfn: Pfn) -> Option<(Cfn, usize)> {
        if self.num_free == 0 {
            return None;
        }
        let n = self.frames;
        let start = self.head;
        // First clear valid bit at or after `head`, wrapping: scan the
        // inverted valid words (in-range bits only). Guaranteed to
        // terminate because num_free > 0 means a clear bit exists.
        let idx = {
            let mut wi = start / 64;
            let mut w = !self.valid[wi] & self.word_mask(wi) & (u64::MAX << (start % 64));
            loop {
                if w != 0 {
                    break wi * 64 + w.trailing_zeros() as usize;
                }
                wi += 1;
                if wi == self.valid.len() {
                    wi = 0;
                }
                w = !self.valid[wi] & self.word_mask(wi);
            }
        };
        // Every frame between the old head and the allocated one was
        // occupied, so the probe count is the wrapped distance.
        let probes = if idx >= start {
            idx - start
        } else {
            idx + n - start
        };
        bit_set(&mut self.valid, idx);
        bit_clear(&mut self.dirty, idx);
        bit_clear(&mut self.tlb_resident_bits, idx);
        self.tlb_dirs[idx] = 0;
        self.pfns[idx] = pfn;
        self.head = if idx + 1 == n { 0 } else { idx + 1 };
        self.num_free -= 1;
        Some((Cfn(idx as u64), probes))
    }

    /// Distance from `from` (exclusive of nothing — `from` itself may
    /// match) to the next valid frame, wrapping; `None` when no frame
    /// is valid.
    fn next_valid_distance(&self, from: usize) -> Option<usize> {
        let n = self.frames;
        let mut wi = from / 64;
        let mut w = self.valid[wi] & (u64::MAX << (from % 64));
        let mut wrapped = false;
        loop {
            if w != 0 {
                let idx = wi * 64 + w.trailing_zeros() as usize;
                let d = if wrapped || idx >= from {
                    if idx >= from {
                        idx - from
                    } else {
                        idx + n - from
                    }
                } else {
                    idx - from
                };
                return Some(d);
            }
            wi += 1;
            if wi == self.valid.len() {
                if wrapped {
                    return None;
                }
                wi = 0;
                wrapped = true;
            }
            w = self.valid[wi];
            if wrapped && wi == from / 64 {
                // Final revisit of the start word: bits below `from`.
                w &= !(u64::MAX << (from % 64));
                if w == 0 {
                    return None;
                }
            }
        }
    }

    /// Reclaim up to `n` frames from the tail (Algorithm 2), appending
    /// them to `out` so a per-tick eviction daemon can reuse one
    /// buffer. A frame whose translation is TLB-resident is *skipped*
    /// (it stays valid and the tail passes over it, avoiding a
    /// shootdown) unless `force_tlb`, and a frame for which `busy`
    /// returns `true` (e.g. one with an in-flight page copy traced by a
    /// PCSHR) is always skipped; a skip consumes an iteration, while
    /// already-free frames are passed over without consuming one.
    ///
    /// `force_tlb` is the last-resort path for when the DRAM cache is
    /// smaller than the combined TLB reach and shootdown avoidance
    /// would deadlock allocation: the caller must then issue TLB
    /// shootdowns for the candidates whose `cpd.tlb_dir` is set.
    pub fn evict_batch(
        &mut self,
        n: usize,
        force_tlb: bool,
        mut busy: impl FnMut(Cfn) -> bool,
        out: &mut Vec<EvictCandidate>,
    ) {
        let len = self.frames;
        let mut iterations = 0;
        let mut scanned = 0;
        while iterations < n && scanned < len {
            if !bit_get(&self.valid, self.tail) {
                // Fast-forward over free frames: the dense scan passed
                // each one without consuming an iteration. The jump
                // advances tail and the scan budget by the same count.
                let step = match self.next_valid_distance(self.tail) {
                    Some(d) => d.min(len - scanned),
                    None => len - scanned,
                };
                debug_assert!(step > 0);
                scanned += step;
                self.tail += step;
                if self.tail >= len {
                    self.tail -= len;
                }
                continue;
            }
            let idx = self.tail;
            scanned += 1;
            iterations += 1;
            self.tail = if idx + 1 == len { 0 } else { idx + 1 };
            let tlb_dir = self.tlb_dirs[idx];
            if (tlb_dir != 0 && !force_tlb) || busy(Cfn(idx as u64)) {
                // Translation still in some TLB (Algorithm 2 lines
                // 6–8), or a page copy is in flight: skip.
                continue;
            }
            let cpd = Cpd {
                valid: true,
                dirty: bit_get(&self.dirty, idx),
                pfn: self.pfns[idx],
                tlb_dir,
            };
            bit_clear(&mut self.valid, idx);
            bit_clear(&mut self.tlb_resident_bits, idx);
            self.tlb_dirs[idx] = 0;
            self.num_free += 1;
            out.push(EvictCandidate {
                cfn: Cfn(idx as u64),
                cpd,
            });
        }
    }

    /// Set the dirty-in-cache bit of `cfn` (on a write access).
    pub fn set_dirty(&mut self, cfn: Cfn) {
        bit_set(&mut self.dirty, cfn.raw() as usize);
    }

    /// Mark `core`'s TLBs as holding `cfn`'s translation.
    pub fn tlb_set(&mut self, cfn: Cfn, core: usize) {
        let i = cfn.raw() as usize;
        self.tlb_dirs[i] |= 1u64 << (core % 64);
        bit_set(&mut self.tlb_resident_bits, i);
    }

    /// Clear `core`'s TLB-directory bit for `cfn`.
    pub fn tlb_clear(&mut self, cfn: Cfn, core: usize) {
        let i = cfn.raw() as usize;
        self.tlb_dirs[i] &= !(1u64 << (core % 64));
        if self.tlb_dirs[i] == 0 {
            bit_clear(&mut self.tlb_resident_bits, i);
        }
    }

    /// Whether any core's TLB holds `cfn`'s translation.
    pub fn tlb_resident(&self, cfn: Cfn) -> bool {
        bit_get(&self.tlb_resident_bits, cfn.raw() as usize)
    }

    /// Occupied frames.
    pub fn occupancy(&self) -> usize {
        self.frames - self.num_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A plain batch: TLB-resident frames skipped, nothing busy.
    fn evict(f: &mut CacheFrames, n: usize) -> Vec<EvictCandidate> {
        let mut out = Vec::new();
        f.evict_batch(n, false, |_| false, &mut out);
        out
    }

    #[test]
    fn fifo_allocation_order() {
        let mut f = CacheFrames::new(4);
        let (a, p0) = f.allocate(Pfn(10)).unwrap();
        let (b, _) = f.allocate(Pfn(11)).unwrap();
        assert_eq!(a, Cfn(0));
        assert_eq!(b, Cfn(1));
        assert_eq!(p0, 0);
        assert_eq!(f.num_free(), 2);
        assert_eq!(f.cpd(a).pfn, Pfn(10));
    }

    #[test]
    fn eviction_is_fifo() {
        let mut f = CacheFrames::new(4);
        for i in 0..4 {
            f.allocate(Pfn(i)).unwrap();
        }
        assert!(f.allocate(Pfn(99)).is_none(), "cache full");
        let evicted = evict(&mut f, 2);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].cfn, Cfn(0));
        assert_eq!(evicted[0].cpd.pfn, Pfn(0));
        assert_eq!(evicted[1].cfn, Cfn(1));
        assert_eq!(f.num_free(), 2);
        // Next allocation reuses the reclaimed frames in order.
        let (c, _) = f.allocate(Pfn(99)).unwrap();
        assert_eq!(c, Cfn(0));
    }

    #[test]
    fn tlb_resident_frames_are_skipped() {
        let mut f = CacheFrames::new(4);
        for i in 0..4 {
            f.allocate(Pfn(i)).unwrap();
        }
        f.tlb_set(Cfn(0), 2);
        let evicted = evict(&mut f, 2);
        // Frame 0 skipped (consumes an iteration), frame 1 evicted.
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].cfn, Cfn(1));
        assert!(f.cpd(Cfn(0)).valid, "skipped frame stays valid");
        // Clearing the directory makes it reclaimable on a later pass.
        f.tlb_clear(Cfn(0), 2);
        let evicted = evict(&mut f, 4);
        assert!(evicted.iter().any(|e| e.cfn == Cfn(0)));
    }

    #[test]
    fn allocation_skips_survivor_frames() {
        let mut f = CacheFrames::new(4);
        for i in 0..4 {
            f.allocate(Pfn(i)).unwrap();
        }
        f.tlb_set(Cfn(0), 0);
        evict(&mut f, 4); // evicts 1,2,3; skips 0
        assert_eq!(f.num_free(), 3);
        // Head is at 0 (wrapped): allocation must skip the valid frame 0.
        let (c, probes) = f.allocate(Pfn(50)).unwrap();
        assert_eq!(c, Cfn(1));
        assert_eq!(probes, 1, "one occupied frame probed");
    }

    #[test]
    fn dirty_bit_round_trip() {
        let mut f = CacheFrames::new(2);
        let (a, _) = f.allocate(Pfn(1)).unwrap();
        assert!(!f.cpd(a).dirty);
        f.set_dirty(a);
        assert!(f.cpd(a).dirty);
        let e = evict(&mut f, 1);
        assert!(e[0].cpd.dirty);
    }

    #[test]
    fn evict_on_empty_cache_returns_nothing() {
        let mut f = CacheFrames::new(4);
        assert!(evict(&mut f, 4).is_empty());
    }

    #[test]
    fn evict_into_reuses_buffer_and_appends() {
        let mut f = CacheFrames::new(8);
        for i in 0..8 {
            f.allocate(Pfn(i)).unwrap();
        }
        let mut scratch = Vec::new();
        f.evict_batch(2, false, |_| false, &mut scratch);
        assert_eq!(scratch.len(), 2);
        scratch.clear();
        f.evict_batch(3, false, |_| false, &mut scratch);
        assert_eq!(scratch.len(), 3);
        assert_eq!(scratch[0].cfn, Cfn(2), "tail resumed where it left off");
    }

    /// The word-scan allocate/evict must agree with a naive per-frame
    /// model across odd sizes (partial last words) and many-word files.
    #[test]
    fn arena_matches_naive_model_across_sizes() {
        #[derive(Clone)]
        struct Naive {
            cpds: Vec<Cpd>,
            head: usize,
            tail: usize,
            num_free: usize,
        }
        impl Naive {
            fn allocate(&mut self, pfn: Pfn) -> Option<(Cfn, usize)> {
                if self.num_free == 0 {
                    return None;
                }
                let n = self.cpds.len();
                let mut probes = 0;
                while self.cpds[self.head].valid {
                    self.head = (self.head + 1) % n;
                    probes += 1;
                }
                let cfn = Cfn(self.head as u64);
                self.cpds[self.head] = Cpd {
                    valid: true,
                    dirty: false,
                    pfn,
                    tlb_dir: 0,
                };
                self.head = (self.head + 1) % n;
                self.num_free -= 1;
                Some((cfn, probes))
            }
            fn evict_batch(&mut self, n: usize, force_tlb: bool) -> Vec<EvictCandidate> {
                let len = self.cpds.len();
                let mut out = Vec::new();
                let (mut iterations, mut scanned) = (0, 0);
                while iterations < n && scanned < len {
                    let idx = self.tail;
                    scanned += 1;
                    let cpd = self.cpds[idx];
                    if !cpd.valid {
                        self.tail = (self.tail + 1) % len;
                        continue;
                    }
                    iterations += 1;
                    if cpd.tlb_dir != 0 && !force_tlb {
                        self.tail = (self.tail + 1) % len;
                        continue;
                    }
                    self.cpds[idx].valid = false;
                    self.cpds[idx].tlb_dir = 0;
                    self.num_free += 1;
                    self.tail = (self.tail + 1) % len;
                    out.push(EvictCandidate {
                        cfn: Cfn(idx as u64),
                        cpd,
                    });
                }
                out
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
        for frames in [1usize, 3, 64, 65, 130] {
            let mut arena = CacheFrames::new(frames);
            let mut naive = Naive {
                cpds: vec![Cpd::default(); frames],
                head: 0,
                tail: 0,
                num_free: frames,
            };
            for op in 0..2000 {
                match rng() % 5 {
                    0..=2 => {
                        let got = arena.allocate(Pfn(op));
                        let want = naive.allocate(Pfn(op));
                        assert_eq!(got, want, "allocate diverged at op {op}");
                        if let Some((cfn, _)) = got {
                            if rng() % 3 == 0 {
                                let core = (rng() % 4) as usize;
                                arena.tlb_set(cfn, core);
                                naive.cpds[cfn.raw() as usize].tlb_dir |= 1 << core;
                            }
                            if rng() % 4 == 0 {
                                arena.set_dirty(cfn);
                                naive.cpds[cfn.raw() as usize].dirty = true;
                            }
                        }
                    }
                    3 => {
                        let batch = (rng() % 4 + 1) as usize;
                        let force = rng() % 8 == 0;
                        let mut got = Vec::new();
                        arena.evict_batch(batch, force, |_| false, &mut got);
                        let want = naive.evict_batch(batch, force);
                        assert_eq!(got, want, "evict diverged at op {op}");
                        assert_eq!(arena.num_free(), naive.num_free);
                    }
                    _ => {
                        let cfn = Cfn(rng() % frames as u64);
                        let core = (rng() % 4) as usize;
                        if rng() % 2 == 0 {
                            arena.tlb_clear(cfn, core);
                            naive.cpds[cfn.raw() as usize].tlb_dir &= !(1 << core);
                        }
                        assert_eq!(
                            arena.tlb_resident(cfn),
                            naive.cpds[cfn.raw() as usize].tlb_dir != 0
                        );
                    }
                }
                let probe = Cfn(rng() % frames as u64);
                assert_eq!(
                    arena.cpd(probe),
                    naive.cpds[probe.raw() as usize],
                    "cpd({probe:?}) diverged at op {op}"
                );
            }
        }
    }

    proptest! {
        /// num_free + occupancy is invariant, allocations never return
        /// a valid-marked frame, and eviction counts balance.
        #[test]
        fn prop_free_accounting(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut f = CacheFrames::new(16);
            let mut allocated = 0usize;
            for op in ops {
                match op {
                    0 => {
                        if let Some((cfn, _)) = f.allocate(Pfn(allocated as u64)) {
                            allocated += 1;
                            prop_assert!(f.cpd(cfn).valid);
                        }
                    }
                    1 => {
                        let evicted = evict(&mut f, 3);
                        allocated -= evicted.len();
                    }
                    _ => {
                        let evicted = evict(&mut f, 1);
                        allocated -= evicted.len();
                    }
                }
                prop_assert_eq!(f.occupancy(), allocated);
                prop_assert_eq!(f.num_free() + allocated, 16);
            }
        }
    }
}
