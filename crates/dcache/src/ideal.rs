//! The ideal OS-managed DRAM cache (Fig. 9's "Ideal" upper bound, and
//! the configuration under which Table I's RMHB/MPMS were measured).

use crate::frames::CacheFrames;
use crate::queue::DramQueue;
use crate::scheme::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, WalkOutcome};
use crate::stats::SchemeStats;
use nomad_cache::{FrameKind, PageTable};
use nomad_dram::{Dram, DramCompletion};
use nomad_types::{AccessKind, CoreId, Cycle, Vpn, PAGE_SIZE};

/// An OS-managed DRAM cache with zero miss-handling cost: tag misses
/// allocate a frame and complete instantaneously, page data appears in
/// the cache with no fill traffic, and evictions are free. Every demand
/// access is an on-package DRAM hit.
///
/// Besides being Fig. 9's upper bound, this scheme *counts* the page
/// fetches a real OS-managed cache would have performed, which is
/// exactly Table I's required miss-handling bandwidth (RMHB) metric.
#[derive(Debug)]
pub struct Ideal {
    page_table: PageTable,
    frames: CacheFrames,
    hbm_demand: DramQueue,
    ddr_demand: DramQueue,
    stats: SchemeStats,
    queue_limit: usize,
    /// Free-frame threshold triggering (free) batch eviction.
    eviction_threshold: usize,
    eviction_batch: usize,
    /// Evicted frames whose SRAM lines still need flushing (applied at
    /// the next issue, when the flusher is available).
    pending_flush: Vec<u64>,
    /// TLB shootdowns owed for force-evicted frames (reported through
    /// [`SchemeEvents`] at the next issue).
    pending_shootdown: Vec<Vpn>,
    /// Reusable eviction-victim buffer for `reclaim_if_needed`.
    evict_scratch: Vec<crate::frames::EvictCandidate>,
}

impl Ideal {
    /// An ideal DRAM cache of `capacity_bytes` on-package capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        let frames = (capacity_bytes / PAGE_SIZE).max(16) as usize;
        Ideal {
            page_table: PageTable::new(),
            frames: CacheFrames::new(frames),
            hbm_demand: DramQueue::new(),
            ddr_demand: DramQueue::new(),
            stats: SchemeStats::default(),
            queue_limit: 64,
            eviction_threshold: (frames / 32).max(8),
            eviction_batch: 64,
            pending_flush: Vec::new(),
            pending_shootdown: Vec::new(),
            evict_scratch: Vec::new(),
        }
    }

    /// The scheme's page table.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    fn reclaim_if_needed(&mut self) {
        let mut evicted = std::mem::take(&mut self.evict_scratch);
        while self.frames.num_free() < self.eviction_threshold {
            evicted.clear();
            self.frames
                .evict_batch(self.eviction_batch, false, |_| false, &mut evicted);
            if evicted.is_empty() {
                break;
            }
            for e in &evicted {
                self.page_table.uncache_all(e.cpd.pfn);
                self.pending_flush.push(e.cfn.raw());
                self.stats.evictions.inc();
            }
        }
        // Last resort: every frame's translation is TLB-resident (the
        // cache is smaller than the combined TLB reach), so
        // shootdown-avoiding eviction made no progress. Force-evict
        // and owe the shootdowns — free here, like everything else in
        // the ideal scheme, but the TLB directory must stay coherent.
        if self.frames.num_free() == 0 {
            evicted.clear();
            self.frames
                .evict_batch(self.eviction_batch, true, |_| false, &mut evicted);
            for e in &evicted {
                for vpn in self.page_table.reverse_map(e.cpd.pfn) {
                    self.pending_shootdown.push(Vpn(vpn));
                }
                self.page_table.uncache_all(e.cpd.pfn);
                self.pending_flush.push(e.cfn.raw());
                self.stats.evictions.inc();
            }
        }
        self.evict_scratch = evicted;
    }
}

impl DcScheme for Ideal {
    fn name(&self) -> &'static str {
        "Ideal"
    }

    fn walk(
        &mut self,
        core: CoreId,
        vpn: Vpn,
        _sub: nomad_types::SubBlockIdx,
        kind: AccessKind,
        _now: Cycle,
    ) -> WalkOutcome {
        let pte = *self.page_table.pte_mut(vpn);
        if pte.tag_miss() {
            // Free tag-miss handling: allocate instantly, count the
            // page fetch that a real scheme would have performed.
            let pfn = match pte.frame {
                FrameKind::Phys(pfn) => pfn,
                FrameKind::Cache(_) => unreachable!("tag_miss implies phys"),
            };
            self.reclaim_if_needed();
            let (cfn, _) = self
                .frames
                .allocate(pfn)
                .expect("reclaim guarantees a free frame");
            self.page_table.cache_all(pfn, cfn);
            self.stats.tag_misses.inc();
        }
        let entry = self.page_table.walk(vpn, kind.is_write());
        if kind.is_write() {
            if let FrameKind::Cache(cfn) = entry.frame {
                self.frames.set_dirty(cfn);
            }
        }
        // TLB directory: the system reports insertions via
        // `tlb_inserted`, so nothing more to do here.
        let _ = core;
        WalkOutcome::Ready { entry }
    }

    fn prewarm(&mut self, _core: CoreId, vpn: Vpn, dirty: bool) {
        let pte = *self.page_table.pte_mut(vpn);
        if pte.tag_miss() {
            let FrameKind::Phys(pfn) = pte.frame else {
                return;
            };
            self.reclaim_if_needed();
            if let Some((cfn, _)) = self.frames.allocate(pfn) {
                self.page_table.cache_all(pfn, cfn);
                if dirty {
                    self.frames.set_dirty(cfn);
                }
            }
        }
    }

    fn free_frames(&self) -> Option<u64> {
        Some(self.frames.num_free() as u64)
    }

    fn can_accept(&self) -> bool {
        self.hbm_demand.len() < self.queue_limit && self.ddr_demand.len() < self.queue_limit
    }

    fn access(&mut self, req: DcAccessReq, now: Cycle) {
        if req.kind.is_write() {
            self.stats.demand_writes.inc();
        } else {
            self.stats.demand_reads.inc();
        }
        match req.target {
            nomad_types::MemTarget::DramCache => {
                self.stats.dc_data_hits.inc();
                self.hbm_demand.submit(req, req.addr.base(), now);
            }
            nomad_types::MemTarget::OffPackage => {
                // Non-cacheable or never-walked page: off-package.
                self.stats.offpkg_demand.inc();
                self.ddr_demand.submit(req, req.addr.base(), now);
            }
        }
    }

    fn issue(
        &mut self,
        _now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        flush: &mut dyn CacheFlush,
        events: &mut SchemeEvents,
    ) {
        for page in self.pending_flush.drain(..) {
            flush.flush_dc_page(page);
        }
        events.shootdowns.append(&mut self.pending_shootdown);
        self.hbm_demand.drain(hbm);
        self.ddr_demand.drain(ddr);
    }

    fn complete(
        &mut self,
        now: Cycle,
        from_hbm: &[DramCompletion],
        from_ddr: &[DramCompletion],
        events: &mut SchemeEvents,
    ) {
        for c in from_hbm {
            self.hbm_demand
                .respond(c.token, now, &mut self.stats, events);
        }
        for c in from_ddr {
            self.ddr_demand
                .respond(c.token, now, &mut self.stats, events);
        }
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        // Deferred SRAM flushes and queued demand both need a tick;
        // in-flight reads complete on device edges the system already
        // watches.
        if !self.pending_flush.is_empty()
            || !self.pending_shootdown.is_empty()
            || !self.hbm_demand.is_empty()
            || !self.ddr_demand.is_empty()
        {
            Some(now + 1)
        } else {
            None
        }
    }

    fn tlb_inserted(&mut self, core: CoreId, vpn: Vpn) {
        if let Some(pte) = self.page_table.get(vpn) {
            if let FrameKind::Cache(cfn) = pte.frame {
                self.frames.tlb_set(cfn, core);
            }
        }
    }

    fn tlb_departed(&mut self, core: CoreId, vpn: Vpn) {
        if let Some(pte) = self.page_table.get(vpn) {
            if let FrameKind::Cache(cfn) = pte.frame {
                self.frames.tlb_clear(cfn, core);
            }
        }
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::harness::step;
    use nomad_dram::DramConfig;
    use nomad_types::{BlockAddr, MemTarget, ReqId};

    #[test]
    fn tag_miss_allocates_instantly() {
        let mut s = Ideal::new(1 << 20); // 256 frames
        match s.walk(0, Vpn(1), nomad_types::SubBlockIdx(0), AccessKind::Read, 0) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, FrameKind::Cache(_)));
            }
            _ => panic!("ideal never blocks"),
        }
        assert_eq!(s.stats().tag_misses.get(), 1);
        // Second walk: no new tag miss.
        s.walk(0, Vpn(1), nomad_types::SubBlockIdx(0), AccessKind::Read, 1);
        assert_eq!(s.stats().tag_misses.get(), 1);
    }

    #[test]
    fn capacity_pressure_causes_fifo_reuse() {
        let mut s = Ideal::new(64 * PAGE_SIZE); // 64 frames
        for v in 0..200u64 {
            s.walk(0, Vpn(v), nomad_types::SubBlockIdx(0), AccessKind::Read, v);
        }
        assert_eq!(s.stats().tag_misses.get(), 200);
        assert!(s.stats().evictions.get() > 0);
        // A long-evicted early page tag-misses again.
        s.walk(
            0,
            Vpn(0),
            nomad_types::SubBlockIdx(0),
            AccessKind::Read,
            999,
        );
        assert_eq!(s.stats().tag_misses.get(), 201);
    }

    #[test]
    fn demand_served_from_hbm() {
        let mut s = Ideal::new(1 << 20);
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        let mut ev = SchemeEvents::default();
        s.access(
            DcAccessReq {
                token: ReqId(3),
                addr: BlockAddr(0x40),
                target: MemTarget::DramCache,
                kind: AccessKind::Read,
                core: 0,
                wants_response: true,
            },
            0,
        );
        for now in 0..500 {
            step(&mut s, now, &mut hbm, &mut ddr, &mut ev);
        }
        assert_eq!(ev.responses.len(), 1);
        assert!(hbm.stats().total_bytes() > 0);
        assert_eq!(ddr.stats().total_bytes(), 0);
    }

    /// A cache smaller than the combined TLB reach: shootdown-avoiding
    /// eviction can free nothing, so the force path must kick in (and
    /// owe shootdowns) instead of panicking on allocation.
    #[test]
    fn tlb_saturated_cache_force_evicts_instead_of_panicking() {
        let mut s = Ideal::new(16 * PAGE_SIZE); // 16 frames
        for v in 0..16u64 {
            s.walk(0, Vpn(v), nomad_types::SubBlockIdx(0), AccessKind::Read, v);
            s.tlb_inserted(0, Vpn(v));
        }
        // Every frame is pinned; the next distinct page must still walk.
        match s.walk(
            0,
            Vpn(99),
            nomad_types::SubBlockIdx(0),
            AccessKind::Read,
            99,
        ) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, FrameKind::Cache(_)));
            }
            _ => panic!("ideal never blocks"),
        }
        assert!(s.stats().evictions.get() > 0, "forced eviction happened");
        // The owed shootdowns surface on the next tick.
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        let mut ev = SchemeEvents::default();
        step(&mut s, 0, &mut hbm, &mut ddr, &mut ev);
        assert!(!ev.shootdowns.is_empty(), "forced eviction owes shootdowns");
    }

    #[test]
    fn tlb_resident_pages_survive_eviction() {
        let mut s = Ideal::new(64 * PAGE_SIZE);
        s.walk(0, Vpn(0), nomad_types::SubBlockIdx(0), AccessKind::Read, 0);
        s.tlb_inserted(0, Vpn(0));
        for v in 1..500u64 {
            s.walk(0, Vpn(v), nomad_types::SubBlockIdx(0), AccessKind::Read, v);
        }
        // Page 0 must still be cached: its frame was skipped.
        assert!(s.page_table.get(Vpn(0)).unwrap().cached());
        s.tlb_departed(0, Vpn(0));
        for v in 500..1200u64 {
            s.walk(0, Vpn(v), nomad_types::SubBlockIdx(0), AccessKind::Read, v);
        }
        assert!(
            !s.page_table.get(Vpn(0)).unwrap().cached(),
            "reclaimed after departure"
        );
    }
}
