//! Banshee: a page-granular DRAM cache with **TLB-resident tag
//! tracking** and a **bandwidth-aware, frequency-based replacement
//! policy** (PAPERS.md: "Banshee: Bandwidth-Efficient DRAM Caching via
//! Software/Hardware Cooperation").
//!
//! Characteristics reproduced:
//!
//! * page-granularity caching with the mapping kept in the page
//!   table / TLB (like the OS-managed schemes, translation resolves the
//!   DC location for free — no per-access tag probes);
//! * **sampled frequency counters**: only every `sample_rate`-th access
//!   updates counters, keeping tracking cheap;
//! * **admission filtering**: a missing page is cached only once its
//!   sampled frequency beats the set victim's frequency by
//!   `admit_threshold`, so low-reuse pages never spend fill bandwidth —
//!   the bandwidth-aware gate that is Banshee's signature;
//! * **lazy tag-table writeback**: mapping updates are buffered and
//!   flushed to the in-memory tag table in batches of
//!   `tag_buffer_entries` small posted writes, instead of per-miss
//!   metadata traffic.
//!
//! Divergence from NOMAD: replacement is frequency-gated rather than
//! FIFO-with-TLB-skip, fills are decided by a probabilistic filter
//! rather than performed on every tag miss, and pages keep being served
//! from off-package memory until their (lazily installed) mapping
//! lands — there is no tag-data decoupled in-transfer window.
#![warn(missing_docs)]

use crate::queue::DramQueue;
use crate::scheme::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, WalkOutcome};
use crate::stats::SchemeStats;
use nomad_cache::{FrameKind, PageTable};
use nomad_dram::{Dram, DramCompletion, DramRequest, Probe};
use nomad_types::{
    AccessKind, Cfn, CoreId, Cycle, Pfn, ReqId, TrafficClass, Vpn, BLOCK_SIZE, PAGE_SIZE,
    SUB_BLOCKS_PER_PAGE,
};
use std::collections::HashMap;

/// Banshee configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BansheeConfig {
    /// DRAM-cache data capacity in bytes.
    pub capacity_bytes: u64,
    /// Set associativity of the page cache.
    pub ways: usize,
    /// Sample one in `sample_rate` accesses for frequency tracking.
    pub sample_rate: u64,
    /// A candidate page is admitted only when its sampled frequency
    /// reaches the victim's frequency plus this margin.
    pub admit_threshold: u32,
    /// Buffered tag-table updates flushed together (lazy writeback).
    pub tag_buffer_entries: usize,
}

impl BansheeConfig {
    /// Paper-style Banshee over a DRAM cache of `capacity_bytes`.
    pub fn paper(capacity_bytes: u64) -> Self {
        BansheeConfig {
            capacity_bytes,
            ways: 4,
            sample_rate: 4,
            admit_threshold: 1,
            tag_buffer_entries: 32,
        }
    }
}

/// Token spaces for fill-engine traffic and (as the demand queues'
/// tag) demand traffic.
const TOK_DEMAND: u64 = 1 << 56;
const TOK_FILL: u64 = 2 << 56;
const TOK_WB: u64 = 3 << 56;
const TOK_MASK: u64 = 0xff << 56;

/// Off-package byte address of the in-memory tag table entry for a set.
const TAG_TABLE_BASE: u64 = 1 << 40;

/// One way of the page cache.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pfn: Pfn,
    valid: bool,
    dirty: bool,
    /// Sampled access-frequency counter (the replacement metric).
    freq: u32,
    /// Cores whose TLB holds a translation into this frame.
    tlb: u64,
}

/// An in-flight page fill (and the victim writeback it displaced).
#[derive(Debug)]
struct Fill {
    pfn: Pfn,
    slot: u64,
    /// Frequency the page is installed with (its candidate count).
    freq: u32,
    started: Cycle,
    /// Next off-package block to request (0..64).
    next_block: u64,
    /// Completed fill-block reads.
    fetched: u64,
    /// Next victim block to read out of HBM (64 when no writeback).
    wb_next: u64,
    /// Completed victim read-outs.
    wb_done: u64,
    wb_total: u64,
    victim_pfn: Pfn,
}

/// The Banshee page cache.
#[derive(Debug)]
pub struct Banshee {
    cfg: BansheeConfig,
    page_table: PageTable,
    slots: Vec<Slot>,
    num_sets: u64,
    free_slots: u64,
    hbm_demand: DramQueue,
    ddr_demand: DramQueue,
    /// Global access counter driving the sampling clock.
    access_count: u64,
    /// Sampled per-page candidate frequency (pages not yet cached).
    cand_freq: HashMap<u64, u32>,
    fills: Vec<Option<Fill>>,
    /// Fill-engine requests, drained ahead of the demand queues.
    fill_hbm: DramQueue,
    fill_ddr: DramQueue,
    /// Buffered tag-table updates not yet written to memory.
    tag_buffer_occupancy: usize,
    pending_flush: Vec<u64>,
    pending_shootdown: Vec<Vpn>,
    stats: SchemeStats,
    queue_limit: usize,
}

impl Banshee {
    /// Build a Banshee cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    pub fn new(cfg: BansheeConfig) -> Self {
        let frames = (cfg.capacity_bytes / PAGE_SIZE).max(cfg.ways as u64);
        let num_sets = (frames / cfg.ways as u64).max(1);
        let slots = num_sets * cfg.ways as u64;
        assert!(num_sets >= 1, "geometry too small");
        Banshee {
            page_table: PageTable::new(),
            slots: vec![Slot::default(); slots as usize],
            num_sets,
            free_slots: slots,
            hbm_demand: DramQueue::with_tag(TOK_DEMAND),
            ddr_demand: DramQueue::with_tag(TOK_DEMAND),
            access_count: 0,
            cand_freq: HashMap::new(),
            fills: (0..4).map(|_| None).collect(),
            fill_hbm: DramQueue::new(),
            fill_ddr: DramQueue::new(),
            tag_buffer_occupancy: 0,
            pending_flush: Vec::new(),
            pending_shootdown: Vec::new(),
            stats: SchemeStats::default(),
            queue_limit: 64,
            cfg,
        }
    }

    /// The scheme's page table.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    fn set_of(&self, pfn: Pfn) -> u64 {
        pfn.raw() % self.num_sets
    }

    fn fill_in_flight(&self, pfn: Pfn, set: u64) -> bool {
        self.fills.iter().flatten().any(|f| {
            f.pfn == pfn
                || (f.slot >= set * self.cfg.ways as u64
                    && f.slot < (set + 1) * self.cfg.ways as u64)
        })
    }

    /// Sampled tag-miss handling: bump the candidate counter and admit
    /// the page if it now beats the set's coldest resident.
    fn consider_admission(&mut self, pfn: Pfn, now: Cycle) {
        let set = self.set_of(pfn);
        if self.fill_in_flight(pfn, set) {
            return;
        }
        let cand = self
            .cand_freq
            .entry(pfn.raw())
            .and_modify(|c| *c = c.saturating_add(1))
            .or_insert(1);
        let cand = *cand;
        // Deterministic aging: a bounded candidate table, wholesale
        // reset when full (Banshee periodically decays its counters).
        if self.cand_freq.len() > 8192 {
            self.cand_freq.clear();
        }

        let base = (set * self.cfg.ways as u64) as usize;
        let ways = &self.slots[base..base + self.cfg.ways];
        let (way, admit) = match ways.iter().position(|s| !s.valid) {
            Some(w) => (w, true),
            None => {
                // Victim = coldest way (ties: lowest index).
                let mut victim = 0;
                for (i, s) in ways.iter().enumerate() {
                    if s.freq < ways[victim].freq {
                        victim = i;
                    }
                }
                // The bandwidth-aware gate: only replace when the
                // candidate is provably hotter, otherwise the fill
                // bandwidth is better spent elsewhere.
                (
                    victim,
                    cand >= ways[victim].freq.saturating_add(self.cfg.admit_threshold),
                )
            }
        };
        if !admit {
            self.stats.policy_bypasses.inc();
            return;
        }
        let Some(idx) = self.fills.iter().position(Option::is_none) else {
            // Fill engine saturated: drop the attempt, it will retry on
            // a later sample.
            self.stats.pcshr_full_events.inc();
            return;
        };
        let slot = base as u64 + way as u64;
        let victim = self.slots[slot as usize];
        let mut wb_total = 0;
        if victim.valid {
            if victim.tlb != 0 {
                for vpn in self.page_table.reverse_map(victim.pfn) {
                    self.pending_shootdown.push(Vpn(vpn));
                }
            }
            self.page_table.uncache_all(victim.pfn);
            self.pending_flush.push(slot);
            self.stats.evictions.inc();
            if victim.dirty {
                wb_total = SUB_BLOCKS_PER_PAGE;
                self.stats.writebacks.inc();
                self.stats.writeback_bytes.add(PAGE_SIZE);
            }
        } else {
            self.free_slots -= 1;
        }
        self.slots[slot as usize] = Slot::default();
        self.cand_freq.remove(&pfn.raw());
        self.stats.tag_misses.inc();
        self.fills[idx] = Some(Fill {
            pfn,
            slot,
            freq: cand,
            started: now,
            next_block: 0,
            fetched: 0,
            wb_next: 0,
            wb_done: 0,
            wb_total,
            victim_pfn: victim.pfn,
        });
    }

    /// Issue the next batch of fill/writeback block transfers. Victim
    /// read-out is fully issued before the fill overwrites the frame.
    fn pump_fills(&mut self) {
        for idx in 0..self.fills.len() {
            let Some(f) = self.fills[idx].as_mut() else {
                continue;
            };
            let mut quota = 4u64;
            while f.wb_next < f.wb_total && quota > 0 {
                let block = f.wb_next;
                f.wb_next += 1;
                quota -= 1;
                self.fill_hbm.push_back(DramRequest {
                    token: ReqId(TOK_WB | ((idx as u64) << 8) | block),
                    addr: f.slot * PAGE_SIZE + block * BLOCK_SIZE,
                    kind: AccessKind::Read,
                    class: TrafficClass::Writeback,
                    wants_completion: true,
                    probe: Probe::Data,
                });
            }
            if f.wb_next < f.wb_total {
                continue;
            }
            while f.next_block < SUB_BLOCKS_PER_PAGE && quota > 0 {
                let block = f.next_block;
                f.next_block += 1;
                quota -= 1;
                self.fill_ddr.push_back(DramRequest {
                    token: ReqId(TOK_FILL | ((idx as u64) << 8) | block),
                    addr: f.pfn.base().raw() + block * BLOCK_SIZE,
                    kind: AccessKind::Read,
                    class: TrafficClass::Fill,
                    wants_completion: true,
                    probe: Probe::Data,
                });
            }
        }
    }

    fn on_fill_block(&mut self, idx: usize, _block: u64, now: Cycle) {
        let (slot, block_addr);
        {
            let Some(f) = self.fills[idx].as_mut() else {
                return;
            };
            f.fetched += 1;
            slot = f.slot;
            block_addr = slot * PAGE_SIZE + _block * BLOCK_SIZE;
        }
        self.stats.fill_bytes.add(BLOCK_SIZE);
        self.fill_hbm.push_back(DramRequest {
            token: ReqId(0),
            addr: block_addr,
            kind: AccessKind::Write,
            class: TrafficClass::Fill,
            wants_completion: false,
            probe: Probe::Data,
        });
        self.try_retire(idx, now);
    }

    fn on_wb_block(&mut self, idx: usize, block: u64, now: Cycle) {
        let victim_addr;
        {
            let Some(f) = self.fills[idx].as_mut() else {
                return;
            };
            f.wb_done += 1;
            victim_addr = f.victim_pfn.base().raw() + block * BLOCK_SIZE;
        }
        self.fill_ddr.push_back(DramRequest {
            token: ReqId(0),
            addr: victim_addr,
            kind: AccessKind::Write,
            class: TrafficClass::Writeback,
            wants_completion: false,
            probe: Probe::Data,
        });
        self.try_retire(idx, now);
    }

    fn try_retire(&mut self, idx: usize, now: Cycle) {
        let done = match self.fills[idx].as_ref() {
            Some(f) => f.fetched == SUB_BLOCKS_PER_PAGE && f.wb_done == f.wb_total,
            None => false,
        };
        if !done {
            return;
        }
        let f = self.fills[idx].take().expect("checked");
        self.slots[f.slot as usize] = Slot {
            pfn: f.pfn,
            valid: true,
            dirty: false,
            freq: f.freq,
            tlb: 0,
        };
        self.page_table.cache_all(f.pfn, Cfn(f.slot));
        self.stats.fills.inc();
        self.stats
            .tag_mgmt_latency
            .record(now.saturating_sub(f.started));
        // Lazy tag-table writeback: buffer the mapping update; flush the
        // whole buffer as a batch of small posted writes once full.
        self.tag_buffer_occupancy += 1;
        if self.tag_buffer_occupancy >= self.cfg.tag_buffer_entries {
            for i in 0..self.tag_buffer_occupancy as u64 {
                self.fill_ddr.push_back(DramRequest {
                    token: ReqId(0),
                    addr: TAG_TABLE_BASE + i * 8,
                    kind: AccessKind::Write,
                    class: TrafficClass::Metadata,
                    wants_completion: false,
                    probe: Probe::TagOnly,
                });
            }
            self.tag_buffer_occupancy = 0;
        }
    }
}

impl DcScheme for Banshee {
    fn name(&self) -> &'static str {
        "Banshee"
    }

    fn walk(
        &mut self,
        _core: CoreId,
        vpn: Vpn,
        _sub: nomad_types::SubBlockIdx,
        kind: AccessKind,
        now: Cycle,
    ) -> WalkOutcome {
        let pte = *self.page_table.pte_mut(vpn);
        if !pte.noncacheable {
            self.access_count += 1;
            let sampled = self.access_count.is_multiple_of(self.cfg.sample_rate);
            if sampled {
                match pte.frame {
                    FrameKind::Cache(cfn) => {
                        // Sampled hit: reward the resident page.
                        let s = &mut self.slots[cfn.raw() as usize];
                        s.freq = s.freq.saturating_add(1);
                    }
                    FrameKind::Phys(pfn) if pte.tag_miss() => {
                        self.consider_admission(pfn, now);
                    }
                    FrameKind::Phys(_) => {}
                }
            }
        }
        // Walks never block: until a fill retires and its mapping is
        // installed, the page is simply served from off-package memory.
        let entry = self.page_table.walk(vpn, kind.is_write());
        if kind.is_write() {
            if let FrameKind::Cache(cfn) = entry.frame {
                self.slots[cfn.raw() as usize].dirty = true;
            }
        }
        WalkOutcome::Ready { entry }
    }

    fn prewarm(&mut self, _core: CoreId, vpn: Vpn, dirty: bool) {
        let pte = *self.page_table.pte_mut(vpn);
        if !pte.tag_miss() {
            return;
        }
        let FrameKind::Phys(pfn) = pte.frame else {
            return;
        };
        let set = self.set_of(pfn);
        let base = (set * self.cfg.ways as u64) as usize;
        let Some(way) = self.slots[base..base + self.cfg.ways]
            .iter()
            .position(|s| !s.valid)
        else {
            return;
        };
        let slot = base as u64 + way as u64;
        self.slots[slot as usize] = Slot {
            pfn,
            valid: true,
            dirty,
            freq: 1,
            tlb: 0,
        };
        self.free_slots -= 1;
        self.page_table.cache_all(pfn, Cfn(slot));
    }

    fn free_frames(&self) -> Option<u64> {
        Some(self.free_slots)
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

        self.pump_fills();
        self.fill_hbm.drain(hbm);
        self.fill_ddr.drain(ddr);
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
            if c.token.0 & TOK_MASK == TOK_WB {
                let idx = ((c.token.0 >> 8) & 0xffff) as usize;
                self.on_wb_block(idx, c.token.0 & 0xff, now);
            } else {
                self.hbm_demand
                    .respond(c.token, now, &mut self.stats, events);
            }
        }
        for c in from_ddr {
            if c.token.0 & TOK_MASK == TOK_FILL {
                let idx = ((c.token.0 >> 8) & 0xffff) as usize;
                self.on_fill_block(idx, c.token.0 & 0xff, now);
            } else {
                self.ddr_demand
                    .respond(c.token, now, &mut self.stats, events);
            }
        }
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        // Owed flushes/shootdowns, queued traffic and live fills all
        // make per-cycle progress; pure demand in flight completes on
        // device edges the system watches.
        if !self.pending_flush.is_empty()
            || !self.pending_shootdown.is_empty()
            || !self.fill_hbm.is_empty()
            || !self.fill_ddr.is_empty()
            || self.fills.iter().any(Option::is_some)
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
                self.slots[cfn.raw() as usize].tlb |= 1 << (core as u64 & 63);
            }
        }
    }

    fn tlb_departed(&mut self, core: CoreId, vpn: Vpn) {
        if let Some(pte) = self.page_table.get(vpn) {
            if let FrameKind::Cache(cfn) = pte.frame {
                self.slots[cfn.raw() as usize].tlb &= !(1 << (core as u64 & 63));
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
    use nomad_types::SubBlockIdx;

    fn cfg_every_access(capacity: u64) -> BansheeConfig {
        BansheeConfig {
            sample_rate: 1,
            ..BansheeConfig::paper(capacity)
        }
    }

    fn run(s: &mut Banshee, hbm: &mut Dram, ddr: &mut Dram, from: Cycle, cycles: Cycle) {
        let mut ev = SchemeEvents::default();
        for now in from..from + cycles {
            step(s, now, hbm, ddr, &mut ev);
            ev.clear();
        }
    }

    fn walk_read(s: &mut Banshee, vpn: u64, now: Cycle) -> FrameKind {
        match s.walk(0, Vpn(vpn), SubBlockIdx(0), AccessKind::Read, now) {
            WalkOutcome::Ready { entry } => entry.frame,
            _ => panic!("banshee never blocks"),
        }
    }

    #[test]
    fn sampled_miss_admits_and_fills() {
        let mut s = Banshee::new(cfg_every_access(1 << 20));
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        // Until the fill lands, the page keeps resolving off-package.
        assert!(matches!(walk_read(&mut s, 7, 0), FrameKind::Phys(_)));
        assert_eq!(s.stats().tag_misses.get(), 1);
        run(&mut s, &mut hbm, &mut ddr, 0, 30_000);
        assert_eq!(s.stats().fills.get(), 1);
        assert_eq!(s.stats().fill_bytes.get(), PAGE_SIZE);
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Fill).read, PAGE_SIZE);
        assert_eq!(hbm.stats().bytes_for(TrafficClass::Fill).written, PAGE_SIZE);
        // The mapping is now TLB-visible.
        assert!(matches!(walk_read(&mut s, 7, 31_000), FrameKind::Cache(_)));
    }

    #[test]
    fn unsampled_accesses_never_admit() {
        let mut s = Banshee::new(BansheeConfig {
            sample_rate: 1_000_000,
            ..BansheeConfig::paper(1 << 20)
        });
        for i in 0..100 {
            walk_read(&mut s, 3, i);
        }
        assert_eq!(s.stats().tag_misses.get(), 0, "no sample, no admission");
    }

    #[test]
    fn admission_gated_on_victim_frequency() {
        // One set, one way, margin 2: B must out-score A by 2 samples.
        let mut s = Banshee::new(BansheeConfig {
            capacity_bytes: PAGE_SIZE,
            ways: 1,
            sample_rate: 1,
            admit_threshold: 2,
            tag_buffer_entries: 1024,
        });
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        walk_read(&mut s, 0, 0); // admit A (empty way), freq 1
        run(&mut s, &mut hbm, &mut ddr, 0, 30_000);
        assert_eq!(s.stats().fills.get(), 1);
        // B's candidate count must reach freq(A) + 2 = 3.
        walk_read(&mut s, 1, 31_000); // cand 1 → bypass
        walk_read(&mut s, 1, 31_001); // cand 2 → bypass
        assert_eq!(s.stats().policy_bypasses.get(), 2);
        assert_eq!(s.stats().tag_misses.get(), 1);
        walk_read(&mut s, 1, 31_002); // cand 3 → admit, evict A
        assert_eq!(s.stats().tag_misses.get(), 2);
        assert_eq!(s.stats().evictions.get(), 1);
        run(&mut s, &mut hbm, &mut ddr, 31_003, 30_000);
        assert!(matches!(walk_read(&mut s, 1, 62_010), FrameKind::Cache(_)));
        assert!(matches!(walk_read(&mut s, 0, 62_011), FrameKind::Phys(_)));
    }

    #[test]
    fn dirty_victim_page_written_back() {
        let mut s = Banshee::new(BansheeConfig {
            capacity_bytes: PAGE_SIZE,
            ways: 1,
            sample_rate: 1,
            admit_threshold: 0,
            tag_buffer_entries: 1024,
        });
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        s.walk(0, Vpn(0), SubBlockIdx(0), AccessKind::Write, 0);
        run(&mut s, &mut hbm, &mut ddr, 0, 30_000);
        // Dirty A in the only way; B displaces it.
        s.walk(0, Vpn(0), SubBlockIdx(0), AccessKind::Write, 30_000);
        walk_read(&mut s, 1, 30_001);
        walk_read(&mut s, 1, 30_002);
        walk_read(&mut s, 1, 30_003);
        run(&mut s, &mut hbm, &mut ddr, 30_004, 60_000);
        assert_eq!(s.stats().writebacks.get(), 1);
        assert_eq!(s.stats().writeback_bytes.get(), PAGE_SIZE);
        assert_eq!(
            ddr.stats().bytes_for(TrafficClass::Writeback).written,
            PAGE_SIZE
        );
        assert_eq!(
            hbm.stats().bytes_for(TrafficClass::Writeback).read,
            PAGE_SIZE
        );
    }

    #[test]
    fn tag_table_writeback_is_lazy_and_batched() {
        let mut s = Banshee::new(BansheeConfig {
            capacity_bytes: 1 << 20,
            ways: 4,
            sample_rate: 1,
            admit_threshold: 1,
            tag_buffer_entries: 2,
        });
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        walk_read(&mut s, 0, 0);
        run(&mut s, &mut hbm, &mut ddr, 0, 30_000);
        assert_eq!(s.stats().fills.get(), 1);
        // One buffered update: nothing flushed yet.
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Metadata).written, 0);
        walk_read(&mut s, 1, 30_000);
        run(&mut s, &mut hbm, &mut ddr, 30_000, 30_000);
        assert_eq!(s.stats().fills.get(), 2);
        // Buffer hit its threshold: both updates flushed as small
        // tag-only writes (8 bytes each).
        assert_eq!(ddr.stats().bytes_for(TrafficClass::Metadata).written, 16);
    }

    #[test]
    fn eviction_of_tlb_resident_page_owes_shootdown() {
        let mut s = Banshee::new(BansheeConfig {
            capacity_bytes: PAGE_SIZE,
            ways: 1,
            sample_rate: 1,
            admit_threshold: 0,
            tag_buffer_entries: 1024,
        });
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        walk_read(&mut s, 0, 0);
        run(&mut s, &mut hbm, &mut ddr, 0, 30_000);
        s.tlb_inserted(0, Vpn(0));
        walk_read(&mut s, 1, 30_000); // evicts the pinned page
        let mut ev = SchemeEvents::default();
        step(&mut s, 30_001, &mut hbm, &mut ddr, &mut ev);
        assert_eq!(ev.shootdowns, vec![Vpn(0)]);
    }

    #[test]
    fn prewarm_fills_empty_ways_only() {
        let mut s = Banshee::new(cfg_every_access(4 * PAGE_SIZE));
        assert_eq!(s.free_frames(), Some(4));
        s.prewarm(0, Vpn(11), false);
        assert_eq!(s.free_frames(), Some(3));
        assert!(matches!(walk_read(&mut s, 11, 0), FrameKind::Cache(_)));
    }
}
