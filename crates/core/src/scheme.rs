//! [`NomadScheme`]: the complete NOMAD (and TDC) DRAM-cache scheme,
//! wiring the front-end OS routines to the back-end hardware and both
//! DRAM devices.

use crate::backend::{
    decode_copy_token, is_copy_token, AccessCheck, Backend, CompletedCopy, CopyCommand, CopyKind,
};
use crate::config::{CachingPolicy, NomadConfig};
use crate::frontend::{BackendCtl, Frontend, FrontendConfig, FrontendEvents};
use nomad_cache::FrameKind;
use nomad_cpu::OsStallReason;
use nomad_dcache::{
    CacheFlush, DcAccessReq, DcScheme, DramQueue, SchemeEvents, SchemeStats, WalkOutcome,
};
use nomad_dram::{Dram, DramCompletion};
use nomad_obs::{Gauge, Registry, Span, SpanRing, TRACK_EVICT, TRACK_FILL, TRACK_WRITEBACK};
use nomad_types::{
    AccessKind, Cfn, CoreId, Cycle, IntMap, IntSet, MemResp, MemTarget, SubBlockIdx, Vpn, PAGE_SIZE,
};
use std::collections::{HashMap, VecDeque};

const HBM_DEMAND_TAG: u64 = 1 << 56;
const DDR_DEMAND_TAG: u64 = 2 << 56;

/// Routes interface commands to back-ends: by CFN in the distributed
/// organization, trivially in the centralized one.
struct BackendsView<'a> {
    backends: &'a mut [Backend],
    /// Copy commands accepted this tick, logged for the tracing layer
    /// (`None` unless obs is attached).
    issued: Option<&'a mut Vec<CopyCommand>>,
}

impl BackendsView<'_> {
    fn index(&self, cfn: Cfn) -> usize {
        (cfn.raw() % self.backends.len() as u64) as usize
    }
}

impl BackendCtl for BackendsView<'_> {
    fn try_send(&mut self, cmd: CopyCommand) -> bool {
        let idx = self.index(cmd.cfn);
        let sent = self.backends[idx].try_send(cmd);
        if sent {
            if let Some(issued) = self.issued.as_deref_mut() {
                issued.push(cmd);
            }
        }
        sent
    }

    fn busy_cfn(&self, cfn: Cfn) -> bool {
        self.backends[self.index(cfn)].busy_cfn(cfn)
    }
}

/// Observability state for the scheme: gauges over the PCSHR back-end
/// plus fill/writeback/eviction spans for the Chrome-trace exporter.
struct SchemeObs {
    pcshr_occupancy: Gauge,
    free_frames: Gauge,
    retry_depth: Gauge,
    ring: SpanRing,
    /// Issue cycle of each in-flight copy, keyed by
    /// `(is_writeback, cfn)` — unique while the copy is active because
    /// a back-end refuses a second command for a busy CFN.
    copy_started: HashMap<(bool, u64), Cycle>,
    /// Scratch for commands accepted during the current front-end tick.
    issued: Vec<CopyCommand>,
}

/// The NOMAD non-blocking OS-managed DRAM cache — or, with
/// [`NomadConfig::tdc`], the blocking TDC comparison scheme.
pub struct NomadScheme {
    cfg: NomadConfig,
    frontend: Frontend,
    backends: Vec<Backend>,
    hbm_demand: DramQueue,
    ddr_demand: DramQueue,
    /// Accesses refused by full PCSHR sub-entries, retried in order.
    retry: VecDeque<(DcAccessReq, Cycle)>,
    /// Cores suspended per faulting VPN (woken at handler completion
    /// for NOMAD, moved to `fill_waiters` for TDC).
    vpn_waiters: IntMap<u64, Vec<CoreId>>,
    /// TDC: cores suspended until their page fill completes.
    fill_waiters: IntMap<u64, Vec<CoreId>>,
    /// TDC: fills that completed before the handler event was
    /// processed.
    early_fills: IntSet<u64>,
    fe_events: FrontendEvents,
    /// SecondTouch policy state: pages seen exactly once (bounded).
    touched_once: IntSet<u64>,
    completed_scratch: Vec<CompletedCopy>,
    evict_scratch: Vec<nomad_dcache::EvictCandidate>,
    resp_scratch: Vec<(Cycle, MemResp)>,
    stats: SchemeStats,
    name: &'static str,
    obs: Option<SchemeObs>,
}

impl core::fmt::Debug for NomadScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NomadScheme")
            .field("name", &self.name)
            .field("backends", &self.backends.len())
            .finish_non_exhaustive()
    }
}

impl NomadScheme {
    /// Build a scheme from `cfg`; named NOMAD or TDC by its blocking
    /// flag.
    pub fn new(cfg: NomadConfig) -> Self {
        assert!(cfg.backends >= 1 && cfg.backends <= 16, "1–16 back-ends");
        let backends = (0..cfg.backends)
            .map(|i| Backend::new(i, cfg.backend_config()))
            .collect();
        NomadScheme {
            frontend: Frontend::new(FrontendConfig::from(&cfg), cfg.frames()),
            backends,
            hbm_demand: DramQueue::with_tag(HBM_DEMAND_TAG),
            ddr_demand: DramQueue::with_tag(DDR_DEMAND_TAG),
            retry: VecDeque::new(),
            vpn_waiters: IntMap::default(),
            fill_waiters: IntMap::default(),
            early_fills: IntSet::default(),
            fe_events: FrontendEvents::default(),
            touched_once: IntSet::default(),
            completed_scratch: Vec::new(),
            evict_scratch: Vec::new(),
            resp_scratch: Vec::new(),
            stats: SchemeStats::default(),
            name: if cfg.blocking { "TDC" } else { "NOMAD" },
            obs: None,
            cfg,
        }
    }

    /// The paper's NOMAD configuration over `capacity_bytes`.
    pub fn nomad(capacity_bytes: u64) -> Self {
        Self::new(NomadConfig::nomad(capacity_bytes))
    }

    /// The paper's TDC model over `capacity_bytes` for `cores` CPUs.
    pub fn tdc(capacity_bytes: u64, cores: usize) -> Self {
        Self::new(NomadConfig::tdc(capacity_bytes, cores))
    }

    /// Scheme configuration.
    pub fn cfg(&self) -> &NomadConfig {
        &self.cfg
    }

    /// Front-end access (page table, frames) for setup and tests.
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    fn backend_for_cfn(&mut self, cfn: Cfn) -> &mut Backend {
        let idx = (cfn.raw() % self.backends.len() as u64) as usize;
        &mut self.backends[idx]
    }

    /// Try to place a demand access; returns `false` if it must retry
    /// (PCSHR sub-entries full).
    fn place_access(&mut self, req: DcAccessReq, now: Cycle) -> bool {
        match req.target {
            MemTarget::DramCache => {
                if req.kind.is_write() {
                    // Dirty-in-cache bit (set without extra overhead,
                    // like conventional PTE dirty bits).
                    self.frontend.frames_mut().set_dirty(Cfn(req.addr.page()));
                }
                let check = self
                    .backend_for_cfn(Cfn(req.addr.page()))
                    .check_access(req, now);
                match check {
                    AccessCheck::NoMatch => {
                        self.stats.dc_data_hits.inc();
                        self.hbm_demand.submit(req, req.addr.base(), now);
                        true
                    }
                    AccessCheck::Serviced => {
                        self.stats.data_misses.inc();
                        self.stats.buffer_hits.inc();
                        true
                    }
                    AccessCheck::Absorbed => {
                        self.stats.data_misses.inc();
                        self.stats.buffer_hits.inc();
                        true
                    }
                    AccessCheck::Parked => {
                        self.stats.data_misses.inc();
                        true
                    }
                    AccessCheck::Retry => false,
                }
            }
            MemTarget::OffPackage => {
                // Check in-flight writebacks across all back-ends.
                let mut outcome = AccessCheck::NoMatch;
                for b in &mut self.backends {
                    match b.check_access(req, now) {
                        AccessCheck::NoMatch => continue,
                        other => {
                            outcome = other;
                            break;
                        }
                    }
                }
                match outcome {
                    AccessCheck::NoMatch => {
                        self.stats.offpkg_demand.inc();
                        self.ddr_demand.submit(req, req.addr.base(), now);
                        true
                    }
                    AccessCheck::Retry => false,
                    AccessCheck::Serviced | AccessCheck::Absorbed => {
                        self.stats.data_misses.inc();
                        self.stats.buffer_hits.inc();
                        true
                    }
                    AccessCheck::Parked => {
                        self.stats.data_misses.inc();
                        true
                    }
                }
            }
        }
    }
}

impl DcScheme for NomadScheme {
    fn name(&self) -> &'static str {
        self.name
    }

    fn walk(
        &mut self,
        core: CoreId,
        vpn: Vpn,
        sub: SubBlockIdx,
        kind: AccessKind,
        now: Cycle,
    ) -> WalkOutcome {
        let pte = *self.frontend.page_table_mut().pte_mut(vpn);
        if pte.noncacheable || pte.cached() {
            let entry = self.frontend.page_table_mut().walk(vpn, kind.is_write());
            if kind.is_write() {
                if let FrameKind::Cache(cfn) = entry.frame {
                    self.frontend.frames_mut().set_dirty(cfn);
                }
            }
            return WalkOutcome::Ready { entry };
        }
        // DC tag miss: cacheable but not cached.
        let pfn = match pte.frame {
            FrameKind::Phys(p) => p,
            FrameKind::Cache(_) => unreachable!("handled above"),
        };
        // Selective caching: a SecondTouch policy lets single-touch
        // pages bypass the cache entirely (no handler, no stall, no
        // fill) and be served off-package like an NC page.
        if self.cfg.policy == CachingPolicy::SecondTouch
            && !self.frontend.vpn_pending(vpn)
            && self.touched_once.insert(vpn.raw())
        {
            if self.touched_once.len() > 1 << 20 {
                self.touched_once.clear(); // bounded epoch reset
            }
            self.stats.policy_bypasses.inc();
            return WalkOutcome::Ready {
                entry: pte.tlb_entry(vpn),
            };
        }
        if self
            .frontend
            .note_tag_miss(core, vpn, pfn, sub, kind.is_write(), now)
        {
            self.stats.tag_misses.inc();
        }
        self.vpn_waiters.entry(vpn.raw()).or_default().push(core);
        WalkOutcome::Blocked {
            reason: if self.cfg.blocking {
                OsStallReason::BlockingFill
            } else {
                OsStallReason::TagMiss
            },
        }
    }

    fn prewarm(&mut self, _core: CoreId, vpn: Vpn, dirty: bool) {
        let pte = *self.frontend.page_table_mut().pte_mut(vpn);
        if !pte.tag_miss() {
            return;
        }
        let FrameKind::Phys(pfn) = pte.frame else {
            return;
        };
        if self.frontend.frames().num_free() == 0 {
            let mut evicted = std::mem::take(&mut self.evict_scratch);
            evicted.clear();
            self.frontend
                .frames_mut()
                .evict_batch(64, false, |_| false, &mut evicted);
            for e in &evicted {
                self.frontend.page_table_mut().uncache_all(e.cpd.pfn);
            }
            self.evict_scratch = evicted;
        }
        if let Some((cfn, _)) = self.frontend.frames_mut().allocate(pfn) {
            self.frontend.page_table_mut().cache_all(pfn, cfn);
            if dirty {
                self.frontend.frames_mut().set_dirty(cfn);
            }
        }
    }

    fn free_frames(&self) -> Option<u64> {
        Some(self.frontend.frames().num_free() as u64)
    }

    fn can_accept(&self) -> bool {
        self.retry.len() < 32 && self.hbm_demand.len() < 64 && self.ddr_demand.len() < 64
    }

    fn access(&mut self, req: DcAccessReq, now: Cycle) {
        if req.kind.is_write() {
            self.stats.demand_writes.inc();
        } else {
            self.stats.demand_reads.inc();
        }
        if !self.place_access(req, now) {
            self.stats.pcshr_full_events.inc();
            self.retry.push_back((req, now));
        }
    }

    fn issue(
        &mut self,
        now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        flush: &mut dyn CacheFlush,
        events: &mut SchemeEvents,
    ) {
        // 1. Retry sub-entry-refused accesses in order.
        while let Some((req, arrived)) = self.retry.pop_front() {
            if !self.place_access(req, arrived) {
                self.retry.push_front((req, arrived));
                break;
            }
        }

        // 2. Front-end OS routines (handlers + eviction daemon).
        self.fe_events.clear();
        {
            let mut view = BackendsView {
                backends: &mut self.backends,
                issued: self.obs.as_mut().map(|o| &mut o.issued),
            };
            self.frontend
                .tick(now, &mut view, flush, &mut self.fe_events);
        }
        if let Some(obs) = &mut self.obs {
            for cmd in obs.issued.drain(..) {
                obs.copy_started
                    .insert((cmd.kind == CopyKind::Writeback, cmd.cfn.raw()), now);
            }
            if self.fe_events.evicted > 0 {
                obs.ring.push(
                    Span::instant("evict_batch", "dcache", now, TRACK_EVICT)
                        .with_arg("pages", self.fe_events.evicted as u64),
                );
            }
        }
        self.stats.evictions.add(self.fe_events.evicted as u64);
        events.shootdowns.append(&mut self.fe_events.shootdowns);
        let blocking = self.cfg.blocking;
        for h in self.fe_events.handled.drain(..) {
            self.stats
                .tag_mgmt_latency
                .record(h.completed.saturating_sub(h.enqueued));
            self.stats.interface_wait_cycles.add(h.interface_wait);
            let waiters = self.vpn_waiters.remove(&h.vpn.raw()).unwrap_or_default();
            if blocking {
                if self.early_fills.remove(&h.cfn.raw()) {
                    events.wakes.extend(waiters);
                } else {
                    self.fill_waiters
                        .entry(h.cfn.raw())
                        .or_default()
                        .extend(waiters);
                }
            } else {
                // NOMAD: resume immediately after tag management.
                events.wakes.extend(waiters);
            }
        }

        // 3. Back-end hardware: issue copy transfers. Demand traffic
        //    drains first — page copies are bandwidth, not latency,
        //    sensitive, so demand gets the device queue slots.
        self.hbm_demand.drain(hbm);
        self.ddr_demand.drain(ddr);
        for b in &mut self.backends {
            b.tick(now);
            b.to_hbm.drain(hbm);
            b.to_ddr.drain(ddr);
        }
    }

    fn complete(
        &mut self,
        now: Cycle,
        from_hbm: &[DramCompletion],
        from_ddr: &[DramCompletion],
        events: &mut SchemeEvents,
    ) {
        // 4. Route the devices' completions, HBM's first: copy traffic
        //    to its back-end, demand reads (by their queue's tag) to
        //    the LLC.
        for c in from_hbm.iter().chain(from_ddr) {
            if is_copy_token(c.token) {
                let (be, is_write, slot, sub) = decode_copy_token(c.token);
                if let Some(b) = self.backends.get_mut(be) {
                    b.on_copy_completion(is_write, slot, sub, now);
                }
            } else {
                self.hbm_demand
                    .respond(c.token, now, &mut self.stats, events);
                self.ddr_demand
                    .respond(c.token, now, &mut self.stats, events);
            }
        }

        // 5. Collect back-end events: serviced data misses and
        //    completed copies.
        let mut resp = std::mem::take(&mut self.resp_scratch);
        let mut completed = std::mem::take(&mut self.completed_scratch);
        resp.clear();
        completed.clear();
        for b in &mut self.backends {
            b.pop_ready_responses(now, &mut resp);
            b.take_completed(&mut completed);
        }
        for (arrival, r) in resp.drain(..) {
            self.stats
                .dc_access_time
                .record(now.saturating_sub(arrival));
            events.responses.push(r);
        }
        for c in completed.drain(..) {
            if let Some(obs) = &mut self.obs {
                let key = (c.kind == CopyKind::Writeback, c.cfn.raw());
                if let Some(start) = obs.copy_started.remove(&key) {
                    let (label, track) = match c.kind {
                        CopyKind::Fill => ("fill", TRACK_FILL),
                        CopyKind::Writeback => ("writeback", TRACK_WRITEBACK),
                    };
                    obs.ring.push(
                        Span::complete(label, "dcache", start, now.saturating_sub(start), track)
                            .with_arg("cfn", c.cfn.raw()),
                    );
                }
            }
            match c.kind {
                CopyKind::Fill => {
                    self.stats.fills.inc();
                    self.stats.fill_bytes.add(PAGE_SIZE);
                    if self.cfg.blocking {
                        match self.fill_waiters.remove(&c.cfn.raw()) {
                            Some(waiters) => events.wakes.extend(waiters),
                            None => {
                                // Completed before the handler event
                                // was consumed.
                                self.early_fills.insert(c.cfn.raw());
                            }
                        }
                    }
                }
                CopyKind::Writeback => {
                    self.stats.writebacks.inc();
                    self.stats.writeback_bytes.add(PAGE_SIZE);
                }
            }
        }
        self.resp_scratch = resp;
        self.completed_scratch = completed;
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        // Retries and queued demand drain one entry per tick; the
        // front-end and back-ends report their own timers. Tracked
        // in-flight demand reads are reactive: their completions
        // surface on DRAM device edges the system watches separately.
        if !self.retry.is_empty() || !self.hbm_demand.is_empty() || !self.ddr_demand.is_empty() {
            return Some(now + 1);
        }
        let mut next = self.frontend.next_activity_at(now);
        for b in &self.backends {
            next = match (next, b.next_activity_at(now)) {
                (Some(a), Some(c)) => Some(a.min(c)),
                (a, c) => a.or(c),
            };
        }
        next
    }

    fn tlb_inserted(&mut self, core: CoreId, vpn: Vpn) {
        if let Some(pte) = self.frontend.page_table().get(vpn) {
            if let FrameKind::Cache(cfn) = pte.frame {
                self.frontend.frames_mut().tlb_set(cfn, core);
            }
        }
    }

    fn tlb_departed(&mut self, core: CoreId, vpn: Vpn) {
        if let Some(pte) = self.frontend.page_table().get(vpn) {
            if let FrameKind::Cache(cfn) = pte.frame {
                self.frontend.frames_mut().tlb_clear(cfn, core);
            }
        }
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn attach_obs(&mut self, reg: &Registry, ring: &SpanRing) {
        self.obs = Some(SchemeObs {
            pcshr_occupancy: reg.gauge(
                "dcache.pcshr_occupancy",
                "entries",
                "dcache",
                "PCSHR entries tracking in-flight page copies across all back-ends",
            ),
            free_frames: reg.gauge(
                "dcache.free_frames",
                "frames",
                "dcache",
                "Cache frames on the free queue at the sample point",
            ),
            retry_depth: reg.gauge(
                "dcache.retry_depth",
                "requests",
                "dcache",
                "Demand accesses queued for retry after a PCSHR sub-entry refusal",
            ),
            ring: ring.clone(),
            copy_started: HashMap::new(),
            issued: Vec::new(),
        });
    }

    fn obs_sample(&mut self) {
        let Some(obs) = &self.obs else { return };
        obs.pcshr_occupancy
            .set(self.backends.iter().map(|b| b.active() as u64).sum());
        obs.free_frames
            .set(self.frontend.frames().num_free() as u64);
        obs.retry_depth.set(self.retry.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_dcache::NoFlush;
    use nomad_dram::DramConfig;
    use nomad_types::{BlockAddr, ReqId, TrafficClass};

    struct Rig {
        scheme: NomadScheme,
        hbm: Dram,
        ddr: Dram,
        ev: SchemeEvents,
        now: Cycle,
        responses: Vec<MemResp>,
        wakes: Vec<CoreId>,
    }

    impl Rig {
        fn new(scheme: NomadScheme) -> Self {
            Rig {
                scheme,
                hbm: Dram::new(DramConfig::hbm()),
                ddr: Dram::new(DramConfig::ddr4_2ch()),
                ev: SchemeEvents::default(),
                now: 0,
                responses: Vec::new(),
                wakes: Vec::new(),
            }
        }

        fn run(&mut self, cycles: Cycle) {
            for _ in 0..cycles {
                self.scheme.issue(
                    self.now,
                    &mut self.hbm,
                    &mut self.ddr,
                    &mut NoFlush,
                    &mut self.ev,
                );
                let (mut from_hbm, mut from_ddr) = (Vec::new(), Vec::new());
                self.hbm.tick(&mut from_hbm);
                self.ddr.tick(&mut from_ddr);
                self.scheme
                    .complete(self.now, &from_hbm, &from_ddr, &mut self.ev);
                self.responses.append(&mut self.ev.responses);
                self.wakes.append(&mut self.ev.wakes);
                self.ev.clear();
                self.now += 1;
            }
        }

        fn walk(&mut self, core: CoreId, vpn: u64) -> WalkOutcome {
            self.scheme
                .walk(core, Vpn(vpn), SubBlockIdx(0), AccessKind::Read, self.now)
        }
    }

    #[test]
    fn nomad_tag_miss_wakes_after_tag_mgmt_not_fill() {
        let mut rig = Rig::new(NomadScheme::nomad(1 << 22));
        match rig.walk(0, 100) {
            WalkOutcome::Blocked { reason } => assert_eq!(reason, OsStallReason::TagMiss),
            _ => panic!("first touch must tag-miss"),
        }
        // Wake should arrive around 400 cycles, far before the ~4 KiB
        // page copy (≥ 64 DDR bursts) completes.
        rig.run(450);
        assert_eq!(rig.wakes, vec![0]);
        assert_eq!(rig.scheme.stats().fills.get(), 0, "fill still in flight");
        // Re-walk: now cached, no block.
        match rig.walk(0, 100) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, FrameKind::Cache(_)))
            }
            _ => panic!("resolved after handler"),
        }
        // Fill eventually completes.
        rig.run(20_000);
        assert_eq!(rig.scheme.stats().fills.get(), 1);
        assert_eq!(rig.scheme.stats().fill_bytes.get(), PAGE_SIZE);
    }

    #[test]
    fn tdc_tag_miss_wakes_only_after_fill() {
        let mut rig = Rig::new(NomadScheme::tdc(1 << 22, 4));
        match rig.walk(0, 100) {
            WalkOutcome::Blocked { reason } => {
                assert_eq!(reason, OsStallReason::BlockingFill)
            }
            _ => panic!("first touch must tag-miss"),
        }
        rig.run(450);
        assert!(rig.wakes.is_empty(), "TDC stays blocked during the copy");
        rig.run(20_000);
        assert_eq!(rig.wakes, vec![0]);
        assert_eq!(rig.scheme.stats().fills.get(), 1);
    }

    #[test]
    fn nomad_stall_is_much_shorter_than_tdc() {
        let stall = |mut rig: Rig| -> Cycle {
            match rig.walk(0, 7) {
                WalkOutcome::Blocked { .. } => {}
                _ => panic!("tag miss expected"),
            }
            let start = rig.now;
            while rig.wakes.is_empty() {
                rig.run(10);
                assert!(rig.now < 100_000, "no wake");
            }
            rig.now - start
        };
        let nomad = stall(Rig::new(NomadScheme::nomad(1 << 22)));
        let tdc = stall(Rig::new(NomadScheme::tdc(1 << 22, 4)));
        // An unloaded 4 KiB copy over 25.6 GB/s DDR takes ≈ 512 CPU
        // cycles on top of the ~400-cycle tag management that overlaps
        // it; NOMAD resumes right after tag management. Under real
        // bandwidth contention the gap grows to thousands of cycles
        // (integration tests cover that).
        assert!(
            tdc >= nomad + 150,
            "blocking stall {tdc} must exceed NOMAD's {nomad} by the copy tail"
        );
    }

    #[test]
    fn access_to_infilght_page_is_data_miss_with_buffer_hit() {
        let mut rig = Rig::new(NomadScheme::nomad(1 << 22));
        rig.walk(0, 100);
        rig.run(450); // handler done, copy in flight
        let cfn = match rig.walk(0, 100) {
            WalkOutcome::Ready { entry } => match entry.frame {
                FrameKind::Cache(c) => c,
                _ => panic!("cached"),
            },
            _ => panic!("ready"),
        };
        // Demand read of the critical sub-block (0): it should match a
        // PCSHR (data miss) and be serviced from the page copy buffer.
        rig.scheme.access(
            DcAccessReq {
                token: ReqId(77),
                addr: BlockAddr(cfn.raw() * 64),
                target: MemTarget::DramCache,
                kind: AccessKind::Read,
                core: 0,
                wants_response: true,
            },
            rig.now,
        );
        rig.run(3000);
        assert!(rig.responses.iter().any(|r| r.token == ReqId(77)));
        assert!(rig.scheme.stats().data_misses.get() >= 1);
        assert!(rig.scheme.stats().buffer_hits.get() >= 1);
    }

    #[test]
    fn data_hit_after_fill_completes_goes_to_hbm() {
        let mut rig = Rig::new(NomadScheme::nomad(1 << 22));
        rig.walk(0, 100);
        rig.run(30_000); // fill fully done
        let cfn = match rig.walk(0, 100) {
            WalkOutcome::Ready { entry } => match entry.frame {
                FrameKind::Cache(c) => c,
                _ => panic!(),
            },
            _ => panic!(),
        };
        let before = rig.hbm.stats().bytes_for(TrafficClass::DemandRead).read;
        rig.scheme.access(
            DcAccessReq {
                token: ReqId(5),
                addr: BlockAddr(cfn.raw() * 64 + 3),
                target: MemTarget::DramCache,
                kind: AccessKind::Read,
                core: 0,
                wants_response: true,
            },
            rig.now,
        );
        rig.run(2000);
        assert!(rig.responses.iter().any(|r| r.token == ReqId(5)));
        assert_eq!(rig.scheme.stats().dc_data_hits.get(), 1);
        assert!(rig.hbm.stats().bytes_for(TrafficClass::DemandRead).read > before);
    }

    #[test]
    fn capacity_pressure_triggers_daemon_and_writebacks() {
        // 64-frame cache; write to every page so evictions are dirty.
        let mut cfg = NomadConfig::nomad(64 * PAGE_SIZE);
        cfg.eviction_threshold = 8;
        cfg.eviction_batch = 16;
        let mut rig = Rig::new(NomadScheme::new(cfg));
        for v in 0..200u64 {
            match rig
                .scheme
                .walk(0, Vpn(v), SubBlockIdx(0), AccessKind::Write, rig.now)
            {
                WalkOutcome::Blocked { .. } => {
                    // Wait for the handler to finish before the next
                    // touch (single-threaded touch loop).
                    let before = rig.wakes.len();
                    while rig.wakes.len() == before {
                        rig.run(50);
                        assert!(rig.now < 10_000_000);
                    }
                }
                WalkOutcome::Ready { .. } => {}
            }
        }
        rig.run(100_000);
        let s = rig.scheme.stats();
        assert!(s.evictions.get() > 0, "daemon must reclaim");
        assert!(s.writebacks.get() > 0, "dirty pages must write back");
        assert!(
            rig.ddr.stats().bytes_for(TrafficClass::Writeback).written > 0,
            "writeback traffic reached DDR"
        );
    }

    #[test]
    fn distributed_backends_partition_by_cfn() {
        let mut cfg = NomadConfig::nomad(1 << 22);
        cfg.backends = 4;
        let mut rig = Rig::new(NomadScheme::new(cfg));
        for v in 0..8u64 {
            rig.walk(0, v);
            rig.run(1200); // serialized handlers: one per ~400 cycles
        }
        rig.run(50_000);
        assert_eq!(rig.scheme.stats().fills.get(), 8);
    }

    #[test]
    fn tag_mgmt_latency_grows_under_contention() {
        let mut rig = Rig::new(NomadScheme::nomad(1 << 22));
        // Burst of 8 simultaneous tag misses from different cores.
        for (core, v) in (0..8u64).enumerate() {
            match rig
                .scheme
                .walk(core, Vpn(v), SubBlockIdx(0), AccessKind::Read, 0)
            {
                WalkOutcome::Blocked { .. } => {}
                _ => panic!("tag miss expected"),
            }
        }
        rig.run(10_000);
        let s = rig.scheme.stats();
        assert_eq!(s.tag_mgmt_latency.count(), 8);
        assert!(s.tag_mgmt_latency.min() >= 400);
        assert!(
            s.tag_mgmt_latency.max() >= 3 * 400,
            "mutex queueing: max {}",
            s.tag_mgmt_latency.max()
        );
    }

    #[test]
    fn second_touch_policy_admits_only_reused_pages() {
        let mut cfg = NomadConfig::nomad(1 << 22);
        cfg.policy = crate::config::CachingPolicy::SecondTouch;
        let mut rig = Rig::new(NomadScheme::new(cfg));
        // First touch: bypassed — translation proceeds off-package
        // with no handler involvement.
        match rig.walk(0, 50) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, FrameKind::Phys(_)))
            }
            _ => panic!("first touch must bypass, not block"),
        }
        assert_eq!(rig.scheme.stats().policy_bypasses.get(), 1);
        assert_eq!(rig.scheme.stats().tag_misses.get(), 0);
        // Second touch: admitted like a normal tag miss.
        match rig.walk(0, 50) {
            WalkOutcome::Blocked { .. } => {}
            _ => panic!("second touch must admit the page"),
        }
        assert_eq!(rig.scheme.stats().tag_misses.get(), 1);
        rig.run(20_000);
        assert!(rig
            .scheme
            .frontend_mut()
            .page_table()
            .get(Vpn(50))
            .expect("mapped")
            .cached());
    }

    #[test]
    fn noncacheable_pages_bypass_everything() {
        let mut rig = Rig::new(NomadScheme::nomad(1 << 22));
        rig.scheme
            .frontend_mut()
            .page_table_mut()
            .set_noncacheable(Vpn(9), true);
        match rig.walk(0, 9) {
            WalkOutcome::Ready { entry } => {
                assert!(entry.noncacheable);
                assert!(matches!(entry.frame, FrameKind::Phys(_)));
            }
            _ => panic!("NC pages never block"),
        }
        assert_eq!(rig.scheme.stats().tag_misses.get(), 0);
    }
}
