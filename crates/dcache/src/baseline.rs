//! The off-package-only baseline memory system (Fig. 9's "Baseline").

use crate::queue::DramQueue;
use crate::scheme::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, WalkOutcome};
use crate::stats::SchemeStats;
use nomad_cache::PageTable;
use nomad_dram::{Dram, DramCompletion};
use nomad_types::{AccessKind, CoreId, Cycle, Vpn};

/// A conventional memory system: every LLC miss goes to the off-package
/// DDR4; the on-package DRAM is unused. Serves as the lower performance
/// bound all Fig. 9 IPCs are normalized to.
#[derive(Debug)]
pub struct Baseline {
    page_table: PageTable,
    demand: DramQueue,
    stats: SchemeStats,
    queue_limit: usize,
}

impl Baseline {
    /// A baseline system.
    pub fn new() -> Self {
        Baseline {
            page_table: PageTable::new(),
            demand: DramQueue::new(),
            stats: SchemeStats::default(),
            queue_limit: 64,
        }
    }

    /// The scheme's page table (exposed for workload setup such as
    /// marking non-cacheable ranges or creating shared mappings).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }
}

impl Default for Baseline {
    fn default() -> Self {
        Self::new()
    }
}

impl DcScheme for Baseline {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn walk(
        &mut self,
        _core: CoreId,
        vpn: Vpn,
        _sub: nomad_types::SubBlockIdx,
        kind: AccessKind,
        _now: Cycle,
    ) -> WalkOutcome {
        WalkOutcome::Ready {
            entry: self.page_table.walk(vpn, kind.is_write()),
        }
    }

    fn prewarm(&mut self, _core: CoreId, vpn: Vpn, _dirty: bool) {
        self.page_table.pte_mut(vpn);
    }

    fn can_accept(&self) -> bool {
        self.demand.len() < self.queue_limit
    }

    fn access(&mut self, req: DcAccessReq, now: Cycle) {
        debug_assert!(matches!(req.target, nomad_types::MemTarget::OffPackage));
        if req.kind.is_write() {
            self.stats.demand_writes.inc();
        } else {
            self.stats.demand_reads.inc();
        }
        self.stats.offpkg_demand.inc();
        self.demand.submit(req, req.addr.base(), now);
    }

    fn issue(
        &mut self,
        _now: Cycle,
        _hbm: &mut Dram,
        ddr: &mut Dram,
        _flush: &mut dyn CacheFlush,
        _events: &mut SchemeEvents,
    ) {
        self.demand.drain(ddr);
    }

    fn complete(
        &mut self,
        now: Cycle,
        from_hbm: &[DramCompletion],
        from_ddr: &[DramCompletion],
        events: &mut SchemeEvents,
    ) {
        debug_assert!(from_hbm.is_empty(), "the baseline never uses the HBM");
        for c in from_ddr {
            self.demand.respond(c.token, now, &mut self.stats, events);
        }
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        // Queued demand needs a tick to drain into the DDR device.
        // Tracked in-flight reads are purely reactive: their
        // completions can only surface on a DDR device edge, and the
        // system bounds skips by the device's own next activity.
        if !self.demand.is_empty() {
            Some(now + 1)
        } else {
            None
        }
    }

    fn tlb_inserted(&mut self, _core: CoreId, _vpn: Vpn) {}

    fn tlb_departed(&mut self, _core: CoreId, _vpn: Vpn) {}

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
    use nomad_cache::FrameKind;
    use nomad_dram::DramConfig;
    use nomad_types::{BlockAddr, MemTarget, ReqId};

    #[test]
    fn walk_allocates_and_never_caches() {
        let mut b = Baseline::new();
        match b.walk(0, Vpn(5), nomad_types::SubBlockIdx(0), AccessKind::Read, 0) {
            WalkOutcome::Ready { entry } => {
                assert!(matches!(entry.frame, FrameKind::Phys(_)));
            }
            _ => panic!("baseline never blocks"),
        }
    }

    #[test]
    fn demand_read_served_by_ddr() {
        let mut b = Baseline::new();
        let mut hbm = Dram::new(DramConfig::hbm());
        let mut ddr = Dram::new(DramConfig::ddr4_2ch());
        let mut ev = SchemeEvents::default();
        b.access(
            DcAccessReq {
                token: ReqId(9),
                addr: BlockAddr(0x100),
                target: MemTarget::OffPackage,
                kind: AccessKind::Read,
                core: 0,
                wants_response: true,
            },
            0,
        );
        for now in 0..500 {
            step(&mut b, now, &mut hbm, &mut ddr, &mut ev);
        }
        assert_eq!(ev.responses.len(), 1);
        assert_eq!(ev.responses[0].token, ReqId(9));
        assert!(b.stats().dc_access_time.mean() > 50.0, "DDR latency");
        assert_eq!(hbm.stats().total_bytes(), 0, "HBM untouched");
    }
}
