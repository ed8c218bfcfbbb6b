//! The [`DcScheme`] trait: the contract between the system assembly and
//! a DRAM-cache design.

use crate::stats::SchemeStats;
use nomad_cache::TlbEntry;
use nomad_cpu::OsStallReason;
use nomad_dram::{Dram, DramCompletion};
use nomad_types::{
    AccessKind, BlockAddr, CoreId, Cycle, MemResp, MemTarget, ReqId, SubBlockIdx, Vpn,
};

/// A demand access arriving at the DRAM-cache controller from the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcAccessReq {
    /// LLC-scoped token echoed in the response.
    pub token: ReqId,
    /// Post-translation block address.
    pub addr: BlockAddr,
    /// Address space of `addr` (cache frame vs physical frame).
    pub target: MemTarget,
    /// Read or write.
    pub kind: AccessKind,
    /// Originating core.
    pub core: CoreId,
    /// Whether a response is expected (LLC writebacks are posted).
    pub wants_response: bool,
}

impl DcAccessReq {
    /// The LLC response answering this access.
    pub fn response(&self) -> MemResp {
        MemResp {
            token: self.token,
            addr: self.addr,
            kind: self.kind,
            core: self.core,
        }
    }
}

/// Outcome of a page-table walk performed by the scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Translation available: install `entry` in the TLB and proceed.
    Ready {
        /// Entry to install.
        entry: TlbEntry,
    },
    /// An OS routine took over (DC tag-miss handler or blocking fill):
    /// the core must suspend until the scheme wakes it, then retry the
    /// walk.
    Blocked {
        /// Stall-accounting category.
        reason: OsStallReason,
    },
}

/// Events produced by one phase 5 of a scheme for the system to apply.
#[derive(Debug, Default)]
pub struct SchemeEvents {
    /// Demand responses for the LLC.
    pub responses: Vec<MemResp>,
    /// Cores whose OS suspension ended this cycle.
    pub wakes: Vec<CoreId>,
    /// VPNs to shoot down from every core's TLBs (forced reclamation
    /// of TLB-resident frames).
    pub shootdowns: Vec<Vpn>,
}

impl SchemeEvents {
    /// Clear all event lists (reuse between cycles).
    pub fn clear(&mut self) {
        self.responses.clear();
        self.wakes.clear();
        self.shootdowns.clear();
    }
}

/// Hierarchy-wide SRAM flush callback, implemented by the system
/// assembly: Algorithm 2's `flush_cache_range` invalidates SRAM lines
/// of a DC frame before it is evicted.
pub trait CacheFlush {
    /// Invalidate all SRAM-cached lines of DC page `page` (a cache
    /// frame number); returns `(lines_removed, dirty_lines)` across all
    /// levels.
    fn flush_dc_page(&mut self, page: u64) -> (usize, usize);
}

/// A no-op flusher for tests and standalone scheme benchmarks.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFlush;

impl CacheFlush for NoFlush {
    fn flush_dc_page(&mut self, _page: u64) -> (usize, usize) {
        (0, 0)
    }
}

/// A DRAM-cache scheme: owns the page table and all memory-side
/// behaviour below the LLC except the DRAM devices, which the system
/// ticks between a scheme's [`issue`](DcScheme::issue) and
/// [`complete`](DcScheme::complete).
pub trait DcScheme {
    /// Scheme name for reports ("Baseline", "TiD", "TDRAM", "Banshee",
    /// "TDC", "NOMAD", "Ideal").
    fn name(&self) -> &'static str;

    /// Perform the page-table walk for `vpn` on behalf of `core`
    /// (called at walk completion time; the architectural walk latency
    /// has already elapsed). `kind` is the access kind that triggered
    /// the walk and `sub` its sub-block offset within the page —
    /// Algorithm 1 forwards `offset(va)` to the back-end so the
    /// critical sub-block is fetched first.
    fn walk(
        &mut self,
        core: CoreId,
        vpn: Vpn,
        sub: SubBlockIdx,
        kind: AccessKind,
        now: Cycle,
    ) -> WalkOutcome;

    /// Install `vpn` as already-resident before the region of interest
    /// starts (zero-cost checkpoint warming, mirroring the paper's
    /// atomic-CPU fast-forward), optionally with its dirty state.
    /// Implementations allocate OS/tag state without generating
    /// traffic, latency or statistics. The default does nothing.
    fn prewarm(&mut self, core: CoreId, vpn: Vpn, dirty: bool) {
        let _ = (core, vpn, dirty);
    }

    /// Frames still free for checkpoint warming, if the scheme manages
    /// page frames (`None` for frame-less schemes like the baseline).
    fn free_frames(&self) -> Option<u64> {
        None
    }

    /// Whether the controller can take one more demand access.
    fn can_accept(&self) -> bool;

    /// Accept a demand access from the LLC.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called while
    /// [`can_accept`](DcScheme::can_accept) is `false`.
    fn access(&mut self, req: DcAccessReq, now: Cycle);

    /// Phase 5, first half, before the system ticks the DRAM devices:
    /// retry refused accesses, run OS routines and fill engines, and
    /// drain queued requests into `hbm` and `ddr` (each scheme through
    /// its [`DramQueue`](crate::DramQueue)s). Owed SRAM flushes go
    /// through `flush`; wakes and shootdowns go into `events`.
    fn issue(
        &mut self,
        now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        flush: &mut dyn CacheFlush,
        events: &mut SchemeEvents,
    );

    /// Phase 5, second half, after the system ticked both devices:
    /// route the cycle's completions, the HBM's (`from_hbm`) before the
    /// DDR's (`from_ddr`), then release delayed and back-end responses
    /// into `events`. Requests queued here reach a device at the next
    /// [`issue`](DcScheme::issue).
    fn complete(
        &mut self,
        now: Cycle,
        from_hbm: &[DramCompletion],
        from_ddr: &[DramCompletion],
        events: &mut SchemeEvents,
    );

    /// Earliest cycle strictly after `now` at which an
    /// [`issue`](DcScheme::issue) / [`complete`](DcScheme::complete)
    /// pair could do anything (progress queued work, release a delayed
    /// response, run an OS routine), or `None`
    /// while the scheme is quiescent and only an external `access` /
    /// `walk` / DRAM completion can create work.
    ///
    /// The contract matches [`nomad_types::NextActivity`]: answering
    /// *early* is always safe (`Some(now + 1)` ticks the scheme every
    /// cycle), answering *late* breaks dense/event parity. There is no
    /// default, so every scheme states its own. DRAM-device activity is
    /// the system's concern: the devices are queried separately, so a
    /// scheme only reports its own queues and timers here.
    fn next_activity_at(&self, now: Cycle) -> Option<Cycle>;

    /// TLB-residency notification: `vpn`'s translation entered `core`'s
    /// TLB hierarchy (TLB-directory set).
    fn tlb_inserted(&mut self, core: CoreId, vpn: Vpn);

    /// TLB-residency notification: `vpn`'s translation fully left
    /// `core`'s TLB hierarchy (TLB-directory clear).
    fn tlb_departed(&mut self, core: CoreId, vpn: Vpn);

    /// Scheme statistics.
    fn stats(&self) -> &SchemeStats;

    /// Reset statistics (end of warm-up).
    fn reset_stats(&mut self);

    /// Register scheme-specific metrics in `reg` and adopt `ring` as
    /// the span sink for copy/eviction traces. The system registers the
    /// generic [`SchemeStats`] gauges itself (see
    /// [`crate::SchemeStatsObs`]), so only schemes with extra internal
    /// state (e.g. NOMAD's PCSHR back-end) override this. The default
    /// does nothing.
    fn attach_obs(&mut self, reg: &nomad_obs::Registry, ring: &nomad_obs::SpanRing) {
        let _ = (reg, ring);
    }

    /// Refresh any gauges registered by
    /// [`attach_obs`](DcScheme::attach_obs); called at snapshot points.
    /// The default does nothing.
    fn obs_sample(&mut self) {}
}

#[cfg(test)]
pub(crate) mod harness {
    use super::*;

    /// One phase 5 of `scheme` over `hbm` and `ddr`, as the system runs
    /// it — issue, both device ticks, complete.
    pub(crate) fn step(
        scheme: &mut dyn DcScheme,
        now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        events: &mut SchemeEvents,
    ) {
        scheme.issue(now, hbm, ddr, &mut NoFlush, events);
        let (mut from_hbm, mut from_ddr) = (Vec::new(), Vec::new());
        hbm.tick(&mut from_hbm);
        ddr.tick(&mut from_ddr);
        scheme.complete(now, &from_hbm, &from_ddr, events);
    }
}
