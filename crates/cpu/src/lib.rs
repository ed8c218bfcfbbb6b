//! Trace-driven out-of-order core timing model.
//!
//! The paper's evaluation runs out-of-order cores whose performance is
//! dominated by the memory system; what the DRAM-cache schemes interact
//! with is the *order, concurrency and blocking behaviour* of the
//! memory requests a core emits, plus precise accounting of why the
//! core is stalled. [`Core`] models exactly that:
//!
//! * a reorder buffer of `rob_size` instructions, filled at
//!   `fetch_width` and drained in order at `commit_width`;
//! * non-blocking loads: memory operations dispatch as soon as they
//!   enter the ROB (subject to an LSQ limit), so multiple misses
//!   overlap — the memory-level parallelism MSHRs/PCSHRs exploit;
//! * posted stores (a store commits once issued);
//! * **OS stalls**: a blocking miss handler (TDC) or a tag-miss
//!   critical section (NOMAD) suspends the whole core; the paper's
//!   "CPUs executing OS routines are stalled" protocol;
//! * a stall-cycle breakdown (memory / OS-tag-management /
//!   OS-blocking-fill) — the raw data for Fig. 11.
//!
//! The core is plumbing-free: the system assembly pulls dispatched
//! memory operations from [`Core::pop_dispatch`] when the TLB/L1 can
//! take them and reports completions back with [`Core::mem_done`].

use nomad_obs::{Gauge, Registry};
use nomad_trace::TraceSource;
use nomad_types::stats::Counter;
use nomad_types::{AccessKind, CoreId, Cycle, NextActivity, VirtAddr};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Core microarchitectural parameters (Table II-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Reorder-buffer capacity in instructions.
    pub rob_size: usize,
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Maximum memory operations awaiting issue or completion (LSQ).
    pub max_outstanding_mem: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_size: 192,
            fetch_width: 4,
            commit_width: 4,
            max_outstanding_mem: 32,
        }
    }
}

/// Why the OS suspended this core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsStallReason {
    /// DC tag-miss handling (NOMAD front-end critical section, or the
    /// tag-management part of any OS-managed scheme).
    TagMiss,
    /// Blocking cache-fill wait (TDC's coupled miss handling).
    BlockingFill,
}

/// A memory operation the core wants to send into the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingMemOp {
    /// ROB slot identifier; echo it in [`Core::mem_done`].
    pub slot: u64,
    /// Core issuing the operation.
    pub core: CoreId,
    /// Virtual address.
    pub vaddr: VirtAddr,
    /// Read or write.
    pub kind: AccessKind,
}

/// Per-core performance counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// Cycles simulated (excluding warm-up after a reset).
    pub cycles: Counter,
    /// Instructions committed.
    pub instructions: Counter,
    /// Memory operations committed.
    pub mem_ops: Counter,
    /// Cycles with zero commits while the ROB head waited on memory.
    pub stall_mem: Counter,
    /// Cycles suspended in OS tag-management routines.
    pub stall_os_tag: Counter,
    /// Cycles suspended waiting for a blocking cache fill.
    pub stall_os_fill: Counter,
    /// Cycles with at least one commit.
    pub busy: Counter,
    /// Cycles with zero commits for front-end (dispatch) reasons.
    pub stall_frontend: Counter,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        nomad_types::stats::ratio(self.instructions.get(), self.cycles.get())
    }

    /// Total stalled cycles of any kind.
    pub fn total_stall(&self) -> u64 {
        self.stall_mem.get()
            + self.stall_os_tag.get()
            + self.stall_os_fill.get()
            + self.stall_frontend.get()
    }

    /// Fraction of cycles the application was stalled in OS routines
    /// (the paper's "application stall cycle ratio" for OS-managed
    /// schemes).
    pub fn os_stall_ratio(&self) -> f64 {
        nomad_types::stats::ratio(
            self.stall_os_tag.get() + self.stall_os_fill.get(),
            self.cycles.get(),
        )
    }

    /// Reset all counters (end of warm-up).
    pub fn reset(&mut self) {
        *self = CoreStats::default();
    }
}

#[derive(Debug, Clone, Copy)]
enum RobEntry {
    /// `n` plain ALU instructions.
    Ops(u32),
    /// One memory instruction; `slot` indexes the in-flight bit window.
    Mem { slot: u64 },
}

/// Observability handles for one core: sampled gauges mirroring the
/// [`CoreStats`] counters plus the instantaneous pipeline occupancies.
/// Attached only when the `nomad-obs` layer is enabled, so the core's
/// per-cycle path never touches them.
#[derive(Debug)]
struct CoreObs {
    instructions: Gauge,
    stall_mem: Gauge,
    stall_os: Gauge,
    rob_occupancy: Gauge,
    outstanding_mem: Gauge,
}

/// One trace-driven core.
pub struct Core {
    cfg: CoreConfig,
    id: CoreId,
    trace: Box<dyn TraceSource>,
    rob: VecDeque<RobEntry>,
    /// Instructions currently occupying the ROB.
    rob_occupancy: usize,
    /// In-flight memory ops as a sliding bit window. Slots are
    /// allocated sequentially at fetch and retired in ROB (=
    /// allocation) order, so the live set is always the contiguous
    /// range `[mem_head_slot, mem_head_slot + mem_live)`; bit `i` of
    /// `mem_done_bits` records completion of slot `mem_head_slot + i`.
    /// The ROB-head completion probe runs every stalled cycle, so this
    /// sits squarely on the hot path — a single shift-and-mask where a
    /// hash map would hash per probe.
    mem_head_slot: u64,
    mem_live: u32,
    mem_done_bits: u64,
    /// Dispatched-but-not-pulled memory operations.
    dispatch_q: VecDeque<PendingMemOp>,
    next_slot: u64,
    /// Remaining gap instructions of the current trace record.
    gap_left: u32,
    /// Memory op of the current record still to be fetched.
    mem_pending: Option<(AccessKind, VirtAddr)>,
    /// OS suspension deadline and reason.
    os_stall: Option<(Cycle, OsStallReason)>,
    stats: CoreStats,
    /// Sampled observability gauges (`None` unless the obs layer is on).
    obs: Option<CoreObs>,
}

impl core::fmt::Debug for Core {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob_occupancy)
            .field("outstanding_mem", &self.mem_live)
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Build a core running `trace`.
    pub fn new(id: CoreId, cfg: CoreConfig, trace: Box<dyn TraceSource>) -> Self {
        assert!(
            cfg.max_outstanding_mem <= 64,
            "the LSQ window is tracked in one 64-bit word"
        );
        Core {
            cfg,
            id,
            trace,
            rob: VecDeque::new(),
            rob_occupancy: 0,
            mem_head_slot: 0,
            mem_live: 0,
            mem_done_bits: 0,
            dispatch_q: VecDeque::new(),
            next_slot: 0,
            gap_left: 0,
            mem_pending: None,
            os_stall: None,
            stats: CoreStats::default(),
            obs: None,
        }
    }

    /// Register this core's sampled metrics (`cpu.<id>.*`) in `reg`.
    /// The gauges are refreshed only by [`obs_sample`](Self::obs_sample)
    /// — the timing path is untouched whether or not obs is attached.
    pub fn attach_obs(&mut self, reg: &Registry) {
        let p = |suffix: &str| format!("cpu.{}.{suffix}", self.id);
        self.obs = Some(CoreObs {
            instructions: reg.gauge(
                p("instructions"),
                "instructions",
                "cpu",
                "Instructions committed since the measurement reset",
            ),
            stall_mem: reg.gauge(
                p("stall_mem_cycles"),
                "cycles",
                "cpu",
                "Cycles with zero commits while the ROB head waited on memory",
            ),
            stall_os: reg.gauge(
                p("stall_os_cycles"),
                "cycles",
                "cpu",
                "Cycles suspended in OS routines (tag management + blocking fills)",
            ),
            rob_occupancy: reg.gauge(
                p("rob_occupancy"),
                "instructions",
                "cpu",
                "Instructions occupying the reorder buffer at the sample point",
            ),
            outstanding_mem: reg.gauge(
                p("outstanding_mem"),
                "requests",
                "cpu",
                "In-flight memory operations at the sample point",
            ),
        });
    }

    /// Refresh the attached gauges from the live counters; no-op when
    /// obs is not attached.
    pub fn obs_sample(&self) {
        let Some(obs) = &self.obs else { return };
        obs.instructions.set(self.stats.instructions.get());
        obs.stall_mem.set(self.stats.stall_mem.get());
        obs.stall_os
            .set(self.stats.stall_os_tag.get() + self.stats.stall_os_fill.get());
        obs.rob_occupancy.set(self.rob_occupancy as u64);
        obs.outstanding_mem.set(self.outstanding_mem() as u64);
    }

    /// Core identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Configuration.
    pub fn cfg(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The trace feeding this core (for checkpoint warming).
    pub fn trace(&self) -> &dyn TraceSource {
        self.trace.as_ref()
    }

    /// Suspend the core in an OS routine until `until` (exclusive).
    /// Longer of two overlapping stalls wins.
    pub fn stall_os(&mut self, until: Cycle, reason: OsStallReason) {
        match self.os_stall {
            Some((cur, _)) if cur >= until => {}
            _ => self.os_stall = Some((until, reason)),
        }
    }

    /// Whether the core is currently OS-suspended at `now`.
    pub fn is_os_stalled(&self, now: Cycle) -> bool {
        matches!(self.os_stall, Some((until, _)) if now < until)
    }

    /// End an OS suspension early (the scheme woke the core — e.g. a
    /// NOMAD tag-miss handler or a TDC blocking fill completed).
    /// No-op when the core is not suspended.
    pub fn wake_os(&mut self) {
        self.os_stall = None;
    }

    /// Next memory operation awaiting injection into the memory system,
    /// if any. The caller takes it only when downstream can accept it;
    /// use [`Core::push_back_dispatch`] to return it on failure.
    pub fn pop_dispatch(&mut self) -> Option<PendingMemOp> {
        self.dispatch_q.pop_front()
    }

    /// Return an op taken by [`Core::pop_dispatch`] that could not be
    /// injected this cycle (retried in order).
    pub fn push_back_dispatch(&mut self, op: PendingMemOp) {
        self.dispatch_q.push_front(op);
    }

    /// Report completion of the load in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not an outstanding memory operation.
    pub fn mem_done(&mut self, slot: u64) {
        let idx = slot.wrapping_sub(self.mem_head_slot);
        assert!(idx < self.mem_live as u64, "mem_done for unknown slot");
        self.mem_done_bits |= 1 << idx;
    }

    /// Number of in-flight memory operations (dispatched or queued).
    pub fn outstanding_mem(&self) -> usize {
        (self.mem_live - self.mem_done_bits.count_ones()) as usize
    }

    /// Advance one cycle: commit, then fetch/dispatch.
    pub fn tick(&mut self, now: Cycle) {
        self.stats.cycles.inc();

        // OS suspension freezes the whole core.
        if let Some((until, reason)) = self.os_stall {
            if now < until {
                match reason {
                    OsStallReason::TagMiss => self.stats.stall_os_tag.inc(),
                    OsStallReason::BlockingFill => self.stats.stall_os_fill.inc(),
                }
                return;
            }
            self.os_stall = None;
        }

        let committed = self.commit();
        self.fetch();

        if committed > 0 {
            self.stats.busy.inc();
        } else if self.head_waits_on_mem() {
            self.stats.stall_mem.inc();
        } else {
            self.stats.stall_frontend.inc();
        }
    }

    fn head_waits_on_mem(&self) -> bool {
        match self.rob.front() {
            Some(RobEntry::Mem { slot }) => {
                let idx = slot.wrapping_sub(self.mem_head_slot);
                idx < self.mem_live as u64 && self.mem_done_bits & (1 << idx) == 0
            }
            _ => false,
        }
    }

    fn commit(&mut self) -> usize {
        let mut budget = self.cfg.commit_width;
        let mut committed = 0;
        while budget > 0 {
            match self.rob.front_mut() {
                None => break,
                Some(RobEntry::Ops(n)) => {
                    let take = (*n as usize).min(budget);
                    *n -= take as u32;
                    budget -= take;
                    committed += take;
                    self.rob_occupancy -= take;
                    if *n == 0 {
                        self.rob.pop_front();
                    }
                }
                Some(RobEntry::Mem { slot }) => {
                    let slot = *slot;
                    let idx = slot.wrapping_sub(self.mem_head_slot);
                    let done = idx < self.mem_live as u64 && self.mem_done_bits & (1 << idx) != 0;
                    if done {
                        // ROB order equals allocation order, so the
                        // head Mem entry is always the window base.
                        debug_assert_eq!(idx, 0, "out-of-order mem retirement");
                        self.mem_done_bits >>= 1;
                        self.mem_head_slot += 1;
                        self.mem_live -= 1;
                        self.rob.pop_front();
                        self.rob_occupancy -= 1;
                        budget -= 1;
                        committed += 1;
                        self.stats.mem_ops.inc();
                    } else {
                        break;
                    }
                }
            }
        }
        self.stats.instructions.add(committed as u64);
        committed
    }

    fn fetch(&mut self) {
        let mut budget = self.cfg.fetch_width;
        while budget > 0 && self.rob_occupancy < self.cfg.rob_size {
            // Refill the record cursor.
            if self.gap_left == 0 && self.mem_pending.is_none() {
                let rec = self.trace.next_record();
                self.gap_left = rec.gap;
                self.mem_pending = Some((rec.kind, rec.vaddr));
            }
            if self.gap_left > 0 {
                let room = self.cfg.rob_size - self.rob_occupancy;
                let take = (self.gap_left as usize).min(budget).min(room);
                if take == 0 {
                    break;
                }
                if let Some(RobEntry::Ops(n)) = self.rob.back_mut() {
                    *n += take as u32;
                } else {
                    self.rob.push_back(RobEntry::Ops(take as u32));
                }
                self.gap_left -= take as u32;
                self.rob_occupancy += take;
                budget -= take;
                continue;
            }
            // Memory instruction: respect the LSQ limit.
            if self.mem_live as usize >= self.cfg.max_outstanding_mem {
                break;
            }
            let (kind, vaddr) = self.mem_pending.take().expect("record cursor");
            let slot = self.next_slot;
            self.next_slot += 1;
            // Stores are posted: done at dispatch. Loads wait.
            debug_assert_eq!(self.mem_head_slot + self.mem_live as u64, slot);
            if kind.is_write() {
                self.mem_done_bits |= 1 << self.mem_live;
            }
            self.mem_live += 1;
            self.rob.push_back(RobEntry::Mem { slot });
            self.rob_occupancy += 1;
            self.dispatch_q.push_back(PendingMemOp {
                slot,
                core: self.id,
                vaddr,
                kind,
            });
            budget -= 1;
        }
    }

    /// Whether dispatched memory operations await collection by the
    /// memory system ([`pop_dispatch`](Self::pop_dispatch)). Draining
    /// them is the *system's* per-cycle work, so the event kernel must
    /// not skip while this is set even if the core itself is stalled.
    #[inline]
    pub fn dispatch_pending(&self) -> bool {
        !self.dispatch_q.is_empty()
    }

    /// Whether a tick would be pure stall accounting: the ROB head
    /// waits on an incomplete memory op and fetch cannot place a single
    /// instruction (ROB full, or the pending record is a memory op and
    /// the LSQ is full). Every escape from this state goes through an
    /// external call (`mem_done`, `wake_os`).
    fn quiescent(&self) -> bool {
        let fetch_blocked = self.rob_occupancy >= self.cfg.rob_size
            || (self.gap_left == 0
                && self.mem_pending.is_some()
                && self.mem_live as usize >= self.cfg.max_outstanding_mem);
        self.head_waits_on_mem() && fetch_blocked
    }

    /// Bulk-account `delta` skipped cycles exactly as dense ticking
    /// would: the core must be OS-stalled past the whole window or
    /// `quiescent` (zero commits, head waiting on
    /// memory), so each skipped cycle increments `cycles` plus exactly
    /// one stall counter.
    pub fn idle_advance(&mut self, delta: Cycle) {
        self.stats.cycles.add(delta);
        if let Some((_, reason)) = self.os_stall {
            match reason {
                OsStallReason::TagMiss => self.stats.stall_os_tag.add(delta),
                OsStallReason::BlockingFill => self.stats.stall_os_fill.add(delta),
            }
        } else {
            debug_assert!(self.quiescent(), "idle advance on an active core");
            self.stats.stall_mem.add(delta);
        }
    }

    /// Counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Reset counters (end of warm-up); pipeline state is preserved.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

impl NextActivity for Core {
    /// * OS-stalled past `now + 1` — the stall-expiry cycle (or `None`
    ///   for an open-ended stall ended only by `wake_os`).
    /// * Otherwise `Some(now + 1)` unless the core is
    ///   `quiescent`, which only `mem_done` /
    ///   `wake_os` can end — then `None`.
    ///
    /// Query *after* all of a cycle's completions and wakes have been
    /// delivered; the predicates read the post-delivery state.
    #[inline]
    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        if let Some((until, _)) = self.os_stall {
            if until > now + 1 {
                return (until != Cycle::MAX).then_some(until);
            }
            return Some(now + 1);
        }
        if self.quiescent() {
            None
        } else {
            Some(now + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_trace::TraceRecord;

    /// A trace of fixed records cycling forever.
    struct Cycling(Vec<TraceRecord>, usize);

    impl TraceSource for Cycling {
        fn next_record(&mut self) -> TraceRecord {
            let r = self.0[self.1 % self.0.len()];
            self.1 += 1;
            r
        }
        fn name(&self) -> &str {
            "cycling"
        }
    }

    fn core_with(records: Vec<TraceRecord>) -> Core {
        Core::new(0, CoreConfig::default(), Box::new(Cycling(records, 0)))
    }

    fn rec(gap: u32, kind: AccessKind, addr: u64) -> TraceRecord {
        TraceRecord {
            gap,
            kind,
            vaddr: VirtAddr(addr),
        }
    }

    /// Environment completing loads after a fixed latency.
    fn run(core: &mut Core, cycles: Cycle, latency: Cycle) {
        let mut inflight: VecDeque<(Cycle, u64)> = VecDeque::new();
        for now in 0..cycles {
            core.tick(now);
            while let Some(op) = core.pop_dispatch() {
                if op.kind == AccessKind::Read {
                    inflight.push_back((now + latency, op.slot));
                }
            }
            while let Some(&(at, slot)) = inflight.front() {
                if at <= now {
                    core.mem_done(slot);
                    inflight.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    #[test]
    fn alu_only_ipc_is_commit_width_bound() {
        // One mem op per 1000 instructions, instant memory.
        let mut c = core_with(vec![rec(999, AccessKind::Read, 0x1000)]);
        run(&mut c, 10_000, 1);
        let ipc = c.stats().ipc();
        assert!(ipc > 3.5, "ipc {ipc}");
    }

    #[test]
    fn memory_bound_ipc_reflects_latency() {
        // Pure dependent-looking loads: gap 0, one load per record, ROB
        // allows overlap, so IPC ≈ min(MLP-limited, latency-limited).
        let mut fast = core_with(vec![rec(0, AccessKind::Read, 0x1000)]);
        run(&mut fast, 20_000, 10);
        let mut slow = core_with(vec![rec(0, AccessKind::Read, 0x1000)]);
        run(&mut slow, 20_000, 200);
        assert!(
            fast.stats().ipc() > 2.0 * slow.stats().ipc(),
            "fast {} slow {}",
            fast.stats().ipc(),
            slow.stats().ipc()
        );
        assert!(slow.stats().stall_mem.get() > 0);
    }

    #[test]
    fn loads_overlap_up_to_lsq_limit() {
        // With latency L and max_outstanding M, throughput approaches
        // M loads per L cycles rather than 1 per L.
        let cfg = CoreConfig {
            max_outstanding_mem: 8,
            ..CoreConfig::default()
        };
        let mut c = Core::new(
            0,
            cfg,
            Box::new(Cycling(vec![rec(0, AccessKind::Read, 0)], 0)),
        );
        run(&mut c, 10_000, 100);
        let loads = c.stats().mem_ops.get();
        // Serial execution would give ~100 loads; 8-way overlap gives ~800.
        assert!(loads > 400, "loads {loads}");
    }

    #[test]
    fn stores_commit_without_waiting() {
        let mut c = core_with(vec![rec(0, AccessKind::Write, 0x40)]);
        // Never complete anything: stores must still retire.
        for now in 0..1000 {
            c.tick(now);
            while c.pop_dispatch().is_some() {}
        }
        assert!(c.stats().instructions.get() > 500);
    }

    #[test]
    fn os_stall_freezes_core_and_is_accounted() {
        let mut c = core_with(vec![rec(10, AccessKind::Read, 0x40)]);
        c.stall_os(500, OsStallReason::TagMiss);
        run(&mut c, 1000, 5);
        assert_eq!(c.stats().stall_os_tag.get(), 500);
        assert!(c.stats().instructions.get() > 0, "resumes after stall");
        // A longer blocking-fill stall overrides.
        c.stall_os(2000, OsStallReason::BlockingFill);
        run(&mut c, 1000, 5);
        assert!(c.stats().stall_os_fill.get() > 0);
    }

    #[test]
    fn wake_os_ends_open_ended_stall() {
        let mut c = core_with(vec![rec(1, AccessKind::Read, 0)]);
        c.stall_os(Cycle::MAX, OsStallReason::TagMiss);
        assert!(c.is_os_stalled(1_000_000));
        c.wake_os();
        assert!(!c.is_os_stalled(1_000_000));
        run(&mut c, 100, 5);
        assert!(c.stats().instructions.get() > 0);
    }

    #[test]
    fn shorter_overlapping_stall_does_not_shrink() {
        let mut c = core_with(vec![rec(1, AccessKind::Read, 0)]);
        c.stall_os(1000, OsStallReason::TagMiss);
        c.stall_os(10, OsStallReason::BlockingFill);
        assert!(c.is_os_stalled(999));
    }

    #[test]
    fn dispatch_backpressure_round_trip() {
        let mut c = core_with(vec![rec(0, AccessKind::Read, 0x80)]);
        c.tick(0);
        let op = c.pop_dispatch().expect("op dispatched");
        c.push_back_dispatch(op);
        let again = c.pop_dispatch().expect("same op back");
        assert_eq!(op, again);
    }

    #[test]
    fn ipc_counts_exclude_warmup_after_reset() {
        let mut c = core_with(vec![rec(3, AccessKind::Read, 0)]);
        run(&mut c, 1000, 5);
        assert!(c.stats().cycles.get() == 1000);
        c.reset_stats();
        assert_eq!(c.stats().cycles.get(), 0);
        run(&mut c, 100, 5);
        assert_eq!(c.stats().cycles.get(), 100);
    }

    #[test]
    #[should_panic(expected = "unknown slot")]
    fn mem_done_unknown_slot_panics() {
        let mut c = core_with(vec![rec(0, AccessKind::Read, 0)]);
        c.mem_done(42);
    }

    /// The same environment as [`run`], but advancing with
    /// `next_activity_at` + `idle_advance` instead of ticking every
    /// cycle — the mini version of the system's event kernel.
    fn run_event(core: &mut Core, cycles: Cycle, latency: Cycle) {
        let mut inflight: VecDeque<(Cycle, u64)> = VecDeque::new();
        let mut now = 0;
        while now < cycles {
            core.tick(now);
            while let Some(op) = core.pop_dispatch() {
                if op.kind == AccessKind::Read {
                    inflight.push_back((now + latency, op.slot));
                }
            }
            while let Some(&(at, slot)) = inflight.front() {
                if at <= now {
                    core.mem_done(slot);
                    inflight.pop_front();
                } else {
                    break;
                }
            }
            let mut next = core.next_activity_at(now).unwrap_or(Cycle::MAX);
            if core.dispatch_pending() {
                next = next.min(now + 1);
            }
            if let Some(&(at, _)) = inflight.front() {
                next = next.min(at);
            }
            let next = next.min(cycles);
            assert!(next > now, "next activity must be in the future");
            if next > now + 1 {
                core.idle_advance(next - (now + 1));
            }
            now = next;
        }
    }

    fn assert_same_stats(a: &CoreStats, b: &CoreStats) {
        assert_eq!(a.cycles.get(), b.cycles.get(), "cycles");
        assert_eq!(a.instructions.get(), b.instructions.get(), "instructions");
        assert_eq!(a.mem_ops.get(), b.mem_ops.get(), "mem_ops");
        assert_eq!(a.stall_mem.get(), b.stall_mem.get(), "stall_mem");
        assert_eq!(a.stall_os_tag.get(), b.stall_os_tag.get(), "stall_os_tag");
        assert_eq!(
            a.stall_os_fill.get(),
            b.stall_os_fill.get(),
            "stall_os_fill"
        );
        assert_eq!(a.busy.get(), b.busy.get(), "busy");
        assert_eq!(
            a.stall_frontend.get(),
            b.stall_frontend.get(),
            "stall_frontend"
        );
    }

    #[test]
    fn event_advance_matches_dense_ticking() {
        // Mixes covering quiescence (long-latency loads), ROB pressure,
        // posted stores, and ALU-heavy stretches.
        let mixes: Vec<Vec<TraceRecord>> = vec![
            vec![rec(0, AccessKind::Read, 0x1000)],
            vec![rec(999, AccessKind::Read, 0x1000)],
            vec![
                rec(3, AccessKind::Read, 0x40),
                rec(0, AccessKind::Write, 0x80),
                rec(17, AccessKind::Read, 0xc0),
            ],
        ];
        for mix in mixes {
            for latency in [1, 10, 400] {
                let mut dense = core_with(mix.clone());
                let mut event = core_with(mix.clone());
                run(&mut dense, 20_000, latency);
                run_event(&mut event, 20_000, latency);
                assert_same_stats(dense.stats(), event.stats());
            }
        }
    }

    #[test]
    fn event_advance_matches_dense_under_os_stall() {
        let mut dense = core_with(vec![rec(2, AccessKind::Read, 0x40)]);
        let mut event = core_with(vec![rec(2, AccessKind::Read, 0x40)]);
        dense.stall_os(700, OsStallReason::TagMiss);
        event.stall_os(700, OsStallReason::TagMiss);
        run(&mut dense, 2_000, 30);
        run_event(&mut event, 2_000, 30);
        assert_same_stats(dense.stats(), event.stats());
    }

    #[test]
    fn next_activity_contract() {
        // A fresh core always has fetch work.
        let mut c = core_with(vec![rec(0, AccessKind::Read, 0)]);
        assert_eq!(c.next_activity_at(5), Some(6));

        // Open-ended OS stall: reactive until wake_os.
        c.stall_os(Cycle::MAX, OsStallReason::TagMiss);
        assert_eq!(c.next_activity_at(5), None);
        c.wake_os();

        // Finite OS stall: wakes exactly at `until`.
        c.stall_os(100, OsStallReason::BlockingFill);
        assert_eq!(c.next_activity_at(5), Some(100));
        assert_eq!(c.next_activity_at(99), Some(100));
        c.wake_os();

        // Saturate the LSQ with never-completing loads: quiescent.
        for now in 0..200 {
            c.tick(now);
            while c.pop_dispatch().is_some() {}
        }
        assert_eq!(
            c.next_activity_at(200),
            None,
            "head blocked + LSQ full is reactive"
        );
    }
}
