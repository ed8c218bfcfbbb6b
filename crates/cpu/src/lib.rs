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
//!
//! A dispatch is the only thing a core does that anything outside it
//! sees, so the core is an event source: [`NextActivity::next_activity_at`]
//! is the first cycle on which it could dispatch, and
//! [`Core::advance`] replays the cycles before it — ALU commits and
//! fetches, OS stalls, memory stalls — exactly as ticking would.

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

/// `n / width`: the whole cycles that `n` instructions fill at `width`
/// a cycle. The kernel divides by a core width for every due it takes
/// from a core, so a power-of-two width shifts instead (a divide there
/// cost the eight-core Fig. 9 grid about 4%; EXPERIMENTS.md, "Sleeping
/// cores").
#[inline]
pub fn per_width(n: u64, width: usize) -> u64 {
    if width.is_power_of_two() {
        n >> width.trailing_zeros()
    } else {
        n / width as u64
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
    /// The cycle after the last one with a commit (0 before the first).
    commit_edge: Cycle,
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
            commit_edge: 0,
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

        let committed = self.commit(self.cfg.commit_width);
        self.fetch();

        if committed > 0 {
            self.stats.busy.inc();
            self.commit_edge = now + 1;
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

    /// Commit up to `budget` instructions from the ROB head, stopping
    /// at an incomplete load.
    fn commit(&mut self, mut budget: usize) -> usize {
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
            // The cursor is empty only before the first record.
            if self.mem_pending.is_none() {
                self.load_record();
            }
            if self.gap_left > 0 {
                let room = self.cfg.rob_size - self.rob_occupancy;
                let take = (self.gap_left as usize).min(budget).min(room);
                if take == 0 {
                    break;
                }
                self.push_ops(take);
                budget -= take;
                continue;
            }
            // Memory instruction: respect the LSQ limit.
            if self.mem_live as usize >= self.cfg.max_outstanding_mem {
                break;
            }
            let (kind, vaddr) = self.mem_pending.take().expect("record cursor");
            // Refill at once, so the cursor always holds the next memory
            // op and `next_activity_at` sees how far ahead it lies. The
            // records are read in the same order either way.
            self.load_record();
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

    /// Read the next trace record into the cursor.
    fn load_record(&mut self) {
        let rec = self.trace.next_record();
        self.gap_left = rec.gap;
        self.mem_pending = Some((rec.kind, rec.vaddr));
    }

    /// Fetch `n` ALU instructions of the current gap into the ROB. A
    /// `Mem` entry closes every record, so a back `Ops` entry holds only
    /// the current record's work: with the `n` ≤ `gap_left` added it
    /// stays within the record's `u32` gap.
    fn push_ops(&mut self, n: usize) {
        if let Some(RobEntry::Ops(ops)) = self.rob.back_mut() {
            *ops += n as u32;
        } else {
            self.rob.push_back(RobEntry::Ops(n as u32));
        }
        self.gap_left -= n as u32;
        self.rob_occupancy += n;
    }

    /// Whether dispatched memory operations await collection by the
    /// memory system ([`pop_dispatch`](Self::pop_dispatch)). Draining
    /// them is the *system's* per-cycle work, so the event kernel must
    /// not skip while this is set even if the core itself is stalled.
    #[inline]
    pub fn dispatch_pending(&self) -> bool {
        !self.dispatch_q.is_empty()
    }

    /// The cycle after the last one on which this core committed an
    /// instruction, ticked or replayed (0 before its first commit).
    pub fn commit_edge(&self) -> Cycle {
        self.commit_edge
    }

    /// Replay the `n` cycles `from..from + n` exactly as `n` calls of
    /// [`tick`](Self::tick) would. The window must end by
    /// [`next_activity_at`](NextActivity::next_activity_at), with no
    /// completion or wake inside it, so no memory op dispatches in it
    /// and the core's ALU work, OS stall and memory stall are all its
    /// own. An OS-stalled stretch and a stretch with the ROB head
    /// waiting on memory each cost the same whatever their length, and
    /// so does a steady full-width stretch (every cycle fetches a width
    /// of ALU work and commits a width of ALU work and completed loads)
    /// beyond one pass over the loads it commits. Only the few cycles
    /// between such stretches replay one tick at a time.
    pub fn advance(&mut self, from: Cycle, n: Cycle) {
        let end = from + n;
        let mut now = from;
        if let Some((until, reason)) = self.os_stall {
            let stalled = until.clamp(now, end) - now;
            self.stats.cycles.add(stalled);
            match reason {
                OsStallReason::TagMiss => self.stats.stall_os_tag.add(stalled),
                OsStallReason::BlockingFill => self.stats.stall_os_fill.add(stalled),
            }
            now += stalled;
            if now < end {
                self.os_stall = None;
            }
        }
        let slot = self.next_slot;
        let width = self.cfg.fetch_width as u64;
        while now < end {
            if self.head_waits_on_mem() {
                // Nothing commits before a completion: every cycle is a
                // memory stall, and fetch fills the ROB with the gap.
                let cycles = end - now;
                let room = (self.cfg.rob_size - self.rob_occupancy) as u64;
                let gap = u64::from(self.gap_left);
                debug_assert!(
                    gap / width >= cycles
                        || gap >= room
                        || self.mem_live as usize >= self.cfg.max_outstanding_mem,
                    "a memory op dispatches inside an advance window"
                );
                let fill = cycles.saturating_mul(width).min(gap).min(room);
                if fill > 0 {
                    self.push_ops(fill as usize);
                }
                self.stats.cycles.add(cycles);
                self.stats.stall_mem.add(cycles);
                break;
            }
            let steady = self.steady_cycles(end - now);
            if steady == 0 {
                self.tick(now);
                now += 1;
                continue;
            }
            // Fetch first: with no load waiting, the new ALU work is
            // as committable as the rest of the ROB.
            let alu = (steady * width) as usize;
            self.push_ops(alu);
            self.commit(alu);
            self.stats.cycles.add(steady);
            self.stats.busy.add(steady);
            now += steady;
            self.commit_edge = now;
        }
        debug_assert_eq!(
            self.next_slot, slot,
            "a memory op dispatched inside an advance window"
        );
    }

    /// How many of the next cycles, up to `max`, each commit and fetch
    /// exactly `fetch_width` instructions, the fetch all ALU work: the
    /// cursor's gap lasts, and the instructions ahead of the first
    /// incomplete load (the whole ROB, at least a width, when no load
    /// waits) last. Only with `commit_width` = `fetch_width`, which
    /// keeps the occupancy constant.
    fn steady_cycles(&self, max: Cycle) -> Cycle {
        let width = self.cfg.fetch_width;
        let fetches = self.gap_left as usize / width;
        if fetches == 0 || self.cfg.commit_width != width {
            return 0;
        }
        let commits = match self.ahead_of_waiting_load() {
            Some(ahead) => ahead / width,
            None if self.rob_occupancy >= width => fetches,
            None => 0,
        };
        (fetches.min(commits) as Cycle).min(max)
    }

    /// Instructions in the ROB ahead of its first incomplete load, or
    /// `None` when no load in it waits.
    fn ahead_of_waiting_load(&self) -> Option<usize> {
        let first = (!self.mem_done_bits).trailing_zeros();
        if first >= self.mem_live {
            return None;
        }
        let mut mems = 0;
        let mut ahead = 0;
        for entry in &self.rob {
            match *entry {
                RobEntry::Ops(n) => ahead += n as usize,
                RobEntry::Mem { .. } if mems == first => return Some(ahead),
                RobEntry::Mem { .. } => {
                    mems += 1;
                    ahead += 1;
                }
            }
        }
        unreachable!("every live memory slot has its ROB entry")
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
    /// The first cycle on which the core could dispatch a memory op;
    /// until then it only commits and fetches ALU work, which
    /// [`Core::advance`] replays.
    ///
    /// * The core runs again at `now + 1`, or when a finite OS stall
    ///   expires; an open-ended one, ended only by `wake_os`, gives
    ///   `None`.
    /// * From there fetch places at most `fetch_width` instructions a
    ///   cycle, and the cursor's memory op follows `gap_left` ALU ops,
    ///   so it cannot dispatch before `gap_left / fetch_width` cycles
    ///   later. That is exact while fetch runs at full width.
    /// * While the ROB head waits on an incomplete load nothing
    ///   commits: if the ROB cannot take the gap and the op, or the LSQ
    ///   is full, only `mem_done` lets the core dispatch, so `None`.
    /// * Before its first record, the next cycle.
    ///
    /// Query *after* all of a cycle's completions and wakes have been
    /// delivered; the predicates read the post-delivery state.
    #[inline]
    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        let start = match self.os_stall {
            Some((Cycle::MAX, _)) => return None,
            Some((until, _)) => until.max(now + 1),
            None => now + 1,
        };
        if self.mem_pending.is_none() {
            return Some(start);
        }
        let gap = self.gap_left as usize;
        if self.head_waits_on_mem()
            && (gap >= self.cfg.rob_size - self.rob_occupancy
                || self.mem_live as usize >= self.cfg.max_outstanding_mem)
        {
            return None;
        }
        Some(start + per_width(gap as u64, self.cfg.fetch_width))
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
    /// `next_activity_at` + `advance` instead of ticking every cycle —
    /// the mini version of the system's event kernel.
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
                core.advance(now + 1, next - (now + 1));
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

        // ALU work: the load after a 999-instruction gap dispatches once
        // fetch has placed the gap, four a cycle.
        let mut c = core_with(vec![rec(999, AccessKind::Read, 0)]);
        c.tick(0);
        assert_eq!(c.next_activity_at(0), Some(1 + 995 / 4));
        c.stall_os(50, OsStallReason::TagMiss);
        assert_eq!(c.next_activity_at(0), Some(50 + 995 / 4));
    }

    /// xorshift64*: the differential's fixed-seed randomness.
    struct Rng(u64);

    impl Rng {
        /// Uniform in `0..n`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    /// What the differential's windows covered, each a count of windows.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Every cycle committed a full width, over at least 8 cycles.
        steady: u64,
        /// A memory op committed: the ramp after a load completed.
        ramp: u64,
        /// Started with the ROB full.
        rob_full: u64,
        /// Started with every LSQ slot waiting on memory.
        lsq_full: u64,
        /// An OS stall expired inside the window.
        os_expired: u64,
        /// Nothing could move: every cycle a memory stall.
        quiescent: u64,
    }

    /// Two cores run `records`: `dense` ticks every cycle, `lazy` ticks
    /// only the event cycles (its own due, a load completion, an OS wake)
    /// and is `advance`d over each gap between them in random windows.
    /// Loads complete after a random latency; OS stalls, finite or ended by
    /// a wake, start at random event cycles. After every window the two
    /// cores must agree on stats, `next_activity_at`, `outstanding_mem`
    /// and the last commit, and the dense core must not have dispatched
    /// inside it (the due is never late).
    fn differential(records: &[TraceRecord], cfg: CoreConfig, seed: u64, cov: &mut Coverage) {
        const CYCLES: Cycle = 30_000;
        const LATENCIES: [Cycle; 6] = [1, 4, 30, 120, 400, 900];
        let new = || Core::new(0, cfg, Box::new(Cycling(records.to_vec(), 0)));
        let (mut dense, mut lazy) = (new(), new());
        let mut rng = Rng(seed | 1);
        let mut inflight: Vec<(Cycle, u64)> = Vec::new();
        let mut wake_at = Cycle::MAX;
        // The latest finite stall expiry set (0 once woken).
        let mut stalled_until = 0;
        let mut now = 0;
        while now < CYCLES {
            dense.tick(now);
            lazy.tick(now);
            while let Some(op) = dense.pop_dispatch() {
                assert_eq!(lazy.pop_dispatch(), Some(op), "dispatch diverged at {now}");
                if op.kind == AccessKind::Read {
                    let latency = LATENCIES[rng.below(LATENCIES.len() as u64) as usize];
                    inflight.push((now + latency, op.slot));
                }
            }
            assert_eq!(lazy.pop_dispatch(), None, "dispatch diverged at {now}");
            inflight.retain(|&(at, slot)| {
                if at > now {
                    return true;
                }
                dense.mem_done(slot);
                lazy.mem_done(slot);
                false
            });
            if wake_at == now {
                dense.wake_os();
                lazy.wake_os();
                wake_at = Cycle::MAX;
                stalled_until = 0;
            }
            if wake_at == Cycle::MAX && rng.below(64) == 0 {
                let reason = if rng.below(2) == 0 {
                    OsStallReason::TagMiss
                } else {
                    OsStallReason::BlockingFill
                };
                let until = now + 1 + rng.below(600);
                if rng.below(3) == 0 {
                    dense.stall_os(Cycle::MAX, reason);
                    lazy.stall_os(Cycle::MAX, reason);
                    wake_at = until;
                } else {
                    dense.stall_os(until, reason);
                    lazy.stall_os(until, reason);
                    stalled_until = stalled_until.max(until);
                }
            }
            let next = inflight
                .iter()
                .map(|&(at, _)| at)
                .fold(lazy.next_activity_at(now).unwrap_or(Cycle::MAX), Cycle::min)
                .min(wake_at)
                .min(CYCLES);
            let mut t = now + 1;
            while t < next {
                let n = 1 + rng.below(next - t);
                let before = dense.stats().clone();
                cov.rob_full += u64::from(dense.rob_occupancy == cfg.rob_size);
                cov.lsq_full += u64::from(dense.outstanding_mem() == cfg.max_outstanding_mem);
                cov.os_expired += u64::from(stalled_until > t && stalled_until < t + n);
                lazy.advance(t, n);
                for c in t..t + n {
                    dense.tick(c);
                    assert!(
                        !dense.dispatch_pending(),
                        "dispatch at {c}, before the due {next}"
                    );
                }
                t += n;
                assert_same_stats(dense.stats(), lazy.stats());
                assert_eq!(dense.next_activity_at(t - 1), lazy.next_activity_at(t - 1));
                assert_eq!(dense.outstanding_mem(), lazy.outstanding_mem());
                assert_eq!(dense.rob_occupancy, lazy.rob_occupancy);
                assert_eq!(dense.commit_edge(), lazy.commit_edge());
                let after = dense.stats();
                let committed = after.instructions.get() - before.instructions.get();
                let stalled = after.stall_mem.get() - before.stall_mem.get();
                cov.steady += u64::from(n >= 8 && committed == cfg.commit_width as u64 * n);
                cov.ramp += u64::from(after.mem_ops.get() > before.mem_ops.get());
                cov.quiescent += u64::from(stalled == n);
            }
            now = next;
        }
    }

    #[test]
    fn advance_matches_ticking_over_random_windows() {
        let mixes: Vec<Vec<TraceRecord>> = vec![
            // Long ALU stretches between loads: steady full-width runs.
            vec![rec(999, AccessKind::Read, 0x1000)],
            // Loads and a store in short gaps.
            vec![
                rec(3, AccessKind::Read, 0x40),
                rec(0, AccessKind::Write, 0x80),
                rec(17, AccessKind::Read, 0xc0),
            ],
            // Back-to-back loads: the LSQ fills.
            vec![
                rec(0, AccessKind::Read, 0x40),
                rec(1, AccessKind::Read, 0x80),
            ],
            // Gaps near the ROB size: the ROB fills behind a load.
            vec![
                rec(150, AccessKind::Read, 0x40),
                rec(60, AccessKind::Read, 0x80),
                rec(2, AccessKind::Write, 0xc0),
                rec(400, AccessKind::Read, 0x100),
            ],
        ];
        let configs = [
            CoreConfig::default(),
            CoreConfig {
                max_outstanding_mem: 8,
                ..CoreConfig::default()
            },
            // Unequal widths never take the steady jump.
            CoreConfig {
                commit_width: 2,
                ..CoreConfig::default()
            },
            // A width that is not a power of two.
            CoreConfig {
                fetch_width: 3,
                commit_width: 3,
                ..CoreConfig::default()
            },
        ];
        let mut cov = Coverage::default();
        for (m, mix) in mixes.iter().enumerate() {
            for (k, cfg) in configs.iter().enumerate() {
                differential(mix, *cfg, (m * 16 + k) as u64 * 0x9e37_79b9, &mut cov);
            }
        }
        assert!(
            cov.steady > 0
                && cov.ramp > 0
                && cov.rob_full > 0
                && cov.lsq_full > 0
                && cov.os_expired > 0
                && cov.quiescent > 0,
            "a window kind went uncovered: {cov:?}"
        );
    }

    /// With stores only nothing waits on a completion, so fetch runs at
    /// full width and the due is exact, whatever the width: every
    /// cycle's `next_activity_at` is the cycle of the next dispatch.
    #[test]
    fn next_activity_is_the_next_dispatch_when_nothing_waits() {
        let gaps = [3, 8, 0, 7, 1, 12, 4, 30, 2, 5];
        for width in [4, 3] {
            let cfg = CoreConfig {
                fetch_width: width,
                commit_width: width,
                ..CoreConfig::default()
            };
            let records = gaps
                .iter()
                .map(|&g| rec(g, AccessKind::Write, 0x40))
                .collect();
            let mut c = Core::new(0, cfg, Box::new(Cycling(records, 0)));
            let mut dues = Vec::new();
            let mut dispatches = Vec::new();
            for now in 0..2_000 {
                c.tick(now);
                if c.dispatch_pending() {
                    dispatches.push(now);
                }
                while c.pop_dispatch().is_some() {}
                dues.push(c.next_activity_at(now).expect("stores never block"));
            }
            for (now, due) in dues.into_iter().enumerate() {
                let Some(&next) = dispatches.iter().find(|&&d| d > now as Cycle) else {
                    break;
                };
                assert_eq!(due, next, "width {width}: due after cycle {now}");
            }
        }
    }

    /// A gap close to `u32::MAX` is one steady window: `advance` crosses
    /// it with the counts ticking gives (cycle 0 fetches, every later
    /// cycle commits and fetches a width), and the load dispatches on
    /// the due.
    #[test]
    fn a_gap_near_u32_max_is_one_steady_window() {
        let mut c = core_with(vec![rec(u32::MAX, AccessKind::Read, 0x40)]);
        c.tick(0);
        let due = c.next_activity_at(0).expect("ALU work only");
        c.advance(1, due - 1);
        let s = c.stats();
        assert_eq!(s.cycles.get(), due);
        assert_eq!(s.busy.get(), due - 1);
        assert_eq!(s.stall_frontend.get(), 1);
        assert_eq!(s.instructions.get(), 4 * (due - 1));
        assert_eq!(c.rob_occupancy, 4);
        assert_eq!(c.commit_edge(), due);
        assert!(!c.dispatch_pending());
        c.tick(due);
        assert!(c.dispatch_pending(), "the load dispatches on its due");
    }
}
