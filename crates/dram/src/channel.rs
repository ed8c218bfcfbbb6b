//! One DRAM channel: command queue, FR-FCFS scheduler, data bus and
//! refresh.
//!
//! # Masked FR-FCFS
//!
//! The scheduler runs every device cycle, so both selection passes are
//! pruned with bit-masks over banks (at most 64 per channel, enforced by
//! [`BankFile`]):
//!
//! - `queued_mask` — bit `b` set while any queued command targets bank
//!   `b`; maintained incrementally by push/pop with a per-bank count.
//! - per-bank row-hit counts, one set for reads and one for writes:
//!   how many queued commands of that kind target their bank's open
//!   row, with a bit-mask of the banks holding any. They are kept
//!   current at push, CAS issue, ACT (which recounts that bank), PRE
//!   and refresh. Pass 1 looks only at banks holding a row hit of a
//!   kind whose data burst the bus can still fit and that are past
//!   their CAS timing; when there are none it is skipped, and
//!   otherwise its scan is certain to issue.
//! - pass 2 tracks the classic `protected`/`attempted` sets as words
//!   and skips any command whose bank is already in either set; once
//!   `queued_mask & !(attempted | protected)` is empty no remaining
//!   command can issue and the scan stops. This is behaviour-preserving
//!   because the dense scan gates PRE on `!attempted && !protected` and
//!   ACT on `!attempted` (a bank with a closed row is never protected),
//!   and commands on attempted banks have no side effects.
//!
//! The pre-refactor dense scan is kept under `#[cfg(test)]` as
//! [`Channel::tick_device_oracle`] and a seeded differential test pins
//! the masked scheduler to it cycle by cycle.
//!
//! # Due cycle
//!
//! Each channel keeps `due`, the exact-or-early device cycle at which
//! [`Channel::tick_device`] can next change channel state: the end of
//! an in-progress refresh, else the minimum of the next refresh start
//! and every queued command's issue candidate. It is recomputed only
//! when a tick changed state, and [`Channel::try_push`] folds the new
//! command's own candidate in O(1), so an edge before `due` needs no
//! scheduler pass at all. The recompute is O(queued banks): every
//! command on one bank shares one of at most four candidates (read
//! hit, write hit, conflict PRE, closed-bank ACT), and the row-hit
//! counts say which of them occur. The refresh start needs the latest
//! bank obligation, an O(banks) scan, so it is computed only when it
//! could be the minimum. The pre-count per-command scan is kept under
//! `#[cfg(test)]` as the due oracle.

use crate::bank::BankFile;
use crate::config::{DramConfig, TimingParams};
use crate::device::Probe;
use crate::stats::DramStats;
use nomad_types::{AccessKind, ReqId, TrafficClass};
use std::collections::VecDeque;

/// Error returned by [`Channel::try_push`] when the command queue is
/// full; the caller must retry later (backpressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePushError;

impl core::fmt::Display for QueuePushError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("channel command queue is full")
    }
}

impl std::error::Error for QueuePushError {}

#[derive(Debug, Clone)]
struct QueuedCmd {
    token: ReqId,
    bank: usize,
    row: u64,
    kind: AccessKind,
    class: TrafficClass,
    wants_completion: bool,
    /// CPU cycle at which the request was pushed (for latency stats).
    push_cpu: u64,
    /// Full data burst or tag-only probe (sets the burst length).
    probe: Probe,
    /// Whether this request had to activate its row (row miss) — set
    /// when the scheduler ACTs on its behalf.
    needed_act: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChannelCompletion {
    pub token: ReqId,
    pub kind: AccessKind,
    pub class: TrafficClass,
    /// Device cycle at which the data transfer finishes.
    pub done_at: u64,
    pub wants_completion: bool,
    /// CPU cycle at which the request was pushed.
    pub push_cpu: u64,
    /// Full data burst or tag-only probe (sets the bytes transferred).
    pub probe: Probe,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

/// Queued commands of one kind that target their bank's open row, per
/// bank, with bit `b` of `mask` set while bank `b` holds any.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RowHits {
    count: Vec<u32>,
    mask: u64,
}

impl RowHits {
    fn new(banks: usize) -> Self {
        RowHits {
            count: vec![0; banks],
            mask: 0,
        }
    }

    fn add(&mut self, b: usize) {
        self.count[b] += 1;
        self.mask |= 1u64 << b;
    }

    fn remove(&mut self, b: usize) {
        self.count[b] -= 1;
        if self.count[b] == 0 {
            self.mask &= !(1u64 << b);
        }
    }

    fn clear_bank(&mut self, b: usize) {
        self.count[b] = 0;
        self.mask &= !(1u64 << b);
    }

    fn clear(&mut self) {
        while self.mask != 0 {
            self.count[self.mask.trailing_zeros() as usize] = 0;
            self.mask &= self.mask - 1;
        }
    }
}

/// Index of `kind` into [`Channel::hits`].
#[inline]
fn hit_idx(kind: AccessKind) -> usize {
    usize::from(kind.is_write())
}

/// One independently scheduled DRAM channel.
#[derive(Debug)]
pub(crate) struct Channel {
    banks: BankFile,
    queue: VecDeque<QueuedCmd>,
    queue_depth: usize,
    /// Queued commands per bank, backing `queued_mask`.
    queued_count: Vec<u32>,
    /// Bit `b` set while `queued_count[b] > 0`.
    queued_mask: u64,
    /// Queued row hits per bank: reads at index 0, writes at 1.
    hits: [RowHits; 2],
    /// Device cycle after which the data bus is free.
    bus_free_at: u64,
    /// Earliest device cycle the next ACT may issue (tRRD).
    next_act_ok: u64,
    /// Earliest device cycles implied by the four-activate window: the
    /// oldest entry is when a new ACT stops violating tFAW.
    act_window: [u64; 4],
    /// Next scheduled refresh start.
    next_refresh: u64,
    /// If refreshing, the device cycle the refresh completes.
    refresh_until: Option<u64>,
    timing: TimingParams,
    /// Exact-or-early device cycle at which [`tick_device`](Self::tick_device)
    /// can next change channel state (see the module docs). Every
    /// candidate in it is an absolute device cycle derived from channel
    /// state, so it stays valid until that state changes.
    due: u64,
}

impl Channel {
    pub fn new(cfg: &DramConfig) -> Self {
        Channel {
            banks: BankFile::new(cfg.banks_per_channel),
            queue: VecDeque::with_capacity(cfg.queue_depth),
            queue_depth: cfg.queue_depth,
            queued_count: vec![0; cfg.banks_per_channel],
            queued_mask: 0,
            hits: [
                RowHits::new(cfg.banks_per_channel),
                RowHits::new(cfg.banks_per_channel),
            ],
            bus_free_at: 0,
            next_act_ok: 0,
            act_window: [0; 4],
            next_refresh: cfg.timing.t_refi,
            refresh_until: None,
            timing: cfg.timing,
            due: cfg.timing.t_refi,
        }
    }

    /// Exact-or-early device cycle at which [`tick_device`](Self::tick_device)
    /// can next change channel state; an edge before it is a no-op.
    #[inline]
    pub fn due(&self) -> u64 {
        self.due
    }

    /// Whether there is room for one more command.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_depth
    }

    /// Current queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue a decoded command.
    #[allow(clippy::too_many_arguments)]
    pub fn try_push(
        &mut self,
        token: ReqId,
        bank: usize,
        row: u64,
        kind: AccessKind,
        class: TrafficClass,
        wants_completion: bool,
        push_cpu: u64,
        probe: Probe,
    ) -> Result<(), QueuePushError> {
        if !self.can_accept() {
            return Err(QueuePushError);
        }
        self.queue.push_back(QueuedCmd {
            token,
            bank,
            row,
            kind,
            class,
            wants_completion,
            push_cpu,
            probe,
            needed_act: false,
        });
        self.queued_count[bank] += 1;
        self.queued_mask |= 1u64 << bank;
        if self.banks.open_row(bank) == Some(row) {
            self.hits[hit_idx(kind)].add(bank);
        }
        // A new command only adds its own candidate to the bound; a
        // refresh in progress freezes the scheduler until its end.
        if self.refresh_until.is_none() {
            self.due = self.due.min(self.issue_candidate(bank, row, kind));
        }
        Ok(())
    }

    /// Remove the queued command at `i`, keeping the occupancy mask in
    /// sync.
    fn take_queued(&mut self, i: usize) -> QueuedCmd {
        let cmd = self.queue.remove(i).expect("index valid");
        self.queued_count[cmd.bank] -= 1;
        if self.queued_count[cmd.bank] == 0 {
            self.queued_mask &= !(1u64 << cmd.bank);
        }
        cmd
    }

    fn act_allowed(&self, now: u64) -> bool {
        now >= self.next_act_ok && now >= self.act_window[0]
    }

    /// ACT the row of the queued command at `i` on its bank, and count
    /// the queued commands that now hit it.
    fn activate(&mut self, i: usize, now: u64) {
        let (bank, row) = (self.queue[i].bank, self.queue[i].row);
        self.banks.act(bank, row, now, &self.timing);
        self.queue[i].needed_act = true;
        self.next_act_ok = now + self.timing.t_rrd;
        self.act_window.rotate_left(1);
        self.act_window[3] = now + self.timing.t_faw;
        // A closed bank holds no row hits; recount this one.
        debug_assert!(self.hits.iter().all(|h| h.count[bank] == 0));
        for cmd in &self.queue {
            if cmd.bank == bank && cmd.row == row {
                self.hits[hit_idx(cmd.kind)].add(bank);
            }
        }
    }

    /// PRE bank `b`: its queued commands stop being row hits.
    fn precharge(&mut self, b: usize, now: u64) {
        self.banks.pre(b, now, &self.timing);
        for h in &mut self.hits {
            h.clear_bank(b);
        }
    }

    /// Handle the refresh machinery for this cycle. Returns
    /// `(consumed, changed)`: whether the cycle is consumed (refresh in
    /// progress or just started) so no command may issue, and whether
    /// a refresh started or ended.
    #[inline]
    fn tick_refresh(&mut self, now: u64, stats: &mut DramStats) -> (bool, bool) {
        let mut ended = false;
        if let Some(until) = self.refresh_until {
            if now < until {
                return (true, false);
            }
            self.refresh_until = None;
            ended = true;
        }
        if now >= self.next_refresh {
            // Wait for all banks to become precharge-able, then refresh.
            let drain = self.banks.max_busy_until();
            if now >= drain && now >= self.bus_free_at {
                let until = now + self.timing.t_rfc;
                self.banks.refresh_close_all(until);
                for h in &mut self.hits {
                    h.clear();
                }
                self.refresh_until = Some(until);
                self.next_refresh += self.timing.t_refi;
                stats.refreshes.inc();
                return (true, true);
            }
        }
        (false, ended)
    }

    /// Issue the row-hit CAS queued at `i` and record its completion.
    fn issue_cas(&mut self, i: usize, now: u64, out: &mut Vec<ChannelCompletion>) {
        let t = self.timing;
        let cmd = self.take_queued(i);
        self.hits[hit_idx(cmd.kind)].remove(cmd.bank);
        let data_start = match cmd.kind {
            AccessKind::Read => {
                self.banks.read(cmd.bank, now, &t);
                now + t.t_cl
            }
            AccessKind::Write => {
                self.banks.write(cmd.bank, now, &t);
                now + t.t_cwl
            }
        };
        // The probe sets the burst length: a tag-only probe moves
        // `t_tag` beats instead of a full `t_burst` data burst, so it
        // both finishes and frees the bus earlier.
        let beats = match cmd.probe {
            Probe::Data => t.t_burst,
            Probe::TagOnly => t.t_tag,
        };
        self.bus_free_at = data_start + beats;
        out.push(ChannelCompletion {
            token: cmd.token,
            kind: cmd.kind,
            class: cmd.class,
            done_at: data_start + beats,
            wants_completion: cmd.wants_completion,
            push_cpu: cmd.push_cpu,
            probe: cmd.probe,
            row_hit: !cmd.needed_act,
        });
    }

    /// Advance one device cycle: maybe start/finish a refresh, then try
    /// to issue at most one command (FR-FCFS: first ready row-hit CAS,
    /// else prepare the oldest request). Recomputes [`due`](Self::due)
    /// when channel state changed; an unchanged channel keeps its
    /// (then early) due, so the next edge ticks it again.
    pub fn tick_device(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        out: &mut Vec<ChannelCompletion>,
    ) {
        if self.schedule(now, stats, out) {
            self.recompute_due();
        }
    }

    /// The scheduler step behind [`tick_device`](Self::tick_device);
    /// returns whether channel state changed.
    fn schedule(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        out: &mut Vec<ChannelCompletion>,
    ) -> bool {
        let (consumed, refresh_changed) = self.tick_refresh(now, stats);
        // A refresh holds the cycle; otherwise, with nothing queued,
        // the scheduler has nothing to do.
        if consumed || self.queue.is_empty() {
            return refresh_changed;
        }

        // FR-FCFS pass 1: oldest CAS-ready row hit whose bus slot is
        // free. Only banks holding a queued row hit of a kind whose
        // data burst the bus can fit, and past their CAS timing, can
        // issue one; the scan then finds the oldest such command.
        let t = self.timing;
        let rd = if now + t.t_cl >= self.bus_free_at {
            self.hits[0].mask
        } else {
            0
        };
        let wr = if now + t.t_cwl >= self.bus_free_at {
            self.hits[1].mask
        } else {
            0
        };
        let ready = self.banks.cas_ready_mask(rd | wr, now);
        let ok = [rd & ready, wr & ready];
        if ok[0] | ok[1] != 0 {
            let banks = &self.banks;
            let i = self
                .queue
                .iter()
                .position(|cmd| {
                    ok[hit_idx(cmd.kind)] & (1u64 << cmd.bank) != 0
                        && banks.open_row(cmd.bank) == Some(cmd.row)
                })
                .expect("a row-hit count names a queued command");
            self.issue_cas(i, now, out);
            return true;
        }

        // FR-FCFS pass 2: prepare a bank for the oldest request that
        // can make progress. Scanning past blocked requests (instead of
        // stopping at the oldest) is what exposes bank-level
        // parallelism; banks whose open row an older request still
        // needs are protected from precharge (no row stealing). Each
        // bank is decided by its oldest queued command, so once every
        // queued bank is attempted or protected the scan stops.
        let act_ok = self.act_allowed(now);
        let mut protected: u64 = 0; // open rows older requests rely on
        let mut attempted: u64 = 0; // banks already considered
        for i in 0..self.queue.len() {
            let remaining = self.queued_mask & !(attempted | protected);
            if remaining == 0 {
                break;
            }
            let (bank_idx, row) = {
                let cmd = &self.queue[i];
                (cmd.bank, cmd.row)
            };
            let bit = 1u64 << bank_idx;
            if remaining & bit == 0 {
                continue;
            }
            match self.banks.open_row(bank_idx) {
                Some(open) if open == row => {
                    // Row already open; waiting on tCCD or the bus.
                    protected |= bit;
                }
                Some(_) => {
                    if self.banks.can_pre(bank_idx, now) {
                        self.precharge(bank_idx, now);
                        return true;
                    }
                    attempted |= bit;
                }
                None => {
                    if self.banks.can_act(bank_idx, now) && act_ok {
                        self.activate(i, now);
                        return true;
                    }
                    attempted |= bit;
                }
            }
        }
        refresh_changed
    }

    /// The pre-refactor dense FR-FCFS scan, kept verbatim as a parity
    /// oracle for [`tick_device`](Self::tick_device).
    #[cfg(test)]
    pub(crate) fn tick_device_oracle(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        out: &mut Vec<ChannelCompletion>,
    ) {
        if self.tick_refresh(now, stats).0 {
            return;
        }

        // Pass 1: linear scan over every queued command.
        let t = self.timing;
        let mut cas_idx = None;
        for (i, cmd) in self.queue.iter().enumerate() {
            if self.banks.can_cas(cmd.bank, cmd.row, now) {
                let data_start = match cmd.kind {
                    AccessKind::Read => now + t.t_cl,
                    AccessKind::Write => now + t.t_cwl,
                };
                if data_start >= self.bus_free_at {
                    cas_idx = Some(i);
                    break;
                }
            }
        }
        if let Some(i) = cas_idx {
            self.issue_cas(i, now, out);
            return;
        }

        // Pass 2: full scan with per-command mask tests, no pruning.
        let act_ok = self.act_allowed(now);
        let mut protected: u64 = 0;
        let mut attempted: u64 = 0;
        for i in 0..self.queue.len() {
            let (bank_idx, row) = {
                let cmd = &self.queue[i];
                (cmd.bank, cmd.row)
            };
            let bit = 1u64 << (bank_idx & 63);
            match self.banks.open_row(bank_idx) {
                Some(open) if open == row => {
                    protected |= bit;
                }
                Some(_) => {
                    if attempted & bit == 0
                        && protected & bit == 0
                        && self.banks.can_pre(bank_idx, now)
                    {
                        self.precharge(bank_idx, now);
                        return;
                    }
                    attempted |= bit;
                }
                None => {
                    if attempted & bit == 0 && self.banks.can_act(bank_idx, now) && act_ok {
                        self.activate(i, now);
                        return;
                    }
                    attempted |= bit;
                }
            }
        }
    }

    /// Earliest device cycle at which a command to (`bank`, `row`) could
    /// issue, from the live [`BankFile`] timing words: a CAS (bank CAS
    /// timing plus the data-bus gate, `data_start = now + tCL/tCWL ≥
    /// bus_free_at`) on its open row, a PRE on a row conflict, or an
    /// ACT (gated by tRRD and the tFAW window) on a closed bank. It
    /// ignores only constraints that can delay an issue further
    /// (FR-FCFS protected/attempted sets, older commands), so it is
    /// exact or early.
    fn issue_candidate(&self, bank: usize, row: u64, kind: AccessKind) -> u64 {
        match self.banks.open_row(bank) {
            Some(open) if open == row => {
                let lead = match kind {
                    AccessKind::Read => self.timing.t_cl,
                    AccessKind::Write => self.timing.t_cwl,
                };
                self.banks
                    .cas_ready_at(bank)
                    .max(self.bus_free_at.saturating_sub(lead))
            }
            Some(_) => self.banks.pre_ready_at(bank),
            None => self
                .banks
                .act_ready_at(bank)
                .max(self.next_act_ok)
                .max(self.act_window[0]),
        }
    }

    /// Recompute [`due`](Self::due) from the current channel state: the
    /// end of an in-progress refresh (the scheduler is frozen until
    /// then), else the next refresh start — schedule, bank drain and
    /// bus must all allow it — or any queued command's issue candidate,
    /// whichever is first. Commands on one bank share the candidates of
    /// [`issue_candidate`](Self::issue_candidate), so one pass over the
    /// queued banks finds the minimum.
    fn recompute_due(&mut self) {
        if let Some(until) = self.refresh_until {
            self.due = until;
            return;
        }
        let mut next = u64::MAX;
        let mut queued = self.queued_mask;
        while queued != 0 {
            let b = queued.trailing_zeros() as usize;
            queued &= queued - 1;
            let Some(open) = self.banks.open_row(b) else {
                // Every command on a closed bank waits for the same ACT,
                // whatever its row.
                next = next.min(self.issue_candidate(b, 0, AccessKind::Read));
                continue;
            };
            let (rd, wr) = (self.hits[0].count[b], self.hits[1].count[b]);
            if rd > 0 {
                next = next.min(self.issue_candidate(b, open, AccessKind::Read));
            }
            if wr > 0 {
                next = next.min(self.issue_candidate(b, open, AccessKind::Write));
            }
            if self.queued_count[b] > rd + wr {
                next = next.min(self.banks.pre_ready_at(b));
            }
        }
        // The refresh start is at least the schedule and the bus; the
        // bank drain, an O(banks) scan, matters only past both.
        let floor = self.next_refresh.max(self.bus_free_at);
        if next > floor {
            next = next.min(floor.max(self.banks.max_busy_until()));
        }
        self.due = next;
    }

    /// The pre-count due scan, kept as the oracle for
    /// [`recompute_due`](Self::recompute_due): one issue candidate per
    /// queued command, stopping once the minimum is at most `now + 1`.
    #[cfg(test)]
    fn due_oracle(&self, now: u64) -> u64 {
        if let Some(until) = self.refresh_until {
            return until;
        }
        let mut next = self
            .next_refresh
            .max(self.banks.max_busy_until())
            .max(self.bus_free_at);
        for cmd in &self.queue {
            if next <= now + 1 {
                break;
            }
            next = next.min(self.issue_candidate(cmd.bank, cmd.row, cmd.kind));
        }
        next
    }

    /// Assert the scheduler's bookkeeping after device cycle `now`: the
    /// row-hit counts and masks equal a recount from the queue, and
    /// `due` clamped to `now + 1` equals the oracle's.
    #[cfg(test)]
    pub(crate) fn assert_bookkeeping(&self, now: u64) {
        let mut recount = [
            RowHits::new(self.banks.len()),
            RowHits::new(self.banks.len()),
        ];
        for cmd in &self.queue {
            if self.banks.open_row(cmd.bank) == Some(cmd.row) {
                recount[hit_idx(cmd.kind)].add(cmd.bank);
            }
        }
        assert_eq!(self.hits, recount, "row-hit counts at device cycle {now}");
        assert_eq!(
            self.due.max(now + 1),
            self.due_oracle(now).max(now + 1),
            "due diverged from the oracle at device cycle {now}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> (Channel, DramConfig) {
        let cfg = DramConfig::hbm();
        (Channel::new(&cfg), cfg)
    }

    fn drain_until(
        ch: &mut Channel,
        stats: &mut DramStats,
        max_cycles: u64,
    ) -> Vec<ChannelCompletion> {
        let mut out = Vec::new();
        for now in 0..max_cycles {
            ch.tick_device(now, stats, &mut out);
        }
        out
    }

    #[test]
    fn single_read_completes_with_idle_latency() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 200);
        assert_eq!(done.len(), 1);
        let t = cfg.timing;
        // ACT at 0, CAS at tRCD, data done at tRCD + tCL + tBURST.
        assert_eq!(done[0].done_at, t.t_rcd + t.t_cl + t.t_burst);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn second_read_same_row_is_a_row_hit() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        for i in 0..2 {
            ch.try_push(
                ReqId(i),
                0,
                5,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 300);
        assert_eq!(done.len(), 2);
        assert!(!done[0].row_hit);
        assert!(done[1].row_hit);
        assert!(done[1].done_at > done[0].done_at);
    }

    #[test]
    fn row_conflict_requires_pre_act() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        ch.try_push(
            ReqId(2),
            0,
            9,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 500);
        assert_eq!(done.len(), 2);
        let t = cfg.timing;
        // Second access must wait ≥ tRAS + tRP + tRCD + tCL after the first ACT.
        assert!(done[1].done_at >= t.t_ras + t.t_rp + t.t_rcd + t.t_cl);
        assert!(!done[1].row_hit);
    }

    #[test]
    fn queue_backpressure() {
        let (mut ch, cfg) = channel();
        for i in 0..cfg.queue_depth as u64 {
            ch.try_push(
                ReqId(i),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        assert!(!ch.can_accept());
        assert_eq!(
            ch.try_push(
                ReqId(99),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data
            ),
            Err(QueuePushError)
        );
    }

    #[test]
    fn bus_serializes_row_hit_bursts() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        // 8 row hits to the same row: completions must be spaced ≥ tBURST.
        for i in 0..8 {
            ch.try_push(
                ReqId(i),
                0,
                0,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 400);
        assert_eq!(done.len(), 8);
        for pair in done.windows(2) {
            assert!(pair[1].done_at >= pair[0].done_at + cfg.timing.t_burst);
        }
    }

    #[test]
    fn four_activate_window_throttles_acts() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        // Five row misses to five different banks: the fifth ACT must
        // wait for the four-activate window to slide.
        for i in 0..5 {
            ch.try_push(
                ReqId(i),
                i as usize,
                7,
                AccessKind::Read,
                TrafficClass::DemandRead,
                true,
                0,
                Probe::Data,
            )
            .unwrap();
        }
        let done = drain_until(&mut ch, &mut stats, 500);
        assert_eq!(done.len(), 5);
        let t = cfg.timing;
        // ACTs at 0, tRRD, 2·tRRD, 3·tRRD; the fifth no earlier than
        // tFAW. Its data can finish no earlier than tFAW + tRCD + tCL.
        let min_fifth = t.t_faw + t.t_rcd + t.t_cl + t.t_burst;
        let last = done.iter().map(|c| c.done_at).max().expect("non-empty");
        assert!(
            last >= min_fifth,
            "fifth access at {last}, needs >= {min_fifth}"
        );
    }

    #[test]
    fn refresh_eventually_happens() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        let mut out = Vec::new();
        for now in 0..(cfg.timing.t_refi * 3) {
            ch.tick_device(now, &mut stats, &mut out);
        }
        assert!(stats.refreshes.get() >= 2);
    }

    #[test]
    fn different_banks_overlap() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        ch.try_push(
            ReqId(1),
            0,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        ch.try_push(
            ReqId(2),
            1,
            7,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        let done = drain_until(&mut ch, &mut stats, 300);
        assert_eq!(done.len(), 2);
        let t = cfg.timing;
        // Bank-level parallelism: the second read should not pay a full
        // serialized PRE+ACT+CAS chain — only the tRRD ACT offset + burst.
        assert!(done[1].done_at <= t.t_rrd + t.t_rcd + t.t_cl + 2 * t.t_burst);
    }

    /// splitmix64 step, for a dependency-free seeded stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The masked scheduler must match the dense-scan oracle cycle by
    /// cycle under seeded random traffic: identical completions,
    /// identical refresh counts, identical residual queues — with the
    /// row-hit counts and the due cycle checked after every cycle.
    #[test]
    fn masked_scheduler_matches_dense_oracle() {
        for (seed, cfg) in [
            (1u64, DramConfig::hbm()),
            (2, DramConfig::hbm()),
            (3, DramConfig::ddr4_2ch()),
            (4, DramConfig::ddr4_2ch()),
        ] {
            let mut fast = Channel::new(&cfg);
            let mut dense = Channel::new(&cfg);
            let mut stats_fast = DramStats::new(&cfg);
            let mut stats_dense = DramStats::new(&cfg);
            let mut out_fast = Vec::new();
            let mut out_dense = Vec::new();
            let mut rng = seed;
            let mut token = 0u64;
            for now in 0..(cfg.timing.t_refi * 4) {
                // A bursty arrival process over few rows per bank keeps
                // all three scheduler outcomes (row hit, conflict,
                // empty-bank ACT) exercised.
                if mix(&mut rng).is_multiple_of(5) && fast.can_accept() {
                    token += 1;
                    let bank = (mix(&mut rng) % cfg.banks_per_channel as u64) as usize;
                    let row = mix(&mut rng) % 4;
                    let kind = if mix(&mut rng).is_multiple_of(3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    fast.try_push(
                        ReqId(token),
                        bank,
                        row,
                        kind,
                        TrafficClass::DemandRead,
                        true,
                        now,
                        Probe::Data,
                    )
                    .unwrap();
                    dense
                        .try_push(
                            ReqId(token),
                            bank,
                            row,
                            kind,
                            TrafficClass::DemandRead,
                            true,
                            now,
                            Probe::Data,
                        )
                        .unwrap();
                }
                fast.tick_device(now, &mut stats_fast, &mut out_fast);
                dense.tick_device_oracle(now, &mut stats_dense, &mut out_dense);
                assert_eq!(out_fast, out_dense, "seed {seed} diverged at cycle {now}");
                fast.assert_bookkeeping(now);
            }
            assert!(!out_fast.is_empty(), "traffic must complete something");
            assert_eq!(fast.queue_len(), dense.queue_len());
            assert_eq!(fast.queued_mask, dense.queued_mask);
            assert_eq!(stats_fast.refreshes.get(), stats_dense.refreshes.get());
        }
    }

    /// Traffic in which the refresh term is the minimum due. With a
    /// four-activate window longer than tRAS, the fifth ACT of a burst
    /// to distinct banks waits past every bank's drain, so a refresh
    /// falling due meanwhile is the channel's next event. A burst lands
    /// 1 to 90 cycles before each refresh, every lead in turn; the
    /// channel must match the dense oracle, and its due the oracle's,
    /// after every cycle.
    #[test]
    fn refresh_behind_a_four_activate_wait_is_the_due() {
        let mut cfg = DramConfig::hbm();
        cfg.timing.t_faw = 2 * cfg.timing.t_ras;
        let mut fast = Channel::new(&cfg);
        let mut dense = Channel::new(&cfg);
        let mut stats_fast = DramStats::new(&cfg);
        let mut stats_dense = DramStats::new(&cfg);
        let mut out_fast = Vec::new();
        let mut out_dense = Vec::new();
        let mut rng = 5u64;
        let mut token = 0u64;
        let mut lead = 1;
        let mut refresh_first = 0;
        for now in 0..(cfg.timing.t_refi * 92) {
            if now + lead == fast.next_refresh {
                for bank in 0..6 {
                    token += 1;
                    let row = mix(&mut rng) % 64;
                    for ch in [&mut fast, &mut dense] {
                        ch.try_push(
                            ReqId(token),
                            bank,
                            row,
                            AccessKind::Read,
                            TrafficClass::DemandRead,
                            true,
                            now,
                            Probe::Data,
                        )
                        .unwrap();
                    }
                }
                lead = lead % 90 + 1;
            }
            fast.tick_device(now, &mut stats_fast, &mut out_fast);
            dense.tick_device_oracle(now, &mut stats_dense, &mut out_dense);
            assert_eq!(out_fast, out_dense, "diverged at cycle {now}");
            fast.assert_bookkeeping(now);
            let refresh = fast
                .next_refresh
                .max(fast.bus_free_at)
                .max(fast.banks.max_busy_until());
            let first_cmd = fast
                .queue
                .iter()
                .map(|c| fast.issue_candidate(c.bank, c.row, c.kind))
                .min();
            refresh_first += u64::from(
                fast.refresh_until.is_none()
                    && refresh > now + 1
                    && first_cmd.is_some_and(|c| c > refresh),
            );
        }
        assert!(refresh_first > 0, "the refresh term was never the minimum");
        assert_eq!(stats_fast.refreshes.get(), stats_dense.refreshes.get());
    }

    /// The empty-queue early-out must not perturb refresh scheduling.
    #[test]
    fn early_out_preserves_refresh_schedule() {
        let (mut ch, cfg) = channel();
        let mut stats = DramStats::new(&cfg);
        let mut out = Vec::new();
        // One access, then a long idle window spanning two refreshes.
        ch.try_push(
            ReqId(1),
            2,
            5,
            AccessKind::Read,
            TrafficClass::DemandRead,
            true,
            0,
            Probe::Data,
        )
        .unwrap();
        for now in 0..(cfg.timing.t_refi * 3) {
            ch.tick_device(now, &mut stats, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert!(stats.refreshes.get() >= 2);
    }
}
