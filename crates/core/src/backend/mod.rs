//! The NOMAD back-end hardware: interface register semantics, PCSHRs
//! and page copy buffers (paper §III-D).
//!
//! A [`Backend`] accepts page-copy commands from the front-end through
//! its interface ([`Backend::try_send`] — which fails exactly when no
//! PCSHR is free, keeping the interface register "busy"), executes them
//! sub-block by sub-block through both DRAM devices, and verifies data
//! hits for every DRAM-cache access ([`Backend::check_access`]). None
//! of this involves the OS — which is what makes NOMAD non-blocking.

mod pcshr;

pub use pcshr::{CopyCommand, CopyKind};
use pcshr::{Pcshr, SubEntry};

use nomad_dcache::{DcAccessReq, DramQueue};
use nomad_dram::DramRequest;
use nomad_types::{
    AccessKind, Cfn, CoreId, Cycle, MemResp, MemTarget, Pfn, ReqId, SubBlockIdx, TrafficClass,
};

/// Back-end sizing and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendConfig {
    /// Page copy status/information holding registers.
    pub pcshrs: usize,
    /// Page copy buffers (== `pcshrs` for the coupled design; smaller
    /// for the area-optimized design of §IV-B.7).
    pub buffers: usize,
    /// Sub-entries per PCSHR (four 2-byte sub-entries in the paper).
    pub sub_entries: usize,
    /// Latency of servicing a read from a page copy buffer.
    pub buffer_latency: Cycle,
    /// Source reads issued per PCSHR per cycle.
    pub reads_per_tick: usize,
    /// Destination writes issued per PCSHR per cycle.
    pub writes_per_tick: usize,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            pcshrs: 16,
            buffers: 16,
            sub_entries: 4,
            buffer_latency: 10,
            reads_per_tick: 2,
            writes_per_tick: 2,
        }
    }
}

/// Result of checking a demand access against the PCSHRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessCheck {
    /// No PCSHR matched: the page is fully resident — a *data hit*;
    /// the access may proceed to DRAM.
    NoMatch,
    /// Data miss, but the sub-block is in a page copy buffer: a
    /// response has been scheduled after the buffer latency.
    Serviced,
    /// Data miss on a store: the data was absorbed into the page copy
    /// buffer.
    Absorbed,
    /// Data miss: parked in a sub-entry until the sub-block arrives.
    Parked,
    /// Data miss, but the matched PCSHR's sub-entries are full; retry
    /// next cycle.
    Retry,
}

/// A finished page copy, reported to the front-end/scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedCopy {
    /// Fill or writeback.
    pub kind: CopyKind,
    /// Off-package frame involved.
    pub pfn: Pfn,
    /// Cache frame involved.
    pub cfn: Cfn,
}

/// Token layout for copy traffic: bit 63 marks back-end traffic, bits
/// 62..56 the backend id, bit 55 write-vs-read, bits 31..8 the PCSHR
/// index, bits 7..0 the sub-block.
pub(crate) fn copy_token(backend: usize, is_write: bool, slot: usize, sub: SubBlockIdx) -> u64 {
    (1u64 << 63)
        | ((backend as u64 & 0x3f) << 56)
        | ((is_write as u64) << 55)
        | ((slot as u64 & 0xff_ffff) << 8)
        | sub.index() as u64
}

/// Whether `token` belongs to any back-end.
pub fn is_copy_token(token: ReqId) -> bool {
    token.0 >> 63 == 1
}

/// Decode a copy token into `(backend, is_write, slot, sub)`.
pub fn decode_copy_token(token: ReqId) -> (usize, bool, usize, SubBlockIdx) {
    let t = token.0;
    (
        ((t >> 56) & 0x3f) as usize,
        (t >> 55) & 1 == 1,
        ((t >> 8) & 0xff_ffff) as usize,
        SubBlockIdx((t & 0xff) as u8),
    )
}

/// One NOMAD back-end (one per memory channel group in the distributed
/// organization; exactly one in the centralized organization).
///
/// PCSHR tag checks run on every DRAM-cache access, so the slot file is
/// scanned through packed occupancy words and tag arrays instead of the
/// `Vec<Option<…>>` it stores payloads in: `live`/`fill`/`has_buffer`
/// are one bit per PCSHR, and `cfns`/`pfns`/`seqs` mirror each live
/// command's tags in flat arrays. Every scan walks set bits with
/// trailing-zeros, visiting slots in ascending index order — the same
/// order the old `iter().position(…)` scans observed.
#[derive(Debug)]
pub struct Backend {
    id: usize,
    cfg: BackendConfig,
    slots: Vec<Option<Pcshr<DcAccessReq>>>,
    /// Bit `i` set while PCSHR `i` is live.
    live: u64,
    /// Bit `i` set while live PCSHR `i` executes a fill (clear: writeback).
    fill: u64,
    /// Bit `i` set while live PCSHR `i` holds a page copy buffer.
    has_buffer: u64,
    /// Packed `cmd.cfn` tags, valid where `live`.
    cfns: Vec<u64>,
    /// Packed `cmd.pfn` tags, valid where `live`.
    pfns: Vec<u64>,
    /// Packed allocation sequence numbers, valid where `live`.
    seqs: Vec<u64>,
    buffers_free: usize,
    seq: u64,
    /// Transfers bound for the on-package DRAM.
    pub to_hbm: DramQueue,
    /// Transfers bound for the off-package DRAM.
    pub to_ddr: DramQueue,
    /// Demand responses: `(ready_at, arrival, resp, core)`.
    responses: Vec<(Cycle, Cycle, MemResp, CoreId)>,
    completed: Vec<CompletedCopy>,
    scratch: Vec<SubEntry<DcAccessReq>>,
}

impl Backend {
    /// Build back-end `id` with configuration `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `pcshrs`, `buffers` or `sub_entries` is zero, or if
    /// `pcshrs` exceeds 64 (the occupancy words are single `u64`s).
    pub fn new(id: usize, cfg: BackendConfig) -> Self {
        assert!(cfg.pcshrs > 0 && cfg.buffers > 0 && cfg.sub_entries > 0);
        assert!(cfg.pcshrs <= 64, "at most 64 PCSHRs per back-end");
        Backend {
            id,
            slots: (0..cfg.pcshrs).map(|_| None).collect(),
            live: 0,
            fill: 0,
            has_buffer: 0,
            cfns: vec![0; cfg.pcshrs],
            pfns: vec![0; cfg.pcshrs],
            seqs: vec![0; cfg.pcshrs],
            buffers_free: cfg.buffers,
            seq: 0,
            to_hbm: DramQueue::new(),
            to_ddr: DramQueue::new(),
            responses: Vec::new(),
            completed: Vec::new(),
            scratch: Vec::new(),
            cfg,
        }
    }

    /// Mask with one bit per configured PCSHR.
    #[inline]
    fn width_mask(&self) -> u64 {
        u64::MAX >> (64 - self.cfg.pcshrs)
    }

    /// Interface register: accept a command if a PCSHR is free. A
    /// `false` return models the interface staying *busy* — the
    /// front-end must keep retrying (paper §III-D.1).
    pub fn try_send(&mut self, cmd: CopyCommand) -> bool {
        // First clear bit == the old `position(Option::is_none)`.
        let free = !self.live & self.width_mask();
        if free == 0 {
            return false;
        }
        let idx = free.trailing_zeros() as usize;
        let buffer = if self.buffers_free > 0 {
            self.buffers_free -= 1;
            Some(0) // buffer identity is immaterial; only the count matters
        } else {
            None
        };
        self.seq += 1;
        let bit = 1u64 << idx;
        self.live |= bit;
        if cmd.kind == CopyKind::Fill {
            self.fill |= bit;
        } else {
            self.fill &= !bit;
        }
        if buffer.is_some() {
            self.has_buffer |= bit;
        } else {
            self.has_buffer &= !bit;
        }
        self.cfns[idx] = cmd.cfn.0;
        self.pfns[idx] = cmd.pfn.0;
        self.seqs[idx] = self.seq;
        self.slots[idx] = Some(Pcshr::new(cmd, buffer));
        true
    }

    /// Whether any PCSHR is free (the interface's idle state).
    pub fn interface_idle(&self) -> bool {
        self.live != self.width_mask()
    }

    /// Active commands.
    pub fn active(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// Whether `cfn` has an in-flight copy (fill or writeback); the
    /// eviction daemon must skip such frames.
    pub fn busy_cfn(&self, cfn: Cfn) -> bool {
        let mut m = self.live;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.cfns[i] == cfn.0 {
                return true;
            }
            m &= m - 1;
        }
        false
    }

    fn find_fill(&self, cfn: Cfn) -> Option<usize> {
        let mut m = self.live & self.fill;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.cfns[i] == cfn.0 {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    fn find_wb(&self, pfn: Pfn) -> Option<usize> {
        let mut m = self.live & !self.fill;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if self.pfns[i] == pfn.0 {
                return Some(i);
            }
            m &= m - 1;
        }
        None
    }

    /// Data-hit verification (paper §III-D.3): compare the access
    /// against PCSHR tags; on a match, service/park/absorb it.
    pub fn check_access(&mut self, req: DcAccessReq, now: Cycle) -> AccessCheck {
        let idx = match req.target {
            MemTarget::DramCache => self.find_fill(Cfn(req.addr.page())),
            MemTarget::OffPackage => self.find_wb(Pfn(req.addr.page())),
        };
        let Some(idx) = idx else {
            return AccessCheck::NoMatch;
        };
        let buffer_latency = self.cfg.buffer_latency;
        let max_entries = self.cfg.sub_entries;
        let slot = self.slots[idx].as_mut().expect("matched slot");
        let sub = req.addr.sub_block();
        if req.kind.is_write() {
            if slot.buffer.is_some() {
                slot.absorb_write(sub);
                // Store-to-load forwarding: reads parked on this
                // sub-block are serviced from the freshly written
                // buffer data.
                let mut drained = Vec::new();
                slot.take_sub_entries(sub, &mut drained);
                for e in drained {
                    if !e.payload.kind.is_write() {
                        self.responses.push((
                            now + buffer_latency,
                            e.arrival,
                            e.payload.response(),
                            e.payload.core,
                        ));
                    }
                }
                return AccessCheck::Absorbed;
            }
            // No buffer yet (area-optimized design): park the store.
            if slot.sub_entries.len() >= max_entries {
                return AccessCheck::Retry;
            }
            slot.sub_entries.push(SubEntry {
                sub,
                arrival: now,
                payload: req,
            });
            return AccessCheck::Parked;
        }
        if slot.in_buffer & sub.bit() != 0 {
            self.responses
                .push((now + buffer_latency, now, req.response(), req.core));
            return AccessCheck::Serviced;
        }
        if slot.sub_entries.len() >= max_entries {
            return AccessCheck::Retry;
        }
        slot.sub_entries.push(SubEntry {
            sub,
            arrival: now,
            payload: req,
        });
        AccessCheck::Parked
    }

    /// Issue transfers for this cycle.
    pub fn tick(&mut self, _now: Cycle) {
        // 1. Area-optimized design: hand free buffers to the oldest
        //    buffer-less PCSHRs (minimum packed seq over the live,
        //    buffer-less occupancy bits).
        while self.buffers_free > 0 {
            let mut m = self.live & !self.has_buffer;
            let mut next: Option<usize> = None;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                if next.is_none_or(|b| self.seqs[i] < self.seqs[b]) {
                    next = Some(i);
                }
                m &= m - 1;
            }
            let Some(idx) = next else { break };
            self.buffers_free -= 1;
            self.has_buffer |= 1u64 << idx;
            let buffer_latency = self.cfg.buffer_latency;
            let slot = self.slots[idx].as_mut().expect("live");
            slot.buffer = Some(0);
            // Absorb stores that were parked awaiting the buffer.
            let mut i = 0;
            while i < slot.sub_entries.len() {
                if slot.sub_entries[i].payload.kind.is_write() {
                    let e = slot.sub_entries.swap_remove(i);
                    slot.absorb_write(e.sub);
                } else {
                    i += 1;
                }
            }
            // Parked reads whose sub-block an absorbed store just made
            // buffer-resident are serviced (store-to-load forwarding).
            let mut i = 0;
            while i < slot.sub_entries.len() {
                let e = slot.sub_entries[i];
                if slot.in_buffer & e.sub.bit() != 0 {
                    slot.sub_entries.swap_remove(i);
                    self.responses.push((
                        _now + buffer_latency,
                        e.arrival,
                        e.payload.response(),
                        e.payload.core,
                    ));
                } else {
                    i += 1;
                }
            }
        }

        // 2. Issue source reads and destination writes, bounded per
        //    cycle; queues are bounded to avoid unbounded growth when a
        //    device is saturated. Only slots that are live and hold a
        //    buffer can transfer — walk exactly those bits.
        let mut active = self.live & self.has_buffer;
        while active != 0 {
            let idx = active.trailing_zeros() as usize;
            active &= active - 1;
            let slot = self.slots[idx].as_ref().expect("live");
            let kind = slot.cmd.kind;
            for _ in 0..self.cfg.reads_per_tick {
                let q = match kind {
                    CopyKind::Fill => &self.to_ddr,
                    CopyKind::Writeback => &self.to_hbm,
                };
                if q.len() >= 64 {
                    break;
                }
                let slot = self.slots[idx].as_mut().expect("live");
                let Some(sub) = slot.next_read() else { break };
                slot.read_issued |= sub.bit();
                let (addr, class, q) = match kind {
                    CopyKind::Fill => (
                        slot.cmd.pfn.base().raw() + sub.page_offset().0,
                        TrafficClass::Fill,
                        &mut self.to_ddr,
                    ),
                    CopyKind::Writeback => (
                        slot.cmd.cfn.base().raw() + sub.page_offset().0,
                        TrafficClass::Writeback,
                        &mut self.to_hbm,
                    ),
                };
                q.push_back(DramRequest {
                    token: ReqId(copy_token(self.id, false, idx, sub)),
                    addr,
                    kind: AccessKind::Read,
                    class,
                    wants_completion: true,
                    probe: nomad_dram::Probe::Data,
                });
            }
            for _ in 0..self.cfg.writes_per_tick {
                let q = match kind {
                    CopyKind::Fill => &self.to_hbm,
                    CopyKind::Writeback => &self.to_ddr,
                };
                if q.len() >= 64 {
                    break;
                }
                let slot = self.slots[idx].as_mut().expect("live");
                let Some(sub) = slot.next_write() else { break };
                slot.write_sent(sub);
                let (addr, class, q) = match kind {
                    CopyKind::Fill => (
                        slot.cmd.cfn.base().raw() + sub.page_offset().0,
                        TrafficClass::Fill,
                        &mut self.to_hbm,
                    ),
                    CopyKind::Writeback => (
                        slot.cmd.pfn.base().raw() + sub.page_offset().0,
                        TrafficClass::Writeback,
                        &mut self.to_ddr,
                    ),
                };
                q.push_back(DramRequest {
                    token: ReqId(copy_token(self.id, true, idx, sub)),
                    addr,
                    kind: AccessKind::Write,
                    class,
                    wants_completion: true,
                    probe: nomad_dram::Probe::Data,
                });
            }
        }
    }

    /// Deliver a copy-traffic DRAM completion (decoded from its token).
    pub fn on_copy_completion(
        &mut self,
        is_write: bool,
        slot_idx: usize,
        sub: SubBlockIdx,
        now: Cycle,
    ) {
        let Some(slot) = self.slots.get_mut(slot_idx).and_then(Option::as_mut) else {
            return; // stale completion for a retired slot
        };
        if is_write {
            slot.write_done(sub);
            if slot.complete() {
                let p = self.slots[slot_idx].take().expect("checked");
                debug_assert!(
                    p.sub_entries.is_empty(),
                    "entries must drain before completion"
                );
                let bit = 1u64 << slot_idx;
                self.live &= !bit;
                self.fill &= !bit;
                self.has_buffer &= !bit;
                self.buffers_free += 1;
                self.completed.push(CompletedCopy {
                    kind: p.cmd.kind,
                    pfn: p.cmd.pfn,
                    cfn: p.cmd.cfn,
                });
            }
        } else {
            self.scratch.clear();
            slot.read_done(sub, &mut self.scratch);
            let buffer_latency = self.cfg.buffer_latency;
            for e in self.scratch.drain(..) {
                if e.payload.kind.is_write() {
                    // A parked store: absorb now that the buffer holds
                    // the block (its data overwrites the fetched one).
                    self.slots[slot_idx]
                        .as_mut()
                        .expect("live")
                        .absorb_write(e.sub);
                } else {
                    self.responses.push((
                        now + buffer_latency,
                        e.arrival,
                        e.payload.response(),
                        e.payload.core,
                    ));
                }
            }
        }
    }

    /// Pop demand responses that became ready by `now`; yields
    /// `(arrival, resp)` so the caller can record DC access time.
    pub fn pop_ready_responses(&mut self, now: Cycle, out: &mut Vec<(Cycle, MemResp)>) {
        let mut i = 0;
        while i < self.responses.len() {
            if self.responses[i].0 <= now {
                let (_, arrival, resp, _) = self.responses.swap_remove(i);
                out.push((arrival, resp));
            } else {
                i += 1;
            }
        }
    }

    /// Drain completed page copies.
    pub fn take_completed(&mut self, out: &mut Vec<CompletedCopy>) {
        out.append(&mut self.completed);
    }

    /// Earliest cycle strictly after `now` at which a
    /// [`tick`](Self::tick) could make progress, or `None` while the
    /// back-end is idle (same contract as
    /// [`nomad_types::NextActivity`]).
    ///
    /// A live PCSHR keeps the back-end dense only while a tick could
    /// actually act on it: undrained outbound queues, a pending buffer
    /// handoff, or an issuable source read / destination write. A slot
    /// that has issued everything and is waiting on DRAM completions
    /// is *reactive* — `on_copy_completion` is a poke, and the system
    /// bounds skips by the busy device's own edges. With no copies in
    /// flight only the timed demand responses remain.
    pub fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.to_hbm.is_empty() || !self.to_ddr.is_empty() || !self.completed.is_empty() {
            return Some(now + 1);
        }
        if self.buffers_free > 0 && self.live & !self.has_buffer != 0 {
            return Some(now + 1);
        }
        let mut m = self.live & self.has_buffer;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            let p = self.slots[i].as_ref().expect("live");
            if p.next_read().is_some() || p.next_write().is_some() {
                return Some(now + 1);
            }
            m &= m - 1;
        }
        self.responses
            .iter()
            .map(|&(ready, _, _, _)| ready.max(now + 1))
            .min()
    }

    /// Whether this back-end has no active work (for drain loops).
    pub fn is_idle(&self) -> bool {
        self.active() == 0
            && self.to_hbm.is_empty()
            && self.to_ddr.is_empty()
            && self.responses.is_empty()
            && self.completed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_types::BlockAddr;

    fn fill_cmd(pfn: u64, cfn: u64, prio: Option<u8>) -> CopyCommand {
        CopyCommand {
            kind: CopyKind::Fill,
            pfn: Pfn(pfn),
            cfn: Cfn(cfn),
            priority: prio.map(SubBlockIdx),
        }
    }

    fn dc_read(token: u64, cfn: u64, sub: u8) -> DcAccessReq {
        DcAccessReq {
            token: ReqId(token),
            addr: BlockAddr(cfn * 64 + sub as u64),
            target: MemTarget::DramCache,
            kind: AccessKind::Read,
            core: 0,
            wants_response: true,
        }
    }

    /// Take every queued transfer, the HBM's before the DDR's.
    fn take_all(b: &mut Backend) -> Vec<DramRequest> {
        let mut reqs: Vec<_> = std::iter::from_fn(|| b.to_hbm.pop_front()).collect();
        reqs.extend(std::iter::from_fn(|| b.to_ddr.pop_front()));
        reqs
    }

    /// Run the backend against perfect (instant) DRAM: every queued
    /// transfer completes next cycle.
    fn run_instant(b: &mut Backend, cycles: Cycle) {
        for now in 0..cycles {
            b.tick(now);
            for r in take_all(b) {
                let (_, is_write, slot, sub) = decode_copy_token(r.token);
                b.on_copy_completion(is_write, slot, sub, now);
            }
        }
    }

    #[test]
    fn interface_busy_when_pcshrs_full() {
        let mut b = Backend::new(
            0,
            BackendConfig {
                pcshrs: 2,
                buffers: 2,
                ..Default::default()
            },
        );
        assert!(b.try_send(fill_cmd(1, 10, None)));
        assert!(b.try_send(fill_cmd(2, 11, None)));
        assert!(!b.interface_idle());
        assert!(!b.try_send(fill_cmd(3, 12, None)), "interface busy");
    }

    #[test]
    fn fill_completes_and_frees_pcshr() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, Some(5)));
        run_instant(&mut b, 200);
        let mut done = Vec::new();
        b.take_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cfn, Cfn(10));
        assert_eq!(done[0].kind, CopyKind::Fill);
        assert!(b.interface_idle());
        assert!(b.is_idle());
    }

    #[test]
    fn data_hit_when_no_pcshr_matches() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, None));
        assert_eq!(b.check_access(dc_read(1, 99, 0), 0), AccessCheck::NoMatch);
    }

    #[test]
    fn data_miss_parks_then_services_on_arrival() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, None));
        assert_eq!(b.check_access(dc_read(1, 10, 7), 0), AccessCheck::Parked);
        run_instant(&mut b, 200);
        let mut out = Vec::new();
        b.pop_ready_responses(1_000_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.token, ReqId(1));
    }

    #[test]
    fn buffer_hit_after_sub_block_arrives() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, Some(3)));
        // Let the critical block transfer.
        for now in 0..4 {
            b.tick(now);
            for r in take_all(&mut b) {
                let (_, w, s, sub) = decode_copy_token(r.token);
                if !w {
                    b.on_copy_completion(w, s, sub, now);
                }
            }
        }
        assert_eq!(b.check_access(dc_read(2, 10, 3), 10), AccessCheck::Serviced);
        let mut out = Vec::new();
        b.pop_ready_responses(10 + 10, &mut out);
        assert_eq!(out.len(), 1, "served from the page copy buffer");
    }

    #[test]
    fn stores_absorb_into_buffer() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, None));
        let w = DcAccessReq {
            kind: AccessKind::Write,
            wants_response: false,
            ..dc_read(5, 10, 9)
        };
        assert_eq!(b.check_access(w, 0), AccessCheck::Absorbed);
        run_instant(&mut b, 300);
        let mut done = Vec::new();
        b.take_completed(&mut done);
        assert_eq!(done.len(), 1, "copy still completes");
    }

    #[test]
    fn sub_entry_exhaustion_forces_retry() {
        let cfg = BackendConfig {
            sub_entries: 2,
            ..Default::default()
        };
        let mut b = Backend::new(0, cfg);
        b.try_send(fill_cmd(1, 10, None));
        assert_eq!(b.check_access(dc_read(1, 10, 1), 0), AccessCheck::Parked);
        assert_eq!(b.check_access(dc_read(2, 10, 2), 0), AccessCheck::Parked);
        assert_eq!(b.check_access(dc_read(3, 10, 3), 0), AccessCheck::Retry);
    }

    #[test]
    fn writeback_lookup_is_by_pfn() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(CopyCommand {
            kind: CopyKind::Writeback,
            pfn: Pfn(42),
            cfn: Cfn(7),
            priority: None,
        });
        let r = DcAccessReq {
            token: ReqId(1),
            addr: BlockAddr(42 * 64 + 3),
            target: MemTarget::OffPackage,
            kind: AccessKind::Read,
            core: 0,
            wants_response: true,
        };
        assert_eq!(b.check_access(r, 0), AccessCheck::Parked);
        run_instant(&mut b, 300);
        let mut done = Vec::new();
        b.take_completed(&mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, CopyKind::Writeback);
        let mut out = Vec::new();
        b.pop_ready_responses(1_000_000, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn decoupled_buffers_defer_transfers() {
        let cfg = BackendConfig {
            pcshrs: 4,
            buffers: 1,
            ..Default::default()
        };
        let mut b = Backend::new(0, cfg);
        assert!(b.try_send(fill_cmd(1, 10, None)));
        assert!(
            b.try_send(fill_cmd(2, 11, None)),
            "PCSHR free even without buffer"
        );
        // Only the first command can transfer until its buffer frees.
        b.tick(0);
        let first_wave: Vec<_> = std::iter::from_fn(|| b.to_ddr.pop_front()).collect();
        assert!(first_wave.iter().all(|r| decode_copy_token(r.token).2 == 0));
        // Deliver the drained reads so the first command can finish.
        for r in first_wave {
            let (_, w, slot, sub) = decode_copy_token(r.token);
            b.on_copy_completion(w, slot, sub, 0);
        }
        run_instant(&mut b, 400);
        let mut done = Vec::new();
        b.take_completed(&mut done);
        assert_eq!(done.len(), 2, "second command ran after buffer handoff");
    }

    #[test]
    fn busy_cfn_guards_eviction() {
        let mut b = Backend::new(0, BackendConfig::default());
        b.try_send(fill_cmd(1, 10, None));
        assert!(b.busy_cfn(Cfn(10)));
        assert!(!b.busy_cfn(Cfn(11)));
    }

    #[test]
    fn token_round_trip() {
        for (be, w, slot, sub) in [
            (0usize, false, 0usize, 0u8),
            (5, true, 1023, 63),
            (15, false, 7, 31),
        ] {
            let t = ReqId(copy_token(be, w, slot, SubBlockIdx(sub)));
            assert!(is_copy_token(t));
            assert_eq!(decode_copy_token(t), (be, w, slot, SubBlockIdx(sub)));
        }
    }
}
