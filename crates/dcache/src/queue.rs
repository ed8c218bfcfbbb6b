//! The one DRAM request queue: every scheme's demand, metadata, fill
//! and writeback traffic waits here for room in its device, and demand
//! reads are tracked until their completions route back to the LLC.

use crate::scheme::{DcAccessReq, SchemeEvents};
use crate::stats::SchemeStats;
use nomad_dram::{Dram, DramRequest, Probe};
use nomad_types::{Cycle, IntMap, ReqId, TrafficClass};
use std::collections::VecDeque;

/// A FIFO of requests bound for one DRAM device, drained with
/// backpressure: [`drain`](Self::drain) pushes from the front until the
/// device refuses one, which stays at the front for the next cycle.
///
/// Demand accesses queued through [`submit`](Self::submit) carry the
/// queue's tag in their token's top byte; the reads among them are
/// tracked until [`respond`](Self::respond) sees their completion, so
/// the original LLC request (and its arrival time, for DC-access-time
/// stats) can be answered. Writes are posted. Other traffic goes in
/// through [`push_back`](Self::push_back) /
/// [`push_front`](Self::push_front) with tokens of its owner's choice.
#[derive(Debug, Default)]
pub struct DramQueue {
    pending: VecDeque<DramRequest>,
    inflight: IntMap<u64, (DcAccessReq, Cycle)>,
    next_token: u64,
    /// Token-space tag ORed into every demand token, so several traffic
    /// sources can share one device and route completions back.
    tag: u64,
}

/// Token bits reserved for source tags (top byte).
const TAG_MASK: u64 = 0xff << 56;

impl DramQueue {
    /// An empty queue with tag 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue whose demand tokens carry `tag` in the top byte.
    ///
    /// # Panics
    ///
    /// Panics if `tag` uses bits outside the top-byte tag mask or sets
    /// bit 63 (reserved for back-end copy traffic).
    pub fn with_tag(tag: u64) -> Self {
        assert_eq!(tag & !TAG_MASK, 0, "tag outside top byte");
        assert_eq!(tag >> 63, 0, "bit 63 reserved");
        DramQueue {
            tag,
            ..Self::default()
        }
    }

    /// Queue demand access `req` for the device at byte address `addr`,
    /// as a demand read or write; a read that wants a response is
    /// tracked from `now`.
    pub fn submit(&mut self, req: DcAccessReq, addr: u64, now: Cycle) {
        let token = self.next_token;
        self.next_token += 1;
        let wants = req.wants_response && !req.kind.is_write();
        if wants {
            self.inflight.insert(token, (req, now));
        }
        self.pending.push_back(DramRequest {
            token: ReqId(self.tag | token),
            addr,
            kind: req.kind,
            class: if req.kind.is_write() {
                TrafficClass::DemandWrite
            } else {
                TrafficClass::DemandRead
            },
            wants_completion: wants,
            probe: Probe::Data,
        });
    }

    /// Queue `req` behind everything already waiting.
    pub fn push_back(&mut self, req: DramRequest) {
        self.pending.push_back(req);
    }

    /// Queue `req` ahead of everything already waiting.
    pub fn push_front(&mut self, req: DramRequest) {
        self.pending.push_front(req);
    }

    /// Take the request at the front of the queue without a device.
    pub fn pop_front(&mut self) -> Option<DramRequest> {
        self.pending.pop_front()
    }

    /// Push queued requests into `dram`, in order, until it refuses one.
    pub fn drain(&mut self, dram: &mut Dram) {
        while let Some(req) = self.pending.pop_front() {
            if let Err(back) = dram.try_push(req) {
                self.pending.push_front(back);
                break;
            }
        }
    }

    /// Answer the DRAM completion `token` if it carries this queue's
    /// tag: record its read's DC access time in `stats` and queue the
    /// LLC response in `events`. Tokens with another tag are left to
    /// the caller.
    ///
    /// Debug builds panic when a completion carrying the tag finds no
    /// tracked read — a lost or repeated completion.
    pub fn respond(
        &mut self,
        token: ReqId,
        now: Cycle,
        stats: &mut SchemeStats,
        events: &mut SchemeEvents,
    ) {
        if token.0 & TAG_MASK != self.tag {
            return;
        }
        let tracked = self.inflight.remove(&(token.0 & !TAG_MASK));
        debug_assert!(
            tracked.is_some(),
            "DRAM completion {:#x} answers no tracked read",
            token.0
        );
        if let Some((req, arrived)) = tracked {
            stats.dc_access_time.record(now.saturating_sub(arrived));
            events.responses.push(req.response());
        }
    }

    /// Requests waiting for room in the device.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no request is waiting (the owning scheme must keep
    /// issuing while one is).
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_dram::DramConfig;
    use nomad_types::{AccessKind, BlockAddr, MemTarget};

    fn access(token: u64, kind: AccessKind) -> DcAccessReq {
        DcAccessReq {
            token: ReqId(token),
            addr: BlockAddr(token),
            target: MemTarget::OffPackage,
            kind,
            core: 0,
            wants_response: !kind.is_write(),
        }
    }

    /// Drain `queues` into `dram` and tick it for `cycles` cycles,
    /// answering completions through the first queue that owns them.
    fn run(queues: &mut [&mut DramQueue], dram: &mut Dram, cycles: Cycle) -> SchemeEvents {
        let mut stats = SchemeStats::default();
        let mut ev = SchemeEvents::default();
        let mut done = Vec::new();
        for now in 0..cycles {
            for q in queues.iter_mut() {
                q.drain(dram);
            }
            dram.tick(&mut done);
            for c in done.drain(..) {
                for q in queues.iter_mut() {
                    q.respond(c.token, now, &mut stats, &mut ev);
                }
            }
        }
        ev
    }

    #[test]
    fn read_round_trip() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut q = DramQueue::new();
        q.submit(access(7, AccessKind::Read), 0x1000, 0);
        let ev = run(&mut [&mut q], &mut dram, 500);
        assert_eq!(ev.responses.len(), 1);
        assert_eq!(ev.responses[0].token, ReqId(7));
        assert!(q.inflight.is_empty() && q.is_empty());
        assert_eq!(dram.stats().bytes_for(TrafficClass::DemandRead).read, 64);
    }

    #[test]
    fn writes_are_posted_and_untracked() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut q = DramQueue::new();
        q.submit(access(1, AccessKind::Write), 0, 0);
        assert!(q.inflight.is_empty());
        let ev = run(&mut [&mut q], &mut dram, 500);
        assert!(ev.responses.is_empty());
        assert_eq!(
            dram.stats().bytes_for(TrafficClass::DemandWrite).written,
            64
        );
    }

    #[test]
    fn tagged_queues_ignore_foreign_tokens() {
        let mut a = DramQueue::with_tag(1 << 56);
        let mut b = DramQueue::with_tag(2 << 56);
        let mut dram = Dram::new(DramConfig::hbm());
        a.submit(access(1, AccessKind::Read), 0x40, 0);
        b.submit(access(2, AccessKind::Read), 0x80, 0);
        let ev = run(&mut [&mut a, &mut b], &mut dram, 500);
        let mut got: Vec<_> = ev.responses.iter().map(|r| r.token.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(a.inflight.is_empty() && b.inflight.is_empty());
    }

    #[test]
    fn backpressure_keeps_order() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut q = DramQueue::new();
        // Far more than the 2×32 queue slots.
        for i in 0..200 {
            q.submit(access(i, AccessKind::Read), i * 64, 0);
        }
        q.drain(&mut dram);
        assert!(!q.is_empty(), "the device refused the overflow");
        let ev = run(&mut [&mut q], &mut dram, 200_000);
        assert_eq!(ev.responses.len(), 200);
    }

    #[test]
    fn push_front_jumps_the_queue() {
        let mut q = DramQueue::new();
        q.submit(access(1, AccessKind::Read), 0x40, 0);
        q.push_front(DramRequest {
            token: ReqId(9),
            addr: 0x80,
            kind: AccessKind::Read,
            class: TrafficClass::Fill,
            wants_completion: false,
            probe: Probe::Data,
        });
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_front().map(|r| r.token), Some(ReqId(9)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "answers no tracked read")]
    fn a_repeated_completion_panics_in_debug_builds() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut q = DramQueue::with_tag(1 << 56);
        q.submit(access(3, AccessKind::Read), 0x40, 0);
        let mut done = Vec::new();
        for _ in 0..500 {
            q.drain(&mut dram);
            dram.tick(&mut done);
        }
        assert_eq!(done.len(), 1);
        let (mut stats, mut ev) = (SchemeStats::default(), SchemeEvents::default());
        q.respond(done[0].token, 500, &mut stats, &mut ev);
        assert_eq!(ev.responses.len(), 1);
        q.respond(done[0].token, 501, &mut stats, &mut ev);
    }
}
