//! Demand-traffic router: maps LLC accesses onto DRAM transactions and
//! routes completions back, with backpressure-aware retry.

use crate::scheme::DcAccessReq;
use nomad_dram::{Dram, DramRequest};
use nomad_types::{Cycle, IntMap, ReqId, TrafficClass};
use std::collections::VecDeque;

/// Routes demand accesses to one DRAM device.
///
/// Reads are tracked until their completion returns so the original
/// LLC request (and its arrival time, for DC-access-time stats) can be
/// recovered; writes are posted.
#[derive(Debug, Default)]
pub struct DemandPath {
    pending: VecDeque<DramRequest>,
    inflight: IntMap<u64, (DcAccessReq, Cycle)>,
    next_token: u64,
    /// Token-space tag ORed into every token, so multiple traffic
    /// sources can share one DRAM device and route completions back.
    tag: u64,
}

/// Token bits reserved for source tags (top byte).
pub const DEMAND_TAG_MASK: u64 = 0xff << 56;

impl DemandPath {
    /// An empty router with tag 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty router whose tokens carry `tag` in the top byte.
    ///
    /// # Panics
    ///
    /// Panics if `tag` uses bits outside the top-byte tag mask or sets
    /// bit 63 (reserved for back-end copy traffic).
    pub fn with_tag(tag: u64) -> Self {
        assert_eq!(tag & !DEMAND_TAG_MASK, 0, "tag outside top byte");
        assert_eq!(tag >> 63, 0, "bit 63 reserved");
        DemandPath {
            tag,
            ..Self::default()
        }
    }

    /// Queue `req` for the device at byte address `addr`, attributing
    /// it to `class`.
    pub fn submit(&mut self, req: DcAccessReq, addr: u64, class: TrafficClass, now: Cycle) {
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
            class,
            wants_completion: wants,
            probe: nomad_dram::Probe::Data,
        });
    }

    /// Push queued requests into `dram` until its queues fill up.
    pub fn drain(&mut self, dram: &mut Dram) {
        while let Some(req) = self.pending.pop_front() {
            if let Err(back) = dram.try_push(req) {
                self.pending.push_front(back);
                break;
            }
        }
    }

    /// Resolve a completion token back to the original access and its
    /// arrival time. Returns `None` for tokens not owned by this path
    /// (wrong tag or unknown sequence number).
    pub fn complete(&mut self, token: ReqId) -> Option<(DcAccessReq, Cycle)> {
        if token.0 & DEMAND_TAG_MASK != self.tag {
            return None;
        }
        self.inflight.remove(&(token.0 & !DEMAND_TAG_MASK))
    }

    /// Outstanding tracked reads plus queued requests.
    pub fn in_flight(&self) -> usize {
        self.inflight.len() + self.pending.len()
    }

    /// Whether the internal queue is under `limit` entries (admission
    /// control for [`crate::DcScheme::can_accept`]).
    pub fn has_room(&self, limit: usize) -> bool {
        self.pending.len() < limit
    }

    /// Whether requests are still queued awaiting [`drain`](Self::drain)
    /// (the owning scheme must keep ticking while this holds).
    pub fn has_queued(&self) -> bool {
        !self.pending.is_empty()
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

    #[test]
    fn read_round_trip() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut path = DemandPath::new();
        path.submit(
            access(7, AccessKind::Read),
            0x1000,
            TrafficClass::DemandRead,
            5,
        );
        let mut done = Vec::new();
        for _ in 0..500 {
            path.drain(&mut dram);
            dram.tick(&mut done);
        }
        assert_eq!(done.len(), 1);
        let (orig, at) = path.complete(done[0].token).expect("tracked");
        assert_eq!(orig.token, ReqId(7));
        assert_eq!(at, 5);
        assert_eq!(path.in_flight(), 0);
    }

    #[test]
    fn writes_are_posted_and_untracked() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut path = DemandPath::new();
        path.submit(
            access(1, AccessKind::Write),
            0,
            TrafficClass::DemandWrite,
            0,
        );
        let mut done = Vec::new();
        for _ in 0..500 {
            path.drain(&mut dram);
            dram.tick(&mut done);
        }
        assert!(done.is_empty());
        assert_eq!(path.in_flight(), 0);
        assert_eq!(
            dram.stats().bytes_for(TrafficClass::DemandWrite).written,
            64
        );
    }

    #[test]
    fn tagged_paths_ignore_foreign_tokens() {
        let mut a = DemandPath::with_tag(1 << 56);
        let mut b = DemandPath::with_tag(2 << 56);
        let mut dram = Dram::new(DramConfig::hbm());
        a.submit(
            access(1, AccessKind::Read),
            0x40,
            TrafficClass::DemandRead,
            0,
        );
        b.submit(
            access(2, AccessKind::Read),
            0x80,
            TrafficClass::DemandRead,
            0,
        );
        let mut done = Vec::new();
        for _ in 0..500 {
            a.drain(&mut dram);
            b.drain(&mut dram);
            dram.tick(&mut done);
        }
        assert_eq!(done.len(), 2);
        let mut a_got = 0;
        let mut b_got = 0;
        for c in done {
            if a.complete(c.token).is_some() {
                a_got += 1;
            } else if b.complete(c.token).is_some() {
                b_got += 1;
            }
        }
        assert_eq!((a_got, b_got), (1, 1));
    }

    #[test]
    fn backpressure_keeps_order() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut path = DemandPath::new();
        // Far more than the 2×32 queue slots.
        for i in 0..200 {
            path.submit(
                access(i, AccessKind::Read),
                i * 64,
                TrafficClass::DemandRead,
                0,
            );
        }
        let mut done = Vec::new();
        let mut completions = 0;
        for _ in 0..200_000 {
            path.drain(&mut dram);
            dram.tick(&mut done);
            completions += done.drain(..).count();
            if completions == 200 {
                break;
            }
        }
        assert_eq!(completions, 200);
    }
}
