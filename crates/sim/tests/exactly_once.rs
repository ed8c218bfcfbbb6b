//! Exactly-once completion: every demand read a scheme accepts from the
//! LLC is answered exactly once, and no posted write is answered.
//!
//! Each of the seven schemes runs inside [`Audit`], a [`DcScheme`]
//! that delegates every call to it. The audit records each
//! response-wanting [`DcScheme::access`] by its L3 token — an L3 MSHR
//! slot, so unique while the read is in flight — and checks every
//! response the scheme emits against that record: it must answer an
//! outstanding read (a repeated response finds none), a posted write
//! must never get one, and no read may wait longer than
//! [`MAX_WAIT`] cycles (a lost response waits forever).

use nomad_dcache::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, SchemeStats, WalkOutcome};
use nomad_dram::{Dram, DramCompletion};
use nomad_sim::{SchemeSpec, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::{AccessKind, CoreId, Cycle, IntMap, SubBlockIdx, Vpn};
use std::cell::RefCell;
use std::rc::Rc;

/// Longest a read may stay unanswered: about eight times the longest
/// DC access time these cells see (2.6k cycles, TDC on two-core
/// `mcf`), and under half the shortest run (59k cycles).
const MAX_WAIT: Cycle = 20_000;

/// What the audit saw, shared with the test after the system owns it.
#[derive(Debug, Default)]
struct Ledger {
    /// Outstanding reads: L3 token → (access, arrival).
    outstanding: IntMap<u64, (DcAccessReq, Cycle)>,
    /// Reads answered.
    answered: u64,
    /// Posted writes accepted.
    posted: u64,
}

struct Audit {
    inner: Box<dyn DcScheme>,
    ledger: Rc<RefCell<Ledger>>,
}

impl Audit {
    /// Check the responses the scheme emitted this cycle (the system
    /// clears the events before each issue).
    fn audit(&mut self, now: Cycle, events: &SchemeEvents) {
        let mut ledger = self.ledger.borrow_mut();
        for resp in &events.responses {
            assert!(
                !resp.kind.is_write(),
                "{}: posted write {:?} got a response at cycle {now}",
                self.inner.name(),
                resp
            );
            let Some((req, _)) = ledger.outstanding.remove(&resp.token.0) else {
                panic!(
                    "{}: response {:?} at cycle {now} answers no outstanding read",
                    self.inner.name(),
                    resp
                );
            };
            assert_eq!(
                (req.addr, req.core),
                (resp.addr, resp.core),
                "{}: response answers another read",
                self.inner.name()
            );
            ledger.answered += 1;
        }
        if let Some((req, at)) = ledger
            .outstanding
            .values()
            .find(|(_, at)| now.saturating_sub(*at) > MAX_WAIT)
        {
            panic!(
                "{}: read {req:?} accepted at cycle {at} unanswered at {now}",
                self.inner.name()
            );
        }
    }
}

impl DcScheme for Audit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn walk(
        &mut self,
        core: CoreId,
        vpn: Vpn,
        sub: SubBlockIdx,
        kind: AccessKind,
        now: Cycle,
    ) -> WalkOutcome {
        self.inner.walk(core, vpn, sub, kind, now)
    }

    fn prewarm(&mut self, core: CoreId, vpn: Vpn, dirty: bool) {
        self.inner.prewarm(core, vpn, dirty);
    }

    fn free_frames(&self) -> Option<u64> {
        self.inner.free_frames()
    }

    fn can_accept(&self) -> bool {
        self.inner.can_accept()
    }

    fn access(&mut self, req: DcAccessReq, now: Cycle) {
        let mut ledger = self.ledger.borrow_mut();
        if req.wants_response {
            let prior = ledger.outstanding.insert(req.token.0, (req, now));
            assert!(
                prior.is_none(),
                "{}: L3 token {} reused while its read {prior:?} is outstanding",
                self.inner.name(),
                req.token.0
            );
        } else {
            ledger.posted += 1;
        }
        drop(ledger);
        self.inner.access(req, now);
    }

    fn issue(
        &mut self,
        now: Cycle,
        hbm: &mut Dram,
        ddr: &mut Dram,
        flush: &mut dyn CacheFlush,
        events: &mut SchemeEvents,
    ) {
        self.inner.issue(now, hbm, ddr, flush, events);
    }

    fn complete(
        &mut self,
        now: Cycle,
        from_hbm: &[DramCompletion],
        from_ddr: &[DramCompletion],
        events: &mut SchemeEvents,
    ) {
        self.inner.complete(now, from_hbm, from_ddr, events);
        self.audit(now, events);
    }

    fn next_activity_at(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_activity_at(now)
    }

    fn tlb_inserted(&mut self, core: CoreId, vpn: Vpn) {
        self.inner.tlb_inserted(core, vpn);
    }

    fn tlb_departed(&mut self, core: CoreId, vpn: Vpn) {
        self.inner.tlb_departed(core, vpn);
    }

    fn stats(&self) -> &SchemeStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn attach_obs(&mut self, reg: &nomad_obs::Registry, ring: &nomad_obs::SpanRing) {
        self.inner.attach_obs(reg, ring);
    }

    fn obs_sample(&mut self) {
        self.inner.obs_sample();
    }
}

/// Run `spec` audited on `profile` and return what the audit saw.
fn audited_run(cfg: &SystemConfig, spec: &SchemeSpec, profile: &WorkloadProfile) -> Ledger {
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let scheme = Audit {
        inner: spec.build(cfg),
        ledger: Rc::clone(&ledger),
    };
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                42u64.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect();
    let mut sys = System::new(cfg.clone(), Box::new(scheme), traces);
    sys.prewarm();
    sys.warm_up(2_000);
    sys.run(100_000);
    drop(sys);
    Rc::try_unwrap(ledger).expect("sole owner").into_inner()
}

/// One-core `tc` and `mcf`, and the two-core 8 MiB `mcf` shape where
/// every scheme misses, fills and evicts. Posted writes are rare in
/// runs this short (dirty LLC evictions); Banshee's frame flushes
/// supply some.
#[test]
fn every_scheme_answers_each_read_exactly_once() {
    let one_core = SystemConfig::scaled(1);
    let mut two_core = SystemConfig::scaled(2);
    two_core.dc_capacity = 8 * 1024 * 1024;
    let cases = [
        (&one_core, WorkloadProfile::tc()),
        (&one_core, WorkloadProfile::mcf()),
        (&two_core, WorkloadProfile::mcf()),
    ];
    let mut posted = 0;
    for (cfg, profile) in cases {
        for spec in SchemeSpec::headtohead_set() {
            let ledger = audited_run(cfg, &spec, &profile);
            assert!(
                ledger.answered > 1_000,
                "{} / {}: only {} reads answered",
                spec.label(),
                profile.name,
                ledger.answered
            );
            posted += ledger.posted;
        }
    }
    assert!(posted > 0, "no posted write reached a scheme");
}

/// The audit itself catches each fault it exists for: a second response
/// to one read, a response to a posted write, and a read left waiting.
#[test]
fn audit_rejects_repeated_posted_and_lost_responses() {
    use nomad_types::{BlockAddr, MemTarget, ReqId};
    let read = DcAccessReq {
        token: ReqId(3),
        addr: BlockAddr(0x40),
        target: MemTarget::OffPackage,
        kind: AccessKind::Read,
        core: 0,
        wants_response: true,
    };
    let write = DcAccessReq {
        token: ReqId(u64::MAX),
        kind: AccessKind::Write,
        wants_response: false,
        ..read
    };
    let faults = [
        (
            "answers no outstanding read",
            vec![read.response(), read.response()],
        ),
        ("posted write", vec![write.response()]),
        ("unanswered", vec![]),
    ];
    for (expected, responses) in faults {
        let result = std::panic::catch_unwind(|| {
            let mut audit = Audit {
                inner: Box::new(nomad_dcache::Baseline::new()),
                ledger: Rc::default(),
            };
            audit.access(read, 0);
            audit.access(write, 0);
            let ev = SchemeEvents {
                responses,
                ..SchemeEvents::default()
            };
            audit.audit(MAX_WAIT + 1, &ev);
        });
        let msg = result.expect_err("the audit must reject the fault");
        let msg = msg
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains(expected), "{expected}: got {msg:?}");
    }
}
