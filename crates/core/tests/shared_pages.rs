//! Shared-page support (paper §III-G): when a physical frame is mapped
//! by several PTEs, the DC tag-miss handler must update all of them via
//! the reverse mapping, and eviction must restore all of them —
//! without extra machinery, because both paths already walk the rmap.

use nomad_core::NomadScheme;
use nomad_dcache::{DcScheme, NoFlush, SchemeEvents, WalkOutcome};
use nomad_dram::{Dram, DramConfig};
use nomad_types::{AccessKind, Pfn, SubBlockIdx, Vpn, PAGE_SIZE};

struct Rig {
    scheme: NomadScheme,
    hbm: Dram,
    ddr: Dram,
    ev: SchemeEvents,
    now: u64,
}

impl Rig {
    fn new(frames: u64) -> Self {
        Rig {
            scheme: NomadScheme::nomad(frames * PAGE_SIZE),
            hbm: Dram::new(DramConfig::hbm()),
            ddr: Dram::new(DramConfig::ddr4_2ch()),
            ev: SchemeEvents::default(),
            now: 0,
        }
    }

    fn run(&mut self, cycles: u64) -> usize {
        let mut wakes = 0;
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
            wakes += self.ev.wakes.len();
            self.ev.clear();
            self.now += 1;
        }
        wakes
    }
}

#[test]
fn tag_miss_on_shared_page_updates_all_ptes() {
    let mut rig = Rig::new(256);
    // Map vpn 10 (allocating pfn 0), then alias vpn 20 to the same pfn.
    rig.scheme.frontend_mut().page_table_mut().pte_mut(Vpn(10));
    assert!(rig
        .scheme
        .frontend_mut()
        .page_table_mut()
        .alias(Vpn(20), Pfn(0)));

    // Fault through vpn 10.
    match rig
        .scheme
        .walk(0, Vpn(10), SubBlockIdx(0), AccessKind::Read, 0)
    {
        WalkOutcome::Blocked { .. } => {}
        _ => panic!("first touch must tag-miss"),
    }
    rig.run(600);

    // Both aliases must now be cached with the same frame.
    let pt = rig.scheme.frontend_mut().page_table_mut();
    let f10 = pt.get(Vpn(10)).expect("mapped").frame;
    let f20 = pt.get(Vpn(20)).expect("mapped").frame;
    assert_eq!(f10, f20, "shared page: one cache frame for all PTEs");
    assert!(pt.get(Vpn(10)).expect("mapped").cached());

    // A walk through the *other* alias is now a plain hit — no second
    // tag miss, no second fill.
    match rig
        .scheme
        .walk(1, Vpn(20), SubBlockIdx(3), AccessKind::Read, rig.now)
    {
        WalkOutcome::Ready { entry } => assert_eq!(entry.frame, f10),
        _ => panic!("alias must not re-fault"),
    }
    assert_eq!(rig.scheme.stats().tag_misses.get(), 1);
}

#[test]
fn eviction_restores_every_alias() {
    let mut rig = Rig::new(64);
    rig.scheme.frontend_mut().page_table_mut().pte_mut(Vpn(1));
    assert!(rig
        .scheme
        .frontend_mut()
        .page_table_mut()
        .alias(Vpn(2), Pfn(0)));
    // Cache the shared page...
    rig.scheme
        .walk(0, Vpn(1), SubBlockIdx(0), AccessKind::Read, 0);
    rig.run(20_000);
    assert!(rig
        .scheme
        .frontend_mut()
        .page_table()
        .get(Vpn(1))
        .expect("mapped")
        .cached());
    // ...then create enough pressure to evict it (64-frame cache).
    for v in 100..400u64 {
        rig.scheme
            .walk(0, Vpn(v), SubBlockIdx(0), AccessKind::Read, rig.now);
        rig.run(1500);
    }
    let pt = rig.scheme.frontend_mut().page_table();
    let p1 = pt.get(Vpn(1)).expect("mapped");
    let p2 = pt.get(Vpn(2)).expect("mapped");
    assert!(!p1.cached(), "shared page evicted");
    assert_eq!(p1.frame, p2.frame, "both aliases restored to the PFN");
}
