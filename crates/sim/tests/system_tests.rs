//! System-assembly behaviour tests: checkpoint pre-warming, per-core
//! address-space isolation, warm-up stat hygiene, run-loop
//! determinism at the `System` API level, and the `reset_for_cell`
//! shim the repository benchmark calls.

use nomad_sim::{runner, SchemeSpec, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceRecord, TraceSource, WorkloadProfile};
use nomad_types::{AccessKind, VirtAddr, Vpn};

/// A trace visiting a fixed page list round-robin.
struct PageLoop {
    pages: Vec<u64>,
    i: usize,
}

impl TraceSource for PageLoop {
    fn next_record(&mut self) -> TraceRecord {
        let page = self.pages[self.i % self.pages.len()];
        let block = (self.i / self.pages.len()) as u64 % 64;
        self.i += 1;
        TraceRecord {
            gap: 8,
            kind: AccessKind::Read,
            vaddr: VirtAddr((page << 12) | (block << 6)),
        }
    }

    fn name(&self) -> &str {
        "pageloop"
    }

    fn resident_pages(&self) -> Vec<Vpn> {
        self.pages.iter().map(|&p| Vpn(p)).collect()
    }
}

fn system_with_pages(scheme: SchemeSpec, per_core_pages: Vec<Vec<u64>>) -> System {
    let cfg = SystemConfig::scaled(per_core_pages.len());
    let scheme = scheme.build(&cfg);
    let traces: Vec<Box<dyn TraceSource>> = per_core_pages
        .into_iter()
        .map(|pages| Box::new(PageLoop { pages, i: 0 }) as Box<dyn TraceSource>)
        .collect();
    System::new(cfg, scheme, traces)
}

#[test]
fn prewarm_eliminates_tag_misses_for_resident_pages() {
    let pages: Vec<u64> = (100..140).collect();
    let mut sys = system_with_pages(SchemeSpec::Nomad, vec![pages.clone(), pages]);
    sys.prewarm();
    sys.run(5_000);
    assert_eq!(
        sys.scheme().stats().tag_misses.get(),
        0,
        "prewarmed pages must not fault"
    );
}

#[test]
fn without_prewarm_the_same_pages_fault_once_each() {
    let pages: Vec<u64> = (100..140).collect();
    let mut sys = system_with_pages(SchemeSpec::Nomad, vec![pages]);
    sys.run(30_000);
    assert_eq!(
        sys.scheme().stats().tag_misses.get(),
        40,
        "one tag miss per distinct page"
    );
}

#[test]
fn cores_have_disjoint_address_spaces() {
    // Two cores using the *same* virtual pages: the scheme must see
    // 2× the distinct pages (per-core namespacing), not share them.
    let pages: Vec<u64> = (200..220).collect();
    let mut sys = system_with_pages(SchemeSpec::Nomad, vec![pages.clone(), pages]);
    sys.run(40_000);
    assert_eq!(sys.scheme().stats().tag_misses.get(), 40);
}

#[test]
fn warm_up_resets_measurements_but_keeps_state() {
    let pages: Vec<u64> = (300..340).collect();
    let mut sys = system_with_pages(SchemeSpec::Nomad, vec![pages]);
    sys.warm_up(20_000);
    assert_eq!(sys.measured_cycles(), 0, "stats window restarts");
    assert_eq!(sys.scheme().stats().tag_misses.get(), 0);
    sys.run(5_000);
    // All pages were cached during warm-up: the ROI has no faults.
    assert_eq!(sys.scheme().stats().tag_misses.get(), 0);
    assert!(sys.measured_cycles() > 0);
    assert!(sys.total_instructions() >= 5_000);
}

#[test]
fn report_reflects_run_identity() {
    let cfg = SystemConfig::scaled(2);
    let r = runner::run_one(
        &cfg,
        &SchemeSpec::Baseline,
        &WorkloadProfile::tc(),
        10_000,
        1_000,
        5,
    );
    assert_eq!(r.scheme, "Baseline");
    assert_eq!(r.workload, "tc");
    assert_eq!(r.cores.len(), 2);
    assert_eq!(r.clock_ghz, cfg.clock_ghz);
    let json = r.to_json();
    assert!(json.contains("\"workload\": \"tc\""));
}

/// One synthetic trace per core, seeded the way `runner::run_one` seeds
/// them.
fn synthetic(
    cfg: &SystemConfig,
    profile: &WorkloadProfile,
    seed: u64,
) -> Vec<Box<dyn TraceSource>> {
    (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect()
}

/// Prewarm, warm up and measure `sys`; its report as JSON.
fn run_cell(sys: &mut System, profile: &WorkloadProfile) -> String {
    sys.prewarm();
    sys.warm_up(1_000);
    sys.run(4_000);
    sys.report(&profile.name).to_json()
}

/// A system that has run a cell and is then switched to another scheme
/// and workload by `reset_for_cell` (kept for the repository
/// benchmark) reports exactly what a freshly built system does.
#[test]
fn reset_for_cell_reports_like_a_fresh_system() {
    let cfg = SystemConfig::scaled(2);
    let (mcf, tc) = (WorkloadProfile::mcf(), WorkloadProfile::tc());
    let mut sys = System::new(
        cfg.clone(),
        SchemeSpec::Nomad.build(&cfg),
        synthetic(&cfg, &mcf, 42),
    );
    run_cell(&mut sys, &mcf);
    assert!(sys.can_reuse_for(&cfg));
    sys.reset_for_cell(SchemeSpec::Tdc.build(&cfg), synthetic(&cfg, &tc, 7));
    let mut fresh = System::new(
        cfg.clone(),
        SchemeSpec::Tdc.build(&cfg),
        synthetic(&cfg, &tc, 7),
    );
    assert_eq!(run_cell(&mut sys, &tc), run_cell(&mut fresh, &tc));
}
