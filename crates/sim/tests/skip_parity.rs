//! Dense/event parity: the next-event kernel must be an invisible
//! optimization. For every scheme, a fixed-seed run through
//! [`System::run`] (event skipping) must produce a [`RunReport`] that
//! is **byte-identical** (as serialized JSON) to the retained
//! [`System::run_dense`] reference loop — same cycles, same stall
//! breakdowns, same DRAM stats, same utilization denominators.

use nomad_sim::spec::SchemeSpec;
use nomad_sim::{HotProfileReport, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::CancelToken;

const WARMUP: u64 = 2_000;
const INSTRUCTIONS: u64 = 20_000;

fn parity_cfg(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::scaled(cores);
    cfg.dc_capacity = 4 * 1024 * 1024;
    cfg
}

fn build_system(
    cfg: &SystemConfig,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    seed: u64,
) -> System {
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect();
    let mut sys = System::new(cfg.clone(), spec.build(cfg), traces);
    sys.prewarm();
    sys
}

fn assert_parity(cores: usize, spec: SchemeSpec, profile: WorkloadProfile, seed: u64) {
    assert_parity_with(
        &parity_cfg(cores),
        spec,
        profile,
        seed,
        WARMUP,
        INSTRUCTIONS,
    );
}

fn assert_parity_with(
    cfg: &SystemConfig,
    spec: SchemeSpec,
    profile: WorkloadProfile,
    seed: u64,
    warmup: u64,
    instructions: u64,
) {
    assert_parity_of(cfg, spec, profile, seed, warmup, instructions, false);
}

/// The parity check itself; with `profiled`, the event system runs
/// with its hot-path profile armed and the measured window's profile
/// is returned.
fn assert_parity_of(
    cfg: &SystemConfig,
    spec: SchemeSpec,
    profile: WorkloadProfile,
    seed: u64,
    warmup: u64,
    instructions: u64,
    profiled: bool,
) -> Option<HotProfileReport> {
    let mut dense = build_system(cfg, &spec, &profile, seed);
    dense.run_dense(warmup);
    dense.reset_stats();
    dense.run_dense(instructions);
    let dense_json = serde_json::to_string(&dense.report(&profile.name)).expect("serialize");

    let mut event = build_system(cfg, &spec, &profile, seed);
    if profiled {
        event.enable_hot_profile();
    }
    event.run(warmup);
    event.reset_stats();
    event.run(instructions);
    let event_json = serde_json::to_string(&event.report(&profile.name)).expect("serialize");

    assert_eq!(
        dense_json,
        event_json,
        "event kernel diverged from dense loop ({} / {}, {} cores)",
        spec.label(),
        profile.name,
        cfg.cores
    );
    assert_eq!(dense.cycle(), event.cycle(), "final cycle diverged");
    event.hot_profile()
}

#[test]
fn baseline_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Baseline, WorkloadProfile::tc(), 11);
}

#[test]
fn tid_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Tid, WorkloadProfile::tc(), 12);
}

#[test]
fn tdram_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Tdram, WorkloadProfile::tc(), 21);
}

#[test]
fn banshee_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Banshee, WorkloadProfile::tc(), 22);
}

#[test]
fn tdc_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Tdc, WorkloadProfile::tc(), 13);
}

#[test]
fn nomad_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Nomad, WorkloadProfile::tc(), 14);
}

#[test]
fn ideal_event_run_is_byte_identical() {
    assert_parity(1, SchemeSpec::Ideal, WorkloadProfile::tc(), 23);
}

#[test]
fn nomad_high_rmhb_parity() {
    // mcf: high miss traffic keeps the OS handlers, backends and both
    // DRAM devices busy — exercises the dense end of the spectrum.
    assert_parity(1, SchemeSpec::Nomad, WorkloadProfile::mcf(), 15);
}

#[test]
fn nomad_two_core_parity() {
    let cfg = parity_cfg(2);
    assert_parity_with(
        &cfg,
        SchemeSpec::Nomad,
        WorkloadProfile::tc(),
        16,
        1_000,
        8_000,
    );
}

/// Eight cores in the Fig. 9 grid's shape (`SystemConfig::scaled(8)`,
/// its DRAM-cache size) on `mcf`: memory-quiet windows interleave with
/// scheme calls from many cores, and bursts are rare.
#[test]
fn eight_core_fig9_shape_parity() {
    let cfg = SystemConfig::scaled(8);
    for (spec, seed) in [(SchemeSpec::Nomad, 17), (SchemeSpec::Tid, 18)] {
        assert_parity_with(&cfg, spec, WorkloadProfile::mcf(), seed, 2_000, 10_000);
    }
}

/// Cache-resident cells whose cores run ALU work alone for long
/// stretches, so sleeping cores carry much of each run: every scheme on
/// one core over `ast` and `tc`, on the two-core shape with an 8 MiB
/// DRAM cache over `ast`, and on one three-wide core over `ast`, whose
/// due and run-target cap divide by a width that is not a power of
/// two. Each must be byte-identical to the dense loop and must really
/// have replayed commits from the ledger.
#[test]
fn sleeping_cores_are_byte_identical() {
    let mut two_core = SystemConfig::scaled(2);
    two_core.dc_capacity = 8 * 1024 * 1024;
    let mut three_wide = parity_cfg(1);
    three_wide.core.fetch_width = 3;
    three_wide.core.commit_width = 3;
    let cases = [
        (parity_cfg(1), WorkloadProfile::ast()),
        (parity_cfg(1), WorkloadProfile::tc()),
        (two_core, WorkloadProfile::ast()),
        (three_wide, WorkloadProfile::ast()),
    ];
    for (cfg, profile) in cases {
        for spec in SchemeSpec::headtohead_set() {
            let label = format!(
                "{} / {}, {} cores {} wide",
                spec.label(),
                profile.name,
                cfg.cores,
                cfg.core.fetch_width
            );
            let hot = assert_parity_of(&cfg, spec, profile.clone(), 31, WARMUP, INSTRUCTIONS, true)
                .expect("armed");
            assert!(
                hot.settled_commit_cycles > 0,
                "no core committed while asleep ({label})"
            );
        }
    }
}

#[test]
fn cancelled_run_stops_without_report() {
    let cfg = parity_cfg(1);
    let mut sys = build_system(&cfg, &SchemeSpec::Baseline, &WorkloadProfile::tc(), 9);
    let token = CancelToken::new();
    token.cancel();
    assert!(
        !sys.run_with_cancel(10_000_000, &token),
        "pre-cancelled token must stop the run"
    );
    // The system is still usable: a fresh token lets it finish.
    let fresh = CancelToken::new();
    assert!(sys.run_with_cancel(1_000, &fresh));
}
