//! Dense/event parity with observability on: a report's obs series —
//! interval snapshots and Chrome trace — must be as kernel-independent
//! as the rest of it. The event kernel never skips past the next
//! snapshot cycle, so [`System::run`] samples the same interval
//! boundaries [`System::run_dense`] does, and both serialize
//! byte-identically.
//!
//! Lives in its own integration-test binary because it flips the
//! process-wide [`nomad_obs::set_enabled`] switch.

use nomad_sim::spec::SchemeSpec;
use nomad_sim::{RunReport, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use serde_json::Value;

const WARMUP: u64 = 2_000;
const INSTRUCTIONS: u64 = 20_000;

fn build_system(cfg: &SystemConfig, spec: &SchemeSpec, profile: &WorkloadProfile) -> System {
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
    let mut sys = System::new(cfg.clone(), spec.build(cfg), traces);
    sys.prewarm();
    sys
}

#[test]
fn observed_reports_match_across_kernels() {
    if std::env::var_os("NOMAD_OBS").is_some() {
        eprintln!("NOMAD_OBS is set; skipping (this test drives the toggle itself)");
        return;
    }
    nomad_obs::set_enabled(true);
    let mut skipped = 0;
    for cores in [1, 2] {
        let mut cfg = SystemConfig::scaled(cores);
        cfg.dc_capacity = 4 * 1024 * 1024;
        for spec in [
            SchemeSpec::Baseline,
            SchemeSpec::Tdc,
            SchemeSpec::Nomad,
            SchemeSpec::Tid,
        ] {
            for profile in [WorkloadProfile::tc(), WorkloadProfile::mcf()] {
                let mut dense = build_system(&cfg, &spec, &profile);
                dense.run_dense(WARMUP);
                dense.reset_stats();
                dense.run_dense(INSTRUCTIONS);
                let dense_report = dense.report(&profile.name);

                let mut event = build_system(&cfg, &spec, &profile);
                event.enable_hot_profile();
                event.run(WARMUP);
                event.reset_stats();
                event.run(INSTRUCTIONS);
                skipped += event.hot_profile().expect("armed").skipped_cycles;
                let event_report = event.report(&profile.name);

                let obs = dense_report.obs.as_ref().expect("observed run");
                assert!(
                    obs.snapshots.matches("{\"cycle\":").count() >= 2,
                    "the run must span several snapshots"
                );
                assert_eq!(
                    serde_json::to_string(&dense_report).expect("serialize"),
                    serde_json::to_string(&event_report).expect("serialize"),
                    "observed reports diverged ({} / {}, {cores} cores)",
                    spec.label(),
                    profile.name
                );
            }
        }
    }
    assert!(skipped > 0, "the event kernel must have skipped");
}

/// The last snapshot's values of the metrics `pick` selects, summed.
fn last_sample_sum(report: &RunReport, pick: impl Fn(&str) -> bool) -> u64 {
    let obs = report.obs.as_ref().expect("observed run");
    let doc: Value = serde_json::from_str(&obs.snapshots).expect("snapshot JSON");
    let Some(Value::Array(snapshots)) = doc.get_field("snapshots") else {
        panic!("no snapshots array");
    };
    let Some(Value::Array(values)) = snapshots.last().and_then(|s| s.get_field("values")) else {
        panic!("no sampled values");
    };
    values
        .iter()
        .filter_map(|pair| match pair {
            Value::Array(kv) => match kv.as_slice() {
                [Value::Str(name), Value::U64(v)] if pick(name) => Some(*v),
                _ => None,
            },
            _ => None,
        })
        .sum()
}

/// Cold cells on a streaming workload, whose L1 and L3 heads are
/// refused MSHRs again and again: the event kernel lets those levels
/// sleep until a fill and pays their stall cycles through the ledgers,
/// so the `cache.*.mshr_stall_cycles` gauges and the LLC's `mshr_stall`
/// spans must come out exactly as the dense loop counts them. The
/// eight-core cell has every cluster refused at once; on one core the
/// core runs ALU work past its refused L1 head, so one ledger replays
/// the core's commits and the L1's stall cycles together.
#[test]
fn refused_heads_stall_alike_across_kernels() {
    if std::env::var_os("NOMAD_OBS").is_some() {
        eprintln!("NOMAD_OBS is set; skipping (this test drives the toggle itself)");
        return;
    }
    nomad_obs::set_enabled(true);
    let profile = WorkloadProfile::les();
    // (cores, scheme, instructions per core, whether the LLC refuses)
    for (cores, spec, instructions, llc) in [
        (8, SchemeSpec::Nomad, 4_000, true),
        (1, SchemeSpec::Baseline, 20_000, false),
    ] {
        let cfg = SystemConfig::scaled(cores);
        let mut dense = build_system(&cfg, &spec, &profile);
        dense.run_dense(instructions);
        let dense_report = dense.report(&profile.name);
        let mut event = build_system(&cfg, &spec, &profile);
        event.run(instructions);
        let event_report = event.report(&profile.name);

        let l1 = last_sample_sum(&dense_report, |n| {
            n.starts_with("cache.l1.") && n.ends_with(".mshr_stall_cycles")
        });
        let l3 = last_sample_sum(&dense_report, |n| n == "cache.l3.mshr_stall_cycles");
        assert!(l1 > 0, "no L1 head was refused ({cores} cores)");
        if llc {
            let trace = &dense_report.obs.as_ref().expect("observed run").trace;
            assert!(l3 > 0, "no L3 head was refused");
            assert!(trace.contains("\"mshr_stall\""), "no LLC stall span");
        }
        assert_eq!(
            serde_json::to_string(&dense_report).expect("serialize"),
            serde_json::to_string(&event_report).expect("serialize"),
            "observed reports diverged on refused heads ({cores} cores)"
        );
    }
}
