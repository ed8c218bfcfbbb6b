//! Observed-run integration: a system built with observability enabled
//! attaches a rendered [`nomad_sim::ObsSeries`] to its report, and the
//! artifacts have the documented shapes.
//!
//! Lives in its own integration-test binary because it flips the
//! process-wide [`nomad_obs::set_enabled`] switch.

use nomad_sim::{runner, SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;

#[test]
fn observed_run_attaches_series() {
    if std::env::var("NOMAD_OBS").is_ok() {
        // An explicit environment setting overrides set_enabled in
        // either direction; the assertions below would test the wrong
        // thing.
        return;
    }
    nomad_obs::set_enabled(true);
    let cfg = SystemConfig::scaled(2);
    let report = runner::run_one(
        &cfg,
        &SchemeSpec::Nomad,
        &WorkloadProfile::mcf(),
        30_000,
        5_000,
        42,
    );
    let obs = report.obs.as_ref().expect("observed run attaches obs");

    // Snapshot-JSON document: interval header, metric metadata for the
    // scheme-independent dcache gauges, and at least one sampled row
    // (a 30k-instruction run spans many sampling intervals).
    assert!(obs.snapshots.starts_with("{\"interval\":"));
    assert!(obs
        .snapshots
        .contains("\"name\":\"dcache.pcshr_occupancy\""));
    assert!(obs.snapshots.contains("\"name\":\"cpu.0.instructions\""));
    assert!(
        obs.snapshots.contains("{\"cycle\":"),
        "expected at least one snapshot row"
    );

    // Chrome trace: valid Trace Event Format envelope with the track
    // metadata rows.
    assert!(obs.trace.starts_with("{\"traceEvents\":["));
    assert!(obs.trace.contains("\"ph\":\"M\""));
    assert!(obs.trace.contains("\"DC fills\""));
    assert!(obs.trace.ends_with("}}"));

    // The serialized report carries the artifacts through serde.
    let json = report.to_json();
    assert!(json.contains("\"obs\""));
    let back: nomad_sim::RunReport = serde_json::from_str(&json).expect("round trip");
    assert_eq!(back.obs.expect("obs survives").interval, obs.interval);
}
