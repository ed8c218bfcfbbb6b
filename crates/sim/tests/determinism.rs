//! The determinism guarantee the result-caching service relies on: a
//! fixed seed reproduces a byte-identical report. (Grid ordering is
//! pinned where grids run: `par_parity` for the in-process executor,
//! `fleet_parity` for the fleet router.)

use nomad_sim::runner;
use nomad_sim::{SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    cfg
}

#[test]
fn run_one_with_fixed_seed_is_byte_identical() {
    for spec in [SchemeSpec::Baseline, SchemeSpec::Nomad, SchemeSpec::Tdc] {
        let a = runner::run_one(&cfg(), &spec, &WorkloadProfile::mcf(), 8_000, 1_000, 99);
        let b = runner::run_one(&cfg(), &spec, &WorkloadProfile::mcf(), 8_000, 1_000, 99);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{}: same inputs must serialize identically",
            spec.label()
        );
    }
}
