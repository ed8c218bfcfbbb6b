//! `MODEL_EPOCH` is the simulator's model version: stored reports
//! record it, and a report from another epoch is never replayed. That
//! only holds if the epoch moves whenever simulator output does. This
//! test pins the FNV-1a digests of a few tiny reports beside the epoch
//! they were taken at, so a change that alters any of them fails here
//! until the epoch is bumped and the digests re-pinned.

use nomad_sim::{runner, SchemeSpec, SystemConfig, MODEL_EPOCH};
use nomad_trace::WorkloadProfile;
use nomad_types::hash::fnv1a;

/// The epoch the digests below were taken at.
const PINNED_EPOCH: u64 = 1;

fn digest(spec: &SchemeSpec, workload: &str) -> u64 {
    let profile = WorkloadProfile::by_name(workload).expect("known workload");
    let mut report = runner::run_one(&SystemConfig::scaled(1), spec, &profile, 5_000, 500, 42);
    // An observed run (NOMAD_OBS=1) attaches its series; the model's
    // output is the rest.
    report.obs = None;
    fnv1a(report.to_json().as_bytes())
}

#[test]
fn pinned_reports_match_the_model_epoch() {
    assert_eq!(
        MODEL_EPOCH, PINNED_EPOCH,
        "MODEL_EPOCH moved: re-pin the digests below at the new epoch"
    );
    // (scheme, workload, FNV-1a of the report's JSON) for one-core,
    // 5k-instruction cells.
    let pinned = [
        (SchemeSpec::Baseline, "tc", 0xa300_c900_6607_a7ab),
        (SchemeSpec::Baseline, "mcf", 0xc64f_c8fe_4e96_e6ee),
        (SchemeSpec::Nomad, "tc", 0xa523_1dbe_c3b2_8c06),
        (SchemeSpec::Nomad, "mcf", 0x307e_c07a_f804_f6c5),
    ];
    for (spec, workload, want) in pinned {
        let got = digest(&spec, workload);
        assert_eq!(
            got,
            want,
            "{}/{workload} digest {got:#018x}: simulator output changed: \
             bump MODEL_EPOCH and re-pin",
            spec.label()
        );
    }
}
