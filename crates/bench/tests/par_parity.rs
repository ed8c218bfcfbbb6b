//! The parallel sweep executor must be invisible in the artifacts:
//! whatever `NOMAD_JOBS` is, every harness row comes back in
//! submission order with byte-identical content. This suite holds a
//! small-scale Fig. 9 grid at several worker counts against the
//! `jobs = 1` sequential oracle.

use nomad_bench::figs::{sweep, Executor};
use nomad_bench::Scale;
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;

fn small_scale() -> Scale {
    Scale {
        instructions: 4_000,
        warmup: 400,
        cores: 2,
        seed: 7,
        jobs: 1,
    }
}

#[test]
fn parallel_sweep_rows_match_sequential_oracle() {
    let scale = small_scale();
    // A small head-to-head grid: all seven schemes (including Banshee
    // and TDRAM) over one low-RMHB and one bursty workload (2 × 7 = 14
    // cells).
    let specs = SchemeSpec::headtohead_set();
    let workloads = [WorkloadProfile::tc(), WorkloadProfile::libq()];

    let oracle = sweep(
        &Executor::default(),
        &scale.with_jobs(1),
        &specs,
        &workloads,
    );
    assert_eq!(oracle.len(), specs.len() * workloads.len());
    let oracle_json = serde_json::to_string(&oracle).expect("rows json");

    for jobs in [2usize, 8] {
        let rows = sweep(
            &Executor::default(),
            &scale.with_jobs(jobs),
            &specs,
            &workloads,
        );
        assert_eq!(
            serde_json::to_string(&rows).expect("rows json"),
            oracle_json,
            "NOMAD_JOBS={jobs} must produce byte-identical rows"
        );
    }
}

#[test]
fn parallel_sweep_keeps_submission_order() {
    let scale = small_scale();
    let specs = [SchemeSpec::Baseline, SchemeSpec::Nomad];
    let workloads = [WorkloadProfile::tc(), WorkloadProfile::libq()];
    let rows = sweep(
        &Executor::default(),
        &scale.with_jobs(4),
        &specs,
        &workloads,
    );
    let got: Vec<(String, String)> = rows
        .iter()
        .map(|r| (r.workload.clone(), r.scheme.clone()))
        .collect();
    let want: Vec<(String, String)> = workloads
        .iter()
        .flat_map(|w| {
            specs
                .iter()
                .map(move |s| (w.name.clone(), s.label().to_string()))
        })
        .collect();
    assert_eq!(got, want, "rows must stay in workloads × specs order");
}
