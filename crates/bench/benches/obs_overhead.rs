// Observability cost harness: proves the layer's two-sided contract.
//
// * **Disabled is free.** With observability off (the default), the
//   simulation must be *byte-identical* to a never-instrumented run:
//   enabling obs for a run and stripping the attached series from its
//   report must reproduce the disabled report exactly. Any divergence
//   means instrumentation perturbed simulated behavior — a hard error.
// * **Enabled is cheap.** With observability on, wall-clock overhead
//   for a full cell must stay under the 2% budget (periodic registry
//   snapshots + span pushes, all behind relaxed atomics).
//
// ```text
// cargo bench -p nomad-bench --bench obs_overhead
// cargo run --release -p nomad-bench --bin obs_overhead
// ```
//
// Scale knobs: `NOMAD_INSTR` / `NOMAD_WARMUP` / `NOMAD_CORES` /
// `NOMAD_SEED` as usual, `NOMAD_REPS` (default 3) timing repetitions
// per mode (interleaved; best time kept). `NOMAD_OBS` must be *unset*:
// the environment variable overrides the in-process toggle this
// harness drives, so with it set both halves would run the same mode.

use nomad_bench::{measure, save_json, Scale};
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ObsOverhead {
    workload: String,
    scheme: String,
    instructions: u64,
    reps: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    overhead_pct: f64,
    byte_identical: bool,
    snapshot_rows: usize,
}

fn main() {
    nomad_bench::harness_init();
    if std::env::var_os("NOMAD_OBS").is_some() {
        eprintln!(
            "obs_overhead: NOMAD_OBS is set; it overrides the in-process toggle this \
             harness drives. Unset it and re-run."
        );
        std::process::exit(2);
    }

    let scale = Scale::from_env();
    let reps: usize = std::env::var("NOMAD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let job = scale.job(&SchemeSpec::Nomad, &WorkloadProfile::mcf());
    eprintln!(
        "obs_overhead: mcf × NOMAD, {} instr, best of {reps} per mode",
        scale.instructions
    );

    // Untimed warm-up (allocator, page cache), then interleaved timed
    // repetitions (see `nomad_bench::measure`) so drift hits both
    // modes equally. The disabled mode carries no payload; the enabled
    // one carries its report (needed below for the stripping check),
    // so both return `Option<RunReport>`.
    nomad_obs::set_enabled(false);
    let disabled_report = job.run_local();
    let mut disabled_mode = || {
        nomad_obs::set_enabled(false);
        let t = Instant::now();
        let r = job.run_local();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            r.to_json(),
            disabled_report.to_json(),
            "disabled runs must be deterministic"
        );
        (secs, None)
    };
    let mut enabled_mode = || {
        nomad_obs::set_enabled(true);
        let t = Instant::now();
        let r = job.run_local();
        (t.elapsed().as_secs_f64(), Some(r))
    };
    let mut best = measure::best_of(reps as u64, &mut [&mut disabled_mode, &mut enabled_mode]);
    // Scheduler noise only ever *inflates* a sample, so the best-of
    // minimum tightens monotonically with more reps. If the estimate
    // is over budget, escalate with extra interleaved pairs before
    // declaring a real regression — this keeps the gate meaningful on
    // short runs and loaded CI machines.
    let mut escalations = 0;
    while best[1].0 / best[0].0 - 1.0 >= 0.02 && escalations < reps.max(1) * 4 {
        let fresh = measure::best_of(1, &mut [&mut disabled_mode, &mut enabled_mode]);
        measure::merge_best(&mut best, fresh);
        escalations += 1;
    }
    if escalations > 0 {
        eprintln!("obs_overhead: over budget after {reps} reps; ran {escalations} extra pairs");
    }
    nomad_obs::set_enabled(false);

    let disabled_best = best[0].0 * 1e3;
    let enabled_best = best[1].0 * 1e3;
    let enabled_report = best
        .pop()
        .expect("two modes")
        .1
        .expect("enabled mode carries its report");
    let series = enabled_report
        .obs
        .as_ref()
        .expect("enabled run must attach an obs series");
    let snapshot_rows = series.snapshots.matches("{\"cycle\":").count();

    // Strip the series: what remains must be byte-identical to the
    // disabled run — instrumentation may observe, never perturb.
    let mut stripped = enabled_report.clone();
    stripped.obs = None;
    let byte_identical = stripped.to_json() == disabled_report.to_json();
    assert!(
        byte_identical,
        "enabled run diverged from disabled run (instrumentation perturbed the simulation)"
    );

    let pairs = reps + escalations;
    let overhead_pct = (enabled_best / disabled_best - 1.0) * 100.0;
    println!("disabled : {disabled_best:9.2} ms (best of {pairs})");
    println!("enabled  : {enabled_best:9.2} ms (best of {pairs}, {snapshot_rows} snapshots)");
    println!("overhead : {overhead_pct:9.2} %   (budget: < 2%)");
    println!("reports  : byte-identical after stripping the obs series");

    save_json(
        "obs_overhead",
        &ObsOverhead {
            workload: disabled_report.workload.clone(),
            scheme: disabled_report.scheme.clone(),
            instructions: scale.instructions,
            reps: pairs,
            disabled_ms: disabled_best,
            enabled_ms: enabled_best,
            overhead_pct,
            byte_identical,
            snapshot_rows,
        },
    );

    if overhead_pct >= 2.0 {
        eprintln!("obs_overhead: FAIL — overhead {overhead_pct:.2}% exceeds the 2% budget");
        std::process::exit(1);
    }
    println!("obs_overhead: PASS");
}
