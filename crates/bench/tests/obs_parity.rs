//! Observability must not weaken the sweep determinism contract.
//!
//! Two halves:
//!
//! 1. With observability **on**, a grid run at `NOMAD_JOBS=4`
//!    serializes byte-identically — obs series included — to the
//!    `jobs = 1` sequential oracle. Registries are per-`System` and
//!    snapshot timing is simulated-cycle-driven, so a cell's series is
//!    a pure function of the cell no matter which worker ran it.
//! 2. With observability **off**, reports are byte-identical to an
//!    enabled run with the series stripped: instrumentation may
//!    observe, never perturb, and the `obs` field vanishes from the
//!    JSON entirely when absent.
//! 3. The result store holds plain reports only: a resumed sweep with
//!    observability on re-runs a stored cell (its report needs a
//!    series) and leaves the plain document alone, and with
//!    observability off it reads the document back.
//!
//! Lives in its own integration-test binary because it drives the
//! process-global [`nomad_obs::set_enabled`] toggle.

use nomad_bench::figs::Executor;
use nomad_bench::{par, Scale};
use nomad_serve::ResultStore;
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;

fn grid() -> Vec<(WorkloadProfile, SchemeSpec)> {
    [SchemeSpec::Tdc, SchemeSpec::Nomad]
        .into_iter()
        .flat_map(|spec| {
            [WorkloadProfile::tc(), WorkloadProfile::mcf()]
                .into_iter()
                .map(move |w| (w, spec.clone()))
        })
        .collect()
}

fn run_grid(scale: &Scale) -> Vec<String> {
    let token = CancelToken::new();
    par::run_cells(scale.jobs, &token, grid(), |(w, spec), cancel| {
        scale
            .job(spec, w)
            .run_local_cancellable(cancel)
            .map(|r| r.to_json())
    })
    .expect("uncancelled sweep completes")
}

#[test]
fn obs_series_survive_parallel_sweeps_and_strip_to_disabled_reports() {
    if std::env::var_os("NOMAD_OBS").is_some() {
        eprintln!("NOMAD_OBS is set; skipping (this test drives the toggle itself)");
        return;
    }
    let scale = Scale {
        instructions: 6_000,
        warmup: 1_000,
        cores: 2,
        seed: 11,
        jobs: 1,
    };

    nomad_obs::set_enabled(false);
    let disabled = run_grid(&scale);
    for json in &disabled {
        assert!(
            !json.contains("\"obs\""),
            "disabled reports must not mention obs at all"
        );
    }

    nomad_obs::set_enabled(true);
    let seq = run_grid(&scale);
    let par4 = run_grid(&scale.with_jobs(4));
    nomad_obs::set_enabled(false);

    assert_eq!(
        seq, par4,
        "obs-enabled sweeps must serialize identically at any job count"
    );

    for (enabled_json, disabled_json) in seq.iter().zip(&disabled) {
        assert!(
            enabled_json.contains("\"obs\""),
            "enabled reports must carry a series"
        );
        let mut report: nomad_sim::RunReport =
            serde_json::from_str(enabled_json).expect("round-trip");
        report.obs = None;
        assert_eq!(
            &report.to_json(),
            disabled_json,
            "stripping the series must reproduce the disabled report byte-for-byte"
        );
    }

    store_keeps_observed_reports_out(&scale, &disabled[0]);
}

fn cells_resumed() -> u64 {
    nomad_obs::resilience()
        .rows()
        .into_iter()
        .find(|(name, _)| name == "resilience.journal_cells_resumed")
        .expect("counter registered")
        .1
}

/// Part 3, run with observability off on entry. `plain` is the
/// disabled report of the grid's first cell.
fn store_keeps_observed_reports_out(scale: &Scale, plain: &str) {
    let (w, spec) = grid().swap_remove(0);
    let job = scale.job(&spec, &w);
    let dir = std::env::temp_dir().join(format!("nomad-obs-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::new(&dir);
    let plain: nomad_sim::RunReport = serde_json::from_str(plain).expect("round-trip");
    store
        .put(job.content_key(), &job.canonical_json(), &plain)
        .expect("plant a plain document");
    let doc = dir.join(format!("{:016x}.json", job.content_key()));
    let planted = std::fs::read(&doc).expect("planted document");
    let exec = Executor {
        fleet: None,
        store: Some(store),
        resume: true,
        ..Executor::default()
    };
    let token = CancelToken::new();

    nomad_obs::set_enabled(true);
    let before = cells_resumed();
    let observed = exec.run(1, &token, std::slice::from_ref(&job));
    nomad_obs::set_enabled(false);
    let observed = observed.expect("uncancelled sweep completes");
    assert!(
        observed[0].obs.is_some(),
        "an observed resume re-runs the cell instead of reading a plain report"
    );
    assert_eq!(cells_resumed(), before, "nothing was resumed");
    assert_eq!(
        std::fs::read(&doc).expect("document"),
        planted,
        "the observed report must not overwrite the plain document"
    );

    let resumed = exec
        .run(1, &token, std::slice::from_ref(&job))
        .expect("uncancelled sweep completes");
    assert_eq!(
        cells_resumed(),
        before + 1,
        "the plain resume reads the document"
    );
    assert_eq!(resumed[0].to_json(), plain.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}
