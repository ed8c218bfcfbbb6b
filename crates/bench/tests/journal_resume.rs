//! Resume + fault-injection acceptance tests over *real* simulation
//! cells: a sweep interrupted part-way and resumed from its result
//! store must serialize byte-identically to a clean run (floats
//! included — the vendored JSON round-trips `f64` exactly) and re-run
//! only the cells the store is missing, and a sweep running under an
//! armed `NOMAD_FAULTS` plan must heal within the retry budget and
//! still produce byte-identical rows at any executor width.
//!
//! Fault plans are process-global, so every test serializes on one
//! mutex. Stores live in scratch directories under the system temp
//! dir, never under the repo's `results/`.

use nomad_bench::figs::{sweep, Executor, Row};
use nomad_bench::{par, Scale};
use nomad_serve::ResultStore;
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

fn tiny_scale(jobs: usize) -> Scale {
    Scale {
        instructions: 5_000,
        warmup: 500,
        cores: 2,
        seed: 42,
        jobs,
    }
}

fn specs() -> [SchemeSpec; 4] {
    [
        SchemeSpec::Nomad,
        SchemeSpec::Tdc,
        SchemeSpec::Tid,
        SchemeSpec::Baseline,
    ]
}

fn workloads() -> [WorkloadProfile; 2] {
    [WorkloadProfile::tc(), WorkloadProfile::mcf()]
}

fn cells() -> Vec<(WorkloadProfile, SchemeSpec)> {
    workloads()
        .into_iter()
        .flat_map(|w| [SchemeSpec::Nomad, SchemeSpec::Tdc].map(move |spec| (w.clone(), spec)))
        .collect()
}

fn cell_fn(
    scale: Scale,
) -> impl Fn(&(WorkloadProfile, SchemeSpec), &CancelToken) -> Option<Row> + Sync {
    move |(w, spec), cancel| {
        let r = scale.job(spec, w).run_local_cancellable(cancel)?;
        Some(Row::from_report(&r, w.class.label()))
    }
}

/// The serialized form the figure harnesses write to `results/` — the
/// byte-identity contract is on this string.
fn to_json(rows: &[Row]) -> String {
    serde_json::to_string(&rows.to_vec()).expect("rows serialize")
}

/// Documents in a store directory (0 if it does not exist yet).
fn stored(dir: &Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    })
}

fn cells_resumed() -> u64 {
    nomad_obs::resilience()
        .rows()
        .into_iter()
        .find(|(name, _)| name == "resilience.journal_cells_resumed")
        .expect("counter registered")
        .1
}

#[test]
fn resumed_sweep_is_byte_identical_to_a_clean_run() {
    if nomad_obs::enabled() {
        eprintln!("NOMAD_OBS turns observability on and the store off; skipping");
        return;
    }
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = tiny_scale(1);
    let total = specs().len() * workloads().len();
    let dir = std::env::temp_dir().join(format!("nomad-journal-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let clean = sweep(&Executor::default(), &scale, &specs(), &workloads());

    // Interrupted run: cancel once the first finished cell is stored,
    // the way SIGINT latches the sweep token mid-grid.
    let recording = Executor {
        store: Some(ResultStore::new(&dir)),
        ..Executor::default()
    };
    let cancel = CancelToken::new();
    let cells: Vec<_> = workloads()
        .iter()
        .flat_map(|w| specs().map(|spec| scale.job(&spec, w)))
        .collect();
    let interrupted = std::thread::scope(|scope| {
        scope.spawn(|| {
            while stored(&dir) == 0 && !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_micros(200));
            }
            cancel.cancel();
        });
        let out = recording.run(scale.jobs, &cancel, &cells);
        cancel.cancel();
        out
    });
    assert!(interrupted.is_none(), "the sweep was cancelled mid-grid");
    let kept = stored(&dir);
    assert!(
        (1..total).contains(&kept),
        "{kept} of {total} cells stored when interrupted"
    );

    // Resumed run: the stored cells are read, only the missing ones
    // run, and the rows serialize byte-identically to the clean run.
    let resuming = Executor {
        resume: true,
        ..recording
    };
    let before = cells_resumed();
    let resumed = sweep(&resuming, &scale, &specs(), &workloads());
    assert_eq!(
        cells_resumed() - before,
        kept as u64,
        "every stored cell is resumed, so only the {} missing ones re-ran",
        total - kept
    );
    assert_eq!(stored(&dir), total, "the re-run cells are stored too");
    assert_eq!(
        to_json(&resumed),
        to_json(&clean),
        "resume must be byte-identical — floats round-trip exactly"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed `bench.cell` panic plan heals inside the retry budget and
/// the rows stay byte-identical to an uninjected run at every width.
/// The plan's injected index-set is fixed by the seed, and each width
/// gets a fresh plan, so both draw the same indices; under seed 7 the
/// first two cell attempts panic. A generous retry budget makes any
/// schedule's worst-case run of consecutive injections survivable, so
/// this test is deterministic.
#[test]
fn fault_injected_sweep_heals_byte_identical_at_any_width() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Cached on first read by the executor (OnceLock); every test in
    // this binary that arms faults wants the same generous budget.
    std::env::set_var("NOMAD_CELL_RETRIES", "10");
    let scale = tiny_scale(1);
    let clean = par::run_cells(1, &CancelToken::new(), cells(), cell_fn(scale))
        .expect("clean run completes");

    for jobs in [1usize, 4] {
        nomad_faults::install(Some(
            nomad_faults::FaultPlan::parse("7:bench.cell=panic@0.3").expect("valid plan"),
        ));
        let injected_before = nomad_faults::injected_total();
        let chaotic = par::run_cells(
            jobs,
            &CancelToken::new(),
            cells(),
            cell_fn(tiny_scale(jobs)),
        )
        .expect("sweep heals within the retry budget");
        let injected = nomad_faults::injected_total() - injected_before;
        nomad_faults::install(None);
        assert_eq!(
            to_json(&chaotic),
            to_json(&clean),
            "jobs={jobs}: healed rows must match the uninjected run"
        );
        assert!(injected > 0, "jobs={jobs}: the plan must have fired");
    }
}
