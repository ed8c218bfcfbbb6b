//! Shared harness utilities for the table/figure reproductions.
//!
//! `cargo run --release -p nomad-bench --bin figures -- <name…|all>`
//! regenerates the paper's evaluation: each figure in
//! [`figs::FIGURES`] runs its (scheme × workload × parameter) grid on
//! the scaled system through one [`figs::Executor`], prints the rows
//! the paper reports, and drops a JSON artifact under `results/`.
//!
//! Scales are controlled by environment variables so the full sweep
//! fits any time budget:
//!
//! * `NOMAD_INSTR` — measured instructions per core (default 150 000);
//! * `NOMAD_WARMUP` — warm-up instructions per core (default 120 000);
//! * `NOMAD_CORES` — CPU cores (default 8, the paper's count; clamped
//!   to `1..=`[`nomad_sim::MAX_CORES`]);
//! * `NOMAD_SEED` — RNG seed (default 42);
//! * `NOMAD_JOBS` — sweep worker threads (default: the host's
//!   available parallelism; 0 or garbage clamp to 1). Results are
//!   collected in submission order, so every table and JSON artifact
//!   is byte-identical at any job count — see [`par`];
//! * `NOMAD_FLEET_ADDRS` — run every harness grid through the fleet
//!   router over these `nomad-serve` nodes instead of in-process (see
//!   [`figs::Executor`]); `NOMAD_SERVE_ADDR` alone is a fleet of one.
//!
//! Resilience knobs (see DESIGN.md §12):
//!
//! * `NOMAD_CELL_RETRIES` — re-runs granted to a panicking sweep cell
//!   before the panic propagates (default 2);
//! * `--resume` / `NOMAD_RESUME=1` — take every cell the result store
//!   `results/cache/` already holds instead of re-running it (`figures`
//!   records each finished cell there; see
//!   [`figs::Executor::from_env`]);
//! * `NOMAD_FAULTS` — arm a deterministic fault-injection plan
//!   (`nomad_faults`; chaos testing only, unset = zero overhead);
//! * `NOMAD_SERVE_*` — the fleet router's per-node recovery budgets,
//!   documented on `nomad_serve::ClientConfig`.

pub mod arena;
pub mod figs;
pub mod journal;
pub mod loadgen;
pub mod measure;
pub mod par;
pub mod signal;

use nomad_serve::JobSpec;
use nomad_sim::{runner, RunReport, SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use serde::Serialize;

/// Experiment scale knobs (see crate docs for the environment
/// variables).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// CPU cores.
    pub cores: usize,
    /// RNG seed.
    pub seed: u64,
    /// Sweep worker threads (1 = the sequential oracle path).
    pub jobs: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            instructions: 150_000,
            warmup: 120_000,
            cores: 8,
            seed: 42,
            jobs: par::default_jobs(),
        }
    }
}

impl Scale {
    /// Read the scale from the environment (via the shared
    /// [`nomad_types::env`] reader: unset means default, garbage warns
    /// and means default), falling back to defaults.
    pub fn from_env() -> Self {
        use nomad_types::env;
        let d = Scale::default();
        Scale {
            instructions: env::u64_or("NOMAD_INSTR", d.instructions),
            warmup: env::u64_or("NOMAD_WARMUP", d.warmup),
            cores: env::usize_clamped("NOMAD_CORES", d.cores, 1, nomad_sim::MAX_CORES),
            seed: env::u64_or("NOMAD_SEED", d.seed),
            jobs: par::jobs_from_env(),
        }
    }

    /// A scale with an explicit worker count (tests pin this instead
    /// of racing on the `NOMAD_JOBS` environment variable).
    pub fn with_jobs(&self, jobs: usize) -> Self {
        Scale {
            jobs: jobs.max(1),
            ..*self
        }
    }

    /// The system configuration for this scale.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::scaled(self.cores)
    }

    /// A scale with a different core count (Fig. 13 sweeps cores).
    pub fn with_cores(&self, cores: usize) -> Self {
        Scale { cores, ..*self }
    }

    /// The job that runs `spec` on `profile` at this scale: one cell of
    /// a harness grid.
    pub fn job(&self, spec: &SchemeSpec, profile: &WorkloadProfile) -> JobSpec {
        JobSpec {
            cfg: self.config(),
            spec: spec.clone(),
            profile: profile.clone(),
            instructions: self.instructions,
            warmup: self.warmup,
            seed: self.seed,
        }
    }
}

/// Common harness prologue; every harness `main` calls this first.
///
/// * `--obs` anywhere on the command line force-enables the
///   observability layer ([`nomad_obs::set_enabled`]) for this
///   process, exactly like `NOMAD_OBS=1` (the environment variable
///   still wins when set — it is the explicit override).
/// * Installs the `SIGINT` handler ([`signal::install_sigint`]) so
///   Ctrl-C latches the sweep token and the harness exits 130 after
///   in-flight cells wind down, instead of dying mid-write.
/// * Arms the deterministic fault plan from `NOMAD_FAULTS`
///   ([`nomad_faults::init_from_env`]; a no-op when unset) and mirrors
///   injections into the `resilience.*` observability counters.
pub fn harness_init() {
    if std::env::args().any(|a| a == "--obs") {
        nomad_obs::set_enabled(true);
    }
    signal::install_sigint();
    nomad_faults::init_from_env();
    nomad_serve::mirror_faults_to_obs();
}

/// Write a report's observability series (interval snapshots + Chrome
/// trace) under `results/`, as `results/<name>.obs.json` and
/// `results/traces/<name>.trace.json`. No-op (with a note) when the
/// report carries no series (observability was off for the run).
///
/// The trace file is the raw pre-serialized Trace Event JSON — load it
/// directly in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn save_obs_artifacts(name: &str, report: &RunReport) {
    let Some(obs) = &report.obs else {
        eprintln!("[{name}: no obs series on report; run with --obs or NOMAD_OBS=1]");
        return;
    };
    save_raw(&format!("{name}.obs.json"), &obs.snapshots);
    save_raw(&format!("traces/{name}.trace.json"), &obs.trace);
}

/// `results/` at the workspace root, where every artifact and the
/// result store live. Bench targets run with the package directory as
/// cwd, so this is anchored at the workspace, not the cwd.
pub(crate) fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("results")
}

/// Write a pre-serialized JSON document under `results/` (like
/// [`save_json`], but the payload is already a string — obs exporters
/// serialize themselves).
pub fn save_raw(rel: &str, contents: &str) {
    let path = results_dir().join(rel);
    if let Some(dir) = path.parent() {
        if !dir.exists() && std::fs::create_dir_all(dir).is_err() {
            eprintln!("warning: could not create {}", dir.display());
            return;
        }
    }
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Run one (scheme × workload) cell at this scale, with cooperative
/// cancellation: `scale.job(spec, profile).run_local_cancellable(cancel)`.
/// Kept only for the repository benchmark (`perfbench/`), which still
/// calls it; in-tree code builds [`Scale::job`] cells instead.
pub fn run_cell(
    scale: &Scale,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    cancel: &CancelToken,
) -> Option<RunReport> {
    run_with_cfg_cell(&scale.config(), scale, spec, profile, cancel)
}

/// [`run_cell`] with an explicit system configuration. Kept only for
/// the repository benchmark (`perfbench/`), which still calls it.
pub fn run_with_cfg_cell(
    cfg: &SystemConfig,
    scale: &Scale,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    cancel: &CancelToken,
) -> Option<RunReport> {
    runner::run_one_cancellable(
        cfg,
        spec,
        profile,
        scale.instructions,
        scale.warmup,
        scale.seed,
        cancel,
    )
}

/// Write a JSON artifact as `results/<name>.json` (best effort:
/// failures are reported but do not abort the harness).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("plain data");
    save_raw(&format!("{name}.json"), &json);
}

/// Read a JSON artifact previously saved under `results/`: the
/// committed baseline a speed harness reports deltas against. `None`
/// when the file is missing or does not parse as `T` — callers treat
/// that as "no baseline" and skip the comparison.
pub fn load_json<T: serde::Deserialize>(name: &str) -> Option<T> {
    let path = results_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

/// The soft perf-gate threshold from `NOMAD_PERF_GATE_PCT`: when set,
/// a speed harness fails once throughput drops more than this many
/// percent below its committed `results/*.json` baseline. Unset (the
/// default) or unparsable means no gate — the harnesses stay
/// report-only, because wall-clock numbers are host-dependent and a
/// hard gate only makes sense against a baseline produced on
/// comparable hardware (CI pins the gate at 25% for its own runners).
pub fn perf_gate_pct() -> Option<f64> {
    std::env::var("NOMAD_PERF_GATE_PCT").ok()?.parse().ok()
}

/// Apply the soft perf gate to `(label, delta_pct)` pairs, where a
/// negative delta means "slower than the committed baseline by that
/// many percent". A no-op when `NOMAD_PERF_GATE_PCT` is unset;
/// otherwise prints every offender past the threshold and exits
/// non-zero so CI fails the job.
pub fn apply_perf_gate(deltas: &[(String, f64)]) {
    let Some(gate) = perf_gate_pct() else { return };
    let offenders: Vec<&(String, f64)> = deltas.iter().filter(|(_, d)| *d < -gate).collect();
    if offenders.is_empty() {
        println!(
            "perf gate: {} delta(s) all within -{gate:.0}% of baseline",
            deltas.len()
        );
        return;
    }
    for (label, d) in &offenders {
        eprintln!("perf gate FAILED: {label} at {d:+.1}% (threshold -{gate:.0}%)");
    }
    std::process::exit(1);
}

/// Geometric mean of an iterator of positive values (the paper reports
/// IPC improvements as averages across workloads).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Print a horizontal rule sized for the standard table width.
pub fn hr(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scale_env_round_trip() {
        let d = Scale::default();
        assert_eq!(d.cores, 8);
        assert!(d.instructions > 0);
        assert!(d.jobs >= 1);
        let cfg = d.config();
        assert_eq!(cfg.cores, 8);
        assert_eq!(d.with_cores(2).cores, 2);
        assert_eq!(d.with_jobs(3).jobs, 3);
        assert_eq!(d.with_jobs(0).jobs, 1, "with_jobs clamps to >= 1");
    }

    /// `NOMAD_CORES` past what a system simulates clamps to
    /// `MAX_CORES` instead of panicking every cell. This is the only
    /// test mutating `NOMAD_CORES`.
    #[test]
    fn scale_from_env_clamps_nomad_cores() {
        std::env::set_var("NOMAD_CORES", (nomad_sim::MAX_CORES + 1).to_string());
        assert_eq!(Scale::from_env().cores, nomad_sim::MAX_CORES);
        std::env::set_var("NOMAD_CORES", "0");
        assert_eq!(Scale::from_env().cores, 1);
        std::env::remove_var("NOMAD_CORES");
        assert_eq!(Scale::from_env().cores, 8);
    }

    /// `from_env` picks up `NOMAD_JOBS`, clamping invalid and zero
    /// values to 1. This is the only test mutating `NOMAD_JOBS`, so it
    /// cannot race with the other tests in this binary.
    #[test]
    fn scale_from_env_reads_nomad_jobs() {
        std::env::set_var("NOMAD_JOBS", "6");
        assert_eq!(Scale::from_env().jobs, 6);
        std::env::set_var("NOMAD_JOBS", "0");
        assert_eq!(Scale::from_env().jobs, 1, "zero clamps to 1");
        std::env::set_var("NOMAD_JOBS", "not-a-number");
        assert_eq!(Scale::from_env().jobs, 1, "garbage clamps to 1");
        std::env::remove_var("NOMAD_JOBS");
        assert_eq!(
            Scale::from_env().jobs,
            par::default_jobs(),
            "unset falls back to available parallelism"
        );
    }
}
