//! The repository benchmark behind the `perf` binary: four workloads
//! that drive the simulator, the sweep executor and the serve/fleet
//! tier through their public APIs. An untraced run prints the
//! end-to-end metrics; a traced run prints the per-layer metrics and
//! writes a Chrome trace. `README.md` in this directory says why each
//! workload and metric was chosen.

pub mod alloc;
pub mod calib;
pub mod metrics;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;

use std::path::PathBuf;

/// The four workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["fig9", "few_1core", "thrash_8mib", "serve_ladder"];

/// Settings of one benchmark run, straight from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds: a simulator run stops at the pass boundary
    /// nearest to it, a ladder splits it between its rungs.
    pub seconds: f64,
    /// Per-layer run: spans and the hot-path profile on.
    pub trace: bool,
    /// Write this seed's golden report digests instead of checking them.
    pub bless: bool,
    /// Tiny cells and short rungs, for tests.
    pub smoke: bool,
}

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Write one output file under `results/perf/` of the repository,
/// reporting (not aborting on) failure.
pub fn write_result(file: &str, contents: &str) {
    let dir = repo_root().join("results").join("perf");
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => eprintln!("[saved results/perf/{file}]"),
        Err(e) => eprintln!("warning: could not write results/perf/{file}: {e}"),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The message of a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
