//! Full-system assembly and experiment runner for the NOMAD
//! reproduction.
//!
//! [`System`] wires together everything the other crates provide —
//! trace-driven cores, two-level TLBs with a page-table walker, private
//! L1D/L2 + shared L3 SRAM caches, a [`nomad_dcache::DcScheme`] below
//! the LLC, and the HBM/DDR4 timing models — into one cycle-accurate
//! simulation matching the paper's Table II organization (scaled for
//! simulability; see `DESIGN.md`).
//!
//! [`runner`] executes the paper's experiments: a
//! (scheme × workload) run produces a [`RunReport`] with every metric
//! the evaluation section plots — IPC, DC access time, stall-cycle
//! breakdown, tag-management latency, on-package bandwidth breakdown,
//! row-buffer hit rates, RMHB and LLC MPMS.
//!
//! # Example
//!
//! ```no_run
//! use nomad_sim::{runner, SchemeSpec, SystemConfig};
//! use nomad_trace::WorkloadProfile;
//!
//! let cfg = SystemConfig::scaled(4);
//! let report = runner::run_one(
//!     &cfg,
//!     &SchemeSpec::Nomad,
//!     &WorkloadProfile::mcf(),
//!     100_000, // instructions per core
//!     20_000,  // warm-up instructions per core
//!     42,
//! );
//! println!("IPC {:.3}", report.ipc());
//! ```

mod config;
mod report;
pub mod runner;
pub mod spec;
mod system;

pub use config::SystemConfig;
pub use report::{ObsSeries, RunReport};
pub use spec::{BansheeSpec, NomadSpec, SchemeSpec, TdramSpec, TidSpec};
pub use system::{HotProfileReport, System, MAX_CORES};

/// The simulator's model version. A report is a pure function of its
/// job *and* this epoch: every stored report records the epoch that
/// produced it, and a stored report from any other epoch is never
/// replayed. Bump it in any change that alters simulator output;
/// `tests/model_epoch.rs` pins a few reports' digests to it and fails
/// until you do. A change that moves any committed default-scale
/// artifact under `results/` (what `figures all` writes) alters output
/// too, so it bumps the epoch as well.
pub const MODEL_EPOCH: u64 = 1;
