//! # NOMAD — Non-blocking OS-managed DRAM cache
//!
//! Facade crate re-exporting the whole NOMAD workspace: a cycle-level
//! heterogeneous-memory simulator reproducing *"NOMAD: Enabling
//! Non-blocking OS-managed DRAM Cache via Tag-Data Decoupling"*
//! (HPCA 2023).
//!
//! See `README.md` for a tour and `examples/` for runnable entry
//! points. The subsystems live in their own crates:
//!
//! * [`types`] — addresses, requests, statistics primitives.
//! * [`dram`] — cycle-level HBM/DDR4 timing model.
//! * [`cache`] — SRAM caches with MSHRs, TLBs, page tables.
//! * [`cpu`] — trace-driven out-of-order core model.
//! * [`trace`] — the Table I synthetic workload generator.
//! * [`dcache`] — the `DcScheme` abstraction plus Baseline/TiD/Ideal.
//! * [`core`] — **the paper's contribution**: NOMAD front-end OS
//!   routines + PCSHR back-end hardware (and the blocking TDC variant).
//! * [`sim`] — full-system assembly and the experiment runner.
//! * [`serve`] — sharded simulation service: TCP job queue, worker
//!   pool, content-addressed result cache.
//! * [`fleet`] — multi-node serve tier: one grid cursor,
//!   consistent-hash routing, shared cache reads, node failover.
//! * [`obs`] — observability: metric registries, snapshot logs,
//!   Chrome-trace export.
//! * [`faults`] — seeded deterministic fault injection driving the
//!   self-healing sweep stack (DESIGN.md §12).
//!
//! # Example
//!
//! ```no_run
//! use nomad::sim::{runner, SchemeSpec, SystemConfig};
//! use nomad::trace::WorkloadProfile;
//!
//! let cfg = SystemConfig::scaled(4);
//! let report = runner::run_one(
//!     &cfg,
//!     &SchemeSpec::Nomad,
//!     &WorkloadProfile::mcf(),
//!     100_000,
//!     20_000,
//!     42,
//! );
//! println!("IPC {:.3}", report.ipc());
//! ```

pub use nomad_cache as cache;
pub use nomad_core as core;
pub use nomad_cpu as cpu;
pub use nomad_dcache as dcache;
pub use nomad_dram as dram;
pub use nomad_faults as faults;
pub use nomad_fleet as fleet;
pub use nomad_obs as obs;
pub use nomad_serve as serve;
pub use nomad_sim as sim;
pub use nomad_trace as trace;
pub use nomad_types as types;
