//! Whether harness cells are recorded in the result store, and whether
//! they are read back from it.
//!
//! With recording on, every cell a harness finishes in-process is
//! written to the workspace's `results/cache/` store (see
//! [`crate::figs::Executor::from_env`]) the moment it completes — the
//! store `nomad-serve` spills to by default, in the same format.
//! [`crate::harness_init`] turns recording on, so harness binaries
//! record and library users and tests do not.
//!
//! Resume (`--resume` / `NOMAD_RESUME=1`) also reads: every cell the
//! store already holds for the same `JobSpec` and
//! [`nomad_sim::MODEL_EPOCH`] is taken from it instead of re-run —
//! after a SIGINT or a crash, or from any earlier run. Cells are pure
//! and stored reports round-trip exactly, so a resumed harness's
//! artifacts are byte-identical to a clean run's.

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static RESUME: AtomicBool = AtomicBool::new(false);

/// Turn recording finished cells in the store on or off for this
/// process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether finished cells are recorded in the store.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Request (or cancel) reading stored cells instead of re-running them.
pub fn set_resume(on: bool) {
    RESUME.store(on, Ordering::Relaxed);
}

/// Whether stored cells are read instead of re-run.
pub fn resume_requested() -> bool {
    RESUME.load(Ordering::Relaxed)
}
