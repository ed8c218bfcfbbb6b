//! Shim for the repository benchmark (`perfbench/`), which still calls
//! [`set_enabled`]. Nothing reads it: the `figures` binary's
//! [`crate::figs::Executor::from_env`] always records into
//! `results/cache/` and reads `--resume` / `NOMAD_RESUME` itself, and
//! library users and tests build their own executors.

/// A no-op.
pub fn set_enabled(_on: bool) {}
