//! Process-wide resilience counters.
//!
//! The self-healing layer (fault injection, cell retries, serve
//! reconnects, local fallbacks, resume from the result store) spans
//! three crates — nomad-faults, nomad-serve and nomad-bench — so its
//! counters live in one shared registry here rather than in any
//! per-`System` or per-server registry. They are process-global by design: a sweep
//! wants one answer to "how many faults were injected / cells retried
//! / cells resumed this run", no matter which layer absorbed the
//! damage.
//!
//! Unlike the simulator's metrics these are **not** gated on
//! [`enabled`](crate::enabled): the events they count are rare (a
//! retry, a reconnect) and the counters are one relaxed atomic add, so
//! they always count. They are documented in `METRICS.md` and held
//! against this registry by the two-way `metrics_doc` test.

use crate::metric::Counter;
use crate::registry::Registry;
use std::sync::OnceLock;

/// Handles to the process-wide resilience counters.
pub struct Resilience {
    registry: Registry,
    /// Faults injected by the `NOMAD_FAULTS` plan
    /// (`resilience.faults_injected`). Mirrored from nomad-faults'
    /// injection observer.
    pub faults_injected: Counter,
    /// Sweep cells re-run after a panic (`resilience.cell_retries`).
    pub cell_retries: Counter,
    /// Connections re-established to nomad-serve after a transport
    /// error (`resilience.serve_reconnects`).
    pub serve_reconnects: Counter,
    /// Cells executed in-process because the server stayed unreachable
    /// past the reconnect budget (`resilience.local_fallbacks`).
    pub local_fallbacks: Counter,
    /// Harness cells read from the result store under `--resume`
    /// instead of re-run (`resilience.journal_cells_resumed`).
    pub journal_cells_resumed: Counter,
}

impl Resilience {
    fn new() -> Self {
        let registry = Registry::new();
        Resilience {
            faults_injected: registry.counter(
                "resilience.faults_injected",
                "faults",
                "resilience",
                "Faults injected by the NOMAD_FAULTS plan (all sites)",
            ),
            cell_retries: registry.counter(
                "resilience.cell_retries",
                "cells",
                "resilience",
                "Sweep cells re-run after a panicking attempt",
            ),
            serve_reconnects: registry.counter(
                "resilience.serve_reconnects",
                "connections",
                "resilience",
                "Connections re-established to nomad-serve after a transport error",
            ),
            local_fallbacks: registry.counter(
                "resilience.local_fallbacks",
                "cells",
                "resilience",
                "Cells executed locally because the server stayed unreachable",
            ),
            journal_cells_resumed: registry.counter(
                "resilience.journal_cells_resumed",
                "cells",
                "resilience",
                "Harness cells read from the result store under --resume instead of re-run",
            ),
            registry,
        }
    }

    /// Sorted base names of every resilience metric (for the
    /// `metrics_doc` two-way diff).
    pub fn metric_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// Sorted `(name, value)` rows of the live counters.
    pub fn rows(&self) -> Vec<(String, u64)> {
        self.registry.snapshot(0).values
    }
}

/// The process-wide [`Resilience`] counters.
pub fn resilience() -> &'static Resilience {
    static GLOBAL: OnceLock<Resilience> = OnceLock::new();
    GLOBAL.get_or_init(Resilience::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_under_documented_names() {
        let names = resilience().metric_names();
        assert_eq!(
            names,
            vec![
                "resilience.cell_retries",
                "resilience.faults_injected",
                "resilience.journal_cells_resumed",
                "resilience.local_fallbacks",
                "resilience.serve_reconnects",
            ]
        );
    }

    #[test]
    fn rows_track_increments() {
        let before = resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.cell_retries")
            .expect("row present")
            .1;
        resilience().cell_retries.inc();
        let after = resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.cell_retries")
            .expect("row present")
            .1;
        assert_eq!(after, before + 1);
    }
}
