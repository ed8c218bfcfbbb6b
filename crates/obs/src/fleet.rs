//! Process-wide fleet-router counters.
//!
//! The fleet tier (consistent-hash routing, shared cache reads,
//! membership failover) spans nomad-fleet, nomad-serve and
//! nomad-bench, so — exactly like [`crate::resilience()`] — its
//! counters live in one process-global registry rather than in any
//! per-router instance: a sweep wants one answer to "how many cells
//! were fetched from a peer / nodes failed over this run", no matter
//! which router call absorbed the event.
//!
//! Like the resilience counters these are **not** gated on
//! [`enabled`](crate::enabled): the events are rare (a peer fetch, a
//! node death) and each is one relaxed atomic add, so they always count.
//! They are documented in `METRICS.md` and held against this registry
//! by the two-way `metrics_doc` test.

use crate::metric::Counter;
use crate::registry::Registry;
use std::sync::OnceLock;

/// Handles to the process-wide fleet counters.
pub struct Fleet {
    registry: Registry,
    /// Jobs sent down the fleet client's per-cell path
    /// (`fleet.cells_routed`).
    pub cells_routed: Counter,
    /// Cells answered by fetching a cached report from a node other
    /// than the one they were sent to, instead of computing
    /// (`fleet.remote_fetches`).
    pub remote_fetches: Counter,
    /// Nodes declared dead with their ring arc reassigned live
    /// (`fleet.failovers`).
    pub failovers: Counter,
    /// Heartbeat probes that failed or were injected as failures
    /// (`fleet.heartbeat_misses`).
    pub heartbeat_misses: Counter,
}

impl Fleet {
    fn new() -> Self {
        let registry = Registry::new();
        Fleet {
            cells_routed: registry.counter(
                "fleet.cells_routed",
                "cells",
                "fleet",
                "Jobs sent down the fleet client's per-cell path",
            ),
            remote_fetches: registry.counter(
                "fleet.remote_fetches",
                "cells",
                "fleet",
                "Cells answered from another node's cache instead of computing",
            ),
            failovers: registry.counter(
                "fleet.failovers",
                "nodes",
                "fleet",
                "Nodes declared dead with their ring arc reassigned live",
            ),
            heartbeat_misses: registry.counter(
                "fleet.heartbeat_misses",
                "probes",
                "fleet",
                "Heartbeat probes that failed (or were injected as failures)",
            ),
            registry,
        }
    }

    /// Sorted base names of every fleet metric (for the `metrics_doc`
    /// two-way diff).
    pub fn metric_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// Sorted `(name, value)` rows of the live counters.
    pub fn rows(&self) -> Vec<(String, u64)> {
        self.registry.snapshot(0).values
    }

    /// The live value of one counter by its registered name; `None`
    /// for names this registry does not export. Convenience for tests
    /// asserting before/after deltas on the cumulative counters.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.rows()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// The process-wide [`Fleet`] counters.
pub fn fleet() -> &'static Fleet {
    static GLOBAL: OnceLock<Fleet> = OnceLock::new();
    GLOBAL.get_or_init(Fleet::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_under_documented_names() {
        let names = fleet().metric_names();
        assert_eq!(
            names,
            vec![
                "fleet.cells_routed",
                "fleet.failovers",
                "fleet.heartbeat_misses",
                "fleet.remote_fetches",
            ]
        );
    }

    #[test]
    fn rows_track_increments() {
        let before = fleet().value("fleet.failovers").expect("row present");
        fleet().failovers.inc();
        let after = fleet().value("fleet.failovers").expect("row present");
        assert_eq!(after, before + 1);
    }
}
