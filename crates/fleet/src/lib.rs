//! nomad-fleet: a sharded multi-node serve tier over `nomad-serve`.
//!
//! One `nomad-serve` process turns sweeps into jobs against a single
//! cache-backed worker pool; this crate coordinates **N** of them:
//!
//! * **Consistent-hash routing** ([`ring`]) — every submitted job's
//!   content key places it on a 64-vnode hash ring over stable slot
//!   labels, so placement is reproducible across runs and ephemeral
//!   ports, and removing a node remaps only its arc.
//! * **One grid cursor** ([`router`]) — a grid's workers claim cells
//!   in grid order, and each worker starts the cells it claims at its
//!   own node, so in-flight cells spread over the nodes the way the
//!   workers do; the ring re-places a cell whose node dies.
//! * **Shared cache reads** — before computing, the client reads every
//!   other node's content-addressed result cache with one `Fetch` frame
//!   each; a cell any node already finished is fetched, not recomputed.
//! * **Membership and failover** ([`member`]) — per-node health from
//!   heartbeats plus the per-node ladder
//!   ([`nomad_serve::submit_ladder`]); a dead node's arc is reassigned
//!   to the survivors, and past the last node the remaining cells
//!   degrade to in-process execution (jobs sent with a budget never
//!   do).
//! * **Circuit breakers** ([`member::Breaker`]) — one rung below
//!   death: a node that keeps failing, shedding, or responding slowly
//!   trips its breaker and loses traffic for a cooldown, then earns it
//!   back through a single half-open probe. The ring never changes and
//!   the node is never declared dead, so membership stays monotone
//!   while overload oscillates freely.
//!
//! [`FleetClient`] is the only way a job leaves a process:
//! [`FleetClient::submit`] sends one job (with an optional budget, as
//! `nomad-loadgen --live` does per arrival), and
//! [`FleetClient::run_grid`] runs a grid's cells over the same per-cell
//! path. A single `nomad-serve` is just a fleet of one (the figure
//! harnesses read `NOMAD_SERVE_ADDR` as a one-node
//! `NOMAD_FLEET_ADDRS`). The house oracle holds at every size: a grid
//! produces **byte-identical** `RunReport`s at any fleet size, any
//! `jobs` width, with or without injected faults (`fleet_parity` and
//! the chaos suite hold this).
//!
//! Fault sites (see `nomad-faults`): `fleet.route` (placement falls
//! back to the first alive node), `fleet.member` (a heartbeat probe
//! counts as missed), `fleet.breaker` (a submit outcome is recorded as
//! a failure).
//! Fleet metrics are registered under `fleet.*` (breaker activity
//! under `overload.*`) in `nomad-obs` and documented in `METRICS.md`.

#![warn(missing_docs)]

pub mod member;
pub mod ring;
pub mod router;

pub use member::{Breaker, BreakerConfig, BreakerState, FleetConfig, Membership};
pub use ring::HashRing;
pub use router::FleetClient;

/// Parse a fleet address list: comma- and/or whitespace-separated
/// `host:port` entries, trimmed, empties dropped. This is the accepted
/// syntax of `NOMAD_FLEET_ADDRS` and every `--addrs` flag.
pub fn parse_addrs(raw: &str) -> Vec<String> {
    raw.split([',', ' ', '\t', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_lists_accept_commas_and_whitespace() {
        assert_eq!(
            parse_addrs("127.0.0.1:1, 127.0.0.1:2 ,,\n127.0.0.1:3"),
            vec!["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]
        );
        assert!(parse_addrs("  ").is_empty());
        assert!(parse_addrs("").is_empty());
    }
}
