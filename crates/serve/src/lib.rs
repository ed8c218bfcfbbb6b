//! nomad-serve: a sharded simulation service over the NOMAD
//! experiment runner.
//!
//! Long parameter sweeps re-run many identical (config × scheme ×
//! workload × seed) cells — across figures, across sessions, across
//! collaborators. This crate turns the in-process
//! [`runner`](nomad_sim::runner) into a small network service that
//! runs each distinct experiment at most once:
//!
//! * **Protocol** ([`proto`]) — line-delimited JSON over TCP; a
//!   connection is a lane of synchronous request/response pairs.
//! * **Job queue** ([`queue`]) — bounded MPMC with backpressure:
//!   submissions beyond capacity are rejected with a retry-after hint
//!   instead of queueing unboundedly.
//! * **Worker pool** ([`worker`]) — shards jobs across OS threads;
//!   every attempt runs under `catch_unwind` with a wall-clock
//!   timeout, and panics are retried up to a budget so one poisoned
//!   job cannot take the service down.
//! * **Result cache** ([`cache`]) — content-addressed by the FNV-1a 64
//!   hash of the job's canonical JSON, with single-flight coalescing:
//!   identical concurrent submissions ride on one execution. The
//!   `Probe`/`Fetch` protocol frames expose it read-only over the
//!   wire, so a fleet router (`nomad-fleet`) can treat every node's
//!   cache as one shared tier — any node can answer any previously
//!   computed cell regardless of ring placement.
//! * **Result store** ([`store`]) — the on-disk side of the cache: one
//!   `<key>.json` document per finished job, stamped with
//!   [`nomad_sim::MODEL_EPOCH`]. A node spills to it and reads a
//!   job's document on the job's first request; the figure harnesses
//!   record their cells in the same format.
//! * **Overload protection** ([`overload`]) — per-job deadline
//!   budgets carried on the wire (`Request::SubmitDeadline`), an
//!   admission controller that sheds work whose estimated wait exceeds
//!   its budget, a CoDel-style queue-delay shedder, and dynamic
//!   `Overloaded { retry_after_ms }` backpressure hints scaled by
//!   queue depth. Expired work is shed at admission, dequeue, and
//!   pre-execute; with shedding disabled the `overload.expired_executions`
//!   counter witnesses every deadline violation that ran anyway.
//! * **Stats** ([`stats`], `Request::Stats`) — queue depth, cache hit
//!   rate, per-worker utilization, p50/p99 job latency. Backed by a
//!   [`nomad_obs::Registry`], so responses carry the same `serve.*`
//!   metric names the snapshot-JSON exporter uses (documented in
//!   `METRICS.md`), and executed jobs leave Chrome-trace spans
//!   ([`ServerHandle::trace_json`]).
//!
//! Simulations are deterministic, so within one model epoch cached
//! reports never go stale and a cache hit is byte-identical to
//! re-running the job.
//!
//! # Quick start
//!
//! ```no_run
//! use nomad_serve::{serve, Client, JobSpec, ServerConfig};
//!
//! let handle = serve(ServerConfig::default()).expect("bind");
//! let mut client = Client::connect(handle.local_addr()).expect("connect");
//! # let job: JobSpec = todo!();
//! let response = client.submit(&job).expect("submit");
//! ```

pub mod cache;
pub mod client;
pub mod overload;
pub mod proto;
pub mod queue;
pub mod server;
pub mod stats;
pub mod store;
pub mod worker;

pub use cache::{JobFailure, ResultCache};
pub use client::{submit_within_deadline, Client, ClientConfig};
pub use overload::OverloadConfig;
pub use proto::{JobSpec, MetricRow, Request, Response, StatsSnapshot};
pub use server::{serve, ServerConfig, ServerHandle};
pub use stats::ServiceStats;
pub use store::ResultStore;

/// Mirror every fault the `NOMAD_FAULTS` plan injects into the
/// process-wide `resilience.faults_injected` counter. Idempotent;
/// called by [`serve`] and the fleet router so both sides of the wire
/// count their own injections. (nomad-faults itself is
/// zero-dependency, so the mirroring lives here.)
pub fn mirror_faults_to_obs() {
    nomad_faults::set_observer(|_site, _fault| nomad_obs::resilience().faults_injected.inc());
}
