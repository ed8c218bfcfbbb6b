//! DRAM-cache scheme abstraction and the paper's comparison schemes.
//!
//! Everything below the shared LLC is a [`DcScheme`]: it owns the page
//! table (OS-managed schemes keep DC tags in PTEs), handles page-table
//! walks including DC tag misses, and queues demand traffic for the
//! on-package HBM or the off-package DDR4. The system ticks both DRAM
//! devices between a scheme's [`DcScheme::issue`] and
//! [`DcScheme::complete`].
//!
//! This crate provides the scheme *substrates* the paper compares
//! NOMAD against:
//!
//! * [`Baseline`] — off-package memory only (lower bound);
//! * [`Ideal`] — an OS-managed DC with zero miss-handling cost (upper
//!   bound), also used to measure Table I's RMHB/MPMS characteristics;
//! * [`Tid`] — the HW-based *tags-in-DRAM* design modeled after Unison
//!   Cache: 1 KiB lines, 4-way sets with an ideal way predictor,
//!   tag/metadata traffic in on-package DRAM, MSHRs with
//!   critical-block-first fills;
//! * [`Banshee`] — page-granular, TLB/PTE-tracked tags with a
//!   sampled-frequency, bandwidth-aware replacement policy and lazy
//!   tag-table writeback;
//! * [`Tdram`] — a HW-managed design with per-row *on-die* tags: hits
//!   are single DRAM accesses, misses are detected early by cheap
//!   tag-only probes ([`nomad_dram::Probe::TagOnly`]).
//!
//! The NOMAD scheme itself (and TDC, which shares its front-end) lives
//! in the `nomad-core` crate; shared machinery — the circular
//! cache-frame free queue with cache page descriptors ([`CacheFrames`])
//! and the one DRAM request queue every scheme feeds its devices
//! through ([`DramQueue`]) — lives here so both crates can use it.

mod banshee;
mod baseline;
mod frames;
mod ideal;
mod queue;
mod scheme;
mod stats;
mod tdram;
mod tid;

pub use banshee::{Banshee, BansheeConfig};
pub use baseline::Baseline;
pub use frames::{CacheFrames, Cpd, EvictCandidate};
pub use ideal::Ideal;
pub use queue::DramQueue;
pub use scheme::{CacheFlush, DcAccessReq, DcScheme, NoFlush, SchemeEvents, WalkOutcome};
pub use stats::{SchemeStats, SchemeStatsObs};
pub use tdram::{Tdram, TdramConfig};
pub use tid::{Tid, TidConfig};
