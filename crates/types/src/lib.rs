//! Common types shared by every crate in the NOMAD workspace.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * **Addresses** — newtypes for virtual addresses, off-package physical
//!   addresses, on-package cache addresses, and page/frame numbers
//!   ([`VirtAddr`], [`PhysAddr`], [`CacheAddr`], [`Pfn`], [`Cfn`], [`Vpn`]).
//! * **Requests** — the messages exchanged between the CPU, SRAM caches,
//!   the DRAM-cache scheme and the DRAM devices ([`req::MemReq`],
//!   [`req::MemResp`], [`req::AccessKind`], [`req::TrafficClass`]).
//! * **Statistics** — counters, running means and latency histograms used
//!   for every metric the paper reports ([`stats`]).
//! * **Hashing** — the FNV-1a 64 function every content-addressed
//!   identity in the workspace derives from (serve cache and
//!   result-store keys, fleet ring placement), and the one-multiply
//!   [`IntHasher`] behind the simulator's integer-keyed maps ([`hash`]).
//! * **Environment knobs** — the shared parse/clamp/warn-on-garbage
//!   reader behind every `NOMAD_*` tuning variable ([`mod@env`]).
//!
//! The geometry constants ([`PAGE_SIZE`], [`BLOCK_SIZE`],
//! [`SUB_BLOCKS_PER_PAGE`]) mirror the paper's configuration: 4 KiB pages
//! managed by the OS-level front-end, transferred in 64-byte sub-blocks
//! (one DRAM burst each), so a page copy consists of 64 sub-block
//! transfers traced by a PCSHR's bit-vectors.

#![warn(missing_docs)]

pub mod addr;
pub mod env;
pub mod event;
pub mod fastclock;
pub mod geom;
pub mod hash;
pub mod req;
pub mod stats;

pub use addr::{BlockAddr, CacheAddr, Cfn, PageOffset, Pfn, PhysAddr, SubBlockIdx, VirtAddr, Vpn};
pub use event::{CancelToken, NextActivity};
pub use geom::{Geometry, Pow2};
pub use hash::{fnv1a, IntHasher, IntMap, IntSet};
pub use req::{AccessKind, MemLevel, MemReq, MemResp, MemTarget, ReqId, TrafficClass};

/// Simulation time, measured in CPU clock cycles.
pub type Cycle = u64;

/// Identifier of a CPU core in the simulated chip multiprocessor.
pub type CoreId = usize;

/// Size of an OS page — the allocation/caching granularity of the
/// OS-managed DRAM cache (4 KiB).
pub const PAGE_SIZE: u64 = 4096;

/// Size of one SRAM cache block and of one DRAM burst (64 bytes).
/// This is also the sub-block granularity at which PCSHRs trace page
/// copies.
pub const BLOCK_SIZE: u64 = 64;

/// Number of 64-byte sub-blocks per 4 KiB page (= 64). A PCSHR's
/// read-issued / in-buffer / partial-write vectors have one bit per
/// sub-block, which is why they are 64 bits wide in the paper.
pub const SUB_BLOCKS_PER_PAGE: u64 = PAGE_SIZE / BLOCK_SIZE;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// log2 of [`BLOCK_SIZE`].
pub const BLOCK_SHIFT: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 1 << PAGE_SHIFT);
        assert_eq!(BLOCK_SIZE, 1 << BLOCK_SHIFT);
        assert_eq!(SUB_BLOCKS_PER_PAGE, 64);
        assert_eq!(PAGE_SIZE % BLOCK_SIZE, 0);
    }
}
