//! Property-based tests of the NOMAD back-end: under arbitrary
//! interleavings of demand accesses and transfer completions, the
//! PCSHR engine must preserve its accounting invariants and always
//! drain to completion.

use nomad_core::backend::{decode_copy_token, AccessCheck, Backend, BackendConfig};
use nomad_core::{CompletedCopy, CopyCommand, CopyKind};
use nomad_dcache::DcAccessReq;
use nomad_types::{AccessKind, BlockAddr, Cfn, MemTarget, Pfn, ReqId, SubBlockIdx};
use proptest::prelude::*;

fn fill_cmd(pfn: u64, cfn: u64, prio: u8) -> CopyCommand {
    CopyCommand {
        kind: CopyKind::Fill,
        pfn: Pfn(pfn),
        cfn: Cfn(cfn),
        priority: Some(SubBlockIdx(prio % 64)),
    }
}

fn access(cfn: u64, sub: u8, write: bool, token: u64) -> DcAccessReq {
    DcAccessReq {
        token: ReqId(token),
        addr: BlockAddr(cfn * 64 + (sub % 64) as u64),
        target: MemTarget::DramCache,
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        core: 0,
        wants_response: !write,
    }
}

/// Drive the backend against instant DRAM until idle; returns the
/// completed copies and the number of demand responses released.
fn drain(b: &mut Backend, max_cycles: u64) -> (Vec<CompletedCopy>, usize) {
    let mut completed = Vec::new();
    let mut responses = Vec::new();
    for now in 0..max_cycles {
        b.tick(now);
        let mut reqs: Vec<_> = std::iter::from_fn(|| b.to_hbm.pop_front()).collect();
        reqs.extend(std::iter::from_fn(|| b.to_ddr.pop_front()));
        for r in reqs {
            let (_, w, slot, sub) = decode_copy_token(r.token);
            b.on_copy_completion(w, slot, sub, now);
        }
        b.pop_ready_responses(now + 1_000_000, &mut responses);
        b.take_completed(&mut completed);
        if b.is_idle() {
            break;
        }
    }
    (completed, responses.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every accepted command eventually completes, regardless of the
    /// demand traffic thrown at it mid-copy, and every parked read is
    /// eventually answered.
    #[test]
    fn prop_all_commands_complete(
        cmds in proptest::collection::vec((0u64..32, 0u8..64), 1..12),
        ops in proptest::collection::vec((0usize..12, 0u8..64, proptest::bool::ANY), 0..40),
        pcshrs in 2usize..8,
        buffers in 1usize..8,
    ) {
        let cfg = BackendConfig {
            pcshrs,
            buffers: buffers.min(pcshrs),
            ..BackendConfig::default()
        };
        let mut b = Backend::new(0, cfg);
        // Distinct CFNs per command (duplicate CFNs are prevented by
        // the front-end's pending-VPN dedup in real operation).
        let mut accepted: Vec<u64> = Vec::new();
        for (i, &(pfn, prio)) in cmds.iter().enumerate() {
            let cfn = 100 + i as u64;
            if b.try_send(fill_cmd(pfn, cfn, prio)) {
                accepted.push(cfn);
            }
        }
        prop_assert!(!accepted.is_empty());

        // Interleave demand traffic against the in-flight pages.
        let mut parked_reads = 0usize;
        let mut serviced = 0usize;
        for (i, &(cmd_idx, sub, write)) in ops.iter().enumerate() {
            let cfn = accepted[cmd_idx % accepted.len()];
            match b.check_access(access(cfn, sub, write, 1000 + i as u64), i as u64) {
                AccessCheck::Parked => parked_reads += if write { 0 } else { 1 },
                AccessCheck::Serviced => serviced += 1,
                AccessCheck::Retry | AccessCheck::Absorbed | AccessCheck::NoMatch => {}
            }
        }

        let (completed, responses) = drain(&mut b, 10_000);
        prop_assert_eq!(completed.len(), accepted.len(), "all copies complete");
        prop_assert!(b.is_idle());
        prop_assert_eq!(
            responses, parked_reads + serviced,
            "every waiting read answered exactly once"
        );
        // After completion, the same pages are data hits.
        for &cfn in &accepted {
            prop_assert_eq!(
                b.check_access(access(cfn, 0, false, 9999), 99_999),
                AccessCheck::NoMatch
            );
        }
    }

    /// The interface accepts exactly as many commands as there are
    /// PCSHRs, and frees capacity as copies complete.
    #[test]
    fn prop_interface_capacity(pcshrs in 1usize..16) {
        let cfg = BackendConfig {
            pcshrs,
            buffers: pcshrs,
            ..BackendConfig::default()
        };
        let mut b = Backend::new(0, cfg);
        let mut sent = 0;
        for i in 0..pcshrs + 4 {
            if b.try_send(fill_cmd(i as u64, 500 + i as u64, 0)) {
                sent += 1;
            }
        }
        prop_assert_eq!(sent, pcshrs, "capacity equals PCSHR count");
        prop_assert!(!b.interface_idle());
        let (completed, _) = drain(&mut b, 20_000);
        prop_assert_eq!(completed.len(), pcshrs);
        prop_assert!(b.interface_idle());
        prop_assert!(b.try_send(fill_cmd(99, 999, 0)), "capacity recycled");
    }

    /// Writebacks and fills may coexist; lookups never confuse the two
    /// directions (fills match by CFN, writebacks by PFN).
    #[test]
    fn prop_fill_wb_tag_separation(page in 1u64..1000) {
        let mut b = Backend::new(0, BackendConfig::default());
        // A fill into cache frame `page` and a writeback of physical
        // frame `page` (same number, different spaces).
        prop_assert!(b.try_send(fill_cmd(page + 5000, page, 0)));
        let wb_sent = b.try_send(CopyCommand {
            kind: CopyKind::Writeback,
            pfn: Pfn(page),
            cfn: Cfn(page + 7000),
            priority: None,
        });
        prop_assert!(wb_sent);
        // DC access to cfn=page matches the fill.
        let dc = access(page, 3, false, 1);
        prop_assert_ne!(b.check_access(dc, 0), AccessCheck::NoMatch);
        // Off-package access to pfn=page matches the writeback.
        let off = DcAccessReq {
            target: MemTarget::OffPackage,
            ..access(page, 3, false, 2)
        };
        prop_assert_ne!(b.check_access(off, 0), AccessCheck::NoMatch);
        // Off-package access to an unrelated pfn matches nothing.
        let other = DcAccessReq {
            target: MemTarget::OffPackage,
            ..access(page + 1, 3, false, 3)
        };
        prop_assert_eq!(b.check_access(other, 0), AccessCheck::NoMatch);
        let (completed, _) = drain(&mut b, 20_000);
        prop_assert_eq!(completed.len(), 2);
    }
}
