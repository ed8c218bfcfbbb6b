//! Shims for the repository benchmark (`perfbench/`), which still calls
//! these names. No in-tree code does: every cell builds a fresh
//! [`System`] through `nomad_sim::runner::run_one`, so the slot
//! [`with_slot`] hands out is always empty, and whatever `f` leaves in
//! it is dropped when `f` returns.

use nomad_sim::System;

/// Run `f` against an empty slot. A system `f` parks there is dropped
/// afterwards, so a caller that checks the slot first always builds
/// fresh.
pub fn with_slot<R>(f: impl FnOnce(&mut Option<System>) -> R) -> R {
    f(&mut None)
}

/// A no-op: nothing is ever parked.
pub fn clear() {}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sim::{SchemeSpec, SystemConfig};
    use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};

    #[test]
    fn slot_starts_empty_and_clears() {
        clear();
        with_slot(|slot| assert!(slot.is_none()));
        // A system parked in the slot is dropped, so the next caller
        // still finds it empty and builds fresh.
        let cfg = SystemConfig::scaled(1);
        let trace: Box<dyn TraceSource> = Box::new(SyntheticTrace::with_scale(
            &WorkloadProfile::tc(),
            1,
            cfg.pages_per_gb,
            cfg.l3_reach_pages(),
        ));
        let sys = System::new(cfg.clone(), SchemeSpec::Baseline.build(&cfg), vec![trace]);
        with_slot(|slot| *slot = Some(sys));
        with_slot(|slot| assert!(slot.is_none()));
        clear();
        with_slot(|slot| assert!(slot.is_none()));
    }
}
