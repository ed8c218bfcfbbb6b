//! Experiment runner: build, warm up, measure, report. Grids of cells
//! run through `nomad_bench::par::run_cells` (in-process) or the
//! fleet router (off-process).

use crate::config::SystemConfig;
use crate::report::RunReport;
use crate::spec::SchemeSpec;
use crate::system::System;
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::CancelToken;

/// Shared experiment body: build, prewarm, warm up, measure. With a
/// cancel token, both phases poll it and a cancelled run yields `None`.
fn run_session(
    cfg: &SystemConfig,
    scheme: Box<dyn nomad_dcache::DcScheme>,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
    cancel: Option<&CancelToken>,
) -> Option<RunReport> {
    run_session_in(
        &mut None,
        cfg,
        scheme,
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        cancel,
    )
}

/// [`run_session`] against a reuse slot: when `slot` parks a [`System`]
/// whose configuration matches, the cell recycles it via
/// [`System::reset_for_cell`] instead of building afresh, and the
/// system is parked back afterwards (even on cancellation — the next
/// reset cleans any mid-run state). A slot miss (empty, config
/// mismatch, or an observed run) falls back to `System::new`, so the
/// pooled path is always behaviourally identical to the fresh one.
#[allow(clippy::too_many_arguments)]
fn run_session_in(
    slot: &mut Option<System>,
    cfg: &SystemConfig,
    scheme: Box<dyn nomad_dcache::DcScheme>,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
    cancel: Option<&CancelToken>,
) -> Option<RunReport> {
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect();
    let mut sys = match slot.take() {
        Some(mut parked) if parked.can_reuse_for(cfg) => {
            parked.reset_for_cell(scheme, traces);
            parked
        }
        _ => System::new(cfg.clone(), scheme, traces),
    };
    sys.prewarm();
    let mut body = || -> Option<RunReport> {
        if warmup_instructions > 0 {
            match cancel {
                Some(token) => {
                    if !sys.run_with_cancel(warmup_instructions, token) {
                        return None;
                    }
                    sys.reset_stats();
                }
                None => sys.warm_up(warmup_instructions),
            }
        }
        match cancel {
            Some(token) => {
                if !sys.run_with_cancel(instructions_per_core, token) {
                    return None;
                }
            }
            None => sys.run(instructions_per_core),
        }
        Some(sys.report(&profile.name))
    };
    let report = body();
    *slot = Some(sys);
    report
}

/// [`run_one_cancellable`] against a caller-held reuse slot — the
/// arena-pooled per-cell body (`nomad_bench::SystemArena`). Each worker
/// thread keeps one parked [`System`] and every grid cell it claims
/// recycles that system's allocations.
#[allow(clippy::too_many_arguments)]
pub fn run_one_pooled(
    slot: &mut Option<System>,
    cfg: &SystemConfig,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
    cancel: &CancelToken,
) -> Option<RunReport> {
    run_session_in(
        slot,
        cfg,
        spec.build(cfg),
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        Some(cancel),
    )
}

/// Run one (scheme × workload) experiment: warm up for
/// `warmup_instructions` per core, then measure
/// `instructions_per_core`.
pub fn run_one(
    cfg: &SystemConfig,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
) -> RunReport {
    run_session(
        cfg,
        spec.build(cfg),
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        None,
    )
    .expect("uncancellable run always completes")
}

/// [`run_one`] with cooperative cancellation: returns `None` promptly
/// (without a report) once `cancel` is cancelled.
pub fn run_one_cancellable(
    cfg: &SystemConfig,
    spec: &SchemeSpec,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
    cancel: &CancelToken,
) -> Option<RunReport> {
    run_session(
        cfg,
        spec.build(cfg),
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        Some(cancel),
    )
}

/// Run one experiment with an explicitly constructed scheme (for
/// ablations that need configuration knobs [`crate::SchemeSpec`] does
/// not expose).
pub fn run_custom(
    cfg: &SystemConfig,
    scheme: Box<dyn nomad_dcache::DcScheme>,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
) -> RunReport {
    run_session(
        cfg,
        scheme,
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        None,
    )
    .expect("uncancellable run always completes")
}

/// [`run_custom`] with cooperative cancellation.
pub fn run_custom_cancellable(
    cfg: &SystemConfig,
    scheme: Box<dyn nomad_dcache::DcScheme>,
    profile: &WorkloadProfile,
    instructions_per_core: u64,
    warmup_instructions: u64,
    seed: u64,
    cancel: &CancelToken,
) -> Option<RunReport> {
    run_session(
        cfg,
        scheme,
        profile,
        instructions_per_core,
        warmup_instructions,
        seed,
        Some(cancel),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal smoke configuration: small caches, tiny run.
    fn smoke_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        cfg
    }

    #[test]
    fn baseline_smoke_run_commits_instructions() {
        let r = run_one(
            &smoke_cfg(),
            &SchemeSpec::Baseline,
            &WorkloadProfile::tc(),
            20_000,
            2_000,
            1,
        );
        assert!(r.instructions() >= 20_000);
        assert!(r.ipc() > 0.0);
        assert!(r.cycles > 0);
    }
}
