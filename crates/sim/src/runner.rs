//! Experiment runner: build, warm up, measure, report. Every cell
//! builds a fresh [`System`]; grids of cells run through
//! `nomad_bench::par::run_cells` (in-process) or the fleet router
//! (off-process).

use crate::config::SystemConfig;
use crate::report::RunReport;
use crate::spec::SchemeSpec;
use crate::system::System;
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::CancelToken;

/// Shared experiment body: build a fresh [`System`], prewarm, warm
/// up, measure. With a cancel token, both phases poll it and a
/// cancelled run yields `None`.
fn run_session(
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
    let mut sys = System::new(cfg.clone(), scheme, traces);
    sys.prewarm();
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

/// [`run_one_cancellable`] with an explicitly constructed scheme (for
/// ablations that need configuration knobs [`SchemeSpec`] does not
/// expose).
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
