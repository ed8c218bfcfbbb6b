//! Chrome-trace generator: one Fig. 9 cell (mcf) per scheme, with
//! observability forced on.
//!
//! ```text
//! cargo run --release -p nomad-bench --bin trace_dump
//! ```
//!
//! Writes, per scheme in {TiD, TDC, NOMAD, Ideal}:
//!
//! * `results/traces/fig09_mcf_<scheme>.trace.json` — Trace Event
//!   Format; open in `chrome://tracing` or <https://ui.perfetto.dev>.
//! * `results/fig09_mcf_<scheme>.obs.json` — the matching interval
//!   snapshots.
//!
//! The committed example traces under `results/traces/` come from this
//! binary at a reduced scale (`NOMAD_INSTR=40000 NOMAD_WARMUP=10000`,
//! the defaults below) so the files stay small enough to read and to
//! check in; see EXPERIMENTS.md § "Reading the traces" for the
//! walkthrough of what TDC's blocking PCSHR span train looks like
//! next to NOMAD's.

use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;

fn main() {
    nomad_bench::harness_init();
    nomad_obs::set_enabled(true);
    if std::env::var_os("NOMAD_OBS").is_some_and(|v| v == "0") {
        eprintln!("trace_dump: NOMAD_OBS=0 disables tracing; unset it and re-run");
        std::process::exit(2);
    }

    // Committed-artifact scale: smaller than the figure harnesses'
    // default so each trace stays well under a megabyte and a 2-core
    // system keeps the track layout readable. The usual environment
    // knobs still override.
    let defaults = [
        ("NOMAD_INSTR", "40000"),
        ("NOMAD_WARMUP", "10000"),
        ("NOMAD_CORES", "2"),
    ];
    for (key, value) in defaults {
        if std::env::var_os(key).is_none() {
            std::env::set_var(key, value);
        }
    }
    let scale = nomad_bench::Scale::from_env();
    let profile = WorkloadProfile::mcf();

    for (tag, spec) in [
        ("tid", SchemeSpec::Tid),
        ("tdc", SchemeSpec::Tdc),
        ("nomad", SchemeSpec::Nomad),
        ("ideal", SchemeSpec::Ideal),
    ] {
        eprintln!("trace_dump: mcf × {tag} ({} instr)", scale.instructions);
        let mut job = scale.job(&spec, &profile);
        // Shrink the DRAM cache (1 MiB = 256 pages) so the cell
        // exercises evictions and writebacks — the whole point of the
        // trace is watching the copy pipeline work.
        job.cfg.dc_capacity = 1024 * 1024;
        let report = job.run_local();
        nomad_bench::save_obs_artifacts(&format!("fig09_mcf_{tag}"), &report);
    }
}
