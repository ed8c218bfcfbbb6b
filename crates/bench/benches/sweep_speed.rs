// Sweep-executor speed harness: wall-clock time for the full Fig. 9
// grid (15 workloads × 5 schemes), sequential oracle (`jobs = 1`) vs
// the parallel executor.
//
// Both modes run the *same* `figs::sweep` path — only the worker count
// differs — and the harness asserts the two row vectors serialize
// byte-identically before reporting a speedup, so a number is never
// published for a divergent sweep.
//
// ```text
// cargo run --release -p nomad-bench --bin sweep_speed
// ```
//
// Scale knobs: `NOMAD_INSTR` (default 12 000 measured instructions —
// smaller than the figure harnesses' default so the timing loop stays
// snappy), `NOMAD_WARMUP` (default 3 000), `NOMAD_CORES` (default 8),
// `NOMAD_SEED` (default 42), `NOMAD_REPS` (default 2 — each mode is
// timed that many times, interleaved, and the best time kept),
// `NOMAD_JOBS` (parallel-mode worker count; default: available
// parallelism).

use nomad_bench::figs::{self, Executor};
use nomad_bench::{apply_perf_gate, load_json, measure, par, save_json, Scale};
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct SweepSpeed {
    cells: usize,
    sim_cores: usize,
    instructions: u64,
    warmup: u64,
    seed: u64,
    reps: u64,
    host_threads: usize,
    jobs: usize,
    seq_secs: f64,
    par_secs: f64,
    speedup: f64,
    rows_identical: bool,
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    nomad_bench::harness_init();
    let scale = Scale {
        instructions: env_u64("NOMAD_INSTR", 12_000),
        warmup: env_u64("NOMAD_WARMUP", 3_000),
        cores: env_u64("NOMAD_CORES", 8) as usize,
        seed: env_u64("NOMAD_SEED", 42),
        jobs: par::jobs_from_env(),
    };
    let reps = env_u64("NOMAD_REPS", 2).max(1);
    let specs = SchemeSpec::fig9_set();
    let workloads = WorkloadProfile::all();
    let cells = specs.len() * workloads.len();
    let host_threads = par::default_jobs();

    println!(
        "sweep-executor speed: fig09 grid, {} cells ({} workloads x {} schemes), \
         {} instr + {} warmup per core, {} sim cores, seed {}",
        cells,
        workloads.len(),
        specs.len(),
        scale.instructions,
        scale.warmup,
        scale.cores,
        scale.seed
    );
    println!(
        "host threads {}, parallel jobs {}, best of {} rep(s) per mode",
        host_threads, scale.jobs, reps
    );

    // Interleaved best-of-reps (see `nomad_bench::measure`): the two
    // modes alternate so frequency scaling and scheduler noise hit
    // both sides evenly. Each pass gets its own in-process, unrecorded
    // executor, so it runs every cell: the timings are of cells
    // running, not of a memo, store writes or a fleet.
    let mut seq_rep = 0;
    let mut seq_mode = || {
        seq_rep += 1;
        eprintln!("— rep {seq_rep} / {reps}: sequential (jobs=1)");
        let t0 = Instant::now();
        let rows = figs::sweep(
            &Executor::default(),
            &scale.with_jobs(1),
            &specs,
            &workloads,
        );
        (t0.elapsed().as_secs_f64(), rows)
    };
    let mut par_rep = 0;
    let mut par_mode = || {
        par_rep += 1;
        eprintln!("— rep {par_rep} / {reps}: parallel (jobs={})", scale.jobs);
        let t0 = Instant::now();
        let rows = figs::sweep(&Executor::default(), &scale, &specs, &workloads);
        (t0.elapsed().as_secs_f64(), rows)
    };
    let mut best = measure::best_of(reps, &mut [&mut seq_mode, &mut par_mode]);
    let (par_secs, par_rows) = best.pop().expect("two modes");
    let (seq_secs, seq_rows) = best.pop().expect("two modes");
    let seq_json = serde_json::to_string(&seq_rows).expect("plain data");
    let par_json = serde_json::to_string(&par_rows).expect("plain data");
    assert_eq!(
        seq_json, par_json,
        "parallel sweep diverged from the sequential oracle"
    );

    let speedup = seq_secs / par_secs;
    println!("\n{:<24} {:>10} {:>14}", "mode", "secs", "cells/sec");
    println!(
        "{:<24} {:>10.2} {:>14.2}",
        "sequential (jobs=1)",
        seq_secs,
        cells as f64 / seq_secs
    );
    println!(
        "{:<24} {:>10.2} {:>14.2}",
        format!("parallel (jobs={})", scale.jobs),
        par_secs,
        cells as f64 / par_secs
    );
    println!("speedup: {speedup:.2}x (rows byte-identical)");

    // Comparison against the committed baseline artifact (if any).
    // Wall-clock and host-dependent, so informational by default;
    // `NOMAD_PERF_GATE_PCT` (CI: 25) turns a drop past the threshold
    // into a failure.
    let mut deltas = Vec::new();
    if let Some(base) = load_json::<SweepSpeed>("sweep_speed") {
        if base.cells == cells && base.instructions == scale.instructions {
            let base_cps = base.cells as f64 / base.par_secs;
            let cps = cells as f64 / par_secs;
            let delta = (cps / base_cps - 1.0) * 100.0;
            println!(
                "cells/sec vs committed results/sweep_speed.json (parallel): \
                 {base_cps:.2} -> {cps:.2} ({delta:+.1}%)"
            );
            deltas.push(("sweep cells/sec (parallel)".to_string(), delta));
        } else {
            println!(
                "committed results/sweep_speed.json ran a different scale \
                 ({} cells, {} instr); skipping the delta",
                base.cells, base.instructions
            );
        }
    }

    save_json(
        "sweep_speed",
        &SweepSpeed {
            cells,
            sim_cores: scale.cores,
            instructions: scale.instructions,
            warmup: scale.warmup,
            seed: scale.seed,
            reps,
            host_threads,
            jobs: scale.jobs,
            seq_secs,
            par_secs,
            speedup,
            rows_identical: true,
        },
    );
    apply_perf_gate(&deltas);
}
