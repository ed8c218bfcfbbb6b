// Hot-path profile harness: where does the wall time of one simulated
// cell actually go?
//
// Runs every scheme on one low-RMHB workload (`tc`, mostly
// cache-resident — the cells where the event kernel and the flat data
// layout pay most) and one high-RMHB workload (`mcf`), with the
// simulator's hot-path profile armed. Each cell reports simulated
// cycles per wall-clock second, the kernel's work counters (dense and
// burst ticks, skips, the commit cycles sleeping cores replayed, the
// cores asleep in awake clusters and the device edges that skipped the
// scheme) and the per-phase split of tick time:
//
// * `cpu`    — core commit/dispatch (with the ledger's replay of
//              sleeping cores), translation, L1 injection;
// * `cache`  — the SRAM hierarchy (L1/L2/L3 ticks and traffic);
// * `dcache` — the DRAM-cache scheme's issue and complete, and
//              delivering what they emit;
// * `dram`   — the HBM and DDR4 device ticks between them;
// * `other`  — everything else (event-kernel queries, skips, stats).
//
// The profile is purely observational: armed or not, runs produce
// byte-identical `RunReport`s (the skip-parity suite guards that), so
// these numbers can be compared across commits without re-validating
// simulation output.
//
// ```text
// cargo run --release -p nomad-bench --bin hot_profile
// ```
//
// Besides the tick-phase split, each cell reports its *setup* lap —
// wall time and allocation count to construct the `System`, as every
// cell does — plus the allocations of the measured run itself, which
// stay near zero.
//
// Scale knobs: `NOMAD_INSTR` (default 200 000 measured instructions),
// `NOMAD_WARMUP` (default 20 000), `NOMAD_SEED` (default 42),
// `NOMAD_REPS` (default 1 — the phase split is a ratio, so it is far
// less noise-sensitive than a throughput number); one core, the 4 MiB
// DRAM-cache configuration the parity suite uses.

use nomad_bench::{measure, save_json};
use nomad_sim::{SchemeSpec, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting wrapper around the system allocator: one relaxed
/// fetch-add per allocation, so the harness can report how many heap
/// allocations a setup or a measured run performs. Deallocations are
/// not counted — the interesting number is churn created, not freed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SysAlloc.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SysAlloc.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        SysAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[derive(Serialize)]
struct Row {
    workload: String,
    scheme: String,
    instructions: u64,
    simulated_cycles: u64,
    secs: f64,
    cycles_per_sec: f64,
    dense_ticks: u64,
    skips: u64,
    skipped_cycles: u64,
    burst_ticks: u64,
    settled_commit_cycles: u64,
    core_quiet_ticks: u64,
    scheme_quiet_ticks: u64,
    cpu_nanos: u64,
    cache_nanos: u64,
    dcache_nanos: u64,
    dram_nanos: u64,
    other_nanos: u64,
    /// Wall seconds to construct the `System` from scratch.
    setup_fresh_secs: f64,
    /// Heap allocations performed by that fresh construction.
    setup_fresh_allocs: u64,
    /// Heap allocations during the measured run itself.
    run_allocs: u64,
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn make_traces(
    cfg: &SystemConfig,
    profile: &WorkloadProfile,
    seed: u64,
) -> Vec<Box<dyn TraceSource>> {
    (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect()
}

fn build(cfg: &SystemConfig, spec: &SchemeSpec, profile: &WorkloadProfile, seed: u64) -> System {
    let mut sys = System::new(
        cfg.clone(),
        spec.build(cfg),
        make_traces(cfg, profile, seed),
    );
    sys.enable_hot_profile();
    sys.prewarm();
    sys
}

fn pct(part: u64, whole: f64) -> f64 {
    if whole <= 0.0 {
        0.0
    } else {
        part as f64 / whole * 100.0
    }
}

fn main() {
    nomad_bench::harness_init();
    let instructions = env_u64("NOMAD_INSTR", 200_000);
    let warmup = env_u64("NOMAD_WARMUP", 20_000);
    let seed = env_u64("NOMAD_SEED", 42);
    let reps = env_u64("NOMAD_REPS", 1).max(1);
    let mut cfg = SystemConfig::scaled(1);
    cfg.dc_capacity = 4 * 1024 * 1024;

    let mut rows = Vec::new();
    println!("hot-path profile ({instructions} instr, {warmup} warmup, seed {seed})");
    println!(
        "{:<10} {:<10} {:>12} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "scheme", "workload", "sim cycles", "cycles/s", "cpu%", "cach%", "dc%", "dram%", "other%"
    );
    for (spec, profile) in [
        SchemeSpec::Baseline,
        SchemeSpec::Tid,
        SchemeSpec::Tdc,
        SchemeSpec::Nomad,
    ]
    .into_iter()
    .flat_map(|s| {
        [WorkloadProfile::tc(), WorkloadProfile::mcf()].map(|profile| (s.clone(), profile))
    }) {
        // One timed cell (best-of-NOMAD_REPS via `nomad_bench::measure`;
        // default 1 — the phase split is a ratio, so it is far less
        // noise-sensitive than a throughput number).
        let mut cell = || {
            let setup_t0 = Instant::now();
            let setup_a0 = allocs();
            let mut sys = build(&cfg, &spec, &profile, seed);
            let setup_fresh_secs = setup_t0.elapsed().as_secs_f64();
            let setup_fresh_allocs = allocs() - setup_a0;

            sys.run(warmup);
            sys.reset_stats();
            let start_cycle = sys.cycle();
            let run_a0 = allocs();
            let t0 = Instant::now();
            sys.run(instructions);
            let secs = t0.elapsed().as_secs_f64();
            let run_allocs = allocs() - run_a0;
            let cycles = sys.cycle() - start_cycle;
            let hot = sys.hot_profile().expect("profile armed");
            (
                secs,
                (
                    cycles,
                    hot,
                    run_allocs,
                    setup_fresh_secs,
                    setup_fresh_allocs,
                ),
            )
        };
        let best = measure::best_of(reps, &mut [&mut cell]);
        let (secs, (cycles, hot, run_allocs, setup_fresh_secs, setup_fresh_allocs)) = best[0];

        let total_nanos = secs * 1e9;
        let accounted = hot.cpu_nanos + hot.cache_nanos + hot.dcache_nanos + hot.dram_nanos;
        let other_nanos = (total_nanos as u64).saturating_sub(accounted);
        let cps = cycles as f64 / secs;
        println!(
            "{:<10} {:<10} {:>12} {:>12.0} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
            spec.label(),
            profile.name,
            cycles,
            cps,
            pct(hot.cpu_nanos, total_nanos),
            pct(hot.cache_nanos, total_nanos),
            pct(hot.dcache_nanos, total_nanos),
            pct(hot.dram_nanos, total_nanos),
            pct(other_nanos, total_nanos),
        );
        rows.push(Row {
            workload: profile.name.clone(),
            scheme: spec.label().to_string(),
            instructions,
            simulated_cycles: cycles,
            secs,
            cycles_per_sec: cps,
            dense_ticks: hot.dense_ticks,
            skips: hot.skips,
            skipped_cycles: hot.skipped_cycles,
            burst_ticks: hot.burst_ticks,
            settled_commit_cycles: hot.settled_commit_cycles,
            core_quiet_ticks: hot.core_quiet_ticks,
            scheme_quiet_ticks: hot.scheme_quiet_ticks,
            cpu_nanos: hot.cpu_nanos,
            cache_nanos: hot.cache_nanos,
            dcache_nanos: hot.dcache_nanos,
            dram_nanos: hot.dram_nanos,
            other_nanos,
            setup_fresh_secs,
            setup_fresh_allocs,
            run_allocs,
        });
    }

    println!("\nsetup lap (fresh construction) and run allocations:");
    println!(
        "{:<10} {:<10} {:>10} {:>12} {:>12}",
        "scheme", "workload", "fresh ms", "fresh alloc", "run alloc"
    );
    for row in &rows {
        println!(
            "{:<10} {:<10} {:>10.2} {:>12} {:>12}",
            row.scheme,
            row.workload,
            row.setup_fresh_secs * 1e3,
            row.setup_fresh_allocs,
            row.run_allocs,
        );
    }
    save_json("hot_profile", &rows);
}
