//! Deterministic bursty load generator for the overload stack.
//!
//! ```text
//! nomad-loadgen [--seed N]          # virtual mode (default)
//! nomad-loadgen --live [--seed N]   # replay against NOMAD_FLEET_ADDRS
//! ```
//!
//! **Virtual mode** runs the committed burst scenario
//! ([`loadgen::LoadgenConfig::default`]) on an integer virtual clock —
//! steady → 3× burst → steady arrivals over two nodes, with node 1
//! turning 8× slower mid-run so its breaker trips, traffic reroutes,
//! and a half-open probe heals it. The report is written to
//! `results/loadgen.json`, is byte-identical across repeats and
//! platforms at the same seed, and the process exits non-zero when the
//! SLO verdict fails (goodput, p99, zero expired-job executions, and
//! at least one breaker trip).
//!
//! **Live mode** replays the same arrival schedule on the wall clock
//! against a real fleet: every arrival goes through
//! [`FleetClient::submit`] with a per-job deadline budget (ring route,
//! breaker gate with the scenario's thresholds, the node's ladder,
//! failover), outcomes and client-observed latencies are tallied, and
//! each node's `overload.expired_executions` counter is read back over
//! `/stats` — the zero-expired clause is checked against the
//! *servers'* witness counters, not client bookkeeping. The report
//! lands in `results/loadgen_live.json` (uncommitted; wall-clock
//! numbers are host-dependent).

use nomad_bench::loadgen::{self, BreakerCounts, LoadgenConfig};
use nomad_fleet::{parse_addrs, Breaker, FleetClient, FleetConfig};
use nomad_serve::{Client, JobSpec, Response};
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use nomad_types::stats::LogHistogram;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn main() {
    nomad_bench::harness_init();
    let mut live = false;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--live" => live = true,
            "--seed" => {
                let raw = args.next().unwrap_or_else(|| die("--seed needs a value"));
                seed = raw
                    .parse()
                    .unwrap_or_else(|_| die(&format!("invalid --seed `{raw}`")));
            }
            "--obs" | "--resume" => {} // consumed by harness_init
            "--help" | "-h" => {
                println!("usage: nomad-loadgen [--live] [--seed N]");
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let cfg = LoadgenConfig::with_seed(seed);
    if live {
        run_live(&cfg);
    } else {
        run_virtual(&cfg);
    }
}

fn run_virtual(cfg: &LoadgenConfig) {
    let report = loadgen::run_virtual(cfg);
    println!(
        "nomad-loadgen: offered {} | completed {} ({} in deadline, goodput {}%)",
        report.offered, report.completed, report.completed_in_deadline, report.goodput_pct
    );
    println!(
        "  shed: admit {} / queue-full {} / queue {} / codel {}",
        report.shed.admit, report.shed.queue_full, report.shed.queue, report.shed.codel
    );
    println!(
        "  breaker: {} trips, {} probes, {} closes, {} reroutes",
        report.breaker.trips, report.breaker.probes, report.breaker.closes, report.breaker.reroutes
    );
    println!(
        "  sojourn p50 {} ms, p99 {} ms | expired executions: {}",
        report.sojourn_p50_ms, report.sojourn_p99_ms, report.expired_executions
    );
    let verdict = report.verdict.clone();
    nomad_bench::save_json("loadgen", &report);
    announce_and_exit(
        verdict.pass,
        &[
            ("goodput", verdict.goodput_ok),
            ("p99", verdict.p99_ok),
            ("no expired executions", verdict.no_expired_executions),
            ("breaker tripped", verdict.breaker_tripped),
        ],
    );
}

/// The live-mode report (wall-clock numbers; uncommitted).
#[derive(Serialize)]
struct LiveReport {
    config: LoadgenConfig,
    offered: u64,
    completed: u64,
    expired: u64,
    failed: u64,
    transport_errors: u64,
    goodput_pct: u64,
    latency_p50_ms: u64,
    latency_p99_ms: u64,
    breaker: BreakerCounts,
    /// Sum of every node's `overload.expired_executions` counter — the
    /// server-side witness that no expired job ever ran.
    server_expired_executions: u64,
    pass: bool,
}

fn run_live(cfg: &LoadgenConfig) {
    let raw = std::env::var("NOMAD_FLEET_ADDRS")
        .unwrap_or_else(|_| die("--live needs NOMAD_FLEET_ADDRS (see `nomad-fleet local`)"));
    let addrs = parse_addrs(&raw);
    if addrs.is_empty() {
        die("NOMAD_FLEET_ADDRS is empty");
    }
    let schedule = loadgen::arrival_schedule(cfg);
    let offered = schedule.len() as u64;
    let scale = nomad_bench::Scale::from_env();
    let fleet = FleetClient::with_config(
        &addrs,
        FleetConfig {
            breaker: cfg.breaker_config(),
            ..FleetConfig::from_env()
        },
    );
    let budget = Duration::from_millis(cfg.deadline_ms);
    eprintln!(
        "nomad-loadgen: live replay of {} arrivals over {} node(s), {} ms deadline each",
        offered,
        addrs.len(),
        cfg.deadline_ms
    );

    let reroute_count = || {
        nomad_obs::overload()
            .value("overload.breaker_reroutes")
            .expect("counter registered")
    };
    let reroutes_before = reroute_count();
    let next = AtomicUsize::new(0);
    let completed = AtomicU64::new(0);
    let expired = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let transport_errors = AtomicU64::new(0);
    let latencies = Mutex::new(LogHistogram::new());
    let senders = addrs.len().clamp(2, 8);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&at_ms) = schedule.get(i) else {
                    return;
                };
                let at = t0 + Duration::from_millis(at_ms);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                // Distinct seed per arrival: every job is a real,
                // uncached simulation.
                let job = JobSpec {
                    cfg: scale.config(),
                    spec: SchemeSpec::Nomad,
                    profile: WorkloadProfile::tc(),
                    instructions: scale.instructions,
                    warmup: scale.warmup,
                    seed: scale.seed.wrapping_add(i as u64),
                };
                let sent = Instant::now();
                let tally = match fleet.submit(&job, Some(budget)) {
                    Ok(Response::Report { .. }) => {
                        latencies
                            .lock()
                            .expect("latency lock")
                            .record(sent.elapsed().as_millis() as u64);
                        &completed
                    }
                    Ok(Response::Expired { .. }) => &expired,
                    Ok(_) => &failed,
                    Err(_) => &transport_errors,
                };
                tally.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    // The zero-expired-executions clause is judged by the servers'
    // own witness counters, not client bookkeeping.
    let mut server_expired = 0u64;
    for addr in &addrs {
        match Client::connect(addr).and_then(|mut c| c.stats()) {
            Ok(s) => server_expired += s.counter("overload.expired_executions").unwrap_or(0),
            Err(e) => eprintln!("nomad-loadgen: stats from {addr} failed ({e})"),
        }
    }

    let completed = completed.into_inner();
    let latencies = latencies.into_inner().expect("latency lock");
    let fleet_sum = |count: fn(&Breaker) -> u64| -> u64 {
        (0..addrs.len())
            .map(|i| count(fleet.members().breaker(i)))
            .sum()
    };
    let breaker = BreakerCounts {
        trips: fleet_sum(Breaker::trip_count),
        probes: fleet_sum(Breaker::probe_count),
        closes: fleet_sum(Breaker::close_count),
        reroutes: reroute_count() - reroutes_before,
    };
    let goodput_pct = (completed * 100).checked_div(offered).unwrap_or(100);
    // A seeded `fleet.breaker` plan is expected to trip a breaker
    // mid-run; without one, breaker activity is not required.
    let faults_armed = std::env::var("NOMAD_FAULTS")
        .map(|v| v.contains("fleet.breaker"))
        .unwrap_or(false);
    let clauses = [
        ("goodput", goodput_pct >= cfg.slo.min_goodput_pct),
        ("server expired executions", server_expired == 0),
        (
            "breaker tripped (required with a fleet.breaker plan)",
            !faults_armed || breaker.trips >= 1,
        ),
    ];
    let pass = clauses.iter().all(|&(_, ok)| ok);
    let report = LiveReport {
        config: cfg.clone(),
        offered,
        completed,
        expired: expired.into_inner(),
        failed: failed.into_inner(),
        transport_errors: transport_errors.into_inner(),
        goodput_pct,
        latency_p50_ms: latencies.quantile(0.5),
        latency_p99_ms: latencies.quantile(0.99),
        breaker,
        server_expired_executions: server_expired,
        pass,
    };
    println!(
        "nomad-loadgen (live): offered {} | completed {} (goodput {}%) | expired {} | failed {} \
         | transport errors {}",
        report.offered,
        report.completed,
        report.goodput_pct,
        report.expired,
        report.failed,
        report.transport_errors
    );
    println!(
        "  breaker: {} trips, {} probes, {} closes, {} reroutes | latency p50 {} ms p99 {} ms \
         | server expired executions: {}",
        report.breaker.trips,
        report.breaker.probes,
        report.breaker.closes,
        report.breaker.reroutes,
        report.latency_p50_ms,
        report.latency_p99_ms,
        report.server_expired_executions
    );
    nomad_bench::save_json("loadgen_live", &report);
    announce_and_exit(pass, &clauses);
}

fn announce_and_exit(pass: bool, clauses: &[(&str, bool)]) -> ! {
    for (name, ok) in clauses {
        println!("  SLO {}: {}", name, if *ok { "ok" } else { "FAILED" });
    }
    if pass {
        println!("nomad-loadgen: SLO verdict PASS");
        std::process::exit(0);
    }
    eprintln!("nomad-loadgen: SLO verdict FAIL");
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("nomad-loadgen: {msg}");
    std::process::exit(2);
}
