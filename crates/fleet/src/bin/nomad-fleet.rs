//! The nomad-fleet coordinator CLI.
//!
//! ```text
//! nomad-fleet local N [--workers W] [--queue N] [--timeout-ms N]
//!                     [--retries N] [--cache-dir BASE | --no-cache-dir]
//! nomad-fleet status   [--addrs HOST:PORT,...]
//! nomad-fleet shutdown [--addrs HOST:PORT,...]
//! ```
//!
//! `local N` spawns N in-process `nomad-serve` nodes on ephemeral
//! ports and prints one machine-parseable line:
//!
//! ```text
//! NOMAD_FLEET_ADDRS=127.0.0.1:41231,127.0.0.1:41233,...
//! ```
//!
//! which is exactly the variable the `figures` binary reads to route
//! sweeps through the fleet — `export` the printed line and every
//! `cargo run -p nomad-bench --bin figures -- fig09` shards across the
//! nodes.
//! Each node spills its result cache to `<BASE>/node-<i>` (default
//! base `results/fleet-cache`). The fleet serves until `shutdown`.
//!
//! `status` pings every node and prints per-node queue/cache/job
//! counters; `shutdown` stops them gracefully. Both read `--addrs` or,
//! when the flag is absent, `NOMAD_FLEET_ADDRS`.

use nomad_fleet::parse_addrs;
use nomad_serve::{serve, Client, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--help") || args.is_empty() {
        usage();
        return;
    }
    let mode = args.remove(0);
    match mode.as_str() {
        "local" => local(args),
        "status" => status(addrs_from(args)),
        "shutdown" => shutdown(addrs_from(args)),
        "-h" | "help" => usage(),
        other => die(&format!("unknown mode `{other}` (try --help)")),
    }
}

fn usage() {
    println!(
        "usage: nomad-fleet local N [--workers W] [--queue N] [--timeout-ms N] [--retries N] \
         [--cache-dir BASE | --no-cache-dir]\n       \
         nomad-fleet status   [--addrs HOST:PORT,...]\n       \
         nomad-fleet shutdown [--addrs HOST:PORT,...]"
    );
}

/// Spawn N in-process serve nodes and print the fleet address line.
fn local(args: Vec<String>) {
    let mut args = args.into_iter();
    let n: usize = match args.next() {
        Some(raw) => parse(&raw, "node count"),
        None => die("local needs a node count (nomad-fleet local N)"),
    };
    if n == 0 {
        die("node count must be at least 1");
    }
    let mut template = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        overload: nomad_serve::OverloadConfig::from_env(),
        ..ServerConfig::default()
    };
    let mut cache_base = Some(PathBuf::from("results/fleet-cache"));
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workers" => template.workers = parse(&value("--workers"), "--workers"),
            "--queue" => template.queue_capacity = parse(&value("--queue"), "--queue"),
            "--timeout-ms" => {
                template.job_timeout =
                    Duration::from_millis(parse(&value("--timeout-ms"), "--timeout-ms"))
            }
            "--retries" => template.retry_budget = parse(&value("--retries"), "--retries"),
            "--cache-dir" => cache_base = Some(PathBuf::from(value("--cache-dir"))),
            "--no-cache-dir" => cache_base = None,
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let cfg = ServerConfig {
            cache_dir: cache_base.as_ref().map(|b| b.join(format!("node-{i}"))),
            ..template.clone()
        };
        match serve(cfg) {
            Ok(h) => handles.push(h),
            Err(e) => die(&format!("node {i} bind failed: {e}")),
        }
    }
    let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
    for (i, addr) in addrs.iter().enumerate() {
        eprintln!(
            "nomad-fleet: node {i} listening on {addr} ({} workers)",
            template.workers
        );
    }
    // The one machine-parseable line: everything else goes to stderr.
    println!("NOMAD_FLEET_ADDRS={}", addrs.join(","));
    for handle in handles {
        handle.join();
    }
    eprintln!("nomad-fleet: all nodes shut down");
}

/// `--addrs` flag, falling back to `NOMAD_FLEET_ADDRS`.
fn addrs_from(args: Vec<String>) -> Vec<String> {
    let mut args = args.into_iter();
    let mut raw = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addrs" => raw = args.next(),
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    let raw = raw
        .or_else(|| std::env::var("NOMAD_FLEET_ADDRS").ok())
        .unwrap_or_else(|| die("no fleet addresses (pass --addrs or set NOMAD_FLEET_ADDRS)"));
    let addrs = parse_addrs(&raw);
    if addrs.is_empty() {
        die("fleet address list is empty");
    }
    addrs
}

fn status(addrs: Vec<String>) {
    let mut down = 0usize;
    for (i, addr) in addrs.iter().enumerate() {
        match Client::connect(addr).and_then(|mut c| c.stats()) {
            Ok(s) => {
                let counter = |name: &str| {
                    s.counters
                        .iter()
                        .find(|r| r.name == name)
                        .map_or(0, |r| r.value)
                };
                let shed = counter("overload.admit_shed")
                    + counter("overload.queue_shed")
                    + counter("overload.codel_shed")
                    + counter("overload.exec_shed");
                println!(
                    "node {i} {addr}: up, queue {}/{} (oldest {} ms), {} workers, jobs {} \
                     submitted / {} completed / {} failed, shed {shed} ({} expired ran), \
                     cache {} hits / {} entries",
                    s.queue_depth,
                    s.queue_capacity,
                    s.queue_oldest_ms,
                    s.workers,
                    s.jobs_submitted,
                    s.jobs_completed,
                    s.jobs_failed,
                    counter("overload.expired_executions"),
                    s.cache_hits,
                    s.cache_entries
                );
            }
            Err(e) => {
                down += 1;
                println!("node {i} {addr}: DOWN ({e})");
            }
        }
    }
    if down > 0 {
        std::process::exit(1);
    }
}

fn shutdown(addrs: Vec<String>) {
    for (i, addr) in addrs.iter().enumerate() {
        match Client::connect(addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("node {i} {addr}: shutting down"),
            Err(e) => println!("node {i} {addr}: unreachable ({e})"),
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("invalid value `{s}` for {what}")))
}

fn die(msg: &str) -> ! {
    eprintln!("nomad-fleet: {msg}");
    std::process::exit(2);
}
