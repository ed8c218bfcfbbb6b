//! The nomad-serve daemon.
//!
//! ```text
//! nomad-serve [--addr HOST:PORT] [--port N] [--workers N] [--queue N]
//!             [--timeout-ms N] [--retries N]
//!             [--cache-dir PATH | --no-cache-dir]
//! ```
//!
//! Binds (default `127.0.0.1:7979`), prints the bound address, and
//! serves until a client sends `"Shutdown"`. `--port N` overrides just
//! the port of the bind address; `--port 0` asks the OS for an
//! ephemeral port. Whatever was bound, the first stdout line is
//! machine-parseable —
//!
//! ```text
//! NOMAD_SERVE_ADDR=127.0.0.1:41231
//! ```
//!
//! — so scripts (and the fleet harnesses) can launch a server on
//! `--port 0` and scrape the address they should export. Completed
//! results are spilled to the result store `results/cache/` by default
//! (override with `--cache-dir`, disable with `--no-cache-dir`) so a
//! restarted daemon keeps serving hits for experiments it already ran
//! at the current model epoch. Run from the workspace root, that is
//! the store the figure harnesses record their cells in.
//!
//! With observability enabled (`NOMAD_OBS=1`), a Chrome trace of every
//! executed job is written to `results/serve.trace.json` on shutdown.

use nomad_serve::{serve, OverloadConfig, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7979".to_string(),
        cache_dir: Some(PathBuf::from("results/cache")),
        overload: OverloadConfig::from_env(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--port" => {
                let port: u16 = parse(&value("--port"), "--port");
                let host = cfg.addr.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
                cfg.addr = format!("{host}:{port}");
            }
            "--workers" => cfg.workers = parse(&value("--workers"), "--workers"),
            "--queue" => cfg.queue_capacity = parse(&value("--queue"), "--queue"),
            "--timeout-ms" => {
                cfg.job_timeout =
                    Duration::from_millis(parse(&value("--timeout-ms"), "--timeout-ms"))
            }
            "--retries" => cfg.retry_budget = parse(&value("--retries"), "--retries"),
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--no-cache-dir" => cfg.cache_dir = None,
            "--help" | "-h" => {
                println!(
                    "usage: nomad-serve [--addr HOST:PORT] [--port N] [--workers N] [--queue N] \
                     [--timeout-ms N] [--retries N] [--cache-dir PATH | --no-cache-dir]"
                );
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    let workers = cfg.workers;
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => die(&format!("bind failed: {e}")),
    };
    // Machine-parseable first: scripts launching `--port 0` scrape
    // this line to learn the ephemeral address.
    println!("NOMAD_SERVE_ADDR={}", handle.local_addr());
    eprintln!(
        "nomad-serve listening on {} ({} workers)",
        handle.local_addr(),
        workers
    );
    let stats = handle.stats();
    handle.join();
    if nomad_obs::enabled() {
        let path = "results/serve.trace.json";
        let _ = std::fs::create_dir_all("results");
        match std::fs::write(path, stats.trace_json()) {
            Ok(()) => println!("nomad-serve: job trace written to {path}"),
            Err(e) => eprintln!("nomad-serve: failed to write {path}: {e}"),
        }
    }
    println!("nomad-serve: shut down");
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("invalid value `{s}` for {flag}")))
}

fn die(msg: &str) -> ! {
    eprintln!("nomad-serve: {msg}");
    std::process::exit(2);
}
