//! `perf`: the repository benchmark.
//!
//! ```text
//! perf --workload <fig9|few_1core|thrash_8mib|serve_ladder|all> [--seed N]
//!      [--seconds N] [--trace <0|1>] [--bless] [--smoke]
//! ```
//!
//! `--seed`, `--seconds` and `--trace` are the arguments a harness
//! appends to the command in `BENCHMARK.json`, in that form.
//!
//! Prints `metric <workload> <name> <value> <unit>` lines, `info`
//! lines, `ops <workload> <failed>/<attempted>`, and as its last line a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 when a correctness check fails, 2 on a usage error or when a
//! variable that changes what is measured is set.

use nomad_perf::alloc::CountingAlloc;
use nomad_perf::{serve, sim, Opts, WORKLOADS};
use std::process::{exit, Command};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Variables that change what the program does or how much work a
/// cell is; the benchmark fixes all of these itself.
const FORBIDDEN_ENV: [&str; 12] = [
    "NOMAD_HOT_PROFILE",
    "NOMAD_OBS",
    "NOMAD_FAULTS",
    "NOMAD_LOCAL_CACHE",
    "NOMAD_FLEET_ADDRS",
    "NOMAD_SERVE_ADDR",
    "NOMAD_ARENA",
    "NOMAD_JOBS",
    "NOMAD_INSTR",
    "NOMAD_WARMUP",
    "NOMAD_CORES",
    "NOMAD_SEED",
];

const USAGE: &str = "usage: perf --workload <fig9|few_1core|thrash_8mib|serve_ladder|all> \
[--seed N] [--seconds N] [--trace <0|1>] [--bless] [--smoke]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 42,
        seconds: 25.0,
        trace: false,
        bless: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless" => opts.bless = true,
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, opts))
}

/// Run every workload in its own process (so `peak_rss_mb` is per
/// workload); returns the exit code.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let mut child_args = vec!["--workload".to_string(), w.to_string()];
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perf: workload {w} failed ({status})");
                code = 1;
            }
            Err(e) => {
                eprintln!("perf: could not run workload {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            exit(2);
        }
    };
    let set: Vec<&str> = FORBIDDEN_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perf: unset {} first: the benchmark fixes what they control",
            set.join(", ")
        );
        exit(2);
    }
    nomad_bench::journal::set_enabled(false);
    if workload == "all" {
        exit(run_all(&args));
    }
    let correct = match workload.as_str() {
        "serve_ladder" => serve::run(&opts),
        w => sim::run(w, &opts),
    };
    exit(if correct { 0 } else { 1 });
}
