//! Tests of the benchmark's own machinery, plus a smoke run of every
//! workload through the real binary.

use nomad_perf::calib;
use nomad_perf::metrics::{valid_name, END_TO_END, PER_LAYER};
use nomad_perf::serve::{rungs, schedule};
use nomad_perf::stats::tail_quantile;
use nomad_perf::WORKLOADS;
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get_field(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get_field(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn listed(key: &str) -> BTreeSet<(String, String)> {
    array(&benchmark_json(), key)
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect()
}

fn declared(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn arrival_schedule_is_byte_identical_per_seed() {
    let r = rungs(18.0, false);
    let a = format!("{:?}", schedule(42, &r));
    assert_eq!(a, format!("{:?}", schedule(42, &r)));
    assert_ne!(a, format!("{:?}", schedule(7, &r)));
    let (arrivals, jobs) = schedule(42, &r);
    assert!(arrivals.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    assert!(arrivals.iter().all(|a| a.job < jobs));
}

#[test]
fn measured_work_is_cpu_time_scaled_by_the_kernel_around_it() {
    let m = calib::measure(|| 7);
    assert_eq!(m.value, 7);
    assert!(m.scale.is_finite() && m.scale > 0.0);
    assert_eq!(m.scaled_secs(), m.cpu_secs * m.scale);

    let spin = calib::measure(|| {
        let t0 = calib::thread_cpu_secs();
        while calib::thread_cpu_secs() - t0 < 0.02 {}
    });
    assert!(spin.cpu_secs >= 0.02 && spin.cpu_secs <= spin.secs() + 1e-3);
}

#[test]
fn time_spent_waiting_is_not_measured() {
    let m = calib::measure(|| std::thread::sleep(std::time::Duration::from_millis(50)));
    assert!(m.secs() >= 0.05);
    assert!(m.cpu_secs < 0.01, "slept, yet {} CPU seconds", m.cpu_secs);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_quantile(&xs, 0.9), Some(90.0), "exactly 10 beyond");
    assert_eq!(tail_quantile(&xs[..99], 0.9), None, "only 9 beyond");
    assert_eq!(tail_quantile(&xs, 0.98), None);
    assert_eq!(tail_quantile(&[], 0.5), None);
    let xs: Vec<f64> = (1..=500).map(f64::from).collect();
    assert_eq!(tail_quantile(&xs, 0.98), Some(490.0));
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = BTreeSet::new();
    let names = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .chain(WORKLOADS);
    for name in names {
        assert!(valid_name(name), "bad name {name}");
        assert!(seen.insert(name), "{name} used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit}"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    assert_eq!(listed("end_to_end"), declared(END_TO_END));
    assert_eq!(listed("per_layer"), declared(PER_LAYER));
    let bench = benchmark_json();
    let workloads: Vec<String> = array(&bench, "workloads")
        .iter()
        .map(|w| string(w, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in array(&bench, "workloads") {
        assert!(string(w, "why").len() <= 200, "why too long");
    }
    let setup = array(&bench, "end_to_end")
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s listed");
    assert_eq!(string(setup, "better"), "lower");
}

/// Run the binary and return its stdout; panics unless it exits 0.
fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "perf {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Every workload runs tiny cells and short rungs, untraced and
/// traced, with the arguments `BENCHMARK.json`'s command is given,
/// passes its correctness checks, and prints exactly the metric names
/// its mode promises, on `metric` lines and in the final JSON line.
#[test]
fn smoke_runs_pass_and_print_exactly_the_listed_names() {
    for w in WORKLOADS {
        for (trace, list) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = perf(&[
                "--workload",
                w,
                "--smoke",
                "--seconds",
                "1",
                "--seed",
                "3",
                "--trace",
                trace,
            ]);
            let printed: BTreeSet<(String, String)> = out
                .lines()
                .filter_map(|l| l.strip_prefix(&format!("metric {w} ")))
                .map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f[0].to_string(), f[2].to_string())
                })
                .collect();
            assert_eq!(printed, declared(list), "{w} trace {trace}");
            let last: Value =
                serde_json::from_str(out.lines().last().expect("output")).expect("JSON last line");
            assert_eq!(
                last.get_field("correct"),
                Some(&Value::Bool(true)),
                "{w}: {out}"
            );
            assert_eq!(last.get_field("failed"), Some(&Value::U64(0)));
            match last.get_field("metrics") {
                Some(Value::Object(m)) => {
                    let keys: BTreeSet<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
                    let want: BTreeSet<&str> = list.iter().map(|(n, _)| *n).collect();
                    assert_eq!(keys, want);
                }
                other => panic!("metrics is not an object: {other:?}"),
            }
        }
    }
}

#[test]
fn set_variables_and_bad_arguments_exit_2() {
    let status = |cmd: &mut Command| cmd.status().expect("perf runs").code();
    let exe = env!("CARGO_BIN_EXE_perf");
    assert_eq!(
        status(
            Command::new(exe)
                .args(["--workload", "fig9"])
                .env("NOMAD_INSTR", "1000")
        ),
        Some(2)
    );
    assert_eq!(
        status(Command::new(exe).args(["--workload", "nope"])),
        Some(2)
    );
    assert_eq!(status(Command::new(exe).args(["--seed"])), Some(2));
    assert_eq!(
        status(Command::new(exe).args(["--workload", "fig9", "--trace", "yes"])),
        Some(2)
    );
}
