//! Metric names and units, and the result sheet a run fills in.
//!
//! Every workload reports every name below: an untraced run the
//! end-to-end list, a traced run the per-layer list. `BENCHMARK.json`
//! at the repository root must list the same names (a test holds the
//! two together). Numbers that only make sense for one workload are
//! printed as `info` lines instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p80_ms", "ms"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. Layers are
/// named by crate; counts are per cell (per job on `serve_ladder`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.skipped_cycle_share", "ratio"),
    ("kernel.burst_tick_share", "ratio"),
    ("kernel.dense_ticks", "count"),
    ("kernel.other_ns_per_cycle", "ns"),
    ("cpu.ns_per_tick", "ns"),
    ("cache.ns_per_tick", "ns"),
    ("dcache.ns_per_tick", "ns"),
    ("dram.ns_per_tick", "ns"),
    ("cache.l3_accesses", "count"),
    ("cache.l3_miss_ratio", "ratio"),
    ("dcache.tag_misses", "count"),
    ("dcache.fills", "count"),
    ("dcache.evictions", "count"),
    ("dram.hbm_bytes", "bytes"),
    ("dram.ddr_bytes", "bytes"),
    ("dram.row_hit_rate", "ratio"),
    ("sim.build_ms", "ms"),
    ("sim.prewarm_ms", "ms"),
    ("sim.report_us", "us"),
    ("sim.run_allocs", "count"),
    ("trace.build_us", "us"),
    ("arena.reuse_share", "ratio"),
    ("proto.encode_report_us", "us"),
    ("proto.decode_report_us", "us"),
    ("proto.report_bytes", "bytes"),
    ("proto.content_key_us", "us"),
    ("fleet.route_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// Whether `name` is a well-formed metric name: letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The results of one workload run: metric values, informational
/// rows, the op count and every failed correctness check.
#[derive(Debug)]
pub struct Sheet {
    workload: String,
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Sheet {
    /// An empty sheet for `workload`; `trace` selects which metric
    /// list it must be filled with.
    pub fn new(workload: &str, trace: bool) -> Self {
        Sheet {
            workload: workload.to_string(),
            trace,
            metrics: BTreeMap::new(),
            info: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn list(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Record one metric of this run's list.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not on the list (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.list().iter().any(|(n, _)| *n == name),
            "{name} is not a metric of this run"
        );
        if !value.is_finite() {
            self.problem(format!("{name} is not a finite number ({value})"));
        }
        self.metrics.insert(name, value);
    }

    /// Record an informational row (printed and saved, not gated).
    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }

    /// Count one operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failed correctness check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The sheet as a JSON object (for `results/perf/`).
    pub fn to_json(&self, config: &[(&str, String)]) -> String {
        let mut out = format!(
            "{{\n  \"workload\": \"{}\",\n  \"config\": {{",
            self.workload
        );
        for (i, (k, v)) in config.iter().enumerate() {
            let _ = write!(out, "{}\n    \"{k}\": {v}", if i > 0 { "," } else { "" });
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {}",
                if i > 0 { "," } else { "" },
                num(*v)
            );
        }
        out.push_str("\n  },\n  \"info\": {");
        for (i, (name, v, _)) in self.info.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {}",
                if i > 0 { "," } else { "" },
                num(*v)
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"correct\": {}\n}}\n",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// Print the `metric`, `info`, `check` and `ops` lines, then the
    /// one-line JSON result, which is always the last line of output.
    /// Returns whether the run was correct.
    ///
    /// # Panics
    ///
    /// Panics when a metric of this run's list was never recorded.
    pub fn print(&self) -> bool {
        let w = &self.workload;
        let mut json = String::new();
        for (i, (name, unit)) in self.list().iter().enumerate() {
            let v = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{w} never recorded {name}"));
            println!("metric {w} {name} {v} {unit}");
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" },
                num(v)
            );
        }
        for (name, v, unit) in &self.info {
            println!("info {w} {name} {v} {unit}");
        }
        for p in &self.problems {
            println!("check {w} FAILED: {p}");
        }
        println!("ops {w} {}/{}", self.failed, self.attempted);
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        self.correct()
    }
}

/// A JSON number: every digit `f64` prints, `0` for non-finite values
/// (which are already recorded as failed checks).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
