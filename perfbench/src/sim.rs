//! The three simulator workloads — `fig9`, `few_1core` and
//! `thrash_8mib` — and the cell-level helpers `serve_ladder` shares.
//!
//! A run executes whole passes over the workload's grid of cells and
//! stops at the pass boundary nearest to `--seconds`, so every pass
//! covers the same cells and a faster simulator does not change the mix
//! being timed. An untraced run also keeps going until its cells give a
//! tail percentile. A traced run alternates untraced passes with traced
//! ones; a traced cell drives [`System`] step by step with spans around
//! each layer call and the hot-path profile armed.
//!
//! Every cell and every set-up is timed through [`calib::measure`], and
//! the end-to-end timings are its CPU time at nominal host speed.

use crate::calib;
use crate::metrics::Sheet;
use crate::spans::{thread_id, Tracer};
use crate::stats::{median, tail_quantile, tail_rank, TAIL_Q};
use crate::{alloc, panic_message, peak_rss_mb, write_result, Opts};
use nomad_bench::{arena, geomean, par, Scale};
use nomad_fleet::{FleetConfig, Membership};
use nomad_serve::{proto, JobSpec, Response};
use nomad_sim::{runner, HotProfileReport, RunReport, SchemeSpec, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::CancelToken;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Paper geomean IPC ratios of NOMAD over TDC and over TiD (Fig. 9).
const PAPER_NOMAD_OVER_TDC: f64 = 1.167;
const PAPER_NOMAD_OVER_TID: f64 = 1.255;

/// One simulator workload: its cells and how they are executed.
#[derive(Debug)]
pub struct SimWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The grid, one job per cell, in execution order.
    pub cells: Vec<JobSpec>,
    /// Sweep executor width.
    pub workers: usize,
    /// Whether cells recycle a per-thread [`System`] (the
    /// `nomad_bench::run_cell` arena path) instead of building fresh.
    pub arena: bool,
    /// Cells re-run after timing through the dense kernel and through
    /// the other build path.
    pub sample: [usize; 2],
}

impl SimWorkload {
    /// The workload called `name` for `seed`, or `None` for an unknown
    /// name. Cells are shorter than users run them (`fig9` 150k + 120k,
    /// `few_1core` 4M + 400k) so that a pass takes seconds and a run
    /// holds several; the host-time split between layers is the same at
    /// both lengths. `thrash_8mib` cells are shorter than 600k + 150k
    /// for another reason: at 400k + 100k and longer, TDC on `mcf`
    /// deadlocks on about one seed in six, and at 200k + 50k on none of
    /// seeds 0–300. `smoke` keeps one workload profile and 1/200 of the
    /// instructions.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Self> {
        let named = |names: &[&str]| -> Vec<WorkloadProfile> {
            names
                .iter()
                .map(|n| WorkloadProfile::by_name(n).expect("Table I workload"))
                .collect()
        };
        let mut thrash_cfg = SystemConfig::scaled(2);
        thrash_cfg.dc_capacity = 8 * 1024 * 1024;
        // (name, config, profiles, schemes, instructions, warm-up,
        // workers, arena)
        let (name, cfg, mut profiles, specs, instructions, warmup, workers, arena) = match name {
            "fig9" => (
                "fig9",
                SystemConfig::scaled(8),
                WorkloadProfile::all(),
                SchemeSpec::fig9_set(),
                40_000,
                30_000,
                2,
                true,
            ),
            "few_1core" => (
                "few_1core",
                SystemConfig::scaled(1),
                named(&["tc", "sop", "pr", "ast"]),
                SchemeSpec::headtohead_set(),
                1_000_000,
                100_000,
                1,
                false,
            ),
            "thrash_8mib" => (
                "thrash_8mib",
                thrash_cfg,
                named(&["mcf", "lbm", "cact", "bfs"]),
                SchemeSpec::headtohead_set(),
                200_000,
                50_000,
                1,
                false,
            ),
            _ => return None,
        };
        let (instructions, warmup) = if smoke {
            profiles.truncate(1);
            (instructions / 200, warmup / 200)
        } else {
            (instructions, warmup)
        };
        let cells: Vec<JobSpec> = profiles
            .iter()
            .flat_map(|profile| {
                specs.iter().map(|spec| JobSpec {
                    cfg: cfg.clone(),
                    spec: spec.clone(),
                    profile: profile.clone(),
                    instructions,
                    warmup,
                    seed,
                })
            })
            .collect();
        // The first cell (Baseline) and the last profile's NOMAD cell
        // (both scheme sets end with NOMAD, Ideal).
        let sample = [0, cells.len() - 2];
        Some(SimWorkload {
            name,
            cells,
            workers,
            arena,
            sample,
        })
    }
}

/// `scheme/profile` label of a cell.
pub fn label(job: &JobSpec) -> String {
    format!("{}/{}", job.spec.label(), job.profile.name)
}

/// FNV-1a 64 of a report's JSON: equal digests mean equal reports.
pub fn digest(report: &RunReport) -> u64 {
    nomad_types::fnv1a(
        serde_json::to_string(report)
            .expect("reports serialize")
            .as_bytes(),
    )
}

/// Per-layer timings of one traced cell.
#[derive(Debug, Clone)]
pub struct CellLayers {
    hot: HotProfileReport,
    trace_build_ns: u64,
    build_ns: u64,
    prewarm_ns: u64,
    run_ns: u64,
    report_ns: u64,
    run_allocs: u64,
    reused: bool,
}

/// A finished cell.
#[derive(Debug, Clone)]
pub struct Done {
    /// Digest of the report.
    pub digest: u64,
    /// The report itself.
    pub report: RunReport,
    /// Layer timings, on traced cells only.
    pub layers: Option<CellLayers>,
}

impl Done {
    /// A finished cell with its report digest.
    pub fn new(report: RunReport, layers: Option<CellLayers>) -> Self {
        Done {
            digest: digest(&report),
            report,
            layers,
        }
    }
}

/// One cell as executed inside a pass.
#[derive(Debug)]
pub struct CellRun {
    /// Seconds from the pass start to the cell start.
    pub start: f64,
    /// Seconds from the pass start to the cell end.
    pub end: f64,
    /// Executor thread that ran the cell.
    pub worker: u64,
    /// CPU seconds of the cell's thread in the cell.
    pub cpu_secs: f64,
    /// Host speed around the cell ([`calib::Measured::scale`]).
    pub scale: f64,
    /// The finished cell, or the panic message.
    pub outcome: Result<Done, String>,
}

impl CellRun {
    /// Wall seconds of the cell.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// CPU seconds of the cell at nominal host speed.
    pub fn scaled_secs(&self) -> f64 {
        self.cpu_secs * self.scale
    }
}

/// One pass over the grid.
#[derive(Debug)]
struct Pass {
    secs: f64,
    cells: Vec<CellRun>,
}

/// The per-core traces of a job, seeded exactly as
/// [`nomad_sim::runner`] seeds them.
fn traces_for(job: &JobSpec) -> Vec<Box<dyn TraceSource>> {
    (0..job.cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                &job.profile,
                job.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                job.cfg.pages_per_gb,
                job.cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect()
}

/// Run `job` through the public [`System`] API with a span around each
/// step and the hot-path profile armed; with `reuse`, recycle this
/// thread's arena system when [`System::can_reuse_for`] allows.
pub fn traced_cell(
    job: &JobSpec,
    reuse: bool,
    t: &Tracer,
    parent: Option<u64>,
    req: u64,
) -> (RunReport, CellLayers) {
    let cell = t.open("bench.cell", parent, req);
    let id = Some(cell.id());
    let o = t.open("trace.build", id, req);
    let traces = traces_for(job);
    let trace_build_ns = t.close(o);
    let o = t.open("sim.build", id, req);
    let fresh = |traces| System::new(job.cfg.clone(), job.spec.build(&job.cfg), traces);
    let (mut sys, reused) = if reuse {
        arena::with_slot(|slot| match slot.take() {
            Some(mut parked) if parked.can_reuse_for(&job.cfg) => {
                parked.reset_for_cell(job.spec.build(&job.cfg), traces);
                (parked, true)
            }
            _ => (fresh(traces), false),
        })
    } else {
        (fresh(traces), false)
    };
    let build_ns = t.close(o);
    sys.enable_hot_profile();
    let o = t.open("sim.prewarm", id, req);
    sys.prewarm();
    let prewarm_ns = t.close(o);
    let o = t.open("sim.warmup", id, req);
    if job.warmup > 0 {
        sys.warm_up(job.warmup);
    }
    t.close(o);
    let allocs_before = alloc::thread_allocs();
    let o = t.open("sim.run", id, req);
    sys.run(job.instructions);
    let run_ns = t.close(o);
    let run_allocs = alloc::thread_allocs() - allocs_before;
    let hot = sys.hot_profile().expect("armed above");
    let o = t.open("sim.report", id, req);
    let report = sys.report(&job.profile.name);
    let report_ns = t.close(o);
    if reuse {
        arena::with_slot(|slot| *slot = Some(sys));
    }
    t.close(cell);
    let layers = CellLayers {
        hot,
        trace_build_ns,
        build_ns,
        prewarm_ns,
        run_ns,
        report_ns,
        run_allocs,
        reused,
    };
    (report, layers)
}

/// Run `job` on a fresh system through the dense reference loop
/// ([`System::run_dense`]), warm-up included.
pub fn dense_cell(job: &JobSpec) -> RunReport {
    let mut sys = System::new(job.cfg.clone(), job.spec.build(&job.cfg), traces_for(job));
    sys.prewarm();
    if job.warmup > 0 {
        sys.run_dense(job.warmup);
        sys.reset_stats();
    }
    sys.run_dense(job.instructions);
    sys.report(&job.profile.name)
}

fn scale_of(job: &JobSpec, workers: usize) -> Scale {
    Scale {
        instructions: job.instructions,
        warmup: job.warmup,
        cores: job.cfg.cores,
        seed: job.seed,
        jobs: workers,
    }
}

/// The timed body of a cell: the arena path `fig9` sweeps take, or a
/// fresh `runner::run_one`.
fn untraced_cell(w: &SimWorkload, job: &JobSpec, cancel: &CancelToken) -> RunReport {
    if w.arena {
        nomad_bench::run_cell(&scale_of(job, w.workers), &job.spec, &job.profile, cancel)
            .expect("the benchmark never cancels its sweep")
    } else {
        runner::run_one(
            &job.cfg,
            &job.spec,
            &job.profile,
            job.instructions,
            job.warmup,
            job.seed,
        )
    }
}

/// The build path the timed run does not take: fresh for an arena
/// workload, arena for a fresh one (consecutive calls on one thread
/// recycle the parked system).
fn other_path(w: &SimWorkload, job: &JobSpec) -> RunReport {
    if w.arena {
        job.run_local()
    } else {
        nomad_bench::run_with_cfg_cell(
            &job.cfg,
            &scale_of(job, 1),
            &job.spec,
            &job.profile,
            &CancelToken::new(),
        )
        .expect("not cancelled")
    }
}

/// One pass over the grid through `par::run_cells`; a panicking cell
/// is caught and recorded, never retried or propagated.
fn run_pass(w: &SimWorkload, tracer: Option<&Tracer>, pass: usize) -> Pass {
    let t0 = Instant::now();
    let root = tracer.map(|t| t.open("bench.pass", None, pass as u64));
    let parent = root.as_ref().map(|o| o.id());
    let n = w.cells.len();
    let idx: Vec<usize> = (0..n).collect();
    let cells = par::run_cells(w.workers, &CancelToken::new(), idx, |&i, cancel| {
        let job = &w.cells[i];
        let m = calib::measure(|| {
            catch_unwind(AssertUnwindSafe(|| match tracer {
                Some(t) => {
                    let (report, layers) =
                        traced_cell(job, w.arena, t, parent, (pass * n + i) as u64);
                    (report, Some(layers))
                }
                None => (untraced_cell(w, job, cancel), None),
            }))
        });
        Some(CellRun {
            start: (m.start - t0).as_secs_f64(),
            end: (m.end - t0).as_secs_f64(),
            worker: thread_id(),
            cpu_secs: m.cpu_secs,
            scale: m.scale,
            outcome: m
                .value
                .map(|(report, layers)| Done::new(report, layers))
                .map_err(panic_message),
        })
    })
    .expect("the benchmark never cancels its sweep");
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        cells,
    }
}

fn golden_path(name: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}-{seed}.txt"))
}

/// The committed per-cell report digests for `seed`, if this seed was
/// blessed (never for a smoke grid).
fn load_golden(name: &str, seed: u64, smoke: bool) -> Result<Option<Vec<u64>>, String> {
    if smoke {
        return Ok(None);
    }
    let path = golden_path(name, seed);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(None);
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split_whitespace()
                .last()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("malformed line in {}: {l}", path.display()))
        })
        .collect::<Result<Vec<u64>, String>>()
        .map(Some)
}

fn bless(w: &SimWorkload, seed: u64, digests: &[u64]) {
    let mut text = String::new();
    for (i, (job, d)) in w.cells.iter().zip(digests).enumerate() {
        let _ = writeln!(text, "{i} {} {d:016x}", label(job));
    }
    let path = golden_path(w.name, seed);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => eprintln!("[blessed {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Record the per-layer simulator metrics of `cells` (traced cells;
/// counts are per cell).
pub fn layer_metrics(sheet: &mut Sheet, cells: &[&Done]) {
    let layers: Vec<&CellLayers> = cells.iter().filter_map(|d| d.layers.as_ref()).collect();
    let n = cells.len() as f64;
    let sum = |f: &dyn Fn(&CellLayers) -> u64| layers.iter().map(|l| f(l) as f64).sum::<f64>();
    let med = |f: &dyn Fn(&CellLayers) -> u64| {
        median(&layers.iter().map(|l| f(l) as f64).collect::<Vec<_>>())
    };
    let per_cell =
        |f: &dyn Fn(&RunReport) -> u64| cells.iter().map(|d| f(&d.report) as f64).sum::<f64>() / n;
    let cycles = cells.iter().map(|d| d.report.cycles as f64).sum::<f64>();
    let dense = sum(&|l| l.hot.dense_ticks);
    let phase5 = dense + sum(&|l| l.hot.burst_ticks);
    let accounted =
        sum(&|l| l.hot.cpu_nanos + l.hot.cache_nanos + l.hot.dcache_nanos + l.hot.dram_nanos);
    sheet.set(
        "kernel.skipped_cycle_share",
        ratio(sum(&|l| l.hot.skipped_cycles), cycles),
    );
    sheet.set(
        "kernel.burst_tick_share",
        ratio(sum(&|l| l.hot.burst_ticks), cycles),
    );
    sheet.set("kernel.dense_ticks", dense / n);
    sheet.set(
        "kernel.other_ns_per_cycle",
        ratio(sum(&|l| l.run_ns) - accounted, cycles),
    );
    sheet.set("cpu.ns_per_tick", ratio(sum(&|l| l.hot.cpu_nanos), dense));
    sheet.set(
        "cache.ns_per_tick",
        ratio(sum(&|l| l.hot.cache_nanos), dense),
    );
    sheet.set(
        "dcache.ns_per_tick",
        ratio(sum(&|l| l.hot.dcache_nanos), phase5),
    );
    sheet.set(
        "dram.ns_per_tick",
        ratio(sum(&|l| l.hot.dram_nanos), phase5),
    );
    sheet.set("cache.l3_accesses", per_cell(&|r| r.l3_accesses));
    sheet.set(
        "cache.l3_miss_ratio",
        ratio(per_cell(&|r| r.l3_misses), per_cell(&|r| r.l3_accesses)),
    );
    sheet.set(
        "dcache.tag_misses",
        per_cell(&|r| r.scheme_stats.tag_misses.get()),
    );
    sheet.set("dcache.fills", per_cell(&|r| r.scheme_stats.fills.get()));
    sheet.set(
        "dcache.evictions",
        per_cell(&|r| r.scheme_stats.evictions.get()),
    );
    sheet.set("dram.hbm_bytes", per_cell(&|r| r.hbm.total_bytes()));
    sheet.set("dram.ddr_bytes", per_cell(&|r| r.ddr.total_bytes()));
    sheet.set(
        "dram.row_hit_rate",
        ratio(
            per_cell(&|r| r.hbm.row_hits.get() + r.ddr.row_hits.get()),
            per_cell(&|r| {
                r.hbm.row_hits.get()
                    + r.hbm.row_misses.get()
                    + r.ddr.row_hits.get()
                    + r.ddr.row_misses.get()
            }),
        ),
    );
    sheet.set("sim.build_ms", med(&|l| l.build_ns) / 1e6);
    sheet.set("sim.prewarm_ms", med(&|l| l.prewarm_ns) / 1e6);
    sheet.set("sim.report_us", med(&|l| l.report_ns) / 1e3);
    sheet.set("sim.run_allocs", sum(&|l| l.run_allocs) / n);
    sheet.set("trace.build_us", med(&|l| l.trace_build_ns) / 1e3);
    sheet.set("arena.reuse_share", sum(&|l| u64::from(l.reused)) / n);
}

/// Hot-path split of the traced cells' measured runs, in total
/// nanoseconds per phase.
fn hot_split(cells: &[&Done]) -> Vec<(&'static str, u64)> {
    let layers: Vec<&CellLayers> = cells.iter().filter_map(|d| d.layers.as_ref()).collect();
    let total = |f: fn(&CellLayers) -> u64| layers.iter().map(|l| f(l)).sum::<u64>();
    let phases = [
        ("sim.run/cpu", total(|l| l.hot.cpu_nanos)),
        ("sim.run/cache", total(|l| l.hot.cache_nanos)),
        ("sim.run/dcache", total(|l| l.hot.dcache_nanos)),
        ("sim.run/dram", total(|l| l.hot.dram_nanos)),
    ];
    let accounted: u64 = phases.iter().map(|(_, ns)| ns).sum();
    let mut out = phases.to_vec();
    out.push((
        "sim.run/kernel",
        total(|l| l.run_ns).saturating_sub(accounted),
    ));
    out
}

/// Record the protocol and routing metrics for shipping these jobs'
/// reports through the serve tier: frame encode and decode time and
/// size, content-key time, and ring-route time. A decoded frame that
/// does not reproduce its report is a failed check.
pub fn proto_metrics(sheet: &mut Sheet, pairs: &[(&JobSpec, &RunReport)]) {
    const REPS: usize = 20;
    let per_op_us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    let (mut enc, mut dec, mut bytes, mut key) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (job, report) in pairs {
        let frame = Response::Report {
            cached: false,
            report: (*report).clone(),
        };
        let mut buf = Vec::new();
        let t = Instant::now();
        for _ in 0..REPS {
            buf.clear();
            proto::write_frame(&mut buf, &frame).expect("writing to memory cannot fail");
        }
        enc.push(per_op_us(t));
        bytes.push(buf.len() as f64);
        let t = Instant::now();
        let mut decoded = None;
        for _ in 0..REPS {
            decoded = proto::read_frame::<Response, _>(&mut std::io::Cursor::new(&buf))
                .expect("a frame we wrote parses");
        }
        dec.push(per_op_us(t));
        match decoded {
            Some(Response::Report { report: back, .. }) if digest(&back) == digest(report) => {}
            _ => sheet.problem(format!(
                "report of {} changed across a frame round trip",
                label(job)
            )),
        }
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(job.content_key());
        }
        key.push(per_op_us(t));
    }
    let addrs = vec!["node-0".to_string(), "node-1".to_string()];
    let ring = Membership::new(&addrs, FleetConfig::default().vnodes);
    let keys: Vec<u64> = pairs.iter().map(|(job, _)| job.content_key()).collect();
    const ROUTES: usize = 20_000;
    let t = Instant::now();
    for k in keys.iter().cycle().take(ROUTES) {
        std::hint::black_box(ring.route(*k));
    }
    sheet.set(
        "fleet.route_ns",
        t.elapsed().as_secs_f64() * 1e9 / ROUTES as f64,
    );
    sheet.set("proto.encode_report_us", median(&enc));
    sheet.set("proto.decode_report_us", median(&dec));
    sheet.set("proto.report_bytes", median(&bytes));
    sheet.set("proto.content_key_us", median(&key));
}

/// Build and prewarm the first cell's system and drop it: the part of
/// set-up that touches the simulator.
fn warm_system(job: &JobSpec) {
    let mut sys = System::new(job.cfg.clone(), job.spec.build(&job.cfg), traces_for(job));
    sys.prewarm();
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run simulator workload `name`, print its result and return whether
/// it was correct.
pub fn run(name: &str, opts: &Opts) -> bool {
    let mut sheet = Sheet::new(name, opts.trace);
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let m = calib::measure(|| {
            let w = SimWorkload::new(name, opts.seed, opts.smoke).expect("known workload");
            let golden = load_golden(w.name, opts.seed, opts.smoke);
            warm_system(&w.cells[0]);
            (w, golden)
        });
        setup_secs.push(m.scaled_secs());
        prepared = Some(m.value);
    }
    let (w, golden) = prepared.expect("set-up ran");

    let tracer = opts.trace.then(Tracer::default);
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut sweep_rss = None;
    loop {
        plain.push(run_pass(&w, None, plain.len()));
        // Set-up plus one pass is what one sweep of the grid costs. Each
        // later pass starts new executor threads, and whether glibc hands
        // them the previous threads' malloc arenas moved the `fig9` peak
        // by 8 MB from run to run.
        if plain.len() == 1 {
            sweep_rss = peak_rss_mb();
        }
        if let Some(t) = &tracer {
            traced.push(run_pass(&w, Some(t), traced.len()));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let round = elapsed / plain.len() as f64;
        let tail_ready =
            opts.trace || opts.smoke || tail_rank(plain.len() * w.cells.len(), TAIL_Q).is_some();
        if tail_ready && elapsed + round / 2.0 >= opts.seconds {
            break;
        }
    }
    let measured_secs = t0.elapsed().as_secs_f64();

    check(&mut sheet, &w, &plain, &traced, golden, opts);

    let median_pass = |ps: &[Pass]| median(&ps.iter().map(|p| p.secs).collect::<Vec<_>>());
    if opts.trace {
        let cells: Vec<&Done> = traced
            .iter()
            .flat_map(|p| p.cells.iter().filter_map(|c| c.outcome.as_ref().ok()))
            .collect();
        if cells.is_empty() {
            sheet.problem("no traced cell finished");
            return sheet.print();
        }
        layer_metrics(&mut sheet, &cells);
        let pairs: Vec<(&JobSpec, &RunReport)> = w
            .cells
            .iter()
            .zip(&traced[0].cells)
            .filter_map(|(job, c)| c.outcome.as_ref().ok().map(|d| (job, &d.report)))
            .take(8)
            .collect();
        proto_metrics(&mut sheet, &pairs);
        sheet.set(
            "trace.overhead_pct",
            (median_pass(&traced) / median_pass(&plain) - 1.0) * 100.0,
        );
        let tracer = tracer.expect("traced run");
        let config = config(&w, opts, plain.len() + traced.len(), measured_secs);
        write_trace_files(name, &tracer, &cells, &sheet, &config);
    } else {
        end_to_end(
            &mut sheet,
            &w,
            &plain,
            &setup_secs,
            sweep_rss,
            opts,
            measured_secs,
        );
    }
    sheet.print()
}

/// `(seconds at nominal host speed, simulated cycles)` of each finished
/// cell of a pass.
fn finished(p: &Pass) -> Vec<(f64, u64)> {
    p.cells
        .iter()
        .filter_map(|c| {
            c.outcome
                .as_ref()
                .ok()
                .map(|d| (c.scaled_secs(), d.report.cycles))
        })
        .collect()
}

/// Seconds of a pass at nominal host speed: the busiest executor
/// thread's cells, in scaled CPU seconds. An uneven split of the grid
/// between the threads still lengthens the pass; time a thread waited
/// for a core does not.
fn scaled_pass_secs(p: &Pass) -> f64 {
    let mut per_worker = BTreeMap::new();
    for c in &p.cells {
        *per_worker.entry(c.worker).or_insert(0.0) += c.scaled_secs();
    }
    per_worker.values().copied().fold(0.0, f64::max)
}

/// The end-to-end metrics of an untraced run, plus its `info` rows and
/// `results/perf/<workload>.json`.
fn end_to_end(
    sheet: &mut Sheet,
    w: &SimWorkload,
    plain: &[Pass],
    setup_secs: &[f64],
    sweep_rss: Option<f64>,
    opts: &Opts,
    measured_secs: f64,
) {
    let mut rates = Vec::new();
    let mut mcps = Vec::new();
    let mut cell_ms = Vec::new();
    let mut wall_rates = Vec::new();
    for p in plain {
        let cells = finished(p);
        rates.push(cells.len() as f64 / scaled_pass_secs(p));
        mcps.push(geomean(cells.iter().map(|&(s, cy)| cy as f64 / s / 1e6)));
        cell_ms.extend(cells.iter().map(|&(s, _)| s * 1e3));
        wall_rates.push(cells.len() as f64 / p.secs);
    }
    // What the scaled metrics were derived from.
    let speeds: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.scale))
        .collect();
    sheet.info("host_speed", median(&speeds), "ratio");
    // Share of the cells' wall time their threads had a core.
    let (cpu, wall) = plain
        .iter()
        .flat_map(|p| &p.cells)
        .fold((0.0, 0.0), |(cpu, wall), c| (cpu + c.cpu_secs, wall + c.secs()));
    sheet.info("host_cpu_share", ratio(cpu, wall), "ratio");
    sheet.info("wall.ops_per_s", median(&wall_rates), "1/s");
    if cell_ms.is_empty() {
        sheet.problem("no cell finished");
        cell_ms.push(0.0);
    }
    sheet.set("ops_per_s", median(&rates));
    sheet.set("sim_mcycles_per_s", median(&mcps));
    sheet.set("op_p50_ms", median(&cell_ms));
    let tail = tail_quantile(&cell_ms, TAIL_Q);
    if tail.is_none() && !opts.smoke {
        sheet.problem(format!(
            "{} cell samples are too few for a p80",
            cell_ms.len()
        ));
    }
    sheet.set("op_p80_ms", tail.unwrap_or_else(|| median(&cell_ms)));
    sheet.set("setup_s", median(setup_secs));
    match sweep_rss {
        Some(mb) => sheet.set("peak_rss_mb", mb),
        None => {
            sheet.problem("VmHWM unavailable");
            sheet.set("peak_rss_mb", 0.0);
        }
    }
    sheet.info("passes", plain.len() as f64, "count");
    // How steady the host was during this run: (slowest - fastest
    // pass) over the median pass.
    let pass_secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let (lo, hi) = pass_secs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    sheet.info("pass_spread", (hi - lo) / median(&pass_secs), "ratio");
    sheet.info("cells_per_pass", w.cells.len() as f64, "count");
    sheet.info("op_samples", cell_ms.len() as f64, "count");
    // Host-independent work per pass, to tell a slower host from
    // a seed that simulates more.
    let cycles: u64 = finished(&plain[0]).iter().map(|&(_, cy)| cy).sum();
    sheet.info("sim_cycles_per_pass", cycles as f64, "count");
    if w.workers > 1 {
        executor_info(sheet, plain, w.workers);
    }
    if w.name == "fig9" {
        model_rows(sheet, w, &plain[0]);
    }
    write_result(
        &format!("{}.json", w.name),
        &sheet.to_json(&config(w, opts, plain.len(), measured_secs)),
    );
}

/// The correctness gate: every cell is an op; digests must agree
/// across passes, with the traced passes, with the committed golden
/// digests, and with the dense kernel and the other build path.
fn check(
    sheet: &mut Sheet,
    w: &SimWorkload,
    plain: &[Pass],
    traced: &[Pass],
    golden: Result<Option<Vec<u64>>, String>,
    opts: &Opts,
) {
    let mut panics = BTreeSet::new();
    for p in plain.iter().chain(traced) {
        for (i, c) in p.cells.iter().enumerate() {
            sheet.op(c.outcome.is_ok());
            if let Err(msg) = &c.outcome {
                panics.insert(format!("cell {i} ({}) panicked: {msg}", label(&w.cells[i])));
            }
        }
    }
    for msg in panics {
        sheet.problem(msg);
    }
    let reference: Vec<Option<u64>> = plain[0]
        .cells
        .iter()
        .map(|c| c.outcome.as_ref().ok().map(|d| d.digest))
        .collect();
    let mut compare = |what: &str, digests: Vec<Option<u64>>| {
        for (i, (want, got)) in reference.iter().zip(&digests).enumerate() {
            if let (Some(want), Some(got)) = (want, got) {
                if want != got {
                    sheet.problem(format!(
                        "{what}: cell {i} ({}) report differs",
                        label(&w.cells[i])
                    ));
                }
            }
        }
    };
    for (k, p) in plain.iter().enumerate().skip(1) {
        compare(&format!("untraced pass {k} vs pass 0"), digests(p));
    }
    for (k, p) in traced.iter().enumerate() {
        compare(&format!("traced pass {k} vs untraced"), digests(p));
    }
    match golden {
        Err(e) => sheet.problem(e),
        Ok(Some(g)) if !opts.bless => {
            if g.len() != reference.len() {
                sheet.problem(format!(
                    "golden file has {} cells, the grid {}",
                    g.len(),
                    reference.len()
                ));
            } else {
                compare("golden digests", g.into_iter().map(Some).collect());
            }
        }
        Ok(_) => {}
    }
    for &i in &w.sample {
        let job = &w.cells[i];
        for (path, run) in [
            (
                "dense kernel",
                &dense_cell as &dyn Fn(&JobSpec) -> RunReport,
            ),
            ("other build path", &|j: &JobSpec| other_path(w, j)),
        ] {
            match catch_unwind(AssertUnwindSafe(|| digest(&run(job)))) {
                Ok(d) => {
                    sheet.op(true);
                    if reference[i].is_some_and(|want| want != d) {
                        sheet.problem(format!("{path}: cell {i} ({}) report differs", label(job)));
                    }
                }
                Err(payload) => {
                    sheet.op(false);
                    sheet.problem(format!(
                        "{path}: cell {i} panicked: {}",
                        panic_message(payload)
                    ));
                }
            }
        }
    }
    arena::clear();
    if opts.bless {
        match reference.iter().copied().collect::<Option<Vec<u64>>>() {
            Some(all) if sheet.correct() => bless(w, opts.seed, &all),
            _ => sheet.problem("not blessing a run with failed cells or checks"),
        }
    }
}

fn digests(p: &Pass) -> Vec<Option<u64>> {
    p.cells
        .iter()
        .map(|c| c.outcome.as_ref().ok().map(|d| d.digest))
        .collect()
}

/// `par.busy_share` (cell time over worker time) and `par.tail_s`
/// (seconds the first idle worker waited for the pass to end), as
/// medians over passes.
fn executor_info(sheet: &mut Sheet, passes: &[Pass], workers: usize) {
    let mut busy = Vec::new();
    let mut tail = Vec::new();
    for p in passes {
        let cell_secs: f64 = p.cells.iter().map(CellRun::secs).sum();
        busy.push(cell_secs / (workers as f64 * p.secs));
        let mut last_end = BTreeMap::new();
        for c in &p.cells {
            let e = last_end.entry(c.worker).or_insert(0.0f64);
            *e = e.max(c.end);
        }
        let first_idle = last_end.values().copied().fold(f64::INFINITY, f64::min);
        tail.push(p.secs - first_idle);
    }
    sheet.info("par.busy_share", median(&busy), "ratio");
    sheet.info("par.tail_s", median(&tail), "s");
}

/// Model-accuracy rows: geomean IPC ratios of NOMAD over TDC and TiD
/// across the Fig. 9 workloads, beside the paper's values.
fn model_rows(sheet: &mut Sheet, w: &SimWorkload, pass: &Pass) {
    let ipc = |profile: &str, scheme: &str| {
        w.cells.iter().zip(&pass.cells).find_map(|(job, c)| {
            let d = c.outcome.as_ref().ok()?;
            (job.profile.name == profile && job.spec.label() == scheme).then(|| d.report.ipc())
        })
    };
    let profiles: BTreeSet<&str> = w.cells.iter().map(|j| j.profile.name.as_str()).collect();
    for (name, other, paper) in [
        ("model.nomad_over_tdc", "TDC", PAPER_NOMAD_OVER_TDC),
        ("model.nomad_over_tid", "TiD", PAPER_NOMAD_OVER_TID),
    ] {
        let ratios: Vec<f64> = profiles
            .iter()
            .filter_map(|p| Some(ipc(p, "NOMAD")? / ipc(p, other)?))
            .collect();
        let value = geomean(ratios);
        sheet.info(name, value, "ratio");
        sheet.info(format!("{name}.paper"), paper, "ratio");
        sheet.info(format!("{name}.rel_err"), value / paper - 1.0, "ratio");
    }
}

fn config(
    w: &SimWorkload,
    opts: &Opts,
    passes: usize,
    measured_secs: f64,
) -> Vec<(&'static str, String)> {
    let job = &w.cells[0];
    vec![
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("smoke", opts.smoke.to_string()),
        ("cells", w.cells.len().to_string()),
        ("sim_cores", job.cfg.cores.to_string()),
        ("dc_capacity", job.cfg.dc_capacity.to_string()),
        ("instructions", job.instructions.to_string()),
        ("warmup", job.warmup.to_string()),
        ("workers", w.workers.to_string()),
        ("arena", w.arena.to_string()),
        ("journal", "false".to_string()),
        ("host_threads", host_threads().to_string()),
        ("kernel_nominal_secs", calib::NOMINAL_SECS.to_string()),
        ("passes", passes.to_string()),
        ("measured_secs", measured_secs.to_string()),
    ]
}

/// Write `<name>.trace.json` (the spans) and `<name>.layers.json`
/// (self time per span name and per hot-path phase of the traced
/// cells, plus the run's configuration and per-layer metrics).
pub fn write_trace_files(
    name: &str,
    t: &Tracer,
    cells: &[&Done],
    sheet: &Sheet,
    config: &[(&str, String)],
) {
    let self_ns = t.self_ns();
    let rows = self_ns
        .iter()
        .map(|(k, v)| (*k, *v))
        .chain(hot_split(cells));
    let mut out = String::from("{\n  \"self_ns\": {");
    for (i, (layer, ns)) in rows.enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{layer}\": {ns}",
            if i > 0 { "," } else { "" }
        );
    }
    out.push_str("\n  },\n  \"sheet\": ");
    out.push_str(sheet.to_json(config).trim_end());
    out.push_str("\n}\n");
    write_result(&format!("{name}.trace.json"), &t.chrome_json());
    write_result(&format!("{name}.layers.json"), &out);
}
