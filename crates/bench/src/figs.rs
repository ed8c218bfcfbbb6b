//! One module per table/figure of the paper's evaluation. Each builds
//! its grid as a list of [`JobSpec`]s, hands it to the one
//! [`Executor`], and derives its rows from the returned reports; a
//! `print(&rows)` renders the table the paper reports. [`FIGURES`]
//! names every figure's whole body (run, print, save), and the
//! `figures` binary runs the ones it is asked for over one executor.

use crate::{geomean, hr, par, save_json, Scale};
use nomad_serve::{JobSpec, ResultStore};
use nomad_sim::{RunReport, SchemeSpec};
use nomad_trace::{WorkloadClass, WorkloadProfile};
use nomad_types::CancelToken;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The one grid executor every figure hands its cells to: jobs in,
/// their reports out in the same order.
///
/// * A cell it has returned before comes back from its [`Memo`], so
///   figures that share cells run them once.
/// * With `fleet`, the cells run through the fleet router
///   (`nomad_fleet::FleetClient::run_grid`) over those `nomad-serve`
///   nodes; a single server is a fleet of one. Each node's own store
///   remembers what it ran.
/// * Without, they run in-process on [`par::run_cells`], and each
///   finished report goes into `store` under its job's key.
/// * With `resume`, every cell `store` already holds is taken from it
///   and only the others run, either way.
///
/// Cells are pure and stored reports round-trip exactly, so the
/// reports are byte-identical however each cell was produced (the
/// `par_parity`, `fleet_parity` and `journal_resume` suites hold this).
/// The default runs in-process and stores nothing.
#[derive(Debug, Default)]
pub struct Executor {
    /// Nodes to run on; `None` runs in-process.
    pub fleet: Option<Vec<String>>,
    /// Where in-process cells are recorded (and read from, on resume).
    pub store: Option<ResultStore>,
    /// Take stored cells instead of re-running them.
    pub resume: bool,
    /// The reports this executor has returned.
    pub memo: Memo,
}

/// What an [`Executor`] remembers, in memory and for its own lifetime:
/// every report it has returned, keyed by the job's canonical JSON (as
/// the store is). Like the store, it keeps no report that carries an
/// obs series, and it answers nothing while observability is on.
#[derive(Debug, Default)]
pub struct Memo {
    reports: Mutex<HashMap<String, RunReport>>,
    asked: AtomicUsize,
    ran: AtomicUsize,
}

impl Memo {
    /// The cells asked of the executor so far, and how many of them it
    /// sent to run (the rest came from the memo or the store).
    pub fn counts(&self) -> (usize, usize) {
        let load = |n: &AtomicUsize| n.load(Ordering::Relaxed);
        (load(&self.asked), load(&self.ran))
    }
}

impl Executor {
    /// The executor the `figures` binary runs on: the nodes
    /// `NOMAD_FLEET_ADDRS` or `NOMAD_SERVE_ADDR` name (the fleet list
    /// wins; either may name one node), recording into the workspace's
    /// `results/cache/` store (the directory `nomad-serve` spills to),
    /// and reading it back with `--resume` or `NOMAD_RESUME=1`.
    pub fn from_env() -> Self {
        let fleet = std::env::var("NOMAD_FLEET_ADDRS").ok();
        let serve = std::env::var("NOMAD_SERVE_ADDR").ok();
        Executor {
            fleet: service_addrs(fleet.as_deref(), serve.as_deref()),
            store: Some(ResultStore::new(crate::results_dir().join("cache"))),
            resume: std::env::args().any(|a| a == "--resume")
                || nomad_types::env::bool_or("NOMAD_RESUME", false),
            memo: Memo::default(),
        }
    }

    /// Run `cells` with `jobs` workers (router workers on a fleet) and
    /// return their reports in cell order, or `None` once `cancel` is
    /// latched. Finished cells are already in the store by then, so a
    /// resumed rerun picks up from there.
    pub fn run(
        &self,
        jobs: usize,
        cancel: &CancelToken,
        cells: &[JobSpec],
    ) -> Option<Vec<RunReport>> {
        let keys: Vec<String> = cells.iter().map(JobSpec::canonical_json).collect();
        let remembered: Vec<Option<RunReport>> = if nomad_obs::enabled() {
            vec![None; cells.len()]
        } else {
            let memo = self.memo.reports.lock().expect("memo lock");
            keys.iter().map(|k| memo.get(k).cloned()).collect()
        };
        let hits = remembered.iter().flatten().count();
        let known: Vec<Option<RunReport>> = cells
            .iter()
            .zip(&keys)
            .zip(remembered)
            .map(|((job, key), report)| {
                report.or_else(|| {
                    let store = self.store.as_ref().filter(|_| self.resume)?;
                    store.get(job.content_key(), key)
                })
            })
            .collect();
        let todo: Vec<&JobSpec> = cells
            .iter()
            .zip(&known)
            .filter_map(|(job, report)| report.is_none().then_some(job))
            .collect();
        let resumed = cells.len() - todo.len() - hits;
        if let (Some(store), true) = (&self.store, resumed > 0) {
            nomad_obs::resilience()
                .journal_cells_resumed
                .add(resumed as u64);
            eprintln!(
                "[resumed {resumed}/{} cells from {}]",
                cells.len(),
                store.dir().display()
            );
        }
        self.memo.asked.fetch_add(cells.len(), Ordering::Relaxed);
        self.memo.ran.fetch_add(todo.len(), Ordering::Relaxed);
        let fresh = match &self.fleet {
            Some(addrs) => {
                let todo = todo.into_iter().cloned().collect();
                let fleet = nomad_fleet::FleetClient::new(addrs);
                let reports = match fleet.run_grid(todo, jobs, cancel) {
                    Ok(reports) => reports,
                    Err(_) if cancel.is_cancelled() => return None,
                    Err(e) => panic!("grid submission to the fleet {addrs:?} failed: {e}"),
                };
                for r in &reports {
                    eprintln!(
                        "  [{}/{}] ipc {:.3} (via fleet)",
                        r.workload,
                        r.scheme,
                        r.ipc()
                    );
                }
                reports
            }
            None => par::run_cells(jobs, cancel, todo, |job, cancel| self.run_here(job, cancel))?,
        };
        let mut fresh = fresh.into_iter();
        let reports: Vec<RunReport> = known
            .into_iter()
            .map(|report| {
                report
                    .or_else(|| fresh.next())
                    .expect("one report per cell")
            })
            .collect();
        let mut memo = self.memo.reports.lock().expect("memo lock");
        for (key, report) in keys.into_iter().zip(&reports) {
            if report.obs.is_none() {
                memo.insert(key, report.clone());
            }
        }
        Some(reports)
    }

    /// Run one cell in-process and record it in the store.
    fn run_here(&self, job: &JobSpec, cancel: &CancelToken) -> Option<RunReport> {
        let report = job.run_local_cancellable(cancel)?;
        eprintln!(
            "  [{}/{}] ipc {:.3}",
            report.workload,
            report.scheme,
            report.ipc()
        );
        if let Some(store) = &self.store {
            if let Err(e) = store.put(job.content_key(), &job.canonical_json(), &report) {
                eprintln!(
                    "warning: could not store a {}/{} cell in {}: {e}",
                    job.profile.name,
                    job.spec.label(),
                    store.dir().display()
                );
            }
        }
        Some(report)
    }

    /// [`run`](Self::run) under the process-wide [`par::sweep_token`],
    /// exiting 130 on cancellation: what every harness calls.
    pub fn run_or_exit(&self, jobs: usize, cells: &[JobSpec]) -> Vec<RunReport> {
        if let Some(reports) = self.run(jobs, par::sweep_token(), cells) {
            return reports;
        }
        match (&self.store, &self.fleet) {
            (Some(store), None) => eprintln!(
                "sweep cancelled; finished cells are stored in {} — rerun with \
                 --resume (or NOMAD_RESUME=1) to reuse them",
                store.dir().display()
            ),
            _ => eprintln!("sweep cancelled; discarding partial grid"),
        }
        std::process::exit(130);
    }
}

/// The nodes an off-process grid goes to, from the values of
/// `NOMAD_FLEET_ADDRS` and `NOMAD_SERVE_ADDR`: the fleet list when it
/// names any address, else `NOMAD_SERVE_ADDR` parsed the same way (one
/// address is a fleet of one), else `None` for the in-process executor.
fn service_addrs(fleet: Option<&str>, serve: Option<&str>) -> Option<Vec<String>> {
    [fleet, serve]
        .into_iter()
        .flatten()
        .map(nomad_fleet::parse_addrs)
        .find(|addrs| !addrs.is_empty())
}

/// The mean of `metric` over a group of reports.
fn mean(group: &[RunReport], metric: fn(&RunReport) -> f64) -> f64 {
    group.iter().map(metric).sum::<f64>() / group.len().max(1) as f64
}

/// A generic result row: one (workload × scheme) measurement with the
/// metrics every figure draws from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload abbreviation.
    pub workload: String,
    /// Workload class.
    pub class: String,
    /// Scheme name.
    pub scheme: String,
    /// Instructions per cycle (per-core average).
    pub ipc: f64,
    /// Mean DC access time at the controller (cycles).
    pub dc_access_time: f64,
    /// Mean tag-management latency (cycles).
    pub tag_mgmt_latency: f64,
    /// OS stall-cycle ratio.
    pub os_stall_ratio: f64,
    /// Memory (non-OS) stall-cycle ratio.
    pub mem_stall_ratio: f64,
    /// RMHB in GB/s.
    pub rmhb_gbps: f64,
    /// LLC misses per microsecond.
    pub llc_mpms: f64,
    /// On-package bandwidth per class, GB/s:
    /// [demand_rd, demand_wr, metadata, fill, writeback].
    pub hbm_gbps: [f64; 5],
    /// On-package row-buffer hit rate.
    pub hbm_row_hit: f64,
    /// Off-package total bandwidth, GB/s.
    pub ddr_gbps: f64,
    /// Page-copy-buffer hit rate among data misses.
    pub buffer_hit_rate: f64,
}

impl Row {
    /// Build a row from a report.
    pub fn from_report(r: &RunReport, class: &str) -> Self {
        use nomad_types::TrafficClass as T;
        Row {
            workload: r.workload.clone(),
            class: class.to_string(),
            scheme: r.scheme.clone(),
            ipc: r.ipc(),
            dc_access_time: r.dc_access_time(),
            tag_mgmt_latency: r.tag_mgmt_latency(),
            os_stall_ratio: r.os_stall_ratio(),
            mem_stall_ratio: r.mem_stall_ratio(),
            rmhb_gbps: r.rmhb_gbps(),
            llc_mpms: r.llc_mpms(),
            hbm_gbps: [
                r.hbm_class_gbps(T::DemandRead),
                r.hbm_class_gbps(T::DemandWrite),
                r.hbm_class_gbps(T::Metadata),
                r.hbm_class_gbps(T::Fill),
                r.hbm_class_gbps(T::Writeback),
            ],
            hbm_row_hit: r.hbm_row_hit_rate(),
            ddr_gbps: r.ddr_total_gbps(),
            buffer_hit_rate: r.buffer_hit_rate(),
        }
    }
}

/// The workloads of `rows`, in the order they first appear.
fn workloads_of(rows: &[Row]) -> Vec<&str> {
    let mut seen: Vec<&str> = Vec::new();
    for r in rows {
        if !seen.contains(&r.workload.as_str()) {
            seen.push(&r.workload);
        }
    }
    seen
}

/// Run `specs × workloads` and collect rows, in `workloads × specs`
/// order at any executor and width.
pub fn sweep(
    exec: &Executor,
    scale: &Scale,
    specs: &[SchemeSpec],
    workloads: &[WorkloadProfile],
) -> Vec<Row> {
    let cells: Vec<JobSpec> = workloads
        .iter()
        .flat_map(|w| specs.iter().map(move |spec| scale.job(spec, w)))
        .collect();
    let reports = exec.run_or_exit(scale.jobs, &cells);
    cells
        .iter()
        .zip(&reports)
        .map(|(job, r)| Row::from_report(r, job.profile.class.label()))
        .collect()
}

/// A figure: its name, and its whole body — run its grid on the
/// executor, print its table, save `results/<name>.json`.
pub type Figure = (&'static str, fn(&Executor, &Scale));

/// Every table and figure of the evaluation, in the order `figures all`
/// runs them.
pub const FIGURES: [Figure; 13] = [
    ("table1", |exec, scale| {
        show("table1", table1::run(exec, scale), |r| table1::print(r))
    }),
    ("table2", |_, scale| {
        show("table2", scale.config(), table2::print)
    }),
    ("fig02", |exec, scale| {
        show("fig02", fig02::run(exec, scale), |r| fig02::print(r))
    }),
    ("fig09", |exec, scale| {
        show("fig09", fig09::run(exec, scale), |r| fig09::print(r))
    }),
    ("fig_headtohead", |exec, scale| {
        let rows = fig_headtohead::run(exec, scale);
        show("fig_headtohead", rows, |r| fig_headtohead::print(r))
    }),
    ("fig10", |exec, scale| {
        show("fig10", fig10::run(exec, scale), |r| fig10::print(r))
    }),
    ("fig11", |exec, scale| {
        show("fig11", fig11::run(exec, scale), |r| fig11::print(r))
    }),
    ("fig12", |exec, scale| {
        const COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];
        let rows = pcshr_sweeps::fig12(exec, scale, COUNTS);
        show("fig12", rows, |r| pcshr_sweeps::print_fig12(r, COUNTS))
    }),
    ("fig13", |exec, scale| {
        const COUNTS: &[usize] = &[2, 4, 8, 16, 32];
        const CORES: &[usize] = &[2, 4, 8];
        let rows = pcshr_sweeps::fig13(exec, scale, COUNTS, CORES);
        show("fig13", rows, |r| {
            pcshr_sweeps::print_fig13(r, COUNTS, CORES)
        })
    }),
    ("fig14", |exec, scale| {
        const COUNTS: &[usize] = &[4, 8, 16, 32];
        let rows = pcshr_sweeps::fig14(exec, scale, COUNTS);
        show("fig14", rows, |r| pcshr_sweeps::print_fig14(r, COUNTS))
    }),
    ("fig15", |exec, scale| {
        const GRID: &[(usize, usize)] = &[(8, 8), (16, 8), (32, 8), (16, 16), (32, 16), (32, 32)];
        show("fig15", fig15::run(exec, scale, GRID), |r| fig15::print(r))
    }),
    ("fig16", |exec, scale| {
        const TOTALS: &[usize] = &[4, 8, 16, 32];
        show("fig16", fig16::run(exec, scale, TOTALS), |r| {
            fig16::print(r)
        })
    }),
    // The ablations print as they run.
    ("ablations", |exec, scale| {
        save_json("ablations", &ablations::run(exec, scale))
    }),
];

/// Print `rows`, then save them as `results/<name>.json`.
fn show<T: Serialize>(name: &str, rows: T, print: impl FnOnce(&T)) {
    print(&rows);
    save_json(name, &rows);
}

/// Table I — workload characteristics under the ideal OS-managed
/// configuration.
pub mod table1 {
    use super::*;

    /// One Table I row.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct T1Row {
        /// Class label.
        pub class: String,
        /// Abbreviation.
        pub abbr: String,
        /// Full benchmark name.
        pub workload: String,
        /// Measured RMHB (GB/s).
        pub rmhb_gbps: f64,
        /// Paper-reported RMHB (GB/s).
        pub paper_rmhb: f64,
        /// Measured LLC MPMS.
        pub llc_mpms: f64,
        /// Paper-reported LLC MPMS.
        pub paper_mpms: f64,
        /// Scaled footprint (MB) used by the generator config.
        pub footprint_mb: f64,
        /// Paper footprint (GB).
        pub paper_footprint_gb: f64,
    }

    /// Measure all 15 workloads under the Ideal scheme (one cell per
    /// workload).
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<T1Row> {
        let cfg = scale.config();
        let workloads = WorkloadProfile::all();
        let rows = sweep(exec, scale, &[SchemeSpec::Ideal], &workloads);
        workloads
            .iter()
            .zip(&rows)
            .map(|(w, r)| {
                let d = w.derive(cfg.pages_per_gb, cfg.l3_reach_pages());
                T1Row {
                    class: w.class.label().to_string(),
                    abbr: w.name.clone(),
                    workload: w.full_name.clone(),
                    rmhb_gbps: r.rmhb_gbps,
                    paper_rmhb: w.rmhb_gbps,
                    llc_mpms: r.llc_mpms,
                    paper_mpms: w.llc_mpms,
                    footprint_mb: d.footprint_pages as f64 * 4096.0 / 1e6,
                    paper_footprint_gb: w.footprint_gb,
                }
            })
            .collect()
    }

    /// Print the table.
    pub fn print(rows: &[T1Row]) {
        println!("\nTable I: Workload characteristics (measured under Ideal vs paper)");
        hr(86);
        println!(
            "{:<7} {:<6} {:<12} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "Class", "Abbr", "Workload", "RMHB", "(paper)", "MPMS", "(paper)", "footprint"
        );
        hr(86);
        for r in rows {
            println!(
                "{:<7} {:<6} {:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9.0} MB",
                r.class,
                r.abbr,
                r.workload,
                r.rmhb_gbps,
                r.paper_rmhb,
                r.llc_mpms,
                r.paper_mpms,
                r.footprint_mb
            );
        }
        hr(86);
    }
}

/// Table II — system configuration self-check (config dump).
pub mod table2 {
    use super::*;
    use nomad_sim::SystemConfig;

    /// Print the active configuration in Table II style.
    pub fn print(cfg: &SystemConfig) {
        println!("\nTable II: System and DRAM configuration (scaled reproduction)");
        hr(72);
        println!(
            "CPU           {} cores @ {:.1} GHz, {}-wide, ROB {}",
            cfg.cores, cfg.clock_ghz, cfg.core.fetch_width, cfg.core.rob_size
        );
        println!(
            "L1D           {} KiB {}-way, {} cycles, {} MSHRs",
            cfg.l1.size_bytes / 1024,
            cfg.l1.assoc,
            cfg.l1.hit_latency,
            cfg.l1.mshrs
        );
        println!(
            "L2            {} KiB {}-way, {} cycles, {} MSHRs",
            cfg.l2.size_bytes / 1024,
            cfg.l2.assoc,
            cfg.l2.hit_latency,
            cfg.l2.mshrs
        );
        println!(
            "L3 (shared)   {} KiB {}-way, {} cycles, {} MSHRs",
            cfg.l3.size_bytes / 1024,
            cfg.l3.assoc,
            cfg.l3.hit_latency,
            cfg.l3.mshrs
        );
        println!(
            "TLBs          L1 {} / L2 {} entries, walk {} cycles",
            cfg.tlb.l1_entries, cfg.tlb.l2_entries, cfg.tlb.walk_latency
        );
        println!(
            "DRAM cache    {} MiB ({} frames of 4 KiB)",
            cfg.dc_capacity / (1 << 20),
            cfg.dc_frames()
        );
        println!(
            "On-package    {}: {} ch x {} banks, {:.1} GB/s peak",
            cfg.hbm.name,
            cfg.hbm.channels,
            cfg.hbm.banks_per_channel,
            cfg.hbm.peak_gbps()
        );
        println!(
            "Off-package   {}: {} ch x {} banks, {:.1} GB/s peak",
            cfg.ddr.name,
            cfg.ddr.channels,
            cfg.ddr.banks_per_channel,
            cfg.ddr.peak_gbps()
        );
        println!("Workload scale  {} pages per paper-GB", cfg.pages_per_gb);
        hr(72);
    }
}

/// Fig. 2 — IPC of TDC relative to TiD for the high-MPMS workloads.
pub mod fig02 {
    use super::*;

    /// One Fig. 2 point.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct F2Row {
        /// Workload.
        pub workload: String,
        /// TDC IPC / TiD IPC.
        pub tdc_over_tid: f64,
        /// Required miss-handling bandwidth (GB/s, measured).
        pub rmhb_gbps: f64,
    }

    /// Run the six-workload comparison (TDC and TiD rows, paired back
    /// up in submission order).
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<F2Row> {
        let specs = [SchemeSpec::Tdc, SchemeSpec::Tid];
        let rows = sweep(exec, scale, &specs, &WorkloadProfile::fig2_set());
        rows.chunks_exact(2)
            .map(|pair| {
                let (tdc, tid) = (&pair[0], &pair[1]);
                F2Row {
                    workload: tdc.workload.clone(),
                    tdc_over_tid: tdc.ipc / tid.ipc,
                    rmhb_gbps: tdc.rmhb_gbps,
                }
            })
            .collect()
    }

    /// Print the series.
    pub fn print(rows: &[F2Row]) {
        println!("\nFig. 2: IPC of the blocking OS-managed scheme (TDC) relative to");
        println!("the HW-based scheme (TiD), with required miss-handling bandwidth");
        hr(56);
        println!("{:<8} {:>14} {:>18}", "wl", "TDC IPC / TiD", "RMHB (GB/s)");
        hr(56);
        for r in rows {
            println!(
                "{:<8} {:>14.2} {:>18.1}",
                r.workload, r.tdc_over_tid, r.rmhb_gbps
            );
        }
        hr(56);
        println!("(paper: ratio < 1 for Excess-class cact/sssp/bwav — the HW");
        println!(" scheme wins under miss-handling pressure; ratio > 1 for the");
        println!(" low-RMHB mcf/bc/pr, where ideal DC access time wins)");
    }
}

/// Fig. 9 — IPC relative to Baseline + average DC access time, all
/// schemes × all workloads. Also prints the paper's headline averages.
pub mod fig09 {
    use super::*;

    /// Run the full cross product.
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<Row> {
        sweep(
            exec,
            scale,
            &SchemeSpec::fig9_set(),
            &WorkloadProfile::all(),
        )
    }

    /// Print the table plus headline summary.
    pub fn print(rows: &[Row]) {
        println!("\nFig. 9: IPC relative to Baseline (top row per workload) and");
        println!("average DC access time in cycles (bottom row)");
        hr(100);
        println!(
            "{:<7} {:<6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "class", "wl", "Baseline", "TiD", "TDC", "NOMAD", "Ideal"
        );
        hr(100);
        let workloads = workloads_of(rows);
        let find = |w: &str, s: &str| rows.iter().find(|r| r.workload == w && r.scheme == s);
        for w in &workloads {
            let base = find(w, "Baseline").map(|r| r.ipc).unwrap_or(1.0);
            let class = find(w, "Baseline")
                .map(|r| r.class.clone())
                .unwrap_or_default();
            print!("{:<7} {:<6}", class, w);
            for s in ["Baseline", "TiD", "TDC", "NOMAD", "Ideal"] {
                match find(w, s) {
                    Some(r) => print!(" {:>10.2}", r.ipc / base),
                    None => print!(" {:>10}", "-"),
                }
            }
            println!();
            print!("{:<7} {:<6}", "", "(acc)");
            for s in ["Baseline", "TiD", "TDC", "NOMAD", "Ideal"] {
                match find(w, s) {
                    Some(r) => print!(" {:>10.0}", r.dc_access_time),
                    None => print!(" {:>10}", "-"),
                }
            }
            println!();
        }
        hr(100);
        // Headline numbers (§IV-B.5).
        println!(
            "Headline: NOMAD IPC vs TDC {:+.1}% (paper +16.7%), vs TiD {:+.1}% (paper +25.5%)",
            (ipc_gain(rows, "NOMAD", "TDC") - 1.0) * 100.0,
            (ipc_gain(rows, "NOMAD", "TiD") - 1.0) * 100.0,
        );
        println!(
            "NOMAD data misses hitting page copy buffers: {:.1}% (paper 91.6%)",
            buffer_hit_mean(rows) * 100.0
        );
    }

    /// The geomean, over the workloads both ran, of `scheme`'s IPC
    /// over `base`'s: the paper's §IV-B.5 "NOMAD IPC vs TDC / TiD".
    pub fn ipc_gain(rows: &[Row], scheme: &str, base: &str) -> f64 {
        geomean(rows.iter().filter(|r| r.scheme == scheme).filter_map(|r| {
            let b = rows
                .iter()
                .find(|b| b.workload == r.workload && b.scheme == base)?;
            (b.ipc > 0.0).then_some(r.ipc / b.ipc)
        }))
    }

    /// The mean page-copy-buffer hit rate over NOMAD's workloads that
    /// have one: the paper's "91.6% of data misses hit the buffers".
    pub fn buffer_hit_mean(rows: &[Row]) -> f64 {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.scheme == "NOMAD" && r.buffer_hit_rate > 0.0)
            .map(|r| r.buffer_hit_rate)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// Head-to-head — the seven first-class schemes (Baseline, TiD, TDRAM,
/// Banshee, TDC, NOMAD, Ideal) across all workloads, summarized per
/// RMHB class.
pub mod fig_headtohead {
    use super::*;
    use nomad_trace::WorkloadClass;

    /// Scheme column order; matches [`SchemeSpec::headtohead_set`].
    pub const SCHEMES: [&str; 7] = [
        "Baseline", "TiD", "TDRAM", "Banshee", "TDC", "NOMAD", "Ideal",
    ];

    /// Run the full 7-scheme cross product over every workload.
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<Row> {
        sweep(
            exec,
            scale,
            &SchemeSpec::headtohead_set(),
            &WorkloadProfile::all(),
        )
    }

    /// Print per-workload IPC relative to Baseline, then the per-class
    /// geomean summary across the four RMHB classes.
    pub fn print(rows: &[Row]) {
        println!("\nHead-to-head: IPC relative to Baseline, all first-class schemes");
        hr(118);
        print!("{:<7} {:<6}", "class", "wl");
        for s in SCHEMES {
            print!(" {:>10}", s);
        }
        println!();
        hr(118);
        let workloads = workloads_of(rows);
        let find = |w: &str, s: &str| rows.iter().find(|r| r.workload == w && r.scheme == s);
        for w in &workloads {
            let base = find(w, "Baseline").map(|r| r.ipc).unwrap_or(1.0);
            let class = find(w, "Baseline")
                .map(|r| r.class.clone())
                .unwrap_or_default();
            print!("{:<7} {:<6}", class, w);
            for s in SCHEMES {
                match find(w, s) {
                    Some(r) => print!(" {:>10.2}", r.ipc / base),
                    None => print!(" {:>10}", "-"),
                }
            }
            println!();
        }
        hr(118);
        println!("Per-class geomean of IPC relative to Baseline:");
        for class in WorkloadClass::ALL {
            let in_class: Vec<&&str> = workloads
                .iter()
                .filter(|w| find(w, "Baseline").map(|r| r.class.as_str()) == Some(class.label()))
                .collect();
            print!("{:<7}", class.label());
            for s in SCHEMES {
                let g = geomean(in_class.iter().filter_map(|w| {
                    let base = find(w, "Baseline")?.ipc;
                    let x = find(w, s)?.ipc;
                    (base > 0.0).then_some(x / base)
                }));
                print!(" {:>10.2}", g);
            }
            println!();
        }
        hr(118);
        println!("(expected shape at default scale: block-granularity TDRAM leads the");
        println!(" non-ideal field under miss-handling pressure (no page-fill RMHB);");
        println!(" NOMAD leads the page-granularity schemes everywhere; blocking TDC");
        println!(" collapses on the bursty Tight class; TiD pays its metadata tax");
        println!(" throughout — see EXPERIMENTS.md for the measured walkthrough)");
    }
}

/// Fig. 10 — on-package bandwidth-usage breakdown + row-buffer hit
/// rates for TiD / TDC / NOMAD.
pub mod fig10 {
    use super::*;

    /// Run the three DC schemes over all workloads.
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<Row> {
        sweep(
            exec,
            scale,
            &[SchemeSpec::Tid, SchemeSpec::Tdc, SchemeSpec::Nomad],
            &WorkloadProfile::all(),
        )
    }

    /// Print the breakdown.
    pub fn print(rows: &[Row]) {
        println!("\nFig. 10: on-package DRAM bandwidth usage breakdown (GB/s) and");
        println!("row-buffer hit rate");
        hr(98);
        println!(
            "{:<6} {:<7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
            "wl", "scheme", "dem_rd", "dem_wr", "metadata", "fill", "writeback", "total", "rowhit"
        );
        hr(98);
        for r in rows {
            let total: f64 = r.hbm_gbps.iter().sum();
            println!(
                "{:<6} {:<7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.1}%",
                r.workload,
                r.scheme,
                r.hbm_gbps[0],
                r.hbm_gbps[1],
                r.hbm_gbps[2],
                r.hbm_gbps[3],
                r.hbm_gbps[4],
                total,
                r.hbm_row_hit * 100.0
            );
        }
        hr(98);
        println!("(paper: TiD adds a large metadata share; fills dominate for");
        println!(" Excess-class workloads; OS-managed schemes spend no metadata)");
    }
}

/// Fig. 11 — application stall-cycle ratios + average tag-management
/// latency for the OS-managed schemes.
pub mod fig11 {
    use super::*;

    /// Run TDC and NOMAD over all workloads.
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<Row> {
        sweep(
            exec,
            scale,
            &[SchemeSpec::Tdc, SchemeSpec::Nomad],
            &WorkloadProfile::all(),
        )
    }

    /// Print the comparison.
    pub fn print(rows: &[Row]) {
        println!("\nFig. 11: application stall-cycle ratio and average tag");
        println!("management latency of the OS-managed schemes");
        hr(92);
        println!(
            "{:<7} {:<6} {:>11} {:>11} {:>12} {:>12} {:>12}",
            "class", "wl", "TDC stall", "NOMAD stall", "reduction", "TDC taglat", "NOMAD taglat"
        );
        hr(92);
        for (tdc, nomad, red) in reductions(rows) {
            println!(
                "{:<7} {:<6} {:>10.1}% {:>10.1}% {:>11.1}% {:>12.0} {:>12.0}",
                tdc.class,
                tdc.workload,
                tdc.os_stall_ratio * 100.0,
                nomad.os_stall_ratio * 100.0,
                red * 100.0,
                tdc.tag_mgmt_latency,
                nomad.tag_mgmt_latency
            );
        }
        hr(92);
        println!(
            "Average stall-cycle reduction: {:.1}% (paper: 76.1%)",
            stall_reduction_mean(rows) * 100.0
        );
        println!("(paper: TDC stalls ~43% Excess / 29% Tight / 15% Loose / 4% Few;");
        println!(" NOMAD tag latency >= 400 cycles, growing with contention)");
    }

    /// `(TDC row, NOMAD row, NOMAD's OS-stall reduction)` for each
    /// workload both ran, in TDC row order.
    fn reductions(rows: &[Row]) -> impl Iterator<Item = (&Row, &Row, f64)> {
        rows.iter().filter(|r| r.scheme == "TDC").filter_map(|tdc| {
            let nomad = rows
                .iter()
                .find(|r| r.workload == tdc.workload && r.scheme == "NOMAD")?;
            let red = if tdc.os_stall_ratio > 0.0 {
                1.0 - nomad.os_stall_ratio / tdc.os_stall_ratio
            } else {
                0.0
            };
            Some((tdc, nomad, red))
        })
    }

    /// The mean of NOMAD's per-workload OS-stall reduction over TDC:
    /// the paper's "−76.1% application stall cycles".
    pub fn stall_reduction_mean(rows: &[Row]) -> f64 {
        let v: Vec<f64> = reductions(rows).map(|(_, _, red)| red).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

/// Figs. 12–14 — PCSHR sensitivity sweeps.
pub mod pcshr_sweeps {
    use super::*;
    use nomad_sim::spec::NomadSpec;

    /// One sensitivity point.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct SweepRow {
        /// Workload (or class-average label).
        pub workload: String,
        /// PCSHR count.
        pub pcshrs: usize,
        /// Cores.
        pub cores: usize,
        /// IPC (per-core average).
        pub ipc: f64,
        /// Off-package bandwidth (GB/s).
        pub ddr_gbps: f64,
        /// OS stall ratio.
        pub os_stall_ratio: f64,
        /// Tag-management latency (cycles).
        pub tag_mgmt_latency: f64,
    }

    fn nomad_with(pcshrs: usize) -> SchemeSpec {
        SchemeSpec::NomadWith(NomadSpec {
            pcshrs,
            ..NomadSpec::default()
        })
    }

    /// Fig. 12: per-class average IPC and off-package bandwidth vs
    /// PCSHR count. Cells are (class, count, workload) triples; class
    /// averages are folded afterwards in submission order, so rows are
    /// identical at every job count.
    pub fn fig12(exec: &Executor, scale: &Scale, counts: &[usize]) -> Vec<SweepRow> {
        let mut groups: Vec<(WorkloadClass, usize, usize)> = Vec::new();
        let mut cells: Vec<JobSpec> = Vec::new();
        for class in WorkloadClass::ALL {
            let ws = WorkloadProfile::of_class(class);
            for &n in counts {
                groups.push((class, n, ws.len()));
                cells.extend(ws.iter().map(|w| scale.job(&nomad_with(n), w)));
            }
        }
        let reports = exec.run_or_exit(scale.jobs, &cells);
        let mut rest = reports.as_slice();
        groups
            .into_iter()
            .map(|(class, n, len)| {
                let (group, tail) = rest.split_at(len);
                rest = tail;
                SweepRow {
                    workload: class.label().to_string(),
                    pcshrs: n,
                    cores: scale.cores,
                    ipc: mean(group, RunReport::ipc),
                    ddr_gbps: mean(group, RunReport::ddr_total_gbps),
                    os_stall_ratio: mean(group, RunReport::os_stall_ratio),
                    tag_mgmt_latency: mean(group, RunReport::tag_mgmt_latency),
                }
            })
            .collect()
    }

    /// Print Fig. 12.
    pub fn print_fig12(rows: &[SweepRow], counts: &[usize]) {
        println!("\nFig. 12: per-class average IPC (and off-package GB/s) vs PCSHRs");
        hr(10 + counts.len() * 17);
        print!("{:<8}", "class");
        for n in counts {
            print!(" {:>8} {:>7}", format!("{n}p"), "GB/s");
        }
        println!();
        hr(10 + counts.len() * 17);
        for class in WorkloadClass::ALL {
            print!("{:<8}", class.label());
            for &n in counts {
                if let Some(r) = rows
                    .iter()
                    .find(|r| r.workload == class.label() && r.pcshrs == n)
                {
                    print!(" {:>8.3} {:>7.1}", r.ipc, r.ddr_gbps);
                }
            }
            println!();
        }
        hr(10 + counts.len() * 17);
        println!("(paper: performance saturates around 8 PCSHRs for Excess; 1-2");
        println!(" suffice for Loose/Few; off-package bandwidth becomes the limit)");
    }

    /// Fig. 13: Excess-class average IPC vs PCSHRs for several core
    /// counts, normalized to the 32-PCSHR setup. The core-count sweep
    /// is flattened into (cores, count, workload) cells so even the
    /// different-sized systems fill the worker pool together.
    pub fn fig13(
        exec: &Executor,
        scale: &Scale,
        counts: &[usize],
        cores: &[usize],
    ) -> Vec<SweepRow> {
        let excess = WorkloadProfile::of_class(WorkloadClass::Excess);
        let points: Vec<(usize, usize)> = cores
            .iter()
            .flat_map(|&c| counts.iter().map(move |&n| (c, n)))
            .collect();
        let cells: Vec<JobSpec> = points
            .iter()
            .flat_map(|&(c, n)| {
                let scale = scale.with_cores(c);
                excess.iter().map(move |w| scale.job(&nomad_with(n), w))
            })
            .collect();
        let reports = exec.run_or_exit(scale.jobs, &cells);
        points
            .into_iter()
            .zip(reports.chunks_exact(excess.len()))
            .map(|((c, n), group)| SweepRow {
                workload: "Excess".into(),
                pcshrs: n,
                cores: c,
                ipc: mean(group, RunReport::ipc),
                ddr_gbps: 0.0,
                os_stall_ratio: 0.0,
                tag_mgmt_latency: 0.0,
            })
            .collect()
    }

    /// Print Fig. 13.
    pub fn print_fig13(rows: &[SweepRow], counts: &[usize], cores: &[usize]) {
        println!("\nFig. 13: Excess-class average IPC vs PCSHRs for increasing core");
        println!("count (normalized to the largest PCSHR configuration of each)");
        hr(8 + counts.len() * 9);
        print!("{:<8}", "cores");
        for n in counts {
            print!(" {:>8}", format!("{n}p"));
        }
        println!();
        hr(8 + counts.len() * 9);
        for &c in cores {
            let base = rows
                .iter()
                .find(|r| r.cores == c && r.pcshrs == *counts.last().expect("non-empty"))
                .map(|r| r.ipc)
                .unwrap_or(1.0);
            print!("{:<8}", c);
            for &n in counts {
                if let Some(r) = rows.iter().find(|r| r.cores == c && r.pcshrs == n) {
                    print!(" {:>8.3}", r.ipc / base);
                }
            }
            println!();
        }
        hr(8 + counts.len() * 9);
        println!("(paper: >=8 PCSHRs reach ~1.0 at every core count — the");
        println!(" off-package memory, not the PCSHRs, bounds performance)");
    }

    /// Fig. 14: stall rate + tag latency for cact (highest RMHB) and
    /// libq (bursty RMHB) vs PCSHRs.
    pub fn fig14(exec: &Executor, scale: &Scale, counts: &[usize]) -> Vec<SweepRow> {
        let points: Vec<(WorkloadProfile, usize)> = ["cact", "libq"]
            .into_iter()
            .flat_map(|name| {
                let w = WorkloadProfile::by_name(name).expect("known");
                counts.iter().map(move |&n| (w.clone(), n))
            })
            .collect();
        let cells: Vec<JobSpec> = points
            .iter()
            .map(|(w, n)| scale.job(&nomad_with(*n), w))
            .collect();
        let reports = exec.run_or_exit(scale.jobs, &cells);
        points
            .into_iter()
            .zip(&reports)
            .map(|((w, n), r)| SweepRow {
                workload: w.name,
                pcshrs: n,
                cores: scale.cores,
                ipc: r.ipc(),
                ddr_gbps: r.ddr_total_gbps(),
                os_stall_ratio: r.os_stall_ratio(),
                tag_mgmt_latency: r.tag_mgmt_latency(),
            })
            .collect()
    }

    /// Print Fig. 14.
    pub fn print_fig14(rows: &[SweepRow], counts: &[usize]) {
        println!("\nFig. 14: application stall rate and tag-management latency vs");
        println!("PCSHRs — cact (highest RMHB) vs libq (bursty RMHB)");
        hr(6 + counts.len() * 18);
        print!("{:<6}", "wl");
        for n in counts {
            print!(" {:>8} {:>8}", format!("{n}p-stall"), "taglat");
        }
        println!();
        hr(6 + counts.len() * 18);
        for name in ["cact", "libq"] {
            print!("{:<6}", name);
            for &n in counts {
                if let Some(r) = rows.iter().find(|r| r.workload == name && r.pcshrs == n) {
                    print!(
                        " {:>7.1}% {:>8.0}",
                        r.os_stall_ratio * 100.0,
                        r.tag_mgmt_latency
                    );
                }
            }
            println!();
        }
        hr(6 + counts.len() * 18);
        println!("(paper: the bursty libq suffers more PCSHR contention than the");
        println!(" steady cact; 16 -> 32 PCSHRs cuts its tag latency by ~48%)");
    }
}

/// Fig. 15 — area-optimized (n PCSHRs, m page copy buffers) designs on
/// the bursty workloads.
pub mod fig15 {
    use super::*;
    use nomad_sim::spec::NomadSpec;

    /// One (n, m) point.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct F15Row {
        /// Workload.
        pub workload: String,
        /// PCSHRs.
        pub pcshrs: usize,
        /// Page copy buffers.
        pub buffers: usize,
        /// IPC.
        pub ipc: f64,
        /// Tag-management latency.
        pub tag_mgmt_latency: f64,
    }

    /// Run the (n, m) grid on libq and gems.
    pub fn run(exec: &Executor, scale: &Scale, grid: &[(usize, usize)]) -> Vec<F15Row> {
        let points: Vec<(WorkloadProfile, usize, usize)> = ["libq", "gems"]
            .into_iter()
            .flat_map(|name| {
                let w = WorkloadProfile::by_name(name).expect("known");
                grid.iter().map(move |&(n, m)| (w.clone(), n, m))
            })
            .collect();
        let cells: Vec<JobSpec> = points
            .iter()
            .map(|(w, n, m)| {
                let spec = SchemeSpec::NomadWith(NomadSpec {
                    pcshrs: *n,
                    buffers: Some(*m),
                    ..NomadSpec::default()
                });
                scale.job(&spec, w)
            })
            .collect();
        let reports = exec.run_or_exit(scale.jobs, &cells);
        points
            .into_iter()
            .zip(&reports)
            .map(|((w, n, m), r)| F15Row {
                workload: w.name,
                pcshrs: n,
                buffers: m,
                ipc: r.ipc(),
                tag_mgmt_latency: r.tag_mgmt_latency(),
            })
            .collect()
    }

    /// Print the grid.
    pub fn print(rows: &[F15Row]) {
        println!("\nFig. 15: area-optimized back-end — (n PCSHRs, m page copy");
        println!("buffers) on the bursty-RMHB workloads");
        hr(64);
        println!(
            "{:<6} {:>10} {:>10} {:>10} {:>14}",
            "wl", "(n,m)", "IPC", "norm", "taglat"
        );
        hr(64);
        for name in ["libq", "gems"] {
            let base = rows
                .iter()
                .filter(|r| r.workload == name)
                .map(|r| r.ipc)
                .next()
                .unwrap_or(1.0);
            for r in rows.iter().filter(|r| r.workload == name) {
                println!(
                    "{:<6} {:>10} {:>10.3} {:>10.3} {:>14.0}",
                    r.workload,
                    format!("({},{})", r.pcshrs, r.buffers),
                    r.ipc,
                    r.ipc / base,
                    r.tag_mgmt_latency
                );
            }
        }
        hr(64);
        println!("(paper: more PCSHRs help the bursty workloads even when the");
        println!(" buffer count does not scale with them)");
    }
}

/// Fig. 16 — centralized vs distributed back-ends.
pub mod fig16 {
    use super::*;
    use nomad_sim::spec::NomadSpec;

    /// One point.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    pub struct F16Row {
        /// Back-end count (1 = centralized).
        pub backends: usize,
        /// Total PCSHRs across back-ends.
        pub total_pcshrs: usize,
        /// Average IPC over the workload set.
        pub ipc: f64,
        /// Average tag-management latency.
        pub tag_mgmt_latency: f64,
    }

    /// Sweep total PCSHRs for centralized (1 back-end) and distributed
    /// (4 back-ends) organizations over class-representative workloads.
    /// Cells are (backends, total, workload) triples; the per-point
    /// averages fold afterwards in submission order.
    pub fn run(exec: &Executor, scale: &Scale, totals: &[usize]) -> Vec<F16Row> {
        let set: Vec<WorkloadProfile> = ["cact", "libq", "mcf", "pr"]
            .into_iter()
            .map(|name| WorkloadProfile::by_name(name).expect("known"))
            .collect();
        // (back-ends, PCSHRs per back-end) for each point.
        let points: Vec<(usize, usize)> = [1usize, 4]
            .iter()
            .flat_map(|&backends| {
                totals
                    .iter()
                    .map(move |&total| (backends, (total / backends).max(1)))
            })
            .collect();
        let cells: Vec<JobSpec> = points
            .iter()
            .flat_map(|&(backends, per)| {
                let spec = SchemeSpec::NomadWith(NomadSpec {
                    pcshrs: per,
                    backends,
                    ..NomadSpec::default()
                });
                set.iter().map(move |w| scale.job(&spec, w))
            })
            .collect();
        let reports = exec.run_or_exit(scale.jobs, &cells);
        points
            .into_iter()
            .zip(reports.chunks_exact(set.len()))
            .map(|((backends, per), group)| F16Row {
                backends,
                total_pcshrs: per * backends,
                ipc: mean(group, RunReport::ipc),
                tag_mgmt_latency: mean(group, RunReport::tag_mgmt_latency),
            })
            .collect()
    }

    /// Print the comparison.
    pub fn print(rows: &[F16Row]) {
        println!("\nFig. 16: centralized (1 back-end) vs distributed (4 back-ends)");
        println!("with equal total PCSHRs");
        hr(64);
        println!(
            "{:<12} {:>12} {:>10} {:>14}",
            "organization", "total PCSHRs", "IPC", "taglat"
        );
        hr(64);
        for r in rows {
            println!(
                "{:<12} {:>12} {:>10.3} {:>14.0}",
                if r.backends == 1 {
                    "centralized"
                } else {
                    "distributed"
                },
                r.total_pcshrs,
                r.ipc,
                r.tag_mgmt_latency
            );
        }
        hr(64);
        println!("(paper: the two organizations perform similarly — FIFO frame");
        println!(" allocation spreads page copies uniformly across back-ends)");
    }
}

/// Ablations of the design decisions DESIGN.md §6 calls out:
///
/// 1. critical-data-first scheduling (P/PI in PCSHRs) on vs off;
/// 2. page-copy-buffer servicing value (buffer hits save HBM trips);
/// 3. FIFO fully-associative vs 16-way set-associative LRU DC miss
///    rates (the paper claims ~23% fewer misses for FIFO+full-assoc);
/// 4. proactive batch eviction vs reactive (threshold-1) eviction.
pub mod ablations {
    use super::*;
    use nomad_cache::CacheArray;
    use nomad_core::{NomadConfig, NomadScheme};
    use nomad_dcache::CacheFrames;
    use nomad_sim::{runner, spec::NomadSpec};
    use nomad_trace::{SyntheticTrace, TraceSource};
    use nomad_types::Pfn;

    /// One ablation: a metric with the design choice on and off.
    #[derive(Debug, Serialize)]
    pub struct Ablation {
        /// Which design choice.
        pub name: String,
        /// Workload.
        pub workload: String,
        /// The metric with the choice as designed.
        pub baseline_value: f64,
        /// The metric with the choice ablated.
        pub ablated_value: f64,
        /// What the values measure.
        pub metric: String,
    }

    /// Run every ablation, printing each as it finishes.
    pub fn run(exec: &Executor, scale: &Scale) -> Vec<Ablation> {
        let mut out = Vec::new();
        critical_data_first(exec, scale, &mut out);
        fifo_vs_lru(scale, &mut out);
        proactive_eviction(exec, scale, &mut out);
        out
    }

    /// Ablations 1 + 2: critical-data-first off (which also removes
    /// most buffer-hit servicing value for streaming workloads).
    fn critical_data_first(exec: &Executor, scale: &Scale, out: &mut Vec<Ablation>) {
        println!("\nAblation: critical-data-first scheduling (cact, libq)");
        let cells: Vec<JobSpec> = ["cact", "libq"]
            .into_iter()
            .flat_map(|name| {
                let w = WorkloadProfile::by_name(name).expect("known");
                [
                    SchemeSpec::Nomad,
                    SchemeSpec::NomadWith(NomadSpec {
                        critical_data_first: false,
                        ..NomadSpec::default()
                    }),
                ]
                .map(|spec| scale.job(&spec, &w))
            })
            .collect();
        let reports = exec.run_or_exit(scale.jobs, &cells);
        for pair in reports.chunks_exact(2) {
            let (on, off) = (&pair[0], &pair[1]);
            let name = on.workload.clone();
            println!(
                "  {name}: IPC {:.3} (CDF on) vs {:.3} (off); DC access {:.0} vs {:.0} cycles; buffer hits {:.1}% vs {:.1}%",
                on.ipc(),
                off.ipc(),
                on.dc_access_time(),
                off.dc_access_time(),
                on.buffer_hit_rate() * 100.0,
                off.buffer_hit_rate() * 100.0,
            );
            out.push(Ablation {
                name: "critical_data_first".into(),
                workload: name,
                baseline_value: on.ipc(),
                ablated_value: off.ipc(),
                metric: "ipc".into(),
            });
        }
    }

    /// Ablation 3: replacement-policy miss rates, trace-driven (no
    /// timing, so not executor cells): fully-associative FIFO pages vs
    /// a 16-way set-associative LRU page cache of equal capacity.
    fn fifo_vs_lru(scale: &Scale, out: &mut Vec<Ablation>) {
        println!("\nAblation: FIFO fully-associative vs 16-way LRU page cache (miss rates)");
        let cfg = scale.config();
        // A deliberately small page cache (1/8 of the DC) and a long
        // trace so capacity pressure, not cold misses, decides the
        // outcome.
        let frames = (cfg.dc_frames() as usize / 8).max(512);
        let names = ["cact", "mcf", "pr", "bfs"];
        let miss_rates = par::run_cells_or_exit(scale.jobs, names.to_vec(), |name, cancel| {
            let w = WorkloadProfile::by_name(name).expect("known");
            let mut trace =
                SyntheticTrace::with_scale(&w, scale.seed, cfg.pages_per_gb, cfg.l3_reach_pages());
            let mut fifo = CacheFrames::new(frames);
            let mut fifo_map = std::collections::HashMap::new();
            let mut fifo_victims = Vec::new();
            let mut lru = CacheArray::new((frames / 16).next_power_of_two(), 16);
            let (mut fifo_miss, mut lru_miss, mut total) = (0u64, 0u64, 0u64);
            for i in 0..scale.instructions * 8 {
                // The trace replay has no event loop to poll the token,
                // so check it directly every ~64k records.
                if i & 0xffff == 0 && cancel.is_cancelled() {
                    return None;
                }
                let rec = trace.next_record();
                let page = rec.vaddr.raw() >> 12;
                total += 1;
                // FIFO fully-associative (the OS-managed organization).
                if !fifo_map.contains_key(&page) {
                    fifo_miss += 1;
                    if fifo.num_free() == 0 {
                        fifo_victims.clear();
                        fifo.evict_batch_into(64, &mut fifo_victims);
                        for e in &fifo_victims {
                            fifo_map.retain(|_, v| *v != e.cfn);
                        }
                    }
                    let (cfn, _) = fifo.allocate(Pfn(page)).expect("freed above");
                    fifo_map.insert(page, cfn);
                }
                // 16-way LRU set-associative (the HW organization).
                if !lru.touch(page) {
                    lru_miss += 1;
                    lru.insert(page, false);
                }
            }
            Some((
                fifo_miss as f64 / total as f64,
                lru_miss as f64 / total as f64,
            ))
        });
        for (name, (f, l)) in names.into_iter().zip(miss_rates) {
            println!(
                "  {name}: FIFO full-assoc miss {:.3}%, 16-way LRU miss {:.3}% ({:+.1}% relative)",
                f * 100.0,
                l * 100.0,
                (f / l - 1.0) * 100.0
            );
            out.push(Ablation {
                name: "fifo_vs_lru".into(),
                workload: name.into(),
                baseline_value: f,
                ablated_value: l,
                metric: "page_miss_rate".into(),
            });
        }
        println!("  (paper: FIFO + full associativity shows ~23% fewer DC misses than");
        println!("   a 16-way set-associative LRU cache on average)");
    }

    /// Ablation 4: proactive batched eviction vs reactive eviction.
    /// The proactive cells are plain jobs on the executor; the reactive
    /// scheme needs knobs `SchemeSpec` does not expose, so each of its
    /// cells builds its own scheme in the worker and goes through
    /// `run_custom_cancellable` on the in-process pool.
    fn proactive_eviction(exec: &Executor, scale: &Scale, out: &mut Vec<Ablation>) {
        println!("\nAblation: proactive batch eviction vs reactive (threshold-1) eviction");
        let cfg = scale.config();
        let workloads: Vec<WorkloadProfile> = ["cact", "libq"]
            .into_iter()
            .map(|name| WorkloadProfile::by_name(name).expect("known"))
            .collect();
        let cells: Vec<JobSpec> = workloads
            .iter()
            .map(|w| scale.job(&SchemeSpec::Nomad, w))
            .collect();
        let proactive = exec.run_or_exit(scale.jobs, &cells);
        let reactive = par::run_cells_or_exit(scale.jobs, workloads, |w, cancel| {
            let mut reactive_cfg = NomadConfig::nomad(cfg.dc_capacity);
            reactive_cfg.eviction_threshold = 1;
            reactive_cfg.eviction_batch = 1;
            runner::run_custom_cancellable(
                &cfg,
                Box::new(NomadScheme::new(reactive_cfg)),
                w,
                scale.instructions,
                scale.warmup,
                scale.seed,
                cancel,
            )
        });
        for (pro, rea) in proactive.iter().zip(&reactive) {
            let name = pro.workload.clone();
            println!(
                "  {name}: IPC {:.3} (proactive) vs {:.3} (reactive); tag latency {:.0} vs {:.0}",
                pro.ipc(),
                rea.ipc(),
                pro.tag_mgmt_latency(),
                rea.tag_mgmt_latency(),
            );
            out.push(Ablation {
                name: "proactive_eviction".into(),
                workload: name,
                baseline_value: pro.ipc(),
                ablated_value: rea.ipc(),
                metric: "ipc".into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{service_addrs, Executor};
    use crate::Scale;
    use nomad_serve::ResultStore;
    use nomad_sim::{RunReport, SchemeSpec};
    use nomad_trace::WorkloadProfile;
    use nomad_types::CancelToken;

    /// A one-core Baseline cell short enough for a unit test.
    fn tiny_cell(w: WorkloadProfile) -> nomad_serve::JobSpec {
        let scale = Scale {
            instructions: 2_000,
            warmup: 0,
            cores: 1,
            seed: 3,
            jobs: 1,
        };
        scale.job(&SchemeSpec::Baseline, &w)
    }

    /// A planted store document is read only under resume: without it
    /// the executor runs the cell (and overwrites the document), with
    /// it the planted report comes back as is.
    #[test]
    fn only_resume_reads_a_planted_document() {
        if nomad_obs::enabled() {
            eprintln!("NOMAD_OBS turns observability on and the store off; skipping");
            return;
        }
        let dir = std::env::temp_dir().join(format!("nomad-bench-planted-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = tiny_cell(WorkloadProfile::tc());
        let real = job.run_local();
        let mut planted = real.clone();
        planted.cycles += 1;
        let store = ResultStore::new(&dir);
        let plant = || {
            store
                .put(job.content_key(), &job.canonical_json(), &planted)
                .expect("plant");
        };
        let run = |resume| {
            let exec = Executor {
                store: Some(store.clone()),
                resume,
                ..Executor::default()
            };
            let reports = exec.run(1, &CancelToken::new(), std::slice::from_ref(&job));
            reports.expect("uncancelled").remove(0).to_json()
        };
        plant();
        assert_eq!(run(false), real.to_json(), "without resume the cell runs");
        plant();
        assert_eq!(run(true), planted.to_json(), "resume reads the store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second run on one executor runs only the cells it has not
    /// returned yet: a grid it has seen comes back under an
    /// already-cancelled token, and one unseen cell in it means a run
    /// that token refuses.
    #[test]
    fn a_second_run_runs_only_unseen_cells() {
        if nomad_obs::enabled() {
            eprintln!("NOMAD_OBS turns observability on and the memo off; skipping");
            return;
        }
        let cells = [WorkloadProfile::tc(), WorkloadProfile::mcf()].map(tiny_cell);
        let json = |reports: Option<Vec<RunReport>>| {
            let reports = reports.expect("a grid it has seen needs no run");
            reports.iter().map(RunReport::to_json).collect::<Vec<_>>()
        };
        let exec = Executor::default();
        let first = exec.run(1, &CancelToken::new(), &cells[..1]);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let again = exec.run(1, &cancelled, &cells[..1]);
        assert_eq!(json(again), json(first));
        assert!(
            exec.run(1, &cancelled, &cells).is_none(),
            "the unseen cell has to run"
        );
        assert_eq!(
            exec.memo.counts(),
            (4, 2),
            "4 cells asked for, 2 sent to run"
        );
    }

    #[test]
    fn service_addrs_prefers_fleet_then_serve_then_local() {
        let addrs = |list: &[&str]| Some(list.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let serve = "127.0.0.1:7979";
        let cases = [
            // The fleet list wins when both are set.
            (
                Some("10.0.0.1:1,10.0.0.2:2"),
                Some(serve),
                addrs(&["10.0.0.1:1", "10.0.0.2:2"]),
            ),
            // NOMAD_SERVE_ADDR alone is a fleet of one.
            (None, Some(serve), addrs(&[serve])),
            // A comma list there parses like NOMAD_FLEET_ADDRS.
            (
                None,
                Some(" 10.0.0.1:1, 10.0.0.2:2 ,,\n"),
                addrs(&["10.0.0.1:1", "10.0.0.2:2"]),
            ),
            // Empty or blank values fall through, to NOMAD_SERVE_ADDR
            // and then to the in-process sweep.
            (Some(" , "), Some(serve), addrs(&[serve])),
            (Some(""), Some(" \t"), None),
            (None, None, None),
        ];
        for (fleet, serve, want) in cases {
            assert_eq!(service_addrs(fleet, serve), want, "{fleet:?}, {serve:?}");
        }
    }
}
