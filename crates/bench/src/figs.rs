//! One module per table/figure of the paper's evaluation. Each
//! exposes `run(&Scale)` returning serializable rows plus a
//! `print(&rows)` that renders the table the paper reports.

use crate::journal::run_cells_journaled_or_exit;
use crate::par;
use crate::{geomean, hr, run_cell, run_with_cfg_cell, Scale};
use nomad_sim::{RunReport, SchemeSpec};
use nomad_trace::{WorkloadClass, WorkloadProfile};
use serde::{Deserialize, Serialize};

/// A content-derived journal key for a sweep grid: everything that
/// determines the rows — the harness tag, the scale parameters, and a
/// descriptor of the grid axes (scheme labels, workload names, sweep
/// parameters) — goes in, so a changed grid never resumes from a stale
/// journal. `scale.jobs` deliberately stays out: an interrupted wide
/// sweep may resume at any width (results are width-independent).
fn grid_key(tag: &str, scale: &Scale, axes: &[String]) -> String {
    format!(
        "{tag}:i{}w{}c{}s{}:{}",
        scale.instructions,
        scale.warmup,
        scale.cores,
        scale.seed,
        axes.join(",")
    )
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

/// Run `specs × workloads` and collect rows — across `scale.jobs`
/// worker threads, with results in `workloads × specs` submission
/// order, so the output is byte-identical at every job count (the
/// `par_parity` suite holds this against the `jobs == 1` oracle).
pub fn sweep(scale: &Scale, specs: &[SchemeSpec], workloads: &[WorkloadProfile]) -> Vec<Row> {
    let cells: Vec<(WorkloadProfile, SchemeSpec)> = workloads
        .iter()
        .flat_map(|w| specs.iter().map(move |spec| (w.clone(), spec.clone())))
        .collect();
    let axes: Vec<String> = specs
        .iter()
        .map(|s| s.label().to_string())
        .chain(workloads.iter().map(|w| w.name.clone()))
        .collect();
    let key = grid_key("sweep", scale, &axes);
    let scale = *scale;
    run_cells_journaled_or_exit(scale.jobs, &key, cells, |(w, spec), cancel| {
        let r = run_cell(&scale, spec, w, cancel)?;
        let row = Row::from_report(&r, w.class.label());
        eprintln!("  [{}/{}] ipc {:.3}", w.name, spec.label(), row.ipc);
        Some(row)
    })
}

/// Like [`sweep`], but runs the grid through the fleet router
/// (`nomad_fleet::FleetClient::run_grid`) over the nomad-serve nodes at
/// `addrs`; a single server is a fleet of one. Each cell routes to its
/// consistent-hash owner, any node's cache can answer it, and dead
/// nodes fail over (past the last one the cells run in-process).
/// `scale.jobs` sets the router's worker count. Rows come back
/// byte-identical to [`sweep`] at any fleet size and width. The nodes'
/// result caches are what a rerun reuses, so this path does not
/// journal locally.
pub fn sweep_via_fleet(
    addrs: &[String],
    scale: &Scale,
    specs: &[SchemeSpec],
    workloads: &[WorkloadProfile],
) -> Vec<Row> {
    let pairs: Vec<(&WorkloadProfile, &SchemeSpec)> = workloads
        .iter()
        .flat_map(|w| specs.iter().map(move |spec| (w, spec)))
        .collect();
    let cells = pairs
        .iter()
        .map(|&(w, spec)| nomad_serve::JobSpec {
            cfg: scale.config(),
            spec: spec.clone(),
            profile: w.clone(),
            instructions: scale.instructions,
            warmup: scale.warmup,
            seed: scale.seed,
        })
        .collect();
    let fleet = nomad_fleet::FleetClient::new(addrs);
    let reports = match fleet.run_grid(cells, scale.jobs, par::sweep_token()) {
        Ok(reports) => reports,
        Err(e) if par::sweep_token().is_cancelled() => {
            eprintln!("sweep cancelled during fleet submission ({e}); discarding partial grid");
            std::process::exit(130);
        }
        Err(e) => panic!("grid submission to the fleet {addrs:?} failed: {e}"),
    };
    pairs
        .iter()
        .zip(&reports)
        .map(|(&(w, spec), r)| {
            eprintln!(
                "  [{}/{}] ipc {:.3} (via fleet)",
                w.name,
                spec.label(),
                r.ipc()
            );
            Row::from_report(r, w.class.label())
        })
        .collect()
}

/// The nodes an off-process sweep goes to, from the values of
/// `NOMAD_FLEET_ADDRS` and `NOMAD_SERVE_ADDR`: the fleet list when it
/// names any address, else `NOMAD_SERVE_ADDR` parsed the same way (one
/// address is a fleet of one), else `None` for the in-process sweep.
fn service_addrs(fleet: Option<&str>, serve: Option<&str>) -> Option<Vec<String>> {
    [fleet, serve]
        .into_iter()
        .flatten()
        .map(nomad_fleet::parse_addrs)
        .find(|addrs| !addrs.is_empty())
}

/// `sweep` locally, or via [`sweep_via_fleet`] when
/// `NOMAD_FLEET_ADDRS` (the line `nomad-fleet local N` prints) or
/// `NOMAD_SERVE_ADDR` (the line `nomad-serve` prints) names a node;
/// the fleet takes precedence.
pub fn sweep_maybe_serviced(
    scale: &Scale,
    specs: &[SchemeSpec],
    workloads: &[WorkloadProfile],
) -> Vec<Row> {
    let fleet = std::env::var("NOMAD_FLEET_ADDRS").ok();
    let serve = std::env::var("NOMAD_SERVE_ADDR").ok();
    match service_addrs(fleet.as_deref(), serve.as_deref()) {
        Some(addrs) => sweep_via_fleet(&addrs, scale, specs, workloads),
        None => sweep(scale, specs, workloads),
    }
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

    /// Measure all 15 workloads under the Ideal scheme (one parallel
    /// cell per workload).
    pub fn run(scale: &Scale) -> Vec<T1Row> {
        let cfg = scale.config();
        let workloads = WorkloadProfile::all();
        let axes: Vec<String> = workloads.iter().map(|w| w.name.clone()).collect();
        let key = grid_key("table1", scale, &axes);
        let scale = *scale;
        run_cells_journaled_or_exit(scale.jobs, &key, workloads, |w, cancel| {
            let r = run_with_cfg_cell(&cfg, &scale, &SchemeSpec::Ideal, w, cancel)?;
            eprintln!("  [{}] rmhb {:.1}", w.name, r.rmhb_gbps());
            let d = w.derive(cfg.pages_per_gb, cfg.l3_reach_pages());
            Some(T1Row {
                class: w.class.label().to_string(),
                abbr: w.name.clone(),
                workload: w.full_name.clone(),
                rmhb_gbps: r.rmhb_gbps(),
                paper_rmhb: w.rmhb_gbps,
                llc_mpms: r.llc_mpms(),
                paper_mpms: w.llc_mpms,
                footprint_mb: d.footprint_pages as f64 * 4096.0 / 1e6,
                paper_footprint_gb: w.footprint_gb,
            })
        })
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

    /// Run the six-workload comparison (one parallel cell per
    /// workload × scheme, paired back up in submission order). Each
    /// cell journals only the `[ipc, rmhb]` pair it contributes — the
    /// full `RunReport` is not serializable, and the pairing below
    /// needs nothing more.
    pub fn run(scale: &Scale) -> Vec<F2Row> {
        let set = WorkloadProfile::fig2_set();
        let cells: Vec<(WorkloadProfile, SchemeSpec)> = set
            .iter()
            .flat_map(|w| [SchemeSpec::Tdc, SchemeSpec::Tid].map(|spec| (w.clone(), spec)))
            .collect();
        let axes: Vec<String> = set.iter().map(|w| w.name.clone()).collect();
        let key = grid_key("fig02", scale, &axes);
        let scale = *scale;
        let measured: Vec<[f64; 2]> =
            run_cells_journaled_or_exit(scale.jobs, &key, cells, |(w, spec), cancel| {
                let r = run_cell(&scale, spec, w, cancel)?;
                eprintln!("  [{}/{}] ipc {:.3}", w.name, spec.label(), r.ipc());
                Some([r.ipc(), r.rmhb_gbps()])
            });
        set.iter()
            .zip(measured.chunks_exact(2))
            .map(|(w, pair)| {
                let (tdc, tid) = (&pair[0], &pair[1]);
                eprintln!("  [{}] tdc/tid {:.2}", w.name, tdc[0] / tid[0]);
                F2Row {
                    workload: w.name.clone(),
                    tdc_over_tid: tdc[0] / tid[0],
                    rmhb_gbps: tdc[1],
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

    /// Run the full cross product — in-process, or through the fleet
    /// router when `NOMAD_FLEET_ADDRS` or `NOMAD_SERVE_ADDR` is set.
    pub fn run(scale: &Scale) -> Vec<Row> {
        sweep_maybe_serviced(scale, &SchemeSpec::fig9_set(), &WorkloadProfile::all())
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
        let workloads: Vec<String> = {
            let mut seen = Vec::new();
            for r in rows {
                if !seen.contains(&r.workload) {
                    seen.push(r.workload.clone());
                }
            }
            seen
        };
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
        let ratio_over = |a: &str, b: &str| -> f64 {
            geomean(workloads.iter().filter_map(|w| {
                let x = find(w, a)?.ipc;
                let y = find(w, b)?.ipc;
                (y > 0.0).then_some(x / y)
            }))
        };
        println!(
            "Headline: NOMAD IPC vs TDC {:+.1}% (paper +16.7%), vs TiD {:+.1}% (paper +25.5%)",
            (ratio_over("NOMAD", "TDC") - 1.0) * 100.0,
            (ratio_over("NOMAD", "TiD") - 1.0) * 100.0,
        );
        let mean_buffer_hit = {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.scheme == "NOMAD" && r.buffer_hit_rate > 0.0)
                .map(|r| r.buffer_hit_rate)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        println!(
            "NOMAD data misses hitting page copy buffers: {:.1}% (paper 91.6%)",
            mean_buffer_hit * 100.0
        );
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

    /// Run the full 7-scheme cross product over every workload —
    /// in-process, or via a serve/fleet tier per the usual env vars.
    pub fn run(scale: &Scale) -> Vec<Row> {
        sweep_maybe_serviced(
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
        let workloads: Vec<String> = {
            let mut seen = Vec::new();
            for r in rows {
                if !seen.contains(&r.workload) {
                    seen.push(r.workload.clone());
                }
            }
            seen
        };
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
            let in_class: Vec<&String> = workloads
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
    pub fn run(scale: &Scale) -> Vec<Row> {
        sweep(
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
    pub fn run(scale: &Scale) -> Vec<Row> {
        sweep(
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
        let mut reductions = Vec::new();
        let tdc_rows: Vec<&Row> = rows.iter().filter(|r| r.scheme == "TDC").collect();
        for tdc in tdc_rows {
            let Some(nomad) = rows
                .iter()
                .find(|r| r.workload == tdc.workload && r.scheme == "NOMAD")
            else {
                continue;
            };
            let red = if tdc.os_stall_ratio > 0.0 {
                1.0 - nomad.os_stall_ratio / tdc.os_stall_ratio
            } else {
                0.0
            };
            reductions.push(red);
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
        let avg = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
        println!(
            "Average stall-cycle reduction: {:.1}% (paper: 76.1%)",
            avg * 100.0
        );
        println!("(paper: TDC stalls ~43% Excess / 29% Tight / 15% Loose / 4% Few;");
        println!(" NOMAD tag latency >= 400 cycles, growing with contention)");
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
    /// PCSHR count. Cells are (class, count, workload) triples run in
    /// parallel; class averages are folded afterwards in submission
    /// order, so rows are identical at every job count.
    pub fn fig12(scale: &Scale, counts: &[usize]) -> Vec<SweepRow> {
        let mut groups: Vec<(WorkloadClass, usize, usize)> = Vec::new();
        let mut cells: Vec<(usize, WorkloadProfile)> = Vec::new();
        for class in WorkloadClass::ALL {
            let ws = WorkloadProfile::of_class(class);
            for &n in counts {
                groups.push((class, n, ws.len()));
                cells.extend(ws.iter().map(|w| (n, w.clone())));
            }
        }
        let axes: Vec<String> = counts
            .iter()
            .map(|n| n.to_string())
            .chain(cells.iter().map(|(_, w)| w.name.clone()))
            .collect();
        let key = grid_key("fig12", scale, &axes);
        let scale = *scale;
        let reports: Vec<[f64; 4]> =
            run_cells_journaled_or_exit(scale.jobs, &key, cells, |(n, w), cancel| {
                let r = run_cell(&scale, &nomad_with(*n), w, cancel)?;
                eprintln!("  [{}/{n} PCSHRs] ipc {:.3}", w.name, r.ipc());
                Some([
                    r.ipc(),
                    r.ddr_total_gbps(),
                    r.os_stall_ratio(),
                    r.tag_mgmt_latency(),
                ])
            });
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let mut rows = Vec::new();
        let mut rest = reports.as_slice();
        for (class, n, len) in groups {
            let (group, tail) = rest.split_at(len);
            rest = tail;
            let ipcs: Vec<f64> = group.iter().map(|g| g[0]).collect();
            let bw: Vec<f64> = group.iter().map(|g| g[1]).collect();
            let stall: Vec<f64> = group.iter().map(|g| g[2]).collect();
            let lat: Vec<f64> = group.iter().map(|g| g[3]).collect();
            eprintln!("  [{class}/{n} PCSHRs] ipc {:.3}", avg(&ipcs));
            rows.push(SweepRow {
                workload: class.label().to_string(),
                pcshrs: n,
                cores: scale.cores,
                ipc: avg(&ipcs),
                ddr_gbps: avg(&bw),
                os_stall_ratio: avg(&stall),
                tag_mgmt_latency: avg(&lat),
            });
        }
        rows
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
    pub fn fig13(scale: &Scale, counts: &[usize], cores: &[usize]) -> Vec<SweepRow> {
        let excess = WorkloadProfile::of_class(WorkloadClass::Excess);
        let cells: Vec<(usize, usize, WorkloadProfile)> = cores
            .iter()
            .flat_map(|&c| {
                let excess = &excess;
                counts
                    .iter()
                    .flat_map(move |&n| excess.iter().map(move |w| (c, n, w.clone())))
            })
            .collect();
        let axes: Vec<String> = cores
            .iter()
            .map(|c| format!("{c}c"))
            .chain(counts.iter().map(|n| n.to_string()))
            .chain(excess.iter().map(|w| w.name.clone()))
            .collect();
        let key = grid_key("fig13", scale, &axes);
        let scale = *scale;
        let ipcs: Vec<f64> =
            run_cells_journaled_or_exit(scale.jobs, &key, cells, |(c, n, w), cancel| {
                let r = run_cell(&scale.with_cores(*c), &nomad_with(*n), w, cancel)?;
                eprintln!("  [{c} cores / {n} PCSHRs / {}] ipc {:.3}", w.name, r.ipc());
                Some(r.ipc())
            });
        let mut rows = Vec::new();
        let mut rest = ipcs.as_slice();
        for &c in cores {
            for &n in counts {
                let (group, tail) = rest.split_at(excess.len());
                rest = tail;
                let ipc = group.iter().sum::<f64>() / group.len().max(1) as f64;
                eprintln!("  [{c} cores / {n} PCSHRs] ipc {ipc:.3}");
                rows.push(SweepRow {
                    workload: "Excess".into(),
                    pcshrs: n,
                    cores: c,
                    ipc,
                    ddr_gbps: 0.0,
                    os_stall_ratio: 0.0,
                    tag_mgmt_latency: 0.0,
                });
            }
        }
        rows
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
    pub fn fig14(scale: &Scale, counts: &[usize]) -> Vec<SweepRow> {
        let cells: Vec<(WorkloadProfile, usize)> = ["cact", "libq"]
            .into_iter()
            .flat_map(|name| {
                let w = WorkloadProfile::by_name(name).expect("known");
                counts.iter().map(move |&n| (w.clone(), n))
            })
            .collect();
        let axes: Vec<String> = counts
            .iter()
            .map(|n| n.to_string())
            .chain(["cact".to_string(), "libq".to_string()])
            .collect();
        let key = grid_key("fig14", scale, &axes);
        let scale = *scale;
        run_cells_journaled_or_exit(scale.jobs, &key, cells, |(w, n), cancel| {
            let r = run_cell(&scale, &nomad_with(*n), w, cancel)?;
            eprintln!(
                "  [{}/{n}] stall {:.1}%",
                w.name,
                100.0 * r.os_stall_ratio()
            );
            Some(SweepRow {
                workload: w.name.clone(),
                pcshrs: *n,
                cores: scale.cores,
                ipc: r.ipc(),
                ddr_gbps: r.ddr_total_gbps(),
                os_stall_ratio: r.os_stall_ratio(),
                tag_mgmt_latency: r.tag_mgmt_latency(),
            })
        })
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
    pub fn run(scale: &Scale, grid: &[(usize, usize)]) -> Vec<F15Row> {
        let cells: Vec<(WorkloadProfile, usize, usize)> = ["libq", "gems"]
            .into_iter()
            .flat_map(|name| {
                let w = WorkloadProfile::by_name(name).expect("known");
                grid.iter().map(move |&(n, m)| (w.clone(), n, m))
            })
            .collect();
        let axes: Vec<String> = grid
            .iter()
            .map(|(n, m)| format!("{n}x{m}"))
            .chain(["libq".to_string(), "gems".to_string()])
            .collect();
        let key = grid_key("fig15", scale, &axes);
        let scale = *scale;
        run_cells_journaled_or_exit(scale.jobs, &key, cells, |(w, n, m), cancel| {
            let spec = SchemeSpec::NomadWith(NomadSpec {
                pcshrs: *n,
                buffers: Some(*m),
                ..NomadSpec::default()
            });
            let r = run_cell(&scale, &spec, w, cancel)?;
            eprintln!("  [{} ({n},{m})] ipc {:.3}", w.name, r.ipc());
            Some(F15Row {
                workload: w.name.clone(),
                pcshrs: *n,
                buffers: *m,
                ipc: r.ipc(),
                tag_mgmt_latency: r.tag_mgmt_latency(),
            })
        })
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
    pub fn run(scale: &Scale, totals: &[usize]) -> Vec<F16Row> {
        let set = ["cact", "libq", "mcf", "pr"];
        let points: Vec<(usize, usize)> = [1usize, 4]
            .iter()
            .flat_map(|&backends| totals.iter().map(move |&total| (backends, total)))
            .collect();
        let cells: Vec<(usize, usize, WorkloadProfile)> = points
            .iter()
            .flat_map(|&(backends, total)| {
                set.iter().map(move |name| {
                    let w = WorkloadProfile::by_name(name).expect("known");
                    (backends, total, w)
                })
            })
            .collect();
        let axes: Vec<String> = points
            .iter()
            .map(|(b, t)| format!("{b}be{t}"))
            .chain(set.iter().map(|s| s.to_string()))
            .collect();
        let key = grid_key("fig16", scale, &axes);
        let scale = *scale;
        let measured: Vec<[f64; 2]> =
            run_cells_journaled_or_exit(scale.jobs, &key, cells, |(backends, total, w), cancel| {
                let per = (total / backends).max(1);
                let spec = SchemeSpec::NomadWith(NomadSpec {
                    pcshrs: per,
                    backends: *backends,
                    ..NomadSpec::default()
                });
                let r = run_cell(&scale, &spec, w, cancel)?;
                eprintln!(
                    "  [{backends} BE x {per} PCSHRs / {}] ipc {:.3}",
                    w.name,
                    r.ipc()
                );
                Some([r.ipc(), r.tag_mgmt_latency()])
            });
        let mut rows = Vec::new();
        let mut rest = measured.as_slice();
        for (backends, total) in points {
            let (group, tail) = rest.split_at(set.len());
            rest = tail;
            let per = (total / backends).max(1);
            let ipc = group.iter().map(|g| g[0]).sum::<f64>() / group.len() as f64;
            eprintln!("  [{backends} BE x {per} PCSHRs] ipc {ipc:.3}");
            rows.push(F16Row {
                backends,
                total_pcshrs: per * backends,
                ipc,
                tag_mgmt_latency: group.iter().map(|g| g[1]).sum::<f64>() / group.len() as f64,
            });
        }
        rows
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

#[cfg(test)]
mod tests {
    use super::service_addrs;

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
