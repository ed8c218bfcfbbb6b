// Ablation studies for the design decisions DESIGN.md calls out:
//
// 1. critical-data-first scheduling (P/PI in PCSHRs) on vs off;
// 2. page-copy-buffer servicing value (buffer hits save HBM trips);
// 3. FIFO fully-associative vs 16-way set-associative LRU DC miss
//    rates (the paper claims ~23% fewer misses for FIFO+full-assoc);
// 4. proactive batch eviction vs reactive (threshold-1) eviction.
use nomad_bench::figs::Executor;
use nomad_bench::{par, save_json, Scale};
use nomad_cache::CacheArray;
use nomad_core::{NomadConfig, NomadScheme};
use nomad_dcache::CacheFrames;
use nomad_sim::{runner, NomadSpec, SchemeSpec};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::Pfn;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Ablation {
    name: String,
    workload: String,
    baseline_value: f64,
    ablated_value: f64,
    metric: String,
}

/// Ablation 1 + 2: critical-data-first off (which also removes most
/// buffer-hit servicing value for streaming workloads). Cells are
/// (workload, spec) jobs run through the one grid executor and paired
/// back up in submission order.
fn ablate_cdf(scale: &Scale, out: &mut Vec<Ablation>) {
    println!("\nAblation: critical-data-first scheduling (cact, libq)");
    let cells: Vec<_> = ["cact", "libq"]
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
    let reports = Executor::from_env().run_or_exit(scale.jobs, &cells);
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

/// Ablation 3: replacement-policy miss rates, trace-driven (no timing):
/// fully-associative FIFO pages vs a 16-way set-associative LRU page
/// cache of equal capacity.
fn ablate_fifo(scale: &Scale, out: &mut Vec<Ablation>) {
    println!("\nAblation: FIFO fully-associative vs 16-way LRU page cache (miss rates)");
    let cfg = scale.config();
    // A deliberately small page cache (1/8 of the DC) and a long trace
    // so capacity pressure, not cold misses, decides the outcome.
    let frames = (cfg.dc_frames() as usize / 8).max(512);
    let scale_v = *scale;
    let cfg_v = cfg.clone();
    let names = ["cact", "mcf", "pr", "bfs"];
    let miss_rates = par::run_cells_or_exit(scale.jobs, names.to_vec(), |name, cancel| {
        let cfg = &cfg_v;
        let w = WorkloadProfile::by_name(name).expect("known");
        let mut trace =
            SyntheticTrace::with_scale(&w, scale_v.seed, cfg.pages_per_gb, cfg.l3_reach_pages());
        let mut fifo = CacheFrames::new(frames);
        let mut fifo_map = std::collections::HashMap::new();
        let mut fifo_victims = Vec::new();
        let mut lru = CacheArray::new((frames / 16).next_power_of_two(), 16);
        let (mut fifo_miss, mut lru_miss, mut total) = (0u64, 0u64, 0u64);
        for i in 0..scale_v.instructions * 8 {
            // The trace replay has no event loop to poll the token, so
            // check it directly every ~64k records.
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
fn ablate_evict(scale: &Scale, out: &mut Vec<Ablation>) {
    println!("\nAblation: proactive batch eviction vs reactive (threshold-1) eviction");
    let cfg = scale.config();
    // (workload, reactive?) cells; the reactive scheme needs knobs
    // `SchemeSpec` does not expose, so each cell builds its own scheme
    // inside the worker and goes through `run_custom_cancellable`.
    let cells: Vec<(WorkloadProfile, bool)> = ["cact", "libq"]
        .into_iter()
        .flat_map(|name| {
            let w = WorkloadProfile::by_name(name).expect("known");
            [(w.clone(), false), (w, true)]
        })
        .collect();
    let scale_v = *scale;
    let cfg_v = cfg.clone();
    let reports = par::run_cells_or_exit(scale.jobs, cells, |(w, reactive), cancel| {
        if *reactive {
            let mut reactive_cfg = NomadConfig::nomad(cfg_v.dc_capacity);
            reactive_cfg.eviction_threshold = 1;
            reactive_cfg.eviction_batch = 1;
            runner::run_custom_cancellable(
                &cfg_v,
                Box::new(NomadScheme::new(reactive_cfg)),
                w,
                scale_v.instructions,
                scale_v.warmup,
                scale_v.seed,
                cancel,
            )
        } else {
            scale_v
                .job(&SchemeSpec::Nomad, w)
                .run_local_cancellable(cancel)
        }
    });
    for pair in reports.chunks_exact(2) {
        let (pro, rea) = (&pair[0], &pair[1]);
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

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("ablations ({scale:?})");
    let mut out = Vec::new();
    ablate_cdf(&scale, &mut out);
    ablate_fifo(&scale, &mut out);
    ablate_evict(&scale, &mut out);
    save_json("ablations", &out);
}
