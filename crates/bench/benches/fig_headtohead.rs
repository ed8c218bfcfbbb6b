// Regenerates the seven-scheme head-to-head comparison (Baseline, TiD,
// TDRAM, Banshee, TDC, NOMAD, Ideal × all workloads) with per-class
// geomean summaries.
use nomad_bench::figs::{fig_headtohead, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("fig_headtohead: 15 workloads × 7 schemes ({:?})", scale);
    let rows = fig_headtohead::run(&Executor::from_env(), &scale);
    fig_headtohead::print(&rows);
    save_json("fig_headtohead", &rows);
}
