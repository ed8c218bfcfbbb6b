// Regenerates Fig. 11 (stall-cycle ratios + tag-management latency).
use nomad_bench::figs::{fig11, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("fig11: 15 workloads × 2 schemes ({:?})", scale);
    let rows = fig11::run(&Executor::from_env(), &scale);
    fig11::print(&rows);
    save_json("fig11", &rows);
}
