// Regenerates Fig. 2 (TDC vs TiD on high-MPMS workloads).
use nomad_bench::figs::{fig02, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("fig02: 6 workloads × 2 schemes ({:?})", scale);
    let rows = fig02::run(&Executor::from_env(), &scale);
    fig02::print(&rows);
    save_json("fig02", &rows);
}
