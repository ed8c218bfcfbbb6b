// Regenerates Fig. 9 (IPC + DC access time, all schemes × workloads)
// and the paper's §IV-B.5 headline numbers.
use nomad_bench::figs::{fig09, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("fig09: 15 workloads × 5 schemes ({:?})", scale);
    let rows = fig09::run(&Executor::from_env(), &scale);
    fig09::print(&rows);
    save_json("fig09", &rows);
}
