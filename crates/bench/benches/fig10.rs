// Regenerates Fig. 10 (on-package bandwidth breakdown + row hits).
use nomad_bench::figs::{fig10, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("fig10: 15 workloads × 3 schemes ({:?})", scale);
    let rows = fig10::run(&Executor::from_env(), &scale);
    fig10::print(&rows);
    save_json("fig10", &rows);
}
