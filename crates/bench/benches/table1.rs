// Regenerates Table I (workload characteristics under Ideal).
use nomad_bench::figs::{table1, Executor};
use nomad_bench::{save_json, Scale};

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!("table1: 15 workloads × Ideal ({:?})", scale);
    let rows = table1::run(&Executor::from_env(), &scale);
    table1::print(&rows);
    save_json("table1", &rows);
}
