// Regenerates Fig. 15 (area-optimized (n PCSHRs, m buffers) designs).
use nomad_bench::figs::{fig15, Executor};
use nomad_bench::{save_json, Scale};

const GRID: &[(usize, usize)] = &[(8, 8), (16, 8), (32, 8), (16, 16), (32, 16), (32, 32)];

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!(
        "fig15: 2 workloads × {} (n,m) points ({:?})",
        GRID.len(),
        scale
    );
    let rows = fig15::run(&Executor::from_env(), &scale, GRID);
    fig15::print(&rows);
    save_json("fig15", &rows);
}
