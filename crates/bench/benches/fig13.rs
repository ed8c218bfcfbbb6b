// Regenerates Fig. 13 (Excess-class IPC vs PCSHRs for 2/4/8 cores).
use nomad_bench::figs::{pcshr_sweeps, Executor};
use nomad_bench::{save_json, Scale};

const COUNTS: &[usize] = &[2, 4, 8, 16, 32];
const CORES: &[usize] = &[2, 4, 8];

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!(
        "fig13: {} core counts × {} PCSHR counts ({:?})",
        CORES.len(),
        COUNTS.len(),
        scale
    );
    let rows = pcshr_sweeps::fig13(&Executor::from_env(), &scale, COUNTS, CORES);
    pcshr_sweeps::print_fig13(&rows, COUNTS, CORES);
    save_json("fig13", &rows);
}
