// Regenerates Fig. 12 (per-class IPC vs number of PCSHRs).
use nomad_bench::figs::{pcshr_sweeps, Executor};
use nomad_bench::{save_json, Scale};

const COUNTS: &[usize] = &[1, 2, 4, 8, 16, 32];

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!(
        "fig12: 4 classes × {} PCSHR counts ({:?})",
        COUNTS.len(),
        scale
    );
    let rows = pcshr_sweeps::fig12(&Executor::from_env(), &scale, COUNTS);
    pcshr_sweeps::print_fig12(&rows, COUNTS);
    save_json("fig12", &rows);
}
