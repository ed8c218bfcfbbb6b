// Regenerates Fig. 14 (cact vs libq stall/tag latency vs PCSHRs).
use nomad_bench::figs::{pcshr_sweeps, Executor};
use nomad_bench::{save_json, Scale};

const COUNTS: &[usize] = &[4, 8, 16, 32];

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!(
        "fig14: 2 workloads × {} PCSHR counts ({:?})",
        COUNTS.len(),
        scale
    );
    let rows = pcshr_sweeps::fig14(&Executor::from_env(), &scale, COUNTS);
    pcshr_sweeps::print_fig14(&rows, COUNTS);
    save_json("fig14", &rows);
}
