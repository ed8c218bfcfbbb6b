// Regenerates Fig. 16 (centralized vs distributed back-ends).
use nomad_bench::figs::{fig16, Executor};
use nomad_bench::{save_json, Scale};

const TOTALS: &[usize] = &[4, 8, 16, 32];

fn main() {
    nomad_bench::harness_init();
    let scale = Scale::from_env();
    eprintln!(
        "fig16: 2 organizations × {} PCSHR totals ({:?})",
        TOTALS.len(),
        scale
    );
    let rows = fig16::run(&Executor::from_env(), &scale, TOTALS);
    fig16::print(&rows);
    save_json("fig16", &rows);
}
