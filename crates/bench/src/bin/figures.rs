//! Regenerates the paper's evaluation in one process:
//! `cargo run --release -p nomad-bench --bin figures -- <name…|all>`.
//! Names are those of [`FIGURES`]; `all` runs every one, in order. One
//! [`Executor`] runs them all and remembers every report it returns, so
//! a cell several figures share runs once; stderr ends with how many
//! cells were asked for and how many ran.

use nomad_bench::figs::{Executor, FIGURES};

fn main() {
    nomad_bench::harness_init();
    let mut picked = Vec::new();
    for name in std::env::args().skip(1).filter(|a| !a.starts_with("--")) {
        match FIGURES.iter().find(|(n, _)| *n == name) {
            _ if name == "all" => picked.extend(FIGURES),
            Some(figure) => picked.push(*figure),
            None => usage(&format!("unknown figure {name:?}")),
        }
    }
    if picked.is_empty() {
        usage("no figure named");
    }
    let scale = nomad_bench::Scale::from_env();
    let exec = Executor::from_env();
    eprintln!("figures ({scale:?})");
    for (name, figure) in picked {
        eprintln!("[{name}]");
        figure(&exec, &scale);
    }
    let (requested, ran) = exec.memo.counts();
    eprintln!("[figures: {requested} cells requested, {ran} run]");
}

fn usage(why: &str) -> ! {
    let names = FIGURES.map(|(name, _)| name).join(" ");
    eprintln!("figures: {why}; usage: figures <name…|all>, names: {names}");
    std::process::exit(2);
}
