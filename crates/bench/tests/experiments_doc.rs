//! EXPERIMENTS.md's evaluation must trace to the committed artifacts:
//! every row of `results/fig09.json`, `fig10.json` and `fig11.json`
//! equals the `fig_headtohead.json` row of the same (workload, scheme),
//! and the headline table's measured column is what `fig09.json` and
//! `fig11.json` give, computed as `figures fig09` / `fig11` print it.

use nomad_bench::figs::{fig09, fig11, Row};

fn read(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn rows(name: &str) -> Vec<Row> {
    serde_json::from_str(&read(&format!("results/{name}.json"))).expect("rows parse")
}

#[test]
fn fig09_10_11_rows_are_headtohead_rows() {
    let json = |r: &Row| serde_json::to_string(r).expect("row serializes");
    let headtohead: Vec<String> = rows("fig_headtohead").iter().map(json).collect();
    for name in ["fig09", "fig10", "fig11"] {
        let rows = rows(name);
        let differ: Vec<String> = rows
            .iter()
            .filter(|r| !headtohead.contains(&json(r)))
            .map(|r| format!("{}/{}", r.workload, r.scheme))
            .collect();
        assert!(
            !rows.is_empty() && differ.is_empty(),
            "{} of {} rows of results/{name}.json differ from fig_headtohead.json \
             (regenerate with `figures all`): {differ:?}",
            differ.len(),
            rows.len()
        );
    }
}

#[test]
fn headline_table_matches_the_committed_artifacts() {
    let doc = read("EXPERIMENTS.md");
    let (f9, f11) = (rows("fig09"), rows("fig11"));
    let gain = |base| {
        format!(
            "{:+.1}%",
            (fig09::ipc_gain(&f9, "NOMAD", base) - 1.0) * 100.0
        )
    };
    let taglat = f9
        .iter()
        .filter(|r| r.scheme == "NOMAD")
        .map(|r| r.tag_mgmt_latency);
    let lo = taglat.clone().fold(f64::INFINITY, f64::min);
    let hi = taglat.fold(0.0, f64::max);
    let want = [
        ("NOMAD IPC vs TDC", gain("TDC")),
        ("NOMAD IPC vs TiD", gain("TiD")),
        (
            "Application stall-cycle reduction",
            format!("−{:.1}%", fig11::stall_reduction_mean(&f11) * 100.0),
        ),
        (
            "Data misses hitting page copy buffers",
            format!("{:.1}%", fig09::buffer_hit_mean(&f9) * 100.0),
        ),
        ("NOMAD tag-management latency", format!("{lo:.0}–{hi:.0}")),
    ];
    for (claim, want) in want {
        // `| claim | paper | measured |`, the measured value in bold.
        let row = doc.lines().find(|l| l.starts_with(&format!("| {claim}")));
        let measured = row.and_then(|l| l.split('|').nth(3)?.split("**").nth(1));
        assert_eq!(
            measured,
            Some(want.as_str()),
            "EXPERIMENTS.md headline {claim:?} vs results/fig09.json and fig11.json"
        );
    }
}
