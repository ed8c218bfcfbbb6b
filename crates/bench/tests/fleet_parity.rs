//! The house oracle at fleet scale: a figure grid produces
//! byte-identical rows whether it runs in-process, through one
//! nomad-serve node, or sharded across a fleet of 1, 2 or 4 nodes —
//! at any client-side `jobs` width.
//!
//! The fleet sizes share one pool of four running nodes (size 1 uses
//! the first, size 2 the first two, …), so later runs also exercise
//! the shared cache tier: node 0 computed everything during the
//! size-1 run, and when a size-2/size-4 grid's workers start cells at
//! the other nodes (worker `t` starts at node `t`), those cells are
//! fetched from node 0's cache instead of recomputed — observable as
//! `fleet.remote_fetches`.
//!
//! Every harness goes through the same executor, so a figure whose
//! rows are folded from several cells (Fig. 14 here) holds the same
//! bar through a 2-node fleet.
//!
//! Both tests read the process-global `fleet.*` counters, so they run
//! one at a time.

use nomad_bench::figs::{pcshr_sweeps, sweep, Executor, Row};
use nomad_bench::Scale;
use nomad_serve::{serve, ServerConfig, ServerHandle};
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use std::sync::Mutex;

static COUNTERS: Mutex<()> = Mutex::new(());

/// `n` live nodes with two workers each, plus their addresses.
fn nodes(n: usize) -> (Vec<ServerHandle>, Vec<String>) {
    let handles: Vec<ServerHandle> = (0..n)
        .map(|_| {
            serve(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..ServerConfig::default()
            })
            .expect("bind")
        })
        .collect();
    let addrs = handles.iter().map(|h| h.local_addr().to_string()).collect();
    (handles, addrs)
}

/// The executor that runs every cell through the fleet over `addrs`.
fn via_fleet(addrs: &[String]) -> Executor {
    Executor {
        fleet: Some(addrs.to_vec()),
        ..Executor::default()
    }
}

/// One executor keeps one fleet client: over a dead node, two grids
/// declare it dead once between them (`fleet.failovers`), and both
/// grids' rows equal the in-process ones.
#[test]
fn one_executor_declares_a_dead_node_dead_once() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("NOMAD_SERVE_RECONNECTS", "1");
    let scale = Scale {
        instructions: 3_000,
        warmup: 500,
        cores: 2,
        seed: 5,
        jobs: 2,
    };
    let specs = [SchemeSpec::Baseline, SchemeSpec::Nomad];
    let dead = via_fleet(&["127.0.0.1:1".to_string()]);
    let failovers = || nomad_obs::fleet().value("fleet.failovers").expect("metric");
    let before = failovers();
    for workloads in [[WorkloadProfile::tc()], [WorkloadProfile::mcf()]] {
        let local = sweep(&Executor::default(), &scale, &specs, &workloads);
        let rows = sweep(&dead, &scale, &specs, &workloads);
        assert_rows_identical(&local, &rows, "grid over a dead node");
    }
    std::env::remove_var("NOMAD_SERVE_RECONNECTS");
    assert_eq!(
        failovers() - before,
        1,
        "the dead node is declared dead once"
    );
}

fn assert_rows_identical(oracle: &[Row], got: &[Row], what: &str) {
    assert_eq!(oracle.len(), got.len(), "{what}: row count");
    for (l, s) in oracle.iter().zip(got) {
        assert_eq!(
            serde_json::to_string(l).expect("row json"),
            serde_json::to_string(s).expect("row json"),
            "{what}: rows must match bit-for-bit"
        );
    }
}

#[test]
fn fleet_rows_match_local_at_every_size_and_width() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale {
        instructions: 6_000,
        warmup: 500,
        cores: 2,
        seed: 17,
        jobs: 2,
    };
    let specs = [
        SchemeSpec::Baseline,
        SchemeSpec::Tdram,
        SchemeSpec::Banshee,
        SchemeSpec::Nomad,
    ];
    let workloads = [WorkloadProfile::tc(), WorkloadProfile::libq()];

    let oracle = sweep(&Executor::default(), &scale, &specs, &workloads);

    let (handles, addrs) = nodes(4);

    let fleet = nomad_obs::fleet();
    let routed_before = fleet.value("fleet.cells_routed").expect("metric");
    let fetches_before = fleet.value("fleet.remote_fetches").expect("metric");

    let mut grids = 0u64;
    for size in [1usize, 2, 4] {
        for jobs in [1usize, 4] {
            let scale = Scale { jobs, ..scale };
            let rows = sweep(&via_fleet(&addrs[..size]), &scale, &specs, &workloads);
            assert_rows_identical(&oracle, &rows, &format!("fleet size {size}, jobs {jobs}"));
            grids += 1;
        }
    }

    let routed = fleet.value("fleet.cells_routed").expect("metric") - routed_before;
    assert_eq!(
        routed,
        grids * oracle.len() as u64,
        "every cell of every grid goes through the router"
    );
    // Node 0 computed the whole grid during the size-1 runs; in the
    // larger fleets at jobs 4, workers 1–3 start their cells at other
    // nodes, which fetch the finished reports from node 0's cache
    // instead of recomputing.
    let fetches = fleet.value("fleet.remote_fetches").expect("metric") - fetches_before;
    assert!(fetches > 0, "larger fleets must hit the shared cache tier");

    for handle in handles {
        handle.shutdown();
    }
}

/// Fig. 14 at one PCSHR count — rows built per report rather than by
/// `sweep` — is byte-identical in-process and through a 2-node fleet,
/// and every cell of it is routed.
#[test]
fn fig14_rows_match_local_through_a_fleet() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let scale = Scale {
        instructions: 6_000,
        warmup: 500,
        cores: 2,
        seed: 17,
        jobs: 2,
    };
    let json = |rows: &[pcshr_sweeps::SweepRow]| serde_json::to_string(rows).expect("rows json");
    let oracle = pcshr_sweeps::fig14(&Executor::default(), &scale, &[8]);
    assert_eq!(oracle.len(), 2, "cact and libq");

    let (handles, addrs) = nodes(2);
    let routed_before = nomad_obs::fleet()
        .value("fleet.cells_routed")
        .expect("metric");
    let rows = pcshr_sweeps::fig14(&via_fleet(&addrs), &scale, &[8]);
    let routed = nomad_obs::fleet()
        .value("fleet.cells_routed")
        .expect("metric")
        - routed_before;
    for handle in handles {
        handle.shutdown();
    }
    assert_eq!(routed, 2, "both cells go through the router");
    assert_eq!(json(&rows), json(&oracle), "rows must match bit-for-bit");
}
