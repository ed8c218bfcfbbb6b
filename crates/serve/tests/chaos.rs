//! Chaos suite: seeded fault injection against live servers, holding
//! one acceptance bar — under a fixed `NOMAD_FAULTS` seed the sweep
//! either fails identically or **recovers to byte-identical
//! results**, and with no plan installed nothing is ever injected.
//! Every grid runs through the fleet router; a single server is a
//! fleet of one.
//!
//! Fault plans are process-global (`nomad_faults::install`), so every
//! test runs under one mutex and clears the plan before returning.

use nomad_fleet::{FleetClient, FleetConfig};
use nomad_serve::proto::JobSpec;
use nomad_serve::{serve, ClientConfig, ServerConfig};
use nomad_sim::{RunReport, SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Install `plan`, run `f`, and always clear the plan afterwards —
/// even when `f` panics, so one failing test cannot leak chaos into
/// the next.
fn with_plan<Ret>(plan: Option<&str>, f: impl FnOnce() -> Ret) -> Ret {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nomad_faults::install(plan.map(|s| nomad_faults::FaultPlan::parse(s).expect("valid plan")));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    nomad_faults::install(None);
    match out {
        Ok(ret) => ret,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    cfg
}

fn grid(seeds: &[u64]) -> Vec<JobSpec> {
    seeds
        .iter()
        .map(|&seed| JobSpec {
            cfg: small_cfg(),
            spec: SchemeSpec::Nomad,
            profile: WorkloadProfile::tc(),
            instructions: 6_000,
            warmup: 1_000,
            seed,
        })
        .collect()
}

/// The in-process oracle: what every recovered run must match
/// byte-for-byte.
fn expected_jsons(cells: &[JobSpec]) -> Vec<String> {
    cells.iter().map(|c| c.run_local().to_json()).collect()
}

fn jsons(reports: &[RunReport]) -> Vec<String> {
    reports.iter().map(RunReport::to_json).collect()
}

fn test_server(cache_dir: Option<std::path::PathBuf>) -> nomad_serve::ServerHandle {
    test_server_with(2, cache_dir)
}

fn test_server_with(
    workers: usize,
    cache_dir: Option<std::path::PathBuf>,
) -> nomad_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 32,
        job_timeout: Duration::from_secs(60),
        retry_budget: 2,
        cache_dir,
        overload: Default::default(),
    })
    .expect("bind ephemeral port")
}

/// Fast recovery budgets so injected failures cost milliseconds, not
/// the production backoff schedule.
fn fast_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_millis(10_000)),
        reconnect_attempts: 16,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
    }
}

/// A fleet of one over `addr` with `client` as its per-node ladder
/// budgets: how every single-server sweep runs.
fn fleet_of_one(addr: String, client: ClientConfig) -> FleetClient {
    FleetClient::with_config(
        &[addr],
        FleetConfig {
            client,
            ..FleetConfig::default()
        },
    )
}

/// A scratch directory under the system temp dir, unique per call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nomad-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn no_plan_injects_nothing() {
    with_plan(None, || {
        let cells = grid(&[1, 2]);
        let expected = expected_jsons(&cells);
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let before = nomad_faults::injected_total();
        let reports = fleet_of_one(addr, fast_cfg())
            .run_grid(cells, 2, &CancelToken::new())
            .expect("clean grid");
        handle.shutdown();
        assert_eq!(nomad_faults::injected_total(), before, "no injections");
        assert_eq!(jsons(&reports), expected);
    });
}

/// Mid-frame connection drops on both protocol directions: the
/// router's ladder reconnects and resubmits (idempotent,
/// content-addressed), and the grid completes byte-identical to the
/// in-process oracle — at one and at four router workers.
#[test]
fn mid_frame_drops_recover_byte_identical() {
    let cells = grid(&[10, 11, 12, 13]);
    let expected = expected_jsons(&cells);
    for jobs in [1usize, 4] {
        let got = with_plan(
            Some("42:serve.proto.write_frame=torn@0.2,serve.proto.read_frame=io@0.1"),
            || {
                let handle = test_server(None);
                let addr = handle.local_addr().to_string();
                let reports = fleet_of_one(addr, fast_cfg())
                    .run_grid(cells.clone(), jobs, &CancelToken::new())
                    .expect("grid recovers");
                handle.shutdown();
                jsons(&reports)
            },
        );
        assert_eq!(got, expected, "jobs={jobs} must recover byte-identical");
        assert!(
            nomad_faults::injected_total() > 0,
            "the plan must actually have fired"
        );
    }
}

/// Worker attempts that always panic exhaust the server's retry budget
/// and come back `Failed`; the router's one local retry still delivers
/// the correct rows.
#[test]
fn worker_panics_past_budget_fall_back_locally() {
    with_plan(Some("7:serve.worker.execute=panic"), || {
        let cells = grid(&[20, 21]);
        let expected = expected_jsons(&cells);
        let before = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = fleet_of_one(addr, fast_cfg())
            .run_grid(cells, 2, &CancelToken::new())
            .expect("local fallback saves the grid");
        handle.shutdown();
        assert_eq!(jsons(&reports), expected);
        let after = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        assert!(after >= before + 2, "both cells ran locally");
    });
}

/// A crash mid-spill leaves a torn `.json` in the cache directory; the
/// next server start must skip it (not crash, not serve garbage) and
/// re-run the job on resubmission.
#[test]
fn torn_cache_spill_is_skipped_on_reload() {
    if nomad_obs::enabled() {
        eprintln!("NOMAD_OBS turns observability on and the store off; skipping");
        return;
    }
    let dir = scratch_dir("torn-spill");
    let cells = grid(&[30]);
    let expected = expected_jsons(&cells);
    let job = cells[0].clone();

    with_plan(Some("9:serve.cache.spill=torn"), || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { report, .. } => {
                assert_eq!(report.to_json(), expected[0]);
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    // The spill was torn: whatever is on disk must not round-trip.
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(!spilled.is_empty(), "torn spill still writes a file");

    with_plan(None, || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { cached, report } => {
                assert!(!cached, "torn entry must not be reloaded as a hit");
                assert_eq!(report.to_json(), expected[0], "re-run is byte-identical");
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected reload failures make a *good* spill file invisible; the
/// server starts clean and still answers correctly.
#[test]
fn injected_reload_failure_degrades_to_rerun() {
    let dir = scratch_dir("reload");
    let cells = grid(&[40]);
    let expected = expected_jsons(&cells);
    let job = cells[0].clone();

    with_plan(None, || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        client.submit(&job).expect("seed the spill");
        handle.shutdown();
    });

    with_plan(Some("5:serve.cache.reload=io"), || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { cached, report } => {
                assert!(!cached, "reload was skipped, so this is a fresh run");
                assert_eq!(report.to_json(), expected[0]);
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nothing listening at the address: the ladder pays one reconnect
/// budget, declares the only node dead, and every cell still comes
/// back byte-identical from local execution.
#[test]
fn dead_server_degrades_to_local_execution() {
    with_plan(None, || {
        // Bind-then-drop guarantees the port is currently closed.
        let dead_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let cells = grid(&[50, 51, 52]);
        let expected = expected_jsons(&cells);
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(100),
            reconnect_attempts: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let reports = fleet_of_one(dead_addr, cfg)
            .run_grid(cells, 2, &CancelToken::new())
            .expect("degraded grid still completes");
        assert_eq!(jsons(&reports), expected);
        let fallbacks = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        assert!(fallbacks >= 3, "all three cells fell back locally");
    });
}

// ---------------------------------------------------------------------------
// Fleet chaos matrix: the same oracle — byte-identical recovery under a
// seeded plan — with the grid sharded across several nodes by the
// nomad-fleet router.
// ---------------------------------------------------------------------------

/// A pool of live test nodes plus their addresses.
fn test_fleet(n: usize) -> (Vec<nomad_serve::ServerHandle>, Vec<String>) {
    let handles: Vec<_> = (0..n).map(|_| test_server(None)).collect();
    let addrs = handles.iter().map(|h| h.local_addr().to_string()).collect();
    (handles, addrs)
}

/// Fast fleet budgets: the chaos ladder from [`fast_cfg`] per node,
/// plus a tight heartbeat so failover detection costs milliseconds.
fn fast_fleet_cfg() -> FleetConfig {
    FleetConfig {
        client: fast_cfg(),
        heartbeat_interval: Duration::from_millis(5),
        heartbeat_misses: 1,
        ..FleetConfig::default()
    }
}

fn fleet_metric(name: &str) -> u64 {
    nomad_obs::fleet()
        .value(name)
        .expect("fleet metric registered")
}

/// The ring owner of each cell under an all-alive fleet of `n` nodes —
/// placement is a pure function of stable slot labels, so tests can
/// assert which node owns what before ever starting a server.
fn owners(cells: &[JobSpec], n: usize) -> Vec<usize> {
    let slots: Vec<usize> = (0..n).collect();
    let ring = nomad_fleet::HashRing::new(&slots, FleetConfig::default().vnodes);
    cells
        .iter()
        .map(|c| ring.route(c.content_key()).expect("route"))
        .collect()
}

/// Run `cells` through `fleet` on a detached thread and wait at most
/// `limit` for the rows, so a deadlocked router fails the test instead
/// of hanging the suite.
fn run_grid_within(
    fleet: FleetClient,
    cells: Vec<JobSpec>,
    jobs: usize,
    limit: Duration,
) -> Vec<String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let grid = std::thread::spawn(move || {
        let _ = tx.send(fleet.run_grid(cells, jobs, &CancelToken::new()));
    });
    match rx.recv_timeout(limit) {
        Ok(reports) => {
            grid.join().expect("the grid thread exits after sending");
            jsons(&reports.expect("grid completes"))
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(grid.join().expect_err("the grid thread panicked"))
        }
        // Leave the hung thread detached: joining it would hang too.
        Err(RecvTimeoutError::Timeout) => panic!("the grid did not finish within {limit:?}"),
    }
}

/// A node dead before the sweep even starts: the router's per-node
/// ladder declares it dead, its arc reassigns to the survivors, and
/// the grid completes byte-identical — with the failover observable.
#[test]
fn fleet_dead_node_arc_reassigned() {
    with_plan(None, || {
        let cells = grid(&[60, 100, 110, 130, 150, 40]);
        let expected = expected_jsons(&cells);
        // Deterministic placement guard: the node we kill must own at
        // least one cell, or the test would prove nothing.
        assert!(
            owners(&cells, 3).contains(&1),
            "seed choice: node 1 must own part of this grid"
        );
        let (mut handles, addrs) = test_fleet(3);
        handles.remove(1).shutdown();
        let failovers_before = fleet_metric("fleet.failovers");
        let cfg = FleetConfig {
            client: ClientConfig {
                reconnect_attempts: 2,
                ..fast_cfg()
            },
            ..fast_fleet_cfg()
        };
        let reports = FleetClient::with_config(&addrs, cfg)
            .run_grid(cells, 3, &CancelToken::new())
            .expect("failover saves the grid");
        assert_eq!(jsons(&reports), expected, "failover must be byte-identical");
        assert!(
            fleet_metric("fleet.failovers") > failovers_before,
            "the dead node's arc was reassigned exactly through mark_dead"
        );
        for h in handles {
            h.shutdown();
        }
    });
}

/// A node killed *mid-sweep* (after it completed at least one job):
/// heartbeats and the ladder race to declare it dead, its remaining
/// cells re-route, and the rows still come back byte-identical.
#[test]
fn fleet_mid_sweep_node_kill_fails_over() {
    with_plan(None, || {
        let cells = grid(&[70, 100, 110, 130, 150, 90, 20, 160]);
        let expected = expected_jsons(&cells);
        assert!(
            owners(&cells, 3).iter().filter(|&&o| o == 1).count() >= 2,
            "seed choice: node 1 must own at least two cells so some are \
             still pending when it dies"
        );
        let (mut handles, addrs) = test_fleet(3);
        let failovers_before = fleet_metric("fleet.failovers");
        let victim = handles.remove(1);
        let victim_stats = victim.stats();
        std::thread::scope(|scope| {
            // Killer: wait for the victim to finish one job, then pull
            // the plug under the rest of the sweep (bounded wait, so a
            // starved victim cannot deadlock the test).
            scope.spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while victim_stats.completed.get() == 0 && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                victim.shutdown();
            });
            let reports = FleetClient::with_config(&addrs, fast_fleet_cfg())
                .run_grid(cells, 2, &CancelToken::new())
                .expect("mid-sweep failover saves the grid");
            assert_eq!(
                jsons(&reports),
                expected,
                "mid-sweep failover must be byte-identical"
            );
        });
        assert!(
            fleet_metric("fleet.failovers") > failovers_before,
            "killing a node mid-sweep must register a failover"
        );
        for h in handles {
            h.shutdown();
        }
    });
}

/// Torn/failing protocol frames under a two-node fleet: probes error
/// out (treated as cache misses, never as node deaths), submissions
/// ride the reconnect ladder, and the grid recovers byte-identical.
#[test]
fn fleet_torn_probe_frames_recover_byte_identical() {
    let cells = grid(&[80, 81, 50, 51]);
    let expected = expected_jsons(&cells);
    let got = with_plan(
        Some("21:serve.proto.write_frame=torn@0.15,serve.proto.read_frame=io@0.1"),
        || {
            let (handles, addrs) = test_fleet(2);
            let cfg = FleetConfig {
                // Keep the heartbeat out of the torn-frame blast radius:
                // this test is about probe/submit recovery, not spurious
                // heartbeat deaths (those are fine, just a different test).
                heartbeat_interval: Duration::from_millis(200),
                heartbeat_misses: 8,
                client: fast_cfg(),
                ..FleetConfig::default()
            };
            let reports = FleetClient::with_config(&addrs, cfg)
                .run_grid(cells, 2, &CancelToken::new())
                .expect("torn frames recover");
            for h in handles {
                h.shutdown();
            }
            jsons(&reports)
        },
    );
    assert_eq!(
        got, expected,
        "torn fleet frames must recover byte-identical"
    );
    assert!(
        nomad_faults::injected_total() > 0,
        "the plan must have fired"
    );
}

/// Faults at the fleet's own sites — corrupted routing decisions and
/// abandoned steal attempts — are harmless by construction (jobs are
/// content-addressed; any node computes the same bytes), and the rows
/// prove it.
#[test]
fn fleet_route_and_steal_faults_stay_byte_identical() {
    let cells = grid(&[90, 91, 100, 101, 160, 161]);
    let expected = expected_jsons(&cells);
    let got = with_plan(Some("33:fleet.route=io@0.5,fleet.steal=io@0.5"), || {
        let (handles, addrs) = test_fleet(3);
        let reports = FleetClient::with_config(&addrs, fast_fleet_cfg())
            .run_grid(cells, 4, &CancelToken::new())
            .expect("fleet-site faults are harmless");
        for h in handles {
            h.shutdown();
        }
        jsons(&reports)
    });
    assert_eq!(got, expected, "fleet-site faults must not change the rows");
    assert!(
        nomad_faults::injected_total() > 0,
        "the plan must have fired"
    );
}

/// Router workers that share a home node run their cells at the same
/// time: a worker must not hold its home queue's lock while its cell
/// runs remotely. Eight cells, each pinned 500 ms inside a server
/// worker, finish in about one delay on eight router workers — not in
/// eight delays back to back (4 s) — at one node and at two. The limit
/// sits halfway, with room for the cells' own compute in debug builds.
#[test]
fn fleet_workers_sharing_a_node_run_concurrently() {
    let cells = grid(&[300, 301, 302, 303, 304, 305, 306, 307]);
    let expected = expected_jsons(&cells);
    for size in [1usize, 2] {
        let (got, elapsed) = with_plan(Some("23:serve.worker.execute=delay:500"), || {
            let handles: Vec<_> = (0..size).map(|_| test_server_with(8, None)).collect();
            let addrs: Vec<String> = handles.iter().map(|h| h.local_addr().to_string()).collect();
            let cfg = FleetConfig {
                client: fast_cfg(),
                ..FleetConfig::default()
            };
            let start = Instant::now();
            let got = run_grid_within(
                FleetClient::with_config(&addrs, cfg),
                cells.clone(),
                8,
                Duration::from_secs(30),
            );
            let elapsed = start.elapsed();
            for h in handles {
                h.shutdown();
            }
            (got, elapsed)
        });
        assert_eq!(got, expected, "size {size}: rows must be byte-identical");
        assert!(
            elapsed < Duration::from_millis(2_000),
            "size {size}: 8 cells of 500 ms on 8 workers took {elapsed:?}"
        );
    }
}

/// The per-node ladder declares a worker's home node dead before any
/// heartbeat notices (a 30 s cadence here, and a fleet of one has no
/// heartbeat at all). Failover then locks that node's queue to re-route
/// its cells, which must not be the lock the worker took to pop the
/// cell it is running — or the grid deadlocks.
#[test]
fn fleet_ladder_kills_home_node_without_hanging() {
    with_plan(None, || {
        let cells = grid(&[60, 100, 110, 130, 150, 40]);
        let expected = expected_jsons(&cells);
        assert!(
            owners(&cells, 2).iter().filter(|&&o| o == 1).count() >= 2,
            "seed choice: node 1 must own at least two cells"
        );
        let (mut handles, addrs) = test_fleet(2);
        handles.remove(1).shutdown();
        let failovers_before = fleet_metric("fleet.failovers");
        let cfg = FleetConfig {
            client: ClientConfig {
                connect_timeout: Duration::from_millis(100),
                reconnect_attempts: 1,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(5),
                ..ClientConfig::default()
            },
            heartbeat_interval: Duration::from_secs(30),
            ..FleetConfig::default()
        };
        let got = run_grid_within(
            FleetClient::with_config(&addrs, cfg),
            cells,
            2,
            Duration::from_secs(20),
        );
        assert_eq!(got, expected, "failover must be byte-identical");
        assert!(
            fleet_metric("fleet.failovers") > failovers_before,
            "the ladder declared node 1 dead"
        );
        for h in handles {
            h.shutdown();
        }
    });
}

// ---------------------------------------------------------------------------
// Overload chaos: the `serve.admit` and `fleet.breaker` fault sites —
// forced rejections and forced breaker failures must degrade goodput
// gracefully, never correctness.
// ---------------------------------------------------------------------------

/// Injected admission rejections (`serve.admit=io`) force `Overloaded`
/// answers as if the server were saturated; the ladder's backpressure
/// retries heal them (past its retry budget a fleet of one computes the
/// cell locally), the grid recovers byte-identical, and every forced
/// rejection is witnessed by `overload.admit_shed`.
#[test]
fn overload_injected_admit_rejections_heal_byte_identical() {
    let cells = grid(&[200, 201, 202]);
    let expected = expected_jsons(&cells);
    let (got, shed_delta) = with_plan(Some("13:serve.admit=io@0.5"), || {
        let before = nomad_obs::overload()
            .value("overload.admit_shed")
            .expect("counter registered");
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = fleet_of_one(addr, fast_cfg())
            .run_grid(cells, 2, &CancelToken::new())
            .expect("backpressure retries heal the grid");
        handle.shutdown();
        let after = nomad_obs::overload()
            .value("overload.admit_shed")
            .expect("counter registered");
        (jsons(&reports), after - before)
    });
    assert_eq!(got, expected, "forced rejections must heal byte-identical");
    assert!(shed_delta > 0, "the plan must actually have rejected work");
}

/// Admission panics (`serve.admit=panic`) kill the connection handler
/// mid-admission; the router sees a dropped connection, rides its
/// reconnect ladder, and the grid still recovers byte-identical.
#[test]
fn overload_admit_panics_heal_byte_identical() {
    let cells = grid(&[210, 211, 212]);
    let expected = expected_jsons(&cells);
    let (got, injected) = with_plan(Some("17:serve.admit=panic@0.6"), || {
        let before = nomad_faults::injected_total();
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = fleet_of_one(addr, fast_cfg())
            .run_grid(cells, 2, &CancelToken::new())
            .expect("reconnect ladder heals admission panics");
        handle.shutdown();
        (jsons(&reports), nomad_faults::injected_total() - before)
    });
    assert_eq!(got, expected, "admission panics must heal byte-identical");
    assert!(injected > 0, "the plan must have fired");
}

/// Injected breaker failures (`fleet.breaker=io`) poison the routers'
/// rolling outcome windows until breakers trip; traffic reroutes
/// around the "unhealthy" nodes without declaring them dead, and the
/// grid — jobs themselves are healthy — stays byte-identical.
#[test]
fn overload_injected_breaker_failures_reroute_byte_identical() {
    let cells = grid(&[220, 221, 222, 223]);
    let expected = expected_jsons(&cells);
    let (got, trips_delta) = with_plan(Some("19:fleet.breaker=io@0.8"), || {
        let before = nomad_obs::overload()
            .value("overload.breaker_trips")
            .expect("counter registered");
        let (handles, addrs) = test_fleet(2);
        let cfg = FleetConfig {
            breaker: nomad_fleet::BreakerConfig {
                window: 8,
                fail_threshold: 2,
                cooldown: Duration::from_millis(20),
                latency_threshold: Duration::ZERO,
            },
            ..fast_fleet_cfg()
        };
        let reports = FleetClient::with_config(&addrs, cfg)
            .run_grid(cells, 2, &CancelToken::new())
            .expect("breaker reroutes are harmless to correctness");
        for h in handles {
            h.shutdown();
        }
        let after = nomad_obs::overload()
            .value("overload.breaker_trips")
            .expect("counter registered");
        (jsons(&reports), after - before)
    });
    assert_eq!(got, expected, "breaker reroutes must stay byte-identical");
    assert!(
        trips_delta > 0,
        "an 80% forced-failure rate over a 2-of-8 window must trip a breaker"
    );
}

/// Injected heartbeat misses (`fleet.member`) past the threshold kill
/// a perfectly healthy node: its arc reassigns, the grid survives, and
/// both the misses and the failover are observable.
#[test]
fn fleet_injected_heartbeat_misses_fail_over() {
    let cells = grid(&[100, 101, 0, 1]);
    let expected = expected_jsons(&cells);
    let misses_before = fleet_metric("fleet.heartbeat_misses");
    let failovers_before = fleet_metric("fleet.failovers");
    let got = with_plan(Some("11:fleet.member=io"), || {
        let (handles, addrs) = test_fleet(2);
        let reports = FleetClient::with_config(&addrs, fast_fleet_cfg())
            .run_grid(cells, 2, &CancelToken::new())
            .expect("injected member faults are survivable");
        for h in handles {
            h.shutdown();
        }
        jsons(&reports)
    });
    assert_eq!(
        got, expected,
        "heartbeat-driven failover must be byte-identical"
    );
    assert!(
        fleet_metric("fleet.heartbeat_misses") > misses_before,
        "injected member faults must register as missed heartbeats"
    );
    assert!(
        fleet_metric("fleet.failovers") >= failovers_before,
        "failover count never regresses"
    );
}
