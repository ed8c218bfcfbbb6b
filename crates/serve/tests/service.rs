//! End-to-end service tests over localhost TCP (ephemeral ports).

use nomad_serve::proto::{self, JobSpec, Response, MAX_REQUEST_BYTES};
use nomad_serve::{serve, Client, ServerConfig};
use nomad_sim::{NomadSpec, RunReport, SchemeSpec, SystemConfig, MAX_CORES};
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    cfg
}

fn job(spec: SchemeSpec, workload: WorkloadProfile, seed: u64) -> JobSpec {
    JobSpec {
        cfg: small_cfg(),
        spec,
        profile: workload,
        instructions: 8_000,
        warmup: 1_000,
        seed,
    }
}

fn test_server(workers: usize, queue_capacity: usize) -> nomad_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        job_timeout: Duration::from_secs(60),
        retry_budget: 2,
        cache_dir: None,
        overload: Default::default(),
    })
    .expect("bind ephemeral port")
}

/// The headline acceptance test: four concurrent clients each submit
/// the same cell twice. Exactly one simulation runs; every other
/// submission is served from the cache or coalesced (verified via the
/// `/stats` hit counter), and the returned report is byte-identical to
/// an in-process `run_one`.
#[test]
fn concurrent_identical_submissions_run_once_and_match_in_process() {
    let handle = test_server(2, 32);
    let addr = handle.local_addr();
    let spec = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 7);

    let jsons: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        match client.submit(&spec).expect("submit") {
                            Response::Report { report, .. } => out.push(report.to_json()),
                            other => panic!("expected report, got {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Byte-identical to running the same job in-process.
    let local = spec.run_local().to_json();
    assert_eq!(jsons.len(), 8);
    for j in &jsons {
        assert_eq!(j, &local, "served report must be byte-identical");
    }

    // Exactly one execution; the other seven submissions hit.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 8);
    assert_eq!(stats.cache_misses, 1, "only the first submission runs");
    assert_eq!(stats.cache_hits, 7, "stats: {stats:?}");
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.worker_utilization.len(), 2);

    // The registry-backed rows agree with the convenience fields and
    // use the documented `serve.*` names.
    assert_eq!(stats.counter("serve.jobs.submitted"), Some(8));
    assert_eq!(stats.counter("serve.jobs.completed"), Some(1));
    assert_eq!(stats.counter("serve.cache.hits"), Some(7));
    assert_eq!(stats.counter("serve.cache.misses"), Some(1));
    assert_eq!(stats.counter("serve.cache.entries"), Some(1));
    assert!(
        stats.counter("serve.job.latency_ms.count").is_some(),
        "histogram rows expand into .count/.p50/.p99"
    );

    // The executed job left a span exportable as a Chrome trace.
    let trace = handle.trace_json();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"job\""));
    handle.shutdown();
}

/// A job that panics inside the simulator is retried up to the budget,
/// reported as `Failed`, and must not take the service down.
#[test]
fn panicking_job_fails_cleanly_and_service_survives() {
    let handle = test_server(1, 8);
    let addr = handle.local_addr();

    // An inconsistent profile: `derive()` asserts on it inside
    // `run_one`, on the worker thread.
    let mut poisoned = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 1);
    poisoned.profile.spatial_run = 1_000_000;

    let mut client = Client::connect(addr).expect("connect");
    match client.submit(&poisoned).expect("submit") {
        Response::Failed { error, attempts } => {
            assert_eq!(attempts, 3, "1 attempt + 2 retries");
            assert!(error.contains("panicked"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // Failures are not cached: submitting again re-runs (and fails
    // again), rather than replaying a cached failure.
    match client.submit(&poisoned).expect("second submit") {
        Response::Failed { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Failed, got {other:?}"),
    }

    // The service is still healthy for other work.
    client.ping().expect("ping after failures");
    let healthy = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 1);
    match client.submit(&healthy).expect("healthy submit") {
        Response::Report { cached, report } => {
            assert!(!cached);
            assert!(report.cycles > 0);
        }
        other => panic!("expected report, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.jobs_completed, 1);
    handle.shutdown();
}

/// With no workers draining, the queue fills and further submissions
/// are rejected with a retry hint; shutdown answers the stuck jobs.
#[test]
fn full_queue_rejects_with_backpressure() {
    let handle = test_server(0, 2);
    let addr = handle.local_addr();

    // Two distinct jobs occupy the whole queue (no workers run them);
    // their submitters block awaiting results.
    let blocked: Vec<_> = (0..2)
        .map(|i| {
            let j = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 100 + i);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.submit(&j).expect("submit")
            })
        })
        .collect();

    // Wait until both jobs are queued.
    let mut client = Client::connect(addr).expect("connect");
    loop {
        let stats = client.stats().expect("stats");
        if stats.queue_depth == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // A third distinct job must be rejected, with a backoff hint.
    let extra = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 999);
    match client.submit(&extra).expect("submit") {
        Response::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").jobs_rejected, 1);

    // Shutdown fails the queued jobs instead of leaving their
    // submitters hanging.
    handle.shutdown();
    for h in blocked {
        match h.join().expect("blocked client thread") {
            Response::Failed { error, attempts } => {
                assert_eq!(attempts, 0, "job never started");
                assert!(error.contains("shutting down"), "{error}");
            }
            other => panic!("expected Failed on shutdown, got {other:?}"),
        }
    }
}

/// A grid through a fleet of one (the router every off-process sweep
/// uses) matches the same jobs run in-process: same reports, same
/// (input) order.
#[test]
fn grid_via_service_matches_in_process_grid() {
    let handle = test_server(3, 32);
    let addr = handle.local_addr().to_string();

    let cells: Vec<JobSpec> = [SchemeSpec::Baseline, SchemeSpec::Tid, SchemeSpec::Nomad]
        .into_iter()
        .flat_map(|spec| {
            [WorkloadProfile::tc(), WorkloadProfile::mcf()]
                .into_iter()
                .map(move |profile| JobSpec {
                    cfg: small_cfg(),
                    spec: spec.clone(),
                    profile,
                    instructions: 6_000,
                    warmup: 500,
                    seed: 11,
                })
        })
        .collect();

    let local: Vec<RunReport> = cells.iter().map(JobSpec::run_local).collect();
    let served = nomad_fleet::FleetClient::new(&[addr])
        .run_grid(cells, 3, &CancelToken::new())
        .expect("grid via service");

    assert_eq!(local.len(), served.len());
    for (l, s) in local.iter().zip(&served) {
        assert_eq!(l.workload, s.workload);
        assert_eq!(l.scheme, s.scheme);
        assert_eq!(l.to_json(), s.to_json(), "reports must be byte-identical");
    }
    handle.shutdown();
}

/// A job with more cores than a system simulates is answered with
/// `Error` before it is counted, queued, executed or retried, and the
/// connection stays usable. (Left to run, the worker would panic on the
/// simulator's assert through the whole retry budget; with a huge
/// `cores` it would abort the process allocating the trace vector.)
#[test]
fn job_with_too_many_cores_gets_error_and_connection_survives() {
    let handle = test_server(1, 8);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for cores in [MAX_CORES + 1, 0] {
        let mut bad = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 1);
        bad.cfg.cores = cores;
        match client.submit(&bad).expect("submit") {
            Response::Error(e) => assert!(e.contains("cores"), "{e}"),
            other => panic!("cores = {cores}: expected Error, got {other:?}"),
        }
        match client
            .submit_with_deadline(&bad, Duration::from_secs(60))
            .expect("submit with deadline")
        {
            Response::Error(e) => assert!(e.contains("cores"), "{e}"),
            other => panic!("cores = {cores}: expected Error, got {other:?}"),
        }
    }
    client.ping().expect("same connection still answers");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 0, "{stats:?}");
    assert_eq!(stats.jobs_failed, 0, "{stats:?}");
    handle.shutdown();
}

/// Back-to-back requests on one connection do not wait on the wire.
/// A response split over two writes, on a socket without
/// `TCP_NODELAY`, waits ~40 ms for the client's delayed ACK: 50 pings
/// then take ~2 s instead of a few ms.
#[test]
fn back_to_back_requests_do_not_stall_on_the_wire() {
    let handle = test_server(1, 8);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let spec = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 3);
    assert!(matches!(
        client.submit(&spec).expect("priming submit"),
        Response::Report { cached: false, .. }
    ));

    let start = Instant::now();
    for _ in 0..50 {
        client.ping().expect("ping");
    }
    for _ in 0..10 {
        match client.submit(&spec).expect("submit") {
            Response::Report { cached: true, .. } => {}
            other => panic!("expected a cache hit, got {other:?}"),
        }
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 pings + 10 cache hits took {elapsed:?}"
    );
    handle.shutdown();
}

/// A request line over `MAX_REQUEST_BYTES` gets an `Error` and the
/// connection closes (it cannot resync mid-line); the server keeps
/// serving new connections.
#[test]
fn oversize_request_gets_error_then_eof() {
    let handle = test_server(1, 8);
    let addr = handle.local_addr();
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let (first, rest) = std::thread::scope(|scope| {
        // The server stops reading at the cap, so the tail of this
        // write may fail with a reset; only the replies matter.
        scope.spawn(move || {
            let _ = writer.write_all(&vec![b'x'; 2 * MAX_REQUEST_BYTES]);
        });
        let first = proto::read_frame::<Response, _>(&mut reader);
        (first, proto::read_frame::<Response, _>(&mut reader))
    });
    match first.expect("read reply") {
        Some(Response::Error(e)) => assert!(e.contains("exceeds"), "{e}"),
        other => panic!("expected Error, got {other:?}"),
    }
    assert!(rest.expect("read after reply").is_none(), "expected EOF");

    let mut client = Client::connect(addr).expect("fresh connection");
    client.ping().expect("server still answers");
    handle.shutdown();
}

/// Every spelling of the paper's NOMAD is one job: one content key, so
/// the server runs the first and answers the others from its cache —
/// with the bytes each spelling produces when run on its own.
#[test]
fn scheme_spellings_share_one_key_and_one_report() {
    let handle = test_server(1, 8);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let canonical = job(SchemeSpec::Nomad, WorkloadProfile::libq(), 5);
    let spellings = [
        SchemeSpec::Nomad,
        SchemeSpec::NomadWith(NomadSpec::default()),
        SchemeSpec::NomadWith(NomadSpec {
            buffers: Some(16),
            ..NomadSpec::default()
        }),
    ];
    for (i, spec) in spellings.into_iter().enumerate() {
        let spelled = JobSpec {
            spec,
            ..canonical.clone()
        };
        assert_eq!(spelled.content_key(), canonical.content_key());
        match client.submit(&spelled).expect("submit") {
            Response::Report { cached, report } => {
                assert_eq!(cached, i > 0, "{:?}", spelled.spec);
                assert_eq!(report.to_json(), spelled.run_local().to_json());
            }
            other => panic!("expected a report, got {other:?}"),
        }
    }
    handle.shutdown();
}
