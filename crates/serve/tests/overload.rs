//! End-to-end overload-protection tests: deadline-budgeted submissions
//! against a live server must be shed — never executed late — at every
//! checkpoint, and the `overload.*` counters must witness each
//! decision.
//!
//! The overload counters are process-global (`nomad_obs::overload()`),
//! and one test installs a fault plan (also process-global), so every
//! test in this file runs under one mutex and measures counter
//! *deltas*.

use nomad_serve::proto::{self, JobSpec, Response};
use nomad_serve::{
    serve, submit_within_deadline, Client, ClientConfig, OverloadConfig, ServerConfig,
};
use nomad_sim::{SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use std::io::BufRead;
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OVERLOAD_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the test, install `plan` (or none), run `f`, and always
/// clear the plan afterwards.
fn with_plan<Ret>(plan: Option<&str>, f: impl FnOnce() -> Ret) -> Ret {
    let _guard = OVERLOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nomad_faults::install(plan.map(|s| nomad_faults::FaultPlan::parse(s).expect("valid plan")));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    nomad_faults::install(None);
    match out {
        Ok(ret) => ret,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn job(seed: u64) -> JobSpec {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    JobSpec {
        cfg,
        spec: SchemeSpec::Nomad,
        profile: WorkloadProfile::tc(),
        instructions: 4_000,
        warmup: 500,
        seed,
    }
}

fn test_server(workers: usize, overload: OverloadConfig) -> nomad_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity: 8,
        job_timeout: Duration::from_secs(60),
        retry_budget: 2,
        cache_dir: None,
        overload,
    })
    .expect("bind ephemeral port")
}

fn overload_counter(name: &str) -> u64 {
    nomad_obs::overload()
        .value(name)
        .expect("counter registered")
}

/// With no workers, the estimated queue wait is infinite: any finite
/// budget is hopeless and the job must be shed at admission — an
/// `Expired` answer, `overload.admit_shed` incremented, and the shed
/// exempt from `serve.jobs.failed`.
#[test]
fn hopeless_deadline_is_shed_at_admission() {
    with_plan(None, || {
        let admit_before = overload_counter("overload.admit_shed");
        let handle = test_server(0, OverloadConfig::default());
        let mut client = Client::connect(handle.local_addr()).expect("connect");
        match client
            .submit_with_deadline(&job(1), Duration::from_millis(50))
            .expect("submit")
        {
            Response::Expired { error } => {
                assert!(error.contains("deadline expired"), "{error}");
            }
            other => panic!("expected Expired, got {other:?}"),
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.jobs_failed, 0, "sheds are not failures");
        assert_eq!(stats.jobs_rejected, 0, "sheds are not rejections either");
        assert!(overload_counter("overload.admit_shed") > admit_before);
        // The snapshot carries the same rows the registry holds.
        assert!(stats.counter("overload.admit_shed").is_some());
        handle.shutdown();
    });
}

/// A job whose budget dies *in the queue* (the single worker is pinned
/// by an injected 300 ms execution delay) comes back `Expired`, counts
/// `overload.queue_shed`, and — the invariant the load generator
/// asserts fleet-wide — is never executed: `overload.expired_executions`
/// stays flat.
#[test]
fn budget_that_dies_in_the_queue_is_shed_not_executed() {
    with_plan(Some("3:serve.worker.execute=delay:300"), || {
        let queue_before = overload_counter("overload.queue_shed");
        let expired_before = overload_counter("overload.expired_executions");
        let handle = test_server(1, OverloadConfig::default());
        let addr = handle.local_addr();

        // Pin the worker: a no-deadline job whose execution sleeps
        // 300 ms at the fault site before simulating.
        let pin = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.submit(&job(2)).expect("pin job")
        });
        // Make sure the pin job was dequeued (the worker is busy).
        let mut client = Client::connect(addr).expect("connect");
        loop {
            let stats = client.stats().expect("stats");
            if stats.jobs_submitted >= 1 && stats.queue_depth == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // A 50 ms budget cannot outlive a 300 ms pin: the submitter
        // stops waiting when the budget dies, and the dequeue
        // checkpoint sheds the queued job instead of running it.
        match client
            .submit_with_deadline(&job(3), Duration::from_millis(50))
            .expect("submit")
        {
            Response::Expired { error } => {
                assert!(error.contains("deadline expired"), "{error}");
            }
            other => panic!("expected Expired, got {other:?}"),
        }
        match pin.join().expect("pin thread") {
            Response::Report { report, .. } => assert!(report.cycles > 0),
            other => panic!("pin job should complete, got {other:?}"),
        }
        handle.shutdown();
        assert!(overload_counter("overload.queue_shed") > queue_before);
        assert_eq!(
            overload_counter("overload.expired_executions"),
            expired_before,
            "an expired job must never reach execution while shedding is on"
        );
    });
}

/// The master switch off: the same expired-in-queue job is **executed
/// anyway** — the submitter already walked away (client-side `Expired`),
/// but the run is witnessed by `overload.expired_executions`.
#[test]
fn shedding_disabled_runs_expired_jobs_and_witnesses_them() {
    with_plan(Some("5:serve.worker.execute=delay:300"), || {
        let expired_before = overload_counter("overload.expired_executions");
        let handle = test_server(
            1,
            OverloadConfig {
                shed: false,
                ..OverloadConfig::default()
            },
        );
        let addr = handle.local_addr();
        let pin = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.submit(&job(4)).expect("pin job")
        });
        let mut client = Client::connect(addr).expect("connect");
        loop {
            let stats = client.stats().expect("stats");
            if stats.jobs_submitted >= 1 && stats.queue_depth == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }

        // The waiter gives up at 50 ms, but the job itself stays
        // queued and — with shedding off — runs to completion.
        match client
            .submit_with_deadline(&job(5), Duration::from_millis(50))
            .expect("submit")
        {
            Response::Expired { .. } => {}
            other => panic!("expected Expired (waiter gave up), got {other:?}"),
        }
        pin.join().expect("pin thread");
        // Wait for the expired job's execution to be witnessed (it
        // runs behind the pin job, plus its own 300 ms delay).
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while overload_counter("overload.expired_executions") == expired_before {
            assert!(
                std::time::Instant::now() < deadline,
                "the expired execution was never witnessed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
    });
}

/// The CoDel controller end-to-end: a backlog whose sojourn blew the
/// target is shed at dequeue (`overload.codel_shed`), while the last
/// waiting job always executes.
#[test]
fn codel_sheds_the_backlog_but_not_the_last_job() {
    with_plan(Some("7:serve.worker.execute=delay:200"), || {
        let codel_before = overload_counter("overload.codel_shed");
        let handle = test_server(
            1,
            OverloadConfig {
                codel_target: Duration::from_millis(20),
                ..OverloadConfig::default()
            },
        );
        let addr = handle.local_addr();
        // Three distinct no-deadline jobs: the first pins the worker
        // for 200 ms; the two behind it age past the 20 ms target.
        let submitters: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.submit(&job(10 + i)).expect("submit")
                })
            })
            .collect();
        let answers: Vec<Response> = submitters
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect();
        handle.shutdown();
        let reports = answers
            .iter()
            .filter(|r| matches!(r, Response::Report { .. }))
            .count();
        let sheds = answers
            .iter()
            .filter(|r| matches!(r, Response::Expired { .. }))
            .count();
        assert_eq!(reports + sheds, 3, "answers: {answers:?}");
        assert!(
            reports >= 2,
            "the pinned job and the last waiting job both execute: {answers:?}"
        );
        assert!(
            overload_counter("overload.codel_shed") >= codel_before + sheds as u64,
            "every CoDel shed is counted"
        );
    });
}

/// A fake node on an ephemeral port: for its first connection it reads
/// one request frame and hands the stream to `answer`.
fn fake_node(answer: impl FnOnce(TcpStream) + Send + 'static) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut line = String::new();
        std::io::BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read the request frame");
        answer(stream);
    });
    addr
}

/// A ladder that loses its connection late in the budget must cap its
/// backoff by the time left *after* the failed exchange: the node drops
/// the connection at 380 ms of a 400 ms budget, and with a 300 ms
/// backoff base the call must still come back `Expired` within the
/// budget (a cap taken before the exchange lets it return at ~780 ms).
#[test]
fn deadline_holds_when_the_connection_drops_late() {
    with_plan(None, || {
        let start = Instant::now();
        let addr = fake_node(move |stream| {
            std::thread::sleep(
                (start + Duration::from_millis(380)).saturating_duration_since(Instant::now()),
            );
            drop(stream);
        });
        let cfg = ClientConfig {
            backoff_base: Duration::from_millis(300),
            ..ClientConfig::default()
        };
        let budget = Duration::from_millis(400);
        let answer = submit_within_deadline(&mut None, &addr, &job(60), budget, &cfg);
        let took = start.elapsed();
        assert!(
            matches!(answer, Ok(Response::Expired { .. })),
            "got {answer:?}"
        );
        assert!(
            took <= budget + Duration::from_millis(50),
            "a 400 ms budget took {took:?}"
        );
    });
}

/// A retry-after hint that outlives the remaining budget ends the call
/// at once: nothing sleeps on a hint that cannot pay off.
#[test]
fn overload_hint_past_the_budget_returns_at_once() {
    with_plan(None, || {
        let addr = fake_node(|mut stream| {
            let hint = Response::Overloaded {
                retry_after_ms: 1_000,
            };
            proto::write_frame(&mut stream, &hint).expect("answer");
            // Hold the connection open until the client is done.
            let _ = std::io::BufReader::new(stream).read_line(&mut String::new());
        });
        let start = Instant::now();
        let answer = submit_within_deadline(
            &mut None,
            &addr,
            &job(61),
            Duration::from_millis(400),
            &ClientConfig::default(),
        );
        let took = start.elapsed();
        assert!(
            matches!(answer, Ok(Response::Expired { .. })),
            "got {answer:?}"
        );
        assert!(
            took < Duration::from_millis(100),
            "the call slept on a hopeless hint: {took:?}"
        );
    });
}
