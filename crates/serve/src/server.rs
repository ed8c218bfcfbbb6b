//! The TCP server: accept loop, connection handlers, and lifecycle.
//!
//! One thread accepts connections (non-blocking, polling the shutdown
//! flag); each connection gets a handler thread speaking the
//! line-delimited JSON protocol of [`crate::proto`]. `Submit`
//! consults the result cache, enqueues on a miss (one path for a cache
//! runner and a content-key collision alike), and blocks the
//! connection until the job resolves — so a connection is one lane of
//! synchronous requests, and concurrency comes from opening more
//! connections.
//!
//! # Shutdown
//!
//! Graceful shutdown (a `Shutdown` request or
//! [`ServerHandle::shutdown`]) closes the queue, lets workers finish
//! jobs they already started, fails every job still waiting in the
//! queue with "server shutting down", and stops accepting. Blocked
//! submitters therefore always get an answer.

use crate::cache::{Claim, Flight, JobFailure, ResultCache};
use crate::overload::{self, OverloadConfig};
use crate::proto::{self, MetricRow, Request, Response, StatsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::ServiceStats;
use crate::worker::{Job, Resolve, WorkerPool};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) jobs.
    pub queue_capacity: usize,
    /// Wall-clock budget per job attempt.
    pub job_timeout: Duration,
    /// Extra attempts after a panicking first attempt.
    pub retry_budget: u32,
    /// Directory of the [`ResultStore`](crate::ResultStore) the result
    /// cache spills completed results to and reads a job's result from
    /// on its first request; `None` keeps the result cache memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Overload-protection knobs (deadline shedding, CoDel target).
    pub overload: OverloadConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_capacity: 64,
            job_timeout: Duration::from_secs(300),
            retry_budget: 2,
            cache_dir: None,
            overload: OverloadConfig::default(),
        }
    }
}

/// State shared by the accept loop, handlers, and workers.
struct Shared {
    queue: Arc<BoundedQueue<Job>>,
    cache: Arc<ResultCache>,
    stats: Arc<ServiceStats>,
    shutdown: AtomicBool,
    workers: usize,
    overload: OverloadConfig,
}

impl Shared {
    /// Backoff hint for refused submissions: scales with queue fill
    /// so a deeply overloaded server pushes retries further out.
    fn retry_after_ms(&self) -> u64 {
        overload::retry_after_ms(self.queue.depth(), self.queue.capacity())
    }

    /// Age of the oldest queued job in milliseconds (0 when empty).
    fn queue_oldest_ms(&self) -> u64 {
        self.queue
            .front_map(|job: &Job| job.submitted.elapsed().as_millis() as u64)
            .unwrap_or(0)
    }

    fn snapshot(&self) -> StatsSnapshot {
        let (latency_p50_ms, latency_p99_ms) = self.stats.latency_quantiles_ms();
        let queue_depth = self.queue.depth();
        let queue_oldest_ms = self.queue_oldest_ms();
        let mut counters = self.stats.counter_rows(
            queue_depth,
            queue_oldest_ms,
            self.cache.hits(),
            self.cache.misses(),
            self.cache.entries(),
        );
        // Merge the process-global overload counters so one `/stats`
        // round-trip carries the shed/breaker picture too. Re-sort:
        // the rows contract is name-sorted.
        counters.extend(
            nomad_obs::overload()
                .rows()
                .into_iter()
                .map(|(name, value)| MetricRow { name, value }),
        );
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        StatsSnapshot {
            queue_depth,
            queue_capacity: self.queue.capacity(),
            queue_oldest_ms,
            workers: self.workers,
            jobs_submitted: self.stats.submitted.get(),
            jobs_completed: self.stats.completed.get(),
            jobs_failed: self.stats.failed.get(),
            jobs_rejected: self.stats.rejected.get(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.entries(),
            worker_utilization: self.stats.worker_utilization(),
            latency_p50_ms,
            latency_p99_ms,
            counters,
        }
    }

    /// Close the queue and fail everything still waiting in it.
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for job in self.queue.drain_now() {
            job.complete(Err(JobFailure::failed(SHUTTING_DOWN, 0)));
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown) (or send a `Shutdown` request)
/// first.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral
    /// ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, fail queued jobs, and wait for workers and the
    /// accept loop to exit.
    pub fn shutdown(mut self) {
        self.shared.initiate_shutdown();
        self.join_threads();
    }

    /// Block until the server shuts down (via a client `Shutdown`
    /// request or another thread's handle).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }

    /// Chrome Trace Event JSON of every job the workers executed so
    /// far (one track per worker, microseconds since server start).
    /// Valid before and after shutdown; the daemon writes it to
    /// `results/serve.trace.json` at exit when observability is on.
    pub fn trace_json(&self) -> String {
        self.shared.stats.trace_json()
    }

    /// A handle to the live service counters that outlives this
    /// server handle ([`join`](Self::join) consumes it), so callers
    /// can export stats or traces after shutdown.
    pub fn stats(&self) -> Arc<ServiceStats> {
        Arc::clone(&self.shared.stats)
    }
}

/// Bind, spawn workers and the accept loop, and return immediately.
pub fn serve(cfg: ServerConfig) -> io::Result<ServerHandle> {
    crate::mirror_faults_to_obs();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let shared = Arc::new(Shared {
        queue: Arc::new(BoundedQueue::new(cfg.queue_capacity)),
        cache: Arc::new(ResultCache::with_dir(cfg.cache_dir.clone())),
        stats: Arc::new(ServiceStats::new(cfg.workers)),
        shutdown: AtomicBool::new(false),
        workers: cfg.workers,
        overload: cfg.overload.clone(),
    });

    let pool = WorkerPool::spawn(
        cfg.workers,
        Arc::clone(&shared.queue),
        Arc::clone(&shared.stats),
        cfg.job_timeout,
        cfg.retry_budget,
        cfg.overload.clone(),
    );

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("nomad-serve-accept".into())
        .spawn(move || {
            accept_loop(listener, accept_shared);
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        pool: Some(pool),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("nomad-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, shared);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let request = match proto::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // client hung up
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                proto::write_frame(&mut writer, &Response::Error(e.to_string()))?;
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::FileTooLarge => {
                // Oversize request: we stopped mid-line and cannot
                // resync. Send the FIN right after the reply, so the
                // client reads the error and then EOF even though
                // closing with its unread bytes resets the socket.
                proto::write_frame(&mut writer, &Response::Error(e.to_string()))?;
                return writer.shutdown(Shutdown::Write);
            }
            Err(e) => return Err(e),
        };
        let response = match request {
            Request::Submit { job, deadline_ms } => handle_submit(job, deadline_ms, &shared),
            Request::Fetch { key, canonical } => match shared.cache.lookup(key, &canonical) {
                Some(report) => Response::Report {
                    cached: true,
                    report: (*report).clone(),
                },
                None => Response::NotCached,
            },
            Request::Stats => Response::Stats(shared.snapshot()),
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                proto::write_frame(&mut writer, &Response::ShuttingDown)?;
                shared.initiate_shutdown();
                return Ok(());
            }
        };
        proto::write_frame(&mut writer, &response)?;
    }
}

/// The answer to a submission the server refuses for shutdown.
const SHUTTING_DOWN: &str = "server shutting down";

/// Map a resolved job failure to its wire response: sheds (deadline,
/// CoDel) answer `Expired`, real failures answer `Failed`.
fn failure_response(failure: JobFailure) -> Response {
    if failure.shed {
        Response::Expired {
            error: failure.error,
        }
    } else {
        Response::Failed {
            error: failure.error,
            attempts: failure.attempts,
        }
    }
}

/// Wait on `flight` until it resolves or `deadline` passes, and map
/// the outcome to the submitter's response. `cached` marks a report
/// served without running a new simulation for this request; `waiting`
/// names what the submitter waited on, for the expiry message.
fn await_flight(
    flight: &Flight,
    deadline: Option<Instant>,
    cached: bool,
    waiting: &str,
) -> Response {
    match flight.wait_until(deadline) {
        Some(Ok(report)) => Response::Report {
            cached,
            report: (*report).clone(),
        },
        Some(Err(failure)) => failure_response(failure),
        None => {
            // The budget died first. The job itself (queued, running or
            // coalesced onto) is undisturbed: the dequeue and
            // pre-execute checkpoints shed or finish it, and whoever
            // else waits on it still gets its result — this submitter
            // just stops waiting for an answer that is already late.
            nomad_obs::overload().queue_shed.inc();
            Response::Expired {
                error: format!("deadline expired while {waiting}"),
            }
        }
    }
}

/// The admission checkpoint for a deadline-budgeted submission that is
/// about to enqueue new work: shed now if the estimated queue wait
/// alone already eats the budget. Returns the shed failure, or `None`
/// to admit.
fn admission_shed(shared: &Shared, deadline_ms: Option<u64>) -> Option<JobFailure> {
    let deadline_ms = deadline_ms?;
    if !shared.overload.shed {
        return None;
    }
    let est = overload::estimated_wait_ms(
        shared.queue.depth(),
        shared.workers,
        shared.stats.service_ewma_ms(),
    );
    if overload::admit_would_expire(deadline_ms, est) {
        nomad_obs::overload().admit_shed.inc();
        Some(JobFailure::admit_expired(est, deadline_ms))
    } else {
        None
    }
}

fn handle_submit(
    spec: crate::proto::JobSpec,
    deadline_ms: Option<u64>,
    shared: &Shared,
) -> Response {
    // A job the simulator cannot build is a bad frame, not a failed
    // job: answer `Error` before it is counted, claimed, queued or
    // retried.
    if let Err(e) = spec.validate() {
        return Response::Error(e);
    }
    shared.stats.submitted.inc();
    // Fault site `serve.admit`: `panic` kills this connection handler
    // mid-admission (the client sees a dropped connection and rides
    // its reconnect ladder), `delay` stalls admission inside
    // `inject`, and `io`/`torn` force an `Overloaded` rejection as if
    // the server were saturated. Nothing is enqueued in any case, so
    // recovery is always a clean resubmission.
    if let Some(fault) = nomad_faults::inject("serve.admit") {
        if matches!(fault, nomad_faults::Fault::Panic) {
            panic!("nomad-faults: injected panic at serve.admit");
        }
        shared.stats.rejected.inc();
        nomad_obs::overload().admit_shed.inc();
        return Response::Overloaded {
            retry_after_ms: shared.retry_after_ms(),
        };
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return failure_response(JobFailure::failed(SHUTTING_DOWN, 0));
    }
    // Relative budget → absolute deadline, pinned at frame receipt.
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let canonical = spec.canonical_json();
    let key = nomad_types::hash::fnv1a(canonical.as_bytes());
    let (flight, resolve) = match shared.cache.claim(key, &canonical) {
        // Hits always serve: they cost no queue time, so even a zero
        // budget is met.
        Claim::Hit(report) => {
            return Response::Report {
                cached: true,
                report: (*report).clone(),
            }
        }
        Claim::Wait(flight) => {
            return await_flight(&flight, deadline, true, "coalesced onto an in-flight job")
        }
        Claim::Run(flight) => (flight, Resolve::Cache(Arc::clone(&shared.cache), key)),
        // Content-key collision with a different job: run it without
        // caching, resolved through a private flight.
        Claim::RunUncached => {
            let flight = Flight::new();
            (Arc::clone(&flight), Resolve::Direct(flight))
        }
    };
    let job = Job {
        spec,
        resolve,
        submitted: Instant::now(),
        deadline,
    };
    // Whatever keeps the job from the queue completes it, so coalesced
    // waiters (and future submissions) are never stuck behind a job
    // that will not run.
    if let Some(shed) = admission_shed(shared, deadline_ms) {
        job.complete(Err(shed.clone()));
        return failure_response(shed);
    }
    match shared.queue.try_push(job) {
        Ok(()) => await_flight(&flight, deadline, false, "the job was queued"),
        Err(PushError::Full(job)) => {
            shared.stats.rejected.inc();
            job.complete(Err(JobFailure::failed("queue full; job was rejected", 0)));
            Response::Overloaded {
                retry_after_ms: shared.retry_after_ms(),
            }
        }
        Err(PushError::Closed(job)) => {
            let failure = JobFailure::failed(SHUTTING_DOWN, 0);
            job.complete(Err(failure.clone()));
            failure_response(failure)
        }
    }
}
