//! Worker pool: shards queued jobs across OS threads.
//!
//! Each job attempt runs on the worker thread itself, under
//! `catch_unwind` and with a [`CancelToken`] that expires at the
//! attempt's wall-clock timeout: the simulation polls the token at
//! event boundaries, so an overrunning attempt unwinds promptly and
//! the worker is free for the next job. Panics inside the simulator
//! are caught and retried up to the configured budget; timeouts are
//! not retried — a deterministic simulation that exceeded the budget
//! once will exceed it again.

use crate::cache::{Flight, JobFailure, JobResult, ResultCache};
use crate::overload::{self, OverloadConfig};
use crate::proto::JobSpec;
use crate::queue::BoundedQueue;
use crate::stats::ServiceStats;
use nomad_types::CancelToken;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued unit of work.
pub struct Job {
    /// The job to run.
    pub spec: JobSpec,
    /// Where the result goes.
    pub resolve: Resolve,
    /// When the job was accepted, for latency accounting.
    pub submitted: Instant,
    /// Absolute deadline for deadline-budgeted submissions; `None`
    /// means no deadline.
    pub deadline: Option<Instant>,
}

/// How a finished job reaches its submitter(s).
pub enum Resolve {
    /// Resolve through the cache under this content key (wakes the
    /// flight registered by [`ResultCache::claim`]).
    Cache(Arc<ResultCache>, u64),
    /// Content-key collision bypass: complete this unregistered
    /// flight directly, leaving the cache untouched.
    Direct(Arc<Flight>),
}

impl Job {
    /// Publish the job's outcome to everyone waiting on it — whatever
    /// became of the job: run, shed, refused or drained at shutdown.
    pub fn complete(self, result: JobResult) {
        match self.resolve {
            Resolve::Cache(cache, key) => cache.complete(key, result),
            Resolve::Direct(flight) => flight.complete(result),
        }
    }
}

/// The worker threads of one server.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `count` workers draining `queue` until it is closed and
    /// empty.
    pub fn spawn(
        count: usize,
        queue: Arc<BoundedQueue<Job>>,
        stats: Arc<ServiceStats>,
        job_timeout: Duration,
        retry_budget: u32,
        overload_cfg: OverloadConfig,
    ) -> Self {
        let handles = (0..count)
            .map(|id| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let ocfg = overload_cfg.clone();
                std::thread::Builder::new()
                    .name(format!("nomad-serve-worker-{id}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            // Dequeue checkpoint: shed instead of
                            // executing work whose budget died in the
                            // queue, or whose sojourn blew the CoDel
                            // target while a backlog waits behind it.
                            if let Some(shed) = dequeue_shed(&job, &ocfg, queue.depth()) {
                                job.complete(Err(shed));
                                continue;
                            }
                            let t0 = Instant::now();
                            let result = run_attempts(
                                &job.spec,
                                job_timeout,
                                retry_budget,
                                job.deadline,
                                ocfg.shed,
                            );
                            stats.add_worker_busy(id, t0.elapsed());
                            stats.record_job_span(id, t0, result.is_ok());
                            match &result {
                                Ok(_) => {
                                    stats.completed.inc();
                                    stats.record_service_time(t0.elapsed());
                                }
                                // Sheds are counted by their overload
                                // counter, not as job failures.
                                Err(f) if f.shed => {}
                                Err(_) => stats.failed.inc(),
                            };
                            stats.record_latency(job.submitted.elapsed());
                            job.complete(result);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Wait for every worker to exit (the queue must be closed first).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// The dequeue checkpoint: decide whether a just-popped job should be
/// shed. Returns the shed failure, or `None` to execute. `backlog` is
/// the queue depth *behind* this job (it was already popped).
fn dequeue_shed(job: &Job, cfg: &OverloadConfig, backlog: usize) -> Option<JobFailure> {
    if !cfg.shed {
        return None;
    }
    let sojourn_ms = job.submitted.elapsed().as_millis() as u64;
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            nomad_obs::overload().queue_shed.inc();
            return Some(JobFailure::expired("dequeue", sojourn_ms));
        }
    }
    let target_ms = cfg.codel_target.as_millis() as u64;
    if overload::codel_should_shed(sojourn_ms, target_ms, backlog) {
        nomad_obs::overload().codel_shed.inc();
        return Some(JobFailure::codel_shed(sojourn_ms, target_ms));
    }
    None
}

/// Run one job's attempts on the calling thread: a panic consumes the
/// retry budget, and an attempt still running when its `timeout`
/// expires is cancelled through its token and fails the job at once.
///
/// Immediately before each attempt (retries included) comes the
/// pre-execute deadline checkpoint: an expired `deadline` sheds the
/// job (`overload.exec_shed`). With `shed` false the expired job is
/// **executed anyway** and `overload.expired_executions` is
/// incremented — the invariant counter the load generator asserts
/// stays zero under shedding.
fn run_attempts(
    spec: &JobSpec,
    timeout: Duration,
    retry_budget: u32,
    deadline: Option<Instant>,
    shed: bool,
) -> JobResult {
    let mut attempts = 0u32;
    loop {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                if shed {
                    nomad_obs::overload().exec_shed.inc();
                    return Err(JobFailure::expired(
                        "pre-execute",
                        d.elapsed().as_millis() as u64,
                    ));
                }
                nomad_obs::overload().expired_executions.inc();
            }
        }
        attempts += 1;
        // A timeout past the clock's range (`Duration::MAX`) never
        // expires.
        let cancel = Instant::now()
            .checked_add(timeout)
            .map_or_else(CancelToken::new, CancelToken::expiring_at);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Fault site `serve.worker.execute`: inside the
            // catch_unwind so an injected panic consumes the retry
            // budget exactly like a simulator panic.
            nomad_faults::panic_point("serve.worker.execute");
            spec.run_local_cancellable(&cancel)
        }));
        match outcome {
            Ok(Some(report)) => return Ok(Arc::new(report)),
            // Only the token's expiry cancels an attempt.
            Ok(None) => {
                let error = format!("job timed out after {} ms", timeout.as_millis());
                return Err(JobFailure::failed(error, attempts));
            }
            // `&*panic` so the downcast sees the payload, not the
            // `Box<dyn Any>` itself.
            Err(panic) if attempts > retry_budget => {
                let error = format!("job panicked: {}", panic_message(&*panic));
                return Err(JobFailure::failed(error, attempts));
            }
            Err(_) => {}
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_sim::{SchemeSpec, SystemConfig};
    use nomad_trace::WorkloadProfile;

    fn tiny_job() -> JobSpec {
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        JobSpec {
            cfg,
            spec: SchemeSpec::Baseline,
            profile: WorkloadProfile::tc(),
            instructions: 2_000,
            warmup: 0,
            seed: 1,
        }
    }

    /// A profile whose `derive()` asserts: `spatial_run` far beyond
    /// any blocks-per-page budget.
    fn poisoned_job() -> JobSpec {
        let mut job = tiny_job();
        job.profile.spatial_run = 1_000_000;
        job
    }

    /// [`run_attempts`] without a deadline.
    fn execute(spec: &JobSpec, timeout: Duration, retry_budget: u32) -> JobResult {
        run_attempts(spec, timeout, retry_budget, None, true)
    }

    #[test]
    fn healthy_job_succeeds_first_attempt() {
        let r = execute(&tiny_job(), Duration::from_secs(30), 2).expect("success");
        assert!(r.cycles > 0);
    }

    #[test]
    fn an_unbounded_timeout_never_expires() {
        let r = execute(&tiny_job(), Duration::MAX, 0).expect("success");
        assert!(r.cycles > 0);
    }

    #[test]
    fn panicking_job_consumes_retry_budget() {
        let err = execute(&poisoned_job(), Duration::from_secs(30), 2).expect_err("fails");
        assert_eq!(err.attempts, 3, "1 attempt + 2 retries");
        assert!(err.error.contains("panicked"), "{}", err.error);
        assert!(
            err.error.contains("spatial_run"),
            "panic message surfaced: {}",
            err.error
        );
    }

    #[test]
    fn overrunning_job_times_out_without_retry() {
        let mut job = tiny_job();
        job.instructions = 2_000_000;
        let err = execute(&job, Duration::from_millis(5), 3).expect_err("times out");
        assert_eq!(err.attempts, 1, "timeouts are not retried");
        assert!(err.error.contains("timed out"), "{}", err.error);
    }

    #[test]
    fn expired_deadline_is_shed_before_execution() {
        let before = nomad_obs::overload()
            .value("overload.exec_shed")
            .expect("row");
        let already_past = Instant::now() - Duration::from_millis(5);
        let err = run_attempts(
            &tiny_job(),
            Duration::from_secs(30),
            2,
            Some(already_past),
            true,
        )
        .expect_err("shed, not executed");
        assert!(err.shed, "{}", err.error);
        assert_eq!(err.attempts, 0, "nothing ran");
        assert!(nomad_obs::overload().value("overload.exec_shed").unwrap() > before);
    }

    #[test]
    fn shedding_disabled_executes_anyway_and_counts_the_violation() {
        let before = nomad_obs::overload()
            .value("overload.expired_executions")
            .expect("row");
        let already_past = Instant::now() - Duration::from_millis(5);
        let r = run_attempts(
            &tiny_job(),
            Duration::from_secs(30),
            2,
            Some(already_past),
            false,
        )
        .expect("runs to completion with shedding off");
        assert!(r.cycles > 0);
        assert!(
            nomad_obs::overload()
                .value("overload.expired_executions")
                .unwrap()
                > before,
            "the expired execution must be witnessed"
        );
    }

    #[test]
    fn dequeue_shed_honors_deadline_codel_and_the_last_job_rule() {
        let job = |deadline, age_ms| Job {
            spec: tiny_job(),
            resolve: Resolve::Direct(Flight::new()),
            submitted: Instant::now() - Duration::from_millis(age_ms),
            deadline,
        };
        let mut cfg = OverloadConfig::default();
        // No deadline, no CoDel target: never shed.
        assert!(dequeue_shed(&job(None, 500), &cfg, 10).is_none());
        // Expired deadline: shed regardless of backlog.
        let past = Some(Instant::now() - Duration::from_millis(1));
        assert!(dequeue_shed(&job(past, 10), &cfg, 0).is_some());
        // CoDel: over-target sojourn sheds only while a backlog waits.
        cfg.codel_target = Duration::from_millis(100);
        assert!(dequeue_shed(&job(None, 500), &cfg, 3).is_some());
        assert!(
            dequeue_shed(&job(None, 500), &cfg, 0).is_none(),
            "the last waiting job always executes"
        );
        // Master switch off: nothing is shed.
        cfg.shed = false;
        assert!(dequeue_shed(&job(past, 500), &cfg, 3).is_none());
    }

    /// The point of cooperative cancellation: an attempt runs on the
    /// caller's thread, so a timed-out one must hand that thread back
    /// promptly instead of running its simulation to the end.
    #[test]
    fn timed_out_attempt_returns_promptly() {
        let mut job = tiny_job();
        job.instructions = 50_000_000;
        let start = Instant::now();
        let err = execute(&job, Duration::from_millis(10), 0).expect_err("times out");
        let took = start.elapsed();
        assert!(err.error.contains("timed out"), "{}", err.error);
        assert!(
            took < Duration::from_secs(1),
            "a 10 ms timeout held the thread for {took:?}"
        );
    }
}
