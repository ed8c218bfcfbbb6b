//! Wire protocol: line-delimited JSON over TCP.
//!
//! Every request and response is one compact JSON document followed by
//! `\n`. A connection carries a synchronous request/response stream —
//! the server answers requests in order, and a `Submit` holds the
//! connection until its job resolves. Clients wanting parallelism open
//! one connection per in-flight job (the fleet router,
//! `nomad_fleet::FleetClient::run_grid`, keeps one per worker and
//! node).
//!
//! # Framing
//!
//! A frame leaves in one `write` (see [`write_frame`]) and both ends
//! set `TCP_NODELAY`. A frame split over two writes lets Nagle hold the
//! second segment until the peer's delayed ACK, which costs ~40 ms per
//! request on Linux. Request frames are capped at
//! [`MAX_REQUEST_BYTES`]; responses are not (a report with obs series
//! reaches hundreds of KB).
//!
//! # Cache key
//!
//! A job's identity is the FNV-1a 64 hash of its *canonical JSON*: the
//! compact serialization of [`JobSpec`] with fields in declaration
//! order (the derive preserves declaration order, and the vendored
//! `serde_json` prints numbers deterministically). Two jobs are the
//! same experiment iff their `(SystemConfig, SchemeSpec,
//! WorkloadProfile, instructions, warmup, seed)` tuples serialize
//! identically.

use nomad_sim::runner;
use nomad_sim::{RunReport, SchemeSpec, SystemConfig, MAX_CORES};
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// One simulation job: the full input tuple of
/// [`runner::run_one`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// System configuration.
    pub cfg: SystemConfig,
    /// Scheme to run.
    pub spec: SchemeSpec,
    /// Workload to run.
    pub profile: WorkloadProfile,
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// RNG seed.
    pub seed: u64,
}

impl JobSpec {
    /// Reject a job the simulator cannot build, before anything is
    /// allocated for it: `cfg.cores` must lie in `1..=MAX_CORES`. A
    /// wire job past the bound would otherwise build a `cores`-long
    /// trace vector before the simulator's own assert, which for a
    /// huge value aborts the process.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let cores = self.cfg.cores;
        if cores == 0 || cores > MAX_CORES {
            return Err(format!(
                "invalid job: cores = {cores}, must be 1..={MAX_CORES}"
            ));
        }
        Ok(())
    }

    /// The canonical (compact, field-declaration-ordered) JSON
    /// encoding this job is cached under.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("JobSpec serializes")
    }

    /// Content-address of this job: FNV-1a 64 of
    /// [`canonical_json`](Self::canonical_json).
    pub fn content_key(&self) -> u64 {
        nomad_types::hash::fnv1a(self.canonical_json().as_bytes())
    }

    /// Run this job in-process (what the service's workers execute).
    pub fn run_local(&self) -> RunReport {
        runner::run_one(
            &self.cfg,
            &self.spec,
            &self.profile,
            self.instructions,
            self.warmup,
            self.seed,
        )
    }

    /// [`run_local`](Self::run_local) with cooperative cancellation:
    /// the simulation polls `cancel` at event boundaries and returns
    /// `None` promptly once it is cancelled (used by the worker pool's
    /// timeout path so an overrunning attempt does not keep burning a
    /// CPU in the background).
    pub fn run_local_cancellable(&self, cancel: &CancelToken) -> Option<RunReport> {
        runner::run_one_cancellable(
            &self.cfg,
            &self.spec,
            &self.profile,
            self.instructions,
            self.warmup,
            self.seed,
            cancel,
        )
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Request {
    /// Run (or fetch the cached result of) one job.
    Submit(JobSpec),
    /// [`Submit`](Request::Submit) with a deadline budget. The budget
    /// is *relative* (milliseconds from the server receiving the
    /// frame), so it survives clock skew between client and server.
    /// The server sheds the job — [`Response::Expired`] — instead of
    /// executing it once the budget cannot be met: at admission (the
    /// estimated queue wait already exceeds it), at dequeue, and
    /// immediately before each execution attempt. Cache hits are
    /// always served: they cost no queue time.
    ///
    /// The deadline is deliberately **not** part of [`JobSpec`]: the
    /// same experiment submitted with different budgets must keep one
    /// content key, or caching and fleet placement would fracture.
    SubmitDeadline {
        /// The job itself (content-addressed exactly like `Submit`).
        job: JobSpec,
        /// Deadline budget in milliseconds from frame receipt. Zero
        /// means "already expired" and is shed at admission.
        deadline_ms: u64,
    },
    /// Does this node's cache hold a completed result for the job
    /// with this `(key, canonical)` identity? A pure read: never
    /// executes, never coalesces, never perturbs the hit/miss
    /// counters. The fleet router uses this to find which node can
    /// answer a cell before asking any node to compute it.
    Probe {
        /// FNV-1a 64 of the canonical JSON ([`JobSpec::content_key`]).
        key: u64,
        /// The canonical JSON itself, verified against the cached
        /// entry so a 64-bit collision reads as a miss, never as a
        /// wrong report.
        canonical: String,
    },
    /// Return the cached report for this `(key, canonical)` identity
    /// without executing anything: `Report { cached: true, .. }` on a
    /// hit, [`Response::NotCached`] otherwise (in-flight jobs also
    /// answer `NotCached` — a fetch never blocks).
    Fetch {
        /// FNV-1a 64 of the canonical JSON.
        key: u64,
        /// The canonical JSON, verified like in `Probe`.
        canonical: String,
    },
    /// Report service statistics.
    Stats,
    /// Liveness check.
    Ping,
    /// Ask the service to shut down gracefully.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum Response {
    /// The job's result. `cached` is true when the report was served
    /// without running a new simulation for this request (a cache hit,
    /// or coalescing onto an identical in-flight job).
    Report {
        /// Served from the result cache (or coalesced).
        cached: bool,
        /// The simulation report.
        report: RunReport,
    },
    /// The server refused the submission for load: the queue was full,
    /// or an injected `serve.admit` fault forced a rejection. Nothing
    /// was executed; the job is safe to retry after the hint.
    Overloaded {
        /// Suggested client backoff in milliseconds. Scales with how
        /// full the queue is, so a deeply overloaded server pushes
        /// retries further out instead of inviting a thundering herd.
        retry_after_ms: u64,
    },
    /// The job was shed instead of executed: its deadline budget
    /// expired (at admission, in the queue, or just before execution),
    /// or the CoDel queue-delay controller dropped it to protect the
    /// queue's sojourn target. Distinct from [`Response::Failed`] —
    /// nothing ran, and retrying with a larger budget may succeed.
    Expired {
        /// Human-readable description of where the job was shed.
        error: String,
    },
    /// The job ran and failed (panicked past its retry budget, timed
    /// out, or the server shut down while it was queued).
    Failed {
        /// Human-readable failure description.
        error: String,
        /// Execution attempts consumed (0 if the job never started).
        attempts: u32,
    },
    /// Answer to a [`Request::Probe`].
    ProbeResult {
        /// Whether a completed, identity-verified result is cached.
        hit: bool,
    },
    /// Answer to a [`Request::Fetch`] whose identity is not in the
    /// cache (or still in flight): the caller should compute the job
    /// elsewhere — a fetch never triggers execution.
    NotCached,
    /// Service statistics.
    Stats(StatsSnapshot),
    /// Liveness reply.
    Pong,
    /// Acknowledgement of a [`Request::Shutdown`].
    ShuttingDown,
    /// The request could not be understood.
    Error(String),
}

/// One `(name, value)` row of a [`StatsSnapshot`]'s registry dump.
/// A struct rather than a tuple so the vendored serde can derive it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Registry metric name (e.g. `serve.jobs.submitted`); histogram
    /// rows carry derived `.count`/`.p50`/`.p99` suffixes.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A point-in-time view of the service counters, as returned by
/// [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Queue capacity (submissions beyond this are rejected).
    pub queue_capacity: usize,
    /// Age in milliseconds of the oldest job still waiting in the
    /// queue (0 when the queue is empty) — the live sojourn the CoDel
    /// controller compares against its target.
    pub queue_oldest_ms: u64,
    /// Worker threads.
    pub workers: usize,
    /// Total `Submit` requests received.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Jobs that failed (panic past budget, timeout, shutdown).
    pub jobs_failed: u64,
    /// Submissions rejected for backpressure.
    pub jobs_rejected: u64,
    /// Submissions served from the cache or coalesced onto an
    /// in-flight identical job.
    pub cache_hits: u64,
    /// Submissions that required running a new simulation.
    pub cache_misses: u64,
    /// Completed reports currently cached.
    pub cache_entries: usize,
    /// Fraction of wall-clock time each worker spent executing jobs,
    /// since the server started.
    pub worker_utilization: Vec<f64>,
    /// Median submit-to-completion latency (ms, log-bucket lower
    /// bound).
    pub latency_p50_ms: u64,
    /// 99th-percentile submit-to-completion latency (ms, log-bucket
    /// lower bound).
    pub latency_p99_ms: u64,
    /// Full name-sorted dump of the service's metric registry — the
    /// same names (`serve.*`) the simulator's snapshot-JSON exporter
    /// uses, documented in `METRICS.md`. The convenience fields above
    /// are projections of these rows.
    pub counters: Vec<MetricRow>,
}

impl StatsSnapshot {
    /// Look up one registry row by metric name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }
}

/// Largest request frame, terminator included, that the server reads:
/// 1 MiB. `JobSpec`, `Probe` and `Fetch` frames are a few KB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Write one message as a JSON line, in a single `write_all`, and
/// flush it.
///
/// Fault site `serve.proto.write_frame`: an injected `Torn` fault
/// writes only the first half of the line (simulating a connection cut
/// mid-frame — the peer sees an unterminated line) and then fails;
/// any other injected fault fails before writing a byte.
pub fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(msg).map_err(invalid_data)?;
    if let Some(fault) = nomad_faults::inject("serve.proto.write_frame") {
        if matches!(fault, nomad_faults::Fault::Torn) {
            let bytes = line.as_bytes();
            w.write_all(&bytes[..bytes.len() / 2])?;
            w.flush()?;
        }
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            format!(
                "nomad-faults: injected {} at serve.proto.write_frame",
                fault.label()
            ),
        ));
    }
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read one JSON-line message. Returns `Ok(None)` on a clean EOF;
/// malformed JSON maps to [`io::ErrorKind::InvalidData`].
///
/// Fault site `serve.proto.read_frame`: any injected fault surfaces as
/// a `ConnectionReset` error before the read (as if the peer vanished).
pub fn read_frame<T: Deserialize, R: BufRead>(r: &mut R) -> io::Result<Option<T>> {
    read_frame_capped(r, usize::MAX)
}

/// [`read_frame`] for the server's side of the wire: a request line
/// longer than [`MAX_REQUEST_BYTES`] fails with
/// [`io::ErrorKind::FileTooLarge`] after consuming that many bytes.
/// The stream is then mid-line and cannot resync, so the caller must
/// drop the connection.
pub(crate) fn read_request<R: BufRead>(r: &mut R) -> io::Result<Option<Request>> {
    read_frame_capped(r, MAX_REQUEST_BYTES)
}

fn read_frame_capped<T: Deserialize, R: BufRead>(
    r: &mut R,
    max_bytes: usize,
) -> io::Result<Option<T>> {
    nomad_faults::fail_point("serve.proto.read_frame")?;
    let mut line = Vec::new();
    if io::Read::take(&mut *r, max_bytes as u64).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.len() == max_bytes && line.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::FileTooLarge,
            format!("request frame exceeds {max_bytes} bytes"),
        ));
    }
    let line = std::str::from_utf8(&line).map_err(invalid_data)?;
    serde_json::from_str(line.trim_end())
        .map(Some)
        .map_err(invalid_data)
}

fn invalid_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_job() -> JobSpec {
        JobSpec {
            cfg: SystemConfig::scaled(1),
            spec: SchemeSpec::Nomad,
            profile: WorkloadProfile::tc(),
            instructions: 5_000,
            warmup: 500,
            seed: 7,
        }
    }

    /// One of each request variant.
    fn every_request() -> Vec<Request> {
        vec![
            Request::Submit(demo_job()),
            Request::SubmitDeadline {
                job: demo_job(),
                deadline_ms: 400,
            },
            Request::Probe {
                key: demo_job().content_key(),
                canonical: demo_job().canonical_json(),
            },
            Request::Fetch {
                key: demo_job().content_key(),
                canonical: demo_job().canonical_json(),
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ]
    }

    /// One of each response variant, led by a real report.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Report {
                cached: true,
                report: demo_job().run_local(),
            },
            Response::Overloaded { retry_after_ms: 25 },
            Response::Expired {
                error: "deadline expired after 12 ms in queue".into(),
            },
            Response::Failed {
                error: "panicked: boom".into(),
                attempts: 3,
            },
            Response::ProbeResult { hit: true },
            Response::ProbeResult { hit: false },
            Response::NotCached,
            Response::Stats(StatsSnapshot {
                queue_depth: 1,
                queue_capacity: 64,
                queue_oldest_ms: 3,
                workers: 2,
                jobs_submitted: 9,
                jobs_completed: 7,
                jobs_failed: 1,
                jobs_rejected: 1,
                cache_hits: 4,
                cache_misses: 5,
                cache_entries: 5,
                worker_utilization: vec![0.25, 0.5],
                latency_p50_ms: 16,
                latency_p99_ms: 64,
                counters: vec![MetricRow {
                    name: "serve.jobs.submitted".into(),
                    value: 9,
                }],
            }),
            Response::Pong,
            Response::ShuttingDown,
            Response::Error("bad request".into()),
        ]
    }

    #[test]
    fn requests_round_trip_the_wire() {
        let reqs = every_request();
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &reqs {
            let got = read_request(&mut cursor).expect("read").expect("present");
            assert_eq!(&got, want);
        }
        assert!(read_request(&mut cursor).expect("eof").is_none());
    }

    #[test]
    fn responses_round_trip_the_wire() {
        let resps = every_response();
        let mut buf = Vec::new();
        for r in &resps {
            write_frame(&mut buf, r).expect("write");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &resps {
            let got: Response = read_frame(&mut cursor).expect("read").expect("present");
            // `RunReport` (inside `Response::Report`) has no
            // `PartialEq`; canonical JSON equality is the protocol's
            // own notion of identity anyway.
            assert_eq!(
                serde_json::to_string(&got).expect("json"),
                serde_json::to_string(want).expect("json"),
            );
        }
    }

    /// A `Write` that keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct WriteCalls(Vec<Vec<u8>>);

    impl Write for WriteCalls {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The frame `msg` goes out as: exactly one `write` call, holding
    /// exactly one `\n`, at its end. Returns the frame's length.
    fn assert_one_write<T: Serialize>(msg: &T) -> usize {
        let mut calls = WriteCalls::default();
        write_frame(&mut calls, msg).expect("write");
        assert_eq!(
            calls.0.len(),
            1,
            "a frame split over two writes waits on Nagle and delayed ACK"
        );
        let frame = &calls.0[0];
        assert_eq!(frame.iter().filter(|&&b| b == b'\n').count(), 1);
        assert_eq!(frame.last(), Some(&b'\n'));
        frame.len()
    }

    #[test]
    fn every_frame_is_one_write_ending_in_one_newline() {
        for req in &every_request() {
            assert_one_write(req);
        }
        let resps = every_response();
        let report_len = assert_one_write(&resps[0]);
        assert!(report_len > 1024, "report frame is {report_len} bytes");
        for resp in &resps[1..] {
            assert_one_write(resp);
        }
    }

    #[test]
    fn request_frames_are_capped_and_responses_are_not() {
        let probe = |len: usize| Request::Probe {
            key: 1,
            canonical: "x".repeat(len),
        };
        let framing = serde_json::to_string(&probe(0)).expect("json").len() + 1;
        let frame = |len: usize| {
            let mut buf = Vec::new();
            write_frame(&mut buf, &probe(len)).expect("write");
            std::io::Cursor::new(buf)
        };

        let mut at_cap = frame(MAX_REQUEST_BYTES - framing);
        assert_eq!(at_cap.get_ref().len(), MAX_REQUEST_BYTES);
        assert!(read_request(&mut at_cap).expect("at the cap").is_some());

        let mut over = frame(MAX_REQUEST_BYTES - framing + 1);
        let err = read_request(&mut over).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::FileTooLarge);
        assert_eq!(over.position(), MAX_REQUEST_BYTES as u64);

        let huge = Response::Error("x".repeat(2 * MAX_REQUEST_BYTES));
        let mut buf = Vec::new();
        write_frame(&mut buf, &huge).expect("write");
        let big: Response = read_frame(&mut std::io::Cursor::new(buf))
            .expect("responses are not capped")
            .expect("present");
        assert!(matches!(big, Response::Error(e) if e.len() == 2 * MAX_REQUEST_BYTES));
    }

    #[test]
    fn content_key_is_stable_and_input_sensitive() {
        let a = demo_job();
        let b = demo_job();
        assert_eq!(a.content_key(), b.content_key());
        assert_eq!(a.canonical_json(), b.canonical_json());

        let mut c = demo_job();
        c.seed += 1;
        assert_ne!(a.content_key(), c.content_key());
        let mut d = demo_job();
        d.spec = SchemeSpec::Baseline;
        assert_ne!(a.content_key(), d.content_key());
    }

    #[test]
    fn validate_bounds_cores() {
        for (cores, ok) in [
            (0, false),
            (1, true),
            (MAX_CORES, true),
            (MAX_CORES + 1, false),
            (1 << 40, false),
        ] {
            let mut job = demo_job();
            job.cfg.cores = cores;
            assert_eq!(job.validate().is_ok(), ok, "cores = {cores}");
        }
    }

    #[test]
    fn malformed_frame_is_invalid_data_not_panic() {
        let mut cursor = std::io::Cursor::new(b"{not json}\n".to_vec());
        let err = read_frame::<Request, _>(&mut cursor).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
