//! Thin synchronous client for the nomad-serve protocol.
//!
//! # Timeouts and reconnection
//!
//! Connections are opened with a connect timeout and carry read/write
//! timeouts, so a hung or unreachable server fails a request instead
//! of parking a sweep thread forever. Grids are not run from here: the
//! fleet router (`nomad_fleet::FleetClient::run_grid`) drives every
//! off-process sweep, a single server being a fleet of one. Its
//! per-node ladder treats transport errors as transient — reconnect
//! with [`ClientConfig::backoff`] and resubmit, safe because jobs are
//! idempotent and content-addressed — and past the reconnect budget
//! declares the node dead and degrades to in-process execution.
//! [`submit_within_deadline`] is the same ladder for one job under a
//! hard client-side budget.
//!
//! All budgets come from [`ClientConfig`] (environment-overridable;
//! see its field docs).

use crate::proto::{self, JobSpec, Request, Response, StatsSnapshot};
use nomad_sim::RunReport;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest single backpressure sleep [`Client::submit_retrying`] will
/// honour, so a hostile or buggy `retry_after_ms` cannot park a client
/// thread for minutes.
const MAX_REJECTED_SLEEP_MS: u64 = 1_000;

/// Connection and recovery budgets for [`Client`] and the reconnect
/// ladders built on it (the fleet router's, [`submit_within_deadline`]).
///
/// [`ClientConfig::from_env`] reads each field from an environment
/// variable (falling back to the default on unset or garbage), so
/// sweeps can tune the budgets without code changes.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout (`NOMAD_SERVE_CONNECT_TIMEOUT_MS`, default
    /// 5000).
    pub connect_timeout: Duration,
    /// Per-request read/write timeout (`NOMAD_SERVE_IO_TIMEOUT_MS`,
    /// default 600 000 — simulations are slow, transport stalls are
    /// not; `0` disables). `None` blocks forever.
    pub io_timeout: Option<Duration>,
    /// Reconnect attempts per job before the fleet router declares the
    /// node dead (`NOMAD_SERVE_RECONNECTS`, default 4); past the last
    /// node the cell runs in-process.
    pub reconnect_attempts: u32,
    /// Base reconnect backoff (`NOMAD_SERVE_BACKOFF_MS`, default 50);
    /// attempt `n` sleeps `base · 2^(n-1)` + jitter, capped by
    /// [`backoff_cap`](Self::backoff_cap).
    pub backoff_base: Duration,
    /// Ceiling on a single backoff sleep (2 s; not env-tunable).
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(5_000),
            io_timeout: Some(Duration::from_millis(600_000)),
            reconnect_attempts: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(2_000),
        }
    }
}

impl ClientConfig {
    /// The defaults, overridden by any of the documented
    /// `NOMAD_SERVE_*` environment variables that are set and parse
    /// (shared semantics in [`nomad_types::env`]: garbage warns and
    /// falls back, out-of-range clamps).
    pub fn from_env() -> Self {
        use nomad_types::env;
        let d = ClientConfig::default();
        let io_default = d.io_timeout.map_or(0, |t| t.as_millis() as u64);
        let io_ms = env::u64_or("NOMAD_SERVE_IO_TIMEOUT_MS", io_default);
        ClientConfig {
            connect_timeout: env::ms_clamped(
                "NOMAD_SERVE_CONNECT_TIMEOUT_MS",
                d.connect_timeout.as_millis() as u64,
                1,
                u64::MAX,
            ),
            // 0 disables the I/O timeout entirely.
            io_timeout: (io_ms > 0).then(|| Duration::from_millis(io_ms)),
            reconnect_attempts: env::u64_clamped(
                "NOMAD_SERVE_RECONNECTS",
                u64::from(d.reconnect_attempts),
                0,
                u64::from(u32::MAX),
            ) as u32,
            backoff_base: env::ms_clamped(
                "NOMAD_SERVE_BACKOFF_MS",
                d.backoff_base.as_millis() as u64,
                1,
                u64::MAX,
            ),
            backoff_cap: d.backoff_cap,
        }
    }

    /// Backoff before reconnect attempt `attempt` (1-based):
    /// exponential from [`backoff_base`](Self::backoff_base), capped,
    /// plus deterministic jitter drawn from `(salt, attempt)` — two
    /// threads hammering a recovering server spread out, yet a rerun
    /// of the same sweep sleeps identically.
    pub fn backoff(&self, salt: u64, attempt: u32) -> Duration {
        let base = self.backoff_base.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let capped = exp.min(self.backoff_cap.as_millis() as u64);
        let jitter = nomad_faults::splitmix64(salt ^ u64::from(attempt)) % base.max(1);
        Duration::from_millis(capped + jitter)
    }
}

/// One connection to a nomad-serve instance. Requests on a connection
/// are synchronous; open one client per concurrent job.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server with the environment-derived
    /// [`ClientConfig`] budgets (connect timeout, I/O timeouts).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, &ClientConfig::from_env())
    }

    /// Connect with explicit budgets: every resolved address is tried
    /// with `cfg.connect_timeout`, and the stream carries
    /// `cfg.io_timeout` as its read and write timeout so a hung server
    /// errors out instead of blocking a sweep thread forever.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, cfg: &ClientConfig) -> io::Result<Self> {
        let mut last_err = None;
        let mut stream = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, cfg.connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
            })
        })?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(cfg.io_timeout)?;
        stream.set_write_timeout(cfg.io_timeout)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request and wait for its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        proto::write_frame(&mut self.writer, request)?;
        proto::read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-request",
            )
        })
    }

    /// Submit one job (no backpressure retry; see
    /// [`submit_retrying`](Self::submit_retrying)).
    pub fn submit(&mut self, job: &JobSpec) -> io::Result<Response> {
        self.request(&Request::Submit(job.clone()))
    }

    /// Submit one job with a relative deadline budget (milliseconds
    /// from server receipt); the server sheds it — `Expired` — instead
    /// of executing it once the budget cannot be met. No backpressure
    /// retry; see [`submit_within_deadline`] for the budget-splitting
    /// retry/reconnect driver.
    pub fn submit_with_deadline(
        &mut self,
        job: &JobSpec,
        budget: Duration,
    ) -> io::Result<Response> {
        self.request(&Request::SubmitDeadline {
            job: job.clone(),
            deadline_ms: budget.as_millis() as u64,
        })
    }

    /// Submit, honouring `Overloaded { retry_after_ms }` backpressure
    /// up to `max_attempts` total tries. The advertised sleep is capped
    /// at 1 s per attempt (a buggy or hostile server cannot park this
    /// thread for minutes), and the final failed attempt returns
    /// immediately instead of sleeping a backoff nobody will use.
    pub fn submit_retrying(&mut self, job: &JobSpec, max_attempts: u32) -> io::Result<Response> {
        let max_attempts = max_attempts.max(1);
        let mut last = None;
        for attempt in 1..=max_attempts {
            match self.submit(job)? {
                Response::Overloaded { retry_after_ms } => {
                    last = Some(Response::Overloaded { retry_after_ms });
                    if attempt < max_attempts {
                        std::thread::sleep(Duration::from_millis(
                            retry_after_ms.min(MAX_REJECTED_SLEEP_MS),
                        ));
                    }
                }
                other => return Ok(other),
            }
        }
        Ok(last.expect("at least one attempt"))
    }

    /// Ask whether the server's cache holds a completed result for
    /// this `(key, canonical)` identity. A pure read — never executes
    /// or coalesces (see [`Request::Probe`]).
    pub fn probe(&mut self, key: u64, canonical: &str) -> io::Result<bool> {
        match self.request(&Request::Probe {
            key,
            canonical: canonical.to_string(),
        })? {
            Response::ProbeResult { hit } => Ok(hit),
            other => Err(unexpected("ProbeResult", &other)),
        }
    }

    /// Fetch the cached report for this `(key, canonical)` identity
    /// without executing anything; `Ok(None)` when the server has no
    /// completed entry (see [`Request::Fetch`]).
    pub fn fetch(&mut self, key: u64, canonical: &str) -> io::Result<Option<RunReport>> {
        match self.request(&Request::Fetch {
            key,
            canonical: canonical.to_string(),
        })? {
            Response::Report { report, .. } => Ok(Some(report)),
            Response::NotCached => Ok(None),
            other => Err(unexpected("Report or NotCached", &other)),
        }
    }

    /// Fetch service statistics.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        match self.request(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {wanted}, got {got:?}"),
    )
}

/// Submit one job under a hard **client-side** deadline, splitting the
/// remaining budget across backpressure retries and reconnects: every
/// sleep (backoff or retry-after) is capped by the time left, every
/// reconnect uses a connect timeout capped by the time left, and each
/// submission hands the server only the *remaining* budget — so the
/// total spent across all attempts never exceeds `budget`.
///
/// `conn` is the caller's reusable connection slot (dropped on
/// transport errors, re-established lazily, exactly like the fleet
/// router's per-node slots). When the budget runs out client-side the call returns a
/// fabricated `Response::Expired` — the caller cannot distinguish who
/// shed first, and does not need to. Transport errors past
/// `cfg.reconnect_attempts` surface as the underlying `io::Error`.
pub fn submit_within_deadline(
    conn: &mut Option<Client>,
    addr: &str,
    job: &JobSpec,
    budget: Duration,
    cfg: &ClientConfig,
) -> io::Result<Response> {
    let deadline = std::time::Instant::now() + budget;
    let salt = job.content_key();
    let mut attempt = 0u32;
    let expired = || {
        Ok(Response::Expired {
            error: "deadline expired client-side: budget exhausted across retries".to_string(),
        })
    };
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return expired();
        }
        if conn.is_none() {
            let mut connect_cfg = cfg.clone();
            connect_cfg.connect_timeout = cfg.connect_timeout.min(remaining);
            match Client::connect_with(addr, &connect_cfg) {
                Ok(c) => {
                    if attempt > 0 {
                        nomad_obs::resilience().serve_reconnects.inc();
                    }
                    *conn = Some(c);
                }
                Err(e) => {
                    attempt += 1;
                    if attempt > cfg.reconnect_attempts {
                        return Err(e);
                    }
                    std::thread::sleep(cfg.backoff(salt, attempt).min(remaining));
                    continue;
                }
            }
        }
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return expired();
        }
        let client = conn.as_mut().expect("connection established above");
        match client.submit_with_deadline(job, remaining) {
            Ok(Response::Overloaded { retry_after_ms }) => {
                let sleep = Duration::from_millis(retry_after_ms.min(MAX_REJECTED_SLEEP_MS));
                if sleep >= deadline.saturating_duration_since(std::time::Instant::now()) {
                    // The advertised backoff alone outlives the budget.
                    return expired();
                }
                std::thread::sleep(sleep);
            }
            Ok(other) => return Ok(other),
            Err(e) => {
                // Transport error mid-request: unknown connection
                // state, drop it and go around the ladder.
                *conn = None;
                attempt += 1;
                if attempt > cfg.reconnect_attempts {
                    return Err(e);
                }
                std::thread::sleep(cfg.backoff(salt, attempt).min(remaining));
            }
        }
    }
}
