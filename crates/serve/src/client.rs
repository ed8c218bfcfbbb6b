//! Thin synchronous client for the nomad-serve protocol, and the one
//! per-node recovery ladder every off-process job rides.
//!
//! # Timeouts and reconnection
//!
//! Connections are opened with a connect timeout and carry read/write
//! timeouts, so a hung or unreachable server fails a request instead
//! of parking a sweep thread forever. [`submit_ladder`] is the ladder
//! over one node's connection slot: transport errors are transient —
//! reconnect with [`ClientConfig::backoff`] and resubmit, safe because
//! jobs are idempotent and content-addressed — `Overloaded` hints are
//! slept and retried a bounded number of times, and an optional
//! deadline caps every step by the time left. Policy lives above it:
//! the fleet client (`nomad_fleet::FleetClient::submit`, and
//! `run_grid` on top of it) routes each job (a grid cell starts at its
//! worker's node), gates it on the node's breaker, fails a node over
//! once its ladder gives up, and past the last node degrades to
//! in-process execution. A single server is a fleet of one.
//!
//! All budgets come from [`ClientConfig`] (environment-overridable;
//! see its field docs).

use crate::proto::{self, JobSpec, Request, Response, StatsSnapshot};
use nomad_sim::RunReport;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Longest single backpressure sleep [`submit_ladder`] will honour, so
/// a hostile or buggy `retry_after_ms` cannot park a client thread for
/// minutes.
const MAX_REJECTED_SLEEP_MS: u64 = 1_000;

/// Connection and recovery budgets for [`Client`] and the ladder built
/// on it ([`submit_ladder`]).
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
    /// Reconnect attempts per job before the ladder gives up on the
    /// node and the fleet client declares it dead
    /// (`NOMAD_SERVE_RECONNECTS`, default 4); past the last node the
    /// cell runs in-process.
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

    /// These budgets with the connect and I/O timeouts capped by the
    /// time left before `deadline` (at least 1 ms; unchanged without
    /// one).
    pub fn within(&self, deadline: Option<Instant>) -> ClientConfig {
        let mut cfg = self.clone();
        if let Some(deadline) = deadline {
            let left = time_left(deadline).max(Duration::from_millis(1));
            cfg.connect_timeout = cfg.connect_timeout.min(left);
            cfg.io_timeout = Some(cfg.io_timeout.map_or(left, |io| io.min(left)));
        }
        cfg
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
        let mut err = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
        let stream = addr
            .to_socket_addrs()?
            .find_map(|a| {
                TcpStream::connect_timeout(&a, cfg.connect_timeout)
                    .map_err(|e| err = e)
                    .ok()
            })
            .ok_or(err)?;
        stream.set_nodelay(true)?;
        let client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        client.set_io_timeout(cfg.io_timeout)?;
        Ok(client)
    }

    /// Set the read and write timeout of the exchanges from now on
    /// (`None` blocks forever).
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)
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

    /// Submit one job: one exchange, no retry (see [`submit_ladder`]).
    pub fn submit(&mut self, job: &JobSpec) -> io::Result<Response> {
        self.request(&Request::Submit {
            job: job.clone(),
            deadline_ms: None,
        })
    }

    /// Submit one job with a relative deadline budget (milliseconds
    /// from server receipt); the server sheds it — `Expired` — instead
    /// of executing it once the budget cannot be met. One exchange, no
    /// retry (see [`submit_ladder`]).
    pub fn submit_with_deadline(
        &mut self,
        job: &JobSpec,
        budget: Duration,
    ) -> io::Result<Response> {
        self.request(&Request::Submit {
            job: job.clone(),
            deadline_ms: Some(budget.as_millis() as u64),
        })
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

/// Submit `job` to the node at `addr` through the node's recovery
/// ladder — the one way a job reaches a node — over its connection
/// slot `conn` (dropped on a transport error, refilled by the next
/// connect):
///
/// * a transport error sleeps [`ClientConfig::backoff`], reconnects
///   (counting `resilience.serve_reconnects`) and resubmits — safe, as
///   jobs are idempotent and content-addressed — until
///   `cfg.reconnect_attempts` is spent, then returns the error;
/// * an `Overloaded { retry_after_ms }` answer sleeps the hint (at most
///   1 s) and resubmits, up to `overloads` answers, then is returned.
///
/// With a `deadline`, every connect, exchange and sleep is capped by
/// the time left when it starts (a connection carries that cap as its
/// I/O timeout), each `Submit` frame carries only the budget left,
/// and a sleep that would outlive the deadline ends the call at once
/// with a client-side `Response::Expired`.
///
/// `give_up` is asked before every sleep and every connect; once it
/// says so (the caller was cancelled, or the node was declared dead
/// elsewhere) the call ends with an `Interrupted` error.
pub fn submit_ladder(
    conn: &mut Option<Client>,
    addr: &str,
    job: &JobSpec,
    deadline: Option<Instant>,
    overloads: u32,
    give_up: &dyn Fn() -> bool,
    cfg: &ClientConfig,
) -> io::Result<Response> {
    let (mut failures, mut sheds, mut pause) = (0u32, 0u32, Duration::ZERO);
    loop {
        if deadline.is_some_and(|d| pause >= time_left(d)) {
            return Ok(expired());
        }
        if give_up() {
            return Err(io::ErrorKind::Interrupted.into());
        }
        std::thread::sleep(pause);
        if give_up() {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let step = cfg.within(deadline);
        let client = match conn {
            Some(client) => client.set_io_timeout(step.io_timeout).map(|()| client),
            None => Client::connect_with(addr, &step).map(|client| {
                if failures > 0 {
                    nomad_obs::resilience().serve_reconnects.inc();
                }
                conn.insert(client)
            }),
        };
        let answer = client.and_then(|client| {
            client.request(&Request::Submit {
                job: job.clone(),
                deadline_ms: deadline.map(|d| time_left(d).as_millis() as u64),
            })
        });
        pause = match answer {
            Ok(Response::Overloaded { retry_after_ms }) => {
                sheds += 1;
                if sheds >= overloads {
                    return Ok(Response::Overloaded { retry_after_ms });
                }
                Duration::from_millis(retry_after_ms.min(MAX_REJECTED_SLEEP_MS))
            }
            Ok(other) => return Ok(other),
            Err(e) => {
                // Unknown connection state: drop it and go around.
                *conn = None;
                failures += 1;
                // Past the deadline the budget ran out, whatever the
                // node did: the next pass ends the call as `Expired`.
                let spent = deadline.is_some_and(|d| time_left(d).is_zero());
                if failures > cfg.reconnect_attempts && !spent {
                    return Err(e);
                }
                cfg.backoff(job.content_key(), failures)
            }
        };
    }
}

fn time_left(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

fn expired() -> Response {
    Response::Expired {
        error: "deadline expired client-side: budget exhausted across retries".to_string(),
    }
}

/// [`submit_ladder`] under a hard client-side `budget`, absorbing
/// `Overloaded` hints until the budget runs out. A shim for callers
/// that keep their own connection slot per node (the repository
/// benchmark's `serve_ladder`); everything else submits through
/// `nomad_fleet::FleetClient::submit`.
pub fn submit_within_deadline(
    conn: &mut Option<Client>,
    addr: &str,
    job: &JobSpec,
    budget: Duration,
    cfg: &ClientConfig,
) -> io::Result<Response> {
    let deadline = Instant::now() + budget;
    submit_ladder(conn, addr, job, Some(deadline), u32::MAX, &|| false, cfg)
}
