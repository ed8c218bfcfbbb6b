//! The fleet client: route each job to its node, read every node's
//! cache, fail over dead arcs, and run grids from one shared cursor.
//!
//! [`FleetClient::submit`] is the one way a job leaves a process, and
//! [`FleetClient::run_grid`] runs a grid's cells over the same per-cell
//! path; a single `nomad-serve` is a fleet of one. Cells are pure and
//! content-addressed, so it never matters *which* node (or process)
//! computes one: rows are **byte-identical at any fleet size, any
//! `jobs` width, with or without injected faults**. Per cell:
//!
//! 1. **Route:** a `submit` job goes to its content key's ring owner
//!    ([`Membership::route`]); a grid cell starts at its worker's node.
//! 2. **Breaker gate:** a node whose breaker is open loses the cell to
//!    the next allowed slot, if there is one (the breaker is advisory;
//!    death is the ladder's call).
//! 3. **Fetch before compute:** any *other* alive node with a closed
//!    breaker whose cache holds the report hands it over in one `Fetch`
//!    exchange, on the heartbeat's short budgets; a transport error or
//!    timeout is a miss, never a node failure.
//! 4. **The node's ladder** ([`nomad_serve::submit_ladder`]), over a
//!    connection from the node's idle pool; it stops early once the
//!    caller is cancelled or the node is declared dead elsewhere. Its
//!    outcome feeds the node's breaker ([`Membership::record_outcome`]).
//! 5. **Fail over:** a node whose ladder gives up is declared dead
//!    ([`Membership::mark_dead`]) and the cell re-routes; a node that
//!    keeps shedding is routed around.
//! 6. **Degrade**, without a budget only: with every node dead or
//!    shedding the cell runs in-process (`resilience.local_fallbacks`),
//!    as does a cell a node `Failed` or shed. A budgeted job comes back
//!    as the fleet left it: `Expired`, `Overloaded`, `Failed`, or the
//!    last node's transport error.
//!
//! **Grids** run from one shared cursor, as `par::run_cells` runs them
//! in-process: `jobs` workers claim cells in grid order, and worker `t`
//! starts each cell it claims at the `t`-th alive node, so in-flight
//! cells spread over the nodes the way the workers do. The ring still
//! re-places a cell whose node dies (step 5). A heartbeat thread pings
//! the nodes while the workers run; fault site `fleet.member` turns a
//! heartbeat probe into a miss.

use crate::member::{BreakerState, FleetConfig, Membership};
use nomad_serve::proto::{JobSpec, Response};
use nomad_serve::{submit_ladder, Client, ClientConfig};
use nomad_sim::RunReport;
use nomad_types::CancelToken;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How many `Overloaded` answers a node's ladder absorbs (sleeping the
/// server's retry-after hint each time) before the cell is routed
/// around that node. Small on purpose: past a few rejections the right
/// move is rerouting, not waiting.
const LADDER_OVERLOAD_RETRIES: u32 = 8;

/// A handle on one fleet of nomad-serve nodes: routing state, the
/// budgets to reach them, and a pool of idle connections per node.
/// Reusable across jobs and grids, and shared by any number of threads.
pub struct FleetClient {
    members: Membership,
    cfg: FleetConfig,
    /// Idle connections per node: a job takes one (or its ladder opens
    /// one) and gives it back unless a transport error dropped it.
    idle: Vec<Mutex<Vec<Client>>>,
}

impl std::fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetClient")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl FleetClient {
    /// A fleet over `addrs` with environment-derived budgets
    /// ([`FleetConfig::from_env`]).
    pub fn new(addrs: &[String]) -> Self {
        Self::with_config(addrs, FleetConfig::from_env())
    }

    /// A fleet over `addrs` with explicit budgets.
    pub fn with_config(addrs: &[String], cfg: FleetConfig) -> Self {
        nomad_serve::mirror_faults_to_obs();
        FleetClient {
            members: Membership::with_breakers(addrs, cfg.vnodes, cfg.breaker.clone()),
            idle: addrs.iter().map(|_| Mutex::new(Vec::new())).collect(),
            cfg,
        }
    }

    /// The live membership view (routing, health) of this fleet.
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// Submit one job to the fleet (see the module docs for the path).
    /// Without a `budget` the answer is a `Report` (from a node, a
    /// peer's cache or an in-process run) or the error of a panicking
    /// local run. With one, no connect, exchange or sleep outlives it
    /// (peer fetches included) and nothing runs in-process: a job no
    /// node answered in time comes back `Expired`, `Overloaded`,
    /// `Failed` or as the last node's transport error.
    pub fn submit(&self, job: &JobSpec, budget: Option<Duration>) -> io::Result<Response> {
        let deadline = budget.map(|budget| Instant::now() + budget);
        self.run_cell(job, None, deadline, &CancelToken::new())
    }

    /// Run a grid across the fleet; results in input order. `jobs`
    /// workers claim cells in grid order from one shared cursor, and
    /// each cell takes [`submit`]'s path (without a budget), starting
    /// at its worker's node: worker `t` starts at the `t`-th alive node
    /// (modulo the alive count, read at each claim). The first
    /// unrecoverable cell fails the grid with its own error: it stops
    /// the grid (unclaimed cells are not submitted) but leaves `cancel`
    /// alone, which only the caller latches.
    ///
    /// [`submit`]: Self::submit
    pub fn run_grid(
        &self,
        cells: Vec<JobSpec>,
        jobs: usize,
        cancel: &CancelToken,
    ) -> io::Result<Vec<RunReport>> {
        if self.members.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet has no nodes (empty address list)",
            ));
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<RunReport>> = cells.iter().map(|_| OnceLock::new()).collect();
        let failed = OnceLock::new();
        let worker = |t: usize| {
            while !cancel.is_cancelled() && failed.get().is_none() {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = cells.get(idx) else { return };
                let alive = self.members.alive_slots();
                let home = (!alive.is_empty()).then(|| alive[t % alive.len()]);
                match self.run_cell(job, home, None, cancel) {
                    Ok(Response::Report { report, .. }) => {
                        let _ = slots[idx].set(report);
                    }
                    // A cancel fails no cell: it is the caller's to report.
                    Err(_) if cancel.is_cancelled() => return,
                    Ok(other) => {
                        let _ =
                            failed.set(io::Error::other(format!("unexpected response: {other:?}")));
                    }
                    Err(e) => {
                        let _ = failed.set(e);
                    }
                }
            }
        };
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if self.members.len() > 1 {
                scope.spawn(|| heartbeat_loop(self, &done));
            }
            let workers: Vec<_> = (0..jobs.max(1).min(cells.len().max(1)))
                .map(|t| scope.spawn(move || worker(t)))
                .collect();
            // The heartbeat stops once every worker has joined, and only
            // then does a worker's panic re-raise, or the scope would
            // wait on the heartbeat forever.
            let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            done.store(true, Ordering::Relaxed);
            if let Some(panic) = joined.into_iter().find_map(Result::err) {
                std::panic::resume_unwind(panic);
            }
        });
        if let Some(error) = failed.into_inner() {
            return Err(error);
        }
        // Only a cancel leaves a slot empty.
        slots
            .into_iter()
            .map(OnceLock::into_inner)
            .collect::<Option<_>>()
            .ok_or_else(|| io::ErrorKind::Interrupted.into())
    }

    /// The per-cell path (module docs, steps 1–6), starting at `home`
    /// when given, else at the ring owner.
    fn run_cell(
        &self,
        job: &JobSpec,
        home: Option<usize>,
        deadline: Option<Instant>,
        cancel: &CancelToken,
    ) -> io::Result<Response> {
        nomad_obs::fleet().cells_routed.inc();
        let key = job.content_key();
        let canonical = job.canonical_json();
        let mut target = home.or_else(|| self.members.route(key));
        let tried = target.is_some();
        let mut last = Err(io::Error::new(
            io::ErrorKind::NotConnected,
            "every node of the fleet is dead",
        ));
        // Each pass answers the cell, or kills or routes around its
        // node; `len` + 1 passes cover the fleet.
        for _ in 0..=self.members.len() {
            let Some(mut node) = target else { break };
            if !self.members.breaker_allows(node) {
                node = self.members.route_around(node).unwrap_or(node);
            }
            if let Some(report) = self.fetch_from_peers(key, &canonical, node, deadline) {
                return Ok(Response::Report {
                    cached: true,
                    report,
                });
            }
            let sent = Instant::now();
            let mut conn = self.idle[node].lock().expect("pool lock").pop();
            let outcome = submit_ladder(
                &mut conn,
                self.members.addr(node),
                job,
                deadline,
                LADDER_OVERLOAD_RETRIES,
                &|| cancel.is_cancelled() || !self.members.is_alive(node),
                &self.cfg.client,
            );
            if let Some(conn) = conn {
                self.idle[node].lock().expect("pool lock").push(conn);
            }
            if cancel.is_cancelled() {
                // Says nothing about the node: leave its breaker be.
                return Err(io::ErrorKind::Interrupted.into());
            }
            // A job-level failure is not a node-health signal; shedding
            // and silence are.
            let answered = matches!(
                outcome,
                Ok(Response::Report { .. } | Response::Failed { .. })
            );
            self.members.record_outcome(node, answered, sent.elapsed());
            match &outcome {
                Ok(Response::Overloaded { .. }) => {
                    // Shedding past the ladder's hint budget: give the
                    // node's arc a breather rather than its life.
                    target = self.members.route_around(node);
                }
                Err(_) => {
                    self.fail_node(node, "unreachable past the reconnect budget");
                    target = self.members.route(key);
                }
                Ok(Response::Failed { error, .. } | Response::Expired { error })
                    if deadline.is_none() =>
                {
                    eprintln!("nomad-fleet: node {node}: {error}; running the job locally");
                    return run_locally(job, cancel);
                }
                _ => return outcome,
            }
            last = outcome;
        }
        if deadline.is_some() {
            return last;
        }
        // A fleet that was dead before this cell was already announced.
        if tried {
            let why = if last.is_ok() { "shedding" } else { "dead" };
            eprintln!(
                "nomad-fleet: every node is {why}; running {}/{} locally",
                job.profile.name,
                job.spec.label()
            );
        }
        run_locally(job, cancel)
    }

    /// Ask every alive node except `target` whose breaker is closed
    /// for this job's report, one `Fetch` each, until one hands it
    /// over. Each exchange runs on the control budgets, within
    /// `deadline`. Transport errors and timeouts are cache misses, not
    /// health signals.
    fn fetch_from_peers(
        &self,
        key: u64,
        canonical: &str,
        target: usize,
        deadline: Option<Instant>,
    ) -> Option<RunReport> {
        for peer in self.members.alive_slots() {
            if peer == target || self.members.breaker(peer).state() != BreakerState::Closed {
                continue;
            }
            if deadline.is_some_and(|d| d <= Instant::now()) {
                return None;
            }
            let cfg = self.control_cfg().within(deadline);
            let pooled = self.idle[peer].lock().expect("pool lock").pop();
            let client = match pooled {
                Some(client) => client.set_io_timeout(cfg.io_timeout).map(|()| client),
                None => Client::connect_with(self.members.addr(peer), &cfg),
            };
            let Ok(mut client) = client else {
                continue;
            };
            let Ok(fetched) = client.fetch(key, canonical) else {
                continue;
            };
            self.idle[peer].lock().expect("pool lock").push(client);
            if let Some(report) = fetched {
                nomad_obs::fleet().remote_fetches.inc();
                return Some(report);
            }
        }
        None
    }

    /// Budgets of the control exchanges (heartbeat pings, peer
    /// fetches), which a healthy node answers at once: a stalled node
    /// costs each a short wait, never the full transport timeout.
    fn control_cfg(&self) -> ClientConfig {
        let client = &self.cfg.client;
        ClientConfig {
            connect_timeout: client.connect_timeout.min(Duration::from_millis(500)),
            io_timeout: Some(Duration::from_millis(1_000)),
            ..client.clone()
        }
    }

    /// Declare node `idx` dead: one `fleet.failovers` total, whichever
    /// of a ladder or the heartbeat gets here first. Its arc goes to
    /// the survivors, and a cell in flight there re-routes once its
    /// ladder stops.
    fn fail_node(&self, idx: usize, why: &str) {
        if self.members.mark_dead(idx) {
            eprintln!(
                "nomad-fleet: node {idx} ({}) declared dead ({why}); reassigning its arc",
                self.members.addr(idx)
            );
        }
    }
}

/// Degraded-mode execution: run in-process, count one
/// `resilience.local_fallbacks`, catch panics so one bad cell reports
/// an error instead of tearing down the caller.
fn run_locally(job: &JobSpec, cancel: &CancelToken) -> io::Result<Response> {
    nomad_obs::resilience().local_fallbacks.inc();
    let run = std::panic::AssertUnwindSafe(|| job.run_local_cancellable(cancel));
    let report = std::panic::catch_unwind(run)
        .map_err(|_| io::Error::other("local fallback panicked"))?
        .ok_or(io::ErrorKind::Interrupted)?;
    Ok(Response::Report {
        cached: false,
        report,
    })
}

/// Ping every alive node each interval until `done`;
/// `fleet.heartbeat_misses` consecutive failures (or injected
/// `fleet.member` faults) past the threshold fail the node over — so
/// even a node nobody is currently submitting to loses its arc
/// promptly.
fn heartbeat_loop(fleet: &FleetClient, done: &AtomicBool) {
    let interval = fleet.cfg.heartbeat_interval;
    let threshold = fleet.cfg.heartbeat_misses;
    let running = || !done.load(Ordering::Relaxed);
    let hb_cfg = fleet.control_cfg();
    while running() {
        // Sleep in small slices so the grid's end is noticed promptly
        // even under slow heartbeat cadences.
        let beat = Instant::now() + interval;
        while running() && Instant::now() < beat {
            std::thread::sleep(
                beat.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5)),
            );
        }
        if !running() {
            return;
        }
        for idx in fleet.members.alive_slots() {
            // Fault site `fleet.member`: an injected fault is a missed
            // heartbeat, exercising failover without killing anything.
            let miss = if nomad_faults::inject("fleet.member").is_some() {
                true
            } else {
                match Client::connect_with(fleet.members.addr(idx), &hb_cfg) {
                    Ok(mut c) => c.ping().is_err(),
                    Err(_) => true,
                }
            };
            if miss {
                if fleet.members.heartbeat_miss(idx, threshold) {
                    fleet.fail_node(idx, "missed heartbeats past the threshold");
                }
            } else {
                fleet.members.heartbeat_ok(idx);
            }
        }
    }
}
