//! The fleet client: route each job to its node, read every node's
//! cache, fail over dead arcs — and, for grids, steal from stragglers.
//!
//! [`FleetClient::submit`] is the one way a job leaves a process, and
//! [`FleetClient::run_grid`] runs a grid's cells over the same per-cell
//! path; a single `nomad-serve` is a fleet of one. Cells are pure and
//! content-addressed, so it never matters *which* node (or process)
//! computes one: rows are **byte-identical at any fleet size, any
//! `jobs` width, with or without injected faults**. Per cell:
//!
//! 1. **Route** by the content key on the ring ([`Membership::route`]);
//!    a grid worker starts at its home node (the cell's owner, or the
//!    idle node that stole it).
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
//! **Grids** queue each cell at its ring owner. A worker whose home
//! queue is empty steals the *tail* of the longest alive peer queue
//! for its idle home node (harmless duplicate work: jobs are idempotent
//! and content-keyed), and a dead node's queue moves to the survivors.
//! Fault site `fleet.steal` abandons a steal attempt; `fleet.member`
//! turns a heartbeat probe into a miss.

use crate::member::{BreakerState, FleetConfig, Membership};
use nomad_serve::proto::{JobSpec, Response};
use nomad_serve::{submit_ladder, Client, ClientConfig};
use nomad_sim::RunReport;
use nomad_types::CancelToken;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
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
        nomad_obs::fleet().cells_routed.inc();
        let deadline = budget.map(|budget| Instant::now() + budget);
        self.run_cell(job, None, deadline, &CancelToken::new())
    }

    /// Run a grid across the fleet; results in input order. The first
    /// unrecoverable cell fails the grid with its own error: it stops
    /// the grid (queued siblings are not submitted) but leaves `cancel`
    /// alone, which only the caller latches. Every cell takes
    /// [`submit`]'s path (without a budget) from a pool of `jobs`
    /// workers.
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
        let total = cells.len();
        let state = RunState {
            fleet: self,
            queues: (0..self.members.len())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            remaining: AtomicUsize::new(total),
            results: Mutex::new((0..total).map(|_| None).collect()),
            failed: OnceLock::new(),
        };
        // Route every cell to its owner's queue, in submission order
        // (deterministic ring + deterministic keys = deterministic
        // placement). A fleet already dead queues everything at slot 0
        // for the degraded path.
        for (idx, job) in cells.into_iter().enumerate() {
            let owner = self.members.route(job.content_key()).unwrap_or(0);
            nomad_obs::fleet().cells_routed.inc();
            state.queues[owner]
                .lock()
                .expect("queue lock")
                .push_back(WorkItem { idx, job });
        }

        let workers = jobs.max(1).min(total.max(1));
        std::thread::scope(|scope| {
            let state = &state;
            if self.members.len() > 1 {
                scope.spawn(move || heartbeat_loop(state));
            }
            for t in 0..workers {
                scope.spawn(move || worker_loop(t, state, cancel));
            }
        });

        if let Some(error) = state.failed.into_inner() {
            return Err(io::Error::other(error));
        }
        let results = state.results.into_inner().expect("threads joined");
        results
            .into_iter()
            .map(|r| r.expect("every cell resolved").map_err(io::Error::other))
            .collect()
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
    /// the survivors, and a running grid moves its queue after it.
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

/// One routed cell: the grid index it must answer under, plus the job.
struct WorkItem {
    idx: usize,
    job: JobSpec,
}

/// Shared state of one in-flight grid run.
struct RunState<'a> {
    fleet: &'a FleetClient,
    /// One queue per configured slot (a dead slot's queue moves to the
    /// survivors; with none left the degraded path drains it).
    queues: Vec<Mutex<VecDeque<WorkItem>>>,
    /// Cells not yet resolved into `results`.
    remaining: AtomicUsize,
    /// Each cell's outcome, by grid index.
    results: Mutex<Vec<Option<Result<RunReport, String>>>>,
    /// The first cell failure not caused by the caller's cancel: it
    /// stops the grid, and the grid fails with it.
    failed: OnceLock<String>,
}

impl RunState<'_> {
    fn push_result(&self, idx: usize, outcome: Result<RunReport, String>) {
        self.results.lock().expect("results lock")[idx] = Some(outcome);
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Run one cell through the fleet client's per-cell path and record
    /// its outcome; an unrecoverable cell stops the grid, so sibling
    /// workers stop feeding a doomed grid.
    fn run(&self, item: WorkItem, home: Option<usize>, cancel: &CancelToken) {
        let outcome = match self.fleet.run_cell(&item.job, home, None, cancel) {
            Ok(Response::Report { report, .. }) => Ok(report),
            Ok(other) => Err(format!("unexpected response: {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = &outcome {
            if !cancel.is_cancelled() {
                let _ = self.failed.set(e.clone());
            }
        }
        self.push_result(item.idx, outcome);
    }

    /// Move the cells queued at dead nodes to their owners among the
    /// survivors. With no survivor they stay queued, and the degraded
    /// path drains them.
    fn reroute_orphans(&self) {
        let members = &self.fleet.members;
        if members.alive_count() == 0 {
            return;
        }
        for (idx, queue) in self.queues.iter().enumerate() {
            if members.is_alive(idx) {
                continue;
            }
            let orphans: Vec<WorkItem> = queue.lock().expect("queue lock").drain(..).collect();
            for item in orphans {
                let owner = members.route(item.job.content_key()).unwrap_or(idx);
                self.queues[owner]
                    .lock()
                    .expect("queue lock")
                    .push_back(item);
            }
        }
    }
}

/// One grid worker: drain the home queue, steal from stragglers,
/// degrade to local execution once the fleet is gone.
fn worker_loop(t: usize, state: &RunState, cancel: &CancelToken) {
    let members = &state.fleet.members;
    loop {
        if state.remaining.load(Ordering::SeqCst) == 0 {
            return;
        }
        if cancel.is_cancelled() || state.failed.get().is_some() {
            // The caller cancelled or a cell failed: flush everything
            // still queued as cancelled; in-flight cells on sibling
            // workers resolve themselves.
            let mut flushed = false;
            for q in &state.queues {
                while let Some(item) = q.lock().expect("queue lock").pop_front() {
                    state.push_result(item.idx, Err("cancelled before submission".to_string()));
                    flushed = true;
                }
            }
            if !flushed {
                std::thread::sleep(Duration::from_millis(1));
            }
            continue;
        }
        state.reroute_orphans();
        let alive = members.alive_slots();
        if alive.is_empty() {
            // Degraded: the whole fleet is gone; drain any queue (each
            // cell's path runs it locally).
            let item = state
                .queues
                .iter()
                .find_map(|q| q.lock().expect("queue lock").pop_front());
            match item {
                Some(item) => state.run(item, None, cancel),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
            continue;
        }
        let home = alive[t % alive.len()];
        // Home work first… (popped in its own statement: the queue
        // lock must not be held while the cell runs, or workers sharing
        // this node serialize and moving a dead home's queue
        // self-deadlocks.)
        let item = state.queues[home].lock().expect("queue lock").pop_front();
        if let Some(item) = item {
            state.run(item, Some(home), cancel);
            continue;
        }
        // …then steal the tail of the longest alive peer queue for the
        // idle home node. Fault site `fleet.steal`: an injected fault
        // abandons this attempt (the owner keeps the cell).
        let victim = alive
            .iter()
            .copied()
            .filter(|&n| n != home)
            .map(|n| (state.queues[n].lock().expect("queue lock").len(), n))
            .filter(|&(len, _)| len > 0)
            .max();
        if let Some((_, victim)) = victim {
            if nomad_faults::inject("fleet.steal").is_some() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let stolen = state.queues[victim].lock().expect("queue lock").pop_back();
            if let Some(item) = stolen {
                nomad_obs::fleet().steals.inc();
                state.run(item, Some(home), cancel);
            }
            continue;
        }
        // Queues empty but cells still in flight elsewhere: wait for
        // either new work (a failover re-route) or completion.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Ping every alive node each interval until the grid is done;
/// `fleet.heartbeat_misses` consecutive failures (or injected
/// `fleet.member` faults) past the threshold fail the node over — so
/// even a node nobody is currently submitting to loses its arc
/// promptly.
fn heartbeat_loop(state: &RunState) {
    let fleet = state.fleet;
    let interval = fleet.cfg.heartbeat_interval;
    let threshold = fleet.cfg.heartbeat_misses;
    let running = || state.remaining.load(Ordering::SeqCst) > 0;
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
