//! The fleet router: shard a grid across nodes, read every node's
//! cache, steal from stragglers, fail over dead arcs.
//!
//! [`FleetClient::run_grid`] is the one remote grid executor: a single
//! `nomad-serve` is just a fleet of one. It holds the house oracle:
//! **byte-identical rows at any fleet size, any `jobs` width, with or
//! without injected faults** — because cells are pure and
//! content-addressed, it never matters *which* node (or which process)
//! computes one.
//!
//! Per cell, the pipeline is:
//!
//! 1. **Route.** The cell's content key places it on the consistent
//!    ring ([`Membership::route`]); its owner's queue receives it.
//! 2. **Probe before compute.** Before submitting to the owner, the
//!    worker probes every *other* alive node's cache (`Probe` frame);
//!    on a hit it fetches the finished report (`Fetch`) instead of
//!    computing — any node can answer any previously computed cell,
//!    regardless of ring placement. Probe/fetch transport errors are
//!    treated as misses, never as node failures.
//! 3. **Submit with the per-node ladder.** The owner gets the job via
//!    a recovery ladder scoped to that node: transport errors
//!    reconnect with capped exponential backoff + deterministic
//!    jitter; past the budget the node is declared dead
//!    ([`Membership::mark_dead`]), its queued cells re-route to the
//!    survivors, and the cell itself re-routes and retries. A
//!    server-side `Failed` gets one in-process retry.
//! 4. **Degrade past the last node.** With every node dead, remaining
//!    cells run in-process (counting `resilience.local_fallbacks`) —
//!    a dead fleet degrades to exactly the local sweep.
//!
//! **Work stealing:** a worker whose home queue is empty re-dispatches
//! the *tail* of the longest alive peer queue to its own (idle) home
//! node — safe duplicate-execution territory because jobs are
//! idempotent and content-keyed. Fault site `fleet.steal` abandons an
//! individual steal attempt; fault site `fleet.member` turns a
//! heartbeat probe into a miss.

use crate::member::{FleetConfig, Membership};
use nomad_serve::proto::{JobSpec, Response};
use nomad_serve::{Client, ClientConfig};
use nomad_sim::RunReport;
use nomad_types::CancelToken;
use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One routed cell: the grid index it must answer under, plus the job.
struct WorkItem {
    idx: usize,
    job: JobSpec,
}

/// Shared state of one in-flight grid run.
struct RunState {
    members: Arc<Membership>,
    /// One queue per configured slot (dead slots' queues are drained
    /// at failover; they only refill if every node is dead).
    queues: Vec<Mutex<VecDeque<WorkItem>>>,
    /// Cells not yet resolved into `results`.
    remaining: AtomicUsize,
    results: Mutex<Vec<(usize, Result<RunReport, String>)>>,
    cfg: FleetConfig,
}

impl RunState {
    fn push_result(&self, idx: usize, outcome: Result<RunReport, String>) {
        self.results
            .lock()
            .expect("results lock")
            .push((idx, outcome));
        self.remaining.fetch_sub(1, Ordering::SeqCst);
    }

    /// Declare node `idx` dead and re-route its queued cells to the
    /// survivors (one `fleet.failovers` total, whichever of the
    /// ladder or the heartbeat got here first). With no survivors the
    /// cells stay queued and the degraded path drains them locally.
    fn fail_node(&self, idx: usize, why: &str) {
        if !self.members.mark_dead(idx) {
            return;
        }
        eprintln!(
            "nomad-fleet: node {idx} ({}) declared dead ({why}); reassigning its arc",
            self.members.addr(idx)
        );
        let orphans: Vec<WorkItem> = {
            let mut q = self.queues[idx].lock().expect("queue lock");
            q.drain(..).collect()
        };
        for item in orphans {
            let owner = self.members.route(item.job.content_key()).unwrap_or(idx);
            self.queues[owner]
                .lock()
                .expect("queue lock")
                .push_back(item);
        }
    }
}

/// A handle on one fleet of nomad-serve nodes: routing state plus the
/// budgets to reach them. Reusable across grids.
pub struct FleetClient {
    members: Arc<Membership>,
    cfg: FleetConfig,
}

impl FleetClient {
    /// A fleet over `addrs` with environment-derived budgets
    /// ([`FleetConfig::from_env`]).
    pub fn new(addrs: &[String]) -> Self {
        Self::with_config(addrs, FleetConfig::from_env())
    }

    /// A fleet over `addrs` with explicit budgets.
    pub fn with_config(addrs: &[String], cfg: FleetConfig) -> Self {
        FleetClient {
            members: Arc::new(Membership::with_breakers(
                addrs,
                cfg.vnodes,
                cfg.breaker.clone(),
            )),
            cfg,
        }
    }

    /// The live membership view (routing, health) of this fleet.
    pub fn members(&self) -> &Membership {
        &self.members
    }

    /// Run a grid across the fleet; results in input order, first
    /// unrecoverable cell fails the grid (after latching `cancel` so
    /// siblings stop submitting). See the module docs for the per-cell
    /// pipeline and the recovery ladder.
    pub fn run_grid(
        &self,
        cells: Vec<JobSpec>,
        jobs: usize,
        cancel: &CancelToken,
    ) -> io::Result<Vec<RunReport>> {
        nomad_serve::mirror_faults_to_obs();
        if self.members.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "fleet has no nodes (empty address list)",
            ));
        }
        let total = cells.len();
        let state = RunState {
            members: Arc::clone(&self.members),
            queues: (0..self.members.len())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            remaining: AtomicUsize::new(total),
            results: Mutex::new(Vec::with_capacity(total)),
            cfg: self.cfg.clone(),
        };
        // Route every cell to its owner's queue, in submission order
        // (deterministic ring + deterministic keys = deterministic
        // placement).
        for (idx, job) in cells.into_iter().enumerate() {
            let owner = state
                .members
                .route(job.content_key())
                .expect("all nodes start alive");
            nomad_obs::fleet().cells_routed.inc();
            state.queues[owner]
                .lock()
                .expect("queue lock")
                .push_back(WorkItem { idx, job });
        }

        let workers = jobs.max(1).min(total.max(1));
        let hb_stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let state = &state;
            let hb_stop = &hb_stop;
            if self.members.len() > 1 {
                scope.spawn(move || heartbeat_loop(state, hb_stop));
            }
            for t in 0..workers {
                scope.spawn(move || worker_loop(t, state, cancel));
            }
            // Workers exit once `remaining` hits zero; then stop the
            // heartbeat. (The scope would otherwise join forever.)
            // This thread doubles as the "done" watcher.
            scope.spawn(move || {
                while state.remaining.load(Ordering::SeqCst) > 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                hb_stop.store(true, Ordering::SeqCst);
            });
        });

        let mut collected = state.results.into_inner().expect("threads joined");
        collected.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(collected.len(), total, "every cell resolved exactly once");
        collected
            .into_iter()
            .map(|(_, r)| r.map_err(io::Error::other))
            .collect()
    }
}

/// One router worker: drain the home queue, steal from stragglers,
/// degrade to local execution once the fleet is gone.
fn worker_loop(t: usize, state: &RunState, cancel: &CancelToken) {
    // Lazily-opened connections, one slot per node, reused across
    // cells (dropped on transport errors).
    let mut conns: Vec<Option<Client>> = (0..state.members.len()).map(|_| None).collect();
    loop {
        if state.remaining.load(Ordering::SeqCst) == 0 {
            return;
        }
        if cancel.is_cancelled() {
            // Flush everything still queued as cancelled; in-flight
            // cells on sibling workers resolve themselves.
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
        let alive = state.members.alive_slots();
        if alive.is_empty() {
            // Degraded: the whole fleet is gone; drain any queue
            // locally (the per-cell ladder already printed why).
            let item = state
                .queues
                .iter()
                .find_map(|q| q.lock().expect("queue lock").pop_front());
            match item {
                Some(item) => {
                    let outcome = run_cell_locally(&item.job, cancel);
                    finish(state, item.idx, outcome, cancel);
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
            continue;
        }
        let home = alive[t % alive.len()];
        // Home work first… (popped in its own statement: the queue
        // lock must not be held while the cell runs, or workers sharing
        // this node serialize and `fail_node(home)` self-deadlocks.)
        let item = state.queues[home].lock().expect("queue lock").pop_front();
        if let Some(item) = item {
            let outcome = run_item(&item, home, state, &mut conns, cancel);
            finish(state, item.idx, outcome, cancel);
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
                let outcome = run_item(&item, home, state, &mut conns, cancel);
                finish(state, item.idx, outcome, cancel);
            }
            continue;
        }
        // Queues empty but cells still in flight elsewhere: wait for
        // either new work (a failover re-route) or completion.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Record one outcome; an unrecoverable cell latches `cancel` so
/// sibling workers stop feeding a doomed grid.
fn finish(state: &RunState, idx: usize, outcome: Result<RunReport, String>, cancel: &CancelToken) {
    if outcome.is_err() {
        cancel.cancel();
    }
    state.push_result(idx, outcome);
}

/// Steps 2–4 of the per-cell pipeline: probe peers, submit to the
/// target through the per-node ladder, re-route on node death, run
/// locally past the last node.
fn run_item(
    item: &WorkItem,
    first_target: usize,
    state: &RunState,
    conns: &mut [Option<Client>],
    cancel: &CancelToken,
) -> Result<RunReport, String> {
    let job = &item.job;
    let key = job.content_key();
    let canonical = job.canonical_json();
    let mut target = first_target;
    // Each pass either succeeds, or kills/reroutes `target`; at most
    // `len` passes before the fleet is empty.
    for _ in 0..=state.members.len() {
        if cancel.is_cancelled() {
            return Err("cancelled during fleet submission".to_string());
        }
        // Breaker gate: a tripped target loses this cell to the next
        // allowed slot. With no alternative we force through the
        // original — an all-tripped fleet must stay usable (the
        // breaker is advisory; death is the ladder's call).
        if !state.members.breaker_allows(target) {
            if let Some(alt) = state.members.route_around(target) {
                nomad_obs::overload().breaker_reroutes.inc();
                target = alt;
            }
        }
        // Shared cache tier: any *other* alive node that already
        // computed this cell answers it without a new simulation.
        if let Some(report) = probe_peers(key, &canonical, target, state, conns) {
            return Ok(report);
        }
        match submit_with_ladder(job, key, target, state, conns, cancel) {
            LadderOutcome::Done(result) => return *result,
            LadderOutcome::NodeDead => {
                state.fail_node(target, "unreachable past the reconnect budget");
                match state.members.route(key) {
                    Some(next) => target = next,
                    None => break,
                }
            }
            LadderOutcome::Overloaded => {
                // The node is shedding past the client's retry budget:
                // give its arc a breather rather than its life. Another
                // slot takes the cell, or we degrade to local.
                match state.members.route_around(target) {
                    Some(next) => {
                        nomad_obs::overload().breaker_reroutes.inc();
                        target = next;
                    }
                    None => return run_cell_locally(job, cancel),
                }
            }
        }
    }
    eprintln!(
        "nomad-fleet: no nodes left for cell {}; degrading to local execution",
        item.idx
    );
    run_cell_locally(job, cancel)
}

/// Probe every alive node except `target` for a completed result;
/// fetch on the first hit. Transport errors are cache misses, not
/// health signals.
fn probe_peers(
    key: u64,
    canonical: &str,
    target: usize,
    state: &RunState,
    conns: &mut [Option<Client>],
) -> Option<RunReport> {
    for peer in state.members.alive_slots() {
        if peer == target {
            continue;
        }
        if conns[peer].is_none() {
            conns[peer] = Client::connect_with(state.members.addr(peer), &state.cfg.client).ok();
        }
        let Some(client) = conns[peer].as_mut() else {
            continue;
        };
        let hit = match client.probe(key, canonical) {
            Ok(hit) => hit,
            Err(_) => {
                conns[peer] = None;
                continue;
            }
        };
        if !hit {
            continue;
        }
        nomad_obs::fleet().probe_hits.inc();
        match conns[peer]
            .as_mut()
            .expect("probed above")
            .fetch(key, canonical)
        {
            Ok(Some(report)) => {
                nomad_obs::fleet().remote_fetches.inc();
                return Some(report);
            }
            Ok(None) => continue,
            Err(_) => {
                conns[peer] = None;
                continue;
            }
        }
    }
    None
}

/// How many `Overloaded` responses the ladder absorbs (sleeping the
/// server's retry-after hint each time) before handing the cell back
/// to the router as [`LadderOutcome::Overloaded`]. Small on purpose:
/// past a few rejections the right move is rerouting, not waiting.
const LADDER_OVERLOAD_RETRIES: u32 = 8;

/// What one node's recovery ladder concluded.
enum LadderOutcome {
    /// The cell resolved (successfully or unrecoverably).
    Done(Box<Result<RunReport, String>>),
    /// The node is unreachable past the budget; fail it over.
    NodeDead,
    /// The node kept shedding past the retry budget; route around it
    /// without declaring it dead.
    Overloaded,
}

/// The recovery ladder scoped to one node: reconnect with backoff, count
/// `resilience.serve_reconnects`, give a server-side `Failed` one
/// local retry, and report the node dead past the budget. Every
/// submit outcome also feeds the node's circuit breaker (success,
/// failure, or shed — with the wall-clock latency of the exchange).
fn submit_with_ladder(
    job: &JobSpec,
    salt: u64,
    target: usize,
    state: &RunState,
    conns: &mut [Option<Client>],
    cancel: &CancelToken,
) -> LadderOutcome {
    let cfg: &ClientConfig = &state.cfg.client;
    let addr = state.members.addr(target);
    let mut attempt = 0u32;
    while state.members.is_alive(target) {
        if cancel.is_cancelled() {
            return LadderOutcome::Done(Box::new(Err(
                "cancelled during fleet submission".to_string()
            )));
        }
        if conns[target].is_none() {
            match Client::connect_with(addr, cfg) {
                Ok(c) => {
                    if attempt > 0 {
                        nomad_obs::resilience().serve_reconnects.inc();
                    }
                    conns[target] = Some(c);
                }
                Err(_) => {
                    attempt += 1;
                    if attempt > cfg.reconnect_attempts {
                        return LadderOutcome::NodeDead;
                    }
                    std::thread::sleep(cfg.backoff(salt, attempt));
                    continue;
                }
            }
        }
        let client = conns[target].as_mut().expect("connected above");
        let t0 = std::time::Instant::now();
        match client.submit_retrying(job, LADDER_OVERLOAD_RETRIES) {
            Ok(Response::Report { report, .. }) => {
                state.members.record_outcome(target, true, t0.elapsed());
                return LadderOutcome::Done(Box::new(Ok(report)));
            }
            Ok(Response::Failed { error, attempts }) => {
                // The node answered; a job-level failure is not a
                // node-health signal.
                state.members.record_outcome(target, true, t0.elapsed());
                eprintln!(
                    "nomad-fleet: node {target} failed the job after {attempts} attempts \
                     ({error}); retrying locally"
                );
                return LadderOutcome::Done(Box::new(run_cell_locally(job, cancel)));
            }
            Ok(Response::Overloaded { .. }) => {
                state.members.record_outcome(target, false, t0.elapsed());
                return LadderOutcome::Overloaded;
            }
            Ok(Response::Expired { error }) => {
                // The node shed the job (queue-delay controller); treat
                // like overload pressure and compute the cell locally.
                state.members.record_outcome(target, false, t0.elapsed());
                eprintln!("nomad-fleet: node {target} shed the job ({error}); running locally");
                return LadderOutcome::Done(Box::new(run_cell_locally(job, cancel)));
            }
            Ok(other) => {
                return LadderOutcome::Done(Box::new(Err(format!(
                    "unexpected response: {other:?}"
                ))))
            }
            Err(_) => {
                state.members.record_outcome(target, false, t0.elapsed());
                conns[target] = None;
                attempt += 1;
                if attempt > cfg.reconnect_attempts {
                    return LadderOutcome::NodeDead;
                }
                std::thread::sleep(cfg.backoff(salt, attempt));
            }
        }
    }
    // Another worker (or the heartbeat) already declared this node
    // dead while we were backing off.
    LadderOutcome::NodeDead
}

/// Degraded-mode execution: run in-process, count one
/// `resilience.local_fallbacks`, catch panics so one bad cell reports
/// an error instead of tearing down the router worker.
fn run_cell_locally(job: &JobSpec, cancel: &CancelToken) -> Result<RunReport, String> {
    nomad_obs::resilience().local_fallbacks.inc();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job.run_local_cancellable(cancel)
    })) {
        Ok(Some(report)) => Ok(report),
        Ok(None) => Err("cancelled during local fallback".to_string()),
        Err(_) => Err("local fallback panicked".to_string()),
    }
}

/// Ping every alive node each interval; `fleet.heartbeat_misses`
/// consecutive failures (or injected `fleet.member` faults) past the
/// threshold fail the node over — so even a node nobody is currently
/// submitting to loses its arc promptly.
fn heartbeat_loop(state: &RunState, stop: &AtomicBool) {
    let interval = state.cfg.heartbeat_interval;
    let threshold = state.cfg.heartbeat_misses;
    // Short connect/IO budgets: a heartbeat must not hang behind a
    // stalled node for the full transport timeout.
    let hb_cfg = ClientConfig {
        connect_timeout: state
            .cfg
            .client
            .connect_timeout
            .min(Duration::from_millis(500)),
        io_timeout: Some(Duration::from_millis(1_000)),
        ..state.cfg.client.clone()
    };
    while !stop.load(Ordering::SeqCst) {
        // Sleep in small slices so shutdown is prompt even under slow
        // heartbeat cadences.
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            let slice = Duration::from_millis(5).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        for idx in state.members.alive_slots() {
            // Fault site `fleet.member`: an injected fault is a missed
            // heartbeat, exercising failover without killing anything.
            let miss = if nomad_faults::inject("fleet.member").is_some() {
                true
            } else {
                match Client::connect_with(state.members.addr(idx), &hb_cfg) {
                    Ok(mut c) => c.ping().is_err(),
                    Err(_) => true,
                }
            };
            if miss {
                if state.members.heartbeat_miss(idx, threshold) {
                    state.fail_node(idx, "missed heartbeats past the threshold");
                }
            } else {
                state.members.heartbeat_ok(idx);
            }
        }
    }
}
