//! Fleet membership: who is alive, who owns which arc, and when a
//! node is declared dead.
//!
//! A [`Membership`] starts with every configured node alive and a
//! [`HashRing`] over all slots. Health flows in from two sides — the
//! fleet client's per-node ladder (a node unreachable past the budget)
//! and a grid's heartbeat thread (consecutive failed pings past
//! `heartbeat_misses`) — and both funnel into
//! [`Membership::mark_dead`], which is idempotent per node: exactly
//! one caller wins the CAS, counts one `fleet.failovers`, and rebuilds
//! the ring from the survivors so the dead node's arc (and only that
//! arc) is reassigned live. Nodes never resurrect within a run:
//! membership is monotone, which keeps routing decisions from
//! oscillating while a flaky node bounces.
//!
//! Fault site `fleet.route`: an injected fault at routing time skips
//! the ring and falls back to the first alive node — simulating a
//! corrupted placement decision, which the content-addressed jobs make
//! harmless (any node computes the same bytes).
//!
//! **Circuit breakers** ([`Breaker`]) sit one rung below `mark_dead`
//! on the health ladder: a node that keeps failing or responding
//! slowly gets its breaker *tripped* (Open) and the router routes
//! around it for a cooldown, then sends a single half-open probe to
//! test recovery — all without declaring the node dead or touching the
//! ring. Death stays monotone; breakers oscillate freely. Fault site
//! `fleet.breaker`: an injected fault at outcome-recording time forces
//! the outcome to a failure, so chaos plans can trip breakers on a
//! healthy fleet.

use crate::ring::HashRing;
use nomad_serve::ClientConfig;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning knobs for the fleet router, heartbeats and ring.
///
/// [`FleetConfig::from_env`] reads the heartbeat fields from
/// environment variables (falling back to the default on unset or
/// garbage) and the per-node transport budgets from the documented
/// `NOMAD_SERVE_*` variables via [`ClientConfig::from_env`]; the ring
/// and breaker fields keep their defaults unless a caller sets them.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Virtual nodes per member on the hash ring (default 64). Ring
    /// placement, and so every precomputed cell placement, depends on
    /// it.
    pub vnodes: usize,
    /// Per-node transport and reconnect budgets (each node's ladder,
    /// [`nomad_serve::submit_ladder`]).
    pub client: ClientConfig,
    /// Heartbeat cadence (`NOMAD_FLEET_HB_MS`, default 200).
    pub heartbeat_interval: Duration,
    /// Consecutive heartbeat misses before a node is declared dead
    /// (`NOMAD_FLEET_HB_MISSES`, default 2, clamped ≥ 1).
    pub heartbeat_misses: u32,
    /// Per-node circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            vnodes: 64,
            client: ClientConfig::default(),
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_misses: 2,
            breaker: BreakerConfig::default(),
        }
    }
}

impl FleetConfig {
    /// The defaults, overridden by any `NOMAD_FLEET_HB_*` /
    /// `NOMAD_SERVE_*` environment variables that are set and parse.
    pub fn from_env() -> Self {
        use nomad_types::env;
        let d = FleetConfig::default();
        FleetConfig {
            client: ClientConfig::from_env(),
            heartbeat_interval: env::ms_clamped(
                "NOMAD_FLEET_HB_MS",
                d.heartbeat_interval.as_millis() as u64,
                1,
                u64::MAX,
            ),
            heartbeat_misses: env::u64_clamped(
                "NOMAD_FLEET_HB_MISSES",
                d.heartbeat_misses as u64,
                1,
                u32::MAX as u64,
            ) as u32,
            ..d
        }
    }
}

/// Thresholds for one node's circuit breaker.
///
/// The breaker watches a rolling window of the last `window` submit
/// outcomes. Once `fail_threshold` of them are failures the breaker
/// *trips* (Closed → Open): the router routes around the node for
/// `cooldown` and then lets one probe through (Open → HalfOpen). A
/// successful probe closes the breaker; a failed one re-opens it for
/// another cooldown. `latency_threshold` (0 = disabled) additionally
/// counts *slow successes* as failures, so a node limping along at 10×
/// its peers' latency sheds its traffic without ever erroring.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Rolling outcome-window length (default 16; [`Breaker::new`]
    /// clamps it to 1..=64).
    pub window: u32,
    /// Failures within the window that trip the breaker (default 8).
    pub fail_threshold: u32,
    /// How long a tripped breaker stays open before probing (default
    /// 500 ms).
    pub cooldown: Duration,
    /// Successes slower than this count as failures; zero (the
    /// default) disables the latency rule.
    pub latency_threshold: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            fail_threshold: 8,
            cooldown: Duration::from_millis(500),
            latency_threshold: Duration::ZERO,
        }
    }
}

/// Where one breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the rolling window.
    Closed,
    /// Tripped: the router routes around this node until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is in flight; its outcome
    /// decides Closed vs. re-Open.
    HalfOpen,
}

/// A per-node circuit breaker over a pure millisecond clock.
///
/// Every method takes `now_ms` explicitly (milliseconds on any
/// monotonic per-process clock), so the same state machine drives both
/// the live fleet client (fed from [`Membership::now_ms`]) and the
/// virtual-time load generator — deterministic tests never sleep.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
    probes: AtomicU64,
    closes: AtomicU64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Newest-first bitmask of the last `window` outcomes (1 = failure).
    outcomes: u64,
    /// When the current Open cooldown started, or when the outstanding
    /// HalfOpen probe was issued.
    since_ms: u64,
}

impl Breaker {
    /// A closed breaker with `cfg` thresholds. Windows wider than 64
    /// outcomes are clamped (the rolling window is a u64 bitmask).
    pub fn new(cfg: BreakerConfig) -> Self {
        let cfg = BreakerConfig {
            window: cfg.window.clamp(1, 64),
            ..cfg
        };
        Breaker {
            cfg,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                outcomes: 0,
                since_ms: 0,
            }),
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            closes: AtomicU64::new(0),
        }
    }

    /// The current state (for status displays and tests).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker lock").state
    }

    /// Times this breaker tripped (entered Open).
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Half-open probes this breaker issued.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Times this breaker closed again after a successful probe.
    pub fn close_count(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }

    /// May traffic flow to this node right now?
    ///
    /// Closed: always. Open: only once the cooldown has elapsed — that
    /// caller becomes the half-open probe. HalfOpen: the outstanding
    /// probe blocks further traffic, but after *another* cooldown a
    /// fresh probe is allowed (a probe whose caller rerouted before
    /// sending must not wedge the breaker half-open forever).
    pub fn allow(&self, now_ms: u64) -> bool {
        let mut inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open | BreakerState::HalfOpen => {
                if now_ms.saturating_sub(inner.since_ms) < self.cfg.cooldown.as_millis() as u64 {
                    return false;
                }
                inner.state = BreakerState::HalfOpen;
                inner.since_ms = now_ms;
                self.probes.fetch_add(1, Ordering::Relaxed);
                nomad_obs::overload().breaker_probes.inc();
                true
            }
        }
    }

    /// Fold one submit outcome in. Slow successes (past the latency
    /// threshold, when enabled) count as failures. Outcomes arriving
    /// while Open are ignored — they belong to requests that were
    /// already in flight when the breaker tripped.
    pub fn record(&self, now_ms: u64, ok: bool, latency: Duration) {
        let failed =
            !ok || (!self.cfg.latency_threshold.is_zero() && latency > self.cfg.latency_threshold);
        let mut inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Open => {}
            BreakerState::HalfOpen => {
                if failed {
                    self.trip(&mut inner, now_ms);
                } else {
                    inner.state = BreakerState::Closed;
                    inner.outcomes = 0;
                    self.closes.fetch_add(1, Ordering::Relaxed);
                    nomad_obs::overload().breaker_closes.inc();
                }
            }
            BreakerState::Closed => {
                inner.outcomes = (inner.outcomes << 1) | u64::from(failed);
                let window_mask = if self.cfg.window == 64 {
                    u64::MAX
                } else {
                    (1u64 << self.cfg.window) - 1
                };
                let failures = (inner.outcomes & window_mask).count_ones();
                if failures >= self.cfg.fail_threshold {
                    self.trip(&mut inner, now_ms);
                }
            }
        }
    }

    fn trip(&self, inner: &mut BreakerInner, now_ms: u64) {
        inner.state = BreakerState::Open;
        inner.since_ms = now_ms;
        inner.outcomes = 0;
        self.trips.fetch_add(1, Ordering::Relaxed);
        nomad_obs::overload().breaker_trips.inc();
    }
}

/// One fleet member.
struct Node {
    addr: String,
    alive: AtomicBool,
    /// Consecutive heartbeat misses (reset by a successful ping).
    hb_misses: AtomicU32,
    /// Overload/health breaker, one rung below `mark_dead`.
    breaker: Breaker,
}

/// The live membership view shared by the fleet client's callers and the
/// heartbeat thread.
pub struct Membership {
    nodes: Vec<Node>,
    ring: Mutex<HashRing>,
    alive_count: AtomicUsize,
    vnodes: usize,
    /// Epoch for the breakers' millisecond clock.
    started: Instant,
}

impl Membership {
    /// All nodes alive, ring over every slot, default breaker
    /// thresholds.
    pub fn new(addrs: &[String], vnodes: usize) -> Self {
        Self::with_breakers(addrs, vnodes, BreakerConfig::default())
    }

    /// [`Membership::new`] with explicit breaker thresholds.
    pub fn with_breakers(addrs: &[String], vnodes: usize, breaker: BreakerConfig) -> Self {
        let nodes: Vec<Node> = addrs
            .iter()
            .map(|a| Node {
                addr: a.clone(),
                alive: AtomicBool::new(true),
                hb_misses: AtomicU32::new(0),
                breaker: Breaker::new(breaker.clone()),
            })
            .collect();
        let slots: Vec<usize> = (0..nodes.len()).collect();
        Membership {
            alive_count: AtomicUsize::new(nodes.len()),
            ring: Mutex::new(HashRing::new(&slots, vnodes)),
            nodes,
            vnodes,
            started: Instant::now(),
        }
    }

    /// Milliseconds since this membership view was created — the
    /// breakers' clock.
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Slot `idx`'s breaker (status displays and tests).
    pub fn breaker(&self, idx: usize) -> &Breaker {
        &self.nodes[idx].breaker
    }

    /// Whether slot `idx` may receive traffic right now (alive and its
    /// breaker admits it — possibly as a half-open probe).
    pub fn breaker_allows(&self, idx: usize) -> bool {
        self.is_alive(idx) && self.nodes[idx].breaker.allow(self.now_ms())
    }

    /// Fold one submit outcome into slot `idx`'s breaker.
    ///
    /// Fault site `fleet.breaker`: an injected fault forces the
    /// outcome to a failure, so chaos plans can trip breakers without
    /// a genuinely failing node.
    pub fn record_outcome(&self, idx: usize, ok: bool, latency: Duration) {
        let ok = ok && nomad_faults::inject("fleet.breaker").is_none();
        self.nodes[idx].breaker.record(self.now_ms(), ok, latency);
    }

    /// The next slot after `avoid` (wrapping, in slot order) that is
    /// alive and whose breaker admits traffic, counted as one
    /// `overload.breaker_reroutes`; `None` when no other slot
    /// qualifies.
    pub fn route_around(&self, avoid: usize) -> Option<usize> {
        let n = self.nodes.len();
        let alt = (1..n)
            .map(|step| (avoid + step) % n)
            .find(|&idx| self.breaker_allows(idx));
        if alt.is_some() {
            nomad_obs::overload().breaker_reroutes.inc();
        }
        alt
    }

    /// Total configured nodes (alive or dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet was configured with no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The address of slot `idx`.
    pub fn addr(&self, idx: usize) -> &str {
        &self.nodes[idx].addr
    }

    /// Whether slot `idx` is still alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.nodes[idx].alive.load(Ordering::SeqCst)
    }

    /// Currently alive slot count.
    pub fn alive_count(&self) -> usize {
        self.alive_count.load(Ordering::SeqCst)
    }

    /// Slots currently alive, in slot order.
    pub fn alive_slots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.is_alive(i))
            .collect()
    }

    /// The lowest alive slot, if any.
    pub fn first_alive(&self) -> Option<usize> {
        (0..self.nodes.len()).find(|&i| self.is_alive(i))
    }

    /// The slot owning content key `key`, per the ring over the alive
    /// slots; `None` once every node is dead.
    ///
    /// Fault site `fleet.route`: an injected fault falls back to the
    /// first alive node instead of consulting the ring.
    pub fn route(&self, key: u64) -> Option<usize> {
        if nomad_faults::inject("fleet.route").is_some() {
            return self.first_alive();
        }
        self.ring.lock().expect("ring lock").route(key)
    }

    /// Declare slot `idx` dead and rebuild the ring from the
    /// survivors, so only the dead node's arc is reassigned. Returns
    /// `true` for exactly one caller per node (its call counts the
    /// `fleet.failovers`, and the caller announces the death); later
    /// callers see `false` and do nothing.
    pub fn mark_dead(&self, idx: usize) -> bool {
        if self.nodes[idx]
            .alive
            .compare_exchange(true, false, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        self.alive_count.fetch_sub(1, Ordering::SeqCst);
        let slots = self.alive_slots();
        *self.ring.lock().expect("ring lock") = HashRing::new(&slots, self.vnodes);
        nomad_obs::fleet().failovers.inc();
        true
    }

    /// Record one failed heartbeat for slot `idx`; returns `true` when
    /// the consecutive-miss threshold is reached (the caller then
    /// fails the node over).
    pub fn heartbeat_miss(&self, idx: usize, threshold: u32) -> bool {
        nomad_obs::fleet().heartbeat_misses.inc();
        let misses = self.nodes[idx].hb_misses.fetch_add(1, Ordering::SeqCst) + 1;
        misses >= threshold.max(1)
    }

    /// Record a successful heartbeat for slot `idx` (resets the
    /// consecutive-miss counter).
    pub fn heartbeat_ok(&self, idx: usize) {
        self.nodes[idx].hb_misses.store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Membership {
        let addrs: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect();
        Membership::new(&addrs, 64)
    }

    #[test]
    fn death_is_monotone_and_counted_once() {
        let m = members(3);
        assert_eq!(m.alive_count(), 3);
        let before = nomad_obs::fleet().value("fleet.failovers").expect("row");
        assert!(m.mark_dead(1), "first caller wins");
        assert!(!m.mark_dead(1), "second caller loses");
        assert_eq!(m.alive_count(), 2);
        assert!(!m.is_alive(1));
        assert_eq!(m.alive_slots(), vec![0, 2]);
        let after = nomad_obs::fleet().value("fleet.failovers").expect("row");
        assert_eq!(after, before + 1, "one failover per node death");
    }

    #[test]
    fn routing_skips_dead_arcs_and_survives_to_the_last_node() {
        let m = members(3);
        let keys: Vec<u64> = (0..500u64)
            .map(|i| nomad_types::hash::fnv1a(format!("k{i}").as_bytes()))
            .collect();
        m.mark_dead(0);
        for &k in &keys {
            let slot = m.route(k).expect("nodes remain");
            assert_ne!(slot, 0, "dead slot must not own keys");
        }
        m.mark_dead(2);
        for &k in &keys {
            assert_eq!(m.route(k), Some(1), "last node owns everything");
        }
        m.mark_dead(1);
        assert_eq!(m.route(keys[0]), None, "empty fleet routes nowhere");
        assert_eq!(m.first_alive(), None);
    }

    #[test]
    fn heartbeat_misses_accumulate_and_reset() {
        let m = members(2);
        assert!(!m.heartbeat_miss(0, 2), "one miss is not death");
        m.heartbeat_ok(0);
        assert!(!m.heartbeat_miss(0, 2), "reset counter starts over");
        assert!(m.heartbeat_miss(0, 2), "two consecutive misses hit");
    }

    fn breaker(fails: u32, cooldown_ms: u64, latency_ms: u64) -> Breaker {
        Breaker::new(BreakerConfig {
            window: 8,
            fail_threshold: fails,
            cooldown: Duration::from_millis(cooldown_ms),
            latency_threshold: Duration::from_millis(latency_ms),
        })
    }

    #[test]
    fn breaker_trips_at_the_window_threshold_and_cools_down() {
        let b = breaker(3, 100, 0);
        let fast = Duration::from_millis(1);
        b.record(0, false, fast);
        b.record(1, false, fast);
        assert_eq!(b.state(), BreakerState::Closed, "two failures stay closed");
        assert!(b.allow(2));
        b.record(2, false, fast);
        assert_eq!(b.state(), BreakerState::Open, "third failure trips");
        assert_eq!(b.trip_count(), 1);
        assert!(!b.allow(50), "open within the cooldown blocks traffic");
        assert!(b.allow(102), "cooldown elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.probe_count(), 1);
        assert!(!b.allow(103), "the outstanding probe blocks a second");
        b.record(110, true, fast);
        assert_eq!(b.state(), BreakerState::Closed, "good probe closes");
        assert_eq!(b.close_count(), 1);
        // The window cleared on close: old failures don't linger.
        b.record(111, false, fast);
        b.record(112, false, fast);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_and_a_stuck_probe_expires() {
        let b = breaker(1, 100, 0);
        b.record(0, false, Duration::ZERO);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(100));
        b.record(105, false, Duration::ZERO);
        assert_eq!(b.state(), BreakerState::Open, "failed probe re-opens");
        assert_eq!(b.trip_count(), 2);
        // A probe whose caller rerouted before sending must not wedge
        // the breaker half-open: another cooldown earns a fresh probe.
        assert!(b.allow(210));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(215));
        assert!(b.allow(320), "re-probe after another full cooldown");
        assert_eq!(b.probe_count(), 3);
    }

    #[test]
    fn slow_successes_count_as_failures_when_the_latency_rule_is_on() {
        let b = breaker(2, 100, 50);
        b.record(0, true, Duration::from_millis(300));
        b.record(1, true, Duration::from_millis(300));
        assert_eq!(b.state(), BreakerState::Open, "slow successes trip");
        let off = breaker(2, 100, 0);
        off.record(0, true, Duration::from_millis(300));
        off.record(1, true, Duration::from_millis(300));
        assert_eq!(off.state(), BreakerState::Closed, "rule disabled at 0");
    }

    #[test]
    fn route_around_skips_tripped_breakers_without_killing_nodes() {
        let m = members(3);
        // Trip node 1's breaker with direct failure records.
        for _ in 0..8 {
            m.record_outcome(1, false, Duration::ZERO);
        }
        assert_eq!(m.breaker(1).state(), BreakerState::Open);
        assert!(m.is_alive(1), "a tripped breaker is not death");
        assert_eq!(m.alive_count(), 3);
        assert!(!m.breaker_allows(1));
        assert_eq!(m.route_around(1), Some(2), "next slot in order");
        assert_eq!(m.route_around(0), Some(2), "skips the tripped slot");
        // With 1 tripped and 2 dead, only 0 remains.
        m.mark_dead(2);
        assert_eq!(m.route_around(1), Some(0));
        assert_eq!(m.route_around(0), None, "no *other* slot qualifies");
    }
}
