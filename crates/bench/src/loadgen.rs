//! A deterministic bursty load generator for the serve/fleet overload
//! stack.
//!
//! The default mode is a **virtual-time discrete-event simulation** of
//! a small fleet under an open-loop arrival stream: seeded
//! Poisson-like arrivals whose rate follows a square wave (steady →
//! burst → steady), two serve nodes with bounded queues, the *actual*
//! admission/CoDel/deadline arithmetic from [`nomad_serve::overload`],
//! and the *actual* circuit breaker from [`nomad_fleet::Breaker`]
//! driven on the virtual clock. One node turns slow mid-run, the
//! latency rule trips its breaker, traffic reroutes, and the breaker
//! probes its way closed again — the whole overload-protection story
//! in a few hundred virtual milliseconds of integer arithmetic.
//!
//! Everything is integer-only: inter-arrival times come from a
//! precomputed integer exponential table (`EXP_TABLE`) sampled with
//! [`nomad_faults::splitmix64`], sojourn quantiles are log-bucket
//! lower bounds ([`LogHistogram`]), and the report contains no floats
//! — so `results/loadgen.json` is **byte-identical** across repeats,
//! platforms, and any `NOMAD_JOBS` width, and CI diffs it against the
//! committed artifact.
//!
//! The `nomad-loadgen` binary also has a `--live` mode that replays
//! the same arrival schedule in real time against a running fleet
//! (`NOMAD_FLEET_ADDRS`): every arrival goes through
//! [`FleetClient::submit`](nomad_fleet::FleetClient::submit) with a
//! deadline budget and this scenario's breaker thresholds
//! ([`LoadgenConfig::breaker_config`]), asserting the same SLO shape
//! (see `EXPERIMENTS.md`).

use nomad_fleet::{Breaker, BreakerConfig, BreakerState};
use nomad_serve::overload;
use nomad_types::stats::LogHistogram;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::time::Duration;

/// `round(-ln((i + 0.5) / 64) * 1000)` for `i` in `0..64`: a 64-entry
/// integer lookup table for exponential inter-arrival sampling with
/// mean ≈ 1000 (per-mille of the configured mean gap). Hard-coded so
/// the generator never touches floating point — the committed
/// `results/loadgen.json` must be byte-identical on every platform.
const EXP_TABLE: [u64; 64] = [
    4852, 3753, 3243, 2906, 2655, 2454, 2287, 2144, //
    2019, 1908, 1808, 1717, 1633, 1556, 1485, 1418, //
    1356, 1297, 1241, 1188, 1138, 1091, 1045, 1002, //
    960, 920, 882, 845, 809, 774, 741, 709, //
    678, 647, 618, 589, 562, 535, 508, 483, //
    458, 433, 409, 386, 363, 341, 319, 298, //
    277, 257, 237, 217, 198, 179, 161, 143, //
    125, 107, 90, 73, 56, 40, 24, 8,
];

/// One square-wave phase of the arrival stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Phase {
    /// Mean inter-arrival gap during this phase, in virtual ms.
    pub mean_gap_ms: u64,
    /// Phase length in virtual ms.
    pub duration_ms: u64,
}

/// A window during which one node serves every job `factor`× slower
/// (an overloaded or limping node; trips the breaker latency rule).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowNode {
    /// Which node limps.
    pub node: usize,
    /// Service-time multiplier while slow.
    pub factor: u64,
    /// Slow window start (virtual ms).
    pub from_ms: u64,
    /// Slow window end (virtual ms, exclusive).
    pub to_ms: u64,
}

/// The SLO the run is judged against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Slo {
    /// Minimum percentage of offered jobs that must complete within
    /// their deadline.
    pub min_goodput_pct: u64,
    /// Maximum p99 sojourn (log-bucket lower bound, ms).
    pub max_p99_ms: u64,
}

/// The whole scenario. [`LoadgenConfig::default`] is the committed
/// burst scenario CI replays.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenConfig {
    /// RNG seed for arrivals, routing salt, and service jitter.
    pub seed: u64,
    /// Fleet size.
    pub nodes: usize,
    /// Worker threads per node.
    pub workers_per_node: u64,
    /// Bounded queue capacity per node.
    pub queue_capacity: usize,
    /// Per-job deadline budget (ms; admission + dequeue + pre-execute
    /// checkpoints all measure against this).
    pub deadline_ms: u64,
    /// CoDel queue-delay target (ms; 0 disables).
    pub codel_target_ms: u64,
    /// Base service time per job (ms).
    pub service_base_ms: u64,
    /// Uniform service jitter in `[0, jitter]` ms added to the base.
    pub service_jitter_ms: u64,
    /// The arrival square wave.
    pub phases: Vec<Phase>,
    /// The mid-run slow node.
    pub slow: SlowNode,
    /// Per-node breaker thresholds.
    pub breaker_window: u32,
    /// Failures in the window that trip a breaker.
    pub breaker_fails: u32,
    /// Breaker cooldown before a half-open probe (ms).
    pub breaker_cooldown_ms: u64,
    /// Breaker latency rule: successes slower than this count as
    /// failures (ms; 0 disables).
    pub breaker_latency_ms: u64,
    /// The verdict thresholds.
    pub slo: Slo,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 42,
            nodes: 2,
            workers_per_node: 2,
            queue_capacity: 16,
            deadline_ms: 400,
            codel_target_ms: 200,
            service_base_ms: 40,
            service_jitter_ms: 30,
            phases: vec![
                Phase {
                    mean_gap_ms: 25,
                    duration_ms: 4_000,
                },
                Phase {
                    mean_gap_ms: 8,
                    duration_ms: 2_000,
                },
                Phase {
                    mean_gap_ms: 25,
                    duration_ms: 4_000,
                },
            ],
            slow: SlowNode {
                node: 1,
                factor: 8,
                from_ms: 3_000,
                to_ms: 6_000,
            },
            breaker_window: 16,
            breaker_fails: 6,
            breaker_cooldown_ms: 400,
            breaker_latency_ms: 250,
            slo: Slo {
                min_goodput_pct: 50,
                max_p99_ms: 1_024,
            },
        }
    }
}

impl LoadgenConfig {
    /// The default scenario with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        LoadgenConfig {
            seed,
            ..LoadgenConfig::default()
        }
    }

    /// The breaker thresholds as a fleet [`BreakerConfig`] (shared by
    /// the virtual nodes and the live mode's fleet client).
    pub fn breaker_config(&self) -> BreakerConfig {
        BreakerConfig {
            window: self.breaker_window,
            fail_threshold: self.breaker_fails,
            cooldown: Duration::from_millis(self.breaker_cooldown_ms),
            latency_threshold: Duration::from_millis(self.breaker_latency_ms),
        }
    }
}

/// Work shed, by checkpoint (mirrors the `overload.*` counters).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ShedCounts {
    /// Shed at admission: estimated wait exceeded the budget.
    pub admit: u64,
    /// Rejected outright: the bounded queue was full (`Overloaded`).
    pub queue_full: u64,
    /// Shed at dequeue: the deadline passed while queued.
    pub queue: u64,
    /// Shed at dequeue by the CoDel queue-delay rule.
    pub codel: u64,
}

/// Breaker activity across the run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BreakerCounts {
    /// Closed → Open transitions.
    pub trips: u64,
    /// Half-open probes issued.
    pub probes: u64,
    /// HalfOpen → Closed recoveries.
    pub closes: u64,
    /// Arrivals rerouted off a tripped node.
    pub reroutes: u64,
}

/// The verdict: every clause of the SLO, then the conjunction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Verdict {
    /// `goodput_pct >= slo.min_goodput_pct`.
    pub goodput_ok: bool,
    /// `p99 <= slo.max_p99_ms`.
    pub p99_ok: bool,
    /// No job whose deadline had already expired was executed.
    pub no_expired_executions: bool,
    /// At least one breaker tripped (the scenario's slow node was
    /// detected and routed around).
    pub breaker_tripped: bool,
    /// All of the above.
    pub pass: bool,
}

/// The integer-only run report serialized to `results/loadgen.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// The scenario that produced this report.
    pub config: LoadgenConfig,
    /// Total arrivals offered.
    pub offered: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Completions that landed within their deadline (the goodput
    /// numerator).
    pub completed_in_deadline: u64,
    /// Integer goodput percentage (`completed_in_deadline * 100 /
    /// offered`).
    pub goodput_pct: u64,
    /// Work shed, by checkpoint.
    pub shed: ShedCounts,
    /// Breaker activity.
    pub breaker: BreakerCounts,
    /// Jobs executed after their deadline had already expired — the
    /// SLO witness; must be zero while shedding is on.
    pub expired_executions: u64,
    /// p50 sojourn (arrival → completion), log-bucket lower bound, ms.
    pub sojourn_p50_ms: u64,
    /// p99 sojourn, log-bucket lower bound, ms.
    pub sojourn_p99_ms: u64,
    /// The verdict.
    pub verdict: Verdict,
}

/// A queued virtual job.
struct Queued {
    arrived_ms: u64,
    deadline_ms: u64,
}

/// One virtual serve node.
struct VNode {
    queue: VecDeque<Queued>,
    busy: u64,
    breaker: Breaker,
    /// EWMA service-time estimate, fed through the real
    /// [`overload::ewma_step`].
    ewma_ms: u64,
}

/// A pending event on the virtual clock. Orderable newest-last so a
/// `BinaryHeap<Reverse<Event>>` pops in (time, seq) order — `seq` is
/// the deterministic tie-break.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at_ms: u64,
    seq: u64,
    kind: EventKind,
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A new job arrives at the router.
    Arrival,
    /// Node `node` finishes a job that arrived at `arrived_ms` with
    /// deadline `deadline_ms`, after `service_ms` of execution.
    Done {
        node: usize,
        arrived_ms: u64,
        deadline_ms: u64,
        service_ms: u64,
    },
}

/// A tiny seeded counter-mode RNG over [`nomad_faults::splitmix64`].
struct Rng {
    seed: u64,
    ctr: u64,
}

impl Rng {
    fn next(&mut self) -> u64 {
        self.ctr += 1;
        nomad_faults::splitmix64(self.seed ^ self.ctr.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// The arrival schedule for `cfg`: virtual-ms timestamps of a square
/// wave of exponential gaps (open loop — arrivals never slow down
/// under overload). Deterministic in `cfg.seed`; the live mode replays
/// exactly this schedule on the wall clock.
pub fn arrival_schedule(cfg: &LoadgenConfig) -> Vec<u64> {
    let mut rng = Rng {
        seed: cfg.seed,
        ctr: 0,
    };
    let mut arrivals: Vec<u64> = Vec::new();
    let mut t = 0u64;
    let mut phase_start = 0u64;
    for phase in &cfg.phases {
        let phase_end = phase_start + phase.duration_ms;
        while t < phase_end {
            let gap = (phase.mean_gap_ms * EXP_TABLE[(rng.next() % 64) as usize] / 1000).max(1);
            t += gap;
            if t < phase_end {
                arrivals.push(t);
            }
        }
        // A gap that overshot the phase boundary re-rolls under the
        // next phase's rate, from the boundary.
        t = t.min(phase_end);
        phase_start = phase_end;
    }
    arrivals
}

/// Run the scenario on the virtual clock and judge it. Pure integer
/// arithmetic end to end; identical inputs give identical reports.
pub fn run_virtual(cfg: &LoadgenConfig) -> LoadgenReport {
    assert!(cfg.nodes > 0 && cfg.workers_per_node > 0);
    // The simulation stream is independent of the arrival stream so
    // `arrival_schedule` can be replayed standalone (live mode).
    let mut rng = Rng {
        seed: nomad_faults::splitmix64(cfg.seed),
        ctr: 0,
    };
    let mut nodes: Vec<VNode> = (0..cfg.nodes)
        .map(|_| VNode {
            queue: VecDeque::new(),
            busy: 0,
            breaker: Breaker::new(cfg.breaker_config()),
            ewma_ms: 0,
        })
        .collect();

    let arrivals = arrival_schedule(cfg);
    let mut events = std::collections::BinaryHeap::new();
    let mut seq = 0u64;
    for &at in &arrivals {
        events.push(std::cmp::Reverse(Event {
            at_ms: at,
            seq,
            kind: EventKind::Arrival,
        }));
        seq += 1;
    }

    let offered = arrivals.len() as u64;
    let mut completed = 0u64;
    let mut completed_in_deadline = 0u64;
    let mut shed = ShedCounts::default();
    let mut reroutes = 0u64;
    let mut expired_executions = 0u64;
    let mut sojourns = LogHistogram::new();

    // Service time for a job starting now on `node`.
    let service = |now: u64, node: usize, rng: &mut Rng, cfg: &LoadgenConfig| -> u64 {
        let jitter = if cfg.service_jitter_ms == 0 {
            0
        } else {
            rng.next() % (cfg.service_jitter_ms + 1)
        };
        let base = cfg.service_base_ms + jitter;
        if node == cfg.slow.node && now >= cfg.slow.from_ms && now < cfg.slow.to_ms {
            base * cfg.slow.factor
        } else {
            base
        }
    };

    while let Some(std::cmp::Reverse(ev)) = events.pop() {
        let now = ev.at_ms;
        match ev.kind {
            EventKind::Arrival => {
                // Route: salted hash of the arrival, then the breaker
                // gate — a tripped node loses the job to the next
                // allowed one (or keeps it if none is).
                let preferred = (rng.next() % cfg.nodes as u64) as usize;
                let mut target = preferred;
                if !nodes[target].breaker.allow(now) {
                    if let Some(alt) = (1..cfg.nodes)
                        .map(|step| (preferred + step) % cfg.nodes)
                        .find(|&n| nodes[n].breaker.allow(now))
                    {
                        reroutes += 1;
                        target = alt;
                    }
                }
                let node = &mut nodes[target];
                // Admission control: shed on arrival when the queue's
                // estimated wait already exceeds the budget.
                let est = overload::estimated_wait_ms(
                    node.queue.len(),
                    cfg.workers_per_node as usize,
                    node.ewma_ms,
                );
                if overload::admit_would_expire(cfg.deadline_ms, est) {
                    shed.admit += 1;
                    node.breaker.record(now, false, Duration::ZERO);
                    continue;
                }
                // Bounded queue: reject outright at capacity.
                if node.queue.len() >= cfg.queue_capacity {
                    shed.queue_full += 1;
                    node.breaker.record(now, false, Duration::ZERO);
                    continue;
                }
                let deadline_ms = now + cfg.deadline_ms;
                if node.busy < cfg.workers_per_node {
                    node.busy += 1;
                    let took = service(now, target, &mut rng, cfg);
                    events.push(std::cmp::Reverse(Event {
                        at_ms: now + took,
                        seq,
                        kind: EventKind::Done {
                            node: target,
                            arrived_ms: now,
                            deadline_ms,
                            service_ms: took,
                        },
                    }));
                    seq += 1;
                } else {
                    node.queue.push_back(Queued {
                        arrived_ms: now,
                        deadline_ms,
                    });
                }
            }
            EventKind::Done {
                node: idx,
                arrived_ms,
                deadline_ms,
                service_ms,
            } => {
                let sojourn = now - arrived_ms;
                sojourns.record(sojourn);
                completed += 1;
                if now <= deadline_ms {
                    completed_in_deadline += 1;
                }
                // The breaker judges the node by the full sojourn —
                // exactly what a router-side client observes; the
                // admission EWMA tracks pure execution time, exactly
                // what the serve tier's `record_service_time` feeds.
                nodes[idx]
                    .breaker
                    .record(now, true, Duration::from_millis(sojourn));
                nodes[idx].ewma_ms = overload::ewma_step(nodes[idx].ewma_ms, service_ms);
                // Pull the next admissible job: the dequeue checkpoint
                // sheds expired work, then the CoDel rule sheds
                // persistently-late work (never the last job).
                let mut started = false;
                while let Some(q) = nodes[idx].queue.pop_front() {
                    let sojourn = now - q.arrived_ms;
                    if now > q.deadline_ms {
                        shed.queue += 1;
                        nodes[idx].breaker.record(now, false, Duration::ZERO);
                        continue;
                    }
                    if overload::codel_should_shed(
                        sojourn,
                        cfg.codel_target_ms,
                        nodes[idx].queue.len(),
                    ) {
                        shed.codel += 1;
                        nodes[idx].breaker.record(now, false, Duration::ZERO);
                        continue;
                    }
                    // Pre-execute checkpoint (the SLO witness): a job
                    // that passed the dequeue checks cannot have
                    // expired, so this stays zero while shedding is on.
                    if now > q.deadline_ms {
                        expired_executions += 1;
                    }
                    let took = service(now, idx, &mut rng, cfg);
                    events.push(std::cmp::Reverse(Event {
                        at_ms: now + took,
                        seq,
                        kind: EventKind::Done {
                            node: idx,
                            arrived_ms: q.arrived_ms,
                            deadline_ms: q.deadline_ms,
                            service_ms: took,
                        },
                    }));
                    seq += 1;
                    started = true;
                    break;
                }
                if !started {
                    nodes[idx].busy -= 1;
                }
            }
        }
    }

    let breaker = BreakerCounts {
        trips: nodes.iter().map(|n| n.breaker.trip_count()).sum(),
        probes: nodes.iter().map(|n| n.breaker.probe_count()).sum(),
        closes: nodes.iter().map(|n| n.breaker.close_count()).sum(),
        reroutes,
    };
    for node in &nodes {
        debug_assert_eq!(node.busy, 0, "all work drained");
        debug_assert_ne!(
            node.breaker.state(),
            BreakerState::HalfOpen,
            "no probe outstanding at drain"
        );
    }
    let goodput_pct = (completed_in_deadline * 100)
        .checked_div(offered)
        .unwrap_or(100);
    let p50 = sojourns.quantile(0.5);
    let p99 = sojourns.quantile(0.99);
    let verdict = Verdict {
        goodput_ok: goodput_pct >= cfg.slo.min_goodput_pct,
        p99_ok: p99 <= cfg.slo.max_p99_ms,
        no_expired_executions: expired_executions == 0,
        breaker_tripped: breaker.trips >= 1,
        pass: goodput_pct >= cfg.slo.min_goodput_pct
            && p99 <= cfg.slo.max_p99_ms
            && expired_executions == 0
            && breaker.trips >= 1,
    };
    LoadgenReport {
        config: cfg.clone(),
        offered,
        completed,
        completed_in_deadline,
        goodput_pct,
        shed,
        breaker,
        expired_executions,
        sojourn_p50_ms: p50,
        sojourn_p99_ms: p99,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_runs_are_deterministic() {
        let cfg = LoadgenConfig::default();
        let a = run_virtual(&cfg);
        let b = run_virtual(&cfg);
        let ja = serde_json::to_string(&a).expect("serialize");
        let jb = serde_json::to_string(&b).expect("serialize");
        assert_eq!(ja, jb, "same seed, byte-identical report");
        assert!(a.offered > 100, "the scenario offers real load");
    }

    #[test]
    fn different_seeds_differ_but_both_pass() {
        let a = run_virtual(&LoadgenConfig::with_seed(42));
        let b = run_virtual(&LoadgenConfig::with_seed(43));
        assert_ne!(
            (a.offered, a.completed),
            (b.offered, b.completed),
            "seeds shift the stream"
        );
        assert!(a.verdict.pass, "default scenario holds its SLO: {a:?}");
        assert!(b.verdict.pass, "SLO is not seed-tuned: {:?}", b.verdict);
    }

    #[test]
    fn the_slow_node_trips_its_breaker_and_recovers() {
        let report = run_virtual(&LoadgenConfig::default());
        assert!(report.verdict.breaker_tripped);
        assert!(report.breaker.probes >= 1, "cooldown probes were issued");
        assert!(report.breaker.closes >= 1, "the breaker healed");
        assert!(report.breaker.reroutes >= 1, "traffic routed around");
        assert_eq!(report.expired_executions, 0, "no expired job ever ran");
    }

    #[test]
    fn burst_pressure_actually_sheds() {
        let report = run_virtual(&LoadgenConfig::default());
        let total_shed =
            report.shed.admit + report.shed.queue_full + report.shed.queue + report.shed.codel;
        assert!(total_shed > 0, "the burst overruns capacity: {report:?}");
        assert_eq!(
            report.offered,
            report.completed + total_shed,
            "every arrival completes or sheds exactly once"
        );
    }
}
