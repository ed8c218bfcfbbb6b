//! The [`Dram`] device façade: address decoding, clock-domain crossing
//! and completion delivery in CPU cycles.

use crate::channel::{Channel, ChannelCompletion};
use crate::config::{AddrMap, DramConfig};
use crate::stats::DramStats;
use nomad_obs::{Gauge, Registry};
use nomad_types::{AccessKind, Cycle, ReqId, TrafficClass};

/// How much of the addressed block a request actually moves over the
/// data bus.
///
/// Everything before the data transfer — bank state, ACT/PRE/CAS
/// timing, FR-FCFS ordering — is identical for both variants; only the
/// burst length (and hence bus occupancy and byte accounting) differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Probe {
    /// A full 64-byte data burst ([`TimingParams::t_burst`](crate::TimingParams) beats).
    #[default]
    Data,
    /// A tag-only probe ([`TimingParams::t_tag`](crate::TimingParams) beats): the
    /// TDRAM-style on-die tag check that returns just the row's tag
    /// metadata, signalling hit/miss without occupying the bus for a
    /// full burst.
    TagOnly,
}

impl Probe {
    /// Bytes this probe moves over the data bus (for bandwidth stats).
    pub fn bytes(self) -> u64 {
        match self {
            Probe::Data => 64,
            Probe::TagOnly => 8,
        }
    }
}

/// A request submitted to a DRAM device. `addr` is a byte address in the
/// device's own address space; only its 64-byte block identity matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Caller-scoped identifier echoed in the completion.
    pub token: ReqId,
    /// Byte address within the device.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Bandwidth-attribution class.
    pub class: TrafficClass,
    /// Whether the caller wants a [`DramCompletion`]. Posted writes that
    /// nobody tracks can set this to `false`.
    pub wants_completion: bool,
    /// Full data burst or tag-only probe.
    pub probe: Probe,
}

/// Completion of a DRAM request, delivered in CPU-cycle time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// Token of the completed request.
    pub token: ReqId,
    /// Kind of the completed request.
    pub kind: AccessKind,
    /// Class of the completed request.
    pub class: TrafficClass,
    /// CPU cycle at which the data transfer finished.
    pub at: Cycle,
}

/// A multi-channel DRAM device ticked at CPU clock.
///
/// Each CPU-cycle [`tick`](Dram::tick) advances the internal device
/// clock by the configured rational ratio and pushes any finished
/// transfers into the caller's completion buffer. The device keeps its
/// own due edge — the earliest channel due cycle or pending completion
/// deadline — so a device edge before it costs one O(1) queue-occupancy
/// sample, and [`due_at`](Dram::due_at) reports that edge in CPU ticks.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    map: AddrMap,
    channels: Vec<Channel>,
    stats: DramStats,
    /// Fractional device-clock accumulator.
    clock_acc: u64,
    /// Current device cycle.
    dev_cycle: u64,
    /// Current CPU cycle (count of `tick` calls).
    cpu_cycle: Cycle,
    /// Completions waiting for their device-cycle deadline.
    pending: Vec<ChannelCompletion>,
    /// Minimum `done_at` over `pending` (`u64::MAX` when empty): pushes
    /// fold into it, deliveries recompute it.
    pending_due: u64,
    /// Commands queued across all channels.
    queued: usize,
    /// Device cycle of the next edge that can do anything: the minimum
    /// of every channel's due cycle and `pending_due`.
    due: u64,
    scratch: Vec<ChannelCompletion>,
    obs: Option<DramObs>,
}

/// Sampled observability gauges for one DRAM device: traffic totals
/// mirrored from [`DramStats`] plus the instantaneous per-channel queue
/// depth. Refreshed only at sample points — the timing path never
/// touches them.
#[derive(Debug)]
struct DramObs {
    bytes_total: Gauge,
    row_hits: Gauge,
    row_misses: Gauge,
    refreshes: Gauge,
    queue_depth: Vec<Gauge>,
}

impl Dram {
    /// Build a device from its configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let map = cfg.addr_map();
        let channels = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        let stats = DramStats::new(&cfg);
        Dram {
            due: cfg.timing.t_refi,
            cfg,
            map,
            channels,
            stats,
            clock_acc: 0,
            dev_cycle: 0,
            cpu_cycle: 0,
            pending: Vec::new(),
            pending_due: u64::MAX,
            queued: 0,
            scratch: Vec::new(),
            obs: None,
        }
    }

    /// Device configuration.
    pub fn cfg(&self) -> &DramConfig {
        &self.cfg
    }

    /// Register this device's sampled metrics under `prefix` (e.g.
    /// `dram.hbm`): cumulative traffic/row-buffer totals and one queue
    /// depth gauge per channel (`<prefix>.ch.<i>.queue_depth`).
    pub fn attach_obs(&mut self, reg: &Registry, prefix: &str) {
        self.obs = Some(DramObs {
            bytes_total: reg.gauge(
                format!("{prefix}.bytes_total"),
                "bytes",
                "dram",
                "Bytes transferred (all traffic classes) since the measurement reset",
            ),
            row_hits: reg.gauge(
                format!("{prefix}.row_hits"),
                "accesses",
                "dram",
                "Column accesses that hit an open row buffer",
            ),
            row_misses: reg.gauge(
                format!("{prefix}.row_misses"),
                "accesses",
                "dram",
                "Column accesses that required activating a row",
            ),
            refreshes: reg.gauge(
                format!("{prefix}.refreshes"),
                "operations",
                "dram",
                "Refresh operations issued",
            ),
            queue_depth: (0..self.channels.len())
                .map(|i| {
                    reg.gauge(
                        format!("{prefix}.ch.{i}.queue_depth"),
                        "requests",
                        "dram",
                        "Requests queued in this channel at the sample point",
                    )
                })
                .collect(),
        });
    }

    /// Refresh the attached gauges from the live counters; no-op when
    /// obs is not attached.
    pub fn obs_sample(&self) {
        let Some(obs) = &self.obs else { return };
        obs.bytes_total.set(self.stats.total_bytes());
        obs.row_hits.set(self.stats.row_hits.get());
        obs.row_misses.set(self.stats.row_misses.get());
        obs.refreshes.set(self.stats.refreshes.get());
        for (g, ch) in obs.queue_depth.iter().zip(&self.channels) {
            g.set(ch.queue_len() as u64);
        }
    }

    /// Whether the channel serving `addr` can accept one more request.
    pub fn can_accept(&self, addr: u64) -> bool {
        self.channels[self.map.decode(addr).channel].can_accept()
    }

    /// Submit a request; returns it back if the target channel's queue
    /// is full so the caller can retry next cycle.
    pub fn try_push(&mut self, req: DramRequest) -> Result<(), DramRequest> {
        let loc = self.map.decode(req.addr);
        let ch = &mut self.channels[loc.channel];
        match ch.try_push(
            req.token,
            loc.bank,
            loc.row,
            req.kind,
            req.class,
            req.wants_completion,
            self.cpu_cycle,
            req.probe,
        ) {
            Ok(()) => {
                self.queued += 1;
                self.due = self.due.min(ch.due());
                Ok(())
            }
            Err(_) => Err(req),
        }
    }

    /// Advance one CPU cycle; completed transfers are appended to `out`.
    pub fn tick(&mut self, out: &mut Vec<DramCompletion>) {
        self.cpu_cycle += 1;
        self.stats.cpu_cycles += 1;
        self.clock_acc += self.cfg.cpu_per_dev_den;
        if self.clock_acc < self.cfg.cpu_per_dev_num {
            // Between device edges nothing can be scheduled or become
            // deliverable: `dev_cycle` is unchanged and the edge pass
            // below already drained everything due at it.
            return;
        }
        self.clock_acc -= self.cfg.cpu_per_dev_num;
        self.dev_cycle += 1;
        let now = self.dev_cycle;
        let channels = self.channels.len() as u64;
        if now < self.due {
            // No channel can change state and no completion is due, so
            // the edge's only residue is every channel's occupancy
            // sample.
            self.stats.sample_queue(self.queued as u64, channels);
            return;
        }
        self.scratch.clear();
        for ch in &mut self.channels {
            if now >= ch.due() {
                ch.tick_device(now, &mut self.stats, &mut self.scratch);
            }
        }
        // Every issued command is one completion.
        self.queued -= self.scratch.len();
        self.stats.sample_queue(self.queued as u64, channels);
        for c in self.scratch.drain(..) {
            self.stats.note_row_outcome(c.row_hit);
            self.stats
                .note_transfer(c.class, c.kind.is_write(), c.probe.bytes());
            self.pending_due = self.pending_due.min(c.done_at);
            self.pending.push(c);
        }
        if self.pending_due <= now {
            self.deliver(out);
        }
        self.recompute_due();
    }

    /// Deliver the pending completions whose device deadline has passed
    /// and recompute `pending_due` from the rest.
    fn deliver(&mut self, out: &mut Vec<DramCompletion>) {
        let dev_now = self.dev_cycle;
        let cpu_now = self.cpu_cycle;
        let stats = &mut self.stats;
        let mut pending_due = u64::MAX;
        self.pending.retain(|c| {
            if c.done_at <= dev_now {
                if c.kind == AccessKind::Read {
                    stats
                        .read_latency
                        .record(cpu_now.saturating_sub(c.push_cpu));
                }
                if c.wants_completion {
                    out.push(DramCompletion {
                        token: c.token,
                        kind: c.kind,
                        class: c.class,
                        at: cpu_now,
                    });
                }
                false
            } else {
                pending_due = pending_due.min(c.done_at);
                true
            }
        });
        self.pending_due = pending_due;
    }

    /// Recompute the device due edge from the channels and `pending_due`.
    fn recompute_due(&mut self) {
        self.due = self
            .channels
            .iter()
            .map(Channel::due)
            .fold(self.pending_due, u64::min);
    }

    /// The pre-gating edge pass, kept as a parity oracle for
    /// [`tick`](Self::tick): every channel runs its scheduler on every
    /// device edge and the pending buffer is scanned on every edge.
    #[cfg(test)]
    fn tick_oracle(&mut self, out: &mut Vec<DramCompletion>) {
        self.cpu_cycle += 1;
        self.stats.cpu_cycles += 1;
        self.clock_acc += self.cfg.cpu_per_dev_den;
        if self.clock_acc < self.cfg.cpu_per_dev_num {
            return;
        }
        self.clock_acc -= self.cfg.cpu_per_dev_num;
        self.dev_cycle += 1;
        let now = self.dev_cycle;
        self.scratch.clear();
        for ch in &mut self.channels {
            ch.tick_device(now, &mut self.stats, &mut self.scratch);
            self.stats.sample_queue(ch.queue_len() as u64, 1);
        }
        self.queued -= self.scratch.len();
        for c in self.scratch.drain(..) {
            self.stats.note_row_outcome(c.row_hit);
            self.stats
                .note_transfer(c.class, c.kind.is_write(), c.probe.bytes());
            self.pending.push(c);
        }
        self.deliver(out);
    }

    /// CPU tick count (the value [`cpu_cycle`](Self::cpu_cycle) will
    /// have after the tick) whose tick next runs more than the O(1)
    /// quiet edge: the device edge reaching its due cycle — a channel
    /// that may change state (refreshes of empty channels included) or
    /// a completion deadline. Exact or early; strictly after
    /// [`cpu_cycle`](Self::cpu_cycle).
    pub fn due_at(&self) -> Cycle {
        // `k` more edges reach the due cycle, after `n` more ticks:
        // clock_acc + n·den ≥ k·num  ⇒  n = ⌈(k·num − clock_acc)/den⌉.
        let k = self.due.max(self.dev_cycle + 1) - self.dev_cycle;
        let need = k * self.cfg.cpu_per_dev_num - self.clock_acc;
        self.cpu_cycle + need.div_ceil(self.cfg.cpu_per_dev_den)
    }

    /// Advance `delta` CPU cycles in bulk, exactly as `delta` calls to
    /// [`tick`](Self::tick) would, for a window that ends before the due
    /// edge: `cpu_cycle() + delta < due_at()`. Every device edge in such
    /// a window is the O(1) quiet edge — no channel due, no completion
    /// deliverable — whose only residue is one queue-occupancy sample,
    /// so the window's edges are taken at once. The event kernel never
    /// skips past its memory bound, which is at most `due_at() - 1`;
    /// debug builds assert the contract.
    pub fn advance(&mut self, delta: Cycle) {
        debug_assert!(
            delta < self.due_at() - self.cpu_cycle,
            "bulk advance of {delta} cycles from {} crosses the due edge at {}",
            self.cpu_cycle,
            self.due_at()
        );
        self.cpu_cycle += delta;
        self.stats.cpu_cycles += delta;
        let total = self.clock_acc + delta * self.cfg.cpu_per_dev_den;
        let edges = total / self.cfg.cpu_per_dev_num;
        self.clock_acc = total % self.cfg.cpu_per_dev_num;
        self.dev_cycle += edges;
        self.stats.sample_queue(
            self.queued as u64 * edges,
            self.channels.len() as u64 * edges,
        );
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clear statistics at the end of a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Whether the device has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.queued == 0
    }

    /// CPU cycles ticked so far.
    pub fn cpu_cycle(&self) -> Cycle {
        self.cpu_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_req(token: u64, addr: u64) -> DramRequest {
        DramRequest {
            token: ReqId(token),
            addr,
            kind: AccessKind::Read,
            class: TrafficClass::DemandRead,
            wants_completion: true,
            probe: Probe::Data,
        }
    }

    fn run(dram: &mut Dram, cycles: u64) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            dram.tick(&mut out);
        }
        out
    }

    #[test]
    fn read_latency_close_to_idle_latency() {
        let mut dram = Dram::new(DramConfig::hbm());
        dram.try_push(read_req(1, 0x1000)).unwrap();
        let done = run(&mut dram, 500);
        assert_eq!(done.len(), 1);
        let cfg = DramConfig::hbm();
        let ideal = cfg.dev_to_cpu(cfg.idle_read_latency_dev());
        // Clock-domain rounding adds a few cycles at most.
        assert!(
            done[0].at >= ideal && done[0].at <= ideal + 3 * cfg.dev_to_cpu(1) + 2,
            "latency {} vs ideal {ideal}",
            done[0].at
        );
    }

    #[test]
    fn posted_write_produces_no_completion_but_counts_bytes() {
        let mut dram = Dram::new(DramConfig::hbm());
        dram.try_push(DramRequest {
            token: ReqId(9),
            addr: 0,
            kind: AccessKind::Write,
            class: TrafficClass::Writeback,
            wants_completion: false,
            probe: Probe::Data,
        })
        .unwrap();
        let done = run(&mut dram, 500);
        assert!(done.is_empty());
        assert_eq!(dram.stats().bytes_for(TrafficClass::Writeback).written, 64);
        assert!(dram.is_idle());
    }

    #[test]
    fn tag_probe_finishes_earlier_and_counts_tag_bytes() {
        let cfg = DramConfig::hbm();
        assert!(cfg.timing.t_tag < cfg.timing.t_burst);
        let mut data = Dram::new(cfg.clone());
        let mut tag = Dram::new(cfg);
        data.try_push(read_req(1, 0x1000)).unwrap();
        tag.try_push(DramRequest {
            probe: Probe::TagOnly,
            ..read_req(1, 0x1000)
        })
        .unwrap();
        let a = run(&mut data, 500);
        let b = run(&mut tag, 500);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert!(
            b[0].at < a[0].at,
            "tag probe at {} vs data burst at {}",
            b[0].at,
            a[0].at
        );
        assert_eq!(tag.stats().bytes_for(TrafficClass::DemandRead).read, 8);
        assert_eq!(data.stats().bytes_for(TrafficClass::DemandRead).read, 64);
    }

    #[test]
    fn sequential_page_read_approaches_peak_bandwidth() {
        let mut dram = Dram::new(DramConfig::hbm());
        let mut out = Vec::new();
        let mut pushed = 0u64;
        let mut completed = 0usize;
        let total = 512u64; // 8 pages' worth of blocks
        let mut cycles = 0u64;
        while completed < total as usize {
            while pushed < total {
                if dram.try_push(read_req(pushed, pushed * 64)).is_err() {
                    break;
                }
                pushed += 1;
            }
            dram.tick(&mut out);
            cycles += 1;
            completed += out.len();
            out.clear();
            assert!(cycles < 100_000, "deadlock");
        }
        let gbps = nomad_types::stats::gbps(total * 64, cycles, 3.2);
        // Sequential blocks interleave channels and stay in rows:
        // expect ≥ 60% of the 128 GB/s peak.
        assert!(gbps > 76.8, "got {gbps} GB/s");
        let hit_rate = dram.stats().row_hit_rate();
        assert!(hit_rate > 0.8, "row hit rate {hit_rate}");
    }

    #[test]
    fn random_reads_have_low_row_hit_rate() {
        let mut dram = Dram::new(DramConfig::ddr4_2ch());
        let mut out = Vec::new();
        let mut state = 0x12345u64;
        let mut completed = 0;
        let mut pushed = 0;
        while completed < 256 {
            if pushed < 256 {
                // xorshift for reproducible pseudo-random addresses
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let addr = (state % (1 << 30)) & !63;
                if dram.try_push(read_req(pushed, addr)).is_ok() {
                    pushed += 1;
                }
            }
            dram.tick(&mut out);
            completed += out.len();
            out.clear();
        }
        assert!(dram.stats().row_hit_rate() < 0.5);
    }

    #[test]
    fn ddr_is_five_times_slower_than_hbm_for_streams() {
        let stream = |cfg: DramConfig| -> u64 {
            let mut dram = Dram::new(cfg);
            let mut out = Vec::new();
            let total = 256u64;
            let mut pushed = 0;
            let mut completed = 0;
            let mut cycles = 0;
            while completed < total as usize {
                while pushed < total && dram.try_push(read_req(pushed, pushed * 64)).is_ok() {
                    pushed += 1;
                }
                dram.tick(&mut out);
                cycles += 1;
                completed += out.len();
                out.clear();
            }
            cycles
        };
        let hbm = stream(DramConfig::hbm());
        let ddr = stream(DramConfig::ddr4_2ch());
        let ratio = ddr as f64 / hbm as f64;
        assert!(ratio > 3.0, "DDR/HBM stream-time ratio {ratio}");
    }

    /// Drive `dram` to CPU cycle `end` the way the event kernel does:
    /// advance in bulk to the cycle before the due edge, tick the edge,
    /// repeat.
    fn skip_to(dram: &mut Dram, end: Cycle, out: &mut Vec<DramCompletion>) {
        while dram.cpu_cycle() < end {
            let quiet = (dram.due_at() - 1).min(end) - dram.cpu_cycle();
            if quiet > 0 {
                dram.advance(quiet);
            } else {
                dram.tick(out);
            }
        }
    }

    #[test]
    fn idle_advance_matches_dense_ticking() {
        for cfg in [DramConfig::hbm(), DramConfig::ddr4_2ch()] {
            let mut dense = Dram::new(cfg.clone());
            let mut event = Dram::new(cfg.clone());
            // Seed both with identical non-trivial bank/bus state.
            dense.try_push(read_req(1, 0x1000)).unwrap();
            event.try_push(read_req(1, 0x1000)).unwrap();
            run(&mut dense, 500);
            run(&mut event, 500);
            assert!(dense.is_idle() && event.is_idle());

            // Cover several refresh intervals while idle.
            let idle = cfg.dev_to_cpu(cfg.timing.t_refi) * 4 + 7;
            let mut out = Vec::new();
            run(&mut dense, idle);
            let end = event.cpu_cycle() + idle;
            skip_to(&mut event, end, &mut out);
            assert!(out.is_empty());

            assert_eq!(dense.cpu_cycle(), event.cpu_cycle());
            assert_eq!(
                serde_json::to_string(dense.stats()).unwrap(),
                serde_json::to_string(event.stats()).unwrap(),
                "stats diverged after bulk idle advance ({})",
                cfg.name
            );
            assert!(
                dense.stats().refreshes.get() >= 2,
                "window covered refreshes"
            );

            // The hidden channel state (bank timers, refresh phase) must
            // also agree: a follow-up read completes identically.
            dense.try_push(read_req(2, 0x2000)).unwrap();
            event.try_push(read_req(2, 0x2000)).unwrap();
            let a = run(&mut dense, 2000);
            let b = run(&mut event, 2000);
            assert_eq!(a, b, "post-window completion diverged ({})", cfg.name);
            assert!(!a.is_empty());
        }
    }

    /// splitmix64 step, for a dependency-free seeded stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The busy-device event path (bulk `advance` up to the due edge,
    /// then a tick) must match dense ticking exactly: identical
    /// completion streams, identical serialized stats — including the
    /// per-edge queue-occupancy samples — under seeded random traffic
    /// with arbitrary push times.
    #[test]
    fn busy_advance_matches_dense_ticking() {
        for (seed, cfg) in [
            (11u64, DramConfig::hbm()),
            (12, DramConfig::hbm()),
            (13, DramConfig::ddr4_2ch()),
            (14, DramConfig::ddr4_2ch()),
        ] {
            let mut dense = Dram::new(cfg.clone());
            let mut event = Dram::new(cfg.clone());
            // Pre-computed push schedule: (cpu_cycle, addr, is_write).
            // Bursty arrivals with long gaps exercise skips both while
            // busy and across idle refreshes.
            let mut rng = seed;
            let mut pushes: Vec<(u64, u64, bool)> = Vec::new();
            let mut at = 0u64;
            for _ in 0..400 {
                at += match mix(&mut rng) % 4 {
                    0 => 1 + mix(&mut rng) % 3,
                    1 => mix(&mut rng) % 40,
                    2 => mix(&mut rng) % 400,
                    _ => mix(&mut rng) % 4000,
                };
                let addr = (mix(&mut rng) % (1 << 28)) & !63;
                pushes.push((at, addr, mix(&mut rng).is_multiple_of(3)));
            }
            let horizon = at + cfg.dev_to_cpu(cfg.timing.t_refi) * 2 + 5000;

            let req = |i: usize, p: &(u64, u64, bool)| DramRequest {
                token: ReqId(i as u64),
                addr: p.1,
                kind: if p.2 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                class: TrafficClass::DemandRead,
                wants_completion: true,
                probe: Probe::Data,
            };

            // Dense reference: tick every cycle, push on schedule.
            let mut dense_out = Vec::new();
            let mut di = 0;
            for now in 0..horizon {
                while di < pushes.len() && pushes[di].0 == now {
                    // Drop on backpressure in both runs identically:
                    // push attempts happen at the same cpu cycle with
                    // the same device state, so outcomes agree.
                    let _ = dense.try_push(req(di, &pushes[di]));
                    di += 1;
                }
                dense.tick(&mut dense_out);
            }

            // Event path: skip to each push time, then to the horizon.
            let mut event_out = Vec::new();
            for (i, p) in pushes.iter().enumerate() {
                skip_to(&mut event, p.0, &mut event_out);
                let _ = event.try_push(req(i, p));
            }
            skip_to(&mut event, horizon, &mut event_out);

            assert_eq!(dense.cpu_cycle(), event.cpu_cycle());
            assert_eq!(dense_out, event_out, "completions diverged (seed {seed})");
            assert!(!dense_out.is_empty(), "traffic must complete something");
            assert_eq!(
                serde_json::to_string(dense.stats()).unwrap(),
                serde_json::to_string(event.stats()).unwrap(),
                "stats diverged after busy bulk advance (seed {seed}, {})",
                cfg.name
            );
        }
    }

    /// The gated edge pass (channel and device due cycles) must match
    /// the ungated oracle on every CPU cycle — identical completions and
    /// identical stats, with every channel's row-hit counts and due
    /// cycle checked against a recount — under seeded traffic that alternates bursts
    /// deep enough to fill the command queues, a trickle, and idle gaps
    /// spanning refreshes, with tag-only probes and posted writes mixed
    /// in.
    #[test]
    fn gated_tick_matches_ungated_oracle() {
        for (seed, cfg) in [
            (21u64, DramConfig::hbm()),
            (22, DramConfig::hbm()),
            (23, DramConfig::ddr4_2ch()),
            (24, DramConfig::ddr4_2ch()),
        ] {
            let mut gated = Dram::new(cfg.clone());
            let mut oracle = Dram::new(cfg.clone());
            let (mut out_gated, mut out_oracle) = (Vec::new(), Vec::new());
            let mut rng = seed;
            let mut token = 0u64;
            let mut refused = 0u64;
            let mut tag_probes = 0u64;
            // Each refresh interval: a short burst, a trickle, then idle.
            let period = cfg.dev_to_cpu(cfg.timing.t_refi);
            for now in 0..period * 5 {
                let pushes = match now % period {
                    p if p < period / 8 => mix(&mut rng) % 4,
                    p if p < period / 2 => u64::from(mix(&mut rng).is_multiple_of(16)),
                    _ => 0,
                };
                for _ in 0..pushes {
                    token += 1;
                    let write = mix(&mut rng).is_multiple_of(3);
                    let probe = if mix(&mut rng).is_multiple_of(4) {
                        tag_probes += 1;
                        Probe::TagOnly
                    } else {
                        Probe::Data
                    };
                    let req = DramRequest {
                        token: ReqId(token),
                        // Few rows per bank: hits, conflicts and ACTs.
                        addr: (mix(&mut rng) % (1 << 22)) & !63,
                        kind: if write {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        class: TrafficClass::DemandRead,
                        wants_completion: !write || mix(&mut rng).is_multiple_of(2),
                        probe,
                    };
                    let accepted = gated.try_push(req).is_ok();
                    assert_eq!(accepted, oracle.try_push(req).is_ok());
                    refused += u64::from(!accepted);
                }
                gated.tick(&mut out_gated);
                oracle.tick_oracle(&mut out_oracle);
                for ch in &gated.channels {
                    ch.assert_bookkeeping(gated.dev_cycle);
                }
                assert_eq!(
                    out_gated, out_oracle,
                    "completions diverged (seed {seed}, cycle {now})"
                );
                assert!(
                    gated.stats() == oracle.stats(),
                    "stats diverged (seed {seed}, cycle {now})"
                );
            }
            assert!(refused > 0, "bursts must fill a queue (seed {seed})");
            assert!(tag_probes > 0 && !out_gated.is_empty());
            assert!(gated.stats().refreshes.get() >= 4 * cfg.channels as u64);
        }
    }

    /// No tick before the due edge delivers a completion or refreshes.
    #[test]
    fn due_is_never_late() {
        let mut dram = Dram::new(DramConfig::hbm());
        for i in 0..8 {
            dram.try_push(read_req(i, i * 4096)).unwrap();
        }
        let cfg = DramConfig::hbm();
        let mut out = Vec::new();
        let mut completions = 0;
        for _ in 0..cfg.dev_to_cpu(cfg.timing.t_refi) * 3 {
            let due = dram.due_at();
            let refreshes = dram.stats().refreshes.get();
            out.clear();
            dram.tick(&mut out);
            completions += out.len();
            if !out.is_empty() || dram.stats().refreshes.get() != refreshes {
                assert!(
                    dram.cpu_cycle() >= due,
                    "activity at {} before the due edge {due}",
                    dram.cpu_cycle()
                );
            }
        }
        assert_eq!(completions, 8);
        assert!(dram.is_idle() && dram.stats().refreshes.get() >= 2);
    }

    #[test]
    fn stats_reset_mid_run() {
        let mut dram = Dram::new(DramConfig::hbm());
        dram.try_push(read_req(1, 0)).unwrap();
        run(&mut dram, 500);
        assert!(dram.stats().total_bytes() > 0);
        dram.reset_stats();
        assert_eq!(dram.stats().total_bytes(), 0);
        assert_eq!(dram.stats().cpu_cycles, 0);
    }
}
