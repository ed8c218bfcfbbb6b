//! The [`System`]: cores, TLBs, SRAM caches, DRAM-cache scheme and
//! DRAM devices wired into one cycle-level simulation.

use crate::config::SystemConfig;
use crate::report::{ObsSeries, RunReport};
use nomad_cache::{CacheLevel, TlbHierarchy, TlbLookup};
use nomad_cpu::{Core, PendingMemOp};
use nomad_dcache::{CacheFlush, DcAccessReq, DcScheme, SchemeEvents, SchemeStatsObs};
use nomad_dram::Dram;
use nomad_obs::{Registry, SnapshotLog, SpanRing, SIM_TRACKS, TRACK_LLC_MSHR};
use nomad_trace::TraceSource;
use nomad_types::{
    AccessKind, BlockAddr, CancelToken, CoreId, Cycle, MemReq, MemTarget, NextActivity, ReqId,
    TrafficClass, VirtAddr,
};

/// Per-core address-space namespacing: each core runs its own copy of
/// the benchmark in a disjoint virtual range (the paper's rate-mode
/// setup).
fn namespaced(vaddr: VirtAddr, core: CoreId) -> VirtAddr {
    VirtAddr(vaddr.raw() | ((core as u64) << 44))
}

#[derive(Debug, Clone, Copy)]
struct Walk {
    op: PendingMemOp,
    ready_at: Cycle,
}

#[derive(Debug, Clone, Copy)]
struct IssueEntry {
    at: Cycle,
    op: PendingMemOp,
    addr: BlockAddr,
    target: MemTarget,
}

/// Hierarchy-wide flush view handed to the scheme (Algorithm 2's
/// `flush_cache_range`).
struct HierFlush<'a> {
    l1s: &'a mut [CacheLevel],
    l2s: &'a mut [CacheLevel],
    l3: &'a mut CacheLevel,
}

impl CacheFlush for HierFlush<'_> {
    fn flush_dc_page(&mut self, page: u64) -> (usize, usize) {
        let mut lines = 0;
        let mut dirty = 0;
        for c in self.l1s.iter_mut().chain(self.l2s.iter_mut()) {
            let (l, d) = c.invalidate_dc_page(page);
            lines += l;
            dirty += d;
        }
        let (l, d) = self.l3.invalidate_dc_page(page);
        (lines + l, dirty + d)
    }
}

/// Metric names exported as `ph:"C"` counter series in the Chrome
/// trace — the occupancy signals that make TDC's blocking vs NOMAD's
/// non-blocking behaviour visible above the span rows.
const TRACE_COUNTERS: &[&str] = &[
    "dcache.pcshr_occupancy",
    "dcache.free_frames",
    "cache.l3.mshr_occupancy",
];

/// Wall-clock split of the dense-tick hot path, armed by the
/// `NOMAD_HOT_PROFILE` environment variable (or
/// [`System::enable_hot_profile`]). Purely observational: the counters
/// never feed back into simulated state, so profiled and unprofiled
/// runs produce byte-identical [`RunReport`]s. Off (the default), the
/// only residue on the tick path is a handful of `Option::is_some`
/// branches. Armed, the laps read [`nomad_types::fastclock`] (RDTSC
/// on x86-64, a few ns per read) instead of `Instant`, keeping the
/// profiled run within a few percent of unprofiled speed; raw units
/// are converted to nanoseconds only when a report is snapshotted.
#[derive(Debug, Default, Clone, Copy)]
struct HotProfile {
    /// Phases 1–3: core commit/dispatch, translation, L1 injection.
    cpu_raw: u64,
    /// Phase 4: the SRAM hierarchy ([`System::tick_caches`]).
    cache_raw: u64,
    /// Phase 5: scheme tick (which ticks both DRAM devices internally)
    /// plus response/shootdown/wake delivery, or on a memory-quiet tick
    /// the two device ticks alone. The DRAM share is carved out
    /// afterwards from the devices' own profiled time.
    scheme_raw: u64,
    /// Steps on which a cluster or the L3 ran, in the profiled window.
    dense_ticks: u64,
    /// Event-kernel bulk advances ([`System::skip`]) in the window.
    skips: u64,
    /// Cycles covered by those skips.
    skipped_cycles: u64,
    /// Steps on which every cluster and the L3 slept.
    burst_ticks: u64,
    /// Dense ticks whose phase 5 was skipped (memory-quiet ticks).
    mem_quiet_ticks: u64,
    /// Core-cluster ticks slept through on dense ticks.
    cluster_quiet_ticks: u64,
    /// Dense ticks on which the L3 slept.
    l3_quiet_ticks: u64,
}

/// Snapshot of the hot-path profile ([`System::hot_profile`]),
/// suitable for JSON artifacts. The dcache/dram split divides phase 5:
/// `dram_nanos` is wall time inside `Dram::tick` for both devices,
/// `dcache_nanos` is the rest of the scheme tick.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct HotProfileReport {
    /// Wall nanos in the core/translation/issue phases.
    pub cpu_nanos: u64,
    /// Wall nanos in the SRAM hierarchy phase.
    pub cache_nanos: u64,
    /// Wall nanos in the scheme tick outside the DRAM devices.
    pub dcache_nanos: u64,
    /// Wall nanos inside `Dram::tick` (HBM + DDR4).
    pub dram_nanos: u64,
    /// Dense ticks in the profiled window: steps on which at least one
    /// cluster or the L3 ran (every step under [`System::run_dense`]).
    pub dense_ticks: u64,
    /// Event-kernel skips in the window.
    pub skips: u64,
    /// Cycles covered by those skips.
    pub skipped_cycles: u64,
    /// Burst ticks: steps on which every cluster and the L3 slept, so
    /// only phase 5 (or the devices' quiet clocks) ran. Counted in no
    /// other tick counter, so `dense_ticks + burst_ticks` is every
    /// stepped cycle. A deterministic work counter: 0 under
    /// [`System::run_dense`].
    pub burst_ticks: u64,
    /// Dense ticks whose phase 5 was skipped because neither the scheme
    /// nor a DRAM device had anything due (memory-quiet ticks). A
    /// deterministic work counter: 0 under [`System::run_dense`].
    pub mem_quiet_ticks: u64,
    /// Core-cluster ticks slept through on dense ticks: per dense tick,
    /// the clusters (core, walks, dispatch and issue queues, L1, L2)
    /// with nothing due. A deterministic work counter: 0 under
    /// [`System::run_dense`].
    pub cluster_quiet_ticks: u64,
    /// Dense ticks on which the L3 had nothing due and slept. A
    /// deterministic work counter: 0 under [`System::run_dense`].
    pub l3_quiet_ticks: u64,
}

/// Observability state of one system: the per-system [`Registry`] every
/// component registered into, the shared span ring, and the snapshot
/// schedule. Per-system (never global) so `NOMAD_JOBS=4` sweeps stay
/// deterministic — parallel cells never share a metric cell.
struct SysObs {
    registry: Registry,
    ring: SpanRing,
    log: SnapshotLog,
    /// Snapshot cadence in cycles ([`nomad_obs::sample_interval`]).
    interval: u64,
    /// Next snapshot cycle, an `interval` boundary; the event kernel
    /// never skips past it, so both kernels sample the same cycles.
    next_sample: Cycle,
    /// Sampled mirrors of the generic [`nomad_dcache::SchemeStats`].
    scheme_gauges: SchemeStatsObs,
}

/// A complete simulated system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    tlbs: Vec<TlbHierarchy>,
    l1s: Vec<CacheLevel>,
    l2s: Vec<CacheLevel>,
    l3: CacheLevel,
    scheme: Box<dyn DcScheme>,
    hbm: Dram,
    ddr: Dram,
    cycle: Cycle,
    /// Page-table walks in flight, per core.
    walking: Vec<Vec<Walk>>,
    /// Memory ops whose walk blocked on an OS routine, per core.
    blocked: Vec<Vec<PendingMemOp>>,
    /// Translated ops awaiting L1 injection, per core.
    issue_q: Vec<Vec<IssueEntry>>,
    ev: SchemeEvents,
    /// Cycles measured since the last stats reset.
    measured_cycles: Cycle,
    /// Observability state; `None` (the common case) is the exact
    /// pre-instrumentation code path.
    obs: Option<SysObs>,
    /// Hot-path wall-time profile; `None` (the common case) keeps the
    /// tick loop free of any clock reads.
    hot: Option<HotProfile>,
    /// First cycle whose phase 5 may do anything: the minimum of the
    /// scheme's next activity and both devices' due edges, recomputed
    /// at the end of every phase 5 and lowered to the current cycle
    /// whenever phases 1–4 call into the scheme. Exact or early.
    mem_next: Cycle,
    /// Per core, the first cycle at which its cluster — the core, its
    /// pending dispatch, walks and translated issues, its L1 and L2 —
    /// may do more than stall accounting: recomputed from post-tick
    /// state for every cluster that ran, and lowered to the next cycle
    /// when the L3 hands its L2 a fill or phase 5 wakes its core. Exact
    /// or early; the gated step runs a cluster only once it is due.
    cluster_due: Vec<Cycle>,
    /// Bit-mask of the clusters that ran on the last dense step: their
    /// `cluster_due` is recomputed at the start of the next one, or by
    /// [`next_due`](Self::next_due) before a skip.
    ran: u64,
    /// First cycle at which the L3 may do anything, kept the same way:
    /// recomputed after every L3 tick, lowered by L2 → L3 pushes and by
    /// phase-5 responses.
    l3_due: Cycle,
    /// The stall ledger: per core, the first cycle whose stall
    /// accounting is not yet in the core's counters. Cycles a core
    /// sleeps through — in a sleeping cluster or a skip — are owed
    /// here and applied through [`Core::idle_advance`] by [`settle`]
    /// before the core's next tick, before a wake, before an obs
    /// sample, at [`reset_stats`](Self::reset_stats) and when a run
    /// returns.
    idle_from: Vec<Cycle>,
}

/// The most cores a [`System`] simulates. It bounds the per-job work
/// that inputs from outside the process (env values, wire jobs) can
/// ask for, and they are checked against it before anything is built;
/// it also keeps every core inside the 64-bit cluster masks.
pub const MAX_CORES: usize = 20;

/// Cycles without a commit after which a run is declared deadlocked.
const DEADLOCK_CYCLES: Cycle = 3_000_000;

impl core::fmt::Debug for System {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("System")
            .field("scheme", &self.scheme.name())
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Assemble a system running `scheme` with one trace per core.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len() != cfg.cores` or `cfg.cores >
    /// MAX_CORES`.
    pub fn new(
        cfg: SystemConfig,
        scheme: Box<dyn DcScheme>,
        traces: Vec<Box<dyn TraceSource>>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core");
        assert!(
            cfg.cores <= MAX_CORES,
            "a system simulates at most {MAX_CORES} cores, got {}",
            cfg.cores
        );
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, cfg.core, t))
            .collect();
        let mut sys = System {
            tlbs: (0..cfg.cores).map(|_| TlbHierarchy::new(cfg.tlb)).collect(),
            l1s: (0..cfg.cores)
                .map(|_| CacheLevel::new(cfg.l1.clone()))
                .collect(),
            l2s: (0..cfg.cores)
                .map(|_| CacheLevel::new(cfg.l2.clone()))
                .collect(),
            l3: CacheLevel::new(cfg.l3.clone()),
            scheme,
            hbm: Dram::new(cfg.hbm.clone()),
            ddr: Dram::new(cfg.ddr.clone()),
            cycle: 0,
            walking: (0..cfg.cores).map(|_| Vec::new()).collect(),
            blocked: (0..cfg.cores).map(|_| Vec::new()).collect(),
            issue_q: (0..cfg.cores).map(|_| Vec::new()).collect(),
            ev: SchemeEvents::default(),
            measured_cycles: 0,
            obs: None,
            hot: None,
            mem_next: 0,
            cluster_due: vec![0; cfg.cores],
            ran: 0,
            l3_due: 0,
            idle_from: vec![0; cfg.cores],
            cores,
            cfg,
        };
        if nomad_obs::enabled() {
            sys.install_obs();
        }
        if std::env::var_os("NOMAD_HOT_PROFILE").is_some() {
            sys.enable_hot_profile();
        }
        sys
    }

    /// Whether [`reset_for_cell`](Self::reset_for_cell) can switch this
    /// system to a cell running under `cfg`: the configurations must
    /// be identical. Kept only for the repository benchmark
    /// (`perfbench/`), which still calls it; every in-tree cell builds
    /// a fresh system.
    pub fn can_reuse_for(&self, cfg: &SystemConfig) -> bool {
        self.cfg == *cfg
    }

    /// Replace this system with a freshly built one running `scheme`
    /// over `traces` under the same configuration: exactly
    /// `System::new(cfg, scheme, traces)`. Kept only for the
    /// repository benchmark (`perfbench/`), which still calls it.
    ///
    /// # Panics
    ///
    /// Panics if `traces.len()` differs from the configured core count.
    pub fn reset_for_cell(&mut self, scheme: Box<dyn DcScheme>, traces: Vec<Box<dyn TraceSource>>) {
        *self = System::new(self.cfg.clone(), scheme, traces);
    }

    /// Arm the hot-path wall-time profile (see [`HotProfileReport`]).
    /// Also armed by the `NOMAD_HOT_PROFILE` environment variable.
    /// Counters restart from zero at every [`reset_stats`](Self::reset_stats),
    /// so a warm-up phase never pollutes the measured window.
    pub fn enable_hot_profile(&mut self) {
        nomad_types::fastclock::init();
        self.hot = Some(HotProfile::default());
        self.hbm.set_profile(true);
        self.ddr.set_profile(true);
    }

    /// Snapshot the hot-path profile, or `None` when it is not armed.
    pub fn hot_profile(&self) -> Option<HotProfileReport> {
        let h = self.hot.as_ref()?;
        let to_nanos = nomad_types::fastclock::span_to_nanos;
        let dram_raw = self.hbm.profiled_raw() + self.ddr.profiled_raw();
        Some(HotProfileReport {
            cpu_nanos: to_nanos(h.cpu_raw),
            cache_nanos: to_nanos(h.cache_raw),
            dcache_nanos: to_nanos(h.scheme_raw.saturating_sub(dram_raw)),
            dram_nanos: to_nanos(dram_raw),
            dense_ticks: h.dense_ticks,
            burst_ticks: h.burst_ticks,
            mem_quiet_ticks: h.mem_quiet_ticks,
            cluster_quiet_ticks: h.cluster_quiet_ticks,
            l3_quiet_ticks: h.l3_quiet_ticks,
            skips: h.skips,
            skipped_cycles: h.skipped_cycles,
        })
    }

    /// Build the per-system [`Registry`], attach every component's
    /// metrics to it, and start the snapshot schedule. Called once from
    /// [`System::new`] when [`nomad_obs::enabled`] — an un-observed
    /// system never holds any obs state at all.
    fn install_obs(&mut self) {
        let registry = Registry::new();
        let ring = SpanRing::default();
        for core in &mut self.cores {
            core.attach_obs(&registry);
        }
        for (i, l1) in self.l1s.iter_mut().enumerate() {
            l1.attach_obs(&registry, &format!("cache.l1.{i}"));
        }
        for (i, l2) in self.l2s.iter_mut().enumerate() {
            l2.attach_obs(&registry, &format!("cache.l2.{i}"));
        }
        self.l3
            .attach_obs_full(&registry, "cache.l3", ring.clone(), TRACK_LLC_MSHR);
        self.hbm.attach_obs(&registry, "dram.hbm");
        self.ddr.attach_obs(&registry, "dram.ddr");
        self.scheme.attach_obs(&registry, &ring);
        let scheme_gauges = SchemeStatsObs::register(&registry);
        let interval = nomad_obs::sample_interval();
        self.obs = Some(SysObs {
            registry,
            ring,
            log: SnapshotLog::new(),
            interval,
            next_sample: self.cycle - self.cycle % interval + interval,
            scheme_gauges,
        });
    }

    /// Refresh every registered gauge from live component state and
    /// append one snapshot keyed by `now`; reschedules the next sample
    /// at the following `interval` boundary. Gauges read the cores'
    /// counters, so the stall ledger is settled first.
    fn obs_sample(&mut self, now: Cycle) {
        self.settle_all();
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        for core in &self.cores {
            core.obs_sample();
        }
        for lvl in self.l1s.iter().chain(self.l2s.iter()) {
            lvl.obs_sample();
        }
        self.l3.obs_sample();
        self.hbm.obs_sample();
        self.ddr.obs_sample();
        self.scheme.obs_sample();
        obs.scheme_gauges.sample(self.scheme.stats());
        obs.log.push(obs.registry.snapshot(now));
        obs.next_sample = now - now % obs.interval + obs.interval;
    }

    /// Render the observed run into serialized artifacts, or `None`
    /// when the system is un-observed. `label` names the trace process
    /// (e.g. `"mcf NOMAD"`).
    pub fn obs_series(&self, label: &str) -> Option<ObsSeries> {
        let obs = self.obs.as_ref()?;
        Some(ObsSeries {
            interval: obs.interval,
            snapshots: nomad_obs::export::snapshot_json(
                obs.interval,
                &obs.registry.descs(),
                &obs.log,
            ),
            trace: nomad_obs::trace::chrome_trace(
                label,
                SIM_TRACKS,
                &obs.ring,
                Some(&obs.log),
                TRACE_COUNTERS,
            ),
        })
    }

    /// Sorted base names of every metric this system's registry
    /// exports, or `None` when un-observed. The `metrics_doc` test in
    /// `nomad-bench` diffs this list against `METRICS.md`.
    pub fn obs_metric_names(&self) -> Option<Vec<String>> {
        self.obs.as_ref().map(|o| o.registry.names())
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Cycles since the last stats reset.
    pub fn measured_cycles(&self) -> Cycle {
        self.measured_cycles
    }

    /// The system configuration.
    pub fn cfg(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The active scheme (for stats).
    pub fn scheme(&self) -> &dyn DcScheme {
        self.scheme.as_ref()
    }

    /// Total instructions committed across all cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats().instructions.get())
            .sum()
    }

    /// Minimum per-core committed instructions (run-completion metric).
    pub fn min_core_instructions(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.stats().instructions.get())
            .min()
            .unwrap_or(0)
    }

    /// Checkpoint warming: start the DRAM cache the way a long-running
    /// system would have left it. First, *aged* pages (old streamed
    /// history, partially dirty) fill the frames the live sets will
    /// not use — they sit at the FIFO tail and are reclaimed first, so
    /// eviction and writeback behaviour is in steady state from the
    /// first measured cycle. Then every trace's resident set installs
    /// on top, round-robin across cores. Mirrors the paper's
    /// atomic-CPU fast-forward. Call once, before [`System::run`].
    pub fn prewarm(&mut self) {
        let per_core: Vec<Vec<nomad_types::Vpn>> = self
            .cores
            .iter()
            .map(|c| c.trace().resident_pages())
            .collect();
        let resident_total: usize = per_core.iter().map(Vec::len).sum();
        if let Some(free) = self.scheme.free_frames() {
            // A steady-state system's eviction daemon keeps a
            // threshold's worth of frames free; leave that slack.
            let slack = (free as usize) / 16;
            let spare = (free as usize)
                .saturating_sub(resident_total)
                .saturating_sub(slack);
            if spare > 0 && !self.cores.is_empty() {
                let per = spare.div_ceil(self.cores.len());
                let aged: Vec<Vec<(nomad_types::Vpn, bool)>> = self
                    .cores
                    .iter()
                    .map(|c| c.trace().aged_pages(per))
                    .collect();
                let longest = aged.iter().map(Vec::len).max().unwrap_or(0);
                let mut budget = spare;
                'outer: for i in 0..longest {
                    for (c, pages) in aged.iter().enumerate() {
                        if let Some(&(vpn, dirty)) = pages.get(i) {
                            if budget == 0 {
                                break 'outer;
                            }
                            budget -= 1;
                            let va = namespaced(vpn.base(), c);
                            self.scheme.prewarm(c, va.frame(), dirty);
                        }
                    }
                }
            }
        }
        let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (c, pages) in per_core.iter().enumerate() {
                if let Some(vpn) = pages.get(i) {
                    let va = namespaced(vpn.base(), c);
                    self.scheme.prewarm(c, va.frame(), false);
                }
            }
        }
    }

    /// Accumulate the wall time since `*mark` into the profile counter
    /// `sel` picks, and restart the lap; no-op when the profile is off.
    fn lap(&mut self, mark: &mut Option<u64>, sel: fn(&mut HotProfile) -> &mut u64) {
        if let (Some(t), Some(h)) = (mark.as_mut(), self.hot.as_mut()) {
            let now = nomad_types::fastclock::now();
            *sel(h) += now.wrapping_sub(*t);
            *t = now;
        }
    }

    /// Advance the whole system by one CPU cycle, running all five
    /// phases for every cluster. This is the reference step:
    /// [`run_dense`](Self::run_dense) drives it, and it gates neither a
    /// cluster, the L3 nor phase 5.
    pub fn tick(&mut self) {
        self.step(true);
    }

    /// One dense cycle. With `full`, every phase runs for every
    /// cluster. Otherwise phases 1–4 run only for the clusters due this
    /// cycle (a sleeping cluster's tick would be its core's stall
    /// accounting alone, which goes into the stall ledger), the L3
    /// ticks only when due, and phase 5 runs only when phases 1–4
    /// called into the scheme or the cycle reached `mem_next`; else the
    /// cycle is memory-quiet and phase 5 reduces to the devices' O(1)
    /// clock ticks. A step on which every cluster and the L3 slept
    /// counts as a burst tick, any other as a dense tick.
    fn step(&mut self, full: bool) {
        let now = self.cycle;
        let mut mark = self.hot.as_ref().map(|_| nomad_types::fastclock::now());
        let awake = self.awake_clusters(now, full);

        // 1. Cores: commit + fetch/dispatch.
        for c in bits(awake) {
            settle(&mut self.cores[c], &mut self.idle_from[c], now);
            self.cores[c].tick(now);
            self.idle_from[c] = now + 1;
        }

        // 2. Translation: finish ready walks, start new ones.
        self.process_walks(now, awake);
        self.drain_dispatch(now, awake);

        // 3. Inject translated ops into L1s.
        self.inject_issues(now, awake);
        self.lap(&mut mark, |h| &mut h.cpu_raw);

        // 4. SRAM hierarchy.
        let l3_ran = self.tick_caches(now, awake, full);
        self.lap(&mut mark, |h| &mut h.cache_raw);

        // 5. Scheme + DRAM devices.
        let mem_ran = full || now >= self.mem_next;
        if mem_ran {
            self.tick_scheme(now);
            self.deliver(now);
        } else {
            self.tick_quiet_devices(now);
        }
        self.lap(&mut mark, |h| &mut h.scheme_raw);
        if let Some(h) = self.hot.as_mut() {
            if awake == 0 && !l3_ran {
                h.burst_ticks += 1;
            } else {
                h.dense_ticks += 1;
                h.cluster_quiet_ticks += (self.cores.len() - awake.count_ones() as usize) as u64;
                h.l3_quiet_ticks += u64::from(!l3_ran);
                h.mem_quiet_ticks += u64::from(!mem_ran);
            }
        }
        self.end_cycle(now);
    }

    /// Bit-mask of the clusters that run phases 1–4 at `now`: every
    /// cluster when `full`, else those whose `cluster_due` has come.
    /// The clusters that ran last step first get their due from the
    /// state they left — here rather than at the end of that step, so
    /// the bookkeeping sits in the profile's cpu lap without a clock
    /// read of its own. Debug builds check that each sleeping cluster
    /// has nothing due.
    fn awake_clusters(&mut self, now: Cycle, full: bool) -> u64 {
        self.refresh_ran_dues();
        let mut awake = 0;
        for (c, &due) in self.cluster_due.iter().enumerate() {
            if full || due <= now {
                awake |= 1 << c;
            } else {
                debug_assert!(
                    self.cluster_next(c, now - 1) > now,
                    "cluster {c} sleeps through due work at cycle {now}"
                );
            }
        }
        self.ran = awake;
        awake
    }

    /// Close cycle `now`: advance the clock, then take an obs sample if
    /// one is due.
    fn end_cycle(&mut self, now: Cycle) {
        self.cycle += 1;
        self.measured_cycles += 1;
        if self.obs.as_ref().is_some_and(|o| now >= o.next_sample) {
            self.obs_sample(now);
        }
    }

    /// Apply every core's owed stall cycles up to the current cycle.
    fn settle_all(&mut self) {
        let to = self.cycle;
        for (core, from) in self.cores.iter_mut().zip(&mut self.idle_from) {
            settle(core, from, to);
        }
    }

    /// Phase 5, first half: the scheme tick (which ticks both DRAM
    /// devices), collecting what it emits for
    /// [`deliver`](Self::deliver).
    fn tick_scheme(&mut self, now: Cycle) {
        self.ev.clear();
        let mut flush = HierFlush {
            l1s: &mut self.l1s,
            l2s: &mut self.l2s,
            l3: &mut self.l3,
        };
        self.scheme
            .tick(now, &mut self.hbm, &mut self.ddr, &mut flush, &mut self.ev);
    }

    /// Phase 5, second half: apply what the scheme tick emitted —
    /// responses into the L3, forced TLB shootdowns, OS wakes with
    /// their blocked translations re-walked next cycle — then recompute
    /// `mem_next` from the post-tick state. A woken core's owed stall
    /// cycles, this one included, are settled before the wake: its
    /// phase 1 ran (or slept), still stalled, before phase 5.
    fn deliver(&mut self, now: Cycle) {
        if !self.ev.responses.is_empty() {
            self.l3_due = self.l3_due.min(now + 1);
        }
        for resp in self.ev.responses.drain(..) {
            self.l3.push_resp(resp);
        }
        // Forced TLB shootdowns (tiny-cache fallback path).
        for vpn in self.ev.shootdowns.drain(..) {
            for c in 0..self.cores.len() {
                if self.tlbs[c].invalidate(vpn) {
                    for d in self.tlbs[c].take_departures() {
                        self.scheme.tlb_departed(c, d.vpn);
                    }
                }
            }
        }
        for core_id in self.ev.wakes.drain(..) {
            settle(
                &mut self.cores[core_id],
                &mut self.idle_from[core_id],
                now + 1,
            );
            self.cores[core_id].wake_os();
            self.cluster_due[core_id] = self.cluster_due[core_id].min(now + 1);
            // Blocked translations retry the walk next cycle.
            let retry = self.blocked[core_id].drain(..).map(|op| Walk {
                op,
                ready_at: now + 1,
            });
            self.walking[core_id].extend(retry);
        }
        // Devices count tick invocations: post-tick their `cpu_cycle`
        // is `now + 1`, and a due edge at count `k` comes during the
        // tick of system cycle `k - 1`.
        let scheme_next = self.scheme.next_activity_at(now).unwrap_or(Cycle::MAX);
        self.mem_next = scheme_next
            .min(self.hbm.due_at() - 1)
            .min(self.ddr.due_at() - 1);
    }

    /// Phase 5 of a memory-quiet cycle: only the device clocks move.
    fn tick_quiet_devices(&mut self, now: Cycle) {
        // A scheme call from phases 1–4 that forgot to mark the cycle
        // shows up as a scheme wanting to run before `mem_next`.
        debug_assert!(
            self.scheme
                .next_activity_at(now - 1)
                .is_none_or(|t| t >= self.mem_next),
            "scheme activity moved before mem_next {} at cycle {now}",
            self.mem_next
        );
        let mut delivered = Vec::new();
        self.hbm.tick(&mut delivered);
        self.ddr.tick(&mut delivered);
        debug_assert!(
            delivered.is_empty(),
            "a memory-quiet tick delivered DRAM completions at cycle {now}"
        );
    }

    fn process_walks(&mut self, now: Cycle, awake: u64) {
        for c in bits(awake) {
            let mut i = 0;
            while i < self.walking[c].len() {
                if self.walking[c][i].ready_at > now {
                    i += 1;
                    continue;
                }
                let walk = self.walking[c].swap_remove(i);
                let vaddr = namespaced(walk.op.vaddr, c);
                let vpn = vaddr.frame();
                // Walks and TLB notifications reach the scheme: phase 5
                // must run this cycle.
                self.mem_next = now;
                match self
                    .scheme
                    .walk(c, vpn, vaddr.sub_block(), walk.op.kind, now)
                {
                    nomad_dcache::WalkOutcome::Ready { entry } => {
                        self.tlbs[c].insert(entry);
                        self.scheme.tlb_inserted(c, vpn);
                        for d in self.tlbs[c].take_departures() {
                            self.scheme.tlb_departed(c, d.vpn);
                        }
                        let (addr, target) = resolve(entry.frame, vaddr);
                        self.issue_q[c].push(IssueEntry {
                            at: now,
                            op: walk.op,
                            addr,
                            target,
                        });
                    }
                    nomad_dcache::WalkOutcome::Blocked { reason } => {
                        self.cores[c].stall_os(Cycle::MAX, reason);
                        self.blocked[c].push(walk.op);
                    }
                }
            }
        }
    }

    fn drain_dispatch(&mut self, now: Cycle, awake: u64) {
        for c in bits(awake) {
            loop {
                let in_flight =
                    self.walking[c].len() + self.blocked[c].len() + self.issue_q[c].len();
                if in_flight >= self.cfg.max_walks_per_core + 8 {
                    break;
                }
                let Some(op) = self.cores[c].pop_dispatch() else {
                    break;
                };
                let vaddr = namespaced(op.vaddr, c);
                let vpn = vaddr.frame();
                match self.tlbs[c].lookup(vpn) {
                    TlbLookup::Hit { entry, latency } => {
                        let (addr, target) = resolve(entry.frame, vaddr);
                        self.issue_q[c].push(IssueEntry {
                            at: now + latency.saturating_sub(1),
                            op,
                            addr,
                            target,
                        });
                    }
                    TlbLookup::Miss { latency } => {
                        if self.walking[c].len() >= self.cfg.max_walks_per_core {
                            self.cores[c].push_back_dispatch(op);
                            break;
                        }
                        self.walking[c].push(Walk {
                            op,
                            ready_at: now + latency + self.tlbs[c].walk_latency(),
                        });
                    }
                }
            }
        }
    }

    fn inject_issues(&mut self, now: Cycle, awake: u64) {
        for c in bits(awake) {
            let mut i = 0;
            while i < self.issue_q[c].len() {
                let e = self.issue_q[c][i];
                if e.at > now || !self.l1s[c].can_accept() {
                    i += 1;
                    continue;
                }
                self.issue_q[c].swap_remove(i);
                let is_read = e.op.kind == AccessKind::Read;
                self.l1s[c].push_req(
                    MemReq {
                        token: ReqId(e.op.slot),
                        addr: e.addr,
                        target: e.target,
                        kind: e.op.kind,
                        class: if is_read {
                            TrafficClass::DemandRead
                        } else {
                            TrafficClass::DemandWrite
                        },
                        core: c,
                        wants_response: is_read,
                    },
                    now,
                );
            }
        }
    }

    /// Phase 4 for the `awake` clusters, with the L3 ticked when due
    /// (always when `full`); returns whether the L3 ticked. A sleeping
    /// cluster's L1 and L2 and a sleeping L3 have nothing ready, so
    /// their ticks, transfers and response pops would all be no-ops.
    fn tick_caches(&mut self, now: Cycle, awake: u64, full: bool) -> bool {
        let l3_ready = now + self.l3.cfg().hit_latency;
        for c in bits(awake) {
            self.l1s[c].tick(now);
            // L1 → L2.
            while self.l2s[c].can_accept() {
                match self.l1s[c].pop_to_lower() {
                    Some(req) => self.l2s[c].push_req(req, now),
                    None => break,
                }
            }
            self.l2s[c].tick(now);
            // L2 → L3.
            while self.l3.can_accept() {
                if self.l2s[c].peek_to_lower().is_none() {
                    break;
                }
                let req = self.l2s[c].pop_to_lower().expect("peeked");
                self.l3.push_req(req, now);
                self.l3_due = self.l3_due.min(l3_ready);
            }
        }
        let l3_ran = full || self.l3_due <= now;
        if l3_ran {
            self.l3.tick(now);
            // L3 → scheme.
            while self.scheme.can_accept() {
                let Some(req) = self.l3.pop_to_lower() else {
                    break;
                };
                self.mem_next = now;
                self.scheme.access(
                    DcAccessReq {
                        token: req.token,
                        addr: req.addr,
                        target: req.target,
                        kind: req.kind,
                        core: req.core,
                        wants_response: req.wants_response,
                    },
                    now,
                );
            }
            // Responses upward: L3 → L2 (by core), whose cluster then
            // has a fill to apply next cycle.
            while let Some(resp) = self.l3.pop_to_upper(now) {
                self.cluster_due[resp.core] = self.cluster_due[resp.core].min(now + 1);
                self.l2s[resp.core].push_resp(resp);
            }
            self.l3_due = self.l3.next_activity_at(now).unwrap_or(Cycle::MAX);
        } else {
            debug_assert!(
                self.l3.next_activity_at(now - 1).is_none_or(|t| t > now),
                "the L3 sleeps through due work at cycle {now}"
            );
        }
        // Responses upward: L2 → L1 → core.
        for c in bits(awake) {
            while let Some(resp) = self.l2s[c].pop_to_upper(now) {
                self.l1s[c].push_resp(resp);
            }
            while let Some(resp) = self.l1s[c].pop_to_upper(now) {
                if resp.kind == AccessKind::Read {
                    self.cores[c].mem_done(resp.token.0);
                }
            }
        }
        l3_ran
    }

    /// Recompute the due of every cluster that ran on the last step
    /// from the state it left, and clear `ran`.
    fn refresh_ran_dues(&mut self) {
        for c in bits(self.ran) {
            self.cluster_due[c] = self.cluster_next(c, self.cycle - 1);
        }
        self.ran = 0;
    }

    /// Earliest cycle after `now` at which core `c`'s cluster — the
    /// core plus its pending dispatch, walks and translated issues, its
    /// L1 and L2 — can act, from post-tick state, or `Cycle::MAX` when
    /// only a fill or a wake can end its stall; any value up to
    /// `now + 1` (below it for a translated issue the L1 could not take
    /// yet) means the next cycle.
    fn cluster_next(&self, c: usize, now: Cycle) -> Cycle {
        if self.cores[c].dispatch_pending() {
            return now + 1;
        }
        let mut t = self.cores[c].next_activity_at(now).unwrap_or(Cycle::MAX);
        for w in &self.walking[c] {
            t = t.min(w.ready_at);
        }
        for e in &self.issue_q[c] {
            t = t.min(e.at);
        }
        // `blocked` ops are reactive: their cores sleep until a scheme
        // wake, which lowers the cluster's due itself.
        if t <= now + 1 {
            return t;
        }
        let level = |l: &CacheLevel| l.next_activity_at(now).unwrap_or(Cycle::MAX);
        t.min(level(&self.l1s[c])).min(level(&self.l2s[c]))
    }

    /// First cycle at which a gated step can do more than stall
    /// accounting and the devices' quiet clocks, given the state the
    /// last step left: the minimum of every cluster's due (the clusters
    /// that ran first get theirs from that state), the L3's, `mem_next`
    /// and the next obs snapshot. Exact or early, so the kernel may
    /// skip straight to it.
    fn next_due(&mut self) -> Cycle {
        self.refresh_ran_dues();
        let sample = self.obs.as_ref().map_or(Cycle::MAX, |o| o.next_sample);
        self.cluster_due
            .iter()
            .fold(self.l3_due.min(self.mem_next).min(sample), |t, &d| t.min(d))
    }

    /// Earliest cycle at which ticking the system again could do more
    /// than constant-rate stat accounting, from a fresh query of every
    /// component's post-tick state; at least `self.cycle`.
    ///
    /// The check on [`next_due`](Self::next_due): test and debug
    /// builds assert that every skip target is at or before this scan,
    /// so the kept due cycles can never drift late.
    #[cfg(any(test, debug_assertions))]
    fn next_event_at_scan(&self) -> Cycle {
        // `self.cycle` was already incremented by the tick we are
        // summarizing; components speak the NextActivity contract
        // relative to the cycle that just ran.
        let now = self.cycle - 1;
        let mut next = Cycle::MAX;
        let mut consider = |t: Option<Cycle>| {
            if let Some(t) = t {
                next = next.min(t.max(now + 1));
            }
        };
        for (c, core) in self.cores.iter().enumerate() {
            consider(core.next_activity_at(now));
            consider(core.dispatch_pending().then_some(now + 1));
            for w in &self.walking[c] {
                consider(Some(w.ready_at));
            }
            for e in &self.issue_q[c] {
                consider(Some(e.at));
            }
            // `blocked` ops are reactive: their cores sleep until a
            // scheme wake, which the scheme's own activity covers.
        }
        for lvl in self.l1s.iter().chain(self.l2s.iter()) {
            consider(lvl.next_activity_at(now));
        }
        consider(self.l3.next_activity_at(now));
        consider(self.scheme.next_activity_at(now));
        // Devices count tick invocations: post-tick their `cpu_cycle`
        // is `self.cycle`, and the due edge comes during the tick of
        // system cycle `due_at() - 1`.
        for dev in [&self.hbm, &self.ddr] {
            consider(Some(dev.due_at() - 1));
        }
        next
    }

    /// Jump over `delta` cycles in which no component has anything due:
    /// the devices advance in bulk (never past their due edges, which
    /// bound `mem_next`), and the cores' stall cycles stay owed in the
    /// stall ledger.
    fn skip(&mut self, delta: Cycle) {
        self.hbm.advance(delta);
        self.ddr.advance(delta);
        self.cycle += delta;
        self.measured_cycles += delta;
        if let Some(h) = self.hot.as_mut() {
            h.skips += 1;
            h.skipped_cycles += delta;
        }
    }

    /// Run until every core has committed `instructions_per_core` more
    /// instructions, using next-event skipping between dense ticks.
    ///
    /// # Panics
    ///
    /// Panics if no core commits anything for 3 million cycles (a
    /// deadlock in the modeled system).
    pub fn run(&mut self, instructions_per_core: u64) {
        self.run_inner(instructions_per_core, None);
    }

    /// [`run`](Self::run) with cooperative cancellation: `cancel` is
    /// polled at event boundaries (roughly every thousand dense ticks)
    /// and a cancelled token makes the run return `false` promptly,
    /// leaving the system in a consistent (if unfinished) state.
    ///
    /// # Panics
    ///
    /// Panics on the same deadlock condition as [`run`](Self::run).
    pub fn run_with_cancel(&mut self, instructions_per_core: u64, cancel: &CancelToken) -> bool {
        self.run_inner(instructions_per_core, Some(cancel))
    }

    /// The event-kernel run loop, with the stall ledger settled on
    /// return so the cores' counters are current.
    fn run_inner(&mut self, instructions_per_core: u64, cancel: Option<&CancelToken>) -> bool {
        let finished = self.run_events(instructions_per_core, cancel);
        self.settle_all();
        finished
    }

    fn run_events(&mut self, instructions_per_core: u64, cancel: Option<&CancelToken>) -> bool {
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.get() + instructions_per_core)
            .collect();
        let mut last_progress = self.cycle;
        let mut last_total = self.total_instructions();
        let mut iters: u64 = 0;
        loop {
            let done = self
                .cores
                .iter()
                .zip(&targets)
                .all(|(c, t)| c.stats().instructions.get() >= *t);
            if done {
                return true;
            }
            if let Some(token) = cancel {
                iters = iters.wrapping_add(1);
                if iters & 1023 == 0 && token.is_cancelled() {
                    return false;
                }
            }
            self.step(false);
            let total = self.total_instructions();
            if total != last_total {
                last_total = total;
                last_progress = self.cycle;
                // Commit fast path: a committing system is almost
                // always busy again next cycle, so step on without
                // looking for a skip.
                continue;
            } else if self.cycle - last_progress > DEADLOCK_CYCLES {
                panic!(
                    "system deadlock: no commit for 3M cycles (scheme {}, cycle {})",
                    self.scheme.name(),
                    self.cycle
                );
            }
            // Skip straight to the next due cycle. No commit means no
            // core reached its target, so a skip never passes a
            // finished run. The deadlock horizon is the last cycle the
            // dense loop would still tick before its no-progress check
            // fires, so a dead system panics at the identical cycle.
            let target = self.next_due().min(last_progress + DEADLOCK_CYCLES);
            if target > self.cycle {
                #[cfg(any(test, debug_assertions))]
                assert!(
                    target <= self.next_event_at_scan(),
                    "skip to {target} passes the min-scan's {} at cycle {}",
                    self.next_event_at_scan(),
                    self.cycle
                );
                self.skip(target - self.cycle);
            }
        }
    }

    /// The pre-event-kernel reference loop: tick every cycle with no
    /// skipping. Kept as the parity oracle — event-kernel runs must
    /// produce byte-identical [`RunReport`]s to this path.
    ///
    /// # Panics
    ///
    /// Panics on the same deadlock condition as [`run`](Self::run).
    pub fn run_dense(&mut self, instructions_per_core: u64) {
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.stats().instructions.get() + instructions_per_core)
            .collect();
        let mut last_progress = self.cycle;
        let mut last_total = self.total_instructions();
        loop {
            let done = self
                .cores
                .iter()
                .zip(&targets)
                .all(|(c, t)| c.stats().instructions.get() >= *t);
            if done {
                break;
            }
            self.tick();
            let total = self.total_instructions();
            if total != last_total {
                last_total = total;
                last_progress = self.cycle;
            } else if self.cycle - last_progress > DEADLOCK_CYCLES {
                panic!(
                    "system deadlock: no commit for 3M cycles (scheme {}, cycle {})",
                    self.scheme.name(),
                    self.cycle
                );
            }
        }
    }

    /// Run a warm-up phase then reset all statistics, mirroring the
    /// paper's fast-forward-to-ROI protocol.
    pub fn warm_up(&mut self, instructions_per_core: u64) {
        self.run(instructions_per_core);
        self.reset_stats();
    }

    /// Reset every statistic in the system (cores, caches, devices,
    /// scheme); simulation state is preserved.
    pub fn reset_stats(&mut self) {
        self.settle_all();
        for c in &mut self.cores {
            c.reset_stats();
        }
        for c in self.l1s.iter_mut().chain(self.l2s.iter_mut()) {
            c.reset_stats();
        }
        self.l3.reset_stats();
        self.hbm.reset_stats();
        self.ddr.reset_stats();
        self.scheme.reset_stats();
        self.measured_cycles = 0;
        if let Some(h) = self.hot.as_mut() {
            *h = HotProfile::default();
            self.hbm.reset_profile();
            self.ddr.reset_profile();
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.registry.reset_values();
            obs.ring.clear();
            obs.log.clear();
            obs.next_sample = self.cycle - self.cycle % obs.interval + obs.interval;
        }
    }

    /// Snapshot a report of the measured window. Observed systems get
    /// their rendered [`ObsSeries`] attached; un-observed reports are
    /// byte-identical to pre-instrumentation ones.
    pub fn report(&self, workload: &str) -> RunReport {
        let mut report = RunReport::collect(
            workload,
            self.scheme.name(),
            self.cfg.clock_ghz,
            self.measured_cycles,
            &self.cores,
            &self.l3,
            self.scheme.stats(),
            self.hbm.stats(),
            self.ddr.stats(),
        );
        report.obs = self.obs_series(&format!("{workload} {}", self.scheme.name()));
        report
    }
}

/// Indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// Apply the stall cycles `core` owes from its ledger entry `from` up
/// to `to` (exclusive): cycles it slept through, each of which a dense
/// tick would have counted as one stall cycle.
fn settle(core: &mut Core, from: &mut Cycle, to: Cycle) {
    if to > *from {
        core.idle_advance(to - *from);
        *from = to;
    }
}

/// Resolve a TLB frame mapping plus page offset into a device block
/// address.
fn resolve(frame: nomad_cache::FrameKind, vaddr: VirtAddr) -> (BlockAddr, MemTarget) {
    match frame {
        nomad_cache::FrameKind::Phys(pfn) => (
            BlockAddr::containing(pfn.with_offset(vaddr.page_offset()).raw()),
            MemTarget::OffPackage,
        ),
        nomad_cache::FrameKind::Cache(cfn) => (
            BlockAddr::containing(cfn.with_offset(vaddr.page_offset()).raw()),
            MemTarget::DramCache,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SchemeSpec;
    use nomad_trace::{SyntheticTrace, WorkloadProfile};

    fn build(spec: &SchemeSpec, profile: &WorkloadProfile, seed: u64) -> System {
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        build_with(&cfg, spec, profile, seed)
    }

    fn build_with(
        cfg: &SystemConfig,
        spec: &SchemeSpec,
        profile: &WorkloadProfile,
        seed: u64,
    ) -> System {
        let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
            .map(|i| {
                Box::new(SyntheticTrace::with_scale(
                    profile,
                    seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                    cfg.pages_per_gb,
                    cfg.l3_reach_pages(),
                )) as Box<dyn TraceSource>
            })
            .collect();
        let mut sys = System::new(cfg.clone(), spec.build(cfg), traces);
        sys.prewarm();
        sys
    }

    /// The kernel's skip decision against a fresh query of every
    /// component, on every scheme: after every gated step and after
    /// every skip, `next_due` is never past the min-scan. The kernel
    /// itself only checks the steps it skips after, and only in debug
    /// builds; this stepping visits every post-step state, committing
    /// or not, busy or quiet, mid-fault or mid-migration.
    #[test]
    fn next_due_is_never_past_the_min_scan() {
        for spec in SchemeSpec::headtohead_set() {
            for profile in [WorkloadProfile::tc(), WorkloadProfile::mcf()] {
                let mut sys = build(&spec, &profile, 42);
                let mut skips = 0;
                for _ in 0..6_000 {
                    sys.step(false);
                    let due = sys.next_due();
                    let scan = sys.next_event_at_scan();
                    assert!(
                        due <= scan,
                        "next_due {due} past the scan's {scan}: scheme {} workload {} cycle {}",
                        spec.label(),
                        profile.name,
                        sys.cycle
                    );
                    if due > sys.cycle {
                        sys.skip(due - sys.cycle);
                        skips += 1;
                        let (due, scan) = (sys.next_due(), sys.next_event_at_scan());
                        assert!(
                            due <= scan,
                            "post-skip next_due {due} past the scan's {scan}: scheme {} workload {} cycle {}",
                            spec.label(),
                            profile.name,
                            sys.cycle
                        );
                    }
                }
                assert!(
                    skips > 0,
                    "no skip: scheme {} workload {}",
                    spec.label(),
                    profile.name
                );
            }
        }
    }

    /// The quiet-tick and burst-tick counters are deterministic work
    /// counters: two runs of one cell count the same memory-quiet
    /// ticks, sleeping cluster ticks, sleeping L3 ticks and burst
    /// ticks, a stats reset zeroes them like the other kernel counters,
    /// and the ungated reference loop skips no phase 5 and sleeps
    /// nothing. Dense plus burst ticks are every stepped cycle, so with
    /// the skipped cycles they account for the whole measured window.
    #[test]
    fn quiet_tick_counters_repeat_exactly_and_are_zero_under_run_dense() {
        let quiet = |h: HotProfileReport| {
            (
                h.mem_quiet_ticks,
                h.cluster_quiet_ticks,
                h.l3_quiet_ticks,
                h.burst_ticks,
            )
        };
        let profiled = |dense: bool| {
            let mut sys = build(&SchemeSpec::Nomad, &WorkloadProfile::tc(), 42);
            sys.enable_hot_profile();
            sys.run(2_000);
            sys.reset_stats();
            assert_eq!(quiet(sys.hot_profile().expect("armed")), (0, 0, 0, 0));
            if dense {
                sys.run_dense(20_000);
            } else {
                sys.run(20_000);
            }
            let hot = sys.hot_profile().expect("armed");
            assert_eq!(
                hot.dense_ticks + hot.burst_ticks + hot.skipped_cycles,
                sys.measured_cycles()
            );
            hot
        };
        let first = profiled(false);
        let second = profiled(false);
        let (mem, clusters, l3, burst) = quiet(first);
        assert!(mem > 0, "tc must have memory-quiet ticks");
        assert!(clusters > 0, "tc must have sleeping clusters");
        assert!(l3 > 0, "tc must have a sleeping L3");
        assert!(burst > 0, "tc must have steps with everything asleep");
        assert!(mem.max(clusters).max(l3) <= first.dense_ticks);
        assert_eq!(quiet(first), quiet(second));
        assert_eq!(first.dense_ticks, second.dense_ticks);
        assert_eq!(quiet(profiled(true)), (0, 0, 0, 0));
    }

    /// Per-cycle differential for the gated step: on the 8-core Fig. 9
    /// shape, for every Fig. 9 scheme on a memory-bound and a
    /// cache-resident workload, a system stepped with sleeping
    /// clusters, a sleeping L3 and memory-quiet ticks and one ticked
    /// ungated advance side by side, and their reports — the gated
    /// one's stall ledger settled — must serialize identically every
    /// 1 000 cycles.
    #[test]
    fn gated_steps_match_ungated_ticks_on_the_fig9_shape() {
        let cfg = SystemConfig::scaled(8);
        for spec in SchemeSpec::fig9_set() {
            for profile in [WorkloadProfile::mcf(), WorkloadProfile::tc()] {
                let mut gated = build_with(&cfg, &spec, &profile, 42);
                let mut ungated = build_with(&cfg, &spec, &profile, 42);
                gated.enable_hot_profile();
                for cycle in 1..=20_000u64 {
                    gated.step(false);
                    ungated.tick();
                    if cycle % 1_000 == 0 {
                        gated.settle_all();
                        let json = |s: &System| {
                            serde_json::to_string(&s.report(&profile.name)).expect("serialize")
                        };
                        assert_eq!(
                            json(&gated),
                            json(&ungated),
                            "gated step diverged: scheme {} workload {} cycle {cycle}",
                            spec.label(),
                            profile.name
                        );
                    }
                }
                let hot = gated.hot_profile().expect("armed");
                assert!(
                    hot.cluster_quiet_ticks > 0 && hot.l3_quiet_ticks > 0,
                    "nothing slept: scheme {} workload {}",
                    spec.label(),
                    profile.name
                );
            }
        }
    }
}
