//! Service counters backing the `/stats` request.
//!
//! Everything is registered by name in a [`nomad_obs::Registry`], so a
//! `Stats` response reports exactly the metric names the simulator's
//! snapshot-JSON exporter uses (`serve.jobs.submitted`,
//! `serve.job.latency_ms.p99`, …) and `METRICS.md` documents the
//! service and the simulator in one table. Job executions additionally
//! push one span per attempt into a [`SpanRing`], exportable as a
//! Chrome trace via [`ServiceStats::trace_json`].

use crate::proto::MetricRow;
use nomad_obs::{Counter, Gauge, Histo, Registry, Span, SpanRing};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shared mutable service counters. Everything here is updated by
/// connection handlers and workers and read by `Stats` requests.
pub struct ServiceStats {
    registry: Registry,
    started: Instant,
    /// Total `Submit` requests received (`serve.jobs.submitted`).
    pub submitted: Counter,
    /// Jobs that ran to completion (`serve.jobs.completed`).
    pub completed: Counter,
    /// Jobs that failed (`serve.jobs.failed`).
    pub failed: Counter,
    /// Submissions rejected for backpressure (`serve.jobs.rejected`).
    pub rejected: Counter,
    /// Jobs waiting in the queue, sampled at snapshot time
    /// (`serve.queue.depth`).
    queue_depth: Gauge,
    /// Age of the oldest queued job in milliseconds, sampled at
    /// snapshot time (`serve.queue.oldest_ms`).
    queue_oldest_ms: Gauge,
    /// EWMA of execution time in milliseconds (alpha 1/8) — the
    /// admission controller's service-time estimate.
    service_ewma_ms: AtomicU64,
    /// Result-cache hit/miss/occupancy mirrors, sampled at snapshot
    /// time (`serve.cache.*`).
    cache_hits: Gauge,
    cache_misses: Gauge,
    cache_entries: Gauge,
    /// Busy nanoseconds per worker (`serve.worker.<i>.busy_ns`).
    worker_busy_ns: Vec<Counter>,
    /// Submit-to-completion latency in milliseconds
    /// (`serve.job.latency_ms`).
    latency_ms: Histo,
    /// One span per executed job, on the owning worker's track.
    ring: SpanRing,
}

impl ServiceStats {
    /// Counters for a pool of `workers` threads, starting now.
    pub fn new(workers: usize) -> Self {
        let registry = Registry::new();
        ServiceStats {
            started: Instant::now(),
            submitted: registry.counter(
                "serve.jobs.submitted",
                "requests",
                "serve",
                "Total Submit requests received",
            ),
            completed: registry.counter(
                "serve.jobs.completed",
                "jobs",
                "serve",
                "Jobs that ran to completion",
            ),
            failed: registry.counter(
                "serve.jobs.failed",
                "jobs",
                "serve",
                "Jobs that failed (panic past budget, timeout, shutdown)",
            ),
            rejected: registry.counter(
                "serve.jobs.rejected",
                "requests",
                "serve",
                "Submissions rejected for backpressure",
            ),
            queue_depth: registry.gauge(
                "serve.queue.depth",
                "jobs",
                "serve",
                "Jobs waiting in the queue at snapshot time",
            ),
            queue_oldest_ms: registry.gauge(
                "serve.queue.oldest_ms",
                "ms",
                "serve",
                "Age of the oldest queued job at snapshot time",
            ),
            service_ewma_ms: AtomicU64::new(0),
            cache_hits: registry.gauge(
                "serve.cache.hits",
                "requests",
                "serve",
                "Submissions served from the result cache or coalesced",
            ),
            cache_misses: registry.gauge(
                "serve.cache.misses",
                "requests",
                "serve",
                "Submissions that required running a new simulation",
            ),
            cache_entries: registry.gauge(
                "serve.cache.entries",
                "reports",
                "serve",
                "Completed reports held in memory",
            ),
            worker_busy_ns: (0..workers)
                .map(|i| {
                    registry.counter(
                        format!("serve.worker.{i}.busy_ns"),
                        "ns",
                        "serve",
                        "Wall-clock nanoseconds this worker spent executing jobs",
                    )
                })
                .collect(),
            latency_ms: registry.histogram(
                "serve.job.latency_ms",
                "ms",
                "serve",
                "Submit-to-completion latency",
            ),
            ring: SpanRing::default(),
            registry,
        }
    }

    /// Credit `busy` execution time to worker `id`.
    pub fn add_worker_busy(&self, id: usize, busy: Duration) {
        self.worker_busy_ns[id].add(busy.as_nanos() as u64);
    }

    /// Record one job's submit-to-completion latency.
    pub fn record_latency(&self, latency: Duration) {
        self.latency_ms.record(latency.as_millis() as u64);
    }

    /// Fold one execution duration into the EWMA service-time
    /// estimate. A racy read-modify-write is fine here: the estimate
    /// feeds an admission heuristic, not an invariant.
    pub fn record_service_time(&self, took: Duration) {
        let sample = took.as_millis() as u64;
        let current = self.service_ewma_ms.load(Ordering::Relaxed);
        self.service_ewma_ms.store(
            crate::overload::ewma_step(current, sample),
            Ordering::Relaxed,
        );
    }

    /// The EWMA execution-time estimate in milliseconds (0 before the
    /// first completion).
    pub fn service_ewma_ms(&self) -> u64 {
        self.service_ewma_ms.load(Ordering::Relaxed)
    }

    /// Record one executed job as a span on worker `id`'s trace track.
    /// `job_started` must be an `Instant` taken after the server
    /// started (the worker's execution start).
    pub fn record_job_span(&self, id: usize, job_started: Instant, ok: bool) {
        let start_us = job_started
            .saturating_duration_since(self.started)
            .as_micros() as u64;
        let dur_us = job_started.elapsed().as_micros() as u64;
        self.ring.push(Span::complete(
            if ok { "job" } else { "job_failed" },
            "serve",
            start_us,
            dur_us,
            id as u32,
        ));
    }

    /// Per-worker busy fraction since the server started.
    pub fn worker_utilization(&self) -> Vec<f64> {
        let elapsed_ns = self.started.elapsed().as_nanos().max(1) as f64;
        self.worker_busy_ns
            .iter()
            .map(|b| (b.get() as f64 / elapsed_ns).min(1.0))
            .collect()
    }

    /// `(p50, p99)` completion latency in milliseconds (log-bucket
    /// lower bounds).
    pub fn latency_quantiles_ms(&self) -> (u64, u64) {
        (
            self.latency_ms.quantile(0.5),
            self.latency_ms.quantile(0.99),
        )
    }

    /// Refresh the sampled gauges from their live sources and read the
    /// whole registry as sorted `(name, value)` rows — the `counters`
    /// section of a `/stats` response. Histograms expand to `.count`,
    /// `.p50` and `.p99` rows, exactly like the snapshot-JSON exporter.
    pub fn counter_rows(
        &self,
        queue_depth: usize,
        queue_oldest_ms: u64,
        cache_hits: u64,
        cache_misses: u64,
        cache_entries: usize,
    ) -> Vec<MetricRow> {
        self.queue_depth.set(queue_depth as u64);
        self.queue_oldest_ms.set(queue_oldest_ms);
        self.cache_hits.set(cache_hits);
        self.cache_misses.set(cache_misses);
        self.cache_entries.set(cache_entries as u64);
        let stamp = self.started.elapsed().as_millis() as u64;
        self.registry
            .snapshot(stamp)
            .values
            .into_iter()
            .map(|(name, value)| MetricRow { name, value })
            .collect()
    }

    /// Sorted base names of every metric this service registers (the
    /// `metrics_doc` test diffs these against `METRICS.md`).
    pub fn metric_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// Render the recorded job spans as a Chrome Trace Event JSON
    /// document (one track per worker, timestamps in microseconds since
    /// server start).
    pub fn trace_json(&self) -> String {
        nomad_obs::trace::chrome_trace("nomad-serve", &[], &self.ring, None, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_bounded_and_per_worker() {
        let s = ServiceStats::new(2);
        s.add_worker_busy(1, Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(2));
        let u = s.worker_utilization();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0], 0.0);
        assert!(u[1] > 0.0 && u[1] <= 1.0);
    }

    #[test]
    fn latency_quantiles_track_samples() {
        let s = ServiceStats::new(1);
        for ms in [2u64, 2, 2, 2, 300] {
            s.record_latency(Duration::from_millis(ms));
        }
        let (p50, p99) = s.latency_quantiles_ms();
        assert!(p50 <= 2);
        assert!(p99 >= 256, "p99 bucket {p99}");
    }

    #[test]
    fn counter_rows_carry_registry_names() {
        let s = ServiceStats::new(2);
        s.submitted.add(3);
        s.completed.inc();
        let rows = s.counter_rows(5, 40, 2, 1, 1);
        let find = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("row {name} missing"))
                .value
        };
        assert_eq!(find("serve.jobs.submitted"), 3);
        assert_eq!(find("serve.jobs.completed"), 1);
        assert_eq!(find("serve.queue.depth"), 5);
        assert_eq!(find("serve.queue.oldest_ms"), 40);
        assert_eq!(find("serve.cache.hits"), 2);
        assert_eq!(find("serve.cache.entries"), 1);
        assert_eq!(find("serve.job.latency_ms.count"), 0);
        assert!(rows.iter().any(|r| r.name == "serve.worker.1.busy_ns"));
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(rows, sorted, "rows are name-sorted");
    }

    #[test]
    fn service_ewma_seeds_then_smooths() {
        let s = ServiceStats::new(1);
        assert_eq!(s.service_ewma_ms(), 0);
        s.record_service_time(Duration::from_millis(40));
        assert_eq!(s.service_ewma_ms(), 40, "first sample seeds directly");
        s.record_service_time(Duration::from_millis(120));
        let est = s.service_ewma_ms();
        assert!(est > 40 && est < 120, "EWMA moved toward the sample: {est}");
    }

    #[test]
    fn job_spans_export_as_chrome_trace() {
        let s = ServiceStats::new(1);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        s.record_job_span(0, t0, true);
        s.record_job_span(0, t0, false);
        let json = s.trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"job\""));
        assert!(json.contains("\"name\":\"job_failed\""));
    }
}
