//! `serve_ladder`: an open-loop, seeded Poisson stream of simulation
//! jobs against two in-process `nomad_serve` nodes, at three rates.
//!
//! Each node has one worker and no cache directory. Arrival times come
//! from [`nomad_bench::loadgen::arrival_schedule`], one phase per rung.
//! Jobs are routed by [`Membership::route`]; sender `k` owns node `k`'s
//! single connection and submits with [`submit_within_deadline`]. A
//! third of the arrivals repeat an earlier job (cache hits, or
//! coalesced onto the running original); the rest are fresh and
//! simulate. A third rather than a half keeps the median round trip
//! inside the miss population instead of on the boundary between hits
//! and misses, where it would jump between the two from seed to seed.
//! Latency is timed from each arrival's due time; round trips from the
//! moment it was sent.

use crate::calib;
use crate::metrics::Sheet;
use crate::sim::{self, digest, Done};
use crate::spans::Tracer;
use crate::stats::{median, tail_quantile, TAIL_Q};
use crate::{panic_message, peak_rss_mb, write_result, Opts};
use nomad_bench::loadgen::{arrival_schedule, LoadgenConfig, Phase};
use nomad_faults::splitmix64;
use nomad_fleet::{FleetConfig, Membership};
use nomad_serve::{
    serve, submit_within_deadline, Client, ClientConfig, JobSpec, Response, ServerConfig,
    ServerHandle, StatsSnapshot,
};
use nomad_sim::{RunReport, SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One arrival in this many repeats an earlier job.
pub const REPEAT_ONE_IN: u64 = 3;
/// Client-side deadline budget per submission.
const BUDGET: Duration = Duration::from_secs(5);
/// An answer later than this after its due time is not goodput.
const GOODPUT_LIMIT_S: f64 = 0.25;
/// Served jobs re-run in-process and compared with the served report.
const CHECKED_JOBS: usize = 3;
/// Served jobs re-run through the traced cell path for the per-layer
/// simulator metrics.
const TRACED_JOBS: usize = 8;
const NODES: usize = 2;

/// One rate step of the ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Rung name.
    pub name: &'static str,
    /// Mean gap between arrivals, in ms.
    pub mean_gap_ms: u64,
    /// Rung length in ms.
    pub duration_ms: u64,
}

impl Rung {
    /// Mean arrivals per second.
    pub fn rate(&self) -> f64 {
        1e3 / self.mean_gap_ms as f64
    }

    /// Rung length in seconds.
    pub fn secs(&self) -> f64 {
        self.duration_ms as f64 / 1e3
    }
}

/// The three rungs sharing `seconds`: light, 10/s for a fifth; loaded,
/// below capacity, about 18/s for two fifths; and overload, above it,
/// about 45/s for two fifths. `smoke` divides the rates by four.
pub fn rungs(seconds: f64, smoke: bool) -> Vec<Rung> {
    let stretch = if smoke { 4 } else { 1 };
    [
        ("light", 100, 0.2),
        ("loaded", 56, 0.4),
        ("overload", 22, 0.4),
    ]
    .into_iter()
    .map(|(name, gap, share)| Rung {
        name,
        mean_gap_ms: gap * stretch,
        duration_ms: (seconds * share * 1e3) as u64,
    })
    .collect()
}

/// One arrival of the open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Index of its rung.
    pub rung: usize,
    /// Due time, microseconds after the ladder starts.
    pub due_us: u64,
    /// Index of its job among the distinct jobs.
    pub job: usize,
}

/// The arrival schedule for `seed`: the load generator's open-loop
/// exponential gaps, one phase per rung, each arrival a fresh job or
/// (one in [`REPEAT_ONE_IN`]) a uniformly chosen earlier one. Returns
/// the arrivals and the number of distinct jobs.
pub fn schedule(seed: u64, rungs: &[Rung]) -> (Vec<Arrival>, usize) {
    let phases = rungs
        .iter()
        .map(|r| Phase {
            mean_gap_ms: r.mean_gap_ms,
            duration_ms: r.duration_ms,
        })
        .collect();
    let cfg = LoadgenConfig {
        seed,
        phases,
        ..LoadgenConfig::default()
    };
    let draws = splitmix64(seed ^ 0x7e9e_a700_0000_0000);
    let (mut jobs, mut rung, mut rung_end) = (0usize, 0usize, 0u64);
    let arrivals = arrival_schedule(&cfg)
        .into_iter()
        .enumerate()
        .map(|(i, at_ms)| {
            while at_ms >= rung_end {
                rung_end += rungs[rung].duration_ms;
                rung += 1;
            }
            let draw = splitmix64(draws ^ i as u64);
            let job = if jobs > 0 && draw.is_multiple_of(REPEAT_ONE_IN) {
                (splitmix64(draw) % jobs as u64) as usize
            } else {
                jobs += 1;
                jobs - 1
            };
            Arrival {
                rung: rung - 1,
                due_us: at_ms * 1000,
                job,
            }
        })
        .collect();
    (arrivals, jobs)
}

/// Distinct job `j` for `seed`: NOMAD on `tc`, one core, 100k
/// instructions after a 10k warm-up (1/50 of that with `smoke`).
pub fn job(seed: u64, j: usize, smoke: bool) -> JobSpec {
    let div = if smoke { 50 } else { 1 };
    JobSpec {
        cfg: SystemConfig::scaled(1),
        spec: SchemeSpec::Nomad,
        profile: WorkloadProfile::tc(),
        instructions: 100_000 / div,
        warmup: 10_000 / div,
        seed: splitmix64(seed ^ 0x5eed_0000_0000_0000 ^ j as u64),
    }
}

/// Two running nodes plus the inputs generated for them.
struct Rig {
    servers: Vec<ServerHandle>,
    addrs: Vec<String>,
    arrivals: Vec<Arrival>,
    jobs: Vec<JobSpec>,
    /// Node each job routes to.
    node_of: Vec<usize>,
}

impl Rig {
    /// Generate the inputs, start the nodes and route every job.
    fn start(seed: u64, rungs: &[Rung], smoke: bool) -> io::Result<Rig> {
        let (arrivals, n_jobs) = schedule(seed, rungs);
        let jobs: Vec<JobSpec> = (0..n_jobs).map(|j| job(seed, j, smoke)).collect();
        let mut servers = Vec::new();
        for _ in 0..NODES {
            servers.push(serve(ServerConfig {
                workers: 1,
                cache_dir: None,
                ..ServerConfig::default()
            })?);
        }
        let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let ring = Membership::new(&addrs, FleetConfig::default().vnodes);
        let node_of = jobs
            .iter()
            .map(|j| ring.route(j.content_key()).expect("every node is alive"))
            .collect();
        Ok(Rig {
            servers,
            addrs,
            arrivals,
            jobs,
            node_of,
        })
    }

    /// [`Rig::start`], then check each node answers a ping.
    fn bring_up(seed: u64, rungs: &[Rung], smoke: bool) -> io::Result<Rig> {
        Rig::start(seed, rungs, smoke)?.ping()
    }

    fn ping(self) -> io::Result<Rig> {
        for addr in &self.addrs {
            Client::connect_with(addr.as_str(), &ClientConfig::default())?.ping()?;
        }
        Ok(self)
    }

    fn shut_down(self) {
        for s in self.servers {
            s.shutdown();
        }
    }

    fn stats(&self) -> io::Result<Vec<StatsSnapshot>> {
        self.addrs
            .iter()
            .map(|a| Client::connect_with(a.as_str(), &ClientConfig::default())?.stats())
            .collect()
    }
}

/// What one arrival got back. Times are seconds after the ladder start.
#[derive(Debug, Clone)]
struct Answer {
    rung: usize,
    job: usize,
    due: f64,
    /// When the sender was free to send: the due time, or the previous
    /// answer on its connection if that came later.
    ready: f64,
    sent: f64,
    done: f64,
    /// `(cached, report digest, simulated cycles)`, or what went wrong.
    result: Result<(bool, u64, u64), String>,
}

impl Answer {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// Run the ladder against `rig`; returns the answers plus the nodes'
/// stats after each rung and after the last answer.
fn run_ladder(
    rig: &Rig,
    rungs: &[Rung],
    tracer: Option<&Tracer>,
) -> (Vec<Answer>, Vec<io::Result<Vec<StatsSnapshot>>>) {
    let epoch = Instant::now();
    let since = |t: Instant| t.duration_since(epoch).as_secs_f64();
    let mut per_node: Vec<Vec<usize>> = vec![Vec::new(); NODES];
    for (i, a) in rig.arrivals.iter().enumerate() {
        per_node[rig.node_of[a.job]].push(i);
    }
    let send = |node: usize| -> Vec<Answer> {
        let cfg = ClientConfig::default();
        let mut conn = None;
        let mut free_at = 0.0f64;
        let mut out = Vec::new();
        for &i in &per_node[node] {
            let a = &rig.arrivals[i];
            let due_at = epoch + Duration::from_micros(a.due_us);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent_at = Instant::now();
            let response =
                submit_within_deadline(&mut conn, &rig.addrs[node], &rig.jobs[a.job], BUDGET, &cfg);
            let done_at = Instant::now();
            if let Some(t) = tracer {
                let request = t.open_at("serve.request", None, i as u64, due_at);
                let submit = t.open_at("serve.submit", Some(request.id()), i as u64, sent_at);
                t.close_at(submit, done_at);
                t.close_at(request, done_at);
            }
            let due = since(due_at);
            let result = match response {
                Ok(Response::Report { cached, report }) => {
                    Ok((cached, digest(&report), report.cycles))
                }
                Ok(other) => Err(format!("{other:?}")),
                Err(e) => Err(e.to_string()),
            };
            out.push(Answer {
                rung: a.rung,
                job: a.job,
                due,
                ready: due.max(free_at),
                sent: since(sent_at),
                done: since(done_at),
                result,
            });
            free_at = since(done_at);
        }
        out
    };
    std::thread::scope(|s| {
        let senders: Vec<_> = (0..NODES).map(|node| s.spawn(move || send(node))).collect();
        let mut snaps = Vec::new();
        let mut end = 0.0;
        for rung in rungs {
            end += rung.secs();
            if let Some(wait) =
                (epoch + Duration::from_secs_f64(end)).checked_duration_since(Instant::now())
            {
                std::thread::sleep(wait);
            }
            snaps.push(rig.stats());
        }
        let mut answers: Vec<Answer> = senders
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect();
        answers.sort_by(|a, b| a.due.total_cmp(&b.due));
        snaps.push(rig.stats());
        (answers, snaps)
    })
}

fn ok_in(answers: &[Answer], rung: usize) -> impl Iterator<Item = (&Answer, bool, u64)> {
    answers
        .iter()
        .filter(move |a| a.rung == rung)
        .filter_map(|a| {
            a.result
                .as_ref()
                .ok()
                .map(|&(cached, _, cycles)| (a, cached, cycles))
        })
}

/// Median client round trip (send to answer) of the successful answers.
fn rtt_ms(answers: &[Answer]) -> f64 {
    let rtts: Vec<f64> = answers
        .iter()
        .filter(|a| a.result.is_ok())
        .map(|a| (a.done - a.sent) * 1e3)
        .collect();
    if rtts.is_empty() {
        0.0
    } else {
        median(&rtts)
    }
}

/// Run the `serve_ladder` workload, print its result and return
/// whether it was correct.
pub fn run(opts: &Opts) -> bool {
    let name = "serve_ladder";
    let mut sheet = Sheet::new(name, opts.trace);
    // A traced run measures an untraced ladder then a traced one, each
    // in half the time.
    let ladder_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let rungs = rungs(ladder_secs, opts.smoke);
    let mut setup_secs = Vec::new();
    let mut rig = None;
    for _ in 0..sim::SETUP_REPS {
        if let Some(old) = rig.take() {
            Rig::shut_down(old);
        }
        let m = calib::measure(|| Rig::start(opts.seed, &rungs, opts.smoke));
        setup_secs.push(m.scaled_secs());
        // The readiness ping is not timed: each request on a serve
        // connection waits 0–40 ms for a TCP delayed acknowledgement,
        // which is timer phase, not work.
        match m.value.and_then(Rig::ping) {
            Ok(r) => rig = Some(r),
            Err(e) => {
                eprintln!("perf: could not start the serve nodes: {e}");
                std::process::exit(1);
            }
        }
    }
    let rig = rig.expect("set-up ran");
    let measured = Instant::now();
    let (answers, snaps) = run_ladder(&rig, &rungs, None);
    let jobs = rig.jobs.clone();
    rig.shut_down();

    let tracer = opts.trace.then(Tracer::default);
    let traced_answers = tracer.as_ref().map(|t| {
        let rig = Rig::bring_up(opts.seed, &rungs, opts.smoke).expect("nodes started once already");
        let (answers, _) = run_ladder(&rig, &rungs, Some(t));
        rig.shut_down();
        answers
    });
    let measured_secs = measured.elapsed().as_secs_f64();

    let served = check(
        &mut sheet,
        &jobs,
        answers.iter().chain(traced_answers.iter().flatten()),
    );
    for snap in &snaps {
        if let Err(e) = snap {
            sheet.problem(format!("stats request failed: {e}"));
        }
    }

    if let (Some(t), Some(traced_answers)) = (&tracer, &traced_answers) {
        let sampled: Vec<usize> = served.keys().copied().take(TRACED_JOBS).collect();
        let done: Vec<Done> = sampled
            .iter()
            .map(|&j| {
                let (report, layers) = sim::traced_cell(&jobs[j], false, t, None, j as u64);
                Done::new(report, Some(layers))
            })
            .collect();
        for (&j, d) in sampled.iter().zip(&done) {
            sheet.op(true);
            if served[&j] != d.digest {
                sheet.problem(format!(
                    "traced re-run of job {j} differs from its served report"
                ));
            }
        }
        let cells: Vec<&Done> = done.iter().collect();
        sim::layer_metrics(&mut sheet, &cells);
        let pairs: Vec<(&JobSpec, &RunReport)> = sampled
            .iter()
            .map(|&j| &jobs[j])
            .zip(done.iter().map(|d| &d.report))
            .collect();
        sim::proto_metrics(&mut sheet, &pairs);
        sheet.set(
            "trace.overhead_pct",
            (rtt_ms(traced_answers) / rtt_ms(&answers) - 1.0) * 100.0,
        );
        let config = config(opts, &rungs, &jobs, measured_secs);
        sim::write_trace_files(name, t, &cells, &sheet, &config);
        return sheet.print();
    }

    end_to_end(&mut sheet, &answers, &snaps, &rungs, opts);
    sheet.set("setup_s", median(&setup_secs));
    match peak_rss_mb() {
        Some(mb) => sheet.set("peak_rss_mb", mb),
        None => {
            sheet.problem("VmHWM unavailable");
            sheet.set("peak_rss_mb", 0.0);
        }
    }
    server_info(&mut sheet, &snaps, &rungs);
    write_result(
        &format!("{name}.json"),
        &sheet.to_json(&config(opts, &rungs, &jobs, measured_secs)),
    );
    sheet.print()
}

/// The end-to-end metrics of an untraced ladder. The overload rung
/// keeps both connections busy back to back, so its throughput is the
/// fleet's capacity and its round trips are the per-request cost on a
/// saturated connection; due-time latencies at the loaded rung, which
/// jump between TCP acknowledgement regimes from seed to seed, are
/// reported as `info` rows.
fn end_to_end(
    sheet: &mut Sheet,
    answers: &[Answer],
    snaps: &[io::Result<Vec<StatsSnapshot>>],
    rungs: &[Rung],
    opts: &Opts,
) {
    let (light, loaded, overload) = (0, 1, 2);
    let overload_start = rungs[0].secs() + rungs[1].secs();
    let served: Vec<&Answer> = ok_in(answers, overload).map(|(a, _, _)| a).collect();
    let last = served.iter().map(|a| a.done).fold(overload_start, f64::max);
    sheet.set("ops_per_s", served.len() as f64 / (last - overload_start));
    let goodput = served
        .iter()
        .filter(|a| a.done - a.due <= GOODPUT_LIMIT_S)
        .count();
    sheet.info(
        "goodput_per_s.overload",
        goodput as f64 / rungs[overload].secs(),
        "1/s",
    );

    let mut rtt: Vec<f64> = served.iter().map(|a| (a.done - a.sent) * 1e3).collect();
    if rtt.is_empty() {
        sheet.problem("no answer in the overload rung");
        rtt.push(0.0);
    }
    sheet.set("op_p50_ms", median(&rtt));
    let tail = tail_quantile(&rtt, TAIL_Q);
    if tail.is_none() && !opts.smoke {
        sheet.problem(format!(
            "{} overload-rung samples are too few for a p80",
            rtt.len()
        ));
    }
    sheet.set("op_p80_ms", tail.unwrap_or_else(|| median(&rtt)));
    sheet.info("op_samples", rtt.len() as f64, "count");

    // Simulated work the fleet delivers at capacity: cycles of the jobs
    // executed (not served from cache) in the overload rung per second.
    let cycles: u64 = ok_in(answers, overload)
        .filter(|(_, cached, _)| !cached)
        .map(|(_, _, cycles)| cycles)
        .sum();
    sheet.set(
        "sim_mcycles_per_s",
        cycles as f64 / (last - overload_start) / 1e6,
    );
    // The simulator's own speed inside the workers, below saturation:
    // cycles of the jobs executed in the light and loaded rungs per
    // second of worker busy time, from the stats taken after `loaded`.
    let cycles: u64 = answers
        .iter()
        .filter(|a| a.done <= overload_start)
        .filter_map(|a| a.result.as_ref().ok())
        .filter(|(cached, _, _)| !cached)
        .map(|&(_, _, cycles)| cycles)
        .sum();
    if let Some(Ok(nodes)) = snaps.get(loaded) {
        let busy_ns: u64 = nodes
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|r| r.name.starts_with("serve.worker.") && r.name.ends_with(".busy_ns"))
            .map(|r| r.value)
            .sum();
        sheet.info(
            "serve.worker_mcycles_per_s",
            cycles as f64 / busy_ns.max(1) as f64 * 1e3,
            "Mcycles/s",
        );
    }

    let lat: Vec<f64> = ok_in(answers, loaded)
        .map(|(a, _, _)| a.latency_ms())
        .collect();
    for (name, q) in [
        ("p50_ms.loaded", 0.5),
        ("p90_ms.loaded", 0.9),
        ("p98_ms.loaded", 0.98),
    ] {
        if let Some(v) = tail_quantile(&lat, q) {
            sheet.info(name, v, "ms");
        }
    }
    let hits: Vec<f64> = ok_in(answers, light)
        .filter(|(_, cached, _)| *cached)
        .map(|(a, _, _)| a.latency_ms())
        .collect();
    if !hits.is_empty() {
        sheet.info("hit_p50_ms.light", median(&hits), "ms");
    }
    for (r, rung) in rungs.iter().enumerate() {
        let offered = answers.iter().filter(|a| a.rung == r).count();
        sheet.info(format!("offered.{}", rung.name), offered as f64, "count");
        sheet.info(
            format!("answered.{}", rung.name),
            ok_in(answers, r).count() as f64,
            "count",
        );
    }
    let lag: Vec<f64> = answers.iter().map(|a| (a.sent - a.ready) * 1e3).collect();
    sheet.info(
        "serve.gen_lag_ms",
        lag.iter().sum::<f64>() / lag.len().max(1) as f64,
        "ms",
    );
    sheet.info("serve.client_rtt_ms", rtt_ms(answers), "ms");
    let expired = answers
        .iter()
        .filter(|a| matches!(&a.result, Err(e) if e.starts_with("Expired")))
        .count();
    sheet.info("serve.expired", expired as f64, "count");
}

/// Service-side rows from `Client::stats` after each rung and at the
/// end: cache hit ratio per rung, then latency, utilisation and shed
/// counts over the whole ladder.
fn server_info(sheet: &mut Sheet, snaps: &[io::Result<Vec<StatsSnapshot>>], rungs: &[Rung]) {
    let (mut prev_hits, mut prev_misses) = (0u64, 0u64);
    for (rung, snap) in rungs.iter().zip(snaps) {
        let Ok(nodes) = snap else { continue };
        let hits: u64 = nodes.iter().map(|s| s.cache_hits).sum();
        let misses: u64 = nodes.iter().map(|s| s.cache_misses).sum();
        let (dh, dm) = (hits - prev_hits, misses - prev_misses);
        sheet.info(
            format!("serve.cache_hit_ratio.{}", rung.name),
            dh as f64 / (dh + dm).max(1) as f64,
            "ratio",
        );
        (prev_hits, prev_misses) = (hits, misses);
    }
    let Some(Ok(nodes)) = snaps.last() else {
        return;
    };
    let mean =
        |f: &dyn Fn(&StatsSnapshot) -> f64| nodes.iter().map(f).sum::<f64>() / nodes.len() as f64;
    let hits: u64 = nodes.iter().map(|s| s.cache_hits).sum();
    let misses: u64 = nodes.iter().map(|s| s.cache_misses).sum();
    sheet.info("serve.cache_hits", hits as f64, "count");
    sheet.info("serve.cache_misses", misses as f64, "count");
    sheet.info(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    sheet.info(
        "serve.server_p50_ms",
        mean(&|s| s.latency_p50_ms as f64),
        "ms",
    );
    sheet.info(
        "serve.server_p99_ms",
        mean(&|s| s.latency_p99_ms as f64),
        "ms",
    );
    sheet.info(
        "serve.worker_util",
        mean(&|s| {
            s.worker_utilization.iter().sum::<f64>() / s.worker_utilization.len().max(1) as f64
        }),
        "ratio",
    );
    // The overload counters are process-wide: both nodes report the
    // same totals, so read one.
    let shed: u64 = [
        "overload.admit_shed",
        "overload.queue_shed",
        "overload.exec_shed",
        "overload.codel_shed",
    ]
    .iter()
    .filter_map(|c| nodes[0].counter(c))
    .sum();
    sheet.info("serve.shed", shed as f64, "count");
}

/// The correctness gate: every arrival is an op; all reports of one
/// job (hits included) must be identical, and a few jobs re-run
/// in-process must reproduce them. Returns each served job's digest.
fn check<'a>(
    sheet: &mut Sheet,
    jobs: &[JobSpec],
    answers: impl Iterator<Item = &'a Answer>,
) -> BTreeMap<usize, u64> {
    let mut served: BTreeMap<usize, u64> = BTreeMap::new();
    let mut failures = BTreeMap::new();
    for a in answers {
        sheet.op(a.result.is_ok());
        match &a.result {
            Ok((cached, d, _)) => {
                let first = *served.entry(a.job).or_insert(*d);
                if first != *d {
                    sheet.problem(format!(
                        "job {} answered two different reports (cached: {cached})",
                        a.job
                    ));
                }
            }
            Err(e) => *failures.entry(e.clone()).or_insert(0u64) += 1,
        }
    }
    for (e, n) in failures {
        sheet.problem(format!("{n} submissions failed: {e}"));
    }
    for (&j, &d) in served.iter().take(CHECKED_JOBS) {
        match catch_unwind(AssertUnwindSafe(|| digest(&jobs[j].run_local()))) {
            Ok(local) => {
                sheet.op(true);
                if local != d {
                    sheet.problem(format!(
                        "job {j}: served report differs from JobSpec::run_local"
                    ));
                }
            }
            Err(payload) => {
                sheet.op(false);
                sheet.problem(format!(
                    "job {j}: run_local panicked: {}",
                    panic_message(payload)
                ));
            }
        }
    }
    served
}

fn config(
    opts: &Opts,
    rungs: &[Rung],
    jobs: &[JobSpec],
    measured_secs: f64,
) -> Vec<(&'static str, String)> {
    let mut c = vec![
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("smoke", opts.smoke.to_string()),
        ("nodes", NODES.to_string()),
        ("workers_per_node", "1".to_string()),
        ("connections_per_node", "1".to_string()),
        ("repeat_one_in", REPEAT_ONE_IN.to_string()),
        ("budget_ms", BUDGET.as_millis().to_string()),
        ("distinct_jobs", jobs.len().to_string()),
        (
            "job_instructions",
            jobs.first().map_or(0, |j| j.instructions).to_string(),
        ),
        (
            "job_warmup",
            jobs.first().map_or(0, |j| j.warmup).to_string(),
        ),
        ("measured_secs", measured_secs.to_string()),
    ];
    let keys = [
        ("light_rate", "light_secs"),
        ("loaded_rate", "loaded_secs"),
        ("overload_rate", "overload_secs"),
    ];
    for ((rate, secs), rung) in keys.into_iter().zip(rungs) {
        c.push((rate, rung.rate().to_string()));
        c.push((secs, rung.secs().to_string()));
    }
    c
}
