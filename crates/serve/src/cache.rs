//! Content-addressed result cache with single-flight coalescing.
//!
//! Results are keyed by the FNV-1a 64 hash of the job's canonical JSON
//! (see [`crate::proto::JobSpec::content_key`]). Because 64-bit
//! hashes can collide, every slot stores the canonical string and
//! verifies it on lookup: a collision degrades to
//! [`Claim::RunUncached`] (run the job, skip the cache), never to a
//! wrong report.
//!
//! The first claimant of a key becomes its *runner*
//! ([`Claim::Run`]); identical jobs claimed while the first is still
//! executing coalesce onto the same [`Flight`] ([`Claim::Wait`]) and
//! are counted as cache hits — they are served without a new
//! simulation. Successful results are cached forever (simulations are
//! deterministic, so entries never go stale); failures are *not*
//! cached — the next identical submission retries from scratch.
//!
//! # Persistence
//!
//! With [`ResultCache::with_dir`], the cache sits on a
//! [`ResultStore`] in that directory: it starts out empty, a key the
//! map does not hold is read from the store on its first
//! [`claim`](ResultCache::claim) or [`lookup`](ResultCache::lookup)
//! and kept, and every `Ready` entry is written to the store. So a
//! restarted server keeps serving hits for experiments it has already
//! run, yet holds in memory only what it is asked for. Reads and
//! writes happen outside the map lock; writes are best-effort (I/O
//! failures are ignored), and what the store cannot read (torn, stale
//! or foreign files) is a cache miss, never a crash or a wrong report.

use crate::store::ResultStore;
use nomad_sim::RunReport;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why a job did not produce a report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Human-readable description (panic message, timeout, shutdown).
    pub error: String,
    /// Execution attempts consumed (0 if the job never started).
    pub attempts: u32,
    /// The job was shed (deadline-expired or CoDel) rather than failed:
    /// it never ran, and a retry with more budget (or less load) may
    /// succeed. The server answers a shed with
    /// [`Response::Expired`](crate::proto::Response::Expired) instead
    /// of `Failed`.
    pub shed: bool,
}

/// The outcome of one job execution.
pub type JobResult = Result<Arc<RunReport>, JobFailure>;

impl JobFailure {
    /// A job that failed (or never started, with `attempts` 0) for
    /// a reason other than shedding.
    pub fn failed(error: impl Into<String>, attempts: u32) -> Self {
        JobFailure {
            error: error.into(),
            attempts,
            shed: false,
        }
    }

    fn shed(error: String) -> Self {
        JobFailure {
            error,
            attempts: 0,
            shed: true,
        }
    }

    /// A deadline-expired shed: the job was dropped without running
    /// because its budget could not be (or was not) met. `where_` names
    /// the checkpoint (admission, queue, pre-execute) for the error
    /// text.
    pub fn expired(where_: &str, waited_ms: u64) -> Self {
        Self::shed(format!("deadline expired at {where_} after {waited_ms} ms"))
    }

    /// An admission-time shed: the estimated queue wait alone already
    /// exceeds the job's deadline budget, so enqueueing it would only
    /// manufacture expired work.
    pub fn admit_expired(estimated_wait_ms: u64, deadline_ms: u64) -> Self {
        Self::shed(format!(
            "deadline expired at admission: estimated {estimated_wait_ms} ms wait \
             exceeds the {deadline_ms} ms budget"
        ))
    }

    /// A CoDel shed: sojourn time exceeded the queue-delay target while
    /// a backlog remained.
    pub fn codel_shed(sojourn_ms: u64, target_ms: u64) -> Self {
        Self::shed(format!(
            "shed by queue-delay controller: {sojourn_ms} ms sojourn over {target_ms} ms target"
        ))
    }
}

/// A rendezvous between one running job and any coalesced waiters.
pub struct Flight {
    slot: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl Flight {
    /// A fresh, unresolved flight.
    pub fn new() -> Arc<Self> {
        Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    /// Publish the result and wake all waiters. Idempotent: the first
    /// completion wins.
    pub fn complete(&self, result: JobResult) {
        let mut slot = self.slot.lock().expect("flight lock");
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }

    /// Block until the result is published, or until `deadline`
    /// passes with none (`None`; `deadline: None` waits forever). The
    /// flight itself stays valid — a coalesced waiter giving up does
    /// not disturb the runner or other waiters.
    pub fn wait_until(&self, deadline: Option<std::time::Instant>) -> Option<JobResult> {
        let mut slot = self.slot.lock().expect("flight lock");
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            slot = match deadline {
                None => self.done.wait(slot).expect("flight lock"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.done.wait_timeout(slot, left).expect("flight lock").0
                }
            };
        }
    }
}

enum Slot {
    /// A completed result.
    Ready {
        canonical: String,
        report: Arc<RunReport>,
    },
    /// A job currently executing (or queued).
    InFlight {
        canonical: String,
        flight: Arc<Flight>,
    },
}

/// What a submission should do, as decided by [`ResultCache::claim`].
pub enum Claim {
    /// Cached result; respond immediately.
    Hit(Arc<RunReport>),
    /// An identical job is already in flight; wait for it.
    Wait(Arc<Flight>),
    /// This submission is the runner: execute, then
    /// [`complete`](ResultCache::complete) the key.
    Run(Arc<Flight>),
    /// Key collision with a *different* job (canonical strings
    /// differ): execute without touching the cache.
    RunUncached,
}

/// The shared result cache.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<u64, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Where completed entries persist; `None` = memory-only.
    store: Option<ResultStore>,
}

impl ResultCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache over the [`ResultStore`] in `dir` (see the
    /// module-level *Persistence* section). Nothing is read until a
    /// job is asked for. `None` behaves like [`new`](Self::new).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        ResultCache {
            store: dir.map(ResultStore::new),
            ..Self::default()
        }
    }

    /// The locked map, holding the stored report for `(key, canonical)`
    /// as a `Ready` slot if the map had nothing under `key` and the
    /// store has it. The store is read with the lock released; a slot
    /// that appeared meanwhile wins, so concurrent readers of one
    /// stored job all end up on the same entry.
    fn map_with(&self, key: u64, canonical: &str) -> MutexGuard<'_, HashMap<u64, Slot>> {
        let map = self.map.lock().expect("cache lock");
        let Some(store) = self.store.as_ref().filter(|_| !map.contains_key(&key)) else {
            return map;
        };
        drop(map);
        let stored = store.get(key, canonical);
        let mut map = self.map.lock().expect("cache lock");
        if let Some(report) = stored {
            map.entry(key).or_insert_with(|| Slot::Ready {
                canonical: canonical.to_string(),
                report: Arc::new(report),
            });
        }
        map
    }

    /// Decide how to serve a job with this `(key, canonical)`
    /// identity, registering an in-flight slot when this submission
    /// becomes the runner.
    pub fn claim(&self, key: u64, canonical: &str) -> Claim {
        let mut map = self.map_with(key, canonical);
        match map.get(&key) {
            Some(Slot::Ready {
                canonical: c,
                report,
            }) if c == canonical => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Claim::Hit(Arc::clone(report))
            }
            Some(Slot::InFlight {
                canonical: c,
                flight,
            }) if c == canonical => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Claim::Wait(Arc::clone(flight))
            }
            Some(_) => {
                // 64-bit collision between distinct jobs.
                self.misses.fetch_add(1, Ordering::Relaxed);
                Claim::RunUncached
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let flight = Flight::new();
                map.insert(
                    key,
                    Slot::InFlight {
                        canonical: canonical.to_string(),
                        flight: Arc::clone(&flight),
                    },
                );
                Claim::Run(flight)
            }
        }
    }

    /// A pure read for the `Fetch` protocol frame: the completed
    /// report cached under this `(key, canonical)` identity, or `None`
    /// (in-flight jobs are `None` too — a fetch never blocks). Unlike
    /// [`claim`](Self::claim) this touches neither the hit/miss
    /// counters nor any in-flight slot, so fleet fetches do not skew a
    /// node's submission statistics; a stored report it reads is kept
    /// like any other.
    pub fn lookup(&self, key: u64, canonical: &str) -> Option<Arc<RunReport>> {
        let map = self.map_with(key, canonical);
        match map.get(&key) {
            Some(Slot::Ready {
                canonical: c,
                report,
            }) if c == canonical => Some(Arc::clone(report)),
            _ => None,
        }
    }

    /// Resolve the in-flight slot for `key`: successes become cached
    /// entries, failures are forgotten (retried on next submission).
    /// Waiters are woken either way.
    pub fn complete(&self, key: u64, result: JobResult) {
        let mut map = self.map.lock().expect("cache lock");
        let Some(Slot::InFlight { canonical, flight }) = map.remove(&key) else {
            return;
        };
        let spilled = if let Ok(report) = &result {
            map.insert(
                key,
                Slot::Ready {
                    canonical: canonical.clone(),
                    report: Arc::clone(report),
                },
            );
            Some((canonical, Arc::clone(report)))
        } else {
            None
        };
        drop(map);
        // Wake waiters before touching the disk: persistence must not
        // add latency to coalesced submissions.
        flight.complete(result);
        if let (Some(store), Some((canonical, report))) = (&self.store, spilled) {
            let _ = store.put(key, &canonical, &report);
        }
    }

    /// Submissions served from cache or coalesced.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Submissions that required a new simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Completed reports held in memory (not counting stored documents
    /// no request has read yet).
    pub fn entries(&self) -> usize {
        let map = self.map.lock().expect("cache lock");
        map.values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Arc<RunReport> {
        use nomad_sim::{runner, SchemeSpec, SystemConfig};
        use nomad_trace::WorkloadProfile;
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        Arc::new(runner::run_one(
            &cfg,
            &SchemeSpec::Baseline,
            &WorkloadProfile::tc(),
            2_000,
            0,
            1,
        ))
    }

    #[test]
    fn first_claim_runs_second_hits_after_completion() {
        let cache = ResultCache::new();
        let r = report();
        let Claim::Run(flight) = cache.claim(42, "job-a") else {
            panic!("first claim must run");
        };
        cache.complete(42, Ok(Arc::clone(&r)));
        let done = flight.wait_until(None).expect("published");
        assert_eq!(done.expect("success").cycles, r.cycles);
        let Claim::Hit(hit) = cache.claim(42, "job-a") else {
            panic!("second claim must hit");
        };
        assert_eq!(hit.cycles, r.cycles);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn concurrent_claims_coalesce_onto_one_flight() {
        let cache = ResultCache::new();
        let Claim::Run(_runner) = cache.claim(7, "job") else {
            panic!("runner");
        };
        let Claim::Wait(waiter) = cache.claim(7, "job") else {
            panic!("waiter");
        };
        let r = report();
        cache.complete(7, Ok(Arc::clone(&r)));
        let done = waiter.wait_until(None).expect("published");
        assert_eq!(done.expect("success").cycles, r.cycles);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = ResultCache::new();
        let Claim::Run(flight) = cache.claim(9, "job") else {
            panic!("runner");
        };
        cache.complete(9, Err(JobFailure::failed("panicked", 3)));
        let done = flight.wait_until(None).expect("published");
        assert_eq!(done.expect_err("failure").attempts, 3);
        assert_eq!(cache.entries(), 0);
        // The next identical submission runs again.
        assert!(matches!(cache.claim(9, "job"), Claim::Run(_)));
    }

    /// A fresh scratch directory under the system temp dir, unique to
    /// this process and test.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nomad-serve-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ready_entries_survive_reload() {
        if crate::store::obs_turns_the_store_off() {
            return;
        }
        let dir = scratch_dir("reload");
        let canonical = "job-a";
        let key = nomad_types::hash::fnv1a(canonical.as_bytes());
        let r = report();
        {
            let cache = ResultCache::with_dir(Some(dir.clone()));
            let Claim::Run(_) = cache.claim(key, canonical) else {
                panic!("runner");
            };
            cache.complete(key, Ok(Arc::clone(&r)));
            assert_eq!(cache.entries(), 1);
        }
        // A brand-new cache over the same directory starts empty and
        // reads the entry from the store when it is asked for.
        let cache = ResultCache::with_dir(Some(dir.clone()));
        assert_eq!(cache.entries(), 0, "nothing is loaded up front");
        let Claim::Hit(hit) = cache.claim(key, canonical) else {
            panic!("stored entry must hit");
        };
        assert_eq!(hit.cycles, r.cycles);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Fetch` lookup reads a stored job too, and keeps it.
    #[test]
    fn lookup_reads_a_stored_job() {
        if crate::store::obs_turns_the_store_off() {
            return;
        }
        let dir = scratch_dir("lookup");
        let canonical = "job-l";
        let key = nomad_types::hash::fnv1a(canonical.as_bytes());
        let r = report();
        ResultStore::new(&dir)
            .put(key, canonical, &r)
            .expect("plant a document");
        let cache = ResultCache::with_dir(Some(dir.clone()));
        assert_eq!(cache.entries(), 0);
        assert!(
            cache.lookup(key, "job-other").is_none(),
            "foreign job misses"
        );
        let hit = cache.lookup(key, canonical).expect("stored job is found");
        assert_eq!(hit.to_json(), r.to_json());
        assert_eq!(cache.entries(), 1, "the read report stays in memory");
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "lookups are not counted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent claims of a stored job all hit: none of them runs it.
    #[test]
    fn concurrent_claims_of_a_stored_job_never_run_it() {
        if crate::store::obs_turns_the_store_off() {
            return;
        }
        let dir = scratch_dir("stored-flight");
        let canonical = "job-s";
        let key = nomad_types::hash::fnv1a(canonical.as_bytes());
        ResultStore::new(&dir)
            .put(key, canonical, &report())
            .expect("plant a document");
        let cache = ResultCache::with_dir(Some(dir.clone()));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    assert!(matches!(cache.claim(key, canonical), Claim::Hit(_)));
                });
            }
        });
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (8, 0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failures_are_not_spilled() {
        let dir = scratch_dir("failures");
        {
            let cache = ResultCache::with_dir(Some(dir.clone()));
            let Claim::Run(_) = cache.claim(5, "job") else {
                panic!("runner");
            };
            cache.complete(5, Err(JobFailure::failed("boom", 1)));
        }
        let cache = ResultCache::with_dir(Some(dir.clone()));
        assert!(matches!(cache.claim(5, "job"), Claim::Run(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_files_are_ignored() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("0000000000000bad.json"), "{not json").expect("write");
        let cache = ResultCache::with_dir(Some(dir.clone()));
        // Reading the garbage under its key is a miss, and the cache
        // still works normally on top of it.
        let Claim::Run(_) = cache.claim(0xbad, "job") else {
            panic!("garbage must not become an entry");
        };
        cache.complete(0xbad, Ok(report()));
        assert_eq!(cache.entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collision_bypasses_cache() {
        let cache = ResultCache::new();
        let Claim::Run(_) = cache.claim(1, "job-a") else {
            panic!("runner");
        };
        // Same key, different canonical string: must not coalesce.
        assert!(matches!(cache.claim(1, "job-b"), Claim::RunUncached));
        cache.complete(1, Ok(report()));
        assert!(matches!(cache.claim(1, "job-b"), Claim::RunUncached));
    }
}
