//! The result store: a directory of finished simulation reports,
//! content-addressed by job.
//!
//! Each entry is `<dir>/<key:016x>.json`, where `key` is the job's
//! [`content_key`](crate::JobSpec::content_key), holding one
//! `{epoch, canonical, report}` document: the
//! [`MODEL_EPOCH`] that produced the report, the job's canonical JSON,
//! and the [`RunReport`]. A `nomad-serve` node's
//! [`ResultCache`](crate::ResultCache) spills to a store and reads a
//! job's document on its first request; the figure harnesses record
//! every finished cell in one and, under `--resume`, read cells back
//! from it.
//!
//! The store holds unobserved reports only. A job's key does not say
//! whether observability was on, so a report that carries an obs series
//! is never written (it would replace the plain document), and every
//! read misses while [`nomad_obs::enabled`] (a plain document would
//! hand an observed run a report without its series).
//!
//! A read is a hit only if the file parses, was written at the current
//! [`MODEL_EPOCH`], and holds the job's own canonical JSON. Missing,
//! torn, stale and foreign (a 64-bit key collision) documents are all
//! misses, so a bad file costs a re-run, never a wrong report. A write
//! goes to a uniquely named temp file, is `sync_data`'d, then renamed
//! into place: the final path only ever holds a whole document, and
//! concurrent writers of one key cannot tear each other. (The
//! directory is not synced: a crash may lose the last renames, and
//! those cells simply run again.)
//!
//! Fault sites: `serve.cache.spill` fires on every write (`torn`
//! leaves half a document at the final path, as a crash without the
//! rename would; any other fault drops the write), and
//! `serve.cache.reload` on every read of an existing file (any fault
//! makes it a miss).

use nomad_sim::{RunReport, MODEL_EPOCH};
use serde::{Deserialize, Serialize};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One entry as it sits on disk.
#[derive(Serialize, Deserialize)]
struct Document {
    epoch: u64,
    canonical: String,
    report: RunReport,
}

/// A directory of stored reports (see the module docs).
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// The store in `dir`. Nothing touches the disk until the first
    /// read or write; a write creates the directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore { dir: dir.into() }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// The report stored for the job with this `(key, canonical)`
    /// identity, or `None` on any kind of miss — always while
    /// observability is on.
    pub fn get(&self, key: u64, canonical: &str) -> Option<RunReport> {
        if nomad_obs::enabled() {
            return None;
        }
        read(&self.path(key))
            .filter(|doc| doc.canonical == canonical)
            .map(|doc| doc.report)
    }

    /// Store `report` as the result of the job with this
    /// `(key, canonical)` identity, replacing whatever the key's file
    /// held. A report carrying an obs series is skipped (`Ok`, nothing
    /// written).
    pub fn put(&self, key: u64, canonical: &str, report: &RunReport) -> io::Result<()> {
        if report.obs.is_some() {
            return Ok(());
        }
        let json = serde_json::to_string(&Document {
            epoch: MODEL_EPOCH,
            canonical: canonical.to_string(),
            report: report.clone(),
        })
        .expect("plain data serializes");
        std::fs::create_dir_all(&self.dir)?;
        if let Some(fault) = nomad_faults::inject("serve.cache.spill") {
            if fault == nomad_faults::Fault::Torn {
                std::fs::write(self.path(key), &json.as_bytes()[..json.len() / 2])?;
            }
            return Err(io::Error::other(format!(
                "injected {} fault",
                fault.label()
            )));
        }
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{key:016x}.{}-{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(json.as_bytes())?;
                file.sync_data()
            })
            .and_then(|()| std::fs::rename(&tmp, self.path(key)));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// Read one document, or `None` if it is missing, unreadable, torn,
/// or from another epoch.
fn read(path: &Path) -> Option<Document> {
    let text = std::fs::read_to_string(path).ok()?;
    if nomad_faults::inject("serve.cache.reload").is_some() {
        return None;
    }
    serde_json::from_str::<Document>(&text)
        .ok()
        .filter(|doc| doc.epoch == MODEL_EPOCH)
}

/// For tests that need a readable store: whether observability is on,
/// which turns the store off. An exported `NOMAD_OBS` overrides the
/// in-process toggle, so such a test skips (saying so) rather than fail.
#[cfg(test)]
pub(crate) fn obs_turns_the_store_off() -> bool {
    let on = nomad_obs::enabled();
    if on {
        eprintln!("NOMAD_OBS turns observability on and the store off; skipping");
    }
    on
}

#[cfg(test)]
mod tests {
    use super::*;
    use nomad_types::hash::fnv1a;

    fn report() -> RunReport {
        use nomad_sim::{runner, SchemeSpec, SystemConfig};
        use nomad_trace::WorkloadProfile;
        let mut cfg = SystemConfig::scaled(1);
        cfg.dc_capacity = 4 * 1024 * 1024;
        runner::run_one(
            &cfg,
            &SchemeSpec::Baseline,
            &WorkloadProfile::tc(),
            2_000,
            0,
            1,
        )
    }

    /// A fresh scratch store under the system temp dir, unique to this
    /// process and test.
    fn scratch(name: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("nomad-serve-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::new(dir)
    }

    fn files(store: &ResultStore) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(store.dir())
            .expect("store dir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn round_trip_survives_a_new_handle() {
        if obs_turns_the_store_off() {
            return;
        }
        let store = scratch("round-trip");
        let r = report();
        let key = fnv1a(b"job-a");
        assert!(store.get(key, "job-a").is_none(), "empty store misses");
        store.put(key, "job-a", &r).expect("put");
        let reopened = ResultStore::new(store.dir());
        let got = reopened.get(key, "job-a").expect("stored entry hits");
        assert_eq!(got.to_json(), r.to_json(), "reports round-trip exactly");
        assert_eq!(files(&store), [format!("{key:016x}.json")]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_document_is_a_miss_and_the_next_write_overwrites_it() {
        if obs_turns_the_store_off() {
            return;
        }
        let store = scratch("torn");
        let r = report();
        store.put(7, "job", &r).expect("put");
        let path = store.path(7);
        let whole = std::fs::read(&path).expect("document");
        std::fs::write(&path, &whole[..whole.len() / 2]).expect("tear");
        assert!(store.get(7, "job").is_none(), "a torn document is a miss");
        store.put(7, "job", &r).expect("put over the torn file");
        assert_eq!(store.get(7, "job").expect("hit").to_json(), r.to_json());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_canonical_under_the_right_key_is_a_miss() {
        if obs_turns_the_store_off() {
            return;
        }
        let store = scratch("foreign");
        store.put(9, "job-a", &report()).expect("put");
        assert!(
            store.get(9, "job-b").is_none(),
            "a 64-bit collision reads as a miss, never as job-a's report"
        );
        assert!(store.get(9, "job-a").is_some());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Documents from another epoch — including the epoch-less format
    /// spills had before epochs existed — are misses.
    #[test]
    fn other_epochs_are_misses() {
        let store = scratch("epoch");
        std::fs::create_dir_all(store.dir()).expect("mkdir");
        let report = serde_json::to_string(&report()).expect("report json");
        let stale = format!(
            "{{\"epoch\":{},\"canonical\":\"job\",\"report\":{report}}}",
            MODEL_EPOCH + 1
        );
        std::fs::write(store.path(1), stale).expect("write");
        let unversioned = format!("{{\"canonical\":\"job\",\"report\":{report}}}");
        std::fs::write(store.path(2), unversioned).expect("write");
        assert!(store.get(1, "job").is_none());
        assert!(store.get(2, "job").is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_writers_of_one_key_leave_one_whole_document() {
        if obs_turns_the_store_off() {
            return;
        }
        let store = scratch("race");
        let r = report();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..20 {
                        store.put(5, "job", &r).expect("put");
                    }
                });
            }
        });
        assert_eq!(files(&store), [format!("{:016x}.json", 5)], "no .tmp left");
        assert_eq!(store.get(5, "job").expect("hit").to_json(), r.to_json());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
