//! nomad-faults: seeded, deterministic fault injection.
//!
//! The resilience layer of this workspace (cell retries, reconnecting
//! sweep clients, the crash-safe result store) only earns trust if
//! its failure paths are *exercised*, and failure paths are exactly
//! the code ordinary runs never reach. This crate provides the chaos:
//! named **fail points** threaded through the serve transport, the
//! worker pool, the result store's writes and reads, and the bench executor's
//! cell closure, driven by a [`FaultPlan`] so every injected fault is
//! reproducible from a seed.
//!
//! # The plan
//!
//! A plan is parsed from the `NOMAD_FAULTS` environment variable:
//!
//! ```text
//! NOMAD_FAULTS=<seed>:<site>=<kind>[@<prob>][,<site>=<kind>[@<prob>]...]
//! ```
//!
//! * `seed` — a `u64`; every injection decision derives from it.
//! * `site` — a fail-point name (`serve.proto.write_frame`,
//!   `bench.cell`, …) or a prefix ending in `*` (`serve.*` matches
//!   every serve-side site). First matching rule wins.
//! * `kind` — `panic`, `io` (an `io::Error`), `torn` (a short write
//!   followed by an error), or `delay:<ms>` (a sleep).
//! * `prob` — injection probability in `[0, 1]` (default `1`).
//!
//! Example: `NOMAD_FAULTS=42:serve.proto.write_frame=torn@0.2,bench.cell=panic@0.1`.
//!
//! # Determinism
//!
//! Each site keeps a call counter `n`; the decision for call `n` is a
//! pure function of `(seed, site, n)` via [`splitmix64`]. The *set* of
//! injected call indices at a site is therefore fixed by the seed —
//! independent of thread count or scheduling. Under parallel sweeps
//! the assignment of indices to threads can race, but every consumer
//! in this workspace recovers transparently (retries re-run pure
//! cells, reconnects resubmit idempotent jobs), so recovered artifacts
//! are byte-identical at any `NOMAD_JOBS` width.
//!
//! # When off, free
//!
//! With `NOMAD_FAULTS` unset (and no plan installed) every fail point
//! is one relaxed atomic load — no parsing, no locking, no RNG — and
//! nothing is ever injected, so the existing parity suites hold
//! byte-for-byte.

#![warn(missing_docs)]

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// One fault an armed fail point can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the fail point (callers with `catch_unwind` budgets
    /// retry; others propagate).
    Panic,
    /// Return an `io::Error` from the fail point.
    Io,
    /// Write only part of the payload, then fail — a mid-frame
    /// connection drop or a crash mid-spill.
    Torn,
    /// Sleep this many milliseconds, then proceed normally.
    Delay(u64),
}

impl Fault {
    /// Short lowercase name of the fault kind (`panic`, `io`, `torn`,
    /// `delay`), as spelled in the `NOMAD_FAULTS` grammar.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Io => "io",
            Fault::Torn => "torn",
            Fault::Delay(_) => "delay",
        }
    }
}

/// One `site=kind@prob` rule of a plan.
#[derive(Debug, Clone)]
struct Rule {
    /// Site name, or a prefix if `prefix` is set (spelled `prefix*`).
    site: String,
    prefix: bool,
    fault: Fault,
    /// Injection probability scaled to `0..=1_000_000`.
    prob_ppm: u64,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        if self.prefix {
            site.starts_with(&self.site)
        } else {
            site == self.site
        }
    }
}

/// A parsed, seeded fault-injection plan.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Per-site call counters (site name → n), so decisions are a pure
    /// function of `(seed, site, n)`.
    counters: Mutex<Vec<(String, &'static AtomicU64)>>,
}

impl FaultPlan {
    /// Parse a `<seed>:<spec>` plan (the `NOMAD_FAULTS` format; see
    /// the crate docs).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let (seed, spec) = s
            .split_once(':')
            .ok_or_else(|| format!("expected <seed>:<spec>, got {s:?}"))?;
        let seed: u64 = seed
            .trim()
            .parse()
            .map_err(|_| format!("seed {seed:?} is not a u64"))?;
        let mut rules = Vec::new();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let (site, fault_spec) = entry
                .split_once('=')
                .ok_or_else(|| format!("rule {entry:?} is not <site>=<kind>[@<prob>]"))?;
            let (kind, prob) = match fault_spec.split_once('@') {
                Some((k, p)) => {
                    let p: f64 = p
                        .trim()
                        .parse()
                        .map_err(|_| format!("probability {p:?} is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} outside [0, 1]"));
                    }
                    (k.trim(), p)
                }
                None => (fault_spec.trim(), 1.0),
            };
            let fault = match kind.split_once(':') {
                Some(("delay", ms)) => Fault::Delay(
                    ms.parse()
                        .map_err(|_| format!("delay {ms:?} is not milliseconds"))?,
                ),
                None if kind == "panic" => Fault::Panic,
                None if kind == "io" => Fault::Io,
                None if kind == "torn" => Fault::Torn,
                _ => return Err(format!("unknown fault kind {kind:?}")),
            };
            let site = site.trim();
            let (site, prefix) = match site.strip_suffix('*') {
                Some(p) => (p.to_string(), true),
                None => (site.to_string(), false),
            };
            rules.push(Rule {
                site,
                prefix,
                fault,
                prob_ppm: (prob * 1_000_000.0).round() as u64,
            });
        }
        if rules.is_empty() {
            return Err("plan has no rules".to_string());
        }
        Ok(FaultPlan {
            seed,
            rules,
            counters: Mutex::new(Vec::new()),
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// This site's monotonically increasing call counter cell,
    /// creating it on first use. The cells are leaked (`&'static`) so
    /// the per-call hot path after the first is lock + linear probe of
    /// a short vec — fine for fail-point call rates.
    fn counter(&self, site: &str) -> &'static AtomicU64 {
        let mut counters = self.counters.lock().expect("fault counters lock");
        if let Some((_, cell)) = counters.iter().find(|(name, _)| name == site) {
            return cell;
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        counters.push((site.to_string(), cell));
        cell
    }

    /// Decide whether call `n` (implicit, via the site counter) at
    /// `site` injects a fault. Pure in `(seed, site, n)`.
    pub fn decide(&self, site: &str) -> Option<Fault> {
        let rule = self.rules.iter().find(|r| r.matches(site))?;
        let n = self.counter(site).fetch_add(1, Ordering::Relaxed);
        let draw =
            splitmix64(self.seed ^ fnv1a(site.as_bytes()) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (draw % 1_000_000 < rule.prob_ppm).then_some(rule.fault)
    }
}

/// SplitMix64: the standard 64-bit finalizer-style PRNG step. Public
/// because the serve client reuses it for deterministic backoff
/// jitter.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 (same parameters as `nomad_types::hash::fnv1a`), used to
/// fold site names into the decision hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Fast-path gate: true iff a plan is installed. Fail points bail on
/// one relaxed load when injection is off.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<&'static FaultPlan>> = Mutex::new(None);
static ENV_INIT: Once = Once::new();
/// Total faults injected by every fail point since process start.
static INJECTED: AtomicU64 = AtomicU64::new(0);
/// Optional injection observer (used to mirror injections into the
/// `resilience.faults_injected` metric without depending on nomad-obs
/// from here). Install-once; installing the same fn again is a no-op.
static OBSERVER: OnceLock<fn(&str, Fault)> = OnceLock::new();

/// Arm the fault plan from `NOMAD_FAULTS`, once per process (a no-op
/// when unset or already armed). Fail points call this lazily, so
/// explicit calls are only needed to surface parse warnings early.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(raw) = std::env::var("NOMAD_FAULTS") else {
            return;
        };
        if raw.trim().is_empty() {
            return;
        }
        match FaultPlan::parse(&raw) {
            Ok(plan) => {
                eprintln!("nomad-faults: armed from NOMAD_FAULTS (seed {})", plan.seed);
                install(Some(plan));
            }
            Err(e) => eprintln!("warning: ignoring unparseable NOMAD_FAULTS: {e}"),
        }
    });
}

/// Install (or clear, with `None`) the process-wide plan, replacing
/// whatever `NOMAD_FAULTS` armed. Plans are leaked — installation is a
/// test/startup operation, not a hot path.
pub fn install(plan: Option<FaultPlan>) {
    let leaked: Option<&'static FaultPlan> = plan.map(|p| &*Box::leak(Box::new(p)));
    let mut slot = PLAN.lock().expect("fault plan lock");
    *slot = leaked;
    ACTIVE.store(slot.is_some(), Ordering::Release);
}

/// Register the injection observer (idempotent; the first installation
/// wins). Called by nomad-serve and nomad-bench to mirror injections
/// into the `resilience.faults_injected` counter.
pub fn set_observer(observer: fn(&str, Fault)) {
    let _ = OBSERVER.set(observer);
}

/// Total faults injected since process start (all sites).
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// The heart of every fail point: consult the plan for `site` and
/// return the fault to inject, if any. Records the injection (counter
/// and observer) and prints one stderr line per injection so chaos
/// runs are debuggable. `Delay` faults are slept here and **not**
/// returned — callers only ever see `Panic`/`Io`/`Torn`.
pub fn inject(site: &str) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Acquire) {
        init_from_env();
        if !ACTIVE.load(Ordering::Acquire) {
            return None;
        }
    }
    let plan = (*PLAN.lock().expect("fault plan lock"))?;
    let fault = plan.decide(site)?;
    INJECTED.fetch_add(1, Ordering::Relaxed);
    if let Some(observer) = OBSERVER.get() {
        observer(site, fault);
    }
    eprintln!("nomad-faults: injecting {} at {site}", fault.label());
    if let Fault::Delay(ms) = fault {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return None;
    }
    Some(fault)
}

/// Fail point for `io::Result` contexts: `Io`/`Torn` become an
/// `io::Error` (`Torn` is only distinguished by sites that can
/// actually tear a write — use [`inject`] directly there), `Panic`
/// panics, `Delay` sleeps.
pub fn fail_point(site: &str) -> io::Result<()> {
    match inject(site) {
        None => Ok(()),
        Some(Fault::Panic) => panic!("nomad-faults: injected panic at {site}"),
        Some(Fault::Io) | Some(Fault::Torn) => Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            format!("nomad-faults: injected io error at {site}"),
        )),
        Some(Fault::Delay(_)) => unreachable!("inject() sleeps delays"),
    }
}

/// Fail point for infallible contexts (a sweep cell, a worker
/// attempt): every injectable fault kind becomes a panic, which the
/// surrounding retry budget absorbs. `Delay` sleeps.
pub fn panic_point(site: &str) {
    if inject(site).is_some() {
        panic!("nomad-faults: injected panic at {site}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-wide plan; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_plan<R>(plan: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(plan.map(|s| FaultPlan::parse(s).expect("test plan parses")));
        let out = f();
        install(None);
        out
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan =
            FaultPlan::parse("42:serve.proto.write_frame=torn@0.25,bench.cell=panic,x=delay:7@0.5")
                .expect("parses");
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].fault, Fault::Torn);
        assert_eq!(plan.rules[0].prob_ppm, 250_000);
        assert_eq!(plan.rules[1].fault, Fault::Panic);
        assert_eq!(plan.rules[1].prob_ppm, 1_000_000);
        assert_eq!(plan.rules[2].fault, Fault::Delay(7));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "no-colon",
            "x:site=panic",      // seed is not a number
            "1:site",            // no kind
            "1:site=explode",    // unknown kind
            "1:site=panic@1.5",  // probability out of range
            "1:site=panic@high", // probability not a number
            "1:",                // no rules
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn prefix_rules_match_by_prefix() {
        let plan = FaultPlan::parse("1:serve.*=io").expect("parses");
        assert!(plan.rules[0].matches("serve.proto.write_frame"));
        assert!(plan.rules[0].matches("serve.cache.spill"));
        assert!(!plan.rules[0].matches("bench.cell"));
    }

    #[test]
    fn decisions_are_deterministic_in_call_index() {
        let a = FaultPlan::parse("7:site=io@0.5").expect("parses");
        let b = FaultPlan::parse("7:site=io@0.5").expect("parses");
        let seq_a: Vec<bool> = (0..64).map(|_| a.decide("site").is_some()).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.decide("site").is_some()).collect();
        assert_eq!(seq_a, seq_b, "same seed, same site, same sequence");
        assert!(seq_a.iter().any(|&x| x), "p=0.5 injects sometimes");
        assert!(!seq_a.iter().all(|&x| x), "p=0.5 spares sometimes");

        let c = FaultPlan::parse("8:site=io@0.5").expect("parses");
        let seq_c: Vec<bool> = (0..64).map(|_| c.decide("site").is_some()).collect();
        assert_ne!(seq_a, seq_c, "a different seed draws differently");
    }

    #[test]
    fn unarmed_fail_points_are_free_and_silent() {
        with_plan(None, || {
            let before = injected_total();
            assert!(fail_point("anything").is_ok());
            panic_point("anything");
            assert_eq!(inject("anything"), None);
            assert_eq!(injected_total(), before, "nothing injected");
        });
    }

    #[test]
    fn armed_fail_point_errors_and_counts() {
        with_plan(Some("3:chaos.io=io"), || {
            let before = injected_total();
            let err = fail_point("chaos.io").expect_err("always injects");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
            assert!(fail_point("other.site").is_ok(), "unmatched site is clean");
            assert_eq!(injected_total(), before + 1);
        });
    }

    #[test]
    fn armed_panic_point_panics() {
        with_plan(Some("3:chaos.panic=panic"), || {
            let caught = std::panic::catch_unwind(|| panic_point("chaos.panic"));
            assert!(caught.is_err(), "panic fault must panic");
        });
    }

    #[test]
    fn splitmix_and_fnv_are_stable() {
        // Known-answer checks so the decision function can never
        // silently change between releases (that would re-seed every
        // committed chaos scenario).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
