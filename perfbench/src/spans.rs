//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer: name, start, end, the span that caused it, and the request
//! (cell or arrival) it belongs to. Spans stay in memory and are
//! written once at the end, as a Chrome trace and as self time per
//! layer.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The cell or arrival this span belongs to.
    pub req: u64,
    /// Small per-thread number (the Chrome trace's track).
    pub tid: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    req: u64,
    start_ns: u64,
}

impl Open {
    /// This span's id, to pass as the parent of its children.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// A small number naming the calling thread (stable for its lifetime).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

impl Tracer {
    /// Nanoseconds from the tracer's creation to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now.
    pub fn open(&self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        self.open_at(name, parent, req, Instant::now())
    }

    /// Start a span that began at `at`.
    pub fn open_at(&self, name: &'static str, parent: Option<u64>, req: u64, at: Instant) -> Open {
        Open {
            name,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            start_ns: self.ns(at),
        }
    }

    /// End a span now; returns its duration in nanoseconds.
    pub fn close(&self, open: Open) -> u64 {
        self.close_at(open, Instant::now())
    }

    /// End a span at `at`; returns its duration in nanoseconds.
    pub fn close_at(&self, open: Open, at: Instant) -> u64 {
        let end_ns = self.ns(at).max(open.start_ns);
        let span = Span {
            name: open.name,
            id: open.id,
            parent: open.parent,
            req: open.req,
            tid: thread_id(),
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        end_ns - open.start_ns
    }

    /// Every finished span, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The spans as Chrome Trace Event JSON (complete `X` events;
    /// span id, parent and request id under `args`).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                parent,
                s.req
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Total self time per span name: each span's duration minus the
    /// time its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name).or_default() += own;
        }
        out
    }
}
