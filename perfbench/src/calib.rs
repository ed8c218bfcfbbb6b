//! Host-speed calibration: a fixed reference kernel timed next to every
//! simulator cell and every set-up.
//!
//! The shared 2-vCPU hosts this benchmark runs on slow it down in two
//! ways. Other processes, inside the machine or on the hypervisor, take
//! the core away: a cell's wall time then grows by the time its thread
//! waited, four- to fivefold on a crowded host, by an amount that
//! changes from run to run. [`measure`] therefore times work in thread
//! CPU time ([`thread_cpu_secs`]), which stops while the thread waits
//! (the kernel subtracts hypervisor steal time too). The core can also
//! run slower while this thread has it (a busy sibling hyperthread,
//! shared caches, memory), in regimes that last seconds to minutes: the
//! same code runs at half its untroubled speed for minutes, or 0.75× to
//! 1.15× of its median within one, and CPU time moves with it. A median
//! over one run cannot remove a regime that lasts the whole run, so
//! [`measure`] also times this kernel on the same thread right before
//! and right after the measured work, and scales the work's CPU time by
//! how much slower than [`NOMINAL_SECS`] the kernel ran around it.
//!
//! The kernel is a small set-associative cache model with a DRAM row
//! table, driven by an address stream of short sequential runs and
//! random jumps: the same mix of table lookups, data-dependent branches
//! and last-level-cache traffic as the simulator's hot loop, so the two
//! slow down together. It is this package's code, not the repository's:
//! no change to the simulator changes its speed. Do not edit it; a
//! change to it or to [`NOMINAL_SECS`] rescales every simulator timing.

use std::cell::RefCell;
use std::time::{Duration, Instant};

const SETS: usize = 1 << 13;
const WAYS: usize = 8;
const ROWS: usize = 1 << 15;
/// Accesses per kernel run.
const STEPS: usize = 60_000;

/// Time of one kernel run on the host the scaled timings are expressed
/// at. It only fixes their unit: on the 2-vCPU Intel Xeon container
/// this was built on, a run takes 1.4–1.7 ms of CPU time.
pub const NOMINAL_SECS: f64 = 1.0e-3;

/// A kernel run that ended at most this long before the next measured
/// work starts is reused as that work's "before" run.
const REUSE_WITHIN: Duration = Duration::from_millis(5);

/// The reference kernel's state. It stays warm between runs, like a
/// simulator between cycles.
#[derive(Debug)]
struct RefKernel {
    tags: Vec<u64>,
    age: Vec<u8>,
    rows: Vec<u64>,
    x: u64,
    addr: u64,
    sum: u64,
}

impl RefKernel {
    /// A kernel with its tables allocated and touched by one run.
    fn warm() -> Self {
        let mut k = RefKernel {
            tags: vec![u64::MAX; SETS * WAYS],
            age: vec![0; SETS * WAYS],
            rows: vec![0; ROWS],
            x: 0x9e37_79b9_7f4a_7c15,
            addr: 0,
            sum: 0,
        };
        k.time();
        k
    }

    fn step(&mut self) {
        let mut x = self.x;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.x = x;
        // One access in eight jumps anywhere in 256 MiB; the rest walk
        // on by a line.
        self.addr = if x & 7 == 0 {
            (x >> 20) & ((1 << 28) - 1)
        } else {
            self.addr + 64
        };
        let line = self.addr >> 6;
        let base = (line as usize & (SETS - 1)) * WAYS;
        let tag = line >> 13;
        let set = base..base + WAYS;
        let way = match self.tags[set.clone()].iter().position(|&t| t == tag) {
            Some(w) => {
                self.sum = self.sum.wrapping_add(1);
                w
            }
            None => {
                let victim = (0..WAYS)
                    .max_by_key(|&w| self.age[base + w])
                    .expect("WAYS > 0");
                self.tags[base + victim] = tag;
                let row = (line >> 5) as usize & (ROWS - 1);
                self.rows[row] = self.rows[row].rotate_left(7) ^ line;
                self.sum ^= self.rows[row];
                victim
            }
        };
        for a in &mut self.age[set] {
            *a = a.saturating_add(1);
        }
        self.age[base + way] = 0;
    }

    /// Run the kernel once and return its CPU seconds. Its tables are
    /// read through first, untimed, so that the time does not depend on
    /// how much of them the measured work evicted.
    fn time(&mut self) -> f64 {
        let touched = self.tags.iter().chain(&self.rows).fold(0u64, |a, &b| a ^ b)
            ^ self.age.iter().map(|&a| u64::from(a)).sum::<u64>();
        std::hint::black_box(touched);
        let t0 = thread_cpu_secs();
        for _ in 0..STEPS {
            self.step();
        }
        std::hint::black_box(self.sum);
        thread_cpu_secs() - t0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_os = "macos")]
const CLOCK_THREAD_CPUTIME_ID: i32 = 16;
#[cfg(not(target_os = "macos"))]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run so far. Unlike wall time it
/// does not advance while the thread waits for a core.
///
/// # Panics
///
/// Panics when the clock cannot be read (not a 64-bit Linux or macOS
/// host).
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit hosts this runs on) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// This thread's kernel and its latest run: `(seconds, end)`.
struct ThreadKernel {
    kernel: RefKernel,
    last: Option<(f64, Instant)>,
}

thread_local! {
    static KERNEL: RefCell<Option<ThreadKernel>> = const { RefCell::new(None) };
}

/// Run this thread's kernel (building it on first use) and return the
/// run's CPU seconds.
fn kernel_run() -> f64 {
    KERNEL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let tk = slot.get_or_insert_with(|| ThreadKernel {
            kernel: RefKernel::warm(),
            last: None,
        });
        let secs = tk.kernel.time();
        tk.last = Some((secs, Instant::now()));
        secs
    })
}

/// The latest kernel run on this thread, if it ended within
/// [`REUSE_WITHIN`].
fn recent_run() -> Option<f64> {
    KERNEL.with(|cell| {
        let slot = cell.borrow();
        let (secs, end) = slot.as_ref()?.last?;
        (end.elapsed() <= REUSE_WITHIN).then_some(secs)
    })
}

/// One measured piece of work.
#[derive(Debug)]
pub struct Measured<T> {
    /// What the work returned.
    pub value: T,
    /// When the work started.
    pub start: Instant,
    /// When it ended.
    pub end: Instant,
    /// CPU seconds the calling thread spent in the work.
    pub cpu_secs: f64,
    /// Host speed around it: [`NOMINAL_SECS`] over the mean of the
    /// kernel runs right before and right after.
    pub scale: f64,
}

impl<T> Measured<T> {
    /// Wall seconds of the work.
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// CPU seconds of the work at nominal host speed.
    pub fn scaled_secs(&self) -> f64 {
        self.cpu_secs * self.scale
    }
}

/// Run `work` between two kernel runs on this thread (the first is the
/// previous call's second when that ended just now) and return it with
/// its CPU time and host speed. Work done on other threads is not
/// counted.
pub fn measure<T>(work: impl FnOnce() -> T) -> Measured<T> {
    let before = recent_run().unwrap_or_else(kernel_run);
    let start = Instant::now();
    let cpu_start = thread_cpu_secs();
    let value = work();
    let cpu_secs = thread_cpu_secs() - cpu_start;
    let end = Instant::now();
    let after = kernel_run();
    Measured {
        value,
        start,
        end,
        cpu_secs,
        scale: NOMINAL_SECS * 2.0 / (before + after),
    }
}
