//! DRAM device statistics: per-traffic-class byte counts, row-buffer
//! outcomes and utilization — the raw material for the paper's Fig. 10
//! bandwidth-breakdown plot.

use crate::config::DramConfig;
use nomad_types::stats::{gbps, ratio, Counter, RunningMean};
use nomad_types::TrafficClass;
use serde::{Deserialize, Serialize};

/// Bytes transferred on behalf of one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassBytes {
    /// Bytes read.
    pub read: u64,
    /// Bytes written.
    pub written: u64,
}

impl ClassBytes {
    /// Total bytes moved in either direction.
    pub fn total(&self) -> u64 {
        self.read + self.written
    }
}

/// Statistics for one DRAM device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Device name (for display).
    pub name: String,
    /// CPU clock implied by the device's clock ratio, in GHz.
    pub cpu_clock_ghz: f64,
    /// Theoretical peak bandwidth of the device in GB/s.
    pub peak_gbps: f64,
    /// Bytes per traffic class, indexed like [`TrafficClass::ALL`].
    pub class_bytes: [ClassBytes; 6],
    /// Row-buffer hits (CAS issued without a fresh ACT).
    pub row_hits: Counter,
    /// Row-buffer misses (ACT needed).
    pub row_misses: Counter,
    /// Refresh operations performed.
    pub refreshes: Counter,
    /// Read-request service latency in CPU cycles (push → data).
    pub read_latency: RunningMean,
    /// CPU cycles elapsed while stats were live.
    pub cpu_cycles: u64,
    /// Average command-queue occupancy sample sum / count.
    queue_occupancy_sum: u64,
    queue_occupancy_samples: u64,
}

impl DramStats {
    /// Fresh statistics for a device.
    pub fn new(cfg: &DramConfig) -> Self {
        DramStats {
            name: cfg.name.clone(),
            cpu_clock_ghz: cfg.device_clock_ghz * cfg.cpu_per_dev_num as f64
                / cfg.cpu_per_dev_den as f64,
            peak_gbps: cfg.peak_gbps(),
            class_bytes: [ClassBytes::default(); 6],
            row_hits: Counter::default(),
            row_misses: Counter::default(),
            refreshes: Counter::default(),
            read_latency: RunningMean::new(),
            cpu_cycles: 0,
            queue_occupancy_sum: 0,
            queue_occupancy_samples: 0,
        }
    }

    pub(crate) fn note_transfer(&mut self, class: TrafficClass, is_write: bool, bytes: u64) {
        let idx = TrafficClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL");
        if is_write {
            self.class_bytes[idx].written += bytes;
        } else {
            self.class_bytes[idx].read += bytes;
        }
    }

    pub(crate) fn note_row_outcome(&mut self, hit: bool) {
        if hit {
            self.row_hits.inc();
        } else {
            self.row_misses.inc();
        }
    }

    /// Record `samples` command-queue occupancy samples whose depths
    /// sum to `occupancy_sum` — one per (device edge × channel) pair,
    /// taken after the edge's scheduler pass.
    pub(crate) fn sample_queue(&mut self, occupancy_sum: u64, samples: u64) {
        self.queue_occupancy_sum += occupancy_sum;
        self.queue_occupancy_samples += samples;
    }

    /// Bytes moved for `class` (both directions).
    pub fn bytes_for(&self, class: TrafficClass) -> ClassBytes {
        let idx = TrafficClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL");
        self.class_bytes[idx]
    }

    /// Total bytes moved across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.class_bytes.iter().map(ClassBytes::total).sum()
    }

    /// Achieved bandwidth for `class` in GB/s over the measured window.
    pub fn class_gbps(&self, class: TrafficClass) -> f64 {
        gbps(
            self.bytes_for(class).total(),
            self.cpu_cycles,
            self.cpu_clock_ghz,
        )
    }

    /// Total achieved bandwidth in GB/s over the measured window.
    pub fn total_gbps(&self) -> f64 {
        gbps(self.total_bytes(), self.cpu_cycles, self.cpu_clock_ghz)
    }

    /// Row-buffer hit rate over all CAS operations.
    pub fn row_hit_rate(&self) -> f64 {
        ratio(
            self.row_hits.get(),
            self.row_hits.get() + self.row_misses.get(),
        )
    }

    /// Mean command-queue occupancy.
    pub fn mean_queue_occupancy(&self) -> f64 {
        ratio(self.queue_occupancy_sum, self.queue_occupancy_samples)
    }

    /// Utilization of the peak bandwidth in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.peak_gbps == 0.0 {
            0.0
        } else {
            self.total_gbps() / self.peak_gbps
        }
    }

    /// Forget everything measured so far (end of warm-up); the device
    /// name and clock metadata are preserved.
    pub fn reset(&mut self) {
        let name = self.name.clone();
        let cpu_clock = self.cpu_clock_ghz;
        let peak = self.peak_gbps;
        *self = DramStats {
            name,
            cpu_clock_ghz: cpu_clock,
            peak_gbps: peak,
            ..DramStats {
                name: String::new(),
                cpu_clock_ghz: 0.0,
                peak_gbps: 0.0,
                class_bytes: [ClassBytes::default(); 6],
                row_hits: Counter::default(),
                row_misses: Counter::default(),
                refreshes: Counter::default(),
                read_latency: RunningMean::new(),
                cpu_cycles: 0,
                queue_occupancy_sum: 0,
                queue_occupancy_samples: 0,
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_attribution() {
        let mut s = DramStats::new(&DramConfig::hbm());
        s.note_transfer(TrafficClass::Fill, true, 64);
        s.note_transfer(TrafficClass::Fill, false, 64);
        s.note_transfer(TrafficClass::DemandRead, false, 128);
        assert_eq!(s.bytes_for(TrafficClass::Fill).total(), 128);
        assert_eq!(s.bytes_for(TrafficClass::DemandRead).read, 128);
        assert_eq!(s.total_bytes(), 256);
    }

    #[test]
    fn row_hit_rate() {
        let mut s = DramStats::new(&DramConfig::hbm());
        s.note_row_outcome(true);
        s.note_row_outcome(true);
        s.note_row_outcome(false);
        assert!((s.row_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_preserves_metadata() {
        let mut s = DramStats::new(&DramConfig::ddr4_2ch());
        s.note_transfer(TrafficClass::DemandRead, false, 64);
        s.cpu_cycles = 100;
        s.reset();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.cpu_cycles, 0);
        assert_eq!(s.name, "DDR4");
        assert!((s.peak_gbps - 25.6).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_math() {
        let mut s = DramStats::new(&DramConfig::hbm());
        // 3.2 GHz CPU clock; 3200 cycles = 1 µs; 64 KiB in 1 µs ≈ 65.5 GB/s.
        s.note_transfer(TrafficClass::DemandRead, false, 65536);
        s.cpu_cycles = 3200;
        assert!((s.total_gbps() - 65.536).abs() < 1e-9);
    }
}
