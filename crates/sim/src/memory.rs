//! Memory-controller bandwidth and latency model.
//!
//! The paper's system has 8 single-channel controllers at 12.8 GB/s each
//! with 120-cycle zero-load latency (Table 2), and pages interleaved across
//! controllers. We model contention with an interval-level open queueing
//! approximation: within an interval, the average memory latency is the
//! zero-load latency plus an M/M/1-style queueing term in the measured
//! channel utilization. This is what lets the simulator reproduce the
//! second-order effect the paper calls out in Table 1 ("because omnet does
//! not consume memory bandwidth anymore, milc instances have more of it and
//! speed up moderately").

use serde::{Deserialize, Serialize};

/// Interval-level memory latency model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryModel {
    zero_load: f64,
    /// Aggregate bandwidth in lines per cycle.
    bandwidth: f64,
    /// Utilization cap: queueing delay is evaluated at min(ρ, cap) to keep
    /// the feedback loop stable when demand transiently exceeds bandwidth.
    rho_cap: f64,
    /// Current latency estimate (from last interval's utilization).
    latency: f64,
    /// Accesses observed in the current interval.
    interval_accesses: u64,
}

impl MemoryModel {
    /// Creates a model with the given zero-load latency (cycles) and
    /// aggregate bandwidth (lines/cycle).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    pub fn new(zero_load: f64, bandwidth: f64) -> Self {
        assert!(
            zero_load > 0.0 && bandwidth > 0.0,
            "invalid memory parameters"
        );
        MemoryModel {
            zero_load,
            bandwidth,
            rho_cap: 0.95,
            latency: zero_load,
            interval_accesses: 0,
        }
    }

    /// Records one memory access (an LLC miss) in the current interval and
    /// returns the current latency estimate in cycles (excluding NoC).
    #[inline]
    pub fn access(&mut self) -> f64 {
        self.interval_accesses += 1;
        self.latency
    }

    /// Current latency estimate without recording an access.
    pub fn current_latency(&self) -> f64 {
        self.latency
    }

    /// Ends an interval of `cycles` cycles: computes utilization and updates
    /// the latency estimate for the next interval.
    ///
    /// Returns the interval's utilization ρ (before capping).
    pub fn end_interval(&mut self, cycles: u64) -> f64 {
        let rho = self.interval_accesses as f64 / (cycles as f64 * self.bandwidth);
        let capped = rho.min(self.rho_cap);
        // M/M/1-flavoured queueing: latency = L0 * (1 + ρ/(1-ρ)), smoothed
        // 50/50 with the previous estimate to damp oscillation.
        let target = self.zero_load * (1.0 + capped / (1.0 - capped));
        self.latency = 0.5 * self.latency + 0.5 * target;
        self.interval_accesses = 0;
        rho
    }

    /// Aggregate bandwidth in lines per cycle.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_memory_stays_at_zero_load() {
        let mut m = MemoryModel::new(120.0, 0.8);
        for _ in 0..10 {
            m.end_interval(1000);
        }
        assert!((m.current_latency() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn latency_rises_with_utilization() {
        let mut low = MemoryModel::new(120.0, 0.8);
        let mut high = MemoryModel::new(120.0, 0.8);
        for _ in 0..20 {
            for _ in 0..100 {
                low.access();
            }
            for _ in 0..700 {
                high.access();
            }
            low.end_interval(1000);
            high.end_interval(1000);
        }
        assert!(high.current_latency() > low.current_latency() * 2.0);
    }

    #[test]
    fn saturation_is_capped() {
        let mut m = MemoryModel::new(120.0, 0.8);
        for _ in 0..50 {
            for _ in 0..5000 {
                m.access();
            }
            let rho = m.end_interval(1000);
            assert!(rho > 1.0, "demand exceeds bandwidth");
        }
        // Capped at rho_cap = 0.95: latency <= 120 * (1 + 0.95/0.05) = 2400.
        assert!(m.current_latency() <= 2400.0 + 1e-9);
        assert!(m.current_latency() > 1000.0);
    }

    #[test]
    fn freeing_bandwidth_reduces_latency() {
        // The Table 1 milc effect: when a co-runner stops missing, latency
        // falls back toward zero-load.
        let mut m = MemoryModel::new(120.0, 0.8);
        for _ in 0..10 {
            for _ in 0..600 {
                m.access();
            }
            m.end_interval(1000);
        }
        let loaded = m.current_latency();
        for _ in 0..20 {
            for _ in 0..100 {
                m.access();
            }
            m.end_interval(1000);
        }
        assert!(m.current_latency() < loaded / 1.5);
    }

    #[test]
    #[should_panic(expected = "invalid memory parameters")]
    fn zero_bandwidth_panics() {
        MemoryModel::new(120.0, 0.0);
    }
}
