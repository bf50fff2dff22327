//! Aggregate simulation statistics.

use crate::mem::system::MemoryStats;
use crate::sm::SmStats;

/// Counters accumulated over a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Last simulated cycle.
    pub cycles: u64,
    /// Dynamic warp instructions issued across all SMs.
    pub instructions: u64,
    /// Per-SM counters.
    pub per_sm: Vec<SmStats>,
    /// Memory hierarchy counters.
    pub memory: MemoryStats,
    /// Out-of-bounds accesses observed (0 for correct, fault-free runs).
    pub oob_accesses: u64,
    /// Kernels that completed every block since the last reset (an empty
    /// grid completes at launch). A cancelled kernel never counts, and a
    /// cancellation leaves the kernels completed before it counted. Device
    /// snapshots carry the count, so a restore rewinds it.
    pub kernels_completed: u64,
    /// Thread blocks completed.
    pub blocks_completed: u64,
}

impl SimStats {
    /// Fraction of SM-cycles spent issuing, averaged over SMs; 0 when no
    /// cycles have elapsed.
    pub fn sm_utilization(&self) -> f64 {
        if self.cycles == 0 || self.per_sm.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.per_sm.iter().map(|s| s.busy_cycles).sum();
        busy as f64 / (self.cycles as f64 * self.per_sm.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_handles_empty() {
        let s = SimStats::default();
        assert_eq!(s.sm_utilization(), 0.0);
    }

    #[test]
    fn utilization_averages_over_sms() {
        let s = SimStats {
            cycles: 100,
            per_sm: vec![
                SmStats {
                    busy_cycles: 50,
                    ..Default::default()
                },
                SmStats {
                    busy_cycles: 100,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert!((s.sm_utilization() - 0.75).abs() < 1e-12);
    }
}
