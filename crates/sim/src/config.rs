//! Hardware configuration of the simulated GPU.
//!
//! The default configuration ([`GpuConfig::paper_6sm`]) mirrors the setup of
//! the DATE 2019 evaluation: a 6-SM GPU comparable to the GPGPU-Sim model and
//! to the GTX 1050 Ti used for the COTS experiment (same SM count).

/// Warp scheduling policy of the SM-internal schedulers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WarpSchedPolicy {
    /// Greedy-then-oldest: keep issuing the same warp while it is ready,
    /// fall back to the oldest ready warp (GPGPU-Sim's GTO, the default).
    #[default]
    Gto,
    /// Loose round-robin: rotate over ready warps for fairness.
    Lrr,
}

/// Timing parameters (in GPU core cycles) for the execution pipelines and
/// memory hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// Latency of simple integer/float ALU operations.
    pub alu_latency: u32,
    /// Latency of special-function-unit operations (sqrt, exp, log, rcp,
    /// and floating-point division, which issues to the SFU).
    pub sfu_latency: u32,
    /// L1 data cache hit latency.
    pub l1_hit_latency: u32,
    /// Additional latency of an L2 hit (on top of the L1 path).
    pub l2_hit_latency: u32,
    /// Additional latency of a DRAM access (on top of the L2 path).
    pub dram_latency: u32,
    /// Shared-memory access latency.
    pub shared_latency: u32,
    /// Cycles a DRAM channel is occupied by one 32-byte transaction
    /// (inverse bandwidth).
    pub dram_service_cycles: u32,
    /// Latency of an atomic read-modify-write performed at the L2.
    pub atomic_latency: u32,
    /// Cycles to release a block-wide barrier once the last warp arrives.
    pub barrier_latency: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            alu_latency: 4,
            sfu_latency: 16,
            l1_hit_latency: 28,
            l2_hit_latency: 120,
            dram_latency: 220,
            shared_latency: 24,
            dram_service_cycles: 2,
            atomic_latency: 140,
            barrier_latency: 2,
        }
    }
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line_bytes
    }
}

/// DRAM subsystem configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independent channels (each with its own service queue).
    pub channels: usize,
    /// Address interleaving granularity in bytes.
    pub interleave_bytes: usize,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 4,
            interleave_bytes: 256,
        }
    }
}

/// Full configuration of the simulated GPU device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (fixed at 32 in all presets).
    pub warp_size: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// 32-bit registers per SM shared by all resident threads.
    pub registers_per_sm: usize,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: usize,
    /// Warp schedulers per SM (instructions issued per SM per cycle).
    pub schedulers_per_sm: usize,
    /// Warp scheduling policy within each SM.
    pub warp_scheduler: WarpSchedPolicy,
    /// Size of the device global memory in bytes.
    pub global_mem_bytes: usize,
    /// Cycles between consecutive kernel arrivals at the GPU front-end
    /// (host dispatch is intrinsically serial; see paper Sec. IV-A).
    pub dispatch_gap_cycles: u64,
    /// Core clock in GHz, used only to convert cycles to wall time in
    /// end-to-end (COTS) models.
    pub clock_ghz: f64,
    /// Pipeline and memory timing.
    pub timing: TimingConfig,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Shared L2 cache.
    pub l2: CacheConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// Telemetry event-ring capacity: `Some(n)` preallocates an `n`-event
    /// [`higpu_telemetry::EventRing`] the device records kernel/block
    /// lifecycle, snapshot/restore, fault and quarantine events into (see
    /// [`crate::gpu::Gpu::telemetry_events`]). `None` — the default in
    /// every preset — records nothing and reduces each hook to a branch;
    /// recording is observationally invisible either way (fenced by
    /// `tests/telemetry_fence.rs` at the workspace root).
    pub telemetry_capacity: Option<usize>,
}

impl GpuConfig {
    /// The 6-SM configuration used throughout the paper's evaluation
    /// (GPGPU-Sim model and GTX 1050 Ti both have 6 SMs).
    pub fn paper_6sm() -> Self {
        Self {
            num_sms: 6,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            max_threads_per_sm: 1536,
            registers_per_sm: 32 * 1024,
            shared_mem_per_sm: 48 * 1024,
            schedulers_per_sm: 2,
            warp_scheduler: WarpSchedPolicy::Gto,
            global_mem_bytes: 64 * 1024 * 1024,
            dispatch_gap_cycles: 7000, // ~5 us at 1.4 GHz
            clock_ghz: 1.4,
            timing: TimingConfig::default(),
            l1: CacheConfig {
                sets: 32,
                ways: 4,
                line_bytes: 128,
            },
            l2: CacheConfig {
                sets: 512,
                ways: 8,
                line_bytes: 128,
            },
            dram: DramConfig::default(),
            telemetry_capacity: None,
        }
    }

    /// A wider 10-SM device: the paper's per-SM microarchitecture scaled to
    /// more SMs, used by N ≥ 5 redundancy experiments (5MR needs at least
    /// one SM per replica under SLICE, and five pairwise-distinct SRRS
    /// start SMs are roomier on ten SMs than six).
    pub fn wide_10sm() -> Self {
        Self {
            num_sms: 10,
            ..Self::paper_6sm()
        }
    }

    /// A tiny 2-SM configuration for unit tests (fast, small residency).
    pub fn tiny_2sm() -> Self {
        Self {
            num_sms: 2,
            max_warps_per_sm: 8,
            max_blocks_per_sm: 4,
            max_threads_per_sm: 256,
            registers_per_sm: 8 * 1024,
            shared_mem_per_sm: 16 * 1024,
            global_mem_bytes: 4 * 1024 * 1024,
            dispatch_gap_cycles: 200,
            ..Self::paper_6sm()
        }
    }

    /// Effective device capacity once `quarantined` SMs have been removed
    /// from service: the SM count admission control and limp-home
    /// re-planning must budget against (never the nominal `num_sms`).
    pub fn effective_sms(&self, quarantined: usize) -> usize {
        self.num_sms.saturating_sub(quarantined)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be non-zero".into());
        }
        if self.warp_size == 0 || self.warp_size > 32 {
            return Err("warp_size must be in 1..=32".into());
        }
        if !self.l1.line_bytes.is_power_of_two() || !self.l2.line_bytes.is_power_of_two() {
            return Err("cache line sizes must be powers of two".into());
        }
        if !self.l1.sets.is_power_of_two() || !self.l2.sets.is_power_of_two() {
            return Err("cache set counts must be powers of two".into());
        }
        if self.dram.channels == 0 {
            return Err("dram.channels must be non-zero".into());
        }
        if self.max_blocks_per_sm == 0 || self.max_warps_per_sm == 0 {
            return Err("per-SM residency limits must be non-zero".into());
        }
        if self.max_warps_per_sm > 64 {
            // The SM warp schedulers track per-block ready sets in a u64
            // bitmask (warp index == bit index).
            return Err("max_warps_per_sm must be at most 64".into());
        }
        if !self.global_mem_bytes.is_multiple_of(4) {
            return Err("global_mem_bytes must be word aligned".into());
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper_6sm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_is_valid_and_has_6_sms() {
        let cfg = GpuConfig::paper_6sm();
        cfg.validate().expect("paper preset must validate");
        assert_eq!(cfg.num_sms, 6);
        assert_eq!(cfg.warp_size, 32);
    }

    #[test]
    fn tiny_preset_is_valid() {
        GpuConfig::tiny_2sm().validate().expect("tiny preset");
    }

    #[test]
    fn wide_preset_is_valid_and_has_10_sms() {
        let cfg = GpuConfig::wide_10sm();
        cfg.validate().expect("wide preset must validate");
        assert_eq!(cfg.num_sms, 10);
        assert_eq!(
            cfg.max_threads_per_sm,
            GpuConfig::paper_6sm().max_threads_per_sm,
            "same per-SM microarchitecture, just more SMs"
        );
    }

    #[test]
    fn effective_capacity_subtracts_quarantined_sms() {
        let cfg = GpuConfig::wide_10sm();
        assert_eq!(cfg.effective_sms(0), 10);
        assert_eq!(cfg.effective_sms(3), 7);
        assert_eq!(cfg.effective_sms(99), 0, "saturates, never underflows");
    }

    #[test]
    fn cache_capacity() {
        let c = CacheConfig {
            sets: 32,
            ways: 4,
            line_bytes: 128,
        };
        assert_eq!(c.capacity(), 16 * 1024);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = GpuConfig::paper_6sm();
        cfg.num_sms = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_6sm();
        cfg.l1.line_bytes = 96;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_6sm();
        cfg.dram.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_6sm();
        cfg.warp_size = 64;
        assert!(cfg.validate().is_err());

        let mut cfg = GpuConfig::paper_6sm();
        cfg.max_warps_per_sm = 65;
        assert!(cfg.validate().is_err(), "ready masks are 64 bits wide");
    }
}
