//! End-to-end execution time modelling (the paper's Fig. 5 experiment).
//!
//! `Baseline` runs a benchmark once, non-redundantly. `RedundantSerialized`
//! mimics the paper's COTS implementation of SRRS: every kernel is executed
//! twice with serialization (`cudaDeviceSynchronize` between replicas on the
//! real card; the SRRS policy on the simulator — identical timing
//! behaviour, see paper Sec. V-B), inputs are transferred twice, outputs are
//! transferred back twice and compared on the DCLS host.

use crate::meter::{HostMeter, MeteredSession};
use crate::platform::CotsPlatform;
use higpu_core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu_sim::gpu::Gpu;
use higpu_workloads::{
    RedundantSession, Scale, SessionError, SoloSession, Workload, WorkloadRegistry,
};

/// Decomposition of one end-to-end run into cost sources (milliseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Fixed host cost (context init, input preparation) — never duplicated.
    pub fixed_ms: f64,
    /// Device allocations.
    pub alloc_ms: f64,
    /// Host→device transfers.
    pub h2d_ms: f64,
    /// Device→host transfers.
    pub d2h_ms: f64,
    /// Copy/sync API-call overheads.
    pub api_ms: f64,
    /// GPU time (kernels + serial launch dispatch, from the simulator).
    pub gpu_ms: f64,
    /// DCLS host output comparison.
    pub compare_ms: f64,
}

impl TimeBreakdown {
    /// Total end-to-end time.
    pub fn total_ms(&self) -> f64 {
        self.fixed_ms
            + self.alloc_ms
            + self.h2d_ms
            + self.d2h_ms
            + self.api_ms
            + self.gpu_ms
            + self.compare_ms
    }
}

/// Result of one end-to-end measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEndResult {
    /// Benchmark name.
    pub benchmark: String,
    /// `Baseline` or `RedundantSerialized`.
    pub variant: Variant,
    /// Cost breakdown.
    pub breakdown: TimeBreakdown,
    /// Host traffic counters (logical, per replica).
    pub meter: HostMeter,
    /// Device cycles simulated.
    pub gpu_cycles: u64,
}

impl EndToEndResult {
    /// Total end-to-end time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.breakdown.total_ms()
    }
}

/// The measured series: the paper's Fig. 5 pair plus the NMR extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Single, non-redundant execution.
    Baseline,
    /// Redundant execution with serialized kernels (the SRRS mimic,
    /// two replicas).
    RedundantSerialized,
    /// N-modular redundant execution with serialized kernels: N transfers,
    /// N kernels, and an N-way majority vote on the DCLS host — the cost
    /// side of the coverage-vs-cost frontier.
    RedundantNmr {
        /// Replica count (≥ 2).
        replicas: u8,
    },
}

fn breakdown(
    platform: &CotsPlatform,
    meter: HostMeter,
    gpu_cycles: u64,
    replicas: u64,
    compare: bool,
) -> TimeBreakdown {
    let copy_factor = replicas;
    let api_calls = meter.copy_calls * copy_factor + meter.syncs;
    TimeBreakdown {
        fixed_ms: platform.fixed_host_ms,
        alloc_ms: meter.allocs as f64 * replicas as f64 * platform.alloc_us / 1.0e3,
        h2d_ms: platform.transfer_ms(meter.h2d_bytes * copy_factor),
        d2h_ms: platform.transfer_ms(meter.d2h_bytes * copy_factor),
        api_ms: api_calls as f64 * platform.api_call_us / 1.0e3,
        gpu_ms: platform.cycles_to_ms(gpu_cycles),
        compare_ms: if compare {
            platform.compare_ms(meter.d2h_bytes * copy_factor)
        } else {
            0.0
        },
    }
}

/// Runs `bench` non-redundantly and models its end-to-end time.
///
/// # Errors
///
/// Propagates [`SessionError`] from the benchmark.
pub fn run_baseline(
    platform: &CotsPlatform,
    bench: &dyn Workload,
) -> Result<EndToEndResult, SessionError> {
    let mut gpu = Gpu::new(platform.gpu.clone());
    let (meter, cycles) = {
        let mut solo = SoloSession::new(&mut gpu);
        let mut metered = MeteredSession::new(&mut solo);
        bench.run(&mut metered)?;
        (metered.meter(), 0u64)
    };
    let cycles = gpu.cycle().max(cycles);
    Ok(EndToEndResult {
        benchmark: bench.name().to_string(),
        variant: Variant::Baseline,
        breakdown: breakdown(platform, meter, cycles, 1, false),
        meter,
        gpu_cycles: cycles,
    })
}

/// Runs `bench` redundantly (serialized replicas, as the paper's COTS
/// experiment) and models its end-to-end time including double transfers and
/// the host-side comparison.
///
/// # Errors
///
/// Propagates [`SessionError`]; a replica mismatch (impossible without fault
/// injection) is also surfaced as an error.
pub fn run_redundant(
    platform: &CotsPlatform,
    bench: &dyn Workload,
) -> Result<EndToEndResult, SessionError> {
    run_redundant_nmr(platform, bench, 2).map(|mut r| {
        r.variant = Variant::RedundantSerialized;
        r
    })
}

/// Runs `bench` N-modular-redundantly (serialized replicas under SRRS with
/// evenly spread start SMs) and models its end-to-end time including N-fold
/// transfers and the host-side N-way majority vote — the cost curve of the
/// replica-count sweep. At `replicas = 2` this is exactly the paper's
/// redundant-serialized experiment.
///
/// # Errors
///
/// Propagates [`SessionError`]; a replica mismatch (impossible without
/// fault injection) is also surfaced as an error.
pub fn run_redundant_nmr(
    platform: &CotsPlatform,
    bench: &dyn Workload,
    replicas: u8,
) -> Result<EndToEndResult, SessionError> {
    let mut gpu = Gpu::new(platform.gpu.clone());
    let num_sms = platform.gpu.num_sms;
    let meter = {
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_spread(num_sms, replicas))
                .map_err(SessionError::Redundancy)?;
        let mut session = RedundantSession::new(&mut exec);
        let mut metered = MeteredSession::new(&mut session);
        bench.run(&mut metered)?;
        metered.meter()
    };
    let cycles = gpu.cycle();
    Ok(EndToEndResult {
        benchmark: bench.name().to_string(),
        variant: Variant::RedundantNmr { replicas },
        breakdown: breakdown(platform, meter, cycles, u64::from(replicas), true),
        meter,
        gpu_cycles: cycles,
    })
}

/// Both Fig. 5 series for a registry workload: baseline and
/// redundant-serialized end-to-end models of the named workload at `scale`.
/// `None` when the name is not registered.
///
/// # Errors
///
/// Propagates [`SessionError`] from either run.
pub fn run_pair_by_name(
    platform: &CotsPlatform,
    reg: &WorkloadRegistry,
    name: &str,
    scale: Scale,
) -> Option<Result<(EndToEndResult, EndToEndResult), SessionError>> {
    let workload = reg.build(name, scale)?;
    Some(
        run_baseline(platform, &*workload)
            .and_then(|base| run_redundant(platform, &*workload).map(|red| (base, red))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_rodinia::nn::Nn;

    fn nn() -> Nn {
        Nn {
            records: 512,
            ..Default::default()
        }
    }

    #[test]
    fn redundant_costs_more_than_baseline() {
        let platform = CotsPlatform::gtx1050ti();
        let base = run_baseline(&platform, &nn()).expect("baseline");
        let red = run_redundant(&platform, &nn()).expect("redundant");
        assert!(
            red.total_ms() > base.total_ms(),
            "redundancy is never free: {} vs {}",
            red.total_ms(),
            base.total_ms()
        );
    }

    #[test]
    fn short_kernel_overhead_is_small() {
        // nn is launch/copy dominated: redundancy should cost well under 2x.
        let platform = CotsPlatform::gtx1050ti();
        let base = run_baseline(&platform, &nn()).expect("baseline");
        let red = run_redundant(&platform, &nn()).expect("redundant");
        let ratio = red.total_ms() / base.total_ms();
        assert!(ratio < 2.4, "nn end-to-end ratio {ratio} unexpectedly high");
    }

    #[test]
    fn nmr_cost_grows_monotonically_with_replicas() {
        let platform = CotsPlatform::gtx1050ti();
        let two = run_redundant_nmr(&platform, &nn(), 2).expect("dcls");
        let three = run_redundant_nmr(&platform, &nn(), 3).expect("tmr");
        let four = run_redundant_nmr(&platform, &nn(), 4).expect("4mr");
        assert!(three.total_ms() > two.total_ms());
        assert!(four.total_ms() > three.total_ms());
        assert_eq!(three.variant, Variant::RedundantNmr { replicas: 3 });
        // Two-replica NMR is the paper's redundant-serialized experiment.
        let legacy = run_redundant(&platform, &nn()).expect("redundant");
        assert_eq!(legacy.variant, Variant::RedundantSerialized);
        assert_eq!(legacy.breakdown, two.breakdown, "same cost model at N=2");
        assert_eq!(legacy.gpu_cycles, two.gpu_cycles);
    }

    #[test]
    fn breakdown_totals_add_up() {
        let b = TimeBreakdown {
            fixed_ms: 0.5,
            alloc_ms: 1.0,
            h2d_ms: 2.0,
            d2h_ms: 3.0,
            api_ms: 4.0,
            gpu_ms: 5.0,
            compare_ms: 6.0,
        };
        assert!((b.total_ms() - 21.5).abs() < 1e-12);
    }

    #[test]
    fn baseline_has_no_compare_cost() {
        let platform = CotsPlatform::gtx1050ti();
        let base = run_baseline(&platform, &nn()).expect("baseline");
        assert_eq!(base.breakdown.compare_ms, 0.0);
        let red = run_redundant(&platform, &nn()).expect("redundant");
        assert!(red.breakdown.compare_ms > 0.0);
    }

    #[test]
    fn registry_workload_runs_end_to_end_by_name() {
        let platform = CotsPlatform::gtx1050ti();
        let reg = higpu_rodinia::registry();
        let (base, red) = run_pair_by_name(&platform, &reg, "nn", Scale::Campaign)
            .expect("registered")
            .expect("runs");
        assert_eq!(base.benchmark, "nn");
        assert_eq!(red.variant, Variant::RedundantSerialized);
        assert!(red.total_ms() > base.total_ms());
        assert!(run_pair_by_name(&platform, &reg, "no_such", Scale::Full).is_none());
    }
}
