//! Figure 4: redundant-kernel simulation cycles under the three global
//! kernel schedulers, normalized to the unconstrained default.

use higpu_core::diversity::{analyze, DiversityRequirements};
use higpu_core::metrics::redundant_kernel_cycles;
use higpu_core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::{RedundantSession, SessionError, Workload};

/// One benchmark's Figure-4 measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Cycles under the default scheduler (redundant, uncontrolled).
    pub default_cycles: u64,
    /// Cycles under HALF.
    pub half_cycles: u64,
    /// Cycles under SRRS.
    pub srrs_cycles: u64,
    /// Diversity verdicts per policy (Default typically violates).
    pub diverse: [bool; 3],
}

impl Fig4Row {
    /// HALF cycles normalized to the default scheduler.
    pub fn half_norm(&self) -> f64 {
        self.half_cycles as f64 / self.default_cycles as f64
    }

    /// SRRS cycles normalized to the default scheduler.
    pub fn srrs_norm(&self) -> f64 {
        self.srrs_cycles as f64 / self.default_cycles as f64
    }
}

/// Runs one benchmark redundantly under `mode`; returns the Fig. 4 metric
/// and the diversity verdict.
///
/// # Errors
///
/// Propagates [`SessionError`] from the benchmark.
pub fn measure(
    cfg: &GpuConfig,
    bench: &dyn Workload,
    mode: RedundancyMode,
) -> Result<(u64, bool), SessionError> {
    let mut gpu = Gpu::new(cfg.clone());
    {
        let mut exec = RedundantExecutor::new(&mut gpu, mode).map_err(SessionError::Redundancy)?;
        let mut session = RedundantSession::new(&mut exec);
        bench.run(&mut session)?;
    }
    let cycles = redundant_kernel_cycles(gpu.trace())
        .expect("all redundant kernels completed after a successful run");
    let diverse = analyze(gpu.trace(), DiversityRequirements::default()).is_diverse();
    Ok((cycles, diverse))
}

/// Measures one benchmark under all three policies.
///
/// # Errors
///
/// Propagates [`SessionError`] from any run.
pub fn run_benchmark(cfg: &GpuConfig, bench: &dyn Workload) -> Result<Fig4Row, SessionError> {
    let n = cfg.num_sms;
    let (default_cycles, d0) = measure(cfg, bench, RedundancyMode::uncontrolled())?;
    let (half_cycles, d1) = measure(cfg, bench, RedundancyMode::Half)?;
    let (srrs_cycles, d2) = measure(cfg, bench, RedundancyMode::srrs_default(n))?;
    Ok(Fig4Row {
        benchmark: bench.name().to_string(),
        default_cycles,
        half_cycles,
        srrs_cycles,
        diverse: [d0, d1, d2],
    })
}

/// Runs the full Figure-4 experiment over the paper's benchmark subset.
///
/// # Errors
///
/// Propagates [`SessionError`] from any run.
pub fn run_all(cfg: &GpuConfig) -> Result<Vec<Fig4Row>, SessionError> {
    higpu_rodinia::fig4_benchmarks()
        .iter()
        .map(|b| run_benchmark(cfg, b.as_ref()))
        .collect()
}

/// Renders rows in the shape of the paper's figure.
pub fn to_table(rows: &[Fig4Row]) -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "benchmark".to_string(),
        "GPGPU-SIM".to_string(),
        "HALF".to_string(),
        "SRRS".to_string(),
        "HALF_cycles".to_string(),
        "SRRS_cycles".to_string(),
        "diverse(HALF)".to_string(),
        "diverse(SRRS)".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.benchmark.clone(),
            "1.00".to_string(),
            format!("{:.2}", r.half_norm()),
            format!("{:.2}", r.srrs_norm()),
            r.half_cycles.to_string(),
            r.srrs_cycles.to_string(),
            r.diverse[1].to_string(),
            r.diverse[2].to_string(),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_rodinia::nn::Nn;

    #[test]
    fn policies_measured_and_diverse() {
        let cfg = GpuConfig::paper_6sm();
        let nn = Nn {
            records: 512,
            ..Default::default()
        };
        let row = run_benchmark(&cfg, &nn).expect("runs");
        assert!(row.default_cycles > 0);
        assert!(row.diverse[1], "HALF must be diverse");
        assert!(row.diverse[2], "SRRS must be diverse");
        assert!(row.half_norm() > 0.5 && row.half_norm() < 4.0);
        assert!(row.srrs_norm() > 0.5 && row.srrs_norm() < 4.0);
    }
}
