//! Figure 3: measurement-based kernel classification
//! (short / heavy / friendly) and the per-kernel policy recommendation of
//! Sec. IV-D.

use higpu_core::classify::{classify, profile, KernelCategory};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::{SessionError, SoloSession, Workload};
use std::collections::BTreeMap;

/// Classification of one kernel of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Kernel (program) name.
    pub kernel: String,
    /// Mean per-launch execution (cycles) — the classification input.
    pub mean_exec_cycles: u64,
    /// Longest single execution observed (cycles).
    pub max_exec_cycles: u64,
    /// Fraction of the GPU's concurrent block capacity demanded.
    pub demand_fraction: f64,
    /// Measured category.
    pub category: KernelCategory,
    /// Launches of this kernel observed in the solo run.
    pub launches: u32,
}

/// Profiles every distinct kernel of `bench` from one solo run and
/// classifies it.
///
/// # Errors
///
/// Propagates [`SessionError`] from the run.
pub fn classify_benchmark(
    cfg: &GpuConfig,
    bench: &dyn Workload,
) -> Result<Vec<Fig3Row>, SessionError> {
    let mut gpu = Gpu::new(cfg.clone());
    {
        let mut session = SoloSession::new(&mut gpu);
        bench.run(&mut session)?;
    }
    // program name → (total exec, max exec, blocks, footprint, launches)
    let mut per_kernel: BTreeMap<String, (u64, u64, u32, higpu_sim::kernel::BlockFootprint, u32)> =
        BTreeMap::new();
    for k in &gpu.trace().kernels {
        let exec = k.execution_cycles().unwrap_or(0);
        let e = per_kernel
            .entry(k.program.clone())
            .or_insert((0, 0, k.blocks, k.footprint, 0));
        e.0 += exec;
        e.1 = e.1.max(exec);
        e.2 = e.2.max(k.blocks);
        e.4 += 1;
    }
    Ok(per_kernel
        .into_iter()
        .map(|(kernel, (total, max_exec, blocks, fp, launches))| {
            let mean = total / u64::from(launches.max(1));
            let p = profile(cfg, &fp, blocks, mean);
            Fig3Row {
                benchmark: bench.name().to_string(),
                kernel,
                mean_exec_cycles: mean,
                max_exec_cycles: max_exec,
                demand_fraction: p.demand_fraction(),
                category: classify(&p, cfg.dispatch_gap_cycles),
                launches,
            }
        })
        .collect())
}

/// The policy the paper would deploy for this benchmark: SRRS unless every
/// dominant kernel is friendly (Sec. IV-D applies the per-kernel
/// recommendation; for the benchmark granularity we follow the
/// longest-running kernel).
pub fn recommended_policy(rows: &[Fig3Row]) -> higpu_core::policy::PolicyKind {
    rows.iter()
        .max_by_key(|r| r.max_exec_cycles)
        .map(|r| r.category.recommended_policy())
        .unwrap_or(higpu_core::policy::PolicyKind::Srrs)
}

/// Renders classification rows.
pub fn to_table(rows: &[Fig3Row]) -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "benchmark".to_string(),
        "kernel".to_string(),
        "category".to_string(),
        "mean_exec_cycles".to_string(),
        "demand".to_string(),
        "launches".to_string(),
        "policy".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.benchmark.clone(),
            r.kernel.clone(),
            r.category.to_string(),
            r.mean_exec_cycles.to_string(),
            format!("{:.2}", r.demand_fraction),
            r.launches.to_string(),
            r.category.recommended_policy().label().to_string(),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_rodinia::myocyte::Myocyte;
    use higpu_rodinia::nn::Nn;

    #[test]
    fn nn_is_short() {
        let cfg = GpuConfig::paper_6sm();
        let rows = classify_benchmark(
            &cfg,
            &Nn {
                records: 2048,
                ..Default::default()
            },
        )
        .expect("runs");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].category, KernelCategory::Short, "{rows:?}");
    }

    #[test]
    fn myocyte_is_friendly_and_long() {
        let cfg = GpuConfig::paper_6sm();
        let rows = classify_benchmark(&cfg, &Myocyte::default()).expect("runs");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].category,
            KernelCategory::Friendly,
            "few long blocks: {rows:?}"
        );
        assert!(rows[0].mean_exec_cycles > cfg.dispatch_gap_cycles);
    }
}
