//! Figure 5: end-to-end execution time on the COTS platform model,
//! baseline vs redundant-serialized.

use higpu_cots::{run_baseline, run_redundant, CotsPlatform};
use higpu_workloads::{SessionError, Workload};

/// One benchmark's Figure-5 measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline end-to-end milliseconds.
    pub baseline_ms: f64,
    /// Redundant-serialized end-to-end milliseconds.
    pub redundant_ms: f64,
    /// GPU fraction of the baseline (identifies kernel-dominated
    /// benchmarks — the paper's cfd/streamcluster effect).
    pub baseline_gpu_fraction: f64,
}

impl Fig5Row {
    /// Redundant / baseline ratio.
    pub fn ratio(&self) -> f64 {
        self.redundant_ms / self.baseline_ms
    }
}

/// Measures one benchmark end-to-end under both variants.
///
/// # Errors
///
/// Propagates [`SessionError`] from either run.
pub fn run_benchmark(
    platform: &CotsPlatform,
    bench: &dyn Workload,
) -> Result<Fig5Row, SessionError> {
    let base = run_baseline(platform, bench)?;
    let red = run_redundant(platform, bench)?;
    Ok(Fig5Row {
        benchmark: bench.name().to_string(),
        baseline_ms: base.total_ms(),
        redundant_ms: red.total_ms(),
        baseline_gpu_fraction: base.breakdown.gpu_ms / base.total_ms(),
    })
}

/// Runs the full Figure-5 experiment over every implemented benchmark.
///
/// # Errors
///
/// Propagates [`SessionError`] from any run.
pub fn run_all(platform: &CotsPlatform) -> Result<Vec<Fig5Row>, SessionError> {
    higpu_rodinia::all_benchmarks()
        .iter()
        .map(|b| run_benchmark(platform, b.as_ref()))
        .collect()
}

/// Renders rows in the shape of the paper's figure.
pub fn to_table(rows: &[Fig5Row]) -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "benchmark".to_string(),
        "baseline_ms".to_string(),
        "redundant_ms".to_string(),
        "ratio".to_string(),
        "gpu_fraction".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.benchmark.clone(),
            format!("{:.3}", r.baseline_ms),
            format!("{:.3}", r.redundant_ms),
            format!("{:.2}", r.ratio()),
            format!("{:.2}", r.baseline_gpu_fraction),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_rodinia::nn::Nn;

    #[test]
    fn ratio_is_reasonable_for_short_kernels() {
        let platform = CotsPlatform::gtx1050ti();
        let nn = Nn {
            records: 512,
            ..Default::default()
        };
        let row = run_benchmark(&platform, &nn).expect("runs");
        assert!(row.ratio() > 1.0, "redundancy always costs something");
        assert!(row.ratio() < 2.5, "nn is not kernel-dominated");
    }
}
