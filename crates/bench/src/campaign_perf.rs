//! Campaign-engine throughput measurement: serial reference vs. the
//! parallel worker-pool engine, with the determinism contract enforced on
//! every run (the parallel report must be bit-identical to the serial one).
//!
//! Shared by the `campaign_throughput` bench and the `bench_json` binary
//! that records `BENCH_campaign.json` for longitudinal tracking.

use higpu_core::redundancy::{RedundancyError, RedundancyMode};
use higpu_faults::campaign::{
    draw_models, ftti_deadline, run_campaign_serial, run_campaign_with_perf, CampaignConfig,
    CampaignPerf, CampaignReport, CampaignRunner, FaultSpec, TrialOutcome,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig, ReferenceRun};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::{CampaignWorkload, IteratedFma, RedundantWorkload};
use higpu_workloads::Scale;
use std::time::Instant;

/// Parameters of one throughput measurement.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Trials per engine run.
    pub trials: u32,
    /// Campaign seed (results are asserted identical across engines).
    pub seed: u64,
    /// Worker counts to sweep for the parallel engine.
    pub worker_counts: Vec<usize>,
    /// Fault family injected.
    pub spec: FaultSpec,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 0xC0FFEE,
            worker_counts: vec![1, 2, 4, 8],
            spec: FaultSpec::Transient { duration: 400 },
        }
    }
}

/// The standard benchmark workload (matches the coverage experiments).
pub fn bench_workload() -> IteratedFma {
    IteratedFma {
        n: 512,
        threads_per_block: 64,
        iters: 24,
    }
}

/// One timed engine run.
#[derive(Debug, Clone)]
pub struct EngineSample {
    /// Worker threads (0 marks the serial fresh-device reference engine).
    pub workers: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Campaign trials per wall-clock second.
    pub trials_per_sec: f64,
    /// Simulated dynamic instructions per wall-clock microsecond (MIPS).
    pub sim_mips: f64,
    /// Speedup over the serial reference.
    pub speedup_vs_serial: f64,
}

/// A full serial-vs-parallel sweep.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Workload name.
    pub workload: String,
    /// Fault family label.
    pub fault: &'static str,
    /// Trials per engine run.
    pub trials: u32,
    /// Campaign seed.
    pub seed: u64,
    /// CPUs available to this process.
    pub host_cpus: usize,
    /// The serial fresh-device reference engine.
    pub serial: EngineSample,
    /// The pooled engine at each requested worker count.
    pub parallel: Vec<EngineSample>,
    /// The (identical) campaign report, for context.
    pub report: CampaignReport,
    /// Simulation cost per engine run (identical across engines).
    pub perf: CampaignPerf,
}

impl ThroughputResult {
    /// The best parallel sample by speedup.
    pub fn best(&self) -> &EngineSample {
        self.parallel
            .iter()
            .max_by(|a, b| {
                a.speedup_vs_serial
                    .partial_cmp(&b.speedup_vs_serial)
                    .expect("finite speedups")
            })
            .unwrap_or(&self.serial)
    }

    /// Renders the result as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_with_extra(&[])
    }

    /// Renders the JSON document with extra top-level `(key, json-value)`
    /// sections appended — e.g. the campaign matrix
    /// (`higpu_bench::matrix::bench_document`).
    pub fn to_json_with_extra(&self, extra: &[(&str, &str)]) -> String {
        let sample = |s: &EngineSample| {
            format!(
                "{{\"workers\": {}, \"seconds\": {:.4}, \"trials_per_sec\": {:.2}, \
                 \"sim_mips\": {:.2}, \"speedup_vs_serial\": {:.3}}}",
                s.workers, s.seconds, s.trials_per_sec, s.sim_mips, s.speedup_vs_serial
            )
        };
        let parallel: Vec<String> = self.parallel.iter().map(&sample).collect();
        let best = self.best();
        let extra: String = extra
            .iter()
            .map(|(key, value)| format!(",\n  \"{key}\": {value}"))
            .collect();
        format!(
            "{{\n  \"bench\": \"campaign_throughput\",\n  \"workload\": \"{}\",\n  \
             \"fault\": \"{}\",\n  \"trials\": {},\n  \"seed\": {},\n  \"host_cpus\": {},\n  \
             \"sim_instructions_per_run\": {},\n  \"sim_cycles_per_run\": {},\n  \
             \"serial\": {},\n  \"parallel\": [\n    {}\n  ],\n  \
             \"best\": {{\"workers\": {}, \"speedup_vs_serial\": {:.3}}},\n  \
             \"report\": {{\"not_activated\": {}, \"masked\": {}, \"detected\": {}, \
             \"corrected\": {}, \"undetected\": {}}}{}\n}}\n",
            self.workload,
            self.fault,
            self.trials,
            self.seed,
            self.host_cpus,
            self.perf.sim_instructions,
            self.perf.sim_cycles,
            sample(&self.serial),
            parallel.join(",\n    "),
            best.workers,
            best.speedup_vs_serial,
            self.report.not_activated,
            self.report.masked,
            self.report.detected,
            self.report.corrected,
            self.report.undetected,
            extra,
        )
    }

    /// Renders a human-readable summary table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign_throughput: {} trials of {} on {} ({} CPUs)\n",
            self.trials, self.fault, self.workload, self.host_cpus
        ));
        out.push_str(&format!(
            "  serial (fresh device/trial): {:8.2} trials/s  {:8.2} sim-MIPS\n",
            self.serial.trials_per_sec, self.serial.sim_mips
        ));
        for s in &self.parallel {
            out.push_str(&format!(
                "  pooled  {:2} worker(s):        {:8.2} trials/s  {:8.2} sim-MIPS  {:5.2}x\n",
                s.workers, s.trials_per_sec, s.sim_mips, s.speedup_vs_serial
            ));
        }
        out
    }
}

/// Runs the sweep: one serial reference run, then the pooled engine per
/// worker count, asserting all reports bit-identical.
///
/// # Errors
///
/// Propagates campaign errors.
///
/// # Panics
///
/// Panics if any engine run produces a report differing from the serial
/// reference — that would be a determinism bug, not a measurement.
pub fn measure(cfg: &ThroughputConfig) -> Result<ThroughputResult, RedundancyError> {
    let workload = bench_workload();
    let mode = RedundancyMode::srrs_default(6);
    let campaign = CampaignConfig {
        trials: cfg.trials,
        seed: cfg.seed,
        ..CampaignConfig::default()
    };

    let t0 = Instant::now();
    let serial_report = run_campaign_serial(&campaign, &mode, cfg.spec, &workload)?;
    let serial_secs = t0.elapsed().as_secs_f64();

    let mut perf = CampaignPerf::default();
    let mut parallel = Vec::new();
    for &workers in &cfg.worker_counts {
        let mut c = campaign.clone();
        c.workers = workers;
        let t0 = Instant::now();
        let (report, p) = run_campaign_with_perf(&c, &mode, cfg.spec, &workload)?;
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            report, serial_report,
            "determinism violation at {workers} workers"
        );
        perf = p;
        parallel.push(EngineSample {
            workers,
            seconds: secs,
            trials_per_sec: f64::from(cfg.trials) / secs,
            sim_mips: p.sim_instructions as f64 / secs / 1e6,
            speedup_vs_serial: serial_secs / secs,
        });
    }

    let serial = EngineSample {
        workers: 0,
        seconds: serial_secs,
        trials_per_sec: f64::from(cfg.trials) / serial_secs,
        sim_mips: perf.sim_instructions as f64 / serial_secs / 1e6,
        speedup_vs_serial: 1.0,
    };
    Ok(ThroughputResult {
        workload: workload.name().to_string(),
        fault: cfg.spec.label(),
        trials: cfg.trials,
        seed: cfg.seed,
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        serial,
        parallel,
        report: serial_report,
        perf,
    })
}

/// One (workload, arm-cycle distribution) checkpointing measurement: the
/// same trials run from zero and checkpointed, outcomes asserted equal
/// trial by trial.
#[derive(Debug, Clone)]
pub struct CheckpointSample {
    /// Workload name.
    pub workload: String,
    /// Arm-cycle distribution label (`uniform` is the campaign engines'
    /// draw; `late-window` arms every fault in the last 1/16 of the run —
    /// the distribution suffix replay exists for).
    pub distribution: &'static str,
    /// Reference segments recorded for this workload.
    pub reference_segments: usize,
    /// Approximate checkpoint-store footprint in bytes.
    pub reference_bytes: usize,
    /// From-zero trials per wall-clock second.
    pub from_zero_trials_per_sec: f64,
    /// Checkpointed trials per wall-clock second, *including* the one-off
    /// reference recording pass.
    pub checkpointed_trials_per_sec: f64,
    /// `checkpointed / from-zero` throughput ratio.
    pub speedup: f64,
}

/// The checkpointed-campaign throughput sweep recorded under the
/// `checkpointing` key of `BENCH_campaign.json`.
#[derive(Debug, Clone)]
pub struct CheckpointingResult {
    /// Trials per sample.
    pub trials: u32,
    /// Snapshot stride in cycles.
    pub stride: u64,
    /// One sample per (workload, distribution).
    pub samples: Vec<CheckpointSample>,
}

impl CheckpointingResult {
    /// The largest measured speedup across samples.
    pub fn best_speedup(&self) -> f64 {
        self.samples.iter().map(|s| s.speedup).fold(0.0, f64::max)
    }

    /// Renders the JSON value for the `checkpointing` section.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"workload\": \"{}\", \"distribution\": \"{}\", \
                     \"reference_segments\": {}, \"reference_bytes\": {}, \
                     \"from_zero_trials_per_sec\": {:.2}, \
                     \"checkpointed_trials_per_sec\": {:.2}, \"speedup\": {:.2}}}",
                    s.workload,
                    s.distribution,
                    s.reference_segments,
                    s.reference_bytes,
                    s.from_zero_trials_per_sec,
                    s.checkpointed_trials_per_sec,
                    s.speedup,
                )
            })
            .collect();
        format!(
            "{{\"trials\": {}, \"stride\": {}, \"best_speedup\": {:.2}, \
             \"samples\": [\n    {}\n  ]}}",
            self.trials,
            self.stride,
            self.best_speedup(),
            rows.join(",\n    ")
        )
    }

    /// Renders the human-readable speedup table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "checkpointed campaigns ({} trials, stride {}): workload/distribution  \
             from-zero -> checkpointed trials/s (speedup)\n",
            self.trials, self.stride
        ));
        for s in &self.samples {
            out.push_str(&format!(
                "  {:>14}/{:11}: {:8.2} -> {:8.2} ({:.2}x, {} segments, {} KiB)\n",
                s.workload,
                s.distribution,
                s.from_zero_trials_per_sec,
                s.checkpointed_trials_per_sec,
                s.speedup,
                s.reference_segments,
                s.reference_bytes / 1024,
            ));
        }
        out
    }
}

/// Arm-cycle distribution of a checkpointing sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArmDistribution {
    /// The campaign engines' own uniform-in-window draw.
    Uniform,
    /// Every fault arms in the last 1/16 of the fault-free run.
    LateWindow,
}

impl ArmDistribution {
    fn label(self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::LateWindow => "late-window",
        }
    }

    fn models(self, campaign: &CampaignConfig, window_end: u64) -> Vec<FaultModel> {
        match self {
            Self::Uniform => {
                draw_models(campaign, FaultSpec::Transient { duration: 400 }, window_end)
            }
            Self::LateWindow => {
                let lo = window_end.saturating_sub(window_end / 16).max(1);
                (0..campaign.trials)
                    .map(|i| FaultModel::TransientSm {
                        sm: i as usize % campaign.gpu.num_sms,
                        start: lo + u64::from(i) % (window_end.saturating_sub(lo)).max(1),
                        duration: 400,
                        bit: (i % 32) as u8,
                    })
                    .collect()
            }
        }
    }
}

/// Runs `models` through one reusable runner; checkpointed iff `reference`
/// is given. Returns per-trial outcomes and wall-clock seconds.
fn time_trials(
    campaign: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
    models: &[FaultModel],
    deadline: Option<u64>,
    reference: Option<&ReferenceRun>,
) -> Result<(Vec<TrialOutcome>, f64), RedundancyError> {
    let mut runner = CampaignRunner::new(campaign);
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(models.len());
    for &model in models {
        let (outcome, _) = runner.run_trial_observed(mode, workload, model, deadline, reference)?;
        outcomes.push(outcome);
    }
    Ok((outcomes, t0.elapsed().as_secs_f64()))
}

fn measure_checkpoint_sample(
    campaign: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
    distribution: ArmDistribution,
    stride: u64,
) -> Result<CheckpointSample, RedundancyError> {
    // Record once outside the timed regions to derive the window; the
    // checkpointed timing below re-records so the one-off reference cost is
    // charged to the checkpointed engine, not hidden.
    let window_end = record_reference(campaign, mode, workload, stride)?.makespan();
    let deadline = Some(ftti_deadline(window_end, workload.ftti_multiplier()));
    let models = distribution.models(campaign, window_end);

    let (from_zero, zero_secs) = time_trials(campaign, mode, workload, &models, deadline, None)?;
    let t0 = Instant::now();
    let reference = record_reference(campaign, mode, workload, stride)?;
    let (checkpointed, _) = time_trials(
        campaign,
        mode,
        workload,
        &models,
        deadline,
        Some(&reference),
    )?;
    let ck_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        from_zero,
        checkpointed,
        "checkpointed outcomes diverged from from-zero on {} ({})",
        workload.name(),
        distribution.label()
    );

    let trials = models.len() as f64;
    Ok(CheckpointSample {
        workload: workload.name().to_string(),
        distribution: distribution.label(),
        reference_segments: reference.segments(),
        reference_bytes: reference.approx_bytes(),
        from_zero_trials_per_sec: trials / zero_secs,
        checkpointed_trials_per_sec: trials / ck_secs,
        speedup: zero_secs / ck_secs,
    })
}

/// Measures checkpointed-campaign throughput against from-zero execution on
/// the benchmark workload and a long Rodinia workload (`srad`), each under
/// the uniform campaign draw and a late-window arm distribution. Every
/// sample asserts the two engines' per-trial outcomes identical.
///
/// # Errors
///
/// Propagates campaign errors.
///
/// # Panics
///
/// Panics if any checkpointed trial's outcome differs from its from-zero
/// twin — that would be a determinism bug, not a measurement.
pub fn measure_checkpointing(
    trials: u32,
    seed: u64,
) -> Result<CheckpointingResult, RedundancyError> {
    let stride = CheckpointConfig::default().stride;
    let mode = RedundancyMode::srrs_default(6);
    let campaign = CampaignConfig {
        trials,
        seed,
        ..CampaignConfig::default()
    };
    let registry = crate::matrix::full_registry();
    let fma = bench_workload();
    let srad = CampaignWorkload::from_registry(&registry, "srad", Scale::Campaign)
        .expect("srad registered");
    let workloads: [&dyn RedundantWorkload; 2] = [&fma, &srad];

    let mut samples = Vec::new();
    for workload in workloads {
        for distribution in [ArmDistribution::Uniform, ArmDistribution::LateWindow] {
            samples.push(measure_checkpoint_sample(
                &campaign,
                &mode,
                workload,
                distribution,
                stride,
            )?);
        }
    }
    Ok(CheckpointingResult {
        trials,
        stride,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_renders() {
        let cfg = ThroughputConfig {
            trials: 4,
            worker_counts: vec![1, 2],
            ..ThroughputConfig::default()
        };
        let r = measure(&cfg).expect("sweep");
        assert_eq!(r.parallel.len(), 2);
        assert!(r.serial.trials_per_sec > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"campaign_throughput\""));
        assert!(json.contains("\"trials\": 4"));
        assert!(r.to_table().contains("trials/s"));
        assert!(r.best().workers >= 1);
    }

    #[test]
    fn checkpointing_sweep_runs_and_renders() {
        let r = measure_checkpointing(3, 0xC0FFEE).expect("checkpointing sweep");
        assert_eq!(r.samples.len(), 4, "2 workloads x 2 distributions");
        for s in &r.samples {
            assert!(s.reference_segments > 0 && s.reference_bytes > 0);
            assert!(s.from_zero_trials_per_sec > 0.0);
            assert!(s.checkpointed_trials_per_sec > 0.0);
        }
        assert!(r.best_speedup() > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"distribution\": \"late-window\""));
        assert!(json.contains("\"workload\": \"srad\""));
        assert!(r.to_table().contains("checkpointed campaigns"));
    }
}
