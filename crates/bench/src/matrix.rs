//! The campaign matrix: fault-injection campaigns swept over
//! {workload × fault model × scheduler policy × replica count}, resolved
//! through the unified workload registry — the paper's coverage argument
//! (Fig. 3/4 territory) extended from one synthetic two-replica workload to
//! the full Rodinia suite at N ∈ {2, 3, …} replicas, with the
//! coverage-vs-cost *frontier* (detected/corrected/undetected vs makespan
//! overhead) summarized per (policy, replicas).

use crate::campaign_perf::ThroughputResult;
use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{
    run_campaign_selected_serial, run_campaign_selected_with_telemetry, CampaignConfig,
    CampaignError, CampaignReport, CampaignSpec, CampaignTelemetry, FaultSpec,
};
use higpu_faults::checkpoint::CheckpointConfig;
use higpu_pipeline::campaign::{
    run_pipeline_campaign, run_pipeline_campaign_serial, PipelineCampaignError,
    PipelineCampaignReport, PipelineCampaignSpec,
};
use higpu_pipeline::{full_pipeline_registry, ExecMode};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_telemetry::{CycleHistogram, ProgressLine};
use higpu_workloads::runner::run_solo;
use higpu_workloads::{Scale, WorkloadRegistry};
use std::time::Instant;

/// The registry every sweep resolves workloads from: the synthetic
/// workloads plus all Rodinia benchmarks.
pub fn full_registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    higpu_workloads::synthetic::register(&mut reg);
    higpu_rodinia::register_all(&mut reg);
    reg
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Injection trials per (workload, policy, fault, replicas) cell.
    pub trials: u32,
    /// Campaign seed (each cell is fully reproducible).
    pub seed: u64,
    /// Workload names to sweep; empty = every registered workload.
    pub workloads: Vec<String>,
    /// Scheduler policies to sweep. At each replica count a policy is
    /// realized through [`PolicyKind::for_replicas`]: HALF generalizes to
    /// SLICE above two replicas, the uncontrolled baseline (two-replica
    /// only) is skipped, duplicates are deduplicated.
    pub policies: Vec<PolicyKind>,
    /// Fault families to sweep.
    pub faults: Vec<FaultSpec>,
    /// Pipeline names to sweep over the same {fault × policy × replicas}
    /// axes ([`higpu_pipeline::full_pipeline_registry`] names; empty = no
    /// pipeline cells). Scheduler-misroute faults classify through the
    /// inter-stage BIST + diversity monitor, exactly like workload cells.
    pub pipelines: Vec<String>,
    /// Trials per pipeline cell (`None` = [`MatrixConfig::trials`]).
    /// Transient faults activate in only a fraction of frames (the window
    /// is small against a whole frame), so demonstrating in-FTTI recovery
    /// in the artifact wants a few more trials than the workload cells.
    pub pipeline_trials: Option<u32>,
    /// Frame executors to sweep per pipeline cell. The default runs both,
    /// so every cell pair quantifies the serial-vs-overlapped makespan
    /// speedup ([`MatrixResult::pipeline_speedups`]).
    pub pipeline_exec: Vec<ExecMode>,
    /// Replica counts to sweep (the NMR axis; 2 = the paper's DCLS).
    pub replica_counts: Vec<u8>,
    /// Input scale built per workload.
    pub scale: Scale,
    /// Worker threads per campaign (0 = auto; see
    /// [`CampaignConfig::resolved_workers`]).
    pub workers: usize,
    /// Also run the serial reference engine per cell and assert the
    /// parallel report bit-identical (slower; the determinism fence).
    pub check_serial: bool,
    /// Replica counts swept *additionally* on the wide 10-SM device for
    /// the workload axis (empty = no wide cells). The paper-sized 6-SM
    /// device cannot give five replicas useful slices; the wide device
    /// puts the 5MR frontier row in the artifact. Wide cells carry their
    /// own solo-makespan denominators
    /// ([`MatrixResult::wide_solo_makespans`]).
    pub wide_replica_counts: Vec<u8>,
    /// Trials per wide-device cell (`None` = half of
    /// [`MatrixConfig::trials`], rounded up — the wide rows are frontier
    /// context, not the headline coverage claim).
    pub wide_trials: Option<u32>,
    /// Frames per limp-home mission cell (≤ 1 = no limp cells). With
    /// [`MatrixConfig::pipelines`] non-empty, each pipeline gains one
    /// multi-frame cell per non-misroute fault family on the wide 10-SM
    /// device (SRRS, N = 2, overlapped): a permanent fault is diagnosed
    /// and quarantined mid-mission and the remaining frames re-plan
    /// around the lost SM ([`higpu_pipeline::limp`]).
    pub limp_frames: u32,
    /// Trials per limp-home cell (`None` = half the pipeline trial
    /// count, rounded up — every trial is a whole multi-frame mission).
    pub limp_trials: Option<u32>,
    /// Render a live progress line (cell granularity) to stderr while the
    /// sweep runs. Wall-clock display only — never feeds any report or
    /// the telemetry document.
    pub progress: bool,
    /// Checkpointed suffix-only replay for the workload campaign cells
    /// (standard and wide device; see `higpu_faults::checkpoint`). Like
    /// `workers`, this must not change any report — sweeping
    /// the matrix with and without and diffing is the checkpointing
    /// determinism cross-check (`campaign_matrix --checkpoint`). Pipeline
    /// and limp-home cells always run from zero (their engines drive
    /// multi-frame missions, not single redundant computations).
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            trials: 6,
            seed: 0x0DD5EED,
            workloads: Vec::new(),
            policies: PolicyKind::all().to_vec(),
            faults: vec![FaultSpec::Transient { duration: 400 }, FaultSpec::Permanent],
            pipelines: Vec::new(),
            pipeline_trials: None,
            pipeline_exec: vec![ExecMode::Overlapped, ExecMode::Serial],
            replica_counts: vec![2, 3],
            scale: Scale::Campaign,
            workers: 0,
            check_serial: false,
            wide_replica_counts: vec![5],
            wide_trials: None,
            limp_frames: 4,
            limp_trials: None,
            progress: false,
            checkpoint: None,
        }
    }
}

/// Cycle-domain observability of one workload campaign cell — the
/// [`CampaignTelemetry`] the campaign engine aggregated, plus the cell's
/// wall time. Kept **outside** [`MatrixResult`]: reports are the
/// determinism fence, telemetry is observation (wall time is inherently
/// non-deterministic; the cycle-domain histograms are bit-identical at
/// every worker count).
#[derive(Debug, Clone)]
pub struct CellTelemetry {
    /// Workload name.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Replica count.
    pub replicas: u8,
    /// Fault family label.
    pub fault: String,
    /// `paper` (6-SM) or `wide` (10-SM) device.
    pub device: &'static str,
    /// The campaign engine's aggregated cycle-domain telemetry.
    pub telemetry: CampaignTelemetry,
    /// Wall time the cell took, in seconds.
    pub wall_seconds: f64,
}

/// Observability sidecar of one matrix sweep: per-cell campaign telemetry
/// (detection-latency / makespan / corrupted-but-terminating histograms)
/// and wall times. Produced by [`run_matrix_with_telemetry`].
#[derive(Debug, Clone, Default)]
pub struct MatrixTelemetry {
    /// One entry per workload campaign cell (standard then wide device),
    /// in sweep order.
    pub cells: Vec<CellTelemetry>,
    /// Wall time of the whole sweep, in seconds.
    pub wall_seconds: f64,
}

impl MatrixTelemetry {
    /// The corrupted-but-terminating makespan histogram per workload,
    /// merged over every cell of that workload — the input to FTTI budget
    /// mining (what multiplier would a p99.9 budget need?).
    pub fn corrupted_terminating_by_workload(&self) -> Vec<(String, CycleHistogram)> {
        let mut out: Vec<(String, CycleHistogram)> = Vec::new();
        for c in &self.cells {
            match out.iter_mut().find(|(n, _)| n == &c.workload) {
                Some((_, h)) => h.merge(&c.telemetry.corrupted_terminating),
                None => out.push((
                    c.workload.clone(),
                    c.telemetry.corrupted_terminating.clone(),
                )),
            }
        }
        out
    }

    /// Renders the telemetry sidecar as a JSON value (the `telemetry`
    /// section of `BENCH_campaign.json`): per-cell detection-latency /
    /// makespan / corrupted-terminating summaries with restore counters
    /// and wall times, plus the per-workload merged
    /// corrupted-but-terminating histograms.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                format!(
                    "{{\"workload\": \"{}\", \"policy\": \"{}\", \"replicas\": {}, \
                     \"fault\": \"{}\", \"device\": \"{}\", \
                     \"detection_latency\": {}, \"trial_makespans\": {}, \
                     \"corrupted_terminating\": {}, \"restores\": {}, \
                     \"restore_skipped_cycles\": {}, \"wall_seconds\": {:.3}}}",
                    c.workload,
                    c.policy,
                    c.replicas,
                    c.fault,
                    c.device,
                    c.telemetry.detection_latency.summary_json(),
                    c.telemetry.makespans.summary_json(),
                    c.telemetry.corrupted_terminating.summary_json(),
                    c.telemetry.restores,
                    c.telemetry.restore_skipped_cycles,
                    c.wall_seconds,
                )
            })
            .collect();
        let by_workload: Vec<String> = self
            .corrupted_terminating_by_workload()
            .iter()
            .map(|(name, h)| {
                format!(
                    "{{\"workload\": \"{name}\", \"corrupted_terminating\": {}}}",
                    h.summary_json()
                )
            })
            .collect();
        format!(
            "{{\n    \"wall_seconds\": {:.3},\n    \"cells\": [\n      {}\n    ],\n    \
             \"corrupted_terminating_by_workload\": [\n      {}\n    ]\n  }}",
            self.wall_seconds,
            cells.join(",\n      "),
            by_workload.join(",\n      "),
        )
    }
}

/// One (policy, replicas) aggregate of the coverage-vs-cost frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Policy label.
    pub policy: String,
    /// Replica count.
    pub replicas: u8,
    /// Cells aggregated.
    pub cells: u32,
    /// Summed detected trials.
    pub detected: u32,
    /// Summed corrected trials.
    pub corrected: u32,
    /// Summed undetected failures.
    pub undetected: u32,
    /// Mean redundant fault-free makespan over the workloads' solo
    /// makespans (the cost of the redundancy level; ≥ replicas for
    /// serializing policies, < replicas for concurrent ones).
    pub mean_makespan_overhead: f64,
}

/// The serial-vs-overlapped comparison of one pipeline cell pair: what the
/// concurrent frame executor buys at equal redundancy.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpeedup {
    /// Pipeline name.
    pub pipeline: String,
    /// Policy label.
    pub policy: String,
    /// Replica count.
    pub replicas: u8,
    /// Fault-free frame makespan under the serial executor.
    pub serial_makespan: u64,
    /// Fault-free frame makespan under the overlapped executor.
    pub overlapped_makespan: u64,
    /// The critical-path end-to-end FTTI.
    pub critical_path_ftti: u64,
    /// The pre-concurrency per-stage-sum FTTI.
    pub serial_sum_ftti: u64,
}

impl PipelineSpeedup {
    /// Serial over overlapped makespan (> 1 when overlap wins).
    pub fn makespan_speedup(&self) -> f64 {
        if self.overlapped_makespan == 0 {
            0.0
        } else {
            self.serial_makespan as f64 / self.overlapped_makespan as f64
        }
    }

    /// Serial-sum over critical-path FTTI (> 1 when the DAG has parallel
    /// branches).
    pub fn ftti_tightening(&self) -> f64 {
        if self.critical_path_ftti == 0 {
            0.0
        } else {
            self.serial_sum_ftti as f64 / self.critical_path_ftti as f64
        }
    }
}

/// One (pipeline, policy, replicas, exec) aggregate of the
/// fail-operational frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineFrontierPoint {
    /// Pipeline name.
    pub pipeline: String,
    /// Policy label.
    pub policy: String,
    /// Replica count.
    pub replicas: u8,
    /// Frame executor label.
    pub exec: &'static str,
    /// Cells aggregated.
    pub cells: u32,
    /// Summed trials.
    pub trials: u32,
    /// Summed vote-corrected frames.
    pub corrected: u32,
    /// Summed re-execution-recovered frames (fail-operational).
    pub recovered: u32,
    /// Summed fail-stop frames.
    pub detected: u32,
    /// Summed undetected failures.
    pub undetected: u32,
    /// Summed end-to-end deadline misses.
    pub deadline_miss: u32,
}

impl PipelineFrontierPoint {
    /// Recovered frames over all frames the mechanism acted on.
    pub fn recovery_rate(&self) -> Option<f64> {
        let acted = self.recovered + self.detected;
        if acted == 0 {
            None
        } else {
            Some(f64::from(self.recovered) / f64::from(acted))
        }
    }
}

/// Results of one sweep. `PartialEq` is the whole-artifact determinism
/// cross-check: two sweeps on different simulator cores must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Trials per cell.
    pub trials: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Scale label (`campaign` / `full`).
    pub scale: &'static str,
    /// Replica counts swept.
    pub replica_counts: Vec<u8>,
    /// Fault-free **solo** (non-redundant) makespan per swept workload —
    /// the denominator of every cell's makespan overhead.
    pub solo_makespans: Vec<(String, u64)>,
    /// One report per (workload, replicas, policy, fault) cell, in sweep
    /// order.
    pub reports: Vec<CampaignReport>,
    /// One report per (pipeline, replicas, policy, fault) cell, in sweep
    /// order (empty unless [`MatrixConfig::pipelines`] named any).
    pub pipeline_reports: Vec<PipelineCampaignReport>,
    /// Replica counts swept on the wide 10-SM device (the 5MR rows).
    pub wide_replica_counts: Vec<u8>,
    /// Fault-free solo makespans measured on the wide device — the
    /// denominators of the wide cells' overheads (the 10-SM device runs a
    /// solo workload faster, so the 6-SM solos would overstate cost).
    pub wide_solo_makespans: Vec<(String, u64)>,
    /// One report per wide-device (workload, replicas, policy, fault)
    /// cell, in sweep order.
    pub wide_reports: Vec<CampaignReport>,
    /// Frames per limp-home mission cell (1 = none ran).
    pub limp_frames: u32,
    /// One report per limp-home (pipeline, fault) mission cell on the
    /// wide device (SRRS, N = 2, overlapped executor).
    pub limp_reports: Vec<PipelineCampaignReport>,
}

impl MatrixResult {
    /// Total undetected failures across cells whose policy guarantees
    /// diversity (the paper's ASIL-D claim requires this to be 0 — at
    /// every replica count).
    pub fn undetected_under_diverse_policies(&self) -> u32 {
        let diverse_labels: Vec<&str> = PolicyKind::all_extended()
            .into_iter()
            .filter(|p| p.guarantees_diversity())
            .map(PolicyKind::label)
            .collect();
        self.reports
            .iter()
            .chain(&self.wide_reports)
            .filter(|r| diverse_labels.contains(&r.policy.as_str()))
            .map(|r| r.undetected)
            .sum()
    }

    /// Total corrected trials across all cells (non-zero only when the
    /// sweep includes N ≥ 3 replica counts).
    pub fn total_corrected(&self) -> u32 {
        self.reports.iter().map(|r| r.corrected).sum()
    }

    /// Total pipeline frames recovered by in-FTTI re-execution.
    pub fn total_recovered(&self) -> u32 {
        self.pipeline_reports.iter().map(|r| r.recovered).sum()
    }

    /// Undetected failures across pipeline cells under diverse policies
    /// (the fail-operational claim also requires 0 here).
    pub fn pipeline_undetected_under_diverse_policies(&self) -> u32 {
        let diverse_labels: Vec<&str> = PolicyKind::all_extended()
            .into_iter()
            .filter(|p| p.guarantees_diversity())
            .map(PolicyKind::label)
            .collect();
        self.pipeline_reports
            .iter()
            .chain(&self.limp_reports)
            .filter(|r| diverse_labels.contains(&r.policy.as_str()))
            .map(|r| r.undetected)
            .sum()
    }

    /// The solo makespan of `workload`, if it was swept.
    fn solo_makespan(&self, workload: &str) -> Option<u64> {
        self.solo_makespans
            .iter()
            .find(|(n, _)| n == workload)
            .map(|&(_, m)| m)
    }

    /// A cell's makespan overhead: redundant fault-free makespan over the
    /// workload's solo makespan.
    pub fn makespan_overhead(&self, r: &CampaignReport) -> Option<f64> {
        let solo = self.solo_makespan(&r.workload)?;
        (solo > 0).then(|| r.fault_free_makespan as f64 / solo as f64)
    }

    /// A wide-device cell's makespan overhead, against the solo makespan
    /// measured on the *same* (wide) device.
    pub fn wide_makespan_overhead(&self, r: &CampaignReport) -> Option<f64> {
        let solo = self
            .wide_solo_makespans
            .iter()
            .find(|(n, _)| n == &r.workload)
            .map(|&(_, m)| m)?;
        (solo > 0).then(|| r.fault_free_makespan as f64 / solo as f64)
    }

    /// The coverage-vs-cost frontier: per (policy, replicas), summed
    /// outcome counts and the mean makespan overhead — the quantitative
    /// form of the ASIL-decomposition trade (more replicas buy correction,
    /// at redundant-makespan cost).
    pub fn frontier(&self) -> Vec<FrontierPoint> {
        let mut points: Vec<FrontierPoint> = Vec::new();
        // Wide cells fold into the same frontier (each against its own
        // device's solo denominator): the 5MR points sit on the same
        // coverage-vs-cost curve as the paper-device ones.
        for r in &self.reports {
            fold_frontier(&mut points, r, self.makespan_overhead(r).unwrap_or(0.0));
        }
        for r in &self.wide_reports {
            fold_frontier(
                &mut points,
                r,
                self.wide_makespan_overhead(r).unwrap_or(0.0),
            );
        }
        for p in &mut points {
            p.mean_makespan_overhead /= f64::from(p.cells.max(1));
        }
        points
    }

    /// Total missions whose permanent fault was diagnosed, quarantined,
    /// and limped around (limp-home cells only).
    pub fn limp_quarantined(&self) -> u32 {
        self.limp_reports.iter().map(|r| r.quarantined).sum()
    }

    /// Total diagnosed missions that then failed to limp home.
    pub fn limp_home_misses(&self) -> u32 {
        self.limp_reports.iter().map(|r| r.limp_home_miss).sum()
    }

    /// Total degraded frames that overran their *re-planned* end-to-end
    /// budget (the recalibrated-FTTI fence: must stay 0).
    pub fn limp_deadline_misses(&self) -> u32 {
        self.limp_reports.iter().map(|r| r.limp_deadline_miss).sum()
    }

    /// Diagnoses reported by limp cells whose fault family is
    /// transient-class — a quarantine without a persistent fault means the
    /// per-SM BIST convicted a healthy SM (the no-false-quarantine fence:
    /// must stay 0).
    pub fn limp_false_quarantines(&self) -> u32 {
        self.limp_reports
            .iter()
            .filter(|r| !persistent_fault_label(r.fault))
            .map(|r| r.quarantined + r.limp_home_miss)
            .sum()
    }

    /// Mean frames from fault arming to quarantine over every diagnosed
    /// mission (`None` until something was diagnosed).
    pub fn limp_mean_frames_to_diagnosis(&self) -> Option<f64> {
        let diagnosed: u32 = self
            .limp_reports
            .iter()
            .map(|r| r.quarantined + r.limp_home_miss)
            .sum();
        let frames: u32 = self
            .limp_reports
            .iter()
            .map(|r| r.frames_to_diagnosis_sum)
            .sum();
        (diagnosed > 0).then(|| f64::from(frames) / f64::from(diagnosed))
    }

    /// Mean post-quarantine makespan inflation over limp cells that ran
    /// degraded frames (`None` until any did).
    pub fn limp_makespan_inflation(&self) -> Option<f64> {
        let inflations: Vec<f64> = self
            .limp_reports
            .iter()
            .filter_map(PipelineCampaignReport::degraded_makespan_inflation)
            .collect();
        (!inflations.is_empty()).then(|| inflations.iter().sum::<f64>() / inflations.len() as f64)
    }

    /// Diagnosed missions that failed to limp home, as a rate (`None`
    /// until something was diagnosed).
    pub fn limp_home_miss_rate(&self) -> Option<f64> {
        let diagnosed = self.limp_quarantined() + self.limp_home_misses();
        (diagnosed > 0).then(|| f64::from(self.limp_home_misses()) / f64::from(diagnosed))
    }

    /// The fail-operational frontier: per (pipeline, policy, replicas,
    /// exec), summed frame outcomes with the recovery rate and end-to-end
    /// deadline-miss rate — the pipeline-axis counterpart of
    /// [`MatrixResult::frontier`].
    pub fn pipeline_frontier(&self) -> Vec<PipelineFrontierPoint> {
        let mut points: Vec<PipelineFrontierPoint> = Vec::new();
        for r in &self.pipeline_reports {
            match points.iter_mut().find(|p| {
                p.pipeline == r.pipeline
                    && p.policy == r.policy
                    && p.replicas == r.replicas
                    && p.exec == r.exec
            }) {
                Some(p) => {
                    p.cells += 1;
                    p.trials += r.trials;
                    p.corrected += r.corrected;
                    p.recovered += r.recovered;
                    p.detected += r.detected;
                    p.undetected += r.undetected;
                    p.deadline_miss += r.deadline_miss;
                }
                None => points.push(PipelineFrontierPoint {
                    pipeline: r.pipeline.clone(),
                    policy: r.policy.clone(),
                    replicas: r.replicas,
                    exec: r.exec,
                    cells: 1,
                    trials: r.trials,
                    corrected: r.corrected,
                    recovered: r.recovered,
                    detected: r.detected,
                    undetected: r.undetected,
                    deadline_miss: r.deadline_miss,
                }),
            }
        }
        points
    }

    /// The serial-vs-overlapped comparison per (pipeline, policy,
    /// replicas) cell pair — what concurrent-branch execution buys: the
    /// fault-free makespan speedup and the critical-path-vs-sum FTTI
    /// tightening. One entry per pair (the fault-free makespans agree
    /// across fault families, so any fault's pair carries the comparison);
    /// empty unless the sweep ran both executors.
    pub fn pipeline_speedups(&self) -> Vec<PipelineSpeedup> {
        let mut out: Vec<PipelineSpeedup> = Vec::new();
        for s in self.pipeline_reports.iter().filter(|r| r.exec == "serial") {
            if out.iter().any(|p| {
                p.pipeline == s.pipeline && p.policy == s.policy && p.replicas == s.replicas
            }) {
                continue;
            }
            let Some(o) = self.pipeline_reports.iter().find(|r| {
                r.exec == "overlapped"
                    && r.pipeline == s.pipeline
                    && r.policy == s.policy
                    && r.replicas == s.replicas
            }) else {
                continue;
            };
            out.push(PipelineSpeedup {
                pipeline: s.pipeline.clone(),
                policy: s.policy.clone(),
                replicas: s.replicas,
                serial_makespan: s.fault_free_makespan,
                overlapped_makespan: o.fault_free_makespan,
                critical_path_ftti: o.e2e_deadline,
                serial_sum_ftti: o.serial_sum_deadline,
            });
        }
        out
    }

    /// Renders the pipeline cells as rows for [`crate::table`].
    pub fn pipeline_table(&self) -> Vec<Vec<String>> {
        let mut out = vec![vec![
            "pipeline".to_string(),
            "policy".to_string(),
            "N".to_string(),
            "exec".to_string(),
            "fault".to_string(),
            "makespan".to_string(),
            "trials".to_string(),
            "inactive".to_string(),
            "masked".to_string(),
            "corrected".to_string(),
            "RECOVERED".to_string(),
            "detected".to_string(),
            "UNDETECTED".to_string(),
            "ddl-miss".to_string(),
            "recovery".to_string(),
            "frames".to_string(),
            "QUAR".to_string(),
            "limp-miss".to_string(),
            "t-diag".to_string(),
            "infl".to_string(),
        ]];
        for r in self.pipeline_reports.iter().chain(&self.limp_reports) {
            out.push(vec![
                r.pipeline.clone(),
                r.policy.clone(),
                r.replicas.to_string(),
                r.exec.to_string(),
                r.fault.to_string(),
                r.fault_free_makespan.to_string(),
                r.trials.to_string(),
                r.not_activated.to_string(),
                r.masked.to_string(),
                r.corrected.to_string(),
                r.recovered.to_string(),
                r.detected.to_string(),
                r.undetected.to_string(),
                r.deadline_miss.to_string(),
                r.recovery_rate()
                    .map_or("n/a".to_string(), |c| format!("{:.0}%", c * 100.0)),
                r.frames.to_string(),
                r.quarantined.to_string(),
                r.limp_home_miss.to_string(),
                r.mean_frames_to_diagnosis()
                    .map_or("n/a".to_string(), |v| format!("{v:.1}")),
                r.degraded_makespan_inflation()
                    .map_or("n/a".to_string(), |v| format!("{v:.2}x")),
            ]);
        }
        out
    }

    /// Renders the matrix as rows for [`crate::table`].
    pub fn to_table(&self) -> Vec<Vec<String>> {
        let mut out = vec![vec![
            "workload".to_string(),
            "policy".to_string(),
            "N".to_string(),
            "fault".to_string(),
            "trials".to_string(),
            "inactive".to_string(),
            "masked".to_string(),
            "detected".to_string(),
            "corrected".to_string(),
            "UNDETECTED".to_string(),
            "coverage".to_string(),
            "overhead".to_string(),
        ]];
        for r in &self.reports {
            out.push(vec![
                r.workload.clone(),
                r.policy.clone(),
                r.replicas.to_string(),
                r.fault.to_string(),
                r.trials.to_string(),
                r.not_activated.to_string(),
                r.masked.to_string(),
                r.detected.to_string(),
                r.corrected.to_string(),
                r.undetected.to_string(),
                r.coverage()
                    .map_or("n/a".to_string(), |c| format!("{:.0}%", c * 100.0)),
                self.makespan_overhead(r)
                    .map_or("n/a".to_string(), |o| format!("{o:.2}x")),
            ]);
        }
        // Wide-device rows (the 5MR frontier input) append after the
        // paper-device sweep; the replica count distinguishes them.
        for r in &self.wide_reports {
            out.push(vec![
                r.workload.clone(),
                r.policy.clone(),
                r.replicas.to_string(),
                r.fault.to_string(),
                r.trials.to_string(),
                r.not_activated.to_string(),
                r.masked.to_string(),
                r.detected.to_string(),
                r.corrected.to_string(),
                r.undetected.to_string(),
                r.coverage()
                    .map_or("n/a".to_string(), |c| format!("{:.0}%", c * 100.0)),
                self.wide_makespan_overhead(r)
                    .map_or("n/a".to_string(), |o| format!("{o:.2}x")),
            ]);
        }
        out
    }

    /// Renders one workload cell as a JSON object (the overhead is
    /// against the solo makespan on the cell's own device).
    fn workload_cell_json(r: &CampaignReport, overhead: Option<f64>) -> String {
        format!(
            "{{\"workload\": \"{}\", \"policy\": \"{}\", \"replicas\": {}, \
             \"fault\": \"{}\", \"trials\": {}, \"not_activated\": {}, \
             \"masked\": {}, \"detected\": {}, \"corrected\": {}, \
             \"undetected\": {}, \"coverage\": {}, \
             \"fault_free_makespan\": {}, \"makespan_overhead\": {}}}",
            r.workload,
            r.policy,
            r.replicas,
            r.fault,
            r.trials,
            r.not_activated,
            r.masked,
            r.detected,
            r.corrected,
            r.undetected,
            r.coverage()
                .map_or("null".to_string(), |c| format!("{c:.4}")),
            r.fault_free_makespan,
            overhead.map_or("null".to_string(), |o| format!("{o:.3}")),
        )
    }

    /// Renders the matrix as a JSON value: sweep metadata, one entry per
    /// cell, and the per-(policy, replicas) coverage-vs-cost frontier.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .reports
            .iter()
            .map(|r| Self::workload_cell_json(r, self.makespan_overhead(r)))
            .collect();
        let wide_cells: Vec<String> = self
            .wide_reports
            .iter()
            .map(|r| Self::workload_cell_json(r, self.wide_makespan_overhead(r)))
            .collect();
        let frontier: Vec<String> = self
            .frontier()
            .iter()
            .map(|p| {
                format!(
                    "{{\"policy\": \"{}\", \"replicas\": {}, \"cells\": {}, \
                     \"detected\": {}, \"corrected\": {}, \"undetected\": {}, \
                     \"mean_makespan_overhead\": {:.3}}}",
                    p.policy,
                    p.replicas,
                    p.cells,
                    p.detected,
                    p.corrected,
                    p.undetected,
                    p.mean_makespan_overhead,
                )
            })
            .collect();
        let pipeline_cells: Vec<String> = self
            .pipeline_reports
            .iter()
            .map(pipeline_cell_json)
            .collect();
        let limp_cells: Vec<String> = self.limp_reports.iter().map(pipeline_cell_json).collect();
        let pipeline_speedups: Vec<String> = self
            .pipeline_speedups()
            .iter()
            .map(|s| {
                format!(
                    "{{\"pipeline\": \"{}\", \"policy\": \"{}\", \"replicas\": {}, \
                     \"serial_makespan\": {}, \
                     \"overlapped_makespan\": {}, \"makespan_speedup\": {:.3}, \
                     \"critical_path_ftti\": {}, \"serial_sum_ftti\": {}, \
                     \"ftti_tightening\": {:.3}}}",
                    s.pipeline,
                    s.policy,
                    s.replicas,
                    s.serial_makespan,
                    s.overlapped_makespan,
                    s.makespan_speedup(),
                    s.critical_path_ftti,
                    s.serial_sum_ftti,
                    s.ftti_tightening(),
                )
            })
            .collect();
        let pipeline_frontier: Vec<String> = self
            .pipeline_frontier()
            .iter()
            .map(|p| {
                format!(
                    "{{\"pipeline\": \"{}\", \"policy\": \"{}\", \"replicas\": {}, \
                     \"exec\": \"{}\", \
                     \"cells\": {}, \"trials\": {}, \"corrected\": {}, \"recovered\": {}, \
                     \"detected\": {}, \"undetected\": {}, \"deadline_miss\": {}, \
                     \"recovery_rate\": {}}}",
                    p.pipeline,
                    p.policy,
                    p.replicas,
                    p.exec,
                    p.cells,
                    p.trials,
                    p.corrected,
                    p.recovered,
                    p.detected,
                    p.undetected,
                    p.deadline_miss,
                    p.recovery_rate()
                        .map_or("null".to_string(), |c| format!("{c:.4}")),
                )
            })
            .collect();
        let replica_counts: Vec<String> = self.replica_counts.iter().map(u8::to_string).collect();
        let wide_replica_counts: Vec<String> =
            self.wide_replica_counts.iter().map(u8::to_string).collect();
        let degraded_mode = format!(
            "{{\n        \"frames\": {},\n        \"quarantined\": {},\n        \
             \"limp_home_miss\": {},\n        \"limp_deadline_miss\": {},\n        \
             \"false_quarantines\": {},\n        \
             \"mean_frames_to_diagnosis\": {},\n        \
             \"post_quarantine_makespan_inflation\": {},\n        \
             \"limp_home_miss_rate\": {},\n        \
             \"cells\": [\n          {}\n        ]\n      }}",
            self.limp_frames,
            self.limp_quarantined(),
            self.limp_home_misses(),
            self.limp_deadline_misses(),
            self.limp_false_quarantines(),
            self.limp_mean_frames_to_diagnosis()
                .map_or("null".to_string(), |v| format!("{v:.2}")),
            self.limp_makespan_inflation()
                .map_or("null".to_string(), |v| format!("{v:.3}")),
            self.limp_home_miss_rate()
                .map_or("null".to_string(), |v| format!("{v:.4}")),
            limp_cells.join(",\n          "),
        );
        format!(
            "{{\n    \"trials_per_cell\": {},\n    \"seed\": {},\n    \"scale\": \"{}\",\n    \
             \"replica_counts\": [{}],\n    \
             \"wide_replica_counts\": [{}],\n    \
             \"undetected_under_diverse_policies\": {},\n    \
             \"total_corrected\": {},\n    \"cells\": [\n      {}\n    ],\n    \
             \"wide_cells\": [\n      {}\n    ],\n    \
             \"frontier\": [\n      {}\n    ],\n    \
             \"pipelines\": {{\n      \
             \"total_recovered\": {},\n      \
             \"undetected_under_diverse_policies\": {},\n      \
             \"cells\": [\n        {}\n      ],\n      \
             \"speedups\": [\n        {}\n      ],\n      \
             \"frontier\": [\n        {}\n      ],\n      \
             \"degraded_mode\": {}\n    }}\n  }}",
            self.trials,
            self.seed,
            self.scale,
            replica_counts.join(", "),
            wide_replica_counts.join(", "),
            self.undetected_under_diverse_policies(),
            self.total_corrected(),
            cells.join(",\n      "),
            wide_cells.join(",\n      "),
            frontier.join(",\n      "),
            self.total_recovered(),
            self.pipeline_undetected_under_diverse_policies(),
            pipeline_cells.join(",\n        "),
            pipeline_speedups.join(",\n        "),
            pipeline_frontier.join(",\n        "),
            degraded_mode,
        )
    }
}

/// Folds one cell into the per-(policy, replicas) frontier accumulator
/// (means are normalized by the caller after the fold).
fn fold_frontier(points: &mut Vec<FrontierPoint>, r: &CampaignReport, overhead: f64) {
    match points
        .iter_mut()
        .find(|p| p.policy == r.policy && p.replicas == r.replicas)
    {
        Some(p) => {
            p.cells += 1;
            p.detected += r.detected;
            p.corrected += r.corrected;
            p.undetected += r.undetected;
            p.mean_makespan_overhead += overhead;
        }
        None => points.push(FrontierPoint {
            policy: r.policy.clone(),
            replicas: r.replicas,
            cells: 1,
            detected: r.detected,
            corrected: r.corrected,
            undetected: r.undetected,
            mean_makespan_overhead: overhead,
        }),
    }
}

/// Renders one pipeline cell (single-frame or limp-home mission) as a
/// JSON object. The degraded-mode fields are zero/null on single-frame
/// cells.
fn pipeline_cell_json(r: &PipelineCampaignReport) -> String {
    format!(
        "{{\"pipeline\": \"{}\", \"policy\": \"{}\", \"replicas\": {}, \
         \"exec\": \"{}\", \"fault\": \"{}\", \"stages\": {}, \"frames\": {}, \
         \"trials\": {}, \
         \"not_activated\": {}, \"masked\": {}, \"corrected\": {}, \
         \"recovered\": {}, \"detected\": {}, \"undetected\": {}, \
         \"quarantined\": {}, \"limp_home_miss\": {}, \"degraded_frames\": {}, \
         \"limp_deadline_miss\": {}, \"frames_to_diagnosis\": {}, \
         \"degraded_makespan_inflation\": {}, \"limp_home_miss_rate\": {}, \
         \"deadline_miss\": {}, \"retries_attempted\": {}, \
         \"retries_failed\": {}, \"no_slack\": {}, \
         \"recovery_rate\": {}, \"deadline_miss_rate\": {:.4}, \
         \"e2e_makespan\": {}, \"critical_path_ftti\": {}, \
         \"serial_sum_ftti\": {}, \"bandwidth_bytes\": {}}}",
        r.pipeline,
        r.policy,
        r.replicas,
        r.exec,
        r.fault,
        r.stages,
        r.frames,
        r.trials,
        r.not_activated,
        r.masked,
        r.corrected,
        r.recovered,
        r.detected,
        r.undetected,
        r.quarantined,
        r.limp_home_miss,
        r.degraded_frames,
        r.limp_deadline_miss,
        r.mean_frames_to_diagnosis()
            .map_or("null".to_string(), |v| format!("{v:.2}")),
        r.degraded_makespan_inflation()
            .map_or("null".to_string(), |v| format!("{v:.3}")),
        r.limp_home_miss_rate()
            .map_or("null".to_string(), |v| format!("{v:.4}")),
        r.deadline_miss,
        r.retries_attempted,
        r.retries_failed,
        r.no_slack,
        r.recovery_rate()
            .map_or("null".to_string(), |c| format!("{c:.4}")),
        r.deadline_miss_rate(),
        r.fault_free_makespan,
        r.e2e_deadline,
        r.serial_sum_deadline,
        r.bandwidth_bytes,
    )
}

/// True when a report's fault label names a family that persists across
/// frames (re-deriving [`FaultSpec::is_persistent`] from the label the
/// report carries).
fn persistent_fault_label(label: &str) -> bool {
    label == FaultSpec::Permanent.label()
}

/// The wide device every 5MR and degraded-mode cell runs on: ten SMs (so
/// five replicas get two-SM slices, and quarantining one SM leaves enough
/// capacity to re-plan) with the campaign-sized memory image.
fn wide_gpu() -> GpuConfig {
    let mut gpu = GpuConfig::wide_10sm();
    gpu.global_mem_bytes = 2 * 1024 * 1024;
    gpu
}

/// Realizes the configured policies at one replica count
/// ([`PolicyKind::for_replicas`]) and deduplicates (HALF and SLICE
/// coincide above two replicas; the uncontrolled baseline drops out).
fn realize_policies(policies: &[PolicyKind], replicas: u8) -> Vec<PolicyKind> {
    let mut realized: Vec<PolicyKind> = Vec::new();
    for policy in policies {
        let Some(p) = policy.for_replicas(replicas) else {
            continue;
        };
        if !realized.contains(&p) {
            realized.push(p);
        }
    }
    realized
}

/// Measures one workload's fault-free **solo** (non-redundant) makespan
/// on the given device — the denominator of a cell's makespan overhead.
fn solo_makespan_on(
    reg: &WorkloadRegistry,
    name: &str,
    scale: Scale,
    gpu_cfg: &GpuConfig,
) -> Result<u64, CampaignError> {
    let workload = reg
        .build(name, scale)
        .ok_or_else(|| CampaignError::UnknownWorkload(name.to_string()))?;
    let mut gpu = Gpu::new(gpu_cfg.clone());
    run_solo(&mut gpu, &*workload).map_err(|e| {
        CampaignError::Redundancy(match e {
            higpu_workloads::SessionError::Sim(err) => {
                higpu_core::redundancy::RedundancyError::Sim(err)
            }
            higpu_workloads::SessionError::Redundancy(err) => err,
            // Solo sessions have one replica and run fault-free: neither a
            // mismatch nor corrupted read-back data can occur.
            higpu_workloads::SessionError::ReplicaMismatch { .. }
            | higpu_workloads::SessionError::Implausible { .. } => {
                unreachable!("fault-free solo runs cannot mismatch or read back implausible data")
            }
        })
    })?;
    Ok(gpu.trace().makespan().unwrap_or(0))
}

/// Runs the sweep: one parallel campaign per (workload, replicas, policy,
/// fault) cell, all resolved through `reg`. Policies are realized per
/// replica count via [`PolicyKind::for_replicas`] (HALF → SLICE above two
/// replicas; the uncontrolled baseline only at two), then deduplicated.
///
/// # Errors
///
/// [`CampaignError::UnknownWorkload`] when `cfg.workloads` names an
/// unregistered workload; otherwise propagates campaign errors.
///
/// # Panics
///
/// With `cfg.check_serial`, panics if any parallel report differs from the
/// serial reference — a determinism bug, not a measurement.
pub fn run_matrix(
    reg: &WorkloadRegistry,
    cfg: &MatrixConfig,
) -> Result<MatrixResult, CampaignError> {
    run_matrix_with_telemetry(reg, cfg).map(|(result, _)| result)
}

/// [`run_matrix`] plus the sweep's [`MatrixTelemetry`] sidecar (per-cell
/// detection-latency / makespan histograms and wall times). The
/// [`MatrixResult`] is identical to [`run_matrix`]'s — telemetry is
/// observation, not state.
///
/// # Errors
///
/// As [`run_matrix`].
///
/// # Panics
///
/// As [`run_matrix`] (the `check_serial` determinism fence).
pub fn run_matrix_with_telemetry(
    reg: &WorkloadRegistry,
    cfg: &MatrixConfig,
) -> Result<(MatrixResult, MatrixTelemetry), CampaignError> {
    let sweep_start = Instant::now();
    let names: Vec<String> = if cfg.workloads.is_empty() {
        reg.names().iter().map(|n| n.to_string()).collect()
    } else {
        cfg.workloads.clone()
    };
    let mut progress = matrix_progress(cfg, names.len());
    let mut done = 0usize;
    let mut telemetry = MatrixTelemetry::default();
    let campaign = CampaignConfig {
        trials: cfg.trials,
        seed: cfg.seed,
        workers: cfg.workers,
        checkpoint: cfg.checkpoint,
        ..CampaignConfig::default()
    };
    // Solo (non-redundant) fault-free makespan per workload: the cost
    // baseline every redundant cell's overhead is measured against.
    let mut solo_makespans = Vec::with_capacity(names.len());
    for name in &names {
        let makespan = solo_makespan_on(reg, name, cfg.scale, &campaign.gpu)?;
        solo_makespans.push((name.clone(), makespan));
    }
    let mut reports = Vec::with_capacity(
        names.len() * cfg.replica_counts.len() * cfg.policies.len() * cfg.faults.len(),
    );
    for name in &names {
        for &replicas in &cfg.replica_counts {
            for &policy in &realize_policies(&cfg.policies, replicas) {
                for &fault in &cfg.faults {
                    let spec = CampaignSpec {
                        workload: name.clone(),
                        scale: cfg.scale,
                        policy,
                        fault,
                        replicas,
                    };
                    let cell_start = Instant::now();
                    let (report, cell) =
                        run_campaign_selected_with_telemetry(&campaign, reg, &spec)?;
                    if cfg.check_serial {
                        let serial = run_campaign_selected_serial(&campaign, reg, &spec)?;
                        assert_eq!(
                            report, serial,
                            "parallel report must be bit-identical to the serial reference \
                             for {name} under {policy:?}/{fault:?} at {replicas} replicas"
                        );
                    }
                    let wall_seconds = cell_start.elapsed().as_secs_f64();
                    telemetry.cells.push(CellTelemetry {
                        workload: report.workload.clone(),
                        policy: report.policy.clone(),
                        replicas,
                        fault: report.fault.to_string(),
                        device: "paper",
                        telemetry: cell,
                        wall_seconds,
                    });
                    done += 1;
                    progress.update(
                        done as u64,
                        &format!(
                            "{name} {} N={replicas} {} [{wall_seconds:.2}s]",
                            policy.label(),
                            fault.label()
                        ),
                    );
                    reports.push(report);
                }
            }
        }
    }
    let mut pipeline_reports = Vec::new();
    if !cfg.pipelines.is_empty() {
        let preg = full_pipeline_registry();
        let campaign = CampaignConfig {
            trials: cfg.pipeline_trials.unwrap_or(cfg.trials),
            // Pipeline campaigns drive multi-frame missions through their
            // own engine; suffix replay applies to workload cells only.
            checkpoint: None,
            ..campaign
        };
        for name in &cfg.pipelines {
            for &replicas in &cfg.replica_counts {
                for &policy in &realize_policies(&cfg.policies, replicas) {
                    for &exec in &cfg.pipeline_exec {
                        for &fault in &cfg.faults {
                            let spec = PipelineCampaignSpec {
                                pipeline: name.clone(),
                                scale: cfg.scale,
                                policy,
                                fault,
                                replicas,
                                recovery: higpu_pipeline::RecoveryPolicy::default(),
                                exec,
                                frames: 1,
                            };
                            let report = run_pipeline_campaign(&campaign, &preg, &spec)
                                .map_err(pipeline_error_to_campaign)?;
                            if cfg.check_serial {
                                let serial = run_pipeline_campaign_serial(&campaign, &preg, &spec)
                                    .map_err(pipeline_error_to_campaign)?;
                                assert_eq!(
                                    report,
                                    serial,
                                    "parallel pipeline report must be bit-identical to the \
                                     serial reference for {name} under {policy:?}/{fault:?} at \
                                     {replicas} replicas ({})",
                                    exec.label()
                                );
                            }
                            done += 1;
                            progress.update(
                                done as u64,
                                &format!(
                                    "{name} {} N={replicas} {} ({})",
                                    policy.label(),
                                    fault.label(),
                                    exec.label()
                                ),
                            );
                            pipeline_reports.push(report);
                        }
                    }
                }
            }
        }
    }
    // Wide-device rows: the same workload sweep at the extra replica
    // counts on the 10-SM device (five replicas need two-SM slices the
    // paper device cannot give them), at reduced trials.
    let mut wide_solo_makespans = Vec::new();
    let mut wide_reports = Vec::new();
    if !cfg.wide_replica_counts.is_empty() {
        let wide = CampaignConfig {
            trials: cfg
                .wide_trials
                .unwrap_or_else(|| cfg.trials.div_ceil(2).max(1)),
            seed: cfg.seed,
            gpu: wide_gpu(),
            workers: cfg.workers,
            checkpoint: cfg.checkpoint,
        };
        for name in &names {
            let makespan = solo_makespan_on(reg, name, cfg.scale, &wide.gpu)?;
            wide_solo_makespans.push((name.clone(), makespan));
        }
        for name in &names {
            for &replicas in &cfg.wide_replica_counts {
                for &policy in &realize_policies(&cfg.policies, replicas) {
                    for &fault in &cfg.faults {
                        let spec = CampaignSpec {
                            workload: name.clone(),
                            scale: cfg.scale,
                            policy,
                            fault,
                            replicas,
                        };
                        let cell_start = Instant::now();
                        let (report, cell) =
                            run_campaign_selected_with_telemetry(&wide, reg, &spec)?;
                        if cfg.check_serial {
                            let serial = run_campaign_selected_serial(&wide, reg, &spec)?;
                            assert_eq!(
                                report, serial,
                                "parallel report must be bit-identical to the serial \
                                 reference for {name} under {policy:?}/{fault:?} at \
                                 {replicas} replicas (wide device)"
                            );
                        }
                        let wall_seconds = cell_start.elapsed().as_secs_f64();
                        telemetry.cells.push(CellTelemetry {
                            workload: report.workload.clone(),
                            policy: report.policy.clone(),
                            replicas,
                            fault: report.fault.to_string(),
                            device: "wide",
                            telemetry: cell,
                            wall_seconds,
                        });
                        done += 1;
                        progress.update(
                            done as u64,
                            &format!(
                                "{name} {} N={replicas} {} (wide) [{wall_seconds:.2}s]",
                                policy.label(),
                                fault.label()
                            ),
                        );
                        wide_reports.push(report);
                    }
                }
            }
        }
    }
    // Degraded-mode rows: multi-frame limp-home missions on the wide
    // device. One cell per (pipeline, fault family): a mid-mission
    // permanent fault must be diagnosed, quarantined, and limped around;
    // a transient-class family must *never* cost an SM.
    let mut limp_reports = Vec::new();
    if cfg.limp_frames > 1 && !cfg.pipelines.is_empty() {
        let preg = full_pipeline_registry();
        let limp = CampaignConfig {
            trials: cfg
                .limp_trials
                .unwrap_or_else(|| cfg.pipeline_trials.unwrap_or(cfg.trials).div_ceil(2).max(1)),
            seed: cfg.seed,
            gpu: wide_gpu(),
            workers: cfg.workers,
            checkpoint: None,
        };
        for name in &cfg.pipelines {
            for &fault in &cfg.faults {
                if matches!(fault, FaultSpec::Misroute) {
                    // Misroute is a scheduler property, not SM damage:
                    // there is nothing to diagnose across frames.
                    continue;
                }
                let spec = PipelineCampaignSpec {
                    pipeline: name.clone(),
                    scale: cfg.scale,
                    policy: PolicyKind::Srrs,
                    fault,
                    replicas: 2,
                    recovery: higpu_pipeline::RecoveryPolicy::default(),
                    exec: ExecMode::Overlapped,
                    frames: cfg.limp_frames,
                };
                let report = run_pipeline_campaign(&limp, &preg, &spec)
                    .map_err(pipeline_error_to_campaign)?;
                if cfg.check_serial {
                    let serial = run_pipeline_campaign_serial(&limp, &preg, &spec)
                        .map_err(pipeline_error_to_campaign)?;
                    assert_eq!(
                        report, serial,
                        "parallel limp-home report must be bit-identical to the serial \
                         reference for {name} under {fault:?} over {} frames",
                        cfg.limp_frames
                    );
                }
                done += 1;
                progress.update(
                    done as u64,
                    &format!(
                        "{name} limp-home {} x{} frames",
                        fault.label(),
                        cfg.limp_frames
                    ),
                );
                limp_reports.push(report);
            }
        }
    }
    progress.finish(done as u64, "");
    telemetry.wall_seconds = sweep_start.elapsed().as_secs_f64();
    let result = MatrixResult {
        trials: cfg.trials,
        seed: cfg.seed,
        scale: cfg.scale.label(),
        replica_counts: cfg.replica_counts.clone(),
        solo_makespans,
        reports,
        pipeline_reports,
        wide_replica_counts: cfg.wide_replica_counts.clone(),
        wide_solo_makespans,
        wide_reports,
        limp_frames: cfg.limp_frames.max(1),
        limp_reports,
    };
    Ok((result, telemetry))
}

/// Builds the sweep's progress line by pre-counting every cell the sweep
/// will run (workload, pipeline, wide-device, and limp-home axes).
fn matrix_progress(cfg: &MatrixConfig, workloads: usize) -> ProgressLine {
    let per_replica: usize = cfg
        .replica_counts
        .iter()
        .map(|&r| realize_policies(&cfg.policies, r).len())
        .sum();
    let wide_per_replica: usize = cfg
        .wide_replica_counts
        .iter()
        .map(|&r| realize_policies(&cfg.policies, r).len())
        .sum();
    let workload_cells = workloads * per_replica * cfg.faults.len();
    let pipeline_cells =
        cfg.pipelines.len() * per_replica * cfg.pipeline_exec.len() * cfg.faults.len();
    let wide_cells = workloads * wide_per_replica * cfg.faults.len();
    let limp_cells = if cfg.limp_frames > 1 && !cfg.pipelines.is_empty() {
        cfg.pipelines.len()
            * cfg
                .faults
                .iter()
                .filter(|f| !matches!(f, FaultSpec::Misroute))
                .count()
    } else {
        0
    };
    ProgressLine::new(
        "matrix",
        (workload_cells + pipeline_cells + wide_cells + limp_cells) as u64,
        cfg.progress,
    )
}

/// Surfaces a pipeline-campaign error through the matrix's error type
/// (unknown pipelines map onto the unknown-workload variant; device and
/// protocol errors pass through).
fn pipeline_error_to_campaign(e: PipelineCampaignError) -> CampaignError {
    match e {
        PipelineCampaignError::UnknownPipeline(name) => CampaignError::UnknownWorkload(name),
        PipelineCampaignError::Campaign(e) => e,
        PipelineCampaignError::Pipeline(p) => match p {
            higpu_pipeline::exec::PipelineError::Session(higpu_workloads::SessionError::Sim(
                err,
            )) => CampaignError::Redundancy(higpu_core::redundancy::RedundancyError::Sim(err)),
            higpu_pipeline::exec::PipelineError::Session(
                higpu_workloads::SessionError::Redundancy(err),
            ) => CampaignError::Redundancy(err),
            other => CampaignError::Execution(format!("pipeline: {other}")),
        },
    }
}

/// Renders the combined `BENCH_campaign.json` document: engine throughput
/// plus the campaign matrix (cells and coverage-vs-cost frontier).
pub fn bench_document(throughput: &ThroughputResult, matrix: &MatrixResult) -> String {
    throughput.to_json_with_extra(&[("matrix", &matrix.to_json())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matrix_sweeps_replicas_and_renders() {
        let reg = full_registry();
        assert!(reg.len() >= 17, "synthetic + 16 Rodinia");
        let cfg = MatrixConfig {
            trials: 2,
            workloads: vec!["iterated_fma".into(), "nn".into()],
            policies: vec![PolicyKind::Srrs, PolicyKind::Half],
            faults: vec![FaultSpec::Permanent],
            check_serial: true,
            ..MatrixConfig::default()
        };
        let m = run_matrix(&reg, &cfg).expect("sweep");
        assert_eq!(
            m.reports.len(),
            8,
            "2 workloads x (2 policies @ N=2 + {{SRRS, SLICE}} @ N=3) x 1 fault"
        );
        assert_eq!(
            m.wide_reports.len(),
            4,
            "2 workloads x {{SRRS, SLICE}} @ N=5 x 1 fault on the wide device"
        );
        assert!(m.wide_reports.iter().all(|r| r.replicas == 5));
        assert_eq!(m.undetected_under_diverse_policies(), 0);
        assert!(
            m.total_corrected() > 0,
            "TMR cells must outvote some faults: {:?}",
            m.reports
        );
        // Two-replica cells never correct.
        for r in m.reports.iter().filter(|r| r.replicas == 2) {
            assert_eq!(r.corrected, 0, "{r:?}");
        }
        let table = m.to_table();
        assert_eq!(table.len(), 13, "header + 8 paper-device + 4 wide rows");
        let json = m.to_json();
        assert!(json.contains("\"workload\": \"nn\""));
        assert!(json.contains("\"replicas\": 3"));
        assert!(json.contains("\"frontier\""));
        assert!(json.contains("\"policy\": \"SLICE\""));
        assert!(json.contains("\"wide_cells\""));
        assert!(json.contains("\"wide_replica_counts\": [5]"));
        // Frontier points exist for every realized (policy, replicas).
        let frontier = m.frontier();
        assert!(frontier
            .iter()
            .any(|p| p.policy == "SRRS" && p.replicas == 3 && p.mean_makespan_overhead > 2.0));
        // Costs rise with the replica count under the serializing policy.
        let srrs2 = frontier
            .iter()
            .find(|p| p.policy == "SRRS" && p.replicas == 2)
            .expect("srrs@2");
        let srrs3 = frontier
            .iter()
            .find(|p| p.policy == "SRRS" && p.replicas == 3)
            .expect("srrs@3");
        assert!(
            srrs3.mean_makespan_overhead > srrs2.mean_makespan_overhead,
            "a third serialized replica must cost makespan: {srrs2:?} vs {srrs3:?}"
        );
        // The wide device contributes the 5MR frontier point, measured
        // against its own solo baseline.
        let srrs5 = frontier
            .iter()
            .find(|p| p.policy == "SRRS" && p.replicas == 5)
            .expect("srrs@5 from the wide sweep");
        assert!(
            srrs5.mean_makespan_overhead > srrs3.mean_makespan_overhead,
            "five serialized replicas cost more than three: {srrs3:?} vs {srrs5:?}"
        );
        assert_eq!(srrs5.undetected, 0, "5MR keeps the ASIL-D fence");
    }

    #[test]
    fn pipeline_axis_sweeps_exec_modes_and_renders() {
        let reg = full_registry();
        let cfg = MatrixConfig {
            trials: 3,
            workloads: vec!["iterated_fma".into()],
            policies: vec![PolicyKind::Srrs],
            faults: vec![
                FaultSpec::Transient { duration: 400 },
                FaultSpec::Misroute, // classified via the inter-stage BIST
            ],
            pipelines: vec!["sensor_fusion".into()],
            replica_counts: vec![2],
            check_serial: true,
            ..MatrixConfig::default()
        };
        let m = run_matrix(&reg, &cfg).expect("sweep");
        assert_eq!(m.reports.len(), 2, "workload cells keep misroute");
        assert_eq!(
            m.pipeline_reports.len(),
            4,
            "1 pipeline x 1 policy x 1 replica count x 2 faults x 2 executors"
        );
        for r in &m.pipeline_reports {
            assert_eq!(r.pipeline, "sensor_fusion");
            assert_eq!(r.policy, "SRRS");
            assert_eq!(r.stages, 4);
            assert!(r.bandwidth_bytes > 0);
            if r.exec == "overlapped" {
                assert!(
                    r.e2e_deadline < r.serial_sum_deadline,
                    "the DAG join puts the critical path strictly below the sum: {r:?}"
                );
            } else {
                assert_eq!(
                    r.e2e_deadline, r.serial_sum_deadline,
                    "serial cells are enforced against (and report) the sum: {r:?}"
                );
            }
            assert_eq!(
                r.trials,
                r.not_activated + r.masked + r.corrected + r.recovered + r.detected + r.undetected
            );
        }
        assert_eq!(m.pipeline_undetected_under_diverse_policies(), 0);
        // The default limp axis adds one multi-frame mission cell for the
        // transient family (misroute has nothing to diagnose) — and a
        // transient must never cost the device an SM.
        assert_eq!(m.limp_reports.len(), 1, "{:?}", m.limp_reports);
        let limp = &m.limp_reports[0];
        assert_eq!(limp.frames, 4);
        assert_eq!(limp.fault, "transient-sm");
        assert_eq!(limp.undetected, 0);
        assert_eq!(
            m.limp_false_quarantines(),
            0,
            "a transient-class fault must never be convicted as permanent: {limp:?}"
        );
        assert_eq!(m.limp_deadline_misses(), 0);
        let table = m.pipeline_table();
        assert_eq!(table.len(), 6, "header + 4 single-frame + 1 limp row");
        let json = m.to_json();
        assert!(json.contains("\"pipelines\""));
        assert!(json.contains("\"pipeline\": \"sensor_fusion\""));
        assert!(json.contains("\"recovery_rate\""));
        assert!(json.contains("\"deadline_miss_rate\""));
        assert!(json.contains("\"critical_path_ftti\""));
        assert!(json.contains("\"exec\": \"overlapped\""));
        assert!(json.contains("\"makespan_speedup\""));
        assert!(json.contains("\"degraded_mode\""));
        assert!(json.contains("\"post_quarantine_makespan_inflation\""));
        assert!(json.contains("\"false_quarantines\": 0"));
        let frontier = m.pipeline_frontier();
        assert_eq!(frontier.len(), 2, "one point per executor");
        assert!(frontier.iter().all(|p| p.trials == 6));
        // The serial-vs-overlapped comparison exists per fault and shows
        // overlap strictly winning on makespan and FTTI.
        let speedups = m.pipeline_speedups();
        assert_eq!(speedups.len(), 1, "one pair per (pipeline, policy, N)");
        for s in &speedups {
            assert!(
                s.serial_makespan > s.overlapped_makespan,
                "overlap must strictly shrink the frame: {s:?}"
            );
            assert!(s.makespan_speedup() > 1.0);
            assert!(s.ftti_tightening() > 1.0);
        }
    }

    #[test]
    fn permanent_limp_cells_quarantine_and_report_degraded_mode() {
        let reg = full_registry();
        let cfg = MatrixConfig {
            trials: 1,
            workloads: vec!["iterated_fma".into()],
            policies: vec![PolicyKind::Srrs],
            faults: vec![FaultSpec::Permanent],
            pipelines: vec!["sensor_fusion".into()],
            pipeline_trials: Some(1),
            pipeline_exec: vec![ExecMode::Overlapped],
            replica_counts: vec![2],
            wide_replica_counts: Vec::new(),
            limp_trials: Some(2),
            check_serial: true,
            ..MatrixConfig::default()
        };
        let m = run_matrix(&reg, &cfg).expect("sweep");
        assert!(m.wide_reports.is_empty(), "wide axis disabled");
        assert_eq!(m.limp_reports.len(), 1);
        let limp = &m.limp_reports[0];
        assert_eq!(limp.fault, "permanent-sm");
        assert_eq!(limp.exec, "overlapped");
        assert_eq!(limp.frames, 4);
        assert_eq!(limp.undetected, 0);
        assert!(
            m.limp_quarantined() >= 1,
            "a mid-mission permanent fault gets diagnosed and quarantined: {limp:?}"
        );
        assert_eq!(m.limp_home_misses(), 0, "{limp:?}");
        assert_eq!(m.limp_deadline_misses(), 0, "{limp:?}");
        assert_eq!(
            m.limp_false_quarantines(),
            0,
            "permanent convictions are attributed, not false"
        );
        assert!(m.limp_mean_frames_to_diagnosis().expect("diagnosed") >= 1.0);
        let json = m.to_json();
        assert!(json.contains("\"degraded_mode\""));
        assert!(json.contains("\"quarantined\""));
    }

    #[test]
    fn duplicate_realized_policies_are_swept_once() {
        let reg = full_registry();
        let cfg = MatrixConfig {
            trials: 1,
            workloads: vec!["iterated_fma".into()],
            policies: vec![PolicyKind::Half, PolicyKind::Slice],
            faults: vec![FaultSpec::Permanent],
            replica_counts: vec![3],
            ..MatrixConfig::default()
        };
        let m = run_matrix(&reg, &cfg).expect("sweep");
        assert_eq!(
            m.reports.len(),
            1,
            "HALF and SLICE both realize as SLICE at N=3: {:?}",
            m.reports
        );
        assert_eq!(m.reports[0].policy, "SLICE");
    }

    #[test]
    fn unknown_workload_is_reported() {
        let reg = full_registry();
        let cfg = MatrixConfig {
            trials: 1,
            workloads: vec!["nope".into()],
            policies: vec![PolicyKind::Srrs],
            faults: vec![FaultSpec::Permanent],
            ..MatrixConfig::default()
        };
        assert!(matches!(
            run_matrix(&reg, &cfg),
            Err(CampaignError::UnknownWorkload(_))
        ));
    }
}
