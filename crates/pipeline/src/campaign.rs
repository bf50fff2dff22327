//! Pipeline fault campaigns: randomized fault injection over whole
//! pipeline frames, with **fail-operational vs fail-stop** as the new
//! observable.
//!
//! A pipeline trial injects one pre-drawn fault into a full frame
//! (every stage, redundant, under the frame's deadline plan) and
//! classifies what the deployed safety mechanism would have delivered:
//!
//! * [`PipelineTrialOutcome::Recovered`] — a stage detection was repaired
//!   by in-FTTI re-execution and the frame's every stage verified correct:
//!   the vehicle keeps operating (fail-operational). Without the recovery
//!   budget the same trial is merely [`PipelineTrialOutcome::Detected`].
//! * [`PipelineTrialOutcome::Detected`] — the frame fail-stopped (an
//!   unrecoverable detection or a blown end-to-end FTTI): safe, but the
//!   function is lost for this frame.
//!
//! A cell runs on the campaign cell engine of `higpu_faults::campaign`
//! ([`higpu_faults::campaign::run_cell`]), as workload cells do: pre-drawn
//! models, each distinct model decided once on reusable per-worker
//! devices, and an order-independent count reduction, so the report is
//! bit-identical at every worker count ([`run_pipeline_campaign_serial`]
//! is the one-worker reference). The cell's one fault-free mission supplies
//! the frame makespan, the per-SM busy intervals that prove a model's
//! window idle (such a model counts as that mission, `NotActivated`,
//! without running) and the frame entries each limp-home mission resumes
//! from, the last one before its fault arms. The reference runs every
//! trial from cycle 0.

use crate::exec::{
    plan, run_pipeline, ExecMode, FrameOptions, PipelineError, PipelinePlan, PipelineRun,
    RecoveryPolicy,
};
use crate::graph::{Pipeline, PipelineRegistry};
use crate::limp::{
    e2e_budget, record_fault_free_mission, run_limp_home_with, DegradedPlans, FramePrefix,
    FrameStatus, LimpHomeReport,
};
use higpu_core::diversity::{analyze, DiversityRequirements};
use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::RedundancyMode;
use higpu_core::safety_case::DetectionEvidence;
use higpu_faults::campaign::{
    draw_models, policy_mode, run_cell, BusyIntervals, CampaignConfig, CampaignError, CellSubject,
    FaultSpec,
};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::Scale;
use std::fmt;
use std::sync::Arc;

/// One cell of a pipeline campaign sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCampaignSpec {
    /// Registry name of the pipeline under test.
    pub pipeline: String,
    /// Input scale the factory builds.
    pub scale: Scale,
    /// Scheduling policy of every stage's redundant execution.
    pub policy: PolicyKind,
    /// Fault family injected.
    pub fault: FaultSpec,
    /// Replica count per stage.
    pub replicas: u8,
    /// Re-execution budget (default: one retry per stage; use
    /// [`RecoveryPolicy::disabled`] for the fail-stop-only ablation).
    pub recovery: RecoveryPolicy,
    /// Which frame executor runs the trials (default: the overlapped
    /// concurrent-branch executor; [`ExecMode::Serial`] is the reference
    /// oracle and the serial-vs-overlapped comparison axis).
    pub exec: ExecMode,
    /// Frames per trial (default 1). Above 1 each trial becomes a
    /// **limp-home mission** ([`crate::limp::run_limp_home`]): the fault's
    /// arming time is drawn across the whole mission window, a
    /// fail-stopped frame escalates to diagnosis + quarantine +
    /// re-planning, and the trial classifies the mission
    /// ([`PipelineTrialOutcome::Quarantined`] /
    /// [`PipelineTrialOutcome::LimpHomeMiss`]). Value-corruption fault
    /// families only: a misroute is detected by the inter-stage scheduler
    /// self-test and the diversity monitor, which only single-frame
    /// classification consults, so a misroute spec with `frames > 1` is
    /// rejected ([`CampaignError::Execution`]).
    pub frames: u32,
}

impl PipelineCampaignSpec {
    /// Campaign-scale, two-replica spec with the default recovery budget
    /// on the overlapped executor.
    pub fn new(pipeline: impl Into<String>, policy: PolicyKind, fault: FaultSpec) -> Self {
        Self {
            pipeline: pipeline.into(),
            scale: Scale::Campaign,
            policy,
            fault,
            replicas: 2,
            recovery: RecoveryPolicy::default(),
            exec: ExecMode::default(),
            frames: 1,
        }
    }

    /// The same spec running `frames` consecutive frames per trial (the
    /// limp-home mission axis).
    pub fn with_frames(mut self, frames: u32) -> Self {
        self.frames = frames.max(1);
        self
    }

    /// The same spec at `replicas` replicas.
    pub fn with_replicas(mut self, replicas: u8) -> Self {
        self.replicas = replicas;
        self
    }

    /// The same spec with recovery disabled (every detection fail-stops).
    pub fn without_recovery(mut self) -> Self {
        self.recovery = RecoveryPolicy::disabled();
        self
    }

    /// The same spec under `exec`.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// The frame options these trials run under. Scheduler-misroute
    /// campaigns enable the inter-stage BIST: a misroute is functionally
    /// silent, so the periodic self-test (plus the diversity monitor) is
    /// the deployed mechanism that must catch it.
    pub fn frame_options(&self) -> FrameOptions {
        FrameOptions {
            exec: self.exec,
            recovery: self.recovery,
            interstage_bist: matches!(self.fault, FaultSpec::Misroute),
        }
    }
}

/// Classification of one pipeline injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineTrialOutcome {
    /// The fault never corrupted anything.
    NotActivated,
    /// Corruption happened; every stage stayed unanimous and verified
    /// correct (within its tolerance).
    Masked,
    /// At least one stage's N ≥ 3 vote outvoted the corruption in place
    /// (no re-execution needed) and every stage verified correct.
    Corrected,
    /// At least one detected stage was re-executed within the remaining
    /// FTTI slack, and the frame completed with every stage verified
    /// correct — **fail-operational**: the observable the frontier lacked.
    Recovered,
    /// The frame fail-stopped: an unrecoverable detection (retry
    /// exhausted / no slack) or an end-to-end deadline miss. Safe, but the
    /// frame is lost. In a multi-frame mission: a frame was lost to an
    /// unattributable (transient) fault, no SM was convicted, and every
    /// other frame completed verified.
    Detected,
    /// Multi-frame missions only: a fail-stopped frame was diagnosed to a
    /// permanent SM fault, the SM was quarantined, budgets were re-planned
    /// for the shrunken device, and **every** subsequent frame completed
    /// in degraded mode inside its re-planned FTTI, verified correct —
    /// the limp-home fail-operational outcome.
    Quarantined,
    /// Multi-frame missions only: an SM was quarantined but the limp-home
    /// contract broke — a post-quarantine frame missed its re-planned
    /// deadline, fail-stopped, or the degraded device was unschedulable.
    LimpHomeMiss,
    /// A frame the mechanism accepted whose data was wrong: some stage's
    /// voted output failed verification against the CPU reference on its
    /// actual inputs.
    UndetectedFailure,
}

/// Aggregated pipeline campaign results. All counts are order-independent
/// sums, so serial and parallel engines agree bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineCampaignReport {
    /// Pipeline name.
    pub pipeline: String,
    /// Scheduling policy label.
    pub policy: String,
    /// Fault family label.
    pub fault: &'static str,
    /// Replica count per stage.
    pub replicas: u8,
    /// Frame executor label (`serial` / `overlapped`).
    pub exec: &'static str,
    /// Stage count of the pipeline.
    pub stages: u32,
    /// Fault-free end-to-end frame makespan (cycles) **under this cell's
    /// executor** — the serial-vs-overlapped speedup numerator/denominator.
    pub fault_free_makespan: u64,
    /// The end-to-end FTTI this cell's executor enforced: the critical
    /// path of the stage-budget DAG (plus per-join slack) for
    /// `overlapped` cells, the per-stage sum for `serial` cells — so
    /// `deadline_miss` is always measured against this number.
    pub e2e_deadline: u64,
    /// The pre-concurrency end-to-end FTTI (plain sum of stage budgets) —
    /// strictly above the critical path for any pipeline with parallel
    /// branches (and equal to `e2e_deadline` on serial cells).
    pub serial_sum_deadline: u64,
    /// Host↔device bytes one fault-free frame moves per the DCLS protocol
    /// (uploads + read-backs, all replicas, all stages).
    pub bandwidth_bytes: u64,
    /// Trials run.
    pub trials: u32,
    /// Trials whose fault never activated.
    pub not_activated: u32,
    /// Activated but masked trials.
    pub masked: u32,
    /// Trials corrected in place by the vote.
    pub corrected: u32,
    /// Trials recovered by in-FTTI re-execution (fail-operational).
    pub recovered: u32,
    /// Fail-stop trials.
    pub detected: u32,
    /// Undetected failures (must be 0 under diverse policies).
    pub undetected: u32,
    /// Trials whose frame exceeded the end-to-end FTTI.
    pub deadline_miss: u32,
    /// Re-executions attempted across all trials.
    pub retries_attempted: u32,
    /// Re-executions that themselves failed (tied again / timed out).
    pub retries_failed: u32,
    /// Detections that found no slack left for a retry.
    pub no_slack: u32,
    /// Frames per trial (1 = classic single-frame campaign; above 1 the
    /// limp-home fields below are live).
    pub frames: u32,
    /// Trials that diagnosed + quarantined a permanent SM fault and kept
    /// every subsequent frame fail-operational in degraded mode.
    pub quarantined: u32,
    /// Trials that quarantined but then missed the limp-home contract.
    pub limp_home_miss: u32,
    /// Frames completed in degraded mode across all trials.
    pub degraded_frames: u32,
    /// Summed makespan of those degraded frames (inflation numerator).
    pub degraded_makespan_sum: u64,
    /// Summed frames-to-diagnosis over all trials that convicted an SM.
    pub frames_to_diagnosis_sum: u32,
    /// Post-quarantine frames that broke their re-planned deadline (the
    /// limp-home deadline-miss numerator).
    pub limp_deadline_miss: u32,
}

impl PipelineCampaignReport {
    /// Counts one trial.
    fn add(&mut self, outcome: PipelineTrialOutcome, record: &TrialRecord) {
        *match outcome {
            PipelineTrialOutcome::NotActivated => &mut self.not_activated,
            PipelineTrialOutcome::Masked => &mut self.masked,
            PipelineTrialOutcome::Corrected => &mut self.corrected,
            PipelineTrialOutcome::Recovered => &mut self.recovered,
            PipelineTrialOutcome::Detected => &mut self.detected,
            PipelineTrialOutcome::Quarantined => &mut self.quarantined,
            PipelineTrialOutcome::LimpHomeMiss => &mut self.limp_home_miss,
            PipelineTrialOutcome::UndetectedFailure => &mut self.undetected,
        } += 1;
        let mut add_run = |run: &PipelineRun| {
            self.deadline_miss += u32::from(run.deadline_miss);
            self.retries_attempted += run.retries_attempted;
            self.retries_failed += run.retries_failed;
            self.no_slack += run.no_slack_failures;
        };
        match record {
            TrialRecord::Frame(run) => add_run(run),
            TrialRecord::Mission(rep) => {
                rep.frames
                    .iter()
                    .filter_map(|f| f.run.as_ref())
                    .for_each(add_run);
                self.degraded_frames += rep.degraded_frames();
                self.degraded_makespan_sum += rep.degraded_makespan_sum();
                self.frames_to_diagnosis_sum += rep.frames_to_diagnosis().unwrap_or(0);
                self.limp_deadline_miss += rep.limp_deadline_misses();
            }
        }
    }

    /// The fail-operational recovery rate: trials the mechanism kept
    /// operational (in-FTTI recovery, or quarantine + limp-home) over all
    /// trials in which it *acted* (those plus fail-stops and broken
    /// limp-home contracts); `None` when it never had to act.
    pub fn recovery_rate(&self) -> Option<f64> {
        let operational = self.recovered + self.quarantined;
        let acted = operational + self.detected + self.limp_home_miss;
        if acted == 0 {
            None
        } else {
            Some(f64::from(operational) / f64::from(acted))
        }
    }

    /// End-to-end deadline-miss rate over all trials.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            f64::from(self.deadline_miss) / f64::from(self.trials)
        }
    }

    /// Coverage over effective faults (everything the mechanism caught —
    /// corrected, recovered or fail-stopped — over all non-masked
    /// activations); `None` when no fault was effective.
    pub fn coverage(&self) -> Option<f64> {
        let caught = self.corrected
            + self.recovered
            + self.detected
            + self.quarantined
            + self.limp_home_miss;
        let effective = caught + self.undetected;
        if effective == 0 {
            None
        } else {
            Some(f64::from(caught) / f64::from(effective))
        }
    }

    /// Mean frames from fault manifestation to quarantine, over the trials
    /// that convicted an SM; `None` when nothing was ever quarantined.
    pub fn mean_frames_to_diagnosis(&self) -> Option<f64> {
        let diagnosed = self.quarantined + self.limp_home_miss;
        if diagnosed == 0 {
            None
        } else {
            Some(f64::from(self.frames_to_diagnosis_sum) / f64::from(diagnosed))
        }
    }

    /// Post-quarantine makespan inflation: the mean degraded-frame
    /// makespan over the nominal fault-free frame makespan; `None` without
    /// degraded frames.
    pub fn degraded_makespan_inflation(&self) -> Option<f64> {
        if self.degraded_frames == 0 || self.fault_free_makespan == 0 {
            None
        } else {
            let mean = self.degraded_makespan_sum as f64 / f64::from(self.degraded_frames);
            Some(mean / self.fault_free_makespan as f64)
        }
    }

    /// Limp-home deadline-miss rate: missions that quarantined but then
    /// broke the re-planned contract, over all missions that quarantined;
    /// `None` when nothing was ever quarantined.
    pub fn limp_home_miss_rate(&self) -> Option<f64> {
        let diagnosed = self.quarantined + self.limp_home_miss;
        if diagnosed == 0 {
            None
        } else {
            Some(f64::from(self.limp_home_miss) / f64::from(diagnosed))
        }
    }

    /// Converts to the safety-case evidence form.
    pub fn evidence(&self) -> DetectionEvidence {
        DetectionEvidence {
            activated: u64::from(self.trials - self.not_activated),
            masked: u64::from(self.masked),
            // A broken limp-home contract is still a safe detection; a
            // quarantined-and-limped mission stayed operational, which is
            // the evidence class in-FTTI recovery occupies.
            detected: u64::from(self.detected + self.limp_home_miss),
            corrected: u64::from(self.corrected),
            recovered: u64::from(self.recovered + self.quarantined),
            undetected_failures: u64::from(self.undetected),
        }
    }
}

/// Errors of pipeline campaigns.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineCampaignError {
    /// The spec named a pipeline absent from the registry.
    UnknownPipeline(String),
    /// Policy/replica resolution failed.
    Campaign(CampaignError),
    /// A frame failed in the device or the protocol.
    Pipeline(PipelineError),
}

impl fmt::Display for PipelineCampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineCampaignError::UnknownPipeline(name) => {
                write!(f, "pipeline '{name}' is not in the registry")
            }
            PipelineCampaignError::Campaign(e) => write!(f, "{e}"),
            PipelineCampaignError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PipelineCampaignError {}

impl From<CampaignError> for PipelineCampaignError {
    fn from(e: CampaignError) -> Self {
        PipelineCampaignError::Campaign(e)
    }
}

impl From<PipelineError> for PipelineCampaignError {
    fn from(e: PipelineError) -> Self {
        PipelineCampaignError::Pipeline(e)
    }
}

/// A reusable pipeline trial executor: one device, rewound between frames.
#[derive(Debug)]
pub struct PipelineCampaignRunner {
    gpu: Gpu,
}

impl PipelineCampaignRunner {
    /// Creates a runner with a fresh device per `cfg.gpu`.
    pub fn new(cfg: &CampaignConfig) -> Self {
        Self {
            gpu: Gpu::new(cfg.gpu.clone()),
        }
    }

    /// Runs one pipeline injection trial; returns the classified outcome
    /// and the frame record. Pure function of `(cfg.gpu, pipeline, mode,
    /// plan, opts, fault family, model)` — independent of previous trials
    /// and of which runner executes it. Every frame is simulated to its end.
    ///
    /// # Errors
    ///
    /// Propagates device/protocol errors (never mere corruption).
    pub fn run_trial(
        &mut self,
        pipeline: &Pipeline,
        mode: &RedundancyMode,
        frame_plan: &PipelinePlan,
        opts: FrameOptions,
        misroute: bool,
        model: FaultModel,
    ) -> Result<(PipelineTrialOutcome, PipelineRun), PipelineError> {
        let counters = self.arm(model);
        let run = run_pipeline(&mut self.gpu, pipeline, mode, frame_plan, opts)?;
        // A misrouted frame is functionally silent; the deployed detectors
        // are the inter-stage scheduler BIST plus the diversity monitor
        // over the frame's trace (mirroring the workload-level path).
        let diverse =
            !misroute || analyze(self.gpu.trace(), DiversityRequirements::default()).is_diverse();
        let outcome = classify(pipeline, &run, counters.activated(), misroute, diverse);
        Ok((outcome, run))
    }

    /// Runs one multi-frame limp-home trial ([`crate::limp`]): the device
    /// is reset (clearing any previous quarantine), the fault hook is
    /// armed for the whole mission, and the mission is classified at the
    /// mission level — [`PipelineTrialOutcome::Quarantined`] when an SM
    /// was convicted and every later frame limped home inside its
    /// re-planned FTTI, [`PipelineTrialOutcome::LimpHomeMiss`] when the
    /// contract broke after a conviction.
    ///
    /// Every mission runs from cycle 0 to its end. This is the oracle the
    /// campaign engine's skips are fenced against: the engine counts a
    /// model whose window the fault-free mission proves idle as that
    /// mission, and resumes every other mission at the last fault-free
    /// frame entry before the fault arms (README, *Frame-boundary
    /// fast-forward*).
    ///
    /// # Errors
    ///
    /// Propagates device/protocol errors (never mere corruption).
    pub fn run_limp_trial(
        &mut self,
        pipeline: &Pipeline,
        mode: &RedundancyMode,
        frame_plan: &PipelinePlan,
        opts: FrameOptions,
        frames: u32,
        model: FaultModel,
    ) -> Result<(PipelineTrialOutcome, LimpHomeReport), PipelineError> {
        self.run_limp_trial_with(
            pipeline,
            mode,
            frame_plan,
            opts,
            frames,
            model,
            &mut DegradedPlans::default(),
            &[],
        )
    }

    /// [`Self::run_limp_trial`] with degraded plans taken from (and added
    /// to) `plans`, which must belong to this `(pipeline, mode)` cell, and
    /// resumed from the latest of the cell's fault-free `prefixes` (see
    /// [`record_fault_free_mission`]) whose frame entry is at or before the
    /// model's arm cycle. The fault corrupts nothing before it arms, so
    /// the mission up to that entry is the fault-free one.
    #[allow(clippy::too_many_arguments)] // the public trial's inputs plus memo and prefixes
    fn run_limp_trial_with(
        &mut self,
        pipeline: &Pipeline,
        mode: &RedundancyMode,
        frame_plan: &PipelinePlan,
        opts: FrameOptions,
        frames: u32,
        model: FaultModel,
        plans: &mut DegradedPlans,
        prefixes: &[FramePrefix],
    ) -> Result<(PipelineTrialOutcome, LimpHomeReport), PipelineError> {
        let counters = self.arm(model);
        let from = prefixes
            .iter()
            .rev()
            .find(|p| p.cycle() <= model.arm_cycle());
        let rep = run_limp_home_with(
            &mut self.gpu,
            pipeline,
            mode,
            frame_plan,
            opts,
            frames as usize,
            plans,
            from,
        )?;
        let outcome = classify_limp(pipeline, &rep, counters.activated());
        Ok((outcome, rep))
    }

    /// Rewinds the device and installs `model`'s injector (it survives a
    /// later [`Gpu::restore`]).
    fn arm(&mut self, model: FaultModel) -> Arc<InjectionCounters> {
        if self.gpu.reset().is_err() {
            self.gpu.force_reset();
        }
        let counters = InjectionCounters::shared();
        self.gpu
            .set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
        counters
    }
}

/// Classifies a limp-home mission: the oracle checks every delivered
/// frame, then the quarantine ladder decides between the mission-level
/// outcomes.
fn classify_limp(
    pipeline: &Pipeline,
    rep: &LimpHomeReport,
    activated: bool,
) -> PipelineTrialOutcome {
    if !activated {
        return PipelineTrialOutcome::NotActivated;
    }
    // Oracle: every completed frame is held to the same bar as a single
    // frame — a degraded frame as much as a nominal one.
    let mut completed = rep.frames.iter().filter(|f| f.completed());
    if !completed.all(|f| {
        outputs_verify(
            pipeline,
            f.run.as_ref().expect("a completed frame has a run"),
        )
    }) {
        return PipelineTrialOutcome::UndetectedFailure;
    }
    if rep.diagnosis_frame.is_some() {
        return if rep.limp_home_ok() {
            PipelineTrialOutcome::Quarantined
        } else {
            PipelineTrialOutcome::LimpHomeMiss
        };
    }
    if rep
        .frames
        .iter()
        .any(|f| f.status == FrameStatus::FailStopped)
    {
        return PipelineTrialOutcome::Detected;
    }
    delivered(rep.frames.iter().filter_map(|f| f.run.as_ref()))
}

/// The outcome of frames that delivered verified outputs: recovered if a
/// stage was re-executed, corrected if a vote outvoted a corruption,
/// masked otherwise.
fn delivered<'a>(mut runs: impl Iterator<Item = &'a PipelineRun> + Clone) -> PipelineTrialOutcome {
    if runs.clone().any(|r| r.recovered_stages() > 0) {
        PipelineTrialOutcome::Recovered
    } else if runs.any(|r| r.corrected_stages() > 0 || r.corrected_reads > 0) {
        PipelineTrialOutcome::Corrected
    } else {
        PipelineTrialOutcome::Masked
    }
}

/// The campaign's oracle: every delivered stage output of `run` verifies
/// against the CPU reference recomputed over its *actual* (voted) inputs.
/// A corrupted value the voter accepted anywhere in the dataflow fails
/// here.
fn outputs_verify(pipeline: &Pipeline, run: &PipelineRun) -> bool {
    pipeline.stages().iter().enumerate().all(|(s, stage)| {
        let inputs: Vec<&[u32]> = stage
            .deps
            .iter()
            .map(|&d| run.outputs[d].as_slice())
            .collect();
        stage.program.verify(&run.outputs[s], &inputs).is_ok()
    })
}

/// Classifies a completed frame from the deployed mechanism's observables
/// plus the campaign's oracle (stage-wise CPU references over the data
/// that actually flowed).
fn classify(
    pipeline: &Pipeline,
    run: &PipelineRun,
    activated: bool,
    misroute: bool,
    diverse: bool,
) -> PipelineTrialOutcome {
    if !activated {
        return PipelineTrialOutcome::NotActivated;
    }
    if run.failstop().is_some() || run.deadline_miss {
        return PipelineTrialOutcome::Detected;
    }
    if misroute {
        // Latent diversity loss: outputs stay correct, so frame outcomes
        // cannot classify it — the inter-stage self-test and the
        // diversity monitor are the mechanisms on trial.
        return if run.bist_failed > 0 || !diverse {
            PipelineTrialOutcome::Detected
        } else {
            PipelineTrialOutcome::UndetectedFailure
        };
    }
    if !outputs_verify(pipeline, run) {
        return PipelineTrialOutcome::UndetectedFailure;
    }
    delivered(std::iter::once(run))
}

/// What one pipeline trial leaves to count.
#[derive(Debug)]
enum TrialRecord {
    /// A single frame's run.
    Frame(PipelineRun),
    /// A limp-home mission's report.
    Mission(LimpHomeReport),
}

type PipelineTrial = (PipelineTrialOutcome, TrialRecord);

/// A resolved pipeline campaign cell: its pipeline, plan and drawn models,
/// and what its one fault-free mission of `frames` frames recorded.
struct PipelineCell {
    gpu: GpuConfig,
    pipeline: Pipeline,
    mode: RedundancyMode,
    frame_plan: PipelinePlan,
    opts: FrameOptions,
    frames: u32,
    misroute: bool,
    models: Vec<FaultModel>,
    /// The fault-free mission's frame entries 1..frames, which missions
    /// resume from (none for the from-zero oracle).
    prefixes: Vec<FramePrefix>,
    /// The fault-free mission's per-SM busy intervals.
    busy: BusyIntervals,
    /// The fault-free mission as a trial record.
    fault_free: PipelineTrial,
    /// The cell's report with nothing counted yet.
    report: PipelineCampaignReport,
}

/// Resolves `spec` into its cell. One fault-free mission of the cell's
/// frames, on a fresh device, yields the frame makespan, the frame entries
/// trials resume from and the busy intervals that prove fault windows idle.
/// It runs without the inter-stage self-tests of misroute cells, whose
/// models are never proved idle and arm at cycle 0, so they never resume.
fn resolve(
    cfg: &CampaignConfig,
    reg: &PipelineRegistry,
    spec: &PipelineCampaignSpec,
) -> Result<PipelineCell, PipelineCampaignError> {
    let misroute = matches!(spec.fault, FaultSpec::Misroute);
    if misroute && spec.frames > 1 {
        return Err(CampaignError::Execution(
            "misroute faults are classified per frame; limp-home missions take value-corruption \
             faults only"
                .to_string(),
        )
        .into());
    }
    let pipeline = reg
        .build(&spec.pipeline, spec.scale)
        .ok_or_else(|| PipelineCampaignError::UnknownPipeline(spec.pipeline.clone()))?;
    let mode = policy_mode(spec.policy, spec.replicas, cfg.gpu.num_sms)?;
    let frame_plan = plan(&cfg.gpu, &pipeline, &mode)?;
    let opts = spec.frame_options();
    let frames = spec.frames.max(1);
    let no_bist = FrameOptions {
        interstage_bist: false,
        ..opts
    };
    let (mission, prefixes, busy) = record_fault_free_mission(
        &cfg.gpu,
        &pipeline,
        &mode,
        &frame_plan,
        no_bist,
        frames as usize,
    )?;
    // The fault-free frame under the cell's executor: its makespan is both
    // the executor-comparison observable and the fault sampling window.
    // Multi-frame missions draw the fault's arming time across the whole
    // mission window (frames × the fault-free frame), so a permanent fault
    // may manifest in any frame k and the remaining frames must limp home.
    let frame_makespan = mission.frames[0].makespan();
    let models = draw_models(
        cfg,
        spec.fault,
        frame_makespan.saturating_mul(u64::from(frames)),
    );
    let report = PipelineCampaignReport {
        pipeline: spec.pipeline.clone(),
        policy: mode.policy_kind().label().to_string(),
        fault: spec.fault.label(),
        replicas: mode.replicas(),
        exec: spec.exec.label(),
        stages: pipeline.len() as u32,
        fault_free_makespan: frame_makespan,
        // The budget the cell's executor actually enforced.
        e2e_deadline: e2e_budget(&frame_plan, opts),
        serial_sum_deadline: frame_plan.ftti.serial_sum(),
        bandwidth_bytes: frame_plan.frame_bandwidth_bytes,
        trials: cfg.trials,
        frames,
        ..PipelineCampaignReport::default()
    };
    Ok(PipelineCell {
        gpu: cfg.gpu.clone(),
        pipeline,
        mode,
        frame_plan,
        opts,
        frames,
        misroute,
        models,
        prefixes,
        busy,
        // A one-frame mission counts exactly as its frame does.
        fault_free: (
            PipelineTrialOutcome::NotActivated,
            TrialRecord::Mission(mission),
        ),
        report,
    })
}

impl CellSubject for PipelineCell {
    type Runner = (PipelineCampaignRunner, DegradedPlans);
    type Trial = PipelineTrial;
    type Tally = PipelineCampaignReport;
    type Error = PipelineError;

    fn fault_free(&self) -> &PipelineTrial {
        &self.fault_free
    }

    fn runner(&self) -> Self::Runner {
        let runner = PipelineCampaignRunner {
            gpu: Gpu::new(self.gpu.clone()),
        };
        (runner, DegradedPlans::default())
    }

    /// One trial of `model`, a single frame or a limp-home mission resumed
    /// from the latest prefix at or before its arm cycle.
    fn run(
        &self,
        (runner, plans): &mut Self::Runner,
        model: FaultModel,
    ) -> Result<PipelineTrial, PipelineError> {
        if self.frames > 1 {
            let (outcome, rep) = runner.run_limp_trial_with(
                &self.pipeline,
                &self.mode,
                &self.frame_plan,
                self.opts,
                self.frames,
                model,
                plans,
                &self.prefixes,
            )?;
            Ok((outcome, TrialRecord::Mission(rep)))
        } else {
            let (outcome, run) = runner.run_trial(
                &self.pipeline,
                &self.mode,
                &self.frame_plan,
                self.opts,
                self.misroute,
                model,
            )?;
            Ok((outcome, TrialRecord::Frame(run)))
        }
    }

    fn tally(&self) -> PipelineCampaignReport {
        self.report.clone()
    }

    fn count(report: &mut PipelineCampaignReport, (outcome, record): &PipelineTrial) {
        report.add(*outcome, record);
    }
}

/// The one-worker reference: one runner and one degraded-plan memo run
/// every trial in draw order in the calling thread, every mission from
/// cycle 0 and no trial skipped. This is the report
/// [`run_pipeline_campaign`] must reproduce at every worker count, so
/// `campaign_matrix --check-serial` diffs resumed missions and skipped idle
/// windows against from-zero ones.
///
/// # Errors
///
/// As [`run_pipeline_campaign`].
pub fn run_pipeline_campaign_serial(
    cfg: &CampaignConfig,
    reg: &PipelineRegistry,
    spec: &PipelineCampaignSpec,
) -> Result<PipelineCampaignReport, PipelineCampaignError> {
    let mut cell = resolve(cfg, reg, spec)?;
    cell.prefixes.clear();
    let mut runner = cell.runner();
    let mut report = cell.tally();
    for &model in &cell.models {
        let (outcome, record) = cell.run(&mut runner, model)?;
        report.add(outcome, &record);
    }
    Ok(report)
}

/// Runs a pipeline campaign on the cell engine
/// ([`higpu_faults::campaign::run_cell`]) over
/// [`CampaignConfig::resolved_workers`] threads. Bit-identical to
/// [`run_pipeline_campaign_serial`] at every worker count: all randomness
/// is pre-drawn, every trial is a pure function of its model, and the
/// reduction is a sum of order-independent counts. A model whose window the
/// fault-free mission proves idle counts as that mission without running,
/// and a limp-home mission resumes at the last fault-free frame entry
/// before its fault arms instead of re-simulating the frames before it.
///
/// # Errors
///
/// Unknown pipeline / unsupported fault / unsupported replica count;
/// otherwise propagates device/protocol errors from any trial. When
/// several trials fail, the error of the lowest-numbered trial is returned.
pub fn run_pipeline_campaign(
    cfg: &CampaignConfig,
    reg: &PipelineRegistry,
    spec: &PipelineCampaignSpec,
) -> Result<PipelineCampaignReport, PipelineCampaignError> {
    let cell = resolve(cfg, reg, spec)?;
    // A fault-free frame runs inside its calibrated budgets, so no
    // watchdog cuts the fault-free mission.
    Ok(run_cell(
        &cell,
        &cell.models,
        &cell.busy,
        None,
        cfg.resolved_workers(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::full_pipeline_registry;

    fn small_cfg(trials: u32) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed: 42,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn unknown_pipelines_and_replica_counts_are_rejected() {
        let reg = full_pipeline_registry();
        let cfg = small_cfg(1);
        let unknown = PipelineCampaignSpec::new("no_such", PolicyKind::Srrs, FaultSpec::Permanent);
        assert!(matches!(
            run_pipeline_campaign(&cfg, &reg, &unknown),
            Err(PipelineCampaignError::UnknownPipeline(_))
        ));
        let one_replica =
            PipelineCampaignSpec::new("ad_pipeline", PolicyKind::Srrs, FaultSpec::Permanent)
                .with_replicas(1);
        assert!(matches!(
            run_pipeline_campaign(&cfg, &reg, &one_replica),
            Err(PipelineCampaignError::Campaign(
                CampaignError::UnsupportedReplicas { .. }
            ))
        ));
    }

    #[test]
    fn misroute_missions_are_rejected() {
        // Mission classification ignores the inter-stage self-test and the
        // diversity monitor, the only detectors of a misroute, so the same
        // draws would count Detected as frames and Masked as missions.
        let reg = full_pipeline_registry();
        let cfg = small_cfg(2);
        let spec =
            PipelineCampaignSpec::new("sensor_fusion", PolicyKind::Srrs, FaultSpec::Misroute)
                .with_frames(4);
        let rejected = |r: Result<PipelineCampaignReport, PipelineCampaignError>| {
            matches!(
                r,
                Err(PipelineCampaignError::Campaign(CampaignError::Execution(_)))
            )
        };
        assert!(rejected(run_pipeline_campaign(&cfg, &reg, &spec)));
        assert!(rejected(run_pipeline_campaign_serial(&cfg, &reg, &spec)));
    }

    #[test]
    fn misroute_frames_classify_through_the_interstage_bist() {
        let reg = full_pipeline_registry();
        let cfg = small_cfg(2);
        for exec in [ExecMode::Serial, ExecMode::Overlapped] {
            let spec =
                PipelineCampaignSpec::new("ad_pipeline", PolicyKind::Srrs, FaultSpec::Misroute)
                    .with_exec(exec);
            assert!(spec.frame_options().interstage_bist);
            let r = run_pipeline_campaign(&cfg, &reg, &spec).expect("misroute is classified");
            assert_eq!(
                r.detected,
                r.trials,
                "every misrouted frame caught by the inter-stage self-test ({}): {r:?}",
                exec.label()
            );
            assert_eq!(r.undetected, 0);
        }
    }

    #[test]
    fn multi_frame_permanent_campaign_quarantines_and_limps_home() {
        use higpu_sim::config::GpuConfig;
        let reg = full_pipeline_registry();
        let mut gpu = GpuConfig::wide_10sm();
        gpu.global_mem_bytes = 2 * 1024 * 1024;
        let cfg = CampaignConfig {
            trials: 3,
            seed: 7,
            gpu,
            ..CampaignConfig::default()
        };
        let spec =
            PipelineCampaignSpec::new("sensor_fusion", PolicyKind::Srrs, FaultSpec::Permanent)
                .with_frames(4);
        let r = run_pipeline_campaign(&cfg, &reg, &spec).expect("mission campaign");
        assert_eq!(r.frames, 4);
        assert_eq!(r.undetected, 0, "the ASIL-D fence holds over missions");
        assert_eq!(
            r.limp_home_miss, 0,
            "re-planned budgets hold every degraded frame: {r:?}"
        );
        assert!(
            r.quarantined > 0,
            "a permanent fault inside the mission window gets convicted: {r:?}"
        );
        assert!(r.degraded_frames > 0, "post-quarantine frames limp home");
        // The inflation is a *reported* observable, not bounded below by
        // 1.0: losing an SM shifts the SRRS stagger alignment, which can
        // make the shrunken device marginally faster on a branchy DAG.
        // It must still be the same order of magnitude as nominal.
        let inflation = r
            .degraded_makespan_inflation()
            .expect("degraded frames ran");
        assert!(
            (0.5..2.0).contains(&inflation),
            "degraded frames stay commensurate with nominal: {r:?}"
        );
        assert!(r.mean_frames_to_diagnosis().expect("diagnosed") >= 1.0);
        assert_eq!(r.limp_home_miss_rate(), Some(0.0));
        // The parallel engine must agree bit-for-bit on missions too.
        let serial = run_pipeline_campaign_serial(&cfg, &reg, &spec).expect("serial oracle");
        assert_eq!(r, serial);
        let par = run_pipeline_campaign(
            &CampaignConfig {
                workers: 3,
                ..cfg.clone()
            },
            &reg,
            &spec,
        )
        .expect("parallel engine");
        assert_eq!(r, par);
    }

    /// The frame-boundary fast-forward fence: every mission the engine
    /// resumes from a fault-free frame prefix must equal the from-zero
    /// oracle, outcome and report, and resume exactly where it should.
    #[test]
    fn fast_forwarded_missions_equal_from_zero_missions() {
        use higpu_sim::config::GpuConfig;
        let reg = full_pipeline_registry();
        let mut gpu = GpuConfig::wide_10sm();
        gpu.global_mem_bytes = 2 * 1024 * 1024;
        let cfg = CampaignConfig {
            trials: 2,
            seed: 11,
            gpu,
            ..CampaignConfig::default()
        };
        let mut restored = 0;
        for pipeline in ["ad_pipeline", "sensor_fusion"] {
            for exec in [ExecMode::Serial, ExecMode::Overlapped] {
                for fault in [
                    FaultSpec::Transient { duration: 400 },
                    FaultSpec::Droop { duration: 400 },
                    FaultSpec::Permanent,
                ] {
                    let spec = PipelineCampaignSpec::new(pipeline, PolicyKind::Srrs, fault)
                        .with_exec(exec)
                        .with_frames(4);
                    let r = resolve(&cfg, &reg, &spec).expect("cell resolves");
                    let entries: Vec<u64> = r.prefixes.iter().map(FramePrefix::cycle).collect();
                    assert_eq!(entries.len(), 3, "one prefix per frame entry 1..4");
                    assert!(entries.windows(2).all(|w| w[0] < w[1]), "{entries:?}");
                    let [c1, c2, c3] = [entries[0], entries[1], entries[2]];
                    // Hand-built models at the boundaries, each with the
                    // frame entry it must resume from (0: from zero).
                    let edges = match fault {
                        FaultSpec::Transient { duration } => vec![
                            // Inside frame 0: nothing to skip.
                            (
                                FaultModel::TransientSm {
                                    sm: 1,
                                    start: c1 / 2,
                                    duration,
                                    bit: 3,
                                },
                                0,
                            ),
                            // Exactly at a frame entry.
                            (
                                FaultModel::TransientSm {
                                    sm: 2,
                                    start: c2,
                                    duration,
                                    bit: 4,
                                },
                                c2,
                            ),
                        ],
                        // A window straddling frame 3's entry resumes at
                        // frame 2.
                        FaultSpec::Droop { duration } => vec![(
                            FaultModel::VoltageDroop {
                                start: c3 - duration / 2,
                                duration,
                                bit: 6,
                            },
                            c2,
                        )],
                        _ => vec![
                            (
                                FaultModel::PermanentSm {
                                    sm: 3,
                                    from_cycle: c2,
                                    bit: 5,
                                },
                                c2,
                            ),
                            // One cycle before the entry: one frame earlier.
                            (
                                FaultModel::PermanentSm {
                                    sm: 3,
                                    from_cycle: c2 - 1,
                                    bit: 5,
                                },
                                c1,
                            ),
                        ],
                    };
                    let drawn = r.models.iter().map(|&m| {
                        let at = entries.iter().rev().find(|&&c| c <= m.arm_cycle());
                        (m, at.copied().unwrap_or(0))
                    });
                    let mut plans = DegradedPlans::default();
                    for (model, resume_at) in edges.into_iter().chain(drawn) {
                        let mut ff = PipelineCampaignRunner::new(&cfg);
                        let got = ff
                            .run_limp_trial_with(
                                &r.pipeline,
                                &r.mode,
                                &r.frame_plan,
                                r.opts,
                                spec.frames,
                                model,
                                &mut plans,
                                &r.prefixes,
                            )
                            .expect("fast-forwarded mission");
                        assert_eq!(
                            ff.gpu.restore_skipped_cycles(),
                            resume_at,
                            "{pipeline}/{}: {model:?} resumed at the wrong frame entry",
                            exec.label()
                        );
                        restored += u32::from(resume_at > 0);
                        let want = PipelineCampaignRunner::new(&cfg)
                            .run_limp_trial(
                                &r.pipeline,
                                &r.mode,
                                &r.frame_plan,
                                r.opts,
                                spec.frames,
                                model,
                            )
                            .expect("from-zero mission");
                        assert_eq!(got, want, "{pipeline}/{}: {model:?}", exec.label());
                    }
                }
            }
        }
        // 16 hand-built models restore by construction; drawn ones must too.
        assert!(restored > 16, "drawn missions never resumed: {restored}");
    }

    #[test]
    fn report_rates_and_evidence() {
        let r = PipelineCampaignReport {
            pipeline: "p".into(),
            policy: "SRRS".into(),
            fault: "transient-sm",
            replicas: 2,
            exec: "overlapped",
            stages: 3,
            fault_free_makespan: 100_000,
            e2e_deadline: 830_000,
            serial_sum_deadline: 900_000,
            bandwidth_bytes: 64 * 1024,
            trials: 10,
            not_activated: 1,
            masked: 2,
            corrected: 1,
            recovered: 4,
            detected: 2,
            undetected: 0,
            deadline_miss: 1,
            retries_attempted: 6,
            retries_failed: 2,
            no_slack: 0,
            frames: 1,
            quarantined: 0,
            limp_home_miss: 0,
            degraded_frames: 0,
            degraded_makespan_sum: 0,
            frames_to_diagnosis_sum: 0,
            limp_deadline_miss: 0,
        };
        assert_eq!(r.recovery_rate(), Some(4.0 / 6.0));
        assert!((r.deadline_miss_rate() - 0.1).abs() < 1e-12);
        assert_eq!(r.coverage(), Some(1.0));
        let e = r.evidence();
        assert_eq!(e.activated, 9);
        assert_eq!(e.recovered, 4);
        assert_eq!(e.coverage(), Some(1.0));
        assert_eq!(e.fail_operational_rate(), Some(5.0 / 7.0));
    }
}
