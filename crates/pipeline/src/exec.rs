//! Pipeline execution: per-stage deadline accounting, redundant stage
//! offloads, and bounded **in-FTTI re-execution recovery** — with two
//! interchangeable frame executors.
//!
//! A pipeline frame executes its stage DAG on one GPU; the device clock is
//! the frame timeline. Each stage runs redundantly (the NMR protocol of
//! [`higpu_core::redundancy`]) under a watchdog limit derived from its
//! [`higpu_core::ftti::PipelineFtti`] budget. A stage whose vote ties
//! (Detected) or whose watchdog fires (timing violation) is **retried with
//! fresh replicas on the same device** — provided the remaining end-to-end
//! slack still covers the retry *with the critical path's downstream needs
//! reserved* ([`PipelineFtti::allows_retry`]). A clean retry turns the
//! detection into [`StageStatus::Recovered`]: fail-operational. A retry
//! that fails again, or a detection with no remaining slack, is a
//! fail-stop ([`StageStatus::FailStop`]) — the frame is abandoned within
//! the FTTI, which is the safe-state transition the deadline monitor
//! guarantees.
//!
//! Two executors implement this contract ([`ExecMode`]):
//!
//! * [`ExecMode::Overlapped`] (the default) — a ready-set scheduler that
//!   runs **independent DAG branches concurrently on disjoint SM
//!   partitions** of the one device (see [`crate::overlap`]), shrinking
//!   the end-to-end makespan to the critical path;
//! * [`ExecMode::Serial`] — the pre-concurrency one-stage-at-a-time
//!   executor, kept as the reference oracle: on fault-free runs both
//!   executors produce bit-identical voted outputs (test-fenced).

use crate::graph::Pipeline;
use higpu_core::bist::scheduler_bist;
use higpu_core::ftti::PipelineFtti;
use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::{Gpu, SimError};
use higpu_sim::partition::SmRange;
use higpu_telemetry::{EventKind, NO_SM};
use higpu_workloads::{RedundantSession, SessionError};
use std::fmt;

/// Which frame executor runs the stage DAG.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Independent DAG branches overlap on disjoint SM partitions (the
    /// concurrent ready-set executor of [`crate::overlap`]).
    #[default]
    Overlapped,
    /// One stage at a time on the whole device — the reference oracle.
    Serial,
}

impl ExecMode {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Overlapped => "overlapped",
            ExecMode::Serial => "serial",
        }
    }
}

/// How much re-execution a pipeline frame may attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries allowed per stage (0 disables recovery: every detection is
    /// a fail-stop, the pre-pipeline DCLS behaviour).
    pub max_retries_per_stage: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries_per_stage: 1,
        }
    }
}

impl RecoveryPolicy {
    /// No re-execution: detections fail-stop immediately.
    pub fn disabled() -> Self {
        Self {
            max_retries_per_stage: 0,
        }
    }
}

/// Per-frame execution options: executor, recovery budget, self-tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameOptions {
    /// Which executor runs the frame.
    pub exec: ExecMode,
    /// The re-execution budget.
    pub recovery: RecoveryPolicy,
    /// Run the scheduler BIST (paper Sec. IV-C) between stages — whenever a
    /// stage has delivered and the device is idle — and once more at frame
    /// end. The canary rounds consume FTTI slack, so this is off by
    /// default; scheduler-misroute campaigns switch it on to convert
    /// latent diversity loss into a detection.
    pub interstage_bist: bool,
}

impl FrameOptions {
    /// The overlapped executor with the default recovery budget.
    pub fn overlapped() -> Self {
        Self::default()
    }

    /// The serial reference executor with the default recovery budget.
    pub fn serial() -> Self {
        Self {
            exec: ExecMode::Serial,
            ..Self::default()
        }
    }

    /// The same options under `exec`.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }
}

/// Why a stage fail-stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// The final permitted attempt still tied or timed out (e.g. a
    /// permanent fault corrupts every re-execution identically).
    RetryExhausted,
    /// A detection occurred but the remaining end-to-end slack no longer
    /// covers a re-execution — recovery would blow the FTTI, so the frame
    /// stops instead.
    NoSlack,
}

/// What happened to one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// First attempt, unanimous replicas.
    Clean,
    /// First attempt; the N ≥ 3 vote outvoted a minority corruption in
    /// place (forward recovery, no re-execution).
    Corrected,
    /// A detected attempt was re-executed within the remaining FTTI slack
    /// and the retry succeeded — fail-operational backward recovery.
    Recovered,
    /// The stage could not deliver a trustworthy output in time.
    FailStop(FailReason),
}

impl StageStatus {
    /// True when the stage delivered a consumable output.
    pub fn delivered(&self) -> bool {
        !matches!(self, StageStatus::FailStop(_))
    }
}

/// Numeric outcome carried in the `aux` word of
/// [`EventKind::StageFinish`] telemetry events: 0 clean, 1 corrected,
/// 2 recovered, 3 fail-stop.
pub(crate) fn status_code(status: StageStatus) -> u64 {
    match status {
        StageStatus::Clean => 0,
        StageStatus::Corrected => 1,
        StageStatus::Recovered => 2,
        StageStatus::FailStop(_) => 3,
    }
}

/// The recorded timeline entry of one executed stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage index in the pipeline.
    pub stage: usize,
    /// Stage instance name.
    pub name: &'static str,
    /// Cycle the stage (first attempt) started.
    pub start: u64,
    /// Cycle the stage finished (successfully or not).
    pub end: u64,
    /// The stage's watchdog budget in cycles.
    pub budget: u64,
    /// Budget left unspent: `budget − (end − start)` (0 when overrun).
    pub slack: u64,
    /// Execution attempts (1 = no retry).
    pub attempts: u32,
    /// The SM partition the stage executed on (the whole device under the
    /// serial executor; a reserved disjoint range under the overlapped
    /// one).
    pub partition: SmRange,
    /// Host→device bytes uploaded by this stage per the DCLS protocol
    /// (every input transferred once per replica), summed over attempts.
    pub bytes_uploaded: u64,
    /// Device→host bytes read back (all replica copies fetched for every
    /// compare/vote), summed over attempts.
    pub bytes_read_back: u64,
    /// Outcome.
    pub status: StageStatus,
}

/// The per-frame deadline plan: fault-free per-stage makespans measured by
/// a calibration run, and the FTTI budget set derived from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinePlan {
    /// Fault-free redundant makespan per stage, in stage order (measured
    /// one stage at a time on the whole device).
    pub stage_makespans: Vec<u64>,
    /// The derived budget set: per-stage budgets plus the critical-path
    /// end-to-end FTTI over the stage DAG.
    pub ftti: PipelineFtti,
    /// Fault-free end-to-end makespan of the serial calibration frame.
    pub fault_free_makespan: u64,
    /// Host↔device bytes one fault-free frame moves per the DCLS protocol
    /// (uploads + read-backs over all stages and replicas) — the
    /// measurement baseline for device-resident inter-stage buffers.
    pub frame_bandwidth_bytes: u64,
}

/// The result of one pipeline frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineRun {
    /// Timeline of every executed stage, in completion order (equal to
    /// stage order under the serial executor; overlapped branches complete
    /// in makespan order).
    pub timings: Vec<StageTiming>,
    /// Voted output words per stage, indexed by stage (empty for a stage
    /// that never delivered).
    pub outputs: Vec<Vec<u32>>,
    /// Device cycle when the frame ended.
    pub end_cycle: u64,
    /// The frame exceeded its end-to-end FTTI (always accompanied by a
    /// fail-stop: the deadline monitor never lets a frame run on past it).
    pub deadline_miss: bool,
    /// Re-executions attempted across all stages.
    pub retries_attempted: u32,
    /// Re-executions that themselves tied or timed out.
    pub retries_failed: u32,
    /// Detections that could not be retried for lack of slack.
    pub no_slack_failures: u32,
    /// Reads on which an N ≥ 3 vote corrected a minority corruption,
    /// summed over all successful attempts.
    pub corrected_reads: usize,
    /// Host↔device bytes this frame actually moved (uploads + read-backs,
    /// all replicas, all attempts).
    pub bandwidth_bytes: u64,
    /// Scheduler BIST rounds run between stages
    /// ([`FrameOptions::interstage_bist`]).
    pub bist_rounds: u32,
    /// BIST rounds that found a placement disagreement — a scheduler
    /// (mis)behaviour caught before it could become latent.
    pub bist_failed: u32,
}

impl PipelineRun {
    pub(crate) fn new(stages: usize, frame_zero: u64) -> Self {
        Self {
            timings: Vec::with_capacity(stages),
            outputs: vec![Vec::new(); stages],
            end_cycle: frame_zero,
            deadline_miss: false,
            retries_attempted: 0,
            retries_failed: 0,
            no_slack_failures: 0,
            corrected_reads: 0,
            bandwidth_bytes: 0,
            bist_rounds: 0,
            bist_failed: 0,
        }
    }

    /// The fail-stopped stage, if any.
    pub fn failstop(&self) -> Option<(usize, FailReason)> {
        self.timings.iter().find_map(|t| match t.status {
            StageStatus::FailStop(r) => Some((t.stage, r)),
            _ => None,
        })
    }

    /// True when every stage delivered (the frame is fail-operational).
    pub fn completed(&self) -> bool {
        self.failstop().is_none() && !self.deadline_miss
    }

    /// Stages recovered by re-execution.
    pub fn recovered_stages(&self) -> u32 {
        self.count(StageStatus::Recovered)
    }

    /// Stages corrected in place by the vote.
    pub fn corrected_stages(&self) -> u32 {
        self.count(StageStatus::Corrected)
    }

    /// The timeline entry of `stage`, if it executed.
    pub fn timing_of(&self, stage: usize) -> Option<&StageTiming> {
        self.timings.iter().find(|t| t.stage == stage)
    }

    fn count(&self, status: StageStatus) -> u32 {
        self.timings.iter().filter(|t| t.status == status).count() as u32
    }
}

/// Errors of pipeline execution (never produced by mere value corruption —
/// detections and timing violations are *results*, not errors).
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Device/protocol error from a stage.
    Session(SessionError),
    /// The pipeline has no stages.
    Empty,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Session(e) => write!(f, "stage failed: {e}"),
            PipelineError::Empty => write!(f, "pipeline has no stages"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<SessionError> for PipelineError {
    fn from(e: SessionError) -> Self {
        PipelineError::Session(e)
    }
}

impl From<RedundancyError> for PipelineError {
    fn from(e: RedundancyError) -> Self {
        PipelineError::Session(SessionError::Redundancy(e))
    }
}

/// True when the error is the watchdog firing (a *timing detection*, not a
/// failure), regardless of which wrapper it arrived in.
pub(crate) fn is_deadline_cutoff(e: &SessionError) -> bool {
    matches!(
        e,
        SessionError::Sim(SimError::DeadlineExceeded { .. })
            | SessionError::Redundancy(RedundancyError::Sim(SimError::DeadlineExceeded { .. }))
    )
}

/// One redundant attempt of one stage under a watchdog limit.
enum Attempt {
    /// Unanimous output.
    Clean(Vec<u32>),
    /// Every disagreement outvoted; the voted output plus corrected reads.
    Corrected(Vec<u32>, usize),
    /// At least one read tied (two-replica mismatch or an unresolvable
    /// N-way split) — the NMR monitor detected the fault.
    Tied,
    /// The watchdog fired; in-flight work was cancelled.
    Timeout,
}

/// Host↔device traffic of one attempt (uploads, read-backs).
type AttemptBytes = (u64, u64);

fn run_stage_attempt(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    pipeline: &Pipeline,
    stage: usize,
    inputs: &[&[u32]],
    limit: Option<u64>,
) -> Result<(Attempt, AttemptBytes), PipelineError> {
    gpu.set_cycle_limit(limit);
    // The byte counters survive an aborted attempt: traffic moved before a
    // watchdog cutoff really crossed the host interface and must stay in
    // the stage's accounting (the overlapped executor keeps a cancelled
    // attempt's partial counts the same way).
    let mut bytes: AttemptBytes = (0, 0);
    let result = (|bytes: &mut AttemptBytes| -> Result<(Vec<u32>, usize, usize), SessionError> {
        let mut exec = RedundantExecutor::new(gpu, mode.clone())?;
        let mut session = RedundantSession::tolerant(&mut exec);
        let out = pipeline.stages()[stage].program.run(&mut session, inputs);
        *bytes = (session.bytes_uploaded(), session.bytes_read_back());
        Ok((out?, session.tied_reads(), session.corrected_reads()))
    })(&mut bytes);
    gpu.set_cycle_limit(None);
    match result {
        Ok((out, 0, 0)) => Ok((Attempt::Clean(out), bytes)),
        Ok((out, 0, corrected)) => Ok((Attempt::Corrected(out, corrected), bytes)),
        Ok((_, _tied, _)) => Ok((Attempt::Tied, bytes)),
        Err(e) if is_deadline_cutoff(&e) => {
            // The deadline monitor killed the offload; discard the dead
            // work and keep the clock — the spent cycles stay on the FTTI.
            gpu.cancel_in_flight();
            Ok((Attempt::Timeout, bytes))
        }
        Err(e) => Err(e.into()),
    }
}

/// Calibrates the per-stage deadline plan: one fault-free redundant frame
/// on a fresh device (stages one at a time on the whole device), measuring
/// each stage's makespan and per-protocol byte traffic, and deriving the
/// budget set — per-stage budgets plus the **critical-path** end-to-end
/// FTTI over the pipeline's DAG — from the stages' declared FTTI
/// multipliers.
///
/// # Errors
///
/// [`PipelineError::Empty`] for a stageless pipeline; otherwise propagates
/// device/protocol errors.
pub fn plan(
    gpu_cfg: &GpuConfig,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
) -> Result<PipelinePlan, PipelineError> {
    plan_on(&mut Gpu::new(gpu_cfg.clone()), pipeline, mode)
}

/// Re-calibrates the deadline plan on a **degraded** device: a fresh GPU
/// of `gpu_cfg` with `quarantined` SMs taken out of service. This is the
/// limp-home re-planning step — after a permanent-fault diagnosis the
/// stage makespans stretch (fewer SMs share the round-robin) and every
/// budget, including the critical-path end-to-end FTTI, must be re-derived
/// for the shrunken device before the next frame may be admitted.
///
/// Quarantining out-of-range SM ids is a no-op (the degraded plan of a
/// narrower device than the diagnosis assumed is still well-defined).
///
/// # Errors
///
/// [`PipelineError::Empty`] for a stageless pipeline; device/protocol
/// errors when the residual capacity cannot host the redundant stages
/// (e.g. fewer healthy SMs than replicas) — the caller's cue to fail-stop.
pub fn plan_degraded(
    gpu_cfg: &GpuConfig,
    quarantined: &[usize],
    pipeline: &Pipeline,
    mode: &RedundancyMode,
) -> Result<PipelinePlan, PipelineError> {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    for &sm in quarantined {
        if sm < gpu.config().num_sms {
            gpu.quarantine_sm(sm);
        }
    }
    plan_on(&mut gpu, pipeline, mode)
}

/// [`plan`] on a caller-provided device: calibrates the fault-free frame
/// on `gpu` exactly as the device stands — including any quarantined SMs —
/// measuring makespans as device-clock deltas from entry. The device is
/// left non-idle-clean (kernels ran, memory was allocated); calibrate on a
/// scratch device, not mid-mission.
pub fn plan_on(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
) -> Result<PipelinePlan, PipelineError> {
    if pipeline.is_empty() {
        return Err(PipelineError::Empty);
    }
    let frame_zero = gpu.cycle();
    let mut outputs: Vec<Vec<u32>> = Vec::with_capacity(pipeline.len());
    let mut makespans = Vec::with_capacity(pipeline.len());
    let mut bandwidth = 0u64;
    for (s, stage) in pipeline.stages().iter().enumerate() {
        let inputs: Vec<&[u32]> = stage.deps.iter().map(|&d| outputs[d].as_slice()).collect();
        let start = gpu.cycle();
        match run_stage_attempt(gpu, mode, pipeline, s, &inputs, None)? {
            (Attempt::Clean(out), (up, down)) => {
                bandwidth += up + down;
                outputs.push(out);
            }
            // Fault-free replicas can only disagree through a protocol
            // bug; surface it rather than calibrating on garbage.
            _ => {
                return Err(PipelineError::Session(SessionError::ReplicaMismatch {
                    first_word: 0,
                }))
            }
        }
        makespans.push(gpu.cycle() - start);
    }
    let ftti = PipelineFtti::from_dag(
        makespans
            .iter()
            .zip(pipeline.stages())
            .map(|(&m, stage)| (m, stage.program.ftti_multiplier())),
        pipeline.stages().iter().map(|s| s.deps.clone()).collect(),
    );
    Ok(PipelinePlan {
        fault_free_makespan: gpu.cycle() - frame_zero,
        stage_makespans: makespans,
        ftti,
        frame_bandwidth_bytes: bandwidth,
    })
}

/// Executes one pipeline frame on `gpu` under `plan`'s deadlines, with
/// bounded in-FTTI re-execution recovery and the executor selected by
/// `opts` ([`ExecMode`]).
///
/// The GPU is used as-is (campaign runners reset it between frames and may
/// have armed a fault hook); the device clock at entry is the frame's
/// zero. Stage deadlines and the end-to-end FTTI are enforced with the
/// device watchdog; a cut-off offload is cancelled (the clock keeps the
/// spent cycles) and, slack permitting, re-executed.
///
/// # Errors
///
/// Propagates device/protocol errors ([`SimError::Stalled`] cannot be
/// caused by value corruption, only by policy bugs).
pub fn run_pipeline(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    plan: &PipelinePlan,
    opts: FrameOptions,
) -> Result<PipelineRun, PipelineError> {
    if pipeline.is_empty() {
        return Err(PipelineError::Empty);
    }
    match opts.exec {
        ExecMode::Serial => run_serial(gpu, pipeline, mode, plan, opts),
        ExecMode::Overlapped => crate::overlap::run_overlapped(gpu, pipeline, mode, plan, opts),
    }
}

/// Runs the scheduler self-test between stages (the device must be idle);
/// records the round in `run`.
pub(crate) fn bist_round(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    run: &mut PipelineRun,
) -> Result<(), PipelineError> {
    let blocks = 2 * gpu.config().num_sms as u32;
    let report = scheduler_bist(gpu, mode.clone(), blocks)?;
    run.bist_rounds += 1;
    run.bist_failed += u32::from(!report.passed());
    Ok(())
}

/// The serial reference executor: stages one at a time on the whole
/// device, in topological order.
fn run_serial(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    plan: &PipelinePlan,
    opts: FrameOptions,
) -> Result<PipelineRun, PipelineError> {
    // The frame's FTTI is measured from the device clock at entry, so a
    // frame may start at any cycle (campaign runners reset to 0; a
    // periodic host re-enters with the clock running). A one-stage-at-a-
    // time executor is budgeted against the per-stage *sum*
    // ([`PipelineFtti::serial_sum`]) — it still owes every stage's budget
    // serially, where the overlapped executor owes only the critical path.
    // On chain pipelines the two budgets coincide.
    let frame_zero = gpu.cycle();
    let e2e_abs = frame_zero.saturating_add(plan.ftti.serial_sum());
    let whole = SmRange::whole(gpu.config().num_sms);
    let mut run = PipelineRun::new(pipeline.len(), frame_zero);
    for (s, stage) in pipeline.stages().iter().enumerate() {
        let inputs: Vec<&[u32]> = stage
            .deps
            .iter()
            .map(|&d| run.outputs[d].as_slice())
            .collect();
        let start = gpu.cycle();
        gpu.record_event(EventKind::StageStart, start, NO_SM, s as u64, 1);
        let budget = plan.ftti.stage_budgets[s];
        let mut attempts = 0u32;
        let mut stage_up = 0u64;
        let mut stage_down = 0u64;
        // Absolute attempt limit: the stage budget, capped by the frame's
        // absolute serial-sum FTTI.
        let serial_limit = |start: u64| start.saturating_add(budget).min(e2e_abs);
        let mut limit = serial_limit(start);
        let (status, output) = loop {
            attempts += 1;
            let (attempt, (up, down)) =
                run_stage_attempt(gpu, mode, pipeline, s, &inputs, Some(limit))?;
            stage_up += up;
            stage_down += down;
            let retrying = attempts > 1;
            match attempt {
                Attempt::Clean(out) => {
                    break if retrying {
                        (StageStatus::Recovered, out)
                    } else {
                        (StageStatus::Clean, out)
                    }
                }
                Attempt::Corrected(out, corrected) => {
                    run.corrected_reads += corrected;
                    break if retrying {
                        (StageStatus::Recovered, out)
                    } else {
                        (StageStatus::Corrected, out)
                    };
                }
                Attempt::Tied | Attempt::Timeout => {
                    if retrying {
                        run.retries_failed += 1;
                    }
                    if attempts > opts.recovery.max_retries_per_stage {
                        break (
                            StageStatus::FailStop(FailReason::RetryExhausted),
                            Vec::new(),
                        );
                    }
                    let now = gpu.cycle();
                    if !plan
                        .ftti
                        .allows_retry_serial(s, now - frame_zero, plan.stage_makespans[s])
                    {
                        run.no_slack_failures += 1;
                        break (StageStatus::FailStop(FailReason::NoSlack), Vec::new());
                    }
                    run.retries_attempted += 1;
                    gpu.record_event(
                        EventKind::StageRetry,
                        now,
                        NO_SM,
                        s as u64,
                        (attempts + 1) as u64,
                    );
                    // The retry gets a fresh stage budget, still capped by
                    // the frame's absolute end-to-end FTTI.
                    limit = serial_limit(now);
                }
            }
        };
        let end = gpu.cycle();
        gpu.record_event(
            EventKind::StageFinish,
            end,
            NO_SM,
            s as u64,
            status_code(status),
        );
        run.bandwidth_bytes += stage_up + stage_down;
        run.timings.push(StageTiming {
            stage: s,
            name: stage.name,
            start,
            end,
            budget,
            slack: budget.saturating_sub(end - start),
            attempts,
            partition: whole,
            bytes_uploaded: stage_up,
            bytes_read_back: stage_down,
            status,
        });
        let delivered = status.delivered();
        run.outputs[s] = output;
        if !delivered {
            break;
        }
        if opts.interstage_bist {
            // Between stages the device is idle: run the periodic
            // scheduler self-test so a latent misroute surfaces before the
            // next stage consumes this one's output.
            bist_round(gpu, mode, &mut run)?;
        }
    }
    run.end_cycle = gpu.cycle();
    run.deadline_miss = run.end_cycle > e2e_abs;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::ad_pipeline;
    use higpu_workloads::Scale;

    fn cfg() -> GpuConfig {
        let mut cfg = GpuConfig::paper_6sm();
        cfg.global_mem_bytes = 2 * 1024 * 1024;
        cfg
    }

    #[test]
    fn fault_free_serial_frame_is_clean_and_inside_every_budget() {
        let p = ad_pipeline(Scale::Campaign);
        let mode = RedundancyMode::srrs_default(6);
        let plan = plan(&cfg(), &p, &mode).expect("calibration");
        assert_eq!(plan.stage_makespans.len(), 3);
        assert_eq!(
            plan.ftti.end_to_end(),
            plan.ftti.stage_budgets.iter().sum::<u64>(),
            "a chain's critical path is the stage-budget sum"
        );
        assert_eq!(plan.ftti.end_to_end(), plan.ftti.serial_sum());
        assert!(plan.fault_free_makespan < plan.ftti.end_to_end());
        assert!(
            plan.frame_bandwidth_bytes > 0,
            "the DCLS protocol moves data"
        );

        let mut gpu = Gpu::new(cfg());
        let run =
            run_pipeline(&mut gpu, &p, &mode, &plan, FrameOptions::serial()).expect("frame runs");
        assert!(run.completed());
        assert_eq!(run.timings.len(), 3);
        for (t, &makespan) in run.timings.iter().zip(&plan.stage_makespans) {
            assert_eq!(t.status, StageStatus::Clean);
            assert_eq!(t.attempts, 1);
            assert_eq!(t.end - t.start, makespan, "plan matches execution");
            assert!(t.slack > 0);
            assert_eq!(t.partition, SmRange::whole(6), "serial owns the device");
            assert!(t.bytes_uploaded > 0 && t.bytes_read_back > 0);
        }
        assert_eq!(run.end_cycle, plan.fault_free_makespan);
        assert_eq!(
            run.bandwidth_bytes, plan.frame_bandwidth_bytes,
            "a fault-free frame moves exactly the calibrated traffic"
        );
        assert!(!run.deadline_miss);
        assert_eq!(run.bist_rounds, 0, "self-tests are opt-in");
        // Outputs verify stage-wise against the CPU references.
        let refs = p.reference_outputs();
        for (s, stage) in p.stages().iter().enumerate() {
            let inputs: Vec<&[u32]> = stage
                .deps
                .iter()
                .map(|&d| run.outputs[d].as_slice())
                .collect();
            stage
                .program
                .verify(&run.outputs[s], &inputs)
                .unwrap_or_else(|e| panic!("stage {s} ({}) wrong: {e}", stage.name));
        }
        assert_eq!(refs.len(), 3);
    }

    #[test]
    fn zero_budget_stage_fails_stop_without_slack() {
        // A pipeline whose budgets are artificially exhausted: the first
        // stage's watchdog fires immediately and no slack funds a retry.
        let p = ad_pipeline(Scale::Campaign);
        let mode = RedundancyMode::srrs_default(6);
        let mut plan = plan(&cfg(), &p, &mode).expect("calibration");
        plan.ftti.stage_budgets = vec![1; plan.stage_makespans.len()];
        let mut gpu = Gpu::new(cfg());
        let run =
            run_pipeline(&mut gpu, &p, &mode, &plan, FrameOptions::serial()).expect("frame runs");
        assert_eq!(
            run.failstop(),
            Some((0, FailReason::NoSlack)),
            "{:?}",
            run.timings
        );
        assert!(!run.completed());
        assert_eq!(run.no_slack_failures, 1);
        assert_eq!(run.timings.len(), 1, "downstream stages never execute");
        assert!(run.deadline_miss, "the cutoff passed the 3-cycle FTTI");
    }

    #[test]
    fn interstage_bist_passes_on_a_healthy_scheduler_and_costs_cycles() {
        let p = ad_pipeline(Scale::Campaign);
        let mode = RedundancyMode::srrs_default(6);
        let plan = plan(&cfg(), &p, &mode).expect("calibration");
        let mut gpu = Gpu::new(cfg());
        let run = run_pipeline(
            &mut gpu,
            &p,
            &mode,
            &plan,
            FrameOptions {
                interstage_bist: true,
                ..FrameOptions::serial()
            },
        )
        .expect("frame runs");
        assert!(run.completed());
        assert_eq!(run.bist_rounds, 3, "one self-test after every stage");
        assert_eq!(run.bist_failed, 0, "healthy scheduler passes every round");
        assert!(
            run.end_cycle > plan.fault_free_makespan,
            "canary rounds consume frame cycles"
        );
    }
}
