//! Multi-frame **limp-home** driver: permanent-fault diagnosis, SM
//! quarantine, and degraded-mode re-planning across pipeline frames.
//!
//! One frame's recovery ladder ends at a fail-stop; a *mission's* ladder
//! does not. When a frame fail-stops, the driver escalates instead of
//! giving up the device:
//!
//! 1. **in-FTTI retry** — inside the frame, the executors already re-run a
//!    detected stage while the critical-path slack allows (see
//!    [`crate::exec`]);
//! 2. **diagnose + quarantine** — a fail-stopped frame is evidence of a
//!    fault the retry could not outrun. A DCLS tie or watchdog timeout
//!    cannot name the culprit replica, so the evidence is recorded as
//!    [`Evidence::Unattributed`] (which never quarantines by itself) and
//!    escalated to a targeted per-SM BIST sweep
//!    ([`higpu_core::health::sm_bist_sweep`]). Convicted SMs are
//!    quarantined ([`higpu_sim::gpu::Gpu::quarantine_sm`]);
//! 3. **re-plan + limp home** — stage makespans stretch on the shrunken
//!    device, so every budget — including the critical-path end-to-end
//!    FTTI — is re-derived with [`crate::exec::plan_degraded`]. Subsequent
//!    frames run against the re-planned budgets in [`FrameStatus::Degraded`]
//!    — fail-operational at reduced capacity;
//! 4. **fail-stop** — only when the re-planned frame is unschedulable
//!    (fewer healthy SMs than replicas, or the degraded calibration cannot
//!    place the redundancy scheme) does the mission fail-stop for good.
//!
//! A fail-stopped frame that the sweep cannot attribute (a transient hit
//! that died with the frame) costs that one frame and nothing else: the
//! plan is kept and the next frame runs at nominal budgets.

use crate::exec::{plan_degraded, FrameOptions, PipelineError, PipelinePlan, PipelineRun};
use crate::graph::Pipeline;
use higpu_core::health::{sm_bist_sweep, Evidence, HealthMonitor};
use higpu_core::redundancy::{RedundancyError, RedundancyMode};
use higpu_faults::campaign::BusyIntervals;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::{DeviceSnapshot, Gpu};
use higpu_workloads::SessionError;
use std::collections::HashMap;

/// The operating state a frame executed (or was skipped) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// Full device, nominal budgets.
    Nominal,
    /// Completed on a degraded device against re-planned budgets — the
    /// limp-home mode.
    Degraded,
    /// The frame did not deliver: its in-frame ladder ended in a fail-stop
    /// (or the mission had already fail-stopped and the frame was shed).
    FailStopped,
}

impl FrameStatus {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            FrameStatus::Nominal => "nominal",
            FrameStatus::Degraded => "degraded",
            FrameStatus::FailStopped => "fail-stop",
        }
    }
}

/// One frame of a limp-home mission.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index (0-based).
    pub frame: usize,
    /// Operating state.
    pub status: FrameStatus,
    /// Device cycle the frame entered.
    pub start_cycle: u64,
    /// The end-to-end FTTI (in cycles from frame entry) the frame was
    /// admitted against — re-planned budgets once degraded.
    pub e2e_budget: u64,
    /// The frame's execution record; `None` for a frame shed after the
    /// mission fail-stopped.
    pub run: Option<PipelineRun>,
    /// SMs out of service once this frame (and its diagnosis) concluded.
    pub quarantined_after: Vec<usize>,
}

impl FrameRecord {
    /// True when every stage delivered inside the admitted deadline.
    pub fn completed(&self) -> bool {
        self.run.as_ref().is_some_and(PipelineRun::completed)
    }

    /// Frame makespan in cycles (0 for a shed frame).
    pub fn makespan(&self) -> u64 {
        self.run
            .as_ref()
            .map_or(0, |r| r.end_cycle - self.start_cycle)
    }
}

/// The outcome of a multi-frame limp-home mission. The empty (`Default`)
/// report, no frames and nothing quarantined, is the base a mission's
/// report is built on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LimpHomeReport {
    /// Every frame, in order.
    pub frames: Vec<FrameRecord>,
    /// SMs quarantined over the mission, ascending.
    pub quarantined: Vec<usize>,
    /// Index of the frame whose fail-stop led to the (first) conviction,
    /// if any SM was quarantined.
    pub diagnosis_frame: Option<usize>,
    /// The re-planned budget set in force at mission end (`None` when no
    /// quarantine ever happened).
    pub degraded_plan: Option<PipelinePlan>,
    /// Fail-stops whose BIST sweep convicted nobody — transient evidence
    /// the monitor refused to quarantine on (the satellite fence).
    pub unattributed_detections: u64,
    /// Targeted per-SM BIST sweeps run.
    pub bist_sweeps: u32,
}

impl LimpHomeReport {
    /// Frames completed in degraded mode.
    pub fn degraded_frames(&self) -> u32 {
        self.frames
            .iter()
            .filter(|f| f.status == FrameStatus::Degraded)
            .count() as u32
    }

    /// Frames from the fault's first observable (the diagnosing frame's
    /// entry) to quarantine, inclusive — 1 means the very frame that
    /// tripped also convicted.
    pub fn frames_to_diagnosis(&self) -> Option<u32> {
        self.diagnosis_frame.map(|f| f as u32 + 1)
    }

    /// True when a quarantine happened and **every** subsequent frame
    /// completed in degraded mode inside its re-planned FTTI — the
    /// fail-operational limp-home contract.
    pub fn limp_home_ok(&self) -> bool {
        match self.diagnosis_frame {
            None => false,
            Some(d) => self
                .frames
                .iter()
                .skip(d + 1)
                .all(|f| f.status == FrameStatus::Degraded && f.completed()),
        }
    }

    /// Post-quarantine frames that broke the limp-home contract — not
    /// completed in degraded mode inside the re-planned FTTI (missed
    /// deadlines, fail-stops, shed frames).
    pub fn limp_deadline_misses(&self) -> u32 {
        match self.diagnosis_frame {
            None => 0,
            Some(d) => self
                .frames
                .iter()
                .skip(d + 1)
                .filter(|f| !(f.status == FrameStatus::Degraded && f.completed()))
                .count() as u32,
        }
    }

    /// Summed makespan of the degraded frames (for post-quarantine
    /// inflation statistics).
    pub fn degraded_makespan_sum(&self) -> u64 {
        self.frames
            .iter()
            .filter(|f| f.status == FrameStatus::Degraded)
            .map(FrameRecord::makespan)
            .sum()
    }
}

/// The enforced end-to-end budget of one frame under `opts`' executor: the
/// critical path when overlapped, the per-stage sum when serial (that
/// executor still owes every stage budget in sequence).
pub(crate) fn e2e_budget(plan: &PipelinePlan, opts: FrameOptions) -> u64 {
    match opts.exec {
        crate::exec::ExecMode::Overlapped => plan.ftti.end_to_end(),
        crate::exec::ExecMode::Serial => plan.ftti.serial_sum(),
    }
}

/// True when the error means the degraded device cannot host the
/// redundancy scheme (the unschedulable cue), as opposed to a device or
/// protocol defect that must propagate.
fn is_unschedulable(e: &PipelineError) -> bool {
    matches!(
        e,
        PipelineError::Session(SessionError::Redundancy(RedundancyError::InvalidMode(_)))
    )
}

/// Drives `frames` consecutive pipeline frames on one device, escalating
/// per the module-level ladder: in-FTTI retry (inside [`crate::exec`]),
/// then diagnosis + quarantine + re-planning, then fail-stop. The device
/// is used as-is — the caller arms fault hooks and owns the clock; frame
/// buffers are freed between frames ([`Gpu::free_all`]).
///
/// # Errors
///
/// Propagates device/protocol errors; a fail-stopped frame, a missed
/// deadline, or an unschedulable degraded device are *results* (see
/// [`FrameStatus`] and [`LimpHomeReport`]), not errors.
pub fn run_limp_home(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    initial_plan: &PipelinePlan,
    opts: FrameOptions,
    frames: usize,
) -> Result<LimpHomeReport, PipelineError> {
    run_limp_home_with(
        gpu,
        pipeline,
        mode,
        initial_plan,
        opts,
        frames,
        &mut DegradedPlans::default(),
        None,
    )
}

/// Degraded plans already calibrated, keyed by the quarantined SM list.
/// [`plan_degraded`] is a pure function of the device config, that list,
/// the pipeline and the mode; only the list varies between the missions of
/// one campaign cell, so a memo serves one cell and must not outlive it.
#[derive(Debug, Default)]
pub(crate) struct DegradedPlans(HashMap<Vec<usize>, PipelinePlan>);

impl DegradedPlans {
    fn plan(
        &mut self,
        gpu_cfg: &GpuConfig,
        quarantined: &[usize],
        pipeline: &Pipeline,
        mode: &RedundancyMode,
    ) -> Result<PipelinePlan, PipelineError> {
        if let Some(p) = self.0.get(quarantined) {
            return Ok(p.clone());
        }
        let p = plan_degraded(gpu_cfg, quarantined, pipeline, mode)?;
        self.0.insert(quarantined.to_vec(), p.clone());
        Ok(p)
    }
}

/// [`run_limp_home`] with degraded plans taken from (and added to) `plans`,
/// resumed from `from` when given: the device is restored to the prefix's
/// snapshot and the frame loop continues from the prefix's frame with its
/// carried state. The caller guarantees the device would have reached that
/// state on its own (the prefix is fault-free up to a cycle the installed
/// fault cannot influence), so the report equals the from-zero mission's.
#[allow(clippy::too_many_arguments)] // the public mission's inputs plus memo and prefix
pub(crate) fn run_limp_home_with(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    initial_plan: &PipelinePlan,
    opts: FrameOptions,
    frames: usize,
    plans: &mut DegradedPlans,
    from: Option<&FramePrefix>,
) -> Result<LimpHomeReport, PipelineError> {
    let mut mission = match from {
        Some(prefix) => {
            gpu.restore(&prefix.snap);
            prefix.mission.clone()
        }
        None => Mission::new(gpu.config().num_sms, initial_plan, frames),
    };
    run_frames(&mut mission, gpu, pipeline, mode, opts, frames, plans)?;
    Ok(mission.report)
}

/// The fault-free mission at the entry of one frame `k >= 1`: the device
/// snapshot taken before frame `k` frees the previous frame's buffers,
/// plus the mission state carried into frame `k`. Frame entries are the
/// natural checkpoints of a mission: the device is idle there and the host
/// state is small. `Send + Sync`, so one recording serves every worker.
#[derive(Debug, Clone)]
pub(crate) struct FramePrefix {
    snap: DeviceSnapshot,
    mission: Mission,
}

impl FramePrefix {
    /// Device cycle of the frame entry.
    pub(crate) fn cycle(&self) -> u64 {
        self.snap.cycle()
    }
}

/// Runs a campaign cell's fault-free mission of `frames` frames on a fresh
/// device, once. Returns its report, a [`FramePrefix`] at the entry of every
/// frame `1..frames` (ascending in cycle) for trials to resume from, and the
/// per-SM busy intervals of its trace, which prove fault windows idle.
pub(crate) fn record_fault_free_mission(
    gpu_cfg: &GpuConfig,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    initial_plan: &PipelinePlan,
    opts: FrameOptions,
    frames: usize,
) -> Result<(LimpHomeReport, Vec<FramePrefix>, BusyIntervals), PipelineError> {
    let mut gpu = Gpu::new(gpu_cfg.clone());
    let mut mission = Mission::new(gpu_cfg.num_sms, initial_plan, frames);
    let mut plans = DegradedPlans::default();
    let mut prefixes = Vec::with_capacity(frames.saturating_sub(1));
    for frame in 0..frames {
        if frame > 0 {
            prefixes.push(FramePrefix {
                snap: gpu.snapshot(),
                mission: mission.clone(),
            });
        }
        run_frames(
            &mut mission,
            &mut gpu,
            pipeline,
            mode,
            opts,
            frame + 1,
            &mut plans,
        )?;
    }
    let busy = BusyIntervals::from_trace(gpu.trace());
    Ok((mission.report, prefixes, busy))
}

/// What the frame loop carries from one frame to the next: the report so
/// far, the health monitor, the plan in force and the fail-stop flag.
#[derive(Debug, Clone)]
struct Mission {
    report: LimpHomeReport,
    monitor: HealthMonitor,
    current: PipelinePlan,
    failstop: bool,
}

impl Mission {
    fn new(num_sms: usize, initial_plan: &PipelinePlan, frames: usize) -> Self {
        Self {
            report: LimpHomeReport {
                frames: Vec::with_capacity(frames),
                ..LimpHomeReport::default()
            },
            monitor: HealthMonitor::new(num_sms),
            current: initial_plan.clone(),
            failstop: false,
        }
    }
}

/// Runs `mission`'s next frames up to (not including) frame `until`.
fn run_frames(
    mission: &mut Mission,
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    opts: FrameOptions,
    until: usize,
    plans: &mut DegradedPlans,
) -> Result<(), PipelineError> {
    let sim_err = |e| PipelineError::Session(SessionError::Sim(e));
    let replicas = usize::from(mode.replicas());
    let Mission {
        report,
        monitor,
        current,
        failstop,
    } = mission;
    for frame in report.frames.len()..until {
        if *failstop {
            // Safe state: the mission has fail-stopped; remaining frames
            // are shed, not run.
            report.frames.push(FrameRecord {
                frame,
                status: FrameStatus::FailStopped,
                start_cycle: gpu.cycle(),
                e2e_budget: e2e_budget(current, opts),
                run: None,
                quarantined_after: report.quarantined.clone(),
            });
            continue;
        }
        // The previous frame's buffers are dead; the frame starts with the
        // full heap (the executors leave the device idle even after a
        // watchdog abort).
        gpu.free_all().map_err(sim_err)?;
        let start_cycle = gpu.cycle();
        let budget = e2e_budget(current, opts);
        let run = crate::exec::run_pipeline(gpu, pipeline, mode, current, opts)?;
        if run.completed() {
            let status = if report.quarantined.is_empty() {
                FrameStatus::Nominal
            } else {
                FrameStatus::Degraded
            };
            monitor.frame_clean();
            report.frames.push(FrameRecord {
                frame,
                status,
                start_cycle,
                e2e_budget: budget,
                run: Some(run),
                quarantined_after: report.quarantined.clone(),
            });
            continue;
        }
        // The in-frame ladder ended in a fail-stop. A tie/timeout cannot
        // name the culprit replica — record the unattributable evidence
        // (which must never quarantine on its own) and escalate to the
        // targeted per-SM BIST sweep over every SM still in service.
        monitor.record(Evidence::Unattributed);
        gpu.free_all().map_err(sim_err)?;
        let suspects: Vec<usize> = (0..gpu.config().num_sms)
            .filter(|&sm| !gpu.is_quarantined(sm))
            .collect();
        let convicted = sm_bist_sweep(gpu, &suspects).map_err(sim_err)?;
        report.bist_sweeps += 1;
        let mut newly_quarantined = false;
        for sm in convicted {
            if monitor.record(Evidence::Permanent { sm }) == Some(sm) && !gpu.is_quarantined(sm) {
                gpu.quarantine_sm(sm);
                newly_quarantined = true;
            }
        }
        if newly_quarantined {
            report.quarantined = gpu.quarantined_sms();
            report.diagnosis_frame.get_or_insert(frame);
            if gpu.effective_sms() < replicas {
                // Not enough in-service SMs for one SM per replica: no
                // degraded plan can restore diversity — fail-stop.
                *failstop = true;
            } else {
                // Limp-home re-planning: re-derive every budget for the
                // shrunken device on a scratch clone (the mission clock
                // must not pay for calibration).
                match plans.plan(gpu.config(), &report.quarantined, pipeline, mode) {
                    Ok(p) => {
                        report.degraded_plan = Some(p.clone());
                        *current = p;
                    }
                    Err(e) if is_unschedulable(&e) => *failstop = true,
                    Err(e) => return Err(e),
                }
            }
        } else {
            // Nobody convicted: transient evidence. The monitor holds the
            // suspicion decay; the frame is lost but the plan stands.
            report.unattributed_detections += 1;
        }
        report.frames.push(FrameRecord {
            frame,
            status: FrameStatus::FailStopped,
            start_cycle,
            e2e_budget: budget,
            run: Some(run),
            quarantined_after: report.quarantined.clone(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::ad_pipeline;
    use crate::exec::plan;
    use higpu_faults::injector::{FaultInjector, InjectionCounters};
    use higpu_faults::model::FaultModel;
    use higpu_sim::config::GpuConfig;
    use higpu_workloads::Scale;

    fn cfg() -> GpuConfig {
        let mut cfg = GpuConfig::wide_10sm();
        cfg.global_mem_bytes = 2 * 1024 * 1024;
        cfg
    }

    #[test]
    fn fault_free_mission_stays_nominal() {
        let p = ad_pipeline(Scale::Campaign);
        let mode = higpu_core::redundancy::RedundancyMode::srrs_spread(10, 2);
        let plan = plan(&cfg(), &p, &mode).expect("calibration");
        let mut gpu = Gpu::new(cfg());
        let rep = run_limp_home(&mut gpu, &p, &mode, &plan, FrameOptions::default(), 3)
            .expect("mission runs");
        assert_eq!(rep.frames.len(), 3);
        assert!(rep
            .frames
            .iter()
            .all(|f| f.status == FrameStatus::Nominal && f.completed()));
        assert!(rep.quarantined.is_empty());
        assert_eq!(rep.diagnosis_frame, None);
        assert_eq!(rep.degraded_frames(), 0);
        assert!(!rep.limp_home_ok(), "no quarantine means no limp-home");
        assert_eq!(rep.bist_sweeps, 0);
    }

    #[test]
    fn permanent_fault_is_diagnosed_quarantined_and_limped_around() {
        let p = ad_pipeline(Scale::Campaign);
        let mode = higpu_core::redundancy::RedundancyMode::srrs_spread(10, 2);
        let nominal = plan(&cfg(), &p, &mode).expect("calibration");
        let mut gpu = Gpu::new(cfg());
        // A permanent datapath fault in SM 3, present from cycle 0: frame 0
        // detects (SRRS diversity), retries into the same fault, fail-stops
        // — then the sweep convicts SM 3 and frames 1.. limp home.
        let counters = InjectionCounters::shared();
        gpu.set_fault_hook(Box::new(FaultInjector::new(
            FaultModel::PermanentSm {
                sm: 3,
                from_cycle: 0,
                bit: 5,
            },
            counters,
        )));
        let rep = run_limp_home(&mut gpu, &p, &mode, &nominal, FrameOptions::default(), 4)
            .expect("mission runs");
        assert_eq!(rep.quarantined, vec![3], "the faulty SM and only it");
        assert_eq!(rep.diagnosis_frame, Some(0));
        assert_eq!(rep.frames_to_diagnosis(), Some(1));
        assert_eq!(rep.frames[0].status, FrameStatus::FailStopped);
        for f in &rep.frames[1..] {
            assert_eq!(f.status, FrameStatus::Degraded, "frame {}", f.frame);
            assert!(f.completed());
        }
        assert!(rep.limp_home_ok());
        let degraded = rep.degraded_plan.as_ref().expect("re-planned");
        assert!(
            degraded.ftti.end_to_end() > 0
                && degraded.fault_free_makespan >= nominal.fault_free_makespan,
            "nine SMs cannot beat ten on the calibration frame"
        );
        // Degraded frames hold their *re-planned* budgets.
        for f in &rep.frames[1..] {
            assert!(f.makespan() <= f.e2e_budget);
        }
    }

    #[test]
    fn a_memoized_degraded_plan_reproduces_the_mission() {
        let p = ad_pipeline(Scale::Campaign);
        let mode = higpu_core::redundancy::RedundancyMode::srrs_spread(10, 2);
        let nominal = plan(&cfg(), &p, &mode).expect("calibration");
        let mission = |plans: &mut DegradedPlans| {
            let mut gpu = Gpu::new(cfg());
            gpu.set_fault_hook(Box::new(FaultInjector::new(
                FaultModel::PermanentSm {
                    sm: 3,
                    from_cycle: 0,
                    bit: 5,
                },
                InjectionCounters::shared(),
            )));
            run_limp_home_with(
                &mut gpu,
                &p,
                &mode,
                &nominal,
                FrameOptions::default(),
                4,
                plans,
                None,
            )
            .expect("mission runs")
        };
        let mut plans = DegradedPlans::default();
        let calibrated = mission(&mut plans);
        assert_eq!(plans.0.len(), 1, "one quarantined set, one calibration");
        assert_eq!(mission(&mut plans), calibrated, "the memoized plan replays");
        assert_eq!(
            plans.0.get([3].as_slice()),
            Some(&plan_degraded(&cfg(), &[3], &p, &mode).expect("degraded plan"))
        );
    }

    #[test]
    fn capacity_exhaustion_fail_stops_the_mission() {
        let p = ad_pipeline(Scale::Campaign);
        // Paper-class SMs, but only two of them: losing one drops the
        // device below the one-SM-per-replica floor.
        let mut cfg = GpuConfig::paper_6sm();
        cfg.num_sms = 2;
        cfg.global_mem_bytes = 2 * 1024 * 1024;
        let mode = higpu_core::redundancy::RedundancyMode::srrs_spread(2, 2);
        let nominal = plan(&cfg, &p, &mode).expect("calibration");
        let mut gpu = Gpu::new(cfg);
        let counters = InjectionCounters::shared();
        gpu.set_fault_hook(Box::new(FaultInjector::new(
            FaultModel::PermanentSm {
                sm: 0,
                from_cycle: 0,
                bit: 9,
            },
            counters,
        )));
        // Two SMs, two replicas: quarantining the faulty SM leaves one —
        // below the one-SM-per-replica floor, so the mission fail-stops
        // and the remaining frames are shed.
        let rep = run_limp_home(&mut gpu, &p, &mode, &nominal, FrameOptions::default(), 3)
            .expect("mission runs");
        assert_eq!(rep.quarantined, vec![0]);
        assert!(rep
            .frames
            .iter()
            .all(|f| f.status == FrameStatus::FailStopped));
        assert!(rep.frames[2].run.is_none(), "shed, not executed");
        assert!(!rep.limp_home_ok());
    }
}
