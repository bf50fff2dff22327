//! Fault-injection campaigns: inject randomized faults over many trials and
//! measure detection coverage per scheduling policy — the quantitative form
//! of the paper's safety argument.
//!
//! # Engine architecture
//!
//! Campaigns are the scalable outer loop every quantitative experiment runs
//! inside, so trial throughput is engineered for:
//!
//! * **Pre-drawn fault models** — all per-trial randomness is drawn from the
//!   seeded RNG *before* any trial runs ([`draw_models`]), making each trial
//!   a pure function of its [`FaultModel`]. Trials can then execute in any
//!   order on any worker without perturbing the campaign's statistics.
//! * **Reusable devices** — each worker owns one [`CampaignRunner`] whose
//!   GPU is rewound between trials with [`Gpu::reset`] (bump-allocator
//!   rewind + dirty-prefix zeroing) instead of reconstructing a multi-MB
//!   zeroed memory image per trial.
//! * **One cell engine** — [`run_cell`] is the counting loop of every
//!   campaign cell, for workload cells here and for pipeline frames and
//!   limp-home missions (`higpu_pipeline::campaign`). A subject
//!   ([`CellSubject`]) supplies its fault-free pass, a per-worker runner
//!   and how to count one trial; the engine does the rest:
//!   * *one simulation per distinct model* — equal models are equal
//!     trials, so each distinct drawn model runs once and counts as often
//!     as it was drawn (a misroute cell draws from only `num_sms - 1`
//!     shifts);
//!   * *no simulation for idle windows* — a model whose window meets no
//!     block of the fault-free pass on the SMs it targets
//!     ([`BusyIntervals::proves_not_activated`]) counts as the fault-free
//!     run, [`TrialOutcome::NotActivated`], without simulating it;
//!   * *deterministic reduction* — the rest run on a worker pool and their
//!     order-independent counts are summed, so the parallel
//!     [`run_campaign_with_perf`] produces a [`CampaignReport`]
//!     bit-identical to [`run_campaign_serial`] for the same seed, at every
//!     worker count (enforced by tests). The serial oracles run every
//!     trial in full from cycle 0.
//! * **FTTI-bounded trials** — corruption can send a kernel into a
//!   runaway loop (e.g. a loop counter's sign bit flipped turns a 16-pass
//!   loop into a 2³¹-iteration one). Each trial carries a cycle budget
//!   derived from the workload's fault-free makespan and its *declared*
//!   FTTI multiplier ([`ftti_deadline`],
//!   [`higpu_workloads::Workload::ftti_multiplier`]); blowing it is
//!   classified as [`TrialOutcome::Detected`] — exactly how the DCLS
//!   host's deadline monitor catches a hung replica within the FTTI
//!   (paper Sec. IV).
//! * **Replica-count axis** — [`CampaignSpec::replicas`] runs any
//!   registered workload at N ≥ 2 replicas; at N ≥ 3 the majority voter
//!   turns minority corruptions into [`TrialOutcome::Corrected`] trials,
//!   quantifying the coverage-vs-cost frontier of ASIL decomposition.

use crate::checkpoint::{record_reference, CheckpointConfig, ReferenceRun, SuffixReplayer};
use crate::injector::{FaultInjector, InjectionCounters};
use crate::model::FaultModel;
use crate::workload::{CampaignWorkload, RedundantWorkload};
use higpu_core::bist::scheduler_bist;
use higpu_core::diversity::{analyze, DiversityRequirements};
use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_core::safety_case::DetectionEvidence;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::{Gpu, SimError};
use higpu_sim::trace::ExecutionTrace;
use higpu_telemetry::{CycleHistogram, EventKind, NO_SM};
use higpu_workloads::{Scale, WorkloadRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Family of faults a campaign injects; per-trial parameters (time, SM,
/// bit) are drawn from the campaign RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Transient single-SM upsets with the given window length.
    Transient {
        /// Window length in cycles.
        duration: u64,
    },
    /// Voltage droops (all SMs at once) with the given window length.
    Droop {
        /// Window length in cycles.
        duration: u64,
    },
    /// Permanent single-SM stuck-at faults.
    Permanent,
    /// Scheduler misrouting (latent diversity loss).
    Misroute,
}

impl FaultSpec {
    /// True for fault families that persist across re-execution — a retry
    /// re-encounters the same fault, so backward recovery can never repair
    /// them (only N ≥ 3 voting can). Transient-class families (upsets,
    /// droops) expire with their window and a funded retry must succeed.
    pub fn is_persistent(&self) -> bool {
        matches!(self, FaultSpec::Permanent)
    }

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultSpec::Transient { .. } => "transient-sm",
            FaultSpec::Droop { .. } => "voltage-droop",
            FaultSpec::Permanent => "permanent-sm",
            FaultSpec::Misroute => "scheduler-misroute",
        }
    }
}

/// Classification of one injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The fault never corrupted anything (window missed execution).
    NotActivated,
    /// Corruption happened but the outputs were still correct and agreed.
    Masked,
    /// The replicas disagreed with no strict majority on some word (always
    /// the case for two replicas) — an *observable* fail-stop: the NMR
    /// monitor caught the fault within the FTTI and re-execution is
    /// triggered. A blown FTTI deadline also lands here.
    Detected,
    /// N ≥ 3 replicas disagreed, every disagreement was settled by a
    /// strict majority, and the voted output verified correct — the fault
    /// was *corrected* in place (forward recovery, zero re-execution
    /// rounds). Never produced by two-replica DCLS campaigns.
    Corrected,
    /// A wrong result the deployed safety mechanism would accept: either
    /// the replicas *agreed* on a wrong value, or (N ≥ 3) every
    /// disagreement was settled by a strict majority whose value was
    /// itself wrong — indistinguishable, at the voter, from a genuine
    /// correction, so execution silently continues with corrupted data.
    UndetectedFailure,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Injection trials.
    pub trials: u32,
    /// RNG seed (campaigns are fully reproducible: the report is a pure
    /// function of this configuration, independent of worker count).
    pub seed: u64,
    /// GPU configuration (memory is the dominant per-trial cost; campaigns
    /// default to a small device image).
    pub gpu: GpuConfig,
    /// Worker threads for the pool engine ([`run_campaign_with_perf`]). `0`
    /// (the default) resolves to the `HIGPU_WORKERS` environment variable
    /// if set, else to the number of available CPUs. Has no effect on the campaign's results — only on
    /// its wall-clock time.
    pub workers: usize,
    /// Checkpointed suffix-only replay (see [`crate::checkpoint`]) for the
    /// pool engines: `Some` records one fault-free reference pass per
    /// campaign and fast-forwards every trial to the snapshot nearest before
    /// its fault arm cycle. Like `workers`, it changes only wall-clock time,
    /// never the results (enforced by the determinism fences). The serial
    /// oracle ([`run_campaign_serial`]) ignores it and runs from cycle 0.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        let mut gpu = GpuConfig::paper_6sm();
        gpu.global_mem_bytes = 2 * 1024 * 1024;
        Self {
            trials: 100,
            seed: 0xC0FFEE,
            gpu,
            workers: 0,
            checkpoint: None,
        }
    }
}

impl CampaignConfig {
    /// The effective worker count: an explicit `workers` wins, then a
    /// positive `HIGPU_WORKERS` environment variable, then the machine's
    /// available parallelism.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        if let Some(n) = std::env::var("HIGPU_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// One cell of a campaign sweep: which workload, under which scheduling
/// policy, hit by which fault family — resolved against a
/// [`WorkloadRegistry`] instead of a hard-coded workload type, so any
/// registered benchmark can run in any mode under any policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Registry name of the workload under test.
    pub workload: String,
    /// Input scale the factory builds (campaigns default to the small
    /// fixed grids).
    pub scale: Scale,
    /// Scheduling policy of the redundant execution.
    pub policy: PolicyKind,
    /// Fault family injected.
    pub fault: FaultSpec,
    /// Replica count of the redundant execution (2 = the paper's DCLS, 3 =
    /// TMR with majority voting, …). SRRS spreads that many start SMs
    /// evenly; SLICE cuts that many SM slices; `Default` and `Half` are
    /// two-replica-only (see [`higpu_core::policy::PolicyKind::for_replicas`]).
    pub replicas: u8,
}

impl CampaignSpec {
    /// Campaign-scale, two-replica spec for `workload` under `policy` (the
    /// paper's configuration; use [`CampaignSpec::with_replicas`] for NMR).
    pub fn new(workload: impl Into<String>, policy: PolicyKind, fault: FaultSpec) -> Self {
        Self {
            workload: workload.into(),
            scale: Scale::Campaign,
            policy,
            fault,
            replicas: 2,
        }
    }

    /// The same spec at `replicas` replicas.
    pub fn with_replicas(mut self, replicas: u8) -> Self {
        self.replicas = replicas;
        self
    }

    /// The redundancy mode this spec requires on a GPU with `num_sms` SMs
    /// (SRRS start SMs evenly spread over the replica count).
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnsupportedReplicas`] when the policy cannot run at
    /// the requested replica count (fewer than 2 replicas, `Half` at
    /// N ≠ 2).
    pub fn mode(&self, num_sms: usize) -> Result<RedundancyMode, CampaignError> {
        policy_mode(self.policy, self.replicas, num_sms)
    }

    /// Builds the workload from `reg`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::UnknownWorkload`] when the name is not registered.
    pub fn build_workload(
        &self,
        reg: &WorkloadRegistry,
    ) -> Result<CampaignWorkload, CampaignError> {
        CampaignWorkload::from_registry(reg, &self.workload, self.scale)
            .ok_or_else(|| CampaignError::UnknownWorkload(self.workload.clone()))
    }
}

/// Maps a scheduler policy at a replica count onto the
/// [`RedundancyMode`] that realizes it on a GPU with `num_sms` SMs — the
/// single mode-resolution rule shared by workload campaigns
/// ([`CampaignSpec::mode`]) and pipeline campaigns
/// (`higpu_pipeline::campaign`):
///
/// * `Default` — the uncontrolled COTS baseline at any N ≥ 2;
/// * `Srrs` — start SMs evenly spread over the replicas;
/// * `Half` — exactly two replicas (use SLICE above);
/// * `Slice` — plain concurrent slices;
/// * `SliceSkewed` — concurrent slices with the droop-aware default start
///   skew ([`RedundancyMode::slice_skewed_default`]).
///
/// # Errors
///
/// [`CampaignError::UnsupportedReplicas`] for fewer than two replicas or
/// `Half` at N ≠ 2.
pub fn policy_mode(
    policy: PolicyKind,
    replicas: u8,
    num_sms: usize,
) -> Result<RedundancyMode, CampaignError> {
    let unsupported = || CampaignError::UnsupportedReplicas { policy, replicas };
    if replicas < 2 {
        return Err(unsupported());
    }
    match policy {
        PolicyKind::Default => Ok(RedundancyMode::Uncontrolled { replicas }),
        PolicyKind::Srrs => Ok(RedundancyMode::srrs_spread(num_sms, replicas)),
        PolicyKind::Half => {
            if replicas == 2 {
                Ok(RedundancyMode::Half)
            } else {
                Err(unsupported())
            }
        }
        PolicyKind::Slice => Ok(RedundancyMode::slice(replicas)),
        PolicyKind::SliceSkewed => Ok(RedundancyMode::slice_skewed_default(replicas)),
    }
}

/// Errors of registry-driven campaigns.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// A trial failed in the redundancy protocol or the device.
    Redundancy(RedundancyError),
    /// The spec named a workload absent from the registry.
    UnknownWorkload(String),
    /// An execution layer above the plain campaign (e.g. the pipeline
    /// subsystem's frame calibration) failed in a way that has no
    /// campaign-level equivalent; the message carries the original error.
    Execution(String),
    /// The spec's policy cannot run at the requested replica count
    /// (HALF at N ≠ 2 — use SLICE, its N-replica form; every other
    /// policy, the uncontrolled baseline included, runs at any N ≥ 2).
    UnsupportedReplicas {
        /// The requested policy.
        policy: PolicyKind,
        /// The requested replica count.
        replicas: u8,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Redundancy(e) => write!(f, "{e}"),
            CampaignError::UnknownWorkload(name) => {
                write!(f, "workload '{name}' is not in the registry")
            }
            CampaignError::Execution(what) => write!(f, "execution failed: {what}"),
            CampaignError::UnsupportedReplicas { policy, replicas } => {
                write!(
                    f,
                    "policy {} does not support {replicas} replicas",
                    policy.label()
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<RedundancyError> for CampaignError {
    fn from(e: RedundancyError) -> Self {
        CampaignError::Redundancy(e)
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Workload name.
    pub workload: String,
    /// Scheduling policy label.
    pub policy: String,
    /// Fault family label.
    pub fault: &'static str,
    /// Replica count of the redundant execution.
    pub replicas: u8,
    /// Fault-free redundant makespan (cycles) measured by the dry run —
    /// the cost side of the coverage-vs-cost frontier, and the base of the
    /// per-trial FTTI deadline.
    pub fault_free_makespan: u64,
    /// Trials run.
    pub trials: u32,
    /// Trials whose fault never activated.
    pub not_activated: u32,
    /// Activated but masked trials.
    pub masked: u32,
    /// Detected trials (re-execution required).
    pub detected: u32,
    /// Corrected trials: an N ≥ 3 majority outvoted the corruption and the
    /// voted output verified correct (always 0 for two replicas).
    pub corrected: u32,
    /// Undetected failures (must be 0 for diversity-enforcing policies).
    pub undetected: u32,
}

impl CampaignReport {
    /// The report of a cell with no trial counted yet.
    fn empty(
        cfg: &CampaignConfig,
        mode: &RedundancyMode,
        spec: FaultSpec,
        workload: &dyn RedundantWorkload,
        fault_free_makespan: u64,
    ) -> Self {
        CampaignReport {
            workload: workload.name().to_string(),
            policy: mode.policy_kind().label().to_string(),
            fault: spec.label(),
            replicas: mode.replicas(),
            fault_free_makespan,
            trials: cfg.trials,
            ..CampaignReport::default()
        }
    }

    /// Counts one trial.
    fn add(&mut self, outcome: TrialOutcome) {
        *match outcome {
            TrialOutcome::NotActivated => &mut self.not_activated,
            TrialOutcome::Masked => &mut self.masked,
            TrialOutcome::Detected => &mut self.detected,
            TrialOutcome::Corrected => &mut self.corrected,
            TrialOutcome::UndetectedFailure => &mut self.undetected,
        } += 1;
    }

    /// Detection coverage over effective faults
    /// (detected + corrected + undetected) — a corrected trial counts as
    /// covered; `None` when no fault was effective.
    pub fn coverage(&self) -> Option<f64> {
        let effective = self.detected + self.corrected + self.undetected;
        if effective == 0 {
            None
        } else {
            Some(f64::from(self.detected + self.corrected) / f64::from(effective))
        }
    }

    /// Converts to the safety-case evidence form.
    pub fn evidence(&self) -> DetectionEvidence {
        DetectionEvidence {
            activated: u64::from(self.trials - self.not_activated),
            masked: u64::from(self.masked),
            detected: u64::from(self.detected),
            corrected: u64::from(self.corrected),
            // Plain (single-computation) campaigns have no re-execution
            // budget; recovery is a pipeline-campaign observable.
            recovered: 0,
            undetected_failures: u64::from(self.undetected),
        }
    }
}

/// Pre-draws the fault model of every trial from the campaign RNG.
///
/// Drawing **all** randomness up front decouples trial execution from the
/// RNG sequence: trial `i` is a pure function of `models[i]`, so trials can
/// run on any worker in any order while the campaign stays bit-reproducible.
/// The draw order matches the historical serial engine (one model per trial,
/// in trial order), so seeds recorded in older experiment artifacts keep
/// their meaning.
pub fn draw_models(cfg: &CampaignConfig, spec: FaultSpec, window_end: u64) -> Vec<FaultModel> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.trials)
        .map(|_| draw_model(&mut rng, spec, cfg.gpu.num_sms, window_end))
        .collect()
}

fn draw_model(rng: &mut StdRng, spec: FaultSpec, num_sms: usize, window_end: u64) -> FaultModel {
    let bit = rng.gen_range(0..32u8);
    match spec {
        FaultSpec::Transient { duration } => FaultModel::TransientSm {
            sm: rng.gen_range(0..num_sms),
            start: rng.gen_range(0..window_end.max(1)),
            duration,
            bit,
        },
        FaultSpec::Droop { duration } => FaultModel::VoltageDroop {
            start: rng.gen_range(0..window_end.max(1)),
            duration,
            bit,
        },
        FaultSpec::Permanent => FaultModel::PermanentSm {
            sm: rng.gen_range(0..num_sms),
            from_cycle: rng.gen_range(0..window_end.max(1)),
            bit,
        },
        FaultSpec::Misroute => FaultModel::SchedulerMisroute {
            shift: rng.gen_range(1..num_sms),
        },
    }
}

/// Measures the fault-free makespan of the workload under `mode` (used to
/// sample fault times inside the execution window).
///
/// # Errors
///
/// Propagates workload/protocol errors.
pub fn dry_run_makespan(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
) -> Result<u64, RedundancyError> {
    dry_run_busy(cfg, mode, workload).map(|busy| busy.makespan())
}

/// The dry run of [`dry_run_makespan`] (fault-free, no watchdog, fresh
/// device), returning the per-SM [`BusyIntervals`] of its trace, which
/// carry the makespan too — what the from-zero campaign engine proves idle
/// fault windows against.
///
/// # Errors
///
/// Propagates workload/protocol errors.
pub fn dry_run_busy(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
) -> Result<BusyIntervals, RedundancyError> {
    let mut gpu = Gpu::new(cfg.gpu.clone());
    let mut exec = RedundantExecutor::new(&mut gpu, mode.clone())?;
    workload.run(&mut exec)?;
    drop(exec);
    Ok(BusyIntervals::from_trace(gpu.trace()))
}

/// The per-trial FTTI deadline: the workload's declared budget multiplier
/// ([`higpu_workloads::Workload::ftti_multiplier`]) times its fault-free
/// makespan, plus fixed slack. Legitimate corrupted-but-terminating runs
/// (extra divergence, a few perturbed loop trips) stay below it; a runaway
/// loop (counter sign-flip → ~2³¹ iterations) blows it promptly and is
/// classified as detected by the deadline monitor. Pure function of the
/// makespan and multiplier, so serial and parallel engines agree.
pub fn ftti_deadline(fault_free_makespan: u64, ftti_multiplier: u64) -> u64 {
    higpu_core::ftti::deadline(fault_free_makespan, ftti_multiplier)
}

/// True when `model` provably cannot activate in a run whose fault-free
/// makespan is `fault_free_makespan`, knowing nothing but that makespan:
/// such a trial classifies [`TrialOutcome::NotActivated`] without
/// simulating anything.
///
/// Holds only for the window-limited value-corruption models
/// ([`FaultModel::TransientSm`], [`FaultModel::VoltageDroop`]): their
/// corruption window `[arm, arm+duration)` opens **strictly after** the
/// last instruction of the fault-free run (which issues *at* the makespan
/// cycle — `arm == makespan` can still corrupt it, so the bound is strict,
/// mirroring the suffix replayer's `arm > segment end` rule). A fault that
/// never corrupts leaves the run bit-identical to the fault-free reference:
/// it terminates at the recorded makespan with `activated == false`.
///
/// The `deadline` guard covers callers with a watchdog tighter than the
/// fault-free makespan itself (never the case for [`ftti_deadline`]-derived
/// budgets): such a run would be deadline-cut and classified `Detected`, so
/// it is not trivial.
///
/// Permanent-SM and scheduler-misroute models are never trivial here: a
/// permanent fault never expires, and a misroute reroutes from the first
/// dispatch (only misroute trials run the diversity monitor and scheduler
/// self-test), so they always simulate.
///
/// Campaign draws arm in `0..makespan`, so this check skips no drawn
/// model. No campaign engine calls it: [`run_cell`] skips by the cell's
/// [`BusyIntervals`], whose [`BusyIntervals::proves_not_activated`]
/// implies it. It remains the pre-simulation skip of
/// [`CampaignRunner::run_trial_observed_with_makespan`] without a
/// reference, where no busy intervals are at hand.
pub fn trivially_not_activated(
    model: FaultModel,
    fault_free_makespan: u64,
    deadline: Option<u64>,
) -> bool {
    match model {
        FaultModel::TransientSm { .. } | FaultModel::VoltageDroop { .. } => {
            model.arm_cycle() > fault_free_makespan
                && deadline.is_none_or(|d| fault_free_makespan <= d)
        }
        FaultModel::PermanentSm { .. } | FaultModel::SchedulerMisroute { .. } => false,
    }
}

/// Where each SM runs blocks in a campaign cell's fault-free run: per SM,
/// the merged closed intervals `[dispatch, last warp exit]` of the blocks
/// in its execution trace, sorted by cycle, plus the run's makespan.
///
/// Every fault-hook call happens when a warp issues, at a cycle inside its
/// block's interval on that block's SM, and until the first corrupted value
/// a trial's schedule is the fault-free one. So a value-corruption model
/// whose window meets no interval of the SMs it targets corrupts nothing:
/// its trial *is* the fault-free run. Built once per cell by its
/// fault-free pass ([`dry_run_busy`], [`crate::checkpoint::record_reference`],
/// a pipeline cell's fault-free mission); each lookup is a binary search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusyIntervals {
    makespan: u64,
    per_sm: Vec<Vec<(u64, u64)>>,
}

impl BusyIntervals {
    /// The busy intervals of the blocks in `trace`.
    pub fn from_trace(trace: &ExecutionTrace) -> Self {
        let num_sms = trace.blocks.iter().map(|b| b.sm + 1).max().unwrap_or(0);
        let mut per_sm: Vec<Vec<(u64, u64)>> = vec![Vec::new(); num_sms];
        for b in &trace.blocks {
            per_sm[b.sm].push((b.start, b.end));
        }
        for intervals in &mut per_sm {
            intervals.sort_unstable();
            intervals.dedup_by(|next, merged| {
                // Closed integer intervals: touching ones merge too.
                let joins = next.0 <= merged.1.saturating_add(1);
                if joins {
                    merged.1 = merged.1.max(next.1);
                }
                joins
            });
        }
        Self {
            makespan: trace.makespan().unwrap_or(0),
            per_sm,
        }
    }

    /// The fault-free makespan.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// True if `sm` runs a block at some cycle in `[from, to)`.
    fn busy(&self, sm: usize, from: u64, to: u64) -> bool {
        let Some(intervals) = self.per_sm.get(sm) else {
            return false;
        };
        let first_open = intervals.partition_point(|&(_, end)| end < from);
        intervals
            .get(first_open)
            .is_some_and(|&(start, _)| start < to)
    }

    /// True when `model` provably never corrupts a value: no block of the
    /// fault-free run is on the model's SM (every SM for a droop) at any
    /// cycle of its window — `[start, start + duration)` for transients and
    /// droops, `[from_cycle, ∞)` for permanent faults. Such a trial is the
    /// fault-free run: [`TrialOutcome::NotActivated`], ending at the
    /// makespan, with nothing to simulate.
    ///
    /// Misroutes are never proved idle (they reroute from the first
    /// dispatch). The `deadline` guard is [`trivially_not_activated`]'s: a
    /// watchdog tighter than the makespan would cut the fault-free run, so
    /// nothing is proved under it. Implies [`trivially_not_activated`] for
    /// the same makespan, since no block ends after the makespan.
    pub fn proves_not_activated(&self, model: FaultModel, deadline: Option<u64>) -> bool {
        if deadline.is_some_and(|d| self.makespan > d) {
            return false;
        }
        let (from, to) = (model.arm_cycle(), model.window_end().unwrap_or(u64::MAX));
        match model {
            FaultModel::TransientSm { sm, .. } | FaultModel::PermanentSm { sm, .. } => {
                !self.busy(sm, from, to)
            }
            FaultModel::VoltageDroop { .. } => {
                (0..self.per_sm.len()).all(|sm| !self.busy(sm, from, to))
            }
            FaultModel::SchedulerMisroute { .. } => false,
        }
    }
}

/// The synthesized [`TrialObservables`] of a trial decided without
/// simulating it: it ends at the fault-free makespan, nothing activated,
/// nothing was cut, and no snapshot was restored (a checkpointed trial
/// skipped this way reports 0 restores where its simulation reports some).
fn trivial_observables(model: FaultModel, fault_free_makespan: u64) -> TrialObservables {
    TrialObservables {
        end_cycle: fault_free_makespan,
        arm_cycle: model.arm_cycle(),
        activated: false,
        deadline_cut: false,
        restores: 0,
        restore_skipped_cycles: 0,
    }
}

/// Cycle-domain observables of one trial, reported alongside the outcome
/// by [`CampaignRunner::run_trial_observed`]. Every field is simulated
/// state — no wall time — so per-trial observables are bit-identical
/// across engines, worker counts and checkpointing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialObservables {
    /// Device clock when the trial ended (makespan, or the cut cycle for
    /// deadline-cut trials).
    pub end_cycle: u64,
    /// The fault model's arm cycle ([`FaultModel::arm_cycle`]).
    pub arm_cycle: u64,
    /// True if the injected fault corrupted at least one value/placement.
    pub activated: bool,
    /// True if the watchdog cut the trial at its FTTI deadline.
    pub deadline_cut: bool,
    /// Snapshot restores performed during the trial (checkpointed replay).
    pub restores: u64,
    /// Cycles those restores fast-forwarded over (simulation work skipped).
    pub restore_skipped_cycles: u64,
}

/// Cycle-domain telemetry aggregated over a campaign's trials.
///
/// Collected by the cell engine with plain field updates (fixed-size
/// arrays — no allocation, no wall time) in any trial order, so the
/// aggregate is bit-identical at every worker count. Deliberately **not**
/// part of [`CampaignReport`]: reports are the determinism fence and stay
/// exactly as comparable as before.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// End cycles of all trials (deadline-cut trials end at the cut).
    pub makespans: CycleHistogram,
    /// Fault-arm → detection latency of [`TrialOutcome::Detected`] trials.
    pub detection_latency: CycleHistogram,
    /// End cycles of activated trials that terminated on their own (the
    /// corrupted-but-terminating distribution FTTI budget mining needs).
    pub corrupted_terminating: CycleHistogram,
    /// Snapshot restores across all trials.
    pub restores: u64,
    /// Cycles those restores fast-forwarded over.
    pub restore_skipped_cycles: u64,
}

impl CampaignTelemetry {
    fn record(&mut self, outcome: TrialOutcome, obs: TrialObservables) {
        self.makespans.record(obs.end_cycle);
        if outcome == TrialOutcome::Detected {
            self.detection_latency
                .record(obs.end_cycle.saturating_sub(obs.arm_cycle));
        }
        if obs.activated && !obs.deadline_cut {
            self.corrupted_terminating.record(obs.end_cycle);
        }
        self.restores += obs.restores;
        self.restore_skipped_cycles += obs.restore_skipped_cycles;
    }
}

/// Deterministic simulation-side cost of a campaign (wall-clock-free, so it
/// is identical for serial and parallel runs; throughput benches divide it
/// by their own timers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignPerf {
    /// Dynamic warp instructions simulated across all trials.
    pub sim_instructions: u64,
    /// GPU cycles simulated across all trials.
    pub sim_cycles: u64,
}

impl CampaignPerf {
    fn merge(&mut self, other: CampaignPerf) {
        self.sim_instructions += other.sim_instructions;
        self.sim_cycles += other.sim_cycles;
    }

    /// The cost accrued since `earlier`, a previous reading of the same
    /// runner's counter.
    fn since(self, earlier: CampaignPerf) -> CampaignPerf {
        CampaignPerf {
            sim_instructions: self.sim_instructions - earlier.sim_instructions,
            sim_cycles: self.sim_cycles - earlier.sim_cycles,
        }
    }
}

/// A reusable trial executor: owns one GPU that is rewound with
/// [`Gpu::reset`] between trials instead of being reconstructed (the seed
/// engine re-zeroed a multi-MB memory image per trial).
///
/// Each campaign worker owns one runner; a runner is also useful on its own
/// for bisecting a single interesting fault model.
#[derive(Debug)]
pub struct CampaignRunner {
    cfg: CampaignConfig,
    gpu: Gpu,
    perf: CampaignPerf,
}

impl CampaignRunner {
    /// Creates a runner with a fresh device per `cfg.gpu`.
    pub fn new(cfg: &CampaignConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            gpu: Gpu::new(cfg.gpu.clone()),
            perf: CampaignPerf::default(),
        }
    }

    /// Simulation cost accumulated over all trials run so far.
    pub fn perf(&self) -> CampaignPerf {
        self.perf
    }

    /// The runner's device — trace recorders drain its telemetry ring
    /// after a trial (the ring is cleared by the next trial's reset).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Runs one injection trial of `model` and returns the outcome together
    /// with its cycle-domain [`TrialObservables`] (pure simulated state that
    /// feeds [`CampaignTelemetry`]).
    ///
    /// The trial is a pure function of `(cfg.gpu, mode, workload, model,
    /// deadline)` — independent of previous trials on this runner and of
    /// which runner executes it. `reference` replays only the corrupted
    /// suffix: reference segments ending before the fault's arm cycle are
    /// skipped by restoring their recorded snapshots (see
    /// [`crate::checkpoint`]), bit-identically to the from-zero trial. A run
    /// still going at `deadline` cycles is classified
    /// [`TrialOutcome::Detected`] — the DCLS host's deadline monitor catches
    /// the hung replica, so a timing violation is a detection, not an error.
    /// Every trial is simulated to its end: a fault whose window closes
    /// with nothing corrupted runs on to the fault-free makespan.
    ///
    /// # Errors
    ///
    /// Propagates workload/protocol errors other than the watchdog cutoff
    /// ([`higpu_sim::gpu::SimError::Stalled`] cannot be caused by value
    /// corruption, only by policy bugs).
    pub fn run_trial_observed(
        &mut self,
        mode: &RedundancyMode,
        workload: &dyn RedundantWorkload,
        model: FaultModel,
        deadline: Option<u64>,
        reference: Option<&ReferenceRun>,
    ) -> Result<(TrialOutcome, TrialObservables), RedundancyError> {
        // A trial that errored mid-flight (e.g. a watchdog cutoff) leaves
        // the device non-idle; discard the dead in-flight work and rewind
        // in place — reconstructing the multi-MB image would reintroduce
        // the very cost the reusable runner exists to avoid.
        if self.gpu.reset().is_err() {
            self.gpu.force_reset();
        }
        let gpu = &mut self.gpu;
        gpu.set_cycle_limit(deadline);
        let counters = InjectionCounters::shared();
        gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
        let fault_sm = match model {
            FaultModel::TransientSm { sm, .. } | FaultModel::PermanentSm { sm, .. } => sm as u32,
            FaultModel::VoltageDroop { .. } | FaultModel::SchedulerMisroute { .. } => NO_SM,
        };
        gpu.record_event(
            EventKind::FaultArmed,
            model.arm_cycle(),
            fault_sm,
            0,
            u64::from(model.bit()),
        );

        let outcome = (|| -> Result<TrialOutcome, RedundancyError> {
            let verdict = {
                let mut exec = RedundantExecutor::new(gpu, mode.clone())?;
                if let Some(reference) = reference {
                    exec.set_sync_hook(Box::new(SuffixReplayer::new(reference, model)));
                }
                workload.run(&mut exec)?
            };

            if let FaultModel::SchedulerMisroute { .. } = model {
                // Misroutes are functionally silent; detection is the job of
                // the diversity monitor + periodic scheduler self-test
                // (Sec. IV-C).
                if !counters.activated() {
                    return Ok(TrialOutcome::NotActivated);
                }
                let diversity_ok =
                    analyze(gpu.trace(), DiversityRequirements::default()).is_diverse();
                let bist = scheduler_bist(gpu, mode.clone(), 2 * self.cfg.gpu.num_sms as u32)?;
                return Ok(if !bist.passed() || !diversity_ok {
                    TrialOutcome::Detected
                } else {
                    TrialOutcome::UndetectedFailure
                });
            }

            Ok(if !counters.activated() {
                TrialOutcome::NotActivated
            } else if !verdict.matched {
                if verdict.corrected {
                    TrialOutcome::Corrected
                } else if verdict.fully_voted {
                    // Clean strict majority on every word, wrong voted
                    // value: the deployed voter cannot tell this from a
                    // genuine correction — it continues with corrupted
                    // data and never triggers recovery. Classifying by the
                    // voter's observables, not the campaign's oracle.
                    TrialOutcome::UndetectedFailure
                } else {
                    TrialOutcome::Detected
                }
            } else if verdict.correct {
                TrialOutcome::Masked
            } else {
                TrialOutcome::UndetectedFailure
            })
        })();
        // Watchdog cutoff is a *classification*, not a failure: the DCLS
        // deadline monitor detected a hung replica.
        let (outcome, deadline_cut) = match outcome {
            Err(RedundancyError::Sim(SimError::DeadlineExceeded { .. })) => {
                (Ok(TrialOutcome::Detected), true)
            }
            other => (other, false),
        };
        let stats = self.gpu.stats();
        self.perf.sim_instructions += stats.instructions;
        self.perf.sim_cycles += stats.cycles;
        let outcome = outcome?;
        let obs = TrialObservables {
            end_cycle: self.gpu.cycle(),
            arm_cycle: model.arm_cycle(),
            activated: counters.activated(),
            deadline_cut,
            restores: self.gpu.restore_count(),
            restore_skipped_cycles: self.gpu.restore_skipped_cycles(),
        };
        if outcome == TrialOutcome::Detected {
            self.gpu.record_event(
                EventKind::FaultDetected,
                obs.end_cycle,
                fault_sm,
                0,
                obs.end_cycle.saturating_sub(obs.arm_cycle),
            );
        }
        Ok((outcome, obs))
    }

    /// [`CampaignRunner::run_trial_observed`] behind a pre-simulation skip
    /// keyed to `fault_free_makespan`, the makespan of the campaign's
    /// reference pass: a model proved never to corrupt classifies
    /// [`TrialOutcome::NotActivated`] with synthesized observables and **no
    /// simulation at all** (no device reset, no replica runs, no replay).
    /// With a `reference`, the proof is the campaign engine's: the window
    /// misses every block of the reference pass's [`BusyIntervals`] on the
    /// targeted SMs ([`BusyIntervals::proves_not_activated`]). Without one,
    /// only the makespan-only [`trivially_not_activated`] applies. Every
    /// other model is simulated in full.
    ///
    /// The proof needs a watchdog no tighter than the fault-free makespan,
    /// which would otherwise cut the reference run itself. Outcome, end
    /// cycle, activation and deadline cut are bit-identical to the simulated
    /// trial of the same model; a checkpointed trial skipped without
    /// simulating reports 0 restores. [`CampaignRunner::perf`] counts only
    /// the work actually simulated.
    ///
    /// # Errors
    ///
    /// As [`CampaignRunner::run_trial_observed`].
    pub fn run_trial_observed_with_makespan(
        &mut self,
        mode: &RedundancyMode,
        workload: &dyn RedundantWorkload,
        model: FaultModel,
        deadline: Option<u64>,
        reference: Option<&ReferenceRun>,
        fault_free_makespan: u64,
    ) -> Result<(TrialOutcome, TrialObservables), RedundancyError> {
        let idle = match reference {
            Some(r) => r.busy().proves_not_activated(model, deadline),
            None => trivially_not_activated(model, fault_free_makespan, deadline),
        };
        if idle {
            return Ok((
                TrialOutcome::NotActivated,
                trivial_observables(model, fault_free_makespan),
            ));
        }
        self.run_trial_observed(mode, workload, model, deadline, reference)
    }
}

/// Largest chunk one claim may take — bounds the tail imbalance when one
/// worker's trials happen to run long.
const MAX_CLAIM: usize = 64;

/// Claims the next chunk of trial indices from the shared cursor of
/// [`run_pool`].
///
/// Guided self-scheduling: each claim takes `remaining / (2 * workers)`
/// trials (clamped to `1..=MAX_CLAIM`), so claims are large while plenty of
/// work remains — a handful of atomic operations instead of one per trial —
/// and shrink toward single trials near the end for a balanced finish.
/// Chunking only changes *which worker* runs a trial, never the result:
/// per-trial outcomes are order-independent counts, so the campaign report
/// stays bit-identical at every worker count.
fn claim_chunk(next: &AtomicUsize, total: usize, workers: usize) -> Option<std::ops::Range<usize>> {
    loop {
        let cur = next.load(Ordering::Relaxed);
        if cur >= total {
            return None;
        }
        let remaining = total - cur;
        let chunk = (remaining / (2 * workers.max(1))).clamp(1, MAX_CLAIM);
        if next
            .compare_exchange_weak(cur, cur + chunk, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Some(cur..cur + chunk);
        }
        // Lost the race; re-read the cursor and retry.
    }
}

/// How a pooled trial failed: its error, or the payload of its panic.
enum TrialFailure<E> {
    Error(E),
    Panic(Box<dyn Any + Send>),
}

/// The worker pool of [`run_cell`]: runs `trial(&mut worker, i)` for every
/// index `i` in `0..total`.
///
/// `workers` is capped at `total` and raised to 1. One worker runs every
/// trial in the calling thread, in index order; more spawn that many scoped
/// threads that claim guided-self-scheduling chunks of indices from a
/// shared cursor. Each worker builds its own state with `new_worker` (a
/// reusable runner), so the state never crosses threads.
///
/// # Errors
///
/// When trials fail, the error of the lowest-numbered failing trial is
/// returned — at every worker count. Workers skip only trials above the
/// lowest failure seen so far, so every trial below it still runs. A
/// panicking trial counts as a failure at its index and is re-raised with
/// its original payload when it is the lowest one.
fn run_pool<W, E: Send>(
    total: usize,
    workers: usize,
    new_worker: impl Fn() -> W + Sync,
    trial: impl Fn(&mut W, usize) -> Result<(), E> + Sync,
) -> Result<(), E> {
    let workers = workers.min(total).max(1);
    if workers == 1 {
        let mut worker = new_worker();
        return (0..total).try_for_each(|i| trial(&mut worker, i));
    }

    let next = AtomicUsize::new(0);
    // A skip hint only (failures travel back through `join`), so `Relaxed`.
    let lowest_failed = AtomicUsize::new(usize::MAX);
    let run_worker = || {
        let mut worker = new_worker();
        while let Some(range) = claim_chunk(&next, total, workers) {
            for i in range {
                // Claims only grow, so every later index is skippable too.
                if i > lowest_failed.load(Ordering::Relaxed) {
                    return None;
                }
                // A worker whose trial panicked returns at once and never
                // touches its state again, so the state's unwind safety
                // does not matter.
                let failure = match catch_unwind(AssertUnwindSafe(|| trial(&mut worker, i))) {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => TrialFailure::Error(e),
                    Err(payload) => TrialFailure::Panic(payload),
                };
                lowest_failed.fetch_min(i, Ordering::Relaxed);
                return Some((i, failure));
            }
        }
        None
    };
    let failures: Vec<(usize, TrialFailure<E>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    match failures.into_iter().min_by_key(|&(i, _)| i) {
        None => Ok(()),
        Some((_, TrialFailure::Error(e))) => Err(e),
        Some((_, TrialFailure::Panic(payload))) => resume_unwind(payload),
    }
}

/// What a campaign cell's subject — a workload under a redundancy mode, or
/// a pipeline's frames and limp-home missions — supplies to [`run_cell`]:
/// its fault-free pass's record, a per-worker runner, and how to count one
/// trial into its report.
pub trait CellSubject: Sync {
    /// One worker's reusable state (a device, memo tables).
    type Runner;
    /// What one trial leaves to count.
    type Trial;
    /// The cell's accumulator (its report): a sum of order-independent
    /// counts.
    type Tally: Send;
    /// A trial's error.
    type Error: Send;

    /// The trial record of the fault-free pass: what every model the pass
    /// proves idle counts as.
    fn fault_free(&self) -> &Self::Trial;
    /// A fresh per-worker runner.
    fn runner(&self) -> Self::Runner;
    /// Simulates one trial of `model` on `runner`.
    ///
    /// # Errors
    ///
    /// The subject's device or protocol errors.
    fn run(&self, runner: &mut Self::Runner, model: FaultModel)
        -> Result<Self::Trial, Self::Error>;
    /// The cell's report with nothing counted yet.
    fn tally(&self) -> Self::Tally;
    /// Counts one trial into `tally`.
    fn count(tally: &mut Self::Tally, trial: &Self::Trial);
}

/// The distinct models of `models` in first-occurrence order, each with the
/// number of times it was drawn. The first occurrence is the lowest trial
/// index of its model, so the pool's lowest-failing-index error rule picks
/// the same model it would over the full list.
fn distinct_models(models: &[FaultModel]) -> Vec<(FaultModel, u32)> {
    let mut index: HashMap<FaultModel, usize> = HashMap::with_capacity(models.len());
    let mut distinct: Vec<(FaultModel, u32)> = Vec::with_capacity(models.len());
    for &model in models {
        match index.entry(model) {
            Entry::Occupied(e) => distinct[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                e.insert(distinct.len());
                distinct.push((model, 1));
            }
        }
    }
    distinct
}

/// The campaign cell engine: counts one trial per drawn model of `models`
/// into the subject's tally, on a pool of `workers` threads.
///
/// Equal models are equal trials, so each distinct model is decided once
/// and counted as often as it was drawn. A model the fault-free pass's
/// `busy` intervals prove idle under the watchdog `deadline`
/// ([`BusyIntervals::proves_not_activated`]) *is* the fault-free run: it
/// counts as [`CellSubject::fault_free`] and is never simulated. Every
/// other distinct model runs once on some worker's runner and is counted
/// into the one tally as it finishes. Each trial is a pure function of its
/// model and every count is order-independent, so the tally is
/// bit-identical at every worker count, and to a serial loop that runs
/// every trial.
///
/// # Errors
///
/// The error of the lowest-numbered failing trial, at every worker count;
/// a panicking trial is re-raised.
pub fn run_cell<S: CellSubject>(
    subject: &S,
    models: &[FaultModel],
    busy: &BusyIntervals,
    deadline: Option<u64>,
    workers: usize,
) -> Result<S::Tally, S::Error> {
    let mut tally = subject.tally();
    let mut models = distinct_models(models);
    models.retain(|&(model, drawn)| {
        let idle = busy.proves_not_activated(model, deadline);
        if idle {
            for _ in 0..drawn {
                S::count(&mut tally, subject.fault_free());
            }
        }
        !idle
    });
    let tally = Mutex::new(tally);
    run_pool(
        models.len(),
        workers,
        || subject.runner(),
        |runner, i| {
            let (model, drawn) = models[i];
            let trial = subject.run(runner, model)?;
            let mut tally = tally.lock().expect("counting never panics");
            for _ in 0..drawn {
                S::count(&mut tally, &trial);
            }
            Ok(())
        },
    )?;
    Ok(tally.into_inner().expect("counting never panics"))
}

/// The reference serial engine: one freshly constructed device per trial,
/// trials in draw order, every trial simulated in full from cycle 0. It
/// ignores `cfg.checkpoint` as it ignores `cfg.workers`, so it is the
/// simpler oracle the parallel, idle-window-skipping and checkpointed
/// engine is checked against.
///
/// # Errors
///
/// Propagates workload/protocol errors from any trial.
pub fn run_campaign_serial(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    spec: FaultSpec,
    workload: &dyn RedundantWorkload,
) -> Result<CampaignReport, RedundancyError> {
    let window_end = dry_run_makespan(cfg, mode, workload)?;
    let deadline = Some(ftti_deadline(window_end, workload.ftti_multiplier()));
    let mut report = CampaignReport::empty(cfg, mode, spec, workload, window_end);
    for model in draw_models(cfg, spec, window_end) {
        let (outcome, _) =
            CampaignRunner::new(cfg).run_trial_observed(mode, workload, model, deadline, None)?;
        report.add(outcome);
    }
    Ok(report)
}

/// Runs a full campaign — `cfg.trials` randomized injections of `spec` into
/// `workload` under `mode` — on a pool of [`CampaignConfig::resolved_workers`]
/// threads, returning the report together with the simulated cost.
///
/// The report is bit-identical to [`run_campaign_serial`] for the same
/// configuration, at every worker count: all randomness is pre-drawn and the
/// reduction is a sum of order-independent counts.
///
/// # Errors
///
/// Propagates workload/protocol errors; when several trials fail, the error
/// of the lowest-numbered trial is returned (deterministic across worker
/// interleavings).
pub fn run_campaign_with_perf(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    spec: FaultSpec,
    workload: &dyn RedundantWorkload,
) -> Result<(CampaignReport, CampaignPerf), RedundancyError> {
    run_campaign_engine(cfg, mode, spec, workload).map(|(report, perf, _)| (report, perf))
}

/// A workload cell as a [`CellSubject`]: each trial runs on a reusable
/// [`CampaignRunner`], with checkpointed replay when there is a
/// `reference`, and counts into the report, the telemetry and the
/// simulated cost. [`run_cell`] has already skipped every model the cell's
/// busy intervals prove idle, so each trial it hands over is simulated.
struct WorkloadCell<'a> {
    cfg: &'a CampaignConfig,
    mode: &'a RedundancyMode,
    workload: &'a dyn RedundantWorkload,
    reference: Option<&'a ReferenceRun>,
    deadline: Option<u64>,
    report: CampaignReport,
    fault_free: (TrialOutcome, TrialObservables, CampaignPerf),
}

impl CellSubject for WorkloadCell<'_> {
    type Runner = CampaignRunner;
    type Trial = (TrialOutcome, TrialObservables, CampaignPerf);
    type Tally = (CampaignReport, CampaignTelemetry, CampaignPerf);
    type Error = RedundancyError;

    fn fault_free(&self) -> &Self::Trial {
        &self.fault_free
    }

    fn runner(&self) -> CampaignRunner {
        CampaignRunner::new(self.cfg)
    }

    fn run(
        &self,
        runner: &mut CampaignRunner,
        model: FaultModel,
    ) -> Result<Self::Trial, RedundancyError> {
        let before = runner.perf();
        let (outcome, obs) = runner.run_trial_observed(
            self.mode,
            self.workload,
            model,
            self.deadline,
            self.reference,
        )?;
        Ok((outcome, obs, runner.perf().since(before)))
    }

    fn tally(&self) -> Self::Tally {
        (
            self.report.clone(),
            CampaignTelemetry::default(),
            CampaignPerf::default(),
        )
    }

    fn count((report, telemetry, perf): &mut Self::Tally, &(outcome, obs, cost): &Self::Trial) {
        report.add(outcome);
        telemetry.record(outcome, obs);
        perf.merge(cost);
    }
}

fn run_campaign_engine(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    spec: FaultSpec,
    workload: &dyn RedundantWorkload,
) -> Result<(CampaignReport, CampaignPerf, CampaignTelemetry), RedundancyError> {
    // A recorded reference's trace equals the dry run's (checkpoint pauses
    // are transparent), so both engines draw and skip the same models.
    let reference = cfg
        .checkpoint
        .map(|ck| record_reference(cfg, mode, workload, ck.stride))
        .transpose()?;
    let busy = match &reference {
        Some(reference) => reference.busy().clone(),
        None => dry_run_busy(cfg, mode, workload)?,
    };
    let makespan = busy.makespan();
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let cell = WorkloadCell {
        cfg,
        mode,
        workload,
        reference: reference.as_ref(),
        deadline,
        report: CampaignReport::empty(cfg, mode, spec, workload, makespan),
        fault_free: (
            TrialOutcome::NotActivated,
            TrialObservables {
                end_cycle: makespan,
                ..TrialObservables::default()
            },
            CampaignPerf::default(),
        ),
    };
    let models = draw_models(cfg, spec, makespan);
    let (report, telemetry, perf) =
        run_cell(&cell, &models, &busy, deadline, cfg.resolved_workers())?;
    Ok((report, perf, telemetry))
}

/// Runs a campaign described by a [`CampaignSpec`], resolving the workload
/// from `reg`: any registered workload, in redundant mode, under any
/// scheduler policy, on the pool engine (see [`run_campaign_with_perf`] for
/// the determinism contract). Returns the report with the campaign's
/// [`CampaignTelemetry`] (cycle-domain distributions the report's outcome
/// counts cannot express).
///
/// # Errors
///
/// [`CampaignError::UnknownWorkload`] for unregistered names; otherwise
/// propagates workload/protocol errors from any trial.
pub fn run_campaign_selected_with_telemetry(
    cfg: &CampaignConfig,
    reg: &WorkloadRegistry,
    spec: &CampaignSpec,
) -> Result<(CampaignReport, CampaignTelemetry), CampaignError> {
    let workload = spec.build_workload(reg)?;
    let mode = spec.mode(cfg.gpu.num_sms)?;
    let (report, _, telemetry) = run_campaign_engine(cfg, &mode, spec.fault, &workload)?;
    Ok((report, telemetry))
}

/// Serial reference form of [`run_campaign_selected_with_telemetry`] (one
/// fresh device per trial, trials in draw order, every trial from cycle 0
/// whatever `cfg.checkpoint` says; see [`run_campaign_serial`]) — the
/// oracle the parallel engine is checked against.
///
/// # Errors
///
/// [`CampaignError::UnknownWorkload`] for unregistered names; otherwise
/// propagates workload/protocol errors from any trial.
pub fn run_campaign_selected_serial(
    cfg: &CampaignConfig,
    reg: &WorkloadRegistry,
    spec: &CampaignSpec,
) -> Result<CampaignReport, CampaignError> {
    let workload = spec.build_workload(reg)?;
    let mode = spec.mode(cfg.gpu.num_sms)?;
    Ok(run_campaign_serial(cfg, &mode, spec.fault, &workload)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::IteratedFma;

    fn small_cfg(trials: u32) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed: 42,
            ..CampaignConfig::default()
        }
    }

    fn small_workload() -> IteratedFma {
        IteratedFma {
            n: 256,
            threads_per_block: 64,
            iters: 16,
        }
    }

    #[test]
    fn permanent_fault_never_defeats_srrs() {
        let cfg = small_cfg(12);
        let mode = RedundancyMode::srrs_default(6);
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Permanent, &small_workload())
            .expect("campaign")
            .0;
        assert_eq!(r.undetected, 0, "spatial diversity defeats stuck-at: {r:?}");
        assert!(r.detected > 0, "permanent faults must strike: {r:?}");
    }

    #[test]
    fn permanent_fault_defeats_uncontrolled_redundancy() {
        // Deterministic COTS placement puts both replicas of block i on the
        // same SM → identical corruption → undetected failures.
        let cfg = small_cfg(12);
        let mode = RedundancyMode::uncontrolled();
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Permanent, &small_workload())
            .expect("campaign")
            .0;
        assert!(
            r.undetected > 0,
            "uncontrolled redundancy must show undetected failures: {r:?}"
        );
    }

    #[test]
    fn droop_never_defeats_srrs() {
        let cfg = small_cfg(12);
        let mode = RedundancyMode::srrs_default(6);
        let r = run_campaign_with_perf(
            &cfg,
            &mode,
            FaultSpec::Droop { duration: 500 },
            &small_workload(),
        )
        .expect("campaign")
        .0;
        assert_eq!(r.undetected, 0, "temporal diversity defeats droops: {r:?}");
    }

    #[test]
    fn misroute_is_detected_by_bist_under_srrs() {
        let cfg = small_cfg(3);
        let mode = RedundancyMode::srrs_default(6);
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Misroute, &small_workload())
            .expect("campaign")
            .0;
        assert_eq!(r.detected, 3, "every misroute caught: {r:?}");
        assert_eq!(r.undetected, 0);
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial_across_worker_counts() {
        let mut cfg = small_cfg(10);
        let mode = RedundancyMode::srrs_default(6);
        let spec = FaultSpec::Transient { duration: 300 };
        let serial = run_campaign_serial(&cfg, &mode, spec, &small_workload()).expect("serial");
        assert_eq!(
            serial.trials,
            serial.not_activated
                + serial.masked
                + serial.detected
                + serial.corrected
                + serial.undetected,
            "every trial classified: {serial:?}"
        );
        for workers in [1usize, 2, 8] {
            cfg.workers = workers;
            let parallel = run_campaign_with_perf(&cfg, &mode, spec, &small_workload())
                .unwrap_or_else(|e| panic!("parallel at {workers} workers: {e}"))
                .0;
            assert_eq!(
                parallel, serial,
                "report must not depend on workers={workers}"
            );
        }
    }

    #[test]
    fn checkpointed_reports_are_bit_identical_to_from_zero_across_worker_counts() {
        // The full determinism fence: for every fault family, the report is
        // a pure function of (seed, trials, gpu, mode, spec, workload) —
        // independent of the worker count AND of whether trials replay from
        // checkpoints or run from cycle zero. The oracle is the serial
        // engine, which always runs from zero.
        let mode = RedundancyMode::srrs_default(6);
        let wl = small_workload();
        for spec in [
            FaultSpec::Transient { duration: 300 },
            FaultSpec::Droop { duration: 200 },
            FaultSpec::Permanent,
            FaultSpec::Misroute,
        ] {
            let trials = if spec == FaultSpec::Misroute { 3 } else { 8 };
            let cfg = small_cfg(trials);
            let oracle = run_campaign_serial(&cfg, &mode, spec, &wl).expect("from-zero serial");
            for stride in [500u64, 4096] {
                let mut restores = 0;
                for workers in [1usize, 2, 8] {
                    let ck_cfg = CampaignConfig {
                        workers,
                        checkpoint: Some(CheckpointConfig { stride }),
                        ..cfg.clone()
                    };
                    let (parallel, _, telemetry) =
                        run_campaign_engine(&ck_cfg, &mode, spec, &wl).expect("checkpointed pool");
                    assert_eq!(
                        parallel, oracle,
                        "checkpointed report must not depend on workers={workers} \
                         ({spec:?}, stride {stride})"
                    );
                    restores += telemetry.restores;
                }
                // A misroute arms at cycle 0, so only it never restores.
                assert!(
                    spec == FaultSpec::Misroute || restores > 0,
                    "no checkpointed trial restored a snapshot ({spec:?}, stride {stride}) — \
                     the fence is vacuous"
                );
            }
        }
    }

    /// Runs one trial on a fresh runner and returns its outcome, its
    /// observables and the device memory it left behind.
    fn trial_with_memory(
        cfg: &CampaignConfig,
        mode: &RedundancyMode,
        wl: &dyn RedundantWorkload,
        model: FaultModel,
        deadline: Option<u64>,
        reference: Option<&ReferenceRun>,
    ) -> (TrialOutcome, TrialObservables, Vec<u32>) {
        let mut runner = CampaignRunner::new(cfg);
        let (outcome, obs) = runner
            .run_trial_observed(mode, wl, model, deadline, reference)
            .expect("trial");
        let words = cfg.gpu.global_mem_bytes / 4;
        let memory = runner.gpu_mut().read_u32(higpu_sim::gpu::DevPtr(0), words);
        (outcome, obs, memory)
    }

    #[test]
    fn checkpointed_trial_matches_from_zero_for_adversarial_arm_cycles() {
        // Trial-level fence at hand-picked arm cycles the random draw is
        // unlikely to hit: segment boundaries (the strict-skip edge), cycle
        // 0, one past a checkpoint, points spread over the run, and past the
        // makespan entirely. A replayed trial must end exactly like its
        // from-zero twin: outcome, observables (bar the restore counters,
        // which only replay has) and every word of device memory.
        let cfg = small_cfg(1);
        let mode = RedundancyMode::srrs_default(6);
        let wl = small_workload();
        let stride = 700u64;
        let reference = record_reference(&cfg, &mode, &wl, stride).expect("reference");
        let makespan = reference.makespan();
        assert_eq!(
            makespan,
            dry_run_makespan(&cfg, &mode, &wl).expect("dry run"),
            "checkpoint pauses must not perturb the reference makespan"
        );
        let deadline = Some(ftti_deadline(
            makespan,
            RedundantWorkload::ftti_multiplier(&wl),
        ));
        let mut arms = vec![
            0,
            1,
            stride,
            stride + 1,
            makespan - 1,
            makespan,
            makespan + 1,
            makespan * 4,
        ];
        arms.extend((1..16).map(|k| makespan * k / 16));
        let mut activated = [0u32; 3];
        let mut restores = 0;
        for arm in arms {
            let models = [
                FaultModel::TransientSm {
                    sm: 1,
                    start: arm,
                    duration: 400,
                    bit: 30,
                },
                FaultModel::VoltageDroop {
                    start: arm,
                    duration: 150,
                    bit: 12,
                },
                FaultModel::PermanentSm {
                    sm: 0,
                    from_cycle: arm,
                    bit: 7,
                },
            ];
            for (family, model) in models.into_iter().enumerate() {
                let (want, want_obs, want_mem) =
                    trial_with_memory(&cfg, &mode, &wl, model, deadline, None);
                let (got, obs, mem) =
                    trial_with_memory(&cfg, &mode, &wl, model, deadline, Some(&reference));
                let at = format!("arm {arm}, model {model:?}");
                assert_eq!(got, want, "{at}: outcome");
                assert_eq!(
                    TrialObservables {
                        restores: 0,
                        restore_skipped_cycles: 0,
                        ..obs
                    },
                    want_obs,
                    "{at}: observables"
                );
                assert!(mem == want_mem, "{at}: final device memory differs");
                activated[family] += u32::from(want_obs.activated);
                restores += obs.restores;
            }
        }
        assert!(
            activated.iter().all(|&n| n > 0),
            "every family must activate at some arm (transient, droop, permanent: \
             {activated:?})"
        );
        assert!(restores > 0, "no replayed trial restored a snapshot");
    }

    #[test]
    fn checkpointed_deadline_cuts_classify_like_the_watchdog() {
        // A dormant fault beyond the makespan: every segment is skipped,
        // and the skip must reproduce the watchdog's exceed-iff-end>limit
        // rule — Detected under an impossible deadline, NotActivated
        // without one.
        let cfg = small_cfg(1);
        let mode = RedundancyMode::srrs_default(6);
        let wl = small_workload();
        let reference = record_reference(&cfg, &mode, &wl, 4096).expect("reference");
        let dormant = FaultModel::TransientSm {
            sm: 0,
            start: u64::MAX,
            duration: 1,
            bit: 0,
        };
        let mut runner = CampaignRunner::new(&cfg);
        let (cut, _) = runner
            .run_trial_observed(&mode, &wl, dormant, Some(1), Some(&reference))
            .expect("cutoff is a classification");
        assert_eq!(cut, TrialOutcome::Detected);
        let (free, _) = runner
            .run_trial_observed(&mode, &wl, dormant, None, Some(&reference))
            .expect("runs");
        assert_eq!(free, TrialOutcome::NotActivated);
        assert!(
            reference.segments() > 0 && reference.approx_bytes() > 0,
            "reference pass must have recorded snapshots"
        );
    }

    #[test]
    fn predrawn_models_match_serial_draw_order() {
        let cfg = small_cfg(32);
        let spec = FaultSpec::Permanent;
        let models = draw_models(&cfg, spec, 5000);
        // Drawing again yields the same sequence (pure function of the seed).
        assert_eq!(models, draw_models(&cfg, spec, 5000));
        assert_eq!(models.len(), 32);
        // And an incremental draw from the same seed agrees element-wise.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for (i, &m) in models.iter().enumerate() {
            assert_eq!(
                m,
                draw_model(&mut rng, spec, cfg.gpu.num_sms, 5000),
                "trial {i}"
            );
        }
    }

    #[test]
    fn runner_reuse_matches_fresh_device_trials() {
        let cfg = small_cfg(6);
        let mode = RedundancyMode::srrs_default(6);
        let wl = small_workload();
        let window = dry_run_makespan(&cfg, &mode, &wl).expect("dry run");
        let models = draw_models(&cfg, FaultSpec::Transient { duration: 400 }, window);
        let mut runner = CampaignRunner::new(&cfg);
        for (i, &model) in models.iter().enumerate() {
            let reused = runner
                .run_trial_observed(&mode, &wl, model, None, None)
                .expect("reused");
            let fresh = CampaignRunner::new(&cfg)
                .run_trial_observed(&mode, &wl, model, None, None)
                .expect("fresh");
            assert_eq!(
                reused,
                fresh,
                "trial {i} must not see residue from trial {}",
                i.max(1) - 1
            );
        }
        let perf = runner.perf();
        assert!(perf.sim_instructions > 0 && perf.sim_cycles > 0);
    }

    #[test]
    fn blown_watchdog_deadline_classifies_as_detected() {
        let cfg = small_cfg(1);
        let mode = RedundancyMode::srrs_default(6);
        let wl = small_workload();
        // A fault that never fires: any outcome difference is purely the
        // watchdog's.
        let dormant = FaultModel::TransientSm {
            sm: 0,
            start: u64::MAX,
            duration: 1,
            bit: 0,
        };
        let mut runner = CampaignRunner::new(&cfg);
        let (cut, obs) = runner
            .run_trial_observed(&mode, &wl, dormant, Some(1), None)
            .expect("cutoff is a classification, not an error");
        assert_eq!(cut, TrialOutcome::Detected, "deadline monitor detects");
        assert!(obs.deadline_cut);
        let (free, _) = runner
            .run_trial_observed(&mode, &wl, dormant, None, None)
            .expect("runs");
        assert_eq!(free, TrialOutcome::NotActivated, "no watchdog, no fault");
    }

    #[test]
    fn watchdog_deadline_scales_with_makespan() {
        let default = |m| ftti_deadline(m, higpu_workloads::DEFAULT_FTTI_MULTIPLIER);
        assert_eq!(default(0), 10_000);
        assert_eq!(default(1_000), 18_000);
        assert_eq!(default(u64::MAX), u64::MAX, "saturates");
        // The budget honors the declared multiplier.
        assert_eq!(ftti_deadline(1_000, 8), default(1_000));
        assert_eq!(ftti_deadline(1_000, 2), 12_000);
        assert_eq!(ftti_deadline(u64::MAX, 3), u64::MAX, "saturates");
    }

    /// A workload whose declared FTTI multiplier is so tight that the
    /// deadline fires on a *fault-free* corrupted run — proving the
    /// campaign engine takes the budget from the workload, not a flat
    /// constant.
    #[derive(Debug)]
    struct TightFtti(IteratedFma);

    impl higpu_workloads::Workload for TightFtti {
        fn name(&self) -> &'static str {
            "tight_ftti"
        }
        fn run(
            &self,
            s: &mut dyn higpu_workloads::GpuSession,
        ) -> Result<Vec<u32>, higpu_workloads::SessionError> {
            higpu_workloads::Workload::run(&self.0, s)
        }
        fn reference(&self) -> Vec<u32> {
            higpu_workloads::Workload::reference(&self.0)
        }
        fn tolerance(&self) -> higpu_workloads::Tolerance {
            higpu_workloads::Workload::tolerance(&self.0)
        }
        fn ftti_multiplier(&self) -> u64 {
            0 // deadline = fixed slack only
        }
    }

    #[test]
    fn campaign_enforces_the_workload_declared_ftti_budget() {
        let cfg = small_cfg(4);
        let mode = RedundancyMode::srrs_default(6);
        // Long enough that the redundant makespan exceeds the 10k-cycle
        // fixed slack left by a zero multiplier.
        let inner = IteratedFma {
            n: 512,
            threads_per_block: 64,
            iters: 48,
        };
        let makespan = dry_run_makespan(
            &cfg,
            &mode,
            &crate::workload::CampaignWorkload::new(Box::new(TightFtti(inner.clone()))),
        )
        .expect("dry run");
        assert!(
            makespan > 10_000,
            "workload must outlive the tight budget ({makespan} cycles)"
        );

        let tight = crate::workload::CampaignWorkload::new(Box::new(TightFtti(inner.clone())));
        assert_eq!(RedundantWorkload::ftti_multiplier(&tight), 0);
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Transient { duration: 1 }, &tight)
            .expect("campaign")
            .0;
        assert_eq!(
            r.detected, r.trials,
            "every trial blows the tight FTTI deadline: {r:?}"
        );
        assert_eq!(r.fault_free_makespan, makespan);

        // The same workload under the default budget completes normally.
        let relaxed = crate::workload::CampaignWorkload::new(Box::new(inner));
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Transient { duration: 1 }, &relaxed)
            .expect("campaign")
            .0;
        assert!(
            r.detected < r.trials,
            "default budget leaves fault-free-window trials unharmed: {r:?}"
        );
    }

    #[test]
    fn claim_chunks_cover_every_trial_exactly_once_and_shrink() {
        let next = AtomicUsize::new(0);
        let total = 500;
        let workers = 4;
        let mut covered = vec![0u32; total];
        let mut sizes = Vec::new();
        while let Some(range) = claim_chunk(&next, total, workers) {
            sizes.push(range.len());
            for i in range {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "exact cover, no overlap");
        assert_eq!(sizes.first(), Some(&62), "500 / (2*4) = 62 up front");
        assert_eq!(sizes.last(), Some(&1), "single trials at the tail");
        assert!(
            sizes.windows(2).all(|w| w[0] >= w[1]),
            "guided chunks never grow: {sizes:?}"
        );
        // A huge backlog is capped so no worker hoards the queue.
        let next = AtomicUsize::new(0);
        let first = claim_chunk(&next, 1_000_000, 1).expect("work");
        assert_eq!(first.len(), MAX_CLAIM);
    }

    /// Pool worker state that reports when its worker has finished.
    struct SignalOnDrop(std::sync::mpsc::Sender<()>);

    impl Drop for SignalOnDrop {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    #[test]
    fn pool_returns_the_lowest_failing_trial_at_every_worker_count() {
        // Trials 3 and 6 fail. At 2 workers the first claims 0..4 and the
        // second 4..7; trial 0 waits until the second worker has failed at
        // trial 6 and quit, so trial 3 starts only after a higher-numbered
        // trial's failure is recorded.
        for workers in [1usize, 2, 8] {
            let ran: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            let (quit, quits) = std::sync::mpsc::channel();
            let quits = std::sync::Mutex::new(quits);
            let result = run_pool(
                ran.len(),
                workers,
                || SignalOnDrop(quit.clone()),
                |_, i| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                    if workers == 2 && i == 0 {
                        quits
                            .lock()
                            .expect("unpoisoned")
                            .recv()
                            .expect("a worker quits");
                    }
                    if i == 3 || i == 6 {
                        Err(i)
                    } else {
                        Ok(())
                    }
                },
            );
            assert_eq!(result, Err(3), "at {workers} workers");
            for (i, n) in ran.iter().enumerate().take(4) {
                assert_eq!(
                    n.load(Ordering::Relaxed),
                    1,
                    "trial {i} at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn pool_reduces_every_worker_and_reraises_trial_panics() {
        for workers in [1usize, 2, 8] {
            // Every trial runs exactly once, whichever worker claims it.
            let ran: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            run_pool(
                ran.len(),
                workers,
                || (),
                |(), i| {
                    ran[i].fetch_add(1, Ordering::Relaxed);
                    Ok::<(), ()>(())
                },
            )
            .expect("no trial fails");
            assert!(
                ran.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                "at {workers} workers"
            );

            let payload = catch_unwind(|| {
                run_pool(
                    20,
                    workers,
                    || (),
                    |_, i| {
                        assert!(i != 5, "trial {i} exploded");
                        Ok::<(), ()>(())
                    },
                )
            })
            .expect_err("the trial panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(msg, "trial 5 exploded", "at {workers} workers");
        }
    }

    #[test]
    fn selected_campaign_resolves_workload_and_policy_from_registry() {
        let mut reg = WorkloadRegistry::new();
        higpu_workloads::synthetic::register(&mut reg);
        let cfg = small_cfg(6);
        let spec = CampaignSpec::new("iterated_fma", PolicyKind::Srrs, FaultSpec::Permanent);
        let serial = run_campaign_selected_serial(&cfg, &reg, &spec).expect("serial");
        let parallel = run_campaign_selected_with_telemetry(&cfg, &reg, &spec)
            .expect("parallel")
            .0;
        assert_eq!(parallel, serial, "selected engines agree bit-for-bit");
        assert_eq!(parallel.workload, "iterated_fma");
        assert_eq!(parallel.policy, "SRRS");
        assert_eq!(parallel.undetected, 0);

        let unknown = CampaignSpec::new("no_such", PolicyKind::Half, FaultSpec::Permanent);
        assert_eq!(
            run_campaign_selected_with_telemetry(&cfg, &reg, &unknown).expect_err("unknown"),
            CampaignError::UnknownWorkload("no_such".into())
        );
    }

    #[test]
    fn spec_policy_maps_to_matching_mode() {
        let spec = |p| CampaignSpec::new("w", p, FaultSpec::Permanent);
        assert_eq!(
            spec(PolicyKind::Default).mode(6),
            Ok(RedundancyMode::uncontrolled())
        );
        assert_eq!(
            spec(PolicyKind::Srrs).mode(6),
            Ok(RedundancyMode::srrs_default(6))
        );
        assert_eq!(spec(PolicyKind::Half).mode(6), Ok(RedundancyMode::Half));
        assert_eq!(
            spec(PolicyKind::Slice).mode(6),
            Ok(RedundancyMode::slice(2))
        );
        assert_eq!(
            spec(PolicyKind::SliceSkewed).mode(6),
            Ok(RedundancyMode::slice_skewed_default(2))
        );
        // The replicas axis.
        assert_eq!(
            spec(PolicyKind::Srrs).with_replicas(3).mode(6),
            Ok(RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4]
            })
        );
        assert_eq!(
            spec(PolicyKind::Slice).with_replicas(3).mode(6),
            Ok(RedundancyMode::slice(3))
        );
        assert_eq!(
            spec(PolicyKind::Half).with_replicas(3).mode(6),
            Err(CampaignError::UnsupportedReplicas {
                policy: PolicyKind::Half,
                replicas: 3
            }),
            "HALF is two-replica by construction; SLICE is its N-form"
        );
        assert_eq!(
            spec(PolicyKind::Default).with_replicas(3).mode(6),
            Ok(RedundancyMode::Uncontrolled { replicas: 3 }),
            "the GPGPU-SIM baseline column exists at every replica count"
        );
        assert_eq!(
            spec(PolicyKind::Srrs).with_replicas(1).mode(6),
            Err(CampaignError::UnsupportedReplicas {
                policy: PolicyKind::Srrs,
                replicas: 1
            })
        );
    }

    #[test]
    fn tmr_campaign_corrects_what_dcls_merely_detects() {
        let cfg = small_cfg(12);
        let wl = small_workload();
        let spec = FaultSpec::Permanent;
        let dcls = run_campaign_with_perf(&cfg, &RedundancyMode::srrs_default(6), spec, &wl)
            .expect("dcls")
            .0;
        let tmr = run_campaign_with_perf(&cfg, &RedundancyMode::srrs_spread(6, 3), spec, &wl)
            .expect("tmr")
            .0;
        assert_eq!(dcls.corrected, 0, "2 replicas can never outvote: {dcls:?}");
        assert_eq!(dcls.replicas, 2);
        assert_eq!(tmr.replicas, 3);
        assert!(
            tmr.corrected > 0,
            "TMR must outvote single-SM stuck-ats: {tmr:?}"
        );
        assert_eq!(tmr.undetected, 0, "spatial diversity holds at N=3: {tmr:?}");
        assert!(
            tmr.fault_free_makespan > dcls.fault_free_makespan,
            "a third serialized replica costs makespan: {} vs {}",
            tmr.fault_free_makespan,
            dcls.fault_free_makespan
        );
    }

    #[test]
    fn worker_resolution_precedence() {
        let cfg = CampaignConfig {
            workers: 3,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.resolved_workers(), 3, "explicit count wins");
        let auto = CampaignConfig::default();
        assert!(auto.resolved_workers() >= 1);
    }

    #[test]
    fn coverage_and_evidence_shapes() {
        let r = CampaignReport {
            workload: "w".into(),
            policy: "SRRS".into(),
            fault: "permanent-sm",
            replicas: 3,
            fault_free_makespan: 12_345,
            trials: 10,
            not_activated: 2,
            masked: 1,
            detected: 3,
            corrected: 4,
            undetected: 0,
        };
        assert_eq!(r.coverage(), Some(1.0), "corrected trials are covered");
        let e = r.evidence();
        assert_eq!(e.activated, 8);
        assert_eq!(e.detected, 3);
        assert_eq!(e.corrected, 4);
        assert_eq!(e.undetected_failures, 0);
        assert_eq!(e.coverage(), Some(1.0));
    }
}
