//! The benchmark's workloads: which campaign cells each one runs, their
//! set-up calls, and one untraced round through the public campaign entry
//! points.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{
    dry_run_makespan, policy_mode, run_campaign_selected_with_telemetry, run_campaign_with_perf,
    CampaignConfig, CampaignPerf, CampaignReport, CampaignSpec, CampaignTelemetry, FaultSpec,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig};
use higpu_pipeline::campaign::{
    run_pipeline_campaign, PipelineCampaignReport, PipelineCampaignSpec,
};
use higpu_pipeline::{full_pipeline_registry, PipelineRegistry};
use higpu_sim::config::GpuConfig;
use higpu_workloads::WorkloadRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Campaign worker threads, set explicitly so `HIGPU_WORKERS` cannot change
/// the load.
pub const WORKERS: usize = 2;

/// Frames per limp-home mission.
const MISSION_FRAMES: u32 = 4;

/// Transient and droop window length, in cycles (the matrix default).
const WINDOW: u64 = 400;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every registry workload except `kmeans` × {SRRS, HALF} × four fault
    /// families at N = 2 on the paper's 6-SM device, from zero.
    DclsScratch,
    /// The six largest-state workloads × {SRRS, SLICE} at N = 3 × three
    /// fault families, checkpointed at the default stride.
    TmrCheckpoint,
    /// Both pipelines × SRRS N = 2 overlapped × three fault families as
    /// four-frame limp-home missions on the 10-SM device.
    PipelineLimp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DclsScratch,
        Workload::TmrCheckpoint,
        Workload::PipelineLimp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DclsScratch => "dcls-scratch",
            Workload::TmrCheckpoint => "tmr-checkpoint",
            Workload::PipelineLimp => "pipeline-limp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trials per cell of one round (a limp-home trial is one mission).
    /// Sized so a round takes a few seconds on a 2-CPU host.
    pub fn trials_per_cell(self) -> u32 {
        match self {
            Workload::DclsScratch => 24,
            Workload::TmrCheckpoint => 32,
            Workload::PipelineLimp => 48,
        }
    }
}

/// One campaign cell.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A workload campaign resolved from the workload registry.
    Faults(CampaignSpec),
    /// A limp-home pipeline campaign.
    Limp(PipelineCampaignSpec),
}

impl Cell {
    /// Human-readable cell name for diagnostics.
    pub fn label(&self) -> String {
        match self {
            Cell::Faults(s) => format!(
                "{}/{}@{}/{}",
                s.workload,
                s.policy.label(),
                s.replicas,
                s.fault.label()
            ),
            Cell::Limp(s) => format!(
                "{}/{}@{}/{}/x{}",
                s.pipeline,
                s.policy.label(),
                s.replicas,
                s.fault.label(),
                s.frames
            ),
        }
    }

    /// True when the cell's policy enforces diversity, so any undetected
    /// failure contradicts the paper's claim.
    pub fn diverse(&self) -> bool {
        let policy = match self {
            Cell::Faults(s) => s.policy,
            Cell::Limp(s) => s.policy,
        };
        policy != PolicyKind::Default
    }
}

/// A workload resolved into its campaign configuration and cells.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Campaign configuration shared by every cell (seed, trials, device,
    /// workers, checkpointing).
    pub cfg: CampaignConfig,
    /// The cells, in run order.
    pub cells: Vec<Cell>,
}

impl Plan {
    /// The same cells for round `round` of a run: round 0 keeps the
    /// campaign seed, later rounds derive fresh seeds from it, so a run
    /// averages over more distinct fault models.
    pub fn for_round(&self, round: u64) -> Plan {
        let mut plan = self.clone();
        if round > 0 {
            plan.cfg.seed = mix(self.cfg.seed, round);
        }
        plan
    }

    /// The campaign configuration of cell `index` with `workers` threads.
    /// Each cell draws from its own seed, so cells sharing a workload or a
    /// fault family do not repeat each other's fault models.
    pub fn cell_cfg(&self, index: usize, workers: usize) -> CampaignConfig {
        CampaignConfig {
            seed: mix(self.cfg.seed, index as u64),
            workers,
            ..self.cfg.clone()
        }
    }
}

/// SplitMix64 of `seed` advanced by `stream + 1` steps.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The workload registry the campaign cells resolve against.
fn workload_registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    higpu_workloads::synthetic::register(&mut reg);
    higpu_rodinia::register_all(&mut reg);
    reg
}

/// Both registries a round needs.
#[derive(Debug)]
pub struct Registries {
    /// Registry workloads.
    pub workloads: WorkloadRegistry,
    /// Pipelines.
    pub pipelines: PipelineRegistry,
}

impl Registries {
    /// Builds both registries.
    pub fn new() -> Self {
        Self {
            workloads: workload_registry(),
            pipelines: full_pipeline_registry(),
        }
    }
}

impl Default for Registries {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolves `workload` at `seed` with `trials` per cell.
pub fn plan_workload(workload: Workload, seed: u64, trials: u32) -> Plan {
    let transient = FaultSpec::Transient { duration: WINDOW };
    let droop = FaultSpec::Droop { duration: WINDOW };
    let mut cfg = CampaignConfig {
        trials,
        seed,
        workers: WORKERS,
        ..CampaignConfig::default()
    };
    let cells = match workload {
        Workload::DclsScratch => {
            // kmeans stays out: a fault-corrupted cluster id panics its host
            // program at campaign trial counts, which aborts the pool.
            let names: Vec<&str> = workload_registry()
                .names()
                .into_iter()
                .filter(|&n| n != "kmeans")
                .collect();
            let mut cells = Vec::new();
            for name in names {
                for policy in [PolicyKind::Srrs, PolicyKind::Half] {
                    for fault in [transient, droop, FaultSpec::Permanent, FaultSpec::Misroute] {
                        cells.push(Cell::Faults(CampaignSpec::new(name, policy, fault)));
                    }
                }
            }
            cells
        }
        Workload::TmrCheckpoint => {
            cfg.checkpoint = Some(CheckpointConfig::default());
            let mut cells = Vec::new();
            for name in ["srad", "hotspot3D", "lud", "nw", "cfd", "leukocyte"] {
                for policy in [PolicyKind::Srrs, PolicyKind::Slice] {
                    for fault in [transient, droop, FaultSpec::Permanent] {
                        cells.push(Cell::Faults(
                            CampaignSpec::new(name, policy, fault).with_replicas(3),
                        ));
                    }
                }
            }
            cells
        }
        Workload::PipelineLimp => {
            let mut gpu = GpuConfig::wide_10sm();
            gpu.global_mem_bytes = 2 * 1024 * 1024;
            cfg.gpu = gpu;
            let mut cells = Vec::new();
            for name in ["ad_pipeline", "sensor_fusion"] {
                for fault in [transient, droop, FaultSpec::Permanent] {
                    cells.push(Cell::Limp(
                        PipelineCampaignSpec::new(name, PolicyKind::Srrs, fault)
                            .with_frames(MISSION_FRAMES),
                    ));
                }
            }
            cells
        }
    };
    Plan { cfg, cells }
}

/// Runs `f`, turning a panic into an error so one broken cell cannot end
/// the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Wall seconds of the set-up calls of every cell: building the registries
/// or pipelines plus `dry_run_makespan` (from-zero cells),
/// `record_reference` (checkpointed cells) or `plan` (pipeline cells).
///
/// # Errors
///
/// The first set-up call that fails or panics.
pub fn setup_seconds(plan: &Plan) -> Result<f64, String> {
    let t0 = Instant::now();
    let regs = Registries::new();
    for cell in &plan.cells {
        guarded(|| setup_cell(plan, &regs, cell))?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

fn setup_cell(plan: &Plan, regs: &Registries, cell: &Cell) -> Result<(), String> {
    let cfg = &plan.cfg;
    match cell {
        Cell::Faults(spec) => {
            let workload = spec
                .build_workload(&regs.workloads)
                .map_err(|e| e.to_string())?;
            let mode = spec.mode(cfg.gpu.num_sms).map_err(|e| e.to_string())?;
            match cfg.checkpoint {
                Some(ck) => {
                    std::hint::black_box(
                        record_reference(cfg, &mode, &workload, ck.stride)
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => {
                    std::hint::black_box(
                        dry_run_makespan(cfg, &mode, &workload).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
        Cell::Limp(spec) => {
            let pipeline = regs
                .pipelines
                .build(&spec.pipeline, spec.scale)
                .ok_or_else(|| format!("unknown pipeline {}", spec.pipeline))?;
            let mode = policy_mode(spec.policy, spec.replicas, cfg.gpu.num_sms)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(
                higpu_pipeline::plan(&cfg.gpu, &pipeline, &mode).map_err(|e| e.to_string())?,
            );
        }
    }
    Ok(())
}

/// What one campaign call returned.
#[derive(Debug, Clone)]
pub enum CellReport {
    /// A workload campaign: its report plus whichever of perf and telemetry
    /// the entry point returns.
    Faults {
        /// The campaign report.
        report: CampaignReport,
        /// Simulated cost (`run_campaign_with_perf`).
        perf: Option<CampaignPerf>,
        /// Cycle-domain telemetry (`run_campaign_selected_with_telemetry`).
        telemetry: Option<Box<CampaignTelemetry>>,
    },
    /// A pipeline campaign report.
    Limp(PipelineCampaignReport),
}

impl CellReport {
    /// Trials whose fault activated.
    pub fn activated(&self) -> u32 {
        match self {
            CellReport::Faults { report, .. } => report.trials - report.not_activated,
            CellReport::Limp(r) => r.trials - r.not_activated,
        }
    }

    /// Undetected failures.
    pub fn undetected(&self) -> u32 {
        match self {
            CellReport::Faults { report, .. } => report.undetected,
            CellReport::Limp(r) => r.undetected,
        }
    }

    /// Sum of the per-outcome counts, which must equal the trials run.
    pub fn classified(&self) -> u32 {
        match self {
            CellReport::Faults { report: r, .. } => {
                r.not_activated + r.masked + r.detected + r.corrected + r.undetected
            }
            CellReport::Limp(r) => {
                r.not_activated
                    + r.masked
                    + r.corrected
                    + r.recovered
                    + r.detected
                    + r.quarantined
                    + r.limp_home_miss
                    + r.undetected
            }
        }
    }
}

/// One timed campaign call.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Trials the call was asked to run.
    pub trials: u32,
    /// Wall seconds of the whole call, the campaign's reference pass
    /// included.
    pub wall_s: f64,
    /// The call's result; an error or a panic fails every trial of the cell.
    pub result: Result<CellReport, String>,
}

impl CellRun {
    /// Trials that failed (all of them when the call did not return a
    /// report).
    pub fn failed(&self) -> u32 {
        if self.result.is_ok() {
            0
        } else {
            self.trials
        }
    }
}

/// Times one guarded campaign call of `trials` trials.
pub fn count_cell(trials: u32, f: impl FnOnce() -> Result<CellReport, String>) -> CellRun {
    let t0 = Instant::now();
    let result = guarded(f);
    CellRun {
        trials,
        wall_s: t0.elapsed().as_secs_f64(),
        result,
    }
}

/// Runs cell `index` of `plan` through its public campaign entry point
/// with `workers` campaign threads.
pub fn run_cell(plan: &Plan, regs: &Registries, index: usize, workers: usize) -> CellRun {
    let cfg = plan.cell_cfg(index, workers);
    count_cell(cfg.trials, || match &plan.cells[index] {
        Cell::Faults(spec) if cfg.checkpoint.is_some() => {
            let workload = spec
                .build_workload(&regs.workloads)
                .map_err(|e| e.to_string())?;
            let mode = spec.mode(cfg.gpu.num_sms).map_err(|e| e.to_string())?;
            let (report, perf) = run_campaign_with_perf(&cfg, &mode, spec.fault, &workload)
                .map_err(|e| e.to_string())?;
            Ok(CellReport::Faults {
                report,
                perf: Some(perf),
                telemetry: None,
            })
        }
        Cell::Faults(spec) => {
            let (report, telemetry) =
                run_campaign_selected_with_telemetry(&cfg, &regs.workloads, spec)
                    .map_err(|e| e.to_string())?;
            Ok(CellReport::Faults {
                report,
                perf: None,
                telemetry: Some(Box::new(telemetry)),
            })
        }
        Cell::Limp(spec) => run_pipeline_campaign(&cfg, &regs.pipelines, spec)
            .map(CellReport::Limp)
            .map_err(|e| e.to_string()),
    })
}

/// One untraced pass over every cell of a plan.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// One entry per cell, in plan order.
    pub cells: Vec<CellRun>,
}

impl Round {
    /// Runs every cell of `plan` with `workers` campaign threads.
    pub fn run(plan: &Plan, regs: &Registries, workers: usize) -> Self {
        let t0 = Instant::now();
        let cells = (0..plan.cells.len())
            .map(|i| run_cell(plan, regs, i, workers))
            .collect();
        Self {
            wall_s: t0.elapsed().as_secs_f64(),
            cells,
        }
    }

    /// Trials attempted.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.trials)).sum()
    }

    /// Trials failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.failed())).sum()
    }

    /// Trials classified (attempted minus failed).
    pub fn completed(&self) -> u64 {
        self.attempted() - self.failed()
    }

    /// Classified trials whose fault activated.
    pub fn activated(&self) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.result.as_ref().ok())
            .map(|r| u64::from(r.activated()))
            .sum()
    }

    /// FNV-1a digest over every cell's report, `CampaignPerf` counts and
    /// telemetry histograms (a failed cell contributes its label): equal
    /// for equal seeds at any worker count.
    pub fn digest(&self, plan: &Plan) -> u64 {
        let mut h = Fnv::new();
        for (cell, run) in plan.cells.iter().zip(&self.cells) {
            match &run.result {
                Ok(report) => h.write(format!("{report:?}").as_bytes()),
                Err(_) => h.write(format!("failed {}", cell.label()).as_bytes()),
            }
        }
        h.finish()
    }

    /// Consistency problems: a cell whose outcome counts do not sum to its
    /// trials, or whose telemetry did not record every trial.
    pub fn check(&self, plan: &Plan) -> Vec<String> {
        let mut problems = Vec::new();
        for (cell, run) in plan.cells.iter().zip(&self.cells) {
            let Ok(report) = &run.result else { continue };
            if report.classified() != run.trials {
                problems.push(format!(
                    "{}: {} outcomes for {} trials",
                    cell.label(),
                    report.classified(),
                    run.trials
                ));
            }
            if let CellReport::Faults {
                telemetry: Some(t), ..
            } = report
            {
                if t.makespans.count() != u64::from(run.trials) {
                    problems.push(format!(
                        "{}: telemetry saw {} of {} trials",
                        cell.label(),
                        t.makespans.count(),
                        run.trials
                    ));
                }
            }
        }
        problems
    }

    /// Undetected failures per cell under a diversity-enforcing policy.
    pub fn undetected_diverse(&self, plan: &Plan) -> Vec<(String, u32)> {
        plan.cells
            .iter()
            .zip(&self.cells)
            .filter(|(cell, _)| cell.diverse())
            .filter_map(|(cell, run)| {
                let n = run.result.as_ref().ok()?.undetected();
                (n > 0).then(|| (cell.label(), n))
            })
            .collect()
    }

    /// Failed cells with their errors.
    pub fn failures(&self, plan: &Plan) -> Vec<(String, String)> {
        plan.cells
            .iter()
            .zip(&self.cells)
            .filter_map(|(cell, run)| run.result.as_ref().err().map(|e| (cell.label(), e.clone())))
            .collect()
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}
