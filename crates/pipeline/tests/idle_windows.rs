//! The pipeline twin of the faults crate's idle-window fence.
//!
//! A pipeline cell runs one fault-free mission of its frames and counts a
//! transient, droop or permanent model whose window meets no block of that
//! mission on the SMs it targets as the mission itself, `NotActivated`,
//! without simulating it (`BusyIntervals::proves_not_activated`). These
//! tests pin that claim:
//!
//! * **drawn models** — for `ad_pipeline` and `sensor_fusion` under every
//!   value-corruption family, as single frames under both executors and as
//!   4-frame limp-home missions on the 10-SM device, each drawn model the
//!   fault-free run proves idle is, simulated from zero without the
//!   inert-fault cutoff, not activated and exactly the fault-free record,
//!   so it adds exactly what the skipped trial adds to the counts. Every
//!   family skips at least one model. Misroutes are never proved idle;
//! * **engine** — the pool reports of single-frame and mission cells of
//!   both pipelines under every value-corruption family, with skips, dedup
//!   and resumed missions, equal the serial oracle's, which simulates every
//!   trial from zero, at 1, 2 and 8 workers; so does a single-frame
//!   misroute cell whose draws repeat a model.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::RedundancyMode;
use higpu_faults::campaign::{draw_models, policy_mode, BusyIntervals, CampaignConfig, FaultSpec};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_pipeline::campaign::{
    run_pipeline_campaign, run_pipeline_campaign_serial, PipelineCampaignSpec,
};
use higpu_pipeline::{
    full_pipeline_registry, plan, run_limp_home, run_pipeline, ExecMode, FrameOptions,
    LimpHomeReport, Pipeline, PipelinePlan, PipelineRun,
};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::Scale;
use std::sync::Arc;

const FRAMES: u32 = 4;
const PIPELINES: [&str; 2] = ["ad_pipeline", "sensor_fusion"];
const FAULTS: [FaultSpec; 3] = [
    FaultSpec::Transient { duration: 400 },
    FaultSpec::Droop { duration: 400 },
    FaultSpec::Permanent,
];

fn wide_cfg(trials: u32) -> CampaignConfig {
    let mut gpu = GpuConfig::wide_10sm();
    gpu.global_mem_bytes = 2 * 1024 * 1024;
    CampaignConfig {
        trials,
        seed: 0x1D1E,
        gpu,
        ..CampaignConfig::default()
    }
}

/// A fresh device with `model`'s injector installed and no cutoff
/// (`None`: no fault at all).
fn device(cfg: &CampaignConfig, model: Option<FaultModel>) -> (Gpu, Arc<InjectionCounters>) {
    let counters = InjectionCounters::shared();
    let mut gpu = Gpu::new(cfg.gpu.clone());
    if let Some(model) = model {
        gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
    }
    (gpu, counters)
}

/// The cell's pipeline, mode and plan, as the campaign resolves them.
fn cell(cfg: &CampaignConfig, name: &str) -> (Pipeline, RedundancyMode, PipelinePlan) {
    let pipeline = full_pipeline_registry()
        .build(name, Scale::Campaign)
        .expect("registered pipeline");
    let mode = policy_mode(PolicyKind::Srrs, 2, cfg.gpu.num_sms).expect("mode");
    let frame_plan = plan(&cfg.gpu, &pipeline, &mode).expect("calibration");
    (pipeline, mode, frame_plan)
}

/// What a from-zero run leaves to count.
#[derive(Debug, PartialEq)]
enum Record {
    Frame(PipelineRun),
    Mission(LimpHomeReport),
}

/// Checks the drawn models of one cell (`frames` 1: a single frame under
/// `exec`); returns how many the fault-free run proves idle.
fn skipped_in_cell(
    cfg: &CampaignConfig,
    name: &str,
    fault: FaultSpec,
    exec: ExecMode,
    frames: u32,
) -> u32 {
    let (pipeline, mode, frame_plan) = cell(cfg, name);
    let opts = FrameOptions::default().with_exec(exec);
    let label = format!("{name}/{}/{}x{frames}", fault.label(), exec.label());
    // One run from zero, a frame or a mission, with whether the fault
    // activated and the device it ran on.
    let run = |model: Option<FaultModel>| {
        let (mut gpu, counters) = device(cfg, model);
        let record = if frames > 1 {
            Record::Mission(
                run_limp_home(
                    &mut gpu,
                    &pipeline,
                    &mode,
                    &frame_plan,
                    opts,
                    frames as usize,
                )
                .expect("mission"),
            )
        } else {
            Record::Frame(
                run_pipeline(&mut gpu, &pipeline, &mode, &frame_plan, opts).expect("frame"),
            )
        };
        (record, counters.activated(), gpu)
    };
    let (fault_free, _, gpu) = run(None);
    let busy = BusyIntervals::from_trace(gpu.trace());
    let frame_makespan = {
        let (mut gpu, _) = device(cfg, None);
        run_pipeline(&mut gpu, &pipeline, &mode, &frame_plan, opts)
            .expect("frame")
            .end_cycle
    };
    let mut skipped = 0;
    for (i, model) in draw_models(cfg, fault, frame_makespan * u64::from(frames))
        .into_iter()
        .enumerate()
    {
        if !busy.proves_not_activated(model, None) {
            continue;
        }
        skipped += 1;
        let (record, activated, _) = run(Some(model));
        assert!(
            !activated,
            "{label} trial {i} ({model:?}): proved idle yet activated"
        );
        assert_eq!(
            record, fault_free,
            "{label} trial {i} ({model:?}): proved idle yet not the fault-free run"
        );
    }
    skipped
}

#[test]
fn drawn_models_proved_idle_are_the_fault_free_run() {
    let cfg = wide_cfg(6);
    for fault in FAULTS {
        let mut skipped = 0;
        for name in PIPELINES {
            for exec in [ExecMode::Serial, ExecMode::Overlapped] {
                skipped += skipped_in_cell(&cfg, name, fault, exec, 1);
            }
            skipped += skipped_in_cell(&cfg, name, fault, ExecMode::Overlapped, FRAMES);
        }
        assert!(
            skipped > 0,
            "{}: no drawn model was proved idle — the fence is vacuous",
            fault.label()
        );
    }
}

#[test]
fn misroutes_are_never_proved_idle() {
    let cfg = wide_cfg(12);
    let (pipeline, mode, frame_plan) = cell(&cfg, "sensor_fusion");
    let (mut gpu, _) = device(&cfg, None);
    run_pipeline(
        &mut gpu,
        &pipeline,
        &mode,
        &frame_plan,
        FrameOptions::default(),
    )
    .expect("frame");
    let busy = BusyIntervals::from_trace(gpu.trace());
    for model in draw_models(&cfg, FaultSpec::Misroute, busy.makespan()) {
        assert!(!busy.proves_not_activated(model, None), "{model:?}");
    }
}

/// Asserts the pool report of `spec` equals the serial oracle's at 1, 2
/// and 8 workers.
fn pool_matches_serial(cfg: &CampaignConfig, spec: &PipelineCampaignSpec) {
    let reg = full_pipeline_registry();
    let serial = run_pipeline_campaign_serial(cfg, &reg, spec).expect("serial oracle");
    for workers in [1, 2, 8] {
        let pool = run_pipeline_campaign(
            &CampaignConfig {
                workers,
                ..cfg.clone()
            },
            &reg,
            spec,
        )
        .expect("pool");
        assert_eq!(pool, serial, "{spec:?} at {workers} workers");
    }
}

#[test]
fn pool_with_skips_matches_the_serial_oracle_at_1_2_8_workers() {
    let cfg = wide_cfg(3);
    // Each pipeline's single frames under one executor, and its missions.
    for (name, exec) in PIPELINES
        .into_iter()
        .zip([ExecMode::Serial, ExecMode::Overlapped])
    {
        for fault in FAULTS {
            for frames in [1, FRAMES] {
                let spec = PipelineCampaignSpec::new(name, PolicyKind::Srrs, fault)
                    .with_exec(exec)
                    .with_frames(frames);
                pool_matches_serial(&cfg, &spec);
            }
        }
    }
    // Six SMs leave five misroute shifts, so eight draws repeat one.
    let cfg = CampaignConfig {
        trials: 8,
        seed: 0x1D1E,
        ..CampaignConfig::default()
    };
    let models = draw_models(&cfg, FaultSpec::Misroute, 1);
    assert!(
        (1..models.len()).any(|i| models[..i].contains(&models[i])),
        "no misroute model repeats — dedup is not exercised"
    );
    let spec = PipelineCampaignSpec::new("ad_pipeline", PolicyKind::Srrs, FaultSpec::Misroute);
    pool_matches_serial(&cfg, &spec);
}
