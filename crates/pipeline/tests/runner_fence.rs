//! Fence for `PipelineCampaignRunner`: its trials are plain runs.
//!
//! `PipelineCampaignRunner::{run_trial, run_limp_trial}` rewind the device
//! and install the model's injector before each trial. For every drawn
//! transient and droop model, each must return exactly the record that
//! `run_pipeline` / `run_limp_home` return on a fresh device with the
//! injector installed by hand, and classify `NotActivated` exactly when
//! the injector corrupted nothing. The draws include windows that close
//! well before the frame or mission ends without corrupting anything: such
//! a trial still runs to the fault-free end and returns its full record.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{draw_models, policy_mode, CampaignConfig, FaultSpec};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_pipeline::campaign::{PipelineCampaignRunner, PipelineTrialOutcome};
use higpu_pipeline::{full_pipeline_registry, plan, run_limp_home, run_pipeline, FrameOptions};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::Scale;
use std::sync::Arc;

const FRAMES: u32 = 4;

fn gpu_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::wide_10sm();
    cfg.global_mem_bytes = 2 * 1024 * 1024;
    cfg
}

/// A fresh device with `model`'s injector installed.
fn injected(model: FaultModel) -> (Gpu, Arc<InjectionCounters>) {
    let counters = InjectionCounters::shared();
    let mut gpu = Gpu::new(gpu_cfg());
    gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
    (gpu, counters)
}

/// True when `model`'s window closed before `end` without a corruption.
fn closed_clean(model: FaultModel, end: u64, counters: &InjectionCounters) -> bool {
    !counters.activated() && model.window_end().is_some_and(|w| w < end)
}

#[test]
fn runner_trials_match_hand_injected_runs() {
    let reg = full_pipeline_registry();
    let pipeline = reg
        .build("sensor_fusion", Scale::Campaign)
        .expect("registered pipeline");
    let mode = policy_mode(PolicyKind::Srrs, 2, gpu_cfg().num_sms).expect("mode");
    let frame_plan = plan(&gpu_cfg(), &pipeline, &mode).expect("calibration");
    let opts = FrameOptions::default();
    let frame = run_pipeline(
        &mut Gpu::new(gpu_cfg()),
        &pipeline,
        &mode,
        &frame_plan,
        opts,
    )
    .expect("fault-free frame")
    .end_cycle;
    let cfg = CampaignConfig {
        trials: 3,
        seed: 0x1E27,
        gpu: gpu_cfg(),
        ..CampaignConfig::default()
    };
    let mut runner = PipelineCampaignRunner::new(&cfg);
    let (mut clean_missions, mut clean_frames) = (0, 0);
    for fault in [
        FaultSpec::Transient { duration: 400 },
        FaultSpec::Droop { duration: 400 },
    ] {
        for model in draw_models(&cfg, fault, frame * u64::from(FRAMES)) {
            let (outcome, rep) = runner
                .run_limp_trial(&pipeline, &mode, &frame_plan, opts, FRAMES, model)
                .expect("mission");
            let (mut gpu, counters) = injected(model);
            let full = run_limp_home(
                &mut gpu,
                &pipeline,
                &mode,
                &frame_plan,
                opts,
                FRAMES as usize,
            )
            .expect("hand-injected mission");
            assert_eq!(rep, full, "{model:?}: mission record");
            assert_eq!(
                outcome == PipelineTrialOutcome::NotActivated,
                !counters.activated(),
                "{model:?}: mission outcome {outcome:?}"
            );
            clean_missions += u32::from(closed_clean(model, gpu.cycle(), &counters));
        }
        for model in draw_models(&cfg, fault, frame) {
            let (outcome, run) = runner
                .run_trial(&pipeline, &mode, &frame_plan, opts, false, model)
                .expect("frame");
            let (mut gpu, counters) = injected(model);
            let full = run_pipeline(&mut gpu, &pipeline, &mode, &frame_plan, opts)
                .expect("hand-injected frame");
            assert_eq!(run, full, "{model:?}: frame record");
            assert_eq!(
                outcome == PipelineTrialOutcome::NotActivated,
                !counters.activated(),
                "{model:?}: frame outcome {outcome:?}"
            );
            clean_frames += u32::from(closed_clean(model, gpu.cycle(), &counters));
        }
    }
    assert!(
        clean_missions > 0 && clean_frames > 0,
        "no window closed early without a corruption ({clean_missions} missions, \
         {clean_frames} frames) — the fence is vacuous"
    );
}
