//! The pipeline twin of the faults crate's inert-exit fence.
//!
//! `PipelineCampaignRunner` arms the inert-fault cutoff at a transient or
//! droop window's end: a mission or frame that reaches it without a
//! corruption stops there and reports `NotActivated` with an empty record.
//! Each such trial's full run (`run_limp_home` / `run_pipeline` with the
//! injector installed by hand, which never arms the cutoff) must agree:
//! nothing activated, and the record adds zero to every campaign count — no
//! deadline miss, retry, fail-stop, quarantine or degraded frame. Trials
//! that did not exit must match their full run exactly.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{draw_models, policy_mode, CampaignConfig, FaultSpec};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_pipeline::campaign::{PipelineCampaignRunner, PipelineTrialOutcome};
use higpu_pipeline::{
    full_pipeline_registry, plan, run_limp_home, run_pipeline, FrameOptions, FrameStatus,
    PipelineRun,
};
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

/// A fresh device with `model`'s injector installed and no cutoff.
fn injected(model: FaultModel) -> (Gpu, Arc<InjectionCounters>) {
    let counters = InjectionCounters::shared();
    let mut gpu = Gpu::new(gpu_cfg());
    gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
    (gpu, counters)
}

/// True when a fault-free-looking frame adds nothing to the campaign counts.
fn clean(run: &PipelineRun) -> bool {
    run.completed()
        && run.retries_attempted == 0
        && run.retries_failed == 0
        && run.no_slack_failures == 0
        && run.recovered_stages() == 0
        && run.corrected_stages() == 0
        && run.corrected_reads == 0
}

#[test]
fn exited_trials_match_their_full_runs() {
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
    let (mut mission_exits, mut frame_exits) = (0, 0);
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
            .expect("full mission");
            if rep.frames.is_empty() {
                mission_exits += 1;
                assert_eq!(outcome, PipelineTrialOutcome::NotActivated, "{model:?}");
                assert!(!counters.activated(), "{model:?}: exited yet activated");
                assert!(
                    full.frames
                        .iter()
                        .all(|f| f.status == FrameStatus::Nominal
                            && f.run.as_ref().is_some_and(clean)),
                    "{model:?}: the full mission would have counted something"
                );
                assert_eq!(full.degraded_frames(), 0);
                assert_eq!(full.frames_to_diagnosis(), None);
                assert_eq!(full.limp_deadline_misses(), 0);
            } else {
                assert_eq!(
                    rep, full,
                    "{model:?}: a mission that ran on must not change"
                );
                assert_eq!(
                    outcome == PipelineTrialOutcome::NotActivated,
                    !counters.activated(),
                    "{model:?}"
                );
            }
        }
        for model in draw_models(&cfg, fault, frame) {
            let (outcome, run) = runner
                .run_trial(&pipeline, &mode, &frame_plan, opts, false, model)
                .expect("frame");
            let (mut gpu, counters) = injected(model);
            let full =
                run_pipeline(&mut gpu, &pipeline, &mode, &frame_plan, opts).expect("full frame");
            if run.timings.is_empty() {
                frame_exits += 1;
                assert_eq!(outcome, PipelineTrialOutcome::NotActivated, "{model:?}");
                assert!(!counters.activated(), "{model:?}: exited yet activated");
                assert!(clean(&full), "{model:?}: the full frame would have counted");
            } else {
                assert_eq!(run, full, "{model:?}: a frame that ran on must not change");
            }
        }
    }
    assert!(
        mission_exits > 0 && frame_exits > 0,
        "no exit fired ({mission_exits} missions, {frame_exits} frames) — the fence is vacuous"
    );
}
