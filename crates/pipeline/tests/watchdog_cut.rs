//! Watchdog-cut frames are frozen. For each stage of the two registered
//! pipelines in turn, the stage's budget is halved below its own fault-free
//! makespan, so its watchdog fires on every attempt. The frame must retry
//! (slack permitting), fail-stop and abort the siblings at exactly the
//! recorded cycles.
//!
//! `ad_pipeline` is a chain, so every attempt there runs as a lone stage on
//! the executor thread. `sensor_fusion`'s camera and radar sources overlap,
//! so cutting either exercises the threaded transport, while fuse and track
//! run alone after the join, so cutting them exercises the inline path.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::policy_mode;
use higpu_pipeline::{
    full_pipeline_registry, plan, run_pipeline, FailReason, FrameOptions, StageStatus,
};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::Scale;

const EXHAUSTED: StageStatus = StageStatus::FailStop(FailReason::RetryExhausted);

/// One cut frame: (end cycle, retries attempted, retries failed, no-slack
/// fail-stops, timeline of (stage, start, end, attempts, status)).
type Golden = (
    u64,
    u32,
    u32,
    u32,
    &'static [(usize, u64, u64, u32, StageStatus)],
);

fn gpu_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::wide_10sm();
    cfg.global_mem_bytes = 2 * 1024 * 1024;
    cfg
}

fn assert_cut_frames(name: &str, golden: &[Golden]) {
    let pipeline = full_pipeline_registry()
        .build(name, Scale::Campaign)
        .expect("registered pipeline");
    let mode = policy_mode(PolicyKind::Srrs, 2, gpu_cfg().num_sms).expect("mode");
    let base = plan(&gpu_cfg(), &pipeline, &mode).expect("calibration");
    assert_eq!(golden.len(), pipeline.len());
    for (s, &(end, attempted, failed, no_slack, timeline)) in golden.iter().enumerate() {
        let mut cut = base.clone();
        cut.ftti.stage_budgets[s] = cut.stage_makespans[s] / 2;
        let run = run_pipeline(
            &mut Gpu::new(gpu_cfg()),
            &pipeline,
            &mode,
            &cut,
            FrameOptions::default(),
        )
        .expect("cut frame");
        let got: Vec<_> = run
            .timings
            .iter()
            .map(|t| (t.stage, t.start, t.end, t.attempts, t.status))
            .collect();
        assert_eq!(got, timeline, "{name}, stage {s} cut: timeline moved");
        assert_eq!(
            (
                run.end_cycle,
                run.retries_attempted,
                run.retries_failed,
                run.no_slack_failures
            ),
            (end, attempted, failed, no_slack),
            "{name}, stage {s} cut: frame counts moved"
        );
        assert!(!run.deadline_miss, "{name}, stage {s} cut");
    }
}

#[test]
fn ad_pipeline_cut_frames_are_frozen() {
    assert_cut_frames(
        "ad_pipeline",
        &[
            (
                31_034,
                0,
                0,
                1,
                &[(0, 0, 31_034, 1, StageStatus::FailStop(FailReason::NoSlack))],
            ),
            (
                191_048,
                1,
                1,
                0,
                &[
                    (0, 0, 62_064, 1, StageStatus::Clean),
                    (1, 62_064, 191_048, 2, EXHAUSTED),
                ],
            ),
            (
                267_246,
                1,
                1,
                0,
                &[
                    (0, 0, 62_064, 1, StageStatus::Clean),
                    (1, 62_064, 186_010, 1, StageStatus::Clean),
                    (2, 186_010, 267_246, 2, EXHAUSTED),
                ],
            ),
        ],
    );
}

#[test]
fn sensor_fusion_cut_frames_are_frozen() {
    assert_cut_frames(
        "sensor_fusion",
        &[
            (
                35_000,
                1,
                1,
                0,
                &[
                    (1, 0, 29_188, 1, StageStatus::Clean),
                    (0, 0, 35_000, 2, EXHAUSTED),
                ],
            ),
            // The radar fail-stop abandons the frame: the camera sibling is
            // cancelled and records no timing.
            (15_360, 1, 1, 0, &[(1, 0, 15_360, 2, EXHAUSTED)]),
            (
                63_697,
                1,
                1,
                0,
                &[
                    (1, 0, 29_188, 1, StageStatus::Clean),
                    (0, 0, 42_697, 1, StageStatus::Clean),
                    (2, 42_697, 63_697, 2, EXHAUSTED),
                ],
            ),
            (
                78_785,
                1,
                1,
                0,
                &[
                    (1, 0, 29_188, 1, StageStatus::Clean),
                    (0, 0, 42_697, 1, StageStatus::Clean),
                    (2, 42_697, 57_785, 1, StageStatus::Clean),
                    (3, 57_785, 78_785, 2, EXHAUSTED),
                ],
            ),
        ],
    );
}
