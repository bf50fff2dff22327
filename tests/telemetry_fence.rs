//! Observability fences: telemetry must be a pure **observer**.
//!
//! The contract (`higpu_telemetry`): enabling the event ring and the
//! campaign telemetry aggregation changes *nothing* observable about the
//! simulation — every report, issue stream, trace and statistic is
//! bit-identical with telemetry on and off, at every worker count,
//! checkpointed or from zero. The aggregate telemetry
//! itself is a deterministic function of the campaign (order-independent
//! histogram merge), so it too must be bit-identical at every worker
//! count.

use higpu_bench::matrix::full_registry;
use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{
    run_campaign_selected, run_campaign_selected_with_telemetry, CampaignConfig, CampaignReport,
    CampaignSpec, CampaignTelemetry, FaultSpec,
};
use higpu_faults::checkpoint::CheckpointConfig;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_sim::sm::IssueRecord;
use higpu_sim::stats::SimStats;
use higpu_sim::trace::ExecutionTrace;
use higpu_workloads::session::SoloSession;
use higpu_workloads::Scale;

/// The swept cell: small but fault-active (transient windows inside the
/// hotspot execution window activate often enough to exercise detection,
/// correction and the corrupted-terminating paths).
fn spec() -> CampaignSpec {
    CampaignSpec::new(
        "hotspot",
        PolicyKind::Srrs,
        FaultSpec::Transient { duration: 400 },
    )
}

fn campaign_cfg(workers: usize, telemetry: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig {
        trials: 24,
        workers,
        ..CampaignConfig::default()
    };
    cfg.gpu.telemetry_capacity = if telemetry { Some(1 << 12) } else { None };
    cfg
}

fn run_cell(workers: usize, telemetry: bool) -> CampaignReport {
    run_campaign_selected(&campaign_cfg(workers, telemetry), &full_registry(), &spec())
        .expect("campaign")
}

/// The primary fence: a telemetry-enabled campaign reports exactly what the
/// telemetry-free campaign reports — per worker count.
#[test]
fn reports_bit_identical_with_telemetry_on_and_off() {
    let baseline = run_cell(1, false);
    for workers in [1usize, 2, 8] {
        let off = run_cell(workers, false);
        let on = run_cell(workers, true);
        assert_eq!(
            off, baseline,
            "{workers} workers: telemetry-off report diverged from serial baseline"
        );
        assert_eq!(
            on, baseline,
            "{workers} workers: enabling telemetry changed the campaign report"
        );
    }
}

/// Checkpointed variant: suffix-only replay with the event ring enabled
/// still reproduces the from-zero, telemetry-free report bit-for-bit.
#[test]
fn checkpointed_reports_unaffected_by_telemetry() {
    let reg = full_registry();
    let baseline = run_cell(1, false);
    for telemetry in [false, true] {
        let mut cfg = campaign_cfg(2, telemetry);
        cfg.checkpoint = Some(CheckpointConfig::default());
        let report = run_campaign_selected(&cfg, &reg, &spec()).expect("checkpointed campaign");
        assert_eq!(
            report, baseline,
            "checkpointed campaign (telemetry={telemetry}) diverged from from-zero baseline"
        );
    }
}

/// The aggregate telemetry is itself deterministic: histograms and restore
/// counters merge order-independently, so every worker count produces the
/// same `CampaignTelemetry` — and it actually measured something.
#[test]
fn campaign_telemetry_bit_identical_at_every_worker_count() {
    let reg = full_registry();
    let mut baseline: Option<CampaignTelemetry> = None;
    for workers in [1usize, 2, 8] {
        let cfg = campaign_cfg(workers, true);
        let (_, telemetry) =
            run_campaign_selected_with_telemetry(&cfg, &reg, &spec()).expect("campaign");
        assert_eq!(
            telemetry.makespans.count(),
            u64::from(cfg.trials),
            "{workers} workers: every trial must land one makespan sample"
        );
        match &baseline {
            None => baseline = Some(telemetry),
            Some(b) => assert_eq!(
                &telemetry, b,
                "{workers} workers: telemetry aggregate diverged from the serial aggregate"
            ),
        }
    }
}

/// One workload's complete observable device behaviour.
struct SoloRun {
    issues: Vec<IssueRecord>,
    trace: ExecutionTrace,
    stats: SimStats,
}

fn solo_run(telemetry: bool) -> SoloRun {
    let cfg = GpuConfig {
        telemetry_capacity: if telemetry { Some(1 << 12) } else { None },
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    let workload = full_registry()
        .build("hotspot", Scale::Campaign)
        .expect("hotspot registered");
    {
        let mut session = SoloSession::new(&mut gpu);
        workload.run(&mut session).expect("hotspot run");
    }
    SoloRun {
        issues: gpu.drain_issue_log(),
        trace: gpu.trace().clone(),
        stats: gpu.stats(),
    }
}

/// Below the campaign layer: the device's per-instruction issue stream,
/// execution trace and statistics are bit-identical with the event ring
/// enabled and disabled — the ring observes the simulation without
/// perturbing it.
#[test]
fn issue_stream_trace_and_stats_unaffected_by_telemetry() {
    let off = solo_run(false);
    let on = solo_run(true);
    assert_eq!(
        off.issues.len(),
        on.issues.len(),
        "issue counts diverge with telemetry enabled"
    );
    for (i, (a, b)) in off.issues.iter().zip(on.issues.iter()).enumerate() {
        assert_eq!(
            a, b,
            "issue slot {i} diverges with telemetry enabled (cycle {} sm {} warp {})",
            a.cycle, a.sm, a.warp
        );
    }
    assert_eq!(off.trace, on.trace, "execution trace diverges");
    assert_eq!(off.stats, on.stats, "statistics diverge");
}
