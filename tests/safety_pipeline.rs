//! Integration: the complete safety pipeline — redundant execution →
//! diversity evidence → scheduler self-test → fault campaign → assembled
//! ASIL-D safety case — through the public APIs only.

use higpu::core::bist::scheduler_bist;
use higpu::core::diversity::{analyze, DiversityRequirements};
use higpu::core::ftti::{FttiBudget, RecoveryAnalysis};
use higpu::core::prelude::{Asil, PolicyKind};
use higpu::core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu::core::safety_case::SafetyCase;
use higpu::faults::campaign::{run_campaign_with_perf, CampaignConfig, FaultSpec};
use higpu::faults::workload::{IteratedFma, RedundantWorkload};
use higpu::sim::config::GpuConfig;
use higpu::sim::gpu::Gpu;

fn workload() -> IteratedFma {
    IteratedFma {
        n: 256,
        threads_per_block: 64,
        iters: 16,
    }
}

#[test]
fn full_safety_case_reaches_asil_d_under_srrs() {
    let mode = RedundancyMode::srrs_default(6);
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());

    // 1. Redundant execution with diversity evidence.
    let diversity = {
        let mut exec = RedundantExecutor::new(&mut gpu, mode.clone()).expect("mode");
        let v = workload().run(&mut exec).expect("workload");
        assert!(v.matched && v.correct);
        drop(exec);
        analyze(gpu.trace(), DiversityRequirements::default())
    };

    // 2. Periodic scheduler self-test.
    let bist = scheduler_bist(&mut gpu, mode.clone(), 12).expect("bist");

    // 3. Fault-injection campaign.
    let campaign = run_campaign_with_perf(
        &CampaignConfig {
            trials: 8,
            seed: 99,
            ..CampaignConfig::default()
        },
        &mode,
        FaultSpec::Permanent,
        &workload(),
    )
    .expect("campaign")
    .0;

    // 4. Assemble and evaluate the case.
    let case = SafetyCase {
        policy: mode.policy_kind().label().to_string(),
        channel_asil: Asil::B,
        diversity,
        bist: Some(bist),
        campaign: Some(campaign.evidence()),
    };
    assert!(case.supports_asil_d(), "{case}");
    let rendered = case.to_string();
    assert!(rendered.contains("ASIL-D"));
    assert!(rendered.contains("PASS"));
}

#[test]
fn uncontrolled_execution_cannot_support_asil_d() {
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
    let diversity = {
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::uncontrolled()).expect("mode");
        workload().run(&mut exec).expect("workload");
        drop(exec);
        analyze(gpu.trace(), DiversityRequirements::default())
    };
    let case = SafetyCase {
        policy: PolicyKind::Default.label().to_string(),
        channel_asil: Asil::B,
        diversity,
        bist: None,
        campaign: None,
    };
    assert_eq!(
        case.achieved_asil(),
        Asil::B,
        "no decomposition credit without diversity evidence"
    );
}

#[test]
fn recovery_fits_a_realistic_ftti() {
    // Measure a real redundant round, then check the re-execution budget.
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
    {
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        workload().run(&mut exec).expect("workload");
    }
    let round = gpu.cycle();
    let analysis = RecoveryAnalysis {
        round_cycles: round,
        compare_cycles: round / 50,
        recovery_rounds: 1,
    };
    // 10 ms FTTI at the paper platform's 1.4 GHz.
    let ftti = FttiBudget::from_ms(10.0, 1.4);
    assert!(
        analysis.fits(ftti),
        "worst case {} cycles exceeds FTTI {} cycles",
        analysis.worst_case_cycles(),
        ftti.cycles
    );
}

#[test]
fn policy_swap_between_kernels_matches_paper_operation() {
    // The paper selects the policy per kernel before deployment; the GPU
    // allows reconfiguration between (not during) kernels.
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
    {
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("srrs");
        workload().run(&mut exec).expect("workload");
    }
    assert_eq!(gpu.policy_name(), "partitioned");
    {
        let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::Half).expect("half");
        workload().run(&mut exec).expect("workload");
    }
    assert_eq!(
        gpu.policy_name(),
        "partitioned",
        "SRRS and HALF run on one scheduler; the launch attributes pick the rule"
    );
    let report = analyze(gpu.trace(), DiversityRequirements::default());
    assert!(
        report.is_diverse(),
        "both phases must be diverse: {report:?}"
    );
    assert_eq!(report.groups, 2, "one group per executor phase");
}
