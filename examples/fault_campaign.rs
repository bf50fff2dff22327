//! Fault-injection campaign: quantifies how diverse scheduling turns
//! redundancy into detection. Injects permanent SM faults and voltage
//! droops under the uncontrolled baseline and under SRRS, and prints the
//! detection outcomes.
//!
//! Run with: `cargo run --release --example fault_campaign`

use higpu::core::prelude::*;
use higpu::core::safety_case::SafetyCase;
use higpu::faults::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = CampaignConfig {
        trials: 25,
        seed: 0xAB1E,
        ..CampaignConfig::default()
    };
    let workload = IteratedFma {
        n: 512,
        threads_per_block: 64,
        iters: 24,
    };

    println!("policy        fault          detected  masked  UNDETECTED");
    let mut srrs_evidence = None;
    for mode in [
        RedundancyMode::uncontrolled(),
        RedundancyMode::srrs_default(6),
    ] {
        for fault in [FaultSpec::Permanent, FaultSpec::Droop { duration: 400 }] {
            let r = run_campaign_with_perf(&cfg, &mode, fault, &workload)?.0;
            println!(
                "{:<13} {:<14} {:<9} {:<7} {}",
                r.policy, r.fault, r.detected, r.masked, r.undetected
            );
            if mode.policy_kind() == PolicyKind::Srrs && fault == FaultSpec::Permanent {
                srrs_evidence = Some(r.evidence());
            }
        }
    }

    // Assemble the safety case for the SRRS configuration.
    let mut gpu = higpu::sim::gpu::Gpu::new(cfg.gpu.clone());
    let diversity = {
        let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6))?;
        workload.run(&mut exec)?;
        drop(exec);
        analyze(gpu.trace(), DiversityRequirements::default())
    };
    let bist = scheduler_bist(&mut gpu, RedundancyMode::srrs_default(6), 12)?;
    let case = SafetyCase {
        policy: "srrs".into(),
        channel_asil: Asil::B,
        diversity,
        bist: Some(bist),
        campaign: srrs_evidence,
    };
    println!("\n{case}");
    assert!(case.supports_asil_d());
    Ok(())
}
