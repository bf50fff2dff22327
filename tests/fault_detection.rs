//! Integration: the fault-detection guarantees across the policy × fault
//! matrix, exercised through the public crate APIs.

use higpu::core::policy::PolicyKind;
use higpu::core::redundancy::RedundancyMode;
use higpu::faults::campaign::{
    dry_run_makespan, ftti_deadline, run_campaign_with_perf, CampaignConfig, CampaignRunner,
    CampaignSpec, FaultSpec, TrialOutcome,
};
use higpu::faults::model::FaultModel;
use higpu::faults::workload::{IteratedFma, RedundantWorkload};
use higpu::workloads::WorkloadRegistry;

fn cfg(trials: u32) -> CampaignConfig {
    CampaignConfig {
        trials,
        seed: 1234,
        ..CampaignConfig::default()
    }
}

fn workload() -> IteratedFma {
    IteratedFma {
        n: 256,
        threads_per_block: 64,
        iters: 16,
    }
}

/// One trial of `fault` without a watchdog, on a fresh device.
fn run_trial(mode: &RedundancyMode, fault: FaultModel) -> TrialOutcome {
    CampaignRunner::new(&cfg(1))
        .run_trial_observed(mode, &workload(), fault, None, None)
        .expect("trial")
        .0
}

#[test]
fn diverse_policies_never_fail_undetected() {
    for mode in [RedundancyMode::srrs_default(6), RedundancyMode::Half] {
        for fault in [
            FaultSpec::Permanent,
            FaultSpec::Droop { duration: 500 },
            FaultSpec::Transient { duration: 500 },
        ] {
            let r = run_campaign_with_perf(&cfg(10), &mode, fault, &workload())
                .expect("campaign")
                .0;
            assert_eq!(
                r.undetected, 0,
                "{} under {:?} must never fail undetected: {r:?}",
                r.policy, fault
            );
        }
    }
}

#[test]
fn uncontrolled_redundancy_fails_under_permanent_faults() {
    let r = run_campaign_with_perf(
        &cfg(10),
        &RedundancyMode::uncontrolled(),
        FaultSpec::Permanent,
        &workload(),
    )
    .expect("campaign")
    .0;
    assert!(
        r.undetected > 0,
        "identical placement must defeat plain redundancy: {r:?}"
    );
}

#[test]
fn specific_permanent_fault_is_detected_by_srrs_and_missed_by_default() {
    // A deterministic stuck-at fault on SM 2 from cycle 0.
    let fault = FaultModel::PermanentSm {
        sm: 2,
        from_cycle: 0,
        bit: 9,
    };
    let srrs = run_trial(&RedundancyMode::srrs_default(6), fault);
    assert_eq!(srrs, TrialOutcome::Detected, "SRRS: different SMs per copy");

    let default = run_trial(&RedundancyMode::uncontrolled(), fault);
    assert_eq!(
        default,
        TrialOutcome::UndetectedFailure,
        "default: both copies of each block land on the same SM"
    );
}

#[test]
fn scheduler_misroute_is_caught_by_the_self_test() {
    let fault = FaultModel::SchedulerMisroute { shift: 2 };
    let outcome = run_trial(&RedundancyMode::srrs_default(6), fault);
    assert_eq!(
        outcome,
        TrialOutcome::Detected,
        "a functionally silent scheduler fault must not become latent"
    );
}

#[test]
fn fault_window_outside_execution_does_not_activate() {
    let fault = FaultModel::TransientSm {
        sm: 0,
        start: u64::MAX / 2,
        duration: 100,
        bit: 0,
    };
    let outcome = run_trial(&RedundancyMode::srrs_default(6), fault);
    assert_eq!(outcome, TrialOutcome::NotActivated);
}

#[test]
fn lockstep_uncontrolled_replicas_let_droops_escape() {
    // Ablation of the dispatch gap: with no gap the two uncontrolled
    // replicas run in lockstep on the same SMs, so a droop corrupts the
    // same computation in both copies identically — the failure mode the
    // paper's temporal diversity requirement exists to prevent. The
    // default gap alone already skews them enough to catch every droop.
    let workload = IteratedFma {
        n: 512,
        threads_per_block: 64,
        iters: 24,
    };
    let droop = FaultSpec::Droop { duration: 400 };
    let base = CampaignConfig {
        trials: 50,
        seed: 0xD1CE,
        ..CampaignConfig::default()
    };
    let mut lockstep = base.clone();
    lockstep.gpu.dispatch_gap_cycles = 0;
    let mode = RedundancyMode::uncontrolled();
    let aligned = run_campaign_with_perf(&lockstep, &mode, droop, &workload)
        .expect("campaign")
        .0;
    assert!(
        aligned.undetected > 0,
        "lockstep replicas must fail undetected under droops: {aligned:?}"
    );
    let gapped = run_campaign_with_perf(&base, &mode, droop, &workload)
        .expect("campaign")
        .0;
    assert_eq!(
        gapped.undetected, 0,
        "the default dispatch gap keeps droops detectable: {gapped:?}"
    );
}

/// Known escape B: a permanent fault XORs its bit into every value written
/// on SM 3, address arithmetic included, so blocks of replicas 0 and 1
/// running there store the same wrong words outside their own output
/// range, and the TMR vote takes that pair. SRRS diversity covers only
/// where blocks run, not where they store.
#[test]
fn escape_b_cfd_srrs3_permanent_sm3_is_a_known_undetected_failure() {
    let mut reg = WorkloadRegistry::new();
    higpu::rodinia::register_all(&mut reg);
    let spec = CampaignSpec::new("cfd", PolicyKind::Srrs, FaultSpec::Permanent).with_replicas(3);
    let cfg = CampaignConfig::default();
    let mode = spec.mode(cfg.gpu.num_sms).expect("SRRS@3");
    assert_eq!(
        mode,
        RedundancyMode::Srrs {
            start_sms: vec![0, 2, 4]
        }
    );
    let workload = spec.build_workload(&reg).expect("cfd is registered");
    let makespan = dry_run_makespan(&cfg, &mode, &workload).expect("dry run");
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let model = FaultModel::PermanentSm {
        sm: 3,
        from_cycle: 111_998,
        bit: 6,
    };
    let (outcome, obs) = CampaignRunner::new(&cfg)
        .run_trial_observed(&mode, &workload, model, deadline, None)
        .expect("trial");
    assert_eq!(
        (outcome, obs.end_cycle),
        (TrialOutcome::UndetectedFailure, 134_428),
        "escape B changed: the PR that closes it (ROADMAP direction 1, replica store \
         signatures) flips this pin to Detected"
    );
}
