//! Fences for the inert-fault early exit.
//!
//! A `TransientSm`/`VoltageDroop` fault can corrupt values only inside its
//! window `[start, start + duration)`. Once the window closes without a
//! corrupted value, the rest of the trial is bit-identical to the fault-free
//! reference, so [`CampaignRunner::run_trial_observed_with_makespan`] stops
//! simulating there and classifies the trial `NotActivated`.
//! [`CampaignRunner::run_trial_observed`] never arms that cutoff, so it is
//! the full-simulation oracle here:
//!
//! * **equivalence** — every trial of Transient and Droop campaigns over
//!   several Rodinia workloads, from zero and checkpointed, at N = 2 and 3,
//!   ends with the same outcome and observables as
//!   its full simulation, and at least one trial really exited early (it
//!   simulated fewer cycles);
//! * **deadline guard** — under a watchdog tighter than the fault-free
//!   makespan the cutoff is never armed, so no trial exits.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{
    draw_models, dry_run_makespan, ftti_deadline, trivially_not_activated, CampaignConfig,
    CampaignRunner, CampaignSpec, FaultSpec, TrialOutcome,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig};
use higpu_faults::workload::RedundantWorkload;
use higpu_workloads::WorkloadRegistry;

const FAULTS: [FaultSpec; 2] = [
    FaultSpec::Transient { duration: 400 },
    FaultSpec::Droop { duration: 400 },
];

fn registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    higpu_rodinia::register_all(&mut reg);
    reg
}

/// Runs every trial of one campaign cell through the early-exit entry point
/// and through a full simulation, asserting they agree; returns how many
/// trials exited early.
fn exits_in_cell(reg: &WorkloadRegistry, spec: &CampaignSpec, checkpointed: bool) -> u32 {
    let cfg = CampaignConfig {
        trials: 6,
        seed: 0x1E27,
        ..CampaignConfig::default()
    };
    let label = format!(
        "{}/{:?}@{}/{}/checkpointed={checkpointed}",
        spec.workload,
        spec.policy,
        spec.replicas,
        spec.fault.label()
    );
    let workload = spec.build_workload(reg).expect("registered workload");
    let mode = spec.mode(cfg.gpu.num_sms).expect("supported mode");
    let reference = checkpointed.then(|| {
        record_reference(&cfg, &mode, &workload, CheckpointConfig::default().stride)
            .expect("reference pass")
    });
    let makespan = match &reference {
        Some(r) => r.makespan(),
        None => dry_run_makespan(&cfg, &mode, &workload).expect("dry run"),
    };
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let mut early = CampaignRunner::new(&cfg);
    let mut full = CampaignRunner::new(&cfg);
    let mut exits = 0;
    for (i, model) in draw_models(&cfg, spec.fault, makespan)
        .into_iter()
        .enumerate()
    {
        let before = (early.perf().sim_cycles, full.perf().sim_cycles);
        let (outcome, obs) = early
            .run_trial_observed_with_makespan(
                &mode,
                &workload,
                model,
                deadline,
                reference.as_ref(),
                makespan,
            )
            .expect("early-exit trial");
        let (want_outcome, want) = full
            .run_trial_observed(&mode, &workload, model, deadline, reference.as_ref())
            .expect("full trial");
        let at = format!("{label} trial {i} ({model:?})");
        assert_eq!(outcome, want_outcome, "{at}: outcome");
        assert_eq!(obs.end_cycle, want.end_cycle, "{at}: end cycle");
        assert_eq!(obs.arm_cycle, want.arm_cycle, "{at}: arm cycle");
        assert_eq!(obs.activated, want.activated, "{at}: activation");
        assert_eq!(obs.deadline_cut, want.deadline_cut, "{at}: deadline cut");
        if trivially_not_activated(model, makespan, deadline) {
            continue; // skipped before any simulation: not an exit
        }
        assert_eq!(
            (obs.restores, obs.restore_skipped_cycles),
            (want.restores, want.restore_skipped_cycles),
            "{at}: an exit happens after every restore of the trial"
        );
        let early_cycles = early.perf().sim_cycles - before.0;
        let full_cycles = full.perf().sim_cycles - before.1;
        assert!(early_cycles <= full_cycles, "{at}: exit simulated more");
        if early_cycles < full_cycles {
            assert_eq!(
                outcome,
                TrialOutcome::NotActivated,
                "{at}: only inert trials exit"
            );
            exits += 1;
        }
    }
    exits
}

#[test]
fn early_exit_trials_match_their_full_simulation() {
    let reg = registry();
    let mut exits = 0;
    for name in ["hotspot", "pathfinder", "nw"] {
        for (policy, replicas) in [(PolicyKind::Srrs, 2), (PolicyKind::Slice, 3)] {
            for fault in FAULTS {
                let spec = CampaignSpec::new(name, policy, fault).with_replicas(replicas);
                for checkpointed in [false, true] {
                    exits += exits_in_cell(&reg, &spec, checkpointed);
                }
            }
        }
    }
    assert!(exits > 0, "no trial exited early — the fence is vacuous");
}

#[test]
fn a_deadline_below_the_makespan_never_arms_the_cutoff() {
    let reg = registry();
    let cfg = CampaignConfig {
        trials: 6,
        seed: 0x1E27,
        ..CampaignConfig::default()
    };
    let spec = CampaignSpec::new("hotspot", PolicyKind::Srrs, FAULTS[0]);
    let workload = spec.build_workload(&reg).expect("registered workload");
    let mode = spec.mode(cfg.gpu.num_sms).expect("supported mode");
    let makespan = dry_run_makespan(&cfg, &mode, &workload).expect("dry run");
    // The fault-free run itself overruns this watchdog: an inert trial is
    // Detected, so stopping it at its window end would misclassify it.
    let deadline = Some(makespan - 1);
    let mut early = CampaignRunner::new(&cfg);
    let mut full = CampaignRunner::new(&cfg);
    let mut inert_windows = 0;
    for model in draw_models(&cfg, spec.fault, makespan) {
        let before = (early.perf(), full.perf());
        let got = early
            .run_trial_observed_with_makespan(&mode, &workload, model, deadline, None, makespan)
            .expect("trial");
        let want = full
            .run_trial_observed(&mode, &workload, model, deadline, None)
            .expect("trial");
        assert_eq!(got, want, "{model:?}");
        assert_eq!(
            early.perf().sim_cycles - before.0.sim_cycles,
            full.perf().sim_cycles - before.1.sim_cycles,
            "{model:?}: the trial must not exit"
        );
        inert_windows +=
            u32::from(!got.1.activated && model.window_end().is_some_and(|end| end < makespan));
    }
    assert!(
        inert_windows > 0,
        "no inert window closed before the makespan — the guard went untested"
    );
}
