//! Fences for the campaign-level trivial-trial fast path.
//!
//! A `TransientSm`/`VoltageDroop` model whose corruption window opens
//! strictly after the fault-free makespan can never corrupt anything, so
//! [`higpu_faults::campaign::trivially_not_activated`] lets campaign
//! engines classify it `NotActivated` without simulating. These tests pin
//! the two sides of that claim:
//!
//! * **boundary** — the predicate flips exactly between `arm == makespan`
//!   (last instruction still corruptible) and `arm == makespan + 1`, and
//!   for skippable models the *simulated* trial agrees with the synthesized
//!   outcome and observables bit-for-bit;
//! * **worker fence** — a full sweep over a hand-built model list (in-window
//!   and beyond-window arms mixed) through the fast-path-aware entry point
//!   at 1, 2 and 8 workers is per-trial bit-identical to the unskipped
//!   serial sweep of the same models.

use higpu_core::redundancy::RedundancyMode;
use higpu_faults::campaign::{
    dry_run_makespan, ftti_deadline, trivially_not_activated, CampaignConfig, CampaignRunner,
    TrialObservables, TrialOutcome,
};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::{IteratedFma, RedundantWorkload};

fn workload() -> IteratedFma {
    IteratedFma {
        n: 128,
        threads_per_block: 64,
        iters: 8,
    }
}

fn mode() -> RedundancyMode {
    RedundancyMode::srrs_default(6)
}

fn transient(start: u64) -> FaultModel {
    FaultModel::TransientSm {
        sm: 0,
        start,
        duration: 50,
        bit: 3,
    }
}

fn droop(start: u64) -> FaultModel {
    FaultModel::VoltageDroop {
        start,
        duration: 50,
        bit: 7,
    }
}

#[test]
fn predicate_flips_strictly_after_the_makespan() {
    let cfg = CampaignConfig::default();
    let wl = workload();
    let mode = mode();
    let makespan = dry_run_makespan(&cfg, &mode, &wl).expect("dry run");
    assert!(makespan > 1, "workload too small to exercise the boundary");
    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));

    for mk in [transient as fn(u64) -> FaultModel, droop] {
        assert!(!trivially_not_activated(
            mk(makespan - 1),
            makespan,
            deadline
        ));
        assert!(
            !trivially_not_activated(mk(makespan), makespan, deadline),
            "the last instruction issues at the makespan cycle — arm == makespan may corrupt it"
        );
        assert!(trivially_not_activated(
            mk(makespan + 1),
            makespan,
            deadline
        ));
        assert!(trivially_not_activated(mk(u64::MAX), makespan, deadline));
    }

    // Permanent faults and misroutes always simulate (quarantine/diversity
    // analysis is part of their trial), however late the arm.
    assert!(!trivially_not_activated(
        FaultModel::PermanentSm {
            sm: 0,
            from_cycle: makespan + 1,
            bit: 3,
        },
        makespan,
        deadline,
    ));
    // A watchdog tighter than the fault-free makespan would cut the run
    // before it finishes: not trivial.
    assert!(!trivially_not_activated(
        transient(makespan + 1),
        makespan,
        Some(makespan - 1),
    ));
}

#[test]
fn skipped_trial_matches_the_simulated_one_at_the_boundary() {
    let cfg = CampaignConfig::default();
    let wl = workload();
    let mode = mode();
    let makespan = dry_run_makespan(&cfg, &mode, &wl).expect("dry run");
    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));
    let mut runner = CampaignRunner::new(&cfg);

    for mk in [transient as fn(u64) -> FaultModel, droop] {
        for arm in [makespan - 1, makespan, makespan + 1, makespan + 1000] {
            let model = mk(arm);
            // Ground truth: the fully simulated trial.
            let (sim_outcome, sim_obs) = runner
                .run_trial_observed(&mode, &wl, model, deadline, None)
                .expect("simulated trial");
            // Fast-path-aware entry point (skips iff the predicate holds).
            let (fast_outcome, fast_obs) = runner
                .run_trial_observed_with_makespan(&mode, &wl, model, deadline, None, makespan)
                .expect("fast-path trial");
            assert_eq!(sim_outcome, fast_outcome, "outcome diverged at arm {arm}");
            assert_eq!(sim_obs, fast_obs, "observables diverged at arm {arm}");
            if trivially_not_activated(model, makespan, deadline) {
                assert_eq!(sim_outcome, TrialOutcome::NotActivated);
                assert_eq!(
                    sim_obs.end_cycle, makespan,
                    "an inert fault leaves the run ending at the fault-free makespan"
                );
                assert!(!sim_obs.activated);
                assert_eq!(sim_obs.restores, 0);
            }
        }
    }
}

/// Runs `models` through the fast-path-aware runner entry point on
/// `workers` threads, worker `w` taking every trial `i` with
/// `i % workers == w` on its own reused runner; returns per-trial
/// `(outcome, observables)` indexed by trial.
fn sweep(
    cfg: &CampaignConfig,
    models: &[FaultModel],
    makespan: u64,
    workers: usize,
) -> Vec<(TrialOutcome, TrialObservables)> {
    let wl = workload();
    let mode = mode();
    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));
    let parts: Vec<Vec<(usize, (TrialOutcome, TrialObservables))>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (wl, mode) = (&wl, &mode);
                s.spawn(move || {
                    let mut runner = CampaignRunner::new(cfg);
                    (w..models.len())
                        .step_by(workers)
                        .map(|i| {
                            let trial = runner
                                .run_trial_observed_with_makespan(
                                    mode, wl, models[i], deadline, None, makespan,
                                )
                                .expect("trial");
                            (i, trial)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    let mut results = vec![None; models.len()];
    for (i, trial) in parts.into_iter().flatten() {
        results[i] = Some(trial);
    }
    results
        .into_iter()
        .map(|t| t.expect("every trial ran"))
        .collect()
}

#[test]
fn sweep_with_skips_is_bit_identical_to_unskipped_at_1_2_8_workers() {
    let cfg = CampaignConfig::default();
    let wl = workload();
    let mode = mode();
    let makespan = dry_run_makespan(&cfg, &mode, &wl).expect("dry run");
    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));

    // In-window, boundary and beyond-window arms, both trivial model kinds.
    let mut models = Vec::new();
    for arm in [
        0,
        makespan / 2,
        makespan - 1,
        makespan,
        makespan + 1,
        makespan + 1000,
    ] {
        models.push(transient(arm));
        models.push(droop(arm));
    }

    // Unskipped serial oracle: every trial fully simulated.
    let mut runner = CampaignRunner::new(&cfg);
    let oracle: Vec<(TrialOutcome, TrialObservables)> = models
        .iter()
        .map(|&model| {
            runner
                .run_trial_observed(&mode, &wl, model, deadline, None)
                .expect("oracle trial")
        })
        .collect();
    assert!(
        oracle
            .iter()
            .zip(&models)
            .any(|(_, m)| trivially_not_activated(*m, makespan, deadline)),
        "model list must contain trivially skippable trials"
    );

    for workers in [1, 2, 8] {
        let got = sweep(&cfg, &models, makespan, workers);
        assert_eq!(
            got, oracle,
            "fast-path sweep diverged from the unskipped serial sweep at {workers} workers"
        );
    }
}
