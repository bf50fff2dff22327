//! Fence for the pool engine's one-simulation-per-distinct-model rule.
//!
//! The pool simulates each distinct drawn model once and counts it as often
//! as it was drawn. A misroute cell on the 6-SM device draws its shift from
//! 1..6, so 24 trials repeat at most five models. The report must still
//! equal the serial engine's, which simulates every trial, at 1, 2 and 8
//! workers; and the simulated cost must equal the sum of one fresh runner
//! per drawn trial.

use higpu_core::redundancy::RedundancyMode;
use higpu_faults::campaign::{
    draw_models, dry_run_makespan, ftti_deadline, run_campaign_serial, run_campaign_with_perf,
    CampaignConfig, CampaignPerf, CampaignRunner, FaultSpec,
};
use higpu_faults::workload::{IteratedFma, RedundantWorkload};
use std::collections::HashSet;

#[test]
fn repeated_misroute_models_count_like_simulated_ones() {
    let wl = IteratedFma {
        n: 256,
        threads_per_block: 64,
        iters: 8,
    };
    let mode = RedundancyMode::srrs_default(6);
    let cfg = CampaignConfig {
        trials: 24,
        seed: 11,
        ..CampaignConfig::default()
    };
    let makespan = dry_run_makespan(&cfg, &mode, &wl).expect("dry run");
    let models = draw_models(&cfg, FaultSpec::Misroute, makespan);
    let distinct: HashSet<_> = models.iter().collect();
    assert!(
        distinct.len() < models.len(),
        "the cell must repeat models: {models:?}"
    );

    let serial = run_campaign_serial(&cfg, &mode, FaultSpec::Misroute, &wl).expect("serial");
    assert_eq!(serial.trials, 24);
    assert!(serial.detected > 0, "misroutes must activate: {serial:?}");

    let deadline = Some(ftti_deadline(makespan, wl.ftti_multiplier()));
    let mut per_trial = CampaignPerf::default();
    for &model in &models {
        let mut runner = CampaignRunner::new(&cfg);
        runner
            .run_trial_observed_with_makespan(&mode, &wl, model, deadline, None, makespan)
            .expect("trial");
        let p = runner.perf();
        per_trial.sim_instructions += p.sim_instructions;
        per_trial.sim_cycles += p.sim_cycles;
    }

    for workers in [1, 2, 8] {
        let cfg = CampaignConfig {
            workers,
            ..cfg.clone()
        };
        let (report, perf) =
            run_campaign_with_perf(&cfg, &mode, FaultSpec::Misroute, &wl).expect("pool");
        assert_eq!(report, serial, "{workers} workers");
        assert_eq!(perf, per_trial, "{workers} workers: simulated cost");
    }
}
