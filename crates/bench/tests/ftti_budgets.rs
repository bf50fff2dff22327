//! Re-validation fence for the mined per-workload FTTI budgets.
//!
//! PR 9 mined the corrupted-but-terminating makespan histograms out of the
//! campaign telemetry: p99.9 stays ≤ 2.9× the fault-free makespan for 14 of
//! the 17 registry workloads, while `lud` (7.28×), `myocyte` (4.99×) and
//! `nw` (4.59×) are long-tailed. These fences pin the feedback of that
//! mining into [`higpu_workloads::Workload::ftti_multiplier`]:
//!
//! * the registry declares exactly the mined assignment (14 ×
//!   [`MINED_FTTI_MULTIPLIER`], the three outliers keep
//!   [`DEFAULT_FTTI_MULTIPLIER`]);
//! * for mined workloads, a full campaign under the tightened budget is
//!   **report-identical** to the same campaign under the old flat budget —
//!   the tighter watchdog cuts no legitimate corrupted-but-terminating run,
//!   so detection rates are unchanged.

use higpu_bench::matrix::full_registry;
use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_faults::campaign::{run_campaign_with_perf, CampaignConfig, FaultSpec};
use higpu_faults::workload::{CampaignWorkload, RedundantWorkload, WorkloadVerdict};
use higpu_workloads::{Scale, DEFAULT_FTTI_MULTIPLIER, MINED_FTTI_MULTIPLIER};

/// The three long-tailed workloads that keep the flat default budget.
const LONG_TAILED: [&str; 3] = ["lud", "myocyte", "nw"];

/// Wraps a campaign workload with an explicit FTTI budget so the same
/// computation can be campaigned under both the mined and the flat budget.
struct WithBudget<'a> {
    inner: &'a CampaignWorkload,
    multiplier: u64,
}

impl RedundantWorkload for WithBudget<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError> {
        self.inner.run(exec)
    }

    fn ftti_multiplier(&self) -> u64 {
        self.multiplier
    }
}

#[test]
fn registry_declares_exactly_the_mined_budget_assignment() {
    let reg = full_registry();
    let mut mined = 0usize;
    let mut names = reg.names();
    names.sort_unstable();
    assert_eq!(names.len(), 17, "registry size drifted: {names:?}");
    for name in &names {
        let wl = reg.build(name, Scale::Campaign).expect("registered");
        let mult = wl.ftti_multiplier();
        if LONG_TAILED.contains(name) {
            assert_eq!(
                mult, DEFAULT_FTTI_MULTIPLIER,
                "{name} is long-tailed (mined p99.9 > 3×) and must keep the flat budget"
            );
        } else {
            assert_eq!(
                mult, MINED_FTTI_MULTIPLIER,
                "{name} is short-tailed (mined p99.9 ≤ 2.9×) and must declare the mined budget"
            );
            mined += 1;
        }
    }
    assert_eq!(mined, 14, "mined-budget workload count drifted");
}

#[test]
fn mined_budgets_leave_detection_rates_unchanged() {
    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 24,
        ..CampaignConfig::default()
    };
    let mode = RedundancyMode::srrs_default(6);
    // A cheap mined workload from each structural class: synthetic FMA,
    // grid sweep, single short kernel.
    for name in ["iterated_fma", "pathfinder", "nn"] {
        let wl = CampaignWorkload::from_registry(&reg, name, Scale::Campaign).expect("registered");
        assert_eq!(
            RedundantWorkload::ftti_multiplier(&wl),
            MINED_FTTI_MULTIPLIER
        );
        for spec in [
            FaultSpec::Transient { duration: 4000 },
            FaultSpec::Droop { duration: 4000 },
        ] {
            let mined = run_campaign_with_perf(
                &cfg,
                &mode,
                spec,
                &WithBudget {
                    inner: &wl,
                    multiplier: MINED_FTTI_MULTIPLIER,
                },
            )
            .expect("mined-budget campaign")
            .0;
            let flat = run_campaign_with_perf(
                &cfg,
                &mode,
                spec,
                &WithBudget {
                    inner: &wl,
                    multiplier: DEFAULT_FTTI_MULTIPLIER,
                },
            )
            .expect("flat-budget campaign")
            .0;
            assert_eq!(
                mined, flat,
                "{name}/{spec:?}: tightening the watchdog to the mined budget must not \
                 reclassify any trial"
            );
            assert!(
                mined.trials > mined.not_activated,
                "{name}/{spec:?}: the sweep must activate faults to validate anything"
            );
        }
    }
}
