//! The benchmark's own contract: failures are counted, not fatal; the
//! report digest is independent of the worker count and matches the serial
//! engines; `BENCHMARK.json` names exactly the metrics the benchmark emits.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_faults::campaign::{
    run_campaign_selected_serial, run_campaign_with_perf, CampaignConfig, CampaignSpec, FaultSpec,
};
use higpu_faults::workload::{IteratedFma, RedundantWorkload, WorkloadVerdict};
use higpu_perfbench::cells::{
    count_cell, plan_workload, Cell, CellReport, Plan, Registries, Round, Workload,
};
use higpu_perfbench::layers::PER_LAYER;
use higpu_pipeline::run_pipeline_campaign_serial;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs normally once (the campaign's reference pass), then panics in its
/// host program on every trial.
struct PanicsAfterFirstRun {
    inner: IteratedFma,
    runs: AtomicUsize,
}

impl RedundantWorkload for PanicsAfterFirstRun {
    fn name(&self) -> &str {
        "panics_after_first_run"
    }

    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError> {
        if self.runs.fetch_add(1, Ordering::SeqCst) > 0 {
            panic!("deliberate host-program panic");
        }
        RedundantWorkload::run(&self.inner, exec)
    }
}

#[test]
fn a_panicking_cell_is_counted_not_fatal() {
    let workload = PanicsAfterFirstRun {
        inner: IteratedFma {
            n: 128,
            threads_per_block: 64,
            iters: 4,
        },
        runs: AtomicUsize::new(0),
    };
    let cfg = CampaignConfig {
        trials: 8,
        seed: 7,
        workers: 2,
        ..CampaignConfig::default()
    };
    let mode = RedundancyMode::srrs_default(cfg.gpu.num_sms);
    let run = count_cell(cfg.trials, || {
        run_campaign_with_perf(&cfg, &mode, FaultSpec::Permanent, &workload)
            .map(|(report, perf)| CellReport::Faults {
                report,
                perf: Some(perf),
                telemetry: None,
            })
            .map_err(|e| e.to_string())
    });
    assert_eq!(run.failed(), 8, "every trial of the cell counts as failed");
    let err = run.result.expect_err("the cell panicked");
    assert!(err.contains("panicked"), "{err}");
    assert!(
        workload.runs.load(Ordering::SeqCst) >= 2,
        "the panic happened inside a campaign trial"
    );
}

#[test]
fn an_erroring_cell_fails_its_trials_and_the_round_goes_on() {
    let mut plan = small_plan(Workload::DclsScratch, 2, 3);
    plan.cells.insert(
        1,
        Cell::Faults(CampaignSpec::new(
            "no_such_workload",
            PolicyKind::Srrs,
            FaultSpec::Permanent,
        )),
    );
    let round = Round::run(&plan, &Registries::new(), 2);
    assert_eq!(round.attempted(), 4 * 2);
    assert_eq!(round.failed(), 2);
    assert_eq!(round.failures(&plan).len(), 1);
    assert!(round.check(&plan).is_empty(), "{:?}", round.check(&plan));
}

/// `workload` at `trials` per cell, cut to its first `cells` cells.
fn small_plan(workload: Workload, trials: u32, cells: usize) -> Plan {
    let mut plan = plan_workload(workload, 0x5EED, trials);
    plan.cells.truncate(cells);
    plan
}

#[test]
fn digest_is_worker_independent_and_reports_match_the_serial_engines() {
    let regs = Registries::new();
    for workload in Workload::ALL {
        let plan = small_plan(workload, 3, 4);
        let one = Round::run(&plan, &regs, 1);
        let two = Round::run(&plan, &regs, 2);
        assert_eq!(one.failed() + two.failed(), 0, "{}", workload.name());
        assert!(one.check(&plan).is_empty(), "{:?}", one.check(&plan));
        assert_eq!(
            one.digest(&plan),
            two.digest(&plan),
            "{}: digest depends on the worker count",
            workload.name()
        );
        for (i, cell) in plan.cells.iter().enumerate() {
            let cfg = plan.cell_cfg(i, 1);
            let got = two.cells[i].result.as_ref().expect("cell ran");
            match (cell, got) {
                (Cell::Faults(spec), CellReport::Faults { report, .. }) => {
                    let serial = run_campaign_selected_serial(&cfg, &regs.workloads, spec)
                        .expect("serial campaign");
                    assert_eq!(report, &serial, "{}", cell.label());
                }
                (Cell::Limp(spec), CellReport::Limp(report)) => {
                    let serial = run_pipeline_campaign_serial(&cfg, &regs.pipelines, spec)
                        .expect("serial pipeline campaign");
                    assert_eq!(report, &serial, "{}", cell.label());
                }
                _ => panic!("{}: report of the wrong kind", cell.label()),
            }
        }
    }
}

#[test]
fn round_seeds_differ_but_round_zero_is_the_seed() {
    let plan = plan_workload(Workload::PipelineLimp, 42, 1);
    assert_eq!(plan.for_round(0).cfg.seed, 42);
    assert_ne!(plan.for_round(1).cfg.seed, 42);
    assert_ne!(plan.cell_cfg(0, 2).seed, plan.cell_cfg(1, 2).seed);
    assert_eq!(plan.cell_cfg(0, 2).workers, 2);
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())),
            "workload {} missing",
            workload.name()
        );
    }
    for (name, unit) in PER_LAYER.iter().copied().chain([
        ("trials_per_s", "1/s"),
        ("activated_trials_per_s", "1/s"),
        ("setup_s", "s"),
        ("peak_rss_mib", "MiB"),
    ]) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "metric {name} ({unit}) missing"
        );
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        PER_LAYER.len() + 4,
        "BENCHMARK.json lists a metric the benchmark does not emit"
    );
}
