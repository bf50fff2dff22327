//! Registry round-trip: every registered workload must run solo, run
//! redundantly (matching, verified against its CPU reference), and survive
//! one injected fault trial — the contract that makes the registry the
//! single workload source for campaigns, the COTS model and the benches.

use higpu_core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu_faults::campaign::{CampaignConfig, CampaignRunner};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::CampaignWorkload;
use higpu_sim::gpu::Gpu;
use higpu_workloads::runner::{run_redundant, run_solo};
use higpu_workloads::Scale;

#[test]
fn every_registered_workload_runs_solo_redundant_and_under_fault() {
    let reg = higpu_bench::matrix::full_registry();
    assert!(
        reg.len() >= 17,
        "expected the synthetic workload plus all 16 Rodinia benchmarks, got {}",
        reg.len()
    );
    let cfg = CampaignConfig::default();
    for entry in reg.entries() {
        let name = entry.name();
        let workload = entry.build(Scale::Campaign);

        // Solo, verified against the CPU reference.
        let mut gpu = Gpu::new(cfg.gpu.clone());
        let solo = run_solo(&mut gpu, &*workload)
            .unwrap_or_else(|e| panic!("{name}: solo run failed: {e}"));
        workload
            .verify(&solo)
            .unwrap_or_else(|e| panic!("{name}: solo output wrong: {e}"));

        // Redundant under SRRS, matching and verified.
        let mut gpu = Gpu::new(cfg.gpu.clone());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(cfg.gpu.num_sms))
                .expect("mode");
        let red = run_redundant(&mut exec, &*workload)
            .unwrap_or_else(|e| panic!("{name}: redundant run failed: {e}"));
        assert!(red.matched(), "{name}: fault-free replicas must agree");
        workload
            .verify(&red.output)
            .unwrap_or_else(|e| panic!("{name}: redundant output wrong: {e}"));
        assert_eq!(red.output, solo, "{name}: solo and redundant bits differ");

        // One injected fault trial classifies without panicking or erroring.
        let campaign =
            CampaignWorkload::from_registry(&reg, name, Scale::Campaign).expect("just enumerated");
        let mut runner = CampaignRunner::new(&cfg);
        let model = FaultModel::TransientSm {
            sm: 1,
            start: 200,
            duration: 400,
            bit: 7,
        };
        runner
            .run_trial_observed(
                &RedundancyMode::srrs_default(cfg.gpu.num_sms),
                &campaign,
                model,
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{name}: fault trial failed: {e}"));
    }
}
