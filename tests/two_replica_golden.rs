//! The two-replica golden fence: the NMR generalization (majority voter,
//! replica axis, SLICE policy, per-workload FTTI budgets) must leave every
//! pre-existing two-replica campaign result **bit-identical**.
//!
//! The constants below were captured from the PR 2 engine (pairwise DCLS
//! compare, flat 8× watchdog) immediately before the NMR refactor:
//! `campaign_matrix --trials 6 --workloads iterated_fma,bfs,hotspot,nn,\
//! pathfinder --policies default,srrs,half --faults transient,permanent`
//! at the default seed. Any drift in these cells means the refactor
//! changed two-replica semantics — a regression, not a measurement.

use higpu_bench::matrix::{full_registry, run_matrix, MatrixConfig};
use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::FaultSpec;

/// (workload, policy, fault, not_activated, masked, detected, undetected)
/// — captured from PR 2, 6 trials/cell, seed 0x0DD5EED.
const GOLDEN: [(&str, &str, &str, u32, u32, u32, u32); 30] = [
    ("iterated_fma", "GPGPU-SIM", "transient-sm", 6, 0, 0, 0),
    ("iterated_fma", "GPGPU-SIM", "permanent-sm", 4, 0, 0, 2),
    ("iterated_fma", "SRRS", "transient-sm", 6, 0, 0, 0),
    ("iterated_fma", "SRRS", "permanent-sm", 1, 0, 5, 0),
    ("iterated_fma", "HALF", "transient-sm", 6, 0, 0, 0),
    ("iterated_fma", "HALF", "permanent-sm", 1, 0, 5, 0),
    ("bfs", "GPGPU-SIM", "transient-sm", 5, 0, 1, 0),
    ("bfs", "GPGPU-SIM", "permanent-sm", 4, 0, 2, 0),
    ("bfs", "SRRS", "transient-sm", 6, 0, 0, 0),
    ("bfs", "SRRS", "permanent-sm", 0, 1, 5, 0),
    ("bfs", "HALF", "transient-sm", 6, 0, 0, 0),
    ("bfs", "HALF", "permanent-sm", 0, 1, 5, 0),
    ("hotspot", "GPGPU-SIM", "transient-sm", 5, 0, 1, 0),
    ("hotspot", "GPGPU-SIM", "permanent-sm", 4, 0, 0, 2),
    ("hotspot", "SRRS", "transient-sm", 5, 0, 1, 0),
    ("hotspot", "SRRS", "permanent-sm", 1, 0, 5, 0),
    ("hotspot", "HALF", "transient-sm", 5, 0, 1, 0),
    ("hotspot", "HALF", "permanent-sm", 1, 0, 5, 0),
    ("nn", "GPGPU-SIM", "transient-sm", 6, 0, 0, 0),
    ("nn", "GPGPU-SIM", "permanent-sm", 4, 0, 0, 2),
    ("nn", "SRRS", "transient-sm", 6, 0, 0, 0),
    ("nn", "SRRS", "permanent-sm", 1, 0, 5, 0),
    ("nn", "HALF", "transient-sm", 6, 0, 0, 0),
    ("nn", "HALF", "permanent-sm", 1, 0, 5, 0),
    ("pathfinder", "GPGPU-SIM", "transient-sm", 6, 0, 0, 0),
    ("pathfinder", "GPGPU-SIM", "permanent-sm", 4, 0, 1, 1),
    ("pathfinder", "SRRS", "transient-sm", 5, 0, 1, 0),
    ("pathfinder", "SRRS", "permanent-sm", 0, 0, 6, 0),
    ("pathfinder", "HALF", "transient-sm", 5, 0, 1, 0),
    ("pathfinder", "HALF", "permanent-sm", 0, 0, 6, 0),
];

#[test]
fn two_replica_campaign_cells_are_byte_identical_to_pre_nmr_engine() {
    let reg = full_registry();
    let cfg = MatrixConfig {
        trials: 6,
        workloads: ["iterated_fma", "bfs", "hotspot", "nn", "pathfinder"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        policies: vec![PolicyKind::Default, PolicyKind::Srrs, PolicyKind::Half],
        faults: vec![FaultSpec::Transient { duration: 400 }, FaultSpec::Permanent],
        replica_counts: vec![2],
        ..MatrixConfig::default()
    };
    let (m, _) = run_matrix(&reg, &cfg).expect("sweep");
    assert_eq!(m.reports.len(), GOLDEN.len());
    for (r, g) in m.reports.iter().zip(GOLDEN.iter()) {
        let got = (
            r.workload.as_str(),
            r.policy.as_str(),
            r.fault,
            r.not_activated,
            r.masked,
            r.detected,
            r.undetected,
        );
        assert_eq!(got, *g, "cell drifted from the PR 2 golden capture");
        assert_eq!(r.corrected, 0, "2-replica cells can never correct: {r:?}");
        assert_eq!(r.trials, 6);
    }
}
