//! Integration: every benchmark, executed redundantly under both diversity
//! policies, must (a) produce outputs that bitwise match across replicas,
//! (b) match its non-redundant execution, (c) verify against the CPU
//! reference, and (d) leave a trace whose every redundant block pair is
//! spatially and temporally diverse — the paper's central guarantee,
//! demonstrated end-to-end on the whole suite.

mod common;

use higpu::core::diversity::{analyze, DiversityRequirements};
use higpu::core::redundancy::{RParam, RedundancyMode, RedundantExecutor};
use higpu::sim::builder::KernelBuilder;
use higpu::sim::config::GpuConfig;
use higpu::sim::gpu::Gpu;
use higpu::workloads::{RedundantSession, SoloSession, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_redundant(
    bench: &dyn Workload,
    mode: RedundancyMode,
) -> (Vec<u32>, higpu::core::diversity::DiversityReport) {
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
    let out = {
        let mut exec = RedundantExecutor::new(&mut gpu, mode).expect("mode");
        let mut session = RedundantSession::new(&mut exec);
        bench.run(&mut session).expect("redundant run")
    };
    let report = analyze(gpu.trace(), DiversityRequirements::default());
    (out, report)
}

#[test]
fn whole_suite_is_diverse_and_correct_under_srrs() {
    for bench in common::small_suite() {
        let (out, report) = run_redundant(bench.as_ref(), RedundancyMode::srrs_default(6));
        bench
            .verify(&out)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        assert!(
            report.is_diverse(),
            "{}: SRRS diversity violated: {report:?}",
            bench.name()
        );
        // SRRS serializes: every pair is disjoint in time, so the observed
        // minimum slack is meaningful evidence against transient CCFs.
        assert!(
            report.min_slack_observed.is_some(),
            "{}: no slack recorded",
            bench.name()
        );
    }
}

#[test]
fn whole_suite_is_diverse_and_correct_under_half() {
    for bench in common::small_suite() {
        let (out, report) = run_redundant(bench.as_ref(), RedundancyMode::Half);
        bench
            .verify(&out)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
        assert!(
            report.is_diverse(),
            "{}: HALF diversity violated: {report:?}",
            bench.name()
        );
    }
}

#[test]
fn redundant_outputs_equal_solo_outputs() {
    for bench in common::small_suite() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let solo = {
            let mut s = SoloSession::new(&mut gpu);
            bench.run(&mut s).expect("solo run")
        };
        let (red, _) = run_redundant(bench.as_ref(), RedundancyMode::srrs_default(6));
        assert_eq!(
            solo,
            red,
            "{}: redundant execution must be functionally transparent",
            bench.name()
        );
    }
}

#[test]
fn subset_suite_is_diverse_and_correct_at_three_replicas() {
    // The NMR generalization: the same benchmarks, unchanged, at three
    // replicas under both N-capable diverse modes — serialized round-robin
    // (SRRS with spread start SMs) and concurrent SM slicing (SLICE).
    for bench in common::small_suite().into_iter().take(4) {
        for mode in [RedundancyMode::srrs_spread(6, 3), RedundancyMode::slice(3)] {
            let label = format!("{mode:?}");
            let (out, report) = run_redundant(bench.as_ref(), mode);
            bench
                .verify(&out)
                .unwrap_or_else(|e| panic!("{} under {label}: {e}", bench.name()));
            assert!(
                report.is_diverse(),
                "{} under {label}: diversity violated: {report:?}",
                bench.name()
            );
        }
    }
}

#[test]
fn suite_runs_are_deterministic() {
    for bench in common::small_suite().into_iter().take(4) {
        let (a, _) = run_redundant(bench.as_ref(), RedundancyMode::srrs_default(6));
        let (b, _) = run_redundant(bench.as_ref(), RedundancyMode::srrs_default(6));
        assert_eq!(a, b, "{}: simulation must be deterministic", bench.name());
    }
}

#[test]
fn srrs_and_half_placement_holds_for_random_geometry() {
    // SRRS places block i on (start + i) % 6 for any start pair; HALF keeps
    // each replica inside its own half of the device.
    let mut rng = StdRng::seed_from_u64(0x06E0_03E7);
    for case in 0..16 {
        let (blocks, threads) = (rng.gen_range(1..24u32), rng.gen_range(1..128u32));
        let start_a = rng.gen_range(0..6usize);
        let srrs = RedundancyMode::Srrs {
            start_sms: vec![start_a, (start_a + rng.gen_range(1..6usize)) % 6],
        };
        for mode in [srrs, RedundancyMode::Half] {
            let mut gpu = Gpu::new(GpuConfig::paper_6sm());
            let mut exec = RedundantExecutor::new(&mut gpu, mode.clone()).expect("mode");
            let mut b = KernelBuilder::new("geom");
            let out = b.param(0);
            let i = b.global_tid_x();
            let a = b.addr_w(out, i);
            let v = b.imul(i, 7u32);
            b.stg(a, 0, v);
            let prog = b.build().expect("valid").into_shared();
            let buf = exec.alloc_words(blocks * threads).expect("alloc");
            exec.launch(&prog, blocks, threads, 0, &[RParam::Buf(&buf)])
                .expect("launch");
            exec.sync().expect("run");
            let cmp = exec.read_compare_u32(&buf, (blocks * threads) as usize);
            assert!(cmp.expect("compare").is_match(), "case {case} {mode:?}");
            drop(exec);
            let report = analyze(gpu.trace(), DiversityRequirements::default());
            assert!(report.is_diverse(), "case {case} {mode:?}: {report:?}");
            assert_eq!(report.pairs_checked as u32, blocks);
            for rec in &gpu.trace().blocks {
                let k = gpu.trace().kernel(rec.kernel).expect("kernel");
                match &mode {
                    RedundancyMode::Half => {
                        let upper = k.attrs.redundant.expect("tag").replica != 0;
                        assert_eq!(rec.sm >= 3, upper, "case {case}: HALF crossed");
                    }
                    _ => {
                        let start = k.attrs.start_sm.expect("srrs hint");
                        assert_eq!(rec.sm, (start + rec.block as usize) % 6, "case {case}");
                    }
                }
            }
        }
    }
}
