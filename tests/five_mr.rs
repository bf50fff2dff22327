//! 5-modular redundancy on a wider (10-SM) simulated device: the replica
//! axis beyond TMR. A 3-of-5 majority settles **double** corruptions that
//! tie a TMR vote, SRRS spreads five pairwise-distinct start SMs, the
//! SLICE validator accepts five one-SM-per-replica slices, and full fault
//! campaigns at N = 5 stay clean (undetected = 0) while correcting what
//! DCLS merely detects.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::{RParam, RedundancyMode, RedundantExecutor};
use higpu_core::vote::VoteOutcome;
use higpu_faults::campaign::{policy_mode, run_campaign_with_perf, CampaignConfig, FaultSpec};
use higpu_faults::workload::IteratedFma;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_sim::program::Program;
use std::sync::Arc;

fn wide_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::wide_10sm();
    cfg.global_mem_bytes = 2 * 1024 * 1024;
    cfg
}

fn triple_kernel() -> Arc<Program> {
    let mut b = KernelBuilder::new("triple");
    let out = b.param(0);
    let i = b.global_tid_x();
    let addr = b.addr_w(out, i);
    let v = b.imul(i, 3u32);
    b.stg(addr, 0, v);
    b.build().expect("valid").into_shared()
}

/// The headline property: two corrupted replicas (with *different* wrong
/// values) defeat a TMR vote — no strict majority exists — but a 3-of-5
/// majority still restores the clean data in place.
#[test]
fn double_corruption_ties_tmr_but_is_outvoted_by_5mr() {
    let clean = [1u32, 2, 3, 4, 5, 6, 7, 8];

    // TMR: corrupt replicas 1 and 2 differently → 1-1-1 split per word.
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
    let mut exec =
        RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_spread(6, 3)).expect("TMR");
    let buf = exec.alloc_words(8).expect("alloc");
    exec.write_u32(&buf, &clean).expect("write");
    let (p1, p2) = (buf.ptr(1), buf.ptr(2));
    exec.gpu_mut().write_u32(p1, &[91]);
    exec.gpu_mut().write_u32(p2, &[92]);
    let vote = exec.read_vote_u32(&buf, 8).expect("vote");
    assert!(
        matches!(vote.outcome, VoteOutcome::Tied { .. }),
        "no strict majority among {{clean, 91, 92}}: {:?}",
        vote.outcome
    );

    // 5MR on the wider device: the same double corruption leaves a clean
    // 3-of-5 majority on every word.
    let mut gpu = Gpu::new(wide_cfg());
    let mut exec =
        RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_spread(10, 5)).expect("5MR");
    assert_eq!(exec.replicas(), 5);
    let buf = exec.alloc_words(8).expect("alloc");
    exec.write_u32(&buf, &clean).expect("write");
    let (p1, p2) = (buf.ptr(1), buf.ptr(2));
    exec.gpu_mut().write_u32(p1, &[91]);
    exec.gpu_mut().write_u32(p2, &[92]);
    let vote = exec.read_vote_u32(&buf, 8).expect("vote");
    assert!(
        matches!(vote.outcome, VoteOutcome::Corrected { .. }),
        "3-of-5 outvotes a double fault: {:?}",
        vote.outcome
    );
    assert_eq!(vote.value, clean, "the voted data is the clean data");
}

/// The full placement stack accepts N = 5: SRRS spreads five
/// pairwise-distinct start SMs over ten SMs, and the SLICE validator cuts
/// five disjoint slices — every replica block stays in its slice.
#[test]
fn srrs_spread_and_slice_validate_five_replicas_on_ten_sms() {
    assert_eq!(
        RedundancyMode::srrs_spread(10, 5),
        RedundancyMode::Srrs {
            start_sms: vec![0, 2, 4, 6, 8]
        }
    );
    assert_eq!(
        policy_mode(PolicyKind::Slice, 5, 10).expect("slice@5"),
        RedundancyMode::slice(5)
    );

    let mut gpu = Gpu::new(wide_cfg());
    let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::slice(5)).expect("mode");
    assert_eq!(exec.replicas(), 5);
    let prog = triple_kernel();
    let out = exec.alloc_words(64).expect("alloc");
    exec.launch(&prog, 2u32, 32u32, 0, &[RParam::Buf(&out)])
        .expect("launch");
    exec.sync().expect("run");
    let vote = exec.read_vote_u32(&out, 64).expect("vote");
    assert!(vote.outcome.is_unanimous());
    assert_eq!(vote.value[7], 21);
    drop(exec);
    for rec in &gpu.trace().blocks {
        let k = gpu.trace().kernel(rec.kernel).expect("kernel");
        let replica = k.attrs.redundant.expect("tag").replica;
        let slice = k.attrs.slice.expect("slice hint");
        assert_eq!(slice.index, replica);
        assert_eq!(slice.of, 5);
        assert!(slice.contains(rec.sm, 10), "replica escaped its slice");
    }
}

/// Campaign smoke at N = 5 on the wide device: permanent single-SM faults
/// are outvoted under both the SRRS spread and the SLICE cut — coverage
/// stays total (undetected = 0) and correction replaces detection.
#[test]
fn five_replica_campaigns_correct_permanent_faults_cleanly() {
    let cfg = CampaignConfig {
        trials: 8,
        seed: 0x51CE5,
        gpu: wide_cfg(),
        ..CampaignConfig::default()
    };
    let workload = IteratedFma {
        n: 256,
        threads_per_block: 64,
        iters: 16,
    };
    for mode in [RedundancyMode::srrs_spread(10, 5), RedundancyMode::slice(5)] {
        let r = run_campaign_with_perf(&cfg, &mode, FaultSpec::Permanent, &workload)
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"))
            .0;
        assert_eq!(r.replicas, 5);
        assert_eq!(r.undetected, 0, "{mode:?}: diversity holds at N=5: {r:?}");
        assert!(
            r.corrected > 0,
            "{mode:?}: a 4-of-5 majority outvotes a stuck SM: {r:?}"
        );
        assert_eq!(
            r.detected, 0,
            "{mode:?}: nothing merely fail-stops at N=5: {r:?}"
        );
    }
}
