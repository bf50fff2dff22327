//! Snapshot/restore fences: restoring a [`higpu_sim::gpu::DeviceSnapshot`]
//! and running to idle must be **bit-identical** — same issue stream, same
//! statistics, same trace, same memory image — to running straight through,
//! on either device core, from any pause point.
//!
//! Also fences the two satellite contracts of checkpointed campaigns:
//!
//! * watchdog deadlines are absolute cycles and are *not* part of the
//!   snapshot — a trial restored at cycle `C` keeps the same effective
//!   deadline (and cut-off cycle) as a from-zero trial;
//! * [`higpu_sim::gpu::Gpu::run_to_cycle`] pauses are transparent: any
//!   number of pauses anywhere in the run leaves the observable behaviour
//!   unchanged.

use higpu_sim::builder::KernelBuilder;
use higpu_sim::config::{CoreKind, GpuConfig};
use higpu_sim::gpu::{DevPtr, Gpu, SimError};
use higpu_sim::kernel::{KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use higpu_sim::sm::IssueRecord;
use higpu_sim::stats::SimStats;
use higpu_sim::trace::ExecutionTrace;
use std::sync::Arc;

/// A compute-heavy kernel: per-thread loop mixing ALU, FMA, SFU and global
/// memory traffic, with a barrier so multi-warp wake/sleep transitions are
/// exercised across the snapshot point.
fn mix_kernel() -> Arc<Program> {
    let mut b = KernelBuilder::new("mix");
    let base = b.param(0);
    let i = b.global_tid_x();
    let addr = b.addr_w(base, i);
    b.for_range(0u32, 12u32, 1u32, |b, k| {
        let v = b.ldg(addr, 0);
        let f = b.i2f(v);
        let g = b.ffma(f, 1.5f32, 0.25f32);
        let s = b.fsqrt(g);
        let _ = b.fadd(s, 1.0f32);
        let v1 = b.iadd(v, 1u32);
        b.stg(addr, 0, v1);
        let _ = b.imul(k, 3u32);
        b.bar();
    });
    b.build().expect("valid").into_shared()
}

/// A short memory kernel, launched with a dispatch delay so the run has a
/// long arrival gap for pauses to land in.
fn inc_kernel() -> Arc<Program> {
    let mut b = KernelBuilder::new("inc");
    let base = b.param(0);
    let i = b.global_tid_x();
    let addr = b.addr_w(base, i);
    let v = b.ldg(addr, 0);
    let v1 = b.iadd(v, 7u32);
    b.stg(addr, 0, v1);
    b.build().expect("valid").into_shared()
}

const BUF_A_WORDS: u32 = 6 * 64;
const BUF_B_WORDS: u32 = 8 * 32;

/// Builds a device with the full workload launched but not yet run.
fn setup(core: CoreKind) -> (Gpu, DevPtr, DevPtr) {
    let cfg = GpuConfig {
        core,
        ..GpuConfig::paper_6sm()
    };
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    let a = gpu.alloc_words(BUF_A_WORDS).expect("alloc a");
    let b = gpu.alloc_words(BUF_B_WORDS).expect("alloc b");
    gpu.write_u32(a, &vec![3u32; BUF_A_WORDS as usize]);
    gpu.write_u32(b, &vec![10u32; BUF_B_WORDS as usize]);
    gpu.launch(KernelLaunch::new(
        mix_kernel(),
        LaunchConfig::new(6u32, 64u32).param_u32(a.0),
    ))
    .expect("launch mix");
    gpu.launch(
        KernelLaunch::new(inc_kernel(), LaunchConfig::new(8u32, 32u32).param_u32(b.0))
            .dispatch_delay(900),
    )
    .expect("launch inc");
    (gpu, a, b)
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct RunOut {
    makespan: u64,
    issues: Vec<IssueRecord>,
    stats: SimStats,
    trace: ExecutionTrace,
    mem_a: Vec<u32>,
    mem_b: Vec<u32>,
}

fn collect(gpu: &mut Gpu, a: DevPtr, b: DevPtr) -> RunOut {
    RunOut {
        makespan: gpu.cycle(),
        issues: gpu.drain_issue_log(),
        stats: gpu.stats(),
        trace: gpu.trace().clone(),
        mem_a: gpu.read_u32(a, BUF_A_WORDS as usize),
        mem_b: gpu.read_u32(b, BUF_B_WORDS as usize),
    }
}

fn straight_run(core: CoreKind) -> RunOut {
    let (mut gpu, a, b) = setup(core);
    gpu.run_to_idle().expect("straight run");
    collect(&mut gpu, a, b)
}

#[test]
fn restore_then_run_is_bit_identical_from_any_pause_point() {
    for core in [CoreKind::Stepping, CoreKind::Event] {
        let straight = straight_run(core);
        assert!(!straight.issues.is_empty());
        let m = straight.makespan;
        // Pause points across the whole run, including degenerate edges:
        // cycle 0 (nothing executed yet) and past the makespan (no pause).
        for target in [0, 1, m / 8, m / 3, m / 2, 2 * m / 3, m - 1, m + 50] {
            let (mut rec, ra, rb) = setup(core);
            let idle = rec.run_to_cycle(target).expect("paused run");
            assert_eq!(
                idle,
                target > m,
                "pause at {target} of {m}: idle iff past the makespan"
            );
            let snap = rec.snapshot();
            assert_eq!(snap.cycle(), rec.cycle());

            // Path 1: the paused device resumes.
            rec.run_to_idle().expect("resume");
            let resumed = collect(&mut rec, ra, rb);
            assert_eq!(
                resumed, straight,
                "{core:?}: pause at {target} perturbed the run"
            );

            // Path 2: a bare device restores the snapshot and finishes.
            let cfg = GpuConfig {
                core,
                ..GpuConfig::paper_6sm()
            };
            let mut fresh = Gpu::new(cfg);
            fresh.restore(&snap);
            fresh.run_to_idle().expect("restored run");
            let restored = collect(&mut fresh, ra, rb);
            assert_eq!(
                restored, straight,
                "{core:?}: restore at {target} diverged from the straight run"
            );

            // Snapshots are reusable: a second restore replays identically.
            let mut again = Gpu::new(GpuConfig {
                core,
                ..GpuConfig::paper_6sm()
            });
            again.restore(&snap);
            again.run_to_idle().expect("second restored run");
            assert_eq!(collect(&mut again, ra, rb), straight);
        }
    }
}

#[test]
fn restore_is_bit_identical_across_cores() {
    // A snapshot taken on one core finishes identically on *both* cores —
    // snapshots carry no core-specific state.
    let straight = straight_run(CoreKind::Stepping);
    let (mut rec, a, b) = setup(CoreKind::Event);
    rec.run_to_cycle(straight.makespan / 2).expect("pause");
    let snap = rec.snapshot();
    let mut outs = Vec::new();
    for core in [CoreKind::Stepping, CoreKind::Event] {
        let mut gpu = Gpu::new(GpuConfig {
            core,
            ..GpuConfig::paper_6sm()
        });
        gpu.restore(&snap);
        gpu.run_to_idle().expect("restored run");
        outs.push(collect(&mut gpu, a, b));
    }
    assert_eq!(outs[0], straight, "stepping restore diverged");
    assert_eq!(outs[1], straight, "event restore diverged");
}

#[test]
fn watchdog_deadline_is_absolute_across_restore() {
    let straight = straight_run(CoreKind::Event);
    let limit = straight.makespan / 2;

    // From-zero trial with the deadline armed: cut off mid-run.
    let (mut gpu, _, _) = setup(CoreKind::Event);
    gpu.set_cycle_limit(Some(limit));
    let from_zero = gpu.run_to_idle().expect_err("deadline must fire");
    let SimError::DeadlineExceeded { cycle: cut0, .. } = from_zero else {
        panic!("expected DeadlineExceeded, got {from_zero:?}");
    };
    assert!(cut0 > limit);

    // Reference pass (no deadline) pauses well before the cut and
    // snapshots; the snapshot must NOT carry a watchdog state of its own.
    let (mut rec, _, _) = setup(CoreKind::Event);
    rec.run_to_cycle(limit / 2).expect("pause");
    assert!(rec.cycle() < cut0, "pause point must precede the cut");
    let snap = rec.snapshot();

    // A restored trial with the same absolute deadline is cut at the same
    // cycle — restoring at cycle C neither gains nor loses C cycles.
    let mut trial = Gpu::new(GpuConfig {
        core: CoreKind::Event,
        ..GpuConfig::paper_6sm()
    });
    trial.set_cycle_limit(Some(limit));
    trial.restore(&snap);
    assert_eq!(
        trial.cycle_limit(),
        Some(limit),
        "restore must preserve the armed deadline"
    );
    let restored = trial.run_to_idle().expect_err("deadline must still fire");
    assert_eq!(
        restored, from_zero,
        "restored trial cut at a different cycle than from-zero"
    );

    // Without a deadline the same snapshot runs to the straight makespan.
    let mut free = Gpu::new(GpuConfig {
        core: CoreKind::Event,
        ..GpuConfig::paper_6sm()
    });
    free.restore(&snap);
    assert_eq!(free.cycle_limit(), None);
    assert_eq!(free.run_to_idle().expect("no deadline"), straight.makespan);
}

#[test]
fn wide_device_event_core_stays_bit_identical() {
    // The registry devices have at most 10 SMs; keep the event core's flat
    // per-SM scans fenced against the stepping oracle on a much wider one.
    let wide = |core| {
        let cfg = GpuConfig {
            core,
            num_sms: 40,
            ..GpuConfig::paper_6sm()
        };
        cfg.validate().expect("valid wide config");
        let mut gpu = Gpu::new(cfg);
        gpu.set_issue_log(true);
        let a = gpu.alloc_words(BUF_A_WORDS).expect("alloc");
        gpu.write_u32(a, &vec![3u32; BUF_A_WORDS as usize]);
        gpu.launch(KernelLaunch::new(
            mix_kernel(),
            LaunchConfig::new(48u32, 64u32).param_u32(a.0),
        ))
        .expect("launch");
        gpu.launch(
            KernelLaunch::new(inc_kernel(), LaunchConfig::new(8u32, 32u32).param_u32(a.0))
                .dispatch_delay(900),
        )
        .expect("launch 2");
        gpu.run_to_idle().expect("run");
        collect(&mut gpu, a, a)
    };
    let oracle = wide(CoreKind::Stepping);
    let event = wide(CoreKind::Event);
    assert!(!oracle.issues.is_empty());
    assert_eq!(oracle, event, "event core diverged from stepping on 40 SMs");
}

#[test]
fn reset_discards_pending_event_state() {
    // The event core's queues are rebuilt on every run entry, so stale
    // entries surviving `force_reset`/`reset` must be unobservable: a
    // device force-reset mid-run behaves exactly like a fresh one.
    let fresh = straight_run(CoreKind::Event);
    let (mut gpu, _, _) = setup(CoreKind::Event);
    gpu.run_to_cycle(fresh.makespan / 2).expect("pause mid-run");
    assert!(!gpu.is_idle(), "pause must land mid-run");
    gpu.force_reset();
    // Re-run the identical workload on the recycled device.
    gpu.set_issue_log(true);
    let a = gpu.alloc_words(BUF_A_WORDS).expect("alloc a");
    let b = gpu.alloc_words(BUF_B_WORDS).expect("alloc b");
    gpu.write_u32(a, &vec![3u32; BUF_A_WORDS as usize]);
    gpu.write_u32(b, &vec![10u32; BUF_B_WORDS as usize]);
    gpu.launch(KernelLaunch::new(
        mix_kernel(),
        LaunchConfig::new(6u32, 64u32).param_u32(a.0),
    ))
    .expect("launch mix");
    gpu.launch(
        KernelLaunch::new(inc_kernel(), LaunchConfig::new(8u32, 32u32).param_u32(b.0))
            .dispatch_delay(900),
    )
    .expect("launch inc");
    gpu.run_to_idle().expect("re-run");
    let rerun = collect(&mut gpu, a, b);
    assert_eq!(
        rerun, fresh,
        "event state leaked across force_reset into the next run"
    );
}

#[test]
fn snapshot_golden() {
    // Golden fence: the exact observable coordinates of the fixed workload
    // above, so an accidental semantic change to snapshot/restore (or to
    // the cores) fails loudly with numbers instead of a silent re-baseline.
    let straight = straight_run(CoreKind::Event);
    let (mut rec, _, _) = setup(CoreKind::Event);
    rec.run_to_cycle(straight.makespan / 2).expect("pause");
    let snap = rec.snapshot();
    assert_eq!(straight.makespan, GOLDEN_MAKESPAN, "makespan drifted");
    assert_eq!(
        straight.issues.len() as u64,
        GOLDEN_ISSUES,
        "issue count drifted"
    );
    assert_eq!(
        straight.stats.instructions, GOLDEN_INSTRUCTIONS,
        "instruction count drifted"
    );
    assert_eq!(snap.cycle(), GOLDEN_SNAP_CYCLE, "pause cycle drifted");
    assert!(snap.approx_bytes() > 0);
}

const GOLDEN_MAKESPAN: u64 = 15_400;
const GOLDEN_ISSUES: u64 = 2_072;
const GOLDEN_INSTRUCTIONS: u64 = 2_072;
const GOLDEN_SNAP_CYCLE: u64 = 7_706;
