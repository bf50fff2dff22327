//! Snapshot/restore fences: restoring a [`higpu_sim::gpu::DeviceSnapshot`]
//! and running to idle must be **bit-identical** — same issue stream, same
//! statistics, same trace, same memory image — to running straight through,
//! from any pause point, on the paper device and on a 40-SM one.
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
use higpu_sim::config::GpuConfig;
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
fn setup() -> (Gpu, DevPtr, DevPtr) {
    let mut gpu = Gpu::new(GpuConfig::paper_6sm());
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

fn straight_run() -> RunOut {
    let (mut gpu, a, b) = setup();
    gpu.run_to_idle().expect("straight run");
    collect(&mut gpu, a, b)
}

/// Pauses a run built by `setup` at each of `targets`, and requires both
/// the resumed device and a bare device restored from the pause's snapshot
/// to finish bit-identically to `straight`.
fn assert_pauses_transparent(
    straight: &RunOut,
    setup: impl Fn() -> (Gpu, DevPtr, DevPtr),
    targets: &[u64],
) {
    let m = straight.makespan;
    for &target in targets {
        let (mut rec, ra, rb) = setup();
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
        assert_eq!(&resumed, straight, "pause at {target} perturbed the run");

        // Path 2: a bare device restores the snapshot and finishes.
        let mut fresh = Gpu::new(rec.config().clone());
        fresh.restore(&snap);
        fresh.run_to_idle().expect("restored run");
        let restored = collect(&mut fresh, ra, rb);
        assert_eq!(
            &restored, straight,
            "restore at {target} diverged from the straight run"
        );

        // Snapshots are reusable: a second restore replays identically.
        let mut again = Gpu::new(rec.config().clone());
        again.restore(&snap);
        again.run_to_idle().expect("second restored run");
        assert_eq!(&collect(&mut again, ra, rb), straight);
    }
}

#[test]
fn restore_then_run_is_bit_identical_from_any_pause_point() {
    let straight = straight_run();
    assert!(!straight.issues.is_empty());
    let m = straight.makespan;
    // Pause points across the whole run, including degenerate edges:
    // cycle 0 (nothing executed yet) and past the makespan (no pause).
    assert_pauses_transparent(
        &straight,
        setup,
        &[0, 1, m / 8, m / 3, m / 2, 2 * m / 3, m - 1, m + 50],
    );
}

#[test]
fn watchdog_deadline_is_absolute_across_restore() {
    let straight = straight_run();
    let limit = straight.makespan / 2;

    // From-zero trial with the deadline armed: cut off mid-run.
    let (mut gpu, _, _) = setup();
    gpu.set_cycle_limit(Some(limit));
    let from_zero = gpu.run_to_idle().expect_err("deadline must fire");
    let SimError::DeadlineExceeded { cycle: cut0, .. } = from_zero else {
        panic!("expected DeadlineExceeded, got {from_zero:?}");
    };
    assert!(cut0 > limit);

    // Reference pass (no deadline) pauses well before the cut and
    // snapshots; the snapshot must NOT carry a watchdog state of its own.
    let (mut rec, _, _) = setup();
    rec.run_to_cycle(limit / 2).expect("pause");
    assert!(rec.cycle() < cut0, "pause point must precede the cut");
    let snap = rec.snapshot();

    // A restored trial with the same absolute deadline is cut at the same
    // cycle — restoring at cycle C neither gains nor loses C cycles.
    let mut trial = Gpu::new(GpuConfig::paper_6sm());
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
    let mut free = Gpu::new(GpuConfig::paper_6sm());
    free.restore(&snap);
    assert_eq!(free.cycle_limit(), None);
    assert_eq!(free.run_to_idle().expect("no deadline"), straight.makespan);
}

/// The 40-SM workload: `mix` over 48 blocks on buffer `a` and the delayed
/// `inc` on buffer `b`, launched but not yet run.
fn setup_wide() -> (Gpu, DevPtr, DevPtr) {
    let cfg = GpuConfig {
        num_sms: 40,
        ..GpuConfig::paper_6sm()
    };
    cfg.validate().expect("valid wide config");
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    let a = gpu.alloc_words(WIDE_A_WORDS).expect("alloc a");
    let b = gpu.alloc_words(BUF_B_WORDS).expect("alloc b");
    gpu.write_u32(a, &vec![3u32; WIDE_A_WORDS as usize]);
    gpu.write_u32(b, &vec![10u32; BUF_B_WORDS as usize]);
    gpu.launch(KernelLaunch::new(
        mix_kernel(),
        LaunchConfig::new(48u32, 64u32).param_u32(a.0),
    ))
    .expect("launch mix");
    gpu.launch(
        KernelLaunch::new(inc_kernel(), LaunchConfig::new(8u32, 32u32).param_u32(b.0))
            .dispatch_delay(900),
    )
    .expect("launch inc");
    (gpu, a, b)
}

const WIDE_A_WORDS: u32 = 48 * 64;

#[test]
fn wide_device_event_core_stays_bit_identical() {
    // The registry devices have at most 10 SMs; keep the run loop's flat
    // per-SM scans (and, in debug builds, their per-step cross-checks)
    // exercised on a much wider device, with the output checked and pauses
    // proven transparent.
    let (mut gpu, a, b) = setup_wide();
    gpu.run_to_idle().expect("run");
    let straight = collect(&mut gpu, a, b);
    assert_eq!(
        gpu.read_u32(a, WIDE_A_WORDS as usize),
        vec![3 + 12; WIDE_A_WORDS as usize],
        "mix output"
    );
    assert_eq!(
        straight.mem_b,
        vec![10 + 7; BUF_B_WORDS as usize],
        "inc output"
    );
    let sms_used: std::collections::BTreeSet<usize> =
        straight.trace.blocks.iter().map(|blk| blk.sm).collect();
    assert_eq!(sms_used.len(), 40, "48 blocks must spread over every SM");
    let m = straight.makespan;
    assert_pauses_transparent(&straight, setup_wide, &[m / 4, m / 2, m - 1]);
}

#[test]
fn reset_discards_pending_event_state() {
    // The run loop's queues are rebuilt on every run entry, so stale
    // entries surviving `force_reset`/`reset` must be unobservable: a
    // device force-reset mid-run behaves exactly like a fresh one.
    let fresh = straight_run();
    let (mut gpu, _, _) = setup();
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
    let straight = straight_run();
    let (mut rec, _, _) = setup();
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
