//! Property test for the run loop's O(1) wake-up cache: after
//! every batch of mutations — block admissions, issue slots at jumping
//! cycles, kernel discards, resets — an SM's incrementally maintained
//! [`higpu_sim::sm::Sm::next_ready_at`] must equal the exhaustive scan
//! over every resident warp.
//!
//! Driven by the offline `rand` compat shim (seeded, reproducible), so the
//! property is enforced in tier-1 today; the in-crate `debug_assert!`
//! checks the same invariant on every call in debug builds, this test
//! keeps it checked in release CI too and exercises adversarial mutation
//! orders the workloads never produce.

use higpu_sim::block::{BlockDims, BlockState};
use higpu_sim::builder::KernelBuilder;
use higpu_sim::config::{GpuConfig, WarpSchedPolicy};
use higpu_sim::fault::NoFaults;
use higpu_sim::gpu::Gpu;
use higpu_sim::kernel::{BlockFootprint, Dim3, KernelId, KernelLaunch, LaunchConfig};
use higpu_sim::mem::system::MemorySystem;
use higpu_sim::program::Program;
use higpu_sim::sm::Sm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A randomized kernel: a counted loop whose body mixes ALU, FMA, SFU,
/// memory traffic, divergence and (for multi-warp blocks) barriers, so the
/// wake-time mirror sees every latency class and the barrier sleep/wake
/// transitions.
fn random_kernel(rng: &mut StdRng, with_barrier: bool) -> Arc<Program> {
    let mut b = KernelBuilder::new("prop");
    let base = b.param(0);
    let tid = b.special(higpu_sim::isa::SpecialReg::TidX);
    let addr = b.addr_w(base, tid);
    let iters = rng.gen_range(2..20u32);
    let body_ops = rng.gen_range(1..6u32);
    let barrier = with_barrier && rng.gen_range(0..2u32) == 1;
    let divergent = rng.gen_range(0..2u32) == 1;
    b.for_range(0u32, iters, 1u32, |b, i| {
        for op in 0..body_ops {
            match (op + iters) % 5 {
                0 => {
                    let v = b.ldg(addr, 0);
                    b.stg(addr, 0, v);
                }
                1 => {
                    let f = b.i2f(i);
                    let _ = b.ffma(f, 1.5f32, 0.5f32);
                }
                2 => {
                    let f = b.i2f(i);
                    let _ = b.fsqrt(f);
                }
                3 => {
                    let _ = b.iadd(i, 3u32);
                }
                _ => {
                    let v = b.ldg(addr, 0);
                    let _ = b.imul(v, 5u32);
                }
            }
        }
        if divergent {
            let p = b.isetp(higpu_sim::isa::CmpOp::Lt, tid, 16u32);
            b.if_(p, |b| {
                let one = b.mov(1u32);
                let _ = b.atom_add(base, 0, one);
            });
        }
        if barrier {
            b.bar();
        }
    });
    b.build().expect("valid").into_shared()
}

fn check(sm: &Sm, seed: u64, step: &str) {
    assert_eq!(
        sm.next_ready_at(),
        sm.debug_exhaustive_next_ready(),
        "incremental next_ready_at diverged from the exhaustive warp scan \
         after {step} (case seed {seed:#x})"
    );
}

#[test]
fn incremental_next_ready_matches_exhaustive_scan_after_every_mutation_batch() {
    let mut seeder = StdRng::seed_from_u64(0x0EA7_01D5);
    for _case in 0..60 {
        let seed = seeder.gen_range(0..u64::MAX);
        let mut rng = StdRng::seed_from_u64(seed);
        let policy = if rng.gen_range(0..2u32) == 0 {
            WarpSchedPolicy::Gto
        } else {
            WarpSchedPolicy::Lrr
        };
        let cfg = GpuConfig {
            warp_scheduler: policy,
            ..GpuConfig::tiny_2sm()
        };
        let mut sm = Sm::new(0, &cfg);
        let mut memsys = MemorySystem::new(&cfg);
        let mut global = vec![0u32; 8192];
        let mut hook = NoFaults;
        let mut dirty = 0u32;
        let mut completions = Vec::new();
        let params: Arc<[u32]> = Arc::from(vec![0u32].into_boxed_slice());
        let mut now = 0u64;
        let mut next_kernel = 0u64;

        for _batch in 0..40 {
            match rng.gen_range(0..10u32) {
                // Admit a fresh block of a random kernel (if it fits).
                0 | 1 => {
                    let threads = 32 * rng.gen_range(1..3u32);
                    let warps = threads / 32;
                    let prog = random_kernel(&mut rng, warps > 1);
                    let fp = BlockFootprint {
                        threads,
                        warps,
                        registers: threads * prog.regs_per_thread() as u32,
                        shared_mem: 0,
                    };
                    if sm.fits(&fp) {
                        let ready_at = now + rng.gen_range(0..8u64);
                        let dims = BlockDims {
                            ctaid: (0, 0, 0),
                            ntid: Dim3::x(threads),
                            nctaid: Dim3::x(1),
                        };
                        let mut block = BlockState::new(
                            KernelId(next_kernel),
                            0,
                            dims,
                            prog,
                            params.clone(),
                            fp,
                            now,
                            now,
                        );
                        // Stagger the warps' first wake-ups.
                        for w in &mut block.warps {
                            w.ready_at = ready_at + rng.gen_range(0..4u64);
                        }
                        sm.admit(block);
                        next_kernel += 1;
                    }
                }
                // Discard one kernel's blocks (watchdog / quarantine path).
                2 => {
                    if next_kernel > 0 {
                        let victim = KernelId(rng.gen_range(0..next_kernel));
                        sm.discard_blocks_of(&[victim]);
                    }
                }
                // Watchdog abort: discard everything, then reset (rare).
                3 => {
                    if rng.gen_range(0..8u32) == 0 {
                        sm.discard_blocks();
                        sm.reset();
                        now = 0;
                    }
                }
                // Issue slots at (possibly jumping) cycles — the common case.
                _ => {
                    for _ in 0..rng.gen_range(1..30u32) {
                        sm.issue(
                            now,
                            &mut global,
                            &mut dirty,
                            &mut memsys,
                            &mut hook,
                            false,
                            &mut completions,
                        );
                        now += rng.gen_range(1..5u64);
                    }
                }
            }
            check(&sm, seed, "mutation batch");
        }

        // Drain: run the SM to completion; the cache must stay exact all
        // the way down to the idle fixpoint.
        while sm.next_ready_at() != u64::MAX {
            now = now.max(sm.next_ready_at());
            sm.issue(
                now,
                &mut global,
                &mut dirty,
                &mut memsys,
                &mut hook,
                false,
                &mut completions,
            );
            now += 1;
            check(&sm, seed, "drain step");
        }
        assert!(sm.is_idle(), "idle fixpoint must mean no resident blocks");
    }
}

/// Pending-event state must not survive `Gpu::reset`/`Gpu::force_reset`
/// observably: a device whose event queues were left populated — by a
/// completed run, or by a `run_to_cycle` pause mid-flight — must replay the
/// next workload bit-identically to a freshly constructed device. Randomizes
/// the interrupted prefix (workload shape, pause cycle, reset flavor) to
/// exercise stale event state at many clock offsets.
#[test]
fn event_state_is_unobservable_across_resets() {
    fn little_kernel(iters: u32) -> Arc<Program> {
        let mut b = KernelBuilder::new("little");
        let base = b.param(0);
        let tid = b.global_tid_x();
        let addr = b.addr_w(base, tid);
        b.for_range(0u32, iters, 1u32, |b, _| {
            let v = b.ldg(addr, 0);
            let f = b.i2f(v);
            let _ = b.ffma(f, 1.25f32, 0.5f32);
            let v1 = b.iadd(v, 1u32);
            b.stg(addr, 0, v1);
        });
        b.build().expect("valid").into_shared()
    }

    fn launch_case(gpu: &mut Gpu, iters: u32, blocks: u32, delay: u64) {
        let buf = gpu.alloc_words(blocks * 32).expect("alloc");
        gpu.write_u32(buf, &vec![1u32; (blocks * 32) as usize]);
        gpu.launch(
            KernelLaunch::new(
                little_kernel(iters),
                LaunchConfig::new(blocks, 32u32).param_u32(buf.0),
            )
            .dispatch_delay(delay),
        )
        .expect("launch");
    }

    let mut seeder = StdRng::seed_from_u64(0x5EED_0F0F);
    for _case in 0..25 {
        let seed = seeder.gen_range(0..u64::MAX);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GpuConfig::tiny_2sm();

        // Recycled device: run a random prefix workload, interrupt it at a
        // random cycle (or complete it), then reset.
        let mut recycled = Gpu::new(cfg.clone());
        recycled.set_issue_log(true);
        launch_case(
            &mut recycled,
            rng.gen_range(2..12u32),
            rng.gen_range(1..5u32),
            rng.gen_range(0..400u64),
        );
        if rng.gen_range(0..2u32) == 0 {
            let pause = rng.gen_range(1..3000u64);
            recycled.run_to_cycle(pause).expect("paused prefix");
            recycled.force_reset();
        } else {
            recycled.run_to_idle().expect("prefix run");
            recycled.reset().expect("idle reset");
        }

        // Identical main workload on the recycled and on a fresh device.
        let main_iters = rng.gen_range(2..12u32);
        let main_blocks = rng.gen_range(1..6u32);
        let main_delay = rng.gen_range(0..600u64);
        recycled.set_issue_log(true);
        launch_case(&mut recycled, main_iters, main_blocks, main_delay);
        recycled.run_to_idle().expect("recycled main run");

        let mut fresh = Gpu::new(cfg);
        fresh.set_issue_log(true);
        launch_case(&mut fresh, main_iters, main_blocks, main_delay);
        fresh.run_to_idle().expect("fresh main run");

        assert_eq!(
            recycled.drain_issue_log(),
            fresh.drain_issue_log(),
            "stale event state leaked across reset (case seed {seed:#x})"
        );
        assert_eq!(
            recycled.stats(),
            fresh.stats(),
            "stats diverged across reset (case seed {seed:#x})"
        );
    }
}
