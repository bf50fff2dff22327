//! Randomized property fence for the uniformity-tracked register file.
//!
//! The interpreter tracks per-warp register uniformity (one bitmap bit per
//! row) and lets fast paths scalarize uniform work — but only while no
//! fault hook is armed; an armed hook forces the per-lane masked loop that
//! exhaustively materializes every lane. That gives a built-in oracle:
//!
//! * the **reference** run wraps the injector in `AlwaysArmed`, so every
//!   instruction of the whole run takes the exhaustive per-lane path — the
//!   register file is fully materialized, 32 lanes wide, at all times;
//! * the **fast** run uses the plain injector, which is armed only inside
//!   its fault window — outside it the interpreter trusts the uniformity
//!   bitmap (scalarized ALU work, splat row writes, single-sector uniform
//!   memory traffic).
//!
//! Random programs (uniform and divergent arithmetic, data-dependent
//! branches, uniform/stride-1/gathered loads and stores, barriers) are run
//! both ways under both warp-scheduler policies, across rand-shim seeds, with a mid-run corruption window. Everything observable
//! — the exhaustively stored register pool, scratch memory, cycle count,
//! issue stream and statistics — must be bit-identical: a single falsely
//! claimed-uniform row would splat lane 0 over divergent lanes (or emit the
//! wrong memory sectors) and split the runs.
//!
//! A second fence drives snapshot→restore→run through the same random
//! programs, pausing mid-run so live uniformity bitmaps and decoded-program
//! state cross the snapshot boundary.

use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::config::{GpuConfig, WarpSchedPolicy};
use higpu_sim::fault::{FaultCtx, FaultHook};
use higpu_sim::gpu::Gpu;
use higpu_sim::isa::{CmpOp, Reg};
use higpu_sim::kernel::{KernelId, KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use higpu_sim::sm::IssueRecord;
use higpu_sim::stats::SimStats;
use higpu_sim::trace::ExecutionTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The pre-optimization reference: reports `armed == true` unconditionally,
/// so the interpreter materializes every lane of every instruction while
/// the wrapped injector corrupts exactly what it would have anyway.
struct AlwaysArmed(FaultInjector);

impl FaultHook for AlwaysArmed {
    fn armed(&self, _ctx: &FaultCtx) -> bool {
        true
    }

    fn corrupt_value(&mut self, ctx: &FaultCtx, lane: usize, value: u32) -> u32 {
        self.0.corrupt_value(ctx, lane, value)
    }

    fn reroute_block(
        &mut self,
        kernel: KernelId,
        block: u32,
        chosen_sm: usize,
        num_sms: usize,
        fits: &dyn Fn(usize) -> bool,
    ) -> usize {
        self.0
            .reroute_block(kernel, block, chosen_sm, num_sms, fits)
    }
}

/// Launch geometry plus the register pool the program materializes.
struct Shape {
    blocks: u32,
    tpb: u32,
    pool: usize,
}

impl Shape {
    fn total(&self) -> u32 {
        self.blocks * self.tpb
    }
}

/// Builds a random program over two buffer params (`scratch`, `out`):
/// a mix of uniform and divergent integer arithmetic, data-dependent
/// branches, loads/stores in uniform, stride-1 and gathered address modes,
/// and barriers — then exhaustively stores every pool register of every
/// thread to `out` (register `j` of global thread `t` lands at word
/// `j * total + t`), materializing the final register file in memory.
fn gen_program(seed: u64) -> (Arc<Program>, Shape) {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = rng.gen_range(1u32..4);
    let tpb = if rng.gen_bool(0.5) { 32u32 } else { 64 };
    let total = blocks * tpb;

    let mut b = KernelBuilder::new("uniprop");
    let scratch = b.param(0);
    let out = b.param(1);
    let tid = b.global_tid_x();
    // The mutable register pool; starts uniform so scalarization has rows
    // to claim, gains divergent rows as tid-dependent values flow in.
    let mut vals: Vec<Reg> = vec![
        b.mov(rng.gen_range(1u32..1000)),
        b.mov(rng.gen_range(1u32..1000)),
    ];
    let pick = |rng: &mut StdRng, vals: &[Reg]| -> Reg {
        // Operands draw from the pool or the divergent tid.
        if rng.gen_bool(0.25) {
            tid
        } else {
            vals[rng.gen_range(0..vals.len())]
        }
    };

    let steps = rng.gen_range(10usize..20);
    for _ in 0..steps {
        match rng.gen_range(0u32..10) {
            0..=3 => {
                // Arithmetic: uniform × uniform stays uniform, anything
                // touching tid diverges.
                let a = pick(&mut rng, &vals);
                let c = pick(&mut rng, &vals);
                let r = match rng.gen_range(0u32..6) {
                    0 => b.iadd(a, c),
                    1 => b.isub(a, c),
                    2 => b.imul(a, c),
                    3 => b.iand(a, c),
                    4 => b.ixor(a, c),
                    _ => b.imax(a, c),
                };
                if vals.len() < 8 {
                    vals.push(r);
                } else {
                    let d = vals[rng.gen_range(0..vals.len())];
                    b.mov_to(d, r);
                }
            }
            4 | 5 => {
                // Data-dependent branch: partial masks, merge_row on
                // reconvergence, re-uniformization when both sides agree.
                let lhs = pick(&mut rng, &vals);
                let thr = rng.gen_range(0u32..total * 2);
                let d = vals[rng.gen_range(0..vals.len())];
                let a = pick(&mut rng, &vals);
                let (x, y) = (rng.gen_range(1u32..100), rng.gen_range(1u32..100));
                let p = b.isetp_u(CmpOp::Lt, lhs, thr);
                b.if_else(p, |bb| bb.iadd_to(d, a, x), |bb| bb.imul_to(d, a, y));
                b.release_preds(1);
            }
            6 | 7 => {
                // Store in a random address mode: uniform (single sector),
                // stride-1 (coalesced row) or gathered.
                let v = pick(&mut rng, &vals);
                let addr = match rng.gen_range(0u32..3) {
                    0 => {
                        let idx = b.mov(rng.gen_range(0u32..total));
                        b.addr_w(scratch, idx)
                    }
                    1 => b.addr_w(scratch, tid),
                    _ => {
                        let spread = b.imad(tid, 3u32, rng.gen_range(0u32..total));
                        let idx = b.irem(spread, total);
                        b.addr_w(scratch, idx)
                    }
                };
                b.stg(addr, 0, v);
            }
            8 => {
                // Load, same address modes.
                let addr = if rng.gen_bool(0.3) {
                    let idx = b.mov(rng.gen_range(0u32..total));
                    b.addr_w(scratch, idx)
                } else {
                    b.addr_w(scratch, tid)
                };
                if vals.len() < 8 {
                    let r = b.ldg(addr, 0);
                    vals.push(r);
                } else {
                    let d = vals[rng.gen_range(0..vals.len())];
                    b.ldg_to(d, addr, 0);
                }
            }
            _ => b.bar(),
        }
    }

    // Exhaustive materialization of the register pool.
    for (j, &r) in vals.iter().enumerate() {
        let off = b.iadd(tid, (j as u32) * total);
        let a = b.addr_w(out, off);
        b.stg(a, 0, r);
    }

    let pool = vals.len();
    (
        b.build().expect("generated program is valid").into_shared(),
        Shape { blocks, tpb, pool },
    )
}

fn gpu_config(policy: WarpSchedPolicy) -> GpuConfig {
    GpuConfig {
        warp_scheduler: policy,
        ..GpuConfig::tiny_2sm()
    }
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct RunOut {
    makespan: u64,
    issues: Vec<IssueRecord>,
    stats: SimStats,
    trace: ExecutionTrace,
    scratch: Vec<u32>,
    out: Vec<u32>,
}

/// Runs the program under `hook` (if any) and collects the observables.
fn run(
    prog: &Arc<Program>,
    shape: &Shape,
    cfg: GpuConfig,
    hook: Option<Box<dyn FaultHook>>,
) -> RunOut {
    let total = shape.total();
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    if let Some(h) = hook {
        gpu.set_fault_hook(h);
    }
    let scratch = gpu.alloc_words(total).expect("alloc scratch");
    let out = gpu
        .alloc_words(total * shape.pool as u32)
        .expect("alloc out");
    let init: Vec<u32> = (0..total).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    gpu.write_u32(scratch, &init);
    gpu.launch(KernelLaunch::new(
        prog.clone(),
        LaunchConfig::new(shape.blocks, shape.tpb)
            .param_u32(scratch.0)
            .param_u32(out.0),
    ))
    .expect("launch");
    let makespan = gpu.run_to_idle().expect("run");
    RunOut {
        makespan,
        issues: gpu.drain_issue_log(),
        stats: gpu.stats(),
        trace: gpu.trace().clone(),
        scratch: gpu.read_u32(scratch, total as usize),
        out: gpu.read_u32(out, (total * shape.pool as u32) as usize),
    }
}

#[test]
fn uniformity_tracked_file_matches_exhaustive_materialization() {
    let mut any_corrupted = false;
    for seed in 0..16u64 {
        let (prog, shape) = gen_program(seed);
        for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
            // Fault-free makespan bounds the corruption window so the
            // window closes mid-run and fast paths resume after it.
            let clean = run(&prog, &shape, gpu_config(policy), None);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
            let start = rng.gen_range(0..clean.makespan.max(2));
            let duration = rng.gen_range(1..clean.makespan / 2 + 2);
            let model = FaultModel::TransientSm {
                sm: rng.gen_range(0usize..2),
                start,
                duration,
                bit: rng.gen_range(0u8..32),
            };

            let fast_counters = InjectionCounters::shared();
            let fast = run(
                &prog,
                &shape,
                gpu_config(policy),
                Some(Box::new(FaultInjector::new(model, fast_counters.clone()))),
            );
            let reference = run(
                &prog,
                &shape,
                gpu_config(policy),
                Some(Box::new(AlwaysArmed(FaultInjector::new(
                    model,
                    InjectionCounters::shared(),
                )))),
            );
            assert_eq!(
                fast, reference,
                "seed {seed} {policy:?}: uniformity-tracked run diverged \
                 from the exhaustively materialized reference"
            );
            any_corrupted |= fast_counters.activated();
        }
    }
    assert!(
        any_corrupted,
        "the sweep never activated a fault — corruption windows are mis-sized"
    );
}

#[test]
fn snapshot_restore_carries_uniformity_state() {
    for seed in 0..6u64 {
        let (prog, shape) = gen_program(seed);
        let cfg = gpu_config(WarpSchedPolicy::Gto);
        let straight = run(&prog, &shape, cfg.clone(), None);

        // Re-drive the same launch, pause mid-run (live warps hold
        // partially-uniform register files), snapshot, and finish both
        // by resuming and by restoring into a bare device.
        let total = shape.total();
        let mut gpu = Gpu::new(cfg.clone());
        gpu.set_issue_log(true);
        let scratch = gpu.alloc_words(total).expect("alloc scratch");
        let out = gpu
            .alloc_words(total * shape.pool as u32)
            .expect("alloc out");
        let init: Vec<u32> = (0..total).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        gpu.write_u32(scratch, &init);
        gpu.launch(KernelLaunch::new(
            prog.clone(),
            LaunchConfig::new(shape.blocks, shape.tpb)
                .param_u32(scratch.0)
                .param_u32(out.0),
        ))
        .expect("launch");
        gpu.run_to_cycle(straight.makespan / 2).expect("pause");
        let snap = gpu.snapshot();

        gpu.run_to_idle().expect("resume");
        let resumed = RunOut {
            makespan: gpu.cycle(),
            issues: gpu.drain_issue_log(),
            stats: gpu.stats(),
            trace: gpu.trace().clone(),
            scratch: gpu.read_u32(scratch, total as usize),
            out: gpu.read_u32(out, (total * shape.pool as u32) as usize),
        };
        assert_eq!(resumed, straight, "seed {seed}: pause perturbed run");

        let mut fresh = Gpu::new(cfg);
        fresh.restore(&snap);
        fresh.run_to_idle().expect("restored run");
        let restored = RunOut {
            makespan: fresh.cycle(),
            issues: fresh.drain_issue_log(),
            stats: fresh.stats(),
            trace: fresh.trace().clone(),
            scratch: fresh.read_u32(scratch, total as usize),
            out: fresh.read_u32(out, (total * shape.pool as u32) as usize),
        };
        assert_eq!(
            restored, straight,
            "seed {seed}: snapshot→restore→run diverged through the \
             uniformity-tracked representation"
        );
    }
}
