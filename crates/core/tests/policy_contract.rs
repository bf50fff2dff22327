//! The scheduling-round contract the simulator's run loop relies on
//! (`KernelSchedulerPolicy::assign`): a round over the view the previous
//! round left behind assigns nothing. The run loop consults the policy
//! only after an event changed the view, which is sound only if both
//! workspace policies fill every view to a fixpoint.
//!
//! Seeded property test over random views: 2–10 SMs with resident blocks
//! and quarantined SMs, and kernels mixing reserves, slices, SRRS start
//! SMs and partly issued grids.

use higpu_core::policy::PartitionedScheduler;
use higpu_sim::kernel::{BlockFootprint, KernelId, LaunchAttrs, SmSlice};
use higpu_sim::partition::SmRange;
use higpu_sim::scheduler::{
    DefaultScheduler, KernelSchedulerPolicy, KernelSnapshot, SchedulerView, SmSnapshot,
};
use higpu_sim::sm::ResourceUsage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const VIEWS: usize = 2000;

fn footprint(rng: &mut StdRng) -> BlockFootprint {
    let threads = [32u32, 64, 128, 256, 512][rng.gen_range(0..5usize)];
    BlockFootprint {
        threads,
        warps: threads / 32,
        registers: threads * rng.gen_range(8..33u32),
        shared_mem: [0u32, 4096, 16 * 1024][rng.gen_range(0..3usize)],
    }
}

/// An SM of the paper device's capacity, with up to three resident blocks
/// already charged against it, quarantined one time in five.
fn sm(rng: &mut StdRng) -> SmSnapshot {
    let mut free = ResourceUsage {
        threads: 1536,
        warps: 48,
        registers: 32 * 1024,
        shared_mem: 48 * 1024,
        blocks: 8,
    };
    let mut resident_blocks = 0;
    for _ in 0..rng.gen_range(0..4u32) {
        let fp = footprint(rng);
        if fp.threads <= free.threads
            && fp.warps <= free.warps
            && fp.registers <= free.registers
            && fp.shared_mem <= free.shared_mem
        {
            free.threads -= fp.threads;
            free.warps -= fp.warps;
            free.registers -= fp.registers;
            free.shared_mem -= fp.shared_mem;
            free.blocks -= 1;
            resident_blocks += 1;
        }
    }
    SmSnapshot {
        free,
        resident_blocks,
        quarantined: rng.gen_bool(0.2),
    }
}

/// Launch attributes of one kernel group: an optional reserve, then SRRS
/// from a start SM, a slice, or neither.
fn group_attrs(rng: &mut StdRng, n: usize) -> LaunchAttrs {
    let reserve = rng.gen_bool(0.4).then(|| {
        let start = rng.gen_range(0..n);
        SmRange {
            start,
            len: rng.gen_range(1..n - start + 1),
        }
    });
    let mut attrs = LaunchAttrs {
        reserve,
        ..Default::default()
    };
    match rng.gen_range(0..3u32) {
        0 => attrs.start_sm = Some(rng.gen_range(0..2 * n)),
        1 => {
            let of = rng.gen_range(2..4u8);
            attrs.slice = Some(SmSlice {
                index: rng.gen_range(0..of),
                of,
            });
        }
        _ => {}
    }
    attrs
}

fn kernel(rng: &mut StdRng, id: u64, attrs: LaunchAttrs) -> KernelSnapshot {
    let blocks_total = rng.gen_range(1..25u32);
    let blocks_issued = if rng.gen_bool(0.5) {
        0
    } else {
        rng.gen_range(0..blocks_total + 1)
    };
    KernelSnapshot {
        id: KernelId(id),
        attrs: Arc::new(attrs),
        arrival: 0,
        blocks_total,
        blocks_issued,
        blocks_done: rng.gen_range(0..blocks_issued + 1),
        footprint: footprint(rng),
    }
}

fn random_view(rng: &mut StdRng) -> SchedulerView {
    let n = rng.gen_range(2..11usize);
    let sms = (0..n).map(|_| sm(rng)).collect();
    let mut kernels = Vec::new();
    for _ in 0..rng.gen_range(1..4u32) {
        let attrs = group_attrs(rng, n);
        for _ in 0..rng.gen_range(1..4u32) {
            // Replicas of one group differ only in start SM or slice index.
            let mut replica = attrs.clone();
            if let Some(start) = &mut replica.start_sm {
                *start = rng.gen_range(0..2 * n);
            }
            if let Some(slice) = &mut replica.slice {
                slice.index = rng.gen_range(0..slice.of);
            }
            kernels.push(kernel(rng, kernels.len() as u64, replica));
        }
    }
    SchedulerView::new(0, kernels, sms)
}

/// Runs two rounds of `policy` over `VIEWS` random views, the second over
/// the first's result, and returns how many first rounds placed a block.
fn second_round_is_empty(mut policy: impl KernelSchedulerPolicy, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placing = 0;
    for case in 0..VIEWS {
        let mut view = random_view(&mut rng);
        let before = format!("{view:?}");
        policy.assign(&mut view);
        let first = view.assignments().len();
        placing += usize::from(first > 0);
        // `try_assign` already applied the round to the snapshots.
        let (kernels, sms, assignments) = view.into_parts();
        let mut again = SchedulerView::from_parts(0, kernels, sms, assignments);
        policy.assign(&mut again);
        assert!(
            again.assignments().is_empty(),
            "{} case {case}: a round over the previous round's result assigned {:?} \
             (first round placed {first}); view before the first round: {before}",
            policy.name(),
            again.assignments(),
        );
    }
    placing
}

#[test]
fn a_round_over_its_own_result_assigns_nothing() {
    for (name, placing) in [
        (
            "partitioned",
            second_round_is_empty(PartitionedScheduler::new(), 0x5C4E_D001),
        ),
        (
            "default",
            second_round_is_empty(DefaultScheduler::new(), 0x5C4E_D002),
        ),
    ] {
        // Not vacuous: most first rounds have something to place.
        assert!(
            placing > VIEWS / 2,
            "{name}: only {placing} of {VIEWS} first rounds placed a block"
        );
    }
}
