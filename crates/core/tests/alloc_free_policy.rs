//! Proves a diversity-scheduler round on a healthy device performs **zero
//! heap allocations**, for every scheme the launch attributes select:
//! whole-device SRRS, HALF and SLICE, and reserved partitions that mix
//! SRRS-in-reserve with slices-in-reserve.
//!
//! The simulator's own fence (`higpu_sim`'s `alloc_free_scheduler.rs`)
//! covers the round's snapshot buffers under the default scheduler; this
//! one covers the policy's `assign`. It lives in its own single-test
//! integration binary because the counting allocator is process-global:
//! sharing a binary with concurrently running tests would make the count
//! racy.

use higpu_core::policy::PartitionedScheduler;
use higpu_sim::kernel::{BlockFootprint, KernelId, LaunchAttrs, SmSlice};
use higpu_sim::partition::SmRange;
use higpu_sim::scheduler::{KernelSchedulerPolicy, KernelSnapshot, SchedulerView, SmSnapshot};
use higpu_sim::sm::ResourceUsage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts allocations.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NUM_SMS: usize = 6;

fn kernel(id: u64, attrs: LaunchAttrs) -> KernelSnapshot {
    KernelSnapshot {
        id: KernelId(id),
        attrs: Arc::new(attrs),
        arrival: 0,
        blocks_total: 16,
        blocks_issued: 0,
        blocks_done: 0,
        footprint: BlockFootprint {
            threads: 64,
            warps: 2,
            registers: 64,
            shared_mem: 0,
        },
    }
}

fn idle_sms() -> Vec<SmSnapshot> {
    let free = SmSnapshot {
        free: ResourceUsage {
            threads: 1536,
            warps: 48,
            registers: 32 * 1024,
            shared_mem: 48 * 1024,
            blocks: 8,
        },
        resident_blocks: 0,
        quarantined: false,
    };
    vec![free; NUM_SMS]
}

fn srrs(start: usize, reserve: Option<SmRange>) -> LaunchAttrs {
    LaunchAttrs {
        start_sm: Some(start),
        reserve,
        ..Default::default()
    }
}

fn sliced(index: u8, of: u8, reserve: Option<SmRange>) -> LaunchAttrs {
    LaunchAttrs {
        slice: Some(SmSlice { index, of }),
        reserve,
        ..Default::default()
    }
}

#[test]
fn diversity_scheduler_rounds_are_allocation_free() {
    let lower = Some(SmRange { start: 0, len: 3 });
    let upper = Some(SmRange { start: 3, len: 3 });
    let cases: Vec<(&str, Vec<LaunchAttrs>)> = vec![
        ("SRRS@2", vec![srrs(0, None), srrs(3, None)]),
        ("HALF", vec![sliced(0, 2, None), sliced(1, 2, None)]),
        ("SLICE@3", (0..3).map(|r| sliced(r, 3, None)).collect()),
        (
            "reserved SRRS + SLICE",
            vec![
                srrs(0, lower),
                sliced(0, 2, upper),
                srrs(1, lower),
                sliced(1, 2, upper),
            ],
        ),
    ];
    let mut policy = PartitionedScheduler::new();
    // Warm output buffer: a round places at most every block of every case.
    let mut assignments = Vec::with_capacity(256);
    for (name, attrs) in cases {
        let kernels: Vec<KernelSnapshot> = attrs
            .into_iter()
            .zip(0..)
            .map(|(a, id)| kernel(id, a))
            .collect();
        let sms = idle_sms();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut view = SchedulerView::from_parts(0, kernels, sms, assignments);
        policy.assign(&mut view);
        let (_, _, placed) = view.into_parts();
        let after = ALLOCATIONS.load(Ordering::Relaxed);

        assert!(!placed.is_empty(), "{name}: the round must place blocks");
        assert_eq!(after - before, 0, "{name}: one assign round allocated");
        assignments = placed;
    }
}
