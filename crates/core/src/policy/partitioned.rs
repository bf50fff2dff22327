//! The one diversity scheduler: the paper's SRRS and SLICE/HALF placement
//! rules, applied per SM partition.
//!
//! Kernels are grouped by their [`higpu_sim::kernel::LaunchAttrs::reserve`]
//! attribute. A reserve is a disjoint SM range a concurrent frame executor
//! claimed for one DAG branch ([`higpu_sim::partition::SmPartitionTable`]);
//! kernels without one form the group of the whole device, which is simply
//! the partition `[0, n)` (RTGPU's SM partition as the unit of GPU
//! scheduling, PAPERS.md). Groups are served in the arrival order of their
//! oldest kernel, and that kernel's attributes pick the group's scheme:
//!
//! * with a `start_sm`, **SRRS scoped to the partition**
//!   ([`super::srrs`]): a kernel starts only when its partition is idle,
//!   its blocks round-robin from the start SM over the partition's SMs, and
//!   the group's kernels execute one at a time in arrival order while
//!   sibling partitions run concurrently;
//! * otherwise, **slices of the partition** ([`super::slice`]): each kernel
//!   fills its [`higpu_sim::kernel::SmSlice`] of the partition, or all of
//!   it, breadth-first, every kernel concurrently. A kernel with no hint at
//!   all is the uncontrolled baseline scoped to the partition.
//!
//! All kernels of one group come from one redundant executor or one branch
//! attempt, so they share a scheme. Both rules place over the partition's
//! SMs still in service: a frame executor's reserves never contain a
//! quarantined SM (its partition table blocks them), so there the healthy
//! index is the identity, while on the whole device SRRS rotates and the
//! slices rebalance around dead hardware.

use higpu_sim::scheduler::{KernelSchedulerPolicy, SchedulerView, SmSnapshot};
use std::ops::Range;

/// The diversity scheduler behind SRRS, HALF, SLICE and the frame
/// executor's partitions. Stateless across rounds: all scheduling facts are
/// carried by the launch attributes.
#[derive(Debug, Clone, Default)]
pub struct PartitionedScheduler {
    _private: (),
}

impl PartitionedScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The SMs one kernel group schedules over, indexed densely over the ones
/// still in service.
#[derive(Debug)]
pub(crate) struct Partition {
    /// The group's absolute SM range (its reserve, clamped to the device,
    /// or the whole device).
    pub(crate) range: Range<usize>,
    /// The range's in-service SMs, ascending. Materialized only once one of
    /// them is quarantined: scheduling on a healthy device must not
    /// allocate.
    pub(crate) healthy: Option<Vec<usize>>,
}

impl Partition {
    fn new(sms: &[SmSnapshot], range: Range<usize>) -> Self {
        let healthy = sms[range.clone()]
            .iter()
            .any(|s| s.quarantined)
            .then(|| range.clone().filter(|&sm| !sms[sm].quarantined).collect());
        Self { range, healthy }
    }

    /// Number of in-service SMs.
    pub(crate) fn len(&self) -> usize {
        self.healthy.as_ref().map_or(self.range.len(), Vec::len)
    }

    /// The `i`-th in-service SM.
    pub(crate) fn sm(&self, i: usize) -> usize {
        self.healthy.as_ref().map_or(self.range.start + i, |h| h[i])
    }
}

impl KernelSchedulerPolicy for PartitionedScheduler {
    fn name(&self) -> &str {
        "partitioned"
    }

    fn assign(&mut self, view: &mut SchedulerView) {
        let n = view.num_sms();
        // Assignment never reorders or removes kernels, so the view's list
        // is indexed directly and no round copies ids or reserves.
        for head in 0..view.kernels().len() {
            let (reserve, start_sm) = {
                let attrs = &view.kernels()[head].attrs;
                (attrs.reserve, attrs.start_sm)
            };
            // Each group is served once, when its oldest kernel comes up.
            if view.kernels()[..head]
                .iter()
                .any(|k| k.attrs.reserve == reserve)
            {
                continue;
            }
            let range = reserve.map_or(0..n, |r| r.start.min(n)..(r.start + r.len).min(n));
            let part = Partition::new(view.sms(), range);
            if part.len() == 0 {
                continue; // nothing in service to place on: never spin
            }
            match start_sm {
                Some(start) => super::srrs::dispatch(view, head, start, &part),
                None => {
                    for ki in head..view.kernels().len() {
                        if view.kernels()[ki].attrs.reserve == reserve {
                            super::slice::fill(view, ki, &part);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{kernel, placed, sms, view};
    use higpu_sim::kernel::{KernelId, LaunchAttrs, SmSlice};
    use higpu_sim::partition::SmRange;

    fn reserve(start: usize, len: usize) -> Option<SmRange> {
        Some(SmRange { start, len })
    }

    /// An SRRS kernel confined to the reserve `[lo, lo + len)`.
    fn srrs_in(start: usize, lo: usize, len: usize) -> LaunchAttrs {
        LaunchAttrs {
            reserve: reserve(lo, len),
            start_sm: Some(start),
            ..Default::default()
        }
    }

    #[test]
    fn srrs_in_partition_round_robins_within_the_reserve_only() {
        let mut v = view(vec![kernel(0, 5, srrs_in(4, 3, 3))], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(
            placed(&v),
            vec![4, 5, 3, 4, 5],
            "round-robin over SMs 3..6 only"
        );

        // A start outside the reserve wraps into it.
        let mut v = view(vec![kernel(0, 3, srrs_in(7, 3, 3))], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(
            placed(&v),
            vec![4, 5, 3],
            "start 7 is offset 7 % 3 of [3..6)"
        );
    }

    #[test]
    fn srrs_in_partition_serializes_against_its_own_partition_not_the_device() {
        // Partition [0..3) is busy with a resident block; partition [3..6)
        // is idle. The [3..6) kernel must start regardless of the sibling's
        // residency, while a second [3..6) kernel waits for the first.
        let mut s = sms(6, 8);
        s[1].resident_blocks = 1; // sibling branch's block
        let mut v = view(
            vec![
                kernel(0, 2, srrs_in(3, 3, 3)),
                kernel(1, 2, srrs_in(4, 3, 3)),
            ],
            s,
        );
        PartitionedScheduler::new().assign(&mut v);
        assert!(
            v.assignments().iter().all(|a| a.kernel == KernelId(0)),
            "only the head kernel of the partition dispatches"
        );
        assert_eq!(v.assignments().len(), 2, "head fully placed: {v:?}");
        assert!(v.assignments().iter().all(|a| (3..6).contains(&a.sm)));
    }

    #[test]
    fn sliced_replicas_stay_in_their_sub_slice_of_the_reserve() {
        // A 3-SM partition at [3..6) cut into 2 sub-slices: replica 0 on
        // SM 3, replica 1 on SMs 4..6 — concurrent, disjoint.
        let sliced = |id, index| {
            kernel(
                id,
                3,
                LaunchAttrs {
                    reserve: reserve(3, 3),
                    slice: Some(SmSlice { index, of: 2 }),
                    ..Default::default()
                },
            )
        };
        let mut v = view(vec![sliced(0, 0), sliced(1, 1)], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(v.assignments().len(), 6, "both replicas fully placed");
        for a in v.assignments() {
            if a.kernel == KernelId(0) {
                assert_eq!(a.sm, 3, "sub-slice 0 of [3..6) is SM 3");
            } else {
                assert!((4..6).contains(&a.sm), "sub-slice 1 of [3..6)");
            }
        }
    }

    #[test]
    fn disjoint_partitions_dispatch_concurrently() {
        let mut v = view(
            vec![
                kernel(0, 2, srrs_in(0, 0, 3)),
                kernel(1, 2, srrs_in(3, 3, 3)),
            ],
            sms(6, 8),
        );
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(
            v.assignments().len(),
            4,
            "both partitions' heads dispatch in the same round"
        );
        for a in v.assignments() {
            if a.kernel == KernelId(0) {
                assert!(a.sm < 3);
            } else {
                assert!(a.sm >= 3, "no partition escape");
            }
        }
    }

    #[test]
    fn whole_device_srrs_fallback_places_around_quarantined_sms() {
        // No reserve (the inter-frame BIST canary case) on a device with a
        // quarantined SM: the round-robin rotates over the healthy SMs.
        let mut s = sms(6, 8);
        s[2].quarantined = true;
        let attrs = LaunchAttrs {
            start_sm: Some(0),
            ..Default::default()
        };
        let mut v = view(vec![kernel(0, 5, attrs)], s);
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(
            placed(&v),
            vec![0, 1, 3, 4, 5],
            "rotation skips the dead SM"
        );
    }

    #[test]
    fn unreserved_kernels_fall_back_to_whole_device_rules() {
        let mut v = view(vec![kernel(0, 6, LaunchAttrs::default())], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        let mut spread = placed(&v);
        spread.sort_unstable();
        assert_eq!(spread, vec![0, 1, 2, 3, 4, 5]);
    }
}
