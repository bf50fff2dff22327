//! The SLICE kernel scheduling rule, which also runs HALF (paper
//! Sec. IV-B2).
//!
//! SLICE statically partitions the SMs into N balanced contiguous slices
//! and confines replica *r* to slice *r* (the `slice` launch attribute):
//!
//! * **spatial diversity** is structural — slices are disjoint, so no two
//!   replicas can ever share an SM;
//! * **temporal diversity** follows from the serial dispatch of kernels
//!   from the CPU: replica *r* always starts at least one dispatch gap
//!   before replica *r+1*, and shared-resource contention preserves (never
//!   inverts) that slack (the paper's HALF argument).
//!
//! Unlike SRRS, all N replicas execute **concurrently**, each on
//! `num_sms / N` SMs, which is why it suits *friendly* kernels that cannot
//! profitably use more SMs anyway. The paper's HALF policy is SLICE with
//! N = 2: replica 0 on the lower half, replica 1 on the upper half (on an
//! odd SM count the upper half gets the extra SM, see
//! [`higpu_sim::kernel::SmSlice`]).
//!
//! [`super::PartitionedScheduler`] applies this rule to every kernel group
//! whose oldest kernel carries no `start_sm`, on the whole device or on the
//! sub-slices of a reserved SM partition. A kernel without a `slice`
//! (non-redundant work) may use the group's whole range.

use super::partitioned::Partition;
use higpu_sim::kernel::SmSlice;
use higpu_sim::scheduler::SchedulerView;
use std::ops::Range;

/// The healthy indices a kernel may fill among the `healthy` in-service SMs
/// of its range: its `slice` of them, or all of them without one.
///
/// Slices are carved over the *healthy* index space. On a fully healthy
/// range this is the identity (slice r owns `slice.range(n)`), while after
/// a quarantine the N slices rebalance over the remaining SMs: every
/// replica keeps a disjoint share instead of the slice containing the dead
/// SM silently shrinking (or vanishing). The scheduler places by this rule
/// and the scheduler BIST checks placements against it.
pub(crate) fn healthy_slice(slice: Option<SmSlice>, healthy: usize) -> Range<usize> {
    slice.map_or(0..healthy, |s| s.range(healthy))
}

/// Fills kernel `ki` (an index into the view's kernels) breadth-first over
/// its slice of `part`. A slice that owns no SM (more slices than SMs in
/// service) places nothing and never spins.
pub(crate) fn fill(view: &mut SchedulerView, ki: usize, part: &Partition) {
    let k = &view.kernels()[ki];
    let id = k.id;
    let range = healthy_slice(k.attrs.slice, part.len());
    loop {
        let mut any = false;
        for i in range.clone() {
            any |= view.try_assign(part.sm(i), id);
        }
        if !any {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::testing::{kernel, sms, view};
    use crate::policy::PartitionedScheduler;
    use higpu_sim::kernel::{KernelId, LaunchAttrs, SmSlice};
    use higpu_sim::scheduler::{KernelSchedulerPolicy, KernelSnapshot};

    /// A whole-device kernel confined to `slice`.
    fn sliced(id: u64, blocks: u32, slice: Option<SmSlice>) -> KernelSnapshot {
        let attrs = LaunchAttrs {
            slice,
            ..Default::default()
        };
        kernel(id, blocks, attrs)
    }

    fn slice(index: u8, of: u8) -> Option<SmSlice> {
        Some(SmSlice { index, of })
    }

    /// One kernel per slice of `of`, each with `blocks` blocks.
    fn replicas(of: u8, blocks: u32) -> Vec<KernelSnapshot> {
        (0..of)
            .map(|r| sliced(u64::from(r), blocks, slice(r, of)))
            .collect()
    }

    #[test]
    fn three_slices_are_respected_and_concurrent() {
        // N = 2 is HALF, N = 3 the TMR slicing: one assign places every
        // replica in full (no serialization), each inside its own slice.
        for of in [2u8, 3] {
            let mut v = view(replicas(of, 4), sms(6, 8));
            PartitionedScheduler::new().assign(&mut v);
            for a in v.assignments() {
                let expected = SmSlice {
                    index: a.kernel.0 as u8,
                    of,
                };
                assert!(
                    expected.contains(a.sm, 6),
                    "of={of}: kernel {:?} escaped its slice onto SM {}",
                    a.kernel,
                    a.sm
                );
            }
            assert_eq!(
                v.assignments().len(),
                4 * usize::from(of),
                "of={of}: all replicas fully placed"
            );
        }
    }

    #[test]
    fn unsliced_kernels_use_whole_gpu() {
        // Alone, or launched next to a HALF pair or a TMR triple that each
        // hold one block slot per SM of their slice: the unhinted kernel
        // spreads over all six SMs.
        for of in [0u8, 2, 3] {
            let mut kernels = if of == 0 {
                Vec::new()
            } else {
                replicas(of, 6 / u32::from(of))
            };
            kernels.push(sliced(9, 6, None));
            let slots = if of == 0 { 1 } else { 2 };
            let mut v = view(kernels, sms(6, slots));
            PartitionedScheduler::new().assign(&mut v);
            let mut spread: Vec<usize> = v
                .assignments()
                .iter()
                .filter(|a| a.kernel == KernelId(9))
                .map(|a| a.sm)
                .collect();
            spread.sort_unstable();
            assert_eq!(spread, vec![0, 1, 2, 3, 4, 5], "of={of}");
        }
    }

    #[test]
    fn slice_capacity_limits_each_replica() {
        // One block slot per SM: each replica gets at most its slice's SM
        // count resident (3 under HALF, 2 under 3 slices).
        for of in [2u8, 3] {
            let mut v = view(replicas(of, 8), sms(6, 1));
            PartitionedScheduler::new().assign(&mut v);
            for id in 0..u64::from(of) {
                let placed = v
                    .assignments()
                    .iter()
                    .filter(|a| a.kernel == KernelId(id))
                    .count();
                assert_eq!(placed, 6 / usize::from(of), "of={of} kernel {id}");
            }
        }
    }

    #[test]
    fn empty_slice_never_spins() {
        // 7 slices on 6 SMs: slice 0 of 7 owns no SM (0*6/7..1*6/7 = 0..0).
        let mut v = view(vec![sliced(0, 2, slice(0, 7))], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert!(v.assignments().is_empty(), "nothing placeable");
    }

    #[test]
    fn slices_rebalance_over_healthy_sms_after_quarantine() {
        // SM 1 quarantined on a 6-SM device: slices are carved over the 5
        // healthy SMs [0,2,3,4,5] — slice 0 of 2 owns healthy indices 0..2
        // (SMs 0,2), slice 1 of 2 owns 2..5 (SMs 3,4,5). Disjoint, no block
        // on the dead SM, and both replicas keep a non-empty share.
        let mut s = sms(6, 8);
        s[1].quarantined = true;
        let mut v = view(
            vec![sliced(0, 4, slice(0, 2)), sliced(1, 4, slice(1, 2))],
            s,
        );
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(v.assignments().len(), 8, "both replicas fully placed");
        for a in v.assignments() {
            assert_ne!(a.sm, 1, "no block on the quarantined SM");
            if a.kernel == KernelId(0) {
                assert!([0, 2].contains(&a.sm), "slice 0 over healthy SMs");
            } else {
                assert!([3, 4, 5].contains(&a.sm), "slice 1 over healthy SMs");
            }
        }
    }

    #[test]
    fn half_puts_replica_0_on_the_lower_and_replica_1_on_the_upper_half() {
        // HALF is SLICE@2. On an odd SM count the upper half gets the extra
        // SM: 0..3 | 3..6 on six SMs, 0..2 | 2..5 on five.
        for (n, lower_end) in [(6usize, 3usize), (5, 2)] {
            let mut v = view(replicas(2, 6), sms(n, 8));
            PartitionedScheduler::new().assign(&mut v);
            assert_eq!(v.assignments().len(), 12, "n={n}");
            for a in v.assignments() {
                let upper = a.kernel == KernelId(1);
                assert_eq!(a.sm >= lower_end, upper, "n={n}: {a:?}");
            }
        }
    }
}
