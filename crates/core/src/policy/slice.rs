//! The SLICE kernel scheduling policy, which also runs HALF (paper
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

use higpu_sim::scheduler::{KernelSchedulerPolicy, SchedulerView};

/// The SLICE policy.
///
/// Kernels carrying an [`higpu_sim::kernel::SmSlice`] attribute are
/// confined to that slice; kernels without the attribute (non-redundant
/// work) may use the whole GPU.
#[derive(Debug, Clone, Default)]
pub struct SliceScheduler {
    _private: (),
}

impl SliceScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KernelSchedulerPolicy for SliceScheduler {
    fn name(&self) -> &str {
        "slice"
    }

    fn assign(&mut self, view: &mut SchedulerView) {
        let n = view.num_sms();
        if n == 0 {
            return;
        }
        // Slices are carved over the *healthy* SM index space: on a fully
        // healthy device this is the identity (slice r owns slice.range(n)),
        // while after a quarantine the N slices re-balance over the
        // remaining SMs — every replica keeps a disjoint share instead of
        // the slice containing the dead SM silently shrinking (or vanishing).
        // The healthy-SM list is only materialized once an SM has actually
        // been quarantined, as in SRRS: steady-state scheduling on a healthy
        // device must not allocate it.
        let healthy = if view.sms().iter().any(|s| s.quarantined) {
            let h = crate::policy::srrs::healthy_sms(view.sms());
            if h.is_empty() {
                return;
            }
            Some(h)
        } else {
            None
        };
        let h = healthy.as_ref().map_or(n, Vec::len);
        // Kernels in arrival order; each fills its allowed SM range
        // breadth-first. Assignment never reorders or removes kernels, so
        // indexing the view's list needs no copy of their ids.
        for ki in 0..view.kernels().len() {
            let k = &view.kernels()[ki];
            let id = k.id;
            let range = match k.attrs.slice {
                Some(slice) => slice.range(h),
                None => 0..h,
            };
            if range.is_empty() {
                continue; // more slices than healthy SMs: unplaceable, never spin
            }
            loop {
                let mut any = false;
                for hi in range.clone() {
                    let sm = healthy.as_ref().map_or(hi, |v| v[hi]);
                    any |= view.try_assign(sm, id);
                }
                if !any {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::kernel::{BlockFootprint, KernelId, LaunchAttrs, SmSlice};
    use higpu_sim::scheduler::{KernelSnapshot, SmSnapshot};
    use higpu_sim::sm::ResourceUsage;

    fn fp() -> BlockFootprint {
        BlockFootprint {
            threads: 64,
            warps: 2,
            registers: 64,
            shared_mem: 0,
        }
    }

    fn sm_free(block_slots: u32) -> SmSnapshot {
        SmSnapshot {
            free: ResourceUsage {
                threads: 1536,
                warps: 48,
                registers: 32 * 1024,
                shared_mem: 48 * 1024,
                blocks: block_slots,
            },
            resident_blocks: 0,
            quarantined: false,
        }
    }

    fn kernel(id: u64, blocks: u32, slice: Option<SmSlice>) -> KernelSnapshot {
        KernelSnapshot {
            id: KernelId(id),
            attrs: std::sync::Arc::new(LaunchAttrs {
                slice,
                ..Default::default()
            }),
            arrival: 0,
            blocks_total: blocks,
            blocks_issued: 0,
            blocks_done: 0,
            footprint: fp(),
        }
    }

    fn slice(index: u8, of: u8) -> Option<SmSlice> {
        Some(SmSlice { index, of })
    }

    /// One kernel per slice of `of`, each with `blocks` blocks.
    fn replicas(of: u8, blocks: u32) -> Vec<KernelSnapshot> {
        (0..of)
            .map(|r| kernel(u64::from(r), blocks, slice(r, of)))
            .collect()
    }

    #[test]
    fn three_slices_are_respected_and_concurrent() {
        // N = 2 is HALF, N = 3 the TMR slicing: one assign places every
        // replica in full (no serialization), each inside its own slice.
        for of in [2u8, 3] {
            let mut view =
                SchedulerView::new(0, replicas(of, 4), (0..6).map(|_| sm_free(8)).collect());
            SliceScheduler::new().assign(&mut view);
            for a in view.assignments() {
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
                view.assignments().len(),
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
            kernels.push(kernel(9, 6, None));
            let slots = if of == 0 { 1 } else { 2 };
            let mut view = SchedulerView::new(0, kernels, (0..6).map(|_| sm_free(slots)).collect());
            SliceScheduler::new().assign(&mut view);
            let mut sms: Vec<usize> = view
                .assignments()
                .iter()
                .filter(|a| a.kernel == KernelId(9))
                .map(|a| a.sm)
                .collect();
            sms.sort_unstable();
            assert_eq!(sms, vec![0, 1, 2, 3, 4, 5], "of={of}");
        }
    }

    #[test]
    fn slice_capacity_limits_each_replica() {
        // One block slot per SM: each replica gets at most its slice's SM
        // count resident (3 under HALF, 2 under 3 slices).
        for of in [2u8, 3] {
            let mut view =
                SchedulerView::new(0, replicas(of, 8), (0..6).map(|_| sm_free(1)).collect());
            SliceScheduler::new().assign(&mut view);
            for id in 0..u64::from(of) {
                let placed = view
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
        let mut view = SchedulerView::new(
            0,
            vec![kernel(0, 2, slice(0, 7))],
            (0..6).map(|_| sm_free(8)).collect(),
        );
        SliceScheduler::new().assign(&mut view);
        assert!(view.assignments().is_empty(), "nothing placeable");
    }

    #[test]
    fn slices_rebalance_over_healthy_sms_after_quarantine() {
        // SM 1 quarantined on a 6-SM device: slices are carved over the 5
        // healthy SMs [0,2,3,4,5] — slice 0 of 2 owns healthy indices 0..2
        // (SMs 0,2), slice 1 of 2 owns 2..5 (SMs 3,4,5). Disjoint, no block
        // on the dead SM, and both replicas keep a non-empty share.
        let mut sms: Vec<SmSnapshot> = (0..6).map(|_| sm_free(8)).collect();
        sms[1].quarantined = true;
        let mut view = SchedulerView::new(
            0,
            vec![kernel(0, 4, slice(0, 2)), kernel(1, 4, slice(1, 2))],
            sms,
        );
        SliceScheduler::new().assign(&mut view);
        assert_eq!(view.assignments().len(), 8, "both replicas fully placed");
        for a in view.assignments() {
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
            let mut view =
                SchedulerView::new(0, replicas(2, 6), (0..n).map(|_| sm_free(8)).collect());
            SliceScheduler::new().assign(&mut view);
            assert_eq!(view.assignments().len(), 12, "n={n}");
            for a in view.assignments() {
                let upper = a.kernel == KernelId(1);
                assert_eq!(a.sm >= lower_end, upper, "n={n}: {a:?}");
            }
        }
    }
}
