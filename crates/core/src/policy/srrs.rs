//! The SRRS (*Start, Round-Robin, Serial*) kernel scheduling rule
//! (paper Sec. IV-B1).
//!
//! SRRS enforces, by construction:
//!
//! 1. a kernel starts only when the GPU is **idle**;
//! 2. the SM receiving the **first** thread block is software-selected
//!    (the `start_sm` launch attribute);
//! 3. subsequent blocks are placed **round-robin** from the start SM —
//!    block *i* executes on SM `(start + i) mod n`, strictly in order;
//! 4. kernel execution is fully **serialized**: the next kernel (redundant
//!    copy or any other) starts only after the current one completes.
//!
//! With different start SMs for the two replicas, every redundant block pair
//! executes on different SMs at disjoint times, so neither a permanent SM
//! fault nor a transient common-cause fault (e.g. a voltage droop) can
//! corrupt both copies identically.
//!
//! [`super::PartitionedScheduler`] applies this rule to every kernel group
//! whose oldest kernel carries a `start_sm`, on the whole device or scoped
//! to a reserved SM partition (idle-start and serialization then hold per
//! partition).

use super::partitioned::Partition;
use higpu_sim::scheduler::SchedulerView;

/// The SM that receives block `i` of an SRRS kernel starting at `start`,
/// round-robining over the `healthy` SMs (ascending) only: the
/// `(pos(start) + i) mod h`-th healthy SM, where `pos(start)` is the index
/// of `start` among them, or of the first healthy SM after it (wrapping to
/// 0) when `start` itself is quarantined. Degenerates to the classic
/// `(start + i) mod n` on a fully healthy device. This single definition
/// is shared by the scheduler and the scheduler BIST's expected placement —
/// the self-test must mandate exactly what the policy does, or quarantine
/// would turn every BIST round into a false alarm.
///
/// # Panics
///
/// Panics when `healthy` is empty (nothing is placeable; callers gate on
/// effective capacity first).
pub fn srrs_healthy_target(healthy: &[usize], start: usize, i: usize) -> usize {
    let pos = healthy.iter().position(|&sm| sm >= start).unwrap_or(0);
    healthy[(pos + i) % healthy.len()]
}

/// Dispatches the group headed by kernel `head` (an index into the view's
/// kernels) under SRRS from `start` over `part`. A start outside the
/// partition wraps into it (`start % n` on the whole device).
pub(crate) fn dispatch(view: &mut SchedulerView, head: usize, start: usize, part: &Partition) {
    let range = &part.range;
    // Start condition: a kernel may only *begin* on an idle partition. Once
    // it has started it owns the partition (no other kernel of the group can
    // have resident blocks, by induction).
    if view.kernels()[head].blocks_issued == 0
        && view.sms()[range.clone()]
            .iter()
            .any(|s| s.resident_blocks > 0)
    {
        return;
    }
    let start = if range.contains(&start) {
        start
    } else {
        range.start + start % range.len()
    };
    let id = view.kernels()[head].id;
    // Strict in-order round-robin placement over the SMs still in service:
    // block i → the (pos(start)+i)-th healthy SM (the classic rotation
    // when nothing is quarantined). If the designated SM is full we wait
    // (head-of-line), preserving the deterministic block→SM mapping the
    // diversity argument relies on.
    loop {
        let k = &view.kernels()[head];
        if k.pending() == 0 {
            return;
        }
        let i = k.blocks_issued as usize;
        let sm = match &part.healthy {
            Some(h) => srrs_healthy_target(h, start, i),
            None => range.start + (start - range.start + i) % range.len(),
        };
        if !view.try_assign(sm, id) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::{kernel, placed, sms, view};
    use crate::policy::PartitionedScheduler;
    use higpu_sim::kernel::{KernelId, LaunchAttrs};
    use higpu_sim::scheduler::{KernelSchedulerPolicy, KernelSnapshot};

    /// A whole-device SRRS kernel starting at `start`.
    fn srrs(id: u64, blocks: u32, start: usize) -> KernelSnapshot {
        let attrs = LaunchAttrs {
            start_sm: Some(start),
            ..Default::default()
        };
        kernel(id, blocks, attrs)
    }

    #[test]
    fn blocks_follow_round_robin_from_start_sm() {
        let mut v = view(vec![srrs(0, 8, 2)], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(placed(&v), vec![2, 3, 4, 5, 0, 1, 2, 3]);

        // A start SM beyond the device wraps: start % n.
        let mut v = view(vec![srrs(0, 3, 11)], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(placed(&v), vec![5, 0, 1]);
    }

    #[test]
    fn second_kernel_waits_for_first() {
        let mut v = view(vec![srrs(0, 2, 0), srrs(1, 2, 3)], sms(6, 8));
        PartitionedScheduler::new().assign(&mut v);
        assert!(
            v.assignments().iter().all(|a| a.kernel == KernelId(0)),
            "only the head kernel is dispatched"
        );
        assert_eq!(v.assignments().len(), 2);
    }

    #[test]
    fn kernel_does_not_start_on_busy_gpu() {
        let mut s = sms(6, 8);
        s[4].resident_blocks = 1; // someone else's block still resident
        let mut v = view(vec![srrs(0, 2, 0)], s);
        PartitionedScheduler::new().assign(&mut v);
        assert!(v.assignments().is_empty(), "idle-start condition");
    }

    #[test]
    fn started_kernel_keeps_dispatching_even_while_gpu_busy() {
        let mut k = srrs(0, 4, 0);
        k.blocks_issued = 2; // already started: blocks 0,1 are resident
        let mut s = sms(6, 8);
        s[0].resident_blocks = 1;
        s[1].resident_blocks = 1;
        let mut v = view(vec![k], s);
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(placed(&v), vec![2, 3], "continues the round-robin sequence");
    }

    #[test]
    fn head_of_line_blocks_when_target_sm_full() {
        let mut s = sms(6, 8);
        s[1].free.blocks = 0; // SM1 has no block slot
        let mut v = view(vec![srrs(0, 6, 0)], s);
        PartitionedScheduler::new().assign(&mut v);
        assert_eq!(
            placed(&v),
            vec![0],
            "block 1 must go to SM1; placement stalls rather than reorder"
        );
    }

    #[test]
    fn round_robin_skips_quarantined_sms() {
        let mut s = sms(6, 8);
        s[3].quarantined = true;
        let mut v = view(vec![srrs(0, 8, 2)], s);
        PartitionedScheduler::new().assign(&mut v);
        // Healthy rotation [0,1,2,4,5] from SM 2: 2,4,5,0,1,2,4,5.
        assert_eq!(placed(&v), vec![2, 4, 5, 0, 1, 2, 4, 5]);
        assert!(!placed(&v).contains(&3), "no block on the quarantined SM");
    }

    #[test]
    fn quarantined_start_sm_falls_through_to_next_healthy() {
        let mut s = sms(6, 8);
        s[2].quarantined = true;
        let mut v = view(vec![srrs(0, 5, 2)], s);
        PartitionedScheduler::new().assign(&mut v);
        // Healthy [0,1,3,4,5]; start 2 resolves to SM 3.
        assert_eq!(placed(&v), vec![3, 4, 5, 0, 1]);
    }

    #[test]
    fn healthy_target_is_identity_on_a_healthy_device() {
        let healthy: Vec<usize> = (0..6).collect();
        for start in 0..6 {
            for i in 0..12 {
                assert_eq!(srrs_healthy_target(&healthy, start, i), (start + i) % 6);
            }
        }
    }
}
