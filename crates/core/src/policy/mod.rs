//! The paper's global kernel-scheduler policies and policy selection.
//!
//! Kernel classification (see [`crate::classify`]) happens at system analysis
//! time; the most convenient policy is then selected per kernel before
//! deployment (paper Sec. IV-D): SRRS for *short* and *heavy* kernels, HALF
//! for *friendly* kernels.
//!
//! One scheduler, [`PartitionedScheduler`], runs every diversity policy.
//! Its behaviour comes only from the launch attributes: a kernel group
//! whose oldest kernel carries a `start_sm` follows the SRRS rule
//! ([`srrs`]), any other group the SLICE rule ([`slice`]; HALF is two
//! slices), on the whole device or inside a reserved SM partition
//! ([`partitioned`]). The uncontrolled baseline is the simulator's
//! [`DefaultScheduler`].

pub mod partitioned;
pub mod slice;
pub mod srrs;

pub use partitioned::PartitionedScheduler;

use higpu_sim::scheduler::{DefaultScheduler, KernelSchedulerPolicy};

/// The scheduling policies evaluated in the paper, plus the SLICE
/// N-replica generalization of HALF used for N-modular redundancy sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Unconstrained COTS baseline (GPGPU-Sim default).
    Default,
    /// Start / Round-Robin / Serial.
    Srrs,
    /// Static SM halving (SLICE with two slices).
    Half,
    /// Static N-way SM slicing (HALF generalized to N replicas).
    Slice,
    /// SLICE with a droop-aware per-replica start skew: the same static
    /// N-way slicing, but replica *r*'s launch is held back `r × skew`
    /// cycles (skew > the worst-case common-cause-fault duration), so a
    /// voltage droop can never strike the same computation point in two
    /// concurrent replicas — the fix for the `nw × droop` vulnerability of
    /// plain SLICE. The skew is applied at launch time (see
    /// [`crate::redundancy::RedundancyMode::slice_skewed_default`]);
    /// the placement is plain SLICE.
    SliceSkewed,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn KernelSchedulerPolicy> {
        match self {
            PolicyKind::Default => Box::new(DefaultScheduler::new()),
            PolicyKind::Srrs | PolicyKind::Half | PolicyKind::Slice | PolicyKind::SliceSkewed => {
                Box::new(PartitionedScheduler::new())
            }
        }
    }

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Default => "GPGPU-SIM",
            PolicyKind::Srrs => "SRRS",
            PolicyKind::Half => "HALF",
            PolicyKind::Slice => "SLICE",
            PolicyKind::SliceSkewed => "SLICE+SKEW",
        }
    }

    /// The paper's three policies, in the order the paper plots them
    /// (SLICE, being a post-paper NMR generalization, is not included —
    /// see [`PolicyKind::all_extended`]).
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Default, PolicyKind::Half, PolicyKind::Srrs]
    }

    /// Every policy: the paper's three plus SLICE and its droop-aware
    /// skewed variant.
    pub fn all_extended() -> [PolicyKind; 5] {
        [
            PolicyKind::Default,
            PolicyKind::Half,
            PolicyKind::Srrs,
            PolicyKind::Slice,
            PolicyKind::SliceSkewed,
        ]
    }

    /// True for the policies that guarantee diverse redundancy.
    pub fn guarantees_diversity(self) -> bool {
        matches!(
            self,
            PolicyKind::Srrs | PolicyKind::Half | PolicyKind::Slice | PolicyKind::SliceSkewed
        )
    }

    /// The policy that realizes this one at `replicas` replicas, or `None`
    /// when no generalization exists:
    ///
    /// * `Default` — the unconstrained GPGPU-SIM baseline, modelled at any
    ///   replica count (the frontier's baseline column);
    /// * `Half` — exactly two replicas by construction; at N > 2 it
    ///   generalizes to `Slice`;
    /// * `Srrs` / `Slice` / `SliceSkewed` — N-replica-capable as-is.
    ///
    /// Replica sweeps (`higpu_bench::matrix`) use this to map the paper's
    /// policy axis onto each replica count.
    pub fn for_replicas(self, replicas: u8) -> Option<PolicyKind> {
        match self {
            PolicyKind::Default => Some(PolicyKind::Default),
            PolicyKind::Half => Some(if replicas == 2 {
                PolicyKind::Half
            } else {
                PolicyKind::Slice
            }),
            PolicyKind::Srrs => Some(PolicyKind::Srrs),
            PolicyKind::Slice => Some(PolicyKind::Slice),
            PolicyKind::SliceSkewed => Some(PolicyKind::SliceSkewed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_matching_names() {
        // The launch attributes, not the scheduler, tell the diverse
        // policies apart.
        assert_eq!(PolicyKind::Default.build().name(), "default");
        for p in PolicyKind::all_extended() {
            if p.guarantees_diversity() {
                assert_eq!(p.build().name(), "partitioned", "{p:?}");
            }
        }
    }

    #[test]
    fn diversity_guarantees() {
        assert!(!PolicyKind::Default.guarantees_diversity());
        assert!(PolicyKind::Srrs.guarantees_diversity());
        assert!(PolicyKind::Half.guarantees_diversity());
        assert!(PolicyKind::Slice.guarantees_diversity());
        assert!(PolicyKind::SliceSkewed.guarantees_diversity());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::Default.label(), "GPGPU-SIM");
        assert_eq!(PolicyKind::Half.label(), "HALF");
        assert_eq!(PolicyKind::Srrs.label(), "SRRS");
        assert_eq!(PolicyKind::Slice.label(), "SLICE");
        assert_eq!(PolicyKind::SliceSkewed.label(), "SLICE+SKEW");
    }

    #[test]
    fn replica_mapping_keeps_paper_policies_at_two_and_generalizes_above() {
        for p in PolicyKind::all() {
            assert_eq!(p.for_replicas(2), Some(p), "{p:?} unchanged at N=2");
        }
        assert_eq!(
            PolicyKind::Default.for_replicas(3),
            Some(PolicyKind::Default),
            "the uncontrolled baseline column exists at every N"
        );
        assert_eq!(PolicyKind::Half.for_replicas(3), Some(PolicyKind::Slice));
        assert_eq!(PolicyKind::Srrs.for_replicas(3), Some(PolicyKind::Srrs));
        assert_eq!(PolicyKind::Slice.for_replicas(5), Some(PolicyKind::Slice));
        assert_eq!(
            PolicyKind::SliceSkewed.for_replicas(3),
            Some(PolicyKind::SliceSkewed)
        );
        assert!(PolicyKind::all_extended().contains(&PolicyKind::Slice));
        assert!(PolicyKind::all_extended().contains(&PolicyKind::SliceSkewed));
    }
}

/// Snapshot builders shared by the scheduler tests of this module's rules.
#[cfg(test)]
pub(crate) mod testing {
    use higpu_sim::kernel::{BlockFootprint, KernelId, LaunchAttrs};
    use higpu_sim::scheduler::{KernelSnapshot, SchedulerView, SmSnapshot};
    use higpu_sim::sm::ResourceUsage;

    /// A two-warp, 64-thread block.
    fn fp() -> BlockFootprint {
        BlockFootprint {
            threads: 64,
            warps: 2,
            registers: 64,
            shared_mem: 0,
        }
    }

    /// `n` idle, healthy SMs with `block_slots` free block slots each.
    pub(crate) fn sms(n: usize, block_slots: u32) -> Vec<SmSnapshot> {
        let free = SmSnapshot {
            free: ResourceUsage {
                threads: 1536,
                warps: 48,
                registers: 32 * 1024,
                shared_mem: 48 * 1024,
                blocks: block_slots,
            },
            resident_blocks: 0,
            quarantined: false,
        };
        vec![free; n]
    }

    /// A kernel not started yet, with `blocks` blocks of [`fp`].
    pub(crate) fn kernel(id: u64, blocks: u32, attrs: LaunchAttrs) -> KernelSnapshot {
        KernelSnapshot {
            id: KernelId(id),
            attrs: std::sync::Arc::new(attrs),
            arrival: 0,
            blocks_total: blocks,
            blocks_issued: 0,
            blocks_done: 0,
            footprint: fp(),
        }
    }

    /// A scheduling round over `kernels` and `sms` at cycle 0.
    pub(crate) fn view(kernels: Vec<KernelSnapshot>, sms: Vec<SmSnapshot>) -> SchedulerView {
        SchedulerView::new(0, kernels, sms)
    }

    /// The SMs the round assigned, in assignment order.
    pub(crate) fn placed(view: &SchedulerView) -> Vec<usize> {
        view.assignments().iter().map(|a| a.sm).collect()
    }
}
