//! The global kernel scheduler interface.
//!
//! The paper's core proposal is to make this component policy-controlled:
//! which SM receives each thread block, and when kernels may start. The
//! simulator invokes the installed [`KernelSchedulerPolicy`] only when
//! scheduling state changes (launch, kernel arrival, block completion,
//! cancel, quarantine, a fault-hook reroute); the policy inspects a
//! [`SchedulerView`] and commits block-to-SM assignments through
//! [`SchedulerView::try_assign`].
//!
//! [`DefaultScheduler`] models the undisclosed COTS behaviour the paper
//! baselines against: breadth-first, greedy, oldest-kernel-first, with no
//! diversity guarantees. SRRS and HALF live in the `higpu-core` crate.

use crate::kernel::{BlockFootprint, KernelId, LaunchAttrs};
use crate::sm::ResourceUsage;
use std::sync::Arc;

/// Immutable facts about one launched-and-unfinished kernel.
#[derive(Debug, Clone)]
pub struct KernelSnapshot {
    /// Kernel identifier (monotonic in launch order).
    pub id: KernelId,
    /// Scheduling attributes from the launch (shared, so building a
    /// snapshot every scheduling round stays allocation-free).
    pub attrs: Arc<LaunchAttrs>,
    /// Cycle the kernel became visible to the GPU front-end.
    pub arrival: u64,
    /// Total thread blocks in the grid.
    pub blocks_total: u32,
    /// Blocks dispatched to SMs so far (including commitments made through
    /// the current view).
    pub blocks_issued: u32,
    /// Blocks that have completed execution.
    pub blocks_done: u32,
    /// Per-block resource footprint.
    pub footprint: BlockFootprint,
}

impl KernelSnapshot {
    /// Blocks not yet dispatched.
    pub fn pending(&self) -> u32 {
        self.blocks_total - self.blocks_issued
    }

    /// Blocks dispatched but not yet completed.
    pub fn running(&self) -> u32 {
        self.blocks_issued - self.blocks_done
    }

    /// True once every block has completed.
    pub fn is_finished(&self) -> bool {
        self.blocks_done == self.blocks_total
    }
}

/// Free capacity of one SM as seen by the policy (updated as the policy
/// commits assignments).
#[derive(Debug, Clone, Copy)]
pub struct SmSnapshot {
    /// Remaining capacity.
    pub free: ResourceUsage,
    /// Blocks currently resident (including commitments in this view).
    pub resident_blocks: u32,
    /// True when the SM is quarantined ([`crate::gpu::Gpu::quarantine_sm`]).
    /// A quarantined SM never fits any block, but policies that rotate over
    /// SMs (SRRS) need the distinction from "temporarily full": a full SM is
    /// waited on head-of-line, a quarantined one is skipped permanently.
    pub quarantined: bool,
}

impl SmSnapshot {
    /// True if a block with footprint `fp` fits in the remaining capacity.
    /// Always false on a quarantined SM.
    pub fn fits(&self, fp: &BlockFootprint) -> bool {
        !self.quarantined
            && fp.threads <= self.free.threads
            && fp.warps <= self.free.warps
            && fp.registers <= self.free.registers
            && fp.shared_mem <= self.free.shared_mem
            && self.free.blocks >= 1
    }
}

/// A block-to-SM assignment committed by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Kernel whose next pending block is dispatched.
    pub kernel: KernelId,
    /// Destination SM.
    pub sm: usize,
}

/// The scheduling state handed to a policy, with transactional assignment.
#[derive(Debug)]
pub struct SchedulerView {
    cycle: u64,
    kernels: Vec<KernelSnapshot>,
    sms: Vec<SmSnapshot>,
    assignments: Vec<Assignment>,
}

impl SchedulerView {
    /// Builds a view (called by the GPU each scheduling round).
    pub fn new(cycle: u64, kernels: Vec<KernelSnapshot>, sms: Vec<SmSnapshot>) -> Self {
        Self::from_parts(cycle, kernels, sms, Vec::new())
    }

    /// Builds a view over caller-provided buffers. `kernels` and `sms` are
    /// consumed as the view's *contents* (the caller fills them with this
    /// round's snapshots); `assignments` is an *output* buffer whose stale
    /// contents are cleared here and whose capacity is reused. The GPU's
    /// scheduling round passes warm scratch vectors (recovered with
    /// [`SchedulerView::into_parts`]) so steady-state rounds perform zero
    /// heap allocations.
    pub fn from_parts(
        cycle: u64,
        kernels: Vec<KernelSnapshot>,
        sms: Vec<SmSnapshot>,
        mut assignments: Vec<Assignment>,
    ) -> Self {
        assignments.clear();
        Self {
            cycle,
            kernels,
            sms,
            assignments,
        }
    }

    /// Consumes the view, yielding all three buffers (snapshots and the
    /// committed assignments) so their capacity can be reused next round.
    pub fn into_parts(self) -> (Vec<KernelSnapshot>, Vec<SmSnapshot>, Vec<Assignment>) {
        (self.kernels, self.sms, self.assignments)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Kernels visible to the scheduler, in arrival order.
    pub fn kernels(&self) -> &[KernelSnapshot] {
        &self.kernels
    }

    /// SM capacity snapshots.
    pub fn sms(&self) -> &[SmSnapshot] {
        &self.sms
    }

    /// Blocks resident across all SMs (including commitments in this view).
    pub fn total_resident_blocks(&self) -> u32 {
        self.sms.iter().map(|s| s.resident_blocks).sum()
    }

    /// True when the GPU is completely idle (no resident blocks anywhere and
    /// nothing committed in this view) — the SRRS start condition.
    pub fn gpu_idle(&self) -> bool {
        self.total_resident_blocks() == 0
    }

    /// True if `kernel`'s next block fits on `sm` right now.
    pub fn fits(&self, sm: usize, kernel: KernelId) -> bool {
        let Some(k) = self.kernels.iter().find(|k| k.id == kernel) else {
            return false;
        };
        k.pending() > 0 && self.sms[sm].fits(&k.footprint)
    }

    /// Commits the next pending block of `kernel` to `sm`, updating the view
    /// capacity. Returns `false` (with no effect) if the kernel has no
    /// pending block or the block does not fit.
    pub fn try_assign(&mut self, sm: usize, kernel: KernelId) -> bool {
        let Some(k) = self.kernels.iter_mut().find(|k| k.id == kernel) else {
            return false;
        };
        if k.pending() == 0 || !self.sms[sm].fits(&k.footprint) {
            return false;
        }
        let fp = k.footprint;
        k.blocks_issued += 1;
        let s = &mut self.sms[sm];
        s.free.threads -= fp.threads;
        s.free.warps -= fp.warps;
        s.free.registers -= fp.registers;
        s.free.shared_mem -= fp.shared_mem;
        s.free.blocks -= 1;
        s.resident_blocks += 1;
        self.assignments.push(Assignment { kernel, sm });
        true
    }

    /// The assignments committed so far.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assignments
    }

    /// Consumes the view, yielding the committed assignments.
    pub fn into_assignments(self) -> Vec<Assignment> {
        self.assignments
    }
}

/// A global kernel-scheduling policy.
///
/// Implementations decide, at every scheduling round, which pending thread
/// blocks are dispatched to which SMs. They may keep internal state across
/// rounds (e.g. round-robin cursors, serialization gates) but must meet
/// the [`KernelSchedulerPolicy::assign`] contract and be restartable via
/// [`KernelSchedulerPolicy::reset`].
pub trait KernelSchedulerPolicy {
    /// Short policy name for traces and reports.
    fn name(&self) -> &str;

    /// Commits zero or more assignments on `view`.
    ///
    /// Contract: a round over the view the previous round left behind (its
    /// assignments applied, nothing completed or arrived in between)
    /// assigns nothing. Policies that fill the view to a fixpoint and keep
    /// no state between rounds, like [`DefaultScheduler`] and the
    /// workspace's `PartitionedScheduler`, meet it by construction. The
    /// run loop relies on it: it runs a round only after an event changed
    /// the view (see [`crate::gpu::Gpu::run_until`]), so a policy that
    /// withholds work from a view it will later fill sees that view again
    /// only when the device goes quiescent.
    fn assign(&mut self, view: &mut SchedulerView);

    /// Clears internal state (called when the GPU is reset between
    /// experiments).
    fn reset(&mut self) {}

    /// Serializes any internal state evolved across scheduling rounds into
    /// `out` (device snapshots capture this so a restored run replays the
    /// identical dispatch decisions). Stateless policies — every policy in
    /// this workspace derives its decisions from the per-round view alone —
    /// keep the default no-op.
    fn save_state(&self, _out: &mut Vec<u64>) {}

    /// Restores state previously written by
    /// [`KernelSchedulerPolicy::save_state`]. The installed policy must be
    /// of the same kind that produced `state`.
    fn load_state(&mut self, _state: &[u64]) {}
}

/// The baseline COTS scheduler: breadth-first over SMs, oldest kernel first,
/// no diversity control. Mirrors the unconstrained GPGPU-Sim default the
/// paper compares against.
///
/// Placement is deterministic from SM 0, as in GPGPU-Sim's block issuer —
/// which is exactly why uncontrolled redundancy lacks diversity: two
/// identical kernels launched back-to-back receive the *same* block→SM
/// mapping, so a permanent SM fault can corrupt both copies identically.
#[derive(Debug, Default)]
pub struct DefaultScheduler {
    _private: (),
}

impl DefaultScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KernelSchedulerPolicy for DefaultScheduler {
    fn name(&self) -> &str {
        "default"
    }

    fn assign(&mut self, view: &mut SchedulerView) {
        let n = view.num_sms();
        if n == 0 {
            return;
        }
        // Breadth-first rounds: one block per SM per round, oldest kernel
        // with a fitting pending block first.
        loop {
            let mut any = false;
            for sm in 0..n {
                let kid = view
                    .kernels()
                    .iter()
                    .find(|k| k.pending() > 0 && view.sms()[sm].fits(&k.footprint))
                    .map(|k| k.id);
                if let Some(kid) = kid {
                    any |= view.try_assign(sm, kid);
                }
            }
            if !any {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchAttrs;

    fn fp(threads: u32) -> BlockFootprint {
        BlockFootprint {
            threads,
            warps: threads.div_ceil(32),
            registers: threads,
            shared_mem: 0,
        }
    }

    fn sm_snapshot(threads: u32, blocks: u32) -> SmSnapshot {
        SmSnapshot {
            free: ResourceUsage {
                threads,
                warps: threads.div_ceil(32).max(blocks * 8),
                registers: threads * 32,
                shared_mem: 48 * 1024,
                blocks,
            },
            resident_blocks: 0,
            quarantined: false,
        }
    }

    fn kernel(id: u64, blocks: u32, threads: u32) -> KernelSnapshot {
        KernelSnapshot {
            id: KernelId(id),
            attrs: Arc::new(LaunchAttrs::default()),
            arrival: 0,
            blocks_total: blocks,
            blocks_issued: 0,
            blocks_done: 0,
            footprint: fp(threads),
        }
    }

    #[test]
    fn try_assign_updates_capacity_and_records() {
        let mut v = SchedulerView::new(
            0,
            vec![kernel(0, 2, 128)],
            vec![sm_snapshot(256, 8), sm_snapshot(256, 8)],
        );
        assert!(v.try_assign(0, KernelId(0)));
        assert!(v.try_assign(0, KernelId(0)));
        assert!(!v.try_assign(0, KernelId(0)), "no pending blocks left");
        assert_eq!(v.assignments().len(), 2);
        assert_eq!(v.sms()[0].free.threads, 0);
        assert_eq!(v.total_resident_blocks(), 2);
        assert!(!v.gpu_idle());
    }

    #[test]
    fn try_assign_rejects_overflow() {
        let mut v = SchedulerView::new(0, vec![kernel(0, 4, 200)], vec![sm_snapshot(256, 8)]);
        assert!(v.try_assign(0, KernelId(0)));
        assert!(!v.try_assign(0, KernelId(0)), "200+200 > 256 threads");
    }

    #[test]
    fn default_scheduler_spreads_breadth_first() {
        let mut v = SchedulerView::new(
            0,
            vec![kernel(0, 4, 128)],
            vec![sm_snapshot(256, 8), sm_snapshot(256, 8)],
        );
        let mut pol = DefaultScheduler::new();
        pol.assign(&mut v);
        let a = v.assignments();
        assert_eq!(a.len(), 4, "all blocks placed");
        let on0 = a.iter().filter(|x| x.sm == 0).count();
        let on1 = a.iter().filter(|x| x.sm == 1).count();
        assert_eq!(on0, 2);
        assert_eq!(on1, 2);
    }

    #[test]
    fn default_scheduler_runs_concurrent_kernels() {
        // Kernel 0 has one block; kernel 1 should fill the remaining space.
        let mut v = SchedulerView::new(
            0,
            vec![kernel(0, 1, 128), kernel(1, 3, 128)],
            vec![sm_snapshot(256, 8), sm_snapshot(256, 8)],
        );
        let mut pol = DefaultScheduler::new();
        pol.assign(&mut v);
        let a = v.assignments();
        assert_eq!(a.len(), 4);
        assert!(a.iter().any(|x| x.kernel == KernelId(1)));
    }

    #[test]
    fn idle_detection() {
        let v = SchedulerView::new(0, vec![], vec![sm_snapshot(256, 8)]);
        assert!(v.gpu_idle());
        let mut sm = sm_snapshot(256, 8);
        sm.resident_blocks = 1;
        let v = SchedulerView::new(0, vec![], vec![sm]);
        assert!(!v.gpu_idle());
    }

    #[test]
    fn quarantined_sm_never_fits_and_is_skipped() {
        let mut healthy = sm_snapshot(256, 8);
        healthy.quarantined = true;
        assert!(!healthy.fits(&fp(32)), "quarantined SM fits nothing");

        let mut bad = sm_snapshot(256, 8);
        bad.quarantined = true;
        let mut v = SchedulerView::new(0, vec![kernel(0, 4, 128)], vec![bad, sm_snapshot(256, 8)]);
        let mut pol = DefaultScheduler::new();
        pol.assign(&mut v);
        let a = v.assignments();
        assert_eq!(a.len(), 2, "only the healthy SM admits blocks");
        assert!(a.iter().all(|x| x.sm == 1));
    }

    #[test]
    fn snapshot_accounting() {
        let mut k = kernel(0, 10, 64);
        k.blocks_issued = 7;
        k.blocks_done = 3;
        assert_eq!(k.pending(), 3);
        assert_eq!(k.running(), 4);
        assert!(!k.is_finished());
        k.blocks_done = 10;
        k.blocks_issued = 10;
        assert!(k.is_finished());
    }
}
