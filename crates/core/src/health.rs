//! Permanent-fault diagnosis and SM quarantine decisions.
//!
//! Redundant execution *detects* faults; this module decides what the
//! fault said about the **hardware**. A transient (droop, particle strike)
//! leaves the device healthy — re-execution is the right response. A
//! permanent SM fault re-manifests every frame, so the only fail-operational
//! response is to *remove the SM from service* and re-plan around the
//! shrunken device (limp-home, see `higpu_pipeline::limp`).
//!
//! The diagnosis chain:
//!
//! 1. **Attribution** — with N ≥ 3 replicas, the minority replica of a
//!    [`crate::vote::VoteOutcome::Corrected`] vote identifies itself; its
//!    placement in the execution trace ([`replica_placement`]) names the
//!    suspect SMs. A DCLS tie (N = 2) cannot attribute — both replicas are
//!    equally suspect ([`minority_replicas`] returns `None`).
//! 2. **Confirmation** — unattributed or merely suspected SMs are probed by
//!    a targeted per-SM BIST sweep ([`sm_bist_sweep`]): a one-block canary
//!    pinned to the suspect stores the `SmId` register; a permanently
//!    faulty SM corrupts its own confession.
//! 3. **Decision** — the [`HealthMonitor`] accumulates per-SM suspicion and
//!    fires a quarantine only on *permanent* evidence or on suspicion
//!    crossing a threshold; transient evidence decays on clean frames.
//!    Unattributed evidence **never** quarantines — removing capacity on a
//!    coin-flip would be a safety regression, not a recovery.

use crate::policy::PartitionedScheduler;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::gpu::{Gpu, SimError};
use higpu_sim::isa::SpecialReg;
use higpu_sim::kernel::{KernelLaunch, LaunchConfig};
use higpu_sim::trace::ExecutionTrace;

/// Suspicion increments a single SM must accumulate before the monitor
/// recommends quarantine on circumstantial (non-permanent) evidence.
pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 3;

/// One piece of fault evidence, classified by how much it says about the
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// Confirmed permanent fault on `sm` (e.g. a failed [`sm_bist_sweep`]
    /// probe): quarantine immediately.
    Permanent {
        /// The convicted SM.
        sm: usize,
    },
    /// Circumstantial evidence against `sm` (e.g. the minority replica of a
    /// corrected vote ran there): accumulates toward the threshold.
    Suspect {
        /// The suspected SM.
        sm: usize,
    },
    /// A fault was detected but no SM can be named (a DCLS tie, a
    /// comparison mismatch with no trace). Never quarantines; escalate to
    /// a targeted [`sm_bist_sweep`] instead.
    Unattributed,
}

/// Per-SM health bookkeeping: accumulates [`Evidence`] and recommends
/// quarantines.
///
/// The monitor only *recommends*; the caller performs the actual
/// [`higpu_sim::gpu::Gpu::quarantine_sm`] so that the decision point stays
/// in the recovery driver (which must also re-plan budgets).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    /// Per-SM suspicion counters.
    suspicion: Vec<u32>,
    /// Quarantine threshold for circumstantial evidence.
    threshold: u32,
    /// Unattributed detections seen (fence counter: these must never turn
    /// into quarantines).
    unattributed: u64,
}

impl HealthMonitor {
    /// Creates a monitor for `num_sms` SMs with the
    /// [`DEFAULT_QUARANTINE_THRESHOLD`].
    pub fn new(num_sms: usize) -> Self {
        Self::with_threshold(num_sms, DEFAULT_QUARANTINE_THRESHOLD)
    }

    /// Creates a monitor with an explicit suspicion threshold (≥ 1).
    pub fn with_threshold(num_sms: usize, threshold: u32) -> Self {
        assert!(threshold >= 1, "a zero threshold would quarantine on air");
        Self {
            suspicion: vec![0; num_sms],
            threshold,
            unattributed: 0,
        }
    }

    /// Records one piece of evidence; returns `Some(sm)` when the monitor
    /// now recommends quarantining that SM.
    ///
    /// Permanent evidence convicts immediately. Suspicion accumulates and
    /// convicts at the threshold. Unattributed evidence is counted but
    /// **never** convicts — that is the fence the limp-home safety argument
    /// relies on.
    pub fn record(&mut self, ev: Evidence) -> Option<usize> {
        match ev {
            Evidence::Permanent { sm } => {
                assert!(sm < self.suspicion.len(), "evidence against nonexistent SM");
                self.suspicion[sm] = self.threshold;
                Some(sm)
            }
            Evidence::Suspect { sm } => {
                assert!(sm < self.suspicion.len(), "evidence against nonexistent SM");
                self.suspicion[sm] = (self.suspicion[sm] + 1).min(self.threshold);
                (self.suspicion[sm] >= self.threshold).then_some(sm)
            }
            Evidence::Unattributed => {
                self.unattributed += 1;
                None
            }
        }
    }

    /// Marks the end of a fault-free frame: transient suspicion decays by
    /// one. Permanent faults re-manifest every frame, so their suspicion is
    /// replenished faster than it decays; a one-off transient is forgotten.
    pub fn frame_clean(&mut self) {
        for s in &mut self.suspicion {
            *s = s.saturating_sub(1);
        }
    }

    /// Current suspicion against `sm`.
    pub fn suspicion(&self, sm: usize) -> u32 {
        self.suspicion.get(sm).copied().unwrap_or(0)
    }

    /// Unattributed detections recorded so far (none of which quarantined).
    pub fn unattributed(&self) -> u64 {
        self.unattributed
    }
}

/// Replica indices whose output disagrees with the voted value — the
/// minority of a corrected N ≥ 3 vote.
///
/// Returns `None` when attribution is impossible: fewer than three
/// replicas (a DCLS tie leaves both replicas equally suspect; escalate to
/// [`sm_bist_sweep`]) or mismatched lengths.
pub fn minority_replicas(outputs: &[&[u32]], voted: &[u32]) -> Option<Vec<usize>> {
    if outputs.len() < 3 || outputs.iter().any(|o| o.len() != voted.len()) {
        return None;
    }
    Some(
        outputs
            .iter()
            .enumerate()
            .filter(|(_, o)| **o != voted)
            .map(|(r, _)| r)
            .collect(),
    )
}

/// SMs on which replica `replica` of redundancy group `group` executed,
/// from the trace — maps a convicted minority replica back to its physical
/// placement (the suspect set for the [`HealthMonitor`]).
pub fn replica_placement(trace: &ExecutionTrace, group: u32, replica: u8) -> Vec<usize> {
    let mut sms: Vec<usize> = trace
        .kernels
        .iter()
        .filter(|k| {
            k.attrs
                .redundant
                .is_some_and(|t| t.group == group && t.replica == replica)
        })
        .flat_map(|k| trace.blocks_of(k.id).map(|b| b.sm))
        .collect();
    sms.sort_unstable();
    sms.dedup();
    sms
}

/// Probes each suspect SM with a one-block canary and returns the SMs that
/// failed the probe (confirmed permanent faults).
///
/// The canary stores the executing SM's `SmId` register; on a permanently
/// faulty SM the stored confession comes back corrupted, while a transient
/// whose window has passed leaves the probe clean — this is what separates
/// "re-execute" from "remove from service". The sweep installs the
/// diversity scheduler, whose SRRS rule pins each probe to its `start_sm`,
/// and leaves it installed; callers that need a different policy must
/// re-install it afterwards.
/// Already-quarantined and out-of-range suspects are skipped (the rotation
/// could not pin a canary to them).
///
/// # Errors
///
/// Propagates simulator errors (the GPU must be idle; device memory must
/// have a free word per probe).
pub fn sm_bist_sweep(gpu: &mut Gpu, suspects: &[usize]) -> Result<Vec<usize>, SimError> {
    let num_sms = gpu.config().num_sms;
    gpu.set_policy(Box::new(PartitionedScheduler::new()))?;

    let mut b = KernelBuilder::new("sm_bist_probe");
    let out = b.param(0);
    let smid = b.special(SpecialReg::SmId);
    let zero = b.mov(0u32);
    let addr = b.addr_w(out, zero);
    b.stg(addr, 0, smid);
    let prog = b.build().expect("probe is well-formed").into_shared();

    let mut convicted = Vec::new();
    for &sm in suspects {
        if sm >= num_sms || gpu.is_quarantined(sm) {
            continue;
        }
        let buf = gpu.alloc_words(1)?;
        // A probe that never runs must not read back as a pass.
        gpu.write_u32(buf, &[u32::MAX]);
        gpu.launch(
            KernelLaunch::new(
                prog.clone(),
                LaunchConfig::new(1u32, 32u32).param_u32(buf.0),
            )
            .tag(format!("sm_bist_probe:{sm}"))
            .start_sm(sm),
        )?;
        gpu.run_to_idle()?;
        if gpu.read_u32(buf, 1)[0] as usize != sm {
            convicted.push(sm);
        }
    }
    Ok(convicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::fault::{FaultCtx, FaultHook};

    #[test]
    fn permanent_evidence_convicts_immediately() {
        let mut m = HealthMonitor::new(6);
        assert_eq!(m.record(Evidence::Permanent { sm: 4 }), Some(4));
    }

    #[test]
    fn suspicion_accumulates_to_the_threshold() {
        let mut m = HealthMonitor::with_threshold(6, 3);
        assert_eq!(m.record(Evidence::Suspect { sm: 2 }), None);
        assert_eq!(m.record(Evidence::Suspect { sm: 2 }), None);
        assert_eq!(m.record(Evidence::Suspect { sm: 2 }), Some(2));
        assert_eq!(m.suspicion(2), 3);
        assert_eq!(m.suspicion(1), 0, "suspicion is per-SM");
    }

    #[test]
    fn unattributed_evidence_never_quarantines() {
        // Satellite fence: a DCLS tie cannot name a culprit, and the monitor
        // must never convert "somewhere, something" into a capacity loss.
        let mut m = HealthMonitor::with_threshold(6, 1);
        for _ in 0..100 {
            assert_eq!(m.record(Evidence::Unattributed), None);
        }
        assert_eq!(m.unattributed(), 100);
        assert!((0..6).all(|sm| m.suspicion(sm) == 0));
    }

    #[test]
    fn clean_frames_decay_transient_suspicion() {
        let mut m = HealthMonitor::with_threshold(6, 3);
        m.record(Evidence::Suspect { sm: 1 });
        m.record(Evidence::Suspect { sm: 1 });
        m.frame_clean();
        m.frame_clean();
        assert_eq!(m.suspicion(1), 0, "a one-off transient is forgotten");
        // A fault that re-manifests each frame outruns the decay.
        for _ in 0..3 {
            m.record(Evidence::Suspect { sm: 1 });
            m.frame_clean();
        }
        assert_eq!(
            m.record(Evidence::Suspect { sm: 1 }),
            None,
            "net +0 per clean frame keeps it below a threshold of 3"
        );
        m.record(Evidence::Suspect { sm: 1 });
        assert_eq!(m.record(Evidence::Suspect { sm: 1 }), Some(1));
    }

    #[test]
    fn minority_attribution_requires_three_replicas() {
        let a = [1u32, 2, 3];
        let b = [1u32, 9, 3];
        let voted = [1u32, 2, 3];
        assert_eq!(
            minority_replicas(&[&a, &b], &voted),
            None,
            "DCLS cannot attribute"
        );
        assert_eq!(
            minority_replicas(&[&a, &b, &a], &voted),
            Some(vec![1]),
            "the out-voted replica names itself"
        );
        assert_eq!(minority_replicas(&[&a, &a, &a], &voted), Some(vec![]));
    }

    #[test]
    fn replica_placement_reads_the_trace() {
        use higpu_sim::kernel::{BlockFootprint, KernelId, LaunchAttrs, RedundantTag};
        use higpu_sim::trace::{BlockRecord, KernelRecord};
        let mut t = ExecutionTrace::new();
        for (id, replica, sm) in [(0u64, 0u8, 1usize), (1, 1, 4), (1, 1, 5)] {
            t.kernels.push(KernelRecord {
                id: KernelId(id),
                program: "k".into(),
                attrs: LaunchAttrs {
                    redundant: Some(RedundantTag { group: 7, replica }),
                    ..Default::default()
                },
                launched: 0,
                arrival: 0,
                first_dispatch: Some(0),
                completion: Some(1),
                blocks: 1,
                footprint: BlockFootprint::default(),
            });
            t.blocks.push(BlockRecord {
                kernel: KernelId(id),
                block: 0,
                sm,
                start: 0,
                end: 1,
            });
        }
        assert_eq!(replica_placement(&t, 7, 1), vec![4, 5]);
        assert_eq!(replica_placement(&t, 7, 0), vec![1]);
        assert_eq!(replica_placement(&t, 8, 0), Vec::<usize>::new());
    }

    /// Permanently corrupts every value produced on one SM (test double for
    /// the `higpu_faults` permanent-SM model, which cannot be used here —
    /// that crate depends on this one).
    struct StuckSm {
        sm: usize,
    }

    impl FaultHook for StuckSm {
        fn armed(&self, ctx: &FaultCtx) -> bool {
            ctx.sm == self.sm
        }
        fn corrupt_value(&mut self, ctx: &FaultCtx, _lane: usize, value: u32) -> u32 {
            if ctx.sm == self.sm {
                value ^ 0x20
            } else {
                value
            }
        }
    }

    #[test]
    fn bist_sweep_convicts_the_permanently_faulty_sm() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        gpu.set_fault_hook(Box::new(StuckSm { sm: 3 }));
        let convicted = sm_bist_sweep(&mut gpu, &[0, 3, 5]).expect("sweep runs");
        assert_eq!(convicted, vec![3], "the probe's confession is corrupted");
    }

    #[test]
    fn bist_sweep_is_clean_on_a_healthy_device() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let convicted = sm_bist_sweep(&mut gpu, &[0, 1, 2, 3, 4, 5]).expect("sweep runs");
        assert!(convicted.is_empty(), "no false convictions: {convicted:?}");
    }

    #[test]
    fn bist_sweep_skips_quarantined_suspects() {
        // A quarantined SM can no longer host the canary; probing it would
        // misplace the block on a healthy SM and convict an innocent.
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        gpu.quarantine_sm(2);
        let convicted = sm_bist_sweep(&mut gpu, &[2, 4]).expect("sweep runs");
        assert!(convicted.is_empty(), "{convicted:?}");
    }
}
