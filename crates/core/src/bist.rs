//! Periodic built-in self-test of the global kernel scheduler
//! (paper Sec. IV-C).
//!
//! A fault in the kernel scheduler that merely *reduces diversity* (blocks
//! functionally correct but placed on unintended SMs) has no functional
//! effect and would become **latent** — a later core fault could then defeat
//! the redundancy undetected. The paper therefore requires the scheduler to
//! undergo periodic tests.
//!
//! [`scheduler_bist`] launches a redundant *canary* kernel in which every
//! block records the SM it actually ran on (via the `SmId` special
//! register), then cross-checks three sources: the policy's *expected*
//! placement, the execution *trace*, and the *memory* contents written by
//! the canary. Any disagreement reveals a scheduler (or trace) fault before
//! it can become latent.

use crate::policy::slice::healthy_slice;
use crate::policy::srrs::srrs_healthy_target;
use crate::redundancy::{RParam, RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_sim::builder::KernelBuilder;
use higpu_sim::gpu::Gpu;
use higpu_sim::isa::SpecialReg;
use higpu_sim::kernel::SmSlice;
use higpu_sim::program::Program;
use std::sync::Arc;

/// One placement disagreement found by the self-test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistMismatch {
    /// Replica index.
    pub replica: u8,
    /// Block index.
    pub block: u32,
    /// SM the policy mandated (`None` when the policy only constrains a
    /// set, e.g. HALF / SLICE slices).
    pub expected_sm: Option<usize>,
    /// SM recorded in the execution trace.
    pub trace_sm: usize,
    /// SM the canary kernel itself observed.
    pub observed_sm: usize,
}

/// Result of one scheduler self-test round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistReport {
    /// Block placements checked (blocks × replicas).
    pub checked: usize,
    /// Placement disagreements.
    pub mismatches: Vec<BistMismatch>,
}

impl BistReport {
    /// True when every placement matched the policy's mandate.
    pub fn passed(&self) -> bool {
        self.checked > 0 && self.mismatches.is_empty()
    }
}

/// Builds the canary program: each block stores the executing SM id at
/// `out[ctaid.x]`.
pub fn canary_program() -> Arc<Program> {
    let mut b = KernelBuilder::new("sched_bist_canary");
    let out = b.param(0);
    let ctaid = b.special(SpecialReg::CtaidX);
    let smid = b.special(SpecialReg::SmId);
    let addr = b.addr_w(out, ctaid);
    b.stg(addr, 0, smid);
    b.build().expect("canary is well-formed").into_shared()
}

/// Runs one scheduler self-test round under `mode`.
///
/// `blocks` canary blocks are launched per replica (use at least
/// `2 × num_sms` to exercise the round-robin wrap of SRRS).
///
/// # Errors
///
/// Propagates [`RedundancyError`] from the underlying protocol (the GPU must
/// be idle).
pub fn scheduler_bist(
    gpu: &mut Gpu,
    mode: RedundancyMode,
    blocks: u32,
) -> Result<BistReport, RedundancyError> {
    let num_sms = gpu.config().num_sms;
    // The expected placement mandates exactly what the (quarantine-aware)
    // scheduler does, by the scheduler's own rules: SRRS rotates over the
    // healthy SMs, SLICE carves its slices over the healthy index space. On
    // a fully healthy device this is the classic whole-device mapping.
    let healthy: Vec<usize> = (0..num_sms).filter(|&i| !gpu.is_quarantined(i)).collect();
    let mut exec = RedundantExecutor::new(gpu, mode.clone())?;
    let prog = canary_program();
    let out = exec.alloc_words(blocks)?;
    exec.launch(&prog, blocks, 32u32, 0, &[RParam::Buf(&out)])?;
    exec.sync()?;

    let replicas = exec.replicas() as usize;
    // Canary-observed SM per (replica, block).
    let observed: Vec<Vec<u32>> = (0..replicas)
        .map(|r| exec.gpu().read_u32(out.ptr(r), blocks as usize))
        .collect();

    let mut report = BistReport {
        checked: 0,
        mismatches: Vec::new(),
    };
    drop(exec);
    let trace = gpu.trace();
    // The BIST launch is the most recent redundancy group in the trace.
    let group = trace
        .kernels
        .iter()
        .filter_map(|k| k.attrs.redundant.map(|t| t.group))
        .max()
        .unwrap_or(0);
    for k in &trace.kernels {
        let Some(tag) = k.attrs.redundant else {
            continue;
        };
        if tag.group != group {
            continue;
        }
        let r = tag.replica as usize;
        for b in trace.blocks_of(k.id) {
            report.checked += 1;
            let expected = match &mode {
                RedundancyMode::Srrs { start_sms } => Some(srrs_healthy_target(
                    &healthy,
                    start_sms[r] % num_sms,
                    b.block as usize,
                )),
                RedundancyMode::Half | RedundancyMode::Slice { .. } => {
                    // The block's SM must be a healthy SM whose healthy
                    // index lies in the replica's slice (HALF is two
                    // slices).
                    let slice = SmSlice {
                        index: tag.replica,
                        of: mode.replicas(),
                    };
                    let range = healthy_slice(Some(slice), healthy.len());
                    match healthy.iter().position(|&sm| sm == b.sm) {
                        Some(hi) if range.contains(&hi) => None, // containment holds
                        _ => Some(
                            // any SM in range; report the first
                            healthy.get(range.start).copied().unwrap_or(num_sms),
                        ),
                    }
                }
                RedundancyMode::Uncontrolled { .. } => None,
            };
            let observed_sm = observed[r][b.block as usize] as usize;
            let placement_ok = expected.is_none_or(|e| e == b.sm);
            let sources_agree = observed_sm == b.sm;
            if !placement_ok || !sources_agree {
                report.mismatches.push(BistMismatch {
                    replica: tag.replica,
                    block: b.block,
                    expected_sm: expected,
                    trace_sm: b.sm,
                    observed_sm,
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;

    #[test]
    fn bist_passes_on_healthy_srrs_scheduler() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let report =
            scheduler_bist(&mut gpu, RedundancyMode::srrs_default(6), 12).expect("bist runs");
        assert!(report.passed(), "healthy scheduler: {report:?}");
        assert_eq!(report.checked, 24, "12 blocks x 2 replicas");
    }

    #[test]
    fn bist_passes_on_healthy_half_scheduler() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let report = scheduler_bist(&mut gpu, RedundancyMode::Half, 12).expect("bist runs");
        assert!(report.passed(), "healthy scheduler: {report:?}");
    }

    #[test]
    fn bist_passes_on_healthy_slice_scheduler_at_three_replicas() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let report = scheduler_bist(&mut gpu, RedundancyMode::slice(3), 6).expect("bist runs");
        assert!(report.passed(), "healthy scheduler: {report:?}");
        assert_eq!(report.checked, 18, "6 blocks x 3 replicas");
    }

    #[test]
    fn bist_passes_on_a_quarantined_device() {
        // The self-test's expected placement must track the quarantine-aware
        // rotation, or limp-home operation would flood every BIST round with
        // false alarms.
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        gpu.quarantine_sm(2);
        let report =
            scheduler_bist(&mut gpu, RedundancyMode::srrs_default(6), 12).expect("bist runs");
        assert!(report.passed(), "degraded SRRS placement: {report:?}");

        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        gpu.quarantine_sm(1);
        let report = scheduler_bist(&mut gpu, RedundancyMode::slice(3), 6).expect("bist runs");
        assert!(report.passed(), "degraded SLICE placement: {report:?}");
    }

    #[test]
    fn canary_blocks_report_their_sm() {
        // Indirect check: a passing BIST implies the canary's SmId readings
        // agreed with the trace for every block.
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let report =
            scheduler_bist(&mut gpu, RedundancyMode::srrs_default(6), 6).expect("bist runs");
        assert!(report.mismatches.is_empty());
    }

    #[test]
    fn empty_report_does_not_pass() {
        let r = BistReport {
            checked: 0,
            mismatches: Vec::new(),
        };
        assert!(!r.passed());
    }
}
