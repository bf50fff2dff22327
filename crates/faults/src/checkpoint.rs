//! Checkpointed fault trials: record a fault-free reference pass once,
//! then replay only each trial's corrupted suffix.
//!
//! A fault trial's device state is bit-identical to the fault-free run of
//! the same workload until the fault's [`FaultModel::arm_cycle`] — the
//! injector corrupts nothing before its window opens (and bumps no
//! counters), so every pre-arm cycle a campaign simulates is redundant
//! work. This module removes it:
//!
//! 1. [`record_reference`] runs the `(workload, policy, replicas)` cell
//!    fault-free **once**, pausing every [`CheckpointConfig::stride`]
//!    cycles to record a [`higpu_sim::gpu::DeviceSnapshot`], plus one
//!    snapshot at every sync-segment end.
//! 2. [`SuffixReplayer`] (installed per trial as a
//!    [`higpu_core::redundancy::SyncHook`]) skips whole segments that end
//!    before the trial's arm cycle by *restoring* their recorded end state
//!    instead of simulating them, fast-forwards the first live segment to
//!    the nearest checkpoint at or before the arm cycle, and simulates the
//!    corrupted suffix normally. Trials whose window never activates skip
//!    every segment and re-read the reference outputs from restored memory.
//!
//! The resulting [`crate::campaign::CampaignReport`] is bit-identical to
//! the from-zero engines at every worker count — enforced by the
//! determinism fences in [`crate::campaign`] — because restore-then-run is
//! bit-identical to running straight through (the `snapshot_restore` suite
//! in `higpu_sim`) and the deadline-monitor classification of skipped
//! segments reproduces the watchdog's exceed-iff-`end > limit` rule.

use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor, SyncHook};
use higpu_sim::gpu::{DeviceSnapshot, Gpu, SimError};
use higpu_telemetry::{EventKind, NO_SM};

use crate::campaign::{BusyIntervals, CampaignConfig};
use crate::model::FaultModel;
use crate::workload::RedundantWorkload;

use std::cell::RefCell;
use std::rc::Rc;

/// Checkpoint recording parameters of a campaign
/// ([`CampaignConfig::checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Cycles between intra-segment checkpoints of the reference pass.
    /// Smaller strides let trials fast-forward closer to their arm cycle at
    /// the cost of snapshot memory (one dirty-prefix memory image plus
    /// per-SM state each). Segment-end snapshots are always recorded.
    pub stride: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { stride: 4096 }
    }
}

/// One recorded mid-segment pause point of the reference pass.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Device clock at the pause: the first cycle the run loop visits at
    /// or after the previous pause (the segment's start, for the first)
    /// plus the stride ([`Gpu::run_to_cycle`]), so pauses drift later than
    /// the stride grid wherever the loop jumps idle stretches.
    cycle: u64,
    snap: DeviceSnapshot,
}

/// The recorded state of one sync segment of the reference pass.
#[derive(Debug, Clone)]
struct SegmentRef {
    /// Intra-segment checkpoints in strictly increasing cycle order.
    checkpoints: Vec<Checkpoint>,
    /// Device state at the segment's sync point (idle).
    end: DeviceSnapshot,
    /// Device clock at the sync point.
    end_cycle: u64,
}

/// The fault-free reference pass of one `(workload, policy, replicas)`
/// cell: per-segment snapshots every trial of that cell replays from.
///
/// `Send + Sync` (snapshots are plain data), so one recording is shared by
/// reference across all campaign workers.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    segments: Vec<SegmentRef>,
    busy: BusyIntervals,
}

impl ReferenceRun {
    /// The fault-free redundant makespan observed by the reference pass —
    /// pause points are transparent, so this equals
    /// [`crate::campaign::dry_run_makespan`] bit-for-bit and campaigns use
    /// it in place of a separate dry run.
    pub fn makespan(&self) -> u64 {
        self.busy.makespan()
    }

    /// The reference pass's per-SM busy intervals — equal to the dry
    /// run's ([`crate::campaign::dry_run_busy`]), since pause points are
    /// transparent.
    pub fn busy(&self) -> &BusyIntervals {
        &self.busy
    }

    /// Number of sync segments recorded.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Total snapshot memory, in bytes (approximate; for reports).
    pub fn approx_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| {
                s.end.approx_bytes()
                    + s.checkpoints
                        .iter()
                        .map(|c| c.snap.approx_bytes())
                        .sum::<usize>()
            })
            .sum()
    }
}

/// Recording [`SyncHook`]: runs each segment in `stride`-cycle slices,
/// snapshotting at every pause and at the segment end. Pauses are
/// transparent (restore-then-run equals run-straight-through), so the
/// recorded pass is bit-identical to a plain fault-free run.
struct SnapshotRecorder {
    stride: u64,
    out: Rc<RefCell<Vec<SegmentRef>>>,
}

impl SyncHook for SnapshotRecorder {
    fn on_sync(&mut self, gpu: &mut Gpu, segment: usize) -> Result<u64, SimError> {
        let mut checkpoints = Vec::new();
        loop {
            let target = gpu.cycle() + self.stride.max(1);
            if gpu.run_to_cycle(target)? {
                break;
            }
            gpu.record_event(
                EventKind::Snapshot,
                gpu.cycle(),
                NO_SM,
                segment as u64,
                checkpoints.len() as u64,
            );
            checkpoints.push(Checkpoint {
                cycle: gpu.cycle(),
                snap: gpu.snapshot(),
            });
        }
        let end_cycle = gpu.cycle();
        gpu.record_event(
            EventKind::Snapshot,
            end_cycle,
            NO_SM,
            segment as u64,
            checkpoints.len() as u64,
        );
        self.out.borrow_mut().push(SegmentRef {
            checkpoints,
            end: gpu.snapshot(),
            end_cycle,
        });
        Ok(end_cycle)
    }
}

/// Records the fault-free reference pass of `(workload, mode)` under
/// `cfg.gpu`, snapshotting every `stride` cycles and at each segment end.
///
/// # Errors
///
/// Propagates workload/protocol errors (the reference pass runs without a
/// watchdog, exactly like [`crate::campaign::dry_run_makespan`]).
pub fn record_reference(
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
    stride: u64,
) -> Result<ReferenceRun, RedundancyError> {
    let mut gpu = Gpu::new(cfg.gpu.clone());
    let out = Rc::new(RefCell::new(Vec::new()));
    let mut exec = RedundantExecutor::new(&mut gpu, mode.clone())?;
    exec.set_sync_hook(Box::new(SnapshotRecorder {
        stride,
        out: out.clone(),
    }));
    workload.run(&mut exec)?;
    drop(exec);
    let busy = BusyIntervals::from_trace(gpu.trace());
    let segments = Rc::try_unwrap(out)
        .expect("recorder dropped with the executor")
        .into_inner();
    Ok(ReferenceRun { segments, busy })
}

/// Replaying [`SyncHook`] of one fault trial: skips reference segments that
/// end before the trial's arm cycle by restoring their recorded end state,
/// fast-forwards the first live segment to the nearest checkpoint at or
/// before the arm cycle, then simulates the corrupted suffix normally.
///
/// The restore happens *at the skipped segment's own sync point*, so the
/// workload's next-segment allocations and launches land on the restored
/// base state exactly as they would mid-run from zero.
#[derive(Debug)]
pub struct SuffixReplayer<'r> {
    reference: &'r ReferenceRun,
    arm: u64,
    live: bool,
}

impl<'r> SuffixReplayer<'r> {
    /// A replayer for a trial of `model` against `reference`.
    pub fn new(reference: &'r ReferenceRun, model: FaultModel) -> Self {
        Self {
            reference,
            arm: model.arm_cycle(),
            live: false,
        }
    }
}

impl SyncHook for SuffixReplayer<'_> {
    fn on_sync(&mut self, gpu: &mut Gpu, segment: usize) -> Result<u64, SimError> {
        if !self.live {
            if let Some(seg) = self.reference.segments.get(segment) {
                if self.arm > seg.end_cycle {
                    // The fault cannot strike inside this segment (work can
                    // still issue — and be corrupted — at the end cycle
                    // itself, so the comparison is strict): skip it.
                    // The watchdog's rule is exceed-iff-`end > limit` (it
                    // fires at the first simulated cycle past the limit and
                    // a segment's last simulated cycle is its end), so the
                    // skip classifies deadline cuts identically to a
                    // from-zero run; only the error's cycle field — which
                    // campaigns ignore — differs.
                    if let Some(limit) = gpu.cycle_limit() {
                        if seg.end_cycle > limit {
                            return Err(SimError::DeadlineExceeded {
                                cycle: seg.end_cycle,
                                limit,
                            });
                        }
                    }
                    gpu.restore(&seg.end);
                    return Ok(seg.end_cycle);
                }
                // First segment the fault can reach: fast-forward to the
                // nearest fault-free checkpoint and simulate the suffix.
                // (If the limit precedes the checkpoint the watchdog fires
                // on entry, matching the from-zero classification.)
                self.live = true;
                if let Some(cp) = seg.checkpoints.iter().rev().find(|c| c.cycle <= self.arm) {
                    gpu.restore(&cp.snap);
                }
                return gpu.run_to_idle();
            }
            // Past the recorded segments (a workload syncing more often
            // than its reference pass would be a caller bug, but running
            // live is always correct).
            self.live = true;
        }
        gpu.run_to_idle()
    }
}
