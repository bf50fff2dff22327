//! Registry-wide run-loop fences. Every registered workload runs through
//! the simulator's single run loop, so in debug builds (tier-1) the loop's
//! per-step cross-checks — the arrival heap, pending-block mirror and wake
//! row against their exhaustive scans — see every workload's schedule.
//!
//! On top of those, each workload's observable behaviour must be invariant
//! under the loop's host-side interruptions: a run paused every few
//! hundred cycles and a run snapshotted mid-flight and finished on a bare
//! device must both agree with a straight run. Issue logs are diffed record for record; on divergence
//! the failure message pinpoints the first differing issue slot as
//! (cycle, SM, warp). Execution traces (block/kernel timings, makespan)
//! and aggregate statistics must match too: agreement on the issue trace
//! with disagreement in, say, cache counters would mean the runs diverge
//! somewhere the issue log cannot see.

use higpu_bench::matrix::full_registry;
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::{DevPtr, DeviceSnapshot, Gpu};
use higpu_sim::kernel::{Dim3, KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use higpu_sim::sm::IssueRecord;
use higpu_sim::stats::SimStats;
use higpu_sim::trace::ExecutionTrace;
use higpu_workloads::session::{BufId, GpuSession, SParam, SessionError, SoloSession};
use higpu_workloads::{Scale, WorkloadRegistry};
use std::sync::Arc;

/// One run's complete observable behaviour for a workload.
struct Observed {
    issues: Vec<IssueRecord>,
    trace: ExecutionTrace,
    stats: SimStats,
}

fn straight_run(reg: &WorkloadRegistry, name: &str) -> Observed {
    let mut gpu = Gpu::new(GpuConfig::default());
    gpu.set_issue_log(true);
    let workload = reg
        .build(name, Scale::Campaign)
        .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
    {
        let mut session = SoloSession::new(&mut gpu);
        workload
            .run(&mut session)
            .unwrap_or_else(|e| panic!("workload '{name}' failed: {e:?}"));
    }
    Observed {
        issues: gpu.drain_issue_log(),
        trace: gpu.trace().clone(),
        stats: gpu.stats(),
    }
}

/// Diffs two issue logs and panics with the first-divergence coordinates.
fn assert_logs_identical(name: &str, want: &[IssueRecord], got: &[IssueRecord]) {
    let n = want.len().min(got.len());
    for i in 0..n {
        if want[i] != got[i] {
            panic!(
                "{name}: runs diverge at issue slot {i}: first divergence at \
                 cycle {} sm {} warp {} — expected {:?}, got {:?}",
                want[i].cycle, want[i].sm, want[i].warp, want[i], got[i]
            );
        }
    }
    assert_eq!(
        want.len(),
        got.len(),
        "{name}: logs agree for {n} records, then one run issued more \
         (expected {} vs got {}; first extra record: {:?})",
        want.len(),
        got.len(),
        if want.len() > got.len() {
            &want[n]
        } else {
            &got[n]
        }
    );
}

#[test]
fn every_registry_workload_is_bit_identical_under_repeated_pauses() {
    let reg = full_registry();
    let names: Vec<String> = reg.names().iter().map(|n| n.to_string()).collect();
    assert!(
        names.len() >= 17,
        "registry shrank to {} workloads — the run-loop sweep lost coverage",
        names.len()
    );
    for name in &names {
        let straight = straight_run(&reg, name);
        assert!(
            !straight.issues.is_empty(),
            "{name}: the straight run issued nothing — the diff would be vacuous"
        );
        let stride = (straight.trace.makespan().unwrap_or(0) / 16).max(1);
        let (_, paused) = run_paused(&reg, name, |gpu| PausingSession::pausing_every(gpu, stride));
        assert_logs_identical(name, &straight.issues, &paused.issues);
        assert_eq!(
            straight.trace, paused.trace,
            "{name}: identical issue logs but diverging execution traces"
        );
        assert_eq!(
            straight.stats, paused.stats,
            "{name}: identical issue logs but diverging statistics"
        );
    }
}

/// The sentinel a [`PausingSession`] raises to stop the workload's host
/// program once the segment of interest has completed.
fn abort_sentinel() -> SessionError {
    SessionError::ReplicaMismatch {
        first_word: usize::MAX,
    }
}

/// A [`SoloSession`]-shaped session that either (a) pauses the device at a
/// target cycle mid-segment, snapshots it, finishes that segment and then
/// aborts the host program, (b) runs segments normally and aborts after
/// a given segment index — so a snapshotted run and a from-zero run can be
/// truncated at exactly the same host-program point and compared — or
/// (c) runs every segment as a chain of `stride`-cycle pauses.
struct PausingSession<'g> {
    gpu: &'g mut Gpu,
    buffers: Vec<DevPtr>,
    pending: bool,
    /// Snapshot mode: pause-and-snapshot at this device cycle.
    pause_at: Option<u64>,
    /// Truncation mode: abort after this sync segment completes.
    stop_segment: Option<usize>,
    /// Stride mode: pause every this many cycles.
    stride: Option<u64>,
    segment: usize,
    snap: Option<(usize, u64, DeviceSnapshot)>,
}

impl<'g> PausingSession<'g> {
    fn snapshotting(gpu: &'g mut Gpu, pause_at: u64) -> Self {
        Self {
            gpu,
            buffers: Vec::new(),
            pending: false,
            pause_at: Some(pause_at),
            stop_segment: None,
            stride: None,
            segment: 0,
            snap: None,
        }
    }

    fn truncating(gpu: &'g mut Gpu, stop_segment: usize) -> Self {
        Self {
            gpu,
            buffers: Vec::new(),
            pending: false,
            pause_at: None,
            stop_segment: Some(stop_segment),
            stride: None,
            segment: 0,
            snap: None,
        }
    }

    fn pausing_every(gpu: &'g mut Gpu, stride: u64) -> Self {
        Self {
            gpu,
            buffers: Vec::new(),
            pending: false,
            pause_at: None,
            stop_segment: None,
            stride: Some(stride),
            segment: 0,
            snap: None,
        }
    }
}

impl GpuSession for PausingSession<'_> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        let ptr = self.gpu.alloc_words(words)?;
        self.buffers.push(ptr);
        Ok(BufId::from_index(self.buffers.len() - 1))
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        self.gpu.write_u32(self.buffers[buf.index()], data);
        Ok(())
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        self.gpu.write_f32(self.buffers[buf.index()], data);
        Ok(())
    }

    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError> {
        let mut cfg = LaunchConfig::new(grid, block).shared_mem(shared_mem_bytes);
        for p in params {
            cfg = match *p {
                SParam::Buf(b) => cfg.param_u32(self.buffers[b.index()].0),
                SParam::BufOffset(b, w) => cfg.param_u32(self.buffers[b.index()].offset_words(w).0),
                SParam::U32(v) => cfg.param_u32(v),
                SParam::I32(v) => cfg.param_i32(v),
                SParam::F32(v) => cfg.param_f32(v),
            };
        }
        self.gpu
            .launch(KernelLaunch::new(program.clone(), cfg).tag(program.name().to_string()))?;
        self.pending = true;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        if !self.pending {
            return Ok(());
        }
        if self.snap.is_none() {
            if let Some(target) = self.pause_at {
                let idle = self.gpu.run_to_cycle(target)?;
                if !idle {
                    self.snap = Some((self.segment, self.gpu.cycle(), self.gpu.snapshot()));
                }
            }
        }
        if let Some(stride) = self.stride {
            while !self.gpu.run_to_cycle(self.gpu.cycle() + stride)? {}
        }
        self.gpu.run_to_idle()?;
        self.pending = false;
        let segment = self.segment;
        self.segment += 1;
        let done_snapshotting = self.snap.as_ref().is_some_and(|(s, _, _)| *s == segment);
        if done_snapshotting || self.stop_segment == Some(segment) {
            return Err(abort_sentinel());
        }
        Ok(())
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        self.sync()?;
        Ok(self.gpu.read_u32(self.buffers[buf.index()], words))
    }
}

/// Runs `name` under a [`PausingSession`] (either mode); the abort sentinel
/// is expected and swallowed, any other error is a real failure.
fn run_paused(
    reg: &WorkloadRegistry,
    name: &str,
    mode: impl FnOnce(&mut Gpu) -> PausingSession<'_>,
) -> (Option<(usize, u64, DeviceSnapshot)>, Observed) {
    let mut gpu = Gpu::new(GpuConfig::default());
    gpu.set_issue_log(true);
    let workload = reg
        .build(name, Scale::Campaign)
        .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
    let snap = {
        let mut session = mode(&mut gpu);
        match workload.run(&mut session) {
            Ok(_) => {}
            Err(e) if e == abort_sentinel() => {}
            Err(e) => panic!("workload '{name}' failed: {e:?}"),
        }
        session.snap.take()
    };
    let run = Observed {
        issues: gpu.drain_issue_log(),
        trace: gpu.trace().clone(),
        stats: gpu.stats(),
    };
    (snap, run)
}

#[test]
fn mid_run_snapshot_restores_bit_identically() {
    // The checkpoint fence: for every registry workload, snapshot the
    // device mid-run (half the fault-free makespan), finish the snapshot's
    // segment from the restored state on a bare device, and require the
    // full drained issue log — restored prefix plus simulated suffix — to
    // be bit-identical to a from-zero run truncated at the same
    // host-program point.
    let reg = full_registry();
    let names: Vec<String> = reg.names().iter().map(|n| n.to_string()).collect();
    for name in &names {
        let full = straight_run(&reg, name);
        let makespan = full.trace.makespan().unwrap_or(0);
        assert!(makespan > 0, "{name}: empty run makes the fence vacuous");
        let mid = makespan / 2;

        let (snap, paused) = run_paused(&reg, name, |gpu| PausingSession::snapshotting(gpu, mid));
        let (segment, snap_cycle, snap) =
            snap.unwrap_or_else(|| panic!("{name}: no mid-run snapshot at cycle {mid}"));

        // From-zero oracle truncated at the same segment.
        let (_, truncated) = run_paused(&reg, name, |gpu| PausingSession::truncating(gpu, segment));
        assert_logs_identical(name, &truncated.issues, &paused.issues);
        assert_eq!(
            truncated.stats, paused.stats,
            "{name}: pausing to snapshot perturbed the run"
        );

        // Restore the snapshot onto a bare device and finish the segment;
        // every observable must match the truncated oracle.
        let mut gpu = Gpu::new(GpuConfig::default());
        gpu.restore(&snap);
        gpu.run_to_idle()
            .unwrap_or_else(|e| panic!("{name}: restored run failed: {e:?}"));
        let issues = gpu.drain_issue_log();
        assert!(
            issues.iter().any(|r| r.cycle >= snap_cycle),
            "{name}: restored run simulated no suffix past cycle {snap_cycle}"
        );
        assert_logs_identical(name, &truncated.issues, &issues);
        assert_eq!(
            &truncated.trace,
            gpu.trace(),
            "{name}: restored trace diverged"
        );
        assert_eq!(
            truncated.stats,
            gpu.stats(),
            "{name}: restored stats diverged"
        );
    }
}

#[test]
fn issue_log_is_cycle_sm_ordered() {
    // The diff above is only meaningful if the drained log has a canonical
    // order; verify the (cycle, sm) sort contract on a real workload.
    let reg = full_registry();
    let run = straight_run(&reg, "pathfinder");
    for w in run.issues.windows(2) {
        assert!(
            (w[0].cycle, w[0].sm) <= (w[1].cycle, w[1].sm),
            "issue log out of order: {:?} before {:?}",
            w[0],
            w[1]
        );
    }
}
