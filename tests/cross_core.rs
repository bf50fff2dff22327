//! Cross-core validator: the event-queue core must be **bit-identical** to
//! the stepping oracle ([`higpu_sim::config::CoreKind`]).
//!
//! Every registered workload runs once per core with per-instruction issue
//! logging enabled; the two issue logs are then diffed record for record.
//! On divergence the failure message pinpoints the first differing issue
//! slot as (cycle, SM, warp) — the exact coordinates needed to replay the
//! stepping oracle up to the bug. Execution traces (block/kernel timings,
//! makespan) and aggregate statistics must match too: agreement on the
//! issue trace with disagreement in, say, cache counters would mean the
//! cores diverge somewhere the issue log cannot see.

use higpu_bench::matrix::full_registry;
use higpu_sim::config::{CoreKind, GpuConfig};
use higpu_sim::fault::{FaultCtx, FaultHook};
use higpu_sim::gpu::{DevPtr, DeviceSnapshot, Gpu, SimError};
use higpu_sim::kernel::{Dim3, KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use higpu_sim::sm::IssueRecord;
use higpu_sim::stats::SimStats;
use higpu_sim::trace::ExecutionTrace;
use higpu_workloads::session::{BufId, GpuSession, SParam, SessionError, SoloSession};
use higpu_workloads::{Scale, WorkloadRegistry};
use std::sync::Arc;

/// One core's complete observable behaviour for a workload run.
struct CoreRun {
    issues: Vec<IssueRecord>,
    trace: ExecutionTrace,
    stats: SimStats,
}

fn run_on_core(reg: &WorkloadRegistry, name: &str, core: CoreKind) -> CoreRun {
    let cfg = GpuConfig {
        core,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    let workload = reg
        .build(name, Scale::Campaign)
        .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
    {
        let mut session = SoloSession::new(&mut gpu);
        workload
            .run(&mut session)
            .unwrap_or_else(|e| panic!("workload '{name}' failed on {core:?}: {e:?}"));
    }
    CoreRun {
        issues: gpu.drain_issue_log(),
        trace: gpu.trace().clone(),
        stats: gpu.stats(),
    }
}

/// Diffs two issue logs and panics with the first-divergence coordinates.
fn assert_logs_identical(name: &str, oracle: &[IssueRecord], event: &[IssueRecord]) {
    let n = oracle.len().min(event.len());
    for i in 0..n {
        if oracle[i] != event[i] {
            panic!(
                "{name}: cores diverge at issue slot {i}: first divergence at \
                 cycle {} sm {} warp {} — stepping issued {:?}, event issued {:?}",
                oracle[i].cycle, oracle[i].sm, oracle[i].warp, oracle[i], event[i]
            );
        }
    }
    assert_eq!(
        oracle.len(),
        event.len(),
        "{name}: logs agree for {n} records, then one core issued more \
         (stepping {} vs event {}; first extra record: {:?})",
        oracle.len(),
        event.len(),
        if oracle.len() > event.len() {
            &oracle[n]
        } else {
            &event[n]
        }
    );
}

#[test]
fn every_registry_workload_is_bit_identical_across_cores() {
    let reg = full_registry();
    let names: Vec<String> = reg.names().iter().map(|n| n.to_string()).collect();
    assert!(
        names.len() >= 17,
        "registry shrank to {} workloads — the cross-core sweep lost coverage",
        names.len()
    );
    for name in &names {
        let oracle = run_on_core(&reg, name, CoreKind::Stepping);
        let event = run_on_core(&reg, name, CoreKind::Event);
        assert!(
            !oracle.issues.is_empty(),
            "{name}: stepping oracle issued nothing — the diff would be vacuous"
        );
        assert_logs_identical(name, &oracle.issues, &event.issues);
        assert_eq!(
            oracle.trace, event.trace,
            "{name}: identical issue logs but diverging execution traces"
        );
        assert_eq!(
            oracle.stats, event.stats,
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
/// aborts the host program, or (b) runs segments normally and aborts after
/// a given segment index — so a snapshotted run and a from-zero run can be
/// truncated at exactly the same host-program point and compared.
struct PausingSession<'g> {
    gpu: &'g mut Gpu,
    buffers: Vec<DevPtr>,
    pending: bool,
    /// Snapshot mode: pause-and-snapshot at this device cycle.
    pause_at: Option<u64>,
    /// Truncation mode: abort after this sync segment completes.
    stop_segment: Option<usize>,
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
    core: CoreKind,
    mode: impl FnOnce(&mut Gpu) -> PausingSession<'_>,
) -> (Option<(usize, u64, DeviceSnapshot)>, CoreRun) {
    let cfg = GpuConfig {
        core,
        ..GpuConfig::default()
    };
    let mut gpu = Gpu::new(cfg);
    gpu.set_issue_log(true);
    let workload = reg
        .build(name, Scale::Campaign)
        .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
    let snap = {
        let mut session = mode(&mut gpu);
        match workload.run(&mut session) {
            Ok(_) => {}
            Err(e) if e == abort_sentinel() => {}
            Err(e) => panic!("workload '{name}' failed on {core:?}: {e:?}"),
        }
        session.snap.take()
    };
    let run = CoreRun {
        issues: gpu.drain_issue_log(),
        trace: gpu.trace().clone(),
        stats: gpu.stats(),
    };
    (snap, run)
}

#[test]
fn mid_run_snapshot_restores_bit_identically_on_both_cores() {
    // The checkpoint fence: for every registry workload, snapshot the
    // device mid-run (half the fault-free makespan), finish the snapshot's
    // segment on BOTH cores from the restored state, and require the full
    // drained issue logs — restored prefix plus simulated suffix — to be
    // bit-identical to each other and to a from-zero run truncated at the
    // same host-program point.
    let reg = full_registry();
    let names: Vec<String> = reg.names().iter().map(|n| n.to_string()).collect();
    for name in &names {
        let full = run_on_core(&reg, name, CoreKind::Event);
        let makespan = full.trace.makespan().unwrap_or(0);
        assert!(makespan > 0, "{name}: empty run makes the fence vacuous");
        let mid = makespan / 2;

        let (snap, paused) = run_paused(&reg, name, CoreKind::Event, |gpu| {
            PausingSession::snapshotting(gpu, mid)
        });
        let (segment, snap_cycle, snap) =
            snap.unwrap_or_else(|| panic!("{name}: no mid-run snapshot at cycle {mid}"));

        // From-zero oracle truncated at the same segment, on the stepping
        // core (so the comparison spans both the pause machinery and the
        // core boundary).
        let (_, truncated) = run_paused(&reg, name, CoreKind::Stepping, |gpu| {
            PausingSession::truncating(gpu, segment)
        });
        assert_logs_identical(name, &truncated.issues, &paused.issues);
        assert_eq!(
            truncated.stats, paused.stats,
            "{name}: pausing to snapshot perturbed the run"
        );

        // Restore the snapshot onto a bare device of each core and finish
        // the segment; every observable must match the truncated oracle.
        for core in [CoreKind::Stepping, CoreKind::Event] {
            let mut gpu = Gpu::new(GpuConfig {
                core,
                ..GpuConfig::default()
            });
            gpu.restore(&snap);
            gpu.run_to_idle()
                .unwrap_or_else(|e| panic!("{name}: restored run failed on {core:?}: {e:?}"));
            let issues = gpu.drain_issue_log();
            assert!(
                issues.iter().any(|r| r.cycle >= snap_cycle),
                "{name}: restored {core:?} run simulated no suffix past cycle {snap_cycle}"
            );
            assert_logs_identical(name, &truncated.issues, &issues);
            assert_eq!(
                &truncated.trace,
                gpu.trace(),
                "{name}: restored {core:?} trace diverged"
            );
            assert_eq!(
                truncated.stats,
                gpu.stats(),
                "{name}: restored {core:?} stats diverged"
            );
        }
    }
}

/// A hook that never influences the run: the inert cutoff always fires.
struct Inert;

impl FaultHook for Inert {
    fn armed(&self, _ctx: &FaultCtx) -> bool {
        false
    }

    fn influenced(&self) -> bool {
        false
    }
}

#[test]
fn inert_cutoff_fires_at_the_same_cycle_on_both_cores() {
    // The early-exit contract across cores: with the cutoff armed mid-run,
    // both cores stop at the same cycle with identical issue logs, so an
    // exited trial is core-independent like every other trial.
    let reg = full_registry();
    for name in reg.names() {
        let makespan = run_on_core(&reg, name, CoreKind::Event)
            .trace
            .makespan()
            .unwrap_or(0);
        let cutoff = makespan / 2;
        let mut cuts = Vec::new();
        for core in [CoreKind::Stepping, CoreKind::Event] {
            let mut gpu = Gpu::new(GpuConfig {
                core,
                ..GpuConfig::default()
            });
            gpu.set_issue_log(true);
            gpu.set_fault_hook(Box::new(Inert));
            gpu.set_inert_cutoff(Some(cutoff));
            let workload = reg
                .build(name, Scale::Campaign)
                .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
            let err = workload
                .run(&mut SoloSession::new(&mut gpu))
                .expect_err("the cutoff precedes the makespan");
            let SessionError::Sim(SimError::InertFault { cycle }) = err else {
                panic!("{name} on {core:?}: expected an inert exit, got {err:?}");
            };
            assert!(
                (cutoff..=makespan).contains(&cycle),
                "{name} on {core:?}: exit at {cycle} outside [{cutoff}, {makespan}]"
            );
            cuts.push((cycle, gpu.drain_issue_log()));
        }
        assert_eq!(
            cuts[0].0, cuts[1].0,
            "{name}: the cutoff fired at different cycles on the two cores"
        );
        assert_logs_identical(name, &cuts[0].1, &cuts[1].1);
    }
}

#[test]
fn issue_log_is_cycle_sm_ordered() {
    // The diff above is only meaningful if the drained log has a canonical
    // order; verify the (cycle, sm) sort contract on a real workload.
    let reg = full_registry();
    let run = run_on_core(&reg, "pathfinder", CoreKind::Event);
    for w in run.issues.windows(2) {
        assert!(
            (w[0].cycle, w[0].sm) <= (w[1].cycle, w[1].sm),
            "issue log out of order: {:?} before {:?}",
            w[0],
            w[1]
        );
    }
}
