//! Where the overlapped executor runs each stage's host program, and what
//! a panicking program looks like from the caller.
//!
//! A lone stage (no other branch running, nothing else ready) runs on the
//! executor thread, which is the caller's; only branches that overlap a
//! sibling get worker threads. A host program's own panic reaches the
//! caller on both transports.

use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::policy_mode;
use higpu_pipeline::{
    plan, run_pipeline, FrameOptions, Pipeline, PipelinePlan, PipelineRun, StageStatus,
};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_workloads::synthetic::IteratedFma;
use higpu_workloads::{
    GpuSession, SessionError, StageInputs, StageProgram, Tolerance, Workload, WorkloadStage,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

/// Every host-program run: (stage name, thread it ran on).
type Log = Arc<Mutex<Vec<(&'static str, ThreadId)>>>;

/// A small synthetic source stage that logs the thread of every run.
#[derive(Debug)]
struct Recorded {
    name: &'static str,
    inner: WorkloadStage,
    log: Log,
}

impl StageProgram for Recorded {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(
        &self,
        session: &mut dyn GpuSession,
        inputs: StageInputs<'_>,
    ) -> Result<Vec<u32>, SessionError> {
        self.log
            .lock()
            .expect("log")
            .push((self.name, thread::current().id()));
        self.inner.run(session, inputs)
    }

    fn reference(&self, inputs: StageInputs<'_>) -> Vec<u32> {
        self.inner.reference(inputs)
    }

    fn tolerance(&self) -> Tolerance {
        self.inner.tolerance()
    }
}

/// A stage whose host program allocates a buffer, then panics.
#[derive(Debug)]
struct Boom;

impl StageProgram for Boom {
    fn name(&self) -> &'static str {
        "boom"
    }

    fn run(
        &self,
        session: &mut dyn GpuSession,
        _inputs: StageInputs<'_>,
    ) -> Result<Vec<u32>, SessionError> {
        session.alloc_words(16)?;
        panic!("boom");
    }

    fn reference(&self, _inputs: StageInputs<'_>) -> Vec<u32> {
        Vec::new()
    }

    fn tolerance(&self) -> Tolerance {
        IteratedFma::campaign().tolerance()
    }
}

fn gpu_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::wide_10sm();
    cfg.global_mem_bytes = 2 * 1024 * 1024;
    cfg
}

/// `(name, deps)` stages in order; `boom` names the stage that panics
/// (none when `None`).
fn build(stages: &[(&'static str, &[usize])], boom: Option<&str>, log: &Log) -> Pipeline {
    let mut p = Pipeline::new("threads");
    for &(name, deps) in stages {
        let program: Box<dyn StageProgram> = if boom == Some(name) {
            Box::new(Boom)
        } else {
            Box::new(Recorded {
                name,
                inner: WorkloadStage::new(Box::new(IteratedFma::campaign())),
                log: log.clone(),
            })
        };
        p.add_stage(name, program, deps);
    }
    p
}

/// Calibrates the pipeline's plan (with no stage panicking) and empties
/// the log of the calibration runs.
fn calibrate(stages: &[(&'static str, &[usize])], log: &Log) -> PipelinePlan {
    let mode = policy_mode(PolicyKind::Srrs, 2, gpu_cfg().num_sms).expect("mode");
    let frame_plan = plan(&gpu_cfg(), &build(stages, None, log), &mode).expect("calibration");
    log.lock().expect("log").clear();
    frame_plan
}

fn frame(p: &Pipeline, frame_plan: &PipelinePlan) -> PipelineRun {
    let mode = policy_mode(PolicyKind::Srrs, 2, gpu_cfg().num_sms).expect("mode");
    run_pipeline(
        &mut Gpu::new(gpu_cfg()),
        p,
        &mode,
        frame_plan,
        FrameOptions::overlapped(),
    )
    .expect("frame")
}

const CHAIN: &[(&str, &[usize])] = &[("a", &[]), ("b", &[0]), ("c", &[1])];
const DIAMOND: &[(&str, &[usize])] = &[("a", &[]), ("b", &[]), ("c", &[0, 1]), ("d", &[2])];

#[test]
fn chain_attempts_run_on_the_callers_thread_retries_included() {
    let log = Log::default();
    let mut frame_plan = calibrate(CHAIN, &log);
    // Cut the last stage below its makespan: it is retried once, then
    // exhausts its retries.
    frame_plan.ftti.stage_budgets[2] = frame_plan.stage_makespans[2] / 2;
    let run = frame(&build(CHAIN, None, &log), &frame_plan);
    let c = run.timing_of(2).expect("c ran");
    assert_eq!(c.attempts, 2);
    assert!(matches!(c.status, StageStatus::FailStop(_)), "{c:?}");

    let me = thread::current().id();
    let log = log.lock().expect("log");
    assert_eq!(
        *log,
        vec![("a", me), ("b", me), ("c", me), ("c", me)],
        "every chain attempt runs inline"
    );
}

#[test]
fn diamond_threads_only_the_overlapping_sources() {
    let log = Log::default();
    let frame_plan = calibrate(DIAMOND, &log);
    let run = frame(&build(DIAMOND, None, &log), &frame_plan);
    assert!(run.completed(), "{:?}", run.timings);

    let me = thread::current().id();
    let log = log.lock().expect("log");
    let thread_of = |stage: &str| {
        let runs: Vec<ThreadId> = log
            .iter()
            .filter(|(name, _)| *name == stage)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(runs.len(), 1, "{stage} ran once");
        runs[0]
    };
    let (a, b) = (thread_of("a"), thread_of("b"));
    assert_ne!(a, me, "a overlaps b, so it gets a worker thread");
    assert_ne!(b, me, "b overlaps a, so it gets a worker thread");
    assert_ne!(a, b);
    assert_eq!(thread_of("c"), me, "the join runs alone, inline");
    assert_eq!(thread_of("d"), me, "the sink runs alone, inline");
}

/// Runs one overlapped frame of `stages` with `boom` panicking and returns
/// the panic message the caller sees.
fn panic_message(stages: &[(&'static str, &[usize])], boom: &str) -> String {
    let log = Log::default();
    let frame_plan = calibrate(stages, &log);
    let p = build(stages, Some(boom), &log);
    let payload = catch_unwind(AssertUnwindSafe(|| frame(&p, &frame_plan)))
        .expect_err("the stage program panics");
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("a string panic payload")
}

#[test]
fn a_lone_stage_panic_keeps_its_message() {
    assert_eq!(panic_message(CHAIN, "b"), "boom");
}

#[test]
fn an_overlapping_stage_panic_keeps_its_message() {
    assert_eq!(panic_message(DIAMOND, "b"), "boom");
}
