//! The concurrent frame executor: independent DAG branches of one pipeline
//! frame overlap on **disjoint SM partitions** of the one simulated GPU.
//!
//! # Architecture
//!
//! A frame is driven by a *ready-set scheduler*: whenever a stage's
//! dependencies have all delivered, the executor reserves a contiguous SM
//! partition for it ([`higpu_sim::partition::SmPartitionTable`]; every
//! concurrently-ready stage gets an equal share of the free SMs, never
//! fewer than one SM per replica) and starts the stage's host program,
//! which drives an ordinary [`GpuSession`]. Every session call is applied
//! to the shared device by one function (`apply`), over one of two
//! transports:
//!
//! * **Inline** — a *lone* stage (it starts with no other branch running
//!   and is the only ready stage, or it is a retry whose branch is the only
//!   one left and nothing else is ready) runs its host program directly on
//!   the executor thread. A blocking `sync`/`read` advances the device
//!   itself, exactly as the executor loop would for one parked branch. No
//!   other stage can become ready before a lone branch finishes, so the
//!   order of device operations is the same as on the threaded transport.
//! * **Threaded** — branches that really run beside a sibling get a worker
//!   thread each, and their session operations become **rendezvous
//!   messages**: every call blocks until the executor applies it and
//!   replies. Workers are fully lock-stepped — the executor decides, in
//!   deterministic stage order, whose operation is applied next — so the
//!   interleaving (and with it every simulated cycle) is a pure function of
//!   the frame inputs, exactly like the serial executor. Thread scheduling
//!   can change *wall clock* time, never results. A worker whose host
//!   program panics has its own panic re-raised on the executor thread.
//!
//! Replica fan-out happens at the executor: an `alloc` becomes N device
//! allocations, a `write` N uploads, a `launch` N kernel launches carrying
//! the branch's partition as the [`higpu_sim::kernel::LaunchAttrs::reserve`]
//! attribute plus the redundancy mode's diversity hints re-expressed
//! *relative to the partition* (SRRS start SMs spread over the partition,
//! SLICE sub-slices of it — see
//! [`higpu_core::policy::PartitionedScheduler`]), and a `read` fetches all
//! N copies and majority-votes them, mirroring
//! [`higpu_workloads::RedundantSession`] in tolerant mode.
//!
//! A branch's `sync` waits for *its own* kernels only
//! ([`higpu_sim::gpu::Gpu::run_until`]); sibling partitions keep executing
//! through it. Each branch attempt runs under its own absolute watchdog
//! limit (its stage budget, capped by the frame's critical-path FTTI); the
//! device watchdog is armed with the earliest limit of the blocked
//! branches, and when it fires only the overrunning branch is cancelled
//! ([`higpu_sim::gpu::Gpu::cancel_kernels`]) and — path-aware slack
//! permitting — retried on its own partition, without ever disturbing a
//! sibling partition's clock-visible state.

use crate::exec::{
    bist_round, is_deadline_cutoff, status_code, FailReason, FrameOptions, PipelineError,
    PipelinePlan, PipelineRun, StageStatus, StageTiming,
};
use crate::graph::{Pipeline, Stage};
use higpu_core::policy::PartitionedScheduler;
use higpu_core::redundancy::{RedundancyError, RedundancyMode};
use higpu_core::vote::majority_vote;
use higpu_sim::gpu::{DevPtr, Gpu, SimError};
use higpu_sim::kernel::{Dim3, KernelId, KernelLaunch, LaunchConfig};
use higpu_sim::partition::{SmPartitionTable, SmRange, SmReservation};
use higpu_sim::program::Program;
use higpu_telemetry::EventKind;
use higpu_workloads::{BufId, GpuSession, SParam, SessionError};
use std::borrow::Cow;
use std::panic;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, ScopedJoinHandle};

/// One session operation of a branch. Host data is borrowed on the inline
/// transport and owned once it crosses a thread.
enum Op<'a> {
    Alloc {
        words: u32,
    },
    WriteU32 {
        buf: BufId,
        data: Cow<'a, [u32]>,
    },
    WriteF32 {
        buf: BufId,
        data: Cow<'a, [f32]>,
    },
    Launch {
        program: Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: Cow<'a, [SParam]>,
    },
    Sync,
    ReadU32 {
        buf: BufId,
        words: usize,
    },
}

impl Op<'_> {
    fn into_owned(self) -> Op<'static> {
        match self {
            Op::Alloc { words } => Op::Alloc { words },
            Op::WriteU32 { buf, data } => Op::WriteU32 {
                buf,
                data: Cow::Owned(data.into_owned()),
            },
            Op::WriteF32 { buf, data } => Op::WriteF32 {
                buf,
                data: Cow::Owned(data.into_owned()),
            },
            Op::Launch {
                program,
                grid,
                block,
                shared_mem_bytes,
                params,
            } => Op::Launch {
                program,
                grid,
                block,
                shared_mem_bytes,
                params: Cow::Owned(params.into_owned()),
            },
            Op::Sync => Op::Sync,
            Op::ReadU32 { buf, words } => Op::ReadU32 { buf, words },
        }
    }
}

/// What a branch worker thread sends the executor.
enum Msg {
    Op(Op<'static>),
    /// The host program returned; carries its result.
    Done(Result<Vec<u32>, SessionError>),
}

/// The executor's answer to one [`Op`].
enum Reply {
    Buf(BufId),
    Unit,
    Words(Vec<u32>),
    Fail(SessionError),
}

/// A blocking op deferred until the branch's kernels finish.
enum Wait {
    Sync,
    Read { buf: BufId, words: usize },
}

/// What applying one op came to.
enum Applied {
    Reply(Reply),
    /// A blocking op whose kernels are still in flight.
    Park(Wait),
}

/// How a branch's session calls reach the executor.
trait Transport {
    fn call(&mut self, op: Op<'_>) -> Reply;
}

/// The branch-side [`GpuSession`] over either transport.
struct Session<T>(T);

impl<T: Transport> Session<T> {
    fn call(&mut self, op: Op<'_>) -> Result<Reply, SessionError> {
        match self.0.call(op) {
            Reply::Fail(e) => Err(e),
            r => Ok(r),
        }
    }
}

impl<T: Transport> GpuSession for Session<T> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        match self.call(Op::Alloc { words })? {
            Reply::Buf(b) => Ok(b),
            _ => unreachable!("alloc replies with a buffer id"),
        }
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        self.call(Op::WriteU32 {
            buf,
            data: Cow::Borrowed(data),
        })?;
        Ok(())
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        self.call(Op::WriteF32 {
            buf,
            data: Cow::Borrowed(data),
        })?;
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
        self.call(Op::Launch {
            program: program.clone(),
            grid,
            block,
            shared_mem_bytes,
            params: Cow::Borrowed(params),
        })?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        self.call(Op::Sync)?;
        Ok(())
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        match self.call(Op::ReadU32 { buf, words })? {
            Reply::Words(w) => Ok(w),
            _ => unreachable!("read replies with words"),
        }
    }
}

/// The worker-thread transport of an overlapping branch: every call is a
/// rendezvous with the executor.
struct Channel {
    msgs: Sender<Msg>,
    replies: Receiver<Reply>,
}

impl Transport for Channel {
    fn call(&mut self, op: Op<'_>) -> Reply {
        self.msgs
            .send(Msg::Op(op.into_owned()))
            .expect("frame executor disappeared");
        self.replies.recv().expect("frame executor disappeared")
    }
}

/// The executor-thread transport of a lone branch: every call is applied
/// directly, and a blocking call advances the device itself.
struct Inline<'a, 'scope> {
    gpu: &'a mut Gpu,
    mode: &'a RedundancyMode,
    next_group: &'a mut u32,
    branch: &'a mut Branch<'scope>,
    /// A device error other than the branch's own watchdog; it ends the
    /// frame once the host program has unwound.
    fatal: Option<SimError>,
}

impl Transport for Inline<'_, '_> {
    fn call(&mut self, op: Op<'_>) -> Reply {
        let wait = match apply(self.gpu, self.mode, self.next_group, self.branch, op) {
            Applied::Reply(r) => return r,
            Applied::Park(wait) => wait,
        };
        // What the executor loop does for one parked branch: arm the
        // watchdog with the branch's limit and run until its own kernels
        // complete.
        let branch = &mut *self.branch;
        self.gpu.set_cycle_limit(Some(branch.limit));
        let advanced = self.gpu.run_until(|g| branch.pending_finished(g));
        self.gpu.set_cycle_limit(None);
        match advanced {
            Ok(_) => resume(self.gpu, usize::from(self.mode.replicas()), branch, wait),
            Err(SimError::DeadlineExceeded { .. }) => {
                let now = self.gpu.cycle();
                Reply::Fail(branch.expire(self.gpu, now))
            }
            Err(e) => {
                // Refuse the program's remaining ops while it unwinds.
                branch.poisoned = true;
                self.fatal = Some(e.clone());
                Reply::Fail(SessionError::Sim(e))
            }
        }
    }
}

/// A logical branch buffer: one physical allocation per replica.
struct Replicated {
    ptrs: Vec<DevPtr>,
}

/// The thread and channels of a branch that runs beside a sibling.
struct Worker<'scope> {
    msgs: Receiver<Msg>,
    replies: Sender<Reply>,
    handle: Option<ScopedJoinHandle<'scope, ()>>,
}

impl Worker<'_> {
    /// The worker's next message, or `None` once it has exited after
    /// sending `Done`. A worker whose channel closes without `Done`
    /// panicked: its own panic is re-raised here.
    fn recv(&mut self) -> Option<Msg> {
        if let Ok(msg) = self.msgs.recv() {
            return Some(msg);
        }
        let handle = self.handle.take().expect("a stage worker is joined once");
        match handle.join() {
            Ok(()) => None,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    fn reply(&self, r: Reply) {
        // A send can only fail if the worker panicked; `recv` re-raises
        // that panic, so the lost reply is irrelevant.
        let _ = self.replies.send(r);
    }
}

/// One running stage attempt (plus its cross-attempt accumulation).
struct Branch<'scope> {
    stage: usize,
    name: &'static str,
    reservation: SmReservation,
    /// Cycle the stage's *first* attempt started.
    first_start: u64,
    /// Attempts so far (1 while the first runs).
    attempt: u32,
    /// Absolute watchdog limit of the current attempt.
    limit: u64,
    buffers: Vec<Replicated>,
    /// Kernels launched by the current attempt (cancellation set).
    kernels: Vec<KernelId>,
    /// Launched but not yet awaited kernels of the current attempt.
    pending: Vec<KernelId>,
    /// Disagreeing reads of the current attempt.
    tied: usize,
    corrected: usize,
    /// DCLS traffic, summed over all attempts of this stage.
    bytes_up: u64,
    bytes_down: u64,
    /// The deferred blocking op while a threaded branch waits on kernels.
    blocked: Option<Wait>,
    /// The current attempt's watchdog fired; every further op is refused
    /// until the host program unwinds.
    poisoned: bool,
    /// The current attempt's worker thread; `None` for a lone attempt,
    /// which runs inline.
    worker: Option<Worker<'scope>>,
}

impl<'scope> Branch<'scope> {
    fn worker(&mut self) -> &mut Worker<'scope> {
        self.worker
            .as_mut()
            .expect("only a threaded branch exchanges messages")
    }

    fn pending_finished(&self, gpu: &Gpu) -> bool {
        self.pending.iter().all(|&id| gpu.kernel_finished(id))
    }

    fn partition(&self) -> SmRange {
        self.reservation.range()
    }

    fn deadline_error(&self, cycle: u64) -> SessionError {
        SessionError::Sim(SimError::DeadlineExceeded {
            cycle,
            limit: self.limit,
        })
    }

    /// The current attempt overran its limit at cycle `now`: cancel its
    /// kernels (its partition empties; siblings are untouched) and poison
    /// it. Returns the error its blocked op fails with.
    fn expire(&mut self, gpu: &mut Gpu, now: u64) -> SessionError {
        gpu.cancel_kernels(&self.kernels);
        self.pending.clear();
        self.poisoned = true;
        self.deadline_error(now)
    }

    /// The branch's timeline record, closed at cycle `now` with `status` —
    /// shared by the deliver and fail-stop paths so the accounting can
    /// never diverge between them.
    fn timing(&self, budget: u64, now: u64, status: StageStatus) -> StageTiming {
        StageTiming {
            stage: self.stage,
            name: self.name,
            start: self.first_start,
            end: now,
            budget,
            slack: budget.saturating_sub(now - self.first_start),
            attempts: self.attempt,
            partition: self.partition(),
            bytes_uploaded: self.bytes_up,
            bytes_read_back: self.bytes_down,
            status,
        }
    }
}

/// What serving a threaded branch's op stream ended with.
enum Served {
    /// The branch parked on a blocking op (kernels still in flight).
    Blocked,
    /// The branch's host program returned.
    Finished(Result<Vec<u32>, SessionError>),
}

/// Per-stage progress of the ready-set scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageState {
    Pending,
    Running,
    Done,
    Failed,
}

/// The pending stages whose dependencies have all delivered, in stage
/// order.
fn ready_stages(pipeline: &Pipeline, state: &[StageState]) -> Vec<usize> {
    (0..pipeline.len())
        .filter(|&s| {
            state[s] == StageState::Pending
                && pipeline.stages()[s]
                    .deps
                    .iter()
                    .all(|&d| state[d] == StageState::Done)
        })
        .collect()
}

/// The voted outputs of `stage`'s dependencies.
fn stage_inputs<'a>(stage: &Stage, run: &'a PipelineRun) -> Vec<&'a [u32]> {
    stage
        .deps
        .iter()
        .map(|&d| run.outputs[d].as_slice())
        .collect()
}

/// Starts one attempt of `stage` on a worker thread.
fn spawn_attempt<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    stage: &'env Stage,
    run: &PipelineRun,
) -> Worker<'scope> {
    let inputs: Vec<Vec<u32>> = stage_inputs(stage, run)
        .into_iter()
        .map(<[u32]>::to_vec)
        .collect();
    let (msg_tx, msg_rx) = channel();
    let (reply_tx, reply_rx) = channel();
    let handle = scope.spawn(move || {
        let mut session = Session(Channel {
            msgs: msg_tx,
            replies: reply_rx,
        });
        let refs: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let result = stage.program.run(&mut session, &refs);
        let _ = session.0.msgs.send(Msg::Done(result));
    });
    Worker {
        msgs: msg_rx,
        replies: reply_tx,
        handle: Some(handle),
    }
}

/// Runs a lone branch's current attempt to completion on the executor
/// thread. The outer error is a device error that ends the frame; the
/// inner result is the host program's own.
fn run_inline(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    next_group: &mut u32,
    branch: &mut Branch<'_>,
    stage: &Stage,
    inputs: &[&[u32]],
) -> Result<Result<Vec<u32>, SessionError>, PipelineError> {
    let mut session = Session(Inline {
        gpu,
        mode,
        next_group,
        branch,
        fatal: None,
    });
    let result = stage.program.run(&mut session, inputs);
    match session.0.fatal {
        Some(e) => Err(SessionError::Sim(e).into()),
        None => Ok(result),
    }
}

/// Launches all replicas of one logical kernel of `branch`, carrying the
/// partition reservation plus the mode's diversity hints re-expressed
/// within the partition.
#[allow(clippy::too_many_arguments)] // the launch op's full payload; one call site
fn apply_launch(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    next_group: &mut u32,
    branch: &mut Branch<'_>,
    program: &Arc<Program>,
    grid: Dim3,
    block: Dim3,
    shared_mem_bytes: u32,
    params: &[SParam],
) -> Result<(), SessionError> {
    let replicas = usize::from(mode.replicas());
    let part = branch.partition();
    let group = *next_group;
    *next_group += 1;
    for r in 0..replicas {
        let mut cfg = LaunchConfig::new(grid, block).shared_mem(shared_mem_bytes);
        for p in params {
            cfg = match *p {
                SParam::Buf(b) => cfg.param_u32(branch.buffers[b.index()].ptrs[r].0),
                SParam::BufOffset(b, w) => {
                    cfg.param_u32(branch.buffers[b.index()].ptrs[r].offset_words(w).0)
                }
                SParam::U32(v) => cfg.param_u32(v),
                SParam::I32(v) => cfg.param_i32(v),
                SParam::F32(v) => cfg.param_f32(v),
            };
        }
        let mut launch = KernelLaunch::new(program.clone(), cfg)
            .tag(format!("{}#g{}r{}", program.name(), group, r))
            .redundant(group, r as u8)
            .reserve(part);
        launch = match mode {
            RedundancyMode::Uncontrolled { .. } => launch,
            // SRRS within the partition: start SMs spread over the
            // partition's SMs, replicas serialized against the partition.
            RedundancyMode::Srrs { .. } => launch.start_sm(part.start + r * part.len / replicas),
            // HALF is SLICE@2 within a partition, as on the whole device.
            RedundancyMode::Half => launch.slice(r as u8, 2),
            RedundancyMode::Slice {
                replicas: n,
                start_skew,
            } => launch
                .slice(r as u8, *n)
                .dispatch_delay(r as u64 * *start_skew),
        };
        let id = gpu.launch(launch).map_err(SessionError::Sim)?;
        branch.kernels.push(id);
        branch.pending.push(id);
    }
    Ok(())
}

/// Reads all replica copies of a branch buffer and majority-votes them —
/// [`higpu_workloads::RedundantSession`]'s tolerant read, at the executor.
fn vote_read(
    gpu: &Gpu,
    replicas: usize,
    branch: &mut Branch<'_>,
    buf: BufId,
    words: usize,
) -> Reply {
    // The full requested length, unclamped — exactly what the serial
    // executor's `read_vote_u32` reads (an over-long read is the stage
    // program's bug and must behave identically on both executors).
    let replicated = &branch.buffers[buf.index()];
    let outputs: Vec<Vec<u32>> = replicated
        .ptrs
        .iter()
        .map(|&p| gpu.read_u32(p, words))
        .collect();
    let refs: Vec<&[u32]> = outputs.iter().map(Vec::as_slice).collect();
    let vote = majority_vote(&refs, words);
    branch.bytes_down += 4 * words as u64 * replicas as u64;
    if !vote.outcome.is_unanimous() {
        if vote.outcome.is_corrected() {
            branch.corrected += 1;
        } else {
            branch.tied += 1;
        }
    }
    Reply::Words(vote.value)
}

/// Completes a blocking op once the branch's kernels have all finished.
fn resume(gpu: &Gpu, replicas: usize, branch: &mut Branch<'_>, wait: Wait) -> Reply {
    branch.pending.clear();
    match wait {
        Wait::Sync => Reply::Unit,
        Wait::Read { buf, words } => vote_read(gpu, replicas, branch, buf, words),
    }
}

/// Applies one session op of `branch` to the shared device — the one path
/// both transports take. A blocking op whose kernels are still in flight
/// comes back as [`Applied::Park`].
fn apply(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    next_group: &mut u32,
    branch: &mut Branch<'_>,
    op: Op<'_>,
) -> Applied {
    if branch.poisoned {
        // The attempt's deadline already fired; refuse everything until
        // the host program unwinds.
        return Applied::Reply(Reply::Fail(branch.deadline_error(gpu.cycle())));
    }
    let replicas = usize::from(mode.replicas());
    let reply = match op {
        Op::Alloc { words } => {
            let mut ptrs = Vec::with_capacity(replicas);
            let mut failure = None;
            for _ in 0..replicas {
                match gpu.alloc_words(words) {
                    Ok(p) => ptrs.push(p),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            match failure {
                Some(e) => Reply::Fail(SessionError::Sim(e)),
                None => {
                    branch.buffers.push(Replicated { ptrs });
                    Reply::Buf(BufId::from_index(branch.buffers.len() - 1))
                }
            }
        }
        Op::WriteU32 { buf, data } => {
            for r in 0..replicas {
                gpu.write_u32(branch.buffers[buf.index()].ptrs[r], &data);
            }
            branch.bytes_up += 4 * data.len() as u64 * replicas as u64;
            Reply::Unit
        }
        Op::WriteF32 { buf, data } => {
            for r in 0..replicas {
                gpu.write_f32(branch.buffers[buf.index()].ptrs[r], &data);
            }
            branch.bytes_up += 4 * data.len() as u64 * replicas as u64;
            Reply::Unit
        }
        Op::Launch {
            program,
            grid,
            block,
            shared_mem_bytes,
            params,
        } => match apply_launch(
            gpu,
            mode,
            next_group,
            branch,
            &program,
            grid,
            block,
            shared_mem_bytes,
            &params,
        ) {
            Ok(()) => Reply::Unit,
            Err(e) => Reply::Fail(e),
        },
        Op::Sync => return block_on(gpu, replicas, branch, Wait::Sync),
        Op::ReadU32 { buf, words } => {
            return block_on(gpu, replicas, branch, Wait::Read { buf, words })
        }
    };
    Applied::Reply(reply)
}

/// A blocking op: completed at once when the branch's kernels have all
/// finished, parked otherwise.
fn block_on(gpu: &Gpu, replicas: usize, branch: &mut Branch<'_>, wait: Wait) -> Applied {
    if branch.pending_finished(gpu) {
        Applied::Reply(resume(gpu, replicas, branch, wait))
    } else {
        Applied::Park(wait)
    }
}

/// Serves a threaded branch's op stream until it blocks or its program
/// returns.
fn serve(
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    next_group: &mut u32,
    branch: &mut Branch<'_>,
) -> Served {
    loop {
        let msg = branch
            .worker()
            .recv()
            .expect("a running stage worker sends Done before it exits");
        let op = match msg {
            Msg::Op(op) => op,
            Msg::Done(result) => return Served::Finished(result),
        };
        match apply(gpu, mode, next_group, branch, op) {
            Applied::Reply(r) => branch.worker().reply(r),
            Applied::Park(wait) => {
                branch.blocked = Some(wait);
                return Served::Blocked;
            }
        }
    }
}

/// Unwinds and drains every remaining branch (cancelling its kernels and
/// releasing its partition) — the frame-abandonment path shared by
/// fail-stop and fatal errors. Only threaded branches have a worker to
/// drain.
fn abort_all(gpu: &mut Gpu, table: &mut SmPartitionTable, branches: &mut Vec<Branch<'_>>) {
    for mut b in branches.drain(..) {
        gpu.cancel_kernels(&b.kernels);
        let abort = b.deadline_error(gpu.cycle());
        if let Some(worker) = b.worker.as_mut() {
            if b.blocked.is_some() {
                worker.reply(Reply::Fail(abort.clone()));
            }
            while let Some(Msg::Op(_)) = worker.recv() {
                worker.reply(Reply::Fail(abort.clone()));
            }
        }
        table.release(b.reservation);
    }
}

/// Runs one frame with the concurrent ready-set executor. See the module
/// documentation for the architecture.
pub(crate) fn run_overlapped(
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    plan: &PipelinePlan,
    opts: FrameOptions,
) -> Result<PipelineRun, PipelineError> {
    let num_sms = gpu.config().num_sms;
    // Capacity is judged against the SMs still in service: a quarantined
    // SM can never join a partition, so a degraded device admits a frame
    // only when its *healthy* count covers the replica floor.
    let healthy_sms = gpu.effective_sms();
    let replicas = usize::from(mode.replicas());
    if replicas < 2 {
        return Err(RedundancyError::InvalidMode("at least two replicas required".into()).into());
    }
    if replicas > healthy_sms {
        return Err(RedundancyError::InvalidMode(format!(
            "a partition needs at least one healthy SM per replica: {replicas} replicas on \
             {healthy_sms} in-service SMs"
        ))
        .into());
    }
    let frame_zero = gpu.cycle();
    let e2e_abs = frame_zero.saturating_add(plan.ftti.end_to_end());
    gpu.set_policy(Box::new(PartitionedScheduler::new()))
        .map_err(|e| PipelineError::Session(SessionError::Sim(e)))?;
    let next_group_from_trace = |gpu: &Gpu| {
        gpu.trace()
            .kernels
            .iter()
            .filter_map(|k| k.attrs.redundant.map(|t| t.group + 1))
            .max()
            .unwrap_or(0)
    };
    let mut next_group = next_group_from_trace(gpu);
    let mut table = SmPartitionTable::new(num_sms);
    // Quarantined SMs are blocked in the partition table before anything
    // reserves: first-fit then only ever hands out contiguous runs of
    // healthy SMs, so every partition-relative SRRS start lands in
    // service and no stage replica can touch condemned hardware.
    for sm in gpu.quarantined_sms() {
        table.block_sm(sm);
    }
    let mut run = PipelineRun::new(pipeline.len(), frame_zero);
    let mut state = vec![StageState::Pending; pipeline.len()];
    // One SM per replica is the floor every diversity scheme needs
    // (disjoint sub-slices / distinct partition-relative start SMs).
    let min_part = replicas;

    let result = thread::scope(|scope| -> Result<(), PipelineError> {
        let mut branches: Vec<Branch> = Vec::new();
        let mut delivered_since_bist = false;
        let mut failed = false;

        let result = (|| -> Result<(), PipelineError> {
            'frame: loop {
                // ---- serve phase: start ready stages, drain runnable ops.
                loop {
                    if opts.interstage_bist
                        && delivered_since_bist
                        && !failed
                        && branches.is_empty()
                        && gpu.is_idle()
                    {
                        // Between stages, on an idle device: the periodic
                        // scheduler self-test, then back to the partition
                        // policy for the next wave.
                        bist_round(gpu, mode, &mut run)?;
                        gpu.set_policy(Box::new(PartitionedScheduler::new()))
                            .map_err(|e| PipelineError::Session(SessionError::Sim(e)))?;
                        next_group = next_group_from_trace(gpu);
                        delivered_since_bist = false;
                    }
                    // Ready-set scheduling: start every ready stage whose
                    // redundancy placement fits a free partition, splitting
                    // the free SMs evenly over the currently-ready set (a
                    // failed frame starts nothing).
                    loop {
                        if failed {
                            break;
                        }
                        let ready = ready_stages(pipeline, &state);
                        let Some(&s) = ready.first() else { break };
                        let share = (table.free_sms() / ready.len()).max(min_part);
                        let Some(reservation) =
                            table.reserve(share).or_else(|| table.reserve(min_part))
                        else {
                            break; // wait for a sibling partition release
                        };
                        let stage = &pipeline.stages()[s];
                        // A lone stage runs inline; only a stage that will
                        // overlap a sibling gets a thread.
                        let lone = branches.is_empty() && ready.len() == 1;
                        let worker = (!lone).then(|| spawn_attempt(scope, stage, &run));
                        let now = gpu.cycle();
                        gpu.record_event(
                            EventKind::StageStart,
                            now,
                            reservation.range().start as u32,
                            s as u64,
                            1,
                        );
                        branches.push(Branch {
                            stage: s,
                            name: stage.name,
                            reservation,
                            first_start: now,
                            attempt: 1,
                            limit: plan.ftti.stage_limit(s, frame_zero, now),
                            buffers: Vec::new(),
                            kernels: Vec::new(),
                            pending: Vec::new(),
                            tied: 0,
                            corrected: 0,
                            bytes_up: 0,
                            bytes_down: 0,
                            blocked: None,
                            poisoned: false,
                            worker,
                        });
                        branches.sort_by_key(|b| b.stage);
                        state[s] = StageState::Running;
                    }
                    let Some(i) = branches.iter().position(|b| b.blocked.is_none()) else {
                        break;
                    };
                    let attempt_result = if branches[i].worker.is_some() {
                        match serve(gpu, mode, &mut next_group, &mut branches[i]) {
                            Served::Blocked => continue,
                            Served::Finished(result) => result,
                        }
                    } else {
                        debug_assert_eq!(branches.len(), 1, "an inline branch runs alone");
                        let stage = &pipeline.stages()[branches[i].stage];
                        let inputs = stage_inputs(stage, &run);
                        run_inline(gpu, mode, &mut next_group, &mut branches[i], stage, &inputs)?
                    };
                    // ---- the branch's attempt ended: deliver / retry /
                    // fail-stop.
                    let b = &mut branches[i];
                    let s = b.stage;
                    let now = gpu.cycle();
                    let detected = match attempt_result {
                        Ok(out) if b.tied == 0 => {
                            let status = if b.attempt > 1 {
                                StageStatus::Recovered
                            } else if b.corrected > 0 {
                                StageStatus::Corrected
                            } else {
                                StageStatus::Clean
                            };
                            run.corrected_reads += b.corrected;
                            gpu.record_event(
                                EventKind::StageFinish,
                                now,
                                b.reservation.range().start as u32,
                                s as u64,
                                status_code(status),
                            );
                            run.timings
                                .push(b.timing(plan.ftti.stage_budgets[s], now, status));
                            run.bandwidth_bytes += b.bytes_up + b.bytes_down;
                            run.outputs[s] = out;
                            state[s] = StageState::Done;
                            delivered_since_bist = true;
                            let b = branches.remove(i);
                            table.release(b.reservation);
                            false
                        }
                        Ok(_) => true, // tied reads: the NMR monitor detected
                        Err(e) if is_deadline_cutoff(&e) => true,
                        Err(e) => return Err(e.into()),
                    };
                    if detected {
                        // Nothing else can become ready while the stage
                        // retries, so a retry whose branch is the only one
                        // left (with nothing ready) runs inline too.
                        let lone = branches.len() == 1 && ready_stages(pipeline, &state).is_empty();
                        let b = &mut branches[i];
                        if b.attempt > 1 {
                            run.retries_failed += 1;
                        }
                        let reason = if b.attempt > opts.recovery.max_retries_per_stage {
                            Some(FailReason::RetryExhausted)
                        } else if !plan.ftti.allows_retry(
                            s,
                            now - frame_zero,
                            plan.stage_makespans[s],
                        ) {
                            run.no_slack_failures += 1;
                            Some(FailReason::NoSlack)
                        } else {
                            None
                        };
                        match reason {
                            None => {
                                // In-FTTI re-execution: a fresh attempt on
                                // the same partition, under a fresh stage
                                // budget capped by the frame's FTTI.
                                run.retries_attempted += 1;
                                gpu.record_event(
                                    EventKind::StageRetry,
                                    now,
                                    b.reservation.range().start as u32,
                                    s as u64,
                                    (b.attempt + 1) as u64,
                                );
                                let stage = &pipeline.stages()[s];
                                b.worker = (!lone).then(|| spawn_attempt(scope, stage, &run));
                                b.attempt += 1;
                                b.limit = plan.ftti.stage_limit(s, frame_zero, now);
                                b.buffers.clear();
                                b.kernels.clear();
                                b.pending.clear();
                                b.tied = 0;
                                b.corrected = 0;
                                b.blocked = None;
                                b.poisoned = false;
                            }
                            Some(reason) => {
                                gpu.record_event(
                                    EventKind::StageFinish,
                                    now,
                                    b.reservation.range().start as u32,
                                    s as u64,
                                    status_code(StageStatus::FailStop(reason)),
                                );
                                run.timings.push(b.timing(
                                    plan.ftti.stage_budgets[s],
                                    now,
                                    StageStatus::FailStop(reason),
                                ));
                                run.bandwidth_bytes += b.bytes_up + b.bytes_down;
                                state[s] = StageState::Failed;
                                failed = true;
                                let b = branches.remove(i);
                                table.release(b.reservation);
                                // Frame abandoned: the safe-state
                                // transition kills every sibling offload
                                // within the FTTI.
                                abort_all(gpu, &mut table, &mut branches);
                            }
                        }
                    }
                }
                // ---- every branch is parked (or the frame is over).
                if branches.is_empty() {
                    break 'frame;
                }
                // Arm the watchdog with the earliest branch deadline and
                // advance the shared device until some parked branch's own
                // kernels complete.
                let min_limit = branches.iter().map(|b| b.limit).min().expect("non-empty");
                gpu.set_cycle_limit(Some(min_limit));
                let advanced = gpu.run_until(|g| branches.iter().any(|b| b.pending_finished(g)));
                gpu.set_cycle_limit(None);
                match advanced {
                    Ok(_) => {
                        for b in branches.iter_mut() {
                            if b.blocked.is_some() && b.pending_finished(gpu) {
                                let wait = b.blocked.take().expect("parked branch");
                                let reply = resume(gpu, replicas, b, wait);
                                b.worker().reply(reply);
                            }
                        }
                    }
                    Err(SimError::DeadlineExceeded { .. }) => {
                        // The earliest stage deadline fired: cancel every
                        // overrunning branch's kernels and unwind its
                        // worker — the retry decision happens when its
                        // `Done(Err)` arrives.
                        let now = gpu.cycle();
                        let mut any = false;
                        for b in branches.iter_mut() {
                            if now > b.limit {
                                any = true;
                                let err = b.expire(gpu, now);
                                if b.blocked.take().is_some() {
                                    b.worker().reply(Reply::Fail(err));
                                }
                            }
                        }
                        assert!(any, "watchdog fired without an overrunning branch");
                    }
                    Err(e) => return Err(SessionError::Sim(e).into()),
                }
            }
            // A final self-test round covers the last stage's placements.
            if opts.interstage_bist && delivered_since_bist && !failed {
                bist_round(gpu, mode, &mut run)?;
            }
            Ok(())
        })();
        if result.is_err() {
            // Never leave workers parked on a dead executor: unwind them
            // all before the scope joins.
            abort_all(gpu, &mut table, &mut branches);
        }
        result
    });
    result?;
    run.end_cycle = gpu.cycle();
    run.deadline_miss = run.end_cycle > e2e_abs;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use crate::builtin::{ad_pipeline, sensor_fusion};
    use crate::exec::{plan, run_pipeline, FrameOptions, StageStatus};
    use higpu_core::redundancy::RedundancyMode;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::Scale;

    fn cfg() -> GpuConfig {
        let mut cfg = GpuConfig::paper_6sm();
        cfg.global_mem_bytes = 2 * 1024 * 1024;
        cfg
    }

    #[test]
    fn overlapped_sensor_fusion_overlaps_disjoint_partitions_and_beats_serial() {
        let p = sensor_fusion(Scale::Campaign);
        let mode = RedundancyMode::srrs_default(6);
        let frame_plan = plan(&cfg(), &p, &mode).expect("calibration");

        let mut serial_gpu = Gpu::new(cfg());
        let serial = run_pipeline(
            &mut serial_gpu,
            &p,
            &mode,
            &frame_plan,
            FrameOptions::serial(),
        )
        .expect("serial frame");
        assert!(serial.completed());

        let mut gpu = Gpu::new(cfg());
        let over = run_pipeline(&mut gpu, &p, &mode, &frame_plan, FrameOptions::overlapped())
            .expect("overlapped frame");
        assert!(over.completed(), "{:?}", over.timings);
        assert_eq!(over.timings.len(), 4);
        for t in &over.timings {
            assert_eq!(t.status, StageStatus::Clean);
            assert_eq!(t.attempts, 1);
        }

        // The two source branches ran on disjoint partitions, overlapping
        // in time.
        let cam = over.timing_of(0).expect("camera ran");
        let rad = over.timing_of(1).expect("radar ran");
        let cam_r = cam.partition.range();
        let rad_r = rad.partition.range();
        assert!(
            cam_r.end <= rad_r.start || rad_r.end <= cam_r.start,
            "partitions must be disjoint: {cam_r:?} vs {rad_r:?}"
        );
        assert!(
            cam.start < rad.end && rad.start < cam.end,
            "branches must overlap in time: cam {}..{} vs rad {}..{}",
            cam.start,
            cam.end,
            rad.start,
            rad.end
        );
        // The serial executor cannot overlap them.
        let s_cam = serial.timing_of(0).expect("camera");
        let s_rad = serial.timing_of(1).expect("radar");
        assert!(s_cam.end <= s_rad.start, "serial stages never overlap");

        // Overlap strictly shrinks the end-to-end makespan on the same
        // calibrated plan.
        assert!(
            over.end_cycle < serial.end_cycle,
            "overlapped {} !< serial {}",
            over.end_cycle,
            serial.end_cycle
        );

        // Fault-free voted outputs are bit-identical across executors, and
        // correct.
        assert_eq!(over.outputs, serial.outputs);
        for (s, stage) in p.stages().iter().enumerate() {
            let inputs: Vec<&[u32]> = stage
                .deps
                .iter()
                .map(|&d| over.outputs[d].as_slice())
                .collect();
            stage
                .program
                .verify(&over.outputs[s], &inputs)
                .unwrap_or_else(|e| panic!("stage {s} wrong under overlap: {e}"));
        }
        // Both executors move the same DCLS byte volume on fault-free
        // frames.
        assert_eq!(over.bandwidth_bytes, serial.bandwidth_bytes);
        assert_eq!(over.bandwidth_bytes, frame_plan.frame_bandwidth_bytes);
    }

    #[test]
    fn overlapped_chain_pipeline_matches_serial_outputs() {
        // A pure chain has no branch parallelism: the overlapped executor
        // degenerates to one full-device partition per stage and must
        // reproduce the serial executor's voted outputs exactly.
        let p = ad_pipeline(Scale::Campaign);
        let mode = RedundancyMode::srrs_default(6);
        let frame_plan = plan(&cfg(), &p, &mode).expect("calibration");
        let mut gpu = Gpu::new(cfg());
        let serial =
            run_pipeline(&mut gpu, &p, &mode, &frame_plan, FrameOptions::serial()).expect("serial");
        let mut gpu = Gpu::new(cfg());
        let over = run_pipeline(&mut gpu, &p, &mode, &frame_plan, FrameOptions::overlapped())
            .expect("overlapped");
        assert!(over.completed());
        assert_eq!(over.outputs, serial.outputs);
        for t in &over.timings {
            assert_eq!(
                t.partition.range(),
                0..6,
                "a lone ready stage owns the whole device"
            );
        }
    }

    #[test]
    fn overlapped_executor_supports_all_policies_fault_free() {
        let p = sensor_fusion(Scale::Campaign);
        for mode in [
            RedundancyMode::uncontrolled(),
            RedundancyMode::srrs_default(6),
            RedundancyMode::Half,
            RedundancyMode::slice(2),
            RedundancyMode::slice_skewed_default(2),
            RedundancyMode::srrs_spread(6, 3),
            RedundancyMode::slice(3),
        ] {
            let frame_plan =
                plan(&cfg(), &p, &mode).unwrap_or_else(|e| panic!("{mode:?}: calibration: {e}"));
            let mut gpu = Gpu::new(cfg());
            let run = run_pipeline(&mut gpu, &p, &mode, &frame_plan, FrameOptions::overlapped())
                .unwrap_or_else(|e| panic!("{mode:?}: frame: {e}"));
            assert!(run.completed(), "{mode:?}: {:?}", run.timings);
            let refs = p.reference_outputs();
            assert_eq!(run.outputs[p.sink()], refs[p.sink()], "{mode:?}");
        }
    }
}
