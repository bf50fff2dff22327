//! The N-modular redundant-execution protocol (paper Sec. IV-A,
//! generalized from the paper's two-replica DCLS scheme).
//!
//! An ASIL-D capable lockstep host CPU offloads a computation to the GPU by
//! (1) allocating device memory for **every** redundant kernel,
//! (2) transferring the input data N times, (3) launching the N redundant
//! kernels (under a diversity-enforcing scheduling policy),
//! (4) collecting all results, and (5) comparing — or, for N ≥ 3,
//! **majority-voting** ([`crate::vote`]) — them on the DCLS core.
//! With two replicas a mismatch means a fault corrupted one copy and the
//! computation is re-executed within the fault-tolerant time interval (see
//! [`crate::ftti`]); with three or more, a minority corruption is outvoted
//! and execution continues — detection becomes *correction*.
//!
//! [`RedundantExecutor`] drives this protocol over a [`higpu_sim::gpu::Gpu`].
//! Multi-kernel host programs (iterative solvers, wavefront algorithms)
//! naturally express as multiple `launch`/`sync` rounds; every launch is
//! replicated and tagged so the diversity analyzer can match block pairs.

use crate::policy::PolicyKind;
use crate::vote::{majority_vote, VotedWords};

/// Per-replica parameter materializer used by
/// [`RedundantExecutor::launch_with`]: writes replica `r`'s raw parameter
/// words into the executor's reusable scratch vector.
pub type ParamFill<'a> = dyn FnMut(usize, &mut Vec<u32>) -> Result<(), RedundancyError> + 'a;
use higpu_sim::gpu::{DevPtr, Gpu, SimError};
use higpu_sim::kernel::{Dim3, KernelId, KernelLaunch, LaunchConfig};
use higpu_sim::program::Program;
use std::sync::Arc;

/// Host-side interception point for [`RedundantExecutor::sync`].
///
/// The executor numbers its sync points (`segment` starts at 0 and
/// increments per call) and hands the hook exclusive device access; the
/// hook decides *how* the segment reaches its synchronization — running it
/// to idle, pausing at checkpoints along the way, or skipping it entirely
/// by restoring a previously recorded [`higpu_sim::gpu::DeviceSnapshot`].
/// Returns the device cycle at which the segment is considered
/// synchronized, exactly as [`higpu_sim::gpu::Gpu::run_to_idle`] would.
///
/// This is the seam the fault-campaign checkpointing machinery plugs into:
/// a recorder hook snapshots the fault-free reference pass at a fixed
/// stride, and a replayer hook fast-forwards each trial to the snapshot
/// nearest before its fault arm cycle, simulating only the corrupted
/// suffix.
pub trait SyncHook {
    /// Called in place of `run_to_idle` at sync point `segment`.
    ///
    /// # Errors
    ///
    /// Propagates device errors ([`SimError::Stalled`],
    /// [`SimError::DeadlineExceeded`]) exactly as a plain
    /// `run_to_idle` would, so callers classify failures identically
    /// whether or not a hook is installed.
    fn on_sync(&mut self, gpu: &mut Gpu, segment: usize) -> Result<u64, SimError>;
}

/// Worst-case duration, in cycles, of a transient common-cause fault (a
/// voltage droop striking every SM at once) assumed by the droop-aware
/// start skew. The campaign fault families inject droops up to this long;
/// a skew sized by [`crate::diversity::DiversityRequirements::for_droop_duration`]
/// of this constant guarantees no droop can hit the same computation point
/// in two concurrently executing replicas.
pub const WORST_CASE_CCF_CYCLES: u64 = 500;

/// How the redundant replicas are scheduled.
#[derive(Debug, Clone, PartialEq)]
pub enum RedundancyMode {
    /// Launch replicas back-to-back under the unconstrained COTS scheduler —
    /// redundancy without any diversity guarantee (the paper's baseline,
    /// generalized to N replicas so the frontier's baseline column exists
    /// at every replica count).
    Uncontrolled {
        /// Number of replicas (2 = the paper's configuration).
        replicas: u8,
    },
    /// SRRS: serialized execution, round-robin placement from per-replica
    /// start SMs (must be distinct modulo the SM count). N-replica-capable:
    /// one start SM per replica.
    Srrs {
        /// Start SM per replica.
        start_sms: Vec<usize>,
    },
    /// HALF: replica 0 on the lower SM half, replica 1 on the upper half —
    /// exactly SLICE with two replicas and no skew, so on an odd SM count
    /// the upper half gets the extra SM. Only defined for two replicas; see
    /// [`RedundancyMode::Slice`] for the N-replica generalization.
    Half,
    /// SLICE: the N-replica generalization of HALF — replica *r* confined
    /// to the *r*-th of `replicas` balanced SM slices, all replicas
    /// concurrent. Requires `2 ≤ replicas ≤ num_sms` so every slice owns at
    /// least one SM.
    ///
    /// `start_skew` is the droop-aware dispatch stagger: replica *r* is
    /// held back `r × start_skew` cycles before becoming schedulable. With
    /// `start_skew = 0` (the paper's plain SLICE) concurrent replicas start
    /// one dispatch gap apart, which a long droop can bridge — corrupting
    /// two replicas identically and outvoting the clean one (the `nw ×
    /// droop` finding of the NMR campaigns). A skew larger than the
    /// worst-case CCF duration closes that window; see
    /// [`RedundancyMode::slice_skewed`].
    Slice {
        /// Number of replicas (= SM slices).
        replicas: u8,
        /// Per-replica dispatch stagger in cycles (0 = plain SLICE).
        start_skew: u64,
    },
}

impl RedundancyMode {
    /// The scheduler policy this mode requires on the GPU.
    pub fn policy_kind(&self) -> PolicyKind {
        match self {
            RedundancyMode::Uncontrolled { .. } => PolicyKind::Default,
            RedundancyMode::Srrs { .. } => PolicyKind::Srrs,
            RedundancyMode::Half => PolicyKind::Half,
            RedundancyMode::Slice { start_skew: 0, .. } => PolicyKind::Slice,
            RedundancyMode::Slice { .. } => PolicyKind::SliceSkewed,
        }
    }

    /// Number of replicas this mode executes.
    pub fn replicas(&self) -> u8 {
        match self {
            RedundancyMode::Uncontrolled { replicas } => *replicas,
            RedundancyMode::Srrs { start_sms } => start_sms.len() as u8,
            RedundancyMode::Slice { replicas, .. } => *replicas,
            RedundancyMode::Half => 2,
        }
    }

    /// The paper's two-replica uncontrolled COTS baseline.
    pub fn uncontrolled() -> Self {
        RedundancyMode::Uncontrolled { replicas: 2 }
    }

    /// Plain (unskewed) SLICE at `replicas` replicas — the paper-era
    /// configuration whose behaviour is frozen by the golden tests.
    pub fn slice(replicas: u8) -> Self {
        RedundancyMode::Slice {
            replicas,
            start_skew: 0,
        }
    }

    /// Droop-aware SLICE: concurrent slices with replica *r* held back
    /// `r × skew` cycles. Use [`RedundancyMode::slice_skewed_default`] for a
    /// skew sized to the campaign's worst-case CCF.
    pub fn slice_skewed(replicas: u8, start_skew: u64) -> Self {
        RedundancyMode::Slice {
            replicas,
            start_skew,
        }
    }

    /// Droop-aware SLICE with the default skew: one cycle more than
    /// [`WORST_CASE_CCF_CYCLES`] (cf.
    /// [`crate::diversity::DiversityRequirements::for_droop_duration`]), so
    /// no modelled droop can overlap the same computation point in two
    /// replicas.
    pub fn slice_skewed_default(replicas: u8) -> Self {
        Self::slice_skewed(
            replicas,
            crate::diversity::DiversityRequirements::for_droop_duration(WORST_CASE_CCF_CYCLES)
                .min_start_skew,
        )
    }

    /// Default SRRS mode for a GPU with `num_sms` SMs: two replicas with
    /// maximally separated start SMs (0 and n/2). Equal to
    /// [`RedundancyMode::srrs_spread`] at 2 replicas.
    pub fn srrs_default(num_sms: usize) -> Self {
        RedundancyMode::Srrs {
            start_sms: vec![0, num_sms / 2],
        }
    }

    /// SRRS mode with `replicas` evenly spread start SMs on a GPU with
    /// `num_sms` SMs: replica *r* starts at SM `r·num_sms/replicas`. For
    /// 6 SMs this yields `[0, 3]` at N = 2 (the paper's configuration) and
    /// `[0, 2, 4]` at N = 3 (TMR).
    pub fn srrs_spread(num_sms: usize, replicas: u8) -> Self {
        RedundancyMode::Srrs {
            start_sms: (0..usize::from(replicas))
                .map(|r| r * num_sms / usize::from(replicas).max(1))
                .collect(),
        }
    }

    /// [`RedundancyMode::srrs_spread`] on a degraded device: start SMs are
    /// spread over the `healthy` SMs only (ascending ids, e.g. the
    /// complement of `Gpu::quarantined_sms`), so no replica starts its
    /// rotation on quarantined hardware. Replica *r* starts at
    /// `healthy[r·h/replicas]`; equal to `srrs_spread` when every SM is
    /// healthy. `None` when fewer healthy SMs remain than replicas (the
    /// start SMs could no longer be pairwise distinct — the mode is
    /// unschedulable on the remaining capacity).
    pub fn srrs_spread_healthy(healthy: &[usize], replicas: u8) -> Option<Self> {
        let h = healthy.len();
        if h < usize::from(replicas) {
            return None;
        }
        Some(RedundancyMode::Srrs {
            start_sms: (0..usize::from(replicas))
                .map(|r| healthy[r * h / usize::from(replicas).max(1)])
                .collect(),
        })
    }
}

/// Errors of the redundant-execution protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum RedundancyError {
    /// Underlying device error.
    Sim(SimError),
    /// The mode is mis-parameterized (e.g. SRRS replicas sharing a start SM,
    /// HALF with ≠ 2 replicas).
    InvalidMode(String),
    /// A parameter referenced a logical buffer with the wrong replica count.
    BufferArity {
        /// Replicas the buffer was allocated for.
        buffer: usize,
        /// Replicas the executor runs.
        executor: usize,
    },
}

impl std::fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedundancyError::Sim(e) => write!(f, "device error: {e}"),
            RedundancyError::InvalidMode(m) => write!(f, "invalid redundancy mode: {m}"),
            RedundancyError::BufferArity { buffer, executor } => write!(
                f,
                "buffer allocated for {buffer} replicas used with {executor} replicas"
            ),
        }
    }
}

impl std::error::Error for RedundancyError {}

impl From<SimError> for RedundancyError {
    fn from(e: SimError) -> Self {
        RedundancyError::Sim(e)
    }
}

/// A logical device buffer with one physical allocation per replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RBuf {
    ptrs: Vec<DevPtr>,
    words: u32,
}

impl RBuf {
    /// The physical pointer for `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn ptr(&self, replica: usize) -> DevPtr {
        self.ptrs[replica]
    }

    /// Buffer length in 32-bit words.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.ptrs.len()
    }
}

/// A kernel parameter in replica-generic form.
#[derive(Debug, Clone, Copy)]
pub enum RParam<'a> {
    /// The replica-local address of a logical buffer.
    Buf(&'a RBuf),
    /// The replica-local address of a buffer plus a word offset.
    BufOffset(&'a RBuf, u32),
    /// A raw word, identical across replicas.
    U32(u32),
    /// A signed integer, identical across replicas.
    I32(i32),
    /// A float (raw bits), identical across replicas.
    F32(f32),
}

/// Outcome of collecting and comparing redundant results on the DCLS host.
#[derive(Debug, Clone, PartialEq)]
pub enum Comparison<T> {
    /// Replicas agree bitwise; the value is safe to consume.
    Match(T),
    /// Replicas disagree: a fault corrupted at least one copy. The
    /// computation must be re-executed (fail-operational recovery).
    Mismatch {
        /// Word index of the first disagreement.
        first_word: usize,
        /// Number of disagreeing words.
        diff_words: usize,
        /// The replica outputs, for diagnosis.
        outputs: Vec<T>,
    },
}

impl<T> Comparison<T> {
    /// True when all replicas agreed.
    pub fn is_match(&self) -> bool {
        matches!(self, Comparison::Match(_))
    }

    /// The agreed value, if any.
    pub fn into_match(self) -> Option<T> {
        match self {
            Comparison::Match(v) => Some(v),
            Comparison::Mismatch { .. } => None,
        }
    }
}

/// Drives the five-step DCLS redundant offload protocol on a GPU.
///
/// # Examples
///
/// ```
/// use higpu_core::redundancy::{RedundancyMode, RedundantExecutor, RParam};
/// use higpu_sim::builder::KernelBuilder;
/// use higpu_sim::config::GpuConfig;
/// use higpu_sim::gpu::Gpu;
/// use higpu_sim::kernel::Dim3;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gpu = Gpu::new(GpuConfig::paper_6sm());
/// let mode = RedundancyMode::srrs_default(6);
/// let mut exec = RedundantExecutor::new(&mut gpu, mode)?;
///
/// // out[i] = i * 3
/// let mut b = KernelBuilder::new("triple");
/// let out = b.param(0);
/// let i = b.global_tid_x();
/// let addr = b.addr_w(out, i);
/// let v = b.imul(i, 3u32);
/// b.stg(addr, 0, v);
/// let prog = b.build()?.into_shared();
///
/// let out_buf = exec.alloc_words(64)?;
/// exec.launch(&prog, Dim3::x(2), Dim3::x(32), 0, &[RParam::Buf(&out_buf)])?;
/// exec.sync()?;
/// let result = exec.read_compare_u32(&out_buf, 64)?;
/// assert!(result.is_match());
/// # Ok(())
/// # }
/// ```
pub struct RedundantExecutor<'g> {
    gpu: &'g mut Gpu,
    mode: RedundancyMode,
    replicas: u8,
    next_group: u32,
    launches: Vec<Vec<KernelId>>,
    /// Reusable parameter-word scratch for [`RedundantExecutor::launch_with`]
    /// (steady-state launches materialize replica parameters in place
    /// instead of allocating a fresh vector per replica).
    param_scratch: Vec<u32>,
    /// Optional interception of [`RedundantExecutor::sync`]; see [`SyncHook`].
    sync_hook: Option<Box<dyn SyncHook + 'g>>,
    /// Zero-based index of the next sync point, fed to the hook.
    segment: usize,
}

impl std::fmt::Debug for RedundantExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RedundantExecutor")
            .field("mode", &self.mode)
            .field("replicas", &self.replicas)
            .field("next_group", &self.next_group)
            .field("launches", &self.launches)
            .field("segment", &self.segment)
            .field("sync_hook", &self.sync_hook.as_ref().map(|_| "installed"))
            .finish_non_exhaustive()
    }
}

impl<'g> RedundantExecutor<'g> {
    /// Creates an executor and installs the scheduling policy `mode`
    /// requires on the GPU.
    ///
    /// # Errors
    ///
    /// * [`RedundancyError::InvalidMode`] for fewer than two replicas,
    ///   duplicate SRRS start SMs (modulo the SM count), or HALF with ≠ 2
    ///   replicas.
    /// * [`RedundancyError::Sim`] if the GPU is not idle.
    pub fn new(gpu: &'g mut Gpu, mode: RedundancyMode) -> Result<Self, RedundancyError> {
        let replicas = mode.replicas();
        if replicas < 2 {
            return Err(RedundancyError::InvalidMode(
                "at least two replicas required".into(),
            ));
        }
        let n = gpu.config().num_sms;
        if let RedundancyMode::Srrs { start_sms } = &mode {
            for (i, a) in start_sms.iter().enumerate() {
                for b in &start_sms[i + 1..] {
                    if a % n == b % n {
                        return Err(RedundancyError::InvalidMode(format!(
                            "SRRS start SMs must differ modulo {n}: {a} vs {b}"
                        )));
                    }
                }
            }
        }
        if matches!(mode, RedundancyMode::Half) && replicas != 2 {
            return Err(RedundancyError::InvalidMode(
                "HALF partitions support exactly two replicas".into(),
            ));
        }
        if matches!(mode, RedundancyMode::Slice { .. }) && usize::from(replicas) > n {
            return Err(RedundancyError::InvalidMode(format!(
                "SLICE needs at least one SM per replica: {replicas} replicas on {n} SMs"
            )));
        }
        gpu.set_policy(mode.policy_kind().build())?;
        // Group identifiers must stay unique across executors sharing one
        // GPU (e.g. per-kernel policy phases), or the diversity analyzer
        // would cross-match unrelated launches.
        let next_group = gpu
            .trace()
            .kernels
            .iter()
            .filter_map(|k| k.attrs.redundant.map(|t| t.group + 1))
            .max()
            .unwrap_or(0);
        Ok(Self {
            gpu,
            mode,
            replicas,
            next_group,
            launches: Vec::new(),
            param_scratch: Vec::new(),
            sync_hook: None,
            segment: 0,
        })
    }

    /// Installs a [`SyncHook`] that intercepts every subsequent
    /// [`RedundantExecutor::sync`]. Replaces any previously installed hook;
    /// the segment counter keeps running (sync points are numbered per
    /// executor, not per hook).
    pub fn set_sync_hook(&mut self, hook: Box<dyn SyncHook + 'g>) {
        self.sync_hook = Some(hook);
    }

    /// The executing GPU (e.g. for trace inspection).
    pub fn gpu(&self) -> &Gpu {
        self.gpu
    }

    /// Mutable access to the executing GPU — for fault injection and
    /// diagnosis. Writes that bypass the replication protocol void the
    /// executor's comparison guarantees; production code never needs this.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        self.gpu
    }

    /// Number of replicas per logical computation.
    pub fn replicas(&self) -> u8 {
        self.replicas
    }

    /// The redundancy mode in use.
    pub fn mode(&self) -> &RedundancyMode {
        &self.mode
    }

    /// Kernel ids launched so far, one `Vec` (of all replicas) per logical
    /// launch.
    pub fn launch_groups(&self) -> &[Vec<KernelId>] {
        &self.launches
    }

    /// Step (1): allocates a logical buffer — one physical allocation per
    /// replica.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::Sim`] when device memory is exhausted.
    pub fn alloc_words(&mut self, words: u32) -> Result<RBuf, RedundancyError> {
        let mut ptrs = Vec::with_capacity(self.replicas as usize);
        for _ in 0..self.replicas {
            ptrs.push(self.gpu.alloc_words(words)?);
        }
        Ok(RBuf { ptrs, words })
    }

    fn check_arity(&self, buf: &RBuf) -> Result<(), RedundancyError> {
        if buf.replicas() != self.replicas as usize {
            return Err(RedundancyError::BufferArity {
                buffer: buf.replicas(),
                executor: self.replicas as usize,
            });
        }
        Ok(())
    }

    /// Step (2): transfers host data into every replica of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::BufferArity`] on replica-count mismatch.
    pub fn write_u32(&mut self, buf: &RBuf, data: &[u32]) -> Result<(), RedundancyError> {
        self.check_arity(buf)?;
        for r in 0..self.replicas as usize {
            self.gpu.write_u32(buf.ptr(r), data);
        }
        Ok(())
    }

    /// Step (2): transfers host `f32` data into every replica of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::BufferArity`] on replica-count mismatch.
    pub fn write_f32(&mut self, buf: &RBuf, data: &[f32]) -> Result<(), RedundancyError> {
        self.check_arity(buf)?;
        for r in 0..self.replicas as usize {
            self.gpu.write_f32(buf.ptr(r), data);
        }
        Ok(())
    }

    /// Step (3): launches all replicas of one logical kernel.
    ///
    /// Replica `r` receives the replica-local buffer addresses from
    /// `params`, the diversity attributes of the executor's mode (start SM /
    /// partition / slice), and a fresh redundancy-group tag for trace
    /// matching.
    ///
    /// # Errors
    ///
    /// Propagates launch errors (unschedulable geometry, buffer arity).
    pub fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        shared_mem_bytes: u32,
        params: &[RParam<'_>],
    ) -> Result<u32, RedundancyError> {
        for p in params {
            if let RParam::Buf(b) | RParam::BufOffset(b, _) = p {
                self.check_arity(b)?;
            }
        }
        self.launch_with(
            program,
            grid,
            block,
            shared_mem_bytes,
            &mut |replica, out| {
                for p in params {
                    match p {
                        RParam::Buf(b) => out.push(b.ptr(replica).0),
                        RParam::BufOffset(b, w) => out.push(b.ptr(replica).offset_words(*w).0),
                        RParam::U32(v) => out.push(*v),
                        RParam::I32(v) => out.push(*v as u32),
                        RParam::F32(v) => out.push(v.to_bits()),
                    }
                }
                Ok(())
            },
        )
    }

    /// Allocation-light form of [`RedundantExecutor::launch`]: instead of a
    /// replica-generic parameter slice, `fill` writes replica `r`'s raw
    /// parameter words into a scratch vector the executor reuses across
    /// launches. [`higpu_workloads`]' redundant sessions use this to keep
    /// steady-state launches free of per-launch buffer-table clones.
    ///
    /// One exact-size parameter vector per replica is still allocated —
    /// that is the [`higpu_sim::gpu::Gpu::launch`] interface (the launch
    /// consumes its `LaunchConfig::params`). The scratch buys exactly two
    /// things: `fill` never grows a cold vector (so no per-call growth
    /// reallocations), and the caller needs no allocation of its own to
    /// assemble parameters. The per-launch allocation count is therefore
    /// small and independent of caller state (test-enforced in
    /// `higpu_workloads`' counting-allocator fence).
    ///
    /// # Errors
    ///
    /// Propagates errors from `fill` (e.g. buffer arity) and launch errors
    /// (unschedulable geometry).
    pub fn launch_with(
        &mut self,
        program: &Arc<Program>,
        grid: impl Into<Dim3>,
        block: impl Into<Dim3>,
        shared_mem_bytes: u32,
        fill: &mut ParamFill<'_>,
    ) -> Result<u32, RedundancyError> {
        let grid = grid.into();
        let block = block.into();
        let group = self.next_group;
        self.next_group += 1;
        let mut ids = Vec::with_capacity(self.replicas as usize);
        for r in 0..self.replicas as usize {
            let mut scratch = std::mem::take(&mut self.param_scratch);
            scratch.clear();
            if let Err(e) = fill(r, &mut scratch) {
                self.param_scratch = scratch;
                return Err(e);
            }
            let mut cfg = LaunchConfig::new(grid, block).shared_mem(shared_mem_bytes);
            cfg.params.clone_from(&scratch);
            self.param_scratch = scratch;
            let mut launch = KernelLaunch::new(program.clone(), cfg)
                .tag(format!("{}#g{}r{}", program.name(), group, r))
                .redundant(group, r as u8);
            match &self.mode {
                RedundancyMode::Uncontrolled { .. } => {}
                RedundancyMode::Srrs { start_sms } => {
                    launch = launch.start_sm(start_sms[r]);
                }
                RedundancyMode::Half => {
                    launch = launch.slice(r as u8, 2);
                }
                RedundancyMode::Slice {
                    replicas,
                    start_skew,
                } => {
                    launch = launch
                        .slice(r as u8, *replicas)
                        .dispatch_delay(r as u64 * start_skew);
                }
            }
            ids.push(self.gpu.launch(launch)?);
        }
        self.launches.push(ids);
        Ok(group)
    }

    /// Waits for all launched replicas to complete (the host-side
    /// synchronization point between dependent kernels).
    ///
    /// With a [`SyncHook`] installed the hook runs the segment instead
    /// (recording checkpoints, or skipping it via snapshot restore); either
    /// way the returned cycle is the device clock at synchronization.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Stalled`] from the device.
    pub fn sync(&mut self) -> Result<u64, RedundancyError> {
        let segment = self.segment;
        self.segment += 1;
        match &mut self.sync_hook {
            Some(hook) => Ok(hook.on_sync(self.gpu, segment)?),
            None => Ok(self.gpu.run_to_idle()?),
        }
    }

    /// Steps (4)+(5): reads `words` words from every replica of `buf` and
    /// compares them bitwise on the (assumed fault-free, DCLS-protected)
    /// host.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::BufferArity`] on replica-count mismatch.
    pub fn read_compare_u32(
        &mut self,
        buf: &RBuf,
        words: usize,
    ) -> Result<Comparison<Vec<u32>>, RedundancyError> {
        self.check_arity(buf)?;
        let outputs: Vec<Vec<u32>> = (0..self.replicas as usize)
            .map(|r| self.gpu.read_u32(buf.ptr(r), words))
            .collect();
        let reference = &outputs[0];
        let mut first = None;
        let mut diffs = 0usize;
        for w in 0..words {
            if outputs.iter().any(|o| o[w] != reference[w]) {
                diffs += 1;
                if first.is_none() {
                    first = Some(w);
                }
            }
        }
        Ok(match first {
            None => Comparison::Match(outputs.into_iter().next().expect("replica 0")),
            Some(first_word) => Comparison::Mismatch {
                first_word,
                diff_words: diffs,
                outputs,
            },
        })
    }

    /// Like [`RedundantExecutor::read_compare_u32`] but reinterprets the
    /// agreed words as `f32` (comparison itself stays bitwise, as the DCLS
    /// host compares raw words).
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::BufferArity`] on replica-count mismatch.
    pub fn read_compare_f32(
        &mut self,
        buf: &RBuf,
        words: usize,
    ) -> Result<Comparison<Vec<f32>>, RedundancyError> {
        Ok(match self.read_compare_u32(buf, words)? {
            Comparison::Match(v) => Comparison::Match(v.into_iter().map(f32::from_bits).collect()),
            Comparison::Mismatch {
                first_word,
                diff_words,
                outputs,
            } => Comparison::Mismatch {
                first_word,
                diff_words,
                outputs: outputs
                    .into_iter()
                    .map(|o| o.into_iter().map(f32::from_bits).collect())
                    .collect(),
            },
        })
    }

    /// Steps (4)+(5), NMR form: reads `words` words from every replica of
    /// `buf` and **majority-votes** them bitwise per word on the (assumed
    /// fault-free, DCLS-protected) host — see [`crate::vote`].
    ///
    /// With two replicas this is equivalent to
    /// [`RedundantExecutor::read_compare_u32`]: any disagreement is a
    /// [`crate::vote::VoteOutcome::Tied`] and the surviving value is
    /// replica 0's. With three or more, a minority corruption yields
    /// [`crate::vote::VoteOutcome::Corrected`] and the voted value masks it.
    ///
    /// # Errors
    ///
    /// Returns [`RedundancyError::BufferArity`] on replica-count mismatch.
    pub fn read_vote_u32(
        &mut self,
        buf: &RBuf,
        words: usize,
    ) -> Result<VotedWords, RedundancyError> {
        self.check_arity(buf)?;
        let outputs: Vec<Vec<u32>> = (0..self.replicas as usize)
            .map(|r| self.gpu.read_u32(buf.ptr(r), words))
            .collect();
        let refs: Vec<&[u32]> = outputs.iter().map(Vec::as_slice).collect();
        Ok(majority_vote(&refs, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversity::{analyze, DiversityRequirements};
    use higpu_sim::builder::KernelBuilder;
    use higpu_sim::config::GpuConfig;

    fn triple_kernel() -> Arc<Program> {
        let mut b = KernelBuilder::new("triple");
        let out = b.param(0);
        let i = b.global_tid_x();
        let addr = b.addr_w(out, i);
        let v = b.imul(i, 3u32);
        b.stg(addr, 0, v);
        b.build().expect("valid").into_shared()
    }

    #[test]
    fn srrs_redundant_run_matches_and_is_diverse() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let prog = triple_kernel();
        let out = exec.alloc_words(128).expect("alloc");
        exec.launch(&prog, 4u32, 32u32, 0, &[RParam::Buf(&out)])
            .expect("launch");
        exec.sync().expect("run");
        let cmp = exec.read_compare_u32(&out, 128).expect("compare");
        let data = cmp.into_match().expect("replicas agree");
        assert_eq!(data[5], 15);
        drop(exec);
        let report = analyze(gpu.trace(), DiversityRequirements::default());
        assert!(report.is_diverse(), "SRRS guarantees diversity: {report:?}");
        assert_eq!(report.pairs_checked, 4);
    }

    #[test]
    fn half_redundant_run_matches_and_is_diverse() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::Half).expect("mode");
        let prog = triple_kernel();
        let out = exec.alloc_words(128).expect("alloc");
        exec.launch(&prog, 4u32, 32u32, 0, &[RParam::Buf(&out)])
            .expect("launch");
        exec.sync().expect("run");
        assert!(exec.read_compare_u32(&out, 128).expect("cmp").is_match());
        drop(exec);
        let report = analyze(gpu.trace(), DiversityRequirements::default());
        assert!(report.is_diverse(), "HALF guarantees diversity: {report:?}");
    }

    #[test]
    fn srrs_rejects_equal_start_sms() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let err = RedundantExecutor::new(
            &mut gpu,
            RedundancyMode::Srrs {
                start_sms: vec![1, 7], // 7 % 6 == 1
            },
        )
        .expect_err("must reject");
        assert!(matches!(err, RedundancyError::InvalidMode(_)));
    }

    #[test]
    fn single_replica_rejected() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let err = RedundantExecutor::new(&mut gpu, RedundancyMode::Srrs { start_sms: vec![0] })
            .expect_err("must reject");
        assert!(matches!(err, RedundancyError::InvalidMode(_)));
    }

    #[test]
    fn triple_modular_redundancy_runs() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(
            &mut gpu,
            RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4],
            },
        )
        .expect("TMR mode");
        assert_eq!(exec.replicas(), 3);
        let prog = triple_kernel();
        let out = exec.alloc_words(64).expect("alloc");
        exec.launch(&prog, 2u32, 32u32, 0, &[RParam::Buf(&out)])
            .expect("launch");
        exec.sync().expect("run");
        assert!(exec.read_compare_u32(&out, 64).expect("cmp").is_match());
        drop(exec);
        let report = analyze(gpu.trace(), DiversityRequirements::default());
        assert!(report.is_diverse());
        assert_eq!(report.pairs_checked, 2 * 3, "2 blocks x 3 pairs");
    }

    #[test]
    fn slice_tmr_runs_diverse_and_unanimous() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::slice(3)).expect("mode");
        assert_eq!(exec.replicas(), 3);
        let prog = triple_kernel();
        let out = exec.alloc_words(64).expect("alloc");
        exec.launch(&prog, 2u32, 32u32, 0, &[RParam::Buf(&out)])
            .expect("launch");
        exec.sync().expect("run");
        let vote = exec.read_vote_u32(&out, 64).expect("vote");
        assert!(vote.outcome.is_unanimous());
        assert_eq!(vote.value[5], 15);
        drop(exec);
        let report = analyze(gpu.trace(), DiversityRequirements::default());
        assert!(
            report.is_diverse(),
            "SLICE guarantees diversity: {report:?}"
        );
        // Every block ran in its replica's slice.
        for rec in &gpu.trace().blocks {
            let k = gpu.trace().kernel(rec.kernel).expect("kernel");
            let replica = k.attrs.redundant.expect("tag").replica;
            let slice = k.attrs.slice.expect("slice hint");
            assert_eq!(slice.index, replica);
            assert!(slice.contains(rec.sm, 6), "replica escaped its slice");
        }
    }

    #[test]
    fn slice_rejects_more_replicas_than_sms() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let err =
            RedundantExecutor::new(&mut gpu, RedundancyMode::slice(7)).expect_err("must reject");
        assert!(matches!(err, RedundancyError::InvalidMode(_)));
    }

    #[test]
    fn srrs_spread_matches_default_at_two_and_roadmap_tmr_at_three() {
        assert_eq!(
            RedundancyMode::srrs_spread(6, 2),
            RedundancyMode::srrs_default(6)
        );
        assert_eq!(
            RedundancyMode::srrs_spread(6, 3),
            RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4]
            }
        );
        assert_eq!(RedundancyMode::srrs_spread(6, 3).replicas(), 3);
        // Spread start SMs stay pairwise distinct modulo n up to n replicas.
        for n in [2usize, 5, 6, 8] {
            for replicas in 2..=n as u8 {
                let mut gpu = Gpu::new(GpuConfig::paper_6sm());
                if n == 6 {
                    RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_spread(n, replicas))
                        .expect("valid spread");
                }
            }
        }
    }

    #[test]
    fn srrs_spread_healthy_avoids_quarantined_sms() {
        // Fully healthy device: identical to the classic spread.
        let healthy: Vec<usize> = (0..6).collect();
        assert_eq!(
            RedundancyMode::srrs_spread_healthy(&healthy, 2),
            Some(RedundancyMode::srrs_spread(6, 2))
        );
        // SM 3 quarantined on a 6-SM device: replica 1 would classically
        // start at SM 3; the healthy spread moves it to a live SM.
        let healthy = vec![0, 1, 2, 4, 5];
        let mode = RedundancyMode::srrs_spread_healthy(&healthy, 2).expect("schedulable");
        assert_eq!(
            mode,
            RedundancyMode::Srrs {
                start_sms: vec![0, 2]
            }
        );
        // More replicas than healthy SMs: unschedulable, not a panic.
        assert_eq!(RedundancyMode::srrs_spread_healthy(&[0, 4], 3), None);
    }

    #[test]
    fn tmr_vote_corrects_a_single_corrupted_replica() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec = RedundantExecutor::new(
            &mut gpu,
            RedundancyMode::Srrs {
                start_sms: vec![0, 2, 4],
            },
        )
        .expect("mode");
        let buf = exec.alloc_words(8).expect("alloc");
        exec.write_u32(&buf, &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("write");
        // Corrupt replica 1 behind the executor's back (simulating a fault).
        let p1 = buf.ptr(1);
        exec.gpu.write_u32(DevPtr(p1.0 + 8), &[99, 98]);
        let vote = exec.read_vote_u32(&buf, 8).expect("vote");
        assert_eq!(
            vote.outcome,
            crate::vote::VoteOutcome::Corrected {
                first_word: 2,
                corrected_words: 2
            }
        );
        assert_eq!(
            vote.value,
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            "2-of-3 majority restores the clean data"
        );
        // The pairwise compare still reports the same corruption as a
        // mismatch (detection without correction).
        assert!(!exec.read_compare_u32(&buf, 8).expect("cmp").is_match());
    }

    #[test]
    fn two_replica_vote_equals_pairwise_compare() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let buf = exec.alloc_words(8).expect("alloc");
        exec.write_u32(&buf, &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("write");
        let p1 = buf.ptr(1);
        exec.gpu.write_u32(DevPtr(p1.0 + 8), &[99, 98]);
        let vote = exec.read_vote_u32(&buf, 8).expect("vote");
        assert_eq!(
            vote.outcome,
            crate::vote::VoteOutcome::Tied {
                first_word: 2,
                tied_words: 2,
                corrected_words: 0
            },
            "a 2-replica disagreement can never be outvoted"
        );
        assert_eq!(
            vote.value,
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            "replica 0 survives, exactly as the DCLS compare hands back"
        );
    }

    #[test]
    fn mismatch_reports_first_difference() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let buf = exec.alloc_words(8).expect("alloc");
        exec.write_u32(&buf, &[1, 2, 3, 4, 5, 6, 7, 8])
            .expect("write");
        // Corrupt replica 1 behind the executor's back (simulating a fault).
        let p1 = buf.ptr(1);
        exec.gpu.write_u32(DevPtr(p1.0 + 8), &[99, 98]);
        match exec.read_compare_u32(&buf, 8).expect("cmp") {
            Comparison::Mismatch {
                first_word,
                diff_words,
                outputs,
            } => {
                assert_eq!(first_word, 2);
                assert_eq!(diff_words, 2);
                assert_eq!(outputs.len(), 2);
            }
            Comparison::Match(_) => panic!("corruption must be detected"),
        }
    }

    #[test]
    fn buffer_arity_is_checked() {
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let foreign = RBuf {
            ptrs: vec![DevPtr(0)],
            words: 4,
        };
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let err = exec.write_u32(&foreign, &[0; 4]).expect_err("arity");
        assert!(matches!(err, RedundancyError::BufferArity { .. }));
    }

    #[test]
    fn uncontrolled_mode_provides_no_diversity_evidence_for_short_gaps() {
        // With the default scheduler both replicas spread over all SMs; for a
        // multi-block kernel some redundant pair almost always shares an SM.
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::uncontrolled()).expect("mode");
        let prog = triple_kernel();
        let out = exec.alloc_words(512).expect("alloc");
        exec.launch(&prog, 12u32, 32u32, 0, &[RParam::Buf(&out)])
            .expect("launch");
        exec.sync().expect("run");
        drop(exec);
        let report = analyze(gpu.trace(), DiversityRequirements::default());
        assert!(
            report.spatial_violations > 0,
            "uncontrolled placement reuses SMs across replicas: {report:?}"
        );
    }
}
