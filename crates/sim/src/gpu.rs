//! The top-level GPU device: global memory, kernel launch queue, the cycle
//! loop, and the scheduling round that consults the installed kernel
//! scheduler policy.

use crate::block::{BlockDims, BlockState};
use crate::config::GpuConfig;
use crate::fault::{FaultHook, NoFaults};
use crate::kernel::{BlockFootprint, KernelId, KernelLaunch, LaunchAttrs};
use crate::mem::system::MemorySystem;
use crate::scheduler::{
    Assignment, DefaultScheduler, KernelSchedulerPolicy, KernelSnapshot, SchedulerView, SmSnapshot,
};
use crate::sm::{BlockCompletion, IssueRecord, Sm, SmState};
use crate::stats::SimStats;
use crate::trace::{BlockRecord, ExecutionTrace, KernelRecord};
use higpu_telemetry::{EventKind, EventRing, TraceEvent, NO_SM};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Cycles between a block's dispatch decision and its warps becoming
/// issuable (pipeline fill / context initialization).
const BLOCK_DISPATCH_LATENCY: u64 = 10;

/// Errors reported by the GPU device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The simulation cannot make progress (scheduler refuses to dispatch
    /// pending work and no event is outstanding).
    Stalled {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Blocks that remain undispatched.
        pending_blocks: u32,
    },
    /// Device memory allocation failed.
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
        /// Bytes available.
        available: u32,
    },
    /// Operation requires an idle device (e.g. policy replacement).
    NotIdle,
    /// A launch exceeded per-SM resources (the block can never be placed).
    Unschedulable {
        /// Program name of the offending launch.
        program: String,
    },
    /// The watchdog cycle limit ([`Gpu::set_cycle_limit`]) elapsed before
    /// the launched kernels completed. Models the DCLS host's deadline
    /// monitor: a fault that sends a kernel into a runaway loop is caught
    /// as a timing violation within the fault-tolerant time interval.
    DeadlineExceeded {
        /// Cycle at which the simulation was cut off.
        cycle: u64,
        /// The configured limit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Stalled {
                cycle,
                pending_blocks,
            } => write!(
                f,
                "simulation stalled at cycle {cycle} with {pending_blocks} pending blocks"
            ),
            SimError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device allocation of {requested} bytes exceeds {available} free bytes"
            ),
            SimError::NotIdle => write!(f, "operation requires an idle device"),
            SimError::Unschedulable { program } => {
                write!(f, "kernel '{program}' can never fit on any SM")
            }
            SimError::DeadlineExceeded { cycle, limit } => {
                write!(
                    f,
                    "watchdog deadline of {limit} cycles exceeded at cycle {cycle}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A device memory address (byte offset into GPU global memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevPtr(pub u32);

impl DevPtr {
    /// The address `words * 4` bytes past this pointer.
    pub fn offset_words(self, words: u32) -> DevPtr {
        DevPtr(self.0 + words * 4)
    }
}

#[derive(Debug, Clone)]
struct KernelRuntime {
    id: KernelId,
    /// The program the blocks execute (shared with every dispatched block).
    program: Arc<crate::program::Program>,
    /// Grid geometry (the rest of the original [`LaunchConfig`] — shared
    /// memory, parameter words — lives in `footprint` / `params`; the
    /// launch descriptor itself is not retained, so its `LaunchAttrs` copy
    /// is gone and only the snapshot-shared `Arc` below remains).
    grid: crate::kernel::Dim3,
    /// Block geometry.
    block: crate::kernel::Dim3,
    /// Launch attributes shared with per-round scheduler snapshots (an
    /// `Arc` clone instead of a deep `LaunchAttrs` clone keeps the
    /// scheduling round allocation-free).
    attrs: Arc<LaunchAttrs>,
    params: Arc<[u32]>,
    footprint: BlockFootprint,
    arrival: u64,
    blocks_issued: u32,
    blocks_done: u32,
    record: usize,
}

impl KernelRuntime {
    fn blocks_total(&self) -> u32 {
        self.grid.count().min(u64::from(u32::MAX)) as u32
    }

    fn is_finished(&self) -> bool {
        self.blocks_done == self.blocks_total()
    }
}

/// Reusable buffers of the scheduling round and the cycle loop. Scheduling
/// rounds are rare next to instructions, but campaigns run millions of them;
/// keeping the snapshot/assignment vectors warm makes a steady-state round
/// perform **zero** heap allocations (test-enforced).
#[derive(Debug, Default)]
struct SchedScratch {
    kernels: Vec<KernelSnapshot>,
    sms: Vec<SmSnapshot>,
    assignments: Vec<Assignment>,
    fits: Vec<bool>,
    completions: Vec<BlockCompletion>,
}

/// A point-in-time capture of the full architectural state of a [`Gpu`]:
/// clock, dirty prefix of the memory image, memory-hierarchy timing state,
/// kernel launch table, per-SM block/warp state, execution trace, counters,
/// SM health and scheduler-policy state.
///
/// Produced by [`Gpu::snapshot`] and applied by [`Gpu::restore`]. Restoring
/// a snapshot and running to idle is **bit-identical** — same
/// [`IssueRecord`] stream, statistics and trace — to running straight
/// through (snapshots carry no run-loop state; the loop rebuilds its
/// queues on entry).
///
/// Deliberately *not* captured:
///
/// * the watchdog limit ([`Gpu::set_cycle_limit`]) — a deadline is harness
///   state, not device state; a trial restored at cycle `C` keeps the same
///   absolute deadline as a from-zero run;
/// * the fault hook — injection schedules belong to the trial, not the
///   checkpoint;
/// * the policy *object* — only its serialized state
///   ([`KernelSchedulerPolicy::save_state`]) is captured, so the caller
///   must have the same kind of policy installed when restoring.
///
/// Snapshots are immutable, reusable (one snapshot can seed many restored
/// runs) and `Send + Sync` (programs and launch attributes are shared via
/// `Arc`), so fault-injection campaigns can share one checkpoint store
/// across worker threads.
#[derive(Debug, Clone)]
pub struct DeviceSnapshot {
    cycle: u64,
    next_dispatch_slot: u64,
    alloc_cursor: u32,
    dirty_hi: u32,
    next_kernel_id: u64,
    sched_dirty: bool,
    instructions: u64,
    kernels_completed: u64,
    blocks_completed: u64,
    quarantined: Vec<bool>,
    /// Dirty prefix of the word-addressed memory image (`dirty_hi` bytes).
    mem: Vec<u32>,
    /// Total device memory capacity in words (restore-target validation).
    mem_words: usize,
    memsys: MemorySystem,
    kernels: Vec<KernelRuntime>,
    trace: ExecutionTrace,
    sms: Vec<SmState>,
    policy_state: Vec<u64>,
}

impl DeviceSnapshot {
    /// The cycle at which this snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Approximate heap footprint in bytes (dominated by the dirty memory
    /// prefix; used for checkpoint-store budgeting and reporting).
    pub fn approx_bytes(&self) -> usize {
        self.mem.len() * 4 + std::mem::size_of::<Self>()
    }
}

/// The simulated GPU device.
///
/// # Examples
///
/// ```
/// use higpu_sim::builder::KernelBuilder;
/// use higpu_sim::config::GpuConfig;
/// use higpu_sim::gpu::Gpu;
/// use higpu_sim::kernel::{KernelLaunch, LaunchConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
/// let buf = gpu.alloc_words(32)?;
/// gpu.write_u32(buf, &[5; 32]);
///
/// // y[i] += 1 for every thread.
/// let mut b = KernelBuilder::new("inc");
/// let base = b.param(0);
/// let i = b.global_tid_x();
/// let a = b.addr_w(base, i);
/// let v = b.ldg(a, 0);
/// let v1 = b.iadd(v, 1u32);
/// b.stg(a, 0, v1);
/// let prog = b.build()?.into_shared();
///
/// let cfg = LaunchConfig::new(1u32, 32u32).param_u32(buf.0);
/// gpu.launch(KernelLaunch::new(prog, cfg));
/// gpu.run_to_idle()?;
/// assert_eq!(gpu.read_u32(buf, 32), vec![6; 32]);
/// # Ok(())
/// # }
/// ```
pub struct Gpu {
    cfg: GpuConfig,
    /// Device global memory: word storage, byte-addressed (see
    /// [`crate::mem::image`]). `DevPtr`s remain byte addresses.
    mem: Vec<u32>,
    memsys: MemorySystem,
    sms: Vec<Sm>,
    /// The launch table: every launched kernel with a block not yet
    /// completed, in launch order. A kernel leaves it when its last block
    /// completes or it is cancelled, so the table is empty exactly when the
    /// device is idle, and lookups walk only live kernels.
    kernels: Vec<KernelRuntime>,
    policy: Box<dyn KernelSchedulerPolicy>,
    fault: Box<dyn FaultHook>,
    /// False while `fault` is the [`NoFaults`] default; lets the execution
    /// hot path skip all virtual hook calls.
    fault_enabled: bool,
    /// Per-SM health: `quarantined[sm]` is set by [`Gpu::quarantine_sm`]
    /// when a permanent fault has been attributed to that SM. Quarantined
    /// SMs are excluded from dispatch (scheduler snapshots report them as
    /// never fitting, and the post-policy fit check refuses assignments —
    /// including fault-hook reroutes — that land on them).
    quarantined: Vec<bool>,
    cycle: u64,
    /// Watchdog: abort `run_to_idle` past this cycle (see
    /// [`Gpu::set_cycle_limit`]).
    cycle_limit: Option<u64>,
    next_dispatch_slot: u64,
    alloc_cursor: u32,
    /// High-water mark of bytes ever written (host transfers and device
    /// stores); [`Gpu::reset`] zeroes only this prefix.
    dirty_hi: u32,
    next_kernel_id: u64,
    trace: ExecutionTrace,
    /// A scheduling round is due: the policy's view may have changed since
    /// the last round (see [`Gpu::run_loop`] for what sets it).
    sched_dirty: bool,
    sched: SchedScratch,
    instructions: u64,
    /// Kernels that completed every block since the last reset (the
    /// launch table forgets them, so the count is carried separately).
    kernels_completed: u64,
    blocks_completed: u64,
    /// Telemetry sink: `Some` iff [`GpuConfig::telemetry_capacity`] was set
    /// (or [`Gpu::set_telemetry_capacity`] was called). Purely
    /// observational — **not** part of [`DeviceSnapshot`] (a restore must
    /// not rewrite the recording that observed it) and excluded from every
    /// architectural comparison; `None` reduces each hook to one branch.
    telemetry: Option<Box<EventRing>>,
    /// Restores performed since the last reset (telemetry counter).
    restores: u64,
    /// Cycles fast-forwarded by those restores (target minus pre-restore
    /// clock, forward jumps only) — the work checkpointed replay skipped.
    restore_skipped_cycles: u64,
    // ---- run-loop state ([`Gpu::run_loop`]) ----------------------------------
    // Rebuilt from scratch on every `run_until` entry, so launches, resets,
    // cancellations and quarantines between runs need no event bookkeeping.
    // All containers retain capacity across runs.
    /// Kernel arrivals not yet matured `(arrival, kernel id)`, min-heap.
    /// After each maturation step it is non-empty iff some live kernel has
    /// `arrival > cycle` (`debug_assert`-checked against the kernel scan
    /// every advance).
    arrivals: BinaryHeap<Reverse<(u64, u64)>>,
    /// Incremental mirror of [`Gpu::pending_blocks`]: credited when an
    /// arrival matures, debited per dispatched block
    /// (`debug_assert`-checked against the exhaustive sum every advance).
    arrived_pending: u32,
    /// Flat mirror of every SM's [`Sm::next_ready_at`], rebuilt on entry to
    /// the run loop and refreshed after each issue / scheduling
    /// round. The per-visit due-SM scan reads this one contiguous row
    /// instead of chasing a cache line into each (large) [`Sm`] struct —
    /// most visits wake only one or two of the SMs but must compare all of
    /// them. `debug_assert`-checked against the authoritative per-SM cache
    /// at every read.
    flat_wakes: Vec<u64>,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("cycle", &self.cycle)
            .field("num_sms", &self.sms.len())
            .field("policy", &self.policy.name())
            .field("kernels", &self.kernels.len())
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a GPU with the [`DefaultScheduler`] policy and no faults.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig) -> Self {
        Self::with_policy(cfg, Box::new(DefaultScheduler::new()))
    }

    /// Creates a GPU with a caller-provided kernel scheduler policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    pub fn with_policy(cfg: GpuConfig, policy: Box<dyn KernelSchedulerPolicy>) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i, &cfg)).collect();
        let memsys = MemorySystem::new(&cfg);
        let mem = vec![0u32; cfg.global_mem_bytes / 4];
        Self {
            memsys,
            sms,
            mem,
            kernels: Vec::new(),
            policy,
            fault: Box::new(NoFaults),
            fault_enabled: false,
            quarantined: vec![false; cfg.num_sms],
            cycle: 0,
            cycle_limit: None,
            next_dispatch_slot: 0,
            alloc_cursor: 0,
            dirty_hi: 0,
            next_kernel_id: 0,
            trace: ExecutionTrace::new(),
            sched_dirty: false,
            sched: SchedScratch::default(),
            instructions: 0,
            kernels_completed: 0,
            blocks_completed: 0,
            telemetry: cfg
                .telemetry_capacity
                .map(|n| Box::new(EventRing::with_capacity(n))),
            restores: 0,
            restore_skipped_cycles: 0,
            arrivals: BinaryHeap::new(),
            arrived_pending: 0,
            flat_wakes: Vec::new(),
            cfg,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Name of the installed scheduling policy.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Replaces the kernel scheduler policy. Mirrors the paper's operational
    /// reconfiguration: only legal while the GPU is idle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotIdle`] if kernels are in flight.
    pub fn set_policy(&mut self, policy: Box<dyn KernelSchedulerPolicy>) -> Result<(), SimError> {
        if !self.is_idle() {
            return Err(SimError::NotIdle);
        }
        self.policy = policy;
        Ok(())
    }

    /// Arms (or with `None` disarms) the watchdog: [`Gpu::run_to_idle`]
    /// aborts with [`SimError::DeadlineExceeded`] once the clock passes
    /// `limit` cycles with kernels still in flight.
    ///
    /// This is the simulator's form of the DCLS host's deadline monitor
    /// (paper Sec. IV / FTTI): fault injection can corrupt a loop counter
    /// into a multi-billion-iteration runaway; the watchdog converts that
    /// into a promptly *detected* timing violation instead of an unbounded
    /// simulation. Cleared by [`Gpu::reset`].
    pub fn set_cycle_limit(&mut self, limit: Option<u64>) {
        self.cycle_limit = limit;
    }

    /// The currently armed watchdog limit, if any.
    pub fn cycle_limit(&self) -> Option<u64> {
        self.cycle_limit
    }

    // ---- snapshot / restore --------------------------------------------------

    /// Captures the full architectural state of the device (see
    /// [`DeviceSnapshot`] for exactly what is and is not included). Legal at
    /// any point, including mid-run with blocks in flight — pause with
    /// [`Gpu::run_to_cycle`] first to pick the cycle.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let words = (self.dirty_hi as usize).div_ceil(4).min(self.mem.len());
        let mut policy_state = Vec::new();
        self.policy.save_state(&mut policy_state);
        DeviceSnapshot {
            cycle: self.cycle,
            next_dispatch_slot: self.next_dispatch_slot,
            alloc_cursor: self.alloc_cursor,
            dirty_hi: self.dirty_hi,
            next_kernel_id: self.next_kernel_id,
            sched_dirty: self.sched_dirty,
            instructions: self.instructions,
            kernels_completed: self.kernels_completed,
            blocks_completed: self.blocks_completed,
            quarantined: self.quarantined.clone(),
            mem: self.mem[..words].to_vec(),
            mem_words: self.mem.len(),
            memsys: self.memsys.clone(),
            kernels: self.kernels.clone(),
            trace: self.trace.clone(),
            sms: self.sms.iter().map(Sm::snapshot_state).collect(),
            policy_state,
        }
    }

    /// Rewinds (or fast-forwards) the device to the state captured in
    /// `snap`, replacing clock, memory, caches, launch table, per-SM state,
    /// trace, counters and SM health. Legal on a busy device — in-flight
    /// state is simply overwritten.
    ///
    /// The watchdog limit and fault hook are **preserved** (they are
    /// harness state, see [`DeviceSnapshot`]); the installed policy object
    /// is retained and its internal state overwritten via
    /// [`KernelSchedulerPolicy::load_state`] — the caller must have
    /// installed the same *kind* of policy that was active at capture time.
    ///
    /// # Panics
    ///
    /// Panics if this device's geometry (SM count, memory capacity) differs
    /// from the snapshot's source device.
    pub fn restore(&mut self, snap: &DeviceSnapshot) {
        assert_eq!(
            self.sms.len(),
            snap.sms.len(),
            "snapshot restore across differing SM counts"
        );
        assert_eq!(
            self.mem.len(),
            snap.mem_words,
            "snapshot restore across differing memory capacities"
        );
        // Zero the tail this device dirtied beyond the snapshot's prefix,
        // then overwrite the prefix: bytes past `snap.dirty_hi` are zero in
        // the source image by the dirty-prefix invariant.
        let cur = (self.dirty_hi as usize).div_ceil(4).min(self.mem.len());
        if cur > snap.mem.len() {
            self.mem[snap.mem.len()..cur].fill(0);
        }
        self.mem[..snap.mem.len()].copy_from_slice(&snap.mem);
        let skipped = snap.cycle.saturating_sub(self.cycle);
        self.restores += 1;
        self.restore_skipped_cycles += skipped;
        self.emit(
            EventKind::Restore,
            snap.cycle,
            NO_SM,
            self.restores,
            skipped,
        );
        self.cycle = snap.cycle;
        self.next_dispatch_slot = snap.next_dispatch_slot;
        self.alloc_cursor = snap.alloc_cursor;
        self.dirty_hi = snap.dirty_hi;
        self.next_kernel_id = snap.next_kernel_id;
        self.sched_dirty = snap.sched_dirty;
        self.instructions = snap.instructions;
        self.kernels_completed = snap.kernels_completed;
        self.blocks_completed = snap.blocks_completed;
        self.quarantined.clone_from(&snap.quarantined);
        self.memsys.clone_from(&snap.memsys);
        self.kernels.clone_from(&snap.kernels);
        self.trace.clone_from(&snap.trace);
        for (sm, st) in self.sms.iter_mut().zip(&snap.sms) {
            sm.restore_state(st);
        }
        self.policy.load_state(&snap.policy_state);
    }

    // ---- telemetry -----------------------------------------------------------

    /// Records one telemetry event; a branch when recording is disabled.
    #[inline]
    fn emit(&mut self, kind: EventKind, cycle: u64, sm: u32, id: u64, aux: u64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.push(TraceEvent {
                cycle,
                kind,
                sm,
                id,
                aux,
            });
        }
    }

    /// True when a telemetry ring is installed.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Installs (or with `None` removes) a telemetry ring of the given
    /// capacity, discarding any previous recording. Runtime equivalent of
    /// [`GpuConfig::telemetry_capacity`].
    pub fn set_telemetry_capacity(&mut self, capacity: Option<usize>) {
        self.telemetry = capacity.map(|n| Box::new(EventRing::with_capacity(n)));
    }

    /// Records an externally observed event (fault arm/detect, pipeline
    /// stage lifecycle, …) into the ring. A no-op when recording is
    /// disabled, so harness layers call it unconditionally.
    pub fn record_event(&mut self, kind: EventKind, cycle: u64, sm: u32, id: u64, aux: u64) {
        self.emit(kind, cycle, sm, id, aux);
    }

    /// The recorded events, oldest first (empty when recording is
    /// disabled).
    pub fn telemetry_events(&self) -> Vec<TraceEvent> {
        self.telemetry
            .as_deref()
            .map(EventRing::to_vec)
            .unwrap_or_default()
    }

    /// Removes and returns the recorded events, retaining the ring.
    pub fn drain_telemetry(&mut self) -> Vec<TraceEvent> {
        self.telemetry
            .as_deref_mut()
            .map(EventRing::drain)
            .unwrap_or_default()
    }

    /// Events lost to ring wrap-around since the last reset/drain.
    pub fn telemetry_overwritten(&self) -> u64 {
        self.telemetry
            .as_deref()
            .map(EventRing::overwritten)
            .unwrap_or(0)
    }

    /// Restores performed since the last reset.
    pub fn restore_count(&self) -> u64 {
        self.restores
    }

    /// Cycles fast-forwarded by restores since the last reset — simulation
    /// work a checkpointed trial skipped.
    pub fn restore_skipped_cycles(&self) -> u64 {
        self.restore_skipped_cycles
    }

    /// Installs a fault-injection hook (replaces any previous hook).
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.fault = hook;
        self.fault_enabled = true;
    }

    /// Removes any installed fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.fault = Box::new(NoFaults);
        self.fault_enabled = false;
    }

    // ---- SM health -----------------------------------------------------------

    /// Quarantines one SM: no block is ever dispatched to it again (until
    /// [`Gpu::reset`]). Idempotent; blocks already resident on the SM run to
    /// completion — the host drains or cancels them as part of its recovery
    /// ladder, the simulator only guarantees no *new* placement.
    ///
    /// This is the diagnosis outcome of the limp-home ladder: once a
    /// permanent fault is attributed to an SM, the host removes it from
    /// service and re-plans the remaining frames on the shrunken device.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range (host-side wiring bug).
    pub fn quarantine_sm(&mut self, sm: usize) {
        assert!(sm < self.sms.len(), "quarantine of nonexistent SM {sm}");
        if !self.quarantined[sm] {
            self.quarantined[sm] = true;
            // Pending work that was headed for this SM must be re-placed.
            self.sched_dirty = true;
            self.emit(EventKind::QuarantineConvicted, self.cycle, sm as u32, 0, 0);
        }
    }

    /// True if `sm` is currently quarantined.
    pub fn is_quarantined(&self, sm: usize) -> bool {
        self.quarantined.get(sm).copied().unwrap_or(false)
    }

    /// Ids of all currently quarantined SMs, ascending.
    pub fn quarantined_sms(&self) -> Vec<usize> {
        (0..self.sms.len())
            .filter(|&i| self.quarantined[i])
            .collect()
    }

    /// Effective device capacity: SMs still in service (total minus
    /// quarantined). Admission and re-planning must consult this, not
    /// [`GpuConfig::num_sms`].
    pub fn effective_sms(&self) -> usize {
        self.quarantined.iter().filter(|q| !**q).count()
    }

    /// True when every launched kernel has finished (or was cancelled):
    /// the launch table holds live kernels only, so this is one compare.
    pub fn is_idle(&self) -> bool {
        debug_assert!(
            !self.kernels.iter().any(KernelRuntime::is_finished),
            "a finished kernel stayed in the launch table"
        );
        self.kernels.is_empty()
    }

    // ---- device memory ------------------------------------------------------

    /// Allocates `bytes` of device memory (256-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the bump allocator is
    /// exhausted.
    pub fn alloc(&mut self, bytes: u32) -> Result<DevPtr, SimError> {
        let aligned = self.alloc_cursor.div_ceil(256) * 256;
        let end = aligned.checked_add(bytes).ok_or(SimError::OutOfMemory {
            requested: bytes,
            available: 0,
        })?;
        let capacity = self.mem.len() * 4;
        if end as usize > capacity {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                available: (capacity as u32).saturating_sub(aligned),
            });
        }
        self.alloc_cursor = end;
        Ok(DevPtr(aligned))
    }

    /// Allocates `words` 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the allocator is exhausted.
    pub fn alloc_words(&mut self, words: u32) -> Result<DevPtr, SimError> {
        self.alloc(words * 4)
    }

    /// Frees all allocations (bump allocator reset) and zeroes the written
    /// prefix of memory (untouched bytes are still zero from construction).
    /// Launched kernels must have finished.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotIdle`] if kernels are in flight.
    pub fn free_all(&mut self) -> Result<(), SimError> {
        if !self.is_idle() {
            return Err(SimError::NotIdle);
        }
        self.alloc_cursor = 0;
        let hi = (self.dirty_hi as usize).div_ceil(4).min(self.mem.len());
        self.mem[..hi].fill(0);
        self.dirty_hi = 0;
        Ok(())
    }

    /// Rewinds the device to its post-construction state **without
    /// reallocating** the (multi-MB) memory image: bump allocator reset,
    /// dirty memory prefix zeroed, caches flushed, counters and trace
    /// cleared, fault hook removed, watchdog disarmed, cycle back to 0.
    ///
    /// This is the fast path fault-injection campaigns use to reuse one
    /// device across thousands of trials; a reset device is observationally
    /// identical to a freshly constructed one, with one **explicit
    /// exception**: the installed scheduling policy object is *retained* —
    /// its internal state (round-robin cursors, serialization gates) is
    /// cleared via [`KernelSchedulerPolicy::reset`], but the policy itself
    /// is not replaced by the default. Campaigns that select a policy per
    /// trial therefore install it once per trial (e.g. through
    /// `RedundantExecutor::new`) and can never observe a stale *kind* of
    /// policy, while stale policy *state* is impossible by construction.
    /// Asserted by the `reset_retains_installed_policy_and_resets_its_state`
    /// test.
    ///
    /// SM health is **not** retained: all quarantine marks set through
    /// [`Gpu::quarantine_sm`] are cleared, so a reused campaign device
    /// starts every trial healthy at full capacity. Quarantine is a
    /// *diagnosis of this device's fault injection*, not configuration — a
    /// fresh trial draws a fresh fault model, and carrying a stale
    /// quarantine across trials would silently shrink every subsequent
    /// trial's device. Asserted by the `reset_clears_sm_quarantine` test.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotIdle`] if kernels are in flight.
    pub fn reset(&mut self) -> Result<(), SimError> {
        if !self.is_idle() {
            return Err(SimError::NotIdle);
        }
        self.free_all()?;
        self.memsys.reset();
        self.memsys.clear_stats();
        for sm in &mut self.sms {
            sm.reset();
        }
        self.kernels.clear();
        self.policy.reset();
        self.clear_fault_hook();
        self.quarantined.fill(false);
        self.cycle = 0;
        self.cycle_limit = None;
        self.next_dispatch_slot = 0;
        self.next_kernel_id = 0;
        self.trace.clear();
        self.sched_dirty = false;
        self.instructions = 0;
        self.kernels_completed = 0;
        self.blocks_completed = 0;
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.clear();
        }
        self.restores = 0;
        self.restore_skipped_cycles = 0;
        Ok(())
    }

    /// Like [`Gpu::reset`], but legal on a non-idle device: in-flight
    /// kernels and resident blocks are discarded (not completed) first.
    ///
    /// This is the watchdog-abort path: when a fault-injection trial is cut
    /// off by [`SimError::DeadlineExceeded`] its verdict is already final
    /// and the remaining device state is garbage, so campaigns discard it
    /// and keep the reusable device instead of reconstructing a fresh
    /// multi-MB image. A force-reset device is observationally identical to
    /// a freshly constructed one (the installed policy is retained, exactly
    /// as with [`Gpu::reset`]).
    pub fn force_reset(&mut self) {
        for sm in &mut self.sms {
            sm.discard_blocks();
        }
        self.kernels.clear();
        self.reset().expect("all in-flight work was discarded");
    }

    /// Discards all in-flight and pending work — resident blocks are killed,
    /// undispatched blocks dropped — while **preserving** the clock, device
    /// memory, allocations, the installed policy and the execution trace.
    ///
    /// This is the host's mid-computation abort: when the deadline monitor
    /// fires on a stage of a real-time pipeline, the host cancels the hung
    /// offload and re-dispatches it on the same device within the remaining
    /// FTTI slack — time spent on the aborted attempt stays on the clock,
    /// exactly as it would on real hardware. Aborted kernels keep their
    /// trace records with `completion == None` (the observable of a killed
    /// launch). The watchdog limit is cleared so the caller can arm a fresh
    /// budget for the retry. Cancelled kernels never count in
    /// [`SimStats::kernels_completed`]; kernels that completed before the
    /// abort still do.
    pub fn cancel_in_flight(&mut self) {
        for sm in &mut self.sms {
            sm.discard_blocks();
        }
        self.kernels.clear();
        self.cycle_limit = None;
        self.sched_dirty = false;
    }

    /// Discards in-flight and pending work of **only** the given kernels —
    /// the branch-local form of [`Gpu::cancel_in_flight`]: resident blocks
    /// of the listed kernels are killed and their undispatched blocks
    /// dropped, while every other kernel keeps executing undisturbed, with
    /// the clock, memory, allocations, policy and trace all preserved.
    ///
    /// This is how a partitioned frame executor aborts one DAG branch whose
    /// stage deadline fired: the cancelled branch's partition empties, its
    /// re-execution can be dispatched into the remaining FTTI slack, and
    /// sibling partitions never observe a clock-visible difference. The
    /// device watchdog is *not* cleared (sibling branches may still be
    /// running under their own limits); cancelled kernels keep their trace
    /// records with `completion == None` and never count in
    /// [`SimStats::kernels_completed`].
    pub fn cancel_kernels(&mut self, kernels: &[KernelId]) {
        for sm in &mut self.sms {
            sm.discard_blocks_of(kernels);
        }
        self.kernels.retain(|k| !kernels.contains(&k.id));
        // Freed partition capacity may admit other kernels' pending blocks.
        self.sched_dirty = true;
    }

    /// True unless `kernel` is still in the launch table, i.e. launched and
    /// with a block not yet completed. A kernel leaves the table when its
    /// last block completes, so the lookup walks live kernels only. Every
    /// id missing from the table reads as finished: completed kernels,
    /// kernels cancelled via [`Gpu::cancel_kernels`] /
    /// [`Gpu::cancel_in_flight`] (they will never complete; their dead ids
    /// resolve rather than wedge a waiter), and ids that [`Gpu::reset`] or
    /// a [`Gpu::restore`] to an earlier snapshot discarded.
    pub fn kernel_finished(&self, kernel: KernelId) -> bool {
        !self.kernels.iter().any(|k| k.id == kernel)
    }

    /// Writes raw bytes to device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory (host-side programming
    /// error).
    pub fn write_bytes(&mut self, ptr: DevPtr, data: &[u8]) {
        let a = ptr.0 as usize;
        for (i, &b) in data.iter().enumerate() {
            crate::mem::image::set_byte(&mut self.mem, a + i, b);
        }
        self.dirty_hi = self.dirty_hi.max((a + data.len()) as u32);
    }

    /// Reads raw bytes from device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory.
    pub fn read_bytes(&self, ptr: DevPtr, len: usize) -> Vec<u8> {
        let a = ptr.0 as usize;
        (a..a + len)
            .map(|i| crate::mem::image::get_byte(&self.mem, i))
            .collect()
    }

    /// Writes a `u32` slice to device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory.
    pub fn write_u32(&mut self, ptr: DevPtr, data: &[u32]) {
        let a = ptr.0 as usize;
        assert!(
            a + data.len() * 4 <= self.mem.len() * 4,
            "write exceeds device memory"
        );
        // Allocations are 256-byte aligned, so host transfers are straight
        // word copies.
        assert!(a.is_multiple_of(4), "device pointers are word aligned");
        self.mem[a / 4..a / 4 + data.len()].copy_from_slice(data);
        self.dirty_hi = self.dirty_hi.max((a + data.len() * 4) as u32);
    }

    /// Reads `len` `u32` words from device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory.
    pub fn read_u32(&self, ptr: DevPtr, len: usize) -> Vec<u32> {
        let a = ptr.0 as usize;
        assert!(a.is_multiple_of(4), "device pointers are word aligned");
        self.mem[a / 4..a / 4 + len].to_vec()
    }

    /// Writes an `f32` slice to device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory.
    pub fn write_f32(&mut self, ptr: DevPtr, data: &[f32]) {
        let a = ptr.0 as usize;
        assert!(a.is_multiple_of(4), "device pointers are word aligned");
        for (i, v) in data.iter().enumerate() {
            self.mem[a / 4 + i] = v.to_bits();
        }
        self.dirty_hi = self.dirty_hi.max((a + data.len() * 4) as u32);
    }

    /// Reads `len` `f32` values from device memory.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds device memory.
    pub fn read_f32(&self, ptr: DevPtr, len: usize) -> Vec<f32> {
        self.read_u32(ptr, len)
            .into_iter()
            .map(f32::from_bits)
            .collect()
    }

    // ---- launching -----------------------------------------------------------

    /// Submits a kernel launch. The kernel becomes visible to the GPU
    /// front-end after the serial host dispatch gap (paper Sec. IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unschedulable`] if one block of the kernel exceeds
    /// the capacity of an empty SM (it could never be dispatched).
    pub fn launch(&mut self, launch: KernelLaunch) -> Result<KernelId, SimError> {
        let fp = BlockFootprint::of(&launch, self.cfg.warp_size);
        let empty_sm = Sm::new(usize::MAX, &self.cfg);
        if !empty_sm.fits(&fp) || self.effective_sms() == 0 {
            return Err(SimError::Unschedulable {
                program: launch.program.name().to_string(),
            });
        }
        let id = KernelId(self.next_kernel_id);
        self.next_kernel_id += 1;
        // The serial dispatch slot models the CPU driver's launch rate; a
        // per-launch dispatch delay (droop-aware start skew) holds *this*
        // kernel back further without slowing subsequent launches.
        let slot = self.cycle.max(self.next_dispatch_slot) + self.cfg.dispatch_gap_cycles;
        self.next_dispatch_slot = slot;
        let arrival = slot + launch.attrs.dispatch_delay;
        let record = self.trace.kernels.len();
        self.trace.kernels.push(KernelRecord {
            id,
            program: launch.program.name().to_string(),
            attrs: launch.attrs.clone(),
            launched: self.cycle,
            arrival,
            first_dispatch: None,
            completion: None,
            blocks: launch.config.num_blocks(),
            footprint: fp,
        });
        self.sched_dirty = true;
        self.emit(EventKind::KernelLaunch, self.cycle, NO_SM, id.0, arrival);
        if launch.config.num_blocks() == 0 {
            // An empty grid has nothing to run: it completes at launch.
            self.kernels_completed += 1;
            return Ok(id);
        }
        let params: Arc<[u32]> = Arc::from(launch.config.params.into_boxed_slice());
        let attrs = Arc::new(launch.attrs);
        self.kernels.push(KernelRuntime {
            id,
            program: launch.program,
            grid: launch.config.grid,
            block: launch.config.block,
            attrs,
            params,
            footprint: fp,
            arrival,
            blocks_issued: 0,
            blocks_done: 0,
            record,
        });
        Ok(id)
    }

    fn pending_blocks(&self) -> u32 {
        self.kernels
            .iter()
            .filter(|k| k.arrival <= self.cycle)
            .map(|k| k.blocks_total() - k.blocks_issued)
            .sum()
    }

    /// The earliest arrival among live kernels still in the future: the
    /// exhaustive derivation the run loop's `arrivals` heap is checked
    /// against.
    fn next_arrival_scan(&self) -> Option<u64> {
        self.kernels
            .iter()
            .filter(|k| k.arrival > self.cycle)
            .map(|k| k.arrival)
            .min()
    }

    /// Runs one scheduling round: consults the policy and dispatches the
    /// committed assignments (subject to fault-hook rerouting). Returns true
    /// when the fault hook rerouted or dropped an assignment, so the device
    /// is not at the state the policy's round ended in.
    ///
    /// Snapshot, assignment and fit buffers are scratch reused across
    /// rounds ([`SchedScratch`]): after warm-up a round performs no heap
    /// allocations (the kernel attributes are shared via `Arc`, not
    /// cloned). Enforced by the `scheduler_rounds_are_allocation_free`
    /// test.
    fn run_scheduler(&mut self) -> bool {
        let mut kernels = std::mem::take(&mut self.sched.kernels);
        kernels.clear();
        kernels.extend(
            self.kernels
                .iter()
                .filter(|k| k.arrival <= self.cycle)
                .map(|k| KernelSnapshot {
                    id: k.id,
                    attrs: k.attrs.clone(),
                    arrival: k.arrival,
                    blocks_total: k.blocks_total(),
                    blocks_issued: k.blocks_issued,
                    blocks_done: k.blocks_done,
                    footprint: k.footprint,
                }),
        );
        if kernels.is_empty() {
            self.sched.kernels = kernels;
            return false;
        }
        let mut sms = std::mem::take(&mut self.sched.sms);
        sms.clear();
        sms.extend(self.sms.iter().enumerate().map(|(i, s)| SmSnapshot {
            free: s.free(),
            resident_blocks: s.resident_blocks() as u32,
            quarantined: self.quarantined[i],
        }));
        let assignments = std::mem::take(&mut self.sched.assignments);
        let mut view = SchedulerView::from_parts(self.cycle, kernels, sms, assignments);
        self.policy.assign(&mut view);
        let (kernels, sms, assignments) = view.into_parts();

        let mut misrouted = false;
        for a in &assignments {
            let Some(k) = self.kernels.iter().position(|k| k.id == a.kernel) else {
                continue;
            };
            let fp = self.kernels[k].footprint;
            let block_linear = self.kernels[k].blocks_issued;
            if block_linear >= self.kernels[k].blocks_total() {
                continue;
            }
            // Fault hook may misroute the assignment (scheduler fault model).
            // Quarantined SMs are unfit for dispatch *and* for fault-hook
            // reroutes: a misrouting scheduler fault cannot resurrect a
            // removed SM.
            let fits = &mut self.sched.fits;
            fits.clear();
            fits.extend(
                self.sms
                    .iter()
                    .enumerate()
                    .map(|(i, s)| !self.quarantined[i] && s.fits(&fp)),
            );
            let chosen =
                self.fault
                    .reroute_block(a.kernel, block_linear, a.sm, self.sms.len(), &|sm| {
                        fits.get(sm).copied().unwrap_or(false)
                    });
            misrouted |= chosen != a.sm;
            if !fits.get(chosen).copied().unwrap_or(false) {
                misrouted = true;
                continue; // retried at a later scheduling round
            }
            let kr = &mut self.kernels[k];
            kr.blocks_issued += 1;
            // One arrived block left the pending pool: policies see only
            // arrived kernels, and every caller initialises the mirror.
            self.arrived_pending -= 1;
            let rec = &mut self.trace.kernels[kr.record];
            if rec.first_dispatch.is_none() {
                rec.first_dispatch = Some(self.cycle);
            }
            let grid = kr.grid;
            let dims = BlockDims {
                ctaid: grid.coords(block_linear),
                ntid: kr.block,
                nctaid: grid,
            };
            let block = BlockState::new(
                kr.id,
                block_linear,
                dims,
                kr.program.clone(),
                kr.params.clone(),
                fp,
                self.cycle,
                self.cycle + BLOCK_DISPATCH_LATENCY,
            );
            self.sms[chosen].admit(block);
            self.emit(
                EventKind::BlockDispatch,
                self.cycle,
                chosen as u32,
                a.kernel.0,
                u64::from(block_linear),
            );
        }
        self.sched.kernels = kernels;
        self.sched.sms = sms;
        self.sched.assignments = assignments;
        misrouted
    }

    /// Advances the clock to the latest kernel arrival and runs exactly one
    /// scheduling round, returning the still-pending block count.
    ///
    /// Hidden test hook: the scheduler allocation fence
    /// (`tests/alloc_free_scheduler.rs`) drives rounds directly without the
    /// full cycle loop. Not part of the supported API.
    #[doc(hidden)]
    pub fn debug_scheduler_round(&mut self) -> u32 {
        let latest_arrival = self.kernels.iter().map(|k| k.arrival).max().unwrap_or(0);
        self.cycle = self.cycle.max(latest_arrival);
        self.arrived_pending = self.pending_blocks();
        self.run_scheduler();
        self.pending_blocks()
    }

    fn process_completion(&mut self, c: BlockCompletion) {
        self.trace.blocks.push(BlockRecord {
            kernel: c.kernel,
            block: c.block,
            sm: c.sm,
            start: c.start,
            end: c.end,
        });
        self.instructions += c.instrs;
        self.blocks_completed += 1;
        let mut finished = false;
        if let Some(i) = self.kernels.iter().position(|k| k.id == c.kernel) {
            let k = &mut self.kernels[i];
            k.blocks_done += 1;
            if k.is_finished() {
                self.trace.kernels[k.record].completion = Some(c.end);
                self.kernels_completed += 1;
                // `remove`, not `swap_remove`: policies see kernels in
                // launch order.
                self.kernels.remove(i);
                finished = true;
            }
        }
        self.emit(
            EventKind::BlockRetire,
            c.end,
            c.sm as u32,
            c.kernel.0,
            u64::from(c.block),
        );
        if finished {
            self.emit(EventKind::KernelComplete, c.end, NO_SM, c.kernel.0, 0);
        }
        self.sched_dirty = true;
    }

    /// Advances the simulation until every launched kernel has completed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] if the installed policy stops
    /// dispatching pending work while the device is otherwise quiescent
    /// (policy bug or an unsatisfiable gating condition).
    pub fn run_to_idle(&mut self) -> Result<u64, SimError> {
        self.run_until(|_| false)
    }

    /// Advances the simulation until `done(self)` holds **or** the device
    /// is idle, whichever comes first — the branch-local synchronization
    /// point of a partitioned frame executor: one DAG branch waits for *its
    /// own* kernels ([`Gpu::kernel_finished`]) while sibling branches'
    /// kernels keep executing on their partitions past the return.
    ///
    /// The predicate is evaluated once on entry (a satisfied wait returns
    /// without advancing the clock) and again after every batch of block
    /// completions, and nowhere else: it must depend only on what a block
    /// completion can change, such as [`Gpu::kernel_finished`]. The
    /// watchdog ([`Gpu::set_cycle_limit`]) applies exactly as in
    /// [`Gpu::run_to_idle`] — which is this method with a never-satisfied
    /// predicate.
    ///
    /// The clock jumps between event cycles: SM wake-ups, kernel arrivals
    /// and the cycle after a scheduling round is due. A round consults the
    /// policy only after something changed its view (launch, arrival,
    /// block completion, cancel, quarantine, restore) or after the fault
    /// hook rerouted or dropped one of its assignments while a kernel
    /// arrival is still to come; see
    /// [`crate::scheduler::KernelSchedulerPolicy::assign`] for the contract
    /// that makes the rounds in between redundant.
    ///
    /// # Errors
    ///
    /// As [`Gpu::run_to_idle`].
    pub fn run_until(&mut self, done: impl FnMut(&Gpu) -> bool) -> Result<u64, SimError> {
        self.run_loop(done, None)
    }

    /// Advances the simulation up to (but not into) cycle `target`, pausing
    /// at the first event cycle `>= target`, and returns whether the device
    /// went idle before reaching it.
    ///
    /// The pause is taken at the very top of a run-loop iteration — before
    /// the watchdog check, arrival maturation and the scheduling round — so
    /// a paused run resumed with [`Gpu::run_to_idle`] (or further
    /// [`Gpu::run_to_cycle`] calls) is **bit-identical** to a straight run:
    /// same issue stream, same stats, same trace, same deadline cut-offs.
    /// This is the checkpoint-recording primitive: pause, call
    /// [`Gpu::snapshot`], resume.
    ///
    /// # Errors
    ///
    /// As [`Gpu::run_to_idle`] (a watchdog or stall *before* `target` is
    /// still reported).
    pub fn run_to_cycle(&mut self, target: u64) -> Result<bool, SimError> {
        self.run_loop(|_| false, Some(target))?;
        Ok(self.is_idle())
    }

    /// The simulator's run loop. Each iteration visits one event cycle:
    /// pause point, watchdog, arrival maturation, scheduling
    /// round, issue on every due SM in ascending id order (the shared
    /// memory system is order-sensitive), completions, then the advance to
    /// the next event cycle: the earliest SM wake-up or kernel arrival, or
    /// the next cycle when a round is due and arrived blocks are pending.
    ///
    /// Scheduling rounds are event-driven. A round runs only at a cycle
    /// where `sched_dirty` is set, which happens on launch, arrival
    /// maturation, block completion, cancel, quarantine and restore (the
    /// snapshot carries the flag). Every installed policy honours the
    /// [`KernelSchedulerPolicy::assign`] contract: a round over the view
    /// its last round produced assigns nothing. So a round between those
    /// events could place nothing, and waiting blocks do not make the loop
    /// step cycle by cycle. One case leaves the device off the policy's
    /// view: the fault hook rerouted or dropped an assignment. That round
    /// is retried at the next cycle, but only while a kernel arrival is
    /// still in the future, the retry timing of the scheduler that
    /// re-ran every cycle until its last arrival. A kernel that arrives
    /// exactly at the entry cycle (a pause can land on an arrival) enters
    /// the arrival heap like any later one, so its maturation marks the
    /// scheduler dirty.
    ///
    /// Three incremental structures spare each visited cycle an exhaustive
    /// rescan. Each is `debug_assert`-checked against that rescan on every
    /// iteration, so every debug-build run (all tier-1 tests) re-derives
    /// the schedule the exhaustive way and compares:
    ///
    /// * `arrivals`: the heap minimum equals the earliest future arrival
    ///   of a live kernel ([`Gpu::next_arrival_scan`]), both `None` when
    ///   there is none;
    /// * `arrived_pending`: equals [`Gpu::pending_blocks`];
    /// * `flat_wakes`: each entry equals its SM's [`Sm::next_ready_at`]
    ///   (itself checked against a warp scan), and the minimum fused into
    ///   the issue pass equals the minimum over all SMs after completions.
    ///
    /// Skipped SMs are exactly those for which [`Sm::issue`] would be a
    /// no-op (no warp issuable at `now`).
    ///
    /// All loop state is rebuilt on entry, so host-side mutations between
    /// runs (launch, reset, cancel, quarantine) need no event bookkeeping
    /// beyond setting `sched_dirty`.
    fn run_loop(
        &mut self,
        mut done: impl FnMut(&Gpu) -> bool,
        pause_at: Option<u64>,
    ) -> Result<u64, SimError> {
        if done(self) {
            return Ok(self.cycle);
        }
        self.arrivals.clear();
        self.arrived_pending = 0;
        for k in &self.kernels {
            if k.arrival >= self.cycle {
                self.arrivals.push(Reverse((k.arrival, k.id.0)));
            } else {
                self.arrived_pending += k.blocks_total() - k.blocks_issued;
            }
        }
        self.flat_wakes.clear();
        self.flat_wakes
            .extend(self.sms.iter().map(Sm::next_ready_at));

        let mut completions = std::mem::take(&mut self.sched.completions);
        while !self.is_idle() {
            // Pause point ([`Gpu::run_to_cycle`]): checked before any work
            // at this cycle — watchdog included — so resuming replays the
            // iteration exactly as a straight run would have executed it.
            if pause_at.is_some_and(|t| self.cycle >= t) {
                break;
            }
            // Watchdog: the clock strictly advances every iteration, so a
            // runaway kernel (e.g. a fault-corrupted loop counter) is cut
            // off deterministically at the configured limit.
            if let Some(limit) = self.cycle_limit {
                if self.cycle > limit {
                    self.sched.completions = completions;
                    return Err(SimError::DeadlineExceeded {
                        cycle: self.cycle,
                        limit,
                    });
                }
            }
            // Matured arrivals join the pending pool and the policy's view.
            while let Some(&Reverse((arr, kid))) = self.arrivals.peek() {
                if arr > self.cycle {
                    break;
                }
                self.arrivals.pop();
                if let Some(k) = self.kernels.iter().find(|k| k.id.0 == kid) {
                    self.arrived_pending += k.blocks_total() - k.blocks_issued;
                    self.sched_dirty = true;
                }
            }
            let mut misrouted = false;
            if self.sched_dirty {
                self.sched_dirty = false;
                misrouted = self.run_scheduler();
                // Admissions may have changed SM wake-ups; re-mirror them.
                self.flat_wakes.clear();
                self.flat_wakes
                    .extend(self.sms.iter().map(Sm::next_ready_at));
            }

            // Issue on every due SM in ascending id order, folding the
            // advance rule's minimum over wake-ups into the same pass. The
            // wake cache answers "due?" in O(1), so no due-queue is needed
            // at this width; hoisting the check here (instead of relying on
            // [`Sm::issue`]'s internal fast path) spares sleeping SMs the
            // out-of-line call itself — visiting them costs one compare.
            // Fusing the min-scan is sound because nothing between here and
            // the advance ([`Gpu::process_completion`], `done`) mutates SM
            // state: a skipped SM's wake is its cached value, an issued
            // SM's is re-read right after it issues — exactly what a
            // post-completion scan would see (checked below). On dense
            // workloads (every SM due every cycle) this halves the
            // per-cycle SM traversals.
            completions.clear();
            let mut next = u64::MAX;
            for (sm, wc) in self.sms.iter_mut().zip(&mut self.flat_wakes) {
                let wake = *wc;
                debug_assert_eq!(
                    wake,
                    sm.next_ready_at(),
                    "flat wake mirror diverged from an SM at cycle {}",
                    self.cycle
                );
                if wake > self.cycle {
                    next = next.min(wake);
                    continue;
                }
                sm.issue(
                    self.cycle,
                    &mut self.mem,
                    &mut self.dirty_hi,
                    &mut self.memsys,
                    self.fault.as_mut(),
                    self.fault_enabled,
                    &mut completions,
                );
                *wc = sm.next_ready_at();
                next = next.min(*wc);
            }
            let completed = !completions.is_empty();
            for c in completions.drain(..) {
                self.process_completion(c);
            }
            debug_assert_eq!(
                next,
                self.sms
                    .iter()
                    .map(Sm::next_ready_at)
                    .min()
                    .unwrap_or(u64::MAX),
                "fused wake minimum diverged from the post-completion SM scan at cycle {}",
                self.cycle
            );
            // Only a completion can satisfy a wait on kernels.
            if self.is_idle() || (completed && done(self)) {
                break;
            }

            // Advance: fused minimum over SM wake-ups vs the next arrival.
            let next_arrival = self.arrivals.peek().map(|&Reverse((arr, _))| arr);
            debug_assert_eq!(
                next_arrival,
                self.next_arrival_scan(),
                "arrival heap diverged from the kernel scan at cycle {}",
                self.cycle
            );
            if let Some(arr) = next_arrival {
                next = next.min(arr);
                // Retry a round the fault hook diverted (see above).
                self.sched_dirty |= misrouted;
            }
            debug_assert_eq!(
                self.arrived_pending,
                self.pending_blocks(),
                "incremental pending-block mirror diverged at cycle {}",
                self.cycle
            );
            if self.sched_dirty && self.arrived_pending > 0 {
                next = next.min(self.cycle + 1);
            }
            if next == u64::MAX {
                // Quiescent but unfinished: one last scheduling chance, then
                // report a stall. If the retry admitted work, jump straight
                // to its issue cycle — re-entering the loop at the *same*
                // cycle could re-run the scheduler forever without advancing
                // time under a pathological policy that keeps the device
                // quiescent (e.g. admits work some other hook immediately
                // revokes), so every pass through this branch must strictly
                // advance the clock or terminate.
                self.run_scheduler();
                self.flat_wakes.clear();
                self.flat_wakes
                    .extend(self.sms.iter().map(Sm::next_ready_at));
                let ready = self.flat_wakes.iter().copied().min().unwrap_or(u64::MAX);
                if ready == u64::MAX {
                    self.sched.completions = completions;
                    return Err(SimError::Stalled {
                        cycle: self.cycle,
                        pending_blocks: self.pending_blocks(),
                    });
                }
                self.cycle = ready.max(self.cycle + 1);
                continue;
            }
            self.cycle = next.max(self.cycle + 1);
        }
        self.sched.completions = completions;
        Ok(self.cycle)
    }

    /// Enables or disables per-instruction issue logging on every SM.
    /// Clears previously accumulated records. The log is the run
    /// comparison probe: two runs (say, straight and paused-then-resumed)
    /// schedule identically iff their drained logs are identical.
    pub fn set_issue_log(&mut self, enabled: bool) {
        for sm in &mut self.sms {
            sm.set_issue_log(enabled);
        }
    }

    /// Drains every SM's issue log into one device-wide sequence ordered by
    /// `(cycle, sm)` — within one SM and cycle, records keep issue order.
    pub fn drain_issue_log(&mut self) -> Vec<IssueRecord> {
        let mut out = Vec::new();
        for sm in &mut self.sms {
            sm.drain_issue_log(&mut out);
        }
        out.sort_by_key(|r| (r.cycle, r.sm));
        out
    }

    // ---- results -------------------------------------------------------------

    /// The execution trace accumulated so far.
    pub fn trace(&self) -> &ExecutionTrace {
        &self.trace
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SimStats {
        SimStats {
            cycles: self.cycle,
            instructions: self.instructions,
            per_sm: self.sms.iter().map(Sm::stats).collect(),
            memory: self.memsys.stats(),
            oob_accesses: self.sms.iter().map(|s| s.oob_accesses).sum(),
            kernels_completed: self.kernels_completed,
            blocks_completed: self.blocks_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::isa::CmpOp;
    use crate::kernel::LaunchConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn inc_kernel() -> Arc<crate::program::Program> {
        let mut b = KernelBuilder::new("inc");
        let base = b.param(0);
        let i = b.global_tid_x();
        let a = b.addr_w(base, i);
        let v = b.ldg(a, 0);
        let v1 = b.iadd(v, 1u32);
        b.stg(a, 0, v1);
        b.build().expect("valid").into_shared()
    }

    /// Runs `prog` as `blocks` x `threads` on a fresh tiny device with an
    /// output buffer as parameter 0, `input` as parameter 1 and `extra`
    /// after them; returns the output words (one per thread, at least 16)
    /// and the makespan.
    fn run_collect(
        prog: Arc<crate::program::Program>,
        (blocks, threads): (u32, u32),
        input: &[u32],
        extra: &[u32],
    ) -> (Vec<u32>, u64) {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let words = (blocks * threads).max(16);
        let out = gpu.alloc_words(words).expect("alloc");
        let inp = gpu.alloc_words(input.len().max(1) as u32).expect("alloc");
        gpu.write_u32(inp, input);
        let mut cfg = LaunchConfig::new(blocks, threads)
            .param_u32(out.0)
            .param_u32(inp.0);
        for &p in extra {
            cfg = cfg.param_u32(p);
        }
        gpu.launch(KernelLaunch::new(prog, cfg)).expect("launch");
        let end = gpu.run_to_idle().expect("run");
        assert_eq!(gpu.stats().oob_accesses, 0);
        (gpu.read_u32(out, words as usize), end)
    }

    #[test]
    fn random_divergent_kernels_match_a_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(0x00D1_7E12);
        for case in 0..24 {
            // y = x > th ? x * scale : x - 1, then each cut on the global
            // thread id adds its own constant below it and 1 above it.
            let (blocks, threads) = (rng.gen_range(1..3u32), rng.gen_range(1..48u32));
            let n = (blocks * threads) as usize;
            let xs: Vec<u32> = (0..n).map(|_| rng.gen_range(-100i32..100) as u32).collect();
            let (th, scale) = (rng.gen_range(-50i32..50), rng.gen_range(1i32..8));
            let cuts: Vec<u32> = (0..rng.gen_range(1..4usize))
                .map(|_| rng.gen_range(0..96u32))
                .collect();
            let mut b = KernelBuilder::new("diverge");
            let (out, x, thr, sc) = (b.param(0), b.param(1), b.param(2), b.param(3));
            let i = b.global_tid_x();
            let xa = b.addr_w(x, i);
            let v = b.ldg(xa, 0);
            let acc = b.reg();
            let p = b.isetp(CmpOp::Gt, v, thr);
            b.if_else(
                p,
                |b| {
                    let m = b.imul(v, sc);
                    b.mov_to(acc, m);
                },
                |b| {
                    let m = b.isub(v, 1u32);
                    b.mov_to(acc, m);
                },
            );
            b.release_preds(1);
            for (k, &cut) in cuts.iter().enumerate() {
                let p = b.isetp(CmpOp::Lt, i, cut);
                b.if_else(
                    p,
                    |b| b.iadd_to(acc, acc, (k as u32 + 1) * 10),
                    |b| b.iadd_to(acc, acc, 1u32),
                );
                b.release_preds(1);
            }
            let ya = b.addr_w(out, i);
            b.stg(ya, 0, acc);
            let prog = b.build().expect("valid").into_shared();
            let (got, _) = run_collect(prog, (blocks, threads), &xs, &[th as u32, scale as u32]);
            for (tid, &xv) in xs.iter().enumerate() {
                let xv = xv as i32;
                let mut want = if xv > th { xv * scale } else { xv - 1 } as u32;
                for (k, &cut) in cuts.iter().enumerate() {
                    want = want.wrapping_add(if (tid as u32) < cut {
                        (k as u32 + 1) * 10
                    } else {
                        1
                    });
                }
                assert_eq!(got[tid], want, "case {case}, thread {tid}");
            }
        }
    }

    #[test]
    fn integer_alu_matches_host_semantics() {
        let mut rng = StdRng::seed_from_u64(0x00A1_0005);
        let edge = [0, 1, -1, 31, 32, i32::MIN, i32::MAX];
        let mut pairs: Vec<(i32, i32)> = edge.iter().flat_map(|&a| edge.map(|b| (a, b))).collect();
        pairs.extend((0..32).map(|_| {
            let draw = |rng: &mut StdRng| rng.gen_range(0..u64::MAX) as u32 as i32;
            (draw(&mut rng), draw(&mut rng))
        }));
        for (a, b) in pairs {
            let mut k = KernelBuilder::new("alu");
            let out = k.param(0);
            let ra = k.mov(a);
            let results = [
                k.iadd(ra, b),
                k.isub(ra, b),
                k.imul(ra, b),
                k.idiv(ra, b),
                k.irem(ra, b),
                k.imin(ra, b),
                k.imax(ra, b),
                k.iand(ra, b),
                k.ior(ra, b),
                k.ixor(ra, b),
                k.ishl(ra, b),
                k.ishr(ra, b),
            ];
            for (w, r) in results.into_iter().enumerate() {
                k.stg(out, 4 * w as i32, r);
            }
            let prog = k.build().expect("valid").into_shared();
            let (got, _) = run_collect(prog, (1, 1), &[], &[]);
            let (au, bu) = (a as u32, b as u32);
            let want = [
                au.wrapping_add(bu),
                au.wrapping_sub(bu),
                au.wrapping_mul(bu),
                if b == 0 { 0 } else { a.wrapping_div(b) as u32 },
                if b == 0 { 0 } else { a.wrapping_rem(b) as u32 },
                a.min(b) as u32,
                a.max(b) as u32,
                au & bu,
                au | bu,
                au ^ bu,
                au.wrapping_shl(bu & 31),
                au.wrapping_shr(bu & 31),
            ];
            assert_eq!(&got[..want.len()], &want, "a = {a}, b = {b}");
        }
    }

    #[test]
    fn makespan_is_monotone_in_sequential_work() {
        let makespan = |loops: u32| {
            let mut b = KernelBuilder::new("work");
            let out = b.param(0);
            let i = b.global_tid_x();
            let acc = b.mov(1.5f32);
            b.for_range(0u32, loops * 16, 1u32, |b, _| {
                b.ffma_to(acc, acc, 0.5f32, 0.25f32);
            });
            let a = b.addr_w(out, i);
            b.stg(a, 0, acc);
            run_collect(b.build().expect("valid").into_shared(), (2, 32), &[], &[]).1
        };
        let spans: Vec<u64> = (1..8).map(makespan).collect();
        assert!(spans.windows(2).all(|w| w[0] <= w[1]), "{spans:?}");
    }

    #[test]
    fn single_kernel_executes_functionally() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(128).expect("alloc");
        gpu.write_u32(buf, &vec![10u32; 128]);
        let cfg = LaunchConfig::new(4u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        assert_eq!(gpu.read_u32(buf, 128), vec![11u32; 128]);
        assert!(gpu.is_idle());
        let st = gpu.stats();
        assert_eq!(st.kernels_completed, 1);
        assert_eq!(st.blocks_completed, 4);
        assert_eq!(st.oob_accesses, 0);
        assert!(st.instructions > 0);
    }

    #[test]
    fn trace_records_block_placement() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(128).expect("alloc");
        let cfg = LaunchConfig::new(4u32, 32u32).param_u32(buf.0);
        let id = gpu
            .launch(KernelLaunch::new(inc_kernel(), cfg).tag("k"))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        let t = gpu.trace();
        assert_eq!(t.blocks_of(id).count(), 4);
        let k = t.kernel(id).expect("kernel record");
        assert!(k.completion.is_some());
        assert!(k.first_dispatch.expect("dispatched") >= k.arrival);
        assert!(k.arrival >= gpu.config().dispatch_gap_cycles);
        // Both SMs used (default scheduler is breadth-first).
        assert_eq!(t.sms_used_by(id).len(), 2);
    }

    #[test]
    fn two_kernels_arrive_serially() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        // Separate buffers: the kernels may overlap on the device, and
        // concurrent increments of one buffer would race (as on real GPUs).
        let buf_a = gpu.alloc_words(64).expect("alloc");
        let buf_b = gpu.alloc_words(64).expect("alloc");
        let a = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf_a.0),
            ))
            .expect("launch");
        let b = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf_b.0),
            ))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        let gap = gpu.config().dispatch_gap_cycles;
        let ka = gpu.trace().kernel(a).expect("a");
        let kb = gpu.trace().kernel(b).expect("b");
        assert_eq!(kb.arrival - ka.arrival, gap, "serial dispatch gap");
        assert_eq!(gpu.read_u32(buf_a, 64), vec![1u32; 64], "kernel a ran");
        assert_eq!(gpu.read_u32(buf_b, 64), vec![1u32; 64], "kernel b ran");
    }

    #[test]
    fn dispatch_delay_defers_arrival_without_slowing_later_launches() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf_a = gpu.alloc_words(64).expect("alloc");
        let buf_b = gpu.alloc_words(64).expect("alloc");
        let a = gpu
            .launch(
                KernelLaunch::new(
                    inc_kernel(),
                    LaunchConfig::new(2u32, 32u32).param_u32(buf_a.0),
                )
                .dispatch_delay(700),
            )
            .expect("launch");
        let b = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf_b.0),
            ))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        let gap = gpu.config().dispatch_gap_cycles;
        let ka = gpu.trace().kernel(a).expect("a");
        let kb = gpu.trace().kernel(b).expect("b");
        assert_eq!(ka.arrival, gap + 700, "delay adds to the dispatch slot");
        assert_eq!(
            kb.arrival,
            2 * gap,
            "a held-back launch does not delay its successors"
        );
        assert!(ka.first_dispatch.expect("dispatched") >= ka.arrival);
        assert_eq!(gpu.read_u32(buf_a, 64), vec![1u32; 64], "delayed ran");
        assert_eq!(gpu.read_u32(buf_b, 64), vec![1u32; 64]);
    }

    #[test]
    fn cancel_in_flight_preserves_clock_memory_and_trace() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(64).expect("alloc");
        gpu.write_u32(buf, &vec![5u32; 64]);
        // First kernel runs to completion; the clock advances.
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(2u32, 32u32).param_u32(buf.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("run");
        let mid_cycle = gpu.cycle();
        assert!(mid_cycle > 0);

        // Second kernel is cut off by a watchdog, then aborted by the host.
        let buf2 = gpu.alloc_words(64).expect("alloc");
        gpu.set_cycle_limit(Some(mid_cycle + 1));
        let id = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf2.0),
            ))
            .expect("launch");
        assert!(matches!(
            gpu.run_to_idle(),
            Err(SimError::DeadlineExceeded { .. })
        ));
        gpu.cancel_in_flight();
        assert!(gpu.is_idle(), "all in-flight work discarded");
        assert!(gpu.cycle() >= mid_cycle, "the clock is never rewound");
        assert_eq!(
            gpu.read_u32(buf, 64),
            vec![6u32; 64],
            "completed results survive the abort"
        );
        let rec = gpu.trace().kernel(id).expect("aborted kernel traced");
        assert_eq!(rec.completion, None, "a killed launch never completes");

        // The device accepts and completes fresh work afterwards (the
        // re-dispatch path), with the clock continuing monotonically.
        let buf3 = gpu.alloc_words(64).expect("alloc");
        gpu.write_u32(buf3, &vec![7u32; 64]);
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(2u32, 32u32).param_u32(buf3.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("retry runs");
        assert_eq!(gpu.read_u32(buf3, 64), vec![8u32; 64]);
        assert!(gpu.cycle() > mid_cycle);
    }

    #[test]
    fn run_until_returns_at_branch_completion_while_siblings_run_on() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf_a = gpu.alloc_words(32).expect("alloc");
        let buf_b = gpu.alloc_words(64).expect("alloc");
        gpu.write_u32(buf_a, &[1u32; 32]);
        gpu.write_u32(buf_b, &vec![1u32; 64]);
        // Branch A: one block. Branch B: four blocks (finishes later).
        let a = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(1u32, 32u32).param_u32(buf_a.0),
            ))
            .expect("launch a");
        let b = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(4u32, 32u32).param_u32(buf_b.0),
            ))
            .expect("launch b");
        assert!(!gpu.kernel_finished(a));
        let mid = gpu.run_until(|g| g.kernel_finished(a)).expect("wait a");
        assert!(gpu.kernel_finished(a));
        assert!(!gpu.kernel_finished(b), "sibling still in flight");
        assert!(!gpu.is_idle());
        assert_eq!(gpu.read_u32(buf_a, 32), vec![2u32; 32], "a delivered");
        // A satisfied wait returns without advancing the clock.
        assert_eq!(gpu.run_until(|g| g.kernel_finished(a)).expect("noop"), mid);
        assert_eq!(gpu.cycle(), mid);
        // The sibling runs on to completion afterwards.
        gpu.run_to_idle().expect("finish b");
        assert!(gpu.kernel_finished(b));
        assert_eq!(gpu.read_u32(buf_b, 64), vec![2u32; 64]);
        assert!(gpu.cycle() > mid);
    }

    #[test]
    fn cancel_kernels_kills_one_branch_and_leaves_the_sibling_intact() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf_a = gpu.alloc_words(64).expect("alloc");
        let buf_b = gpu.alloc_words(64).expect("alloc");
        gpu.write_u32(buf_a, &vec![5u32; 64]);
        gpu.write_u32(buf_b, &vec![7u32; 64]);
        let a = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf_a.0),
            ))
            .expect("launch a");
        let b = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(buf_b.0),
            ))
            .expect("launch b");
        // Cut execution off almost immediately, then abort only branch A.
        gpu.set_cycle_limit(Some(gpu.config().dispatch_gap_cycles + 20));
        assert!(matches!(
            gpu.run_to_idle(),
            Err(SimError::DeadlineExceeded { .. })
        ));
        gpu.set_cycle_limit(None);
        let clock = gpu.cycle();
        gpu.cancel_kernels(&[a]);
        assert!(gpu.kernel_finished(a), "a cancelled kernel id resolves");
        assert!(!gpu.is_idle(), "the sibling branch is still in flight");
        assert_eq!(gpu.cycle(), clock, "cancellation is clock-invisible");
        gpu.run_to_idle().expect("sibling completes");
        assert_eq!(
            gpu.read_u32(buf_b, 64),
            vec![8u32; 64],
            "the sibling's result is undisturbed by the cancellation"
        );
        let rec = gpu.trace().kernel(a).expect("cancelled kernel traced");
        assert_eq!(rec.completion, None, "a killed launch never completes");
        assert!(gpu.trace().kernel(b).expect("b").completion.is_some());
    }

    #[test]
    fn finished_kernels_leave_the_table_but_stay_counted() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(256).expect("alloc");
        let launch = |gpu: &mut Gpu, blocks: u32| {
            gpu.launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(blocks, 32u32).param_u32(buf.0),
            ))
            .expect("launch")
        };
        let completed = |gpu: &Gpu| gpu.stats().kernels_completed;
        let a = launch(&mut gpu, 1);
        let b = launch(&mut gpu, 6);
        gpu.run_until(|g| g.kernel_finished(a)).expect("wait a");
        assert!(gpu.kernel_finished(a) && !gpu.kernel_finished(b));
        assert_eq!(completed(&gpu), 1);
        assert!(
            gpu.kernel_finished(KernelId(99)),
            "an unknown id reads finished"
        );
        let mid = gpu.snapshot();

        // Cancelling a live kernel finishes its id but completes nothing.
        gpu.cancel_kernels(&[b]);
        assert!(gpu.kernel_finished(b) && gpu.is_idle());
        assert_eq!(completed(&gpu), 1);

        // A restore brings the cancelled kernel back, and the count with it.
        gpu.restore(&mid);
        assert!(gpu.kernel_finished(a) && !gpu.kernel_finished(b));
        assert_eq!(completed(&gpu), 1);
        gpu.run_to_idle().expect("finish b");
        assert!(gpu.kernel_finished(b));
        assert_eq!(completed(&gpu), 2);

        // An empty grid completes at launch.
        let empty = launch(&mut gpu, 0);
        assert!(gpu.kernel_finished(empty) && gpu.is_idle());
        assert_eq!(completed(&gpu), 3);

        // Aborting in-flight work keeps the kernels completed before it.
        let c = launch(&mut gpu, 4);
        gpu.set_cycle_limit(Some(gpu.cycle() + 1));
        gpu.run_to_idle().expect_err("deadline fires");
        assert!(!gpu.kernel_finished(c));
        gpu.cancel_in_flight();
        assert!(gpu.kernel_finished(c));
        assert_eq!(completed(&gpu), 3);

        // Restoring the earlier snapshot rewinds the count; `c` was
        // launched after it, so its id is unknown there and reads finished.
        gpu.restore(&mid);
        assert_eq!(completed(&gpu), 1);
        assert!(gpu.kernel_finished(c) && !gpu.kernel_finished(b));
        gpu.run_to_idle().expect("finish b again");

        gpu.reset().expect("idle");
        assert_eq!(completed(&gpu), 0);
        assert!(gpu.kernel_finished(a) && gpu.kernel_finished(b));
    }

    #[test]
    fn alloc_is_aligned_and_bounded() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let a = gpu.alloc(10).expect("alloc");
        let b = gpu.alloc(10).expect("alloc");
        assert_eq!(a.0 % 256, 0);
        assert_eq!(b.0 % 256, 0);
        assert_ne!(a, b);
        let err = gpu.alloc(u32::MAX).expect_err("too big");
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn unschedulable_kernel_rejected() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        // tiny_2sm allows 256 threads/SM; a 512-thread block can never fit.
        let cfg = LaunchConfig::new(1u32, 512u32);
        let err = gpu
            .launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect_err("unschedulable");
        assert!(matches!(err, SimError::Unschedulable { .. }));
    }

    #[test]
    fn policy_swap_requires_idle() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(32).expect("alloc");
        let cfg = LaunchConfig::new(1u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        let err = gpu.set_policy(Box::new(DefaultScheduler::new()));
        assert_eq!(err, Err(SimError::NotIdle));
        gpu.run_to_idle().expect("run");
        gpu.set_policy(Box::new(DefaultScheduler::new()))
            .expect("idle now");
    }

    #[test]
    fn free_all_resets_allocator() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let a = gpu.alloc(1024).expect("alloc");
        gpu.write_u32(a, &[42]);
        gpu.free_all().expect("idle");
        let b = gpu.alloc(1024).expect("alloc");
        assert_eq!(a, b, "allocator reset");
        assert_eq!(gpu.read_u32(b, 1), vec![0], "memory zeroed");
    }

    #[test]
    fn reset_device_is_observationally_fresh() {
        let run = |gpu: &mut Gpu| {
            let buf = gpu.alloc_words(128).expect("alloc");
            gpu.write_u32(buf, &vec![10u32; 128]);
            let cfg = LaunchConfig::new(4u32, 32u32).param_u32(buf.0);
            gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
                .expect("launch");
            gpu.run_to_idle().expect("run");
            (gpu.read_u32(buf, 128), gpu.trace().clone(), gpu.stats())
        };
        let mut fresh = Gpu::new(GpuConfig::tiny_2sm());
        let expected = run(&mut fresh);

        let mut reused = Gpu::new(GpuConfig::tiny_2sm());
        // Pollute the device: another workload, a fault hook, and stray data.
        let junk = reused.alloc_words(512).expect("alloc");
        reused.write_u32(junk, &vec![0xdeadbeef; 512]);
        reused
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(2u32, 32u32).param_u32(junk.0),
            ))
            .expect("launch");
        reused.run_to_idle().expect("run");
        struct Noisy;
        impl crate::fault::FaultHook for Noisy {}
        reused.set_fault_hook(Box::new(Noisy));

        reused.reset().expect("idle");
        assert_eq!(run(&mut reused), expected, "reset == fresh construction");
    }

    #[test]
    fn reset_retains_installed_policy_and_resets_its_state() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Probe {
            resets: Arc<AtomicU32>,
        }
        impl KernelSchedulerPolicy for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn assign(&mut self, view: &mut crate::scheduler::SchedulerView) {
                DefaultScheduler::new().assign(view);
            }
            fn reset(&mut self) {
                self.resets.fetch_add(1, Ordering::Relaxed);
            }
        }
        let resets = Arc::new(AtomicU32::new(0));
        let mut gpu = Gpu::with_policy(
            GpuConfig::tiny_2sm(),
            Box::new(Probe {
                resets: resets.clone(),
            }),
        );
        let buf = gpu.alloc_words(32).expect("alloc");
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(1u32, 32u32).param_u32(buf.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("run");

        gpu.reset().expect("idle");
        assert_eq!(
            gpu.policy_name(),
            "probe",
            "reset must retain the installed policy, not fall back to default"
        );
        assert_eq!(
            resets.load(Ordering::Relaxed),
            1,
            "reset must clear policy state via KernelSchedulerPolicy::reset"
        );

        // The retained policy still schedules on the reset device.
        let buf = gpu.alloc_words(32).expect("alloc");
        gpu.write_u32(buf, &[7; 32]);
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(1u32, 32u32).param_u32(buf.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("run");
        assert_eq!(gpu.read_u32(buf, 32), vec![8u32; 32]);
    }

    #[test]
    fn force_reset_after_watchdog_cutoff_is_observationally_fresh() {
        let run = |gpu: &mut Gpu| {
            let buf = gpu.alloc_words(128).expect("alloc");
            gpu.write_u32(buf, &vec![10u32; 128]);
            let cfg = LaunchConfig::new(4u32, 32u32).param_u32(buf.0);
            gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
                .expect("launch");
            gpu.run_to_idle().expect("run");
            (gpu.read_u32(buf, 128), gpu.stats())
        };
        let mut fresh = Gpu::new(GpuConfig::tiny_2sm());
        let expected = run(&mut fresh);

        // Cut a run off mid-flight, then rewind in place.
        let mut reused = Gpu::new(GpuConfig::tiny_2sm());
        let buf = reused.alloc_words(128).expect("alloc");
        reused.write_u32(buf, &vec![0xdeadbeef; 128]);
        reused
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
            ))
            .expect("launch");
        reused.set_cycle_limit(Some(1));
        reused.run_to_idle().expect_err("deadline fires");
        assert_eq!(reused.reset(), Err(SimError::NotIdle), "device is busy");

        reused.force_reset();
        assert!(reused.is_idle());
        assert_eq!(run(&mut reused), expected, "force_reset == fresh device");
    }

    #[test]
    fn quarantined_sm_receives_no_blocks() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        assert_eq!(gpu.effective_sms(), 2);
        gpu.quarantine_sm(0);
        gpu.quarantine_sm(0); // idempotent
        assert!(gpu.is_quarantined(0) && !gpu.is_quarantined(1));
        assert_eq!(gpu.quarantined_sms(), vec![0]);
        assert_eq!(gpu.effective_sms(), 1);

        let buf = gpu.alloc_words(128).expect("alloc");
        gpu.write_u32(buf, &vec![3u32; 128]);
        let id = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
            ))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        assert_eq!(gpu.read_u32(buf, 128), vec![4u32; 128], "result correct");
        assert_eq!(
            gpu.trace().sms_used_by(id),
            vec![1],
            "every block placed on the sole healthy SM"
        );
    }

    #[test]
    fn all_sms_quarantined_makes_launches_unschedulable() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        gpu.quarantine_sm(0);
        gpu.quarantine_sm(1);
        assert_eq!(gpu.effective_sms(), 0);
        let err = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(1u32, 32u32),
            ))
            .expect_err("no SM left in service");
        assert!(matches!(err, SimError::Unschedulable { .. }));
    }

    /// Regression: a reused campaign device must start every trial healthy.
    /// Quarantine is a diagnosis of *this* trial's fault injection, not
    /// device configuration, so `reset` clears it (unlike the installed
    /// policy, which is retained).
    #[test]
    fn reset_clears_sm_quarantine() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        gpu.quarantine_sm(1);
        assert_eq!(gpu.effective_sms(), 1);
        gpu.reset().expect("idle");
        assert_eq!(gpu.effective_sms(), 2, "reset restores full capacity");
        assert!(gpu.quarantined_sms().is_empty());

        // Both SMs are back in the dispatch rotation.
        let buf = gpu.alloc_words(128).expect("alloc");
        let id = gpu
            .launch(KernelLaunch::new(
                inc_kernel(),
                LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
            ))
            .expect("launch");
        gpu.run_to_idle().expect("run");
        assert_eq!(gpu.trace().sms_used_by(id).len(), 2);
    }

    #[test]
    fn reset_requires_idle() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(32).expect("alloc");
        let cfg = LaunchConfig::new(1u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        assert_eq!(gpu.reset(), Err(SimError::NotIdle));
    }

    /// Regression test for the quiescent-retry path: a policy that never
    /// dispatches anything must yield a prompt `Stalled` error — not an
    /// unbounded scheduler loop at a frozen cycle.
    #[test]
    fn stubborn_policy_stalls_instead_of_spinning() {
        struct Stubborn;
        impl KernelSchedulerPolicy for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn assign(&mut self, _view: &mut crate::scheduler::SchedulerView) {}
        }
        let mut gpu = Gpu::with_policy(GpuConfig::tiny_2sm(), Box::new(Stubborn));
        let buf = gpu.alloc_words(32).expect("alloc");
        let cfg = LaunchConfig::new(1u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        let err = gpu.run_to_idle().expect_err("must stall, not hang");
        assert!(matches!(
            err,
            SimError::Stalled {
                pending_blocks: 1,
                ..
            }
        ));
    }

    /// A policy that withholds work for a while must not trip the stall
    /// detector: the quiescent retry re-runs it and the simulation finishes.
    #[test]
    fn reluctant_policy_eventually_completes() {
        struct Reluctant {
            refusals: u32,
        }
        impl KernelSchedulerPolicy for Reluctant {
            fn name(&self) -> &str {
                "reluctant"
            }
            fn assign(&mut self, view: &mut crate::scheduler::SchedulerView) {
                if self.refusals > 0 {
                    self.refusals -= 1;
                    return;
                }
                DefaultScheduler::new().assign(view);
            }
        }
        let mut gpu = Gpu::with_policy(GpuConfig::tiny_2sm(), Box::new(Reluctant { refusals: 1 }));
        let buf = gpu.alloc_words(64).expect("alloc");
        gpu.write_u32(buf, &vec![1u32; 64]);
        let cfg = LaunchConfig::new(2u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        gpu.run_to_idle().expect("completes after the refusal");
        assert_eq!(gpu.read_u32(buf, 64), vec![2u32; 64]);
    }

    #[test]
    fn watchdog_cuts_off_long_runs_and_reset_disarms_it() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(128).expect("alloc");
        let cfg = LaunchConfig::new(4u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg.clone()))
            .expect("launch");
        gpu.set_cycle_limit(Some(1));
        let err = gpu.run_to_idle().expect_err("deadline must fire");
        assert!(matches!(err, SimError::DeadlineExceeded { limit: 1, .. }));

        // Reset disarms the watchdog; the same workload then completes.
        gpu.reset().expect_err("kernels in flight");
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        gpu.set_cycle_limit(Some(1));
        gpu.reset().expect("idle");
        let buf = gpu.alloc_words(128).expect("alloc");
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("watchdog disarmed by reset");

        // A generous limit does not perturb a normal run.
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        gpu.set_cycle_limit(Some(1_000_000));
        let buf = gpu.alloc_words(128).expect("alloc");
        gpu.write_u32(buf, &vec![1u32; 128]);
        gpu.launch(KernelLaunch::new(
            inc_kernel(),
            LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
        ))
        .expect("launch");
        gpu.run_to_idle().expect("finishes well under the limit");
        assert_eq!(gpu.read_u32(buf, 128), vec![2u32; 128]);
    }

    #[test]
    fn staggered_arrivals_survive_branch_waits_cancels_and_quarantines() {
        // Random dispatch delays interleave kernel arrivals with execution,
        // branch waits return mid-schedule, and cancels and quarantines
        // between runs reshape the pending pool and the SM set. Registry
        // workloads rarely produce this schedule, but the run loop's
        // arrival heap, pending mirror and wake row (cross-checked against
        // their exhaustive scans every step in debug builds) must track it.
        let mut seeder = StdRng::seed_from_u64(0x57A6_6E2D);
        for num_sms in [2usize, 6, 40] {
            for _case in 0..6 {
                let seed = seeder.gen_range(0..u64::MAX);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut gpu = Gpu::new(GpuConfig {
                    num_sms,
                    dispatch_gap_cycles: 40,
                    ..GpuConfig::paper_6sm()
                });
                // (kernel, output buffer, words) of every uncancelled launch.
                let mut live = Vec::new();
                for _round in 0..4 {
                    for _ in 0..rng.gen_range(1..4u32) {
                        let blocks = rng.gen_range(1..2 * num_sms as u32 + 2);
                        let buf = gpu.alloc_words(blocks * 32).expect("alloc");
                        let launch = KernelLaunch::new(
                            inc_kernel(),
                            LaunchConfig::new(blocks, 32u32).param_u32(buf.0),
                        )
                        .dispatch_delay(rng.gen_range(0..3000u64));
                        live.push((gpu.launch(launch).expect("launch"), buf, blocks * 32));
                    }
                    let target = live[rng.gen_range(0..live.len())].0;
                    gpu.run_until(|g| g.kernel_finished(target))
                        .unwrap_or_else(|e| panic!("seed {seed:#x}: branch wait: {e:?}"));
                    assert!(gpu.kernel_finished(target), "seed {seed:#x}");
                    if rng.gen_bool(0.5) {
                        let (victim, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
                        gpu.cancel_kernels(&[victim]);
                    }
                    if rng.gen_bool(0.5) && gpu.effective_sms() > 1 {
                        gpu.quarantine_sm(rng.gen_range(0..num_sms));
                    }
                }
                gpu.run_to_idle()
                    .unwrap_or_else(|e| panic!("seed {seed:#x}: drain: {e:?}"));
                for (id, buf, words) in live {
                    assert!(gpu.kernel_finished(id), "seed {seed:#x}: {id:?}");
                    assert_eq!(
                        gpu.read_u32(buf, words as usize),
                        vec![1u32; words as usize],
                        "seed {seed:#x}: {id:?} output"
                    );
                }
            }
        }
    }

    #[test]
    fn makespan_reported_after_completion() {
        let mut gpu = Gpu::new(GpuConfig::tiny_2sm());
        let buf = gpu.alloc_words(64).expect("alloc");
        let cfg = LaunchConfig::new(2u32, 32u32).param_u32(buf.0);
        gpu.launch(KernelLaunch::new(inc_kernel(), cfg))
            .expect("launch");
        assert_eq!(gpu.trace().makespan(), None);
        gpu.run_to_idle().expect("run");
        assert!(gpu.trace().makespan().is_some());
    }
}
