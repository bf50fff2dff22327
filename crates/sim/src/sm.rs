//! Streaming multiprocessor: block residency (occupancy), greedy-then-oldest
//! warp scheduling, and translation of execution effects into timing.

use crate::block::BlockState;
use crate::config::{GpuConfig, WarpSchedPolicy};
use crate::exec::{step_warp, ExecCtx, StepEffect};
use crate::fault::FaultHook;
use crate::isa::ExecUnit;
use crate::kernel::{BlockFootprint, KernelId};
use crate::mem::system::MemorySystem;
use crate::warp::WarpState;

/// Per-SM resource pools consumed by resident blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Resident threads.
    pub threads: u32,
    /// Resident warps.
    pub warps: u32,
    /// Allocated registers.
    pub registers: u32,
    /// Allocated shared memory bytes.
    pub shared_mem: u32,
    /// Resident blocks.
    pub blocks: u32,
}

/// A completed block, reported back to the GPU for trace/bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCompletion {
    /// Owning kernel.
    pub kernel: KernelId,
    /// Linear block index.
    pub block: u32,
    /// SM that executed the block.
    pub sm: usize,
    /// Dispatch cycle.
    pub start: u64,
    /// Completion cycle.
    pub end: u64,
    /// Dynamic instructions executed by the block's warps.
    pub instrs: u64,
}

/// Per-SM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Instructions issued.
    pub instrs_issued: u64,
    /// Cycles in which at least one instruction issued.
    pub busy_cycles: u64,
    /// Blocks executed to completion.
    pub blocks_completed: u64,
}

/// One dynamic instruction issued by an SM warp scheduler — the unit of the
/// run-to-run trace diff ([`crate::gpu::Gpu::set_issue_log`]): two runs
/// schedule identically iff their issue logs are identical record for
/// record, and the first divergence pinpoints (cycle, SM, warp) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueRecord {
    /// Cycle the instruction issued.
    pub cycle: u64,
    /// Issuing SM.
    pub sm: usize,
    /// Owning kernel.
    pub kernel: KernelId,
    /// Linear block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: usize,
}

/// The architectural state of one SM captured by a device snapshot
/// ([`crate::gpu::DeviceSnapshot`]): resident blocks with their full warp
/// state, resource usage, the warp-scheduler bookmark, the wake-time mirror,
/// counters and the issue log. Scratch buffers (ready masks, coalescing
/// buffers) are rebuilt per [`Sm::issue`] call and deliberately excluded.
#[derive(Debug, Clone)]
pub struct SmState {
    used: ResourceUsage,
    blocks: Vec<BlockState>,
    greedy: Option<(KernelId, u32, usize)>,
    times: Vec<Vec<u64>>,
    next_wake: u64,
    log_enabled: bool,
    log: Vec<IssueRecord>,
    stats: SmStats,
    oob_accesses: u64,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// SM identifier.
    pub id: usize,
    limits: ResourceUsage,
    schedulers: usize,
    alu_latency: u32,
    sfu_latency: u32,
    shared_latency: u32,
    barrier_latency: u32,
    used: ResourceUsage,
    blocks: Vec<BlockState>,
    warp_policy: WarpSchedPolicy,
    /// GTO bookmark: (kernel, block_linear, warp_idx). Under LRR this is
    /// the *last issued* warp, used as the rotation point.
    greedy: Option<(KernelId, u32, usize)>,
    /// Per-block ready masks, index-aligned with `blocks` *within one
    /// [`Sm::issue`] call*: bit `wi` set ⟺ `blocks[bi].warps[wi]` may issue
    /// at the call's cycle. Rebuilt on entry (one pass over resident
    /// warps), then updated incrementally per issued instruction so both
    /// warp pickers are O(1) mask operations — no per-pick rescan, no
    /// per-pick allocation. Retains capacity across calls.
    ready: Vec<u64>,
    /// SoA mirror of per-warp wake-up times, one row per resident block:
    /// `times[bi][wi]` is the warp's `ready_at` while it is
    /// [`WarpState::Ready`], else `u64::MAX`. [`Warp`] structs are scattered
    /// across cache lines, so deriving ready masks and `next_ready_at` from
    /// this dense mirror instead of walking the structs turns both scans
    /// into flat, vectorizable compare/min loops. Kept in lockstep with
    /// every scheduling-state mutation (admit, issue effects, barrier
    /// release, block completion, discard).
    times: Vec<Vec<u64>>,
    /// Cached `min(ready_at)` over all [`WarpState::Ready`] warps
    /// (`u64::MAX` when none): the O(1) answer of [`Sm::next_ready_at`].
    /// Maintained on every mutation of warp scheduling state — folded on
    /// [`Sm::admit`], recomputed at the end of every productive
    /// [`Sm::issue`] call and on block discard. `debug_assert`-checked
    /// against the exhaustive scan on every read.
    next_wake: u64,
    /// When set, every issued instruction is appended to `log`.
    log_enabled: bool,
    /// Per-instruction issue log (run-to-run trace diffs; empty and
    /// cost-free unless [`Sm::set_issue_log`] enabled it).
    log: Vec<IssueRecord>,
    /// Reusable coalesced-transaction scratch handed to the interpreter
    /// ([`crate::exec::ExecCtx::txs`]); allocated once per SM.
    scratch_txs: crate::mem::coalesce::TxBuf,
    /// Reusable atomic-lane-address scratch
    /// ([`crate::exec::ExecCtx::atom_addrs`]).
    scratch_addrs: crate::exec::LaneAddrs,
    stats: SmStats,
    /// Out-of-bounds accesses observed on this SM.
    pub oob_accesses: u64,
}

/// First set bit of `ready[from..]` as `(block index, warp index)` — the
/// oldest issuable warp in (block arrival, warp index) order at or after
/// block `from`.
#[inline]
fn first_set(ready: &[u64], from: usize) -> Option<(usize, usize)> {
    ready
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, &m)| m != 0)
        .map(|(bi, &m)| (bi, m.trailing_zeros() as usize))
}

/// The ready mask of one block at cycle `now` (bit per issuable warp).
#[inline]
fn ready_mask(block: &BlockState, now: u64) -> u64 {
    let mut m = 0u64;
    for (wi, w) in block.warps.iter().enumerate() {
        if w.is_issuable(now) {
            m |= 1u64 << wi;
        }
    }
    m
}

/// Rebuilds one SoA wake-time row from a block's warps: `ready_at` for
/// [`WarpState::Ready`] warps, `u64::MAX` otherwise.
#[inline]
fn fill_times_row(row: &mut Vec<u64>, block: &BlockState) {
    row.clear();
    row.extend(block.warps.iter().map(|w| {
        if w.state == WarpState::Ready {
            w.ready_at
        } else {
            u64::MAX
        }
    }));
}

/// The ready mask of one block derived from its SoA wake-time row: bit per
/// warp whose wake time has matured. Identical to [`ready_mask`] by the row
/// invariant, but a flat compare loop instead of a struct walk.
#[inline]
fn ready_mask_from_times(row: &[u64], now: u64) -> u64 {
    let mut m = 0u64;
    for (wi, &t) in row.iter().enumerate() {
        m |= u64::from(t <= now) << wi;
    }
    m
}

impl Sm {
    /// Creates an empty SM with limits taken from `cfg`.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        Self {
            id,
            limits: ResourceUsage {
                threads: cfg.max_threads_per_sm as u32,
                warps: cfg.max_warps_per_sm as u32,
                registers: cfg.registers_per_sm as u32,
                shared_mem: cfg.shared_mem_per_sm as u32,
                blocks: cfg.max_blocks_per_sm as u32,
            },
            schedulers: cfg.schedulers_per_sm,
            alu_latency: cfg.timing.alu_latency,
            sfu_latency: cfg.timing.sfu_latency,
            shared_latency: cfg.timing.shared_latency,
            barrier_latency: cfg.timing.barrier_latency,
            used: ResourceUsage::default(),
            blocks: Vec::new(),
            warp_policy: cfg.warp_scheduler,
            greedy: None,
            ready: Vec::new(),
            times: Vec::new(),
            next_wake: u64::MAX,
            log_enabled: false,
            log: Vec::new(),
            scratch_txs: crate::mem::coalesce::TxBuf::new(),
            scratch_addrs: crate::exec::LaneAddrs::new(),
            stats: SmStats::default(),
            oob_accesses: 0,
        }
    }

    /// True if a block with footprint `fp` can be admitted right now.
    pub fn fits(&self, fp: &BlockFootprint) -> bool {
        self.used.threads + fp.threads <= self.limits.threads
            && self.used.warps + fp.warps <= self.limits.warps
            && self.used.registers + fp.registers <= self.limits.registers
            && self.used.shared_mem + fp.shared_mem <= self.limits.shared_mem
            && self.used.blocks < self.limits.blocks
    }

    /// Admits a block.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit (the GPU checks [`Sm::fits`] first).
    pub fn admit(&mut self, block: BlockState) {
        assert!(
            self.fits(&block.footprint),
            "block admitted beyond capacity"
        );
        self.used.threads += block.footprint.threads;
        self.used.warps += block.footprint.warps;
        self.used.registers += block.footprint.registers;
        self.used.shared_mem += block.footprint.shared_mem;
        self.used.blocks += 1;
        for w in &block.warps {
            if w.state == WarpState::Ready {
                self.next_wake = self.next_wake.min(w.ready_at);
            }
        }
        let mut row = Vec::with_capacity(block.warps.len());
        fill_times_row(&mut row, &block);
        self.times.push(row);
        self.blocks.push(block);
    }

    /// Remaining capacity.
    pub fn free(&self) -> ResourceUsage {
        ResourceUsage {
            threads: self.limits.threads - self.used.threads,
            warps: self.limits.warps - self.used.warps,
            registers: self.limits.registers - self.used.registers,
            shared_mem: self.limits.shared_mem - self.used.shared_mem,
            blocks: self.limits.blocks - self.used.blocks,
        }
    }

    /// Number of resident blocks.
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are resident.
    pub fn is_idle(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Per-SM counters.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// Earliest cycle at which some warp can issue, or `u64::MAX` if no warp
    /// is issuable (idle, all at barriers, or finished). O(1): answered from
    /// the incrementally-maintained cache, cross-checked against the
    /// exhaustive scan in debug builds.
    pub fn next_ready_at(&self) -> u64 {
        debug_assert_eq!(
            self.next_wake,
            self.scan_next_ready_structs(),
            "cached next_wake diverged from the exhaustive warp scan on SM {}",
            self.id
        );
        self.next_wake
    }

    /// O(warps) recomputation of [`Sm::next_ready_at`] from the dense SoA
    /// wake-time mirror (a flat min over small `u64` rows — vectorizable,
    /// no pointer chasing through [`Warp`] structs).
    fn scan_next_ready(&self) -> u64 {
        let mut next = u64::MAX;
        for row in &self.times {
            for &t in row {
                next = next.min(t);
            }
        }
        next
    }

    /// Exhaustive reference computation of [`Sm::next_ready_at`] straight
    /// from the warp structs, bypassing the SoA mirror — the oracle the
    /// incremental cache and mirror are validated against.
    fn scan_next_ready_structs(&self) -> u64 {
        let mut next = u64::MAX;
        for b in &self.blocks {
            for w in &b.warps {
                if w.state == WarpState::Ready {
                    next = next.min(w.ready_at);
                }
            }
        }
        next
    }

    /// Exhaustive-scan reference for [`Sm::next_ready_at`], exposed so
    /// property tests can cross-check the incremental cache from outside the
    /// crate. Not part of the stable API.
    #[doc(hidden)]
    pub fn debug_exhaustive_next_ready(&self) -> u64 {
        self.scan_next_ready_structs()
    }

    /// Captures the SM's architectural state for a device snapshot.
    pub fn snapshot_state(&self) -> SmState {
        SmState {
            used: self.used,
            blocks: self.blocks.clone(),
            greedy: self.greedy,
            times: self.times.clone(),
            next_wake: self.next_wake,
            log_enabled: self.log_enabled,
            log: self.log.clone(),
            stats: self.stats,
            oob_accesses: self.oob_accesses,
        }
    }

    /// Restores state captured by [`Sm::snapshot_state`], replacing all
    /// resident blocks and counters. Scratch buffers are cleared; they are
    /// rebuilt on the next [`Sm::issue`] call.
    pub fn restore_state(&mut self, state: &SmState) {
        self.used = state.used;
        self.blocks.clone_from(&state.blocks);
        self.greedy = state.greedy;
        self.times.clone_from(&state.times);
        self.next_wake = state.next_wake;
        self.log_enabled = state.log_enabled;
        self.log.clone_from(&state.log);
        self.stats = state.stats;
        self.oob_accesses = state.oob_accesses;
        self.ready.clear();
    }

    /// Enables or disables per-instruction issue logging. Clears any
    /// previously accumulated records.
    pub fn set_issue_log(&mut self, enabled: bool) {
        self.log_enabled = enabled;
        self.log.clear();
    }

    /// Moves accumulated issue records into `out`, preserving issue order.
    pub fn drain_issue_log(&mut self, out: &mut Vec<IssueRecord>) {
        out.append(&mut self.log);
    }

    /// Discards all resident blocks without completing them and releases
    /// their resources — the watchdog-abort path ([`crate::gpu::Gpu`]'s
    /// `force_reset`). Execution state of the discarded blocks is dropped.
    pub fn discard_blocks(&mut self) {
        self.blocks.clear();
        self.times.clear();
        self.used = ResourceUsage::default();
        self.greedy = None;
        self.next_wake = u64::MAX;
    }

    /// Discards only the resident blocks of the given kernels, releasing
    /// their resources — the branch-local abort path of a partitioned frame
    /// executor ([`crate::gpu::Gpu::cancel_kernels`]): sibling kernels on
    /// this SM keep executing undisturbed.
    pub fn discard_blocks_of(&mut self, kernels: &[KernelId]) {
        let mut bi = 0;
        while bi < self.blocks.len() {
            if !kernels.contains(&self.blocks[bi].kernel) {
                bi += 1;
                continue;
            }
            let b = self.blocks.remove(bi);
            self.times.remove(bi);
            self.used.threads -= b.footprint.threads;
            self.used.warps -= b.footprint.warps;
            self.used.registers -= b.footprint.registers;
            self.used.shared_mem -= b.footprint.shared_mem;
            self.used.blocks -= 1;
        }
        // The issue bookmark may point at a discarded block; drop it (the
        // scheduler re-establishes it on the next issue).
        if let Some((k, _, _)) = self.greedy {
            if kernels.contains(&k) {
                self.greedy = None;
            }
        }
        self.next_wake = self.scan_next_ready();
    }

    /// Resets the SM to its post-construction state: counters cleared,
    /// scheduling bookmark dropped. The SM must be idle (no resident
    /// blocks); resource pools are already released at that point.
    ///
    /// # Panics
    ///
    /// Panics if blocks are still resident (callers check [`Sm::is_idle`]).
    pub fn reset(&mut self) {
        assert!(self.blocks.is_empty(), "reset on a busy SM");
        self.used = ResourceUsage::default();
        self.greedy = None;
        self.next_wake = u64::MAX;
        // Keep `log_enabled` (a validator may reset between runs); drop the
        // accumulated records of the previous run.
        self.log.clear();
        self.stats = SmStats::default();
        self.oob_accesses = 0;
        self.times.clear();
    }

    /// Issues up to `schedulers_per_sm` instructions at cycle `now`.
    ///
    /// `global_dirty` is the device-wide store high-water mark (see
    /// [`crate::exec::ExecCtx::global_dirty`]); `fault_enabled` is false when
    /// `fault` is the fault-free default, enabling the no-fault fast path.
    ///
    /// Completed blocks are removed, their resources released, and a
    /// [`BlockCompletion`] pushed to `completions`.
    #[allow(clippy::too_many_arguments)] // device-shared state, one call site in Gpu
    pub fn issue(
        &mut self,
        now: u64,
        global_mem: &mut [u32],
        global_dirty: &mut u32,
        memsys: &mut MemorySystem,
        fault: &mut dyn FaultHook,
        fault_enabled: bool,
        completions: &mut Vec<BlockCompletion>,
    ) {
        // Fast path: with no warp issuable at `now`, every legacy candidate
        // scan fails, every scheduler slot breaks immediately, and no state
        // changes — visiting the SM is a pure no-op. The cached wake-up time
        // answers that in O(1) without touching any warp.
        if self.next_wake > now {
            return;
        }

        // One pass over the flat wake-time mirror builds a ready bit per
        // (block, warp); each scheduler slot then picks via O(1) mask
        // operations and the effect handlers keep the masks current
        // incrementally. Deriving the masks from `times` instead of the
        // warp structs turns the per-visit rebuild into a dense compare
        // loop over contiguous `u64`s rather than a pointer-chase across
        // cache-line-sparse `Warp`s.
        self.ready.clear();
        for row in &self.times {
            self.ready.push(ready_mask_from_times(row, now));
        }

        let mut issued = 0usize;
        for _ in 0..self.schedulers {
            // Candidate selection. Mask bits replicate the legacy scans
            // exactly: ascending (block arrival, warp index) order.
            let mut pick: Option<(usize, usize)> = None;
            match self.warp_policy {
                WarpSchedPolicy::Gto => {
                    // Greedy warp first, then oldest (blocks are kept in
                    // arrival order; warps by index).
                    if let Some((gk, gb, gw)) = self.greedy {
                        if let Some(bi) = self
                            .blocks
                            .iter()
                            .position(|b| b.kernel == gk && b.block_linear == gb)
                        {
                            if self.ready[bi] & (1u64 << gw) != 0 {
                                pick = Some((bi, gw));
                            }
                        }
                    }
                    if pick.is_none() {
                        pick = first_set(&self.ready, 0);
                    }
                }
                WarpSchedPolicy::Lrr => {
                    // Rotate: first ready warp strictly after the last
                    // issued one in (block, warp) order, wrapping around.
                    let anchor = self.greedy.and_then(|(gk, gb, gw)| {
                        self.blocks
                            .iter()
                            .position(|b| b.kernel == gk && b.block_linear == gb)
                            .map(|bi| (bi, gw))
                    });
                    pick = match anchor {
                        Some((abi, gw)) => {
                            // Ready warps of the anchor block strictly after
                            // the anchor warp, then later blocks, then wrap
                            // to the globally first ready warp.
                            let above = if gw >= 63 {
                                0
                            } else {
                                self.ready[abi] & (!0u64 << (gw + 1))
                            };
                            if above != 0 {
                                Some((abi, above.trailing_zeros() as usize))
                            } else {
                                first_set(&self.ready, abi + 1)
                                    .or_else(|| first_set(&self.ready, 0))
                            }
                        }
                        None => first_set(&self.ready, 0),
                    };
                }
            }
            let Some((bi, wi)) = pick else { break };

            let sm_id = self.id;
            let alu_latency = self.alu_latency;
            let sfu_latency = self.sfu_latency;
            let shared_latency = self.shared_latency;
            let block = &mut self.blocks[bi];
            let txs = &mut self.scratch_txs;
            let atom_addrs = &mut self.scratch_addrs;
            let kernel = block.kernel;
            let block_linear = block.block_linear;
            let dims = block.dims;
            let mut oob = 0u64;
            let effect = {
                // Borrow the block's fields disjointly: the program and
                // params stay behind their Arcs (no per-instruction clone).
                let BlockState {
                    program,
                    params,
                    shared,
                    warps,
                    ..
                } = block;
                let warp = &mut warps[wi];
                let mut ctx = ExecCtx {
                    global_mem,
                    shared_mem: shared,
                    params: &params[..],
                    dims,
                    sm_id,
                    cycle: now,
                    kernel,
                    block: block_linear,
                    fault,
                    fault_enabled,
                    oob_accesses: &mut oob,
                    global_dirty,
                    txs: &mut *txs,
                    atom_addrs: &mut *atom_addrs,
                };
                step_warp(warp, program.decoded(), &mut ctx)
            };
            self.oob_accesses += oob;
            issued += 1;
            self.stats.instrs_issued += 1;
            self.greedy = Some((kernel, block_linear, wi));
            if self.log_enabled {
                self.log.push(IssueRecord {
                    cycle: now,
                    sm: sm_id,
                    kernel,
                    block: block_linear,
                    warp: wi,
                });
            }

            let bit = 1u64 << wi;
            match effect {
                StepEffect::Compute(unit) => {
                    let lat = match unit {
                        ExecUnit::Sfu => sfu_latency,
                        ExecUnit::SharedMem => shared_latency,
                        _ => alu_latency,
                    };
                    let w = &mut block.warps[wi];
                    w.ready_at = now + u64::from(lat);
                    self.times[bi][wi] = w.ready_at;
                    if w.ready_at > now {
                        self.ready[bi] &= !bit;
                    }
                }
                StepEffect::SharedMem => {
                    let w = &mut block.warps[wi];
                    w.ready_at = now + u64::from(shared_latency);
                    self.times[bi][wi] = w.ready_at;
                    if w.ready_at > now {
                        self.ready[bi] &= !bit;
                    }
                }
                StepEffect::GlobalMem => {
                    let done = memsys.access(sm_id, now, txs.as_slice());
                    let w = &mut block.warps[wi];
                    w.ready_at = done.max(now + 1);
                    self.times[bi][wi] = w.ready_at;
                    self.ready[bi] &= !bit;
                }
                StepEffect::Atomic => {
                    let mut done = now + 1;
                    for &a in atom_addrs.as_slice() {
                        done = done.max(memsys.access_atomic(now, a));
                    }
                    let w = &mut block.warps[wi];
                    w.ready_at = done;
                    self.times[bi][wi] = w.ready_at;
                    self.ready[bi] &= !bit;
                }
                StepEffect::Barrier => {
                    block.barrier_arrived += 1;
                    if block.try_release_barrier(now, self.barrier_latency) {
                        // Barrier released: warp states changed en masse.
                        self.ready[bi] = ready_mask(block, now);
                        fill_times_row(&mut self.times[bi], block);
                    } else {
                        // This warp moved to AtBarrier.
                        self.ready[bi] &= !bit;
                        self.times[bi][wi] = u64::MAX;
                    }
                    self.greedy = None;
                }
                StepEffect::Finished => {
                    block.warps_running -= 1;
                    // A finished warp may unblock a pending barrier.
                    if block.try_release_barrier(now, self.barrier_latency) {
                        self.ready[bi] = ready_mask(block, now);
                        fill_times_row(&mut self.times[bi], block);
                    } else {
                        self.ready[bi] &= !bit;
                        self.times[bi][wi] = u64::MAX;
                    }
                    self.greedy = None;
                    if block.is_done() {
                        let instrs: u64 = block.warps.iter().map(|w| w.instrs).sum();
                        let fp = block.footprint;
                        completions.push(BlockCompletion {
                            kernel,
                            block: block_linear,
                            sm: sm_id,
                            start: block.start_cycle,
                            end: now,
                            instrs,
                        });
                        self.stats.blocks_completed += 1;
                        self.blocks.remove(bi);
                        self.ready.remove(bi);
                        self.times.remove(bi);
                        self.used.threads -= fp.threads;
                        self.used.warps -= fp.warps;
                        self.used.registers -= fp.registers;
                        self.used.shared_mem -= fp.shared_mem;
                        self.used.blocks -= 1;
                    }
                }
            }
        }
        if issued > 0 {
            self.stats.busy_cycles += 1;
        }
        // Re-derive the cached wake-up time. One O(warps) pass per
        // *productive* visit (the run loop never calls into a sleeping
        // SM), amortized against the >=1 instruction issued above.
        self.next_wake = self.scan_next_ready();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockDims;
    use crate::builder::KernelBuilder;
    use crate::fault::NoFaults;
    use crate::kernel::Dim3;
    use std::sync::Arc;

    fn mk_sm() -> (Sm, MemorySystem, Vec<u32>) {
        let cfg = GpuConfig::tiny_2sm();
        (
            Sm::new(0, &cfg),
            MemorySystem::new(&cfg),
            vec![0u32; cfg.global_mem_bytes / 4],
        )
    }

    fn mk_block(kernel: u64, linear: u32, threads: u32, shared: u32) -> BlockState {
        let mut b = KernelBuilder::new("t");
        let tid = b.special(crate::isa::SpecialReg::TidX);
        let _ = b.iadd(tid, 1u32);
        let program = b.build().expect("valid").into_shared();
        let fp = BlockFootprint {
            threads,
            warps: threads.div_ceil(32),
            registers: threads * u32::from(program.regs_per_thread()),
            shared_mem: shared,
        };
        BlockState::new(
            KernelId(kernel),
            linear,
            BlockDims {
                ctaid: (linear, 0, 0),
                ntid: Dim3::x(threads),
                nctaid: Dim3::x(16),
            },
            program,
            Arc::from(vec![].into_boxed_slice()),
            fp,
            0,
            0,
        )
    }

    #[test]
    fn admission_respects_limits() {
        let (mut sm, _, _) = mk_sm();
        // tiny_2sm: 256 threads/SM, 4 blocks/SM.
        let b = mk_block(0, 0, 128, 0);
        assert!(sm.fits(&b.footprint));
        sm.admit(b);
        let b2 = mk_block(0, 1, 128, 0);
        assert!(sm.fits(&b2.footprint));
        sm.admit(b2);
        let b3 = mk_block(0, 2, 32, 0);
        assert!(!sm.fits(&b3.footprint), "thread limit reached");
        assert_eq!(sm.resident_blocks(), 2);
        assert_eq!(sm.free().threads, 0);
    }

    #[test]
    fn shared_mem_limits_occupancy() {
        let (mut sm, _, _) = mk_sm();
        let b = mk_block(0, 0, 32, 12 * 1024);
        sm.admit(b);
        let b2 = mk_block(0, 1, 32, 12 * 1024);
        let fits = sm.fits(&b2.footprint);
        // tiny_2sm has 16 KiB shared per SM.
        assert!(!fits, "second 12 KiB block must not fit in 16 KiB");
    }

    #[test]
    fn block_runs_to_completion_and_releases_resources() {
        let (mut sm, mut memsys, mut mem) = mk_sm();
        sm.admit(mk_block(7, 3, 64, 256));
        let mut done = Vec::new();
        let mut hook = NoFaults;
        let mut dirty = 0u32;
        let mut now = 0u64;
        while done.is_empty() {
            sm.issue(
                now,
                &mut mem,
                &mut dirty,
                &mut memsys,
                &mut hook,
                false,
                &mut done,
            );
            if !done.is_empty() {
                break;
            }
            now = now.max(sm.next_ready_at()).max(now + 1);
            assert!(now < 10_000, "block must finish quickly");
        }
        assert_eq!(done.len(), 1);
        let c = &done[0];
        assert_eq!(c.kernel, KernelId(7));
        assert_eq!(c.block, 3);
        assert_eq!(c.sm, 0);
        assert!(c.end >= c.start);
        assert!(c.instrs >= 2 * 2, "2 warps x >=2 instructions");
        assert!(sm.is_idle());
        assert_eq!(sm.free().threads, 256);
        assert_eq!(sm.stats().blocks_completed, 1);
        assert!(sm.stats().instrs_issued > 0);
    }

    #[test]
    fn next_ready_reflects_latency() {
        let (mut sm, mut memsys, mut mem) = mk_sm();
        sm.admit(mk_block(0, 0, 32, 0));
        let mut done = Vec::new();
        let mut hook = NoFaults;
        let mut dirty = 0u32;
        sm.issue(
            0,
            &mut mem,
            &mut dirty,
            &mut memsys,
            &mut hook,
            false,
            &mut done,
        );
        let next = sm.next_ready_at();
        assert!(next > 0, "issued warp has pending latency");
        assert_ne!(next, u64::MAX);
    }

    #[test]
    fn barrier_synchronizes_two_warps() {
        let mut b = KernelBuilder::new("bar");
        let tid = b.special(crate::isa::SpecialReg::TidX);
        let off = b.ishl(tid, 2u32);
        b.sts(off, 0, tid);
        b.bar();
        // After the barrier, read neighbour (tid+1) % 64.
        let next = b.iadd(tid, 1u32);
        let wrapped = b.irem(next, 64u32);
        let noff = b.ishl(wrapped, 2u32);
        let _ = b.lds(noff, 0);
        let program = b.build().expect("valid").into_shared();

        let fp = BlockFootprint {
            threads: 64,
            warps: 2,
            registers: 64 * u32::from(program.regs_per_thread()),
            shared_mem: 256,
        };
        let block = BlockState::new(
            KernelId(0),
            0,
            BlockDims {
                ctaid: (0, 0, 0),
                ntid: Dim3::x(64),
                nctaid: Dim3::x(1),
            },
            program,
            Arc::from(vec![].into_boxed_slice()),
            fp,
            0,
            0,
        );
        let (mut sm, mut memsys, mut mem) = mk_sm();
        sm.admit(block);
        let mut done = Vec::new();
        let mut hook = NoFaults;
        let mut dirty = 0u32;
        let mut now = 0u64;
        while done.is_empty() {
            sm.issue(
                now,
                &mut mem,
                &mut dirty,
                &mut memsys,
                &mut hook,
                false,
                &mut done,
            );
            if !done.is_empty() {
                break;
            }
            let next = sm.next_ready_at();
            assert!(next != u64::MAX, "deadlock: barrier never released");
            now = now.max(next).max(now + 1);
            assert!(now < 100_000);
        }
        assert_eq!(done.len(), 1);
    }
}

#[cfg(test)]
mod warp_sched_tests {
    use super::*;
    use crate::block::BlockDims;
    use crate::builder::KernelBuilder;
    use crate::config::WarpSchedPolicy;
    use crate::fault::NoFaults;
    use crate::kernel::Dim3;
    use std::sync::Arc;

    /// A block whose warps each execute a long ALU chain, so issue order is
    /// observable.
    fn mk_block(warps: u32) -> BlockState {
        let mut b = KernelBuilder::new("chain");
        let acc = b.mov(1u32);
        for _ in 0..8 {
            b.iadd_to(acc, acc, 1u32);
        }
        let program = b.build().expect("valid").into_shared();
        let threads = warps * 32;
        let fp = crate::kernel::BlockFootprint {
            threads,
            warps,
            registers: threads * u32::from(program.regs_per_thread()),
            shared_mem: 0,
        };
        BlockState::new(
            KernelId(0),
            0,
            BlockDims {
                ctaid: (0, 0, 0),
                ntid: Dim3::x(threads),
                nctaid: Dim3::x(1),
            },
            program,
            Arc::from(vec![].into_boxed_slice()),
            fp,
            0,
            0,
        )
    }

    fn issue_trace(policy: WarpSchedPolicy, steps: usize) -> Vec<(KernelId, u32, usize)> {
        let mut cfg = GpuConfig::tiny_2sm();
        cfg.warp_scheduler = policy;
        cfg.schedulers_per_sm = 1;
        let mut sm = Sm::new(0, &cfg);
        let mut memsys = crate::mem::system::MemorySystem::new(&cfg);
        let mut mem = vec![0u32; 256];
        let mut done = Vec::new();
        let mut hook = NoFaults;
        let mut dirty = 0u32;
        sm.admit(mk_block(4));
        let mut picks = Vec::new();
        let mut now = 0u64;
        for _ in 0..steps {
            sm.issue(
                now,
                &mut mem,
                &mut dirty,
                &mut memsys,
                &mut hook,
                false,
                &mut done,
            );
            if let Some(g) = sm.greedy {
                picks.push(g);
            }
            // Step far enough that every warp is ready again: the policies
            // then differ purely in their selection rule.
            now += 100;
            if sm.is_idle() {
                break;
            }
        }
        picks
    }

    #[test]
    fn gto_sticks_with_one_warp() {
        let picks = issue_trace(WarpSchedPolicy::Gto, 6);
        // With every warp ready at each issue slot, GTO keeps re-issuing
        // the greedy warp until it finishes.
        assert!(picks.len() >= 4);
        assert!(
            picks.windows(2).all(|w| w[0] == w[1]),
            "GTO must re-issue the greedy warp: {picks:?}"
        );
    }

    #[test]
    fn lrr_rotates_across_warps() {
        let picks = issue_trace(WarpSchedPolicy::Lrr, 6);
        assert!(picks.len() >= 4);
        let distinct: std::collections::BTreeSet<usize> =
            picks.iter().map(|&(_, _, wi)| wi).collect();
        assert!(
            distinct.len() >= 3,
            "LRR must rotate over the ready warps: {picks:?}"
        );
        assert!(
            picks.windows(2).all(|w| w[0] != w[1]),
            "LRR never re-issues the same warp while others are ready: {picks:?}"
        );
    }

    #[test]
    fn both_policies_produce_identical_results() {
        // Scheduling order must never change functional outcomes.
        let run = |policy| {
            let mut cfg = GpuConfig::tiny_2sm();
            cfg.warp_scheduler = policy;
            let mut gpu = crate::gpu::Gpu::new(cfg);
            let buf = gpu.alloc_words(128).expect("alloc");
            let mut b = KernelBuilder::new("sum");
            let out = b.param(0);
            let i = b.global_tid_x();
            let a = b.addr_w(out, i);
            let v = b.imul(i, 5u32);
            b.stg(a, 0, v);
            let prog = b.build().expect("valid").into_shared();
            gpu.launch(crate::kernel::KernelLaunch::new(
                prog,
                crate::kernel::LaunchConfig::new(4u32, 32u32).param_u32(buf.0),
            ))
            .expect("launch");
            gpu.run_to_idle().expect("run");
            gpu.read_u32(buf, 128)
        };
        assert_eq!(run(WarpSchedPolicy::Gto), run(WarpSchedPolicy::Lrr));
    }
}
