//! Warp state: per-lane registers, predicates and the SIMT divergence stack.

/// An entry of the SIMT reconvergence stack.
///
/// The warp always executes the top entry. Divergent branches retarget the
/// current entry to the reconvergence PC and push one entry per taken path;
/// entries pop when their PC reaches their reconvergence point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEntry {
    /// Active-lane mask for this path.
    pub mask: u32,
    /// Next PC to execute.
    pub pc: u32,
    /// PC at which this entry pops ([`u32::MAX`] for the base entry).
    pub reconv: u32,
}

/// Scheduling state of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// May issue once `ready_at` is reached.
    Ready,
    /// Waiting at a block-wide barrier.
    AtBarrier,
    /// All lanes exited.
    Finished,
}

/// One warp of up to 32 threads executing in lockstep.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp index within its block.
    pub warp_idx: usize,
    /// Register file, laid out `regs[reg * 32 + lane]`.
    pub regs: Vec<u32>,
    /// Predicate registers, one 32-bit lane mask per predicate.
    pub preds: [u32; 8],
    /// SIMT divergence stack (never empty while running).
    pub stack: Vec<StackEntry>,
    /// Lanes that have not executed `exit` (subset of the initial mask).
    pub live: u32,
    /// Earliest cycle the warp may issue its next instruction.
    pub ready_at: u64,
    /// Scheduling state.
    pub state: WarpState,
    /// Dynamic instruction count (for statistics).
    pub instrs: u64,
    /// Uniformity bitmap: bit `r` set means register `r` is *known* to hold
    /// the same value in all 32 lanes (registers ≥ 64 are never tracked).
    /// Purely an acceleration overlay over the materialized register file —
    /// the interpreter may compute uniform operations once and splat — so
    /// the only invariant is soundness: a set bit implies the 32 lanes are
    /// bit-identical; a clear bit implies nothing. Travels with the warp
    /// through `Clone` (device snapshots) like every other derived field.
    pub uniform: u64,
}

impl Warp {
    /// Creates a warp with `active` initial lanes and `nregs` registers per
    /// lane, ready at `ready_at`.
    pub fn new(warp_idx: usize, active: u32, nregs: u16, ready_at: u64) -> Self {
        Self {
            warp_idx,
            regs: vec![0u32; usize::from(nregs) * 32],
            preds: [0; 8],
            stack: {
                // Preallocate typical divergence depth so the interpreter
                // hot path never grows the stack (each divergence pushes two
                // entries); deeper nesting still works, it just reallocates.
                let mut stack = Vec::with_capacity(16);
                stack.push(StackEntry {
                    mask: active,
                    pc: 0,
                    reconv: u32::MAX,
                });
                stack
            },
            live: active,
            ready_at,
            state: WarpState::Ready,
            instrs: 0,
            // Freshly allocated registers are all zero, hence uniform.
            uniform: if nregs >= 64 {
                u64::MAX
            } else {
                (1u64 << nregs) - 1
            },
        }
    }

    /// True when the warp can issue an instruction at cycle `now`: it is
    /// [`WarpState::Ready`] and its pending latency has elapsed. This is
    /// *the* predicate of the warp schedulers — the per-block ready masks
    /// and the SM's cached `next_ready_at` are both defined in terms of it.
    #[inline]
    pub fn is_issuable(&self, now: u64) -> bool {
        self.state == WarpState::Ready && self.ready_at <= now
    }

    /// The initial active mask for a warp covering threads
    /// `[warp_idx*32, warp_idx*32+32)` of a block with `block_threads`
    /// threads.
    pub fn initial_mask(warp_idx: usize, block_threads: u32) -> u32 {
        let begin = (warp_idx * 32) as u32;
        if block_threads <= begin {
            0
        } else {
            let lanes = (block_threads - begin).min(32);
            if lanes == 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            }
        }
    }

    /// Current active mask: lanes of the top stack entry that are still live.
    pub fn active_mask(&self) -> u32 {
        self.stack.last().map_or(0, |e| e.mask) & self.live
    }

    /// Pops reconverged or emptied entries. Returns `false` when the warp has
    /// fully finished (no live lanes or empty stack).
    pub fn settle(&mut self) -> bool {
        loop {
            let Some(top) = self.stack.last() else {
                return false;
            };
            let reconverged = top.pc == top.reconv;
            let empty = top.mask & self.live == 0;
            if (reconverged || empty) && self.stack.len() > 1 {
                self.stack.pop();
            } else {
                return !empty;
            }
        }
    }

    /// Removes `mask` lanes from every stack entry (exit semantics).
    pub fn retire_lanes(&mut self, mask: u32) {
        self.live &= !mask;
        for e in &mut self.stack {
            e.mask &= !mask;
        }
    }

    /// Reads register `r` of `lane`.
    #[inline]
    pub fn reg(&self, r: u16, lane: usize) -> u32 {
        self.regs[usize::from(r) * 32 + lane]
    }

    /// Writes register `r` of `lane`. Conservatively clears the uniformity
    /// bit: a single-lane write may break the all-lanes-identical invariant.
    #[inline]
    pub fn set_reg(&mut self, r: u16, lane: usize, v: u32) {
        self.regs[usize::from(r) * 32 + lane] = v;
        self.clear_uniform(r);
    }

    /// True when register `r` is tracked as warp-uniform (see [`Warp::uniform`]).
    #[inline]
    pub fn is_uniform(&self, r: u16) -> bool {
        r < 64 && self.uniform & (1u64 << r) != 0
    }

    /// Marks register `r` as warp-uniform. The caller guarantees all 32
    /// lanes of `r` hold the same value.
    #[inline]
    pub fn mark_uniform(&mut self, r: u16) {
        if r < 64 {
            self.uniform |= 1u64 << r;
        }
    }

    /// Drops the uniformity claim for register `r` (always sound).
    #[inline]
    pub fn clear_uniform(&mut self, r: u16) {
        if r < 64 {
            self.uniform &= !(1u64 << r);
        }
    }

    /// Reads predicate `p` of `lane`.
    #[inline]
    pub fn pred(&self, p: u8, lane: usize) -> bool {
        self.preds[usize::from(p)] & (1 << lane) != 0
    }

    /// Writes predicate `p` of `lane`.
    #[inline]
    pub fn set_pred(&mut self, p: u8, lane: usize, v: bool) {
        if v {
            self.preds[usize::from(p)] |= 1 << lane;
        } else {
            self.preds[usize::from(p)] &= !(1 << lane);
        }
    }

    /// The mask of lanes (within `of`) whose predicate `p`, xor `negate`,
    /// holds.
    pub fn pred_mask(&self, p: u8, negate: bool, of: u32) -> u32 {
        let raw = self.preds[usize::from(p)];
        let m = if negate { !raw } else { raw };
        m & of
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mask_handles_partial_warps() {
        assert_eq!(Warp::initial_mask(0, 64), u32::MAX);
        assert_eq!(Warp::initial_mask(1, 64), u32::MAX);
        assert_eq!(Warp::initial_mask(0, 5), 0b11111);
        assert_eq!(Warp::initial_mask(1, 33), 0b1);
        assert_eq!(Warp::initial_mask(2, 64), 0);
        assert_eq!(Warp::initial_mask(0, 32), u32::MAX);
        // Every block size: the warps' masks partition the block's threads.
        for threads in 1..1024u32 {
            let warps = threads.div_ceil(32) as usize;
            let masks: Vec<u32> = (0..warps).map(|w| Warp::initial_mask(w, threads)).collect();
            assert!(masks.iter().all(|&m| m != 0), "{threads} threads");
            let covered: u32 = masks.iter().map(|m| m.count_ones()).sum();
            assert_eq!(covered, threads);
            assert_eq!(Warp::initial_mask(warps, threads), 0);
        }
    }

    #[test]
    fn settle_pops_reconverged_entries() {
        let mut w = Warp::new(0, u32::MAX, 4, 0);
        w.stack.push(StackEntry {
            mask: 0xff,
            pc: 10,
            reconv: 10,
        });
        assert!(w.settle());
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.active_mask(), u32::MAX);
    }

    #[test]
    fn settle_reports_finished_when_all_lanes_exit() {
        let mut w = Warp::new(0, 0b1111, 4, 0);
        w.retire_lanes(0b1111);
        assert!(!w.settle());
    }

    #[test]
    fn retire_lanes_scrubs_all_entries() {
        let mut w = Warp::new(0, u32::MAX, 4, 0);
        w.stack.push(StackEntry {
            mask: 0xf0,
            pc: 5,
            reconv: 20,
        });
        w.retire_lanes(0x30);
        assert_eq!(w.stack[0].mask, !0x30);
        assert_eq!(w.stack[1].mask, 0xc0);
        assert_eq!(w.live, !0x30);
    }

    #[test]
    fn register_and_predicate_accessors() {
        let mut w = Warp::new(0, u32::MAX, 8, 0);
        w.set_reg(3, 7, 42);
        assert_eq!(w.reg(3, 7), 42);
        assert_eq!(w.reg(3, 6), 0);
        w.set_pred(2, 5, true);
        assert!(w.pred(2, 5));
        w.set_pred(2, 5, false);
        assert!(!w.pred(2, 5));
    }

    #[test]
    fn uniformity_bitmap_starts_full_and_clears_on_lane_writes() {
        let mut w = Warp::new(0, u32::MAX, 8, 0);
        assert!(w.is_uniform(3), "zeroed registers start uniform");
        w.set_reg(3, 7, 42);
        assert!(!w.is_uniform(3), "a lane write drops the claim");
        for lane in 0..32 {
            w.set_reg(3, lane, 42);
        }
        w.mark_uniform(3);
        assert!(w.is_uniform(3));

        // Registers beyond the 64-bit map are never tracked.
        let big = Warp::new(0, u32::MAX, 80, 0);
        assert!(big.is_uniform(63));
        assert!(!big.is_uniform(64));
        assert!(!big.is_uniform(79));
    }

    #[test]
    fn pred_mask_applies_negation_and_scope() {
        let mut w = Warp::new(0, u32::MAX, 1, 0);
        for lane in 0..8 {
            w.set_pred(0, lane, lane % 2 == 0);
        }
        assert_eq!(w.pred_mask(0, false, 0xff), 0b01010101);
        assert_eq!(w.pred_mask(0, true, 0xff), 0b10101010);
        assert_eq!(w.pred_mask(0, false, 0x0f), 0b0101);
    }
}
