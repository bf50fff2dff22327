//! Fault-injection hooks.
//!
//! The simulator calls into a [`FaultHook`] at the two architecturally
//! relevant corruption points of the paper's analysis:
//!
//! * **computation results** — every value produced by an execution unit and
//!   every value written to memory passes through
//!   [`FaultHook::corrupt_value`], allowing transient and permanent SM-core
//!   faults (including common-cause faults striking several SMs at once);
//! * **the global kernel scheduler** — every block-to-SM assignment passes
//!   through [`FaultHook::reroute_block`], allowing scheduler misrouting
//!   faults (paper Sec. IV-C).
//!
//! Concrete fault models live in the `higpu-faults` crate.

use crate::isa::ExecUnit;
use crate::kernel::KernelId;

/// Where and when a value is being produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCtx {
    /// SM executing the instruction.
    pub sm: usize,
    /// Current cycle.
    pub cycle: u64,
    /// Kernel owning the block.
    pub kernel: KernelId,
    /// Linear block index.
    pub block: u32,
    /// Warp index within the block.
    pub warp: usize,
    /// Program counter of the instruction.
    pub pc: u32,
    /// Functional unit producing the value.
    pub unit: ExecUnit,
}

/// Injection interface; the default implementation of every method is a
/// no-op, so hooks override only the corruption points they model.
pub trait FaultHook {
    /// Cheap per-instruction arming test: returns `true` if this hook *may*
    /// corrupt values produced in context `ctx`. When `false`, the execution
    /// engine skips the per-lane [`FaultHook::corrupt_value`] calls for the
    /// whole instruction — the hot-path fast exit for trials whose fault
    /// window is closed.
    ///
    /// The default is conservatively `true` so hooks that only override
    /// `corrupt_value` keep their pre-fast-path behaviour. Overriding
    /// implementations must guarantee that `corrupt_value` is the identity
    /// whenever `armed` returns `false`.
    ///
    /// Beyond skipping corruption calls, `armed` also gates the
    /// interpreter's value fast paths (uniform scalarization, full-mask row
    /// writes, coalesced row copies — see [`crate::exec`]): while a hook is
    /// armed, every instruction runs the per-lane masked loop so the hook
    /// observes exactly the materialized lane values. `armed` takes `&self`
    /// and must be a pure query — it is the *only* hook method that may be
    /// called for an instruction (fast paths make no further calls when it
    /// returns `false`), so it must not carry observable side effects.
    fn armed(&self, _ctx: &FaultCtx) -> bool {
        true
    }

    /// May corrupt a value produced for `lane`. Called for every destination
    /// register write and every stored word.
    fn corrupt_value(&mut self, _ctx: &FaultCtx, _lane: usize, value: u32) -> u32 {
        value
    }

    /// May reroute a block assignment decided by the kernel scheduler.
    ///
    /// `fits` reports whether a candidate SM has capacity for the block; the
    /// returned SM must satisfy `fits` or the assignment is dropped for this
    /// round (the block is retried later).
    fn reroute_block(
        &mut self,
        _kernel: KernelId,
        _block: u32,
        chosen_sm: usize,
        _num_sms: usize,
        _fits: &dyn Fn(usize) -> bool,
    ) -> usize {
        chosen_sm
    }
}

/// The default hook: a fault-free machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn armed(&self, _ctx: &FaultCtx) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let ctx = FaultCtx {
            sm: 0,
            cycle: 0,
            kernel: KernelId(0),
            block: 0,
            warp: 0,
            pc: 0,
            unit: ExecUnit::Alu,
        };
        let mut h = NoFaults;
        assert!(!h.armed(&ctx), "the fault-free machine is never armed");
        assert_eq!(h.corrupt_value(&ctx, 3, 0xabcd), 0xabcd);
        assert_eq!(h.reroute_block(KernelId(0), 0, 2, 6, &|_| true), 2);
    }

    #[test]
    fn default_armed_is_conservative() {
        struct OnlyCorrupt;
        impl FaultHook for OnlyCorrupt {
            fn corrupt_value(&mut self, _ctx: &FaultCtx, _lane: usize, v: u32) -> u32 {
                v ^ 1
            }
        }
        let ctx = FaultCtx {
            sm: 0,
            cycle: 0,
            kernel: KernelId(0),
            block: 0,
            warp: 0,
            pc: 0,
            unit: ExecUnit::Alu,
        };
        // A hook that overrides only corrupt_value must still be consulted.
        assert!(OnlyCorrupt.armed(&ctx));
    }
}
