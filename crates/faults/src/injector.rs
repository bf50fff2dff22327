//! The fault injector: a [`FaultHook`] implementation driven by a
//! [`FaultModel`], with shared activation counters so campaigns can observe
//! whether a fault actually struck.

use crate::model::FaultModel;
use higpu_sim::fault::{FaultCtx, FaultHook};
use higpu_sim::kernel::KernelId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Activation counters shared between the injector (owned by the GPU) and
/// the campaign runner.
#[derive(Debug, Default)]
pub struct InjectionCounters {
    /// Values corrupted.
    pub corrupted_values: AtomicU64,
    /// Block assignments rerouted.
    pub rerouted_blocks: AtomicU64,
}

impl InjectionCounters {
    /// Fresh shared counters.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// True if the fault influenced the run in any way.
    pub fn activated(&self) -> bool {
        self.corrupted_values.load(Ordering::Relaxed) > 0
            || self.rerouted_blocks.load(Ordering::Relaxed) > 0
    }
}

/// Injects one [`FaultModel`] into a simulation.
#[derive(Debug)]
pub struct FaultInjector {
    model: FaultModel,
    counters: Arc<InjectionCounters>,
}

impl FaultInjector {
    /// Creates an injector reporting into `counters`.
    pub fn new(model: FaultModel, counters: Arc<InjectionCounters>) -> Self {
        Self { model, counters }
    }

    /// The injected model.
    pub fn model(&self) -> FaultModel {
        self.model
    }
}

impl FaultHook for FaultInjector {
    fn armed(&self, ctx: &FaultCtx) -> bool {
        // Exactly the predicate corrupt_value tests per lane: while the
        // fault window is closed the engine skips all 32 virtual calls.
        self.model.corrupts(ctx)
    }

    fn corrupt_value(&mut self, ctx: &FaultCtx, _lane: usize, value: u32) -> u32 {
        if self.model.corrupts(ctx) {
            self.counters
                .corrupted_values
                .fetch_add(1, Ordering::Relaxed);
            value ^ 1u32 << self.model.bit()
        } else {
            value
        }
    }

    fn reroute_block(
        &mut self,
        _kernel: KernelId,
        _block: u32,
        chosen_sm: usize,
        num_sms: usize,
        fits: &dyn Fn(usize) -> bool,
    ) -> usize {
        if let FaultModel::SchedulerMisroute { shift } = self.model {
            let target = (chosen_sm + shift) % num_sms;
            if fits(target) {
                self.counters
                    .rerouted_blocks
                    .fetch_add(1, Ordering::Relaxed);
                return target;
            }
        }
        chosen_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::isa::ExecUnit;

    fn ctx(sm: usize, cycle: u64) -> FaultCtx {
        FaultCtx {
            sm,
            cycle,
            kernel: KernelId(0),
            block: 0,
            warp: 0,
            pc: 0,
            unit: ExecUnit::Alu,
        }
    }

    #[test]
    fn flips_the_configured_bit_inside_the_window() {
        let counters = InjectionCounters::shared();
        let mut inj = FaultInjector::new(
            FaultModel::TransientSm {
                sm: 0,
                start: 10,
                duration: 10,
                bit: 4,
            },
            counters.clone(),
        );
        assert_eq!(inj.corrupt_value(&ctx(0, 15), 0, 0b0), 0b1_0000);
        assert_eq!(inj.corrupt_value(&ctx(0, 25), 0, 0b0), 0b0);
        assert_eq!(inj.corrupt_value(&ctx(1, 15), 0, 0b0), 0b0);
        assert!(counters.activated());
        assert_eq!(counters.corrupted_values.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn misroute_shifts_assignments_that_fit() {
        let counters = InjectionCounters::shared();
        let mut inj =
            FaultInjector::new(FaultModel::SchedulerMisroute { shift: 2 }, counters.clone());
        let sm = inj.reroute_block(KernelId(0), 0, 1, 6, &|_| true);
        assert_eq!(sm, 3);
        // When the target does not fit, the original stands.
        let sm = inj.reroute_block(KernelId(0), 1, 1, 6, &|s| s == 1);
        assert_eq!(sm, 1);
        assert_eq!(counters.rerouted_blocks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn armed_agrees_with_corruption_window() {
        let inj = FaultInjector::new(
            FaultModel::TransientSm {
                sm: 0,
                start: 10,
                duration: 10,
                bit: 4,
            },
            InjectionCounters::shared(),
        );
        assert!(inj.armed(&ctx(0, 15)));
        assert!(!inj.armed(&ctx(0, 25)), "window closed");
        assert!(!inj.armed(&ctx(1, 15)), "other SM");
    }

    #[test]
    fn inactive_fault_leaves_no_trace() {
        let counters = InjectionCounters::shared();
        let mut inj = FaultInjector::new(
            FaultModel::PermanentSm {
                sm: 5,
                from_cycle: 0,
                bit: 0,
            },
            counters.clone(),
        );
        assert_eq!(inj.corrupt_value(&ctx(2, 100), 0, 7), 7);
        assert!(!counters.activated());
    }
}
