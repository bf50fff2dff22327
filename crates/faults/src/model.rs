//! Fault models for the common-cause-fault analysis of the paper.
//!
//! Each model corrupts values at one of the two architectural injection
//! points exposed by `higpu-sim` ([`higpu_sim::fault::FaultHook`]):
//! computation results, or the global scheduler's block placement.

use higpu_sim::fault::FaultCtx;

/// The fault universe considered in the paper's safety argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// A transient fault local to one SM: every value produced on `sm`
    /// during `[start, start+duration)` has `bit` flipped.
    TransientSm {
        /// Affected SM.
        sm: usize,
        /// First affected cycle.
        start: u64,
        /// Window length in cycles.
        duration: u64,
        /// Bit to flip.
        bit: u8,
    },
    /// A voltage droop — the canonical transient **common-cause fault**: the
    /// same corruption strikes *every* SM simultaneously during the window.
    /// Defeats plain redundancy when replicas execute the same computation
    /// at the same instant; defeated by temporal diversity.
    VoltageDroop {
        /// First affected cycle.
        start: u64,
        /// Window length in cycles.
        duration: u64,
        /// Bit to flip.
        bit: u8,
    },
    /// A permanent fault in one SM's datapath: every value produced on `sm`
    /// (from `from_cycle` on) has `bit` flipped. Defeats plain redundancy
    /// when both replicas of a block land on the faulty SM; defeated by
    /// spatial diversity.
    PermanentSm {
        /// Faulty SM.
        sm: usize,
        /// Cycle the defect manifests.
        from_cycle: u64,
        /// Stuck bit.
        bit: u8,
    },
    /// A fault in the global kernel scheduler: every block assignment, from
    /// the first dispatch on, is shifted to `(sm + shift) % num_sms`.
    /// Functionally silent — exactly the latent-diversity-loss fault of
    /// paper Sec. IV-C that the periodic scheduler self-test must reveal.
    SchedulerMisroute {
        /// Placement shift.
        shift: usize,
    },
}

impl FaultModel {
    /// True if this model corrupts values produced in context `ctx`.
    pub fn corrupts(&self, ctx: &FaultCtx) -> bool {
        match *self {
            FaultModel::TransientSm {
                sm,
                start,
                duration,
                ..
            } => ctx.sm == sm && ctx.cycle >= start && ctx.cycle < start + duration,
            FaultModel::VoltageDroop {
                start, duration, ..
            } => ctx.cycle >= start && ctx.cycle < start + duration,
            FaultModel::PermanentSm { sm, from_cycle, .. } => {
                ctx.sm == sm && ctx.cycle >= from_cycle
            }
            FaultModel::SchedulerMisroute { .. } => false,
        }
    }

    /// The first cycle at which this model can influence the run — before
    /// it, a trial's device state is bit-identical to a fault-free run of
    /// the same workload, which is what lets checkpointed campaigns
    /// fast-forward a trial to a recorded fault-free snapshot at or before
    /// this cycle and simulate only the corrupted suffix.
    ///
    /// Misroutes return 0: the injector reroutes block placements from the
    /// very first dispatch, so no prefix of a misroute trial is fault-free.
    pub fn arm_cycle(&self) -> u64 {
        match *self {
            FaultModel::TransientSm { start, .. } | FaultModel::VoltageDroop { start, .. } => start,
            FaultModel::PermanentSm { from_cycle, .. } => from_cycle,
            FaultModel::SchedulerMisroute { .. } => 0,
        }
    }

    /// The first cycle at which this model can no longer corrupt anything:
    /// the exclusive end of a transient or droop window (saturating).
    /// `None` for permanent faults and misroutes, whose effect never
    /// expires. Bounds the window [`crate::campaign::BusyIntervals`]
    /// checks for idleness.
    pub fn window_end(&self) -> Option<u64> {
        match *self {
            FaultModel::TransientSm {
                start, duration, ..
            }
            | FaultModel::VoltageDroop {
                start, duration, ..
            } => Some(start.saturating_add(duration)),
            FaultModel::PermanentSm { .. } | FaultModel::SchedulerMisroute { .. } => None,
        }
    }

    /// The bit this model flips in corrupted values (0 for misroutes).
    pub fn bit(&self) -> u8 {
        match *self {
            FaultModel::TransientSm { bit, .. }
            | FaultModel::VoltageDroop { bit, .. }
            | FaultModel::PermanentSm { bit, .. } => bit,
            FaultModel::SchedulerMisroute { .. } => 0,
        }
    }

    /// True for common-cause faults (able to strike several redundant
    /// elements at once).
    pub fn is_common_cause(&self) -> bool {
        matches!(
            self,
            FaultModel::VoltageDroop { .. } | FaultModel::SchedulerMisroute { .. }
        )
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultModel::TransientSm { .. } => "transient-sm",
            FaultModel::VoltageDroop { .. } => "voltage-droop",
            FaultModel::PermanentSm { .. } => "permanent-sm",
            FaultModel::SchedulerMisroute { .. } => "scheduler-misroute",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::isa::ExecUnit;
    use higpu_sim::kernel::KernelId;

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
    fn transient_is_bounded_in_space_and_time() {
        let f = FaultModel::TransientSm {
            sm: 2,
            start: 100,
            duration: 50,
            bit: 3,
        };
        assert!(f.corrupts(&ctx(2, 100)));
        assert!(f.corrupts(&ctx(2, 149)));
        assert!(!f.corrupts(&ctx(2, 150)), "window end is exclusive");
        assert!(!f.corrupts(&ctx(2, 99)));
        assert!(!f.corrupts(&ctx(3, 120)), "other SM untouched");
    }

    #[test]
    fn droop_hits_all_sms() {
        let f = FaultModel::VoltageDroop {
            start: 10,
            duration: 5,
            bit: 0,
        };
        for sm in 0..6 {
            assert!(f.corrupts(&ctx(sm, 12)));
        }
        assert!(!f.corrupts(&ctx(0, 15)));
        assert!(f.is_common_cause());
    }

    #[test]
    fn permanent_fault_never_heals() {
        let f = FaultModel::PermanentSm {
            sm: 1,
            from_cycle: 1000,
            bit: 7,
        };
        assert!(!f.corrupts(&ctx(1, 999)));
        assert!(f.corrupts(&ctx(1, 1000)));
        assert!(f.corrupts(&ctx(1, u64::MAX)));
        assert!(!f.corrupts(&ctx(0, 2000)));
        assert!(!f.is_common_cause());
    }

    #[test]
    fn arm_cycle_lower_bounds_every_corruption() {
        let transient = FaultModel::TransientSm {
            sm: 2,
            start: 100,
            duration: 50,
            bit: 3,
        };
        let droop = FaultModel::VoltageDroop {
            start: 10,
            duration: 5,
            bit: 0,
        };
        let permanent = FaultModel::PermanentSm {
            sm: 1,
            from_cycle: 1000,
            bit: 7,
        };
        assert_eq!(transient.arm_cycle(), 100);
        assert_eq!(droop.arm_cycle(), 10);
        assert_eq!(permanent.arm_cycle(), 1000);
        for f in [transient, droop, permanent] {
            for sm in 0..6 {
                for cycle in 0..f.arm_cycle() {
                    assert!(
                        !f.corrupts(&ctx(sm, cycle)),
                        "{f:?} corrupts before its arm cycle"
                    );
                }
            }
        }
        assert_eq!(
            FaultModel::SchedulerMisroute { shift: 1 }.arm_cycle(),
            0,
            "misroutes shift placements from the first dispatch on"
        );
    }

    #[test]
    fn misroute_corrupts_no_values() {
        let f = FaultModel::SchedulerMisroute { shift: 1 };
        assert!(!f.corrupts(&ctx(0, 0)));
        assert!(f.is_common_cause());
        assert_eq!(f.label(), "scheduler-misroute");
    }
}
