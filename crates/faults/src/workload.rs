//! Campaign workloads: adapters classifying any [`Workload`] run under
//! fault injection.
//!
//! A campaign workload runs a complete redundant computation and reports
//! (a) whether the replicas agreed and (b) whether the agreed output was
//! actually correct with respect to the workload's reference — the
//! distinction between *detected* faults and *undetected failures*.
//!
//! This module used to carry its own workload implementations driving a
//! [`RedundantExecutor`] by hand; it is now an adapter over the unified
//! workload layer (`higpu_workloads`), so **any** registered workload —
//! every Rodinia benchmark included — can run inside a fault campaign.

use higpu_core::redundancy::{RedundancyError, RedundantExecutor};
use higpu_workloads::runner::run_redundant;
use higpu_workloads::{Scale, SessionError, Workload, WorkloadRegistry};

pub use higpu_workloads::synthetic::IteratedFma;

/// Outcome of one redundant workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadVerdict {
    /// Replicas agreed bitwise (the NMR safety mechanism is always an
    /// exact word-for-word compare/vote).
    pub matched: bool,
    /// The (voted) output verified against the workload's reference,
    /// **under the workload's own tolerance**. This is deliberate: for
    /// float benchmarks verified with [`higpu_workloads::Tolerance::approx`],
    /// corruption that stays inside the benchmark's accepted numerical
    /// envelope is functionally indistinguishable from legitimate rounding
    /// variation and classifies as *masked*, not as a silent failure.
    /// Bitwise-deterministic workloads (e.g.
    /// [`IteratedFma`], integer benchmarks) use
    /// [`higpu_workloads::Tolerance::Exact`], where any agreed-upon
    /// corruption is an undetected failure.
    pub correct: bool,
    /// The replicas disagreed but every disagreement was settled by a
    /// strict majority — the *observable* the deployed NMR voter has
    /// (it cannot see whether the majority value is right). Always
    /// `false` for two replicas (a 2-replica disagreement can never reach
    /// a strict majority).
    pub fully_voted: bool,
    /// `fully_voted` **and** the voted output verified correct: NMR
    /// forward recovery that was actually safe — the computation could
    /// continue without re-execution. A fully-voted-but-wrong run
    /// (`fully_voted && !corrected`) is the dangerous case: the deployed
    /// voter sees a clean majority, continues with corrupted data, and
    /// never triggers recovery — campaigns classify it as an *undetected
    /// failure*, exactly like an all-replica agreement on a wrong value.
    pub corrected: bool,
}

/// A workload that can be executed redundantly under fault injection.
///
/// `Sync` because campaign workers share one workload description across
/// threads (each worker drives its own private GPU; the workload itself is
/// immutable configuration).
pub trait RedundantWorkload: Sync {
    /// Workload name for reports.
    fn name(&self) -> &str;

    /// Runs the full redundant computation (allocate, copy, launch, sync,
    /// compare/vote) and classifies the outputs.
    ///
    /// # Errors
    ///
    /// Propagates [`RedundancyError`] from the protocol.
    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError>;

    /// The workload's FTTI budget multiplier (see
    /// [`higpu_workloads::Workload::ftti_multiplier`]); campaign engines
    /// derive each trial's watchdog deadline from it.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::DEFAULT_FTTI_MULTIPLIER
    }
}

/// Runs any session-level [`Workload`] redundantly (mismatch-tolerant, so
/// the host program completes even when a fault desynchronized the
/// replicas) and classifies the outcome.
///
/// # Errors
///
/// Propagates device/protocol errors from the workload.
pub fn classify_redundant_run(
    workload: &dyn Workload,
    exec: &mut RedundantExecutor<'_>,
) -> Result<WorkloadVerdict, RedundancyError> {
    match run_redundant(exec, workload) {
        Ok(run) => {
            let correct = workload.verify(&run.output).is_ok();
            Ok(WorkloadVerdict {
                matched: run.matched(),
                correct,
                fully_voted: run.fully_corrected(),
                corrected: run.fully_corrected() && correct,
            })
        }
        Err(SessionError::Sim(e)) => Err(RedundancyError::Sim(e)),
        Err(SessionError::Redundancy(e)) => Err(e),
        // A host plausibility check that rejected read-back data is a real
        // safety mechanism catching the corruption: detected-and-wrong.
        // Tolerant sessions never surface a mismatch; treat one the same if
        // a custom workload raises it anyway.
        Err(SessionError::Implausible { .. } | SessionError::ReplicaMismatch { .. }) => {
            Ok(WorkloadVerdict {
                matched: false,
                correct: false,
                fully_voted: false,
                corrected: false,
            })
        }
    }
}

impl RedundantWorkload for IteratedFma {
    fn name(&self) -> &str {
        Workload::name(self)
    }

    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError> {
        classify_redundant_run(self, exec)
    }

    fn ftti_multiplier(&self) -> u64 {
        Workload::ftti_multiplier(self)
    }
}

/// Adapter running any boxed [`Workload`] (typically built from a
/// [`WorkloadRegistry`]) as a campaign workload.
#[derive(Debug)]
pub struct CampaignWorkload {
    inner: Box<dyn Workload>,
}

impl CampaignWorkload {
    /// Wraps a workload.
    pub fn new(inner: Box<dyn Workload>) -> Self {
        Self { inner }
    }

    /// Builds the named workload from `reg` at `scale`; `None` for unknown
    /// names.
    pub fn from_registry(reg: &WorkloadRegistry, name: &str, scale: Scale) -> Option<Self> {
        reg.build(name, scale).map(Self::new)
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &dyn Workload {
        &*self.inner
    }
}

impl RedundantWorkload for CampaignWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, exec: &mut RedundantExecutor<'_>) -> Result<WorkloadVerdict, RedundancyError> {
        classify_redundant_run(&*self.inner, exec)
    }

    fn ftti_multiplier(&self) -> u64 {
        self.inner.ftti_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_core::redundancy::RedundancyMode;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;

    #[test]
    fn fault_free_run_matches_and_is_correct() {
        let wl = IteratedFma {
            n: 256,
            threads_per_block: 64,
            iters: 8,
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let v = RedundantWorkload::run(&wl, &mut exec).expect("runs");
        assert!(v.matched);
        assert!(v.correct, "GPU FMA must equal host mul_add bitwise");
    }

    #[test]
    fn registry_built_workload_runs_redundantly() {
        let mut reg = WorkloadRegistry::new();
        higpu_workloads::synthetic::register(&mut reg);
        let wl = CampaignWorkload::from_registry(&reg, "iterated_fma", Scale::Campaign)
            .expect("registered");
        assert_eq!(RedundantWorkload::name(&wl), "iterated_fma");
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let v = wl.run(&mut exec).expect("runs");
        assert!(v.matched && v.correct);
    }

    #[test]
    fn corrupted_replica_is_classified_as_mismatch() {
        use crate::injector::{FaultInjector, InjectionCounters};
        use crate::model::FaultModel;
        // A permanent stuck-at on SM 0 corrupts different blocks in each
        // replica (SRRS places the same block on different SMs), so the
        // replicas must disagree and replica 0's output must be wrong.
        let wl = IteratedFma {
            n: 256,
            threads_per_block: 64,
            iters: 8,
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let counters = InjectionCounters::shared();
        gpu.set_fault_hook(Box::new(FaultInjector::new(
            FaultModel::PermanentSm {
                sm: 0,
                from_cycle: 0,
                bit: 30,
            },
            counters.clone(),
        )));
        let mut exec =
            RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6)).expect("mode");
        let v = classify_redundant_run(&wl, &mut exec).expect("runs to completion");
        assert!(counters.activated(), "the stuck-at must strike");
        assert!(!v.matched, "replicas diverge under asymmetric corruption");
        assert!(!v.correct, "replica 0 ran through the faulty SM");
    }
}
