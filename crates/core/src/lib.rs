//! # higpu-core — diverse redundant GPU execution for ISO 26262 ASIL-D
//!
//! The primary contribution of *High-Integrity GPU Designs for Critical
//! Real-Time Automotive Systems* (DATE 2019), reproduced in Rust on the
//! [`higpu_sim`] substrate:
//!
//! * [`policy`] — the two lightweight kernel-scheduler modifications:
//!   **SRRS** (start / round-robin / serial) and **HALF** (static SM
//!   halving), which guarantee that redundant thread blocks execute on
//!   different SMs at different times — defeating both permanent SM faults
//!   and transient common-cause faults (voltage droops, crosstalk). One
//!   scheduler, [`policy::PartitionedScheduler`], applies both rules (and
//!   SLICE, HALF's N-replica form) from the launch attributes, on the whole
//!   device or inside reserved SM partitions;
//! * [`redundancy`] — the five-step DCLS host protocol (allocate ×N,
//!   copy ×N, launch ×N, collect ×N, compare/vote) generalized to
//!   N-modular redundancy: SRRS start-SM vectors and SLICE SM slicing for
//!   N ≥ 2 replicas;
//! * [`vote`] — the bitwise per-word majority voter that turns N ≥ 3
//!   replicas into forward recovery (corrected, not merely detected);
//! * [`diversity`] — the trace analyzer that turns executions into
//!   independence *evidence*;
//! * [`classify`] — the short / heavy / friendly kernel taxonomy (Fig. 3)
//!   and per-kernel policy selection;
//! * [`asil`] — ISO 26262 ASIL decomposition algebra (Fig. 1);
//! * [`ftti`] — fault-tolerant time interval accounting for
//!   re-execution-based recovery;
//! * [`health`] — permanent-fault diagnosis: vote-outcome attribution,
//!   per-SM suspicion with quarantine thresholds, and targeted per-SM
//!   BIST sweeps for evidence a DCLS tie cannot attribute;
//! * [`hw_metrics`] — the ISO 26262-5 hardware architectural metrics
//!   (SPFM/LFM) with per-ASIL targets;
//! * [`bist`] — the periodic kernel-scheduler self-test that keeps
//!   scheduler faults from becoming latent (Sec. IV-C);
//! * [`safety_case`] — assembly of all evidence into the ASIL-D argument.
//!
//! # Examples
//!
//! Run a computation redundantly under SRRS and verify diversity:
//!
//! ```
//! use higpu_core::prelude::*;
//! use higpu_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = Gpu::new(GpuConfig::paper_6sm());
//! let mut exec = RedundantExecutor::new(&mut gpu, RedundancyMode::srrs_default(6))?;
//!
//! let mut b = KernelBuilder::new("square");
//! let buf = b.param(0);
//! let i = b.global_tid_x();
//! let addr = b.addr_w(buf, i);
//! let v = b.ldg(addr, 0);
//! let sq = b.imul(v, v);
//! b.stg(addr, 0, sq);
//! let prog = b.build()?.into_shared();
//!
//! let data = exec.alloc_words(64)?;
//! exec.write_u32(&data, &(0..64).collect::<Vec<u32>>())?;
//! exec.launch(&prog, 2u32, 32u32, 0, &[RParam::Buf(&data)])?;
//! exec.sync()?;
//! let out = exec.read_compare_u32(&data, 64)?.into_match().expect("agree");
//! assert_eq!(out[7], 49);
//!
//! drop(exec);
//! let report = higpu_core::diversity::analyze(
//!     gpu.trace(),
//!     higpu_core::diversity::DiversityRequirements::default(),
//! );
//! assert!(report.is_diverse());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asil;
pub mod bist;
pub mod classify;
pub mod diversity;
pub mod ftti;
pub mod health;
pub mod hw_metrics;
pub mod metrics;
pub mod policy;
pub mod redundancy;
pub mod safety_case;
pub mod vote;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::asil::{Architecture, Asil, Element, Independence};
    pub use crate::bist::{scheduler_bist, BistReport};
    pub use crate::classify::{classify, profile, KernelCategory, KernelProfile};
    pub use crate::diversity::{analyze, DiversityReport, DiversityRequirements};
    pub use crate::ftti::{FttiBudget, RecoveryAnalysis};
    pub use crate::health::{minority_replicas, sm_bist_sweep, Evidence, HealthMonitor};
    pub use crate::hw_metrics::{FaultRates, HardwareMetrics};
    pub use crate::metrics::{redundant_kernel_cycles, solo_kernel_cycles};
    pub use crate::policy::{PartitionedScheduler, PolicyKind};
    pub use crate::redundancy::{
        Comparison, RBuf, RParam, RedundancyError, RedundancyMode, RedundantExecutor,
    };
    pub use crate::safety_case::{DetectionEvidence, SafetyCase};
    pub use crate::vote::{majority_vote, VoteOutcome, VotedWords};
}
