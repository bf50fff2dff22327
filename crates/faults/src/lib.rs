//! # higpu-faults — fault models and injection campaigns
//!
//! Quantifies the safety claims of *High-Integrity GPU Designs for Critical
//! Real-Time Automotive Systems* (DATE 2019): under the SRRS/HALF diverse
//! scheduling policies, no single fault — transient, permanent, common
//! cause, or in the kernel scheduler itself — leads to an undetected
//! failure of the redundant computation.
//!
//! * [`model`] — the fault universe: transient single-SM upsets, voltage
//!   droops (common-cause faults striking all SMs at once), permanent SM
//!   stuck-at faults, and kernel-scheduler misrouting;
//! * [`injector`] — a [`higpu_sim::fault::FaultHook`] applying one model;
//! * [`workload`] — adapters running any `higpu_workloads::Workload` (every
//!   Rodinia benchmark included) redundantly under injection;
//! * [`campaign`] — randomized multi-trial injection with per-policy
//!   detection-coverage reports;
//!   [`campaign::run_campaign_selected_with_telemetry`]
//!   resolves {workload × policy × fault} from the workload registry;
//! * [`checkpoint`] — checkpointed trials: one fault-free reference pass
//!   records periodic device snapshots, each trial restores the snapshot
//!   nearest before its fault arm cycle and simulates only the corrupted
//!   suffix (reports stay bit-identical to from-zero execution).
//!
//! # Examples
//!
//! ```
//! use higpu_core::redundancy::RedundancyMode;
//! use higpu_faults::campaign::{run_campaign_with_perf, CampaignConfig, FaultSpec};
//! use higpu_faults::workload::IteratedFma;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = CampaignConfig {
//!     trials: 4,
//!     ..CampaignConfig::default()
//! };
//! let workload = IteratedFma {
//!     n: 128,
//!     threads_per_block: 64,
//!     iters: 8,
//! };
//! let (report, _perf) = run_campaign_with_perf(
//!     &cfg,
//!     &RedundancyMode::srrs_default(6),
//!     FaultSpec::Permanent,
//!     &workload,
//! )?;
//! assert_eq!(report.undetected, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checkpoint;
pub mod injector;
pub mod model;
pub mod workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::campaign::{
        draw_models, run_campaign_selected_serial, run_campaign_selected_with_telemetry,
        run_campaign_serial, run_campaign_with_perf, CampaignConfig, CampaignError, CampaignPerf,
        CampaignReport, CampaignRunner, CampaignSpec, FaultSpec, TrialOutcome,
    };
    pub use crate::checkpoint::{record_reference, CheckpointConfig, ReferenceRun};
    pub use crate::injector::{FaultInjector, InjectionCounters};
    pub use crate::model::FaultModel;
    pub use crate::workload::{CampaignWorkload, IteratedFma, RedundantWorkload, WorkloadVerdict};
}
