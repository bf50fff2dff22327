//! # higpu-workloads — the unified workload layer
//!
//! Before this crate existed the repository had **three** incompatible ways
//! of running a computation on the simulated GPU: the Rodinia benchmark
//! harness (`Benchmark`/`SoloSession`/`RedundantSession`), the
//! fault-campaign workloads (`faults::RedundantWorkload` driving a
//! [`higpu_core::redundancy::RedundantExecutor`] directly), and the COTS
//! end-to-end model's ad-hoc run loop. This crate collapses them into one
//! stack:
//!
//! * [`session`] — the backend abstraction: a [`GpuSession`] is the
//!   environment a host program runs in (solo GPU, redundant DCLS protocol,
//!   or any future backend), with buffer handles and replica-generic
//!   parameters;
//! * [`workload`] — the [`Workload`] trait: deterministic inputs, a GPU host
//!   program written against [`GpuSession`], a CPU reference, and a
//!   verification tolerance;
//! * [`registry`] — the name → factory [`WorkloadRegistry`] with a
//!   [`Scale`] knob (`Full` paper-sized inputs vs. `Campaign` small fixed
//!   grids for fault-injection throughput);
//! * [`runner`] — convenience drivers (`run_solo`, `run_redundant`) shared
//!   by the fault-campaign engine, the COTS model and the benches;
//! * [`synthetic`] — built-in synthetic workloads (the iterated-FMA stress
//!   kernel used by campaign throughput benchmarks);
//! * [`stage`] — the [`StageProgram`] generalization of [`Workload`] for
//!   multi-kernel pipelines: a stage computes over the outputs of its
//!   predecessor stages and is verified against a CPU reference over the
//!   same inputs (the pipeline graph itself lives in `higpu_pipeline`).
//!
//! Any registered workload can run in any mode (solo / redundant) under any
//! scheduler policy inside a fault campaign — see
//! `higpu_faults::campaign::run_campaign_selected_with_telemetry`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod registry;
pub mod runner;
pub mod session;
pub mod stage;
pub mod synthetic;
pub mod workload;

pub use registry::{Scale, WorkloadFactory, WorkloadRegistry};
pub use session::{BufId, GpuSession, RedundantSession, SParam, SessionError, SoloSession};
pub use stage::{StageInputs, StageProgram, WorkloadStage};
pub use workload::{
    f32s_to_words, verify_words, Tolerance, VerifyError, Workload, DEFAULT_FTTI_MULTIPLIER,
    MINED_FTTI_MULTIPLIER,
};
