//! # higpu-bench — the evaluation harness
//!
//! Regenerates every figure of the paper's evaluation:
//!
//! * [`fig4`] — simulator experiment: redundant-kernel cycles under the
//!   Default / HALF / SRRS schedulers, normalized to Default;
//! * [`fig5`] — COTS experiment: end-to-end milliseconds, Baseline vs
//!   Redundant-Serialized;
//! * [`fig3`] — kernel classification (short / heavy / friendly) and the
//!   per-kernel policy recommendation;
//! * [`coverage`] — fault-injection detection coverage per policy (the
//!   quantified safety argument);
//! * [`matrix`] — the campaign matrix: coverage campaigns swept over
//!   {workload × fault model × scheduler policy} through the unified
//!   workload registry (full Rodinia suite included);
//! * [`campaign_perf`] — campaign-engine throughput tracking (serial vs
//!   parallel, recorded in `BENCH_campaign.json` together with the matrix);
//! * [`core_mips`] — per-workload simulator throughput, with the recorded
//!   seed and pre-decode baselines;
//! * [`table`] — plain-text/CSV rendering helpers shared by the binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign_perf;
pub mod core_mips;
pub mod coverage;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod matrix;
pub mod table;
