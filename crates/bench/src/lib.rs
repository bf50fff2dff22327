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
//! * [`matrix`] — the campaign matrix, the quantified safety argument:
//!   fault-injection coverage campaigns swept over {workload × fault model
//!   × scheduler policy} through the unified workload registry (full
//!   Rodinia suite included); `campaign_matrix --json` writes it, with its
//!   telemetry, as `BENCH_campaign.json`;
//! * [`table`] — plain-text/CSV rendering helpers shared by the binaries.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod matrix;
pub mod table;
