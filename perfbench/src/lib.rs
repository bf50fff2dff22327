//! Campaign benchmark for the higpu reproduction: how fast fault campaigns
//! produce evidence (activated, classified trials) on three workloads that
//! stress different layers, with a separate traced run for per-layer cost.
//! See `perfbench/README.md` for the workloads and metrics.

pub mod cells;
pub mod host;
pub mod layers;
pub mod trace;
