//! Per-workload simulator throughput (sim-MIPS): how many simulated warp
//! instructions the simulator retires per wall-clock second, measured for
//! the stepping oracle and the event-queue core side by side.
//!
//! Feeds the `core_mips` section of `BENCH_campaign.json` so core-loop
//! performance is tracked PR over PR next to the campaign-engine
//! throughput. Each sample also carries the seed-commit baseline measured
//! with this same meter before the event-queue rework, making the
//! before/after speedup a recorded artifact instead of a claim.

use higpu_sim::config::{CoreKind, GpuConfig};
use higpu_sim::gpu::Gpu;
use higpu_workloads::session::SoloSession;
use higpu_workloads::{Scale, WorkloadRegistry};
use std::time::Instant;

/// Campaign-scale sim-MIPS of the stepping-core seed baseline (commit
/// `002524e`, pre-event-queue), measured with this meter on the reference
/// host: `(workload, sim_mips)`. The absolute numbers are host-dependent;
/// the *ratio* against a fresh measurement on the same host is the
/// tracked speedup.
pub const SEED_BASELINE_MIPS: &[(&str, f64)] =
    &[("iterated_fma", 8.09), ("pathfinder", 5.18), ("srad", 5.79)];

/// Campaign-scale sim-MIPS of the **event core before the pre-decoded
/// interpreter rework** (the PR that added the event-queue core and
/// telemetry, commit `ff172ad`), measured with this meter on the reference
/// host: `(workload, event_sim_mips)`. As with [`SEED_BASELINE_MIPS`], only
/// the ratio against a fresh same-host measurement is meaningful; it is the
/// recorded before/after for the decode + uniform-scalarization + fast-path
/// work in the interpreter.
pub const EVENT_BASELINE_MIPS: &[(&str, f64)] = &[
    ("iterated_fma", 14.02),
    ("backprop", 8.77),
    ("bfs", 7.68),
    ("cfd", 10.57),
    ("dwt2d", 10.24),
    ("gaussian", 7.71),
    ("hotspot", 10.82),
    ("hotspot3D", 10.23),
    ("kmeans", 13.54),
    ("leukocyte", 12.14),
    ("lud", 9.12),
    ("myocyte", 17.26),
    ("nn", 8.71),
    ("nw", 9.18),
    ("pathfinder", 9.63),
    ("srad", 10.22),
    ("streamcluster", 13.46),
];

/// One workload's throughput under both cores.
#[derive(Debug, Clone)]
pub struct CoreMipsSample {
    /// Workload name (campaign scale).
    pub workload: String,
    /// Simulated warp instructions per run.
    pub instrs_per_run: u64,
    /// Stepping-oracle throughput, best of the repeats.
    pub stepping_mips: f64,
    /// Event-core throughput, best of the repeats.
    pub event_mips: f64,
    /// Seed-commit baseline on the reference host (stepping core), if
    /// recorded in [`SEED_BASELINE_MIPS`].
    pub seed_mips: Option<f64>,
    /// Pre-decode event-core baseline on the reference host, if recorded in
    /// [`EVENT_BASELINE_MIPS`].
    pub event_baseline_mips: Option<f64>,
}

impl CoreMipsSample {
    /// Event-core speedup over the recorded seed baseline.
    pub fn speedup_vs_seed(&self) -> Option<f64> {
        self.seed_mips.map(|s| self.event_mips / s)
    }

    /// Event-core speedup over the recorded pre-decode event baseline.
    pub fn speedup_vs_event_baseline(&self) -> Option<f64> {
        self.event_baseline_mips.map(|s| self.event_mips / s)
    }

    /// Wall-clock nanoseconds the event core spends per simulated warp
    /// instruction — the interpreter-floor figure ROADMAP item 1 tracks
    /// (1 sim-MIPS ≡ 1000 ns per warp instruction).
    pub fn ns_per_warp_instr(&self) -> f64 {
        1000.0 / self.event_mips
    }
}

/// A full two-core throughput sweep.
#[derive(Debug, Clone)]
pub struct CoreMipsResult {
    /// Timed runs per (workload, core) repeat.
    pub runs: u32,
    /// Best-of repeats per (workload, core).
    pub repeats: u32,
    /// One sample per measured workload.
    pub samples: Vec<CoreMipsSample>,
}

/// One prepared (device, workload) timing rig.
struct Rig {
    gpu: Gpu,
    workload: Box<dyn higpu_workloads::Workload>,
    instrs_per_run: u64,
}

impl Rig {
    fn new(reg: &WorkloadRegistry, name: &str, core: CoreKind) -> Self {
        let cfg = GpuConfig {
            core,
            ..GpuConfig::default()
        };
        let mut gpu = Gpu::new(cfg);
        let workload = reg
            .build(name, Scale::Campaign)
            .unwrap_or_else(|| panic!("workload '{name}' not in registry"));
        // Warm run: faults caches and yields the per-run instruction count.
        {
            let mut s = SoloSession::new(&mut gpu);
            workload.run(&mut s).expect("warm run");
        }
        let instrs_per_run: u64 = gpu.stats().per_sm.iter().map(|s| s.instrs_issued).sum();
        Self {
            gpu,
            workload,
            instrs_per_run,
        }
    }

    /// Times one solo run (reset + run) and returns its wall-clock seconds.
    fn time_one_run(&mut self) -> f64 {
        let t0 = Instant::now();
        self.gpu.reset().expect("device idle between runs");
        let mut s = SoloSession::new(&mut self.gpu);
        self.workload.run(&mut s).expect("timed run");
        t0.elapsed().as_secs_f64()
    }
}

/// Measures `name` on both cores: `(instructions per run, stepping
/// sim-MIPS, event sim-MIPS)`. The cores are interleaved at *run*
/// granularity in ABBA order — stepping/event, event/stepping, … — so
/// both accumulate time over adjacent millisecond slices of the same
/// host-load window *and* neither core systematically inherits the
/// other's cache wake (running second in a pair measurably flatters a
/// core; strict alternation bakes that bias in, ABBA cancels it along
/// with linear drift). A load burst then taxes both accumulators almost
/// equally and cancels out of the ratio, where repeat-level interleaving
/// still let a burst land entirely inside one core's timing window and
/// flip the comparison. Of the `repeats` paired windows, the quietest
/// (minimum total wall time) is reported — both cores from the *same*
/// window, so best-of never un-pairs the numbers by crediting each core
/// its own lucky repeat. The instruction count is exact and identical
/// across cores (the bit-identical contract).
fn measure_pair(reg: &WorkloadRegistry, name: &str, runs: u32, repeats: u32) -> (u64, f64, f64) {
    let mut stepping = Rig::new(reg, name, CoreKind::Stepping);
    let mut event = Rig::new(reg, name, CoreKind::Event);
    assert_eq!(
        stepping.instrs_per_run, event.instrs_per_run,
        "{name}: cores disagree on instructions per run — bit-identity broken"
    );
    let instrs = (stepping.instrs_per_run * u64::from(runs)) as f64;
    let mut best = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats.max(1) {
        let mut secs_stepping = 0.0f64;
        let mut secs_event = 0.0f64;
        for run in 0..runs {
            if run % 2 == 0 {
                secs_stepping += stepping.time_one_run();
                secs_event += event.time_one_run();
            } else {
                secs_event += event.time_one_run();
                secs_stepping += stepping.time_one_run();
            }
        }
        let total = secs_stepping + secs_event;
        if total < best.0 {
            best = (total, secs_stepping, secs_event);
        }
    }
    (
        stepping.instrs_per_run,
        instrs / best.1 / 1e6,
        instrs / best.2 / 1e6,
    )
}

/// Measures every registered workload on both cores. Workloads in the
/// [`SEED_BASELINE_MIPS`] set additionally carry their seed-commit
/// baseline; the rest entered the registry after the seed and have none.
pub fn measure_core_mips(reg: &WorkloadRegistry, runs: u32, repeats: u32) -> CoreMipsResult {
    let samples = reg
        .names()
        .iter()
        .map(|&name| {
            let seed_mips = SEED_BASELINE_MIPS
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v);
            let event_baseline_mips = EVENT_BASELINE_MIPS
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, v)| v);
            let (instrs, stepping, event) = measure_pair(reg, name, runs, repeats);
            CoreMipsSample {
                workload: name.to_string(),
                instrs_per_run: instrs,
                stepping_mips: stepping,
                event_mips: event,
                seed_mips,
                event_baseline_mips,
            }
        })
        .collect();
    CoreMipsResult {
        runs,
        repeats,
        samples,
    }
}

impl CoreMipsResult {
    /// Workloads where the default (event) core measured slower than the
    /// stepping oracle — the short-kernel regression the event loop's fused
    /// wake pass exists to prevent. Timing-noise tolerant callers should
    /// treat a persistent non-empty result as an event-core regression.
    pub fn event_regressions(&self) -> Vec<&str> {
        self.samples
            .iter()
            .filter(|s| s.event_mips < s.stepping_mips)
            .map(|s| s.workload.as_str())
            .collect()
    }

    /// Geometric-mean event-core speedup over the recorded pre-decode
    /// baseline, across the workloads that have one ([`EVENT_BASELINE_MIPS`]).
    /// `None` when no sample carries a baseline.
    pub fn geomean_event_speedup(&self) -> Option<f64> {
        let ratios: Vec<f64> = self
            .samples
            .iter()
            .filter_map(CoreMipsSample::speedup_vs_event_baseline)
            .collect();
        if ratios.is_empty() {
            return None;
        }
        let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
        Some((log_sum / ratios.len() as f64).exp())
    }

    /// Renders the JSON value for the `core_mips` section.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                format!(
                    "{{\"workload\": \"{}\", \"instrs_per_run\": {}, \
                     \"stepping_sim_mips\": {:.2}, \"event_sim_mips\": {:.2}, \
                     \"ns_per_warp_instr\": {:.1}, \
                     \"seed_sim_mips\": {}, \"event_speedup_vs_seed\": {}, \
                     \"pre_decode_event_sim_mips\": {}, \"event_speedup_vs_pre_decode\": {}}}",
                    s.workload,
                    s.instrs_per_run,
                    s.stepping_mips,
                    s.event_mips,
                    s.ns_per_warp_instr(),
                    s.seed_mips
                        .map_or("null".to_string(), |v| format!("{v:.2}")),
                    s.speedup_vs_seed()
                        .map_or("null".to_string(), |v| format!("{v:.2}")),
                    s.event_baseline_mips
                        .map_or("null".to_string(), |v| format!("{v:.2}")),
                    s.speedup_vs_event_baseline()
                        .map_or("null".to_string(), |v| format!("{v:.2}")),
                )
            })
            .collect();
        format!(
            "{{\"runs\": {}, \"repeats\": {}, \"scale\": \"campaign\", \
             \"seed_baseline\": \"stepping core @ seed commit, same meter and host class\", \
             \"pre_decode_baseline\": \"event core before the pre-decoded interpreter, \
             same meter and host class\", \
             \"geomean_event_speedup_vs_pre_decode\": {}, \
             \"workloads\": [\n    {}\n  ]}}",
            self.runs,
            self.repeats,
            self.geomean_event_speedup()
                .map_or("null".to_string(), |v| format!("{v:.2}")),
            rows.join(",\n    ")
        )
    }

    /// Renders the human-readable before/after table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "core sim-MIPS ({} runs, best of {}): workload  pre-decode -> stepping / event \
             (speedup, ns/warp-instr)\n",
            self.runs, self.repeats
        ));
        for s in &self.samples {
            out.push_str(&format!(
                "  {:>14}: {} -> {:.2} / {:.2} ({}, {:.1} ns)\n",
                s.workload,
                s.event_baseline_mips
                    .map_or("n/a".to_string(), |v| format!("{v:.2}")),
                s.stepping_mips,
                s.event_mips,
                s.speedup_vs_event_baseline()
                    .map_or("n/a".to_string(), |v| format!("{v:.2}x")),
                s.ns_per_warp_instr(),
            ));
        }
        if let Some(g) = self.geomean_event_speedup() {
            out.push_str(&format!(
                "  geomean event speedup vs pre-decode baseline: {g:.2}x\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::full_registry;

    #[test]
    fn sweep_measures_and_renders() {
        let reg = full_registry();
        let r = measure_core_mips(&reg, 2, 1);
        assert_eq!(
            r.samples.len(),
            reg.len(),
            "one sample per registry workload"
        );
        let mut baselines = 0;
        let mut event_baselines = 0;
        for s in &r.samples {
            assert!(s.instrs_per_run > 0, "{}: no instructions", s.workload);
            assert!(s.stepping_mips > 0.0 && s.event_mips > 0.0);
            assert!(s.ns_per_warp_instr() > 0.0);
            if let Some(speedup) = s.speedup_vs_seed() {
                assert!(speedup > 0.0);
                baselines += 1;
            }
            if let Some(speedup) = s.speedup_vs_event_baseline() {
                assert!(speedup > 0.0);
                event_baselines += 1;
            }
        }
        assert_eq!(
            baselines,
            SEED_BASELINE_MIPS.len(),
            "every baseline measured"
        );
        assert_eq!(
            event_baselines,
            EVENT_BASELINE_MIPS.len(),
            "every pre-decode baseline measured"
        );
        assert!(
            r.geomean_event_speedup().expect("baselines present") > 0.0,
            "geomean over recorded baselines"
        );
        let json = r.to_json();
        assert!(json.contains("\"workload\": \"pathfinder\""));
        assert!(json.contains("\"workload\": \"srad\""));
        assert!(json.contains("event_speedup_vs_seed"));
        assert!(json.contains("ns_per_warp_instr"));
        assert!(json.contains("geomean_event_speedup_vs_pre_decode"));
        assert!(r.to_table().contains("sim-MIPS"));
    }
}
