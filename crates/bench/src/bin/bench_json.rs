//! Records campaign-engine throughput in `BENCH_campaign.json`.
//!
//! Runs the acceptance measurement of the parallel fault-campaign engine —
//! a 1000-trial transient campaign on `IteratedFma` — through the serial
//! reference engine and the worker pool at several widths, plus a campaign
//! matrix sweep over the unified workload registry (workload × policy ×
//! fault), then writes one JSON document so both the perf trajectory and
//! the coverage matrix are tracked PR over PR.
//!
//! The matrix section sweeps every registered workload **and** every
//! registered pipeline (`ad_pipeline`, `sensor_fusion`), so
//! `BENCH_campaign.json` carries the per-(pipeline, policy, replicas)
//! fail-operational frontier — end-to-end deadline misses and in-FTTI
//! recovery rates — next to the workload coverage frontier.
//!
//! The `core_mips` section records per-workload simulator throughput next
//! to the seed-commit and pre-decode baselines — the before/after record
//! for run-loop performance work.
//!
//! The `checkpointing` section records checkpointed-campaign throughput
//! (one reference pass with periodic device snapshots, then suffix-only
//! replay per trial) against from-zero execution, under both the uniform
//! campaign arm draw and a late-window distribution — with every trial's
//! outcome asserted bit-identical between the two engines.
//!
//! ```text
//! bench_json [--trials N] [--seed S] [--workers 1,2,4,8]
//!            [--matrix-trials N] [--no-matrix] [--core-runs N]
//!            [--checkpoint-trials N] [--out PATH] [--progress] [--quiet]
//! ```
//!
//! `--out -` streams the JSON document to stdout instead of a file and
//! implies `--quiet`, so stdout is pure JSON (tables and progress go to
//! stderr or nowhere — the document is machine-consumable as piped).

use higpu_bench::campaign_perf::{measure, measure_checkpointing, ThroughputConfig};
use higpu_bench::core_mips::measure_core_mips;
use higpu_bench::matrix::{full_registry, run_matrix_with_telemetry, MatrixConfig};
use higpu_pipeline::full_pipeline_registry;
use std::process::ExitCode;

struct Options {
    cfg: ThroughputConfig,
    matrix_trials: Option<u32>,
    no_matrix: bool,
    core_runs: u32,
    checkpoint_trials: u32,
    out: String,
    progress: bool,
    quiet: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            cfg: ThroughputConfig::default(),
            matrix_trials: None,
            no_matrix: false,
            core_runs: 60,
            checkpoint_trials: 120,
            out: "BENCH_campaign.json".to_string(),
            progress: false,
            quiet: false,
        }
    }
}

fn parse_args(opts: &mut Options) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--trials" => {
                opts.cfg.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => {
                opts.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--workers" => {
                opts.cfg.worker_counts = value("--workers")?
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse::<usize>()
                            .map_err(|e| format!("--workers: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--matrix-trials" => {
                opts.matrix_trials = Some(
                    value("--matrix-trials")?
                        .parse()
                        .map_err(|e| format!("--matrix-trials: {e}"))?,
                );
            }
            "--no-matrix" => opts.no_matrix = true,
            "--core-runs" => {
                opts.core_runs = value("--core-runs")?
                    .parse()
                    .map_err(|e| format!("--core-runs: {e}"))?;
            }
            "--checkpoint-trials" => {
                opts.checkpoint_trials = value("--checkpoint-trials")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-trials: {e}"))?;
            }
            "--out" => opts.out = value("--out")?,
            "--progress" => opts.progress = true,
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut opts = Options::default();
    if let Err(e) = parse_args(&mut opts) {
        eprintln!("bench_json: {e}");
        return ExitCode::FAILURE;
    }
    let Options {
        cfg,
        matrix_trials,
        no_matrix,
        core_runs,
        checkpoint_trials,
        out,
        progress,
        quiet,
    } = opts;
    // `--out -` makes stdout the JSON document; every table print below
    // must therefore be silenced so nothing interleaves with it.
    let quiet = quiet || out == "-";
    if no_matrix && matrix_trials.is_some() {
        eprintln!("bench_json: --no-matrix contradicts --matrix-trials");
        return ExitCode::FAILURE;
    }
    let matrix_cfg = (!no_matrix).then(|| {
        let mut mc = MatrixConfig::default();
        if let Some(trials) = matrix_trials {
            mc.trials = trials;
        }
        mc.pipelines = full_pipeline_registry()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        // Enough frames per pipeline cell that transient activations (and
        // with them the Recovered demonstration) land in the artifact.
        mc.pipeline_trials = Some(mc.trials.max(6));
        mc.progress = progress;
        mc
    });
    let result = match measure(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_json: campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        print!("{}", result.to_table());
    }
    // Run-loop throughput, printed and persisted next to the engine
    // throughput; the quietest of 7 windows is reported, so host-load
    // drift does not masquerade as a run-loop change.
    let core = measure_core_mips(&full_registry(), core_runs, 7);
    if !quiet {
        print!("{}", core.to_table());
    }
    // Checkpointed-campaign throughput: suffix-only replay vs from-zero,
    // with per-trial outcomes asserted identical inside the measurement.
    let checkpointing = match measure_checkpointing(checkpoint_trials, cfg.seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_json: checkpointing sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !quiet {
        print!("{}", checkpointing.to_table());
    }
    let matrix = match matrix_cfg {
        Some(mc) => match run_matrix_with_telemetry(&full_registry(), &mc) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("bench_json: matrix sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if let Some((m, _)) = matrix.as_ref().filter(|_| !quiet) {
        println!(
            "campaign matrix: {} workload cells + {} wide cells + {} pipeline cells, \
             undetected under diverse policies: {} + {}, frames recovered in-FTTI: {}",
            m.reports.len(),
            m.wide_reports.len(),
            m.pipeline_reports.len(),
            m.undetected_under_diverse_policies(),
            m.pipeline_undetected_under_diverse_policies(),
            m.total_recovered()
        );
        if !m.limp_reports.is_empty() {
            println!(
                "degraded mode: {} mission cells over {} frames — quarantined: {}, \
                 limp-home misses: {}, re-planned deadline misses: {}, \
                 frames to diagnosis: {}, post-quarantine inflation: {}",
                m.limp_reports.len(),
                m.limp_frames,
                m.limp_quarantined(),
                m.limp_home_misses(),
                m.limp_deadline_misses(),
                m.limp_mean_frames_to_diagnosis()
                    .map_or("n/a".to_string(), |v| format!("{v:.2}")),
                m.limp_makespan_inflation()
                    .map_or("n/a".to_string(), |v| format!("{v:.3}x")),
            );
        }
    }
    let core_json = core.to_json();
    let ck_json = checkpointing.to_json();
    let json = match &matrix {
        Some((m, mt)) => result.to_json_with_extra(&[
            ("core_mips", &core_json),
            ("checkpointing", &ck_json),
            ("matrix", &m.to_json()),
            ("telemetry", &mt.to_json()),
        ]),
        None => {
            result.to_json_with_extra(&[("core_mips", &core_json), ("checkpointing", &ck_json)])
        }
    };
    if out == "-" {
        println!("{json}");
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_json: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if !quiet {
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}
