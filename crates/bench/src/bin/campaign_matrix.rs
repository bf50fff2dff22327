//! Sweeps fault campaigns over {workload × fault model × scheduler policy ×
//! replica count} through the unified workload registry and prints the
//! coverage/detection matrix (the paper's safety argument over the full
//! Rodinia suite, extended along the NMR replica axis).
//!
//! `campaign_matrix --help` prints the flags. List values are
//! comma-separated; an empty list or item is rejected, except
//! `--wide-replicas ''`, which turns the wide-device cells off.
//!
//! Workload cells on the paper device run `--trials` trials and pipeline
//! cells `--pipeline-trials` (default: `--trials`). Wide-device cells run
//! half of `--trials` and limp-home cells half of the pipeline trials,
//! both rounded up to at least one.
//!
//! `--progress` renders a live cell-granularity progress line (with each
//! completed cell's wall time) to stderr and prints a per-cell wall-time
//! summary on completion. `--quiet` suppresses the stdout tables; with
//! `--json -` the JSON document streams to stdout (implying `--quiet`),
//! so stdout is machine-consumable as piped.
//!
//! `--trace-out PATH` additionally records a Chrome-trace-event JSON
//! timeline (open in `chrome://tracing` or Perfetto; timestamps are
//! simulated cycles): one overlapped `sensor_fusion` frame with a
//! transient fault — per-stage spans, per-SM block tracks, fault
//! instants — plus one checkpointed campaign trial showing fault-arm,
//! suffix-replay restores, and detection.
//!
//! `--checkpoint` runs the workload campaign cells checkpointed: one
//! fault-free reference pass with periodic device snapshots per cell, then
//! suffix-only replay per trial. It selects the engine only; the reports
//! are the same either way. `--check-serial` re-runs every cell on the
//! serial oracle, which simulates every trial in full from cycle 0, and
//! asserts the reports bit-identical, so with `--checkpoint` it is the
//! checkpointing determinism cross-check.
//!
//! `--assert-srrs-clean` exits non-zero unless every SRRS cell — at every
//! swept replica count, on the paper device and the wide one — reports zero
//! undetected failures (the CI fence for the paper's ASIL-D claim). A
//! replica count whose fenced cells are missing or activated no fault at
//! all is evidence of nothing and fails the fence as vacuous. When
//! `--pipelines` names any pipeline the fence extends to the pipeline
//! cells: any undetected failure under a diverse policy, or any
//! *unrecovered in-slack retry* on a transient-class fault (a re-execution
//! that was funded by the FTTI but still failed), fails the run. With limp
//! cells swept (`--frames` > 1), the fence also covers degraded-mode
//! missions: a permanent fault must actually be diagnosed and quarantined,
//! every diagnosed mission must limp home, no degraded frame may overrun
//! its *re-planned* end-to-end budget, and a transient-class fault must
//! never cost the device an SM (no quarantine without attributable
//! permanent evidence).

use higpu_bench::matrix::{full_registry, run_matrix, MatrixConfig};
use higpu_bench::table;
use higpu_core::policy::PolicyKind;
use higpu_faults::campaign::{
    ftti_deadline, policy_mode, CampaignConfig, CampaignRunner, CampaignSpec, FaultSpec,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::RedundantWorkload;
use higpu_pipeline::trace_export;
use higpu_pipeline::{full_pipeline_registry, plan, run_pipeline, FrameOptions};
use higpu_sim::config::GpuConfig;
use higpu_sim::gpu::Gpu;
use higpu_telemetry::{ChromeTrace, EventKind};
use higpu_workloads::Scale;
use std::process::ExitCode;

/// The `--help` text.
const USAGE: &str = "\
usage: campaign_matrix [--trials N] [--seed S] [--workloads a,b,c]
                       [--policies srrs,half,slice,slice-skewed,default]
                       [--faults transient,droop,permanent,misroute]
                       [--replicas 2,3] [--pipelines ad_pipeline,sensor_fusion]
                       [--pipeline-trials N] [--frames N] [--wide-replicas 5]
                       [--checkpoint] [--assert-srrs-clean]
                       [--full-scale] [--check-serial] [--csv] [--json PATH]
                       [--progress] [--quiet] [--trace-out PATH] [--help]
";

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "default" | "gpgpu-sim" => Ok(PolicyKind::Default),
        "srrs" => Ok(PolicyKind::Srrs),
        "half" => Ok(PolicyKind::Half),
        "slice" => Ok(PolicyKind::Slice),
        "slice-skewed" | "sliceskew" => Ok(PolicyKind::SliceSkewed),
        other => Err(format!(
            "unknown policy '{other}' (default|srrs|half|slice|slice-skewed)"
        )),
    }
}

fn parse_fault(s: &str) -> Result<FaultSpec, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "transient" => Ok(FaultSpec::Transient { duration: 400 }),
        "droop" => Ok(FaultSpec::Droop { duration: 400 }),
        "permanent" => Ok(FaultSpec::Permanent),
        "misroute" => Ok(FaultSpec::Misroute),
        other => Err(format!(
            "unknown fault '{other}' (transient|droop|permanent|misroute)"
        )),
    }
}

struct Options {
    cfg: MatrixConfig,
    csv: bool,
    json: Option<String>,
    assert_srrs_clean: bool,
    quiet: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        cfg: MatrixConfig::default(),
        csv: false,
        json: None,
        assert_srrs_clean: false,
        quiet: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        // A comma-separated value; an empty list or item is a typo.
        let list = |v: String| -> Result<Vec<String>, String> {
            let items: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
            if items.iter().any(String::is_empty) {
                return Err(format!("{flag}: empty item in '{v}'"));
            }
            Ok(items)
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
            "--workloads" => opts.cfg.workloads = list(value("--workloads")?)?,
            "--policies" => {
                opts.cfg.policies = list(value("--policies")?)?
                    .iter()
                    .map(|s| parse_policy(s))
                    .collect::<Result<_, _>>()?;
            }
            "--faults" => {
                opts.cfg.faults = list(value("--faults")?)?
                    .iter()
                    .map(|s| parse_fault(s))
                    .collect::<Result<_, _>>()?;
            }
            "--replicas" => {
                opts.cfg.replica_counts = list(value("--replicas")?)?
                    .iter()
                    .map(|r| r.parse::<u8>().map_err(|e| format!("--replicas: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--pipelines" => opts.cfg.pipelines = list(value("--pipelines")?)?,
            "--pipeline-trials" => {
                opts.cfg.pipeline_trials = Some(
                    value("--pipeline-trials")?
                        .parse()
                        .map_err(|e| format!("--pipeline-trials: {e}"))?,
                );
            }
            "--frames" => {
                opts.cfg.limp_frames = value("--frames")?
                    .parse()
                    .map_err(|e| format!("--frames: {e}"))?;
            }
            "--wide-replicas" => {
                // The whole value `''` turns the wide cells off.
                let v = value("--wide-replicas")?;
                opts.cfg.wide_replica_counts = if v.trim().is_empty() {
                    Vec::new()
                } else {
                    list(v)?
                        .iter()
                        .map(|r| r.parse::<u8>().map_err(|e| format!("--wide-replicas: {e}")))
                        .collect::<Result<_, _>>()?
                };
            }
            "--checkpoint" => opts.cfg.checkpoint = true,
            "--assert-srrs-clean" => opts.assert_srrs_clean = true,
            "--full-scale" => opts.cfg.scale = Scale::Full,
            "--check-serial" => opts.cfg.check_serial = true,
            "--csv" => opts.csv = true,
            "--json" => opts.json = Some(value("--json")?),
            "--progress" => opts.cfg.progress = true,
            "--quiet" => opts.quiet = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(opts)
}

/// Records the `--trace-out` Chrome-trace timeline: process 1 is one
/// overlapped `sensor_fusion` frame with an armed transient fault (stage
/// spans + SM block tracks + fault instants), process 2 is one checkpointed
/// campaign trial (fault-arm, suffix-replay restores, detection). Both run
/// on telemetry-enabled devices; everything in the file is simulated state,
/// so the trace is a pure function of `seed`.
fn record_trace(path: &str, seed: u64) -> Result<(), String> {
    let mut trace = ChromeTrace::new();
    let bit = 4 + (seed % 20) as u8;

    // Process 1: one overlapped sensor_fusion frame under SRRS/DCLS with a
    // transient SM fault armed inside the first stage's window.
    let preg = full_pipeline_registry();
    let pipeline = preg
        .build("sensor_fusion", Scale::Campaign)
        .ok_or_else(|| "pipeline 'sensor_fusion' not registered".to_string())?;
    let mut gpu_cfg = GpuConfig::paper_6sm();
    gpu_cfg.telemetry_capacity = Some(1 << 16);
    let mode = policy_mode(PolicyKind::Srrs, 2, gpu_cfg.num_sms).map_err(|e| e.to_string())?;
    let frame_plan =
        plan(&gpu_cfg, &pipeline, &mode).map_err(|e| format!("frame calibration: {e}"))?;
    // A 400-cycle window over one SM only activates if that SM produces
    // values then; scan a small deterministic grid of arm points and keep
    // the first frame whose fault bites (fall back to the last otherwise).
    let mut recorded = None;
    'frame_scan: for numer in [2u64, 1, 3] {
        for sm in 0..gpu_cfg.num_sms {
            let model = FaultModel::TransientSm {
                sm,
                start: (frame_plan.stage_makespans[0] * numer) / 4,
                duration: 400,
                bit,
            };
            let counters = InjectionCounters::shared();
            let mut gpu = Gpu::new(gpu_cfg.clone());
            gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
            gpu.record_event(
                EventKind::FaultArmed,
                model.arm_cycle(),
                sm as u32,
                0,
                u64::from(bit),
            );
            let run = run_pipeline(
                &mut gpu,
                &pipeline,
                &mode,
                &frame_plan,
                FrameOptions::overlapped(),
            )
            .map_err(|e| format!("frame execution: {e}"))?;
            let activated = counters.activated();
            recorded = Some((gpu, run));
            if activated {
                break 'frame_scan;
            }
        }
    }
    let (mut gpu, run) = recorded.expect("frame scan ran at least once");
    trace_export::export_frame(
        &mut trace,
        1,
        "sensor_fusion frame (overlapped, transient fault)",
        &mut gpu,
        &run,
    );

    // Process 2: one checkpointed campaign trial — the reference pass's
    // snapshots let the trial fast-forward to the fault, so the SM tracks
    // open with Restore instants before the corrupted suffix runs live.
    let reg = full_registry();
    let mut ccfg = CampaignConfig::default();
    ccfg.gpu.telemetry_capacity = Some(1 << 16);
    let spec = CampaignSpec::new(
        "hotspot",
        PolicyKind::Srrs,
        FaultSpec::Transient { duration: 400 },
    );
    let workload = spec.build_workload(&reg).map_err(|e| e.to_string())?;
    let trial_mode = spec.mode(ccfg.gpu.num_sms).map_err(|e| e.to_string())?;
    let reference = record_reference(
        &ccfg,
        &trial_mode,
        &workload,
        CheckpointConfig::default().stride,
    )
    .map_err(|e| format!("reference pass: {e}"))?;
    let makespan = reference.makespan();
    let deadline = ftti_deadline(makespan, workload.ftti_multiplier());
    let mut runner = CampaignRunner::new(&ccfg);
    // Scan a small deterministic grid of arm points and keep the first
    // trial whose fault actually activates (a window over an idle SM shows
    // no detection — a dull trace); fall back to the last trial otherwise.
    let mut outcome = higpu_faults::campaign::TrialOutcome::NotActivated;
    let mut events = Vec::new();
    'scan: for numer in [1u64, 2, 3] {
        for sm in 0..ccfg.gpu.num_sms {
            let trial_model = FaultModel::TransientSm {
                sm,
                start: (makespan * numer) / 4,
                duration: 400,
                bit,
            };
            let (o, _obs) = runner
                .run_trial_observed(
                    &trial_mode,
                    &workload,
                    trial_model,
                    Some(deadline),
                    Some(&reference),
                )
                .map_err(|e| format!("campaign trial: {e}"))?;
            outcome = o;
            events = runner.gpu_mut().drain_telemetry();
            if outcome != higpu_faults::campaign::TrialOutcome::NotActivated {
                break 'scan;
            }
        }
    }
    trace.process_name(
        2,
        &format!(
            "campaign trial: {} (checkpointed, outcome {outcome:?})",
            spec.workload
        ),
    );
    higpu_telemetry::chrome::add_device_events(&mut trace, 2, &events);

    std::fs::write(path, trace.to_json()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign_matrix: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // `--json -` makes stdout the JSON document: silence every table.
    let quiet = opts.quiet || opts.json.as_deref() == Some("-");
    let reg = full_registry();
    eprintln!(
        "Campaign matrix — {} workload(s) + {} pipeline(s) x {} policies x {} faults x replicas {:?}, {} trials/cell\n",
        if opts.cfg.workloads.is_empty() {
            reg.len()
        } else {
            opts.cfg.workloads.len()
        },
        opts.cfg.pipelines.len(),
        opts.cfg.policies.len(),
        opts.cfg.faults.len(),
        opts.cfg.replica_counts,
        opts.cfg.trials
    );
    let (m, telemetry) = match run_matrix(&reg, &opts.cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaign_matrix: sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.cfg.progress {
        // The post-sweep wall-time record: one line per workload campaign
        // cell, on stderr so `--json -` stdout stays pure.
        for c in &telemetry.cells {
            eprintln!(
                "cell {:>12} {:>11} N={} {:<12} [{}] {:>7.2}s",
                c.workload, c.policy, c.replicas, c.fault, c.device, c.wall_seconds
            );
        }
        eprintln!("sweep wall time: {:.2}s", telemetry.wall_seconds);
    }
    let t = m.to_table();
    if quiet {
        // Tables silenced; the JSON/trace writers below still run.
    } else if opts.csv {
        println!("{}", table::render_csv(&t));
    } else {
        println!("{}", table::render(&t));
        println!(
            "undetected failures under SRRS/HALF/SLICE: {} (the paper's ASIL-D claim requires 0); \
             corrected by N>=3 majority voting: {}",
            m.undetected_under_diverse_policies(),
            m.total_corrected()
        );
        for p in m.frontier() {
            println!(
                "frontier: {:9} N={}  detected={:3}  corrected={:3}  undetected={:3}  \
                 mean makespan overhead {:.2}x",
                p.policy,
                p.replicas,
                p.detected,
                p.corrected,
                p.undetected,
                p.mean_makespan_overhead
            );
        }
        if !m.pipeline_reports.is_empty() {
            println!("\npipeline cells (fail-operational vs fail-stop):");
            println!("{}", table::render(&m.pipeline_table()));
            println!(
                "pipeline frames recovered by in-FTTI re-execution: {}; \
                 undetected under diverse policies: {}",
                m.total_recovered(),
                m.pipeline_undetected_under_diverse_policies()
            );
            for p in m.pipeline_frontier() {
                println!(
                    "pipeline frontier: {:13} {:9} N={} {:10}  corrected={:3}  recovered={:3}  \
                     detected={:3}  undetected={:3}  deadline-miss={:3}  recovery {}",
                    p.pipeline,
                    p.policy,
                    p.replicas,
                    p.exec,
                    p.corrected,
                    p.recovered,
                    p.detected,
                    p.undetected,
                    p.deadline_miss,
                    p.recovery_rate()
                        .map_or("n/a".to_string(), |r| format!("{:.0}%", r * 100.0)),
                );
            }
            for s in m.pipeline_speedups() {
                println!(
                    "overlap speedup:   {:13} {:9} N={}  e2e makespan {} -> {} ({:.2}x)  \
                     FTTI {} -> {} ({:.2}x tighter)",
                    s.pipeline,
                    s.policy,
                    s.replicas,
                    s.serial_makespan,
                    s.overlapped_makespan,
                    s.makespan_speedup(),
                    s.serial_sum_ftti,
                    s.critical_path_ftti,
                    s.ftti_tightening(),
                );
            }
        }
        if !m.limp_reports.is_empty() {
            println!(
                "\ndegraded mode ({} frames/mission): quarantined={}  limp-home-miss={}  \
                 re-planned-ddl-miss={}  false-quarantines={}  frames-to-diagnosis={}  \
                 post-quarantine inflation={}  limp miss rate={}",
                m.limp_frames,
                m.limp_quarantined(),
                m.limp_home_misses(),
                m.limp_deadline_misses(),
                m.limp_false_quarantines(),
                m.limp_mean_frames_to_diagnosis()
                    .map_or("n/a".to_string(), |v| format!("{v:.2}")),
                m.limp_makespan_inflation()
                    .map_or("n/a".to_string(), |v| format!("{v:.3}x")),
                m.limp_home_miss_rate()
                    .map_or("n/a".to_string(), |v| format!("{:.0}%", v * 100.0)),
            );
        }
    }
    if let Some(path) = &opts.json {
        let doc = format!(
            "{{\"matrix\": {}, \"telemetry\": {}}}\n",
            m.to_json(),
            telemetry.to_json()
        );
        if path == "-" {
            print!("{doc}");
        } else {
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("campaign_matrix: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            if !quiet {
                println!("wrote {path}");
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = record_trace(path, opts.cfg.seed) {
            eprintln!("campaign_matrix: trace recording failed: {e}");
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!("wrote {path}");
        }
    }
    if opts.assert_srrs_clean {
        for replicas in &m.replica_counts {
            let srrs: Vec<_> = m
                .reports
                .iter()
                .filter(|r| r.policy == "SRRS" && r.replicas == *replicas)
                .collect();
            if srrs.is_empty() {
                // A fence that measured nothing must not report success.
                eprintln!(
                    "campaign_matrix: --assert-srrs-clean but no SRRS cell was swept at \
                     {replicas} replicas (check --policies/--replicas) — fence vacuous"
                );
                return ExitCode::FAILURE;
            }
            if srrs.iter().all(|r| r.trials == r.not_activated) {
                // Nor must one whose faults never activated.
                eprintln!(
                    "campaign_matrix: --assert-srrs-clean but no SRRS trial at {replicas} \
                     replicas activated its fault (check --trials/--faults) — fence vacuous"
                );
                return ExitCode::FAILURE;
            }
            let undetected: u32 = srrs.iter().map(|r| r.undetected).sum();
            if undetected != 0 {
                eprintln!(
                    "campaign_matrix: SRRS at {replicas} replicas shows {undetected} \
                     undetected failure(s) — ASIL-D fence violated"
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "campaign_matrix: SRRS clean at {replicas} replicas ({} cells, undetected == 0)",
                srrs.len()
            );
        }
        // Pipeline fence: no undetected failure under any diverse policy,
        // and no unrecovered in-slack retry on transient-class faults (a
        // funded re-execution of a non-persistent fault must succeed).
        if m.pipeline_undetected_under_diverse_policies() != 0 {
            eprintln!(
                "campaign_matrix: pipeline cells show {} undetected failure(s) under \
                 diverse policies — fail-operational fence violated",
                m.pipeline_undetected_under_diverse_policies()
            );
            return ExitCode::FAILURE;
        }
        let diverse: Vec<&str> = PolicyKind::all_extended()
            .into_iter()
            .filter(|p| p.guarantees_diversity())
            .map(PolicyKind::label)
            .collect();
        // Persistence is a property of the swept FaultSpec, not of a label
        // literal — derive the exempt set from the spec so new or renamed
        // persistent families stay exempt.
        let persistent: Vec<&str> = opts
            .cfg
            .faults
            .iter()
            .filter(|f| f.is_persistent())
            .map(|f| f.label())
            .collect();
        for r in &m.pipeline_reports {
            let transient_class = !persistent.contains(&r.fault);
            if transient_class && diverse.contains(&r.policy.as_str()) && r.retries_failed > 0 {
                eprintln!(
                    "campaign_matrix: {}/{}/N={} x {}: {} in-slack retr{} failed on a \
                     transient-class fault — recovery fence violated",
                    r.pipeline,
                    r.policy,
                    r.replicas,
                    r.fault,
                    r.retries_failed,
                    if r.retries_failed == 1 { "y" } else { "ies" }
                );
                return ExitCode::FAILURE;
            }
        }
        if !m.pipeline_reports.is_empty() {
            eprintln!(
                "campaign_matrix: pipeline fence clean ({} cells, {} frames recovered)",
                m.pipeline_reports.len(),
                m.total_recovered()
            );
        }
        // Wide-device fence: the extra replica counts keep the ASIL-D
        // claim too, under the same vacuity rules as the SRRS cells.
        for replicas in &m.wide_replica_counts {
            let wide: Vec<_> = m
                .wide_reports
                .iter()
                .filter(|r| r.replicas == *replicas && diverse.contains(&r.policy.as_str()))
                .collect();
            if wide.is_empty() {
                eprintln!(
                    "campaign_matrix: --assert-srrs-clean but no diverse wide cell was swept \
                     at {replicas} replicas (check --policies) — fence vacuous"
                );
                return ExitCode::FAILURE;
            }
            if wide.iter().all(|r| r.trials == r.not_activated) {
                eprintln!(
                    "campaign_matrix: --assert-srrs-clean but no diverse wide trial at \
                     {replicas} replicas activated its fault (check --trials/--faults) \
                     — fence vacuous"
                );
                return ExitCode::FAILURE;
            }
            let undetected: u32 = wide.iter().map(|r| r.undetected).sum();
            if undetected != 0 {
                eprintln!(
                    "campaign_matrix: wide-device cells at {replicas} replicas show \
                     {undetected} undetected failure(s) under diverse policies — ASIL-D \
                     fence violated"
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "campaign_matrix: wide device clean at {replicas} replicas ({} cells)",
                wide.len()
            );
        }
        // Limp-home fence: permanent faults must be diagnosed and limped
        // around, degraded frames must hold their *re-planned* budgets,
        // and no quarantine may ever rest on unattributable (transient or
        // tie-only) evidence.
        if !m.limp_reports.is_empty() {
            let swept_persistent = m.limp_reports.iter().any(|r| persistent.contains(&r.fault));
            if swept_persistent && m.limp_quarantined() == 0 {
                eprintln!(
                    "campaign_matrix: permanent-fault limp cells never diagnosed a \
                     quarantine — degraded-mode fence vacuous"
                );
                return ExitCode::FAILURE;
            }
            if m.limp_home_misses() != 0 {
                eprintln!(
                    "campaign_matrix: {} diagnosed mission(s) failed to limp home — \
                     fail-operational fence violated",
                    m.limp_home_misses()
                );
                return ExitCode::FAILURE;
            }
            if m.limp_deadline_misses() != 0 {
                eprintln!(
                    "campaign_matrix: {} degraded frame(s) overran the re-planned \
                     end-to-end budget — recalibrated-FTTI fence violated",
                    m.limp_deadline_misses()
                );
                return ExitCode::FAILURE;
            }
            if m.limp_false_quarantines() != 0 {
                eprintln!(
                    "campaign_matrix: {} quarantine(s) on transient-class faults — an SM \
                     was convicted without attributable permanent evidence",
                    m.limp_false_quarantines()
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "campaign_matrix: degraded-mode fence clean ({} mission cells, {} \
                 quarantined, 0 limp-home misses)",
                m.limp_reports.len(),
                m.limp_quarantined()
            );
        }
    }
    ExitCode::SUCCESS
}
