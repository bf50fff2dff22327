//! The traced run: the same cells, serially, through the runner-level API,
//! with each call into a layer's public functions wrapped in a span. It
//! yields the per-layer metrics and cross-checks every traced cell against
//! the untraced campaign call of the same cell.

use crate::cells::{Cell, CellReport, CellRun, Plan, Registries, Round, WORKERS};
use crate::trace::{median, quantile, ratio, Tracer};
use higpu_core::bist::scheduler_bist;
use higpu_core::diversity::{analyze, DiversityRequirements};
use higpu_core::health::sm_bist_sweep;
use higpu_core::redundancy::{RedundancyError, RedundancyMode, RedundantExecutor};
use higpu_core::vote::majority_vote;
use higpu_faults::campaign::{
    draw_models, dry_run_makespan, ftti_deadline, policy_mode, trivially_not_activated,
    CampaignConfig, CampaignRunner, CampaignSpec, CampaignTelemetry, TrialOutcome,
};
use higpu_faults::checkpoint::{record_reference, ReferenceRun, SuffixReplayer};
use higpu_faults::injector::{FaultInjector, InjectionCounters};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::{CampaignWorkload, RedundantWorkload};
use higpu_pipeline::campaign::{PipelineCampaignRunner, PipelineTrialOutcome};
use higpu_pipeline::{
    plan_degraded, run_limp_home, run_pipeline, FrameOptions, Pipeline, PipelineCampaignSpec,
    PipelinePlan, PipelineRun,
};
use higpu_sim::gpu::{Gpu, SimError};
use higpu_workloads::runner::{run_redundant, run_solo};
use higpu_workloads::{RedundantSession, SessionError};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.ns_per_warp_instr", "ns"),
    ("sim.reset_us", "us"),
    ("sim.snapshot_us", "us"),
    ("sim.restore_us", "us"),
    ("sim.snapshot_kib", "KiB"),
    ("sim.l1_hit_rate", "ratio"),
    ("sim.l2_hit_rate", "ratio"),
    ("sim.dram_per_kinstr", "count"),
    ("core.vote_ns_per_word", "ns"),
    ("core.diversity_us", "us"),
    ("core.scheduler_bist_us", "us"),
    ("core.sm_bist_sweep_us", "us"),
    ("workloads.reference_us", "us"),
    ("workloads.verify_us", "us"),
    ("workloads.redundant_over_solo", "ratio"),
    ("workloads.bytes_per_trial", "bytes"),
    ("faults.trial_us.p50", "us"),
    ("faults.trial_us.p99", "us"),
    ("faults.trial_us.p50.not_activated", "us"),
    ("faults.trial_us.p50.masked", "us"),
    ("faults.trial_us.p50.detected", "us"),
    ("faults.trial_us.p50.corrected", "us"),
    ("faults.trial_us.p50.deadline_cut", "us"),
    ("faults.dry_run_ms", "ms"),
    ("faults.reference_record_ms", "ms"),
    ("faults.reference_kib", "KiB"),
    ("faults.instr_per_trial", "count"),
    ("faults.restores_per_trial", "count"),
    ("faults.restore_skipped_share", "ratio"),
    ("faults.activated_share", "ratio"),
    ("faults.deadline_cut_share", "ratio"),
    ("faults.parallel_efficiency", "ratio"),
    ("faults.detect_latency_p99_cycles", "cycles"),
    ("faults.undetected_diverse", "count"),
    ("faults.trivial_skipped", "count"),
    ("pipeline.plan_ms", "ms"),
    ("pipeline.replan_ms", "ms"),
    ("pipeline.frame_us.p50", "us"),
    ("pipeline.frame_us.p99", "us"),
    ("pipeline.ns_per_warp_instr", "ns"),
    ("pipeline.mission_us.p50", "us"),
    ("pipeline.mission_us.p99", "us"),
    ("pipeline.stage_verify_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Every `DECOMPOSE_EVERY`-th trial of a cell is re-run piece by piece
/// (reset, redundant run, verification, misroute monitors) to measure how
/// much of a trial those calls explain.
const DECOMPOSE_EVERY: usize = 4;

/// Repetitions of each micro-measurement.
const REPS: usize = 3;

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer samples gathered over the traced run.
#[derive(Debug, Default)]
struct Acc {
    trial_us: Vec<f64>,
    bucket_us: [Vec<f64>; 5],
    trials: u64,
    activated: u64,
    deadline_cut: u64,
    restores: u64,
    restore_skipped_cycles: u64,
    end_cycles: u64,
    instructions: u64,
    trivial: u64,
    detect_latency: Vec<f64>,
    dry_run_ms: Vec<f64>,
    record_ms: Vec<f64>,
    reference_kib: Vec<f64>,
    traced_trial_ns: u64,
    traced_campaign_ns: u64,
    component_ns: u64,
    decomposed_trial_ns: u64,
    reset_us: Vec<f64>,
    bytes: Vec<f64>,
    reference_us: Vec<f64>,
    verify_us: Vec<f64>,
    diversity_us: Vec<f64>,
    bist_us: Vec<f64>,
    vote_ns_per_word: Vec<f64>,
    snapshot_us: Vec<f64>,
    restore_us: Vec<f64>,
    snapshot_kib: Vec<f64>,
    solo_ns: BTreeMap<String, f64>,
    solo_instr: u64,
    solo_ns_total: f64,
    l1: (u64, u64),
    l2: (u64, u64),
    dram_ops: u64,
    redundant_ns: f64,
    replicated_solo_ns: f64,
    plan_ms: Vec<f64>,
    replan_ms: Vec<f64>,
    frame_us: Vec<f64>,
    frame_ns_total: u64,
    frame_instr: u64,
    mission_us: Vec<f64>,
    stage_verify_us: Vec<f64>,
    sweep_us: Vec<f64>,
}

/// The traced run's result.
#[derive(Debug)]
pub struct TracedRun {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Disagreements between the traced and the untraced runs.
    pub problems: Vec<String>,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Runs every cell of `plan` serially with tracing on, and derives the
/// per-layer metrics against the untraced `parallel` (2-worker) and
/// `serial` (1-worker) rounds of the same cells.
pub fn traced_run(plan: &Plan, regs: &Registries, parallel: &Round, serial: &Round) -> TracedRun {
    let mut t = Tracer::new();
    let mut acc = Acc::default();
    let mut problems = Vec::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        let untraced = &parallel.cells[i];
        let traced = crate::cells::guarded(|| match cell {
            Cell::Faults(spec) => {
                trace_faults_cell(&mut t, &mut acc, plan.cell_cfg(i, 1), regs, spec, untraced)
            }
            Cell::Limp(spec) => {
                trace_limp_cell(&mut t, &mut acc, plan.cell_cfg(i, 1), regs, spec, untraced)
            }
        });
        match traced {
            Ok(mut p) => problems.append(&mut p),
            // A cell that fails untraced fails traced too; only a cell that
            // worked untraced is a problem.
            Err(e) if untraced.result.is_ok() => {
                problems.push(format!("{}: traced run failed: {e}", cell.label()));
            }
            Err(_) => {}
        }
    }
    let parallel_wall: f64 = parallel.cells.iter().map(|c| c.wall_s).sum();
    let serial_wall: f64 = serial.cells.iter().map(|c| c.wall_s).sum();
    let undetected_diverse: u32 = parallel
        .undetected_diverse(plan)
        .iter()
        .map(|(_, n)| n)
        .sum();
    let metrics = emit(&acc, parallel_wall, serial_wall, undetected_diverse);
    TracedRun {
        metrics,
        problems,
        tracer: t,
    }
}

fn emit(
    a: &Acc,
    parallel_wall_s: f64,
    serial_wall_s: f64,
    undetected_diverse: u32,
) -> Vec<(&'static str, f64, &'static str)> {
    let trials = a.trials as f64;
    let values: [f64; PER_LAYER.len()] = [
        ratio(a.solo_ns_total, a.solo_instr as f64),
        median(&a.reset_us),
        median(&a.snapshot_us),
        median(&a.restore_us),
        median(&a.snapshot_kib),
        ratio(a.l1.0 as f64, a.l1.1 as f64),
        ratio(a.l2.0 as f64, a.l2.1 as f64),
        ratio(a.dram_ops as f64 * 1e3, a.solo_instr as f64),
        median(&a.vote_ns_per_word),
        median(&a.diversity_us),
        median(&a.bist_us),
        median(&a.sweep_us),
        median(&a.reference_us),
        median(&a.verify_us),
        ratio(a.redundant_ns, a.replicated_solo_ns),
        ratio(a.bytes.iter().sum(), a.bytes.len() as f64),
        quantile(&a.trial_us, 0.5),
        quantile(&a.trial_us, 0.99),
        quantile(&a.bucket_us[0], 0.5),
        quantile(&a.bucket_us[1], 0.5),
        quantile(&a.bucket_us[2], 0.5),
        quantile(&a.bucket_us[3], 0.5),
        quantile(&a.bucket_us[4], 0.5),
        median(&a.dry_run_ms),
        median(&a.record_ms),
        median(&a.reference_kib),
        ratio(a.instructions as f64, trials),
        ratio(a.restores as f64, trials),
        ratio(a.restore_skipped_cycles as f64, a.end_cycles as f64),
        ratio(a.activated as f64, trials),
        ratio(a.deadline_cut as f64, trials),
        ratio(
            a.traced_trial_ns as f64 / 1e9,
            WORKERS as f64 * parallel_wall_s,
        ),
        quantile(&a.detect_latency, 0.99),
        f64::from(undetected_diverse),
        a.trivial as f64,
        median(&a.plan_ms),
        median(&a.replan_ms),
        quantile(&a.frame_us, 0.5),
        quantile(&a.frame_us, 0.99),
        ratio(a.frame_ns_total as f64, a.frame_instr as f64),
        quantile(&a.mission_us, 0.5),
        quantile(&a.mission_us, 0.99),
        median(&a.stage_verify_us),
        ratio(a.component_ns as f64, a.decomposed_trial_ns as f64),
        ratio(a.traced_campaign_ns as f64 / 1e9, serial_wall_s),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, if v.is_finite() { v } else { 0.0 }, unit))
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn trace_faults_cell(
    t: &mut Tracer,
    acc: &mut Acc,
    cfg: CampaignConfig,
    regs: &Registries,
    spec: &CampaignSpec,
    untraced: &CellRun,
) -> Result<Vec<String>, String> {
    let label = Cell::Faults(spec.clone()).label();
    let cell_span = t.enter("cell");
    let (workload, _) = t.time("workloads.build", || spec.build_workload(&regs.workloads));
    let workload = workload.map_err(err)?;
    let mode = spec.mode(cfg.gpu.num_sms).map_err(err)?;

    // The traced equivalent of the campaign call: reference pass, then the
    // trials on one reusable runner.
    let campaign_span = t.enter("faults.campaign");
    let (reference, window) = match cfg.checkpoint {
        Some(ck) => {
            let (r, ns) = t.time("faults.record_reference", || {
                record_reference(&cfg, &mode, &workload, ck.stride)
            });
            let r = r.map_err(err)?;
            acc.record_ms.push(ms(ns));
            acc.reference_kib.push(r.approx_bytes() as f64 / 1024.0);
            let makespan = r.makespan();
            (Some(r), makespan)
        }
        None => {
            let (m, ns) = t.time("faults.dry_run", || {
                dry_run_makespan(&cfg, &mode, &workload)
            });
            acc.dry_run_ms.push(ms(ns));
            (None, m.map_err(err)?)
        }
    };
    let deadline = Some(ftti_deadline(window, workload.ftti_multiplier()));
    let models = draw_models(&cfg, spec.fault, window);
    acc.trivial += models
        .iter()
        .filter(|&&m| trivially_not_activated(m, window, deadline))
        .count() as u64;
    let mut runner = CampaignRunner::new(&cfg);
    let mut counts = [0u32; 5];
    let mut rebuilt = CampaignTelemetry::default();
    let mut trials = Vec::with_capacity(models.len());
    for &model in &models {
        let (r, ns) = t.time("faults.trial", || {
            runner.run_trial_observed_with_makespan(
                &mode,
                &workload,
                model,
                deadline,
                reference.as_ref(),
                window,
            )
        });
        let (outcome, obs) = r.map_err(err)?;
        trials.push((outcome, ns));
        acc.trial_us.push(us(ns));
        acc.traced_trial_ns += ns;
        acc.trials += 1;
        acc.activated += u64::from(obs.activated);
        acc.deadline_cut += u64::from(obs.deadline_cut);
        acc.restores += obs.restores;
        acc.restore_skipped_cycles += obs.restore_skipped_cycles;
        acc.end_cycles += obs.end_cycle;
        let index = match outcome {
            TrialOutcome::NotActivated => 0,
            TrialOutcome::Masked => 1,
            TrialOutcome::Detected => 2,
            TrialOutcome::Corrected => 3,
            TrialOutcome::UndetectedFailure => 4,
        };
        counts[index] += 1;
        // Time buckets: deadline cuts (a kind of detection) get bucket 4;
        // undetected failures get none.
        if obs.deadline_cut {
            acc.bucket_us[4].push(us(ns));
        } else if index < 4 {
            acc.bucket_us[index].push(us(ns));
        }
        rebuilt.makespans.record(obs.end_cycle);
        if outcome == TrialOutcome::Detected {
            let latency = obs.end_cycle.saturating_sub(obs.arm_cycle);
            rebuilt.detection_latency.record(latency);
            acc.detect_latency.push(latency as f64);
        }
        if obs.activated && !obs.deadline_cut {
            rebuilt.corrupted_terminating.record(obs.end_cycle);
        }
        rebuilt.restores += obs.restores;
        rebuilt.restore_skipped_cycles += obs.restore_skipped_cycles;
    }
    acc.traced_campaign_ns += t.exit(campaign_span);
    let perf = runner.perf();
    acc.instructions += perf.sim_instructions;

    let mut problems = Vec::new();
    if let Ok(CellReport::Faults {
        report,
        perf: untraced_perf,
        telemetry,
    }) = &untraced.result
    {
        let untraced_counts = [
            report.not_activated,
            report.masked,
            report.detected,
            report.corrected,
            report.undetected,
        ];
        if counts != untraced_counts {
            problems.push(format!(
                "{label}: traced outcomes {counts:?} != untraced {untraced_counts:?}"
            ));
        }
        if untraced_perf.is_some_and(|p| p != perf) {
            problems.push(format!("{label}: traced CampaignPerf differs"));
        }
        if telemetry.as_deref().is_some_and(|tel| *tel != rebuilt) {
            problems.push(format!("{label}: traced telemetry differs"));
        }
    }

    let mut gpu = Gpu::new(cfg.gpu.clone());
    for (i, &model) in models.iter().enumerate().step_by(DECOMPOSE_EVERY) {
        if trivially_not_activated(model, window, deadline) {
            continue;
        }
        let (outcome, component_ns) = decompose_trial(
            t,
            acc,
            &mut gpu,
            &mode,
            &workload,
            model,
            deadline,
            reference.as_ref(),
        )?;
        acc.component_ns += component_ns;
        acc.decomposed_trial_ns += trials[i].1;
        if outcome != trials[i].0 {
            problems.push(format!(
                "{label}: trial {i} decomposed to {outcome:?}, runner said {:?}",
                trials[i].0
            ));
        }
    }
    fault_free_layers(t, acc, &cfg, &mode, &workload)?;
    t.exit(cell_span);
    Ok(problems)
}

fn is_deadline(e: &SessionError) -> bool {
    matches!(
        e,
        SessionError::Sim(SimError::DeadlineExceeded { .. })
            | SessionError::Redundancy(RedundancyError::Sim(SimError::DeadlineExceeded { .. }))
    )
}

/// Re-runs one trial as its component calls — device reset, the redundant
/// host program (simulation, transfers, votes), verification against the
/// CPU reference and, for misroutes, the diversity monitor and scheduler
/// self-test — following the classification of
/// `CampaignRunner::run_trial_observed`. Returns the outcome and the summed
/// component time in nanoseconds.
#[allow(clippy::too_many_arguments)]
fn decompose_trial(
    t: &mut Tracer,
    acc: &mut Acc,
    gpu: &mut Gpu,
    mode: &RedundancyMode,
    workload: &CampaignWorkload,
    model: FaultModel,
    deadline: Option<u64>,
    reference: Option<&ReferenceRun>,
) -> Result<(TrialOutcome, u64), String> {
    let (_, reset_ns) = t.time("sim.reset", || {
        if gpu.reset().is_err() {
            gpu.force_reset();
        }
    });
    acc.reset_us.push(us(reset_ns));
    let mut component_ns = reset_ns;
    gpu.set_cycle_limit(deadline);
    let counters = InjectionCounters::shared();
    gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
    let inner = workload.inner();
    let mut bytes = 0u64;
    let (run, run_ns) = t.time("workloads.run_redundant", || {
        let mut exec =
            RedundantExecutor::new(gpu, mode.clone()).map_err(SessionError::Redundancy)?;
        if let Some(r) = reference {
            exec.set_sync_hook(Box::new(SuffixReplayer::new(r, model)));
        }
        let mut session = RedundantSession::tolerant(&mut exec);
        let out = inner.run(&mut session);
        bytes = session.bytes_uploaded() + session.bytes_read_back();
        let reads = (session.mismatched_reads(), session.tied_reads());
        out.map(|o| (o, reads))
    });
    component_ns += run_ns;
    acc.bytes.push(bytes as f64);
    let (out, (mismatched, tied)) = match run {
        Ok(v) => v,
        Err(e) if is_deadline(&e) => return Ok((TrialOutcome::Detected, component_ns)),
        Err(e) => return Err(e.to_string()),
    };
    let (verified, verify_ns) = t.time("workloads.verify", || inner.verify(&out).is_ok());
    acc.verify_us.push(us(verify_ns));
    component_ns += verify_ns;
    let activated = counters.activated();
    if let FaultModel::SchedulerMisroute { .. } = model {
        if !activated {
            return Ok((TrialOutcome::NotActivated, component_ns));
        }
        let (diverse, div_ns) = t.time("core.diversity", || {
            analyze(gpu.trace(), DiversityRequirements::default()).is_diverse()
        });
        acc.diversity_us.push(us(div_ns));
        let blocks = 2 * gpu.config().num_sms as u32;
        let (bist, bist_ns) = t.time("core.scheduler_bist", || {
            scheduler_bist(gpu, mode.clone(), blocks)
        });
        acc.bist_us.push(us(bist_ns));
        component_ns += div_ns + bist_ns;
        let outcome = match bist {
            Err(RedundancyError::Sim(SimError::DeadlineExceeded { .. })) => TrialOutcome::Detected,
            Err(e) => return Err(e.to_string()),
            Ok(b) if !b.passed() || !diverse => TrialOutcome::Detected,
            Ok(_) => TrialOutcome::UndetectedFailure,
        };
        return Ok((outcome, component_ns));
    }
    let fully_voted = mismatched > 0 && tied == 0;
    let outcome = if !activated {
        TrialOutcome::NotActivated
    } else if mismatched > 0 {
        if fully_voted && verified {
            TrialOutcome::Corrected
        } else if fully_voted {
            TrialOutcome::UndetectedFailure
        } else {
            TrialOutcome::Detected
        }
    } else if verified {
        TrialOutcome::Masked
    } else {
        TrialOutcome::UndetectedFailure
    };
    Ok((outcome, component_ns))
}

/// Fault-free measurements of one cell's workload and mode: solo runs
/// (instruction cost, cache behaviour), a redundant run against N solo
/// runs, snapshot/restore of the finished device, the CPU reference and
/// the majority vote over its output size.
fn fault_free_layers(
    t: &mut Tracer,
    acc: &mut Acc,
    cfg: &CampaignConfig,
    mode: &RedundancyMode,
    workload: &CampaignWorkload,
) -> Result<(), String> {
    let inner = workload.inner();
    let name = inner.name().to_string();
    if !acc.solo_ns.contains_key(&name) {
        let mut gpu = Gpu::new(cfg.gpu.clone());
        let mut walls = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            gpu.reset().map_err(err)?;
            let (out, ns) = t.time("sim.solo_run", || run_solo(&mut gpu, inner));
            out.map_err(err)?;
            walls.push(ns as f64);
        }
        let solo_ns = median(&walls);
        let stats = gpu.stats();
        acc.solo_ns.insert(name.clone(), solo_ns);
        acc.solo_ns_total += solo_ns;
        acc.solo_instr += stats.instructions;
        let m = stats.memory;
        acc.l1.0 += m.l1.hits + m.l1.pending_hits;
        acc.l1.1 += m.l1.accesses();
        acc.l2.0 += m.l2.hits + m.l2.pending_hits;
        acc.l2.1 += m.l2.accesses();
        acc.dram_ops += m.dram.reads + m.dram.writes;
    }
    let solo_ns = acc.solo_ns[&name];

    let mut gpu = Gpu::new(cfg.gpu.clone());
    let (run, red_ns) = t.time("workloads.run_redundant_fault_free", || {
        let mut exec = RedundantExecutor::new(&mut gpu, mode.clone()).map_err(err)?;
        run_redundant(&mut exec, inner).map_err(err)
    });
    run?;
    acc.redundant_ns += red_ns as f64;
    acc.replicated_solo_ns += f64::from(mode.replicas()) * solo_ns;

    for _ in 0..REPS {
        let (snap, snap_ns) = t.time("sim.snapshot", || gpu.snapshot());
        let (_, restore_ns) = t.time("sim.restore", || gpu.restore(&snap));
        acc.snapshot_us.push(us(snap_ns));
        acc.restore_us.push(us(restore_ns));
        acc.snapshot_kib.push(snap.approx_bytes() as f64 / 1024.0);
    }

    let mut words = Vec::new();
    for _ in 0..REPS {
        let (r, ns) = t.time("workloads.reference", || inner.reference());
        acc.reference_us.push(us(ns));
        words = r;
    }
    vote_layer(t, acc, &words, usize::from(mode.replicas()));
    Ok(())
}

/// Times `majority_vote` over `replicas` copies of `words` in which one
/// replica disagrees on every seventh word.
fn vote_layer(t: &mut Tracer, acc: &mut Acc, words: &[u32], replicas: usize) {
    if words.is_empty() {
        return;
    }
    let mut copies = vec![words.to_vec(); replicas.max(2)];
    for w in copies[0].iter_mut().step_by(7) {
        *w ^= 1;
    }
    let refs: Vec<&[u32]> = copies.iter().map(Vec::as_slice).collect();
    let rounds = (1 << 16) / words.len() + 1;
    let (_, ns) = t.time("core.majority_vote", || {
        for _ in 0..rounds {
            std::hint::black_box(majority_vote(std::hint::black_box(&refs), words.len()));
        }
    });
    acc.vote_ns_per_word
        .push(ns as f64 / (rounds * words.len()) as f64);
}

fn trace_limp_cell(
    t: &mut Tracer,
    acc: &mut Acc,
    cfg: CampaignConfig,
    regs: &Registries,
    spec: &PipelineCampaignSpec,
    untraced: &CellRun,
) -> Result<Vec<String>, String> {
    let label = Cell::Limp(spec.clone()).label();
    let cell_span = t.enter("cell");
    let (pipeline, _) = t.time("pipeline.build", || {
        regs.pipelines.build(&spec.pipeline, spec.scale)
    });
    let pipeline = pipeline.ok_or_else(|| format!("unknown pipeline {}", spec.pipeline))?;
    let mode = policy_mode(spec.policy, spec.replicas, cfg.gpu.num_sms).map_err(err)?;
    let opts = spec.frame_options();

    // The traced equivalent of `run_pipeline_campaign`: plan, one
    // fault-free frame fixing the fault window, then the missions.
    let campaign_span = t.enter("pipeline.campaign");
    let (frame_plan, plan_ns) = t.time("pipeline.plan", || {
        higpu_pipeline::plan(&cfg.gpu, &pipeline, &mode)
    });
    let frame_plan = frame_plan.map_err(err)?;
    acc.plan_ms.push(ms(plan_ns));
    let no_bist = FrameOptions {
        interstage_bist: false,
        ..opts
    };
    let (frame, _) = t.time("pipeline.frame", || {
        run_pipeline(
            &mut Gpu::new(cfg.gpu.clone()),
            &pipeline,
            &mode,
            &frame_plan,
            no_bist,
        )
    });
    let window = frame
        .map_err(err)?
        .end_cycle
        .saturating_mul(u64::from(spec.frames.max(1)));
    let models = draw_models(&cfg, spec.fault, window);
    let mut runner = PipelineCampaignRunner::new(&cfg);
    let mut tally: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut missions = Vec::with_capacity(models.len());
    for &model in &models {
        let (r, ns) = t.time("pipeline.mission", || {
            runner.run_limp_trial(&pipeline, &mode, &frame_plan, opts, spec.frames, model)
        });
        let (outcome, rep) = r.map_err(err)?;
        missions.push(ns);
        acc.mission_us.push(us(ns));
        acc.traced_trial_ns += ns;
        acc.trials += 1;
        acc.activated += u64::from(outcome != PipelineTrialOutcome::NotActivated);
        acc.deadline_cut += u64::from(
            rep.frames
                .iter()
                .filter_map(|f| f.run.as_ref())
                .any(|r| r.deadline_miss),
        );
        *tally.entry(outcome_label(outcome)).or_default() += 1;
    }
    acc.traced_campaign_ns += t.exit(campaign_span);

    let mut problems = Vec::new();
    if let Ok(CellReport::Limp(r)) = &untraced.result {
        let untraced_tally: BTreeMap<&'static str, u32> = [
            ("not_activated", r.not_activated),
            ("masked", r.masked),
            ("corrected", r.corrected),
            ("recovered", r.recovered),
            ("detected", r.detected),
            ("quarantined", r.quarantined),
            ("limp_home_miss", r.limp_home_miss),
            ("undetected", r.undetected),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .collect();
        if tally != untraced_tally {
            problems.push(format!(
                "{label}: traced outcomes {tally:?} != untraced {untraced_tally:?}"
            ));
        }
    }

    let mut gpu = Gpu::new(cfg.gpu.clone());
    for (i, &model) in models.iter().enumerate().step_by(DECOMPOSE_EVERY) {
        let component_ns = decompose_mission(
            t,
            acc,
            &mut gpu,
            &pipeline,
            &mode,
            &frame_plan,
            opts,
            spec,
            model,
        )?;
        acc.component_ns += component_ns;
        acc.decomposed_trial_ns += missions[i];
    }
    pipeline_layers(t, acc, &cfg, &pipeline, &mode, &frame_plan, no_bist)?;
    t.exit(cell_span);
    Ok(problems)
}

fn outcome_label(o: PipelineTrialOutcome) -> &'static str {
    match o {
        PipelineTrialOutcome::NotActivated => "not_activated",
        PipelineTrialOutcome::Masked => "masked",
        PipelineTrialOutcome::Corrected => "corrected",
        PipelineTrialOutcome::Recovered => "recovered",
        PipelineTrialOutcome::Detected => "detected",
        PipelineTrialOutcome::Quarantined => "quarantined",
        PipelineTrialOutcome::LimpHomeMiss => "limp_home_miss",
        PipelineTrialOutcome::UndetectedFailure => "undetected",
    }
}

/// Re-runs one mission as its component calls — device reset, the
/// limp-home driver, and the per-stage CPU-reference checks of every
/// completed frame — returning the summed component time in nanoseconds.
#[allow(clippy::too_many_arguments)]
fn decompose_mission(
    t: &mut Tracer,
    acc: &mut Acc,
    gpu: &mut Gpu,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    frame_plan: &PipelinePlan,
    opts: FrameOptions,
    spec: &PipelineCampaignSpec,
    model: FaultModel,
) -> Result<u64, String> {
    let (_, reset_ns) = t.time("sim.reset", || {
        if gpu.reset().is_err() {
            gpu.force_reset();
        }
    });
    acc.reset_us.push(us(reset_ns));
    let counters = InjectionCounters::shared();
    gpu.set_fault_hook(Box::new(FaultInjector::new(model, counters.clone())));
    let (rep, limp_ns) = t.time("pipeline.run_limp_home", || {
        run_limp_home(gpu, pipeline, mode, frame_plan, opts, spec.frames as usize)
    });
    let rep = rep.map_err(err)?;
    let mut component_ns = reset_ns + limp_ns;
    if counters.activated() {
        for run in rep
            .frames
            .iter()
            .filter(|f| f.completed())
            .filter_map(|f| f.run.as_ref())
        {
            let (verified, times) = verify_stages(t, pipeline, run);
            component_ns += times.iter().sum::<u64>();
            if !verified {
                break;
            }
        }
    }
    Ok(component_ns)
}

/// Checks each stage output of `run` against its CPU reference over the
/// inputs that actually flowed, stopping at the first failure. Returns
/// whether every stage verified, and each check's time in nanoseconds.
fn verify_stages(t: &mut Tracer, pipeline: &Pipeline, run: &PipelineRun) -> (bool, Vec<u64>) {
    let mut times = Vec::with_capacity(pipeline.len());
    for (s, stage) in pipeline.stages().iter().enumerate() {
        let inputs: Vec<&[u32]> = stage
            .deps
            .iter()
            .map(|&d| run.outputs[d].as_slice())
            .collect();
        let (ok, ns) = t.time("pipeline.stage_verify", || {
            stage.program.verify(&run.outputs[s], &inputs).is_ok()
        });
        times.push(ns);
        if !ok {
            return (false, times);
        }
    }
    (true, times)
}

/// Fault-free pipeline measurements: frames, per-stage verification,
/// degraded re-planning and the per-SM BIST sweep.
fn pipeline_layers(
    t: &mut Tracer,
    acc: &mut Acc,
    cfg: &CampaignConfig,
    pipeline: &Pipeline,
    mode: &RedundancyMode,
    frame_plan: &PipelinePlan,
    opts: FrameOptions,
) -> Result<(), String> {
    let mut gpu = Gpu::new(cfg.gpu.clone());
    let mut last = None;
    for _ in 0..2 * REPS {
        gpu.reset().map_err(err)?;
        let (run, ns) = t.time("pipeline.frame", || {
            run_pipeline(&mut gpu, pipeline, mode, frame_plan, opts)
        });
        let run = run.map_err(err)?;
        acc.frame_us.push(us(ns));
        acc.frame_ns_total += ns;
        acc.frame_instr += gpu.stats().instructions;
        last = Some(run);
    }
    if let Some(run) = last {
        let (verified, times) = verify_stages(t, pipeline, &run);
        if !verified {
            return Err("a fault-free stage failed verification".to_string());
        }
        acc.stage_verify_us.extend(times.into_iter().map(us));
    }
    for sm in 0..REPS {
        let (p, ns) = t.time("pipeline.plan_degraded", || {
            plan_degraded(&cfg.gpu, &[sm], pipeline, mode)
        });
        p.map_err(err)?;
        acc.replan_ms.push(ms(ns));
    }
    let suspects: Vec<usize> = (0..cfg.gpu.num_sms).collect();
    for _ in 0..REPS {
        gpu.force_reset();
        let (convicted, ns) = t.time("core.sm_bist_sweep", || sm_bist_sweep(&mut gpu, &suspects));
        if !convicted.map_err(err)?.is_empty() {
            return Err("fault-free BIST sweep convicted an SM".to_string());
        }
        acc.sweep_us.push(us(ns));
    }
    Ok(())
}
