//! Fences for the idle-window skip.
//!
//! Every fault-hook call happens when a warp issues, inside its block's
//! closed interval `[dispatch, last warp exit]` on that block's SM, and a
//! trial's schedule is the fault-free one until its first corruption. So
//! the campaign engines classify a transient, droop or permanent model
//! whose window meets no fault-free block of the SMs it targets as
//! `NotActivated` without simulating it
//! ([`BusyIntervals::proves_not_activated`]). These tests pin that claim:
//!
//! * **drawn models** — over three Rodinia workloads at SRRS@2 and SLICE@3
//!   and every value-corruption family, each drawn model the busy intervals
//!   prove idle is, under full simulation, `NotActivated` and ends at the
//!   fault-free makespan; the checkpointed engine's intervals (from the
//!   reference pass) equal the from-zero engine's (from the dry run), and
//!   its runner skips those models at zero simulated cost. Every family
//!   skips at least one model;
//! * **checkpointed twins** — every trial of Transient and Droop cells over
//!   the same workloads and modes, replayed from the reference pass's
//!   snapshots without the skip, ends with the same outcome and observables
//!   as its full simulation from zero, including on `srad` with every fault
//!   armed in the last 1/16 of the run, where suffix replay skips the most;
//! * **boundaries** — around one block `[a, b]` of a fault-free trace, a
//!   window `[a - d, a)` is skipped, a window covering `a` is not, a window
//!   starting at `b` is not (the interval is closed), and a permanent fault
//!   from `b + 1` is skipped when the SM runs no later block.

use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::{RedundancyMode, RedundantExecutor};
use higpu_faults::campaign::{
    draw_models, dry_run_busy, ftti_deadline, BusyIntervals, CampaignConfig, CampaignRunner,
    CampaignSpec, FaultSpec, TrialOutcome,
};
use higpu_faults::checkpoint::{record_reference, CheckpointConfig};
use higpu_faults::model::FaultModel;
use higpu_faults::workload::{IteratedFma, RedundantWorkload};
use higpu_sim::gpu::Gpu;
use higpu_sim::trace::BlockRecord;
use higpu_workloads::WorkloadRegistry;

const FAULTS: [FaultSpec; 3] = [
    FaultSpec::Transient { duration: 400 },
    FaultSpec::Droop { duration: 400 },
    FaultSpec::Permanent,
];

/// Fully simulates `model` and asserts it is the fault-free run.
fn assert_fault_free(
    runner: &mut CampaignRunner,
    mode: &RedundancyMode,
    workload: &dyn RedundantWorkload,
    model: FaultModel,
    deadline: Option<u64>,
    makespan: u64,
    at: &str,
) {
    let (outcome, obs) = runner
        .run_trial_observed(mode, workload, model, deadline, None)
        .expect("full trial");
    assert_eq!(outcome, TrialOutcome::NotActivated, "{at}: outcome");
    assert_eq!(obs.end_cycle, makespan, "{at}: end cycle");
    assert!(!obs.activated && !obs.deadline_cut, "{at}: {obs:?}");
}

/// Checks one campaign cell from zero and checkpointed; returns how many
/// of its drawn models the busy intervals prove idle.
fn skipped_in_cell(reg: &WorkloadRegistry, spec: &CampaignSpec) -> u32 {
    let cfg = CampaignConfig {
        trials: 8,
        seed: 0x1D1E,
        ..CampaignConfig::default()
    };
    let label = format!(
        "{}/{:?}@{}/{}",
        spec.workload,
        spec.policy,
        spec.replicas,
        spec.fault.label()
    );
    let workload = spec.build_workload(reg).expect("registered workload");
    let mode = spec.mode(cfg.gpu.num_sms).expect("supported mode");
    let busy = dry_run_busy(&cfg, &mode, &workload).expect("dry run");
    let reference = record_reference(&cfg, &mode, &workload, CheckpointConfig::default().stride)
        .expect("reference pass");
    assert_eq!(
        reference.busy(),
        &busy,
        "{label}: the reference pass and the dry run disagree on busy intervals"
    );
    let makespan = busy.makespan();
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let mut full = CampaignRunner::new(&cfg);
    let mut checkpointed = CampaignRunner::new(&cfg);
    let mut skipped = 0;
    for (i, model) in draw_models(&cfg, spec.fault, makespan)
        .into_iter()
        .enumerate()
    {
        if !busy.proves_not_activated(model, deadline) {
            continue;
        }
        skipped += 1;
        let at = format!("{label} trial {i} ({model:?})");
        assert_fault_free(&mut full, &mode, &workload, model, deadline, makespan, &at);
        let before = checkpointed.perf();
        let (outcome, obs) = checkpointed
            .run_trial_observed_with_makespan(
                &mode,
                &workload,
                model,
                deadline,
                Some(&reference),
                makespan,
            )
            .expect("checkpointed trial");
        assert_eq!(outcome, TrialOutcome::NotActivated, "{at}: checkpointed");
        assert_eq!(
            (obs.end_cycle, obs.restores),
            (makespan, 0),
            "{at}: a skipped trial ends at the makespan and restores nothing"
        );
        assert_eq!(
            checkpointed.perf(),
            before,
            "{at}: a skip simulates nothing"
        );
    }
    skipped
}

#[test]
fn drawn_models_proved_idle_are_the_fault_free_run() {
    let mut reg = WorkloadRegistry::new();
    higpu_rodinia::register_all(&mut reg);
    for fault in FAULTS {
        let mut skipped = 0;
        for name in ["hotspot", "pathfinder", "nw"] {
            for (policy, replicas) in [(PolicyKind::Srrs, 2), (PolicyKind::Slice, 3)] {
                let spec = CampaignSpec::new(name, policy, fault).with_replicas(replicas);
                skipped += skipped_in_cell(&reg, &spec);
            }
        }
        assert!(
            skipped > 0,
            "{}: no drawn model was proved idle — the fence is vacuous",
            fault.label()
        );
    }
}

/// Where a cell's faults arm.
#[derive(Debug, Clone, Copy)]
enum Arms {
    /// The campaign engines' own draw.
    Drawn,
    /// Transient SM faults armed in the last 1/16 of the fault-free run.
    LateWindow,
}

impl Arms {
    fn models(self, cfg: &CampaignConfig, fault: FaultSpec, makespan: u64) -> Vec<FaultModel> {
        match self {
            Self::Drawn => draw_models(cfg, fault, makespan),
            Self::LateWindow => {
                let lo = makespan - makespan / 16;
                (0..cfg.trials)
                    .map(|i| FaultModel::TransientSm {
                        sm: i as usize % cfg.gpu.num_sms,
                        start: lo + u64::from(i) % (makespan - lo).max(1),
                        duration: 400,
                        bit: (i % 32) as u8,
                    })
                    .collect()
            }
        }
    }
}

/// Runs every trial of one cell checkpointed and from zero, asserting they
/// end alike; returns how many checkpointed trials restored a snapshot.
fn restored_in_cell(reg: &WorkloadRegistry, spec: &CampaignSpec, arms: Arms) -> u32 {
    let cfg = CampaignConfig {
        trials: 6,
        seed: 0x1E27,
        ..CampaignConfig::default()
    };
    let label = format!(
        "{}/{:?}@{}/{} ({arms:?})",
        spec.workload,
        spec.policy,
        spec.replicas,
        spec.fault.label()
    );
    let workload = spec.build_workload(reg).expect("registered workload");
    let mode = spec.mode(cfg.gpu.num_sms).expect("supported mode");
    let reference = record_reference(&cfg, &mode, &workload, CheckpointConfig::default().stride)
        .expect("reference pass");
    let makespan = reference.makespan();
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let mut checkpointed = CampaignRunner::new(&cfg);
    let mut from_zero = CampaignRunner::new(&cfg);
    let mut restored = 0;
    for (i, model) in arms
        .models(&cfg, spec.fault, makespan)
        .into_iter()
        .enumerate()
    {
        let (outcome, obs) = checkpointed
            .run_trial_observed(&mode, &workload, model, deadline, Some(&reference))
            .expect("checkpointed trial");
        let (want_outcome, want) = from_zero
            .run_trial_observed(&mode, &workload, model, deadline, None)
            .expect("from-zero trial");
        let at = format!("{label} trial {i} ({model:?})");
        assert_eq!(outcome, want_outcome, "{at}: outcome");
        assert_eq!(obs.end_cycle, want.end_cycle, "{at}: end cycle");
        assert_eq!(obs.arm_cycle, want.arm_cycle, "{at}: arm cycle");
        assert_eq!(obs.activated, want.activated, "{at}: activation");
        assert_eq!(obs.deadline_cut, want.deadline_cut, "{at}: deadline cut");
        restored += u32::from(obs.restores > 0);
    }
    restored
}

#[test]
fn checkpointed_trials_match_their_from_zero_twins() {
    let mut reg = WorkloadRegistry::new();
    higpu_rodinia::register_all(&mut reg);
    let mut restored = 0;
    for name in ["hotspot", "pathfinder", "nw"] {
        for (policy, replicas) in [(PolicyKind::Srrs, 2), (PolicyKind::Slice, 3)] {
            for fault in &FAULTS[..2] {
                let spec = CampaignSpec::new(name, policy, *fault).with_replicas(replicas);
                restored += restored_in_cell(&reg, &spec, Arms::Drawn);
            }
        }
    }
    let srad = CampaignSpec::new("srad", PolicyKind::Srrs, FAULTS[0]);
    let late = restored_in_cell(&reg, &srad, Arms::LateWindow);
    assert!(
        restored > 0 && late > 0,
        "no checkpointed trial restored a snapshot ({restored} drawn, {late} late) — the \
         fence is vacuous"
    );
}

/// True if some block of `blocks` on `sm` is resident at a cycle in
/// `[from, to)` (block intervals are closed).
fn resident(blocks: &[BlockRecord], sm: usize, from: u64, to: u64) -> bool {
    blocks
        .iter()
        .any(|b| b.sm == sm && b.start < to && b.end >= from)
}

#[test]
fn window_boundaries_around_a_trace_block() {
    const D: u64 = 50;
    let cfg = CampaignConfig::default();
    let workload = IteratedFma {
        n: 256,
        threads_per_block: 64,
        iters: 8,
    };
    let mode = RedundancyMode::srrs_default(cfg.gpu.num_sms);
    let mut gpu = Gpu::new(cfg.gpu.clone());
    let mut exec = RedundantExecutor::new(&mut gpu, mode.clone()).expect("executor");
    workload.run(&mut exec).expect("fault-free run");
    drop(exec);
    let blocks = gpu.trace().blocks.clone();
    let busy = BusyIntervals::from_trace(gpu.trace());
    let makespan = busy.makespan();
    assert_eq!(makespan, gpu.trace().makespan().expect("finished"));
    let deadline = Some(ftti_deadline(makespan, workload.ftti_multiplier()));
    let mut runner = CampaignRunner::new(&cfg);
    let transient = |sm, start, duration| FaultModel::TransientSm {
        sm,
        start,
        duration,
        bit: 5,
    };

    // A block with nothing on its SM in the D cycles before its dispatch.
    let lead = blocks
        .iter()
        .find(|b| b.start >= D && !resident(&blocks, b.sm, b.start - D, b.start))
        .expect("some block has an idle lead-in");
    let (sm, a, b) = (lead.sm, lead.start, lead.end);
    let before = transient(sm, a - D, D);
    assert!(
        busy.proves_not_activated(before, deadline),
        "[a-d, a) is skipped"
    );
    assert_fault_free(
        &mut runner,
        &mode,
        &workload,
        before,
        deadline,
        makespan,
        "[a-d, a)",
    );
    for covering in [transient(sm, a - D, D + 1), transient(sm, a, 1)] {
        assert!(
            !busy.proves_not_activated(covering, deadline),
            "{covering:?}: a window covering a is not skipped"
        );
    }
    assert!(
        !busy.proves_not_activated(transient(sm, b, D), deadline),
        "a window starting at b is not skipped: the interval end is closed"
    );
    let droop = FaultModel::VoltageDroop {
        start: b,
        duration: D,
        bit: 5,
    };
    assert!(!busy.proves_not_activated(droop, deadline), "{droop:?}");

    // The last block of the SM that finishes first: nothing runs there
    // after it, though the device runs on until the makespan.
    let tail = blocks
        .iter()
        .filter(|blk| !blocks.iter().any(|o| o.sm == blk.sm && o.end > blk.end))
        .min_by_key(|blk| blk.end)
        .expect("blocks ran");
    let (sm, b) = (tail.sm, tail.end);
    assert!(b < makespan, "every SM runs until the makespan");
    let permanent = |from_cycle| FaultModel::PermanentSm {
        sm,
        from_cycle,
        bit: 5,
    };
    assert!(
        !busy.proves_not_activated(permanent(b), deadline),
        "a permanent fault from b is not skipped"
    );
    assert!(
        busy.proves_not_activated(permanent(b + 1), deadline),
        "a permanent fault from b+1 is skipped"
    );
    assert_fault_free(
        &mut runner,
        &mode,
        &workload,
        permanent(b + 1),
        deadline,
        makespan,
        "permanent from b+1",
    );

    // A watchdog tighter than the makespan proves nothing idle.
    assert!(!busy.proves_not_activated(before, Some(makespan - 1)));
    assert!(!busy.proves_not_activated(FaultModel::SchedulerMisroute { shift: 1 }, deadline));
}
