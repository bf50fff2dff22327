//! The campaign-matrix acceptance fence: fault campaigns over 10+ Rodinia
//! workloads under 2+ scheduler policies via the unified registry, with
//! every parallel report bit-identical to the serial reference engine, and
//! per-trial golden determinism under device reset/reuse.

use higpu_bench::matrix::{full_registry, run_matrix, MatrixConfig};
use higpu_core::policy::PolicyKind;
use higpu_core::redundancy::RedundancyMode;
use higpu_faults::campaign::{
    draw_models, dry_run_makespan, CampaignConfig, CampaignReport, CampaignRunner, FaultSpec,
};
use higpu_faults::workload::CampaignWorkload;
use higpu_pipeline::PipelineCampaignReport;
use higpu_sim::gpu::Gpu;
use higpu_workloads::runner::run_solo;
use higpu_workloads::Scale;

/// The Rodinia subset swept in tier-1 (kept to the fastest campaign-scale
/// benchmarks so the bit-identity check — which runs every campaign twice —
/// stays quick; the `campaign_matrix` binary sweeps all of them).
const TIER1_WORKLOADS: [&str; 11] = [
    "backprop",
    "bfs",
    "dwt2d",
    "gaussian",
    "hotspot",
    "hotspot3D",
    "kmeans",
    "nn",
    "nw",
    "pathfinder",
    "srad",
];

#[test]
fn matrix_over_rodinia_suite_is_bit_identical_to_serial_reference() {
    let reg = full_registry();
    let cfg = MatrixConfig {
        trials: 2,
        workloads: TIER1_WORKLOADS.iter().map(|s| s.to_string()).collect(),
        policies: vec![PolicyKind::Srrs, PolicyKind::Half],
        faults: vec![FaultSpec::Permanent],
        replica_counts: vec![2], // the NMR axis has its own fence below
        check_serial: true,      // asserts parallel == serial for every cell
        ..MatrixConfig::default()
    };
    let (m, _) = run_matrix(&reg, &cfg).expect("sweep");
    assert_eq!(
        m.reports.len(),
        TIER1_WORKLOADS.len() * 2,
        "11 workloads x 2 policies x 1 fault"
    );
    assert_eq!(
        m.undetected_under_diverse_policies(),
        0,
        "diverse policies must not fail silently on any Rodinia workload: {:?}",
        m.reports
    );
    for r in &m.reports {
        assert_eq!(r.replicas, 2);
        assert_eq!(r.corrected, 0, "2 replicas can never outvote: {r:?}");
        assert_eq!(
            r.trials,
            r.not_activated + r.masked + r.detected + r.corrected + r.undetected,
            "every trial classified: {r:?}"
        );
    }
}

/// Pins the sweep's cell order on every axis at once: paper-device workload
/// cells, pipeline cells (overlapped before serial within each policy),
/// wide-device workload cells, then limp-home missions, which skip
/// misroute. Telemetry holds one entry per workload cell, paper then wide.
#[test]
fn matrix_sweeps_every_axis_in_a_fixed_order() {
    let reg = full_registry();
    let cfg = MatrixConfig {
        trials: 1,
        workloads: vec!["hotspot".into(), "nn".into()],
        policies: vec![PolicyKind::Srrs, PolicyKind::Half],
        faults: vec![FaultSpec::Transient { duration: 400 }, FaultSpec::Misroute],
        replica_counts: vec![2, 3],
        wide_replica_counts: vec![5],
        pipelines: vec!["sensor_fusion".into()],
        pipeline_trials: Some(1),
        limp_frames: 2,
        ..MatrixConfig::default()
    };
    let (m, telemetry) = run_matrix(&reg, &cfg).expect("sweep");
    let cell = |w: &str, p: &str, n: u8, f: &str| format!("{w} {p} N={n} {f}");
    let workload = |r: &CampaignReport| cell(&r.workload, &r.policy, r.replicas, r.fault);
    let pipeline = |r: &PipelineCampaignReport| {
        let c = cell(&r.pipeline, &r.policy, r.replicas, r.fault);
        format!("{c} {} x{}", r.exec, r.frames)
    };
    let faults = ["transient-sm", "scheduler-misroute"];
    // HALF is realized as SLICE at three replicas.
    let policies = [(2, ["SRRS", "HALF"]), (3, ["SRRS", "SLICE"])];
    let (mut paper, mut wide, mut pipelines) = (Vec::new(), Vec::new(), Vec::new());
    for w in ["hotspot", "nn"] {
        for (n, ps) in policies {
            for p in ps {
                paper.extend(faults.map(|f| cell(w, p, n, f)));
            }
        }
        for p in ["SRRS", "SLICE"] {
            wide.extend(faults.map(|f| cell(w, p, 5, f)));
        }
    }
    for (n, ps) in policies {
        for p in ps {
            for exec in ["overlapped", "serial"] {
                let c = |f| format!("{} {exec} x1", cell("sensor_fusion", p, n, f));
                pipelines.extend(faults.map(c));
            }
        }
    }
    assert_eq!(m.reports.iter().map(workload).collect::<Vec<_>>(), paper);
    assert_eq!(
        m.wide_reports.iter().map(workload).collect::<Vec<_>>(),
        wide
    );
    assert_eq!(
        m.pipeline_reports.iter().map(pipeline).collect::<Vec<_>>(),
        pipelines
    );
    assert_eq!(
        m.limp_reports.iter().map(pipeline).collect::<Vec<_>>(),
        ["sensor_fusion SRRS N=2 transient-sm overlapped x2"]
    );
    let telemetry_cells: Vec<String> = telemetry
        .cells
        .iter()
        .map(|c| {
            let id = cell(&c.workload, &c.policy, c.replicas, &c.fault);
            format!("{id} {}", c.device)
        })
        .collect();
    let expected: Vec<String> = paper
        .iter()
        .map(|c| format!("{c} paper"))
        .chain(wide.iter().map(|c| format!("{c} wide")))
        .collect();
    assert_eq!(telemetry_cells, expected);
}

/// Regression for `campaign_matrix --workloads kmeans --trials 40 --seed 1`,
/// which used to abort: a fault-corrupted cluster id read back from the
/// device indexed the host's centroid update out of bounds and panicked a
/// campaign worker. The host now rejects the id as implausible, which the
/// campaign counts as a detection.
#[test]
fn kmeans_corrupted_cluster_ids_are_detected_not_panics() {
    let reg = full_registry();
    let cfg = MatrixConfig {
        trials: 40,
        seed: 1,
        workloads: vec!["kmeans".to_string()],
        ..MatrixConfig::default()
    };
    let (m, _) = run_matrix(&reg, &cfg).expect("the sweep completes");
    assert!(!m.reports.is_empty());
    for r in m.reports.iter().chain(&m.wide_reports) {
        assert_eq!(
            r.trials,
            r.not_activated + r.masked + r.detected + r.corrected + r.undetected,
            "every trial classified: {r:?}"
        );
    }
}

/// The NMR bit-identity fence: campaigns at three replicas, across six
/// Rodinia workloads under both N-capable diverse policies (SRRS and
/// SLICE), must produce parallel reports bit-identical to the serial
/// reference engine at 1, 2 and 8 workers — and TMR must correct at least
/// one permanent fault somewhere in the sweep.
#[test]
fn tmr_campaigns_are_bit_identical_to_serial_across_worker_counts() {
    use higpu_faults::campaign::{
        run_campaign_selected_serial, run_campaign_selected_with_telemetry, CampaignSpec,
    };

    let reg = full_registry();
    let workloads = ["backprop", "bfs", "hotspot", "kmeans", "nn", "pathfinder"];
    let mut corrected_total = 0;
    for name in workloads {
        for policy in [PolicyKind::Srrs, PolicyKind::Slice] {
            let spec = CampaignSpec::new(name, policy, FaultSpec::Permanent).with_replicas(3);
            let mut cfg = CampaignConfig {
                trials: 2,
                seed: 0x0DD5EED,
                ..CampaignConfig::default()
            };
            let serial = run_campaign_selected_serial(&cfg, &reg, &spec)
                .unwrap_or_else(|e| panic!("{name}/{policy:?}: serial: {e}"));
            assert_eq!(serial.replicas, 3);
            for workers in [1usize, 2, 8] {
                cfg.workers = workers;
                let parallel = run_campaign_selected_with_telemetry(&cfg, &reg, &spec)
                    .unwrap_or_else(|e| panic!("{name}/{policy:?}@{workers}: {e}"))
                    .0;
                assert_eq!(
                    parallel, serial,
                    "{name}/{policy:?}: report must not depend on workers={workers}"
                );
            }
            assert_eq!(
                serial.undetected, 0,
                "{name}/{policy:?}: diversity must hold at 3 replicas: {serial:?}"
            );
            corrected_total += serial.corrected;
        }
    }
    assert!(
        corrected_total > 0,
        "TMR must outvote at least one permanent fault across the sweep"
    );
}

/// The NMR classification distinction, end to end through the registry: a
/// deterministic permanent fault confined to one SM strikes exactly one
/// replica per block under SRRS. Two replicas can only *detect* the dissent
/// (re-execute); three replicas outvote it and classify *corrected*.
#[test]
fn single_replica_fault_is_corrected_under_tmr_but_detected_under_dcls() {
    use higpu::faults::model::FaultModel;
    use higpu_faults::campaign::TrialOutcome;

    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 1,
        seed: 7,
        ..CampaignConfig::default()
    };
    let wl =
        CampaignWorkload::from_registry(&reg, "iterated_fma", Scale::Campaign).expect("registered");
    let fault = FaultModel::PermanentSm {
        sm: 2,
        from_cycle: 0,
        bit: 9,
    };

    let dcls = CampaignRunner::new(&cfg)
        .run_trial_observed(&RedundancyMode::srrs_default(6), &wl, fault, None, None)
        .expect("dcls trial")
        .0;
    assert_eq!(
        dcls,
        TrialOutcome::Detected,
        "2 replicas see the dissent but cannot outvote it"
    );

    let tmr = CampaignRunner::new(&cfg)
        .run_trial_observed(&RedundancyMode::srrs_spread(6, 3), &wl, fault, None, None)
        .expect("tmr trial")
        .0;
    assert_eq!(
        tmr,
        TrialOutcome::Corrected,
        "under SRRS each block passes the faulty SM in exactly one replica; \
         the 2-of-3 vote restores the clean words"
    );

    // The same holds for the concurrent SLICE policy: the faulty SM lies in
    // exactly one of the three slices.
    let slice = CampaignRunner::new(&cfg)
        .run_trial_observed(&RedundancyMode::slice(3), &wl, fault, None, None)
        .expect("slice trial")
        .0;
    assert_eq!(slice, TrialOutcome::Corrected);
}

/// A *finding* of the honest (voter-observables-only) classifier, pinned
/// as documentation: a voltage droop lasting longer than the inter-replica
/// start skew can corrupt the same computation **identically in two of
/// three concurrent SLICE replicas** — the corrupted pair forms a clean
/// strict majority, outvotes the clean replica, and the deployed voter
/// continues silently with wrong data (an undetected failure). The
/// serialized SRRS mode at the same replica count disjoints the replicas
/// in time, so the identical same-draw campaign stays fully covered —
/// the paper's Sec. IV-B2 temporal-diversity argument, quantified at N=3.
/// (The pre-NMR oracle classification would have hidden this as
/// "detected"; see `TrialOutcome::UndetectedFailure`.)
#[test]
fn long_droops_can_defeat_concurrent_slice_tmr_but_not_serialized_srrs() {
    use higpu_faults::campaign::{run_campaign_selected_with_telemetry, CampaignSpec};

    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 4,
        seed: 0x0DD5EED,
        ..CampaignConfig::default()
    };
    let droop = FaultSpec::Droop { duration: 400 };

    let slice = run_campaign_selected_with_telemetry(
        &cfg,
        &reg,
        &CampaignSpec::new("nw", PolicyKind::Slice, droop).with_replicas(3),
    )
    .expect("slice campaign")
    .0;
    assert!(
        slice.undetected > 0,
        "this droop is known to align two concurrent slice replicas: {slice:?}"
    );

    let srrs = run_campaign_selected_with_telemetry(
        &cfg,
        &reg,
        &CampaignSpec::new("nw", PolicyKind::Srrs, droop).with_replicas(3),
    )
    .expect("srrs campaign")
    .0;
    assert_eq!(
        srrs.undetected, 0,
        "serialized replicas are disjoint in time; the same draws stay covered: {srrs:?}"
    );
    assert!(
        srrs.corrected > 0,
        "and a minority-replica droop is outvoted, not just detected: {srrs:?}"
    );
}

/// The droop-aware start skew closes the `nw × droop` window: the same
/// campaign draws that defeat plain concurrent SLICE@3 (the pinned
/// vulnerability above) are fully covered under SLICE+SKEW, because
/// replica *r* is dispatched `r × (WORST_CASE_CCF_CYCLES + 1)` cycles
/// late — a droop can still corrupt several replicas, but never the *same
/// computation point* in two of them, so the corrupted values differ and
/// can never form a clean wrong majority.
#[test]
fn droop_aware_start_skew_defeats_the_slice_droop_vulnerability() {
    use higpu_faults::campaign::{run_campaign_selected_with_telemetry, CampaignSpec};

    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 4,
        seed: 0x0DD5EED,
        ..CampaignConfig::default()
    };
    let droop = FaultSpec::Droop { duration: 400 };

    let skewed = run_campaign_selected_with_telemetry(
        &cfg,
        &reg,
        &CampaignSpec::new("nw", PolicyKind::SliceSkewed, droop).with_replicas(3),
    )
    .expect("skewed slice campaign")
    .0;
    assert_eq!(
        skewed.undetected, 0,
        "a skew larger than the droop leaves nothing silent: {skewed:?}"
    );
    assert_eq!(skewed.policy, "SLICE+SKEW");
    // The unskewed path stays vulnerable (the pinned regression above) —
    // this is the measured delta of the mitigation on the identical draws.
    let plain = run_campaign_selected_with_telemetry(
        &cfg,
        &reg,
        &CampaignSpec::new("nw", PolicyKind::Slice, droop).with_replicas(3),
    )
    .expect("plain slice campaign")
    .0;
    assert!(
        plain.undetected > 0,
        "unskewed fence still holds: {plain:?}"
    );
}

/// The N-replica uncontrolled baseline: the frontier's GPGPU-SIM column now
/// exists at N = 3. COTS placement makes no diversity guarantee — replicas
/// of the same block frequently share an SM, so a permanent single-SM
/// fault corrupts a majority (often all) of the copies identically and the
/// vote accepts the wrong value. Occupancy dynamics *occasionally* scatter
/// a block by luck (a stray correction), but undetected failures persist
/// at every replica count: more replicas without diversity buy no
/// guarantee — that is the point of the baseline column.
#[test]
fn uncontrolled_baseline_stays_defeated_at_three_replicas() {
    use higpu_faults::campaign::{run_campaign_selected_with_telemetry, CampaignSpec};

    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 8,
        seed: 42,
        ..CampaignConfig::default()
    };
    let spec = CampaignSpec::new("iterated_fma", PolicyKind::Default, FaultSpec::Permanent)
        .with_replicas(3);
    let r = run_campaign_selected_with_telemetry(&cfg, &reg, &spec)
        .expect("campaign")
        .0;
    assert_eq!(r.replicas, 3);
    assert_eq!(r.policy, "GPGPU-SIM");
    assert!(
        r.undetected > 0,
        "shared placement corrupts replica majorities identically: {r:?}"
    );
    // And the diverse policies stay clean on the same draws at N = 3 —
    // the baseline column exists to make this delta measurable.
    let srrs = run_campaign_selected_with_telemetry(
        &cfg,
        &reg,
        &CampaignSpec::new("iterated_fma", PolicyKind::Srrs, FaultSpec::Permanent).with_replicas(3),
    )
    .expect("srrs campaign")
    .0;
    assert_eq!(srrs.undetected, 0, "{srrs:?}");
}

/// Regression fence for the campaign watchdog: this exact configuration
/// (leukocyte × voltage-droop × SRRS at the default matrix seed) used to
/// livelock — a droop flipping the sign bit of a loop counter turned a
/// fixed 3×… pass loop into a ~2³¹-iteration runaway. The watchdog deadline
/// now classifies such trials as detected (the DCLS host's deadline
/// monitor), so the campaign completes promptly and stays bit-identical to
/// the serial reference.
#[test]
fn runaway_corrupted_loops_are_detected_by_the_watchdog_not_simulated() {
    let reg = full_registry();
    let cfg = MatrixConfig {
        trials: 3,
        workloads: vec!["leukocyte".into()],
        policies: vec![PolicyKind::Srrs],
        faults: vec![FaultSpec::Droop { duration: 400 }],
        replica_counts: vec![2],
        check_serial: true,
        ..MatrixConfig::default()
    };
    let (m, _) = run_matrix(&reg, &cfg).expect("sweep completes");
    let r = &m.reports[0];
    assert_eq!(r.trials, 3);
    assert_eq!(
        r.undetected, 0,
        "temporal diversity + deadline monitor leave nothing silent: {r:?}"
    );
}

/// Golden determinism under campaign reset/reuse for three ported Rodinia
/// workloads: a trial on a reused (reset) device must classify exactly as
/// on a fresh device, and fault-free solo outputs must be bitwise stable
/// across reset.
#[test]
fn rodinia_trials_are_deterministic_under_device_reuse() {
    let reg = full_registry();
    let cfg = CampaignConfig {
        trials: 4,
        seed: 0x60D1DE7,
        ..CampaignConfig::default()
    };
    let mode = RedundancyMode::srrs_default(cfg.gpu.num_sms);
    for name in ["bfs", "hotspot", "nn"] {
        let wl = CampaignWorkload::from_registry(&reg, name, Scale::Campaign).expect("registered");
        let window = dry_run_makespan(&cfg, &mode, &wl)
            .unwrap_or_else(|e| panic!("{name}: dry run failed: {e}"));
        let models = draw_models(&cfg, FaultSpec::Transient { duration: 400 }, window);
        let mut runner = CampaignRunner::new(&cfg);
        for (i, &model) in models.iter().enumerate() {
            let reused = runner
                .run_trial_observed(&mode, &wl, model, None, None)
                .unwrap_or_else(|e| panic!("{name}: reused trial {i} failed: {e}"));
            let fresh = CampaignRunner::new(&cfg)
                .run_trial_observed(&mode, &wl, model, None, None)
                .unwrap_or_else(|e| panic!("{name}: fresh trial {i} failed: {e}"));
            assert_eq!(
                reused, fresh,
                "{name}: trial {i} must not see residue from earlier trials"
            );
        }

        // Fault-free golden stability across reset on one shared device.
        let workload = reg.build(name, Scale::Campaign).expect("registered");
        let mut gpu = Gpu::new(cfg.gpu.clone());
        let first = run_solo(&mut gpu, &*workload).expect("first solo run");
        gpu.reset().expect("idle");
        let second = run_solo(&mut gpu, &*workload).expect("second solo run");
        assert_eq!(first, second, "{name}: reset device must reproduce bits");
        workload.verify(&first).expect("matches CPU reference");
    }
}
