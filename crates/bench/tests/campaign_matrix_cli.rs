//! Command-line contract of `campaign_matrix`: `--help` prints the usage
//! and succeeds, ill-formed list values are rejected with a message naming
//! the flag before any sweep runs, and `--assert-srrs-clean` refuses to
//! pass on a sweep whose fenced cells activated no fault.

use std::process::{Command, Output};

fn campaign_matrix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign_matrix"))
        .args(args)
        .output()
        .expect("campaign_matrix runs")
}

#[test]
fn help_prints_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = campaign_matrix(&[flag]);
        assert!(out.status.success(), "{flag}: {out:?}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage: campaign_matrix"), "{usage}");
        assert!(usage.contains("--workloads"), "{usage}");
    }
}

#[test]
fn empty_and_ill_formed_list_values_are_rejected() {
    for args in [
        ["--workloads", ""],
        ["--replicas", "2,,3"],
        ["--replicas", "2,x"],
        ["--policies", "srrs,"],
        ["--faults", ",droop"],
        ["--pipelines", ""],
        ["--wide-replicas", "5,,7"],
    ] {
        let out = campaign_matrix(&args);
        assert!(!out.status.success(), "{args:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(args[0]),
            "{args:?}: message must name the flag: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: a sweep ran");
    }
}

#[test]
fn srrs_fence_without_an_activated_trial_is_vacuous() {
    let fence = |extra: &[&str]| {
        let mut args = vec![
            "--workloads",
            "hotspot",
            "--policies",
            "srrs",
            "--faults",
            "transient",
            "--replicas",
            "2",
            "--assert-srrs-clean",
            "--quiet",
        ];
        args.extend_from_slice(extra);
        campaign_matrix(&args)
    };
    for extra in [
        // No trial at all.
        &["--trials", "0", "--wide-replicas", ""][..],
        // One trial, whose fault never activates at this seed.
        &["--trials", "1", "--seed", "0", "--wide-replicas", ""],
        // An activated SRRS trial, but no *activated* trial in the wide
        // cells.
        &["--trials", "1", "--seed", "4", "--wide-replicas", "5"],
    ] {
        let out = fence(extra);
        assert!(!out.status.success(), "{extra:?} passed the fence");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("fence vacuous"), "{extra:?}: {err}");
    }
    // The control: the seed-4 trial activates, so the same cell is evidence.
    let out = fence(&["--trials", "1", "--seed", "4", "--wide-replicas", ""]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("SRRS clean at 2 replicas"), "{err}");
}
