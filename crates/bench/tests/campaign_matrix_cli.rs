//! Command-line contract of `campaign_matrix`: `--help` prints the usage
//! and succeeds, and ill-formed list values are rejected with a message
//! naming the flag before any sweep runs.

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
        ["--exec", "serial,,overlapped"],
        ["--core", ""],
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
