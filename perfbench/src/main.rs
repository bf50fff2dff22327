//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dcls-scratch|tmr-checkpoint|pipeline-limp \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats untraced rounds of the workload for `--seconds`,
//! each round drawing its own fault models from the seed, then repeats
//! round 0 to check its reports are bit-identical; it reports the
//! end-to-end metrics as medians over rounds. `--trace 1` runs the traced
//! pass and reports the per-layer metrics. Either way the last stdout line
//! is the JSON result; the line before it holds the host and run facts
//! with the `report_digest` of round 0.

use higpu_perfbench::cells::{
    plan_workload, setup_seconds, Plan, Registries, Round, Workload, WORKERS,
};
use higpu_perfbench::host;
use higpu_perfbench::layers::traced_run;
use higpu_perfbench::trace::median;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up passes per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where traced runs write their Chrome trace.
const TRACE_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_facts(args: &Args, plan: &Plan, digest: u64, undetected: &[(String, u32)]) {
    let undetected: Vec<String> = undetected
        .iter()
        .map(|(cell, n)| {
            format!(
                "{{\"cell\": \"{}\", \"undetected\": {n}}}",
                host::json_escape(cell)
            )
        })
        .collect();
    println!(
        "{{\"facts\": {{\"workload\": \"{}\", \"seed\": {}, \"workers\": {WORKERS}, \"cells\": {}, \
         \"trials_per_cell\": {}, \"nproc\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \
         \"git_commit\": \"{}\", \"report_digest\": \"{digest:016x}\", \
         \"undetected_diverse_cells\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        plan.cells.len(),
        plan.cfg.trials,
        host::nproc(),
        host::json_escape(&host::cpu_model()),
        host::json_escape(host::rustc_version()),
        host::json_escape(&host::git_commit()),
        undetected.join(", "),
    );
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

fn report_problems(plan: &Plan, round: &Round, problems: &mut Vec<String>) {
    problems.extend(round.check(plan));
    for (cell, e) in round.failures(plan) {
        eprintln!("perfbench: cell {cell} failed: {e}");
    }
}

fn end_to_end(args: &Args, plan: &Plan) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setups.push(setup_seconds(plan).map_err(|e| format!("set-up failed: {e}"))?);
    }
    let regs = Registries::new();
    let budget = Duration::from_secs(args.seconds);
    let mut problems = Vec::new();
    // Only round 0 is kept whole; every round is reduced to its counts, so
    // the process's memory does not grow with the number of rounds.
    let mut tallies = Vec::new();
    let mut run_round = |round_plan: &Plan, problems: &mut Vec<String>| {
        let round = Round::run(round_plan, &regs, WORKERS);
        report_problems(round_plan, &round, problems);
        tallies.push(Tally::of(&round));
        round
    };
    let t0 = Instant::now();
    let first = run_round(plan, &mut problems);
    let mut rounds = 1;
    while t0.elapsed() < budget {
        run_round(&plan.for_round(rounds), &mut problems);
        rounds += 1;
    }
    // One more round repeats round 0's inputs: its reports must be
    // bit-identical.
    let digest = first.digest(plan);
    if run_round(plan, &mut problems).digest(plan) != digest {
        problems.push("repeating round 0 changed the report digest".to_string());
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    let undetected = first.undetected_diverse(plan);
    for (cell, n) in &undetected {
        eprintln!("perfbench: {n} undetected failure(s) under a diverse policy in {cell}");
    }
    let rate = |count: fn(&Tally) -> u64| -> f64 {
        median(
            &tallies
                .iter()
                .map(|t| count(t) as f64 / t.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let metrics = [
        ("trials_per_s", rate(|t| t.completed), "1/s"),
        ("activated_trials_per_s", rate(|t| t.activated), "1/s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", host::peak_rss_mib(), "MiB"),
    ];
    let walls: Vec<String> = tallies.iter().map(|t| format!("{:.3}", t.wall_s)).collect();
    eprintln!(
        "perfbench: {} rounds of {} trials, round walls {} s",
        tallies.len(),
        first.attempted(),
        walls.join(" "),
    );
    print_facts(args, plan, digest, &undetected);
    print_result(
        problems.is_empty(),
        tallies.iter().map(|t| t.attempted).sum(),
        tallies.iter().map(|t| t.failed).sum(),
        &metrics,
    );
    Ok(())
}

/// What a `--trace 0` run keeps of each round.
struct Tally {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    completed: u64,
    activated: u64,
}

impl Tally {
    fn of(round: &Round) -> Self {
        Self {
            wall_s: round.wall_s,
            attempted: round.attempted(),
            failed: round.failed(),
            completed: round.completed(),
            activated: round.activated(),
        }
    }
}

fn per_layer(args: &Args, plan: &Plan) {
    let regs = Registries::new();
    let parallel = Round::run(plan, &regs, WORKERS);
    let serial = Round::run(plan, &regs, 1);
    let mut problems = Vec::new();
    report_problems(plan, &parallel, &mut problems);
    report_problems(plan, &serial, &mut problems);
    let digest = parallel.digest(plan);
    if serial.digest(plan) != digest {
        problems.push("report digest differs between 1 and 2 workers".to_string());
    }
    let traced = traced_run(plan, &regs, &parallel, &serial);
    problems.extend(traced.problems.iter().cloned());
    for p in &problems {
        eprintln!("perfbench: {p}");
    }

    let mut self_times: Vec<_> = traced.tracer.self_times().into_iter().collect();
    self_times.sort_by_key(|&(_, (_, self_ns))| std::cmp::Reverse(self_ns));
    eprintln!("perfbench: span self time (total) in ms, largest first:");
    for (name, (total, own)) in self_times.iter().take(12) {
        eprintln!(
            "  {name:40} {:10.1} ({:.1})",
            *own as f64 / 1e6,
            *total as f64 / 1e6
        );
    }
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| {
        std::fs::write(
            &path,
            traced.tracer.to_chrome(args.workload.name()).to_json(),
        )
    });
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {path}",
            traced.tracer.spans().len()
        ),
        Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
    }

    print_facts(args, plan, digest, &parallel.undetected_diverse(plan));
    print_result(
        problems.is_empty(),
        parallel.attempted() + serial.attempted(),
        parallel.failed() + serial.failed(),
        &traced.metrics,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload dcls-scratch|tmr-checkpoint|pipeline-limp \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let plan = plan_workload(args.workload, args.seed, args.workload.trials_per_cell());
    if args.trace {
        per_layer(&args, &plan);
    } else if let Err(e) = end_to_end(&args, &plan) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
