//! Fault-Tolerant Time Interval (FTTI) accounting.
//!
//! ISO 26262 requires that a fault is detected and the item brought back to
//! a safe/operational state within the FTTI. With dual redundant execution
//! the paper's recovery strategy is *re-execution upon mismatch*
//! (Sec. IV-A, footnote 1): detection happens at the host-side compare, and
//! recovery re-runs the redundant computation. This module checks that the
//! worst-case fault handling path fits a given FTTI budget.

/// An FTTI budget in GPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FttiBudget {
    /// Budget in cycles.
    pub cycles: u64,
}

impl FttiBudget {
    /// Builds a budget from milliseconds at a given core clock.
    pub fn from_ms(ms: f64, clock_ghz: f64) -> Self {
        Self {
            cycles: (ms * clock_ghz * 1.0e6) as u64,
        }
    }

    /// The budget expressed in milliseconds at a given core clock.
    pub fn to_ms(self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1.0e6)
    }
}

/// Fixed per-computation slack added to every derived deadline, covering
/// the host-side compare/vote and dispatch latencies regardless of how
/// short the offloaded kernel is.
pub const DEADLINE_FIXED_SLACK: u64 = 10_000;

/// The watchdog deadline of one offloaded computation: its declared FTTI
/// budget multiplier times its fault-free makespan, plus
/// [`DEADLINE_FIXED_SLACK`]. Legitimate corrupted-but-terminating runs
/// (extra divergence, a few perturbed loop trips) stay below it; a runaway
/// loop (counter sign-flip → ~2³¹ iterations) blows it promptly and is
/// classified as *detected* by the deadline monitor. Saturating, so a
/// degenerate multiplier can never wrap.
pub fn deadline(fault_free_makespan: u64, ftti_multiplier: u64) -> u64 {
    fault_free_makespan
        .saturating_mul(ftti_multiplier)
        .saturating_add(DEADLINE_FIXED_SLACK)
}

/// Extra slack budgeted once per *join* stage (a stage consuming two or
/// more upstream outputs): the host-side cost of voting and re-uploading
/// multiple input streams before the join may launch.
pub const JOIN_SLACK: u64 = DEADLINE_FIXED_SLACK;

/// The deadline budget of a multi-stage real-time pipeline: one watchdog
/// budget per stage ([`deadline`] of the stage's fault-free makespan and
/// declared multiplier), and an end-to-end FTTI that is the **critical
/// path** of the stage DAG — the longest dependency chain of stage
/// budgets, plus [`JOIN_SLACK`] at every join on the chain. Independent
/// branches of a frame execute concurrently on disjoint SM partitions, so
/// the end-to-end worst case is governed by the longest chain, not the sum
/// of all stages (the pre-concurrency model, still available as
/// [`PipelineFtti::serial_sum`] for comparison — the critical path is
/// strictly below it for any pipeline with parallel branches).
///
/// The end-to-end slack this derivation leaves above the fault-free
/// makespan is exactly what funds **in-FTTI re-execution recovery**, and
/// the accounting is *path-aware* ([`PipelineFtti::allows_retry`]): a
/// retry on stage *s* must fit the remaining FTTI *minus the longest
/// budget-chain still downstream of s* — so a retry on a non-critical
/// branch may consume only that branch's float, never cycles the critical
/// path still needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineFtti {
    /// Per-stage watchdog budgets, in cycles, in stage order.
    pub stage_budgets: Vec<u64>,
    /// `deps[s]` = the (topologically earlier) stages whose outputs stage
    /// `s` consumes. An empty inner list marks a source stage; a chain
    /// (`deps[s] == [s-1]`) reproduces the serial model exactly.
    pub deps: Vec<Vec<usize>>,
    /// Slack added once per join stage on any path through it.
    pub join_slack: u64,
}

impl PipelineFtti {
    /// Derives the budget set of a DAG-structured pipeline from per-stage
    /// `(fault_free_makespan, ftti_multiplier)` pairs and the stage
    /// dependency lists.
    ///
    /// # Panics
    ///
    /// Panics when `deps` is not topological over the stage count (a
    /// dependency index at or past its own stage) — a wiring bug, not a
    /// runtime condition.
    pub fn from_dag(stages: impl IntoIterator<Item = (u64, u64)>, deps: Vec<Vec<usize>>) -> Self {
        let stage_budgets: Vec<u64> = stages
            .into_iter()
            .map(|(makespan, mult)| deadline(makespan, mult))
            .collect();
        assert_eq!(
            stage_budgets.len(),
            deps.len(),
            "one dependency list per stage"
        );
        for (s, d) in deps.iter().enumerate() {
            assert!(
                d.iter().all(|&i| i < s),
                "stage {s} depends on a non-earlier stage: {d:?}"
            );
        }
        Self {
            stage_budgets,
            deps,
            join_slack: JOIN_SLACK,
        }
    }

    /// The slack charged at stage `s` itself (join stages only).
    fn join(&self, s: usize) -> u64 {
        if self.deps.get(s).is_some_and(|d| d.len() > 1) {
            self.join_slack
        } else {
            0
        }
    }

    /// The critical-path length *through* each stage's completion: the
    /// longest budget-chain from any source up to and including stage `s`.
    fn heads(&self) -> Vec<u64> {
        let mut head = vec![0u64; self.stage_budgets.len()];
        for s in 0..self.stage_budgets.len() {
            let upstream = self.deps[s].iter().map(|&d| head[d]).max().unwrap_or(0);
            head[s] = upstream
                .saturating_add(self.join(s))
                .saturating_add(self.stage_budgets[s]);
        }
        head
    }

    /// The longest budget-chain strictly *downstream* of each stage: the
    /// cycles the frame still needs after `s` delivers, in the worst case.
    /// Zero for sinks; on a chain, the sum of all later budgets.
    pub fn downstream(&self) -> Vec<u64> {
        let mut tail = vec![0u64; self.stage_budgets.len()];
        for s in (0..self.stage_budgets.len()).rev() {
            let own = tail[s]
                .saturating_add(self.join(s))
                .saturating_add(self.stage_budgets[s]);
            for &d in &self.deps[s] {
                tail[d] = tail[d].max(own);
            }
        }
        tail
    }

    /// The end-to-end FTTI: the critical path of the budget DAG (longest
    /// chain of stage budgets, plus [`PipelineFtti::join_slack`] per join
    /// on the chain).
    pub fn end_to_end(&self) -> u64 {
        self.heads().into_iter().max().unwrap_or(0)
    }

    /// The pre-concurrency end-to-end FTTI: the plain sum of the stage
    /// budgets (what a one-stage-at-a-time executor must budget). Kept as
    /// the comparison baseline — for any pipeline with parallel branches
    /// the critical path is strictly below this.
    pub fn serial_sum(&self) -> u64 {
        self.stage_budgets
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The absolute watchdog limit for an attempt of stage `stage`
    /// starting at cycle `start`, in a frame whose clock-zero is
    /// `frame_zero`: the stage budget, capped by the frame's absolute
    /// end-to-end FTTI (a stage may never spend cycles the pipeline no
    /// longer has). Frames may begin at any device cycle — a periodic
    /// host re-enters with the clock running — so the cap is
    /// `frame_zero + end_to_end()`, not the bare FTTI.
    pub fn stage_limit(&self, stage: usize, frame_zero: u64, start: u64) -> u64 {
        start
            .saturating_add(self.stage_budgets[stage])
            .min(frame_zero.saturating_add(self.end_to_end()))
    }

    /// True when, `elapsed` cycles into the frame, re-executing stage
    /// `stage` at a cost of `retry_cycles` (plus the fixed compare slack)
    /// still fits the end-to-end FTTI **with the longest budget-chain
    /// downstream of the stage reserved** — the path-aware gate of in-FTTI
    /// re-execution recovery. A non-critical branch may spend its own
    /// float on retries; cycles the critical path still needs are never
    /// granted.
    pub fn allows_retry(&self, stage: usize, elapsed: u64, retry_cycles: u64) -> bool {
        let reserved = self.downstream()[stage];
        self.end_to_end()
            .saturating_sub(elapsed)
            .saturating_sub(reserved)
            >= retry_cycles.saturating_add(DEADLINE_FIXED_SLACK)
    }

    /// The serial executor's form of [`PipelineFtti::allows_retry`]: the
    /// budget is [`PipelineFtti::serial_sum`] and the reservation is the
    /// **sum** of every later stage's budget — a one-stage-at-a-time
    /// executor still owes all of them, not just the longest chain. On a
    /// chain the two gates coincide (sum of later budgets == longest
    /// downstream chain), so chain pipelines recover identically under
    /// either executor.
    pub fn allows_retry_serial(&self, stage: usize, elapsed: u64, retry_cycles: u64) -> bool {
        let reserved = self.stage_budgets[stage + 1..]
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b));
        self.serial_sum()
            .saturating_sub(elapsed)
            .saturating_sub(reserved)
            >= retry_cycles.saturating_add(DEADLINE_FIXED_SLACK)
    }
}

/// Timing of one redundant execution round and its recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryAnalysis {
    /// Cycles for one full redundant round (copies + both kernels + copy
    /// back), i.e. the detection latency from offload to compare.
    pub round_cycles: u64,
    /// Cycles for the host-side output comparison.
    pub compare_cycles: u64,
    /// Re-execution rounds budgeted for recovery (1 for the paper's
    /// single-fault assumption: one detected error, one re-execution).
    pub recovery_rounds: u32,
}

impl RecoveryAnalysis {
    /// Worst-case fault handling time: the faulty round runs to completion,
    /// is detected at compare, and every budgeted recovery round re-executes
    /// and re-compares.
    pub fn worst_case_cycles(&self) -> u64 {
        let one = self.round_cycles + self.compare_cycles;
        one + u64::from(self.recovery_rounds) * one
    }

    /// True when the worst case fits the budget.
    pub fn fits(&self, budget: FttiBudget) -> bool {
        self.worst_case_cycles() <= budget.cycles
    }

    /// The largest budget slack (cycles left in the FTTI), if it fits.
    pub fn slack(&self, budget: FttiBudget) -> Option<u64> {
        budget.cycles.checked_sub(self.worst_case_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_conversion_roundtrips() {
        let b = FttiBudget::from_ms(10.0, 1.4);
        assert_eq!(b.cycles, 14_000_000);
        assert!((b.to_ms(1.4) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn worst_case_includes_detection_and_recovery() {
        let r = RecoveryAnalysis {
            round_cycles: 1000,
            compare_cycles: 100,
            recovery_rounds: 1,
        };
        assert_eq!(r.worst_case_cycles(), 2200);
    }

    #[test]
    fn fits_and_slack() {
        let r = RecoveryAnalysis {
            round_cycles: 1000,
            compare_cycles: 100,
            recovery_rounds: 1,
        };
        assert!(r.fits(FttiBudget { cycles: 2200 }));
        assert!(!r.fits(FttiBudget { cycles: 2199 }));
        assert_eq!(r.slack(FttiBudget { cycles: 3000 }), Some(800));
        assert_eq!(r.slack(FttiBudget { cycles: 2000 }), None);
    }

    #[test]
    fn deadline_scales_and_saturates() {
        assert_eq!(deadline(0, 8), DEADLINE_FIXED_SLACK);
        assert_eq!(deadline(1_000, 8), 18_000);
        assert_eq!(deadline(1_000, 2), 12_000);
        assert_eq!(deadline(u64::MAX, 3), u64::MAX, "saturates");
    }

    #[test]
    fn chain_pipeline_ftti_degenerates_to_the_stage_budget_sum() {
        let p = PipelineFtti::from_dag(
            [(1_000, 8), (2_000, 4), (500, 8)],
            vec![vec![], vec![0], vec![1]],
        );
        assert_eq!(p.stage_budgets, vec![18_000, 18_000, 14_000]);
        assert_eq!(p.end_to_end(), 50_000, "a chain's critical path is the sum");
        assert_eq!(p.serial_sum(), 50_000);
        assert_eq!(p.downstream(), vec![32_000, 14_000, 0]);
        // Stage limits are absolute cycles, capped by the frame's
        // absolute end-to-end FTTI.
        assert_eq!(p.stage_limit(0, 0, 0), 18_000);
        assert_eq!(p.stage_limit(1, 0, 3_000), 21_000);
        assert_eq!(p.stage_limit(2, 0, 45_000), 50_000, "capped at end-to-end");
        // A frame starting mid-clock caps at frame_zero + FTTI, never at
        // the bare (relative) FTTI.
        assert_eq!(p.stage_limit(0, 100_000, 100_000), 118_000);
        assert_eq!(
            p.stage_limit(2, 100_000, 145_000),
            150_000,
            "capped at the frame's absolute deadline"
        );
        // Retry gate on the sink: no downstream chain to reserve, so the
        // whole remaining FTTI is spendable.
        assert!(p.allows_retry(2, 5_000, 2_000));
        assert!(!p.allows_retry(2, 49_000, 2_000));
        // Exactly-fitting retry is allowed.
        assert!(p.allows_retry(2, 50_000 - 2_000 - DEADLINE_FIXED_SLACK, 2_000));
        assert!(!p.allows_retry(2, 50_000 - 2_000 - DEADLINE_FIXED_SLACK + 1, 2_000));
        // On a chain, earlier stages must additionally reserve the whole
        // downstream budget chain.
        assert!(p.allows_retry(0, 0, 2_000));
        assert!(!p.allows_retry(0, 50_000 - 32_000 - 2_000 - DEADLINE_FIXED_SLACK + 1, 2_000));
        // On a chain the serial gate coincides with the path-aware one.
        assert!(p.allows_retry_serial(0, 0, 2_000));
        for (stage, elapsed) in [(0, 15_999), (0, 16_001), (1, 17_999), (2, 37_999)] {
            assert_eq!(
                p.allows_retry(stage, elapsed, 2_000),
                p.allows_retry_serial(stage, elapsed, 2_000),
                "stage {stage} at {elapsed}"
            );
        }
    }

    #[test]
    fn dag_pipeline_ftti_is_the_critical_path_with_join_slack() {
        // camera ─┐
        //         ├─ fuse ── track        (the sensor_fusion shape)
        // radar ──┘
        let p = PipelineFtti::from_dag(
            [(10_000, 8), (4_000, 8), (1_000, 8), (2_000, 8)],
            vec![vec![], vec![], vec![0, 1], vec![2]],
        );
        // budgets: [90_000, 42_000, 18_000, 26_000] (8x + 10k fixed slack)
        assert_eq!(p.stage_budgets, vec![90_000, 42_000, 18_000, 26_000]);
        // Critical path: camera → fuse → track, plus one JOIN_SLACK at the
        // fuse join = 90_000 + 18_000 + 26_000 + 10_000.
        assert_eq!(p.end_to_end(), 144_000);
        assert!(
            p.end_to_end() < p.serial_sum(),
            "parallel branches put the critical path strictly below the \
             serial sum ({} vs {})",
            p.end_to_end(),
            p.serial_sum()
        );
        assert_eq!(p.serial_sum(), 176_000);
        // Downstream reservations: both sources must reserve the
        // join-slacked fuse→track chain; fuse reserves track; track nothing.
        assert_eq!(p.downstream(), vec![54_000, 54_000, 26_000, 0]);
        // Path-aware retry float: at the same elapsed point, the
        // non-critical radar branch has more spendable float than camera
        // only through its smaller retry cost — but a retry that fits
        // radar's float while respecting the downstream reservation is
        // granted even when the same cycles could not be granted to a
        // retry as large as camera's.
        let elapsed = 40_000;
        assert!(p.allows_retry(1, elapsed, 4_000), "radar refits its float");
        assert!(
            !p.allows_retry(
                0,
                144_000 - 54_000 - 10_000 - DEADLINE_FIXED_SLACK + 1,
                10_000
            ),
            "camera cannot spend cycles the downstream chain still needs"
        );
        // The serial gate budgets against the sum and reserves every later
        // stage's budget: at the elapsed point where the concurrent gate
        // just closed for camera (69_001 elapsed, 10_000 retry), the
        // serial one still has float (176_000 − 69_001 − 86_000 =
        // 20_999 ≥ 20_000) — and it closes exactly 1_000 cycles later.
        assert!(p.allows_retry_serial(0, 70_000 - DEADLINE_FIXED_SLACK + 1, 10_000));
        assert!(p.allows_retry_serial(0, 176_000 - 86_000 - 10_000 - DEADLINE_FIXED_SLACK, 10_000));
        assert!(
            !p.allows_retry_serial(
                0,
                176_000 - 86_000 - 10_000 - DEADLINE_FIXED_SLACK + 1,
                10_000
            ),
            "the serial gate reserves radar's budget too, not just the longest chain"
        );
    }

    #[test]
    #[should_panic(expected = "non-earlier stage")]
    fn non_topological_deps_are_rejected() {
        let _ = PipelineFtti::from_dag([(1_000, 8), (1_000, 8)], vec![vec![1], vec![]]);
    }

    #[test]
    fn tmr_style_zero_recovery() {
        // With forward recovery (e.g. TMR voting) no re-execution is needed.
        let r = RecoveryAnalysis {
            round_cycles: 1000,
            compare_cycles: 100,
            recovery_rounds: 0,
        };
        assert_eq!(r.worst_case_cycles(), 1100);
    }
}
