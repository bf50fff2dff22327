//! Diversity verification: the evidence side of the safety argument.
//!
//! [`analyze`] consumes an execution trace and checks, for every pair of
//! redundant thread blocks (same block index, same redundancy group,
//! different replicas), that:
//!
//! * **spatial diversity** — the two executions used different SMs, so a
//!   permanent fault in one SM cannot corrupt both copies; and
//! * **temporal diversity** — the two execution intervals are disjoint
//!   (optionally separated by a minimum slack), so a transient common-cause
//!   fault (e.g. a voltage droop striking all SMs at one instant) cannot hit
//!   the same computation in both copies.
//!
//! A clean [`DiversityReport`] is exactly the independence evidence ISO 26262
//! ASIL decomposition requires ([`crate::asil::Independence`]).

use crate::asil::Independence;
use higpu_sim::kernel::KernelId;
use higpu_sim::trace::{BlockRecord, ExecutionTrace};
use std::collections::BTreeMap;

/// Requirements the analyzer checks.
///
/// Temporal diversity is satisfied by **either** of two mechanisms, matching
/// the two policies' arguments:
///
/// * *disjoint execution* (SRRS): the block intervals do not overlap, with
///   at least `min_slack` cycles between them; or
/// * *staggered execution* (HALF): the intervals overlap, but the start
///   times differ by at least `min_start_skew` cycles. Because the replicas
///   progress through identical instruction sequences and shared-resource
///   arbitration preserves arrival order (paper Sec. IV-B2), a start skew ≥
///   the longest transient-CCF duration guarantees the *same computation*
///   never executes in both replicas simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiversityRequirements {
    /// Minimum cycles required between disjoint executions (0 = mere
    /// disjointness).
    pub min_slack: u64,
    /// Minimum start-time stagger accepted for overlapping executions.
    pub min_start_skew: u64,
}

impl Default for DiversityRequirements {
    fn default() -> Self {
        Self {
            min_slack: 0,
            min_start_skew: 1,
        }
    }
}

impl DiversityRequirements {
    /// Requirements sized to a worst-case transient CCF of `droop` cycles:
    /// overlapping executions must be staggered by more than the droop
    /// duration, and disjoint executions get no extra slack.
    ///
    /// That is **not** sufficient against droops. The check sees only the
    /// fault-free schedule, and a droop that corrupts control flow can
    /// shorten replicas until two serialized ones fit inside one droop
    /// window and share a wrong output that outvotes the healthy replica.
    /// Campaigns show it under SRRS at N = 3 (lud, nw); the README's
    /// "Where the droop claim fails" entry gives the reproducing sweep.
    pub fn for_droop_duration(droop: u64) -> Self {
        Self {
            min_slack: 0,
            min_start_skew: droop + 1,
        }
    }
}

/// Diversity verdict for one redundant block pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDiversity {
    /// Redundancy group the pair belongs to.
    pub group: u32,
    /// Block index within the grid.
    pub block: u32,
    /// (replica, SM, start, end) of the first execution.
    pub a: (u8, usize, u64, u64),
    /// (replica, SM, start, end) of the second execution.
    pub b: (u8, usize, u64, u64),
    /// Different SMs?
    pub spatial_ok: bool,
    /// Disjoint in time with the required slack?
    pub temporal_ok: bool,
    /// Temporal gap between the executions (0 when overlapping).
    pub slack: u64,
}

/// Aggregate diversity analysis of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiversityReport {
    /// Per-pair verdicts (only pairs with violations are retained verbatim;
    /// clean pairs are summarized by the counters).
    pub violations: Vec<PairDiversity>,
    /// Redundancy groups analyzed.
    pub groups: usize,
    /// Redundant block pairs checked.
    pub pairs_checked: usize,
    /// Pairs executing on the same SM.
    pub spatial_violations: usize,
    /// Pairs with overlapping execution or insufficient slack.
    pub temporal_violations: usize,
    /// Blocks that appeared in one replica but not its peer (incomplete
    /// redundancy — always a violation).
    pub unmatched_blocks: usize,
    /// Smallest observed inter-replica slack across clean pairs.
    pub min_slack_observed: Option<u64>,
}

impl DiversityReport {
    /// True when every redundant computation was spatially and temporally
    /// diverse — the property SRRS and HALF guarantee by construction.
    pub fn is_diverse(&self) -> bool {
        self.pairs_checked > 0
            && self.spatial_violations == 0
            && self.temporal_violations == 0
            && self.unmatched_blocks == 0
    }

    /// Converts the report into ASIL-decomposition independence evidence.
    pub fn independence(&self) -> Independence {
        Independence::DiverseGpuScheduling {
            pairs_checked: self.pairs_checked,
            violations: self.spatial_violations + self.temporal_violations + self.unmatched_blocks,
        }
    }
}

fn pair_key(r: &BlockRecord) -> (u32, u64, u64) {
    (r.block, r.start, r.end)
}

/// Analyzes `trace` for redundant-execution diversity.
///
/// Kernels are matched through their [`higpu_sim::kernel::RedundantTag`]:
/// kernels sharing a `group` are replicas of one logical computation, and
/// block *i* of each replica must be pairwise diverse. Replica groups with
/// more than two members (e.g. TMR) are checked pairwise.
pub fn analyze(trace: &ExecutionTrace, req: DiversityRequirements) -> DiversityReport {
    // group → replica → kernel id
    let mut groups: BTreeMap<u32, Vec<(u8, KernelId)>> = BTreeMap::new();
    for k in &trace.kernels {
        if let Some(tag) = k.attrs.redundant {
            groups
                .entry(tag.group)
                .or_default()
                .push((tag.replica, k.id));
        }
    }

    let mut report = DiversityReport {
        groups: groups.len(),
        ..Default::default()
    };

    for (group, members) in groups {
        // block index → records per replica
        let mut by_replica: Vec<(u8, BTreeMap<u32, &BlockRecord>)> = Vec::new();
        for (replica, kid) in &members {
            let mut blocks = BTreeMap::new();
            for b in trace.blocks_of(*kid) {
                blocks.insert(b.block, b);
            }
            by_replica.push((*replica, blocks));
        }
        // pairwise across replicas
        for i in 0..by_replica.len() {
            for j in i + 1..by_replica.len() {
                let (ra, blocks_a) = (&by_replica[i].0, &by_replica[i].1);
                let (rb, blocks_b) = (&by_replica[j].0, &by_replica[j].1);
                for (block, rec_a) in blocks_a {
                    let Some(rec_b) = blocks_b.get(block) else {
                        report.unmatched_blocks += 1;
                        continue;
                    };
                    report.pairs_checked += 1;
                    let spatial_ok = rec_a.sm != rec_b.sm;
                    let overlap = rec_a.overlaps(rec_b);
                    let slack = if overlap {
                        rec_a.start.abs_diff(rec_b.start)
                    } else if rec_a.end <= rec_b.start {
                        rec_b.start - rec_a.end
                    } else {
                        rec_a.start - rec_b.end
                    };
                    let temporal_ok = if overlap {
                        slack >= req.min_start_skew
                    } else {
                        slack >= req.min_slack
                    };
                    if !spatial_ok {
                        report.spatial_violations += 1;
                    }
                    if !temporal_ok {
                        report.temporal_violations += 1;
                    }
                    if spatial_ok && temporal_ok {
                        report.min_slack_observed =
                            Some(report.min_slack_observed.map_or(slack, |m| m.min(slack)));
                    } else {
                        let (ka, kb) = (pair_key(rec_a), pair_key(rec_b));
                        report.violations.push(PairDiversity {
                            group,
                            block: *block,
                            a: (*ra, rec_a.sm, ka.1, ka.2),
                            b: (*rb, rec_b.sm, kb.1, kb.2),
                            spatial_ok,
                            temporal_ok,
                            slack,
                        });
                    }
                }
                // Blocks present only in replica j.
                for block in blocks_b.keys() {
                    if !blocks_a.contains_key(block) {
                        report.unmatched_blocks += 1;
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::kernel::{KernelId, LaunchAttrs, RedundantTag};
    use higpu_sim::trace::{ExecutionTrace, KernelRecord};

    fn kernel_rec(id: u64, group: u32, replica: u8) -> KernelRecord {
        KernelRecord {
            id: KernelId(id),
            program: "k".into(),
            attrs: LaunchAttrs {
                redundant: Some(RedundantTag { group, replica }),
                ..Default::default()
            },
            launched: 0,
            arrival: 0,
            first_dispatch: Some(0),
            completion: Some(100),
            blocks: 1,
            footprint: higpu_sim::kernel::BlockFootprint::default(),
        }
    }

    fn block_rec(kernel: u64, block: u32, sm: usize, start: u64, end: u64) -> BlockRecord {
        BlockRecord {
            kernel: KernelId(kernel),
            block,
            sm,
            start,
            end,
        }
    }

    #[test]
    fn clean_dual_redundancy_is_diverse() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 0, 0, 50));
        t.blocks.push(block_rec(1, 0, 3, 60, 110));
        let r = analyze(&t, DiversityRequirements::default());
        assert!(r.is_diverse());
        assert_eq!(r.pairs_checked, 1);
        assert_eq!(r.min_slack_observed, Some(10));
        assert!(r.independence().is_sufficient());
    }

    #[test]
    fn same_sm_is_spatial_violation() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 2, 0, 50));
        t.blocks.push(block_rec(1, 0, 2, 60, 110));
        let r = analyze(&t, DiversityRequirements::default());
        assert!(!r.is_diverse());
        assert_eq!(r.spatial_violations, 1);
        assert_eq!(r.temporal_violations, 0);
        assert_eq!(r.violations.len(), 1);
        assert!(!r.independence().is_sufficient());
    }

    #[test]
    fn simultaneous_start_is_temporal_violation() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 0, 0, 50));
        t.blocks.push(block_rec(1, 0, 3, 0, 50));
        let r = analyze(&t, DiversityRequirements::default());
        assert_eq!(r.temporal_violations, 1);
        assert_eq!(r.spatial_violations, 0);
        assert!(!r.is_diverse());
    }

    #[test]
    fn staggered_overlap_satisfies_half_style_diversity() {
        // HALF: replicas overlap but start a dispatch gap apart.
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 0, 0, 100));
        t.blocks.push(block_rec(1, 0, 3, 40, 140));
        let r = analyze(&t, DiversityRequirements::default());
        assert!(r.is_diverse(), "{r:?}");
        // A droop longer than the 40-cycle skew defeats the stagger.
        let strict = analyze(&t, DiversityRequirements::for_droop_duration(50));
        assert_eq!(strict.temporal_violations, 1);
        // A droop shorter than the skew is tolerated.
        let ok = analyze(&t, DiversityRequirements::for_droop_duration(30));
        assert!(ok.is_diverse());
    }

    #[test]
    fn min_slack_requirement_is_enforced() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 0, 0, 50));
        t.blocks.push(block_rec(1, 0, 3, 55, 100));
        let strict = analyze(
            &t,
            DiversityRequirements {
                min_slack: 10,
                ..Default::default()
            },
        );
        assert_eq!(strict.temporal_violations, 1, "5 cycles < 10 required");
        let loose = analyze(
            &t,
            DiversityRequirements {
                min_slack: 5,
                ..Default::default()
            },
        );
        assert!(loose.is_diverse());
    }

    #[test]
    fn missing_replica_block_is_flagged() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(kernel_rec(0, 1, 0));
        t.kernels.push(kernel_rec(1, 1, 1));
        t.blocks.push(block_rec(0, 0, 0, 0, 50));
        t.blocks.push(block_rec(0, 1, 1, 0, 50));
        t.blocks.push(block_rec(1, 0, 3, 60, 110));
        let r = analyze(&t, DiversityRequirements::default());
        assert_eq!(r.unmatched_blocks, 1);
        assert!(!r.is_diverse());
    }

    #[test]
    fn triple_redundancy_checked_pairwise() {
        let mut t = ExecutionTrace::new();
        for replica in 0..3u8 {
            t.kernels.push(kernel_rec(replica as u64, 1, replica));
            t.blocks.push(block_rec(
                replica as u64,
                0,
                replica as usize * 2,
                replica as u64 * 100,
                replica as u64 * 100 + 50,
            ));
        }
        let r = analyze(&t, DiversityRequirements::default());
        assert_eq!(r.pairs_checked, 3, "3 choose 2 pairs");
        assert!(r.is_diverse());
    }

    #[test]
    fn non_redundant_kernels_are_ignored() {
        let mut t = ExecutionTrace::new();
        t.kernels.push(KernelRecord {
            id: KernelId(0),
            program: "solo".into(),
            attrs: LaunchAttrs::default(),
            launched: 0,
            arrival: 0,
            first_dispatch: Some(0),
            completion: Some(10),
            blocks: 1,
            footprint: higpu_sim::kernel::BlockFootprint::default(),
        });
        t.blocks.push(block_rec(0, 0, 0, 0, 10));
        let r = analyze(&t, DiversityRequirements::default());
        assert_eq!(r.groups, 0);
        assert_eq!(r.pairs_checked, 0);
        assert!(!r.is_diverse(), "no evidence without redundant pairs");
    }

    #[test]
    fn empty_report_is_not_evidence() {
        let r = DiversityReport::default();
        assert!(!r.is_diverse());
        assert!(!r.independence().is_sufficient());
    }
}
