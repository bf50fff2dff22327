//! `streamcluster` — online clustering (Rodinia).
//!
//! The `pgain`-style kernel evaluates, for every point, the distance to a
//! set of candidate centers (the dominant computation of streamcluster) and
//! records the best candidate; the host then swaps candidate sets and
//! iterates. Long, kernel-dominated execution — the other benchmark the
//! paper singles out in Fig. 5 as visibly hurt by redundancy.

use crate::data;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    f32s_to_words, register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload,
    WorkloadRegistry,
};
use std::sync::Arc;

/// Streamcluster benchmark.
#[derive(Debug, Clone)]
pub struct Streamcluster {
    /// Points.
    pub points: u32,
    /// Dimensions per point.
    pub dims: u32,
    /// Candidate centers evaluated per round.
    pub candidates: u32,
    /// Rounds (candidate-set swaps).
    pub rounds: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl Default for Streamcluster {
    fn default() -> Self {
        Self {
            points: 8192,
            dims: 16,
            candidates: 24,
            rounds: 24,
            threads_per_block: 192,
        }
    }
}

impl Streamcluster {
    fn point_data(&self) -> Vec<f32> {
        data::f32_vec(0x5c01, (self.points * self.dims) as usize, 0.0, 1.0)
    }

    fn candidate_data(&self, round: u32) -> Vec<f32> {
        data::f32_vec(
            0x5c10 + u64::from(round),
            (self.candidates * self.dims) as usize,
            0.0,
            1.0,
        )
    }

    /// The pgain kernel: per point, squared distance to every candidate;
    /// keeps the running minimum across rounds.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("sc_pgain");
        let points = b.param(0);
        let cands = b.param(1);
        let best = b.param(2);
        let n = b.param(3);
        let dims = b.param(4);
        let ncand = b.param(5);
        let i = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, i, n);
        b.if_(in_range, |b| {
            let pbase = b.imul(i, dims);
            let ba = b.addr_w(best, i);
            let best_d = b.ldg(ba, 0);
            b.for_range(0u32, ncand, 1u32, |b, c| {
                let cbase = b.imul(c, dims);
                let acc = b.mov(0.0f32);
                b.for_range(0u32, dims, 1u32, |b, f| {
                    let pi = b.iadd(pbase, f);
                    let pa = b.addr_w(points, pi);
                    let pv = b.ldg(pa, 0);
                    let ci = b.iadd(cbase, f);
                    let ca = b.addr_w(cands, ci);
                    let cv = b.ldg(ca, 0);
                    let d = b.fsub(pv, cv);
                    b.ffma_to(acc, d, d, acc);
                });
                let nb = b.fmin(best_d, acc);
                b.mov_to(best_d, nb);
            });
            b.stg(ba, 0, best_d);
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Streamcluster {
    fn name(&self) -> &'static str {
        "streamcluster"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let pts = self.point_data();
        let p_b = s.alloc_words(self.points * self.dims)?;
        let c_b = s.alloc_words(self.candidates * self.dims)?;
        let best_b = s.alloc_words(self.points)?;
        s.write_f32(p_b, &pts)?;
        s.write_f32(best_b, &vec![f32::MAX; self.points as usize])?;
        let kernel = self.kernel();
        let grid = Dim3::x(self.points.div_ceil(self.threads_per_block));
        let block = Dim3::x(self.threads_per_block);
        for round in 0..self.rounds {
            s.write_f32(c_b, &self.candidate_data(round))?;
            s.launch(
                &kernel,
                grid,
                block,
                0,
                &[
                    SParam::Buf(p_b),
                    SParam::Buf(c_b),
                    SParam::Buf(best_b),
                    SParam::U32(self.points),
                    SParam::U32(self.dims),
                    SParam::U32(self.candidates),
                ],
            )?;
            s.sync()?;
        }
        s.read_u32(best_b, self.points as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let pts = self.point_data();
        let d = self.dims as usize;
        let mut best = vec![f32::MAX; self.points as usize];
        for round in 0..self.rounds {
            let cands = self.candidate_data(round);
            for (i, b) in best.iter_mut().enumerate() {
                for c in 0..self.candidates as usize {
                    let mut acc = 0.0f32;
                    for f in 0..d {
                        let diff = pts[i * d + f] - cands[c * d + f];
                        acc = diff.mul_add(diff, acc);
                    }
                    *b = b.min(acc);
                }
            }
        }
        f32s_to_words(&best)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// Fixed candidate-evaluation passes; the mined
    /// corrupted-but-terminating tail is short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Streamcluster {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            points: 256,
            dims: 4,
            candidates: 6,
            rounds: 4,
            threads_per_block: 64,
        }
    }
}

/// Registers `streamcluster` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "streamcluster", Streamcluster);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Streamcluster {
        Streamcluster {
            points: 256,
            dims: 4,
            candidates: 8,
            rounds: 3,
            threads_per_block: 64,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let sc = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = sc.run(&mut s).expect("runs");
        sc.verify(&out).expect("matches reference");
    }

    #[test]
    fn best_distances_shrink_with_more_rounds() {
        let short = Streamcluster {
            rounds: 1,
            ..small()
        };
        let long = Streamcluster {
            rounds: 3,
            ..small()
        };
        let sum = |b: &Streamcluster| -> f64 {
            b.reference()
                .iter()
                .map(|w| f64::from(f32::from_bits(*w)))
                .sum()
        };
        assert!(sum(&long) <= sum(&short), "minima are monotone in rounds");
    }

    #[test]
    fn distances_are_finite_after_first_round() {
        let sc = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = sc.run(&mut s).expect("runs");
        for w in out {
            assert!(f32::from_bits(w).is_finite());
        }
    }
}
