//! `nw` — Needleman-Wunsch sequence alignment (Rodinia).
//!
//! Integer dynamic programming over an (N+1)×(N+1) score matrix, processed
//! as an anti-diagonal wavefront of 16×16 tiles; each tile is computed by a
//! 16-thread block sweeping its internal anti-diagonals with barriers.
//! Exact integer arithmetic (paper category: friendly, many dependent
//! launches).

use crate::data;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload, WorkloadRegistry,
};
use std::sync::Arc;

const BS: u32 = 16;

/// Needleman-Wunsch benchmark.
#[derive(Debug, Clone)]
pub struct Nw {
    /// Sequence length (multiple of 16).
    pub n: u32,
    /// Gap penalty (positive).
    pub penalty: i32,
}

impl Default for Nw {
    fn default() -> Self {
        Self {
            n: 128,
            penalty: 10,
        }
    }
}

impl Nw {
    /// Random similarity scores in `[-10, 10]` for the (N+1)² matrix
    /// (row/column 0 unused, as in Rodinia).
    fn similarity(&self) -> Vec<i32> {
        let m = (self.n + 1) * (self.n + 1);
        data::u32_vec(0x9977, m as usize, 21)
            .into_iter()
            .map(|v| v as i32 - 10)
            .collect()
    }

    fn initial_scores(&self) -> Vec<i32> {
        let n1 = (self.n + 1) as usize;
        let mut s = vec![0i32; n1 * n1];
        for i in 1..n1 {
            s[i * n1] = -(i as i32) * self.penalty;
            s[i] = -(i as i32) * self.penalty;
        }
        s
    }

    /// Processes the tiles of one anti-diagonal. `first_bi` is the tile-row
    /// of the first block on the diagonal `d` (`bi + bj == d`).
    pub fn tile_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("nw_tile");
        let score = b.param(0);
        let sim = b.param(1);
        let n1 = b.param(2); // matrix stride (n + 1)
        let first_bi = b.param(3);
        let d = b.param(4);
        let penalty = b.param(5);
        let tid = b.special(higpu_sim::isa::SpecialReg::TidX);
        let ctaid = b.special(higpu_sim::isa::SpecialReg::CtaidX);
        let bi = b.iadd(first_bi, ctaid);
        let bj = b.isub(d, bi);
        // Global coordinates of the tile's top-left DP cell (1-based).
        let row0 = b.imad(bi, BS, 1u32);
        let col0 = b.imad(bj, BS, 1u32);
        let neg_penalty = b.isub(penalty, penalty);
        b.isub_to(neg_penalty, neg_penalty, penalty);
        b.for_range(0u32, 2 * BS - 1, 1u32, |b, step| {
            // Thread t computes cell (t, step - t) of the tile.
            let jl = b.isub(step, tid);
            let j_ok_lo = b.isetp(CmpOp::Ge, jl, 0u32);
            b.if_(j_ok_lo, |b| {
                let j_ok_hi = b.isetp(CmpOp::Lt, jl, BS);
                b.if_(j_ok_hi, |b| {
                    let gi = b.iadd(row0, tid);
                    let gj = b.iadd(col0, jl);
                    let idx = b.imad(gi, n1, gj);
                    let im1 = b.isub(idx, n1);
                    let nw_i = b.isub(im1, 1u32);
                    let nwa = b.addr_w(score, nw_i);
                    let nwv = b.ldg(nwa, 0);
                    let na = b.addr_w(score, im1);
                    let nv = b.ldg(na, 0);
                    let wi = b.isub(idx, 1u32);
                    let wa = b.addr_w(score, wi);
                    let wv = b.ldg(wa, 0);
                    let sa = b.addr_w(sim, idx);
                    let sv = b.ldg(sa, 0);
                    let diag = b.iadd(nwv, sv);
                    let up = b.iadd(nv, neg_penalty);
                    let left = b.iadd(wv, neg_penalty);
                    let m1 = b.imax(diag, up);
                    let m2 = b.imax(m1, left);
                    let oa = b.addr_w(score, idx);
                    b.stg(oa, 0, m2);
                });
                b.release_preds(1);
            });
            b.release_preds(1);
            b.bar();
        });
        b.build().expect("well-formed").into_shared()
    }

    fn tiles(&self) -> u32 {
        self.n / BS
    }
}

impl Workload for Nw {
    fn name(&self) -> &'static str {
        "nw"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        assert_eq!(self.n % BS, 0, "sequence length must be a multiple of 16");
        let n1 = self.n + 1;
        let words = n1 * n1;
        let score_b = s.alloc_words(words)?;
        let sim_b = s.alloc_words(words)?;
        let scores: Vec<u32> = self.initial_scores().iter().map(|&v| v as u32).collect();
        let sims: Vec<u32> = self.similarity().iter().map(|&v| v as u32).collect();
        s.write_u32(score_b, &scores)?;
        s.write_u32(sim_b, &sims)?;
        let kernel = self.tile_kernel();
        let t = self.tiles();
        for d in 0..(2 * t - 1) {
            let first_bi = d.saturating_sub(t - 1);
            let last_bi = d.min(t - 1);
            let blocks = last_bi - first_bi + 1;
            s.launch(
                &kernel,
                Dim3::x(blocks),
                Dim3::x(BS),
                0,
                &[
                    SParam::Buf(score_b),
                    SParam::Buf(sim_b),
                    SParam::U32(n1),
                    SParam::U32(first_bi),
                    SParam::U32(d),
                    SParam::I32(self.penalty),
                ],
            )?;
            s.sync()?;
        }
        s.read_u32(score_b, words as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let n1 = (self.n + 1) as usize;
        let sim = self.similarity();
        let mut score = self.initial_scores();
        for i in 1..n1 {
            for j in 1..n1 {
                let diag = score[(i - 1) * n1 + (j - 1)] + sim[i * n1 + j];
                let up = score[(i - 1) * n1 + j] - self.penalty;
                let left = score[i * n1 + (j - 1)] - self.penalty;
                score[i * n1 + j] = diag.max(up).max(left);
            }
        }
        score.iter().map(|&v| v as u32).collect()
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Anti-diagonal wavefront with a fixed number of diagonals, but a
    /// corrupted wavefront can replay whole passes: the mined
    /// corrupted-but-terminating p99.9 is 4.59× the fault-free makespan,
    /// so `nw` keeps the flat default budget rather than the mined 3×.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::DEFAULT_FTTI_MULTIPLIER
    }
}

impl Nw {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self { n: 32, penalty: 10 }
    }
}

/// Registers `nw` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "nw", Nw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Nw {
        Nw { n: 48, penalty: 5 }
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let nw = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = nw.run(&mut s).expect("runs");
        nw.verify(&out).expect("matches reference");
    }

    #[test]
    fn wavefront_launch_count() {
        let nw = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        nw.run(&mut s).expect("runs");
        let t = nw.n / BS;
        assert_eq!(gpu.trace().kernels.len() as u32, 2 * t - 1);
    }

    #[test]
    fn scores_decrease_along_gap_runs() {
        let nw = small();
        let out = nw.reference();
        let n1 = (nw.n + 1) as usize;
        // First row/col are pure gaps: strictly decreasing by `penalty`.
        for (j, &cell) in out.iter().enumerate().take(n1).skip(1) {
            assert_eq!(cell as i32, -(j as i32) * nw.penalty);
        }
    }
}
