//! `pathfinder` — grid dynamic programming (Rodinia).
//!
//! Bottom-up shortest-path over a weight grid: one kernel launch per row,
//! each thread extending one column with the minimum of its three parents.
//! Exact integer arithmetic; many short dependent launches.

use crate::data;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload, WorkloadRegistry,
};
use std::sync::Arc;

/// Pathfinder benchmark.
#[derive(Debug, Clone)]
pub struct Pathfinder {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl Default for Pathfinder {
    fn default() -> Self {
        Self {
            cols: 4096,
            rows: 48,
            threads_per_block: 256,
        }
    }
}

impl Pathfinder {
    fn weights(&self) -> Vec<u32> {
        data::u32_vec(0xaf1d, (self.cols * self.rows) as usize, 10)
    }

    /// One DP step: `dst[j] = wall[row][j] + min(src[j-1], src[j], src[j+1])`.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("pathfinder_step");
        let wall = b.param(0);
        let src = b.param(1);
        let dst = b.param(2);
        let cols = b.param(3);
        let row = b.param(4);
        let j = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, j, cols);
        b.if_(in_range, |b| {
            let cm1 = b.isub(cols, 1u32);
            let jm = b.isub(j, 1u32);
            let jl = b.imax(jm, 0u32);
            let jp = b.iadd(j, 1u32);
            let jr = b.imin(jp, cm1);
            let la = b.addr_w(src, jl);
            let ca = b.addr_w(src, j);
            let ra = b.addr_w(src, jr);
            let lv = b.ldg(la, 0);
            let cv = b.ldg(ca, 0);
            let rv = b.ldg(ra, 0);
            let m1 = b.imin(lv, cv);
            let m2 = b.imin(m1, rv);
            let wi = b.imad(row, cols, j);
            let wa = b.addr_w(wall, wi);
            let wv = b.ldg(wa, 0);
            let sum = b.iadd(wv, m2);
            let da = b.addr_w(dst, j);
            b.stg(da, 0, sum);
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Pathfinder {
    fn name(&self) -> &'static str {
        "pathfinder"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let wall = self.weights();
        let w_b = s.alloc_words(self.cols * self.rows)?;
        let a_b = s.alloc_words(self.cols)?;
        let b_b = s.alloc_words(self.cols)?;
        s.write_u32(w_b, &wall)?;
        s.write_u32(a_b, &wall[..self.cols as usize])?;
        let kernel = self.kernel();
        let grid = Dim3::x(self.cols.div_ceil(self.threads_per_block));
        let block = Dim3::x(self.threads_per_block);
        let mut src = a_b;
        let mut dst = b_b;
        for row in 1..self.rows {
            s.launch(
                &kernel,
                grid,
                block,
                0,
                &[
                    SParam::Buf(w_b),
                    SParam::Buf(src),
                    SParam::Buf(dst),
                    SParam::U32(self.cols),
                    SParam::U32(row),
                ],
            )?;
            s.sync()?;
            std::mem::swap(&mut src, &mut dst);
        }
        s.read_u32(src, self.cols as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let wall = self.weights();
        let c = self.cols as usize;
        let mut cur: Vec<u32> = wall[..c].to_vec();
        let mut next = vec![0u32; c];
        for row in 1..self.rows as usize {
            for j in 0..c {
                let l = cur[j.saturating_sub(1)];
                let m = cur[j];
                let r = cur[(j + 1).min(c - 1)];
                next[j] = wall[row * c + j] + l.min(m).min(r);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Fixed per-row sweeps; the mined corrupted-but-terminating tail is
    /// short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Pathfinder {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            cols: 256,
            rows: 8,
            threads_per_block: 64,
        }
    }
}

/// Registers `pathfinder` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "pathfinder", Pathfinder);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Pathfinder {
        Pathfinder {
            cols: 512,
            rows: 12,
            threads_per_block: 128,
        }
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let p = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = p.run(&mut s).expect("runs");
        p.verify(&out).expect("matches reference");
    }

    #[test]
    fn one_launch_per_row() {
        let p = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        p.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len() as u32, p.rows - 1);
    }

    #[test]
    fn path_costs_grow_monotonically_with_rows() {
        let short = Pathfinder { rows: 4, ..small() };
        let long = Pathfinder {
            rows: 12,
            ..small()
        };
        let sum_short: u64 = short.reference().iter().map(|&v| u64::from(v)).sum();
        let sum_long: u64 = long.reference().iter().map(|&v| u64::from(v)).sum();
        assert!(sum_long >= sum_short);
    }
}
