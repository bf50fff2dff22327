//! `gaussian` — Gaussian elimination (Rodinia).
//!
//! For every elimination step `t`, kernel `Fan1` computes the column of
//! multipliers and kernel `Fan2` updates the trailing submatrix — a long
//! host-driven sequence of small kernels (paper category: short kernels,
//! iterated).

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

/// Gaussian elimination benchmark.
#[derive(Debug, Clone)]
pub struct Gaussian {
    /// Matrix dimension.
    pub n: u32,
    /// Threads per block (Fan1; Fan2 uses a 16×16 block).
    pub threads_per_block: u32,
}

impl Default for Gaussian {
    fn default() -> Self {
        Self {
            n: 48,
            threads_per_block: 128,
        }
    }
}

impl Gaussian {
    fn matrix(&self) -> Vec<f32> {
        data::dominant_matrix(0x9a55, self.n as usize)
    }

    /// `Fan1`: multipliers `m[row] = a[row][t] / a[t][t]` for `row > t`.
    pub fn fan1_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("gaussian_fan1");
        let a = b.param(0);
        let m = b.param(1);
        let n = b.param(2);
        let t = b.param(3);
        let i = b.global_tid_x();
        let limit = b.isub(n, t);
        let limit1 = b.isub(limit, 1u32);
        let in_range = b.isetp(CmpOp::Lt, i, limit1);
        b.if_(in_range, |b| {
            let row = b.iadd(i, t);
            b.iadd_to(row, row, 1u32);
            // a[row*n + t]
            let ri = b.imad(row, n, t);
            let ra = b.addr_w(a, ri);
            let a_it = b.ldg(ra, 0);
            // a[t*n + t]
            let ti = b.imad(t, n, t);
            let ta = b.addr_w(a, ti);
            let a_tt = b.ldg(ta, 0);
            let mult = b.fdiv(a_it, a_tt);
            let ma = b.addr_w(m, row);
            b.stg(ma, 0, mult);
        });
        b.build().expect("well-formed").into_shared()
    }

    /// `Fan2`: trailing update `a[row][col] -= m[row] * a[t][col]`.
    pub fn fan2_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("gaussian_fan2");
        let a = b.param(0);
        let m = b.param(1);
        let n = b.param(2);
        let t = b.param(3);
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let cols = b.isub(n, t);
        let rows = b.isub(cols, 1u32);
        let x_ok = b.isetp(CmpOp::Lt, x, cols);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, rows);
            b.if_(y_ok, |b| {
                let row = b.iadd(y, t);
                b.iadd_to(row, row, 1u32);
                let col = b.iadd(x, t);
                let ma = b.addr_w(m, row);
                let mv = b.ldg(ma, 0);
                let ti = b.imad(t, n, col);
                let ta = b.addr_w(a, ti);
                let pivot = b.ldg(ta, 0);
                let ri = b.imad(row, n, col);
                let ra = b.addr_w(a, ri);
                let cur = b.ldg(ra, 0);
                let prod = b.fmul(mv, pivot);
                let upd = b.fsub(cur, prod);
                b.stg(ra, 0, upd);
            });
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Gaussian {
    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.n;
        let a_b = s.alloc_words(n * n)?;
        let m_b = s.alloc_words(n)?;
        s.write_f32(a_b, &self.matrix())?;
        s.write_f32(m_b, &vec![0.0; n as usize])?;

        let fan1 = self.fan1_kernel();
        let fan2 = self.fan2_kernel();
        for t in 0..n - 1 {
            let remaining = n - t - 1;
            s.launch(
                &fan1,
                Dim3::x(remaining.div_ceil(self.threads_per_block)),
                Dim3::x(self.threads_per_block),
                0,
                &[
                    SParam::Buf(a_b),
                    SParam::Buf(m_b),
                    SParam::U32(n),
                    SParam::U32(t),
                ],
            )?;
            s.sync()?;
            let gx = (n - t).div_ceil(16);
            let gy = remaining.div_ceil(16);
            s.launch(
                &fan2,
                Dim3::xy(gx, gy),
                Dim3::xy(16, 16),
                0,
                &[
                    SParam::Buf(a_b),
                    SParam::Buf(m_b),
                    SParam::U32(n),
                    SParam::U32(t),
                ],
            )?;
            s.sync()?;
        }
        s.read_u32(a_b, (n * n) as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.n as usize;
        let mut a = self.matrix();
        let mut m = vec![0.0f32; n];
        for t in 0..n - 1 {
            for (row, mr) in m.iter_mut().enumerate().take(n).skip(t + 1) {
                *mr = a[row * n + t] / a[t * n + t];
            }
            for row in t + 1..n {
                for col in t..n {
                    a[row * n + col] -= m[row] * a[t * n + col];
                }
            }
        }
        f32s_to_words(&a)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// Elimination rounds are fixed by the matrix size; the mined
    /// corrupted-but-terminating tail is short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Gaussian {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            n: 16,
            threads_per_block: 32,
        }
    }
}

/// Registers `gaussian` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "gaussian", Gaussian);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Gaussian {
        Gaussian {
            n: 24,
            threads_per_block: 64,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let g = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = g.run(&mut s).expect("runs");
        g.verify(&out).expect("matches reference");
    }

    #[test]
    fn result_is_upper_triangular() {
        let g = small();
        let n = g.n as usize;
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = g.run(&mut s).expect("runs");
        for row in 1..n {
            for col in 0..row {
                let v = f32::from_bits(out[row * n + col]);
                assert!(
                    v.abs() < 1e-3,
                    "below-diagonal element [{row}][{col}] = {v} not eliminated"
                );
            }
        }
    }

    #[test]
    fn launches_two_kernels_per_step() {
        let g = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        g.run(&mut s).expect("runs");
        assert_eq!(
            gpu.trace().kernels.len() as u32,
            2 * (g.n - 1),
            "Fan1+Fan2 per elimination step"
        );
    }
}
