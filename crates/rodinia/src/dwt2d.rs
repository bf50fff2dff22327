//! `dwt2d` — 2D discrete wavelet transform (Rodinia).
//!
//! Multi-level separable Haar transform: a row-pass kernel and a column-pass
//! kernel per level, halving the transformed region each level (paper
//! category: friendly).

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

const INV_SQRT2: f32 = std::f32::consts::FRAC_1_SQRT_2;

/// DWT2D benchmark.
#[derive(Debug, Clone)]
pub struct Dwt2d {
    /// Image width/height (power of two).
    pub size: u32,
    /// Decomposition levels.
    pub levels: u32,
}

impl Default for Dwt2d {
    fn default() -> Self {
        Self {
            size: 128,
            levels: 2,
        }
    }
}

impl Dwt2d {
    fn image(&self) -> Vec<f32> {
        data::f32_vec(0xd272, (self.size * self.size) as usize, 0.0, 255.0)
    }

    /// Row pass over the top-left `region × region` submatrix:
    /// `out[r][p] = (a+b)/√2`, `out[r][p+region/2] = (a−b)/√2`.
    pub fn rows_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("dwt2d_rows");
        let src = b.param(0);
        let dst = b.param(1);
        let stride = b.param(2);
        let region = b.param(3);
        let half = b.param(4);
        let p = b.global_tid_x(); // pair index within the row
        let r = b.global_tid_y(); // row index
        let p_ok = b.isetp(CmpOp::Lt, p, half);
        b.if_(p_ok, |b| {
            let r_ok = b.isetp(CmpOp::Lt, r, region);
            b.if_(r_ok, |b| {
                let col = b.ishl(p, 1u32);
                let base = b.imad(r, stride, col);
                let sa = b.addr_w(src, base);
                let av = b.ldg(sa, 0);
                let bv = b.ldg(sa, 4);
                let sum = b.fadd(av, bv);
                let dif = b.fsub(av, bv);
                let lo = b.fmul(sum, INV_SQRT2);
                let hi = b.fmul(dif, INV_SQRT2);
                let li = b.imad(r, stride, p);
                let la = b.addr_w(dst, li);
                b.stg(la, 0, lo);
                let hcol = b.iadd(p, half);
                let hi_i = b.imad(r, stride, hcol);
                let ha = b.addr_w(dst, hi_i);
                b.stg(ha, 0, hi);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Column pass (same butterfly down the columns).
    pub fn cols_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("dwt2d_cols");
        let src = b.param(0);
        let dst = b.param(1);
        let stride = b.param(2);
        let region = b.param(3);
        let half = b.param(4);
        let c = b.global_tid_x(); // column index
        let p = b.global_tid_y(); // pair index within the column
        let c_ok = b.isetp(CmpOp::Lt, c, region);
        b.if_(c_ok, |b| {
            let p_ok = b.isetp(CmpOp::Lt, p, half);
            b.if_(p_ok, |b| {
                let row = b.ishl(p, 1u32);
                let i0 = b.imad(row, stride, c);
                let row1 = b.iadd(row, 1u32);
                let i1 = b.imad(row1, stride, c);
                let a0 = b.addr_w(src, i0);
                let a1 = b.addr_w(src, i1);
                let av = b.ldg(a0, 0);
                let bv = b.ldg(a1, 0);
                let sum = b.fadd(av, bv);
                let dif = b.fsub(av, bv);
                let lo = b.fmul(sum, INV_SQRT2);
                let hi = b.fmul(dif, INV_SQRT2);
                let li = b.imad(p, stride, c);
                let la = b.addr_w(dst, li);
                b.stg(la, 0, lo);
                let hrow = b.iadd(p, half);
                let hi_i = b.imad(hrow, stride, c);
                let ha = b.addr_w(dst, hi_i);
                b.stg(ha, 0, hi);
            });
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Dwt2d {
    fn name(&self) -> &'static str {
        "dwt2d"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.size;
        let words = n * n;
        let a = s.alloc_words(words)?;
        let tmp = s.alloc_words(words)?;
        s.write_f32(a, &self.image())?;
        // The scratch buffer must carry the untouched region outside the
        // transformed submatrix across ping-pongs.
        s.write_f32(tmp, &self.image())?;
        let rows = self.rows_kernel();
        let cols = self.cols_kernel();
        let mut region = n;
        for _ in 0..self.levels {
            let half = region / 2;
            let grid = Dim3::xy(half.div_ceil(16), region.div_ceil(16));
            s.launch(
                &rows,
                grid,
                Dim3::xy(16, 16),
                0,
                &[
                    SParam::Buf(a),
                    SParam::Buf(tmp),
                    SParam::U32(n),
                    SParam::U32(region),
                    SParam::U32(half),
                ],
            )?;
            s.sync()?;
            let grid = Dim3::xy(region.div_ceil(16), half.div_ceil(16));
            s.launch(
                &cols,
                grid,
                Dim3::xy(16, 16),
                0,
                &[
                    SParam::Buf(tmp),
                    SParam::Buf(a),
                    SParam::U32(n),
                    SParam::U32(region),
                    SParam::U32(half),
                ],
            )?;
            s.sync()?;
            region = half;
            if region < 2 {
                break;
            }
        }
        s.read_u32(a, words as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.size as usize;
        let mut a = self.image();
        let mut region = n;
        for _ in 0..self.levels {
            let half = region / 2;
            let mut tmp = a.clone();
            for r in 0..region {
                for p in 0..half {
                    let av = a[r * n + 2 * p];
                    let bv = a[r * n + 2 * p + 1];
                    tmp[r * n + p] = (av + bv) * INV_SQRT2;
                    tmp[r * n + p + half] = (av - bv) * INV_SQRT2;
                }
            }
            for c in 0..region {
                for p in 0..half {
                    let av = tmp[(2 * p) * n + c];
                    let bv = tmp[(2 * p + 1) * n + c];
                    a[p * n + c] = (av + bv) * INV_SQRT2;
                    a[(p + half) * n + c] = (av - bv) * INV_SQRT2;
                }
            }
            region = half;
            if region < 2 {
                break;
            }
        }
        f32s_to_words(&a)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// The level count is fixed; corrupted coefficients cannot
    /// lengthen a pass, so the mined budget holds.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Dwt2d {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            size: 32,
            levels: 2,
        }
    }
}

/// Registers `dwt2d` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "dwt2d", Dwt2d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Dwt2d {
        Dwt2d {
            size: 32,
            levels: 2,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let d = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = d.run(&mut s).expect("runs");
        d.verify(&out).expect("matches reference");
    }

    #[test]
    fn energy_is_preserved() {
        // An orthonormal transform preserves the L2 norm, at every size and
        // level count.
        for (size, levels) in [(32, 2), (16, 1), (16, 3), (64, 2)] {
            let d = Dwt2d { size, levels };
            let input: f32 = d.image().iter().map(|v| v * v).sum();
            let mut gpu = Gpu::new(GpuConfig::paper_6sm());
            let mut s = SoloSession::new(&mut gpu);
            let out = d.run(&mut s).expect("runs");
            d.verify(&out).expect("matches reference");
            let output: f32 = out
                .iter()
                .map(|w| {
                    let v = f32::from_bits(*w);
                    v * v
                })
                .sum();
            let rel = (input - output).abs() / input;
            assert!(
                rel < 1e-3,
                "energy drift {rel} at {size}x{size}, {levels} levels"
            );
        }
    }

    #[test]
    fn two_kernels_per_level() {
        let d = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        d.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len() as u32, 2 * d.levels);
    }
}
