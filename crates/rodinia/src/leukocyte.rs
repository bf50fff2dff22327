//! `leukocyte` — cell detection and tracking (Rodinia).
//!
//! GICOV-style detection: for every interior pixel, a directional
//! mean²/variance score over gradient samples on a small circle, maximized
//! over directions, followed by a 3×3 max-dilation kernel. Heavy per-thread
//! floating point (paper category: friendly, long kernels).

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

/// Sample points per direction.
const SAMPLES: u32 = 8;
/// Directions evaluated per pixel.
const DIRECTIONS: u32 = 8;

/// Leukocyte benchmark.
#[derive(Debug, Clone)]
pub struct Leukocyte {
    /// Image width/height.
    pub size: u32,
}

impl Default for Leukocyte {
    fn default() -> Self {
        Self { size: 128 }
    }
}

impl Leukocyte {
    fn image(&self) -> Vec<f32> {
        data::f32_vec(0x1e0c, (self.size * self.size) as usize, 0.0, 1.0)
    }

    /// Circle sample offsets per direction: `(dy, dx)` pairs, radius 3,
    /// rotated per direction — precomputed on the host exactly as Rodinia
    /// precomputes its sin/cos tables.
    fn offsets() -> Vec<i32> {
        let mut out = Vec::with_capacity((DIRECTIONS * SAMPLES * 2) as usize);
        for d in 0..DIRECTIONS {
            for s in 0..SAMPLES {
                let theta = (d as f32) * 0.15 + (s as f32) * std::f32::consts::TAU / SAMPLES as f32;
                let dy = (3.0 * theta.sin()).round() as i32;
                let dx = (3.0 * theta.cos()).round() as i32;
                out.push(dy);
                out.push(dx);
            }
        }
        out
    }

    /// GICOV kernel: directional mean²/var score, maximized over directions.
    pub fn gicov_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("leukocyte_gicov");
        let img = b.param(0);
        let offs = b.param(1);
        let out = b.param(2);
        let n = b.param(3);
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, n);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, n);
            b.if_(y_ok, |b| {
                let nm1 = b.isub(n, 1u32);
                let best = b.mov(0.0f32);
                b.for_range(0u32, DIRECTIONS, 1u32, |b, d| {
                    let sum = b.mov(0.0f32);
                    let sum2 = b.mov(0.0f32);
                    let dbase = b.imul(d, SAMPLES * 2);
                    b.for_range(0u32, SAMPLES, 1u32, |b, sidx| {
                        let oi = b.imad(sidx, 2u32, dbase);
                        let oa = b.addr_w(offs, oi);
                        let dy = b.ldg(oa, 0);
                        let dx = b.ldg(oa, 4);
                        // clamp sample coordinates to the image
                        let sy0 = b.iadd(y, dy);
                        let sy1 = b.imax(sy0, 0u32);
                        let sy = b.imin(sy1, nm1);
                        let sx0 = b.iadd(x, dx);
                        let sx1 = b.imax(sx0, 0u32);
                        let sx = b.imin(sx1, nm1);
                        let si = b.imad(sy, n, sx);
                        let sa = b.addr_w(img, si);
                        let sv = b.ldg(sa, 0);
                        b.fadd_to(sum, sum, sv);
                        b.ffma_to(sum2, sv, sv, sum2);
                    });
                    // mean = sum/S ; var = sum2/S - mean² (+eps) ;
                    // score = mean²/var
                    let mean = b.fmul(sum, 1.0 / SAMPLES as f32);
                    let msq = b.fmul(mean, mean);
                    let ex2 = b.fmul(sum2, 1.0 / SAMPLES as f32);
                    let var0 = b.fsub(ex2, msq);
                    let var = b.fadd(var0, 1e-4f32);
                    let score = b.fdiv(msq, var);
                    let nb = b.fmax(best, score);
                    b.mov_to(best, nb);
                });
                let idx = b.imad(y, n, x);
                let oa = b.addr_w(out, idx);
                b.stg(oa, 0, best);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// 3×3 max-dilation kernel.
    pub fn dilate_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("leukocyte_dilate");
        let src = b.param(0);
        let dst = b.param(1);
        let n = b.param(2);
        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, n);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, n);
            b.if_(y_ok, |b| {
                let nm1 = b.isub(n, 1u32);
                let best = b.mov(f32::MIN);
                b.for_range(0u32, 3u32, 1u32, |b, dy| {
                    b.for_range(0u32, 3u32, 1u32, |b, dx| {
                        let yy0 = b.iadd(y, dy);
                        let yy1 = b.isub(yy0, 1u32);
                        let yy2 = b.imax(yy1, 0u32);
                        let yy = b.imin(yy2, nm1);
                        let xx0 = b.iadd(x, dx);
                        let xx1 = b.isub(xx0, 1u32);
                        let xx2 = b.imax(xx1, 0u32);
                        let xx = b.imin(xx2, nm1);
                        let si = b.imad(yy, n, xx);
                        let sa = b.addr_w(src, si);
                        let sv = b.ldg(sa, 0);
                        let nb = b.fmax(best, sv);
                        b.mov_to(best, nb);
                    });
                });
                let idx = b.imad(y, n, x);
                let oa = b.addr_w(dst, idx);
                b.stg(oa, 0, best);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    fn cpu_gicov(&self) -> Vec<f32> {
        let n = self.size as usize;
        let img = self.image();
        let offs = Self::offsets();
        let mut out = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                let mut best = 0.0f32;
                for d in 0..DIRECTIONS as usize {
                    let mut sum = 0.0f32;
                    let mut sum2 = 0.0f32;
                    for s in 0..SAMPLES as usize {
                        let dy = offs[(d * SAMPLES as usize + s) * 2];
                        let dx = offs[(d * SAMPLES as usize + s) * 2 + 1];
                        let sy = (y as i32 + dy).clamp(0, n as i32 - 1) as usize;
                        let sx = (x as i32 + dx).clamp(0, n as i32 - 1) as usize;
                        let sv = img[sy * n + sx];
                        sum += sv;
                        sum2 = sv.mul_add(sv, sum2);
                    }
                    let mean = sum * (1.0 / SAMPLES as f32);
                    let msq = mean * mean;
                    let var = sum2 * (1.0 / SAMPLES as f32) - msq + 1e-4;
                    best = best.max(msq / var);
                }
                out[y * n + x] = best;
            }
        }
        out
    }
}

impl Workload for Leukocyte {
    fn name(&self) -> &'static str {
        "leukocyte"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.size;
        let words = n * n;
        let img_b = s.alloc_words(words)?;
        let off_b = s.alloc_words(DIRECTIONS * SAMPLES * 2)?;
        let sc_b = s.alloc_words(words)?;
        let di_b = s.alloc_words(words)?;
        s.write_f32(img_b, &self.image())?;
        let offs: Vec<u32> = Self::offsets().iter().map(|&v| v as u32).collect();
        s.write_u32(off_b, &offs)?;
        let grid = Dim3::xy(n.div_ceil(16), n.div_ceil(16));
        let block = Dim3::xy(16, 16);
        s.launch(
            &self.gicov_kernel(),
            grid,
            block,
            0,
            &[
                SParam::Buf(img_b),
                SParam::Buf(off_b),
                SParam::Buf(sc_b),
                SParam::U32(n),
            ],
        )?;
        s.sync()?;
        s.launch(
            &self.dilate_kernel(),
            grid,
            block,
            0,
            &[SParam::Buf(sc_b), SParam::Buf(di_b), SParam::U32(n)],
        )?;
        s.read_u32(di_b, words as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.size as usize;
        let score = self.cpu_gicov();
        let mut out = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                let mut best = f32::MIN;
                for dy in 0..3usize {
                    for dx in 0..3usize {
                        let yy = (y + dy).saturating_sub(1).min(n - 1);
                        let xx = (x + dx).saturating_sub(1).min(n - 1);
                        best = best.max(score[yy * n + xx]);
                    }
                }
                out[y * n + x] = best;
            }
        }
        f32s_to_words(&out)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// The droop-runaway workload: a sign-flipped loop counter once
    /// livelocked whole campaigns here. The mined budget cuts the
    /// ~2³¹-iteration runaway promptly while clearing every legitimate
    /// perturbed run (regression-fenced in tests/campaign_matrix.rs; the
    /// mined corrupted-but-terminating tail is short).
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Leukocyte {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self { size: 32 }
    }
}

/// Registers `leukocyte` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "leukocyte", Leukocyte);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Leukocyte {
        Leukocyte { size: 24 }
    }

    #[test]
    fn matches_cpu_reference() {
        let l = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = l.run(&mut s).expect("runs");
        l.verify(&out).expect("matches reference");
    }

    #[test]
    fn scores_are_nonnegative() {
        let l = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = l.run(&mut s).expect("runs");
        for w in out {
            assert!(f32::from_bits(w) >= 0.0, "mean²/var is non-negative");
        }
    }

    #[test]
    fn dilation_dominates_raw_scores() {
        let l = small();
        let raw = l.cpu_gicov();
        let dilated: Vec<f32> = l.reference().iter().map(|w| f32::from_bits(*w)).collect();
        for (d, r) in dilated.iter().zip(&raw) {
            assert!(d >= r, "max-filter output below input");
        }
    }
}
