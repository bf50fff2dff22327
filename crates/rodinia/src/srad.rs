//! `srad` — speckle reducing anisotropic diffusion (Rodinia).
//!
//! Two stencil kernels per iteration (gradient/diffusion-coefficient, then
//! the divergence update), with the diffusion scale `q0²` recomputed on the
//! host from the image statistics each iteration — the same host/device
//! interplay as the original (paper category: friendly).

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

/// SRAD benchmark.
#[derive(Debug, Clone)]
pub struct Srad {
    /// Image width/height.
    pub size: u32,
    /// Diffusion iterations.
    pub iterations: u32,
    /// Update rate λ.
    pub lambda: f32,
}

impl Default for Srad {
    fn default() -> Self {
        Self {
            size: 96,
            iterations: 6,
            lambda: 0.5,
        }
    }
}

impl Srad {
    fn image(&self) -> Vec<f32> {
        data::f32_vec(0x5aad, (self.size * self.size) as usize, 1.0, 2.0)
    }

    /// Kernel 1: directional derivatives and the diffusion coefficient.
    pub fn grad_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("srad_grad");
        let img = b.param(0);
        let dn = b.param(1);
        let ds = b.param(2);
        let de = b.param(3);
        let dw = b.param(4);
        let c = b.param(5);
        let n = b.param(6);
        let q0 = b.param(7);

        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, n);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, n);
            b.if_(y_ok, |b| {
                let nm1 = b.isub(n, 1u32);
                let xm = b.isub(x, 1u32);
                let xw = b.imax(xm, 0u32);
                let xp = b.iadd(x, 1u32);
                let xe = b.imin(xp, nm1);
                let ym = b.isub(y, 1u32);
                let yn = b.imax(ym, 0u32);
                let yp = b.iadd(y, 1u32);
                let ys = b.imin(yp, nm1);
                let idx = b.imad(y, n, x);
                let load = |b: &mut KernelBuilder, yy, xx| {
                    let i = b.imad(yy, n, xx);
                    let a = b.addr_w(img, i);
                    b.ldg(a, 0)
                };
                let ca = b.addr_w(img, idx);
                let jc = b.ldg(ca, 0);
                let jn = load(b, yn, x);
                let js = load(b, ys, x);
                let je = load(b, y, xe);
                let jw = load(b, y, xw);
                let dnv = b.fsub(jn, jc);
                let dsv = b.fsub(js, jc);
                let dev = b.fsub(je, jc);
                let dwv = b.fsub(jw, jc);
                // G2 = (dn² + ds² + de² + dw²) / jc²
                let g1 = b.fmul(dnv, dnv);
                let g2 = b.ffma(dsv, dsv, g1);
                let g3 = b.ffma(dev, dev, g2);
                let g4 = b.ffma(dwv, dwv, g3);
                let jc2 = b.fmul(jc, jc);
                let g2n = b.fdiv(g4, jc2);
                // L = (dn + ds + de + dw) / jc
                let l1 = b.fadd(dnv, dsv);
                let l2 = b.fadd(l1, dev);
                let l3 = b.fadd(l2, dwv);
                let l = b.fdiv(l3, jc);
                // num = 0.5*G2 - L²/16 ; den = (1 + 0.25*L)² ; q = num/den
                let halfg = b.fmul(g2n, 0.5f32);
                let l_sq = b.fmul(l, l);
                let num = b.ffma(l_sq, -1.0f32 / 16.0, halfg);
                let lq = b.ffma(l, 0.25f32, 1.0f32);
                let den = b.fmul(lq, lq);
                let q = b.fdiv(num, den);
                // cval = 1 / (1 + (q - q0)/(q0*(1+q0)))
                let qdiff = b.fsub(q, q0);
                let q0p1 = b.fadd(q0, 1.0f32);
                let q0q = b.fmul(q0, q0p1);
                let ratio = b.fdiv(qdiff, q0q);
                let onep = b.fadd(ratio, 1.0f32);
                let cval = b.frcp(onep);
                // clamp to [0, 1]
                let clo = b.fmax(cval, 0.0f32);
                let cclamped = b.fmin(clo, 1.0f32);
                let store = |b: &mut KernelBuilder, buf, v| {
                    let a = b.addr_w(buf, idx);
                    b.stg(a, 0, v);
                };
                store(b, dn, dnv);
                store(b, ds, dsv);
                store(b, de, dev);
                store(b, dw, dwv);
                store(b, c, cclamped);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Kernel 2: divergence update
    /// `img += λ/4 · (cS·dS + cC·dN + cE·dE + cC·dW)`.
    pub fn update_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("srad_update");
        let img = b.param(0);
        let dn = b.param(1);
        let ds = b.param(2);
        let de = b.param(3);
        let dw = b.param(4);
        let c = b.param(5);
        let n = b.param(6);
        let lambda = b.param(7);

        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, n);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, n);
            b.if_(y_ok, |b| {
                let nm1 = b.isub(n, 1u32);
                let xp = b.iadd(x, 1u32);
                let xe = b.imin(xp, nm1);
                let yp = b.iadd(y, 1u32);
                let ys = b.imin(yp, nm1);
                let idx = b.imad(y, n, x);
                let si = b.imad(ys, n, x);
                let ei = b.imad(y, n, xe);
                let load_at = |b: &mut KernelBuilder, buf, i| {
                    let a = b.addr_w(buf, i);
                    b.ldg(a, 0)
                };
                let cc = load_at(b, c, idx);
                let cs = load_at(b, c, si);
                let ce = load_at(b, c, ei);
                let dnv = load_at(b, dn, idx);
                let dsv = load_at(b, ds, idx);
                let dev = load_at(b, de, idx);
                let dwv = load_at(b, dw, idx);
                // div = cC*dN + cS*dS + cC*dW + cE*dE
                let t1 = b.fmul(cc, dnv);
                let t2 = b.ffma(cs, dsv, t1);
                let t3 = b.ffma(cc, dwv, t2);
                let div = b.ffma(ce, dev, t3);
                let ia = b.addr_w(img, idx);
                let jc = b.ldg(ia, 0);
                let rate = b.fmul(lambda, 0.25f32);
                let upd = b.ffma(div, rate, jc);
                b.stg(ia, 0, upd);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Host-side q0² for the current image (mean/variance of the image).
    fn q0sqr(img: &[f32]) -> f32 {
        let n = img.len() as f32;
        let sum: f32 = img.iter().sum();
        let sum2: f32 = img.iter().map(|v| v * v).sum();
        let mean = sum / n;
        let var = (sum2 / n) - mean * mean;
        var / (mean * mean)
    }

    fn cpu_iteration(&self, img: &mut [f32], q0: f32) {
        let n = self.size as usize;
        let mut dn = vec![0.0f32; n * n];
        let mut ds = vec![0.0f32; n * n];
        let mut de = vec![0.0f32; n * n];
        let mut dw = vec![0.0f32; n * n];
        let mut c = vec![0.0f32; n * n];
        for y in 0..n {
            for x in 0..n {
                let idx = y * n + x;
                let jc = img[idx];
                let jn = img[y.saturating_sub(1) * n + x];
                let js = img[(y + 1).min(n - 1) * n + x];
                let je = img[y * n + (x + 1).min(n - 1)];
                let jw = img[y * n + x.saturating_sub(1)];
                dn[idx] = jn - jc;
                ds[idx] = js - jc;
                de[idx] = je - jc;
                dw[idx] = jw - jc;
                let g2 = dn[idx].mul_add(dn[idx], 0.0);
                let g2 = ds[idx].mul_add(ds[idx], g2);
                let g2 = de[idx].mul_add(de[idx], g2);
                let g2 = dw[idx].mul_add(dw[idx], g2);
                let g2 = g2 / (jc * jc);
                let l = (((dn[idx] + ds[idx]) + de[idx]) + dw[idx]) / jc;
                let num = (l * l).mul_add(-1.0 / 16.0, g2 * 0.5);
                let lq = l.mul_add(0.25, 1.0);
                let q = num / (lq * lq);
                let cval = 1.0 / (1.0 + (q - q0) / (q0 * (q0 + 1.0)));
                c[idx] = cval.clamp(0.0, 1.0);
            }
        }
        for y in 0..n {
            for x in 0..n {
                let idx = y * n + x;
                let cs = c[(y + 1).min(n - 1) * n + x];
                let ce = c[y * n + (x + 1).min(n - 1)];
                let div = ce.mul_add(
                    de[idx],
                    c[idx].mul_add(dw[idx], cs.mul_add(ds[idx], c[idx] * dn[idx])),
                );
                img[idx] = div.mul_add(self.lambda * 0.25, img[idx]);
            }
        }
    }
}

impl Workload for Srad {
    fn name(&self) -> &'static str {
        "srad"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.size;
        let words = n * n;
        let img = s.alloc_words(words)?;
        let dn = s.alloc_words(words)?;
        let ds = s.alloc_words(words)?;
        let de = s.alloc_words(words)?;
        let dw = s.alloc_words(words)?;
        let c = s.alloc_words(words)?;
        s.write_f32(img, &self.image())?;
        let grad = self.grad_kernel();
        let update = self.update_kernel();
        let grid = Dim3::xy(n.div_ceil(16), n.div_ceil(16));
        let block = Dim3::xy(16, 16);
        for _ in 0..self.iterations {
            // Host recomputes the diffusion scale from the current image.
            let current = s.read_f32(img, words as usize)?;
            let q0 = Self::q0sqr(&current);
            s.launch(
                &grad,
                grid,
                block,
                0,
                &[
                    SParam::Buf(img),
                    SParam::Buf(dn),
                    SParam::Buf(ds),
                    SParam::Buf(de),
                    SParam::Buf(dw),
                    SParam::Buf(c),
                    SParam::U32(n),
                    SParam::F32(q0),
                ],
            )?;
            s.sync()?;
            s.launch(
                &update,
                grid,
                block,
                0,
                &[
                    SParam::Buf(img),
                    SParam::Buf(dn),
                    SParam::Buf(ds),
                    SParam::Buf(de),
                    SParam::Buf(dw),
                    SParam::Buf(c),
                    SParam::U32(n),
                    SParam::F32(self.lambda),
                ],
            )?;
            s.sync()?;
        }
        s.read_u32(img, words as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let mut img = self.image();
        for _ in 0..self.iterations {
            let q0 = Self::q0sqr(&img);
            self.cpu_iteration(&mut img, q0);
        }
        f32s_to_words(&img)
    }

    fn tolerance(&self) -> Tolerance {
        // Iterated nonlinear diffusion accumulates rounding differences in
        // the host-side q0 statistics; slightly wider than the default.
        Tolerance::Approx {
            rel: 2e-3,
            abs: 1e-4,
        }
    }

    /// Fixed diffusion iterations; the mined corrupted-but-terminating
    /// tail is short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Srad {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            size: 32,
            iterations: 2,
            lambda: 0.5,
        }
    }
}

/// Registers `srad` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "srad", Srad);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Srad {
        Srad {
            size: 24,
            iterations: 3,
            lambda: 0.5,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let sr = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = sr.run(&mut s).expect("runs");
        sr.verify(&out).expect("matches reference");
    }

    #[test]
    fn diffusion_smooths_the_image() {
        let sr = small();
        let before = sr.image();
        let var = |v: &[f32]| {
            let m: f32 = v.iter().sum::<f32>() / v.len() as f32;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / v.len() as f32
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = sr.run(&mut s).expect("runs");
        let after: Vec<f32> = out.iter().map(|w| f32::from_bits(*w)).collect();
        assert!(
            var(&after) < var(&before),
            "anisotropic diffusion must reduce variance"
        );
    }

    #[test]
    fn two_kernels_per_iteration() {
        let sr = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        sr.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len() as u32, 2 * sr.iterations);
    }
}
