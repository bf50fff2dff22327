//! `hotspot` — thermal simulation stencil (Rodinia).
//!
//! Iterative 5-point stencil over a 2D temperature grid with a power map;
//! ping-pong buffers, one kernel launch per time step (paper category:
//! friendly).

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

/// Hotspot benchmark.
#[derive(Debug, Clone)]
pub struct Hotspot {
    /// Grid width (and height).
    pub size: u32,
    /// Time steps.
    pub steps: u32,
    /// Rx/Ry/Rz thermal coefficients.
    pub rx: f32,
    /// See `rx`.
    pub ry: f32,
    /// See `rx`.
    pub rz: f32,
    /// Thermal capacitance step.
    pub cap: f32,
    /// Ambient temperature.
    pub amb: f32,
}

impl Default for Hotspot {
    fn default() -> Self {
        Self {
            size: 256,
            steps: 2,
            rx: 0.1,
            ry: 0.1,
            rz: 0.05,
            cap: 0.5,
            amb: 80.0,
        }
    }
}

impl Hotspot {
    fn temp_data(&self) -> Vec<f32> {
        data::f32_vec(0x807, (self.size * self.size) as usize, 320.0, 345.0)
    }

    fn power_data(&self) -> Vec<f32> {
        data::f32_vec(0x808, (self.size * self.size) as usize, 0.0, 0.2)
    }

    /// One stencil step: `out = step(temp, power)`.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("hotspot_step");
        let temp = b.param(0);
        let power = b.param(1);
        let out = b.param(2);
        let w = b.param(3);
        let h = b.param(4);
        let rx = b.param(5);
        let ry = b.param(6);
        let rz = b.param(7);
        let cap = b.param(8);
        let amb = b.param(9);

        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, w);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, h);
            b.if_(y_ok, |b| {
                let wm1 = b.isub(w, 1u32);
                let hm1 = b.isub(h, 1u32);
                // Clamped neighbor coordinates (no divergence).
                let xm = b.isub(x, 1u32);
                let xw = b.imax(xm, 0u32);
                let xp = b.iadd(x, 1u32);
                let xe = b.imin(xp, wm1);
                let ym = b.isub(y, 1u32);
                let yn = b.imax(ym, 0u32);
                let yp = b.iadd(y, 1u32);
                let ys = b.imin(yp, hm1);

                let idx = b.imad(y, w, x);
                let addr_of = |b: &mut KernelBuilder, yy, xx| {
                    let i = b.imad(yy, w, xx);
                    b.addr_w(temp, i)
                };
                let ca = b.addr_w(temp, idx);
                let tc = b.ldg(ca, 0);
                let na = addr_of(b, yn, x);
                let tn = b.ldg(na, 0);
                let sa = addr_of(b, ys, x);
                let ts = b.ldg(sa, 0);
                let ea = addr_of(b, y, xe);
                let te = b.ldg(ea, 0);
                let wa = addr_of(b, y, xw);
                let tw = b.ldg(wa, 0);
                let pa = b.addr_w(power, idx);
                let pv = b.ldg(pa, 0);

                // vertical = (tn + ts) - 2*tc ; horizontal = (te + tw) - 2*tc
                let vsum = b.fadd(tn, ts);
                let vterm = b.ffma(tc, -2.0f32, vsum);
                let hsum = b.fadd(te, tw);
                let hterm = b.ffma(tc, -2.0f32, hsum);
                let aterm = b.fsub(amb, tc);
                // delta = power + vterm*ry + hterm*rx + aterm*rz
                let acc = b.ffma(vterm, ry, pv);
                let acc2 = b.ffma(hterm, rx, acc);
                let acc3 = b.ffma(aterm, rz, acc2);
                let result = b.ffma(acc3, cap, tc);
                let oa = b.addr_w(out, idx);
                b.stg(oa, 0, result);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    fn step_cpu(&self, temp: &[f32], power: &[f32], out: &mut [f32]) {
        let n = self.size as usize;
        for y in 0..n {
            for x in 0..n {
                let idx = y * n + x;
                let tc = temp[idx];
                let tn = temp[y.saturating_sub(1) * n + x];
                let ts = temp[(y + 1).min(n - 1) * n + x];
                let te = temp[y * n + (x + 1).min(n - 1)];
                let tw = temp[y * n + x.saturating_sub(1)];
                let vterm = tc.mul_add(-2.0, tn + ts);
                let hterm = tc.mul_add(-2.0, te + tw);
                let aterm = self.amb - tc;
                let acc = vterm.mul_add(self.ry, power[idx]);
                let acc2 = hterm.mul_add(self.rx, acc);
                let acc3 = aterm.mul_add(self.rz, acc2);
                out[idx] = acc3.mul_add(self.cap, tc);
            }
        }
    }
}

impl Workload for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.size;
        let words = n * n;
        let t0 = s.alloc_words(words)?;
        let t1 = s.alloc_words(words)?;
        let p = s.alloc_words(words)?;
        s.write_f32(t0, &self.temp_data())?;
        s.write_f32(p, &self.power_data())?;
        let kernel = self.kernel();
        let grid = Dim3::xy(n.div_ceil(16), n.div_ceil(16));
        let block = Dim3::xy(16, 16);
        let mut src = t0;
        let mut dst = t1;
        for _ in 0..self.steps {
            s.launch(
                &kernel,
                grid,
                block,
                0,
                &[
                    SParam::Buf(src),
                    SParam::Buf(p),
                    SParam::Buf(dst),
                    SParam::U32(n),
                    SParam::U32(n),
                    SParam::F32(self.rx),
                    SParam::F32(self.ry),
                    SParam::F32(self.rz),
                    SParam::F32(self.cap),
                    SParam::F32(self.amb),
                ],
            )?;
            s.sync()?;
            std::mem::swap(&mut src, &mut dst);
        }
        s.read_u32(src, words as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let mut cur = self.temp_data();
        let power = self.power_data();
        let mut next = vec![0.0f32; cur.len()];
        for _ in 0..self.steps {
            self.step_cpu(&cur, &power, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        f32s_to_words(&cur)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// Fixed stencil iterations; corrupted temperatures cannot
    /// extend them, so the mined budget holds.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Hotspot {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            size: 32,
            steps: 2,
            ..Self::default()
        }
    }
}

/// Registers `hotspot` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "hotspot", Hotspot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Hotspot {
        Hotspot {
            size: 32,
            steps: 3,
            ..Hotspot::default()
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let h = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = h.run(&mut s).expect("runs");
        h.verify(&out).expect("matches reference");
    }

    #[test]
    fn one_launch_per_step() {
        let h = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        h.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len() as u32, h.steps);
    }

    #[test]
    fn temperatures_stay_physical() {
        let h = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = h.run(&mut s).expect("runs");
        for w in out {
            let v = f32::from_bits(w);
            assert!(v.is_finite());
            assert!((0.0..1000.0).contains(&v), "temperature {v} diverged");
        }
    }
}
