//! `hotspot3D` — 3D thermal simulation stencil (Rodinia).
//!
//! 7-point stencil over a 3D temperature volume; each thread walks the z
//! column (as in the original CUDA kernel), one launch per time step
//! (paper category: friendly).

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

/// Hotspot3D benchmark.
#[derive(Debug, Clone)]
pub struct Hotspot3d {
    /// x/y extent.
    pub nx: u32,
    /// z extent (column walked per thread).
    pub nz: u32,
    /// Time steps.
    pub steps: u32,
    /// Lateral coefficient.
    pub cc: f32,
    /// Neighbour coefficient.
    pub cn: f32,
    /// Vertical coefficient.
    pub cz: f32,
}

impl Default for Hotspot3d {
    fn default() -> Self {
        Self {
            nx: 96,
            nz: 10,
            steps: 3,
            cc: 0.6,
            cn: 0.08,
            cz: 0.04,
        }
    }
}

impl Hotspot3d {
    fn words(&self) -> u32 {
        self.nx * self.nx * self.nz
    }

    fn temp_data(&self) -> Vec<f32> {
        data::f32_vec(0x3d07, self.words() as usize, 320.0, 345.0)
    }

    fn power_data(&self) -> Vec<f32> {
        data::f32_vec(0x3d08, self.words() as usize, 0.0, 0.1)
    }

    /// One stencil step: each (x, y) thread walks the z column.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("hotspot3d_step");
        let temp = b.param(0);
        let power = b.param(1);
        let out = b.param(2);
        let nx = b.param(3);
        let nz = b.param(4);
        let cc = b.param(5);
        let cn = b.param(6);
        let cz = b.param(7);

        let x = b.global_tid_x();
        let y = b.global_tid_y();
        let x_ok = b.isetp(CmpOp::Lt, x, nx);
        b.if_(x_ok, |b| {
            let y_ok = b.isetp(CmpOp::Lt, y, nx);
            b.if_(y_ok, |b| {
                let nm1 = b.isub(nx, 1u32);
                let zm1 = b.isub(nz, 1u32);
                let layer = b.imul(nx, nx);
                let xm = b.isub(x, 1u32);
                let xw = b.imax(xm, 0u32);
                let xp = b.iadd(x, 1u32);
                let xe = b.imin(xp, nm1);
                let ym = b.isub(y, 1u32);
                let yn = b.imax(ym, 0u32);
                let yp = b.iadd(y, 1u32);
                let ys = b.imin(yp, nm1);
                b.for_range(0u32, nz, 1u32, |b, z| {
                    let zm = b.isub(z, 1u32);
                    let zb = b.imax(zm, 0u32);
                    let zp = b.iadd(z, 1u32);
                    let zt = b.imin(zp, zm1);
                    let plane = b.imul(z, layer);
                    let row = b.imad(y, nx, x);
                    let idx = b.iadd(plane, row);
                    let load = |b: &mut KernelBuilder, zz, yy, xx| {
                        let pl = b.imul(zz, layer);
                        let rw = b.imad(yy, nx, xx);
                        let ii = b.iadd(pl, rw);
                        let aa = b.addr_w(temp, ii);
                        b.ldg(aa, 0)
                    };
                    let ca = b.addr_w(temp, idx);
                    let tc = b.ldg(ca, 0);
                    let tn = load(b, z, yn, x);
                    let ts = load(b, z, ys, x);
                    let te = load(b, z, y, xe);
                    let tw = load(b, z, y, xw);
                    let tb = load(b, zb, y, x);
                    let tt = load(b, zt, y, x);
                    let pa = b.addr_w(power, idx);
                    let pv = b.ldg(pa, 0);
                    // out = tc*cc + (tn+ts+te+tw)*cn + (tt+tb)*cz + power
                    let lat1 = b.fadd(tn, ts);
                    let lat2 = b.fadd(te, tw);
                    let lat = b.fadd(lat1, lat2);
                    let ver = b.fadd(tt, tb);
                    let acc = b.fmul(tc, cc);
                    let acc2 = b.ffma(lat, cn, acc);
                    let acc3 = b.ffma(ver, cz, acc2);
                    let result = b.fadd(acc3, pv);
                    let oa = b.addr_w(out, idx);
                    b.stg(oa, 0, result);
                });
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    fn step_cpu(&self, temp: &[f32], power: &[f32], out: &mut [f32]) {
        let n = self.nx as usize;
        let d = self.nz as usize;
        let layer = n * n;
        for z in 0..d {
            for y in 0..n {
                for x in 0..n {
                    let idx = z * layer + y * n + x;
                    let tc = temp[idx];
                    let tn = temp[z * layer + y.saturating_sub(1) * n + x];
                    let ts = temp[z * layer + (y + 1).min(n - 1) * n + x];
                    let te = temp[z * layer + y * n + (x + 1).min(n - 1)];
                    let tw = temp[z * layer + y * n + x.saturating_sub(1)];
                    let tb = temp[z.saturating_sub(1) * layer + y * n + x];
                    let tt = temp[(z + 1).min(d - 1) * layer + y * n + x];
                    let lat = (tn + ts) + (te + tw);
                    let ver = tt + tb;
                    let acc = tc * self.cc;
                    let acc2 = lat.mul_add(self.cn, acc);
                    let acc3 = ver.mul_add(self.cz, acc2);
                    out[idx] = acc3 + power[idx];
                }
            }
        }
    }
}

impl Workload for Hotspot3d {
    fn name(&self) -> &'static str {
        "hotspot3D"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let words = self.words();
        let t0 = s.alloc_words(words)?;
        let t1 = s.alloc_words(words)?;
        let p = s.alloc_words(words)?;
        s.write_f32(t0, &self.temp_data())?;
        s.write_f32(p, &self.power_data())?;
        let kernel = self.kernel();
        let grid = Dim3::xy(self.nx.div_ceil(16), self.nx.div_ceil(16));
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
                    SParam::U32(self.nx),
                    SParam::U32(self.nz),
                    SParam::F32(self.cc),
                    SParam::F32(self.cn),
                    SParam::F32(self.cz),
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

    /// Fixed 3D stencil iterations; corrupted temperatures cannot
    /// extend them, so the mined budget holds.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Hotspot3d {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            nx: 32,
            nz: 4,
            steps: 2,
            ..Self::default()
        }
    }
}

/// Registers `hotspot3D` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "hotspot3D", Hotspot3d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Hotspot3d {
        Hotspot3d {
            nx: 16,
            nz: 4,
            steps: 2,
            ..Hotspot3d::default()
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
    fn volume_size_is_respected() {
        let h = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = h.run(&mut s).expect("runs");
        assert_eq!(out.len() as u32, h.nx * h.nx * h.nz);
    }
}
