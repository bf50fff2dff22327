//! `cfd` — computational fluid dynamics (Rodinia euler3d, reduced to a 1D
//! Euler shock tube with the same kernel structure).
//!
//! Per time step: a flux kernel (Rusanov/local Lax-Friedrichs interface
//! fluxes, with sound-speed square roots and divisions — the hot math of
//! euler3d's `compute_flux`) and an update kernel. Long, kernel-dominated
//! execution: one of the two benchmarks whose end-to-end time the paper
//! shows is visibly hurt by redundancy (Fig. 5).

use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    f32s_to_words, register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload,
    WorkloadRegistry,
};
use std::sync::Arc;

const GAMMA: f32 = 1.4;

/// CFD benchmark (1D Euler, 3 conserved variables per cell).
#[derive(Debug, Clone)]
pub struct Cfd {
    /// Cells.
    pub cells: u32,
    /// Time steps.
    pub steps: u32,
    /// dt/dx.
    pub dtdx: f32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl Default for Cfd {
    fn default() -> Self {
        Self {
            cells: 8192,
            steps: 120,
            dtdx: 0.1,
            threads_per_block: 192,
        }
    }
}

impl Cfd {
    /// Sod shock tube initial condition: `[rho, rho*u, E]` per cell.
    fn initial_state(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = self.cells as usize;
        let mut rho = vec![0.125f32; n];
        let mut mom = vec![0.0f32; n];
        let mut ene = vec![0.25f32; n];
        for i in 0..n / 2 {
            rho[i] = 1.0;
            mom[i] = 0.0;
            ene[i] = 2.5;
        }
        (rho, mom, ene)
    }

    /// Flux kernel: Rusanov flux at interface `i` (between cells `i-1`,`i`).
    pub fn flux_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("cfd_flux");
        let rho = b.param(0);
        let mom = b.param(1);
        let ene = b.param(2);
        let f_rho = b.param(3);
        let f_mom = b.param(4);
        let f_ene = b.param(5);
        let n = b.param(6);
        let i = b.global_tid_x();
        let lo = b.isetp(CmpOp::Gt, i, 0u32);
        b.if_(lo, |b| {
            let hi = b.isetp(CmpOp::Lt, i, n);
            b.if_(hi, |b| {
                let im1 = b.isub(i, 1u32);
                // per-side primitive recovery + physical flux
                let side = |b: &mut KernelBuilder, idx| {
                    let ra = b.addr_w(rho, idx);
                    let ma = b.addr_w(mom, idx);
                    let ea = b.addr_w(ene, idx);
                    let r = b.ldg(ra, 0);
                    let m = b.ldg(ma, 0);
                    let e = b.ldg(ea, 0);
                    let u = b.fdiv(m, r);
                    let ke = b.fmul(m, u); // rho*u²
                    let kehalf = b.fmul(ke, 0.5f32);
                    let inner = b.fsub(e, kehalf);
                    let p = b.fmul(inner, GAMMA - 1.0);
                    // fluxes: [m, m*u + p, u*(e + p)]
                    let f1 = b.mov(m);
                    let f2 = b.ffma(m, u, p);
                    let ep = b.fadd(e, p);
                    let f3 = b.fmul(u, ep);
                    // wave speed |u| + sqrt(gamma*p/rho)
                    let pr = b.fdiv(p, r);
                    let gpr = b.fmul(pr, GAMMA);
                    let c = b.fsqrt(gpr);
                    let au = b.fabs(u);
                    let speed = b.fadd(au, c);
                    (r, m, e, f1, f2, f3, speed)
                };
                let (rl, ml, el, fl1, fl2, fl3, sl) = side(b, im1);
                let (rr, mr, er, fr1, fr2, fr3, sr) = side(b, i);
                let a = b.fmax(sl, sr);
                // F = 0.5*(FL + FR) - 0.5*a*(UR - UL), one component at a time
                let component = |b: &mut KernelBuilder, fl, fr, ul, ur, out| {
                    let favg0 = b.fadd(fl, fr);
                    let favg = b.fmul(favg0, 0.5f32);
                    let du = b.fsub(ur, ul);
                    let adu = b.fmul(a, du);
                    let half_adu = b.fmul(adu, 0.5f32);
                    let f = b.fsub(favg, half_adu);
                    let oa = b.addr_w(out, i);
                    b.stg(oa, 0, f);
                };
                component(b, fl1, fr1, rl, rr, f_rho);
                component(b, fl2, fr2, ml, mr, f_mom);
                component(b, fl3, fr3, el, er, f_ene);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Update kernel: `U_i -= dtdx * (F_{i+1} - F_i)` for interior cells.
    pub fn update_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("cfd_update");
        let rho = b.param(0);
        let mom = b.param(1);
        let ene = b.param(2);
        let f_rho = b.param(3);
        let f_mom = b.param(4);
        let f_ene = b.param(5);
        let n = b.param(6);
        let dtdx = b.param(7);
        let i = b.global_tid_x();
        let lo = b.isetp(CmpOp::Gt, i, 0u32);
        b.if_(lo, |b| {
            let nm1 = b.isub(n, 1u32);
            let hi = b.isetp(CmpOp::Lt, i, nm1);
            b.if_(hi, |b| {
                let ip1 = b.iadd(i, 1u32);
                let component = |b: &mut KernelBuilder, state, flux| {
                    let fa = b.addr_w(flux, i);
                    let fl = b.ldg(fa, 0);
                    let fa1 = b.addr_w(flux, ip1);
                    let fr = b.ldg(fa1, 0);
                    let df = b.fsub(fr, fl);
                    let sa = b.addr_w(state, i);
                    let sv = b.ldg(sa, 0);
                    let ndf = b.fneg(df);
                    let upd = b.ffma(ndf, dtdx, sv);
                    b.stg(sa, 0, upd);
                };
                component(b, rho, f_rho);
                component(b, mom, f_mom);
                component(b, ene, f_ene);
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    fn cpu_step(&self, rho: &mut [f32], mom: &mut [f32], ene: &mut [f32]) {
        let n = self.cells as usize;
        let prim = |r: f32, m: f32, e: f32| {
            let u = m / r;
            let p = (e - (m * u) * 0.5) * (GAMMA - 1.0);
            let speed = u.abs() + (p / r * GAMMA).sqrt();
            (u, p, speed)
        };
        let mut fr = vec![0.0f32; n];
        let mut fm = vec![0.0f32; n];
        let mut fe = vec![0.0f32; n];
        for i in 1..n {
            let (ul, pl, sl) = prim(rho[i - 1], mom[i - 1], ene[i - 1]);
            let (ur, pr, sr) = prim(rho[i], mom[i], ene[i]);
            let a = sl.max(sr);
            let flux = |f_l: f32, f_r: f32, q_l: f32, q_r: f32| {
                (f_l + f_r) * 0.5 - (a * (q_r - q_l)) * 0.5
            };
            fr[i] = flux(mom[i - 1], mom[i], rho[i - 1], rho[i]);
            fm[i] = flux(
                mom[i - 1].mul_add(ul, pl),
                mom[i].mul_add(ur, pr),
                mom[i - 1],
                mom[i],
            );
            fe[i] = flux(
                ul * (ene[i - 1] + pl),
                ur * (ene[i] + pr),
                ene[i - 1],
                ene[i],
            );
        }
        for i in 1..n - 1 {
            rho[i] = (-(fr[i + 1] - fr[i])).mul_add(self.dtdx, rho[i]);
            mom[i] = (-(fm[i + 1] - fm[i])).mul_add(self.dtdx, mom[i]);
            ene[i] = (-(fe[i + 1] - fe[i])).mul_add(self.dtdx, ene[i]);
        }
    }
}

impl Workload for Cfd {
    fn name(&self) -> &'static str {
        "cfd"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.cells;
        let (rho, mom, ene) = self.initial_state();
        let rho_b = s.alloc_words(n)?;
        let mom_b = s.alloc_words(n)?;
        let ene_b = s.alloc_words(n)?;
        let fr_b = s.alloc_words(n)?;
        let fm_b = s.alloc_words(n)?;
        let fe_b = s.alloc_words(n)?;
        s.write_f32(rho_b, &rho)?;
        s.write_f32(mom_b, &mom)?;
        s.write_f32(ene_b, &ene)?;
        let flux = self.flux_kernel();
        let update = self.update_kernel();
        let grid = Dim3::x(n.div_ceil(self.threads_per_block));
        let block = Dim3::x(self.threads_per_block);
        let bufs = [
            SParam::Buf(rho_b),
            SParam::Buf(mom_b),
            SParam::Buf(ene_b),
            SParam::Buf(fr_b),
            SParam::Buf(fm_b),
            SParam::Buf(fe_b),
        ];
        for _ in 0..self.steps {
            let mut p = bufs.to_vec();
            p.push(SParam::U32(n));
            s.launch(&flux, grid, block, 0, &p)?;
            s.sync()?;
            let mut p = bufs.to_vec();
            p.push(SParam::U32(n));
            p.push(SParam::F32(self.dtdx));
            s.launch(&update, grid, block, 0, &p)?;
            s.sync()?;
        }
        let mut out = s.read_u32(rho_b, n as usize)?;
        out.extend(s.read_u32(mom_b, n as usize)?);
        out.extend(s.read_u32(ene_b, n as usize)?);
        Ok(out)
    }

    fn reference(&self) -> Vec<u32> {
        let (mut rho, mut mom, mut ene) = self.initial_state();
        for _ in 0..self.steps {
            self.cpu_step(&mut rho, &mut mom, &mut ene);
        }
        let mut out = f32s_to_words(&rho);
        out.extend(f32s_to_words(&mom));
        out.extend(f32s_to_words(&ene));
        out
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Approx {
            rel: 2e-3,
            abs: 1e-4,
        }
    }

    /// Fixed-step explicit solver; per-step cost is data-independent and
    /// the mined corrupted-but-terminating tail is short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Cfd {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            cells: 256,
            steps: 3,
            dtdx: 0.1,
            threads_per_block: 64,
        }
    }
}

/// Registers `cfd` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "cfd", Cfd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Cfd {
        Cfd {
            cells: 256,
            steps: 10,
            dtdx: 0.1,
            threads_per_block: 64,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let c = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = c.run(&mut s).expect("runs");
        c.verify(&out).expect("matches reference");
    }

    #[test]
    fn mass_is_conserved_in_the_interior() {
        let c = small();
        let (rho0, _, _) = c.initial_state();
        let mass0: f32 = rho0.iter().sum();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = c.run(&mut s).expect("runs");
        let mass: f32 = out[..c.cells as usize]
            .iter()
            .map(|w| f32::from_bits(*w))
            .sum();
        let rel = (mass - mass0).abs() / mass0;
        assert!(rel < 1e-2, "mass drift {rel} (boundary cells are frozen)");
    }

    #[test]
    fn densities_stay_positive() {
        let c = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = c.run(&mut s).expect("runs");
        for w in &out[..c.cells as usize] {
            let v = f32::from_bits(*w);
            assert!(v > 0.0 && v.is_finite(), "density {v} unphysical");
        }
    }
}
