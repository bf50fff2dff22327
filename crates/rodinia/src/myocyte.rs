//! `myocyte` — cardiac myocyte ODE simulation (Rodinia).
//!
//! Each thread integrates the nonlinear membrane/recovery dynamics of one
//! cell (a FitzHugh–Nagumo-class system standing in for the original
//! 91-equation model) over thousands of explicit Euler steps. Very long
//! kernel, very few blocks — the paper's poster child for SRRS overhead
//! (~2× under serialization, ~1× under HALF).

use higpu_sim::builder::KernelBuilder;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    f32s_to_words, register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload,
    WorkloadRegistry,
};
use std::sync::Arc;

/// Myocyte benchmark.
#[derive(Debug, Clone)]
pub struct Myocyte {
    /// Cells simulated (one thread each).
    pub cells: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Euler steps.
    pub steps: u32,
    /// Time step.
    pub dt: f32,
}

impl Default for Myocyte {
    fn default() -> Self {
        Self {
            cells: 64,
            threads_per_block: 32,
            steps: 3000,
            dt: 0.02,
        }
    }
}

impl Myocyte {
    /// The integration kernel: per-thread sequential ODE solve.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("myocyte_solve");
        let v_out = b.param(0);
        let w_out = b.param(1);
        let n = b.param(2);
        let steps = b.param(3);
        let dt = b.param(4);
        let i = b.global_tid_x();
        let in_range = b.isetp(higpu_sim::isa::CmpOp::Lt, i, n);
        b.if_(in_range, |b| {
            // Per-cell parameters derived from the thread index.
            let fi = b.i2f(i);
            let stim = b.ffma(fi, 0.002f32, 0.45f32); // I_ext
            let a = b.mov(0.7f32);
            let bb = b.mov(0.8f32);
            let eps = b.ffma(fi, 0.0001f32, 0.08f32);
            let v = b.mov(-1.0f32);
            let w = b.mov(1.0f32);
            b.for_range(0u32, steps, 1u32, |b, _s| {
                // dv = v - v^3/3 - w + I
                let v2 = b.fmul(v, v);
                let v3 = b.fmul(v2, v);
                let v3t = b.fmul(v3, 1.0f32 / 3.0);
                let dv0 = b.fsub(v, v3t);
                let dv1 = b.fsub(dv0, w);
                let dv = b.fadd(dv1, stim);
                // dw = eps * (v + a - b*w)
                let va = b.fadd(v, a);
                let bw = b.fmul(bb, w);
                let inner = b.fsub(va, bw);
                let dw = b.fmul(eps, inner);
                // Euler update
                b.ffma_to(v, dv, dt, v);
                b.ffma_to(w, dw, dt, w);
            });
            let va = b.addr_w(v_out, i);
            b.stg(va, 0, v);
            let wa = b.addr_w(w_out, i);
            b.stg(wa, 0, w);
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Myocyte {
    fn name(&self) -> &'static str {
        "myocyte"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let v_b = s.alloc_words(self.cells)?;
        let w_b = s.alloc_words(self.cells)?;
        s.launch(
            &self.kernel(),
            Dim3::x(self.cells.div_ceil(self.threads_per_block)),
            Dim3::x(self.threads_per_block),
            0,
            &[
                SParam::Buf(v_b),
                SParam::Buf(w_b),
                SParam::U32(self.cells),
                SParam::U32(self.steps),
                SParam::F32(self.dt),
            ],
        )?;
        let mut out = s.read_u32(v_b, self.cells as usize)?;
        out.extend(s.read_u32(w_b, self.cells as usize)?);
        Ok(out)
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.cells as usize;
        let mut vs = vec![0.0f32; n];
        let mut ws = vec![0.0f32; n];
        for i in 0..n {
            let fi = i as f32;
            let stim = fi.mul_add(0.002, 0.45);
            let a = 0.7f32;
            let bb = 0.8f32;
            let eps = fi.mul_add(0.0001, 0.08);
            let mut v = -1.0f32;
            let mut w = 1.0f32;
            for _ in 0..self.steps {
                let v3t = (v * v * v) * (1.0 / 3.0);
                let dv = ((v - v3t) - w) + stim;
                let dw = eps * ((v + a) - bb * w);
                v = dv.mul_add(self.dt, v);
                w = dw.mul_add(self.dt, w);
            }
            vs[i] = v;
            ws[i] = w;
        }
        let mut out = f32s_to_words(&vs);
        out.extend(f32s_to_words(&ws));
        out
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// Long serial per-thread ODE integration, but over a fixed number of
    /// solver steps. Corrupted state stretches individual solver steps: the
    /// mined corrupted-but-terminating p99.9 is 4.99× the fault-free
    /// makespan, so `myocyte` keeps the flat default budget rather than the
    /// mined 3×.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::DEFAULT_FTTI_MULTIPLIER
    }
}

impl Myocyte {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            cells: 16,
            threads_per_block: 16,
            steps: 200,
            ..Self::default()
        }
    }
}

/// Registers `myocyte` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "myocyte", Myocyte);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Myocyte {
        Myocyte {
            cells: 32,
            threads_per_block: 32,
            steps: 200,
            dt: 0.02,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let m = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = m.run(&mut s).expect("runs");
        m.verify(&out).expect("matches reference");
    }

    #[test]
    fn states_remain_bounded() {
        // FitzHugh–Nagumo trajectories live in a bounded attractor.
        let m = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = m.run(&mut s).expect("runs");
        for w in out {
            let v = f32::from_bits(w);
            assert!(v.is_finite());
            assert!(v.abs() < 10.0, "state {v} escaped the attractor");
        }
    }

    #[test]
    fn single_long_kernel() {
        let m = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        m.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len(), 1);
    }
}
