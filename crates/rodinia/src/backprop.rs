//! `backprop` — neural-network layer training (Rodinia).
//!
//! Two short kernels (paper category: short, resource-hungry):
//! `layerforward` computes the hidden activations
//! `h[j] = sigmoid(Σ_i in[i] · w[i][j])`, and `adjust_weights` applies
//! `w[i][j] += lr · δ[j] · in[i]`.

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

/// Backpropagation benchmark.
#[derive(Debug, Clone)]
pub struct Backprop {
    /// Input-layer units.
    pub inputs: u32,
    /// Hidden-layer units.
    pub hidden: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Learning rate.
    pub eta: f32,
}

impl Default for Backprop {
    fn default() -> Self {
        Self {
            inputs: 16,
            hidden: 768,
            threads_per_block: 256,
            eta: 0.3,
        }
    }
}

impl Backprop {
    fn input_data(&self) -> Vec<f32> {
        data::f32_vec(0xb9c0, self.inputs as usize, 0.0, 1.0)
    }

    fn weight_data(&self) -> Vec<f32> {
        data::f32_vec(0xb9c1, (self.inputs * self.hidden) as usize, -0.5, 0.5)
    }

    fn delta_data(&self) -> Vec<f32> {
        data::f32_vec(0xb9c2, self.hidden as usize, -0.1, 0.1)
    }

    /// `layerforward`: one thread per hidden unit.
    pub fn layerforward_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("bp_layerforward");
        let input = b.param(0);
        let weights = b.param(1);
        let hidden_out = b.param(2);
        let n_in = b.param(3);
        let n_hid = b.param(4);
        let j = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, j, n_hid);
        b.if_(in_range, |b| {
            let sum = b.mov(0.0f32);
            // w is row-major [i][j]: address = weights + (i*n_hid + j)*4
            let waddr = b.addr_w(weights, j);
            let stride = b.ishl(n_hid, 2u32);
            let iaddr = b.mov(input);
            b.for_range(0u32, n_in, 1u32, |b, _i| {
                let inv = b.ldg(iaddr, 0);
                let wv = b.ldg(waddr, 0);
                b.ffma_to(sum, inv, wv, sum);
                b.iadd_to(iaddr, iaddr, 4u32);
                b.iadd_to(waddr, waddr, stride);
            });
            // sigmoid(sum) = 1 / (1 + exp(-sum))
            let neg = b.fneg(sum);
            let e = b.fexp(neg);
            let denom = b.fadd(e, 1.0f32);
            let act = b.frcp(denom);
            let oa = b.addr_w(hidden_out, j);
            b.stg(oa, 0, act);
        });
        b.build().expect("well-formed").into_shared()
    }

    /// `adjust_weights`: one thread per weight.
    pub fn adjust_weights_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("bp_adjust_weights");
        let input = b.param(0);
        let weights = b.param(1);
        let delta = b.param(2);
        let n_hid = b.param(3);
        let total = b.param(4);
        let eta = b.param(5);
        let t = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, t, total);
        b.if_(in_range, |b| {
            let i = b.idiv(t, n_hid);
            let j = b.irem(t, n_hid);
            let ia = b.addr_w(input, i);
            let da = b.addr_w(delta, j);
            let wa = b.addr_w(weights, t);
            let inv = b.ldg(ia, 0);
            let dv = b.ldg(da, 0);
            let wv = b.ldg(wa, 0);
            let step = b.fmul(dv, inv);
            let upd = b.ffma(step, eta, wv);
            b.stg(wa, 0, upd);
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Backprop {
    fn name(&self) -> &'static str {
        "backprop"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let tpb = self.threads_per_block;
        let input = self.input_data();
        let weights = self.weight_data();
        let delta = self.delta_data();
        let in_b = s.alloc_words(self.inputs)?;
        let w_b = s.alloc_words(self.inputs * self.hidden)?;
        let hid_b = s.alloc_words(self.hidden)?;
        let d_b = s.alloc_words(self.hidden)?;
        s.write_f32(in_b, &input)?;
        s.write_f32(w_b, &weights)?;
        s.write_f32(d_b, &delta)?;

        s.launch(
            &self.layerforward_kernel(),
            Dim3::x(self.hidden.div_ceil(tpb)),
            Dim3::x(tpb),
            0,
            &[
                SParam::Buf(in_b),
                SParam::Buf(w_b),
                SParam::Buf(hid_b),
                SParam::U32(self.inputs),
                SParam::U32(self.hidden),
            ],
        )?;
        s.sync()?;

        let total = self.inputs * self.hidden;
        s.launch(
            &self.adjust_weights_kernel(),
            Dim3::x(total.div_ceil(tpb)),
            Dim3::x(tpb),
            0,
            &[
                SParam::Buf(in_b),
                SParam::Buf(w_b),
                SParam::Buf(d_b),
                SParam::U32(self.hidden),
                SParam::U32(total),
                SParam::F32(self.eta),
            ],
        )?;
        s.sync()?;

        // Output: hidden activations followed by the updated weights.
        let mut out = s.read_u32(hid_b, self.hidden as usize)?;
        out.extend(s.read_u32(w_b, total as usize)?);
        Ok(out)
    }

    fn reference(&self) -> Vec<u32> {
        let input = self.input_data();
        let mut weights = self.weight_data();
        let delta = self.delta_data();
        let nh = self.hidden as usize;
        let ni = self.inputs as usize;
        let mut hidden = vec![0.0f32; nh];
        for (j, h) in hidden.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for i in 0..ni {
                sum = input[i].mul_add(weights[i * nh + j], sum);
            }
            *h = 1.0 / (1.0 + (-sum).exp());
        }
        for i in 0..ni {
            for j in 0..nh {
                let step = delta[j] * input[i];
                weights[i * nh + j] = step.mul_add(self.eta, weights[i * nh + j]);
            }
        }
        let mut out = f32s_to_words(&hidden);
        out.extend(f32s_to_words(&weights));
        out
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// Fixed two-layer pass: corrupted runs either finish near the
    /// fault-free makespan or run away on a flipped loop bound. Mined
    /// corrupted-but-terminating tail is short, so the mined budget holds.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Backprop {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            inputs: 8,
            hidden: 64,
            threads_per_block: 32,
            eta: 0.3,
        }
    }
}

/// Registers `backprop` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "backprop", Backprop);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Backprop {
        Backprop {
            inputs: 16,
            hidden: 128,
            threads_per_block: 64,
            eta: 0.3,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let bp = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = bp.run(&mut s).expect("runs");
        bp.verify(&out).expect("matches reference");
    }

    #[test]
    fn activations_are_sigmoid_bounded() {
        let bp = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = bp.run(&mut s).expect("runs");
        for w in &out[..bp.hidden as usize] {
            let v = f32::from_bits(*w);
            assert!((0.0..=1.0).contains(&v), "sigmoid output {v} out of range");
        }
    }

    #[test]
    fn uses_two_kernels() {
        let bp = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        bp.run(&mut s).expect("runs");
        assert_eq!(gpu.trace().kernels.len(), 2);
    }
}
