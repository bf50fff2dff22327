//! `nn` — nearest neighbor (Rodinia).
//!
//! Computes the Euclidean distance of every record (latitude/longitude) to a
//! target location; the host then selects the minimum. One very *short*
//! kernel (paper category: short), dominated by launch latency.

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

/// Nearest-neighbor benchmark.
#[derive(Debug, Clone)]
pub struct Nn {
    /// Number of records.
    pub records: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Target latitude.
    pub target_lat: f32,
    /// Target longitude.
    pub target_lng: f32,
}

impl Default for Nn {
    fn default() -> Self {
        Self {
            records: 4096,
            threads_per_block: 256,
            target_lat: 30.0,
            target_lng: 90.0,
        }
    }
}

impl Nn {
    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let lat = data::f32_vec(0x4e4e01, self.records as usize, 0.0, 64.0);
        let lng = data::f32_vec(0x4e4e02, self.records as usize, 0.0, 180.0);
        (lat, lng)
    }

    /// The distance kernel.
    pub fn kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("nn_distance");
        let lat = b.param(0);
        let lng = b.param(1);
        let out = b.param(2);
        let n = b.param(3);
        let lat0 = b.param(4);
        let lng0 = b.param(5);
        let i = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, i, n);
        b.if_(in_range, |b| {
            let la = b.addr_w(lat, i);
            let lo = b.addr_w(lng, i);
            let lv = b.ldg(la, 0);
            let gv = b.ldg(lo, 0);
            let dlat = b.fsub(lv, lat0);
            let dlng = b.fsub(gv, lng0);
            let sq = b.fmul(dlat, dlat);
            let sum = b.ffma(dlng, dlng, sq);
            let d = b.fsqrt(sum);
            let oa = b.addr_w(out, i);
            b.stg(oa, 0, d);
        });
        b.build().expect("well-formed").into_shared()
    }

    fn grid(&self) -> Dim3 {
        Dim3::x(self.records.div_ceil(self.threads_per_block))
    }
}

impl Workload for Nn {
    fn name(&self) -> &'static str {
        "nn"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let (lat, lng) = self.inputs();
        let lat_b = s.alloc_words(self.records)?;
        let lng_b = s.alloc_words(self.records)?;
        let out_b = s.alloc_words(self.records)?;
        s.write_f32(lat_b, &lat)?;
        s.write_f32(lng_b, &lng)?;
        s.launch(
            &self.kernel(),
            self.grid(),
            Dim3::x(self.threads_per_block),
            0,
            &[
                SParam::Buf(lat_b),
                SParam::Buf(lng_b),
                SParam::Buf(out_b),
                SParam::U32(self.records),
                SParam::F32(self.target_lat),
                SParam::F32(self.target_lng),
            ],
        )?;
        s.read_u32(out_b, self.records as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let (lat, lng) = self.inputs();
        let out: Vec<f32> = lat
            .iter()
            .zip(&lng)
            .map(|(&la, &lo)| {
                let dlat = la - self.target_lat;
                let dlng = lo - self.target_lng;
                dlng.mul_add(dlng, dlat * dlat).sqrt()
            })
            .collect();
        f32s_to_words(&out)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::approx()
    }

    /// One short, launch-latency-dominated kernel; the deadline's fixed
    /// slack dominates the budget, so the mined multiplier is safe.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Nn {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            records: 256,
            threads_per_block: 64,
            ..Self::default()
        }
    }
}

/// Registers `nn` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "nn", Nn);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    #[test]
    fn matches_cpu_reference() {
        let nn = Nn {
            records: 512,
            ..Nn::default()
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = nn.run(&mut s).expect("runs");
        nn.verify(&out).expect("matches reference");
    }

    #[test]
    fn partial_last_block_is_handled() {
        let nn = Nn {
            records: 300, // not a multiple of 256
            ..Nn::default()
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = nn.run(&mut s).expect("runs");
        assert_eq!(out.len(), 300);
        nn.verify(&out).expect("matches reference");
    }

    #[test]
    fn deterministic_across_runs() {
        let nn = Nn {
            records: 256,
            ..Nn::default()
        };
        let run = || {
            let mut gpu = Gpu::new(GpuConfig::paper_6sm());
            let mut s = SoloSession::new(&mut gpu);
            nn.run(&mut s).expect("runs")
        };
        assert_eq!(run(), run());
    }
}
