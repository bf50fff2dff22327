//! `kmeans` — k-means clustering (Rodinia).
//!
//! The GPU computes the nearest centroid for every point; the host
//! recomputes centroids from the assignments and iterates — the same
//! device/host split as the original (paper category: friendly/short).

use crate::data;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload, WorkloadRegistry,
};
use std::sync::Arc;

/// K-means benchmark.
#[derive(Debug, Clone)]
pub struct Kmeans {
    /// Points.
    pub points: u32,
    /// Features per point.
    pub features: u32,
    /// Clusters.
    pub k: u32,
    /// Assignment/update iterations.
    pub iterations: u32,
    /// Threads per block.
    pub threads_per_block: u32,
}

impl Default for Kmeans {
    fn default() -> Self {
        Self {
            points: 2048,
            features: 8,
            k: 5,
            iterations: 4,
            threads_per_block: 256,
        }
    }
}

impl Kmeans {
    fn point_data(&self) -> Vec<f32> {
        data::f32_vec(0x6b3a, (self.points * self.features) as usize, 0.0, 10.0)
    }

    fn initial_centroids(&self) -> Vec<f32> {
        let pts = self.point_data();
        let f = self.features as usize;
        // First k points, as in the Rodinia initialization.
        pts[..self.k as usize * f].to_vec()
    }

    /// Assignment kernel: nearest centroid per point (row-major features).
    pub fn assign_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("kmeans_assign");
        let points = b.param(0);
        let centroids = b.param(1);
        let membership = b.param(2);
        let n = b.param(3);
        let nfeat = b.param(4);
        let k = b.param(5);
        let i = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, i, n);
        b.if_(in_range, |b| {
            let pbase = b.imul(i, nfeat);
            let best_d = b.mov(f32::MAX);
            let best_c = b.mov(0u32);
            b.for_range(0u32, k, 1u32, |b, c| {
                let cbase = b.imul(c, nfeat);
                let acc = b.mov(0.0f32);
                b.for_range(0u32, nfeat, 1u32, |b, f| {
                    let pi = b.iadd(pbase, f);
                    let pa = b.addr_w(points, pi);
                    let pv = b.ldg(pa, 0);
                    let ci = b.iadd(cbase, f);
                    let ca = b.addr_w(centroids, ci);
                    let cv = b.ldg(ca, 0);
                    let d = b.fsub(pv, cv);
                    b.ffma_to(acc, d, d, acc);
                });
                let closer = b.fsetp(CmpOp::Lt, acc, best_d);
                b.if_(closer, |b| {
                    b.mov_to(best_d, acc);
                    b.mov_to(best_c, c);
                });
                b.release_preds(1);
            });
            let ma = b.addr_w(membership, i);
            b.stg(ma, 0, best_c);
        });
        b.build().expect("well-formed").into_shared()
    }

    fn cpu_assign(&self, pts: &[f32], cents: &[f32], membership: &mut [u32]) {
        let f = self.features as usize;
        for (i, m) in membership.iter_mut().enumerate() {
            let mut best_d = f32::MAX;
            let mut best_c = 0u32;
            for c in 0..self.k as usize {
                let mut acc = 0.0f32;
                for j in 0..f {
                    let d = pts[i * f + j] - cents[c * f + j];
                    acc = d.mul_add(d, acc);
                }
                if acc < best_d {
                    best_d = acc;
                    best_c = c as u32;
                }
            }
            *m = best_c;
        }
    }

    /// Host-side centroid update. In `run` the memberships come
    /// back from the device, where a fault can corrupt a cluster id past
    /// `k`: such an id is rejected as implausible, not used as an index.
    fn cpu_update(
        &self,
        pts: &[f32],
        membership: &[u32],
        cents: &mut [f32],
    ) -> Result<(), SessionError> {
        let f = self.features as usize;
        let mut counts = vec![0u32; self.k as usize];
        let mut sums = vec![0.0f32; self.k as usize * f];
        for (i, &m) in membership.iter().enumerate() {
            if m >= self.k {
                return Err(SessionError::Implausible {
                    what: "kmeans cluster id",
                    value: u64::from(m),
                });
            }
            let m = m as usize;
            counts[m] += 1;
            for j in 0..f {
                sums[m * f + j] += pts[i * f + j];
            }
        }
        for c in 0..self.k as usize {
            if counts[c] > 0 {
                for j in 0..f {
                    cents[c * f + j] = sums[c * f + j] / counts[c] as f32;
                }
            }
        }
        Ok(())
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let pts = self.point_data();
        let mut cents = self.initial_centroids();
        let p_b = s.alloc_words(self.points * self.features)?;
        let c_b = s.alloc_words(self.k * self.features)?;
        let m_b = s.alloc_words(self.points)?;
        s.write_f32(p_b, &pts)?;
        let kernel = self.assign_kernel();
        let grid = Dim3::x(self.points.div_ceil(self.threads_per_block));
        let block = Dim3::x(self.threads_per_block);
        let mut membership = vec![0u32; self.points as usize];
        for _ in 0..self.iterations {
            s.write_f32(c_b, &cents)?;
            s.launch(
                &kernel,
                grid,
                block,
                0,
                &[
                    SParam::Buf(p_b),
                    SParam::Buf(c_b),
                    SParam::Buf(m_b),
                    SParam::U32(self.points),
                    SParam::U32(self.features),
                    SParam::U32(self.k),
                ],
            )?;
            membership = s.read_u32(m_b, self.points as usize)?;
            // Host-side centroid update (as in Rodinia).
            self.cpu_update(&pts, &membership, &mut cents)?;
        }
        Ok(membership)
    }

    fn reference(&self) -> Vec<u32> {
        let pts = self.point_data();
        let mut cents = self.initial_centroids();
        let mut membership = vec![0u32; self.points as usize];
        for _ in 0..self.iterations {
            self.cpu_assign(&pts, &cents, &mut membership);
            self.cpu_update(&pts, &membership, &mut cents)
                .expect("CPU assignments are valid cluster ids");
        }
        membership
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Assignment/update rounds are fixed, not convergence-driven; the
    /// mined corrupted-but-terminating tail is short.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Kmeans {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            points: 256,
            features: 4,
            k: 3,
            iterations: 2,
            threads_per_block: 64,
        }
    }
}

/// Registers `kmeans` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "kmeans", Kmeans);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Kmeans {
        Kmeans {
            points: 256,
            features: 4,
            k: 3,
            iterations: 3,
            threads_per_block: 64,
        }
    }

    #[test]
    fn matches_cpu_reference_exactly() {
        let km = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = km.run(&mut s).expect("runs");
        km.verify(&out).expect("matches reference");
    }

    #[test]
    fn memberships_are_valid_cluster_ids() {
        let km = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = km.run(&mut s).expect("runs");
        assert!(out.iter().all(|&m| m < km.k));
    }

    #[test]
    fn every_cluster_gets_members() {
        let km = small();
        let out = km.reference();
        for c in 0..km.k {
            assert!(out.contains(&c), "cluster {c} empty with well-spread data");
        }
    }
}
