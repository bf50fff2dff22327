//! `bfs` — breadth-first search (Rodinia).
//!
//! Level-synchronous frontier expansion over a CSR graph: kernel 1 expands
//! the current frontier, kernel 2 commits the next frontier and raises the
//! continuation flag read by the host. Many *short* kernel launches with a
//! host read between iterations (paper category: short).

use crate::data;
use higpu_sim::builder::KernelBuilder;
use higpu_sim::isa::CmpOp;
use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{
    register_scaled, GpuSession, SParam, SessionError, Tolerance, Workload, WorkloadRegistry,
};
use std::sync::Arc;

/// BFS benchmark.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// Graph nodes.
    pub nodes: u32,
    /// Extra random out-edges per node (beyond the spanning tree).
    pub extra_degree: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Source node.
    pub source: u32,
}

impl Default for Bfs {
    fn default() -> Self {
        Self {
            nodes: 4096,
            extra_degree: 3,
            threads_per_block: 256,
            source: 0,
        }
    }
}

impl Bfs {
    fn graph(&self) -> (Vec<u32>, Vec<u32>) {
        data::csr_graph(0xbf5, self.nodes as usize, self.extra_degree as usize)
    }

    /// Kernel 1: frontier expansion.
    pub fn expand_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("bfs_expand");
        let offsets = b.param(0);
        let edges = b.param(1);
        let frontier = b.param(2);
        let visited = b.param(3);
        let cost = b.param(4);
        let updating = b.param(5);
        let n = b.param(6);
        let tid = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, tid, n);
        b.if_(in_range, |b| {
            let fa = b.addr_w(frontier, tid);
            let fv = b.ldg(fa, 0);
            let active = b.isetp(CmpOp::Eq, fv, 1u32);
            b.if_(active, |b| {
                let zero = b.mov(0u32);
                b.stg(fa, 0, zero);
                let ca = b.addr_w(cost, tid);
                let my_cost = b.ldg(ca, 0);
                let next_cost = b.iadd(my_cost, 1u32);
                let oa = b.addr_w(offsets, tid);
                let begin = b.ldg(oa, 0);
                let end = b.ldg(oa, 4);
                b.for_range(begin, end, 1u32, |b, e| {
                    let ea = b.addr_w(edges, e);
                    let nbr = b.ldg(ea, 0);
                    let va = b.addr_w(visited, nbr);
                    let vv = b.ldg(va, 0);
                    let unvisited = b.isetp(CmpOp::Eq, vv, 0u32);
                    b.if_(unvisited, |b| {
                        let nca = b.addr_w(cost, nbr);
                        b.stg(nca, 0, next_cost);
                        let ua = b.addr_w(updating, nbr);
                        let one = b.mov(1u32);
                        b.stg(ua, 0, one);
                    });
                });
            });
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Kernel 2: commit the next frontier and raise the continuation flag.
    pub fn commit_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("bfs_commit");
        let frontier = b.param(0);
        let visited = b.param(1);
        let updating = b.param(2);
        let flag = b.param(3);
        let n = b.param(4);
        let tid = b.global_tid_x();
        let in_range = b.isetp(CmpOp::Lt, tid, n);
        b.if_(in_range, |b| {
            let ua = b.addr_w(updating, tid);
            let uv = b.ldg(ua, 0);
            let pending = b.isetp(CmpOp::Eq, uv, 1u32);
            b.if_(pending, |b| {
                let one = b.mov(1u32);
                let zero = b.mov(0u32);
                let fa = b.addr_w(frontier, tid);
                b.stg(fa, 0, one);
                let va = b.addr_w(visited, tid);
                b.stg(va, 0, one);
                b.stg(ua, 0, zero);
                b.stg(flag, 0, one);
            });
        });
        b.build().expect("well-formed").into_shared()
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        let n = self.nodes;
        let (offsets, edges) = self.graph();
        let off_b = s.alloc_words(n + 1)?;
        let edg_b = s.alloc_words(edges.len().max(1) as u32)?;
        let fro_b = s.alloc_words(n)?;
        let vis_b = s.alloc_words(n)?;
        let cst_b = s.alloc_words(n)?;
        let upd_b = s.alloc_words(n)?;
        let flg_b = s.alloc_words(1)?;

        s.write_u32(off_b, &offsets)?;
        s.write_u32(edg_b, &edges)?;
        let mut frontier = vec![0u32; n as usize];
        frontier[self.source as usize] = 1;
        let mut visited = vec![0u32; n as usize];
        visited[self.source as usize] = 1;
        let mut cost = vec![u32::MAX; n as usize];
        cost[self.source as usize] = 0;
        s.write_u32(fro_b, &frontier)?;
        s.write_u32(vis_b, &visited)?;
        s.write_u32(cst_b, &cost)?;
        s.write_u32(upd_b, &vec![0u32; n as usize])?;

        let expand = self.expand_kernel();
        let commit = self.commit_kernel();
        let grid = Dim3::x(n.div_ceil(self.threads_per_block));
        let block = Dim3::x(self.threads_per_block);

        loop {
            s.write_u32(flg_b, &[0])?;
            s.launch(
                &expand,
                grid,
                block,
                0,
                &[
                    SParam::Buf(off_b),
                    SParam::Buf(edg_b),
                    SParam::Buf(fro_b),
                    SParam::Buf(vis_b),
                    SParam::Buf(cst_b),
                    SParam::Buf(upd_b),
                    SParam::U32(n),
                ],
            )?;
            s.sync()?;
            s.launch(
                &commit,
                grid,
                block,
                0,
                &[
                    SParam::Buf(fro_b),
                    SParam::Buf(vis_b),
                    SParam::Buf(upd_b),
                    SParam::Buf(flg_b),
                    SParam::U32(n),
                ],
            )?;
            let flag = s.read_u32(flg_b, 1)?;
            if flag[0] == 0 {
                break;
            }
        }
        s.read_u32(cst_b, n as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let (offsets, edges) = self.graph();
        let n = self.nodes as usize;
        let mut cost = vec![u32::MAX; n];
        cost[self.source as usize] = 0;
        let mut frontier = vec![self.source as usize];
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &node in &frontier {
                for e in offsets[node]..offsets[node + 1] {
                    let t = edges[e as usize] as usize;
                    if cost[t] == u32::MAX {
                        cost[t] = level;
                        next.push(t);
                    }
                }
            }
            frontier = next;
        }
        cost
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Exact
    }

    /// Frontier expansion is data-dependent: a corrupted frontier can
    /// add extra whole-graph passes, but the mined
    /// corrupted-but-terminating tail stays well inside the mined budget.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::MINED_FTTI_MULTIPLIER
    }
}

impl Bfs {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self {
            nodes: 256,
            extra_degree: 2,
            threads_per_block: 64,
            source: 0,
        }
    }
}

/// Registers `bfs` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "bfs", Bfs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Bfs {
        Bfs {
            nodes: 256,
            extra_degree: 2,
            threads_per_block: 64,
            source: 0,
        }
    }

    #[test]
    fn matches_cpu_reference() {
        let bfs = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = bfs.run(&mut s).expect("runs");
        bfs.verify(&out).expect("matches reference");
    }

    #[test]
    fn all_nodes_reached() {
        let bfs = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = bfs.run(&mut s).expect("runs");
        assert!(
            out.iter().all(|&c| c != u32::MAX),
            "graph is connected, every node must be visited"
        );
    }

    #[test]
    fn iterates_until_frontier_empty() {
        let bfs = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        bfs.run(&mut s).expect("runs");
        let launches = gpu.trace().kernels.len();
        assert!(launches >= 4, "at least two BFS levels, got {launches}");
        assert_eq!(launches % 2, 0, "expand/commit pairs");
    }

    #[test]
    fn source_has_cost_zero() {
        let bfs = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = bfs.run(&mut s).expect("runs");
        assert_eq!(out[0], 0);
    }
}
