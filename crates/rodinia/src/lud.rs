//! `lud` — blocked LU decomposition (Rodinia).
//!
//! Right-looking blocked factorization with 16×16 tiles: per step, a
//! single-block `diagonal` kernel (with intra-block barriers), `row` and
//! `col` panel kernels, and a 2D `internal` trailing update whose grid
//! shrinks each step. The internal kernel's large blocks are what gives lud
//! the paper's worst-case HALF overhead (~10%).

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

const BS: u32 = 16;

/// LU decomposition benchmark.
#[derive(Debug, Clone)]
pub struct Lud {
    /// Matrix dimension (multiple of 16).
    pub n: u32,
}

impl Default for Lud {
    fn default() -> Self {
        Self { n: 96 }
    }
}

impl Lud {
    fn matrix(&self) -> Vec<f32> {
        data::dominant_matrix(0x10d, self.n as usize)
    }

    /// Factors tile `(t,t)` in place (one 16-thread block, barriers between
    /// elimination steps).
    pub fn diagonal_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("lud_diagonal");
        let a = b.param(0);
        let n = b.param(1);
        let t = b.param(2);
        let tid = b.special(higpu_sim::isa::SpecialReg::TidX);
        let base = b.imul(t, BS);
        // row index of this thread within the matrix
        let grow = b.iadd(base, tid);
        b.for_range(0u32, BS - 1, 1u32, |b, k| {
            let gk = b.iadd(base, k);
            let above = b.isetp(CmpOp::Gt, tid, k);
            b.if_(above, |b| {
                // a[grow][gk] /= a[gk][gk]
                let ri = b.imad(grow, n, gk);
                let ra = b.addr_w(a, ri);
                let di = b.imad(gk, n, gk);
                let da = b.addr_w(a, di);
                let rv = b.ldg(ra, 0);
                let dv = b.ldg(da, 0);
                let l = b.fdiv(rv, dv);
                b.stg(ra, 0, l);
            });
            b.release_preds(1);
            b.bar();
            let above2 = b.isetp(CmpOp::Gt, tid, k);
            b.if_(above2, |b| {
                let ri = b.imad(grow, n, gk);
                let ra = b.addr_w(a, ri);
                let l = b.ldg(ra, 0);
                let kp1 = b.iadd(k, 1u32);
                b.for_range(kp1, BS, 1u32, |b, j| {
                    let gj = b.iadd(base, j);
                    // a[grow][gj] -= l * a[gk][gj]
                    let ui = b.imad(gk, n, gj);
                    let ua = b.addr_w(a, ui);
                    let uv = b.ldg(ua, 0);
                    let ci = b.imad(grow, n, gj);
                    let ca = b.addr_w(a, ci);
                    let cv = b.ldg(ca, 0);
                    let prod = b.fmul(l, uv);
                    let upd = b.fsub(cv, prod);
                    b.stg(ca, 0, upd);
                });
            });
            b.release_preds(1);
            b.bar();
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Row-panel solve: tile `(t, t+1+ctaid)`, one thread per column —
    /// forward substitution with the unit-lower tile `(t,t)`.
    pub fn row_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("lud_row");
        let a = b.param(0);
        let n = b.param(1);
        let t = b.param(2);
        let tid = b.special(higpu_sim::isa::SpecialReg::TidX);
        let ctaid = b.special(higpu_sim::isa::SpecialReg::CtaidX);
        let base = b.imul(t, BS);
        let jt = b.iadd(t, ctaid);
        b.iadd_to(jt, jt, 1u32);
        let cbase = b.imul(jt, BS);
        let col = b.iadd(cbase, tid);
        b.for_range(1u32, BS, 1u32, |b, k| {
            let gk = b.iadd(base, k);
            let acc_i = b.imad(gk, n, col);
            let acc_a = b.addr_w(a, acc_i);
            let acc = b.ldg(acc_a, 0);
            b.for_range(0u32, k, 1u32, |b, m| {
                let gm = b.iadd(base, m);
                let li = b.imad(gk, n, gm);
                let la = b.addr_w(a, li);
                let lv = b.ldg(la, 0);
                let ui = b.imad(gm, n, col);
                let ua = b.addr_w(a, ui);
                let uv = b.ldg(ua, 0);
                let prod = b.fmul(lv, uv);
                let next = b.fsub(acc, prod);
                b.mov_to(acc, next);
            });
            b.stg(acc_a, 0, acc);
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Column-panel solve: tile `(t+1+ctaid, t)`, one thread per row —
    /// right-division by the upper tile `(t,t)`.
    pub fn col_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("lud_col");
        let a = b.param(0);
        let n = b.param(1);
        let t = b.param(2);
        let tid = b.special(higpu_sim::isa::SpecialReg::TidX);
        let ctaid = b.special(higpu_sim::isa::SpecialReg::CtaidX);
        let base = b.imul(t, BS);
        let it = b.iadd(t, ctaid);
        b.iadd_to(it, it, 1u32);
        let rbase = b.imul(it, BS);
        let row = b.iadd(rbase, tid);
        b.for_range(0u32, BS, 1u32, |b, k| {
            let gk = b.iadd(base, k);
            let ci = b.imad(row, n, gk);
            let ca = b.addr_w(a, ci);
            let acc = b.ldg(ca, 0);
            b.for_range(0u32, k, 1u32, |b, m| {
                let gm = b.iadd(base, m);
                let li = b.imad(row, n, gm);
                let la = b.addr_w(a, li);
                let lv = b.ldg(la, 0);
                let ui = b.imad(gm, n, gk);
                let ua = b.addr_w(a, ui);
                let uv = b.ldg(ua, 0);
                let prod = b.fmul(lv, uv);
                let next = b.fsub(acc, prod);
                b.mov_to(acc, next);
            });
            let di = b.imad(gk, n, gk);
            let da = b.addr_w(a, di);
            let dv = b.ldg(da, 0);
            let l = b.fdiv(acc, dv);
            b.stg(ca, 0, l);
        });
        b.build().expect("well-formed").into_shared()
    }

    /// Trailing update: tile `(t+1+ctaid.y, t+1+ctaid.x)`, 16×16 threads:
    /// `a[r][c] -= Σ_k L[r][k] · U[k][c]`.
    pub fn internal_kernel(&self) -> Arc<Program> {
        let mut b = KernelBuilder::new("lud_internal");
        let a = b.param(0);
        let n = b.param(1);
        let t = b.param(2);
        let tx = b.special(higpu_sim::isa::SpecialReg::TidX);
        let ty = b.special(higpu_sim::isa::SpecialReg::TidY);
        let bx = b.special(higpu_sim::isa::SpecialReg::CtaidX);
        let by = b.special(higpu_sim::isa::SpecialReg::CtaidY);
        let base = b.imul(t, BS);
        let jt = b.iadd(t, bx);
        b.iadd_to(jt, jt, 1u32);
        let it = b.iadd(t, by);
        b.iadd_to(it, it, 1u32);
        let row = b.imad(it, BS, ty);
        let col = b.imad(jt, BS, tx);
        let ci = b.imad(row, n, col);
        let ca = b.addr_w(a, ci);
        let acc = b.ldg(ca, 0);
        b.for_range(0u32, BS, 1u32, |b, k| {
            let gk = b.iadd(base, k);
            let li = b.imad(row, n, gk);
            let la = b.addr_w(a, li);
            let lv = b.ldg(la, 0);
            let ui = b.imad(gk, n, col);
            let ua = b.addr_w(a, ui);
            let uv = b.ldg(ua, 0);
            let prod = b.fmul(lv, uv);
            let next = b.fsub(acc, prod);
            b.mov_to(acc, next);
        });
        b.stg(ca, 0, acc);
        b.build().expect("well-formed").into_shared()
    }

    fn tiles(&self) -> u32 {
        self.n / BS
    }
}

impl Workload for Lud {
    fn name(&self) -> &'static str {
        "lud"
    }

    fn run(&self, s: &mut dyn GpuSession) -> Result<Vec<u32>, SessionError> {
        assert_eq!(self.n % BS, 0, "matrix size must be a multiple of 16");
        let n = self.n;
        let a = s.alloc_words(n * n)?;
        s.write_f32(a, &self.matrix())?;
        let diag = self.diagonal_kernel();
        let rowk = self.row_kernel();
        let colk = self.col_kernel();
        let intern = self.internal_kernel();
        let tiles = self.tiles();
        for t in 0..tiles {
            let params = [SParam::Buf(a), SParam::U32(n), SParam::U32(t)];
            s.launch(&diag, Dim3::x(1), Dim3::x(BS), 0, &params)?;
            s.sync()?;
            let rest = tiles - t - 1;
            if rest == 0 {
                break;
            }
            s.launch(&rowk, Dim3::x(rest), Dim3::x(BS), 0, &params)?;
            s.launch(&colk, Dim3::x(rest), Dim3::x(BS), 0, &params)?;
            s.sync()?;
            s.launch(&intern, Dim3::xy(rest, rest), Dim3::xy(BS, BS), 0, &params)?;
            s.sync()?;
        }
        s.read_u32(a, (n * n) as usize)
    }

    fn reference(&self) -> Vec<u32> {
        let n = self.n as usize;
        let bs = BS as usize;
        let mut a = self.matrix();
        let tiles = n / bs;
        for t in 0..tiles {
            let base = t * bs;
            // diagonal tile
            for k in 0..bs - 1 {
                let gk = base + k;
                for r in k + 1..bs {
                    let gr = base + r;
                    let l = a[gr * n + gk] / a[gk * n + gk];
                    a[gr * n + gk] = l;
                    for j in k + 1..bs {
                        let gj = base + j;
                        a[gr * n + gj] -= l * a[gk * n + gj];
                    }
                }
            }
            // row panels
            for jt in t + 1..tiles {
                for c in 0..bs {
                    let col = jt * bs + c;
                    for k in 1..bs {
                        let gk = base + k;
                        let mut acc = a[gk * n + col];
                        for m in 0..k {
                            let gm = base + m;
                            acc -= a[gk * n + gm] * a[gm * n + col];
                        }
                        a[gk * n + col] = acc;
                    }
                }
            }
            // column panels
            for it in t + 1..tiles {
                for r in 0..bs {
                    let row = it * bs + r;
                    for k in 0..bs {
                        let gk = base + k;
                        let mut acc = a[row * n + gk];
                        for m in 0..k {
                            let gm = base + m;
                            acc -= a[row * n + gm] * a[gm * n + gk];
                        }
                        a[row * n + gk] = acc / a[gk * n + gk];
                    }
                }
            }
            // trailing update
            for it in t + 1..tiles {
                for jt in t + 1..tiles {
                    for r in 0..bs {
                        for c in 0..bs {
                            let row = it * bs + r;
                            let col = jt * bs + c;
                            let mut acc = a[row * n + col];
                            for k in 0..bs {
                                let gk = base + k;
                                acc -= a[row * n + gk] * a[gk * n + col];
                            }
                            a[row * n + col] = acc;
                        }
                    }
                }
            }
        }
        f32s_to_words(&a)
    }

    fn tolerance(&self) -> Tolerance {
        Tolerance::Approx {
            rel: 1e-3,
            abs: 1e-4,
        }
    }

    /// The factorization sweep count is fixed by the matrix size, but
    /// corrupted pivots perturb the elimination structure hard: the mined
    /// corrupted-but-terminating p99.9 is 7.28× the fault-free makespan —
    /// the longest tail in the registry — so `lud` keeps the flat default
    /// budget rather than the mined 3×.
    fn ftti_multiplier(&self) -> u64 {
        higpu_workloads::DEFAULT_FTTI_MULTIPLIER
    }
}

impl Lud {
    /// Campaign-scale instance: a small fixed grid that keeps per-trial
    /// makespan and memory tiny (thousands of fault-injection trials must
    /// fit the campaign's small device image) while still exercising every
    /// kernel of the benchmark.
    pub fn campaign() -> Self {
        Self { n: 32 }
    }
}

/// Registers `lud` in the unified workload registry
/// ([`higpu_workloads::Scale::Full`] = paper size, [`higpu_workloads::Scale::Campaign`] = the small fixed
/// grid above).
pub fn register(reg: &mut WorkloadRegistry) {
    register_scaled!(reg, "lud", Lud);
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::SoloSession;

    fn small() -> Lud {
        Lud { n: 48 }
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
    fn factorization_reconstructs_the_matrix() {
        // L (unit diag) times U must reproduce the input.
        let l = small();
        let n = l.n as usize;
        let orig = l.matrix();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        let out = l.run(&mut s).expect("runs");
        let lu: Vec<f32> = out.iter().map(|w| f32::from_bits(*w)).collect();
        let mut max_rel = 0.0f32;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f64;
                for k in 0..n {
                    let lv = if k < i {
                        lu[i * n + k]
                    } else if k == i {
                        1.0
                    } else {
                        0.0
                    };
                    let uv = if k <= j { lu[k * n + j] } else { 0.0 };
                    acc += f64::from(lv) * f64::from(uv);
                }
                let rel = (acc as f32 - orig[i * n + j]).abs() / orig[i * n + j].abs().max(1.0);
                max_rel = max_rel.max(rel);
            }
        }
        assert!(max_rel < 1e-2, "L*U deviates from A by {max_rel}");
    }

    #[test]
    fn kernel_sequence_shrinks() {
        let l = small();
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut s = SoloSession::new(&mut gpu);
        l.run(&mut s).expect("runs");
        let tiles = l.n / BS;
        // per step t < tiles-1: diag + row + col + internal; final step: diag.
        let expected = 4 * (tiles - 1) + 1;
        assert_eq!(gpu.trace().kernels.len() as u32, expected);
    }
}
