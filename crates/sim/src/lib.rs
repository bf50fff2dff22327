//! # higpu-sim — a cycle-level SIMT GPU simulator
//!
//! This crate is the hardware substrate of the `higpu` project, a Rust
//! reproduction of *High-Integrity GPU Designs for Critical Real-Time
//! Automotive Systems* (DATE 2019). It models a GPGPU-Sim-class GPU:
//!
//! * 32-wide warps executing a SASS-like ISA ([`isa`]) with a PDOM
//!   divergence stack, barriers and global atomics;
//! * streaming multiprocessors ([`sm`]) with occupancy-limited block
//!   residency (threads / warps / registers / shared memory / block slots)
//!   and greedy-then-oldest warp scheduling;
//! * a memory hierarchy ([`mem`]) with access coalescing, per-SM L1s, a
//!   shared L2 and bandwidth-limited DRAM channels;
//! * a **pluggable global kernel scheduler** ([`scheduler`]) — the component
//!   the paper modifies to obtain diverse redundant execution; and
//! * fault-injection hooks ([`fault`]) at computation results and block
//!   assignment, the paper's two corruption points of interest.
//!
//! Kernels are written with the structured [`builder::KernelBuilder`], which
//! guarantees well-formed divergence, and launched on a [`gpu::Gpu`] that
//! records an [`trace::ExecutionTrace`] — the evidence consumed by the
//! diversity verifier in `higpu-core`.
//!
//! # Examples
//!
//! ```
//! use higpu_sim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut gpu = Gpu::new(GpuConfig::paper_6sm());
//! let data = gpu.alloc_words(256)?;
//! gpu.write_f32(data, &vec![1.0; 256]);
//!
//! let mut b = KernelBuilder::new("scale");
//! let base = b.param(0);
//! let i = b.global_tid_x();
//! let addr = b.addr_w(base, i);
//! let v = b.ldg(addr, 0);
//! let scaled = b.fmul(v, 2.5f32);
//! b.stg(addr, 0, scaled);
//! let prog = b.build()?.into_shared();
//!
//! gpu.launch(KernelLaunch::new(
//!     prog,
//!     LaunchConfig::new(8u32, 32u32).param_u32(data.0),
//! ))?;
//! gpu.run_to_idle()?;
//! assert_eq!(gpu.read_f32(data, 1)[0], 2.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod builder;
pub mod config;
pub mod decode;
pub mod disasm;
pub mod exec;
pub mod fault;
pub mod gpu;
pub mod inline_vec;
pub mod isa;
pub mod kernel;
pub mod mem;
pub mod partition;
pub mod program;
pub mod scheduler;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod warp;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::builder::KernelBuilder;
    pub use crate::config::GpuConfig;
    pub use crate::gpu::{DevPtr, Gpu, SimError};
    pub use crate::isa::CmpOp;
    pub use crate::kernel::{
        Dim3, KernelId, KernelLaunch, LaunchAttrs, LaunchConfig, RedundantTag, SmPartition,
    };
    pub use crate::program::Program;
    pub use crate::scheduler::{DefaultScheduler, KernelSchedulerPolicy, SchedulerView};
    pub use crate::trace::{BlockRecord, ExecutionTrace, KernelRecord};
}
