//! Kernel launch descriptors: grid/block geometry, parameters and the
//! scheduling attributes consumed by global kernel-scheduler policies.

use crate::partition::SmRange;
use crate::program::Program;
use std::sync::Arc;

/// A three-component dimension (grid or block shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// x extent.
    pub x: u32,
    /// y extent.
    pub y: u32,
    /// z extent.
    pub z: u32,
}

impl Dim3 {
    /// One-dimensional shape `(x, 1, 1)`.
    pub fn x(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// Two-dimensional shape `(x, y, 1)`.
    pub fn xy(x: u32, y: u32) -> Self {
        Self { x, y, z: 1 }
    }

    /// Total element count `x * y * z`.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Decomposes a linear index into `(x, y, z)` coordinates.
    pub fn coords(&self, linear: u32) -> (u32, u32, u32) {
        // 1-D blocks (the common case) need no division: callers hit this
        // once per lane on every `%tid` read.
        if self.y == 1 && self.z == 1 {
            return (linear, 0, 0);
        }
        let x = linear % self.x;
        let y = (linear / self.x) % self.y;
        let z = linear / (self.x * self.y);
        (x, y, z)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3 { x, y, z }
    }
}

/// Identifier of a kernel launch (unique per [`crate::gpu::Gpu`] instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u64);

/// Identifier of a redundant-execution group: all replicas of one logical
/// computation share the `group`, distinguished by `replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RedundantTag {
    /// Logical computation identifier.
    pub group: u32,
    /// Replica index (0 for the primary copy, 1 for the redundant copy, ...).
    pub replica: u8,
}

/// Scheduling attributes attached to a launch, consumed by global
/// kernel-scheduler policies. Policies ignore the hints they do not use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchAttrs {
    /// Human-readable tag recorded in traces.
    pub tag: String,
    /// Redundant-execution group membership, if any.
    pub redundant: Option<RedundantTag>,
    /// SRRS hint: SM that receives the first thread block. It also selects
    /// SRRS, so kernels launched with it run one at a time, each starting
    /// on an otherwise idle GPU (or partition).
    pub start_sm: Option<usize>,
    /// SLICE / HALF hint: which of N balanced SM slices this kernel is
    /// confined to (HALF is two slices).
    pub slice: Option<SmSlice>,
    /// Partition reservation: the kernel is confined to this contiguous SM
    /// range (a frame executor's branch partition). Composes with the
    /// diversity hints above — a `slice` is taken *of the reserve* (see
    /// [`SmSlice::range_in`]), and a `start_sm` round-robins *within* it and
    /// serializes against the reserve's kernels only — so one
    /// frame's independent branches overlap on disjoint partitions while
    /// each branch keeps its replica-diversity placement.
    pub reserve: Option<SmRange>,
    /// Extra cycles added to this launch's arrival before it becomes
    /// visible to the scheduler (on top of the serial CPU dispatch gap).
    /// Diversity-enforcing hosts use this to stagger concurrent replicas by
    /// more than the worst-case common-cause-fault duration (droop-aware
    /// start skew), so a droop can never strike the same computation point
    /// in two replicas at once.
    pub dispatch_delay: u64,
}

/// One of N equal SM slices used by the SLICE policy: slice `index` of
/// `of` owns the SM range `[index·n/of, (index+1)·n/of)`.
///
/// The paper's HALF policy is two slices: replica 0 on `[0, n/2)`, replica
/// 1 on `[n/2, n)`. Balanced slicing gives later slices the larger share,
/// so on an odd SM count the upper half receives the extra SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmSlice {
    /// Slice index, `0..of`.
    pub index: u8,
    /// Total number of slices.
    pub of: u8,
}

impl SmSlice {
    /// The SM-id range of this slice on a GPU with `num_sms` SMs
    /// (balanced partition: `[index·n/of, (index+1)·n/of)`).
    pub fn range(self, num_sms: usize) -> std::ops::Range<usize> {
        let of = usize::from(self.of).max(1);
        let i = usize::from(self.index);
        (i * num_sms / of)..((i + 1) * num_sms / of)
    }

    /// True if `sm` belongs to this slice.
    pub fn contains(self, sm: usize, num_sms: usize) -> bool {
        self.range(num_sms).contains(&sm)
    }

    /// The SM-id range of this slice *within a reserved partition*: the
    /// balanced sub-slice of `reserve`'s SMs, offset to absolute ids. This
    /// is how a frame executor composes replica diversity (disjoint slices)
    /// with branch isolation (disjoint partitions).
    pub fn range_in(self, reserve: SmRange) -> std::ops::Range<usize> {
        let r = self.range(reserve.len);
        reserve.start + r.start..reserve.start + r.end
    }
}

/// Everything needed to launch a kernel: program, geometry, parameters and
/// per-block shared-memory footprint.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Grid shape in thread blocks.
    pub grid: Dim3,
    /// Block shape in threads.
    pub block: Dim3,
    /// Shared memory bytes per block.
    pub shared_mem_bytes: u32,
    /// Kernel parameter words (buffer addresses, scalars, f32 bit patterns).
    pub params: Vec<u32>,
}

impl LaunchConfig {
    /// Creates a launch configuration with the given grid/block geometry and
    /// no parameters.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        Self {
            grid: grid.into(),
            block: block.into(),
            shared_mem_bytes: 0,
            params: Vec::new(),
        }
    }

    /// Sets the per-block shared memory footprint.
    pub fn shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Appends a raw parameter word.
    pub fn param_u32(mut self, v: u32) -> Self {
        self.params.push(v);
        self
    }

    /// Appends an `i32` parameter word.
    pub fn param_i32(mut self, v: i32) -> Self {
        self.params.push(v as u32);
        self
    }

    /// Appends an `f32` parameter word (raw bits).
    pub fn param_f32(mut self, v: f32) -> Self {
        self.params.push(v.to_bits());
        self
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        (self.block.count()).min(u64::from(u32::MAX)) as u32
    }

    /// Thread blocks in the grid.
    pub fn num_blocks(&self) -> u32 {
        (self.grid.count()).min(u64::from(u32::MAX)) as u32
    }
}

/// A fully-specified kernel ready for [`crate::gpu::Gpu::launch`].
#[derive(Debug, Clone)]
pub struct KernelLaunch {
    /// The program to execute.
    pub program: Arc<Program>,
    /// Geometry and parameters.
    pub config: LaunchConfig,
    /// Scheduling attributes.
    pub attrs: LaunchAttrs,
}

impl KernelLaunch {
    /// Convenience constructor with default attributes.
    pub fn new(program: Arc<Program>, config: LaunchConfig) -> Self {
        Self {
            program,
            config,
            attrs: LaunchAttrs::default(),
        }
    }

    /// Sets the trace tag.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.attrs.tag = tag.into();
        self
    }

    /// Marks this launch as replica `replica` of redundant group `group`.
    pub fn redundant(mut self, group: u32, replica: u8) -> Self {
        self.attrs.redundant = Some(RedundantTag { group, replica });
        self
    }

    /// SRRS hint: the SM receiving the first thread block.
    pub fn start_sm(mut self, sm: usize) -> Self {
        self.attrs.start_sm = Some(sm);
        self
    }

    /// SLICE hint: confines this kernel to slice `index` of `of` balanced
    /// SM slices.
    pub fn slice(mut self, index: u8, of: u8) -> Self {
        self.attrs.slice = Some(SmSlice { index, of });
        self
    }

    /// Confines this launch to a reserved SM partition (see
    /// [`LaunchAttrs::reserve`]).
    pub fn reserve(mut self, range: SmRange) -> Self {
        self.attrs.reserve = Some(range);
        self
    }

    /// Delays this launch's scheduler arrival by `cycles` beyond the serial
    /// dispatch gap (droop-aware start skew; see
    /// [`LaunchAttrs::dispatch_delay`]).
    pub fn dispatch_delay(mut self, cycles: u64) -> Self {
        self.attrs.dispatch_delay = cycles;
        self
    }
}

/// Per-block resource footprint, used for occupancy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockFootprint {
    /// Threads per block.
    pub threads: u32,
    /// Warps per block (threads rounded up to warp granularity).
    pub warps: u32,
    /// Registers per block (threads × regs-per-thread).
    pub registers: u32,
    /// Shared memory bytes per block.
    pub shared_mem: u32,
}

impl BlockFootprint {
    /// Computes the footprint of one block of `launch` on hardware with the
    /// given warp size.
    pub fn of(launch: &KernelLaunch, warp_size: usize) -> Self {
        let threads = launch.config.threads_per_block();
        let warps = threads.div_ceil(warp_size as u32);
        let registers = threads * u32::from(launch.program.regs_per_thread());
        BlockFootprint {
            threads,
            warps,
            registers,
            shared_mem: launch.config.shared_mem_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn prog() -> Arc<Program> {
        let mut b = KernelBuilder::new("t");
        let _ = b.mov(0u32);
        b.build().expect("valid").into_shared()
    }

    #[test]
    fn dim3_coords_roundtrip() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        assert_eq!(d.count(), 24);
        assert_eq!(d.coords(0), (0, 0, 0));
        assert_eq!(d.coords(5), (1, 1, 0));
        assert_eq!(d.coords(23), (3, 2, 1));
    }

    #[test]
    fn slice_ranges_cover_all_sms_disjointly() {
        for n in 1..=12usize {
            for of in 1..=n.min(6) as u8 {
                let mut covered = vec![0u32; n];
                let mut prev_end = 0;
                for index in 0..of {
                    let r = SmSlice { index, of }.range(n);
                    assert_eq!(r.start, prev_end, "slices are contiguous");
                    prev_end = r.end;
                    for sm in r {
                        covered[sm] += 1;
                    }
                }
                assert_eq!(prev_end, n, "last slice ends at n");
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "n={n} of={of}: every SM in exactly one slice: {covered:?}"
                );
            }
        }
        // 6 SMs in 3 slices: 2 SMs each.
        assert_eq!(SmSlice { index: 0, of: 3 }.range(6), 0..2);
        assert_eq!(SmSlice { index: 1, of: 3 }.range(6), 2..4);
        assert_eq!(SmSlice { index: 2, of: 3 }.range(6), 4..6);
        assert!(SmSlice { index: 2, of: 3 }.contains(5, 6));
        assert!(!SmSlice { index: 2, of: 3 }.contains(3, 6));
    }

    #[test]
    fn slices_within_a_reserve_cover_it_disjointly() {
        // A 3-SM partition starting at SM 2, cut in 2 sub-slices: [2,3) and
        // [3,5) (later slices get the larger share, as with global slicing).
        let reserve = SmRange { start: 2, len: 3 };
        assert_eq!(SmSlice { index: 0, of: 2 }.range_in(reserve), 2..3);
        assert_eq!(SmSlice { index: 1, of: 2 }.range_in(reserve), 3..5);
        // Sub-slices always tile the reserve exactly.
        for len in 1..=8usize {
            for of in 1..=len.min(4) as u8 {
                let reserve = SmRange { start: 1, len };
                let mut prev_end = reserve.start;
                for index in 0..of {
                    let r = SmSlice { index, of }.range_in(reserve);
                    assert_eq!(r.start, prev_end, "len={len} of={of}");
                    prev_end = r.end;
                }
                assert_eq!(prev_end, reserve.start + reserve.len);
            }
        }
    }

    #[test]
    fn launch_config_params() {
        let c = LaunchConfig::new(4u32, 64u32)
            .param_u32(10)
            .param_f32(1.5)
            .param_i32(-2);
        assert_eq!(c.params.len(), 3);
        assert_eq!(c.params[1], 1.5f32.to_bits());
        assert_eq!(c.params[2] as i32, -2);
        assert_eq!(c.num_blocks(), 4);
        assert_eq!(c.threads_per_block(), 64);
    }

    #[test]
    fn footprint_rounds_warps_up() {
        let l = KernelLaunch::new(prog(), LaunchConfig::new(1u32, 33u32).shared_mem(256));
        let fp = BlockFootprint::of(&l, 32);
        assert_eq!(fp.warps, 2);
        assert_eq!(fp.threads, 33);
        assert_eq!(fp.shared_mem, 256);
        assert_eq!(fp.registers, 33 * u32::from(l.program.regs_per_thread()));
    }

    #[test]
    fn launch_builder_attrs() {
        let l = KernelLaunch::new(prog(), LaunchConfig::new(1u32, 32u32))
            .tag("k0")
            .redundant(7, 1)
            .start_sm(3)
            .slice(1, 3)
            .reserve(SmRange { start: 2, len: 2 })
            .dispatch_delay(501);
        assert_eq!(l.attrs.tag, "k0");
        assert_eq!(l.attrs.reserve, Some(SmRange { start: 2, len: 2 }));
        assert_eq!(l.attrs.dispatch_delay, 501);
        assert_eq!(
            l.attrs.redundant,
            Some(RedundantTag {
                group: 7,
                replica: 1
            })
        );
        assert_eq!(l.attrs.start_sm, Some(3));
        assert_eq!(l.attrs.slice, Some(SmSlice { index: 1, of: 3 }));
    }
}
