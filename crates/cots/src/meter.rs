//! A metering session wrapper: counts the host-side traffic (allocations,
//! copies, API calls) a benchmark generates, independent of the backend it
//! runs on.

use higpu_sim::kernel::Dim3;
use higpu_sim::program::Program;
use higpu_workloads::{BufId, GpuSession, SParam, SessionError};
use std::sync::Arc;

/// Host-side activity counters for one benchmark run (logical — i.e. per
/// replica; the end-to-end model scales them by the replication factor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostMeter {
    /// `cudaMalloc`-equivalent calls.
    pub allocs: u64,
    /// Host→device bytes.
    pub h2d_bytes: u64,
    /// Device→host bytes.
    pub d2h_bytes: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Explicit synchronizations.
    pub syncs: u64,
    /// Copy API calls (each write/read is one call).
    pub copy_calls: u64,
}

/// Wraps any session and meters the traffic flowing through it.
///
/// Not `Debug`: it borrows a `dyn` session with no debug rendering.
#[allow(missing_debug_implementations)]
pub struct MeteredSession<'s> {
    inner: &'s mut dyn GpuSession,
    meter: HostMeter,
}

impl<'s> MeteredSession<'s> {
    /// Wraps `inner`.
    pub fn new(inner: &'s mut dyn GpuSession) -> Self {
        Self {
            inner,
            meter: HostMeter::default(),
        }
    }

    /// The accumulated counters.
    pub fn meter(&self) -> HostMeter {
        self.meter
    }
}

impl GpuSession for MeteredSession<'_> {
    fn alloc_words(&mut self, words: u32) -> Result<BufId, SessionError> {
        self.meter.allocs += 1;
        self.inner.alloc_words(words)
    }

    fn write_u32(&mut self, buf: BufId, data: &[u32]) -> Result<(), SessionError> {
        self.meter.h2d_bytes += data.len() as u64 * 4;
        self.meter.copy_calls += 1;
        self.inner.write_u32(buf, data)
    }

    fn write_f32(&mut self, buf: BufId, data: &[f32]) -> Result<(), SessionError> {
        self.meter.h2d_bytes += data.len() as u64 * 4;
        self.meter.copy_calls += 1;
        self.inner.write_f32(buf, data)
    }

    fn launch(
        &mut self,
        program: &Arc<Program>,
        grid: Dim3,
        block: Dim3,
        shared_mem_bytes: u32,
        params: &[SParam],
    ) -> Result<(), SessionError> {
        self.meter.launches += 1;
        self.inner
            .launch(program, grid, block, shared_mem_bytes, params)
    }

    fn sync(&mut self) -> Result<(), SessionError> {
        self.meter.syncs += 1;
        self.inner.sync()
    }

    fn read_u32(&mut self, buf: BufId, words: usize) -> Result<Vec<u32>, SessionError> {
        self.meter.d2h_bytes += words as u64 * 4;
        self.meter.copy_calls += 1;
        self.inner.read_u32(buf, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_sim::config::GpuConfig;
    use higpu_sim::gpu::Gpu;
    use higpu_workloads::{SoloSession, Workload};

    #[test]
    fn meter_counts_nn_traffic() {
        let nn = higpu_rodinia::nn::Nn {
            records: 256,
            ..Default::default()
        };
        let mut gpu = Gpu::new(GpuConfig::paper_6sm());
        let mut solo = SoloSession::new(&mut gpu);
        let mut m = MeteredSession::new(&mut solo);
        nn.run(&mut m).expect("runs");
        let meter = m.meter();
        assert_eq!(meter.allocs, 3, "lat, lng, out");
        assert_eq!(meter.h2d_bytes, 2 * 256 * 4);
        assert_eq!(meter.d2h_bytes, 256 * 4);
        assert_eq!(meter.launches, 1);
        assert_eq!(meter.copy_calls, 3);
    }
}
