//! Scheduling rounds are event-driven: the run loop consults the kernel
//! scheduler policy only after something changed its view. Fence: in a
//! fault-free redundant run, policy rounds are bounded by the events that
//! can trigger one — launches (each kernel's arrival), block completions
//! and run-loop entries. A loop that re-ran the policy every cycle while
//! blocks waited or an arrival was due makes thousands of rounds for a
//! few dozen blocks.

use higpu::core::policy::PartitionedScheduler;
use higpu::core::redundancy::{RedundancyMode, RedundantExecutor, SyncHook};
use higpu::sim::config::GpuConfig;
use higpu::sim::gpu::{Gpu, SimError};
use higpu::sim::scheduler::{KernelSchedulerPolicy, SchedulerView};
use higpu::workloads::runner::run_redundant;
use higpu::workloads::{Scale, WorkloadRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The diversity scheduler, counting its rounds.
struct CountingPolicy {
    inner: PartitionedScheduler,
    rounds: Arc<AtomicU64>,
}

impl KernelSchedulerPolicy for CountingPolicy {
    fn name(&self) -> &str {
        "counting"
    }

    fn assign(&mut self, view: &mut SchedulerView) {
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.inner.assign(view);
    }
}

/// Runs every sync point to idle, counting the run-loop entries.
struct CountingSync {
    entries: Arc<AtomicU64>,
}

impl SyncHook for CountingSync {
    fn on_sync(&mut self, gpu: &mut Gpu, _segment: usize) -> Result<u64, SimError> {
        self.entries.fetch_add(1, Ordering::Relaxed);
        gpu.run_to_idle()
    }
}

#[test]
fn fault_free_rounds_are_bounded_by_scheduling_events() {
    let mut reg = WorkloadRegistry::new();
    higpu::rodinia::register_all(&mut reg);
    for name in ["lud", "leukocyte", "hotspot3D"] {
        let wl = reg.build(name, Scale::Campaign).expect("registered");
        for (label, mode) in [
            ("SRRS@2", RedundancyMode::srrs_spread(6, 2)),
            ("SLICE@3", RedundancyMode::slice(3)),
        ] {
            let rounds = Arc::new(AtomicU64::new(0));
            let entries = Arc::new(AtomicU64::new(0));
            let mut gpu = Gpu::new(GpuConfig::paper_6sm());
            {
                let mut exec = RedundantExecutor::new(&mut gpu, mode).expect("mode");
                exec.gpu_mut()
                    .set_policy(Box::new(CountingPolicy {
                        inner: PartitionedScheduler::new(),
                        rounds: rounds.clone(),
                    }))
                    .expect("idle device");
                exec.set_sync_hook(Box::new(CountingSync {
                    entries: entries.clone(),
                }));
                let run = run_redundant(&mut exec, wl.as_ref()).expect("fault-free run");
                assert!(run.matched(), "{name} {label}: replicas disagree");
                wl.verify(&run.output)
                    .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
            }
            let launches = gpu.trace().kernels.len() as u64;
            let blocks = gpu.stats().blocks_completed;
            let (rounds, entries) = (
                rounds.load(Ordering::Relaxed),
                entries.load(Ordering::Relaxed),
            );
            println!(
                "{name} {label}: {rounds} rounds, {launches} launches, {blocks} blocks, \
                 {entries} run-loop entries"
            );
            assert!(
                rounds <= launches + blocks + entries,
                "{name} {label}: {rounds} policy rounds for {launches} launches, {blocks} block \
                 completions and {entries} run-loop entries"
            );
        }
    }
}
