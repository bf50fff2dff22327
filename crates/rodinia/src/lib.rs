//! # higpu-rodinia — Rodinia-style benchmarks for the higpu simulator
//!
//! Re-implementations of the Rodinia heterogeneous-computing benchmarks used
//! in the paper's evaluation, each with a deterministic input generator, a
//! GPU host program written against [`higpu_workloads::GpuSession`] (so the same
//! code runs solo or redundantly), and a CPU reference implementation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backprop;
pub mod bfs;
pub mod cfd;
pub mod data;
pub mod dwt2d;
pub mod gaussian;
pub mod hotspot;
pub mod hotspot3d;
pub mod kmeans;
pub mod leukocyte;
pub mod lud;
pub mod myocyte;
pub mod nn;
pub mod nw;
pub mod pathfinder;
pub mod srad;
pub mod streamcluster;

use higpu_workloads::{Workload, WorkloadRegistry};

/// Registers every Rodinia benchmark in `reg` (name → factory, with
/// [`higpu_workloads::Scale`] selecting paper-sized or campaign-sized
/// inputs). The fault-campaign engine, the COTS model and the benches all
/// select workloads from this one registry.
pub fn register_all(reg: &mut WorkloadRegistry) {
    backprop::register(reg);
    bfs::register(reg);
    cfd::register(reg);
    dwt2d::register(reg);
    gaussian::register(reg);
    hotspot::register(reg);
    hotspot3d::register(reg);
    kmeans::register(reg);
    leukocyte::register(reg);
    lud::register(reg);
    myocyte::register(reg);
    nn::register(reg);
    nw::register(reg);
    pathfinder::register(reg);
    srad::register(reg);
    streamcluster::register(reg);
}

/// A registry holding every Rodinia benchmark.
pub fn registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    register_all(&mut reg);
    reg
}

/// All implemented benchmarks at their default (paper-scaled) sizes.
pub fn all_benchmarks() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(backprop::Backprop::default()),
        Box::new(bfs::Bfs::default()),
        Box::new(cfd::Cfd::default()),
        Box::new(dwt2d::Dwt2d::default()),
        Box::new(gaussian::Gaussian::default()),
        Box::new(hotspot::Hotspot::default()),
        Box::new(hotspot3d::Hotspot3d::default()),
        Box::new(kmeans::Kmeans::default()),
        Box::new(leukocyte::Leukocyte::default()),
        Box::new(lud::Lud::default()),
        Box::new(myocyte::Myocyte::default()),
        Box::new(nn::Nn::default()),
        Box::new(nw::Nw::default()),
        Box::new(pathfinder::Pathfinder::default()),
        Box::new(srad::Srad::default()),
        Box::new(streamcluster::Streamcluster::default()),
    ]
}

/// The Figure 4 subset of the paper (simulator experiment).
pub fn fig4_benchmarks() -> Vec<Box<dyn Workload>> {
    const FIG4: [&str; 11] = [
        "backprop",
        "bfs",
        "dwt2d",
        "gaussian",
        "hotspot",
        "hotspot3D",
        "leukocyte",
        "lud",
        "myocyte",
        "nn",
        "nw",
    ];
    all_benchmarks()
        .into_iter()
        .filter(|b| FIG4.contains(&b.name()))
        .collect()
}

/// Looks a benchmark up by its paper name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_benchmarks().into_iter().find(|b| b.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use higpu_workloads::{Scale, SoloSession};

    #[test]
    fn registry_names_match_workload_names_at_both_scales() {
        let reg = registry();
        assert_eq!(reg.len(), 16, "every Rodinia benchmark is registered");
        for e in reg.entries() {
            for scale in [Scale::Full, Scale::Campaign] {
                assert_eq!(
                    e.build(scale).name(),
                    e.name(),
                    "registry name must match the workload's own name"
                );
            }
        }
    }

    #[test]
    fn kernels_match_reference_for_random_geometry() {
        use higpu_sim::config::GpuConfig;
        use higpu_sim::gpu::Gpu;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x40D1_141A);
        for _ in 0..3 {
            let threads_per_block = 1 << rng.gen_range(5..8u32);
            let benches: [Box<dyn Workload>; 4] = [
                Box::new(pathfinder::Pathfinder {
                    cols: rng.gen_range(16..512),
                    rows: rng.gen_range(2..12),
                    threads_per_block,
                }),
                Box::new(bfs::Bfs {
                    nodes: rng.gen_range(16..512),
                    extra_degree: rng.gen_range(0..4),
                    threads_per_block,
                    source: 0,
                }),
                Box::new(nw::Nw {
                    n: 16 * rng.gen_range(1..6u32),
                    penalty: rng.gen_range(1..20),
                }),
                Box::new(kmeans::Kmeans {
                    points: 1 << rng.gen_range(6..10u32),
                    features: rng.gen_range(2..6),
                    k: rng.gen_range(2..6),
                    iterations: 2,
                    threads_per_block: 64,
                }),
            ];
            for b in benches {
                let mut gpu = Gpu::new(GpuConfig::paper_6sm());
                let out = b.run(&mut SoloSession::new(&mut gpu)).expect("solo run");
                b.verify(&out)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
            }
        }
    }

    #[test]
    fn registry_covers_all_benchmarks() {
        let reg = registry();
        for b in all_benchmarks() {
            assert!(
                reg.names().contains(&b.name()),
                "benchmark {} missing from registry",
                b.name()
            );
        }
    }
}
