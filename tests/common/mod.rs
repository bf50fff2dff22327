//! Shared helpers for the integration tests: scaled-down benchmark
//! instances that keep full-suite runs fast.

use higpu::rodinia::{
    backprop::Backprop, bfs::Bfs, cfd::Cfd, dwt2d::Dwt2d, gaussian::Gaussian, hotspot::Hotspot,
    hotspot3d::Hotspot3d, kmeans::Kmeans, leukocyte::Leukocyte, lud::Lud, myocyte::Myocyte, nn::Nn,
    nw::Nw, pathfinder::Pathfinder, srad::Srad, streamcluster::Streamcluster,
};
use higpu::workloads::Workload;

/// Every benchmark at a size that completes in well under a second.
pub fn small_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Backprop {
            inputs: 16,
            hidden: 192,
            threads_per_block: 64,
            eta: 0.3,
        }),
        Box::new(Bfs {
            nodes: 384,
            extra_degree: 2,
            threads_per_block: 64,
            source: 0,
        }),
        Box::new(Cfd {
            cells: 256,
            steps: 8,
            dtdx: 0.1,
            threads_per_block: 64,
        }),
        Box::new(Dwt2d {
            size: 32,
            levels: 2,
        }),
        Box::new(Gaussian {
            n: 24,
            threads_per_block: 64,
        }),
        Box::new(Hotspot {
            size: 48,
            steps: 2,
            ..Hotspot::default()
        }),
        Box::new(Hotspot3d {
            nx: 16,
            nz: 4,
            steps: 2,
            ..Hotspot3d::default()
        }),
        Box::new(Kmeans {
            points: 256,
            features: 4,
            k: 3,
            iterations: 2,
            threads_per_block: 64,
        }),
        Box::new(Leukocyte { size: 24 }),
        Box::new(Lud { n: 48 }),
        Box::new(Myocyte {
            cells: 32,
            threads_per_block: 32,
            steps: 150,
            dt: 0.02,
        }),
        Box::new(Nn {
            records: 512,
            ..Nn::default()
        }),
        Box::new(Nw { n: 48, penalty: 4 }),
        Box::new(Pathfinder {
            cols: 384,
            rows: 8,
            threads_per_block: 64,
        }),
        Box::new(Srad {
            size: 24,
            iterations: 2,
            lambda: 0.5,
        }),
        Box::new(Streamcluster {
            points: 256,
            dims: 4,
            candidates: 6,
            rounds: 2,
            threads_per_block: 64,
        }),
    ]
}
