//! LOOCV training time: the one timing the perfbench workloads do not
//! cover yet, and the cost behind the paper's §6 claim that MoE training
//! and selection are cheap next to profiling.
//!
//! Runs the 16-fold leave-one-out training campaign the fig16/17/18 and
//! tab05 figures run (`train_loocv_all` over the training set, default
//! `TrainingConfig`, seed `0xF1617`, 4 workers): one warm-up, then prints
//! the median of nine samples and the host's available parallelism. It
//! reads no environment variable and writes no file. A perfbench workload
//! that times training (ROADMAP.md, item 2) replaces it.
//!
//! `cargo bench -p bench-suite --bench loocv`

use colocate::training::{train_loocv_all, TrainingConfig};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 9;
const WORKERS: usize = 4;

fn loocv_campaign() -> usize {
    let catalog = bench_suite::catalog();
    let config = TrainingConfig::default();
    let systems = train_loocv_all(catalog, &catalog.training_set(), &config, 0xF1617, WORKERS)
        .expect("loocv campaign");
    systems.iter().map(|s| s.programs.len()).sum()
}

fn main() {
    black_box(loocv_campaign());
    let mut secs: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(loocv_campaign());
            started.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "loocv_fig17_campaign: median {:.3} ms over {SAMPLES} samples \
         ({WORKERS} workers, available_parallelism {cores})",
        secs[SAMPLES / 2] * 1e3
    );
}
