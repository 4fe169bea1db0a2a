//! Fig. 23 (extension): the prediction serving firehose — train once,
//! freeze the model into a checksummed artifact, reload it, and stream a
//! seeded firehose of synthetic feature observations through the scalar
//! per-request path and the whole-matrix batched path at batch sizes
//! 1/16/256/4096.
//!
//! Every batched selection is checked bit-for-bit against the scalar
//! oracle; the equivalence verdict is the figure, and the driver exits 1
//! on divergence. No wall clock is measured (perfbench's
//! `serving-firehose` workload times this path), so stdout and
//! `results/BENCH_serving.json` are byte-stable and the CI bit-identity
//! gate can `cmp` them across `SPARK_MOE_THREADS` values.
//!
//! Env knobs: `SPARK_MOE_SERVING_REQS` (firehose size, default
//! 2,000,000), `SPARK_MOE_SERVING_SEED` (default 42).

use bench_suite::csv::csv_dir;
use bench_suite::serving::{run_batched, run_scalar, BATCH_SIZES};
use colocate::serving::ModelArtifact;
use colocate::training::{train_system, TrainingConfig};
use simkit::SimRng;

fn main() {
    let catalog = bench_suite::catalog();
    let requests = bench_suite::env_count("SPARK_MOE_SERVING_REQS", 2_000_000);
    let seed = bench_suite::env_seed("SPARK_MOE_SERVING_SEED", 42);

    println!("Fig. 23: prediction serving firehose — {requests} requests from seed {seed}");

    // Train once, then freeze + thaw through the model artifact: the
    // serving passes below all run on the *reloaded* predictor, so the
    // equivalence verdict covers the artifact round trip too.
    let mut rng = SimRng::seed_from(seed ^ 0x7EA1);
    let system = match train_system(catalog, &TrainingConfig::default(), &mut rng) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("training failed: {e}");
            std::process::exit(1);
        }
    };
    let artifact = match ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("artifact capture failed: {e}");
            std::process::exit(1);
        }
    };
    let encoded = artifact.encode();
    let served = match ModelArtifact::decode(&encoded).and_then(|a| a.into_predictor()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("artifact reload failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "model artifact: {} bytes ({} experts, {} exemplars × {} components)",
        encoded.len(),
        artifact.expert_families.len(),
        artifact.knn_labels.len(),
        artifact.pca_eigenvalues.len(),
    );

    // Scalar pass: the per-request oracle (run on the original predictor,
    // so artifact reload is part of what the equivalence check verifies).
    let oracle = match run_scalar(&system.predictor, catalog, seed, requests) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scalar pass failed: {e}");
            std::process::exit(1);
        }
    };

    let mut identical = true;
    for batch in BATCH_SIZES {
        match run_batched(&served, catalog, seed, requests, batch, &oracle) {
            Ok(ok) => identical &= ok,
            Err(e) => {
                eprintln!("batched pass (batch {batch}) failed: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "\nbatched == scalar (bitwise, {} requests × {} batch sizes): {}",
        requests,
        BATCH_SIZES.len(),
        if identical { "IDENTICAL" } else { "DIVERGED" }
    );

    if let Some(dir) = csv_dir() {
        let json = bench_suite::serving::serving_json(requests, seed, encoded.len(), identical);
        if let Ok(path) = bench_suite::fsutil::atomic_write_in(&dir, "BENCH_serving.json", &json) {
            println!("\nJSON record written to {}", path.display());
        }
    }

    if !identical {
        eprintln!("serving acceptance FAILED: batched selections diverged from the scalar oracle");
        std::process::exit(1);
    }
}
