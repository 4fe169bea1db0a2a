//! Fig. 23 (extension): the prediction serving firehose — train once,
//! freeze the model into a checksummed artifact, reload it, and stream a
//! seeded firehose of synthetic feature observations through the scalar
//! per-request path and the whole-matrix batched path at batch sizes
//! 1/16/256/4096.
//!
//! Every batched selection is checked bit-for-bit against the scalar
//! oracle on every run — the equivalence verdict is part of the default
//! stdout. Wall-clock throughput/latency numbers are reported only on
//! explicit request (`SPARK_MOE_SERVING_TIMING=1`), so the default
//! stdout and `results/BENCH_serving.json` are byte-stable and the CI
//! bit-identity gate can `cmp` them across `SPARK_MOE_THREADS` values.
//!
//! Env knobs: `SPARK_MOE_SERVING_REQS` (firehose size, default
//! 2,000,000), `SPARK_MOE_SERVING_SEED` (default 42),
//! `SPARK_MOE_SERVING_TIMING=1` (opt-in wall-clock measurement).

use bench_suite::csv::{csv_dir, CsvTable};
use bench_suite::serving::{run_batched, run_scalar, ModeStats, BATCH_SIZES};
use colocate::serving::ModelArtifact;
use colocate::training::{train_system, TrainingConfig};
use simkit::SimRng;

fn fmt_opt(v: Option<f64>, unit: &str) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}{unit}"))
}

fn main() {
    let catalog = bench_suite::catalog();
    let requests = bench_suite::env_count("SPARK_MOE_SERVING_REQS", 2_000_000);
    let seed = bench_suite::env_seed("SPARK_MOE_SERVING_SEED", 42);
    let timing = std::env::var("SPARK_MOE_SERVING_TIMING").is_ok_and(|v| v == "1");

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
    let (oracle, scalar_stats) =
        match run_scalar(&system.predictor, catalog, seed, requests, timing) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scalar pass failed: {e}");
                std::process::exit(1);
            }
        };

    let mut modes: Vec<ModeStats> = vec![scalar_stats];
    let mut identical = true;
    for batch in BATCH_SIZES {
        match run_batched(&served, catalog, seed, requests, batch, timing, &oracle) {
            Ok((stats, ok)) => {
                identical &= ok;
                modes.push(stats);
            }
            Err(e) => {
                eprintln!("batched pass (batch {batch}) failed: {e}");
                std::process::exit(1);
            }
        }
    }

    println!(
        "\n{:<10} {:>6} {:>14} {:>10} {:>10} {:>10}",
        "mode", "batch", "preds/s", "p50", "p95", "p99"
    );
    for s in &modes {
        println!(
            "{:<10} {:>6} {:>14} {:>10} {:>10} {:>10}",
            s.mode,
            s.batch,
            fmt_opt(s.preds_per_sec, ""),
            fmt_opt(s.p50_us, "us"),
            fmt_opt(s.p95_us, "us"),
            fmt_opt(s.p99_us, "us"),
        );
    }

    println!(
        "\nbatched == scalar (bitwise, {} requests × {} batch sizes): {}",
        requests,
        BATCH_SIZES.len(),
        if identical { "IDENTICAL" } else { "DIVERGED" }
    );
    if let (Some(b1), Some(b256)) = (
        modes.iter().find(|s| s.mode == "batched" && s.batch == 1),
        modes.iter().find(|s| s.mode == "batched" && s.batch == 256),
    ) {
        if let (Some(r1), Some(r256)) = (b1.preds_per_sec, b256.preds_per_sec) {
            if r1 > 0.0 {
                println!("throughput: batch 256 is {:.2}x batch 1", r256 / r1);
            }
        }
    }
    // Per-request latency footer — only under explicit timing, so the
    // default stdout stays a pure function of (seed, request count).
    if timing {
        for (label, pick) in [
            ("scalar", modes.iter().find(|s| s.mode == "scalar")),
            (
                "batch 256",
                modes.iter().find(|s| s.mode == "batched" && s.batch == 256),
            ),
        ] {
            if let Some(s) = pick {
                println!(
                    "latency {label}: p50 {} / p99 {} per request",
                    fmt_opt(s.p50_us, "us"),
                    fmt_opt(s.p99_us, "us")
                );
            }
        }
    }

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new([
            "mode",
            "batch",
            "preds_per_sec",
            "p50_us",
            "p95_us",
            "p99_us",
        ]);
        for s in &modes {
            table.push([
                s.mode.to_string(),
                s.batch.to_string(),
                s.preds_per_sec
                    .map_or_else(String::new, |v| format!("{v:?}")),
                s.p50_us.map_or_else(String::new, |v| format!("{v:?}")),
                s.p95_us.map_or_else(String::new, |v| format!("{v:?}")),
                s.p99_us.map_or_else(String::new, |v| format!("{v:?}")),
            ]);
        }
        if let Ok(path) = table.write_to(&dir, "fig23_serving") {
            println!("\nCSV series written to {}", path.display());
        }
        let json =
            bench_suite::serving::serving_json(requests, seed, encoded.len(), identical, &modes);
        if let Ok(path) = bench_suite::fsutil::atomic_write_in(&dir, "BENCH_serving.json", &json) {
            println!("JSON record written to {}", path.display());
        }
    }

    if !identical {
        eprintln!("serving acceptance FAILED: batched selections diverged from the scalar oracle");
        std::process::exit(1);
    }
}
