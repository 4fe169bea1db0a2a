//! ML-pipeline benchmarks: the kernels and training campaigns behind the
//! MoE predictor (PCA over 22 features, KNN expert selection, per-fold
//! leave-one-out training).
//!
//! Five cases, matching the flat-kernel and parallel-LOOCV work:
//!
//! * **matmul 64×64** — dense `Matrix::matmul` (the PCA/eigen workhorse);
//! * **KNN predict 2048×22** — one query against a large exemplar store
//!   (distance pass + neighbour selection);
//! * **PCA fit-for-variance 64×22** — the selector's feature-reduction
//!   step (covariance + Jacobi eigendecomposition + truncation rule);
//! * **exponential curve fit** — `fit_exponential`'s 1-D line search, the
//!   dominant cost of offline benchmark profiling;
//! * **LOOCV fig17 campaign** — the full 16-fold leave-one-out training
//!   sweep the fig16/17/18 and tab05 binaries run.
//!
//! Besides the Criterion rows, the harness can record medians for
//! `results/BENCH_mlkit.json` (mirroring `benches/hotpath.rs`):
//!
//! * `SPARK_MOE_MLKIT_OUT=<path>` — write this run's medians to `<path>`
//!   (run this on the *before* commit);
//! * `SPARK_MOE_MLKIT_BASELINE=<path>` — read a baseline written by the
//!   above and emit `results/BENCH_mlkit.json` with before/after medians
//!   and speedups via the atomic report writer.

use colocate::training::{train_loocv_all, TrainingConfig};
use criterion::{criterion_group, Criterion};
use mlkit::knn::KnnClassifier;
use mlkit::linalg::Matrix;
use mlkit::pca::Pca;
use mlkit::regression;
use simkit::SimRng;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random matrix entries (no RNG dependency: the
/// values only need to be dense and well-conditioned, not random).
fn dense(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_rows(
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| {
                        let x = (r * cols + c + salt) as f64;
                        (x * 0.61803398875).fract() * 2.0 - 1.0
                    })
                    .collect()
            })
            .collect(),
    )
}

fn matmul_case(a: &Matrix, b: &Matrix) -> f64 {
    let c = a.matmul(b).expect("conformable");
    c.get(0, 0)
}

/// A 3-class exemplar cloud in 22-d: blobs around three centres with a
/// deterministic per-point offset.
fn knn_fixture(n: usize) -> KnnClassifier {
    let dims = 22;
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let class = i % 3;
            (0..dims)
                .map(|d| {
                    let jitter = (((i * 31 + d * 7) % 97) as f64 / 97.0 - 0.5) * 0.4;
                    class as f64 * 2.0 + (d % 5) as f64 * 0.1 + jitter
                })
                .collect()
        })
        .collect();
    let ys: Vec<usize> = (0..n).map(|i| i % 3).collect();
    KnnClassifier::fit(&xs, &ys, 7).expect("knn fixture")
}

fn knn_case(knn: &KnnClassifier, queries: &[Vec<f64>]) -> usize {
    queries
        .iter()
        .map(|q| knn.predict_with_evidence(q).expect("query").label)
        .sum()
}

fn knn_queries(count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..22)
                .map(|d| (i % 3) as f64 * 2.0 + (d % 5) as f64 * 0.1 + 0.05)
                .collect()
        })
        .collect()
}

/// Scaled feature rows of the fig04 shape (many observations, 22 dims).
fn pca_rows() -> Vec<Vec<f64>> {
    let catalog = bench_suite::catalog();
    let mut rng = SimRng::seed_from(0xF164);
    let mut rows = Vec::new();
    for bench in catalog.training_set() {
        for _ in 0..4 {
            rows.push(workloads::signatures::observe_default(bench, &mut rng).into_vec());
        }
    }
    let scaler = mlkit::scaling::MinMaxScaler::fit(&rows).expect("scaler");
    scaler.transform_batch(&rows).expect("scale")
}

fn pca_case(rows: &[Vec<f64>]) -> usize {
    Pca::fit_for_variance(rows, 0.95).expect("pca").components()
}

/// The 12-point saturating-exponential profile `fit_benchmark` fits.
fn exp_points() -> (Vec<f64>, Vec<f64>) {
    let xs = TrainingConfig::default().profile_sizes_gb;
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| 5.768 * (1.0 - (-4.479 * x).exp()) * (1.0 + 0.002 * (x * 13.0).sin()))
        .collect();
    (xs, ys)
}

fn exp_fit_case(xs: &[f64], ys: &[f64]) -> f64 {
    regression::fit_exponential(xs, ys).expect("exp fit").b
}

/// The fig17-shaped LOOCV campaign: leave-one-out training for every one
/// of the 16 training benchmarks, via the shared-profile parallel pipeline
/// the fig17/fig18 binaries now run (4 workers, matching CI's bit-identity
/// gate). The baseline median for this case was recorded on the serial
/// per-fold `train_loocv` loop.
fn loocv_campaign() -> usize {
    let catalog = bench_suite::catalog();
    let config = TrainingConfig::default();
    let systems = train_loocv_all(catalog, &catalog.training_set(), &config, 0xF1617, 4)
        .expect("loocv campaign");
    systems.iter().map(|s| s.programs.len()).sum()
}

fn bench_matmul(c: &mut Criterion) {
    let a = dense(64, 64, 1);
    let b = dense(64, 64, 2);
    c.bench_function("mlkit_matmul_64x64", |bch| {
        bch.iter(|| black_box(matmul_case(&a, &b)))
    });
}

fn bench_knn(c: &mut Criterion) {
    let knn = knn_fixture(2048);
    let queries = knn_queries(16);
    c.bench_function("mlkit_knn_predict_2048x22", |b| {
        b.iter(|| black_box(knn_case(&knn, &queries)))
    });
}

fn bench_pca(c: &mut Criterion) {
    let rows = pca_rows();
    c.bench_function("mlkit_pca_fit_variance_64x22", |b| {
        b.iter(|| black_box(pca_case(&rows)))
    });
}

fn bench_exp_fit(c: &mut Criterion) {
    let (xs, ys) = exp_points();
    c.bench_function("mlkit_fit_exponential_12pts", |b| {
        b.iter(|| black_box(exp_fit_case(&xs, &ys)))
    });
}

fn bench_loocv(c: &mut Criterion) {
    c.bench_function("mlkit_loocv_fig17_campaign", |b| {
        b.iter(|| black_box(loocv_campaign()))
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_knn,
    bench_pca,
    bench_exp_fit,
    bench_loocv
);

// ---------------------------------------------------------------------------
// Median recorder for results/BENCH_mlkit.json.

/// Median seconds per call of `f` over `samples` timed samples of `iters`
/// calls each (after one warm-up sample).
fn median_secs<R>(iters: usize, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters {
        black_box(f());
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            started.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    per_iter[per_iter.len() / 2]
}

/// Runs every case once through the median recorder, in a fixed order.
fn recorded_cases() -> Vec<(&'static str, f64)> {
    let mut cases: Vec<(&'static str, f64)> = Vec::new();
    {
        let a = dense(64, 64, 1);
        let b = dense(64, 64, 2);
        cases.push(("matmul_64x64", median_secs(200, 15, || matmul_case(&a, &b))));
    }
    {
        let knn = knn_fixture(2048);
        let queries = knn_queries(16);
        cases.push((
            "knn_predict_2048x22",
            median_secs(50, 15, || knn_case(&knn, &queries)),
        ));
    }
    {
        let rows = pca_rows();
        cases.push((
            "pca_fit_variance_64x22",
            median_secs(20, 15, || pca_case(&rows)),
        ));
    }
    {
        let (xs, ys) = exp_points();
        cases.push((
            "fit_exponential_12pts",
            median_secs(200, 15, || exp_fit_case(&xs, &ys)),
        ));
    }
    cases.push(("loocv_fig17_campaign", median_secs(2, 9, loocv_campaign)));
    cases
}

/// Serialises one run's medians: one `{"name":...,"median_secs":...}` per
/// line inside a `cases` array.
fn medians_json(cases: &[(&str, f64)]) -> String {
    let mut out = String::from("{\"cases\":[\n");
    for (i, (name, secs)) in cases.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":{},\"median_secs\":{}}}{}\n",
            bench_suite::report::json_str(name),
            bench_suite::report::json_num(*secs),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Pulls `(name, median_secs)` pairs back out of a baseline file written
/// by [`medians_json`]. Line-oriented on purpose: no JSON dependency.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\":\"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once("\",\"median_secs\":") else {
            continue;
        };
        let value = rest.trim_end_matches(['}', ',', ' ']);
        if let Ok(secs) = value.parse::<f64>() {
            out.push((name.to_string(), secs));
        }
    }
    out
}

fn write_report(baseline_path: &str, cases: &[(&str, f64)]) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mlkit bench: cannot read baseline {baseline_path}: {e}");
            return;
        }
    };
    let before = parse_baseline(&text);
    let mut out = String::from("{\"cases\":[\n");
    let mut first = true;
    for (name, after) in cases {
        let Some((_, before_secs)) = before.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":{},\"before_secs\":{},\"after_secs\":{},\"speedup\":{}}}",
            bench_suite::report::json_str(name),
            bench_suite::report::json_num(*before_secs),
            bench_suite::report::json_num(*after),
            bench_suite::report::json_num(before_secs / after.max(1e-15)),
        ));
    }
    out.push_str("\n]}\n");
    // Anchor at the workspace root: cargo runs benches with the *package*
    // directory as cwd, but every other artifact lands in the top-level
    // `results/`.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    match bench_suite::fsutil::atomic_write_in(&results, "BENCH_mlkit.json", &out) {
        Ok(path) => println!("mlkit record written to {}", path.display()),
        Err(e) => eprintln!("mlkit bench: cannot write results/BENCH_mlkit.json: {e}"),
    }
}

fn main() {
    let record_out = std::env::var("SPARK_MOE_MLKIT_OUT").ok();
    let baseline = std::env::var("SPARK_MOE_MLKIT_BASELINE").ok();
    if record_out.is_none() && baseline.is_none() {
        benches();
        return;
    }
    let cases = recorded_cases();
    for (name, secs) in &cases {
        println!("{name}: median {:.3} µs", secs * 1e6);
    }
    if let Some(path) = record_out {
        let json = medians_json(&cases);
        if let Err(e) = simkit::wire::atomic_write(std::path::Path::new(&path), json.as_bytes()) {
            eprintln!("mlkit bench: cannot write {path}: {e}");
        } else {
            println!("mlkit medians written to {path}");
        }
    }
    if let Some(path) = baseline {
        write_report(&path, &cases);
    }
}
