//! The model and its inputs: Table 2 and 5, Figs. 3, 4, 13 and 16–18,
//! and the ground-truth catalog.

use super::Size;
use crate::mlcamp::{self, CampaignError};
use crate::rule;
use colocate::predictors::{robust_calibrate, FootprintModel};
use mlkit::pca::Pca;
use mlkit::scaling::MinMaxScaler;
use mlkit::varimax::{feature_contributions, rank_features, varimax};
use moe_core::expert::CurveExpert;
use moe_core::features::RawFeature;
use simkit::par::available_workers;
use simkit::stats::Histogram;
use simkit::SimRng;
use std::path::Path;
use workloads::signatures;

/// Table 2 / Fig. 4b: the 22 raw features ranked by importance.
///
/// Observe the 16 training benchmarks' features, min-max scale, PCA to
/// 95 % variance, Varimax-rotate the loadings and rank raw features by
/// their contribution to the rotated components. The paper's top five are
/// `L1_TCM, L1_DCM, vcache, L1_STM, bo`.
pub fn tab02_features(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let mut rng = SimRng::seed_from(0x7AB2);

    // Several profiling observations per training benchmark.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for bench in catalog.training_set() {
        for _ in 0..4 {
            rows.push(signatures::observe_default(bench, &mut rng).into_vec());
        }
    }

    let scaler = MinMaxScaler::fit(&rows)?;
    let scaled = scaler.transform_batch(&rows)?;
    let pca = Pca::fit_for_variance(&scaled, 0.95)?;

    // Factor loadings: eigenvector entries scaled by each component's
    // standard deviation (√λ), features × components. Varimax rotation
    // redistributes the loadings across components for interpretability;
    // a feature's total contribution (its row sum of squares — the
    // communality) is rotation-invariant.
    let axes = pca.loadings(); // components × features, unit rows
    let eigenvalues = pca.eigenvalues();
    let mut loadings = mlkit::linalg::Matrix::zeros(axes.cols(), axes.rows());
    for (c, &eigenvalue) in eigenvalues.iter().enumerate().take(axes.rows()) {
        let sd = eigenvalue.max(0.0).sqrt();
        for d in 0..axes.cols() {
            loadings.set(d, c, axes.get(c, d) * sd);
        }
    }
    let rotated = varimax(&loadings, 200, 1e-10)?;
    let uniform = vec![1.0; rotated.rotated.cols()];
    let contrib = feature_contributions(&rotated.rotated, &uniform)?;
    let ranking = rank_features(&contrib);

    println!("Table 2: raw features sorted by importance (measured)");
    println!(
        "{:<4} {:<8} {:>12}  description",
        "rank", "abbr", "contrib (%)"
    );
    rule(64);
    for (rank, &f) in ranking.iter().enumerate() {
        let feature = RawFeature::ALL[f];
        println!(
            "{:<4} {:<8} {:>12.2}  {}",
            rank + 1,
            feature.abbr(),
            contrib[f],
            feature.description()
        );
    }
    rule(64);
    let top5: Vec<&str> = ranking
        .iter()
        .take(5)
        .map(|&f| RawFeature::ALL[f].abbr())
        .collect();
    println!("top-5 measured: {top5:?}");
    println!("top-5 in paper: [\"L1_TCM\", \"L1_DCM\", \"vcache\", \"L1_STM\", \"bo\"]");
    println!("(Fig. 4b plots the same top-5 contributions as a bar chart.)");
    Ok(())
}

/// Table 5: expert-selector prediction accuracy for alternative
/// classifiers, leave-one-benchmark-out over the 16 training programs.
/// The paper reports Naive Bayes 92.5 %, SVM 95.4 %, MLP 94.1 %, Random
/// Forests 95.5 %, Decision Tree 96.8 %, ANN 96.9 %, KNN 97.4 %.
pub fn tab05_classifiers(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let report = mlcamp::tab05_report(crate::catalog(), available_workers())?;
    print!("{report}");
    Ok(())
}

/// Fig. 3: observed vs predicted memory footprints for Sort and PageRank.
///
/// The paper shows that Sort follows the saturating exponential
/// `y = 5.768·(1 − e^(−4.479·x))` and PageRank the Napierian logarithm
/// `y = 16.333 + 1.79·ln x`. Each curve is calibrated from two profiling
/// points (the §4.1 procedure) and compared over five decades of input.
pub fn fig03_memfuncs(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let mut rng = SimRng::seed_from(0xF163);

    for name in ["HB.Sort", "HB.PageRank"] {
        let bench = catalog.by_name(name).ok_or("catalog benchmark")?;
        println!(
            "\nFig. 3 — {name}: ground truth is {} (m = {}, b = {})",
            bench.family().name(),
            bench.curve().m,
            bench.curve().b
        );

        // Two-point calibration at 5 % and 10 % of a 25 GB slice.
        let (x1, x2) = (1.25, 2.5);
        let noise = 0.01;
        let p1 = (x1, bench.true_footprint_gb(x1) * rng.relative_noise(noise));
        let p2 = (x2, bench.true_footprint_gb(x2) * rng.relative_noise(noise));
        let expert = CurveExpert::new(bench.family());
        let model = robust_calibrate(&expert, p1, p2)?;

        println!(
            "{:>12} {:>12} {:>12} {:>8}",
            "input (GB)", "observed", "predicted", "err %"
        );
        rule(50);
        for exp10 in -3..=3 {
            for &mant in &[1.0, 3.0] {
                let x = mant * 10f64.powi(exp10);
                if x > 1100.0 {
                    continue;
                }
                let observed = bench.true_footprint_gb(x);
                let predicted = FootprintModel::footprint_gb(&model, x);
                let err = if observed > 1e-9 {
                    (predicted - observed).abs() / observed * 100.0
                } else {
                    0.0
                };
                println!("{x:>12.3} {observed:>12.3} {predicted:>12.3} {err:>8.2}");
            }
        }
    }
    println!("\n(The paper's Fig. 3 plots these curves; prediction should track observation.)");
    Ok(())
}

/// Fig. 4a: fraction of feature variance explained by each principal
/// component. The paper reports PC1 ≈ 71 %, PC2 ≈ 10 %, PC3 ≈ 7 %,
/// PC4 ≈ 4 %, PC5 ≈ 3 %, rest ≈ 5 %, with the top five covering 95 %.
pub fn fig04_pca(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    print!("{}", mlcamp::fig04_report(crate::catalog())?);
    Ok(())
}

/// Fig. 13: distribution of CPU load across the 44 benchmarks when
/// running in isolation. The paper's histogram peaks in the 20–40 % bins,
/// with the CPU under 40 % for most benchmarks — the headroom co-location
/// exploits.
pub fn fig13_cpuload(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let mut histogram = Histogram::new(0.0, 60.0, 6);
    for bench in crate::catalog().all() {
        histogram.record(bench.cpu_util() * 100.0);
    }

    println!("Fig. 13: CPU load distribution in isolation mode");
    println!("{:>10} {:>14}", "load (%)", "# benchmarks");
    rule(26);
    for (i, count) in histogram.bin_counts().iter().enumerate() {
        let (lo, hi) = histogram.bin_edges(i);
        println!(
            "{:>4.0}-{:<5.0} {:>12}  {}",
            lo,
            hi,
            count,
            "#".repeat(*count as usize)
        );
    }
    rule(26);
    let under_40 = histogram.bin_counts()[..4].iter().sum::<u64>();
    println!("benchmarks under 40 % CPU: {under_40}/44 (paper: \"most of the 44 benchmarks\")");
    Ok(())
}

/// Fig. 16: the 44 benchmarks projected onto the first two principal
/// components of the feature space, forming three clusters — one per
/// memory function. The paper reports a Pearson correlation above 0.9999
/// between each program and its cluster centre.
pub fn fig16_clusters(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    print!("{}", mlcamp::fig16_report(crate::catalog())?);
    Ok(())
}

/// Fig. 17: predicted vs measured memory footprints for the 16 HiBench
/// and BigDataBench benchmarks (~280 GB inputs), under leave-one-out
/// cross-validation. The paper reports errors under 5 % for most
/// benchmarks, with HB.PageRank, BDB.PageRank and BDB.Sort
/// over-provisioned by 8–12 %.
pub fn fig17_accuracy(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let report = mlcamp::fig17_report(crate::catalog(), available_workers())?;
    print!("{report}");
    Ok(())
}

/// Fig. 18: predicted vs measured footprint curves for the 16 training
/// benchmarks over a sweep of input sizes (the paper sweeps 3×10⁻⁵ GB to
/// 280 GB). Predictions come from the leave-one-out-trained system with
/// two-point calibration, exactly as at runtime.
pub fn fig18_curves(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let report = mlcamp::fig18_report(crate::catalog(), available_workers())?;
    print!("{report}");
    Ok(())
}

/// The 44-benchmark catalog: suite, memory-function family and
/// coefficients, CPU utilisation and nominal rate — the ground truth
/// every experiment measures predictors against.
pub fn catalog_dump(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    println!(
        "{:<24} {:<34} {:>8} {:>8} {:>8} {:>10}",
        "benchmark", "memory function", "m", "b", "cpu %", "GB/s"
    );
    rule(98);
    for bench in catalog.all() {
        println!(
            "{:<24} {:<34} {:>8.3} {:>8.3} {:>8.0} {:>10.4}",
            bench.name(),
            bench.family().name(),
            bench.curve().m,
            bench.curve().b,
            bench.cpu_util() * 100.0,
            bench.rate_gb_per_s()
        );
    }
    rule(98);
    let training = catalog.training_set().len();
    println!(
        "{} benchmarks; {training} in the training suites (HiBench + BigDataBench)",
        catalog.len()
    );
    Ok(())
}
