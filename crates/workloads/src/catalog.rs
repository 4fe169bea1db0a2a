//! The 44-benchmark catalog (§5.1 "Workloads").
//!
//! Each entry models one of the paper's Spark benchmarks: its ground-truth
//! memory curve (family + coefficients), average CPU utilisation and
//! nominal per-executor throughput. Coefficients reported in the paper are
//! used verbatim (HB.Sort: exponential `m = 5.768, b = 4.479`;
//! HB.PageRank: logarithmic `m = 16.333, b = 1.79`, §3.1); the rest are
//! chosen so that footprints, Fig. 13's CPU-load histogram and Fig. 16's
//! three-cluster feature structure match the published shapes.

use mlkit::regression::{CurveFamily, FittedCurve};
use moe_core::features::RAW_FEATURE_COUNT;
use serde::{Deserialize, Serialize};
use sparklite::app::AppSpec;
use std::sync::OnceLock;

/// The benchmark suite a workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// HiBench (prefix `HB.`).
    HiBench,
    /// BigDataBench (prefix `BDB.`).
    BigDataBench,
    /// Spark-Perf (prefix `SP.`).
    SparkPerf,
    /// Spark-Bench (prefix `SB.`).
    SparkBench,
}

impl Suite {
    /// The name prefix used throughout the paper's figures.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Suite::HiBench => "HB",
            Suite::BigDataBench => "BDB",
            Suite::SparkPerf => "SP",
            Suite::SparkBench => "SB",
        }
    }
}

/// One modeled benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Benchmark {
    suite: Suite,
    base: &'static str,
    curve: FittedCurve,
    cpu_util: f64,
    rate_gb_per_s: f64,
    index: usize,
    latent_draws: LatentDraws,
}

/// The first [`RAW_FEATURE_COUNT`] standard-normal draws of a benchmark's
/// signature stream, filled on first use by `signatures`. They are a
/// function of the benchmark's index, so they take no part in equality.
#[derive(Debug, Clone, Default)]
pub(crate) struct LatentDraws(OnceLock<[f64; RAW_FEATURE_COUNT]>);

impl PartialEq for LatentDraws {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Benchmark {
    /// Suite this benchmark belongs to.
    #[must_use]
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Base name without the suite prefix (e.g. `Sort`).
    #[must_use]
    pub fn base_name(&self) -> &'static str {
        self.base
    }

    /// Full display name (e.g. `HB.Sort`).
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}.{}", self.suite.prefix(), self.base)
    }

    /// Ground-truth memory curve.
    #[must_use]
    pub fn curve(&self) -> FittedCurve {
        self.curve
    }

    /// The curve's family — the "correct" expert for this benchmark.
    #[must_use]
    pub fn family(&self) -> CurveFamily {
        self.curve.family
    }

    /// Average CPU utilisation of one executor (fraction of a node).
    #[must_use]
    pub fn cpu_util(&self) -> f64 {
        self.cpu_util
    }

    /// Nominal uncontended throughput of one executor (GB/s).
    #[must_use]
    pub fn rate_gb_per_s(&self) -> f64 {
        self.rate_gb_per_s
    }

    /// Stable index of this benchmark within the catalog.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The signature stream's cached unit deviates (see [`LatentDraws`]).
    pub(crate) fn latent_draws(&self) -> &OnceLock<[f64; RAW_FEATURE_COUNT]> {
        &self.latent_draws.0
    }

    /// Ground-truth footprint for an executor slice, GB.
    #[must_use]
    pub fn true_footprint_gb(&self, slice_gb: f64) -> f64 {
        self.curve.eval(slice_gb).max(0.0)
    }

    /// Builds the sparklite [`AppSpec`] for a run over `input_gb` of data
    /// with the given footprint measurement noise.
    #[must_use]
    pub fn app_spec(&self, input_gb: f64, footprint_noise_sd: f64) -> AppSpec {
        AppSpec {
            name: self.name(),
            input_gb,
            rate_gb_per_s: self.rate_gb_per_s,
            cpu_util: self.cpu_util,
            memory_curve: self.curve,
            footprint_noise_sd,
        }
    }

    /// A key identifying "equivalent implementations" across suites —
    /// e.g. `HB.Sort` and `BDB.Sort` share the key `sort`. The paper
    /// excludes equivalents from the training set during cross-validation
    /// (§5.2).
    #[must_use]
    pub fn equivalence_key(&self) -> String {
        let lower = self.base.to_ascii_lowercase();
        // Normalise naming variants used across suites.
        let key = match lower.as_str() {
            "wordcount" => "wordcount",
            "naivesbayes" | "naivebayes" | "bayes" => "bayes",
            "kmeans" => "kmeans",
            "pca" => "pca",
            "decisiontree" => "decisiontree",
            "terasort" => "terasort",
            "pagerank" => "pagerank",
            "sort" => "sort",
            other => other,
        };
        key.to_string()
    }
}

/// The full benchmark catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    benchmarks: Vec<Benchmark>,
}

impl Catalog {
    /// The paper's 44 benchmarks.
    #[must_use]
    pub fn paper() -> Self {
        const EXP: CurveFamily = CurveFamily::Exponential;
        const LIN: CurveFamily = CurveFamily::Linear;
        const LOG: CurveFamily = CurveFamily::NapierianLog;
        // (suite, base, family, m, b, cpu_util, rate_gb_per_s)
        #[rustfmt::skip]
        let rows: Vec<(Suite, &'static str, CurveFamily, f64, f64, f64, f64)> = vec![
            // --- HiBench (9) ---
            (Suite::HiBench, "Sort",         EXP, 5.768, 4.479, 0.12, 0.011250),
            (Suite::HiBench, "WordCount",    EXP, 11.34, 2.8, 0.21, 0.010000),
            (Suite::HiBench, "TeraSort",     EXP, 17.28, 3.1, 0.25, 0.008750),
            (Suite::HiBench, "Scan",         EXP, 8.1, 5.2, 0.08, 0.013750),
            (Suite::HiBench, "Aggregation",  EXP, 12.96, 3.6, 0.41, 0.007500),
            (Suite::HiBench, "Join",         EXP, 14.04, 2.4, 0.31, 0.008000),
            (Suite::HiBench, "PageRank",     LOG, 16.333, 1.79, 0.35, 0.005500),
            (Suite::HiBench, "Kmeans",       LIN, 0.7378, 1.8, 0.45, 0.004500),
            (Suite::HiBench, "Bayes",        LIN, 0.595, 1.5, 0.33, 0.006250),
            // --- BigDataBench (7) ---
            (Suite::BigDataBench, "Sort",        LOG, 8.3, 1.2, 0.13, 0.010500),
            (Suite::BigDataBench, "Wordcount",   EXP, 9.72, 3.3, 0.22, 0.011000),
            (Suite::BigDataBench, "Grep",        EXP, 7.02, 4.1, 0.09, 0.015000),
            (Suite::BigDataBench, "PageRank",    LOG, 24.8, 2.05, 0.36, 0.005000),
            (Suite::BigDataBench, "Kmeans",      LIN, 0.786, 1.95, 0.42, 0.004750),
            (Suite::BigDataBench, "Con.Com",     LOG, 14.68, 1.5, 0.29, 0.006500),
            (Suite::BigDataBench, "NaivesBayes", LIN, 0.5474, 1.35, 0.32, 0.006750),
            // --- Spark-Perf (15) ---
            (Suite::SparkPerf, "Kmeans",             LIN, 0.7616, 1.875, 0.43, 0.004500),
            (Suite::SparkPerf, "glm-classification", LIN, 0.524, 1.35, 0.37, 0.005250),
            (Suite::SparkPerf, "glm-regression",     LIN, 0.476, 1.2, 0.35, 0.005500),
            (Suite::SparkPerf, "Pca",                LIN, 0.714, 1.65, 0.38, 0.004750),
            (Suite::SparkPerf, "DecisionTree",       LIN, 0.3808, 1.05, 0.33, 0.006000),
            (Suite::SparkPerf, "Spearman",           LOG, 12.7, 1.4, 0.28, 0.006500),
            (Suite::SparkPerf, "NaiveBayes",         LIN, 0.5712, 1.425, 0.29, 0.006750),
            (Suite::SparkPerf, "CoreRDD",            EXP, 8.64, 2.9, 0.15, 0.012000),
            (Suite::SparkPerf, "Gmm",                LOG, 15.56, 1.45, 0.46, 0.004250),
            (Suite::SparkPerf, "Sum.Statis",         LIN, 0.2856, 0.75, 0.16, 0.012500),
            (Suite::SparkPerf, "B.MatrixMult",       LIN, 0.8092, 2.1, 0.52, 0.003750),
            (Suite::SparkPerf, "Pearson",            LIN, 0.5712, 1.35, 0.27, 0.007000),
            (Suite::SparkPerf, "Chi-sq",             LIN, 0.3332, 0.9, 0.18, 0.011250),
            (Suite::SparkPerf, "ALS",                LIN, 0.6426, 1.725, 0.44, 0.004500),
            (Suite::SparkPerf, "Sort",               EXP, 14.58, 4.0, 0.19, 0.010750),
            // --- Spark-Bench (13) ---
            (Suite::SparkBench, "SVD++",         LOG, 23.7, 1.95, 0.55, 0.003500),
            (Suite::SparkBench, "Hive",          EXP, 11.88, 2.5, 0.23, 0.009000),
            (Suite::SparkBench, "MatrixFact",    LOG, 18.2, 1.7, 0.47, 0.004000),
            (Suite::SparkBench, "LogRegre",      LIN, 0.4998, 1.275, 0.34, 0.005750),
            (Suite::SparkBench, "RDDRelation",   EXP, 10.53, 3.0, 0.24, 0.009500),
            (Suite::SparkBench, "TeraSort",      EXP, 16.47, 3.4, 0.26, 0.008500),
            (Suite::SparkBench, "SVM",           LIN, 0.5474, 1.425, 0.39, 0.005000),
            (Suite::SparkBench, "TriangleCount", LOG, 22.6, 1.9, 0.37, 0.005250),
            (Suite::SparkBench, "ShortestPaths", LOG, 19.96, 1.75, 0.28, 0.006000),
            (Suite::SparkBench, "PregelOp",      LOG, 21.5, 1.85, 0.38, 0.005000),
            (Suite::SparkBench, "PCA",           LIN, 0.6902, 1.575, 0.26, 0.005250),
            (Suite::SparkBench, "KMeans",        LIN, 0.714, 1.725, 0.48, 0.004250),
            (Suite::SparkBench, "DecisionTree",  LIN, 0.4046, 1.125, 0.58, 0.003750),
        ];
        let benchmarks = rows
            .into_iter()
            .enumerate()
            .map(
                |(index, (suite, base, family, m, b, cpu_util, rate))| Benchmark {
                    suite,
                    base,
                    curve: FittedCurve { family, m, b },
                    cpu_util,
                    rate_gb_per_s: rate,
                    index,
                    latent_draws: LatentDraws::default(),
                },
            )
            .collect();
        Catalog { benchmarks }
    }

    /// Number of benchmarks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether the catalog is empty (never, for [`Catalog::paper`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// All benchmarks, in catalog order.
    #[must_use]
    pub fn all(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Looks up a benchmark by full name (e.g. `"HB.Sort"`).
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name() == name)
    }

    /// Benchmarks of one suite, in catalog order.
    #[must_use]
    pub fn by_suite(&self, suite: Suite) -> Vec<&Benchmark> {
        self.benchmarks
            .iter()
            .filter(|b| b.suite() == suite)
            .collect()
    }

    /// The 16 training benchmarks: HiBench + BigDataBench (§3.3).
    #[must_use]
    pub fn training_set(&self) -> Vec<&Benchmark> {
        self.benchmarks
            .iter()
            .filter(|b| matches!(b.suite(), Suite::HiBench | Suite::BigDataBench))
            .collect()
    }

    /// Benchmarks equivalent to `bench` (same algorithm in another suite),
    /// *excluding* `bench` itself — the paper's extra cross-validation
    /// exclusions (§5.2).
    #[must_use]
    pub fn equivalents_of(&self, bench: &Benchmark) -> Vec<&Benchmark> {
        let key = bench.equivalence_key();
        self.benchmarks
            .iter()
            .filter(|b| b.index() != bench.index() && b.equivalence_key() == key)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_four_benchmarks_with_unique_names() {
        let c = Catalog::paper();
        assert_eq!(c.len(), 44);
        let names: std::collections::HashSet<String> =
            c.all().iter().map(Benchmark::name).collect();
        assert_eq!(names.len(), 44);
    }

    #[test]
    fn sixteen_training_benchmarks() {
        let c = Catalog::paper();
        assert_eq!(c.training_set().len(), 16);
    }

    #[test]
    fn suites_partition_the_catalog() {
        let c = Catalog::paper();
        let counts: Vec<usize> = [
            Suite::HiBench,
            Suite::BigDataBench,
            Suite::SparkPerf,
            Suite::SparkBench,
        ]
        .iter()
        .map(|&s| c.by_suite(s).len())
        .collect();
        assert_eq!(counts, vec![9, 7, 15, 13]);
        assert_eq!(counts.iter().sum::<usize>(), 44);
    }

    #[test]
    fn paper_reported_coefficients_are_exact() {
        let c = Catalog::paper();
        let sort = c.by_name("HB.Sort").unwrap();
        assert_eq!(sort.family(), CurveFamily::Exponential);
        assert_eq!(sort.curve().m, 5.768);
        assert_eq!(sort.curve().b, 4.479);
        let pr = c.by_name("HB.PageRank").unwrap();
        assert_eq!(pr.family(), CurveFamily::NapierianLog);
        assert_eq!(pr.curve().m, 16.333);
        assert_eq!(pr.curve().b, 1.79);
    }

    #[test]
    fn cpu_load_histogram_matches_fig13() {
        let c = Catalog::paper();
        let mut bins = [0usize; 6];
        for b in c.all() {
            let bin = (b.cpu_util() * 10.0) as usize;
            assert!(bin < 6, "{} has CPU above 60 %", b.name());
            bins[bin] += 1;
        }
        assert_eq!(bins, [2, 6, 12, 13, 8, 3]);
    }

    #[test]
    fn all_three_families_are_represented() {
        let c = Catalog::paper();
        for family in CurveFamily::ALL {
            let count = c.all().iter().filter(|b| b.family() == family).count();
            assert!(count >= 10, "{family} has only {count} benchmarks");
        }
    }

    #[test]
    fn equivalence_links_cross_suite_twins() {
        let c = Catalog::paper();
        let hb_sort = c.by_name("HB.Sort").unwrap();
        let eq: Vec<String> = c.equivalents_of(hb_sort).iter().map(|b| b.name()).collect();
        assert!(eq.contains(&"BDB.Sort".to_string()));
        assert!(eq.contains(&"SP.Sort".to_string()));
        assert!(!eq.contains(&"HB.Sort".to_string()));

        let hb_bayes = c.by_name("HB.Bayes").unwrap();
        let eq: Vec<String> = c
            .equivalents_of(hb_bayes)
            .iter()
            .map(|b| b.name())
            .collect();
        assert!(eq.contains(&"BDB.NaivesBayes".to_string()));
        assert!(eq.contains(&"SP.NaiveBayes".to_string()));
    }

    #[test]
    fn footprints_fit_one_node_for_typical_slices() {
        // A 64 GB node must be able to host any benchmark's executor on a
        // dynamic-allocation-sized slice.
        let c = Catalog::paper();
        for b in c.all() {
            let fp = b.true_footprint_gb(32.0);
            assert!(fp < 60.0, "{}: 32 GB slice needs {fp} GB", b.name());
            assert!(b.true_footprint_gb(0.05) >= 0.0);
        }
    }

    #[test]
    fn app_spec_carries_benchmark_properties() {
        let c = Catalog::paper();
        let b = c.by_name("SB.Hive").unwrap();
        let spec = b.app_spec(30.0, 0.02);
        assert_eq!(spec.name, "SB.Hive");
        assert_eq!(spec.input_gb, 30.0);
        assert_eq!(spec.cpu_util, b.cpu_util());
        assert_eq!(spec.memory_curve, b.curve());
        assert_eq!(spec.footprint_noise_sd, 0.02);
    }

    #[test]
    fn lookup_misses_return_none() {
        let c = Catalog::paper();
        assert!(c.by_name("HB.NoSuch").is_none());
        assert!(!c.is_empty());
    }
}
