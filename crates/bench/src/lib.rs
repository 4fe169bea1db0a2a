//! # bench-suite — regenerating every table and figure of the paper
//!
//! Each binary in `src/bin/` reproduces one table or figure of the
//! Middleware '17 evaluation and prints the same rows/series the paper
//! reports (see `DESIGN.md` §5 for the full index and `EXPERIMENTS.md` for
//! paper-vs-measured numbers):
//!
//! | binary | reproduces |
//! |---|---|
//! | `tab02_features` | Table 2 + Fig. 4b — feature importance ranking |
//! | `tab05_classifiers` | Table 5 — expert-selector accuracy per classifier |
//! | `fig03_memfuncs` | Fig. 3 — observed vs predicted curves (Sort, PageRank) |
//! | `fig04_pca` | Fig. 4a — explained variance per principal component |
//! | `fig06_overall` | Fig. 6 — STP & ANTT vs Pairwise/Quasar/Oracle, L1..L10 |
//! | `fig07_utilization` | Fig. 7 — per-node utilisation over time (Table 4 mix) |
//! | `fig08_mix_outcome` | Fig. 8 — STP & turnaround for the Table 4 mix |
//! | `fig09_unified` | Fig. 9 — unified single-model baselines |
//! | `fig10_online` | Fig. 10 — online-search baseline |
//! | `fig11_overhead` | Fig. 11 — profiling overhead per scenario |
//! | `fig12_overhead_apps` | Fig. 12 — profiling overhead per benchmark |
//! | `fig13_cpuload` | Fig. 13 — CPU-load histogram in isolation |
//! | `fig14_interference` | Fig. 14 — Spark-vs-Spark co-location slowdowns |
//! | `fig15_parsec` | Fig. 15 — PARSEC co-location slowdowns |
//! | `fig16_clusters` | Fig. 16 — benchmark clusters in PCA space |
//! | `fig17_accuracy` | Fig. 17 — predicted vs measured footprints |
//! | `fig18_curves` | Fig. 18 — predicted vs measured curves, all training apps |
//! | `fig19_chaos` | Fig. 19 (extension) — STP/ANTT vs fault intensity, self-healing MoE vs plain/Pairwise/Oracle |
//! | `fig21_openloop` | Fig. 21 (extension) — open-system tail slowdown/OOMs under overload, admission-controlled vs uncontrolled |
//! | `fig22_chaos_search` | Fig. 22 (extension) — seeded chaos search over the fault × arrival × preset space with invariant battery and reproducer shrinking |
//! | `ablation_sweep` | design-choice ablations (KNN k, PCs, calibration sizes, margins, CPU guard, monitor window, cluster scaling) |
//! | `paper_headlines` | the §6.1 highlights block, measured in one run |
//! | `catalog_dump` | the 44-benchmark ground-truth catalog |
//! | `convergence_check` | the §5.2 CI stopping rule in action |
//!
//! The campaign sizes honour the `SPARK_MOE_MIXES` environment variable
//! (mixes per scenario, default 8) so CI can run quickly while a full
//! reproduction can push toward the paper's ~100 mixes. Campaigns fan out
//! across worker threads (see `simkit::par`); set `SPARK_MOE_THREADS` to
//! pin the pool — results are bit-for-bit identical for every value.

#![warn(missing_docs)]

pub mod csv;
pub mod fsutil;
pub mod mlcamp;
pub mod report;
pub mod serving;

use colocate::checkpoint::CheckpointConfig;
use colocate::harness::RunConfig;
use std::path::PathBuf;
use std::sync::OnceLock;
use workloads::Catalog;

/// The 44-benchmark ground-truth catalog, built once per process.
///
/// Every figure binary needs the same immutable [`Catalog::paper`]; the
/// construction involves per-benchmark latent signatures, so sharing one
/// instance keeps binaries that evaluate many scenarios from rebuilding it
/// per campaign (and lets campaign worker threads borrow it `'static`).
#[must_use]
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(Catalog::paper)
}

/// A positive count from environment variable `key`, or `default` when it
/// is unset, unparsable or zero.
#[must_use]
pub fn env_count(key: &str, default: usize) -> usize {
    env_parse(key).filter(|&n| n > 0).unwrap_or(default)
}

/// A seed from environment variable `key` (zero included), or `default`
/// when it is unset or unparsable.
#[must_use]
pub fn env_seed(key: &str, default: u64) -> u64 {
    env_parse(key).unwrap_or(default)
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// Number of random mixes per scenario, from `SPARK_MOE_MIXES` (default 8).
#[must_use]
pub fn mixes_per_scenario() -> usize {
    env_count("SPARK_MOE_MIXES", 8)
}

/// The shared experiment configuration (paper cluster, default training).
///
/// Worker-thread count is left at `None`, deferring to the
/// `SPARK_MOE_THREADS` override and then the host's parallelism.
#[must_use]
pub fn paper_run_config() -> RunConfig {
    RunConfig::default()
}

/// The checkpoint directory from `SPARK_MOE_CHECKPOINT_DIR`, if set.
///
/// When configured, campaign binaries journal every committed per-mix
/// fold there and resume interrupted sweeps — see
/// [`colocate::checkpoint`] and the README's "Resuming an interrupted
/// sweep".
#[must_use]
pub fn checkpoint_dir() -> Option<PathBuf> {
    std::env::var_os("SPARK_MOE_CHECKPOINT_DIR").map(PathBuf::from)
}

/// A [`CheckpointConfig`] journaling campaign `name` under
/// `SPARK_MOE_CHECKPOINT_DIR`, or `None` when checkpointing is disabled.
///
/// `name` must be unique per campaign within a binary (one campaign, one
/// journal file): the fig binaries use e.g. `fig06_L3` for the Fig. 6
/// scenario-L3 sweep.
#[must_use]
pub fn checkpoint_for(name: &str) -> Option<CheckpointConfig> {
    checkpoint_dir().map(|dir| CheckpointConfig::new(dir.join(format!("{name}.journal"))))
}

/// Prints a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats a `(min, max)` whisker pair.
#[must_use]
pub fn whisker(min_max: (f64, f64)) -> String {
    format!("[{:5.2}, {:5.2}]", min_max.0, min_max.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_default_is_positive() {
        assert!(mixes_per_scenario() > 0);
    }

    #[test]
    fn whisker_formats() {
        assert_eq!(whisker((1.0, 2.5)), "[ 1.00,  2.50]");
    }
}
