//! The offline training phase (Fig. 2).
//!
//! For each training benchmark (the 16 HiBench + BigDataBench programs,
//! §3.3) the pipeline:
//!
//! 1. extracts its feature vector from a profiling run,
//! 2. profiles its memory footprint over a range of input sizes
//!    (~300 MB to ~1 TB in the paper; slice-scale sizes here),
//! 3. fits every expert family by least squares and labels the benchmark
//!    with the family that fits best,
//! 4. trains the KNN expert selector over `(features, label)` exemplars.
//!
//! [`train_system`] runs the full pipeline; [`train_loocv`] excludes a
//! target benchmark *and its cross-suite equivalents* from the training
//! set, implementing the evaluation protocol of §5.2.
//!
//! Profiling (steps 1–3) is the expensive part and depends only on the
//! benchmark set and the RNG stream — not on which fold of a
//! cross-validation is being trained — so it is factored into
//! [`profile_benchmarks`], whose output ([`ProgramProfiles`]) can be
//! sliced per fold by [`train_from_profiles`]. [`train_loocv_all`] uses
//! that split to profile a campaign's benchmarks once and fan the cheap
//! per-fold selector training out across workers deterministically.

use crate::predictors::{PredictionTable, QuasarPredictor};
use crate::profiling::ProfilingConfig;
use crate::ColocateError;
use mlkit::regression::{self, CurveFamily, FittedCurve};
use moe_core::expert::ExpertId;
use moe_core::predictor::{MoePredictor, PredictorConfig, TrainingProgram};
use moe_core::registry::ExpertRegistry;
use simkit::SimRng;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use workloads::catalog::{Benchmark, Catalog};
use workloads::signatures;

/// Configuration of offline training.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Input slice sizes (GB) profiled per benchmark for curve fitting.
    pub profile_sizes_gb: Vec<f64>,
    /// Measurement noise on profiled footprints.
    pub footprint_noise_sd: f64,
    /// Profiling (feature observation) noise settings.
    pub profiling: ProfilingConfig,
    /// Selector/calibration settings.
    pub predictor: PredictorConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            // Log-spaced from 50 MB to 64 GB: the slice scales executors
            // actually see, covering the curvature of all three families.
            profile_sizes_gb: vec![
                0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6, 51.2, 64.0,
            ],
            footprint_noise_sd: 0.005,
            profiling: ProfilingConfig::default(),
            predictor: PredictorConfig::default(),
        }
    }
}

/// A trained runtime: registry, selector and the labeled training programs.
#[derive(Debug, Clone)]
pub struct TrainedSystem {
    /// The end-to-end predictor (registry + selector).
    pub predictor: MoePredictor,
    /// The labeled training programs (for analyses like Fig. 16).
    pub programs: Vec<TrainingProgram>,
    /// Per-program fitted curves from the offline profiling, parallel to
    /// `programs` (used by the Quasar-style baseline).
    pub fitted_curves: Vec<mlkit::regression::FittedCurve>,
    /// Catalog indices of the programs, parallel to `programs`.
    pub program_benchmarks: Vec<usize>,
    /// Measured average CPU utilisation of each program during offline
    /// profiling, parallel to `programs`.
    pub program_cpus: Vec<f64>,
    /// Campaign-wide cache of expert selections. Shared (via `Arc`) by
    /// every clone of this system, so policies and mix replays built from
    /// the same binding reuse each other's KNN lookups.
    pub selections: Arc<PredictionTable>,
    /// The Quasar baseline's estimator over `programs`, built on first use
    /// by [`TrainedSystem::quasar`] and shared (via `Arc`), like
    /// `selections`, by every clone of this system.
    quasar: Arc<OnceLock<Arc<QuasarPredictor>>>,
}

impl TrainedSystem {
    /// The Quasar baseline's estimator over this system's programs. Its
    /// truncated SVD depends only on the system, so it is built once, on
    /// first use, and every schedule (and every clone of the system)
    /// shares it.
    ///
    /// # Errors
    ///
    /// Propagates [`QuasarPredictor::new`]'s failures.
    pub fn quasar(&self) -> Result<Arc<QuasarPredictor>, ColocateError> {
        if let Some(built) = self.quasar.get() {
            return Ok(Arc::clone(built));
        }
        // Racing workers may each build one; they are identical, and the
        // first stored wins.
        let built = Arc::new(QuasarPredictor::new(self)?);
        Ok(Arc::clone(self.quasar.get_or_init(|| built)))
    }
}

/// Offline-fits one benchmark's memory curve and returns the winning
/// family and curve.
///
/// # Errors
///
/// Returns [`ColocateError::Ml`] if no family fits the profile data.
pub fn fit_benchmark(
    bench: &Benchmark,
    config: &TrainingConfig,
    rng: &mut SimRng,
) -> Result<(CurveFamily, mlkit::regression::FittedCurve), ColocateError> {
    let xs: Vec<f64> = config.profile_sizes_gb.clone();
    let ys: Vec<f64> = xs
        .iter()
        .map(|&x| bench.true_footprint_gb(x) * rng.relative_noise(config.footprint_noise_sd))
        .collect();
    let (curve, _rmse) = regression::best_fit(&xs, &ys)?;
    Ok((curve.family, curve))
}

/// Maps a family to its [`ExpertId`] in the builtin registry
/// (Table 1 order).
#[must_use]
pub fn family_expert_id(family: CurveFamily) -> ExpertId {
    let idx = CurveFamily::ALL
        .iter()
        .position(|&f| f == family)
        .expect("family in ALL");
    ExpertId::from_usize(idx)
}

/// Offline profiling artifacts for a set of benchmarks, computed once and
/// reusable across cross-validation folds.
///
/// All four vectors are parallel. Produced by [`profile_benchmarks`];
/// consumed (with per-fold exclusions) by [`train_from_profiles`].
#[derive(Debug, Clone)]
pub struct ProgramProfiles {
    /// Catalog indices of the profiled benchmarks.
    pub benchmarks: Vec<usize>,
    /// Labeled training programs (observed features + family label).
    pub programs: Vec<TrainingProgram>,
    /// Offline-fitted memory curves.
    pub fitted_curves: Vec<FittedCurve>,
    /// Measured average CPU utilisation during profiling.
    pub cpus: Vec<f64>,
}

/// Runs the offline profiling pipeline (curve fitting, feature
/// observation, CPU measurement) over `benchmarks`.
///
/// Consumes `rng` exactly as [`train_on`] historically did, so a profile
/// pass followed by [`train_from_profiles`] with no exclusions reproduces
/// `train_on` bit for bit.
///
/// # Errors
///
/// Returns [`ColocateError::Ml`] if a benchmark's profile fits no family.
pub fn profile_benchmarks(
    benchmarks: &[&Benchmark],
    config: &TrainingConfig,
    rng: &mut SimRng,
) -> Result<ProgramProfiles, ColocateError> {
    let mut programs = Vec::with_capacity(benchmarks.len());
    let mut fitted_curves = Vec::with_capacity(benchmarks.len());
    let mut program_benchmarks = Vec::with_capacity(benchmarks.len());
    let mut program_cpus = Vec::with_capacity(benchmarks.len());
    for bench in benchmarks {
        let (family, curve) = fit_benchmark(bench, config, rng)?;
        let features = signatures::observe(
            bench,
            rng,
            config.profiling.signature_jitter_sd,
            config.profiling.feature_noise_sd,
        );
        programs.push(TrainingProgram::new(
            bench.name(),
            features,
            family_expert_id(family),
        ));
        fitted_curves.push(curve);
        program_benchmarks.push(bench.index());
        program_cpus.push((bench.cpu_util() * rng.relative_noise(0.03)).clamp(0.01, 1.0));
    }
    Ok(ProgramProfiles {
        benchmarks: program_benchmarks,
        programs,
        fitted_curves,
        cpus: program_cpus,
    })
}

/// Trains a system from already-computed profiles, skipping every program
/// whose catalog index is in `excluded`.
///
/// Selector training consumes no randomness, so this step is cheap and
/// thread-safe: leave-one-out campaigns profile once and call this per
/// fold (see [`train_loocv_all`]).
///
/// # Errors
///
/// Returns [`ColocateError::Config`] if the exclusions leave no training
/// program, and propagates selector-training failures.
pub fn train_from_profiles(
    profiles: &ProgramProfiles,
    excluded: &HashSet<usize>,
    config: &TrainingConfig,
) -> Result<TrainedSystem, ColocateError> {
    let keep: Vec<usize> = (0..profiles.programs.len())
        .filter(|&i| !excluded.contains(&profiles.benchmarks[i]))
        .collect();
    if keep.is_empty() {
        return Err(ColocateError::Config(
            "no training programs remain after exclusions".into(),
        ));
    }
    let programs: Vec<TrainingProgram> =
        keep.iter().map(|&i| profiles.programs[i].clone()).collect();
    let predictor = MoePredictor::train(ExpertRegistry::builtin(), &programs, config.predictor)?;
    Ok(TrainedSystem {
        predictor,
        programs,
        fitted_curves: keep.iter().map(|&i| profiles.fitted_curves[i]).collect(),
        program_benchmarks: keep.iter().map(|&i| profiles.benchmarks[i]).collect(),
        program_cpus: keep.iter().map(|&i| profiles.cpus[i]).collect(),
        selections: Arc::new(PredictionTable::new()),
        quasar: Arc::default(),
    })
}

/// Trains the full system on the given benchmarks.
///
/// # Errors
///
/// Propagates fitting and selector-training failures.
pub fn train_on(
    benchmarks: &[&Benchmark],
    config: &TrainingConfig,
    rng: &mut SimRng,
) -> Result<TrainedSystem, ColocateError> {
    let profiles = profile_benchmarks(benchmarks, config, rng)?;
    train_from_profiles(&profiles, &HashSet::new(), config)
}

/// Trains on the paper's 16 HiBench + BigDataBench benchmarks.
///
/// # Errors
///
/// Propagates [`train_on`] failures.
pub fn train_system(
    catalog: &Catalog,
    config: &TrainingConfig,
    rng: &mut SimRng,
) -> Result<TrainedSystem, ColocateError> {
    train_on(&catalog.training_set(), config, rng)
}

/// Catalog indices excluded when evaluating `target` leave-one-out: the
/// target itself plus its cross-suite equivalents (§5.2).
#[must_use]
pub fn loocv_exclusions(catalog: &Catalog, target: &Benchmark) -> HashSet<usize> {
    catalog
        .equivalents_of(target)
        .iter()
        .map(|b| b.index())
        .chain([target.index()])
        .collect()
}

/// Leave-one-out training for evaluating `target`: the target and its
/// cross-suite equivalents are excluded from the training set (§5.2).
///
/// This profiles the reduced training set from scratch, consuming `rng`
/// per fold — the historical behaviour, kept as the oracle that
/// [`train_loocv_all`]'s shared-profile campaigns are validated against.
///
/// # Errors
///
/// Propagates [`train_on`] failures.
pub fn train_loocv(
    catalog: &Catalog,
    target: &Benchmark,
    config: &TrainingConfig,
    rng: &mut SimRng,
) -> Result<TrainedSystem, ColocateError> {
    let excluded = loocv_exclusions(catalog, target);
    let training: Vec<&Benchmark> = catalog
        .training_set()
        .into_iter()
        .filter(|b| !excluded.contains(&b.index()))
        .collect();
    if training.is_empty() {
        return Err(ColocateError::Config(
            "leave-one-out excluded every training benchmark".into(),
        ));
    }
    train_on(&training, config, rng)
}

/// Trains one leave-one-out system per target benchmark — a whole
/// evaluation campaign — profiling the training set **once** and fanning
/// the cheap per-fold selector training out across `workers` threads.
///
/// The profiling pass runs serially from `SimRng::seed_from(base_seed)`,
/// so every fold sees identical profiles regardless of worker count; fold
/// training itself consumes no randomness, and
/// [`simkit::par::par_map_indexed`] commits results in target order. The
/// returned vector is therefore a pure function of
/// `(catalog, targets, config, base_seed)`.
///
/// # Errors
///
/// Propagates profiling failures, and per-fold
/// [`ColocateError::Config`] / selector-training failures (first in
/// target order wins).
pub fn train_loocv_all(
    catalog: &Catalog,
    targets: &[&Benchmark],
    config: &TrainingConfig,
    base_seed: u64,
    workers: usize,
) -> Result<Vec<TrainedSystem>, ColocateError> {
    let mut rng = SimRng::seed_from(base_seed);
    let profiles = profile_benchmarks(&catalog.training_set(), config, &mut rng)?;
    simkit::par::par_map_indexed(targets, workers, |_, target| {
        let excluded = loocv_exclusions(catalog, target);
        train_from_profiles(&profiles, &excluded, config)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_fit_recovers_the_generating_family() {
        let catalog = Catalog::paper();
        let config = TrainingConfig::default();
        let mut rng = SimRng::seed_from(1);
        let mut correct = 0;
        let all = catalog.all();
        for bench in all {
            let (family, _) = fit_benchmark(bench, &config, &mut rng).unwrap();
            if family == bench.family() {
                correct += 1;
            }
        }
        // Noise can flip a borderline case, but nearly all must be right.
        assert!(
            correct >= all.len() - 2,
            "only {correct}/{} correct",
            all.len()
        );
    }

    #[test]
    fn trained_system_has_sixteen_programs() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(2);
        let sys = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        assert_eq!(sys.programs.len(), 16);
        assert_eq!(sys.fitted_curves.len(), 16);
        assert_eq!(sys.predictor.registry().len(), 3);
    }

    #[test]
    fn selector_classifies_unseen_suites_well() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(3);
        let sys = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        // Apply to the 28 Spark-Perf/Spark-Bench benchmarks (never trained
        // on), checking the selected expert matches the true family.
        let mut hits = 0;
        let mut total = 0;
        for bench in catalog.all() {
            if matches!(
                bench.suite(),
                workloads::Suite::SparkPerf | workloads::Suite::SparkBench
            ) {
                let features = signatures::observe_default(bench, &mut rng);
                let sel = sys.predictor.select(&features).unwrap();
                total += 1;
                if sel.expert == family_expert_id(bench.family()) {
                    hits += 1;
                }
            }
        }
        assert_eq!(total, 28);
        assert!(hits as f64 / total as f64 > 0.85, "{hits}/{total}");
    }

    #[test]
    fn loocv_excludes_target_and_equivalents() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(4);
        let target = catalog.by_name("HB.Sort").unwrap();
        let sys = train_loocv(&catalog, target, &TrainingConfig::default(), &mut rng).unwrap();
        // HB.Sort and BDB.Sort excluded (SP.Sort is not a training-suite
        // member anyway): 16 − 2 = 14 programs.
        assert_eq!(sys.programs.len(), 14);
        assert!(sys.programs.iter().all(|p| p.name != "HB.Sort"));
        assert!(sys.programs.iter().all(|p| p.name != "BDB.Sort"));
    }

    #[test]
    fn profile_then_train_reproduces_train_on_bitwise() {
        // `train_on` must stay a pure refactoring of the historical
        // single-pass pipeline: profiling consumes the RNG identically and
        // the selector sees the same programs in the same order.
        let catalog = Catalog::paper();
        let config = TrainingConfig::default();
        let mut rng_a = SimRng::seed_from(7);
        let mut rng_b = SimRng::seed_from(7);
        let via_train_on = train_on(&catalog.training_set(), &config, &mut rng_a).unwrap();
        let profiles = profile_benchmarks(&catalog.training_set(), &config, &mut rng_b).unwrap();
        let via_profiles = train_from_profiles(&profiles, &HashSet::new(), &config).unwrap();
        assert_eq!(
            rng_a.unit().to_bits(),
            rng_b.unit().to_bits(),
            "same RNG stream position"
        );
        assert_eq!(
            via_train_on.program_benchmarks,
            via_profiles.program_benchmarks
        );
        for (a, b) in via_train_on.programs.iter().zip(&via_profiles.programs) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.expert, b.expert);
            for (x, y) in a.features.as_slice().iter().zip(b.features.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (a, b) in via_train_on
            .fitted_curves
            .iter()
            .zip(&via_profiles.fitted_curves)
        {
            assert_eq!(a, b);
        }
        for (a, b) in via_train_on
            .program_cpus
            .iter()
            .zip(&via_profiles.program_cpus)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn loocv_campaign_is_worker_count_invariant() {
        let catalog = Catalog::paper();
        let config = TrainingConfig::default();
        let targets = catalog.training_set();
        let one = train_loocv_all(&catalog, &targets, &config, 0xCA4, 1).unwrap();
        let four = train_loocv_all(&catalog, &targets, &config, 0xCA4, 4).unwrap();
        assert_eq!(one.len(), 16);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.program_benchmarks, b.program_benchmarks);
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.name, pb.name);
                assert_eq!(pa.expert, pb.expert);
                for (x, y) in pa.features.as_slice().iter().zip(pb.features.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            for (ca, cb) in a.fitted_curves.iter().zip(&b.fitted_curves) {
                assert_eq!(ca, cb);
            }
        }
        // The campaign profiles once: two folds that both retain a program
        // see the *same* observation bits (per-fold reprofiling could not).
        let shared_a = one[0]
            .programs
            .iter()
            .find(|p| one[1].programs.iter().any(|q| q.name == p.name))
            .unwrap();
        let shared_b = one[1]
            .programs
            .iter()
            .find(|p| p.name == shared_a.name)
            .unwrap();
        for (x, y) in shared_a
            .features
            .as_slice()
            .iter()
            .zip(shared_b.features.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn loocv_all_excludes_like_the_serial_oracle() {
        // Fold membership (names) must match what per-fold `train_loocv`
        // computes; only the observation noise differs between the two.
        let catalog = Catalog::paper();
        let config = TrainingConfig::default();
        let targets = catalog.training_set();
        let folds = train_loocv_all(&catalog, &targets, &config, 0xCA4, 2).unwrap();
        for (target, fold) in targets.iter().zip(&folds) {
            let mut rng = SimRng::seed_from(9);
            let oracle = train_loocv(&catalog, target, &config, &mut rng).unwrap();
            let mut got: Vec<&str> = fold.programs.iter().map(|p| p.name.as_str()).collect();
            let mut want: Vec<&str> = oracle.programs.iter().map(|p| p.name.as_str()).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "fold membership for {}", target.name());
        }
    }

    #[test]
    fn family_expert_ids_follow_table1_order() {
        assert_eq!(family_expert_id(CurveFamily::Linear).as_usize(), 0);
        assert_eq!(family_expert_id(CurveFamily::Exponential).as_usize(), 1);
        assert_eq!(family_expert_id(CurveFamily::NapierianLog).as_usize(), 2);
    }
}
