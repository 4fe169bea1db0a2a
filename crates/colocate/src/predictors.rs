//! Memory predictors: the paper's mixture-of-experts scheme and every
//! comparative estimator of the evaluation.
//!
//! A predictor turns an [`AppProfile`] (features + two calibration points)
//! into a [`FootprintModel`] the job dispatcher queries in both directions:
//! *footprint of a slice* and *largest slice under a budget*.
//!
//! | Predictor | Paper role |
//! |---|---|
//! | [`MoePolicy`] | our approach (§3–4) |
//! | [`Oracle`] | ideal predictor (§5.4) |
//! | [`UnifiedFamily`] | single-family baselines of Fig. 9 |
//! | [`AnnPredictor`] | the unified 3-layer ANN of Fig. 9 |
//! | [`QuasarPredictor`] | Quasar-style classification against historical workloads (§5.4) |

use crate::profiling::AppProfile;
use crate::training::TrainedSystem;
use crate::ColocateError;
use mlkit::mlp::{Mlp, MlpParams};
use mlkit::regression::{CurveFamily, FittedCurve};
use mlkit::scaling::MinMaxScaler;
use moe_core::calibration::CalibratedModel;
use moe_core::expert::{CurveExpert, MemoryExpert};
use moe_core::features::FeatureVector;
use moe_core::{MoeError, MoePredictor, Selection};
use simkit::SimRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use workloads::catalog::Catalog;
use workloads::signatures;

/// A calibrated, queryable memory model for one application.
pub trait FootprintModel: fmt::Debug {
    /// Predicted footprint (GB) of an executor holding `slice_gb`.
    fn footprint_gb(&self, slice_gb: f64) -> f64;

    /// Largest slice (GB) whose predicted footprint fits `budget_gb`;
    /// `None` when nothing fits, `f64::INFINITY` when everything does.
    ///
    /// Implementations must be monotone in the budget: if `budget_gb`
    /// gives `Some(x)`, every larger budget gives `Some(y)` with `y >= x`.
    /// So if a budget fits a request (`Some(x)` with
    /// `x.min(want) >= min_slice`), every larger budget fits it too.
    /// Placement's early exits rely on this (DESIGN.md §11, "Scheduler
    /// sweep"); `tests::inverse_is_monotone_in_the_budget_*` pin it for
    /// every model here.
    fn max_input_for_budget(&self, budget_gb: f64) -> Option<f64>;
}

impl FootprintModel for CalibratedModel {
    fn footprint_gb(&self, slice_gb: f64) -> f64 {
        CalibratedModel::footprint_gb(self, slice_gb)
    }

    fn max_input_for_budget(&self, budget_gb: f64) -> Option<f64> {
        CalibratedModel::max_input_for_budget(self, budget_gb)
    }
}

/// A predictor's verdict for one application.
#[derive(Debug)]
pub struct Prediction {
    /// The calibrated model.
    pub model: Box<dyn FootprintModel>,
    /// Whether the predictor itself flags the prediction as
    /// low-confidence (KNN distance beyond threshold, §6.9); the
    /// dispatcher then over-provisions conservatively.
    pub low_confidence: bool,
    /// Predictor-supplied CPU-demand estimate overriding the measured
    /// value. Only the Quasar baseline sets this: it classifies *all*
    /// resource demands from the nearest historical workload instead of
    /// per-application measurement.
    pub cpu_estimate: Option<f64>,
}

/// A memory predictor: profile in, model out.
pub trait MemoryPredictor: fmt::Debug {
    /// Short name used in reports ("Our Approach", "Quasar", ...).
    fn name(&self) -> &str;

    /// Whether the dispatcher must run the profiling pipeline before
    /// calling [`MemoryPredictor::predict`] (the Oracle needs nothing).
    fn needs_profiling(&self) -> bool {
        true
    }

    /// Produces a model for the profiled application.
    ///
    /// # Errors
    ///
    /// Returns an error only for internal inconsistencies; predictors are
    /// expected to fall back to robust fits on degenerate calibration
    /// points rather than fail.
    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError>;

    /// Produces models for a whole batch of profiled applications, in
    /// order — `colocate::service::run_service` hands every job arriving
    /// in the same event-loop pass here. The default implementation is
    /// the per-profile scalar loop, so every predictor behaves exactly as
    /// before; the MoE overrides it with the whole-matrix serving path,
    /// which is bitwise identical to the scalar loop (see
    /// [`PredictionTable::select_cached_batch`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`MemoryPredictor::predict`].
    fn predict_batch(&self, profiles: &[&AppProfile]) -> Result<Vec<Prediction>, ColocateError> {
        profiles.iter().map(|p| self.predict(p)).collect()
    }
}

/// A shared predictor predicts as the one it shares.
impl<P: MemoryPredictor + ?Sized> MemoryPredictor for Arc<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn needs_profiling(&self) -> bool {
        (**self).needs_profiling()
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        (**self).predict(profile)
    }

    fn predict_batch(&self, profiles: &[&AppProfile]) -> Result<Vec<Prediction>, ColocateError> {
        (**self).predict_batch(profiles)
    }
}

/// Calibrates `expert` on two points, falling back to a least-squares fit
/// through the same two points when the exact solve is infeasible (e.g. a
/// saturating exponential whose measured ratio is pushed out of range by
/// noise), and to a two-point linear solve as a last resort.
///
/// # Errors
///
/// Returns [`ColocateError::Predictor`] only if even the linear fallback
/// fails (coincident calibration points).
pub fn robust_calibrate(
    expert: &dyn MemoryExpert,
    p1: (f64, f64),
    p2: (f64, f64),
) -> Result<CalibratedModel, ColocateError> {
    if let Ok(model) = expert.calibrate(p1, p2) {
        return Ok(model);
    }
    if let Ok(model) = expert.fit(&[p1.0, p2.0], &[p1.1, p2.1]) {
        return Ok(model);
    }
    let linear = CurveExpert::new(CurveFamily::Linear);
    linear.calibrate(p1, p2).map_err(ColocateError::from)
}

// ---------------------------------------------------------------------------
// Campaign-wide selection cache.
// ---------------------------------------------------------------------------

/// A campaign-wide cache of expert selections.
///
/// Expert selection ([`MoePredictor::select`]) is a pure function of the
/// trained selector and the exact bits of the query features, so its result
/// can be memoised. A table is created once per [`TrainedSystem`] and shared
/// by every clone of that system — across policies built from it and across
/// mix replays — through an `Arc`, so the scaling + PCA + KNN pipeline runs
/// at most once per distinct feature vector per campaign binding.
///
/// Keys are the `f64::to_bits` patterns of the raw features, which makes a
/// hit bit-identical to re-running the selection; replay outputs therefore
/// stay invariant to worker count and replay order. Errors are never
/// cached.
#[derive(Debug, Default)]
pub struct PredictionTable {
    entries: Mutex<HashMap<Vec<u64>, Selection>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        PredictionTable::default()
    }

    /// Returns the cached selection for `features`, running
    /// `predictor.select` and caching the result on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`MoePredictor::select`] failures (which are not cached).
    pub fn select_cached(
        &self,
        predictor: &MoePredictor,
        features: &FeatureVector,
    ) -> Result<Selection, MoeError> {
        let key: Vec<u64> = features.as_slice().iter().map(|v| v.to_bits()).collect();
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(&hit) = entries.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        let selection = predictor.select(features)?;
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, selection);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(selection)
    }

    /// The batched form of [`PredictionTable::select_cached`]: resolves a
    /// whole slice of feature vectors, answering what it can from the
    /// cache and running **one** [`MoePredictor::select_batch`] call over
    /// the distinct uncached vectors.
    ///
    /// Results and the hit/miss counters are exactly what the equivalent
    /// sequence of scalar `select_cached` calls produces: an in-batch
    /// duplicate of a pending miss counts as a hit (the sequential caller
    /// would have found the first occurrence already inserted), and each
    /// distinct uncached vector counts as one miss. Selections are bitwise
    /// identical because the batched selector pipeline is (see
    /// [`ExpertSelector::select_batch`](moe_core::selector::ExpertSelector::select_batch)).
    ///
    /// # Errors
    ///
    /// Propagates [`MoePredictor::select_batch`] failures; nothing is
    /// cached or counted as a miss on failure.
    pub fn select_cached_batch(
        &self,
        predictor: &MoePredictor,
        features: &[&FeatureVector],
    ) -> Result<Vec<Selection>, MoeError> {
        let keys: Vec<Vec<u64>> = features
            .iter()
            .map(|f| f.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        // Per slot: Ok(cached selection) or Err(index into the pending
        // miss list). Built under one lock so the hit accounting matches
        // the sequential scalar calls exactly.
        let mut slots: Vec<Result<Selection, usize>> = Vec::with_capacity(features.len());
        let mut unique: Vec<usize> = Vec::new();
        let mut pending: HashMap<&[u64], usize> = HashMap::new();
        {
            let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            for (i, key) in keys.iter().enumerate() {
                if let Some(&hit) = entries.get(key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    slots.push(Ok(hit));
                } else if let Some(&u) = pending.get(key.as_slice()) {
                    // A sequential caller would have inserted the first
                    // occurrence before looking this one up: a hit.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    slots.push(Err(u));
                } else {
                    pending.insert(key.as_slice(), unique.len());
                    slots.push(Err(unique.len()));
                    unique.push(i);
                }
            }
        }
        let miss_features: Vec<FeatureVector> =
            unique.iter().map(|&i| features[i].clone()).collect();
        let fresh = predictor.select_batch(&miss_features)?;
        if fresh.len() != unique.len() {
            return Err(MoeError::InvalidTraining(
                "select_batch returned a mismatched result count".into(),
            ));
        }
        {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            for (&i, sel) in unique.iter().zip(fresh.iter()) {
                entries.insert(keys[i].clone(), *sel);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                Ok(sel) => sel,
                Err(u) => fresh[u],
            })
            .collect())
    }

    /// Number of distinct feature vectors cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the table has cached nothing yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the full selection pipeline.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Our approach.
// ---------------------------------------------------------------------------

/// The paper's mixture-of-experts predictor.
#[derive(Debug)]
pub struct MoePolicy {
    system: TrainedSystem,
}

impl MoePolicy {
    /// Wraps a trained system.
    #[must_use]
    pub fn new(system: TrainedSystem) -> Self {
        MoePolicy { system }
    }

    /// The underlying trained system.
    #[must_use]
    pub fn system(&self) -> &TrainedSystem {
        &self.system
    }
}

impl MemoryPredictor for MoePolicy {
    fn name(&self) -> &str {
        "Our Approach"
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        // Selection is memoised campaign-wide: every clone of this system
        // shares the table, so repeated queries for the same feature bits
        // skip the scaling + PCA + KNN pipeline entirely.
        let selection = self
            .system
            .selections
            .select_cached(&self.system.predictor, &profile.features)?;
        let expert = self.system.predictor.registry().get(selection.expert)?;
        let model = robust_calibrate(expert, profile.calibration[0], profile.calibration[1])?;
        Ok(Prediction {
            model: Box::new(model),
            low_confidence: selection.low_confidence,
            cpu_estimate: None,
        })
    }

    fn predict_batch(&self, profiles: &[&AppProfile]) -> Result<Vec<Prediction>, ColocateError> {
        // The serving path: one cached-batch selection over every profile
        // (whole-matrix scaling + PCA + KNN for the uncached ones), then
        // the same per-job calibration as the scalar path. Bitwise
        // identical to calling `predict` once per profile, in order.
        let features: Vec<&FeatureVector> = profiles.iter().map(|p| &p.features).collect();
        let selections = self
            .system
            .selections
            .select_cached_batch(&self.system.predictor, &features)?;
        profiles
            .iter()
            .zip(selections)
            .map(|(profile, selection)| {
                let expert = self.system.predictor.registry().get(selection.expert)?;
                let model =
                    robust_calibrate(expert, profile.calibration[0], profile.calibration[1])?;
                Ok(Prediction {
                    model: Box::new(model),
                    low_confidence: selection.low_confidence,
                    cpu_estimate: None,
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Oracle.
// ---------------------------------------------------------------------------

/// The ideal predictor: returns each application's ground-truth curve with
/// no profiling cost (§5.4).
#[derive(Debug)]
pub struct Oracle {
    curves: Vec<FittedCurve>,
}

impl Oracle {
    /// Builds the oracle from the catalog's ground truth.
    #[must_use]
    pub fn new(catalog: &Catalog) -> Self {
        Oracle {
            curves: catalog.all().iter().map(|b| b.curve()).collect(),
        }
    }
}

impl MemoryPredictor for Oracle {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn needs_profiling(&self) -> bool {
        false
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        let curve = self.curves.get(profile.benchmark).ok_or_else(|| {
            ColocateError::Config(format!("oracle knows no benchmark #{}", profile.benchmark))
        })?;
        Ok(Prediction {
            model: Box::new(CalibratedModel::from_curve(*curve)),
            low_confidence: false,
            cpu_estimate: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Unified single-family baselines (Fig. 9).
// ---------------------------------------------------------------------------

/// A unified model that fits *every* application with one fixed family.
#[derive(Debug)]
pub struct UnifiedFamily {
    family: CurveFamily,
    expert: CurveExpert,
}

impl UnifiedFamily {
    /// Creates the baseline for one Table 1 family.
    #[must_use]
    pub fn new(family: CurveFamily) -> Self {
        UnifiedFamily {
            family,
            expert: CurveExpert::new(family),
        }
    }
}

impl MemoryPredictor for UnifiedFamily {
    fn name(&self) -> &str {
        self.family.name()
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        let model = robust_calibrate(&self.expert, profile.calibration[0], profile.calibration[1])?;
        Ok(Prediction {
            model: Box::new(model),
            low_confidence: false,
            cpu_estimate: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Unified ANN baseline (Fig. 9).
// ---------------------------------------------------------------------------

/// A single 3-layer neural network trained to predict footprints from
/// runtime features plus input size (Fig. 9 "ANN").
#[derive(Debug)]
pub struct AnnPredictor {
    scaler: MinMaxScaler,
    net: Mlp,
    /// Footprints were scaled to [0, 1] over this range for training.
    y_max: f64,
}

/// Model wrapper for the ANN (inverse via logarithmic grid search since a
/// neural net has no closed-form inverse and no monotonicity guarantee).
#[derive(Debug)]
struct AnnModel {
    scaler: MinMaxScaler,
    net: Mlp,
    features: Vec<f64>,
    y_max: f64,
}

impl AnnPredictor {
    /// Trains the unified ANN on the same training benchmarks and profile
    /// sizes as the mixture-of-experts system.
    ///
    /// # Errors
    ///
    /// Propagates mlkit training failures.
    pub fn train(
        catalog: &Catalog,
        training: &[usize],
        profile_sizes_gb: &[f64],
        noise_sd: f64,
        rng: &mut SimRng,
    ) -> Result<Self, ColocateError> {
        let mut raw_inputs = Vec::new();
        let mut targets = Vec::new();
        let mut y_max: f64 = 1e-9;
        for &idx in training {
            let bench = &catalog.all()[idx];
            let features = signatures::observe_default(bench, rng);
            for &x in profile_sizes_gb {
                let mut row = features.as_slice().to_vec();
                row.push((1.0 + x).ln());
                let y = bench.true_footprint_gb(x) * rng.relative_noise(noise_sd);
                y_max = y_max.max(y);
                raw_inputs.push(row);
                targets.push(y);
            }
        }
        let scaler = MinMaxScaler::fit(&raw_inputs)?;
        let scaled = scaler.transform_batch(&raw_inputs)?;
        let scaled_targets: Vec<f64> = targets.iter().map(|y| y / y_max).collect();
        let net = Mlp::fit_regressor(
            &scaled,
            &scaled_targets,
            MlpParams {
                hidden: 24,
                learning_rate: 0.02,
                epochs: 400,
                seed: 0xA44,
            },
        )?;
        Ok(AnnPredictor { scaler, net, y_max })
    }
}

impl MemoryPredictor for AnnPredictor {
    fn name(&self) -> &str {
        "ANN"
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        Ok(Prediction {
            model: Box::new(AnnModel {
                scaler: self.scaler.clone(),
                net: self.net.clone(),
                features: profile.features.as_slice().to_vec(),
                y_max: self.y_max,
            }),
            low_confidence: false,
            cpu_estimate: None,
        })
    }
}

impl FootprintModel for AnnModel {
    fn footprint_gb(&self, slice_gb: f64) -> f64 {
        let mut row = self.features.clone();
        row.push((1.0 + slice_gb.max(0.0)).ln());
        let scaled = self.scaler.transform(&row).expect("fixed arity");
        let y = self.net.predict_value(&scaled).expect("fixed arity");
        (y * self.y_max).max(0.0)
    }

    fn max_input_for_budget(&self, budget_gb: f64) -> Option<f64> {
        if budget_gb <= 0.0 {
            return None;
        }
        // Largest grid slice whose prediction fits; log grid 10 MB–1 TB.
        let mut best: Option<f64> = None;
        for i in 0..=120 {
            let x = 0.01 * (1000.0 / 0.01_f64).powf(i as f64 / 120.0);
            if self.footprint_gb(x) <= budget_gb {
                best = Some(x);
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Quasar-style baseline (§5.4).
// ---------------------------------------------------------------------------

/// A Quasar-style estimator built the way Quasar actually works:
/// **collaborative filtering**. Historical workloads form a dense
/// `programs × input-sizes` footprint matrix; a truncated SVD learns how
/// profiles co-vary; an incoming application's two quick profiling
/// measurements select its position in that low-rank space and the full
/// profile is reconstructed ([`mlkit::svd::TruncatedSvd::complete_row`]).
/// CPU demand is classified from the nearest historical workload. Unlike
/// the mixture-of-experts approach there is no per-application selection
/// of a *memory-function family* — one shared low-rank model covers
/// everything, which is exactly the "single monolithic model" limitation
/// §7.1 attributes to it.
#[derive(Debug)]
pub struct QuasarPredictor {
    scaler: MinMaxScaler,
    exemplars: Vec<Vec<f64>>,
    cpus: Vec<f64>,
    svd: mlkit::svd::TruncatedSvd,
    grid: Arc<SizeGrid>,
}

impl QuasarPredictor {
    /// Builds the estimator from the trained system's historical profiles:
    /// the footprint matrix is sampled from each program's offline-fitted
    /// curve over a log-spaced size grid, then decomposed.
    ///
    /// # Errors
    ///
    /// Propagates scaler-fitting and SVD failures.
    pub fn new(system: &TrainedSystem) -> Result<Self, ColocateError> {
        let raw: Vec<Vec<f64>> = system
            .programs
            .iter()
            .map(|p| p.features.as_slice().to_vec())
            .collect();
        let scaler = MinMaxScaler::fit(&raw)?;
        let exemplars = scaler.transform_batch(&raw)?;

        // The historical profile matrix: programs × grid sizes.
        let grid: Vec<f64> = crate::training::TrainingConfig::default().profile_sizes_gb;
        let rows: Vec<Vec<f64>> = system
            .fitted_curves
            .iter()
            .map(|curve| grid.iter().map(|&x| curve.eval(x).max(0.0)).collect())
            .collect();
        let matrix = mlkit::linalg::Matrix::from_rows(rows);
        let svd = mlkit::svd::truncated_svd(&matrix, 2, 300)?;
        Ok(QuasarPredictor {
            scaler,
            exemplars,
            cpus: system.program_cpus.clone(),
            svd,
            grid: Arc::new(SizeGrid::new(grid)),
        })
    }
}

/// Quasar's size grid, shared by every profile reconstructed on it, with
/// the probe sizes of the footprint inverse worked out once.
#[derive(Debug)]
struct SizeGrid {
    /// Positive and strictly increasing, with at least two points.
    sizes: Vec<f64>,
    /// The inverse's probe sizes: `sizes[0] / 10`, growing 5% a step, up
    /// to `16 × sizes.last()`, in walk order.
    probes: Vec<f64>,
}

impl SizeGrid {
    fn new(sizes: Vec<f64>) -> Self {
        let hi = sizes.last().copied().unwrap_or(1.0) * 16.0;
        let mut x = sizes.first().copied().unwrap_or(0.0) * 0.1;
        let mut probes = Vec::new();
        while x > 0.0 && x <= hi {
            probes.push(x);
            x *= 1.05;
        }
        SizeGrid { sizes, probes }
    }
}

/// The reconstructed profile as a footprint model: monotone piecewise
/// linear over the size grid, extrapolating the last segment's slope.
#[derive(Debug)]
struct GridModel {
    grid: Arc<SizeGrid>,
    footprints: Vec<f64>,
    /// Running maximum of `footprint_gb` over the grid's probes, cut
    /// before the first NaN footprint (a budget check fails there, so the
    /// walk never passes it).
    probe_peak: Vec<f64>,
}

impl GridModel {
    fn new(grid: Arc<SizeGrid>, mut footprints: Vec<f64>) -> Self {
        // Enforce monotone non-decreasing, non-negative profiles: the
        // reconstruction can wiggle where the basis is weak.
        let mut run_max = 0.0f64;
        for f in &mut footprints {
            run_max = run_max.max(f.max(0.0));
            *f = run_max;
        }
        let mut model = GridModel {
            grid,
            footprints,
            probe_peak: Vec::new(),
        };
        model.tabulate_probes();
        model
    }

    /// Fills the inverse's table from the current profile.
    fn tabulate_probes(&mut self) {
        let mut peak = f64::NEG_INFINITY;
        let peaks = self
            .grid
            .probes
            .iter()
            .map(|&x| self.footprint_gb(x))
            .take_while(|f| !f.is_nan())
            .map(|f| {
                peak = peak.max(f);
                peak
            })
            .collect();
        self.probe_peak = peaks;
    }

    /// The inverse as a geometric walk from `sizes[0] / 10`, stopping at
    /// the first probe over budget: the reference the table lookup must
    /// match bit for bit.
    #[cfg(test)]
    fn max_input_for_budget_walk(&self, budget_gb: f64) -> Option<f64> {
        if budget_gb <= 0.0 {
            return None;
        }
        let sizes = &self.grid.sizes;
        let mut best = None;
        let mut x = sizes[0] * 0.1;
        let hi = sizes.last().copied().unwrap_or(1.0) * 16.0;
        while x <= hi {
            if self.footprint_gb(x) <= budget_gb {
                best = Some(x);
            } else {
                break;
            }
            x *= 1.05;
        }
        best
    }
}

impl FootprintModel for GridModel {
    fn footprint_gb(&self, slice_gb: f64) -> f64 {
        let grid = &self.grid.sizes;
        let n = grid.len();
        if slice_gb <= grid[0] {
            // Scale toward zero below the grid.
            return self.footprints[0] * (slice_gb / grid[0]).clamp(0.0, 1.0);
        }
        for w in 0..n - 1 {
            if slice_gb <= grid[w + 1] {
                let t = (slice_gb - grid[w]) / (grid[w + 1] - grid[w]);
                return self.footprints[w] + t * (self.footprints[w + 1] - self.footprints[w]);
            }
        }
        // Extrapolate the last segment's slope.
        let slope = (self.footprints[n - 1] - self.footprints[n - 2])
            / (grid[n - 1] - grid[n - 2]).max(1e-12);
        (self.footprints[n - 1] + slope * (slice_gb - grid[n - 1])).max(0.0)
    }

    fn max_input_for_budget(&self, budget_gb: f64) -> Option<f64> {
        if budget_gb <= 0.0 {
            return None;
        }
        // The last probe before the first one over budget. A probe's
        // running peak fits iff it and every probe before it fit, so the
        // peaks partition the walk at exactly that point.
        let fits = self.probe_peak.partition_point(|&peak| peak <= budget_gb);
        fits.checked_sub(1).map(|k| self.grid.probes[k])
    }
}

impl MemoryPredictor for QuasarPredictor {
    fn name(&self) -> &str {
        "Quasar"
    }

    fn predict(&self, profile: &AppProfile) -> Result<Prediction, ColocateError> {
        // CPU demand: classified from the nearest historical workload.
        // Squared distances rank identically to distances (sqrt is
        // monotone and injective on non-negatives, ties included), so each
        // exemplar costs one fused pass instead of the two full `euclidean`
        // evaluations the old comparator re-ran per comparison. `min_by`
        // keeps the first of equal minima either way.
        let scaled = self.scaler.transform(profile.features.as_slice())?;
        let nearest = self
            .exemplars
            .iter()
            .map(|e| mlkit::linalg::euclidean_sq(e, &scaled))
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(i, _)| i)
            .ok_or_else(|| ColocateError::Config("Quasar has no historical workloads".into()))?;
        if self.grid.sizes.is_empty() {
            return Err(ColocateError::Config(
                "Quasar has an empty size grid".into(),
            ));
        }

        // Memory profile: collaborative filtering. Map the two calibration
        // measurements onto the nearest grid columns and complete the row
        // in the historical low-rank space.
        let nearest_col = |x: f64| {
            let lx = x.max(1e-9).ln();
            self.grid
                .sizes
                .iter()
                .map(|a| (a.ln() - lx).abs())
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                // Unreachable fallback: the grid was verified non-empty.
                .map_or(0, |(i, _)| i)
        };
        let mut observed: Vec<(usize, f64)> = Vec::new();
        for &(x, y) in &profile.calibration {
            let col = nearest_col(x);
            if !observed.iter().any(|&(c, _)| c == col) {
                observed.push((col, y));
            }
        }
        let footprints = self
            .svd
            .complete_row(&observed)
            .map_err(ColocateError::from)?;
        Ok(Prediction {
            model: Box::new(GridModel::new(Arc::clone(&self.grid), footprints)),
            low_confidence: false,
            cpu_estimate: Some(self.cpus[nearest]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::{profile_app, ProfilingConfig};
    use crate::training::{train_system, TrainingConfig};

    fn setup() -> (Catalog, TrainedSystem, SimRng) {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(42);
        let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        (catalog, system, rng)
    }

    fn profile_of(catalog: &Catalog, name: &str, input: f64, rng: &mut SimRng) -> AppProfile {
        let bench = catalog.by_name(name).unwrap();
        let spec = sparklite::ClusterSpec::paper_cluster();
        profile_app(
            bench,
            input,
            spec.nodes,
            spec.node.ram_gb,
            &ProfilingConfig::default(),
            rng,
        )
        .0
    }

    #[test]
    fn moe_predicts_accurate_footprints() {
        let (catalog, system, mut rng) = setup();
        let moe = MoePolicy::new(system);
        for name in ["SB.TriangleCount", "SP.glm-regression", "SB.Hive"] {
            let bench = catalog.by_name(name).unwrap();
            let profile = profile_of(&catalog, name, 30.0, &mut rng);
            let pred = moe.predict(&profile).unwrap();
            let slice = profile.expected_slice_gb;
            let truth = bench.true_footprint_gb(slice);
            let got = pred.model.footprint_gb(slice);
            let err = (got - truth).abs() / truth;
            assert!(err < 0.15, "{name}: predicted {got:.2}, truth {truth:.2}");
        }
    }

    #[test]
    fn prediction_table_is_shared_across_clones_and_bit_identical() {
        let (catalog, system, mut rng) = setup();
        let profile = profile_of(&catalog, "SB.TriangleCount", 30.0, &mut rng);
        // Direct selection, bypassing the table, as the reference bits.
        let direct = system.predictor.select(&profile.features).unwrap();
        assert!(system.selections.is_empty());

        // Two policies cloned from the same binding share one table.
        let moe_a = MoePolicy::new(system.clone());
        let moe_b = MoePolicy::new(system.clone());
        moe_a.predict(&profile).unwrap();
        assert_eq!(
            (system.selections.misses(), system.selections.hits()),
            (1, 0)
        );
        moe_b.predict(&profile).unwrap();
        assert_eq!(
            (system.selections.misses(), system.selections.hits()),
            (1, 1)
        );
        assert_eq!(system.selections.len(), 1);

        // A cache hit returns the stored selection bit for bit.
        let cached = system
            .selections
            .select_cached(&system.predictor, &profile.features)
            .unwrap();
        assert_eq!(cached.expert, direct.expert);
        assert_eq!(cached.distance.to_bits(), direct.distance.to_bits());
        assert_eq!(cached.low_confidence, direct.low_confidence);
        assert_eq!(system.selections.hits(), 2);
    }

    #[test]
    fn predict_batch_matches_sequential_predict_bitwise() {
        let (catalog, system_a, mut rng_a) = setup();
        let (_, system_b, mut rng_b) = setup();
        let names = [
            "SB.TriangleCount",
            "SP.glm-regression",
            "SB.Hive",
            "HB.PageRank",
        ];
        let mut profiles_a: Vec<AppProfile> = names
            .iter()
            .map(|n| profile_of(&catalog, n, 30.0, &mut rng_a))
            .collect();
        let mut profiles_b: Vec<AppProfile> = names
            .iter()
            .map(|n| profile_of(&catalog, n, 30.0, &mut rng_b))
            .collect();
        // An exact in-batch duplicate of a pending miss: same feature bits.
        profiles_a.push(profiles_a[0].clone());
        profiles_b.push(profiles_b[0].clone());

        // Reference: scalar predictions, one at a time, on system A.
        let moe_a = MoePolicy::new(system_a.clone());
        let scalar: Vec<Prediction> = profiles_a
            .iter()
            .map(|p| moe_a.predict(p).unwrap())
            .collect();

        // Batched path on an independently trained (identical) system B.
        let moe_b = MoePolicy::new(system_b.clone());
        let refs: Vec<&AppProfile> = profiles_b.iter().collect();
        let batched = moe_b.predict_batch(&refs).unwrap();

        assert_eq!(batched.len(), scalar.len());
        for (i, (s, b)) in scalar.iter().zip(batched.iter()).enumerate() {
            assert_eq!(s.low_confidence, b.low_confidence, "row {i}");
            for x in [0.5, 5.0, 30.0, 240.0] {
                assert_eq!(
                    s.model.footprint_gb(x).to_bits(),
                    b.model.footprint_gb(x).to_bits(),
                    "row {i} at x={x}"
                );
            }
        }
        // Counter accounting matches the sequential calls: the duplicate
        // TriangleCount profile is a hit in both worlds.
        assert_eq!(
            (system_a.selections.misses(), system_a.selections.hits()),
            (system_b.selections.misses(), system_b.selections.hits()),
        );
        assert_eq!(system_b.selections.hits(), 1);
        assert_eq!(system_b.selections.misses(), 4);

        // A second batched pass is all hits and still bitwise stable.
        let again = moe_b.predict_batch(&refs).unwrap();
        assert_eq!(system_b.selections.hits(), 1 + refs.len() as u64);
        for (s, b) in scalar.iter().zip(again.iter()) {
            assert_eq!(
                s.model.footprint_gb(30.0).to_bits(),
                b.model.footprint_gb(30.0).to_bits()
            );
        }
    }

    #[test]
    fn oracle_is_exact_and_free() {
        let (catalog, _, mut rng) = setup();
        let oracle = Oracle::new(&catalog);
        assert!(!oracle.needs_profiling());
        let bench = catalog.by_name("HB.PageRank").unwrap();
        let profile = profile_of(&catalog, "HB.PageRank", 30.0, &mut rng);
        let pred = oracle.predict(&profile).unwrap();
        for x in [0.5, 5.0, 30.0] {
            assert_eq!(pred.model.footprint_gb(x), bench.true_footprint_gb(x));
        }
    }

    #[test]
    fn unified_wrong_family_is_less_accurate_than_moe() {
        let (catalog, system, mut rng) = setup();
        let moe = MoePolicy::new(system);
        let linear_only = UnifiedFamily::new(CurveFamily::Linear);
        // HB.PageRank is logarithmic; a linear unified model extrapolates
        // badly beyond the calibration points.
        let bench = catalog.by_name("HB.PageRank").unwrap();
        let profile = profile_of(&catalog, "HB.PageRank", 1000.0, &mut rng);
        let slice = profile.expected_slice_gb;
        let truth = bench.true_footprint_gb(slice);
        let moe_err = (moe.predict(&profile).unwrap().model.footprint_gb(slice) - truth).abs();
        let lin_err = (linear_only
            .predict(&profile)
            .unwrap()
            .model
            .footprint_gb(slice)
            - truth)
            .abs();
        assert!(
            moe_err < lin_err,
            "moe {moe_err:.2} GB vs linear {lin_err:.2} GB"
        );
    }

    #[test]
    fn ann_learns_rough_footprints() {
        let (catalog, system, mut rng) = setup();
        let sizes = TrainingConfig::default().profile_sizes_gb;
        let ann = AnnPredictor::train(&catalog, &system.program_benchmarks, &sizes, 0.01, &mut rng)
            .unwrap();
        let bench = catalog.by_name("HB.Sort").unwrap();
        let profile = profile_of(&catalog, "HB.Sort", 30.0, &mut rng);
        let pred = ann.predict(&profile).unwrap();
        let truth = bench.true_footprint_gb(10.0);
        let got = pred.model.footprint_gb(10.0);
        assert!(
            (got - truth).abs() / truth < 0.6,
            "ANN wildly off: {got:.2} vs {truth:.2}"
        );
    }

    #[test]
    fn quasar_uses_nearest_historical_curve() {
        let (catalog, system, mut rng) = setup();
        let quasar = QuasarPredictor::new(&system).unwrap();
        let profile = profile_of(&catalog, "SP.Kmeans", 30.0, &mut rng);
        let pred = quasar.predict(&profile).unwrap();
        // SP.Kmeans is logarithmic; its nearest training programs are the
        // log-family cluster, so predictions are in a sane range.
        let bench = catalog.by_name("SP.Kmeans").unwrap();
        let slice = profile.expected_slice_gb;
        let truth = bench.true_footprint_gb(slice);
        let got = pred.model.footprint_gb(slice);
        assert!(got > 0.3 * truth && got < 3.0 * truth, "{got} vs {truth}");
    }

    #[test]
    fn cached_quasar_predicts_as_a_fresh_one() {
        let (catalog, system, mut rng) = setup();
        let cached = system.quasar().unwrap();
        assert!(
            Arc::ptr_eq(&cached, &system.clone().quasar().unwrap()),
            "clones share one build"
        );
        let fresh = QuasarPredictor::new(&system).unwrap();
        for name in ["SP.Kmeans", "HB.Sort", "SB.TriangleCount", "BDB.Grep"] {
            let profile = profile_of(&catalog, name, 30.0, &mut rng);
            let (a, b) = (
                cached.predict(&profile).unwrap(),
                fresh.predict(&profile).unwrap(),
            );
            assert_eq!(a.low_confidence, b.low_confidence, "{name}");
            assert_eq!(
                a.cpu_estimate.map(f64::to_bits),
                b.cpu_estimate.map(f64::to_bits),
                "{name}"
            );
            for x in [0.01, 0.5, 3.0, 12.8, 40.0, 400.0] {
                assert_eq!(
                    a.model.footprint_gb(x).to_bits(),
                    b.model.footprint_gb(x).to_bits(),
                    "{name} at {x}"
                );
                assert_eq!(
                    a.model.max_input_for_budget(x).map(f64::to_bits),
                    b.model.max_input_for_budget(x).map(f64::to_bits),
                    "{name} budget {x}"
                );
            }
        }
    }

    #[test]
    fn quasar_grid_model_is_monotone_and_inverse_feasible() {
        let (catalog, system, mut rng) = setup();
        let quasar = QuasarPredictor::new(&system).unwrap();
        for name in ["SP.Kmeans", "HB.Sort", "SB.TriangleCount", "SP.Pearson"] {
            let profile = profile_of(&catalog, name, 30.0, &mut rng);
            let model = quasar.predict(&profile).unwrap().model;
            // Monotone non-decreasing over a wide sweep.
            let mut last = 0.0;
            for i in 0..60 {
                let x = 0.01 * 1.25f64.powi(i);
                let fp = model.footprint_gb(x);
                assert!(fp >= last - 1e-9, "{name}: non-monotone at {x}");
                assert!(fp >= 0.0);
                last = fp;
            }
            // The budget inversion respects the budget.
            for budget in [4.0, 16.0, 48.0] {
                if let Some(x) = model.max_input_for_budget(budget) {
                    assert!(
                        model.footprint_gb(x) <= budget * 1.01 + 1e-9,
                        "{name}: inverse violates budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn quasar_reconstruction_is_order_of_magnitude_not_exact() {
        // Collaborative filtering from two low-end observations lands in
        // the right order of magnitude but misses the per-application
        // curvature — the §6.2 "over- or under-provisions" behaviour that
        // separates Quasar from per-application calibration.
        let (catalog, system, mut rng) = setup();
        let quasar = QuasarPredictor::new(&system).unwrap();
        let moe = MoePolicy::new(system.clone());
        let bench = catalog.by_name("SB.ShortestPaths").unwrap();
        let profile = profile_of(&catalog, "SB.ShortestPaths", 30.0, &mut rng);
        let slice = profile.expected_slice_gb;
        let truth = bench.true_footprint_gb(slice);
        let q = quasar.predict(&profile).unwrap().model.footprint_gb(slice);
        let m = moe.predict(&profile).unwrap().model.footprint_gb(slice);
        assert!(
            q > truth * 0.2 && q < truth * 5.0,
            "reconstructed {q:.1} vs truth {truth:.1}"
        );
        // Our per-application calibration is strictly closer.
        assert!(
            (m - truth).abs() < (q - truth).abs(),
            "moe {m:.1} should beat quasar {q:.1} against truth {truth:.1}"
        );
    }

    #[test]
    fn robust_calibrate_survives_degenerate_exponential_points() {
        let expert = CurveExpert::new(CurveFamily::Exponential);
        // Deep saturation: both measurements at the asymptote; the exact
        // two-point solve is infeasible, the robust path must succeed.
        let model = robust_calibrate(&expert, (10.0, 5.0), (20.0, 5.0)).unwrap();
        let predicted = FootprintModel::footprint_gb(&model, 60.0);
        assert!((predicted - 5.0).abs() < 0.5, "predicted {predicted}");
    }

    #[test]
    fn model_inversion_respects_budget() {
        let (catalog, system, mut rng) = setup();
        let moe = MoePolicy::new(system);
        let profile = profile_of(&catalog, "BDB.PageRank", 30.0, &mut rng);
        let pred = moe.predict(&profile).unwrap();
        if let Some(x) = pred.model.max_input_for_budget(24.0) {
            if x.is_finite() {
                assert!(pred.model.footprint_gb(x) <= 24.0 * 1.01);
            }
        }
    }

    /// A random reconstructed profile `(grid, footprints)`: a power curve
    /// over the Quasar grid (or a random ascending one), plus `wiggle`
    /// times `noise` — so profiles may dip, go negative or be non-monotone
    /// before `GridModel::new` clamps them — and an optional infinite
    /// footprint at `inf_at`, which makes some interpolations NaN.
    fn random_profile(
        custom_grid: bool,
        gaps: &[f64],
        (scale, power): (f64, f64),
        wiggle: f64,
        noise: &[f64],
        inf_at: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let grid: Vec<f64> = if custom_grid {
            gaps.iter()
                .scan(0.0, |x, gap| {
                    *x += gap;
                    Some(*x)
                })
                .collect()
        } else {
            TrainingConfig::default().profile_sizes_gb
        };
        let mut footprints: Vec<f64> = grid
            .iter()
            .zip(noise.iter().cycle())
            .map(|(&x, &n)| scale * x.powf(power) + wiggle * n)
            .collect();
        if let Some(f) = footprints.get_mut(inf_at) {
            *f = f64::INFINITY;
        }
        (grid, footprints)
    }

    /// Budgets on and around every boundary a model can have: the edge
    /// values, the grid, the footprints at a sweep of slices and the
    /// neighbouring floats of each.
    fn edge_budgets(model: &dyn FootprintModel, grid: &[f64], random: &[f64]) -> Vec<f64> {
        let mut budgets = vec![
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        budgets.extend_from_slice(grid);
        budgets.extend_from_slice(random);
        for i in 0..48 {
            let f = model.footprint_gb(0.002 * 1.3f64.powi(i));
            budgets.extend([f, f.next_down(), f.next_up()]);
        }
        budgets
    }

    /// `Some` results compared bit for bit.
    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    /// Checks the `FootprintModel::max_input_for_budget` contract: over
    /// ascending budgets, once one gives `Some(x)` every larger one gives
    /// `Some(y)` with `y >= x`.
    fn assert_monotone_inverse(model: &dyn FootprintModel, budgets: &mut [f64]) {
        budgets.sort_by(f64::total_cmp);
        let mut best: Option<(f64, f64)> = None;
        for &budget in budgets.iter().filter(|b| !b.is_nan()) {
            let got = model.max_input_for_budget(budget);
            if let Some((low, x)) = best {
                match got {
                    Some(y) => assert!(y >= x, "{model:?}: {low} -> {x}, {budget} -> {y}"),
                    None => panic!("{model:?}: {low} fits {x}, {budget} fits nothing"),
                }
            }
            if let Some(y) = got {
                best = Some((budget, y));
            }
        }
    }

    fn trained_ann() -> &'static (Catalog, AnnPredictor) {
        static ANN: std::sync::OnceLock<(Catalog, AnnPredictor)> = std::sync::OnceLock::new();
        ANN.get_or_init(|| {
            let (catalog, system, mut rng) = setup();
            let sizes = TrainingConfig::default().profile_sizes_gb;
            let ann =
                AnnPredictor::train(&catalog, &system.program_benchmarks, &sizes, 0.01, &mut rng)
                    .unwrap();
            (catalog, ann)
        })
    }

    proptest::proptest! {
        /// The table-driven `GridModel` inverse returns exactly the bits
        /// of the linear walk it replaced, on random profiles (wiggly,
        /// negative and NaN-producing ones included, and with `unclamped`
        /// even non-monotone ones) at random budgets, non-positive, NaN
        /// and infinite budgets, grid values and the footprints at sweep
        /// points and their neighbouring floats.
        #[test]
        fn grid_inverse_table_matches_the_walk(
            custom_grid in proptest::prelude::any::<bool>(),
            gaps in proptest::collection::vec(0.01f64..3.0, 2..16),
            curve in (0.05f64..20.0, 0.0f64..1.5),
            wiggle in 0.0f64..4.0,
            noise in proptest::collection::vec(-1.0f64..1.0, 1..16),
            inf_at in 0usize..40,
            unclamped in proptest::prelude::any::<bool>(),
            random in proptest::collection::vec(-5.0f64..400.0, 64),
        ) {
            let (grid, footprints) =
                random_profile(custom_grid, &gaps, curve, wiggle, &noise, inf_at);
            let mut model = GridModel::new(Arc::new(SizeGrid::new(grid)), footprints.clone());
            if unclamped {
                model.footprints = footprints;
                model.tabulate_probes();
            }
            for budget in edge_budgets(&model, &model.grid.sizes, &random) {
                proptest::prop_assert_eq!(
                    bits(model.max_input_for_budget(budget)),
                    bits(model.max_input_for_budget_walk(budget)),
                    "budget {}", budget
                );
            }
            // Probe sizes are budget answers too: the footprint at each is
            // the tightest budget that still admits it.
            for &x in &model.grid.probes {
                let budget = model.footprint_gb(x);
                proptest::prop_assert_eq!(
                    bits(model.max_input_for_budget(budget)),
                    bits(model.max_input_for_budget_walk(budget))
                );
            }
        }

        /// The monotonicity contract for `CalibratedModel`, every family,
        /// over coefficients of either sign.
        #[test]
        fn inverse_is_monotone_in_the_budget_calibrated(
            family in 0usize..3,
            m in -2.0f64..60.0,
            b in -3.0f64..12.0,
            random in proptest::collection::vec(-5.0f64..400.0, 64),
        ) {
            let family = [CurveFamily::Linear, CurveFamily::Exponential, CurveFamily::NapierianLog]
                [family];
            let model = CalibratedModel::from_curve(FittedCurve { family, m, b });
            let mut budgets = edge_budgets(&model, &[m, b, m + b, m - 27.7 * b], &random);
            assert_monotone_inverse(&model, &mut budgets);
        }

        /// The monotonicity contract for Quasar's `GridModel`.
        #[test]
        fn inverse_is_monotone_in_the_budget_grid(
            custom_grid in proptest::prelude::any::<bool>(),
            gaps in proptest::collection::vec(0.01f64..3.0, 2..16),
            curve in (0.05f64..20.0, 0.0f64..1.5),
            wiggle in 0.0f64..4.0,
            noise in proptest::collection::vec(-1.0f64..1.0, 1..16),
            inf_at in 0usize..40,
            random in proptest::collection::vec(-5.0f64..400.0, 64),
        ) {
            let (grid, footprints) =
                random_profile(custom_grid, &gaps, curve, wiggle, &noise, inf_at);
            let model = GridModel::new(Arc::new(SizeGrid::new(grid)), footprints);
            let mut budgets = edge_budgets(&model, &model.grid.sizes, &random);
            assert_monotone_inverse(&model, &mut budgets);
        }

        /// The monotonicity contract for the unified ANN's model, on the
        /// observed features of random catalog programs.
        #[test]
        fn inverse_is_monotone_in_the_budget_ann(
            program in 0usize..1000,
            seed in 0u64..1000,
            random in proptest::collection::vec(-5.0f64..400.0, 24),
        ) {
            let (catalog, ann) = trained_ann();
            let bench = &catalog.all()[program % catalog.all().len()];
            let features = signatures::observe_default(bench, &mut SimRng::seed_from(seed));
            let model = AnnModel {
                scaler: ann.scaler.clone(),
                net: ann.net.clone(),
                features: features.as_slice().to_vec(),
                y_max: ann.y_max,
            };
            let mut budgets = edge_budgets(&model, &[], &random);
            assert_monotone_inverse(&model, &mut budgets);
        }
    }
}
