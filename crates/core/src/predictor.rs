//! The end-to-end mixture-of-experts façade.
//!
//! [`MoePredictor`] bundles the expert registry and the trained selector
//! into the object a runtime scheduler holds: give it the features from a
//! profiling run and the two calibration measurements, get back a
//! [`CalibratedModel`] to budget memory with.

use crate::calibration::{CalibratedModel, CalibrationPlan};
use crate::expert::ExpertId;
use crate::features::FeatureVector;
use crate::registry::ExpertRegistry;
use crate::selector::{ExpertSelector, Selection, SelectorConfig};
use crate::MoeError;

/// One training program: its profiled features and the expert that best
/// fitted its offline memory curve (Fig. 2 steps 1–3).
#[derive(Debug, Clone)]
pub struct TrainingProgram {
    /// Name, for reports and leave-one-out bookkeeping.
    pub name: String,
    /// Features from the profiling run.
    pub features: FeatureVector,
    /// Label: the expert whose curve fitted this program best.
    pub expert: ExpertId,
}

impl TrainingProgram {
    /// Convenience constructor.
    #[must_use]
    pub fn new(name: impl Into<String>, features: FeatureVector, expert: ExpertId) -> Self {
        TrainingProgram {
            name: name.into(),
            features,
            expert,
        }
    }
}

/// Configuration of the whole predictor (selector + calibration plan).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredictorConfig {
    /// Selector pipeline settings.
    pub selector: SelectorConfig,
    /// Calibration sampling fractions.
    pub calibration: CalibrationPlan,
}

/// A trained mixture-of-experts memory predictor.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct MoePredictor {
    registry: ExpertRegistry,
    selector: ExpertSelector,
    config: PredictorConfig,
}

impl MoePredictor {
    /// Trains the expert selector from labeled training programs.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::InvalidTraining`] when `programs` is empty or
    /// references experts missing from `registry`, and propagates selector
    /// training errors.
    pub fn train(
        registry: ExpertRegistry,
        programs: &[TrainingProgram],
        config: PredictorConfig,
    ) -> Result<Self, MoeError> {
        if programs.is_empty() {
            return Err(MoeError::InvalidTraining(
                "no training programs supplied".into(),
            ));
        }
        for p in programs {
            registry.get(p.expert).map_err(|_| {
                MoeError::InvalidTraining(format!(
                    "training program '{}' references {} which is not registered",
                    p.name, p.expert
                ))
            })?;
        }
        let exemplars: Vec<(FeatureVector, ExpertId)> = programs
            .iter()
            .map(|p| (p.features.clone(), p.expert))
            .collect();
        let selector = ExpertSelector::train(&exemplars, config.selector)?;
        Ok(MoePredictor {
            registry,
            selector,
            config,
        })
    }

    /// The expert registry.
    #[must_use]
    pub fn registry(&self) -> &ExpertRegistry {
        &self.registry
    }

    /// The trained selector.
    #[must_use]
    pub fn selector(&self) -> &ExpertSelector {
        &self.selector
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    /// Step 1 at runtime: choose the memory function for an application
    /// from its profiled features.
    ///
    /// # Errors
    ///
    /// Propagates selector errors.
    pub fn select(&self, features: &FeatureVector) -> Result<Selection, MoeError> {
        self.selector.select(features)
    }

    /// Batched step 1: choose experts for many applications with
    /// whole-matrix scaling/projection/KNN passes — bitwise identical to
    /// calling [`MoePredictor::select`] once per vector, in order (see
    /// [`ExpertSelector::select_batch`]).
    ///
    /// # Errors
    ///
    /// Propagates selector errors.
    pub fn select_batch(&self, features: &[FeatureVector]) -> Result<Vec<Selection>, MoeError> {
        self.selector.select_batch(features)
    }

    /// Reassembles a predictor from an already-trained selector and
    /// registry (the model artifact load path).
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::InvalidTraining`] when any KNN label references
    /// an expert missing from `registry`.
    pub fn from_parts(
        registry: ExpertRegistry,
        selector: ExpertSelector,
        config: PredictorConfig,
    ) -> Result<Self, MoeError> {
        for &label in selector.knn().labels() {
            registry.get(ExpertId::from_usize(label)).map_err(|_| {
                MoeError::InvalidTraining(format!(
                    "selector references expert {label} which is not registered"
                ))
            })?;
        }
        Ok(MoePredictor {
            registry,
            selector,
            config,
        })
    }

    /// Step 2 at runtime: instantiate the chosen expert's coefficients from
    /// the two calibration measurements `(input_units, footprint_gb)`.
    ///
    /// # Errors
    ///
    /// Returns [`MoeError::UnknownExpert`] for a stale id and
    /// [`MoeError::Calibration`] when the points are incompatible with the
    /// expert's family.
    pub fn calibrate(
        &self,
        expert: ExpertId,
        p1: (f64, f64),
        p2: (f64, f64),
    ) -> Result<CalibratedModel, MoeError> {
        self.registry.get(expert)?.calibrate(p1, p2)
    }

    /// Registers a new expert and a first exemplar for it, without
    /// retraining the selector (§1's extensibility claim; see also the
    /// `custom_expert` example).
    ///
    /// # Errors
    ///
    /// Propagates exemplar-insertion errors.
    pub fn extend(
        &mut self,
        expert: crate::expert::SharedExpert,
        exemplar: &FeatureVector,
    ) -> Result<ExpertId, MoeError> {
        let id = self.registry.register(expert);
        self.selector.insert_exemplar(exemplar, id)?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::regression::{CurveFamily, FittedCurve};

    fn cluster_features(cluster: usize, jitter: f64) -> FeatureVector {
        FeatureVector::from_fn(|i| {
            let band = i / 8; // 0, 1, 2 (band 2 covers 16..22)
            if band == cluster.min(2) {
                0.9 + jitter
            } else {
                0.1 + jitter
            }
        })
    }

    fn trained() -> MoePredictor {
        let registry = ExpertRegistry::builtin();
        let mut programs = Vec::new();
        for j in 0..5 {
            let jf = j as f64 * 0.005;
            for c in 0..3 {
                programs.push(TrainingProgram::new(
                    format!("app-{c}-{j}"),
                    cluster_features(c, jf),
                    ExpertId::from_usize(c),
                ));
            }
        }
        MoePredictor::train(registry, &programs, PredictorConfig::default()).unwrap()
    }

    #[test]
    fn end_to_end_select_and_calibrate() {
        let predictor = trained();
        // An app whose features resemble cluster 1 (exponential family).
        let features = cluster_features(1, 0.002);
        let truth = FittedCurve {
            family: CurveFamily::Exponential,
            m: 5.768,
            b: 4.479,
        };
        let sel = predictor.select(&features).unwrap();
        let model = predictor
            .calibrate(
                sel.expert,
                (0.05, truth.eval(0.05)),
                (0.10, truth.eval(0.10)),
            )
            .unwrap();
        assert_eq!(sel.expert, ExpertId::from_usize(1));
        assert!(!sel.low_confidence);
        assert!((model.footprint_gb(2.0) - truth.eval(2.0)).abs() < 1e-6);
    }

    #[test]
    fn training_rejects_unknown_expert_labels() {
        let registry = ExpertRegistry::builtin();
        let programs = vec![TrainingProgram::new(
            "bad",
            FeatureVector::zeros(),
            ExpertId::from_usize(7),
        )];
        assert!(matches!(
            MoePredictor::train(registry, &programs, PredictorConfig::default()),
            Err(MoeError::InvalidTraining(_))
        ));
    }

    #[test]
    fn training_rejects_empty_set() {
        assert!(
            MoePredictor::train(ExpertRegistry::builtin(), &[], PredictorConfig::default())
                .is_err()
        );
    }

    #[test]
    fn extend_adds_expert_and_exemplar() {
        let mut predictor = trained();
        #[derive(Debug)]
        struct SquareExpert;
        impl crate::expert::MemoryExpert for SquareExpert {
            fn name(&self) -> &str {
                "Square"
            }
            fn formula(&self) -> &str {
                "y = m*x^2 + b"
            }
            fn fit(&self, _: &[f64], _: &[f64]) -> Result<CalibratedModel, MoeError> {
                Err(MoeError::InvalidTraining("unused in test".into()))
            }
            fn calibrate(
                &self,
                p1: (f64, f64),
                p2: (f64, f64),
            ) -> Result<CalibratedModel, MoeError> {
                let m = (p2.1 - p1.1) / (p2.0 * p2.0 - p1.0 * p1.0);
                let b = p1.1 - m * p1.0 * p1.0;
                // Reuse the linear carrier: eval only needs m·x+b shape at
                // test probes below, so store a linear approximation.
                Ok(CalibratedModel::from_curve(FittedCurve {
                    family: CurveFamily::Linear,
                    m,
                    b,
                }))
            }
        }
        // A distinctive feature signature for the new family.
        let signature = FeatureVector::from_fn(|i| if i % 2 == 0 { 0.5 } else { 0.9 });
        let id = predictor
            .extend(std::sync::Arc::new(SquareExpert), &signature)
            .unwrap();
        assert_eq!(predictor.registry().len(), 4);
        let sel = predictor.select(&signature).unwrap();
        assert_eq!(sel.expert, id);
    }

    #[test]
    fn calibrate_with_stale_id_fails() {
        let predictor = trained();
        let err = predictor
            .calibrate(ExpertId::from_usize(42), (1.0, 1.0), (2.0, 2.0))
            .unwrap_err();
        assert!(matches!(err, MoeError::UnknownExpert(_)));
    }
}
