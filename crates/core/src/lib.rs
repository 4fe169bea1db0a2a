//! # moe-core — mixture-of-experts memory-footprint modeling
//!
//! This crate is the primary contribution of *"Improving Spark Application
//! Throughput Via Memory Aware Task Co-location: A Mixture of Experts
//! Approach"* (Marco et al., Middleware '17): a framework that predicts how
//! much memory a Spark-style executor needs for a given input size, by
//!
//! 1. keeping a **registry of memory functions** ("experts", Table 1 of the
//!    paper) — linear, saturating-exponential and Napierian-logarithmic
//!    curves of footprint vs. input size — that is **extensible**: new
//!    expert families can be registered at any time without retraining
//!    ([`registry::ExpertRegistry`]);
//! 2. choosing the right expert for an unseen application with a KNN
//!    **expert selector** over scaled, PCA-reduced runtime features
//!    ([`selector::ExpertSelector`]), whose nearest-neighbour distance
//!    doubles as a **confidence** signal with a conservative fallback
//!    (§6.9 of the paper);
//! 3. instantiating the chosen expert's two coefficients from **two
//!    lightweight profiling runs** on 5 % and 10 % of the input
//!    ([`calibration`], §4.1 "Model Calibration"); and
//! 4. exposing the calibrated model's **forward** (items → footprint) and
//!    **inverse** (memory budget → items) forms, which is exactly what a
//!    co-locating job dispatcher needs (§4.3).
//!
//! The end-to-end façade is [`predictor::MoePredictor`].
//!
//! ```
//! use moe_core::features::FeatureVector;
//! use moe_core::predictor::{MoePredictor, TrainingProgram};
//! use moe_core::registry::ExpertRegistry;
//! use mlkit::regression::{CurveFamily, FittedCurve};
//!
//! // Train on two synthetic programs, one linear, one logarithmic.
//! let registry = ExpertRegistry::builtin();
//! let lin = registry.id_of("Linear Regression").unwrap();
//! let log = registry.id_of("Napierian Logarithmic Regression").unwrap();
//! let programs = vec![
//!     TrainingProgram::new("lin-app", FeatureVector::from_fn(|i| i as f64), lin),
//!     TrainingProgram::new("log-app", FeatureVector::from_fn(|i| 22.0 - i as f64), log),
//! ];
//! let predictor = MoePredictor::train(registry, &programs, Default::default())?;
//!
//! // At runtime: profile features, select an expert, calibrate on 2 points.
//! let truth = FittedCurve { family: CurveFamily::Linear, m: 2.0, b: 0.5 };
//! let sel = predictor.select(&FeatureVector::from_fn(|i| i as f64 + 0.01))?;
//! let model = predictor.calibrate(sel.expert, (5.0, truth.eval(5.0)), (10.0, truth.eval(10.0)))?;
//! assert!((model.footprint_gb(100.0) - truth.eval(100.0)).abs() < 1e-6);
//! # Ok::<(), moe_core::MoeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod expert;
pub mod features;
pub mod predictor;
pub mod registry;
pub mod selector;

pub use calibration::CalibratedModel;
pub use expert::{ExpertId, MemoryExpert};
pub use predictor::MoePredictor;
pub use registry::ExpertRegistry;
pub use selector::{ExpertSelector, Selection};

use std::fmt;

/// Errors raised by the mixture-of-experts framework.
#[derive(Debug, Clone, PartialEq)]
pub enum MoeError {
    /// The referenced expert does not exist in the registry.
    UnknownExpert(String),
    /// Training inputs were empty or inconsistent.
    InvalidTraining(String),
    /// Calibration points were unusable for the chosen expert.
    Calibration(String),
    /// An underlying mlkit operation failed.
    Ml(mlkit::MlError),
}

impl fmt::Display for MoeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoeError::UnknownExpert(name) => write!(f, "unknown expert: {name}"),
            MoeError::InvalidTraining(msg) => write!(f, "invalid training data: {msg}"),
            MoeError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
            MoeError::Ml(e) => write!(f, "ml error: {e}"),
        }
    }
}

impl std::error::Error for MoeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MoeError::Ml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mlkit::MlError> for MoeError {
    fn from(e: mlkit::MlError) -> Self {
        MoeError::Ml(e)
    }
}
