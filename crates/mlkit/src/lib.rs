//! # mlkit — a from-scratch machine-learning toolkit
//!
//! Every model the Middleware '17 paper evaluates is implemented here with
//! no external ML dependencies:
//!
//! * preprocessing — [`scaling::MinMaxScaler`] (paper §3.2 "Feature
//!   Scaling"), [`pca::Pca`] with a Jacobi eigensolver (feature reduction to
//!   the top components covering 95 % of variance), and
//!   [`varimax::varimax`] rotation for feature-importance analysis
//!   (Fig. 4b);
//! * classifiers — [`knn::KnnClassifier`] (the paper's expert selector),
//!   plus the Table 5 alternatives: [`naive_bayes::GaussianNb`],
//!   [`tree::DecisionTree`], [`forest::RandomForest`], [`svm::LinearSvm`]
//!   and [`mlp::Mlp`] (serving as both "MLP" and "ANN");
//! * regression — [`regression`] fits the paper's three memory-function
//!   families (Table 1) by least squares and solves their coefficients
//!   exactly from two calibration points (§4.1 "Model Calibration").
//!
//! All classifiers implement the common [`Classifier`] trait so the
//! benchmark harness can sweep them uniformly (Table 5).
//!
//! ```
//! use mlkit::knn::KnnClassifier;
//! use mlkit::Classifier;
//!
//! let xs = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0]];
//! let ys = vec![0, 0, 1];
//! let knn = KnnClassifier::fit(&xs, &ys, 1)?;
//! assert_eq!(knn.predict(&[0.05, 0.02]), 0);
//! assert_eq!(knn.predict(&[4.0, 4.5]), 1);
//! # Ok::<(), mlkit::MlError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod forest;
pub mod kernels;
pub mod kmeans;
pub mod knn;
pub mod linalg;
pub mod mlp;
pub mod naive_bayes;
pub mod pca;
pub mod regression;
pub mod scaling;
pub mod svd;
pub mod svm;
pub mod tree;
pub mod varimax;

use std::fmt;

/// Errors produced by model fitting or application.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The training set was empty or labels/features were inconsistent.
    InvalidTrainingData(String),
    /// A query vector's dimensionality did not match the model's.
    DimensionMismatch {
        /// Dimensionality the model was trained with.
        expected: usize,
        /// Dimensionality of the offending input.
        actual: usize,
    },
    /// Numerical failure (singular system, no convergence).
    Numerical(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::InvalidTrainingData(msg) => write!(f, "invalid training data: {msg}"),
            MlError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            MlError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for MlError {}

/// A trained multi-class classifier over dense `f64` feature vectors.
///
/// Labels are small unsigned integers (class indices). Implementations are
/// trained via an inherent `fit` constructor; this trait only covers
/// prediction so that heterogeneous models can be swept uniformly.
pub trait Classifier: fmt::Debug {
    /// Predicts the class label of `x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x` has the wrong dimensionality; use
    /// the same feature pipeline as during training.
    fn predict(&self, x: &[f64]) -> usize;

    /// The dimensionality of feature vectors this model accepts.
    fn dims(&self) -> usize;

    /// A short human-readable name ("KNN", "Decision Tree", ...).
    fn name(&self) -> &'static str;
}
