//! The batched prediction serving path: model artifacts.
//!
//! Training a [`MoePredictor`] takes a full offline profiling campaign;
//! serving it should not. This module gives the trained model a life of
//! its own: a [`ModelArtifact`] is a compact, checksummed, raw-bits
//! serialization of everything the runtime selector needs (scaler bounds,
//! PCA projection, KNN exemplar matrix with precomputed squared norms,
//! expert family tags, fitted curve parameters). It is written once after
//! training; any process can [`ModelArtifact::load`] it and reassemble a
//! predictor that is bitwise identical to the freshly trained one.
//!
//! # Determinism
//!
//! Every `f64` crosses the artifact boundary as its raw IEEE-754 bits via
//! [`simkit::journal::wire`], so save → load round-trips are bit-exact.
//! The batched inference path reuses the exact kernels of the scalar path
//! (see `ExpertSelector::select_batch`), so a predictor reassembled from
//! an artifact and queried in batches produces the same selection bits as
//! the original scalar `predict` loop.

use mlkit::knn::KnnClassifier;
use mlkit::linalg::Matrix;
use mlkit::pca::Pca;
use mlkit::regression::{CurveFamily, FittedCurve};
use mlkit::scaling::MinMaxScaler;
use moe_core::expert::CurveExpert;
use moe_core::predictor::PredictorConfig;
use moe_core::selector::SelectorConfig;
use moe_core::{ExpertRegistry, ExpertSelector, MoeError, MoePredictor};
use simkit::journal::{atomic_write, fnv64, wire, JournalError};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Artifact header: magic tag + format version 1.
const MAGIC: [u8; 8] = *b"SMMA\x01\x00\x00\x00";

/// Errors raised by the serving layer.
#[derive(Debug)]
pub enum ServingError {
    /// Filesystem failure while reading or writing an artifact.
    Io(std::io::Error),
    /// The artifact bytes are not a valid model artifact (bad magic,
    /// truncation, checksum mismatch, or inconsistent shapes).
    Corrupt(String),
    /// Reassembling or querying the model failed.
    Model(MoeError),
}

impl fmt::Display for ServingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ServingError::Corrupt(msg) => write!(f, "corrupt model artifact: {msg}"),
            ServingError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Io(e) => Some(e),
            ServingError::Model(e) => Some(e),
            ServingError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for ServingError {
    fn from(e: std::io::Error) -> Self {
        ServingError::Io(e)
    }
}

impl From<MoeError> for ServingError {
    fn from(e: MoeError) -> Self {
        ServingError::Model(e)
    }
}

impl From<mlkit::MlError> for ServingError {
    fn from(e: mlkit::MlError) -> Self {
        ServingError::Model(MoeError::from(e))
    }
}

impl From<JournalError> for ServingError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(io) => ServingError::Io(io),
            other => ServingError::Corrupt(other.to_string()),
        }
    }
}

/// A serialized trained model: everything needed to reassemble the
/// deployed [`MoePredictor`] without re-running training.
///
/// The on-disk layout is `MAGIC ‖ payload_len:u64 ‖ payload ‖
/// fnv64(payload):u64`, all little-endian, with every `f64` stored as its
/// raw bits — see the module documentation for the determinism argument.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Selector + calibration configuration of the trained predictor.
    pub config: PredictorConfig,
    /// Curve family of each registered expert, in registry (label) order.
    pub expert_families: Vec<CurveFamily>,
    /// Per-feature minima of the min-max scaler.
    pub scaler_mins: Vec<f64>,
    /// Per-feature maxima of the min-max scaler.
    pub scaler_maxs: Vec<f64>,
    /// PCA feature means (length = input dims).
    pub pca_means: Vec<f64>,
    /// PCA projection, components × input dims, row-major.
    pub pca_axes: Vec<f64>,
    /// Dimensionality of the raw (scaled) feature space.
    pub pca_input_dims: usize,
    /// Eigenvalues of the kept components, descending.
    pub pca_eigenvalues: Vec<f64>,
    /// Total variance of the training set before truncation.
    pub pca_total_variance: f64,
    /// `k` of the KNN vote.
    pub knn_k: usize,
    /// KNN training matrix, exemplars × components, row-major (PC space).
    pub knn_exemplars: Vec<f64>,
    /// Precomputed squared norms of the exemplar rows.
    pub knn_norms_sq: Vec<f64>,
    /// Expert label of each exemplar.
    pub knn_labels: Vec<usize>,
    /// Fitted per-program curve parameters from offline training (the
    /// "expert curve parameters" of the deployment bundle).
    pub fitted_curves: Vec<FittedCurve>,
}

fn family_index(family: CurveFamily) -> u64 {
    CurveFamily::ALL
        .iter()
        .position(|&f| f == family)
        .map_or(u64::MAX, |i| i as u64)
}

fn family_from_index(idx: u64) -> Result<CurveFamily, ServingError> {
    usize::try_from(idx)
        .ok()
        .and_then(|i| CurveFamily::ALL.get(i).copied())
        .ok_or_else(|| ServingError::Corrupt(format!("unknown curve family index {idx}")))
}

fn read_len(
    reader: &mut wire::Reader<'_>,
    payload_len: usize,
    what: &str,
) -> Result<usize, ServingError> {
    let n = usize::try_from(reader.u64()?)
        .map_err(|_| ServingError::Corrupt(format!("{what} count does not fit usize")))?;
    // Every element needs at least 8 payload bytes, so any count beyond
    // payload_len / 8 is corrupt regardless of what follows; checking here
    // keeps a damaged length field from driving a huge allocation.
    if n > payload_len / 8 {
        return Err(ServingError::Corrupt(format!(
            "{what} count {n} exceeds payload capacity"
        )));
    }
    Ok(n)
}

fn read_f64s(reader: &mut wire::Reader<'_>, n: usize) -> Result<Vec<f64>, JournalError> {
    (0..n).map(|_| reader.f64()).collect()
}

impl ModelArtifact {
    /// Captures the deployed state of a trained predictor, together with
    /// the fitted per-program curves from offline training.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Corrupt`] when the registry contains an
    /// expert whose name does not match a built-in curve family (custom
    /// experts are not serializable).
    pub fn from_predictor(
        predictor: &MoePredictor,
        fitted_curves: &[FittedCurve],
    ) -> Result<Self, ServingError> {
        let mut expert_families = Vec::new();
        for (_, expert) in predictor.registry().iter() {
            let family = CurveFamily::ALL
                .iter()
                .copied()
                .find(|f| f.name() == expert.name())
                .ok_or_else(|| {
                    ServingError::Corrupt(format!(
                        "expert '{}' has no serializable curve family",
                        expert.name()
                    ))
                })?;
            expert_families.push(family);
        }
        let selector = predictor.selector();
        let (scaler, pca, knn) = (selector.scaler(), selector.pca(), selector.knn());
        Ok(ModelArtifact {
            config: predictor.config(),
            expert_families,
            scaler_mins: scaler.mins().to_vec(),
            scaler_maxs: scaler.maxs().to_vec(),
            pca_means: pca.means().to_vec(),
            pca_axes: pca.axes_data().to_vec(),
            pca_input_dims: pca.input_dims(),
            pca_eigenvalues: pca.eigenvalues().to_vec(),
            pca_total_variance: pca.total_variance(),
            knn_k: knn.k(),
            knn_exemplars: knn.exemplars_flat().to_vec(),
            knn_norms_sq: knn.norms_sq().to_vec(),
            knn_labels: knn.labels().to_vec(),
            fitted_curves: fitted_curves.to_vec(),
        })
    }

    /// Reassembles the deployed predictor. The result is bitwise identical
    /// to the predictor the artifact was captured from: every stored field
    /// round-trips as raw bits and the `from_parts` constructors re-verify
    /// internal consistency (including the precomputed norms) instead of
    /// recomputing anything.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Model`] when the stored fields do not form
    /// a consistent model.
    pub fn into_predictor(&self) -> Result<MoePredictor, ServingError> {
        let mut registry = ExpertRegistry::new();
        for &family in &self.expert_families {
            registry.register(Arc::new(CurveExpert::new(family)));
        }
        let scaler = MinMaxScaler::from_parts(self.scaler_mins.clone(), self.scaler_maxs.clone())?;
        if self.pca_input_dims == 0
            || self.pca_axes.len() != self.pca_eigenvalues.len() * self.pca_input_dims
        {
            return Err(ServingError::Corrupt(
                "PCA axes shape disagrees with eigenvalue count".into(),
            ));
        }
        let axes = Matrix::from_rows(
            self.pca_axes
                .chunks(self.pca_input_dims)
                .map(<[f64]>::to_vec)
                .collect(),
        );
        let pca = Pca::from_parts(
            self.pca_means.clone(),
            axes,
            self.pca_eigenvalues.clone(),
            self.pca_total_variance,
        )?;
        let components = pca.components();
        let knn = KnnClassifier::from_parts(
            self.knn_exemplars.clone(),
            self.knn_norms_sq.clone(),
            self.knn_labels.clone(),
            self.knn_k,
            components,
        )?;
        let selector = ExpertSelector::from_parts(scaler, pca, knn, self.config.selector)?;
        Ok(MoePredictor::from_parts(registry, selector, self.config)?)
    }

    /// Serializes the artifact to its on-disk byte layout.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        // Configuration.
        wire::put_u64(&mut payload, self.config.selector.k as u64);
        wire::put_f64(&mut payload, self.config.selector.variance_target);
        match self.config.selector.components {
            Some(c) => {
                wire::put_u64(&mut payload, 1);
                wire::put_u64(&mut payload, c as u64);
            }
            None => {
                wire::put_u64(&mut payload, 0);
                wire::put_u64(&mut payload, 0);
            }
        }
        wire::put_f64(&mut payload, self.config.selector.confidence_threshold);
        wire::put_f64(&mut payload, self.config.calibration.first_fraction);
        wire::put_f64(&mut payload, self.config.calibration.second_fraction);
        // Expert registry.
        wire::put_u64(&mut payload, self.expert_families.len() as u64);
        for &family in &self.expert_families {
            wire::put_u64(&mut payload, family_index(family));
        }
        // Scaler.
        wire::put_u64(&mut payload, self.scaler_mins.len() as u64);
        for &v in self.scaler_mins.iter().chain(self.scaler_maxs.iter()) {
            wire::put_f64(&mut payload, v);
        }
        // PCA.
        wire::put_u64(&mut payload, self.pca_input_dims as u64);
        wire::put_u64(&mut payload, self.pca_eigenvalues.len() as u64);
        for &v in &self.pca_means {
            wire::put_f64(&mut payload, v);
        }
        for &v in &self.pca_axes {
            wire::put_f64(&mut payload, v);
        }
        for &v in &self.pca_eigenvalues {
            wire::put_f64(&mut payload, v);
        }
        wire::put_f64(&mut payload, self.pca_total_variance);
        // KNN.
        wire::put_u64(&mut payload, self.knn_k as u64);
        wire::put_u64(&mut payload, self.knn_labels.len() as u64);
        for &v in self.knn_exemplars.iter().chain(self.knn_norms_sq.iter()) {
            wire::put_f64(&mut payload, v);
        }
        for &label in &self.knn_labels {
            wire::put_u64(&mut payload, label as u64);
        }
        // Fitted curve parameters.
        wire::put_u64(&mut payload, self.fitted_curves.len() as u64);
        for curve in &self.fitted_curves {
            wire::put_u64(&mut payload, family_index(curve.family));
            wire::put_f64(&mut payload, curve.m);
            wire::put_f64(&mut payload, curve.b);
        }

        let mut bytes = Vec::with_capacity(MAGIC.len() + 16 + payload.len());
        bytes.extend_from_slice(&MAGIC);
        wire::put_u64(&mut bytes, payload.len() as u64);
        let checksum = fnv64(&payload);
        bytes.extend_from_slice(&payload);
        wire::put_u64(&mut bytes, checksum);
        bytes
    }

    /// Parses an artifact from its byte layout, verifying the header,
    /// exact length, and payload checksum — any single flipped byte is
    /// rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Corrupt`] for anything that is not a valid
    /// artifact.
    pub fn decode(bytes: &[u8]) -> Result<Self, ServingError> {
        if bytes.len() < MAGIC.len() + 16 {
            return Err(ServingError::Corrupt(
                "shorter than the fixed header".into(),
            ));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(ServingError::Corrupt("bad magic".into()));
        }
        let mut head = wire::Reader::new(&bytes[MAGIC.len()..MAGIC.len() + 8]);
        let payload_len = usize::try_from(head.u64()?)
            .map_err(|_| ServingError::Corrupt("payload length does not fit usize".into()))?;
        if bytes.len() != MAGIC.len() + 8 + payload_len + 8 {
            return Err(ServingError::Corrupt(format!(
                "length {} disagrees with declared payload {payload_len}",
                bytes.len()
            )));
        }
        let payload = &bytes[MAGIC.len() + 8..MAGIC.len() + 8 + payload_len];
        let mut tail = wire::Reader::new(&bytes[MAGIC.len() + 8 + payload_len..]);
        let stored = tail.u64()?;
        let computed = fnv64(payload);
        if stored != computed {
            return Err(ServingError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }

        let mut r = wire::Reader::new(payload);
        let k = read_len(&mut r, payload_len, "selector k")?;
        let variance_target = r.f64()?;
        let has_components = r.u64()?;
        let components_value = read_len(&mut r, payload_len, "component")?;
        let components = match has_components {
            0 => None,
            1 => Some(components_value),
            other => {
                return Err(ServingError::Corrupt(format!(
                    "component flag must be 0 or 1, got {other}"
                )))
            }
        };
        let confidence_threshold = r.f64()?;
        let first_fraction = r.f64()?;
        let second_fraction = r.f64()?;
        let config = PredictorConfig {
            selector: SelectorConfig {
                k,
                variance_target,
                components,
                confidence_threshold,
            },
            calibration: moe_core::calibration::CalibrationPlan {
                first_fraction,
                second_fraction,
            },
        };

        let n_experts = read_len(&mut r, payload_len, "expert")?;
        let expert_families = (0..n_experts)
            .map(|_| family_from_index(r.u64()?))
            .collect::<Result<Vec<_>, _>>()?;

        let scaler_dims = read_len(&mut r, payload_len, "scaler dim")?;
        let scaler_mins = read_f64s(&mut r, scaler_dims)?;
        let scaler_maxs = read_f64s(&mut r, scaler_dims)?;

        let pca_input_dims = read_len(&mut r, payload_len, "PCA input dim")?;
        let pca_components = read_len(&mut r, payload_len, "PCA component")?;
        if pca_components != 0 && pca_input_dims > payload_len / 8 / pca_components {
            return Err(ServingError::Corrupt(
                "PCA matrix larger than payload".into(),
            ));
        }
        let pca_means = read_f64s(&mut r, pca_input_dims)?;
        let pca_axes = read_f64s(&mut r, pca_components * pca_input_dims)?;
        let pca_eigenvalues = read_f64s(&mut r, pca_components)?;
        let pca_total_variance = r.f64()?;

        let knn_k = read_len(&mut r, payload_len, "KNN k")?;
        let knn_len = read_len(&mut r, payload_len, "exemplar")?;
        if pca_components != 0 && knn_len > payload_len / 8 / pca_components {
            return Err(ServingError::Corrupt(
                "KNN matrix larger than payload".into(),
            ));
        }
        let knn_exemplars = read_f64s(&mut r, knn_len * pca_components)?;
        let knn_norms_sq = read_f64s(&mut r, knn_len)?;
        let knn_labels = (0..knn_len)
            .map(|_| {
                usize::try_from(r.u64()?)
                    .map_err(|_| ServingError::Corrupt("label does not fit usize".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let n_curves = read_len(&mut r, payload_len, "fitted curve")?;
        let mut fitted_curves = Vec::with_capacity(n_curves);
        for _ in 0..n_curves {
            let family = family_from_index(r.u64()?)?;
            let m = r.f64()?;
            let b = r.f64()?;
            fitted_curves.push(FittedCurve { family, m, b });
        }

        if !r.exhausted() {
            return Err(ServingError::Corrupt(
                "trailing bytes after the last field".into(),
            ));
        }

        Ok(ModelArtifact {
            config,
            expert_families,
            scaler_mins,
            scaler_maxs,
            pca_means,
            pca_axes,
            pca_input_dims,
            pca_eigenvalues,
            pca_total_variance,
            knn_k,
            knn_exemplars,
            knn_norms_sq,
            knn_labels,
            fitted_curves,
        })
    }

    /// Writes the artifact atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ServingError> {
        Ok(atomic_write(path, &self.encode())?)
    }

    /// Reads and verifies an artifact from disk.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Io`] on filesystem failure and
    /// [`ServingError::Corrupt`] on any integrity violation.
    pub fn load(path: &Path) -> Result<Self, ServingError> {
        Self::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_system, TrainingConfig};
    use moe_core::features::FeatureVector;
    use simkit::SimRng;
    use workloads::catalog::Catalog;

    fn trained() -> crate::training::TrainedSystem {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(42);
        train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap()
    }

    #[test]
    fn artifact_round_trips_bitwise() {
        let system = trained();
        let artifact =
            ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves).unwrap();
        let decoded = ModelArtifact::decode(&artifact.encode()).unwrap();
        assert_eq!(decoded, artifact);
        // Bit-level equality of every float field (PartialEq would accept
        // -0.0 == 0.0; the artifact must be stricter).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&decoded.pca_axes), bits(&artifact.pca_axes));
        assert_eq!(bits(&decoded.knn_exemplars), bits(&artifact.knn_exemplars));
        assert_eq!(bits(&decoded.knn_norms_sq), bits(&artifact.knn_norms_sq));
    }

    #[test]
    fn reassembled_predictor_selects_identically() {
        let system = trained();
        let artifact =
            ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves).unwrap();
        let rebuilt = artifact.into_predictor().unwrap();
        let mut rng = SimRng::seed_from(7);
        for _ in 0..20 {
            let f = FeatureVector::from_fn(|_| rng.unit() * 3.0 - 0.5);
            let a = system.predictor.select(&f).unwrap();
            let b = rebuilt.select(&f).unwrap();
            assert_eq!(a.expert, b.expert);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            assert_eq!(a.low_confidence, b.low_confidence);
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let system = trained();
        let artifact =
            ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves).unwrap();
        let bytes = artifact.encode();
        // Flipping any single byte must be rejected (header, length,
        // payload, or checksum). Stride keeps the test fast while still
        // covering every section; the first 64 bytes are covered densely.
        for i in (0..bytes.len()).filter(|&i| i < 64 || i % 97 == 0 || i >= bytes.len() - 16) {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x01;
            let decoded = ModelArtifact::decode(&corrupted);
            match decoded {
                Err(_) => {}
                Ok(d) => panic!("flip at byte {i} went undetected (of {})", {
                    let _ = d;
                    bytes.len()
                }),
            }
        }
        // Truncation and extension are rejected too.
        assert!(ModelArtifact::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ModelArtifact::decode(&extended).is_err());
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let system = trained();
        let artifact =
            ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves).unwrap();
        let dir = std::env::temp_dir().join(format!("serving_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.smma");
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        assert_eq!(loaded, artifact);
        std::fs::remove_dir_all(&dir).ok();
    }
}
