//! The 22 raw runtime features of Table 2.
//!
//! The paper collects these with `vmstat`, Linux `perf` and PAPI while the
//! application processes a ~100 MB sample of its input, then scales each
//! feature to `[0, 1]` and reduces the set with PCA. The features are
//! observable externally — no source access required.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of raw features (Table 2).
pub const RAW_FEATURE_COUNT: usize = 22;

/// The raw features of Table 2, in the paper's importance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(non_camel_case_types)]
pub enum RawFeature {
    /// L1 total cache miss rate.
    L1_TCM,
    /// L1 data cache miss rate.
    L1_DCM,
    /// Percentage of memory used as cache (`vmstat`).
    Vcache,
    /// L1 cache store miss rate.
    L1_STM,
    /// Blocks sent per second (`vmstat bo`).
    Bo,
    /// L2 data cache miss rate.
    L2_TCM,
    /// L3 total cache miss rate.
    L3_TCM,
    /// Context switches per second.
    Cs,
    /// Floating-point operations per second.
    Flops,
    /// Interrupts per second.
    In,
    /// L2 data cache miss rate (PAPI `L2_DCM`).
    L2_DCM,
    /// L2 cache load miss rate.
    L2_LDM,
    /// L1 instruction cache miss rate.
    L1_ICM,
    /// Percentage of virtual memory used (`vmstat swpd`).
    Swpd,
    /// L2 cache store miss rate.
    L2_STM,
    /// Instructions per cycle.
    Ipc,
    /// L1 cache load miss rate.
    L1_LDM,
    /// L2 instruction cache miss rate.
    L2_ICM,
    /// Percentage of idle time.
    Id,
    /// Percentage of time waiting on I/O.
    Wa,
    /// Percentage spent in user time.
    Us,
    /// Percentage spent in kernel time.
    Sy,
}

impl RawFeature {
    /// All 22 features in Table 2 order (sorted by importance).
    pub const ALL: [RawFeature; RAW_FEATURE_COUNT] = [
        RawFeature::L1_TCM,
        RawFeature::L1_DCM,
        RawFeature::Vcache,
        RawFeature::L1_STM,
        RawFeature::Bo,
        RawFeature::L2_TCM,
        RawFeature::L3_TCM,
        RawFeature::Cs,
        RawFeature::Flops,
        RawFeature::In,
        RawFeature::L2_DCM,
        RawFeature::L2_LDM,
        RawFeature::L1_ICM,
        RawFeature::Swpd,
        RawFeature::L2_STM,
        RawFeature::Ipc,
        RawFeature::L1_LDM,
        RawFeature::L2_ICM,
        RawFeature::Id,
        RawFeature::Wa,
        RawFeature::Us,
        RawFeature::Sy,
    ];

    /// Index of this feature within a [`FeatureVector`].
    #[must_use]
    pub fn index(self) -> usize {
        RawFeature::ALL
            .iter()
            .position(|&f| f == self)
            .expect("feature present in ALL")
    }

    /// The abbreviation used in Table 2.
    #[must_use]
    pub fn abbr(self) -> &'static str {
        match self {
            RawFeature::L1_TCM => "L1_TCM",
            RawFeature::L1_DCM => "L1_DCM",
            RawFeature::Vcache => "vcache",
            RawFeature::L1_STM => "L1_STM",
            RawFeature::Bo => "bo",
            RawFeature::L2_TCM => "L2_TCM",
            RawFeature::L3_TCM => "L3_TCM",
            RawFeature::Cs => "cs",
            RawFeature::Flops => "FLOPs",
            RawFeature::In => "in",
            RawFeature::L2_DCM => "L2_DCM",
            RawFeature::L2_LDM => "L2_LDM",
            RawFeature::L1_ICM => "L1_ICM",
            RawFeature::Swpd => "swpd",
            RawFeature::L2_STM => "L2_STM",
            RawFeature::Ipc => "IPC",
            RawFeature::L1_LDM => "L1_LDM",
            RawFeature::L2_ICM => "L2_ICM",
            RawFeature::Id => "ID",
            RawFeature::Wa => "WA",
            RawFeature::Us => "US",
            RawFeature::Sy => "SY",
        }
    }

    /// The description used in Table 2.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            RawFeature::L1_TCM => "L1 total cache miss rate",
            RawFeature::L1_DCM => "L1 data cache miss rate",
            RawFeature::Vcache => "% of memory used as cache",
            RawFeature::L1_STM => "L1 cache store miss rate",
            RawFeature::Bo => "# blocks sent (/s)",
            RawFeature::L2_TCM => "L2 data cache miss rate",
            RawFeature::L3_TCM => "L2 total cache miss rate",
            RawFeature::Cs => "# context switches / s",
            RawFeature::Flops => "# floating point operations /s",
            RawFeature::In => "# interrupts / s",
            RawFeature::L2_DCM => "L3 cache total miss rate",
            RawFeature::L2_LDM => "L2 cache load miss rate",
            RawFeature::L1_ICM => "L1 instr. cache miss rate",
            RawFeature::Swpd => "% of virtual memory used",
            RawFeature::L2_STM => "L2 cache store miss rate",
            RawFeature::Ipc => "instruction per cycle",
            RawFeature::L1_LDM => "L1 cache load miss rate",
            RawFeature::L2_ICM => "L2 instr. cache miss rate",
            RawFeature::Id => "% of idle time",
            RawFeature::Wa => "% of time on IO waiting",
            RawFeature::Us => "% spent on user time",
            RawFeature::Sy => "% spent on kernel time",
        }
    }
}

impl fmt::Display for RawFeature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbr())
    }
}

/// A dense vector of the 22 raw feature values, indexed by [`RawFeature`].
///
/// # Examples
///
/// ```
/// use moe_core::features::{FeatureVector, RawFeature};
/// let mut v = FeatureVector::zeros();
/// v.set(RawFeature::L1_TCM, 0.42);
/// assert_eq!(v.get(RawFeature::L1_TCM), 0.42);
/// assert_eq!(v.as_slice().len(), 22);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// All-zero feature vector.
    #[must_use]
    pub fn zeros() -> Self {
        FeatureVector {
            values: vec![0.0; RAW_FEATURE_COUNT],
        }
    }

    /// Builds a vector by evaluating `f` on each feature index `0..22`.
    #[must_use]
    pub fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        FeatureVector {
            values: (0..RAW_FEATURE_COUNT).map(&mut f).collect(),
        }
    }

    /// Value of one feature.
    #[must_use]
    pub fn get(&self, feature: RawFeature) -> f64 {
        self.values[feature.index()]
    }

    /// Sets one feature.
    pub fn set(&mut self, feature: RawFeature, value: f64) {
        self.values[feature.index()] = value;
    }

    /// Borrow as a plain slice (Table 2 order).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Consumes into the underlying `Vec`.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }
}

impl Default for FeatureVector {
    fn default() -> Self {
        Self::zeros()
    }
}

impl From<FeatureVector> for Vec<f64> {
    fn from(v: FeatureVector) -> Vec<f64> {
        v.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_distinct_features() {
        assert_eq!(RawFeature::ALL.len(), 22);
        let set: std::collections::HashSet<_> = RawFeature::ALL.iter().collect();
        assert_eq!(set.len(), 22);
    }

    #[test]
    fn index_round_trips() {
        for (i, f) in RawFeature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn importance_order_matches_table2_head() {
        // Fig. 4b: L1_TCM, L1_DCM, vcache, L1_STM, bo are the top five.
        let top: Vec<&str> = RawFeature::ALL.iter().take(5).map(|f| f.abbr()).collect();
        assert_eq!(top, vec!["L1_TCM", "L1_DCM", "vcache", "L1_STM", "bo"]);
    }

    #[test]
    fn abbreviations_unique_and_nonempty() {
        let abbrs: std::collections::HashSet<_> =
            RawFeature::ALL.iter().map(|f| f.abbr()).collect();
        assert_eq!(abbrs.len(), 22);
        assert!(RawFeature::ALL.iter().all(|f| !f.description().is_empty()));
    }

    #[test]
    fn feature_vector_get_set() {
        let mut v = FeatureVector::zeros();
        v.set(RawFeature::Ipc, 1.5);
        v.set(RawFeature::Sy, 0.07);
        assert_eq!(v.get(RawFeature::Ipc), 1.5);
        assert_eq!(v.as_slice()[RawFeature::Sy.index()], 0.07);
    }

    #[test]
    fn from_fn_fills_in_index_order() {
        let a = FeatureVector::from_fn(|i| i as f64 * 2.0);
        let raw: Vec<f64> = (0..22).map(|i| i as f64 * 2.0).collect();
        assert_eq!(Vec::<f64>::from(a), raw);
    }

    #[test]
    fn display_matches_abbr() {
        assert_eq!(RawFeature::Vcache.to_string(), "vcache");
    }
}
