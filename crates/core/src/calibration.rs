//! Calibrated memory models and the two-point calibration plan (§4.1).
//!
//! A [`CalibratedModel`] is a memory function whose coefficients have been
//! instantiated for one specific application+input. It answers the two
//! questions the job dispatcher asks (§4.3):
//!
//! * *forward*: how many GB will an executor holding `x` units of input
//!   need? — [`CalibratedModel::footprint_gb`]
//! * *inverse*: under a memory budget of `y` GB, how many units of input
//!   may the executor be given? — [`CalibratedModel::max_input_for_budget`]

use mlkit::regression::{CurveFamily, FittedCurve};
use serde::{Deserialize, Serialize};

/// The fractions of the remaining input used by the two calibration
/// profiling runs. The paper uses 5 % and 10 % (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationPlan {
    /// Fraction of the input for the first profiling run.
    pub first_fraction: f64,
    /// Fraction of the input for the second profiling run.
    pub second_fraction: f64,
}

impl Default for CalibrationPlan {
    fn default() -> Self {
        CalibrationPlan {
            first_fraction: 0.05,
            second_fraction: 0.10,
        }
    }
}

/// A memory function with instantiated coefficients.
///
/// # Examples
///
/// ```
/// use moe_core::calibration::CalibratedModel;
/// use mlkit::regression::{CurveFamily, FittedCurve};
///
/// let model = CalibratedModel::from_curve(FittedCurve {
///     family: CurveFamily::Linear,
///     m: 0.5,
///     b: 1.0,
/// });
/// assert_eq!(model.footprint_gb(10.0), 6.0);
/// // 6 GB budget -> at most 10 units of input.
/// assert_eq!(model.max_input_for_budget(6.0), Some(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratedModel {
    curve: FittedCurve,
}

impl CalibratedModel {
    /// Wraps a fitted curve.
    #[must_use]
    pub fn from_curve(curve: FittedCurve) -> Self {
        CalibratedModel { curve }
    }

    /// The underlying curve (family + coefficients).
    #[must_use]
    pub fn curve(&self) -> FittedCurve {
        self.curve
    }

    /// Predicted executor footprint, in GB, for `input` units of data.
    /// Clamped below at zero: a memory model never predicts negative RAM.
    #[must_use]
    pub fn footprint_gb(&self, input: f64) -> f64 {
        self.curve.eval(input).max(0.0)
    }

    /// Largest input (in the same units as calibration) whose predicted
    /// footprint fits within `budget_gb`.
    ///
    /// Returns `None` when no positive amount of input fits. For the
    /// saturating exponential, any budget at or above the asymptote `m`
    /// admits unbounded input; `f64::INFINITY` is returned in that case.
    #[must_use]
    pub fn max_input_for_budget(&self, budget_gb: f64) -> Option<f64> {
        if budget_gb <= 0.0 {
            return None;
        }
        let FittedCurve { family, m, b } = self.curve;
        let x = match family {
            CurveFamily::Linear => {
                if m <= 0.0 {
                    // Flat or decreasing: either everything fits or nothing.
                    return if b <= budget_gb {
                        Some(f64::INFINITY)
                    } else {
                        None
                    };
                }
                (budget_gb - b) / m
            }
            CurveFamily::Exponential => {
                if m <= 0.0 {
                    return Some(f64::INFINITY);
                }
                if budget_gb >= m {
                    return Some(f64::INFINITY);
                }
                if b <= 0.0 {
                    return None;
                }
                -(1.0 - budget_gb / m).ln() / b
            }
            CurveFamily::NapierianLog => {
                if b <= 0.0 {
                    return if m <= budget_gb {
                        Some(f64::INFINITY)
                    } else {
                        None
                    };
                }
                ((budget_gb - m) / b).exp()
            }
        };
        if x.is_finite() && x > 0.0 {
            // Verify feasibility: eval floors x for the logarithmic family,
            // so an inverted x below the floor would still overshoot the
            // budget. Reject such degenerate answers.
            if self.footprint_gb(x) <= budget_gb * (1.0 + 1e-9) + 1e-9 {
                Some(x)
            } else {
                None
            }
        } else if x == f64::INFINITY {
            Some(f64::INFINITY)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(family: CurveFamily, m: f64, b: f64) -> CalibratedModel {
        CalibratedModel::from_curve(FittedCurve { family, m, b })
    }

    #[test]
    fn footprint_never_negative() {
        let m = model(CurveFamily::Linear, 1.0, -10.0);
        assert_eq!(m.footprint_gb(5.0), 0.0);
        assert_eq!(m.footprint_gb(20.0), 10.0);
    }

    #[test]
    fn inverse_linear_round_trips() {
        let m = model(CurveFamily::Linear, 0.5, 2.0);
        let x = m.max_input_for_budget(12.0).unwrap();
        assert!((m.footprint_gb(x) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_log_round_trips() {
        let m = model(CurveFamily::NapierianLog, 16.333, 1.79);
        let x = m.max_input_for_budget(20.0).unwrap();
        assert!((m.footprint_gb(x) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_exponential_round_trips_below_asymptote() {
        let m = model(CurveFamily::Exponential, 5.768, 4.479);
        let x = m.max_input_for_budget(3.0).unwrap();
        assert!((m.footprint_gb(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_budget_above_asymptote_is_unbounded() {
        let m = model(CurveFamily::Exponential, 5.768, 4.479);
        assert_eq!(m.max_input_for_budget(6.0), Some(f64::INFINITY));
    }

    #[test]
    fn zero_or_negative_budget_fits_nothing() {
        let m = model(CurveFamily::Linear, 1.0, 0.0);
        assert_eq!(m.max_input_for_budget(0.0), None);
        assert_eq!(m.max_input_for_budget(-5.0), None);
    }

    #[test]
    fn budget_below_linear_intercept_fits_nothing() {
        let m = model(CurveFamily::Linear, 1.0, 8.0);
        assert_eq!(m.max_input_for_budget(4.0), None);
    }

    #[test]
    fn flat_linear_with_small_intercept_is_unbounded() {
        let m = model(CurveFamily::Linear, 0.0, 2.0);
        assert_eq!(m.max_input_for_budget(4.0), Some(f64::INFINITY));
        assert_eq!(m.max_input_for_budget(1.0), None);
    }

    #[test]
    fn log_with_nonpositive_slope_degenerates() {
        let m = model(CurveFamily::NapierianLog, 3.0, 0.0);
        assert_eq!(m.max_input_for_budget(4.0), Some(f64::INFINITY));
        assert_eq!(m.max_input_for_budget(2.0), None);
    }
}
