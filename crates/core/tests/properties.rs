//! Property-based tests for the mixture-of-experts core.

use mlkit::regression::{CurveFamily, FittedCurve};
use moe_core::calibration::CalibratedModel;
use moe_core::expert::{CurveExpert, ExpertId, MemoryExpert};
use moe_core::features::FeatureVector;
use moe_core::selector::{ExpertSelector, SelectorConfig};
use proptest::prelude::*;

proptest! {
    /// Footprint predictions are never negative, for any coefficients.
    #[test]
    fn footprint_never_negative(
        family_idx in 0usize..3,
        m in -100.0f64..100.0,
        b in -100.0f64..100.0,
        x in 0.0f64..1e6,
    ) {
        let model = CalibratedModel::from_curve(FittedCurve {
            family: CurveFamily::ALL[family_idx],
            m,
            b,
        });
        prop_assert!(model.footprint_gb(x) >= 0.0);
    }

    /// For increasing curves, the budget inversion round-trips: the input
    /// returned for a budget has a footprint within the budget (up to float
    /// tolerance), and slightly more input would exceed it.
    #[test]
    fn budget_inversion_round_trips(
        family_idx in 0usize..3,
        m in 0.5f64..50.0,
        b in 0.1f64..5.0,
        budget in 0.5f64..40.0,
    ) {
        let family = CurveFamily::ALL[family_idx];
        let model = CalibratedModel::from_curve(FittedCurve { family, m, b });
        if let Some(x) = model.max_input_for_budget(budget) {
            if x.is_finite() {
                let fp = model.footprint_gb(x);
                prop_assert!(fp <= budget * (1.0 + 1e-9) + 1e-9,
                    "footprint {fp} exceeds budget {budget} at x={x}");
                // A 1 % larger allocation must not still fit strictly
                // under the budget for strictly increasing curves.
                let fp_more = model.footprint_gb(x * 1.01);
                prop_assert!(fp_more >= fp - 1e-9);
            }
        }
    }

    /// Calibrating a curve expert on two exact points of its own family
    /// reproduces the curve.
    #[test]
    fn curve_expert_calibration_is_exact(
        family_idx in 0usize..3,
        m in 0.5f64..30.0,
        b in 0.2f64..5.0,
        x1 in 0.05f64..1.0,
    ) {
        let family = CurveFamily::ALL[family_idx];
        let truth = FittedCurve { family, m, b };
        let expert = CurveExpert::new(family);
        let x2 = x1 * 2.0;
        let model = expert
            .calibrate((x1, truth.eval(x1)), (x2, truth.eval(x2)))
            .unwrap();
        for probe in [x1, x2, x2 * 10.0, x2 * 100.0] {
            let want = truth.eval(probe).max(0.0);
            let got = model.footprint_gb(probe);
            prop_assert!((want - got).abs() <= 1e-4 * (1.0 + want),
                "family {family:?} at x={probe}: want {want}, got {got}");
        }
    }

    /// The selector classifies its own exemplars correctly with k = 1 and
    /// never reports a negative distance.
    #[test]
    fn selector_memorises_exemplars(seed_vals in proptest::collection::vec(0.0f64..1.0, 6)) {
        let exemplars: Vec<(FeatureVector, ExpertId)> = seed_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                // Spread exemplars so they are distinct in feature space.
                let fv = FeatureVector::from_fn(|d| v + (i * 23 + d) as f64);
                (fv, ExpertId::from_usize(i % 3))
            })
            .collect();
        let selector = ExpertSelector::train(&exemplars, SelectorConfig::default()).unwrap();
        for (f, id) in &exemplars {
            let s = selector.select(f).unwrap();
            prop_assert_eq!(s.expert, *id);
            prop_assert!(s.distance >= 0.0);
            prop_assert!(s.distance < 1e-6);
        }
    }
}
