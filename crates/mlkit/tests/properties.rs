//! Property-based tests for mlkit invariants.

use mlkit::knn::KnnClassifier;
use mlkit::pca::Pca;
use mlkit::regression::{evaluate, fit_family, solve_two_point, CurveFamily, FittedCurve};
use mlkit::scaling::MinMaxScaler;
use mlkit::Classifier;
use proptest::prelude::*;

proptest! {
    /// Min-max scaling always lands in [0, 1] and inverse-transform
    /// round-trips in-range values.
    #[test]
    fn scaler_bounds_and_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 3), 2..50),
        probe_idx in 0usize..50,
    ) {
        let scaler = MinMaxScaler::fit(&rows).unwrap();
        for row in &rows {
            let z = scaler.transform(row).unwrap();
            prop_assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        let probe = &rows[probe_idx % rows.len()];
        let z = scaler.transform(probe).unwrap();
        let back = scaler.inverse_transform(&z).unwrap();
        for (a, b) in probe.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    /// Full-rank PCA is a lossless change of basis.
    #[test]
    fn full_rank_pca_is_lossless(
        rows in proptest::collection::vec(
            proptest::collection::vec(-100f64..100.0, 3), 4..30),
    ) {
        let pca = Pca::fit(&rows, 3).unwrap();
        for row in &rows {
            let z = pca.transform(row).unwrap();
            let back = pca.inverse_transform(&z).unwrap();
            for (a, b) in row.iter().zip(back.iter()) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }

    /// Explained-variance ratios are non-negative, descending and ≤ 1.
    #[test]
    fn pca_variance_ratios_well_formed(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10f64..10.0, 4), 5..40),
    ) {
        let pca = Pca::fit(&rows, 4).unwrap();
        let ratios = pca.explained_variance_ratio();
        let sum: f64 = ratios.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9);
        for w in ratios.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(ratios.iter().all(|&r| r >= -1e-12));
    }

    /// KNN with k = 1 always classifies its own training points correctly
    /// (when exemplars are distinct).
    #[test]
    fn knn_memorises_training_set(
        points in proptest::collection::hash_set((-1000i32..1000, -1000i32..1000), 2..40),
    ) {
        let xs: Vec<Vec<f64>> = points.iter()
            .map(|&(a, b)| vec![f64::from(a), f64::from(b)])
            .collect();
        let ys: Vec<usize> = (0..xs.len()).map(|i| i % 3).collect();
        let knn = KnnClassifier::fit(&xs, &ys, 1).unwrap();
        for (x, &y) in xs.iter().zip(ys.iter()) {
            prop_assert_eq!(knn.predict(x), y);
        }
    }

    /// Two-point calibration exactly reproduces noise-free curves at the
    /// calibration points and closely everywhere else.
    #[test]
    fn calibration_recovers_curves(
        m in 0.5f64..50.0,
        b in 0.1f64..8.0,
        family_idx in 0usize..3,
        x1 in 0.01f64..0.5,
    ) {
        let family = CurveFamily::ALL[family_idx];
        let truth = FittedCurve { family, m, b };
        let x2 = x1 * 2.0;
        let p1 = (x1, truth.eval(x1));
        let p2 = (x2, truth.eval(x2));
        let fitted = solve_two_point(family, p1, p2).unwrap();
        for probe in [x1 * 0.5, x1, x2, x2 * 4.0, x2 * 32.0] {
            let want = truth.eval(probe);
            let got = fitted.eval(probe);
            prop_assert!(
                (want - got).abs() <= 1e-4 * (1.0 + want.abs()),
                "family {:?}: want {} got {} at x={}", family, want, got, probe
            );
        }
    }

    /// Least-squares fitting of a noise-free curve of the same family
    /// yields near-zero residuals.
    #[test]
    fn fit_family_interpolates_noise_free_data(
        m in 0.5f64..20.0,
        b in 0.2f64..4.0,
        family_idx in 0usize..3,
    ) {
        let family = CurveFamily::ALL[family_idx];
        let xs: Vec<f64> = (1..=25).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| evaluate(family, m, b, x)).collect();
        let fit = fit_family(family, &xs, &ys).unwrap();
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            prop_assert!((fit.eval(x) - y).abs() < 1e-2 * (1.0 + y.abs()));
        }
    }
}
