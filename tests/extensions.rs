//! Integration tests for the paper's extension point (§1), registering
//! new experts without retraining, and for the windowed resource monitor
//! (§4.2).

use mlkit::regression::{CurveFamily, FittedCurve};
use moe_core::calibration::CalibratedModel;
use moe_core::expert::{ExpertId, MemoryExpert};
use moe_core::features::FeatureVector;
use moe_core::predictor::{MoePredictor, PredictorConfig, TrainingProgram};
use moe_core::registry::ExpertRegistry;
use moe_core::MoeError;
use std::sync::Arc;

/// A quadratic expert, `y = m·x² + b` (calibrated exactly on two points).
#[derive(Debug)]
struct QuadraticExpert;

impl MemoryExpert for QuadraticExpert {
    fn name(&self) -> &str {
        "Quadratic Regression"
    }
    fn formula(&self) -> &str {
        "y = m*x^2 + b"
    }
    fn fit(&self, xs: &[f64], ys: &[f64]) -> Result<CalibratedModel, MoeError> {
        let sq: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let lin = mlkit::regression::fit_linear(&sq, ys)
            .map_err(|e| MoeError::InvalidTraining(e.to_string()))?;
        Ok(CalibratedModel::from_curve(FittedCurve {
            family: CurveFamily::Linear,
            m: lin.m,
            b: lin.b,
        }))
    }
    fn calibrate(&self, p1: (f64, f64), p2: (f64, f64)) -> Result<CalibratedModel, MoeError> {
        self.fit(&[p1.0, p2.0], &[p1.1, p2.1])
    }
}

fn cluster_features(cluster: usize, jitter: f64) -> FeatureVector {
    FeatureVector::from_fn(|i| {
        if i / 8 == cluster.min(2) {
            0.9 + jitter
        } else {
            0.1 + jitter
        }
    })
}

fn base_predictor() -> MoePredictor {
    let registry = ExpertRegistry::builtin();
    let mut programs = Vec::new();
    for c in 0..3 {
        for j in 0..3 {
            programs.push(TrainingProgram::new(
                format!("app-{c}-{j}"),
                cluster_features(c, j as f64 * 0.01),
                ExpertId::from_usize(c),
            ));
        }
    }
    MoePredictor::train(registry, &programs, PredictorConfig::default()).unwrap()
}

#[test]
fn fourth_expert_joins_without_retraining_and_wins_only_where_it_should() {
    let mut predictor = base_predictor();
    let exemplars_before = predictor.selector().exemplars();

    // A distinctive signature for the new family.
    let quad_features = FeatureVector::from_fn(|i| if i % 2 == 0 { 0.95 } else { 0.55 });
    let quad_id = predictor
        .extend(Arc::new(QuadraticExpert), &quad_features)
        .unwrap();
    assert_eq!(predictor.registry().len(), 4);
    assert_eq!(predictor.selector().exemplars(), exemplars_before + 1);

    // Old applications still map to the old experts...
    for c in 0..3 {
        let sel = predictor.select(&cluster_features(c, 0.005)).unwrap();
        assert_eq!(sel.expert, ExpertId::from_usize(c));
    }
    // ...and the new family maps to the new expert.
    let sel = predictor.select(&quad_features).unwrap();
    assert_eq!(sel.expert, quad_id);

    // End to end: calibrate the quadratic y = 0.01·x² + 2 from two points
    // and check interpolation at the linear-carrier level.
    let truth = |x: f64| 0.01 * x * x + 2.0;
    let model = predictor
        .calibrate(quad_id, (10.0, truth(10.0)), (20.0, truth(20.0)))
        .unwrap();
    let predicted = model.curve().m * 30.0f64.powi(2) + model.curve().b;
    assert!((predicted - truth(30.0)).abs() < 1e-9);
}

#[test]
fn monitor_smooths_bursts_for_the_dispatcher() {
    use sparklite::app::AppSpec;
    use sparklite::cluster::ClusterSpec;
    use sparklite::engine::ClusterEngine;
    use sparklite::monitor::{MonitorConfig, ResourceMonitor};
    use sparklite::perf::InterferenceModel;

    let mut engine = ClusterEngine::new(ClusterSpec::small(1), InterferenceModel::default());
    let node = engine.cluster().node_ids()[0];
    let mut monitor = ResourceMonitor::new(1, MonitorConfig::default());

    // A burst of load, then quiet.
    let app = engine.submit(AppSpec {
        name: "burst".into(),
        input_gb: 3.0,
        rate_gb_per_s: 0.01,
        cpu_util: 0.8,
        memory_curve: FittedCurve {
            family: CurveFamily::Linear,
            m: 0.5,
            b: 1.0,
        },
        footprint_noise_sd: 0.0,
    });
    let exec = engine.spawn_executor(app, node, 3.0, 3.0).unwrap().unwrap();
    for t in [0.0, 30.0, 60.0, 90.0] {
        monitor.observe(&engine, t);
    }
    engine.advance(300.0);
    engine.complete_executor(exec).unwrap();

    // Instantaneous load is zero; the windowed view still remembers the
    // burst until it ages out.
    assert_eq!(engine.node_cpu_load(node), 0.0);
    monitor.observe(&engine, 120.0);
    assert!(monitor.windowed_cpu(node) > 0.5);
    monitor.observe(&engine, 500.0);
    assert!(
        monitor.windowed_cpu(node) < 0.1,
        "burst aged out of the window"
    );
}
