//! Integration tests for the offline-training → runtime-prediction
//! pipeline across mlkit, moe-core, workloads and colocate.

use colocate::harness::{trained_system_for, RunConfig};
use colocate::predictors::{MemoryPredictor, MoePolicy, Oracle, QuasarPredictor};
use colocate::profiling::{profile_app, ProfilingConfig};
use colocate::scheduler::{run_schedule_custom, PolicyKind};
use colocate::service::{run_service, AdmissionConfig, ServiceConfig};
use colocate::training::{family_expert_id, train_loocv, train_system, TrainingConfig};
use simkit::arrivals::ArrivalPlan;
use simkit::SimRng;
use workloads::{signatures, Catalog, Suite};

#[test]
fn expert_selection_generalizes_to_unseen_suites() {
    // The paper trains on HiBench + BigDataBench and deploys on Spark-Perf
    // and Spark-Bench (§5.2). The selector must transfer.
    let catalog = Catalog::paper();
    let mut rng = SimRng::seed_from(1);
    let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
    let mut hits = 0;
    let mut total = 0;
    for bench in catalog.all() {
        if matches!(bench.suite(), Suite::SparkPerf | Suite::SparkBench) {
            for _ in 0..4 {
                let features = signatures::observe_default(bench, &mut rng);
                let sel = system.predictor.select(&features).unwrap();
                total += 1;
                if sel.expert == family_expert_id(bench.family()) {
                    hits += 1;
                }
            }
        }
    }
    let accuracy = f64::from(hits) / f64::from(total);
    assert!(
        accuracy > 0.9,
        "selector transfer accuracy {accuracy:.2} ({hits}/{total})"
    );
}

#[test]
fn loocv_footprint_error_is_paper_scale() {
    // Fig. 17: average |error| around 5 %, most benchmarks under 5 %.
    let catalog = Catalog::paper();
    let config = TrainingConfig::default();
    let profiling = ProfilingConfig::default();
    let mut rng = SimRng::seed_from(2);
    let mut errors = Vec::new();
    for bench in catalog.training_set() {
        let system = train_loocv(&catalog, bench, &config, &mut rng).unwrap();
        let moe = MoePolicy::new(system);
        let (profile, _) = profile_app(bench, 280.0, 40, 64.0, &profiling, &mut rng);
        let prediction = moe.predict(&profile).unwrap();
        let slice = profile.expected_slice_gb;
        let truth = bench.true_footprint_gb(slice);
        errors.push((prediction.model.footprint_gb(slice) - truth).abs() / truth);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    assert!(mean < 0.10, "mean |error| {:.1} %", mean * 100.0);
    let under_12 = errors.iter().filter(|e| **e < 0.12).count();
    assert!(under_12 >= 14, "{under_12}/16 under 12 %");
}

#[test]
fn moe_beats_quasar_on_prediction_accuracy() {
    // §6.2 attributes the end-to-end gap to prediction quality: per-app
    // calibration must beat nearest-historical-curve transfer on average.
    let catalog = Catalog::paper();
    let mut rng = SimRng::seed_from(3);
    let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
    let moe = MoePolicy::new(system.clone());
    let quasar = QuasarPredictor::new(&system).unwrap();
    let profiling = ProfilingConfig::default();

    let mut moe_err = 0.0;
    let mut quasar_err = 0.0;
    let mut n = 0.0;
    for bench in catalog.all() {
        if !matches!(bench.suite(), Suite::SparkPerf | Suite::SparkBench) {
            continue;
        }
        let (profile, _) = profile_app(bench, 30.0, 40, 64.0, &profiling, &mut rng);
        let slice = profile.expected_slice_gb;
        let truth = bench.true_footprint_gb(slice);
        let m = moe.predict(&profile).unwrap().model.footprint_gb(slice);
        let q = quasar.predict(&profile).unwrap().model.footprint_gb(slice);
        moe_err += ((m - truth) / truth).abs();
        quasar_err += ((q - truth) / truth).abs();
        n += 1.0;
    }
    moe_err /= n;
    quasar_err /= n;
    assert!(
        moe_err < quasar_err,
        "moe {:.1} % vs quasar {:.1} %",
        moe_err * 100.0,
        quasar_err * 100.0
    );
    assert!(moe_err < 0.15, "moe error {:.1} %", moe_err * 100.0);
}

#[test]
fn oracle_predictions_are_exact() {
    let catalog = Catalog::paper();
    let oracle = Oracle::new(&catalog);
    let mut rng = SimRng::seed_from(4);
    for bench in catalog.all().iter().take(10) {
        let (profile, _) =
            profile_app(bench, 30.0, 40, 64.0, &ProfilingConfig::default(), &mut rng);
        let pred = oracle.predict(&profile).unwrap();
        for x in [0.5, 5.0, 20.0] {
            assert_eq!(pred.model.footprint_gb(x), bench.true_footprint_gb(x));
        }
    }
}

#[test]
fn low_confidence_flag_fires_for_alien_applications() {
    // §6.9: an application far from every training program must be
    // flagged so the runtime can fall back to a conservative policy.
    let catalog = Catalog::paper();
    let mut rng = SimRng::seed_from(5);
    let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
    let alien = moe_core::features::FeatureVector::from_fn(|i| if i % 2 == 0 { 1e6 } else { -1e6 });
    let sel = system.predictor.select(&alien).unwrap();
    assert!(sel.low_confidence, "distance {}", sel.distance);
}

#[test]
fn moe_schedules_and_services_memoise_no_selections() {
    // Each profiled application selects its expert once, so the MoE asks
    // the selector directly: neither loop leaves anything in the system's
    // selection memo.
    let catalog = Catalog::paper();
    let config = RunConfig::default();
    let jobs: Vec<(usize, f64)> = ["HB.Sort", "SB.TriangleCount", "HB.PageRank", "HB.Sort"]
        .iter()
        .map(|n| (catalog.by_name(n).unwrap().index(), 30.0))
        .collect();
    let system = trained_system_for(PolicyKind::Moe, &catalog, &config, 6)
        .unwrap()
        .unwrap();

    let closed = run_schedule_custom(
        PolicyKind::Moe,
        &catalog,
        &jobs,
        Some(&system),
        &config.scheduler,
        6,
    )
    .unwrap();
    assert_eq!(closed.per_app.len(), jobs.len());

    let plan = ArrivalPlan::batch(&(0..jobs.len()).map(|i| (0, i)).collect::<Vec<_>>());
    let service = ServiceConfig {
        scheduler: config.scheduler.clone(),
        admission: AdmissionConfig::default(),
        tenant_weights: Vec::new(),
        job_classes: jobs.clone(),
    };
    let open = run_service(
        PolicyKind::Moe,
        &catalog,
        &plan,
        Some(&system),
        &service,
        6,
        None,
    )
    .unwrap();
    assert_eq!(open.jobs.len(), jobs.len());

    let memo = &system.selections;
    assert_eq!((memo.len(), memo.hits(), memo.misses()), (0, 0, 0));
}
