//! Co-location interference studies (Figs. 14 and 15).
//!
//! Fig. 14: each of the 16 training benchmarks (~280 GB input) is launched
//! on a single host, then a competing Spark workload is co-located into
//! the spare memory under our scheme; the target's slowdown against its
//! isolated single-host run is reported (< 25 %, median < 10 %).
//!
//! Fig. 15: the same experiment with a computation-intensive PARSEC
//! benchmark as the co-location victim (< 30 % slowdown).

use crate::profiling::FOOTPRINT_NOISE_SD;
use crate::scheduler::{
    run_schedule_custom, PolicyKind, SchedulerConfig, EXECUTOR_STARTUP_SECS, MIN_SLICE_GB,
};
use crate::training::TrainedSystem;
use crate::ColocateError;
use sparklite::app::AppId;
use sparklite::cluster::ClusterSpec;
use sparklite::engine::ClusterEngine;
use sparklite::perf::InterferenceModel;
use workloads::catalog::Catalog;
use workloads::parsec::ParsecBenchmark;

/// Input size used for the interference studies (the paper uses ~280 GB,
/// scaled by the executor-slice logic onto one host).
pub const INTERFERENCE_INPUT_GB: f64 = 280.0;

/// Slowdown (%) of `target` when co-located with `other` on a single host
/// under the given policy, versus running alone on that host.
///
/// # Errors
///
/// Propagates scheduler failures.
pub fn spark_pair_slowdown(
    catalog: &Catalog,
    target: usize,
    other: usize,
    system: &TrainedSystem,
    config: &SchedulerConfig,
    seed: u64,
) -> Result<f64, ColocateError> {
    // Target alone on the host (the baseline of Fig. 14).
    let single_host = SchedulerConfig {
        cluster: ClusterSpec::small(1),
        ..config.clone()
    };
    let solo = run_schedule_custom(
        PolicyKind::Isolated,
        catalog,
        &[(target, INTERFERENCE_INPUT_GB)],
        None,
        &single_host,
        seed,
    )?;

    // Paired run with the paper's explicit ordering: the target is
    // launched first and holds its memory; the competitor is then
    // co-located into the *spare* memory using the trained predictor.
    let mut engine =
        ClusterEngine::with_seed(ClusterSpec::small(1), InterferenceModel::default(), seed);
    engine.set_executor_startup_secs(EXECUTOR_STARTUP_SECS);
    let node = engine.cluster().node_ids()[0];

    let target_bench = &catalog.all()[target];
    let target_app =
        engine.submit(target_bench.app_spec(INTERFERENCE_INPUT_GB, FOOTPRINT_NOISE_SD));
    // The target processes its input in waves sized to roughly 60 % of the
    // host's RAM — it was launched first and owns most of the memory.
    let ram = engine.cluster().node(node).spec().ram_gb;
    let target_wave = moe_core::calibration::CalibratedModel::from_curve(target_bench.curve())
        .max_input_for_budget(ram * 0.6)
        .unwrap_or(INTERFERENCE_INPUT_GB)
        .min(INTERFERENCE_INPUT_GB);
    let target_fp = target_bench.true_footprint_gb(target_wave);
    engine
        .spawn_executor(target_app, node, target_wave, target_fp.min(ram * 0.65))
        .map_err(ColocateError::from)?;

    // Profile the competitor and size its slice for the spare memory with
    // our scheme's prediction.
    let other_bench = &catalog.all()[other];
    let mut rng = simkit::SimRng::seed_from(seed ^ 0xFE14);
    let (profile, _) = crate::profiling::profile_app(
        other_bench,
        INTERFERENCE_INPUT_GB,
        1,
        config.cluster.node.ram_gb,
        &config.profiling,
        &mut rng,
    );
    use crate::predictors::MemoryPredictor as _;
    let prediction = crate::predictors::MoePolicy::new(system.clone())
        .predict(&profile)
        .map_err(|e| ColocateError::Config(format!("prediction failed: {e}")))?;
    let margin = config.reserve_margin.max(1.0);
    let other_app = engine.submit(other_bench.app_spec(INTERFERENCE_INPUT_GB, FOOTPRINT_NOISE_SD));

    let elapsed = run_until_finished(&mut engine, target_app, |engine| {
        // Keep the target's wave executor running until its input drains.
        if engine.app(target_app).live_executors() == 0
            && !engine.app(target_app).is_finished()
            && engine.app(target_app).unassigned_gb() > 0.0
        {
            engine
                .spawn_executor(target_app, node, target_wave, target_fp.min(ram * 0.65))
                .map_err(ColocateError::from)?;
        }
        // Keep the competitor occupying the spare memory while the target
        // runs, respawning as its slices finish.
        if engine.app(other_app).live_executors() == 0
            && !engine.app(other_app).is_finished()
            && engine.app(other_app).unassigned_gb() > 0.0
        {
            let free = engine.node_free_memory(node);
            if let Some(x) = prediction.model.max_input_for_budget(free / margin) {
                let slice = x
                    .min(engine.app(other_app).unassigned_gb())
                    .min(INTERFERENCE_INPUT_GB / 4.0);
                if slice > MIN_SLICE_GB {
                    let reserve = (prediction.model.footprint_gb(slice) * margin).min(free);
                    engine
                        .spawn_executor(other_app, node, slice, reserve)
                        .map_err(ColocateError::from)?;
                }
            }
        }
        Ok(())
    })?;
    Ok(((elapsed / solo.makespan_secs) - 1.0).max(0.0) * 100.0)
}

/// Steps `engine` from completion to completion, calling `top_up` before
/// each step, until `target` finishes; returns the simulated time taken.
fn run_until_finished(
    engine: &mut ClusterEngine,
    target: AppId,
    mut top_up: impl FnMut(&mut ClusterEngine) -> Result<(), ColocateError>,
) -> Result<f64, ColocateError> {
    let mut elapsed = 0.0;
    loop {
        top_up(engine)?;
        let Some((dt, who)) = engine.next_completion() else {
            return Err(ColocateError::Config("no executors running".into()));
        };
        engine.advance(dt);
        elapsed += dt;
        let done_app = engine.executor(who).map(|e| e.app()).ok();
        engine.complete_executor(who).map_err(ColocateError::from)?;
        if done_app == Some(target) && engine.app(target).is_finished() {
            return Ok(elapsed);
        }
    }
}

/// Slowdown (%) of a PARSEC benchmark co-located with one Spark benchmark
/// on a single host under our scheme, versus running alone.
///
/// The PARSEC program is CPU-bound with a fixed working set; the Spark
/// executor is placed into the host's spare memory with the CPU guard
/// active, so the PARSEC slowdown comes from sub-saturation interference
/// and any CPU oversubscription.
///
/// # Errors
///
/// Propagates substrate failures.
pub fn parsec_slowdown(
    catalog: &Catalog,
    parsec: &ParsecBenchmark,
    spark_bench: usize,
    seed: u64,
) -> Result<f64, ColocateError> {
    let mut engine =
        ClusterEngine::with_seed(ClusterSpec::small(1), InterferenceModel::default(), seed);
    let node = engine.cluster().node_ids()[0];

    // PARSEC running natively on the host.
    let parsec_app = engine.submit(parsec.app_spec());
    engine
        .spawn_executor(parsec_app, node, 1.0, parsec.memory_gb())
        .map_err(ColocateError::from)?
        .ok_or_else(|| ColocateError::Config("parsec app had no work".into()))?;

    // One Spark executor co-located into the spare memory. Slice sized for
    // the spare budget via the ground-truth curve (our scheme's prediction
    // is within a few percent of this; the Fig. 15 measurement is about
    // interference, not prediction error).
    let bench = &catalog.all()[spark_bench];
    // §4.3: the runtime re-balances executor threads to evenly distribute
    // cores, so the co-located Spark executor's CPU demand is capped to
    // the host's remaining headroom (plus a small scheduling overlap).
    let mut spec = bench.app_spec(INTERFERENCE_INPUT_GB, 0.0);
    spec.cpu_util = spec.cpu_util.min((1.05 - parsec.cpu_util()).max(0.05));
    let spark = engine.submit(spec);
    let free = engine.node_free_memory(node);
    let slice = moe_core::calibration::CalibratedModel::from_curve(bench.curve())
        .max_input_for_budget(free * 0.9)
        .unwrap_or(1.0)
        .min(INTERFERENCE_INPUT_GB);
    let reserve = bench.true_footprint_gb(slice).min(free);
    engine
        .spawn_executor(spark, node, slice, reserve)
        .map_err(ColocateError::from)?;

    // Run until the PARSEC executor finishes.
    let elapsed = run_until_finished(&mut engine, parsec_app, |_| Ok(()))?;
    Ok(((elapsed / parsec.solo_seconds()) - 1.0).max(0.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_system, TrainingConfig};
    use simkit::SimRng;
    use workloads::parsec::parsec_suite;

    #[test]
    fn spark_pair_slowdown_is_bounded() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(1);
        let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        let config = SchedulerConfig::default();
        let target = catalog.by_name("HB.Sort").unwrap().index();
        let other = catalog.by_name("HB.Kmeans").unwrap().index();
        let s = spark_pair_slowdown(&catalog, target, other, &system, &config, 1).unwrap();
        assert!((0.0..=30.0).contains(&s), "slowdown {s}%");
    }

    #[test]
    fn parsec_slowdown_is_under_thirty_percent() {
        let catalog = Catalog::paper();
        let parsec = &parsec_suite()[0];
        let spark = catalog.by_name("HB.Aggregation").unwrap().index();
        let s = parsec_slowdown(&catalog, parsec, spark, 3).unwrap();
        assert!((0.0..=30.0).contains(&s), "slowdown {s}%");
    }

    #[test]
    fn heavier_co_runners_interfere_more() {
        let catalog = Catalog::paper();
        let parsec = &parsec_suite()[9]; // swaptions: 92 % CPU
        let light = catalog.by_name("HB.Scan").unwrap().index(); // 8 % CPU
        let heavy = catalog.by_name("SB.DecisionTree").unwrap().index(); // 58 %
        let s_light = parsec_slowdown(&catalog, parsec, light, 4).unwrap();
        let s_heavy = parsec_slowdown(&catalog, parsec, heavy, 4).unwrap();
        assert!(
            s_heavy >= s_light,
            "heavy {s_heavy}% should exceed light {s_light}%"
        );
    }
}
