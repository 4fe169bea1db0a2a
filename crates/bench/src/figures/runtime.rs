//! Runtime overheads and interference: Figs. 11, 12, 14 and 15.

use super::Size;
use crate::mlcamp::CampaignError;
use crate::rule;
use colocate::harness::{isolated_times, trained_system_for, RunConfig};
use colocate::interference::{parsec_slowdown, spark_pair_slowdown};
use colocate::metrics::{percentile, percentiles};
use colocate::scheduler::{run_schedule, run_schedule_custom, PolicyKind};
use colocate::training::TrainedSystem;
use simkit::SimRng;
use std::path::Path;
use workloads::parsec::parsec_suite;
use workloads::MixScenario;

/// The MoE system trained from `seed`, as each figure here uses it.
fn moe_system(config: &RunConfig, seed: u64) -> Result<TrainedSystem, CampaignError> {
    trained_system_for(PolicyKind::Moe, crate::catalog(), config, seed)?
        .ok_or_else(|| "moe needs a system".into())
}

/// Fig. 11: average time spent on feature extraction and model
/// calibration relative to total task execution time, per runtime
/// scenario L1..L10. The paper measures ~5 % (feature extraction) + ~8 %
/// (calibration), and stresses that profiling runs contribute to the
/// final output.
pub fn fig11_overhead(size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let mixes = size.mixes.min(5);
    let system = moe_system(&config, 11)?;

    println!("Fig. 11: profiling overhead per scenario (fractions of execution time)");
    println!(
        "{:<5} {:>14} {:>14} {:>16}",
        "", "feature (%)", "calibration (%)", "avg runtime (min)"
    );
    rule(56);
    let mut feat_all = 0.0;
    let mut calib_all = 0.0;
    for scenario in MixScenario::TABLE3 {
        let mut rng = SimRng::seed_from(1100 + scenario.label as u64);
        let mut feature = 0.0;
        let mut calibration = 0.0;
        let mut runtime = 0.0;
        for m in 0..mixes {
            let mix = scenario.random_mix(catalog, &mut rng);
            let outcome = run_schedule(
                PolicyKind::Moe,
                catalog,
                &mix,
                Some(&system),
                &config.scheduler,
                1100 + m as u64,
            )?;
            // Fractions of *execution* time (the per-app isolated work),
            // which is what Fig. 11 stacks — turnaround would double-count
            // queueing delay.
            let iso = isolated_times(catalog, &mix, &config.scheduler, 1100 + m as u64)?;
            let total_exec: f64 = iso.iter().sum();
            let f: f64 = outcome
                .per_app
                .iter()
                .map(|a| a.profiling.feature_secs)
                .sum();
            let c: f64 = outcome
                .per_app
                .iter()
                .map(|a| a.profiling.calibration_secs)
                .sum();
            feature += f / total_exec;
            calibration += c / total_exec;
            runtime += outcome.per_app.iter().map(|a| a.finished_at).sum::<f64>()
                / outcome.per_app.len() as f64;
        }
        let n = mixes as f64;
        println!(
            "{:<5} {:>14.1} {:>14.1} {:>16.1}",
            scenario.name(),
            feature / n * 100.0,
            calibration / n * 100.0,
            runtime / n / 60.0
        );
        feat_all += feature / n;
        calib_all += calibration / n;
    }
    rule(56);
    println!(
        "mean: feature {:.1} % (paper ~5 %), calibration {:.1} % (paper ~8 %)",
        feat_all / 10.0 * 100.0,
        calib_all / 10.0 * 100.0
    );
    println!("(profiled data contributes to the job's output: cycles are not wasted)");
    Ok(())
}

/// Fig. 12: per-benchmark profiling overhead for the 16 HiBench and
/// BigDataBench programs at ~280 GB input: feature-extraction time,
/// calibration time and total execution time.
pub fn fig12_overhead_apps(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    const INPUT_GB: f64 = 280.0;
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let system = moe_system(&config, 12)?;

    println!("Fig. 12: profiling vs total runtime per benchmark (~280 GB input)");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "feature (m)", "calib (m)", "total (m)", "overhead %"
    );
    rule(72);
    for bench in catalog.training_set() {
        let outcome = run_schedule_custom(
            PolicyKind::Moe,
            catalog,
            &[(bench.index(), INPUT_GB)],
            Some(&system),
            &config.scheduler,
            1200 + bench.index() as u64,
        )?;
        let app = &outcome.per_app[0];
        let total_min = app.finished_at / 60.0;
        let feat_min = app.profiling.feature_secs / 60.0;
        let calib_min = app.profiling.calibration_secs / 60.0;
        println!(
            "{:<20} {feat_min:>12.1} {calib_min:>12.1} {total_min:>12.1} {:>10.1}",
            bench.name(),
            (feat_min + calib_min) / total_min * 100.0
        );
    }
    rule(72);
    println!("(paper: total runtimes 10-45 min; profiling a small stacked sliver)");
    Ok(())
}

/// Fig. 14: slowdown distribution of each HiBench/BigDataBench benchmark
/// when co-located with every other benchmark on a single host under our
/// scheme (~280 GB target input). The paper's violins stay below 25 %
/// slowdown with medians under 10 %.
pub fn fig14_interference(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let system = moe_system(&config, 14)?;

    println!("Fig. 14: target slowdown (%) under co-location, one competitor at a time");
    println!(
        "{:<20} {:>8} {:>8} {:>8} {:>8}",
        "target", "median", "p75", "max", "min"
    );
    rule(56);
    let mut worst: f64 = 0.0;
    let mut medians = Vec::new();
    for target in catalog.training_set() {
        let mut slowdowns = Vec::new();
        for other in catalog.all() {
            if other.index() == target.index() {
                continue;
            }
            slowdowns.push(spark_pair_slowdown(
                catalog,
                target.index(),
                other.index(),
                &system,
                &config.scheduler,
                1400 + other.index() as u64,
            )?);
        }
        // One sort serves both quantiles (total_cmp: NaN-safe by
        // construction, though pair slowdowns are always finite).
        let quartiles = percentiles(&slowdowns, &[50.0, 75.0]);
        let med = quartiles[0];
        medians.push(med);
        let max = slowdowns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = slowdowns.iter().cloned().fold(f64::INFINITY, f64::min);
        worst = worst.max(max);
        println!(
            "{:<20} {med:>8.1} {:>8.1} {max:>8.1} {min:>8.1}",
            target.name(),
            quartiles[1]
        );
    }
    rule(56);
    let overall_median = percentile(&medians, 50.0);
    println!(
        "max slowdown {worst:.1} % (paper < 25 %), median of medians {overall_median:.1} % (paper < 10 %)"
    );
    Ok(())
}

/// Fig. 15: slowdown distribution of the 12 PARSEC benchmarks when a
/// Spark task is co-located on their host under our scheme. The paper
/// measures less than 30 % slowdown, mostly under 20 %.
pub fn fig15_parsec(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();

    println!("Fig. 15: PARSEC slowdown (%) with one co-located Spark task");
    println!(
        "{:<16} {:>8} {:>8} {:>8}",
        "benchmark", "median", "p75", "max"
    );
    rule(44);
    let mut worst: f64 = 0.0;
    for parsec in &parsec_suite() {
        let mut slowdowns = Vec::new();
        for spark in catalog.all() {
            slowdowns.push(parsec_slowdown(
                catalog,
                parsec,
                spark.index(),
                1500 + spark.index() as u64,
            )?);
        }
        let max = slowdowns.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        worst = worst.max(max);
        let quartiles = percentiles(&slowdowns, &[50.0, 75.0]);
        println!(
            "{:<16} {:>8.1} {:>8.1} {max:>8.1}",
            parsec.name(),
            quartiles[0],
            quartiles[1]
        );
    }
    rule(44);
    println!("worst PARSEC slowdown {worst:.1} % (paper < 30 %, mostly < 20 %)");
    Ok(())
}
