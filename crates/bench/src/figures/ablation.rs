//! Design-choice ablations (DESIGN.md §6).

use super::Size;
use crate::mlcamp::CampaignError;
use colocate::harness::{evaluate_scenario_multi, run_policy, RunConfig};
use colocate::profiling::ProfilingConfig;
use colocate::scheduler::PolicyKind;
use colocate::training::{family_expert_id, train_system, TrainingConfig};
use moe_core::selector::SelectorConfig;
use simkit::SimRng;
use sparklite::cluster::ClusterSpec;
use sparklite::monitor::MonitorConfig;
use std::path::Path;
use workloads::{signatures, Catalog, MixScenario, Suite};

fn selector_accuracy(
    catalog: &Catalog,
    config: &TrainingConfig,
    seed: u64,
) -> Result<f64, CampaignError> {
    let mut rng = SimRng::seed_from(seed);
    let system = train_system(catalog, config, &mut rng)?;
    let mut hits = 0;
    let mut total = 0;
    for bench in catalog.all() {
        if matches!(bench.suite(), Suite::SparkPerf | Suite::SparkBench) {
            for _ in 0..4 {
                let features = signatures::observe_default(bench, &mut rng);
                let sel = system.predictor.select(&features)?;
                total += 1;
                if sel.expert == family_expert_id(bench.family()) {
                    hits += 1;
                }
            }
        }
    }
    Ok(f64::from(hits) / f64::from(total) * 100.0)
}

fn scenario_stp(config: &RunConfig, seed: u64) -> Result<(f64, usize), CampaignError> {
    let catalog = crate::catalog();
    let scenario = MixScenario::TABLE3[7]; // L8: 23 apps
    let stats = evaluate_scenario_multi(&[PolicyKind::Moe], scenario, catalog, config, 3, seed)?;
    // OOM kills from one representative mix.
    let mut rng = SimRng::seed_from(seed);
    let mix = scenario.random_mix(catalog, &mut rng);
    let out = run_policy(PolicyKind::Moe, catalog, &mix, config, seed)?;
    Ok((stats.per_policy[0].stp_mean, out.schedule.oom_kills))
}

/// Ablation study over the design choices DESIGN.md §6 calls out:
///
/// 1. KNN vote size `k`;
/// 2. number of principal components kept by the selector;
/// 3. calibration sample fractions (the paper's 5 %/10 % choice);
/// 4. the reservation margin (§6.9's over-provisioning suggestion);
/// 5. the CPU-contention guard (§4.3's "aggregate load ≤ 100 %");
/// 6. the resource-monitor window (§4.2's 5-minute choice).
///
/// Selector ablations report expert-selection accuracy on the 28 unseen
/// Spark-Perf/Spark-Bench benchmarks; runtime ablations report normalized
/// STP and OOM kills on an L8 (23-application) scenario.
pub fn ablation_sweep(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();

    println!("Ablation 1: KNN vote size (selector accuracy on unseen suites)");
    for k in [1usize, 3, 5, 7] {
        let mut config = TrainingConfig::default();
        config.predictor.selector = SelectorConfig {
            k,
            ..SelectorConfig::default()
        };
        println!(
            "  k = {k}: {:.1} %",
            selector_accuracy(catalog, &config, 100)?
        );
    }

    println!("\nAblation 2: principal components kept (selector accuracy)");
    for pcs in [2usize, 3, 5, 10, 22] {
        let mut config = TrainingConfig::default();
        config.predictor.selector = SelectorConfig {
            components: Some(pcs),
            ..SelectorConfig::default()
        };
        println!(
            "  PCs = {pcs:>2}: {:.1} %",
            selector_accuracy(catalog, &config, 101)?
        );
    }

    println!("\nAblation 3: calibration fractions (L8 STP, OOM kills)");
    for (f1, f2) in [(0.01, 0.02), (0.028, 0.055), (0.05, 0.10), (0.10, 0.20)] {
        let mut config = RunConfig::default();
        config.scheduler.profiling = ProfilingConfig {
            calib_fraction_1: f1,
            calib_fraction_2: f2,
        };
        let (stp, ooms) = scenario_stp(&config, 102)?;
        println!("  ({f1:.3}, {f2:.3}): STP {stp:.2}, OOMs {ooms}");
    }

    println!("\nAblation 4: reservation margin (L8 STP, OOM kills)");
    for margin in [1.0, 1.05, 1.2, 1.5] {
        let mut config = RunConfig::default();
        config.scheduler.reserve_margin = margin;
        let (stp, ooms) = scenario_stp(&config, 103)?;
        println!("  margin {margin:.2}: STP {stp:.2}, OOMs {ooms}");
    }

    println!("\nAblation 5: CPU-contention guard (L8 STP, OOM kills)");
    for cap in [0.8, 1.0, 1.3, 10.0] {
        let mut config = RunConfig::default();
        config.scheduler.cpu_cap = cap;
        let (stp, ooms) = scenario_stp(&config, 104)?;
        let label = if cap >= 10.0 {
            "off ".to_string()
        } else {
            format!("{cap:.1} ")
        };
        println!("  cap {label}: STP {stp:.2}, OOMs {ooms}");
    }

    println!("\nAblation 6: monitoring window (L8 STP)");
    for window in [30.0, 300.0, 900.0] {
        let mut config = RunConfig::default();
        config.scheduler.monitor = MonitorConfig {
            window_secs: window,
        };
        let (stp, _) = scenario_stp(&config, 105)?;
        println!("  window {window:>4.0} s: STP {stp:.2}");
    }

    println!("\nAblation 7: cluster size (ours vs online search, L6 STP)");
    println!("  §6.5: the search overhead is serialised on the coordinating node,");
    println!("  so its cost grows with the work the cluster could otherwise absorb.");
    for nodes in [10usize, 20, 40, 80] {
        let mut config = RunConfig::default();
        config.scheduler.cluster = ClusterSpec::small(nodes);
        let stats = evaluate_scenario_multi(
            &[PolicyKind::OnlineSearch, PolicyKind::Moe],
            MixScenario::TABLE3[5], // L6: 13 apps
            catalog,
            &config,
            3,
            106,
        )?;
        let online = stats.per_policy[0].stp_mean;
        let ours = stats.per_policy[1].stp_mean;
        println!(
            "  {nodes:>3} nodes: online {online:>6.2}, ours {ours:>6.2}  (ours/online {:.2}x)",
            ours / online
        );
    }

    println!("\n(The defaults — k = 1, 95 % variance PCs, 2.8 %/5.5 % calibration, 1.05");
    println!(" margin, 100 % CPU cap, 300 s window — sit at or near each knee.)");
    Ok(())
}
