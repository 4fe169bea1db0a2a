//! Fig. 19 (extension): throughput under injected faults — STP and ANTT
//! for the self-healing MoE scheduler vs plain MoE, Pairwise and Oracle
//! as the fault intensity rises.
//!
//! Every entry replays the *same* mixes against the *same* seeded
//! [`FaultPlan`](simkit::faults::FaultPlan) per mix (node crashes,
//! executor crash-restarts, monitor dropouts, prediction noise), so the
//! curves differ only in scheduling policy and recovery behaviour.
//! Intensity 0 injects nothing and reproduces the fault-free campaign bit
//! for bit. Set `SPARK_MOE_MIXES` to raise the per-intensity mix count.

use bench_suite::csv::{csv_dir, num, CsvTable};
use colocate::harness::{evaluate_chaos, ChaosEntry, ChaosSpec, ChaosStats};
use colocate::scheduler::{PolicyKind, ResilienceConfig};
use workloads::MixScenario;

const INTENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

fn entries() -> Vec<ChaosEntry> {
    vec![
        ChaosEntry {
            label: "Ours (self-healing)",
            policy: PolicyKind::Moe,
            resilience: ResilienceConfig::self_healing(),
        },
        ChaosEntry {
            label: "Ours (plain)",
            policy: PolicyKind::Moe,
            resilience: ResilienceConfig::default(),
        },
        ChaosEntry {
            label: "Pairwise",
            policy: PolicyKind::Pairwise,
            resilience: ResilienceConfig::default(),
        },
        ChaosEntry {
            label: "Oracle",
            policy: PolicyKind::Oracle,
            resilience: ResilienceConfig::default(),
        },
    ]
}

fn main() {
    let catalog = bench_suite::catalog();
    let config = bench_suite::paper_run_config();
    let mixes = bench_suite::mixes_per_scenario();
    let scenario = MixScenario::TABLE3[3]; // L4: 9 applications
    let entries = entries();

    println!(
        "Fig. 19: fault tolerance on {} ({} apps), {mixes} shared mixes per intensity",
        scenario.name(),
        scenario.apps
    );

    let mut all_stats: Vec<ChaosStats> = Vec::new();
    for intensity in INTENSITIES {
        let chaos = ChaosSpec::at_intensity(intensity);
        let stats = evaluate_chaos(&entries, scenario, catalog, &config, mixes, 42, &chaos)
            .expect("chaos campaign");
        all_stats.push(stats);
    }

    println!("\n(a) normalized STP  —  mean [min, max]");
    print!("{:<10}", "intensity");
    for e in &entries {
        print!(" {:>20}", e.label);
    }
    println!();
    for stats in &all_stats {
        print!("{:<10.1}", stats.intensity);
        for s in &stats.per_entry {
            print!(
                " {:>6.2} {:>13}",
                s.stp_mean,
                bench_suite::whisker(s.stp_min_max)
            );
        }
        println!();
    }

    println!("\n(b) ANTT reduction (%)  —  higher is better");
    print!("{:<10}", "intensity");
    for e in &entries {
        print!(" {:>20}", e.label);
    }
    println!();
    for stats in &all_stats {
        print!("{:<10.1}", stats.intensity);
        for s in &stats.per_entry {
            print!(" {:>20.1}", s.antt_mean);
        }
        println!();
    }

    println!("\n(c) delivered faults and recovery actions (summed over mixes)");
    println!(
        "{:<10} {:<22} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>6} {:>6}",
        "intensity",
        "entry",
        "nodeX",
        "execX",
        "dropM",
        "noise",
        "requeGB",
        "retries",
        "quar",
        "fallbk"
    );
    for stats in &all_stats {
        for s in &stats.per_entry {
            let f = &s.faults;
            println!(
                "{:<10.1} {:<22} {:>6} {:>6} {:>6} {:>6} {:>8.1} {:>8} {:>6} {:>6}",
                stats.intensity,
                s.label,
                f.node_crashes,
                f.executor_crashes,
                f.monitor_dropouts,
                f.prediction_noise,
                f.slices_requeued_gb,
                f.retries,
                f.quarantines,
                f.isolated_fallbacks
            );
        }
    }

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new([
            "intensity",
            "entry",
            "stp_mean",
            "stp_min",
            "stp_max",
            "antt_reduction_pct",
            "oom_kills_mean",
            "retries",
            "quarantines",
            "isolated_fallbacks",
        ]);
        for stats in &all_stats {
            for s in &stats.per_entry {
                table.push([
                    num(stats.intensity),
                    s.label.to_string(),
                    num(s.stp_mean),
                    num(s.stp_min_max.0),
                    num(s.stp_min_max.1),
                    num(s.antt_mean),
                    num(s.oom_kills_mean),
                    s.faults.retries.to_string(),
                    s.faults.quarantines.to_string(),
                    s.faults.isolated_fallbacks.to_string(),
                ]);
            }
        }
        if let Ok(path) = table.write_to(&dir, "fig19_chaos") {
            println!("\nCSV series written to {}", path.display());
        }
        // Machine-readable record, written atomically (old file intact if
        // the process dies mid-emission). Deterministic byte-for-byte:
        // the pinned-figure check diffs this artifact.
        let json = bench_suite::report::chaos_stats_json(&all_stats);
        if let Ok(path) =
            bench_suite::fsutil::atomic_write_in(&dir, "BENCH_fig19_chaos.json", &json)
        {
            println!("JSON record written to {}", path.display());
        }
    }

    // Headline: what self-healing buys at the highest stress level.
    let last = all_stats.last().expect("at least one intensity");
    let healed = &last.per_entry[0];
    let plain = &last.per_entry[1];
    println!("\nHeadline at intensity {:.1}:", last.intensity);
    println!(
        "  self-healing vs plain MoE:  STP {:.2}x vs {:.2}x, ANTT reduction {:.1}% vs {:.1}%",
        healed.stp_mean, plain.stp_mean, healed.antt_mean, plain.antt_mean
    );
}
