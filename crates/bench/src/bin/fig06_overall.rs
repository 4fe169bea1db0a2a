//! Fig. 6: normalized STP (a) and ANTT reduction (b) for Pairwise, Quasar,
//! Our Approach and Oracle across the Table 3 scenarios L1..L10.
//!
//! The paper's headline: our approach averages 8.69× STP and 49 % ANTT
//! reduction, 1.28×/1.68× better than Quasar, reaching 83.9 %/93.4 % of
//! the Oracle. Set `SPARK_MOE_MIXES` to raise the per-scenario mix count
//! toward the paper's ~100.

use bench_suite::csv::{csv_dir, num, CsvTable};
use colocate::harness::evaluate_scenario_multi;
use colocate::scheduler::PolicyKind;
use simkit::stats::summary::geometric_mean;
use workloads::MixScenario;

fn main() {
    let catalog = bench_suite::catalog();
    let config = bench_suite::paper_run_config();
    let mixes = bench_suite::mixes_per_scenario();
    let policies = [
        PolicyKind::Pairwise,
        PolicyKind::Quasar,
        PolicyKind::Moe,
        PolicyKind::Oracle,
    ];

    println!("Fig. 6 (a): normalized STP  —  mean [min, max] over {mixes} mixes/scenario");
    println!(
        "{:<5} {:>7}{:>17} {:>7}{:>17} {:>7}{:>17} {:>7}{:>17}",
        "", "Pairw", "", "Quasar", "", "Ours", "", "Oracle", ""
    );
    let mut all_stats = Vec::new();
    for scenario in MixScenario::TABLE3 {
        let stats = evaluate_scenario_multi(&policies, scenario, catalog, &config, mixes, 42)
            .expect("scenario campaign");
        print!("{:<5}", scenario.name());
        for s in &stats.per_policy {
            print!(
                " {:>6.2} {:>16}",
                s.stp_mean,
                bench_suite::whisker(s.stp_min_max)
            );
        }
        println!();
        all_stats.push(stats);
    }
    bench_suite::rule(100);
    print!("geo  ");
    let mut geo = Vec::new();
    for pi in 0..policies.len() {
        let means: Vec<f64> = all_stats
            .iter()
            .map(|s| s.per_policy[pi].stp_mean)
            .collect();
        let g = geometric_mean(&means);
        geo.push(g);
        print!(" {g:>6.2} {:>16}", "");
    }
    println!();

    println!("\nFig. 6 (b): ANTT reduction (%)");
    println!(
        "{:<5} {:>8} {:>8} {:>8} {:>8}",
        "", "Pairwise", "Quasar", "Ours", "Oracle"
    );
    for stats in &all_stats {
        print!("{:<5}", stats.scenario.name());
        for s in &stats.per_policy {
            print!(" {:>8.1}", s.antt_mean);
        }
        println!();
    }
    bench_suite::rule(44);
    print!("mean ");
    let mut antt_means = Vec::new();
    for pi in 0..policies.len() {
        let m: f64 = all_stats
            .iter()
            .map(|s| s.per_policy[pi].antt_mean)
            .sum::<f64>()
            / all_stats.len() as f64;
        antt_means.push(m);
        print!(" {m:>8.1}");
    }
    println!();

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new([
            "scenario",
            "policy",
            "stp_mean",
            "stp_min",
            "stp_max",
            "antt_reduction_pct",
        ]);
        for stats in &all_stats {
            for (pi, s) in stats.per_policy.iter().enumerate() {
                table.push([
                    stats.scenario.name(),
                    policies[pi].display_name().to_string(),
                    num(s.stp_mean),
                    num(s.stp_min_max.0),
                    num(s.stp_min_max.1),
                    num(s.antt_mean),
                ]);
            }
        }
        if let Ok(path) = table.write_to(&dir, "fig06_overall") {
            println!("\nCSV series written to {}", path.display());
        }
    }

    println!("\nHeadlines (paper → measured):");
    println!("  ours STP (geomean):          8.69x → {:.2}x", geo[2]);
    println!(
        "  ours vs Quasar STP:          1.28x → {:.2}x",
        geo[2] / geo[1]
    );
    println!(
        "  ours / Oracle STP:           83.9% → {:.1}%",
        geo[2] / geo[3] * 100.0
    );
    println!(
        "  ours ANTT reduction (mean):  49%   → {:.1}%",
        antt_means[2]
    );
    println!(
        "  ours / Oracle ANTT:          93.4% → {:.1}%",
        antt_means[2] / antt_means[3] * 100.0
    );
}
