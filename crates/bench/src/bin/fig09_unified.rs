//! Fig. 9: our mixture-of-experts vs unified single-model baselines —
//! one fixed regression family for every application (Linear, Exponential,
//! Napierian logarithmic) or one monolithic ANN. The paper finds the ANN
//! the best single model, with our approach ahead of all of them.

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
        PolicyKind::UnifiedLinear,
        PolicyKind::UnifiedExponential,
        PolicyKind::UnifiedLog,
        PolicyKind::UnifiedAnn,
        PolicyKind::Moe,
    ];
    let headers = ["Linear", "Expon.", "NapLog", "ANN", "Ours"];

    println!("Fig. 9 (a): normalized STP — unified models vs ours ({mixes} mixes/scenario)");
    print!("{:<5}", "");
    for h in headers {
        print!(" {h:>8}");
    }
    println!();
    let mut all = Vec::new();
    for scenario in MixScenario::TABLE3 {
        let stats = evaluate_scenario_multi(&policies, scenario, catalog, &config, mixes, 91)
            .expect("campaign");
        print!("{:<5}", scenario.name());
        for s in &stats.per_policy {
            print!(" {:>8.2}", s.stp_mean);
        }
        println!();
        all.push(stats);
    }
    bench_suite::rule(50);
    print!("geo  ");
    let mut geo = Vec::new();
    for pi in 0..policies.len() {
        let g = geometric_mean(
            &all.iter()
                .map(|s| s.per_policy[pi].stp_mean)
                .collect::<Vec<_>>(),
        );
        geo.push(g);
        print!(" {g:>8.2}");
    }
    println!();

    println!("\nFig. 9 (b): ANTT reduction (%)");
    print!("{:<5}", "");
    for h in headers {
        print!(" {h:>8}");
    }
    println!();
    for stats in &all {
        print!("{:<5}", stats.scenario.name());
        for s in &stats.per_policy {
            print!(" {:>8.1}", s.antt_mean);
        }
        println!();
    }
    bench_suite::rule(50);
    println!(
        "\npaper shape: ANN best among single models; ours above all. \
         measured: ours {:.2} vs best-unified {:.2}",
        geo[4],
        geo[..4].iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    );

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new(["scenario", "policy", "stp_mean", "antt_reduction_pct"]);
        for stats in &all {
            for (pi, s) in stats.per_policy.iter().enumerate() {
                table.push([
                    stats.scenario.name(),
                    headers[pi].to_string(),
                    num(s.stp_mean),
                    num(s.antt_mean),
                ]);
            }
        }
        if let Ok(path) = table.write_to(&dir, "fig09_unified") {
            println!("CSV series written to {}", path.display());
        }
    }
}
