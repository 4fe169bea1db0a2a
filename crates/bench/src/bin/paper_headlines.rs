//! The §6.1 "Highlights" block in one run: every headline claim of the
//! paper, measured, with its paper value alongside. Writes CSV series when
//! `SPARK_MOE_CSV_DIR` is set.

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
        PolicyKind::OnlineSearch,
        PolicyKind::Quasar,
        PolicyKind::Moe,
        PolicyKind::Oracle,
    ];

    println!("Measuring §6.1 highlights over {mixes} mixes/scenario ...");
    if mixes < 5 {
        println!("(fewer than 5 mixes/scenario: expect wide variance, especially on ANTT)");
    }
    println!();
    let mut stp: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut antt: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut table = CsvTable::new(["scenario", "policy", "stp_mean", "antt_reduction_pct"]);
    for scenario in MixScenario::TABLE3 {
        let stats = evaluate_scenario_multi(&policies, scenario, catalog, &config, mixes, 61)
            .expect("campaign");
        for (pi, s) in stats.per_policy.iter().enumerate() {
            stp[pi].push(s.stp_mean);
            antt[pi].push(s.antt_mean);
            table.push([
                scenario.name(),
                policies[pi].display_name().to_string(),
                num(s.stp_mean),
                num(s.antt_mean),
            ]);
        }
    }
    let geo = |pi: usize| geometric_mean(&stp[pi]);
    let mean = |pi: usize| antt[pi].iter().sum::<f64>() / antt[pi].len() as f64;
    let (pw, online, quasar, ours, oracle) = (0, 1, 2, 3, 4);

    println!("paper §6.1 highlight                            paper    measured");
    bench_suite::rule(72);
    println!(
        "ours STP over isolated (geomean)                8.69x    {:.2}x",
        geo(ours)
    );
    println!(
        "ours ANTT reduction (mean)                      49 %     {:.1} %",
        mean(ours)
    );
    println!(
        "ours vs Quasar STP                              1.28x    {:.2}x",
        geo(ours) / geo(quasar)
    );
    println!(
        "ours vs Quasar ANTT                             1.68x    {:.2}x",
        mean(ours) / mean(quasar)
    );
    println!(
        "ours / Oracle STP                               83.9 %   {:.1} %",
        geo(ours) / geo(oracle) * 100.0
    );
    println!(
        "ours / Oracle ANTT                              93.4 %   {:.1} %",
        mean(ours) / mean(oracle) * 100.0
    );
    println!(
        "ours vs Pairwise STP (L8-L10)                   1.72x    {:.2}x",
        stp[ours][7..].iter().sum::<f64>() / stp[pw][7..].iter().sum::<f64>()
    );
    println!(
        "ours vs Online Search STP                       2.4x     {:.2}x",
        geo(ours) / geo(online)
    );

    if let Some(dir) = csv_dir() {
        let path = table.write_to(&dir, "paper_headlines").expect("CSV write");
        println!("\nCSV series written to {}", path.display());
    }
}
