//! Fig. 10: our approach vs online descent search for the right input size
//! under a memory budget. The paper measures 2.4× better STP and 2.6×
//! better ANTT for our approach — the search overhead dominates and grows
//! with cluster size.

use colocate::harness::evaluate_scenario_multi;
use colocate::scheduler::PolicyKind;
use simkit::stats::summary::geometric_mean;
use workloads::MixScenario;

fn main() {
    let catalog = bench_suite::catalog();
    let config = bench_suite::paper_run_config();
    let mixes = bench_suite::mixes_per_scenario();
    let policies = [PolicyKind::OnlineSearch, PolicyKind::Moe];

    println!("Fig. 10: online search vs our approach ({mixes} mixes/scenario)");
    println!(
        "{:<5} {:>14} {:>14}   {:>14} {:>14}",
        "", "search STP", "ours STP", "search ANTTred", "ours ANTTred"
    );
    let mut all = Vec::new();
    for scenario in MixScenario::TABLE3 {
        let stats = evaluate_scenario_multi(&policies, scenario, catalog, &config, mixes, 10)
            .expect("campaign");
        println!(
            "{:<5} {:>14.2} {:>14.2}   {:>13.1}% {:>13.1}%",
            stats.scenario.name(),
            stats.per_policy[0].stp_mean,
            stats.per_policy[1].stp_mean,
            stats.per_policy[0].antt_mean,
            stats.per_policy[1].antt_mean,
        );
        all.push(stats);
    }
    bench_suite::rule(70);
    let geo = |pi: usize| {
        geometric_mean(
            &all.iter()
                .map(|s| s.per_policy[pi].stp_mean)
                .collect::<Vec<_>>(),
        )
    };
    let antt =
        |pi: usize| all.iter().map(|s| s.per_policy[pi].antt_mean).sum::<f64>() / all.len() as f64;
    println!(
        "ours vs online search — STP {:.1}x (paper 2.4x), ANTT reduction {:.1}x (paper 2.6x)",
        geo(1) / geo(0),
        antt(1) / antt(0).max(1e-9),
    );
}
