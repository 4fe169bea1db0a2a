//! The Table 3 campaigns: Figs. 6, 9 and 10, the §6.1 highlights and the
//! §5.2 stopping rule.

use super::Size;
use crate::csv::{num, CsvTable};
use crate::mlcamp::CampaignError;
use crate::{rule, whisker};
use colocate::harness::{
    evaluate_scenario_multi, run_policy, MultiPolicyStats, RunConfig, ScenarioStats,
};
use colocate::scheduler::PolicyKind;
use simkit::stats::summary::geometric_mean;
use simkit::stats::Welford;
use simkit::SimRng;
use std::path::Path;
use workloads::MixScenario;

/// One Table 3 campaign: every scenario L1..L10 over the same policies,
/// with each policy's STP geomean and mean ANTT reduction across them.
struct Table3 {
    scenarios: Vec<MultiPolicyStats>,
    stp_geomean: Vec<f64>,
    antt_mean: Vec<f64>,
}

fn table3_campaign(
    policies: &[PolicyKind],
    mixes: usize,
    seed: u64,
) -> Result<Table3, CampaignError> {
    let config = RunConfig::default();
    let scenarios = MixScenario::TABLE3
        .into_iter()
        .map(|l| evaluate_scenario_multi(policies, l, crate::catalog(), &config, mixes, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut stp_geomean, mut antt_mean) = (Vec::new(), Vec::new());
    for pi in 0..policies.len() {
        let (stp, antt): (Vec<f64>, Vec<f64>) = scenarios
            .iter()
            .map(|s| (s.per_policy[pi].stp_mean, s.per_policy[pi].antt_mean))
            .unzip();
        stp_geomean.push(geometric_mean(&stp));
        antt_mean.push(antt.iter().sum::<f64>() / antt.len() as f64);
    }
    Ok(Table3 {
        scenarios,
        stp_geomean,
        antt_mean,
    })
}

/// Prints one column per policy under `headers` and one row per scenario,
/// each cell formatted by `cell`.
fn print_panel(run: &Table3, headers: &[&str], cell: fn(&ScenarioStats) -> String) {
    print!("{:<5}", "");
    for h in headers {
        print!(" {h:>8}");
    }
    println!();
    for stats in &run.scenarios {
        print!("{:<5}", stats.scenario.name());
        for s in &stats.per_policy {
            print!(" {}", cell(s));
        }
        println!();
    }
}

/// Fig. 6: normalized STP (a) and ANTT reduction (b) for Pairwise, Quasar,
/// Our Approach and Oracle across the Table 3 scenarios L1..L10.
///
/// The paper's headline: our approach averages 8.69× STP and 49 % ANTT
/// reduction, 1.28×/1.68× better than Quasar, reaching 83.9 %/93.4 % of
/// the Oracle.
pub fn fig06_overall(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    let mixes = size.mixes;
    let policies = [
        PolicyKind::Pairwise,
        PolicyKind::Quasar,
        PolicyKind::Moe,
        PolicyKind::Oracle,
    ];
    let run = table3_campaign(&policies, mixes, 42)?;

    println!("Fig. 6 (a): normalized STP  —  mean [min, max] over {mixes} mixes/scenario");
    println!(
        "{:<5} {:>7}{:>17} {:>7}{:>17} {:>7}{:>17} {:>7}{:>17}",
        "", "Pairw", "", "Quasar", "", "Ours", "", "Oracle", ""
    );
    for stats in &run.scenarios {
        print!("{:<5}", stats.scenario.name());
        for s in &stats.per_policy {
            print!(" {:>6.2} {:>16}", s.stp_mean, whisker(s.stp_min_max));
        }
        println!();
    }
    rule(100);
    print!("geo  ");
    for g in &run.stp_geomean {
        print!(" {g:>6.2} {:>16}", "");
    }
    println!();

    println!("\nFig. 6 (b): ANTT reduction (%)");
    let headers = ["Pairwise", "Quasar", "Ours", "Oracle"];
    print_panel(&run, &headers, |s| format!("{:>8.1}", s.antt_mean));
    rule(44);
    print!("mean ");
    for m in &run.antt_mean {
        print!(" {m:>8.1}");
    }
    println!();

    if let Some(dir) = records {
        let mut table =
            CsvTable::new("scenario,policy,stp_mean,stp_min,stp_max,antt_reduction_pct".split(','));
        for stats in &run.scenarios {
            for (policy, s) in policies.iter().zip(&stats.per_policy) {
                table.push([
                    stats.scenario.name(),
                    policy.display_name().to_string(),
                    num(s.stp_mean),
                    num(s.stp_min_max.0),
                    num(s.stp_min_max.1),
                    num(s.antt_mean),
                ]);
            }
        }
        let path = table.write_to(dir, "fig06_overall")?;
        println!("\nCSV series written to {}", path.display());
    }

    let (geo, antt) = (&run.stp_geomean, &run.antt_mean);
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
    println!("  ours ANTT reduction (mean):  49%   → {:.1}%", antt[2]);
    println!(
        "  ours / Oracle ANTT:          93.4% → {:.1}%",
        antt[2] / antt[3] * 100.0
    );
    Ok(())
}

/// Fig. 9: our mixture-of-experts vs unified single-model baselines —
/// one fixed regression family for every application (Linear, Exponential,
/// Napierian logarithmic) or one monolithic ANN. The paper finds the ANN
/// the best single model, with our approach ahead of all of them.
pub fn fig09_unified(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    let mixes = size.mixes;
    let policies = [
        PolicyKind::UnifiedLinear,
        PolicyKind::UnifiedExponential,
        PolicyKind::UnifiedLog,
        PolicyKind::UnifiedAnn,
        PolicyKind::Moe,
    ];
    let headers = ["Linear", "Expon.", "NapLog", "ANN", "Ours"];
    let run = table3_campaign(&policies, mixes, 91)?;

    println!("Fig. 9 (a): normalized STP — unified models vs ours ({mixes} mixes/scenario)");
    print_panel(&run, &headers, |s| format!("{:>8.2}", s.stp_mean));
    rule(50);
    print!("geo  ");
    for g in &run.stp_geomean {
        print!(" {g:>8.2}");
    }
    println!();

    println!("\nFig. 9 (b): ANTT reduction (%)");
    print_panel(&run, &headers, |s| format!("{:>8.1}", s.antt_mean));
    rule(50);
    let geo = &run.stp_geomean;
    println!(
        "\npaper shape: ANN best among single models; ours above all. \
         measured: ours {:.2} vs best-unified {:.2}",
        geo[4],
        geo[..4].iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    );

    if let Some(dir) = records {
        let mut table = CsvTable::new("scenario,policy,stp_mean,antt_reduction_pct".split(','));
        for stats in &run.scenarios {
            for (header, s) in headers.iter().zip(&stats.per_policy) {
                table.push([
                    stats.scenario.name(),
                    header.to_string(),
                    num(s.stp_mean),
                    num(s.antt_mean),
                ]);
            }
        }
        let path = table.write_to(dir, "fig09_unified")?;
        println!("CSV series written to {}", path.display());
    }
    Ok(())
}

/// Fig. 10: our approach vs online descent search for the right input
/// size under a memory budget. The paper measures 2.4× better STP and
/// 2.6× better ANTT for our approach — the search overhead dominates and
/// grows with cluster size.
pub fn fig10_online(size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let mixes = size.mixes;
    let run = table3_campaign(&[PolicyKind::OnlineSearch, PolicyKind::Moe], mixes, 10)?;

    println!("Fig. 10: online search vs our approach ({mixes} mixes/scenario)");
    println!(
        "{:<5} {:>14} {:>14}   {:>14} {:>14}",
        "", "search STP", "ours STP", "search ANTTred", "ours ANTTred"
    );
    for stats in &run.scenarios {
        println!(
            "{:<5} {:>14.2} {:>14.2}   {:>13.1}% {:>13.1}%",
            stats.scenario.name(),
            stats.per_policy[0].stp_mean,
            stats.per_policy[1].stp_mean,
            stats.per_policy[0].antt_mean,
            stats.per_policy[1].antt_mean,
        );
    }
    rule(70);
    let (geo, antt) = (&run.stp_geomean, &run.antt_mean);
    println!(
        "ours vs online search — STP {:.1}x (paper 2.4x), ANTT reduction {:.1}x (paper 2.6x)",
        geo[1] / geo[0],
        antt[1] / antt[0].max(1e-9),
    );
    Ok(())
}

/// The §6.1 "Highlights" block in one run: every headline claim of the
/// paper, measured, with its paper value alongside.
pub fn paper_headlines(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    let mixes = size.mixes;
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
    let run = table3_campaign(&policies, mixes, 61)?;
    let (geo, mean) = (&run.stp_geomean, &run.antt_mean);
    let (pw, online, quasar, ours, oracle) = (0, 1, 2, 3, 4);
    let stp_l8_l10 = |pi: usize| {
        run.scenarios[7..]
            .iter()
            .map(|s| s.per_policy[pi].stp_mean)
            .sum::<f64>()
    };

    println!("paper §6.1 highlight                            paper    measured");
    rule(72);
    println!(
        "ours STP over isolated (geomean)                8.69x    {:.2}x",
        geo[ours]
    );
    println!(
        "ours ANTT reduction (mean)                      49 %     {:.1} %",
        mean[ours]
    );
    println!(
        "ours vs Quasar STP                              1.28x    {:.2}x",
        geo[ours] / geo[quasar]
    );
    println!(
        "ours vs Quasar ANTT                             1.68x    {:.2}x",
        mean[ours] / mean[quasar]
    );
    println!(
        "ours / Oracle STP                               83.9 %   {:.1} %",
        geo[ours] / geo[oracle] * 100.0
    );
    println!(
        "ours / Oracle ANTT                              93.4 %   {:.1} %",
        mean[ours] / mean[oracle] * 100.0
    );
    println!(
        "ours vs Pairwise STP (L8-L10)                   1.72x    {:.2}x",
        stp_l8_l10(ours) / stp_l8_l10(pw)
    );
    println!(
        "ours vs Online Search STP                       2.4x     {:.2}x",
        geo[ours] / geo[online]
    );

    if let Some(dir) = records {
        let mut table = CsvTable::new("scenario,policy,stp_mean,antt_reduction_pct".split(','));
        for stats in &run.scenarios {
            for (policy, s) in policies.iter().zip(&stats.per_policy) {
                table.push([
                    stats.scenario.name(),
                    policy.display_name().to_string(),
                    num(s.stp_mean),
                    num(s.antt_mean),
                ]);
            }
        }
        let path = table.write_to(dir, "paper_headlines")?;
        println!("\nCSV series written to {}", path.display());
    }
    Ok(())
}

/// Validates the §5.2 replay protocol: the paper replays each scenario
/// until the 95 % confidence half-width falls below 5 % of the mean. This
/// shows how the normalized-STP confidence interval tightens with the
/// number of random mixes, and where the stopping rule triggers.
pub fn convergence_check(size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let scenario = MixScenario::TABLE3[4]; // L5: 11 applications
    let max_mixes = size.mixes.max(12);

    println!(
        "Convergence of normalized STP (ours, scenario {}) over random mixes",
        scenario.name()
    );
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "mixes", "mean", "95% half-width", "rel. width"
    );
    rule(46);

    let mut stats = Welford::new();
    let mut mix_rng = SimRng::seed_from(52);
    let mut stopped_at = None;
    for m in 0..max_mixes {
        let mix = scenario.random_mix(catalog, &mut mix_rng);
        let outcome = run_policy(PolicyKind::Moe, catalog, &mix, &config, 52 + m as u64)?;
        stats.push(outcome.normalized.normalized_stp);
        let hw = stats.ci95_half_width();
        let rel = if stats.mean() > 0.0 {
            hw / stats.mean()
        } else {
            f64::INFINITY
        };
        println!(
            "{:>6} {:>10.3} {:>14.3} {:>11.1}%",
            m + 1,
            stats.mean(),
            if hw.is_finite() { hw } else { f64::NAN },
            rel * 100.0
        );
        if stopped_at.is_none() && stats.ci_converged(0.05) {
            stopped_at = Some(m + 1);
        }
    }
    rule(46);
    match stopped_at {
        Some(n) => {
            println!("§5.2 stopping rule (half-width < 5 % of mean) triggers after {n} mixes")
        }
        None => println!(
            "stopping rule not reached within {max_mixes} mixes — add mixes to the Size table"
        ),
    }
    Ok(())
}
