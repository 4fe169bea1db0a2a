//! The fixed 30-application mix of Table 4: Figs. 7 and 8.

use super::Size;
use crate::mlcamp::CampaignError;
use crate::rule;
use colocate::harness::{bin_trace, isolated_times, trained_system_for, RunConfig};
use colocate::metrics::normalize;
use colocate::scheduler::{run_schedule, PolicyKind};
use std::path::Path;
use workloads::mixes::{resolve, table4_mix};

const TIME_BINS: usize = 24;

fn shade(load: f64) -> char {
    match load {
        l if l < 0.125 => ' ',
        l if l < 0.375 => '.',
        l if l < 0.625 => 'o',
        l if l < 0.875 => 'O',
        _ => '#',
    }
}

/// Fig. 7: CPU utilisation across the 40 nodes over time while scheduling
/// the Table 4 mix, under Pairwise, Quasar and our approach. The paper's
/// heat maps show our approach keeping servers busiest and finishing
/// first; this prints a coarse ASCII heat map plus per-scheduler summary
/// lines.
pub fn fig07_utilization(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let mix = table4_mix(catalog);

    println!("Table 4 mix (submission order):");
    for (i, entry) in mix.iter().enumerate() {
        print!(
            "{:>2}:{:<24}",
            i + 1,
            format!("{} {}", resolve(catalog, entry).name(), entry.size)
        );
        if (i + 1) % 3 == 0 {
            println!();
        }
    }
    println!();

    for policy in [PolicyKind::Pairwise, PolicyKind::Quasar, PolicyKind::Moe] {
        let system = trained_system_for(policy, catalog, &config, 7)?;
        let outcome = run_schedule(policy, catalog, &mix, system.as_ref(), &config.scheduler, 7)?;
        let bins = bin_trace(&outcome.trace, outcome.makespan_secs, TIME_BINS);
        let nodes = bins[0].len();

        println!(
            "\nFig. 7 — {}: makespan {:.0} min (shades: ' '<12.5%, '.'<37.5%, 'o'<62.5%, 'O'<87.5%, '#'>=87.5%)",
            outcome.policy,
            outcome.makespan_secs / 60.0
        );
        // One row per 4 nodes (averaged) to keep the map compact.
        for group in (0..nodes).step_by(4) {
            print!("nodes {group:>2}-{:<2} |", (group + 3).min(nodes - 1));
            for bin in &bins {
                let hi = (group + 4).min(nodes);
                let avg: f64 = bin[group..hi].iter().sum::<f64>() / (hi - group) as f64;
                print!("{}", shade(avg));
            }
            println!("|");
        }
        let overall: f64 = bins
            .iter()
            .map(|b| b.iter().sum::<f64>() / b.len() as f64)
            .sum::<f64>()
            / bins.len() as f64;
        println!("mean utilisation over the run: {:.0} %", overall * 100.0);
    }
    println!("\n(paper: our approach shows the densest map and the earliest finish)");
    Ok(())
}

/// Fig. 8: STP (a) and wall-clock turnaround time (b) for the Table 4
/// mix under Pairwise, Quasar and our approach. The paper measures
/// 1.81×/1.39× higher STP and 1.46×/1.28× faster turnaround for our
/// approach over Pairwise/Quasar.
pub fn fig08_mix_outcome(_size: &Size, _records: Option<&Path>) -> Result<(), CampaignError> {
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let mix = table4_mix(catalog);
    let iso = isolated_times(catalog, &mix, &config.scheduler, 7)?;

    println!("Fig. 8: Table 4 mix — STP and turnaround time");
    println!(
        "{:<14} {:>8} {:>22}",
        "scheduler", "STP", "turnaround (min)"
    );
    rule(48);
    let mut rows = Vec::new();
    for policy in [PolicyKind::Pairwise, PolicyKind::Quasar, PolicyKind::Moe] {
        let system = trained_system_for(policy, catalog, &config, 7)?;
        let outcome = run_schedule(policy, catalog, &mix, system.as_ref(), &config.scheduler, 7)?;
        let turnarounds: Vec<f64> = outcome.per_app.iter().map(|a| a.finished_at).collect();
        let metrics = normalize(&iso, &turnarounds);
        println!(
            "{:<14} {:>8.2} {:>22.1}",
            outcome.policy,
            metrics.normalized_stp,
            outcome.makespan_secs / 60.0
        );
        rows.push((metrics.normalized_stp, outcome.makespan_secs));
    }
    rule(48);
    println!(
        "ours vs Pairwise: STP {:.2}x (paper 1.81x), turnaround {:.2}x faster (paper 1.46x)",
        rows[2].0 / rows[0].0,
        rows[0].1 / rows[2].1
    );
    println!(
        "ours vs Quasar:   STP {:.2}x (paper 1.39x), turnaround {:.2}x faster (paper 1.28x)",
        rows[2].0 / rows[1].0,
        rows[1].1 / rows[2].1
    );
    Ok(())
}
