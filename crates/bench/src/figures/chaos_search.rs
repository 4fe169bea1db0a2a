//! Fig. 22 (extension): deterministic chaos search — sweep a seeded
//! budget of randomized episodes (fault plans × arrival plans × cluster
//! sizes × admission presets) through the scheduler and the open-system
//! service with the full invariant battery
//! ([`colocate::invariants::check_episode`]), and delta-debug every
//! violation down to a minimal reproducer that replays from a single
//! `(seed, episode)` pair.
//!
//! The `BENCH_chaossearch.json` record is a pure function of `(base seed,
//! episode budget, shrink budget)`: episodes fan out across worker
//! threads but fold in episode order, and no wall clock is measured — so
//! the CI bit-identity gate can `cmp` the artifact across
//! `SPARK_MOE_THREADS` values, like every other `BENCH_*.json`.

use super::Size;
use crate::csv::{write_record, CsvTable};
use crate::mlcamp::CampaignError;
use crate::report::chaossearch_json;
use colocate::harness::RunConfig;
use colocate::invariants::{chaos_search, preset_label, SearchConfig};
use std::path::Path;

/// Base seed of the episode sweep.
const SEED: u64 = 42;
/// Checker budget per shrink.
const SHRINK_BUDGET: usize = 200;

/// Runs [`Size::chaos_episodes`] episodes and prints every violation with
/// its shrunk reproducer.
pub fn fig22_chaos_search(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    let config = SearchConfig {
        episodes: size.chaos_episodes,
        base_seed: SEED,
        shrink_budget: SHRINK_BUDGET,
        workers: RunConfig::default().effective_workers(),
        ..SearchConfig::default()
    };

    // Worker count deliberately left out of the banner: the bit-identity
    // CI gate diffs this stdout across SPARK_MOE_THREADS values.
    println!(
        "Fig. 22: chaos search — {} episodes from seed {}, shrink budget {}",
        config.episodes, config.base_seed, config.shrink_budget
    );

    let report = chaos_search(crate::catalog(), &config);

    println!(
        "\nchecked {} episodes: {} violation(s) found",
        report.episodes,
        report.violations.len()
    );

    if report.violations.is_empty() {
        println!("invariant battery: CLEAN over the swept budget");
    } else {
        println!(
            "\n{:<8} {:<12} {:<22} {:<24} {:>7} {:>7} {:>7}",
            "episode", "seed", "preset", "invariant", "faults", "arriv", "checks"
        );
        for v in &report.violations {
            println!(
                "{:<8} {:<12} {:<22} {:<24} {:>3}->{:<3} {:>3}->{:<3} {:>7}",
                v.index,
                v.original.seed,
                preset_label(v.original.preset),
                v.violation.invariant,
                v.original.faults.len(),
                v.shrink.episode.faults.len(),
                v.original.arrivals.len(),
                v.shrink.episode.arrivals.len(),
                v.shrink.checks,
            );
            println!("    {}", v.violation.detail);
            println!("    reproducer: {}", v.shrink.episode.to_json());
        }
    }

    if let Some(dir) = records {
        let mut table = CsvTable::new("episode_index,seed,preset,invariant,original_faults,shrunk_faults,original_arrivals,shrunk_arrivals,shrink_checks".split(','));
        for v in &report.violations {
            table.push([
                v.index.to_string(),
                v.original.seed.to_string(),
                preset_label(v.original.preset).to_string(),
                v.violation.invariant.clone(),
                v.original.faults.len().to_string(),
                v.shrink.episode.faults.len().to_string(),
                v.original.arrivals.len().to_string(),
                v.shrink.episode.arrivals.len().to_string(),
                v.shrink.checks.to_string(),
            ]);
        }
        let path = table.write_to(dir, "fig22_chaos_search")?;
        println!("\nCSV series written to {}", path.display());
        let path = write_record(dir, "BENCH_chaossearch.json", &chaossearch_json(&report))?;
        println!("JSON record written to {}", path.display());
    }

    // Headline: the acceptance bar is an all-clean sweep (every violation
    // found during development was fixed or pinned as a regression test).
    println!(
        "\nchaos-search acceptance (no unpinned invariant violations): {}",
        if report.violations.is_empty() {
            "MET"
        } else {
            "NOT MET"
        }
    );
    Ok(())
}
