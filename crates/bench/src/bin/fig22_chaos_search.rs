//! Fig. 22 (extension): deterministic chaos search — sweep a seeded
//! budget of randomized episodes (fault plans × arrival plans × cluster
//! sizes × admission presets) through the scheduler and the open-system
//! service with the full invariant battery
//! ([`colocate::invariants::check_episode`]), and delta-debug every
//! violation down to a minimal reproducer that replays from a single
//! `(seed, episode)` pair.
//!
//! The default record (`results/BENCH_chaossearch.json`) is a pure
//! function of `(base seed, episode budget, shrink budget)`: episodes fan
//! out across worker threads but fold in episode order, and wall-clock
//! timing is reported only on explicit request — so the CI bit-identity
//! gate can `cmp` the artifact across `SPARK_MOE_THREADS` values, like
//! every other `BENCH_*.json`.
//!
//! Env knobs: `SPARK_MOE_CHAOS_EPISODES` (episode budget, default 64),
//! `SPARK_MOE_CHAOS_SEED` (base seed, default 42),
//! `SPARK_MOE_CHAOS_SHRINK` (checker budget per shrink, default 200),
//! `SPARK_MOE_CHAOS_TIMING=1` (opt-in episodes/sec measurement; makes the
//! record wall-clock-dependent), `SPARK_MOE_THREADS` (worker pool).

use bench_suite::csv::{csv_dir, CsvTable};
use bench_suite::report::chaossearch_json;
use colocate::harness::RunConfig;
use colocate::invariants::{chaos_search, preset_label, SearchConfig};
use std::time::Instant;

fn main() {
    let catalog = bench_suite::catalog();
    let config = SearchConfig {
        episodes: bench_suite::env_count("SPARK_MOE_CHAOS_EPISODES", 64),
        base_seed: bench_suite::env_seed("SPARK_MOE_CHAOS_SEED", 42),
        shrink_budget: bench_suite::env_count("SPARK_MOE_CHAOS_SHRINK", 200),
        workers: RunConfig::default().effective_workers(),
        ..SearchConfig::default()
    };
    let timing = std::env::var("SPARK_MOE_CHAOS_TIMING").is_ok_and(|v| v == "1");

    // Worker count deliberately left out of the banner: the bit-identity
    // CI gate cmps this stdout across SPARK_MOE_THREADS values.
    println!(
        "Fig. 22: chaos search — {} episodes from seed {}, shrink budget {}",
        config.episodes, config.base_seed, config.shrink_budget
    );

    let started = Instant::now();
    let report = chaos_search(catalog, &config);
    let elapsed = started.elapsed().as_secs_f64();
    let episodes_per_sec = if timing && elapsed > 0.0 {
        Some(report.episodes as f64 / elapsed)
    } else {
        None
    };

    println!(
        "\nchecked {} episodes: {} violation(s) found",
        report.episodes,
        report.violations.len()
    );
    if let Some(eps) = episodes_per_sec {
        println!("throughput: {eps:.1} episodes/s ({elapsed:.2} s wall clock)");
    }

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

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new([
            "episode_index",
            "seed",
            "preset",
            "invariant",
            "original_faults",
            "shrunk_faults",
            "original_arrivals",
            "shrunk_arrivals",
            "shrink_checks",
        ]);
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
        if let Ok(path) = table.write_to(&dir, "fig22_chaos_search") {
            println!("\nCSV series written to {}", path.display());
        }
        let json = chaossearch_json(&report, episodes_per_sec);
        if let Ok(path) =
            bench_suite::fsutil::atomic_write_in(&dir, "BENCH_chaossearch.json", &json)
        {
            println!("JSON record written to {}", path.display());
        }
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
}
