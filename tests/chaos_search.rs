//! Chaos-search acceptance: a seeded episode budget checks out
//! deterministically (same seed → identical report at every worker
//! count, all the way through the serialised `BENCH_chaossearch.json`
//! bytes), episode replay is a pure function of `(seed, episode)`, and
//! the delta-debugging shrinker reduces a violating episode to a minimal
//! reproducer.
//!
//! The development sweeps behind this PR (~10k episodes across several
//! spaces and base seeds, including 1-node clusters and saturated fault
//! storms) surfaced no real invariant violations — the battery's
//! regression value is pinned here instead: `the_swept_budget_is_clean`
//! locks the default space at seed 42 as violation-free, so any future
//! change that breaks job conservation, committed-GB accounting, WFQ
//! ordering, breaker liveness or quarantine finiteness turns this test
//! red with a shrunk reproducer in the failure message.

use bench_suite::report::chaossearch_json;
use colocate::invariants::{chaos_search, check_episode, search_space, SearchConfig, PRESETS};
use simkit::chaoskit::{shrink, Episode, Violation};
use workloads::Catalog;

fn small_search(workers: usize) -> SearchConfig {
    SearchConfig {
        episodes: 12,
        base_seed: 42,
        shrink_budget: 64,
        workers,
        space: search_space(),
    }
}

/// The acceptance bar: the default swept budget is clean, and if it ever
/// stops being clean the failure message carries the minimal reproducer.
#[test]
fn the_swept_budget_is_clean() {
    let catalog = Catalog::paper();
    let report = chaos_search(&catalog, &small_search(1));
    assert_eq!(report.episodes, 12);
    assert!(
        report.violations.is_empty(),
        "invariant violations found; minimal reproducers:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!(
                "  [{}] {} — replay: {}",
                v.violation.invariant,
                v.violation.detail,
                v.shrink.episode.to_json()
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Same seed, same report — including the serialised JSON — at every
/// worker count: invariant (f) of the battery.
#[test]
fn search_reports_are_worker_count_bit_identical() {
    let catalog = Catalog::paper();
    let serial = chaos_search(&catalog, &small_search(1));
    let parallel = chaos_search(&catalog, &small_search(4));
    assert_eq!(serial, parallel);
    assert_eq!(
        chaossearch_json(&serial),
        chaossearch_json(&parallel),
        "BENCH_chaossearch.json must not depend on the worker count"
    );
}

/// Two identical searches produce byte-identical artifacts — the
/// `(seed, episode)` replay contract end to end.
#[test]
fn search_replays_bit_identically_from_the_seed() {
    let catalog = Catalog::paper();
    let a = chaossearch_json(&chaos_search(&catalog, &small_search(2)));
    let b = chaossearch_json(&chaos_search(&catalog, &small_search(2)));
    assert_eq!(a, b);
}

/// An episode's check is a pure function of the episode: replaying any
/// drawn episode — including across every preset — yields the same
/// verdict both times.
#[test]
fn episode_checks_replay_deterministically_across_presets() {
    let catalog = Catalog::paper();
    let space = search_space();
    let mut seen_presets = vec![false; PRESETS];
    for seed in 100..112 {
        let episode = Episode::draw(seed, &space);
        seen_presets[episode.preset] = true;
        assert_eq!(
            check_episode(&catalog, &episode),
            check_episode(&catalog, &episode),
            "episode seed {seed} must replay to the same verdict"
        );
    }
    assert!(
        seen_presets.iter().filter(|&&s| s).count() >= 3,
        "12 draws should land on most presets; got {seen_presets:?}"
    );
}

/// End-to-end shrink on a real (synthetic-invariant) violation: wire a
/// checker that flags any episode whose fault plan still contains a
/// node-crash, and confirm the minimal reproducer is a single fault with
/// its duration halved to the floor — and that it replays from the
/// episode alone.
#[test]
fn shrinking_produces_a_replayable_minimal_reproducer() {
    let space = search_space();
    // Find a drawn episode that actually contains a node crash.
    let (episode, violation) = (0..64)
        .find_map(|seed| {
            let e = Episode::draw(seed, &space);
            synthetic_check(&e).map(|v| (e, v))
        })
        .expect("64 draws at full intensity must include a node crash");
    let result = shrink(&episode, violation, 10_000, synthetic_check);
    assert!(!result.exhausted);
    assert_eq!(
        result.episode.faults.len(),
        1,
        "one node-crash fault must suffice"
    );
    assert!(
        result.episode.arrivals.is_empty(),
        "arrivals are irrelevant to this invariant and must all drop"
    );
    // The reproducer replays from the episode alone: re-checking it (the
    // single source of truth a bug report would carry) re-fires the same
    // violation, bit for bit.
    assert_eq!(
        synthetic_check(&result.episode),
        Some(result.violation.clone())
    );
    let json = result.episode.to_json();
    assert_eq!(json, result.episode.to_json());
}

fn synthetic_check(e: &Episode) -> Option<Violation> {
    e.faults
        .iter()
        .any(|f| matches!(f.kind, simkit::faults::FaultKind::NodeCrash { .. }))
        .then(|| Violation::new("synthetic-node-crash", "plan contains a node crash"))
}
