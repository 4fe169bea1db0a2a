//! Determinism under campaign parallelism: the thread-pool fan-out in
//! `colocate::harness` must be a pure optimisation. For a fixed seed, a
//! campaign's statistics are required to be **bit-for-bit identical** for
//! every worker count (the replays commit in index order), and the
//! isolated-baseline cache must return exactly what uncached solo runs
//! produce.

use colocate::harness::{
    evaluate_scenario, evaluate_scenario_multi, isolated_times, BaselineCache, RunConfig,
    ScenarioStats,
};
use colocate::scheduler::{PolicyKind, SchedulerConfig};
use simkit::SimRng;
use sparklite::cluster::ClusterSpec;
use workloads::{Catalog, MixScenario};

fn config_with_workers(workers: usize) -> RunConfig {
    config_with_cluster(workers, ClusterSpec::small(4))
}

fn config_with_cluster(workers: usize, cluster: ClusterSpec) -> RunConfig {
    RunConfig {
        scheduler: SchedulerConfig {
            cluster,
            ..Default::default()
        },
        workers: Some(workers),
        ..Default::default()
    }
}

/// Bitwise equality: `assert_eq!` on floats would accept `-0.0 == 0.0`
/// and reject NaN; the guarantee under test is *bit-for-bit* replay.
fn assert_stats_identical(a: &ScenarioStats, b: &ScenarioStats, label: &str) {
    assert_eq!(a.mixes, b.mixes, "{label}: mix counts diverged");
    let pairs = [
        ("stp_mean", a.stp_mean, b.stp_mean),
        ("stp_min", a.stp_min_max.0, b.stp_min_max.0),
        ("stp_max", a.stp_min_max.1, b.stp_min_max.1),
        ("antt_mean", a.antt_mean, b.antt_mean),
        ("antt_min", a.antt_min_max.0, b.antt_min_max.0),
        ("antt_max", a.antt_min_max.1, b.antt_min_max.1),
    ];
    for (field, x, y) in pairs {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: {field} differs ({x} vs {y})"
        );
    }
}

#[test]
fn multi_policy_campaign_is_worker_count_invariant() {
    let catalog = Catalog::paper();
    let scenario = MixScenario { label: 2, apps: 3 };
    let policies = [PolicyKind::Pairwise, PolicyKind::Oracle];
    let serial = evaluate_scenario_multi(
        &policies,
        scenario,
        &catalog,
        &config_with_workers(1),
        4,
        99,
    )
    .unwrap();
    for workers in [2, 4, 7] {
        let parallel = evaluate_scenario_multi(
            &policies,
            scenario,
            &catalog,
            &config_with_workers(workers),
            4,
            99,
        )
        .unwrap();
        for (pi, (s, p)) in serial
            .per_policy
            .iter()
            .zip(parallel.per_policy.iter())
            .enumerate()
        {
            assert_stats_identical(s, p, &format!("policy {pi}, {workers} workers"));
        }
    }
}

#[test]
fn converging_campaign_is_worker_count_invariant() {
    // evaluate_scenario couples parallelism with the §5.2 early-exit rule;
    // speculative replays past the convergence point must be discarded so
    // even the *number of mixes folded* matches the serial run.
    let catalog = Catalog::paper();
    let scenario = MixScenario { label: 1, apps: 2 };
    let serial = evaluate_scenario(
        PolicyKind::Oracle,
        scenario,
        &catalog,
        &config_with_workers(1),
        2,
        6,
        11,
    )
    .unwrap();
    for workers in [2, 5] {
        let parallel = evaluate_scenario(
            PolicyKind::Oracle,
            scenario,
            &catalog,
            &config_with_workers(workers),
            2,
            6,
            11,
        )
        .unwrap();
        assert_stats_identical(&serial, &parallel, &format!("{workers} workers"));
    }
}

#[test]
fn large_cluster_campaign_is_worker_count_invariant() {
    // The 400-node configuration drives the per-node rate-cache shards,
    // the tournament tree and the hot-node OOM scan through the full
    // scheduling stack. Each simulation runs serially; only the mixes fan
    // out across workers, so the statistics must stay bit-for-bit
    // identical across worker counts, exactly like the 4-node scenarios.
    let catalog = Catalog::paper();
    let scenario = MixScenario { label: 2, apps: 6 };
    let policies = [PolicyKind::Pairwise, PolicyKind::Oracle];
    let cluster = ClusterSpec::with_nodes(400);
    let serial = evaluate_scenario_multi(
        &policies,
        scenario,
        &catalog,
        &config_with_cluster(1, cluster.clone()),
        2,
        123,
    )
    .unwrap();
    for workers in [2, 4] {
        let parallel = evaluate_scenario_multi(
            &policies,
            scenario,
            &catalog,
            &config_with_cluster(workers, cluster.clone()),
            2,
            123,
        )
        .unwrap();
        for (pi, (s, p)) in serial
            .per_policy
            .iter()
            .zip(parallel.per_policy.iter())
            .enumerate()
        {
            assert_stats_identical(s, p, &format!("400 nodes, policy {pi}, {workers} workers"));
        }
    }
}

#[test]
fn baseline_cache_matches_uncached_solo_runs() {
    let catalog = Catalog::paper();
    let config = config_with_workers(1);
    let mut rng = SimRng::seed_from(5);
    // A mix with guaranteed repeats: every scenario draw plus itself.
    let mut mix = MixScenario { label: 3, apps: 4 }.random_mix(&catalog, &mut rng);
    let dup = mix.clone();
    mix.extend(dup);

    let cache = BaselineCache::new();
    let seed = 31;
    let cached = cache
        .isolated_times(&catalog, &mix, &config.scheduler, seed)
        .unwrap();
    let uncached = isolated_times(&catalog, &mix, &config.scheduler, seed).unwrap();
    assert_eq!(cached.len(), uncached.len());
    for (i, (c, u)) in cached.iter().zip(uncached.iter()).enumerate() {
        assert_eq!(c.to_bits(), u.to_bits(), "app {i}: cached {c} vs solo {u}");
    }

    let (hits, misses) = cache.stats();
    assert!(
        hits >= mix.len() as u64 / 2,
        "duplicated mix must hit: {hits}"
    );
    assert!(misses <= mix.len() as u64 / 2 + 1, "misses {misses}");

    // A different seed is a different baseline: the cache must not leak
    // entries across keys.
    let other = cache
        .isolated_times(&catalog, &mix, &config.scheduler, seed + 1)
        .unwrap();
    let fresh = isolated_times(&catalog, &mix, &config.scheduler, seed + 1).unwrap();
    for (c, u) in other.iter().zip(fresh.iter()) {
        assert_eq!(c.to_bits(), u.to_bits());
    }
}

#[test]
fn env_thread_override_does_not_change_results() {
    // The binaries pick up SPARK_MOE_THREADS via RunConfig::effective_workers;
    // forcing an oversubscribed pool through the env must be invisible in
    // the statistics.
    let catalog = Catalog::paper();
    let scenario = MixScenario { label: 1, apps: 2 };
    let policies = [PolicyKind::Oracle];
    let pinned =
        evaluate_scenario_multi(&policies, scenario, &catalog, &config_with_workers(1), 3, 7)
            .unwrap();

    std::env::set_var("SPARK_MOE_THREADS", "6");
    let mut env_config = config_with_workers(1);
    env_config.workers = None; // defer to the environment
    assert_eq!(env_config.effective_workers(), 6);
    let from_env =
        evaluate_scenario_multi(&policies, scenario, &catalog, &env_config, 3, 7).unwrap();
    std::env::remove_var("SPARK_MOE_THREADS");

    assert_stats_identical(
        &pinned.per_policy[0],
        &from_env.per_policy[0],
        "env-driven pool",
    );
}
