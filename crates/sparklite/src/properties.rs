//! Property-based tests for the Spark substrate, pinning the engine's
//! caches to its test-only oracles.

use crate::app::{AppId, AppSpec};
use crate::cluster::{ClusterSpec, NodeId};
use crate::engine::ClusterEngine;
use crate::executor::ExecutorId;
use crate::perf::{ExecutorDemand, InterferenceModel};
use mlkit::regression::{CurveFamily, FittedCurve};
use proptest::prelude::*;

fn app(input_gb: f64, cpu: f64, mem_m: f64) -> AppSpec {
    AppSpec {
        name: "p".into(),
        input_gb,
        rate_gb_per_s: 1.0,
        cpu_util: cpu,
        memory_curve: FittedCurve {
            family: CurveFamily::Linear,
            m: mem_m,
            b: 0.5,
        },
        footprint_noise_sd: 0.0,
    }
}

/// A `nodes`-node engine with three plain apps and a memory hog whose
/// executors overflow RAM, so operation sequences exercise hot shards
/// (paging factors that ramp under advance) and not just the cool fast
/// path.
fn mixed_engine(seed: u64, nodes: usize) -> (ClusterEngine, Vec<AppId>, Vec<NodeId>) {
    let mut eng = ClusterEngine::with_seed(
        ClusterSpec::small(nodes),
        InterferenceModel::default(),
        seed,
    );
    let mut apps: Vec<_> = (0..3)
        .map(|i| eng.submit(app(500.0, 0.2 + 0.2 * i as f64, 0.3)))
        .collect();
    apps.push(eng.submit(app(500.0, 0.3, 2.5)));
    let nodes = eng.cluster().node_ids();
    (eng, apps, nodes)
}

/// Applies one seeded operation: 0 spawn, 1 extend, 2 kill, 3 fail a
/// node, 4 restore a node, 5 advance, 6 run to the next completion and
/// complete it. Returns the id of a freshly spawned executor.
fn apply_op(
    eng: &mut ClusterEngine,
    apps: &[AppId],
    nodes: &[NodeId],
    (op, pick, amount): (u8, usize, f64),
) -> Option<ExecutorId> {
    match op {
        0 => {
            let a = apps[pick % apps.len()];
            let n = nodes[pick % nodes.len()];
            return eng
                .spawn_executor(a, n, amount, amount.min(12.0))
                .ok()
                .flatten();
        }
        1 => {
            let ids: Vec<_> = eng.executors_iter().map(|e| e.id()).collect();
            if !ids.is_empty() {
                let _ = eng.extend_executor(ids[pick % ids.len()], amount, 1.0);
            }
        }
        2 => {
            let ids: Vec<_> = eng.executors_iter().map(|e| e.id()).collect();
            if !ids.is_empty() {
                let _ = eng.kill_executor(ids[pick % ids.len()]);
            }
        }
        3 => {
            let _ = eng.fail_node(nodes[pick % nodes.len()]);
        }
        4 => {
            let _ = eng.restore_node(nodes[pick % nodes.len()]);
        }
        5 => eng.advance(amount * 0.1),
        _ => {
            if let Some((dt, who)) = eng.next_completion() {
                eng.advance(dt);
                let _ = eng.complete_executor(who);
            }
        }
    }
    None
}

proptest! {
    /// Rate multipliers are always in (0, 1]: co-location can only slow
    /// executors down, never speed them up.
    #[test]
    fn rate_multipliers_in_unit_interval(
        demands in proptest::collection::vec((0.01f64..1.0, 0.1f64..100.0), 1..10),
    ) {
        let model = InterferenceModel::default();
        let ds: Vec<ExecutorDemand> = demands
            .iter()
            .map(|&(cpu_util, actual_gb)| ExecutorDemand { cpu_util, actual_gb })
            .collect();
        for r in model.rate_multipliers(&ds, 64.0) {
            prop_assert!(r > 0.0 && r <= 1.0, "rate {r}");
        }
    }

    /// Adding a co-runner never increases anyone's rate.
    #[test]
    fn co_runners_are_monotone_slowdowns(
        base_cpu in 0.05f64..0.9,
        extra_cpu in 0.05f64..0.9,
        base_mem in 1.0f64..40.0,
        extra_mem in 1.0f64..40.0,
    ) {
        let model = InterferenceModel::default();
        let solo = model.rate_multipliers(
            &[ExecutorDemand { cpu_util: base_cpu, actual_gb: base_mem }],
            64.0,
        )[0];
        let pair = model.rate_multipliers(
            &[
                ExecutorDemand { cpu_util: base_cpu, actual_gb: base_mem },
                ExecutorDemand { cpu_util: extra_cpu, actual_gb: extra_mem },
            ],
            64.0,
        )[0];
        prop_assert!(pair <= solo + 1e-12);
    }

    /// Conservation of data: processed + unassigned + in-flight always
    /// equals the input, through arbitrary spawn/advance/complete cycles.
    #[test]
    fn data_is_conserved(
        input in 5.0f64..200.0,
        slices in proptest::collection::vec(1.0f64..50.0, 1..8),
        advance_frac in 0.1f64..2.0,
    ) {
        let mut eng = ClusterEngine::new(ClusterSpec::small(4), InterferenceModel::default());
        let a = eng.submit(app(input, 0.3, 0.1));
        let nodes = eng.cluster().node_ids();
        let mut live = Vec::new();
        for (i, &s) in slices.iter().enumerate() {
            if let Ok(Some(id)) = eng.spawn_executor(a, nodes[i % nodes.len()], s, 10.0) {
                live.push(id);
            }
        }
        // Partial progress.
        if let Some((dt, _)) = eng.next_completion() {
            eng.advance(dt * advance_frac.min(0.99));
        }
        let in_flight: f64 = live
            .iter()
            .filter_map(|&id| eng.executor(id).ok())
            .map(|e| e.slice_gb())
            .sum();
        let st = eng.app(a);
        let total = st.processed_gb() + st.unassigned_gb() + in_flight;
        prop_assert!((total - input).abs() < 1e-6, "total {total} vs input {input}");
    }

    /// Reservations are always released by completion or kill: after
    /// draining everything, every node is back to full free memory.
    #[test]
    fn memory_reservations_drain(
        inputs in proptest::collection::vec(1.0f64..40.0, 1..6),
    ) {
        let mut eng = ClusterEngine::new(ClusterSpec::small(3), InterferenceModel::default());
        let nodes = eng.cluster().node_ids();
        let mut ids = Vec::new();
        for (i, &gb) in inputs.iter().enumerate() {
            let a = eng.submit(app(gb, 0.3, 0.2));
            if let Ok(Some(id)) = eng.spawn_executor(a, nodes[i % nodes.len()], gb, 15.0) {
                ids.push(id);
            }
        }
        // Kill half, run the rest to completion.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                eng.kill_executor(*id).unwrap();
            }
        }
        while let Some((dt, who)) = eng.next_completion() {
            eng.advance(dt);
            eng.complete_executor(who).unwrap();
        }
        for &n in &nodes {
            prop_assert!((eng.node_free_memory(n) - 64.0).abs() < 1e-6);
        }
    }

    /// The engine's incremental rate cache is bit-identical to a
    /// from-scratch recomputation after arbitrary seeded sequences of
    /// spawn / extend / kill / fail / restore / advance — the invariant
    /// the figure regeneration identity rests on. The 128-node cluster
    /// starts with an overflowing executor on every node, so each
    /// `advance` re-dirties every shard and the refresh loop walks a
    /// 128-shard dirty set.
    #[test]
    fn cached_rates_match_from_scratch_recomputation(
        seed in 0u64..1000,
        large in any::<bool>(),
        ops in proptest::collection::vec((0u8..6, 0usize..256, 0.1f64..30.0), 1..40),
    ) {
        let (mut eng, apps, nodes) = mixed_engine(seed, if large { 128 } else { 4 });
        if large {
            let hog = eng.submit(app(30.0 * nodes.len() as f64, 0.3, 2.5));
            for &n in &nodes {
                prop_assert!(eng.spawn_executor(hog, n, 30.0, 12.0).unwrap().is_some());
            }
        }
        for &op in &ops {
            apply_op(&mut eng, &apps, &nodes, op);
            // After EVERY mutation the cache must agree bit-for-bit with
            // the reference implementation.
            let scratch = eng.current_rates();
            let cached = eng.cached_current_rates();
            prop_assert_eq!(cached.len(), scratch.len());
            for (id, rate) in cached {
                let reference = scratch[&id];
                prop_assert!(
                    rate.to_bits() == reference.to_bits(),
                    "cached rate for {:?} is {}, reference {}", id, rate, reference
                );
            }
            // The tournament tree's next completion must match the
            // from-scratch (dt, id)-lexicographic scan exactly — same
            // winner, same delay bits.
            let fast = eng.next_completion();
            let slow = eng.next_completion_naive();
            match (fast, slow) {
                (Some((df, wf)), Some((ds, ws))) => {
                    prop_assert_eq!(wf, ws, "tree winner vs naive winner");
                    prop_assert!(
                        df.to_bits() == ds.to_bits(),
                        "tree delay {} vs naive delay {}", df, ds
                    );
                }
                (f, s) => prop_assert_eq!(f.map(|x| x.1), s.map(|x| x.1)),
            }
        }
    }

    /// The engine's executor bookkeeping — the id table, the per-app
    /// member lists and the dense storage — agrees with itself after
    /// every operation: cluster-wide iteration is strictly id-ordered and
    /// complete, each app's list is exactly its live executors in id
    /// order, and every executor that has left is unknown.
    #[test]
    fn executor_index_tracks_every_mutation(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..7, 0usize..64, 0.1f64..30.0), 1..40),
    ) {
        let (mut eng, apps, nodes) = mixed_engine(seed, 4);
        let mut spawned = Vec::new();
        for &op in &ops {
            spawned.extend(apply_op(&mut eng, &apps, &nodes, op));
            let live: Vec<ExecutorId> = eng.executors_iter().map(|e| e.id()).collect();
            prop_assert!(live.windows(2).all(|w| w[0] < w[1]), "ids out of order: {:?}", live);
            prop_assert_eq!(live.len(), eng.live_executors());
            for &a in &apps {
                let listed: Vec<ExecutorId> = eng.app_executors(a).map(|e| e.id()).collect();
                let owned: Vec<ExecutorId> = eng
                    .executors_iter()
                    .filter(|e| e.app() == a)
                    .map(|e| e.id())
                    .collect();
                prop_assert_eq!(&listed, &owned, "app {:?}", a);
                prop_assert_eq!(listed.len(), eng.app(a).live_executors());
            }
            // A live id resolves to itself; an id that has left is unknown.
            for &id in &spawned {
                let live_id = live.binary_search(&id).is_ok().then_some(id);
                prop_assert_eq!(eng.executor(id).map(|e| e.id()).ok(), live_id);
            }
        }
    }

    /// next_completion + advance + complete always terminates a workload
    /// (no executor ever stalls at rate zero).
    #[test]
    fn workloads_always_terminate(
        napps in 1usize..5,
        input in 1.0f64..30.0,
        cpu in 0.1f64..0.95,
    ) {
        let mut eng = ClusterEngine::new(ClusterSpec::small(2), InterferenceModel::default());
        let nodes = eng.cluster().node_ids();
        for i in 0..napps {
            let a = eng.submit(app(input, cpu, 0.1));
            eng.spawn_executor(a, nodes[i % nodes.len()], input, 10.0).unwrap();
        }
        let mut steps = 0;
        while let Some((dt, who)) = eng.next_completion() {
            eng.advance(dt);
            eng.complete_executor(who).unwrap();
            steps += 1;
            prop_assert!(steps <= napps + 1, "too many completions");
        }
        prop_assert!(eng.all_finished());
    }
}
