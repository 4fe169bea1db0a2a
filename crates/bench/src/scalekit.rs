//! Shared workload builders for the cluster-scale sweep.
//!
//! `benches/scale.rs` (Criterion micro-benchmarks) and the `fig20_scale`
//! driver (the `results/BENCH_scale.json` record) measure the same two
//! hot loops at growing node counts:
//!
//! * **queue hold churn** — the classic hold benchmark against
//!   [`simkit::EventQueue`] on both backends: a stationary population
//!   proportional to cluster size, each step popping the minimum and
//!   pushing a replacement (with periodic cancel-and-replace), which is
//!   exactly the steady-state shape of a simulation tick loop (the
//!   binary-heap baseline pays `log n` per operation at every depth; the
//!   calendar queue's bucket hops are O(1) amortized);
//! * **completion churn** — the scheduler's inner loop
//!   (`next_completion` → `advance` → `complete` → respawn) against a
//!   fully loaded engine, under both rate-cache modes (the whole-placement
//!   baseline vs per-node shards).
//!
//! Keeping the builders here guarantees the bench and the driver measure
//! identical work.

use mlkit::regression::{CurveFamily, FittedCurve};
use simkit::{EventQueue, QueueBackend, SimDuration, SimTime};
use sparklite::app::AppSpec;
use sparklite::cluster::ClusterSpec;
use sparklite::engine::{ClusterEngine, RateCacheMode};
use sparklite::perf::InterferenceModel;
use sparklite::{AppId, ExecutorId};

/// Executors per node in the scale engines (two co-located slices, the
/// paper's common case).
pub const EXECUTORS_PER_NODE: usize = 2;

/// Slice size (GB) of the `k`-th spawned executor: 250–495 GB, cycling so
/// completions stagger instead of arriving in lockstep cohorts.
#[must_use]
pub fn slice_gb(k: usize) -> f64 {
    250.0 + ((k * 37) % 50) as f64 * 5.0
}

fn scale_app(name: &str, cpu: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        // Effectively bottomless input: the respawn loop never drains it.
        input_gb: 1e15,
        rate_gb_per_s: 1.0,
        cpu_util: cpu,
        memory_curve: FittedCurve {
            family: CurveFamily::Linear,
            m: 0.02,
            b: 2.0,
        },
        footprint_noise_sd: 0.0,
    }
}

/// An engine with [`EXECUTORS_PER_NODE`] live executors on every node,
/// staggered slices, all comfortably inside RAM (cool shards), under the
/// given rate-cache mode.
#[must_use]
pub fn scale_engine(nodes: usize, mode: RateCacheMode) -> ClusterEngine {
    scale_engine_tracked(nodes, mode).0
}

/// [`scale_engine`] plus, per node, the `(app, executor)` pair of the
/// node's first slice — the handle [`storm_mutate`] kills and respawns to
/// dirty that node's shard.
#[must_use]
pub fn scale_engine_tracked(
    nodes: usize,
    mode: RateCacheMode,
) -> (ClusterEngine, Vec<(AppId, ExecutorId)>) {
    let mut eng = ClusterEngine::new(ClusterSpec::with_nodes(nodes), InterferenceModel::default());
    eng.set_rate_cache_mode(mode);
    let node_ids = eng.cluster().node_ids();
    let mut slots = Vec::with_capacity(node_ids.len());
    let mut k = 0usize;
    for (i, &node) in node_ids.iter().enumerate() {
        for j in 0..EXECUTORS_PER_NODE {
            let app = eng.submit(scale_app(&format!("app{i}_{j}"), 0.3 + 0.05 * j as f64));
            let exec = eng
                .spawn_executor(app, node, slice_gb(k), 14.0)
                .expect("spawn fits")
                .expect("input available");
            if j == 0 {
                slots.push((app, exec));
            }
            k += 1;
        }
    }
    (eng, slots)
}

/// One placement storm: kill and respawn every node's tracked executor,
/// dirtying every shard in the cluster at once — the wave shape a
/// scheduler pass leaves behind, and the input the parallel rate-refresh
/// path is built for. The next rate query (`next_completion`,
/// `cached_current_rates`) then pays a single batched refresh over the
/// whole dirty set. `k` staggers the respawned slices; the tracked
/// executor ids in `slots` are updated in place.
pub fn storm_mutate(eng: &mut ClusterEngine, slots: &mut [(AppId, ExecutorId)], k: usize) {
    let node_ids = eng.cluster().node_ids();
    for (i, slot) in slots.iter_mut().enumerate() {
        if eng.executor(slot.1).is_err() {
            // Interleaved completion churn may have retired the tracked
            // executor; adopt the node's current first slice instead
            // (shard membership order is deterministic, so every worker
            // count adopts the same one).
            if let Some(adopted) = eng.node_executors_iter(node_ids[i]).next() {
                slot.0 = eng.executor(adopted).expect("member is live").app();
                slot.1 = adopted;
            }
        }
        if eng.executor(slot.1).is_ok() {
            eng.kill_executor(slot.1).expect("storm victim is live");
        }
        slot.1 = eng
            .spawn_executor(slot.0, node_ids[i], slice_gb(k + i), 14.0)
            .expect("respawn fits")
            .expect("input available");
    }
}

/// Order-pinned digest of the engine's observable simulation state:
/// elapsed clock, live population, every cached executor rate (the
/// pairs come in executor id order) and the next completion — all
/// folded bit-exactly (FNV-1a), so two engines agree iff
/// their states are bitwise identical. This is what the
/// `SPARK_MOE_SCALE_CHECK` mode prints instead of wall-clock numbers: a
/// pure function of the sweep configuration, identical at any
/// `SPARK_MOE_THREADS`.
#[must_use]
pub fn engine_digest(eng: &mut ClusterEngine) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fold(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(PRIME)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fold(h, eng.elapsed_secs().to_bits());
    h = fold(h, eng.live_executors() as u64);
    match eng.next_completion() {
        Some((dt, who)) => {
            h = fold(h, dt.to_bits());
            h = fold(h, who.index() as u64);
        }
        None => h = fold(h, u64::MAX),
    }
    for &(id, rate) in eng.cached_current_rates() {
        h = fold(h, id.index() as u64);
        h = fold(h, rate.to_bits());
    }
    h
}

/// One completion event, exactly as the scheduler's event loop performs
/// it: find the next finisher, advance everyone to that instant, retire
/// the finisher and respawn a fresh slice of its application in its place.
/// `k` indexes the respawn for slice staggering. Panics if the engine has
/// no live executors (the churn loops keep the population constant).
pub fn completion_step(eng: &mut ClusterEngine, k: usize) {
    let (dt, who) = eng.next_completion().expect("executors live");
    let (app, node) = {
        let e = eng.executor(who).expect("winner is live");
        (e.app(), e.node())
    };
    eng.advance(dt);
    eng.complete_executor(who).expect("winner finished");
    eng.spawn_executor(app, node, slice_gb(k), 14.0)
        .expect("respawn fits")
        .expect("input available");
}

/// Runs `events` completion events against `eng`, starting the slice
/// stagger at `k0`. Returns the next stagger index.
pub fn completion_churn(eng: &mut ClusterEngine, events: usize, k0: usize) -> usize {
    for k in k0..k0 + events {
        completion_step(eng, k);
    }
    k0 + events
}

/// Builds a queue holding `depth` events with scrambled sub-second
/// spacing — the stationary population the hold benchmark churns.
#[must_use]
pub fn build_queue(backend: QueueBackend, depth: usize) -> EventQueue<usize> {
    let mut q = EventQueue::with_capacity_and_backend(depth, backend);
    for i in 0..depth {
        let at = SimTime::from_secs(((i * 2_654_435_761) % depth) as f64 * 0.25);
        q.push(at, i);
    }
    q
}

/// Runs `steps` hold transitions against a queue built by [`build_queue`]:
/// pop the minimum, push a replacement a pseudo-random fraction of the
/// population window ahead; every 8th step additionally cancels the fresh
/// event and pushes a substitute (the scheduler's reschedule pattern).
/// The population stays at `depth` throughout — this measures steady-state
/// per-operation cost, the quantity that decides tick-loop throughput.
/// `k0` threads the pseudo-random stream across calls; returns a time
/// checksum as an optimisation barrier.
pub fn hold_churn(q: &mut EventQueue<usize>, depth: usize, steps: usize, k0: usize) -> f64 {
    let window = 0.25 * depth as f64;
    let mut checksum = 0.0;
    for k in k0..k0 + steps {
        let (at, _) = q.pop().expect("hold population never drains");
        checksum += at.as_secs();
        let jump = (k.wrapping_mul(2_654_435_761) % 4096) as f64 / 4096.0 * window;
        let id = q.push(at + SimDuration::from_secs(jump), k);
        if k.is_multiple_of(8) {
            q.cancel(id);
            q.push(at + SimDuration::from_secs(jump * 0.5), k);
        }
    }
    checksum
}

/// Total queue operations `steps` hold transitions perform (pops, pushes
/// and the periodic cancel/replace pairs) — the numerator of the hold
/// benchmark's ops/sec figure.
#[must_use]
pub fn hold_churn_ops(steps: usize) -> usize {
    2 * steps + 2 * steps.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_population_and_backends_agree() {
        let depth = 300;
        let steps = 1000;
        let mut checksums = Vec::new();
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let mut q = build_queue(backend, depth);
            assert_eq!(q.len(), depth);
            checksums.push(hold_churn(&mut q, depth, steps, 0));
            assert_eq!(q.len(), depth, "hold keeps the population stationary");
        }
        assert_eq!(
            checksums[0].to_bits(),
            checksums[1].to_bits(),
            "backends pop the same schedule"
        );
        assert_eq!(hold_churn_ops(8), 18);
        let mut eng = scale_engine(3, RateCacheMode::Sharded);
        assert_eq!(eng.live_executors(), 3 * EXECUTORS_PER_NODE);
        let k = completion_churn(&mut eng, 10, 3 * EXECUTORS_PER_NODE);
        assert_eq!(k, 3 * EXECUTORS_PER_NODE + 10);
        assert_eq!(eng.live_executors(), 3 * EXECUTORS_PER_NODE);
    }

    #[test]
    fn storm_keeps_population_and_digest_is_thread_invariant() {
        let (mut eng, mut slots) = scale_engine_tracked(80, RateCacheMode::Sharded);
        let (mut oracle, mut oracle_slots) = scale_engine_tracked(80, RateCacheMode::Sharded);
        eng.set_refresh_workers(4);
        oracle.set_refresh_workers(1);
        let mut digests = Vec::new();
        for round in 0..3 {
            let k = 80 * EXECUTORS_PER_NODE + round * 80;
            storm_mutate(&mut eng, &mut slots, k);
            storm_mutate(&mut oracle, &mut oracle_slots, k);
            assert_eq!(eng.live_executors(), 80 * EXECUTORS_PER_NODE);
            let d = engine_digest(&mut eng);
            assert_eq!(
                d,
                engine_digest(&mut oracle),
                "digest differs from the serial oracle after storm {round}"
            );
            digests.push(d);
        }
        digests.dedup();
        assert_eq!(digests.len(), 3, "storms must actually change the state");
    }

    #[test]
    fn both_cache_modes_survive_the_churn() {
        for mode in [RateCacheMode::Sharded, RateCacheMode::WholePlacement] {
            let mut eng = scale_engine(2, mode);
            completion_churn(&mut eng, 8, 2 * EXECUTORS_PER_NODE);
            assert_eq!(eng.live_executors(), 2 * EXECUTORS_PER_NODE);
        }
    }
}
