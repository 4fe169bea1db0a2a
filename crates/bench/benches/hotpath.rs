//! Hot-path micro-benchmarks: the per-event costs every campaign binary
//! multiplies by thousands of schedule mixes.
//!
//! Three groups, matching the zero-allocation work on the inner loop:
//!
//! * **monitor query storm** — repeated `windowed_cpu`/`windowed_memory`
//!   reads between observations (memoized window means vs deque rescans);
//! * **engine step at 4/16/40 nodes** — one `next_completion` + `advance`
//!   pair per iteration (the rate cache vs a fresh `BTreeMap` per call);
//! * **end-to-end mix replay** — one full L5 Oracle schedule, the unit the
//!   campaign runners parallelise over.
//!
//! Besides the Criterion rows, the harness can record medians for
//! `results/BENCH_hotpath.json` (see the README's "Hot-path benches"):
//!
//! * `SPARK_MOE_HOTPATH_OUT=<path>` — write this run's medians to `<path>`
//!   (run this on the *before* commit);
//! * `SPARK_MOE_HOTPATH_BASELINE=<path>` — read a baseline written by the
//!   above and emit `results/BENCH_hotpath.json` with before/after medians
//!   and speedups via the atomic report writer;
//! * `SPARK_MOE_FIG06_SECS=<secs>` — optionally fold an externally timed
//!   `fig06_overall` wall clock into the record.
//!
//! The committed record predates the event queue's removal from `simkit`,
//! so it still lists an `event_queue_churn` row that no run produces now.

use criterion::{criterion_group, Criterion};
use mlkit::regression::{CurveFamily, FittedCurve};
use simkit::SimRng;
use sparklite::app::AppSpec;
use sparklite::cluster::ClusterSpec;
use sparklite::engine::ClusterEngine;
use sparklite::monitor::{MonitorConfig, ResourceMonitor};
use sparklite::perf::InterferenceModel;
use std::hint::black_box;
use std::time::Instant;

const STORM_QUERIES: usize = 4096;

fn steady_app(name: &str, input_gb: f64, cpu: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        input_gb,
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

/// An engine with two live executors per node, none of which completes
/// within the benchmark horizon.
fn loaded_engine(nodes: usize) -> ClusterEngine {
    let mut eng = ClusterEngine::new(ClusterSpec::small(nodes), InterferenceModel::default());
    let node_ids = eng.cluster().node_ids();
    for (i, &node) in node_ids.iter().enumerate() {
        for j in 0..2 {
            let app = eng.submit(steady_app(
                &format!("app{i}_{j}"),
                1_000.0,
                0.3 + 0.05 * j as f64,
            ));
            eng.spawn_executor(app, node, 500.0, 14.0)
                .expect("spawn fits")
                .expect("input available");
        }
    }
    eng
}

/// One engine step: the `next_completion` + `advance` pair the scheduler's
/// event loop performs per iteration. `dt` is tiny so the executor
/// population is stable across millions of steps.
fn engine_step(eng: &mut ClusterEngine) -> f64 {
    let (dt, _) = eng.next_completion().expect("executors live");
    eng.advance(1e-7);
    dt
}

/// A monitor whose windows hold a full complement of reports.
fn warm_monitor(nodes: usize) -> (ResourceMonitor, ClusterEngine) {
    let eng = loaded_engine(nodes);
    let config = MonitorConfig {
        window_secs: 300.0,
        report_period_secs: 30.0,
    };
    let mut monitor = ResourceMonitor::new(nodes, config);
    for k in 0..=10 {
        monitor.observe(&eng, 30.0 * k as f64);
    }
    (monitor, eng)
}

/// One query storm: every node's windowed CPU and memory read
/// `STORM_QUERIES / nodes` times, as placement rounds do between
/// observations.
fn monitor_storm(monitor: &ResourceMonitor, eng: &ClusterEngine) -> f64 {
    let nodes = eng.cluster().node_ids();
    let per_node = STORM_QUERIES / nodes.len();
    let mut acc = 0.0;
    for &node in &nodes {
        for _ in 0..per_node {
            acc += monitor.windowed_cpu(node) + monitor.windowed_used_memory(node);
        }
    }
    acc
}

fn l5_mix() -> Vec<workloads::mixes::MixEntry> {
    let catalog = bench_suite::catalog();
    let mut rng = SimRng::seed_from(3);
    workloads::MixScenario::TABLE3[4].random_mix(catalog, &mut rng)
}

fn replay_l5_oracle(mix: &[workloads::mixes::MixEntry]) -> f64 {
    use colocate::scheduler::{run_schedule, PolicyKind, SchedulerConfig};
    let catalog = bench_suite::catalog();
    let config = SchedulerConfig::default();
    run_schedule(PolicyKind::Oracle, catalog, mix, None, &config, 3)
        .expect("schedule completes")
        .makespan_secs
}

fn bench_monitor_storm(c: &mut Criterion) {
    let (monitor, eng) = warm_monitor(16);
    c.bench_function("hotpath_monitor_query_storm", |b| {
        b.iter(|| black_box(monitor_storm(&monitor, &eng)))
    });
}

fn bench_engine_steps(c: &mut Criterion) {
    for nodes in [4usize, 16, 40] {
        let mut eng = loaded_engine(nodes);
        c.bench_function(&format!("hotpath_engine_step_{nodes}n"), |b| {
            b.iter(|| black_box(engine_step(&mut eng)))
        });
    }
}

fn bench_mix_replay(c: &mut Criterion) {
    let mix = l5_mix();
    c.bench_function("hotpath_mix_replay_L5_oracle", |b| {
        b.iter(|| black_box(replay_l5_oracle(&mix)))
    });
}

criterion_group!(
    benches,
    bench_monitor_storm,
    bench_engine_steps,
    bench_mix_replay
);

// ---------------------------------------------------------------------------
// Median recorder for results/BENCH_hotpath.json.

/// Median seconds per call of `f` over `samples` timed samples of
/// `iters` calls each (after one warm-up sample).
fn median_secs<R>(iters: usize, samples: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters {
        black_box(f());
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            started.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    per_iter[per_iter.len() / 2]
}

/// Runs every case once through the median recorder, in a fixed order.
fn recorded_cases() -> Vec<(&'static str, f64)> {
    let mut cases: Vec<(&'static str, f64)> = Vec::new();
    {
        let (monitor, eng) = warm_monitor(16);
        cases.push((
            "monitor_query_storm",
            median_secs(8, 15, || monitor_storm(&monitor, &eng)),
        ));
    }
    {
        let mut eng = loaded_engine(4);
        cases.push((
            "engine_step_4n",
            median_secs(2_000, 15, || engine_step(&mut eng)),
        ));
    }
    {
        let mut eng = loaded_engine(16);
        cases.push((
            "engine_step_16n",
            median_secs(500, 15, || engine_step(&mut eng)),
        ));
    }
    {
        let mut eng = loaded_engine(40);
        cases.push((
            "engine_step_40n",
            median_secs(200, 15, || engine_step(&mut eng)),
        ));
    }
    {
        let mix = l5_mix();
        cases.push((
            "mix_replay_L5_oracle",
            median_secs(1, 7, || replay_l5_oracle(&mix)),
        ));
    }
    cases
}

fn fig06_secs_env() -> Option<f64> {
    std::env::var("SPARK_MOE_FIG06_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Serialises one run's medians: one `{"name":...,"median_secs":...}` per
/// line inside a `cases` array, plus the optional fig06 wall clock.
fn medians_json(cases: &[(&str, f64)], fig06: Option<f64>) -> String {
    let mut out = String::from("{\"cases\":[\n");
    for (i, (name, secs)) in cases.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":{},\"median_secs\":{}}}{}\n",
            bench_suite::report::json_str(name),
            bench_suite::report::json_num(*secs),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    out.push_str("],\"fig06_wall_secs\":");
    out.push_str(&match fig06 {
        Some(v) => bench_suite::report::json_num(v),
        None => "null".to_string(),
    });
    out.push_str("}\n");
    out
}

/// Pulls `(name, median_secs)` pairs back out of a baseline file written
/// by [`medians_json`]. Line-oriented on purpose: no JSON dependency.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"name\":\"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once("\",\"median_secs\":") else {
            continue;
        };
        let value = rest.trim_end_matches(['}', ',', ' ']);
        if let Ok(secs) = value.parse::<f64>() {
            out.push((name.to_string(), secs));
        }
    }
    out
}

fn parse_baseline_fig06(text: &str) -> Option<f64> {
    let (_, rest) = text.split_once("\"fig06_wall_secs\":")?;
    rest.trim_end()
        .trim_end_matches('}')
        .trim()
        .parse::<f64>()
        .ok()
}

fn write_report(baseline_path: &str, cases: &[(&str, f64)]) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hotpath: cannot read baseline {baseline_path}: {e}");
            return;
        }
    };
    let before = parse_baseline(&text);
    let fig06_before = parse_baseline_fig06(&text);
    let fig06_after = fig06_secs_env();
    let mut out = String::from("{\"cases\":[\n");
    let mut first = true;
    for (name, after) in cases {
        let Some((_, before_secs)) = before.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":{},\"before_secs\":{},\"after_secs\":{},\"speedup\":{}}}",
            bench_suite::report::json_str(name),
            bench_suite::report::json_num(*before_secs),
            bench_suite::report::json_num(*after),
            bench_suite::report::json_num(before_secs / after.max(1e-15)),
        ));
    }
    out.push_str("\n],\"fig06_wall_secs\":{\"before\":");
    out.push_str(&fig06_before.map_or("null".into(), bench_suite::report::json_num));
    out.push_str(",\"after\":");
    out.push_str(&fig06_after.map_or("null".into(), bench_suite::report::json_num));
    out.push_str("}}\n");
    // Anchor at the workspace root: cargo runs benches with the *package*
    // directory as cwd, but every other artifact lands in the top-level
    // `results/`.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    match bench_suite::fsutil::atomic_write_in(&results, "BENCH_hotpath.json", &out) {
        Ok(path) => println!("hotpath record written to {}", path.display()),
        Err(e) => eprintln!("hotpath: cannot write results/BENCH_hotpath.json: {e}"),
    }
}

fn main() {
    let record_out = std::env::var("SPARK_MOE_HOTPATH_OUT").ok();
    let baseline = std::env::var("SPARK_MOE_HOTPATH_BASELINE").ok();
    if record_out.is_none() && baseline.is_none() {
        benches();
        return;
    }
    let cases = recorded_cases();
    for (name, secs) in &cases {
        println!("{name}: median {:.3} µs", secs * 1e6);
    }
    if let Some(path) = record_out {
        let json = medians_json(&cases, fig06_secs_env());
        if let Err(e) = simkit::wire::atomic_write(std::path::Path::new(&path), json.as_bytes()) {
            eprintln!("hotpath: cannot write {path}: {e}");
        } else {
            println!("hotpath medians written to {path}");
        }
    }
    if let Some(path) = baseline {
        write_report(&path, &cases);
    }
}
