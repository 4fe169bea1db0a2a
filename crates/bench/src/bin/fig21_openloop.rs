//! Fig. 21 (extension): open-system streaming under overload — tail job
//! slowdown (p50/p95/p99), queue depth, shed/abstain counts and OOM kills
//! for the admission-controlled MoE service against uncontrolled
//! open-system baselines, as the offered load rises past capacity.
//!
//! Jobs arrive from a seeded Poisson [`ArrivalPlan`](simkit::arrivals::ArrivalPlan)
//! at `load × capacity`, where capacity is measured from the job classes'
//! mean isolated time. Each load level keeps the *expected job count*
//! constant by shrinking the horizon, so higher load means the same work
//! crammed into less time. A full-intensity fault storm — spot
//! preemptions plus heavy prediction noise delivered across the whole
//! horizon — is replayed identically against every entry.
//!
//! The stage is a 2-node edge slice running memory-hungry 100 GB
//! linear-family jobs: the one regime where an uncontrolled open system
//! genuinely pages itself into OOM kills (wider clusters dilute a
//! mispredicted job's executors until swap absorbs the overshoot, which
//! demonstrates nothing). Admission booking against RAM+swap keeps two
//! jobs in flight, the shed watermark drops the unserviceable excess of
//! a 3× storm, and the circuit breaker covers OOM bursts — see
//! `AdmissionConfig::controlled`.
//!
//! Env knobs: `SPARK_MOE_OPENLOOP_JOBS` (expected arrivals per
//! replication, default 18), `SPARK_MOE_OPENLOOP_REPS` (replications per
//! load, default 3).

use bench_suite::csv::{csv_dir, num, CsvTable};
use colocate::harness::{isolated_times_custom, ChaosSpec, RunConfig};
use colocate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::service::{evaluate_openloop, AdmissionConfig, OpenLoopEntry, OpenLoopSpec};
use simkit::arrivals::ArrivalProcess;
use sparklite::cluster::ClusterSpec;

const LOADS: [f64; 3] = [0.5, 1.5, 3.0];
const BASE_SEED: u64 = 42;

fn entries() -> Vec<OpenLoopEntry> {
    vec![
        OpenLoopEntry {
            label: "admission (ours)",
            policy: PolicyKind::Moe,
            admission: AdmissionConfig::controlled(),
            resilience: ResilienceConfig::self_healing(),
        },
        OpenLoopEntry {
            label: "no admission (self-healing)",
            policy: PolicyKind::Moe,
            admission: AdmissionConfig::default(),
            resilience: ResilienceConfig::self_healing(),
        },
        OpenLoopEntry {
            label: "no admission (plain)",
            policy: PolicyKind::Moe,
            admission: AdmissionConfig::default(),
            resilience: ResilienceConfig::default(),
        },
    ]
}

fn main() {
    let catalog = bench_suite::catalog();
    // A 2-node slice of paper-spec hardware: dense enough that a
    // mispredicted 100 GB job concentrates its executors instead of
    // diluting them across the cluster — the regime where co-location
    // can actually kill.
    let config = RunConfig {
        scheduler: SchedulerConfig {
            cluster: ClusterSpec::small(2),
            ..SchedulerConfig::default()
        },
        ..bench_suite::paper_run_config()
    };
    let expected_jobs = bench_suite::env_count("SPARK_MOE_OPENLOOP_JOBS", 18);
    let replications = bench_suite::env_count("SPARK_MOE_OPENLOOP_REPS", 3);
    let entries = entries();

    // Linear-family, low-CPU classes: the CPU guard admits several per
    // host, so memory prediction alone decides whether a node pages —
    // the same universe `tests/failure_injection.rs` uses to prove OOMs
    // reachable.
    let job_classes: Vec<(usize, f64)> = [
        ("SP.NaiveBayes", 100.0),
        ("BDB.NaivesBayes", 100.0),
        ("HB.Bayes", 100.0),
        ("SP.Pearson", 100.0),
    ]
    .iter()
    .map(|&(name, gb)| {
        let b = catalog.by_name(name).expect("catalog benchmark");
        (b.index(), gb)
    })
    .collect();

    // Service capacity from the classes' mean isolated time: 1/mean_iso
    // jobs per second is what a serialised cluster sustains; co-location
    // raises that, so load 3.0 is a genuine overload storm.
    let iso = isolated_times_custom(catalog, &job_classes, &config.scheduler, BASE_SEED)
        .expect("isolated baselines");
    let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
    // Full-intensity chaos with heavy prediction noise struck anywhere in
    // the horizon (`noise_window_frac: 1.0`): an open system fills up over
    // time, so confining mispredictions to the opening instants — the
    // closed-loop default — would let every storm land on an empty
    // cluster.
    let chaos = ChaosSpec {
        intensity: 1.0,
        spot_rate: 0.5,
        noise_sd: 1.5,
        noise_window_frac: 1.0,
        ..ChaosSpec::default()
    };

    println!(
        "Fig. 21: open-system streaming, {} job classes, ~{expected_jobs} arrivals/rep, \
         {replications} reps/load, fault intensity {:.1}",
        job_classes.len(),
        chaos.intensity
    );
    println!(
        "capacity estimate: mean isolated time {:.0} s -> {:.4} jobs/s",
        mean_iso,
        1.0 / mean_iso
    );

    let mut all_stats = Vec::new();
    for load in LOADS {
        let rate = load / mean_iso;
        let horizon = expected_jobs as f64 * mean_iso / load;
        let spec = OpenLoopSpec {
            process: ArrivalProcess::Poisson { rate_per_sec: rate },
            horizon_secs: horizon,
            tenants: 3,
            tenant_weights: Vec::new(),
            job_classes: job_classes.clone(),
            max_jobs: expected_jobs * 2,
            chaos,
            replications,
        };
        let stats = evaluate_openloop(&entries, catalog, &config, &spec, BASE_SEED)
            .expect("open-loop campaign");
        all_stats.push((load, stats));
    }

    println!("\n(a) job slowdown (turnaround / isolated)  —  p50 / p95 / p99");
    print!("{:<6}", "load");
    for e in &entries {
        print!(" {:>30}", e.label);
    }
    println!();
    for (load, stats) in &all_stats {
        print!("{load:<6.1}");
        for s in &stats.per_entry {
            print!(
                " {:>8.2} {:>9.2} {:>11.2}",
                s.slowdown_p50, s.slowdown_p95, s.slowdown_p99
            );
        }
        println!();
    }

    println!("\n(b) robustness counters (summed over replications)");
    println!(
        "{:<6} {:<28} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>7} {:>8}",
        "load",
        "entry",
        "arriv",
        "done",
        "shed",
        "ooms",
        "defer",
        "abstain",
        "trips",
        "maxQ",
        "meanQ"
    );
    for (load, stats) in &all_stats {
        for s in &stats.per_entry {
            println!(
                "{:<6.1} {:<28} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6} {:>7} {:>8.2}",
                load,
                s.label,
                s.arrivals,
                s.finished,
                s.shed,
                s.oom_kills,
                s.deferrals,
                s.abstain_placements,
                s.breaker_trips,
                s.max_queue_depth,
                s.mean_queue_depth
            );
        }
    }

    println!("\n(c) fault delivery and self-healing (summed over replications)");
    println!(
        "{:<6} {:<28} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6}",
        "load", "entry", "nodeX", "execX", "spot", "drain", "retries", "quar", "fallbk"
    );
    for (load, stats) in &all_stats {
        for s in &stats.per_entry {
            let f = &s.faults;
            println!(
                "{:<6.1} {:<28} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>6}",
                load,
                s.label,
                f.node_crashes,
                f.executor_crashes,
                f.spot_preemptions,
                f.drains,
                f.retries,
                f.quarantines,
                f.isolated_fallbacks
            );
        }
    }

    if let Some(dir) = csv_dir() {
        let mut table = CsvTable::new([
            "load_factor",
            "entry",
            "arrivals",
            "finished",
            "shed",
            "slowdown_p50",
            "slowdown_p95",
            "slowdown_p99",
            "oom_kills",
            "deferrals",
            "abstain_placements",
            "breaker_trips",
            "max_queue_depth",
            "mean_queue_depth",
        ]);
        for (load, stats) in &all_stats {
            for s in &stats.per_entry {
                table.push([
                    num(*load),
                    s.label.to_string(),
                    s.arrivals.to_string(),
                    s.finished.to_string(),
                    s.shed.to_string(),
                    num(s.slowdown_p50),
                    num(s.slowdown_p95),
                    num(s.slowdown_p99),
                    s.oom_kills.to_string(),
                    s.deferrals.to_string(),
                    s.abstain_placements.to_string(),
                    s.breaker_trips.to_string(),
                    s.max_queue_depth.to_string(),
                    num(s.mean_queue_depth),
                ]);
            }
        }
        if let Ok(path) = table.write_to(&dir, "fig21_openloop") {
            println!("\nCSV series written to {}", path.display());
        }
        let json = bench_suite::report::openloop_stats_json(&all_stats);
        if let Ok(path) = bench_suite::fsutil::atomic_write_in(&dir, "BENCH_openloop.json", &json) {
            println!("JSON record written to {}", path.display());
        }
    }

    // Headline: what admission control buys in the overload storm.
    let (load, storm) = all_stats.last().expect("at least one load");
    let ours = &storm.per_entry[0];
    let base = &storm.per_entry[1];
    println!(
        "\nHeadline at load {load:.1}x (fault intensity {:.1}):",
        chaos.intensity
    );
    println!(
        "  admission vs no-admission:  p99 slowdown {:.2} vs {:.2}, OOM kills {} vs {}",
        ours.slowdown_p99, base.slowdown_p99, ours.oom_kills, base.oom_kills
    );
    let better = ours.slowdown_p99 < base.slowdown_p99 && ours.oom_kills < base.oom_kills;
    println!(
        "  overload robustness criterion (p99 AND OOMs strictly lower): {}",
        if better { "MET" } else { "NOT MET" }
    );
}
