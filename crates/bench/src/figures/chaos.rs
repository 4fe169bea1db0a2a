//! Faults and overload (extensions): Figs. 19 and 21.

use super::Size;
use crate::csv::{num, write_record, CsvTable};
use crate::mlcamp::CampaignError;
use crate::report::{chaos_stats_json, openloop_stats_json};
use crate::whisker;
use colocate::harness::{evaluate_chaos, isolated_times_custom, ChaosEntry, ChaosSpec, RunConfig};
use colocate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::service::{evaluate_openloop, AdmissionConfig, OpenLoopEntry, OpenLoopSpec};
use simkit::arrivals::ArrivalProcess;
use sparklite::cluster::ClusterSpec;
use std::path::Path;
use workloads::MixScenario;

/// Fig. 19 (extension): throughput under injected faults — STP and ANTT
/// for the self-healing MoE scheduler vs plain MoE, Pairwise and Oracle
/// as the fault intensity rises.
///
/// Every entry replays the *same* mixes against the *same* seeded
/// [`FaultPlan`](simkit::faults::FaultPlan) per mix (node crashes,
/// executor crash-restarts, monitor dropouts, prediction noise), so the
/// curves differ only in scheduling policy and recovery behaviour.
/// Intensity 0 injects nothing and reproduces the fault-free campaign bit
/// for bit.
pub fn fig19_chaos(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    const INTENSITIES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];
    let catalog = crate::catalog();
    let config = RunConfig::default();
    let mixes = size.mixes;
    let scenario = MixScenario::TABLE3[3]; // L4: 9 applications
    let entries = [
        (
            "Ours (self-healing)",
            PolicyKind::Moe,
            ResilienceConfig::self_healing(),
        ),
        ("Ours (plain)", PolicyKind::Moe, ResilienceConfig::default()),
        (
            "Pairwise",
            PolicyKind::Pairwise,
            ResilienceConfig::default(),
        ),
        ("Oracle", PolicyKind::Oracle, ResilienceConfig::default()),
    ]
    .map(|(label, policy, resilience)| ChaosEntry {
        label,
        policy,
        resilience,
    });

    println!(
        "Fig. 19: fault tolerance on {} ({} apps), {mixes} shared mixes per intensity",
        scenario.name(),
        scenario.apps
    );

    let all_stats = INTENSITIES
        .into_iter()
        .map(|intensity| {
            let chaos = ChaosSpec::at_intensity(intensity);
            evaluate_chaos(&entries, scenario, catalog, &config, mixes, 42, &chaos)
        })
        .collect::<Result<Vec<_>, _>>()?;

    println!("\n(a) normalized STP  —  mean [min, max]");
    print!("{:<10}", "intensity");
    for e in &entries {
        print!(" {:>20}", e.label);
    }
    println!();
    for stats in &all_stats {
        print!("{:<10.1}", stats.intensity);
        for s in &stats.per_entry {
            print!(" {:>6.2} {:>13}", s.stp_mean, whisker(s.stp_min_max));
        }
        println!();
    }

    println!("\n(b) ANTT reduction (%)  —  higher is better");
    print!("{:<10}", "intensity");
    for e in &entries {
        print!(" {:>20}", e.label);
    }
    println!();
    for stats in &all_stats {
        print!("{:<10.1}", stats.intensity);
        for s in &stats.per_entry {
            print!(" {:>20.1}", s.antt_mean);
        }
        println!();
    }

    println!("\n(c) delivered faults and recovery actions (summed over mixes)");
    println!(
        "{:<10} {:<22} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>6} {:>6}",
        "intensity",
        "entry",
        "nodeX",
        "execX",
        "dropM",
        "noise",
        "requeGB",
        "retries",
        "quar",
        "fallbk"
    );
    for stats in &all_stats {
        for s in &stats.per_entry {
            let f = &s.faults;
            println!(
                "{:<10.1} {:<22} {:>6} {:>6} {:>6} {:>6} {:>8.1} {:>8} {:>6} {:>6}",
                stats.intensity,
                s.label,
                f.node_crashes,
                f.executor_crashes,
                f.monitor_dropouts,
                f.prediction_noise,
                f.slices_requeued_gb,
                f.retries,
                f.quarantines,
                f.isolated_fallbacks
            );
        }
    }

    if let Some(dir) = records {
        let mut table = CsvTable::new("intensity,entry,stp_mean,stp_min,stp_max,antt_reduction_pct,oom_kills_mean,retries,quarantines,isolated_fallbacks".split(','));
        for stats in &all_stats {
            for s in &stats.per_entry {
                table.push([
                    num(stats.intensity),
                    s.label.to_string(),
                    num(s.stp_mean),
                    num(s.stp_min_max.0),
                    num(s.stp_min_max.1),
                    num(s.antt_mean),
                    num(s.oom_kills_mean),
                    s.faults.retries.to_string(),
                    s.faults.quarantines.to_string(),
                    s.faults.isolated_fallbacks.to_string(),
                ]);
            }
        }
        let path = table.write_to(dir, "fig19_chaos")?;
        println!("\nCSV series written to {}", path.display());
        let json = chaos_stats_json(&all_stats);
        let path = write_record(dir, "BENCH_fig19_chaos.json", &json)?;
        println!("JSON record written to {}", path.display());
    }

    // Headline: what self-healing buys at the highest stress level.
    let last = all_stats.last().ok_or("at least one intensity")?;
    let healed = &last.per_entry[0];
    let plain = &last.per_entry[1];
    println!("\nHeadline at intensity {:.1}:", last.intensity);
    println!(
        "  self-healing vs plain MoE:  STP {:.2}x vs {:.2}x, ANTT reduction {:.1}% vs {:.1}%",
        healed.stp_mean, plain.stp_mean, healed.antt_mean, plain.antt_mean
    );
    Ok(())
}

/// Fig. 21 (extension): open-system streaming under overload — tail job
/// slowdown (p50/p95/p99), queue depth, shed/abstain counts and OOM kills
/// for the admission-controlled MoE service against uncontrolled
/// open-system baselines, as the offered load rises past capacity.
///
/// Jobs arrive from a seeded Poisson [`ArrivalPlan`](simkit::arrivals::ArrivalPlan)
/// at `load × capacity`, where capacity is measured from the job classes'
/// mean isolated time. Each load level keeps the *expected job count*
/// ([`Size::openloop_jobs`]) constant by shrinking the horizon, so higher
/// load means the same work crammed into less time. A full-intensity
/// fault storm — spot preemptions plus heavy prediction noise delivered
/// across the whole horizon — is replayed identically against every
/// entry.
///
/// The stage is a 2-node edge slice running memory-hungry 100 GB
/// linear-family jobs: the one regime where an uncontrolled open system
/// genuinely pages itself into OOM kills (wider clusters dilute a
/// mispredicted job's executors until swap absorbs the overshoot, which
/// demonstrates nothing). Admission booking against RAM+swap keeps two
/// jobs in flight, the shed watermark drops the unserviceable excess of
/// a 3× storm, and the circuit breaker covers OOM bursts — see
/// `AdmissionConfig::controlled`.
pub fn fig21_openloop(size: &Size, records: Option<&Path>) -> Result<(), CampaignError> {
    const LOADS: [f64; 3] = [0.5, 1.5, 3.0];
    const BASE_SEED: u64 = 42;
    let catalog = crate::catalog();
    // A 2-node slice of paper-spec hardware: dense enough that a
    // mispredicted 100 GB job concentrates its executors instead of
    // diluting them across the cluster — the regime where co-location
    // can actually kill.
    let config = RunConfig {
        scheduler: SchedulerConfig {
            cluster: ClusterSpec::small(2),
            ..SchedulerConfig::default()
        },
        ..RunConfig::default()
    };
    let (expected_jobs, replications) = (size.openloop_jobs, size.openloop_reps);
    let (controlled, open) = (AdmissionConfig::controlled(), AdmissionConfig::default());
    let healing = ResilienceConfig::self_healing();
    let entries = [
        ("admission (ours)", controlled, healing),
        ("no admission (self-healing)", open, healing),
        ("no admission (plain)", open, ResilienceConfig::default()),
    ]
    .map(|(label, admission, resilience)| OpenLoopEntry {
        label,
        policy: PolicyKind::Moe,
        admission,
        resilience,
    });

    // Linear-family, low-CPU classes: the CPU guard admits several per
    // host, so memory prediction alone decides whether a node pages —
    // the same universe `tests/failure_injection.rs` uses to prove OOMs
    // reachable.
    let job_classes = ["SP.NaiveBayes", "BDB.NaivesBayes", "HB.Bayes", "SP.Pearson"]
        .into_iter()
        .map(|name| Ok((catalog.by_name(name).ok_or(name)?.index(), 100.0)))
        .collect::<Result<Vec<(usize, f64)>, &str>>()?;

    // Service capacity from the classes' mean isolated time: 1/mean_iso
    // jobs per second is what a serialised cluster sustains; co-location
    // raises that, so load 3.0 is a genuine overload storm.
    let iso = isolated_times_custom(catalog, &job_classes, &config.scheduler, BASE_SEED)?;
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

    let all_stats = LOADS
        .into_iter()
        .map(|load| {
            let spec = OpenLoopSpec {
                process: ArrivalProcess::Poisson {
                    rate_per_sec: load / mean_iso,
                },
                horizon_secs: expected_jobs as f64 * mean_iso / load,
                tenants: 3,
                tenant_weights: Vec::new(),
                job_classes: job_classes.clone(),
                max_jobs: expected_jobs * 2,
                chaos,
                replications,
            };
            Ok((
                load,
                evaluate_openloop(&entries, catalog, &config, &spec, BASE_SEED)?,
            ))
        })
        .collect::<Result<Vec<_>, CampaignError>>()?;

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

    if let Some(dir) = records {
        let mut table = CsvTable::new("load_factor,entry,arrivals,finished,shed,slowdown_p50,slowdown_p95,slowdown_p99,oom_kills,deferrals,abstain_placements,breaker_trips,max_queue_depth,mean_queue_depth".split(','));
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
        let path = table.write_to(dir, "fig21_openloop")?;
        println!("\nCSV series written to {}", path.display());
        let json = openloop_stats_json(&all_stats);
        let path = write_record(dir, "BENCH_openloop.json", &json)?;
        println!("JSON record written to {}", path.display());
    }

    // Headline: what admission control buys in the overload storm.
    let (load, storm) = all_stats.last().ok_or("at least one load")?;
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
    Ok(())
}
