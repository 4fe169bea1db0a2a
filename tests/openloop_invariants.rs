//! Open-system invariants: the streaming service must collapse to the
//! closed-system scheduler when nothing open-system is enabled (batch
//! arrivals, no admission), must stay bit-identical across worker counts
//! all the way through the JSON record, must conserve work under load
//! shedding, and the admission-controlled configuration must beat the
//! uncontrolled open system in an overload storm — the PR's acceptance
//! bar, pinned at test scale.

use bench_suite::report::openloop_stats_json;
use colocate::harness::{isolated_times_custom, trained_system_for, ChaosSpec, RunConfig};
use colocate::scheduler::{
    run_schedule_custom, run_schedule_with_faults, PolicyKind, ResilienceConfig, SchedulerConfig,
};
use colocate::service::{
    evaluate_openloop, run_service, AdmissionConfig, OpenLoopEntry, OpenLoopSpec, ServiceConfig,
};
use simkit::arrivals::{ArrivalPlan, ArrivalProcess};
use simkit::faults::{FaultPlan, FaultPlanConfig};
use sparklite::cluster::ClusterSpec;
use workloads::mixes::InputSize;
use workloads::Catalog;

fn small_config(nodes: usize) -> SchedulerConfig {
    SchedulerConfig {
        cluster: ClusterSpec::small(nodes),
        ..Default::default()
    }
}

fn classes_of(catalog: &Catalog, names: &[&str], size: InputSize) -> Vec<(usize, f64)> {
    names
        .iter()
        .map(|n| (catalog.by_name(n).unwrap().index(), size.gb()))
        .collect()
}

/// With a batch plan (every job at t = 0) and admission disabled, the
/// open-system service is the closed-system scheduler, bit for bit. The
/// table crosses every predictive policy with a fault-free and a faulted,
/// self-healing run, plus the small Oracle mix the service's own unit
/// tests used to pin; each cell compares the makespan, every finish,
/// the OOM count and the fault counters.
#[test]
fn batch_plan_without_admission_is_bit_identical_to_the_closed_system() {
    let catalog = Catalog::paper();
    let run_config = RunConfig {
        scheduler: small_config(4),
        ..Default::default()
    };
    let system = trained_system_for(PolicyKind::Moe, &catalog, &run_config, 13)
        .unwrap()
        .unwrap();
    let four = classes_of(
        &catalog,
        &["HB.Sort", "HB.PageRank", "BDB.Grep", "SP.Kmeans"],
        InputSize::Medium,
    );
    let three = classes_of(
        &catalog,
        &["HB.Sort", "HB.PageRank", "BDB.Grep"],
        InputSize::Medium,
    );
    let storm = |apps: usize| {
        FaultPlan::generate(
            0x0BA7_C4ED,
            &FaultPlanConfig {
                intensity: 0.6,
                horizon_secs: 4_000.0,
                nodes: 4,
                apps,
                ..Default::default()
            },
        )
    };
    // (policy, jobs, seed, faulted)
    let cells = [
        PolicyKind::Moe,
        PolicyKind::Quasar,
        PolicyKind::UnifiedAnn,
        PolicyKind::OnlineSearch,
        PolicyKind::Oracle,
    ]
    .into_iter()
    .flat_map(|p| [(p, &four[..], 13, false), (p, &four[..], 13, true)])
    .chain([(PolicyKind::Oracle, &three[..], 7, false)]);

    for (policy, jobs, seed, faulted) in cells {
        let label = format!("{policy:?} seed {seed} faulted {faulted}");
        let faults = faulted.then(|| storm(jobs.len()));
        let sched = SchedulerConfig {
            resilience: if faulted {
                ResilienceConfig::self_healing()
            } else {
                ResilienceConfig::default()
            },
            ..small_config(4)
        };
        let closed = match &faults {
            Some(plan) => {
                run_schedule_with_faults(policy, &catalog, jobs, Some(&system), &sched, seed, plan)
            }
            None => run_schedule_custom(policy, &catalog, jobs, Some(&system), &sched, seed),
        }
        .unwrap();

        let plan = ArrivalPlan::batch(&(0..jobs.len()).map(|i| (0, i)).collect::<Vec<_>>());
        let config = ServiceConfig {
            scheduler: sched,
            admission: AdmissionConfig::default(),
            tenant_weights: Vec::new(),
            job_classes: jobs.to_vec(),
        };
        let open = run_service(
            policy,
            &catalog,
            &plan,
            Some(&system),
            &config,
            seed,
            faults.as_ref(),
        )
        .unwrap();

        assert_eq!(
            open.makespan_secs.to_bits(),
            closed.makespan_secs.to_bits(),
            "{label}: batch plan + disabled admission must reproduce the closed loop"
        );
        assert_eq!(open.oom_kills, closed.oom_kills, "{label}");
        assert_eq!(open.faults, closed.faults, "{label}");
        assert_eq!(open.jobs.len(), closed.per_app.len(), "{label}");
        for (j, a) in open.jobs.iter().zip(closed.per_app.iter()) {
            assert_eq!(
                j.finished_at.map(f64::to_bits),
                Some(a.finished_at.to_bits()),
                "{label}"
            );
            assert_eq!(j.arrived_at.to_bits(), 0.0f64.to_bits(), "{label}");
        }
        assert_eq!(open.shed_jobs, 0, "{label}");
        assert_eq!(open.deferrals, 0, "{label}");
        assert_eq!(open.abstain_placements, 0, "{label}");
        assert_eq!(open.breaker_trips, 0, "{label}");
    }
}

/// A zero-rate arrival process draws nothing; the campaign must report
/// empty folds instead of erroring out.
#[test]
fn zero_rate_campaigns_fold_to_empty_stats() {
    let catalog = Catalog::paper();
    let config = RunConfig {
        scheduler: small_config(4),
        ..Default::default()
    };
    let spec = OpenLoopSpec {
        process: ArrivalProcess::Poisson { rate_per_sec: 0.0 },
        horizon_secs: 1_000.0,
        tenants: 1,
        tenant_weights: Vec::new(),
        job_classes: classes_of(&catalog, &["HB.Sort"], InputSize::Small),
        max_jobs: 0,
        chaos: ChaosSpec::at_intensity(0.0),
        replications: 2,
    };
    let entries = [OpenLoopEntry {
        label: "oracle",
        policy: PolicyKind::Oracle,
        admission: AdmissionConfig::controlled(),
        resilience: ResilienceConfig::default(),
    }];
    let stats = evaluate_openloop(&entries, &catalog, &config, &spec, 3).unwrap();
    let e = &stats.per_entry[0];
    assert_eq!((e.arrivals, e.finished, e.shed), (0, 0, 0));
    assert!(e.slowdown_p99.is_nan(), "no jobs, no tail");
}

/// The whole open-loop record — including the serialised JSON artifact —
/// must be bit-identical at every worker count.
#[test]
fn open_loop_campaigns_are_worker_count_bit_identical() {
    let catalog = Catalog::paper();
    let job_classes = classes_of(&catalog, &["HB.Sort", "BDB.Grep"], InputSize::Small);
    let iso = isolated_times_custom(&catalog, &job_classes, &small_config(4), 5).unwrap();
    let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
    let entries = [
        OpenLoopEntry {
            label: "admission",
            policy: PolicyKind::Oracle,
            admission: AdmissionConfig::controlled(),
            resilience: ResilienceConfig::self_healing(),
        },
        OpenLoopEntry {
            label: "open",
            policy: PolicyKind::Oracle,
            admission: AdmissionConfig::default(),
            resilience: ResilienceConfig::default(),
        },
    ];
    let spec = OpenLoopSpec {
        process: ArrivalProcess::Poisson {
            rate_per_sec: 1.5 / mean_iso,
        },
        horizon_secs: 6.0 * mean_iso,
        tenants: 2,
        tenant_weights: Vec::new(),
        job_classes,
        max_jobs: 10,
        chaos: ChaosSpec {
            intensity: 0.3,
            spot_rate: 0.5,
            ..ChaosSpec::default()
        },
        replications: 3,
    };
    let run = |workers: usize| {
        let config = RunConfig {
            scheduler: small_config(4),
            workers: Some(workers),
            ..Default::default()
        };
        let stats = evaluate_openloop(&entries, &catalog, &config, &spec, 5).unwrap();
        openloop_stats_json(&[(1.5, stats)])
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(
        serial, parallel,
        "BENCH_openloop.json must not depend on the worker count"
    );
    assert!(serial.contains("\"spot_preemptions\""));
}

/// Load shedding bounds the queue but never loses a kept job: every
/// arrival either finishes or is counted shed, nothing in between.
#[test]
fn shedding_conserves_work_across_a_campaign() {
    let catalog = Catalog::paper();
    let config = RunConfig {
        scheduler: small_config(4),
        ..Default::default()
    };
    let job_classes = classes_of(&catalog, &["HB.Sort"], InputSize::Small);
    let iso = isolated_times_custom(&catalog, &job_classes, &config.scheduler, 8).unwrap();
    let entries = [OpenLoopEntry {
        label: "tiny queue",
        policy: PolicyKind::Oracle,
        admission: AdmissionConfig {
            enabled: true,
            queue_capacity: 2,
            shed_watermark: 1,
            // Headroom so tight admission serialises: the queue must build
            // past the watermark and shed.
            headroom_frac: 0.01,
            ..AdmissionConfig::default()
        },
        resilience: ResilienceConfig::default(),
    }];
    let spec = OpenLoopSpec {
        process: ArrivalProcess::Poisson {
            rate_per_sec: 4.0 / iso[0],
        },
        horizon_secs: 4.0 * iso[0],
        tenants: 3,
        tenant_weights: vec![2.0, 1.0, 1.0],
        job_classes,
        max_jobs: 16,
        chaos: ChaosSpec::at_intensity(0.0),
        replications: 2,
    };
    let stats = evaluate_openloop(&entries, &catalog, &config, &spec, 8).unwrap();
    let e = &stats.per_entry[0];
    assert!(e.arrivals > 0, "the overloaded process must draw arrivals");
    assert_eq!(
        e.finished + e.shed,
        e.arrivals,
        "every arrival either finishes or is shed"
    );
    assert!(e.shed > 0, "a 4x-overloaded 2-slot queue must shed");
    assert!(e.max_queue_depth <= 2 + 1);
}

/// The acceptance bar, pinned at exactly the `fig21_openloop` storm cell:
/// a 2-node edge slice, memory-hungry linear-family 100 GB jobs arriving
/// at 3× service capacity under full-intensity chaos (spot preemptions,
/// prediction noise across the whole horizon). The admission-controlled
/// self-healing MoE must keep both the p99 job slowdown and the OOM count
/// strictly below the same policy with admission disabled.
#[test]
fn admission_control_beats_the_open_system_in_an_overload_storm() {
    let catalog = Catalog::paper();
    let config = RunConfig {
        scheduler: small_config(2),
        ..Default::default()
    };
    let job_classes: Vec<(usize, f64)> =
        ["SP.NaiveBayes", "BDB.NaivesBayes", "HB.Bayes", "SP.Pearson"]
            .iter()
            .map(|n| (catalog.by_name(n).unwrap().index(), 100.0))
            .collect();
    let iso = isolated_times_custom(&catalog, &job_classes, &config.scheduler, 42).unwrap();
    let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
    let entries = [
        OpenLoopEntry {
            label: "admission",
            policy: PolicyKind::Moe,
            admission: AdmissionConfig::controlled(),
            resilience: ResilienceConfig::self_healing(),
        },
        OpenLoopEntry {
            label: "no admission",
            policy: PolicyKind::Moe,
            admission: AdmissionConfig::default(),
            resilience: ResilienceConfig::self_healing(),
        },
    ];
    let spec = OpenLoopSpec {
        process: ArrivalProcess::Poisson {
            rate_per_sec: 3.0 / mean_iso,
        },
        horizon_secs: 18.0 * mean_iso / 3.0,
        tenants: 3,
        tenant_weights: Vec::new(),
        job_classes,
        max_jobs: 36,
        chaos: ChaosSpec {
            intensity: 1.0,
            spot_rate: 0.5,
            noise_sd: 1.5,
            noise_window_frac: 1.0,
            ..ChaosSpec::default()
        },
        replications: 3,
    };
    let stats = evaluate_openloop(&entries, &catalog, &config, &spec, 42).unwrap();
    let (ours, base) = (&stats.per_entry[0], &stats.per_entry[1]);
    assert!(base.arrivals > 0 && base.finished > 0);
    assert!(
        base.oom_kills > 0,
        "the storm must push the uncontrolled system into OOM kills"
    );
    assert!(
        ours.slowdown_p99 < base.slowdown_p99,
        "admission p99 {:.2} must beat open-system p99 {:.2}",
        ours.slowdown_p99,
        base.slowdown_p99
    );
    assert!(
        ours.oom_kills < base.oom_kills,
        "admission OOMs {} must stay below open-system OOMs {}",
        ours.oom_kills,
        base.oom_kills
    );
}
