//! `openloop-storm`: the Fig. 21 storm, open loop in simulated time.
//!
//! Fig. 21's 2-node slice at load 3.0 under a full-intensity fault storm
//! (spot preemptions plus heavy prediction noise across the horizon). The
//! three Fig. 21 entries — admission-controlled MoE, uncontrolled
//! self-healing MoE and uncontrolled plain MoE — each run through
//! `run_service` on the same seeded arrival and fault plans. Plans are
//! drawn exactly as `service::evaluate_openloop` draws them, so at a given
//! seed and size the simulated results are that campaign's.
//!
//! The sample size comes from replications, not a longer horizon:
//! uncontrolled host time grows faster than the backlog. It takes many:
//! a replication's host time varies a lot with its draws (the slowest
//! take several times the median), so a seed's total only steadies past
//! a few hundred replications. At 50 expected arrivals per replication
//! the controlled entry sheds about half and finishes about 10 000 jobs
//! per round.
//!
//! Item: one arrival processed by one entry. Operation: one
//! (replication, entry) service run.

use crate::checks::{audit_violations, check_service};
use crate::digest::Digest;
use crate::metrics::{memo_counters, metric, percentile, ratio};
use crate::runner::{span, RoundReport, Workload, ARRIVALS};
use crate::trace::Tracer;
use colocate::harness::RunConfig;
use colocate::harness::{isolated_times_custom, trained_system_for, BaselineCache, ChaosSpec};
use colocate::predictors::PredictionTable;
use colocate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::service::{run_service, AdmissionConfig, ServiceConfig, ServiceOutcome};
use colocate::training::TrainedSystem;
use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
use simkit::faults::{FaultPlan, FaultPlanConfig};
use sparklite::cluster::ClusterSpec;
use std::sync::Arc;
use workloads::Catalog;

/// Fig. 21's job classes: linear-family, low-CPU, 100 GB inputs.
pub const JOB_CLASSES: [&str; 4] = ["SP.NaiveBayes", "BDB.NaivesBayes", "HB.Bayes", "SP.Pearson"];

/// Offered load as a multiple of the serialised capacity.
pub const LOAD: f64 = 3.0;

/// Index of the admission-controlled entry, whose tail the sim metrics
/// report.
const CONTROLLED: usize = 0;

/// The three Fig. 21 entries, with the tags their spans carry.
#[must_use]
pub fn entries() -> [(&'static str, AdmissionConfig, ResilienceConfig); 3] {
    [
        (
            "controlled",
            AdmissionConfig::controlled(),
            ResilienceConfig::self_healing(),
        ),
        (
            "self_healing",
            AdmissionConfig::default(),
            ResilienceConfig::self_healing(),
        ),
        (
            "plain",
            AdmissionConfig::default(),
            ResilienceConfig::default(),
        ),
    ]
}

/// The storm's shape.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Workload seed.
    pub seed: u64,
    /// Expected arrivals per replication.
    pub expected_jobs: usize,
    /// Replications per round.
    pub replications: usize,
}

impl Storm {
    /// The benchmark's size: 400 replications of 50 expected arrivals.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Storm {
            seed,
            expected_jobs: 50,
            replications: 400,
        }
    }

    /// A size for tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Storm {
            seed,
            expected_jobs: 12,
            replications: 2,
        }
    }

    /// Seed of replication `i`, which `evaluate_openloop` would call
    /// `base_seed + i`. Two seeds share no replication (below 1000
    /// replications); seed 0 replays Fig. 21's own base seed, 42.
    #[must_use]
    pub fn replication_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_mul(1_000)
            .wrapping_add(crate::MODEL_SEED + i as u64)
    }
}

/// What set-up builds.
#[derive(Debug)]
pub struct StormState {
    catalog: Catalog,
    system: TrainedSystem,
    scheduler: SchedulerConfig,
    configs: Vec<ServiceConfig>,
    /// Per replication, its arrival plan and fault storm.
    plans: Vec<(ArrivalPlan, FaultPlan)>,
}

/// Fig. 21's fault storm.
fn chaos() -> ChaosSpec {
    ChaosSpec {
        intensity: 1.0,
        spot_rate: 0.5,
        noise_sd: 1.5,
        noise_window_frac: 1.0,
        ..ChaosSpec::default()
    }
}

impl Workload for Storm {
    type State = StormState;

    fn setup(&self, tracer: &mut Tracer) -> Result<StormState, String> {
        let catalog = tracer.span(span::CATALOG, "", (0, 0), |_| Catalog::paper());
        let config = RunConfig {
            scheduler: SchedulerConfig {
                cluster: ClusterSpec::small(2),
                ..SchedulerConfig::default()
            },
            ..RunConfig::default()
        };
        let system = tracer
            .span(span::TRAINING, "", (0, 0), |_| {
                trained_system_for(PolicyKind::Moe, &catalog, &config, crate::MODEL_SEED)
            })
            .map_err(|e| format!("training: {e}"))?
            .ok_or("MoE trains no system")?;
        let job_classes = JOB_CLASSES
            .iter()
            .map(|&name| {
                let b = catalog
                    .by_name(name)
                    .ok_or(format!("{name} not in catalog"))?;
                Ok((b.index(), 100.0))
            })
            .collect::<Result<Vec<(usize, f64)>, String>>()?;
        // Capacity from the classes' mean isolated time, as Fig. 21 sets it.
        let iso = tracer
            .span(span::CAPACITY, "", (0, 0), |_| {
                isolated_times_custom(&catalog, &job_classes, &config.scheduler, crate::MODEL_SEED)
            })
            .map_err(|e| format!("capacity baselines: {e}"))?;
        let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
        let horizon = self.expected_jobs as f64 * mean_iso / LOAD;
        let chaos = chaos();
        let plans = tracer.span(span::INPUTS, "", (0, 0), |_| {
            let arrivals = ArrivalPlanConfig {
                process: ArrivalProcess::Poisson {
                    rate_per_sec: LOAD / mean_iso,
                },
                horizon_secs: horizon,
                tenants: 3,
                job_classes: job_classes.len(),
                max_jobs: self.expected_jobs * 2,
            };
            (0..self.replications)
                .map(|i| {
                    let seed = self.replication_seed(i);
                    let plan = ArrivalPlan::generate(seed ^ 0xA441_5EED, &arrivals);
                    let storm = FaultPlan::generate(
                        seed ^ 0xC4A0_5EED,
                        &FaultPlanConfig {
                            intensity: chaos.intensity,
                            horizon_secs: horizon,
                            nodes: config.scheduler.cluster.nodes,
                            apps: plan.len(),
                            mean_outage_secs: chaos.mean_outage_secs,
                            mean_dropout_secs: chaos.mean_dropout_secs,
                            noise_sd: chaos.noise_sd,
                            spot_rate: chaos.spot_rate,
                            spot_warning_secs: chaos.spot_warning_secs,
                            noise_window_frac: chaos.noise_window_frac,
                        },
                    );
                    (plan, storm)
                })
                .collect::<Vec<_>>()
        });
        if plans.iter().any(|(p, _)| p.is_empty()) {
            return Err("a replication drew no arrivals".into());
        }
        let configs = entries()
            .iter()
            .map(|&(_, admission, resilience)| ServiceConfig {
                scheduler: SchedulerConfig {
                    resilience,
                    ..config.scheduler.clone()
                },
                admission,
                tenant_weights: Vec::new(),
                job_classes: job_classes.clone(),
            })
            .collect();
        Ok(StormState {
            catalog,
            system,
            scheduler: config.scheduler,
            configs,
            plans,
        })
    }

    fn round(&self, state: &StormState, _round: u32, tracer: &mut Tracer) -> RoundReport {
        // Every round starts from empty memo tables, so every round does
        // the same work.
        let mut system = state.system.clone();
        system.selections = Arc::new(PredictionTable::new());
        let baselines = BaselineCache::new();
        let tags = entries().map(|e| e.0);
        let mut report = RoundReport::default();
        let mut digest = Digest::new();
        let mut slowdowns = Vec::new();
        let (mut arrived, mut shed, mut violations) = (0usize, 0usize, 0usize);
        let mut ctl = Controlled::default();
        for (r, (plan, storm)) in state.plans.iter().enumerate() {
            let seed = self.replication_seed(r);
            for (e, tag) in tags.iter().enumerate() {
                report.attempted += 1;
                let request = (r as u32, e as u32);
                let outcome = report.call(tracer, span::SERVICE, tag, request, || {
                    run_service(
                        PolicyKind::Moe,
                        &state.catalog,
                        plan,
                        Some(&system),
                        &state.configs[e],
                        seed,
                        Some(storm),
                    )
                });
                let outcome = match outcome {
                    Ok(o) => o,
                    Err(err) => {
                        report.fail(format!("replication {r} {tag}: {err}"));
                        continue;
                    }
                };
                violations += audit_violations(&outcome.audit);
                if let Err(err) = check_service(&outcome, plan.len()) {
                    report.fail(format!("replication {r} {tag}: {err}"));
                    continue;
                }
                report.items += outcome.jobs.len() as u64;
                // Slowdown: turnaround over the job's fault-free isolated
                // time, memoized as evaluate_openloop does.
                let slow = report.call(tracer, span::BASELINES, "", request, || {
                    outcome
                        .jobs
                        .iter()
                        .filter_map(|j| j.finished_at.map(|done| (j, done)))
                        .map(|(j, done)| {
                            let job = (j.benchmark, j.input_gb);
                            let iso = baselines.isolated_secs(
                                &state.catalog,
                                job,
                                &state.scheduler,
                                seed,
                            )?;
                            Ok((iso > 0.0).then(|| (done - j.arrived_at) / iso))
                        })
                        .collect::<Result<Vec<Option<f64>>, colocate::ColocateError>>()
                });
                let slow = match slow {
                    Ok(s) => s,
                    Err(err) => {
                        report.fail(format!("replication {r} {tag} baselines: {err}"));
                        continue;
                    }
                };
                digest_service(&mut digest, e, &outcome);
                if e == CONTROLLED {
                    slowdowns.extend(slow.into_iter().flatten());
                    arrived += outcome.jobs.len();
                    shed += outcome.shed_jobs;
                    ctl.add(&outcome);
                }
            }
        }
        for s in &slowdowns {
            digest.f64(*s);
        }
        report.digest = digest.value();
        report.sim = vec![
            metric("slowdown_p50", percentile(&slowdowns, 50.0), "ratio"),
            metric("slowdown_p99", percentile(&slowdowns, 99.0), "ratio"),
            metric("shed_pct", ratio(shed as f64 * 100.0, arrived as f64), "%"),
            metric("oom_kills", ctl.oom_kills as f64, "count"),
            metric("slowdown_samples", slowdowns.len() as f64, "count"),
        ];
        let reps = state.plans.len().max(1) as f64;
        report.counters = vec![
            metric(ARRIVALS, report.items as f64, "count"),
            metric("service.deferrals", ctl.deferrals as f64, "count"),
            metric("service.breaker_trips", ctl.breaker_trips as f64, "count"),
            metric(
                "service.abstain_placements",
                ctl.abstain_placements as f64,
                "count",
            ),
            metric(
                "service.max_queue_depth",
                ctl.max_queue_depth as f64,
                "count",
            ),
            metric(
                "service.mean_queue_depth",
                ctl.mean_queue_depth / reps,
                "count",
            ),
            metric(
                "service.faults_delivered",
                ctl.faults_delivered as f64,
                "count",
            ),
            metric("service.retries", ctl.retries as f64, "count"),
            metric("service.quarantines", ctl.quarantines as f64, "count"),
            metric("service.audit_violations", violations as f64, "count"),
        ];
        report
            .counters
            .extend(memo_counters([(&baselines, system.selections.as_ref())]));
        report
    }
}

/// The controlled entry's counters, summed over replications (queue
/// depth: the maximum, and the sum of per-replication means).
#[derive(Debug, Default)]
struct Controlled {
    oom_kills: usize,
    deferrals: usize,
    breaker_trips: usize,
    abstain_placements: usize,
    max_queue_depth: usize,
    mean_queue_depth: f64,
    faults_delivered: usize,
    retries: usize,
    quarantines: usize,
}

impl Controlled {
    fn add(&mut self, o: &ServiceOutcome) {
        let f = &o.faults;
        self.oom_kills += o.oom_kills;
        self.deferrals += o.deferrals;
        self.breaker_trips += o.breaker_trips;
        self.abstain_placements += o.abstain_placements;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
        self.mean_queue_depth += o.mean_queue_depth;
        self.faults_delivered += f.node_crashes
            + f.executor_crashes
            + f.monitor_dropouts
            + f.prediction_noise
            + f.spot_preemptions;
        self.retries += f.retries;
        self.quarantines += f.quarantines;
    }
}

fn digest_service(d: &mut Digest, entry: usize, o: &ServiceOutcome) {
    d.usize(entry);
    d.f64(o.makespan_secs);
    for c in [
        o.oom_kills,
        o.shed_jobs,
        o.deferrals,
        o.abstain_placements,
        o.breaker_trips,
        o.max_queue_depth,
    ] {
        d.usize(c);
    }
    d.f64(o.mean_queue_depth);
    for j in &o.jobs {
        d.usize(j.benchmark);
        d.usize(j.tenant);
        d.f64(j.arrived_at);
        d.opt_f64(j.admitted_at);
        d.opt_f64(j.finished_at);
        d.bool(j.shed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colocate::service::{evaluate_openloop, OpenLoopEntry, OpenLoopSpec};

    #[test]
    fn tail_matches_the_harness_campaign() {
        let w = Storm::tiny(0);
        let mut tracer = Tracer::new(false);
        let state = w.setup(&mut tracer).unwrap();
        let report = w.round(&state, 0, &mut tracer);
        assert_eq!(report.failed, 0, "{:?}", report.failures);

        let config = RunConfig {
            scheduler: state.scheduler.clone(),
            workers: Some(1),
            ..RunConfig::default()
        };
        let job_classes = state.configs[0].job_classes.clone();
        let base = w.replication_seed(0);
        let iso =
            isolated_times_custom(&state.catalog, &job_classes, &config.scheduler, base).unwrap();
        let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
        let spec = OpenLoopSpec {
            process: ArrivalProcess::Poisson {
                rate_per_sec: LOAD / mean_iso,
            },
            horizon_secs: w.expected_jobs as f64 * mean_iso / LOAD,
            tenants: 3,
            tenant_weights: Vec::new(),
            job_classes,
            max_jobs: w.expected_jobs * 2,
            chaos: chaos(),
            replications: w.replications,
        };
        let open_entries: Vec<OpenLoopEntry> = entries()
            .iter()
            .map(|&(label, admission, resilience)| OpenLoopEntry {
                label,
                policy: PolicyKind::Moe,
                admission,
                resilience,
            })
            .collect();
        let stats = evaluate_openloop(&open_entries, &state.catalog, &config, &spec, base).unwrap();
        let ours = &stats.per_entry[CONTROLLED];
        let sim = |name| report.sim.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(sim("slowdown_p99").to_bits(), ours.slowdown_p99.to_bits());
        assert_eq!(sim("slowdown_p50").to_bits(), ours.slowdown_p50.to_bits());
        assert_eq!(sim("oom_kills"), ours.oom_kills as f64);
        let shed_pct = ours.shed as f64 * 100.0 / ours.arrivals as f64;
        assert_eq!(sim("shed_pct").to_bits(), shed_pct.to_bits());
    }
}
