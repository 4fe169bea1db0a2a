//! The chaos-search invariant battery: runs a [`simkit::chaoskit`]
//! episode through the dispatcher's event loop — as the closed system (a
//! batch plan, admission off) or as the open-system service — and checks
//! the contracts that must hold on *every* run, violating fault schedule
//! or not:
//!
//! * **job conservation** — every planned job finishes or is shed,
//!   exactly once; shed jobs never start, kept jobs never vanish;
//! * **timestamp sanity** — admissions happen at or after arrival,
//!   finishes at or after arrival and admission, everything finite; the
//!   reported makespan is exactly the last finish;
//! * **committed-GB accounting** — the admission layer's booked footprint
//!   sum never goes negative and never exceeds the headroom budget with
//!   more than one booking in flight (the single-booking empty-cluster
//!   escape is the one sanctioned excursion);
//! * **WFQ no-starvation ordering** — each admission takes a
//!   minimum-virtual-finish-tag eligible job, so no tenant's backlog can
//!   be bypassed indefinitely;
//! * **breaker liveness** — the circuit breaker never reopens without
//!   recent distress in its window: under a fault-free tail the window
//!   drains and the breaker must close rather than trip-lock;
//! * **quarantine finiteness** — a quarantined node always carries a
//!   finite release deadline, never limbo;
//! * **wedge detection** — a run that exhausts its event-loop guard or
//!   errors out of the substrate is itself a violation (`run-error`).
//!
//! [`chaos_search`] sweeps a seeded episode budget through
//! [`check_episode`], delta-debugs every violation down to a minimal
//! reproducer with [`simkit::chaoskit::shrink`], and folds the results in
//! episode order so the whole campaign — violations, shrink traces and
//! all — is bit-for-bit identical at every worker count.

use crate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use crate::service::{run_service, AdmissionConfig, ServiceConfig, ServiceOutcome};
use simkit::arrivals::ArrivalPlan;
use simkit::chaoskit::{shrink, Episode, EpisodeSpace, ShrinkResult, Violation};
use simkit::par;
use sparklite::cluster::ClusterSpec;
use workloads::catalog::Catalog;

/// Number of configuration presets an episode's `preset` index selects
/// among (see [`preset_label`]).
pub const PRESETS: usize = 4;

/// The fixed job-class table every episode maps its `job_class` indices
/// into: benchmark name and input GB. Small inputs keep a single episode
/// cheap; the 100 GB linear-family class keeps memory pressure real on
/// the small clusters episodes draw.
pub const JOB_CLASSES: [(&str, f64); 3] = [
    ("HB.Sort", 30.0),
    ("BDB.Grep", 30.0),
    ("SP.NaiveBayes", 100.0),
];

/// Human-readable name of a preset index.
#[must_use]
pub fn preset_label(preset: usize) -> &'static str {
    match preset {
        0 => "closed-loop",
        1 => "service/uncontrolled",
        2 => "service/controlled",
        3 => "service/tight",
        _ => "unknown",
    }
}

/// The episode space the default chaos search draws from: 2–4 node
/// clusters, the [`JOB_CLASSES`] table, all [`PRESETS`] presets, and
/// fault/arrival intensities up to the fig21 storm levels.
#[must_use]
pub fn search_space() -> EpisodeSpace {
    EpisodeSpace {
        min_nodes: 2,
        max_nodes: 4,
        tenants: 3,
        job_classes: JOB_CLASSES.len(),
        presets: PRESETS,
        horizon_secs: 4_000.0,
        max_intensity: 1.0,
        max_spot_rate: 0.5,
        max_noise_sd: 1.5,
        min_rate_per_sec: 0.000_5,
        max_rate_per_sec: 0.004,
        max_jobs: 10,
    }
}

/// Maps an episode's arrival job-class indices through [`JOB_CLASSES`]
/// into the catalog's `(benchmark index, input GB)` pairs.
fn class_table(catalog: &Catalog) -> Result<Vec<(usize, f64)>, String> {
    JOB_CLASSES
        .iter()
        .map(|&(name, gb)| {
            catalog
                .by_name(name)
                .map(|b| (b.index(), gb))
                .ok_or_else(|| format!("benchmark {name} missing from catalog"))
        })
        .collect()
}

/// Scheduler configuration an episode runs under: a small cluster of the
/// episode's size with self-healing enabled (the production shape).
fn scheduler_config(episode: &Episode) -> SchedulerConfig {
    SchedulerConfig {
        cluster: ClusterSpec::small(episode.nodes),
        resilience: ResilienceConfig::self_healing(),
        ..SchedulerConfig::default()
    }
}

/// Admission configuration of a service preset (presets 1–3). The tight
/// preset pairs starvation-level headroom with a hair-trigger breaker
/// (trip at 2 distress events, hysteresis via recover-at-0) so chaos
/// episodes actually walk the trip/recover/re-trip edges instead of only
/// ever seeing a closed breaker.
fn admission_for(preset: usize) -> AdmissionConfig {
    match preset {
        2 => AdmissionConfig::controlled(),
        3 => AdmissionConfig {
            enabled: true,
            queue_capacity: 3,
            shed_watermark: 2,
            headroom_frac: 0.05,
            breaker: crate::service::BreakerConfig {
                window_secs: 300.0,
                trip_threshold: 2,
                recover_threshold: 0,
                cooldown_secs: 60.0,
            },
        },
        _ => AdmissionConfig::default(),
    }
}

/// Runs one episode through its preset and checks the invariant battery.
/// `None` means every invariant held; `Some` names the first violation.
///
/// The check is a pure function of the episode (the schedule seed is
/// [`Episode::seed`]), which is what makes delta-debugging shrinking and
/// worker-count-independent searches possible.
#[must_use]
pub fn check_episode(catalog: &Catalog, episode: &Episode) -> Option<Violation> {
    match check_episode_inner(catalog, episode) {
        Ok(v) => v,
        Err(msg) => Some(Violation::new("run-error", msg)),
    }
}

fn check_episode_inner(catalog: &Catalog, episode: &Episode) -> Result<Option<Violation>, String> {
    if episode.arrivals.is_empty() {
        // A shrunk-empty episode is vacuous: nothing can be violated.
        return Ok(None);
    }
    let classes = class_table(catalog)?;
    for event in &episode.arrivals {
        if event.job_class >= classes.len() {
            return Err(format!(
                "episode references job class {} outside the table",
                event.job_class
            ));
        }
    }
    // Preset 0 is the closed system: the episode's jobs all land at t = 0
    // (a batch plan) and admission stays off.
    let plan = if episode.preset == 0 {
        let jobs: Vec<(usize, usize)> = episode
            .arrivals
            .iter()
            .map(|e| (e.tenant, e.job_class))
            .collect();
        ArrivalPlan::batch(&jobs)
    } else {
        episode.arrival_plan()
    };
    let config = ServiceConfig {
        scheduler: scheduler_config(episode),
        admission: admission_for(episode.preset),
        tenant_weights: Vec::new(),
        job_classes: classes,
    };
    let outcome = run_service(
        PolicyKind::Oracle,
        catalog,
        &plan,
        None,
        &config,
        episode.seed,
        Some(&episode.fault_plan()),
    )
    .map_err(|e| format!("service run failed: {e}"))?;
    Ok(check_service(&outcome))
}

/// The battery: job conservation, timestamp ordering, makespan
/// accounting, and the admission layer's audit counters.
///
/// Every finished job must finish no earlier than it arrived, admitted
/// jobs no earlier than their admission. A job also never finishes before
/// it became ready — the event loop stamps `finished_at = t.max(ready_at)`
/// — so that order holds by construction and is not re-checked here.
fn check_service(outcome: &ServiceOutcome) -> Option<Violation> {
    let mut finished = 0usize;
    let mut shed = 0usize;
    let mut last = 0.0f64;
    for (i, job) in outcome.jobs.iter().enumerate() {
        match (job.shed, job.finished_at) {
            (true, Some(f)) => {
                return Some(Violation::new(
                    "job-conservation",
                    format!("job {i} was shed yet finished at {f}"),
                ));
            }
            (true, None) => {
                if job.admitted_at.is_some() {
                    return Some(Violation::new(
                        "job-conservation",
                        format!("job {i} was shed after being admitted"),
                    ));
                }
                shed += 1;
            }
            (false, None) => {
                return Some(Violation::new(
                    "job-conservation",
                    format!("job {i} neither finished nor was shed"),
                ));
            }
            (false, Some(f)) => {
                if !f.is_finite() {
                    return Some(Violation::new(
                        "job-conservation",
                        format!("job {i} finished at non-finite {f}"),
                    ));
                }
                if f < job.arrived_at {
                    return Some(Violation::new(
                        "timestamp-order",
                        format!("job {i} finished at {f} before arrival {}", job.arrived_at),
                    ));
                }
                if let Some(adm) = job.admitted_at {
                    if adm < job.arrived_at {
                        return Some(Violation::new(
                            "timestamp-order",
                            format!(
                                "job {i} admitted at {adm} before arrival {}",
                                job.arrived_at
                            ),
                        ));
                    }
                    if f < adm {
                        return Some(Violation::new(
                            "timestamp-order",
                            format!("job {i} finished at {f} before admission at {adm}"),
                        ));
                    }
                }
                finished += 1;
                last = last.max(f);
            }
        }
    }
    if finished + shed != outcome.jobs.len() || shed != outcome.shed_jobs {
        return Some(Violation::new(
            "job-conservation",
            format!(
                "{} jobs -> {finished} finished + {shed} shed (reported shed {})",
                outcome.jobs.len(),
                outcome.shed_jobs
            ),
        ));
    }
    if outcome.makespan_secs.to_bits() != last.to_bits() {
        return Some(Violation::new(
            "makespan-accounting",
            format!("makespan {} != last finish {last}", outcome.makespan_secs),
        ));
    }
    let audit = &outcome.audit;
    if audit.negative_commit_events > 0 {
        return Some(Violation::new(
            "committed-accounting",
            format!(
                "committed footprint went negative {} time(s)",
                audit.negative_commit_events
            ),
        ));
    }
    if audit.overbook_events > 0 {
        return Some(Violation::new(
            "committed-accounting",
            format!(
                "admission overbooked past headroom {} time(s) (peak {:.1} GB)",
                audit.overbook_events, audit.peak_committed_gb
            ),
        ));
    }
    if audit.wfq_order_violations > 0 {
        return Some(Violation::new(
            "wfq-ordering",
            format!(
                "admission bypassed the minimum-vft job {} time(s)",
                audit.wfq_order_violations
            ),
        ));
    }
    if audit.quiet_breaker_reopens > 0 {
        return Some(Violation::new(
            "breaker-liveness",
            format!(
                "breaker reopened {} time(s) without in-window distress",
                audit.quiet_breaker_reopens
            ),
        ));
    }
    if audit.nonfinite_quarantines > 0 {
        return Some(Violation::new(
            "quarantine-finiteness",
            format!(
                "{} quarantine deadline(s) left non-finite",
                audit.nonfinite_quarantines
            ),
        ));
    }
    None
}

/// Shape of one chaos-search campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Episodes to draw and check.
    pub episodes: usize,
    /// Base seed: episode `i` is drawn from `base_seed + i`.
    pub base_seed: u64,
    /// Checker-invocation budget per shrink.
    pub shrink_budget: usize,
    /// Worker threads episodes fan out across (results fold in episode
    /// order, so the report is identical for every value).
    pub workers: usize,
    /// The episode space to draw from.
    pub space: EpisodeSpace,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            episodes: 64,
            base_seed: 42,
            shrink_budget: 200,
            workers: 1,
            space: search_space(),
        }
    }
}

/// One violation the search surfaced, with its shrink trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundViolation {
    /// Index of the episode in the sweep (its seed is `base_seed + index`).
    pub index: usize,
    /// The episode as originally drawn.
    pub original: Episode,
    /// The violation observed on the original episode.
    pub violation: Violation,
    /// The delta-debugged minimal reproducer.
    pub shrink: ShrinkResult,
}

/// Results of one chaos-search campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Episodes checked.
    pub episodes: usize,
    /// Base seed of the sweep.
    pub base_seed: u64,
    /// Violations found, in episode order, each with its minimal
    /// reproducer.
    pub violations: Vec<FoundViolation>,
}

/// Sweeps `config.episodes` seeded episodes through the invariant
/// battery, shrinking every violation to a minimal reproducer.
///
/// Episodes fan out across `config.workers` threads and fold in episode
/// order; each episode's check (and shrink) is a pure function of its
/// seed, so the report is bit-for-bit identical at every worker count —
/// invariant (f) of the battery, pinned by the integration tests.
#[must_use]
pub fn chaos_search(catalog: &Catalog, config: &SearchConfig) -> SearchReport {
    let indices: Vec<usize> = (0..config.episodes).collect();
    let per_episode = par::par_map_indexed(&indices, config.workers.max(1), |i, _| {
        let episode = Episode::draw(config.base_seed + i as u64, &config.space);
        let violation = check_episode(catalog, &episode)?;
        let shrunk = shrink(&episode, violation.clone(), config.shrink_budget, |e| {
            check_episode(catalog, e)
        });
        Some(FoundViolation {
            index: i,
            original: episode,
            violation,
            shrink: shrunk,
        })
    });
    SearchReport {
        episodes: config.episodes,
        base_seed: config.base_seed,
        violations: per_episode.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_labels_cover_the_preset_space() {
        for p in 0..PRESETS {
            assert_ne!(preset_label(p), "unknown");
        }
        assert_eq!(preset_label(PRESETS), "unknown");
    }

    #[test]
    fn the_search_space_matches_the_class_table() {
        let space = search_space();
        assert_eq!(space.job_classes, JOB_CLASSES.len());
        assert_eq!(space.presets, PRESETS);
        let catalog = Catalog::paper();
        assert_eq!(class_table(&catalog).unwrap().len(), JOB_CLASSES.len());
    }

    #[test]
    fn empty_episodes_are_vacuously_clean() {
        let catalog = Catalog::paper();
        let mut episode = Episode::draw(1, &search_space());
        episode.arrivals.clear();
        assert_eq!(check_episode(&catalog, &episode), None);
    }

    #[test]
    fn out_of_table_job_classes_are_a_run_error() {
        let catalog = Catalog::paper();
        let mut episode = Episode::draw(1, &search_space());
        episode.arrivals[0].job_class = JOB_CLASSES.len();
        let v = check_episode(&catalog, &episode).expect("must be flagged");
        assert_eq!(v.invariant, "run-error");
    }

    #[test]
    fn finishing_before_arrival_is_flagged_without_admission() {
        let job = crate::service::JobOutcome {
            benchmark: 0,
            input_gb: 30.0,
            tenant: 0,
            arrived_at: 10.0,
            admitted_at: None,
            finished_at: Some(5.0),
            shed: false,
        };
        let outcome = ServiceOutcome {
            jobs: vec![job],
            makespan_secs: 5.0,
            oom_kills: 0,
            shed_jobs: 0,
            deferrals: 0,
            abstain_placements: 0,
            breaker_trips: 0,
            max_queue_depth: 0,
            mean_queue_depth: 0.0,
            faults: crate::scheduler::FaultStats::default(),
            audit: crate::service::AdmissionAudit::default(),
        };
        let v = check_service(&outcome).expect("must be flagged");
        assert_eq!(v.invariant, "timestamp-order");
    }

    #[test]
    fn single_episode_checks_are_deterministic() {
        let catalog = Catalog::paper();
        let episode = Episode::draw(7, &search_space());
        assert_eq!(
            check_episode(&catalog, &episode),
            check_episode(&catalog, &episode)
        );
    }
}
