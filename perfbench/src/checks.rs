//! Outcome checks. Each operation's outcome is checked as it returns; a
//! failed check counts the operation as failed.

use colocate::scheduler::ScheduleOutcome;
use colocate::service::{AdmissionAudit, ServiceOutcome};
use moe_core::Selection;

/// A closed-loop schedule: every app finished, with finite timestamps in
/// order, and the makespan is exactly the last finish.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_schedule(outcome: &ScheduleOutcome, apps: usize) -> Result<(), String> {
    if outcome.per_app.len() != apps {
        return Err(format!(
            "{}: {} of {apps} apps reported",
            outcome.policy,
            outcome.per_app.len()
        ));
    }
    let mut last = 0.0f64;
    for (i, app) in outcome.per_app.iter().enumerate() {
        let ordered = app.ready_at.is_finite()
            && app.finished_at.is_finite()
            && app.ready_at >= 0.0
            && app.finished_at >= app.ready_at;
        if !ordered {
            return Err(format!(
                "{}: app {i} has ready_at {} and finished_at {}",
                outcome.policy, app.ready_at, app.finished_at
            ));
        }
        last = last.max(app.finished_at);
    }
    if outcome.makespan_secs.to_bits() != last.to_bits() {
        return Err(format!(
            "{}: makespan {} is not the last finish {last}",
            outcome.policy, outcome.makespan_secs
        ));
    }
    Ok(())
}

/// Sum of an audit's violation counters (all zero on a healthy run).
#[must_use]
pub fn audit_violations(audit: &AdmissionAudit) -> usize {
    audit.overbook_events
        + audit.negative_commit_events
        + audit.wfq_order_violations
        + audit.quiet_breaker_reopens
        + audit.nonfinite_quarantines
}

/// An open-system run: every arrival is accounted for exactly once —
/// finished or shed, never both — admissions never precede arrivals,
/// finishes never precede arrivals, and no audit counter fired.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_service(outcome: &ServiceOutcome, arrivals: usize) -> Result<(), String> {
    if outcome.jobs.len() != arrivals {
        return Err(format!(
            "{} job outcomes for {arrivals} arrivals",
            outcome.jobs.len()
        ));
    }
    let mut finished = 0usize;
    let mut shed = 0usize;
    for (i, job) in outcome.jobs.iter().enumerate() {
        match (job.shed, job.finished_at) {
            (true, None) => shed += 1,
            (false, Some(done)) if done.is_finite() && done >= job.arrived_at => finished += 1,
            _ => {
                return Err(format!(
                    "job {i}: shed {} with finished_at {:?} (arrived {})",
                    job.shed, job.finished_at, job.arrived_at
                ))
            }
        }
        if let Some(admitted) = job.admitted_at {
            if admitted.is_nan() || admitted < job.arrived_at {
                return Err(format!(
                    "job {i} admitted at {admitted} before arriving at {}",
                    job.arrived_at
                ));
            }
        }
    }
    if finished + shed != arrivals || shed != outcome.shed_jobs {
        return Err(format!(
            "{finished} finished + {shed} shed != {arrivals} arrivals (outcome says {} shed)",
            outcome.shed_jobs
        ));
    }
    let violations = audit_violations(&outcome.audit);
    if violations != 0 {
        return Err(format!("{violations} admission-audit violations"));
    }
    Ok(())
}

/// A batched selection is bit-identical to the scalar one.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_selection(batched: &Selection, scalar: &Selection) -> Result<(), String> {
    if batched.expert == scalar.expert
        && batched.distance.to_bits() == scalar.distance.to_bits()
        && batched.low_confidence == scalar.low_confidence
    {
        Ok(())
    } else {
        Err(format!(
            "select_batch gave {batched:?}, select gave {scalar:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colocate::harness::{trained_system_for, RunConfig};
    use colocate::scheduler::{run_schedule_custom, PolicyKind, SchedulerConfig};
    use colocate::service::{run_service, AdmissionConfig, ServiceConfig};
    use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
    use sparklite::cluster::ClusterSpec;
    use workloads::Catalog;

    fn small() -> SchedulerConfig {
        SchedulerConfig {
            cluster: ClusterSpec::small(2),
            ..SchedulerConfig::default()
        }
    }

    fn jobs(catalog: &Catalog) -> Vec<(usize, f64)> {
        ["HB.Sort", "SP.Kmeans", "BDB.Grep"]
            .iter()
            .map(|n| (catalog.by_name(n).unwrap().index(), 30.0))
            .collect()
    }

    #[test]
    fn schedule_check_rejects_corruption() {
        let catalog = Catalog::paper();
        let jobs = jobs(&catalog);
        let good =
            run_schedule_custom(PolicyKind::Oracle, &catalog, &jobs, None, &small(), 1).unwrap();
        check_schedule(&good, jobs.len()).unwrap();

        assert!(check_schedule(&good, jobs.len() + 1).is_err(), "lost app");
        let mut bad = good.clone();
        bad.per_app[1].finished_at = f64::NAN;
        assert!(check_schedule(&bad, jobs.len()).is_err(), "unfinished app");
        let mut bad = good.clone();
        bad.per_app[0].ready_at = bad.per_app[0].finished_at + 1.0;
        assert!(check_schedule(&bad, jobs.len()).is_err(), "out of order");
        let mut bad = good.clone();
        bad.makespan_secs += 1e-9;
        assert!(check_schedule(&bad, jobs.len()).is_err(), "makespan");
    }

    #[test]
    fn service_check_rejects_corruption() {
        let catalog = Catalog::paper();
        let jobs = jobs(&catalog);
        let system = trained_system_for(PolicyKind::Moe, &catalog, &RunConfig::default(), 3)
            .unwrap()
            .unwrap();
        let config = ServiceConfig {
            scheduler: small(),
            admission: AdmissionConfig::controlled(),
            tenant_weights: Vec::new(),
            job_classes: jobs,
        };
        let plan = ArrivalPlan::generate(
            5,
            &ArrivalPlanConfig {
                process: ArrivalProcess::Poisson { rate_per_sec: 0.02 },
                horizon_secs: 1_500.0,
                tenants: 2,
                job_classes: 3,
                max_jobs: 0,
            },
        );
        let good = run_service(
            PolicyKind::Moe,
            &catalog,
            &plan,
            Some(&system),
            &config,
            5,
            None,
        )
        .unwrap();
        check_service(&good, plan.len()).unwrap();

        assert!(check_service(&good, plan.len() + 1).is_err(), "lost job");
        let mut bad = good.clone();
        bad.jobs[0].shed = true;
        assert!(
            check_service(&bad, plan.len()).is_err(),
            "shed and finished"
        );
        let mut bad = good.clone();
        bad.jobs[0].finished_at = None;
        assert!(check_service(&bad, plan.len()).is_err(), "neither");
        let mut bad = good.clone();
        bad.jobs[0].admitted_at = Some(bad.jobs[0].arrived_at - 1.0);
        assert!(check_service(&bad, plan.len()).is_err(), "admitted early");
        let mut bad = good.clone();
        bad.shed_jobs += 1;
        assert!(check_service(&bad, plan.len()).is_err(), "shed count");
        let mut bad = good;
        bad.audit.wfq_order_violations = 1;
        assert!(check_service(&bad, plan.len()).is_err(), "audit");
    }

    #[test]
    fn selection_check_is_bitwise() {
        let catalog = Catalog::paper();
        let system = trained_system_for(PolicyKind::Moe, &catalog, &RunConfig::default(), 3)
            .unwrap()
            .unwrap();
        let mut rng = simkit::SimRng::seed_from(1);
        let f = workloads::signatures::observe_default(&catalog.all()[0], &mut rng);
        let good = system.predictor.select(&f).unwrap();
        check_selection(&good, &good).unwrap();
        let mut bad = good;
        bad.distance = f64::from_bits(good.distance.to_bits() ^ 1);
        assert!(check_selection(&bad, &good).is_err(), "one ulp off");
        let mut bad = good;
        bad.low_confidence = !good.low_confidence;
        assert!(check_selection(&bad, &good).is_err(), "flag");
    }
}
