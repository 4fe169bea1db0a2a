//! `table3-campaign`: the Fig. 6 campaign, closed loop, batch arrivals.
//!
//! Every scenario runs exactly as `harness::evaluate_scenario_multi` runs
//! it for `fig06_overall`: mixes drawn by `MixScenario::random_mix` from
//! Fig. 6's base seed, the `m`-th mix scheduled with seed `base + m`
//! under the Fig. 6 roster (Pairwise, Quasar, MoE, Oracle) on the 40-node
//! paper cluster, and a fresh `BaselineCache` and `PredictionTable` per
//! scenario. There is no §5.2 early stop, so every commit does the same
//! work, and `stp` and `antt_reduction_pct` are Fig. 6's MoE headline.
//!
//! The campaign is fixed, as Fig. 6's is; the workload seed only orders
//! the scenarios and the mixes within each. The campaign's host time is
//! chaotic in its draws: a few Quasar schedules of large mixes dominate
//! it, and seed-drawn mixes moved it by 2× between seeds at this size.
//!
//! Item: one simulated application completed. Operation: one
//! (mix, policy) schedule.

use crate::checks::check_schedule;
use crate::digest::Digest;
use crate::metrics::{memo_counters, metric};
use crate::runner::{span, RoundReport, Workload};
use crate::trace::Tracer;
use colocate::harness::{trained_system_for, BaselineCache, RunConfig};
use colocate::metrics::normalize;
use colocate::predictors::PredictionTable;
use colocate::scheduler::{run_schedule, PolicyKind, ScheduleOutcome, SchedulerConfig};
use colocate::training::TrainedSystem;
use simkit::stats::summary::geometric_mean;
use simkit::stats::Welford;
use simkit::SimRng;
use std::sync::Arc;
use workloads::{Catalog, MixEntry, MixScenario};

/// The Fig. 6 roster, with the tags its spans carry.
pub const ROSTER: [(PolicyKind, &str); 4] = [
    (PolicyKind::Pairwise, "pairwise"),
    (PolicyKind::Quasar, "quasar"),
    (PolicyKind::Moe, "moe"),
    (PolicyKind::Oracle, "oracle"),
];

/// Index of MoE in [`ROSTER`].
const MOE: usize = 2;

/// The campaign's shape.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Workload seed.
    pub seed: u64,
    /// Scenarios run (Table 3 order).
    pub scenarios: Vec<MixScenario>,
    /// Mixes per scenario.
    pub mixes_per_scenario: usize,
}

impl Table3 {
    /// The benchmark's size: every Table 3 scenario, eight mixes each
    /// (Fig. 6's default campaign size).
    #[must_use]
    pub fn full(seed: u64) -> Self {
        Table3 {
            seed,
            scenarios: MixScenario::TABLE3.to_vec(),
            mixes_per_scenario: 8,
        }
    }

    /// A size for tests: the three smallest scenarios, one mix each.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        Table3 {
            seed,
            scenarios: MixScenario::TABLE3[..3].to_vec(),
            mixes_per_scenario: 1,
        }
    }
}

/// What set-up builds.
#[derive(Debug)]
pub struct Table3State {
    catalog: Catalog,
    config: RunConfig,
    system: TrainedSystem,
    /// Each scenario's mixes, in Fig. 6's draw order.
    mixes: Vec<Vec<Vec<MixEntry>>>,
    /// The order the scenarios run in, each with the order of its mixes,
    /// drawn from the workload seed.
    order: Vec<(usize, Vec<usize>)>,
}

/// One (mix, policy) schedule's contribution to the campaign.
#[derive(Debug, Clone, Copy)]
struct Fold {
    stp: f64,
    antt: f64,
    digest: u64,
}

impl Workload for Table3 {
    type State = Table3State;

    fn setup(&self, tracer: &mut Tracer) -> Result<Table3State, String> {
        let catalog = tracer.span(span::CATALOG, "", (0, 0), |_| Catalog::paper());
        let config = RunConfig::default();
        let system = tracer
            .span(span::TRAINING, "", (0, 0), |_| {
                trained_system_for(PolicyKind::Moe, &catalog, &config, crate::MODEL_SEED)
            })
            .map_err(|e| format!("training: {e}"))?
            .ok_or("MoE trains no system")?;
        let (mixes, order) = tracer.span(span::INPUTS, "", (0, 0), |_| {
            let mixes: Vec<Vec<Vec<MixEntry>>> = self
                .scenarios
                .iter()
                .map(|s| {
                    let mut rng = SimRng::seed_from(crate::MODEL_SEED);
                    (0..self.mixes_per_scenario)
                        .map(|_| s.random_mix(&catalog, &mut rng))
                        .collect()
                })
                .collect();
            let mut rng = SimRng::seed_from(self.seed);
            let mut scenarios: Vec<usize> = (0..mixes.len()).collect();
            rng.shuffle(&mut scenarios);
            let order = scenarios
                .into_iter()
                .map(|s| {
                    let mut m: Vec<usize> = (0..self.mixes_per_scenario).collect();
                    rng.shuffle(&mut m);
                    (s, m)
                })
                .collect();
            (mixes, order)
        });
        Ok(Table3State {
            catalog,
            config,
            system,
            mixes,
            order,
        })
    }

    fn round(&self, state: &Table3State, _round: u32, tracer: &mut Tracer) -> RoundReport {
        let sched: &SchedulerConfig = &state.config.scheduler;
        let mut report = RoundReport::default();
        let (mut events, mut ooms, mut moe_ooms) = (0usize, 0usize, 0usize);
        // folds[scenario][mix][policy], filled in run order and folded in
        // Fig. 6's index order, so the statistics are Fig. 6's bit for bit.
        let mut folds =
            vec![vec![[None::<Fold>; ROSTER.len()]; self.mixes_per_scenario]; state.mixes.len()];
        let mut memos = Vec::with_capacity(state.mixes.len());
        for (scenario, mix_order) in &state.order {
            let label = self.scenarios[*scenario].name();
            // Every scenario starts from empty memo tables, as each Fig. 6
            // scenario campaign does, so every round does the same work.
            let mut system = state.system.clone();
            system.selections = Arc::new(PredictionTable::new());
            let baselines = BaselineCache::new();
            for &m in mix_order {
                let entries = &state.mixes[*scenario][m];
                let seed = crate::MODEL_SEED + m as u64;
                let id = (*scenario * self.mixes_per_scenario + m) as u32;
                let iso = report.call(tracer, span::BASELINES, "", (id, 0), || {
                    baselines.isolated_times(&state.catalog, entries, sched, seed)
                });
                for (p, &(policy, tag)) in ROSTER.iter().enumerate() {
                    report.attempted += 1;
                    let system = policy_system(policy, &system);
                    let outcome = report.call(tracer, span::SCHEDULE, tag, (id, p as u32), || {
                        run_schedule(policy, &state.catalog, entries, system, sched, seed)
                    });
                    let (outcome, iso) = match (outcome, &iso) {
                        (Ok(o), Ok(iso)) => (o, iso),
                        (Err(e), _) => {
                            report.fail(format!("{label} {tag} mix {m}: {e}"));
                            continue;
                        }
                        (_, Err(e)) => {
                            report.fail(format!("{label} baselines mix {m}: {e}"));
                            continue;
                        }
                    };
                    if let Err(e) = check_schedule(&outcome, entries.len()) {
                        report.fail(format!("{label} {tag} mix {m}: {e}"));
                        continue;
                    }
                    let turnarounds: Vec<f64> =
                        outcome.per_app.iter().map(|a| a.finished_at).collect();
                    let n = normalize(iso, &turnarounds);
                    let mut digest = Digest::new();
                    digest_schedule(&mut digest, p, &outcome);
                    folds[*scenario][m][p] = Some(Fold {
                        stp: n.normalized_stp,
                        antt: n.antt_reduction_pct,
                        digest: digest.value(),
                    });
                    report.items += outcome.per_app.len() as u64;
                    events += outcome.trace.len();
                    ooms += outcome.oom_kills;
                    if p == MOE {
                        moe_ooms += outcome.oom_kills;
                    }
                }
            }
            memos.push((baselines, system.selections));
        }

        let mut digest = Digest::new();
        let (mut stp_means, mut antt_means) = (Vec::new(), Vec::new());
        for scenario in &folds {
            let (mut stp, mut antt) = (Welford::new(), Welford::new());
            for mix in scenario {
                for (p, fold) in mix.iter().enumerate() {
                    let Some(f) = fold else { continue };
                    digest.u64(f.digest);
                    digest.f64(f.stp);
                    digest.f64(f.antt);
                    if p == MOE {
                        stp.push(f.stp);
                        antt.push(f.antt);
                    }
                }
            }
            stp_means.push(stp.mean());
            antt_means.push(antt.mean());
        }
        // Fig. 6's headline folds: geometric-mean STP over scenarios and
        // mean ANTT reduction.
        let stp = if stp_means.iter().all(|&s| s > 0.0) {
            geometric_mean(&stp_means)
        } else {
            f64::NAN
        };
        let antt = antt_means.iter().sum::<f64>() / antt_means.len().max(1) as f64;
        report.sim = vec![
            metric("stp", stp, "ratio"),
            metric("antt_reduction_pct", antt, "%"),
            metric("oom_kills", moe_ooms as f64, "count"),
        ];
        report.counters = vec![
            metric("scheduler.sim_events", events as f64, "count"),
            metric("scheduler.oom_kills", ooms as f64, "count"),
        ];
        report
            .counters
            .extend(memo_counters(memos.iter().map(|(b, t)| (b, t.as_ref()))));
        report.digest = digest.value();
        report
    }
}

/// The trained system a policy runs with (only the predictive ones that
/// learn offline take one, as in `harness::trained_systems_for`).
fn policy_system(policy: PolicyKind, system: &TrainedSystem) -> Option<&TrainedSystem> {
    matches!(policy, PolicyKind::Moe | PolicyKind::Quasar).then_some(system)
}

fn digest_schedule(d: &mut Digest, policy: usize, o: &ScheduleOutcome) {
    d.usize(policy);
    d.f64(o.makespan_secs);
    d.usize(o.oom_kills);
    d.usize(o.trace.len());
    for app in &o.per_app {
        d.usize(app.benchmark);
        d.f64(app.input_gb);
        d.f64(app.ready_at);
        d.f64(app.finished_at);
    }
    let f = &o.faults;
    for c in [f.retries, f.quarantines, f.isolated_fallbacks] {
        d.usize(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colocate::harness::evaluate_scenario_multi;

    #[test]
    fn stp_and_antt_are_fig06s_bit_for_bit() {
        // Two scenarios, three mixes each: enough for the fold order of
        // the per-scenario means to matter.
        let w = Table3 {
            seed: 11,
            scenarios: MixScenario::TABLE3[..2].to_vec(),
            mixes_per_scenario: 3,
        };
        let mut tracer = Tracer::new(false);
        let state = w.setup(&mut tracer).unwrap();
        let report = w.round(&state, 0, &mut tracer);
        assert_eq!(report.failed, 0, "{:?}", report.failures);

        let policies = ROSTER.map(|r| r.0);
        let stats: Vec<_> = w
            .scenarios
            .iter()
            .map(|&s| {
                evaluate_scenario_multi(
                    &policies,
                    s,
                    &state.catalog,
                    &state.config,
                    w.mixes_per_scenario,
                    crate::MODEL_SEED,
                )
                .unwrap()
                .per_policy[MOE]
                    .clone()
            })
            .collect();
        let stp = geometric_mean(&stats.iter().map(|s| s.stp_mean).collect::<Vec<_>>());
        let antt = stats.iter().map(|s| s.antt_mean).sum::<f64>() / stats.len() as f64;
        let sim = |name| report.sim.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(sim("stp").to_bits(), stp.to_bits());
        assert_eq!(sim("antt_reduction_pct").to_bits(), antt.to_bits());
    }

    #[test]
    fn every_schedule_checks_and_rounds_repeat() {
        let w = Table3::tiny(7);
        let mut tracer = Tracer::new(false);
        let state = w.setup(&mut tracer).unwrap();
        let a = w.round(&state, 0, &mut tracer);
        let b = w.round(&state, 1, &mut tracer);
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.attempted, 3 * ROSTER.len() as u64);
        assert_eq!(a.items, (2 + 6 + 7) * ROSTER.len() as u64);
        assert_eq!(
            (a.digest, &a.sim, &a.counters),
            (b.digest, &b.sim, &b.counters)
        );
        let stp = a.sim.iter().find(|m| m.name == "stp").unwrap().value;
        assert!(stp > 1.0, "co-location beats isolation: {stp}");
    }
}
