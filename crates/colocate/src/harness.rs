//! Campaign runners: everything the tables and figures need.
//!
//! * [`isolated_times`] — per-task `C_iso`: each application alone on the
//!   cluster with all memory (the denominator of every metric, §5.3);
//! * [`run_policy`] — one mix under one policy, with normalised metrics;
//! * [`evaluate_scenario_multi`] (policies on shared mixes, Figs. 6/9/10),
//!   [`evaluate_chaos`] (entries on shared fault plans, Fig. 19) and
//!   [`crate::service::evaluate_openloop`] (open-loop replications,
//!   Fig. 21) — thin adapters over one private fold, `fold_campaign`:
//!   serial draws, batched fan-out, index-ordered fold;
//! * [`bin_trace`] — converts event-sampled utilisation traces into the
//!   time-binned per-node matrix of Fig. 7.

use crate::metrics::{normalize, NormalizedMetrics};
use crate::scheduler::{
    isolated_makespan, run_schedule, run_schedule_with_faults, FaultStats, PolicyKind,
    ResilienceConfig, ScheduleOutcome, SchedulerConfig, UtilTrace,
};
use crate::service::check_fields;
use crate::training::{train_system, TrainedSystem, TrainingConfig};
use crate::ColocateError;
use simkit::faults::{FaultPlan, FaultPlanConfig};
use simkit::par;
use simkit::stats::Welford;
use simkit::SimRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use workloads::catalog::Catalog;
use workloads::mixes::{MixEntry, MixScenario};

/// Configuration for harness runs: scheduler + offline training settings.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Offline training configuration.
    pub training: TrainingConfig,
    /// Worker threads each campaign fans out over; `None` defers to
    /// [`par::available_workers`] (the `SPARK_MOE_THREADS` override, then
    /// the host's parallelism). Every campaign folds its results in index
    /// order, so results are identical for every value — see
    /// [`evaluate_scenario_multi`].
    pub workers: Option<usize>,
}

impl RunConfig {
    /// The worker count campaigns run with.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(par::available_workers).max(1)
    }
}

/// Outcome of one policy on one mix, with normalised metrics attached.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The raw schedule.
    pub makespan_secs: f64,
    /// Per-app turnarounds (s), submission order.
    pub turnarounds: Vec<f64>,
    /// Per-app isolated times (s), submission order.
    pub iso_secs: Vec<f64>,
    /// Normalised STP / ANTT-reduction against the isolated baseline.
    pub normalized: NormalizedMetrics,
    /// The full schedule outcome (trace, overheads, OOM count).
    pub schedule: ScheduleOutcome,
}

/// Isolated execution time of every job in `jobs`, each run alone on the
/// cluster with all memory.
///
/// # Errors
///
/// Propagates scheduler failures.
pub fn isolated_times_custom(
    catalog: &Catalog,
    jobs: &[(usize, f64)],
    config: &SchedulerConfig,
    seed: u64,
) -> Result<Vec<f64>, ColocateError> {
    jobs.iter()
        .map(|&job| isolated_makespan(catalog, job, config, seed))
        .collect()
}

/// [`isolated_times_custom`] over a Table 3-style mix.
///
/// # Errors
///
/// Propagates scheduler failures.
pub fn isolated_times(
    catalog: &Catalog,
    mix: &[MixEntry],
    config: &SchedulerConfig,
    seed: u64,
) -> Result<Vec<f64>, ColocateError> {
    let jobs: Vec<(usize, f64)> = mix.iter().map(|e| (e.benchmark, e.size.gb())).collect();
    isolated_times_custom(catalog, &jobs, config, seed)
}

/// Memoizes isolated solo runs (`C_iso`) across a campaign.
///
/// A solo run is a pure function of `(benchmark, input size, seed)`, yet
/// the isolated baseline is recomputed for every app of every mix — and
/// Table 3 mixes repeat `(benchmark, size)` pairs freely, so a campaign
/// pays for the same solo simulations over and over. This cache keys each
/// solo makespan by exactly its inputs, making cached and uncached
/// campaigns bit-for-bit identical while skipping every repeat.
///
/// The cache is shared across the campaign's worker threads. Lookups and
/// inserts take a short lock; the simulation itself runs lock-free, so two
/// workers can momentarily duplicate the same key — both compute the same
/// deterministic value, and the extra insert is a no-op.
#[derive(Debug, Default)]
pub struct BaselineCache {
    /// `(benchmark index, input-size bits, seed) -> solo makespan (s)`.
    map: Mutex<HashMap<(usize, u64, u64), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BaselineCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The isolated makespan of one job, computed at most once per key.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn isolated_secs(
        &self,
        catalog: &Catalog,
        job: (usize, f64),
        config: &SchedulerConfig,
        seed: u64,
    ) -> Result<f64, ColocateError> {
        // A poisoned lock only means another worker panicked after a
        // completed insert; the map is a plain memo table whose entries
        // are always whole, so recover the guard rather than propagate.
        let key = (job.0, job.1.to_bits(), seed);
        if let Some(&secs) = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(secs);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let secs = isolated_makespan(catalog, job, config, seed)?;
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, secs);
        Ok(secs)
    }

    /// [`isolated_times`] through the cache: per-app `C_iso` for a mix.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn isolated_times(
        &self,
        catalog: &Catalog,
        mix: &[MixEntry],
        config: &SchedulerConfig,
        seed: u64,
    ) -> Result<Vec<f64>, ColocateError> {
        mix.iter()
            .map(|e| self.isolated_secs(catalog, (e.benchmark, e.size.gb()), config, seed))
            .collect()
    }

    /// `(hits, misses)` so far; a hit is a solo simulation skipped.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Runs one mix under one policy and normalises against the isolated
/// baseline. Training (when the policy needs it) is derived from `seed`.
///
/// # Errors
///
/// Propagates training and scheduler failures.
pub fn run_policy(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[MixEntry],
    config: &RunConfig,
    seed: u64,
) -> Result<PolicyOutcome, ColocateError> {
    let system = trained_system_for(policy, catalog, config, seed)?;
    let schedule = run_schedule(
        policy,
        catalog,
        mix,
        system.as_ref(),
        &config.scheduler,
        seed,
    )?;
    let iso_secs = isolated_times(catalog, mix, &config.scheduler, seed)?;
    let turnarounds: Vec<f64> = schedule.per_app.iter().map(|a| a.finished_at).collect();
    let normalized = normalize(&iso_secs, &turnarounds);
    Ok(PolicyOutcome {
        makespan_secs: schedule.makespan_secs,
        turnarounds,
        iso_secs,
        normalized,
        schedule,
    })
}

/// Whether a policy needs the offline-trained system.
fn needs_offline_training(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::Moe | PolicyKind::Quasar | PolicyKind::UnifiedAnn
    )
}

/// Trains the offline system if `policy` needs one.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_system_for(
    policy: PolicyKind,
    catalog: &Catalog,
    config: &RunConfig,
    seed: u64,
) -> Result<Option<TrainedSystem>, ColocateError> {
    if needs_offline_training(policy) {
        let mut rng = SimRng::seed_from(seed ^ 0x7EA1);
        Ok(Some(train_system(catalog, &config.training, &mut rng)?))
    } else {
        Ok(None)
    }
}

/// Trains the offline systems for a whole policy roster, running the
/// training pipeline at most **once**: every predictive policy trains from
/// the same `seed ^ 0x7EA1` stream, so their systems are bit-identical and
/// one pass can be cloned across the roster. The clones share the
/// system's lazily built Quasar estimator; expert selections are not
/// shared or memoised, since each profiled application selects once.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_systems_for(
    policies: &[PolicyKind],
    catalog: &Catalog,
    config: &RunConfig,
    seed: u64,
) -> Result<Vec<Option<TrainedSystem>>, ColocateError> {
    let shared = match policies.iter().find(|&&p| needs_offline_training(p)) {
        Some(&p) => trained_system_for(p, catalog, config, seed)?,
        None => None,
    };
    Ok(policies
        .iter()
        .map(|&p| {
            if needs_offline_training(p) {
                shared.clone()
            } else {
                None
            }
        })
        .collect())
}

/// The one campaign loop behind every `evaluate_*` entry point.
///
/// Draws all `items` inputs serially in index order (`draw` is the one RNG
/// stream of the campaign), runs them in one [`par::par_map_indexed`]
/// fan-out (`run` gets the item index and its input) and folds the
/// results strictly in index order, so the folded sequence is identical
/// for every worker count.
///
/// # Errors
///
/// [`ColocateError::Config`] when `items` is zero; otherwise the first
/// per-item failure in index order.
pub(crate) fn fold_campaign<I: Sync, R: Send>(
    items: usize,
    workers: usize,
    mut draw: impl FnMut() -> I,
    run: impl Fn(usize, &I) -> Result<R, ColocateError> + Sync,
    mut fold: impl FnMut(R),
) -> Result<(), ColocateError> {
    if items == 0 {
        return Err(ColocateError::Config(
            "a campaign needs at least one mix or replication".into(),
        ));
    }
    let inputs: Vec<I> = (0..items).map(|_| draw()).collect();
    for result in par::par_map_indexed(&inputs, workers, run) {
        fold(result?);
    }
    Ok(())
}

/// `(normalized STP, ANTT reduction %)` of a schedule against the per-app
/// isolated times of its mix.
fn stp_antt(iso: &[f64], schedule: &ScheduleOutcome) -> (f64, f64) {
    let turnarounds: Vec<f64> = schedule.per_app.iter().map(|a| a.finished_at).collect();
    let n = normalize(iso, &turnarounds);
    (n.normalized_stp, n.antt_reduction_pct)
}

/// Running STP and ANTT-reduction accumulators of one policy or entry.
#[derive(Debug, Clone)]
struct Outcomes {
    stp: Welford,
    antt: Welford,
}

impl Outcomes {
    fn new() -> Self {
        Outcomes {
            stp: Welford::new(),
            antt: Welford::new(),
        }
    }

    fn push(&mut self, (stp, antt): (f64, f64)) {
        self.stp.push(stp);
        self.antt.push(antt);
    }

    fn stats(&self, scenario: MixScenario, mixes: usize) -> ScenarioStats {
        ScenarioStats {
            scenario,
            stp_mean: self.stp.mean(),
            stp_min_max: (self.stp.min(), self.stp.max()),
            antt_mean: self.antt.mean(),
            antt_min_max: (self.antt.min(), self.antt.max()),
            mixes,
        }
    }
}

/// Aggregated results of a scenario campaign.
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Mean normalised STP across mixes.
    pub stp_mean: f64,
    /// Min/max normalised STP across mixes (the Fig. 6 whiskers).
    pub stp_min_max: (f64, f64),
    /// Mean ANTT reduction (%).
    pub antt_mean: f64,
    /// Min/max ANTT reduction across mixes.
    pub antt_min_max: (f64, f64),
    /// Number of mixes evaluated.
    pub mixes: usize,
}

/// Per-policy aggregates from a shared-mix campaign
/// (see [`evaluate_scenario_multi`]).
#[derive(Debug, Clone)]
pub struct MultiPolicyStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Per-policy stats, parallel to the `policies` argument.
    pub per_policy: Vec<ScenarioStats>,
}

/// Evaluates several policies on the *same* random mixes of one scenario,
/// sharing the per-mix isolated baselines (each app's solo run) across
/// policies — the apples-to-apples comparison of Figs. 6, 9 and 10.
///
/// Mixes fan out across [`RunConfig::effective_workers`] threads (each mix
/// seeded by `base_seed + index`, results folded in index order, so stats
/// are identical for every worker count), the trained system is built once
/// and shared read-only by all workers, and solo baselines are memoized in
/// a campaign-wide [`BaselineCache`] keyed by `(benchmark, size, seed)` —
/// Table 3 mixes repeat apps, so the cache skips a large share of the solo
/// simulations without changing a single bit of output.
///
/// # Errors
///
/// [`ColocateError::Config`] when `mixes` is zero; propagates per-mix
/// failures.
pub fn evaluate_scenario_multi(
    policies: &[PolicyKind],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
) -> Result<MultiPolicyStats, ColocateError> {
    // Train once per campaign; predictive policies share one bit-identical
    // system (and thereby one campaign-wide prediction table).
    let systems = trained_systems_for(policies, catalog, config, base_seed)?;
    let baselines = BaselineCache::new();
    let mut acc = vec![Outcomes::new(); policies.len()];
    let mut mix_rng = SimRng::seed_from(base_seed);
    fold_campaign(
        mixes,
        config.effective_workers(),
        || scenario.random_mix(catalog, &mut mix_rng),
        |i, mix| {
            let seed = base_seed + i as u64;
            let iso = baselines.isolated_times(catalog, mix, &config.scheduler, seed)?;
            policies
                .iter()
                .zip(&systems)
                .map(|(&policy, system)| {
                    let schedule = run_schedule(
                        policy,
                        catalog,
                        mix,
                        system.as_ref(),
                        &config.scheduler,
                        seed,
                    )?;
                    Ok(stp_antt(&iso, &schedule))
                })
                .collect()
        },
        |pairs: Vec<(f64, f64)>| {
            for (a, pair) in acc.iter_mut().zip(pairs) {
                a.push(pair);
            }
        },
    )?;
    Ok(MultiPolicyStats {
        scenario,
        per_policy: acc.iter().map(|a| a.stats(scenario, mixes)).collect(),
    })
}

/// Shape of a chaos campaign: one fault intensity plus the plan
/// parameters shared by every mix. The fault horizon scales with each
/// mix's summed isolated time so a given intensity means the same fault
/// *rate* regardless of how long the mix runs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Fault intensity in `[0, 1]`; 0 injects nothing.
    pub intensity: f64,
    /// Mean node outage, seconds.
    pub mean_outage_secs: f64,
    /// Mean monitor-dropout duration, seconds.
    pub mean_dropout_secs: f64,
    /// Log-scale standard deviation of prediction-noise factors.
    pub noise_sd: f64,
    /// Fault horizon as a fraction of the mix's summed isolated time.
    pub horizon_frac: f64,
    /// Spot-preemption rate per node at full intensity (0 = no spot
    /// faults, the historical default — plans stay bit-identical).
    pub spot_rate: f64,
    /// Warning lead time before each spot revocation, seconds.
    pub spot_warning_secs: f64,
    /// Fraction of the fault horizon over which prediction-noise strikes
    /// are drawn (see [`FaultPlanConfig::noise_window_frac`]). The closed
    /// system keeps the historical `0.1`; open-loop campaigns widen it.
    pub noise_window_frac: f64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            intensity: 0.0,
            mean_outage_secs: 300.0,
            mean_dropout_secs: 600.0,
            noise_sd: 0.35,
            horizon_frac: 0.5,
            spot_rate: 0.0,
            spot_warning_secs: 120.0,
            noise_window_frac: 0.1,
        }
    }
}

impl ChaosSpec {
    /// A spec with everything default except the intensity.
    #[must_use]
    pub fn at_intensity(intensity: f64) -> Self {
        ChaosSpec {
            intensity,
            ..ChaosSpec::default()
        }
    }

    /// Rejects a spec whose fault plan would panic or draw NaN times and
    /// durations: every field must be finite, the intensity and the noise
    /// window in `[0, 1]`, the rest non-negative.
    pub(crate) fn validate(&self) -> Result<(), ColocateError> {
        check_fields(
            "in [0, 1]",
            |v| (0.0..=1.0).contains(&v),
            &[
                ("chaos.intensity", self.intensity),
                ("chaos.noise_window_frac", self.noise_window_frac),
            ],
        )?;
        check_fields(
            "non-negative",
            |v| v >= 0.0,
            &[
                ("chaos.mean_outage_secs", self.mean_outage_secs),
                ("chaos.mean_dropout_secs", self.mean_dropout_secs),
                ("chaos.noise_sd", self.noise_sd),
                ("chaos.horizon_frac", self.horizon_frac),
                ("chaos.spot_rate", self.spot_rate),
                ("chaos.spot_warning_secs", self.spot_warning_secs),
            ],
        )
    }

    /// The fault plan this spec draws from `seed ^ 0xC4A0_5EED` (a stream
    /// independent of the schedule seed) over `horizon_secs` on `nodes`
    /// nodes running `apps` applications.
    pub(crate) fn fault_plan(
        &self,
        seed: u64,
        horizon_secs: f64,
        nodes: usize,
        apps: usize,
    ) -> FaultPlan {
        let config = FaultPlanConfig {
            intensity: self.intensity,
            horizon_secs,
            nodes,
            apps,
            mean_outage_secs: self.mean_outage_secs,
            mean_dropout_secs: self.mean_dropout_secs,
            noise_sd: self.noise_sd,
            spot_rate: self.spot_rate,
            spot_warning_secs: self.spot_warning_secs,
            noise_window_frac: self.noise_window_frac,
        };
        FaultPlan::generate(seed ^ 0xC4A0_5EED, &config)
    }
}

/// One contender in a chaos campaign: a policy plus its resilience
/// configuration (so the same policy can race itself with and without
/// the self-healing layer).
#[derive(Debug, Clone, Copy)]
pub struct ChaosEntry {
    /// Label used in figures and result files.
    pub label: &'static str,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Self-healing configuration for this entry.
    pub resilience: ResilienceConfig,
}

/// Aggregates for one chaos-campaign entry.
#[derive(Debug, Clone)]
pub struct ChaosPolicyStats {
    /// The entry's label.
    pub label: &'static str,
    /// Mean normalised STP across mixes.
    pub stp_mean: f64,
    /// Min/max normalised STP across mixes.
    pub stp_min_max: (f64, f64),
    /// Mean ANTT reduction (%).
    pub antt_mean: f64,
    /// Min/max ANTT reduction across mixes.
    pub antt_min_max: (f64, f64),
    /// Mean OOM kills per mix.
    pub oom_kills_mean: f64,
    /// Fault/recovery counters summed over all mixes.
    pub faults: FaultStats,
}

/// Results of one chaos campaign (one scenario × one intensity).
#[derive(Debug, Clone)]
pub struct ChaosStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Fault intensity of the campaign.
    pub intensity: f64,
    /// Number of mixes evaluated.
    pub mixes: usize,
    /// Per-entry aggregates, parallel to the `entries` argument.
    pub per_entry: Vec<ChaosPolicyStats>,
}

/// Evaluates several `(policy, resilience)` entries on the *same* random
/// mixes of one scenario while replaying the *same* per-mix [`FaultPlan`]
/// against each entry — the apples-to-apples chaos comparison behind
/// Fig. 19.
///
/// Per mix `m`, the schedule seed is `base_seed + m` and the fault plan is
/// drawn from `(base_seed + m) ^ 0xC4A0_5EED` so the fault stream is
/// independent of the schedule stream: changing the resilience config
/// never changes which faults strike. Isolated baselines stay fault-free
/// (`C_iso` keeps its §5.3 meaning) and are memoized in a
/// [`BaselineCache`]. Mixes fan out across
/// [`RunConfig::effective_workers`] threads with results folded in index
/// order, so the returned stats are bit-for-bit identical for every
/// worker count.
///
/// # Errors
///
/// [`ColocateError::Config`] when `mixes` is zero or a `chaos` field is
/// NaN, infinite or out of range; propagates training and per-mix
/// scheduler failures.
pub fn evaluate_chaos(
    entries: &[ChaosEntry],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
    chaos: &ChaosSpec,
) -> Result<ChaosStats, ColocateError> {
    chaos.validate()?;
    let policies: Vec<PolicyKind> = entries.iter().map(|e| e.policy).collect();
    let systems = trained_systems_for(&policies, catalog, config, base_seed)?;
    // Per-entry scheduler configs differ only in their resilience block.
    let cfgs: Vec<SchedulerConfig> = entries
        .iter()
        .map(|e| SchedulerConfig {
            resilience: e.resilience,
            ..config.scheduler.clone()
        })
        .collect();
    let baselines = BaselineCache::new();
    // Per entry: STP/ANTT, OOM kills per mix, summed fault counters.
    let mut acc = vec![(Outcomes::new(), Welford::new(), FaultStats::default()); entries.len()];
    let mut mix_rng = SimRng::seed_from(base_seed);
    fold_campaign(
        mixes,
        config.effective_workers(),
        || scenario.random_mix(catalog, &mut mix_rng),
        |i, mix| {
            let seed = base_seed + i as u64;
            let iso = baselines.isolated_times(catalog, mix, &config.scheduler, seed)?;
            let jobs: Vec<(usize, f64)> = mix.iter().map(|e| (e.benchmark, e.size.gb())).collect();
            let horizon = (iso.iter().sum::<f64>() * chaos.horizon_frac).max(60.0);
            let plan = chaos.fault_plan(seed, horizon, config.scheduler.cluster.nodes, jobs.len());
            entries
                .iter()
                .zip(&systems)
                .zip(&cfgs)
                .map(|((entry, system), cfg)| {
                    let schedule = run_schedule_with_faults(
                        entry.policy,
                        catalog,
                        &jobs,
                        system.as_ref(),
                        cfg,
                        seed,
                        &plan,
                    )?;
                    let (stp, antt) = stp_antt(&iso, &schedule);
                    Ok((stp, antt, schedule.oom_kills, schedule.faults))
                })
                .collect()
        },
        |per_entry: Vec<(f64, f64, usize, FaultStats)>| {
            for ((outcomes, ooms, faults), (stp, antt, kills, f)) in acc.iter_mut().zip(per_entry) {
                outcomes.push((stp, antt));
                ooms.push(kills as f64);
                *faults += f;
            }
        },
    )?;
    Ok(ChaosStats {
        scenario,
        intensity: chaos.intensity,
        mixes,
        per_entry: entries
            .iter()
            .zip(&acc)
            .map(|(e, (o, ooms, faults))| ChaosPolicyStats {
                label: e.label,
                stp_mean: o.stp.mean(),
                stp_min_max: (o.stp.min(), o.stp.max()),
                antt_mean: o.antt.mean(),
                antt_min_max: (o.antt.min(), o.antt.max()),
                oom_kills_mean: ooms.mean(),
                faults: *faults,
            })
            .collect(),
    })
}

/// Converts an event-sampled trace (`(time, per-node load)`) into a
/// time-binned matrix: `bins × nodes`, each cell the time-weighted average
/// CPU load of that node within the bin (the Fig. 7 heat map).
///
/// # Panics
///
/// Panics if `bins == 0` or the trace is empty.
#[must_use]
pub fn bin_trace(trace: &UtilTrace, makespan_secs: f64, bins: usize) -> Vec<Vec<f64>> {
    assert!(bins > 0, "need at least one bin");
    assert!(!trace.is_empty(), "empty trace");
    let nodes = trace.nodes();
    let bin_width = makespan_secs / bins as f64;
    let mut sums = vec![vec![0.0f64; nodes]; bins];
    let mut weights = vec![0.0f64; bins];

    let mut samples = trace.iter().peekable();
    while let Some((t0, loads)) = samples.next() {
        let t1 = samples
            .peek()
            .map_or(makespan_secs, |&(t, _)| t)
            .min(makespan_secs);
        if t1 <= t0 {
            continue;
        }
        // Spread this piecewise-constant segment across bins. Guard the
        // advance against floating-point boundary collisions: when t sits
        // exactly on a bin edge, `(bin + 1) * width` can round to t and
        // stall the loop.
        let mut t = t0;
        while t < t1 {
            let bin = ((t / bin_width) as usize).min(bins - 1);
            let mut bin_end = ((bin + 1) as f64 * bin_width).min(t1);
            if bin_end <= t {
                bin_end = (t + bin_width).min(t1);
                if bin_end <= t {
                    break;
                }
            }
            let dt = bin_end - t;
            for (n, &load) in loads.iter().enumerate() {
                sums[bin][n] += load * dt;
            }
            weights[bin] += dt;
            t = bin_end;
        }
    }
    for (bin, w) in weights.iter().enumerate() {
        if *w > 0.0 {
            for v in &mut sums[bin] {
                *v /= w;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{evaluate_openloop, AdmissionConfig, OpenLoopEntry, OpenLoopSpec};
    use simkit::arrivals::ArrivalProcess;
    use sparklite::cluster::ClusterSpec;
    use workloads::mixes::InputSize;

    fn small_run_config() -> RunConfig {
        RunConfig {
            scheduler: SchedulerConfig {
                cluster: ClusterSpec::small(4),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn mix(catalog: &Catalog, names: &[(&str, InputSize)]) -> Vec<MixEntry> {
        names
            .iter()
            .map(|(n, s)| MixEntry {
                benchmark: catalog.by_name(n).unwrap().index(),
                size: *s,
            })
            .collect()
    }

    #[test]
    fn isolated_times_are_positive_and_size_monotone() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("HB.Sort", InputSize::Small),
                ("HB.Sort", InputSize::Medium),
            ],
        );
        let iso = isolated_times(&catalog, &m, &cfg.scheduler, 1).unwrap();
        assert!(iso[0] > 0.0);
        assert!(iso[1] > iso[0], "bigger input takes longer: {iso:?}");
    }

    #[test]
    fn oracle_normalized_stp_beats_baseline() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("SP.glm-regression", InputSize::Medium),
                ("BDB.Grep", InputSize::Medium),
                ("HB.PageRank", InputSize::Medium),
            ],
        );
        let out = run_policy(PolicyKind::Oracle, &catalog, &m, &cfg, 3).unwrap();
        assert!(
            out.normalized.normalized_stp > 1.5,
            "normalized STP {:.2}",
            out.normalized.normalized_stp
        );
        assert!(out.normalized.antt_reduction_pct > 0.0);
    }

    #[test]
    fn moe_close_to_oracle_on_small_mix() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("SB.Hive", InputSize::Medium),
                ("SP.Kmeans", InputSize::Medium),
                ("HB.WordCount", InputSize::Medium),
            ],
        );
        let oracle = run_policy(PolicyKind::Oracle, &catalog, &m, &cfg, 7).unwrap();
        let moe = run_policy(PolicyKind::Moe, &catalog, &m, &cfg, 7).unwrap();
        let ratio = moe.normalized.normalized_stp / oracle.normalized.normalized_stp;
        assert!(ratio > 0.6, "MoE only reaches {ratio:.2} of Oracle");
        assert!(ratio <= 1.05, "MoE cannot beat Oracle by much: {ratio:.2}");
    }

    #[test]
    fn scenario_evaluation_aggregates_mixes() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let multi = evaluate_scenario_multi(
            &[PolicyKind::Oracle],
            MixScenario { label: 1, apps: 2 },
            &catalog,
            &cfg,
            3,
            11,
        )
        .unwrap();
        let stats = &multi.per_policy[0];
        assert_eq!(stats.mixes, 3);
        assert!(stats.stp_min_max.0 <= stats.stp_mean);
        assert!(stats.stp_mean <= stats.stp_min_max.1);
    }

    fn assert_config_error<T: std::fmt::Debug>(result: Result<T, ColocateError>) {
        assert!(
            matches!(result, Err(ColocateError::Config(_))),
            "expected a configuration error, got {result:?}"
        );
    }

    #[test]
    fn zero_size_campaigns_are_config_errors() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let sc = MixScenario { label: 1, apps: 2 };
        let oracle = PolicyKind::Oracle;
        assert_config_error(evaluate_scenario_multi(&[oracle], sc, &catalog, &cfg, 0, 1));
        let resilience = ResilienceConfig::default();
        let entry = ChaosEntry {
            label: "oracle",
            policy: oracle,
            resilience,
        };
        let chaos = ChaosSpec::default();
        assert_config_error(evaluate_chaos(&[entry], sc, &catalog, &cfg, 0, 1, &chaos));
        let entry = OpenLoopEntry {
            label: "oracle",
            policy: oracle,
            admission: AdmissionConfig::controlled(),
            resilience,
        };
        let spec = OpenLoopSpec {
            process: ArrivalProcess::Poisson { rate_per_sec: 0.01 },
            horizon_secs: 1_000.0,
            tenants: 1,
            tenant_weights: Vec::new(),
            job_classes: vec![(0, InputSize::Small.gb())],
            max_jobs: 0,
            chaos,
            replications: 0,
        };
        assert_config_error(evaluate_openloop(&[entry], &catalog, &cfg, &spec, 1));
    }

    #[test]
    fn nan_infinite_and_out_of_range_chaos_specs_are_rejected() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let oracle = PolicyKind::Oracle;
        let resilience = ResilienceConfig::default();
        let entry = ChaosEntry {
            label: "oracle",
            policy: oracle,
            resilience,
        };
        let open_entry = OpenLoopEntry {
            label: "oracle",
            policy: oracle,
            admission: AdmissionConfig::default(),
            resilience,
        };
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        type Setter = fn(&mut ChaosSpec, f64);
        let setters: [(Setter, &[f64]); 8] = [
            (|c, v| c.intensity = v, &[-0.5, 1.5]),
            (|c, v| c.noise_window_frac = v, &[-0.5, 1.5]),
            (|c, v| c.mean_outage_secs = v, &[-1.0]),
            (|c, v| c.mean_dropout_secs = v, &[-1.0]),
            (|c, v| c.noise_sd = v, &[-1.0]),
            (|c, v| c.horizon_frac = v, &[-1.0]),
            (|c, v| c.spot_rate = v, &[-1.0]),
            (|c, v| c.spot_warning_secs = v, &[-1.0]),
        ];
        let sc = MixScenario { label: 1, apps: 2 };
        for (set, out_of_range) in setters {
            for &value in non_finite.iter().chain(out_of_range) {
                let mut chaos = ChaosSpec::at_intensity(0.5);
                set(&mut chaos, value);
                assert_config_error(evaluate_chaos(&[entry], sc, &catalog, &cfg, 1, 1, &chaos));
                let spec = OpenLoopSpec {
                    process: ArrivalProcess::Poisson { rate_per_sec: 0.01 },
                    horizon_secs: 1_000.0,
                    tenants: 1,
                    tenant_weights: Vec::new(),
                    job_classes: vec![(0, InputSize::Small.gb())],
                    max_jobs: 4,
                    chaos,
                    replications: 1,
                };
                assert_config_error(evaluate_openloop(&[open_entry], &catalog, &cfg, &spec, 1));
            }
        }
    }

    #[test]
    fn malformed_open_loop_specs_are_rejected_before_any_plan_is_drawn() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let entry = OpenLoopEntry {
            label: "oracle",
            policy: PolicyKind::Oracle,
            admission: AdmissionConfig::default(),
            resilience: ResilienceConfig::default(),
        };
        fn bursty(base: f64, peak: f64, period: f64) -> ArrivalProcess {
            ArrivalProcess::Bursty {
                base_rate_per_sec: base,
                peak_rate_per_sec: peak,
                period_secs: period,
            }
        }
        fn poisson(rate: f64) -> ArrivalProcess {
            ArrivalProcess::Poisson { rate_per_sec: rate }
        }
        type Setter = fn(&mut OpenLoopSpec);
        let cases: [(&str, Setter); 16] = [
            ("no job classes", |s| s.job_classes.clear()),
            ("no tenants", |s| s.tenants = 0),
            ("NaN horizon", |s| s.horizon_secs = f64::NAN),
            ("infinite horizon", |s| s.horizon_secs = f64::INFINITY),
            ("zero horizon", |s| s.horizon_secs = 0.0),
            ("negative horizon", |s| s.horizon_secs = -1.0),
            ("NaN rate", |s| s.process = poisson(f64::NAN)),
            ("infinite rate", |s| s.process = poisson(f64::INFINITY)),
            ("negative rate", |s| s.process = poisson(-0.01)),
            ("NaN base rate", |s| {
                s.process = bursty(f64::NAN, 0.02, 100.0)
            }),
            ("negative base rate", |s| {
                s.process = bursty(-0.01, 0.02, 100.0)
            }),
            ("peak below base", |s| s.process = bursty(0.02, 0.01, 100.0)),
            ("NaN peak", |s| s.process = bursty(0.01, f64::NAN, 100.0)),
            ("NaN period", |s| s.process = bursty(0.01, 0.02, f64::NAN)),
            ("zero period", |s| s.process = bursty(0.01, 0.02, 0.0)),
            ("negative period", |s| {
                s.process = bursty(0.01, 0.02, -100.0)
            }),
        ];
        for (what, set) in cases {
            let mut spec = OpenLoopSpec {
                process: poisson(0.01),
                horizon_secs: 1_000.0,
                tenants: 1,
                tenant_weights: Vec::new(),
                job_classes: vec![(0, InputSize::Small.gb())],
                max_jobs: 4,
                chaos: ChaosSpec::default(),
                replications: 1,
            };
            set(&mut spec);
            let result = evaluate_openloop(&[entry], &catalog, &cfg, &spec, 1);
            assert!(
                matches!(result, Err(ColocateError::Config(_))),
                "{what}: expected a configuration error, got {result:?}"
            );
        }
    }

    #[test]
    fn fault_stats_add_assign_sums_every_field() {
        // Every field distinct, so a dropped or crossed field shows.
        let scaled = |k: usize| FaultStats {
            node_crashes: k,
            executor_crashes: 2 * k,
            monitor_dropouts: 3 * k,
            prediction_noise: 4 * k,
            slices_requeued_gb: 5.5 * k as f64,
            retries: 6 * k,
            quarantines: 7 * k,
            isolated_fallbacks: 8 * k,
            spot_preemptions: 9 * k,
            drains: 10 * k,
        };
        let mut sum = scaled(1);
        sum += scaled(1);
        assert_eq!(sum, scaled(2));
    }

    fn one_node_trace(samples: &[(f64, f64)]) -> UtilTrace {
        let mut trace = UtilTrace::new(1);
        for &(t, load) in samples {
            trace.push(t, std::iter::once(load));
        }
        trace
    }

    #[test]
    fn trace_binning_is_time_weighted() {
        // One node: load 1.0 for 10 s then 0.0 for 10 s.
        let trace = one_node_trace(&[(0.0, 1.0), (10.0, 0.0)]);
        let bins = bin_trace(&trace, 20.0, 2);
        assert!((bins[0][0] - 1.0).abs() < 1e-9);
        assert!(bins[1][0].abs() < 1e-9);
        let single = bin_trace(&trace, 20.0, 1);
        assert!((single[0][0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn trace_binning_survives_boundary_aligned_events() {
        // Events exactly on bin boundaries must not stall the binning
        // loop (a floating-point edge found by Fig. 7's Pairwise trace).
        let trace = one_node_trace(&[(0.0, 1.0), (10.0, 0.5), (20.0, 0.25)]);
        let bins = bin_trace(&trace, 30.0, 3);
        assert!((bins[0][0] - 1.0).abs() < 1e-9);
        assert!((bins[1][0] - 0.5).abs() < 1e-9);
        assert!((bins[2][0] - 0.25).abs() < 1e-9);
        // Irrational-ish makespan: boundaries don't divide evenly.
        let bins = bin_trace(&trace, 29.973, 7);
        let avg: f64 = bins.iter().map(|b| b[0]).sum::<f64>() / 7.0;
        assert!(avg > 0.2 && avg < 1.0);
    }
}
