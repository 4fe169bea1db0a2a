//! The open-system streaming service (§6's evaluation, opened up): jobs
//! arrive over simulated time from a pre-drawn
//! [`ArrivalPlan`](simkit::arrivals::ArrivalPlan) instead of all sitting
//! in the queue at `t = 0`, and the dispatcher is wrapped in an
//! overload-robust admission layer:
//!
//! * **memory-aware admission** — a job is admitted only while the sum of
//!   MoE-predicted footprints of everything already admitted leaves
//!   headroom on the online cluster ([`AdmissionConfig::headroom_frac`]);
//!   an empty cluster always admits (no deadlock on oversized jobs);
//! * **weighted fair queueing** — queued jobs are ordered by per-tenant
//!   virtual finish times, so a heavy tenant cannot starve light ones;
//! * **load shedding** — above [`AdmissionConfig::shed_watermark`] the
//!   largest-finish-tag jobs are dropped (seeded tie-breaks), bounding
//!   queue growth under sustained overload;
//! * **backpressure** — when headroom runs out admission simply defers:
//!   arrivals keep landing but nothing new starts, counted as deferrals;
//! * **circuit breaker** — when memory distress (executor crashes plus
//!   OOM kills; infrastructure node crashes are the fault layer's
//!   business) inside a sliding window exceeds a threshold, the breaker
//!   opens and placement *abstains* from co-location (isolated whole-node
//!   reservations only) until the distress rate recovers, with hysteresis
//!   on the way back. Admission keeps flowing while open — the service
//!   degrades to isolated throughput instead of stalling.
//!
//! This module owns the dispatcher's only event loop. Each scheduling
//! instant it delivers due arrivals, replays faults, marks finishes, runs
//! the admission layer, places executors, resolves OOMs and advances the
//! engine to the next completion or external event. The closed system of
//! the paper's evaluation is the loop's batch case: the
//! [`run_schedule`](crate::scheduler::run_schedule) family submits the mix
//! as a [`batch`](simkit::arrivals::ArrivalPlan::batch) plan (every job at
//! `t = 0`) with admission off, which is also the only way the
//! non-predictive `Isolated` and `Pairwise` policies reach the loop.
//! Everything open-system is opt-in: with [`AdmissionConfig::enabled`]
//! `false` no admission, shedding or breaker state moves and nothing extra
//! is drawn from the RNG.

use crate::harness::{fold_campaign, trained_systems_for, BaselineCache, ChaosSpec, RunConfig};
use crate::metrics::percentiles;
use crate::profiling::{profile_app, AppProfile, ProfilingCost};
use crate::scheduler::{
    apply_fault, build_predictor, effective_margin, fair_share, force_place, note_completion,
    place, process_revocations, resolve_ooms, AppRt, FaultStats, NextSeed, PolicyKind, ResilState,
    ResilienceConfig, SchedulerConfig,
};
use crate::training::TrainedSystem;
use crate::ColocateError;
use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
use simkit::faults::FaultPlan;
use simkit::stats::TimeWeighted;
use simkit::{SimRng, SimTime};
use sparklite::engine::ClusterEngine;
use sparklite::NodeId;
use std::collections::{HashMap, VecDeque};
use workloads::catalog::Catalog;

/// Circuit-breaker thresholds for the admission layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window the distress rate is measured over, seconds.
    pub window_secs: f64,
    /// Distress events (executor crashes + OOM kills) within one window
    /// that trip the breaker open.
    pub trip_threshold: usize,
    /// The breaker closes again only once the window holds at most this
    /// many events — strictly below the trip threshold, so the state
    /// machine has hysteresis instead of flapping.
    pub recover_threshold: usize,
    /// Minimum time the breaker stays open before a recovery check, s.
    pub cooldown_secs: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window_secs: 600.0,
            trip_threshold: 6,
            recover_threshold: 1,
            cooldown_secs: 300.0,
        }
    }
}

/// Admission-control knobs for the open-system service. Disabled by
/// default: every arrival is admitted the instant its profiling finishes,
/// reproducing an uncontrolled open system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Master switch; `false` admits everything immediately and draws
    /// nothing from the RNG, keeping uncontrolled runs bit-identical to a
    /// service without this layer.
    pub enabled: bool,
    /// Hard bound on the admission queue; arrivals beyond it are shed on
    /// the spot.
    pub queue_capacity: usize,
    /// Queue length above which the largest-finish-tag jobs are shed.
    pub shed_watermark: usize,
    /// Fraction of online-cluster RAM the committed (admitted but
    /// unfinished) predicted footprints may occupy.
    pub headroom_frac: f64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            enabled: false,
            queue_capacity: 64,
            shed_watermark: 48,
            headroom_frac: 0.9,
            breaker: BreakerConfig::default(),
        }
    }
}

impl AdmissionConfig {
    /// The overload-robust preset the open-loop evaluation races against
    /// uncontrolled baselines.
    ///
    /// The shape errs toward protecting admitted work over accepting more:
    /// a short queue (6) with an aggressive watermark (3) sheds the excess
    /// of a sustained storm instead of letting every job's wait grow
    /// without bound, and the headroom fraction of 1.25 books committed
    /// footprints against RAM *plus* swap (the paper nodes carry 16 GB of
    /// swap per 64 GB of RAM) — the engine can page, so refusing to book
    /// past physical RAM would idle memory the cluster does have, while
    /// the shed watermark and circuit breaker absorb the excursions
    /// beyond it.
    #[must_use]
    pub fn controlled() -> Self {
        AdmissionConfig {
            enabled: true,
            queue_capacity: 6,
            shed_watermark: 3,
            headroom_frac: 1.25,
            breaker: BreakerConfig::default(),
        }
    }
}

/// Configuration of one open-system service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scheduler configuration (cluster, profiling, resilience, …).
    pub scheduler: SchedulerConfig,
    /// Admission-control configuration.
    pub admission: AdmissionConfig,
    /// Per-tenant WFQ weights; empty means every tenant weighs 1.0. When
    /// non-empty it must cover every tenant index the plan references.
    pub tenant_weights: Vec<f64>,
    /// Job-class table: [`ArrivalEvent::job_class`](simkit::arrivals::ArrivalEvent)
    /// indexes into this `(benchmark index, input GB)` list.
    pub job_classes: Vec<(usize, f64)>,
}

/// One job's fate in an open-system run.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Catalog index of the benchmark.
    pub benchmark: usize,
    /// Input size, GB.
    pub input_gb: f64,
    /// Tenant the job belongs to.
    pub tenant: usize,
    /// When the job arrived, s.
    pub arrived_at: f64,
    /// When admission let it through (`None` if shed or never admitted).
    pub admitted_at: Option<f64>,
    /// When it finished (`None` if shed).
    pub finished_at: Option<f64>,
    /// Dropped by load shedding: the job never ran.
    pub shed: bool,
}

/// Outcome of one open-system service run.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Per-job outcomes, in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Time the last surviving job finished, s.
    pub makespan_secs: f64,
    /// OOM kills across the run.
    pub oom_kills: usize,
    /// Jobs dropped by load shedding.
    pub shed_jobs: usize,
    /// Backpressure events: eligible queued jobs left waiting by an
    /// admission pass because headroom ran out. A job deferred across many
    /// scheduling instants counts once per instant, so this is a
    /// time-integral of queue pressure, not a distinct-job count.
    pub deferrals: usize,
    /// Isolated placements forced by an open circuit breaker.
    pub abstain_placements: usize,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Largest admission-queue depth observed. With admission disabled
    /// nothing is ever formally admitted, so this degenerates to the
    /// arrived-but-unfinished backlog — the open system's work in flight.
    pub max_queue_depth: usize,
    /// Time-averaged admission-queue depth (same caveat as
    /// [`max_queue_depth`](Self::max_queue_depth)).
    pub mean_queue_depth: f64,
    /// Delivered faults and the self-healing layer's responses.
    pub faults: FaultStats,
    /// Internal-consistency counters the chaos-search invariant battery
    /// audits after the run.
    pub audit: AdmissionAudit,
}

/// Internal-consistency counters recorded alongside a service run — the
/// hooks the chaos-search invariant battery reads. On a healthy run every
/// violation counter is zero: they pin the admission layer's contracts
/// (committed-GB accounting, WFQ ordering, breaker liveness, quarantine
/// finiteness) against refactors, and a chaos episode that drives any of
/// them non-zero is a reportable invariant violation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionAudit {
    /// Largest committed-footprint sum observed right after an admission,
    /// GB (informational, not a violation counter).
    pub peak_committed_gb: f64,
    /// Admissions that left the committed sum above the headroom budget
    /// while more than one booking was in flight. The single-booking
    /// escape — an otherwise-empty cluster always admits one oversized
    /// job — is legitimate and not counted.
    pub overbook_events: usize,
    /// Times the committed sum went negative (impossible by construction;
    /// recomputed from live bookings each admission).
    pub negative_commit_events: usize,
    /// Admissions whose head was not a minimum-vft eligible job — the WFQ
    /// no-starvation ordering contract.
    pub wfq_order_violations: usize,
    /// Breaker reopens with no in-window distress to justify them (see
    /// [`CircuitBreaker::quiet_reopens`]) — the trip-lock invariant: under
    /// a fault-free tail the window drains and the breaker must close.
    pub quiet_breaker_reopens: usize,
    /// Quarantine deadlines left non-finite at the end of the run: a
    /// quarantined node must carry a finite release deadline, never limbo.
    pub nonfinite_quarantines: usize,
    /// Whether the breaker was still open when the service drained
    /// (informational: legitimate when distress lands near the end).
    pub final_breaker_open: bool,
}

/// Sidecar state the admission layer keeps per planned job.
struct JobState {
    tenant: usize,
    arrived: bool,
    admitted_at: Option<f64>,
    shed: bool,
    /// When the profiling pipeline (run at arrival) completes, s.
    profile_ready: f64,
    /// WFQ virtual finish tag, assigned at arrival.
    vft: f64,
    /// Predicted footprint booked against the headroom budget; released
    /// when the job finishes and leaves the live list.
    committed_gb: f64,
}

/// Circuit-breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    Closed,
    Open { until: f64 },
}

/// The admission layer's memory-distress circuit breaker, extracted as a
/// standalone state machine so its hysteresis edges can be unit- and
/// property-tested (and chaos-searched) without driving a full service
/// run.
///
/// Distress events (executor crashes plus OOM kills) land in a sliding
/// window of [`BreakerConfig::window_secs`]. When a closed breaker's
/// window reaches [`BreakerConfig::trip_threshold`] it opens for at least
/// [`BreakerConfig::cooldown_secs`]; at each recovery check it closes only
/// once the window has drained to [`BreakerConfig::recover_threshold`] —
/// otherwise it stays open another cooldown. The two thresholds differ
/// (hysteresis), so the machine cannot flap on a borderline distress rate.
///
/// The event loop drives this in a fixed order each scheduling instant:
/// [`note_distress`](Self::note_distress) for crashes, then
/// [`prune`](Self::prune) + [`recover`](Self::recover), then
/// [`note_distress`](Self::note_distress) for kills and
/// [`maybe_trip`](Self::maybe_trip).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Breaker,
    distress: VecDeque<f64>,
    trips: usize,
    quiet_reopens: usize,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds and an empty window.
    #[must_use]
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Breaker::Closed,
            distress: VecDeque::new(),
            trips: 0,
            quiet_reopens: 0,
        }
    }

    /// Records one distress event (an executor crash or an OOM kill) at
    /// time `t`.
    pub fn note_distress(&mut self, t: f64) {
        self.distress.push_back(t);
    }

    /// Drops window entries older than `t − window_secs`.
    pub fn prune(&mut self, t: f64) {
        while self
            .distress
            .front()
            .is_some_and(|&f| t - f > self.config.window_secs)
        {
            self.distress.pop_front();
        }
    }

    /// Runs the recovery check: an open breaker at or past its deadline
    /// closes if the window has drained to the recover threshold,
    /// otherwise it stays open another cooldown. Call after
    /// [`prune`](Self::prune) so the window reflects time `t`.
    pub fn recover(&mut self, t: f64) {
        if let Breaker::Open { until } = self.state {
            if t >= until {
                if self.distress.len() <= self.config.recover_threshold {
                    self.state = Breaker::Closed;
                } else {
                    // A reopen must be justified by recent distress; a
                    // stale window here means the prune/recover contract
                    // broke. Counted, not asserted — the chaos-search
                    // battery pins it at zero as the trip-lock invariant.
                    let stale = match self.distress.back() {
                        None => true,
                        Some(&f) => t - f > self.config.window_secs,
                    };
                    if stale {
                        self.quiet_reopens += 1;
                    }
                    self.state = Breaker::Open {
                        until: t + self.config.cooldown_secs,
                    };
                }
            }
        }
    }

    /// Trips a closed breaker whose window has reached the trip
    /// threshold; returns whether a trip happened.
    pub fn maybe_trip(&mut self, t: f64) -> bool {
        if matches!(self.state, Breaker::Closed)
            && self.distress.len() >= self.config.trip_threshold
        {
            self.state = Breaker::Open {
                until: t + self.config.cooldown_secs,
            };
            self.trips += 1;
            true
        } else {
            false
        }
    }

    /// Whether the breaker is currently open (placement must abstain from
    /// co-location).
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self.state, Breaker::Open { .. })
    }

    /// The next scheduled recovery check strictly after `t`, if any.
    #[must_use]
    pub fn next_check_after(&self, t: f64) -> Option<f64> {
        match self.state {
            Breaker::Open { until } if until > t => Some(until),
            _ => None,
        }
    }

    /// Times the breaker has tripped open.
    #[must_use]
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Reopens that happened with no in-window distress to justify them —
    /// zero unless the prune/recover contract is broken.
    #[must_use]
    pub fn quiet_reopens(&self) -> usize {
        self.quiet_reopens
    }

    /// Distress events currently inside the sliding window.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.distress.len()
    }
}

/// RAM of every online node, GB — the denominator of the headroom gate.
fn online_ram_gb(engine: &ClusterEngine, node_ids: &[NodeId]) -> f64 {
    node_ids
        .iter()
        .filter(|&&n| engine.node_online(n))
        .map(|&n| engine.cluster().node(n).spec().ram_gb)
        .sum()
}

/// The predicted whole-job footprint admission books: per-executor
/// predicted need at the dynalloc slice, margins applied, times the
/// executor target. Deliberately pessimistic — the gate protects the
/// cluster, the placement loop still packs tighter than this.
fn admission_need_gb(app: &AppRt, config: &SchedulerConfig) -> f64 {
    let Some(prediction) = &app.prediction else {
        return 0.0;
    };
    let (target, slice) = app.share;
    prediction.model.footprint_gb(slice)
        * app.pred_scale
        * effective_margin(app, config)
        * target as f64
}

/// Runs one open-system campaign: every arrival in `plan` is mapped
/// through [`ServiceConfig::job_classes`], profiled on arrival, passed
/// through the admission layer (when enabled) and scheduled by `policy`'s
/// dispatcher, with `faults` (when given) replayed against the cluster.
///
/// Determinism: the outcome is a pure function of the arguments. A
/// [`batch`](ArrivalPlan::batch) plan with admission disabled is exactly
/// what the closed-system [`run_schedule_custom`](crate::scheduler::run_schedule_custom)
/// runs, so the two agree bit for bit.
///
/// # Errors
///
/// Rejects non-predictive policies (`Isolated`/`Pairwise` have no memory
/// model for the admission gate), empty plans, and plans referencing
/// tenants or job classes the config does not define; propagates
/// substrate and predictor failures.
pub fn run_service(
    policy: PolicyKind,
    catalog: &Catalog,
    plan: &ArrivalPlan,
    system: Option<&TrainedSystem>,
    config: &ServiceConfig,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<ServiceOutcome, ColocateError> {
    if !policy.is_predictive() {
        return Err(ColocateError::Config(format!(
            "open-system service needs a predictive policy, got {policy:?}"
        )));
    }
    if plan.is_empty() {
        return Err(ColocateError::Config("empty arrival plan".into()));
    }
    for event in plan.events() {
        if event.job_class >= config.job_classes.len() {
            return Err(ColocateError::Config(format!(
                "arrival references job class {} but only {} are defined",
                event.job_class,
                config.job_classes.len()
            )));
        }
        if !config.tenant_weights.is_empty() && event.tenant >= config.tenant_weights.len() {
            return Err(ColocateError::Config(format!(
                "arrival references tenant {} but only {} weights are defined",
                event.tenant,
                config.tenant_weights.len()
            )));
        }
    }
    for &(bench, input) in &config.job_classes {
        if bench >= catalog.all().len() {
            return Err(ColocateError::Config(format!(
                "job class references benchmark {bench} outside the catalog"
            )));
        }
        if !input.is_finite() || input <= 0.0 {
            return Err(ColocateError::Config(
                "job classes need positive input sizes".into(),
            ));
        }
    }
    if !config.tenant_weights.iter().all(|&w| w > 0.0) {
        return Err(ColocateError::Config(
            "tenant weights must be positive".into(),
        ));
    }
    run_loop(policy, catalog, plan, system, config, seed, faults, false).map(|run| run.outcome)
}

/// What [`run_loop`] leaves behind: the service outcome, the final
/// per-job dispatcher state (in plan order) and, when asked for, the
/// utilisation trace — `(time, per-node CPU load)` at every scheduling
/// instant.
pub(crate) struct LoopRun {
    pub(crate) outcome: ServiceOutcome,
    pub(crate) apps: Vec<AppRt>,
    pub(crate) trace: Vec<(f64, Vec<f64>)>,
    /// The engine as the run left it, for tests that check end state.
    #[cfg(test)]
    pub(crate) engine: ClusterEngine,
}

/// Rejects a scheduler config the loop cannot run faithfully: a cluster
/// without nodes or usable RAM, or a bound that is NaN, infinite or out of
/// range. A NaN cap or margin would silently disable its guard, a zero
/// executor cap would let the forced placement ignore it, and a bad
/// startup latency would panic in the engine.
fn validate_scheduler(sched: &SchedulerConfig) -> Result<(), ColocateError> {
    if sched.cluster.nodes == 0 {
        return Err(ColocateError::Config(
            "the cluster needs at least one node".into(),
        ));
    }
    if sched.max_execs_per_node == 0 {
        return Err(ColocateError::Config(
            "max_execs_per_node must be at least 1".into(),
        ));
    }
    let positive = [
        ("node RAM (GB)", sched.cluster.node.ram_gb),
        ("cpu_cap", sched.cpu_cap),
        ("reserve_margin", sched.reserve_margin),
        ("conservative_margin", sched.conservative_margin),
    ];
    for (name, value) in positive {
        if !value.is_finite() || value <= 0.0 {
            return Err(ColocateError::Config(format!(
                "{name} must be finite and positive, got {value}"
            )));
        }
    }
    let non_negative = [
        ("executor_startup_secs", sched.executor_startup_secs),
        ("min_slice_gb", sched.min_slice_gb),
        ("partition_gb", sched.partition_gb),
    ];
    for (name, value) in non_negative {
        if !value.is_finite() || value < 0.0 {
            return Err(ColocateError::Config(format!(
                "{name} must be finite and non-negative, got {value}"
            )));
        }
    }
    Ok(())
}

/// Iteration guard of the event loop: a run still going after this many
/// scheduling instants is wedged and fails with an error.
const LOOP_GUARD: usize = 500_000;

/// The dispatcher's event loop, shared by [`run_service`] and the
/// closed-system [`run_schedule`](crate::scheduler::run_schedule) family
/// (which runs it over a batch plan with admission off). Callers validate
/// `plan` against `config`; this takes every policy, including the
/// non-predictive ones, which profile nothing and draw nothing.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn run_loop(
    policy: PolicyKind,
    catalog: &Catalog,
    plan: &ArrivalPlan,
    system: Option<&TrainedSystem>,
    config: &ServiceConfig,
    seed: u64,
    faults: Option<&FaultPlan>,
    record_trace: bool,
) -> Result<LoopRun, ColocateError> {
    let sched = &config.scheduler;
    let admission = config.admission;
    validate_scheduler(sched)?;

    let mut rng = SimRng::seed_from(seed);
    let predictor = build_predictor(policy, catalog, system, &mut rng)?;

    let mut engine = ClusterEngine::with_seed(
        sched.cluster.clone(),
        sched.interference,
        rng.fork().next_u64_seed(),
    );
    engine.set_executor_startup_secs(sched.executor_startup_secs);

    // Submit every planned job up front (the engine is inert about apps
    // without executors). Under a predictive policy each job's profiling
    // pipeline runs from its arrival instant, drawing in plan order;
    // `Isolated` and `Pairwise` profile nothing and schedule on the
    // benchmark's nominal CPU demand.
    let mut apps: Vec<AppRt> = Vec::with_capacity(plan.len());
    let mut jobs: Vec<JobState> = Vec::with_capacity(plan.len());
    let mut profiles: Vec<AppProfile> = Vec::new();
    // Profiling happens off the computing cluster, "grouping different
    // application tasks to run on a single host" (§4.1) — modeled as a
    // small pool of concurrent profiling slots on the coordinating side.
    let mut profile_slots = [0.0f64; 6];
    let mut search_queue_end = 0.0f64; // OnlineSearch serialises on the driver.
    for event in plan.events() {
        let (bench_idx, input) = config.job_classes[event.job_class];
        let bench = &catalog.all()[bench_idx];
        let rate_penalty = if policy == PolicyKind::OnlineSearch {
            1.0 / (1.0 + sched.search_rate_penalty)
        } else {
            1.0
        };
        let mut spec = bench.app_spec(input, sched.profiling.footprint_noise_sd);
        spec.rate_gb_per_s *= rate_penalty;
        let engine_id = engine.submit(spec);
        let share = fair_share(&engine, engine_id, sched);

        let mut ready = event.at_secs;
        let mut profiling = ProfilingCost::default();
        let mut measured_cpu = bench.cpu_util();
        if let Some(p) = predictor.as_ref() {
            let (profile, cost) = profile_app(
                bench,
                input,
                sched.cluster.nodes,
                sched.cluster.node.ram_gb,
                &sched.profiling,
                &mut rng,
            );
            if p.needs_profiling() {
                engine.credit_profiled(engine_id, cost.profiled_gb);
                // Take the earliest-free profiling slot, starting no
                // earlier than the arrival. Slot times are sums of
                // positive costs, so `total_cmp` orders them exactly as
                // `partial_cmp` would.
                let slot = profile_slots
                    .iter_mut()
                    .min_by(|a, b| a.total_cmp(b))
                    .ok_or_else(|| ColocateError::Config("profiling slot pool is empty".into()))?;
                *slot = slot.max(event.at_secs) + cost.total_secs();
                ready = *slot;
                profiling = cost;
            }
            if policy == PolicyKind::OnlineSearch {
                // Descent search serialised on the coordinating node.
                let search = sched.search_serial_frac * input / bench.rate_gb_per_s();
                search_queue_end = search_queue_end.max(event.at_secs) + search;
                ready = ready.max(search_queue_end);
            }
            measured_cpu = profile.measured_cpu;
            profiles.push(profile);
        }
        apps.push(AppRt {
            engine_id,
            benchmark: bench_idx,
            // With admission enabled a job is invisible to placement until
            // an admission pass grants it a finite ready time.
            ready_at: if admission.enabled {
                f64::INFINITY
            } else {
                ready
            },
            share,
            prediction: None,
            measured_cpu,
            margin: 1.0,
            finished_at: None,
            profiling,
            input_gb: input,
            pred_scale: 1.0,
            err_ewma: 1.0,
            failures: 0,
            retry_at: 0.0,
            isolated_fallback: false,
        });
        jobs.push(JobState {
            tenant: event.tenant,
            arrived: false,
            admitted_at: None,
            shed: false,
            profile_ready: ready,
            vft: 0.0,
            committed_gb: 0.0,
        });
    }
    // Fault handlers and the OOM resolver find an executor's owner as
    // `apps[owner.index()]`: the engine numbers apps in submit order.
    debug_assert!(apps
        .iter()
        .enumerate()
        .all(|(i, app)| app.engine_id.index() == i));
    // One batched prediction over every planned job: the MoE serves it
    // through the whole-matrix selector path, bitwise identical to per-job
    // predict calls (and the profiling RNG draws above are untouched —
    // predict consumes none).
    if let Some(p) = predictor.as_ref() {
        let refs: Vec<&AppProfile> = profiles.iter().collect();
        for (app, prediction) in apps.iter_mut().zip(p.predict_batch(&refs)?) {
            if let Some(cpu) = prediction.cpu_estimate {
                app.measured_cpu = cpu;
            }
            if prediction.low_confidence {
                app.margin = sched.conservative_margin;
            }
            app.prediction = Some(prediction);
        }
    }

    // Event-loop state. The jitter RNG is forked only when resilience is
    // enabled and the shed RNG only when admission is, so a run without
    // either draws nothing beyond the engine seed and the profiles.
    let mut monitor = sparklite::monitor::ResourceMonitor::new(sched.cluster.nodes, sched.monitor);
    let mut t = 0.0f64;
    let mut oom_kills = 0usize;
    let node_ids = engine.cluster().node_ids();
    // OOM-candidate scratch: only nodes whose final footprints overflow
    // RAM can ever report OutOfMemory (see ClusterEngine::hot_nodes_into),
    // so the resolver scans this short list instead of the whole cluster.
    let mut hot_nodes: Vec<NodeId> = Vec::new();
    // Placement scratch, hoisted out of the per-event placement calls.
    let mut place_scratch = crate::scheduler::PlaceScratch::default();
    let mut trace: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut guard = 0usize;

    let mut fault_cursor = faults.map(FaultPlan::cursor);
    let mut restore_at = vec![0.0f64; node_ids.len()];
    let mut revoke_at = vec![0.0f64; node_ids.len()];
    let mut revoke_outage = vec![0.0f64; node_ids.len()];
    // Whether any fault has been delivered yet.
    let mut faulted = false;
    let mut resil = ResilState {
        jitter: sched.resilience.enabled.then(|| rng.fork()),
        quarantined_until: vec![0.0; node_ids.len()],
        oom_times: vec![VecDeque::new(); node_ids.len()],
        stats: FaultStats::default(),
        quarantine_writes: 0,
    };
    let mut shed_rng = admission.enabled.then(|| rng.fork());

    let mut arrivals = plan.cursor();
    let mut tenant_pass: HashMap<usize, f64> = HashMap::new();
    let mut virtual_time = 0.0f64;
    let mut breaker = CircuitBreaker::new(admission.breaker);
    let mut audit = AdmissionAudit::default();
    let mut deferrals = 0usize;
    let mut shed_jobs = 0usize;
    let mut abstain_placements = 0usize;
    let mut depth_avg = TimeWeighted::new(SimTime::ZERO);
    let mut max_queue_depth = 0usize;
    // The jobs still in play — arrived, not shed, not finished — by plan
    // index in ascending order. Every per-job pass below walks this list
    // instead of the whole plan (DESIGN.md §14, "Live jobs").
    let mut live: Vec<usize> = Vec::with_capacity(plan.len());

    loop {
        guard += 1;
        if guard > LOOP_GUARD {
            return Err(ColocateError::Config(
                "event loop exceeded its iteration guard".into(),
            ));
        }

        // 1. Deliver arrivals due now: assign WFQ finish tags in arrival
        //    order, and shed on the spot once the hard queue cap is hit.
        while let Some(event) = arrivals.pop_due(t) {
            // The cursor walks the plan front to back, so this index is
            // the event's position in plan order.
            let idx = plan.len() - arrivals.remaining() - 1;
            jobs[idx].arrived = true;
            // Arrivals come in plan order, so the push keeps `live`
            // sorted. A job profiling credit already finished never joins.
            let joined = apps[idx].finished_at.is_none();
            if joined {
                live.push(idx);
            }
            let weight = config
                .tenant_weights
                .get(event.tenant)
                .copied()
                .unwrap_or(1.0);
            let pass = tenant_pass.entry(event.tenant).or_insert(0.0);
            let vft = pass.max(virtual_time) + apps[idx].input_gb / weight;
            *pass = vft;
            jobs[idx].vft = vft;
            if admission.enabled && queued_count(&live, &jobs) > admission.queue_capacity {
                jobs[idx].shed = true;
                shed_jobs += 1;
                if joined {
                    live.pop();
                }
            }
        }

        // 2. Faults, spot revocations, node restores. Only a delivered
        //    fault writes the outage arrays, so until one arrives they are
        //    all zero and their passes are skipped.
        let crashes_before = resil.stats.executor_crashes;
        if let Some(cursor) = fault_cursor.as_mut() {
            while let Some(event) = cursor.pop_due(t) {
                faulted = true;
                apply_fault(
                    event,
                    &mut engine,
                    &mut monitor,
                    &mut apps,
                    sched,
                    t,
                    &mut restore_at,
                    &mut revoke_at,
                    &mut revoke_outage,
                    &mut resil,
                )?;
            }
        }
        if faulted {
            process_revocations(
                &mut engine,
                &mut apps,
                sched,
                t,
                &node_ids,
                &mut revoke_at,
                &mut revoke_outage,
                &mut restore_at,
                &mut resil,
            )?;
            for (i, due) in restore_at.iter_mut().enumerate() {
                if *due > 0.0 && *due <= t {
                    engine.restore_node(node_ids[i])?;
                    *due = 0.0;
                }
            }
        }
        if admission.enabled {
            // Only app-level distress feeds the breaker: infrastructure
            // node crashes are handled by self-healing and must not trip
            // the service into isolated mode on their own.
            for _ in crashes_before..resil.stats.executor_crashes {
                breaker.note_distress(t);
            }
        }

        // 3. Mark finishes and release their committed headroom, before
        //    placement so policies see fresh state (the isolated policy
        //    must move on to the next app in the same instant its
        //    predecessor's last executor completes).
        if guard == 1 {
            // Profiling credit can finish a job at submit, before it
            // arrives: the first pass stamps every job.
            for (app, job) in apps.iter_mut().zip(&jobs) {
                stamp_finish(&engine, app, job, t);
            }
        }
        retire_finished(&engine, &mut apps, &jobs, &mut live, t);

        // 4. Breaker recovery with hysteresis: after the cooldown the
        //    breaker closes only if the window has drained below the
        //    recover threshold; otherwise it stays open another cooldown.
        breaker.prune(t);
        breaker.recover(t);

        // 5. Load shedding above the watermark, then admission in WFQ
        //    order while headroom lasts. An open breaker does NOT block
        //    admission — it only forces isolated placement below — so the
        //    service degrades instead of stalling.
        if admission.enabled {
            // Each pass sheds one queued job, so the excess is the count.
            let excess = queued_count(&live, &jobs).saturating_sub(admission.shed_watermark);
            for _ in 0..excess {
                let Some(victim) = pick_shed_victim(&live, &jobs, shed_rng.as_mut()) else {
                    break;
                };
                jobs[victim].shed = true;
                shed_jobs += 1;
                if let Ok(at) = live.binary_search(&victim) {
                    live.remove(at);
                }
            }
            loop {
                let eligible: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&i| jobs[i].admitted_at.is_none() && jobs[i].profile_ready <= t)
                    .collect();
                if eligible.is_empty() {
                    break;
                }
                let head = eligible
                    .iter()
                    .copied()
                    .min_by(|&a, &b| jobs[a].vft.total_cmp(&jobs[b].vft).then(a.cmp(&b)))
                    .unwrap_or(eligible[0]);
                if eligible.iter().any(|&i| jobs[i].vft < jobs[head].vft) {
                    audit.wfq_order_violations += 1;
                }
                let need = admission_need_gb(&apps[head], sched);
                let headroom = admission.headroom_frac * online_ram_gb(&engine, &node_ids);
                // Recomputing the committed sum from the live bookings
                // keeps it exactly zero once everything admitted has
                // finished, so the empty-cluster always-admit escape can
                // never be wedged shut by floating-point residue.
                let committed = committed_gb(&live, &jobs);
                if committed > 0.0 && committed + need > headroom {
                    deferrals += eligible.len();
                    break;
                }
                jobs[head].committed_gb = need;
                jobs[head].admitted_at = Some(t);
                apps[head].ready_at = t.max(jobs[head].profile_ready);
                virtual_time = virtual_time.max(jobs[head].vft);

                // Audit the booking just written: the committed sum must
                // stay non-negative, and may exceed headroom only through
                // the single-booking empty-cluster escape.
                let now_committed = committed_gb(&live, &jobs);
                audit.peak_committed_gb = audit.peak_committed_gb.max(now_committed);
                if now_committed < 0.0 {
                    audit.negative_commit_events += 1;
                }
                let in_flight = live
                    .iter()
                    .filter(|&&i| jobs[i].admitted_at.is_some())
                    .count();
                if in_flight > 1 && now_committed > headroom {
                    audit.overbook_events += 1;
                }
            }
        }

        // 6. Placement (abstaining while the breaker is open) and OOM
        //    resolution, feeding the distress window.
        monitor.observe(&engine, t);
        let abstain = breaker.is_open();
        abstain_placements += place(
            policy,
            &mut engine,
            &apps,
            &live,
            sched,
            t,
            catalog,
            &monitor,
            &resil,
            &node_ids,
            abstain,
            &mut place_scratch,
        )?;
        engine.hot_nodes_into(&mut hot_nodes);
        let kills = resolve_ooms(&mut engine, &mut apps, sched, t, &mut resil, &hot_nodes)?;
        oom_kills += kills;
        if admission.enabled {
            for _ in 0..kills {
                breaker.note_distress(t);
            }
            breaker.maybe_trip(t);
        }

        let depth = queued_count(&live, &jobs);
        max_queue_depth = max_queue_depth.max(depth);
        depth_avg.set(SimTime::from_secs(t), depth as f64);
        if record_trace {
            trace.push((
                t,
                node_ids.iter().map(|&n| engine.node_cpu_load(n)).collect(),
            ));
        }

        // 7. Mark finishes again and terminate once the plan is drained
        //    and no job is left in play. Since step 3 only an OOM kill can
        //    have finished an app: `kill_executor` hands the slice's
        //    unprocessed work back, and when that is float dust (≤ 1e-9)
        //    with nothing else unassigned, `abort_slice` marks the app
        //    finished. Placement only takes input, and admission and the
        //    breaker never touch the engine, so without a kill this pass
        //    would retire nothing.
        if kills > 0 {
            retire_finished(&engine, &mut apps, &jobs, &mut live, t);
        }
        debug_assert_eq!(
            live,
            (0..jobs.len())
                .filter(|&i| jobs[i].arrived && !jobs[i].shed && apps[i].finished_at.is_none())
                .collect::<Vec<_>>(),
            "the live list drifted from the job states at t={t}"
        );
        if arrivals.remaining() == 0 && live.is_empty() {
            break;
        }

        // 8. Next externally scheduled instant: an application becoming
        //    ready (profiling done or retry backoff elapsed), the next
        //    arrival, profiling completions of queued-but-unprofiled jobs
        //    (admission waits for the memory estimate), the breaker's
        //    recovery check, a fault striking, or a crashed or revoked
        //    node's outage starting or ending. At a batch plan without
        //    admission or faults only the ready times remain. A job yet to
        //    arrive is ready no earlier than its arrival, which is no
        //    earlier than the next one, so the live jobs suffice.
        let next_ready = live
            .iter()
            .map(|&i| apps[i].ready_at.max(apps[i].retry_at))
            .filter(|&r| r > t && r.is_finite())
            .fold(f64::INFINITY, f64::min);
        let next_arrival = arrivals.next_at().unwrap_or(f64::INFINITY);
        let next_profile = if admission.enabled {
            live.iter()
                .filter(|&&i| jobs[i].admitted_at.is_none())
                .map(|&i| jobs[i].profile_ready)
                .filter(|&r| r > t)
                .fold(f64::INFINITY, f64::min)
        } else {
            f64::INFINITY
        };
        let next_breaker = breaker.next_check_after(t).unwrap_or(f64::INFINITY);
        let next_fault = fault_cursor
            .as_ref()
            .and_then(simkit::faults::FaultCursor::next_at)
            .unwrap_or(f64::INFINITY);
        let next_outage = |at: &[f64]| {
            at.iter()
                .copied()
                .filter(|&r| r > t)
                .fold(f64::INFINITY, f64::min)
        };
        let (next_restore, next_revoke) = if faulted {
            (next_outage(&restore_at), next_outage(&revoke_at))
        } else {
            (f64::INFINITY, f64::INFINITY)
        };
        let next_event = next_ready
            .min(next_arrival)
            .min(next_profile)
            .min(next_breaker)
            .min(next_fault)
            .min(next_restore)
            .min(next_revoke);
        let next_done = engine.next_completion();

        match (next_done, next_event.is_finite()) {
            (Some((dt, _)), true) if t + dt > next_event => {
                engine.advance(next_event - t);
                t = next_event;
            }
            (Some((dt, first)), _) => {
                engine.advance(dt);
                t += dt;
                note_completion(&engine, &mut apps, sched, first);
                engine.complete_executor(first)?;
                while let Some((dt2, id2)) = engine.next_completion() {
                    if dt2 > 1e-9 {
                        break;
                    }
                    engine.advance(dt2);
                    t += dt2;
                    note_completion(&engine, &mut apps, sched, id2);
                    engine.complete_executor(id2)?;
                }
            }
            (None, true) => {
                t = next_event;
            }
            (None, false) => {
                // No executors, nothing becoming ready: the policy's model
                // refused every node (a badly mis-fitted unified model can
                // predict footprints beyond any budget). A real dispatcher
                // still makes progress — force a minimum-slice placement
                // on the emptiest node, capped at the free memory; if it
                // pages, that is the baseline's deserved penalty.
                if !force_place(&mut engine, &apps, &live, sched, t)? {
                    return Err(ColocateError::Config(format!(
                        "event loop stuck at t={t:.1}s with unfinished jobs"
                    )));
                }
            }
        }
    }

    let mut out_jobs = Vec::with_capacity(apps.len());
    let mut makespan = 0.0f64;
    for (app, (job, event)) in apps.iter().zip(jobs.iter().zip(plan.events())) {
        let finished_at = if job.shed { None } else { app.finished_at };
        if let Some(f) = finished_at {
            makespan = makespan.max(f);
        } else if !job.shed {
            return Err(ColocateError::Config(
                "service ended with an unfinished, unshed job".into(),
            ));
        }
        out_jobs.push(JobOutcome {
            benchmark: app.benchmark,
            input_gb: app.input_gb,
            tenant: job.tenant,
            arrived_at: event.at_secs,
            admitted_at: job.admitted_at,
            finished_at,
            shed: job.shed,
        });
    }
    audit.quiet_breaker_reopens = breaker.quiet_reopens();
    audit.nonfinite_quarantines = resil
        .quarantined_until
        .iter()
        .filter(|u| !u.is_finite())
        .count();
    audit.final_breaker_open = breaker.is_open();
    let outcome = ServiceOutcome {
        jobs: out_jobs,
        makespan_secs: makespan,
        oom_kills,
        shed_jobs,
        deferrals,
        abstain_placements,
        breaker_trips: breaker.trips(),
        max_queue_depth,
        mean_queue_depth: if makespan > 0.0 {
            depth_avg.time_average(SimTime::from_secs(makespan))
        } else {
            0.0
        },
        faults: resil.stats,
        audit,
    };
    Ok(LoopRun {
        outcome,
        apps,
        trace,
        #[cfg(test)]
        engine,
    })
}

/// Jobs sitting in the admission queue: the live jobs not yet admitted
/// (with admission disabled this counts the arrived-but-unfinished
/// backlog instead, since nothing is ever formally admitted).
fn queued_count(live: &[usize], jobs: &[JobState]) -> usize {
    live.iter()
        .filter(|&&i| jobs[i].admitted_at.is_none())
        .count()
}

/// The queued job with the largest WFQ finish tag; exact ties are broken
/// by a seeded draw so overload behaviour stays reproducible rather than
/// depending on scan order.
fn pick_shed_victim(live: &[usize], jobs: &[JobState], rng: Option<&mut SimRng>) -> Option<usize> {
    let queued: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&i| jobs[i].admitted_at.is_none())
        .collect();
    let max_vft = queued
        .iter()
        .map(|&i| jobs[i].vft)
        .fold(f64::NEG_INFINITY, f64::max);
    let ties: Vec<usize> = queued
        .into_iter()
        .filter(|&i| jobs[i].vft == max_vft)
        .collect();
    match (ties.len(), rng) {
        (0, _) => None,
        (1, _) | (_, None) => ties.first().copied(),
        (n, Some(rng)) => ties.get(rng.uniform_usize(0, n - 1)).copied(),
    }
}

/// Stamps `app` finished once the engine reports it done and returns
/// whether it is. The stamp is the current instant, or the job's ready
/// time if that is later: a job profiling credit finished at submit is
/// stamped at its profiling-ready time, since with admission on it is
/// never admitted and its `ready_at` stays `+∞`.
fn stamp_finish(engine: &ClusterEngine, app: &mut AppRt, job: &JobState, t: f64) -> bool {
    if app.finished_at.is_none() && engine.app(app.engine_id).is_finished() {
        app.finished_at = Some(t.max(app.ready_at.min(job.profile_ready)));
    }
    app.finished_at.is_some()
}

/// Stamps every live job the engine reports finished and drops it from
/// `live`, which releases its committed headroom.
fn retire_finished(
    engine: &ClusterEngine,
    apps: &mut [AppRt],
    jobs: &[JobState],
    live: &mut Vec<usize>,
    t: f64,
) {
    live.retain(|&i| !stamp_finish(engine, &mut apps[i], &jobs[i], t));
}

/// Predicted footprint currently booked against the headroom budget: the
/// sum over admitted live jobs, in plan order. Recomputed from scratch so
/// it is exactly `0.0` whenever nothing is in flight.
fn committed_gb(live: &[usize], jobs: &[JobState]) -> f64 {
    live.iter()
        .map(|&i| &jobs[i])
        .filter(|j| j.admitted_at.is_some())
        .map(|j| j.committed_gb)
        .sum()
}

/// One contender in an open-loop campaign: a policy plus its admission
/// and resilience configuration.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopEntry {
    /// Label used in figures and result files.
    pub label: &'static str,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Admission-control configuration.
    pub admission: AdmissionConfig,
    /// Self-healing configuration.
    pub resilience: ResilienceConfig,
}

/// Shape of an open-loop campaign: the arrival process, its horizon, the
/// tenant/job-class universe, and the fault storm replayed alongside.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Arrival process shared by every replication (each draws its own
    /// plan from the replication seed).
    pub process: ArrivalProcess,
    /// Arrival horizon, seconds.
    pub horizon_secs: f64,
    /// Number of tenants.
    pub tenants: usize,
    /// Per-tenant WFQ weights (empty = uniform).
    pub tenant_weights: Vec<f64>,
    /// Job classes arrivals are drawn from.
    pub job_classes: Vec<(usize, f64)>,
    /// Hard cap on arrivals per replication (0 = unbounded).
    pub max_jobs: usize,
    /// Fault storm replayed against each replication (intensity 0 injects
    /// nothing).
    pub chaos: ChaosSpec,
    /// Independent replications folded into the stats.
    pub replications: usize,
}

/// Tail metrics of one open-loop entry, folded across replications.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopEntryStats {
    /// The entry's label.
    pub label: &'static str,
    /// Total arrivals across replications.
    pub arrivals: usize,
    /// Jobs that finished.
    pub finished: usize,
    /// Jobs dropped by load shedding.
    pub shed: usize,
    /// Median job slowdown (turnaround / isolated time).
    pub slowdown_p50: f64,
    /// 95th-percentile job slowdown.
    pub slowdown_p95: f64,
    /// 99th-percentile job slowdown.
    pub slowdown_p99: f64,
    /// Mean job slowdown.
    pub slowdown_mean: f64,
    /// OOM kills across replications.
    pub oom_kills: usize,
    /// Backpressure deferral events across replications.
    pub deferrals: usize,
    /// Breaker-forced isolated placements across replications.
    pub abstain_placements: usize,
    /// Circuit-breaker trips across replications.
    pub breaker_trips: usize,
    /// Largest queue depth seen in any replication.
    pub max_queue_depth: usize,
    /// Mean over replications of the time-averaged queue depth.
    pub mean_queue_depth: f64,
    /// Fault/recovery counters summed over replications.
    pub faults: FaultStats,
}

/// Results of one open-loop campaign.
#[derive(Debug, Clone)]
pub struct OpenLoopStats {
    /// Replications folded in.
    pub replications: usize,
    /// Per-entry stats, parallel to the `entries` argument.
    pub per_entry: Vec<OpenLoopEntryStats>,
}

impl OpenLoopEntryStats {
    /// Adds one replication's counters: sums, except the queue-depth
    /// maximum; `mean_queue_depth` is summed here and averaged at the end.
    fn add_replication(&mut self, rep: &OpenLoopEntryStats) {
        self.arrivals += rep.arrivals;
        self.finished += rep.finished;
        self.shed += rep.shed;
        self.oom_kills += rep.oom_kills;
        self.deferrals += rep.deferrals;
        self.abstain_placements += rep.abstain_placements;
        self.breaker_trips += rep.breaker_trips;
        self.max_queue_depth = self.max_queue_depth.max(rep.max_queue_depth);
        self.mean_queue_depth += rep.mean_queue_depth;
        self.faults += rep.faults;
    }
}

/// Evaluates several `(policy, admission, resilience)` entries on the
/// *same* arrival plans and fault storms — the apples-to-apples open-loop
/// comparison behind Fig. 21.
///
/// Per replication `i`, the schedule seed is `base_seed + i`, the arrival
/// plan is drawn from `(base_seed + i) ^ 0xA441_5EED` and the fault plan
/// from `(base_seed + i) ^ 0xC4A0_5EED`, so arrivals and faults are
/// independent of the schedule stream: changing an entry's admission or
/// resilience config never changes what lands on it. Job slowdowns are
/// turnaround (finish − arrival) over the job's fault-free isolated time
/// (memoized in a [`BaselineCache`]). Replications run through the
/// harness's campaign fold without a journal: one fan-out across
/// [`RunConfig::effective_workers`] threads, results folded in index
/// order, so the returned stats are bit-for-bit identical for every
/// worker count.
///
/// # Errors
///
/// [`ColocateError::Config`] when `spec.replications` is zero; propagates
/// training and per-replication service failures.
pub fn evaluate_openloop(
    entries: &[OpenLoopEntry],
    catalog: &Catalog,
    config: &RunConfig,
    spec: &OpenLoopSpec,
    base_seed: u64,
) -> Result<OpenLoopStats, ColocateError> {
    let policies: Vec<PolicyKind> = entries.iter().map(|e| e.policy).collect();
    let systems = trained_systems_for(&policies, catalog, config, base_seed)?;
    let cfgs: Vec<ServiceConfig> = entries
        .iter()
        .map(|e| ServiceConfig {
            scheduler: SchedulerConfig {
                resilience: e.resilience,
                ..config.scheduler.clone()
            },
            admission: e.admission,
            tenant_weights: spec.tenant_weights.clone(),
            job_classes: spec.job_classes.clone(),
        })
        .collect();
    let arrival_cfg = ArrivalPlanConfig {
        process: spec.process,
        horizon_secs: spec.horizon_secs,
        tenants: spec.tenants,
        job_classes: spec.job_classes.len(),
        max_jobs: spec.max_jobs,
    };
    let baselines = BaselineCache::new();
    let mut per_entry = vec![OpenLoopEntryStats::default(); entries.len()];
    let mut slowdowns: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let replications = fold_campaign(
        spec.replications,
        spec.replications,
        config.effective_workers(),
        None,
        || (),
        |i, ()| {
            let seed = base_seed + i as u64;
            let plan = ArrivalPlan::generate(seed ^ 0xA441_5EED, &arrival_cfg);
            if plan.is_empty() {
                // A quiet replication (possible at tiny rates) contributes
                // empty folds instead of tripping run_service's empty check.
                return Ok(vec![Default::default(); entries.len()]);
            }
            let nodes = config.scheduler.cluster.nodes;
            let storm = spec
                .chaos
                .fault_plan(seed, spec.horizon_secs, nodes, plan.len());
            entries
                .iter()
                .zip(&systems)
                .zip(&cfgs)
                .map(|((entry, system), cfg)| {
                    let outcome = run_service(
                        entry.policy,
                        catalog,
                        &plan,
                        system.as_ref(),
                        cfg,
                        seed,
                        Some(&storm),
                    )?;
                    let mut slowdowns = Vec::new();
                    let mut finished = 0usize;
                    for job in &outcome.jobs {
                        let Some(done) = job.finished_at else {
                            continue;
                        };
                        finished += 1;
                        let iso = baselines.isolated_secs(
                            catalog,
                            (job.benchmark, job.input_gb),
                            &config.scheduler,
                            seed,
                        )?;
                        if iso > 0.0 {
                            slowdowns.push((done - job.arrived_at) / iso);
                        }
                    }
                    Ok((
                        slowdowns,
                        OpenLoopEntryStats {
                            arrivals: outcome.jobs.len(),
                            finished,
                            shed: outcome.shed_jobs,
                            oom_kills: outcome.oom_kills,
                            deferrals: outcome.deferrals,
                            abstain_placements: outcome.abstain_placements,
                            breaker_trips: outcome.breaker_trips,
                            max_queue_depth: outcome.max_queue_depth,
                            mean_queue_depth: outcome.mean_queue_depth,
                            faults: outcome.faults,
                            ..Default::default()
                        },
                    ))
                })
                .collect()
        },
        |_, per_rep: Vec<(Vec<f64>, OpenLoopEntryStats)>| {
            for ((stats, all), (s, rep)) in per_entry.iter_mut().zip(&mut slowdowns).zip(per_rep) {
                all.extend(s);
                stats.add_replication(&rep);
            }
            false
        },
    )?;

    for ((stats, s), e) in per_entry.iter_mut().zip(&slowdowns).zip(entries) {
        stats.label = e.label;
        let ps = percentiles(s, &[50.0, 95.0, 99.0]);
        stats.slowdown_p50 = ps[0];
        stats.slowdown_p95 = ps[1];
        stats.slowdown_p99 = ps[2];
        stats.slowdown_mean = if s.is_empty() {
            f64::NAN
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        };
        stats.mean_queue_depth /= replications as f64;
    }
    Ok(OpenLoopStats {
        replications: spec.replications,
        per_entry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::arrivals::ArrivalEvent;
    use sparklite::cluster::ClusterSpec;

    fn small_sched() -> SchedulerConfig {
        SchedulerConfig {
            cluster: ClusterSpec::small(4),
            ..Default::default()
        }
    }

    fn jobs_of(catalog: &Catalog, names: &[&str]) -> Vec<(usize, f64)> {
        names
            .iter()
            .map(|n| {
                let b = catalog.by_name(n).unwrap();
                (b.index(), workloads::mixes::InputSize::Medium.gb())
            })
            .collect()
    }

    fn service_config(sched: SchedulerConfig, job_classes: Vec<(usize, f64)>) -> ServiceConfig {
        ServiceConfig {
            scheduler: sched,
            admission: AdmissionConfig::default(),
            tenant_weights: Vec::new(),
            job_classes,
        }
    }

    /// Every config in `bad` fails with `ColocateError::Config` through
    /// both the closed and the open entry point.
    fn assert_rejected(bad: Vec<SchedulerConfig>) {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort", "BDB.Grep"]);
        let plan = ArrivalPlan::batch(&[(0, 0), (0, 1)]);
        for sched in bad {
            let closed = crate::scheduler::run_schedule_custom(
                PolicyKind::Pairwise,
                &catalog,
                &jobs,
                None,
                &sched,
                1,
            );
            assert!(matches!(closed, Err(ColocateError::Config(_))), "{sched:?}");
            let config = service_config(sched, jobs.clone());
            let open = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 1, None);
            assert!(matches!(open, Err(ColocateError::Config(_))), "{config:?}");
        }
    }

    #[test]
    fn clusters_without_nodes_or_usable_ram_are_rejected() {
        let mut bad = vec![SchedulerConfig {
            cluster: ClusterSpec::with_nodes(0),
            ..small_sched()
        }];
        for ram_gb in [0.0, -0.0, -8.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut sched = small_sched();
            sched.cluster.node.ram_gb = ram_gb;
            bad.push(sched);
        }
        assert_rejected(bad);
    }

    #[test]
    fn nan_negative_and_zero_capacity_bounds_are_rejected() {
        let mut bad = vec![SchedulerConfig {
            max_execs_per_node: 0,
            ..small_sched()
        }];
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        type Setter = fn(&mut SchedulerConfig, f64);
        let setters: [(Setter, &[f64]); 6] = [
            (|s, v| s.cpu_cap = v, &[0.0, -0.0, -1.0]),
            (|s, v| s.reserve_margin = v, &[0.0, -0.0, -1.0]),
            (|s, v| s.conservative_margin = v, &[0.0, -0.0, -1.0]),
            (|s, v| s.executor_startup_secs = v, &[-1.0]),
            (|s, v| s.min_slice_gb = v, &[-1.0]),
            (|s, v| s.partition_gb = v, &[-1.0]),
        ];
        for (set, out_of_range) in setters {
            for &value in non_finite.iter().chain(out_of_range) {
                let mut sched = small_sched();
                set(&mut sched, value);
                bad.push(sched);
            }
        }
        assert_rejected(bad);
    }

    #[test]
    fn non_predictive_policies_and_empty_plans_are_rejected() {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort"]);
        let config = service_config(small_sched(), jobs);
        let plan = ArrivalPlan::batch(&[(0, 0)]);
        let err = run_service(
            PolicyKind::Isolated,
            &catalog,
            &plan,
            None,
            &config,
            1,
            None,
        );
        assert!(matches!(err, Err(ColocateError::Config(_))));
        let err = run_service(
            PolicyKind::Oracle,
            &catalog,
            &ArrivalPlan::none(),
            None,
            &config,
            1,
            None,
        );
        assert!(matches!(err, Err(ColocateError::Config(_))));
    }

    #[test]
    fn out_of_range_job_classes_are_rejected() {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort"]);
        let config = service_config(small_sched(), jobs);
        let plan = ArrivalPlan::batch(&[(0, 5)]);
        let err = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 1, None);
        assert!(matches!(err, Err(ColocateError::Config(_))));
    }

    #[test]
    fn service_runs_are_deterministic_per_seed() {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort", "BDB.Grep"]);
        let cfg = ArrivalPlanConfig {
            process: ArrivalProcess::Poisson {
                rate_per_sec: 0.002,
            },
            horizon_secs: 3_000.0,
            tenants: 2,
            job_classes: jobs.len(),
            max_jobs: 5,
        };
        let plan = ArrivalPlan::generate(3, &cfg);
        let config = ServiceConfig {
            admission: AdmissionConfig::controlled(),
            ..service_config(small_sched(), jobs)
        };
        let a = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 11, None).unwrap();
        let b = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 11, None).unwrap();
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        assert_eq!(a.shed_jobs, b.shed_jobs);
        assert_eq!(a.deferrals, b.deferrals);
        for (x, y) in a.jobs.iter().zip(b.jobs.iter()) {
            assert_eq!(
                x.finished_at.map(f64::to_bits),
                y.finished_at.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn shedding_bounds_the_queue_and_conserves_the_rest() {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort"]);
        // A burst of same-instant arrivals against a tiny queue: everything
        // above the watermark is shed, everything kept still finishes.
        let classes: Vec<(usize, usize)> = (0..8).map(|_| (0, 0)).collect();
        let plan = ArrivalPlan::batch(&classes);
        let config = ServiceConfig {
            admission: AdmissionConfig {
                enabled: true,
                queue_capacity: 4,
                shed_watermark: 2,
                ..AdmissionConfig::default()
            },
            ..service_config(small_sched(), jobs)
        };
        let out = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 5, None).unwrap();
        assert!(out.shed_jobs > 0, "expected shedding under the burst");
        let finished = out.jobs.iter().filter(|j| j.finished_at.is_some()).count();
        assert_eq!(finished + out.shed_jobs, out.jobs.len());
        for j in &out.jobs {
            if j.shed {
                assert!(j.finished_at.is_none() && j.admitted_at.is_none());
            } else {
                assert!(j.finished_at.is_some());
            }
        }
        assert!(out.max_queue_depth <= config.admission.queue_capacity + 1);
    }

    #[test]
    fn admission_control_defers_under_pressure_but_drains() {
        let catalog = Catalog::paper();
        let jobs = jobs_of(&catalog, &["HB.Sort", "HB.PageRank"]);
        let classes: Vec<(usize, usize)> = (0..4).map(|i| (i % 2, i % 2)).collect();
        let plan = ArrivalPlan::batch(&classes);
        let config = ServiceConfig {
            admission: AdmissionConfig {
                enabled: true,
                headroom_frac: 0.01,
                ..AdmissionConfig::default()
            },
            ..service_config(small_sched(), jobs)
        };
        let out = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 9, None).unwrap();
        // The tight headroom forces serialisation, but everything drains.
        assert!(out.jobs.iter().all(|j| j.finished_at.is_some()));
        assert!(out.deferrals > 0, "expected backpressure deferrals");
        assert_eq!(out.shed_jobs, 0);
        // Admission order respects arrival: each job admitted no earlier
        // than it arrived and profiled.
        for j in &out.jobs {
            assert!(j.admitted_at.unwrap() >= j.arrived_at);
        }
    }

    /// A plan of `(arrival s, tenant, job class)` events.
    fn trace(events: &[(f64, usize, usize)]) -> ArrivalPlan {
        let events = events
            .iter()
            .map(|&(at_secs, tenant, job_class)| ArrivalEvent {
                at_secs,
                tenant,
                job_class,
            })
            .collect();
        ArrivalPlan::from_trace(events, 1_000.0)
    }

    /// Admission with room for one booking at a time, so later arrivals
    /// queue behind the first job.
    fn one_at_a_time(queue_capacity: usize, shed_watermark: usize) -> AdmissionConfig {
        AdmissionConfig {
            enabled: true,
            queue_capacity,
            shed_watermark,
            headroom_frac: 0.01,
            ..AdmissionConfig::default()
        }
    }

    fn shed_flags(out: &ServiceOutcome) -> Vec<bool> {
        for j in &out.jobs {
            assert_eq!(j.shed, j.finished_at.is_none(), "{j:?}");
        }
        out.jobs.iter().map(|j| j.shed).collect()
    }

    #[test]
    fn arrivals_beyond_the_queue_capacity_are_shed_on_the_spot() {
        let catalog = Catalog::paper();
        let sort = catalog.by_name("HB.Sort").unwrap().index();
        // B lands on a full queue at t = 0; D lands at t = 20 behind the
        // queued C while A still runs.
        let plan = trace(&[(0.0, 0, 0), (0.0, 0, 0), (10.0, 0, 0), (20.0, 0, 0)]);
        let config = ServiceConfig {
            admission: one_at_a_time(1, 8),
            ..service_config(small_sched(), vec![(sort, 30.0)])
        };
        let out = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 2, None).unwrap();
        assert_eq!(shed_flags(&out), [false, true, false, true]);
        assert_eq!(out.shed_jobs, 2);
    }

    #[test]
    fn the_watermark_sheds_the_largest_finish_tag_mid_queue() {
        let catalog = Catalog::paper();
        let sort = catalog.by_name("HB.Sort").unwrap().index();
        // At t = 20 the queue holds B (tag 60) and C (tag 40, another
        // tenant) above a watermark of one: B goes, from the middle of
        // the jobs in play.
        let plan = trace(&[(0.0, 0, 0), (10.0, 0, 0), (20.0, 1, 1)]);
        let config = ServiceConfig {
            admission: one_at_a_time(8, 1),
            ..service_config(small_sched(), vec![(sort, 30.0), (sort, 10.0)])
        };
        let out = run_service(PolicyKind::Oracle, &catalog, &plan, None, &config, 2, None).unwrap();
        assert_eq!(shed_flags(&out), [false, true, false]);
        assert_eq!(out.shed_jobs, 1);
    }

    /// Job classes of a 30 GB sort and a `feature_sample_gb`-sized one
    /// that profiling credit alone finishes at submit.
    fn with_a_credit_finished_class(catalog: &Catalog) -> Vec<(usize, f64)> {
        let sort = catalog.by_name("HB.Sort").unwrap().index();
        vec![(sort, 30.0), (sort, 0.05)]
    }

    #[test]
    fn a_job_profiling_alone_finishes_is_stamped_at_its_profiling_ready_time() {
        let catalog = Catalog::paper();
        let system = crate::harness::trained_system_for(
            PolicyKind::Moe,
            &catalog,
            &RunConfig::default(),
            42,
        )
        .unwrap();
        let classes = with_a_credit_finished_class(&catalog);
        let closed = crate::scheduler::run_schedule_custom(
            PolicyKind::Moe,
            &catalog,
            &classes,
            system.as_ref(),
            &small_sched(),
            3,
        )
        .unwrap();
        let plan = ArrivalPlan::batch(&[(0, 0), (0, 1)]);
        for admission in [AdmissionConfig::default(), AdmissionConfig::controlled()] {
            let config = ServiceConfig {
                admission,
                ..service_config(small_sched(), classes.clone())
            };
            let out = run_service(
                PolicyKind::Moe,
                &catalog,
                &plan,
                system.as_ref(),
                &config,
                3,
                None,
            )
            .unwrap();
            let tiny = out.jobs[1];
            assert!(!tiny.shed && tiny.admitted_at.is_none(), "{tiny:?}");
            assert_eq!(
                tiny.finished_at.map(f64::to_bits),
                Some(closed.per_app[1].finished_at.to_bits()),
                "{admission:?}"
            );
            assert!(out.mean_queue_depth.is_finite());
        }
    }

    #[test]
    fn a_credit_finished_job_arriving_later_never_joins_the_jobs_in_play() {
        let catalog = Catalog::paper();
        // C lands finished at t = 250 on a full queue (B waits behind A):
        // it is not queued work, so it is not shed.
        let plan = trace(&[(0.0, 0, 0), (150.0, 0, 0), (250.0, 0, 1)]);
        let mut finishes = Vec::new();
        for admission in [AdmissionConfig::default(), one_at_a_time(1, 4)] {
            let config = ServiceConfig {
                admission,
                ..service_config(small_sched(), with_a_credit_finished_class(&catalog))
            };
            let out = run_service(
                PolicyKind::UnifiedLinear,
                &catalog,
                &plan,
                None,
                &config,
                4,
                None,
            )
            .unwrap();
            assert_eq!(shed_flags(&out), [false, false, false], "{admission:?}");
            let tiny = out.jobs[2];
            assert!(tiny.admitted_at.is_none(), "{tiny:?}");
            let done = tiny.finished_at.unwrap();
            assert!(done.is_finite() && done > 250.0, "{tiny:?}");
            // A and B were still in play when C landed.
            assert!(out.jobs[0].finished_at.unwrap() > done, "{out:?}");
            if admission.enabled {
                assert!(out.jobs[1].admitted_at.unwrap() > done, "{out:?}");
            }
            finishes.push(done.to_bits());
        }
        assert_eq!(finishes[0], finishes[1]);
    }
}
