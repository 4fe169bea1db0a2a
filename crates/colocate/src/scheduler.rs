//! The job dispatcher and the comparative scheduling policies (§4.3, §5.4).
//!
//! All policies share one event loop over the sparklite engine, the one in
//! [`crate::service`]. This module holds its per-instant steps:
//!
//! 1. **placement** — the policy spawns executors given the resource
//!    monitor's view (free memory per node, CPU load per node) and, for
//!    predictive policies, each application's calibrated memory model;
//! 2. **OOM resolution** — if actual footprints exhaust RAM + swap, the
//!    youngest executor is killed, its slice re-queued, and the owning
//!    application's reservation margin is raised (the paper re-runs OOM'd
//!    executors in isolation, §2.3);
//! 3. **faults and recovery** — injected faults are applied and the
//!    self-healing layer schedules retries, quarantines and fallbacks.
//!
//! The closed system of the paper's evaluation, where every application
//! of a mix is submitted at `t = 0`, is the loop run over a batch arrival
//! plan with admission off: [`run_schedule`] and its variants build that
//! plan, run the loop and report per-application outcomes plus the
//! utilisation trace.
//!
//! The policies:
//!
//! * [`PolicyKind::Isolated`] — the baseline: one application at a time,
//!   exclusively owning every allocated node's memory;
//! * [`PolicyKind::Pairwise`] — co-locates at most two executors per host,
//!   giving the second all observed-free memory (§5.4);
//! * [`PolicyKind::OnlineSearch`] — no model; searches for the right input
//!   size at runtime by descent, paying per-application search latency on
//!   the coordinating node plus steady-state trial overhead (§6.5);
//! * the predictive policies ([`PolicyKind::Moe`], [`PolicyKind::Quasar`],
//!   [`PolicyKind::Oracle`], [`PolicyKind::UnifiedLinear`] /
//!   [`PolicyKind::UnifiedExponential`] / [`PolicyKind::UnifiedLog`] /
//!   [`PolicyKind::UnifiedAnn`]) — §4.3's dispatcher driven by the
//!   respective memory predictor.

use crate::predictors::{
    AnnPredictor, MemoryPredictor, MoePolicy, Oracle, Prediction, QuasarPredictor, UnifiedFamily,
};
use crate::profiling::{ProfilingConfig, ProfilingCost};
use crate::service::{run_loop, AdmissionConfig, ServiceConfig};
use crate::training::{TrainedSystem, TrainingConfig};
use crate::ColocateError;
use mlkit::regression::{CurveFamily, FittedCurve};
use simkit::arrivals::ArrivalPlan;
use simkit::faults::{FaultEvent, FaultKind, FaultPlan};
use simkit::SimRng;
use sparklite::app::AppId;
use sparklite::cluster::ClusterSpec;
use sparklite::dynalloc::{self, DynAllocConfig};
use sparklite::engine::ClusterEngine;
use sparklite::perf::{InterferenceModel, MemoryPressure};
use sparklite::NodeId;
use std::collections::VecDeque;
use workloads::catalog::Catalog;
use workloads::mixes::MixEntry;

/// The scheduling policies of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// One application at a time with all memory (the §6 baseline).
    Isolated,
    /// At most two co-located executors per host (§5.4).
    Pairwise,
    /// Runtime descent search for the input size (§6.5).
    OnlineSearch,
    /// Quasar-style classification against historical workloads (§5.4).
    Quasar,
    /// The paper's mixture-of-experts approach.
    Moe,
    /// Unified single-family baseline: linear (Fig. 9).
    UnifiedLinear,
    /// Unified single-family baseline: saturating exponential (Fig. 9).
    UnifiedExponential,
    /// Unified single-family baseline: Napierian logarithmic (Fig. 9).
    UnifiedLog,
    /// Unified 3-layer neural network (Fig. 9).
    UnifiedAnn,
    /// The ideal memory predictor (§5.4).
    Oracle,
}

impl PolicyKind {
    /// Display name used in the paper's figures.
    #[must_use]
    pub fn display_name(self) -> &'static str {
        match self {
            PolicyKind::Isolated => "Isolated",
            PolicyKind::Pairwise => "Pairwise",
            PolicyKind::OnlineSearch => "Online Search",
            PolicyKind::Quasar => "Quasar",
            PolicyKind::Moe => "Our Approach",
            PolicyKind::UnifiedLinear => "Linear Regression",
            PolicyKind::UnifiedExponential => "Exponential Regression",
            PolicyKind::UnifiedLog => "Napierian Log. Regression",
            PolicyKind::UnifiedAnn => "ANN",
            PolicyKind::Oracle => "Oracle",
        }
    }

    /// Whether this policy schedules with a memory predictor.
    #[must_use]
    pub fn is_predictive(self) -> bool {
        !matches!(self, PolicyKind::Isolated | PolicyKind::Pairwise)
    }
}

/// Scheduler configuration shared by all policies.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Node-level interference model.
    pub interference: InterferenceModel,
    /// Profiling pipeline settings.
    pub profiling: ProfilingConfig,
    /// Dynamic-allocation sizing.
    pub dynalloc: DynAllocConfig,
    /// Hard cap on executors per node (thread re-balancing limit, §4.3).
    pub max_execs_per_node: usize,
    /// Aggregate CPU demand allowed on one node (the paper refuses
    /// co-locations that push the sum over 100 %).
    pub cpu_cap: f64,
    /// Reservation margin for normal predictions (1.0 = reserve exactly
    /// the predicted footprint).
    pub reserve_margin: f64,
    /// Margin for low-confidence predictions and post-OOM re-runs.
    pub conservative_margin: f64,
    /// Smallest slice worth spawning an executor for (GB).
    pub min_slice_gb: f64,
    /// RDD partition granularity (GB): data slices handed to executors
    /// are whole partitions, so budget-derived slices snap down to this
    /// grid (HDFS block size by default).
    pub partition_gb: f64,
    /// §4.3's dynamic adjustment: when no new executor can be placed for
    /// an application, top up its running executors with more data items
    /// instead (saves the executor-startup cost).
    pub dynamic_adjustment: bool,
    /// Resource-monitor daemon settings (§4.2): placement consults the
    /// windowed CPU view in addition to the instantaneous one.
    pub monitor: sparklite::monitor::MonitorConfig,
    /// Fixed executor startup latency (JVM + container allocation), s.
    /// Makes slice-chopping expensive: a predictor that over-reserves
    /// memory forces smaller slices and pays this cost more often.
    pub executor_startup_secs: f64,
    /// Online search: fraction of the input processed per descent trial,
    /// serialised on the coordinating node (§6.5's scalability problem).
    pub search_serial_frac: f64,
    /// Online search: steady-state rate penalty from repeated trial
    /// adjustments.
    pub search_rate_penalty: f64,
    /// Self-healing behaviour under injected faults. Disabled by default,
    /// in which case the dispatcher behaves exactly as it always has.
    pub resilience: ResilienceConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            cluster: ClusterSpec::paper_cluster(),
            interference: InterferenceModel::default(),
            profiling: ProfilingConfig::default(),
            dynalloc: DynAllocConfig::default(),
            max_execs_per_node: 8,
            cpu_cap: 1.0,
            // §6.9 suggests slightly over-provisioning (~10 %) to tolerate
            // prediction error; 5 % keeps measurement noise from tipping a
            // tightly packed node into paging.
            reserve_margin: 1.05,
            conservative_margin: 1.5,
            min_slice_gb: 0.02,
            partition_gb: workloads::inputs::DEFAULT_PARTITION_GB,
            dynamic_adjustment: true,
            monitor: sparklite::monitor::MonitorConfig::default(),
            executor_startup_secs: 25.0,
            search_serial_frac: 0.008,
            search_rate_penalty: 0.18,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Self-healing knobs layered on the dispatcher. Fault *injection* (via
/// [`run_schedule_with_faults`]) affects every policy equally; only
/// schedules with `enabled == true` get the recovery machinery: retry
/// backoff after executor losses, node quarantine after repeated OOM
/// kills, an online safety-margin controller, and graceful degradation
/// to an isolated reservation once the retry budget is exhausted.
///
/// The default is fully disabled so the fault-free path is byte-identical
/// to a scheduler without this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceConfig {
    /// Master switch; `false` disables every recovery mechanism.
    pub enabled: bool,
    /// Executor-loss retries an application may consume before the
    /// scheduler stops trusting its prediction and falls back to an
    /// isolated full-node reservation.
    pub max_retries: usize,
    /// Backoff before the first retry, seconds (doubles per failure).
    pub backoff_base_secs: f64,
    /// Ceiling on the exponential backoff, seconds.
    pub backoff_cap_secs: f64,
    /// Relative jitter applied to each backoff (± this fraction), drawn
    /// from a dedicated RNG fork so it never perturbs the main stream.
    pub backoff_jitter: f64,
    /// OOM kills within one monitor window that quarantine a node.
    pub quarantine_threshold: usize,
    /// How long placement avoids a quarantined node, seconds.
    pub quarantine_secs: f64,
    /// EWMA smoothing factor for the observed-vs-booked footprint ratio
    /// feeding the safety-margin controller.
    pub margin_alpha: f64,
    /// Upper clamp on the controller's margin multiplier.
    pub margin_cap: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            enabled: false,
            max_retries: 3,
            backoff_base_secs: 10.0,
            backoff_cap_secs: 120.0,
            backoff_jitter: 0.25,
            quarantine_threshold: 3,
            quarantine_secs: 240.0,
            margin_alpha: 0.3,
            margin_cap: 2.0,
        }
    }
}

impl ResilienceConfig {
    /// The self-healing configuration used by the chaos evaluation:
    /// defaults with the master switch on.
    #[must_use]
    pub fn self_healing() -> Self {
        ResilienceConfig {
            enabled: true,
            ..ResilienceConfig::default()
        }
    }
}

/// What the fault layer did to one schedule, and how the scheduler coped.
/// All zeros on a fault-free run with resilience disabled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultStats {
    /// Node crashes delivered.
    pub node_crashes: usize,
    /// Executor crash-restarts delivered.
    pub executor_crashes: usize,
    /// Monitor dropouts delivered.
    pub monitor_dropouts: usize,
    /// Prediction-noise perturbations delivered.
    pub prediction_noise: usize,
    /// Input data re-queued by crashes, GB (work conservation: every GB
    /// here went back to the owning application's unassigned pool).
    pub slices_requeued_gb: f64,
    /// Retries scheduled by the self-healing layer.
    pub retries: usize,
    /// Node quarantines triggered by repeated OOM kills.
    pub quarantines: usize,
    /// Applications that exhausted their retry budget and degraded to an
    /// isolated full-node reservation.
    pub isolated_fallbacks: usize,
    /// Spot-preemption warnings delivered (the node is revoked after its
    /// warning lead time elapses).
    pub spot_preemptions: usize,
    /// Spot warnings the self-healing layer answered by draining: the node
    /// stops taking new work immediately instead of crashing cold at
    /// revocation.
    pub drains: usize,
}

/// Outcome for one application in a schedule.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Catalog index of the benchmark.
    pub benchmark: usize,
    /// Input size (GB).
    pub input_gb: f64,
    /// When the application became dispatchable (profiling done), s.
    pub ready_at: f64,
    /// Completion time from submission (turnaround), s.
    pub finished_at: f64,
    /// Profiling cost breakdown.
    pub profiling: ProfilingCost,
}

/// Outcome of one scheduled mix.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Which policy produced this schedule.
    pub policy: &'static str,
    /// Per-application outcomes, in submission order.
    pub per_app: Vec<AppOutcome>,
    /// Wall-clock time until the last application finished, s.
    pub makespan_secs: f64,
    /// Number of OOM kills that occurred.
    pub oom_kills: usize,
    /// Utilisation trace: `(time, per-node CPU load)` samples at every
    /// scheduling event.
    pub trace: Vec<(f64, Vec<f64>)>,
    /// Delivered faults and the self-healing layer's responses.
    pub faults: FaultStats,
}

pub(crate) struct AppRt {
    pub(crate) engine_id: AppId,
    pub(crate) benchmark: usize,
    pub(crate) ready_at: f64,
    pub(crate) prediction: Option<Prediction>,
    pub(crate) measured_cpu: f64,
    pub(crate) margin: f64,
    pub(crate) finished_at: Option<f64>,
    pub(crate) profiling: ProfilingCost,
    pub(crate) input_gb: f64,
    /// Multiplicative perturbation of the predicted footprint (injected
    /// prediction-noise faults land here; 1.0 = faithful predictions).
    pub(crate) pred_scale: f64,
    /// EWMA of the observed/booked footprint ratio for the online
    /// safety-margin controller (resilience only).
    pub(crate) err_ewma: f64,
    /// Executor losses (crashes and OOM kills) charged to this app.
    pub(crate) failures: usize,
    /// Earliest time the self-healing layer allows a re-placement.
    pub(crate) retry_at: f64,
    /// Retry budget exhausted: only isolated full-node placements remain.
    pub(crate) isolated_fallback: bool,
}

/// Mutable runtime state of the self-healing layer for one schedule.
pub(crate) struct ResilState {
    /// Backoff-jitter RNG, forked only when resilience is enabled so the
    /// disabled path draws nothing extra from the main stream.
    pub(crate) jitter: Option<SimRng>,
    /// Per-node quarantine deadlines (0 = not quarantined); inert zeros
    /// when resilience is disabled.
    pub(crate) quarantined_until: Vec<f64>,
    /// Recent OOM-kill timestamps per node (pruned to the monitor window).
    pub(crate) oom_times: Vec<VecDeque<f64>>,
    pub(crate) stats: FaultStats,
}

/// The margin the dispatcher books for `app`: its per-app margin (raised
/// on OOM re-runs) times the global reserve margin, times the online
/// controller's clamped error estimate when resilience is enabled. With
/// resilience disabled the controller multiplier is exactly 1.0 and the
/// product is bit-identical to the historical `margin * reserve_margin`.
pub(crate) fn effective_margin(app: &AppRt, config: &SchedulerConfig) -> f64 {
    let controller = if config.resilience.enabled {
        app.err_ewma.clamp(1.0, config.resilience.margin_cap)
    } else {
        1.0
    };
    app.margin * config.reserve_margin * controller
}

/// Feeds one executor's observed footprint into the app's error EWMA.
fn observe_footprint_error(app: &mut AppRt, actual_gb: f64, reserved_gb: f64, alpha: f64) {
    if reserved_gb <= 0.0 {
        return;
    }
    let ratio = (actual_gb / reserved_gb).clamp(0.0, 10.0);
    app.err_ewma = (1.0 - alpha) * app.err_ewma + alpha * ratio;
}

/// Charges one executor loss to `app`: exponential backoff with jitter,
/// and — only when the loss was the application's own doing (`may_demote`,
/// i.e. an OOM kill rather than an injected crash) — degradation to
/// isolated mode once the retry budget runs out. Environment failures
/// keep retrying at the capped backoff forever: serialising an
/// application because its *nodes* kept dying would punish the victim.
pub(crate) fn schedule_retry(
    app: &mut AppRt,
    t: f64,
    r: &ResilienceConfig,
    resil: &mut ResilState,
    may_demote: bool,
) {
    app.failures += 1;
    if may_demote && app.failures > r.max_retries {
        if !app.isolated_fallback {
            app.isolated_fallback = true;
            resil.stats.isolated_fallbacks += 1;
        }
        return;
    }
    let exponent = app.failures.min(r.max_retries.max(1)) as i32 - 1;
    let backoff = (r.backoff_base_secs * 2f64.powi(exponent)).min(r.backoff_cap_secs);
    let jitter = match resil.jitter.as_mut() {
        Some(rng) => 1.0 + r.backoff_jitter * rng.uniform(-1.0, 1.0),
        None => 1.0,
    };
    app.retry_at = app.retry_at.max(t + (backoff * jitter).max(0.0));
    resil.stats.retries += 1;
}

/// Runs one mix under one policy. `system` supplies the offline-trained
/// models for the predictive policies (ignored by Isolated/Pairwise; the
/// Oracle needs only the catalog).
///
/// # Errors
///
/// Returns configuration errors for empty mixes, and propagates substrate
/// or predictor failures (which indicate bugs rather than expected
/// conditions).
pub fn run_schedule(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[MixEntry],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
) -> Result<ScheduleOutcome, ColocateError> {
    let jobs: Vec<(usize, f64)> = mix.iter().map(|e| (e.benchmark, e.size.gb())).collect();
    run_schedule_custom(policy, catalog, &jobs, system, config, seed)
}

/// Like [`run_schedule`], but with explicit `(benchmark index, input GB)`
/// jobs — used by experiments whose input sizes fall outside the three
/// Table 3 classes (e.g. the ~280 GB interference runs of Figs. 14/15).
///
/// # Errors
///
/// Same conditions as [`run_schedule`].
pub fn run_schedule_custom(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[(usize, f64)],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
) -> Result<ScheduleOutcome, ColocateError> {
    run_batch(policy, catalog, mix, system, config, seed, None)
}

/// Like [`run_schedule_custom`], but replaying a pre-drawn [`FaultPlan`]
/// against the schedule: node crashes take a node (and every executor on
/// it) offline for their outage, executor crashes kill the youngest
/// executor on a node, monitor dropouts silence a node's resource-monitor
/// daemon, and prediction-noise events perturb one application's booked
/// footprints. Crashed work is credited back to the owning application
/// (work conservation), and an empty plan reproduces
/// [`run_schedule_custom`] bit for bit.
///
/// Recovery behaviour is controlled by `config.resilience`: with the
/// default (disabled) config the dispatcher just re-places lost work
/// through its normal placement path; with
/// [`ResilienceConfig::self_healing`] it adds retry backoff, node
/// quarantine, an online safety-margin controller and isolated fallback.
///
/// # Errors
///
/// Same conditions as [`run_schedule`].
pub fn run_schedule_with_faults(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[(usize, f64)],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
    plan: &FaultPlan,
) -> Result<ScheduleOutcome, ColocateError> {
    run_batch(policy, catalog, mix, system, config, seed, Some(plan))
}

/// The closed system: the whole mix arrives at `t = 0` as a batch plan
/// and runs through the service's event loop with admission off. The
/// per-job dispatcher state the loop leaves behind is projected into the
/// schedule outcome, utilisation trace included.
fn run_batch(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[(usize, f64)],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
    faults: Option<&FaultPlan>,
) -> Result<ScheduleOutcome, ColocateError> {
    if mix.is_empty() {
        return Err(ColocateError::Config("empty application mix".into()));
    }
    let plan = ArrivalPlan::batch(&(0..mix.len()).map(|i| (0, i)).collect::<Vec<_>>());
    let service = ServiceConfig {
        scheduler: config.clone(),
        admission: AdmissionConfig::default(),
        tenant_weights: Vec::new(),
        job_classes: mix.to_vec(),
    };
    let run = run_loop(policy, catalog, &plan, system, &service, seed, faults, true)?;
    let per_app = run
        .apps
        .iter()
        .map(|a| {
            Ok(AppOutcome {
                benchmark: a.benchmark,
                input_gb: a.input_gb,
                ready_at: a.ready_at,
                finished_at: a.finished_at.ok_or_else(|| {
                    ColocateError::Config("schedule ended with an unfinished application".into())
                })?,
                profiling: a.profiling,
            })
        })
        .collect::<Result<Vec<_>, ColocateError>>()?;
    Ok(ScheduleOutcome {
        policy: policy.display_name(),
        per_app,
        makespan_secs: run.outcome.makespan_secs,
        oom_kills: run.outcome.oom_kills,
        trace: run.trace,
        faults: run.outcome.faults,
    })
}

/// Completion hook for the self-healing layer: a successfully finished
/// executor reports its observed footprint to the margin controller,
/// clears the owner's crash streak and lifts any isolated-fallback
/// demotion — §2.3's re-run-in-isolation is one probation wave, not a
/// life sentence, so a clean finish earns back co-location (with the
/// raised margin and error EWMA carried along). No-op when resilience
/// is disabled.
pub(crate) fn note_completion(
    engine: &ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    id: sparklite::ExecutorId,
) {
    if !config.resilience.enabled {
        return;
    }
    let Ok(exec) = engine.executor(id) else {
        return;
    };
    let (owner, actual, reserved) = (exec.app(), exec.actual_gb(), exec.reserved_gb());
    if let Some(app) = apps.iter_mut().find(|a| a.engine_id == owner) {
        observe_footprint_error(app, actual, reserved, config.resilience.margin_alpha);
        app.failures = 0;
        app.isolated_fallback = false;
    }
}

/// Applies one fault event to the running schedule.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_fault(
    event: &FaultEvent,
    engine: &mut ClusterEngine,
    monitor: &mut sparklite::monitor::ResourceMonitor,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    restore_at: &mut [f64],
    revoke_at: &mut [f64],
    revoke_outage: &mut [f64],
    resil: &mut ResilState,
) -> Result<(), ColocateError> {
    match event.kind {
        FaultKind::NodeCrash { node, outage_secs } => {
            let Some(id) = engine.cluster().node_ids_iter().nth(node) else {
                return Ok(());
            };
            let lost = engine.fail_node(id)?;
            resil.stats.node_crashes += 1;
            restore_at[node] = restore_at[node].max(t + outage_secs);
            let mut owners: Vec<AppId> = Vec::new();
            for (owner, slice) in lost {
                resil.stats.slices_requeued_gb += slice;
                if !owners.contains(&owner) {
                    owners.push(owner);
                }
            }
            if config.resilience.enabled {
                for owner in owners {
                    if let Some(app) = apps.iter_mut().find(|a| a.engine_id == owner) {
                        schedule_retry(app, t, &config.resilience, resil, false);
                    }
                }
            }
        }
        FaultKind::ExecutorCrash { node } => {
            let Some(id) = engine.cluster().node_ids_iter().nth(node) else {
                return Ok(());
            };
            // The youngest executor (largest id, i.e. the most recently
            // spawned container) is the one that dies — the same victim
            // order the OOM killer uses, so crash and OOM recovery share
            // one re-queue path.
            let Some(victim) = engine.node_executors_iter(id).max() else {
                return Ok(());
            };
            let owner = engine.executor(victim)?.app();
            let slice = engine.kill_executor(victim)?;
            resil.stats.executor_crashes += 1;
            resil.stats.slices_requeued_gb += slice;
            if config.resilience.enabled {
                if let Some(app) = apps.iter_mut().find(|a| a.engine_id == owner) {
                    schedule_retry(app, t, &config.resilience, resil, false);
                }
            }
        }
        FaultKind::MonitorDropout {
            node,
            duration_secs,
        } => {
            let Some(id) = engine.cluster().node_ids_iter().nth(node) else {
                return Ok(());
            };
            monitor.drop_reports(id, t + duration_secs);
            resil.stats.monitor_dropouts += 1;
        }
        FaultKind::PredictionNoise { app, factor } => {
            if let Some(rt) = apps.get_mut(app) {
                rt.pred_scale *= factor;
                resil.stats.prediction_noise += 1;
            }
        }
        FaultKind::SpotPreemption {
            node,
            warning_secs,
            outage_secs,
        } => {
            if node >= revoke_at.len() {
                return Ok(());
            }
            resil.stats.spot_preemptions += 1;
            let revoke = t + warning_secs.max(0.0);
            // Earliest pending revocation wins; overlapping notices extend
            // the outage rather than stacking extra crashes.
            if revoke_at[node] == 0.0 || revoke < revoke_at[node] {
                revoke_at[node] = revoke;
            }
            revoke_outage[node] = revoke_outage[node].max(outage_secs);
            if config.resilience.enabled {
                // Drain: stop placing onto the doomed node for the whole
                // warning window (the quarantine machinery already keeps
                // placement away; the node's offline spell covers the rest).
                resil.quarantined_until[node] = resil.quarantined_until[node].max(revoke);
                resil.stats.drains += 1;
            }
        }
    }
    Ok(())
}

/// Fails every node whose spot-revocation deadline has elapsed: running
/// executors are lost (work conservation credits their slices back to the
/// owners), the node goes offline for the drawn outage, and — with
/// resilience enabled — the victims get backed-off retries that never
/// demote them (losing a node is the environment's fault, not theirs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_revocations(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    node_ids: &[NodeId],
    revoke_at: &mut [f64],
    revoke_outage: &mut [f64],
    restore_at: &mut [f64],
    resil: &mut ResilState,
) -> Result<(), ColocateError> {
    for i in 0..revoke_at.len() {
        if revoke_at[i] <= 0.0 || revoke_at[i] > t {
            continue;
        }
        if engine.node_online(node_ids[i]) {
            let lost = engine.fail_node(node_ids[i])?;
            let mut owners: Vec<AppId> = Vec::new();
            for (owner, slice) in lost {
                resil.stats.slices_requeued_gb += slice;
                if !owners.contains(&owner) {
                    owners.push(owner);
                }
            }
            if config.resilience.enabled {
                for owner in owners {
                    if let Some(app) = apps.iter_mut().find(|a| a.engine_id == owner) {
                        schedule_retry(app, t, &config.resilience, resil, false);
                    }
                }
            }
        }
        restore_at[i] = restore_at[i].max(t + revoke_outage[i]);
        revoke_at[i] = 0.0;
        revoke_outage[i] = 0.0;
    }
    Ok(())
}

pub(crate) fn build_predictor(
    policy: PolicyKind,
    catalog: &Catalog,
    system: Option<&TrainedSystem>,
    rng: &mut SimRng,
) -> Result<Option<Box<dyn MemoryPredictor>>, ColocateError> {
    let need_system = || {
        system.ok_or_else(|| {
            ColocateError::Config(format!("{policy:?} requires an offline-trained system"))
        })
    };
    Ok(match policy {
        PolicyKind::Isolated | PolicyKind::Pairwise => None,
        PolicyKind::Oracle | PolicyKind::OnlineSearch => Some(Box::new(Oracle::new(catalog))),
        PolicyKind::Moe => Some(Box::new(MoePolicy::new(need_system()?.clone()))),
        PolicyKind::Quasar => Some(Box::new(QuasarPredictor::new(need_system()?)?)),
        PolicyKind::UnifiedLinear => Some(Box::new(UnifiedFamily::new(CurveFamily::Linear))),
        PolicyKind::UnifiedExponential => {
            Some(Box::new(UnifiedFamily::new(CurveFamily::Exponential)))
        }
        PolicyKind::UnifiedLog => Some(Box::new(UnifiedFamily::new(CurveFamily::NapierianLog))),
        PolicyKind::UnifiedAnn => {
            let sys = need_system()?;
            let sizes = TrainingConfig::default().profile_sizes_gb;
            Some(Box::new(AnnPredictor::train(
                catalog,
                &sys.program_benchmarks,
                &sizes,
                0.01,
                rng,
            )?))
        }
    })
}

/// Reusable buffers for [`place_predictive`], owned by the event loop so
/// per-event placement passes allocate nothing at steady state.
#[derive(Debug, Default)]
pub(crate) struct PlaceScratch {
    /// Eligible nodes in [`rank_order`] with their free memory, ranked
    /// once per call and kept current by [`rerank`] after each spawn.
    ranked: Vec<(NodeId, f64)>,
    /// Live executors by owning application (indexed by engine app id,
    /// each bucket in id order) as `(executor, node, slice)`, filled once
    /// per dynamic-adjustment phase.
    by_app: Vec<Vec<(sparklite::ExecutorId, NodeId, f64)>>,
    /// Dynamic-adjustment candidates: `(executor, node, free memory)`.
    candidates: Vec<(sparklite::ExecutorId, NodeId, f64)>,
    /// Per-call snapshot of each node's observed CPU load, by node index;
    /// empty until the first scan of the call needs it.
    node_load: Vec<f64>,
    /// Per-call flags, by application position: the app's last scan found
    /// no node passing both guards and the memory fit.
    stalled: Vec<bool>,
}

/// The water-filling node order: most free memory first, ties by node
/// index. Over the index-ordered node list this total key is exactly the
/// stable sort by free memory alone.
fn rank_order(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Re-files `node` in `ranked` (held in [`rank_order`]) under its fresh
/// free memory `free`. A node absent from `ranked` — offline or
/// quarantined for this call — stays absent.
fn rerank(ranked: &mut Vec<(NodeId, f64)>, node: NodeId, free: f64) {
    let Some(at) = ranked.iter().position(|&(n, _)| n == node) else {
        return;
    };
    ranked.remove(at);
    let entry = (node, free);
    let at = ranked.partition_point(|e| rank_order(e, &entry).is_lt());
    ranked.insert(at, entry);
}

/// The CPU load the placement guard sees on `node`: the instantaneous
/// load, raised toward the monitor's windowed view (§4.2) by at most 0.15
/// so a node recovering from a burst is not immediately over-packed.
fn observed_cpu_load(
    engine: &ClusterEngine,
    monitor: &sparklite::monitor::ResourceMonitor,
    node: NodeId,
) -> f64 {
    let load = engine.node_cpu_load(node);
    load.max(monitor.windowed_cpu(node).min(load + 0.15))
}

/// Dynalloc's executor target for `id` and the per-executor input share
/// it implies.
pub(crate) fn fair_share(
    engine: &ClusterEngine,
    id: AppId,
    config: &SchedulerConfig,
) -> (usize, f64) {
    let spec = engine.app(id).spec();
    let target = dynalloc::executors_for(
        spec,
        config.cluster.nodes,
        config.cluster.node.ram_gb,
        config.dynalloc,
    );
    (target, spec.input_gb / target as f64)
}

/// One placement round at time `t`. Returns the number of *abstain*
/// placements made (isolated whole-node reservations forced by a tripped
/// circuit breaker); always 0 unless `abstain` is set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place(
    policy: PolicyKind,
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    catalog: &Catalog,
    monitor: &sparklite::monitor::ResourceMonitor,
    resil: &ResilState,
    nodes: &[NodeId],
    abstain: bool,
    scratch: &mut PlaceScratch,
) -> Result<usize, ColocateError> {
    match policy {
        PolicyKind::Isolated => place_isolated(engine, apps, config, nodes).map(|()| 0),
        PolicyKind::Pairwise => place_pairwise(engine, apps, config, catalog, nodes).map(|()| 0),
        _ => place_predictive(
            engine, apps, config, t, monitor, resil, nodes, abstain, scratch,
        ),
    }
}

/// Last-resort placement when the policy's model refuses every node: give
/// the first ready, unfinished application one dynalloc-sized slice on the
/// node with the most free memory, reserving whatever is free. Returns
/// whether an executor was spawned.
pub(crate) fn force_place(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
) -> Result<bool, ColocateError> {
    for app in apps.iter() {
        if app.finished_at.is_some() || app.ready_at.max(app.retry_at) > t {
            continue;
        }
        let id = app.engine_id;
        if engine.app(id).unassigned_gb() <= 0.0 {
            continue;
        }
        let (_, share) = fair_share(engine, id, config);
        let curve = engine.app(id).spec().memory_curve;
        // Emptiest *online* node; when every node is offline there is
        // nothing to force (the caller's restore schedule will unblock).
        let Some(node) = engine
            .cluster()
            .node_ids_iter()
            .filter(|&n| engine.node_online(n))
            .max_by(|&a, &b| {
                engine
                    .node_free_memory(a)
                    .total_cmp(&engine.node_free_memory(b))
            })
        else {
            return Ok(false);
        };
        let free = engine.node_free_memory(node);
        if free <= 0.5 {
            continue;
        }
        let slice = fitting_slice(
            curve,
            share.min(engine.app(id).unassigned_gb()),
            free * 0.95,
        )
        .max(config.min_slice_gb)
        .min(engine.app(id).unassigned_gb());
        if engine
            .spawn_executor(id, node, slice, free * 0.95)?
            .is_some()
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Largest slice of `spec`'s input whose ground-truth footprint fits in
/// `budget_gb` — the wave size a memory-observing baseline processes at a
/// time when a node cannot hold the whole slice.
fn fitting_slice(curve: FittedCurve, want_gb: f64, budget_gb: f64) -> f64 {
    let model = moe_core::calibration::CalibratedModel::from_curve(curve);
    match model.max_input_for_budget(budget_gb) {
        Some(x) => want_gb.min(x),
        None => 0.0,
    }
}

fn place_isolated(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    nodes: &[NodeId],
) -> Result<(), ColocateError> {
    // The first unfinished app owns the whole cluster.
    let Some(active) = apps.iter().position(|a| a.finished_at.is_none()) else {
        return Ok(());
    };
    let id = apps[active].engine_id;
    if engine.app(id).unassigned_gb() <= 0.0 {
        return Ok(());
    }
    let (target, slice) = fair_share(engine, id, config);
    let curve = engine.app(id).spec().memory_curve;
    for &node in nodes {
        if engine.app(id).unassigned_gb() <= 0.0 {
            break;
        }
        if engine.app(id).live_executors() >= target {
            break;
        }
        if !engine.node_online(node) || engine.node_executors_iter(node).next().is_some() {
            continue;
        }
        // Exclusive: reserve the node's entire memory; process the input
        // in waves sized to what actually fits the heap.
        let ram = engine.cluster().node(node).spec().ram_gb;
        let wave = fitting_slice(curve, slice, ram * 0.95);
        if wave <= 0.0 {
            continue;
        }
        engine.spawn_executor(id, node, wave, ram)?;
    }
    Ok(())
}

fn place_pairwise(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    catalog: &Catalog,
    nodes: &[NodeId],
) -> Result<(), ColocateError> {
    // Pairwise co-location runs the queue strictly first-come-first-served
    // with AT MOST TWO CONCURRENT APPLICATIONS: the head-of-queue job gets
    // its default allocation, and one additional job is co-located into
    // the spare memory (heap = free RAM, Spark-default slices). Everything
    // else waits. This matches the paper's description and its Fig. 7a
    // utilisation map (long idle stretches), and is why Pairwise "does not
    // scale up beyond pairwise co-location" (§6.2).
    let active: Vec<usize> = apps
        .iter()
        .enumerate()
        .filter(|(_, a)| a.finished_at.is_none())
        .map(|(i, _)| i)
        .take(2)
        .collect();
    for i in active {
        let id = apps[i].engine_id;
        if engine.app(id).unassigned_gb() <= 0.0 {
            continue;
        }
        let bench = &catalog.all()[apps[i].benchmark];
        let (target, slice) = fair_share(engine, id, config);
        let curve = engine.app(id).spec().memory_curve;
        // Prefer empty nodes, then singly occupied ones. Occupancy counts
        // come from one pass over the executor set instead of letting the
        // sort re-scan it per comparison key; the stable sort over equal
        // counts visits nodes in exactly the order the per-node rescans
        // produced.
        let mut node_order: Vec<(NodeId, usize)> = nodes.iter().map(|&n| (n, 0)).collect();
        for e in engine.executors_iter() {
            node_order[e.node().index()].1 += 1;
        }
        node_order.sort_by_key(|&(_, count)| count);
        for (node, occupants) in node_order {
            if engine.app(id).unassigned_gb() <= 0.0 || engine.app(id).live_executors() >= target {
                break;
            }
            if !engine.node_online(node) {
                continue;
            }
            if occupants >= 2 {
                continue;
            }
            // One executor per app per host.
            if engine.executors_on(node).any(|e| e.app() == id) {
                continue;
            }
            let want = fitting_slice(
                curve,
                slice.min(engine.app(id).unassigned_gb()),
                engine.cluster().node(node).spec().ram_gb * 0.95,
            );
            let observed = bench.true_footprint_gb(want);
            let free = engine.node_free_memory(node);
            if want < config.min_slice_gb || free < 1.0 {
                continue;
            }
            if apps[i].margin > 1.0 && observed * apps[i].margin > free {
                continue;
            }
            // First occupant books what it is observed to use; the
            // co-locating newcomer gets heap = all free memory.
            let reserve = if occupants == 0 {
                observed.min(free)
            } else {
                free
            };
            engine.spawn_executor(id, node, want, reserve)?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn place_predictive(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    monitor: &sparklite::monitor::ResourceMonitor,
    resil: &ResilState,
    nodes: &[NodeId],
    abstain: bool,
    scratch: &mut PlaceScratch,
) -> Result<usize, ColocateError> {
    let PlaceScratch {
        ranked,
        by_app,
        candidates,
        node_load,
        stalled,
    } = scratch;
    let mut abstain_placements = 0usize;
    // Graceful degradation: an application that burned through its retry
    // budget gets a whole empty node to itself — the paper's §2.3 answer
    // to repeated OOMs is to re-run in isolation — sidestepping the
    // predictions that kept failing it. A tripped circuit breaker
    // (`abstain`, service layer only) widens this to *every* ready
    // application: co-location is suspended until the distress rate
    // recovers, and each placement made that way is counted.
    if config.resilience.enabled || abstain {
        for app in apps.iter() {
            if !(app.isolated_fallback || abstain)
                || app.finished_at.is_some()
                || app.ready_at.max(app.retry_at) > t
            {
                continue;
            }
            let id = app.engine_id;
            if engine.app(id).unassigned_gb() <= 0.0 || engine.app(id).live_executors() > 0 {
                continue;
            }
            let curve = engine.app(id).spec().memory_curve;
            for &node in nodes {
                if !engine.node_online(node)
                    || resil.quarantined_until[node.index()] > t
                    || engine.node_executors_iter(node).next().is_some()
                {
                    continue;
                }
                let ram = engine.cluster().node(node).spec().ram_gb;
                let wave = fitting_slice(curve, engine.app(id).unassigned_gb(), ram * 0.95);
                if wave < config.min_slice_gb {
                    continue;
                }
                engine.spawn_executor(id, node, wave, ram)?;
                if abstain && !app.isolated_fallback {
                    abstain_placements += 1;
                }
                break;
            }
        }
    }
    // While the breaker is open nothing co-locates: skip the water-filling
    // and dynamic-adjustment phases wholesale.
    if abstain {
        return Ok(abstain_placements);
    }

    // Water-filling rounds: each ready application may claim at most one
    // new executor per round, earlier-submitted applications picking
    // first. This models §4.3's "starts executing waiting applications as
    // soon as possible" + even thread distribution: late arrivals are not
    // starved behind large jobs the way strict per-slot FCFS would.
    //
    // Within the call a node's free memory only falls and its load and
    // executor count only rise, so the per-call load snapshot, the
    // `break` on the first failed memory fit and the `stalled` flags all
    // leave the outcome bit-identical (DESIGN.md §11, "Scheduler sweep").
    // Only a spawn attempt moves a node's free memory and eligibility is
    // fixed for the call, so `ranked` is sorted once and re-filed one
    // node per attempt.
    let quantize = |gb: f64| -> f64 {
        // Whole RDD partitions only (never exceeding what was asked for; a
        // final sub-partition tail is allowed so inputs drain completely).
        if config.partition_gb <= 0.0 || gb <= config.partition_gb {
            return gb;
        }
        (gb / config.partition_gb).floor() * config.partition_gb
    };
    node_load.clear();
    stalled.clear();
    stalled.resize(apps.len(), false);
    loop {
        let mut progress = false;
        for (i, app) in apps.iter().enumerate() {
            if stalled[i]
                || app.finished_at.is_some()
                || app.ready_at.max(app.retry_at) > t
                || app.isolated_fallback
            {
                continue;
            }
            let id = app.engine_id;
            let remaining = engine.app(id).unassigned_gb();
            if remaining <= 0.0 {
                continue;
            }
            let Some(prediction) = &app.prediction else {
                continue;
            };
            let (target, slice_target) = fair_share(engine, id, config);
            if engine.app(id).live_executors() >= target {
                continue;
            }
            if node_load.is_empty() {
                node_load.extend(nodes.iter().map(|&n| observed_cpu_load(engine, monitor, n)));
                // Nodes with the most free memory first (§4.3: spawn on
                // servers that have spare memory). Offline and quarantined
                // nodes are filtered out before ranking, so rounds on a
                // degraded cluster never visit dead nodes.
                ranked.clear();
                ranked.extend(
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| {
                            engine.node_online(n) && resil.quarantined_until[n.index()] <= t
                        })
                        .map(|n| (n, engine.node_free_memory(n))),
                );
                ranked.sort_by(rank_order);
            }
            let margin = effective_margin(app, config);
            let cpu = app.measured_cpu;
            let want = slice_target.min(remaining);
            let need = prediction.model.footprint_gb(want) * app.pred_scale * margin;

            let mut placement = None;
            for &(node, free) in ranked.iter() {
                // CPU guard: aggregate load stays under the cap (§4.3).
                if engine.node_executor_count(node) >= config.max_execs_per_node
                    || node_load[node.index()] + cpu > config.cpu_cap
                {
                    continue;
                }
                let (slice, reserve) = if need <= free {
                    (want, need)
                } else {
                    match prediction
                        .model
                        .max_input_for_budget(free / (app.pred_scale * margin))
                    {
                        Some(x) if x.min(want) >= config.min_slice_gb => {
                            let s = quantize(x.min(want)).max(config.min_slice_gb);
                            (
                                s,
                                (prediction.model.footprint_gb(s) * app.pred_scale * margin)
                                    .min(free),
                            )
                        }
                        // Later nodes have no more free memory, so by the
                        // `FootprintModel` monotonicity contract none fits.
                        _ => break,
                    }
                };
                placement = Some((node, slice, reserve));
                break; // one executor per app per round
            }
            let Some((node, slice, reserve)) = placement else {
                stalled[i] = true;
                continue;
            };
            let spawned = engine.spawn_executor(id, node, slice, reserve)?.is_some();
            rerank(ranked, node, engine.node_free_memory(node));
            if spawned {
                progress = true;
                node_load[node.index()] = observed_cpu_load(engine, monitor, node);
            } else {
                // A refused spawn releases its reservation, which may
                // round free memory up: the stalls no longer hold.
                stalled.fill(false);
            }
        }
        if !progress {
            break;
        }
    }

    // §4.3 dynamic adjustment: applications with leftover input that could
    // not obtain another executor top up a running one where the node has
    // spare memory, avoiding a fresh executor's startup cost.
    if config.dynamic_adjustment {
        // Only an app's own successful extension changes its executors,
        // its remaining input or the memory they see, and it ends that
        // app's turn: one pass over the executor set buckets them by owner
        // for the whole phase, and `remaining`, a candidate's free memory
        // and its slice all hold until it is visited.
        let mut bucketed = false;
        let guard = config.min_slice_gb.max(config.partition_gb);
        for app in apps.iter() {
            if app.finished_at.is_some()
                || app.ready_at.max(app.retry_at) > t
                || app.isolated_fallback
            {
                continue;
            }
            let id = app.engine_id;
            // Too little input left to be worth an extension.
            let remaining = engine.app(id).unassigned_gb();
            if remaining <= 0.0
                || remaining <= config.min_slice_gb
                || engine.app(id).live_executors() == 0
            {
                continue;
            }
            let Some(prediction) = &app.prediction else {
                continue;
            };
            let margin = effective_margin(app, config);
            // Top up only toward the dynalloc per-executor share: the
            // adjustment restores an executor squeezed below its fair
            // slice by an earlier memory shortage — it must not serialise
            // work that future executors would process in parallel.
            let (_, slice_target) = fair_share(engine, id, config);
            if !bucketed {
                bucketed = true;
                for bucket in by_app.iter_mut() {
                    bucket.clear();
                }
                by_app.resize_with(engine.app_count(), Vec::new);
                for e in engine.executors_iter() {
                    by_app[e.app().index()].push((e.id(), e.node(), e.slice_gb()));
                }
            }
            // This app's executors, on the node with the most free memory
            // first; the (node, id) tie-break reproduces the order the
            // original nodes-times-executors scan fed its stable sort.
            // Executors the walk would skip are dropped before sorting:
            // no spare memory, or no room below the fair share for an
            // extension past `guard` (float subtraction is monotone, so
            // `max_slice.min(slice_target) - slice` is no larger).
            candidates.clear();
            for &(exec_id, node, slice) in &by_app[id.index()] {
                let free = engine.node_free_memory(node);
                if free <= 0.5 || slice_target - slice < guard {
                    continue;
                }
                candidates.push((exec_id, node, free));
            }
            candidates.sort_by(|a, b| {
                b.2.total_cmp(&a.2)
                    .then_with(|| a.1.cmp(&b.1))
                    .then_with(|| a.0.cmp(&b.0))
            });
            for &(exec_id, _, free) in candidates.iter() {
                let (slice, reserved) = {
                    let e = engine.executor(exec_id)?;
                    (e.slice_gb(), e.reserved_gb())
                };
                // Grow toward what the whole budget (current + free) can
                // host, bounded by the remaining input.
                let budget = (reserved + free) / (app.pred_scale * margin);
                let Some(max_slice) = prediction.model.max_input_for_budget(budget) else {
                    continue;
                };
                let extra = (max_slice.min(slice_target) - slice).min(remaining);
                if extra < guard {
                    continue;
                }
                let new_need =
                    prediction.model.footprint_gb(slice + extra) * app.pred_scale * margin;
                let extra_reserve = (new_need - reserved).clamp(0.0, free);
                if engine
                    .extend_executor(exec_id, extra, extra_reserve)
                    .is_ok()
                {
                    // One extension per app per round keeps growth fair.
                    break;
                }
            }
        }
    }
    Ok(abstain_placements)
}

/// Minimum hot-node count before [`resolve_ooms`] fans its pressure scan
/// across workers — storm-sized candidate sets only (DESIGN.md §17).
const PAR_OOM_MIN_NODES: usize = 1024;

/// Kills executors until no candidate node is out of memory; raises the
/// owning application's margin so its re-run is conservative. `nodes` is
/// the OOM candidate set — the engine's hot nodes — which provably covers
/// every node the full-cluster scan could act on (cool nodes always report
/// `Fits`). With resilience enabled it additionally feeds the margin
/// controller, schedules a backed-off retry for the owner, and quarantines
/// nodes that keep OOMing within one monitor window.
///
/// On storm-sized candidate sets the read-only pressure scan fans across
/// workers first, and the serial kill loop then visits only flagged nodes
/// in index order. Bit-identical to the plain loop: kills on a node only
/// *reduce* that node's occupancy and touch no other node, so a node not
/// OOM at scan time cannot have become OOM by the time the serial loop
/// would have reached it — the skipped iterations are provably no-ops.
pub(crate) fn resolve_ooms(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    resil: &mut ResilState,
    nodes: &[NodeId],
) -> Result<usize, ColocateError> {
    let mut kills = 0;
    if nodes.len() >= PAR_OOM_MIN_NODES {
        let workers = simkit::par::available_workers();
        if workers > 1 {
            let engine_ref: &ClusterEngine = engine;
            let flags = simkit::par::par_map_indexed(nodes, workers, |_, &n| {
                matches!(engine_ref.memory_pressure(n), MemoryPressure::OutOfMemory)
            });
            for (&node, flagged) in nodes.iter().zip(flags) {
                if flagged {
                    kills += resolve_node_ooms(engine, apps, config, t, resil, node)?;
                }
            }
            return Ok(kills);
        }
    }
    for &node in nodes {
        kills += resolve_node_ooms(engine, apps, config, t, resil, node)?;
    }
    Ok(kills)
}

/// One node's share of [`resolve_ooms`]: kill youngest-first until the
/// node's pressure drops below out-of-memory.
fn resolve_node_ooms(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    resil: &mut ResilState,
    node: NodeId,
) -> Result<usize, ColocateError> {
    let resilience = config.resilience;
    let mut kills = 0;
    {
        while matches!(engine.memory_pressure(node), MemoryPressure::OutOfMemory) {
            let Some(victim) = engine.oom_victim(node) else {
                break;
            };
            let (owner, actual, reserved) = {
                let e = engine.executor(victim)?;
                (e.app(), e.current_actual_gb(), e.reserved_gb())
            };
            engine.kill_executor(victim)?;
            if let Some(app) = apps.iter_mut().find(|a| a.engine_id == owner) {
                app.margin = (app.margin * 1.5).min(3.0).max(config.conservative_margin);
                if resilience.enabled {
                    observe_footprint_error(app, actual, reserved, resilience.margin_alpha);
                    schedule_retry(app, t, &resilience, resil, true);
                }
            }
            kills += 1;
            if resilience.enabled {
                let times = &mut resil.oom_times[node.index()];
                times.push_back(t);
                while times
                    .front()
                    .is_some_and(|&f| t - f > config.monitor.window_secs)
                {
                    times.pop_front();
                }
                if times.len() >= resilience.quarantine_threshold {
                    resil.quarantined_until[node.index()] = t + resilience.quarantine_secs;
                    times.clear();
                    resil.stats.quarantines += 1;
                }
            }
        }
    }
    Ok(kills)
}

/// Helper: a forked seed for the engine.
pub(crate) trait NextSeed {
    fn next_u64_seed(&mut self) -> u64;
}

impl NextSeed for SimRng {
    fn next_u64_seed(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_system;
    use workloads::mixes::{InputSize, MixEntry};

    fn small_config() -> SchedulerConfig {
        SchedulerConfig {
            cluster: ClusterSpec::small(4),
            ..Default::default()
        }
    }

    fn mix_of(catalog: &Catalog, names: &[(&str, InputSize)]) -> Vec<MixEntry> {
        names
            .iter()
            .map(|(n, s)| MixEntry {
                benchmark: catalog.by_name(n).unwrap().index(),
                size: *s,
            })
            .collect()
    }

    #[test]
    fn isolated_runs_apps_sequentially() {
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("HB.PageRank", InputSize::Medium),
            ],
        );
        let out = run_schedule(
            PolicyKind::Isolated,
            &catalog,
            &mix,
            None,
            &small_config(),
            1,
        )
        .unwrap();
        assert_eq!(out.per_app.len(), 2);
        // Sequential: second finishes after the first.
        assert!(out.per_app[1].finished_at > out.per_app[0].finished_at);
        assert_eq!(out.oom_kills, 0);
        assert!(out.makespan_secs > 0.0);
    }

    #[test]
    fn oracle_colocation_beats_isolated_makespan() {
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("HB.PageRank", InputSize::Medium),
                ("SP.glm-regression", InputSize::Medium),
                ("BDB.Grep", InputSize::Medium),
            ],
        );
        let cfg = small_config();
        let iso = run_schedule(PolicyKind::Isolated, &catalog, &mix, None, &cfg, 1).unwrap();
        let orc = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg, 1).unwrap();
        assert!(
            orc.makespan_secs < iso.makespan_secs * 0.8,
            "oracle {:.0}s vs isolated {:.0}s",
            orc.makespan_secs,
            iso.makespan_secs
        );
    }

    #[test]
    fn moe_schedules_mixed_workloads() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(5);
        let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        let mix = mix_of(
            &catalog,
            &[
                ("SB.Hive", InputSize::Medium),
                ("SP.Kmeans", InputSize::Medium),
                ("HB.Scan", InputSize::Small),
            ],
        );
        let out = run_schedule(
            PolicyKind::Moe,
            &catalog,
            &mix,
            Some(&system),
            &small_config(),
            2,
        )
        .unwrap();
        assert_eq!(out.per_app.len(), 3);
        // Profiling happened: ready_at > 0 and cost recorded.
        assert!(out.per_app.iter().all(|a| a.ready_at > 0.0));
        assert!(out.per_app.iter().all(|a| a.profiling.total_secs() > 0.0));
    }

    #[test]
    fn pairwise_never_exceeds_two_executors_per_node() {
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("HB.Scan", InputSize::Medium),
                ("BDB.Grep", InputSize::Medium),
                ("HB.WordCount", InputSize::Medium),
            ],
        );
        // Indirect check: pairwise completes and beats isolated, but not by
        // more than 2x concurrency allows on this cluster.
        let cfg = small_config();
        let iso = run_schedule(PolicyKind::Isolated, &catalog, &mix, None, &cfg, 3).unwrap();
        let pw = run_schedule(PolicyKind::Pairwise, &catalog, &mix, None, &cfg, 3).unwrap();
        assert!(pw.makespan_secs <= iso.makespan_secs);
    }

    #[test]
    fn predictive_policies_require_training_where_applicable() {
        let catalog = Catalog::paper();
        let mix = mix_of(&catalog, &[("HB.Sort", InputSize::Small)]);
        let err = run_schedule(PolicyKind::Moe, &catalog, &mix, None, &small_config(), 1);
        assert!(matches!(err, Err(ColocateError::Config(_))));
    }

    #[test]
    fn empty_mix_is_rejected() {
        let catalog = Catalog::paper();
        let err = run_schedule(
            PolicyKind::Isolated,
            &catalog,
            &[],
            None,
            &small_config(),
            1,
        );
        assert!(matches!(err, Err(ColocateError::Config(_))));
    }

    #[test]
    fn online_search_is_slower_than_oracle() {
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("BDB.Grep", InputSize::Medium),
                ("HB.WordCount", InputSize::Medium),
            ],
        );
        let cfg = small_config();
        let orc = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg, 4).unwrap();
        let online = run_schedule(PolicyKind::OnlineSearch, &catalog, &mix, None, &cfg, 4).unwrap();
        assert!(online.makespan_secs > orc.makespan_secs);
    }

    #[test]
    fn dynamic_adjustment_tops_up_memory_capped_executors() {
        // One node; a memory-hungry app whose first slice is budget-capped
        // because a co-runner holds memory. When the co-runner finishes,
        // the hungry app's executor is extended rather than a new one
        // spawned (saving startup), so it finishes with few executors.
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("BDB.PageRank", InputSize::Medium), // log family, hungry
                ("HB.Scan", InputSize::Medium),      // small footprints
            ],
        );
        let cfg_on = SchedulerConfig {
            cluster: ClusterSpec::small(1),
            ..Default::default()
        };
        let cfg_off = SchedulerConfig {
            dynamic_adjustment: false,
            ..cfg_on.clone()
        };
        let on = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg_on, 2).unwrap();
        let off = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg_off, 2).unwrap();
        // Both complete; the adjusted schedule is no slower (it saves
        // startup costs when it fires).
        assert!(on.per_app.iter().all(|a| a.finished_at > 0.0));
        assert!(off.per_app.iter().all(|a| a.finished_at > 0.0));
        assert!(
            on.makespan_secs <= off.makespan_secs + 1.0,
            "adjusted {:.0}s vs plain {:.0}s",
            on.makespan_secs,
            off.makespan_secs
        );
    }

    proptest::proptest! {
        /// Re-filing one node after each free-memory change keeps `ranked`
        /// equal to a fresh stable sort of the eligible, index-ordered
        /// nodes by free memory — ties, `0.0` vs `-0.0`, a single node and
        /// nodes left out of the ranking (offline or quarantined) included.
        #[test]
        fn rerank_matches_a_fresh_stable_sort(
            eligible in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..10),
            initial in proptest::collection::vec((0u8..8, 0.0f64..16.0), 10),
            updates in proptest::collection::vec((0usize..10, 0u8..8, 0.0f64..16.0), 0..40),
        ) {
            // Mostly repeated values, so ties and signed zeros are common.
            let pick = |(k, x): (u8, f64)| match k {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => 1.5,
                4 => 6.0,
                _ => x,
            };
            let nodes = sparklite::cluster::Cluster::new(ClusterSpec::with_nodes(eligible.len()))
                .node_ids();
            let mut free: Vec<f64> = nodes.iter().map(|n| pick(initial[n.index()])).collect();
            let fresh = |free: &[f64]| {
                let mut r: Vec<(NodeId, f64)> = nodes
                    .iter()
                    .filter(|n| eligible[n.index()])
                    .map(|&n| (n, free[n.index()]))
                    .collect();
                r.sort_by(|a, b| b.1.total_cmp(&a.1));
                r
            };
            let bits = |r: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                r.iter().map(|&(n, f)| (n, f.to_bits())).collect()
            };
            let mut ranked = fresh(&free);
            ranked.sort_by(rank_order);
            proptest::prop_assert_eq!(bits(&ranked), bits(&fresh(&free)));
            for &(i, k, x) in &updates {
                let node = nodes[i % nodes.len()];
                free[node.index()] = pick((k, x));
                rerank(&mut ranked, node, free[node.index()]);
                proptest::prop_assert_eq!(bits(&ranked), bits(&fresh(&free)));
            }
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let catalog = Catalog::paper();
        let mix = mix_of(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("HB.PageRank", InputSize::Small),
            ],
        );
        let cfg = small_config();
        let a = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg, 9).unwrap();
        let b = run_schedule(PolicyKind::Oracle, &catalog, &mix, None, &cfg, 9).unwrap();
        assert_eq!(a.makespan_secs, b.makespan_secs);
        for (x, y) in a.per_app.iter().zip(b.per_app.iter()) {
            assert_eq!(x.finished_at, y.finished_at);
        }
    }
}
