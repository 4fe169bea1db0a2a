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
    AnnPredictor, MemoryPredictor, MoePolicy, Oracle, Prediction, UnifiedFamily,
};
use crate::profiling::{ProfilingConfig, ProfilingCost};
use crate::service::{run_loop, AdmissionConfig, LoopRun, ServiceConfig};
use crate::training::{TrainedSystem, PROFILE_SIZES_GB};
use crate::ColocateError;
use mlkit::regression::{CurveFamily, FittedCurve};
use simkit::arrivals::ArrivalPlan;
use simkit::faults::{FaultEvent, FaultKind, FaultPlan};
use simkit::SimRng;
use sparklite::app::AppId;
use sparklite::cluster::ClusterSpec;
use sparklite::dynalloc;
use sparklite::engine::ClusterEngine;
use sparklite::perf::MemoryPressure;
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

/// Hard cap on executors per node (thread re-balancing limit, §4.3).
pub const MAX_EXECS_PER_NODE: usize = 8;

/// Margin for low-confidence predictions and post-OOM re-runs.
pub const CONSERVATIVE_MARGIN: f64 = 1.5;

/// Smallest slice worth spawning an executor for (GB).
pub const MIN_SLICE_GB: f64 = 0.02;

/// RDD partition granularity (GB): data slices handed to executors are
/// whole partitions, so budget-derived slices snap down to this grid (the
/// HDFS block size).
pub const PARTITION_GB: f64 = workloads::inputs::DEFAULT_PARTITION_GB;

/// Fixed executor startup latency (JVM + container allocation), s. Makes
/// slice-chopping expensive: a predictor that over-reserves memory forces
/// smaller slices and pays this cost more often.
pub const EXECUTOR_STARTUP_SECS: f64 = 25.0;

/// Online search: fraction of the input processed per descent trial,
/// serialised on the coordinating node (§6.5's scalability problem).
pub const SEARCH_SERIAL_FRAC: f64 = 0.008;

/// Online search: steady-state rate penalty from repeated trial
/// adjustments.
pub const SEARCH_RATE_PENALTY: f64 = 0.18;

/// Scheduler configuration shared by all policies.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Profiling pipeline settings.
    pub profiling: ProfilingConfig,
    /// Aggregate CPU demand allowed on one node (the paper refuses
    /// co-locations that push the sum over 100 %).
    pub cpu_cap: f64,
    /// Reservation margin for normal predictions (1.0 = reserve exactly
    /// the predicted footprint).
    pub reserve_margin: f64,
    /// Resource-monitor daemon settings (§4.2): placement consults the
    /// windowed CPU view in addition to the instantaneous one.
    pub monitor: sparklite::monitor::MonitorConfig,
    /// Self-healing behaviour under injected faults. Disabled by default,
    /// in which case the dispatcher behaves exactly as it always has.
    pub resilience: ResilienceConfig,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            cluster: ClusterSpec::paper_cluster(),
            profiling: ProfilingConfig::default(),
            cpu_cap: 1.0,
            // §6.9 suggests slightly over-provisioning (~10 %) to tolerate
            // prediction error; 5 % keeps measurement noise from tipping a
            // tightly packed node into paging.
            reserve_margin: 1.05,
            monitor: sparklite::monitor::MonitorConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Executor-loss retries an application may consume before the scheduler
/// stops trusting its prediction and falls back to an isolated full-node
/// reservation.
pub const MAX_RETRIES: usize = 3;

/// Backoff before the first retry, seconds (doubles per failure).
pub const BACKOFF_BASE_SECS: f64 = 10.0;

/// Ceiling on the exponential backoff, seconds.
pub const BACKOFF_CAP_SECS: f64 = 120.0;

/// Relative jitter applied to each backoff (± this fraction), drawn from a
/// dedicated RNG fork so it never perturbs the main stream.
pub const BACKOFF_JITTER: f64 = 0.25;

/// OOM kills within one monitor window that quarantine a node.
pub const QUARANTINE_THRESHOLD: usize = 3;

/// How long placement avoids a quarantined node, seconds.
pub const QUARANTINE_SECS: f64 = 240.0;

/// EWMA smoothing factor for the observed-vs-booked footprint ratio
/// feeding the safety-margin controller.
pub const MARGIN_ALPHA: f64 = 0.3;

/// Upper clamp on the controller's margin multiplier.
pub const MARGIN_CAP: f64 = 2.0;

/// The self-healing switch layered on the dispatcher. Fault *injection*
/// (via [`run_schedule_with_faults`]) affects every policy equally; only
/// schedules with `enabled == true` get the recovery machinery: retry
/// backoff after executor losses ([`MAX_RETRIES`], [`BACKOFF_BASE_SECS`]),
/// node quarantine after repeated OOM kills ([`QUARANTINE_THRESHOLD`]), an
/// online safety-margin controller ([`MARGIN_ALPHA`], [`MARGIN_CAP`]), and
/// graceful degradation to an isolated reservation once the retry budget
/// is exhausted.
///
/// The default is fully disabled so the fault-free path is byte-identical
/// to a scheduler without this module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Master switch; `false` disables every recovery mechanism.
    pub enabled: bool,
}

impl ResilienceConfig {
    /// The self-healing configuration used by the chaos evaluation: the
    /// master switch on.
    #[must_use]
    pub fn self_healing() -> Self {
        ResilienceConfig { enabled: true }
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

impl std::ops::AddAssign for FaultStats {
    /// Sums every counter. The destructuring names each field, so a new
    /// counter fails to compile here until it is summed too.
    fn add_assign(&mut self, rhs: Self) {
        let FaultStats {
            node_crashes,
            executor_crashes,
            monitor_dropouts,
            prediction_noise,
            slices_requeued_gb,
            retries,
            quarantines,
            isolated_fallbacks,
            spot_preemptions,
            drains,
        } = rhs;
        self.node_crashes += node_crashes;
        self.executor_crashes += executor_crashes;
        self.monitor_dropouts += monitor_dropouts;
        self.prediction_noise += prediction_noise;
        self.slices_requeued_gb += slices_requeued_gb;
        self.retries += retries;
        self.quarantines += quarantines;
        self.isolated_fallbacks += isolated_fallbacks;
        self.spot_preemptions += spot_preemptions;
        self.drains += drains;
    }
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
    pub trace: UtilTrace,
    /// Delivered faults and the self-healing layer's responses.
    pub faults: FaultStats,
}

/// A utilisation trace: one `(time, per-node CPU load)` sample per
/// scheduling instant, stored flat — the time, then the node loads, with
/// stride `nodes + 1` — so recording a sample allocates nothing except
/// once per block of 256 samples (`TRACE_BLOCK_SAMPLES`). Fixed-size
/// blocks rather than one doubling buffer keep the peak footprint at the
/// samples' own size: a grown copy never sits beside the old one.
#[derive(Debug, Clone, Default)]
pub struct UtilTrace {
    nodes: usize,
    blocks: Vec<Vec<f64>>,
}

/// Samples per [`UtilTrace`] storage block.
const TRACE_BLOCK_SAMPLES: usize = 256;

impl UtilTrace {
    /// An empty trace over `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        UtilTrace {
            nodes,
            blocks: Vec::new(),
        }
    }

    /// Appends the sample at time `t`; `loads` yields one load per node.
    pub(crate) fn push(&mut self, t: f64, loads: impl Iterator<Item = f64>) {
        let block_len = TRACE_BLOCK_SAMPLES * (self.nodes + 1);
        if self.blocks.last().is_none_or(|b| b.len() >= block_len) {
            self.blocks.push(Vec::with_capacity(block_len));
        }
        if let Some(block) = self.blocks.last_mut() {
            block.push(t);
            block.extend(loads);
            debug_assert_eq!(block.len() % (self.nodes + 1), 0);
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum::<usize>() / (self.nodes + 1)
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of nodes each sample covers.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }

    /// The samples in time order, as `(time, per-node loads)`.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> + '_ {
        self.blocks
            .iter()
            .flat_map(move |block| block.chunks_exact(self.nodes + 1))
            .map(|sample| (sample[0], &sample[1..]))
    }
}

pub(crate) struct AppRt {
    pub(crate) engine_id: AppId,
    pub(crate) benchmark: usize,
    pub(crate) ready_at: f64,
    /// Dynalloc's executor target and per-executor input share
    /// ([`fair_share`]), fixed at submit: the spec and the config it
    /// derives from never change during a run.
    pub(crate) share: (usize, f64),
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
    /// Writes to `quarantined_until` so far: a placement view re-checks
    /// eligibility when the count moves.
    pub(crate) quarantine_writes: usize,
}

impl ResilState {
    /// Quarantines node `node` (by index) until `until`.
    pub(crate) fn quarantine(&mut self, node: usize, until: f64) {
        self.quarantined_until[node] = until;
        self.quarantine_writes += 1;
    }
}

/// The margin the dispatcher books for `app`: its per-app margin (raised
/// on OOM re-runs) times the global reserve margin, times the online
/// controller's clamped error estimate when resilience is enabled. With
/// resilience disabled the controller multiplier is exactly 1.0 and the
/// product is bit-identical to the historical `margin * reserve_margin`.
pub(crate) fn effective_margin(app: &AppRt, config: &SchedulerConfig) -> f64 {
    let controller = if config.resilience.enabled {
        app.err_ewma.clamp(1.0, MARGIN_CAP)
    } else {
        1.0
    };
    app.margin * config.reserve_margin * controller
}

/// Feeds one executor's observed footprint into the app's error EWMA.
fn observe_footprint_error(app: &mut AppRt, actual_gb: f64, reserved_gb: f64) {
    if reserved_gb <= 0.0 {
        return;
    }
    let ratio = (actual_gb / reserved_gb).clamp(0.0, 10.0);
    app.err_ewma = (1.0 - MARGIN_ALPHA) * app.err_ewma + MARGIN_ALPHA * ratio;
}

/// Charges one executor loss to `app`: exponential backoff with jitter,
/// and — only when the loss was the application's own doing (`may_demote`,
/// i.e. an OOM kill rather than an injected crash) — degradation to
/// isolated mode once the retry budget runs out. Environment failures
/// keep retrying at the capped backoff forever: serialising an
/// application because its *nodes* kept dying would punish the victim.
pub(crate) fn schedule_retry(app: &mut AppRt, t: f64, resil: &mut ResilState, may_demote: bool) {
    app.failures += 1;
    if may_demote && app.failures > MAX_RETRIES {
        if !app.isolated_fallback {
            app.isolated_fallback = true;
            resil.stats.isolated_fallbacks += 1;
        }
        return;
    }
    let exponent = app.failures.min(MAX_RETRIES) as i32 - 1;
    let backoff = (BACKOFF_BASE_SECS * 2f64.powi(exponent)).min(BACKOFF_CAP_SECS);
    let jitter = match resil.jitter.as_mut() {
        Some(rng) => 1.0 + BACKOFF_JITTER * rng.uniform(-1.0, 1.0),
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
    run_batch(policy, catalog, mix, system, config, seed, None, true)
}

/// Makespan of `job` run alone under [`PolicyKind::Isolated`] — the
/// isolated baseline `C_iso` — without recording a utilisation trace.
pub(crate) fn isolated_makespan(
    catalog: &Catalog,
    job: (usize, f64),
    config: &SchedulerConfig,
    seed: u64,
) -> Result<f64, ColocateError> {
    let solo = run_batch(
        PolicyKind::Isolated,
        catalog,
        &[job],
        None,
        config,
        seed,
        None,
        false,
    )?;
    Ok(solo.makespan_secs)
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
    run_batch(policy, catalog, mix, system, config, seed, Some(plan), true)
}

/// The closed system: the whole mix arrives at `t = 0` as a batch plan
/// and runs through the service's event loop with admission off,
/// recording the utilisation trace if `record_trace`.
#[allow(clippy::too_many_arguments)]
fn batch_loop(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[(usize, f64)],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
    faults: Option<&FaultPlan>,
    record_trace: bool,
) -> Result<LoopRun, ColocateError> {
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
    run_loop(
        policy,
        catalog,
        &plan,
        system,
        &service,
        seed,
        faults,
        record_trace,
    )
}

/// [`batch_loop`], with the per-job dispatcher state the loop leaves
/// behind projected into the schedule outcome, utilisation trace included.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[(usize, f64)],
    system: Option<&TrainedSystem>,
    config: &SchedulerConfig,
    seed: u64,
    faults: Option<&FaultPlan>,
    record_trace: bool,
) -> Result<ScheduleOutcome, ColocateError> {
    let run = batch_loop(
        policy,
        catalog,
        mix,
        system,
        config,
        seed,
        faults,
        record_trace,
    )?;
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
    if let Some(app) = apps.get_mut(owner.index()) {
        observe_footprint_error(app, actual, reserved);
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
            lose_node(engine, apps, config, t, id, resil)?;
            resil.stats.node_crashes += 1;
            restore_at[node] = restore_at[node].max(t + outage_secs);
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
                if let Some(app) = apps.get_mut(owner.index()) {
                    schedule_retry(app, t, resil, false);
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
                resil.quarantine(node, resil.quarantined_until[node].max(revoke));
                resil.stats.drains += 1;
            }
        }
    }
    Ok(())
}

/// Fails `node` at `t`: its executors are lost and their slices go back
/// to the owners' unassigned input. With resilience enabled each owner, in
/// first-seen order, gets one backed-off retry that never demotes it
/// (losing a node is the environment's fault, not the application's).
fn lose_node(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    node: NodeId,
    resil: &mut ResilState,
) -> Result<(), ColocateError> {
    let lost = engine.fail_node(node)?;
    let mut owners: Vec<AppId> = Vec::new();
    for (owner, slice) in lost {
        resil.stats.slices_requeued_gb += slice;
        if !owners.contains(&owner) {
            owners.push(owner);
        }
    }
    if config.resilience.enabled {
        for owner in owners {
            if let Some(app) = apps.get_mut(owner.index()) {
                schedule_retry(app, t, resil, false);
            }
        }
    }
    Ok(())
}

/// Fails every node whose spot-revocation deadline has elapsed: running
/// executors are lost (work conservation credits their slices back to the
/// owners), the node goes offline for the drawn outage, and — with
/// resilience enabled — the victims get backed-off retries ([`lose_node`]).
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
            lose_node(engine, apps, config, t, node_ids[i], resil)?;
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
        PolicyKind::Quasar => Some(Box::new(need_system()?.quasar()?)),
        PolicyKind::UnifiedLinear => Some(Box::new(UnifiedFamily::new(CurveFamily::Linear))),
        PolicyKind::UnifiedExponential => {
            Some(Box::new(UnifiedFamily::new(CurveFamily::Exponential)))
        }
        PolicyKind::UnifiedLog => Some(Box::new(UnifiedFamily::new(CurveFamily::NapierianLog))),
        PolicyKind::UnifiedAnn => {
            let sys = need_system()?;
            Some(Box::new(AnnPredictor::train(
                catalog,
                &sys.program_benchmarks,
                &PROFILE_SIZES_GB,
                0.01,
                rng,
            )?))
        }
    })
}

/// What placement reads of one node: the inputs of the water-filling
/// ranking, the executor cap and the CPU guard.
#[derive(Debug, Clone, Copy, Default)]
struct NodeFacts {
    /// Free memory by reservations, GB.
    free: f64,
    /// The guard's observed CPU load ([`observed_cpu_load`]).
    load: f64,
    /// At the executor cap.
    full: bool,
    /// Online and not quarantined: placement may use the node.
    eligible: bool,
}

impl NodeFacts {
    /// Reads `node`'s facts at time `t`, given its observed load.
    fn read(
        engine: &ClusterEngine,
        resil: &ResilState,
        t: f64,
        max_execs: usize,
        node: NodeId,
        load: f64,
    ) -> Self {
        NodeFacts {
            free: engine.node_free_memory(node),
            load,
            full: engine.node_executor_count(node) >= max_execs,
            eligible: engine.node_online(node) && resil.quarantined_until[node.index()] <= t,
        }
    }

    /// The node's term in the guard floor's fold: its load while it can
    /// take an executor, else `+∞`, which the fold ignores.
    fn floor_term(self) -> f64 {
        if self.eligible && !self.full {
            self.load
        } else {
            f64::INFINITY
        }
    }
}

/// Whether a floor term folds below `floor`: it is less, or it is NaN
/// over a non-NaN floor. A NaN load passes the guard, so the floor keeps
/// it; a plain `f64::min` would drop it.
fn beats_floor(term: f64, floor: f64) -> bool {
    term < floor || (term.is_nan() && !floor.is_nan())
}

/// Whether a floor term ties `floor`: equal in value, or both NaN.
fn ties_floor(term: f64, floor: f64) -> bool {
    term == floor || (term.is_nan() && floor.is_nan())
}

/// [`place_predictive`]'s view of the cluster, owned by the event loop
/// and kept current across calls (DESIGN.md §11, "Scheduler sweep").
/// Between syncs only the nodes the engine files as touched, the monitor's
/// observations, quarantine writes and quarantine expiries change what a
/// fresh read would give, so [`PlaceScratch::sync`] re-reads just those.
/// The first sync fills every field.
#[derive(Debug, Default)]
pub(crate) struct PlaceScratch {
    /// Each node's facts as of the last sync, by node index.
    facts: Vec<NodeFacts>,
    /// Eligible nodes in [`rank_order`] with their free memory.
    ranked: Vec<(NodeId, f64)>,
    /// The fold of every node's [`NodeFacts::floor_term`]: the least load
    /// over the ranked nodes below the executor cap, NaN if any of those
    /// loads is NaN, `+∞` if there are none.
    guard_floor: f64,
    /// How many nodes' terms tie the floor. The floor is refolded only
    /// when the last of them leaves it.
    floor_ties: usize,
    /// The monitor's observation count the loads were read at.
    observations: u64,
    /// The quarantine writes seen, and the earliest quarantine deadline
    /// still in the future at the last eligibility check.
    quarantine_writes: usize,
    next_expiry: f64,
    /// Scratch: the nodes the engine filed as touched.
    touched: Vec<NodeId>,
    /// Dynamic-adjustment candidates: `(executor, node, free memory)`.
    candidates: Vec<(sparklite::ExecutorId, NodeId, f64)>,
    /// Per-call flags, by application position: the app's last scan found
    /// no node passing both guards and the memory fit.
    stalled: Vec<bool>,
}

impl PlaceScratch {
    /// Brings the view up to date with `engine`, `monitor` and `resil` at
    /// time `t`, re-reading only what may have moved since the last sync:
    ///
    /// * every fact of each node the engine filed as touched;
    /// * every load, after a new monitor observation;
    /// * every eligibility flag, after a quarantine write or once `t`
    ///   reaches the earliest quarantine deadline seen pending.
    ///
    /// The first sync reads everything. The floor is kept per touched
    /// node, or refolded once when loads or eligibility were re-read.
    fn sync(
        &mut self,
        engine: &mut ClusterEngine,
        monitor: &sparklite::monitor::ResourceMonitor,
        resil: &ResilState,
        nodes: &[NodeId],
        t: f64,
        max_execs: usize,
    ) {
        engine.take_touched_nodes(&mut self.touched);
        let engine = &*engine;
        let fresh = self.facts.len() != nodes.len();
        if fresh {
            self.facts = vec![NodeFacts::default(); nodes.len()];
            self.ranked.clear();
            self.touched.clear();
            self.touched.extend_from_slice(nodes);
        }
        let loads_moved = fresh || monitor.observations() != self.observations;
        let eligibility_moved =
            fresh || resil.quarantine_writes != self.quarantine_writes || t >= self.next_expiry;
        let refold = loads_moved || eligibility_moved;
        if loads_moved {
            self.observations = monitor.observations();
            for (&n, facts) in nodes.iter().zip(&mut self.facts) {
                facts.load = observed_cpu_load(engine, monitor, n);
            }
        }
        for k in 0..self.touched.len() {
            let n = self.touched[k];
            let load = if loads_moved {
                self.facts[n.index()].load
            } else {
                observed_cpu_load(engine, monitor, n)
            };
            let facts = NodeFacts::read(engine, resil, t, max_execs, n, load);
            self.refile(n, facts, !refold);
        }
        if eligibility_moved {
            self.quarantine_writes = resil.quarantine_writes;
            for &n in nodes {
                let facts = NodeFacts {
                    eligible: engine.node_online(n) && resil.quarantined_until[n.index()] <= t,
                    ..self.facts[n.index()]
                };
                self.refile(n, facts, false);
            }
            self.next_expiry = resil
                .quarantined_until
                .iter()
                .copied()
                .filter(|&until| until > t)
                .fold(f64::INFINITY, f64::min);
        }
        if refold {
            self.refold_floor();
        }
    }

    /// Takes `facts` as node `n`'s: re-files it in `ranked` if its
    /// eligibility or free memory moved and, with `keep_floor`, keeps the
    /// floor exact. A term folding below the floor becomes it; otherwise
    /// the floor holds while some node still ties it.
    fn refile(&mut self, n: NodeId, facts: NodeFacts, keep_floor: bool) {
        let old = std::mem::replace(&mut self.facts[n.index()], facts);
        let ranked = &mut self.ranked;
        // The key is unique, so a binary search under the old one finds
        // the node.
        let find = |ranked: &[(NodeId, f64)], free: f64| {
            let at = ranked.partition_point(|e| rank_order(e, &(n, free)).is_lt());
            debug_assert_eq!(ranked.get(at).map(|e| e.0), Some(n));
            at
        };
        match (old.eligible, facts.eligible) {
            (true, true) if old.free.to_bits() != facts.free.to_bits() => {
                // Shift the nodes between its old and new places by one.
                let at = find(ranked, old.free);
                let entry = (n, facts.free);
                let before = ranked[..at].partition_point(|e| rank_order(e, &entry).is_lt());
                if before < at {
                    ranked[before..=at].rotate_right(1);
                    ranked[before] = entry;
                } else {
                    let rest = &ranked[at + 1..];
                    let to = at + rest.partition_point(|e| rank_order(e, &entry).is_lt());
                    ranked[at..=to].rotate_left(1);
                    ranked[to] = entry;
                }
            }
            (true, false) => {
                let at = find(ranked, old.free);
                ranked.remove(at);
            }
            (false, true) => {
                let at = ranked.partition_point(|e| rank_order(e, &(n, facts.free)).is_lt());
                ranked.insert(at, (n, facts.free));
            }
            _ => {}
        }
        if !keep_floor {
            return;
        }
        let (was, now) = (old.floor_term(), facts.floor_term());
        if was.to_bits() == now.to_bits() {
            return;
        }
        if ties_floor(was, self.guard_floor) {
            self.floor_ties -= 1;
        }
        if beats_floor(now, self.guard_floor) {
            self.guard_floor = now;
            self.floor_ties = 1;
        } else if ties_floor(now, self.guard_floor) {
            self.floor_ties += 1;
        } else if self.floor_ties == 0 {
            self.refold_floor();
        }
    }

    /// Recomputes [`guard_floor`](Self::guard_floor) and its tie count
    /// over the dense per-node facts.
    fn refold_floor(&mut self) {
        let (mut floor, mut ties) = (f64::INFINITY, 0);
        for term in self.facts.iter().map(|f| f.floor_term()) {
            if beats_floor(term, floor) {
                (floor, ties) = (term, 1);
            } else if ties_floor(term, floor) {
                ties += 1;
            }
        }
        (self.guard_floor, self.floor_ties) = (floor, ties);
    }

    /// Whether an application demanding `cpu` fails the CPU guard on every
    /// ranked node. Float addition is monotone, so no node's
    /// `load + cpu` can pass where the floor's fails.
    fn guard_stalls(&self, cpu: f64, cpu_cap: f64) -> bool {
        self.guard_floor + cpu > cpu_cap
    }
}

/// The water-filling node order: most free memory first, ties by node
/// index. Over the index-ordered node list this total key is exactly the
/// stable sort by free memory alone.
fn rank_order(a: &(NodeId, f64), b: &(NodeId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
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
    let target = dynalloc::executors_for(spec, config.cluster.nodes, config.cluster.node.ram_gb);
    (target, spec.input_gb / target as f64)
}

/// One placement round at time `t`. Returns the number of *abstain*
/// placements made (isolated whole-node reservations forced by a tripped
/// circuit breaker); always 0 unless `abstain` is set.
#[allow(clippy::too_many_arguments)]
pub(crate) fn place(
    policy: PolicyKind,
    engine: &mut ClusterEngine,
    apps: &[AppRt],
    live: &[usize],
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
        PolicyKind::Isolated => place_isolated(engine, apps, live, nodes).map(|()| 0),
        PolicyKind::Pairwise => place_pairwise(engine, apps, live, catalog, nodes).map(|()| 0),
        _ => place_predictive(
            engine, apps, live, config, t, monitor, resil, nodes, abstain, scratch,
        ),
    }
}

/// Last-resort placement when the policy's model refuses every node: give
/// the first ready, unfinished application of `live` one dynalloc-sized
/// slice on the node with the most free memory, reserving whatever is
/// free. Returns whether an executor was spawned.
pub(crate) fn force_place(
    engine: &mut ClusterEngine,
    apps: &[AppRt],
    live: &[usize],
    t: f64,
) -> Result<bool, ColocateError> {
    for app in live.iter().map(|&i| &apps[i]) {
        if app.finished_at.is_some() || app.ready_at.max(app.retry_at) > t {
            continue;
        }
        let id = app.engine_id;
        if engine.app(id).unassigned_gb() <= 0.0 {
            continue;
        }
        let (_, share) = app.share;
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
        .max(MIN_SLICE_GB)
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
    apps: &[AppRt],
    live: &[usize],
    nodes: &[NodeId],
) -> Result<(), ColocateError> {
    // The first unfinished app owns the whole cluster.
    let Some(&active) = live.first() else {
        return Ok(());
    };
    let id = apps[active].engine_id;
    if engine.app(id).unassigned_gb() <= 0.0 {
        return Ok(());
    }
    let (target, slice) = apps[active].share;
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
    apps: &[AppRt],
    live: &[usize],
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
    for &i in live.iter().take(2) {
        let id = apps[i].engine_id;
        if engine.app(id).unassigned_gb() <= 0.0 {
            continue;
        }
        let bench = &catalog.all()[apps[i].benchmark];
        let (target, slice) = apps[i].share;
        let curve = engine.app(id).spec().memory_curve;
        // Prefer empty nodes, then singly occupied ones; the stable sort
        // keeps node order among equal counts.
        let mut node_order: Vec<(NodeId, usize)> = nodes
            .iter()
            .map(|&n| (n, engine.node_executor_count(n)))
            .collect();
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
            if want < MIN_SLICE_GB || free < 1.0 {
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
    apps: &[AppRt],
    live: &[usize],
    config: &SchedulerConfig,
    t: f64,
    monitor: &sparklite::monitor::ResourceMonitor,
    resil: &ResilState,
    nodes: &[NodeId],
    abstain: bool,
    scratch: &mut PlaceScratch,
) -> Result<usize, ColocateError> {
    let mut abstain_placements = 0usize;
    // Graceful degradation: an application that burned through its retry
    // budget gets a whole empty node to itself — the paper's §2.3 answer
    // to repeated OOMs is to re-run in isolation — sidestepping the
    // predictions that kept failing it. A tripped circuit breaker
    // (`abstain`, service layer only) widens this to *every* ready
    // application: co-location is suspended until the distress rate
    // recovers, and each placement made that way is counted.
    if config.resilience.enabled || abstain {
        for app in live.iter().map(|&i| &apps[i]) {
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
                if wave < MIN_SLICE_GB {
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
    // executor count only rise, so the `break` on the first failed memory
    // fit, the `stalled` flags and the guard floor all leave the outcome
    // bit-identical (DESIGN.md §11, "Scheduler sweep"). The view in
    // `scratch` is synced before a scan that follows the call's start or a
    // spawn attempt; it re-reads only what changed since it was last
    // synced.
    let quantize = |gb: f64| -> f64 {
        // Whole RDD partitions only (never exceeding what was asked for; a
        // final sub-partition tail is allowed so inputs drain completely).
        if gb <= PARTITION_GB {
            return gb;
        }
        (gb / PARTITION_GB).floor() * PARTITION_GB
    };
    let mut synced = false;
    scratch.stalled.clear();
    scratch.stalled.resize(apps.len(), false);
    loop {
        let mut progress = false;
        for &i in live {
            let app = &apps[i];
            if scratch.stalled[i]
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
            let (target, slice_target) = app.share;
            if engine.app(id).live_executors() >= target {
                continue;
            }
            // Nodes with the most free memory first (§4.3: spawn on
            // servers that have spare memory). Offline and quarantined
            // nodes are left out of the ranking, so rounds on a degraded
            // cluster never visit dead nodes.
            if !synced {
                scratch.sync(engine, monitor, resil, nodes, t, MAX_EXECS_PER_NODE);
                synced = true;
            }
            let cpu = app.measured_cpu;
            // Every node fails the CPU guard: the scan would find nothing.
            if scratch.guard_stalls(cpu, config.cpu_cap) {
                scratch.stalled[i] = true;
                continue;
            }
            let margin = effective_margin(app, config);
            let want = slice_target.min(remaining);
            let need = prediction.model.footprint_gb(want) * app.pred_scale * margin;

            let mut placement = None;
            for &(node, free) in &scratch.ranked {
                // CPU guard: aggregate load stays under the cap (§4.3).
                let facts = scratch.facts[node.index()];
                if facts.full || facts.load + cpu > config.cpu_cap {
                    continue;
                }
                let (slice, reserve) = if need <= free {
                    (want, need)
                } else {
                    match prediction
                        .model
                        .max_input_for_budget(free / (app.pred_scale * margin))
                    {
                        Some(x) if x.min(want) >= MIN_SLICE_GB => {
                            let s = quantize(x.min(want)).max(MIN_SLICE_GB);
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
                scratch.stalled[i] = true;
                continue;
            };
            let spawned = engine.spawn_executor(id, node, slice, reserve)?.is_some();
            progress |= spawned;
            if !spawned {
                // A refused spawn releases its reservation, which may
                // round free memory up: the stalls no longer hold.
                scratch.stalled.fill(false);
            }
            // The attempt touched `node`: the next scan re-reads it.
            synced = false;
        }
        if !progress {
            break;
        }
    }

    // §4.3 dynamic adjustment: applications with leftover input that could
    // not obtain another executor top up a running one where the node has
    // spare memory, avoiding a fresh executor's startup cost. Only an app's
    // own successful extension changes its executors, its remaining input
    // or the memory they see, and it ends that app's turn: the app's
    // executors, their slices, `remaining` and a candidate's free memory
    // all hold from its visit until the extension.
    let candidates = &mut scratch.candidates;
    let guard = MIN_SLICE_GB.max(PARTITION_GB);
    for app in live.iter().map(|&i| &apps[i]) {
        if app.finished_at.is_some() || app.ready_at.max(app.retry_at) > t || app.isolated_fallback
        {
            continue;
        }
        let id = app.engine_id;
        // Too little input left to be worth an extension.
        let remaining = engine.app(id).unassigned_gb();
        if remaining <= 0.0 || remaining <= MIN_SLICE_GB || engine.app(id).live_executors() == 0 {
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
        let (_, slice_target) = app.share;
        // This app's executors, on the node with the most free memory
        // first; the (node, id) tie-break reproduces the order the
        // original nodes-times-executors scan fed its stable sort.
        // Executors the walk would skip are dropped before sorting:
        // no spare memory, or no room below the fair share for an
        // extension past `guard` (float subtraction is monotone, so
        // `max_slice.min(slice_target) - slice` is no larger).
        candidates.clear();
        for e in engine.app_executors(id) {
            let free = engine.node_free_memory(e.node());
            if free <= 0.5 || slice_target - e.slice_gb() < guard {
                continue;
            }
            candidates.push((e.id(), e.node(), free));
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
            let new_need = prediction.model.footprint_gb(slice + extra) * app.pred_scale * margin;
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
    Ok(abstain_placements)
}

/// Kills executors until no candidate node is out of memory; raises the
/// owning application's margin so its re-run is conservative. `nodes` is
/// the OOM candidate set — the engine's hot nodes — which provably covers
/// every node the full-cluster scan could act on (cool nodes always report
/// `Fits`). Each node is killed youngest-first until its pressure drops
/// below out-of-memory. With resilience enabled it additionally feeds the
/// margin controller, schedules a backed-off retry for the owner, and
/// quarantines nodes that keep OOMing within one monitor window.
pub(crate) fn resolve_ooms(
    engine: &mut ClusterEngine,
    apps: &mut [AppRt],
    config: &SchedulerConfig,
    t: f64,
    resil: &mut ResilState,
    nodes: &[NodeId],
) -> Result<usize, ColocateError> {
    let resilience = config.resilience;
    let mut kills = 0;
    for &node in nodes {
        while matches!(engine.memory_pressure(node), MemoryPressure::OutOfMemory) {
            let Some(victim) = engine.oom_victim(node) else {
                break;
            };
            let (owner, actual, reserved) = {
                let e = engine.executor(victim)?;
                (e.app(), e.current_actual_gb(), e.reserved_gb())
            };
            engine.kill_executor(victim)?;
            if let Some(app) = apps.get_mut(owner.index()) {
                app.margin = (app.margin * 1.5).clamp(CONSERVATIVE_MARGIN, 3.0);
                if resilience.enabled {
                    observe_footprint_error(app, actual, reserved);
                    schedule_retry(app, t, resil, true);
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
                if times.len() >= QUARANTINE_THRESHOLD {
                    times.clear();
                    resil.quarantine(node.index(), t + QUARANTINE_SECS);
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

    #[test]
    fn util_trace_keeps_samples_in_order_across_blocks() {
        let n = 2 * TRACE_BLOCK_SAMPLES + 3;
        let mut trace = UtilTrace::new(3);
        assert!(trace.is_empty());
        for i in 0..n {
            let x = i as f64;
            trace.push(x, [x + 0.25, x + 0.5, x + 0.75].into_iter());
        }
        assert_eq!(trace.len(), n);
        assert_eq!(trace.iter().count(), n);
        for (i, (t, loads)) in trace.iter().enumerate() {
            let x = i as f64;
            assert_eq!(t, x);
            assert_eq!(loads, &[x + 0.25, x + 0.5, x + 0.75]);
        }
    }
    use crate::training::{train_system, TrainingConfig};
    use mlkit::regression::CurveFamily;
    use sparklite::perf::InterferenceModel;
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
        // One node, so dynalloc grants the hungry app a single executor. A
        // co-runner's reservation caps that executor's spawn slice; once
        // the co-runner leaves, the next round extends the executor past
        // its spawn slice instead of spawning a second one.
        let catalog = Catalog::paper();
        let config = SchedulerConfig {
            cluster: ClusterSpec::small(1),
            ..Default::default()
        };
        let mut engine =
            ClusterEngine::with_seed(config.cluster.clone(), InterferenceModel::default(), 2);
        let node = engine.cluster().node_ids()[0];
        let hungry = catalog.by_name("BDB.PageRank").unwrap();
        let id = engine.submit(hungry.app_spec(30.0, 0.0));
        // The co-runner leaves room for a 5 GB slice of the 30 GB input.
        let room = hungry.true_footprint_gb(5.0) * config.reserve_margin;
        let ram = engine.cluster().node(node).spec().ram_gb;
        let scan = catalog.by_name("HB.Scan").unwrap();
        let co_runner = engine.submit(scan.app_spec(1.0, 0.0));
        let blocker = engine
            .spawn_executor(co_runner, node, 1.0, ram - room)
            .unwrap()
            .unwrap();
        let apps = [AppRt {
            engine_id: id,
            benchmark: hungry.index(),
            ready_at: 0.0,
            share: fair_share(&engine, id, &config),
            prediction: Some(Prediction {
                model: Box::new(moe_core::calibration::CalibratedModel::from_curve(
                    hungry.curve(),
                )),
                low_confidence: false,
                cpu_estimate: None,
            }),
            measured_cpu: hungry.cpu_util(),
            margin: 1.0,
            finished_at: None,
            profiling: ProfilingCost::default(),
            input_gb: 30.0,
            pred_scale: 1.0,
            err_ewma: 1.0,
            failures: 0,
            retry_at: 0.0,
            isolated_fallback: false,
        }];
        let monitor = sparklite::monitor::ResourceMonitor::new(1, Default::default());
        let resil = ResilState {
            jitter: None,
            quarantined_until: vec![0.0],
            oom_times: vec![VecDeque::new()],
            stats: FaultStats::default(),
            quarantine_writes: 0,
        };
        let mut scratch = PlaceScratch::default();
        let nodes = [node];
        let mut place_and_slices = |engine: &mut ClusterEngine| {
            place_predictive(
                engine,
                &apps,
                &[0],
                &config,
                0.0,
                &monitor,
                &resil,
                &nodes,
                false,
                &mut scratch,
            )
            .unwrap();
            engine
                .app_executors(id)
                .map(|e| e.slice_gb())
                .collect::<Vec<_>>()
        };
        let spawned = place_and_slices(&mut engine);
        assert_eq!(spawned.len(), 1);
        assert!(
            spawned[0] <= 5.0,
            "spawn slice {} is not capped",
            spawned[0]
        );
        engine.kill_executor(blocker).unwrap();
        let extended = place_and_slices(&mut engine);
        assert_eq!(extended.len(), 1, "extended, not respawned");
        assert!(
            extended[0] > spawned[0],
            "slice {} did not grow past its spawn slice {}",
            extended[0],
            spawned[0]
        );
        assert_eq!(extended[0], 30.0, "topped up to the fair share");
    }

    /// One step of the floor's fold as the per-call rebuild ran it.
    fn fold_floor(floor: f64, term: f64) -> f64 {
        if term < floor || term.is_nan() {
            term
        } else {
            floor
        }
    }

    /// The number of `facts` whose floor term ties the view's floor.
    fn recount_ties(view: &PlaceScratch) -> usize {
        view.facts
            .iter()
            .filter(|f| ties_floor(f.floor_term(), view.guard_floor))
            .count()
    }

    /// A rebuilt view: ranked nodes, loads and cap flags by node, floor.
    type RebuiltView = (Vec<(NodeId, f64)>, Vec<f64>, Vec<bool>, f64);

    /// The view as a fresh rebuild reads it, the way every placement call
    /// used to build it: every node's observed load, the eligible nodes
    /// sorted by [`rank_order`], the cap flags, and the floor folded over
    /// the ranked nodes below the cap, in ranked order.
    fn rebuild_view(
        engine: &ClusterEngine,
        monitor: &sparklite::monitor::ResourceMonitor,
        resil: &ResilState,
        nodes: &[NodeId],
        t: f64,
        max_execs: usize,
    ) -> RebuiltView {
        let loads: Vec<f64> = nodes
            .iter()
            .map(|&n| observed_cpu_load(engine, monitor, n))
            .collect();
        let full: Vec<bool> = nodes
            .iter()
            .map(|&n| engine.node_executor_count(n) >= max_execs)
            .collect();
        let mut ranked: Vec<(NodeId, f64)> = nodes
            .iter()
            .filter(|&&n| engine.node_online(n) && resil.quarantined_until[n.index()] <= t)
            .map(|&n| (n, engine.node_free_memory(n)))
            .collect();
        ranked.sort_by(rank_order);
        let floor = ranked
            .iter()
            .filter(|&&(n, _)| !full[n.index()])
            .map(|&(n, _)| loads[n.index()])
            .fold(f64::INFINITY, fold_floor);
        (ranked, loads, full, floor)
    }

    fn ranked_bits(r: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        r.iter().map(|&(n, f)| (n, f.to_bits())).collect()
    }

    /// Floors are equal in value: the fold's order decides only the sign
    /// of a zero floor, and `±0 + cpu` is the same guard test.
    fn same_floor(a: f64, b: f64) -> bool {
        a == b || (a.is_nan() && b.is_nan())
    }

    proptest::proptest! {
        /// The persistent view equals a fresh rebuild after every sync,
        /// through random spawns (refused ones included), extensions,
        /// kills, completions, node failures and restores, monitor
        /// observations and dropouts, quarantine writes and the passage of
        /// time past quarantine deadlines. Empty nodes load `-0.0`, and a
        /// zero-demand executor makes `+0.0`. Inputs are small, so apps
        /// drain and their spawns and extensions are refused: a refused
        /// reservation is released again, which can round free memory.
        #[test]
        fn placement_view_matches_a_fresh_rebuild_through_engine_events(
            ops in proptest::collection::vec(
                (0u8..11, 0usize..64, 0usize..64, 0.0f64..16.0),
                1..120,
            ),
        ) {
            const MAX_EXECS: usize = 2;
            let mut engine = ClusterEngine::with_seed(
                ClusterSpec::small(5),
                InterferenceModel::default(),
                3,
            );
            let curve = mlkit::regression::FittedCurve {
                family: CurveFamily::Linear,
                m: 0.5,
                b: 1.0,
            };
            let apps: Vec<AppId> = [0.0, 0.25, 0.5, 0.75]
                .iter()
                .map(|&cpu| {
                    engine.submit(sparklite::app::AppSpec {
                        name: "a".into(),
                        input_gb: 40.0,
                        rate_gb_per_s: 1.0,
                        cpu_util: cpu,
                        memory_curve: curve,
                        footprint_noise_sd: 0.0,
                    })
                })
                .collect();
            let nodes = engine.cluster().node_ids();
            let mut monitor = sparklite::monitor::ResourceMonitor::new(
                nodes.len(),
                sparklite::monitor::MonitorConfig::default(),
            );
            let mut resil = ResilState {
                jitter: None,
                quarantined_until: vec![0.0; nodes.len()],
                oom_times: vec![VecDeque::new(); nodes.len()],
                stats: FaultStats::default(),
                quarantine_writes: 0,
            };
            let mut view = PlaceScratch::default();
            let mut t = 0.0f64;
            let nth_live = |engine: &ClusterEngine, k: usize| {
                let n = nodes[k % nodes.len()];
                engine.node_executors_iter(n).nth(k / nodes.len())
            };
            for &(op, a, b, x) in &ops {
                let node = nodes[b % nodes.len()];
                match op {
                    0 | 1 => {
                        // Tiny reservations are refused spawns' rounding.
                        let _ = engine.spawn_executor(apps[a % 4], node, x, x * 0.37);
                    }
                    2 => {
                        if let Some(id) = nth_live(&engine, a) {
                            let _ = engine.extend_executor(id, x, x * 0.11);
                        }
                    }
                    3 => {
                        if let Some(id) = nth_live(&engine, a) {
                            engine.kill_executor(id).unwrap();
                        }
                    }
                    4 => {
                        if let Some((dt, id)) = engine.next_completion() {
                            engine.advance(dt);
                            t += dt;
                            engine.complete_executor(id).unwrap();
                        }
                    }
                    5 => {
                        if a % 2 == 0 {
                            engine.fail_node(node).unwrap();
                        } else {
                            engine.restore_node(node).unwrap();
                        }
                    }
                    6 => monitor.observe(&engine, t),
                    7 => monitor.drop_reports(node, t + x * 10.0),
                    8 => resil.quarantine(node.index(), t + x * 4.0),
                    9 => {
                        // Time passes: quarantines may expire.
                        t += x * 2.0;
                        engine.advance(x * 0.01);
                    }
                    _ => {}
                }
                // Sync at random points, as calls with no scan skip it.
                if a % 3 != 0 {
                    continue;
                }
                view.sync(&mut engine, &monitor, &resil, &nodes, t, MAX_EXECS);
                let (ranked, loads, full, floor) =
                    rebuild_view(&engine, &monitor, &resil, &nodes, t, MAX_EXECS);
                proptest::prop_assert_eq!(ranked_bits(&view.ranked), ranked_bits(&ranked));
                for &(n, _) in &ranked {
                    proptest::prop_assert_eq!(
                        view.facts[n.index()].load.to_bits(),
                        loads[n.index()].to_bits(),
                        "load of {}", n
                    );
                }
                let view_full: Vec<bool> = view.facts.iter().map(|f| f.full).collect();
                proptest::prop_assert_eq!(view_full, full);
                proptest::prop_assert!(
                    same_floor(view.guard_floor, floor),
                    "floor {} vs rebuilt {}", view.guard_floor, floor
                );
                proptest::prop_assert_eq!(view.floor_ties, recount_ties(&view));
            }
        }
    }

    /// The guard-only scan the floor test replaces: does some ranked node
    /// below the executor cap pass the CPU guard?
    fn guard_admits_some_node(view: &PlaceScratch, cpu: f64, cpu_cap: f64) -> bool {
        view.ranked.iter().any(|&(n, _)| {
            let f = view.facts[n.index()];
            !(f.full || f.load + cpu > cpu_cap)
        })
    }

    proptest::proptest! {
        /// Re-filing nodes one at a time keeps the view equal to a fresh
        /// rebuild over the same facts: `ranked` to a fresh stable sort of
        /// the eligible nodes by free memory, and the floor test to the
        /// guard-only scan — through ties, `0.0` vs `-0.0` free memory and
        /// loads, NaN loads, loads at or past the cap, nodes at the
        /// executor cap, a single node and an empty ranking.
        #[test]
        fn placement_view_refile_matches_a_fresh_rebuild_over_any_facts(
            initial in proptest::collection::vec(
                ((0u8..8, 0.0f64..16.0), (0u8..10, 0.0f64..1.5), 0u8..4),
                1..9,
            ),
            cap_pick in 0usize..3,
            cpus in proptest::collection::vec(0.0f64..1.5, 4),
            updates in proptest::collection::vec(
                (0usize..9, (0u8..8, 0.0f64..16.0), (0u8..10, 0.0f64..1.5), 0u8..4),
                0..40,
            ),
        ) {
            let cpu_cap = [0.75, 0.875, 1.0][cap_pick];
            // Mostly repeated values, so ties and signed zeros are common.
            let pick_free = |k: u8, x: f64| match k {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => 1.5,
                4 => 6.0,
                _ => x,
            };
            // Mostly named loads. They are dyadic, like the caps, so
            // `cap - load` is exact and `load + cpu` can land on the cap.
            let pick_load = |k: u8, x: f64| match k {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => cpu_cap,
                4 => cpu_cap + 0.25,
                5 => 0.25,
                6 => 0.5,
                _ => x,
            };
            let facts_of = |(kf, f): (u8, f64), (kl, l): (u8, f64), flags: u8| NodeFacts {
                free: pick_free(kf, f),
                load: pick_load(kl, l),
                full: flags & 1 == 1,
                eligible: flags != 2,
            };
            let nodes = sparklite::cluster::Cluster::new(ClusterSpec::with_nodes(initial.len()))
                .node_ids();
            let mut facts: Vec<NodeFacts> = initial
                .iter()
                .map(|&(free, load, flags)| facts_of(free, load, flags))
                .collect();
            let mut view = PlaceScratch {
                facts: vec![NodeFacts::default(); nodes.len()],
                ..PlaceScratch::default()
            };
            for &n in &nodes {
                view.refile(n, facts[n.index()], false);
            }
            view.refold_floor();
            let check = |view: &PlaceScratch, facts: &[NodeFacts]| {
                let mut ranked: Vec<(NodeId, f64)> = nodes
                    .iter()
                    .filter(|n| facts[n.index()].eligible)
                    .map(|&n| (n, facts[n.index()].free))
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
                proptest::prop_assert_eq!(ranked_bits(&view.ranked), ranked_bits(&ranked));
                let floor = ranked
                    .iter()
                    .filter(|&&(n, _)| !facts[n.index()].full)
                    .map(|&(n, _)| facts[n.index()].load)
                    .fold(f64::INFINITY, fold_floor);
                proptest::prop_assert!(same_floor(view.guard_floor, floor));
                proptest::prop_assert_eq!(view.floor_ties, recount_ties(view));
                // Random demands, plus each load's exact distance to the cap.
                let tight = facts.iter().map(|f| cpu_cap - f.load);
                for cpu in cpus.iter().copied().chain(tight).filter(|c| c.is_finite()) {
                    proptest::prop_assert_eq!(
                        view.guard_stalls(cpu, cpu_cap),
                        !guard_admits_some_node(view, cpu, cpu_cap),
                        "cpu {} floor {}",
                        cpu,
                        view.guard_floor
                    );
                }
            };
            check(&view, &facts);
            for &(i, free, load, flags) in &updates {
                let n = nodes[i % nodes.len()];
                facts[n.index()] = facts_of(free, load, flags);
                view.refile(n, facts[n.index()], true);
                check(&view, &facts);
            }
        }
    }

    #[test]
    fn submit_time_shares_match_a_fresh_fair_share() {
        let catalog = Catalog::paper();
        let mut rng = SimRng::seed_from(11);
        let system = train_system(&catalog, &TrainingConfig::default(), &mut rng).unwrap();
        let mix: Vec<(usize, f64)> = workloads::mixes::MixScenario::TABLE3[3]
            .random_mix(&catalog, &mut rng)
            .iter()
            .map(|e| (e.benchmark, e.size.gb()))
            .collect();
        let config = SchedulerConfig::default();
        let faults = FaultPlan::generate(
            3,
            &simkit::faults::FaultPlanConfig {
                intensity: 0.5,
                horizon_secs: 4_000.0,
                nodes: config.cluster.nodes,
                apps: mix.len(),
                ..Default::default()
            },
        );
        let runs = [
            (PolicyKind::Pairwise, None),
            (PolicyKind::Quasar, None),
            (PolicyKind::Moe, None),
            (PolicyKind::Oracle, None),
            (PolicyKind::Moe, Some(&faults)),
        ];
        for (policy, faults) in runs {
            let run = batch_loop(
                policy,
                &catalog,
                &mix,
                Some(&system),
                &config,
                7,
                faults,
                true,
            )
            .unwrap();
            assert_eq!(run.apps.len(), mix.len());
            for app in &run.apps {
                let (target, slice) = fair_share(&run.engine, app.engine_id, &config);
                assert_eq!(app.share.0, target, "{policy:?}");
                assert_eq!(app.share.1.to_bits(), slice.to_bits(), "{policy:?}");
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
