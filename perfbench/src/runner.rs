//! The measurement loop every workload shares.
//!
//! 1. **Set-up**, repeated [`SETUP_REPS`] times; `setup_s` is
//!    the median. The first set-up's state is kept; the repetitions are
//!    spread over the timed phase, between rounds.
//! 2. **Rounds**: identical passes over the generated inputs, repeated
//!    until [`RunOptions::seconds`] have passed (at least
//!    [`MIN_ROUNDS`]). Every round must produce the same digest, simulated
//!    results and layer counters. Each call the benchmark makes into the
//!    program is timed ([`RoundReport::call`]). `items_per_s` is the items
//!    of every untraced round over their calls' total time. The first
//!    round counts too: a round starts from empty memo tables, so it does
//!    no more work than the others, and a campaign round is long enough
//!    that warming the CPU caches is lost in it. The host's speed drifts
//!    over tens of seconds; a total over the whole run averages the drift,
//!    where a median over rounds would pick one side of it.
//! 3. In a traced run, odd rounds record spans and even rounds do not;
//!    the per-layer table folds the traced rounds' spans, and
//!    `trace.overhead_pct` compares the two kinds of round.

use crate::metrics::{median, metric, peak_rss_mb, percentile, ratio, Metric};
use crate::trace::{Request, Span, Tracer};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Fewest rounds a run makes, whatever its time budget: a traced run needs
/// an untraced and a traced round to compare.
pub const MIN_ROUNDS: u32 = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u32 = 31;

/// Span names: one per layer boundary the benchmark calls into.
pub mod span {
    /// One full set-up.
    pub const SETUP: &str = "setup";
    /// One round of the timed phase.
    pub const ROUND: &str = "round";
    /// `workloads::Catalog::paper`.
    pub const CATALOG: &str = "workloads.catalog";
    /// Offline training (`harness::trained_system_for`).
    pub const TRAINING: &str = "training";
    /// The benchmark's own input generation.
    pub const INPUTS: &str = "inputs";
    /// Capacity baselines of the storm (`harness::isolated_times_custom`).
    pub const CAPACITY: &str = "harness.capacity";
    /// `BaselineCache` lookups.
    pub const BASELINES: &str = "harness.baselines";
    /// `scheduler::run_schedule`, tagged with the policy.
    pub const SCHEDULE: &str = "scheduler.run_schedule";
    /// `service::run_service`, tagged with the entry.
    pub const SERVICE: &str = "service.run_service";
    /// The `ModelArtifact` round trip.
    pub const ARTIFACT: &str = "serving.artifact.roundtrip";
    /// `MoePredictor::select_batch`.
    pub const SELECT_BATCH: &str = "serving.select_batch";
}

/// What one round did.
#[derive(Debug, Clone, Default)]
pub struct RoundReport {
    /// Items completed (the workload defines the item).
    pub items: u64,
    /// Host time of the round's calls into the program, seconds.
    pub busy: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed their outcome check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Digest of every simulated outcome of the round.
    pub digest: u64,
    /// Simulated results (deterministic for a seed).
    pub sim: Vec<Metric>,
    /// Layer counters (deterministic for a seed).
    pub counters: Vec<Metric>,
}

impl RoundReport {
    /// Makes one call into the program: times it for `items_per_s` and,
    /// in a traced round, records it as a span.
    pub fn call<T>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        tag: &'static str,
        request: Request,
        f: impl FnOnce() -> T,
    ) -> T {
        tracer.span(name, tag, request, |_| {
            let t0 = Instant::now();
            let out = f();
            self.busy += t0.elapsed().as_secs_f64();
            out
        })
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up hands the rounds.
    type State;

    /// Builds everything the rounds need: catalog, trained system and
    /// generated inputs.
    ///
    /// # Errors
    ///
    /// Describes a set-up failure; the run then stops without a result.
    fn setup(&self, tracer: &mut Tracer) -> Result<Self::State, String>;

    /// One pass over the inputs. Must do the same work every time.
    fn round(&self, state: &Self::State, round: u32, tracer: &mut Tracer) -> RoundReport;
}

/// How long and how to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Timed-phase budget, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_path: Option<PathBuf>,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every check passed and every round agreed.
    pub correct: bool,
    /// Operations attempted over all rounds.
    pub attempted: u64,
    /// Operations failed over all rounds.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The rounds' common digest.
    pub digest: u64,
    /// The rounds' common simulated results.
    pub sim: Vec<Metric>,
    /// Rounds run.
    pub rounds: u32,
    /// Failure descriptions (checks, disagreeing rounds).
    pub failures: Vec<String>,
    /// Each untraced round's rate, items per second of call time, in run
    /// order.
    pub round_rates: Vec<f64>,
}

/// Counter (not itself reported) of arrivals the service processed per
/// round, the denominator of `service.host_us_per_arrival`.
pub const ARRIVALS: &str = "service.arrivals";

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order. A layer the workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("training.busy_s", "s"),
    ("scheduler.calls", "count"),
    ("scheduler.busy_s", "s"),
    ("scheduler.call_ms_p50", "ms"),
    ("scheduler.call_ms_p99", "ms"),
    ("scheduler.pairwise.busy_s", "s"),
    ("scheduler.quasar.busy_s", "s"),
    ("scheduler.moe.busy_s", "s"),
    ("scheduler.oracle.busy_s", "s"),
    ("scheduler.sim_events", "count"),
    ("scheduler.host_us_per_event", "us"),
    ("scheduler.oom_kills", "count"),
    ("service.calls", "count"),
    ("service.busy_s", "s"),
    ("service.call_ms_p50", "ms"),
    ("service.call_ms_p99", "ms"),
    ("service.controlled.busy_s", "s"),
    ("service.self_healing.busy_s", "s"),
    ("service.plain.busy_s", "s"),
    ("service.host_us_per_arrival", "us"),
    ("service.deferrals", "count"),
    ("service.breaker_trips", "count"),
    ("service.abstain_placements", "count"),
    ("service.max_queue_depth", "count"),
    ("service.mean_queue_depth", "count"),
    ("service.faults_delivered", "count"),
    ("service.retries", "count"),
    ("service.quarantines", "count"),
    ("service.audit_violations", "count"),
    ("harness.baselines.busy_s", "s"),
    ("harness.baselines.hit_ratio", "ratio"),
    ("predictors.table.hit_ratio", "ratio"),
    ("predictors.table.entries", "count"),
    ("serving.artifact_bytes", "bytes"),
    ("serving.artifact.roundtrip_s", "s"),
    ("serving.select_batch.calls", "count"),
    ("serving.select_batch.busy_s", "s"),
    ("serving.select_batch.batch_us_p50", "us"),
    ("serving.select_batch.batch_us_p99", "us"),
    ("inputs.busy_s", "s"),
    ("trace.overhead_pct", "%"),
    ("stp", "ratio"),
    ("antt_reduction_pct", "%"),
    ("slowdown_p50", "ratio"),
    ("slowdown_p99", "ratio"),
    ("shed_pct", "%"),
    ("oom_kills", "count"),
];

/// Runs `workload` under `opts`.
///
/// # Errors
///
/// Returns a set-up failure; failures inside rounds are counted, not
/// returned.
pub fn run<W: Workload>(workload: &W, opts: &RunOptions) -> Result<RunResult, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut setup_secs = Vec::new();
    let state = timed_setup(workload, &mut tracer, opts.trace, &mut setup_secs)?;

    let mut result = RunResult {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        digest: 0,
        sim: Vec::new(),
        rounds: 0,
        failures: Vec::new(),
        round_rates: Vec::new(),
    };
    let mut first: Option<RoundReport> = None;
    // (items, busy seconds) of each untraced round.
    let mut plain = Vec::new();
    let mut traced_rounds: Vec<(usize, usize, RoundReport)> = Vec::new();
    let start = Instant::now();
    let mut round = 0u32;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let span_start = tracer.spans().len();
        let report = tracer.span(span::ROUND, "", (round, 0), |t| {
            workload.round(&state, round, t)
        });
        result.attempted += report.attempted;
        result.failed += report.failed;
        result.failures.extend(report.failures.iter().cloned());
        match &first {
            None => first = Some(report.clone()),
            Some(f) => {
                if f.digest != report.digest || f.sim != report.sim || f.counters != report.counters
                {
                    result.correct = false;
                    result.failures.push(format!(
                        "round {round} disagrees with round 0: digest {:#018x} vs {:#018x}",
                        report.digest, f.digest
                    ));
                }
            }
        }
        if traced {
            traced_rounds.push((span_start, tracer.spans().len(), report));
        } else {
            result
                .round_rates
                .push(ratio(report.items as f64, report.busy));
            plain.push((report.items, report.busy));
        }
        round += 1;
        // The other set-ups are spread over the timed phase, so a few
        // seconds of a faster or slower host cannot move their median.
        let due = 1.0 + f64::from(SETUP_REPS - 1) * (start.elapsed().as_secs_f64() / opts.seconds);
        while (setup_secs.len() as f64) < due.min(f64::from(SETUP_REPS)) {
            drop(timed_setup(
                workload,
                &mut tracer,
                opts.trace,
                &mut setup_secs,
            )?);
        }
    }
    while setup_secs.len() < SETUP_REPS as usize {
        drop(timed_setup(
            workload,
            &mut tracer,
            opts.trace,
            &mut setup_secs,
        )?);
    }
    tracer.set_enabled(false);
    let first = first.ok_or("no round ran")?;
    result.rounds = round;
    result.digest = first.digest;
    result.sim = first.sim.clone();
    result.correct &= result.failed == 0 && result.attempted > 0;
    let plain_rate = rate(&plain);

    if opts.trace {
        let traced: Vec<(u64, f64)> = traced_rounds
            .iter()
            .map(|(_, _, r)| (r.items, r.busy))
            .collect();
        let traced_rate = rate(&traced);
        let overhead_pct = (ratio(plain_rate, traced_rate) - 1.0) * 100.0;
        result.metrics = per_layer(tracer.spans(), &traced_rounds, overhead_pct);
        if let Some(path) = &opts.trace_path {
            tracer
                .write_jsonl(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    } else {
        result.metrics = vec![
            metric(END_TO_END[0].0, plain_rate, END_TO_END[0].1),
            metric(END_TO_END[1].0, median(&setup_secs), END_TO_END[1].1),
            metric(END_TO_END[2].0, peak_rss_mb(), END_TO_END[2].1),
        ];
    }
    Ok(result)
}

/// Runs and times one set-up; the state is dropped by the caller, outside
/// the timed interval.
fn timed_setup<W: Workload>(
    workload: &W,
    tracer: &mut Tracer,
    trace: bool,
    secs: &mut Vec<f64>,
) -> Result<W::State, String> {
    tracer.set_enabled(trace);
    let rep = u32::try_from(secs.len()).unwrap_or(u32::MAX);
    let t0 = Instant::now();
    let state = tracer.span(span::SETUP, "", (rep, 0), |t| workload.setup(t))?;
    secs.push(t0.elapsed().as_secs_f64());
    Ok(state)
}

/// Items per second of call time over `rounds` of (items, busy seconds).
fn rate(rounds: &[(u64, f64)]) -> f64 {
    let items: u64 = rounds.iter().map(|r| r.0).sum();
    ratio(items as f64, rounds.iter().map(|r| r.1).sum())
}

/// Per-round sums of span durations for spans matching `name` (and `tag`
/// when given), with the per-round call counts and every call's duration.
fn fold_spans(
    spans: &[Span],
    rounds: &[(usize, usize, RoundReport)],
    name: &str,
    tag: Option<&str>,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut busy, mut calls, mut each) = (Vec::new(), Vec::new(), Vec::new());
    for &(lo, hi, _) in rounds {
        let (mut sum, mut n) = (0.0, 0.0);
        for s in &spans[lo..hi] {
            if s.name == name && tag.is_none_or(|t| s.tag == t) {
                sum += s.secs();
                n += 1.0;
                each.push(s.secs());
            }
        }
        busy.push(sum);
        calls.push(n);
    }
    (busy, calls, each)
}

/// Median over set-up repetitions of the time spent in spans `name`,
/// which only set-up opens. Spans close before their parent, so each
/// repetition's children come just before its own `setup` span.
fn setup_busy(spans: &[Span], name: &str) -> f64 {
    let mut per_rep = Vec::new();
    let mut acc = 0.0;
    for s in spans {
        if s.name == name {
            acc += s.secs();
        }
        if s.name == span::SETUP {
            per_rep.push(acc);
            acc = 0.0;
        }
    }
    median(&per_rep)
}

fn per_layer(
    spans: &[Span],
    rounds: &[(usize, usize, RoundReport)],
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut v: HashMap<String, f64> = HashMap::new();
    if let Some((_, _, report)) = rounds.first() {
        for m in report.counters.iter().chain(&report.sim) {
            v.insert(m.name.to_string(), m.value);
        }
    }
    v.insert("training.busy_s".into(), setup_busy(spans, span::TRAINING));
    v.insert("inputs.busy_s".into(), setup_busy(spans, span::INPUTS));
    v.insert(
        "serving.artifact.roundtrip_s".into(),
        setup_busy(spans, span::ARTIFACT),
    );
    v.insert("trace.overhead_pct".into(), overhead_pct);

    for (layer, name, scale, p50, p99) in [
        (
            "scheduler",
            span::SCHEDULE,
            1e3,
            "call_ms_p50",
            "call_ms_p99",
        ),
        ("service", span::SERVICE, 1e3, "call_ms_p50", "call_ms_p99"),
        (
            "serving.select_batch",
            span::SELECT_BATCH,
            1e6,
            "batch_us_p50",
            "batch_us_p99",
        ),
    ] {
        let (busy, calls, each) = fold_spans(spans, rounds, name, None);
        v.insert(format!("{layer}.busy_s"), median(&busy));
        v.insert(format!("{layer}.calls"), median(&calls));
        v.insert(format!("{layer}.{p50}"), percentile(&each, 50.0) * scale);
        v.insert(format!("{layer}.{p99}"), percentile(&each, 99.0) * scale);
    }
    let busy = |name, tag| median(&fold_spans(spans, rounds, name, Some(tag)).0);
    for policy in ["pairwise", "quasar", "moe", "oracle"] {
        v.insert(
            format!("scheduler.{policy}.busy_s"),
            busy(span::SCHEDULE, policy),
        );
    }
    for entry in ["controlled", "self_healing", "plain"] {
        v.insert(
            format!("service.{entry}.busy_s"),
            busy(span::SERVICE, entry),
        );
    }
    let baselines = median(&fold_spans(spans, rounds, span::BASELINES, None).0);
    v.insert("harness.baselines.busy_s".into(), baselines);
    let get = |v: &HashMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let per_event = ratio(
        get(&v, "scheduler.busy_s") * 1e6,
        get(&v, "scheduler.sim_events"),
    );
    v.insert("scheduler.host_us_per_event".into(), per_event);
    let per_arrival = ratio(get(&v, "service.busy_s") * 1e6, get(&v, ARRIVALS));
    v.insert("service.host_us_per_arrival".into(), per_arrival);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, get(&v, name), unit))
        .collect()
}
