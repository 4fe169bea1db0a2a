//! Deterministic open-system arrival processes: seeded, pre-drawn plans.
//!
//! An [`ArrivalPlan`] is the open-system twin of
//! [`FaultPlan`](crate::faults::FaultPlan): a pre-drawn, time-sorted list
//! of job arrivals derived entirely from a `(seed, config)` pair. The
//! same pair always yields the same plan, bit for bit, regardless of how
//! the consuming scheduler is configured or how many worker threads later
//! replay it. Drawing the whole arrival stream up front — instead of
//! sampling inter-arrival gaps while the simulation runs — is what keeps
//! open-system campaigns schedule-independent: admission control, load
//! shedding and backpressure all change *when jobs start*, never *when
//! jobs arrive*.
//!
//! Three processes cover the regimes a multi-tenant scheduler faces:
//!
//! * **Poisson** — memoryless arrivals at a constant rate, the classic
//!   open-system baseline;
//! * **bursty / diurnal** — a sinusoidally modulated rate between a base
//!   and a peak (one period ≈ one "day"), realised by thinning a Poisson
//!   stream drawn at the peak rate, so bursts are part of the plan rather
//!   than emergent;
//! * **trace-driven** — explicit `(time, tenant, class)` triples replayed
//!   verbatim ([`ArrivalPlan::from_trace`]).
//!
//! Each arrival also carries a *tenant* index (for weighted fair queueing
//! downstream) and a *job class* index (an opaque handle the consumer maps
//! to a concrete workload — this crate stays agnostic of any catalog).

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Why a trace was rejected by [`ArrivalPlan::try_from_trace`].
///
/// A broken trace — a NaN timestamp, a negative arrival time, or events
/// out of order — would otherwise flow silently into an [`ArrivalPlan`]
/// and surface much later as a wedged or nonsensical campaign; the typed
/// error pins the bad input at the boundary instead.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalError {
    /// An event's timestamp is NaN (event index given).
    NanTimestamp(usize),
    /// An event's timestamp is negative or non-finite (event index and
    /// offending value given).
    NegativeTimestamp(usize, f64),
    /// An event lands before its predecessor (index of the later event,
    /// its timestamp, and the predecessor's timestamp).
    NonMonotonic(usize, f64, f64),
    /// The horizon is NaN, non-finite, or negative.
    BadHorizon(f64),
    /// An event lands at or beyond the stated horizon (event index and
    /// timestamp given).
    BeyondHorizon(usize, f64),
}

impl std::fmt::Display for ArrivalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ArrivalError::NanTimestamp(i) => {
                write!(f, "trace event {i} has a NaN timestamp")
            }
            ArrivalError::NegativeTimestamp(i, t) => {
                write!(
                    f,
                    "trace event {i} has a negative or non-finite timestamp {t}"
                )
            }
            ArrivalError::NonMonotonic(i, t, prev) => write!(
                f,
                "trace event {i} at t={t} lands before its predecessor at t={prev}"
            ),
            ArrivalError::BadHorizon(h) => {
                write!(f, "trace horizon {h} is not a finite non-negative number")
            }
            ArrivalError::BeyondHorizon(i, t) => {
                write!(f, "trace event {i} at t={t} lands at or beyond the horizon")
            }
        }
    }
}

impl std::error::Error for ArrivalError {}

/// The stochastic process arrivals are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Constant-rate memoryless arrivals.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Diurnal modulation: the instantaneous rate swings sinusoidally
    /// between `base_rate_per_sec` and `peak_rate_per_sec` with the given
    /// period, realised by thinning a peak-rate Poisson stream.
    Bursty {
        /// Trough arrival rate, per second.
        base_rate_per_sec: f64,
        /// Crest arrival rate, per second (must be ≥ the base rate).
        peak_rate_per_sec: f64,
        /// Length of one modulation cycle, seconds.
        period_secs: f64,
    },
}

/// Shape of an arrival campaign: the process, its horizon, and how many
/// tenants / job classes arrivals are spread across.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalPlanConfig {
    /// The arrival process.
    pub process: ArrivalProcess,
    /// Arrivals are drawn in `[0, horizon_secs)`.
    pub horizon_secs: f64,
    /// Number of tenants arrivals are attributed to (uniformly).
    pub tenants: usize,
    /// Number of job classes arrivals are drawn from (uniformly). The
    /// consumer maps a class index to a concrete workload.
    pub job_classes: usize,
    /// Hard cap on the number of arrivals (0 = unbounded): lets capped
    /// smoke runs reuse a production config without shortening the
    /// horizon's rate profile.
    pub max_jobs: usize,
}

impl Default for ArrivalPlanConfig {
    fn default() -> Self {
        ArrivalPlanConfig {
            process: ArrivalProcess::Poisson { rate_per_sec: 0.0 },
            horizon_secs: 3_600.0,
            tenants: 1,
            job_classes: 1,
            max_jobs: 0,
        }
    }
}

/// One planned job arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Simulated time the job lands, seconds.
    pub at_secs: f64,
    /// Tenant the job belongs to.
    pub tenant: usize,
    /// Opaque job-class index (consumer-defined meaning).
    pub job_class: usize,
}

/// A seeded, replayable schedule of job arrivals, sorted by time.
///
/// # Examples
///
/// ```
/// use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
///
/// let cfg = ArrivalPlanConfig {
///     process: ArrivalProcess::Poisson { rate_per_sec: 0.01 },
///     horizon_secs: 10_000.0,
///     tenants: 3,
///     job_classes: 8,
///     ..Default::default()
/// };
/// let a = ArrivalPlan::generate(7, &cfg);
/// let b = ArrivalPlan::generate(7, &cfg);
/// assert_eq!(a.events(), b.events(), "same seed, same plan");
/// assert!(!a.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArrivalPlan {
    events: Vec<ArrivalEvent>,
    horizon_secs: f64,
}

impl ArrivalPlan {
    /// An empty plan (a closed system: nothing ever arrives).
    #[must_use]
    pub fn none() -> Self {
        ArrivalPlan::default()
    }

    /// Draws a plan deterministically from `seed` and `config`.
    ///
    /// Poisson streams accumulate exponential inter-arrival gaps; bursty
    /// streams draw candidates at the peak rate and keep each with
    /// probability `rate(t) / peak` (thinning), which realises the exact
    /// inhomogeneous process without any time-stepping. Tenant and class
    /// are drawn per kept arrival. Events come out time-sorted by
    /// construction, so the plan — and everything downstream of it — is
    /// bit-for-bit reproducible.
    ///
    /// # Panics
    ///
    /// Panics on negative rates, a bursty peak below its base, or a
    /// non-positive horizon/period.
    #[must_use]
    pub fn generate(seed: u64, config: &ArrivalPlanConfig) -> Self {
        assert!(
            config.horizon_secs > 0.0 && config.horizon_secs.is_finite(),
            "arrival horizon must be positive and finite"
        );
        assert!(config.tenants > 0, "need at least one tenant");
        assert!(config.job_classes > 0, "need at least one job class");
        let mut rng = SimRng::seed_from(seed ^ 0xA441_7A15_5EED_0000);
        let mut events = Vec::new();
        let cap = if config.max_jobs == 0 {
            usize::MAX
        } else {
            config.max_jobs
        };

        let envelope_rate = match config.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                assert!(
                    rate_per_sec >= 0.0 && rate_per_sec.is_finite(),
                    "arrival rate must be a finite non-negative number"
                );
                rate_per_sec
            }
            ArrivalProcess::Bursty {
                base_rate_per_sec,
                peak_rate_per_sec,
                period_secs,
            } => {
                assert!(
                    base_rate_per_sec >= 0.0 && base_rate_per_sec.is_finite(),
                    "base rate must be a finite non-negative number"
                );
                assert!(
                    peak_rate_per_sec >= base_rate_per_sec && peak_rate_per_sec.is_finite(),
                    "peak rate must be finite and >= the base rate"
                );
                assert!(period_secs > 0.0, "diurnal period must be positive");
                peak_rate_per_sec
            }
        };
        if envelope_rate == 0.0 {
            return ArrivalPlan {
                events,
                horizon_secs: config.horizon_secs,
            };
        }

        let mut t = 0.0f64;
        while events.len() < cap {
            t += rng.exponential(envelope_rate);
            if t >= config.horizon_secs {
                break;
            }
            let keep = match config.process {
                ArrivalProcess::Poisson { .. } => true,
                ArrivalProcess::Bursty {
                    base_rate_per_sec,
                    peak_rate_per_sec,
                    period_secs,
                } => {
                    // Sinusoid between base and peak, crest at mid-period.
                    let phase = (t / period_secs) * std::f64::consts::TAU;
                    let rate = base_rate_per_sec
                        + (peak_rate_per_sec - base_rate_per_sec) * 0.5 * (1.0 - phase.cos());
                    rng.unit() < rate / peak_rate_per_sec
                }
            };
            if !keep {
                continue;
            }
            events.push(ArrivalEvent {
                at_secs: t,
                tenant: rng.uniform_usize(0, config.tenants - 1),
                job_class: rng.uniform_usize(0, config.job_classes - 1),
            });
        }
        ArrivalPlan {
            events,
            horizon_secs: config.horizon_secs,
        }
    }

    /// A trace-driven plan: the given events replayed verbatim (stably
    /// sorted by time, so same-instant arrivals keep trace order).
    ///
    /// Accepts the trace as-is; use [`ArrivalPlan::try_from_trace`] when
    /// the trace comes from outside (a file, a fuzzer, a shrunk episode)
    /// and malformed timestamps must be rejected rather than sorted into
    /// something that merely *looks* valid.
    #[must_use]
    pub fn from_trace(mut events: Vec<ArrivalEvent>, horizon_secs: f64) -> Self {
        events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        ArrivalPlan {
            events,
            horizon_secs,
        }
    }

    /// A validated trace-driven plan: rejects NaN, negative, non-finite,
    /// out-of-order, or beyond-horizon timestamps with a typed
    /// [`ArrivalError`] instead of silently producing a broken plan.
    ///
    /// Unlike [`ArrivalPlan::from_trace`] this does *not* sort: a
    /// non-monotonic trace is evidence of a corrupted input, and sorting
    /// would paper over it. A `horizon_secs` of `0.0` is accepted only
    /// when every event lands at `t = 0` (a batch-style trace); any other
    /// event at or beyond the horizon is rejected via
    /// [`ArrivalError::BeyondHorizon`].
    pub fn try_from_trace(
        events: Vec<ArrivalEvent>,
        horizon_secs: f64,
    ) -> Result<Self, ArrivalError> {
        if !horizon_secs.is_finite() || horizon_secs < 0.0 {
            return Err(ArrivalError::BadHorizon(horizon_secs));
        }
        let mut prev = 0.0f64;
        for (i, e) in events.iter().enumerate() {
            if e.at_secs.is_nan() {
                return Err(ArrivalError::NanTimestamp(i));
            }
            if e.at_secs < 0.0 || !e.at_secs.is_finite() {
                return Err(ArrivalError::NegativeTimestamp(i, e.at_secs));
            }
            if e.at_secs < prev {
                return Err(ArrivalError::NonMonotonic(i, e.at_secs, prev));
            }
            // A zero horizon means "batch at t=0": only t=0 events fit.
            if e.at_secs >= horizon_secs && !(horizon_secs == 0.0 && e.at_secs == 0.0) {
                return Err(ArrivalError::BeyondHorizon(i, e.at_secs));
            }
            prev = e.at_secs;
        }
        Ok(ArrivalPlan {
            events,
            horizon_secs,
        })
    }

    /// A degenerate "batch" plan: every job lands at `t = 0`, in order.
    /// With admission control disabled this reproduces the closed-system
    /// batch path exactly — the identity the open-system invariant tests
    /// pin.
    #[must_use]
    pub fn batch(jobs: &[(usize, usize)]) -> Self {
        ArrivalPlan {
            events: jobs
                .iter()
                .map(|&(tenant, job_class)| ArrivalEvent {
                    at_secs: 0.0,
                    tenant,
                    job_class,
                })
                .collect(),
            horizon_secs: 0.0,
        }
    }

    /// The planned arrivals in time order.
    #[must_use]
    pub fn events(&self) -> &[ArrivalEvent] {
        &self.events
    }

    /// Whether nothing ever arrives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned arrivals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The horizon the plan was drawn over, seconds.
    #[must_use]
    pub fn horizon_secs(&self) -> f64 {
        self.horizon_secs
    }

    /// A cursor over the plan for consumption during a replay.
    #[must_use]
    pub fn cursor(&self) -> ArrivalCursor<'_> {
        ArrivalCursor {
            events: &self.events,
            next: 0,
        }
    }
}

/// Consumes an [`ArrivalPlan`] front to back during a simulation.
#[derive(Debug, Clone)]
pub struct ArrivalCursor<'a> {
    events: &'a [ArrivalEvent],
    next: usize,
}

impl<'a> ArrivalCursor<'a> {
    /// Arrival time of the next undelivered job, if any.
    #[must_use]
    pub fn next_at(&self) -> Option<f64> {
        self.events.get(self.next).map(|e| e.at_secs)
    }

    /// Pops the next arrival if it is due at or before `now_secs`.
    pub fn pop_due(&mut self, now_secs: f64) -> Option<&'a ArrivalEvent> {
        let event = self.events.get(self.next)?;
        if event.at_secs <= now_secs {
            self.next += 1;
            Some(event)
        } else {
            None
        }
    }

    /// Number of arrivals not yet delivered.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_cfg(rate: f64) -> ArrivalPlanConfig {
        ArrivalPlanConfig {
            process: ArrivalProcess::Poisson { rate_per_sec: rate },
            horizon_secs: 100_000.0,
            tenants: 4,
            job_classes: 10,
            max_jobs: 0,
        }
    }

    #[test]
    fn zero_rate_is_empty() {
        let plan = ArrivalPlan::generate(1, &poisson_cfg(0.0));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.cursor().next_at(), None);
    }

    #[test]
    fn same_seed_same_plan_bitwise() {
        let a = ArrivalPlan::generate(9, &poisson_cfg(0.01));
        let b = ArrivalPlan::generate(9, &poisson_cfg(0.01));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at_secs.to_bits(), y.at_secs.to_bits());
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.job_class, y.job_class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ArrivalPlan::generate(1, &poisson_cfg(0.01));
        let b = ArrivalPlan::generate(2, &poisson_cfg(0.01));
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let plan = ArrivalPlan::generate(3, &poisson_cfg(0.02));
        let realized = plan.len() as f64 / plan.horizon_secs();
        assert!(
            (realized - 0.02).abs() < 0.004,
            "realized rate {realized} far from 0.02"
        );
        let mut last = 0.0;
        for e in plan.events() {
            assert!(e.at_secs >= last, "arrivals must be time-sorted");
            assert!(e.at_secs < 100_000.0);
            assert!(e.tenant < 4);
            assert!(e.job_class < 10);
            last = e.at_secs;
        }
    }

    #[test]
    fn bursty_thinning_stays_between_base_and_peak() {
        let cfg = ArrivalPlanConfig {
            process: ArrivalProcess::Bursty {
                base_rate_per_sec: 0.002,
                peak_rate_per_sec: 0.02,
                period_secs: 20_000.0,
            },
            ..poisson_cfg(0.0)
        };
        let plan = ArrivalPlan::generate(5, &cfg);
        let realized = plan.len() as f64 / plan.horizon_secs();
        // Mean of the sinusoid is (base + peak) / 2 = 0.011.
        assert!(realized > 0.002 && realized < 0.02, "realized {realized}");
        // Crest halves (mid-period) should be denser than trough halves.
        let period = 20_000.0;
        let (mut crest, mut trough) = (0usize, 0usize);
        for e in plan.events() {
            let phase = (e.at_secs / period).fract();
            if (0.25..0.75).contains(&phase) {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(crest > trough, "crest {crest} vs trough {trough}");
    }

    #[test]
    fn max_jobs_caps_the_plan() {
        let cfg = ArrivalPlanConfig {
            max_jobs: 7,
            ..poisson_cfg(0.05)
        };
        let plan = ArrivalPlan::generate(11, &cfg);
        assert_eq!(plan.len(), 7);
        // The capped plan is a prefix of the uncapped one.
        let full = ArrivalPlan::generate(11, &poisson_cfg(0.05));
        assert_eq!(plan.events(), &full.events()[..7]);
    }

    #[test]
    fn trace_plans_sort_stably() {
        let plan = ArrivalPlan::from_trace(
            vec![
                ArrivalEvent {
                    at_secs: 5.0,
                    tenant: 0,
                    job_class: 1,
                },
                ArrivalEvent {
                    at_secs: 1.0,
                    tenant: 1,
                    job_class: 2,
                },
                ArrivalEvent {
                    at_secs: 5.0,
                    tenant: 2,
                    job_class: 3,
                },
            ],
            10.0,
        );
        assert_eq!(plan.events()[0].tenant, 1);
        assert_eq!(plan.events()[1].tenant, 0, "ties keep trace order");
        assert_eq!(plan.events()[2].tenant, 2);
        assert_eq!(plan.horizon_secs(), 10.0);
    }

    #[test]
    fn batch_plans_land_everything_at_zero() {
        let plan = ArrivalPlan::batch(&[(0, 3), (1, 4)]);
        assert_eq!(plan.len(), 2);
        assert!(plan.events().iter().all(|e| e.at_secs == 0.0));
        assert_eq!(plan.events()[0].job_class, 3);
        assert_eq!(plan.events()[1].job_class, 4);
    }

    #[test]
    fn cursor_pops_in_order_and_respects_now() {
        let plan = ArrivalPlan::generate(5, &poisson_cfg(0.01));
        let mut cursor = plan.cursor();
        assert_eq!(cursor.remaining(), plan.len());
        let first_at = cursor.next_at().unwrap();
        assert!(cursor.pop_due(first_at - 1e-9).is_none());
        let e = cursor.pop_due(first_at).unwrap();
        assert_eq!(e.at_secs, first_at);
        let mut popped = 1;
        while cursor.pop_due(f64::INFINITY).is_some() {
            popped += 1;
        }
        assert_eq!(popped, plan.len());
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn negative_rate_panics() {
        let _ = ArrivalPlan::generate(1, &poisson_cfg(-0.5));
    }

    fn ev(at_secs: f64) -> ArrivalEvent {
        ArrivalEvent {
            at_secs,
            tenant: 0,
            job_class: 0,
        }
    }

    #[test]
    fn try_from_trace_accepts_a_clean_trace() {
        let plan = ArrivalPlan::try_from_trace(vec![ev(0.0), ev(1.0), ev(1.0), ev(2.5)], 10.0)
            .expect("clean trace");
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.horizon_secs(), 10.0);
        // A valid trace round-trips through the unchecked constructor.
        assert_eq!(plan, ArrivalPlan::from_trace(plan.events().to_vec(), 10.0));
    }

    #[test]
    fn try_from_trace_rejects_nan_timestamps() {
        let err = ArrivalPlan::try_from_trace(vec![ev(0.0), ev(f64::NAN)], 10.0).unwrap_err();
        assert_eq!(err, ArrivalError::NanTimestamp(1));
        assert!(err.to_string().contains("NaN"));
    }

    #[test]
    fn try_from_trace_rejects_negative_and_infinite_timestamps() {
        let err = ArrivalPlan::try_from_trace(vec![ev(-1.0)], 10.0).unwrap_err();
        assert_eq!(err, ArrivalError::NegativeTimestamp(0, -1.0));
        let err = ArrivalPlan::try_from_trace(vec![ev(0.0), ev(f64::INFINITY)], 10.0).unwrap_err();
        assert_eq!(err, ArrivalError::NegativeTimestamp(1, f64::INFINITY));
    }

    #[test]
    fn try_from_trace_rejects_non_monotonic_timestamps() {
        let err = ArrivalPlan::try_from_trace(vec![ev(2.0), ev(1.0)], 10.0).unwrap_err();
        assert_eq!(err, ArrivalError::NonMonotonic(1, 1.0, 2.0));
        assert!(err.to_string().contains("before its predecessor"));
    }

    #[test]
    fn try_from_trace_rejects_bad_horizons() {
        let err = ArrivalPlan::try_from_trace(vec![ev(0.0)], f64::NAN).unwrap_err();
        assert!(matches!(err, ArrivalError::BadHorizon(h) if h.is_nan()));
        let err = ArrivalPlan::try_from_trace(vec![ev(0.0)], -5.0).unwrap_err();
        assert_eq!(err, ArrivalError::BadHorizon(-5.0));
    }

    #[test]
    fn try_from_trace_rejects_events_beyond_the_horizon() {
        let err = ArrivalPlan::try_from_trace(vec![ev(0.0), ev(10.0)], 10.0).unwrap_err();
        assert_eq!(err, ArrivalError::BeyondHorizon(1, 10.0));
        // Zero horizon admits a batch-at-zero trace but nothing later.
        assert!(ArrivalPlan::try_from_trace(vec![ev(0.0), ev(0.0)], 0.0).is_ok());
        let err = ArrivalPlan::try_from_trace(vec![ev(0.5)], 0.0).unwrap_err();
        assert_eq!(err, ArrivalError::BeyondHorizon(0, 0.5));
    }

    #[test]
    fn try_from_trace_accepts_empty_traces() {
        let plan = ArrivalPlan::try_from_trace(Vec::new(), 100.0).expect("empty trace");
        assert!(plan.is_empty());
    }
}
