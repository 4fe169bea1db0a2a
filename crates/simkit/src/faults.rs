//! Deterministic fault injection: seeded, replayable chaos plans.
//!
//! A [`FaultPlan`] is a pre-drawn, time-sorted list of typed fault events
//! derived entirely from a `(seed, config)` pair: the same pair always
//! yields the same plan, bit for bit, regardless of how many worker
//! threads later replay it. Generating the whole plan up front (rather
//! than sampling faults during the run) is what keeps chaos campaigns
//! worker-count invariant — the simulation consumes faults from an
//! immutable schedule instead of an RNG that races with execution order.
//!
//! The fault taxonomy mirrors the failure modes the co-location paper
//! concedes in §2.3/§6 plus the operational ones any cluster scheduler
//! faces:
//!
//! * **node crashes** — every executor on the node is lost and the node
//!   stays offline for a drawn outage;
//! * **executor crash-restarts** — one executor dies and its work is
//!   re-queued (the owner restarts it through normal placement);
//! * **monitor dropouts** — a node's resource-monitor daemon goes silent,
//!   so sliding windows go *stale* rather than reading zero;
//! * **prediction noise** — a multiplicative perturbation of the memory
//!   footprint a predictor reports for one application, modelling the
//!   mispredicted apps of §6 (factors below 1 under-predict and invite
//!   paging/OOM; factors above 1 over-reserve and waste capacity);
//! * **spot preemptions** — a cloud provider revokes a node from the
//!   spot pool after a short warning lead time (the "two-minute notice").
//!   Unlike a crash, the warning arrives *before* the revocation, so a
//!   draining scheduler can stop placing onto the node and quarantine it
//!   instead of losing work cold. Spot preemptions are opt-in
//!   (`spot_rate` defaults to 0, and spot draws happen after every other
//!   kind), so existing plans stay bit-identical.
//!
//! Intensity 0 produces an empty plan, so a zero-intensity chaos run is
//! definitionally identical to a fault-free one.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// One kind of injected fault. Node and application references are plain
/// indices so the plan stays agnostic of any particular cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node loses all executors and refuses work for `outage_secs`.
    NodeCrash {
        /// Index of the crashed node.
        node: usize,
        /// How long the node stays offline, seconds.
        outage_secs: f64,
    },
    /// The youngest executor on the node (if any) crashes and must be
    /// restarted by its owner.
    ExecutorCrash {
        /// Index of the node whose executor crashes.
        node: usize,
    },
    /// The node's monitor daemon reports nothing for `duration_secs`; its
    /// sliding window drains and goes stale.
    MonitorDropout {
        /// Index of the silenced node.
        node: usize,
        /// How long reports are dropped, seconds.
        duration_secs: f64,
    },
    /// From the injection time onward, the named application's predicted
    /// footprints are multiplied by `factor`.
    PredictionNoise {
        /// Index of the perturbed application (submission order).
        app: usize,
        /// Multiplicative perturbation applied to reported footprints.
        factor: f64,
    },
    /// The cloud provider announces at the injection time that `node`
    /// will be revoked from the spot pool `warning_secs` later; the node
    /// then stays gone for `outage_secs` before rejoining.
    SpotPreemption {
        /// Index of the preempted node.
        node: usize,
        /// Lead time between the warning and the actual revocation,
        /// seconds (the classic cloud "two-minute notice").
        warning_secs: f64,
        /// How long the node stays revoked, seconds.
        outage_secs: f64,
    },
}

/// A typed fault with its deterministic injection time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulated time at which the fault strikes, seconds.
    pub at_secs: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Shape of a chaos campaign: how many faults of each kind to draw and
/// over what horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Overall fault intensity in `[0, 1]`: scales every per-kind count.
    /// Zero yields an empty plan.
    pub intensity: f64,
    /// Horizon over which injection times are drawn uniformly, seconds.
    pub horizon_secs: f64,
    /// Number of nodes faults may target.
    pub nodes: usize,
    /// Number of applications prediction-noise faults may target.
    pub apps: usize,
    /// Mean node outage (exponentially distributed), seconds.
    pub mean_outage_secs: f64,
    /// Mean monitor-dropout duration (exponentially distributed), seconds.
    pub mean_dropout_secs: f64,
    /// Log-scale standard deviation of the prediction-noise factor
    /// (`factor = exp(N(0, sd))`).
    pub noise_sd: f64,
    /// Spot-preemption count per node at full intensity (`scaled(spot_rate,
    /// nodes)` events). Defaults to 0 — spot faults are opt-in, and their
    /// draws happen after every other kind so enabling them never perturbs
    /// the events existing configs draw.
    pub spot_rate: f64,
    /// Warning lead time between a spot revocation notice and the
    /// revocation itself, seconds.
    pub spot_warning_secs: f64,
    /// Fraction of the horizon over which prediction-noise strike times
    /// are drawn. The historical default of `0.1` models a mis-calibrated
    /// model that is wrong from the start — right for closed systems where
    /// every job is present at `t = 0`. Open systems, where the cluster
    /// fills up over time, should widen this toward `1.0` so mispredictions
    /// can land mid-storm. The default keeps existing plans bit-identical:
    /// the same uniform draw is consumed, only its scale changes.
    pub noise_window_frac: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            intensity: 0.0,
            horizon_secs: 3_600.0,
            nodes: 1,
            apps: 1,
            mean_outage_secs: 300.0,
            mean_dropout_secs: 600.0,
            noise_sd: 0.35,
            spot_rate: 0.0,
            spot_warning_secs: 120.0,
            noise_window_frac: 0.1,
        }
    }
}

/// A seeded, replayable schedule of fault events, sorted by time.
///
/// # Examples
///
/// ```
/// use simkit::faults::{FaultPlan, FaultPlanConfig};
///
/// let cfg = FaultPlanConfig { intensity: 0.5, nodes: 8, apps: 4, ..Default::default() };
/// let a = FaultPlan::generate(7, &cfg);
/// let b = FaultPlan::generate(7, &cfg);
/// assert_eq!(a.events(), b.events(), "same seed, same plan");
/// assert!(FaultPlan::generate(7, &FaultPlanConfig::default()).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults; replays are identical to fault-free runs).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draws a plan deterministically from `seed` and `config`.
    ///
    /// Per-kind event counts scale with `intensity × nodes` (or `× apps`
    /// for prediction noise); times are uniform over the horizon; outage
    /// and dropout durations are exponential around their configured
    /// means. Events are sorted by injection time with generation order
    /// breaking ties, so the plan — and everything downstream of it — is
    /// bit-for-bit reproducible.
    ///
    /// # Panics
    ///
    /// Panics on a negative intensity or a non-positive horizon.
    #[must_use]
    pub fn generate(seed: u64, config: &FaultPlanConfig) -> Self {
        assert!(
            config.intensity >= 0.0 && config.intensity.is_finite(),
            "fault intensity must be a finite non-negative number"
        );
        assert!(config.horizon_secs > 0.0, "fault horizon must be positive");
        let mut rng = SimRng::seed_from(seed ^ 0xFA00_17ED_5EED_0000);
        if config.intensity == 0.0 || config.nodes == 0 {
            return FaultPlan::none();
        }
        assert!(
            (0.0..=1.0).contains(&config.noise_window_frac),
            "noise window fraction must lie in [0, 1]"
        );
        assert!(
            config.spot_rate >= 0.0 && config.spot_rate.is_finite(),
            "spot rate must be a finite non-negative number"
        );
        let scaled = |per_unit: f64, units: usize| -> usize {
            (config.intensity * per_unit * units as f64).round() as usize
        };
        let node_crashes = scaled(0.5, config.nodes);
        let exec_crashes = scaled(0.75, config.nodes);
        let dropouts = scaled(0.75, config.nodes);
        let noises = scaled(1.0, config.apps).min(config.apps.saturating_mul(2));
        let spots = scaled(config.spot_rate, config.nodes);
        // Every count is known up front, so the plan is allocated once.
        let mut events =
            Vec::with_capacity(node_crashes + exec_crashes + dropouts + noises + spots);

        for _ in 0..node_crashes {
            events.push(FaultEvent {
                at_secs: rng.uniform(0.0, config.horizon_secs),
                kind: FaultKind::NodeCrash {
                    node: rng.uniform_usize(0, config.nodes - 1),
                    outage_secs: rng.exponential(1.0 / config.mean_outage_secs.max(1e-9)),
                },
            });
        }
        for _ in 0..exec_crashes {
            events.push(FaultEvent {
                at_secs: rng.uniform(0.0, config.horizon_secs),
                kind: FaultKind::ExecutorCrash {
                    node: rng.uniform_usize(0, config.nodes - 1),
                },
            });
        }
        for _ in 0..dropouts {
            events.push(FaultEvent {
                at_secs: rng.uniform(0.0, config.horizon_secs),
                kind: FaultKind::MonitorDropout {
                    node: rng.uniform_usize(0, config.nodes - 1),
                    duration_secs: rng.exponential(1.0 / config.mean_dropout_secs.max(1e-9)),
                },
            });
        }
        for _ in 0..noises {
            events.push(FaultEvent {
                // Closed systems keep the historical window (first tenth of
                // the horizon: a mis-calibrated model is wrong from the
                // start); open systems widen it so mispredictions strike a
                // loaded cluster, not an empty one.
                at_secs: rng.uniform(0.0, config.horizon_secs * config.noise_window_frac),
                kind: FaultKind::PredictionNoise {
                    app: rng.uniform_usize(0, config.apps - 1),
                    factor: rng.log_normal(0.0, config.noise_sd).clamp(0.2, 5.0),
                },
            });
        }
        // Spot draws come LAST so that enabling them (spot_rate > 0) never
        // changes which values the draws above consume from the RNG stream:
        // a plan with spot_rate = 0 is bit-identical to one generated
        // before this fault kind existed.
        for _ in 0..spots {
            events.push(FaultEvent {
                // The *warning* lands inside the horizon; the revocation
                // follows warning_secs later.
                at_secs: rng.uniform(0.0, config.horizon_secs),
                kind: FaultKind::SpotPreemption {
                    node: rng.uniform_usize(0, config.nodes - 1),
                    warning_secs: config.spot_warning_secs.max(0.0),
                    outage_secs: rng.exponential(1.0 / config.mean_outage_secs.max(1e-9)),
                },
            });
        }
        // Stable sort: ties keep generation order, preserving determinism.
        events.sort_by(|a, b| a.at_secs.partial_cmp(&b.at_secs).expect("finite times"));
        FaultPlan { events }
    }

    /// A plan built from explicit events (stably sorted by time), for
    /// trace-driven chaos and targeted tests.
    #[must_use]
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
        FaultPlan { events }
    }

    /// The planned events in injection order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// A cursor over the plan for consumption during a replay.
    #[must_use]
    pub fn cursor(&self) -> FaultCursor<'_> {
        FaultCursor {
            events: &self.events,
            next: 0,
        }
    }
}

/// Consumes a [`FaultPlan`] front to back during a simulation.
#[derive(Debug, Clone)]
pub struct FaultCursor<'a> {
    events: &'a [FaultEvent],
    next: usize,
}

impl<'a> FaultCursor<'a> {
    /// Injection time of the next undelivered event, if any.
    #[must_use]
    pub fn next_at(&self) -> Option<f64> {
        self.events.get(self.next).map(|e| e.at_secs)
    }

    /// Pops the next event if it is due at or before `now_secs`.
    pub fn pop_due(&mut self, now_secs: f64) -> Option<&'a FaultEvent> {
        let event = self.events.get(self.next)?;
        if event.at_secs <= now_secs {
            self.next += 1;
            Some(event)
        } else {
            None
        }
    }

    /// Number of events not yet delivered.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(intensity: f64) -> FaultPlanConfig {
        FaultPlanConfig {
            intensity,
            horizon_secs: 1_000.0,
            nodes: 10,
            apps: 6,
            ..Default::default()
        }
    }

    #[test]
    fn zero_intensity_is_empty() {
        let plan = FaultPlan::generate(42, &cfg(0.0));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.cursor().next_at(), None);
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn same_seed_same_plan_bitwise() {
        let a = FaultPlan::generate(9, &cfg(0.7));
        let b = FaultPlan::generate(9, &cfg(0.7));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at_secs.to_bits(), y.at_secs.to_bits());
            assert_eq!(x.kind, y.kind);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, &cfg(0.7));
        let b = FaultPlan::generate(2, &cfg(0.7));
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_time_sorted_and_in_bounds() {
        let plan = FaultPlan::generate(3, &cfg(1.0));
        assert!(!plan.is_empty());
        let mut last = 0.0;
        for e in plan.events() {
            assert!(e.at_secs >= last, "events must be time-sorted");
            assert!(e.at_secs < 1_000.0);
            last = e.at_secs;
            match e.kind {
                FaultKind::NodeCrash { node, outage_secs } => {
                    assert!(node < 10);
                    assert!(outage_secs > 0.0);
                }
                FaultKind::ExecutorCrash { node } => assert!(node < 10),
                FaultKind::MonitorDropout {
                    node,
                    duration_secs,
                } => {
                    assert!(node < 10);
                    assert!(duration_secs > 0.0);
                }
                FaultKind::PredictionNoise { app, factor } => {
                    assert!(app < 6);
                    assert!((0.2..=5.0).contains(&factor));
                }
                FaultKind::SpotPreemption { .. } => {
                    unreachable!("spot_rate defaults to 0; no spot events expected")
                }
            }
        }
    }

    #[test]
    fn spot_rate_zero_plans_are_unchanged_by_the_new_kind() {
        // The canonical backward-compatibility pin: a default (spot-free)
        // config draws exactly the same events it always did.
        let plan = FaultPlan::generate(9, &cfg(0.7));
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::SpotPreemption { .. })));
    }

    #[test]
    fn spot_rate_appends_without_perturbing_existing_draws() {
        let base = FaultPlan::generate(9, &cfg(0.7));
        let spot = FaultPlan::generate(
            9,
            &FaultPlanConfig {
                spot_rate: 0.5,
                ..cfg(0.7)
            },
        );
        assert!(spot.len() > base.len());
        // Every non-spot event survives bitwise: spot draws come last.
        let non_spot: Vec<_> = spot
            .events()
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::SpotPreemption { .. }))
            .copied()
            .collect();
        assert_eq!(non_spot, base.events());
        for e in spot.events() {
            if let FaultKind::SpotPreemption {
                node,
                warning_secs,
                outage_secs,
            } = e.kind
            {
                assert!(node < 10);
                assert_eq!(warning_secs, 120.0);
                assert!(outage_secs > 0.0);
            }
        }
    }

    #[test]
    fn from_events_sorts_stably() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                at_secs: 10.0,
                kind: FaultKind::ExecutorCrash { node: 1 },
            },
            FaultEvent {
                at_secs: 2.0,
                kind: FaultKind::ExecutorCrash { node: 2 },
            },
            FaultEvent {
                at_secs: 10.0,
                kind: FaultKind::ExecutorCrash { node: 3 },
            },
        ]);
        let nodes: Vec<_> = plan
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::ExecutorCrash { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, [2, 1, 3], "ties keep insertion order");
    }

    #[test]
    fn intensity_scales_event_count() {
        let low = FaultPlan::generate(4, &cfg(0.1));
        let high = FaultPlan::generate(4, &cfg(0.9));
        assert!(high.len() > low.len());
    }

    #[test]
    fn cursor_pops_in_order_and_respects_now() {
        let plan = FaultPlan::generate(5, &cfg(0.8));
        let mut cursor = plan.cursor();
        assert_eq!(cursor.remaining(), plan.len());
        let first_at = cursor.next_at().unwrap();
        assert!(cursor.pop_due(first_at - 1e-9).is_none());
        let e = cursor.pop_due(first_at).unwrap();
        assert_eq!(e.at_secs, first_at);
        // Drain everything by the horizon.
        let mut popped = 1;
        while cursor.pop_due(1_000.0).is_some() {
            popped += 1;
        }
        assert_eq!(popped, plan.len());
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn negative_intensity_panics() {
        let _ = FaultPlan::generate(
            1,
            &FaultPlanConfig {
                intensity: -0.5,
                ..cfg(0.0)
            },
        );
    }
}
