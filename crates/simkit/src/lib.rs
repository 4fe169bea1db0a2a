//! # simkit — deterministic discrete-event simulation substrate
//!
//! `simkit` is the substrate beneath the Spark-co-location reproduction: the
//! clock, randomness, pre-drawn schedules and statistics that the
//! discrete-event simulation (DES) in `sparklite` and `colocate` is built
//! from:
//!
//! * a virtual clock measured in seconds ([`SimTime`] / [`SimDuration`]),
//! * a seedable random-number layer ([`rng::SimRng`]) with the distributions
//!   the workload models need (uniform, normal, log-normal, exponential),
//! * capacity-checked [`resource::ResourcePool`]s for modeling RAM, swap and
//!   CPU shares,
//! * a deterministic fault-injection layer ([`faults::FaultPlan`]): seeded,
//!   replayable chaos schedules (node crashes, executor crashes, monitor
//!   dropouts, prediction noise, spot-instance preemptions) drawn entirely
//!   up front so chaos campaigns stay bit-for-bit identical across worker
//!   counts,
//! * a deterministic open-system arrival layer ([`arrivals::ArrivalPlan`]):
//!   seeded, pre-drawn job-arrival schedules (Poisson, bursty/diurnal,
//!   trace-driven) in the same pre-drawn style, so streaming campaigns are
//!   schedule- and worker-count-independent,
//! * a chaos-search layer ([`chaoskit`]): randomized-but-deterministic
//!   [`chaoskit::Episode`]s drawn from an [`chaoskit::EpisodeSpace`], plus
//!   delta-debugging [`chaoskit::shrink`]ing that reduces an
//!   invariant-violating episode to a minimal reproducer replayable from a
//!   single `(seed, episode)` pair,
//! * a crash-safe persistence layer ([`journal`]): append-only, checksummed
//!   record logs with atomic header creation, torn-tail recovery and
//!   deterministic kill-point injection, used by the campaign harness to
//!   checkpoint completed replay folds so interrupted sweeps resume
//!   bit-for-bit, and
//! * online statistics ([`stats`]) — Welford moments, histograms,
//!   percentiles, confidence intervals and time-weighted gauges — used by the
//!   experiment harness to decide when the 95 % confidence half-width has
//!   shrunk below 5 % of the mean (the paper's stopping rule, §5.2).
//!
//! There is no event queue: the cluster engine jumps straight to its next
//! completion, and the dispatcher loop merges that with the next pre-drawn
//! arrival or fault. Each simulation is single-threaded: determinism and
//! replayability matter more than wall-clock speed for scheduling studies,
//! and a full 40-node, 30-application campaign simulates in milliseconds.
//! The only parallelism is across simulations: [`par::par_map_indexed`]
//! fans statistically independent replays out across scoped worker threads
//! and commits their results in index order, so a multi-core campaign is
//! bit-for-bit identical to the serial one.
//!
//! ## Example
//!
//! ```
//! use simkit::{SimDuration, SimRng, SimTime};
//!
//! // A next-event loop in miniature: the clock jumps from one pre-drawn
//! // arrival to the next, and a seed replays the same schedule.
//! let draw = |seed| {
//!     let mut rng = SimRng::seed_from(seed);
//!     let mut now = SimTime::ZERO;
//!     (0..4)
//!         .map(|_| {
//!             now += SimDuration::from_secs(rng.exponential(0.5));
//!             now
//!         })
//!         .collect::<Vec<_>>()
//! };
//! let times = draw(7);
//! assert!(times.windows(2).all(|w| w[0] <= w[1]));
//! assert_eq!(times, draw(7));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod chaoskit;
pub mod faults;
pub mod journal;
pub mod par;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use arrivals::{
    ArrivalCursor, ArrivalError, ArrivalEvent, ArrivalPlan, ArrivalPlanConfig, ArrivalProcess,
};
pub use chaoskit::{Episode, EpisodeSpace, ShrinkResult, Violation};
pub use faults::{FaultCursor, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use resource::{ResourceError, ResourcePool};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
