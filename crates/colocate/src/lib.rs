//! # colocate — the memory-aware co-location runtime and evaluation harness
//!
//! This crate assembles the paper's runtime system (§4) on top of the
//! `sparklite` substrate and the `moe-core` predictor, together with every
//! comparative scheme of the evaluation (§5.4, §6):
//!
//! * [`profiling`] — the runtime profiling pipeline: a ~100 MB feature
//!   extraction run on the coordinating node plus two calibration runs on
//!   5 % / 10 % of the expected executor slice; both contribute processed
//!   data to the job so "no computing cycle is wasted" (§2.3);
//! * [`predictors`] — the memory predictors under test: the paper's
//!   mixture-of-experts ([`predictors::MoePolicy`]), the [`predictors::Oracle`],
//!   unified single-family models, a unified ANN regressor (Fig. 9), and a
//!   Quasar-style nearest-historical-workload estimator (§5.4);
//! * [`training`] — the offline phase (Fig. 2): profile the 16 training
//!   benchmarks, fit each one's memory function, learn the expert selector;
//!   includes the leave-one-out plumbing of §5.2;
//! * [`scheduler`] — the job dispatcher (§4.3) and the comparative
//!   policies: Isolated, Pairwise, Online-Search and the predictive
//!   co-locator, plus the closed-system entry points that run a mix
//!   through the service's event loop as a batch arrival plan;
//! * [`metrics`] — STP and ANTT (Eyerman–Eeckhout definitions, §5.3),
//!   their normalisation against the isolated baseline, and NaN-safe
//!   percentile helpers for tail metrics;
//! * [`service`] — the dispatcher's one event loop and the open-system
//!   streaming mode: jobs land over simulated time from a pre-drawn
//!   [`simkit::arrivals::ArrivalPlan`], pass a memory-footprint-gated
//!   admission queue with per-tenant weighted fair queueing, and
//!   overload is met with load shedding, backpressure and a circuit
//!   breaker that degrades to isolated scheduling;
//! * [`harness`] — campaign runners: replay a mix until the 95 % CI
//!   half-width is below 5 % (§5.2), produce utilisation traces (Fig. 7),
//!   overhead breakdowns (Figs. 11/12) and interference studies
//!   (Figs. 14/15);
//! * [`invariants`] — the chaos-search battery: runs a
//!   [`simkit::chaoskit`] episode through the service, as the closed
//!   system (a batch plan) or open, and checks the contracts every run must honour (job conservation,
//!   committed-GB accounting, WFQ ordering, breaker liveness, quarantine
//!   finiteness), shrinking any violation to a minimal reproducer.
//!
//! ```no_run
//! use colocate::harness::{run_policy, RunConfig};
//! use colocate::scheduler::PolicyKind;
//! use workloads::{Catalog, MixScenario};
//! use simkit::SimRng;
//!
//! let catalog = Catalog::paper();
//! let mut rng = SimRng::seed_from(1);
//! let mix = MixScenario::TABLE3[1].random_mix(&catalog, &mut rng);
//! let outcome = run_policy(PolicyKind::Moe, &catalog, &mix, &RunConfig::default(), 1).unwrap();
//! println!("makespan: {:.1} min", outcome.makespan_secs / 60.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod harness;
pub mod interference;
pub mod invariants;
pub mod metrics;
pub mod predictors;
pub mod profiling;
pub mod scheduler;
pub mod service;
pub mod serving;
pub mod training;

use std::fmt;

/// Errors raised by the co-location runtime.
#[derive(Debug)]
pub enum ColocateError {
    /// The underlying substrate failed.
    Substrate(sparklite::SparkliteError),
    /// The predictor failed.
    Predictor(moe_core::MoeError),
    /// An mlkit model failed.
    Ml(mlkit::MlError),
    /// Invalid experiment configuration.
    Config(String),
    /// Checkpoint journal persistence failed (or a kill point fired).
    Checkpoint(simkit::journal::JournalError),
}

impl fmt::Display for ColocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColocateError::Substrate(e) => write!(f, "substrate error: {e}"),
            ColocateError::Predictor(e) => write!(f, "predictor error: {e}"),
            ColocateError::Ml(e) => write!(f, "ml error: {e}"),
            ColocateError::Config(msg) => write!(f, "configuration error: {msg}"),
            ColocateError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for ColocateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColocateError::Substrate(e) => Some(e),
            ColocateError::Predictor(e) => Some(e),
            ColocateError::Ml(e) => Some(e),
            ColocateError::Config(_) => None,
            ColocateError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<sparklite::SparkliteError> for ColocateError {
    fn from(e: sparklite::SparkliteError) -> Self {
        ColocateError::Substrate(e)
    }
}

impl From<moe_core::MoeError> for ColocateError {
    fn from(e: moe_core::MoeError) -> Self {
        ColocateError::Predictor(e)
    }
}

impl From<mlkit::MlError> for ColocateError {
    fn from(e: mlkit::MlError) -> Self {
        ColocateError::Ml(e)
    }
}

impl From<simkit::journal::JournalError> for ColocateError {
    fn from(e: simkit::journal::JournalError) -> Self {
        ColocateError::Checkpoint(e)
    }
}
