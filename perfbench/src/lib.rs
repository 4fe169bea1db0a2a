//! # perfbench — the repository benchmark
//!
//! Three seeded workloads, each run in its own process by `run.py`:
//!
//! * [`table3`] — the Fig. 6 campaign: Table 3 mixes under the Pairwise,
//!   Quasar, MoE and Oracle roster, closed loop, batch arrivals;
//! * [`storm`] — the Fig. 21 storm: open-loop arrivals at 3× load on the
//!   2-node slice under a full-intensity fault storm;
//! * [`firehose`] — the Fig. 23 firehose: seeded signatures streamed
//!   through `MoePredictor::select_batch` at batch 256.
//!
//! Every workload runs the same way (see [`runner`]): set up several
//! times and keep the median, then repeat identical rounds over the
//! generated inputs until the time budget is spent. Each round checks
//! every outcome ([`checks`]) and folds the simulated results into a
//! digest ([`digest`]) that must repeat bit for bit. A traced run wraps
//! every call the benchmark makes into the program in a span
//! ([`trace`]); the per-layer table is a fold over those spans.

#![warn(missing_docs)]

pub mod checks;
pub mod digest;
pub mod firehose;
pub mod metrics;
pub mod runner;
pub mod storm;
pub mod table3;
pub mod trace;

/// Seed of the offline training every workload deploys (Fig. 6's base
/// seed). The trained model is the system under test, not an input: the
/// workload seed draws only the inputs — mixes, arrival and fault plans,
/// signatures — so two seeds measure the same program on different
/// inputs.
pub const MODEL_SEED: u64 = 42;
