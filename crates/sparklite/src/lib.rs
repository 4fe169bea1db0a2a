//! # sparklite — a Spark-like execution substrate for co-location studies
//!
//! The Middleware '17 paper evaluates its memory-aware co-location scheme on
//! a 40-node cluster running Apache Spark 2.1 under YARN. This crate is the
//! simulation substrate standing in for that testbed: it models exactly the
//! aspects of Spark the scheduler interacts with, and nothing more.
//!
//! * [`cluster`] — nodes with hardware threads, RAM and swap
//!   ([`cluster::ClusterSpec::paper_cluster`] reproduces the paper's
//!   8-core/16-thread Xeon, 64 GB RAM + 16 GB swap × 40 nodes);
//! * [`app`] — applications as divisible data-parallel loads: an input of
//!   so-many GB processed by executors at a per-executor rate, with a
//!   ground-truth memory curve (footprint vs. input slice, Table 1
//!   families) and an average CPU utilisation (Fig. 13);
//! * [`executor`] — executor processes holding a data slice, a *predicted*
//!   memory reservation (what the scheduler booked) and an *actual*
//!   footprint (what the ground-truth curve says it really uses);
//! * [`perf`] — the interference model: proportional CPU-oversubscription
//!   slowdown, sub-saturation memory-bandwidth interference (Fig. 14/15
//!   shapes) and paging penalties when actual footprints overflow RAM,
//!   escalating to OOM kills beyond RAM + swap (§2.3);
//! * [`engine`] — a processor-sharing progress engine: between scheduling
//!   decisions, executors advance at rates derived from their node's
//!   contention state; the engine reports the next completion so a driver
//!   loop can interleave scheduling and progress;
//! * [`dynalloc`] — Spark's default dynamic-allocation sizing for solo runs
//!   (§4.3: "by default, we use the dynamic allocation scheme of Spark").
//!
//! The scheduling *policies* (isolated, pairwise, Quasar, the paper's MoE
//! scheme, ...) live in the `colocate` crate; sparklite only executes
//! whatever placement it is told.
//!
//! ```
//! use sparklite::app::AppSpec;
//! use sparklite::cluster::ClusterSpec;
//! use sparklite::engine::ClusterEngine;
//! use mlkit::regression::{CurveFamily, FittedCurve};
//!
//! let cluster = ClusterSpec::paper_cluster();
//! let mut engine = ClusterEngine::new(cluster, Default::default());
//! let app = engine.submit(AppSpec {
//!     name: "sort".into(),
//!     input_gb: 64.0,
//!     rate_gb_per_s: 0.5,
//!     cpu_util: 0.35,
//!     memory_curve: FittedCurve { family: CurveFamily::Exponential, m: 5.768, b: 4.479 },
//!     footprint_noise_sd: 0.0,
//! });
//! // One executor on node 0 holding the full input under a 64 GB budget.
//! let node = engine.cluster().node_ids()[0];
//! let exec = engine.spawn_executor(app, node, 64.0, 64.0)?.unwrap();
//! let (dt, done) = engine.next_completion().unwrap();
//! assert_eq!(done, exec);
//! engine.advance(dt);
//! engine.complete_executor(done)?;
//! assert!(engine.app(app).is_finished());
//! # Ok::<(), sparklite::SparkliteError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod cluster;
pub mod dynalloc;
pub mod engine;
pub mod executor;
pub mod monitor;
pub mod perf;
#[cfg(test)]
mod properties;
mod tourney;

pub use app::{AppId, AppSpec};
pub use cluster::{ClusterSpec, NodeId, NodeSpec};
pub use engine::ClusterEngine;
pub use executor::ExecutorId;

use std::fmt;

/// Errors raised by the substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SparkliteError {
    /// Referenced an application id that does not exist.
    UnknownApp(usize),
    /// Referenced an executor id that does not exist or already finished.
    UnknownExecutor(usize),
    /// Referenced a node id that does not exist.
    UnknownNode(usize),
    /// Tried to place work on a crashed (offline) node.
    NodeOffline(usize),
    /// A reservation exceeded the node's memory.
    Resource(simkit::ResourceError),
    /// An operation was invalid in the current state (e.g. spawning an
    /// executor for a finished application).
    InvalidState(String),
}

impl fmt::Display for SparkliteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkliteError::UnknownApp(id) => write!(f, "unknown application #{id}"),
            SparkliteError::UnknownExecutor(id) => write!(f, "unknown executor #{id}"),
            SparkliteError::UnknownNode(id) => write!(f, "unknown node #{id}"),
            SparkliteError::NodeOffline(id) => write!(f, "node #{id} is offline"),
            SparkliteError::Resource(e) => write!(f, "resource error: {e}"),
            SparkliteError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
        }
    }
}

impl std::error::Error for SparkliteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparkliteError::Resource(e) => Some(e),
            _ => None,
        }
    }
}

impl From<simkit::ResourceError> for SparkliteError {
    fn from(e: simkit::ResourceError) -> Self {
        SparkliteError::Resource(e)
    }
}
