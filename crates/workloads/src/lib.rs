//! # workloads — the paper's 44 Spark benchmarks and PARSEC co-runners
//!
//! The Middleware '17 evaluation uses 44 Java-based Spark applications from
//! four suites — HiBench, BigDataBench, Spark-Perf and Spark-Bench — plus
//! 12 computation-intensive PARSEC 3.0 benchmarks for the interference
//! study (Fig. 15). The real benchmark binaries cannot run here, so this
//! crate models each one with the properties the evaluation exercises:
//!
//! * a **ground-truth memory curve** (one of the Table 1 families with
//!   per-benchmark coefficients — e.g. the paper reports Sort as
//!   exponential with `m = 5.768, b = 4.479` and PageRank as logarithmic
//!   with `m = 16.333, b = 1.79`, §3.1);
//! * an **average CPU utilisation** whose distribution over the 44
//!   benchmarks reproduces Fig. 13 (mostly under 40 %);
//! * a **nominal per-executor throughput**;
//! * a 22-dimensional **feature signature** lying in one of three clusters
//!   (one per memory-function family), reproducing the Fig. 16 structure
//!   that makes the KNN expert selector work.
//!
//! [`mixes`] provides the Table 3 runtime scenarios (L1..L10), the fixed
//! 30-application mix of Table 4, and the random-mix generator of §5.2.
//!
//! ```
//! use workloads::catalog::Catalog;
//!
//! let catalog = Catalog::paper();
//! assert_eq!(catalog.len(), 44);
//! let sort = catalog.by_name("HB.Sort").unwrap();
//! assert_eq!(sort.family().name(), "Exponential Regression");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod inputs;
pub mod mixes;
pub mod parsec;
pub mod signatures;

pub use catalog::{Benchmark, Catalog, Suite};
pub use mixes::{InputSize, MixEntry, MixScenario};
