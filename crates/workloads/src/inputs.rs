//! Input datasets as RDDs (§5.2: "Inputs were generated using the input
//! generation tool provided by each benchmark suite").
//!
//! Spark inputs are not fluid: they are RDDs of records split into
//! partitions (typically one HDFS block, 128 MB, each). Executors are
//! handed whole partitions, so data slices are *quantized*; the dispatcher
//! snaps its memory-budgeted slices down to this grid
//! (`colocate::scheduler::PARTITION_GB`).

/// The HDFS block size partitioning defaults to (GB).
pub const DEFAULT_PARTITION_GB: f64 = 0.128;
