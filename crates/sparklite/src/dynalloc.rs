//! Spark's default dynamic-allocation sizing.
//!
//! When an application runs alone (the isolated baseline, and the first
//! placement decision of every policy), Spark's dynamic allocation decides
//! how many executors — and therefore nodes — to request. The paper runs
//! one executor per node and lets dynamic allocation grow the executor set
//! with the workload (§5.1). The model here: enough executors that each
//! slice fits comfortably in a node's RAM per the app's ground-truth curve,
//! capped by the cluster size and floored at one.

use crate::app::AppSpec;

/// Fraction of a node's RAM one executor's slice should fit into when
/// sized by dynamic allocation (Spark defaults leave head-room for
/// execution/storage fractions; 0.9 models `spark.memory.fraction`-ish
/// overheads).
pub const TARGET_MEM_FRACTION: f64 = 0.9;

/// Minimum number of executors.
pub const MIN_EXECUTORS: usize = 1;

/// Preferred data slice per executor (GB): dynamic allocation grows the
/// executor set so each one handles roughly this much input, mirroring
/// Spark's pending-task-driven scale-out.
pub const PREFERRED_SLICE_GB: f64 = 8.0;

/// Number of executors (= nodes, one executor per node) dynamic allocation
/// grants `app` on a cluster of `nodes` nodes with `ram_gb` RAM each.
///
/// Two pressures grow the executor set, and the larger wins:
/// * **parallelism** — one executor per [`PREFERRED_SLICE_GB`] of input
///   (Spark scales out while tasks are pending);
/// * **memory** — the smallest count that lets every slice's footprint fit
///   within [`TARGET_MEM_FRACTION`]` × ram_gb`.
///
/// The result is capped at `nodes` and floored at [`MIN_EXECUTORS`].
///
/// # Panics
///
/// Panics if `nodes` is zero.
#[must_use]
pub fn executors_for(app: &AppSpec, nodes: usize, ram_gb: f64) -> usize {
    assert!(nodes > 0, "cluster must have nodes");
    let parallel = (app.input_gb / PREFERRED_SLICE_GB).ceil() as usize;
    let budget = ram_gb * TARGET_MEM_FRACTION;
    let mut by_memory = 1;
    while by_memory < nodes {
        let slice = app.input_gb / by_memory as f64;
        if app.true_footprint_gb(slice) <= budget {
            break;
        }
        by_memory += 1;
    }
    parallel.max(by_memory).max(MIN_EXECUTORS).min(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::regression::{CurveFamily, FittedCurve};

    fn app(input_gb: f64, m: f64, b: f64) -> AppSpec {
        AppSpec {
            name: "t".into(),
            input_gb,
            rate_gb_per_s: 1.0,
            cpu_util: 0.3,
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m,
                b,
            },
            footprint_noise_sd: 0.0,
        }
    }

    #[test]
    fn small_input_gets_few_executors() {
        // 10 GB input: two 8 GB-preferred slices; memory is no constraint.
        let n = executors_for(&app(10.0, 0.5, 1.0), 40, 64.0);
        assert_eq!(n, 2);
        // 300 MB: a single executor suffices.
        let n = executors_for(&app(0.3, 0.5, 1.0), 40, 64.0);
        assert_eq!(n, 1);
    }

    #[test]
    fn large_input_spreads_across_nodes() {
        // 1000 GB at 0.5 GB footprint per GB: a single slice would need
        // 501 GB; each node affords 57.6 GB → ~9 executors.
        let n = executors_for(&app(1000.0, 0.5, 1.0), 40, 64.0);
        assert!(n >= 9, "n = {n}");
        let slice = 1000.0 / n as f64;
        assert!(0.5 * slice + 1.0 <= 57.6 + 1e-9);
    }

    #[test]
    fn capped_at_cluster_size() {
        // Footprint so large it never fits: still capped at the cluster.
        let n = executors_for(&app(1e6, 1.0, 0.0), 40, 64.0);
        assert_eq!(n, 40);
    }

    #[test]
    fn saturating_curve_is_parallelism_bound() {
        // The exponential family's footprint is bounded by m — memory never
        // constrains it, but a 1 TB input still scales out for parallelism.
        let spec = AppSpec {
            memory_curve: FittedCurve {
                family: CurveFamily::Exponential,
                m: 5.768,
                b: 4.479,
            },
            ..app(1000.0, 0.0, 0.0)
        };
        let n = executors_for(&spec, 40, 64.0);
        assert_eq!(n, 40, "1 TB / 8 GB slices saturates the 40-node cluster");
    }
}
