//! The resource-monitor daemon (§4.2).
//!
//! In the paper each computing node periodically reports its memory usage
//! and CPU load, read from "/proc", and the monitor keeps the average over
//! a sliding window (the paper uses five minutes). This dispatcher reads
//! memory from the engine's reservations, so a report here carries only
//! the CPU load, and [`ResourceMonitor::windowed_cpu`] serves its windowed
//! mean. Schedulers consume the *windowed* view, which smooths
//! execution-phase changes and load spikes — and lags reality, which is
//! exactly the trade-off the window-size ablation explores.
//!
//! Daemons can also go silent (crash, network partition, hung `/proc`
//! read): [`ResourceMonitor::drop_reports`] silences a node for a span,
//! after which its window drains to empty and reads zero. A drained
//! window says nothing about the node, so consumers must not take its
//! zero for "idle" (the dispatcher only ever raises the instantaneous
//! load toward it).

use crate::cluster::NodeId;
use crate::engine::ClusterEngine;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::VecDeque;

/// Configuration of the monitoring daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Width of the sliding window, seconds (paper: 300 s).
    pub window_secs: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { window_secs: 300.0 }
    }
}

/// Reporting period of the per-node daemons, seconds.
pub const REPORT_PERIOD_SECS: f64 = 30.0;

/// One report from a node daemon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Report {
    at_secs: f64,
    cpu_load: f64,
}

/// A sliding-window view of one node.
///
/// The windowed mean is memoized behind a dirty flag: schedulers query
/// `windowed_cpu` for every node on every placement decision, but the
/// window contents only change on (throttled) observations. The cached
/// value is recomputed with the same front-to-back summation a direct
/// scan performs, so memoization never changes a single output bit.
#[derive(Debug, Clone, Default)]
struct NodeWindow {
    reports: VecDeque<Report>,
    cached_cpu: Cell<f64>,
    dirty: Cell<bool>,
}

impl NodeWindow {
    fn push(&mut self, report: Report, window_secs: f64) {
        self.reports.push_back(report);
        self.dirty.set(true);
        self.evict(report.at_secs, window_secs);
    }

    /// Drops reports older than the window measured from `now_secs`. Runs
    /// on every observation — including ones where the node's daemon is
    /// silent — so a dropped-out node's window drains to *empty* (stale)
    /// instead of freezing its last pre-dropout contents.
    fn evict(&mut self, now_secs: f64, window_secs: f64) {
        while let Some(front) = self.reports.front() {
            if now_secs - front.at_secs > window_secs {
                self.reports.pop_front();
                self.dirty.set(true);
            } else {
                break;
            }
        }
    }

    /// Recomputes the cached mean in one front-to-back pass: the
    /// additions happen in exactly the order
    /// `reports.iter().map(..).sum::<f64>()` performs them (left fold from
    /// `0.0`), which pins the float summation order the bit-identity
    /// guarantee depends on.
    fn refresh(&self) {
        if !self.dirty.get() {
            return;
        }
        if self.reports.is_empty() {
            self.cached_cpu.set(0.0);
        } else {
            let mut cpu = 0.0_f64;
            for r in &self.reports {
                cpu += r.cpu_load;
            }
            self.cached_cpu.set(cpu / self.reports.len() as f64);
        }
        self.dirty.set(false);
    }

    fn mean_cpu(&self) -> f64 {
        self.refresh();
        self.cached_cpu.get()
    }

    /// Uncached reference computation, kept verbatim from the
    /// pre-memoization implementation as the oracle for property tests.
    #[cfg(test)]
    fn naive_mean_cpu(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.cpu_load).sum::<f64>() / self.reports.len() as f64
    }
}

/// The cluster-wide resource monitor.
///
/// # Examples
///
/// ```
/// use sparklite::cluster::ClusterSpec;
/// use sparklite::engine::ClusterEngine;
/// use sparklite::monitor::{MonitorConfig, ResourceMonitor};
/// use sparklite::perf::InterferenceModel;
///
/// let engine = ClusterEngine::new(ClusterSpec::small(2), InterferenceModel::default());
/// let mut monitor = ResourceMonitor::new(2, MonitorConfig::default());
/// monitor.observe(&engine, 0.0);
/// let node = engine.cluster().node_ids()[0];
/// assert_eq!(monitor.windowed_cpu(node), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    config: MonitorConfig,
    windows: Vec<NodeWindow>,
    last_observation: Option<f64>,
    /// Observations that passed the reporting-period throttle. Only these
    /// change a window, so a reader caching windowed values re-reads them
    /// when the count moves.
    observations: u64,
    /// Per-node dropout deadline: the node's daemon posts nothing until
    /// this simulated time (fault injection; 0 = reporting normally).
    dropped_until: Vec<f64>,
}

impl ResourceMonitor {
    /// Creates a monitor for `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize, config: MonitorConfig) -> Self {
        ResourceMonitor {
            config,
            windows: vec![NodeWindow::default(); nodes],
            last_observation: None,
            observations: 0,
            dropped_until: vec![0.0; nodes],
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Ingests a snapshot of the cluster at simulated time `now_secs`,
    /// respecting the daemons' reporting period (snapshots arriving before
    /// the next period are ignored, as the real daemons only post
    /// periodically).
    pub fn observe(&mut self, engine: &ClusterEngine, now_secs: f64) {
        if let Some(last) = self.last_observation {
            if now_secs - last < REPORT_PERIOD_SECS {
                return;
            }
        }
        self.last_observation = Some(now_secs);
        self.observations += 1;
        let window_secs = self.config.window_secs;
        for (i, window) in self.windows.iter_mut().enumerate() {
            window.evict(now_secs, window_secs);
            if now_secs < self.dropped_until[i] {
                // The daemon is silent: no fresh report, and the eviction
                // above lets the window age toward staleness.
                continue;
            }
            let report = Report {
                at_secs: now_secs,
                cpu_load: engine.node_cpu_load(NodeId(i)),
            };
            window.push(report, window_secs);
        }
    }

    /// How many observations have passed the reporting-period throttle.
    /// The windowed views change only when this count does.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Silences a node's daemon until `until_secs` (fault injection: the
    /// monitor process hangs or its reports are lost). Overlapping
    /// dropouts extend to the furthest deadline.
    ///
    /// # Panics
    ///
    /// Panics on a node id outside the monitored cluster.
    pub fn drop_reports(&mut self, node: NodeId, until_secs: f64) {
        let slot = &mut self.dropped_until[node.index()];
        *slot = slot.max(until_secs);
    }

    /// Windowed average CPU load of a node, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on a node id outside the monitored cluster.
    #[must_use]
    pub fn windowed_cpu(&self, node: NodeId) -> f64 {
        self.windows[node.index()].mean_cpu()
    }
}

#[cfg(test)]
impl NodeId {
    /// Test-only constructor.
    #[must_use]
    pub(crate) fn from_index_for_tests(i: usize) -> NodeId {
        NodeId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppSpec;
    use crate::cluster::ClusterSpec;
    use crate::perf::InterferenceModel;
    use mlkit::regression::{CurveFamily, FittedCurve};

    fn engine_with_load() -> (ClusterEngine, NodeId) {
        let mut engine = ClusterEngine::new(ClusterSpec::small(1), InterferenceModel::default());
        let node = engine.cluster().node_ids()[0];
        let app = engine.submit(AppSpec {
            name: "a".into(),
            input_gb: 100.0,
            rate_gb_per_s: 0.01,
            cpu_util: 0.4,
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m: 0.5,
                b: 1.0,
            },
            footprint_noise_sd: 0.0,
        });
        engine.spawn_executor(app, node, 20.0, 11.0).unwrap();
        (engine, node)
    }

    fn idle_engine() -> ClusterEngine {
        ClusterEngine::new(ClusterSpec::small(1), InterferenceModel::default())
    }

    #[test]
    fn windowed_values_track_load() {
        let (engine, node) = engine_with_load();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig::default());
        monitor.observe(&engine, 0.0);
        // A one-report mean is exactly that report.
        assert!((monitor.windowed_cpu(node) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reporting_period_throttles_observations() {
        let (engine, node) = engine_with_load();
        let idle = idle_engine();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig::default());
        assert_eq!(monitor.observations(), 0);
        monitor.observe(&engine, 0.0);
        monitor.observe(&idle, 5.0); // within the 30 s period: ignored
        assert!((monitor.windowed_cpu(node) - 0.4).abs() < 1e-12);
        assert_eq!(monitor.observations(), 1, "a throttled call is not counted");
        monitor.observe(&idle, 31.0);
        assert!((monitor.windowed_cpu(node) - 0.2).abs() < 1e-12);
        assert_eq!(monitor.observations(), 2);
    }

    #[test]
    fn window_evicts_stale_reports() {
        let (engine, node) = engine_with_load();
        let idle = idle_engine();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig { window_secs: 60.0 });
        for (t, e) in [
            (0.0, &engine),
            (30.0, &idle),
            (60.0, &engine),
            (90.0, &idle),
        ] {
            monitor.observe(e, t);
        }
        monitor.observe(&engine, 120.0);
        // Window of 60 s from t = 120: the reports at 60, 90 and 120 (0.4,
        // 0, 0.4); with any older one kept the mean would be 0.2 or 0.24.
        assert!((monitor.windowed_cpu(node) - 0.8 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_lags_a_load_change() {
        let (mut engine, node) = engine_with_load();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig::default());
        for t in [0.0, 30.0, 60.0] {
            monitor.observe(&engine, t);
        }
        // The executor finishes: instantaneous load drops to zero...
        engine.advance(20.0 / 0.01);
        let id = engine.node_executors(node)[0];
        engine.complete_executor(id).unwrap();
        assert_eq!(engine.node_cpu_load(node), 0.0);
        monitor.observe(&engine, 2030.0);
        // ...but the windowed view still remembers recent activity only if
        // reports are within the window; at t=2030 everything is stale
        // except the new zero-load report.
        assert!(monitor.windowed_cpu(node) < 0.1);
    }

    #[test]
    fn empty_monitor_reports_zero() {
        let monitor = ResourceMonitor::new(2, MonitorConfig::default());
        assert_eq!(monitor.windowed_cpu(NodeId::from_index_for_tests(0)), 0.0);
    }

    #[test]
    fn report_exactly_at_window_boundary_is_kept() {
        // Eviction drops reports strictly OLDER than the window: a report
        // whose age equals `window_secs` exactly stays in (the `>` in
        // `NodeWindow::evict`). Pin that boundary.
        let (engine, node) = engine_with_load();
        let idle = idle_engine();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig { window_secs: 60.0 });
        monitor.observe(&engine, 0.0);
        monitor.observe(&idle, 60.0); // age of first = window exactly
        assert!((monitor.windowed_cpu(node) - 0.2).abs() < 1e-12);
        monitor.observe(&idle, 90.0); // age of first = 90 > 60: evicted
        assert_eq!(monitor.windowed_cpu(node), 0.0);
    }

    #[test]
    fn dropout_drains_the_window() {
        let (engine, node) = engine_with_load();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig { window_secs: 60.0 });
        monitor.observe(&engine, 0.0);
        monitor.drop_reports(node, 300.0);
        // Observations during the dropout add nothing (the window would
        // still read 0.4 with a fresh report) and evict as usual: once the
        // last real report ages past the window the node reads zero.
        monitor.observe(&engine, 30.0);
        assert!((monitor.windowed_cpu(node) - 0.4).abs() < 1e-12);
        monitor.observe(&engine, 90.0);
        assert_eq!(monitor.windowed_cpu(node), 0.0);
        // After the dropout deadline the daemon reports again.
        monitor.observe(&engine, 301.0);
        assert!((monitor.windowed_cpu(node) - 0.4).abs() < 1e-12);
    }

    proptest::proptest! {
        /// The memoized window mean is bit-identical to the uncached
        /// reference computation under arbitrary report / eviction / query
        /// interleavings — queries between mutations must not perturb the
        /// cache, and every mutation must re-dirty it.
        #[test]
        fn memoized_means_match_naive(
            ops in proptest::collection::vec(
                (0u8..4, 0.0f64..1.0, 0.1f64..120.0),
                1..100,
            ),
        ) {
            let window_secs = 300.0;
            let mut w = NodeWindow::default();
            let mut now = 0.0_f64;
            for &(op, cpu, dt) in &ops {
                match op {
                    0 | 1 => {
                        now += dt;
                        w.push(
                            Report {
                                at_secs: now,
                                cpu_load: cpu,
                            },
                            window_secs,
                        );
                    }
                    2 => {
                        now += dt;
                        // A silent-daemon observation: eviction only.
                        w.evict(now, window_secs);
                    }
                    _ => {
                        // Pure query op: exercised below like every other
                        // op, but with no mutation in between — the cache
                        // must serve the same bits twice.
                        let first = w.mean_cpu();
                        proptest::prop_assert_eq!(first.to_bits(), w.mean_cpu().to_bits());
                    }
                }
                proptest::prop_assert_eq!(w.mean_cpu().to_bits(), w.naive_mean_cpu().to_bits());
            }
        }
    }

    #[test]
    fn overlapping_dropouts_extend_to_the_furthest_deadline() {
        let (engine, node) = engine_with_load();
        let mut monitor = ResourceMonitor::new(1, MonitorConfig::default());
        monitor.drop_reports(node, 100.0);
        monitor.drop_reports(node, 50.0); // shorter: must not shrink
        monitor.observe(&engine, 60.0);
        assert_eq!(monitor.windowed_cpu(node), 0.0);
        monitor.observe(&engine, 101.0);
        assert!((monitor.windowed_cpu(node) - 0.4).abs() < 1e-12);
    }
}
