//! The node-level performance/interference model.
//!
//! Effective executor throughput is the uncontended rate times three
//! multiplicative factors, each in `(0, 1]`:
//!
//! 1. **CPU oversubscription** — when the sum of co-located executors' CPU
//!    demands exceeds the node, everyone runs at `capacity / demand`
//!    (proportional sharing, matching the paper's even redistribution of
//!    threads across executors, §4.3);
//! 2. **sub-saturation interference** — even below 100 % CPU, co-runners
//!    contend for memory bandwidth and LLC; the paper measures < 10 %
//!    median slowdown with one co-runner (Fig. 14) and < 30 % worst case
//!    against PARSEC (Fig. 15). Modeled as `1 / (1 + β · other_load)`;
//! 3. **paging** — when the *actual* footprints of co-located executors
//!    overflow RAM, the overflow spills to swap and every executor on the
//!    node pays `1 / (1 + γ · overflow/ram)`. Beyond RAM + swap the node
//!    cannot even page: the engine kills the youngest executor (OOM), which
//!    the runtime then re-runs in isolation (§2.3).

use serde::{Deserialize, Serialize};

/// Parameters of the interference model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterferenceModel {
    /// Sub-saturation interference coefficient β.
    pub cpu_interference_beta: f64,
    /// Paging penalty coefficient γ (per unit of overflow/ram).
    pub paging_gamma: f64,
}

impl Default for InterferenceModel {
    fn default() -> Self {
        InterferenceModel {
            // β = 0.22: one 40 %-CPU co-runner slows a task by ~8 %,
            // matching the Fig. 14 median (< 10 %).
            cpu_interference_beta: 0.22,
            // γ = 12: a 10 % RAM overflow more than halves throughput —
            // paging onto disk is catastrophic, which is the paper's
            // premise for precise memory prediction.
            paging_gamma: 12.0,
        }
    }
}

/// Demand summary of one executor for rate computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorDemand {
    /// CPU demand as a fraction of the node.
    pub cpu_util: f64,
    /// Actual memory footprint (GB).
    pub actual_gb: f64,
}

/// The memory condition of a node under a set of actual footprints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryPressure {
    /// Everything fits in RAM.
    Fits,
    /// RAM is overflowed by this many GB into swap.
    Paging(f64),
    /// RAM + swap are exhausted; an OOM kill is required.
    OutOfMemory,
}

impl InterferenceModel {
    /// Classifies the memory pressure of a node whose executors' actual
    /// footprints sum to `total_actual_gb`.
    #[must_use]
    pub fn memory_pressure(
        &self,
        total_actual_gb: f64,
        ram_gb: f64,
        swap_gb: f64,
    ) -> MemoryPressure {
        if total_actual_gb <= ram_gb {
            MemoryPressure::Fits
        } else if total_actual_gb <= ram_gb + swap_gb {
            MemoryPressure::Paging(total_actual_gb - ram_gb)
        } else {
            MemoryPressure::OutOfMemory
        }
    }

    /// Rate multipliers (one per executor, same order as `demands`) for a
    /// node with the given hardware. Multipliers are in `(0, 1]`.
    ///
    /// OOM conditions are *not* resolved here — callers should have
    /// detected [`MemoryPressure::OutOfMemory`] and killed an executor
    /// first; if not, the paging term simply saturates.
    #[must_use]
    pub fn rate_multipliers(&self, demands: &[ExecutorDemand], ram_gb: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(demands.len());
        self.rate_multipliers_into(demands, ram_gb, &mut out);
        out
    }

    /// Allocation-free form of [`InterferenceModel::rate_multipliers`]:
    /// clears `out` and appends one multiplier per demand, in order. The
    /// per-demand arithmetic is identical, so both forms produce the same
    /// bits.
    pub fn rate_multipliers_into(
        &self,
        demands: &[ExecutorDemand],
        ram_gb: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if demands.is_empty() {
            return;
        }
        let total_cpu: f64 = demands.iter().map(|d| d.cpu_util).sum();
        let total_mem: f64 = demands.iter().map(|d| d.actual_gb).sum();
        let overflow = (total_mem - ram_gb).max(0.0);
        // Exponential collapse: thrashing to disk is catastrophic, not
        // merely proportional — a 15 % RAM overflow costs ~6x, which is
        // what makes precise memory prediction worth having (§1).
        // With no overflow and a finite γ the exponent is ±0, and
        // `exp(±0)` is exactly 1: skip the call (every cool node, every
        // refresh).
        let paging_factor = if overflow == 0.0 && self.paging_gamma.is_finite() {
            1.0
        } else {
            (-self.paging_gamma * overflow / ram_gb.max(1e-9)).exp()
        };

        out.extend(demands.iter().map(|d| {
            let oversub = if total_cpu > 1.0 {
                1.0 / total_cpu
            } else {
                1.0
            };
            let other = (total_cpu - d.cpu_util).max(0.0);
            let interference = 1.0 / (1.0 + self.cpu_interference_beta * other);
            oversub * interference * paging_factor
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(cpu: f64, mem: f64) -> ExecutorDemand {
        ExecutorDemand {
            cpu_util: cpu,
            actual_gb: mem,
        }
    }

    #[test]
    fn solo_executor_runs_at_full_speed() {
        let m = InterferenceModel::default();
        let rates = m.rate_multipliers(&[d(0.35, 20.0)], 64.0);
        assert_eq!(rates, vec![1.0]);
    }

    #[test]
    fn one_co_runner_costs_under_ten_percent() {
        // The Fig. 14 median: a typical (< 40 % CPU) co-runner slows the
        // target by less than 10 %.
        let m = InterferenceModel::default();
        let rates = m.rate_multipliers(&[d(0.35, 20.0), d(0.40, 20.0)], 64.0);
        assert!(rates[0] > 0.90, "rate {}", rates[0]);
        assert!(rates[0] < 1.0);
    }

    #[test]
    fn cpu_oversubscription_scales_everyone_down() {
        let m = InterferenceModel {
            cpu_interference_beta: 0.0,
            paging_gamma: 0.0,
        };
        let rates = m.rate_multipliers(&[d(0.8, 1.0), d(0.8, 1.0)], 64.0);
        assert!((rates[0] - 1.0 / 1.6).abs() < 1e-12);
        assert_eq!(rates[0], rates[1]);
    }

    #[test]
    fn paging_penalty_is_severe() {
        let m = InterferenceModel::default();
        // 10 % overflow → more than 2x slowdown.
        let fits = m.rate_multipliers(&[d(0.3, 60.0)], 64.0)[0];
        let paging = m.rate_multipliers(&[d(0.3, 70.4)], 64.0)[0];
        assert_eq!(fits, 1.0);
        assert!(paging < 0.5, "paging rate {paging}");
    }

    #[test]
    fn skipped_exp_matches_the_call_bit_for_bit() {
        // The pre-skip arithmetic, `exp` always called.
        let reference = |m: &InterferenceModel, ds: &[ExecutorDemand], ram: f64| -> Vec<u64> {
            let total_cpu: f64 = ds.iter().map(|d| d.cpu_util).sum();
            let total_mem: f64 = ds.iter().map(|d| d.actual_gb).sum();
            let paging = (-m.paging_gamma * (total_mem - ram).max(0.0) / ram.max(1e-9)).exp();
            ds.iter()
                .map(|d| {
                    let oversub = if total_cpu > 1.0 {
                        1.0 / total_cpu
                    } else {
                        1.0
                    };
                    let other = (total_cpu - d.cpu_util).max(0.0);
                    let interference = 1.0 / (1.0 + m.cpu_interference_beta * other);
                    (oversub * interference * paging).to_bits()
                })
                .collect()
        };
        for gamma in [12.0, 0.0, -0.0, -3.0, f64::INFINITY, f64::NAN] {
            let m = InterferenceModel {
                paging_gamma: gamma,
                ..InterferenceModel::default()
            };
            for ram in [64.0, 0.0, f64::NAN, f64::INFINITY] {
                for ds in [
                    vec![d(0.3, 20.0)],
                    vec![d(0.6, 40.0), d(0.7, 40.0)],
                    vec![d(0.3, f64::NAN)],
                    vec![d(0.3, -0.0)],
                ] {
                    let got: Vec<u64> = m
                        .rate_multipliers(&ds, ram)
                        .iter()
                        .map(|r| r.to_bits())
                        .collect();
                    assert_eq!(got, reference(&m, &ds, ram), "γ {gamma} ram {ram} {ds:?}");
                }
            }
        }
    }

    #[test]
    fn memory_pressure_classification() {
        let m = InterferenceModel::default();
        assert_eq!(m.memory_pressure(60.0, 64.0, 16.0), MemoryPressure::Fits);
        match m.memory_pressure(70.0, 64.0, 16.0) {
            MemoryPressure::Paging(gb) => assert!((gb - 6.0).abs() < 1e-12),
            other => panic!("expected paging, got {other:?}"),
        }
        assert_eq!(
            m.memory_pressure(90.0, 64.0, 16.0),
            MemoryPressure::OutOfMemory
        );
    }

    #[test]
    fn empty_node_yields_no_rates() {
        let m = InterferenceModel::default();
        assert!(m.rate_multipliers(&[], 64.0).is_empty());
    }

    #[test]
    fn multipliers_stay_in_unit_interval() {
        let m = InterferenceModel::default();
        let demands: Vec<ExecutorDemand> = (0..8).map(|i| d(0.4, 10.0 + i as f64)).collect();
        for r in m.rate_multipliers(&demands, 64.0) {
            assert!(r > 0.0 && r <= 1.0);
        }
    }
}
