//! System throughput (STP) and average normalized turnaround time (ANTT),
//! per the Eyerman–Eeckhout definitions the paper adopts (§5.3):
//!
//! ```text
//! STP  = Σ_i  C_iso_i / C_cl_i          (higher is better)
//! ANTT = (1/n) Σ_i  C_cl_i / C_iso_i    (lower is better)
//! ```
//!
//! where `C_iso_i` is task *i*'s execution time alone with all memory and
//! `C_cl_i` its turnaround under the evaluated schedule. Reported numbers
//! are normalised against the isolated baseline schedule (the applications
//! run one by one), exactly as §6 does: *normalized STP* is the ratio of
//! STPs, *ANTT reduction* is the percentage drop in ANTT.

use serde::{Deserialize, Serialize};

/// Linear-interpolated percentile over unsorted data, `p` clamped to
/// `[0, 100]`.
///
/// The ordering is `total_cmp`, so the function never panics: NaN samples
/// sort to the top end instead of aborting the comparison (a schedule that
/// produced one corrupt slowdown should not take the whole campaign down),
/// and an empty slice yields NaN rather than indexing out of bounds. Figures
/// reporting tail metrics (p50/p95/p99 job slowdown) share this
/// instead of each re-sorting slowdown vectors ad hoc.
///
/// Callers that need to *distinguish* "no samples" from a genuinely-NaN
/// tail should use [`try_percentile`], which types the empty case as
/// `None` instead of folding it into NaN.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    try_percentile(xs, p).unwrap_or(f64::NAN)
}

/// Several percentiles of one sample, paying the sort once.
///
/// Same semantics as [`percentile`]; returns one value per requested
/// percentile, in order. All-NaN when `xs` is empty — use
/// [`try_percentiles`] when the empty case must stay typed.
#[must_use]
pub fn percentiles(xs: &[f64], ps: &[f64]) -> Vec<f64> {
    try_percentiles(xs, ps).unwrap_or_else(|| vec![f64::NAN; ps.len()])
}

/// [`percentile`] with the empty-input case made explicit: `None` when
/// `xs` has no samples, `Some(value)` otherwise. A single sample is its
/// own percentile at every `p` (no interpolation partner exists).
#[must_use]
pub fn try_percentile(xs: &[f64], p: f64) -> Option<f64> {
    try_percentiles(xs, std::slice::from_ref(&p)).map(|v| v[0])
}

/// [`percentiles`] with the empty-input case made explicit: `None` when
/// `xs` has no samples, otherwise one value per requested percentile, in
/// order.
///
/// This is the hardened core the NaN-folding wrappers delegate to; the
/// chaos-search invariant battery uses it directly so an empty fold reads
/// as "nothing to measure" rather than as a corrupt tail.
#[must_use]
pub fn try_percentiles(xs: &[f64], ps: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(
        ps.iter()
            .map(|&p| {
                let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                if lo == hi {
                    sorted[lo]
                } else {
                    let frac = rank - lo as f64;
                    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
                }
            })
            .collect(),
    )
}

/// STP/ANTT of one schedule against per-task isolated times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// System throughput (formula 1).
    pub stp: f64,
    /// Average normalized turnaround time (formula 2).
    pub antt: f64,
}

/// Computes STP and ANTT from isolated execution times and turnaround
/// times under the evaluated schedule.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or contain
/// non-positive times.
#[must_use]
pub fn schedule_metrics(iso_secs: &[f64], turnaround_secs: &[f64]) -> ScheduleMetrics {
    assert_eq!(iso_secs.len(), turnaround_secs.len(), "length mismatch");
    assert!(!iso_secs.is_empty(), "no tasks");
    let mut stp = 0.0;
    let mut antt = 0.0;
    for (&iso, &cl) in iso_secs.iter().zip(turnaround_secs.iter()) {
        assert!(iso > 0.0 && cl > 0.0, "times must be positive");
        stp += iso / cl;
        antt += cl / iso;
    }
    ScheduleMetrics {
        stp,
        antt: antt / iso_secs.len() as f64,
    }
}

/// Turnaround times of the isolated baseline schedule: the applications
/// run one by one in submission order, so task *i* completes at the prefix
/// sum of isolated times.
///
/// # Panics
///
/// Panics if `iso_secs` is empty.
#[must_use]
pub fn isolated_baseline_turnarounds(iso_secs: &[f64]) -> Vec<f64> {
    assert!(!iso_secs.is_empty(), "no tasks");
    let mut acc = 0.0;
    iso_secs
        .iter()
        .map(|&c| {
            acc += c;
            acc
        })
        .collect()
}

/// A schedule's headline numbers as the paper reports them (§6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalizedMetrics {
    /// "Normalized STP": formula (1) evaluated with isolated execution as
    /// `C_is` — the baseline enters through the numerator, so a scheme
    /// that runs `n` tasks perfectly in parallel at isolated speed scores
    /// `n`. (Fig. 6a's y-axis.)
    pub normalized_stp: f64,
    /// Percentage reduction of average normalized turnaround time against
    /// the isolated one-by-one baseline schedule: each task's turnaround
    /// is normalised to its turnaround under the baseline, and the
    /// reduction is `(1 − mean ratio) × 100` (Fig. 6b's y-axis).
    pub antt_reduction_pct: f64,
}

/// Computes the paper's reported numbers: formula-(1) STP, and the ANTT
/// reduction against the one-by-one baseline built from the same per-task
/// isolated times.
///
/// # Panics
///
/// Panics under the same conditions as [`schedule_metrics`].
#[must_use]
pub fn normalize(iso_secs: &[f64], turnaround_secs: &[f64]) -> NormalizedMetrics {
    let sched = schedule_metrics(iso_secs, turnaround_secs);
    let baseline_turnarounds = isolated_baseline_turnarounds(iso_secs);
    // Per-task turnaround normalised to the same task's turnaround in the
    // baseline schedule; averaging these keeps mixed-size mixes from
    // saturating the reduction (a 300 MB job queued behind 1 TB jobs
    // inflates both schedules alike).
    let mean_ratio = turnaround_secs
        .iter()
        .zip(baseline_turnarounds.iter())
        .map(|(cl, base)| cl / base)
        .sum::<f64>()
        / iso_secs.len() as f64;
    NormalizedMetrics {
        normalized_stp: sched.stp,
        antt_reduction_pct: (1.0 - mean_ratio) * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stp_and_antt_closed_form() {
        // Two equal tasks, each twice as slow co-located.
        let m = schedule_metrics(&[100.0, 100.0], &[200.0, 200.0]);
        assert!((m.stp - 1.0).abs() < 1e-12);
        assert!((m.antt - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_parallelism_gives_stp_n() {
        // n tasks all finishing in their isolated time concurrently.
        let iso = [50.0, 50.0, 50.0, 50.0];
        let m = schedule_metrics(&iso, &iso);
        assert!((m.stp - 4.0).abs() < 1e-12);
        assert!((m.antt - 1.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_turnarounds_are_prefix_sums() {
        let t = isolated_baseline_turnarounds(&[10.0, 20.0, 30.0]);
        assert_eq!(t, vec![10.0, 30.0, 60.0]);
    }

    #[test]
    fn normalization_of_the_baseline_has_zero_antt_reduction() {
        let iso = [10.0, 20.0, 15.0];
        let base = isolated_baseline_turnarounds(&iso);
        let n = normalize(&iso, &base);
        // The one-by-one baseline's own STP is the harmonic-style sum of
        // formula (1) (> 1 because the first task is unslowed).
        assert!(n.normalized_stp > 1.0);
        assert!(n.antt_reduction_pct.abs() < 1e-12);
    }

    #[test]
    fn co_location_normalized_numbers_behave() {
        // Three equal 100 s tasks, run perfectly in parallel with a 20 %
        // co-location slowdown: each turnaround 120 s.
        let iso = [100.0, 100.0, 100.0];
        let n = normalize(&iso, &[120.0, 120.0, 120.0]);
        // Formula-(1) STP = 3 / 1.2 = 2.5.
        assert!((n.normalized_stp - 2.5).abs() < 1e-9);
        // Baseline turnarounds 100/200/300 → ratios 1.2, 0.6, 0.4 →
        // mean 0.7333 → 26.7 % reduction.
        assert!((n.antt_reduction_pct - (1.0 - 2.2 / 3.0) * 100.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates_and_matches_sorted_ranks() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.2, 2.6];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 9.2);
        // Median of 6 samples interpolates between ranks 2 and 3.
        assert!((percentile(&xs, 50.0) - (2.6 + 3.0) / 2.0).abs() < 1e-12);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile(&xs, 150.0), 9.2);
        assert_eq!(percentile(&xs, -5.0), 1.0);
    }

    #[test]
    fn percentile_tolerates_nan_and_empty() {
        // NaN sorts last under total_cmp; no panic.
        let xs = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert!(percentile(&xs, 100.0).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
        assert!(percentiles(&[], &[1.0, 99.0]).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn try_percentile_types_the_empty_case() {
        assert_eq!(try_percentile(&[], 50.0), None);
        assert_eq!(try_percentiles(&[], &[50.0, 99.0]), None);
        // Non-empty inputs agree with the NaN-folding wrappers bit for bit.
        let xs = [3.0, 1.0, 4.0];
        assert_eq!(
            try_percentile(&xs, 95.0).unwrap().to_bits(),
            percentile(&xs, 95.0).to_bits()
        );
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let xs = [7.25];
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(try_percentile(&xs, p), Some(7.25));
            assert_eq!(percentile(&xs, p), 7.25);
        }
        assert_eq!(try_percentiles(&xs, &[1.0, 99.0]), Some(vec![7.25, 7.25]));
    }

    #[test]
    fn percentiles_match_single_calls() {
        let xs = [5.0, 2.0, 8.0, 0.5, 3.3];
        let many = percentiles(&xs, &[50.0, 95.0, 99.0]);
        for (i, &p) in [50.0, 95.0, 99.0].iter().enumerate() {
            assert_eq!(many[i].to_bits(), percentile(&xs, p).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = schedule_metrics(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_times_panic() {
        let _ = schedule_metrics(&[1.0, 0.0], &[1.0, 1.0]);
    }
}
