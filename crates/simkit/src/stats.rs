//! Online statistics for simulation output analysis.
//!
//! Provides [`Welford`] (numerically stable running moments and the 95 %
//! confidence half-width — the harness stops replaying a mix when it falls
//! below 5 % of the mean, §5.2 of the paper), [`Histogram`] (fixed-width
//! bins, used for the paper's Fig. 13 CPU-load distribution), the
//! [`summary::geometric_mean`] the paper reports across configurations,
//! and [`TimeWeighted`] gauges for time-averaged signals such as queue
//! depth.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use simkit::stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert!((w.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by n-1); 0 with fewer than two samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation; +inf when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; -inf when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Half-width of the normal-approximation 95 % confidence interval for
    /// the mean. Returns +inf with fewer than two samples, so callers that
    /// loop "until the CI is tight enough" take at least two replicates.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        1.96 * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Returns `true` once the 95 % CI half-width is below
    /// `rel_tol × |mean|`. This is the paper's §5.2 stopping rule with
    /// `rel_tol = 0.05`.
    #[must_use]
    pub fn ci_converged(&self, rel_tol: f64) -> bool {
        let m = self.mean().abs();
        m > 0.0 && self.ci95_half_width() <= rel_tol * m
    }
}

/// A fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
///
/// # Examples
///
/// ```
/// use simkit::stats::Histogram;
/// let mut h = Histogram::new(0.0, 60.0, 6);
/// h.record(35.0);
/// h.record(12.0);
/// assert_eq!(h.bin_counts()[3], 1); // 30-40 bucket
/// assert_eq!(h.total(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram of `bins` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records an observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Per-bin counts, lowest bucket first.
    #[must_use]
    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    /// The `(lo, hi)` edges of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len());
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// Count of observations below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the top of the range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded, including out-of-range ones.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// A time-weighted gauge: tracks the integral of a piecewise-constant signal
/// (e.g. a queue's depth) so its time average can be reported. Instants are
/// simulated seconds.
///
/// # Examples
///
/// ```
/// use simkit::stats::TimeWeighted;
/// let mut g = TimeWeighted::new(0.0);
/// g.set(0.0, 0.2);
/// g.set(10.0, 0.8);
/// assert_eq!(g.time_average(20.0), 0.5);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    started: f64,
    last_change: f64,
    current: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Creates a gauge that starts at zero at instant `start`.
    #[must_use]
    pub fn new(start: f64) -> Self {
        TimeWeighted {
            started: start,
            last_change: start,
            current: 0.0,
            integral: 0.0,
        }
    }

    /// Sets the gauge to `value` at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous change (time must be monotone).
    pub fn set(&mut self, now: f64, value: f64) {
        self.integral += self.current * span(now, self.last_change);
        self.current = value;
        self.last_change = now;
    }

    /// Current gauge value.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time average of the gauge from its start until `now`.
    #[must_use]
    pub fn time_average(&self, now: f64) -> f64 {
        let total = span(now, self.started);
        if total == 0.0 {
            return self.current;
        }
        let pending = self.current * span(now, self.last_change);
        (self.integral + pending) / total
    }
}

/// Seconds from `earlier` to `now`; panics unless that is a finite,
/// non-negative span.
fn span(now: f64, earlier: f64) -> f64 {
    let dt = now - earlier;
    assert!(
        dt.is_finite() && dt >= 0.0,
        "time must be monotone: {now} s is before {earlier} s"
    );
    dt
}

/// Free-standing summaries over slices of observations.
pub mod summary {
    /// Geometric mean of strictly positive values; the paper reports
    /// geometric means across configurations (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or any value is not strictly positive.
    #[must_use]
    pub fn geometric_mean(xs: &[f64]) -> f64 {
        assert!(!xs.is_empty(), "geometric mean of an empty slice");
        let log_sum: f64 = xs
            .iter()
            .map(|&x| {
                assert!(x > 0.0, "geometric mean requires positive values, got {x}");
                x.ln()
            })
            .sum();
        (log_sum / xs.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 5);
        assert_eq!(w.mean(), 3.0);
        assert!((w.sample_variance() - 2.5).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 5.0);
    }

    #[test]
    fn welford_empty_is_benign() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.ci95_half_width(), f64::INFINITY);
        assert!(!w.ci_converged(0.05));
    }

    #[test]
    fn ci_converges_for_tight_data() {
        let mut w = Welford::new();
        for i in 0..50 {
            w.push(100.0 + (i % 3) as f64);
        }
        assert!(w.ci_converged(0.05));
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        h.record(-5.0);
        h.record(0.0);
        h.record(99.999);
        h.record(100.0);
        h.record(55.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bin_counts()[0], 1);
        assert_eq!(h.bin_counts()[9], 1);
        assert_eq!(h.bin_counts()[5], 1);
        assert_eq!(h.total(), 5);
        assert_eq!(h.bin_edges(5), (50.0, 60.0));
    }

    #[test]
    fn time_weighted_average() {
        let mut g = TimeWeighted::new(0.0);
        g.set(0.0, 1.0);
        g.set(4.0, 0.0);
        // 4 s at 1.0 then 4 s at 0.0.
        assert_eq!(g.time_average(8.0), 0.5);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn time_weighted_at_start_reports_current() {
        let g = TimeWeighted::new(5.0);
        assert_eq!(g.time_average(5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_a_set_before_the_last_change() {
        let mut g = TimeWeighted::new(0.0);
        g.set(4.0, 1.0);
        g.set(3.0, 0.0);
    }

    #[test]
    fn geometric_mean_known_value() {
        let g = summary::geometric_mean(&[1.0, 4.0, 16.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_nonpositive() {
        let _ = summary::geometric_mean(&[1.0, 0.0]);
    }
}
