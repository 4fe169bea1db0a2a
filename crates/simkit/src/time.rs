//! Virtual-clock types: [`SimTime`] (an instant) and [`SimDuration`] (a span).
//!
//! Both wrap an `f64` number of seconds. Simulated campaigns span from
//! sub-second profiling runs to multi-hour schedules, so a floating-point
//! clock with ~15 significant digits is more than precise enough and keeps
//! arithmetic trivial. The newtypes exist so that instants and spans cannot
//! be mixed up ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in seconds since the start of the run.
///
/// `SimTime` is totally ordered; construction from a non-finite or negative
/// value is rejected by [`SimTime::from_secs`] (panics), keeping the total
/// order sound.
///
/// # Examples
///
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
/// assert_eq!(t.as_secs(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May be zero but never negative.
///
/// # Examples
///
/// ```
/// use simkit::SimDuration;
/// let d = SimDuration::from_secs(90.0);
/// assert_eq!(d.as_mins(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `secs` seconds after the start of the run.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite; such values would
    /// poison the total order of simulated instants.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Creates an instant `mins` minutes after the start of the run.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimTime::from_secs`].
    #[must_use]
    pub fn from_mins(mins: f64) -> Self {
        SimTime::from_secs(mins * 60.0)
    }

    /// Returns the number of seconds since the start of the run.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the number of minutes since the start of the run.
    #[must_use]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (a negative duration).
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the earlier of two instants.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimDuration must be finite and non-negative, got {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a span of `mins` minutes.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimDuration::from_secs`].
    #[must_use]
    pub fn from_mins(mins: f64) -> Self {
        SimDuration::from_secs(mins * 60.0)
    }

    /// Creates a span of `hours` hours.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`SimDuration::from_secs`].
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        SimDuration::from_secs(hours * 3600.0)
    }

    /// Returns the span in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Returns the span in minutes.
    #[must_use]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// Returns the span in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Returns `true` if the span has zero length.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_secs(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    /// The dimensionless ratio of two spans.
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

// `SimTime` values are always finite (enforced at construction), so the
// total order is genuine. Eq/Ord are implemented manually because f64 only
// offers PartialOrd.
impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime is always finite")
    }
}

impl Eq for SimDuration {}

impl PartialOrd for SimDuration {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimDuration is always finite")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_secs(100.0);
        let d = SimDuration::from_secs(40.0);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn minutes_and_hours_convert() {
        assert_eq!(SimDuration::from_mins(2.0).as_secs(), 120.0);
        assert_eq!(SimDuration::from_hours(1.0).as_mins(), 60.0);
        assert_eq!(SimTime::from_mins(3.0).as_secs(), 180.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_from_subtraction_rejected() {
        let _ = SimDuration::from_secs(1.0) - SimDuration::from_secs(2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10.0);
        assert_eq!((d * 2.5).as_secs(), 25.0);
        assert_eq!((d / 4.0).as_secs(), 2.5);
        assert_eq!(d / SimDuration::from_secs(4.0), 2.5);
    }

    #[test]
    fn duration_sums() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::from_secs(i as f64)).sum();
        assert_eq!(total.as_secs(), 10.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_secs(0.25).to_string(), "0.250s");
    }
}
