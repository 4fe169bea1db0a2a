//! Capacity-checked resource accounting.
//!
//! A [`ResourcePool`] models a finite divisible resource (RAM in MB, CPU
//! share in thread-equivalents). Reservations either succeed atomically or
//! fail with [`ResourceError`]; usage can never go negative or exceed
//! capacity, which the property tests pin down.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when a reservation or release would violate the pool's
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResourceError {
    /// The requested amount exceeds what is currently available.
    Exhausted {
        /// Amount that was requested.
        requested: f64,
        /// Amount that was available at the time of the request.
        available: f64,
    },
    /// A release asked to return more than is currently in use.
    OverRelease {
        /// Amount that was released.
        released: f64,
        /// Amount that was actually in use.
        in_use: f64,
    },
    /// The amount was negative, NaN or infinite.
    InvalidAmount(f64),
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::Exhausted {
                requested,
                available,
            } => write!(
                f,
                "resource exhausted: requested {requested:.2}, available {available:.2}"
            ),
            ResourceError::OverRelease { released, in_use } => write!(
                f,
                "over-release: returned {released:.2}, only {in_use:.2} in use"
            ),
            ResourceError::InvalidAmount(a) => write!(f, "invalid resource amount {a}"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// A finite divisible resource with reserve/release semantics.
///
/// # Examples
///
/// ```
/// use simkit::ResourcePool;
///
/// let mut ram = ResourcePool::new(64_000.0);
/// ram.reserve(24_000.0)?;
/// assert_eq!(ram.available(), 40_000.0);
/// ram.release(24_000.0)?;
/// assert_eq!(ram.in_use(), 0.0);
/// # Ok::<(), simkit::ResourceError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourcePool {
    capacity: f64,
    in_use: f64,
    peak: f64,
}

impl ResourcePool {
    /// Creates a pool with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative or non-finite.
    #[must_use]
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and non-negative"
        );
        ResourcePool {
            capacity,
            in_use: 0.0,
            peak: 0.0,
        }
    }

    /// Total capacity.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Amount currently reserved.
    #[must_use]
    pub fn in_use(&self) -> f64 {
        self.in_use
    }

    /// Amount currently free.
    #[must_use]
    pub fn available(&self) -> f64 {
        (self.capacity - self.in_use).max(0.0)
    }

    /// Highest usage observed since construction (or the last
    /// [`ResourcePool::reset_peak`]).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Utilisation in `[0, 1]`; zero-capacity pools report 0.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0.0 {
            0.0
        } else {
            self.in_use / self.capacity
        }
    }

    /// Returns `true` if `amount` could be reserved right now.
    #[must_use]
    pub fn can_reserve(&self, amount: f64) -> bool {
        amount.is_finite() && amount >= 0.0 && self.in_use + amount <= self.capacity + EPS
    }

    /// Reserves `amount` from the pool.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceError::InvalidAmount`] for negative or non-finite
    /// amounts and [`ResourceError::Exhausted`] if the pool cannot satisfy
    /// the request.
    pub fn reserve(&mut self, amount: f64) -> Result<(), ResourceError> {
        if !amount.is_finite() || amount < 0.0 {
            return Err(ResourceError::InvalidAmount(amount));
        }
        if self.in_use + amount > self.capacity + EPS {
            return Err(ResourceError::Exhausted {
                requested: amount,
                available: self.available(),
            });
        }
        self.in_use = (self.in_use + amount).min(self.capacity);
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Releases `amount` back to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceError::InvalidAmount`] for negative or non-finite
    /// amounts and [`ResourceError::OverRelease`] if more would be returned
    /// than is in use.
    pub fn release(&mut self, amount: f64) -> Result<(), ResourceError> {
        if !amount.is_finite() || amount < 0.0 {
            return Err(ResourceError::InvalidAmount(amount));
        }
        if amount > self.in_use + EPS {
            return Err(ResourceError::OverRelease {
                released: amount,
                in_use: self.in_use,
            });
        }
        self.in_use = (self.in_use - amount).max(0.0);
        Ok(())
    }

    /// Adjusts an existing reservation from `old` to `new` atomically.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`ResourcePool::reserve`] /
    /// [`ResourcePool::release`]; on error the pool is unchanged.
    pub fn resize(&mut self, old: f64, new: f64) -> Result<(), ResourceError> {
        if !old.is_finite() || old < 0.0 {
            return Err(ResourceError::InvalidAmount(old));
        }
        if !new.is_finite() || new < 0.0 {
            return Err(ResourceError::InvalidAmount(new));
        }
        if new >= old {
            self.reserve(new - old)
        } else {
            self.release(old - new)
        }
    }

    /// Forgets the recorded peak.
    pub fn reset_peak(&mut self) {
        self.peak = self.in_use;
    }
}

/// Tolerance for floating-point accumulation error in reserve/release
/// round-trips.
const EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_round_trip() {
        let mut p = ResourcePool::new(100.0);
        p.reserve(60.0).unwrap();
        assert_eq!(p.in_use(), 60.0);
        assert_eq!(p.available(), 40.0);
        p.release(60.0).unwrap();
        assert_eq!(p.in_use(), 0.0);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut p = ResourcePool::new(100.0);
        p.reserve(80.0).unwrap();
        let err = p.reserve(30.0).unwrap_err();
        assert!(matches!(err, ResourceError::Exhausted { .. }));
        // Failed reservation leaves state untouched.
        assert_eq!(p.in_use(), 80.0);
    }

    #[test]
    fn over_release_is_reported() {
        let mut p = ResourcePool::new(100.0);
        p.reserve(10.0).unwrap();
        let err = p.release(20.0).unwrap_err();
        assert!(matches!(err, ResourceError::OverRelease { .. }));
        assert_eq!(p.in_use(), 10.0);
    }

    #[test]
    fn invalid_amounts_rejected() {
        let mut p = ResourcePool::new(100.0);
        assert!(matches!(
            p.reserve(-1.0),
            Err(ResourceError::InvalidAmount(_))
        ));
        assert!(matches!(
            p.reserve(f64::NAN),
            Err(ResourceError::InvalidAmount(_))
        ));
        assert!(matches!(
            p.release(f64::INFINITY),
            Err(ResourceError::InvalidAmount(_))
        ));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut p = ResourcePool::new(100.0);
        p.reserve(70.0).unwrap();
        p.release(50.0).unwrap();
        p.reserve(10.0).unwrap();
        assert_eq!(p.peak(), 70.0);
        p.reset_peak();
        assert_eq!(p.peak(), 30.0);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let mut p = ResourcePool::new(100.0);
        p.reserve(20.0).unwrap();
        p.resize(20.0, 50.0).unwrap();
        assert_eq!(p.in_use(), 50.0);
        p.resize(50.0, 5.0).unwrap();
        assert_eq!(p.in_use(), 5.0);
        assert!(p.resize(5.0, 1000.0).is_err());
        assert_eq!(p.in_use(), 5.0, "failed resize leaves pool unchanged");
    }

    #[test]
    fn utilization_and_can_reserve() {
        let mut p = ResourcePool::new(16.0);
        assert_eq!(p.utilization(), 0.0);
        p.reserve(8.0).unwrap();
        assert_eq!(p.utilization(), 0.5);
        assert!(p.can_reserve(8.0));
        assert!(!p.can_reserve(8.1));
        let zero = ResourcePool::new(0.0);
        assert_eq!(zero.utilization(), 0.0);
    }

    #[test]
    fn float_accumulation_tolerated() {
        let mut p = ResourcePool::new(1.0);
        for _ in 0..10 {
            p.reserve(0.1).unwrap();
        }
        // 10 × 0.1 may exceed 1.0 by float error; EPS absorbs it.
        for _ in 0..10 {
            p.release(0.1).unwrap();
        }
        assert!(p.in_use().abs() < 1e-9);
    }
}
