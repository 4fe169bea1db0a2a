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
