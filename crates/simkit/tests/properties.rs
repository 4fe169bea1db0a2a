//! Property-based tests for simkit invariants.

use proptest::prelude::*;
use simkit::stats::{Histogram, TimeWeighted, Welford};
use simkit::{ResourcePool, SimRng};

proptest! {
    /// A pool never reports usage below zero or above capacity, no matter
    /// what sequence of reserve/release calls is attempted.
    #[test]
    fn resource_pool_invariants(
        capacity in 1.0f64..1e6,
        ops in proptest::collection::vec((any::<bool>(), 0.0f64..1e6), 0..200),
    ) {
        let mut pool = ResourcePool::new(capacity);
        for (is_reserve, amount) in ops {
            if is_reserve {
                let _ = pool.reserve(amount);
            } else {
                let _ = pool.release(amount);
            }
            prop_assert!(pool.in_use() >= 0.0);
            prop_assert!(pool.in_use() <= pool.capacity() + 1e-6);
            prop_assert!(pool.available() >= 0.0);
        }
    }

    /// reserve followed by release of the same amount restores availability.
    #[test]
    fn resource_pool_round_trip(capacity in 1.0f64..1e6, frac in 0.0f64..1.0) {
        let mut pool = ResourcePool::new(capacity);
        let amount = capacity * frac;
        pool.reserve(amount).unwrap();
        pool.release(amount).unwrap();
        prop_assert!(pool.in_use().abs() < 1e-6);
    }

    /// The same seed yields the same stream; different seeds (almost
    /// always) diverge.
    #[test]
    fn rng_is_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.unit(), b.unit());
        }
    }

    /// shuffle produces a permutation of its input.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), n in 0usize..200) {
        let mut rng = SimRng::seed_from(seed);
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Histogram counts always total the number of recorded observations,
    /// regardless of out-of-range values.
    #[test]
    fn histogram_conserves_observations(
        values in proptest::collection::vec(-50.0f64..150.0, 0..300),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total() as usize, values.len());
        let binned: u64 = h.bin_counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), h.total());
    }

    /// A time-weighted gauge's average always lies within the range of the
    /// values it was set to.
    #[test]
    fn time_weighted_average_is_bounded(
        steps in proptest::collection::vec((0.1f64..100.0, 0.0f64..10.0), 1..50),
    ) {
        let mut g = TimeWeighted::new(0.0);
        let mut t = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(dt, v) in &steps {
            g.set(t, v);
            lo = lo.min(v);
            hi = hi.max(v);
            t += dt;
        }
        let avg = g.time_average(t);
        // The gauge started at 0 before the first set at t=0, so include 0
        // only if the first set was not at the origin — here it always is.
        prop_assert!(avg >= lo - 1e-9, "avg {avg} below lo {lo}");
        prop_assert!(avg <= hi + 1e-9, "avg {avg} above hi {hi}");
    }

    /// Welford min/max bracket the mean.
    #[test]
    fn welford_mean_is_bracketed(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!(w.min() <= w.mean() + 1e-6);
        prop_assert!(w.mean() <= w.max() + 1e-6);
        prop_assert!(w.sample_variance() >= 0.0);
    }
}
