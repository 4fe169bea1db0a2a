//! Property-based tests for simkit invariants.

use proptest::prelude::*;
use simkit::stats::{Histogram, TimeWeighted, Welford};
use simkit::{ResourcePool, SimRng, SimTime};

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
            prop_assert!(pool.peak() >= pool.in_use() - 1e-9);
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

    /// Welford's merge is equivalent to accumulating the concatenation.
    #[test]
    fn welford_merge_consistent(
        a in proptest::collection::vec(-1e3f64..1e3, 0..100),
        b in proptest::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut wa = Welford::new();
        for &x in &a { wa.push(x); }
        let mut wb = Welford::new();
        for &x in &b { wb.push(x); }
        let mut whole = Welford::new();
        for &x in a.iter().chain(b.iter()) { whole.push(x); }
        wa.merge(&wb);
        prop_assert_eq!(wa.count(), whole.count());
        if whole.count() > 0 {
            prop_assert!((wa.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((wa.sample_variance() - whole.sample_variance()).abs() < 1e-4);
        }
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
        let mut g = TimeWeighted::new(SimTime::ZERO);
        let mut t = 0.0;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(dt, v) in &steps {
            g.set(SimTime::from_secs(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
            t += dt;
        }
        let avg = g.time_average(SimTime::from_secs(t));
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

    /// Chan et al. pairwise combine: pushing a sequence serially and
    /// merging arbitrary contiguous shards of it must agree on every
    /// moment — the invariant the parallel campaign fold relies on.
    #[test]
    fn welford_merge_matches_serial_push(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..300),
        cuts in proptest::collection::vec(0usize..300, 0..6),
    ) {
        let mut serial = Welford::new();
        for &x in &xs {
            serial.push(x);
        }

        // Split points (deduped, clamped) partition xs into shards; fold
        // each shard separately, then merge left to right.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (xs.len() + 1)).collect();
        bounds.push(0);
        bounds.push(xs.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut merged = Welford::new();
        for pair in bounds.windows(2) {
            let mut shard = Welford::new();
            for &x in &xs[pair[0]..pair[1]] {
                shard.push(x);
            }
            merged.merge(&shard);
        }

        prop_assert_eq!(merged.count(), serial.count());
        prop_assert!(
            (merged.mean() - serial.mean()).abs() < 1e-9,
            "mean {} vs {}",
            merged.mean(),
            serial.mean()
        );
        prop_assert!(
            (merged.sample_variance() - serial.sample_variance()).abs()
                < 1e-9 * (1.0 + serial.sample_variance()),
            "variance {} vs {}",
            merged.sample_variance(),
            serial.sample_variance()
        );
        prop_assert_eq!(merged.min().to_bits(), serial.min().to_bits());
        prop_assert_eq!(merged.max().to_bits(), serial.max().to_bits());
    }

    /// Merging empty shards in either direction is the identity.
    #[test]
    fn welford_merge_empty_is_identity(xs in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let before = (w.count(), w.mean().to_bits(), w.sample_variance().to_bits());
        w.merge(&Welford::new());
        prop_assert_eq!(before.0, w.count());
        prop_assert_eq!(before.1, w.mean().to_bits());
        prop_assert_eq!(before.2, w.sample_variance().to_bits());

        let mut empty = Welford::new();
        empty.merge(&w);
        prop_assert_eq!(empty.count(), w.count());
        prop_assert_eq!(empty.mean().to_bits(), w.mean().to_bits());
    }
}
