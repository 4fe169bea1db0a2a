//! Deterministic fan-out for statistically independent simulations.
//!
//! The campaign layer replays thousands of independent discrete-event
//! simulations (one per random mix); per Eyerman–Eeckhout's STP/ANTT
//! methodology those replays share nothing, so they can run on as many
//! cores as the host offers **without** touching the engine's
//! single-threaded determinism guarantees. This module provides the one
//! primitive that makes that safe:
//!
//! [`par_map_indexed`] — a scoped, work-stealing-free thread pool that maps
//! a closure over a slice and commits results **in index order**. Workers
//! claim indices from a shared atomic counter (self-scheduling, so an
//! expensive item never stalls the queue behind it), but the output vector
//! is assembled by index, so the caller observes exactly the same `Vec` no
//! matter how many workers ran or in what order they finished. Determinism
//! therefore reduces to the closure being a pure function of its index —
//! which the campaign layer guarantees by deriving every replay's RNG seed
//! from `base_seed + index`.
//!
//! Built on `std::thread::scope` only: no external dependencies, no
//! channels, no work stealing (stealing reorders *starts*, which is
//! harmless, but a fixed claim order keeps scheduling easy to reason
//! about). Worker panics are re-raised on the calling thread.
//!
//! The worker count defaults to [`available_workers`], which honours the
//! `SPARK_MOE_THREADS` environment variable so CI and benchmarks can pin
//! or oversubscribe the pool.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SPARK_MOE_THREADS";

/// Number of workers campaigns use by default: `SPARK_MOE_THREADS` when set
/// to a positive integer, otherwise the host's available parallelism
/// (falling back to 1 when that cannot be determined).
#[must_use]
pub fn available_workers() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on up to `workers` scoped threads, returning the
/// results in index order.
///
/// Guarantees:
///
/// * **Index-ordered output** — `result[i] == f(i, &items[i])` regardless
///   of worker count or completion order.
/// * **No work stealing** — each worker claims the next unclaimed index
///   from one atomic counter; an item is computed by exactly one worker.
/// * **Panic propagation** — a panicking closure aborts the whole map and
///   re-raises the payload on the caller's thread.
///
/// With `workers <= 1` (or fewer than two items) everything runs inline on
/// the calling thread — the base case the determinism tests compare
/// against.
///
/// # Examples
///
/// ```
/// use simkit::par::par_map_indexed;
/// let squares = par_map_indexed(&[1u64, 2, 3, 4], 4, |i, &x| (i as u64, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
/// ```
pub fn par_map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        claimed.push((i, f(i, &items[i])));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for worker_results in joined {
        match worker_results {
            Ok(pairs) => {
                for (i, r) in pairs {
                    debug_assert!(slots[i].is_none(), "index {i} computed twice");
                    slots[i] = Some(r);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64, 200] {
            let got = par_map_indexed(&items, workers, |_, &x| x * x + 1);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn closure_sees_matching_index_and_item() {
        let items: Vec<usize> = (0..50).collect();
        let got = par_map_indexed(&items, 4, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(got, items);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_indexed(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map_indexed(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_computed_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        par_map_indexed(&items, 8, |i, _| {
            counters[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_indexed(&items, 4, |i, _| {
                assert!(i != 9, "boom at 9");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn env_override_controls_worker_count() {
        // Serialized with a lock-free dance is overkill for a single test
        // binary; tests in this module do not otherwise read the variable.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(available_workers(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(available_workers() >= 1, "zero falls back to detection");
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(available_workers() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(available_workers() >= 1);
    }
}
