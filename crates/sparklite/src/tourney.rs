//! A tournament (winner) tree over per-node minimum completion keys.
//!
//! The sharded rate cache keeps, per node, the key of the executor that
//! finishes first on that node. The global next completion is then the
//! winner of a knockout tournament over those per-node keys: a flat binary
//! tree of `2·P` slots where updating one node's key replays at most its
//! `log₂ P` matches, so placement mutations that touch a handful of nodes
//! maintain the global minimum in O(dirty · log P) instead of O(E). The
//! replay stops early at the first match still won by the same other slot
//! (see [`TourneyTree`]).
//!
//! # Key semantics and the oracle-pinning discipline
//!
//! The naive oracle ([`crate::engine::ClusterEngine::next_completion_naive`])
//! compares *fresh* `(dt, id)` pairs, all computed at the same instant. The
//! tree must compare keys computed at *different* instants (a node's key is
//! only recomputed when a mutation dirties it; untouched nodes keep keys
//! from an earlier refresh), so keys carry the **absolute** completion time
//! `t = elapsed_at_refresh + dt`, which is invariant under the passage of
//! time for a node whose rates have not changed. The comparator:
//!
//! 1. compare `t` — strictly different absolute finish times order the
//!    same way fresh `dt`s would (both are the same quantity shifted by
//!    the current elapsed time);
//! 2. on a `t` tie with **bit-equal** `elapsed`, compare `(dt, id)` —
//!    exactly the oracle's comparison, because keys refreshed at the same
//!    instant are directly comparable (`fl(e + dt)` is monotone in `dt`,
//!    so equal sums with equal `e` can only come from dts the oracle
//!    would also have had to tie-break by id, or from float absorption
//!    that the raw `dt` comparison resolves exactly);
//! 3. on a `t` tie across *different* refresh instants, compare `id`.
//!    Case 3 is reachable only when two executors on different nodes,
//!    refreshed at different times, finish within one ulp of each other —
//!    coincidences the simulations' engineered ties never produce (ties
//!    come from symmetric placements, which refresh both nodes at the
//!    same instant and land in case 2).
//!
//! Winner identity is the only thing the tree decides; the returned `dt`
//! is always recomputed fresh from the winner's live state, so it is
//! bit-identical to the oracle's whenever the winner matches.

use crate::executor::ExecutorId;

/// One node's minimum-completion key, computed at that node's last
/// rate-cache refresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShardKey {
    /// Absolute completion time: `elapsed + dt`, both as of the refresh.
    pub t: f64,
    /// Engine elapsed time at the refresh that produced this key.
    pub elapsed: f64,
    /// Completion delay at the refresh: `remaining / max(rate, 1e-12)`.
    pub dt: f64,
    /// The finishing executor (the node's `(dt, id)`-lexicographic min).
    pub id: ExecutorId,
}

impl ShardKey {
    /// Strict "finishes before" order; see the module docs for why this
    /// matches the fresh-`(dt, id)` oracle comparison.
    fn beats(&self, other: &ShardKey) -> bool {
        if self.t != other.t {
            return self.t < other.t;
        }
        if self.elapsed.to_bits() == other.elapsed.to_bits() {
            (self.dt, self.id) < (other.dt, other.id)
        } else {
            self.id < other.id
        }
    }
}

/// A flat winner tree over `count` slots holding optional [`ShardKey`]s.
///
/// The keys live in their own per-slot array. Slot `i`'s leaf sits at
/// `base + i`, and internal node `k` holds the *slot index* of the winner
/// of its two children ([`VACANT`] when both are empty; an empty slot
/// loses to everything). `winners[1]` is the champion.
///
/// A match's outcome depends only on the two winners' slots and keys. So
/// when an update leaves some match won by the same slot as before, and
/// that slot is not the updated one, every match above it replays to the
/// same result too, and [`TourneyTree::update`] stops there.
#[derive(Debug)]
pub(crate) struct TourneyTree {
    /// Leaf base: the smallest power of two ≥ `count` (≥ 1).
    base: usize,
    /// Each slot's key; `None` for a vacant slot.
    keys: Vec<Option<ShardKey>>,
    /// `2·base` entries of winning slot indices; index 0 unused.
    winners: Vec<usize>,
}

/// The winner entry of a match between two vacant slots.
const VACANT: usize = usize::MAX;

impl TourneyTree {
    /// An empty tree with `count` slots, all vacant.
    pub fn new(count: usize) -> Self {
        let base = count.max(1).next_power_of_two();
        TourneyTree {
            base,
            keys: vec![None; base],
            winners: vec![VACANT; 2 * base],
        }
    }

    /// Sets slot `slot`'s key (or vacates it with `None`) and replays its
    /// matches toward the root, stopping at the first one still won by
    /// the same other slot.
    pub fn update(&mut self, slot: usize, key: Option<ShardKey>) {
        debug_assert!(
            slot < self.base,
            "slot {slot} outside tree of {}",
            self.base
        );
        self.keys[slot] = key;
        let mut i = self.base + slot;
        self.winners[i] = if key.is_some() { slot } else { VACANT };
        while i > 1 {
            i /= 2;
            let won = self.winner_of(self.winners[2 * i], self.winners[2 * i + 1]);
            if won == self.winners[i] && won != slot {
                break;
            }
            self.winners[i] = won;
        }
    }

    /// The champion: the winning key and its slot, if any slot is filled.
    pub fn winner(&self) -> Option<(ShardKey, usize)> {
        let slot = self.winners[1];
        self.key(slot).map(|&k| (k, slot))
    }

    /// The key of `slot`, `None` for [`VACANT`] or an empty slot.
    fn key(&self, slot: usize) -> Option<&ShardKey> {
        self.keys.get(slot).and_then(Option::as_ref)
    }

    /// The slot winning a match between slots `a` and `b`.
    fn winner_of(&self, a: usize, b: usize) -> usize {
        match (self.key(a), self.key(b)) {
            // Keys carry unique executor ids, so `beats` is a strict
            // total order here — ties cannot occur.
            (Some(x), Some(y)) => {
                if x.beats(y) {
                    a
                } else {
                    b
                }
            }
            (Some(_), None) => a,
            (None, _) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: f64, elapsed: f64, dt: f64, id: usize) -> ShardKey {
        ShardKey {
            t,
            elapsed,
            dt,
            id: ExecutorId(id),
        }
    }

    #[test]
    fn empty_tree_has_no_winner() {
        let tree = TourneyTree::new(7);
        assert_eq!(tree.winner(), None);
    }

    #[test]
    fn winner_is_global_min_and_updates_replay_matches() {
        let mut tree = TourneyTree::new(5);
        tree.update(0, Some(key(30.0, 0.0, 30.0, 0)));
        tree.update(3, Some(key(10.0, 0.0, 10.0, 3)));
        tree.update(4, Some(key(20.0, 0.0, 20.0, 4)));
        assert_eq!(
            tree.winner().map(|(k, s)| (k.id, s)),
            Some((ExecutorId(3), 3))
        );
        // The winner leaving promotes the runner-up.
        tree.update(3, None);
        assert_eq!(
            tree.winner().map(|(k, s)| (k.id, s)),
            Some((ExecutorId(4), 4))
        );
        // A later, better key takes over.
        tree.update(1, Some(key(5.0, 2.0, 3.0, 9)));
        assert_eq!(tree.winner().map(|(_, s)| s), Some(1));
        // Vacating everything empties the tournament.
        tree.update(0, None);
        tree.update(1, None);
        tree.update(4, None);
        assert_eq!(tree.winner(), None);
    }

    #[test]
    fn t_tie_same_refresh_instant_falls_back_to_dt_then_id() {
        // Same elapsed bits: the (dt, id) comparison is the oracle's own.
        // Float absorption can make e + dt collapse distinct dts to the
        // same t; the raw dt comparison must still order them.
        let big = 1e12;
        let (d1, d2) = (1.0, 1.0 + 1e-6);
        let t1 = big + d1;
        let t2 = big + d2;
        assert_eq!(t1, t2, "absorption collapses the sums");
        let mut tree = TourneyTree::new(2);
        tree.update(0, Some(key(t2, big, d2, 0)));
        tree.update(1, Some(key(t1, big, d1, 1)));
        assert_eq!(
            tree.winner().map(|(k, _)| k.id),
            Some(ExecutorId(1)),
            "smaller dt wins despite equal t and smaller opposing id"
        );
        // Exactly equal dt too: lowest id wins, as in the oracle.
        tree.update(1, Some(key(t1, big, d2, 1)));
        assert_eq!(tree.winner().map(|(k, _)| k.id), Some(ExecutorId(0)));
    }

    #[test]
    fn t_tie_across_refresh_instants_breaks_by_id() {
        let mut tree = TourneyTree::new(2);
        tree.update(0, Some(key(50.0, 10.0, 40.0, 7)));
        tree.update(1, Some(key(50.0, 20.0, 30.0, 3)));
        assert_eq!(tree.winner().map(|(k, _)| k.id), Some(ExecutorId(3)));
    }

    #[test]
    fn single_slot_tree_works() {
        let mut tree = TourneyTree::new(1);
        tree.update(0, Some(key(1.0, 0.0, 1.0, 0)));
        assert_eq!(tree.winner().map(|(_, s)| s), Some(0));
        tree.update(0, None);
        assert_eq!(tree.winner(), None);
    }
    proptest::proptest! {
        /// Through random updates and vacancies, the early-exit tree's
        /// champion is the brute-force `beats` minimum over the filled
        /// slots. Keys share refresh instants and absolute times often, so
        /// every branch of `beats` is taken.
        #[test]
        fn early_exit_winner_is_the_brute_force_minimum(
            count in 1usize..12,
            ops in proptest::collection::vec(
                (0usize..12, 0u8..6, 0u8..4, 0u8..4),
                1..80,
            ),
        ) {
            let mut tree = TourneyTree::new(count);
            let mut slots: Vec<Option<ShardKey>> = vec![None; count];
            for (n, &(slot, vacate, t, e)) in ops.iter().enumerate() {
                let slot = slot % count;
                let key = (vacate != 0).then(|| {
                    let (t, elapsed) = (f64::from(t) * 10.0, f64::from(e));
                    // Ids stay unique across live keys: the op index.
                    key(t, elapsed, t - elapsed, n)
                });
                tree.update(slot, key);
                slots[slot] = key;
                let brute = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, k)| k.map(|k| (k, s)))
                    .reduce(|best, c| if c.0.beats(&best.0) { c } else { best });
                proptest::prop_assert_eq!(
                    tree.winner().map(|(k, s)| (k.id, s)),
                    brute.map(|(k, s)| (k.id, s))
                );
            }
        }
    }
}
