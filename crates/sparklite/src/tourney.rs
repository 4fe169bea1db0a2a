//! A tournament (winner) tree over per-node minimum completion keys.
//!
//! The sharded rate cache keeps, per node, the key of the executor that
//! finishes first on that node. The global next completion is then the
//! winner of a knockout tournament over those per-node keys: a flat binary
//! tree of `2·P` slots where updating one node's key replays only its
//! `log₂ P` matches, so placement mutations that touch a handful of nodes
//! maintain the global minimum in O(dirty · log P) instead of O(E).
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
/// Slot `i`'s leaf lives at `base + i`; internal node `k` holds the winner
/// of its two children (`None` loses to everything). `nodes[1]` is the
/// champion.
#[derive(Debug)]
pub(crate) struct TourneyTree {
    /// Leaf base: the smallest power of two ≥ `count` (≥ 1).
    base: usize,
    /// `2·base` slots; index 0 unused.
    nodes: Vec<Option<(ShardKey, usize)>>,
}

impl TourneyTree {
    /// An empty tree with `count` slots, all vacant.
    pub fn new(count: usize) -> Self {
        let base = count.max(1).next_power_of_two();
        TourneyTree {
            base,
            nodes: vec![None; 2 * base],
        }
    }

    /// Sets slot `slot`'s key (or vacates it with `None`) and replays its
    /// `log₂ base` matches up to the root.
    pub fn update(&mut self, slot: usize, key: Option<ShardKey>) {
        debug_assert!(
            slot < self.base,
            "slot {slot} outside tree of {}",
            self.base
        );
        let mut i = self.base + slot;
        self.nodes[i] = key.map(|k| (k, slot));
        while i > 1 {
            i /= 2;
            self.nodes[i] = Self::winner_of(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// The champion: the winning key and its slot, if any slot is filled.
    pub fn winner(&self) -> Option<(ShardKey, usize)> {
        self.nodes[1]
    }

    fn winner_of(
        a: Option<(ShardKey, usize)>,
        b: Option<(ShardKey, usize)>,
    ) -> Option<(ShardKey, usize)> {
        match (a, b) {
            (Some(x), Some(y)) => {
                // Keys carry unique executor ids, so `beats` is a strict
                // total order here — ties cannot occur.
                if x.0.beats(&y.0) {
                    Some(x)
                } else {
                    Some(y)
                }
            }
            (Some(x), None) => Some(x),
            (None, y) => y,
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
}
