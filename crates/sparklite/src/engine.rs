//! The processor-sharing progress engine.
//!
//! [`ClusterEngine`] owns the cluster state, the submitted applications and
//! the live executors. It does **not** own the clock or make placement
//! decisions: a driver loop (the `colocate` harness) alternates between
//!
//! 1. asking the engine for the time of the next executor completion
//!    ([`ClusterEngine::next_completion`]),
//! 2. advancing progress to that instant ([`ClusterEngine::advance`]), and
//! 3. reacting — completing executors, spawning new ones per its policy.
//!
//! Rates are recomputed lazily from the current placement, so any change
//! (spawn, completion, kill) is reflected in the very next query. This is
//! the standard piecewise-constant-rate simulation of processor sharing.
//!
//! Internally the rate cache is **sharded per node** (DESIGN.md §13): a
//! placement mutation dirties only the touched node's shard, and the next
//! query recomputes just the dirty shards — with exactly the arithmetic
//! [`ClusterEngine::current_rates`] performs per node (same member order,
//! same float operations), so caching never changes a single output bit.
//! Untouched *cool* nodes (final footprints within RAM) keep their rates
//! verbatim across `advance` calls: their paging overflow is exactly
//! `0.0` — footprints only ramp *toward* the final sum, and the
//! floating-point sum is monotone — so `exp(-0.0) = 1.0` exactly and the
//! multipliers depend only on CPU demands, which only mutations change.
//! *Hot* nodes (final footprints above RAM) are re-dirtied on every
//! `advance`, because their paging factor tracks the ramping occupancy.
//!
//! The global next completion is maintained by a tournament tree over
//! per-node minimum completion keys ([`crate::tourney`]): O(log N) per
//! dirtied node instead of an O(E) scan per query, with
//! [`ClusterEngine::next_completion_naive`] retained as the from-scratch
//! oracle the property tests pin the tree against.

use crate::app::{AppId, AppSpec, AppState};
use crate::cluster::{Cluster, ClusterSpec, NodeId};
use crate::executor::{Executor, ExecutorId};
use crate::perf::{ExecutorDemand, InterferenceModel, MemoryPressure};
use crate::tourney::{ShardKey, TourneyTree};
use crate::SparkliteError;
use simkit::SimRng;
use std::collections::BTreeMap;

/// One node's slice of the rate cache.
#[derive(Debug, Clone)]
struct NodeShard {
    /// Ids of live executors on this node, ascending (= spawn order).
    members: Vec<ExecutorId>,
    /// The members' summed CPU demand, [`cpu_demand`] over the node's
    /// executors. Executor demands never change after spawn, so only a
    /// membership change (spawn or removal) recomputes it.
    cpu_total: f64,
    /// Whether the members' *final* footprints overflow RAM. Hot shards
    /// must refresh after every `advance` (their paging factor ramps);
    /// cool shards provably keep their multipliers bit-for-bit. Only
    /// membership or slice mutations change this, so it stays correct on
    /// clean shards across any number of advances.
    hot: bool,
    /// The node's minimum completion key at its last refresh.
    key: Option<ShardKey>,
}

impl Default for NodeShard {
    fn default() -> Self {
        NodeShard {
            members: Vec::new(),
            // An empty node sums to `-0.0`, `f64`'s additive identity: the
            // cache starts with the bits a walk over no executors gives.
            cpu_total: cpu_demand(std::iter::empty()),
            hot: false,
            key: None,
        }
    }
}

/// `exec_index` entry of an executor that has left the engine.
const DEAD: usize = usize::MAX;

/// Dense position of executor `id` by the engine's id table, if it is live.
fn live_pos(exec_index: &[usize], id: ExecutorId) -> Option<usize> {
    exec_index.get(id.0).copied().filter(|&pos| pos != DEAD)
}

/// Summed CPU demand of `execs`, in iteration order — the one expression
/// behind [`ClusterEngine::node_cpu_load`]'s cached total.
fn cpu_demand<'a>(execs: impl Iterator<Item = &'a Executor>) -> f64 {
    execs.map(Executor::cpu_util).sum()
}

/// Incrementally maintained executor rates, sharded per node.
///
/// `exec_rates` is parallel to the engine's dense executor storage. Each
/// shard is refreshed lazily on the first query after a mutation dirties
/// it, re-running exactly the per-node arithmetic
/// [`ClusterEngine::current_rates`] performs so cached and from-scratch
/// values are bit-identical. The scratch vectors are reused across
/// refreshes, keeping the hot path allocation-free at steady state.
#[derive(Debug)]
struct RateCache {
    /// Effective rate (GB/s) per executor, parallel to the dense storage.
    exec_rates: Vec<f64>,
    shards: Vec<NodeShard>,
    /// Indices of dirty shards awaiting refresh (each at most once).
    dirty_stack: Vec<usize>,
    /// Number of shards whose `hot` flag is set, kept by
    /// [`ClusterEngine::refresh_rates`] (the only writer of the flags), so
    /// the walks over hot shards are skipped outright when there are none.
    hot_count: usize,
    /// Dirty flag per shard, guarding `dirty_stack` against duplicates.
    is_dirty: Vec<bool>,
    /// Tournament tree over the shards' completion keys.
    tree: TourneyTree,
    /// Scratch: one node's demands, in member (id) order.
    node_demands: Vec<ExecutorDemand>,
    /// Scratch: one node's rate multipliers.
    multipliers: Vec<f64>,
    /// Scratch: one node's member positions in the dense storage.
    member_pos: Vec<usize>,
}

impl RateCache {
    fn new(nodes: usize) -> Self {
        RateCache {
            exec_rates: Vec::new(),
            shards: vec![NodeShard::default(); nodes],
            dirty_stack: Vec::new(),
            hot_count: 0,
            is_dirty: vec![false; nodes],
            tree: TourneyTree::new(nodes),
            node_demands: Vec::new(),
            multipliers: Vec::new(),
            member_pos: Vec::new(),
        }
    }

    fn mark_dirty(&mut self, node: usize) {
        if !self.is_dirty[node] {
            self.is_dirty[node] = true;
            self.dirty_stack.push(node);
        }
    }
}

/// The cluster simulation engine.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct ClusterEngine {
    cluster: Cluster,
    model: InterferenceModel,
    apps: Vec<AppState>,
    /// Live executors in dense, **unordered** storage: removal is an O(1)
    /// swap instead of an O(E) shift. Everything that needs id (spawn)
    /// order goes through `exec_index`, a shard's member list or an app's
    /// member list.
    executors: Vec<Executor>,
    /// Position in `executors` of every executor ever spawned, indexed by
    /// id ([`DEAD`] once it has left). Ids are handed out densely in spawn
    /// order, so the table's length is the next id.
    exec_index: Vec<usize>,
    /// Ids of each application's live executors, ascending, indexed by
    /// app id.
    app_members: Vec<Vec<ExecutorId>>,
    rng: SimRng,
    /// Fixed per-executor startup latency (JVM launch, container
    /// allocation, task scheduling), charged as dead work at the
    /// executor's nominal rate. Zero by default.
    startup_secs: f64,
    /// Total simulated seconds this engine has advanced — pure
    /// bookkeeping feeding the completion keys' absolute times; nothing
    /// in the progress arithmetic reads it.
    elapsed: f64,
    rate_cache: RateCache,
}

impl ClusterEngine {
    /// Creates an engine over a fresh cluster with a default RNG seed.
    #[must_use]
    pub fn new(spec: ClusterSpec, model: InterferenceModel) -> Self {
        Self::with_seed(spec, model, 0)
    }

    /// Creates an engine with an explicit seed for footprint-noise draws.
    #[must_use]
    pub fn with_seed(spec: ClusterSpec, model: InterferenceModel, seed: u64) -> Self {
        let cluster = Cluster::new(spec);
        let nodes = cluster.len();
        ClusterEngine {
            cluster,
            model,
            apps: Vec::new(),
            executors: Vec::new(),
            exec_index: Vec::new(),
            app_members: Vec::new(),
            rng: SimRng::seed_from(seed),
            startup_secs: 0.0,
            elapsed: 0.0,
            rate_cache: RateCache::new(nodes),
        }
    }

    /// Sets the fixed startup latency charged to every newly spawned
    /// executor (seconds of dead work at the executor's nominal rate).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite values.
    pub fn set_executor_startup_secs(&mut self, secs: f64) {
        assert!(secs.is_finite() && secs >= 0.0);
        self.startup_secs = secs;
    }

    /// The configured per-executor startup latency (s).
    #[must_use]
    pub fn executor_startup_secs(&self) -> f64 {
        self.startup_secs
    }

    /// Total simulated seconds accumulated by [`ClusterEngine::advance`].
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// The cluster.
    #[must_use]
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The interference model in use.
    #[must_use]
    pub fn interference_model(&self) -> InterferenceModel {
        self.model
    }

    /// Submits an application; it starts with its whole input unassigned.
    pub fn submit(&mut self, spec: AppSpec) -> AppId {
        self.apps.push(AppState::new(spec));
        self.app_members.push(Vec::new());
        AppId(self.apps.len() - 1)
    }

    /// Borrow an application's state.
    ///
    /// # Panics
    ///
    /// Panics on an id from another engine.
    #[must_use]
    pub fn app(&self, id: AppId) -> &AppState {
        &self.apps[id.0]
    }

    /// Number of submitted applications.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// Iterates over `(id, state)` for all submitted applications.
    pub fn apps(&self) -> impl Iterator<Item = (AppId, &AppState)> {
        self.apps.iter().enumerate().map(|(i, a)| (AppId(i), a))
    }

    /// Whether every submitted application has finished.
    #[must_use]
    pub fn all_finished(&self) -> bool {
        self.apps.iter().all(AppState::is_finished)
    }

    /// Borrow a live executor.
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownExecutor`] if it finished or never
    /// existed.
    pub fn executor(&self, id: ExecutorId) -> Result<&Executor, SparkliteError> {
        live_pos(&self.exec_index, id)
            .map(|pos| &self.executors[pos])
            .ok_or(SparkliteError::UnknownExecutor(id.0))
    }

    /// Ids of live executors on `node`, in spawn order.
    ///
    /// Allocates; hot paths that only iterate should prefer
    /// [`ClusterEngine::node_executors_iter`].
    #[must_use]
    pub fn node_executors(&self, node: NodeId) -> Vec<ExecutorId> {
        self.node_executors_iter(node).collect()
    }

    /// Iterates ids of live executors on `node`, in spawn order, without
    /// allocating. O(members), served from the node's shard.
    pub fn node_executors_iter(&self, node: NodeId) -> impl Iterator<Item = ExecutorId> + '_ {
        self.rate_cache.shards[node.index()].members.iter().copied()
    }

    /// Iterates live executors on `node`, in spawn order.
    pub fn executors_on(&self, node: NodeId) -> impl Iterator<Item = &Executor> {
        self.rate_cache.shards[node.index()]
            .members
            .iter()
            .filter_map(move |&id| live_pos(&self.exec_index, id).map(|pos| &self.executors[pos]))
    }

    /// Number of live executors on `node`.
    #[must_use]
    pub fn node_executor_count(&self, node: NodeId) -> usize {
        self.rate_cache.shards[node.index()].members.len()
    }

    /// Iterates all live executors cluster-wide, in spawn (id) order.
    /// Walks the id table, so it costs O(executors ever spawned).
    pub fn executors_iter(&self) -> impl Iterator<Item = &Executor> {
        self.exec_index
            .iter()
            .filter(|&&pos| pos != DEAD)
            .map(|&pos| &self.executors[pos])
    }

    /// Iterates `app`'s live executors, in spawn (id) order. O(its
    /// executors), served from the app's member list, which holds live
    /// ids only.
    ///
    /// # Panics
    ///
    /// Panics on an id from another engine.
    pub fn app_executors(&self, app: AppId) -> impl Iterator<Item = &Executor> {
        self.app_members[app.0]
            .iter()
            .map(move |id| &self.executors[self.exec_index[id.0]])
    }

    /// Number of live executors cluster-wide.
    #[must_use]
    pub fn live_executors(&self) -> usize {
        self.executors.len()
    }

    /// A noisy footprint measurement for a profiling run on `slice_gb` of
    /// `app`'s input — what `vmstat` would report for the executor (§4.1).
    pub fn measure_footprint(&mut self, app: AppId, slice_gb: f64) -> f64 {
        let spec = self.apps[app.0].spec();
        let noise = self.rng.relative_noise(spec.footprint_noise_sd);
        spec.true_footprint_gb(slice_gb) * noise
    }

    /// Credits profiling work toward an application's output (§2.3: "no
    /// computing cycle is wasted on profiling").
    pub fn credit_profiled(&mut self, app: AppId, gb: f64) {
        self.apps[app.0].credit_profiled(gb);
    }

    /// Marks `node`'s shard dirty and files the node as touched: its
    /// executor set, or what they demand, changed.
    fn invalidate(&mut self, node: NodeId) {
        self.rate_cache.mark_dirty(node.index());
        self.cluster.touch(node);
    }

    /// Moves the nodes whose reservations, executor set or online state
    /// changed since the last call into `out` (cleared first), each once.
    /// Every such change passes [`Cluster::node_mut`] or
    /// [`ClusterEngine::invalidate`], which file the node. A placement view
    /// kept across events re-reads only these nodes: nothing else in a
    /// node's free memory, executor count, CPU load or online flag can
    /// have moved. [`ClusterEngine::advance`] files nothing; it ramps
    /// footprints and progress, which none of those read.
    pub fn take_touched_nodes(&mut self, out: &mut Vec<NodeId>) {
        self.cluster.take_touched(out);
    }

    /// Spawns an executor for `app` on `node`:
    ///
    /// * takes up to `slice_gb` of the app's unassigned input (clamped to
    ///   what remains; `Ok(None)` if nothing remains);
    /// * reserves `reserve_gb` of the node's memory (the *predicted*
    ///   footprint the scheduler budgeted);
    /// * draws the *actual* footprint from the app's ground-truth curve
    ///   plus measurement noise.
    ///
    /// The caller should check [`ClusterEngine::memory_pressure`] afterwards
    /// and resolve any [`MemoryPressure::OutOfMemory`] with
    /// [`ClusterEngine::kill_executor`].
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownNode`] / [`SparkliteError::UnknownApp`]
    /// for bad ids, [`SparkliteError::InvalidState`] for a finished app and
    /// [`SparkliteError::Resource`] when the reservation does not fit (the
    /// app's input is left untouched in that case).
    pub fn spawn_executor(
        &mut self,
        app: AppId,
        node: NodeId,
        slice_gb: f64,
        reserve_gb: f64,
    ) -> Result<Option<ExecutorId>, SparkliteError> {
        if !self.cluster.contains(node) {
            return Err(SparkliteError::UnknownNode(node.index()));
        }
        if !self.cluster.node(node).is_online() {
            return Err(SparkliteError::NodeOffline(node.index()));
        }
        let state = self
            .apps
            .get_mut(app.0)
            .ok_or(SparkliteError::UnknownApp(app.0))?;
        if state.is_finished() {
            return Err(SparkliteError::InvalidState(format!(
                "{app} already finished"
            )));
        }
        // Reserve memory first so failure leaves the app untouched.
        self.cluster.node_mut(node).reserve(reserve_gb)?;
        let taken = self.apps[app.0].take_input(slice_gb);
        if taken <= 1e-12 {
            self.cluster.node_mut(node).release(reserve_gb)?;
            return Ok(None);
        }
        let spec = self.apps[app.0].spec();
        let noise = self.rng.relative_noise(spec.footprint_noise_sd);
        let actual = spec.true_footprint_gb(taken) * noise;
        let cpu = spec.cpu_util;
        let id = ExecutorId(self.exec_index.len());
        let pos = self.executors.len();
        self.executors.push(Executor::new(
            id,
            app,
            node,
            taken,
            reserve_gb,
            actual,
            cpu,
            self.startup_secs * spec.rate_gb_per_s,
        ));
        self.exec_index.push(pos);
        // A placeholder until the dirtied shard refreshes.
        self.rate_cache.exec_rates.push(0.0);
        // Ids increase monotonically, so a push keeps members sorted.
        self.rate_cache.shards[node.index()].members.push(id);
        self.app_members[app.0].push(id);
        self.recount_cpu(node);
        self.invalidate(node);
        Ok(Some(id))
    }

    /// Recomputes `node`'s cached CPU demand after a membership change.
    fn recount_cpu(&mut self, node: NodeId) {
        let total = cpu_demand(self.executors_on(node));
        self.rate_cache.shards[node.index()].cpu_total = total;
    }

    /// Removes executor `id` from the dense storage, the id table, and its
    /// shard's and app's member lists, dirtying its node and recounting
    /// its CPU demand. O(1) plus O(members) for the member-list shifts and
    /// the recount.
    fn take_executor(&mut self, id: ExecutorId) -> Option<Executor> {
        let pos = live_pos(&self.exec_index, id)?;
        self.exec_index[id.0] = DEAD;
        let exec = self.executors.swap_remove(pos);
        self.rate_cache.exec_rates.swap_remove(pos);
        if let Some(moved) = self.executors.get(pos) {
            // The former tail moved into `pos`: re-point its table entry.
            self.exec_index[moved.id().0] = pos;
        }
        let shard = &mut self.rate_cache.shards[exec.node().index()];
        if let Ok(m) = shard.members.binary_search(&id) {
            shard.members.remove(m);
        }
        let members = &mut self.app_members[exec.app().0];
        if let Ok(m) = members.binary_search(&id) {
            members.remove(m);
        }
        self.recount_cpu(exec.node());
        self.invalidate(exec.node());
        Some(exec)
    }

    /// Extends a live executor's slice with more of its application's
    /// unassigned input — §4.3's "the number of data items to give to the
    /// co-located executor is dynamically adjusted over time". The
    /// executor's reservation grows by `extra_reserve_gb` and its actual
    /// footprint is re-drawn for the larger slice. Returns the GB actually
    /// added (0 when the app has nothing left).
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownExecutor`] for dead ids and
    /// [`SparkliteError::Resource`] if the extra reservation does not fit
    /// (the executor is left unchanged).
    pub fn extend_executor(
        &mut self,
        id: ExecutorId,
        extra_gb: f64,
        extra_reserve_gb: f64,
    ) -> Result<f64, SparkliteError> {
        let pos = live_pos(&self.exec_index, id).ok_or(SparkliteError::UnknownExecutor(id.0))?;
        let (app, node) = {
            let exec = &self.executors[pos];
            (exec.app(), exec.node())
        };
        if !self.cluster.node(node).is_online() {
            return Err(SparkliteError::NodeOffline(node.index()));
        }
        self.cluster.node_mut(node).reserve(extra_reserve_gb)?;
        let taken = self.apps[app.0].take_input_for_extension(extra_gb);
        if taken <= 1e-12 {
            self.cluster.node_mut(node).release(extra_reserve_gb)?;
            return Ok(0.0);
        }
        let spec = self.apps[app.0].spec();
        let noise = self.rng.relative_noise(spec.footprint_noise_sd);
        let exec = &mut self.executors[pos];
        let new_slice = exec.slice_gb() + taken;
        let new_actual = spec.true_footprint_gb(new_slice) * noise;
        exec.extend(taken, extra_reserve_gb, new_actual);
        self.invalidate(node);
        Ok(taken)
    }

    /// The memory pressure on `node` given the executors' *current*
    /// occupancy (which ramps with progress — see
    /// [`Executor::current_actual_gb`]).
    #[must_use]
    pub fn memory_pressure(&self, node: NodeId) -> MemoryPressure {
        let total: f64 = self
            .executors_on(node)
            .map(Executor::current_actual_gb)
            .sum();
        let spec = self.cluster.node(node).spec();
        self.model.memory_pressure(total, spec.ram_gb, spec.swap_gb)
    }

    /// Nodes whose executors' **final** footprints overflow RAM, in index
    /// order — the only nodes that can ever page or go out-of-memory.
    ///
    /// Current occupancy never exceeds the final footprint
    /// ([`Executor::current_actual_gb`] ramps toward `actual_gb`) and the
    /// floating-point sum is monotone per operand, so a node absent from
    /// this list is guaranteed [`MemoryPressure::Fits`]: scanning only
    /// these candidates for OOM resolution visits exactly the nodes the
    /// full scan could ever act on. Takes `&mut self` to refresh dirty
    /// shards first (the hot flags must reflect pending mutations).
    pub fn hot_nodes_into(&mut self, out: &mut Vec<NodeId>) {
        self.refresh_rates();
        out.clear();
        if self.rate_cache.hot_count == 0 {
            return;
        }
        out.extend(
            self.rate_cache
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.hot)
                .map(|(i, _)| NodeId(i)),
        );
    }

    /// The youngest executor on `node` — the conventional OOM-kill victim.
    ///
    /// "Youngest" means the highest [`ExecutorId`]: ids are assigned in
    /// strictly increasing spawn order, so when two executors were spawned
    /// at the same simulated timestamp the one whose `spawn_executor` call
    /// came later (larger id) is the victim. This id-order tie-break is
    /// deterministic and mirrors the Linux OOM killer's bias toward the
    /// most recently started process.
    #[must_use]
    pub fn oom_victim(&self, node: NodeId) -> Option<ExecutorId> {
        // Members are sorted ascending, so the max is the last.
        self.rate_cache.shards[node.index()].members.last().copied()
    }

    /// Kills a live executor: its **entire slice** returns to the app's
    /// unassigned pool (an OOM-killed JVM loses its in-memory progress and
    /// must re-run from scratch, §2.3) and its reservation is released.
    /// Returns the GB returned to the pool.
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownExecutor`] for dead ids.
    pub fn kill_executor(&mut self, id: ExecutorId) -> Result<f64, SparkliteError> {
        let exec = self
            .take_executor(id)
            .ok_or(SparkliteError::UnknownExecutor(id.0))?;
        self.apps[exec.app().0].abort_slice(0.0, exec.slice_gb());
        self.cluster
            .node_mut(exec.node())
            .release(exec.reserved_gb())?;
        Ok(exec.slice_gb())
    }

    /// Whether `node` is online (accepting spawns and extensions).
    ///
    /// # Panics
    ///
    /// Panics on an id from another cluster.
    #[must_use]
    pub fn node_online(&self, node: NodeId) -> bool {
        self.cluster.node(node).is_online()
    }

    /// Crashes a node: every live executor on it is killed — each slice
    /// returns in full to its application's unassigned pool, exactly like
    /// an OOM kill — the node's reservations drop to zero and the node
    /// goes offline (spawns and extensions are refused until
    /// [`ClusterEngine::restore_node`]). Returns the killed executors'
    /// `(owner, lost slice GB)` pairs in spawn order. Failing a node that
    /// is already offline is a no-op returning an empty list, so
    /// overlapping outages in a fault plan compose safely.
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownNode`] for bad ids, and propagates
    /// reservation-accounting failures from the kills (which indicate
    /// engine bugs, not expected conditions).
    pub fn fail_node(&mut self, node: NodeId) -> Result<Vec<(AppId, f64)>, SparkliteError> {
        if !self.cluster.contains(node) {
            return Err(SparkliteError::UnknownNode(node.index()));
        }
        if !self.cluster.node(node).is_online() {
            return Ok(Vec::new());
        }
        let victims = self.node_executors(node);
        let mut lost = Vec::with_capacity(victims.len());
        for id in victims {
            let owner = self.executor(id)?.app();
            let slice = self.kill_executor(id)?;
            lost.push((owner, slice));
        }
        self.cluster.node_mut(node).set_online(false);
        self.invalidate(node);
        Ok(lost)
    }

    /// Brings a crashed node back online with empty memory. Restoring an
    /// online node is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownNode`] for bad ids.
    pub fn restore_node(&mut self, node: NodeId) -> Result<(), SparkliteError> {
        if !self.cluster.contains(node) {
            return Err(SparkliteError::UnknownNode(node.index()));
        }
        self.cluster.node_mut(node).set_online(true);
        self.invalidate(node);
        Ok(())
    }

    /// Refreshes every dirty shard of the rate cache.
    ///
    /// Per shard: demands are gathered in member (id) order — exactly the
    /// order [`ClusterEngine::current_rates`] visits a node's executors —
    /// the multipliers come from the same
    /// [`InterferenceModel::rate_multipliers_into`] call, and each rate is
    /// the same `nominal * multiplier` product, so a refreshed shard is
    /// bit-identical to a from-scratch recomputation. The shard's `hot`
    /// flag and minimum completion key are recomputed alongside and the
    /// tournament tree is updated. Shards are independent, so refresh
    /// order cannot affect any value.
    fn refresh_rates(&mut self) {
        let apps = &self.apps;
        let executors = &self.executors;
        let exec_index = &self.exec_index;
        let cluster = &self.cluster;
        let model = &self.model;
        let elapsed = self.elapsed;
        let RateCache {
            exec_rates,
            shards,
            dirty_stack,
            hot_count,
            is_dirty,
            tree,
            node_demands,
            multipliers,
            member_pos,
        } = &mut self.rate_cache;

        while let Some(n) = dirty_stack.pop() {
            is_dirty[n] = false;
            let shard = &mut shards[n];
            node_demands.clear();
            member_pos.clear();
            for id in &shard.members {
                let Some(pos) = live_pos(exec_index, *id) else {
                    debug_assert!(false, "shard member {id} missing from the index");
                    continue;
                };
                member_pos.push(pos);
                let e = &executors[pos];
                node_demands.push(ExecutorDemand {
                    cpu_util: e.cpu_util(),
                    actual_gb: e.current_actual_gb(),
                });
            }
            let ram = cluster.node(NodeId(n)).spec().ram_gb;
            model.rate_multipliers_into(node_demands, ram, multipliers);

            let mut final_total = 0.0f64;
            let mut best: Option<(f64, ExecutorId)> = None;
            for (&pos, &mult) in member_pos.iter().zip(multipliers.iter()) {
                let e = &executors[pos];
                let nominal = apps[e.app().0].spec().rate_gb_per_s;
                let rate = nominal * mult;
                exec_rates[pos] = rate;
                final_total += e.actual_gb();
                let cand = (e.remaining_work_gb() / rate.max(1e-12), e.id());
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
            let hot = final_total > ram;
            if hot != shard.hot {
                if hot {
                    *hot_count += 1;
                } else {
                    *hot_count -= 1;
                }
                shard.hot = hot;
            }
            shard.key = best.map(|(dt, id)| ShardKey {
                t: elapsed + dt,
                elapsed,
                dt,
                id,
            });
            tree.update(n, shard.key);
        }
        debug_assert_eq!(
            *hot_count,
            shards.iter().filter(|s| s.hot).count(),
            "the hot-shard count drifted from the flags"
        );
    }

    /// Effective rates under the current placement served from the
    /// engine's incremental cache, as `(executor id, GB/s)` pairs in id
    /// order. Refreshes dirty shards if mutations invalidated them;
    /// bit-identical to [`ClusterEngine::current_rates`]. The property
    /// tests use it to check the cache against that reference.
    pub fn cached_current_rates(&mut self) -> Vec<(ExecutorId, f64)> {
        self.refresh_rates();
        let exec_rates = &self.rate_cache.exec_rates;
        self.exec_index
            .iter()
            .enumerate()
            .filter(|&(_, &pos)| pos != DEAD)
            .map(|(id, &pos)| (ExecutorId(id), exec_rates[pos]))
            .collect()
    }

    /// Effective processing rate (GB/s) of each live executor under the
    /// current placement, keyed by executor id.
    ///
    /// Always recomputes from scratch and allocates the map; this is the
    /// reference implementation the sharded cache is checked against. It
    /// deliberately bypasses the shard membership lists (it sorts the
    /// dense storage itself), so it cross-checks those too. The engine's
    /// own stepping reads the cache directly.
    #[must_use]
    pub fn current_rates(&self) -> BTreeMap<ExecutorId, f64> {
        let mut by_id: Vec<&Executor> = self.executors.iter().collect();
        by_id.sort_by_key(|e| e.id());
        let mut rates = BTreeMap::new();
        for node in self.cluster.node_ids() {
            let execs: Vec<&&Executor> = by_id.iter().filter(|e| e.node() == node).collect();
            if execs.is_empty() {
                continue;
            }
            let demands: Vec<ExecutorDemand> = execs
                .iter()
                .map(|e| ExecutorDemand {
                    cpu_util: e.cpu_util(),
                    actual_gb: e.current_actual_gb(),
                })
                .collect();
            let multipliers = self
                .model
                .rate_multipliers(&demands, self.cluster.node(node).spec().ram_gb);
            for (e, mult) in execs.iter().zip(multipliers) {
                let nominal = self.apps[e.app().0].spec().rate_gb_per_s;
                rates.insert(e.id(), nominal * mult);
            }
        }
        rates
    }

    /// Time until the next executor finishes its slice at current rates,
    /// together with the finisher (earliest; ties broken by id). `None`
    /// when no executors are live.
    ///
    /// Served by the tournament tree in O(log N) after refreshing dirty
    /// shards; the returned delay is always recomputed fresh from the
    /// winner's live state, so it carries exactly the bits
    /// [`ClusterEngine::next_completion_naive`] would produce. Takes
    /// `&mut self` only to refresh the rate cache; the simulation state is
    /// otherwise untouched.
    pub fn next_completion(&mut self) -> Option<(f64, ExecutorId)> {
        self.refresh_rates();
        let (key, _) = self.rate_cache.tree.winner()?;
        let pos = live_pos(&self.exec_index, key.id)?;
        let e = &self.executors[pos];
        let rate = self.rate_cache.exec_rates[pos].max(1e-12);
        Some((e.remaining_work_gb() / rate, e.id()))
    }

    /// From-scratch reference for [`ClusterEngine::next_completion`]: the
    /// `(delay, id)`-lexicographic minimum over all live executors with
    /// rates recomputed by [`ClusterEngine::current_rates`]. O(N·E) and
    /// allocating — this is the oracle the property tests pin the
    /// tournament tree against, not a production path.
    #[must_use]
    pub fn next_completion_naive(&self) -> Option<(f64, ExecutorId)> {
        let rates = self.current_rates();
        rates
            .iter()
            .map(|(&id, &r)| {
                let pos = self.exec_index[id.0];
                let rate = r.max(1e-12);
                (self.executors[pos].remaining_work_gb() / rate, id)
            })
            // Times are finite (rates are clamped away from zero), so the
            // partial order is total here; `Equal` would only ever keep
            // the fold's current candidate.
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Advances every live executor by `dt` seconds at current rates.
    ///
    /// The progress integration is the same executor-local
    /// `advance(rate · dt)` whatever the storage order (no cross-executor
    /// arithmetic), so the dense unordered scan is bit-identical to an
    /// id-ordered one. Afterwards, hot shards are re-dirtied (their paging
    /// factors track the ramping occupancy) and so is any shard whose
    /// executor just finished (its completion key must go fresh so
    /// same-instant ties resolve in id order, as the oracle does); cool
    /// shards keep rates and keys — their multipliers are provably
    /// unchanged and their keys store absolute completion times.
    ///
    /// # Panics
    ///
    /// Panics on negative `dt`.
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot advance by negative time");
        if dt == 0.0 {
            return;
        }
        self.refresh_rates();
        let RateCache {
            exec_rates,
            shards,
            dirty_stack,
            hot_count,
            is_dirty,
            ..
        } = &mut self.rate_cache;
        debug_assert_eq!(exec_rates.len(), self.executors.len());
        for (exec, &rate) in self.executors.iter_mut().zip(exec_rates.iter()) {
            exec.advance(rate * dt);
            if exec.is_done() {
                let n = exec.node().index();
                if !is_dirty[n] {
                    is_dirty[n] = true;
                    dirty_stack.push(n);
                }
            }
        }
        self.elapsed += dt;
        if *hot_count == 0 {
            return;
        }
        for (n, shard) in shards.iter().enumerate() {
            if shard.hot && !is_dirty[n] {
                is_dirty[n] = true;
                dirty_stack.push(n);
            }
        }
    }

    /// Completes an executor whose slice is done: releases its reservation
    /// and credits the slice to the application.
    ///
    /// # Errors
    ///
    /// Returns [`SparkliteError::UnknownExecutor`] for dead ids and
    /// [`SparkliteError::InvalidState`] if the slice is not finished yet.
    pub fn complete_executor(&mut self, id: ExecutorId) -> Result<(), SparkliteError> {
        let exec = self.executor(id)?;
        if !exec.is_done() {
            return Err(SparkliteError::InvalidState(format!(
                "{id} still has {:.3} GB remaining",
                exec.remaining_gb()
            )));
        }
        let Some(exec) = self.take_executor(id) else {
            return Err(SparkliteError::UnknownExecutor(id.0));
        };
        self.apps[exec.app().0].finish_slice(exec.slice_gb());
        self.cluster
            .node_mut(exec.node())
            .release(exec.reserved_gb())?;
        Ok(())
    }

    /// Instantaneous CPU load of `node` as a fraction in `[0, 1]`: the sum
    /// of executor demands, capped at capacity. This is what the resource
    /// monitor daemon reports (§4.2) and what Fig. 7 plots. O(1): the sum
    /// is cached on the node's shard and recomputed on spawn and removal.
    #[must_use]
    pub fn node_cpu_load(&self, node: NodeId) -> f64 {
        self.rate_cache.shards[node.index()].cpu_total.min(1.0)
    }

    /// From-scratch reference for [`ClusterEngine::node_cpu_load`]: walks
    /// the node's executors on every call.
    #[cfg(test)]
    fn node_cpu_load_walk(&self, node: NodeId) -> f64 {
        let total: f64 = self.executors_on(node).map(Executor::cpu_util).sum();
        total.min(1.0)
    }

    /// Free memory (GB) on `node` by scheduler reservations.
    #[must_use]
    pub fn node_free_memory(&self, node: NodeId) -> f64 {
        self.cluster.node(node).free_memory_gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkit::regression::{CurveFamily, FittedCurve};

    fn linear_app(name: &str, input: f64, cpu: f64) -> AppSpec {
        AppSpec {
            name: name.into(),
            input_gb: input,
            rate_gb_per_s: 1.0,
            cpu_util: cpu,
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m: 0.5,
                b: 1.0,
            },
            footprint_noise_sd: 0.0,
        }
    }

    fn engine(nodes: usize) -> ClusterEngine {
        ClusterEngine::new(ClusterSpec::small(nodes), InterferenceModel::default())
    }

    #[test]
    fn solo_executor_finishes_in_nominal_time() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        let (dt, who) = eng.next_completion().unwrap();
        assert_eq!(who, id);
        assert!((dt - 10.0).abs() < 1e-9, "dt = {dt}");
        eng.advance(dt);
        eng.complete_executor(id).unwrap();
        assert!(eng.app(app).is_finished());
        assert_eq!(eng.node_free_memory(node), 64.0);
    }

    #[test]
    fn co_located_executors_slow_each_other_mildly() {
        let mut eng = engine(1);
        let a = eng.submit(linear_app("a", 10.0, 0.35));
        let b = eng.submit(linear_app("b", 10.0, 0.40));
        let node = eng.cluster().node_ids()[0];
        eng.spawn_executor(a, node, 10.0, 6.0).unwrap().unwrap();
        eng.spawn_executor(b, node, 10.0, 6.0).unwrap().unwrap();
        let (dt, _) = eng.next_completion().unwrap();
        // Both slowed by < 10 % relative to the 10 s solo time.
        assert!(dt > 10.0 && dt < 11.0, "dt = {dt}");
    }

    #[test]
    fn slice_clamped_to_remaining_input() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 5.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 100.0, 10.0).unwrap().unwrap();
        assert_eq!(eng.executor(id).unwrap().slice_gb(), 5.0);
        assert_eq!(eng.app(app).unassigned_gb(), 0.0);
        // Nothing left: next spawn returns None and releases memory.
        let none = eng.spawn_executor(app, node, 10.0, 10.0).unwrap();
        assert!(none.is_none());
        assert_eq!(eng.node_free_memory(node), 64.0 - 10.0);
    }

    #[test]
    fn reservation_failure_leaves_app_untouched() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let err = eng.spawn_executor(app, node, 10.0, 100.0);
        assert!(matches!(err, Err(SparkliteError::Resource(_))));
        assert_eq!(eng.app(app).unassigned_gb(), 10.0);
        assert_eq!(eng.live_executors(), 0);
    }

    #[test]
    fn oom_detection_and_kill() {
        let mut eng = engine(1);
        // Each executor actually needs 45 GB: two fit in RAM+swap only
        // via paging... actually 90 > 64+16, so OOM.
        let big = AppSpec {
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m: 0.0,
                b: 45.0,
            },
            ..linear_app("big", 100.0, 0.3)
        };
        let a = eng.submit(big.clone());
        let b = eng.submit(big);
        let node = eng.cluster().node_ids()[0];
        // Scheduler under-predicts: reserves only 20 GB each. At launch
        // both fit (memory ramps with progress)...
        eng.spawn_executor(a, node, 50.0, 20.0).unwrap().unwrap();
        let second = eng.spawn_executor(b, node, 50.0, 20.0).unwrap().unwrap();
        assert!(!matches!(
            eng.memory_pressure(node),
            MemoryPressure::OutOfMemory
        ));
        // ...but as the executors cache their slices the combined 90 GB
        // working set blows past RAM + swap mid-run.
        if let Some((dt, _)) = eng.next_completion() {
            eng.advance(dt * 0.9);
        }
        assert_eq!(eng.memory_pressure(node), MemoryPressure::OutOfMemory);
        let victim = eng.oom_victim(node).unwrap();
        assert_eq!(victim, second, "youngest executor is the victim");
        let returned = eng.kill_executor(victim).unwrap();
        assert_eq!(returned, 50.0, "the whole slice re-runs: progress is lost");
        assert_eq!(eng.app(b).unassigned_gb(), 100.0);
        assert!(!matches!(
            eng.memory_pressure(node),
            MemoryPressure::OutOfMemory
        ));
    }

    #[test]
    fn oom_victim_tie_break_is_executor_id_order() {
        // Two executors spawned at the same simulated timestamp (no
        // advance between the calls): the victim must be the one spawned
        // by the LATER call — the larger ExecutorId — pinning the
        // documented id-order tie-break.
        let mut eng = engine(1);
        let a = eng.submit(linear_app("a", 20.0, 0.3));
        let b = eng.submit(linear_app("b", 20.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let first = eng.spawn_executor(a, node, 10.0, 6.0).unwrap().unwrap();
        let second = eng.spawn_executor(b, node, 10.0, 6.0).unwrap().unwrap();
        assert!(second > first, "ids increase in spawn order");
        assert_eq!(eng.oom_victim(node), Some(second));
        // Kill the younger: the tie-break now selects the survivor.
        eng.kill_executor(second).unwrap();
        assert_eq!(eng.oom_victim(node), Some(first));
        eng.kill_executor(first).unwrap();
        assert_eq!(eng.oom_victim(node), None);
    }

    #[test]
    fn hot_nodes_track_final_footprints() {
        let mut eng = engine(2);
        let nodes = eng.cluster().node_ids();
        // A cool app (final 6 GB) on node 0, a hot pair (45 GB each,
        // 90 GB total > 64 GB RAM) on node 1.
        let cool = eng.submit(linear_app("cool", 10.0, 0.3));
        let big = AppSpec {
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m: 0.0,
                b: 45.0,
            },
            ..linear_app("big", 100.0, 0.3)
        };
        let h = eng.submit(big);
        eng.spawn_executor(cool, nodes[0], 10.0, 6.0)
            .unwrap()
            .unwrap();
        let mut hot = Vec::new();
        eng.hot_nodes_into(&mut hot);
        assert!(hot.is_empty(), "a 6 GB footprint cannot page");
        let v1 = eng
            .spawn_executor(h, nodes[1], 50.0, 20.0)
            .unwrap()
            .unwrap();
        let v2 = eng
            .spawn_executor(h, nodes[1], 50.0, 20.0)
            .unwrap()
            .unwrap();
        eng.hot_nodes_into(&mut hot);
        assert_eq!(hot, vec![nodes[1]], "only the overloaded node is hot");
        // Killing the pair cools the node again.
        eng.kill_executor(v2).unwrap();
        eng.kill_executor(v1).unwrap();
        eng.hot_nodes_into(&mut hot);
        assert!(hot.is_empty());
    }

    #[test]
    fn failed_node_refuses_work_and_returns_slices() {
        let mut eng = engine(2);
        let app = eng.submit(linear_app("a", 30.0, 0.3));
        let nodes = eng.cluster().node_ids();
        let id = eng
            .spawn_executor(app, nodes[0], 10.0, 6.0)
            .unwrap()
            .unwrap();
        eng.advance(5.0); // half the slice processed, then the node dies
        let lost = eng.fail_node(nodes[0]).unwrap();
        assert_eq!(lost, vec![(app, 10.0)], "whole slice is lost, like OOM");
        // Work conservation: the slice is back in the unassigned pool.
        assert_eq!(eng.app(app).unassigned_gb(), 30.0);
        assert_eq!(eng.app(app).processed_gb(), 0.0);
        assert_eq!(eng.live_executors(), 0);
        // Memory returned; node offline; spawns/extensions refused.
        assert_eq!(eng.node_free_memory(nodes[0]), 64.0);
        assert!(!eng.node_online(nodes[0]));
        assert!(eng.node_online(nodes[1]));
        assert!(matches!(
            eng.spawn_executor(app, nodes[0], 10.0, 6.0),
            Err(SparkliteError::NodeOffline(0))
        ));
        assert!(matches!(
            eng.executor(id),
            Err(SparkliteError::UnknownExecutor(_))
        ));
        // Double-fail is a harmless no-op; restore brings it back.
        assert!(eng.fail_node(nodes[0]).unwrap().is_empty());
        eng.restore_node(nodes[0]).unwrap();
        assert!(eng.node_online(nodes[0]));
        eng.spawn_executor(app, nodes[0], 10.0, 6.0)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn node_lifecycle_error_paths() {
        // Failing a node never strands executors elsewhere, and bad node
        // ids surface as UnknownNode from both lifecycle calls.
        let mut eng = engine(2);
        let app = eng.submit(linear_app("a", 30.0, 0.3));
        let nodes = eng.cluster().node_ids();
        let id = eng
            .spawn_executor(app, nodes[0], 10.0, 6.0)
            .unwrap()
            .unwrap();
        // Fail the OTHER node: extension on the live node still works.
        eng.fail_node(nodes[1]).unwrap();
        assert_eq!(eng.extend_executor(id, 5.0, 3.0).unwrap(), 5.0);
        assert!(matches!(
            eng.fail_node(NodeId(9)),
            Err(SparkliteError::UnknownNode(9))
        ));
        assert!(matches!(
            eng.restore_node(NodeId(9)),
            Err(SparkliteError::UnknownNode(9))
        ));
    }

    #[test]
    fn paging_slows_execution() {
        let mut eng = engine(1);
        let heavy = AppSpec {
            memory_curve: FittedCurve {
                family: CurveFamily::Linear,
                m: 0.0,
                b: 78.0, // ramps to 14 GB over RAM, within swap
            },
            ..linear_app("heavy", 10.0, 0.3)
        };
        let app = eng.submit(heavy);
        let node = eng.cluster().node_ids()[0];
        eng.spawn_executor(app, node, 10.0, 60.0).unwrap().unwrap();
        // Run to 90 % progress: the working set has ramped past RAM.
        eng.advance(9.0);
        assert!(matches!(
            eng.memory_pressure(node),
            MemoryPressure::Paging(_)
        ));
        let (dt, _) = eng.next_completion().unwrap();
        assert!(
            dt > 2.0,
            "the paging tail should far exceed the 1 s of remaining work: {dt}"
        );
    }

    #[test]
    fn completion_requires_done_slice() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        assert!(matches!(
            eng.complete_executor(id),
            Err(SparkliteError::InvalidState(_))
        ));
        eng.advance(10.0);
        eng.complete_executor(id).unwrap();
    }

    #[test]
    fn profiling_credit_counts_toward_completion() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        eng.credit_profiled(app, 1.5);
        assert_eq!(eng.app(app).processed_gb(), 1.5);
        assert_eq!(eng.app(app).unassigned_gb(), 8.5);
    }

    #[test]
    fn measure_footprint_is_noisy_but_unbiased() {
        let mut eng = engine(1);
        let mut noisy = linear_app("a", 10.0, 0.3);
        noisy.footprint_noise_sd = 0.05;
        let app = eng.submit(noisy);
        let n = 500;
        let mean: f64 = (0..n)
            .map(|_| eng.measure_footprint(app, 10.0))
            .sum::<f64>()
            / n as f64;
        // truth = 0.5·10 + 1 = 6 GB.
        assert!((mean - 6.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn cpu_load_caps_at_one() {
        let mut eng = engine(1);
        let node = eng.cluster().node_ids()[0];
        for _ in 0..4 {
            let app = eng.submit(linear_app("x", 10.0, 0.4));
            eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        }
        assert_eq!(eng.node_cpu_load(node), 1.0);
        assert_eq!(eng.live_executors(), 4);
        assert_eq!(eng.node_executors(node).len(), 4);
    }

    #[test]
    fn spawn_on_finished_app_is_invalid() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 1.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 1.0, 2.0).unwrap().unwrap();
        eng.advance(1.0);
        eng.complete_executor(id).unwrap();
        assert!(matches!(
            eng.spawn_executor(app, node, 1.0, 2.0),
            Err(SparkliteError::InvalidState(_))
        ));
    }

    #[test]
    fn extension_grows_a_running_executor() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 30.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        eng.advance(4.0);
        let added = eng.extend_executor(id, 10.0, 5.0).unwrap();
        assert_eq!(added, 10.0);
        let exec = eng.executor(id).unwrap();
        assert_eq!(exec.slice_gb(), 20.0);
        assert_eq!(exec.reserved_gb(), 11.0);
        assert_eq!(eng.app(app).unassigned_gb(), 10.0);
        // 16 GB of data remain on the extended executor.
        let (dt, _) = eng.next_completion().unwrap();
        assert!((dt - 16.0).abs() < 1e-9, "dt = {dt}");
        eng.advance(dt);
        eng.complete_executor(id).unwrap();
        assert_eq!(eng.app(app).processed_gb(), 20.0);
        assert_eq!(eng.node_free_memory(node), 64.0);
    }

    #[test]
    fn extension_fails_cleanly_without_memory() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 30.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 10.0, 60.0).unwrap().unwrap();
        let err = eng.extend_executor(id, 10.0, 10.0);
        assert!(matches!(err, Err(SparkliteError::Resource(_))));
        // Untouched on failure.
        assert_eq!(eng.executor(id).unwrap().slice_gb(), 10.0);
        assert_eq!(eng.app(app).unassigned_gb(), 20.0);
    }

    #[test]
    fn extension_of_drained_app_is_zero() {
        let mut eng = engine(1);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        assert_eq!(eng.extend_executor(id, 5.0, 1.0).unwrap(), 0.0);
        assert_eq!(eng.node_free_memory(node), 58.0, "reservation rolled back");
    }

    #[test]
    fn all_finished_reflects_progress() {
        let mut eng = engine(1);
        assert!(eng.all_finished(), "vacuously true with no apps");
        let app = eng.submit(linear_app("a", 1.0, 0.3));
        assert!(!eng.all_finished());
        let node = eng.cluster().node_ids()[0];
        let id = eng.spawn_executor(app, node, 1.0, 2.0).unwrap().unwrap();
        eng.advance(1.0);
        eng.complete_executor(id).unwrap();
        assert!(eng.all_finished());
    }

    #[test]
    fn next_completion_matches_naive_oracle_through_a_workload() {
        let mut eng =
            ClusterEngine::with_seed(ClusterSpec::small(4), InterferenceModel::default(), 11);
        let apps: Vec<AppId> = (0..4)
            .map(|i| eng.submit(linear_app(&format!("a{i}"), 60.0, 0.25 + 0.05 * i as f64)))
            .collect();
        let nodes = eng.cluster().node_ids();
        for (i, &app) in apps.iter().enumerate() {
            eng.spawn_executor(app, nodes[i % 4], 12.0, 8.0)
                .unwrap()
                .unwrap();
            eng.spawn_executor(app, nodes[(i + 1) % 4], 12.0, 8.0)
                .unwrap()
                .unwrap();
        }
        // Drive the scheduler's advance-to-completion loop, checking the
        // tree against the oracle before every step.
        for _ in 0..64 {
            let fast = eng.next_completion();
            let slow = eng.next_completion_naive();
            match (fast, slow) {
                (Some((df, wf)), Some((ds, ws))) => {
                    assert_eq!(wf, ws, "winner identity");
                    assert_eq!(df.to_bits(), ds.to_bits(), "winner delay");
                    eng.advance(df);
                    eng.complete_executor(wf).unwrap();
                }
                (f, s) => {
                    assert_eq!(f.map(|(_, w)| w), s.map(|(_, w)| w));
                    break;
                }
            }
        }
        assert_eq!(eng.live_executors(), 0);
    }

    proptest::proptest! {
        /// The cached per-node CPU total serves exactly the bits of the
        /// executor walk it replaced, through random interleavings of
        /// spawns, extensions, kills, completions, node failures and
        /// restores — empty nodes (`-0.0`) and loads past the cap
        /// included.
        #[test]
        fn cached_cpu_load_matches_the_walk_through_a_workload(
            ops in proptest::collection::vec(
                (0u8..6, 0usize..64, 0usize..64, 0.5f64..12.0),
                1..120,
            ),
        ) {
            let mut eng =
                ClusterEngine::with_seed(ClusterSpec::small(4), InterferenceModel::default(), 5);
            let apps: Vec<AppId> = [0.15, 0.3, 0.45, 0.6]
                .iter()
                .enumerate()
                .map(|(i, &cpu)| eng.submit(linear_app(&format!("a{i}"), 400.0, cpu)))
                .collect();
            let nodes = eng.cluster().node_ids();
            let nth_live = |eng: &ClusterEngine, k: usize| {
                let live = eng.live_executors().max(1);
                eng.executors_iter().nth(k % live).map(Executor::id)
            };
            for &n in &nodes {
                proptest::prop_assert_eq!(
                    eng.node_cpu_load(n).to_bits(),
                    eng.node_cpu_load_walk(n).to_bits()
                );
            }
            for &(op, a, b, gb) in &ops {
                // Refusals (offline node, no memory, drained app) are part
                // of the workload: each must leave the cache consistent.
                match op {
                    0 | 1 => {
                        let _ = eng.spawn_executor(apps[a % 4], nodes[b % 4], gb, gb * 0.5);
                    }
                    2 => {
                        if let Some(id) = nth_live(&eng, a) {
                            let _ = eng.extend_executor(id, gb, gb * 0.25);
                        }
                    }
                    3 => {
                        if let Some(id) = nth_live(&eng, a) {
                            eng.kill_executor(id).unwrap();
                        }
                    }
                    4 => {
                        if let Some((dt, id)) = eng.next_completion() {
                            eng.advance(dt);
                            eng.complete_executor(id).unwrap();
                        }
                    }
                    _ => {
                        let node = nodes[b % 4];
                        if a % 2 == 0 {
                            eng.fail_node(node).unwrap();
                        } else {
                            eng.restore_node(node).unwrap();
                        }
                    }
                }
                for &n in &nodes {
                    proptest::prop_assert_eq!(
                        eng.node_cpu_load(n).to_bits(),
                        eng.node_cpu_load_walk(n).to_bits(),
                        "op {} on node {}", op, n.index()
                    );
                }
            }
        }
    }

    #[test]
    fn elapsed_accumulates_advances() {
        let mut eng = engine(1);
        assert_eq!(eng.elapsed_secs(), 0.0);
        let app = eng.submit(linear_app("a", 10.0, 0.3));
        let node = eng.cluster().node_ids()[0];
        eng.spawn_executor(app, node, 10.0, 6.0).unwrap().unwrap();
        eng.advance(2.5);
        eng.advance(1.5);
        assert_eq!(eng.elapsed_secs(), 4.0);
    }
}
