//! Fluid-flow network model with max-min fair bandwidth sharing.
//!
//! Transfers are modelled as *flows*: a byte count draining over a path of
//! capacitated ports. Whenever the set of active flows changes, the network
//! recomputes a progressive-filling max-min fair rate allocation: all flows'
//! rates rise together until some port saturates; flows through saturated
//! ports freeze at the current level; the rest keep rising. This captures the
//! contention effects Zeppelin exploits — NICs shared between GPU pairs,
//! asymmetric ring traffic, multi-NIC routing — without per-packet detail.
//!
//! The network is advanced lazily: callers move it to the current simulation
//! time, mutate the flow set, and ask for the next completion instant.
//!
//! # Incremental allocation
//!
//! The allocator is *incremental*: a port→flow reverse index identifies the
//! connected component of flows that transitively share ports with a mutated
//! flow, and progressive filling runs over that component only. This is exact,
//! not approximate — the max-min fair fixed point is unique, and flows in
//! disjoint components share no port, so their saturation levels are computed
//! from component-local state in both the global and the component-restricted
//! filling. Every floating-point expression matches the from-scratch
//! reference ([`crate::reference`]) operation for operation, so rates come
//! out bit-for-bit equal (the one theoretical exception is a cross-component
//! *near*-tie inside the 1e-12 freeze tolerance, which would require two
//! independently computed levels to differ by less than one part in 10^12
//! without being equal).
//!
//! Callers that mutate several flows at one instant should wrap the mutations
//! in [`FlowNetwork::begin_update`] / [`FlowNetwork::commit_update`] so the
//! network pays one component recomputation per event instant instead of one
//! per mutation. Batching is also exact: the allocation depends only on the
//! final flow set, never on rates left over from intermediate states.
//!
//! Completion queries are served from a lazily invalidated min-heap of
//! projected completion instants instead of a full scan; see
//! [`FlowNetwork::next_completion`].
//!
//! # Port ids
//!
//! Every per-port table is indexed by a dense port id. The engine builds
//! its network with [`FlowNetwork::with_ports`] from
//! [`crate::topology::ClusterSpec::port_id`] and starts flows on id paths
//! ([`FlowNetwork::start_flow_ids`]), so a transfer touches no map.
//! The [`Port`]-keyed methods intern ports on first use, for callers
//! without a cluster (tests, the reference cross-checks, benches).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::partition::{fill_component, FillOutput, FillScratch, Partitioner};
use crate::pool;
use crate::time::{SimDuration, SimTime};
use crate::topology::Port;

/// Bytes below which a flow is considered drained (absorbs f64 rounding).
const EPS_BYTES: f64 = 1e-6;

/// Tolerance (in nanoseconds) when deciding whether a heap entry's projected
/// completion could still beat the best freshly evaluated candidate.
///
/// Heap keys can be stale by the drift between a projection made at an older
/// clock and one made now: the real-arithmetic value is identical (remaining
/// shrinks exactly as the clock advances), so the drift is a few ulps of f64
/// rounding plus at most 1 ns of ceil-boundary movement. 16 ns is orders of
/// magnitude above any reachable drift; entries within the slack are simply
/// re-evaluated exactly, so a generous slack costs a little work, never
/// correctness.
const SLACK_NS: u64 = 16;

/// Default minimum total component flows before a rebalance fans out to the
/// worker pool: below this the per-commit thread-scope setup costs more
/// than the filling it parallelizes.
const DEFAULT_PAR_THRESHOLD: usize = 64;

/// Handle to an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(usize);

impl FlowKey {
    /// The arena slot behind this key (for dense side tables; slots are
    /// recycled, so pair with liveness tracking keyed on the flow lifecycle).
    pub(crate) fn slot(self) -> usize {
        self.0
    }
}

/// One slot of the flow arena: a live flow, or a vacant slot awaiting
/// recycling (the `path` buffer is kept so restarts allocate nothing).
///
/// Public (opaquely) because the partitioner and the worker pool read flow
/// paths directly from the arena; all mutation stays inside this module.
#[derive(Debug, Default)]
pub struct FlowSlot {
    /// Interned port indices the flow traverses (deduplicated).
    path: Vec<usize>,
    /// Bytes still to move.
    remaining: f64,
    /// Current max-min fair rate in bytes/s.
    rate: f64,
    /// Whether the flow already sits in the drained-ready list.
    drained_listed: bool,
    /// Whether the slot currently holds a flow.
    live: bool,
    /// Index of the slot in the network's live list (meaningful while
    /// `live`).
    live_pos: usize,
}

impl FlowSlot {
    /// Interned port indices of the flow (empty path ⇒ vacant slot).
    pub fn path(&self) -> &[usize] {
        &self.path
    }

    /// Whether the slot currently holds a flow.
    pub fn is_live(&self) -> bool {
        self.live
    }
}

/// Allocator and pool counters, for perf accounting and bench exhibits.
///
/// Everything here is observational: counters never feed back into rates or
/// completion instants. `worker_busy_ns` is wall-clock and therefore
/// nondeterministic; all other fields are deterministic for a given run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Rebalances that did work (dirty ports at a commit barrier).
    pub rebalances: u64,
    /// Connected components filled across all rebalances.
    pub components: u64,
    /// Flow re-ratings summed over all fills.
    pub filled_flows: u64,
    /// Rebalances dispatched to the worker pool.
    pub parallel_rebalances: u64,
    /// Per-worker wall-clock nanoseconds spent inside the fill kernel.
    pub worker_busy_ns: Vec<u64>,
}

/// The set of concurrently active flows over a shared port inventory.
#[derive(Debug)]
pub struct FlowNetwork {
    port_caps: Vec<f64>,
    /// Ids of ports interned through the [`Port`]-keyed methods.
    port_index: HashMap<Port, usize>,
    /// Reverse index: flows currently crossing each port.
    port_flows: Vec<Vec<usize>>,
    /// Maintained sum of rates through each port (exact per rebalance).
    port_rate_sum: Vec<f64>,
    /// Flow arena; slots are recycled LIFO via `free_keys`.
    flows: Vec<FlowSlot>,
    /// Slots of the live flows, in no particular order; `advance_to`
    /// drains these instead of scanning the arena.
    live: Vec<usize>,
    /// Per-slot generation; bumped whenever the slot's heap keys go stale.
    slot_gen: Vec<u64>,
    free_keys: Vec<usize>,
    clock: SimTime,
    active: usize,
    /// Whether a `begin_update` batch is open.
    batching: bool,
    /// Ports touched by mutations since the last rebalance.
    dirty_ports: Vec<usize>,
    /// Min-heap of `(projected completion ns, slot, generation)` entries
    /// computed at the *current* clock — their keys are exact.
    heap_fresh: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Entries surviving from before the last clock advance; their keys can
    /// drift from a fresh projection by f64 rounding, bounded by [`SLACK_NS`].
    heap_stale: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Slots whose flows have drained but are not yet finished.
    drained_ready: Vec<usize>,
    /// Connected-component index rebuilt at every rebalance.
    partitioner: Partitioner,
    /// Fill workspace for the sequential path.
    fill_scratch: FillScratch,
    /// Reused output buffer for the sequential path.
    fill_out: FillOutput,
    /// Persistent per-worker fill workspaces for the pool path.
    worker_scratch: Vec<FillScratch>,
    /// Recycled scratch buffer for interning start-flow paths.
    tmp_path: Vec<usize>,
    /// Worker threads per parallel rebalance (1 ⇒ always sequential).
    workers: usize,
    /// Minimum total component flows before the pool is used.
    par_threshold: usize,
    stats: NetStats,
}

impl Default for FlowNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowNetwork {
    /// Creates an empty network; ports are interned on first use.
    ///
    /// The worker count defaults to [`crate::pool::workers_from_env`]
    /// (`ZEPPELIN_SIM_WORKERS`, else sequential); override it with
    /// [`FlowNetwork::set_workers`].
    pub fn new() -> Self {
        FlowNetwork {
            port_caps: Vec::new(),
            port_index: HashMap::new(),
            port_flows: Vec::new(),
            port_rate_sum: Vec::new(),
            flows: Vec::new(),
            live: Vec::new(),
            slot_gen: Vec::new(),
            free_keys: Vec::new(),
            clock: SimTime::ZERO,
            active: 0,
            batching: false,
            dirty_ports: Vec::new(),
            heap_fresh: BinaryHeap::new(),
            heap_stale: BinaryHeap::new(),
            drained_ready: Vec::new(),
            partitioner: Partitioner::new(),
            fill_scratch: FillScratch::default(),
            fill_out: FillOutput::default(),
            worker_scratch: Vec::new(),
            tmp_path: Vec::new(),
            workers: crate::pool::workers_from_env(),
            par_threshold: DEFAULT_PAR_THRESHOLD,
            stats: NetStats::default(),
        }
    }

    /// Creates a network whose ports are pre-registered with dense ids
    /// `0..capacities.len()`, port `i` at `capacities[i]` bytes/s. Flows
    /// on these ports start through [`FlowNetwork::start_flow_ids`].
    ///
    /// # Panics
    ///
    /// Panics unless every capacity is finite and positive.
    pub fn with_ports(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "port capacities must be finite and positive"
        );
        let n = capacities.len();
        FlowNetwork {
            port_caps: capacities,
            port_flows: vec![Vec::new(); n],
            port_rate_sum: vec![0.0; n],
            ..FlowNetwork::new()
        }
    }

    /// Sets the worker-pool width for rebalances (clamped to ≥ 1; 1 means
    /// fully sequential). Any width produces bit-identical allocations —
    /// this is purely a wall-clock knob.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Worker-pool width currently in effect.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the minimum total component flows a rebalance must touch before
    /// it fans out to the pool (test/bench knob; the default amortizes the
    /// per-commit thread-scope setup).
    pub fn set_parallel_threshold(&mut self, flows: usize) {
        self.par_threshold = flows;
    }

    /// Allocator and pool counters accumulated since construction.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Current internal clock (latest `advance_to` instant).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    fn intern(&mut self, port: Port, capacity: f64) -> usize {
        if let Some(&i) = self.port_index.get(&port) {
            return i;
        }
        let i = self.port_caps.len();
        self.port_caps.push(capacity);
        self.port_flows.push(Vec::new());
        self.port_rate_sum.push(0.0);
        self.port_index.insert(port, i);
        i
    }

    /// Opens a batch: subsequent flow mutations accumulate without
    /// rebalancing until [`FlowNetwork::commit_update`].
    ///
    /// Batching is exact — the max-min allocation depends only on the final
    /// flow set — and saves one recomputation per mutation when several flows
    /// start or finish at the same instant. The clock must not be advanced
    /// and completions must not be queried while a batch is open.
    ///
    /// # Panics
    ///
    /// Panics if a batch is already open.
    pub fn begin_update(&mut self) {
        assert!(!self.batching, "begin_update while a batch is already open");
        self.batching = true;
    }

    /// Closes the batch opened by [`FlowNetwork::begin_update`] and
    /// rebalances once for all accumulated mutations.
    ///
    /// # Panics
    ///
    /// Panics if no batch is open.
    pub fn commit_update(&mut self) {
        assert!(self.batching, "commit_update without begin_update");
        self.batching = false;
        self.rebalance();
    }

    fn after_mutation(&mut self) {
        if !self.batching {
            self.rebalance();
        }
    }

    /// Updates (or interns) the capacity of `port`, re-rating every flow in
    /// its connected component.
    ///
    /// This is how time-varying infrastructure (NIC degradation, link flaps)
    /// enters the allocator: the port is marked dirty and the next rebalance
    /// floods its component exactly as it does for a flow start or finish.
    /// Batchable inside [`FlowNetwork::begin_update`] /
    /// [`FlowNetwork::commit_update`] like any other mutation. Callers should
    /// [`FlowNetwork::advance_to`] the change instant first so bytes already
    /// moved were drained at the old rates.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is finite and positive; a dead link is
    /// modelled as a tiny residual capacity, never zero, so projected
    /// completion instants stay finite.
    pub fn set_port_capacity(&mut self, port: Port, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "port {port:?} capacity must be finite and positive, got {capacity}"
        );
        let i = self.intern(port, capacity);
        self.set_capacity(i as u32, capacity);
    }

    /// [`FlowNetwork::set_port_capacity`] for a port given by its dense id.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is finite and positive, or if `port` is
    /// not a registered id.
    pub fn set_capacity(&mut self, port: u32, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "port {port} capacity must be finite and positive, got {capacity}"
        );
        let i = port as usize;
        self.port_caps[i] = capacity;
        self.dirty_ports.push(i);
        self.after_mutation();
    }

    /// Starts a flow of `bytes` over `path` at the current clock.
    ///
    /// `capacity_of` supplies the bandwidth of each port the first time it is
    /// seen (ports are identified by value, so capacities must be stable).
    /// Duplicate ports within one path are collapsed: a flow consumes a
    /// port's bandwidth once regardless of how the path was assembled.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty or `bytes` is not finite and non-negative;
    /// both indicate planner bugs upstream.
    pub fn start_flow(
        &mut self,
        bytes: f64,
        path: &[Port],
        mut capacity_of: impl FnMut(Port) -> f64,
    ) -> FlowKey {
        assert!(!path.is_empty(), "flow path must be non-empty");
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be finite and non-negative, got {bytes}"
        );
        let mut interned = std::mem::take(&mut self.tmp_path);
        interned.clear();
        for &p in path {
            let cap = capacity_of(p);
            assert!(cap > 0.0, "port {p:?} must have positive capacity");
            interned.push(self.intern(p, cap));
        }
        self.insert_flow(bytes, interned)
    }

    /// Starts a flow of `bytes` over the dense port ids in `ports`, which
    /// must be registered (see [`FlowNetwork::with_ports`]). This is the
    /// engine's per-transfer path: no interning. As with
    /// [`FlowNetwork::start_flow`], a repeated port counts once;
    /// [`FlowNetwork::path_of`] returns the ports the flow holds.
    ///
    /// # Panics
    ///
    /// Panics like [`FlowNetwork::start_flow`], or if an id is not
    /// registered.
    pub fn start_flow_ids(&mut self, bytes: f64, ports: &[u32]) -> FlowKey {
        assert!(!ports.is_empty(), "flow path must be non-empty");
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be finite and non-negative, got {bytes}"
        );
        let mut path = std::mem::take(&mut self.tmp_path);
        path.clear();
        for &p in ports {
            assert!(
                (p as usize) < self.port_caps.len(),
                "port id {p} is not registered"
            );
            path.push(p as usize);
        }
        self.insert_flow(bytes, path)
    }

    /// Installs an interned path into a (possibly recycled) arena slot,
    /// dropping repeated ports. The slot reuses its previous path buffer and
    /// `interned` goes back to `tmp_path`, so the steady state of churn —
    /// start, drain, finish, start — allocates nothing.
    fn insert_flow(&mut self, bytes: f64, interned: Vec<usize>) -> FlowKey {
        let drained = bytes <= EPS_BYTES;
        let key = match self.free_keys.pop() {
            Some(k) => k,
            None => {
                self.flows.push(FlowSlot::default());
                self.slot_gen.push(0);
                self.flows.len() - 1
            }
        };
        debug_assert!(!self.flows[key].live, "recycled slot still live");
        let mut path = std::mem::take(&mut self.flows[key].path);
        path.clear();
        for &p in &interned {
            // A repeated port already lists this flow last.
            if self.port_flows[p].last() != Some(&key) {
                self.port_flows[p].push(key);
                self.dirty_ports.push(p);
                path.push(p);
            }
        }
        self.tmp_path = interned;
        let slot = &mut self.flows[key];
        slot.path = path;
        slot.remaining = bytes;
        slot.rate = 0.0;
        slot.drained_listed = drained;
        slot.live = true;
        slot.live_pos = self.live.len();
        self.live.push(key);
        self.slot_gen[key] += 1;
        if drained {
            self.drained_ready.push(key);
        }
        self.active += 1;
        self.after_mutation();
        FlowKey(key)
    }

    /// Advances the fluid model to `now`, draining all flows at their rates.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the internal clock, or if a batch is open
    /// (rates are stale mid-batch, so draining against them would be wrong).
    pub fn advance_to(&mut self, now: SimTime) {
        assert!(!self.batching, "advance_to during an open batch");
        let dt = now.since(self.clock).as_secs_f64();
        if dt > 0.0 {
            // Projections made before this instant are no longer exact:
            // demote them to the slack-checked heap.
            self.heap_stale.append(&mut self.heap_fresh);
            for &k in &self.live {
                let f = &mut self.flows[k];
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
                if !f.drained_listed && f.remaining <= EPS_BYTES {
                    f.drained_listed = true;
                    self.drained_ready.push(k);
                }
            }
        }
        self.clock = now;
    }

    /// Keys of flows that have fully drained as of the current clock.
    ///
    /// Allocates a fresh `Vec`; hot paths should prefer
    /// [`FlowNetwork::collect_drained`].
    pub fn drained(&self) -> Vec<FlowKey> {
        self.flows
            .iter()
            .enumerate()
            .filter_map(|(k, f)| (f.live && f.remaining <= EPS_BYTES).then_some(FlowKey(k)))
            .collect()
    }

    /// Appends the keys of drained-but-unfinished flows to `out` in
    /// ascending key order, without scanning the flow table or allocating
    /// (beyond `out`'s own growth).
    pub fn collect_drained(&mut self, out: &mut Vec<FlowKey>) {
        self.drained_ready.sort_unstable();
        out.extend(self.drained_ready.iter().map(|&k| FlowKey(k)));
    }

    /// Removes a flow (normally one reported by [`FlowNetwork::drained`] or
    /// [`FlowNetwork::collect_drained`]) and rebalances the remaining flows.
    ///
    /// # Panics
    ///
    /// Panics if the key is stale.
    pub fn finish_flow(&mut self, key: FlowKey) {
        assert!(self.flows[key.0].live, "stale flow key");
        debug_assert!(
            self.flows[key.0].remaining <= EPS_BYTES,
            "finishing a flow with {} bytes left",
            self.flows[key.0].remaining
        );
        // The path buffer stays in the vacated slot for the next occupant;
        // take it briefly so the reverse-index cleanup can borrow freely.
        let path = std::mem::take(&mut self.flows[key.0].path);
        for &p in &path {
            let on_port = &mut self.port_flows[p];
            let pos = on_port
                .iter()
                .position(|&k| k == key.0)
                .expect("flow indexed on its ports");
            on_port.swap_remove(pos);
            self.dirty_ports.push(p);
        }
        let slot = &mut self.flows[key.0];
        slot.path = path;
        if slot.drained_listed {
            if let Some(pos) = self.drained_ready.iter().position(|&k| k == key.0) {
                self.drained_ready.swap_remove(pos);
            }
        }
        slot.live = false;
        slot.rate = 0.0;
        let pos = slot.live_pos;
        self.live.swap_remove(pos);
        if let Some(&moved) = self.live.get(pos) {
            self.flows[moved].live_pos = pos;
        }
        self.slot_gen[key.0] += 1; // Invalidate any heap entries for the slot.
        self.free_keys.push(key.0);
        self.active -= 1;
        self.after_mutation();
    }

    /// Earliest instant at which some active flow drains, if any are active.
    ///
    /// The instant is rounded up to nanosecond granularity; callers should
    /// `advance_to` it and then collect [`FlowNetwork::drained`] flows.
    ///
    /// Served from two min-heaps of projected completion instants. Keys
    /// pushed since the last clock advance are *exact* (identical to what a
    /// full scan would compute right now, because nothing moved the
    /// remaining-bytes values they were derived from); keys surviving from
    /// older clocks can drift by f64 rounding, bounded by [`SLACK_NS`].
    /// Dead entries — the flow finished or was re-projected (detected by a
    /// per-slot generation) — are dropped lazily. Any old entry that could
    /// still beat the best exact key is re-projected with the exact
    /// full-scan expression and re-homed, so the returned instant is
    /// identical to what a scan over all flows would produce.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        debug_assert!(!self.batching, "next_completion during an open batch");
        if self.active == 0 {
            return None;
        }
        if !self.drained_ready.is_empty() {
            // A drained flow completes "now" (the scan's secs = 0.0 case).
            return Some(self.clock);
        }
        loop {
            // Current best exact candidate: the first live fresh entry.
            let best = loop {
                match self.heap_fresh.peek() {
                    Some(&Reverse((ns, k, gen))) => {
                        if self.slot_gen[k] == gen {
                            break Some(ns);
                        }
                        self.heap_fresh.pop();
                    }
                    None => break None,
                }
            };
            // Examine every surviving old entry that could still beat it.
            let Some(&Reverse((key_ns, k, gen))) = self.heap_stale.peek() else {
                return best.map(SimTime::from_nanos);
            };
            if let Some(b) = best {
                if key_ns > b.saturating_add(SLACK_NS) {
                    // Its exact value is ≥ key - SLACK_NS > best: keep it for
                    // a later call; nothing deeper can beat best either.
                    return Some(SimTime::from_nanos(b));
                }
            }
            self.heap_stale.pop();
            if self.slot_gen[k] != gen {
                continue; // Dead: finished or already re-projected.
            }
            let f = &self.flows[k];
            debug_assert!(f.live, "live generation points at a vacant slot");
            debug_assert!(f.remaining > EPS_BYTES, "drained flow missing from list");
            if f.rate <= 0.0 {
                continue; // Starved: re-projected at the next rebalance.
            }
            let t = self.clock + SimDuration::from_secs_f64(f.remaining / f.rate);
            self.slot_gen[k] += 1;
            self.heap_fresh
                .push(Reverse((t.as_nanos(), k, self.slot_gen[k])));
        }
    }

    /// The ports a live flow holds, each once, as interned or dense ids.
    pub fn path_of(&self, key: FlowKey) -> &[usize] {
        let f = &self.flows[key.0];
        assert!(f.live, "stale flow key");
        &f.path
    }

    /// Current rate of a flow in bytes/s (for tests and introspection).
    pub fn rate_of(&self, key: FlowKey) -> f64 {
        let f = &self.flows[key.0];
        assert!(f.live, "stale flow key");
        f.rate
    }

    /// Remaining bytes of a flow (for tests and introspection).
    pub fn remaining_of(&self, key: FlowKey) -> f64 {
        let f = &self.flows[key.0];
        assert!(f.live, "stale flow key");
        f.remaining
    }

    /// Sum of current rates through `port`, in bytes/s.
    ///
    /// O(1): read from a per-port sum maintained by the allocator (this backs
    /// the per-NIC utilization accounting behind the paper's Fig. 2).
    pub fn port_usage(&self, port: Port) -> f64 {
        let Some(&idx) = self.port_index.get(&port) else {
            return 0.0;
        };
        self.port_rate_sum[idx]
    }

    /// Recomputes the max-min fair allocation for every connected component
    /// reachable from the ports dirtied since the last rebalance.
    ///
    /// A dirty port that no flow crosses any more has nothing to fill: its
    /// rate sum drops straight to zero and it seeds no component. The
    /// [`Partitioner`] splits the rest of the dirty region into true
    /// components;
    /// each is filled independently by [`fill_component`] — sequentially,
    /// or on the scoped worker pool when the commit is wide enough
    /// (`workers > 1`, ≥ 2 components, and at least `par_threshold` flows
    /// in play). Results are applied in ascending component id either way
    /// (the commit-barrier ordering rule), so the pool is invisible to the
    /// simulation: rates, port sums, and heap contents come out
    /// bit-identical at any worker count. Flows outside the dirty region
    /// share no port with it (directly or transitively), so their rates are
    /// already at the fixed point and stay untouched.
    fn rebalance(&mut self) {
        if self.dirty_ports.is_empty() {
            return;
        }
        self.stats.rebalances += 1;
        let (port_flows, port_rate_sum) = (&self.port_flows, &mut self.port_rate_sum);
        self.dirty_ports.retain(|&p| {
            let crossed = !port_flows[p].is_empty();
            if !crossed {
                port_rate_sum[p] = 0.0;
            }
            crossed
        });
        self.partitioner
            .partition(&self.dirty_ports, &self.port_flows, &self.flows);
        self.dirty_ports.clear();
        let ncomps = self.partitioner.components();
        self.stats.components += ncomps as u64;
        self.stats.filled_flows += self.partitioner.flow_count() as u64;
        let use_pool =
            self.workers > 1 && ncomps >= 2 && self.partitioner.flow_count() >= self.par_threshold;
        if use_pool {
            self.stats.parallel_rebalances += 1;
            if self.worker_scratch.len() < self.workers {
                self.worker_scratch
                    .resize_with(self.workers, FillScratch::default);
            }
            if self.stats.worker_busy_ns.len() < self.workers {
                self.stats.worker_busy_ns.resize(self.workers, 0);
            }
            let mut results = pool::fill_parallel(
                self.workers,
                &self.partitioner,
                &self.port_caps,
                &self.port_flows,
                &self.flows,
                &mut self.worker_scratch,
                &mut self.stats.worker_busy_ns,
            );
            // Commit barrier: apply in ascending component id, regardless
            // of which worker finished which component first.
            results.sort_unstable_by_key(|&(c, _)| c);
            for (c, out) in &results {
                self.apply_fill(*c, out);
            }
        } else {
            for c in 0..ncomps {
                let mut out = std::mem::take(&mut self.fill_out);
                fill_component(
                    &self.port_caps,
                    &self.port_flows,
                    &self.flows,
                    self.partitioner.component(c),
                    &mut self.fill_scratch,
                    &mut out,
                );
                self.apply_fill(c, &out);
                self.fill_out = out;
            }
        }
        // Shed dead entries if churn let the heaps outgrow the flow set.
        if self.heap_fresh.len() + self.heap_stale.len() > 64 + 4 * self.active {
            self.rebuild_heap();
        }
    }

    /// Writes one component's fill results into the live tables and
    /// re-projects its completion instants.
    fn apply_fill(&mut self, c: usize, out: &FillOutput) {
        let comp = self.partitioner.component(c);
        for (i, &k) in comp.flows.iter().enumerate() {
            self.flows[k].rate = out.rates[i];
        }
        // Refresh the maintained per-port rate sums for the component.
        for (j, &p) in comp.ports.iter().enumerate() {
            self.port_rate_sum[p] = out.port_sums[j];
        }
        // Re-project completion instants for the component's flows.
        for &k in comp.flows {
            self.slot_gen[k] += 1;
            let f = &self.flows[k];
            if f.remaining <= EPS_BYTES {
                continue; // Listed in drained_ready; completes "now".
            }
            if f.rate > 0.0 {
                let t = self.clock + SimDuration::from_secs_f64(f.remaining / f.rate);
                self.heap_fresh
                    .push(Reverse((t.as_nanos(), k, self.slot_gen[k])));
            }
            // rate == 0: starved; re-projected once a rebalance feeds it.
        }
    }

    /// Drops every dead or drifted heap entry by re-projecting all live
    /// flows at the current clock (projections at the current clock are
    /// exact, so this never changes what
    /// [`FlowNetwork::next_completion`] returns).
    fn rebuild_heap(&mut self) {
        self.heap_fresh.clear();
        self.heap_stale.clear();
        for k in 0..self.flows.len() {
            let f = &self.flows[k];
            if !f.live || f.remaining <= EPS_BYTES || f.rate <= 0.0 {
                continue;
            }
            let t = self.clock + SimDuration::from_secs_f64(f.remaining / f.rate);
            self.slot_gen[k] += 1;
            self.heap_fresh
                .push(Reverse((t.as_nanos(), k, self.slot_gen[k])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceNet;
    use crate::topology::{cluster_a, tiny_cluster};

    fn cap_fn(c: &crate::topology::ClusterSpec) -> impl FnMut(Port) -> f64 + '_ {
        move |p| c.port_capacity(p)
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        // Cross-node: bottleneck is the 25 GB/s NIC, not the 32 GB/s PCIe.
        let k = net.start_flow(25e9, &c.direct_path(0, 8), cap_fn(&c));
        assert!((net.rate_of(k) - 25e9).abs() / 25e9 < 1e-9);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance_to(done);
        assert_eq!(net.drained(), vec![k]);
        net.finish_flow(k);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_a_nic_fairly() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        // GPUs 0 and 1 share NIC 0 on Cluster A.
        let k0 = net.start_flow(1e9, &c.direct_path(0, 8), cap_fn(&c));
        let k1 = net.start_flow(1e9, &c.direct_path(1, 9), cap_fn(&c));
        assert!((net.rate_of(k0) - 12.5e9).abs() / 12.5e9 < 1e-9);
        assert!((net.rate_of(k1) - 12.5e9).abs() / 12.5e9 < 1e-9);
    }

    #[test]
    fn distinct_nics_do_not_contend() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        let k0 = net.start_flow(1e9, &c.direct_path(0, 8), cap_fn(&c));
        let k2 = net.start_flow(1e9, &c.direct_path(2, 10), cap_fn(&c));
        assert!((net.rate_of(k0) - 25e9).abs() / 25e9 < 1e-9);
        assert!((net.rate_of(k2) - 25e9).abs() / 25e9 < 1e-9);
    }

    #[test]
    fn finishing_a_flow_releases_bandwidth() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        let k0 = net.start_flow(12.5e9, &c.direct_path(0, 8), cap_fn(&c));
        let k1 = net.start_flow(50e9, &c.direct_path(1, 9), cap_fn(&c));
        // Both run at 12.5 GB/s; k0 finishes at t=1s.
        let t1 = net.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance_to(t1);
        assert_eq!(net.drained(), vec![k0]);
        net.finish_flow(k0);
        // k1 has 37.5 GB left and now runs at the full 25 GB/s: +1.5s.
        assert!((net.rate_of(k1) - 25e9).abs() / 25e9 < 1e-6);
        let t2 = net.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 2.5).abs() < 1e-5);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        // Three flows: two share port A (cap 10), one uses only port B
        // (cap 30) which the first also crosses. Max-min: the A-flows get 5
        // each; the B-only flow gets the residual 25, not 10.
        let mut net = FlowNetwork::new();
        let cap = |p: Port| match p {
            Port::NicTx(0) => 10.0,
            Port::NicTx(1) => 30.0,
            _ => unreachable!(),
        };
        let a1 = net.start_flow(1.0, &[Port::NicTx(0), Port::NicTx(1)], cap);
        let a2 = net.start_flow(1.0, &[Port::NicTx(0)], cap);
        let b = net.start_flow(1.0, &[Port::NicTx(1)], cap);
        assert!((net.rate_of(a1) - 5.0).abs() < 1e-9);
        assert!((net.rate_of(a2) - 5.0).abs() < 1e-9);
        assert!((net.rate_of(b) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn port_usage_never_exceeds_capacity() {
        let c = tiny_cluster(2, 4);
        let mut net = FlowNetwork::new();
        let mut keys = Vec::new();
        for src in 0..4 {
            for dst in 4..8 {
                keys.push(net.start_flow(1e9, &c.direct_path(src, dst), cap_fn(&c)));
            }
        }
        for local in 0..4 {
            let tx = Port::NicTx(local);
            assert!(net.port_usage(tx) <= c.port_capacity(tx) * (1.0 + 1e-9));
        }
        // All 16 flows still active.
        assert_eq!(net.active_flows(), 16);
        for k in &keys {
            assert!(net.rate_of(*k) > 0.0);
        }
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let c = tiny_cluster(1, 2);
        let mut net = FlowNetwork::new();
        let k = net.start_flow(0.0, &c.direct_path(0, 1), cap_fn(&c));
        assert_eq!(net.next_completion(), Some(SimTime::ZERO));
        assert_eq!(net.drained(), vec![k]);
    }

    #[test]
    fn duplicate_ports_in_path_are_collapsed() {
        let mut net = FlowNetwork::new();
        let k = net.start_flow(1.0, &[Port::NicTx(0), Port::NicTx(0)], |_| 10.0);
        // Counted once: full 10, not 5.
        assert!((net.rate_of(k) - 10.0).abs() < 1e-9);
        assert_eq!(net.path_of(k).len(), 1);
        let mut dense = FlowNetwork::with_ports(vec![10.0, 20.0]);
        let k = dense.start_flow_ids(1.0, &[1, 0, 1, 1]);
        assert_eq!(dense.path_of(k), &[1, 0]);
        assert!((dense.rate_of(k) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn advance_is_lazy_and_monotonic() {
        let c = tiny_cluster(1, 2);
        let mut net = FlowNetwork::new();
        let k = net.start_flow(200e9, &c.direct_path(0, 1), cap_fn(&c));
        net.advance_to(SimTime::from_nanos(500_000_000));
        // 200 GB/s nvlink for 0.5 s = 100 GB moved.
        assert!((net.remaining_of(k) - 100e9).abs() / 100e9 < 1e-6);
        // Advancing to the same instant is a no-op.
        net.advance_to(SimTime::from_nanos(500_000_000));
        assert!((net.remaining_of(k) - 100e9).abs() / 100e9 < 1e-6);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_backwards_panics() {
        let mut net = FlowNetwork::new();
        net.advance_to(SimTime::from_nanos(10));
        net.advance_to(SimTime::from_nanos(5));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_path_panics() {
        FlowNetwork::new().start_flow(1.0, &[], |_| 1.0);
    }

    #[test]
    fn keys_are_recycled_without_aliasing() {
        let c = tiny_cluster(1, 2);
        let mut net = FlowNetwork::new();
        let k = net.start_flow(0.0, &c.direct_path(0, 1), cap_fn(&c));
        net.finish_flow(k);
        let k2 = net.start_flow(5.0, &c.direct_path(1, 0), cap_fn(&c));
        assert_eq!(k, k2, "slot should be recycled");
        assert!(net.remaining_of(k2) > 0.0);
    }

    #[test]
    fn batched_updates_match_individual_bitwise() {
        let c = cluster_a(2);
        let paths: Vec<Vec<Port>> = (0..6).map(|i| c.direct_path(i, 8 + i % 8)).collect();
        let mut one_by_one = FlowNetwork::new();
        let keys_a: Vec<FlowKey> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| one_by_one.start_flow(1e9 + i as f64, p, cap_fn(&c)))
            .collect();
        let mut batched = FlowNetwork::new();
        batched.begin_update();
        let keys_b: Vec<FlowKey> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| batched.start_flow(1e9 + i as f64, p, cap_fn(&c)))
            .collect();
        batched.commit_update();
        for (ka, kb) in keys_a.iter().zip(&keys_b) {
            assert_eq!(
                one_by_one.rate_of(*ka).to_bits(),
                batched.rate_of(*kb).to_bits()
            );
        }
        assert_eq!(one_by_one.next_completion(), batched.next_completion());
    }

    #[test]
    #[should_panic(expected = "batch is already open")]
    fn nested_batches_panic() {
        let mut net = FlowNetwork::new();
        net.begin_update();
        net.begin_update();
    }

    #[test]
    fn id_paths_match_port_paths_bitwise() {
        let c = cluster_a(2);
        let mut by_port = FlowNetwork::new();
        let caps = (0..c.port_count() as u32)
            .map(|id| c.port_capacity(c.port_at(id)))
            .collect();
        let mut by_id = FlowNetwork::with_ports(caps);
        let mut keys = Vec::new();
        for (src, dst, bytes) in [(0, 8, 3e9), (1, 9, 2e9), (2, 3, 5e9), (8, 0, 1e9)] {
            let path = c.direct_path(src, dst);
            let ids: Vec<u32> = path.iter().map(|&p| c.port_id(p).unwrap()).collect();
            keys.push((
                by_port.start_flow(bytes, &path, cap_fn(&c)),
                by_id.start_flow_ids(bytes, &ids),
            ));
        }
        for &(a, b) in &keys {
            assert_eq!(by_port.rate_of(a).to_bits(), by_id.rate_of(b).to_bits());
        }
        assert_eq!(by_port.next_completion(), by_id.next_completion());
    }

    #[test]
    fn flowless_ports_drop_to_zero_without_a_component() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        let k = net.start_flow(1e9, &c.direct_path(0, 8), cap_fn(&c));
        assert!(net.port_usage(Port::NicTx(0)) > 0.0);
        let before = net.stats().components;
        let t = net.next_completion().unwrap();
        net.advance_to(t);
        net.finish_flow(k);
        // The four ports the flow crossed are dirty and now flow-less.
        assert_eq!(net.port_usage(Port::NicTx(0)), 0.0);
        assert_eq!(net.stats().components, before);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn advance_drains_only_live_flows_after_recycling() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        let keys: Vec<FlowKey> = [1e6, 1e9, 2e9, 3e9]
            .iter()
            .enumerate()
            .map(|(i, &bytes)| net.start_flow(bytes, &c.direct_path(i, 8 + i), cap_fn(&c)))
            .collect();
        let t = net.next_completion().unwrap();
        net.advance_to(t);
        assert_eq!(net.drained(), vec![keys[0]]);
        // Removing the first live entry moves the last one into its place;
        // every survivor must keep draining.
        net.finish_flow(keys[0]);
        let left: Vec<f64> = keys[1..].iter().map(|&k| net.remaining_of(k)).collect();
        net.advance_to(t + SimDuration::from_millis(10));
        for (&k, before) in keys[1..].iter().zip(left) {
            assert!(net.remaining_of(k) < before);
        }
        let reused = net.start_flow(1e6, &c.direct_path(0, 8), cap_fn(&c));
        assert_eq!(reused, keys[0]);
        assert_eq!(net.active_flows(), 4);
    }

    #[test]
    fn collect_drained_matches_scan() {
        let c = tiny_cluster(2, 2);
        let mut net = FlowNetwork::new();
        let _slow = net.start_flow(100e9, &c.direct_path(0, 2), cap_fn(&c));
        let fast = net.start_flow(1e9, &c.direct_path(1, 3), cap_fn(&c));
        let t = net.next_completion().unwrap();
        net.advance_to(t);
        let mut collected = Vec::new();
        net.collect_drained(&mut collected);
        assert_eq!(collected, net.drained());
        assert_eq!(collected, vec![fast]);
    }

    #[test]
    fn capacity_change_rerates_inflight_flows() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        // 50 GB over the 25 GB/s NIC: 2 s nominal.
        let k = net.start_flow(50e9, &c.direct_path(0, 8), cap_fn(&c));
        assert!((net.rate_of(k) - 25e9).abs() / 25e9 < 1e-9);
        // At t=1s the NIC degrades to 20% capacity.
        let t1 = SimTime::from_nanos(1_000_000_000);
        net.advance_to(t1);
        net.begin_update();
        net.set_port_capacity(Port::NicTx(0), 5e9);
        net.set_port_capacity(Port::NicRx(4), 5e9);
        net.commit_update();
        assert!((net.rate_of(k) - 5e9).abs() / 5e9 < 1e-9);
        // 25 GB left at 5 GB/s: finishes at t = 1 + 5 = 6 s.
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 6.0).abs() < 1e-6, "{done}");
        // Restoring capacity speeds it back up.
        net.advance_to(SimTime::from_nanos(2_000_000_000));
        net.begin_update();
        net.set_port_capacity(Port::NicTx(0), 25e9);
        net.set_port_capacity(Port::NicRx(4), 25e9);
        net.commit_update();
        let done = net.next_completion().unwrap();
        // 20 GB left at 25 GB/s from t=2: done at 2.8 s.
        assert!((done.as_secs_f64() - 2.8).abs() < 1e-6, "{done}");
    }

    #[test]
    fn capacity_change_matches_reference_bitwise() {
        let c = cluster_a(2);
        let mut net = FlowNetwork::new();
        let mut oracle = ReferenceNet::new();
        // Two flows sharing NIC 0, one on NIC 1.
        let specs = [(0usize, 8usize, 40e9), (1, 9, 30e9), (2, 10, 20e9)];
        let mut live = Vec::new();
        for &(src, dst, bytes) in &specs {
            let path = c.direct_path(src, dst);
            live.push((
                net.start_flow(bytes, &path, cap_fn(&c)),
                oracle.start_flow(bytes, &path, cap_fn(&c)),
            ));
        }
        let t1 = SimTime::from_nanos(500_000_000);
        net.advance_to(t1);
        oracle.advance_to(t1);
        for (port, cap) in [(Port::NicTx(0), 10e9), (Port::NicRx(5), 8e9)] {
            net.set_port_capacity(port, cap);
            oracle.set_port_capacity(port, cap);
            for &(k, r) in &live {
                assert_eq!(net.rate_of(k).to_bits(), oracle.rate_of(r).to_bits());
            }
            assert_eq!(net.next_completion(), oracle.next_completion());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        FlowNetwork::new().set_port_capacity(Port::NicTx(0), 0.0);
    }

    /// Random interleaved churn stays bit-identical to the from-scratch
    /// reference allocator across starts, advances, and finishes.
    #[test]
    fn incremental_matches_reference_under_churn() {
        let c = cluster_a(4);
        let ranks = 32u64;
        let mut net = FlowNetwork::new();
        let mut oracle = ReferenceNet::new();
        let mut live: Vec<(FlowKey, crate::reference::RefFlowKey)> = Vec::new();
        // Deterministic LCG so the schedule is reproducible.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for step in 0..400 {
            match next(3) {
                0 | 1 => {
                    let src = next(ranks) as usize;
                    let mut dst = next(ranks) as usize;
                    if dst == src {
                        dst = (dst + 1) % ranks as usize;
                    }
                    let bytes = if step % 17 == 0 {
                        0.0
                    } else {
                        1e6 * (1 + next(5000)) as f64
                    };
                    let path = c.direct_path(src, dst);
                    let k = net.start_flow(bytes, &path, cap_fn(&c));
                    let r = oracle.start_flow(bytes, &path, cap_fn(&c));
                    live.push((k, r));
                }
                _ => {
                    // Advance both to the earliest completion and retire
                    // everything that drained.
                    let (a, b) = (net.next_completion(), oracle.next_completion());
                    assert_eq!(a, b, "next_completion diverged at step {step}");
                    if let Some(t) = a {
                        net.advance_to(t);
                        oracle.advance_to(t);
                        let mut done = Vec::new();
                        net.collect_drained(&mut done);
                        assert_eq!(done, net.drained());
                        let oracle_done = oracle.drained();
                        assert_eq!(done.len(), oracle_done.len());
                        for k in done {
                            let pos = live.iter().position(|&(a, _)| a == k).unwrap();
                            let (_, r) = live.swap_remove(pos);
                            assert!(oracle_done.contains(&r));
                            net.finish_flow(k);
                            oracle.finish_flow(r);
                        }
                    }
                }
            }
            for &(k, r) in &live {
                assert_eq!(
                    net.rate_of(k).to_bits(),
                    oracle.rate_of(r).to_bits(),
                    "rate diverged at step {step}"
                );
                assert_eq!(
                    net.remaining_of(k).to_bits(),
                    oracle.remaining_of(r).to_bits()
                );
            }
        }
    }
}
