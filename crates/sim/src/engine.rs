//! Discrete-event execution engine for task DAGs over a simulated cluster.
//!
//! A simulation is a DAG of tasks:
//!
//! - **Compute** tasks occupy one stream of one GPU for a fixed duration;
//!   tasks on the same `(rank, stream)` pair serialize in the order they
//!   become ready (a CUDA-stream analogue).
//! - **Transfer** tasks move bytes over a port path through the shared
//!   [`FlowNetwork`]; concurrent transfers contend for bandwidth and their
//!   durations emerge from max-min fair sharing.
//! - **Marker** tasks are zero-cost join/fork points.
//!
//! Dependencies must point at already-created tasks, which statically rules
//! out cycles. The engine is fully deterministic: identical inputs produce
//! identical schedules.
//!
//! # Storage
//!
//! The DAG is stored flat. Each task is one 24-byte `Copy` record; its
//! dependencies and, for a transfer, its path live in one `u32` link arena
//! indexed CSR-style (a task's links run up to the next task's). Paths are
//! the dense port ids of [`ClusterSpec::port_id`]; the flow network drops
//! repeated ports when the transfer starts. Trace attribution is kept only
//! for traced tasks. A run builds the reverse (dependents) index in the
//! same CSR form, so neither building nor running a DAG allocates per
//! task.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use crate::arena::{Slab, SlabKey};
use crate::error::SimError;
use crate::fault::FaultSchedule;
use crate::network::{FlowNetwork, NetStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{ClusterSpec, Port, Rank};
use crate::trace::{Trace, TraceCategory, TraceEvent, TraceLabel};

/// Identifies a task within one [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Logical execution stream on a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stream {
    /// The main computation stream (attention / GEMM kernels).
    Compute,
    /// A communication-launch stream (kernel-launch serialization for
    /// copies that are not modelled as network flows).
    Comm(u8),
}

/// Trace attribution for a task (optional; untraced tasks still execute).
#[derive(Debug, Clone, Copy)]
pub struct TraceInfo {
    /// Rank the event is attributed to in the timeline.
    pub rank: Rank,
    /// Event category (colours lanes in trace viewers).
    pub category: TraceCategory,
    /// Human-readable label.
    pub label: TraceLabel,
}

/// What one task does when it runs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Occupies `(rank, stream)` for `duration`.
    Compute {
        rank: u32,
        stream: Stream,
        duration: SimDuration,
    },
    /// Moves `bytes` over the task's path.
    Transfer { bytes: f64 },
    /// Completes instantly once all dependencies complete.
    Marker,
}

/// One task: its op and where its links start. The links hold the task's
/// `deps` dependency ids, then (for a transfer) its path's port ids, and
/// end where the next task's links start.
#[derive(Debug, Clone, Copy)]
struct Task {
    op: Op,
    links: u32,
    deps: u32,
}

const _: () = assert!(std::mem::size_of::<Task>() <= 24);

/// A traced task's attribution, packed: 48 bytes.
#[derive(Debug, Clone, Copy)]
struct Traced {
    task: u32,
    rank: u32,
    category: TraceCategory,
    label: TraceLabel,
}

const _: () = assert!(std::mem::size_of::<Traced>() <= 48);

/// Engine and allocator counters for one run.
///
/// Observational only: nothing here feeds back into the schedule, and —
/// except for the wall-clock `net.worker_busy_ns` — every field is
/// deterministic for a given DAG, fault schedule, and worker count.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Events popped from the arena-backed event heap.
    pub events: u64,
    /// Flow-network allocator and worker-pool counters.
    pub net: NetStats,
}

/// Result of running a simulation to completion.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Instant the last task completed.
    pub makespan: SimTime,
    /// Per-task `(start, end)` instants, indexed by [`TaskId`].
    pub spans: Vec<(SimTime, SimTime)>,
    /// Timeline of traced tasks.
    pub trace: Trace,
    /// Total bytes that traversed each port (utilization accounting),
    /// indexed by dense port id ([`ClusterSpec::port_id`]).
    pub port_bytes: Vec<f64>,
    /// Performance counters (see [`SimStats`]; not simulated semantics).
    pub stats: SimStats,
}

impl SimReport {
    /// Span of one task.
    pub fn span(&self, id: TaskId) -> (SimTime, SimTime) {
        self.spans[id.0]
    }

    /// Duration of one task.
    pub fn duration(&self, id: TaskId) -> SimDuration {
        let (s, e) = self.spans[id.0];
        e.since(s)
    }

    /// Bytes that traversed `port`; 0.0 for unused or foreign ports.
    pub fn bytes_through(&self, cluster: &ClusterSpec, port: Port) -> f64 {
        cluster
            .port_id(port)
            .and_then(|id| self.port_bytes.get(id as usize))
            .copied()
            .unwrap_or(0.0)
    }

    /// Fraction of a port's capacity used over the whole makespan
    /// (`bytes / (capacity · makespan)`); 0.0 for unused ports or an empty
    /// schedule.
    pub fn port_utilization(&self, cluster: &ClusterSpec, port: Port) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes_through(cluster, port) / (cluster.port_capacity(port) * secs)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A kernel completes; the generation invalidates completions scheduled
    /// before a fault changed the rank's compute speed.
    ComputeDone(u32, u32),
    NetCheck(u64),
    /// A fault window opens, closes, or a crash fires at this instant.
    Fault,
}

/// A kernel currently occupying a stream, tracked so fault boundaries can
/// settle partial progress and reschedule the completion.
struct RunningKernel {
    task: u32,
    /// Nominal (full-speed) nanoseconds of work left as of `since`.
    left_ns: f64,
    /// Instant the current speed segment began.
    since: SimTime,
}

#[derive(Default)]
struct StreamState {
    busy: bool,
    queue: VecDeque<u32>,
    running: Option<RunningKernel>,
}

/// Wall-clock duration for `left_ns` nominal nanoseconds at `speed`.
///
/// Full speed takes the exact integer path: `from_secs_f64(ns / 1e9)` is not
/// bit-exact for all integers (f64 division rounds), and fault-free runs must
/// reproduce the pre-fault engine schedule bit for bit.
fn kernel_eta(left_ns: f64, speed: f64) -> SimDuration {
    if speed == 1.0 {
        SimDuration::from_nanos(left_ns.ceil() as u64)
    } else {
        SimDuration::from_secs_f64(left_ns / (speed * 1e9))
    }
}

/// Narrows a task id or rank to the `u32` the arenas store.
fn narrow(value: usize, what: &str) -> Result<u32, SimError> {
    u32::try_from(value)
        .map_err(|_| SimError::Invariant(format!("{what} {value} does not fit a u32 index")))
}

/// Builds and runs one task DAG over a cluster.
pub struct Simulator {
    cluster: ClusterSpec,
    /// One record per task, indexed by [`TaskId`].
    tasks: Vec<Task>,
    /// Every task's dependency ids and path port ids, in task order.
    links: Vec<u32>,
    /// Attribution of traced tasks, in ascending task order.
    traced: Vec<Traced>,
    /// Worker-pool width handed to the flow network (1 ⇒ sequential).
    workers: usize,
    /// Optional override of the network's parallel-dispatch threshold.
    par_threshold: Option<usize>,
}

impl Simulator {
    /// Creates a simulator for `cluster`.
    ///
    /// The rebalance worker count defaults to
    /// [`crate::pool::workers_from_env`] (`ZEPPELIN_SIM_WORKERS`, else
    /// sequential); see [`Simulator::set_workers`].
    ///
    /// # Panics
    ///
    /// Panics if the cluster fails validation; construct clusters through the
    /// presets or validate before use.
    pub fn new(cluster: &ClusterSpec) -> Self {
        cluster.validate().expect("invalid cluster");
        // DAGs hold tens of tasks per rank, each with a few links; starting
        // there skips the small doublings of both arenas.
        let ranks = cluster.total_gpus();
        Simulator {
            cluster: cluster.clone(),
            tasks: Vec::with_capacity(16 * ranks),
            links: Vec::with_capacity(64 * ranks),
            traced: Vec::new(),
            workers: crate::pool::workers_from_env(),
            par_threshold: None,
        }
    }

    /// Sets the worker-pool width used for network rebalances (clamped to
    /// ≥ 1). Purely a wall-clock knob: reports are bit-identical at any
    /// width.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Worker-pool width currently in effect.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Overrides the minimum component-flow count before rebalances fan out
    /// to the pool (test/bench knob; see
    /// [`FlowNetwork::set_parallel_threshold`]).
    pub fn set_parallel_threshold(&mut self, flows: usize) {
        self.par_threshold = Some(flows);
    }

    /// The cluster this simulator runs on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Task `i`'s dependencies and path.
    fn links_of(&self, i: usize) -> (&[u32], &[u32]) {
        let task = self.tasks[i];
        let end = self
            .tasks
            .get(i + 1)
            .map_or(self.links.len(), |next| next.links as usize);
        self.links[task.links as usize..end].split_at(task.deps as usize)
    }

    /// Checks the next task's dependencies and trace rank, appends the
    /// dependencies to the link arena, and returns where its links start.
    fn link_deps(&mut self, deps: &[TaskId], trace: Option<&TraceInfo>) -> Result<u32, SimError> {
        let id = self.tasks.len();
        narrow(id, "task id")?;
        narrow(deps.len(), "dependency count")?;
        if let Some(&d) = deps.iter().find(|d| d.0 >= id) {
            return Err(SimError::UnknownDependency { task: id, dep: d.0 });
        }
        if let Some(info) = trace {
            narrow(info.rank, "rank")?;
        }
        let links = narrow(self.links.len(), "link arena size")?;
        self.links.extend(deps.iter().map(|d| d.0 as u32));
        Ok(links)
    }

    /// Appends the next task, whose `deps` dependencies (and path) sit in
    /// the link arena from `links` on; [`Simulator::link_deps`] checked
    /// every narrowing.
    fn push(&mut self, op: Op, links: u32, deps: usize, trace: Option<TraceInfo>) -> TaskId {
        let id = self.tasks.len();
        if let Some(info) = trace {
            self.traced.push(Traced {
                task: id as u32,
                rank: info.rank as u32,
                category: info.category,
                label: info.label,
            });
        }
        self.tasks.push(Task {
            op,
            links,
            deps: deps as u32,
        });
        TaskId(id)
    }

    /// Adds a compute task occupying `(rank, stream)` for `duration` once
    /// `deps` complete, and returns its id. Forwards to
    /// [`Simulator::compute_after`].
    ///
    /// # Errors
    ///
    /// As for [`Simulator::compute_after`].
    pub fn compute(
        &mut self,
        rank: Rank,
        stream: Stream,
        duration: SimDuration,
        deps: Vec<TaskId>,
        trace: Option<TraceInfo>,
    ) -> Result<TaskId, SimError> {
        self.compute_after(rank, stream, duration, &deps, trace)
    }

    /// Adds a compute task occupying `(rank, stream)` for `duration` once
    /// `deps` complete, and returns its id. The dependencies are copied
    /// into the link arena, so callers can pass arrays or reused buffers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] if a dependency id is not
    /// smaller than the new task's id (forward references are how cycles
    /// would sneak in).
    pub fn compute_after(
        &mut self,
        rank: Rank,
        stream: Stream,
        duration: SimDuration,
        deps: &[TaskId],
        trace: Option<TraceInfo>,
    ) -> Result<TaskId, SimError> {
        let rank = narrow(rank, "rank")?;
        let links = self.link_deps(deps, trace.as_ref())?;
        let op = Op::Compute {
            rank,
            stream,
            duration,
        };
        Ok(self.push(op, links, deps.len(), trace))
    }

    /// Adds a transfer of `bytes` over the port `path` once `deps`
    /// complete, and returns its id. Forwards to
    /// [`Simulator::transfer_after`].
    ///
    /// # Errors
    ///
    /// As for [`Simulator::transfer_after`].
    pub fn transfer(
        &mut self,
        bytes: f64,
        path: Vec<Port>,
        deps: Vec<TaskId>,
        trace: Option<TraceInfo>,
    ) -> Result<TaskId, SimError> {
        self.transfer_after(bytes, &path, &deps, trace)
    }

    /// Adds a transfer of `bytes` over the port `path` once `deps`
    /// complete, and returns its id. A port listed twice counts once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] as for
    /// [`Simulator::compute_after`], [`SimError::EmptyFlowPath`] for a path
    /// with no ports, and [`SimError::PhantomPort`] for a port outside the
    /// cluster.
    pub fn transfer_after(
        &mut self,
        bytes: f64,
        path: &[Port],
        deps: &[TaskId],
        trace: Option<TraceInfo>,
    ) -> Result<TaskId, SimError> {
        let links = self.link_deps(deps, trace.as_ref())?;
        let task = self.tasks.len();
        if path.is_empty() {
            self.links.truncate(links as usize);
            return Err(SimError::EmptyFlowPath { task });
        }
        for &port in path {
            let Some(id) = self.cluster.port_id(port) else {
                self.links.truncate(links as usize);
                return Err(SimError::PhantomPort { task, port });
            };
            self.links.push(id);
        }
        Ok(self.push(Op::Transfer { bytes }, links, deps.len(), trace))
    }

    /// Adds a zero-cost marker joining `deps`, and returns its id.
    /// Forwards to [`Simulator::marker_after`].
    ///
    /// # Errors
    ///
    /// As for [`Simulator::marker_after`].
    pub fn marker(&mut self, deps: Vec<TaskId>) -> Result<TaskId, SimError> {
        self.marker_after(&deps)
    }

    /// Adds a zero-cost marker joining `deps`, and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownDependency`] as for
    /// [`Simulator::compute_after`].
    pub fn marker_after(&mut self, deps: &[TaskId]) -> Result<TaskId, SimError> {
        let links = self.link_deps(deps, None)?;
        Ok(self.push(Op::Marker, links, deps.len(), None))
    }

    /// The bytes and port path of transfer `id`, or `None` when `id` is a
    /// compute task, a marker, or not a task of this simulator.
    pub fn transfer_of(&self, id: TaskId) -> Option<(f64, Vec<Port>)> {
        let Op::Transfer { bytes } = self.tasks.get(id.0)?.op else {
            return None;
        };
        let path = self.links_of(id.0).1;
        Some((
            bytes,
            path.iter().map(|&p| self.cluster.port_at(p)).collect(),
        ))
    }

    /// Runs the DAG to completion on healthy hardware.
    ///
    /// Equivalent to [`Simulator::run_with_faults`] with an empty schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DependencyCycle`] if some tasks never became
    /// ready (unreachable with the forward-reference check, kept as a
    /// defensive invariant).
    pub fn run(&self) -> Result<SimReport, SimError> {
        self.run_with_faults(&FaultSchedule::default())
    }

    /// Runs the DAG to completion under a scripted [`FaultSchedule`].
    ///
    /// GPU slowdown windows stretch kernels (partial progress is settled at
    /// every window boundary), NIC degradations and flaps re-rate in-flight
    /// flows through the incremental max-min allocator, and rank crashes
    /// abort the run if any task assigned to the dead rank has not finished.
    /// With an empty schedule the produced report is bit-for-bit identical
    /// to [`Simulator::run`].
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidTopology`] if the schedule references ranks or
    ///   NICs outside the cluster or has malformed windows;
    /// - [`SimError::FaultBeforeStart`] if a rank is dead at time zero yet
    ///   the DAG assigns work to it;
    /// - [`SimError::RankUnavailable`] if a crash fires while work assigned
    ///   to the rank is still pending;
    /// - [`SimError::DependencyCycle`] as for [`Simulator::run`].
    pub fn run_with_faults(&self, faults: &FaultSchedule) -> Result<SimReport, SimError> {
        let (spans, port_bytes, stats) = self.execute(faults)?;
        // Run state is gone by now; the trace is the last allocation.
        let makespan = spans.iter().map(|&(_, e)| e).max().unwrap_or(SimTime::ZERO);
        let trace = self
            .traced
            .iter()
            .map(|t| {
                let (start, end) = spans[t.task as usize];
                TraceEvent {
                    rank: t.rank as Rank,
                    category: t.category,
                    label: t.label,
                    start,
                    end,
                }
            })
            .collect();
        Ok(SimReport {
            makespan,
            spans,
            trace,
            port_bytes,
            stats,
        })
    }

    /// The event loop: per-task spans, per-port bytes, and counters.
    #[allow(clippy::type_complexity)]
    fn execute(
        &self,
        faults: &FaultSchedule,
    ) -> Result<(Vec<(SimTime, SimTime)>, Vec<f64>, SimStats), SimError> {
        faults.validate(&self.cluster)?;
        let n = self.tasks.len();

        // Ranks referenced by crash events, with the ids of every task that
        // needs that rank alive (kernels on it, transfers through its
        // NVLink/PCIe ports — NICs are node-shared and handled as flaps).
        let crash_ranks: BTreeSet<Rank> = faults
            .crashes_in(SimTime::ZERO, SimTime::MAX)
            .into_iter()
            .map(|(rank, _)| rank)
            .collect();
        let mut rank_tasks: HashMap<Rank, Vec<usize>> = HashMap::new();
        if !crash_ranks.is_empty() {
            let mut touched: Vec<Rank> = Vec::new();
            for (i, task) in self.tasks.iter().enumerate() {
                touched.clear();
                match task.op {
                    Op::Compute { rank, .. } => touched.push(rank as Rank),
                    Op::Transfer { .. } => {
                        for &id in self.links_of(i).1 {
                            match self.cluster.port_at(id) {
                                Port::NvlinkOut(r)
                                | Port::NvlinkIn(r)
                                | Port::PcieOut(r)
                                | Port::PcieIn(r) => touched.push(r),
                                Port::NicTx(_) | Port::NicRx(_) => {}
                            }
                        }
                    }
                    Op::Marker => {}
                }
                touched.sort_unstable();
                touched.dedup();
                for &r in &touched {
                    if crash_ranks.contains(&r) {
                        rank_tasks.entry(r).or_default().push(i);
                    }
                }
            }
            // A rank dead at t=0 with work assigned can never make progress.
            for (rank, _) in faults.crashes_in(SimTime::ZERO, SimTime::from_nanos(1)) {
                if rank_tasks.get(&rank).is_some_and(|ts| !ts.is_empty()) {
                    return Err(SimError::FaultBeforeStart { rank });
                }
            }
        }

        // Per-rank compute speed and per-NIC capacity factor at time zero.
        let slow_ranks = faults.slowdown_ranks();
        let affected_nics = faults.affected_nics();
        let mut kernel_speed = vec![1.0f64; self.cluster.total_gpus()];
        for &r in &slow_ranks {
            kernel_speed[r] = faults.speed_at(r, SimTime::ZERO);
        }
        let mut nic_factor: HashMap<usize, f64> =
            affected_nics.iter().map(|&nic| (nic, 1.0)).collect();
        let nic_ports = |nic: usize| {
            let id = |p| self.cluster.port_id(p).expect("validated NIC");
            [id(Port::NicTx(nic)), id(Port::NicRx(nic))]
        };

        // Remaining-dependency counts, and the reverse index in CSR form:
        // the dependents of task `d` are
        // `dependents[dependents_start[d]..dependents_start[d + 1]]`, in
        // ascending task order.
        let mut indeg: Vec<u32> = self.tasks.iter().map(|t| t.deps).collect();
        let mut dependents_start = vec![0u32; n + 1];
        for i in 0..n {
            for &d in self.links_of(i).0 {
                dependents_start[d as usize + 1] += 1;
            }
        }
        for i in 0..n {
            dependents_start[i + 1] += dependents_start[i];
        }
        let mut dependents = vec![0u32; dependents_start[n] as usize];
        for i in 0..n {
            for &d in self.links_of(i).0 {
                let slot = &mut dependents_start[d as usize];
                dependents[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        // Each start now holds its successor's start; shift them back.
        for i in (1..=n).rev() {
            dependents_start[i] = dependents_start[i - 1];
        }
        dependents_start[0] = 0;

        let port_count = self.cluster.port_count();
        let mut net = FlowNetwork::with_ports(
            (0..port_count as u32)
                .map(|id| self.cluster.port_capacity(self.cluster.port_at(id)))
                .collect(),
        );
        net.set_workers(self.workers);
        if let Some(t) = self.par_threshold {
            net.set_parallel_threshold(t);
        }
        // Dense side table: flow arena slot → owning task id (slots are
        // recycled by the network, so entries are reset as flows finish).
        let mut flow_task: Vec<u32> = Vec::new();
        let mut port_bytes = vec![0.0f64; port_count];
        let mut drained_keys = Vec::new();
        // Streams as a dense table: per rank, slot 0 is the compute stream
        // and slot 1+i is Comm(i); dimensions come from a DAG pre-scan.
        let mut comm_streams = 0usize;
        let mut max_rank = 0usize;
        for task in &self.tasks {
            if let Op::Compute { rank, stream, .. } = task.op {
                max_rank = max_rank.max(rank as usize);
                if let Stream::Comm(i) = stream {
                    comm_streams = comm_streams.max(i as usize + 1);
                }
            }
        }
        let stream_slots = 1 + comm_streams;
        let rank_dim = self.cluster.total_gpus().max(max_rank + 1);
        let mut streams: Vec<StreamState> = Vec::new();
        streams.resize_with(rank_dim * stream_slots, StreamState::default);
        let sidx = |rank: u32, stream: Stream| -> usize {
            rank as usize * stream_slots
                + match stream {
                    Stream::Compute => 0,
                    Stream::Comm(i) => 1 + i as usize,
                }
        };
        let mut spans = vec![(SimTime::ZERO, SimTime::ZERO); n];
        let mut done = vec![false; n];
        let mut done_count = 0usize;
        let mut now = SimTime::ZERO;
        let mut net_gen: u64 = 0;

        // Arena-backed event heap: entries carry a generation-stamped
        // [`SlabKey`] instead of the payload, so sift-up/down moves small
        // fixed tuples and event slots recycle instead of reallocating.
        let mut event_arena: Slab<Event> = Slab::new();
        let mut events: BinaryHeap<Reverse<(SimTime, u64, SlabKey)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let mut events_popped: u64 = 0;
        let push_event = |events: &mut BinaryHeap<Reverse<(SimTime, u64, SlabKey)>>,
                          arena: &mut Slab<Event>,
                          t: SimTime,
                          ev: Event,
                          seq: &mut u64| {
            // Ordering is (time, insertion seq); seq is unique, so the slab
            // key never decides and pop order matches the pre-arena engine.
            *seq += 1;
            events.push(Reverse((t, *seq, arena.insert(ev))));
        };

        // Fault boundaries enter the heap first: their low sequence numbers
        // make them pop before completions at the same instant, so capacity
        // and speed changes apply before same-instant launches, and a crash
        // at t kills work that would have finished exactly at t (windows are
        // half-open).
        for t in faults.boundaries() {
            push_event(&mut events, &mut event_arena, t, Event::Fault, &mut seq);
        }
        // NIC windows already open at time zero (the t=0 boundary pops only
        // after the first launch phase below).
        for &nicn in &affected_nics {
            let f = faults.nic_factor_at(nicn, SimTime::ZERO);
            if f != 1.0 {
                nic_factor.insert(nicn, f);
                let bw = self.cluster.node.nic.bw;
                for port in nic_ports(nicn) {
                    net.set_capacity(port, bw * f);
                }
            }
        }
        // Per-task generation stamp; bumped when a speed change reschedules
        // a running kernel, invalidating the previously queued completion.
        let mut compute_gen = vec![0u32; n];

        // Work list of tasks that just became ready.
        let mut ready: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();

        macro_rules! reschedule_net {
            () => {
                net_gen += 1;
                if let Some(t) = net.next_completion() {
                    push_event(
                        &mut events,
                        &mut event_arena,
                        t.max(now),
                        Event::NetCheck(net_gen),
                        &mut seq,
                    );
                }
            };
        }
        // Marks task `$id` finished at `now` and readies its dependents.
        macro_rules! complete {
            ($id:expr) => {
                let id = $id as usize;
                spans[id].1 = now;
                done[id] = true;
                done_count += 1;
                let (a, b) = (dependents_start[id], dependents_start[id + 1]);
                for &dep in &dependents[a as usize..b as usize] {
                    indeg[dep as usize] -= 1;
                    if indeg[dep as usize] == 0 {
                        ready.push_back(dep);
                    }
                }
            };
        }
        // Starts kernel `$id` on stream state `$st` of rank `$rank` at `now`.
        macro_rules! start_kernel {
            ($st:expr, $id:expr, $rank:expr) => {
                let (id, rank) = ($id, $rank as usize);
                let Op::Compute { duration, .. } = self.tasks[id as usize].op else {
                    unreachable!("compute queue holds compute tasks")
                };
                let left_ns = duration.as_nanos() as f64;
                let speed = kernel_speed.get(rank).copied().unwrap_or(1.0);
                spans[id as usize].0 = now;
                $st.running = Some(RunningKernel {
                    task: id,
                    left_ns,
                    since: now,
                });
                push_event(
                    &mut events,
                    &mut event_arena,
                    now + kernel_eta(left_ns, speed),
                    Event::ComputeDone(id, compute_gen[id as usize]),
                    &mut seq,
                );
            };
        }

        loop {
            // Launch everything that is ready at the current instant.
            let mut net_dirty = false;
            while let Some(id) = ready.pop_front() {
                match self.tasks[id as usize].op {
                    Op::Marker => {
                        spans[id as usize].0 = now;
                        complete!(id);
                    }
                    Op::Compute { rank, stream, .. } => {
                        let st = &mut streams[sidx(rank, stream)];
                        st.queue.push_back(id);
                        if !st.busy {
                            st.busy = true;
                            let head = st.queue.pop_front().expect("just pushed");
                            start_kernel!(st, head, rank);
                        }
                    }
                    Op::Transfer { bytes } => {
                        spans[id as usize].0 = now;
                        if bytes <= 0.0 {
                            // Nothing to move; completes instantly.
                            complete!(id);
                        } else {
                            if !net_dirty {
                                // One clock advance and one rate rebalance
                                // cover every flow launched at this instant.
                                net.advance_to(now);
                                net.begin_update();
                                net_dirty = true;
                            }
                            let key = net.start_flow_ids(bytes, self.links_of(id as usize).1);
                            // The flow holds each port once, however often
                            // the path lists it.
                            for &port in net.path_of(key) {
                                port_bytes[port] += bytes;
                            }
                            let slot = key.slot();
                            if flow_task.len() <= slot {
                                flow_task.resize(slot + 1, u32::MAX);
                            }
                            flow_task[slot] = id;
                        }
                    }
                }
            }
            if net_dirty {
                net.commit_update();
                reschedule_net!();
            }

            // Fault boundaries can outlive the workload; once every task is
            // done the remaining events are irrelevant (in particular a
            // crash after the last completion must not fail the run).
            if done_count == n {
                break;
            }

            // Pull the next event; its payload lives in (and vacates) the
            // arena, keyed by a generation-stamped slab key.
            let Some(Reverse((t, _, key))) = events.pop() else {
                break;
            };
            let ev = event_arena.remove(key);
            events_popped += 1;
            now = t;
            match ev {
                Event::ComputeDone(id, gen) => {
                    if gen != compute_gen[id as usize] {
                        continue; // Stale: a fault rescheduled this kernel.
                    }
                    // Free the stream and start the next queued kernel.
                    let Op::Compute { rank, stream, .. } = self.tasks[id as usize].op else {
                        unreachable!("compute-done for non-compute task")
                    };
                    let st = &mut streams[sidx(rank, stream)];
                    st.running = None;
                    if let Some(next) = st.queue.pop_front() {
                        start_kernel!(st, next, rank);
                    } else {
                        st.busy = false;
                    }
                    complete!(id);
                }
                Event::NetCheck(generation) => {
                    if generation != net_gen {
                        continue; // Stale: the flow set changed since scheduling.
                    }
                    net.advance_to(now);
                    drained_keys.clear();
                    net.collect_drained(&mut drained_keys);
                    if drained_keys.is_empty() {
                        // Rounding moved completion past this instant; re-arm.
                        reschedule_net!();
                        continue;
                    }
                    // Batch the removals: one rebalance for the whole
                    // completion group instead of one per finished flow.
                    net.begin_update();
                    for &key in &drained_keys {
                        net.finish_flow(key);
                        let owner = std::mem::replace(&mut flow_task[key.slot()], u32::MAX);
                        debug_assert_ne!(owner, u32::MAX, "flow has owner task");
                        complete!(owner);
                    }
                    net.commit_update();
                    reschedule_net!();
                }
                Event::Fault => {
                    // Crashes first: any unfinished work on a dead rank is
                    // unrecoverable, and at equal instants the crash wins
                    // (windows are half-open, so t is inside the fault).
                    let next_ns = SimTime::from_nanos(now.as_nanos().saturating_add(1));
                    for (rank, at) in faults.crashes_in(now, next_ns) {
                        let pending = rank_tasks
                            .get(&rank)
                            .map(|ts| ts.iter().filter(|&&i| !done[i]).count())
                            .unwrap_or(0);
                        if pending > 0 {
                            return Err(SimError::RankUnavailable { rank, at, pending });
                        }
                    }
                    // Re-rate NICs whose capacity factor changed here; one
                    // batched rebalance covers every affected port.
                    let mut nic_dirty = false;
                    for &nicn in &affected_nics {
                        let f = faults.nic_factor_at(nicn, now);
                        if f != nic_factor[&nicn] {
                            if !nic_dirty {
                                net.advance_to(now);
                                net.begin_update();
                                nic_dirty = true;
                            }
                            let bw = self.cluster.node.nic.bw;
                            for port in nic_ports(nicn) {
                                net.set_capacity(port, bw * f);
                            }
                            nic_factor.insert(nicn, f);
                        }
                    }
                    if nic_dirty {
                        net.commit_update();
                        reschedule_net!();
                    }
                    // Settle running kernels on ranks whose speed changed
                    // and reschedule their completions at the new speed.
                    for &r in &slow_ranks {
                        let s = faults.speed_at(r, now);
                        let old = kernel_speed[r];
                        if s == old {
                            continue;
                        }
                        kernel_speed[r] = s;
                        // Slot order (Compute, then Comm(0..)) matches the
                        // sorted-key order of the old map-based table, so
                        // event sequence numbers are unchanged.
                        for slot in 0..stream_slots {
                            let st = &mut streams[r * stream_slots + slot];
                            if let Some(run) = st.running.as_mut() {
                                let elapsed = now.since(run.since).as_nanos() as f64;
                                run.left_ns = (run.left_ns - elapsed * old).max(0.0);
                                run.since = now;
                                compute_gen[run.task as usize] += 1;
                                push_event(
                                    &mut events,
                                    &mut event_arena,
                                    now + kernel_eta(run.left_ns, s),
                                    Event::ComputeDone(run.task, compute_gen[run.task as usize]),
                                    &mut seq,
                                );
                            }
                        }
                    }
                }
            }
        }

        if done_count != n {
            return Err(SimError::DependencyCycle {
                stuck: n - done_count,
            });
        }
        let stats = SimStats {
            events: events_popped,
            net: net.stats().clone(),
        };
        Ok((spans, port_bytes, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tiny_cluster;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_dag_finishes_at_zero() {
        let sim = Simulator::new(&tiny_cluster(1, 2));
        let r = sim.run().unwrap();
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn sequential_dependencies_accumulate() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        let a = sim
            .compute(0, Stream::Compute, ms(2), vec![], None)
            .unwrap();
        let b = sim
            .compute(0, Stream::Compute, ms(3), vec![a], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.makespan.as_nanos(), 5_000_000);
        assert_eq!(r.span(b).0.as_nanos(), 2_000_000);
    }

    #[test]
    fn independent_tasks_on_different_gpus_run_in_parallel() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        sim.compute(0, Stream::Compute, ms(4), vec![], None)
            .unwrap();
        sim.compute(1, Stream::Compute, ms(4), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.makespan.as_nanos(), 4_000_000);
    }

    #[test]
    fn same_stream_serializes_independent_tasks() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        sim.compute(0, Stream::Compute, ms(4), vec![], None)
            .unwrap();
        sim.compute(0, Stream::Compute, ms(4), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.makespan.as_nanos(), 8_000_000);
    }

    #[test]
    fn different_streams_on_one_gpu_overlap() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        sim.compute(0, Stream::Compute, ms(4), vec![], None)
            .unwrap();
        sim.compute(0, Stream::Comm(0), ms(4), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.makespan.as_nanos(), 4_000_000);
    }

    #[test]
    fn transfer_duration_matches_bandwidth() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        // 200 GB over a 200 GB/s NVLink pair: 1 second.
        sim.transfer(200e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert!((r.makespan.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn compute_and_transfer_overlap() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        sim.compute(
            0,
            Stream::Compute,
            SimDuration::from_secs_f64(1.0),
            vec![],
            None,
        )
        .unwrap();
        sim.transfer(200e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert!((r.makespan.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn contending_transfers_slow_each_other() {
        let c = tiny_cluster(2, 1);
        let mut sim = Simulator::new(&c);
        // Two flows out of the same NIC (node0 gpu0 -> node1 gpu0): the
        // tiny cluster has 1 GPU and 1 NIC per node, so they share 12.5 GB/s.
        sim.transfer(12.5e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        sim.transfer(12.5e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert!((r.makespan.as_secs_f64() - 2.0).abs() < 1e-5);
    }

    #[test]
    fn dependent_transfer_starts_after_compute() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let a = sim
            .compute(
                0,
                Stream::Compute,
                SimDuration::from_secs_f64(0.5),
                vec![],
                None,
            )
            .unwrap();
        let t = sim
            .transfer(100e9, c.direct_path(0, 1), vec![a], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert!((r.span(t).0.as_secs_f64() - 0.5).abs() < 1e-6);
        assert!((r.makespan.as_secs_f64() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn staggered_contention_releases_bandwidth() {
        let c = tiny_cluster(2, 1);
        let mut sim = Simulator::new(&c);
        // Flow A alone for 1 s, then flow B joins (dep on a 1 s compute).
        sim.transfer(25e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let gate = sim
            .compute(
                0,
                Stream::Compute,
                SimDuration::from_secs_f64(1.0),
                vec![],
                None,
            )
            .unwrap();
        let b = sim
            .transfer(12.5e9, c.direct_path(0, 1), vec![gate], None)
            .unwrap();
        let r = sim.run().unwrap();
        // A: 12.5 GB alone (1 s), then shares -> 12.5 GB left at 6.25 GB/s
        // would be 2 s... max-min: both at 6.25 GB/s after t=1.
        // A finishes at 1 + 12.5/6.25 = 3 s; B moved 12.5 GB by then at
        // 6.25 GB/s = 2 s of its own... B needs 12.5/6.25 = 2 s -> done at 3 s.
        assert!((r.makespan.as_secs_f64() - 3.0).abs() < 1e-4);
        assert!((r.span(b).0.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let t = sim
            .transfer(0.0, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let after = sim
            .compute(0, Stream::Compute, ms(1), vec![t], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.span(t).0, r.span(t).1);
        assert_eq!(r.span(after).0, SimTime::ZERO);
    }

    #[test]
    fn markers_join_without_cost() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        let a = sim
            .compute(0, Stream::Compute, ms(1), vec![], None)
            .unwrap();
        let b = sim
            .compute(1, Stream::Compute, ms(2), vec![], None)
            .unwrap();
        let m = sim.marker(vec![a, b]).unwrap();
        let after = sim
            .compute(0, Stream::Compute, ms(1), vec![m], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.span(after).0.as_nanos(), 2_000_000);
        assert_eq!(r.makespan.as_nanos(), 3_000_000);
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        let err = sim.marker(vec![TaskId(5)]).unwrap_err();
        assert!(matches!(err, SimError::UnknownDependency { .. }));
        // The rejected task left nothing behind.
        assert_eq!(sim.task_count(), 0);
        assert_eq!(sim.marker(vec![]).unwrap(), TaskId(0));
    }

    #[test]
    fn phantom_port_is_rejected() {
        let c = tiny_cluster(2, 1);
        let mut sim = Simulator::new(&c);
        let ok = sim
            .transfer(1e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        let err = sim
            .transfer(
                1e9,
                vec![Port::PcieOut(0), Port::NicTx(999)],
                vec![ok],
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            SimError::PhantomPort {
                task: 1,
                port: Port::NicTx(999)
            }
        );
        // The cluster is untouched and the DAG still runs.
        assert_eq!(sim.task_count(), 1);
        assert!(sim.run().unwrap().makespan > SimTime::ZERO);
    }

    #[test]
    fn duplicate_path_ports_count_once() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let mut path = c.direct_path(0, 1);
        path.extend(c.direct_path(0, 1));
        sim.transfer(200e9, path, vec![], None).unwrap();
        let r = sim.run().unwrap();
        assert!((r.makespan.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(r.bytes_through(&c, Port::NvlinkOut(0)), 200e9);
    }

    #[test]
    fn empty_transfer_path_is_rejected() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        let err = sim.transfer(1.0, vec![], vec![], None).unwrap_err();
        assert!(matches!(err, SimError::EmptyFlowPath { .. }));
    }

    #[test]
    fn trace_records_attributed_tasks_only() {
        let mut sim = Simulator::new(&tiny_cluster(1, 2));
        sim.compute(
            0,
            Stream::Compute,
            ms(1),
            vec![],
            Some(TraceInfo {
                rank: 0,
                category: TraceCategory::AttentionCompute,
                label: TraceLabel::new("attn"),
            }),
        )
        .unwrap();
        sim.compute(1, Stream::Compute, ms(1), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.trace.events().len(), 1);
        assert_eq!(r.trace.events()[0].label.to_string(), "attn");
    }

    #[test]
    fn port_bytes_account_every_transfer() {
        let c = tiny_cluster(2, 1);
        let mut sim = Simulator::new(&c);
        sim.transfer(3e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        sim.transfer(2e9, c.direct_path(0, 1), vec![], None)
            .unwrap();
        sim.transfer(1e9, c.direct_path(1, 0), vec![], None)
            .unwrap();
        let r = sim.run().unwrap();
        assert!((r.bytes_through(&c, Port::NicTx(0)) - 5e9).abs() < 1.0);
        assert!((r.bytes_through(&c, Port::NicTx(1)) - 1e9).abs() < 1.0);
        assert!((r.bytes_through(&c, Port::NicRx(1)) - 5e9).abs() < 1.0);
        assert_eq!(r.bytes_through(&c, Port::NicTx(7)), 0.0);
        // Utilization: 5 GB over the makespan at 12.5 GB/s.
        let u = r.port_utilization(&c, Port::NicTx(0));
        assert!(u > 0.9 && u <= 1.0 + 1e-9, "utilization {u}");
        // Unused port reads zero.
        assert_eq!(r.port_utilization(&c, Port::NvlinkOut(0)), 0.0);
    }

    #[test]
    fn determinism_same_inputs_same_schedule() {
        let build = || {
            let c = tiny_cluster(2, 2);
            let mut sim = Simulator::new(&c);
            let mut last = None;
            for i in 0..20 {
                let deps = last.map(|l| vec![l]).unwrap_or_default();
                let t = if i % 3 == 0 {
                    sim.transfer(
                        1e9 * (i + 1) as f64,
                        c.direct_path(i % 4, (i + 1) % 4),
                        deps,
                        None,
                    )
                    .unwrap()
                } else {
                    sim.compute(i % 4, Stream::Compute, ms(i as u64 % 5 + 1), deps, None)
                        .unwrap()
                };
                last = Some(t);
                if i % 7 == 0 {
                    sim.transfer(5e8, c.direct_path((i + 2) % 4, (i + 3) % 4), vec![], None)
                        .unwrap();
                }
            }
            sim.run().unwrap()
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.spans.len(), r2.spans.len());
        for (a, b) in r1.spans.iter().zip(&r2.spans) {
            assert_eq!(a, b);
        }
    }

    mod faults {
        use super::*;
        use crate::fault::FaultSchedule;
        use crate::time::SimTime;

        fn at_ms(v: u64) -> SimTime {
            SimTime::from_nanos(v * 1_000_000)
        }

        #[test]
        fn empty_schedule_matches_plain_run_bitwise() {
            let c = tiny_cluster(2, 2);
            let mut sim = Simulator::new(&c);
            let a = sim
                .compute(0, Stream::Compute, ms(3), vec![], None)
                .unwrap();
            sim.compute(0, Stream::Compute, ms(2), vec![], None)
                .unwrap();
            sim.transfer(5e9, c.direct_path(0, 2), vec![a], None)
                .unwrap();
            sim.transfer(3e9, c.direct_path(1, 3), vec![], None)
                .unwrap();
            let plain = sim.run().unwrap();
            let faulted = sim.run_with_faults(&FaultSchedule::new()).unwrap();
            assert_eq!(plain.makespan, faulted.makespan);
            assert_eq!(plain.spans, faulted.spans);
        }

        #[test]
        fn slowdown_stretches_kernel() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            let k = sim
                .compute(0, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            // Half speed for the whole run: 10 ms of work takes 20 ms.
            let f = FaultSchedule::new().gpu_slowdown(0, 0.5, SimTime::ZERO, None);
            let r = sim.run_with_faults(&f).unwrap();
            assert!(
                (r.duration(k).as_secs_f64() - 0.020).abs() < 1e-6,
                "duration {}",
                r.duration(k)
            );
        }

        #[test]
        fn slowdown_window_settles_partial_progress() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            sim.compute(0, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            // Half speed during [0, 5ms): 2.5 ms of nominal work done, the
            // remaining 7.5 ms runs at full speed -> ends at 12.5 ms.
            let f = FaultSchedule::new().gpu_slowdown(0, 0.5, SimTime::ZERO, Some(at_ms(5)));
            let r = sim.run_with_faults(&f).unwrap();
            assert!(
                (r.makespan.as_secs_f64() - 0.0125).abs() < 1e-6,
                "makespan {}",
                r.makespan
            );
            // Unaffected ranks are untouched.
            let mut sim2 = Simulator::new(&tiny_cluster(1, 2));
            sim2.compute(1, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            let r2 = sim2.run_with_faults(&f).unwrap();
            assert_eq!(r2.makespan.as_nanos(), 10_000_000);
        }

        #[test]
        fn nic_degrade_stretches_transfer() {
            let c = tiny_cluster(2, 1);
            let mut sim = Simulator::new(&c);
            // 25 GB over a 12.5 GB/s NIC takes 2 s; at half capacity 4 s.
            sim.transfer(25e9, c.direct_path(0, 1), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().nic_degrade(0, 0.5, SimTime::ZERO, None);
            let r = sim.run_with_faults(&f).unwrap();
            assert!(
                (r.makespan.as_secs_f64() - 4.0).abs() < 1e-5,
                "makespan {}",
                r.makespan
            );
        }

        #[test]
        fn link_flap_heals_and_traffic_resumes() {
            let c = tiny_cluster(2, 1);
            let mut sim = Simulator::new(&c);
            // 12.5 GB normally takes 1 s. The NIC flaps for the first
            // second (residual 1e-3), then heals: ~2 s total.
            sim.transfer(12.5e9, c.direct_path(0, 1), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().link_flap(
                0,
                SimTime::ZERO,
                Some(SimTime::from_nanos(1_000_000_000)),
            );
            let r = sim.run_with_faults(&f).unwrap();
            let got = r.makespan.as_secs_f64();
            assert!((got - 2.0).abs() < 0.01, "makespan {got}");
        }

        #[test]
        fn crash_with_pending_work_errors() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            sim.compute(1, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().rank_crash(1, at_ms(5));
            let err = sim.run_with_faults(&f).unwrap_err();
            assert_eq!(
                err,
                SimError::RankUnavailable {
                    rank: 1,
                    at: at_ms(5),
                    pending: 1
                }
            );
        }

        #[test]
        fn crash_after_completion_is_harmless() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            sim.compute(1, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().rank_crash(1, at_ms(20));
            let r = sim.run_with_faults(&f).unwrap();
            assert_eq!(r.makespan.as_nanos(), 10_000_000);
        }

        #[test]
        fn crash_of_idle_rank_is_harmless() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            sim.compute(0, Stream::Compute, ms(10), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().rank_crash(1, at_ms(5));
            let r = sim.run_with_faults(&f).unwrap();
            assert_eq!(r.makespan.as_nanos(), 10_000_000);
        }

        #[test]
        fn crash_kills_pending_transfer_through_its_ports() {
            let c = tiny_cluster(2, 1);
            let mut sim = Simulator::new(&c);
            sim.transfer(25e9, c.direct_path(0, 1), vec![], None)
                .unwrap();
            // Rank 1 is the receiver (PcieIn(1) in the path): its crash
            // mid-transfer dooms the flow.
            let f = FaultSchedule::new().rank_crash(1, at_ms(100));
            let err = sim.run_with_faults(&f).unwrap_err();
            assert!(matches!(err, SimError::RankUnavailable { rank: 1, .. }));
        }

        #[test]
        fn dead_on_arrival_rank_is_reported_before_start() {
            let mut sim = Simulator::new(&tiny_cluster(1, 2));
            sim.compute(0, Stream::Compute, ms(1), vec![], None)
                .unwrap();
            let f = FaultSchedule::new().rank_crash(0, SimTime::ZERO);
            let err = sim.run_with_faults(&f).unwrap_err();
            assert_eq!(err, SimError::FaultBeforeStart { rank: 0 });
        }

        #[test]
        fn invalid_schedule_is_rejected() {
            let sim = Simulator::new(&tiny_cluster(1, 2));
            let f = FaultSchedule::new().rank_crash(99, at_ms(1));
            assert!(matches!(
                sim.run_with_faults(&f),
                Err(SimError::InvalidTopology(_))
            ));
        }

        #[test]
        fn faulted_runs_are_deterministic() {
            let c = tiny_cluster(2, 2);
            let run = |seed: u64| {
                let mut sim = Simulator::new(&c);
                let mut last = None;
                for i in 0..24 {
                    let deps = last.map(|l| vec![l]).unwrap_or_default();
                    let t = if i % 3 == 0 {
                        sim.transfer(
                            2e9 * (i + 1) as f64,
                            c.direct_path(i % 4, (i + 1) % 4),
                            deps,
                            None,
                        )
                        .unwrap()
                    } else {
                        sim.compute(i % 4, Stream::Compute, ms(i as u64 % 5 + 1), deps, None)
                            .unwrap()
                    };
                    last = Some(t);
                }
                let f = FaultSchedule::new()
                    .gpu_slowdown(0, 0.4, at_ms(1), Some(at_ms(9)))
                    .gpu_slowdown(2, 0.7, at_ms(2), None)
                    .nic_degrade(1, 0.3, at_ms(3), Some(at_ms(7)))
                    .link_flap(0, at_ms(5), Some(at_ms(6)))
                    .gpu_slowdown(seed as usize % 4, 0.9, at_ms(4), Some(at_ms(8)));
                sim.run_with_faults(&f).unwrap()
            };
            for seed in 0..4 {
                let a = run(seed);
                let b = run(seed);
                assert_eq!(a.makespan, b.makespan, "seed {seed}");
                assert_eq!(a.spans, b.spans, "seed {seed}");
            }
        }
    }
}
