//! The TCP front-end: one blocking thread per connection, serving
//! line-delimited JSON plan requests out of the sharded canonicalizing
//! cache with single-flight coalescing — and the fault discipline of a
//! service that sits on a training hot path.
//!
//! Architecture: [`Server::run`] accepts in blocking mode and gives each
//! connection a scoped thread that blocks in `read` on a [`FrameReader`],
//! so a request is seen the moment its bytes arrive. The thread runs each
//! `plan` or `audit` job itself once it holds a job permit, so the reply
//! is written the moment planning ends; cheap requests (`stats`,
//! `shutdown`, parse errors) need no permit. A connection serves one
//! request at a time, so pipelined requests are answered in order.
//!
//! Contention discipline, per layer:
//!
//! - **Job gate**: at most [`ServerConfig::workers`] jobs run at once and
//!   at most [`ServerConfig::max_queue`] wait, woken one at a time in
//!   arrival order; one more is refused with a typed `overloaded` error.
//! - **Sharded cache**: the plan cache is a [`ShardedPlanCache`] — shard
//!   chosen by the high bits of the precomputed key digest, so concurrent
//!   jobs on distinct keys never meet on one mutex.
//! - **Single-flight coalescing**: concurrent misses on one key join a
//!   [`FlightTable`] flight; one leader runs the planner (charged once to
//!   the admission gate) and fans the shared `Arc` plan out to every
//!   follower, each still bounded by its own deadline.
//! - **Sharded metrics**: a job records into its permit's metrics shard;
//!   shards merge only when a `stats` snapshot is taken.
//!
//! Fault discipline, per request (the seeded chaos harness runs against
//! this front-end):
//!
//! - **Deadlines**: a `deadline_ms` budget propagates from the request line
//!   through planning (and any coalesced wait) to the response write; an
//!   expired budget is answered with a typed `deadline_exceeded` error
//!   instead of a stale plan.
//! - **Bounded framing and I/O**: [`FrameReader`] owns partial frames across
//!   read timeouts, sheds byte-dribbling clients (`slow_client`) after
//!   [`ServerConfig::frame_timeout_ms`], and resynchronizes after oversized
//!   lines (`frame_oversized`); idle connections close after
//!   [`ServerConfig::idle_timeout_ms`], and a client that stops reading is
//!   dropped after [`ServerConfig::write_timeout_ms`] — no client behavior
//!   can pin a connection thread, and no write holds a permit.
//! - **Panic containment**: planner runs and whole jobs run under
//!   `catch_unwind`; a panic is answered with a typed `worker_panicked`
//!   error, and the permit's drop guard returns it to the gate, so
//!   capacity never decays. A panic that escapes a job ends only its
//!   connection and is counted (`worker_respawns`, a containment bug).
//! - **Admission control + degraded mode**: cache misses pass a
//!   load-shedding [`AdmissionGate`] over estimated in-flight planner time
//!   and a [`CircuitBreaker`] over consecutive planner failures; shed or
//!   short-circuited misses are answered by the fast fallback scheduler
//!   (`degraded: true`) instead of queueing behind a sick planner.
//! - **Graceful drain**: `shutdown` starts a bounded grace period during
//!   which waiting and running jobs are served normally; stragglers past
//!   the grace get a typed `shutting_down` error, never a silently dropped
//!   connection.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use zeppelin_core::plan_io::plan_from_json;
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::validate::{report, validate, validate_with_batch};
use zeppelin_data::batch::Batch;

use crate::admission::{AdmissionGate, CircuitBreaker};
use crate::cache::{CacheStats, CachedPlan, PlanKey, ShardedPlanCache};
use crate::canonical::CanonicalBatch;
use crate::chaos::PlannerChaos;
use crate::frame::{Frame, FrameError, FrameReader, MAX_FRAME_BYTES};
use crate::gate::JobGate;
use crate::metrics::{MetricsShard, MetricsSnapshot, ServiceMetrics};
use crate::protocol::{
    error_response, parse_request, plan_response, shutdown_response, stats_response, typed_error,
    ErrorCode, Request,
};
use crate::registry;
use crate::singleflight::{FlightOutcome, FlightTable, Join};

/// Upper bound on one request line, in bytes (alias of
/// [`MAX_FRAME_BYTES`], kept for callers of the original constant).
pub const MAX_LINE_BYTES: u64 = MAX_FRAME_BYTES as u64;

/// Longest a connection thread blocks in one `read`: how soon a quiet
/// connection notices that the drain grace has ended. Requests never wait
/// on it — a read returns as soon as bytes arrive.
const DRAIN_NOTICE: Duration = Duration::from_millis(50);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Plan/audit jobs that run at once. Each runs on the connection
    /// thread that read it, holding one of this many permits (the thread
    /// calling [`Server::run`] accepts, and each connection gets its own
    /// thread).
    pub workers: usize,
    /// Connections allowed to wait for a job permit before a job is
    /// rejected with a typed `overloaded` error.
    pub max_queue: usize,
    /// Plan-cache capacity (entries, split across the shards).
    pub cache_capacity: usize,
    /// Plan-cache shard count (keyed by the high bits of the key digest).
    pub cache_shards: usize,
    /// Concurrent connections accepted before new ones are rejected with a
    /// typed `overloaded` error.
    pub max_connections: usize,
    /// Default scheduler for requests without `method`.
    pub method: String,
    /// Default model preset.
    pub model: String,
    /// Default cluster preset.
    pub cluster: String,
    /// Default node count.
    pub nodes: usize,
    /// Fallback scheduler answering shed/short-circuited misses
    /// (`degraded: true`). Must resolve in the registry.
    pub degraded_method: String,
    /// Grace period after `shutdown` during which waiting and running
    /// requests are still served; later arrivals get `shutting_down`.
    pub grace_ms: u64,
    /// Idle keep-alive connections are closed after this long without a
    /// complete request (half-open client guard).
    pub idle_timeout_ms: u64,
    /// One frame may dribble at most this long before the connection is
    /// shed with `slow_client` (slow-loris guard).
    pub frame_timeout_ms: u64,
    /// A client that stops reading its responses is disconnected once a
    /// response write has made no progress for this long.
    pub write_timeout_ms: u64,
    /// Admission gate high-water mark: estimated in-flight planner
    /// milliseconds beyond which cache misses are shed to degraded mode.
    pub planner_highwater_ms: u64,
    /// Seed for the gate's planner-latency estimate before observations.
    pub planner_estimate_ms: u64,
    /// Consecutive planner failures (errors or contained panics) that trip
    /// the circuit breaker open.
    pub breaker_failures: u32,
    /// How long the breaker stays open before half-opening one trial run.
    pub breaker_cooldown_ms: u64,
    /// Deterministic planner fault injection (stalls/panics) for the chaos
    /// harness; `None` in production.
    pub chaos: Option<Arc<PlannerChaos>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 4,
            max_queue: 64,
            cache_capacity: 1024,
            cache_shards: 8,
            max_connections: 1024,
            method: "zeppelin".to_string(),
            model: "3b".to_string(),
            cluster: "a".to_string(),
            nodes: 2,
            degraded_method: "te".to_string(),
            grace_ms: 500,
            idle_timeout_ms: 30_000,
            frame_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            planner_highwater_ms: 2_000,
            planner_estimate_ms: 20,
            breaker_failures: 3,
            breaker_cooldown_ms: 250,
            chaos: None,
        }
    }
}

/// Everything [`Server::run`] hands back after a graceful shutdown.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Final service metrics.
    pub metrics: MetricsSnapshot,
    /// Final cache counters (merged across shards).
    pub cache: CacheStats,
    /// Plans held in the cache at shutdown.
    pub cached_plans: usize,
}

/// One response line, and whether the connection closes after it.
struct Completion {
    response: String,
    close: bool,
}

impl Completion {
    fn reply(response: String) -> Completion {
        Completion {
            response,
            close: false,
        }
    }

    fn goodbye(response: String) -> Completion {
        Completion {
            response,
            close: true,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    /// Where `begin_drain` connects to wake the blocked `accept`.
    wake_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Set when shutdown begins: the end of the drain grace period.
    drain_until: Mutex<Option<Instant>>,
    jobs: JobGate,
    metrics: ServiceMetrics,
    cache: ShardedPlanCache,
    flights: FlightTable,
    gate: AdmissionGate,
    breaker: CircuitBreaker,
}

impl Shared {
    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut until = self.drain_until.lock().expect("drain poisoned");
        if until.is_some() {
            return;
        }
        *until = Some(Instant::now() + Duration::from_millis(self.cfg.grace_ms));
        drop(until);
        // The accept thread is blocked in `accept`; one connection to our
        // own listener wakes it to see the flag. If it fails, the next
        // client's connection does the same.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    /// True once the drain grace period has elapsed (always false before
    /// shutdown).
    fn past_grace(&self) -> bool {
        if !self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        self.drain_until
            .lock()
            .expect("drain poisoned")
            .is_none_or(|t| Instant::now() > t)
    }
}

/// A bound planning server, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Shared,
}

impl Server {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission...).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let wake_ip = match local_addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let cache = ShardedPlanCache::new(cfg.cache_capacity, cfg.cache_shards);
        let gate = AdmissionGate::new(cfg.planner_highwater_ms, cfg.planner_estimate_ms);
        let breaker = CircuitBreaker::new(
            cfg.breaker_failures,
            Duration::from_millis(cfg.breaker_cooldown_ms),
        );
        // One metrics shard per job permit plus one shared by the
        // connection threads.
        let metrics = ServiceMetrics::with_shards(cfg.workers.max(1) + 1);
        let jobs = JobGate::new(cfg.workers, cfg.max_queue);
        Ok(Server {
            listener,
            local_addr,
            shared: Shared {
                cfg,
                wake_addr: SocketAddr::new(wake_ip, local_addr.port()),
                shutdown: AtomicBool::new(false),
                drain_until: Mutex::new(None),
                jobs,
                metrics,
                cache,
                flights: FlightTable::new(),
                gate,
                breaker,
            },
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request arrives, then drains the
    /// connections and reports final metrics.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept errors (`Interrupted` is retried).
    pub fn run(self) -> std::io::Result<ServerReport> {
        let shared = &self.shared;
        // The scope joins every connection thread, and each runs its own
        // jobs, so no job waits or runs after it and the final snapshot
        // below sees them all.
        std::thread::scope(|conns| accept_loop(shared, &self.listener, conns))?;
        Ok(ServerReport {
            metrics: self.shared.metrics.snapshot(),
            cache: self.shared.cache.stats(),
            cached_plans: self.shared.cache.len(),
        })
    }
}

/// Accepts connections, one scoped thread each, until drain begins.
fn accept_loop<'scope>(
    shared: &'scope Shared,
    listener: &TcpListener,
    scope: &'scope Scope<'scope, '_>,
) -> std::io::Result<()> {
    let mut conns: Vec<ScopedJoinHandle<'scope, ()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Once drain begins, the wake-up connection (or a late client) is
        // closed unanswered.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match accepted {
            Ok((stream, _)) => {
                conns.retain(|c| !c.is_finished());
                if conns.len() >= shared.cfg.max_connections {
                    refuse(shared, stream);
                } else {
                    conns.push(scope.spawn(move || {
                        // Backstop: a panic that escapes request containment
                        // ends only its own connection, and is counted.
                        if catch_unwind(AssertUnwindSafe(|| serve_conn(shared, stream))).is_err() {
                            shared.metrics.record_escaped_panic();
                        }
                    }));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                shared.begin_drain();
                return Err(e);
            }
        }
    }
}

/// Answers a connection past `max_connections` with a typed `overloaded`
/// line and closes it.
fn refuse(shared: &Shared, mut stream: TcpStream) {
    shared.metrics.record_rejected();
    // Best-effort rejection notice; the client may already be gone.
    let _ = stream.set_write_timeout(Some(Duration::from_millis(
        shared.cfg.write_timeout_ms.max(1),
    )));
    let _ = writeln!(
        stream,
        "{}",
        typed_error(
            ErrorCode::Overloaded,
            "overloaded: connection limit reached"
        )
    );
}

/// Serves one connection until the client leaves, a budget or the drain
/// closes it, or a response cannot be written.
fn serve_conn(shared: &Shared, stream: TcpStream) {
    let cfg = &shared.cfg;
    let metrics = shared.metrics.shard(0);
    let frame_budget = Duration::from_millis(cfg.frame_timeout_ms.max(1));
    let idle_budget = Duration::from_millis(cfg.idle_timeout_ms.max(1));
    let write_budget = Duration::from_millis(cfg.write_timeout_ms.max(1));
    // Without `TCP_NODELAY` a response written while the previous one is
    // unacknowledged waits for the client's delayed ACK.
    let setup = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_write_timeout(Some(write_budget)));
    let Ok(mut writer) = setup.and_then(|()| stream.try_clone()) else {
        return;
    };
    let mut reader = FrameReader::new(stream);
    let mut read_timeout = Duration::ZERO;
    let mut idle_since = Instant::now();
    loop {
        // Block until bytes arrive or the current frame's (or the idle)
        // budget runs out, capped so a quiet connection sees the drain.
        let budget = match reader.frame_age() {
            Some(age) => frame_budget.saturating_sub(age),
            None => idle_budget.saturating_sub(idle_since.elapsed()),
        };
        let timeout = budget.clamp(Duration::from_millis(1), DRAIN_NOTICE);
        if timeout != read_timeout {
            // The clone shares the socket, so this times the reader's reads.
            if writer.set_read_timeout(Some(timeout)).is_err() {
                return;
            }
            read_timeout = timeout;
        }
        let done = match reader.read_frame(Some(frame_budget)) {
            Ok(Frame::Line(line)) => {
                let arrival = Instant::now();
                idle_since = arrival;
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                if shared.past_grace() {
                    // Drain straggler: a typed goodbye, not a dropped
                    // connection.
                    metrics.record_shutting_down();
                    Completion::goodbye(typed_error(
                        ErrorCode::ShuttingDown,
                        "server is draining and the grace period has passed",
                    ))
                } else {
                    handle_line(shared, line, arrival)
                }
            }
            Err(FrameError::TimedOut { mid_frame }) => {
                // A partial frame keeps waiting (`read_frame` sheds it once
                // over budget); a quiet connection closes past the grace or
                // the idle budget.
                if !mid_frame && (shared.past_grace() || idle_since.elapsed() > idle_budget) {
                    return;
                }
                continue;
            }
            Err(FrameError::SlowFrame { partial }) => {
                metrics.record_slow_client();
                Completion::goodbye(typed_error(
                    ErrorCode::SlowClient,
                    &format!(
                        "request frame stalled after {partial} byte(s); \
                         send complete lines within the frame budget"
                    ),
                ))
            }
            Err(FrameError::Oversized { discarded }) => {
                metrics.record_error();
                // Resynchronized: the connection keeps serving.
                Completion::reply(typed_error(
                    ErrorCode::FrameOversized,
                    &format!(
                        "request line exceeds the {MAX_LINE_BYTES}-byte limit \
                         ({discarded} bytes discarded); resynchronized at the next line"
                    ),
                ))
            }
            // The peer closed or vanished: nobody left to answer.
            Ok(Frame::Eof) | Err(FrameError::Truncated { .. }) | Err(FrameError::Io(_)) => return,
        };
        // One write per response line.
        let mut response = done.response;
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() || done.close {
            return;
        }
        idle_since = Instant::now();
    }
}

/// Handles one complete request line on its connection thread. Cheap
/// requests are answered at once; plan/audit requests run as jobs behind
/// the job gate.
fn handle_line(shared: &Shared, line: &str, arrival: Instant) -> Completion {
    let metrics = shared.metrics.shard(0);
    match parse_request(line) {
        Ok(Request::Stats) => {
            metrics.record_stats();
            Completion::reply(stats_response(&shared.metrics.snapshot()))
        }
        Ok(Request::Shutdown) => {
            shared.begin_drain();
            Completion::goodbye(shutdown_response())
        }
        Ok(Request::Plan {
            seqs,
            method,
            model,
            cluster,
            nodes,
            deadline_ms,
        }) => {
            let deadline = deadline_ms.map(|ms| arrival + Duration::from_millis(ms));
            run_job(shared, |metrics| {
                serve_plan(
                    shared, metrics, &seqs, method, model, cluster, nodes, deadline,
                )
            })
        }
        Ok(Request::Audit { plan }) => run_job(shared, |_| audit_plan(shared, &plan)),
        Err(msg) => {
            metrics.record_error();
            Completion::reply(error_response(&msg))
        }
    }
}

/// Runs `job` once this thread holds a job permit, recording into the
/// permit's metrics shard, and answers its error typed. With `max_queue`
/// jobs already waiting the request is rejected typed and the connection
/// keeps serving.
fn run_job(
    shared: &Shared,
    job: impl FnOnce(MetricsShard<'_>) -> Result<String, (ErrorCode, String)>,
) -> Completion {
    let Some(permit) = shared.jobs.acquire(&shared.metrics) else {
        shared.metrics.record_rejected();
        return Completion::reply(typed_error(ErrorCode::Overloaded, "overloaded: queue full"));
    };
    let metrics = permit.metrics();
    // Panic containment: whatever the job does, it answers typed, and the
    // permit goes back to the gate when it drops.
    match catch_unwind(AssertUnwindSafe(|| job(metrics))) {
        Ok(Ok(response)) => Completion::reply(response),
        Ok(Err((code, msg))) => {
            if code == ErrorCode::DeadlineExceeded {
                metrics.record_deadline_exceeded();
            } else {
                metrics.record_error();
            }
            Completion::reply(typed_error(code, &msg))
        }
        Err(_) => {
            metrics.record_worker_panic();
            metrics.record_error();
            Completion::goodbye(typed_error(
                ErrorCode::WorkerPanicked,
                "the job panicked serving this request; \
                 the panic was contained and the server is intact",
            ))
        }
    }
}

/// Fails with `deadline_exceeded` once `deadline` has passed.
fn check_deadline(deadline: Option<Instant>, stage: &str) -> Result<(), (ErrorCode, String)> {
    match deadline {
        Some(d) if Instant::now() >= d => Err((
            ErrorCode::DeadlineExceeded,
            format!("deadline expired {stage}"),
        )),
        _ => Ok(()),
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_plan(
    shared: &Shared,
    metrics: MetricsShard<'_>,
    seqs: &[u64],
    method: Option<String>,
    model: Option<String>,
    cluster: Option<String>,
    nodes: Option<usize>,
    deadline: Option<Instant>,
) -> Result<String, (ErrorCode, String)> {
    let cfg = &shared.cfg;
    let bad = |msg: String| (ErrorCode::BadRequest, msg);
    let scheduler = registry::scheduler_by_name(method.as_deref().unwrap_or(&cfg.method))
        .map_err(|n| bad(format!("unknown method '{n}'")))?;
    let model = registry::model_by_name(model.as_deref().unwrap_or(&cfg.model))
        .map_err(|n| bad(format!("unknown model '{n}'")))?;
    let cluster = registry::cluster_by_name(
        cluster.as_deref().unwrap_or(&cfg.cluster),
        nodes.unwrap_or(cfg.nodes),
    )
    .map_err(|n| bad(format!("unknown cluster '{n}'")))?;
    let ctx = SchedulerCtx::new(&cluster, &model);
    let batch = Batch::new(seqs.to_vec());

    let start = Instant::now();
    // A request that expired while queued is answered typed, before any
    // planner time is spent on it.
    check_deadline(deadline, "while queued, before planning")?;
    let (key, canonical) = PlanKey::new(scheduler.name(), &batch, &ctx);
    let (cached, hit, degraded) = loop {
        if let Some(cached) = shared.cache.lookup(&key) {
            break (cached, true, false);
        }
        // Single-flight: the first miss for a key leads the planner run;
        // concurrent misses follow it and share the outcome.
        match shared.flights.join(&key) {
            Join::Leader(flight) => {
                // The previous leader may have completed between our miss
                // and taking leadership — the cache is the source of truth.
                if let Some(cached) = shared.cache.lookup(&key) {
                    flight.complete(FlightOutcome::Cached);
                    break (cached, true, false);
                }
                let outcome = lead_plan(shared, metrics, scheduler.as_ref(), &canonical, &ctx);
                // Insert before completing the flight so nobody can miss
                // the cache after the flight retires.
                if let FlightOutcome::Planned(cached) = &outcome {
                    shared.cache.insert(key.clone(), Arc::clone(cached));
                }
                match &outcome {
                    FlightOutcome::Planned(cached) => {
                        let cached = Arc::clone(cached);
                        flight.complete(outcome);
                        break (cached, false, false);
                    }
                    FlightOutcome::Degraded(cached) => {
                        let cached = Arc::clone(cached);
                        flight.complete(outcome);
                        break (cached, false, true);
                    }
                    FlightOutcome::Failed(code, msg) => {
                        let err = (*code, msg.clone());
                        flight.complete(outcome);
                        return Err(err);
                    }
                    FlightOutcome::Cached => unreachable!("lead_plan never returns Cached"),
                }
            }
            Join::Follower(flight) => {
                metrics.record_coalesced();
                match flight.wait(deadline) {
                    None => {
                        return Err((
                            ErrorCode::DeadlineExceeded,
                            "deadline expired waiting on a coalesced planner run".to_string(),
                        ))
                    }
                    Some(FlightOutcome::Planned(cached)) => break (cached, false, false),
                    Some(FlightOutcome::Degraded(cached)) => break (cached, false, true),
                    Some(FlightOutcome::Failed(code, msg)) => return Err((code, msg)),
                    // The leader found the key cached; re-check ourselves.
                    Some(FlightOutcome::Cached) => continue,
                }
            }
        }
    };
    let plan = cached.materialize(&canonical);
    // Audit what actually goes on the wire — the materialized plan, after
    // any cache re-indexing, coalescing fan-out, or fallback — so a cache,
    // permutation, or degraded-path bug can never ship a corrupt plan to a
    // trainer.
    validate_with_batch(&plan, &ctx, &batch).map_err(|v| {
        (
            ErrorCode::AuditFailed,
            format!("served plan failed audit: {}", report(&v)),
        )
    })?;
    // Deadline check after planning, before the response write: a stalled
    // planner yields a typed error, not a stale plan.
    check_deadline(deadline, "after planning, before the response write")?;
    let elapsed = start.elapsed();
    if degraded {
        metrics.record_degraded();
    }
    metrics.record_plan(elapsed, hit);
    Ok(plan_response(
        &plan,
        hit,
        degraded,
        elapsed.as_micros().min(u64::MAX as u128) as u64,
    ))
}

/// Runs the primary planner as the leader of a single-flight: admission
/// gate (charged once for the whole flight), circuit breaker, contained
/// chaos/panic handling. Never returns [`FlightOutcome::Cached`].
fn lead_plan(
    shared: &Shared,
    metrics: MetricsShard<'_>,
    scheduler: &dyn Scheduler,
    canonical: &CanonicalBatch,
    ctx: &SchedulerCtx,
) -> FlightOutcome {
    // Admission: the gate bounds estimated in-flight planner time, the
    // breaker short-circuits a failing planner. Either verdict degrades
    // to the fallback scheduler instead of queueing.
    match shared.gate.try_admit() {
        None => {
            metrics.record_shed();
            degraded_flight(shared, metrics, canonical, ctx)
        }
        Some(permit) => {
            if !shared.breaker.allow() {
                shared.gate.cancel(permit);
                degraded_flight(shared, metrics, canonical, ctx)
            } else {
                metrics.record_planner_run();
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(chaos) = &shared.cfg.chaos {
                        chaos.before_plan();
                    }
                    scheduler.plan(&canonical.to_batch(), ctx)
                }));
                shared.gate.release(permit, t0.elapsed());
                match outcome {
                    Ok(Ok(plan)) => {
                        shared.breaker.record_success();
                        FlightOutcome::Planned(Arc::new(CachedPlan::new(plan, &canonical.lens)))
                    }
                    Ok(Err(e)) => {
                        if shared.breaker.record_failure() {
                            metrics.record_breaker_trip();
                        }
                        FlightOutcome::Failed(
                            ErrorCode::PlanFailed,
                            format!("planning failed: {e}"),
                        )
                    }
                    Err(_) => {
                        // Planner panic, contained at the request level:
                        // typed error out (fanned to every waiter), the
                        // job's permit intact, breaker counts the failure.
                        if shared.breaker.record_failure() {
                            metrics.record_breaker_trip();
                        }
                        metrics.record_worker_panic();
                        FlightOutcome::Failed(
                            ErrorCode::WorkerPanicked,
                            "the planner panicked on this request; the panic was \
                             contained and the server is intact"
                                .to_string(),
                        )
                    }
                }
            }
        }
    }
}

/// Plans the canonical batch with the fallback scheduler for a degraded
/// flight. Degraded plans are *not* cached — the next uncongested miss
/// should get the primary planner's answer — but they fan out to every
/// waiter of the flight, each materializing for its own ordering.
fn degraded_flight(
    shared: &Shared,
    metrics: MetricsShard<'_>,
    canonical: &CanonicalBatch,
    ctx: &SchedulerCtx,
) -> FlightOutcome {
    let fallback = match registry::scheduler_by_name(&shared.cfg.degraded_method) {
        Ok(f) => f,
        Err(n) => {
            return FlightOutcome::Failed(
                ErrorCode::PlanFailed,
                format!("degraded-mode fallback scheduler '{n}' is unknown"),
            )
        }
    };
    match catch_unwind(AssertUnwindSafe(|| {
        fallback.plan(&canonical.to_batch(), ctx)
    })) {
        Ok(Ok(plan)) => FlightOutcome::Degraded(Arc::new(CachedPlan::new(plan, &canonical.lens))),
        Ok(Err(e)) => FlightOutcome::Failed(
            ErrorCode::PlanFailed,
            format!("degraded-mode planning failed: {e}"),
        ),
        Err(_) => {
            metrics.record_worker_panic();
            FlightOutcome::Failed(
                ErrorCode::WorkerPanicked,
                "the fallback planner panicked; the panic was contained".to_string(),
            )
        }
    }
}

/// Handles an `audit` request: parse the client's plan document and run
/// the full audit against the server's configured default context.
fn audit_plan(shared: &Shared, plan_text: &str) -> Result<String, (ErrorCode, String)> {
    let cfg = &shared.cfg;
    let plan = plan_from_json(plan_text).map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;
    let model = registry::model_by_name(&cfg.model)
        .map_err(|n| (ErrorCode::BadRequest, format!("unknown model '{n}'")))?;
    let cluster = registry::cluster_by_name(&cfg.cluster, cfg.nodes)
        .map_err(|n| (ErrorCode::BadRequest, format!("unknown cluster '{n}'")))?;
    let ctx = SchedulerCtx::new(&cluster, &model);
    match validate(&plan, &ctx) {
        Ok(()) => Ok("{\"ok\":true,\"audited\":true,\"violations\":0}".to_string()),
        Err(v) => Err((
            ErrorCode::AuditFailed,
            format!(
                "plan failed audit ({} violation(s)): {}",
                v.len(),
                report(&v)
            ),
        )),
    }
}
