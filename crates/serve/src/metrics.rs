//! Service metrics: request counters, cache effectiveness, fault-discipline
//! counters (shed / degraded / panicked / deadline-exceeded), and planning
//! latency percentiles, shared across the server's threads.
//!
//! The sink is sharded: each job permit records into its own mutex-guarded
//! shard (see [`ServiceMetrics::shard`]), so the hot cached-plan path never
//! serializes every running job through one global metrics lock. Shards are
//! merged — counters summed, latency reservoirs concatenated — only when a
//! [`ServiceMetrics::snapshot`] is taken for a `stats` request or the final
//! server report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many recent planning latencies each shard's reservoir keeps.
const RESERVOIR: usize = 4096;

/// Thread-safe metrics sink for the serving front-end.
#[derive(Debug)]
pub struct ServiceMetrics {
    shards: Vec<Mutex<Inner>>,
    queue_depth: AtomicUsize,
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::with_shards(1)
    }
}

#[derive(Debug, Default)]
struct Inner {
    plan_requests: u64,
    cache_hits: u64,
    stats_requests: u64,
    errors: u64,
    rejected: u64,
    shed: u64,
    degraded: u64,
    deadline_exceeded: u64,
    worker_panics: u64,
    worker_respawns: u64,
    breaker_trips: u64,
    slow_clients: u64,
    shutting_down: u64,
    planner_runs: u64,
    coalesced: u64,
    latencies_us: Vec<u64>,
    next_slot: usize,
}

/// A point-in-time copy of the metrics, with derived percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `plan` requests answered with a plan (primary or degraded).
    pub plan_requests: u64,
    /// `plan` requests answered from the cache.
    pub cache_hits: u64,
    /// `stats` requests served.
    pub stats_requests: u64,
    /// Malformed or failed requests.
    pub errors: u64,
    /// Connections refused at the connection limit, and jobs refused
    /// while the job gate's waiting room was full.
    pub rejected: u64,
    /// Cache misses shed by the admission gate (answered degraded).
    pub shed: u64,
    /// Plan responses served by the fallback scheduler (`degraded: true`),
    /// whether shed by load or short-circuited by the breaker.
    pub degraded: u64,
    /// Requests whose deadline expired before the response could ship.
    pub deadline_exceeded: u64,
    /// Panics contained while serving a request.
    pub worker_panics: u64,
    /// Panics that escaped request containment and ended their connection
    /// (caught by the connection thread's backstop). Any nonzero count is
    /// a containment bug; the name predates the connection-thread server.
    pub worker_respawns: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Connections shed for dribbling a frame past the per-frame budget.
    pub slow_clients: u64,
    /// Requests answered with a typed `shutting_down` error during drain.
    pub shutting_down: u64,
    /// Primary planner invocations (each charged once to the admission
    /// gate, however many coalesced waiters it serves).
    pub planner_runs: u64,
    /// Requests served by joining another request's in-flight planner run
    /// (single-flight followers).
    pub coalesced: u64,
    /// Jobs waiting for a job permit right now.
    pub queue_depth: usize,
    /// Median planning latency over the recent reservoir, microseconds.
    pub p50_us: u64,
    /// 99th-percentile planning latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile planning latency, microseconds.
    pub p999_us: u64,
}

impl MetricsSnapshot {
    /// Cache hits as a fraction of plan requests.
    pub fn hit_rate(&self) -> f64 {
        if self.plan_requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.plan_requests as f64
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A recording handle pinned to one shard of a [`ServiceMetrics`].
///
/// Cheap to copy; each running job holds its permit's own so recording on
/// the hot path contends only with snapshots, never with the other jobs.
#[derive(Debug, Clone, Copy)]
pub struct MetricsShard<'a> {
    metrics: &'a ServiceMetrics,
    shard: usize,
}

impl ServiceMetrics {
    /// Fresh metrics with a single shard (fine for tests and light use).
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::with_shards(1)
    }

    /// Fresh metrics sharded `n` ways (min 1) — one shard per recorder.
    pub fn with_shards(n: usize) -> ServiceMetrics {
        ServiceMetrics {
            shards: (0..n.max(1))
                .map(|_| Mutex::new(Inner::default()))
                .collect(),
            queue_depth: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The recording handle for shard `idx % shards()`.
    pub fn shard(&self, idx: usize) -> MetricsShard<'_> {
        MetricsShard {
            metrics: self,
            shard: idx % self.shards.len(),
        }
    }

    fn with_inner<R>(&self, shard: usize, f: impl FnOnce(&mut Inner) -> R) -> R {
        f(&mut self.shards[shard].lock().expect("metrics poisoned"))
    }

    /// Records one served `plan` request and its planning latency.
    pub fn record_plan(&self, latency: Duration, cache_hit: bool) {
        self.shard(0).record_plan(latency, cache_hit);
    }

    /// Records one served `stats` request.
    pub fn record_stats(&self) {
        self.shard(0).record_stats();
    }

    /// Records a request that failed (parse error, plan error, bad flags).
    pub fn record_error(&self) {
        self.shard(0).record_error();
    }

    /// Records a connection or request rejected by backpressure.
    pub fn record_rejected(&self) {
        self.shard(0).record_rejected();
    }

    /// Records a cache miss shed by the admission gate.
    pub fn record_shed(&self) {
        self.shard(0).record_shed();
    }

    /// Records a degraded (fallback-scheduler) plan response.
    pub fn record_degraded(&self) {
        self.shard(0).record_degraded();
    }

    /// Records a request whose deadline expired server-side.
    pub fn record_deadline_exceeded(&self) {
        self.shard(0).record_deadline_exceeded();
    }

    /// Records a panic contained while serving a request.
    pub fn record_worker_panic(&self) {
        self.shard(0).record_worker_panic();
    }

    /// Records a panic that escaped request containment.
    pub fn record_escaped_panic(&self) {
        self.shard(0).record_escaped_panic();
    }

    /// Records the circuit breaker tripping open.
    pub fn record_breaker_trip(&self) {
        self.shard(0).record_breaker_trip();
    }

    /// Records a connection shed as a slow-loris client.
    pub fn record_slow_client(&self) {
        self.shard(0).record_slow_client();
    }

    /// Records a typed `shutting_down` reply during drain.
    pub fn record_shutting_down(&self) {
        self.shard(0).record_shutting_down();
    }

    /// Records one primary planner invocation.
    pub fn record_planner_run(&self) {
        self.shard(0).record_planner_run();
    }

    /// Records a request coalesced onto another's in-flight planner run.
    pub fn record_coalesced(&self) {
        self.shard(0).record_coalesced();
    }

    /// Sets the gauge of jobs waiting for a job permit.
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Merges every shard — counters summed, reservoirs concatenated — and
    /// computes latency percentiles over the combined samples.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        };
        let mut sorted = Vec::new();
        for shard in &self.shards {
            let m = shard.lock().expect("metrics poisoned");
            s.plan_requests += m.plan_requests;
            s.cache_hits += m.cache_hits;
            s.stats_requests += m.stats_requests;
            s.errors += m.errors;
            s.rejected += m.rejected;
            s.shed += m.shed;
            s.degraded += m.degraded;
            s.deadline_exceeded += m.deadline_exceeded;
            s.worker_panics += m.worker_panics;
            s.worker_respawns += m.worker_respawns;
            s.breaker_trips += m.breaker_trips;
            s.slow_clients += m.slow_clients;
            s.shutting_down += m.shutting_down;
            s.planner_runs += m.planner_runs;
            s.coalesced += m.coalesced;
            sorted.extend_from_slice(&m.latencies_us);
        }
        sorted.sort_unstable();
        s.p50_us = percentile(&sorted, 0.50);
        s.p99_us = percentile(&sorted, 0.99);
        s.p999_us = percentile(&sorted, 0.999);
        s
    }
}

impl MetricsShard<'_> {
    /// Records one served `plan` request and its planning latency.
    pub fn record_plan(&self, latency: Duration, cache_hit: bool) {
        self.metrics.with_inner(self.shard, |m| {
            m.plan_requests += 1;
            if cache_hit {
                m.cache_hits += 1;
            }
            let us = latency.as_micros().min(u64::MAX as u128) as u64;
            if m.latencies_us.len() < RESERVOIR {
                m.latencies_us.push(us);
            } else {
                let slot = m.next_slot;
                m.latencies_us[slot] = us;
            }
            m.next_slot = (m.next_slot + 1) % RESERVOIR;
        });
    }

    /// Records one served `stats` request.
    pub fn record_stats(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.stats_requests += 1);
    }

    /// Records a request that failed (parse error, plan error, bad flags).
    pub fn record_error(&self) {
        self.metrics.with_inner(self.shard, |m| m.errors += 1);
    }

    /// Records a connection or request rejected by backpressure.
    pub fn record_rejected(&self) {
        self.metrics.with_inner(self.shard, |m| m.rejected += 1);
    }

    /// Records a cache miss shed by the admission gate.
    pub fn record_shed(&self) {
        self.metrics.with_inner(self.shard, |m| m.shed += 1);
    }

    /// Records a degraded (fallback-scheduler) plan response.
    pub fn record_degraded(&self) {
        self.metrics.with_inner(self.shard, |m| m.degraded += 1);
    }

    /// Records a request whose deadline expired server-side.
    pub fn record_deadline_exceeded(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.deadline_exceeded += 1);
    }

    /// Records a panic contained while serving a request.
    pub fn record_worker_panic(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.worker_panics += 1);
    }

    /// Records a panic that escaped request containment.
    pub fn record_escaped_panic(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.worker_respawns += 1);
    }

    /// Records the circuit breaker tripping open.
    pub fn record_breaker_trip(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.breaker_trips += 1);
    }

    /// Records a connection shed as a slow-loris client.
    pub fn record_slow_client(&self) {
        self.metrics.with_inner(self.shard, |m| m.slow_clients += 1);
    }

    /// Records a typed `shutting_down` reply during drain.
    pub fn record_shutting_down(&self) {
        self.metrics
            .with_inner(self.shard, |m| m.shutting_down += 1);
    }

    /// Records one primary planner invocation.
    pub fn record_planner_run(&self) {
        self.metrics.with_inner(self.shard, |m| m.planner_runs += 1);
    }

    /// Records a request coalesced onto another's in-flight planner run.
    pub fn record_coalesced(&self) {
        self.metrics.with_inner(self.shard, |m| m.coalesced += 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_the_reservoir() {
        let m = ServiceMetrics::new();
        for us in 1..=100u64 {
            m.record_plan(Duration::from_micros(us), us % 2 == 0);
        }
        let s = m.snapshot();
        assert_eq!(s.plan_requests, 100);
        assert_eq!(s.cache_hits, 50);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((49..=51).contains(&s.p50_us), "p50 {}", s.p50_us);
        assert!((98..=100).contains(&s.p99_us), "p99 {}", s.p99_us);
        assert!((99..=100).contains(&s.p999_us), "p999 {}", s.p999_us);
    }

    #[test]
    fn reservoir_wraps_without_growing() {
        let m = ServiceMetrics::new();
        for _ in 0..(RESERVOIR + 100) {
            m.record_plan(Duration::from_micros(7), false);
        }
        let s = m.snapshot();
        assert_eq!(s.p50_us, 7);
        assert_eq!(s.p999_us, 7);
        assert_eq!(s.plan_requests, (RESERVOIR + 100) as u64);
    }

    #[test]
    fn empty_metrics_snapshot_is_zeroed() {
        let s = ServiceMetrics::new().snapshot();
        assert_eq!(s, MetricsSnapshot::default());
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn gauges_and_counters_update() {
        let m = ServiceMetrics::new();
        m.record_stats();
        m.record_error();
        m.record_rejected();
        m.set_queue_depth(3);
        let s = m.snapshot();
        assert_eq!(
            (s.stats_requests, s.errors, s.rejected, s.queue_depth),
            (1, 1, 1, 3)
        );
    }

    #[test]
    fn fault_counters_update_independently() {
        let m = ServiceMetrics::new();
        m.record_shed();
        m.record_degraded();
        m.record_degraded();
        m.record_deadline_exceeded();
        m.record_worker_panic();
        m.record_escaped_panic();
        m.record_breaker_trip();
        m.record_slow_client();
        m.record_shutting_down();
        let s = m.snapshot();
        assert_eq!(s.shed, 1);
        assert_eq!(s.degraded, 2);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.worker_respawns, 1);
        assert_eq!(s.breaker_trips, 1);
        assert_eq!(s.slow_clients, 1);
        assert_eq!(s.shutting_down, 1);
        // Fault counters never leak into request accounting.
        assert_eq!(s.plan_requests, 0);
        assert_eq!(s.errors, 0);
    }

    #[test]
    fn snapshots_merge_counters_and_reservoirs_across_shards() {
        let m = ServiceMetrics::with_shards(4);
        assert_eq!(m.shards(), 4);
        for i in 0..4 {
            let shard = m.shard(i);
            shard.record_plan(Duration::from_micros(10 * (i as u64 + 1)), i % 2 == 0);
            shard.record_planner_run();
        }
        m.shard(1).record_coalesced();
        m.shard(7).record_error(); // wraps to shard 3
        let s = m.snapshot();
        assert_eq!(s.plan_requests, 4);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.planner_runs, 4);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.errors, 1);
        // Percentiles see the union of every shard's reservoir.
        assert_eq!(s.p50_us, 30);
        assert_eq!(s.p999_us, 40);
    }
}
