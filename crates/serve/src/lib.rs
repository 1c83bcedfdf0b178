//! # zeppelin-serve
//!
//! The online planning service: everything needed to run the repro as a
//! long-lived planner instead of a batch tool.
//!
//! - [`canonical`]: batch canonicalization (sorted length multiset +
//!   permutation) and plan re-indexing — equal-shaped batches share plans;
//! - [`cache`]: the canonicalizing LRU plan cache keyed by scheduler name,
//!   length multiset, and quantized context signature — digest-hashed
//!   lookups, plus the N-way sharded variant the server runs on;
//! - [`singleflight`]: coalescing of identical in-flight plan keys — one
//!   planner run fans its plan out to every concurrent waiter;
//! - [`protocol`]: line-delimited JSON requests/responses (`plan`,
//!   `stats`, `shutdown`) with per-request deadlines and typed error
//!   codes, built on `zeppelin_core::plan_io`'s JSON;
//! - [`frame`]: bounded, resynchronizing line framing that survives
//!   oversized lines, dribbled bytes, and read timeouts;
//! - [`server`]: the TCP front-end — one blocking thread per connection,
//!   each running its own plan jobs behind a bounded FIFO job gate, with
//!   waiting-room backpressure, per-request panic containment, deadline
//!   propagation, and graceful bounded-grace drain;
//! - [`admission`]: the load-shedding gate over in-flight planner time
//!   and the circuit breaker that short-circuit misses to degraded mode;
//! - [`chaos`]: the seeded fault harness — deterministic adversarial
//!   client/planner schedules and the loopback runner that asserts the
//!   serving invariants;
//! - [`client`]: a blocking client for the CLI and tests, with timeouts
//!   and jittered-backoff retries on transport failures;
//! - [`metrics`]: hit rates, planning-latency percentiles, queue depth,
//!   and fault-discipline counters;
//! - [`registry`]: shared name → scheduler/model/cluster/dataset
//!   resolution, so the CLI and the wire protocol accept one vocabulary.
//!
//! Everything is std-only: threads, mpsc, `TcpListener`.
//!
//! # Examples
//!
//! ```
//! use zeppelin_core::scheduler::SchedulerCtx;
//! use zeppelin_core::zeppelin::Zeppelin;
//! use zeppelin_data::batch::Batch;
//! use zeppelin_model::config::llama_3b;
//! use zeppelin_serve::cache::PlanCache;
//! use zeppelin_sim::topology::cluster_a;
//!
//! let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192);
//! let mut cache = PlanCache::new(64);
//! let (plan, hit) = cache
//!     .get_or_plan(&Zeppelin::new(), &Batch::new(vec![9000, 500]), &ctx)
//!     .unwrap();
//! assert!(!hit);
//! // Same multiset, different order: served from cache, re-indexed.
//! let (again, hit) = cache
//!     .get_or_plan(&Zeppelin::new(), &Batch::new(vec![500, 9000]), &ctx)
//!     .unwrap();
//! assert!(hit);
//! assert_eq!(plan.total_tokens(), again.total_tokens());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod canonical;
pub mod chaos;
pub mod client;
pub mod frame;
mod gate;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod singleflight;

pub use admission::{AdmissionGate, BreakerState, CircuitBreaker, DegradeReason};
pub use cache::{
    CacheStats, CachedPlan, DigestHasherBuilder, PlanCache, PlanKey, ShardedPlanCache,
};
pub use canonical::{is_index_faithful, reindex_plan, CanonicalBatch, CtxSignature};
pub use chaos::{run_chaos, ChaosReport, PlannerChaos, ServeFault, ServeFaultSchedule};
pub use client::{send_request, send_request_with, ClientConfig};
pub use frame::{Frame, FrameError, FrameReader, MAX_FRAME_BYTES};
pub use metrics::{MetricsShard, MetricsSnapshot, ServiceMetrics};
pub use protocol::{parse_request, ErrorCode, Request};
pub use server::{Server, ServerConfig, ServerReport};
pub use singleflight::{Flight, FlightOutcome, FlightTable, Join};
