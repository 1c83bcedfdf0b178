//! # zeppelin-cluster
//!
//! Continuous multi-job cluster simulation on top of the single-job
//! training stack: a shared cluster serves a stream of variable-length
//! training jobs with trace-driven arrivals, queueing, priority-based
//! preemption (checkpoint-and-requeue), and elastic grow/shrink of running
//! jobs onto freed nodes.
//!
//! The layer decomposes into five pieces (DESIGN.md §13):
//!
//! - [`trace`]: the workload model — a validated, seeded [`trace::JobTrace`]
//!   of [`trace::JobSpec`]s (tenant, model, dataset, step budget, priority,
//!   node bounds, arrival), with deterministic [`trace::JobTrace::random`] /
//!   [`trace::JobTrace::skewed`] generators and a JSON (de)serializer with
//!   typed errors;
//! - [`policy`]: the pluggable [`policy::ClusterPolicy`] trait over a
//!   read-only [`policy::ClusterView`], returning placement
//!   [`policy::Action`]s; ships FIFO, shortest-remaining-work-first, and a
//!   weighted fair-share policy with preemption and elasticity;
//! - [`driver`]: the discrete-event loop — [`driver::run_cluster`] owns the
//!   free-node pool and job queue, plans every step launch, and charges
//!   replan and checkpoint-restore costs inside the simulation;
//! - [`step_cache`]: the bounded [`step_cache::StepCache`] of simulated
//!   step outcomes, keyed exactly by the plan and everything else the
//!   simulation reads, and shared by every run on one config, so rollback
//!   replays and policy comparisons on one trace skip repeated
//!   simulations;
//! - [`metrics`]: the [`metrics::ClusterReport`] — per-tenant and
//!   cluster-level goodput vs throughput, JCT and queueing-delay
//!   percentiles, Jain's fairness index, node utilization, preemption and
//!   replan counts, plus the full event log for bit-identical replay
//!   comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod metrics;
pub mod policy;
pub mod step_cache;
pub mod trace;

pub use driver::{run_cluster, ClusterConfig, ClusterError};
pub use metrics::{ClusterEvent, ClusterReport, JobOutcome, Outcome, TenantReport};
pub use policy::{Action, ClusterPolicy, ClusterView, FairShare, Fifo, Srwf};
pub use step_cache::{StepCache, StepCacheStats};
pub use trace::{JobSpec, JobTrace, TraceError, TraceIoError};
