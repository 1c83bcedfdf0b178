//! # Zeppelin
//!
//! A from-scratch Rust reproduction of *"Zeppelin: Balancing
//! Variable-length Workloads in Data Parallel Large Model Training"*
//! (EuroSys 2026), built on a deterministic discrete-event cluster
//! simulator instead of the paper's GPU testbed.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`sim`] — the cluster simulator (topology, fluid-flow network, DAG
//!   engine, traces);
//! - [`model`] — the analytic transformer cost model;
//! - [`data`] — variable-length dataset distributions and batch samplers;
//! - [`solver`] — min-cost flow / simplex / bottleneck-transport solvers;
//! - [`core`] — Zeppelin itself: partitioner, attention engine workload
//!   math, routing layer, remapping layer, scheduler;
//! - [`baselines`] — TE CP, LLaMA CP, Hybrid DP, and packing;
//! - [`exec`] — plan lowering, step simulation, multi-step training runs;
//! - [`serve`] — the online planning service: canonicalizing plan cache,
//!   single-flight planning, and line-delimited-JSON TCP front-end;
//! - [`cluster`] — continuous multi-job cluster simulation: trace-driven
//!   arrivals, queueing policies, checkpoint-and-requeue preemption, and
//!   elastic autoscaling over the single-job stack.
//!
//! # Examples
//!
//! ```
//! use zeppelin::core::scheduler::{Scheduler, SchedulerCtx};
//! use zeppelin::core::zeppelin::Zeppelin;
//! use zeppelin::data::batch::Batch;
//! use zeppelin::exec::step::{simulate_step, StepConfig};
//! use zeppelin::model::config::llama_3b;
//! use zeppelin::sim::topology::cluster_a;
//!
//! let cluster = cluster_a(2);
//! let ctx = SchedulerCtx::new(&cluster, &llama_3b());
//! let batch = Batch::new(vec![20_000, 4_000, 1_000, 500]);
//! let report = simulate_step(&Zeppelin::new(), &batch, &ctx, &StepConfig::default()).unwrap();
//! assert!(report.throughput > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use zeppelin_baselines as baselines;
pub use zeppelin_cluster as cluster;
pub use zeppelin_core as core;
pub use zeppelin_data as data;
pub use zeppelin_exec as exec;
pub use zeppelin_model as model;
pub use zeppelin_serve as serve;
pub use zeppelin_sim as sim;
pub use zeppelin_solver as solver;
