//! # zeppelin-core
//!
//! The paper's contribution: a data-parallel training scheduler that
//! balances variable-length workloads holistically.
//!
//! - [`plan`]: the iteration-plan IR shared with every baseline;
//! - [`chunking`]: zigzag chunk geometry and exact per-round ring costs
//!   (the attention engine's workload math, §3.2);
//! - [`cost`]: the one attention cost model — per-rank peaks, group
//!   fusion and per-group cost tables — shared by the executor, the
//!   analyzer and the zones;
//! - [`partitioner`]: hierarchical two-stage sequence partitioning
//!   (Algorithms 1 and 2, §3.1);
//! - [`routing`]: three-step multi-NIC communication routing (§3.3);
//! - [`remap`]: token-balanced remapping for linear modules (§3.4);
//! - [`zeppelin`]: the [`scheduler::Scheduler`] tying it all
//!   together, speed-aware on mixed hardware, with per-component
//!   ablation toggles;
//! - [`zones`]: the Fig. 5 cost-curve analysis that motivates the
//!   local / intra-node / inter-node split;
//! - [`validate`]: the plan auditor guarding every trust boundary where
//!   an [`plan::IterationPlan`] enters from outside (JSON, the serving
//!   protocol, replay).
//!
//! # Examples
//!
//! ```
//! use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
//! use zeppelin_core::zeppelin::Zeppelin;
//! use zeppelin_data::batch::Batch;
//! use zeppelin_model::config::llama_3b;
//! use zeppelin_sim::topology::cluster_a;
//!
//! let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192);
//! let batch = Batch::new(vec![40_000, 6_000, 1_200, 400, 300]);
//! let plan = Zeppelin::new().plan(&batch, &ctx).unwrap();
//! assert_eq!(plan.total_tokens(), batch.total_tokens());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chunking;
pub mod cost;
pub mod partitioner;
pub mod plan;
pub mod plan_io;
pub mod remap;
pub mod routing;
pub mod scheduler;
pub mod validate;
pub mod zeppelin;
pub mod zones;

pub use analysis::{analyze, try_analyze, PlanAnalysis, RankEstimate};
pub use plan::{AttnMode, IterationPlan, PlanError, PlanOptions, SeqPlacement, Zone};
pub use plan_io::{
    parse_json, plan_from_json, plan_to_json, Json, PlanIoError, MAX_JSON_DEPTH,
    PLAN_SCHEMA_VERSION,
};
pub use scheduler::{Scheduler, SchedulerCtx};
pub use validate::{validate, validate_with_batch, PlanViolation};
pub use zeppelin::{Zeppelin, ZeppelinConfig};
