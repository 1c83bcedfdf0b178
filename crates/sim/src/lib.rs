//! # zeppelin-sim
//!
//! Deterministic discrete-event simulator for multi-GPU training clusters.
//!
//! This crate is the hardware substrate of the Zeppelin reproduction: it
//! stands in for the A800/H800/H200 testbeds of the paper. It models
//!
//! - **cluster topology** ([`topology`]): nodes, GPUs, NVSwitch fabric,
//!   NICs, and the GPU–NIC affinity map that Zeppelin's routing layer
//!   disaggregates;
//! - **bandwidth contention** ([`network`]): transfers are fluid flows over
//!   capacitated ports with max-min fair sharing, so shared NICs, asymmetric
//!   ring traffic and multi-NIC routing behave as they do on real RoCE
//!   fabrics (allocated incrementally per connected component; the frozen
//!   from-scratch allocator survives in [`reference`] as a test oracle);
//! - **execution** ([`engine`]): task DAGs with per-GPU compute streams,
//!   giving compute/communication overlap semantics;
//! - **observability** ([`trace`]): per-rank timelines with Chrome-trace
//!   export, used to reproduce the paper's Fig. 12 timeline study.
//!
//! # Examples
//!
//! ```
//! use zeppelin_sim::engine::{Simulator, Stream};
//! use zeppelin_sim::time::SimDuration;
//! use zeppelin_sim::topology::tiny_cluster;
//!
//! let cluster = tiny_cluster(2, 4);
//! let mut sim = Simulator::new(&cluster);
//! let kernel = sim
//!     .compute(0, Stream::Compute, SimDuration::from_millis(2), vec![], None)
//!     .unwrap();
//! let send = sim
//!     .transfer(1e9, cluster.direct_path(0, 4), vec![kernel], None)
//!     .unwrap();
//! let report = sim.run().unwrap();
//! assert!(report.span(send).0 >= report.span(kernel).1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod error;
pub mod fault;
pub mod network;
pub mod partition;
pub mod pool;
pub mod reference;
pub mod time;
pub mod topology;
pub mod trace;

pub use arena::{Slab, SlabKey};
pub use engine::{SimReport, SimStats, Simulator, Stream, TaskId, TraceInfo};
pub use error::SimError;
pub use fault::{FaultEvent, FaultSchedule, FLAP_RESIDUAL};
pub use network::{FlowNetwork, NetStats};
pub use partition::Partitioner;
pub use pool::workers_from_env;
pub use time::{SimDuration, SimTime};
pub use topology::{
    cluster_a, cluster_b, cluster_c, tiny_cluster, ClusterSpec, GpuSpec, NicSpec, NodeSpec, Port,
    Rank,
};
pub use trace::{Trace, TraceCategory, TraceEvent, TraceLabel};
