//! Error types for the simulator.

use core::fmt;

use crate::time::SimTime;
use crate::topology::{Port, Rank};

/// Errors surfaced by simulator construction and execution.
///
/// Marked `#[non_exhaustive]`: fault-injection work showed the variant set
/// grows over time, and downstream crates should match with a wildcard arm
/// so new failure modes are not breaking changes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The cluster description is internally inconsistent.
    InvalidTopology(String),
    /// A task references an unknown task id as a dependency.
    UnknownDependency {
        /// The task holding the dangling reference.
        task: usize,
        /// The referenced (unknown) dependency id.
        dep: usize,
    },
    /// The task graph contains a dependency cycle; the named tasks never ran.
    DependencyCycle {
        /// Number of tasks left unexecuted when the event queue drained.
        stuck: usize,
    },
    /// A flow was created with an empty port path.
    EmptyFlowPath {
        /// The offending task id.
        task: usize,
    },
    /// A transfer path names a port the cluster does not have (a rank or
    /// NIC index past the end).
    PhantomPort {
        /// The offending task id.
        task: usize,
        /// The port outside the cluster.
        port: Port,
    },
    /// A generic invariant violation with context.
    Invariant(String),
    /// A rank crashed (per the fault schedule) while tasks assigned to it
    /// were still pending or running, so the DAG can never complete.
    RankUnavailable {
        /// The crashed rank.
        rank: Rank,
        /// Instant of the crash.
        at: SimTime,
        /// Tasks on the rank that had not completed at the crash instant.
        pending: usize,
    },
    /// A fault schedule declares a rank dead at `SimTime::ZERO` yet the DAG
    /// assigns work to it: the run is doomed before it starts.
    FaultBeforeStart {
        /// The rank that is dead on arrival.
        rank: Rank,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            SimError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on unknown task {dep}")
            }
            SimError::DependencyCycle { stuck } => {
                write!(f, "dependency cycle: {stuck} task(s) never became ready")
            }
            SimError::EmptyFlowPath { task } => {
                write!(f, "transfer task {task} has an empty port path")
            }
            SimError::PhantomPort { task, port } => {
                write!(
                    f,
                    "transfer task {task} crosses {port:?}, which the cluster lacks"
                )
            }
            SimError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            SimError::RankUnavailable { rank, at, pending } => {
                write!(
                    f,
                    "rank {rank} crashed at {at} with {pending} task(s) unfinished"
                )
            }
            SimError::FaultBeforeStart { rank } => {
                write!(f, "rank {rank} is dead before the simulation starts")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::UnknownDependency { task: 3, dep: 9 };
        assert_eq!(e.to_string(), "task 3 depends on unknown task 9");
        assert!(SimError::DependencyCycle { stuck: 2 }
            .to_string()
            .contains("2 task(s)"));
        assert!(SimError::InvalidTopology("x".into())
            .to_string()
            .contains("x"));
        assert!(SimError::EmptyFlowPath { task: 1 }
            .to_string()
            .contains("1"));
        assert!(SimError::Invariant("y".into()).to_string().contains("y"));
        let phantom = SimError::PhantomPort {
            task: 4,
            port: Port::NicTx(999),
        }
        .to_string();
        assert!(
            phantom.contains("task 4") && phantom.contains("NicTx(999)"),
            "{phantom}"
        );
    }

    #[test]
    fn fault_variants_render_rank_and_instant() {
        let e = SimError::RankUnavailable {
            rank: 9,
            at: SimTime::from_nanos(2_000_000_000),
            pending: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("rank 9"), "{msg}");
        assert!(msg.contains("2.000s"), "{msg}");
        assert!(msg.contains("4 task(s)"), "{msg}");
        assert!(SimError::FaultBeforeStart { rank: 3 }
            .to_string()
            .contains("rank 3"));
    }
}
