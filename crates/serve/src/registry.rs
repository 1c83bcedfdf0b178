//! Name → object resolution shared by the CLI and the serving front-end,
//! so `zeppelin-cli plan --method te` and a `{"op":"plan","method":"te"}`
//! request accept exactly the same vocabulary.

use zeppelin_core::scheduler::Scheduler;
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_model::config::ModelConfig;
use zeppelin_sim::topology::{cluster_a, cluster_b, cluster_c, cluster_mixed, ClusterSpec};

/// Scheduler names accepted by [`scheduler_by_name`] (canonical spellings).
pub use zeppelin_baselines::SCHEDULER_NAMES;

/// Resolves a scheduler by its CLI/protocol name.
///
/// # Errors
///
/// Returns the offending name for unknown schedulers.
pub fn scheduler_by_name(name: &str) -> Result<Box<dyn Scheduler>, String> {
    zeppelin_baselines::scheduler_by_name(name)
}

/// Resolves a model preset by name.
///
/// # Errors
///
/// Returns the offending name for unknown models.
pub fn model_by_name(name: &str) -> Result<ModelConfig, String> {
    zeppelin_model::config::by_name(name)
}

/// Resolves a cluster preset by name with `nodes` nodes.
///
/// # Errors
///
/// Returns the offending name for unknown clusters.
pub fn cluster_by_name(name: &str, nodes: usize) -> Result<ClusterSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "a" => Ok(cluster_a(nodes)),
        "b" => Ok(cluster_b(nodes)),
        "c" => Ok(cluster_c(nodes)),
        "m" | "mixed" => Ok(cluster_mixed(nodes)),
        other => Err(other.to_string()),
    }
}

/// Resolves a dataset length distribution by name.
///
/// # Errors
///
/// Returns the offending name for unknown datasets.
pub fn dataset_by_name(name: &str) -> Result<LengthDistribution, String> {
    zeppelin_data::datasets::by_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_scheduler_name_resolves() {
        for name in SCHEDULER_NAMES {
            assert!(scheduler_by_name(name).is_ok(), "{name}");
        }
        let err = scheduler_by_name("mesh").map(|_| ()).unwrap_err();
        assert_eq!(err, "mesh");
    }

    #[test]
    fn aliases_and_case_are_accepted() {
        assert_eq!(scheduler_by_name("TE-CP").unwrap().name(), "TE CP");
        assert_eq!(model_by_name("LLAMA-7B").unwrap().name, "LLaMA-7B");
        assert_eq!(cluster_by_name("B", 3).unwrap().nodes, 3);
        assert!(cluster_by_name("mixed", 3).unwrap().rank_speeds().is_some());
        assert_eq!(
            dataset_by_name("prolong").unwrap().name,
            dataset_by_name("prolong64k").unwrap().name
        );
    }

    #[test]
    fn unknown_names_round_trip_in_errors() {
        assert_eq!(model_by_name("70b").unwrap_err(), "70b");
        assert_eq!(cluster_by_name("z", 1).unwrap_err(), "z");
        assert_eq!(dataset_by_name("wikipedia").unwrap_err(), "wikipedia");
        // Heterogeneity is a property of the context, not a scheduler name.
        for folded in ["het", "zeppelin-het", "straggler-remap"] {
            assert_eq!(scheduler_by_name(folded).map(|_| ()).unwrap_err(), folded);
        }
    }
}
