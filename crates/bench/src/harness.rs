//! Shared experiment plumbing for the figure/table binaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin_baselines::{HybridDp, LlamaCp, Packing, TeCp};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zeppelin::{Zeppelin, ZeppelinConfig};
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_exec::trainer::{run_training, RunConfig, RunError, RunReport};
use zeppelin_exec::StepError;
use zeppelin_model::config::{llama_3b, ModelConfig};
use zeppelin_sim::topology::{cluster_a, cluster_b, cluster_c, ClusterSpec};

/// Base seed used by every exhibit so results are reproducible.
pub const PAPER_SEED: u64 = 2026;

/// The default exhibit testbed: two nodes of cluster A driving LLaMA-3B —
/// the configuration nearly every figure/table binary starts from.
pub fn paper_testbed() -> (ClusterSpec, ModelConfig, SchedulerCtx) {
    paper_testbed_nodes(2)
}

/// [`paper_testbed`] with an explicit node count (fault exhibits shrink to
/// the survivor set, scaling exhibits grow it).
pub fn paper_testbed_nodes(nodes: usize) -> (ClusterSpec, ModelConfig, SchedulerCtx) {
    let cluster = cluster_a(nodes);
    let model = llama_3b();
    let ctx = SchedulerCtx::new(&cluster, &model);
    (cluster, model, ctx)
}

/// The exhibit RNG: [`PAPER_SEED`] plus a per-section offset so sections
/// draw independent but reproducible batches.
pub fn paper_rng(offset: u64) -> StdRng {
    StdRng::seed_from_u64(PAPER_SEED.wrapping_add(offset))
}

/// The paper's three clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterKind {
    /// 8× A800, 4 shared 200 Gb/s NICs per node.
    A,
    /// 8× H800, 8× 200 Gb/s NICs per node.
    B,
    /// 8× H200, 8× 400 Gb/s NICs per node.
    C,
}

impl ClusterKind {
    /// Builds the cluster with `nodes` nodes.
    pub fn build(self, nodes: usize) -> ClusterSpec {
        match self {
            ClusterKind::A => cluster_a(nodes),
            ClusterKind::B => cluster_b(nodes),
            ClusterKind::C => cluster_c(nodes),
        }
    }

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            ClusterKind::A => "Cluster A",
            ClusterKind::B => "Cluster B",
            ClusterKind::C => "Cluster C",
        }
    }
}

/// A method under evaluation.
pub enum Method {
    /// Transformer Engine CP baseline.
    TeCp,
    /// TE CP with the routing layer grafted on (Fig. 11).
    TeCpRouting,
    /// LLaMA all-gather CP baseline.
    LlamaCp,
    /// FLOP-balanced hybrid DP baseline.
    HybridDp,
    /// Input-balanced packing baseline (Fig. 3 analysis).
    Packing,
    /// Zeppelin with a component configuration.
    Zeppelin(ZeppelinConfig),
}

impl Method {
    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            Method::TeCp => Box::new(TeCp::new()),
            Method::TeCpRouting => Box::new(TeCp::with_routing()),
            Method::LlamaCp => Box::new(LlamaCp::new()),
            Method::HybridDp => Box::new(HybridDp::new()),
            Method::Packing => Box::new(Packing::new()),
            Method::Zeppelin(cfg) => Box::new(Zeppelin::with_config(*cfg)),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::TeCp => "TE CP",
            Method::TeCpRouting => "TE CP + Routing",
            Method::LlamaCp => "LLaMA CP",
            Method::HybridDp => "Hybrid DP",
            Method::Packing => "Packing",
            Method::Zeppelin(c) => Zeppelin::with_config(*c).name(),
        }
    }
}

/// The Fig. 8/9/10 method roster: three baselines plus full Zeppelin.
pub fn methods() -> Vec<Method> {
    vec![
        Method::TeCp,
        Method::LlamaCp,
        Method::HybridDp,
        Method::Zeppelin(ZeppelinConfig::default()),
    ]
}

/// Runs one method over sampled batches. A capacity failure returns `None`,
/// mirroring the paper's OOM points.
pub fn run_method(
    method: &Method,
    dist: &LengthDistribution,
    cluster: &ClusterSpec,
    model: &ModelConfig,
    cfg: &RunConfig,
) -> Option<RunReport> {
    let ctx = SchedulerCtx::new(cluster, model);
    match run_training(method.build().as_ref(), dist, &ctx, cfg) {
        Ok(report) => Some(report),
        Err(RunError::Step {
            source: StepError::Plan(_),
            ..
        }) => None,
        Err(e) => panic!("simulation failed for {}: {e}", method.name()),
    }
}
