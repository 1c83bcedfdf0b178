//! The scheduler interface every method (Zeppelin and baselines) implements.

use zeppelin_data::batch::Batch;
use zeppelin_model::config::ModelConfig;
use zeppelin_model::memory::token_capacity;
use zeppelin_sim::topology::{ClusterSpec, Rank};

use crate::plan::{IterationPlan, PlanError};

/// Shared context a scheduler plans against.
#[derive(Debug, Clone)]
pub struct SchedulerCtx {
    /// The (possibly TP-folded) cluster.
    pub cluster: ClusterSpec,
    /// Model being trained.
    pub model: ModelConfig,
    /// Token capacity `L` per GPU.
    pub capacity: u64,
    /// Per-rank speed factors for straggler-aware planning (`None` =
    /// homogeneous). Schedulers may ignore this; Zeppelin weights its
    /// placement, ring chunks and remap targets with it.
    pub rank_speed: Option<Vec<f64>>,
}

impl SchedulerCtx {
    /// Builds a context, deriving capacity from the memory model. On a
    /// mixed-generation cluster (non-empty
    /// [`ClusterSpec::node_tiers`](zeppelin_sim::topology::ClusterSpec))
    /// the per-node tiers seed `rank_speed`, so Zeppelin sees the
    /// heterogeneity without extra plumbing;
    /// [`SchedulerCtx::with_rank_speed`] still overrides (e.g. to stack
    /// straggler degradation on top of generation tiers).
    pub fn new(cluster: &ClusterSpec, model: &ModelConfig) -> SchedulerCtx {
        let dp = cluster.total_gpus().max(1);
        let capacity = token_capacity(model, cluster.node.gpu.mem_bytes, dp);
        SchedulerCtx {
            cluster: cluster.clone(),
            model: model.clone(),
            capacity,
            rank_speed: cluster.rank_speeds(),
        }
    }

    /// Overrides the derived capacity (tests, what-if studies).
    pub fn with_capacity(mut self, capacity: u64) -> SchedulerCtx {
        self.capacity = capacity;
        self
    }

    /// Declares per-rank speed factors (straggler-aware planning).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the cluster's rank count.
    pub fn with_rank_speed(mut self, speed: Vec<f64>) -> SchedulerCtx {
        assert_eq!(
            speed.len(),
            self.cluster.total_gpus(),
            "one speed factor per rank"
        );
        self.rank_speed = Some(speed);
        self
    }

    /// Re-derives a context over the ranks that survive the loss of `dead`.
    ///
    /// The cluster model is homogeneous per node, so eviction is
    /// whole-node: every node hosting a dead rank is drained (its healthy
    /// siblings share the failed host's power, PCIe switches, and NICs).
    /// Survivor ranks are renumbered contiguously; the second return value
    /// maps each *old* rank to its new rank (`None` = evicted), which the
    /// trainer uses to migrate per-rank state such as speed factors.
    ///
    /// The token capacity is re-derived from the memory model when the
    /// current capacity equals the derived value for the old cluster (i.e.
    /// it was never overridden); an explicit [`SchedulerCtx::with_capacity`]
    /// override is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Malformed`] if no node survives, or
    /// [`PlanError::BadRank`] if `dead` references a rank outside the
    /// cluster.
    pub fn shrink_to_survivors(
        &self,
        dead: &[Rank],
    ) -> Result<(SchedulerCtx, Vec<Option<Rank>>), PlanError> {
        let total = self.cluster.total_gpus();
        if let Some(&bad) = dead.iter().find(|&&r| r >= total) {
            return Err(PlanError::BadRank(bad));
        }
        let mut dead_nodes = vec![false; self.cluster.nodes];
        for &r in dead {
            dead_nodes[self.cluster.node_of(r)] = true;
        }
        let survivors = dead_nodes.iter().filter(|&&d| !d).count();
        if survivors == 0 {
            return Err(PlanError::Malformed(
                "no node survives the failure set".into(),
            ));
        }
        if survivors == self.cluster.nodes {
            let identity = (0..total).map(Some).collect();
            return Ok((self.clone(), identity));
        }

        let mut cluster = self.cluster.clone();
        cluster.nodes = survivors;
        if !cluster.node_tiers.is_empty() {
            cluster.node_tiers = (0..self.cluster.nodes)
                .filter(|&n| !dead_nodes[n])
                .map(|n| self.cluster.tier_of(n))
                .collect();
        }
        let mut rank_map: Vec<Option<Rank>> = vec![None; total];
        let mut next = 0;
        for old in 0..total {
            if !dead_nodes[self.cluster.node_of(old)] {
                rank_map[old] = Some(next);
                next += 1;
            }
        }

        let derived_old =
            token_capacity(&self.model, self.cluster.node.gpu.mem_bytes, total.max(1));
        let capacity = if self.capacity == derived_old {
            token_capacity(
                &self.model,
                cluster.node.gpu.mem_bytes,
                cluster.total_gpus().max(1),
            )
        } else {
            self.capacity
        };

        let rank_speed = self.rank_speed.as_ref().map(|speed| {
            (0..total)
                .filter(|&old| rank_map[old].is_some())
                .map(|old| speed[old])
                .collect()
        });

        Ok((
            SchedulerCtx {
                cluster,
                model: self.model.clone(),
                capacity,
                rank_speed,
            },
            rank_map,
        ))
    }

    /// Re-derives a context over a cluster grown to `nodes` nodes — the
    /// inverse of [`SchedulerCtx::shrink_to_survivors`], used when drained
    /// hosts rejoin after repair.
    ///
    /// Existing ranks keep their numbers; new ranks are appended after
    /// them, node by node. As in shrink, the token capacity is re-derived
    /// from the memory model only when it was never overridden, and any
    /// per-rank speed factors are extended with `1.0` for the new
    /// (presumed-healthy) ranks.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Malformed`] if `nodes` is zero or smaller than
    /// the current node count (growth never evicts; use
    /// [`SchedulerCtx::shrink_to_survivors`] for that).
    pub fn grow_to_nodes(&self, nodes: usize) -> Result<SchedulerCtx, PlanError> {
        if nodes == 0 {
            return Err(PlanError::Malformed("cannot grow to zero nodes".into()));
        }
        if nodes < self.cluster.nodes {
            return Err(PlanError::Malformed(format!(
                "grow_to_nodes({nodes}) would shrink a {}-node cluster",
                self.cluster.nodes
            )));
        }
        if nodes == self.cluster.nodes {
            return Ok(self.clone());
        }

        let mut cluster = self.cluster.clone();
        cluster.nodes = nodes;
        if !cluster.node_tiers.is_empty() {
            // Nodes joining a tiered cluster arrive at the blueprint
            // generation (tier 1.0), mirroring the healthy-speed default.
            cluster.node_tiers.resize(nodes, 1.0);
        }

        let derived_old = token_capacity(
            &self.model,
            self.cluster.node.gpu.mem_bytes,
            self.cluster.total_gpus().max(1),
        );
        let capacity = if self.capacity == derived_old {
            token_capacity(
                &self.model,
                cluster.node.gpu.mem_bytes,
                cluster.total_gpus().max(1),
            )
        } else {
            self.capacity
        };

        let rank_speed = self.rank_speed.as_ref().map(|speed| {
            let mut grown = speed.clone();
            grown.resize(cluster.total_gpus(), 1.0);
            grown
        });

        Ok(SchedulerCtx {
            cluster,
            model: self.model.clone(),
            capacity,
            rank_speed,
        })
    }

    /// Re-derives a context over exactly `nodes` nodes, growing or
    /// shrinking as needed — the elastic-allocation entry point used by
    /// the cluster simulation when a job's node share changes.
    ///
    /// Growth appends fresh nodes via [`SchedulerCtx::grow_to_nodes`].
    /// Shrinking evicts the highest-numbered nodes (the ranks handed back
    /// to the pool) via [`SchedulerCtx::shrink_to_survivors`], so the
    /// surviving ranks keep their numbers and per-rank state (e.g. speed
    /// factors) migrates without renumbering.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Malformed`] if `nodes` is zero.
    pub fn resize_nodes(&self, nodes: usize) -> Result<SchedulerCtx, PlanError> {
        if nodes == 0 {
            return Err(PlanError::Malformed("cannot resize to zero nodes".into()));
        }
        if nodes >= self.cluster.nodes {
            return self.grow_to_nodes(nodes);
        }
        let evicted: Vec<Rank> = (nodes..self.cluster.nodes)
            .map(|n| self.cluster.rank_of(n, 0))
            .collect();
        self.shrink_to_survivors(&evicted).map(|(ctx, _)| ctx)
    }
}

/// A training-step scheduler: turns a batch into an [`IterationPlan`].
pub trait Scheduler {
    /// Stable name used in reports and tables.
    fn name(&self) -> &'static str;

    /// Plans one iteration.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the batch cannot be placed (typically
    /// capacity exhaustion).
    fn plan(&self, batch: &Batch, ctx: &SchedulerCtx) -> Result<IterationPlan, PlanError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_model::config::llama_7b;
    use zeppelin_sim::topology::cluster_a;

    #[test]
    fn ctx_derives_reasonable_capacity() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b());
        assert!(ctx.capacity >= 4096, "capacity {}", ctx.capacity);
        assert!(ctx.capacity < 10_000_000);
    }

    #[test]
    fn capacity_override() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b()).with_capacity(1234);
        assert_eq!(ctx.capacity, 1234);
    }

    #[test]
    fn shrink_evicts_whole_nodes_and_renumbers() {
        let ctx = SchedulerCtx::new(&cluster_a(3), &llama_7b());
        // Rank 9 lives on node 1: the whole node drains.
        let (small, map) = ctx.shrink_to_survivors(&[9]).unwrap();
        assert_eq!(small.cluster.nodes, 2);
        assert_eq!(small.cluster.total_gpus(), 16);
        // Node 0 keeps its ranks, node 2 renumbers to 8..16.
        assert_eq!(map[0], Some(0));
        assert_eq!(map[7], Some(7));
        assert!((8..16).all(|r| map[r].is_none()));
        assert_eq!(map[16], Some(8));
        assert_eq!(map[23], Some(15));
        // Derived capacity is re-derived for the smaller DP group.
        let fresh = SchedulerCtx::new(&small.cluster, &llama_7b());
        assert_eq!(small.capacity, fresh.capacity);
    }

    #[test]
    fn shrink_preserves_capacity_override_and_filters_speed() {
        let speed: Vec<f64> = (0..16).map(|r| 1.0 + r as f64 / 100.0).collect();
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b())
            .with_capacity(5000)
            .with_rank_speed(speed);
        let (small, map) = ctx.shrink_to_survivors(&[0, 3]).unwrap();
        assert_eq!(small.capacity, 5000);
        let kept = small.rank_speed.unwrap();
        assert_eq!(kept.len(), 8);
        // Survivors are node 1's ranks, in order.
        assert!((kept[0] - 1.08).abs() < 1e-12);
        assert_eq!(map[8], Some(0));
    }

    #[test]
    fn shrink_rejects_total_loss_and_bad_ranks() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b());
        assert!(matches!(
            ctx.shrink_to_survivors(&[0, 8]),
            Err(PlanError::Malformed(_))
        ));
        assert!(matches!(
            ctx.shrink_to_survivors(&[99]),
            Err(PlanError::BadRank(99))
        ));
    }

    #[test]
    fn shrink_with_no_dead_ranks_is_identity() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b());
        let (same, map) = ctx.shrink_to_survivors(&[]).unwrap();
        assert_eq!(same.cluster.total_gpus(), 16);
        assert!(map.iter().enumerate().all(|(i, &m)| m == Some(i)));
    }

    #[test]
    fn grow_rederives_capacity_and_extends_speed() {
        let speed: Vec<f64> = (0..16).map(|r| 1.0 + r as f64 / 100.0).collect();
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b()).with_rank_speed(speed.clone());
        let big = ctx.grow_to_nodes(3).unwrap();
        assert_eq!(big.cluster.total_gpus(), 24);
        let fresh = SchedulerCtx::new(&big.cluster, &llama_7b());
        assert_eq!(big.capacity, fresh.capacity);
        let grown = big.rank_speed.unwrap();
        assert_eq!(&grown[..16], &speed[..]);
        assert!(grown[16..].iter().all(|&s| s == 1.0));
    }

    #[test]
    fn grow_preserves_capacity_override() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b()).with_capacity(5000);
        let big = ctx.grow_to_nodes(4).unwrap();
        assert_eq!(big.capacity, 5000);
    }

    #[test]
    fn grow_rejects_shrinking_and_zero() {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_7b());
        assert!(matches!(ctx.grow_to_nodes(0), Err(PlanError::Malformed(_))));
        assert!(matches!(ctx.grow_to_nodes(1), Err(PlanError::Malformed(_))));
        let same = ctx.grow_to_nodes(2).unwrap();
        assert_eq!(same.cluster.total_gpus(), 16);
    }

    #[test]
    fn shrink_then_grow_round_trips_and_plans_audit_clean() {
        use crate::validate::validate_with_batch;
        use crate::zeppelin::Zeppelin;
        use zeppelin_model::config::llama_3b;

        let ctx = SchedulerCtx::new(&cluster_a(3), &llama_3b());
        // Rank 9 lives on node 1: shrink drains it, then repair grows back.
        let (small, _) = ctx.shrink_to_survivors(&[9]).unwrap();
        assert_eq!(small.cluster.nodes, 2);
        let back = small.grow_to_nodes(3).unwrap();
        assert_eq!(back.cluster.total_gpus(), ctx.cluster.total_gpus());
        assert_eq!(back.capacity, ctx.capacity);

        let lens: Vec<u64> = (0..48).map(|i| 256 + (i * 97) % 1500).collect();
        let batch = Batch::new(lens);
        let plan = Zeppelin::new().plan(&batch, &back).unwrap();
        assert!(
            validate_with_batch(&plan, &back, &batch).is_ok(),
            "plan over the regrown context must audit clean"
        );
    }

    #[test]
    fn heterogeneous_shrink_then_grow_migrates_speeds_and_audits_clean() {
        use crate::validate::validate_with_batch;
        use crate::zeppelin::Zeppelin;
        use zeppelin_model::config::llama_3b;

        // Mixed-generation cluster: node 0 fast, node 1 degraded, node 2
        // a straggler tier — per-rank speeds vary within nodes too.
        let speed: Vec<f64> = (0..24)
            .map(|r| match r / 8 {
                0 => 1.0 + r as f64 / 200.0,
                1 => 0.7 + (r % 8) as f64 / 100.0,
                _ => 0.3 + (r % 8) as f64 / 50.0,
            })
            .collect();
        let ctx = SchedulerCtx::new(&cluster_a(3), &llama_3b()).with_rank_speed(speed.clone());

        // Drain the degraded node 1, then repair grows a fresh node back.
        let (small, map) = ctx.shrink_to_survivors(&[9]).unwrap();
        let kept = small.rank_speed.as_ref().unwrap();
        assert_eq!(kept.len(), 16);
        // Node 0 keeps its speeds; node 2's straggler speeds renumber to 8..16.
        assert!((kept[0] - speed[0]).abs() < 1e-12);
        assert_eq!(map[16], Some(8));
        assert!((kept[8] - speed[16]).abs() < 1e-12);

        let back = small.grow_to_nodes(3).unwrap();
        let grown = back.rank_speed.as_ref().unwrap();
        assert_eq!(grown.len(), 24);
        // Survivor speeds migrate; the repaired node arrives healthy (1.0).
        assert!((grown[8] - speed[16]).abs() < 1e-12);
        assert!(grown[16..].iter().all(|&s| s == 1.0));
        assert_eq!(back.capacity, ctx.capacity);

        let lens: Vec<u64> = (0..48).map(|i| 256 + (i * 97) % 1500).collect();
        let batch = Batch::new(lens);
        let plan = Zeppelin::new().plan(&batch, &back).unwrap();
        assert!(
            validate_with_batch(&plan, &back, &batch).is_ok(),
            "plan over the heterogeneous regrown context must audit clean"
        );
    }

    #[test]
    fn node_tiers_seed_rank_speed_and_survive_shrink_grow() {
        use zeppelin_sim::topology::{cluster_mixed, A800_RELATIVE_SPEED};

        let cluster = cluster_mixed(3); // tiers [A800, 1.0, 1.0]
        let ctx = SchedulerCtx::new(&cluster, &llama_7b());
        let speed = ctx.rank_speed.as_ref().expect("tiers seed rank_speed");
        assert_eq!(speed.len(), 24);
        assert!(speed[..8].iter().all(|&s| s == A800_RELATIVE_SPEED));
        assert!(speed[8..].iter().all(|&s| s == 1.0));

        // Drain the A800 node: tiers and speeds migrate together.
        let (small, _) = ctx.shrink_to_survivors(&[0]).unwrap();
        assert_eq!(small.cluster.node_tiers, vec![1.0, 1.0]);
        assert!(small.rank_speed.unwrap().iter().all(|&s| s == 1.0));

        // Repair: the rejoining node arrives at the blueprint tier.
        let back = ctx
            .shrink_to_survivors(&[0])
            .unwrap()
            .0
            .grow_to_nodes(3)
            .unwrap();
        assert_eq!(back.cluster.node_tiers, vec![1.0, 1.0, 1.0]);
        back.cluster.validate().unwrap();
        assert_eq!(back.rank_speed.unwrap().len(), 24);
    }

    #[test]
    fn resize_nodes_grows_and_evicts_tail_nodes() {
        let speed: Vec<f64> = (0..24).map(|r| 1.0 + r as f64 / 100.0).collect();
        let ctx = SchedulerCtx::new(&cluster_a(3), &llama_7b()).with_rank_speed(speed.clone());

        // Shrink to 1 node: nodes 1 and 2 hand their ranks back.
        let one = ctx.resize_nodes(1).unwrap();
        assert_eq!(one.cluster.total_gpus(), 8);
        assert_eq!(one.rank_speed.as_ref().unwrap()[..], speed[..8]);
        let fresh = SchedulerCtx::new(&one.cluster, &llama_7b());
        assert_eq!(one.capacity, fresh.capacity);

        // Grow back to 2: node 0's speeds survive, the new node is healthy.
        let two = one.resize_nodes(2).unwrap();
        assert_eq!(two.cluster.total_gpus(), 16);
        assert_eq!(two.rank_speed.as_ref().unwrap()[..8], speed[..8]);
        assert!(two.rank_speed.as_ref().unwrap()[8..]
            .iter()
            .all(|&s| s == 1.0));

        // Same size is identity; zero is rejected.
        assert_eq!(two.resize_nodes(2).unwrap().cluster.nodes, 2);
        assert!(matches!(two.resize_nodes(0), Err(PlanError::Malformed(_))));
    }
}
