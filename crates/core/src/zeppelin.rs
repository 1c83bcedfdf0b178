//! The Zeppelin scheduler: hierarchical partitioning + attention engine
//! queues + routing + remapping, with per-component toggles for ablations.
//!
//! Zeppelin is speed-aware on its own: when `ctx.rank_speed` is not
//! uniform (mixed node tiers, stragglers) it lightens slow ranks' local
//! queues, sizes zigzag chunks speed-proportionally inside every ring that
//! spans unequal ranks, and asks the remapping layer for speed-proportional
//! linear-module targets. A uniform or absent speed vector leaves the plan
//! bit-identical to the homogeneous one.

use zeppelin_data::batch::Batch;

use crate::chunking::quantize_speed;
use crate::partitioner::{partition, PartitionConfig};
use crate::plan::{IterationPlan, PlanError, PlanOptions};
use crate::scheduler::{Scheduler, SchedulerCtx};
use crate::zones::zone_thresholds;

/// Component toggles (Fig. 11 ablations run with subsets enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeppelinConfig {
    /// Three-step communication routing (§3.3).
    pub routing: bool,
    /// Linear-module remapping (§3.4).
    pub remapping: bool,
}

impl Default for ZeppelinConfig {
    fn default() -> Self {
        ZeppelinConfig {
            routing: true,
            remapping: true,
        }
    }
}

/// The Zeppelin scheduler.
#[derive(Debug, Clone, Default)]
pub struct Zeppelin {
    /// Component toggles.
    pub config: ZeppelinConfig,
}

impl Zeppelin {
    /// Full Zeppelin: every component enabled.
    pub fn new() -> Zeppelin {
        Zeppelin::default()
    }

    /// Zeppelin with explicit toggles (ablation variants).
    pub fn with_config(config: ZeppelinConfig) -> Zeppelin {
        Zeppelin { config }
    }
}

impl Scheduler for Zeppelin {
    fn name(&self) -> &'static str {
        match (self.config.routing, self.config.remapping) {
            (true, true) => "Zeppelin",
            (true, false) => "Zeppelin (no remap)",
            (false, true) => "Zeppelin (no routing)",
            (false, false) => "Zeppelin (engine only)",
        }
    }

    /// Plans the batch. When `ctx.rank_speed` is non-uniform, every
    /// multi-rank placement spanning ranks of unequal speed carries
    /// quantized per-position speed weights, and the plan declares
    /// `options.speed_aware_remap`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the batch cannot be placed.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.rank_speed` contains a non-finite or non-positive
    /// entry (see [`quantize_speed`]).
    fn plan(&self, batch: &Batch, ctx: &SchedulerCtx) -> Result<IterationPlan, PlanError> {
        // Seed Alg. 1/2's thresholds with the Fig. 5 cost-model crossovers:
        // sequences whose computation hides inter-node (resp. intra-node)
        // communication are distributed even when capacity alone would not
        // force it, balancing quadratic attention across the cluster.
        let zones = zone_thresholds(&ctx.model, &ctx.cluster);
        let mut pcfg = PartitionConfig::new(
            ctx.cluster.nodes,
            ctx.cluster.node.gpus_per_node,
            ctx.capacity,
        )
        .with_zone_hints(zones.local_max, zones.intra_max);
        if let Some(speed) = &ctx.rank_speed {
            pcfg = pcfg.with_device_speed(speed.clone());
        }
        let part = partition(&batch.seqs, &pcfg)?;
        let mut plan = IterationPlan {
            scheduler: self.name().into(),
            placements: part.placements,
            options: PlanOptions {
                routing: self.config.routing,
                remapping: self.config.remapping,
                speed_aware_remap: false,
            },
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        // Tier-seeded speeds of all 1.0 are homogeneous: only a non-uniform
        // vector changes the plan.
        let uneven = |s: &&Vec<f64>| s.iter().any(|&x| x != s[0]);
        if let Some(speed) = ctx.rank_speed.as_ref().filter(uneven) {
            for p in &mut plan.placements {
                if p.ranks.len() < 2 {
                    continue;
                }
                let ws: Vec<u32> = p.ranks.iter().map(|&r| quantize_speed(speed[r])).collect();
                // All-equal weights are uniform chunking; keep the empty
                // encoding so uniform-speed groups stay bit-identical.
                if ws.iter().any(|&w| w != ws[0]) {
                    p.weights = ws;
                }
            }
            plan.options.speed_aware_remap = true;
        }
        plan.validate(ctx.cluster.total_gpus())?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Zone;
    use crate::validate::validate_with_batch;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::{cluster_a, cluster_mixed};

    fn ctx() -> SchedulerCtx {
        SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192)
    }

    #[test]
    fn plans_mixed_batch_across_zones() {
        let batch = Batch::new(vec![60_000, 9_000, 2_000, 1_000, 500, 300, 200, 100]);
        let plan = Zeppelin::new().plan(&batch, &ctx()).unwrap();
        plan.validate(16).unwrap();
        let zones: std::collections::HashSet<Zone> =
            plan.placements.iter().map(|p| p.zone).collect();
        // A 60k sequence must leave a 64k-capacity node... (8 GPUs × 8k =
        // 64k/node; the 60k sequence plus others forces spanning).
        assert!(zones.contains(&Zone::Local), "zones {zones:?}");
        assert!(plan.options.routing && plan.options.remapping);
        assert_eq!(plan.total_tokens(), batch.total_tokens());
    }

    #[test]
    fn ablation_toggles_surface_in_options_and_name() {
        let z = Zeppelin::with_config(ZeppelinConfig {
            routing: false,
            remapping: false,
        });
        assert_eq!(z.name(), "Zeppelin (engine only)");
        let batch = Batch::new(vec![1000, 2000]);
        let plan = z.plan(&batch, &ctx()).unwrap();
        assert!(!plan.options.routing);
        assert!(!plan.options.remapping);
    }

    #[test]
    fn over_capacity_batch_is_rejected() {
        let batch = Batch::new(vec![100_000; 4]);
        let err = Zeppelin::new()
            .plan(&batch, &ctx().with_capacity(1024))
            .unwrap_err();
        assert!(matches!(err, PlanError::OverCapacity { .. }));
    }

    fn mixed_batch() -> Batch {
        Batch::new(vec![60_000, 9_000, 2_000, 1_000, 500, 300, 200, 100])
    }

    #[test]
    fn uniform_speeds_leave_the_plan_bit_identical() {
        let base = Zeppelin::new().plan(&mixed_batch(), &ctx()).unwrap();
        for speed in [1.0, 0.5] {
            let uniform = ctx().with_rank_speed(vec![speed; 16]);
            assert_eq!(
                Zeppelin::new().plan(&mixed_batch(), &uniform).unwrap(),
                base
            );
        }
        // Tier-seeded speeds of all 1.0 are homogeneous too.
        let tiered = SchedulerCtx::new(&cluster_a(2).with_node_tiers(vec![1.0; 2]), &llama_3b())
            .with_capacity(8192);
        assert!(tiered.rank_speed.is_some());
        assert_eq!(Zeppelin::new().plan(&mixed_batch(), &tiered).unwrap(), base);
    }

    #[test]
    fn mixed_tiers_weight_spanning_groups_and_audit_clean() {
        let cluster = cluster_mixed(2); // node 0 slow (A800), node 1 fast
        let ctx = SchedulerCtx::new(&cluster, &llama_3b()).with_capacity(8192);
        let b = mixed_batch();
        let plan = Zeppelin::new().plan(&b, &ctx).unwrap();
        assert_eq!(plan.scheduler, "Zeppelin");
        let weighted: Vec<_> = plan
            .placements
            .iter()
            .filter(|p| !p.weights.is_empty())
            .collect();
        // The 60k sequence spans both generations; its group is weighted.
        assert!(!weighted.is_empty(), "no weighted placements in {plan:?}");
        let speed = ctx.rank_speed.as_ref().unwrap();
        for p in weighted {
            assert_eq!(p.weights.len(), p.ranks.len());
            // Fast ranks carry larger weights than slow ranks.
            for (a, &ra) in p.ranks.iter().enumerate() {
                for (b2, &rb) in p.ranks.iter().enumerate() {
                    if speed[ra] > speed[rb] {
                        assert!(p.weights[a] > p.weights[b2]);
                    }
                }
            }
        }
        validate_with_batch(&plan, &ctx, &b).expect("weighted plan audits clean");
    }

    #[test]
    fn non_uniform_speeds_declare_speed_aware_remap() {
        assert!(
            !Zeppelin::new()
                .plan(&mixed_batch(), &ctx())
                .unwrap()
                .options
                .speed_aware_remap
        );
        let ctx = SchedulerCtx::new(&cluster_mixed(2), &llama_3b()).with_capacity(8192);
        let b = mixed_batch();
        let plan = Zeppelin::new().plan(&b, &ctx).unwrap();
        assert!(plan.options.speed_aware_remap);
        validate_with_batch(&plan, &ctx, &b).expect("speed-aware remap plan audits clean");
    }
}
