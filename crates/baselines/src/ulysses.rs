//! DeepSpeed-Ulysses sequence parallelism baseline (§6 related work).
//!
//! Every sequence is sharded across an Ulysses group; all-to-all exchanges
//! switch between sequence- and head-parallel layouts around attention.
//! The group size must divide the attention head count, so on clusters with
//! more GPUs than heads the ranks split into several independent Ulysses
//! groups and sequences are assigned to groups balancing tokens.

use zeppelin_core::plan::{AttnMode, IterationPlan, PlanError, PlanOptions, SeqPlacement, Zone};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_data::batch::Batch;

/// The Ulysses SP baseline scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ulysses;

impl Ulysses {
    /// Creates the baseline.
    pub fn new() -> Ulysses {
        Ulysses
    }

    /// Largest feasible group size: divides both the rank count (so groups
    /// tile the cluster) and the head count (DeepSpeed's constraint).
    pub fn group_size(ranks: usize, heads: usize) -> usize {
        (1..=ranks.min(heads))
            .rev()
            .find(|&gs| ranks.is_multiple_of(gs) && heads.is_multiple_of(gs))
            .unwrap_or(1)
    }
}

impl Scheduler for Ulysses {
    fn name(&self) -> &'static str {
        "Ulysses SP"
    }

    fn plan(&self, batch: &Batch, ctx: &SchedulerCtx) -> Result<IterationPlan, PlanError> {
        let r = ctx.cluster.total_gpus();
        let gs = Self::group_size(r, ctx.model.num_heads);
        let n_groups = r / gs;
        // Token-balanced assignment of sequences to groups.
        let mut order: Vec<(usize, u64)> = batch.seqs.iter().copied().enumerate().collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut group_tokens = vec![0u64; n_groups];
        let mut placements = Vec::new();
        for (seq_index, len) in order {
            let grp = (0..n_groups)
                .min_by_key(|&i| (group_tokens[i], i))
                .expect("at least one group");
            group_tokens[grp] += len;
            let ranks: Vec<usize> = (grp * gs..(grp + 1) * gs).collect();
            let spans_nodes = ctx.cluster.node_of(ranks[0]) != ctx.cluster.node_of(ranks[gs - 1]);
            placements.push(SeqPlacement {
                seq_index,
                len,
                zone: if gs == 1 {
                    Zone::Local
                } else if spans_nodes {
                    Zone::InterNode
                } else {
                    Zone::IntraNode
                },
                ranks,
                mode: if gs == 1 {
                    AttnMode::Ring
                } else {
                    AttnMode::Ulysses
                },
                micro_batch: 0,
                weights: Vec::new(),
            });
        }
        // Capacity: each rank holds its sequence shards; the head-parallel
        // phase holds full sequences at hidden/gs width — the same volume.
        let max_group = group_tokens.iter().max().copied().unwrap_or(0);
        if max_group.div_ceil(gs as u64) > ctx.capacity {
            return Err(PlanError::OverCapacity {
                tokens: batch.total_tokens(),
                capacity: ctx.capacity * r as u64,
            });
        }
        placements.sort_by_key(|p| p.seq_index);
        let plan = IterationPlan {
            scheduler: self.name().into(),
            placements,
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        plan.validate(r)?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_model::config::{llama_13b, llama_3b};
    use zeppelin_sim::topology::cluster_a;

    fn ctx() -> SchedulerCtx {
        SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(16_384)
    }

    #[test]
    fn group_size_respects_heads_and_ranks() {
        assert_eq!(Ulysses::group_size(16, 32), 16);
        assert_eq!(Ulysses::group_size(64, 32), 32);
        assert_eq!(Ulysses::group_size(16, 40), 8); // 13B: 40 heads.
        assert_eq!(Ulysses::group_size(3, 32), 1);
    }

    #[test]
    fn single_group_covers_all_ranks_when_divisible() {
        let batch = Batch::new(vec![20_000, 1_000]);
        let plan = Ulysses::new().plan(&batch, &ctx()).unwrap();
        for p in &plan.placements {
            assert_eq!(p.ranks.len(), 16);
            assert_eq!(p.mode, AttnMode::Ulysses);
        }
    }

    #[test]
    fn head_constrained_cluster_splits_into_groups() {
        // 13B has 40 heads; 16 ranks -> groups of 8.
        let ctx13 = SchedulerCtx::new(&cluster_a(2), &llama_13b()).with_capacity(16_384);
        let batch = Batch::new(vec![9_000, 8_000, 3_000, 2_000]);
        let plan = Ulysses::new().plan(&batch, &ctx13).unwrap();
        for p in &plan.placements {
            assert_eq!(p.ranks.len(), 8);
        }
        // Token balance across the two groups.
        let g0: u64 = plan
            .placements
            .iter()
            .filter(|p| p.ranks[0] == 0)
            .map(|p| p.len)
            .sum();
        let g1: u64 = plan
            .placements
            .iter()
            .filter(|p| p.ranks[0] == 8)
            .map(|p| p.len)
            .sum();
        assert!(g0.abs_diff(g1) <= 9_000, "groups {g0} vs {g1}");
    }

    #[test]
    fn capacity_guard() {
        let err = Ulysses::new()
            .plan(&Batch::new(vec![500_000]), &ctx().with_capacity(1024))
            .unwrap_err();
        assert!(matches!(err, PlanError::OverCapacity { .. }));
    }
}
