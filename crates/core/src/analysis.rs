//! Static plan analysis: per-rank cost and memory estimates without
//! running the simulator.
//!
//! The estimates read the executor's cost model ([`crate::cost`]: the same
//! fused groups, exact causal-pair tables and per-rank peaks, node tiers
//! included), so for compute they agree with the simulated trace *to the
//! nanosecond* (asserted by integration tests); communication estimates
//! are volumes, not times, because contention is the simulator's job. The
//! analyzer powers the CLI's `explain` output and the partitioner's
//! regression tests, and gives schedulers a cheap objective to compare
//! candidate plans.

// Per-rank and per-micro-batch tables are parallel arrays indexed in
// lockstep; iterator rewrites would obscure the accounting.
#![allow(clippy::needless_range_loop)]

use zeppelin_model::config::ModelConfig;
use zeppelin_model::memory::{activation_bytes_per_token, kv_bytes};
use zeppelin_sim::topology::ClusterSpec;

use crate::cost::{CostModel, Fusion, GroupTable};
use crate::plan::{AttnMode, IterationPlan, Zone};
use crate::validate::{cluster_violations, PlanViolation};

/// Per-rank static estimates for one iteration plan (forward direction).
#[derive(Debug, Clone, PartialEq)]
pub struct RankEstimate {
    /// Attention FLOPs executed by this rank.
    pub attn_flops: f64,
    /// Attention kernel seconds at the rank's tier (same cost model as the
    /// executor; exact).
    pub attn_secs: f64,
    /// Tokens this rank holds in the attention layout (all micro-batches'
    /// maximum).
    pub peak_tokens: u64,
    /// KV bytes this rank sends over intra-node links.
    pub intra_sent_bytes: f64,
    /// KV bytes this rank sends across nodes.
    pub inter_sent_bytes: f64,
}

/// Whole-plan static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Per-rank estimates.
    pub ranks: Vec<RankEstimate>,
    /// Sequence count per zone: `(local, intra, inter)`.
    pub zone_counts: (usize, usize, usize),
    /// Max over ranks of attention seconds — a lower bound on the simulated
    /// forward attention phase (communication can only add).
    pub attn_critical_secs: f64,
}

/// Analyzes `plan` for `model` on `cluster`.
///
/// # Panics
///
/// Panics if the plan fails the structural/cluster audit (out-of-range
/// ranks or micro-batches, empty rank lists, …). Untrusted plans should go
/// through [`try_analyze`] instead, which returns the violations.
///
/// # Examples
///
/// ```
/// use zeppelin_core::analysis::analyze;
/// use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
/// use zeppelin_core::zeppelin::Zeppelin;
/// use zeppelin_data::batch::Batch;
/// use zeppelin_model::config::llama_3b;
/// use zeppelin_sim::topology::cluster_a;
///
/// let cluster = cluster_a(2);
/// let ctx = SchedulerCtx::new(&cluster, &llama_3b());
/// let plan = Zeppelin::new()
///     .plan(&Batch::new(vec![30_000, 2_000, 500]), &ctx)
///     .unwrap();
/// let a = analyze(&plan, &llama_3b(), &cluster);
/// assert!(a.attn_imbalance() < 1.6);
/// assert!(a.fits(ctx.capacity + 64));
/// ```
pub fn analyze(plan: &IterationPlan, model: &ModelConfig, cluster: &ClusterSpec) -> PlanAnalysis {
    match try_analyze(plan, model, cluster) {
        Ok(a) => a,
        Err(v) => panic!(
            "analyze on an invalid plan: {}",
            crate::validate::report(&v)
        ),
    }
}

/// Audits `plan` against `cluster` and analyzes it if clean.
///
/// This is the panic-free entry point for plans from untrusted sources
/// (JSON files, the serving protocol): every indexing hazard in the
/// analysis body — out-of-range ranks, out-of-range micro-batches, empty
/// rank lists, hostile `micro_batches` counts — is rejected up front as a
/// typed [`PlanViolation`] list.
///
/// # Errors
///
/// Returns the violations found by
/// [`cluster_violations`](crate::validate::cluster_violations).
pub fn try_analyze(
    plan: &IterationPlan,
    model: &ModelConfig,
    cluster: &ClusterSpec,
) -> Result<PlanAnalysis, Vec<PlanViolation>> {
    let violations = cluster_violations(plan, cluster.total_gpus());
    if !violations.is_empty() {
        return Err(violations);
    }
    Ok(analyze_audited(plan, model, cluster))
}

/// The analysis body. Precondition (established by [`try_analyze`]): the
/// plan passed the cluster audit, so every rank and micro-batch index is in
/// range and every placement has at least one rank.
///
/// Attention is priced from the same [`Fusion`] and per-rank peaks (node
/// tiers included) the executor lowers, kernel by kernel.
fn analyze_audited(
    plan: &IterationPlan,
    model: &ModelConfig,
    cluster: &ClusterSpec,
) -> PlanAnalysis {
    let cost = CostModel::new(cluster, cluster.rank_speeds());
    let fusion = Fusion::new(plan, model, cluster);
    let nranks = cluster.total_gpus();
    let mut ranks = vec![
        RankEstimate {
            attn_flops: 0.0,
            attn_secs: 0.0,
            peak_tokens: 0,
            intra_sent_bytes: 0.0,
            inter_sent_bytes: 0.0,
        };
        nranks
    ];
    let mut mb_tokens: Vec<Vec<u64>> = vec![vec![0; plan.micro_batches]; nranks];
    let mut zone_counts = (0usize, 0usize, 0usize);
    for p in &plan.placements {
        match p.zone {
            Zone::Local => zone_counts.0 += 1,
            Zone::IntraNode => zone_counts.1 += 1,
            Zone::InterNode => zone_counts.2 += 1,
        }
        if let [rank] = p.ranks[..] {
            mb_tokens[rank][p.micro_batch] += p.len;
        }
    }

    for group in &fusion.groups {
        let g = group.ranks.len();
        for (pos, &rank) in group.ranks.iter().enumerate() {
            mb_tokens[rank][group.micro_batch] += group.tokens[pos];
        }
        for (pos, flops) in group.kernels() {
            let rank = group.ranks[pos];
            ranks[rank].attn_flops += flops;
            ranks[rank].attn_secs += cost.attention_secs(rank, flops);
        }
        let mut account = |from: usize, to: usize, bytes: f64| {
            if cluster.same_node(from, to) {
                ranks[from].intra_sent_bytes += bytes;
            } else {
                ranks[from].inter_sent_bytes += bytes;
            }
        };
        if let GroupTable::Ulysses { .. } = group.table {
            // All-to-all: each rank exchanges ~4·shard·h/g per peer,
            // aggregated here by destination locality.
            let h_bytes = model.hidden as f64 * model.dtype_bytes as f64;
            for (pos, &rank) in group.ranks.iter().enumerate() {
                let bytes = 4.0 * group.tokens[pos] as f64 * h_bytes / g as f64;
                for &peer in group.ranks.iter().filter(|&&q| q != rank) {
                    account(rank, peer, bytes);
                }
            }
        } else {
            for (from, to, bytes) in group.kv_sends() {
                account(group.ranks[from], group.ranks[to], bytes);
            }
        }
    }

    // Fold fused local kernels and resident peaks.
    for (&(_, rank), &flops) in &fusion.locals {
        ranks[rank].attn_flops += flops;
        ranks[rank].attn_secs += cost.attention_secs(rank, flops);
    }
    for rank in 0..nranks {
        ranks[rank].peak_tokens = mb_tokens[rank].iter().copied().max().unwrap_or(0);
    }
    // All-gather placements hold the gathered KV transiently.
    for p in plan
        .placements
        .iter()
        .filter(|p| p.mode == AttnMode::AllGather)
    {
        let extra = (kv_bytes(model, p.len) / activation_bytes_per_token(model)).ceil() as u64;
        for &rank in &p.ranks {
            ranks[rank].peak_tokens += extra;
        }
    }

    let attn_critical_secs = ranks.iter().map(|r| r.attn_secs).fold(0.0, f64::max);
    PlanAnalysis {
        ranks,
        zone_counts,
        attn_critical_secs,
    }
}

impl PlanAnalysis {
    /// Max/mean imbalance of attention seconds across ranks (1.0 = flat).
    pub fn attn_imbalance(&self) -> f64 {
        let total: f64 = self.ranks.iter().map(|r| r.attn_secs).sum();
        if total <= 0.0 {
            return 1.0;
        }
        let mean = total / self.ranks.len() as f64;
        self.attn_critical_secs / mean
    }

    /// Total inter-node KV bytes across ranks.
    pub fn total_inter_bytes(&self) -> f64 {
        self.ranks.iter().map(|r| r.inter_sent_bytes).sum()
    }

    /// Whether every rank's resident tokens fit `capacity`.
    pub fn fits(&self, capacity: u64) -> bool {
        self.ranks.iter().all(|r| r.peak_tokens <= capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanOptions, SeqPlacement};
    use zeppelin_model::config::llama_3b;
    use zeppelin_model::flops::attention_seq_flops;
    use zeppelin_sim::topology::cluster_a;

    fn plan_of(placements: Vec<SeqPlacement>) -> IterationPlan {
        IterationPlan {
            scheduler: "analysis-test".into(),
            placements,
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        }
    }

    fn seq(idx: usize, len: u64, ranks: Vec<usize>, zone: Zone, mode: AttnMode) -> SeqPlacement {
        SeqPlacement {
            seq_index: idx,
            len,
            zone,
            ranks,
            mode,
            micro_batch: 0,
            weights: Vec::new(),
        }
    }

    #[test]
    fn flops_are_conserved_across_modes() {
        let model = llama_3b();
        let cluster = cluster_a(2);
        let expected = attention_seq_flops(&model, 40_000);
        for mode in [
            AttnMode::Ring,
            AttnMode::AllGather,
            AttnMode::Ulysses,
            AttnMode::DoubleRing,
        ] {
            let plan = plan_of(vec![seq(
                0,
                40_000,
                (0..16).collect(),
                Zone::InterNode,
                mode,
            )]);
            let a = analyze(&plan, &model, &cluster);
            let total: f64 = a.ranks.iter().map(|r| r.attn_flops).sum();
            assert!(
                (total - expected).abs() / expected < 1e-9,
                "{mode:?}: {total} vs {expected}"
            );
        }
    }

    #[test]
    fn ring_and_double_ring_cost_the_same_statically() {
        let model = llama_3b();
        let cluster = cluster_a(2);
        let ring = analyze(
            &plan_of(vec![seq(
                0,
                40_000,
                (0..16).collect(),
                Zone::InterNode,
                AttnMode::Ring,
            )]),
            &model,
            &cluster,
        );
        let dr = analyze(
            &plan_of(vec![seq(
                0,
                40_000,
                (0..16).collect(),
                Zone::InterNode,
                AttnMode::DoubleRing,
            )]),
            &model,
            &cluster,
        );
        for (a, b) in ring.ranks.iter().zip(&dr.ranks) {
            assert!((a.attn_secs - b.attn_secs).abs() < 1e-12);
        }
        // But their locality split differs: double ring ships less cross-node.
        assert!(dr.total_inter_bytes() < ring.total_inter_bytes());
    }

    #[test]
    fn zone_counts_and_peaks() {
        let model = llama_3b();
        let cluster = cluster_a(2);
        let plan = plan_of(vec![
            seq(0, 1_000, vec![3], Zone::Local, AttnMode::Ring),
            seq(1, 8_000, vec![0, 1], Zone::IntraNode, AttnMode::Ring),
            seq(
                2,
                32_000,
                (0..16).collect(),
                Zone::InterNode,
                AttnMode::Ring,
            ),
        ]);
        let a = analyze(&plan, &model, &cluster);
        assert_eq!(a.zone_counts, (1, 1, 1));
        assert_eq!(a.ranks[3].peak_tokens, 1_000 + 2_000);
        assert_eq!(a.ranks[0].peak_tokens, 4_000 + 2_000);
        assert!(a.fits(8_192));
        assert!(!a.fits(4_000));
    }

    #[test]
    fn local_only_plans_have_no_comm() {
        let model = llama_3b();
        let cluster = cluster_a(1);
        let plan = plan_of(vec![
            seq(0, 4_000, vec![0], Zone::Local, AttnMode::Ring),
            seq(1, 4_000, vec![5], Zone::Local, AttnMode::Ring),
        ]);
        let a = analyze(&plan, &model, &cluster);
        assert_eq!(a.total_inter_bytes(), 0.0);
        assert!(a.ranks.iter().all(|r| r.intra_sent_bytes == 0.0));
        assert!(a.attn_critical_secs > 0.0);
    }

    #[test]
    fn imbalance_metric_flags_skew() {
        let model = llama_3b();
        let cluster = cluster_a(1);
        let skewed = analyze(
            &plan_of(vec![seq(0, 16_000, vec![0], Zone::Local, AttnMode::Ring)]),
            &model,
            &cluster,
        );
        assert!(skewed.attn_imbalance() > 7.0); // One of 8 ranks does it all.
        let flat = analyze(
            &plan_of(vec![seq(
                0,
                16_000,
                (0..8).collect(),
                Zone::IntraNode,
                AttnMode::Ring,
            )]),
            &model,
            &cluster,
        );
        assert!(flat.attn_imbalance() < 1.05);
    }

    #[test]
    fn allgather_peaks_include_gather_transient() {
        let model = llama_3b();
        let cluster = cluster_a(1);
        let ring = analyze(
            &plan_of(vec![seq(
                0,
                32_000,
                (0..8).collect(),
                Zone::IntraNode,
                AttnMode::Ring,
            )]),
            &model,
            &cluster,
        );
        let ag = analyze(
            &plan_of(vec![seq(
                0,
                32_000,
                (0..8).collect(),
                Zone::IntraNode,
                AttnMode::AllGather,
            )]),
            &model,
            &cluster,
        );
        assert!(ag.ranks[0].peak_tokens > ring.ranks[0].peak_tokens);
    }
}
