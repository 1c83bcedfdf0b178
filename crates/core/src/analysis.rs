//! Static plan analysis: per-rank cost and memory estimates without
//! running the simulator.
//!
//! The estimates use the same kernel model and exact causal-pair accounting
//! as the executor, so for compute they agree with the simulated trace *to
//! the nanosecond* (asserted by integration tests); communication estimates
//! are volumes, not times, because contention is the simulator's job. The
//! analyzer powers the CLI's `explain` output and the partitioner's
//! regression tests, and gives schedulers a cheap objective to compare
//! candidate plans.

// Per-rank and per-micro-batch tables are parallel arrays indexed in
// lockstep; iterator rewrites would obscure the accounting.
#![allow(clippy::needless_range_loop)]

use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::attention_seq_flops;
use zeppelin_model::kernel::KernelModel;
use zeppelin_model::memory::{activation_bytes_per_token, kv_bytes};
use zeppelin_sim::topology::ClusterSpec;

use crate::chunking::RingGeometry;
use crate::plan::{AttnMode, IterationPlan, Zone};
use crate::validate::{cluster_violations, PlanViolation};

/// Per-rank static estimates for one iteration plan (forward direction).
#[derive(Debug, Clone, PartialEq)]
pub struct RankEstimate {
    /// Attention FLOPs executed by this rank.
    pub attn_flops: f64,
    /// Attention kernel seconds (same kernel model as the executor; exact).
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
fn analyze_audited(
    plan: &IterationPlan,
    model: &ModelConfig,
    cluster: &ClusterSpec,
) -> PlanAnalysis {
    let kernel = KernelModel::attention();
    let peak = cluster.node.gpu.peak_flops;
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
    // Local sequences fuse into one kernel per (rank, micro-batch), and
    // multi-rank placements with identical (ranks, mode, speed weights,
    // micro-batch) fuse into one group execution — exactly as the executor
    // lowers them, so kernel launch counts (and thus seconds) match.
    let mut local_flops: Vec<Vec<f64>> = vec![vec![0.0; plan.micro_batches]; nranks];
    let mut zone_counts = (0usize, 0usize, 0usize);
    type GroupKey = (Vec<usize>, AttnMode, Vec<u32>, usize);
    let mut groups: std::collections::BTreeMap<GroupKey, Vec<RingGeometry>> =
        std::collections::BTreeMap::new();

    for p in &plan.placements {
        match p.zone {
            Zone::Local => zone_counts.0 += 1,
            Zone::IntraNode => zone_counts.1 += 1,
            Zone::InterNode => zone_counts.2 += 1,
        }
        let geom = p.geometry();
        for (pos, &rank) in p.ranks.iter().enumerate() {
            assert!(rank < nranks, "plan references rank {rank} outside cluster");
            mb_tokens[rank][p.micro_batch] += geom.tokens(pos);
        }
        if p.ranks.len() == 1 {
            local_flops[p.ranks[0]][p.micro_batch] += attention_seq_flops(model, p.len);
            continue;
        }
        groups
            .entry((p.ranks.clone(), p.mode, p.weights.clone(), p.micro_batch))
            .or_default()
            .push(geom);
    }

    for ((group_ranks, mode, _, _), geoms) in &groups {
        let g = group_ranks.len();
        match *mode {
            AttnMode::Ring | AttnMode::DoubleRing => {
                // Both visit every (query, kv) position pair exactly once;
                // per-round kernel costs sum identically. Only the sends'
                // locality differs: a node-major double ring crosses nodes
                // on (nodes-1) of its (G-1) hops instead of at every ring
                // boundary.
                let dr_cross_frac = (*mode == AttnMode::DoubleRing)
                    .then(|| double_ring_cross_fraction(cluster, group_ranks))
                    .flatten();
                for (pos, &rank) in group_ranks.iter().enumerate() {
                    for round in 0..g {
                        let flops: f64 =
                            geoms.iter().map(|s| s.round_flops(model, pos, round)).sum();
                        ranks[rank].attn_flops += flops;
                        ranks[rank].attn_secs += kernel.kernel_time(flops, peak);
                    }
                    for round in 0..g - 1 {
                        let bytes: f64 = geoms
                            .iter()
                            .map(|s| s.round_kv_bytes(model, pos, round))
                            .sum();
                        match dr_cross_frac {
                            Some(frac) => {
                                ranks[rank].inter_sent_bytes += bytes * frac;
                                ranks[rank].intra_sent_bytes += bytes * (1.0 - frac);
                            }
                            None => {
                                let next = group_ranks[(pos + 1) % g];
                                if cluster.same_node(rank, next) {
                                    ranks[rank].intra_sent_bytes += bytes;
                                } else {
                                    ranks[rank].inter_sent_bytes += bytes;
                                }
                            }
                        }
                    }
                }
            }
            AttnMode::AllGather => {
                for (pos, &rank) in group_ranks.iter().enumerate() {
                    let flops: f64 = geoms.iter().map(|s| s.total_flops(model, pos)).sum();
                    ranks[rank].attn_flops += flops;
                    ranks[rank].attn_secs += kernel.kernel_time(flops, peak);
                    for round in 0..g - 1 {
                        let bytes: f64 = geoms
                            .iter()
                            .map(|s| s.round_kv_bytes(model, pos, round))
                            .sum();
                        let next = group_ranks[(pos + 1) % g];
                        if cluster.same_node(rank, next) {
                            ranks[rank].intra_sent_bytes += bytes;
                        } else {
                            ranks[rank].inter_sent_bytes += bytes;
                        }
                    }
                }
            }
            AttnMode::Ulysses => {
                let per_rank: f64 = geoms
                    .iter()
                    .map(|s| attention_seq_flops(model, s.seq_len()))
                    .sum::<f64>()
                    / g as f64;
                for &rank in group_ranks {
                    ranks[rank].attn_flops += per_rank;
                    ranks[rank].attn_secs += kernel.kernel_time(per_rank, peak);
                }
                // All-to-all: each rank exchanges ~4·shard·h/g per peer,
                // aggregated here by destination locality.
                let h_bytes = model.hidden as f64 * model.dtype_bytes as f64;
                for (pos, &rank) in group_ranks.iter().enumerate() {
                    let shard: f64 = geoms.iter().map(|s| s.tokens(pos) as f64).sum();
                    for &peer in group_ranks.iter().filter(|&&q| q != rank) {
                        let bytes = 4.0 * shard * h_bytes / g as f64;
                        if cluster.same_node(rank, peer) {
                            ranks[rank].intra_sent_bytes += bytes;
                        } else {
                            ranks[rank].inter_sent_bytes += bytes;
                        }
                    }
                }
            }
        }
    }

    // Fold fused local kernels and resident peaks.
    for rank in 0..nranks {
        for mb in 0..plan.micro_batches {
            let flops = local_flops[rank][mb];
            if flops > 0.0 {
                ranks[rank].attn_flops += flops;
                ranks[rank].attn_secs += kernel.kernel_time(flops, peak);
            }
        }
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

/// Fraction of a double-ring position's sends that cross nodes, when the
/// group decomposes into equal node-major slices (else `None`: the executor
/// falls back to a plain ring).
fn double_ring_cross_fraction(cluster: &ClusterSpec, ranks: &[usize]) -> Option<f64> {
    let g = ranks.len();
    let mut node_order: Vec<usize> = Vec::new();
    for &r in ranks {
        let node = cluster.node_of(r);
        if node_order.last() != Some(&node) {
            node_order.push(node);
        }
    }
    let n = node_order.len();
    if n <= 1 || !g.is_multiple_of(n) {
        return None;
    }
    let m = g / n;
    let uniform = ranks
        .chunks(m)
        .enumerate()
        .all(|(a, slice)| slice.iter().all(|&r| cluster.node_of(r) == node_order[a]));
    uniform.then_some((n - 1) as f64 / (g - 1) as f64)
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
