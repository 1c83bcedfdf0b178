//! Plan audit layer: typed validation of [`IterationPlan`]s at every trust
//! boundary.
//!
//! Plans cross trust boundaries — JSON files (`plan_io`), the serving
//! protocol, cache re-indexing, elastic replay — and the analyzer and
//! executor index into them without defensive checks. This module is the
//! single auditor in front of those consumers: it collects *every*
//! [`PlanViolation`] instead of stopping at the first, so a report names
//! everything wrong with a hostile document at once.
//!
//! Three audit depths, each a superset of the previous:
//!
//! 1. [`structural_violations`] — cluster-free invariants (used by
//!    `plan_from_json` to reject bogus documents at parse time);
//! 2. [`cluster_violations`] — adds rank-range and zigzag ring-chunk
//!    audits for a cluster of a given size (used by `try_analyze`);
//! 3. [`validate`] / [`validate_with_batch`] — adds context-dependent
//!    checks: Ulysses head divisibility, per-rank memory capacity, routing
//!    chain consistency, remap move consistency, and (with a batch) token
//!    conservation against the source workload.
//!
//! Derived checks (capacity, routing, remapping) run only when the plan is
//! structurally sound, because they index by rank and micro-batch — the
//! auditor itself must never panic on hostile input.

use std::collections::{BTreeSet, HashSet};

use zeppelin_data::batch::Batch;
use zeppelin_sim::topology::Rank;

use crate::plan::{AttnMode, IterationPlan, Zone};
use crate::remap::{plan_remap, plan_remap_weighted};
use crate::routing::route_internode;
use crate::scheduler::SchedulerCtx;

/// Tokens of slack allowed over the context capacity before flagging
/// [`PlanViolation::OverCapacity`]. Schedulers pack to exactly the
/// capacity and zigzag chunking rounds each placement's resident tokens up
/// by at most 2, so the audit grants a fixed allowance plus 2 tokens per
/// placement in the micro-batch (see [`validate`]).
pub const CAPACITY_SLACK_TOKENS: u64 = 64;

/// Most tokens a plan may place in all: 2^53, the largest integer every
/// cost formula (they price tokens as `f64`) represents exactly. It also
/// keeps every per-rank token sum far from `u64` overflow.
pub const MAX_PLAN_TOKENS: u64 = 1 << 53;

/// Byte volume used to probe routed-transfer consistency; the audit checks
/// chain shape and conservation, which are volume-independent.
const ROUTING_PROBE_BYTES: f64 = 1_048_576.0;

/// One violated plan invariant.
///
/// The enum is non-exhaustive: new audits may add variants without a
/// breaking change, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanViolation {
    /// A placement's `ranks` list is empty.
    EmptyRankList {
        /// Sequence index of the offending placement.
        seq_index: usize,
    },
    /// A placement lists the same rank twice.
    DuplicateRank {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// The repeated rank.
        rank: Rank,
    },
    /// A placement references a rank outside the cluster.
    RankOutOfRange {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// The out-of-range rank.
        rank: Rank,
        /// Ranks in the cluster.
        total_ranks: usize,
    },
    /// A local-zone placement spans more than one rank.
    LocalZoneMultiRank {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// Ranks the placement spans.
        group: usize,
    },
    /// A placement's length is zero (lengths must be positive).
    ZeroLength {
        /// Sequence index of the offending placement.
        seq_index: usize,
    },
    /// A placement's micro-batch is at or past the declared count.
    MicroBatchOutOfRange {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// The out-of-range micro-batch id.
        micro_batch: usize,
        /// Micro-batches the plan declares.
        micro_batches: usize,
    },
    /// The plan declares zero micro-batches.
    ZeroMicroBatches,
    /// The declared micro-batch count exceeds the placement count (every
    /// real micro-batch holds at least one placement; a hostile count
    /// would blow up per-micro-batch tables downstream).
    MicroBatchesExceedPlacements {
        /// Micro-batches the plan declares.
        micro_batches: usize,
        /// Placements in the plan.
        placements: usize,
    },
    /// `redundant_attn_frac` is NaN or infinite.
    NonFiniteFraction {
        /// The offending value.
        value: f64,
    },
    /// `redundant_attn_frac` is outside `[0, 1]`.
    FractionOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// Two placements are byte-for-byte identical (double-counted work).
    DuplicatePlacement {
        /// Sequence index of the duplicated placement.
        seq_index: usize,
        /// Micro-batch of the duplicated placement.
        micro_batch: usize,
    },
    /// A Ulysses placement's group size does not divide the head count.
    UlyssesIndivisibleHeads {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// Group size of the placement.
        group: usize,
        /// Attention heads in the model.
        heads: usize,
    },
    /// A rank's resident tokens exceed the per-GPU capacity (plus the
    /// documented zigzag rounding slack).
    OverCapacity {
        /// The overloaded rank.
        rank: Rank,
        /// Micro-batch in which the overload occurs.
        micro_batch: usize,
        /// Resident tokens on the rank.
        tokens: u64,
        /// Context capacity in tokens per rank.
        capacity: u64,
    },
    /// Zigzag chunking of a placement fails its conservation/balance
    /// contract (differential audit of its `RingGeometry`). For
    /// weighted placements the balance contract is speed-proportional: each
    /// position must hold its declared share within chunk rounding.
    RingChunkAsymmetry {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// Placement length in tokens.
        len: u64,
        /// Tokens actually covered by the ring positions.
        resident: u64,
    },
    /// A placement's declared speed-weight vector is malformed (wrong
    /// length for its rank group, or a zero weight).
    BadSpeedWeights {
        /// Sequence index of the offending placement.
        seq_index: usize,
        /// What exactly is wrong.
        detail: String,
    },
    /// A routed inter-node transfer between consecutive ring ranks is
    /// inconsistent (broken chain, endpoint outside the cluster, or bytes
    /// not conserved).
    RoutingChainBroken {
        /// Sending rank of the ring hop.
        src: Rank,
        /// Receiving rank of the ring hop.
        dst: Rank,
        /// What exactly is broken.
        detail: String,
    },
    /// The remap plan derived from a micro-batch's token layout is
    /// inconsistent (bad move endpoints, overdraw, or lost tokens).
    RemapInconsistent {
        /// The offending micro-batch.
        micro_batch: usize,
        /// What exactly is broken.
        detail: String,
    },
    /// The placements' lengths add up to more than [`MAX_PLAN_TOKENS`].
    TooManyTokens {
        /// Tokens the placements hold in all (saturating at `u64::MAX`).
        total: u64,
    },
    /// The plan's total tokens differ from the source batch's.
    TokenMismatch {
        /// Tokens covered by the plan's placements.
        plan_tokens: u64,
        /// Tokens in the source batch.
        batch_tokens: u64,
    },
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::EmptyRankList { seq_index } => {
                write!(f, "placement for sequence {seq_index} has an empty 'ranks' list")
            }
            PlanViolation::DuplicateRank { seq_index, rank } => {
                write!(f, "placement for sequence {seq_index} repeats rank {rank} in 'ranks'")
            }
            PlanViolation::RankOutOfRange {
                seq_index,
                rank,
                total_ranks,
            } => write!(
                f,
                "placement for sequence {seq_index} references rank {rank} but the cluster has {total_ranks} rank(s)"
            ),
            PlanViolation::LocalZoneMultiRank { seq_index, group } => write!(
                f,
                "local-zone placement for sequence {seq_index} spans {group} ranks (must be exactly 1)"
            ),
            PlanViolation::ZeroLength { seq_index } => write!(
                f,
                "placement for sequence {seq_index} has 'len' 0 (lengths must be positive)"
            ),
            PlanViolation::MicroBatchOutOfRange {
                seq_index,
                micro_batch,
                micro_batches,
            } => write!(
                f,
                "placement for sequence {seq_index} is in 'micro_batch' {micro_batch} but the plan declares only {micro_batches}"
            ),
            PlanViolation::ZeroMicroBatches => {
                write!(f, "'micro_batches' is 0 (plans execute at least one micro-batch)")
            }
            PlanViolation::MicroBatchesExceedPlacements {
                micro_batches,
                placements,
            } => write!(
                f,
                "'micro_batches' is {micro_batches} but the plan has only {placements} placement(s)"
            ),
            PlanViolation::NonFiniteFraction { value } => {
                write!(f, "'redundant_attn_frac' is {value}, not a finite number")
            }
            PlanViolation::FractionOutOfRange { value } => {
                write!(f, "'redundant_attn_frac' is {value}, outside [0, 1]")
            }
            PlanViolation::DuplicatePlacement {
                seq_index,
                micro_batch,
            } => write!(
                f,
                "duplicate placement for sequence {seq_index} in micro-batch {micro_batch}"
            ),
            PlanViolation::UlyssesIndivisibleHeads {
                seq_index,
                group,
                heads,
            } => write!(
                f,
                "Ulysses placement for sequence {seq_index} uses a group of {group}, which does not divide {heads} attention heads"
            ),
            PlanViolation::OverCapacity {
                rank,
                micro_batch,
                tokens,
                capacity,
            } => write!(
                f,
                "rank {rank} holds {tokens} tokens in micro-batch {micro_batch}, exceeding the {capacity}-token capacity"
            ),
            PlanViolation::RingChunkAsymmetry {
                seq_index,
                len,
                resident,
            } => write!(
                f,
                "zigzag chunking of sequence {seq_index} is asymmetric: {resident} resident tokens for 'len' {len}"
            ),
            PlanViolation::BadSpeedWeights { seq_index, detail } => write!(
                f,
                "speed weights of sequence {seq_index} are malformed: {detail}"
            ),
            PlanViolation::RoutingChainBroken { src, dst, detail } => {
                write!(f, "routed transfer {src}->{dst} is inconsistent: {detail}")
            }
            PlanViolation::RemapInconsistent {
                micro_batch,
                detail,
            } => write!(
                f,
                "remap plan for micro-batch {micro_batch} is inconsistent: {detail}"
            ),
            PlanViolation::TooManyTokens { total } => write!(
                f,
                "placements hold {total} tokens in all, over the {MAX_PLAN_TOKENS}-token limit"
            ),
            PlanViolation::TokenMismatch {
                plan_tokens,
                batch_tokens,
            } => write!(
                f,
                "plan places {plan_tokens} tokens but the batch has {batch_tokens}"
            ),
        }
    }
}

/// Joins violations into a single-line report (for error messages).
pub fn report(violations: &[PlanViolation]) -> String {
    violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

/// Cluster-free structural audit: every invariant checkable from the plan
/// document alone. This is what [`crate::plan_io::plan_from_json`] runs to
/// reject bogus JSON at parse time.
pub fn structural_violations(plan: &IterationPlan) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    if plan.micro_batches == 0 {
        out.push(PlanViolation::ZeroMicroBatches);
    }
    if plan.micro_batches > plan.placements.len().max(1) {
        out.push(PlanViolation::MicroBatchesExceedPlacements {
            micro_batches: plan.micro_batches,
            placements: plan.placements.len(),
        });
    }
    let total = plan.total_tokens();
    if total > MAX_PLAN_TOKENS {
        out.push(PlanViolation::TooManyTokens { total });
    }
    let frac = plan.redundant_attn_frac;
    if !frac.is_finite() {
        out.push(PlanViolation::NonFiniteFraction { value: frac });
    } else if !(0.0..=1.0).contains(&frac) {
        out.push(PlanViolation::FractionOutOfRange { value: frac });
    }
    let mut seen = HashSet::with_capacity(plan.placements.len());
    for p in &plan.placements {
        if p.ranks.is_empty() {
            out.push(PlanViolation::EmptyRankList {
                seq_index: p.seq_index,
            });
        }
        if p.len == 0 {
            out.push(PlanViolation::ZeroLength {
                seq_index: p.seq_index,
            });
        }
        let mut group = BTreeSet::new();
        for &r in &p.ranks {
            if !group.insert(r) {
                out.push(PlanViolation::DuplicateRank {
                    seq_index: p.seq_index,
                    rank: r,
                });
                break;
            }
        }
        if p.zone == Zone::Local && p.ranks.len() != 1 {
            out.push(PlanViolation::LocalZoneMultiRank {
                seq_index: p.seq_index,
                group: p.ranks.len(),
            });
        }
        if plan.micro_batches > 0 && p.micro_batch >= plan.micro_batches {
            out.push(PlanViolation::MicroBatchOutOfRange {
                seq_index: p.seq_index,
                micro_batch: p.micro_batch,
                micro_batches: plan.micro_batches,
            });
        }
        if !p.weights.is_empty() {
            if p.weights.len() != p.ranks.len() {
                out.push(PlanViolation::BadSpeedWeights {
                    seq_index: p.seq_index,
                    detail: format!("{} weights for {} ranks", p.weights.len(), p.ranks.len()),
                });
            } else if p.weights.contains(&0) {
                out.push(PlanViolation::BadSpeedWeights {
                    seq_index: p.seq_index,
                    detail: "zero weight".into(),
                });
            }
        }
        // Exact duplicates double-count work; fragments of one sequence
        // legitimately share a seq_index but differ in ranks or length.
        if !seen.insert(p) {
            out.push(PlanViolation::DuplicatePlacement {
                seq_index: p.seq_index,
                micro_batch: p.micro_batch,
            });
        }
    }
    out
}

/// Structural audit plus rank-range and zigzag ring-chunk checks for a
/// cluster of `total_ranks` GPUs. [`crate::analysis::try_analyze`] runs
/// this before indexing into per-rank tables.
pub fn cluster_violations(plan: &IterationPlan, total_ranks: usize) -> Vec<PlanViolation> {
    let mut out = structural_violations(plan);
    for p in &plan.placements {
        if let Some(&bad) = p.ranks.iter().find(|&&r| r >= total_ranks) {
            out.push(PlanViolation::RankOutOfRange {
                seq_index: p.seq_index,
                rank: bad,
                total_ranks,
            });
        }
        // Differential audit of the zigzag chunk geometry: ring positions
        // must cover the sequence exactly and stay balanced — within 1
        // token of each other for homogeneous groups (the §3.2 balance
        // contract), or within chunk rounding of the declared speed-
        // proportional share for weighted groups. Weighted placements with
        // malformed weight vectors are already flagged structurally and
        // skipped here.
        let g = p.ranks.len();
        let well_formed = p.weights.is_empty() || (p.weights.len() == g && !p.weights.contains(&0));
        if g > 0 && p.len > 0 && well_formed {
            let geom = p.geometry();
            let per: Vec<u64> = (0..g).map(|i| geom.tokens(i)).collect();
            let resident: u64 = per.iter().sum();
            let balanced = if p.weights.is_empty() {
                let max = per.iter().copied().max().unwrap_or(0);
                let min = per.iter().copied().min().unwrap_or(0);
                max - min <= 1
            } else {
                // Each position owns two chunks, each within one token of
                // its exact proportional share, so in integer cross-
                // multiplication: |tokens_i * W - len * 2 * w_i| <= 2 * W,
                // where W is the total chunk weight (2 * sum of weights).
                let wtot: u128 = p.weights.iter().map(|&w| 2 * u128::from(w)).sum();
                per.iter().zip(&p.weights).all(|(&t, &w)| {
                    let have = u128::from(t) * wtot;
                    let want = u128::from(p.len) * 2 * u128::from(w);
                    have.abs_diff(want) <= 2 * wtot
                })
            };
            if resident != p.len || !balanced {
                out.push(PlanViolation::RingChunkAsymmetry {
                    seq_index: p.seq_index,
                    len: p.len,
                    resident,
                });
            }
        }
    }
    out
}

/// Full context-aware audit: cluster checks plus Ulysses head
/// divisibility, per-rank capacity, routing chain consistency (when
/// `options.routing`), and remap move consistency (when
/// `options.remapping`).
///
/// Derived checks run only when the plan is structurally sound — they
/// index by rank and micro-batch, and the auditor must never panic.
///
/// # Errors
///
/// Returns every violation found (never an empty vector).
///
/// # Examples
///
/// ```
/// use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
/// use zeppelin_core::validate::validate;
/// use zeppelin_core::zeppelin::Zeppelin;
/// use zeppelin_data::batch::Batch;
/// use zeppelin_model::config::llama_3b;
/// use zeppelin_sim::topology::cluster_a;
///
/// let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b());
/// let plan = Zeppelin::new()
///     .plan(&Batch::new(vec![30_000, 2_000, 500]), &ctx)
///     .unwrap();
/// assert!(validate(&plan, &ctx).is_ok());
///
/// let mut hostile = plan.clone();
/// hostile.placements[0].ranks = vec![999];
/// assert!(validate(&hostile, &ctx).is_err());
/// ```
pub fn validate(plan: &IterationPlan, ctx: &SchedulerCtx) -> Result<(), Vec<PlanViolation>> {
    let total_ranks = ctx.cluster.total_gpus();
    let mut out = cluster_violations(plan, total_ranks);
    for p in &plan.placements {
        let g = p.ranks.len();
        if p.mode == AttnMode::Ulysses && g > 1 && !ctx.model.num_heads.is_multiple_of(g) {
            out.push(PlanViolation::UlyssesIndivisibleHeads {
                seq_index: p.seq_index,
                group: g,
                heads: ctx.model.num_heads,
            });
        }
    }
    if out.is_empty() {
        audit_capacity(plan, ctx, &mut out);
        if plan.options.routing {
            audit_routing(plan, ctx, &mut out);
        }
        if plan.options.remapping {
            audit_remap(plan, ctx, &mut out);
        }
    }
    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// [`validate`] plus token conservation against the source batch: every
/// input token must be placed exactly once (in total — packing plans carry
/// synthetic per-window ids, so the check is aggregate, not per-sequence).
///
/// # Errors
///
/// Returns every violation found (never an empty vector).
pub fn validate_with_batch(
    plan: &IterationPlan,
    ctx: &SchedulerCtx,
    batch: &Batch,
) -> Result<(), Vec<PlanViolation>> {
    let mut out = match validate(plan, ctx) {
        Ok(()) => Vec::new(),
        Err(v) => v,
    };
    let plan_tokens = plan.total_tokens();
    let batch_tokens = batch.total_tokens();
    if plan_tokens != batch_tokens {
        out.push(PlanViolation::TokenMismatch {
            plan_tokens,
            batch_tokens,
        });
    }
    if out.is_empty() {
        Ok(())
    } else {
        Err(out)
    }
}

/// Per-rank resident tokens vs. capacity, with the zigzag rounding slack.
fn audit_capacity(plan: &IterationPlan, ctx: &SchedulerCtx, out: &mut Vec<PlanViolation>) {
    let total_ranks = ctx.cluster.total_gpus();
    for mb in 0..plan.micro_batches {
        let in_mb = plan
            .placements
            .iter()
            .filter(|p| p.micro_batch == mb)
            .count() as u64;
        let slack = CAPACITY_SLACK_TOKENS + 2 * in_mb;
        let tokens = plan.tokens_per_rank(total_ranks, mb);
        for (rank, &t) in tokens.iter().enumerate() {
            if t > ctx.capacity.saturating_add(slack) {
                out.push(PlanViolation::OverCapacity {
                    rank,
                    micro_batch: mb,
                    tokens: t,
                    capacity: ctx.capacity,
                });
            }
        }
    }
}

/// Routed-transfer consistency for every cross-node ring hop the plan
/// implies: the three-step chain must start at the sender, end at the
/// receiver, keep every endpoint inside the cluster, and conserve bytes.
fn audit_routing(plan: &IterationPlan, ctx: &SchedulerCtx, out: &mut Vec<PlanViolation>) {
    let total_ranks = ctx.cluster.total_gpus();
    let mut checked: BTreeSet<(Rank, Rank)> = BTreeSet::new();
    for p in plan.placements.iter().filter(|p| p.ranks.len() > 1) {
        let g = p.ranks.len();
        for i in 0..g {
            let src = p.ranks[i];
            let dst = p.ranks[(i + 1) % g];
            if ctx.cluster.same_node(src, dst) || !checked.insert((src, dst)) {
                continue;
            }
            let routed = route_internode(&ctx.cluster, src, dst, ROUTING_PROBE_BYTES);
            if let Some(detail) = routed_transfer_defect(&routed, src, dst, total_ranks, ctx) {
                out.push(PlanViolation::RoutingChainBroken { src, dst, detail });
            }
        }
    }
}

/// First defect in a routed transfer, if any.
fn routed_transfer_defect(
    routed: &crate::routing::RoutedTransfer,
    src: Rank,
    dst: Rank,
    total_ranks: usize,
    ctx: &SchedulerCtx,
) -> Option<String> {
    if routed.lanes() == 0 {
        return Some("no lanes".into());
    }
    if (routed.inter_bytes() - ROUTING_PROBE_BYTES).abs() > 1e-6 * ROUTING_PROBE_BYTES {
        return Some(format!(
            "inter-node bytes {} do not match the {} sent",
            routed.inter_bytes(),
            ROUTING_PROBE_BYTES
        ));
    }
    for (dispatch, inter, combine) in &routed.shares {
        for flow in [dispatch.as_ref(), Some(inter), combine.as_ref()]
            .into_iter()
            .flatten()
        {
            if flow.src >= total_ranks || flow.dst >= total_ranks {
                return Some(format!(
                    "flow {}->{} leaves the cluster",
                    flow.src, flow.dst
                ));
            }
        }
        let head = dispatch.as_ref().map_or(inter.src, |d| d.src);
        let tail = combine.as_ref().map_or(inter.dst, |c| c.dst);
        if head != src || tail != dst {
            return Some(format!("chain runs {head}->{tail}"));
        }
        if let Some(d) = dispatch {
            if d.dst != inter.src {
                return Some("dispatch does not hand off to the inter-node stage".into());
            }
        }
        if let Some(c) = combine {
            if inter.dst != c.src {
                return Some("inter-node stage does not hand off to combine".into());
            }
        }
        if ctx.cluster.same_node(inter.src, inter.dst) {
            return Some("inter-node stage stays on one node".into());
        }
    }
    None
}

/// Remap-move consistency per micro-batch: moves must stay inside the
/// cluster, never overdraw a sender, conserve tokens, and land exactly on
/// the solver's balanced targets. Speed-aware plans
/// (`options.speed_aware_remap`) are audited against the speed-proportional
/// targets the executor will use, derived from the context's rank speeds.
fn audit_remap(plan: &IterationPlan, ctx: &SchedulerCtx, out: &mut Vec<PlanViolation>) {
    let total_ranks = ctx.cluster.total_gpus();
    let speeds = if plan.options.speed_aware_remap {
        ctx.rank_speed.clone()
    } else {
        None
    };
    for mb in 0..plan.micro_batches {
        let tokens = plan.tokens_per_rank(total_ranks, mb);
        let total: u64 = tokens.iter().sum();
        if total == 0 {
            continue;
        }
        let remap = match &speeds {
            Some(s) => plan_remap_weighted(&ctx.cluster, &tokens, s),
            None => plan_remap(&ctx.cluster, &tokens),
        };
        let mut after = tokens;
        let mut defect = None;
        for m in &remap.moves {
            if m.from >= total_ranks || m.to >= total_ranks {
                defect = Some(format!("move {}->{} leaves the cluster", m.from, m.to));
                break;
            }
            if m.from == m.to {
                defect = Some(format!("self-move on rank {}", m.from));
                break;
            }
            if after[m.from] < m.tokens {
                defect = Some(format!(
                    "rank {} sends {} tokens but holds only {}",
                    m.from, m.tokens, after[m.from]
                ));
                break;
            }
            after[m.from] -= m.tokens;
            after[m.to] += m.tokens;
        }
        if defect.is_none() {
            if after.iter().sum::<u64>() != total {
                defect = Some("tokens are not conserved across the moves".into());
            } else if after != remap.targets {
                defect = Some("moves do not land on the balanced targets".into());
            }
        }
        if let Some(detail) = defect {
            out.push(PlanViolation::RemapInconsistent {
                micro_batch: mb,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanOptions, SeqPlacement};
    use crate::scheduler::Scheduler;
    use crate::zeppelin::Zeppelin;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::cluster_a;

    fn ctx() -> SchedulerCtx {
        SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192)
    }

    fn placement(seq: usize, len: u64, ranks: Vec<usize>, zone: Zone) -> SeqPlacement {
        SeqPlacement {
            seq_index: seq,
            len,
            zone,
            ranks,
            mode: AttnMode::Ring,
            micro_batch: 0,
            weights: Vec::new(),
        }
    }

    fn plan_of(placements: Vec<SeqPlacement>) -> IterationPlan {
        IterationPlan {
            scheduler: "validate-test".into(),
            placements,
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        }
    }

    fn zeppelin_plan(lens: Vec<u64>) -> (IterationPlan, SchedulerCtx, Batch) {
        let ctx = ctx();
        let batch = Batch::new(lens);
        let plan = Zeppelin::new().plan(&batch, &ctx).unwrap();
        (plan, ctx, batch)
    }

    #[test]
    fn scheduler_plans_validate_clean() {
        let (plan, ctx, batch) = zeppelin_plan(vec![30_000, 9_000, 2_000, 500, 400]);
        validate(&plan, &ctx).unwrap();
        validate_with_batch(&plan, &ctx, &batch).unwrap();
    }

    #[test]
    fn structural_audit_collects_every_violation() {
        let mut plan = plan_of(vec![
            placement(0, 0, vec![], Zone::Local),
            placement(1, 100, vec![2, 2], Zone::IntraNode),
            placement(2, 100, vec![0, 1], Zone::Local),
        ]);
        plan.placements[2].micro_batch = 9;
        plan.redundant_attn_frac = f64::NAN;
        let v = structural_violations(&plan);
        let text = report(&v);
        for needle in [
            "empty 'ranks'",
            "'len' 0",
            "repeats rank 2",
            "local-zone",
            "'micro_batch' 9",
            "redundant_attn_frac",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn zero_and_inflated_micro_batches_are_flagged() {
        let mut plan = plan_of(vec![placement(0, 100, vec![0], Zone::Local)]);
        plan.micro_batches = 0;
        assert!(structural_violations(&plan)
            .iter()
            .any(|v| matches!(v, PlanViolation::ZeroMicroBatches)));
        plan.micro_batches = 50;
        assert!(structural_violations(&plan)
            .iter()
            .any(|v| matches!(v, PlanViolation::MicroBatchesExceedPlacements { .. })));
    }

    #[test]
    fn exact_duplicate_placements_are_flagged() {
        let p = placement(0, 100, vec![0], Zone::Local);
        let plan = plan_of(vec![p.clone(), p]);
        assert!(structural_violations(&plan)
            .iter()
            .any(|v| matches!(v, PlanViolation::DuplicatePlacement { .. })));
        // Fragments of one sequence with different lengths are fine.
        let plan = plan_of(vec![
            placement(0, 100, vec![0], Zone::Local),
            placement(0, 60, vec![0], Zone::Local),
        ]);
        assert!(structural_violations(&plan).is_empty());
    }

    #[test]
    fn duplicates_match_every_field_of_a_placement() {
        let duplicates = |plan: &IterationPlan| {
            structural_violations(plan)
                .iter()
                .filter(|v| matches!(v, PlanViolation::DuplicatePlacement { .. }))
                .count()
        };
        let base = SeqPlacement {
            weights: vec![2, 1],
            ..placement(3, 900, vec![0, 1], Zone::IntraNode)
        };
        let mut plan = plan_of(vec![base.clone(), base.clone(), base.clone()]);
        assert_eq!(
            duplicates(&plan),
            2,
            "each repeat of a placement is flagged"
        );

        let reweighted = SeqPlacement {
            weights: vec![1, 2],
            ..base.clone()
        };
        let reordered = SeqPlacement {
            ranks: vec![1, 0],
            ..base.clone()
        };
        let later = SeqPlacement {
            micro_batch: 1,
            ..base.clone()
        };
        plan = plan_of(vec![base, reweighted, reordered, later]);
        plan.micro_batches = 2;
        assert_eq!(duplicates(&plan), 0);
    }

    #[test]
    fn cluster_audit_flags_out_of_range_ranks() {
        let plan = plan_of(vec![placement(0, 100, vec![0, 99], Zone::IntraNode)]);
        let v = cluster_violations(&plan, 16);
        assert!(v
            .iter()
            .any(|x| matches!(x, PlanViolation::RankOutOfRange { rank: 99, .. })));
        assert!(cluster_violations(&plan, 128).is_empty());
    }

    #[test]
    fn validate_flags_capacity_overload() {
        let plan = plan_of(vec![placement(0, 9_500, vec![0], Zone::Local)]);
        let err = validate(&plan, &ctx()).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, PlanViolation::OverCapacity { rank: 0, .. })));
        // Spread over 16 ranks the same tokens fit comfortably.
        let plan = plan_of(vec![placement(
            0,
            9_500,
            (0..16).collect(),
            Zone::InterNode,
        )]);
        validate(&plan, &ctx()).unwrap();
    }

    #[test]
    fn capacity_slack_tolerates_zigzag_rounding() {
        // Pack a rank to exactly its capacity: rounding must not flag it.
        let plan = plan_of(vec![placement(
            0,
            8192 * 4,
            vec![0, 1, 2, 3],
            Zone::IntraNode,
        )]);
        validate(&plan, &ctx()).unwrap();
    }

    #[test]
    fn validate_flags_indivisible_ulysses_groups() {
        let mut plan = plan_of(vec![placement(0, 3_000, vec![0, 1, 2], Zone::IntraNode)]);
        plan.placements[0].mode = AttnMode::Ulysses;
        // 32 heads on a group of 3.
        let err = validate(&plan, &ctx()).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, PlanViolation::UlyssesIndivisibleHeads { group: 3, .. })));
        plan.placements[0].ranks = vec![0, 1, 2, 3];
        validate(&plan, &ctx()).unwrap();
    }

    #[test]
    fn routing_and_remap_audits_pass_on_real_plans() {
        let (plan, ctx, _) = zeppelin_plan(vec![40_000, 9_000, 2_500, 1_200, 500, 400, 300]);
        assert!(
            plan.options.routing && plan.options.remapping,
            "zeppelin plans exercise both derived audits"
        );
        validate(&plan, &ctx).unwrap();
    }

    #[test]
    fn token_mismatch_is_flagged_against_the_batch() {
        let (mut plan, ctx, batch) = zeppelin_plan(vec![9_000, 500]);
        validate_with_batch(&plan, &ctx, &batch).unwrap();
        plan.placements[0].len -= 7;
        let err = validate_with_batch(&plan, &ctx, &batch).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, PlanViolation::TokenMismatch { .. })));
    }

    #[test]
    fn hostile_plans_never_panic_the_auditor() {
        // Structurally broken in several ways at once: the derived checks
        // must be skipped, not crash.
        let mut plan = plan_of(vec![
            placement(0, 0, vec![], Zone::Local),
            placement(1, 100, vec![999], Zone::Local),
        ]);
        plan.micro_batches = usize::MAX;
        plan.options = PlanOptions {
            routing: true,
            remapping: true,
            speed_aware_remap: false,
        };
        let err = validate(&plan, &ctx()).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn token_totals_past_the_limit_are_flagged_before_any_sum_overflows() {
        // A speed-aware plan whose lengths overflow `u64` when summed used
        // to crash the weighted remap audit.
        let ctx = ctx().with_rank_speed((0..16).map(|r| if r < 8 { 1.0 } else { 0.5 }).collect());
        let mut plan = plan_of(vec![
            placement(0, u64::MAX, vec![0, 1], Zone::IntraNode),
            placement(1, 500, vec![1], Zone::Local),
        ]);
        plan.options.remapping = true;
        plan.options.speed_aware_remap = true;
        let err = validate(&plan, &ctx).unwrap_err();
        assert!(
            err.contains(&PlanViolation::TooManyTokens { total: u64::MAX }),
            "{err:?}"
        );
        plan.placements[0].len = MAX_PLAN_TOKENS;
        assert!(
            structural_violations(&plan).contains(&PlanViolation::TooManyTokens {
                total: MAX_PLAN_TOKENS + 500
            })
        );
        plan.placements[0].len = MAX_PLAN_TOKENS - 500;
        assert!(structural_violations(&plan).is_empty());
    }

    #[test]
    fn weighted_placements_audit_clean_and_tampering_is_flagged() {
        // A weighted ring group whose chunking matches its declared speeds
        // passes the extended symmetry audit.
        let mut p = placement(0, 12_000, vec![0, 1, 2, 3], Zone::IntraNode);
        p.weights = vec![1024, 512, 1024, 1024];
        let plan = plan_of(vec![p]);
        assert!(cluster_violations(&plan, 16).is_empty());
        validate(&plan, &ctx()).unwrap();
        // The same token split without declared weights violates the
        // homogeneous ±1 contract... which the ring geometry can't even
        // express — so instead tamper the weights after the fact: a weight
        // vector of the wrong length is flagged structurally.
        let mut bad = placement(1, 12_000, vec![0, 1, 2, 3], Zone::IntraNode);
        bad.weights = vec![1024, 512];
        let plan = plan_of(vec![bad]);
        assert!(structural_violations(&plan)
            .iter()
            .any(|v| matches!(v, PlanViolation::BadSpeedWeights { .. })));
        let mut zero = placement(2, 12_000, vec![0, 1], Zone::IntraNode);
        zero.weights = vec![1024, 0];
        let plan = plan_of(vec![zero]);
        assert!(structural_violations(&plan)
            .iter()
            .any(|v| matches!(v, PlanViolation::BadSpeedWeights { .. })));
    }

    #[test]
    fn speed_aware_remap_plans_audit_against_weighted_targets() {
        let ctx = ctx().with_rank_speed({
            let mut s = vec![1.0; 16];
            s[5] = 0.5;
            s
        });
        let (mut plan, _, _) = zeppelin_plan(vec![30_000, 9_000, 2_000, 500, 400]);
        plan.options.speed_aware_remap = true;
        validate(&plan, &ctx).unwrap();
        // Without speeds in the context the flag falls back to the
        // homogeneous remap audit.
        validate(&plan, &self::ctx()).unwrap();
    }

    #[test]
    fn report_joins_violations() {
        let v = vec![
            PlanViolation::ZeroMicroBatches,
            PlanViolation::ZeroLength { seq_index: 3 },
        ];
        let r = report(&v);
        assert!(r.contains("micro-batch") && r.contains("sequence 3"), "{r}");
    }
}
