//! Lowers an [`IterationPlan`] onto the simulator.
//!
//! One call lowers one transformer layer in one direction (forward or
//! backward). The generated DAG implements:
//!
//! - the **attention engine** (§3.2): per-rank queues executed inter-node →
//!   intra-node → local (enforced with ordering markers), each ring group
//!   running `G` rounds of compute overlapped with KV send-receive under a
//!   double-buffer constraint;
//! - **all-gather attention** for the LLaMA CP baseline (gather on the
//!   critical path, then one big local kernel);
//! - the **routing layer** (§3.3): inter-node ring hops optionally decompose
//!   into pipelined dispatch → multi-NIC transfer → combine stages;
//! - the **remapping layer** (§3.4): all-to-all token moves around the
//!   linear modules when the plan enables it and imbalance warrants it;
//! - **micro-batches** (Hybrid DP, packing): serialized per rank.
//!
//! Backward lowering reuses the same structure with FLOPs and communication
//! volume scaled by the backward multipliers.

// Ring positions, per-rank slots and launch tables are parallel arrays
// indexed by position; iterator rewrites would obscure the ring math.
#![allow(clippy::needless_range_loop)]

use zeppelin_core::cost::{CostModel, Fusion, Group, GroupTable, RingOrder};
use zeppelin_core::plan::{IterationPlan, Zone};
use zeppelin_core::remap::{needs_remap, needs_remap_weighted, plan_remap, plan_remap_weighted};
use zeppelin_core::routing::ProxyTable;
use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::{
    linear_flops_per_token, BACKWARD_COMM_MULTIPLIER, BACKWARD_FLOPS_MULTIPLIER,
};
use zeppelin_model::kernel::COMM_LAUNCH_OVERHEAD_S;
use zeppelin_model::memory::hidden_bytes;
use zeppelin_sim::engine::{Simulator, Stream, TaskId, TraceInfo};
use zeppelin_sim::error::SimError;
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::{ClusterSpec, Rank};
use zeppelin_sim::trace::{TraceCategory, TraceLabel};

/// Pass direction; backward scales FLOPs and communication volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward pass.
    Forward,
    /// Backward pass (≈2× FLOPs, ≈2× KV traffic).
    Backward,
}

impl Direction {
    fn flops_scale(self) -> f64 {
        match self {
            Direction::Forward => 1.0,
            Direction::Backward => BACKWARD_FLOPS_MULTIPLIER,
        }
    }

    fn comm_scale(self) -> f64 {
        match self {
            Direction::Forward => 1.0,
            Direction::Backward => BACKWARD_COMM_MULTIPLIER,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Direction::Forward => "fwd",
            Direction::Backward => "bwd",
        }
    }
}

/// Attention-queue execution order (§3.2 argues for inter-first; the
/// reversed order exists for the ordering ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueOrder {
    /// Inter-node, then intra-node, then local (the paper's order).
    #[default]
    InterFirst,
    /// Local, then intra-node, then inter-node (ablation).
    LocalFirst,
}

/// Data-parallel gradient synchronization modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradSync {
    /// No gradient traffic (the default; identical across methods, so it
    /// cancels in comparisons and is off for the paper exhibits).
    Off,
    /// Ring all-reduce per layer during the backward pass, overlapped with
    /// the remaining backward compute.
    Overlapped,
    /// Ring all-reduce per layer, serialized after the layer's backward
    /// work (the "no overlap" ablation).
    Blocking,
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Pipeline chunks for routed transfers (stage overlap granularity).
    pub routing_pipeline: usize,
    /// Attention queue ordering.
    pub queue_order: QueueOrder,
    /// Multiplier on linear-module time from MoE routing imbalance (1.0
    /// for dense models).
    pub moe_linear_factor: f64,
    /// Extra per-token seconds in linear modules from TP all-reduces.
    pub tp_overhead_per_token: f64,
    /// Imbalance slack below which remapping is skipped.
    pub remap_slack: f64,
    /// Data-parallel gradient synchronization.
    pub grad_sync: GradSync,
    /// Per-rank degradation on top of the cluster's node tiers
    /// (stragglers, injected GPU faults): a rank's kernels run at
    /// `tier × rank_speed[rank]` of the GPU's peak. Empty means none.
    pub rank_speed: Vec<f64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            routing_pipeline: 4,
            queue_order: QueueOrder::InterFirst,
            moe_linear_factor: 1.0,
            tp_overhead_per_token: 0.0,
            remap_slack: 0.02,
            grad_sync: GradSync::Off,
            rank_speed: Vec::new(),
        }
    }
}

/// A rejected executor or step configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecConfigError {
    /// The MoE router skew is non-finite: NaN would poison the expert-load
    /// softmax and every downstream linear-time estimate.
    MoeSkew {
        /// Offending value.
        value: f64,
    },
    /// `rank_speed` is non-empty but does not cover every cluster rank.
    /// A short vector used to mean "missing ranks run at full speed" in the
    /// kernel path while the remap path padded with 1.0 — two different
    /// physics for the same config; now both reject it up front.
    RankSpeedLength {
        /// Length of the configured vector.
        got: usize,
        /// Ranks in the cluster.
        nranks: usize,
    },
    /// A `rank_speed` entry is non-finite or not strictly positive.
    RankSpeedValue {
        /// Offending rank.
        rank: usize,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecConfigError::MoeSkew { value } => {
                write!(f, "moe_skew = {value} is not finite")
            }
            ExecConfigError::RankSpeedLength { got, nranks } => write!(
                f,
                "rank_speed has {got} entries for a {nranks}-rank cluster \
                 (must be empty or cover every rank)"
            ),
            ExecConfigError::RankSpeedValue { rank, value } => {
                write!(f, "rank_speed[{rank}] = {value} is not positive and finite")
            }
        }
    }
}

impl std::error::Error for ExecConfigError {}

impl ExecConfig {
    /// Validates `rank_speed` against `cluster` and returns the effective
    /// per-rank speed both the kernel-rate and remap paths use: the
    /// cluster's node tier times `rank_speed`, or `None` when the cluster
    /// has no tiers and `rank_speed` is empty.
    ///
    /// # Errors
    ///
    /// [`ExecConfigError`] when `rank_speed` is non-empty with the wrong
    /// length, or contains a non-finite or non-positive entry.
    pub fn effective_rank_speed(
        &self,
        cluster: &ClusterSpec,
    ) -> Result<Option<Vec<f64>>, ExecConfigError> {
        let tiers = cluster.rank_speeds();
        if self.rank_speed.is_empty() {
            return Ok(tiers);
        }
        let nranks = cluster.total_gpus();
        if self.rank_speed.len() != nranks {
            return Err(ExecConfigError::RankSpeedLength {
                got: self.rank_speed.len(),
                nranks,
            });
        }
        for (rank, &value) in self.rank_speed.iter().enumerate() {
            if !(value.is_finite() && value > 0.0) {
                return Err(ExecConfigError::RankSpeedValue { rank, value });
            }
        }
        Ok(Some(match tiers {
            Some(t) => t.iter().zip(&self.rank_speed).map(|(t, s)| t * s).collect(),
            None => self.rank_speed.clone(),
        }))
    }
}

/// Return type of the group-lowering helpers: per-rank attention
/// completion markers and per-rank communication completions (for the
/// queue-segment ordering dependencies).
type GroupTasks = (Vec<(Rank, TaskId)>, Vec<(Rank, TaskId)>);

/// Per-rank ordering dependencies a group's lowering starts from: the
/// previous queue segment's compute and communication completions.
type GroupDeps<'a> = (&'a [Option<TaskId>], &'a [Option<TaskId>]);

/// Task handles produced by lowering one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerOutcome {
    /// Per-rank exit markers (chain these into the next layer's entry).
    pub exit: Vec<TaskId>,
    /// All attention compute tasks, tagged by rank.
    pub attn_compute: Vec<(Rank, TaskId)>,
    /// All linear compute tasks, tagged by rank.
    pub linear_compute: Vec<(Rank, TaskId)>,
    /// All remap transfer tasks.
    pub remap_flows: Vec<TaskId>,
    /// All attention communication tasks (ring sends or routed stages).
    pub comm_tasks: Vec<TaskId>,
}

/// What every group of one layer is lowered against: the simulator's
/// cluster (cloned once per layer), its routing proxy sets, the kernel
/// pricing, the config and the direction.
struct Layer<'a> {
    cluster: ClusterSpec,
    proxies: ProxyTable,
    cost: CostModel,
    cfg: &'a ExecConfig,
    dir: Direction,
    /// Reused list of a routed transfer's last-stage tasks.
    finals: Vec<TaskId>,
}

/// The present ones of two optional dependencies, in order, held inline.
struct Deps {
    ids: [TaskId; 2],
    len: usize,
}

impl Deps {
    fn of(opts: [Option<TaskId>; 2]) -> Deps {
        let mut deps = Deps {
            ids: [TaskId(0); 2],
            len: 0,
        };
        for id in opts.into_iter().flatten() {
            deps.ids[deps.len] = id;
            deps.len += 1;
        }
        deps
    }
}

impl std::ops::Deref for Deps {
    type Target = [TaskId];

    fn deref(&self) -> &[TaskId] {
        &self.ids[..self.len]
    }
}

/// Lowers one layer of `plan` in `dir`, chaining from per-rank `entry`
/// markers (use `&[]`-equivalent `vec![None; ranks]` for the first layer).
///
/// # Errors
///
/// Propagates simulator construction errors ([`SimError`]).
///
/// # Panics
///
/// Panics if `entry` does not have one slot per cluster rank, the plan
/// references ranks outside the cluster, or `cfg.rank_speed` is malformed
/// (validate plans and configs first — see
/// [`ExecConfig::effective_rank_speed`]).
pub fn lower_layer(
    sim: &mut Simulator,
    model: &ModelConfig,
    plan: &IterationPlan,
    cfg: &ExecConfig,
    dir: Direction,
    entry: &[Option<TaskId>],
) -> Result<LayerOutcome, SimError> {
    let cluster = sim.cluster().clone();
    let nranks = cluster.total_gpus();
    assert_eq!(entry.len(), nranks, "entry must have one slot per rank");
    let cost = CostModel::new(
        &cluster,
        cfg.effective_rank_speed(&cluster)
            .unwrap_or_else(|e| panic!("invalid ExecConfig: {e}")),
    );
    let fusion = Fusion::new(plan, model, &cluster);
    let mut layer = Layer {
        proxies: ProxyTable::new(&cluster),
        cluster,
        cost,
        cfg,
        dir,
        finals: Vec::new(),
    };

    let mut out = LayerOutcome::default();
    let mut mb_entry: Vec<Option<TaskId>> = entry.to_vec();
    // Reused dependency list for joins of a variable number of tasks.
    let mut join: Vec<TaskId> = Vec::new();

    for mb in 0..plan.micro_batches {
        // Per-rank attention compute ids (for the attention-done barrier)
        // and per-rank queue-segment ordering dependencies. Compute order
        // alone is not enough: NCCL-style comm kernels serialize on each
        // rank's communication stream, so a segment's sends also gate the
        // next segment's sends — this is precisely why §3.2 argues for
        // launching inter-node queues first.
        let mut rank_attn: Vec<Vec<TaskId>> = vec![Vec::new(); nranks];
        let mut seg_dep: Vec<Option<TaskId>> = mb_entry.clone();
        let mut comm_dep: Vec<Option<TaskId>> = mb_entry.clone();

        let segments: [&dyn Fn(Zone) -> bool; 3] = match cfg.queue_order {
            QueueOrder::InterFirst => {
                [&|z| z == Zone::InterNode, &|z| z == Zone::IntraNode, &|z| {
                    z == Zone::Local
                }]
            }
            QueueOrder::LocalFirst => [&|z| z == Zone::Local, &|z| z == Zone::IntraNode, &|z| {
                z == Zone::InterNode
            }],
        };

        for select in segments {
            let mut seg_computes: Vec<Vec<TaskId>> = vec![Vec::new(); nranks];
            let mut seg_sends: Vec<Vec<TaskId>> = vec![Vec::new(); nranks];

            // Multi-rank groups in this segment.
            for group in fusion
                .groups
                .iter()
                .filter(|g| g.micro_batch == mb && select(g.zone))
            {
                let deps = (&seg_dep[..], &comm_dep[..]);
                let (computes, sends) = match &group.table {
                    GroupTable::Ring { order, pair } => {
                        let route = plan.options.routing;
                        let ring = (*order, pair.as_slice(), route);
                        lower_ring_group(sim, &mut layer, group, ring, deps, &mut out)?
                    }
                    GroupTable::AllGather { flops } => {
                        lower_allgather_group(sim, &mut layer, group, flops, deps, &mut out)?
                    }
                    GroupTable::Ulysses { flops } => {
                        lower_ulysses_group(sim, model, &mut layer, group, *flops, deps, &mut out)?
                    }
                };
                for (rank, id) in computes {
                    seg_computes[rank].push(id);
                    rank_attn[rank].push(id);
                    out.attn_compute.push((rank, id));
                }
                for (rank, id) in sends {
                    seg_sends[rank].push(id);
                }
            }

            // Local placements in this segment.
            if select(Zone::Local) {
                for (&(_, rank), &flops) in fusion.locals.range((mb, 0)..=(mb, usize::MAX)) {
                    let flops = flops * dir.flops_scale();
                    let dur = SimDuration::from_secs_f64(layer.cost.attention_secs(rank, flops));
                    let id = sim.compute_after(
                        rank,
                        Stream::Compute,
                        dur,
                        seg_dep[rank].as_slice(),
                        Some(TraceInfo {
                            rank,
                            category: TraceCategory::AttentionCompute,
                            label: TraceLabel::new("attn-local").with_tail(dir.label()),
                        }),
                    )?;
                    seg_computes[rank].push(id);
                    rank_attn[rank].push(id);
                    out.attn_compute.push((rank, id));
                }
            }

            // Advance the per-rank ordering dependencies past this segment.
            for rank in 0..nranks {
                if !seg_computes[rank].is_empty() {
                    seg_dep[rank] = Some(sim.marker_after(&seg_computes[rank])?);
                }
                if !seg_sends[rank].is_empty() {
                    comm_dep[rank] = Some(sim.marker_after(&seg_sends[rank])?);
                }
            }
        }

        // Attention-done barrier per rank.
        let mut attn_done: Vec<TaskId> = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            let barrier = if rank_attn[rank].is_empty() {
                sim.marker_after(mb_entry[rank].as_slice())?
            } else {
                sim.marker_after(&rank_attn[rank])?
            };
            attn_done.push(barrier);
        }

        // Linear phase, optionally sandwiched by remap / inverse remap.
        // Rank speeds alone are physics (slow kernels); speed-proportional
        // *targets* additionally require the plan to declare awareness.
        let attn_tokens = plan.tokens_per_rank(nranks, mb);
        let aware = plan.options.speed_aware_remap;
        let remap_plan = if !plan.options.remapping {
            None
        } else {
            match layer.cost.speeds().filter(|_| aware) {
                Some(s) => needs_remap_weighted(&attn_tokens, s, cfg.remap_slack)
                    .then(|| plan_remap_weighted(&layer.cluster, &attn_tokens, s)),
                None => needs_remap(&attn_tokens, cfg.remap_slack)
                    .then(|| plan_remap(&layer.cluster, &attn_tokens)),
            }
        };

        // Forward remap flows.
        let mut inbound: Vec<Vec<TaskId>> = vec![Vec::new(); nranks];
        if let Some(rp) = &remap_plan {
            for m in &rp.moves {
                let bytes = hidden_bytes(model, m.tokens) * dir.comm_scale();
                let launch = sim.compute_after(
                    m.from,
                    Stream::Comm(1),
                    SimDuration::from_secs_f64(COMM_LAUNCH_OVERHEAD_S),
                    &[attn_done[m.from]],
                    None,
                )?;
                let flow = sim.transfer_after(
                    bytes,
                    &layer.cluster.direct_ports(m.from, m.to),
                    &[launch],
                    Some(TraceInfo {
                        rank: m.from,
                        category: TraceCategory::Remap,
                        label: TraceLabel::new("remap").with_edge(m.from, m.to),
                    }),
                )?;
                inbound[m.to].push(flow);
                out.remap_flows.push(flow);
            }
        }
        let linear_tokens: &[u64] = match &remap_plan {
            Some(rp) => &rp.targets,
            None => &attn_tokens,
        };

        // Linear compute per rank.
        let mut linear_ids: Vec<Option<TaskId>> = vec![None; nranks];
        for rank in 0..nranks {
            let tokens = linear_tokens[rank];
            if tokens == 0 && inbound[rank].is_empty() && rank_attn[rank].is_empty() {
                continue;
            }
            let flops = tokens as f64
                * linear_flops_per_token(model)
                * dir.flops_scale()
                * cfg.moe_linear_factor;
            let secs = layer.cost.gemm_secs(rank, flops)
                + cfg.tp_overhead_per_token * tokens as f64 * dir.flops_scale();
            join.clear();
            join.push(attn_done[rank]);
            join.extend_from_slice(&inbound[rank]);
            let id = sim.compute_after(
                rank,
                Stream::Compute,
                SimDuration::from_secs_f64(secs),
                &join,
                Some(TraceInfo {
                    rank,
                    category: TraceCategory::LinearCompute,
                    label: TraceLabel::new("linear").with_tail(dir.label()),
                }),
            )?;
            linear_ids[rank] = Some(id);
            out.linear_compute.push((rank, id));
        }

        // Inverse remap: moves reversed, gated on the holder's linear task.
        let mut inverse_in: Vec<Vec<TaskId>> = vec![Vec::new(); nranks];
        if let Some(rp) = &remap_plan {
            for m in &rp.moves {
                let bytes = hidden_bytes(model, m.tokens) * dir.comm_scale();
                let launch = sim.compute_after(
                    m.to,
                    Stream::Comm(1),
                    SimDuration::from_secs_f64(COMM_LAUNCH_OVERHEAD_S),
                    linear_ids[m.to].as_slice(),
                    None,
                )?;
                let flow = sim.transfer_after(
                    bytes,
                    &layer.cluster.direct_ports(m.to, m.from),
                    &[launch],
                    Some(TraceInfo {
                        rank: m.to,
                        category: TraceCategory::Remap,
                        label: TraceLabel::new("unmap").with_edge(m.to, m.from),
                    }),
                )?;
                inverse_in[m.from].push(flow);
                out.remap_flows.push(flow);
            }
        }

        // Exit marker per rank.
        let mut exits = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            join.clear();
            join.extend(linear_ids[rank]);
            join.extend_from_slice(&inverse_in[rank]);
            if join.is_empty() {
                join.push(attn_done[rank]);
            }
            exits.push(sim.marker_after(&join)?);
        }
        mb_entry = exits.iter().copied().map(Some).collect();
        out.exit = exits;
    }

    // Empty plans still need exits.
    if out.exit.is_empty() {
        let mut exits = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            exits.push(sim.marker_after(mb_entry[rank].as_slice())?);
        }
        out.exit = exits;
    }

    // Data-parallel gradient synchronization: one aggregated ring
    // all-reduce per layer during the backward pass. `Overlapped` starts at
    // layer entry (modelling bucketed overlap with the adjacent layer's
    // backward compute — the layer period becomes max(work, all-reduce));
    // `Blocking` serializes after the layer's work.
    if dir == Direction::Backward && cfg.grad_sync != GradSync::Off && nranks > 1 {
        let total = zeppelin_model::memory::grad_bytes_per_layer(model);
        // A bandwidth-optimal ring all-reduce moves 2·B·(R-1)/R bytes per
        // rank; model it as one aggregated neighbour flow per rank.
        let per_rank = 2.0 * total * (nranks as f64 - 1.0) / nranks as f64;
        let mut arrivals: Vec<Option<TaskId>> = vec![None; nranks];
        for src in 0..nranks {
            let dst = (src + 1) % nranks;
            let after = match cfg.grad_sync {
                GradSync::Overlapped => entry[src],
                GradSync::Blocking => Some(out.exit[src]),
                GradSync::Off => unreachable!("guarded above"),
            };
            let launch = sim.compute_after(
                src,
                Stream::Comm(2),
                SimDuration::from_secs_f64(COMM_LAUNCH_OVERHEAD_S),
                after.as_slice(),
                None,
            )?;
            let completion = if !layer.cluster.same_node(src, dst) {
                // NCCL all-reduce stripes cross-node hops over all NICs.
                lower_routed_transfer(sim, &mut layer, src, dst, per_rank, launch, &mut out)?
            } else {
                let flow = sim.transfer_after(
                    per_rank,
                    &layer.cluster.direct_ports(src, dst),
                    &[launch],
                    Some(TraceInfo {
                        rank: src,
                        category: TraceCategory::Other,
                        label: TraceLabel::new("grad-ar").with_edge(src, dst),
                    }),
                )?;
                out.comm_tasks.push(flow);
                flow
            };
            arrivals[dst] = Some(completion);
        }
        let mut exits = Vec::with_capacity(nranks);
        for rank in 0..nranks {
            exits.push(sim.marker_after(&Deps::of([Some(out.exit[rank]), arrivals[rank]]))?);
        }
        out.exit = exits;
    }
    Ok(out)
}

/// Lowers one fused ring-attention group, plain or node-major double ring
/// (LoongTrain-style: KV rotates within the node for `m` steps, then the
/// whole window hops to the next node — one cross-node hop per rank per
/// node visited, all NICs at once, instead of per-round boundary
/// crossings), routing cross-node hops when `route` is set. Returns its
/// compute tasks and its per-sender transfer completions.
fn lower_ring_group(
    sim: &mut Simulator,
    layer: &mut Layer,
    group: &Group,
    (order, pair, route): (RingOrder, &[f64], bool),
    (seg_dep, comm_dep): GroupDeps,
    out: &mut LayerOutcome,
) -> Result<GroupTasks, SimError> {
    let dir = layer.dir;
    let ranks = &group.ranks;
    let g = ranks.len();
    let (round_tag, kv_label, kv_tag) = match order {
        RingOrder::Plain { .. } => ("r", "kv", "r"),
        RingOrder::NodeMajor { .. } => ("dr", "dr-kv", "t"),
    };
    let mut computes: Vec<(Rank, TaskId)> = Vec::with_capacity(g * g);
    let mut sends: Vec<(Rank, TaskId)> = Vec::with_capacity(2 * g * g);
    // Per-position previous-round compute and inbound transfer, and the
    // buffers the current round fills.
    let mut prev_compute: Vec<Option<TaskId>> = vec![None; g];
    let mut arrive: Vec<Option<TaskId>> = vec![None; g];
    let mut this_compute: Vec<Option<TaskId>> = vec![None; g];
    let mut new_arrive: Vec<Option<TaskId>> = vec![None; g];

    for r in 0..g {
        // Compute round r on every position.
        for (p, &rank) in ranks.iter().enumerate() {
            let flops = pair[p * g + order.source(p, r)] * dir.flops_scale();
            let dur = SimDuration::from_secs_f64(layer.cost.attention_secs(rank, flops));
            let deps = if r == 0 {
                Deps::of([seg_dep[rank], None])
            } else {
                Deps::of([arrive[p], prev_compute[p]])
            };
            let id = sim.compute_after(
                rank,
                Stream::Compute,
                dur,
                &deps,
                Some(TraceInfo {
                    rank,
                    category: TraceCategory::AttentionCompute,
                    label: TraceLabel::new("attn")
                        .with_round(round_tag, r)
                        .with_tail(dir.label()),
                }),
            )?;
            this_compute[p] = Some(id);
            computes.push((rank, id));
        }

        // Send round-r KV onward (becomes round r+1 input), overlapping the
        // round-r compute; double-buffering gates on the receiver's r-1 use.
        if r + 1 < g {
            for (p, &src) in ranks.iter().enumerate() {
                let next = order.next(p, r);
                let dst = ranks[next];
                let bytes = group.kv[order.source(p, r)] * dir.comm_scale();
                // Send-recv semantics: both endpoints must post their
                // kernel before data moves. Round-0 launches queue behind
                // the previous queue segment's communication on each side.
                let (send_deps, recv_deps) = if r == 0 {
                    (
                        Deps::of([comm_dep[src], None]),
                        Deps::of([comm_dep[dst], None]),
                    )
                } else {
                    // KV to forward has arrived; the receiver's stream and
                    // receive buffer are free.
                    (
                        Deps::of([arrive[p], None]),
                        Deps::of([arrive[next], prev_compute[next]]),
                    )
                };
                let launch = lower_send_recv_launch(sim, src, dst, &send_deps, &recv_deps)?;
                let label = TraceLabel::new(kv_label)
                    .with_round(kv_tag, r)
                    .with_edge(src, dst);
                let completion =
                    lower_hop(sim, layer, (src, dst, bytes, launch), route, label, out)?;
                new_arrive[next] = Some(completion);
                sends.push((src, completion));
                sends.push((dst, completion));
            }
            std::mem::swap(&mut arrive, &mut new_arrive);
        }
        std::mem::swap(&mut prev_compute, &mut this_compute);
    }
    Ok((computes, sends))
}

/// Moves `bytes` of attention traffic from `src` to `dst` once `launch`
/// completes: over the routed multi-NIC stages when `route` is set and
/// the hop crosses nodes, else as one direct flow traced as `label`.
/// Returns the completion.
fn lower_hop(
    sim: &mut Simulator,
    layer: &mut Layer,
    (src, dst, bytes, launch): (Rank, Rank, f64, TaskId),
    route: bool,
    label: TraceLabel,
    out: &mut LayerOutcome,
) -> Result<TaskId, SimError> {
    if route && !layer.cluster.same_node(src, dst) {
        return lower_routed_transfer(sim, layer, src, dst, bytes, launch, out);
    }
    let info = TraceInfo {
        rank: src,
        category: TraceCategory::RingComm,
        label,
    };
    let path = layer.cluster.direct_ports(src, dst);
    let flow = sim.transfer_after(bytes, &path, &[launch], Some(info))?;
    out.comm_tasks.push(flow);
    Ok(flow)
}

/// Posts a send kernel on `src` and a receive kernel on `dst` (each one
/// launch overhead on its communication stream); returns the marker both
/// complete, after which data moves.
fn lower_send_recv_launch(
    sim: &mut Simulator,
    src: Rank,
    dst: Rank,
    send_deps: &[TaskId],
    recv_deps: &[TaskId],
) -> Result<TaskId, SimError> {
    let launch_time = SimDuration::from_secs_f64(COMM_LAUNCH_OVERHEAD_S);
    let send_launch = sim.compute_after(src, Stream::Comm(0), launch_time, send_deps, None)?;
    let recv_launch = sim.compute_after(dst, Stream::Comm(0), launch_time, recv_deps, None)?;
    sim.marker_after(&[send_launch, recv_launch])
}

/// Lowers a routed inter-node transfer (three pipelined stages over the
/// layer's proxy sets); returns a marker that completes when all data has
/// been combined at `dst`.
fn lower_routed_transfer(
    sim: &mut Simulator,
    layer: &mut Layer,
    src: Rank,
    dst: Rank,
    bytes: f64,
    launch: TaskId,
    out: &mut LayerOutcome,
) -> Result<TaskId, SimError> {
    let Layer {
        cluster,
        proxies,
        cfg,
        finals,
        ..
    } = layer;
    let chunks = cfg.routing_pipeline.max(1);
    let share = 1.0 / chunks as f64;
    finals.clear();
    for (dispatch, inter, combine) in proxies.route(src, dst, bytes) {
        let mut prev_stage1: Option<TaskId> = None;
        let mut prev_stage2: Option<TaskId> = None;
        let mut prev_stage3: Option<TaskId> = None;
        for _ in 0..chunks {
            // Stage 1: dispatch (skipped when the source is its own proxy).
            let stage1 = match dispatch {
                Some(d) => {
                    let t = sim.transfer_after(
                        d.bytes * share,
                        &cluster.direct_ports(d.src, d.dst),
                        &Deps::of([Some(launch), prev_stage1]),
                        Some(TraceInfo {
                            rank: d.src,
                            category: TraceCategory::Dispatch,
                            label: TraceLabel::new("dispatch").with_edge(d.src, d.dst),
                        }),
                    )?;
                    out.comm_tasks.push(t);
                    prev_stage1 = Some(t);
                    t
                }
                None => launch,
            };
            // Stage 2: the multi-NIC inter-node hop.
            let stage2 = sim.transfer_after(
                inter.bytes * share,
                &cluster.direct_ports(inter.src, inter.dst),
                &Deps::of([Some(stage1), prev_stage2]),
                Some(TraceInfo {
                    rank: inter.src,
                    category: TraceCategory::InterNode,
                    label: TraceLabel::new("inter").with_edge(inter.src, inter.dst),
                }),
            )?;
            out.comm_tasks.push(stage2);
            prev_stage2 = Some(stage2);
            // Stage 3: combine at the destination.
            let last = match combine {
                Some(c) => {
                    let t = sim.transfer_after(
                        c.bytes * share,
                        &cluster.direct_ports(c.src, c.dst),
                        &Deps::of([Some(stage2), prev_stage3]),
                        Some(TraceInfo {
                            rank: c.src,
                            category: TraceCategory::Combine,
                            label: TraceLabel::new("combine").with_edge(c.src, c.dst),
                        }),
                    )?;
                    out.comm_tasks.push(t);
                    prev_stage3 = Some(t);
                    t
                }
                None => stage2,
            };
            finals.push(last);
        }
    }
    sim.marker_after(finals)
}

/// Lowers one fused all-gather attention group (LLaMA CP); returns its
/// compute tasks and per-sender transfer completions.
fn lower_allgather_group(
    sim: &mut Simulator,
    layer: &mut Layer,
    group: &Group,
    flops: &[f64],
    (seg_dep, comm_dep): GroupDeps,
    out: &mut LayerOutcome,
) -> Result<GroupTasks, SimError> {
    let dir = layer.dir;
    let ranks = &group.ranks;
    let g = ranks.len();
    let order = RingOrder::Plain { g };
    // Ring all-gather: g-1 rounds; each position forwards the chunk that
    // arrived last round. Track per-position inbound transfers.
    let mut arrive: Vec<Option<TaskId>> = vec![None; g];
    let mut new_arrive: Vec<Option<TaskId>> = vec![None; g];
    let mut inbound: Vec<Vec<TaskId>> = vec![Vec::new(); g];
    let mut sends: Vec<(Rank, TaskId)> = Vec::with_capacity(2 * g * g);
    for r in 0..g.saturating_sub(1) {
        for (p, &src) in ranks.iter().enumerate() {
            let next = order.next(p, r);
            let dst = ranks[next];
            let bytes = group.kv[order.source(p, r)] * dir.comm_scale();
            let (send_dep, recv_dep) = if r == 0 {
                (comm_dep[src], comm_dep[dst])
            } else {
                (arrive[p], arrive[next])
            };
            let launch =
                lower_send_recv_launch(sim, src, dst, send_dep.as_slice(), recv_dep.as_slice())?;
            // NCCL all-gathers are multi-channel: cross-node hops stripe
            // over every NIC of the node (this is library behaviour, not
            // Zeppelin's routing layer — hence unconditional here).
            let label = TraceLabel::new("allgather")
                .with_round("r", r)
                .with_edge(src, dst);
            let flow = lower_hop(sim, layer, (src, dst, bytes, launch), true, label, out)?;
            new_arrive[next] = Some(flow);
            inbound[next].push(flow);
            sends.push((src, flow));
            sends.push((dst, flow));
        }
        std::mem::swap(&mut arrive, &mut new_arrive);
    }

    // One local attention kernel per rank over the fully gathered KV.
    let mut computes = Vec::with_capacity(g);
    for (p, &rank) in ranks.iter().enumerate() {
        let secs = layer
            .cost
            .attention_secs(rank, flops[p] * dir.flops_scale());
        let deps = &mut inbound[p];
        deps.extend(seg_dep[rank]);
        let id = sim.compute_after(
            rank,
            Stream::Compute,
            SimDuration::from_secs_f64(secs),
            deps,
            Some(TraceInfo {
                rank,
                category: TraceCategory::AttentionCompute,
                label: TraceLabel::new("attn-ag").with_tail(dir.label()),
            }),
        )?;
        computes.push((rank, id));
    }
    Ok((computes, sends))
}

/// Lowers one fused DeepSpeed-Ulysses group: all-to-all to head-parallel
/// layout, one balanced full-sequence attention kernel per rank, all-to-all
/// back. Both all-to-alls sit on the critical path, but their traffic is
/// spread across every rank pair (and thus every NIC).
fn lower_ulysses_group(
    sim: &mut Simulator,
    model: &ModelConfig,
    layer: &mut Layer,
    group: &Group,
    flops: f64,
    (seg_dep, comm_dep): GroupDeps,
    out: &mut LayerOutcome,
) -> Result<GroupTasks, SimError> {
    let dir = layer.dir;
    let ranks = &group.ranks;
    let g = ranks.len();
    let h_bytes = model.hidden as f64 * model.dtype_bytes as f64;
    let shard_tokens = &group.tokens;
    let mut sends: Vec<(Rank, TaskId)> = Vec::new();

    // All-to-all #1: QKV from sequence-sharded to head-sharded layout.
    let a2a = |sim: &mut Simulator,
               layer: &mut Layer,
               out: &mut LayerOutcome,
               sends: &mut Vec<(Rank, TaskId)>,
               per_pair_bytes: &dyn Fn(usize) -> f64,
               gate: &dyn Fn(usize) -> Option<TaskId>,
               label: &'static str|
     -> Result<Vec<Vec<TaskId>>, SimError> {
        let mut inbound: Vec<Vec<TaskId>> = vec![Vec::new(); g];
        for p in 0..g {
            for q in 0..g {
                if p == q {
                    continue;
                }
                let (src, dst) = (ranks[p], ranks[q]);
                let send_deps = Deps::of([comm_dep[src], gate(p)]);
                let recv_deps = comm_dep[dst];
                let launch =
                    lower_send_recv_launch(sim, src, dst, &send_deps, recv_deps.as_slice())?;
                let hop = (src, dst, per_pair_bytes(p), launch);
                let label = TraceLabel::new(label).with_edge(src, dst);
                let flow = lower_hop(sim, layer, hop, false, label, out)?;
                inbound[q].push(flow);
                sends.push((src, flow));
                sends.push((dst, flow));
            }
        }
        Ok(inbound)
    };

    let qkv_bytes = |p: usize| 3.0 * shard_tokens[p] as f64 * h_bytes / g as f64 * dir.comm_scale();
    let mut inbound1 = a2a(
        sim,
        layer,
        out,
        &mut sends,
        &qkv_bytes,
        &|_| None,
        "a2a-qkv",
    )?;

    // Head-parallel attention: each rank computes the full causal pattern
    // for heads/G heads — perfectly balanced by construction.
    let flops = flops * dir.flops_scale();
    let mut compute_ids: Vec<TaskId> = Vec::with_capacity(g);
    for (p, &rank) in ranks.iter().enumerate() {
        let dur = SimDuration::from_secs_f64(layer.cost.attention_secs(rank, flops));
        let deps = &mut inbound1[p];
        deps.extend(seg_dep[rank]);
        let id = sim.compute_after(
            rank,
            Stream::Compute,
            dur,
            deps,
            Some(TraceInfo {
                rank,
                category: TraceCategory::AttentionCompute,
                label: TraceLabel::new("attn-ulysses").with_tail(dir.label()),
            }),
        )?;
        compute_ids.push(id);
    }

    // All-to-all #2: outputs back to the sequence-sharded layout. The pair
    // (q -> p) carries p's shard of q's heads; gate on q's compute.
    let out_bytes = |q: usize| {
        // Symmetric volume: each rank redistributes its full-sequence
        // output slice; per-pair share mirrors a2a#1's with one tensor.
        shard_tokens[q] as f64 * h_bytes / g as f64 * dir.comm_scale()
    };
    let gate = |p: usize| Some(compute_ids[p]);
    let inbound2 = a2a(sim, layer, out, &mut sends, &out_bytes, &gate, "a2a-out")?;

    // A rank's attention output is complete once its compute finished and
    // its output shards arrived.
    let mut computes = Vec::with_capacity(g);
    let mut deps: Vec<TaskId> = Vec::with_capacity(g);
    for (p, &rank) in ranks.iter().enumerate() {
        deps.clear();
        deps.push(compute_ids[p]);
        deps.extend_from_slice(&inbound2[p]);
        computes.push((rank, sim.marker_after(&deps)?));
    }
    Ok((computes, sends))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_core::plan::{AttnMode, IterationPlan, PlanOptions, SeqPlacement};
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::{cluster_a, tiny_cluster};

    fn ring_plan(ranks: Vec<usize>, len: u64, zone: Zone, routing: bool) -> IterationPlan {
        IterationPlan {
            scheduler: "test".into(),
            placements: vec![SeqPlacement {
                seq_index: 0,
                len,
                zone,
                ranks,
                mode: AttnMode::Ring,
                micro_batch: 0,
                weights: Vec::new(),
            }],
            options: PlanOptions {
                routing,
                remapping: false,
                speed_aware_remap: false,
            },
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        }
    }

    fn run(plan: &IterationPlan, cluster: &zeppelin_sim::topology::ClusterSpec) -> (f64, usize) {
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let mut sim = Simulator::new(cluster);
        let entry = vec![None; cluster.total_gpus()];
        let out = lower_layer(&mut sim, &model, plan, &cfg, Direction::Forward, &entry).unwrap();
        assert_eq!(out.exit.len(), cluster.total_gpus());
        let report = sim.run().unwrap();
        (report.makespan.as_secs_f64(), sim.task_count())
    }

    #[test]
    fn local_only_plan_runs() {
        let c = tiny_cluster(1, 2);
        let plan = ring_plan(vec![0], 4096, Zone::Local, false);
        let (t, _) = run(&plan, &c);
        assert!(t > 0.0 && t < 1.0, "t {t}");
    }

    #[test]
    fn ring_plan_produces_rounds() {
        let c = tiny_cluster(1, 4);
        let plan = ring_plan(vec![0, 1, 2, 3], 8192, Zone::IntraNode, false);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let mut sim = Simulator::new(&c);
        let entry = vec![None; 4];
        let out = lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
        // 4 rounds × 4 positions computes; 3 rounds × 4 transfers.
        assert_eq!(out.attn_compute.len(), 16);
        assert_eq!(out.comm_tasks.len(), 12);
        sim.run().unwrap();
    }

    #[test]
    fn routing_reduces_internode_ring_time() {
        let c = cluster_a(2);
        let ranks: Vec<usize> = (0..16).collect();
        let direct = ring_plan(ranks.clone(), 65536, Zone::InterNode, false);
        let routed = ring_plan(ranks, 65536, Zone::InterNode, true);
        let (t_direct, _) = run(&direct, &c);
        let (t_routed, _) = run(&routed, &c);
        assert!(
            t_routed < t_direct,
            "routed {t_routed} should beat direct {t_direct}"
        );
    }

    #[test]
    fn backward_is_heavier_than_forward() {
        let c = tiny_cluster(1, 4);
        let plan = ring_plan(vec![0, 1, 2, 3], 8192, Zone::IntraNode, false);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let time = |dir| {
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 4];
            lower_layer(&mut sim, &model, &plan, &cfg, dir, &entry).unwrap();
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let f = time(Direction::Forward);
        let b = time(Direction::Backward);
        assert!(b > 1.5 * f, "bwd {b} vs fwd {f}");
    }

    #[test]
    fn allgather_mode_gathers_before_compute() {
        let c = tiny_cluster(1, 4);
        let mut plan = ring_plan(vec![0, 1, 2, 3], 8192, Zone::IntraNode, false);
        plan.placements[0].mode = AttnMode::AllGather;
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let mut sim = Simulator::new(&c);
        let entry = vec![None; 4];
        let out = lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
        // One compute per rank; 3 rounds × 4 transfers.
        assert_eq!(out.attn_compute.len(), 4);
        assert_eq!(out.comm_tasks.len(), 12);
        let report = sim.run().unwrap();
        // Every compute starts after every one of its inbound transfers.
        for &(rank, id) in &out.attn_compute {
            let start = report.span(id).0;
            let _ = rank;
            assert!(start.as_nanos() > 0);
        }
    }

    #[test]
    fn remapping_balances_linear_phase() {
        let c = tiny_cluster(1, 2);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        // All tokens on rank 0; rank 1 idle.
        let base = IterationPlan {
            scheduler: "test".into(),
            placements: vec![SeqPlacement {
                seq_index: 0,
                len: 8000,
                zone: Zone::Local,
                ranks: vec![0],
                mode: AttnMode::Ring,
                micro_batch: 0,
                weights: Vec::new(),
            }],
            options: PlanOptions {
                routing: false,
                remapping: false,
                speed_aware_remap: false,
            },
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        let mut remapped = base.clone();
        remapped.options.remapping = true;

        let lower_run = |plan: &IterationPlan| {
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 2];
            let out =
                lower_layer(&mut sim, &model, plan, &cfg, Direction::Forward, &entry).unwrap();
            let report = sim.run().unwrap();
            (out, report)
        };
        let (out_b, _) = lower_run(&base);
        let (out_r, _) = lower_run(&remapped);
        assert!(out_b.remap_flows.is_empty());
        assert!(!out_r.remap_flows.is_empty());
        // Remap splits linear work across both ranks.
        assert_eq!(out_b.linear_compute.len(), 1);
        assert_eq!(out_r.linear_compute.len(), 2);
    }

    #[test]
    fn micro_batches_serialize_per_rank() {
        let c = tiny_cluster(1, 1);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let one_mb = IterationPlan {
            scheduler: "t".into(),
            placements: vec![SeqPlacement {
                seq_index: 0,
                len: 4096,
                zone: Zone::Local,
                ranks: vec![0],
                mode: AttnMode::Ring,
                micro_batch: 0,
                weights: Vec::new(),
            }],
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        let mut two_mb = one_mb.clone();
        two_mb.placements.push(SeqPlacement {
            seq_index: 1,
            len: 4096,
            zone: Zone::Local,
            ranks: vec![0],
            mode: AttnMode::Ring,
            micro_batch: 1,
            weights: Vec::new(),
        });
        two_mb.micro_batches = 2;
        let t = |plan: &IterationPlan| {
            let mut sim = Simulator::new(&c);
            lower_layer(&mut sim, &model, plan, &cfg, Direction::Forward, &[None]).unwrap();
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let t1 = t(&one_mb);
        let t2 = t(&two_mb);
        assert!(t2 > 1.8 * t1, "two micro-batches {t2} vs one {t1}");
    }

    #[test]
    fn empty_plan_yields_exits() {
        let c = tiny_cluster(1, 2);
        let plan = IterationPlan {
            scheduler: "t".into(),
            placements: vec![],
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        };
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let mut sim = Simulator::new(&c);
        let out = lower_layer(
            &mut sim,
            &model,
            &plan,
            &cfg,
            Direction::Forward,
            &[None, None],
        )
        .unwrap();
        assert_eq!(out.exit.len(), 2);
        let r = sim.run().unwrap();
        assert_eq!(r.makespan.as_nanos(), 0);
    }

    #[test]
    fn gradient_sync_costs_and_overlap() {
        let c = cluster_a(2);
        let model = llama_3b();
        let plan = ring_plan((0..16).collect(), 32_768, Zone::InterNode, false);
        let t = |sync| {
            let cfg = ExecConfig {
                grad_sync: sync,
                ..ExecConfig::default()
            };
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 16];
            lower_layer(&mut sim, &model, &plan, &cfg, Direction::Backward, &entry).unwrap();
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let off = t(GradSync::Off);
        let overlapped = t(GradSync::Overlapped);
        let blocking = t(GradSync::Blocking);
        assert!(blocking > off, "blocking {blocking} vs off {off}");
        assert!(
            overlapped <= blocking,
            "overlapped {overlapped} should not exceed blocking {blocking}"
        );
        assert!(overlapped >= off, "sync can only add time");
    }

    #[test]
    fn gradient_sync_is_skipped_in_forward() {
        let c = tiny_cluster(1, 2);
        let model = llama_3b();
        let plan = ring_plan(vec![0, 1], 4_096, Zone::IntraNode, false);
        let cfg = ExecConfig {
            grad_sync: GradSync::Blocking,
            ..ExecConfig::default()
        };
        let count = |dir| {
            let mut sim = Simulator::new(&c);
            lower_layer(&mut sim, &model, &plan, &cfg, dir, &[None, None]).unwrap();
            sim.task_count()
        };
        // Backward carries extra all-reduce tasks.
        assert!(count(Direction::Backward) > count(Direction::Forward));
    }

    #[test]
    fn ulysses_mode_balances_and_completes() {
        let c = cluster_a(2);
        let mut plan = ring_plan((0..16).collect(), 65_536, Zone::InterNode, false);
        plan.placements[0].mode = AttnMode::Ulysses;
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let mut sim = Simulator::new(&c);
        let entry = vec![None; 16];
        let out = lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
        // One completion marker per rank.
        assert_eq!(out.attn_compute.len(), 16);
        // Two all-to-alls of 16×15 pair flows each.
        assert_eq!(out.comm_tasks.len(), 2 * 16 * 15);
        let report = sim.run().unwrap();
        assert!(report.makespan.as_secs_f64() > 0.0);
        // Attention compute busy time is near-identical across ranks.
        let busy = report.trace.busy_by_rank_category();
        let attn: Vec<u64> = (0..16)
            .map(|r| {
                busy.get(&(r, TraceCategory::AttentionCompute))
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            })
            .collect();
        let (min, max) = (attn.iter().min().unwrap(), attn.iter().max().unwrap());
        assert!(max - min <= max / 100, "{attn:?}");
    }

    #[test]
    fn double_ring_crosses_nodes_once_per_node_pass() {
        let c = cluster_a(2);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let count_cross = |mode: AttnMode| {
            let mut plan = ring_plan((0..16).collect(), 65_536, Zone::InterNode, false);
            plan.placements[0].mode = mode;
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 16];
            lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
            let report = sim.run().unwrap();
            let cross = report
                .trace
                .events()
                .iter()
                .filter(|e| {
                    e.category == TraceCategory::RingComm && {
                        let (src, dst) = e.label.edge().expect("ring sends name their edge");
                        assert_eq!(src, e.rank);
                        !c.same_node(src, dst)
                    }
                })
                .count();
            (cross, report.makespan.as_secs_f64())
        };
        let (ring_cross, ring_time) = count_cross(AttnMode::Ring);
        let (dr_cross, dr_time) = count_cross(AttnMode::DoubleRing);
        // Plain ring: 2 boundary hops × 15 rounds = 30 cross-node sends.
        // Double ring: 16 ranks × 1 outer hop = 16, but spread over all
        // NICs simultaneously.
        assert_eq!(ring_cross, 30);
        assert_eq!(dr_cross, 16);
        assert!(
            dr_time < ring_time,
            "double ring {dr_time} should beat plain ring {ring_time}"
        );
    }

    #[test]
    fn double_ring_falls_back_to_ring_off_node_boundaries() {
        let c = cluster_a(2);
        let model = llama_3b();
        let cfg = ExecConfig::default();
        // Group of 3 ranks straddling a node boundary unevenly.
        let mut plan = ring_plan(vec![6, 7, 8], 12_000, Zone::InterNode, false);
        plan.placements[0].mode = AttnMode::DoubleRing;
        let mut sim = Simulator::new(&c);
        let entry = vec![None; 16];
        let out = lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
        // Plain-ring structure: 3 rounds × 3 computes.
        assert_eq!(out.attn_compute.len(), 9);
        sim.run().unwrap();
    }

    #[test]
    fn weighted_ring_groups_track_rank_speed() {
        // A straggler at half speed: with speed-proportional chunk weights
        // matching the physical speeds, every position finishes its rounds
        // together and the ring beats the uniform-chunk layout.
        let c = tiny_cluster(1, 4);
        let model = llama_3b();
        let cfg = ExecConfig {
            rank_speed: vec![1.0, 0.5, 1.0, 1.0],
            ..ExecConfig::default()
        };
        let t = |weights: Vec<u32>| {
            let mut plan = ring_plan(vec![0, 1, 2, 3], 32_768, Zone::IntraNode, false);
            plan.placements[0].weights = weights;
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 4];
            lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let uniform = t(Vec::new());
        let weighted = t(vec![1024, 512, 1024, 1024]);
        assert!(
            weighted < uniform,
            "speed-matched weights {weighted} should beat uniform {uniform}"
        );
    }

    #[test]
    fn routed_stages_match_route_internode_per_hop() {
        use zeppelin_baselines::LlamaCp;
        use zeppelin_core::routing::route_internode;
        use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
        use zeppelin_data::batch::Batch;
        use zeppelin_sim::topology::Port;

        // Cluster A shares each NIC between two GPUs; folded at tp=2 it has
        // four workers per node and one NIC each, so its proxy sets differ.
        let model = llama_3b();
        let cfg = ExecConfig::default();
        let dir = Direction::Backward;
        let chunks = cfg.routing_pipeline;
        for cluster in [cluster_a(2), crate::tp::fold_tp(&cluster_a(2), 2).unwrap()] {
            let ctx = SchedulerCtx::new(&cluster, &model);
            let batch = Batch::new(vec![20_000, 9_000, 3_000, 700]);
            let plan = LlamaCp::new().plan(&batch, &ctx).unwrap();
            let mut sim = Simulator::new(&cluster);
            let entry = vec![None; cluster.total_gpus()];
            let out = lower_layer(&mut sim, &model, &plan, &cfg, dir, &entry).unwrap();

            // Replay the all-gather's hops in launch order, routing each
            // cross-node hop afresh.
            let fusion = Fusion::new(&plan, &model, &cluster);
            let [group] = &fusion.groups[..] else {
                panic!("LLaMA CP runs one all-gather group")
            };
            let (ranks, g) = (&group.ranks, group.ranks.len());
            let mut want: Vec<(f64, Vec<Port>)> = Vec::new();
            let mut routed = 0;
            for r in 0..g - 1 {
                for p in 0..g {
                    let (src, dst) = (ranks[p], ranks[(p + 1) % g]);
                    let bytes = group.kv[(p + g - r) % g] * dir.comm_scale();
                    if cluster.same_node(src, dst) {
                        want.push((bytes, cluster.direct_path(src, dst)));
                        continue;
                    }
                    routed += 1;
                    for (d, i, c) in route_internode(&cluster, src, dst, bytes).shares {
                        for _ in 0..chunks {
                            for f in [d, Some(i), c].into_iter().flatten() {
                                let share = f.bytes * (1.0 / chunks as f64);
                                want.push((share, cluster.direct_path(f.src, f.dst)));
                            }
                        }
                    }
                }
            }
            assert!(routed > 0, "{}", cluster.name);
            let got: Vec<(f64, Vec<Port>)> = out
                .comm_tasks
                .iter()
                .map(|&t| sim.transfer_of(t).expect("a transfer"))
                .collect();
            assert_eq!(got.len(), want.len(), "{}", cluster.name);
            for (k, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.0.to_bits(),
                    want.0.to_bits(),
                    "{} stage {k}",
                    cluster.name
                );
                assert_eq!(got.1, want.1, "{} stage {k}", cluster.name);
            }
        }
    }

    #[test]
    fn queue_orders_both_execute_and_stay_close() {
        // §3.2 argues for inter-first ordering because Zeppelin's real
        // engine launches queues coarsely on shared streams. This executor
        // tracks dependencies at task granularity (per-round computes,
        // send/recv launches, double buffering), which already prevents
        // most cross-queue blocking — so the two orders must both execute
        // correctly and land within a few percent of each other. The
        // ordering ablation bench reports the measured deltas per workload.
        let c = cluster_a(2);
        let mut plan = ring_plan((0..16).collect(), 49152, Zone::InterNode, false);
        plan.placements.push(SeqPlacement {
            seq_index: 1,
            len: 12288,
            zone: Zone::IntraNode,
            ranks: vec![8, 9, 10, 11],
            mode: AttnMode::Ring,
            micro_batch: 0,
            weights: Vec::new(),
        });
        for r in [4usize, 5, 12, 13] {
            plan.placements.push(SeqPlacement {
                seq_index: 2 + r,
                len: 2048,
                zone: Zone::Local,
                ranks: vec![r],
                mode: AttnMode::Ring,
                micro_batch: 0,
                weights: Vec::new(),
            });
        }
        let model = llama_3b();
        let t = |order| {
            let cfg = ExecConfig {
                queue_order: order,
                ..ExecConfig::default()
            };
            let mut sim = Simulator::new(&c);
            let entry = vec![None; 16];
            lower_layer(&mut sim, &model, &plan, &cfg, Direction::Forward, &entry).unwrap();
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let inter_first = t(QueueOrder::InterFirst);
        let local_first = t(QueueOrder::LocalFirst);
        assert!(inter_first > 0.0 && local_first > 0.0);
        let ratio = inter_first / local_first;
        assert!(
            (0.9..1.1).contains(&ratio),
            "orders diverged: inter-first {inter_first} vs local-first {local_first}"
        );
    }
}

#[cfg(test)]
mod straggler_tests {
    use crate::step::{simulate_step, StepConfig};
    use zeppelin_core::scheduler::SchedulerCtx;
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_data::batch::Batch;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::cluster_a;

    #[test]
    fn short_rank_speed_vectors_are_rejected_with_a_typed_error() {
        // A 3-entry vector on a 16-rank cluster used to mean full speed for
        // ranks 3..16 in the kernel path and padded speed in the remap path.
        let cluster = cluster_a(2);
        let ctx = SchedulerCtx::new(&cluster, &llama_3b());
        let batch = Batch::new(vec![4_000; 16]);
        let mut cfg = StepConfig::default();
        cfg.exec.rank_speed = vec![1.0, 0.5, 1.0];
        let err = simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                crate::step::StepError::Exec(crate::lower::ExecConfigError::RankSpeedLength {
                    got: 3,
                    nranks: 16,
                })
            ),
            "{err}"
        );
        cfg.exec.rank_speed = vec![1.0; 16];
        cfg.exec.rank_speed[4] = f64::NAN;
        let err = simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                crate::step::StepError::Exec(crate::lower::ExecConfigError::RankSpeedValue {
                    rank: 4,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn rank_speed_slows_affected_kernels() {
        let cluster = cluster_a(2);
        let ctx = SchedulerCtx::new(&cluster, &llama_3b());
        let batch = Batch::new(vec![4_000; 16]);
        let healthy = simulate_step(&Zeppelin::new(), &batch, &ctx, &StepConfig::default())
            .unwrap()
            .throughput;
        let mut cfg = StepConfig::default();
        cfg.exec.rank_speed = vec![1.0; 16];
        cfg.exec.rank_speed[5] = 0.25;
        let degraded = simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg)
            .unwrap()
            .throughput;
        assert!(
            degraded < healthy * 0.9,
            "degraded {degraded} vs healthy {healthy}"
        );
    }
}

#[cfg(test)]
mod chained_tests {
    use super::*;
    use crate::step::{simulate_step, StepConfig};
    use zeppelin_core::scheduler::SchedulerCtx;
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_data::batch::Batch;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::cluster_a;

    #[test]
    fn chained_layers_match_single_layer_without_cross_layer_effects() {
        // With gradient sync off there is nothing to overlap across layers,
        // so per-layer times are identical regardless of chain length.
        let cluster = cluster_a(2);
        let ctx = SchedulerCtx::new(&cluster, &llama_3b());
        let batch = Batch::new(vec![30_000, 9_000, 4_000, 2_000, 1_000, 500, 19_036]);
        let run = |chain: usize| {
            let cfg = StepConfig {
                chained_layers: chain,
                ..StepConfig::default()
            };
            simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg)
                .unwrap()
                .layer_forward
                .as_secs_f64()
        };
        let one = run(1);
        let four = run(4);
        assert!((one - four).abs() / one < 0.01, "one {one} vs four {four}");
    }

    #[test]
    fn overlapped_grad_sync_amortizes_across_chained_layers() {
        // Local-heavy batch: attention needs no NICs, so the all-reduce has
        // the fabric to itself and overlap can hide it under compute. (On
        // communication-bound batches the NICs are already saturated and
        // overlap saves little — physically correct, asserted elsewhere.)
        let cluster = cluster_a(2);
        let ctx = SchedulerCtx::new(&cluster, &llama_3b());
        let batch = Batch::new(vec![4_096; 16]);
        let run = |sync: GradSync, chain: usize| {
            let mut cfg = StepConfig {
                chained_layers: chain,
                ..StepConfig::default()
            };
            cfg.exec.grad_sync = sync;
            simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg)
                .unwrap()
                .layer_backward
                .as_secs_f64()
        };
        let off = run(GradSync::Off, 4);
        let overlapped = run(GradSync::Overlapped, 4);
        let blocking = run(GradSync::Blocking, 4);
        // Chained, the overlapped all-reduce hides under the adjacent
        // layer's backward work far better than the blocking variant.
        assert!(blocking > off * 1.05, "blocking {blocking} vs off {off}");
        assert!(
            (overlapped - off) < 0.5 * (blocking - off),
            "overlapped {overlapped}, blocking {blocking}, off {off}"
        );
    }

    #[test]
    fn weighted_remap_engages_with_rank_speed() {
        let cluster = cluster_a(1);
        let speed = vec![1.0, 1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0];
        // A Zeppelin plan made aware of the slow rank declares
        // speed-proportional remap targets.
        let ctx = SchedulerCtx::new(&cluster, &llama_3b()).with_rank_speed(speed.clone());
        // Imbalanced batch so remap triggers.
        let batch = Batch::new(vec![20_000, 600, 500, 400, 300, 200, 100, 10_668]);
        let mut cfg = StepConfig::default();
        cfg.exec.rank_speed = speed;
        let r = simulate_step(&Zeppelin::new(), &batch, &ctx, &cfg).unwrap();
        // The slow rank's linear busy time stays near the others (its
        // token share shrank proportionally).
        let lin = &r.forward_phase.linear;
        let slow = lin[2].as_secs_f64();
        let fast_max = lin
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, d)| d.as_secs_f64())
            .fold(0.0f64, f64::max);
        assert!(
            slow < fast_max * 1.15,
            "slow-rank linear {slow} vs fastest {fast_max}"
        );
    }
}
