//! The attention cost model (§3.1, Fig. 5): quadratic attention compute at
//! a device's peak, set against linear KV traffic. The one place that
//! decides each rank's peak and kernel prices ([`CostModel`]), which
//! placements fuse into one group and what it costs ([`Fusion`],
//! [`Group`]), and how a double ring decomposes ([`RingOrder`]). The
//! lowering, the analyzer and the zones all read it, so `explain` prices
//! exactly what the simulator runs, tiers included.

// Per-position tables are parallel arrays indexed by ring position.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;

use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::attention_seq_flops;
use zeppelin_model::kernel::{KernelModel, COMM_LAUNCH_OVERHEAD_S};
use zeppelin_model::memory::kv_bytes;
use zeppelin_sim::topology::{ClusterSpec, Rank};

use crate::chunking::{chunk_pair_flops, kv_source, Chunk};
use crate::plan::{AttnMode, IterationPlan, SeqPlacement, Zone};

/// Per-rank kernel pricing: every rank runs the attention and GEMM kernel
/// models at `base peak × speed[rank]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    base_peak: f64,
    speed: Option<Vec<f64>>,
}

impl CostModel {
    /// Pricing for `cluster` with per-rank relative `speed` (`None`: every
    /// rank at the base peak). The executor passes its effective speeds
    /// (node tier × configured degradation).
    pub fn new(cluster: &ClusterSpec, speed: Option<Vec<f64>>) -> CostModel {
        CostModel {
            base_peak: cluster.node.gpu.peak_flops,
            speed,
        }
    }

    /// Pricing at the base peak on every rank (tier 1.0). The zone
    /// thresholds use it, so plans do not move with node tiers; it
    /// allocates nothing.
    pub fn base(cluster: &ClusterSpec) -> CostModel {
        CostModel::new(cluster, None)
    }

    /// Per-rank relative speeds, when any differ from the base.
    pub fn speeds(&self) -> Option<&[f64]> {
        self.speed.as_deref()
    }

    /// Peak FLOP/s of `rank`.
    pub fn peak(&self, rank: Rank) -> f64 {
        self.base_peak * self.speed.as_ref().map_or(1.0, |s| s[rank])
    }

    /// Seconds of one attention kernel of `flops` on `rank`.
    pub fn attention_secs(&self, rank: Rank, flops: f64) -> f64 {
        KernelModel::attention().kernel_time(flops, self.peak(rank))
    }

    /// Seconds of one GEMM kernel of `flops` on `rank`.
    pub fn gemm_secs(&self, rank: Rank, flops: f64) -> f64 {
        KernelModel::gemm().kernel_time(flops, self.peak(rank))
    }

    /// Seconds of one attention kernel of `flops` at the base peak.
    pub fn base_attention_secs(&self, flops: f64) -> f64 {
        KernelModel::attention().kernel_time(flops, self.base_peak)
    }

    /// Seconds an asymptotically large attention kernel spends on `flops`
    /// at the base peak (no launch overhead).
    pub fn asymptotic_attention_secs(&self, flops: f64) -> f64 {
        flops / (self.base_peak * KernelModel::attention().max_efficiency)
    }

    /// Attention FLOPs an asymptotically large kernel at the base peak
    /// retires in the fixed cost of one more ring round: one attention
    /// kernel launch plus two send/recv launch pairs.
    pub fn ring_round_breakeven_flops(&self) -> f64 {
        let kernel = KernelModel::attention();
        let overhead = kernel.launch_overhead_s + 4.0 * COMM_LAUNCH_OVERHEAD_S;
        overhead * self.base_peak * kernel.max_efficiency
    }
}

/// How a ring-like group circulates KV: whose KV a position attends to at
/// each step, and where it forwards what it holds afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingOrder {
    /// One ring over all `g` positions: at step `t`, position `p` holds the
    /// KV of `(p - t) mod g` and forwards it to `p + 1`.
    Plain {
        /// Ring size.
        g: usize,
    },
    /// LoongTrain-style double ring: positions are grouped node-major into
    /// `n` inner rings of `m`; KV rotates within the node for `m` steps,
    /// then the whole window hops to the next node, so every rank crosses
    /// nodes once per node visited, all NICs at once.
    NodeMajor {
        /// Nodes in the group.
        n: usize,
        /// Positions per node.
        m: usize,
    },
}

impl RingOrder {
    /// The order a group of `mode` on `ranks` runs in: node-major for a
    /// double ring whose ranks decompose into equal node-major slices over
    /// two or more nodes, the plain ring otherwise.
    pub fn of(cluster: &ClusterSpec, ranks: &[Rank], mode: AttnMode) -> RingOrder {
        let g = ranks.len();
        let plain = RingOrder::Plain { g };
        if mode != AttnMode::DoubleRing {
            return plain;
        }
        let mut node_order: Vec<usize> = Vec::new();
        for &r in ranks {
            let node = cluster.node_of(r);
            if node_order.last() != Some(&node) {
                node_order.push(node);
            }
        }
        let n = node_order.len();
        if n <= 1 || !g.is_multiple_of(n) {
            return plain;
        }
        let m = g / n;
        let uniform = ranks
            .chunks(m)
            .enumerate()
            .all(|(a, slice)| slice.iter().all(|&r| cluster.node_of(r) == node_order[a]));
        if uniform {
            RingOrder::NodeMajor { n, m }
        } else {
            plain
        }
    }

    /// Position whose KV position `p` attends to at step `t`.
    pub fn source(self, p: usize, t: usize) -> usize {
        match self {
            RingOrder::Plain { g } => kv_source(g, p, t),
            RingOrder::NodeMajor { n, m } => {
                let (a, b) = (p / m, p % m);
                let (o, i) = (t / m, t % m);
                ((a + n - o % n) % n) * m + (b + m - i % m) % m
            }
        }
    }

    /// Position that `p` forwards its KV to after step `t`.
    pub fn next(self, p: usize, t: usize) -> usize {
        match self {
            RingOrder::Plain { g } => (p + 1) % g,
            RingOrder::NodeMajor { n, m } => {
                let (a, b) = (p / m, p % m);
                if !(t + 1).is_multiple_of(m) {
                    a * m + (b + 1) % m
                } else {
                    ((a + 1) % n) * m + (b + 1) % m
                }
            }
        }
    }
}

/// The attention FLOPs one fused group's mode reads, summed over the
/// group's sequences in plan order (forward direction).
#[derive(Debug, Clone, PartialEq)]
pub enum GroupTable {
    /// Ring and double ring: `pair[p·G + q]` = Σ_s `pair_flops(p, q)`,
    /// read at the order's source.
    Ring {
        /// KV circulation.
        order: RingOrder,
        /// Attention FLOPs by (query position, KV source position).
        pair: Vec<f64>,
    },
    /// All-gather: `flops[p]` = Σ_s `total_flops(p)` for the one kernel per
    /// position after the gather.
    AllGather {
        /// Attention FLOPs per position.
        flops: Vec<f64>,
    },
    /// Ulysses: every position runs the same head-parallel kernel.
    Ulysses {
        /// Attention FLOPs per position.
        flops: f64,
    },
}

/// One fused group execution: the multi-rank placements of one
/// micro-batch sharing `(ranks, mode, weights)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Micro-batch the group runs in.
    pub micro_batch: usize,
    /// Ring order of participating ranks.
    pub ranks: Vec<Rank>,
    /// Zone of the group's first placement (its queue segment).
    pub zone: Zone,
    /// Tokens held per position, summed over the group's sequences.
    pub tokens: Vec<u64>,
    /// KV bytes by source position, Σ_s `kv_bytes(tokens(q))`: what a
    /// ring-like send carries depends only on whose KV it is.
    pub kv: Vec<f64>,
    /// The mode's cost table.
    pub table: GroupTable,
}

impl Group {
    /// Tabulates the group in one pass over its sequences, in plan order:
    /// each sequence's chunks are cut once and its share of every cell is
    /// added to the running sums. Every cell therefore adds the same f64
    /// terms in the same order as a per-cell `Σ_s` over the geometries
    /// would, and gets the same bits.
    fn new(
        model: &ModelConfig,
        cluster: &ClusterSpec,
        micro_batch: usize,
        seqs: &[&SeqPlacement],
    ) -> Group {
        let first = seqs[0];
        let ranks = first.ranks.clone();
        let g = ranks.len();
        let mut tokens = vec![0; g];
        let mut kv = vec![0.0; g];
        let mut table = match first.mode {
            AttnMode::Ring | AttnMode::DoubleRing => GroupTable::Ring {
                order: RingOrder::of(cluster, &ranks, first.mode),
                pair: vec![0.0; g * g],
            },
            AttnMode::AllGather => GroupTable::AllGather {
                flops: vec![0.0; g],
            },
            AttnMode::Ulysses => GroupTable::Ulysses { flops: 0.0 },
        };
        let mut chunks: Vec<[Chunk; 2]> = Vec::with_capacity(g);
        for seq in seqs {
            let geom = seq.geometry();
            chunks.clear();
            chunks.extend((0..g).map(|p| geom.position(p)));
            for (p, [a, b]) in chunks.iter().enumerate() {
                tokens[p] += a.len + b.len;
                kv[p] += kv_bytes(model, a.len + b.len);
            }
            match &mut table {
                GroupTable::Ring { pair, .. } => {
                    for p in 0..g {
                        for q in 0..g {
                            pair[p * g + q] += chunk_pair_flops(model, chunks[p], chunks[q]);
                        }
                    }
                }
                GroupTable::AllGather { flops } => {
                    for p in 0..g {
                        flops[p] += (0..g)
                            .map(|r| chunk_pair_flops(model, chunks[p], chunks[kv_source(g, p, r)]))
                            .sum::<f64>();
                    }
                }
                GroupTable::Ulysses { flops } => *flops += attention_seq_flops(model, seq.len),
            }
        }
        if let GroupTable::Ulysses { flops } = &mut table {
            *flops /= g as f64;
        }
        Group {
            micro_batch,
            ranks,
            zone: first.zone,
            tokens,
            kv,
            table,
        }
    }

    /// Every attention kernel the group launches, as `(position, FLOPs)`,
    /// position-major and in launch order within a position.
    pub fn kernels(&self) -> Vec<(usize, f64)> {
        let g = self.ranks.len();
        match &self.table {
            GroupTable::Ring { order, pair, .. } => (0..g)
                .flat_map(|p| (0..g).map(move |t| (p, pair[p * g + order.source(p, t)])))
                .collect(),
            GroupTable::AllGather { flops, .. } => flops.iter().copied().enumerate().collect(),
            GroupTable::Ulysses { flops } => (0..g).map(|p| (p, *flops)).collect(),
        }
    }

    /// Every KV send of a ring-like group, as `(from, to, bytes)` positions,
    /// position-major; empty for Ulysses, whose all-to-alls are not KV
    /// rotations.
    pub fn kv_sends(&self) -> Vec<(usize, usize, f64)> {
        let g = self.ranks.len();
        let order = match &self.table {
            GroupTable::Ring { order, .. } => *order,
            GroupTable::AllGather { .. } => RingOrder::Plain { g },
            GroupTable::Ulysses { .. } => return Vec::new(),
        };
        let kv = &self.kv;
        (0..g)
            .flat_map(|p| (0..g - 1).map(move |t| (p, order.next(p, t), kv[order.source(p, t)])))
            .collect()
    }
}

/// A plan's attention work as the executor launches it: fused groups and
/// fused per-rank local kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Fusion {
    /// Multi-rank groups in `(ranks, mode, weights, micro_batch)` order.
    pub groups: Vec<Group>,
    /// Fused local attention FLOPs keyed by `(micro_batch, rank)`: one
    /// kernel per rank per micro-batch holding any local sequence.
    pub locals: BTreeMap<(usize, Rank), f64>,
}

impl Fusion {
    /// Fuses `plan`'s placements. Placements outside the plan's
    /// micro-batches run nowhere and are skipped.
    ///
    /// # Panics
    ///
    /// Panics on malformed placements (empty rank lists, weights that do
    /// not cover the group); audit untrusted plans first.
    pub fn new(plan: &IterationPlan, model: &ModelConfig, cluster: &ClusterSpec) -> Fusion {
        type GroupKey<'p> = (&'p [Rank], AttnMode, &'p [u32], usize);
        let mut keyed: BTreeMap<GroupKey, Vec<&SeqPlacement>> = BTreeMap::new();
        let mut locals: BTreeMap<(usize, Rank), f64> = BTreeMap::new();
        for p in plan
            .placements
            .iter()
            .filter(|p| p.micro_batch < plan.micro_batches)
        {
            if let [rank] = p.ranks[..] {
                let flops = attention_seq_flops(model, p.len);
                locals
                    .entry((p.micro_batch, rank))
                    .and_modify(|f| *f += flops)
                    .or_insert(flops);
            } else {
                keyed
                    .entry((&p.ranks, p.mode, &p.weights, p.micro_batch))
                    .or_default()
                    .push(p);
            }
        }
        let groups = keyed
            .into_iter()
            .map(|((.., mb), seqs)| Group::new(model, cluster, mb, &seqs))
            .collect();
        Fusion { groups, locals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::RingGeometry;
    use proptest::prelude::*;
    use zeppelin_model::config::llama_3b;
    use zeppelin_sim::topology::{cluster_a, cluster_mixed};

    /// One group's placements: mode, ring size, first rank on `cluster_a(2)`,
    /// per-position weights and sequence lengths. Some are shorter than
    /// `2G`, so some chunks are empty. Others run to 2^30 tokens: only
    /// there do the FLOP sums leave the integers an f64 holds exactly, so
    /// a changed summation order shows.
    fn arb_group() -> impl Strategy<Value = (AttnMode, usize, usize, Vec<u32>, Vec<u64>)> {
        let modes = prop_oneof![
            Just(AttnMode::Ring),
            Just(AttnMode::DoubleRing),
            Just(AttnMode::AllGather)
        ];
        (modes, 2usize..=16).prop_flat_map(|(mode, g)| {
            let weights = prop_oneof![
                Just(Vec::new()),
                (1u32..4096).prop_map(move |w| vec![w; g]),
                prop::collection::vec(1u32..=2048, g),
            ];
            let short = 1..2 * g as u64;
            let lens =
                prop::collection::vec(prop_oneof![short, 1u64..200_000, 1u64..1 << 30], 1..8);
            (Just(mode), Just(g), 0..=16 - g, weights, lens)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass tables equal, bit for bit, the per-cell sums over
        /// each sequence's geometry in plan order.
        #[test]
        fn group_tables_equal_the_per_cell_sums(
            (mode, g, start, weights, lens) in arb_group()
        ) {
            let model = llama_3b();
            let placements = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| SeqPlacement {
                    seq_index: i,
                    len,
                    zone: Zone::InterNode,
                    ranks: (start..start + g).collect(),
                    mode,
                    micro_batch: 0,
                    weights: weights.clone(),
                })
                .collect();
            let plan = IterationPlan {
                scheduler: "t".into(),
                placements,
                options: Default::default(),
                micro_batches: 1,
                redundant_attn_frac: 0.0,
            };
            let fusion = Fusion::new(&plan, &model, &cluster_a(2));
            prop_assert_eq!(fusion.groups.len(), 1);
            let geoms: Vec<RingGeometry> = plan.placements.iter().map(|p| p.geometry()).collect();
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            match &fusion.groups[0].table {
                GroupTable::Ring { pair, .. } => {
                    prop_assert!(mode != AttnMode::AllGather);
                    let want: Vec<f64> = (0..g * g)
                        .map(|c| geoms.iter().map(|s| s.pair_flops(&model, c / g, c % g)).sum())
                        .collect();
                    prop_assert_eq!(bits(pair), bits(&want));
                }
                GroupTable::AllGather { flops } => {
                    prop_assert_eq!(mode, AttnMode::AllGather);
                    let want: Vec<f64> = (0..g)
                        .map(|p| geoms.iter().map(|s| s.total_flops(&model, p)).sum())
                        .collect();
                    prop_assert_eq!(bits(flops), bits(&want));
                }
                GroupTable::Ulysses { .. } => prop_assert!(false, "no Ulysses placements"),
            }
            let kv: Vec<f64> = (0..g)
                .map(|q| geoms.iter().map(|s| kv_bytes(&model, s.tokens(q))).sum())
                .collect();
            prop_assert_eq!(bits(&fusion.groups[0].kv), bits(&kv));
        }
    }

    #[test]
    fn peaks_scale_the_base_by_rank_speed() {
        let mixed = cluster_mixed(3);
        let tiered = CostModel::new(&mixed, mixed.rank_speeds());
        let base = CostModel::base(&mixed);
        let tiers = mixed.rank_speeds().unwrap();
        for rank in [0, 8, 23] {
            assert_eq!(tiered.peak(rank), mixed.node.gpu.peak_flops * tiers[rank]);
            assert_eq!(base.peak(rank), mixed.node.gpu.peak_flops);
        }
        assert!(tiered.attention_secs(0, 1e12) > base.attention_secs(0, 1e12));
        assert_eq!(base.attention_secs(5, 1e12), base.base_attention_secs(1e12));
        let a = cluster_a(2);
        assert_eq!(CostModel::new(&a, a.rank_speeds()), CostModel::base(&a));
    }

    #[test]
    fn every_order_visits_each_source_once_and_forwards_a_permutation() {
        for order in [
            RingOrder::Plain { g: 6 },
            RingOrder::NodeMajor { n: 3, m: 2 },
            RingOrder::NodeMajor { n: 2, m: 4 },
        ] {
            let g = match order {
                RingOrder::Plain { g } => g,
                RingOrder::NodeMajor { n, m } => n * m,
            };
            for p in 0..g {
                let mut seen: Vec<usize> = (0..g).map(|t| order.source(p, t)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..g).collect::<Vec<_>>(), "{order:?}");
            }
            for t in 0..g - 1 {
                // What p forwards after step t is what its target attends
                // to at step t + 1.
                for p in 0..g {
                    let q = order.next(p, t);
                    assert_eq!(order.source(q, t + 1), order.source(p, t), "{order:?}");
                }
            }
        }
    }

    #[test]
    fn fusion_groups_by_micro_batch_and_keeps_plan_order() {
        let model = llama_3b();
        let c = cluster_a(1);
        let seq = |idx: usize, len: u64, ranks: Vec<usize>, mb: usize| SeqPlacement {
            seq_index: idx,
            len,
            zone: if ranks.len() == 1 {
                Zone::Local
            } else {
                Zone::IntraNode
            },
            ranks,
            mode: AttnMode::Ring,
            micro_batch: mb,
            weights: Vec::new(),
        };
        let plan = IterationPlan {
            scheduler: "t".into(),
            placements: vec![
                seq(0, 8_000, vec![0, 1], 0),
                seq(1, 4_000, vec![0, 1], 1),
                seq(2, 2_000, vec![0, 1], 0),
                seq(3, 500, vec![3], 0),
                seq(4, 300, vec![3], 0),
                seq(5, 100, vec![3], 7),
            ],
            options: Default::default(),
            micro_batches: 2,
            redundant_attn_frac: 0.0,
        };
        let f = Fusion::new(&plan, &model, &c);
        assert_eq!(f.groups.len(), 2);
        assert_eq!(f.groups[0].micro_batch, 0);
        assert_eq!(f.groups[0].tokens.iter().sum::<u64>(), 10_000);
        assert_eq!(f.groups[1].tokens.iter().sum::<u64>(), 4_000);
        // Two locals on rank 3 fuse; micro-batch 7 does not exist.
        assert_eq!(f.locals.len(), 1);
        let want = attention_seq_flops(&model, 500) + attention_seq_flops(&model, 300);
        assert_eq!(f.locals[&(0, 3)], want);
        // Kernel FLOPs conserve the fused sequences' attention work.
        let total: f64 = f.groups[0].kernels().iter().map(|k| k.1).sum();
        let exact = attention_seq_flops(&model, 8_000) + attention_seq_flops(&model, 2_000);
        assert!((total - exact).abs() / exact < 1e-12);
        assert_eq!(f.groups[0].kv_sends().len(), 2);
    }
}
