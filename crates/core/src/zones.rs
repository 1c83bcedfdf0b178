//! Fig. 5 cost-curve analysis: the three-zone classification.
//!
//! For a sequence of length `s`, ring attention must hide the send-receive
//! of `s` tokens of KV behind the (quadratic) attention compute. Compute
//! grows as `s²`, communication as `s`, so the compute-to-communication
//! ratio grows linearly with `s`: above a threshold the *inter-node* link
//! can be hidden; above a lower threshold the *intra-node* fabric can; below
//! both, a sequence is best kept local. The crossovers of the three cost
//! curves define the zone boundaries the paper's Fig. 5 visualizes.

use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::attention_seq_flops;
use zeppelin_model::memory::kv_bytes;
use zeppelin_sim::topology::ClusterSpec;

use crate::cost::CostModel;
use crate::plan::Zone;

/// Zone boundaries in tokens: `local` for `s < local_max`, `intra-node` for
/// `local_max <= s < intra_max`, `inter-node` above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneThresholds {
    /// First length at which intra-node communication is fully hidden.
    pub local_max: u64,
    /// First length at which inter-node communication is fully hidden.
    pub intra_max: u64,
}

impl ZoneThresholds {
    /// Classifies a sequence length.
    pub fn classify(&self, len: u64) -> Zone {
        if len < self.local_max {
            Zone::Local
        } else if len < self.intra_max {
            Zone::IntraNode
        } else {
            Zone::InterNode
        }
    }
}

/// Attention compute time of a full causal sequence on one GPU at the
/// base peak, seconds.
pub fn attn_compute_time(cfg: &ModelConfig, cost: &CostModel, s: u64) -> f64 {
    cost.base_attention_secs(attention_seq_flops(cfg, s))
}

/// Send-receive time of the KV activations of `s` tokens, seconds.
pub fn kv_transfer_time(cfg: &ModelConfig, bw: f64, s: u64) -> f64 {
    kv_bytes(cfg, s) / bw
}

/// Smallest length whose compute time covers its KV transfer at `bw`.
///
/// Compares *asymptotic rates* (no launch overheads, which affect both
/// sides comparably and would otherwise dominate at tiny lengths): compute
/// at the base peak's asymptotic attention rate, transfer at `bw`.
///
/// Returns `u64::MAX` if no length up to 16M tokens crosses over (degenerate
/// parameterizations only).
pub fn crossover(cfg: &ModelConfig, cost: &CostModel, bw: f64) -> u64 {
    let covered = |s: u64| {
        cost.asymptotic_attention_secs(attention_seq_flops(cfg, s)) >= kv_bytes(cfg, s) / bw
    };
    if covered(1) {
        return 1;
    }
    let mut lo = 1u64; // Not covered.
    let mut hi = 1u64 << 24; // 16M tokens.
    if !covered(hi) {
        return u64::MAX;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if covered(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Smallest length at which splitting a sequence across two devices beats
/// keeping it local, accounting for per-round launch overheads.
///
/// Splitting halves the quadratic work (`≈ 2h·s² / (peak·eff)` → half) but
/// pays ring-round fixed costs `ov` (kernel + send/recv launches); the
/// break-even is `s = sqrt(ov · peak · eff / h)`. Below this, bandwidth is
/// irrelevant — the sequence is simply too small to be worth distributing.
pub fn overhead_breakeven(cfg: &ModelConfig, cost: &CostModel) -> u64 {
    let h = cfg.hidden as f64;
    (cost.ring_round_breakeven_flops() / h).sqrt().ceil() as u64
}

/// Computes the Fig. 5 zone thresholds for a model on a cluster.
///
/// `local_max` is the larger of the intra-node bandwidth crossover and the
/// launch-overhead break-even; `intra_max` is the inter-node bandwidth
/// crossover. Both price compute at the base peak (tier 1.0), so node
/// tiers never move a plan's zones.
pub fn zone_thresholds(cfg: &ModelConfig, cluster: &ClusterSpec) -> ZoneThresholds {
    let cost = CostModel::base(cluster);
    let local_max =
        crossover(cfg, &cost, cluster.intranode_bw()).max(overhead_breakeven(cfg, &cost));
    let intra_max = crossover(cfg, &cost, cluster.direct_internode_bw()).max(local_max);
    ZoneThresholds {
        local_max,
        intra_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_model::config::{llama_3b, llama_7b};
    use zeppelin_model::kernel::KernelModel;
    use zeppelin_sim::topology::{cluster_a, cluster_c};

    #[test]
    fn thresholds_are_ordered_and_plausible() {
        let t = zone_thresholds(&llama_7b(), &cluster_a(2));
        assert!(t.local_max < t.intra_max);
        // Ballpark for A800 + 400 GB/s + 25 GB/s (see DESIGN.md §7):
        // hundreds of tokens for local, ~10k for intra.
        assert!(
            (64..8_192).contains(&t.local_max),
            "local_max {}",
            t.local_max
        );
        assert!(
            (2_048..131_072).contains(&t.intra_max),
            "intra_max {}",
            t.intra_max
        );
    }

    #[test]
    fn classification_follows_thresholds() {
        let t = ZoneThresholds {
            local_max: 1000,
            intra_max: 10_000,
        };
        assert_eq!(t.classify(10), Zone::Local);
        assert_eq!(t.classify(999), Zone::Local);
        assert_eq!(t.classify(1000), Zone::IntraNode);
        assert_eq!(t.classify(9_999), Zone::IntraNode);
        assert_eq!(t.classify(10_000), Zone::InterNode);
    }

    #[test]
    fn faster_network_widens_the_local_zone() {
        // Cluster C has both faster GPUs and much faster NICs; the relative
        // effect on intra_max depends on the compute/NIC ratio.
        let a = zone_thresholds(&llama_3b(), &cluster_a(2));
        let c = zone_thresholds(&llama_3b(), &cluster_c(2));
        // H200 compute is ~3.2× A800 while its NIC is 2× -> crossover moves
        // *up*: hiding comm needs more compute per token when compute is
        // fast.
        assert!(c.intra_max > a.intra_max / 2, "a {a:?} c {c:?}");
    }

    #[test]
    fn crossover_is_a_true_boundary() {
        let cfg = llama_7b();
        let cost = CostModel::base(&cluster_a(1));
        let bw = 25e9;
        let x = crossover(&cfg, &cost, bw);
        assert!(x > 1 && x < u64::MAX);
        // Boundary property on the asymptotic rates the crossover compares,
        // at the A800's 312 TFLOP/s.
        let rate = 312e12 * KernelModel::attention().max_efficiency;
        let compute = |s: u64| attention_seq_flops(&cfg, s) / rate;
        let comm = |s: u64| kv_transfer_time(&cfg, bw, s);
        assert!(compute(x) >= comm(x));
        assert!(compute(x - 1) < comm(x - 1));
    }

    #[test]
    fn bigger_models_cross_over_sooner() {
        // More hidden size => more FLOPs per transferred byte => shorter
        // sequences already hide communication.
        let small = zone_thresholds(&llama_3b(), &cluster_a(2));
        let big = zone_thresholds(&llama_7b(), &cluster_a(2));
        assert!(big.intra_max <= small.intra_max);
    }
}
