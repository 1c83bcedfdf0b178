//! The iteration-plan IR shared by Zeppelin and every baseline scheduler.
//!
//! A scheduler consumes a batch of sequence lengths plus a cluster
//! description and emits an [`IterationPlan`]: where every sequence (or
//! fragment) lives, which ring groups exist, whether communication routing
//! and remapping are enabled, and how sequences split into micro-batches.
//! The executor lowers this IR onto the simulator, so all methods are
//! compared on identical semantics.

use zeppelin_sim::topology::Rank;

use crate::chunking::RingGeometry;

/// Which tier of the bandwidth hierarchy a sequence executes in (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Zone {
    /// Whole sequence on one GPU; no communication.
    Local,
    /// Ring over GPUs of a single node (NVSwitch bandwidth).
    IntraNode,
    /// Ring spanning several nodes (NIC bandwidth).
    InterNode,
}

/// How a multi-rank attention group exchanges KV activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttnMode {
    /// Ring attention: G rounds of send-receive overlapped with compute.
    Ring,
    /// All-gather KV before attention (the LLaMA CP baseline); the gather
    /// sits on the critical path.
    AllGather,
    /// DeepSpeed-Ulysses sequence parallelism: all-to-all switches the
    /// layout from sequence-sharded to head-sharded, attention runs on full
    /// sequences with `heads/G` heads per rank, and a second all-to-all
    /// switches back. Requires `G` to divide the head count.
    Ulysses,
    /// LoongTrain-style double ring: an inner ring rotates KV within each
    /// node; one inter-node hop per inner rotation moves the window to the
    /// next node, cutting cross-node hops to one per node per pass.
    DoubleRing,
}

/// Placement of one sequence (or packed pseudo-sequence) in the plan.
///
/// For multi-rank placements the sequence is cut into `2·G` chunks
/// (`G = ranks.len()`); ring position `i` owns chunks `i` and `2G-1-i`
/// (zigzag), which balances causal-mask work across the group (§3.2).
/// Homogeneous groups cut equal chunks; heterogeneity-aware schedulers
/// declare per-position speed `weights` and chunks are cut
/// speed-proportionally (§3.2 extended; see
/// [`RingGeometry`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SeqPlacement {
    /// Index of the sequence in the input batch (or a synthetic id for
    /// packed segments).
    pub seq_index: usize,
    /// Sequence length in tokens.
    pub len: u64,
    /// Hierarchy tier; drives queue ordering in the attention engine.
    pub zone: Zone,
    /// Ring order of participating ranks (length 1 for local sequences).
    pub ranks: Vec<Rank>,
    /// KV exchange mode for multi-rank placements.
    pub mode: AttnMode,
    /// Micro-batch this sequence executes in (0 for single micro-batch
    /// plans; Hybrid DP uses several).
    pub micro_batch: usize,
    /// Fixed-point per-position speed weights (quantum
    /// [`crate::chunking::SPEED_WEIGHT_QUANTUM`]), parallel to `ranks`.
    /// Empty means homogeneous (equal chunks); when non-empty, chunk sizes
    /// are speed-proportional and the executor/validator account for the
    /// declared skew.
    pub weights: Vec<u32>,
}

impl SeqPlacement {
    /// Number of ranks in the group.
    pub fn group_size(&self) -> usize {
        self.ranks.len()
    }

    /// Zigzag chunk geometry of this placement on its ring (sized by the
    /// declared speed weights when present).
    pub fn geometry(&self) -> RingGeometry {
        RingGeometry::new(self.len, self.ranks.len(), &self.weights)
    }

    /// Tokens resident on ring position `i` (zigzag: two chunks, sized by
    /// the declared speed weights when present). Allocation-free for
    /// homogeneous placements; callers asking for every position of a
    /// weighted placement should build [`SeqPlacement::geometry`] once.
    pub fn tokens_on_position(&self, i: usize) -> u64 {
        self.geometry().tokens(i)
    }
}

/// Toggles for Zeppelin's components; baselines run with everything off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanOptions {
    /// Decompose inter-node ring transfers into the three-step routing
    /// scheme (§3.3) instead of direct NIC-affined sends.
    pub routing: bool,
    /// Rebalance tokens across ranks around the linear modules (§3.4).
    pub remapping: bool,
    /// Pick remap targets proportional to rank speeds instead of equal
    /// shares (requires `remapping`; a no-op when the executor sees
    /// homogeneous hardware). Zeppelin sets it whenever its context's
    /// speeds are not uniform.
    pub speed_aware_remap: bool,
}

/// A full iteration plan for one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationPlan {
    /// Name of the producing scheduler (for reports).
    pub scheduler: String,
    /// Every sequence placement; fragments of the same input sequence that
    /// were split into independent groups appear as separate placements.
    pub placements: Vec<SeqPlacement>,
    /// Component toggles honored by the executor.
    pub options: PlanOptions,
    /// Number of micro-batches (`max(micro_batch) + 1`).
    pub micro_batches: usize,
    /// Fraction of attention FLOPs that are redundant cross-sequence work
    /// (non-zero only for naive packing plans; folds into compute time).
    pub redundant_attn_frac: f64,
}

/// Errors from plan construction or validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The batch cannot fit in aggregate cluster memory.
    OverCapacity {
        /// Tokens that needed placing.
        tokens: u64,
        /// Aggregate capacity in tokens.
        capacity: u64,
    },
    /// A placement references a rank outside the cluster.
    BadRank(Rank),
    /// A placement is structurally invalid (empty group, duplicate rank...).
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::OverCapacity { tokens, capacity } => {
                write!(f, "batch of {tokens} tokens exceeds capacity {capacity}")
            }
            PlanError::BadRank(r) => write!(f, "placement references invalid rank {r}"),
            PlanError::Malformed(m) => write!(f, "malformed placement: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl IterationPlan {
    /// Tokens resident per rank in micro-batch `mb` (attention layout).
    pub fn tokens_per_rank(&self, total_ranks: usize, mb: usize) -> Vec<u64> {
        let mut tokens = vec![0u64; total_ranks];
        for p in self.placements.iter().filter(|p| p.micro_batch == mb) {
            if p.ranks.is_empty() {
                continue;
            }
            let geom = p.geometry();
            for (i, &r) in p.ranks.iter().enumerate() {
                tokens[r] += geom.tokens(i);
            }
        }
        tokens
    }

    /// Total tokens across all placements (each input token counted once),
    /// saturating at `u64::MAX` on hostile lengths.
    pub fn total_tokens(&self) -> u64 {
        self.placements
            .iter()
            .fold(0, |sum, p| sum.saturating_add(p.len))
    }

    /// Validates structural invariants against a cluster of `total_ranks`.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first violated invariant.
    pub fn validate(&self, total_ranks: usize) -> Result<(), PlanError> {
        for p in &self.placements {
            if p.ranks.is_empty() {
                return Err(PlanError::Malformed(format!(
                    "sequence {} has an empty group",
                    p.seq_index
                )));
            }
            if p.len == 0 {
                return Err(PlanError::Malformed(format!(
                    "sequence {} has zero length",
                    p.seq_index
                )));
            }
            let mut seen = std::collections::HashSet::new();
            for &r in &p.ranks {
                if r >= total_ranks {
                    return Err(PlanError::BadRank(r));
                }
                if !seen.insert(r) {
                    return Err(PlanError::Malformed(format!(
                        "sequence {} repeats rank {r}",
                        p.seq_index
                    )));
                }
            }
            if p.zone == Zone::Local && p.ranks.len() != 1 {
                return Err(PlanError::Malformed(format!(
                    "local sequence {} spans {} ranks",
                    p.seq_index,
                    p.ranks.len()
                )));
            }
            if p.micro_batch >= self.micro_batches {
                return Err(PlanError::Malformed(format!(
                    "sequence {} in micro-batch {} of {}",
                    p.seq_index, p.micro_batch, self.micro_batches
                )));
            }
            if !p.weights.is_empty() {
                if p.weights.len() != p.ranks.len() {
                    return Err(PlanError::Malformed(format!(
                        "sequence {} declares {} speed weights for {} ranks",
                        p.seq_index,
                        p.weights.len(),
                        p.ranks.len()
                    )));
                }
                if p.weights.contains(&0) {
                    return Err(PlanError::Malformed(format!(
                        "sequence {} declares a zero speed weight",
                        p.seq_index
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(len: u64, ranks: Vec<Rank>, zone: Zone) -> SeqPlacement {
        SeqPlacement {
            seq_index: 0,
            len,
            zone,
            ranks,
            mode: AttnMode::Ring,
            micro_batch: 0,
            weights: Vec::new(),
        }
    }

    fn plan(placements: Vec<SeqPlacement>) -> IterationPlan {
        IterationPlan {
            scheduler: "test".into(),
            placements,
            options: PlanOptions::default(),
            micro_batches: 1,
            redundant_attn_frac: 0.0,
        }
    }

    #[test]
    fn zigzag_tokens_are_balanced_and_conserved() {
        let p = placement(1000, vec![0, 1, 2, 3], Zone::IntraNode);
        let per: Vec<u64> = (0..4).map(|i| p.tokens_on_position(i)).collect();
        assert_eq!(per.iter().sum::<u64>(), 1000);
        // Zigzag pairs (i, 2G-1-i) keep positions within 1 token of equal.
        let max = per.iter().max().unwrap();
        let min = per.iter().min().unwrap();
        assert!(max - min <= 1, "{per:?}");
    }

    #[test]
    fn zigzag_handles_tiny_sequences() {
        let p = placement(3, vec![0, 1, 2, 3], Zone::IntraNode);
        let total: u64 = (0..4).map(|i| p.tokens_on_position(i)).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn tokens_per_rank_accumulates_across_placements() {
        let pl = plan(vec![
            placement(100, vec![0], Zone::Local),
            placement(400, vec![0, 1], Zone::IntraNode),
        ]);
        let t = pl.tokens_per_rank(4, 0);
        assert_eq!(t[0], 100 + 200);
        assert_eq!(t[1], 200);
        assert_eq!(t[2], 0);
        assert_eq!(pl.total_tokens(), 500);
    }

    #[test]
    fn tokens_per_rank_respects_micro_batches() {
        let mut a = placement(100, vec![0], Zone::Local);
        a.micro_batch = 0;
        let mut b = placement(300, vec![0], Zone::Local);
        b.micro_batch = 1;
        let mut pl = plan(vec![a, b]);
        pl.micro_batches = 2;
        assert_eq!(pl.tokens_per_rank(2, 0)[0], 100);
        assert_eq!(pl.tokens_per_rank(2, 1)[0], 300);
    }

    #[test]
    fn validate_accepts_wellformed() {
        let pl = plan(vec![placement(64, vec![0, 1, 2], Zone::IntraNode)]);
        pl.validate(4).unwrap();
    }

    #[test]
    fn validate_rejects_bad_rank_and_duplicates() {
        let pl = plan(vec![placement(64, vec![0, 9], Zone::IntraNode)]);
        assert_eq!(pl.validate(4), Err(PlanError::BadRank(9)));
        let pl = plan(vec![placement(64, vec![1, 1], Zone::IntraNode)]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_structural_errors() {
        let pl = plan(vec![placement(64, vec![], Zone::Local)]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
        let pl = plan(vec![placement(0, vec![0], Zone::Local)]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
        let pl = plan(vec![placement(64, vec![0, 1], Zone::Local)]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
        let mut bad_mb = placement(64, vec![0], Zone::Local);
        bad_mb.micro_batch = 3;
        let pl = plan(vec![bad_mb]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
    }

    #[test]
    fn weighted_placement_shifts_tokens_toward_fast_ranks() {
        let mut p = placement(1000, vec![0, 1, 2, 3], Zone::IntraNode);
        p.weights = vec![1024, 512, 1024, 1024];
        let per: Vec<u64> = (0..4).map(|i| p.tokens_on_position(i)).collect();
        assert_eq!(per.iter().sum::<u64>(), 1000);
        assert!(per[1] < per[0], "{per:?}");
        assert!(per.iter().enumerate().all(|(i, &t)| i == 1 || t > per[1]));
    }

    #[test]
    fn validate_rejects_malformed_weights() {
        let mut short = placement(64, vec![0, 1, 2], Zone::IntraNode);
        short.weights = vec![1024, 512];
        let pl = plan(vec![short]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
        let mut zero = placement(64, vec![0, 1], Zone::IntraNode);
        zero.weights = vec![1024, 0];
        let pl = plan(vec![zero]);
        assert!(matches!(pl.validate(4), Err(PlanError::Malformed(_))));
        let mut ok = placement(64, vec![0, 1], Zone::IntraNode);
        ok.weights = vec![1024, 512];
        plan(vec![ok]).validate(4).unwrap();
    }

    #[test]
    fn error_display() {
        let e = PlanError::OverCapacity {
            tokens: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("exceeds"));
        assert!(PlanError::BadRank(3).to_string().contains('3'));
    }
}
