//! Remapping layer (§3.4): token-balanced layouts for linear modules.
//!
//! The attention-optimal placement leaves per-rank token counts uneven;
//! linear modules (projections, MLPs, MoE) want them flat. Before the linear
//! modules the remapping layer moves tokens to the balanced layout, and
//! moves them back afterwards at the same cost. The transfer plan minimizes
//! the *maximum* per-sender cost (Eq. 2), solved exactly by
//! [`zeppelin_solver::bottleneck`].

use zeppelin_sim::topology::ClusterSpec;
use zeppelin_solver::bottleneck::{solve_bottleneck, solve_bottleneck_to, RemapPlan, RemapProblem};

/// Builds and solves the Eq. 2 remapping instance for the given per-rank
/// token counts on `cluster`.
///
/// Costs are the inverse bandwidths of the cluster: `1/B_intra` for
/// same-node pairs, `1/B_inter` (NIC-limited) otherwise.
///
/// # Panics
///
/// Panics if `tokens` does not have one entry per cluster rank.
pub fn plan_remap(cluster: &ClusterSpec, tokens: &[u64]) -> RemapPlan {
    assert_eq!(
        tokens.len(),
        cluster.total_gpus(),
        "token vector must cover every rank"
    );
    let node_of: Vec<usize> = (0..tokens.len()).map(|r| cluster.node_of(r)).collect();
    let problem = RemapProblem {
        tokens: tokens.to_vec(),
        node_of,
        intra_cost: 1.0 / cluster.intranode_bw(),
        inter_cost: 1.0 / cluster.direct_internode_bw(),
    };
    solve_bottleneck(&problem)
}

/// Like [`plan_remap`], but rebalances towards *speed-proportional* targets
/// (straggler-aware linear modules): rank `i` receives
/// `round(total · speed_i / Σ speed)` tokens, remainder to the fastest
/// ranks, so every rank's linear kernel finishes together.
///
/// # Panics
///
/// Panics if the vectors do not cover every rank or a speed is not
/// strictly positive.
pub fn plan_remap_weighted(cluster: &ClusterSpec, tokens: &[u64], speed: &[f64]) -> RemapPlan {
    assert_eq!(
        tokens.len(),
        cluster.total_gpus(),
        "token vector must cover every rank"
    );
    assert_eq!(speed.len(), tokens.len(), "one speed factor per rank");
    assert!(
        speed.iter().all(|&v| v > 0.0 && v.is_finite()),
        "speed factors must be positive"
    );
    let total: u64 = tokens.iter().sum();
    let weight_sum: f64 = speed.iter().sum();
    // Floor-allocate, then hand the remainder to the fastest ranks. Float
    // rounding can push a floor one token past its exact share, so no
    // target may take more than the tokens still unassigned.
    let mut rest = total;
    let mut targets: Vec<u64> = speed
        .iter()
        .map(|&w| {
            let t = ((total as f64 * w / weight_sum).floor() as u64).min(rest);
            rest -= t;
            t
        })
        .collect();
    let mut order: Vec<usize> = (0..speed.len()).collect();
    order.sort_by(|&a, &b| {
        speed[b]
            .partial_cmp(&speed[a])
            .expect("finite")
            .then(a.cmp(&b))
    });
    let mut cursor = 0usize;
    while rest > 0 {
        targets[order[cursor % order.len()]] += 1;
        cursor += 1;
        rest -= 1;
    }
    let node_of: Vec<usize> = (0..tokens.len()).map(|r| cluster.node_of(r)).collect();
    let problem = RemapProblem {
        tokens: tokens.to_vec(),
        node_of,
        intra_cost: 1.0 / cluster.intranode_bw(),
        inter_cost: 1.0 / cluster.direct_internode_bw(),
    };
    solve_bottleneck_to(&problem, targets)
}

/// Whether a remap is worth performing: the imbalance must exceed `slack`
/// (fraction above the mean) to justify the transfer latency.
pub fn needs_remap(tokens: &[u64], slack: f64) -> bool {
    if tokens.is_empty() {
        return false;
    }
    let total: u64 = tokens.iter().sum();
    if total == 0 {
        return false;
    }
    let mean = total as f64 / tokens.len() as f64;
    let max = *tokens.iter().max().expect("non-empty") as f64;
    max > mean * (1.0 + slack)
}

/// Speed-aware remap trigger: compares each rank's *time* share
/// (`tokens_i / speed_i`) against the balanced completion time
/// (`total / Σ speed`) — a flat token layout on a heterogeneous cluster
/// still needs remapping.
///
/// # Panics
///
/// Panics if the vectors' lengths differ or a speed is not positive.
pub fn needs_remap_weighted(tokens: &[u64], speed: &[f64], slack: f64) -> bool {
    assert_eq!(tokens.len(), speed.len(), "one speed factor per rank");
    assert!(
        speed.iter().all(|&v| v > 0.0 && v.is_finite()),
        "speed factors must be positive"
    );
    if tokens.is_empty() {
        return false;
    }
    let total: u64 = tokens.iter().sum();
    if total == 0 {
        return false;
    }
    let balanced_time = total as f64 / speed.iter().sum::<f64>();
    let max_time = tokens
        .iter()
        .zip(speed)
        .map(|(&t, &v)| t as f64 / v)
        .fold(0.0f64, f64::max);
    max_time > balanced_time * (1.0 + slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_sim::topology::cluster_a;

    #[test]
    fn remap_flattens_tokens() {
        let c = cluster_a(2);
        let mut tokens = vec![0u64; 16];
        tokens[0] = 32_000;
        tokens[5] = 16_000;
        let plan = plan_remap(&c, &tokens);
        let after = plan.apply(&tokens);
        assert_eq!(after, plan.targets);
        let max = after.iter().max().unwrap();
        let min = after.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn balanced_input_needs_nothing() {
        let c = cluster_a(1);
        let tokens = vec![4096u64; 8];
        let plan = plan_remap(&c, &tokens);
        assert!(plan.moves.is_empty());
        assert!(!needs_remap(&tokens, 0.05));
    }

    #[test]
    fn intra_moves_preferred_on_cluster_a() {
        let c = cluster_a(2);
        // Node 0 internally imbalanced but node-balanced vs node 1.
        let tokens = vec![
            8000, 0, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000,
            4000,
        ];
        let plan = plan_remap(&c, &tokens);
        for m in &plan.moves {
            assert!(c.same_node(m.from, m.to), "unexpected cross move {m:?}");
        }
    }

    #[test]
    fn weighted_trigger_fires_on_flat_tokens_with_stragglers() {
        let tokens = vec![1000u64; 4];
        assert!(!needs_remap(&tokens, 0.05));
        assert!(!needs_remap_weighted(&tokens, &[1.0; 4], 0.05));
        assert!(needs_remap_weighted(&tokens, &[1.0, 1.0, 0.5, 1.0], 0.05));
    }

    #[test]
    fn weighted_remap_targets_follow_speed() {
        let c = cluster_a(1);
        let tokens = vec![4000u64; 8];
        let mut speed = vec![1.0; 8];
        speed[2] = 0.5; // Straggler gets half the tokens.
        let plan = plan_remap_weighted(&c, &tokens, &speed);
        let after = plan.apply(&tokens);
        assert_eq!(after.iter().sum::<u64>(), 32_000);
        // Slow rank holds ~ total * 0.5/7.5.
        let expect = (32_000.0 * 0.5 / 7.5) as u64;
        assert!(after[2].abs_diff(expect) <= 1, "{after:?}");
        // Fast ranks hold more than the slow one.
        assert!(after
            .iter()
            .enumerate()
            .all(|(i, &t)| i == 2 || t > after[2]));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_remap_rejects_zero_speed() {
        let c = cluster_a(1);
        plan_remap_weighted(&c, &[1; 8], &[0.0; 8]);
    }

    #[test]
    fn needs_remap_threshold() {
        assert!(needs_remap(&[100, 100, 100, 160], 0.05));
        assert!(!needs_remap(&[100, 100, 100, 104], 0.05));
        assert!(!needs_remap(&[], 0.05));
        assert!(!needs_remap(&[0, 0], 0.05));
    }

    #[test]
    #[should_panic(expected = "every rank")]
    fn wrong_length_panics() {
        plan_remap(&cluster_a(1), &[1, 2, 3]);
    }
}
