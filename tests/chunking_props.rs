//! Property-based tests of the zigzag chunk math that all ring cost
//! accounting rests on, plus a bit-for-bit differential check of
//! [`RingGeometry`] against the per-call cost functions it replaced.
//!
//! Honors `PROPTEST_CASES` like the other property suites; CI runs this
//! file in the deep sweep.

use proptest::prelude::*;

use zeppelin::core::chunking::{chunks, kv_source, Chunk, RingGeometry};
use zeppelin::model::config::llama_3b;
use zeppelin::model::flops::attention_seq_flops;

/// The per-call cost functions `RingGeometry` replaced, kept as the
/// oracle: every query rebuilds all `2G` chunks (uniform cuts with a
/// cumulative offset walk), then picks the two a position owns.
mod oracle {
    use zeppelin::core::chunking::{chunks_with_weights, kv_source, Chunk};
    use zeppelin::model::config::ModelConfig;
    use zeppelin::model::flops::attention_block_flops;
    use zeppelin::model::memory::kv_bytes;

    pub fn chunks(len: u64, g: usize) -> Vec<Chunk> {
        let n = 2 * g as u64;
        let base = len / n;
        let rem = len % n;
        let mut out = Vec::with_capacity(n as usize);
        let mut offset = 0;
        for c in 0..n {
            let l = base + u64::from(c < rem);
            out.push(Chunk { offset, len: l });
            offset += l;
        }
        out
    }

    pub fn position_chunks(len: u64, g: usize, weights: &[u32], i: usize) -> [Chunk; 2] {
        let all = if weights.iter().all(|&w| w == weights[0]) {
            chunks(len, g)
        } else {
            chunks_with_weights(len, g, weights)
        };
        [all[i], all[2 * g - 1 - i]]
    }

    pub fn pair_flops(
        cfg: &ModelConfig,
        len: u64,
        g: usize,
        weights: &[u32],
        q_pos: usize,
        kv_pos: usize,
    ) -> f64 {
        let q = position_chunks(len, g, weights, q_pos);
        let kv = position_chunks(len, g, weights, kv_pos);
        let mut flops = 0.0;
        for qc in q {
            for kc in kv {
                flops += attention_block_flops(cfg, qc.offset, qc.len, kc.offset, kc.len);
            }
        }
        flops
    }

    pub fn round_flops(
        cfg: &ModelConfig,
        len: u64,
        g: usize,
        weights: &[u32],
        position: usize,
        round: usize,
    ) -> f64 {
        pair_flops(
            cfg,
            len,
            g,
            weights,
            position,
            kv_source(g, position, round),
        )
    }

    pub fn tokens(len: u64, g: usize, weights: &[u32], position: usize) -> u64 {
        position_chunks(len, g, weights, position)
            .iter()
            .map(|c| c.len)
            .sum()
    }

    pub fn round_kv_tokens(
        len: u64,
        g: usize,
        weights: &[u32],
        position: usize,
        round: usize,
    ) -> u64 {
        tokens(len, g, weights, kv_source(g, position, round))
    }

    pub fn round_kv_bytes(
        cfg: &ModelConfig,
        len: u64,
        g: usize,
        weights: &[u32],
        position: usize,
        round: usize,
    ) -> f64 {
        kv_bytes(cfg, round_kv_tokens(len, g, weights, position, round))
    }

    pub fn total_flops(cfg: &ModelConfig, len: u64, g: usize, weights: &[u32], i: usize) -> f64 {
        (0..g)
            .map(|r| round_flops(cfg, len, g, weights, i, r))
            .sum()
    }
}

/// Per-position weights for a ring of `g`: empty, uniform, skewed, or a
/// 1024:1 mix of fast and slow positions.
fn arb_weights(g: usize) -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        Just(Vec::new()),
        (1u32..4096).prop_map(move |w| vec![w; g]),
        prop::collection::vec(1u32..=2048, g),
        prop::collection::vec(prop_oneof![Just(1u32), Just(1024u32)], g),
    ]
}

fn arb_ring() -> impl Strategy<Value = (u64, usize, Vec<u32>)> {
    (0u64..200_000, 1usize..=64)
        .prop_flat_map(|(len, g)| arb_weights(g).prop_map(move |w| (len, g, w)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chunks_partition_any_sequence(len in 0u64..200_000, g in 1usize..64) {
        let cs = chunks(len, g);
        prop_assert_eq!(cs.len(), 2 * g);
        prop_assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
        let mut offset = 0;
        for c in &cs {
            prop_assert_eq!(c.offset, offset);
            offset += c.len;
        }
        // Sizes within one token of each other.
        let max = cs.iter().map(|c| c.len).max().unwrap();
        let min = cs.iter().map(|c| c.len).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn position_tokens_sum_to_len(len in 0u64..200_000, g in 1usize..48) {
        let geom = RingGeometry::new(len, g, &[]);
        let total: u64 = (0..g).map(|p| geom.tokens(p)).sum();
        prop_assert_eq!(total, len);
    }

    #[test]
    fn ring_rounds_conserve_flops(len in 1u64..50_000, g in 1usize..24) {
        let cfg = llama_3b();
        let geom = RingGeometry::new(len, g, &[]);
        let total: f64 = (0..g)
            .flat_map(|p| (0..g).map(move |r| (p, r)))
            .map(|(p, r)| geom.round_flops(&cfg, p, r))
            .sum();
        let expected = attention_seq_flops(&cfg, len);
        prop_assert!((total - expected).abs() <= expected * 1e-9 + 1.0);
    }

    #[test]
    fn pairwise_flops_cover_the_grid_once(len in 1u64..50_000, g in 1usize..16) {
        // Summing pair_flops over all (q, kv) pairs must equal the
        // per-round decomposition (both enumerate each pair exactly once).
        let cfg = llama_3b();
        let geom = RingGeometry::new(len, g, &[]);
        let by_pairs: f64 = (0..g)
            .flat_map(|q| (0..g).map(move |kv| (q, kv)))
            .map(|(q, kv)| geom.pair_flops(&cfg, q, kv))
            .sum();
        let by_rounds: f64 = (0..g)
            .flat_map(|p| (0..g).map(move |r| (p, r)))
            .map(|(p, r)| geom.round_flops(&cfg, p, r))
            .sum();
        prop_assert!((by_pairs - by_rounds).abs() <= by_pairs * 1e-12 + 1.0);
    }

    #[test]
    fn zigzag_positions_balance_within_rounding(len in 4_096u64..200_000, g in 2usize..32) {
        let cfg = llama_3b();
        let geom = RingGeometry::new(len, g, &[]);
        let per: Vec<f64> = (0..g).map(|p| geom.total_flops(&cfg, p)).collect();
        let max = per.iter().cloned().fold(0.0f64, f64::max);
        let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
        // Long sequences balance tightly; short ones are rounding-bound.
        let tolerance = if len as usize > 64 * g { 0.05 } else { 0.8 };
        prop_assert!(
            (max - min) / max <= tolerance,
            "imbalance {} at len {} g {}", (max - min) / max, len, g
        );
    }

    #[test]
    fn kv_rotation_is_a_permutation_every_round(g in 1usize..64, r in 0usize..64) {
        prop_assume!(r < g);
        let mut seen: Vec<usize> = (0..g).map(|p| kv_source(g, p, r)).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..g).collect::<Vec<_>>());
    }

    #[test]
    fn in_flight_kv_covers_the_sequence(len in 0u64..100_000, g in 1usize..24, r in 0usize..24) {
        prop_assume!(r < g);
        let geom = RingGeometry::new(len, g, &[]);
        let total: u64 = (0..g).map(|p| geom.tokens(kv_source(g, p, r))).sum();
        prop_assert_eq!(total, len);
    }

    /// Every `RingGeometry` query equals the per-call oracle bit for bit,
    /// for uniform and weighted cuts alike; the uniform chunk arithmetic
    /// equals the oracle's cumulative offset walk.
    #[test]
    fn geometry_matches_the_per_call_oracle_bit_for_bit(
        (len, g, weights) in arb_ring(),
        p in 0usize..64,
        r in 0usize..64,
        kv in 0usize..64,
    ) {
        let cfg = llama_3b();
        let (p, r, kv) = (p % g, r % g, kv % g);
        let geom = RingGeometry::new(len, g, &weights);
        prop_assert_eq!(geom.seq_len(), len);
        prop_assert_eq!(chunks(len, g), oracle::chunks(len, g));
        for i in 0..g {
            let want: [Chunk; 2] = oracle::position_chunks(len, g, &weights, i);
            prop_assert_eq!(geom.position(i), want, "position {}", i);
            prop_assert_eq!(geom.tokens(i), oracle::tokens(len, g, &weights, i));
        }
        prop_assert_eq!(
            geom.pair_flops(&cfg, p, kv).to_bits(),
            oracle::pair_flops(&cfg, len, g, &weights, p, kv).to_bits()
        );
        prop_assert_eq!(
            geom.round_flops(&cfg, p, r).to_bits(),
            oracle::round_flops(&cfg, len, g, &weights, p, r).to_bits()
        );
        prop_assert_eq!(
            geom.round_kv_bytes(&cfg, p, r).to_bits(),
            oracle::round_kv_bytes(&cfg, len, g, &weights, p, r).to_bits()
        );
        prop_assert_eq!(
            geom.total_flops(&cfg, p).to_bits(),
            oracle::total_flops(&cfg, len, g, &weights, p).to_bits()
        );
    }
}
