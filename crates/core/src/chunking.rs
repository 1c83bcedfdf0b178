//! Zigzag chunk geometry and per-round ring-attention cost accounting.
//!
//! A sequence executed by a ring group of size `G` is cut into `2G` equal
//! chunks; ring position `i` owns chunks `i` and `2G-1-i` (§3.2, following
//! striped/zigzag ring attention). Under the causal mask this pairing gives
//! every position the same total attending-pair count (±rounding), unlike
//! contiguous splitting where the last rank does `~2×` the work of average.
//!
//! Ring execution runs `G` rounds: in round `r`, position `p` computes its
//! query chunks against the KV chunks originally owned by position
//! `(p - r) mod G`, while sending the KV it currently holds to `p + 1`.
//! All cost queries go through a [`RingGeometry`], built once per
//! sequence and group, and are exact (integer causal-pair counting).

use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::{attention_block_flops, flops_per_pair};
use zeppelin_model::memory::kv_bytes;

/// A chunk of a sequence: global token offset and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First global token index of the chunk.
    pub offset: u64,
    /// Chunk length in tokens.
    pub len: u64,
}

/// Chunk `c` of an equal cut into `n` chunks with `len = base·n + rem`:
/// remainder tokens go to the lowest-index chunks.
fn uniform_chunk(base: u64, rem: u64, c: u64) -> Chunk {
    Chunk {
        offset: c * base + c.min(rem),
        len: base + u64::from(c < rem),
    }
}

/// Offsets/lengths of all `2G` chunks of a sequence of length `len`.
///
/// Remainder tokens go to the lowest-index chunks, keeping sizes within one
/// token of each other.
///
/// Degenerate case: when `len < 2G` there are not enough tokens for every
/// chunk, so trailing chunks have length zero. Zero-length chunks are
/// first-class citizens of the geometry — they carry zero cost through every
/// [`RingGeometry`] query (zero attention FLOPs, zero KV tokens/bytes) and
/// ring rounds still conserve tokens exactly.
///
/// # Panics
///
/// Panics if `g == 0`.
pub fn chunks(len: u64, g: usize) -> Vec<Chunk> {
    assert!(g > 0, "ring group must be non-empty");
    let n = 2 * g as u64;
    (0..n).map(|c| uniform_chunk(len / n, len % n, c)).collect()
}

/// Fixed-point quantum for per-position speed weights: speeds are stored as
/// `round(speed * 1024)` so plans stay exactly representable, hashable, and
/// byte-identical across replays. Matches the serving cache-key quantum so a
/// plan and its cache entry never disagree about what "the same speeds" means.
pub const SPEED_WEIGHT_QUANTUM: f64 = 1024.0;

/// Whether `weights` cut equal chunks: empty, or every weight the same.
fn is_uniform(weights: &[u32]) -> bool {
    weights.iter().all(|&w| w == weights[0])
}

/// Quantizes one relative speed to a fixed-point chunk weight (min 1).
///
/// # Panics
///
/// Panics if `speed` is non-finite or not positive.
pub fn quantize_speed(speed: f64) -> u32 {
    assert!(
        speed.is_finite() && speed > 0.0,
        "rank speed must be positive and finite, got {speed}"
    );
    ((speed * SPEED_WEIGHT_QUANTUM).round() as u32).max(1)
}

/// Quantizes a relative-speed vector to fixed-point chunk weights.
///
/// # Panics
///
/// Panics if any speed is non-finite or not positive.
pub fn quantize_speeds(speeds: &[f64]) -> Vec<u32> {
    speeds.iter().map(|&s| quantize_speed(s)).collect()
}

/// Speed-proportional zigzag chunking: cuts the `2G` chunks so each ring
/// position's token share is proportional to its relative speed, with the
/// zigzag pairing intact (position `i` still owns chunks `i` and `2G-1-i`,
/// both sized by `speeds[i]`). Slow positions get shorter chunks; remainder
/// tokens go to the fastest positions.
///
/// `speeds` is per ring *position* (length `g`); an empty slice means
/// homogeneous and returns [`chunks`] exactly. Uniform speeds (all equal
/// after fixed-point quantization — see [`SPEED_WEIGHT_QUANTUM`]) are
/// bit-identical to [`chunks`].
///
/// # Panics
///
/// Panics if `g == 0`, if `speeds` is non-empty with length `!= g`, or if
/// any speed is non-finite or not positive.
pub fn chunks_weighted(len: u64, g: usize, speeds: &[f64]) -> Vec<Chunk> {
    if speeds.is_empty() {
        return chunks(len, g);
    }
    assert_eq!(
        speeds.len(),
        g,
        "speed vector must cover every ring position"
    );
    chunks_with_weights(len, g, &quantize_speeds(speeds))
}

/// [`chunks_weighted`] on already-quantized fixed-point weights (one per
/// ring position). This is the form plans carry, so the scheduler, the
/// validator, and the executor all cut from the same integers.
///
/// Allocation is exact largest-remainder: chunk `c` (owned by position
/// `min(c, 2G-1-c)`) gets `floor(len * w_c / W)` tokens, and the leftover
/// `< 2G` tokens go to the chunks with the largest fractional remainders,
/// ties broken toward the higher weight then the lower chunk index. Every
/// chunk is therefore within one token of its exact proportional share.
///
/// An empty `weights` slice, or one where all weights are equal, delegates
/// to [`chunks`] bit-identically.
///
/// # Panics
///
/// Panics if `g == 0`, if `weights` is non-empty with length `!= g`, or if
/// any weight is zero.
pub fn chunks_with_weights(len: u64, g: usize, weights: &[u32]) -> Vec<Chunk> {
    assert!(g > 0, "ring group must be non-empty");
    if is_uniform(weights) {
        return chunks(len, g);
    }
    assert_eq!(weights.len(), g, "weights must cover every ring position");
    assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
    let n = 2 * g;
    let w_of = |c: usize| u128::from(weights[c.min(n - 1 - c)]);
    let total_w: u128 = (0..n).map(w_of).sum();
    let mut lens: Vec<u64> = Vec::with_capacity(n);
    // (fractional remainder, weight, chunk index) for leftover distribution.
    let mut rems: Vec<(u128, u128, usize)> = Vec::with_capacity(n);
    let mut assigned: u64 = 0;
    for c in 0..n {
        let exact = u128::from(len) * w_of(c);
        let l = (exact / total_w) as u64;
        lens.push(l);
        assigned += l;
        rems.push((exact % total_w, w_of(c), c));
    }
    // Floors lose strictly less than one token each, so leftover < 2G.
    let mut leftover = len - assigned;
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    for &(_, _, c) in &rems {
        if leftover == 0 {
            break;
        }
        lens[c] += 1;
        leftover -= 1;
    }
    let mut out = Vec::with_capacity(n);
    let mut offset = 0;
    for &l in &lens {
        out.push(Chunk { offset, len: l });
        offset += l;
    }
    out
}

/// Zigzag chunk geometry of one sequence of `len` tokens on a ring of `g`
/// positions under per-position `weights` (empty or all-equal = uniform,
/// see [`chunks_with_weights`]).
///
/// Built once per sequence and group; every per-round query is O(1) and
/// [`RingGeometry::total_flops`] is O(G). A uniform geometry computes chunk
/// offsets arithmetically and allocates nothing; a weighted one holds its
/// `2G` chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingGeometry {
    len: u64,
    g: usize,
    base: u64,
    rem: u64,
    /// The `2G` chunks of a weighted cut; empty for a uniform one.
    weighted: Vec<Chunk>,
}

impl RingGeometry {
    /// Cuts a sequence of `len` tokens for a ring of `g` positions.
    ///
    /// # Panics
    ///
    /// Panics if `g == 0` or the weights are malformed (see
    /// [`chunks_with_weights`]).
    pub fn new(len: u64, g: usize, weights: &[u32]) -> RingGeometry {
        assert!(g > 0, "ring group must be non-empty");
        let n = 2 * g as u64;
        let weighted = if is_uniform(weights) {
            Vec::new()
        } else {
            chunks_with_weights(len, g, weights)
        };
        RingGeometry {
            len,
            g,
            base: len / n,
            rem: len % n,
            weighted,
        }
    }

    /// Sequence length in tokens.
    pub fn seq_len(&self) -> u64 {
        self.len
    }

    /// Chunk `c` of the `2G` (zigzag order: position `i` owns chunks `i`
    /// and `2G-1-i`).
    fn chunk(&self, c: usize) -> Chunk {
        match self.weighted.get(c) {
            Some(&chunk) => chunk,
            None => uniform_chunk(self.base, self.rem, c as u64),
        }
    }

    /// The two chunks owned by ring position `i` (zigzag pairing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= g`.
    pub fn position(&self, i: usize) -> [Chunk; 2] {
        assert!(i < self.g, "position {i} out of ring of size {}", self.g);
        [self.chunk(i), self.chunk(2 * self.g - 1 - i)]
    }

    /// Tokens owned by ring position `p` (both of its chunks).
    pub fn tokens(&self, p: usize) -> u64 {
        let [a, b] = self.position(p);
        a.len + b.len
    }

    /// Attention FLOPs of query position `q` against the KV chunks owned by
    /// position `kv`.
    pub fn pair_flops(&self, cfg: &ModelConfig, q: usize, kv: usize) -> f64 {
        chunk_pair_flops(cfg, self.position(q), self.position(kv))
    }

    /// Attention FLOPs computed by position `p` in round `r`.
    pub fn round_flops(&self, cfg: &ModelConfig, p: usize, r: usize) -> f64 {
        self.pair_flops(cfg, p, kv_source(self.g, p, r))
    }

    /// Bytes of KV that position `p` holds in round `r` and sends to its
    /// neighbour after it.
    pub fn round_kv_bytes(&self, cfg: &ModelConfig, p: usize, r: usize) -> f64 {
        kv_bytes(cfg, self.tokens(kv_source(self.g, p, r)))
    }

    /// Total attention FLOPs of position `p` across all `G` rounds.
    pub fn total_flops(&self, cfg: &ModelConfig, p: usize) -> f64 {
        (0..self.g).map(|r| self.round_flops(cfg, p, r)).sum()
    }
}

/// Attention FLOPs of a position's query chunks `q` against another's KV
/// chunks `kv`: the four causal blocks in order, except that a block whose
/// KV chunk starts at or after its query chunk's end is skipped. It has no
/// causal pair and would add +0.0, so skipping it changes no bit.
pub(crate) fn chunk_pair_flops(cfg: &ModelConfig, q: [Chunk; 2], kv: [Chunk; 2]) -> f64 {
    let mut flops = 0.0;
    for qc in q {
        for kc in kv {
            if kc.offset < qc.offset + qc.len {
                flops += attention_block_flops(cfg, qc.offset, qc.len, kc.offset, kc.len);
            }
        }
    }
    flops
}

/// Ring source position whose KV reaches `position` in `round`.
pub fn kv_source(g: usize, position: usize, round: usize) -> usize {
    debug_assert!(position < g && round < g);
    (position + g - round % g) % g
}

/// Attention FLOPs of a *contiguously* split position (non-zigzag): ring
/// position `i` owning the single contiguous chunk `i` of `g`. Used by the
/// chunking ablation to quantify what zigzag buys.
pub fn contiguous_position_flops(cfg: &ModelConfig, len: u64, g: usize, i: usize) -> f64 {
    assert!(i < g, "position out of range");
    let base = len / g as u64;
    let rem = len % g as u64;
    let my_len = base + u64::from((i as u64) < rem);
    let my_off: u64 = (0..i as u64).map(|c| base + u64::from(c < rem)).sum();
    // Position i attends to every earlier token plus its own causal block.
    (my_off * my_len) as f64 * flops_per_pair(cfg)
        + attention_block_flops(cfg, my_off, my_len, my_off, my_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_model::config::llama_7b;
    use zeppelin_model::flops::attention_seq_flops;

    #[test]
    fn chunks_partition_the_sequence() {
        for len in [0u64, 1, 7, 100, 1000, 4097] {
            for g in [1usize, 2, 3, 8] {
                let cs = chunks(len, g);
                assert_eq!(cs.len(), 2 * g);
                assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
                let mut expected_off = 0;
                for c in &cs {
                    assert_eq!(c.offset, expected_off);
                    expected_off += c.len;
                }
            }
        }
    }

    #[test]
    fn round_flops_decompose_exactly() {
        let cfg = llama_7b();
        for len in [64u64, 1000, 4096] {
            for g in [1usize, 2, 4, 8] {
                let geom = RingGeometry::new(len, g, &[]);
                let total: f64 = (0..g)
                    .flat_map(|p| (0..g).map(move |r| (p, r)))
                    .map(|(p, r)| geom.round_flops(&cfg, p, r))
                    .sum();
                let expected = attention_seq_flops(&cfg, len);
                assert!(
                    (total - expected).abs() / expected < 1e-12,
                    "len {len} g {g}: {total} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn zigzag_balances_positions() {
        let cfg = llama_7b();
        let len = 8192;
        let g = 8;
        let geom = RingGeometry::new(len, g, &[]);
        let per: Vec<f64> = (0..g).map(|i| geom.total_flops(&cfg, i)).collect();
        let max = per.iter().cloned().fold(0.0f64, f64::max);
        let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            (max - min) / max < 0.01,
            "zigzag imbalance too high: {per:?}"
        );
    }

    #[test]
    fn contiguous_split_is_imbalanced() {
        let cfg = llama_7b();
        let len = 8192;
        let g = 8;
        let per: Vec<f64> = (0..g)
            .map(|i| contiguous_position_flops(&cfg, len, g, i))
            .collect();
        // Last rank does far more than the first.
        assert!(per[g - 1] > 5.0 * per[0], "{per:?}");
        // But totals agree with the causal sequence cost.
        let total: f64 = per.iter().sum();
        let expected = attention_seq_flops(&cfg, len);
        assert!((total - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn kv_rotation_visits_every_source_once() {
        let g = 8;
        for p in 0..g {
            let mut seen: Vec<usize> = (0..g).map(|r| kv_source(g, p, r)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..g).collect::<Vec<_>>());
        }
    }

    #[test]
    fn round_zero_uses_own_kv() {
        assert_eq!(kv_source(8, 3, 0), 3);
        assert_eq!(kv_source(8, 3, 1), 2);
        assert_eq!(kv_source(8, 0, 1), 7);
    }

    #[test]
    fn kv_tokens_conserved_per_round() {
        // In any round, the KV chunks in flight across positions cover the
        // whole sequence exactly once.
        let len = 10000;
        let g = 4;
        let geom = RingGeometry::new(len, g, &[]);
        for r in 0..g {
            let total: u64 = (0..g).map(|p| geom.tokens(kv_source(g, p, r))).sum();
            assert_eq!(total, len);
        }
    }

    #[test]
    fn kv_bytes_use_model_width() {
        let cfg = llama_7b();
        let geom = RingGeometry::new(4096, 4, &[]);
        let b = geom.round_kv_bytes(&cfg, 0, 0);
        let tokens = geom.tokens(0);
        assert!((b - 2.0 * tokens as f64 * 4096.0 * 2.0).abs() < 1.0);
    }

    #[test]
    fn single_rank_ring_degenerates_to_local() {
        let cfg = llama_7b();
        let f = RingGeometry::new(1000, 1, &[]).round_flops(&cfg, 0, 0);
        let expected = attention_seq_flops(&cfg, 1000);
        assert!((f - expected).abs() / expected < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of ring")]
    fn bad_position_panics() {
        RingGeometry::new(100, 4, &[]).position(4);
    }

    #[test]
    fn short_sequences_yield_zero_length_chunks_with_zero_cost() {
        // len < 2G: trailing chunks are zero-length and every cost query
        // treats them as free while rounds still conserve tokens.
        let cfg = llama_7b();
        for (len, g) in [(3u64, 4usize), (1, 8), (0, 4), (7, 16)] {
            let cs = chunks(len, g);
            assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
            assert!(cs.iter().any(|c| c.len == 0), "len {len} g {g}");
            let geom = RingGeometry::new(len, g, &[]);
            for r in 0..g {
                let kv: u64 = (0..g).map(|p| geom.tokens(kv_source(g, p, r))).sum();
                assert_eq!(kv, len, "round {r} len {len} g {g}");
            }
            let total: f64 = (0..g).map(|i| geom.total_flops(&cfg, i)).sum();
            let expected = attention_seq_flops(&cfg, len);
            assert!((total - expected).abs() <= expected * 1e-9 + 1e-9);
            // Positions owning only zero-length chunks are exactly free.
            for i in 0..g {
                if geom.tokens(i) == 0 {
                    assert_eq!(geom.total_flops(&cfg, i), 0.0);
                    assert_eq!(geom.round_kv_bytes(&cfg, i, 0), 0.0);
                }
            }
        }
    }

    #[test]
    fn weighted_chunks_partition_and_favor_fast_positions() {
        let weights = [1024u32, 512, 2048, 1024];
        let cs = chunks_with_weights(10_000, 4, &weights);
        assert_eq!(cs.len(), 8);
        assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), 10_000);
        let mut offset = 0;
        for c in &cs {
            assert_eq!(c.offset, offset);
            offset += c.len;
        }
        let geom = RingGeometry::new(10_000, 4, &weights);
        let per: Vec<u64> = (0..4).map(|i| geom.tokens(i)).collect();
        // Position shares track the weight ratios: slow < uniform < fast.
        assert!(per[1] < per[0] && per[0] < per[2], "{per:?}");
        assert_eq!(per[0], per[3]);
        // Each position is within one token per chunk of its exact share.
        let wtot: u128 = weights.iter().map(|&w| 2 * u128::from(w)).sum();
        for (i, &t) in per.iter().enumerate() {
            let lhs = u128::from(t) * wtot;
            let rhs = 10_000u128 * 2 * u128::from(weights[i]);
            assert!(lhs.abs_diff(rhs) <= 2 * wtot, "position {i}: {per:?}");
        }
    }

    #[test]
    fn uniform_weights_are_bit_identical_to_unweighted() {
        for len in [0u64, 3, 1000, 4097] {
            for g in [1usize, 2, 5, 8] {
                assert_eq!(chunks_with_weights(len, g, &[]), chunks(len, g));
                assert_eq!(chunks_with_weights(len, g, &vec![777; g]), chunks(len, g));
                assert_eq!(chunks_weighted(len, g, &vec![0.25; g]), chunks(len, g));
                assert_eq!(
                    RingGeometry::new(len, g, &vec![777; g]),
                    RingGeometry::new(len, g, &[])
                );
            }
        }
    }

    #[test]
    fn weighted_rounds_conserve_flops_and_kv() {
        let cfg = llama_7b();
        let weights = [1024u32, 307, 2048, 1024, 512, 716];
        let (len, g) = (9_001u64, 6usize);
        let geom = RingGeometry::new(len, g, &weights);
        let total: f64 = (0..g)
            .flat_map(|p| (0..g).map(move |r| (p, r)))
            .map(|(p, r)| geom.round_flops(&cfg, p, r))
            .sum();
        let expected = attention_seq_flops(&cfg, len);
        assert!(
            (total - expected).abs() / expected < 1e-12,
            "{total} vs {expected}"
        );
        for r in 0..g {
            let kv: u64 = (0..g).map(|p| geom.tokens(kv_source(g, p, r))).sum();
            assert_eq!(kv, len);
        }
    }

    #[test]
    fn extreme_skew_starves_slow_positions_without_underflow() {
        // A 1024:1 weight ratio on a short sequence: the slow position ends
        // up with zero tokens and zero cost, fast positions absorb the rest.
        let cfg = llama_7b();
        let weights = [1024u32, 1, 1024, 1024];
        let len = 5u64;
        let cs = chunks_with_weights(len, 4, &weights);
        assert_eq!(cs.iter().map(|c| c.len).sum::<u64>(), len);
        let geom = RingGeometry::new(len, 4, &weights);
        assert_eq!(geom.tokens(1), 0);
        assert_eq!(geom.total_flops(&cfg, 1), 0.0);
        let total: u64 = (0..4).map(|i| geom.tokens(i)).sum();
        assert_eq!(total, len);
    }

    #[test]
    fn quantization_is_stable_and_bounded() {
        assert_eq!(quantize_speed(1.0), 1024);
        assert_eq!(quantize_speed(0.5), 512);
        // Sub-quantum speeds clamp to the minimum weight instead of zero.
        assert_eq!(quantize_speed(1e-9), 1);
        assert_eq!(quantize_speeds(&[1.0, 0.25]), vec![1024, 256]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_finite_speed_panics() {
        quantize_speed(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "cover every ring position")]
    fn short_weight_vector_panics() {
        chunks_weighted(100, 4, &[1.0, 0.5]);
    }
}
