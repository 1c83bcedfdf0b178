//! Criterion benchmarks of the cost-model hot paths: causal pair counting
//! and per-round ring cost queries on a prebuilt [`RingGeometry`]. The
//! queries run inside every lowering of every ring round, so they must
//! stay in the tens of nanoseconds.

use criterion::{criterion_group, criterion_main, Criterion};

use zeppelin_core::chunking::RingGeometry;
use zeppelin_model::config::llama_7b;
use zeppelin_model::flops::{attention_block_flops, causal_pairs};

fn bench_causal_pairs(c: &mut Criterion) {
    c.bench_function("causal_pairs", |b| {
        b.iter(|| {
            causal_pairs(
                std::hint::black_box(10_000),
                std::hint::black_box(4_096),
                std::hint::black_box(2_000),
                std::hint::black_box(4_096),
            )
        })
    });
    let cfg = llama_7b();
    c.bench_function("attention_block_flops", |b| {
        b.iter(|| attention_block_flops(&cfg, 10_000, 4_096, 2_000, 4_096))
    });
}

fn bench_ring_round(c: &mut Criterion) {
    let cfg = llama_7b();
    let geom = RingGeometry::new(131_072, 16, &[]);
    c.bench_function("ring_round_flops_g16", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in 0..16 {
                for r in 0..16 {
                    acc += geom.round_flops(&cfg, p, r);
                }
            }
            std::hint::black_box(acc)
        })
    });
    c.bench_function("ring_round_kv_bytes_g16", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for p in 0..16 {
                acc += geom.round_kv_bytes(&cfg, p, 3);
            }
            std::hint::black_box(acc)
        })
    });
}

criterion_group!(benches, bench_causal_pairs, bench_ring_round);
criterion_main!(benches);
