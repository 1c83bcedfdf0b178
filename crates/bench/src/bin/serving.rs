//! Serving exhibit: what the canonicalizing plan cache buys an online
//! planning service (DESIGN.md §8).
//!
//! Per-dataset planner throughput on repeated-shape request streams —
//! `ROUNDS` rounds over a small pool of distinct batch shapes, once
//! verbatim (hits are zero-copy shared handles) and once re-ordered every
//! round (hits re-index through the sort permutation). Uncached replans
//! every request; cached plans each distinct shape once.

use std::time::Instant;

use zeppelin_bench::harness::{paper_rng, paper_testbed_nodes};
use zeppelin_bench::table::Table;
use zeppelin_core::scheduler::Scheduler;
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::datasets::paper_datasets;
use zeppelin_serve::cache::PlanCache;

const DISTINCT_SHAPES: usize = 6;
/// Times each request stream replays the distinct shapes.
const ROUNDS: usize = 25;
/// Cache study scale: a production-sized planning problem (8 nodes, 2M-token
/// global batches) where the partitioner itself is the bottleneck.
const CACHE_NODES: usize = 8;
const CACHE_TOKENS: u64 = 2_097_152;

/// A same-multiset, differently-ordered view of `batch`: forces the cache
/// hit path through the canonical permutation instead of a verbatim copy.
fn rotated(batch: &Batch, k: usize) -> Batch {
    let mut seqs = batch.seqs.clone();
    let n = seqs.len();
    seqs.rotate_left(k % n.max(1));
    Batch::new(seqs)
}

fn main() {
    let (_, _, cache_ctx) = paper_testbed_nodes(CACHE_NODES);
    let zeppelin = Zeppelin::new();

    println!("Serving study — Zeppelin planner as an online service");
    println!("(3B on Cluster A, {DISTINCT_SHAPES} distinct shapes x {ROUNDS} rounds)\n");

    println!(
        "plan-cache throughput on repeated-shape request streams \
         ({CACHE_NODES} nodes, {CACHE_TOKENS} tokens/batch)"
    );
    let mut table = Table::new(vec![
        "dataset",
        "uncached plans/s",
        "repeated (hits)",
        "reordered (hits)",
        "speedup",
        "hit rate",
    ]);
    for dist in paper_datasets() {
        let mut rng = paper_rng(0);
        let shapes: Vec<Batch> = (0..DISTINCT_SHAPES)
            .map(|_| sample_batch(&dist, &mut rng, CACHE_TOKENS))
            .collect();
        // Repeated stream: a length-bucketed loader re-emits identical
        // descending-sorted batches — hits are zero-copy shared handles.
        // Reordered stream: the same multisets in a different order each
        // round — hits re-index through the sort permutation (the cache's
        // worst case).
        let repeated: Vec<Batch> = (0..ROUNDS)
            .flat_map(|_| {
                shapes.iter().map(|b| {
                    let mut seqs = b.seqs.clone();
                    seqs.sort_unstable_by(|a, b| b.cmp(a));
                    Batch::new(seqs)
                })
            })
            .collect();
        let reordered: Vec<Batch> = (0..ROUNDS)
            .flat_map(|r| shapes.iter().map(move |b| rotated(b, r + 1)))
            .collect();

        let start = Instant::now();
        for batch in &repeated {
            zeppelin.plan(batch, &cache_ctx).expect("uncached plan");
        }
        let uncached = repeated.len() as f64 / start.elapsed().as_secs_f64();

        let throughput = |stream: &[Batch]| {
            let mut cache = PlanCache::new(256);
            let start = Instant::now();
            for batch in stream {
                cache
                    .get_or_plan(&zeppelin, batch, &cache_ctx)
                    .expect("cached plan");
            }
            let rate = stream.len() as f64 / start.elapsed().as_secs_f64();
            (rate, cache.stats())
        };
        let (hot, stats) = throughput(&repeated);
        let (reidx, _) = throughput(&reordered);

        table.row(vec![
            dist.name.clone(),
            format!("{uncached:.0}"),
            format!("{hot:.0}"),
            format!("{reidx:.0}"),
            format!("{:.1}x", hot / uncached),
            format!("{:.1}%", stats.hit_rate() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("(speedup = repeated-stream plans/s over uncached; reordered");
    println!(" hits pay one placement re-index through the sort permutation)");
}
