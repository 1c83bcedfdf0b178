//! Fig. 3: where existing balancing schemes spend their attention budget.
//!
//! Setup mirrors the paper: 2 nodes × 8 A800 GPUs, 64k total context,
//! costs aggregated over many sampled batches and normalized to each
//! dataset's total attention cost, split across sequence-length bins.
//!
//! (a) **Packing**: useful causal pairs vs redundant cross-sequence pairs
//!     per length bin — short-sequence corpora waste most of their budget.
//! (b) **Even-split CP (TE)**: attention compute time vs ring send-receive
//!     time per length bin — short sequences drown in communication.

use rand::rngs::StdRng;

use zeppelin_baselines::packing::pack_into_bins_tagged;
use zeppelin_bench::harness::{paper_rng, paper_testbed};
use zeppelin_bench::table::Table;
use zeppelin_core::cost::CostModel;
use zeppelin_data::batch::sample_batch;
use zeppelin_data::datasets::{fig1_datasets, paper_datasets};
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_data::stats::table2_edges;
use zeppelin_model::flops::{causal_pairs_full, flops_per_pair};
use zeppelin_model::memory::kv_bytes;

const RANKS: usize = 16;
const TOTAL: u64 = 65_536;
const BATCHES: usize = 30;

fn bin_label(edges: &[u64], len: u64) -> usize {
    edges
        .windows(2)
        .position(|w| len >= w[0] && len < w[1])
        .unwrap_or(edges.len() - 2)
}

/// Fig. 3a: per-bin useful vs redundant packed-attention FLOPs.
fn packing_analysis(dist: &LengthDistribution, rng: &mut StdRng, edges: &[u64]) -> Vec<(f64, f64)> {
    let nbins = edges.len() - 1;
    let mut useful = vec![0.0f64; nbins];
    let mut redundant = vec![0.0f64; nbins];
    for _ in 0..BATCHES {
        let batch = sample_batch(dist, rng, TOTAL);
        let windows = pack_into_bins_tagged(&batch.seqs, RANKS);
        for window in windows {
            let mut before = 0u64;
            for (orig, len) in window {
                let bin = bin_label(edges, batch.seqs[orig]);
                // Within-segment causal pairs are useful; attention to the
                // earlier (foreign) tokens of the window is pure waste.
                useful[bin] += causal_pairs_full(len) as f64;
                redundant[bin] += (len * before) as f64;
                before += len;
            }
        }
    }
    let total: f64 = useful.iter().sum::<f64>() + redundant.iter().sum::<f64>();
    useful
        .iter()
        .zip(&redundant)
        .map(|(&u, &r)| (u / total, r / total))
        .collect()
}

/// Fig. 3b: per-bin attention compute time vs ring communication time under
/// even-split CP across all 16 ranks.
fn cp_analysis(dist: &LengthDistribution, rng: &mut StdRng, edges: &[u64]) -> Vec<(f64, f64)> {
    let (cluster, cfg, _) = paper_testbed();
    let cost = CostModel::base(&cluster);
    let inter_bw = cluster.direct_internode_bw();
    let nbins = edges.len() - 1;
    let mut compute = vec![0.0f64; nbins];
    let mut comm = vec![0.0f64; nbins];
    for _ in 0..BATCHES {
        let batch = sample_batch(dist, rng, TOTAL);
        for &len in &batch.seqs {
            let bin = bin_label(edges, len);
            // Whole-sequence attention compute, spread over the group.
            let flops = causal_pairs_full(len) as f64 * flops_per_pair(&cfg);
            compute[bin] += cost.base_attention_secs(flops / RANKS as f64) * RANKS as f64;
            // Each rank ships the sequence's full KV once around the ring;
            // the slowest hops are the NIC-limited inter-node crossings.
            comm[bin] += kv_bytes(&cfg, len) / inter_bw * 2.0; // two crossings.
        }
    }
    let total: f64 = compute.iter().sum::<f64>() + comm.iter().sum::<f64>();
    compute
        .iter()
        .zip(&comm)
        .map(|(&c, &m)| (c / total, m / total))
        .collect()
}

fn main() {
    let edges = table2_edges();
    let mut rng = paper_rng(0);

    println!("Fig. 3 — attention cost distribution per length bin");
    println!("(2 nodes x 8 A800, 64k total context, {BATCHES} sampled batches)\n");

    println!("(a) packing: share of attention FLOPs, useful vs redundant");
    let mut datasets = paper_datasets();
    // StackExchange is the paper's worst case for packing waste.
    datasets.extend(
        fig1_datasets()
            .into_iter()
            .filter(|d| d.name == "StackExchange"),
    );
    for dist in &datasets {
        let rows = packing_analysis(dist, &mut rng, &edges);
        let mut table = Table::new(vec!["bin", "useful", "redundant", "waste frac"]);
        for (i, w) in edges.windows(2).enumerate() {
            let (u, r) = rows[i];
            if u + r < 1e-6 {
                continue;
            }
            table.row(vec![
                format!("{}-{}k", w[0] / 1024, w[1] / 1024),
                format!("{u:.3}"),
                format!("{r:.3}"),
                format!("{:.0}%", 100.0 * r / (u + r)),
            ]);
        }
        let waste: f64 = rows.iter().map(|(_, r)| r).sum();
        println!(
            "\n{} (total redundant share {:.0}%):",
            dist.name,
            100.0 * waste
        );
        println!("{}", table.render());
    }

    println!("\n(b) even-split CP: share of attention time, compute vs communication");
    for dist in paper_datasets() {
        let rows = cp_analysis(&dist, &mut rng, &edges);
        let mut table = Table::new(vec!["bin", "compute", "comm", "comm frac"]);
        for (i, w) in edges.windows(2).enumerate() {
            let (c, m) = rows[i];
            if c + m < 1e-6 {
                continue;
            }
            table.row(vec![
                format!("{}-{}k", w[0] / 1024, w[1] / 1024),
                format!("{c:.3}"),
                format!("{m:.3}"),
                format!("{:.0}%", 100.0 * m / (c + m)),
            ]);
        }
        let comm: f64 = rows.iter().map(|(_, m)| m).sum();
        println!(
            "\n{} (total communication share {:.0}%):",
            dist.name,
            100.0 * comm
        );
        println!("{}", table.render());
    }
}
