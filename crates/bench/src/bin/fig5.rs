//! Fig. 5: attention compute vs send-receive cost curves and the three-zone
//! split.
//!
//! For sequence lengths from 256 to 256k tokens, prints the attention
//! computation time on one A800 against the KV send-receive time at
//! intra-node (400 GB/s) and inter-node (200 Gb/s) bandwidths, then the
//! crossover-derived zone thresholds for each paper model.

use zeppelin_bench::harness::paper_testbed;
use zeppelin_bench::table::Table;
use zeppelin_core::cost::CostModel;
use zeppelin_core::zones::{attn_compute_time, kv_transfer_time, zone_thresholds};
use zeppelin_model::config::{llama_3b, llama_7b, paper_models};

fn main() {
    let (cluster, _, _) = paper_testbed();
    let cost = CostModel::base(&cluster);
    let intra_bw = cluster.intranode_bw();
    let inter_bw = cluster.direct_internode_bw();

    println!("Fig. 5 — attention compute vs KV send-receive cost (A800)");
    println!("(400 GB/s intra-node, 200 Gb/s inter-node)\n");

    for cfg in [llama_3b(), llama_7b()] {
        let mut table = Table::new(vec![
            "seq len",
            "compute (ms)",
            "intra xfer (ms)",
            "inter xfer (ms)",
            "zone",
        ]);
        let thresholds = zone_thresholds(&cfg, &cluster);
        let mut s = 256u64;
        while s <= 256 * 1024 {
            let compute = attn_compute_time(&cfg, &cost, s) * 1e3;
            let intra = kv_transfer_time(&cfg, intra_bw, s) * 1e3;
            let inter = kv_transfer_time(&cfg, inter_bw, s) * 1e3;
            table.row(vec![
                format!("{s}"),
                format!("{compute:.3}"),
                format!("{intra:.3}"),
                format!("{inter:.3}"),
                format!("{:?}", thresholds.classify(s)),
            ]);
            s *= 2;
        }
        println!(
            "{} (zones: local < {}, intra-node < {}, inter-node above)",
            cfg.name, thresholds.local_max, thresholds.intra_max
        );
        println!("{}", table.render());
    }

    println!("zone thresholds per model (Cluster A):");
    let mut table = Table::new(vec!["model", "local max", "intra-node max"]);
    for cfg in paper_models() {
        let t = zone_thresholds(&cfg, &cluster);
        table.row(vec![
            cfg.name.clone(),
            format!("{}", t.local_max),
            format!("{}", t.intra_max),
        ]);
    }
    println!("{}", table.render());
}
