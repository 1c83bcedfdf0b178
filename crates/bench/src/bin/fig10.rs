//! Fig. 10: speedup comparison on Clusters A and B.
//!
//! Same 3B workload on both clusters (4 nodes, 4k tokens/GPU). Cluster B's
//! Hopper GPUs and one-NIC-per-GPU fabric raise absolute throughput for
//! everyone; Cluster A's larger computation-to-communication gap gives
//! Zeppelin a larger *relative* speedup — the paper's §5.2 observation.

use zeppelin_bench::harness::{methods, run_method, ClusterKind, PAPER_SEED};
use zeppelin_bench::table::{fmt_speedup, fmt_tput, Table};
use zeppelin_data::datasets::paper_datasets;
use zeppelin_exec::trainer::RunConfig;
use zeppelin_exec::StepConfig;
use zeppelin_model::config::llama_3b;

fn main() {
    const NODES: usize = 4;
    const TOKENS_PER_GPU: u64 = 4096;
    let steps: usize = std::env::var("FIG10_STEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let model = llama_3b();
    let tokens = TOKENS_PER_GPU * (NODES * 8) as u64;

    println!("Fig. 10 — Cluster A vs Cluster B, LLaMA 3B, {NODES} nodes");
    println!("({steps} sampled steps per cell)\n");

    let mut avg_speedup = std::collections::BTreeMap::new();
    for kind in [ClusterKind::A, ClusterKind::B] {
        let cluster = kind.build(NODES);
        let cfg = RunConfig {
            steps,
            tokens_per_step: tokens,
            seed: PAPER_SEED,
            step: StepConfig::default(),
        };
        let mut table = Table::new(vec![
            "dataset",
            "TE CP",
            "LLaMA CP",
            "Hybrid DP",
            "Zeppelin",
            "speedup",
        ]);
        let mut speedups = Vec::new();
        for dist in paper_datasets() {
            let tputs: Vec<Option<f64>> = methods()
                .iter()
                .map(|m| run_method(m, &dist, &cluster, &model, &cfg).throughput)
                .collect();
            if let (Some(te), Some(z)) = (tputs[0], tputs[3]) {
                speedups.push(z / te);
            }
            table.row(vec![
                dist.name.clone(),
                fmt_tput(tputs[0]),
                fmt_tput(tputs[1]),
                fmt_tput(tputs[2]),
                fmt_tput(tputs[3]),
                fmt_speedup(tputs[3], tputs[0]),
            ]);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        avg_speedup.insert(kind.label(), avg);
        println!("{} (avg Zeppelin speedup {avg:.2}x):", kind.label());
        println!("{}", table.render());
    }
    println!(
        "avg Zeppelin speedup: {:.2}x on Cluster A vs {:.2}x on Cluster B",
        avg_speedup["Cluster A"], avg_speedup["Cluster B"]
    );
    println!(
        "KNOWN DEVIATION: the paper measures the larger *relative* speedup on\n\
         Cluster A; here it is larger on Cluster B. The cause is open. It is\n\
         not kernel calibration: with the attention kernel's efficiency swept\n\
         from 50% down to the paper's ~8% of peak, B's speedup stays larger\n\
         and TE CP's throughput does not move. The leading hypothesis is TE\n\
         CP's ring overlap: the paper's Fig. 12 per-round costs add up (comm\n\
         plus compute), so its TE CP does not hide ring communication under\n\
         compute, while this simulator's lowering overlaps the two. See\n\
         EXPERIMENTS.md."
    );
}
