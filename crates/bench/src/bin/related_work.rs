//! Extension exhibit: Zeppelin against the wider related-work field.
//!
//! Beyond the paper's three baselines, this compares DeepSpeed-Ulysses
//! all-to-all sequence parallelism and LoongTrain-style double-ring
//! attention (both cited in §6) across the three datasets and two scales.

use zeppelin_baselines::{DoubleRingCp, HybridDp, LlamaCp, TeCp, Ulysses};
use zeppelin_bench::harness::{ClusterKind, PAPER_SEED};
use zeppelin_bench::table::{fmt_speedup, fmt_tput, Table};
use zeppelin_core::scheduler::Scheduler;
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::datasets::paper_datasets;
use zeppelin_exec::trainer::{run_training, RunConfig};
use zeppelin_exec::StepConfig;
use zeppelin_model::config::llama_3b;

fn main() {
    const TOKENS_PER_GPU: u64 = 4096;
    const STEPS: usize = 5;
    let model = llama_3b();

    println!("Related-work comparison — LLaMA 3B on Cluster A, 4k tokens/GPU");
    println!("({STEPS} sampled steps per cell)\n");

    for nodes in [2usize, 8] {
        let cluster = ClusterKind::A.build(nodes);
        let cfg = RunConfig {
            steps: STEPS,
            tokens_per_step: TOKENS_PER_GPU * (nodes * 8) as u64,
            seed: PAPER_SEED,
            step: StepConfig::default(),
        };
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(TeCp::new()),
            Box::new(DoubleRingCp::new()),
            Box::new(Ulysses::new()),
            Box::new(LlamaCp::new()),
            Box::new(HybridDp::new()),
            Box::new(Zeppelin::new()),
        ];
        let mut table = Table::new(vec!["dataset", "method", "tokens/s", "vs TE CP"]);
        for dist in paper_datasets() {
            let mut te = None;
            for s in &schedulers {
                let ctx = zeppelin_core::scheduler::SchedulerCtx::new(&cluster, &model);
                let tput = run_training(s.as_ref(), &dist, &ctx, &cfg)
                    .map_err(|e| eprintln!("{}: {} failed: {e}", dist.name, s.name()))
                    .ok()
                    .map(|r| r.mean_throughput);
                if s.name() == "TE CP" {
                    te = tput;
                }
                table.row(vec![
                    dist.name.clone(),
                    s.name().to_string(),
                    fmt_tput(tput),
                    fmt_speedup(tput, te),
                ]);
            }
        }
        println!("{} GPUs:", nodes * 8);
        println!("{}", table.render());
    }
}
