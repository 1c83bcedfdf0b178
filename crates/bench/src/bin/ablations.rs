//! Design-choice ablations beyond the paper's Fig. 11 (DESIGN.md §6):
//!
//! 1. routing proxy-count sweep (Eq. 1 analytic vs simulated);
//! 2. routing pipeline depth;
//! 3. zigzag vs contiguous causal chunking (balance analysis);
//! 4. attention-engine queue ordering;
//! 5. gradient-sync overlap;
//! 6. remapping slack threshold;
//! 7. hierarchical vs flat (topology-blind) quadratic partitioning.

use zeppelin_bench::harness::{paper_rng, paper_testbed};
use zeppelin_bench::table::Table;
use zeppelin_core::chunking::{contiguous_position_flops, RingGeometry};
use zeppelin_core::routing::{direct_cost, eq1_cost};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::datasets::{arxiv, paper_datasets};
use zeppelin_exec::lower::{ExecConfig, GradSync, QueueOrder};
use zeppelin_exec::step::{simulate_step, StepConfig};
use zeppelin_model::config::llama_3b;
use zeppelin_sim::topology::{cluster_a, gbit, ClusterSpec, NicSpec};

fn step_with(
    cluster: &ClusterSpec,
    batch: &Batch,
    exec: ExecConfig,
) -> zeppelin_exec::step::StepReport {
    let model = llama_3b();
    let ctx = SchedulerCtx::new(cluster, &model);
    let cfg = StepConfig {
        exec,
        ..StepConfig::default()
    };
    simulate_step(&Zeppelin::new(), batch, &ctx, &cfg).expect("step")
}

fn proxy_sweep() {
    println!("1. routing proxy count (Eq. 1, 52 MB round, Cluster A rates)");
    let b_intra = 1.0 / 400e9;
    let b_inter = 1.0 / 25e9;
    let n = 52e6;
    let mut table = Table::new(vec!["proxies", "Eq.1 (us)", "vs direct", "measured (us)"]);
    for x in [1usize, 2, 4, 8] {
        // Measured: a cluster with x NICs (affinity spread over 8 GPUs).
        let mut cluster = cluster_a(2);
        cluster.node.nic_count = x;
        cluster.node.nic = NicSpec { bw: gbit(200.0) };
        cluster.node.nic_affinity = (0..8).map(|g| g * x / 8).collect();
        let batch = Batch::new(vec![65_536]);
        let r = step_with(&cluster, &batch, ExecConfig::default());
        // Mean routed inter-node stage duration × pipeline ≈ per-round time.
        let stages: Vec<f64> = r
            .trace_forward
            .events()
            .iter()
            .filter(|e| e.category == zeppelin_sim::trace::TraceCategory::InterNode)
            .map(|e| e.duration().as_micros_f64())
            .collect();
        // No inter-node stage in the trace is reported as such, not as NaN.
        let measured = if stages.is_empty() {
            "no inter-node stages".to_string()
        } else {
            format!(
                "{:.0}",
                stages.iter().sum::<f64>() / stages.len() as f64 * 4.0
            )
        };
        let analytic = eq1_cost(n, x, x, b_intra, b_inter) * 1e6;
        table.row(vec![
            format!("{x}"),
            format!("{analytic:.0}"),
            format!("{:.2}x", direct_cost(n, b_inter) * 1e6 / analytic),
            measured,
        ]);
    }
    println!("{}", table.render());
}

fn pipeline_sweep() {
    println!("2. routed-transfer pipeline depth (single 64k sequence)");
    let (cluster, _, _) = paper_testbed();
    let batch = Batch::new(vec![65_536]);
    let mut table = Table::new(vec!["chunks", "layer fwd (ms)", "tokens/s"]);
    for depth in [1usize, 2, 4, 8, 16] {
        let exec = ExecConfig {
            routing_pipeline: depth,
            ..ExecConfig::default()
        };
        let r = step_with(&cluster, &batch, exec);
        table.row(vec![
            format!("{depth}"),
            format!("{:.2}", r.layer_forward.as_millis_f64()),
            format!("{:.0}", r.throughput),
        ]);
    }
    println!("{}", table.render());
}

fn chunking_balance() {
    println!("3. zigzag vs contiguous chunking (per-position FLOP imbalance)");
    let model = llama_3b();
    let mut table = Table::new(vec!["group", "zigzag max/mean", "contiguous max/mean"]);
    for g in [4usize, 8, 16, 32] {
        let len = 131_072u64;
        let imb = |f: &dyn Fn(usize) -> f64| {
            let per: Vec<f64> = (0..g).map(f).collect();
            let mean = per.iter().sum::<f64>() / g as f64;
            per.iter().cloned().fold(0.0f64, f64::max) / mean
        };
        let geom = RingGeometry::new(len, g, &[]);
        let zig = imb(&|i| geom.total_flops(&model, i));
        let contig = imb(&|i| contiguous_position_flops(&model, len, g, i));
        table.row(vec![
            format!("{g}"),
            format!("{zig:.3}"),
            format!("{contig:.3}"),
        ]);
    }
    println!("{}", table.render());
    println!("(a ring is as slow as its busiest rank: contiguous splitting");
    println!(" costs ~2x at scale; zigzag stays within rounding)\n");
}

fn ordering_ablation() {
    println!("4. attention-engine queue ordering (Zeppelin, 2 nodes, 64k)");
    let (cluster, _, _) = paper_testbed();
    let mut rng = paper_rng(0);
    let mut table = Table::new(vec![
        "dataset",
        "inter-first (ms)",
        "local-first (ms)",
        "delta",
    ]);
    for dist in paper_datasets() {
        let batch = sample_batch(&dist, &mut rng, 65_536);
        let t = |order| {
            let exec = ExecConfig {
                queue_order: order,
                ..ExecConfig::default()
            };
            step_with(&cluster, &batch, exec)
                .layer_forward
                .as_millis_f64()
        };
        let inter = t(QueueOrder::InterFirst);
        let local = t(QueueOrder::LocalFirst);
        table.row(vec![
            dist.name.clone(),
            format!("{inter:.2}"),
            format!("{local:.2}"),
            format!("{:+.1}%", 100.0 * (local - inter) / inter),
        ]);
    }
    println!("{}", table.render());
    println!("(this executor tracks dependencies per round, so ordering");
    println!(" matters far less than in the paper's coarse-stream engine)\n");
}

fn grad_sync_ablation() {
    println!("5. gradient synchronization (3B, 2 nodes, 64k ArXiv)");
    let (cluster, _, _) = paper_testbed();
    let mut rng = paper_rng(0);
    let batch = sample_batch(&arxiv(), &mut rng, 65_536);
    let mut table = Table::new(vec!["mode", "layer bwd (ms)", "tokens/s"]);
    for (name, sync) in [
        ("off", GradSync::Off),
        ("overlapped", GradSync::Overlapped),
        ("blocking", GradSync::Blocking),
    ] {
        let exec = ExecConfig {
            grad_sync: sync,
            ..ExecConfig::default()
        };
        let r = step_with(&cluster, &batch, exec);
        table.row(vec![
            name.to_string(),
            format!("{:.2}", r.layer_backward.as_millis_f64()),
            format!("{:.0}", r.throughput),
        ]);
    }
    println!("{}", table.render());
}

fn remap_slack_sweep() {
    println!("6. remapping slack threshold (ArXiv, 2 nodes, 64k)");
    let (cluster, _, _) = paper_testbed();
    let mut rng = paper_rng(1);
    let batch = sample_batch(&arxiv(), &mut rng, 65_536);
    let mut table = Table::new(vec!["slack", "remap flows", "tokens/s"]);
    for slack in [0.0, 0.02, 0.1, 0.5, 2.0] {
        let exec = ExecConfig {
            remap_slack: slack,
            ..ExecConfig::default()
        };
        let r = step_with(&cluster, &batch, exec);
        let flows = r
            .trace_forward
            .events()
            .iter()
            .filter(|e| e.category == zeppelin_sim::trace::TraceCategory::Remap)
            .count();
        table.row(vec![
            format!("{slack}"),
            format!("{flows}"),
            format!("{:.0}", r.throughput),
        ]);
    }
    println!("{}", table.render());
}

fn hierarchy_ablation() {
    println!("7. hierarchical (Zeppelin) vs flat quadratic partitioning");
    let (_, _, ctx) = paper_testbed();
    let mut rng = paper_rng(2);
    let mut table = Table::new(vec!["dataset", "flat (tok/s)", "hierarchical", "gain"]);
    for dist in paper_datasets() {
        let batch = sample_batch(&dist, &mut rng, 65_536);
        // Failures become explicit "failed" cells, not NaN.
        let run = |s: &dyn zeppelin_core::scheduler::Scheduler, label: &str| {
            simulate_step(s, &batch, &ctx, &StepConfig::default())
                .map(|r| r.throughput)
                .map_err(|e| eprintln!("{}: {label} failed: {e}", dist.name))
                .ok()
        };
        let flat = run(&zeppelin_baselines::FlatQuadratic::new(), "flat");
        let hier = run(&Zeppelin::new(), "hierarchical");
        let cell = |v: Option<f64>| v.map_or("failed".to_string(), |t| format!("{t:.0}"));
        let gain = match (hier, flat) {
            (Some(h), Some(f)) => format!("{:.2}x", h / f),
            _ => "n/a".to_string(),
        };
        table.row(vec![dist.name.clone(), cell(flat), cell(hier), gain]);
    }
    println!("{}", table.render());
    println!("(both balance quadratic FLOPs per sequence; the hierarchy keeps");
    println!(" short rings inside nodes instead of across the NIC fabric)");
}

fn main() {
    println!("Design-choice ablations (DESIGN.md §6)\n");
    // Keep Zeppelin's scheduler quiet about batches: fixed seeds throughout.
    let _ = Zeppelin::new().name();
    proxy_sweep();
    println!();
    pipeline_sweep();
    println!();
    chunking_balance();
    ordering_ablation();
    grad_sync_ablation();
    println!();
    remap_slack_sweep();
    println!();
    hierarchy_ablation();
}
