//! Extension exhibit: straggler tolerance.
//!
//! One GPU in a 2-node Cluster A runs degraded (thermal throttling, a bad
//! HBM stack — a routine production event). Compares TE CP (every sequence
//! crosses the slow GPU), Zeppelin planned *unaware* of the defect, and
//! Zeppelin planned *aware* of it: the degraded rank gets a lighter local
//! queue, shorter zigzag chunks in its rings, and a smaller linear-module
//! remap target.

use zeppelin_baselines::te_cp::TeCp;
use zeppelin_bench::harness::{paper_rng, paper_testbed};
use zeppelin_bench::table::Table;
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::batch::sample_batch;
use zeppelin_data::datasets::{arxiv, openwebmath, stackexchange};
use zeppelin_exec::step::{simulate_step, StepConfig};

fn main() {
    const SLOW_RANK: usize = 5;
    let slow_factor: f64 = std::env::var("STRAGGLER_FACTOR")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    let (cluster, _, healthy_ctx) = paper_testbed();
    let mut speed = vec![1.0; cluster.total_gpus()];
    speed[SLOW_RANK] = slow_factor;

    let aware_ctx = healthy_ctx.clone().with_rank_speed(speed.clone());
    let mut cfg = StepConfig::default();
    cfg.exec.rank_speed = speed.clone();
    let healthy_cfg = StepConfig::default();

    println!(
        "Straggler study — rank {SLOW_RANK} at {:.0}% speed, 3B, 2 nodes Cluster A, 64k\n",
        slow_factor * 100.0
    );
    let mut table = Table::new(vec![
        "dataset",
        "TE CP healthy",
        "TE CP degraded",
        "Zeppelin unaware",
        "Zeppelin aware",
        "aware vs unaware",
    ]);
    let mut rng = paper_rng(0);
    for dist in [stackexchange(), openwebmath(), arxiv()] {
        let batch = sample_batch(&dist, &mut rng, 65_536);
        // A failed point is reported explicitly, never rendered as NaN.
        let run = |s: &dyn Scheduler, ctx: &SchedulerCtx, c: &StepConfig| {
            simulate_step(s, &batch, ctx, c).map(|r| r.throughput)
        };
        let cell = |r: &Result<f64, _>| match r {
            Ok(tput) => format!("{tput:.0}"),
            Err(_) => "failed".to_string(),
        };
        let te_h = run(&TeCp::new(), &healthy_ctx, &healthy_cfg);
        let te_d = run(&TeCp::new(), &healthy_ctx, &cfg);
        let zep_unaware = run(&Zeppelin::new(), &healthy_ctx, &cfg);
        let zep_aware = run(&Zeppelin::new(), &aware_ctx, &cfg);
        for (label, r) in [
            ("TE CP healthy", &te_h),
            ("TE CP degraded", &te_d),
            ("Zeppelin unaware", &zep_unaware),
            ("Zeppelin aware", &zep_aware),
        ] {
            if let Err(e) = r {
                eprintln!("{}: {label} failed: {e}", dist.name);
            }
        }
        let delta = match (&zep_aware, &zep_unaware) {
            (Ok(a), Ok(u)) => format!("{:+.1}%", 100.0 * (a / u - 1.0)),
            _ => "n/a".to_string(),
        };
        table.row(vec![
            dist.name.clone(),
            cell(&te_h),
            cell(&te_d),
            cell(&zep_unaware),
            cell(&zep_aware),
            delta,
        ]);
    }
    println!("{}", table.render());
    println!("reading: a ring with equal-split zigzag chunks is as slow as its");
    println!("slowest member, so unaware Zeppelin pays the straggler tax on");
    println!("every ring the slow GPU joins. Aware Zeppelin pays on every");
    println!("batch: the slow GPU's local queue lightens, its ring chunks");
    println!("shrink in proportion to its speed, and the remapping layer sets");
    println!("speed-proportional linear-module targets.");
}
