//! Extension exhibit: heterogeneity tolerance.
//!
//! How much of a cluster's *homogeneous* throughput does each scheduler
//! recover when the hardware stops being uniform? Two regimes:
//!
//! - **Spread sweep**: every fourth GPU of the 2-node Cluster A testbed
//!   runs at a fraction `s ∈ {1.0, 0.9, 0.7, 0.5, 0.3}` of full speed
//!   (thermal throttling, bad HBM stacks — stragglers land inside nodes,
//!   not on node boundaries). The recovered fraction is the degraded
//!   throughput divided by the same scheduler's throughput on the healthy
//!   cluster.
//! - **Mixed tiers**: Cluster M — an H800 fabric where every third node is
//!   an A800-generation straggler ([`cluster_mixed`]) — against the
//!   all-H800 Cluster B baseline.
//!
//! Every scheduler plans *aware* of the speed vector (it is in the
//! `SchedulerCtx`); what differs is what they can do with it. TE CP's
//! global ring cannot use it. Zeppelin lightens slow local queues, sizes
//! zigzag chunks speed-proportionally inside rings that span unequal
//! ranks, and sets speed-proportional linear-module remap targets. The
//! executor reads Cluster M's node tiers itself. The exhibit asserts that
//! Zeppelin recovers more than TE CP at every degraded spread, and that a
//! full replay of the sweep is bit-identical.

use std::fmt::Write as _;

use zeppelin_baselines::scheduler_by_name;
use zeppelin_bench::harness::{paper_rng, paper_testbed};
use zeppelin_bench::table::Table;
use zeppelin_core::scheduler::SchedulerCtx;
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_data::datasets::arxiv;
use zeppelin_exec::step::{simulate_step, StepConfig};
use zeppelin_model::config::llama_3b;
use zeppelin_sim::topology::{cluster_b, cluster_mixed};

/// Slow-node speed fractions swept on the Cluster A testbed.
const SPREADS: [f64; 5] = [1.0, 0.9, 0.7, 0.5, 0.3];

/// Schedulers under test, in the registry's vocabulary.
const SCHEDS: [&str; 2] = ["te", "zeppelin"];

struct Args {
    tokens: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        tokens: 65_536,
        out: "BENCH_hetero.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--tokens" => args.tokens = val().parse().expect("--tokens"),
            "--out" => args.out = val(),
            other => panic!("unknown flag {other} (try --tokens/--out)"),
        }
    }
    args
}

/// One measured point: a scheduler on one hardware shape.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    shape: String,
    scheduler: &'static str,
    throughput: f64,
    homog: f64,
}

impl Row {
    fn recovered(&self) -> f64 {
        self.throughput / self.homog
    }
}

fn throughput(sched: &str, batch: &Batch, ctx: &SchedulerCtx, cfg: &StepConfig) -> f64 {
    let s = scheduler_by_name(sched).expect("registry scheduler");
    match simulate_step(s.as_ref(), batch, ctx, cfg) {
        Ok(r) => r.throughput,
        Err(e) => panic!("{sched}: {e}"),
    }
}

/// Runs the full sweep. Deterministic: called twice, must agree bit-exactly.
fn sweep(tokens: u64) -> Vec<Row> {
    let (cluster, _, healthy_ctx) = paper_testbed();
    let mut rng = paper_rng(14);
    let batch = sample_batch(&arxiv(), &mut rng, tokens);
    let healthy_cfg = StepConfig::default();
    let mut rows = Vec::new();

    for sched in SCHEDS {
        let homog = throughput(sched, &batch, &healthy_ctx, &healthy_cfg);
        for spread in SPREADS {
            // Every fourth rank degraded to `spread`; planners see it.
            let speed: Vec<f64> = (0..cluster.total_gpus())
                .map(|r| if r % 4 == 0 { spread } else { 1.0 })
                .collect();
            let ctx = healthy_ctx.clone().with_rank_speed(speed.clone());
            let mut cfg = StepConfig::default();
            cfg.exec.rank_speed = speed;
            rows.push(Row {
                shape: format!("a spread {spread:.1}"),
                scheduler: sched,
                throughput: throughput(sched, &batch, &ctx, &cfg),
                homog,
            });
        }
    }

    // Mixed generations: Cluster M vs the all-H800 Cluster B it dilutes.
    let model = llama_3b();
    let mixed = cluster_mixed(3);
    // The tiers seed the planner's rank_speed and the executor's physics.
    let mixed_ctx = SchedulerCtx::new(&mixed, &model);
    let homog_ctx = SchedulerCtx::new(&cluster_b(3), &model);
    let mut rng = paper_rng(15);
    let batch = sample_batch(&arxiv(), &mut rng, tokens);
    for sched in SCHEDS {
        rows.push(Row {
            shape: "mixed".into(),
            scheduler: sched,
            throughput: throughput(sched, &batch, &mixed_ctx, &healthy_cfg),
            homog: throughput(sched, &batch, &homog_ctx, &healthy_cfg),
        });
    }
    rows
}

fn main() {
    let args = parse_args();
    println!(
        "Heterogeneity exhibit — 3B, 2 nodes Cluster A (every 4th GPU degraded) + Cluster M, {} tokens\n",
        args.tokens
    );

    let rows = sweep(args.tokens);
    let replay = sweep(args.tokens);
    assert_eq!(rows, replay, "hetero sweep must replay bit-identically");

    let shapes: Vec<&String> = {
        let mut seen: Vec<&String> = Vec::new();
        for r in &rows {
            if !seen.contains(&&r.shape) {
                seen.push(&r.shape);
            }
        }
        seen
    };
    let mut header = vec!["shape"];
    header.extend(SCHEDS);
    let mut table = Table::new(header);
    for shape in &shapes {
        let mut cells = vec![(*shape).clone()];
        for sched in SCHEDS {
            let row = rows
                .iter()
                .find(|r| &&r.shape == shape && r.scheduler == sched)
                .expect("full grid");
            cells.push(format!("{:.1}%", 100.0 * row.recovered()));
        }
        table.row(cells);
    }
    println!("recovered fraction of each scheduler's homogeneous throughput:");
    println!("{}", table.render());

    // The point of the exhibit: at every degraded spread, speed-aware
    // Zeppelin must recover more of its healthy throughput than TE CP,
    // whose global ring runs at the slowest member's pace.
    for spread in SPREADS.iter().filter(|&&s| s < 1.0) {
        let shape = format!("a spread {spread:.1}");
        let get = |sched: &str| {
            rows.iter()
                .find(|r| r.shape == shape && r.scheduler == sched)
                .expect("full grid")
                .recovered()
        };
        let (zep, te) = (get("zeppelin"), get("te"));
        assert!(
            zep > te,
            "spread {spread}: zeppelin recovered {zep:.4} <= te {te:.4}"
        );
    }

    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            body,
            "    {{\"shape\": \"{}\", \"scheduler\": \"{}\", \"throughput\": {:.3}, \
             \"homog_throughput\": {:.3}, \"recovered\": {:.6}}}{sep}",
            r.shape,
            r.scheduler,
            r.throughput,
            r.homog,
            r.recovered(),
        )
        .unwrap();
    }
    let json = format!(
        "{{\n  \"exhibit\": \"hetero\",\n  \"tokens\": {},\n  \"spreads\": {:?},\n  \"rows\": [\n{}  ]\n}}\n",
        args.tokens, SPREADS, body
    );
    std::fs::write(&args.out, json).expect("write BENCH json");
    println!("wrote {}", args.out);
    println!("\nreading: TE CP's global ring runs at its slowest member's pace.");
    println!("Zeppelin shortens the slow ranks' zigzag chunks so every ring");
    println!("round finishes together, lightens their local queues, and sets");
    println!("speed-proportional remap targets for the linear modules.");
    println!("ok");
}
