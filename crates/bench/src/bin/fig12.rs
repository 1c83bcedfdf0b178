//! Fig. 12: attention-phase timeline study — 3B model, 16 GPUs (2 nodes of
//! Cluster A), 64k total context.
//!
//! Three executions, as in the paper:
//!   (a) TE CP with a single 64k sequence: the cross-node hop dominates
//!       every ring round;
//!   (b) Zeppelin with the same sequence and routing on: the cross-node
//!       hop splits across all four NICs (the paper measures the per-round
//!       inter-node transfer dropping 2.18 ms → 411 µs);
//!   (c) Zeppelin with a multi-sequence 64k batch: sequences land on
//!       separate nodes with no inter-node traffic at all.
//!
//! Prints per-round communication statistics, ASCII timelines, and writes
//! Chrome-trace JSON files under `target/fig12/`.

use zeppelin_baselines::te_cp::TeCp;
use zeppelin_bench::harness::paper_testbed;
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::batch::Batch;
use zeppelin_exec::step::{simulate_step, StepConfig, StepReport};
use zeppelin_sim::topology::ClusterSpec;
use zeppelin_sim::trace::{Trace, TraceCategory};

/// Mean/max duration in microseconds of events in a category, filtered on
/// whether the label's `src->dst` edge crosses nodes.
fn comm_stats(
    trace: &Trace,
    cluster: &ClusterSpec,
    category: TraceCategory,
    cross_node: Option<bool>,
) -> Option<(usize, f64, f64)> {
    let mut durations = Vec::new();
    for ev in trace.events() {
        if ev.category != category {
            continue;
        }
        if let Some(want_cross) = cross_node {
            let Some((src, dst)) = ev.label.edge() else {
                continue;
            };
            if cluster.same_node(src, dst) == want_cross {
                continue;
            }
        }
        durations.push(ev.duration().as_micros_f64());
    }
    if durations.is_empty() {
        return None;
    }
    let n = durations.len();
    let mean = durations.iter().sum::<f64>() / n as f64;
    let max = durations.iter().cloned().fold(0.0f64, f64::max);
    Some((n, mean, max))
}

fn describe(name: &str, report: &StepReport, cluster: &ClusterSpec) {
    println!("== {name} ==");
    println!(
        "layer forward {}, backward {}",
        report.layer_forward, report.layer_backward
    );
    let zones: std::collections::BTreeMap<String, usize> = {
        let mut m = std::collections::BTreeMap::new();
        for p in &report.plan.placements {
            *m.entry(format!("{:?}", p.zone)).or_insert(0) += 1;
        }
        m
    };
    println!("placements by zone: {zones:?}");
    let t = &report.trace_forward;
    if let Some((n, mean, max)) = comm_stats(t, cluster, TraceCategory::RingComm, Some(true)) {
        println!("direct cross-node ring hops: {n}, mean {mean:.0}us, max {max:.0}us");
    }
    if let Some((n, mean, max)) = comm_stats(t, cluster, TraceCategory::RingComm, Some(false)) {
        println!("intra-node ring hops:        {n}, mean {mean:.0}us, max {max:.0}us");
    }
    if let Some((n, mean, max)) = comm_stats(t, cluster, TraceCategory::InterNode, None) {
        println!("routed inter-node stages:    {n}, mean {mean:.0}us, max {max:.0}us");
    }
    if let Some((n, mean, max)) = comm_stats(t, cluster, TraceCategory::Dispatch, None) {
        println!("routed dispatch stages:      {n}, mean {mean:.0}us, max {max:.0}us");
    }
    // The paper's §5.4.1 "bubbles": idle gaps on the compute streams.
    let bubble = t.total_bubble_time(zeppelin_sim::time::SimDuration::from_micros(50));
    println!("compute bubbles (>50us gaps across ranks): {bubble}");
    println!(
        "\nforward timeline (A=attention L=linear r=ring d=dispatch N=inter c=combine m=remap):"
    );
    print!("{}", t.to_ascii(100));
    println!();
}

fn main() {
    let (cluster, _, ctx) = paper_testbed();
    let cfg = StepConfig::default();

    let single = Batch::new(vec![65_536]);
    let multi = Batch::new(vec![
        12_000, 9_000, 8_000, 7_000, 6_000, 5_000, 4_500, 4_000, 3_000, 2_500, 2_000, 1_500, 1_000,
        36,
    ]);
    assert_eq!(multi.total_tokens(), 65_536);

    let te = simulate_step(&TeCp::new(), &single, &ctx, &cfg).expect("te run");
    let zep_single = simulate_step(&Zeppelin::new(), &single, &ctx, &cfg).expect("zeppelin run");
    let zep_multi = simulate_step(&Zeppelin::new(), &multi, &ctx, &cfg).expect("zeppelin run");

    println!("Fig. 12 — attention timelines, 3B model, 16 GPUs, 64k tokens\n");
    describe("(a) TE CP, single 64k sequence", &te, &cluster);
    describe(
        "(b) Zeppelin, single 64k sequence (routed)",
        &zep_single,
        &cluster,
    );
    describe("(c) Zeppelin, 14-sequence 64k batch", &zep_multi, &cluster);

    // The paper's headline per-round reduction: direct cross-node hop time
    // vs the routed inter-node stage time.
    let direct = comm_stats(
        &te.trace_forward,
        &cluster,
        TraceCategory::RingComm,
        Some(true),
    )
    .map(|(_, mean, _)| mean)
    .unwrap_or(0.0);
    let routed = comm_stats(
        &zep_single.trace_forward,
        &cluster,
        TraceCategory::InterNode,
        None,
    )
    .map(|(_, mean, _)| mean)
    .unwrap_or(0.0);
    // A routed round pipelines `routing_pipeline` chunks per NIC lane; the
    // round's inter-node phase spans roughly chunk-duration × chunks.
    let routed_round = routed * cfg.exec.routing_pipeline as f64;
    println!(
        "per-round inter-node transfer: {direct:.0}us direct -> ~{routed_round:.0}us routed \
         ({:.1}x reduction; paper: 2180us -> 411us, 5.3x)",
        direct / routed_round.max(1e-9)
    );
    println!(
        "per-layer forward+backward: TE CP {} vs Zeppelin (multi-seq) {}",
        te.layer_forward.saturating_add(te.layer_backward),
        zep_multi
            .layer_forward
            .saturating_add(zep_multi.layer_backward),
    );

    // Chrome traces for visual inspection.
    let dir = std::path::Path::new("target/fig12");
    std::fs::create_dir_all(dir).expect("create trace dir");
    for (name, report) in [
        ("te_cp_single", &te),
        ("zeppelin_single", &zep_single),
        ("zeppelin_multi", &zep_multi),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, report.trace_forward.to_chrome_json()).expect("write trace");
        println!("wrote {}", path.display());
    }
}
