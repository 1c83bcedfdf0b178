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
//! Chrome-trace JSON files under the workspace's `target/fig12/`, whatever
//! the current directory.

use zeppelin_bench::paper::{compute_bubbles, zone_counts, Fig12, FIG12_RUNS};
use zeppelin_exec::step::StepReport;
use zeppelin_sim::trace::TraceCategory::{Dispatch, InterNode, RingComm};

const TITLES: [&str; 3] = [
    "(a) TE CP, single 64k sequence",
    "(b) Zeppelin, single 64k sequence (routed)",
    "(c) Zeppelin, 14-sequence 64k batch",
];

fn describe(fig: &Fig12, name: &str, report: &StepReport) {
    let (forward, backward) = (report.layer_forward, report.layer_backward);
    println!("== {name} ==\nlayer forward {forward}, backward {backward}");
    println!("placements by zone: {:?}", zone_counts(report));
    let t = &report.trace_forward;
    for (label, category, cross_node) in [
        ("direct cross-node ring hops:", RingComm, Some(true)),
        ("intra-node ring hops:       ", RingComm, Some(false)),
        ("routed inter-node stages:   ", InterNode, None),
        ("routed dispatch stages:     ", Dispatch, None),
    ] {
        if let Some((n, mean, max)) = fig.comm_stats(t, category, cross_node) {
            println!("{label} {n}, mean {mean:.0}us, max {max:.0}us");
        }
    }
    let bubbles = compute_bubbles(report);
    println!("compute bubbles (>50us gaps across ranks): {bubbles}\n");
    println!(
        "forward timeline (A=attention L=linear r=ring d=dispatch N=inter c=combine m=remap):"
    );
    println!("{}", t.to_ascii(100));
}

fn main() {
    let fig = Fig12::simulate();
    println!("Fig. 12 — attention timelines, 3B model, 16 GPUs, 64k tokens\n");
    for (name, report) in TITLES.iter().zip(&fig.runs) {
        describe(&fig, name, report);
    }

    // The paper's headline per-round reduction: direct cross-node hop time
    // vs the routed inter-node round.
    let (direct, _, routed_round) = fig.hops_us();
    println!(
        "per-round inter-node transfer: {direct:.0}us direct -> ~{routed_round:.0}us routed \
         ({:.1}x reduction; paper: 2180us -> 411us, 5.3x)",
        direct / routed_round.max(1e-9)
    );
    let layer = |r: &StepReport| r.layer_forward.saturating_add(r.layer_backward);
    let (te, multi) = (layer(&fig.runs[0]), layer(&fig.runs[2]));
    println!("per-layer forward+backward: TE CP {te} vs Zeppelin (multi-seq) {multi}");

    // Chrome traces for visual inspection, in the workspace's target
    // directory wherever the binary runs from.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/fig12");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let dir = dir.canonicalize().expect("resolve trace dir");
    for (stem, report) in FIG12_RUNS.iter().zip(&fig.runs) {
        let path = dir.join(format!("{stem}.json"));
        std::fs::write(&path, report.trace_forward.to_chrome_json()).expect("write trace");
        println!("wrote {}", path.display());
    }
}
