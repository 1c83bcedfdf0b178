//! Scale exhibit: parallel sharded rebalances at 1k–10k-GPU cluster sizes.
//!
//! Builds a synthetic large-scale training workload on Cluster A — by
//! default 512 nodes / 4096 ranks — and sweeps the simulator's rebalance
//! worker pool over `--workers 1,2,4,8`. The workload is engineered to
//! stress the component-partitioned allocator the way real data-parallel
//! training does:
//!
//! - ranks are organized into replica groups of `--group` nodes whose
//!   traffic never leaves the group, so every rebalance commit splits into
//!   `nodes / group` disjoint connected components;
//! - all groups are structurally identical (durations and byte sizes depend
//!   only on intra-group indices), so compute finishes and flow drains
//!   coincide bit-exactly across groups and every commit barrier closes
//!   over a cluster-wide wave of same-instant mutations;
//! - per-rank fan-out and transfer sizes vary within a group, giving the
//!   progressive filling multiple freeze levels per component.
//!
//! Every worker count must reproduce the 1-worker run bit-exactly (the bin
//! asserts makespan and span equality); only wall-clock time may differ.
//! Results go to stdout as a table and to `--out` (default
//! `BENCH_scale.json`) as machine-readable JSON with events/sec,
//! rebalances/sec, per-worker pool utilization, speedups, and the host CPU
//! count — wall-clock speedup is only observable when the host exposes at
//! least as many CPUs as workers; on smaller hosts the exhibit still
//! verifies determinism and reports how the pool distributed the work.

use std::fmt::Write as _;
use std::time::Instant;

use zeppelin_bench::table::Table;
use zeppelin_sim::engine::{SimReport, Simulator, Stream, TaskId};
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::{cluster_a, ClusterSpec};

const GPUS_PER_NODE: usize = 8;

struct Args {
    nodes: usize,
    iters: usize,
    group: usize,
    workers: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 512,
        iters: 3,
        group: 16,
        workers: vec![1, 2, 4, 8],
        out: "BENCH_scale.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--nodes" => args.nodes = val().parse().expect("--nodes"),
            "--iters" => args.iters = val().parse().expect("--iters"),
            "--group" => args.group = val().parse().expect("--group"),
            "--workers" => {
                args.workers = val()
                    .split(',')
                    .map(|w| w.trim().parse().expect("--workers"))
                    .collect();
            }
            "--out" => args.out = val(),
            other => panic!("unknown flag {other} (try --nodes/--iters/--group/--workers/--out)"),
        }
    }
    assert!(args.group >= 2, "--group must be at least 2 nodes");
    assert!(
        args.nodes.is_multiple_of(args.group),
        "--nodes must be a multiple of --group"
    );
    args
}

/// Builds the replicated-group workload described in the module docs.
fn build(cluster: &ClusterSpec, nodes: usize, iters: usize, group: usize) -> Simulator {
    let mut sim = Simulator::new(cluster);
    let ranks = nodes * GPUS_PER_NODE;
    let groups = nodes / group;
    // Per group: all of last iteration's transfers, folded into a
    // zero-duration barrier task (the replica group's "gradient ready"
    // point) so every iteration's waves stay aligned across the cluster.
    let mut grp_sends: Vec<Vec<TaskId>> = vec![Vec::new(); groups];
    for it in 0..iters {
        let barriers: Vec<Option<TaskId>> = grp_sends
            .iter_mut()
            .enumerate()
            .map(|(grp, sends)| {
                (!sends.is_empty()).then(|| {
                    sim.compute(
                        grp * group * GPUS_PER_NODE,
                        Stream::Compute,
                        SimDuration::from_micros(0),
                        std::mem::take(sends),
                        None,
                    )
                    .expect("barrier task")
                })
            })
            .collect();
        // Compute phase: one kernel per rank, identical duration everywhere
        // so every group's transfer wave starts at the same instant.
        let mut compute = Vec::with_capacity(ranks);
        for r in 0..ranks {
            let deps = barriers[r / (group * GPUS_PER_NODE)].into_iter().collect();
            let id = sim
                .compute(
                    r,
                    Stream::Compute,
                    SimDuration::from_micros(400),
                    deps,
                    None,
                )
                .expect("compute task");
            compute.push(id);
        }
        // Transfer phase: each rank sends to 2–8 peer nodes inside its
        // group. Fan-out varies with both the local GPU and the local node
        // so port loads fall into many classes and the progressive filling
        // cascades through many freeze levels; sizes and peers depend only
        // on intra-group indices so groups stay bit-identical replicas of
        // each other.
        for n in 0..nodes {
            let grp = n / group;
            let grp_base = grp * group;
            let local = n - grp_base;
            for g in 0..GPUS_PER_NODE {
                let r = n * GPUS_PER_NODE + g;
                let fanout = (group - 1).min(2 + (g + 2 * local + it) % 7);
                for p in 0..fanout {
                    let dst_node = grp_base + (local + 1 + p) % group;
                    let dst = dst_node * GPUS_PER_NODE + (g + p) % GPUS_PER_NODE;
                    let mbytes = 2 + (g + 3 * p + local + it) % 5;
                    let id = sim
                        .transfer(
                            mbytes as f64 * 1e6,
                            cluster.direct_path(r, dst),
                            vec![compute[r]],
                            None,
                        )
                        .expect("transfer task");
                    grp_sends[grp].push(id);
                }
            }
        }
    }
    sim
}

struct Sample {
    workers: usize,
    wall_s: f64,
    report: SimReport,
}

fn json_sample(s: &Sample, base_wall: f64) -> String {
    let stats = &s.report.stats;
    let util: Vec<String> = stats
        .net
        .worker_busy_ns
        .iter()
        .map(|&b| format!("{:.4}", b as f64 / 1e9 / s.wall_s))
        .collect();
    let mut j = String::new();
    write!(
        j,
        "    {{\"workers\": {}, \"wall_s\": {:.4}, \"speedup\": {:.3}, \
         \"events\": {}, \"events_per_sec\": {:.0}, \
         \"rebalances\": {}, \"rebalances_per_sec\": {:.0}, \
         \"parallel_rebalances\": {}, \"components\": {}, \"filled_flows\": {}, \
         \"worker_utilization\": [{}]}}",
        s.workers,
        s.wall_s,
        base_wall / s.wall_s,
        stats.events,
        stats.events as f64 / s.wall_s,
        stats.net.rebalances,
        stats.net.rebalances as f64 / s.wall_s,
        stats.net.parallel_rebalances,
        stats.net.components,
        stats.net.filled_flows,
        util.join(", "),
    )
    .unwrap();
    j
}

fn main() {
    let args = parse_args();
    let cluster = cluster_a(args.nodes);
    let ranks = args.nodes * GPUS_PER_NODE;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Scale exhibit — Cluster A x{} ({} ranks), {} iterations, groups of {} nodes ({} components per wave)",
        args.nodes,
        ranks,
        args.iters,
        args.group,
        args.nodes / args.group,
    );
    let max_workers = args.workers.iter().copied().max().unwrap_or(1);
    if host_cpus < max_workers {
        println!(
            "note: host exposes {host_cpus} CPU(s) < {max_workers} workers; threads timeshare, \
             so wall-clock speedup is not observable here (determinism still is)",
        );
    }
    println!();

    let mut samples: Vec<Sample> = Vec::new();
    for &workers in &args.workers {
        let mut sim = build(&cluster, args.nodes, args.iters, args.group);
        sim.set_workers(workers);
        let t0 = Instant::now();
        let report = sim.run().expect("scale workload runs clean");
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(base) = samples.first() {
            assert_eq!(
                report.makespan, base.report.makespan,
                "makespan must be bit-identical across worker counts"
            );
            assert_eq!(
                report.spans, base.report.spans,
                "spans must be bit-identical across worker counts"
            );
        }
        samples.push(Sample {
            workers,
            wall_s,
            report,
        });
    }

    let base_wall = samples[0].wall_s;
    let mut table = Table::new(vec![
        "workers",
        "wall (s)",
        "speedup",
        "events/s",
        "rebal/s",
        "par rebal",
        "pool util",
    ]);
    for s in &samples {
        let stats = &s.report.stats;
        let util = if stats.net.worker_busy_ns.is_empty() {
            "-".to_string()
        } else {
            let busy: u64 = stats.net.worker_busy_ns.iter().sum();
            format!(
                "{:.0}%",
                busy as f64 / 1e9 / (s.wall_s * stats.net.worker_busy_ns.len() as f64) * 100.0
            )
        };
        table.row(vec![
            format!("{}", s.workers),
            format!("{:.3}", s.wall_s),
            format!("{:.2}x", base_wall / s.wall_s),
            format!("{:.0}", stats.events as f64 / s.wall_s),
            format!("{:.0}", stats.net.rebalances as f64 / s.wall_s),
            format!("{}", stats.net.parallel_rebalances),
            util,
        ]);
    }
    println!("{}", table.render());
    println!(
        "makespan {} (bit-identical across all {} worker counts)",
        samples[0].report.makespan,
        samples.len()
    );

    let rows: Vec<String> = samples.iter().map(|s| json_sample(s, base_wall)).collect();
    let json = format!(
        "{{\n  \"exhibit\": \"scale\",\n  \"nodes\": {},\n  \"ranks\": {},\n  \"iters\": {},\n  \"group\": {},\n  \"host_cpus\": {},\n  \"makespan_ns\": {},\n  \"samples\": [\n{}\n  ]\n}}\n",
        args.nodes,
        ranks,
        args.iters,
        args.group,
        host_cpus,
        samples[0].report.makespan.as_nanos(),
        rows.join(",\n"),
    );
    std::fs::write(&args.out, json).expect("write BENCH json");
    println!("wrote {}", args.out);
}
