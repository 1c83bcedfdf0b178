//! `sim-scale`: the `scale` exhibit's replicated-group DAG on
//! `cluster_a(128)` (1024 ranks), run with one fill worker per host CPU.
//!
//! No other workload turns on the parallel fill (`sim::pool`,
//! `sim::partition`): the simulator is sequential by default. Ranks form
//! replica groups of 16 nodes whose traffic stays inside the group, so
//! every rebalance splits into 8 disjoint components. The seed shifts the
//! per-rank fan-out and transfer-size pattern; every shift has the same
//! structure. Every run must reproduce a sequential oracle run bit for bit.
//!
//! The exhibit's 4096 ranks take about 2.4 s a run on a 2-CPU host: a few
//! runs per measurement, a 47 MB working set that shares the last-level
//! cache with other tenants, and figures that moved by a quarter between
//! runs. At 1024 ranks a run takes about 0.6 s in 14 MB, with as many
//! parallel rebalances (912 on seed 1 at either size).

use std::time::{Duration, Instant};

use zeppelin_sim::engine::{SimReport, Simulator, Stream, TaskId};
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::{cluster_a, ClusterSpec};

use crate::obs::{median_setup, secs, Tracer};
use crate::{host_cpus, trace_overhead, Opts, Outcome, Size};

const GPUS_PER_NODE: usize = 8;
const GROUP: usize = 16;
const ITERS: usize = 3;
/// Timed runs every invocation completes.
const MIN_RUNS: usize = 2;

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 128,
        Size::Tiny => 32,
    }
}

/// Builds the replicated-group workload: per iteration, one 400 µs kernel
/// per rank, then 2–8 transfers of 2–6 MB from each rank to peers inside
/// its group, with a per-group barrier between iterations. Durations and
/// sizes depend only on intra-group indices (and the seed's phase), so
/// groups stay bit-identical replicas.
fn build(cluster: &ClusterSpec, nodes: usize, phase: usize) -> Simulator {
    let mut sim = Simulator::new(cluster);
    let ranks = nodes * GPUS_PER_NODE;
    let groups = nodes / GROUP;
    let mut grp_sends: Vec<Vec<TaskId>> = vec![Vec::new(); groups];
    for it in 0..ITERS {
        let barriers: Vec<Option<TaskId>> = grp_sends
            .iter_mut()
            .enumerate()
            .map(|(grp, sends)| {
                (!sends.is_empty()).then(|| {
                    sim.compute(
                        grp * GROUP * GPUS_PER_NODE,
                        Stream::Compute,
                        SimDuration::from_micros(0),
                        std::mem::take(sends),
                        None,
                    )
                    .expect("barrier task")
                })
            })
            .collect();
        let compute: Vec<TaskId> = (0..ranks)
            .map(|r| {
                let deps = barriers[r / (GROUP * GPUS_PER_NODE)].into_iter().collect();
                sim.compute(
                    r,
                    Stream::Compute,
                    SimDuration::from_micros(400),
                    deps,
                    None,
                )
                .expect("compute task")
            })
            .collect();
        for n in 0..nodes {
            let grp = n / GROUP;
            let base = grp * GROUP;
            let local = n - base;
            for g in 0..GPUS_PER_NODE {
                let r = n * GPUS_PER_NODE + g;
                let fanout = (GROUP - 1).min(2 + (g + 2 * local + it + phase) % 7);
                for p in 0..fanout {
                    let dst_node = base + (local + 1 + p) % GROUP;
                    let dst = dst_node * GPUS_PER_NODE + (g + p) % GPUS_PER_NODE;
                    let mbytes = 2 + (g + 3 * p + local + it + phase) % 5;
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

fn same(a: &SimReport, b: &SimReport) -> bool {
    a.makespan == b.makespan && a.spans == b.spans
}

fn timed_run(sim: &Simulator) -> (Option<SimReport>, Duration) {
    let t0 = Instant::now();
    let report = sim.run();
    (report.ok(), t0.elapsed())
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Outcome {
    let nodes = nodes(opts.size);
    let workers = host_cpus();
    let phase = (opts.seed % 35) as usize;
    let cluster = cluster_a(nodes);
    // Building the DAG takes under a millisecond, so many builds are cheap
    // and their median is steady.
    let setups = if opts.size == Size::Full { 31 } else { 2 };
    let (mut sim, setup_s) = median_setup(setups, || build(&cluster, nodes, phase), drop);
    let mut out = Outcome {
        setup_s,
        op_unit: "simulated events per host second",
        latency_of: "one Simulator::run of the whole DAG",
        params: vec![
            ("cluster", format!("cluster_a({nodes})")),
            ("ranks", (nodes * GPUS_PER_NODE).to_string()),
            ("group_nodes", GROUP.to_string()),
            ("iters", ITERS.to_string()),
            ("phase", phase.to_string()),
            ("tasks", sim.task_count().to_string()),
            ("workers", workers.to_string()),
        ],
        ..Outcome::default()
    };

    // The oracle: a sequential run of the same DAG, outside the timing.
    // Every parallel run must reproduce it bit for bit.
    sim.set_workers(1);
    out.attempted += 1;
    let oracle = sim.run().ok();
    sim.set_workers(workers);
    match &oracle {
        Some(o) => {
            out.digest.u64(o.makespan.as_nanos());
            for (s, e) in &o.spans {
                out.digest.u64(s.as_nanos());
                out.digest.u64(e.as_nanos());
            }
        }
        None => out.failed += 1,
    }
    let record = |out: &mut Outcome, report: Option<SimReport>| {
        let ok = matches!((&report, &oracle), (Some(r), Some(o)) if same(r, o));
        if !ok {
            out.failed += 1;
        }
    };
    // One untimed parallel run first, so the timed runs find the pool's
    // scratch space and the allocator already warm.
    out.attempted += 1;
    let (report, _) = timed_run(&sim);
    record(&mut out, report);

    match tracer {
        None => {
            let mut events = 0u64;
            let mut busy = Duration::ZERO;
            let start = Instant::now();
            let mut runs = 0;
            while runs < MIN_RUNS || secs(start.elapsed()) < opts.seconds {
                out.attempted += 1;
                let (report, dt) = timed_run(&sim);
                busy += dt;
                out.latencies_us.push(secs(dt) * 1e6);
                events += report.as_ref().map_or(0, |r| r.stats.events);
                record(&mut out, report);
                runs += 1;
            }
            out.ops_per_s = events as f64 / secs(busy).max(1e-12);
        }
        Some(tr) => {
            out.attempted += 2;
            let (report, untraced) = timed_run(&sim);
            record(&mut out, report);
            let t0 = Instant::now();
            let report = sim.run();
            let t1 = Instant::now();
            tr.record("sim.run", None, 1, t0, t1);
            let wall_ms = secs(t1 - t0) * 1e3;
            if let Ok(r) = &report {
                let s = &r.stats;
                let pool_ms = s.net.worker_busy_ns.iter().sum::<u64>() as f64 / 1e6;
                let l = &mut out.layers;
                l.insert("sim.run.busy_ms", wall_ms);
                l.insert("sim.events", s.events as f64);
                l.insert("sim.rebalances", s.net.rebalances as f64);
                l.insert("sim.filled_flows", s.net.filled_flows as f64);
                l.insert("sim.parallel_rebalances", s.net.parallel_rebalances as f64);
                l.insert("sim.components", s.net.components as f64);
                l.insert("sim.pool.busy_ms", pool_ms);
                l.insert(
                    "sim.pool.utilization",
                    pool_ms / (wall_ms * s.net.worker_busy_ns.len().max(1) as f64),
                );
            }
            record(&mut out, report.ok());
            trace_overhead(&mut out, secs(untraced) * 1e3, wall_ms);
        }
    }
    out
}
