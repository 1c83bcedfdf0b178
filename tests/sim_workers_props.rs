//! Worker-count invariance of the parallel sharded simulation core.
//!
//! The engine's rebalances may run on a worker pool
//! (`ZEPPELIN_SIM_WORKERS` / `Simulator::set_workers`), with component fill
//! outputs applied at the commit barrier in ascending component order. That
//! design claims *bit-identical* simulation whatever the worker count.
//! These properties enforce the claim end to end: random compute+transfer
//! DAGs on `cluster_a(4)` (32 ranks), with and without seeded fault
//! schedules, must produce exactly the same report — makespan, spans, trace
//! events, per-port byte totals (compared bitwise), stats-visible event
//! counts — or exactly the same typed error at 1, 2, and 8 workers, with
//! the parallel threshold forced to 1 so even tiny commits take the pool
//! path. Seeded replay at 8 workers must also be self-identical.

use proptest::prelude::*;

use zeppelin::sim::engine::{SimReport, Simulator, Stream, TraceInfo};
use zeppelin::sim::error::SimError;
use zeppelin::sim::fault::FaultSchedule;
use zeppelin::sim::time::{SimDuration, SimTime};
use zeppelin::sim::topology::{cluster_a, ClusterSpec};
use zeppelin::sim::trace::{TraceCategory, TraceEvent, TraceLabel};

const RANKS: usize = 32; // cluster_a(4): four 8-GPU nodes, GPU pairs share NICs.

/// A randomized task description (compute + transfers, optional deps).
#[derive(Debug, Clone)]
enum Job {
    Compute { rank: usize, micros: u64 },
    Transfer { src: usize, dst: usize, mbytes: u64 },
}

type Spec = Vec<(Job, Vec<prop::sample::Index>)>;

fn jobs() -> impl Strategy<Value = Spec> {
    let job = prop_oneof![
        (0usize..RANKS, 1u64..500).prop_map(|(rank, micros)| Job::Compute { rank, micros }),
        (0usize..RANKS, 0usize..RANKS, 1u64..200).prop_filter_map(
            "distinct endpoints",
            |(s, d, m)| {
                (s != d).then_some(Job::Transfer {
                    src: s,
                    dst: d,
                    mbytes: m,
                })
            }
        ),
    ];
    prop::collection::vec(
        (
            job,
            prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..60,
    )
}

/// Builds the DAG with every task traced, so trace comparison sees all of it.
fn build(cluster: &ClusterSpec, spec: &Spec) -> Simulator {
    let mut sim = Simulator::new(cluster);
    let mut ids = Vec::new();
    for (i, (job, dep_idx)) in spec.iter().enumerate() {
        let deps: Vec<_> = if ids.is_empty() {
            vec![]
        } else {
            let mut d: Vec<_> = dep_idx.iter().map(|ix| *ix.get(&ids)).collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        let id = match job {
            Job::Compute { rank, micros } => sim
                .compute(
                    *rank,
                    Stream::Compute,
                    SimDuration::from_micros(*micros),
                    deps,
                    Some(TraceInfo {
                        rank: *rank,
                        category: TraceCategory::LinearCompute,
                        label: TraceLabel::new("c").with_round("", i),
                    }),
                )
                .unwrap(),
            Job::Transfer { src, dst, mbytes } => sim
                .transfer(
                    *mbytes as f64 * 1e6,
                    cluster.direct_path(*src, *dst),
                    deps,
                    Some(TraceInfo {
                        rank: *src,
                        category: TraceCategory::InterNode,
                        label: TraceLabel::new("x").with_round("", i),
                    }),
                )
                .unwrap(),
        };
        ids.push(id);
    }
    sim
}

/// Everything deterministic in a report, floats captured bitwise.
type Fingerprint = (
    SimTime,
    Vec<(SimTime, SimTime)>,
    Vec<TraceEvent>,
    Vec<u64>,
    u64,
);

fn fingerprint(r: &SimReport) -> Fingerprint {
    let ports: Vec<u64> = r.port_bytes.iter().map(|b| b.to_bits()).collect();
    (
        r.makespan,
        r.spans.clone(),
        r.trace.events().to_vec(),
        ports,
        r.stats.events,
    )
}

fn outcome(sim: &Simulator, faults: &FaultSchedule) -> Result<Fingerprint, SimError> {
    sim.run_with_faults(faults).map(|r| fingerprint(&r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1, 2, and 8 workers produce bit-identical fault-free reports.
    #[test]
    fn plain_runs_are_worker_count_invariant(spec in jobs()) {
        let cluster = cluster_a(4);
        let mut sim = build(&cluster, &spec);
        sim.set_parallel_threshold(1);
        sim.set_workers(1);
        let base = fingerprint(&sim.run().unwrap());
        for workers in [2usize, 8] {
            sim.set_workers(workers);
            let got = fingerprint(&sim.run().unwrap());
            prop_assert_eq!(&got, &base, "report diverged at {} workers", workers);
        }
    }

    /// Under a seeded fault schedule (slowdowns, NIC degradations, link
    /// flaps, crashes), every worker count yields the identical report or
    /// the identical typed error; 8 workers also replays self-identically.
    #[test]
    fn fault_runs_are_worker_count_invariant(spec in jobs(), seed in any::<u64>()) {
        let cluster = cluster_a(4);
        let horizon = SimTime::from_nanos(2_000_000); // 2 ms: mid-workload
        let faults = FaultSchedule::random(seed, &cluster, horizon);
        let mut sim = build(&cluster, &spec);
        sim.set_parallel_threshold(1);
        sim.set_workers(1);
        let base = outcome(&sim, &faults);
        for workers in [2usize, 8] {
            sim.set_workers(workers);
            let got = outcome(&sim, &faults);
            prop_assert_eq!(&got, &base, "outcome diverged at {} workers", workers);
        }
        // Seeded replay: same schedule, same DAG, same worker pool, twice.
        let replay = outcome(&sim, &faults);
        prop_assert_eq!(&replay, &base, "8-worker replay diverged");
    }
}
