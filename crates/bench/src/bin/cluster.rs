//! Cluster exhibit: three queueing policies on a seeded skewed-tenant
//! trace over a shared cluster (DESIGN.md §13).
//!
//! A "whale" tenant floods the cluster with a burst of large low-priority
//! jobs at t≈0 while three minority tenants trickle in small
//! higher-priority jobs behind it. FIFO serves the burst head-of-line;
//! shortest-remaining-work-first backfills around it; weighted fair-share
//! caps the whale at its node share, preempting and elastically resizing
//! as tenants come and go. Every policy runs the identical pre-sampled
//! trace through the identical per-job planning stack, so the comparison
//! isolates the scheduling discipline.
//!
//! Reported per policy: goodput vs throughput (tokens committed vs tokens
//! attempted per second of makespan), JCT and queueing-delay p50/p99,
//! Jain's fairness index over per-tenant mean job efficiency, node
//! utilization, and preemption/replan counts.
//!
//! Asserted invariants (all hosts — this exhibit measures simulated time,
//! so nothing here depends on host CPU count):
//!
//! - same-seed reruns are bit-identical, event log and JSON included (the
//!   rerun simulates every step afresh instead of reading the cache the
//!   policy runs share);
//! - every arrived job terminates exactly once under every policy;
//! - goodput ≤ throughput, with equality only when nothing was discarded;
//! - fair-share strictly improves Jain's index over FIFO on this trace.

use std::fmt::Write as _;

use zeppelin_bench::harness::PAPER_SEED;
use zeppelin_bench::table::Table;
use zeppelin_cluster::{
    run_cluster, ClusterConfig, ClusterPolicy, ClusterReport, FairShare, Fifo, JobTrace, Srwf,
    StepCache,
};
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_sim::topology::cluster_a;

struct Args {
    nodes: usize,
    jobs: usize,
    seed: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 64,
        jobs: 120,
        seed: PAPER_SEED,
        out: "BENCH_cluster.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--nodes" => args.nodes = val().parse::<usize>().expect("--nodes").max(2),
            "--jobs" => args.jobs = val().parse::<usize>().expect("--jobs").max(4),
            "--seed" => args.seed = val().parse().expect("--seed"),
            "--out" => args.out = val(),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn run_policy(policy: &dyn ClusterPolicy, trace: &JobTrace, cfg: &ClusterConfig) -> ClusterReport {
    let report = run_cluster(policy, &Zeppelin::new(), trace, cfg)
        .unwrap_or_else(|e| panic!("policy {} failed: {e}", policy.name()));
    report
        .check()
        .unwrap_or_else(|e| panic!("policy {} report inconsistent: {e}", policy.name()));

    // Determinism backstop: the same trace under the same policy replays
    // bit-identically — event log, outcomes, and serialized report. The
    // replay runs on an empty cache of its own, so it re-simulates every
    // step instead of reading back the first run's outcomes.
    let fresh = ClusterConfig {
        step_cache: StepCache::new(),
        ..cfg.clone()
    };
    let replay = run_cluster(policy, &Zeppelin::new(), trace, &fresh)
        .unwrap_or_else(|e| panic!("policy {} replay failed: {e}", policy.name()));
    assert_eq!(
        report.events,
        replay.events,
        "{} replay diverged",
        policy.name()
    );
    assert_eq!(
        report.outcomes,
        replay.outcomes,
        "{} outcomes diverged",
        policy.name()
    );
    assert_eq!(
        report.to_json().to_string(),
        replay.to_json().to_string(),
        "{} serialized report diverged",
        policy.name()
    );
    report
}

fn main() {
    let args = parse_args();
    let cluster = cluster_a(args.nodes);
    let trace = JobTrace::skewed(args.seed, args.jobs, &cluster);
    let cfg = ClusterConfig {
        cluster: cluster.clone(),
        ..ClusterConfig::default()
    };

    let tenants: std::collections::BTreeSet<&str> =
        trace.jobs.iter().map(|j| j.tenant.as_str()).collect();
    println!(
        "Cluster exhibit — {} jobs from {} tenants on {} ({} nodes), seed {}",
        trace.jobs.len(),
        tenants.len(),
        cluster.name,
        args.nodes,
        args.seed
    );
    println!(
        "skewed trace: whale burst of {} jobs, minnow trickle of {}\n",
        trace.jobs.iter().filter(|j| j.tenant == "whale").count(),
        trace.jobs.iter().filter(|j| j.tenant != "whale").count(),
    );

    // The three policy runs share `cfg`'s step cache: a step one policy
    // already simulated, on the same nodes with the same plan, is not
    // simulated again.
    let policies: [&dyn ClusterPolicy; 3] = [&Fifo, &Srwf, &FairShare];
    let reports: Vec<ClusterReport> = policies
        .iter()
        .map(|p| run_policy(*p, &trace, &cfg))
        .collect();
    let stats = cfg.step_cache.stats();
    println!(
        "step launches across the three policy runs: {} simulated, {} cache hits\n",
        stats.simulations, stats.hits
    );

    let mut table = Table::new(vec![
        "policy",
        "goodput tok/s",
        "tput tok/s",
        "util",
        "JCT p50 s",
        "JCT p99 s",
        "queue p50 s",
        "queue p99 s",
        "Jain",
        "preempt",
        "replan",
    ]);
    for r in &reports {
        table.row(vec![
            r.policy.clone(),
            format!("{:.0}", r.goodput),
            format!("{:.0}", r.throughput),
            format!("{:.2}", r.utilization),
            format!("{:.2}", r.jct_p50.as_secs_f64()),
            format!("{:.2}", r.jct_p99.as_secs_f64()),
            format!("{:.2}", r.queue_p50.as_secs_f64()),
            format!("{:.2}", r.queue_p99.as_secs_f64()),
            format!("{:.4}", r.fairness),
            format!("{}", r.preemptions),
            format!("{}", r.replans),
        ]);
    }
    println!("{}", table.render());

    for r in &reports {
        assert_eq!(
            r.completed + r.failed + r.rejected,
            trace.jobs.len(),
            "{}: every arrived job must terminate exactly once",
            r.policy
        );
        assert!(
            r.goodput <= r.throughput + 1e-9,
            "{}: goodput {} exceeds throughput {}",
            r.policy,
            r.goodput,
            r.throughput
        );
    }
    let fifo = &reports[0];
    let fair = &reports[2];
    assert!(
        fair.fairness > fifo.fairness,
        "fair-share must strictly improve Jain's index over FIFO on the skewed trace: \
         fair {} vs fifo {}",
        fair.fairness,
        fifo.fairness
    );
    println!(
        "fairness: fair-share Jain {:.4} > FIFO Jain {:.4} (+{:.1}%)",
        fair.fairness,
        fifo.fairness,
        (fair.fairness / fifo.fairness - 1.0) * 100.0
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"exhibit\": \"cluster_policies\",").unwrap();
    writeln!(
        json,
        "  \"nodes\": {}, \"jobs\": {}, \"seed\": {}, \"tenants\": {},",
        args.nodes,
        trace.jobs.len(),
        args.seed,
        tenants.len()
    )
    .unwrap();
    writeln!(json, "  \"policies\": {{").unwrap();
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        writeln!(json, "    \"{}\": {}{comma}", r.policy, r.to_json()).unwrap();
    }
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&args.out, json).expect("write BENCH json");
    println!("\nwrote {}", args.out);
    println!("ok");
}
