//! `cluster-policies`: a cluster what-if.
//!
//! Each round draws one `JobTrace::skewed` trace (about 30 jobs on
//! `cluster_a(16)`) and runs it under FIFO, SRWF, and FairShare with
//! Zeppelin planning every job step. Many small-width steps make the event
//! loop and step-report assembly dominate; this is also the only workload
//! that exercises the driver's step memo and the policies.
//!
//! A latency sample is one step simulation inside `run_cluster`: the host
//! time from one `Scheduler::plan` call to the next, stamped by a thin
//! wrapper around the scheduler. A whole `run_cluster` call is too coarse a
//! sample: its cost varies twofold between traces and policies, so a
//! 99th percentile over the few dozen calls of one measurement is the
//! slowest trace the seed happened to draw. Over thousands of steps from
//! every trace of the measurement it is a property of the workload.
//!
//! The traced run wraps the policy and the scheduler handed to
//! `run_cluster` in timing shims. Every wrapped `Scheduler::plan` call is a
//! memo miss; its inputs are recorded and replayed through `simulate_step`
//! afterwards to measure the step simulations the driver ran, since the
//! driver itself is not instrumented. What the policy and the replayed
//! steps do not cover is the driver's own time.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use zeppelin_cluster::{
    run_cluster, ClusterConfig, ClusterEvent, ClusterPolicy, ClusterReport, ClusterView, FairShare,
    Fifo, JobTrace, Outcome as JobEnd, Srwf,
};
use zeppelin_core::plan::{IterationPlan, PlanError};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::zeppelin::Zeppelin;
use zeppelin_data::batch::{balanced_batch, Batch};
use zeppelin_data::datasets::arxiv;
use zeppelin_exec::step::simulate_step;
use zeppelin_model::config::llama_3b;
use zeppelin_sim::topology::cluster_a;

use crate::obs::{median_setup, secs, splitmix64, Tracer};
use crate::sweep::{step_layers, traced_step};
use crate::{Opts, Outcome, Size};

/// Zeppelin's position in the sweep's method roster (per-method metrics).
const ZEPPELIN: usize = 3;

fn shape(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (16, 30),
        Size::Tiny => (4, 6),
    }
}

fn policies() -> [&'static dyn ClusterPolicy; 3] {
    [&Fifo, &Srwf, &FairShare]
}

struct Inputs {
    cfg: ClusterConfig,
    jobs: usize,
    seed: u64,
    first: JobTrace,
}

/// The trace seed of one round. Each run seed gets its own stream: with
/// `seed + round`, neighbouring run seeds shared all but one trace, so a
/// few heavy traces moved a whole run of consecutive seeds together.
fn trace_seed(seed: u64, round: usize) -> u64 {
    splitmix64(seed ^ splitmix64(round as u64))
}

impl Inputs {
    fn trace(&self, round: usize) -> JobTrace {
        if round == 0 {
            self.first.clone()
        } else {
            JobTrace::skewed(trace_seed(self.seed, round), self.jobs, &self.cfg.cluster)
        }
    }
}

fn build(opts: &Opts) -> Inputs {
    let (nodes, jobs) = shape(opts.size);
    let cfg = ClusterConfig {
        cluster: cluster_a(nodes),
        ..ClusterConfig::default()
    };
    let first = JobTrace::skewed(trace_seed(opts.seed, 0), jobs, &cfg.cluster);
    first.validate().expect("generated traces are valid");
    // Warm the allocator and caches with one Zeppelin step on a fixed
    // batch, so the first timed run does not pay for it and the set-up does
    // the same work for every seed.
    let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b());
    let warm = simulate_step(
        &Zeppelin::new(),
        &balanced_batch(&arxiv(), 65_536),
        &ctx,
        &cfg.step,
    );
    std::hint::black_box(warm.ok());
    Inputs {
        cfg,
        jobs,
        seed: opts.seed,
        first,
    }
}

/// Every job terminated exactly once, none failed, and the report's own
/// invariants hold.
fn report_ok(report: &ClusterReport, trace: &JobTrace) -> bool {
    let n = trace.jobs.len();
    let mut ends = vec![0usize; n];
    for e in &report.events {
        if let ClusterEvent::Complete { job, .. }
        | ClusterEvent::Fail { job, .. }
        | ClusterEvent::Reject { job, .. } = e
        {
            if let Some(c) = ends.get_mut(*job) {
                *c += 1;
            }
        }
    }
    report.check().is_ok()
        && report.failed == 0
        && report.outcomes.len() == n
        && report.outcomes.iter().enumerate().all(|(i, o)| o.job == i)
        && report
            .outcomes
            .iter()
            .all(|o| !matches!(o.outcome, JobEnd::Failed(_)))
        && ends.iter().all(|&c| c == 1)
}

fn commits(report: &ClusterReport) -> u64 {
    report
        .events
        .iter()
        .filter(|e| matches!(e, ClusterEvent::StepCommit { .. }))
        .count() as u64
}

/// Step launches the driver made: every start and resize launches a step,
/// and so does every commit that does not complete its job. Each launch is
/// a memo hit or a step simulation.
fn launches(report: &ClusterReport) -> u64 {
    let count = |f: fn(&ClusterEvent) -> bool| report.events.iter().filter(|e| f(e)).count();
    (count(|e| matches!(e, ClusterEvent::Start { .. }))
        + count(|e| matches!(e, ClusterEvent::Resize { .. }))
        + count(|e| matches!(e, ClusterEvent::StepCommit { .. }))
        - count(|e| matches!(e, ClusterEvent::Complete { .. }))) as u64
}

fn digest_report(out: &mut Outcome, report: &ClusterReport) {
    out.digest.bytes(report.policy.as_bytes());
    out.digest.bytes(format!("{:?}", report.events).as_bytes());
    out.digest.u64(report.makespan.as_nanos());
}

/// Times one `run_cluster` call; a run error or a broken report is a
/// failure.
fn timed_run(
    policy: &dyn ClusterPolicy,
    scheduler: &dyn Scheduler,
    trace: &JobTrace,
    cfg: &ClusterConfig,
) -> (Option<ClusterReport>, Duration) {
    let t0 = Instant::now();
    let report = run_cluster(policy, scheduler, trace, cfg);
    let dt = t0.elapsed();
    (report.ok().filter(|r| report_ok(r, trace)), dt)
}

/// Times every `schedule` call of the wrapped policy.
struct TimedPolicy<'a> {
    inner: &'a dyn ClusterPolicy,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl ClusterPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&self, view: &ClusterView) -> Vec<zeppelin_cluster::Action> {
        let t0 = Instant::now();
        let actions = self.inner.schedule(view);
        self.calls.borrow_mut().push((t0, Instant::now()));
        actions
    }
}

/// Stamps the start of every plan call. Each call is a step simulation
/// the driver's memo missed, so the stamps cut a run into per-step
/// latencies; taking one clock reading per call costs well under 0.1% of a
/// step.
struct StampingScheduler<'a> {
    inner: &'a dyn Scheduler,
    stamps: RefCell<Vec<Instant>>,
}

impl Scheduler for StampingScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, batch: &Batch, ctx: &SchedulerCtx) -> Result<IterationPlan, PlanError> {
        self.stamps.borrow_mut().push(Instant::now());
        self.inner.plan(batch, ctx)
    }
}

/// Records the inputs of every plan call: each one is a step simulation
/// the driver's memo missed.
struct RecordingScheduler<'a> {
    inner: &'a dyn Scheduler,
    misses: RefCell<Vec<(Batch, SchedulerCtx)>>,
}

impl Scheduler for RecordingScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&self, batch: &Batch, ctx: &SchedulerCtx) -> Result<IterationPlan, PlanError> {
        self.misses.borrow_mut().push((batch.clone(), ctx.clone()));
        self.inner.plan(batch, ctx)
    }
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Outcome {
    let setups = if opts.size == Size::Full { 15 } else { 2 };
    let (inputs, setup_s) = median_setup(setups, || build(opts), drop);
    let zeppelin = Zeppelin::new();
    let (nodes, jobs) = shape(opts.size);
    let mut out = Outcome {
        setup_s,
        op_unit: "committed job-steps per host second",
        latency_of: "one step simulation inside run_cluster (host time between consecutive Scheduler::plan calls)",
        params: vec![
            ("cluster", format!("cluster_a({nodes})")),
            ("trace", format!("JobTrace::skewed, {jobs} jobs per round")),
            ("policies", "FIFO,SRWF,FairShare".to_string()),
            ("scheduler", "Zeppelin".to_string()),
            ("config", "ClusterConfig::default()".to_string()),
        ],
        ..Outcome::default()
    };

    let Some(tr) = tracer else {
        let mut steps = 0u64;
        let mut busy = Duration::ZERO;
        let start = Instant::now();
        let mut round = 0;
        while round == 0 || secs(start.elapsed()) < opts.seconds {
            let trace = inputs.trace(round);
            for policy in policies() {
                out.attempted += 1;
                let stamping = StampingScheduler {
                    inner: &zeppelin,
                    stamps: RefCell::new(Vec::new()),
                };
                let t0 = Instant::now();
                let (report, dt) = timed_run(policy, &stamping, &trace, &inputs.cfg);
                let t1 = Instant::now();
                busy += dt;
                // One sample per step simulation: the host time from one
                // plan call to the next, with the run's entry and exit as
                // the outer edges, so the samples add up to the run.
                let mut edges = vec![t0];
                edges.extend(stamping.stamps.into_inner());
                edges.push(t1);
                out.latencies_us
                    .extend(edges.windows(2).map(|w| secs(w[1] - w[0]) * 1e6));
                match report {
                    Some(r) => {
                        steps += commits(&r);
                        if round == 0 {
                            digest_report(&mut out, &r);
                        }
                    }
                    None => out.failed += 1,
                }
            }
            round += 1;
        }
        out.ops_per_s = steps as f64 / secs(busy).max(1e-12);
        return out;
    };

    // Traced: round 0 once untraced, then once traced.
    let trace = inputs.trace(0);
    let untraced: Duration = policies()
        .into_iter()
        .map(|p| timed_run(p, &zeppelin, &trace, &inputs.cfg).1)
        .sum();
    let mut step_id = 0u64;
    let (mut step_sims, mut step_launches) = (0u64, 0u64);
    for (run_id, policy) in policies().into_iter().enumerate() {
        out.attempted += 1;
        let timed = TimedPolicy {
            inner: policy,
            calls: RefCell::new(Vec::new()),
        };
        let recording = RecordingScheduler {
            inner: &zeppelin,
            misses: RefCell::new(Vec::new()),
        };
        let root = tr.open("cluster.run", None, run_id as u64);
        let (report, _) = timed_run(&timed, &recording, &trace, &inputs.cfg);
        tr.close(root);
        for (t0, t1) in timed.calls.into_inner() {
            tr.record("cluster.policy", Some(root), run_id as u64, t0, t1);
        }
        let Some(report) = report else {
            out.failed += 1;
            continue;
        };
        digest_report(&mut out, &report);
        step_launches += launches(&report);
        let misses = recording.misses.into_inner();
        step_sims += misses.len() as u64;
        for (batch, ctx) in &misses {
            let (rep, matches) = traced_step(
                tr,
                step_id,
                &zeppelin,
                batch,
                ctx,
                &inputs.cfg.step,
                Some(ZEPPELIN),
            );
            if rep.is_none() || !matches {
                out.failed += 1;
            }
            step_id += 1;
        }
    }
    let run_ms = tr.busy_ms("cluster.run");
    let policy_ms = tr.busy_ms("cluster.policy");
    let step_ms = tr.busy_ms("exec.step");
    step_layers(tr, &mut out, secs(untraced) * 1e3, run_ms);
    let l = &mut out.layers;
    l.insert("cluster.step_sims", step_sims as f64);
    l.insert("cluster.step_launches", step_launches as f64);
    l.insert(
        "cluster.memo_hit_ratio",
        step_launches.saturating_sub(step_sims) as f64 / step_launches.max(1) as f64,
    );
    l.insert("cluster.step_sim.busy_ms", step_ms);
    l.insert("cluster.policy.busy_ms", policy_ms);
    l.insert("cluster.policy.calls", tr.calls("cluster.policy") as f64);
    l.insert("cluster.driver.self_ms", run_ms - policy_ms - step_ms);
    out
}
