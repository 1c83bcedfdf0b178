//! `sweep-64gpu`: what a paper-sweep user runs.
//!
//! A closed loop with one caller: each pass puts one `arxiv` (long-tailed)
//! and one `fineweb` (short-dominated) 256k-token batch through every
//! method of the Fig. 8 roster (TE CP, LLaMA CP, Hybrid DP, Zeppelin) with
//! `simulate_step` on `cluster_a(8)` (64 GPUs) and LLaMA-3B. Lowering does
//! most of the host work here.
//!
//! The traced run rebuilds each step layer by layer from the same public
//! functions `simulate_step` uses (`Scheduler::plan`, `lower_layer`,
//! `Simulator::run_with_faults`) and checks that the rebuilt layer times
//! equal the step's bit for bit. The part of the step those layers do not
//! cover is reported as `exec.step.other_ms`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use zeppelin_bench::harness::methods;
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::validate::validate_with_batch;
use zeppelin_data::batch::{balanced_batch, sample_batch, Batch};
use zeppelin_data::datasets::{arxiv, fineweb};
use zeppelin_data::distribution::LengthDistribution;
use zeppelin_exec::step::{moe_linear_factor, simulate_step, StepConfig, StepReport};
use zeppelin_exec::{lower_layer, Direction};
use zeppelin_model::config::llama_3b;
use zeppelin_sim::engine::{Simulator, TaskId};
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::cluster_a;

use crate::obs::{median_setup, secs, splitmix64, Tracer};
use crate::{trace_overhead, Opts, Outcome, Size};

/// Per-method lowering metrics, in `harness::methods()` order.
const LOWER_MS: [&str; 4] = [
    "exec.lower.busy_ms.te_cp",
    "exec.lower.busy_ms.llama_cp",
    "exec.lower.busy_ms.hybrid_dp",
    "exec.lower.busy_ms.zeppelin",
];
const LOWER_TASKS: [&str; 4] = [
    "exec.lower.tasks.te_cp",
    "exec.lower.tasks.llama_cp",
    "exec.lower.tasks.hybrid_dp",
    "exec.lower.tasks.zeppelin",
];

/// Batch pairs per run; passes beyond this reuse them in order.
const POOL: usize = 16;
/// Draws per kept batch in [`stratified`]. The heaviest passes, which set
/// the tail latency, hold the batches at the top strata; with fewer draws
/// (16 per kept batch) their sequence counts, and so the slowest pass,
/// moved by about 12% between seeds.
const STRATA: usize = 256;
/// Passes every run completes; the outputs digest covers exactly these,
/// and the traced run measures them.
const FIXED_PASSES: usize = 2;

struct Inputs {
    ctx: SchedulerCtx,
    methods: Vec<Box<dyn Scheduler>>,
    /// `(arxiv, fineweb)` batches.
    pairs: Vec<(Batch, Batch)>,
}

fn shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (8, 262_144),
        Size::Tiny => (1, 16_384),
    }
}

fn build(opts: &Opts) -> Inputs {
    let (nodes, tokens) = shape(opts.size);
    let ctx = SchedulerCtx::new(&cluster_a(nodes), &llama_3b());
    let methods = methods().iter().map(|m| m.build()).collect();
    let (long, short) = (arxiv(), fineweb());
    let mut rng = StdRng::seed_from_u64(splitmix64(opts.seed));
    let longs = stratified(&long, &mut rng, tokens);
    let shorts = stratified(&short, &mut rng, tokens);
    // Fewest long sequences with most short ones, and so on: passes cost
    // about the same. The pass order is the seed's.
    let mut pairs: Vec<(Batch, Batch)> = longs.into_iter().zip(shorts.into_iter().rev()).collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.random_range(0..=i));
    }
    let inputs = Inputs {
        ctx,
        methods,
        pairs,
    };
    // Warm the allocator and caches with one Zeppelin step on a fixed
    // batch, so the first timed pass does not pay for it and the set-up
    // does the same work for every seed.
    let zeppelin = inputs
        .methods
        .last()
        .expect("the roster ends with Zeppelin");
    let warm = simulate_step(
        zeppelin.as_ref(),
        &balanced_batch(&long, tokens),
        &inputs.ctx,
        &StepConfig::default(),
    );
    std::hint::black_box(warm.ok());
    inputs
}

/// `POOL` batches of `tokens` tokens spread evenly over the sequence counts
/// of `POOL * STRATA` draws, fewest first. Lowering cost grows with the
/// number of sequences, which varies up to threefold between 256k-token
/// draws; stratifying keeps runs on different seeds comparable.
fn stratified(dist: &LengthDistribution, rng: &mut StdRng, tokens: u64) -> Vec<Batch> {
    let mut drawn: Vec<Batch> = (0..POOL * STRATA)
        .map(|_| sample_batch(dist, rng, tokens))
        .collect();
    drawn.sort_by_key(Batch::len);
    drawn.into_iter().skip(STRATA / 2).step_by(STRATA).collect()
}

/// The steps of pass `pass`, in execution order: `(method, batch)`.
fn pass_steps(inputs: &Inputs, pass: usize) -> Vec<(usize, &Batch)> {
    let (long, short) = &inputs.pairs[pass % inputs.pairs.len()];
    (0..inputs.methods.len())
        .flat_map(|m| [(m, long), (m, short)])
        .collect()
}

/// Times one `simulate_step` call.
fn timed_step(
    scheduler: &dyn Scheduler,
    batch: &Batch,
    inputs: &Inputs,
    cfg: &StepConfig,
) -> (Option<StepReport>, Duration) {
    let t0 = Instant::now();
    let report = simulate_step(scheduler, batch, &inputs.ctx, cfg);
    (report.ok(), t0.elapsed())
}

/// Rebuilds one step layer by layer under `parent`, recording `core.plan`,
/// `core.validate`, `exec.lower`, and `sim.run` spans plus the simulator's
/// counters. Returns the rebuilt `(layer_forward, layer_backward)` and the
/// milliseconds of the layers `simulate_step` itself runs.
#[allow(clippy::too_many_arguments)]
pub fn replay_step(
    tr: &mut Tracer,
    parent: usize,
    id: u64,
    scheduler: &dyn Scheduler,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
    method: Option<usize>,
) -> Result<((SimDuration, SimDuration), f64), String> {
    let mut covered_ms = 0.0;
    let t0 = Instant::now();
    let plan = scheduler.plan(batch, ctx).map_err(|e| e.to_string());
    let t1 = Instant::now();
    tr.record("core.plan", Some(parent), id, t0, t1);
    covered_ms += secs(t1 - t0) * 1e3;
    let plan = plan?;

    let t0 = Instant::now();
    let audit = validate_with_batch(&plan, ctx, batch);
    let t1 = Instant::now();
    tr.record("core.validate", Some(parent), id, t0, t1);
    if cfg.audit_plans {
        covered_ms += secs(t1 - t0) * 1e3;
    }
    audit.map_err(|v| format!("plan failed validate_with_batch: {} violation(s)", v.len()))?;

    let mut exec = cfg.exec.clone();
    exec.moe_linear_factor *=
        moe_linear_factor(&ctx.model, batch.total_tokens(), cfg.seed, cfg.moe_skew);
    let nranks = ctx.cluster.total_gpus();
    let chained = cfg.chained_layers.max(1);
    let mut layer = [SimDuration::ZERO; 2];
    for (slot, dir) in [Direction::Forward, Direction::Backward]
        .into_iter()
        .enumerate()
    {
        let mut sim = Simulator::new(&ctx.cluster);
        let t0 = Instant::now();
        let mut entry: Vec<Option<TaskId>> = vec![None; nranks];
        for _ in 0..chained {
            let out = lower_layer(&mut sim, &ctx.model, &plan, &exec, dir, &entry)
                .map_err(|e| e.to_string())?;
            entry = out.exit.into_iter().map(Some).collect();
        }
        let t1 = Instant::now();
        tr.record("exec.lower", Some(parent), id, t0, t1);
        let lower_ms = secs(t1 - t0) * 1e3;
        let tasks = sim.task_count() as f64;
        tr.count("exec.lower.tasks", tasks);
        if let Some(m) = method {
            tr.count(LOWER_MS[m], lower_ms);
            tr.count(LOWER_TASKS[m], tasks);
        }

        let t0 = Instant::now();
        let report = sim.run_with_faults(&cfg.faults).map_err(|e| e.to_string());
        let t1 = Instant::now();
        tr.record("sim.run", Some(parent), id, t0, t1);
        covered_ms += lower_ms + secs(t1 - t0) * 1e3;
        let report = report?;
        layer[slot] = SimDuration::from_nanos(report.makespan.as_nanos() / chained as u64);
        let stats = &report.stats;
        tr.count("sim.events", stats.events as f64);
        tr.count("sim.rebalances", stats.net.rebalances as f64);
        tr.count("sim.filled_flows", stats.net.filled_flows as f64);
        tr.count(
            "sim.parallel_rebalances",
            stats.net.parallel_rebalances as f64,
        );
        tr.count("sim.components", stats.net.components as f64);
        let pool_ns: u64 = stats.net.worker_busy_ns.iter().sum();
        tr.count("sim.pool.busy_ms", pool_ns as f64 / 1e6);
    }
    Ok(((layer[0], layer[1]), covered_ms))
}

/// Times `simulate_step` as one `exec.step` span, then rebuilds it layer by
/// layer. Returns the report (if the step succeeded) and whether the rebuilt
/// layer times matched it; adds the uncovered remainder to
/// `exec.step.other_ms`.
#[allow(clippy::too_many_arguments)]
pub fn traced_step(
    tr: &mut Tracer,
    id: u64,
    scheduler: &dyn Scheduler,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
    method: Option<usize>,
) -> (Option<StepReport>, bool) {
    let t0 = Instant::now();
    let report = simulate_step(scheduler, batch, ctx, cfg).ok();
    let t1 = Instant::now();
    tr.record("exec.step", None, id, t0, t1);
    let root = tr.open("step.replay", None, id);
    let rebuilt = replay_step(tr, root, id, scheduler, batch, ctx, cfg, method);
    tr.close(root);
    let matches = match (&report, rebuilt) {
        (Some(rep), Ok(((fwd, bwd), covered_ms))) => {
            tr.count("exec.step.other_ms", secs(t1 - t0) * 1e3 - covered_ms);
            rep.layer_forward == fwd && rep.layer_backward == bwd
        }
        _ => false,
    };
    (report, matches)
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Outcome {
    let setups = if opts.size == Size::Full { 15 } else { 2 };
    let (inputs, setup_s) = median_setup(setups, || build(opts), drop);
    let cfg = StepConfig::default();
    let (nodes, tokens) = shape(opts.size);
    let mut out = Outcome {
        setup_s,
        op_unit: "simulated steps per host second",
        latency_of: "one pass: an arxiv and a fineweb batch through all four methods",
        params: vec![
            ("cluster", format!("cluster_a({nodes})")),
            ("gpus", (nodes * 8).to_string()),
            ("model", "llama-3b".to_string()),
            ("tokens_per_batch", tokens.to_string()),
            ("datasets", "arxiv,fineweb".to_string()),
            ("methods", "TE CP,LLaMA CP,Hybrid DP,Zeppelin".to_string()),
            ("step_config", "StepConfig::default()".to_string()),
        ],
        ..Outcome::default()
    };

    let Some(tr) = tracer else {
        let mut steps = 0u64;
        let mut busy = Duration::ZERO;
        let start = Instant::now();
        let mut pass = 0;
        while pass < FIXED_PASSES || secs(start.elapsed()) < opts.seconds {
            let mut pass_time = Duration::ZERO;
            for (m, batch) in pass_steps(&inputs, pass) {
                out.attempted += 1;
                let (report, dt) = timed_step(inputs.methods[m].as_ref(), batch, &inputs, &cfg);
                pass_time += dt;
                let Some(rep) = report else {
                    out.failed += 1;
                    continue;
                };
                steps += 1;
                if validate_with_batch(&rep.plan, &inputs.ctx, batch).is_err() {
                    out.failed += 1;
                }
                if pass < FIXED_PASSES {
                    digest_step(&mut out, &rep);
                }
            }
            busy += pass_time;
            out.latencies_us.push(secs(pass_time) * 1e6);
            pass += 1;
        }
        out.ops_per_s = steps as f64 / secs(busy).max(1e-12);
        return out;
    };

    // Traced: the fixed passes once untraced, then once traced.
    let mut untraced = Duration::ZERO;
    for pass in 0..FIXED_PASSES {
        for (m, batch) in pass_steps(&inputs, pass) {
            untraced += timed_step(inputs.methods[m].as_ref(), batch, &inputs, &cfg).1;
        }
    }
    let mut id = 0u64;
    for pass in 0..FIXED_PASSES {
        for (m, batch) in pass_steps(&inputs, pass) {
            out.attempted += 1;
            let scheduler = inputs.methods[m].as_ref();
            let (report, matches) =
                traced_step(tr, id, scheduler, batch, &inputs.ctx, &cfg, Some(m));
            match report {
                Some(rep) if matches => digest_step(&mut out, &rep),
                _ => out.failed += 1,
            }
            id += 1;
        }
    }
    step_layers(tr, &mut out, secs(untraced) * 1e3, tr.busy_ms("exec.step"));
    out
}

fn digest_step(out: &mut Outcome, rep: &StepReport) {
    out.digest.bytes(rep.scheduler.as_bytes());
    out.digest.u64(rep.layer_forward.as_nanos());
    out.digest.u64(rep.layer_backward.as_nanos());
    out.digest.u64(rep.step_time.as_nanos());
}

/// Copies the step-layer spans and counters into `out.layers`, with the
/// end-to-end time they decompose (`e2e_ms`) against the same work run
/// untraced.
pub fn step_layers(tr: &Tracer, out: &mut Outcome, untraced_ms: f64, e2e_ms: f64) {
    let l = &mut out.layers;
    l.insert("exec.step.busy_ms", tr.busy_ms("exec.step"));
    l.insert("core.plan.busy_ms", tr.busy_ms("core.plan"));
    l.insert("core.plan.calls", tr.calls("core.plan") as f64);
    l.insert("core.validate.busy_ms", tr.busy_ms("core.validate"));
    l.insert("exec.lower.busy_ms", tr.busy_ms("exec.lower"));
    l.insert("sim.run.busy_ms", tr.busy_ms("sim.run"));
    for name in LOWER_MS.iter().chain(&LOWER_TASKS).chain(&[
        "exec.step.other_ms",
        "exec.lower.tasks",
        "sim.events",
        "sim.rebalances",
        "sim.filled_flows",
        "sim.parallel_rebalances",
        "sim.components",
        "sim.pool.busy_ms",
    ]) {
        l.insert(name, tr.counter(name));
    }
    trace_overhead(out, untraced_ms, e2e_ms);
}
