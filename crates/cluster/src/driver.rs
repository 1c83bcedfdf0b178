//! The discrete-event cluster driver.
//!
//! [`run_cluster`] advances a cluster clock from event to event: job
//! arrivals from the trace and step completions of running jobs. At each
//! instant it processes completions (job-id order), then arrivals, then
//! invokes the [`ClusterPolicy`] repeatedly over a read-only view —
//! applying each action batch before the next invocation — until the
//! policy returns no actions, so nodes freed by a preemption or shrink can
//! be placed within the same instant. Policies must therefore converge to
//! an empty action list once their goals are met; one that keeps emitting
//! actions exhausts the event budget ([`ClusterError::MaxEventsExceeded`]).
//! The whole loop is deterministic: two runs of the same trace under the
//! same policy are bit-identical, event log included.
//!
//! Per-job execution reuses the single-job stack unchanged: batches are
//! pre-sampled at arrival from the job's seed exactly as `run_training`
//! samples them, and each launch plans its step with the scheduler on a
//! [`SchedulerCtx`] derived for the job's current node allocation, exactly
//! as `simulate_step` does. The plan and everything else the simulation
//! reads key the [`StepCache`] in [`ClusterConfig::step_cache`], shared by
//! every run on clones of the config, so rollback replays and reruns of
//! the same trace under other policies skip the simulation but not the
//! planner. Elastic resizes go through
//! [`SchedulerCtx::resize_nodes`] and charge a replan cost; preemption is
//! checkpoint-and-requeue with [`Checkpointer`] rollback semantics and a
//! restore cost on the next start — nothing is free.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_data::batch::{sample_batch, Batch};
use zeppelin_exec::recovery::Checkpointer;
use zeppelin_exec::step::{simulate_plan, StepConfig, StepError};
use zeppelin_model::config::ModelConfig;
use zeppelin_sim::time::{SimDuration, SimTime};
use zeppelin_sim::topology::ClusterSpec;

use crate::metrics::{ClusterEvent, ClusterReport, JobOutcome, Outcome};
use crate::policy::{Action, ClusterPolicy, ClusterView, QueuedView, RunningView};
use crate::step_cache::{StepCache, StepKey};
use crate::trace::{JobSpec, JobTrace, TraceError};

/// Configuration of a cluster simulation.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The shared cluster (jobs run on node-granular slices of it).
    pub cluster: ClusterSpec,
    /// Per-step simulation configuration shared by all jobs.
    pub step: StepConfig,
    /// Wall time charged when a running job is elastically resized (the
    /// planner re-derives its layout before the step restarts).
    pub replan_cost: SimDuration,
    /// Checkpoint cadence and restore cost for preemption rollback.
    pub ckpt: Checkpointer,
    /// Upper bound on processed events — a runaway backstop, not a tuning
    /// knob.
    pub max_events: usize,
    /// Step outcomes already simulated. Clones of the config share it, so
    /// runs comparing policies on one trace simulate each distinct step
    /// once; give a run [`StepCache::new`] to simulate everything afresh.
    pub step_cache: StepCache,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            cluster: zeppelin_sim::topology::cluster_a(8),
            step: StepConfig::default(),
            replan_cost: SimDuration::from_millis(200),
            ckpt: Checkpointer::new(2, SimDuration::from_millis(500)),
            max_events: 1_000_000,
            step_cache: StepCache::new(),
        }
    }
}

/// Errors from the cluster driver. Per-job step failures are *not* errors —
/// they terminate that job as [`Outcome::Failed`]; these are whole-run
/// failures.
#[derive(Debug)]
pub enum ClusterError {
    /// The input trace failed validation.
    Trace(TraceError),
    /// The policy returned an inapplicable action (unknown job, node
    /// bounds violated, allocation exceeding the free pool, …).
    BadAction {
        /// Policy name.
        policy: String,
        /// What was wrong.
        detail: String,
    },
    /// Jobs were queued, nothing was running, no arrivals remained, and
    /// the policy started nothing — the simulation cannot make progress.
    Stuck {
        /// The instant of the stall.
        at: SimTime,
    },
    /// The event budget was exhausted (runaway policy loop).
    MaxEventsExceeded,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Trace(e) => write!(f, "invalid trace: {e}"),
            ClusterError::BadAction { policy, detail } => {
                write!(f, "policy \"{policy}\" returned a bad action: {detail}")
            }
            ClusterError::Stuck { at } => {
                write!(
                    f,
                    "no progress possible at {at}: queued jobs but nothing runnable"
                )
            }
            ClusterError::MaxEventsExceeded => write!(f, "event budget exhausted"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<TraceError> for ClusterError {
    fn from(e: TraceError) -> Self {
        ClusterError::Trace(e)
    }
}

/// A step attempt in flight on the cluster clock.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Step index being attempted.
    step: usize,
    /// Instant the attempt began (including any restore/replan overhead).
    began: SimTime,
    /// Instant the step commits if undisturbed.
    end: SimTime,
    /// The step's simulated duration (excluding overhead).
    step_time: SimDuration,
}

/// Mutable per-job state inside the driver.
struct JobState {
    spec: JobSpec,
    model: ModelConfig,
    batches: Vec<Batch>,
    steps_done: usize,
    nodes: usize,
    ctx: Option<SchedulerCtx>,
    run: Option<InFlight>,
    queued_since: SimTime,
    restore_pending: bool,
    first_start: Option<SimTime>,
    queueing_delay: SimDuration,
    productive: SimDuration,
    useful_tokens: u64,
    lost_tokens: u64,
    preemptions: u32,
    replans: u32,
    step_times: Vec<SimDuration>,
    done: Option<(Outcome, SimTime)>,
}

impl JobState {
    fn outcome(&self) -> JobOutcome {
        let (outcome, finish) = self
            .done
            .clone()
            .expect("terminal state required for outcome");
        JobOutcome {
            job: self.spec.id,
            tenant: self.spec.tenant.clone(),
            outcome,
            arrival: self.spec.arrival,
            first_start: self.first_start,
            finish,
            queueing_delay: self.queueing_delay,
            productive: self.productive,
            useful_tokens: self.useful_tokens,
            lost_tokens: self.lost_tokens,
            preemptions: self.preemptions,
            replans: self.replans,
            step_times: self.step_times.clone(),
        }
    }
}

struct Driver<'a> {
    cfg: &'a ClusterConfig,
    scheduler: &'a dyn Scheduler,
    states: BTreeMap<usize, JobState>,
    /// Queue of job ids ordered by (arrival, id) — requeued jobs keep
    /// their arrival-order slot.
    queue: Vec<usize>,
    free_nodes: usize,
    events: Vec<ClusterEvent>,
    scheduler_name: String,
}

impl Driver<'_> {
    /// Plans the job's `step` and simulates the plan, or reuses the outcome
    /// of an identical earlier simulation.
    fn simulate(&mut self, job: usize, step: usize) -> Result<SimDuration, String> {
        let st = &self.states[&job];
        let ctx = st.ctx.as_ref().expect("running job has a context");
        let batch = &st.batches[step];
        let plan = self
            .scheduler
            .plan(batch, ctx)
            .map_err(|e| StepError::Plan(e).to_string())?;
        let mut scfg = self.cfg.step.clone();
        scfg.seed = st.spec.seed.wrapping_add(step as u64);
        let key = StepKey::new(&plan, batch, ctx, &scfg);
        let out = self.cfg.step_cache.get_or_simulate(&key, || {
            simulate_plan(&plan, batch, ctx, &scfg)
                .map(|rep| rep.step_time)
                .map_err(|e| e.to_string())
        });
        if out.is_ok() {
            self.scheduler_name = plan.scheduler;
        }
        out
    }

    /// Launches the job's next step at `now` after `overhead`; on a step
    /// failure the job terminates as [`Outcome::Failed`].
    fn launch_step(&mut self, job: usize, now: SimTime, overhead: SimDuration) {
        let step = self.states[&job].steps_done;
        match self.simulate(job, step) {
            Ok(step_time) => {
                let st = self.states.get_mut(&job).expect("job exists");
                st.run = Some(InFlight {
                    step,
                    began: now,
                    end: now + overhead + step_time,
                    step_time,
                });
            }
            Err(reason) => {
                let st = self.states.get_mut(&job).expect("job exists");
                self.free_nodes += st.nodes;
                st.nodes = 0;
                st.ctx = None;
                st.run = None;
                st.done = Some((Outcome::Failed(reason), now));
                self.events.push(ClusterEvent::Fail { t: now, job });
            }
        }
    }

    /// Aborts an in-flight attempt at `now`, charging discarded tokens when
    /// any wall time was actually burnt.
    fn abort_attempt(&mut self, job: usize, now: SimTime) {
        let st = self.states.get_mut(&job).expect("job exists");
        if let Some(run) = st.run.take() {
            let elapsed = now - run.began;
            if elapsed > SimDuration::ZERO {
                st.lost_tokens += st.batches[run.step].total_tokens();
            }
        }
    }

    fn enqueue(&mut self, job: usize, now: SimTime) {
        let st = self.states.get_mut(&job).expect("job exists");
        st.queued_since = now;
        let key = (st.spec.arrival, job);
        let pos = self
            .queue
            .partition_point(|&j| (self.states[&j].spec.arrival, j) <= key);
        self.queue.insert(pos, job);
    }

    fn sub_cluster(&self, nodes: usize) -> ClusterSpec {
        // A job's allocation takes the pool's first `nodes` tiers with it
        // (padded at 1.0 if the pool ever over-allocates).
        let mut node_tiers: Vec<f64> = self
            .cfg
            .cluster
            .node_tiers
            .iter()
            .copied()
            .take(nodes)
            .collect();
        if !node_tiers.is_empty() {
            node_tiers.resize(nodes, 1.0);
        }
        ClusterSpec {
            name: self.cfg.cluster.name.clone(),
            nodes,
            node_tiers,
            node: self.cfg.cluster.node.clone(),
        }
    }

    fn bad_action(&self, policy: &dyn ClusterPolicy, detail: String) -> ClusterError {
        ClusterError::BadAction {
            policy: policy.name().to_string(),
            detail,
        }
    }

    fn apply_action(
        &mut self,
        policy: &dyn ClusterPolicy,
        action: Action,
        now: SimTime,
    ) -> Result<(), ClusterError> {
        match action {
            Action::Start { job, nodes } => {
                let Some(pos) = self.queue.iter().position(|&j| j == job) else {
                    return Err(self.bad_action(policy, format!("start of non-queued job {job}")));
                };
                let spec = &self.states[&job].spec;
                if nodes < spec.min_nodes || nodes > spec.max_nodes {
                    return Err(self.bad_action(
                        policy,
                        format!(
                            "start of job {job} on {nodes} nodes outside [{}, {}]",
                            spec.min_nodes, spec.max_nodes
                        ),
                    ));
                }
                if nodes > self.free_nodes {
                    return Err(self.bad_action(
                        policy,
                        format!(
                            "start of job {job} on {nodes} nodes with {} free",
                            self.free_nodes
                        ),
                    ));
                }
                self.queue.remove(pos);
                self.free_nodes -= nodes;
                let sub = self.sub_cluster(nodes);
                let st = self.states.get_mut(&job).expect("job exists");
                st.nodes = nodes;
                st.ctx = Some(SchedulerCtx::new(&sub, &st.model));
                st.first_start.get_or_insert(now);
                st.queueing_delay = st.queueing_delay.saturating_add(now - st.queued_since);
                let overhead = if st.restore_pending {
                    st.restore_pending = false;
                    self.cfg.ckpt.restore_cost
                } else {
                    SimDuration::ZERO
                };
                self.events.push(ClusterEvent::Start { t: now, job, nodes });
                self.launch_step(job, now, overhead);
                Ok(())
            }
            Action::Preempt { job } => {
                if self
                    .states
                    .get(&job)
                    .map(|s| s.run.is_none())
                    .unwrap_or(true)
                {
                    return Err(
                        self.bad_action(policy, format!("preempt of non-running job {job}"))
                    );
                }
                self.abort_attempt(job, now);
                let ckpt = self.cfg.ckpt;
                let st = self.states.get_mut(&job).expect("job exists");
                let floor = ckpt.floor(st.steps_done);
                let rolled = st.steps_done - floor;
                for _ in 0..rolled {
                    let s = st.step_times.pop().expect("rolled-back step exists");
                    let tokens = st.batches[st.step_times.len()].total_tokens();
                    st.productive = SimDuration::from_nanos(
                        st.productive.as_nanos().saturating_sub(s.as_nanos()),
                    );
                    st.useful_tokens -= tokens;
                    st.lost_tokens += tokens;
                }
                st.steps_done = floor;
                st.restore_pending = true;
                st.preemptions += 1;
                self.free_nodes += st.nodes;
                st.nodes = 0;
                st.ctx = None;
                self.events.push(ClusterEvent::Preempt {
                    t: now,
                    job,
                    rolled_back: rolled,
                });
                self.enqueue(job, now);
                Ok(())
            }
            Action::Resize { job, nodes } => {
                let Some(st) = self.states.get(&job) else {
                    return Err(self.bad_action(policy, format!("resize of unknown job {job}")));
                };
                if st.run.is_none() {
                    return Err(self.bad_action(policy, format!("resize of non-running job {job}")));
                }
                let from = st.nodes;
                if nodes == from {
                    return Err(self.bad_action(policy, format!("no-op resize of job {job}")));
                }
                if nodes < st.spec.min_nodes || nodes > st.spec.max_nodes {
                    return Err(self.bad_action(
                        policy,
                        format!(
                            "resize of job {job} to {nodes} nodes outside [{}, {}]",
                            st.spec.min_nodes, st.spec.max_nodes
                        ),
                    ));
                }
                if nodes > from && nodes - from > self.free_nodes {
                    return Err(self.bad_action(
                        policy,
                        format!(
                            "grow of job {job} by {} nodes with {} free",
                            nodes - from,
                            self.free_nodes
                        ),
                    ));
                }
                self.abort_attempt(job, now);
                let st = self.states.get_mut(&job).expect("job exists");
                let ctx = st.ctx.take().expect("running job has a context");
                let resized = ctx
                    .resize_nodes(nodes)
                    .map_err(|e| ClusterError::BadAction {
                        policy: policy.name().to_string(),
                        detail: format!("resize of job {job} failed to replan: {e}"),
                    })?;
                st.ctx = Some(resized);
                if nodes > from {
                    self.free_nodes -= nodes - from;
                } else {
                    self.free_nodes += from - nodes;
                }
                st.nodes = nodes;
                st.replans += 1;
                self.events.push(ClusterEvent::Resize {
                    t: now,
                    job,
                    from,
                    to: nodes,
                });
                let replan = self.cfg.replan_cost;
                self.launch_step(job, now, replan);
                Ok(())
            }
        }
    }

    fn view(&self, now: SimTime) -> ClusterView<'_> {
        let queued = self
            .queue
            .iter()
            .map(|&j| {
                let st = &self.states[&j];
                QueuedView {
                    spec: &st.spec,
                    queued_since: st.queued_since,
                    remaining_steps: st.spec.steps - st.steps_done,
                    restore_pending: st.restore_pending,
                }
            })
            .collect();
        let running = self
            .states
            .values()
            .filter(|st| st.run.is_some())
            .map(|st| RunningView {
                spec: &st.spec,
                nodes: st.nodes,
                remaining_steps: st.spec.steps - st.steps_done,
                started_at: st.run.as_ref().expect("filtered on run").began,
            })
            .collect();
        ClusterView {
            now,
            total_nodes: self.cfg.cluster.nodes,
            free_nodes: self.free_nodes,
            queued,
            running,
        }
    }
}

/// Runs `trace` on the shared cluster under `policy`, planning every job's
/// steps with `scheduler`.
///
/// # Errors
///
/// Returns [`ClusterError::Trace`] for an invalid trace,
/// [`ClusterError::BadAction`] when the policy returns an inapplicable
/// action, [`ClusterError::Stuck`] when queued work can never run, and
/// [`ClusterError::MaxEventsExceeded`] on a runaway event loop. Per-job
/// step failures terminate that job as [`Outcome::Failed`] instead of
/// failing the run.
pub fn run_cluster(
    policy: &dyn ClusterPolicy,
    scheduler: &dyn Scheduler,
    trace: &JobTrace,
    cfg: &ClusterConfig,
) -> Result<ClusterReport, ClusterError> {
    trace.validate()?;

    let mut d = Driver {
        cfg,
        scheduler,
        states: BTreeMap::new(),
        queue: Vec::new(),
        free_nodes: cfg.cluster.nodes,
        events: Vec::new(),
        scheduler_name: String::new(),
    };

    let mut next_arrival = 0usize;
    let mut now = SimTime::ZERO;
    let mut busy_node_ns: u128 = 0;
    let mut processed = 0usize;

    loop {
        // Next instant: the earlier of the next arrival and the earliest
        // step completion (ties processed together, completions first).
        let arr = trace.jobs.get(next_arrival).map(|j| j.arrival);
        let end = d
            .states
            .values()
            .filter_map(|st| st.run.as_ref().map(|r| r.end))
            .min();
        let next = match (arr, end) {
            (Some(a), Some(e)) => a.min(e),
            (Some(a), None) => a,
            (None, Some(e)) => e,
            (None, None) => {
                if d.queue.is_empty() {
                    break;
                }
                return Err(ClusterError::Stuck { at: now });
            }
        };

        let allocated = (cfg.cluster.nodes - d.free_nodes) as u128;
        busy_node_ns += allocated * (next - now).as_nanos() as u128;
        now = next;

        processed += 1;
        if processed > cfg.max_events {
            return Err(ClusterError::MaxEventsExceeded);
        }

        // 1. Step completions at `now`, in job-id order.
        let completions: Vec<usize> = d
            .states
            .iter()
            .filter(|(_, st)| st.run.map(|r| r.end == now).unwrap_or(false))
            .map(|(&id, _)| id)
            .collect();
        for job in completions {
            let st = d.states.get_mut(&job).expect("job exists");
            let run = st.run.take().expect("completion implies in-flight");
            st.steps_done += 1;
            st.productive = st.productive.saturating_add(run.step_time);
            st.useful_tokens += st.batches[run.step].total_tokens();
            st.step_times.push(run.step_time);
            d.events.push(ClusterEvent::StepCommit {
                t: now,
                job,
                step: run.step,
            });
            if st.steps_done == st.spec.steps {
                d.free_nodes += st.nodes;
                st.nodes = 0;
                st.ctx = None;
                st.done = Some((Outcome::Completed, now));
                d.events.push(ClusterEvent::Complete { t: now, job });
            } else {
                d.launch_step(job, now, SimDuration::ZERO);
            }
        }

        // 2. Arrivals at `now`.
        while trace
            .jobs
            .get(next_arrival)
            .map(|j| j.arrival == now)
            .unwrap_or(false)
        {
            let spec = trace.jobs[next_arrival].clone();
            next_arrival += 1;
            let job = spec.id;
            let model =
                zeppelin_model::config::by_name(&spec.model).expect("trace validated model names");
            let dist = zeppelin_data::datasets::by_name(&spec.dataset)
                .expect("trace validated dataset names");
            let rejected = spec.min_nodes > cfg.cluster.nodes;
            // Pre-sample all batches from the job seed — the exact stream a
            // standalone `run_training` with this seed draws, which the
            // single-job oracle test pins.
            let batches = if rejected {
                Vec::new()
            } else {
                let mut rng = StdRng::seed_from_u64(spec.seed);
                (0..spec.steps)
                    .map(|_| sample_batch(&dist, &mut rng, spec.tokens_per_step))
                    .collect()
            };
            let mut st = JobState {
                spec,
                model,
                batches,
                steps_done: 0,
                nodes: 0,
                ctx: None,
                run: None,
                queued_since: now,
                restore_pending: false,
                first_start: None,
                queueing_delay: SimDuration::ZERO,
                productive: SimDuration::ZERO,
                useful_tokens: 0,
                lost_tokens: 0,
                preemptions: 0,
                replans: 0,
                step_times: Vec::new(),
                done: None,
            };
            if rejected {
                st.done = Some((Outcome::Rejected, now));
                d.states.insert(job, st);
                d.events.push(ClusterEvent::Reject { t: now, job });
            } else {
                d.states.insert(job, st);
                d.events.push(ClusterEvent::Arrive { t: now, job });
                d.enqueue(job, now);
            }
        }

        // 3. Policy invocations at `now`, repeated until quiescent: a
        // preemption or shrink frees nodes within the instant, and the
        // follow-up invocation lets the policy place work onto them
        // immediately instead of stalling until the next event. The event
        // budget bounds pathological policies that never settle.
        loop {
            processed += 1;
            if processed > cfg.max_events {
                return Err(ClusterError::MaxEventsExceeded);
            }
            let actions = policy.schedule(&d.view(now));
            if actions.is_empty() {
                break;
            }
            for action in actions {
                d.apply_action(policy, action, now)?;
            }
        }
    }

    let outcomes: Vec<JobOutcome> = d.states.values().map(JobState::outcome).collect();
    let makespan = SimDuration::from_nanos(now.as_nanos());
    Ok(ClusterReport::assemble(
        policy.name().to_string(),
        d.scheduler_name.clone(),
        cfg.cluster.nodes,
        makespan,
        busy_node_ns,
        outcomes,
        d.events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FairShare, Fifo, Srwf};
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_sim::topology::cluster_a;

    fn small_cfg(nodes: usize) -> ClusterConfig {
        ClusterConfig {
            cluster: cluster_a(nodes),
            ..ClusterConfig::default()
        }
    }

    /// `cfg` on an empty cache of its own.
    fn fresh(cfg: &ClusterConfig) -> ClusterConfig {
        ClusterConfig {
            step_cache: StepCache::new(),
            ..cfg.clone()
        }
    }

    /// Step launches of a run: every start and resize, and every commit
    /// that does not complete its job.
    fn launches(r: &ClusterReport) -> u64 {
        r.events
            .iter()
            .map(|e| match e {
                ClusterEvent::Start { .. }
                | ClusterEvent::Resize { .. }
                | ClusterEvent::StepCommit { .. } => 1,
                ClusterEvent::Complete { .. } => -1,
                _ => 0,
            })
            .sum::<i64>() as u64
    }

    fn job(id: usize, tenant: &str, arrival_ns: u64) -> JobSpec {
        JobSpec {
            id,
            tenant: tenant.into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 2,
            tokens_per_step: 8_192,
            priority: 1,
            min_nodes: 1,
            preferred_nodes: 1,
            max_nodes: 2,
            arrival: SimTime::from_nanos(arrival_ns),
            seed: 40 + id as u64,
        }
    }

    #[test]
    fn every_job_terminates_exactly_once() {
        let trace = JobTrace::random(9, 8, &cluster_a(4));
        let cfg = small_cfg(4);
        for policy in [&Fifo as &dyn ClusterPolicy, &Srwf, &FairShare] {
            let r = run_cluster(policy, &Zeppelin::new(), &trace, &cfg).unwrap();
            assert_eq!(
                r.completed + r.failed + r.rejected,
                8,
                "policy {}",
                policy.name()
            );
            r.check().unwrap();
        }
    }

    #[test]
    fn hetero_schedulers_run_on_tiered_clusters() {
        use zeppelin_sim::topology::cluster_mixed;
        let trace = JobTrace::random(13, 6, &cluster_mixed(4));
        let cfg = ClusterConfig {
            cluster: cluster_mixed(4),
            ..ClusterConfig::default()
        };
        let a = run_cluster(&FairShare, &Zeppelin::new(), &trace, &cfg).unwrap();
        let b = run_cluster(&FairShare, &Zeppelin::new(), &trace, &fresh(&cfg)).unwrap();
        assert_eq!(a.completed + a.failed + a.rejected, 6);
        a.check().unwrap();
        // Tier-aware planning stays deterministic (sub-cluster slices
        // carry the surviving tiers with them).
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn reruns_are_bit_identical() {
        let trace = JobTrace::random(21, 6, &cluster_a(3));
        let cfg = small_cfg(3);
        let a = run_cluster(&FairShare, &Zeppelin::new(), &trace, &cfg).unwrap();
        let b = run_cluster(&FairShare, &Zeppelin::new(), &trace, &fresh(&cfg)).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        // A rerun on the warmed cache simulates nothing and changes nothing.
        let sims = cfg.step_cache.stats().simulations;
        let c = run_cluster(&FairShare, &Zeppelin::new(), &trace, &cfg).unwrap();
        assert_eq!(cfg.step_cache.stats().simulations, sims);
        assert_eq!(a.events, c.events);
        assert_eq!(a.to_json().to_string(), c.to_json().to_string());
    }

    #[test]
    fn oversized_jobs_are_rejected() {
        let mut big = job(0, "a", 0);
        big.min_nodes = 9;
        big.preferred_nodes = 9;
        big.max_nodes = 9;
        let trace = JobTrace::new().push(big).push(job(1, "b", 10));
        let r = run_cluster(&Fifo, &Zeppelin::new(), &trace, &small_cfg(2)).unwrap();
        assert_eq!(r.rejected, 1);
        assert_eq!(r.completed, 1);
        assert!(r.events.contains(&ClusterEvent::Reject {
            t: SimTime::ZERO,
            job: 0
        }));
    }

    #[test]
    fn queueing_shows_up_in_the_report() {
        // Two jobs, one node: the second waits for the first.
        let trace = JobTrace::new().push(job(0, "a", 0)).push(job(1, "b", 10));
        let r = run_cluster(&Fifo, &Zeppelin::new(), &trace, &small_cfg(1)).unwrap();
        assert_eq!(r.completed, 2);
        assert!(r.queue_p99 > SimDuration::ZERO, "second job queued");
        let o1 = &r.outcomes[1];
        assert!(o1.queueing_delay > SimDuration::ZERO);
        r.check().unwrap();
    }

    #[test]
    fn invalid_trace_is_a_typed_error() {
        let err =
            run_cluster(&Fifo, &Zeppelin::new(), &JobTrace::new(), &small_cfg(2)).unwrap_err();
        assert!(matches!(err, ClusterError::Trace(TraceError::Empty)));
    }

    #[test]
    fn stuck_cluster_is_a_typed_error() {
        /// A policy that never starts anything.
        struct Lazy;
        impl ClusterPolicy for Lazy {
            fn name(&self) -> &'static str {
                "lazy"
            }
            fn schedule(&self, _: &ClusterView) -> Vec<Action> {
                Vec::new()
            }
        }
        let trace = JobTrace::new().push(job(0, "a", 0));
        let err = run_cluster(&Lazy, &Zeppelin::new(), &trace, &small_cfg(2)).unwrap_err();
        assert!(matches!(err, ClusterError::Stuck { .. }), "{err}");
    }

    #[test]
    fn bad_policy_actions_are_typed_errors() {
        /// Starts jobs on more nodes than are free.
        struct Greedy;
        impl ClusterPolicy for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn schedule(&self, view: &ClusterView) -> Vec<Action> {
                view.queued
                    .iter()
                    .map(|q| Action::Start {
                        job: q.spec.id,
                        nodes: view.total_nodes + 1,
                    })
                    .collect()
            }
        }
        let mut wide = job(0, "a", 0);
        wide.max_nodes = 99;
        let trace = JobTrace::new().push(wide);
        let err = run_cluster(&Greedy, &Zeppelin::new(), &trace, &small_cfg(2)).unwrap_err();
        assert!(matches!(err, ClusterError::BadAction { .. }), "got {err}");
    }

    #[test]
    fn fair_share_preemption_rolls_back_and_recovers() {
        // One whale monopolizing 4 nodes with a long job, then an urgent
        // minority job arrives mid-run: fair-share preempts, the whale
        // rolls back to its checkpoint and still completes.
        let whale = JobSpec {
            id: 0,
            tenant: "whale".into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 6,
            tokens_per_step: 16_384,
            priority: 0,
            min_nodes: 4,
            preferred_nodes: 4,
            max_nodes: 4,
            arrival: SimTime::ZERO,
            seed: 1,
        };
        let urgent = JobSpec {
            id: 1,
            tenant: "minnow".into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 1,
            tokens_per_step: 8_192,
            priority: 3,
            min_nodes: 1,
            preferred_nodes: 1,
            max_nodes: 1,
            // Arrives while the whale is mid-flight.
            arrival: SimTime::from_nanos(200 * 1_000_000),
            seed: 2,
        };
        let trace = JobTrace::new().push(whale).push(urgent);
        let cfg = small_cfg(4);
        let r = run_cluster(&FairShare, &Zeppelin::new(), &trace, &cfg).unwrap();
        assert_eq!(r.completed, 2, "both jobs finish: {:?}", r.events);
        assert!(r.preemptions >= 1, "events: {:?}", r.events);
        assert!(r.lost_tokens > 0, "rollback discards work");
        assert!(r.goodput < r.throughput);
        r.check().unwrap();
        // The whale restarts on the same four nodes, so every replayed
        // step (the aborted one included) is a cache hit.
        let replayed: usize = r
            .events
            .iter()
            .map(|e| match e {
                ClusterEvent::Preempt { rolled_back, .. } => rolled_back + 1,
                _ => 0,
            })
            .sum();
        let stats = cfg.step_cache.stats();
        assert!(
            stats.hits >= replayed as u64,
            "{replayed} replayed steps, {stats:?}"
        );
        assert_eq!(stats.hits + stats.simulations, launches(&r));
    }

    #[test]
    fn futile_preemption_does_not_livelock() {
        // 12-node cluster, fair share 4 across three tenants. A 9-node
        // priority-3 minnow arrives while a 4-node crux job and a 5-node
        // priority-0 whale job are running. Preempting the whale frees
        // only 3 + 5 = 8 nodes — short of the minnow's minimum — so the
        // preemption must be withheld: a policy that emits it anyway
        // cycles Preempt/Start within the instant (the whale requeues and
        // restarts on its own freed nodes) until the event budget blows
        // with MaxEventsExceeded.
        let crux = JobSpec {
            id: 0,
            tenant: "crux".into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 2,
            tokens_per_step: 8_192,
            priority: 1,
            min_nodes: 4,
            preferred_nodes: 4,
            max_nodes: 4,
            arrival: SimTime::ZERO,
            seed: 1,
        };
        let whale = JobSpec {
            id: 1,
            tenant: "whale".into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 3,
            tokens_per_step: 8_192,
            priority: 0,
            min_nodes: 5,
            preferred_nodes: 5,
            max_nodes: 5,
            arrival: SimTime::ZERO,
            seed: 2,
        };
        let minnow = JobSpec {
            id: 2,
            tenant: "minnow".into(),
            model: "3b".into(),
            dataset: "stackexchange".into(),
            steps: 1,
            tokens_per_step: 8_192,
            priority: 3,
            min_nodes: 9,
            preferred_nodes: 9,
            max_nodes: 9,
            // Arrives while crux and whale are both mid-flight.
            arrival: SimTime::from_nanos(1_000),
            seed: 3,
        };
        let trace = JobTrace::new().push(crux).push(whale).push(minnow);
        let r = run_cluster(&FairShare, &Zeppelin::new(), &trace, &small_cfg(12)).unwrap();
        assert_eq!(r.completed, 3, "events: {:?}", r.events);
        assert_eq!(r.preemptions, 0, "no futile preemption: {:?}", r.events);
        r.check().unwrap();
    }

    #[test]
    fn elastic_growth_happens_on_an_idle_pool() {
        // A single growable job on a 3-node cluster: fair-share grows it
        // onto the idle nodes, paying a replan.
        let mut solo = job(0, "a", 0);
        solo.steps = 4;
        solo.max_nodes = 3;
        let trace = JobTrace::new().push(solo);
        let r = run_cluster(&FairShare, &Zeppelin::new(), &trace, &small_cfg(3)).unwrap();
        assert_eq!(r.completed, 1);
        assert!(r.replans >= 1, "events: {:?}", r.events);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, ClusterEvent::Resize { from: 1, .. })));
        r.check().unwrap();
    }
}
