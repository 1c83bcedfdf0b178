//! One training step: plan → lower → simulate → report.
//!
//! A step simulates one transformer layer forward and one backward (they
//! carry identical structure every layer in pure data parallelism) and
//! scales by the layer count. The report carries phase breakdowns per rank
//! (Table 3), traces (Fig. 12) and throughput (Fig. 8–10).
//!
//! The two directions share no mutable state, so [`simulate_plan`] lowers
//! and runs the backward pass on a scoped thread while the calling thread
//! does the forward pass; the report is the same as running them one after
//! the other.

use std::collections::BTreeMap;

use zeppelin_core::plan::{IterationPlan, PlanError};
use zeppelin_core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin_core::validate::{report as violation_report, validate_with_batch, PlanViolation};
use zeppelin_data::batch::Batch;
use zeppelin_model::config::ModelConfig;
use zeppelin_model::flops::linear_flops_per_token;
use zeppelin_model::moe::{imbalance_factor, sample_expert_loads};
use zeppelin_sim::engine::Simulator;
use zeppelin_sim::error::SimError;
use zeppelin_sim::fault::FaultSchedule;
use zeppelin_sim::time::SimDuration;
use zeppelin_sim::topology::{Port, Rank};
use zeppelin_sim::trace::{Trace, TraceCategory};

use crate::lower::{lower_layer, Direction, ExecConfig, ExecConfigError};

/// Errors from step simulation.
#[derive(Debug)]
pub enum StepError {
    /// The scheduler failed to place the batch.
    Plan(PlanError),
    /// The plan failed the pre-lowering audit (see
    /// [`StepConfig::audit_plans`]).
    Invalid(Vec<PlanViolation>),
    /// The executor configuration is malformed (e.g. a `rank_speed` vector
    /// that does not cover the cluster).
    Exec(ExecConfigError),
    /// The simulator rejected the lowered DAG.
    Sim(SimError),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Plan(e) => write!(f, "planning failed: {e}"),
            StepError::Invalid(v) => {
                write!(f, "plan failed audit: {}", violation_report(v))
            }
            StepError::Exec(e) => write!(f, "executor config rejected: {e}"),
            StepError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for StepError {}

impl From<PlanError> for StepError {
    fn from(e: PlanError) -> Self {
        StepError::Plan(e)
    }
}

impl From<ExecConfigError> for StepError {
    fn from(e: ExecConfigError) -> Self {
        StepError::Exec(e)
    }
}

impl From<SimError> for StepError {
    fn from(e: SimError) -> Self {
        StepError::Sim(e)
    }
}

/// Step-level configuration.
#[derive(Debug, Clone)]
pub struct StepConfig {
    /// Executor knobs (routing pipeline, TP overhead, rank speeds...).
    pub exec: ExecConfig,
    /// Seed for the MoE routing-imbalance sampler.
    pub seed: u64,
    /// MoE router popularity skew (0 = uniform; see `zeppelin_model::moe`).
    pub moe_skew: f64,
    /// Transformer layers simulated back-to-back per direction before
    /// extrapolating to the full depth. 1 (the default) is exact for pure
    /// data parallelism; larger values expose cross-layer effects such as
    /// overlapped gradient synchronization.
    pub chained_layers: usize,
    /// Infrastructure faults active during this step's layer simulations
    /// (NIC degradation, link flaps, rank crashes). Empty by default. The
    /// fault-aware trainer fills it per step with whole-step NIC
    /// degradations weighted by [`FaultSchedule::nic_factor_over`] and the
    /// step window's [`FaultSchedule::crashes_in`].
    pub faults: FaultSchedule,
    /// Run the full plan audit ([`validate_with_batch`]) before lowering.
    /// Defaults to on in debug builds and off in release builds; turn it on
    /// explicitly when the plan comes from an untrusted source (a JSON
    /// file, the serving protocol) rather than a trusted in-process
    /// scheduler.
    pub audit_plans: bool,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            exec: ExecConfig::default(),
            seed: 0,
            moe_skew: 0.5,
            chained_layers: 1,
            faults: FaultSchedule::default(),
            audit_plans: cfg!(debug_assertions),
        }
    }
}

/// Per-rank busy durations of one direction, split by phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Attention compute busy time per rank.
    pub attention: Vec<SimDuration>,
    /// Linear-module busy time per rank.
    pub linear: Vec<SimDuration>,
    /// Remapping transfer busy time per rank (sender-attributed).
    pub remap: Vec<SimDuration>,
    /// Attention communication busy time per rank (sender-attributed).
    pub comm: Vec<SimDuration>,
}

/// Busy time per `(rank, category)` of one direction's trace.
type BusyMap = BTreeMap<(Rank, TraceCategory), SimDuration>;

impl PhaseBreakdown {
    fn from_busy(busy: &BusyMap, nranks: usize) -> PhaseBreakdown {
        let pick = |cats: &[TraceCategory]| -> Vec<SimDuration> {
            (0..nranks)
                .map(|r| {
                    cats.iter()
                        .map(|&c| busy.get(&(r, c)).copied().unwrap_or(SimDuration::ZERO))
                        .fold(SimDuration::ZERO, SimDuration::saturating_add)
                })
                .collect()
        };
        PhaseBreakdown {
            attention: pick(&[TraceCategory::AttentionCompute]),
            linear: pick(&[TraceCategory::LinearCompute]),
            remap: pick(&[TraceCategory::Remap]),
            comm: pick(&[
                TraceCategory::RingComm,
                TraceCategory::Dispatch,
                TraceCategory::InterNode,
                TraceCategory::Combine,
            ]),
        }
    }

    /// `(min, max)` across ranks for a phase vector.
    pub fn range(v: &[SimDuration]) -> (SimDuration, SimDuration) {
        let min = v.iter().copied().min().unwrap_or(SimDuration::ZERO);
        let max = v.iter().copied().max().unwrap_or(SimDuration::ZERO);
        (min, max)
    }
}

/// Result of simulating one training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Scheduler name.
    pub scheduler: String,
    /// Simulated time of one layer's forward pass.
    pub layer_forward: SimDuration,
    /// Simulated time of one layer's backward pass.
    pub layer_backward: SimDuration,
    /// Full step time: `layers × (forward + backward)`.
    pub step_time: SimDuration,
    /// Tokens processed this step.
    pub tokens: u64,
    /// Throughput in tokens/second.
    pub throughput: f64,
    /// Host wall-clock spent planning (Table 3's "Sequence Partition" row).
    pub plan_wall: std::time::Duration,
    /// Forward-direction phase breakdown per rank.
    pub forward_phase: PhaseBreakdown,
    /// Backward-direction phase breakdown per rank.
    pub backward_phase: PhaseBreakdown,
    /// Per-NIC transmit utilization during the forward layer (fraction of
    /// `bandwidth × makespan` actually used; Fig. 2c's balance metric).
    pub nic_tx_utilization: Vec<f64>,
    /// Per-rank compute-stream busy fraction during the forward layer.
    pub compute_busy_frac: Vec<f64>,
    /// Forward-direction timeline of one layer.
    pub trace_forward: Trace,
    /// Backward-direction timeline of one layer.
    pub trace_backward: Trace,
    /// The plan itself (for zone/assignment inspection).
    pub plan: IterationPlan,
}

/// What [`simulate_plan`] keeps from one direction's simulation.
struct DirectionRun {
    layer: SimDuration,
    trace: Trace,
    busy: BusyMap,
    nic_util: Vec<f64>,
}

/// Multiplier on linear-module time from MoE routing imbalance: the
/// most-loaded expert stretches the expert portion of the layer.
pub fn moe_linear_factor(model: &ModelConfig, tokens: u64, seed: u64, skew: f64) -> f64 {
    let Some(moe) = &model.moe else {
        return 1.0;
    };
    let loads = sample_expert_loads(seed, moe.num_experts, moe.top_k, tokens.max(1), skew);
    let imb = imbalance_factor(&loads);
    let h = model.hidden as f64;
    let expert_flops = 2.0 * 3.0 * h * moe.expert_ffn_hidden as f64 * moe.top_k as f64;
    let share = expert_flops / linear_flops_per_token(model);
    1.0 + (imb - 1.0) * share
}

/// Simulates one training step of `scheduler` on `batch`.
///
/// # Errors
///
/// Returns [`StepError`] on planning or simulation failure.
///
/// # Examples
///
/// ```
/// use zeppelin_exec::step::{simulate_step, StepConfig};
/// use zeppelin_core::scheduler::SchedulerCtx;
/// use zeppelin_core::zeppelin::Zeppelin;
/// use zeppelin_data::batch::Batch;
/// use zeppelin_model::config::llama_3b;
/// use zeppelin_sim::topology::cluster_a;
///
/// let ctx = SchedulerCtx::new(&cluster_a(1), &llama_3b());
/// let batch = Batch::new(vec![8_000, 2_000, 500]);
/// let report = simulate_step(&Zeppelin::new(), &batch, &ctx, &StepConfig::default()).unwrap();
/// assert!(report.throughput > 0.0);
/// assert!(report.layer_backward > report.layer_forward);
/// ```
pub fn simulate_step(
    scheduler: &dyn Scheduler,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
) -> Result<StepReport, StepError> {
    let t0 = std::time::Instant::now();
    let plan = scheduler.plan(batch, ctx)?;
    let plan_wall = t0.elapsed();
    let mut report = simulate_plan(&plan, batch, ctx, cfg)?;
    report.plan_wall = plan_wall;
    Ok(report)
}

/// Simulates a pre-computed plan (used by ablations that edit plans).
///
/// # Errors
///
/// Returns [`StepError`] on simulation failure, and
/// [`StepError::Invalid`] when [`StepConfig::audit_plans`] is set and the
/// plan fails the audit.
pub fn simulate_plan(
    plan: &IterationPlan,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
) -> Result<StepReport, StepError> {
    let nranks = ctx.cluster.total_gpus();
    plan.validate(nranks)?;
    // Reject a malformed `rank_speed` with a typed error before
    // `lower_layer` indexes it.
    cfg.exec.effective_rank_speed(&ctx.cluster)?;
    if !cfg.moe_skew.is_finite() {
        return Err(StepError::Exec(ExecConfigError::MoeSkew {
            value: cfg.moe_skew,
        }));
    }
    if cfg.audit_plans {
        validate_with_batch(plan, ctx, batch).map_err(StepError::Invalid)?;
    }
    let mut exec = cfg.exec.clone();
    exec.moe_linear_factor *=
        moe_linear_factor(&ctx.model, batch.total_tokens(), cfg.seed, cfg.moe_skew);

    let chained = cfg.chained_layers.max(1);
    // One direction's layer time, trace, busy map, and (forward only) NIC
    // transmit utilization.
    let run_direction = |dir: Direction| -> Result<DirectionRun, StepError> {
        let mut sim = Simulator::new(&ctx.cluster);
        let mut entry: Vec<Option<zeppelin_sim::engine::TaskId>> = vec![None; nranks];
        for _ in 0..chained {
            let out = lower_layer(&mut sim, &ctx.model, plan, &exec, dir, &entry)?;
            entry = out.exit.into_iter().map(Some).collect();
        }
        let report = sim.run_with_faults(&cfg.faults)?;
        drop(sim);
        let nic_util = match dir {
            Direction::Forward => (0..ctx.cluster.total_nics())
                .map(|n| report.port_utilization(&ctx.cluster, Port::NicTx(n)))
                .collect(),
            Direction::Backward => Vec::new(),
        };
        Ok(DirectionRun {
            layer: SimDuration::from_nanos(report.makespan.as_nanos() / chained as u64),
            busy: report.trace.busy_by_rank_category(),
            trace: report.trace,
            nic_util,
        })
    };

    // Backward on a scoped thread, forward here. Forward's error is
    // reported first, as when the directions ran in sequence, and a panic
    // on the backward thread resumes on this one.
    let (forward, backward) = std::thread::scope(|s| {
        let backward = s.spawn(|| run_direction(Direction::Backward));
        let forward = run_direction(Direction::Forward);
        let backward = backward
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (forward, backward)
    });
    let (forward, backward) = (forward?, backward?);
    let (layer_forward, layer_backward) = (forward.layer, backward.layer);
    let span_secs = layer_forward.as_secs_f64().max(1e-30);
    let compute_busy_frac: Vec<f64> = (0..nranks)
        .map(|r| {
            let b = [
                TraceCategory::AttentionCompute,
                TraceCategory::LinearCompute,
            ]
            .iter()
            .filter_map(|&c| forward.busy.get(&(r, c)))
            .map(|d| d.as_secs_f64())
            .sum::<f64>();
            (b / span_secs).min(1.0)
        })
        .collect();

    let layers = ctx.model.layers as u64;
    let per_layer = layer_forward.saturating_add(layer_backward);
    let step_ns = per_layer.as_nanos().saturating_mul(layers);
    let step_time = SimDuration::from_nanos(step_ns);
    let tokens = batch.total_tokens();
    let throughput = if step_ns > 0 {
        tokens as f64 / step_time.as_secs_f64()
    } else {
        0.0
    };

    Ok(StepReport {
        scheduler: plan.scheduler.clone(),
        layer_forward,
        layer_backward,
        step_time,
        tokens,
        throughput,
        plan_wall: std::time::Duration::ZERO,
        forward_phase: PhaseBreakdown::from_busy(&forward.busy, nranks),
        backward_phase: PhaseBreakdown::from_busy(&backward.busy, nranks),
        nic_tx_utilization: forward.nic_util,
        compute_busy_frac,
        trace_forward: forward.trace,
        trace_backward: backward.trace,
        plan: plan.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeppelin_baselines::te_cp::TeCp;
    use zeppelin_core::zeppelin::Zeppelin;
    use zeppelin_model::config::{llama_3b, moe_8x550m};
    use zeppelin_sim::topology::cluster_a;

    fn ctx() -> SchedulerCtx {
        SchedulerCtx::new(&cluster_a(2), &llama_3b()).with_capacity(8192)
    }

    fn mixed_batch() -> Batch {
        Batch::new(vec![
            40_000, 9_000, 5_000, 3_000, 2_000, 2_000, 1_500, 1_000, 500, 400, 300, 300,
        ])
    }

    #[test]
    fn step_produces_positive_throughput() {
        let r =
            simulate_step(&TeCp::new(), &mixed_batch(), &ctx(), &StepConfig::default()).unwrap();
        assert!(r.throughput > 0.0);
        assert!(r.layer_forward > SimDuration::ZERO);
        assert!(r.layer_backward > r.layer_forward);
        assert_eq!(r.tokens, mixed_batch().total_tokens());
        assert_eq!(
            r.step_time.as_nanos(),
            (r.layer_forward.saturating_add(r.layer_backward)).as_nanos() * 26
        );
    }

    #[test]
    fn zeppelin_beats_te_cp_on_mixed_batch() {
        let cfg = StepConfig::default();
        let te = simulate_step(&TeCp::new(), &mixed_batch(), &ctx(), &cfg).unwrap();
        let zep = simulate_step(&Zeppelin::new(), &mixed_batch(), &ctx(), &cfg).unwrap();
        assert!(
            zep.throughput > te.throughput,
            "zeppelin {} vs te {}",
            zep.throughput,
            te.throughput
        );
    }

    #[test]
    fn phase_breakdown_covers_all_ranks() {
        let r = simulate_step(
            &Zeppelin::new(),
            &mixed_batch(),
            &ctx(),
            &StepConfig::default(),
        )
        .unwrap();
        assert_eq!(r.forward_phase.attention.len(), 16);
        assert_eq!(r.forward_phase.linear.len(), 16);
        // Someone computed attention and someone computed linear.
        let (_, amax) = PhaseBreakdown::range(&r.forward_phase.attention);
        let (_, lmax) = PhaseBreakdown::range(&r.forward_phase.linear);
        assert!(amax > SimDuration::ZERO);
        assert!(lmax > SimDuration::ZERO);
    }

    #[test]
    fn moe_factor_is_one_for_dense_and_more_for_moe() {
        assert_eq!(moe_linear_factor(&llama_3b(), 65536, 1, 0.5), 1.0);
        let f = moe_linear_factor(&moe_8x550m(), 65536, 1, 0.8);
        assert!(f > 1.0 && f < 4.0, "factor {f}");
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = StepConfig::default();
        let a = simulate_step(&Zeppelin::new(), &mixed_batch(), &ctx(), &cfg).unwrap();
        let b = simulate_step(&Zeppelin::new(), &mixed_batch(), &ctx(), &cfg).unwrap();
        assert_eq!(a.step_time, b.step_time);
        assert_eq!(a.layer_forward, b.layer_forward);
    }

    #[test]
    fn plan_error_propagates() {
        let tiny = ctx().with_capacity(64);
        let err =
            simulate_step(&TeCp::new(), &mixed_batch(), &tiny, &StepConfig::default()).unwrap_err();
        assert!(matches!(err, StepError::Plan(_)));
        assert!(err.to_string().contains("planning failed"));
    }

    #[test]
    fn nan_moe_skew_is_rejected_with_a_typed_error() {
        let cfg = StepConfig {
            moe_skew: f64::NAN,
            ..StepConfig::default()
        };
        let err = simulate_step(&Zeppelin::new(), &mixed_batch(), &ctx(), &cfg).unwrap_err();
        assert!(
            matches!(err, StepError::Exec(ExecConfigError::MoeSkew { .. })),
            "{err}"
        );
    }

    #[test]
    fn audit_rejects_tampered_plans_before_lowering() {
        use zeppelin_core::scheduler::Scheduler;
        let ctx = ctx();
        let batch = mixed_batch();
        let mut plan = Zeppelin::new().plan(&batch, &ctx).unwrap();
        let cfg = StepConfig {
            audit_plans: true,
            ..StepConfig::default()
        };
        simulate_plan(&plan, &batch, &ctx, &cfg).expect("untampered plan passes the audit");
        // Shave tokens off a placement: conservation breaks, typed error.
        plan.placements[0].len -= 13;
        let err = simulate_plan(&plan, &batch, &ctx, &cfg).unwrap_err();
        assert!(matches!(err, StepError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("audit"), "{err}");
    }
}
