//! Cross-checks `zeppelin-core`'s static analyzer against the executor:
//! both price attention through `zeppelin_core::cost` (the same fused
//! groups, kernel model and per-rank peaks, node tiers included), so the
//! simulated attention busy time must match to the nanosecond (modulo the
//! executor's `SimDuration` round-up per kernel).
//!
//! Honors `PROPTEST_CASES` like the other property suites; CI runs this
//! file in the deep sweep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin::baselines::{
    scheduler_by_name, DoubleRingCp, LlamaCp, TeCp, Ulysses, SCHEDULER_NAMES,
};
use zeppelin::core::analysis::analyze;
use zeppelin::core::plan::IterationPlan;
use zeppelin::core::scheduler::{Scheduler, SchedulerCtx};
use zeppelin::core::zeppelin::Zeppelin;
use zeppelin::data::batch::{sample_batch, Batch};
use zeppelin::data::datasets::github;
use zeppelin::exec::step::{simulate_plan, StepConfig};
use zeppelin::model::config::llama_3b;
use zeppelin::sim::topology::{cluster_a, cluster_mixed, ClusterSpec};

fn check(cluster: &ClusterSpec, scheduler: &dyn Scheduler, batch: &Batch) {
    let ctx = SchedulerCtx::new(cluster, &llama_3b());
    let plan = scheduler.plan(batch, &ctx).expect("plan");
    check_plan(&plan, batch, &ctx, &StepConfig::default());
}

/// Analyzes and simulates `plan` in `ctx`. Both sides run every rank at
/// its node tier; a `ctx.rank_speed` beyond the tiers reaches only the
/// scheduler (the executor adds only `ExecConfig::rank_speed`, left empty
/// here), so declared plan weights and node tiers are the inputs the
/// analyzer and the executor must both honor.
fn check_plan(plan: &IterationPlan, batch: &Batch, ctx: &SchedulerCtx, cfg: &StepConfig) {
    let (cluster, model) = (&ctx.cluster, &ctx.model);
    let analysis = analyze(plan, model, cluster);
    let report = simulate_plan(plan, batch, ctx, cfg).expect("simulate");
    // Per-kernel round-up to whole nanoseconds bounds the divergence by
    // 1 ns per kernel; a generous epsilon covers every batch here.
    for (rank, est) in analysis.ranks.iter().enumerate() {
        let simulated = report.forward_phase.attention[rank].as_secs_f64();
        let diff = (est.attn_secs - simulated).abs();
        assert!(
            diff < 5e-6,
            "{}: rank {rank} static {} vs simulated {}",
            plan.scheduler,
            est.attn_secs,
            simulated
        );
    }
    // The simulated forward phase can never beat the static critical path.
    assert!(
        report.layer_forward.as_secs_f64() >= analysis.attn_critical_secs * 0.999,
        "{}: forward {} below static bound {}",
        plan.scheduler,
        report.layer_forward.as_secs_f64(),
        analysis.attn_critical_secs
    );
}

#[test]
fn static_attention_matches_simulated_for_every_scheduler() {
    let mut rng = StdRng::seed_from_u64(17);
    let batch = sample_batch(&github(), &mut rng, 65_536);
    let cluster = cluster_a(2);
    check(&cluster, &TeCp::new(), &batch);
    check(&cluster, &LlamaCp::new(), &batch);
    check(&cluster, &DoubleRingCp::new(), &batch);
    check(&cluster, &Ulysses::new(), &batch);
    check(&cluster, &Zeppelin::new(), &batch);
}

#[test]
fn static_attention_matches_simulated_on_mixed_tiers_for_every_scheduler() {
    // One A800 node and two H800 nodes: the A800 ranks' kernels run at
    // their tier in the executor, and the analyzer must price them there.
    let mut rng = StdRng::seed_from_u64(17);
    let batch = sample_batch(&github(), &mut rng, 98_304);
    let cluster = cluster_mixed(3);
    for name in SCHEDULER_NAMES {
        let scheduler = scheduler_by_name(name).expect("registry name");
        check(&cluster, scheduler.as_ref(), &batch);
    }
    // The case `explain` used to get wrong: even-split TE CP on mixed
    // tiers, whose A800 ranks run at 312/989 of the H800 peak.
    check(
        &cluster,
        &TeCp::new(),
        &Batch::new(vec![40_000, 20_000, 3_000]),
    );
}

#[test]
fn static_attention_matches_on_adversarial_batches() {
    for batch in [
        Batch::new(vec![65_536]),
        Batch::new(vec![1; 64]),
        Batch::new(vec![40_000, 1, 1, 1, 25_533]),
    ] {
        for cluster in [cluster_a(2), cluster_mixed(3)] {
            check(&cluster, &Zeppelin::new(), &batch);
            check(&cluster, &TeCp::new(), &batch);
        }
    }
}

#[test]
fn analyzer_memory_check_agrees_with_scheduler_capacity() {
    let cluster = cluster_a(2);
    let model = llama_3b();
    let ctx = SchedulerCtx::new(&cluster, &model).with_capacity(8_192);
    let mut rng = StdRng::seed_from_u64(3);
    let batch = sample_batch(&github(), &mut rng, 65_536);
    let plan = Zeppelin::new().plan(&batch, &ctx).expect("plan");
    let analysis = analyze(&plan, &model, &cluster);
    // The partitioner enforced capacity (+ fragment rounding slack).
    assert!(analysis.fits(ctx.capacity + 64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// Each registry scheduler planning against random per-rank speeds,
    /// on 16 or 32 GPUs of Cluster A or 16 or 32 of mixed tiers:
    /// speed-aware schedulers declare chunk weights, and the analyzer must
    /// price the weighted geometry the executor lowers at each rank's
    /// tier. One scheduler per case keeps a deep sweep affordable.
    #[test]
    fn static_attention_matches_simulated_under_random_rank_speeds(
        name in 0usize..SCHEDULER_NAMES.len(),
        nodes in prop_oneof![Just(2usize), Just(4usize)],
        mixed in any::<bool>(),
        lens in prop::collection::vec(64u64..12_000, 1..8),
        speed in prop::collection::vec(1u32..=1024, 32),
    ) {
        let cluster = if mixed { cluster_mixed(nodes) } else { cluster_a(nodes) };
        let speed: Vec<f64> = speed[..cluster.total_gpus()]
            .iter()
            .map(|&q| f64::from(q) / 1024.0)
            .collect();
        let ctx = SchedulerCtx::new(&cluster, &llama_3b())
            .with_capacity(4_096)
            .with_rank_speed(speed);
        let batch = Batch::new(lens);
        // Some baselines overfill ranks at this capacity; the audit that
        // rejects them is beside the point of a cost cross-check.
        let cfg = StepConfig {
            audit_plans: false,
            ..StepConfig::default()
        };
        let scheduler = scheduler_by_name(SCHEDULER_NAMES[name]).expect("registry name");
        if let Ok(plan) = scheduler.plan(&batch, &ctx) {
            check_plan(&plan, &batch, &ctx, &cfg);
        }
    }
}
