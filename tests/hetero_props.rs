//! Property tests for heterogeneity-aware scheduling: random per-rank
//! speed vectors × random workloads × every registry scheduler must plan
//! auditably and conserve tokens; uniform speeds must be invisible
//! (weighted chunking bit-identical to the unweighted cut); per-node
//! speed tiers must survive elastic shrink→grow round trips and reach
//! the executor's physics without any caller copying them.
//!
//! Honors `PROPTEST_CASES` like the other property suites; CI runs this
//! file in the deep sweep.

use proptest::prelude::*;

use zeppelin::baselines::{scheduler_by_name, SCHEDULER_NAMES};
use zeppelin::core::chunking::{chunks, chunks_weighted, chunks_with_weights};
use zeppelin::core::scheduler::SchedulerCtx;
use zeppelin::core::validate::{report, validate_with_batch};
use zeppelin::data::batch::Batch;
use zeppelin::exec::step::{simulate_step, StepConfig, StepReport};
use zeppelin::model::config::llama_3b;
use zeppelin::sim::topology::{cluster_a, ClusterSpec};

fn arb_lens() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(64u64..8_000, 1..10)
}

/// Speeds in (0, 1], quantization-friendly (multiples of 1/1024).
fn arb_speeds(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1u32..=1024, n)
        .prop_map(|qs| qs.into_iter().map(|q| f64::from(q) / 1024.0).collect())
}

/// Runs registry scheduler `name` twice: on `tiered` with `extra`
/// degradation in the executor config, and on the same cluster without
/// tiers, planned with the same speeds, with the tiers multiplied into
/// `exec.rank_speed` by hand (the path callers used before the executor
/// read tiers itself).
fn tiered_and_manual(
    name: &str,
    lens: &[u64],
    tiered: &ClusterSpec,
    extra: &[f64],
) -> (StepReport, StepReport) {
    let s = scheduler_by_name(name).expect("registry name");
    let batch = Batch::new(lens.to_vec());
    let tiers = tiered.rank_speeds().expect("tiered cluster");
    let ctx = SchedulerCtx::new(tiered, &llama_3b()).with_capacity(16_384);
    let mut cfg = StepConfig::default();
    cfg.exec.rank_speed = extra.to_vec();
    let got = simulate_step(s.as_ref(), &batch, &ctx, &cfg).expect("tiered step");

    let plain = ClusterSpec {
        node_tiers: Vec::new(),
        ..tiered.clone()
    };
    let manual_ctx = SchedulerCtx::new(&plain, &llama_3b())
        .with_capacity(16_384)
        .with_rank_speed(tiers.clone());
    let mut manual_cfg = StepConfig::default();
    manual_cfg.exec.rank_speed = if extra.is_empty() {
        tiers
    } else {
        tiers.iter().zip(extra).map(|(t, x)| t * x).collect()
    };
    let want = simulate_step(s.as_ref(), &batch, &manual_ctx, &manual_cfg).expect("manual step");
    (got, want)
}

/// Everything the simulation decides, compared bit for bit.
fn fingerprint(r: &StepReport) -> (String, u64, u64, u64, u64, String, String) {
    (
        format!("{:?}", r.plan.placements),
        r.layer_forward.as_nanos(),
        r.layer_backward.as_nanos(),
        r.step_time.as_nanos(),
        r.throughput.to_bits(),
        r.trace_forward.to_chrome_json(),
        r.trace_backward.to_chrome_json(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registry scheduler, planning with an arbitrary speed vector
    /// in the context, produces a plan that audits clean and conserves
    /// the batch's tokens.
    #[test]
    fn heterogeneous_plans_audit_clean_and_conserve_tokens(
        lens in arb_lens(),
        speed in arb_speeds(16),
    ) {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b())
            .with_capacity(16_384)
            .with_rank_speed(speed.clone());
        let batch = Batch::new(lens.clone());
        for name in SCHEDULER_NAMES {
            let s = scheduler_by_name(name).expect("registry name");
            if let Ok(plan) = s.plan(&batch, &ctx) {
                let audit = validate_with_batch(&plan, &ctx, &batch);
                prop_assert!(
                    audit.is_ok(),
                    "{name} on {lens:?} with speeds {speed:?}: {}",
                    audit.err().map(|v| report(&v)).unwrap_or_default()
                );
                prop_assert_eq!(plan.total_tokens(), batch.total_tokens(), "{}", name);
            }
        }
    }

    /// Speed-aware Zeppelin survives the full pipeline — plan, audit,
    /// lower, simulate — with the same speeds in the executor's physics.
    #[test]
    fn hetero_schedulers_simulate_clean_under_random_speeds(
        lens in arb_lens(),
        speed in arb_speeds(16),
    ) {
        let ctx = SchedulerCtx::new(&cluster_a(2), &llama_3b())
            .with_capacity(16_384)
            .with_rank_speed(speed.clone());
        let batch = Batch::new(lens.clone());
        let mut cfg = StepConfig::default();
        cfg.exec.rank_speed = speed.clone();
        let s = scheduler_by_name("zeppelin").expect("registry name");
        let r = simulate_step(s.as_ref(), &batch, &ctx, &cfg);
        prop_assert!(
            r.is_ok(),
            "zeppelin on {:?} with speeds {:?}: {:?}",
            lens, speed, r.err()
        );
        prop_assert!(r.unwrap().throughput > 0.0);
    }

    /// Node tiers reach the executor's physics on their own: a step on a
    /// tiered cluster is bit-identical to the untiered cluster with the
    /// tiers copied into `exec.rank_speed` by hand.
    #[test]
    fn node_tiers_reach_physics_like_a_manual_rank_speed(
        name in 0usize..SCHEDULER_NAMES.len(),
        lens in arb_lens(),
        tiers in arb_speeds(2),
    ) {
        let tiered = cluster_a(2).with_node_tiers(tiers);
        let (got, want) = tiered_and_manual(SCHEDULER_NAMES[name], &lens, &tiered, &[]);
        prop_assert_eq!(fingerprint(&got), fingerprint(&want), "{}", SCHEDULER_NAMES[name]);
    }

    /// `exec.rank_speed` is degradation on top of the tiers: the two
    /// multiply.
    #[test]
    fn exec_rank_speed_stacks_multiplicatively_on_tiers(
        lens in arb_lens(),
        tiers in arb_speeds(2),
        extra in arb_speeds(16),
    ) {
        let tiered = cluster_a(2).with_node_tiers(tiers);
        let (got, want) = tiered_and_manual("zeppelin", &lens, &tiered, &extra);
        prop_assert_eq!(fingerprint(&got), fingerprint(&want));
    }

    /// Uniform speeds are invisible: the weighted cut must be
    /// bit-identical to the unweighted one, whatever the common speed.
    #[test]
    fn uniform_speeds_leave_chunking_bit_identical(
        len in 0u64..200_000,
        g in 1usize..64,
        q in 1u32..=4096,
    ) {
        let s = f64::from(q) / 1024.0;
        prop_assert_eq!(chunks_weighted(len, g, &vec![s; g]), chunks(len, g));
        prop_assert_eq!(chunks_with_weights(len, g, &vec![q; g]), chunks(len, g));
        prop_assert_eq!(chunks_with_weights(len, g, &[]), chunks(len, g));
    }

    /// Per-node speed tiers survive an elastic shrink (node eviction)
    /// followed by a grow back to the original size: survivors keep their
    /// tiers, rejoining nodes arrive at 1.0, and the context's rank_speed
    /// stays consistent with the cluster's tiers throughout.
    #[test]
    fn node_tiers_survive_shrink_grow_round_trips(
        tiers in arb_speeds(4),
        dead_node in 0usize..4,
    ) {
        let nodes = tiers.len();
        let cluster = cluster_a(nodes).with_node_tiers(tiers.clone());
        let ctx = SchedulerCtx::new(&cluster, &llama_3b());
        prop_assert_eq!(ctx.rank_speed.clone(), cluster.rank_speeds());

        let dead_node = dead_node % nodes;
        if nodes == 1 {
            return Ok(()); // nothing can die and still leave a cluster
        }
        let dead_rank = dead_node * cluster.node.gpus_per_node;
        let (shrunk, _) = ctx.shrink_to_survivors(&[dead_rank]).expect("survivors");
        let surviving: Vec<f64> = (0..nodes)
            .filter(|&n| n != dead_node)
            .map(|n| tiers[n])
            .collect();
        prop_assert_eq!(&shrunk.cluster.node_tiers, &surviving);
        prop_assert_eq!(shrunk.rank_speed.clone(), shrunk.cluster.rank_speeds());

        let grown = shrunk.grow_to_nodes(nodes).expect("grow back");
        let mut expect = surviving;
        expect.resize(nodes, 1.0);
        prop_assert_eq!(&grown.cluster.node_tiers, &expect);
        prop_assert_eq!(grown.rank_speed.clone(), grown.cluster.rank_speeds());
    }
}
