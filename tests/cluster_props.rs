//! Property-based tests of the cluster layer: seeded trace generation and
//! whole-run replay are deterministic, a run reading step outcomes other
//! runs cached equals one simulating every step itself, and every arrived
//! job terminates exactly once under every shipped policy.
//!
//! Cluster runs are expensive (each job plans and simulates real steps), so
//! the case counts here are deliberately small; `PROPTEST_CASES` raises
//! them for a deeper soak.

use proptest::prelude::*;

use zeppelin::cluster::{
    run_cluster, ClusterConfig, ClusterPolicy, FairShare, Fifo, JobTrace, Srwf, StepCache,
};
use zeppelin::core::zeppelin::Zeppelin;
use zeppelin::sim::topology::{cluster_a, cluster_mixed};

/// `cfg` on an empty step cache of its own.
fn fresh(cfg: &ClusterConfig) -> ClusterConfig {
    ClusterConfig {
        step_cache: StepCache::new(),
        ..cfg.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Same seed, same parameters: the generated trace is identical —
    /// field-for-field, arrival-for-arrival.
    #[test]
    fn trace_generation_replays_bit_identically(seed in 0u64..1_000_000, n in 4usize..12) {
        let cluster = cluster_a(4);
        let a = JobTrace::random(seed, n, &cluster);
        let b = JobTrace::random(seed, n, &cluster);
        prop_assert_eq!(a, b);
        let sa = JobTrace::skewed(seed, n, &cluster);
        let sb = JobTrace::skewed(seed, n, &cluster);
        prop_assert_eq!(sa, sb);
    }

    /// Replaying the same trace under the same policy reproduces the exact
    /// event log, outcome list, and serialized report. The replay runs on
    /// an empty cache, so it simulates every step again.
    #[test]
    fn cluster_runs_replay_bit_identically(seed in 0u64..100_000, n in 4usize..9) {
        let cluster = cluster_a(4);
        let trace = JobTrace::random(seed, n, &cluster);
        let cfg = ClusterConfig { cluster, ..ClusterConfig::default() };
        let a = run_cluster(&FairShare, &Zeppelin::new(), &trace, &cfg).unwrap();
        let b = run_cluster(&FairShare, &Zeppelin::new(), &trace, &fresh(&cfg)).unwrap();
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    /// Conservation: every arrived job reaches exactly one terminal state
    /// (completed, failed, or rejected) under every shipped policy, and the
    /// report's internal invariants hold. The three policies share one step
    /// cache, in an order rotated by the seed, on homogeneous and on
    /// mixed-tier clusters. The last policy reads outcomes both others
    /// cached, and its run must equal a run on an empty cache: the cache
    /// changes how often steps are simulated, never a result.
    #[test]
    fn shared_cache_runs_conserve_jobs_and_match_fresh_runs(
        seed in 0u64..100_000,
        n in 4usize..9,
        mixed in any::<bool>(),
    ) {
        let cluster = if mixed { cluster_mixed(4) } else { cluster_a(4) };
        let trace = JobTrace::random(seed, n, &cluster);
        let shared = ClusterConfig { cluster, ..ClusterConfig::default() };
        let mut policies = [&Fifo as &dyn ClusterPolicy, &Srwf, &FairShare];
        policies.rotate_left(seed as usize % 3);
        let mut last = None;
        for policy in policies {
            let r = run_cluster(policy, &Zeppelin::new(), &trace, &shared).unwrap();
            prop_assert_eq!(
                r.completed + r.failed + r.rejected,
                n,
                "policy {}",
                policy.name()
            );
            prop_assert_eq!(r.outcomes.len(), n);
            prop_assert!(r.goodput <= r.throughput + 1e-9);
            r.check().map_err(TestCaseError::fail)?;
            last = Some(r);
        }
        let warmed = last.expect("three policies ran");
        let reference =
            run_cluster(policies[2], &Zeppelin::new(), &trace, &fresh(&shared)).unwrap();
        prop_assert_eq!(&warmed.events, &reference.events, "policy {}", policies[2].name());
        prop_assert_eq!(&warmed.outcomes, &reference.outcomes);
        prop_assert_eq!(warmed.to_json().to_string(), reference.to_json().to_string());
    }
}
