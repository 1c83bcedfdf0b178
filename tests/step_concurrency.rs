//! `simulate_plan` runs the backward direction on a second thread. These
//! tests check that this changes nothing a caller can observe:
//!
//! - for every registry scheduler on `cluster_a(2)` and `cluster_a(8)`,
//!   with and without a fault schedule, the step report equals a
//!   sequential rebuild (`lower_layer` + `run_with_faults`, forward then
//!   backward): layer times, phase breakdowns, NIC utilization, compute
//!   busy fractions, and both traces;
//! - when both directions fail, the forward error is the one reported;
//! - the Chrome-trace JSON of both directions hashes to the values pinned
//!   before the directions ran concurrently and before trace labels became
//!   static parts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin::baselines::{scheduler_by_name, SCHEDULER_NAMES};
use zeppelin::core::plan::IterationPlan;
use zeppelin::core::scheduler::SchedulerCtx;
use zeppelin::data::batch::{sample_batch, Batch};
use zeppelin::data::datasets::arxiv;
use zeppelin::exec::step::{moe_linear_factor, simulate_plan, StepConfig, StepError};
use zeppelin::exec::{lower_layer, Direction, GradSync};
use zeppelin::model::config::llama_3b;
use zeppelin::sim::engine::{SimReport, Simulator};
use zeppelin::sim::error::SimError;
use zeppelin::sim::fault::FaultSchedule;
use zeppelin::sim::time::{SimDuration, SimTime};
use zeppelin::sim::topology::{cluster_a, Port};
use zeppelin::sim::trace::TraceCategory;

fn batch() -> Batch {
    sample_batch(&arxiv(), &mut StdRng::seed_from_u64(7), 16_384)
}

fn ms(v: f64) -> SimTime {
    SimTime::from_nanos((v * 1e6) as u64)
}

/// A slowdown, a NIC degradation, and a link flap inside the first few
/// milliseconds, where every scheduler's layer is still running.
fn faults() -> FaultSchedule {
    FaultSchedule::new()
        .gpu_slowdown(1, 0.5, ms(1.0), Some(ms(3.0)))
        .nic_degrade(2, 0.25, SimTime::ZERO, Some(ms(2.0)))
        .link_flap(0, ms(2.0), Some(ms(2.5)))
}

/// Forward then backward, one after the other, exactly as `simulate_plan`
/// lowers each direction.
fn sequential(
    plan: &IterationPlan,
    batch: &Batch,
    ctx: &SchedulerCtx,
    cfg: &StepConfig,
) -> [Result<SimReport, SimError>; 2] {
    let mut exec = cfg.exec.clone();
    exec.moe_linear_factor *=
        moe_linear_factor(&ctx.model, batch.total_tokens(), cfg.seed, cfg.moe_skew);
    let nranks = ctx.cluster.total_gpus();
    [Direction::Forward, Direction::Backward].map(|dir| {
        let mut sim = Simulator::new(&ctx.cluster);
        lower_layer(&mut sim, &ctx.model, plan, &exec, dir, &vec![None; nranks])?;
        sim.run_with_faults(&cfg.faults)
    })
}

/// Per-rank busy time of `cats` in `report`'s trace.
fn busy(report: &SimReport, nranks: usize, cats: &[TraceCategory]) -> Vec<SimDuration> {
    let map = report.trace.busy_by_rank_category();
    (0..nranks)
        .map(|r| {
            cats.iter()
                .filter_map(|&c| map.get(&(r, c)).copied())
                .fold(SimDuration::ZERO, SimDuration::saturating_add)
        })
        .collect()
}

fn check(nodes: usize, faulted: bool) {
    let cluster = cluster_a(nodes);
    let ctx = SchedulerCtx::new(&cluster, &llama_3b());
    let batch = batch();
    let cfg = StepConfig {
        faults: if faulted {
            faults()
        } else {
            FaultSchedule::new()
        },
        ..StepConfig::default()
    };
    let nranks = cluster.total_gpus();
    let comm = [
        TraceCategory::RingComm,
        TraceCategory::Dispatch,
        TraceCategory::InterNode,
        TraceCategory::Combine,
    ];
    for name in SCHEDULER_NAMES {
        let what = format!("{name} on {nodes} nodes (faults: {faulted})");
        let plan = scheduler_by_name(name)
            .expect("registry name")
            .plan(&batch, &ctx)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let step =
            simulate_plan(&plan, &batch, &ctx, &cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
        let [fwd, bwd] = sequential(&plan, &batch, &ctx, &cfg).map(|r| r.unwrap());

        assert_eq!(
            step.layer_forward.as_nanos(),
            fwd.makespan.as_nanos(),
            "{what}"
        );
        assert_eq!(
            step.layer_backward.as_nanos(),
            bwd.makespan.as_nanos(),
            "{what}"
        );
        assert_eq!(step.trace_forward.events(), fwd.trace.events(), "{what}");
        assert_eq!(step.trace_backward.events(), bwd.trace.events(), "{what}");
        for (phase, report) in [(&step.forward_phase, &fwd), (&step.backward_phase, &bwd)] {
            let b = |cats: &[TraceCategory]| busy(report, nranks, cats);
            assert_eq!(
                phase.attention,
                b(&[TraceCategory::AttentionCompute]),
                "{what}"
            );
            assert_eq!(phase.linear, b(&[TraceCategory::LinearCompute]), "{what}");
            assert_eq!(phase.remap, b(&[TraceCategory::Remap]), "{what}");
            assert_eq!(phase.comm, b(&comm), "{what}");
        }
        let nic: Vec<u64> = (0..cluster.total_nics())
            .map(|n| fwd.port_utilization(&cluster, Port::NicTx(n)).to_bits())
            .collect();
        let got: Vec<u64> = step
            .nic_tx_utilization
            .iter()
            .map(|u| u.to_bits())
            .collect();
        assert_eq!(got, nic, "{what}");
        let secs = fwd.makespan.as_secs_f64().max(1e-30);
        let attn = busy(&fwd, nranks, &[TraceCategory::AttentionCompute]);
        let linear = busy(&fwd, nranks, &[TraceCategory::LinearCompute]);
        let frac: Vec<u64> = attn
            .iter()
            .zip(&linear)
            .map(|(a, l)| {
                ((a.as_secs_f64() + l.as_secs_f64()) / secs)
                    .min(1.0)
                    .to_bits()
            })
            .collect();
        let got: Vec<u64> = step.compute_busy_frac.iter().map(|f| f.to_bits()).collect();
        assert_eq!(got, frac, "{what}");
    }
}

#[test]
fn concurrent_directions_match_a_sequential_rebuild_on_two_nodes() {
    check(2, false);
}

#[test]
fn concurrent_directions_match_a_sequential_rebuild_on_two_faulted_nodes() {
    check(2, true);
}

#[test]
fn concurrent_directions_match_a_sequential_rebuild_on_eight_nodes() {
    check(8, false);
}

#[test]
fn concurrent_directions_match_a_sequential_rebuild_on_eight_faulted_nodes() {
    check(8, true);
}

#[test]
fn forward_error_wins_when_both_directions_fail() {
    let cluster = cluster_a(2);
    let ctx = SchedulerCtx::new(&cluster, &llama_3b());
    let batch = batch();
    let plan = scheduler_by_name("te").unwrap().plan(&batch, &ctx).unwrap();
    let healthy = simulate_plan(&plan, &batch, &ctx, &StepConfig::default()).unwrap();
    // Rank 0 dies half way through the forward layer: both directions
    // still have work on it, but the slower backward has more left.
    let at = SimTime::from_nanos(healthy.layer_forward.as_nanos() / 2);
    let cfg = StepConfig {
        faults: FaultSchedule::new().rank_crash(0, at),
        ..StepConfig::default()
    };
    let [fwd, bwd] = sequential(&plan, &batch, &ctx, &cfg);
    let (fwd, bwd) = (fwd.unwrap_err(), bwd.unwrap_err());
    assert!(
        matches!(fwd, SimError::RankUnavailable { rank: 0, .. }),
        "{fwd}"
    );
    assert_ne!(fwd, bwd, "the two failures must be told apart");
    for _ in 0..4 {
        match simulate_plan(&plan, &batch, &ctx, &cfg) {
            Err(StepError::Sim(e)) => assert_eq!(e, fwd),
            other => panic!("expected the forward error, got {other:?}"),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn chrome_traces_match_the_golden_hashes() {
    // `(scheduler, FNV-1a of forward JSON, FNV-1a of backward JSON)`.
    const GOLDEN: [(&str, u64, u64); 7] = [
        ("zeppelin", 0xfcbf2afa59c8a8d9, 0xb443cad36f1f4eaa),
        ("te", 0x778f8bd983bafda0, 0x94eaeec82f4d98ff),
        ("llama", 0x3907770b18d1efdd, 0xdacc6755facf3f1f),
        ("hybrid", 0x24500333663b1a3c, 0x058c565642124b05),
        ("packing", 0x4070139e3c625deb, 0xb780e51cb486b5ed),
        ("ulysses", 0xc2f306d5644585bc, 0x3912de17043f125a),
        ("double-ring", 0xc272d8d3cc8b3858, 0xf3a3c20ad3801125),
    ];
    // Backward traces with per-layer gradient all-reduce (`grad-ar` and
    // routed labels).
    const GOLDEN_GRAD_SYNC: [(&str, u64); 2] =
        [("zeppelin", 0xc884cb2a5266574a), ("te", 0x5962572f158cd7a4)];

    let cluster = cluster_a(2);
    let ctx = SchedulerCtx::new(&cluster, &llama_3b());
    let batch = batch();
    let run = |name: &str, cfg: &StepConfig| {
        let plan = scheduler_by_name(name).unwrap().plan(&batch, &ctx).unwrap();
        simulate_plan(&plan, &batch, &ctx, cfg).unwrap()
    };
    let cfg = StepConfig::default();
    let got: Vec<(&str, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, _, _)| {
            let r = run(name, &cfg);
            (
                name,
                fnv1a(r.trace_forward.to_chrome_json().as_bytes()),
                fnv1a(r.trace_backward.to_chrome_json().as_bytes()),
            )
        })
        .collect();
    assert_eq!(got, GOLDEN);
    let mut cfg = StepConfig::default();
    cfg.exec.grad_sync = GradSync::Overlapped;
    for (name, want) in GOLDEN_GRAD_SYNC {
        let json = run(name, &cfg).trace_backward.to_chrome_json();
        assert!(json.contains("grad-ar"), "{name}");
        assert_eq!(fnv1a(json.as_bytes()), want, "{name}");
    }
}
