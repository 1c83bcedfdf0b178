//! Golden pin of simulated layer times: every registry scheduler on one
//! fixed arxiv batch, on a 16-GPU cluster (homogeneous, and a fixed
//! mixed-speed fleet with the same speeds in the scheduler's context and
//! the executor's physics, so weighted ring geometry is lowered too) and
//! on a 64-GPU cluster. Any change to the cost accounting or the lowering
//! that moves a single simulated nanosecond fails here; the failure
//! message prints the measured rows as Rust source.

use rand::rngs::StdRng;
use rand::SeedableRng;

use zeppelin::baselines::{scheduler_by_name, SCHEDULER_NAMES};
use zeppelin::core::scheduler::SchedulerCtx;
use zeppelin::data::batch::sample_batch;
use zeppelin::data::datasets::arxiv;
use zeppelin::exec::step::{simulate_step, StepConfig};
use zeppelin::model::config::llama_3b;
use zeppelin::sim::topology::cluster_a;

/// `(scheduler, layer_forward ns, layer_backward ns)`.
type Row = (&'static str, u64, u64);

/// Every odd node runs at half speed and local rank 3 of every node at
/// three quarters: rings cross speed tiers both within and across nodes.
fn mixed_speeds(nranks: usize) -> Vec<f64> {
    (0..nranks)
        .map(|r| match (r / 8 % 2, r % 8) {
            (1, _) => 0.5,
            (_, 3) => 0.75,
            _ => 1.0,
        })
        .collect()
}

fn check(nodes: usize, mixed: bool, golden: &[Row]) {
    let model = llama_3b();
    let cluster = cluster_a(nodes);
    let batch = sample_batch(&arxiv(), &mut StdRng::seed_from_u64(7), 16_384);
    let mut ctx = SchedulerCtx::new(&cluster, &model);
    let mut cfg = StepConfig::default();
    if mixed {
        let speed = mixed_speeds(cluster.total_gpus());
        ctx = ctx.with_rank_speed(speed.clone());
        cfg.exec.rank_speed = speed;
    }
    let got: Vec<Row> = SCHEDULER_NAMES
        .iter()
        .map(|&name| {
            let s = scheduler_by_name(name).expect("registry name");
            let r = simulate_step(s.as_ref(), &batch, &ctx, &cfg)
                .unwrap_or_else(|e| panic!("{name} on {nodes} nodes: {e}"));
            (
                name,
                r.layer_forward.as_nanos(),
                r.layer_backward.as_nanos(),
            )
        })
        .collect();
    if got != golden {
        let rows: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("layer times moved on {nodes} nodes (mixed speeds: {mixed}):\n{rows}");
    }
}

#[test]
fn layer_times_match_the_pin_on_two_nodes() {
    check(
        2,
        false,
        &[
            ("zeppelin", 4229565, 7909257),
            ("te", 9693443, 18906883),
            ("llama", 4541758, 8609245),
            ("hybrid", 10598401, 20696801),
            ("packing", 1384866, 2739731),
            ("ulysses", 3633661, 6592321),
            ("double-ring", 3336450, 6192898),
        ],
    );
}

#[test]
fn layer_times_match_the_pin_on_two_mixed_speed_nodes() {
    check(
        2,
        true,
        &[
            ("zeppelin", 4631027, 8647285),
            ("te", 10832719, 21395435),
            ("llama", 6243827, 12208600),
            ("hybrid", 10598402, 20696801),
            ("packing", 2739731, 5449460),
            ("ulysses", 5126940, 9734564),
            ("double-ring", 5119117, 9913231),
        ],
    );
}

#[test]
fn layer_times_match_the_pin_on_eight_nodes() {
    check(
        8,
        false,
        &[
            ("zeppelin", 5391818, 7891568),
            ("te", 10507807, 19095617),
            ("llama", 4653743, 7393530),
            ("hybrid", 10544899, 19349798),
            ("packing", 360652, 691302),
            ("ulysses", 3033341, 4671679),
            ("double-ring", 4523486, 7130452),
        ],
    );
}
