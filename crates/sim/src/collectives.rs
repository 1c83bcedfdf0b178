//! Reusable collective-communication builders.
//!
//! NCCL-style collectives decomposed into their point-to-point constituents
//! as task sub-DAGs: ring all-gather, ring all-reduce
//! (reduce-scatter + all-gather), and all-to-all. Each builder returns
//! per-rank completion markers so callers can chain dependencies, and every
//! transfer contends for bandwidth in the shared flow network like any
//! other traffic.
//!
//! The executor crates build their *attention-specific* communication
//! (zigzag ring rounds, routed transfers) by hand because those interleave
//! with compute; these builders serve gradient synchronization, optimizer
//! gathers, and tests.

// Indexed loops here walk parallel arrays (tableau columns, per-rank
// slots); iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::engine::{Simulator, Stream, TaskId, TraceInfo};
use crate::error::SimError;
use crate::time::SimDuration;
use crate::topology::Rank;
use crate::trace::{TraceCategory, TraceLabel};

/// Launch latency charged per p2p operation inside a collective, seconds.
const LAUNCH_S: f64 = 15e-6;

fn launch(sim: &mut Simulator, rank: Rank, deps: Vec<TaskId>) -> Result<TaskId, SimError> {
    sim.compute(
        rank,
        Stream::Comm(3),
        SimDuration::from_secs_f64(LAUNCH_S),
        deps,
        None,
    )
}

/// Builds a ring all-gather of `bytes_per_rank` from every rank.
///
/// After completion each rank holds every rank's shard. Returns one marker
/// per rank that fires when that rank's gather is complete.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if fewer than two ranks are given or ranks repeat.
///
/// # Examples
///
/// ```
/// use zeppelin_sim::collectives::ring_allgather;
/// use zeppelin_sim::engine::Simulator;
/// use zeppelin_sim::topology::tiny_cluster;
///
/// let cluster = tiny_cluster(1, 4);
/// let mut sim = Simulator::new(&cluster);
/// ring_allgather(&mut sim, &[0, 1, 2, 3], 1e9, &[None; 4], "demo").unwrap();
/// let report = sim.run().unwrap();
/// // (G-1) rounds of 1 GB over the 200 GB/s fabric: 15 ms.
/// assert!((report.makespan.as_secs_f64() - 0.015).abs() < 1e-3);
/// ```
pub fn ring_allgather(
    sim: &mut Simulator,
    ranks: &[Rank],
    bytes_per_rank: f64,
    deps: &[Option<TaskId>],
    label: &'static str,
) -> Result<Vec<TaskId>, SimError> {
    validate_group(ranks);
    let cluster = sim.cluster().clone();
    let g = ranks.len();
    let mut inbound: Vec<Vec<TaskId>> = vec![Vec::new(); g];
    let mut arrive: Vec<Option<TaskId>> = vec![None; g];
    for round in 0..g - 1 {
        let mut next_arrive: Vec<Option<TaskId>> = vec![None; g];
        for (p, &src) in ranks.iter().enumerate() {
            let next = (p + 1) % g;
            let dst = ranks[next];
            let mut ldeps: Vec<TaskId> = Vec::new();
            if round == 0 {
                ldeps.extend(deps.get(p).copied().flatten());
            } else {
                ldeps.extend(arrive[p]);
            }
            let l = launch(sim, src, ldeps)?;
            let flow = sim.transfer(
                bytes_per_rank,
                cluster.direct_path(src, dst),
                vec![l],
                Some(TraceInfo {
                    rank: src,
                    category: TraceCategory::Other,
                    label: TraceLabel::new(label)
                        .with_suffix("-ag")
                        .with_round("r", round)
                        .with_edge(src, dst),
                }),
            )?;
            next_arrive[next] = Some(flow);
            inbound[next].push(flow);
        }
        arrive = next_arrive;
    }
    let mut done = Vec::with_capacity(g);
    for (p, mut d) in inbound.into_iter().enumerate() {
        d.extend(deps.get(p).copied().flatten());
        done.push(sim.marker(d)?);
    }
    Ok(done)
}

/// Builds a bandwidth-optimal ring all-reduce of `total_bytes` per rank
/// (reduce-scatter then all-gather, `2(G-1)` chunk rounds of `B/G` each).
///
/// Returns one completion marker per rank.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if fewer than two ranks are given or ranks repeat.
pub fn ring_allreduce(
    sim: &mut Simulator,
    ranks: &[Rank],
    total_bytes: f64,
    deps: &[Option<TaskId>],
    label: &'static str,
) -> Result<Vec<TaskId>, SimError> {
    validate_group(ranks);
    let cluster = sim.cluster().clone();
    let g = ranks.len();
    let chunk = total_bytes / g as f64;
    let rounds = 2 * (g - 1);
    let mut arrive: Vec<Option<TaskId>> = vec![None; g];
    let mut last_inbound: Vec<Option<TaskId>> = vec![None; g];
    for round in 0..rounds {
        let mut next_arrive: Vec<Option<TaskId>> = vec![None; g];
        for (p, &src) in ranks.iter().enumerate() {
            let next = (p + 1) % g;
            let dst = ranks[next];
            let mut ldeps: Vec<TaskId> = Vec::new();
            if round == 0 {
                ldeps.extend(deps.get(p).copied().flatten());
            } else {
                ldeps.extend(arrive[p]);
            }
            let l = launch(sim, src, ldeps)?;
            let flow = sim.transfer(
                chunk,
                cluster.direct_path(src, dst),
                vec![l],
                Some(TraceInfo {
                    rank: src,
                    category: TraceCategory::Other,
                    label: TraceLabel::new(label)
                        .with_suffix("-ar")
                        .with_round("r", round)
                        .with_edge(src, dst),
                }),
            )?;
            next_arrive[next] = Some(flow);
            last_inbound[next] = Some(flow);
        }
        arrive = next_arrive;
    }
    let mut done = Vec::with_capacity(g);
    for p in 0..g {
        let mut d: Vec<TaskId> = last_inbound[p].into_iter().collect();
        d.extend(deps.get(p).copied().flatten());
        done.push(sim.marker(d)?);
    }
    Ok(done)
}

/// Builds an all-to-all: rank `i` sends `bytes[i][j]` to rank `j`
/// (`bytes[i][i]` ignored). Returns per-rank completion markers that fire
/// when all of that rank's inbound shards arrived.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// Panics if the byte matrix is not `G × G` or the group is invalid.
pub fn all_to_all(
    sim: &mut Simulator,
    ranks: &[Rank],
    bytes: &[Vec<f64>],
    deps: &[Option<TaskId>],
    label: &'static str,
) -> Result<Vec<TaskId>, SimError> {
    validate_group(ranks);
    let g = ranks.len();
    assert!(
        bytes.len() == g && bytes.iter().all(|r| r.len() == g),
        "byte matrix must be G x G"
    );
    let cluster = sim.cluster().clone();
    let mut inbound: Vec<Vec<TaskId>> = vec![Vec::new(); g];
    for (p, &src) in ranks.iter().enumerate() {
        for (q, &dst) in ranks.iter().enumerate() {
            if p == q || bytes[p][q] <= 0.0 {
                continue;
            }
            let ldeps: Vec<TaskId> = deps.get(p).copied().flatten().into_iter().collect();
            let l = launch(sim, src, ldeps)?;
            let flow = sim.transfer(
                bytes[p][q],
                cluster.direct_path(src, dst),
                vec![l],
                Some(TraceInfo {
                    rank: src,
                    category: TraceCategory::Other,
                    label: TraceLabel::new(label)
                        .with_suffix("-a2a")
                        .with_edge(src, dst),
                }),
            )?;
            inbound[q].push(flow);
        }
    }
    let mut done = Vec::with_capacity(g);
    for (p, mut d) in inbound.into_iter().enumerate() {
        d.extend(deps.get(p).copied().flatten());
        done.push(sim.marker(d)?);
    }
    Ok(done)
}

fn validate_group(ranks: &[Rank]) {
    assert!(ranks.len() >= 2, "collective group needs >= 2 ranks");
    let mut sorted = ranks.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ranks.len(), "collective group repeats a rank");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::tiny_cluster;

    #[test]
    fn allgather_time_matches_ring_bound() {
        // 4 ranks on one node, NVLink 200 GB/s: (G-1) rounds of B bytes.
        let c = tiny_cluster(1, 4);
        let mut sim = Simulator::new(&c);
        let ranks = [0, 1, 2, 3];
        ring_allgather(&mut sim, &ranks, 20e9, &[None; 4], "t").unwrap();
        let r = sim.run().unwrap();
        let expected = 3.0 * 20e9 / 200e9; // 0.3 s.
        let got = r.makespan.as_secs_f64();
        assert!((got - expected).abs() / expected < 0.01, "got {got}");
    }

    #[test]
    fn allreduce_moves_twice_the_allgather_volume() {
        let c = tiny_cluster(1, 4);
        let time = |ar: bool| {
            let mut sim = Simulator::new(&c);
            if ar {
                ring_allreduce(&mut sim, &[0, 1, 2, 3], 80e9, &[None; 4], "t").unwrap();
            } else {
                ring_allgather(&mut sim, &[0, 1, 2, 3], 20e9, &[None; 4], "t").unwrap();
            }
            sim.run().unwrap().makespan.as_secs_f64()
        };
        let ag = time(false);
        let ar = time(true);
        // All-reduce of B: 2(G-1)·B/G per rank = 2× all-gather of B/G.
        assert!((ar / ag - 2.0).abs() < 0.05, "ar {ar} vs ag {ag}");
    }

    #[test]
    fn all_to_all_delivers_everything_concurrently() {
        let c = tiny_cluster(1, 4);
        let mut sim = Simulator::new(&c);
        let bytes = vec![vec![10e9; 4]; 4];
        all_to_all(&mut sim, &[0, 1, 2, 3], &bytes, &[None; 4], "t").unwrap();
        let r = sim.run().unwrap();
        // Each rank sends 3×10 GB through its 200 GB/s egress: 0.15 s.
        let got = r.makespan.as_secs_f64();
        assert!((got - 0.15).abs() < 0.01, "got {got}");
    }

    #[test]
    fn collectives_respect_dependencies() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let gate = sim
            .compute(
                0,
                Stream::Compute,
                SimDuration::from_millis(5),
                vec![],
                None,
            )
            .unwrap();
        let done = ring_allgather(&mut sim, &[0, 1], 1e6, &[Some(gate), None], "gated").unwrap();
        let r = sim.run().unwrap();
        // Rank 0's gather cannot complete before the gate.
        assert!(r.span(done[0]).1.as_millis_f64() >= 5.0);
    }

    #[test]
    fn all_to_all_skips_zero_cells() {
        let c = tiny_cluster(1, 3);
        let mut sim = Simulator::new(&c);
        let mut bytes = vec![vec![0.0; 3]; 3];
        bytes[0][1] = 1e6;
        let before = sim.task_count();
        all_to_all(&mut sim, &[0, 1, 2], &bytes, &[None; 3], "t").unwrap();
        // 1 launch + 1 flow + 3 markers.
        assert_eq!(sim.task_count() - before, 5);
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = ">= 2 ranks")]
    fn single_rank_group_panics() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let _ = ring_allgather(&mut sim, &[0], 1.0, &[None], "t");
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn duplicate_rank_panics() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let _ = ring_allreduce(&mut sim, &[0, 0], 1.0, &[None, None], "t");
    }

    #[test]
    #[should_panic(expected = "G x G")]
    fn bad_matrix_panics() {
        let c = tiny_cluster(1, 2);
        let mut sim = Simulator::new(&c);
        let _ = all_to_all(&mut sim, &[0, 1], &[vec![0.0; 2]], &[None, None], "t");
    }
}
