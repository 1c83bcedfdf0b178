//! Deterministic infrastructure-fault schedules.
//!
//! Real DP training fleets do not run on the pristine hardware the rest of
//! this crate models: GPUs thermally throttle, NICs degrade, links flap, and
//! whole nodes crash. A [`FaultSchedule`] scripts such events against the
//! simulation clock so every layer above (engine, trainer, recovery policy)
//! can be exercised **deterministically** — the same schedule against the
//! same DAG produces the same [`SimReport`](crate::engine::SimReport) or the
//! same typed error, bit for bit.
//!
//! Four fault shapes are modelled:
//!
//! - [`FaultEvent::GpuSlowdown`]: a rank computes at `factor` × nominal
//!   speed during a window (thermal throttling, noisy neighbours);
//! - [`FaultEvent::NicDegrade`]: a NIC's tx/rx capacity is scaled by
//!   `factor` during a window (congestion, partial link failure);
//! - [`FaultEvent::LinkFlap`]: a NIC collapses to [`FLAP_RESIDUAL`] of its
//!   capacity during a window — effectively unusable, but capacities stay
//!   positive so the max-min allocator's projections remain finite;
//! - [`FaultEvent::RankCrash`]: a rank dies permanently at an instant; any
//!   unfinished work assigned to it turns the run into
//!   [`SimError::RankUnavailable`].
//!
//! Windows are half-open `[start, end)`; `end = None` means the fault lasts
//! for the rest of the run. Overlapping windows compose multiplicatively.
//!
//! The [`FaultSchedule::random`] generator draws a schedule from a seed with
//! the workspace's deterministic RNG, which is what the determinism property
//! suite (`tests/fault_props.rs`) runs against.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::error::SimError;
use crate::time::SimTime;
use crate::topology::{ClusterSpec, Rank};

/// Residual capacity fraction of a flapping link.
///
/// A flapped NIC is useless for bulk transfers (1000× degradation) but keeps
/// a positive capacity: the allocator's completion projections stay finite
/// and traffic resumes cleanly when the window closes.
pub const FLAP_RESIDUAL: f64 = 1e-3;

/// One scripted infrastructure fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// `rank` computes at `factor` × nominal speed during `[start, end)`.
    GpuSlowdown {
        /// Affected rank.
        rank: Rank,
        /// Speed multiplier in `(0, 1]` (0.5 = half speed).
        factor: f64,
        /// Window start.
        start: SimTime,
        /// Window end (`None` = rest of the run).
        end: Option<SimTime>,
    },
    /// Global NIC `nic`'s tx and rx capacity is scaled by `factor` during
    /// `[start, end)`.
    NicDegrade {
        /// Global NIC index (`node * nic_count + local_nic`).
        nic: usize,
        /// Capacity multiplier in `(0, 1]`.
        factor: f64,
        /// Window start.
        start: SimTime,
        /// Window end (`None` = rest of the run).
        end: Option<SimTime>,
    },
    /// Link flap: NIC `nic` collapses to [`FLAP_RESIDUAL`] of its capacity
    /// during `[start, end)`.
    LinkFlap {
        /// Global NIC index.
        nic: usize,
        /// Window start.
        start: SimTime,
        /// Window end (`None` = rest of the run).
        end: Option<SimTime>,
    },
    /// `rank` dies permanently at `at`.
    RankCrash {
        /// The crashing rank.
        rank: Rank,
        /// Crash instant.
        at: SimTime,
    },
}

impl FaultEvent {
    /// The `[start, end)` window of the event (`at..at` for crashes, which
    /// are instants, not windows).
    fn window(&self) -> (SimTime, Option<SimTime>) {
        match *self {
            FaultEvent::GpuSlowdown { start, end, .. }
            | FaultEvent::NicDegrade { start, end, .. }
            | FaultEvent::LinkFlap { start, end, .. } => (start, end),
            FaultEvent::RankCrash { at, .. } => (at, Some(at)),
        }
    }

    /// True if the window covers instant `t` (half-open; crashes never
    /// "cover" an instant).
    fn covers(&self, t: SimTime) -> bool {
        let (start, end) = self.window();
        t >= start && end.is_none_or(|e| t < e)
    }
}

/// A deterministic script of infrastructure faults against the sim clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty (fault-free) schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if no faults are scripted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an event.
    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        self.events.push(ev);
        self
    }

    /// Builder: GPU slowdown window.
    pub fn gpu_slowdown(
        mut self,
        rank: Rank,
        factor: f64,
        start: SimTime,
        end: Option<SimTime>,
    ) -> Self {
        self.events.push(FaultEvent::GpuSlowdown {
            rank,
            factor,
            start,
            end,
        });
        self
    }

    /// Builder: NIC degradation window.
    pub fn nic_degrade(
        mut self,
        nic: usize,
        factor: f64,
        start: SimTime,
        end: Option<SimTime>,
    ) -> Self {
        self.events.push(FaultEvent::NicDegrade {
            nic,
            factor,
            start,
            end,
        });
        self
    }

    /// Builder: link flap window.
    pub fn link_flap(mut self, nic: usize, start: SimTime, end: Option<SimTime>) -> Self {
        self.events.push(FaultEvent::LinkFlap { nic, start, end });
        self
    }

    /// Builder: permanent rank crash.
    pub fn rank_crash(mut self, rank: Rank, at: SimTime) -> Self {
        self.events.push(FaultEvent::RankCrash { rank, at });
        self
    }

    /// Builder: crashes every rank of `node` (and flaps its NICs) at `at` —
    /// the whole-node failure the elastic-recovery exhibits script.
    pub fn node_crash(mut self, cluster: &ClusterSpec, node: usize, at: SimTime) -> Self {
        for rank in cluster.ranks_on_node(node) {
            self.events.push(FaultEvent::RankCrash { rank, at });
        }
        for local in 0..cluster.node.nic_count {
            self.events.push(FaultEvent::LinkFlap {
                nic: node * cluster.node.nic_count + local,
                start: at,
                end: None,
            });
        }
        self
    }

    /// Checks every event against `cluster`: ranks and NICs must exist,
    /// factors must lie in `(0, 1]`, and windows must be non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTopology`] describing the first offending
    /// event.
    pub fn validate(&self, cluster: &ClusterSpec) -> Result<(), SimError> {
        let nranks = cluster.total_gpus();
        let nnics = cluster.total_nics();
        let check_rank = |rank: Rank| {
            if rank >= nranks {
                return Err(SimError::InvalidTopology(format!(
                    "fault references rank {rank} but the cluster has {nranks} ranks"
                )));
            }
            Ok(())
        };
        let check_nic = |nic: usize| {
            if nic >= nnics {
                return Err(SimError::InvalidTopology(format!(
                    "fault references NIC {nic} but the cluster has {nnics} NICs"
                )));
            }
            Ok(())
        };
        let check_factor = |factor: f64| {
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(SimError::InvalidTopology(format!(
                    "fault factor {factor} outside (0, 1]"
                )));
            }
            Ok(())
        };
        let check_window = |start: SimTime, end: Option<SimTime>| {
            if let Some(e) = end {
                if e <= start {
                    return Err(SimError::InvalidTopology(format!(
                        "fault window [{start}, {e}) is empty"
                    )));
                }
            }
            Ok(())
        };
        for ev in &self.events {
            match *ev {
                FaultEvent::GpuSlowdown {
                    rank,
                    factor,
                    start,
                    end,
                } => {
                    check_rank(rank)?;
                    check_factor(factor)?;
                    check_window(start, end)?;
                }
                FaultEvent::NicDegrade {
                    nic,
                    factor,
                    start,
                    end,
                } => {
                    check_nic(nic)?;
                    check_factor(factor)?;
                    check_window(start, end)?;
                }
                FaultEvent::LinkFlap { nic, start, end } => {
                    check_nic(nic)?;
                    check_window(start, end)?;
                }
                FaultEvent::RankCrash { rank, .. } => check_rank(rank)?,
            }
        }
        Ok(())
    }

    /// Compute-speed multiplier of `rank` at instant `t` (product of all
    /// covering slowdown windows; 1.0 when healthy).
    pub fn speed_at(&self, rank: Rank, t: SimTime) -> f64 {
        let mut f = 1.0;
        for ev in &self.events {
            if let FaultEvent::GpuSlowdown {
                rank: r, factor, ..
            } = *ev
            {
                if r == rank && ev.covers(t) {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Capacity multiplier of global NIC `nic` at instant `t` (product of
    /// all covering degradation and flap windows; 1.0 when healthy).
    pub fn nic_factor_at(&self, nic: usize, t: SimTime) -> f64 {
        let mut f = 1.0;
        for ev in &self.events {
            match *ev {
                FaultEvent::NicDegrade { nic: n, factor, .. } if n == nic && ev.covers(t) => {
                    f *= factor
                }
                FaultEvent::LinkFlap { nic: n, .. } if n == nic && ev.covers(t) => {
                    f *= FLAP_RESIDUAL
                }
                _ => {}
            }
        }
        f
    }

    /// Overlap-weighted compute-speed multiplier of `rank` over the window
    /// `[w0, w1)`: a slowdown covering half the window at factor 0.5 yields
    /// 0.75. Used by the trainer to fold run-level fault windows into
    /// per-step effective speeds.
    pub fn speed_over(&self, rank: Rank, w0: SimTime, w1: SimTime) -> f64 {
        let span = w1.as_nanos().saturating_sub(w0.as_nanos()) as f64;
        if span <= 0.0 {
            return self.speed_at(rank, w0);
        }
        let mut f = 1.0;
        for ev in &self.events {
            if let FaultEvent::GpuSlowdown {
                rank: r, factor, ..
            } = *ev
            {
                if r != rank {
                    continue;
                }
                let frac = overlap_fraction(ev.window(), w0, w1, span);
                f *= 1.0 - frac * (1.0 - factor);
            }
        }
        f
    }

    /// Overlap-weighted capacity multiplier of NIC `nic` over `[w0, w1)`
    /// (same weighting as [`FaultSchedule::speed_over`]).
    pub fn nic_factor_over(&self, nic: usize, w0: SimTime, w1: SimTime) -> f64 {
        let span = w1.as_nanos().saturating_sub(w0.as_nanos()) as f64;
        if span <= 0.0 {
            return self.nic_factor_at(nic, w0);
        }
        let mut f = 1.0;
        for ev in &self.events {
            let factor = match *ev {
                FaultEvent::NicDegrade { nic: n, factor, .. } if n == nic => factor,
                FaultEvent::LinkFlap { nic: n, .. } if n == nic => FLAP_RESIDUAL,
                _ => continue,
            };
            let frac = overlap_fraction(ev.window(), w0, w1, span);
            f *= 1.0 - frac * (1.0 - factor);
        }
        f
    }

    /// True if any flap window overlaps `[w0, w1)` (the trainer's
    /// collective-timeout signal).
    pub fn flap_overlaps(&self, w0: SimTime, w1: SimTime) -> bool {
        self.events.iter().any(|ev| {
            matches!(ev, FaultEvent::LinkFlap { .. })
                && overlap_fraction(ev.window(), w0, w1, 1.0) > 0.0
        })
    }

    /// Crashes with `w0 <= at < w1`, as `(rank, at)` pairs sorted by
    /// instant then rank.
    pub fn crashes_in(&self, w0: SimTime, w1: SimTime) -> Vec<(Rank, SimTime)> {
        let mut out: Vec<(Rank, SimTime)> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::RankCrash { rank, at } if at >= w0 && at < w1 => Some((rank, at)),
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|&(rank, at)| (at, rank));
        out
    }

    /// Ranks crashed strictly before `t`, deduplicated and sorted.
    pub fn crashed_before(&self, t: SimTime) -> Vec<Rank> {
        let mut out: Vec<Rank> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::RankCrash { rank, at } if at < t => Some(rank),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ranks referenced by slowdown windows, deduplicated and sorted.
    pub fn slowdown_ranks(&self) -> Vec<Rank> {
        let mut out: Vec<Rank> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::GpuSlowdown { rank, .. } => Some(rank),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// NICs referenced by degradation or flap windows, deduplicated and
    /// sorted.
    pub fn affected_nics(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::NicDegrade { nic, .. } | FaultEvent::LinkFlap { nic, .. } => Some(nic),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All distinct instants at which some fault begins, ends, or fires,
    /// sorted ascending. These are the engine's fault-event instants.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(self.events.len() * 2);
        for ev in &self.events {
            let (start, end) = ev.window();
            out.push(start);
            if let Some(e) = end {
                // A crash "window" is the instant itself; do not duplicate.
                if e != start {
                    out.push(e);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Draws a random schedule over `[0, horizon)` for `cluster` from
    /// `seed` — deterministic per seed, which the determinism property
    /// suite relies on. The draw mixes slowdowns, degradations, flaps, and
    /// (with low probability) a crash.
    pub fn random(seed: u64, cluster: &ClusterSpec, horizon: SimTime) -> FaultSchedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let nranks = cluster.total_gpus();
        let nnics = cluster.total_nics();
        let h = horizon.as_nanos().max(2);
        let mut out = FaultSchedule::new();
        let count = rng.random_range(1usize..=6);
        for _ in 0..count {
            let start = rng.random_range(0u64..h - 1);
            let len = rng.random_range(1u64..=h - start);
            let end = if rng.random_range(0u64..4) == 0 {
                None
            } else {
                Some(SimTime::from_nanos(start + len))
            };
            let start = SimTime::from_nanos(start);
            match rng.random_range(0u64..10) {
                0..=3 => {
                    out.events.push(FaultEvent::GpuSlowdown {
                        rank: rng.random_range(0usize..nranks),
                        factor: rng.random_range(0.1f64..1.0),
                        start,
                        end,
                    });
                }
                4..=6 => {
                    out.events.push(FaultEvent::NicDegrade {
                        nic: rng.random_range(0usize..nnics),
                        factor: rng.random_range(0.05f64..1.0),
                        start,
                        end,
                    });
                }
                7 | 8 => {
                    out.events.push(FaultEvent::LinkFlap {
                        nic: rng.random_range(0usize..nnics),
                        start,
                        end,
                    });
                }
                _ => {
                    out.events.push(FaultEvent::RankCrash {
                        rank: rng.random_range(0usize..nranks),
                        at: start,
                    });
                }
            }
        }
        out
    }
}

/// Fraction of `[w0, w1)` (whose length is `span` ns) covered by `window`.
fn overlap_fraction(
    window: (SimTime, Option<SimTime>),
    w0: SimTime,
    w1: SimTime,
    span: f64,
) -> f64 {
    let (start, end) = window;
    let lo = start.max(w0).as_nanos();
    let hi = end.unwrap_or(SimTime::MAX).min(w1).as_nanos();
    if hi <= lo || span <= 0.0 {
        return 0.0;
    }
    (hi - lo) as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{cluster_a, tiny_cluster};

    fn s(secs: u64) -> SimTime {
        SimTime::from_nanos(secs * 1_000_000_000)
    }

    #[test]
    fn point_factors_compose_multiplicatively() {
        let f = FaultSchedule::new()
            .gpu_slowdown(3, 0.5, s(1), Some(s(3)))
            .gpu_slowdown(3, 0.8, s(2), None);
        assert_eq!(f.speed_at(3, s(0)), 1.0);
        assert_eq!(f.speed_at(3, s(1)), 0.5);
        assert!((f.speed_at(3, s(2)) - 0.4).abs() < 1e-12);
        assert!((f.speed_at(3, s(4)) - 0.8).abs() < 1e-12);
        assert_eq!(f.speed_at(2, s(2)), 1.0);
    }

    #[test]
    fn nic_factor_includes_flaps() {
        let f = FaultSchedule::new()
            .nic_degrade(1, 0.25, s(0), Some(s(2)))
            .link_flap(1, s(1), Some(s(2)));
        assert!((f.nic_factor_at(1, s(0)) - 0.25).abs() < 1e-12);
        assert!((f.nic_factor_at(1, s(1)) - 0.25 * FLAP_RESIDUAL).abs() < 1e-12);
        assert_eq!(f.nic_factor_at(1, s(2)), 1.0);
        assert_eq!(f.nic_factor_at(0, s(1)), 1.0);
        // Over [0, 4) the degrade covers half the window and the flap a
        // quarter; each weights in by its overlap.
        let over = (1.0 - 0.5 * 0.75) * (1.0 - 0.25 * (1.0 - FLAP_RESIDUAL));
        assert!((f.nic_factor_over(1, s(0), s(4)) - over).abs() < 1e-12);
        // A zero-span window falls back to the instant's factor.
        assert_eq!(f.nic_factor_over(1, s(1), s(1)), f.nic_factor_at(1, s(1)));
    }

    #[test]
    fn overlap_weighting_is_proportional() {
        // Slowdown to 0.5 covering [1, 2) of the window [0, 2): weight 1/2.
        let f = FaultSchedule::new().gpu_slowdown(0, 0.5, s(1), Some(s(2)));
        assert!((f.speed_over(0, s(0), s(2)) - 0.75).abs() < 1e-12);
        // Fully covered window.
        assert!((f.speed_over(0, s(1), s(2)) - 0.5).abs() < 1e-12);
        // Disjoint window.
        assert_eq!(f.speed_over(0, s(3), s(4)), 1.0);
        // NIC factors weight the same way.
        let g = FaultSchedule::new().nic_degrade(2, 0.5, s(1), Some(s(2)));
        assert!((g.nic_factor_over(2, s(0), s(2)) - 0.75).abs() < 1e-12);
        assert_eq!(g.nic_factor_over(2, s(3), s(4)), 1.0);
        assert_eq!(g.nic_factor_over(2, s(1), s(1)), 0.5);
    }

    #[test]
    fn crash_queries_sort_and_filter() {
        let f = FaultSchedule::new()
            .rank_crash(5, s(4))
            .rank_crash(1, s(2))
            .rank_crash(3, s(2));
        assert_eq!(f.crashes_in(s(0), s(3)), vec![(1, s(2)), (3, s(2))]);
        assert_eq!(
            f.crashes_in(s(2), s(5)),
            vec![(1, s(2)), (3, s(2)), (5, s(4))]
        );
        assert_eq!(f.crashed_before(s(3)), vec![1, 3]);
        assert!(f.crashed_before(s(2)).is_empty());
    }

    #[test]
    fn node_crash_covers_all_ranks_and_nics() {
        let c = cluster_a(2);
        let f = FaultSchedule::new().node_crash(&c, 1, s(3));
        let crashes = f.crashes_in(s(0), s(10));
        assert_eq!(crashes.len(), 8);
        assert!(crashes
            .iter()
            .all(|&(r, at)| (8..16).contains(&r) && at == s(3)));
        assert_eq!(f.affected_nics(), vec![4, 5, 6, 7]);
        assert!(f.validate(&c).is_ok());
    }

    #[test]
    fn validation_rejects_bad_events() {
        let c = tiny_cluster(1, 2);
        let bad_rank = FaultSchedule::new().rank_crash(7, s(1));
        assert!(matches!(
            bad_rank.validate(&c),
            Err(SimError::InvalidTopology(_))
        ));
        let bad_nic = FaultSchedule::new().link_flap(9, s(0), None);
        assert!(bad_nic.validate(&c).is_err());
        let bad_factor = FaultSchedule::new().gpu_slowdown(0, 0.0, s(0), None);
        assert!(bad_factor.validate(&c).is_err());
        let empty_window = FaultSchedule::new().gpu_slowdown(0, 0.5, s(2), Some(s(2)));
        assert!(empty_window.validate(&c).is_err());
        assert!(FaultSchedule::new().validate(&c).is_ok());
    }

    #[test]
    fn boundaries_are_sorted_and_deduped() {
        let f = FaultSchedule::new()
            .gpu_slowdown(0, 0.5, s(1), Some(s(3)))
            .link_flap(0, s(3), Some(s(5)))
            .rank_crash(1, s(1));
        assert_eq!(f.boundaries(), vec![s(1), s(3), s(5)]);
    }

    #[test]
    fn random_schedules_are_deterministic_and_valid() {
        let c = cluster_a(2);
        for seed in 0..50 {
            let a = FaultSchedule::random(seed, &c, s(10));
            let b = FaultSchedule::random(seed, &c, s(10));
            assert_eq!(a, b, "seed {seed} diverged");
            a.validate(&c).expect("random schedule validates");
            assert!(!a.is_empty());
        }
        assert_ne!(
            FaultSchedule::random(1, &c, s(10)),
            FaultSchedule::random(2, &c, s(10)),
        );
    }
}
