//! The job gate in front of planning: at most `workers` plan/audit jobs
//! run at once, each on the connection thread that read it, and at most
//! `max_queue` more wait for a permit (DESIGN.md §12).
//!
//! A released permit goes straight to the longest waiter and unparks that
//! one thread, so a job that arrives while others wait never overtakes
//! them and a release never wakes a herd. The permit is a drop guard: it
//! comes back when its job ends, also when the job unwinds.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use crate::metrics::{MetricsShard, ServiceMetrics};

/// At most `permits` jobs run at once and at most `max_waiters` threads
/// wait for a permit, in arrival order.
pub(crate) struct JobGate {
    state: Mutex<GateState>,
    max_waiters: usize,
}

struct GateState {
    /// Permits nobody holds; non-empty only while nobody waits.
    free: Vec<usize>,
    /// Waiting connection threads, in arrival order.
    waiters: VecDeque<Arc<Waiter>>,
}

/// A connection thread parked in [`JobGate::acquire`].
struct Waiter {
    thread: Thread,
    /// The permit handed over by a release; [`WAITING`] until then.
    granted: AtomicUsize,
}

const WAITING: usize = usize::MAX;

impl JobGate {
    pub(crate) fn new(permits: usize, max_waiters: usize) -> JobGate {
        JobGate {
            state: Mutex::new(GateState {
                free: (0..permits.max(1)).rev().collect(),
                waiters: VecDeque::new(),
            }),
            max_waiters,
        }
    }

    /// No critical section can leave the state half-done, so a poisoned
    /// lock is safe to use, and a drop guard must not panic as it unwinds.
    fn state(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a free permit, or waits for one behind the earlier waiters.
    /// `None` when `max_waiters` threads already wait. `metrics` carries
    /// the waiting-jobs gauge and one shard per permit.
    pub(crate) fn acquire<'a>(&'a self, metrics: &'a ServiceMetrics) -> Option<JobPermit<'a>> {
        let mut state = self.state();
        let permit = |index| JobPermit {
            gate: self,
            metrics,
            index,
        };
        if let Some(index) = state.free.pop() {
            return Some(permit(index));
        }
        if state.waiters.len() >= self.max_waiters {
            return None;
        }
        let waiter = Arc::new(Waiter {
            thread: std::thread::current(),
            granted: AtomicUsize::new(WAITING),
        });
        state.waiters.push_back(Arc::clone(&waiter));
        metrics.set_queue_depth(state.waiters.len());
        drop(state);
        loop {
            // A stray unpark only returns `park` early; the grant decides.
            match waiter.granted.load(Ordering::Acquire) {
                WAITING => std::thread::park(),
                index => return Some(permit(index)),
            }
        }
    }

    fn release(&self, index: usize, metrics: &ServiceMetrics) {
        let mut state = self.state();
        let Some(next) = state.waiters.pop_front() else {
            state.free.push(index);
            return;
        };
        metrics.set_queue_depth(state.waiters.len());
        drop(state);
        next.granted.store(index, Ordering::Release);
        next.thread.unpark();
    }
}

/// One job's hold on the gate: the drop guard gives the permit back, also
/// when the job unwinds.
pub(crate) struct JobPermit<'a> {
    gate: &'a JobGate,
    metrics: &'a ServiceMetrics,
    index: usize,
}

impl<'a> JobPermit<'a> {
    /// The metrics shard this permit records into. Shard 0 belongs to the
    /// connection threads; permits take 1..=workers.
    pub(crate) fn metrics(&self) -> MetricsShard<'a> {
        self.metrics.shard(self.index + 1)
    }
}

impl Drop for JobPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.index, self.metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::{Duration, Instant};

    /// Polls the waiting-jobs gauge until it reads `depth`.
    fn wait_for_depth(metrics: &ServiceMetrics, depth: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.snapshot().queue_depth != depth {
            assert!(Instant::now() < deadline, "never {depth} waiting");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_gate_bounds_jobs_and_serves_waiters_in_arrival_order() {
        let metrics = ServiceMetrics::with_shards(3);
        let gate = JobGate::new(2, 4);
        let (a, b) = (gate.acquire(&metrics), gate.acquire(&metrics));
        let mut held = [a.as_ref().unwrap().index, b.as_ref().unwrap().index];
        held.sort_unstable();
        assert_eq!(held, [0, 1]);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in 0..4 {
                let (gate, metrics, order) = (&gate, &metrics, &order);
                s.spawn(move || {
                    let _permit = gate.acquire(metrics).expect("room to wait");
                    order.lock().unwrap().push(i);
                });
                // Each waiter queues before the next one arrives.
                wait_for_depth(metrics, i + 1);
            }
            assert!(gate.acquire(&metrics).is_none(), "the waiting room is full");
            // One permit passes from waiter to waiter while `a` is held.
            drop(b);
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3]);
        assert_eq!(metrics.snapshot().queue_depth, 0);
        drop(a);
        assert_eq!(gate.state().free.len(), 2);
    }

    #[test]
    fn a_permit_comes_back_when_its_job_panics() {
        let metrics = ServiceMetrics::with_shards(2);
        let gate = JobGate::new(1, 0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.acquire(&metrics).expect("a free permit");
            panic!("the job panics while holding its permit");
        }));
        assert!(unwound.is_err());
        assert!(gate.acquire(&metrics).is_some(), "the permit came back");
    }
}
