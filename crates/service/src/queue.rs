//! The bounded two-lane ingest queue dispatchers pop from.
//!
//! Not `threadkit::BoundedQueue` with extras: `push` never blocks — at
//! capacity it hands the job back so admission can shed it with a typed
//! rejection — there are two lanes under one bound, depth / peak / active are
//! kept under the lane mutex so "drained" has no window, and `push` carries
//! the `QueueFull` fault hook. What the two share is a `VecDeque` behind a
//! mutex and a condvar.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ompss::{FaultClass, FaultPlan};
use parking_lot::{Condvar, Mutex};

use crate::job::{JobKind, JobTicket};
use crate::tenant::TenantState;

/// An admitted job, parked in the queue until a dispatcher pops it.
pub(crate) struct QueuedJob {
    pub(crate) tenant: Arc<TenantState>,
    pub(crate) kind: JobKind,
    pub(crate) ticket: JobTicket,
    /// Absolute deadline, stamped at admission from
    /// [`JobSpec::with_deadline`](crate::JobSpec::with_deadline).
    pub(crate) deadline: Option<Instant>,
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("tenant", &self.tenant.id)
            .field("kind", &self.kind)
            .finish()
    }
}

struct Lanes {
    latency: VecDeque<QueuedJob>,
    bulk: VecDeque<QueuedJob>,
    closed: bool,
}

impl Lanes {
    fn len(&self) -> usize {
        self.latency.len() + self.bulk.len()
    }
}

/// Bounded MPMC queue with two priority lanes. `capacity` bounds the lanes
/// *combined*, and both the capacity check and the depth/peak bookkeeping
/// happen under the lane mutex, so the recorded peak depth can never exceed
/// the capacity — the invariant the overload test asserts.
pub(crate) struct IngestQueue {
    lanes: Mutex<Lanes>,
    cv: Condvar,
    capacity: usize,
    /// Deterministic fault injection: a `QueueFull` roll makes `push` hand
    /// the job back exactly as if the lanes were at capacity, exercising the
    /// shed/retry path without needing a real burst. `None` in production.
    fault: Option<FaultPlan>,
    depth: AtomicUsize,
    peak: AtomicUsize,
    /// Jobs popped but not yet finished by a dispatcher. Incremented under
    /// the lane mutex at pop time so `depth == 0 && active == 0` means
    /// truly drained — no window where a job is in neither count.
    active: AtomicUsize,
}

impl IngestQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        IngestQueue {
            lanes: Mutex::new(Lanes {
                latency: VecDeque::new(),
                bulk: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            fault: None,
            depth: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
        }
    }

    /// Install a fault plan before the queue is shared (construction time).
    pub(crate) fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Push onto the lane `latency` selects. On success returns the new
    /// depth; at capacity the job is handed back for the caller to shed,
    /// with the depth the queue held when it refused (read under the lane
    /// lock — below capacity when the refusal was an injected fault).
    pub(crate) fn push(
        &self,
        job: QueuedJob,
        latency: bool,
    ) -> Result<usize, (QueuedJob, usize)> {
        let mut lanes = self.lanes.lock();
        let depth = lanes.len();
        if depth >= self.capacity {
            return Err((job, depth));
        }
        if let Some(plan) = &self.fault {
            if plan.roll_next(FaultClass::QueueFull) {
                return Err((job, depth));
            }
        }
        if latency {
            lanes.latency.push_back(job);
        } else {
            lanes.bulk.push_back(job);
        }
        let depth = depth + 1;
        self.depth.store(depth, Ordering::SeqCst);
        self.peak.fetch_max(depth, Ordering::SeqCst);
        drop(lanes);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Pop the next job, latency lane strictly first. Blocks while both
    /// lanes are empty; returns `None` only once the queue is closed *and*
    /// empty, so every admitted job is handed to some dispatcher even
    /// during shutdown.
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut lanes = self.lanes.lock();
        loop {
            if let Some(job) = lanes.latency.pop_front().or_else(|| lanes.bulk.pop_front()) {
                self.depth.store(lanes.len(), Ordering::SeqCst);
                self.active.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
            if lanes.closed {
                return None;
            }
            self.cv.wait(&mut lanes);
        }
    }

    /// A dispatcher finished the job it popped.
    pub(crate) fn finish_active(&self) {
        let prev = self.active.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "finish_active without a pop");
    }

    /// Stop admitting and wake every blocked dispatcher so they drain the
    /// remaining jobs and exit.
    pub(crate) fn close(&self) {
        self.lanes.lock().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantId, TenantSpec};

    /// A job tagged by its replay slot, so tests can tell jobs apart.
    fn job(tenant: &Arc<TenantState>, slot: u32) -> QueuedJob {
        QueuedJob {
            tenant: Arc::clone(tenant),
            kind: JobKind::Replay { slot, passes: 1 },
            ticket: JobTicket::new(),
            deadline: None,
        }
    }

    fn tag(job: &QueuedJob) -> u32 {
        match job.kind {
            JobKind::Replay { slot, .. } => slot,
            JobKind::Spawn(_) => unreachable!("test jobs are replays"),
        }
    }

    fn tenant() -> Arc<TenantState> {
        Arc::new(TenantState::new(TenantId(0), TenantSpec::new("t")))
    }

    #[test]
    fn capacity_bounds_both_lanes_combined() {
        let q = IngestQueue::new(2);
        let t = tenant();
        assert!(q.push(job(&t, 0), false).is_ok());
        assert!(q.push(job(&t, 1), true).is_ok());
        let back = q.push(job(&t, 2), false);
        assert!(matches!(back, Err((_, 2))), "refused at the depth it held");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    fn latency_lane_drains_first() {
        let q = IngestQueue::new(8);
        let t = tenant();
        q.push(job(&t, 0), false).unwrap();
        q.push(job(&t, 1), false).unwrap();
        q.push(job(&t, 2), true).unwrap();
        let order: Vec<u32> = (0..3).map(|_| tag(&q.pop().unwrap())).collect();
        assert_eq!(order, vec![2, 0, 1]);
        assert_eq!(q.active(), 3);
        for _ in 0..3 {
            q.finish_active();
        }
        assert_eq!(q.active(), 0);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = IngestQueue::new(8);
        let t = tenant();
        q.push(job(&t, 7), false).unwrap();
        q.close();
        assert_eq!(tag(&q.pop().unwrap()), 7);
        assert!(q.pop().is_none());
    }

    #[test]
    fn injected_queue_full_hands_the_job_back() {
        let mut q = IngestQueue::new(64);
        q.set_fault_plan(FaultPlan::seeded(7).queue_full_one_in(2));
        let t = tenant();
        let (mut ok, mut shed) = (0, 0);
        for i in 0..64 {
            match q.push(job(&t, i), false) {
                Ok(_) => ok += 1,
                Err((back, depth)) => {
                    assert_eq!(tag(&back), i, "the refused job comes back");
                    assert_eq!(depth, ok, "with the depth at refusal, not the capacity");
                    shed += 1;
                }
            }
        }
        assert!(ok > 0 && shed > 0, "ok={ok} shed={shed}");
        assert_eq!(q.depth(), ok);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(IngestQueue::new(4));
        let t = tenant();
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop().map(|j| tag(&j)))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(job(&t, 3), false).unwrap();
        assert_eq!(popper.join().unwrap(), Some(3));
    }
}
