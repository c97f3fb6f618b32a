//! The ingest queue: one slot per tenant — its FIFO of admitted jobs and its
//! state, `Idle`, `Queued` or `Running` — and two lanes of `Queued` tenants,
//! all under one mutex. Dispatchers schedule tenants, not jobs: one pops a
//! tenant (latency lane strictly first) and runs its front job; when the job
//! ends, the same lock re-queues the tenant at the end of its lane if its
//! FIFO is not empty, or marks it `Idle`. So a tenant's jobs run one at a
//! time and in order, no dispatcher waits for a tenant, and within a lane
//! tenants take turns. Admission is checked under the same lock; depth, peak
//! and the running count are plain fields under it, so "drained" has no
//! window.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ompss::{FaultClass, FaultPlan};
use parking_lot::{Condvar, Mutex};

use crate::admission::AdmissionError;
use crate::job::{JobKind, JobTicket};
use crate::tenant::{TenantId, TenantState};

/// An admitted job, parked in its tenant's FIFO until a dispatcher takes it.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub(crate) kind: JobKind,
    pub(crate) ticket: JobTicket,
    /// Absolute deadline, stamped at admission from
    /// [`JobSpec::with_deadline`](crate::JobSpec::with_deadline).
    pub(crate) deadline: Option<Instant>,
}

/// The job a tenant is running, kept in its slot so the watchdog can reach
/// it (deadline cancellation, stall attribution).
#[derive(Clone)]
pub(crate) struct RunningJob {
    pub(crate) ticket: JobTicket,
    pub(crate) deadline: Option<Instant>,
    pub(crate) started: Instant,
}

enum SlotState {
    /// Nothing queued, nothing running.
    Idle,
    /// On its lane, waiting for a dispatcher.
    Queued,
    Running(RunningJob),
}

struct Slot {
    tenant: Arc<TenantState>,
    fifo: VecDeque<QueuedJob>,
    state: SlotState,
}

impl Slot {
    /// Jobs queued or running: what the tenant's budget bounds.
    fn in_flight(&self) -> usize {
        self.fifo.len() + usize::from(matches!(self.state, SlotState::Running(_)))
    }
}

#[derive(Default)]
struct Lanes {
    slots: Vec<Slot>,
    /// `Queued` tenants, indexed by [`Lane`](crate::Lane): latency first.
    lanes: [VecDeque<TenantId>; 2],
    /// Jobs in the FIFOs, and its high-water mark.
    depth: usize,
    peak: usize,
    /// Slots in the `Running` state: one per busy dispatcher.
    running: usize,
    closed: bool,
}

/// One tenant as [`IngestQueue::snapshot`] saw it.
pub(crate) struct TenantView {
    pub(crate) tenant: Arc<TenantState>,
    pub(crate) in_flight: usize,
    pub(crate) running: Option<RunningJob>,
}

/// The queue at one instant, read under one lock.
pub(crate) struct QueueSnapshot {
    pub(crate) depth: usize,
    pub(crate) peak: usize,
    pub(crate) running: usize,
    pub(crate) tenants: Vec<TenantView>,
}

/// The tenant slots and lanes, bounded by `capacity` queued jobs in total;
/// the recorded peak depth can never exceed it — the invariant the overload
/// test asserts.
pub(crate) struct IngestQueue {
    lanes: Mutex<Lanes>,
    /// Dispatchers wait here while no tenant is queued.
    ready: Condvar,
    /// `wait_drained` waits here while a job is queued or running.
    drained: Condvar,
    pub(crate) capacity: usize,
    /// Deterministic fault injection: a `QueueFull` roll makes `push` hand
    /// the job back exactly as if the queue were at capacity, exercising the
    /// shed/retry path without needing a real burst. `None` in production.
    fault: Option<FaultPlan>,
}

impl IngestQueue {
    pub(crate) fn new(capacity: usize, fault: Option<FaultPlan>) -> Self {
        IngestQueue {
            lanes: Mutex::default(),
            ready: Condvar::new(),
            drained: Condvar::new(),
            capacity: capacity.max(1),
            fault,
        }
    }

    /// Give a new tenant an idle slot; `None` once the queue is closed.
    pub(crate) fn register(&self, make: impl FnOnce(TenantId) -> TenantState) -> Option<TenantId> {
        let mut lanes = self.lanes.lock();
        if lanes.closed {
            return None;
        }
        let id = TenantId(lanes.slots.len() as u32);
        lanes.slots.push(Slot {
            tenant: Arc::new(make(id)),
            fifo: VecDeque::new(),
            state: SlotState::Idle,
        });
        Some(id)
    }

    pub(crate) fn tenant(&self, id: TenantId) -> Option<Arc<TenantState>> {
        let lanes = self.lanes.lock();
        lanes
            .slots
            .get(id.0 as usize)
            .map(|slot| Arc::clone(&slot.tenant))
    }

    /// Admit `job` to the FIFO of `id` (a registered tenant), or hand it
    /// back with the reason: the queue is closed, the tenant's budget is
    /// full, the queue is at capacity, or an injected `QueueFull` — checked
    /// in that order. A `QueueFull` carries the depth the queue held when it
    /// refused (below capacity when the refusal was an injected fault).
    pub(crate) fn push(
        &self,
        id: TenantId,
        job: QueuedJob,
    ) -> Result<(), (QueuedJob, AdmissionError)> {
        let mut guard = self.lanes.lock();
        let lanes = &mut *guard;
        let slot = &mut lanes.slots[id.0 as usize];
        let (in_flight, budget) = (slot.in_flight(), slot.tenant.in_flight_budget);
        let (depth, capacity) = (lanes.depth, self.capacity);
        let roll = |plan: &FaultPlan| plan.roll_next(FaultClass::QueueFull);
        let refusal = if lanes.closed {
            Some(AdmissionError::ShuttingDown)
        } else if in_flight >= budget {
            Some(AdmissionError::TenantBudget {
                tenant: id,
                in_flight,
                budget,
            })
        } else if depth >= capacity || self.fault.as_ref().is_some_and(roll) {
            Some(AdmissionError::QueueFull { depth, capacity })
        } else {
            None
        };
        if let Some(error) = refusal {
            return Err((job, error));
        }
        slot.fifo.push_back(job);
        lanes.depth += 1;
        lanes.peak = lanes.peak.max(lanes.depth);
        if matches!(slot.state, SlotState::Idle) {
            slot.state = SlotState::Queued;
            lanes.lanes[slot.tenant.lane as usize].push_back(id);
            drop(guard);
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Hand back the slot of `finished` (the tenant whose job the caller
    /// just ended), then take the next job: the front job of the first
    /// queued tenant, latency lane strictly first. Blocks while no tenant is
    /// queued; returns `None` only once the queue is closed and no tenant is
    /// queued, so every admitted job reaches some dispatcher even during
    /// shutdown.
    ///
    /// Handing back wakes no dispatcher: a tenant it re-queues is counted
    /// against the caller, which takes a tenant right after. Only `push`
    /// turns an idle tenant into a queued one for a waiting dispatcher.
    pub(crate) fn next(&self, finished: Option<TenantId>) -> Option<(Arc<TenantState>, QueuedJob)> {
        let mut guard = self.lanes.lock();
        if let Some(id) = finished {
            let lanes = &mut *guard;
            let slot = &mut lanes.slots[id.0 as usize];
            slot.state = if slot.fifo.is_empty() {
                SlotState::Idle
            } else {
                lanes.lanes[slot.tenant.lane as usize].push_back(id);
                SlotState::Queued
            };
            lanes.running -= 1;
            if lanes.running == 0 && lanes.depth == 0 {
                self.drained.notify_all();
            }
        }
        loop {
            let lanes = &mut *guard;
            if let Some(id) = lanes.lanes.iter_mut().find_map(VecDeque::pop_front) {
                let slot = &mut lanes.slots[id.0 as usize];
                let job = slot.fifo.pop_front().expect("a queued tenant has a job");
                slot.state = SlotState::Running(RunningJob {
                    ticket: job.ticket.clone(),
                    deadline: job.deadline,
                    started: Instant::now(),
                });
                lanes.depth -= 1;
                lanes.running += 1;
                return Some((Arc::clone(&slot.tenant), job));
            }
            if lanes.closed {
                return None;
            }
            self.ready.wait(&mut guard);
        }
    }

    /// Block until no job is queued and none is running.
    pub(crate) fn wait_drained(&self) {
        let mut lanes = self.lanes.lock();
        while lanes.depth + lanes.running > 0 {
            self.drained.wait(&mut lanes);
        }
    }

    pub(crate) fn snapshot(&self) -> QueueSnapshot {
        let lanes = self.lanes.lock();
        let view = |slot: &Slot| TenantView {
            tenant: Arc::clone(&slot.tenant),
            in_flight: slot.in_flight(),
            running: match &slot.state {
                SlotState::Running(job) => Some(job.clone()),
                SlotState::Idle | SlotState::Queued => None,
            },
        };
        QueueSnapshot {
            depth: lanes.depth,
            peak: lanes.peak,
            running: lanes.running,
            tenants: lanes.slots.iter().map(view).collect(),
        }
    }

    /// Stop admitting and wake every waiting dispatcher so they drain the
    /// remaining jobs and exit.
    pub(crate) fn close(&self) {
        self.lanes.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{Lane, TenantSpec};
    use ompss::Runtime;

    /// A job tagged by its replay slot, so tests can tell jobs apart.
    fn job(slot: u32) -> QueuedJob {
        QueuedJob {
            kind: JobKind::Replay { slot, passes: 1 },
            ticket: crate::job::tests::ticket(),
            deadline: None,
        }
    }

    fn tag(job: &QueuedJob) -> u32 {
        match job.kind {
            JobKind::Replay { slot, .. } => slot,
            JobKind::Spawn(_) => unreachable!("test jobs are replays"),
        }
    }

    fn state(id: TenantId, spec: TenantSpec) -> TenantState {
        let runtime = Runtime::new(spec.runtime.clone());
        TenantState::new(id, spec, runtime)
    }

    fn tenant(q: &IngestQueue, spec: TenantSpec) -> TenantId {
        q.register(|id| state(id, spec))
            .expect("an open queue registers")
    }

    /// Take the next job, handing back the tenant of the previous one.
    fn take(q: &IngestQueue, finished: &mut Option<TenantId>) -> (TenantId, u32) {
        let (t, job) = q.next(finished.take()).expect("a job is queued");
        *finished = Some(t.id);
        (t.id, tag(&job))
    }

    #[test]
    fn capacity_bounds_both_lanes_combined() {
        let q = IngestQueue::new(2, None);
        let bulk = tenant(&q, TenantSpec::new("b"));
        let latency = tenant(&q, TenantSpec::new("l").with_lane(Lane::Latency));
        assert!(q.push(bulk, job(0)).is_ok());
        assert!(q.push(latency, job(1)).is_ok());
        let back = q.push(bulk, job(2));
        assert!(
            matches!(
                back,
                Err((
                    _,
                    AdmissionError::QueueFull {
                        depth: 2,
                        capacity: 2
                    }
                ))
            ),
            "refused at the depth it held"
        );
        let s = q.snapshot();
        assert_eq!((s.depth, s.peak), (2, 2));
    }

    #[test]
    fn budget_bounds_queued_plus_running_jobs() {
        let q = IngestQueue::new(8, None);
        let t = tenant(&q, TenantSpec::new("t").with_in_flight_budget(2));
        assert!(q.push(t, job(0)).is_ok());
        assert!(q.push(t, job(1)).is_ok());
        let back = q.push(t, job(2));
        let budget = AdmissionError::TenantBudget {
            tenant: t,
            in_flight: 2,
            budget: 2,
        };
        assert!(matches!(back, Err((_, ref e)) if *e == budget));
        // A running job still counts; once it ends, a job is admitted again.
        let mut finished = None;
        assert_eq!(take(&q, &mut finished), (t, 0));
        assert!(q.push(t, job(3)).is_err());
        assert_eq!(take(&q, &mut finished), (t, 1));
        assert!(q.push(t, job(4)).is_ok());
        assert_eq!(q.snapshot().tenants[0].in_flight, 2);
    }

    #[test]
    fn latency_lane_drains_first() {
        let q = IngestQueue::new(8, None);
        let bulk = tenant(&q, TenantSpec::new("b"));
        let latency = tenant(&q, TenantSpec::new("l").with_lane(Lane::Latency));
        q.push(bulk, job(0)).unwrap();
        q.push(bulk, job(1)).unwrap();
        q.push(latency, job(2)).unwrap();
        q.push(latency, job(3)).unwrap();
        let mut finished = None;
        let order: Vec<u32> = (0..4).map(|_| take(&q, &mut finished).1).collect();
        assert_eq!(order, vec![2, 3, 0, 1]);
        assert_eq!(q.snapshot().running, 1);
        q.close();
        assert!(q.next(finished).is_none(), "nothing is left");
        let s = q.snapshot();
        assert_eq!((s.depth, s.running), (0, 0));
    }

    #[test]
    fn tenants_in_a_lane_take_turns_and_keep_their_order() {
        let q = IngestQueue::new(8, None);
        let a = tenant(&q, TenantSpec::new("a"));
        let b = tenant(&q, TenantSpec::new("b"));
        for slot in [0, 1, 2] {
            q.push(a, job(slot)).unwrap();
        }
        q.push(b, job(10)).unwrap();
        q.push(b, job(11)).unwrap();
        let mut finished = None;
        let order: Vec<(TenantId, u32)> = (0..5).map(|_| take(&q, &mut finished)).collect();
        assert_eq!(order, vec![(a, 0), (b, 10), (a, 1), (b, 11), (a, 2)]);
    }

    #[test]
    fn a_running_tenant_is_not_handed_out_twice() {
        let q = IngestQueue::new(8, None);
        let a = tenant(&q, TenantSpec::new("a"));
        let b = tenant(&q, TenantSpec::new("b"));
        q.push(a, job(0)).unwrap();
        q.push(a, job(1)).unwrap();
        q.push(b, job(10)).unwrap();
        // Two dispatchers: the second skips `a`, which is running.
        let (first, second) = (q.next(None).unwrap(), q.next(None).unwrap());
        assert_eq!((tag(&first.1), tag(&second.1)), (0, 10));
        let s = q.snapshot();
        assert_eq!((s.depth, s.running), (1, 2));
        // `b` ends first: nothing else may run until `a` is handed back.
        q.close();
        assert!(q.next(Some(b)).is_none());
        let (t, next) = q.next(Some(a)).unwrap();
        assert_eq!((t.id, tag(&next)), (a, 1));
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = IngestQueue::new(8, None);
        let t = tenant(&q, TenantSpec::new("t"));
        q.push(t, job(7)).unwrap();
        q.close();
        assert!(matches!(
            q.push(t, job(8)),
            Err((_, AdmissionError::ShuttingDown))
        ));
        assert!(q
            .register(|id| state(id, TenantSpec::new("late")))
            .is_none());
        let (_, popped) = q.next(None).unwrap();
        assert_eq!(tag(&popped), 7);
        assert!(q.next(Some(t)).is_none());
        q.wait_drained();
    }

    #[test]
    fn injected_queue_full_hands_the_job_back() {
        let q = IngestQueue::new(64, Some(FaultPlan::seeded(7).queue_full_one_in(2)));
        let t = tenant(&q, TenantSpec::new("t").with_in_flight_budget(64));
        let (mut ok, mut shed) = (0, 0);
        for i in 0..64 {
            match q.push(t, job(i)) {
                Ok(()) => ok += 1,
                Err((back, AdmissionError::QueueFull { depth, .. })) => {
                    assert_eq!(tag(&back), i, "the refused job comes back");
                    assert_eq!(depth, ok, "with the depth at refusal, not the capacity");
                    shed += 1;
                }
                Err((_, other)) => panic!("unexpected refusal {other}"),
            }
        }
        assert!(ok > 0 && shed > 0, "ok={ok} shed={shed}");
        assert_eq!(q.snapshot().depth, ok);
    }

    #[test]
    fn next_blocks_until_push() {
        let q = Arc::new(IngestQueue::new(4, None));
        let t = tenant(&q, TenantSpec::new("t"));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next(None).map(|(_, j)| tag(&j)))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(t, job(3)).unwrap();
        assert_eq!(popper.join().unwrap(), Some(3));
    }
}
