//! Ready-task scheduling policies.
//!
//! Once the dependence graph marks a task *ready* it is handed to the
//! scheduler. The policy determines **where** ready tasks are queued and
//! therefore which worker picks them up:
//!
//! * [`SchedulerPolicy::Fifo`] — one global FIFO queue (breadth-first).
//! * [`SchedulerPolicy::WorkStealing`] — per-worker deques with stealing;
//!   successor tasks woken by a completing task are pushed to the *global*
//!   queue (no locality preference).
//! * [`SchedulerPolicy::LocalityWorkStealing`] — like `WorkStealing`, but a
//!   successor woken by a completing task is pushed onto the completing
//!   worker's own deque and is typically executed next, back-to-back with its
//!   producer. This is the behaviour the paper credits for the `ray-rot`
//!   speedups ("the runtime scheduler places dependent tasks on the same
//!   core", Section 4) and it is the default.
//!
//! `Fifo`/`WorkStealing` on one side and `LocalityWorkStealing` on the other
//! are the two sides of that Section 4 locality claim, which the
//! `locality_ablation` harness measures.
//!
//! Every worker owns a deque; one more queue is shared. A worker looks for
//! work in its **own deque** first (newest first), then in the **shared
//! queue**, then **steals** the oldest task of another worker's deque,
//! round-robin from its neighbour on. A thread that helps while it waits and
//! is not a worker starts at the shared queue. Tasks with a non-zero priority
//! (the OmpSs `priority` clause) always go to the shared queue and leave it
//! before the unprioritised ones, highest first: priority orders the shared
//! queue, it does not pre-empt what a worker holds in its own deque.
//!
//! The queues are plain mutex-protected `VecDeque`s: the workspace builds
//! without a crate registry, so there is no lock-free deque to depend on.
//! The seam for one is `SchedState::push` / `SchedState::pop` — nothing
//! outside this file sees a queue.
//!
//! Every ready task — freshly spawned, a replayed root, or woken by a
//! completing predecessor — is queued by the one `SchedState::push`, the
//! moment it becomes ready. Idle workers poll (`SchedState::idle_wait`), as
//! the Nanos++ workers of the paper do: "all used cores are always fully
//! loaded even if there is insufficient work".

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use std::sync::Arc;

use crate::stats::CachePadded;
use crate::task::TaskNode;

/// Scheduling policy for ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// Single global FIFO queue.
    Fifo,
    /// Per-worker deques + work stealing, no locality hint for wakeups.
    WorkStealing,
    /// Per-worker deques + work stealing; dependent (woken) tasks are placed
    /// on the waking worker's deque for producer→consumer cache locality.
    #[default]
    LocalityWorkStealing,
}

/// Scheduler statistics counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Tasks popped from the worker's own deque.
    pub local_pops: AtomicU64,
    /// Tasks obtained from the shared queue.
    pub global_pops: AtomicU64,
    /// Tasks stolen from another worker's deque.
    pub steals: AtomicU64,
    /// Wakeups pushed to a local deque (locality hits at scheduling time).
    pub local_wakeups: AtomicU64,
    /// Wakeups pushed to the shared queue.
    pub global_wakeups: AtomicU64,
    /// Tasks scheduled through the priority heap.
    pub priority_pops: AtomicU64,
}

struct PrioEntry {
    priority: i32,
    seq: u64,
    node: Arc<TaskNode>,
}

impl PartialEq for PrioEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for PrioEntry {}
impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher priority first; for equal priorities, earlier submissions
        // first (smaller seq => greater in the max-heap).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A queue of ready tasks: a worker's deque, or the unprioritised part of the
/// shared queue.
type ReadyQueue = VecDeque<Arc<TaskNode>>;

/// Slots a worker's deque starts with, allocated at construction.
const LOCAL_INITIAL_CAP: usize = 64;

/// Slots the shared queue starts with: enough that a queue of a few hundred
/// tasks never regrows it, so `tests/spawn_alloc.rs`, which counts
/// steady-state allocations, does not depend on how long the queue happened
/// to get while the runtime warmed up.
const SHARED_INITIAL_CAP: usize = 512;

/// The shared ready queue: prioritised tasks in a heap, the rest in arrival
/// order behind them.
struct Shared {
    prio: BinaryHeap<PrioEntry>,
    fifo: ReadyQueue,
    /// Submission serial of the next prioritised task (FIFO among equals).
    seq: u64,
}

/// The scheduler state shared by every executor.
pub(crate) struct SchedState {
    policy: SchedulerPolicy,
    /// One deque per worker, each on its own cache-line pair: a worker
    /// pushing and popping its own deque shares no line with its neighbour.
    local: Box<[CachePadded<Mutex<ReadyQueue>>]>,
    shared: Mutex<Shared>,
    /// Counters for statistics.
    pub(crate) counters: SchedCounters,
}

impl SchedState {
    /// Create scheduler state for `workers` workers.
    pub(crate) fn new(policy: SchedulerPolicy, workers: usize) -> Self {
        SchedState {
            policy,
            local: (0..workers)
                .map(|_| CachePadded(Mutex::new(ReadyQueue::with_capacity(LOCAL_INITIAL_CAP))))
                .collect(),
            shared: Mutex::new(Shared {
                prio: BinaryHeap::new(),
                fifo: ReadyQueue::with_capacity(SHARED_INITIAL_CAP),
                seq: 0,
            }),
            counters: SchedCounters::default(),
        }
    }

    // lint: hot-path-begin — every ready task is queued and taken through
    // here; no panicking calls allowed (see `cargo xtask lint`).

    /// Queue a ready task: a prioritised one on the shared queue, any other
    /// by policy on the pushing worker's own deque or the shared queue.
    /// `from` is the worker doing the push — spawning from inside a task
    /// body, or completing the predecessor that woke `node` — and `None` on
    /// any other thread. `woken` tells the two apart: a spawned task goes to
    /// its spawner's deque under either stealing policy, a woken one only
    /// under [`SchedulerPolicy::LocalityWorkStealing`] (the Section 4
    /// locality claim is about successors), and only wakeups are counted.
    pub(crate) fn push(&self, node: Arc<TaskNode>, from: Option<usize>, woken: bool) {
        if node.priority.0 != 0 {
            let mut shared = self.shared.lock();
            let seq = shared.seq;
            shared.seq += 1;
            shared.prio.push(PrioEntry {
                priority: node.priority.0,
                seq,
                node,
            });
            return;
        }
        let own = match self.policy {
            SchedulerPolicy::Fifo => None,
            SchedulerPolicy::WorkStealing if woken => None,
            SchedulerPolicy::WorkStealing | SchedulerPolicy::LocalityWorkStealing => {
                from.and_then(|w| self.local.get(w))
            }
        };
        if woken {
            let counter = match own {
                Some(_) => &self.counters.local_wakeups,
                None => &self.counters.global_wakeups,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        match own {
            Some(deque) => deque.0.lock().push_back(node),
            None => self.shared.lock().fifo.push_back(node),
        }
    }

    /// Try to obtain a ready task for executor `me`: a worker's index, or
    /// `None` for a thread that helps while it waits (the main thread at a
    /// task barrier) and owns no deque.
    pub(crate) fn pop(&self, me: Option<usize>) -> Option<Arc<TaskNode>> {
        // 1. Own deque, newest first.
        if let Some(deque) = me.and_then(|w| self.local.get(w)) {
            if let Some(node) = deque.0.lock().pop_back() {
                self.counters.local_pops.fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
        }
        // 2. The shared queue: prioritised tasks, then arrival order.
        {
            let mut shared = self.shared.lock();
            if let Some(entry) = shared.prio.pop() {
                drop(shared);
                self.counters.priority_pops.fetch_add(1, Ordering::Relaxed);
                return Some(entry.node);
            }
            if let Some(node) = shared.fifo.pop_front() {
                drop(shared);
                self.counters.global_pops.fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
        }
        // 3. Steal the oldest task of another worker, round-robin from the
        //    next one on.
        let n = self.local.len();
        for offset in 1..=n {
            let victim = (me.unwrap_or(0) + offset) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(node) = self.local[victim].0.lock().pop_front() {
                self.counters.steals.fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
        }
        None
    }
    // lint: hot-path-end

    /// Called by an idle worker after `pop` returned `None`: the paper's
    /// polling loop — give the core away for a moment, then look again.
    pub(crate) fn idle_wait(&self) {
        std::hint::spin_loop();
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessVec;
    use std::time::Duration;

    fn node(priority: i32) -> Arc<TaskNode> {
        crate::task::tests::test_node(None, None, priority, AccessVec::new())
    }

    #[test]
    fn fifo_policy_preserves_order() {
        let s = SchedState::new(SchedulerPolicy::Fifo, 1);
        let (a, b, c) = (node(0), node(0), node(0));
        s.push(a.clone(), None, false);
        s.push(b.clone(), None, false);
        s.push(c.clone(), None, true);
        assert_eq!(s.pop(None).unwrap().id, a.id);
        assert_eq!(s.pop(None).unwrap().id, b.id);
        assert_eq!(s.pop(None).unwrap().id, c.id);
        assert!(s.pop(None).is_none());
    }

    #[test]
    fn priority_tasks_jump_the_queue() {
        let s = SchedState::new(SchedulerPolicy::Fifo, 1);
        let (a, hi, b) = (node(0), node(5), node(0));
        s.push(a.clone(), None, false);
        s.push(hi.clone(), None, false);
        s.push(b.clone(), None, false);
        assert_eq!(s.pop(None).unwrap().id, hi.id);
        assert_eq!(s.pop(None).unwrap().id, a.id);
        assert_eq!(s.pop(None).unwrap().id, b.id);
    }

    #[test]
    fn equal_priority_is_fifo_among_priority_tasks() {
        let s = SchedState::new(SchedulerPolicy::Fifo, 1);
        let (p1, p2) = (node(3), node(3));
        s.push(p1.clone(), None, false);
        s.push(p2.clone(), None, false);
        assert_eq!(s.pop(None).unwrap().id, p1.id);
        assert_eq!(s.pop(None).unwrap().id, p2.id);
    }

    #[test]
    fn locality_wakeups_go_to_local_deque() {
        let s = SchedState::new(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        s.push(w.clone(), Some(0), true);
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 1);
        // Worker 0 finds it in its own deque.
        let got = s.pop(Some(0)).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.local_pops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn plain_work_stealing_wakeups_go_global() {
        let s = SchedState::new(SchedulerPolicy::WorkStealing, 2);
        let w = node(0);
        s.push(w.clone(), Some(0), true);
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
        // Worker 1 can grab it from the shared queue without stealing.
        let got = s.pop(Some(1)).unwrap();
        assert_eq!(got.id, w.id);
        // A task worker 0 *spawns* stays on its own deque all the same.
        let spawned = node(0);
        s.push(spawned.clone(), Some(0), false);
        assert_eq!(s.local[0].0.lock().pop_back().unwrap().id, spawned.id);
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stealing_from_other_worker() {
        let s = SchedState::new(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        // Task sits in worker 0's deque; worker 1 must steal it.
        s.push(w.clone(), Some(0), false);
        let got = s.pop(Some(1)).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helper_without_local_deque_can_still_pop() {
        let s = SchedState::new(SchedulerPolicy::LocalityWorkStealing, 1);
        let w = node(0);
        s.push(w.clone(), Some(0), false);
        // A helper (no deque of its own) steals from worker 0.
        let got = s.pop(None).unwrap();
        assert_eq!(got.id, w.id);
    }

    #[test]
    fn own_deque_then_shared_priority_then_fifo_then_steal() {
        let s = SchedState::new(SchedulerPolicy::LocalityWorkStealing, 2);
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (own_old, own_new, hi, plain, theirs) = (node(0), node(0), node(7), node(0), node(0));
        s.push(plain.clone(), None, false);
        s.push(hi.clone(), Some(0), true); // prioritised: shared, uncounted
        s.push(own_old.clone(), Some(0), false);
        s.push(own_new.clone(), Some(0), true);
        s.push(theirs.clone(), Some(1), false);
        assert_eq!(count(&s.counters.local_wakeups), 1);
        assert_eq!(count(&s.counters.global_wakeups), 0);
        // Worker 0: its own deque newest first, ahead even of a priority…
        assert_eq!(s.pop(Some(0)).unwrap().id, own_new.id);
        assert_eq!(s.pop(Some(0)).unwrap().id, own_old.id);
        assert_eq!(count(&s.counters.local_pops), 2);
        // …then the shared queue, priority before arrival order…
        assert_eq!(s.pop(Some(0)).unwrap().id, hi.id);
        assert_eq!(count(&s.counters.priority_pops), 1);
        assert_eq!(s.pop(Some(0)).unwrap().id, plain.id);
        assert_eq!(count(&s.counters.global_pops), 1);
        // …then worker 1's deque.
        assert_eq!(s.pop(Some(0)).unwrap().id, theirs.id);
        assert_eq!(count(&s.counters.steals), 1);
        assert!(s.pop(Some(0)).is_none());

        // A worker never steals from itself: what it finds in its own deque
        // is a local pop, and an empty poll ends after the other deques.
        s.push(own_old.clone(), Some(0), false);
        assert_eq!(s.pop(Some(0)).unwrap().id, own_old.id);
        assert_eq!((count(&s.counters.local_pops), count(&s.counters.steals)), (3, 1));

        // A helper owns no deque: it sees the shared queue before it steals.
        s.push(theirs.clone(), Some(1), false);
        s.push(plain.clone(), None, false);
        assert_eq!(s.pop(None).unwrap().id, plain.id);
        assert_eq!(s.pop(None).unwrap().id, theirs.id);
        assert_eq!((count(&s.counters.global_pops), count(&s.counters.steals)), (2, 2));
        assert!(s.pop(None).is_none());
    }

    #[test]
    fn idle_wait_polling_returns_quickly() {
        let s = SchedState::new(SchedulerPolicy::Fifo, 1);
        let start = std::time::Instant::now();
        s.idle_wait();
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
