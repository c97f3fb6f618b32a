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
//! Independently of the policy, tasks with a non-zero priority go to a global
//! priority heap that every worker checks first (the OmpSs `priority`
//! clause).

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

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

/// What idle workers do while no task is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdlePolicy {
    /// Spin (with `yield_now` backoff). This is what the Nanos++ runtime of
    /// the paper does: "all used cores are always fully loaded even if there
    /// is insufficient work".
    #[default]
    Polling,
    /// Block on a condition variable until work is pushed. Cheaper for the
    /// system, slower to react. No harness selects it (`barrier_ablation`
    /// compares barrier kinds, not idle policies); `tests/runtime_semantics.rs`
    /// pins that a blocking pool drains like a polling one.
    Blocking,
}

/// Scheduler statistics counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct SchedCounters {
    /// Tasks popped from the worker's own deque.
    pub local_pops: AtomicU64,
    /// Tasks obtained from the global injector / queue.
    pub global_pops: AtomicU64,
    /// Tasks stolen from another worker's deque.
    pub steals: AtomicU64,
    /// Wakeups pushed to a local deque (locality hits at scheduling time).
    pub local_wakeups: AtomicU64,
    /// Wakeups pushed to the global queue.
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

/// The shared scheduler state.
pub(crate) struct SchedState {
    policy: SchedulerPolicy,
    idle: IdlePolicy,
    injector: Injector<Arc<TaskNode>>,
    prio: Mutex<BinaryHeap<PrioEntry>>,
    stealers: Vec<Stealer<Arc<TaskNode>>>,
    prio_seq: AtomicU64,
    /// Number of ready-but-not-yet-executing tasks.
    ready_count: AtomicUsize,
    /// Number of workers currently parked in [`SchedState::idle_wait`]
    /// (always zero under [`IdlePolicy::Polling`]). Pushers consult it
    /// *before* touching `sleep_lock`, so the spawn/replay hot path pays no
    /// mutex round-trip while every worker is busy. The store-buffer race
    /// (pusher misses a just-parking sleeper) is closed by `SeqCst` on both
    /// sides: if the pusher reads no sleepers, the parking worker's
    /// ready-count re-check under the lock sees the pushed work and skips
    /// the wait.
    sleepers: AtomicUsize,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    /// Counters for statistics.
    pub(crate) counters: SchedCounters,
}

impl SchedState {
    /// Create scheduler state for `stealers.len()` workers.
    pub(crate) fn new(
        policy: SchedulerPolicy,
        idle: IdlePolicy,
        stealers: Vec<Stealer<Arc<TaskNode>>>,
    ) -> Self {
        SchedState {
            policy,
            idle,
            injector: Injector::new(),
            prio: Mutex::new(BinaryHeap::new()),
            stealers,
            prio_seq: AtomicU64::new(0),
            ready_count: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            counters: SchedCounters::default(),
        }
    }

    /// Number of ready tasks currently queued.
    #[cfg(test)]
    pub(crate) fn ready_tasks(&self) -> usize {
        self.ready_count.load(Ordering::SeqCst)
    }

    fn note_push(&self) {
        self.ready_count.fetch_add(1, Ordering::SeqCst);
        if self.idle == IdlePolicy::Blocking && self.sleepers.load(Ordering::SeqCst) != 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn note_pop(&self) {
        self.ready_count.fetch_sub(1, Ordering::SeqCst);
    }

    fn push_priority(&self, node: Arc<TaskNode>) {
        let seq = self.prio_seq.fetch_add(1, Ordering::Relaxed);
        self.prio.lock().push(PrioEntry {
            priority: node.priority.0,
            seq,
            node,
        });
    }

    /// Queue a freshly spawned (already ready) task. `local` is the deque of
    /// the worker doing the spawning, when spawning from inside a task.
    pub(crate) fn push_spawn(&self, node: Arc<TaskNode>, local: Option<&WorkerDeque<Arc<TaskNode>>>) {
        self.note_push();
        if node.priority.0 != 0 {
            self.push_priority(node);
            return;
        }
        match self.policy {
            SchedulerPolicy::Fifo => self.injector.push(node),
            SchedulerPolicy::WorkStealing | SchedulerPolicy::LocalityWorkStealing => match local {
                Some(dq) => dq.push(node),
                None => self.injector.push(node),
            },
        }
    }

    /// Queue a whole batch of freshly stamped, already-ready tasks (the
    /// roots of a template replay) with batched bookkeeping: one
    /// `ready_count` bump for the whole batch and — under
    /// [`IdlePolicy::Blocking`] — a single `notify_all` after every node is
    /// queued, instead of a lock/notify round trip per task. The buffer is
    /// drained in place so its capacity stays with the caller's reusable
    /// replay scratch. Replays run from non-worker threads, so there is no
    /// local deque: non-priority nodes go to the shared injector.
    pub(crate) fn push_spawn_batch(&self, nodes: &mut Vec<Arc<TaskNode>>) {
        if nodes.is_empty() {
            return;
        }
        self.ready_count.fetch_add(nodes.len(), Ordering::SeqCst);
        for node in nodes.drain(..) {
            if node.priority.0 != 0 {
                self.push_priority(node);
                continue;
            }
            self.injector.push(node);
        }
        if self.idle == IdlePolicy::Blocking && self.sleepers.load(Ordering::SeqCst) != 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_all();
        }
    }

    /// Queue a task that became ready because one of its predecessors
    /// completed. `local` is the deque of the worker that completed the
    /// predecessor.
    pub(crate) fn push_wakeup(
        &self,
        node: Arc<TaskNode>,
        local: Option<&WorkerDeque<Arc<TaskNode>>>,
    ) {
        self.note_push();
        if node.priority.0 != 0 {
            self.push_priority(node);
            return;
        }
        match (self.policy, local) {
            (SchedulerPolicy::LocalityWorkStealing, Some(dq)) => {
                self.counters.local_wakeups.fetch_add(1, Ordering::Relaxed);
                dq.push(node);
            }
            _ => {
                self.counters.global_wakeups.fetch_add(1, Ordering::Relaxed);
                self.injector.push(node);
            }
        }
    }

    /// Try to obtain a ready task for worker `worker_id`. `local` is the
    /// worker's own deque when called from a worker loop; helpers (nested
    /// `taskwait`, the main thread) pass `None`.
    pub(crate) fn pop(
        &self,
        worker_id: usize,
        local: Option<&WorkerDeque<Arc<TaskNode>>>,
    ) -> Option<Arc<TaskNode>> {
        // 1. Priority heap first.
        {
            let mut heap = self.prio.lock();
            if let Some(entry) = heap.pop() {
                drop(heap);
                self.counters.priority_pops.fetch_add(1, Ordering::Relaxed);
                self.note_pop();
                return Some(entry.node);
            }
        }
        // 2. Own deque.
        if let Some(dq) = local {
            if let Some(node) = dq.pop() {
                self.counters.local_pops.fetch_add(1, Ordering::Relaxed);
                self.note_pop();
                return Some(node);
            }
        }
        // 3. Global queue.
        loop {
            match self.injector.steal() {
                Steal::Success(node) => {
                    self.counters.global_pops.fetch_add(1, Ordering::Relaxed);
                    self.note_pop();
                    return Some(node);
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // 4. Steal from another worker, round-robin from the next one on.
        let n = self.stealers.len();
        for offset in 1..=n {
            let victim = (worker_id + offset) % n;
            if victim == worker_id && local.is_some() {
                continue;
            }
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(node) => {
                        self.counters.steals.fetch_add(1, Ordering::Relaxed);
                        self.note_pop();
                        return Some(node);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Called by an idle worker after `pop` returned `None`. Under
    /// [`IdlePolicy::Polling`] this spins briefly; under
    /// [`IdlePolicy::Blocking`] it parks until new work is pushed (or a
    /// short timeout elapses so shutdown is always noticed).
    pub(crate) fn idle_wait(&self) {
        match self.idle {
            IdlePolicy::Polling => {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            IdlePolicy::Blocking => {
                let mut guard = self.sleep_lock.lock();
                // Announce the park *before* re-checking for work (see the
                // `sleepers` field docs); the short timeout bounds any
                // missed wakeup and keeps shutdown responsive.
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                if self.ready_count.load(Ordering::SeqCst) == 0 {
                    self.sleep_cv
                        .wait_for(&mut guard, Duration::from_millis(1));
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Wake every parked worker (used at shutdown).
    pub(crate) fn wake_all(&self) {
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessVec;
    use crate::task::{ChildTracker, TaskPriority};

    fn node(priority: i32) -> Arc<TaskNode> {
        TaskNode::new(
            None,
            TaskPriority(priority),
            AccessVec::new(),
            |_| {},
            ChildTracker::new(),
            &mut false,
        )
    }

    fn sched(policy: SchedulerPolicy, workers: usize) -> (SchedState, Vec<WorkerDeque<Arc<TaskNode>>>) {
        let deques: Vec<WorkerDeque<Arc<TaskNode>>> =
            (0..workers).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        (SchedState::new(policy, IdlePolicy::Polling, stealers), deques)
    }

    #[test]
    fn fifo_policy_preserves_order() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, b, c) = (node(0), node(0), node(0));
        s.push_spawn(a.clone(), None);
        s.push_spawn(b.clone(), None);
        s.push_wakeup(c.clone(), None);
        assert_eq!(s.ready_tasks(), 3);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
        assert_eq!(s.pop(0, None).unwrap().id, c.id);
        assert!(s.pop(0, None).is_none());
        assert_eq!(s.ready_tasks(), 0);
    }

    #[test]
    fn priority_tasks_jump_the_queue() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, hi, b) = (node(0), node(5), node(0));
        s.push_spawn(a.clone(), None);
        s.push_spawn(hi.clone(), None);
        s.push_spawn(b.clone(), None);
        assert_eq!(s.pop(0, None).unwrap().id, hi.id);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
    }

    #[test]
    fn equal_priority_is_fifo_among_priority_tasks() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (p1, p2) = (node(3), node(3));
        s.push_spawn(p1.clone(), None);
        s.push_spawn(p2.clone(), None);
        assert_eq!(s.pop(0, None).unwrap().id, p1.id);
        assert_eq!(s.pop(0, None).unwrap().id, p2.id);
    }

    #[test]
    fn locality_wakeups_go_to_local_deque() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        s.push_wakeup(w.clone(), Some(&deques[0]));
        assert_eq!(s.counters.local_wakeups.load(Ordering::Relaxed), 1);
        // Worker 0 finds it in its own deque.
        let got = s.pop(0, Some(&deques[0])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.local_pops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn plain_work_stealing_wakeups_go_global() {
        let (s, deques) = sched(SchedulerPolicy::WorkStealing, 2);
        let w = node(0);
        s.push_wakeup(w.clone(), Some(&deques[0]));
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
        // Worker 1 can grab it from the injector without stealing.
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
    }

    #[test]
    fn stealing_from_other_worker() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        // Task sits in worker 0's deque; worker 1 must steal it.
        s.push_spawn(w.clone(), Some(&deques[0]));
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helper_without_local_deque_can_still_pop() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 1);
        let w = node(0);
        s.push_spawn(w.clone(), Some(&deques[0]));
        // A helper (None local) steals from worker 0.
        let got = s.pop(0, None).unwrap();
        assert_eq!(got.id, w.id);
    }

    #[test]
    fn idle_wait_polling_returns_quickly() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let start = std::time::Instant::now();
        s.idle_wait();
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn idle_wait_blocking_wakes_on_push() {
        let deques: Vec<WorkerDeque<Arc<TaskNode>>> = vec![WorkerDeque::new_lifo()];
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let s = Arc::new(SchedState::new(
            SchedulerPolicy::Fifo,
            IdlePolicy::Blocking,
            stealers,
        ));
        let s2 = s.clone();
        let handle = std::thread::spawn(move || {
            // Either wakes on notify or on the internal timeout; both fine.
            s2.idle_wait();
        });
        std::thread::sleep(Duration::from_millis(2));
        s.push_spawn(node(0), None);
        s.wake_all();
        handle.join().unwrap();
        assert_eq!(s.ready_tasks(), 1);
    }
}
