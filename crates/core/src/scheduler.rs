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
//!
//! Every ready task — freshly spawned, a replayed root, or woken by a
//! completing predecessor — is queued by the one [`SchedState::push`], the
//! moment it becomes ready. Idle workers poll ([`SchedState::idle_wait`]), as
//! the Nanos++ workers of the paper do: "all used cores are always fully
//! loaded even if there is insufficient work".

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::deque::{Injector, Steal, Stealer, Worker as WorkerDeque};
use parking_lot::Mutex;
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
    injector: Injector<Arc<TaskNode>>,
    prio: Mutex<BinaryHeap<PrioEntry>>,
    stealers: Vec<Stealer<Arc<TaskNode>>>,
    prio_seq: AtomicU64,
    /// Counters for statistics.
    pub(crate) counters: SchedCounters,
}

impl SchedState {
    /// Create scheduler state for `stealers.len()` workers.
    pub(crate) fn new(policy: SchedulerPolicy, stealers: Vec<Stealer<Arc<TaskNode>>>) -> Self {
        SchedState {
            policy,
            injector: Injector::new(),
            prio: Mutex::new(BinaryHeap::new()),
            stealers,
            prio_seq: AtomicU64::new(0),
            counters: SchedCounters::default(),
        }
    }

    // lint: hot-path-begin — every ready task is queued through here; no
    // panicking calls allowed (see `cargo xtask lint`).

    /// Queue a ready task: priority heap first, then by policy the pushing
    /// worker's own deque or the shared injector. `local` is the deque of the
    /// worker doing the push — spawning from inside a task body, or
    /// completing the predecessor that woke `node` — and `None` on any other
    /// thread. `woken` tells the two apart: a spawned task goes to its
    /// spawner's deque under either stealing policy, a woken one only under
    /// [`SchedulerPolicy::LocalityWorkStealing`] (the Section 4 locality
    /// claim is about successors), and only wakeups are counted.
    pub(crate) fn push(
        &self,
        node: Arc<TaskNode>,
        local: Option<&WorkerDeque<Arc<TaskNode>>>,
        woken: bool,
    ) {
        if node.priority.0 != 0 {
            let seq = self.prio_seq.fetch_add(1, Ordering::Relaxed);
            self.prio.lock().push(PrioEntry {
                priority: node.priority.0,
                seq,
                node,
            });
            return;
        }
        let local = match self.policy {
            SchedulerPolicy::Fifo => None,
            SchedulerPolicy::WorkStealing if woken => None,
            SchedulerPolicy::WorkStealing | SchedulerPolicy::LocalityWorkStealing => local,
        };
        if woken {
            let counter = match local {
                Some(_) => &self.counters.local_wakeups,
                None => &self.counters.global_wakeups,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        match local {
            Some(dq) => dq.push(node),
            None => self.injector.push(node),
        }
    }
    // lint: hot-path-end

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
                return Some(entry.node);
            }
        }
        // 2. Own deque.
        if let Some(dq) = local {
            if let Some(node) = dq.pop() {
                self.counters.local_pops.fetch_add(1, Ordering::Relaxed);
                return Some(node);
            }
        }
        // 3. Global queue.
        loop {
            match self.injector.steal() {
                Steal::Success(node) => {
                    self.counters.global_pops.fetch_add(1, Ordering::Relaxed);
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
                                return Some(node);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

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

    fn sched(policy: SchedulerPolicy, workers: usize) -> (SchedState, Vec<WorkerDeque<Arc<TaskNode>>>) {
        let deques: Vec<WorkerDeque<Arc<TaskNode>>> =
            (0..workers).map(|_| WorkerDeque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        (SchedState::new(policy, stealers), deques)
    }

    #[test]
    fn fifo_policy_preserves_order() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, b, c) = (node(0), node(0), node(0));
        s.push(a.clone(), None, false);
        s.push(b.clone(), None, false);
        s.push(c.clone(), None, true);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
        assert_eq!(s.pop(0, None).unwrap().id, c.id);
        assert!(s.pop(0, None).is_none());
    }

    #[test]
    fn priority_tasks_jump_the_queue() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (a, hi, b) = (node(0), node(5), node(0));
        s.push(a.clone(), None, false);
        s.push(hi.clone(), None, false);
        s.push(b.clone(), None, false);
        assert_eq!(s.pop(0, None).unwrap().id, hi.id);
        assert_eq!(s.pop(0, None).unwrap().id, a.id);
        assert_eq!(s.pop(0, None).unwrap().id, b.id);
    }

    #[test]
    fn equal_priority_is_fifo_among_priority_tasks() {
        let (s, _d) = sched(SchedulerPolicy::Fifo, 1);
        let (p1, p2) = (node(3), node(3));
        s.push(p1.clone(), None, false);
        s.push(p2.clone(), None, false);
        assert_eq!(s.pop(0, None).unwrap().id, p1.id);
        assert_eq!(s.pop(0, None).unwrap().id, p2.id);
    }

    #[test]
    fn locality_wakeups_go_to_local_deque() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        s.push(w.clone(), Some(&deques[0]), true);
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
        s.push(w.clone(), Some(&deques[0]), true);
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
        // Worker 1 can grab it from the injector without stealing.
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        // A task worker 0 *spawns* stays on its own deque all the same.
        let spawned = node(0);
        s.push(spawned.clone(), Some(&deques[0]), false);
        assert_eq!(deques[0].pop().unwrap().id, spawned.id);
        assert_eq!(s.counters.global_wakeups.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stealing_from_other_worker() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 2);
        let w = node(0);
        // Task sits in worker 0's deque; worker 1 must steal it.
        s.push(w.clone(), Some(&deques[0]), false);
        let got = s.pop(1, Some(&deques[1])).unwrap();
        assert_eq!(got.id, w.id);
        assert_eq!(s.counters.steals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn helper_without_local_deque_can_still_pop() {
        let (s, deques) = sched(SchedulerPolicy::LocalityWorkStealing, 1);
        let w = node(0);
        s.push(w.clone(), Some(&deques[0]), false);
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
}
