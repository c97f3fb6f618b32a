//! Reusable barriers in two flavours: polling and blocking.
//!
//! Section 4 of the paper attributes the `rgbcmy` speedups at high core
//! counts to OmpSs's **polling task barrier** being cheaper than the
//! Pthreads **blocking thread barrier** when iterations are short
//! (< 20 ms). This module provides both flavours behind one type so that the
//! barrier-ablation experiment can swap them while keeping everything else
//! identical.
//!
//! The barrier is a classic sense-reversing centralised barrier: the last
//! thread to arrive flips the generation; the others either spin on the
//! generation word ([`BarrierKind::Polling`]) or block on a condition
//! variable ([`BarrierKind::Blocking`]).
//!
//! `threadkit` has a blocking and a spinning barrier of its own, and they
//! stay there: those are what the Pthreads variants' thread teams meet at —
//! the baseline side of the Section 4 claim — and the baseline shares no code
//! with the runtime it is compared against, so a change to one side cannot
//! move both. This type is the runtime side's instrument: one barrier whose
//! only difference between the two rows of `barrier_ablation` is how a
//! follower waits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Which waiting strategy a [`TaskBarrier`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierKind {
    /// Arriving threads spin (with `yield`) until the generation flips.
    /// Lowest latency, keeps cores busy — the OmpSs behaviour.
    #[default]
    Polling,
    /// Arriving threads block on a condition variable. Higher wake-up
    /// latency, lower CPU waste — the Pthreads (`pthread_barrier_t`)
    /// behaviour.
    Blocking,
}

/// Outcome of a barrier wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierWait {
    /// This thread was the last to arrive (the "serial thread").
    Leader,
    /// This thread waited for the leader.
    Follower,
}

struct BarrierState {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    participants: usize,
    kind: BarrierKind,
    lock: Mutex<()>,
    cv: Condvar,
    /// Number of completed barrier episodes (for statistics / tests).
    episodes: AtomicUsize,
}

/// A reusable barrier for a fixed number of participants.
#[derive(Clone)]
pub struct TaskBarrier {
    state: Arc<BarrierState>,
}

impl TaskBarrier {
    /// Create a barrier for `participants` threads using the given waiting
    /// strategy.
    ///
    /// # Panics
    /// Panics if `participants == 0`.
    pub fn new(participants: usize, kind: BarrierKind) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        TaskBarrier {
            state: Arc::new(BarrierState {
                arrived: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
                participants,
                kind,
                lock: Mutex::new(()),
                cv: Condvar::new(),
                episodes: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.state.participants
    }

    /// Waiting strategy.
    pub fn kind(&self) -> BarrierKind {
        self.state.kind
    }

    /// Number of completed barrier episodes so far.
    pub fn episodes(&self) -> usize {
        self.state.episodes.load(Ordering::SeqCst)
    }

    /// Wait until all participants have arrived.
    pub fn wait(&self) -> BarrierWait {
        let s = &self.state;
        let my_gen = s.generation.load(Ordering::SeqCst);
        let arrived = s.arrived.fetch_add(1, Ordering::SeqCst) + 1;
        if arrived == s.participants {
            // Leader: reset the arrival count and advance the generation.
            s.arrived.store(0, Ordering::SeqCst);
            s.episodes.fetch_add(1, Ordering::SeqCst);
            s.generation.fetch_add(1, Ordering::SeqCst);
            if s.kind == BarrierKind::Blocking {
                let _g = s.lock.lock();
                s.cv.notify_all();
            }
            return BarrierWait::Leader;
        }
        match s.kind {
            BarrierKind::Polling => {
                let mut spins = 0u32;
                while s.generation.load(Ordering::SeqCst) == my_gen {
                    if spins < 128 {
                        std::hint::spin_loop();
                        spins += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
            BarrierKind::Blocking => {
                let mut guard = s.lock.lock();
                while s.generation.load(Ordering::SeqCst) == my_gen {
                    // Timed wait so a missed notify can never wedge the pool.
                    s.cv.wait_for(&mut guard, std::time::Duration::from_millis(1));
                }
            }
        }
        BarrierWait::Follower
    }
}

impl std::fmt::Debug for TaskBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskBarrier")
            .field("participants", &self.state.participants)
            .field("kind", &self.state.kind)
            .field("episodes", &self.episodes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = TaskBarrier::new(0, BarrierKind::Polling);
    }

    #[test]
    fn single_participant_is_always_leader() {
        let b = TaskBarrier::new(1, BarrierKind::Polling);
        for _ in 0..10 {
            assert_eq!(b.wait(), BarrierWait::Leader);
        }
        assert_eq!(b.episodes(), 10);
    }

    fn run_barrier_phases(kind: BarrierKind, threads: usize, phases: usize) {
        let barrier = TaskBarrier::new(threads, kind);
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = barrier.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    for phase in 0..phases {
                        c.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // After the barrier, every thread must observe all
                        // increments of this phase.
                        let seen = c.load(Ordering::SeqCst);
                        assert!(
                            seen >= ((phase + 1) * threads) as u64,
                            "phase {phase}: saw {seen}"
                        );
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(barrier.episodes(), phases * 2);
        assert_eq!(counter.load(Ordering::SeqCst), (threads * phases) as u64);
    }

    #[test]
    fn polling_barrier_synchronises_phases() {
        run_barrier_phases(BarrierKind::Polling, 4, 25);
    }

    #[test]
    fn blocking_barrier_synchronises_phases() {
        run_barrier_phases(BarrierKind::Blocking, 4, 25);
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        let threads = 3;
        let barrier = TaskBarrier::new(threads, BarrierKind::Polling);
        let leaders = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let b = barrier.clone();
                let l = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        if b.wait() == BarrierWait::Leader {
                            l.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn debug_format_mentions_kind() {
        let b = TaskBarrier::new(2, BarrierKind::Blocking);
        assert!(format!("{b:?}").contains("Blocking"));
        assert_eq!(b.participants(), 2);
        assert_eq!(b.kind(), BarrierKind::Blocking);
    }
}
