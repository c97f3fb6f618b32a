//! Thread barriers: blocking (pthread-style) and spinning.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A `pthread_barrier_t`-style blocking barrier: arriving threads sleep on a
/// condition variable until the last participant arrives.
#[derive(Clone)]
pub struct BlockingBarrier {
    state: Arc<BlockingState>,
}

struct BlockingState {
    participants: usize,
    lock: Mutex<BarrierPhase>,
    cv: Condvar,
}

struct BarrierPhase {
    arrived: usize,
    generation: u64,
}

/// Result of a barrier wait: `true` for exactly one participant per episode
/// (the "serial thread", like `PTHREAD_BARRIER_SERIAL_THREAD`).
pub type IsLeader = bool;

impl BlockingBarrier {
    /// Create a barrier for `participants` threads.
    ///
    /// # Panics
    /// Panics if `participants == 0`.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        BlockingBarrier {
            state: Arc::new(BlockingState {
                participants,
                lock: Mutex::new(BarrierPhase {
                    arrived: 0,
                    generation: 0,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.state.participants
    }

    /// Block until all participants have arrived.
    pub fn wait(&self) -> IsLeader {
        let s = &self.state;
        let mut phase = s.lock.lock();
        phase.arrived += 1;
        if phase.arrived == s.participants {
            phase.arrived = 0;
            phase.generation += 1;
            s.cv.notify_all();
            true
        } else {
            let my_gen = phase.generation;
            while phase.generation == my_gen {
                s.cv.wait(&mut phase);
            }
            false
        }
    }
}

impl std::fmt::Debug for BlockingBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockingBarrier({} participants)", self.participants())
    }
}

/// A centralised sense-reversing spin barrier: arriving threads busy-wait
/// (with `yield`) on a generation counter.
#[derive(Clone)]
pub struct SpinBarrier {
    state: Arc<SpinState>,
}

struct SpinState {
    participants: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Create a spin barrier for `participants` threads.
    ///
    /// # Panics
    /// Panics if `participants == 0`.
    pub fn new(participants: usize) -> Self {
        assert!(participants > 0, "barrier needs at least one participant");
        SpinBarrier {
            state: Arc::new(SpinState {
                participants,
                arrived: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
            }),
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.state.participants
    }

    /// Spin until all participants have arrived.
    pub fn wait(&self) -> IsLeader {
        let s = &self.state;
        let my_gen = s.generation.load(Ordering::SeqCst);
        if s.arrived.fetch_add(1, Ordering::SeqCst) + 1 == s.participants {
            s.arrived.store(0, Ordering::SeqCst);
            s.generation.fetch_add(1, Ordering::SeqCst);
            true
        } else {
            let mut spins = 0u32;
            while s.generation.load(Ordering::SeqCst) == my_gen {
                if spins < 128 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            false
        }
    }
}

impl std::fmt::Debug for SpinBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpinBarrier({} participants)", self.participants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn blocking_zero_participants_panics() {
        let _ = BlockingBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn spin_zero_participants_panics() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    fn single_thread_is_leader() {
        assert!(BlockingBarrier::new(1).wait());
        assert!(SpinBarrier::new(1).wait());
    }

    fn exercise_phases(wait: impl Fn() -> bool + Send + Sync, threads: usize, phases: usize) {
        let counter = Arc::new(AtomicU64::new(0));
        let wait = &wait;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let counter = counter.clone();
                scope.spawn(move || {
                    for phase in 0..phases {
                        counter.fetch_add(1, Ordering::SeqCst);
                        wait();
                        assert!(counter.load(Ordering::SeqCst) >= ((phase + 1) * threads) as u64);
                        wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), (threads * phases) as u64);
    }

    #[test]
    fn blocking_barrier_phases() {
        let b = BlockingBarrier::new(4);
        exercise_phases(|| b.wait(), 4, 20);
    }

    #[test]
    fn spin_barrier_phases() {
        let b = SpinBarrier::new(4);
        exercise_phases(|| b.wait(), 4, 20);
    }

    #[test]
    fn exactly_one_leader_per_episode_blocking() {
        let b = BlockingBarrier::new(3);
        let leaders = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let b = b.clone();
                let leaders = leaders.clone();
                scope.spawn(move || {
                    for _ in 0..30 {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn debug_formats() {
        assert!(format!("{:?}", BlockingBarrier::new(2)).contains("2 participants"));
        assert!(format!("{:?}", SpinBarrier::new(3)).contains("3 participants"));
    }
}
