//! Persistent SPMD thread teams.
//!
//! Hand-written Pthreads benchmarks typically create their threads once and
//! then run every parallel phase SPMD-style: each thread executes the same
//! function, works on its static partition, and meets the others at a
//! barrier. [`ThreadTeam`] reproduces that structure with a persistent pool.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::barrier::{BlockingBarrier, SpinBarrier};
use crate::partition::block_range;

/// Which barrier the team members use for [`TeamCtx::barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TeamBarrierKind {
    /// Blocking, condition-variable barrier (`pthread_barrier_t`).
    #[default]
    Blocking,
    /// Busy-waiting barrier.
    Spinning,
}

enum TeamBarrier {
    Blocking(BlockingBarrier),
    Spinning(SpinBarrier),
}

impl TeamBarrier {
    fn wait(&self) {
        match self {
            TeamBarrier::Blocking(b) => {
                b.wait();
            }
            TeamBarrier::Spinning(b) => {
                b.wait();
            }
        }
    }
}

/// Per-thread context handed to the SPMD closure.
pub struct TeamCtx<'a> {
    /// This thread's index in `0..num_threads`.
    pub thread_id: usize,
    /// Total number of threads in the team.
    pub num_threads: usize,
    barrier: &'a TeamBarrier,
}

impl TeamCtx<'_> {
    /// Wait for every team member to reach this point.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// This thread's contiguous share of `0..total` under static block
    /// partitioning.
    pub fn block_range(&self, total: usize) -> Range<usize> {
        block_range(total, self.num_threads, self.thread_id)
    }
}

type Job = Arc<dyn Fn(&TeamCtx<'_>) + Send + Sync>;

struct TeamShared {
    num_threads: usize,
    barrier: TeamBarrier,
    /// Broadcast slot: (generation, job). Workers run the job once per
    /// generation bump.
    job: Mutex<(u64, Option<Job>)>,
    job_cv: Condvar,
    /// Count of workers that finished the current generation.
    done_count: AtomicU64,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    stop: AtomicBool,
}

/// A persistent team of worker threads executing SPMD phases.
///
/// The team is created once (like `pthread_create` at program start); every
/// call to [`ThreadTeam::run`] broadcasts a closure that all members execute
/// with their own [`TeamCtx`], and returns when all members have finished.
pub struct ThreadTeam {
    shared: Arc<TeamShared>,
    threads: Vec<JoinHandle<()>>,
    generation: u64,
}

impl ThreadTeam {
    /// Create a team of `num_threads` workers with the default (blocking)
    /// barrier.
    pub fn new(num_threads: usize) -> Self {
        Self::with_barrier(num_threads, TeamBarrierKind::Blocking)
    }

    /// Create a team choosing the barrier flavour.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    pub fn with_barrier(num_threads: usize, kind: TeamBarrierKind) -> Self {
        assert!(num_threads > 0, "team needs at least one thread");
        let barrier = match kind {
            TeamBarrierKind::Blocking => TeamBarrier::Blocking(BlockingBarrier::new(num_threads)),
            TeamBarrierKind::Spinning => TeamBarrier::Spinning(SpinBarrier::new(num_threads)),
        };
        let shared = Arc::new(TeamShared {
            num_threads,
            barrier,
            job: Mutex::new((0, None)),
            job_cv: Condvar::new(),
            done_count: AtomicU64::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let threads = (0..num_threads)
            .map(|tid| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("threadkit-worker-{tid}"))
                    .spawn(move || team_member_loop(shared, tid))
                    .expect("failed to spawn team thread")
            })
            .collect();
        ThreadTeam {
            shared,
            threads,
            generation: 0,
        }
    }

    /// Execute `f` on every team member and wait for all of them to finish.
    pub fn run(&mut self, f: impl Fn(&TeamCtx<'_>) + Send + Sync + 'static) {
        self.generation += 1;
        self.shared.done_count.store(0, Ordering::SeqCst);
        {
            let mut job = self.shared.job.lock();
            *job = (self.generation, Some(Arc::new(f)));
            self.shared.job_cv.notify_all();
        }
        // Wait for all members to report completion.
        let mut guard = self.shared.done_lock.lock();
        while self.shared.done_count.load(Ordering::SeqCst) < self.shared.num_threads as u64 {
            self.shared.done_cv.wait(&mut guard);
        }
    }

    /// Shut the team down (also happens on drop).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        {
            // Under `job`, the mutex a member holds from its `stop` check to
            // `job_cv.wait`: a notify landing in that window is lost and the
            // `join` below never returns.
            let _job = self.shared.job.lock();
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.job_cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for ThreadTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ThreadTeam({} threads)", self.shared.num_threads)
    }
}

fn team_member_loop(shared: Arc<TeamShared>, thread_id: usize) {
    let mut last_gen = 0u64;
    loop {
        let job = {
            let mut slot = shared.job.lock();
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let (generation, job) = &*slot;
                if *generation > last_gen {
                    last_gen = *generation;
                    break job.clone().expect("job set with generation bump");
                }
                shared.job_cv.wait(&mut slot);
            }
        };
        let ctx = TeamCtx {
            thread_id,
            num_threads: shared.num_threads,
            barrier: &shared.barrier,
        };
        job(&ctx);
        let done = shared.done_count.fetch_add(1, Ordering::SeqCst) + 1;
        if done == shared.num_threads as u64 {
            let _g = shared.done_lock.lock();
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ThreadTeam::new(0);
    }

    #[test]
    fn team_runs_closure_on_every_member() {
        let mut team = ThreadTeam::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let seen_ids = Arc::new(Mutex::new(Vec::new()));
        {
            let hits = hits.clone();
            let seen_ids = seen_ids.clone();
            team.run(move |ctx| {
                hits.fetch_add(1, Ordering::SeqCst);
                seen_ids.lock().push(ctx.thread_id);
                assert_eq!(ctx.num_threads, 3);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        let mut ids = seen_ids.lock().clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn team_is_reusable_across_phases() {
        let mut team = ThreadTeam::new(2);
        let sum = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let sum = sum.clone();
            team.run(move |_| {
                sum.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(sum.load(Ordering::SeqCst), 20);
        team.shutdown();
    }

    #[test]
    fn team_barrier_separates_phases() {
        let mut team = ThreadTeam::with_barrier(4, TeamBarrierKind::Spinning);
        let phase1 = Arc::new(AtomicUsize::new(0));
        let ok = Arc::new(AtomicBool::new(true));
        {
            let phase1 = phase1.clone();
            let ok = ok.clone();
            team.run(move |ctx| {
                phase1.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
                if phase1.load(Ordering::SeqCst) != ctx.num_threads {
                    ok.store(false, Ordering::SeqCst);
                }
            });
        }
        assert!(ok.load(Ordering::SeqCst));
    }

    #[test]
    fn block_range_through_ctx_partitions_work() {
        let mut team = ThreadTeam::new(3);
        let data = Arc::new(Mutex::new(vec![0u32; 100]));
        {
            let data = data.clone();
            team.run(move |ctx| {
                let r = ctx.block_range(100);
                let mut d = data.lock();
                for i in r {
                    d[i] += 1;
                }
            });
        }
        assert!(data.lock().iter().all(|&v| v == 1));
    }

    /// A shutdown notify that lands between a member's `stop` check and its
    /// `job_cv.wait` is the only one that member would ever get. The window
    /// is a few instructions wide: only many create → drop rounds hit it, and
    /// a hit is a hang, hence the watchdog.
    #[test]
    fn shutdown_never_loses_a_wakeup() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(ThreadTeam::new(4));
            }
            for _ in 0..2_000 {
                let mut team = ThreadTeam::new(4);
                team.run(|_| {});
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("shutdown lost a wakeup");
    }

    #[test]
    fn debug_format() {
        let team = ThreadTeam::new(2);
        assert!(format!("{team:?}").contains("2 threads"));
    }
}
