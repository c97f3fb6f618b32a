//! Stress test for the task-node slab recycler.
//!
//! Several OS threads spawn into one runtime while its workers complete,
//! retire and *recycle* nodes concurrently, so acquisitions genuinely race
//! with resets. The invariants checked:
//!
//! * **No stale-generation reuse** — every body observes, mid-execution,
//!   exactly the `TaskId` its spawn returned (a node re-initialised while
//!   its task was still running, or handed to two tasks at once, would show
//!   a duplicate or unknown id), and every spawned id is observed exactly
//!   once.
//! * **Values** — per-thread `inout` chains count exactly their own tasks;
//!   a lost wakeup or double execution would change the count.
//! * **No node leak** — after a drained `taskwait`, [`Runtime::audit`]
//!   finds zero outstanding nodes (every node is either parked in the free
//!   list or deallocated) and empty tracker maps, and the recycler was
//!   actually exercised.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ompss::{Runtime, RuntimeConfig, TaskId};

const SPAWNERS: usize = 6;

fn tasks_per_spawner() -> usize {
    if cfg!(debug_assertions) {
        400
    } else {
        2000
    }
}

fn run_churn(config: RuntimeConfig) -> (Runtime, u64) {
    let per_thread = tasks_per_spawner();
    let total = (SPAWNERS * per_thread) as u64;
    let rt = Runtime::new(config);
    let observed: Arc<Mutex<Vec<TaskId>>> = Arc::new(Mutex::new(Vec::new()));
    let bodies = Arc::new(AtomicU64::new(0));

    let spawned_ids: Vec<Vec<TaskId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SPAWNERS)
            .map(|_t| {
                let rt = &rt;
                let observed = observed.clone();
                let bodies = bodies.clone();
                scope.spawn(move || {
                    let chain = rt.data(0u64);
                    let side = rt.data(1u64);
                    let mut ids = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let c = chain.clone();
                        let observed = observed.clone();
                        let bodies = bodies.clone();
                        // Every 16th task declares a second access so both
                        // inline shapes (1 and 2 accesses) churn through the
                        // recycled nodes; every 64th spills (3 accesses).
                        let id = if i % 64 == 63 {
                            let s = side.clone();
                            let s2 = side.clone();
                            let extra = rt.data(0u64);
                            rt.task().inout(&c).input(&s).output(&extra).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                let step = *ctx.read(&s2);
                                *ctx.write(&c) += step;
                            })
                        } else if i % 16 == 15 {
                            let s = side.clone();
                            let s2 = side.clone();
                            rt.task().inout(&c).input(&s).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                let step = *ctx.read(&s2);
                                *ctx.write(&c) += step;
                            })
                        } else {
                            rt.task().inout(&c).spawn(move |ctx| {
                                bodies.fetch_add(1, Ordering::Relaxed);
                                observed.lock().unwrap().push(ctx.task_id());
                                *ctx.write(&c) += 1;
                            })
                        };
                        ids.push(id);
                        // Periodic quiescence so nodes cycle through the
                        // free list many times instead of only at the end
                        // (and so the first-fill flood stays well below the
                        // task total — the recycle-rate assert depends on
                        // recycling dominating).
                        if i % 100 == 99 {
                            rt.taskwait_on(&chain);
                        }
                    }
                    assert_eq!(rt.fetch(&chain), per_thread as u64, "chain lost a task");
                    ids
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    rt.taskwait();
    assert_eq!(bodies.load(Ordering::Relaxed), total, "every body ran once");

    // Stale-generation / double-hand-out detection: the ids observed from
    // inside running bodies are exactly the ids spawn returned — each one
    // exactly once.
    let observed = observed.lock().unwrap();
    assert_eq!(observed.len() as u64, total);
    let unique: HashSet<TaskId> = observed.iter().copied().collect();
    assert_eq!(unique.len() as u64, total, "a task id was observed twice");
    let spawned: HashSet<TaskId> = spawned_ids.iter().flatten().copied().collect();
    assert_eq!(
        unique, spawned,
        "bodies observed ids that were never spawned (stale node reuse)"
    );
    (rt, total)
}

#[test]
fn recycler_churn_keeps_ids_unique_and_leaks_no_node() {
    let (rt, total) = run_churn(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(8),
    );
    // The fetch tasks of the per-thread asserts also went through the slab;
    // only the drained end state has to balance: no node outstanding, no
    // tracker residue (the audit's `SlabLeak` and `TrackerResidue` checks).
    let report = rt.audit().expect("nodes leaked after a drained taskwait");
    assert!(report.quiescent);
    let stats = rt.stats();
    // Fresh allocations happen only while the first flood fills the slab
    // (bounded by the peak in-flight count, which the periodic per-chain
    // quiescence keeps far below the task total); everything after runs
    // recycled. A third is a loose floor that holds even when a loaded
    // 1-core host lets every spawner run its full inter-quiescence window
    // ahead of the workers.
    assert!(
        stats.task_nodes_recycled >= total / 3,
        "the churn barely exercised the recycler: {stats:?}"
    );
    assert!(stats.task_nodes_allocated + stats.task_nodes_recycled >= total);
    assert!(stats.access_inline_spills > 0, "3-access tasks spilled");
    assert!(stats.access_inline_hits > stats.access_inline_spills);
    rt.shutdown();
}

/// A thread waiting in `taskwait on` (or in `fetch`, which waits the same
/// way) holds the nodes it waits for. Whoever lets go of a node last parks
/// it in the slab, so after the drain every node ever allocated is parked:
/// none went back to the heap.
#[test]
fn waited_for_nodes_go_back_to_the_slab() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(1));
    let x = rt.data(0u64);
    for round in 1..=32 {
        let h = x.clone();
        rt.task().inout(&h).spawn(move |ctx| *ctx.write(&h) += 1);
        rt.taskwait_on(&x);
        assert_eq!(rt.fetch(&x), round);
    }
    rt.taskwait();
    assert!(rt.audit().expect("no node outstanding").quiescent);
    let stats = rt.stats();
    assert_eq!(
        stats.task_nodes_free as u64, stats.task_nodes_allocated,
        "a waited-for node was freed: {stats:?}"
    );
    rt.shutdown();
}
