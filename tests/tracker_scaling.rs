//! What a registration costs must scale with what the task *touches*, not
//! with what its allocation holds — and a completion must never wait for a
//! registration.
//!
//! Both properties are checked by **counting**, never by timing:
//!
//! * `RuntimeStats::tracker_entries_scanned` counts the overlap-index spans
//!   registrations examined. A chunk access on an N-chunk partition examines
//!   its neighbours (≤ 2), a `whole()` access exactly the N chunks; a walk
//!   of the allocation's whole region list per access would read N for both.
//! * A worker completing a task while the tracker gate is held — here by
//!   the test thread itself, through the hidden `hold_tracker` hook — must
//!   come back without the gate: the retirement waits in the inbox,
//!   the runtime drains (`in_flight_tasks() == 0`) while the gate is still
//!   held, and the retirement is applied when the gate is released.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ompss::{Runtime, RuntimeConfig};

/// Spin until `done()`; a worker stuck behind a held gate shows up as this
/// deadline, not as a hung test.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn registration_scans_what_the_task_touches() {
    const CHUNKS: usize = 4096;
    const CHUNK_LEN: usize = 6;
    // No periodic GC: whether a finished writer's entry is still indexed
    // must not depend on how far the workers got.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
    );
    let part = rt.partitioned(vec![0u64; CHUNKS * CHUNK_LEN], CHUNK_LEN);
    let mut scanned = rt.stats().tracker_entries_scanned;
    for (i, chunk) in part.chunk_handles().enumerate() {
        rt.task().output(&chunk).spawn(move |ctx| {
            ctx.write_chunk(&chunk).fill(i as u64);
        });
        let now = rt.stats().tracker_entries_scanned;
        assert!(
            now - scanned <= 2,
            "registering chunk {i} examined {} index entries",
            now - scanned
        );
        scanned = now;
    }
    // A whole-partition read behind them overlaps every chunk — and examines
    // exactly those.
    let whole = part.whole();
    let sum = rt.data(0u64);
    {
        let (whole, sum) = (whole.clone(), sum.clone());
        rt.task().input(&whole).inout(&sum).spawn(move |ctx| {
            *ctx.write(&sum) = ctx.read_whole(&whole).iter().sum();
        });
    }
    let after_whole = rt.stats();
    assert_eq!(after_whole.tracker_entries_scanned - scanned, CHUNKS as u64);
    // …and a chunk write behind the whole read examines the chunk, its
    // neighbour and the whole region, still not the allocation.
    let chunk = part.chunk(CHUNKS / 2);
    rt.task().output(&chunk).spawn(move |ctx| {
        ctx.write_chunk(&chunk).fill(0);
    });
    assert!(rt.stats().tracker_entries_scanned - after_whole.tracker_entries_scanned <= 3);
    rt.taskwait();
    let expected: u64 = (0..CHUNKS as u64).map(|i| i * CHUNK_LEN as u64).sum();
    assert_eq!(rt.fetch(&sum), expected);
    drop(whole);
    rt.shutdown();
}

#[test]
fn retire_under_a_held_gate_does_not_block_the_worker() {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
    );
    let x = rt.data(0u64);
    let go = Arc::new(AtomicBool::new(false));
    {
        let (x, go) = (x.clone(), go.clone());
        rt.task().inout(&x).spawn(move |ctx| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            *ctx.write(&x) += 1;
        });
    }
    let hold = rt.hold_tracker();
    go.store(true, Ordering::Release);
    // The worker finishes the task — body, wakeups, retirement, tickets,
    // node hand-back, counters — while this thread still holds the gate.
    wait_until("the worker to finish under a held gate", || {
        rt.in_flight_tasks() == 0
    });
    assert_eq!(
        hold.deferred_retirements(),
        1,
        "the retirement waits in the inbox"
    );
    // `stats` takes no gate, so it can look while the gate is held.
    assert_eq!(
        rt.stats().task_nodes_outstanding,
        1,
        "history still pins the node until the inbox is drained"
    );
    drop(hold);
    // Releasing the gate applied it: the node is back in the slab without
    // any taskwait or GC in between …
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    // … and the next registration meets a tombstone: a predecessor seen,
    // no edge to wait on.
    let before = rt.stats();
    {
        let x = x.clone();
        rt.task()
            .input(&x)
            .spawn(move |ctx| assert_eq!(*ctx.read(&x), 1));
    }
    let after = rt.stats();
    assert_eq!(after.dependences_seen - before.dependences_seen, 1);
    assert_eq!(after.edges_added, before.edges_added);
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    rt.audit()
        .expect("clean audit after the deferred retirement");
    rt.shutdown();
}

#[test]
fn deferred_retirements_survive_a_burst_larger_than_the_inbox() {
    // More completions behind one held gate than the inbox was sized for:
    // it grows, nothing is lost, and everything is applied on release.
    const TASKS: usize = 300;
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
    );
    let cells: Vec<_> = (0..TASKS).map(|_| rt.data(0u64)).collect();
    let go = Arc::new(AtomicBool::new(false));
    // A gatekeeper task every cell task depends on, so nothing completes
    // before the gate is held.
    let keeper = rt.data(0u64);
    {
        let (keeper, go) = (keeper.clone(), go.clone());
        rt.task().output(&keeper).spawn(move |ctx| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            *ctx.write(&keeper) = 7;
        });
    }
    for cell in &cells {
        let (cell, keeper) = (cell.clone(), keeper.clone());
        rt.task().input(&keeper).output(&cell).spawn(move |ctx| {
            *ctx.write(&cell) = *ctx.read(&keeper);
        });
    }
    let hold = rt.hold_tracker();
    go.store(true, Ordering::Release);
    wait_until("every task to finish under a held gate", || {
        rt.in_flight_tasks() == 0
    });
    // One retirement per access: the keeper's one plus two per cell task.
    assert_eq!(hold.deferred_retirements(), 1 + 2 * TASKS);
    drop(hold);
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    rt.taskwait();
    for cell in &cells {
        assert_eq!(rt.fetch(cell), 7);
    }
    rt.taskwait();
    // No regions or allocations left in the tracker, among the rest.
    assert!(rt.audit().expect("clean audit").quiescent);
    rt.shutdown();
}
