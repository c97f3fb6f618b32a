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
//!   the test thread itself, through the hidden `hold_tracker` hook — never
//!   needs the gate: the runtime drains (`in_flight_tasks() == 0`) while the
//!   gate is still held. History keeps the completed node, as a tombstone,
//!   until a writer generation or a GC sweep drops it; how many nodes that
//!   pins is counted too.

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
    // The worker finishes the task — body, wakeups, tickets, node
    // hand-back, counters — while this thread still holds the gate.
    wait_until("the worker to finish under a held gate", || {
        rt.in_flight_tasks() == 0
    });
    // `stats` takes no gate, so it can look while the gate is held.
    assert_eq!(
        rt.stats().task_nodes_outstanding,
        1,
        "history still holds the completed node"
    );
    drop(hold);
    // The next registration meets the completed task: a predecessor seen,
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
    // The quiescent sweep let go of the node: it is back in the slab.
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    rt.audit()
        .expect("clean audit after a completion under a held gate");
    rt.shutdown();
}

#[test]
fn deferred_retirements_survive_a_burst_larger_than_the_inbox() {
    // Hundreds of completions behind one held gate: none waits for it,
    // nothing is lost, and `taskwait` returns every node to the slab. (The
    // name predates completion as the tombstone, when these completions
    // went through a retire inbox.)
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
    drop(hold);
    rt.taskwait();
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    for cell in &cells {
        assert_eq!(rt.fetch(cell), 7);
    }
    rt.taskwait();
    // No regions or allocations left in the tracker, among the rest.
    assert!(rt.audit().expect("clean audit").quiescent);
    rt.shutdown();
}

/// Readers per round of `readers_of_one_value`; a divisor of the GC
/// interval, so a periodic sweep always lands on a round's last spawn.
const READER_ROUND: usize = 64;

/// The nodes a slab builds up before it reuses any: a sixteenth of its
/// default capacity of 4 096.
const WARM_STOCK: u64 = 256;

/// Spawn `8 × DEFAULT_TRACKER_GC_INTERVAL` `input` tasks on one `Data`, in
/// rounds of `READER_ROUND` with a spin until nothing is in flight between
/// rounds (no `taskwait`, so no quiescent sweep), and return the runtime's
/// node-allocation count before any `taskwait` next to the value read.
fn readers_of_one_value(config: RuntimeConfig) -> (Runtime, u64) {
    let tasks = 8 * ompss::runtime::DEFAULT_TRACKER_GC_INTERVAL as usize;
    let rt = Runtime::new(config);
    let x = rt.data(7u64);
    for _ in 0..tasks / READER_ROUND {
        for _ in 0..READER_ROUND {
            let x = x.clone();
            rt.task()
                .input(&x)
                .spawn(move |ctx| assert_eq!(*ctx.read(&x), 7));
        }
        wait_until("a round of readers to finish", || rt.in_flight_tasks() == 0);
    }
    let allocated = rt.stats().task_nodes_allocated;
    assert_eq!(rt.stats().tasks_spawned, tasks as u64);
    (rt, allocated)
}

#[test]
fn completed_readers_stay_pinned_only_until_the_next_sweep() {
    // Readers never start a writer generation, so only a sweep lets go of a
    // completed one. A sweep on spawn k·I (I = the GC interval) drops every
    // completed reader; the at most READER_ROUND still in flight then stay
    // until the next one. So between sweeps at most I + READER_ROUND nodes
    // are out of the slab — in flight, or completed and held by history —
    // and the slab allocates only when its free list is empty or its warm
    // stock is still being built: task_nodes_allocated ≤
    // max(WARM_STOCK, I + READER_ROUND). Each worker's node is in flight, so
    // the worker count adds nothing beyond READER_ROUND.
    let (rt, allocated) = readers_of_one_value(RuntimeConfig::default().with_workers(2));
    let interval = ompss::runtime::DEFAULT_TRACKER_GC_INTERVAL;
    let bound = WARM_STOCK.max(interval + READER_ROUND as u64);
    assert!(
        allocated <= bound,
        "{allocated} nodes allocated for readers of one value, bound {bound}"
    );
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    assert!(rt.audit().expect("clean audit").quiescent);
    rt.shutdown();
}

#[test]
fn without_periodic_gc_completed_readers_wait_for_the_quiescent_taskwait() {
    // With the periodic sweep off, nothing lets go of a completed reader
    // before the quiescent `taskwait`: every reader keeps its node, so the
    // slab never has one to reuse and allocates one per task.
    let (rt, allocated) = readers_of_one_value(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
    );
    let tasks = 8 * ompss::runtime::DEFAULT_TRACKER_GC_INTERVAL;
    assert_eq!(allocated, tasks);
    assert_eq!(rt.stats().task_nodes_outstanding, tasks as usize);
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    assert_eq!(rt.stats().task_nodes_outstanding, 0);
    assert!(rt.audit().expect("clean audit").quiescent);
    rt.shutdown();
}
