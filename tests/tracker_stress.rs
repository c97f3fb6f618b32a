//! Concurrent-spawn stress for the dependence tracker.
//!
//! Many OS threads spawn into one runtime at once, over overlapping
//! allocations, so registrations race each other on the tracker gate and
//! completions race the registrations that meet them. The invariants checked:
//!
//! * **no lost edges** — every per-thread `inout` chain counts exactly its
//!   own tasks (a lost edge lets two chain tasks race on the same cell and
//!   lose an increment), and the shared `concurrent` accumulators add up to
//!   exactly the number of contributions;
//! * **no double-ready** — every task body runs exactly once
//!   (`tasks_executed == tasks_spawned`, the bodies' own counter agrees, and
//!   a re-executed body would panic in the runtime and be reported);
//! * **clean drain** — after the final `taskwait` the tracker maps are
//!   empty (the quiescent GC reclaimed all history,
//!   including the `by_alloc` overlap index);
//! * **no deadlock between multi-allocation spans** — registrations naming
//!   the same cells in opposite clause order, racing a template replay over
//!   the same cells, all terminate
//!   (`opposite_order_spans_and_concurrent_replay`).
//!
//! CI runs this under `cargo test --release` with both default test
//! threading and `RUST_TEST_THREADS=1`, so the contention is real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ompss::{Data, Runtime, RuntimeConfig};

const SPAWNERS: usize = 8;

/// Per-spawner task count: 8 × 1500 = 12k tasks in release mode (the CI
/// configuration); debug builds use a lighter load so plain `cargo test`
/// stays quick.
fn tasks_per_spawner() -> usize {
    if cfg!(debug_assertions) {
        400
    } else {
        1500
    }
}

/// Spawn `SPAWNERS × per_thread` tasks from separate OS threads and check
/// every invariant.
fn run_stress(config: RuntimeConfig) {
    let per_thread = tasks_per_spawner();
    let total = (SPAWNERS * per_thread) as u64;
    let rt = Runtime::new(config);

    // Shared state every spawner touches: commutative accumulators
    // (`concurrent`) and a read-only constant (`input`), so cross-thread
    // registrations overlap on the same allocations.
    let shared: Vec<Data<u64>> = (0..4).map(|_| rt.data(0u64)).collect();
    let boost = rt.data(1u64);
    let bodies_run = Arc::new(AtomicU64::new(0));

    let chains: Vec<Data<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SPAWNERS)
            .map(|t| {
                let rt = &rt;
                let shared = &shared;
                let boost = boost.clone();
                let bodies_run = bodies_run.clone();
                scope.spawn(move || {
                    // The chain cell serialises this spawner's tasks through
                    // real RAW/WAW edges; its final value counts them.
                    let chain = rt.data(0u64);
                    for i in 0..per_thread {
                        let c = chain.clone();
                        let acc = shared[(t + i) % shared.len()].clone();
                        let b = boost.clone();
                        let bodies_run = bodies_run.clone();
                        rt.task()
                            .inout(&c)
                            .concurrent(&acc)
                            .input(&b)
                            .spawn(move |ctx| {
                                bodies_run.fetch_add(1, Ordering::Relaxed);
                                let step = *ctx.read(&b);
                                {
                                    let mut c = ctx.write(&c);
                                    *c = c.wrapping_add(step);
                                }
                                // `concurrent` accesses may run in parallel
                                // with each other; the update itself must be
                                // protected, as the access kind documents.
                                ctx.critical("stress-acc", || {
                                    let mut a = ctx.write(&acc);
                                    *a = a.wrapping_add(step);
                                });
                            });
                    }
                    chain
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    rt.taskwait();

    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, total, "spawn count");
    assert_eq!(stats.tasks_executed, total, "every task ran exactly once");
    assert_eq!(bodies_run.load(Ordering::Relaxed), total, "bodies ran once");
    assert_eq!(
        stats.tasks_panicked, 0,
        "no body panicked (double execution panics)"
    );
    assert!(rt.take_panics().is_empty());

    // No lost edges: each chain counted its own tasks, the shared
    // accumulators counted every contribution.
    for chain in &chains {
        assert_eq!(rt.fetch(chain), per_thread as u64, "per-spawner chain");
    }
    let shared_sum: u64 = shared.iter().map(|s| rt.fetch(s)).sum();
    assert_eq!(shared_sum, total, "shared concurrent accumulators");

    // Clean drain: the quiescent-taskwait GC leaves the
    // tracker empty — entries *and* the by_alloc overlap index (the audit's
    // `TrackerResidue` check).
    rt.taskwait();
    assert!(rt.audit().expect("clean drain after the storm").quiescent);

    // The tracker was exercised: every registration took the gate, at the
    // first try or after a wait.
    assert_eq!(
        stats.tracker_fast_path_hits + stats.tracker_fast_path_fallbacks,
        total,
        "every registration takes the tracker gate"
    );

    rt.shutdown();
}

#[test]
fn concurrent_spawn_stress_single_shard() {
    // Eight spawners serialise on the one tracker gate.
    run_stress(RuntimeConfig::default().with_workers(4));
}

/// Regression test for the sweep of the `by_alloc` overlap index:
/// short-lived allocations (versioned handles mint a fresh allocation id per
/// renamed version) must leave *both* tracker maps once their tasks complete
/// and a quiescent `taskwait` sweeps — history (entries **and** stale
/// `by_alloc` region ids) must not wait for the next 512-spawn GC, i.e.
/// forever for programs spawning less than that.
#[test]
fn retired_allocations_leave_by_alloc() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    // Far fewer than the periodic-GC threshold, so only writer generations
    // and the explicit / quiescent GC can clean up.
    let v = rt.versioned_data(0u64);
    for i in 0..40u64 {
        let d = v.clone();
        rt.task().output(&d).spawn(move |ctx| *ctx.write(&d) = i);
        let d = v.clone();
        rt.task().input(&d).spawn(move |ctx| {
            let _ = *ctx.read(&d);
        });
    }
    let plain = rt.data(0u64);
    for _ in 0..10 {
        let d = plain.clone();
        rt.task().inout(&d).spawn(move |ctx| {
            let mut d = ctx.write(&d);
            *d += 1;
        });
    }
    rt.taskwait();
    // Everything completed and swept: fully-retired allocations must leave
    // entries and by_alloc (the audit's `TrackerResidue` check).
    let report = rt
        .audit()
        .expect("fully-retired allocations leave the tracker");
    assert!(report.quiescent);
    // The explicit entry point is idempotent on an empty tracker.
    rt.tracker_gc();
    assert!(
        rt.audit()
            .expect("still empty after an explicit GC")
            .quiescent
    );
    rt.shutdown();
}

/// Completion-under-registration stress: 8 spawner threads hammer one
/// partition with chunk updates while also inserting whole-partition
/// readers, whose registrations walk every chunk entry and add an edge per
/// live writer — long gate holds, during which the workers keep completing
/// chunk tasks without the gate, so a registration meets predecessors that
/// complete under it. Nothing may be lost: every increment lands, every
/// reader sees a consistent total order per chunk, and after the drain the
/// tracker holds no history, the gate is free and every node is back in the
/// slab (or freed) — a history reference the sweep missed would leave a
/// pinned node behind. (The test names predate completion as the
/// tombstone, when these completions were deferred retirements.)
fn run_deferred_retire_stress(config: RuntimeConfig) {
    const CHUNKS: usize = 96;
    const CHUNK_LEN: usize = 4;
    let per_thread = tasks_per_spawner() / 2;
    let rt = Runtime::new(config);
    let part = rt.partitioned(vec![0u64; CHUNKS * CHUNK_LEN], CHUNK_LEN);
    let bodies_run = Arc::new(AtomicU64::new(0));
    let torn_reads = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..SPAWNERS {
            let rt = &rt;
            let part = &part;
            let bodies_run = bodies_run.clone();
            let torn_reads = torn_reads.clone();
            scope.spawn(move || {
                let whole = part.whole();
                for i in 0..per_thread {
                    let bodies_run = bodies_run.clone();
                    if i % 16 == 15 {
                        // The long registration: overlaps all CHUNKS entries.
                        let whole = whole.clone();
                        let torn_reads = torn_reads.clone();
                        rt.task().input(&whole).spawn(move |ctx| {
                            bodies_run.fetch_add(1, Ordering::Relaxed);
                            let all = ctx.read_whole(&whole);
                            // Chunk tasks bump all elements of a chunk
                            // together; a reader ordered against every
                            // writer never sees a half-updated chunk.
                            if all.chunks(CHUNK_LEN).any(|c| c.iter().any(|&v| v != c[0])) {
                                torn_reads.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    } else {
                        let chunk = part.chunk((t * 31 + i * 7) % CHUNKS);
                        rt.task().inout(&chunk).spawn(move |ctx| {
                            bodies_run.fetch_add(1, Ordering::Relaxed);
                            for v in ctx.write_chunk(&chunk).iter_mut() {
                                *v += 1;
                            }
                        });
                    }
                }
            });
        }
    });
    rt.taskwait();

    let total = (SPAWNERS * per_thread) as u64;
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, total);
    assert_eq!(stats.tasks_executed, total, "every task ran exactly once");
    assert_eq!(bodies_run.load(Ordering::Relaxed), total);
    assert_eq!(
        torn_reads.load(Ordering::Relaxed),
        0,
        "a reader overlapped a writer"
    );
    assert!(rt.take_panics().is_empty());

    // Post-drain facts: the auditor checks the ledger, gates, tracker
    // residue, slab and tickets.
    rt.audit().expect("audit after the completion storm");

    let writes = total - (SPAWNERS * (per_thread / 16)) as u64;
    let data = rt.into_vec(part);
    assert_eq!(
        data.iter().sum::<u64>(),
        writes * CHUNK_LEN as u64,
        "a chunk update was lost"
    );
    rt.shutdown();
}

#[test]
fn deferred_retire_stress_one_shard() {
    // Every registration meets the others on the one gate; completions take
    // none.
    run_deferred_retire_stress(RuntimeConfig::default().with_workers(4));
}

/// Multi-allocation spans racing in opposite declaration order. Every
/// spawner registers `inout` tasks over two or three neighbouring cells —
/// even spawners name them ascending, odd spawners descending — while one
/// more thread keeps replaying a captured template over the same cells. Each
/// registration takes the one tracker gate once, whatever the order its
/// clauses were declared in. The run must terminate, lose no edge (each
/// cell counts exactly the tasks that named it), drain clean and pass the
/// audit.
fn run_opposite_order_span_stress(config: RuntimeConfig) {
    const CELLS: usize = 8;
    const REPLAYS: usize = 40;
    let per_thread = tasks_per_spawner() / 2;
    let rt = Runtime::new(config);
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    let mut expected = [0u64; CELLS];

    // The template: one two-cell span per cell, alternating declaration
    // order. Capturing runs it once; every replay runs it again.
    let bump = |handles: Vec<Data<u64>>| {
        move |ctx: &ompss::TaskContext<'_>| {
            for h in &handles {
                *ctx.write(h) += 1;
            }
        }
    };
    let mut scope = rt.capture();
    for k in 0..CELLS {
        let (a, b) = (cells[k].clone(), cells[(k + 1) % CELLS].clone());
        let (first, second) = if k % 2 == 0 { (a, b) } else { (b, a) };
        scope
            .task()
            .inout(&first)
            .inout(&second)
            .spawn(bump(vec![first.clone(), second.clone()]));
        expected[k] += 1 + REPLAYS as u64;
        expected[(k + 1) % CELLS] += 1 + REPLAYS as u64;
    }
    let template = scope.finish();

    for t in 0..SPAWNERS {
        for i in 0..per_thread {
            let base = t * 3 + i;
            let span = if i % 3 == 2 { 3 } else { 2 };
            for d in 0..span {
                expected[(base + d) % CELLS] += 1;
            }
        }
    }

    std::thread::scope(|scope| {
        for t in 0..SPAWNERS {
            let (rt, cells, bump) = (&rt, &cells, &bump);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let base = t * 3 + i;
                    let span = if i % 3 == 2 { 3 } else { 2 };
                    let mut handles: Vec<Data<u64>> = (0..span)
                        .map(|d| cells[(base + d) % CELLS].clone())
                        .collect();
                    if t % 2 == 1 {
                        handles.reverse();
                    }
                    let mut task = rt.task();
                    for h in &handles {
                        task = task.inout(h);
                    }
                    task.spawn(bump(handles));
                }
            });
        }
        let (rt, template) = (&rt, &template);
        scope.spawn(move || {
            let bindings = ompss::ReplayBindings::new();
            for _ in 0..REPLAYS {
                rt.replay(template, &bindings);
            }
        });
    });
    rt.taskwait();

    let total = (SPAWNERS * per_thread + CELLS * (1 + REPLAYS)) as u64;
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned, total);
    assert_eq!(stats.tasks_executed, total, "every task ran exactly once");
    assert!(rt.take_panics().is_empty());
    let got: Vec<u64> = cells.iter().map(|c| rt.fetch(c)).collect();
    assert_eq!(
        got, expected,
        "an edge between two spans on one cell was lost"
    );

    rt.taskwait();
    rt.audit()
        .expect("audit after the opposite-order span storm");
    drop(template);
    rt.shutdown();
}

#[test]
fn opposite_order_spans_and_concurrent_replay() {
    run_opposite_order_span_stress(RuntimeConfig::default().with_workers(4));
}
