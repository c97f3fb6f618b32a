//! Concurrent-spawn stress for the sharded dependence tracker.
//!
//! Many OS threads spawn into one runtime at once, over overlapping
//! allocations, so registrations, completions and retirements genuinely race
//! on the tracker shards. The invariants checked:
//!
//! * **no lost edges** — every per-thread `inout` chain counts exactly its
//!   own tasks (a lost edge lets two chain tasks race on the same cell and
//!   lose an increment), and the shared `concurrent` accumulators add up to
//!   exactly the number of contributions;
//! * **no double-ready** — every task body runs exactly once
//!   (`tasks_executed == tasks_spawned`, the bodies' own counter agrees, and
//!   a re-executed body would panic in the runtime and be reported);
//! * **clean drain** — after the final `taskwait` the tracker maps are
//!   empty in every shard (the completion retire path plus GC reclaimed all
//!   history, including the `by_alloc` overlap index);
//! * **no deadlock between multi-shard spans** — registrations naming the
//!   same shards in opposite clause order, racing a template replay over the
//!   same cells, all terminate (`opposite_order_spans_and_concurrent_replay`).
//!
//! CI runs this under `cargo test --release` with both default test
//! threading and `RUST_TEST_THREADS=1`, so the contention is real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ompss::{Data, FaultPlan, Runtime, RuntimeConfig};

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
/// every invariant. Returns the runtime stats for extra assertions.
fn run_stress(config: RuntimeConfig) -> ompss::RuntimeStats {
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
    assert_eq!(stats.tasks_panicked, 0, "no body panicked (double execution panics)");
    assert!(rt.take_panics().is_empty());

    // No lost edges: each chain counted its own tasks, the shared
    // accumulators counted every contribution.
    for chain in &chains {
        assert_eq!(rt.fetch(chain), per_thread as u64, "per-spawner chain");
    }
    let shared_sum: u64 = shared.iter().map(|s| rt.fetch(s)).sum();
    assert_eq!(shared_sum, total, "shared concurrent accumulators");

    // Clean drain: the retire path plus the quiescent-taskwait GC leave the
    // tracker empty — entries *and* the by_alloc overlap index.
    rt.taskwait();
    let diag = rt.tracker_diagnostics();
    assert_eq!(diag.total_regions(), 0, "tracked regions leak after drain");
    assert_eq!(diag.total_allocs(), 0, "by_alloc leaks after drain");

    // The tracker was exercised: every gate acquisition counted a hit on
    // its shard.
    let hits: u64 = stats.tracker_shard_hits.iter().sum();
    assert!(hits >= total, "every registration takes at least one shard gate");

    rt.shutdown();
    stats
}

#[test]
fn concurrent_spawn_stress_sharded() {
    let stats = run_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(8),
    );
    assert_eq!(stats.tracker_shards, 8);
    // Handles are allocated round-robin across shards, so several shards
    // must have been hit.
    let active = stats.tracker_shard_hits.iter().filter(|&&h| h > 0).count();
    assert!(active > 1, "sharded run concentrated on one shard: {:?}", stats.tracker_shard_hits);
}

#[test]
fn concurrent_spawn_stress_single_shard() {
    // The historical single-lock configuration must survive the same storm
    // (it is the equivalence reference) — only its throughput differs.
    let stats = run_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(1),
    );
    assert_eq!(stats.tracker_shards, 1);
    assert_eq!(stats.tracker_shard_hits.len(), 1);
}

/// Regression test for the retire path of the `by_alloc` overlap index:
/// short-lived allocations (versioned handles mint a fresh allocation id per
/// renamed version) must leave *both* tracker maps once their tasks retire —
/// before this retire path existed, history (entries **and** stale
/// `by_alloc` region ids) survived until the next 512-spawn GC, i.e.
/// forever for programs spawning less than that.
#[test]
fn retired_allocations_leave_by_alloc() {
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracker_shards(4));
    // Far fewer than the periodic-GC threshold, so only the retire path and
    // the explicit / quiescent GC can clean up.
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
    rt.barrier();
    // Everything completed and retired; the quiescent barrier ran a GC.
    let diag = rt.tracker_diagnostics();
    assert_eq!(
        (diag.total_regions(), diag.total_allocs()),
        (0, 0),
        "fully-retired allocations must leave entries and by_alloc: {diag:?}"
    );
    // The explicit entry point is idempotent on an empty tracker.
    rt.tracker_gc();
    assert_eq!(rt.tracker_diagnostics().total_allocs(), 0);
    rt.shutdown();
}

/// Deferred-retirement stress: 8 spawner threads hammer one partition with
/// chunk updates while also inserting whole-partition readers, whose
/// registrations walk every chunk entry and add an edge per live writer —
/// long gate holds, during which the workers keep completing chunk tasks on
/// the very same shard. Those completions cannot retire in place; they go
/// through the shard's retire inbox. Nothing may be lost: every increment
/// lands, every reader sees a consistent total order per chunk, and after
/// the drain the tracker holds no history, every gate is free and every
/// node is back in the slab (or freed) — one missed tombstone would leave a
/// pinned node behind.
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
    assert_eq!(torn_reads.load(Ordering::Relaxed), 0, "a reader overlapped a writer");
    assert!(rt.take_panics().is_empty());

    // Post-drain facts, in the order a leak would surface: the auditor
    // (ledger, gates, residue, slab, tickets), then the raw diagnostics.
    rt.audit().expect("audit after the deferred-retire storm");
    let diag = rt.tracker_diagnostics();
    assert_eq!(diag.regions_per_shard.iter().sum::<usize>(), 0, "{diag:?}");
    assert_eq!(diag.allocs_per_shard.iter().sum::<usize>(), 0, "{diag:?}");
    assert_eq!(rt.task_slab_diagnostics().outstanding, 0, "a node stayed pinned");

    let writes = total - (SPAWNERS * (per_thread / 16)) as u64;
    let data = rt.into_vec(part);
    assert_eq!(data.iter().sum::<u64>(), writes * CHUNK_LEN as u64, "a chunk update was lost");
    rt.shutdown();
}

#[test]
fn deferred_retire_stress_one_shard() {
    // One shard: every registration and every completion meet on one gate.
    run_deferred_retire_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(1),
    );
}

#[test]
fn deferred_retire_stress_sharded_and_forced_locked() {
    run_deferred_retire_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(8),
    );
    // The reference configuration (no polite try) defers and drains the same way.
    run_deferred_retire_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(2)
            .with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1)),
    );
}

/// Multi-shard spans racing in opposite declaration order. Every spawner
/// registers `inout` tasks over two or three neighbouring cells — even
/// spawners name them ascending, odd spawners descending — while one more
/// thread keeps replaying a captured template over the same cells. All of
/// them take several shard gates per registration, through the gates alone:
/// it is the canonical (ascending shard id) acquisition order, not the order
/// the clauses were declared in, that keeps them from deadlocking. The run
/// must terminate, lose no edge (each cell counts exactly the tasks that
/// named it), drain clean and pass the audit.
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
                    let mut handles: Vec<Data<u64>> =
                        (0..span).map(|d| cells[(base + d) % CELLS].clone()).collect();
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
    assert_eq!(got, expected, "an edge between two spans on one cell was lost");

    rt.taskwait();
    rt.audit().expect("audit after the opposite-order span storm");
    let diag = rt.tracker_diagnostics();
    assert_eq!((diag.total_regions(), diag.total_allocs()), (0, 0), "{diag:?}");
    assert_eq!(rt.task_slab_diagnostics().outstanding, 0, "a node stayed pinned");
    drop(template);
    rt.shutdown();
}

#[test]
fn opposite_order_spans_and_concurrent_replay() {
    // More cells than shards, so distinct cells share gates too.
    run_opposite_order_span_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(4),
    );
    // The reference configuration waits on every gate instead of trying it.
    run_opposite_order_span_stress(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_shards(3)
            .with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1)),
    );
}
