//! Integration tests of the OmpSs-style runtime's user-visible semantics:
//! dependence ordering, taskwait variants, renaming rings, critical
//! sections, panic containment, and scheduler policies — exercised through
//! the public API only.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ompss::{RenameRing, Runtime, RuntimeConfig, SchedulerPolicy};

fn runtime(workers: usize) -> Runtime {
    Runtime::new(RuntimeConfig::default().with_workers(workers))
}

#[test]
fn raw_dependences_order_execution() {
    let rt = runtime(4);
    let data = rt.data(vec![0u32; 256]);
    // A chain of 50 inout tasks must execute strictly in order.
    for step in 1..=50u32 {
        let data = data.clone();
        rt.task().inout(&data).spawn(move |ctx| {
            let mut d = ctx.write(&data);
            assert_eq!(d[0], step - 1, "chain executed out of order");
            d[0] = step;
        });
    }
    rt.taskwait();
    assert_eq!(rt.into_inner(data)[0], 50);
}

#[test]
fn independent_tasks_all_run() {
    let rt = runtime(4);
    let counter = Arc::new(AtomicUsize::new(0));
    for _ in 0..500 {
        let c = counter.clone();
        let d = rt.data(0u8);
        rt.task().output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 1;
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    rt.taskwait();
    assert_eq!(counter.load(Ordering::SeqCst), 500);
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 500);
    assert_eq!(stats.tasks_spawned, stats.tasks_executed);
    assert_eq!(rt.in_flight_tasks(), 0);
}

#[test]
fn taskwait_on_waits_only_for_the_named_data() {
    let rt = runtime(2);
    let fast = rt.data(0u64);
    let slow = rt.data(0u64);
    let slow_done = Arc::new(AtomicUsize::new(0));
    {
        let slow = slow.clone();
        let slow_done = slow_done.clone();
        rt.task().output(&slow).spawn(move |ctx| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            *ctx.write(&slow) = 7;
            slow_done.store(1, Ordering::SeqCst);
        });
    }
    {
        let fast = fast.clone();
        rt.task().output(&fast).spawn(move |ctx| {
            *ctx.write(&fast) = 3;
        });
    }
    rt.taskwait_on(&fast);
    // The fast task is done; the slow one may or may not be.
    assert_eq!(rt.fetch(&fast), 3);
    rt.taskwait();
    assert_eq!(slow_done.load(Ordering::SeqCst), 1);
    assert_eq!(rt.fetch(&slow), 7);
}

#[test]
fn rename_ring_removes_false_dependences() {
    // With a ring of depth 4, iterations k and k+1 use different slots and
    // can overlap; the per-slot chains still serialise k and k+4.
    let rt = runtime(4);
    let ring: RenameRing<Vec<u64>> = RenameRing::new(4, |_| Vec::new());
    for k in 0..32usize {
        let slot = ring.slot(k).clone();
        rt.task().inout(&slot).spawn(move |ctx| {
            ctx.write(&slot).push(k as u64);
        });
    }
    rt.taskwait();
    for (i, slot) in ring.into_slots().into_iter().enumerate() {
        let values = slot.try_into_inner().expect("no other handles remain");
        let expected: Vec<u64> = (0..32).filter(|k| (k % 4) as usize == i).map(|k| k as u64).collect();
        assert_eq!(values, expected, "slot {i} saw writes out of order");
    }
}

#[test]
fn abandoned_task_builder_releases_version_bindings() {
    // Declaring accesses binds (and for `output`, renames) data versions;
    // dropping the builder without spawning must release those bindings so
    // renaming keeps working and the rename budget is not leaked.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(1)
            .with_rename_max_versions(3)
            .with_rename_pool_depth(0),
    );
    let d = rt.versioned_data(42u64);
    for _ in 0..20 {
        let b = rt.task().output(&d).input(&d);
        drop(b); // never spawned
    }
    assert_eq!(d.live_versions(), 1, "abandoned bindings were released");
    // Abandoned renames never commit: the handle's value is untouched.
    assert_eq!(rt.fetch(&d), 42, "no task ran, so the value must be intact");
    // Only the single live (renamed) version may still hold budget.
    assert!(
        rt.stats().rename_bytes_held <= std::mem::size_of::<u64>() as u64,
        "all superseded versions returned their budget"
    );
    // Renaming (or, with nothing in flight, first-write elision) still
    // works afterwards.
    let before = rt.stats();
    {
        let d = d.clone();
        rt.task().output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 7;
        });
    }
    rt.taskwait();
    let after = rt.stats();
    assert!(after.renames + after.renames_elided > before.renames + before.renames_elided);
    assert_eq!(rt.into_inner(d), 7);
}

#[test]
fn input_plus_output_on_versioned_handle_reads_old_writes_new() {
    // Declaring input + output on the same versioned handle is the
    // copy-free read-modify-write: the read binds the previous version,
    // the write the freshly renamed one.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let d = rt.versioned_data(40u64);
    {
        let d = d.clone();
        rt.task().input(&d).output(&d).spawn(move |ctx| {
            let old = *ctx.read(&d);
            *ctx.write(&d) = old + 2;
        });
    }
    rt.taskwait();
    assert_eq!(rt.into_inner(d), 42);
}

#[test]
#[should_panic(expected = "more than one writing access")]
fn two_writing_accesses_on_versioned_handle_are_rejected() {
    // inout + output on one versioned handle would bind two different
    // versions for the same logical write — ill-formed, rejected eagerly.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(1));
    let d = rt.versioned_data(1u64);
    let _ = rt.task().inout(&d).output(&d);
}

#[test]
#[should_panic(expected = "more than one writing access")]
fn chunk_and_whole_writes_on_versioned_partition_are_rejected() {
    // `output` on chunk 1 and `output` on `whole()` overlap on chunk 1: the
    // chunk clause and the whole clause would each rename that chunk, and
    // one of the two writes would be silently lost — rejected eagerly.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(1));
    let p = rt.versioned_partitioned(vec![0u64; 8], 4);
    let chunk = p.chunk(1);
    let whole = p.whole();
    let _ = rt.task().output(&chunk).output(&whole);
}

#[test]
fn disjoint_chunk_writes_in_one_task_are_allowed() {
    // Writes to *disjoint* chunks of one versioned partition are fine: the
    // chains are independent, so each clause renames its own chunk.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let p = rt.versioned_partitioned(vec![0u32; 8], 4);
    {
        let (c0, c1) = (p.chunk(0), p.chunk(1));
        rt.task().output(&c0).output(&c1).spawn(move |ctx| {
            ctx.write_chunk(&c0).fill(3);
            ctx.write_chunk(&c1).fill(4);
        });
    }
    rt.taskwait();
    assert_eq!(rt.into_vec(p), vec![3, 3, 3, 3, 4, 4, 4, 4]);
}

#[test]
fn versioned_partition_commits_back_on_into_vec() {
    // Chunk writes land in renamed versions; unwrapping the partition
    // reassembles the final array from every chunk's current version.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(3));
    let p = rt.versioned_partitioned(vec![0u32; 10], 4);
    for round in 0..4u32 {
        for chunk in p.chunk_handles() {
            rt.task().output(&chunk).spawn(move |ctx| {
                let base = chunk.elem_range().start as u32;
                for (i, v) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                    *v = round * 100 + base + i as u32;
                }
            });
        }
    }
    rt.taskwait();
    let stats = rt.stats();
    assert!(
        stats.chunk_renames + stats.renames_elided > 0,
        "chunk writes renamed or elided"
    );
    let out = rt.into_vec(p);
    let expected: Vec<u32> = (0..10).map(|i| 300 + i).collect();
    assert_eq!(out, expected);
}

#[test]
fn whole_array_tasks_interleave_correctly_with_chunk_tasks() {
    // whole-output → chunk-bumps → whole-sum: the whole accesses bind every
    // chunk chain, so ordering across granularities is preserved.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(3));
    let p = rt.versioned_partitioned(vec![0u64; 9], 3);
    let total = rt.data(0u64);
    {
        let whole = p.whole();
        rt.task().output(&whole).spawn(move |ctx| {
            ctx.scatter_whole(&whole, &[1u64; 9]);
        });
    }
    for chunk in p.chunk_handles() {
        rt.task().inout(&chunk).spawn(move |ctx| {
            for v in ctx.write_chunk(&chunk).iter_mut() {
                *v += 10;
            }
        });
    }
    {
        let whole = p.whole();
        let total = total.clone();
        rt.task().input(&whole).inout(&total).spawn(move |ctx| {
            *ctx.write(&total) = ctx.gather_whole(&whole).iter().sum();
        });
    }
    rt.taskwait();
    assert_eq!(rt.into_inner(total), 9 * 11);
}

#[test]
fn deep_size_hint_drives_the_rename_budget() {
    // Two concurrent renamed versions of a 64-byte payload exceed a 100-byte
    // budget: the first output renames, the second falls back to
    // serialising. With shallow `size_of::<Vec<u8>>()` accounting both would
    // have renamed.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(1)
            .with_rename_memory_cap(100)
            .with_rename_pool_depth(0)
            // Elision off: this test is about the *allocation* accounting,
            // and with nothing in flight the first output would otherwise
            // elide its rename and reserve no budget at all.
            .with_rename_elision(false),
    );
    let d = rt.versioned_data_with_size(vec![0u8; 64], || vec![0u8; 64], 64);
    let b1 = rt.task().output(&d);
    let b2 = rt.task().output(&d);
    let stats = rt.stats();
    assert_eq!(stats.renames, 1, "only one 64-byte version fits the budget");
    assert_eq!(stats.rename_fallbacks, 1);
    assert_eq!(stats.rename_bytes_held, 64, "deep payload accounted");
    drop(b1);
    drop(b2);
    assert_eq!(
        rt.stats().rename_bytes_held,
        0,
        "abandoned bindings return their budget"
    );
}

#[test]
fn nested_tasks_and_nested_taskwait() {
    let rt = runtime(3);
    let total = rt.data(0u64);
    {
        let total = total.clone();
        rt.task().inout(&total).spawn(move |ctx| {
            // Spawn children that each produce a value, wait for them, then
            // combine.
            let slots: Vec<_> = (0..8u64).map(|_| ompss::Data::new(0u64)).collect();
            for (i, slot) in slots.iter().enumerate() {
                let slot = slot.clone();
                ctx.task().output(&slot).spawn(move |cctx| {
                    *cctx.write(&slot) = (i as u64 + 1) * 10;
                });
            }
            ctx.taskwait();
            let sum: u64 = slots
                .into_iter()
                .map(|s| s.try_into_inner().expect("children finished"))
                .sum();
            *ctx.write(&total) += sum;
        });
    }
    rt.taskwait();
    assert_eq!(rt.into_inner(total), (1..=8u64).map(|i| i * 10).sum());
}

/// Spawning from inside task bodies, at volume. No workload, bin or example
/// does it, so this is the one place where worker threads acquire task nodes
/// and push their own spawns, thousands of times, while other workers retire
/// and recycle — under every policy, one tracker shard and several.
#[test]
fn nested_spawn_storm_drains_and_recycles() {
    const ROOTS: usize = 4;
    const CHILDREN: usize = 2_000;
    fn step(x: u64, i: u64) -> u64 {
        x.wrapping_mul(31).wrapping_add(i)
    }
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::WorkStealing,
        SchedulerPolicy::LocalityWorkStealing,
    ] {
        for shards in [1, 7] {
            let rt = Runtime::new(
                RuntimeConfig::default()
                    .with_workers(3)
                    .with_policy(policy)
                    .with_tracker_shards(shards)
                    .with_dcheck(true),
            );
            let cells: Vec<_> = (0..ROOTS).map(|_| rt.data(0u64)).collect();
            let slots: Vec<_> = (0..ROOTS)
                .map(|_| rt.partitioned(vec![0u64; CHILDREN / 2], 1))
                .collect();
            for (r, (cell, part)) in cells.iter().zip(&slots).enumerate() {
                let (cell, part) = (cell.clone(), part.clone());
                rt.task().spawn(move |ctx| {
                    // Even children chain on the root's cell (an order-
                    // sensitive update), odd ones each fill a chunk of their
                    // own.
                    let chained = Arc::new(AtomicUsize::new(0));
                    let finished = Arc::new(AtomicUsize::new(0));
                    for i in 0..CHILDREN {
                        let (chained, finished) = (chained.clone(), finished.clone());
                        if i % 2 == 0 {
                            let cell = cell.clone();
                            ctx.task().inout(&cell).spawn(move |c| {
                                let mut v = c.write(&cell);
                                *v = step(*v, i as u64);
                                chained.fetch_add(1, Ordering::SeqCst);
                                finished.fetch_add(1, Ordering::SeqCst);
                            });
                        } else {
                            let chunk = part.chunk(i / 2);
                            ctx.task().output(&chunk).spawn(move |c| {
                                c.write_chunk(&chunk)[0] = i as u64;
                                finished.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    }
                    if r % 2 == 0 {
                        ctx.taskwait();
                        assert_eq!(finished.load(Ordering::SeqCst), CHILDREN);
                    } else {
                        ctx.taskwait_on(&cell);
                        assert_eq!(chained.load(Ordering::SeqCst), CHILDREN / 2);
                    }
                });
            }
            rt.try_taskwait().expect("no task of the storm failed");
            let what = format!("{policy:?}, {shards} shard(s)");
            assert!(rt.take_panics().is_empty(), "{what}: a nested wait returned early");
            let races = rt.take_dcheck_reports();
            assert!(races.is_empty(), "{what}: {} race(s), first {:?}", races.len(), races.first());
            assert!(rt.take_dcheck_audit_violations().is_empty(), "{what}");
            rt.audit().unwrap_or_else(|v| panic!("{what}: {v:?}"));
            let stats = rt.stats();
            assert_eq!(stats.tasks_executed as usize, ROOTS * (CHILDREN + 1), "{what}");
            // The storm stocked the slab (how much of it was reused on the
            // way depends on how soon the first child ran): now a task that
            // spawns from its body is served from the free list, every time.
            rt.task().spawn(|ctx| {
                for _ in 0..64 {
                    ctx.task().spawn(|_| {});
                }
                ctx.taskwait();
            });
            rt.taskwait();
            let reused = rt.stats().task_nodes_recycled - stats.task_nodes_recycled;
            assert_eq!(reused, 65, "{what}: a warm slab allocated for a nested spawn");
            rt.audit().unwrap_or_else(|v| panic!("{what}: {v:?}"));
            let chain = (0..CHILDREN as u64).step_by(2).fold(0, step);
            let filled: Vec<u64> = (0..CHILDREN as u64).skip(1).step_by(2).collect();
            for (cell, part) in cells.into_iter().zip(slots) {
                assert_eq!(rt.into_inner(cell), chain, "{what}");
                assert_eq!(rt.into_vec(part), filled, "{what}");
            }
        }
    }
}

#[test]
fn taskwait_runs_ready_tasks_on_the_waiting_thread() {
    // The one worker is held by a task that ends only once a later task has
    // run. A waiter that merely polled would leave that task queued; the
    // hold gives up after 10 s so that such a runtime fails here, not hangs.
    // Both root waits help: `taskwait`, and `taskwait on` a datum the
    // releasing task writes.
    for wait_on in [false, true] {
        let what = if wait_on { "taskwait on" } else { "taskwait" };
        let rt = Runtime::new(RuntimeConfig::default().with_workers(1).with_tracing(true));
        let held = Arc::new(AtomicBool::new(false));
        let released = Arc::new(AtomicBool::new(false));
        {
            let (held, released) = (held.clone(), released.clone());
            rt.task().spawn(move |_| {
                held.store(true, Ordering::SeqCst);
                let start = Instant::now();
                while !released.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::yield_now();
                }
            });
        }
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let ran_on = Arc::new(std::sync::Mutex::new(None));
        let x = rt.data(0u64);
        {
            let (released, ran_on, x) = (released.clone(), ran_on.clone(), x.clone());
            rt.task().output(&x).spawn(move |ctx| {
                *ran_on.lock().unwrap() = Some((std::thread::current().id(), ctx.worker_id()));
                *ctx.write(&x) = 1;
                released.store(true, Ordering::SeqCst);
            });
        }
        if wait_on {
            rt.taskwait_on(&x);
        } else {
            rt.taskwait();
        }
        assert_eq!(
            *ran_on.lock().unwrap(),
            Some((std::thread::current().id(), None)),
            "{what}: the queued task ran on the thread that waited for it"
        );
        assert_eq!(
            rt.busy_ns_per_worker().len(),
            2,
            "{what}: and is traced in the slot after the one worker's"
        );
    }
}

/// A worker that waits in a nested `taskwait` is still that worker: the
/// successor it wakes while it helps goes to its own deque (the Section 4
/// locality rule), not to the shared queue.
#[test]
fn nested_taskwait_keeps_the_waiting_workers_deque() {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(1)
            .with_policy(SchedulerPolicy::LocalityWorkStealing),
    );
    let cell = rt.data(0u64);
    let done = Arc::new(AtomicBool::new(false));
    {
        let (cell, done) = (cell.clone(), done.clone());
        rt.task().spawn(move |ctx| {
            // The one worker is here, so neither link starts before the
            // `taskwait` below: B registers behind a live A and is woken by
            // A's completion, on the worker that waits.
            let (a, b) = (cell.clone(), cell.clone());
            ctx.task().output(&a).spawn(move |c| *c.write(&a) = 7);
            ctx.task().input(&b).spawn(move |c| assert_eq!(*c.read(&b), 7));
            ctx.taskwait();
            done.store(true, Ordering::SeqCst);
        });
    }
    // Not `rt.taskwait()`: a waiting root thread would help, and the chain
    // must run on worker 0 alone.
    while !done.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(
        (stats.sched_local_wakeups, stats.sched_global_wakeups),
        (1, 0),
        "the woken link stayed on the waiting worker's deque"
    );
}

#[test]
fn critical_sections_protect_hidden_state() {
    let rt = runtime(4);
    let hidden = Arc::new(std::sync::Mutex::new(Vec::<usize>::new()));
    for i in 0..200 {
        let hidden = hidden.clone();
        let d = rt.data(0u8);
        rt.task().output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 1;
            ctx.critical("hidden", || hidden.lock().unwrap().push(i));
        });
    }
    rt.taskwait();
    assert_eq!(hidden.lock().unwrap().len(), 200);
}

#[test]
fn panicking_tasks_poison_successors_but_not_the_runtime() {
    let rt = runtime(2);
    let data = rt.data(0u32);
    let boom_id;
    // Poison travels along live edges: the failing task is held until its
    // dependant is registered behind it.
    let dependant_spawned = Arc::new(AtomicBool::new(false));
    {
        let (data, go) = (data.clone(), dependant_spawned.clone());
        boom_id = rt.task().name("boom").inout(&data).spawn(move |_ctx| {
            while !go.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            panic!("injected failure");
        });
    }
    // The dependent task is *poisoned*: retired without running, so the
    // half-failed chain never commits a value.
    {
        let data = data.clone();
        rt.task().inout(&data).spawn(move |ctx| {
            *ctx.write(&data) = 99;
        });
    }
    dependant_spawned.store(true, Ordering::SeqCst);
    // The graph drains rather than hanging, and the typed error names the
    // panicking task as the poison origin.
    match rt.try_taskwait() {
        Err(ompss::Error::Poisoned { origin }) => assert_eq!(origin, boom_id),
        other => panic!("expected a poisoned taskwait, got {other:?}"),
    }
    let panics = rt.take_panics();
    assert_eq!(panics.len(), 1);
    match &panics[0] {
        ompss::Error::TaskPanicked { task, message } => {
            assert_eq!(task, "boom");
            assert!(message.contains("injected failure"));
        }
        other => panic!("unexpected error {other:?}"),
    }
    let stats = rt.stats();
    assert_eq!(stats.tasks_panicked, 1);
    assert_eq!(stats.tasks_poisoned, 1);
    // The poison note was consumed by try_taskwait: the runtime itself is
    // healthy, and an unrelated follow-up chain runs and unwraps normally.
    assert_eq!(rt.into_inner(data), 0, "poisoned write must not commit");
    let fresh = rt.data(0u32);
    {
        let fresh = fresh.clone();
        rt.task().inout(&fresh).spawn(move |ctx| *ctx.write(&fresh) = 7);
    }
    rt.try_taskwait().expect("clean round after a consumed poison");
    assert_eq!(rt.into_inner(fresh), 7);
    assert_eq!(rt.in_flight_tasks(), 0);
    rt.audit().expect("a consumed poison leaves no node outstanding");
}

#[test]
fn all_scheduler_policies_run_the_same_program() {
    for policy in [
        SchedulerPolicy::Fifo,
        SchedulerPolicy::WorkStealing,
        SchedulerPolicy::LocalityWorkStealing,
    ] {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(3)
                .with_policy(policy),
        );
        let data = rt.partitioned(vec![0u64; 64], 8);
        for chunk in data.chunk_handles() {
            rt.task().output(&chunk).spawn(move |ctx| {
                for v in ctx.write_chunk(&chunk).iter_mut() {
                    *v = 5;
                }
            });
        }
        rt.taskwait();
        let out = rt.into_vec(data);
        assert!(out.iter().all(|&v| v == 5), "policy {policy:?} lost writes");
    }
}

#[test]
fn priorities_are_honoured_by_the_scheduler() {
    // With a single worker and tasks spawned while the worker is busy, the
    // high-priority task runs before the earlier-spawned low-priority ones.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(1));
    let order = Arc::new(std::sync::Mutex::new(Vec::<&'static str>::new()));
    let gate = rt.data(0u8);
    {
        // Occupy the single worker so the following spawns queue up.
        let gate = gate.clone();
        rt.task().inout(&gate).spawn(move |ctx| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            *ctx.write(&gate) = 1;
        });
    }
    for _ in 0..3 {
        let order = order.clone();
        let d = rt.data(0u8);
        rt.task().priority(0).output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 1;
            order.lock().unwrap().push("low");
        });
    }
    {
        let order = order.clone();
        let d = rt.data(0u8);
        rt.task().priority(10).output(&d).spawn(move |ctx| {
            *ctx.write(&d) = 1;
            order.lock().unwrap().push("high");
        });
    }
    rt.taskwait();
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 4);
    assert_eq!(order[0], "high", "priority task must run first, got {order:?}");
}
