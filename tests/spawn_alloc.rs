//! Allocation-count regression test for the spawn-side allocation diet.
//!
//! Installs [`ompss::CountingAllocator`] as the binary's global allocator
//! and proves the headline claim of the diet: once the runtime is warm
//! (slab full of recycled nodes, tracker maps and scheduler queues at their
//! high-water capacity), a batch of ≤2-access task spawns — on one
//! allocation or across two, including their execution, completion,
//! retirement and node recycling — performs **zero** heap allocations.
//!
//! This file contains exactly one test so no unrelated test thread can
//! allocate inside the measurement window.

#[global_allocator]
static ALLOC: ompss::CountingAllocator = ompss::CountingAllocator;

use ompss::{CountingAllocator, Data, Runtime, RuntimeConfig};

/// Tasks per batch. Must stay below the slab capacity so a drained batch
/// fully restocks the free list for the next one.
const BATCH: usize = 256;

fn spawn_batch(rt: &Runtime, cells: &[Data<u64>]) {
    for i in 0..BATCH {
        let c = cells[i % cells.len()].clone();
        rt.task().output(&c).spawn(move |ctx| {
            *ctx.write(&c) = i as u64;
        });
    }
}

/// The same batch with every task spanning two allocations — `input` on one
/// cell, `output` on the next.
fn spawn_two_allocation_batch(rt: &Runtime, cells: &[Data<u64>]) {
    for i in 0..BATCH {
        let src = cells[i % cells.len()].clone();
        let dst = cells[(i + 1) % cells.len()].clone();
        rt.task().input(&src).output(&dst).spawn(move |ctx| {
            *ctx.write(&dst) = *ctx.read(&src) + 1;
        });
    }
}

/// Busy-wait for the batch to drain without calling anything that may
/// allocate (`taskwait` runs a GC sweep; `in_flight_tasks` is one atomic
/// read). Workers recycle a node *before*
/// decrementing the in-flight count, so a drained runtime deterministically
/// has every batch node parked in the free list — the next batch of
/// `BATCH` spawns can never outrun the stock, whatever the scheduling.
fn drain(rt: &Runtime) {
    while rt.in_flight_tasks() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn steady_state_spawn_is_allocation_free() {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            // No periodic GC sweep: the tracker maps keep their warmed
            // capacity across the window (GC itself is scratch-reusing, but
            // dropping and re-creating per-allocation index entries would
            // re-allocate their vectors).
            .with_tracker_gc_interval(0),
    );
    let cells: Vec<Data<u64>> = (0..16).map(|_| rt.data(0u64)).collect();

    // The counter hook is alive, so the zeros below are meaningful: the
    // slab builds a stock of BATCH nodes before it reuses any, so the first
    // batch on a fresh runtime allocates at least one node per task.
    let before = CountingAllocator::allocations();
    spawn_batch(&rt, &cells);
    drain(&rt);
    let delta_first = CountingAllocator::allocations() - before;
    assert!(
        delta_first >= BATCH as u64,
        "the first batch must allocate every node (saw only {delta_first})"
    );

    // Warm-up: fill the node slab, the access/successor/scratch capacities,
    // the scheduler queues and the tracker history maps.
    for _ in 0..3 {
        spawn_batch(&rt, &cells);
        drain(&rt);
    }

    let before = CountingAllocator::allocations();
    spawn_batch(&rt, &cells);
    drain(&rt);
    let delta = CountingAllocator::allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state ≤2-access spawns must not allocate (saw {delta} allocations \
         across a {BATCH}-task batch)"
    );

    // The window really exercised the diet: nodes came from the free list
    // and every access list stayed inline.
    let stats = rt.stats();
    assert!(
        stats.task_nodes_recycled >= BATCH as u64,
        "the measured batch ran on recycled nodes ({} recycled)",
        stats.task_nodes_recycled
    );
    assert_eq!(stats.access_inline_spills, 0);
    assert_eq!(stats.access_inline_hits, stats.tasks_spawned);

    // A registration spanning two allocations rides the same diet: it
    // collects predecessors from both into the history's scratch set.
    for _ in 0..4 {
        spawn_two_allocation_batch(&rt, &cells);
        drain(&rt);
    }
    let registered =
        |s: &ompss::RuntimeStats| s.tracker_fast_path_hits + s.tracker_fast_path_fallbacks;
    let registered_before = registered(&rt.stats());
    let before = CountingAllocator::allocations();
    spawn_two_allocation_batch(&rt, &cells);
    drain(&rt);
    let delta_two = CountingAllocator::allocations() - before;
    assert_eq!(
        delta_two, 0,
        "steady-state spawns spanning two allocations must not allocate (saw {delta_two} \
         allocations across a {BATCH}-task batch)"
    );
    let stats = rt.stats();
    assert_eq!(
        registered(&stats) - registered_before,
        BATCH as u64,
        "every task of the measured batch registered through the tracker gate"
    );
    assert_eq!(stats.access_inline_spills, 0);

    // Template replay rides the same diet: capture a full batch (the
    // capture iteration itself allocates freely — recipes, Arc'd bodies),
    // warm the template's replay scratch, and a warm replay of all BATCH
    // tasks — resolution, node acquisition, batch registration, wakeup,
    // execution, recycling — performs zero heap allocations.
    let mut scope = rt.capture();
    for i in 0..BATCH {
        let c = cells[i % cells.len()].clone();
        scope.task().output(&c).spawn(move |ctx| {
            *ctx.write(&c) = i as u64;
        });
    }
    let template = scope.finish();
    drain(&rt);
    let bindings = ompss::ReplayBindings::new();
    for _ in 0..4 {
        rt.replay(&template, &bindings);
        drain(&rt);
    }
    let before = CountingAllocator::allocations();
    rt.replay(&template, &bindings);
    drain(&rt);
    let delta_replay = CountingAllocator::allocations() - before;
    assert_eq!(
        delta_replay, 0,
        "warm template replay must not allocate (saw {delta_replay} allocations \
         across a {BATCH}-task replayed batch)"
    );
    assert_eq!(template.passes(), 5);
    // The batch is renaming-free over plain handles, so pass 1 froze the
    // template and the measured pass above stamped through the pre-wired
    // plan — the zero-allocation claim covers the fast path, not just the
    // resolved one.
    assert!(
        template.is_frozen(),
        "a renaming-free batch must freeze after its first pure pass"
    );

    rt.shutdown();
}
