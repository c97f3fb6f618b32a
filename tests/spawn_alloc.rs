//! Allocation-count regression test for the spawn-side allocation diet.
//!
//! Installs [`ompss::CountingAllocator`] as the binary's global allocator
//! and proves the headline claim of the diet: once the runtime is warm
//! (slab full of recycled nodes, tracker maps and scheduler queues at their
//! high-water capacity), a batch of ≤2-access task spawns — on one tracker
//! shard or across two, including their execution, completion, retirement
//! and node recycling — performs **zero** heap allocations.
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
/// cell, `output` on the next — which sit on different tracker shards.
fn spawn_cross_shard_batch(rt: &Runtime, cells: &[Data<u64>]) {
    for i in 0..BATCH {
        let src = cells[i % cells.len()].clone();
        let dst = cells[(i + 1) % cells.len()].clone();
        rt.task().input(&src).output(&dst).spawn(move |ctx| {
            *ctx.write(&dst) = *ctx.read(&src) + 1;
        });
    }
}

/// Busy-wait for the batch to drain without calling anything that
/// allocates (`taskwait` runs a GC sweep and `stats()` builds vectors;
/// `in_flight_tasks` is one atomic read). Workers recycle a node *before*
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
            .with_tracker_shards(4)
            // No periodic GC sweep: the tracker maps keep their warmed
            // capacity across the window (GC itself is scratch-reusing, but
            // dropping and re-creating per-allocation index entries would
            // re-allocate their vectors).
            .with_tracker_gc_interval(0),
    );
    let cells: Vec<Data<u64>> = (0..16).map(|_| rt.data(0u64)).collect();

    // Warm-up: fill the node slab, the access/successor/scratch capacities,
    // the scheduler queues and the tracker history maps.
    for _ in 0..4 {
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

    // A registration spanning two shards rides the same diet: the set of
    // shard ids it holds lives on the spawner's stack, not in a vector.
    // Consecutive cells have consecutive allocation ids, so with 4 shards
    // every one of these tasks spans two — none is a single-shard hit.
    for _ in 0..4 {
        spawn_cross_shard_batch(&rt, &cells);
        drain(&rt);
    }
    let fallbacks_before = rt.stats().tracker_fast_path_fallbacks;
    let before = CountingAllocator::allocations();
    spawn_cross_shard_batch(&rt, &cells);
    drain(&rt);
    let delta_cross = CountingAllocator::allocations() - before;
    assert_eq!(
        delta_cross, 0,
        "steady-state spawns spanning two shards must not allocate (saw {delta_cross} \
         allocations across a {BATCH}-task batch)"
    );
    let stats = rt.stats();
    assert_eq!(
        stats.tracker_fast_path_fallbacks - fallbacks_before,
        BATCH as u64,
        "every task of the measured batch spanned two shards"
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

    // Fused super-batches ride the same diet: the first fused pass widens
    // the working set to 2×BATCH nodes (allocating the extra ones once),
    // after which a warm fused replay — one gate acquisition, one wakeup,
    // 2×BATCH tasks — performs zero heap allocations.
    rt.replay_fused(&template, 2);
    drain(&rt);
    let before = CountingAllocator::allocations();
    rt.replay_fused(&template, 2);
    drain(&rt);
    let delta_fused = CountingAllocator::allocations() - before;
    assert_eq!(
        delta_fused, 0,
        "warm fused replay must not allocate (saw {delta_fused} allocations \
         across a 2x{BATCH}-task fused batch)"
    );
    assert_eq!(template.passes(), 9);

    // And with the recycler disabled the same batch does allocate — the
    // counter hook itself is alive and the zero above is meaningful.
    let rt_off = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_shards(4)
            .with_tracker_gc_interval(0)
            .with_task_recycler(false),
    );
    let cells_off: Vec<Data<u64>> = (0..16).map(|_| rt_off.data(0u64)).collect();
    for _ in 0..2 {
        spawn_batch(&rt_off, &cells_off);
        drain(&rt_off);
    }
    let before = CountingAllocator::allocations();
    spawn_batch(&rt_off, &cells_off);
    drain(&rt_off);
    let delta_off = CountingAllocator::allocations() - before;
    assert!(
        delta_off >= BATCH as u64,
        "without the recycler every spawn allocates at least its node \
         (saw only {delta_off})"
    );

    rt.shutdown();
    rt_off.shutdown();
}
