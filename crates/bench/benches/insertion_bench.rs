//! Criterion microbenchmark of the task-insertion hot path: **full-spawn**
//! throughput (builder, node, registration, scheduling, execution,
//! retirement) for single-access tasks, at 1 and 8 concurrently spawning
//! threads, across three runtime configurations:
//!
//! * `locked` — tracker forced-locked (every gate acquisition waits, every
//!   retirement goes through the inbox), node recycler off: the historical
//!   baseline.
//! * `optimistic` — try-first gate acquisition (the default), recycler still
//!   off: the PR-4 configuration, which moved the tracker-only number but
//!   left ~6 heap allocations on every spawn.
//! * `recycled` — fast path plus the task-node slab and inline accesses/
//!   bodies: the steady-state spawn is allocation-free end to end (pinned by
//!   `tests/spawn_alloc.rs`).
//!
//! Each measured iteration spawns a batch of tiny-bodied tasks, every task
//! declaring exactly one `output` access on one of a small pool of plain
//! cells (so registration does real history work — the previous writer
//! generation is found, superseded and eventually retired — while the shard
//! routing stays spread). The `taskwait` at the end of a batch also drains
//! the retire path, so the numbers cover the full round trip that bounds
//! fine-grained workloads like the h264dec macroblock loop.

use criterion::{criterion_group, criterion_main, Criterion};

use ompss::{Data, FaultPlan, Runtime, RuntimeConfig};

/// Cells per spawner: enough to spread over every shard and keep
/// register/retire collisions (fast-path fallbacks) rare.
const CELLS: usize = 64;
/// Tasks per measured batch, per spawner thread.
const TASKS: usize = 500;

/// The three insertion-path configurations compared.
const CONFIGS: [(&str, bool, bool); 3] = [
    ("locked", false, false),
    ("optimistic", true, false),
    ("recycled", true, true),
];

fn runtime(fast_path: bool, recycler: bool) -> Runtime {
    let mut config = RuntimeConfig::default()
        .with_workers(2)
        .with_tracker_shards(8)
        .with_task_recycler(recycler);
    if !fast_path {
        config = config.with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1));
    }
    Runtime::new(config)
}

fn spawn_batch(rt: &Runtime, cells: &[Data<u64>]) {
    for i in 0..TASKS {
        let c = cells[i % cells.len()].clone();
        rt.task().output(&c).spawn(move |ctx| {
            *ctx.write(&c) = i as u64;
        });
    }
}

fn bench_single_spawner(c: &mut Criterion) {
    let mut group = c.benchmark_group("insertion/1thread");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    for (label, fast, recycler) in CONFIGS {
        let rt = runtime(fast, recycler);
        let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
        group.bench_function(format!("full_spawn_x{TASKS}/{label}"), |b| {
            b.iter(|| {
                spawn_batch(&rt, &cells);
                rt.taskwait();
            })
        });
        rt.shutdown();
    }
    group.finish();
}

fn bench_eight_spawners(c: &mut Criterion) {
    let mut group = c.benchmark_group("insertion/8threads");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (label, fast, recycler) in CONFIGS {
        let rt = runtime(fast, recycler);
        let per_thread: Vec<Vec<Data<u64>>> = (0..8)
            .map(|_| (0..CELLS).map(|_| rt.data(0u64)).collect())
            .collect();
        group.bench_function(format!("full_spawn_x{}/{label}", TASKS * 8), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for cells in &per_thread {
                        let rt = &rt;
                        scope.spawn(move || spawn_batch(rt, cells));
                    }
                });
                rt.taskwait();
            })
        });
        rt.shutdown();
    }
    group.finish();
}

criterion_group!(insertion_benches, bench_single_spawner, bench_eight_spawners);
criterion_main!(insertion_benches);
