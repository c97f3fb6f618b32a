//! Small timed calls into single layers, through public functions only.
//! They do not depend on the workload and run once in every traced run, so
//! that each per-layer metric has a number next to every workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ompss::{Data, ReplayBindings, Runtime, RuntimeConfig};
use threadkit::{BlockingBarrier, BoundedQueue};

use crate::stats::median;
use crate::storm::{pattern, BATCH, CELLS};

/// Median over `reps` repetitions of `f`, which returns nanoseconds per
/// operation.
fn median_ns(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

fn ns_per(ops: usize, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / ops as f64
}

fn runtime(threads: usize) -> Runtime {
    Runtime::new(RuntimeConfig::default().with_workers(threads))
}

/// `rt_start_us`, `rt_shutdown_us`: a runtime with `threads` workers.
fn start_and_shutdown(threads: usize) -> (f64, f64) {
    let mut start_ns = Vec::new();
    let mut stop_ns = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        let rt = runtime(threads);
        start_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        rt.shutdown();
        stop_ns.push(t.elapsed().as_nanos() as f64);
    }
    (median(&start_ns) / 1e3, median(&stop_ns) / 1e3)
}

/// How a spawn probe declares its accesses.
#[derive(Clone, Copy, PartialEq)]
enum Clauses {
    None,
    Output,
    InputOutput,
}

/// The spawn call alone, per task: fifteen batches of storm-shaped tasks
/// are spawned under the clock and drained outside it. Also returns the
/// drain itself (last spawn to quiescence) per task.
fn spawn_ns(
    rt: &Runtime,
    cells: &[Data<u64>],
    shape: &[(usize, usize)],
    clauses: Clauses,
) -> (f64, f64) {
    let mut drain = Vec::new();
    let spawn = median_ns(15, || {
        let t = Instant::now();
        for (i, &(read, write)) in shape.iter().enumerate() {
            let (r, w) = (cells[read].clone(), cells[write].clone());
            match clauses {
                Clauses::None => rt.task().spawn(move |_| {
                    black_box((i, &r, &w));
                }),
                Clauses::Output => rt.task().output(&w).spawn(move |ctx| {
                    black_box(&r);
                    *ctx.write(&w) = i as u64;
                }),
                Clauses::InputOutput => rt
                    .task()
                    .input(&r)
                    .output(&w)
                    .spawn(move |ctx| *ctx.write(&w) = ctx.read(&r).wrapping_add(i as u64)),
            };
        }
        let spawned = t.elapsed();
        let t = Instant::now();
        rt.taskwait();
        drain.push(ns_per(shape.len(), t.elapsed()));
        ns_per(shape.len(), spawned)
    });
    (spawn, median(&drain))
}

/// Which replay flavour [`replay_ns`] stamps.
#[derive(Clone, Copy, PartialEq)]
enum Replay {
    /// Clause re-resolution and a history scan per pass.
    Resolved,
    /// The frozen plan of the default configuration.
    Prewired,
    /// `replay_fused(.., 4)`.
    Fused,
}

/// Insertion alone, per task, of the storm batch through `Runtime::replay`.
fn replay_ns(threads: usize, shape: &[(usize, usize)], mode: Replay) -> f64 {
    const FUSE: usize = 4;
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(threads)
            .with_replay_prewiring(mode != Replay::Resolved),
    );
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    let mut scope = rt.capture();
    for (i, &(read, write)) in shape.iter().enumerate() {
        let (r, w) = (cells[read].clone(), cells[write].clone());
        scope
            .task()
            .input(&r)
            .output(&w)
            .spawn(move |ctx| *ctx.write(&w) = ctx.read(&r).wrapping_add(i as u64));
    }
    let template = scope.finish();
    let bindings = ReplayBindings::new();
    let stamp = |rt: &Runtime| match mode {
        Replay::Fused => {
            rt.replay_fused(&template, FUSE);
            FUSE * BATCH
        }
        _ => {
            rt.replay(&template, &bindings);
            BATCH
        }
    };
    for _ in 0..4 {
        rt.taskwait();
        stamp(&rt);
    }
    let ns = median_ns(25, || {
        rt.taskwait();
        let t = Instant::now();
        let tasks = stamp(&rt);
        ns_per(tasks, t.elapsed())
    });
    rt.shutdown();
    ns
}

/// Per task, spawn through quiescence, of a chain of `output` accesses on
/// one versioned handle: every write may rename (`renaming`) or must wait
/// for the previous one.
fn versioned_output_ns(threads: usize, renaming: bool) -> f64 {
    const TASKS: usize = 2_000;
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(threads)
            .with_renaming(renaming),
    );
    let cell = rt.versioned_data(0u64);
    let ns = median_ns(9, || {
        let t = Instant::now();
        for i in 0..TASKS {
            let c = cell.clone();
            rt.task()
                .output(&c)
                .spawn(move |ctx| *ctx.write(&c) = i as u64);
        }
        rt.taskwait();
        ns_per(TASKS, t.elapsed())
    });
    rt.shutdown();
    ns
}

/// One rendezvous of `threads` threads on the Pthreads-style barrier.
fn barrier_roundtrip_ns(threads: usize) -> f64 {
    const WAITS: usize = 2_000;
    let barrier = BlockingBarrier::new(threads);
    median_ns(5, || {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..WAITS {
                        barrier.wait();
                    }
                });
            }
        });
        ns_per(WAITS, t.elapsed())
    })
}

/// One item through the Pthreads-style bounded queue, producer to consumer.
fn queue_handoff_ns() -> f64 {
    const ITEMS: usize = 20_000;
    median_ns(5, || {
        let queue = BoundedQueue::new(16);
        let t = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..ITEMS {
                    queue.push(i).expect("the consumer closes nothing");
                }
                queue.close();
            });
            let mut sum = 0usize;
            while let Ok(item) = queue.pop() {
                sum += item;
            }
            black_box(sum);
        });
        ns_per(ITEMS, t.elapsed())
    })
}

/// Every probe, `(metric name, value)`.
pub fn run(threads: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let shape = pattern(seed);
    let (rt_start_us, rt_shutdown_us) = start_and_shutdown(threads);

    let rt = runtime(threads);
    let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
    let taskwait_empty_ns = median_ns(9, || {
        let t = Instant::now();
        for _ in 0..1_000 {
            rt.taskwait();
        }
        ns_per(1_000, t.elapsed())
    });
    let dispatch_roundtrip_us = median_ns(1_000, || {
        let t = Instant::now();
        rt.task().spawn(|_| {});
        rt.taskwait();
        t.elapsed().as_nanos() as f64
    }) / 1e3;
    let critical_uncontended_ns = median_ns(9, || {
        let t = Instant::now();
        for i in 0..10_000u64 {
            black_box(rt.critical("ledger", || i));
        }
        ns_per(10_000, t.elapsed())
    });
    // Warm the slab before the spawn probes.
    spawn_ns(&rt, &cells, &shape, Clauses::InputOutput);
    let (spawn0_ns, _) = spawn_ns(&rt, &cells, &shape, Clauses::None);
    let (spawn1_ns, _) = spawn_ns(&rt, &cells, &shape, Clauses::Output);
    let (spawn2_ns, drain_ns_per_task) = spawn_ns(&rt, &cells, &shape, Clauses::InputOutput);
    rt.shutdown();

    let renamed = versioned_output_ns(threads, true);
    let serialised = versioned_output_ns(threads, false);
    vec![
        ("runtime.rt_start_us", rt_start_us),
        ("runtime.rt_shutdown_us", rt_shutdown_us),
        ("barrier.taskwait_empty_ns", taskwait_empty_ns),
        ("task.spawn0_ns", spawn0_ns),
        ("graph.spawn1_ns", spawn1_ns),
        ("graph.spawn2_ns", spawn2_ns),
        ("graph.per_access_ns", (spawn2_ns - spawn0_ns) / 2.0),
        (
            "capture.replay_resolved_ns_per_task",
            replay_ns(threads, &shape, Replay::Resolved),
        ),
        (
            "capture.replay_prewired_ns_per_task",
            replay_ns(threads, &shape, Replay::Prewired),
        ),
        (
            "capture.replay_fused_ns_per_task",
            replay_ns(threads, &shape, Replay::Fused),
        ),
        ("rename.versioned_output_ns", renamed),
        ("rename.rename_extra_ns", renamed - serialised),
        ("scheduler.dispatch_roundtrip_us", dispatch_roundtrip_us),
        ("scheduler.drain_ns_per_task", drain_ns_per_task),
        ("critical.uncontended_ns", critical_uncontended_ns),
        (
            "threadkit.barrier_roundtrip_ns",
            barrier_roundtrip_ns(threads),
        ),
        ("threadkit.queue_handoff_ns", queue_handoff_ns()),
    ]
}
