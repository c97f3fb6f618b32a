//! Quickstart: the OmpSs programming model in five minutes.
//!
//! Shows the core ideas of the runtime on a tiny dataflow program:
//! tasks annotated with `input` / `output` / `inout` accesses, automatic
//! dependence resolution, `taskwait` / `taskwait_on`, and the runtime
//! statistics you get back.
//!
//! Run with `cargo run --release --example quickstart`.

use ompss::{Runtime, RuntimeConfig, SchedulerPolicy};

fn main() {
    // A runtime with as many workers as the host offers, using the default
    // locality-aware work-stealing scheduler.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(workers)
            .with_policy(SchedulerPolicy::LocalityWorkStealing)
            .with_tracing(true),
    );
    println!("runtime with {workers} workers, policy {:?}", rt.policy());

    // Shared data handles. `data` registers a single object; `partitioned`
    // splits a vector into independently-tracked chunks.
    let input = rt.data((0..1_000u64).collect::<Vec<_>>());
    let squares = rt.partitioned(vec![0u64; 1_000], 100);
    let total = rt.data(0u64);

    // One task per chunk: reads `input`, writes its own chunk of `squares`.
    // The tasks are independent of each other and run in parallel.
    for (i, chunk) in squares.chunk_handles().enumerate() {
        let input = input.clone();
        rt.task()
            .name("square_chunk")
            .input(&input)
            .output(&chunk)
            .spawn(move |ctx| {
                let data = ctx.read(&input);
                let mut out = ctx.write_chunk(&chunk);
                for (j, slot) in out.iter_mut().enumerate() {
                    let v = data[i * 100 + j];
                    *slot = v * v;
                }
            });
    }

    // A reduction task: reads the whole partitioned array (so it depends on
    // every chunk task), updates `total`.
    {
        let whole = squares.whole();
        let total = total.clone();
        rt.task()
            .name("reduce")
            .input(&whole)
            .inout(&total)
            .spawn(move |ctx| {
                let values = ctx.read_whole(&whole);
                *ctx.write(&total) += values.iter().sum::<u64>();
            });
    }

    // `taskwait_on` waits only for the tasks touching `total` — i.e. the
    // reduction and, transitively through its dependences, everything it
    // needed.
    rt.taskwait_on(&total);
    let sum = rt.fetch(&total);
    println!("sum of squares 0..1000 = {sum}");
    assert_eq!(sum, (0..1_000u64).map(|v| v * v).sum::<u64>());

    // Full barrier, then look at what the runtime did.
    rt.taskwait();
    let stats = rt.stats();
    println!(
        "tasks spawned: {}, dependence edges: {}, immediately ready: {}",
        stats.tasks_spawned, stats.edges_added, stats.immediately_ready
    );
    if let Some(rate) = stats.locality_hit_rate() {
        println!(
            "locality hit rate of dependent-task wakeups: {:.0} %",
            rate * 100.0
        );
    }
    println!("per-worker busy time (ns): {:?}", rt.busy_ns_per_worker());
}
