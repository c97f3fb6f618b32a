//! Manual vs automatic renaming on the Listing-1 pipeline (Section 3).
//!
//! The paper's OmpSs implementation performs no automatic renaming, so the
//! h264dec main loop only pipelines because the programmer renames the
//! inter-stage buffers by hand with circular buffers of depth `N`
//! (Listing 1). The `ompss` runtime in this repository adds runtime-managed
//! renaming (versioned handles, see `ompss::rename`); this harness measures
//! what that buys on the h264dec-style pipeline workload:
//!
//! 1. **serialised** — versioned buffers with renaming *disabled*: every
//!    iteration's `output` inherits the WAR/WAW hazards and the pipeline
//!    collapses to (near-)sequential execution. This is what plain OmpSs
//!    code without Listing 1's buffers would do.
//! 2. **manual** — Listing 1 verbatim: `RenameRing` circular buffers of
//!    depth `N`, renamed by hand.
//! 3. **automatic** — single versioned handles; the runtime renames each
//!    `output` access to a fresh (or recycled) version.
//!
//! All three decode the same stream and must produce the same checksum; the
//! interesting outputs are the wall-clock times, the dependence-edge
//! classification (the WAR/WAW edges renaming removes) and the rename
//! counters (recycling hit rate, bytes held, fallbacks).
//!
//! A second scenario measures renaming at **region granularity**: a chunked
//! two-stage pipeline (per-band producer + per-band consumer, iterated with
//! no barrier) over one partitioned buffer, in the same three flavours —
//! serialised (versioned partition, renaming off), manual (a ring of plain
//! partitions, double-buffered by hand) and automatic (per-chunk version
//! chains, `Runtime::versioned_partitioned`).
//!
//! A third scenario measures the **insertion side** itself: the spawn-rate
//! ablation hammers one runtime from 1–8 concurrently spawning OS threads
//! and reports task insertions per second with the dependence tracker in its
//! single-shard (historical single-lock) and sharded configurations, plus
//! the tracker's shard-hit / lock-contention counters.
//!
//! Run with `cargo run --release -p bench-harness --bin rename_ablation
//! [workers] [frames] [pipeline-iters] [spawn-tasks-per-thread]`.

use std::time::{Duration, Instant};

use benchsuite::benchmarks::h264dec::{self, Params};
use kernels::h264::{EncodedStream, VideoParams};
use ompss::{Data, FaultPlan, Runtime, RuntimeConfig, RuntimeStats};

struct Row {
    label: &'static str,
    time: Duration,
    checksum: u64,
    stats: RuntimeStats,
}

fn run(
    label: &'static str,
    stream: &EncodedStream,
    p: &Params,
    config: RuntimeConfig,
    auto: bool,
) -> Row {
    let rt = Runtime::new(config);
    // One warm-up pass so allocator effects do not favour whichever variant
    // runs later; then best-of-3 (the stream is pre-built: only decoding is
    // measured, and the minimum suppresses scheduler noise on busy hosts).
    let decode = |rt: &Runtime| {
        if auto {
            h264dec::decode_ompss(stream, p.pool, rt)
        } else {
            h264dec::decode_ompss_manual(stream, p.window, p.pool, rt)
        }
    };
    let _ = decode(&rt);
    let before = rt.stats();
    let mut time = Duration::MAX;
    let mut checksum = 0;
    for _ in 0..3 {
        let start = Instant::now();
        checksum = decode(&rt);
        time = time.min(start.elapsed());
    }
    let after = rt.stats();
    rt.shutdown();
    // Per-run averages of the monotonic counters over the 3 timed runs.
    let stats = RuntimeStats {
        tasks_spawned: (after.tasks_spawned - before.tasks_spawned) / 3,
        edges_added: (after.edges_added - before.edges_added) / 3,
        raw_edges: (after.raw_edges - before.raw_edges) / 3,
        war_edges: (after.war_edges - before.war_edges) / 3,
        waw_edges: (after.waw_edges - before.waw_edges) / 3,
        renames: (after.renames - before.renames) / 3,
        renames_recycled: (after.renames_recycled - before.renames_recycled) / 3,
        rename_fallbacks: (after.rename_fallbacks - before.rename_fallbacks) / 3,
        renames_elided: (after.renames_elided - before.renames_elided) / 3,
        dependences_seen: (after.dependences_seen - before.dependences_seen) / 3,
        ..after
    };
    Row {
        label,
        time,
        checksum,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: chunked two-stage pipeline (region-granularity renaming)
// ---------------------------------------------------------------------------

/// Bands in the partitioned buffer.
const PIPE_CHUNKS: usize = 8;
/// Elements per band.
const PIPE_CHUNK_ELEMS: usize = 4096;

/// Cheap per-element mixing so the producer stage does real work.
fn mix(iter: u64, chunk: u64, i: u64) -> u64 {
    let mut x = iter
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(chunk << 32)
        .wrapping_add(i);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// How the chunked pipeline names its iteration buffers.
enum PipeMode {
    /// One versioned partition; the runtime renames per chunk (or, with
    /// renaming disabled in the config, serialises per chunk chain).
    Versioned,
    /// Listing-1 style: a ring of `depth` plain partitions, renamed by hand.
    ManualRing { depth: usize },
}

struct PipeRow {
    label: &'static str,
    time: Duration,
    checksum: u64,
    stats: RuntimeStats,
}

/// Run `iters` iterations of the two-stage pipeline: per band, a producer
/// task overwrites the band (`output`) and a consumer task folds it into a
/// per-band accumulator (`input` band + `inout` accumulator). No barrier
/// between iterations: whatever serialisation appears comes from the
/// dependence system.
fn run_chunked(label: &'static str, config: RuntimeConfig, mode: PipeMode, iters: usize) -> PipeRow {
    let rt = Runtime::new(config);
    let accumulators: Vec<Data<u64>> = (0..PIPE_CHUNKS).map(|_| rt.data(0u64)).collect();
    let parts: Vec<ompss::PartitionedData<u64>> = match &mode {
        PipeMode::Versioned => vec![
            rt.versioned_partitioned(vec![0u64; PIPE_CHUNKS * PIPE_CHUNK_ELEMS], PIPE_CHUNK_ELEMS),
        ],
        PipeMode::ManualRing { depth } => (0..*depth)
            .map(|_| rt.partitioned(vec![0u64; PIPE_CHUNKS * PIPE_CHUNK_ELEMS], PIPE_CHUNK_ELEMS))
            .collect(),
    };
    let start = Instant::now();
    for iter in 0..iters {
        let part = &parts[iter % parts.len()];
        for (chunk_idx, chunk_acc) in accumulators.iter().enumerate() {
            let produce = part.chunk(chunk_idx);
            let consume = produce.clone();
            let acc = chunk_acc.clone();
            rt.task()
                .name("pipe_produce")
                .output(&produce)
                .spawn(move |ctx| {
                    for (i, v) in ctx.write_chunk(&produce).iter_mut().enumerate() {
                        *v = mix(iter as u64, produce.index() as u64, i as u64);
                    }
                });
            rt.task()
                .name("pipe_consume")
                .input(&consume)
                .inout(&acc)
                .spawn(move |ctx| {
                    let sum = ctx
                        .read_chunk(&consume)
                        .iter()
                        .fold(0u64, |a, &v| a.wrapping_add(v));
                    let mut acc = ctx.write(&acc);
                    *acc = acc.wrapping_add(sum);
                });
        }
    }
    rt.taskwait();
    let time = start.elapsed();
    let checksum = accumulators
        .iter()
        .fold(0u64, |a, acc| a.wrapping_add(rt.fetch(acc)));
    let stats = rt.stats();
    rt.shutdown();
    PipeRow {
        label,
        time,
        checksum,
        stats,
    }
}

fn chunked_pipeline_section(workers: usize, iters: usize) {
    println!("\n=== Region-granularity renaming (chunked 2-stage pipeline) ===\n");
    println!(
        "{PIPE_CHUNKS} bands x {PIPE_CHUNK_ELEMS} elems, {iters} iterations, {workers} workers, no inter-iteration barrier\n"
    );
    // The spawn loop runs `iters` iterations ahead of the workers with no
    // barrier, so the automatic variant needs a version window as deep as
    // the pipeline (the role of Listing 1's ring depth N) — otherwise the
    // per-chunk bound triggers backpressure fallbacks, which *serialise*
    // (correct, but reintroducing the WAR/WAW edges this scenario shows
    // renaming removes).
    let base = RuntimeConfig::default()
        .with_workers(workers)
        .with_rename_max_versions(iters + 1)
        .with_rename_pool_depth(iters + 1);
    let rows = [
        run_chunked(
            "serialised (no renaming)",
            base.clone().with_renaming(false),
            PipeMode::Versioned,
            iters,
        ),
        run_chunked(
            "manual ring (depth 2)",
            base.clone(),
            PipeMode::ManualRing { depth: 2 },
            iters,
        ),
        run_chunked("automatic per-chunk", base.clone(), PipeMode::Versioned, iters),
    ];
    println!(
        "{:<28}{:>12}{:>10}{:>8}{:>8}{:>8}{:>9}{:>9}",
        "variant", "time", "edges", "RAW", "WAR", "WAW", "renames", "deps"
    );
    for row in &rows {
        assert_eq!(
            row.checksum, rows[0].checksum,
            "{}: wrong pipeline output",
            row.label
        );
        println!(
            "{:<28}{:>12.3?}{:>10}{:>8}{:>8}{:>8}{:>9}{:>9}",
            row.label,
            row.time,
            row.stats.edges_added,
            row.stats.raw_edges,
            row.stats.war_edges,
            row.stats.waw_edges,
            row.stats.chunk_renames,
            row.stats.dependences_seen,
        );
    }
    let auto = &rows[2];
    assert_eq!(
        auto.stats.war_edges + auto.stats.waw_edges,
        0,
        "per-chunk renaming must remove every WAR/WAW edge of the chunked pipeline"
    );
    assert!(
        auto.stats.chunk_renames + auto.stats.renames_elided > 0,
        "the automatic variant renames (or elides) at chunk granularity"
    );
    assert!(
        auto.stats.dependences_seen < rows[0].stats.dependences_seen,
        "per-chunk renaming must remove band conflicts ({} vs {})",
        auto.stats.dependences_seen,
        rows[0].stats.dependences_seen,
    );
    println!(
        "\nautomatic per-chunk: {} chunk renames ({} recycled), {} elided, {} fallbacks, WAR+WAW = 0",
        auto.stats.chunk_renames,
        auto.stats.renames_recycled,
        auto.stats.renames_elided,
        auto.stats.rename_fallbacks,
    );
}

// ---------------------------------------------------------------------------
// Scenario 3: tracker-sharding spawn-rate ablation
// ---------------------------------------------------------------------------

/// Spawner-thread counts exercised by the spawn-rate scenario.
const SPAWNER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard count of the "sharded" configuration (the acceptance bar is N ≥ 4).
const SHARDED: usize = 8;

/// Spawn `per_spawner` tasks from each of `spawners` OS threads into one
/// runtime and return the insertion rate (tasks/second over the spawn phase
/// only) plus the runtime stats. Every task takes real tracker work: an
/// `inout` chain edge on its spawner's private cell and an `input` on a
/// rotating feed handle.
fn spawn_rate_run(shards: usize, spawners: usize, per_spawner: usize) -> (f64, RuntimeStats) {
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_shards(shards)
            // This scenario isolates *sharding*, in the tracker's reference
            // configuration (every gate acquisition announces itself and
            // waits, every retirement goes through the inbox) so that what
            // varies between the rows is the shard count alone. The
            // fast-path ablation below compares try-first vs forced-locked
            // explicitly.
            .with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1)),
    );
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spawners {
            let rt = &rt;
            scope.spawn(move || {
                let chain = rt.data(0u64);
                let feeds: Vec<Data<u64>> = (0..8).map(|_| rt.data(1u64)).collect();
                for i in 0..per_spawner {
                    let c = chain.clone();
                    let f = feeds[i % feeds.len()].clone();
                    rt.task().inout(&c).input(&f).spawn(move |ctx| {
                        let add = *ctx.read(&f);
                        let mut c = ctx.write(&c);
                        *c = c.wrapping_add(add);
                    });
                }
            });
        }
    });
    let spawn_time = start.elapsed();
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(
        stats.tasks_spawned as usize,
        spawners * per_spawner,
        "spawn-rate run lost tasks"
    );
    assert_eq!(stats.tasks_executed, stats.tasks_spawned);
    let rate = (spawners * per_spawner) as f64 / spawn_time.as_secs_f64();
    rt.shutdown();
    (rate, stats)
}

/// Best-of-3 insertion rate (suppresses scheduler noise on busy hosts).
fn spawn_rate_best(shards: usize, spawners: usize, per_spawner: usize) -> (f64, RuntimeStats) {
    let mut best: Option<(f64, RuntimeStats)> = None;
    for _ in 0..3 {
        let (rate, stats) = spawn_rate_run(shards, spawners, per_spawner);
        if best.as_ref().is_none_or(|(b, _)| rate > *b) {
            best = Some((rate, stats));
        }
    }
    best.expect("three runs happened")
}

/// Single-access insertion rate: every task declares exactly one `output`
/// on one of `CELLS` per-spawner plain cells, so (with the fast path on)
/// nearly every registration takes its one gate at the first try. Returns
/// insertions/sec over the spawn phase and the runtime stats.
fn single_access_rate(
    fast_path: bool,
    recycler: bool,
    spawners: usize,
    per_spawner: usize,
) -> (f64, RuntimeStats) {
    const CELLS: usize = 64;
    let mut config = RuntimeConfig::default()
        .with_workers(2)
        .with_tracker_shards(SHARDED)
        .with_task_recycler(recycler);
    if !fast_path {
        config = config.with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1));
    }
    let rt = Runtime::new(config);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spawners {
            let rt = &rt;
            scope.spawn(move || {
                let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
                for i in 0..per_spawner {
                    let c = cells[i % cells.len()].clone();
                    rt.task().output(&c).spawn(move |ctx| {
                        *ctx.write(&c) = i as u64;
                    });
                }
            });
        }
    });
    let spawn_time = start.elapsed();
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned as usize, spawners * per_spawner);
    assert_eq!(stats.tasks_executed, stats.tasks_spawned);
    let rate = (spawners * per_spawner) as f64 / spawn_time.as_secs_f64();
    rt.shutdown();
    (rate, stats)
}

fn single_access_best(
    fast_path: bool,
    recycler: bool,
    spawners: usize,
    per_spawner: usize,
) -> (f64, RuntimeStats) {
    let mut best: Option<(f64, RuntimeStats)> = None;
    for _ in 0..3 {
        let (rate, stats) = single_access_rate(fast_path, recycler, spawners, per_spawner);
        if best.as_ref().is_none_or(|(b, _)| rate > *b) {
            best = Some((rate, stats));
        }
    }
    best.expect("three runs happened")
}

/// In-flight bound of the allocation-diet runs: spawners yield while more
/// tasks than this are outstanding. Keeps the working set inside the node
/// slab so recycling — not first-fill allocation — dominates, exactly the
/// steady state a long-running service sits in. (An unthrottled spawner on
/// a loaded host can run thousands of tasks ahead; every one of those needs
/// a fresh node whatever the recycler does.)
const DIET_IN_FLIGHT: usize = 512;

/// Full-spawn rate with in-flight backpressure (see [`DIET_IN_FLIGHT`]).
fn diet_rate(recycler: bool, spawners: usize, per_spawner: usize) -> (f64, RuntimeStats) {
    const CELLS: usize = 64;
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_shards(SHARDED)
            .with_task_recycler(recycler),
    );
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spawners {
            let rt = &rt;
            scope.spawn(move || {
                let cells: Vec<Data<u64>> = (0..CELLS).map(|_| rt.data(0u64)).collect();
                for i in 0..per_spawner {
                    while rt.in_flight_tasks() > DIET_IN_FLIGHT {
                        std::thread::yield_now();
                    }
                    let c = cells[i % cells.len()].clone();
                    rt.task().output(&c).spawn(move |ctx| {
                        *ctx.write(&c) = i as u64;
                    });
                }
            });
        }
    });
    rt.taskwait();
    let rate = (spawners * per_spawner) as f64 / start.elapsed().as_secs_f64();
    let stats = rt.stats();
    assert_eq!(stats.tasks_spawned as usize, spawners * per_spawner);
    rt.shutdown();
    (rate, stats)
}

fn diet_rate_best(recycler: bool, spawners: usize, per_spawner: usize) -> (f64, RuntimeStats) {
    let mut best: Option<(f64, RuntimeStats)> = None;
    for _ in 0..3 {
        let (rate, stats) = diet_rate(recycler, spawners, per_spawner);
        if best.as_ref().is_none_or(|(b, _)| rate > *b) {
            best = Some((rate, stats));
        }
    }
    best.expect("three runs happened")
}

/// The spawn-side allocation diet: full-spawn throughput with the task-node
/// recycler (and inline accesses/bodies) against the PR-4 configuration
/// (fast path on, one fresh node + access list + boxed body per spawn),
/// plus the recycler hit rate the diet lives on.
fn allocation_diet_section(per_spawner: usize) {
    println!("\n=== Spawn-side allocation diet (full-spawn, single-access tasks) ===\n");
    println!(
        "{per_spawner} single-`output` tasks per spawner thread over 64 cells, \
         {SHARDED} shards, ≤{DIET_IN_FLIGHT} in flight, best of 3\n"
    );
    println!(
        "{:<10}{:>16}{:>16}{:>10}{:>14}{:>14}",
        "spawners", "no recycler/s", "recycled/s", "speedup", "recycle rate", "inline rate"
    );
    let mut at_eight = None;
    for spawners in [1usize, 2, 4, 8] {
        let (base, _) = diet_rate_best(false, spawners, per_spawner);
        let (diet, diet_stats) = diet_rate_best(true, spawners, per_spawner);
        let recycle_rate = diet_stats.task_recycle_rate().unwrap_or(0.0);
        let inline_rate = diet_stats.access_inline_hits as f64
            / (diet_stats.access_inline_hits + diet_stats.access_inline_spills).max(1) as f64;
        println!(
            "{:<10}{:>16.0}{:>16.0}{:>9.2}x{:>13.1}%{:>13.1}%",
            spawners,
            base,
            diet,
            diet / base,
            100.0 * recycle_rate,
            100.0 * inline_rate,
        );
        if spawners == 8 {
            at_eight = Some((base, diet, diet_stats));
        }
    }
    let (base, diet, diet_stats) = at_eight.expect("8-spawner row ran");
    println!(
        "\nrecycler @ 8 spawners: {diet:.0} spawns/s vs {base:.0} without ({:.2}x, target 1.15x), \
         {} nodes recycled ({:.1}% hit rate), {} fresh",
        diet / base,
        diet_stats.task_nodes_recycled,
        100.0 * diet_stats.task_recycle_rate().unwrap_or(0.0),
        diet_stats.task_nodes_allocated,
    );
    // CI gates. With the in-flight bound, the slab fills once (≲ the bound
    // plus spawner overshoot) and everything after runs on recycled nodes —
    // a deterministic property as long as the run is long enough to
    // amortise the fill.
    if per_spawner * 8 >= 4 * DIET_IN_FLIGHT {
        assert!(
            diet_stats.task_recycle_rate().unwrap_or(0.0) >= 0.50,
            "the throttled single-access storm must recycle most nodes, got {:.1}%",
            100.0 * diet_stats.task_recycle_rate().unwrap_or(0.0),
        );
    }
    assert_eq!(
        diet_stats.access_inline_spills, 0,
        "single-access tasks never spill their access list"
    );
    // Throughput: the diet must never cost end-to-end spawn rate. On hosts
    // with real parallelism it wins outright (the ≥1.15x acceptance target
    // printed above); without, scheduling noise dominates — same core-aware
    // tolerance as the other end-to-end asserts in this harness.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tolerance = if cores >= 4 { 0.9 } else { 0.75 };
    assert!(
        diet >= base * tolerance,
        "the recycler must not be slower end to end: {diet:.0}/s vs {base:.0}/s \
         ({cores} hardware threads, tolerance {tolerance})"
    );
}

fn fast_path_section(per_spawner: usize) {
    println!("\n=== Optimistic-fast-path insertion ablation (single-access tasks) ===\n");
    println!(
        "{per_spawner} single-`output` tasks per spawner thread over 64 cells, \
         {SHARDED} shards, best of 3\n"
    );
    println!(
        "{:<10}{:>16}{:>16}{:>10}{:>12}{:>12}",
        "spawners", "locked/s", "optimistic/s", "speedup", "hit rate", "fallbacks"
    );
    let mut at_one = None;
    for spawners in [1usize, 2, 4, 8] {
        // Recycler on in both rows (the default): this section ablates the
        // tracker tier only; the allocation-diet section ablates the
        // recycler.
        let (locked, _) = single_access_best(false, true, spawners, per_spawner);
        let (fast, fast_stats) = single_access_best(true, true, spawners, per_spawner);
        let hit_rate = fast_stats.tracker_fast_path_rate().unwrap_or(0.0);
        println!(
            "{:<10}{:>16.0}{:>16.0}{:>9.2}x{:>11.1}%{:>12}",
            spawners,
            locked,
            fast,
            fast / locked,
            100.0 * hit_rate,
            fast_stats.tracker_fast_path_fallbacks,
        );
        if spawners == 1 {
            at_one = Some((locked, fast, hit_rate));
        }
    }
    let (locked, fast, hit_rate) = at_one.expect("spawner count 1 ran");
    println!(
        "\noptimistic @ 1 spawner (full spawn path): {fast:.0} insertions/s vs {locked:.0} \
         locked ({:.2}x), fast-path hit rate {:.1}%",
        fast / locked,
        100.0 * hit_rate,
    );
    // CI gate: the single-access workload must be fast-path dominated.
    assert!(
        hit_rate >= 0.90,
        "single-access workload must take the fast path >= 90% of the time, got {:.1}%",
        100.0 * hit_rate,
    );
    // The optimistic path must never *cost* end-to-end throughput. The
    // tracker is a modest slice of the full spawn path (builder, node
    // allocation, scheduling), so the end-to-end ratio hovers near 1.0 and
    // is noise-bound on hosts without real parallelism — same core-aware
    // tolerance as the sharding acceptance above.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tolerance = if cores >= 4 { 0.9 } else { 0.75 };
    assert!(
        fast >= locked * tolerance,
        "optimistic insertion must not be slower than the locked path: \
         {fast:.0}/s vs {locked:.0}/s ({cores} hardware threads, tolerance {tolerance})"
    );
}

fn spawn_rate_section(per_spawner: usize) {
    println!("\n=== Tracker-sharding spawn-rate ablation ===\n");
    println!(
        "{per_spawner} tasks per spawner thread, inout-chain + input accesses, best of 3\n"
    );
    println!(
        "{:<10}{:>16}{:>16}{:>10}{:>14}{:>14}",
        "spawners", "1 shard/s", format!("{SHARDED} shards/s"), "speedup", "contended(1)", "contended(N)"
    );
    let mut at_max = None;
    for spawners in SPAWNER_COUNTS {
        let (single, single_stats) = spawn_rate_best(1, spawners, per_spawner);
        let (sharded, sharded_stats) = spawn_rate_best(SHARDED, spawners, per_spawner);
        println!(
            "{:<10}{:>16.0}{:>16.0}{:>9.2}x{:>14}{:>14}",
            spawners,
            single,
            sharded,
            sharded / single,
            single_stats.tracker_lock_contention,
            sharded_stats.tracker_lock_contention,
        );
        if spawners == *SPAWNER_COUNTS.last().expect("non-empty") {
            at_max = Some((single, sharded, sharded_stats));
        }
    }
    let (single, sharded, sharded_stats) = at_max.expect("ran the max spawner count");
    let hits = &sharded_stats.tracker_shard_hits;
    let (min_hits, max_hits) = (
        hits.iter().copied().min().unwrap_or(0),
        hits.iter().copied().max().unwrap_or(0),
    );
    println!(
        "\nsharded @ {} spawners: {:.0} insertions/s vs {:.0} single-shard ({:.2}x), \
         shard hits min/max = {}/{}, contention rate {:.4}",
        SPAWNER_COUNTS[SPAWNER_COUNTS.len() - 1],
        sharded,
        single,
        sharded / single,
        min_hits,
        max_hits,
        sharded_stats.tracker_contention_rate().unwrap_or(0.0),
    );
    // Acceptance: sharded insertion throughput at the maximum spawner count
    // must match or beat the single global lock. On hosts with real
    // parallelism a 10% tolerance absorbs timer noise and the sharded
    // variant wins outright; with fewer than 4 hardware threads there is no
    // cross-thread contention for sharding to relieve and pure scheduling
    // noise dominates the ratio (±20% run to run on a 1-core container), so
    // the bound is widened to a sanity floor.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tolerance = if cores >= 4 { 0.9 } else { 0.7 };
    assert!(
        sharded >= single * tolerance,
        "sharded tracker ({SHARDED} shards) must not insert slower than the \
         single-shard tracker at {} spawner threads: {sharded:.0}/s vs {single:.0}/s \
         ({cores} hardware threads, tolerance {tolerance})",
        SPAWNER_COUNTS[SPAWNER_COUNTS.len() - 1],
    );
}

fn main() {
    let workers = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        });
    let frames = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(48);
    let pipeline_iters = std::env::args()
        .nth(3)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let spawn_tasks = std::env::args()
        .nth(4)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10_000);

    let params = Params {
        video: VideoParams {
            width: 320,
            height: 192,
            frames,
            gop: 8,
            seed: 19,
        },
        window: 6,
        pool: 10,
    };
    println!("=== Renaming ablation (h264dec pipeline, Listing 1) ===\n");
    println!(
        "{}x{} stream, {} frames, {} workers, manual ring depth N = {}\n",
        params.video.width, params.video.height, params.video.frames, workers, params.window
    );

    let stream = params.stream();
    let base = RuntimeConfig::default().with_workers(workers);
    let rows = [
        run(
            "serialised (no renaming)",
            &stream,
            &params,
            base.clone().with_renaming(false),
            true,
        ),
        run("manual RenameRing", &stream, &params, base.clone(), false),
        // Elision off: this row isolates the *renaming* effect (every
        // decoupled rebinding allocates), which keeps the conflict-count
        // comparison against the serialised row strict.
        run(
            "automatic renaming",
            &stream,
            &params,
            base.clone().with_rename_elision(false),
            true,
        ),
        // The default configuration: renames elide whenever the previous
        // round has fully retired (this pipeline's `taskwait on (rc)` gives
        // workers time to drain, so most rebindings elide).
        run("automatic + elision", &stream, &params, base.clone(), true),
    ];

    let seq = h264dec::run_seq(&params);
    println!(
        "{:<28}{:>12}{:>10}{:>10}{:>8}{:>8}{:>8}{:>9}",
        "variant", "time", "speedup", "edges", "RAW", "WAR", "WAW", "renames"
    );
    let serial_time = rows[0].time.as_secs_f64();
    for row in &rows {
        assert_eq!(row.checksum, seq, "{}: wrong decode output", row.label);
        println!(
            "{:<28}{:>12.3?}{:>9.2}x{:>10}{:>8}{:>8}{:>8}{:>9}",
            row.label,
            row.time,
            serial_time / row.time.as_secs_f64(),
            row.stats.edges_added,
            row.stats.raw_edges,
            row.stats.war_edges,
            row.stats.waw_edges,
            row.stats.renames,
        );
    }

    let auto = &rows[2];
    let manual = &rows[1];
    let eliding = &rows[3];
    println!(
        "\nautomatic renaming: {} renames, {} recycled ({:.0}% pool hit), {} fallbacks",
        auto.stats.renames,
        auto.stats.renames_recycled,
        100.0 * auto.stats.renames_recycled as f64 / auto.stats.renames.max(1) as f64,
        auto.stats.rename_fallbacks,
    );
    println!(
        "automatic + elision: {} renames, {} elided (in-place first writes), {} fallbacks",
        eliding.stats.renames, eliding.stats.renames_elided, eliding.stats.rename_fallbacks,
    );
    assert!(
        eliding.stats.renames + eliding.stats.renames_elided > 0,
        "the eliding variant still decouples every rebinding"
    );
    let ratio = auto.time.as_secs_f64() / manual.time.as_secs_f64();
    println!(
        "automatic vs manual: {:.2}x the manual time ({})",
        ratio,
        if ratio <= 1.10 {
            "within the 10% acceptance bound"
        } else {
            "OUTSIDE the 10% acceptance bound"
        }
    );
    // Edge counts only include edges whose predecessor was still in flight
    // at registration time, so they vary with host load. `dependences_seen`
    // counts every conflicting predecessor discovered at registration and
    // is deterministic: renaming must strictly shrink it (the renamed
    // buffers stop conflicting at all).
    println!(
        "dependences discovered at registration: serialised {}, automatic {}",
        rows[0].stats.dependences_seen, auto.stats.dependences_seen,
    );
    assert!(
        auto.stats.dependences_seen < rows[0].stats.dependences_seen,
        "renaming must remove buffer conflicts ({} vs {})",
        auto.stats.dependences_seen,
        rows[0].stats.dependences_seen,
    );

    chunked_pipeline_section(workers, pipeline_iters);
    spawn_rate_section(spawn_tasks);
    fast_path_section(spawn_tasks);
    allocation_diet_section(spawn_tasks);
}
