//! The Section 3 case study: pipelining the H.264 decoder main loop with
//! OmpSs tasks (Listing 1).
//!
//! Runs the sequential, Pthreads-pipeline and OmpSs-task variants of the
//! synthetic decoder on the host, verifies they produce identical output,
//! and reports the task-graph statistics of the OmpSs variant (tasks,
//! dependence edges, locality hit rate) — the quantities that make the
//! expressiveness discussion of Section 3 concrete.

use std::time::Instant;

use benchsuite::benchmarks::h264dec;
use ompss::{Runtime, RuntimeConfig};

fn main() {
    let threads = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        });
    let params = h264dec::Params::large();
    println!("=== H.264 pipeline case study (Listing 1) ===");
    println!(
        "stream: {}x{} pixels, {} frames, GOP {}, ring depth N={}",
        params.video.width,
        params.video.height,
        params.video.frames,
        params.video.gop,
        params.window
    );

    let t0 = Instant::now();
    let seq = h264dec::run_seq(&params);
    let seq_time = t0.elapsed();
    println!("sequential decode:        {seq_time:>12.3?}  checksum {seq:#018x}");

    let t0 = Instant::now();
    let pth = h264dec::run_pthreads(&params, threads);
    let pth_time = t0.elapsed();
    println!("pthreads pipeline:        {pth_time:>12.3?}  checksum {pth:#018x}");

    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(threads)
            .with_tracing(true),
    );
    let t0 = Instant::now();
    let omp = h264dec::run_ompss(&params, &rt);
    let omp_time = t0.elapsed();
    println!("ompss task pipeline:      {omp_time:>12.3?}  checksum {omp:#018x}");

    assert_eq!(
        seq, pth,
        "pthreads output must match the sequential decoder"
    );
    assert_eq!(seq, omp, "ompss output must match the sequential decoder");
    println!("all three variants produce identical decoded video ✔");

    let stats = rt.stats();
    println!("\n--- OmpSs task-graph statistics ---");
    println!("tasks spawned:            {}", stats.tasks_spawned);
    println!("dependence edges:         {}", stats.edges_added);
    println!(
        "edges per task:           {:.2}",
        stats.mean_edges_per_task()
    );
    println!("immediately ready tasks:  {}", stats.immediately_ready);
    println!("taskwait_on calls (EOF):  {}", stats.taskwait_ons);
    println!(
        "locality hit rate:        {}",
        stats
            .locality_hit_rate()
            .map(|r| format!("{:.1} %", 100.0 * r))
            .unwrap_or_else(|| "n/a".to_string())
    );
    let busy = rt.busy_ns_per_worker();
    println!("busy time per worker:     {busy:?} ns");
    println!(
        "\nspeedup over sequential:  pthreads {:.2}x, ompss {:.2}x (on {} worker threads)",
        seq_time.as_secs_f64() / pth_time.as_secs_f64(),
        seq_time.as_secs_f64() / omp_time.as_secs_f64(),
        threads
    );
}
