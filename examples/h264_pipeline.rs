//! The Section 3 case study as a runnable example: pipelining the H.264
//! decoder main loop with OmpSs tasks (Listing 1 of the paper).
//!
//! The example builds a synthetic encoded stream, then decodes it four
//! times — sequentially, with a hand-rolled Pthreads-style pipeline, with
//! the Listing-1 OmpSs task pipeline (manual `RenameRing` buffers), and
//! with the runtime's automatic renaming (versioned handles, no manual
//! buffer management) — and verifies all four produce identical video.
//!
//! Run with `cargo run --release --example h264_pipeline [workers]`.

use std::time::Instant;

use benchsuite::benchmarks::h264dec::{self, Params};
use kernels::h264::VideoParams;
use ompss::{Runtime, RuntimeConfig};

fn main() {
    let workers = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        });

    let params = Params {
        video: VideoParams {
            width: 160,
            height: 96,
            frames: 24,
            gop: 6,
            seed: 42,
        },
        window: 4,
        pool: 8,
    };
    println!(
        "decoding a synthetic {}x{} stream, {} frames, ring depth N = {}",
        params.video.width, params.video.height, params.video.frames, params.window
    );

    let t = Instant::now();
    let seq = h264dec::run_seq(&params);
    println!("sequential:        {:>10.3?}", t.elapsed());

    let t = Instant::now();
    let pth = h264dec::run_pthreads(&params, workers);
    println!("pthreads pipeline: {:>10.3?}", t.elapsed());

    let rt_manual = Runtime::new(RuntimeConfig::default().with_workers(workers));
    let t = Instant::now();
    let omp_manual = h264dec::run_ompss_manual(&params, &rt_manual);
    println!(
        "ompss manual ring: {:>10.3?}  ({} workers, ring depth {})",
        t.elapsed(),
        workers,
        params.window
    );

    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(workers)
            .with_tracing(true),
    );
    let t = Instant::now();
    let omp = h264dec::run_ompss(&params, &rt);
    println!(
        "ompss auto rename: {:>10.3?}  ({} workers)",
        t.elapsed(),
        workers
    );

    assert_eq!(seq, pth, "pthreads output differs from sequential");
    assert_eq!(
        seq, omp_manual,
        "manual ompss output differs from sequential"
    );
    assert_eq!(seq, omp, "ompss output differs from sequential");
    println!("all variants decoded identical video (checksum {seq:#018x})");

    let stats = rt.stats();
    println!(
        "\nOmpSs task graph (auto renaming): {} tasks, {} dependence edges ({:.2} per task,\n\
         {} RAW / {} WAR / {} WAW), {} taskwait_on calls",
        stats.tasks_spawned,
        stats.edges_added,
        stats.mean_edges_per_task(),
        stats.raw_edges,
        stats.war_edges,
        stats.waw_edges,
        stats.taskwait_ons
    );
    println!(
        "renaming: {} versions allocated, {} recycled, {} fallbacks, {} bytes held",
        stats.renames, stats.renames_recycled, stats.rename_fallbacks, stats.rename_bytes_held
    );
    println!(
        "\nThe read/parse/entropy/reconstruct/output tasks of each iteration are chained by\n\
         their inout context arguments. In the manual variant, iterations are decoupled by\n\
         Listing 1's circular buffers of depth N; in the automatic variant the runtime\n\
         renames each output access to a fresh version — no buffer management in user code."
    );
}
