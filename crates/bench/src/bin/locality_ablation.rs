//! The Section 4 `ray-rot` claim: the OmpSs scheduler places dependent tasks
//! back to back on the same core, so the fused ray-rot workload speeds up by
//! more than the product of its parts.
//!
//! Two experiments:
//!
//! 1. **Simulated** (paper scale): c-ray, rotate and ray-rot on the 32-core
//!    model, with the OmpSs locality scheduler enabled and disabled.
//! 2. **Measured** (host scale): the locality hit rate the real runtime
//!    achieves on the chained rot-cc benchmark, taken from runtime
//!    statistics.

use benchsuite::benchmarks::rotcc;
use ompss::{Runtime, RuntimeConfig, SchedulerPolicy};
use simsched::machine::MachineParams;
use simsched::workloads::{workload, Structure};
use simsched::{ompss as sim_ompss, pthreads as sim_pthreads};

fn phases_of(name: &str) -> Vec<simsched::workloads::Phase> {
    match workload(name).structure {
        Structure::Phased(p) => p,
        _ => unreachable!("{name} is phased"),
    }
}

fn main() {
    println!("=== Locality ablation (ray-rot, Section 4) ===\n");
    let machine = MachineParams::default();

    println!("simulated OmpSs-over-Pthreads speedups with and without the locality scheduler:");
    println!(
        "{:<8}{:>12}{:>12}{:>14}{:>22}",
        "cores", "c-ray", "rotate", "ray-rot", "ray-rot (no locality)"
    );
    for cores in simsched::PAPER_CORE_COUNTS {
        let speedup = |name: &str, locality: bool| {
            let phases = phases_of(name);
            let o = sim_ompss::phased_time_ns(&phases, cores, &machine, locality);
            let p = sim_pthreads::phased_time_ns(&phases, cores, &machine);
            p as f64 / o as f64
        };
        println!(
            "{:<8}{:>12.2}{:>12.2}{:>14.2}{:>22.2}",
            cores,
            speedup("c-ray", true),
            speedup("rotate", true),
            speedup("ray-rot", true),
            speedup("ray-rot", false),
        );
    }
    println!(
        "\nWithout locality-aware wakeups the fused workload loses most of its\n\
         edge over the two kernels run separately — the paper's explanation."
    );

    // --- Measured on the host ----------------------------------------------
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    println!("\nmeasured locality hit rate of the real runtime on rot-cc ({threads} workers):");
    for (label, policy) in [
        (
            "locality work stealing",
            SchedulerPolicy::LocalityWorkStealing,
        ),
        ("plain work stealing", SchedulerPolicy::WorkStealing),
        ("global FIFO", SchedulerPolicy::Fifo),
    ] {
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(threads)
                .with_policy(policy)
                .with_tracing(true),
        );
        let params = rotcc::Params::large();
        let start = std::time::Instant::now();
        let _ = rotcc::run_ompss(&params, &rt);
        let elapsed = start.elapsed();
        let stats = rt.stats();
        println!(
            "  {label:<24} time {elapsed:>10.3?}   local wakeups {:>6}   global wakeups {:>6}   hit rate {}",
            stats.sched_local_wakeups,
            stats.sched_global_wakeups,
            stats
                .locality_hit_rate()
                .map(|r| format!("{:.1} %", 100.0 * r))
                .unwrap_or_else(|| "n/a".to_string()),
        );
    }
}
