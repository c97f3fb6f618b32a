//! The Section 4 `rgbcmy` claim: at high core counts, the polling task
//! barrier of the OmpSs runtime is cheaper than the blocking thread barrier
//! of the Pthreads version, which matters when iterations are short.
//!
//! Two experiments:
//!
//! 1. **Simulated** (paper scale): the rgbcmy workload on the 32-core
//!    machine model, with the Pthreads model using either its blocking
//!    barrier or (hypothetically) the cheap polling barrier — the speedup
//!    difference isolates the barrier cost.
//! 2. **Measured** (host scale): the raw per-episode cost of the two barrier
//!    flavours from `threadkit` — a spinning barrier that polls a generation
//!    word and a blocking, condvar-based one — measured directly.

use std::time::Instant;

use simsched::machine::MachineParams;
use simsched::workloads::{workload, Structure};
use simsched::{ompss as sim_ompss, pthreads as sim_pthreads};
use threadkit::{BlockingBarrier, SpinBarrier};

fn main() {
    println!("=== Barrier ablation (rgbcmy, Section 4) ===\n");

    // --- Simulated at paper scale -----------------------------------------
    let machine = MachineParams::default();
    let cheap_barrier_machine = MachineParams {
        // A Pthreads version with an OmpSs-like polling barrier: the blocking
        // barrier cost is replaced by the polling one.
        blocking_barrier_base_ns: machine.polling_barrier_base_ns,
        blocking_barrier_per_core_ns: machine.polling_barrier_per_core_ns,
        ..machine.clone()
    };
    let w = workload("rgbcmy");
    let phases = match &w.structure {
        Structure::Phased(p) => p.clone(),
        _ => unreachable!("rgbcmy is phased"),
    };
    println!("simulated OmpSs-over-Pthreads speedup for rgbcmy:");
    println!(
        "{:<10}{:>22}{:>26}",
        "cores", "blocking barrier", "polling barrier (ablated)"
    );
    for cores in simsched::PAPER_CORE_COUNTS {
        let ompss_t = sim_ompss::phased_time_ns(&phases, cores, &machine, true);
        let pth_blocking = sim_pthreads::phased_time_ns(&phases, cores, &machine);
        let pth_polling = sim_pthreads::phased_time_ns(&phases, cores, &cheap_barrier_machine);
        println!(
            "{:<10}{:>22.2}{:>26.2}",
            cores,
            pth_blocking as f64 / ompss_t as f64,
            pth_polling as f64 / ompss_t as f64,
        );
    }
    println!(
        "\nWith the blocking barrier replaced by a polling one, the Pthreads\n\
         version catches up: the OmpSs advantage on rgbcmy is the barrier."
    );

    // --- Measured on the host ----------------------------------------------
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2);
    let episodes = 2_000;
    println!("\nmeasured barrier cost on this host ({threads} threads, {episodes} episodes):");
    let spin = SpinBarrier::new(threads);
    let blocking = BlockingBarrier::new(threads);
    time_episodes("polling (spin)", threads, episodes, || spin.wait());
    time_episodes("blocking", threads, episodes, || blocking.wait());
}

/// Run `episodes` barrier episodes on `threads` threads and print the cost.
fn time_episodes(label: &str, threads: usize, episodes: usize, wait: impl Fn() -> bool + Sync) {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..episodes {
                    wait();
                }
            });
        }
    });
    let elapsed = start.elapsed();
    println!(
        "  {label:<15}{elapsed:>10.2?} total, {:>8.0} ns per episode",
        elapsed.as_nanos() as f64 / episodes as f64
    );
}
