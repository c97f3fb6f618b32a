//! Reproduce the paper's scaling study (Table 1) on the simulated 32-core
//! machine, and compare the shape against the published numbers.
//!
//! This is the example-sized version of the `table1` harness binary: it
//! prints the simulated speedup of the OmpSs variant over the Pthreads
//! variant for every benchmark at 1, 8, 16, 24 and 32 cores, the paper's
//! values, and a short per-claim comparison.
//!
//! Run with `cargo run --release --example scaling_study`.

use simsched::{paper_table1, simulate_table1, MachineParams};

fn main() {
    let machine = MachineParams::default();
    let simulated = simulate_table1(&machine);
    let paper = paper_table1();

    println!(
        "{}",
        simulated.render("Simulated Table 1 (this reproduction)")
    );
    println!("{}", paper.render("Published Table 1 (paper)"));

    println!("Headline claims:");
    let sim_rgbcmy = simulated.row("rgbcmy").unwrap();
    let paper_rgbcmy = paper.row("rgbcmy").unwrap();
    println!(
        "  rgbcmy at 32 cores (polling vs blocking barrier): simulated {:.2}, paper {:.2}",
        sim_rgbcmy.speedups[4], paper_rgbcmy.speedups[4]
    );
    let sim_rayrot = simulated.row("ray-rot").unwrap();
    let paper_rayrot = paper.row("ray-rot").unwrap();
    println!(
        "  ray-rot at 16 cores (locality scheduling):         simulated {:.2}, paper {:.2}",
        sim_rayrot.speedups[2], paper_rayrot.speedups[2]
    );
    let sim_h264 = simulated.row("h264dec").unwrap();
    let paper_h264 = paper.row("h264dec").unwrap();
    println!(
        "  h264dec at 32 cores (task-grouping limit):         simulated {:.2}, paper {:.2}",
        sim_h264.speedups[4], paper_h264.speedups[4]
    );
    println!(
        "  overall geometric mean:                            simulated {:.2}, paper {:.2}",
        simulated.overall_mean(),
        paper.overall_mean()
    );
}
