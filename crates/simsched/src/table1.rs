//! Regeneration of Table 1: speedup of the OmpSs variant over the Pthreads
//! variant for every benchmark at 1, 8, 16, 24 and 32 cores, plus geometric
//! means, and the paper's published values for side-by-side comparison.

use crate::machine::MachineParams;
use crate::workloads::{all_workloads, BenchmarkWorkload};
use crate::{ompss, pthreads};

/// The core counts of Table 1.
pub const PAPER_CORE_COUNTS: [usize; 5] = [1, 8, 16, 24, 32];

/// One row of Table 1: a benchmark and its OmpSs-over-Pthreads speedups.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Speedup (Pthreads time / OmpSs time) at each of
    /// [`PAPER_CORE_COUNTS`].
    pub speedups: Vec<f64>,
}

impl Table1Row {
    /// Geometric mean over the row's core counts (the paper's "Mean"
    /// column).
    pub fn mean(&self) -> f64 {
        geometric_mean(&self.speedups)
    }
}

/// A complete Table 1 (one row per benchmark plus the column means).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Core counts of the columns.
    pub core_counts: Vec<usize>,
    /// Rows in benchmark order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Geometric mean of each column (the paper's bottom "Mean" row).
    pub fn column_means(&self) -> Vec<f64> {
        (0..self.core_counts.len())
            .map(|c| geometric_mean(&self.rows.iter().map(|r| r.speedups[c]).collect::<Vec<_>>()))
            .collect()
    }

    /// Geometric mean over every cell (the paper's overall "2% faster"
    /// claim corresponds to this value being ≈ 1.02).
    pub fn overall_mean(&self) -> f64 {
        let all: Vec<f64> = self.rows.iter().flat_map(|r| r.speedups.clone()).collect();
        geometric_mean(&all)
    }

    /// Look up a row by benchmark name.
    pub fn row(&self, name: &str) -> Option<&Table1Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Render the table in the paper's layout.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{title}\n"));
        out.push_str(&format!("{:<14}", "Benchmark"));
        for c in &self.core_counts {
            out.push_str(&format!("{c:>7}"));
        }
        out.push_str(&format!("{:>7}\n", "Mean"));
        for row in &self.rows {
            out.push_str(&format!("{:<14}", row.name));
            for s in &row.speedups {
                out.push_str(&format!("{s:>7.2}"));
            }
            out.push_str(&format!("{:>7.2}\n", row.mean()));
        }
        out.push_str(&format!("{:<14}", "Mean"));
        for m in self.column_means() {
            out.push_str(&format!("{m:>7.2}"));
        }
        out.push_str(&format!("{:>7.2}\n", self.overall_mean()));
        out
    }
}

/// Geometric mean of a slice of positive values (0 for an empty slice).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Simulate one benchmark at one core count, returning
/// `(ompss_time_ns, pthreads_time_ns)`.
pub fn simulate_benchmark(
    workload: &BenchmarkWorkload,
    cores: usize,
    machine: &MachineParams,
) -> (u64, u64) {
    (
        ompss::execution_time_ns(workload, cores, machine),
        pthreads::execution_time_ns(workload, cores, machine),
    )
}

/// Regenerate Table 1 with the simulator.
pub fn simulate_table1(machine: &MachineParams) -> Table1 {
    let core_counts: Vec<usize> = PAPER_CORE_COUNTS
        .iter()
        .copied()
        .filter(|&c| c <= machine.max_cores)
        .collect();
    let rows = all_workloads()
        .iter()
        .map(|w| {
            let speedups = core_counts
                .iter()
                .map(|&cores| {
                    let (o, p) = simulate_benchmark(w, cores, machine);
                    p as f64 / o as f64
                })
                .collect();
            Table1Row {
                name: w.name.to_string(),
                speedups,
            }
        })
        .collect();
    Table1 { core_counts, rows }
}

/// The values published in the paper's Table 1 (used for comparison in the
/// harness output and in EXPERIMENTS.md).
pub fn paper_table1() -> Table1 {
    let data: [(&str, [f64; 5]); 10] = [
        ("c-ray", [1.03, 1.11, 1.12, 1.11, 1.14]),
        ("rotate", [1.06, 1.04, 1.09, 1.02, 0.86]),
        ("rgbcmy", [1.02, 0.98, 1.14, 1.40, 1.53]),
        ("md5", [1.00, 1.02, 1.10, 1.14, 1.05]),
        ("kmeans", [0.91, 0.87, 1.30, 0.95, 0.88]),
        ("ray-rot", [1.02, 1.10, 1.65, 1.46, 1.20]),
        ("rot-cc", [1.00, 1.06, 1.17, 1.14, 1.04]),
        ("streamcluster", [0.93, 0.84, 0.91, 0.99, 0.99]),
        ("bodytrack", [0.98, 0.99, 1.05, 0.97, 1.00]),
        ("h264dec", [0.94, 1.07, 0.87, 0.57, 0.42]),
    ];
    Table1 {
        core_counts: PAPER_CORE_COUNTS.to_vec(),
        rows: data
            .iter()
            .map(|(name, speedups)| Table1Row {
                name: name.to_string(),
                speedups: speedups.to_vec(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_table_matches_published_means() {
        let t = paper_table1();
        assert_eq!(t.rows.len(), 10);
        // Row means as printed in the paper (±0.01 rounding).
        assert!((t.row("c-ray").unwrap().mean() - 1.10).abs() < 0.015);
        assert!((t.row("rgbcmy").unwrap().mean() - 1.19).abs() < 0.015);
        assert!((t.row("ray-rot").unwrap().mean() - 1.27).abs() < 0.015);
        assert!((t.row("h264dec").unwrap().mean() - 0.73).abs() < 0.015);
        // Overall mean is the paper's "2 % better" claim.
        assert!((t.overall_mean() - 1.02).abs() < 0.02);
        // Column means of the paper: 0.99, 1.00, 1.12, 1.05, 0.97.
        let cols = t.column_means();
        let expected = [0.99, 1.00, 1.12, 1.05, 0.97];
        for (c, e) in cols.iter().zip(expected.iter()) {
            assert!((c - e).abs() < 0.02, "column mean {c} vs paper {e}");
        }
    }

    #[test]
    fn simulated_table_has_full_shape() {
        let t = simulate_table1(&MachineParams::default());
        assert_eq!(t.core_counts, vec![1, 8, 16, 24, 32]);
        assert_eq!(t.rows.len(), 10);
        for row in &t.rows {
            assert_eq!(row.speedups.len(), 5);
            for &s in &row.speedups {
                assert!(s > 0.1 && s < 10.0, "{}: implausible speedup {s}", row.name);
            }
        }
        let rendered = t.render("simulated");
        assert!(rendered.contains("h264dec"));
        assert!(rendered.contains("Mean"));
    }

    #[test]
    fn simulated_table_reproduces_headline_shapes() {
        let t = simulate_table1(&MachineParams::default());
        // (1) At one core the two models are close everywhere (the fused
        //     workloads retain a modest locality advantage even on one core
        //     in our cache model, hence the wider tolerance).
        for row in &t.rows {
            assert!(
                (row.speedups[0] - 1.0).abs() < 0.20,
                "{} at 1 core: {}",
                row.name,
                row.speedups[0]
            );
        }
        // (2) rgbcmy: OmpSs advantage grows with the core count and is
        //     substantial at 32 cores (polling vs blocking barrier).
        let rgbcmy = t.row("rgbcmy").unwrap();
        assert!(
            rgbcmy.speedups[4] > 1.20,
            "rgbcmy at 32: {}",
            rgbcmy.speedups[4]
        );
        assert!(rgbcmy.speedups[4] > rgbcmy.speedups[1]);
        // (3) ray-rot beats both of its components thanks to locality.
        let ray_rot = t.row("ray-rot").unwrap();
        let c_ray = t.row("c-ray").unwrap();
        let rotate = t.row("rotate").unwrap();
        assert!(ray_rot.speedups[2] > c_ray.speedups[2]);
        assert!(ray_rot.speedups[2] > rotate.speedups[2]);
        assert!(
            ray_rot.speedups[2] > c_ray.speedups[2] * rotate.speedups[2],
            "fused speedup must exceed the product of the parts"
        );
        // (4) h264dec: OmpSs roughly competitive at 8 cores, clearly losing
        //     at 24 and 32 cores.
        let h264 = t.row("h264dec").unwrap();
        assert!(
            h264.speedups[1] > 0.85,
            "h264dec at 8: {}",
            h264.speedups[1]
        );
        assert!(
            h264.speedups[3] < 0.80,
            "h264dec at 24: {}",
            h264.speedups[3]
        );
        assert!(
            h264.speedups[4] < 0.65,
            "h264dec at 32: {}",
            h264.speedups[4]
        );
        assert!(h264.speedups[4] < h264.speedups[1]);
        // (5) The overall mean stays close to parity (the paper reports
        //     +2 %).
        let overall = t.overall_mean();
        assert!(
            overall > 0.90 && overall < 1.25,
            "overall mean should stay near parity: {overall}"
        );
    }

    #[test]
    fn machine_with_fewer_cores_truncates_columns() {
        let m = MachineParams {
            max_cores: 16,
            ..MachineParams::default()
        };
        let t = simulate_table1(&m);
        assert_eq!(t.core_counts, vec![1, 8, 16]);
    }
}
