//! Uniform entry point for running any benchmark in any variant.

use ompss::{Runtime, RuntimeConfig};

use crate::benchmarks::*;

/// Which implementation of a benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain sequential loop.
    Sequential,
    /// Manual threading (Pthreads style).
    Pthreads,
    /// Task annotations on the OmpSs-style runtime.
    Ompss,
}

/// Names of the 10 benchmarks, in Table 1 order.
pub fn benchmark_names() -> Vec<&'static str> {
    vec![
        "c-ray",
        "rotate",
        "rgbcmy",
        "md5",
        "kmeans",
        "ray-rot",
        "rot-cc",
        "streamcluster",
        "bodytrack",
        "h264dec",
    ]
}

/// Captured-replay companions of the Table-1 rows: same kernels, but the
/// OmpSs variant stamps its task graph through `Runtime::replay` /
/// `Runtime::replay_fused` instead of fresh per-task spawns. They run
/// through [`run_benchmark`] / [`verify_benchmark`] like any other name; the
/// ledger's `table1.*` workloads time them next to their fresh-spawn rows.
pub fn captured_benchmark_names() -> Vec<&'static str> {
    vec!["rotate-cap", "h264dec-cap"]
}

/// Dispatch with explicit per-variant entry points (the captured rows swap
/// in `run_*_captured` functions where the workload differs from the base
/// row).
macro_rules! dispatch_fns {
    ($module:ident, $seq:ident, $pthreads:ident, $ompss:ident,
     $variant:expr, $threads:expr) => {{
        let params = $module::Params::small();
        match $variant {
            Variant::Sequential => $module::$seq(&params),
            Variant::Pthreads => $module::$pthreads(&params, $threads),
            Variant::Ompss => {
                let rt = Runtime::new(RuntimeConfig::default().with_workers($threads));
                let checksum = $module::$ompss(&params, &rt);
                rt.shutdown();
                checksum
            }
        }
    }};
}

macro_rules! dispatch {
    ($module:ident, $variant:expr, $threads:expr) => {
        dispatch_fns!(
            $module,
            run_seq,
            run_pthreads,
            run_ompss,
            $variant,
            $threads
        )
    };
}

/// Run `name` in the given variant with `threads` workers on its small
/// (correctness-test) input and return the checksum of the output, which is
/// identical across variants.
///
/// # Panics
/// Panics if `name` is not one of [`benchmark_names`] or
/// [`captured_benchmark_names`], or if `threads == 0`.
pub fn run_benchmark(name: &str, variant: Variant, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    match name {
        "c-ray" => dispatch!(cray, variant, threads),
        "rotate" => dispatch!(rotate, variant, threads),
        "rgbcmy" => dispatch!(rgbcmy, variant, threads),
        "md5" => dispatch!(md5, variant, threads),
        "kmeans" => dispatch!(kmeans, variant, threads),
        "ray-rot" => dispatch!(rayrot, variant, threads),
        "rot-cc" => dispatch!(rotcc, variant, threads),
        "streamcluster" => dispatch!(streamcluster, variant, threads),
        "bodytrack" => dispatch!(bodytrack, variant, threads),
        "h264dec" => dispatch!(h264dec, variant, threads),
        // The captured-replay companions. `rotate-cap` sweeps the rotation
        // CAPTURE_SWEEPS times in every variant (isolating per-sweep
        // insertion); `h264dec-cap` decodes the same stream as `h264dec`,
        // replaying the captured frame iteration instead of re-spawning it.
        "rotate-cap" => dispatch_fns!(
            rotate,
            run_seq_captured,
            run_pthreads_captured,
            run_ompss_captured,
            variant,
            threads
        ),
        "h264dec-cap" => dispatch_fns!(
            h264dec,
            run_seq,
            run_pthreads,
            run_ompss_captured,
            variant,
            threads
        ),
        other => panic!("unknown benchmark {other}"),
    }
}

/// Run all three variants of `name` and check that they produce identical
/// output. Returns the common checksum.
///
/// # Panics
/// Panics if the variants disagree.
pub fn verify_benchmark(name: &str, threads: usize) -> u64 {
    let seq = run_benchmark(name, Variant::Sequential, 1);
    let pthreads = run_benchmark(name, Variant::Pthreads, threads);
    let ompss = run_benchmark(name, Variant::Ompss, threads);
    assert_eq!(
        seq, pthreads,
        "{name}: pthreads variant diverges from sequential"
    );
    assert_eq!(
        seq, ompss,
        "{name}: ompss variant diverges from sequential"
    );
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_the_paper_table() {
        assert_eq!(benchmark_names().len(), 10);
        assert!(benchmark_names().contains(&"h264dec"));
        // Captured rows are companions, not paper rows.
        for cap in captured_benchmark_names() {
            assert!(cap.ends_with("-cap"));
            assert!(!benchmark_names().contains(&cap));
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let _ = run_benchmark("doom3", Variant::Sequential, 1);
    }

    #[test]
    fn run_benchmark_produces_a_result() {
        let checksum = run_benchmark("md5", Variant::Sequential, 1);
        assert!(checksum != 0);
    }

    #[test]
    fn verify_a_cheap_benchmark() {
        // Full verification of every benchmark lives in the workspace-level
        // integration tests; here we just exercise the helper.
        let c = verify_benchmark("md5", 2);
        assert_ne!(c, 0);
    }
}
