//! # benchsuite — the paper's 10-benchmark suite, three variants each
//!
//! For every benchmark of Table 1 this crate provides three implementations
//! that perform bit-identical computations (verified by checksums):
//!
//! * **sequential** — a plain loop over the kernel functions from the
//!   `kernels` crate;
//! * **pthreads** — manual threading in the style of the paper's POSIX
//!   threads variants, built from the `threadkit` substrate (thread teams,
//!   blocking barriers, static partitioning, bounded-queue pipelines);
//! * **ompss** — task annotations in the style of the paper's OmpSs
//!   variants, built on the `ompss` runtime (`input`/`output`/`inout`
//!   clauses, `taskwait`, `taskwait_on`, renaming rings, critical sections).
//!
//! Both parallel variants of a benchmark exploit *the same parallelism*
//! (same work units, same phase structure), mirroring the paper's
//! methodology; only the way that parallelism is expressed and scheduled
//! differs.
//!
//! [`runner`] dispatches a benchmark name and variant to its implementation
//! and returns the output checksum; the integration tests use it to check
//! the variants against each other. Nothing is timed here — every measured
//! number comes from `ledger/`, which drives [`benchmarks`] directly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod benchmarks;
pub mod runner;

pub use runner::{
    benchmark_names, captured_benchmark_names, run_benchmark, verify_benchmark, Variant,
};
