//! # threadkit — a Pthreads-equivalent manual threading substrate
//!
//! The paper compares OmpSs against hand-written POSIX-threads
//! implementations of every benchmark. This crate provides, in Rust, the
//! primitives those hand-written versions are built from, so that the
//! `benchsuite` crate can express its "Pthreads variant" of each benchmark
//! the same way the original C code does:
//!
//! * [`ThreadTeam`] — a persistent SPMD team of worker threads: every call to
//!   [`ThreadTeam::run`] executes the same closure on all members
//!   (fork-join, like `pthread_create` once + per-phase barriers).
//! * [`BlockingBarrier`] / [`SpinBarrier`] — the classic
//!   `pthread_barrier_t`-style blocking barrier and a busy-waiting
//!   alternative (the distinction Section 4 of the paper uses to explain the
//!   `rgbcmy` results).
//! * [`BoundedQueue`] — a mutex/condvar bounded MPMC queue, the building
//!   block of hand-rolled pipelines.
//! * [`Pipeline`] — a thread-per-stage pipeline connected by bounded queues
//!   (what the Pthreads `h264dec` uses instead of task annotations).
//! * [`partition`] — static work-partitioning helpers (blocks and chunks).
//!
//! That list is the whole crate: a primitive no Pthreads variant is built
//! from does not live here.
//!
//! ## Workspace role
//!
//! `threadkit` is the *baseline* side of the paper's comparison: it contains
//! no task graph, no dependence analysis and no renaming — concurrency is
//! expressed structurally (teams, barriers, queues) exactly as in the
//! hand-written Pthreads benchmarks. The task-dataflow counterpart lives in
//! the `ompss` crate; the `benchsuite` crate implements every benchmark
//! against both, and the `bench-harness` binaries compare them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barrier;
pub mod partition;
pub mod pipeline;
pub mod queue;
pub mod team;

pub use barrier::{BlockingBarrier, SpinBarrier};
pub use pipeline::{Pipeline, PipelineStats};
pub use queue::{BoundedQueue, QueueClosed};
pub use team::{TeamCtx, ThreadTeam};
