//! # ompss — an OpenMP Superscalar (OmpSs) style task-dataflow runtime
//!
//! This crate reimplements, in safe-by-construction Rust, the programming
//! model evaluated in *"Programming Parallel Embedded and Consumer
//! Applications in OpenMP Superscalar"* (Andersch, Chi, Juurlink — PPoPP
//! 2012): a task-based model in which functions are annotated as tasks
//! together with the *data accesses* they perform (`input`, `output`,
//! `inout`). When a task is spawned it is **not** executed immediately;
//! instead it is inserted into a task graph, and the runtime resolves the
//! data dependencies between tasks *at run time* from the declared accesses.
//! A task becomes ready once every one of its input dependencies has been
//! produced.
//!
//! ## Model mapping (OmpSs pragma → this crate)
//!
//! | OmpSs                                      | this crate                                   |
//! |--------------------------------------------|----------------------------------------------|
//! | `#pragma omp task input(a) output(b)`      | [`TaskBuilder::input`] / [`TaskBuilder::output`] |
//! | `inout(c)`                                 | [`TaskBuilder::inout`]                       |
//! | `concurrent(d)` (commutative accumulation) | [`TaskBuilder::concurrent`]                  |
//! | `#pragma omp taskwait`                     | [`Runtime::taskwait`]                        |
//! | `#pragma omp taskwait on (x)`              | [`Runtime::taskwait_on`]                     |
//! | `#pragma omp critical`                     | [`critical::CriticalSections`]               |
//! | task barrier (polling)                     | [`Runtime::taskwait`] (the waiter runs ready tasks) |
//! | circular-buffer manual renaming (Listing 1)| [`pipeline::RenameRing`]                     |
//! | automatic renaming (superscalar-style)     | [`Runtime::versioned_data`] + [`rename`]     |
//! | per-chunk renaming (region granularity)    | [`Runtime::versioned_partitioned`]           |
//!
//! ## Quick start
//!
//! ```
//! use ompss::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
//! let a = rt.data(vec![1u32; 64]);
//! let b = rt.data(vec![0u32; 64]);
//!
//! // Producer task: writes `a`.
//! {
//!     let a = a.clone();
//!     rt.task()
//!         .name("produce")
//!         .output(&a)
//!         .spawn(move |ctx| {
//!             let mut a = ctx.write(&a);
//!             for (i, v) in a.iter_mut().enumerate() {
//!                 *v = i as u32;
//!             }
//!         });
//! }
//! // Consumer task: reads `a`, writes `b`. The runtime inserts a
//! // read-after-write dependency automatically.
//! {
//!     let (a, b) = (a.clone(), b.clone());
//!     rt.task()
//!         .name("consume")
//!         .input(&a)
//!         .output(&b)
//!         .spawn(move |ctx| {
//!             let a = ctx.read(&a);
//!             let mut b = ctx.write(&b);
//!             for i in 0..a.len() {
//!                 b[i] = a[i] * 2;
//!             }
//!         });
//! }
//! rt.taskwait();
//! assert_eq!(rt.into_inner(b)[10], 20);
//! ```
//!
//! ## Safety model
//!
//! Exactly like OmpSs, correctness of parallel execution rests on the access
//! annotations: two tasks whose declared accesses conflict (read/write or
//! write/write on overlapping regions) are ordered by the runtime in program
//! (spawn) order. Unlike OmpSs-on-C, this crate *enforces* that a task can
//! only obtain references to data it has declared: [`TaskContext::read`] and
//! [`TaskContext::write`] panic if the handle was not part of the task's
//! access list, and `write` panics if the declared access was read-only.
//! Together with the per-allocation region bookkeeping this makes declared-
//! access data races unrepresentable in safe code.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod access;
pub mod alloc_count;
pub mod capture;
pub mod critical;
pub mod dcheck;
pub mod error;
pub mod failpoint;
pub mod graph;
pub mod handle;
pub mod pipeline;
pub mod region;
pub mod rename;
pub mod runtime;
pub mod scheduler;
pub mod stats;
pub mod task;
pub mod trace;
mod worker;

pub use access::AccessKind;
pub use alloc_count::CountingAllocator;
pub use capture::{CaptureScope, CapturedTaskBuilder, GraphTemplate, ReplayBindings};
pub use dcheck::{AuditReport, AuditViolation, RaceReport};
pub use error::{Error, Result};
pub use failpoint::{FaultClass, FaultPlan};
pub use graph::TrackerDiagnostics;
pub use handle::{
    Accessible, Chunk, Data, PartitionedData, ReadGuard, SliceReadGuard, SliceWriteGuard, Whole,
    WriteGuard,
};
pub use pipeline::RenameRing;
pub use region::Region;
pub use runtime::{CancelToken, Runtime, RuntimeConfig, TaskBuilder, TaskContext};
pub use scheduler::SchedulerPolicy;
pub use stats::RuntimeStats;
pub use task::{TaskId, TaskSlabDiagnostics};
pub use trace::TraceEvent;
