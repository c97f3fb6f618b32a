//! # service — a multi-tenant job frontend over the OmpSs-style runtime
//!
//! The core crate executes task graphs for **one** program; this crate wraps
//! it in a runtime-as-a-service frontend that serves **many concurrent
//! clients**: clients submit streams of task-graph *jobs* (fresh spawns and
//! template replays) over an in-process channel API, and the service
//! executes each job on its tenant's private [`Runtime`](ompss::Runtime).
//!
//! The moving parts, front to back:
//!
//! * **Tenants** ([`TenantSpec`] → [`TenantId`]): each tenant owns one
//!   isolated `Runtime` (its task graphs, versions and tracker state never
//!   mix with another tenant's) plus the [`TemplateSlots`] for templates
//!   captured on it. A tenant's jobs run one at a time: the runtime's poison
//!   note, panic sink and `taskwait` are runtime-global, so two interleaved
//!   jobs would be charged each other's failures. A tenant's [`Lane`]
//!   decides which ingest lane its jobs queue on.
//! * **Ingest queue** with **admission control**: a bounded two-lane queue
//!   ([`Lane::Latency`] drains strictly before [`Lane::Bulk`]). Submissions
//!   are rejected with a typed [`AdmissionError`] when the queue is at
//!   capacity or the tenant's in-flight budget is exhausted — *shedding*,
//!   the backpressure a service under overload applies instead of growing
//!   without bound. Soft rejections can be retried with bounded backoff
//!   ([`JobService::submit_with_retry`], [`RetryPolicy`]).
//! * **Dispatchers**: a small pool of threads pops admitted jobs and runs
//!   each to quiescence on the tenant's runtime. Job-body panics are caught and reported through the
//!   job's [`JobTicket`] — a misbehaving tenant fails its own job, never the
//!   process.
//! * **Metrics** ([`ServiceMetrics`] / [`TenantMetrics`]): queue depth and
//!   peak, per-tenant accept/reject/complete counters (the service-wide
//!   figures are their sums), dispatcher utilisation, and per-tenant
//!   runtime statistics (spawns, replays,
//!   renames, steals) snapshotted from the core crate's
//!   [`RuntimeStats`](ompss::RuntimeStats)/`TrackerDiagnostics` plumbing.
//! * **Failure semantics**: jobs carry optional
//!   [`deadlines`](JobSpec::with_deadline) (expired jobs are shed at
//!   dequeue or cancelled mid-run by the watchdog thread, resolving
//!   [`JobStatus::Expired`]); clients can [`cancel`](JobTicket::cancel) a
//!   job at any point ([`JobStatus::Cancelled`]); a task panic inside a job
//!   poisons that job's remaining tasks (they retire without running — see
//!   the core crate's `failpoint` and poison docs) and fails only that job;
//!   the watchdog publishes a [`StallReport`] when task progress flatlines
//!   with jobs still running. The terminal ledger always balances:
//!   `completed + failed + cancelled + expired == accepted`.
//!
//! ## Quick start
//!
//! ```
//! use service::{JobService, JobSpec, ServiceConfig, TenantSpec};
//!
//! let svc = JobService::new(ServiceConfig::default().with_dispatchers(1));
//! let tenant = svc.register_tenant(TenantSpec::new("acme")).unwrap();
//! let ticket = svc
//!     .submit(
//!         tenant,
//!         JobSpec::spawn(|cx| {
//!             let a = cx.runtime.data(0u64);
//!             let h = a.clone();
//!             cx.runtime
//!                 .task()
//!                 .inout(&h)
//!                 .spawn(move |tc| *tc.write(&h) += 41);
//!             cx.runtime.taskwait();
//!             assert_eq!(cx.runtime.fetch(&a), 41);
//!         }),
//!     )
//!     .unwrap();
//! assert!(ticket.wait().is_completed());
//! svc.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod job;
mod metrics;
mod queue;
mod service;
mod tenant;

pub use admission::{AdmissionError, Rejected, RetryPolicy};
pub use job::{JobKind, JobSpec, JobStatus, JobTicket, TenantCx};
pub use metrics::{ServiceMetrics, StallReport, TenantMetrics};
pub use service::{JobService, ServiceConfig};
pub use tenant::{Lane, TemplateSlots, TenantId, TenantSpec};
