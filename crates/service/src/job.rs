//! Job descriptions, tickets and the context a job body runs with.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ompss::{CancelToken, Runtime};
use parking_lot::{Condvar, Mutex};

use crate::tenant::TemplateSlots;

/// What a [`JobSpec::spawn`] body sees: the tenant's [`Runtime`] and the
/// template slots attached to it. A capture job builds a template with
/// `cx.runtime.capture()` and parks it in `cx.templates`; the tenant's later
/// [`JobSpec::replay`] jobs find it there.
pub struct TenantCx<'a> {
    /// The tenant's runtime.
    pub runtime: &'a Runtime,
    /// The tenant's template slots.
    pub templates: &'a TemplateSlots,
}

/// A fresh-spawn job body.
pub type SpawnFn = Box<dyn FnOnce(&TenantCx<'_>) + Send + 'static>;

/// The two job shapes the service executes.
pub enum JobKind {
    /// Run an arbitrary closure against the tenant's runtime (spawn tasks,
    /// capture templates, …). The dispatcher calls `taskwait()` afterwards,
    /// so the job is complete — not merely submitted — when its ticket
    /// resolves.
    Spawn(SpawnFn),
    /// Replay the template in `slot` for `passes` re-stamped passes.
    Replay {
        /// Template slot to look up in the tenant's slots.
        slot: u32,
        /// Number of replay passes.
        passes: u32,
    },
}

impl std::fmt::Debug for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobKind::Spawn(_) => f.write_str("Spawn(..)"),
            JobKind::Replay { slot, passes } => f
                .debug_struct("Replay")
                .field("slot", slot)
                .field("passes", passes)
                .finish(),
        }
    }
}

/// One unit of client work: a job kind plus an optional deadline.
#[derive(Debug)]
pub struct JobSpec {
    pub(crate) kind: JobKind,
    pub(crate) deadline: Option<Duration>,
}

impl JobSpec {
    /// A fresh-spawn job running `f` against the tenant's runtime.
    pub fn spawn<F>(f: F) -> Self
    where
        F: FnOnce(&TenantCx<'_>) + Send + 'static,
    {
        JobSpec {
            kind: JobKind::Spawn(Box::new(f)),
            deadline: None,
        }
    }

    /// A template-replay job: `passes` re-stamped passes of the template a
    /// prior capture job stored in `slot`.
    pub fn replay(slot: u32, passes: u32) -> Self {
        JobSpec {
            kind: JobKind::Replay { slot, passes },
            deadline: None,
        }
    }

    /// Give the job a deadline, measured from admission. A job still queued
    /// when its deadline passes is shed at dequeue (ticket resolves
    /// [`JobStatus::Expired`], no work runs); a job already running has its
    /// remaining not-yet-started tasks cancelled by the service watchdog —
    /// the tasks are retired without running and the ticket resolves
    /// `Expired`. No deadline (the default) means the job runs to
    /// completion however long it takes.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a dispatcher.
    Queued,
    /// A dispatcher is executing it.
    Running,
    /// Ran to quiescence with no task panics.
    Completed,
    /// The job body or one of its tasks panicked, or a replay slot was
    /// empty; the message says which.
    Failed(String),
    /// [`JobTicket::cancel`] was called: either the job was shed at dequeue
    /// before any work ran, or its remaining tasks were cancelled (retired
    /// without running) mid-job. Already-completed tasks keep their effects.
    Cancelled,
    /// The job's [`deadline`](JobSpec::with_deadline) passed: shed at
    /// dequeue, or its remaining tasks were cancelled mid-job by the
    /// watchdog.
    Expired,
}

impl JobStatus {
    /// Whether the job finished successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed)
    }

    /// Whether the job is in a terminal state (completed, failed,
    /// cancelled or expired).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Completed
                | JobStatus::Failed(_)
                | JobStatus::Cancelled
                | JobStatus::Expired
        )
    }
}

struct TicketInner {
    state: Mutex<JobStatus>,
    cv: Condvar,
    /// Set by [`JobTicket::cancel`]; observed by the dispatcher at dequeue
    /// (shed before running) and after execution (maps the outcome to
    /// [`JobStatus::Cancelled`]).
    cancel_requested: AtomicBool,
    /// Set by the service watchdog when the job's deadline passes mid-run;
    /// takes precedence over `cancel_requested` in the outcome mapping.
    deadline_expired: AtomicBool,
    /// The core-runtime cancel token of the running job, parked here so
    /// `cancel()` (and the deadline watchdog) can reach into the task graph.
    scope: Mutex<Option<CancelToken>>,
}

/// A clonable handle to one admitted job's status; returned by
/// [`JobService::submit`](crate::JobService::submit).
#[derive(Clone)]
pub struct JobTicket {
    inner: Arc<TicketInner>,
}

impl JobTicket {
    pub(crate) fn new() -> Self {
        JobTicket {
            inner: Arc::new(TicketInner {
                state: Mutex::new(JobStatus::Queued),
                cv: Condvar::new(),
                cancel_requested: AtomicBool::new(false),
                deadline_expired: AtomicBool::new(false),
                scope: Mutex::new(None),
            }),
        }
    }

    /// Block until the job reaches a terminal state and return it.
    pub fn wait(&self) -> JobStatus {
        let mut state = self.inner.state.lock();
        while !state.is_terminal() {
            self.inner.cv.wait(&mut state);
        }
        state.clone()
    }

    /// Block until the job reaches a terminal state or `timeout` elapses,
    /// returning the status observed — possibly still [`JobStatus::Queued`]
    /// or [`JobStatus::Running`] on timeout, which is the caller's signal to
    /// escalate (e.g. [`JobTicket::cancel`]).
    pub fn wait_timeout(&self, timeout: Duration) -> JobStatus {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        while !state.is_terminal() {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            self.inner.cv.wait_for(&mut state, remaining);
        }
        state.clone()
    }

    /// Request cancellation. Cooperative, never blocking: a still-queued job
    /// is shed at dequeue without running; a running job has its
    /// not-yet-started tasks cancelled (retired without running — see the
    /// core crate's `CancelToken`) and resolves [`JobStatus::Cancelled`]. A
    /// job that already reached a terminal state is unaffected. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancel_requested.store(true, Ordering::SeqCst);
        if let Some(token) = self.inner.scope.lock().as_ref() {
            token.cancel();
        }
    }

    /// The job's current status, without blocking.
    pub fn status(&self) -> JobStatus {
        self.inner.state.lock().clone()
    }

    pub(crate) fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested.load(Ordering::SeqCst)
    }

    /// Mark the deadline as expired mid-run and cancel the task-graph scope
    /// (watchdog side).
    pub(crate) fn expire(&self) {
        self.inner.deadline_expired.store(true, Ordering::SeqCst);
        if let Some(token) = self.inner.scope.lock().as_ref() {
            token.cancel();
        }
    }

    pub(crate) fn deadline_expired(&self) -> bool {
        self.inner.deadline_expired.load(Ordering::SeqCst)
    }

    /// Park the running job's cancel token where `cancel()`/`expire()` can
    /// reach it. If a cancel or expiry raced in before registration, the
    /// token is cancelled on the spot — the request is never lost.
    pub(crate) fn register_scope(&self, token: CancelToken) {
        *self.inner.scope.lock() = Some(token);
        if self.inner.cancel_requested.load(Ordering::SeqCst)
            || self.inner.deadline_expired.load(Ordering::SeqCst)
        {
            if let Some(token) = self.inner.scope.lock().as_ref() {
                token.cancel();
            }
        }
    }

    /// Drop the parked cancel token (job finished; the scope must not leak
    /// into the runtime's next job).
    pub(crate) fn clear_scope(&self) {
        *self.inner.scope.lock() = None;
    }

    pub(crate) fn set(&self, status: JobStatus) {
        let mut state = self.inner.state.lock();
        *state = status;
        drop(state);
        self.inner.cv.notify_all();
    }
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_wait_sees_terminal_state() {
        let ticket = JobTicket::new();
        assert_eq!(ticket.status(), JobStatus::Queued);
        let waiter = {
            let t = ticket.clone();
            std::thread::spawn(move || t.wait())
        };
        ticket.set(JobStatus::Running);
        ticket.set(JobStatus::Completed);
        assert!(waiter.join().unwrap().is_completed());
    }

    #[test]
    fn failed_is_terminal_but_not_completed() {
        let s = JobStatus::Failed("boom".into());
        assert!(s.is_terminal());
        assert!(!s.is_completed());
    }
}
