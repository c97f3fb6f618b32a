//! Service- and tenant-level metric snapshots, and the watchdog's stall
//! report.

use std::time::Duration;

use ompss::RuntimeStats;

use crate::tenant::{Lane, TenantId};

/// What the stall watchdog saw when task progress flatlined while jobs were
/// still marked running: which tenant owns the oldest stuck job, and how
/// stuck. It checks nothing: the stuck job may spawn at any moment, and
/// [`ompss::Runtime::audit`]'s verdict holds only while nothing spawns.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Tenant owning the oldest running job at detection time.
    pub tenant: TenantId,
    /// Jobs marked running service-wide when the stall was declared (at
    /// most one per tenant: a tenant's jobs run one at a time).
    pub stuck_jobs: usize,
    /// Age of the oldest running job.
    pub oldest_age: Duration,
    /// Tasks still in flight on the stuck tenant's runtime.
    pub in_flight_tasks: usize,
}

/// A point-in-time snapshot of the whole service, returned by
/// [`JobService::metrics`](crate::JobService::metrics) and by
/// [`JobService::shutdown`](crate::JobService::shutdown).
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Jobs currently queued (both lanes).
    pub ingest_queue_depth: usize,
    /// High-water mark of the queue depth since startup.
    pub peak_queue_depth: usize,
    /// Configured queue capacity (bounds both lanes combined).
    pub queue_capacity: usize,
    /// Configured dispatcher-thread count.
    pub dispatchers: usize,
    /// Dispatchers executing a job right now.
    pub active_dispatchers: usize,
    /// Total submissions (admitted or not).
    pub submitted: u64,
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Jobs that ran to quiescence without failure.
    pub completed: u64,
    /// Jobs that failed (body panic, task panic or empty replay slot).
    pub failed: u64,
    /// Jobs resolved [`Cancelled`](crate::JobStatus::Cancelled) via
    /// [`JobTicket::cancel`](crate::JobTicket::cancel).
    pub cancelled: u64,
    /// Jobs resolved [`Expired`](crate::JobStatus::Expired) — deadline
    /// passed while queued or mid-run.
    pub expired: u64,
    /// Retry attempts made by `submit_with_retry` after soft rejections.
    pub retries: u64,
    /// Submissions shed because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Submissions shed because the tenant's in-flight budget was full.
    pub rejected_tenant_budget: u64,
    /// Submissions refused because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Submissions naming an unregistered tenant.
    pub rejected_unknown_tenant: u64,
    /// Stalls the watchdog has declared since startup (progress flatlined
    /// for a full stall window with jobs running).
    pub stalls_detected: u64,
    /// The most recent stall report, if any.
    pub last_stall: Option<StallReport>,
    /// One entry per registered tenant, in registration order.
    pub tenants: Vec<TenantMetrics>,
}

impl ServiceMetrics {
    /// Total shed submissions across every rejection reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_tenant_budget
            + self.rejected_shutdown
            + self.rejected_unknown_tenant
    }

    /// Fraction of submissions shed, or `None` before any submission.
    pub fn shed_rate(&self) -> Option<f64> {
        (self.submitted > 0).then(|| self.rejected() as f64 / self.submitted as f64)
    }

    /// Fraction of dispatchers busy at snapshot time.
    pub fn utilisation(&self) -> f64 {
        if self.dispatchers == 0 {
            0.0
        } else {
            self.active_dispatchers as f64 / self.dispatchers as f64
        }
    }
}

/// A point-in-time snapshot of one tenant.
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    /// The tenant's id.
    pub tenant: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// The tenant's ingest lane.
    pub lane: Lane,
    /// Jobs queued or executing at snapshot time.
    pub in_flight: usize,
    /// Total submissions for this tenant.
    pub submitted: u64,
    /// Submissions admitted.
    pub accepted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs expired (deadline).
    pub expired: u64,
    /// Shed because the shared queue was full.
    pub rejected_queue_full: u64,
    /// Shed because this tenant's budget was full.
    pub rejected_budget: u64,
    /// Completed-or-failed jobs that were fresh spawns.
    pub spawn_jobs: u64,
    /// Completed-or-failed jobs that were template replays.
    pub replay_jobs: u64,
    /// The tenant runtime's core counters (tasks spawned, renames,
    /// scheduler steals, replay passes/tasks…) and task-node gauges. What
    /// the runtime still holds is for [`ompss::Runtime::audit`] to say,
    /// called where nothing else spawns: for a tenant, from inside one of
    /// its jobs before the job spawns.
    pub runtime: RuntimeStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> ServiceMetrics {
        ServiceMetrics {
            ingest_queue_depth: 0,
            peak_queue_depth: 0,
            queue_capacity: 4,
            dispatchers: 2,
            active_dispatchers: 1,
            submitted: 0,
            accepted: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            expired: 0,
            retries: 0,
            rejected_queue_full: 0,
            rejected_tenant_budget: 0,
            rejected_shutdown: 0,
            rejected_unknown_tenant: 0,
            stalls_detected: 0,
            last_stall: None,
            tenants: Vec::new(),
        }
    }

    #[test]
    fn shed_rate_is_none_before_any_submission() {
        assert_eq!(empty().shed_rate(), None);
    }

    #[test]
    fn rejected_sums_every_reason_and_shed_rate_divides() {
        let mut m = empty();
        m.submitted = 10;
        m.rejected_queue_full = 2;
        m.rejected_tenant_budget = 1;
        m.rejected_shutdown = 1;
        m.rejected_unknown_tenant = 1;
        assert_eq!(m.rejected(), 5);
        assert_eq!(m.shed_rate(), Some(0.5));
        assert_eq!(m.utilisation(), 0.5);
    }
}
