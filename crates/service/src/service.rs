//! The service itself: tenant registry, admission, dispatcher pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ompss::{FaultPlan, ReplayBindings, Runtime};
use parking_lot::Mutex;

use crate::admission::{AdmissionError, Rejected, RetryPolicy};
use crate::job::{JobKind, JobSpec, JobStatus, JobTicket, TenantCx};
use crate::metrics::{ServiceMetrics, StallReport, TenantMetrics};
use crate::queue::{IngestQueue, QueuedJob, TenantView};
use crate::tenant::{TenantId, TenantSpec, TenantState};

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingest-queue capacity, bounding both lanes combined (default 256).
    pub queue_capacity: usize,
    /// Dispatcher threads popping and executing jobs (default 2; at least
    /// one is started whatever this says).
    pub dispatchers: usize,
    /// How often the watchdog thread samples running jobs: it cancels jobs
    /// whose [`deadline`](JobSpec::with_deadline) has passed mid-run and
    /// declares stalls. `Duration::ZERO` disables the watchdog entirely —
    /// mid-run deadlines then go unenforced (queued jobs are still shed at
    /// dequeue). Default 10ms.
    pub watchdog_interval: Duration,
    /// How long per-tenant task progress must flatline — while jobs are
    /// marked running — before the watchdog declares a stall and publishes a
    /// [`StallReport`]. Default 1s.
    pub stall_window: Duration,
    /// Deterministic fault plan for the service layer: a `QueueFull` roll at
    /// push makes admission behave exactly as if the queue were at capacity.
    /// The per-tenant *runtime* faults (task panics, rename exhaustion…)
    /// are configured on the tenants' `RuntimeConfig` instead. Default
    /// `None`.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            dispatchers: 2,
            watchdog_interval: Duration::from_millis(10),
            stall_window: Duration::from_secs(1),
            fault_plan: None,
        }
    }
}

impl ServiceConfig {
    /// Set the ingest-queue capacity (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the dispatcher-thread count (clamped to at least 1).
    pub fn with_dispatchers(mut self, dispatchers: usize) -> Self {
        self.dispatchers = dispatchers.max(1);
        self
    }

    /// Set the watchdog sampling interval (`Duration::ZERO` disables it).
    pub fn with_watchdog_interval(mut self, interval: Duration) -> Self {
        self.watchdog_interval = interval;
        self
    }

    /// Set the no-progress window after which a stall is declared.
    pub fn with_stall_window(mut self, window: Duration) -> Self {
        self.stall_window = window;
        self
    }

    /// Install a deterministic service-layer fault plan (queue-full bursts).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// The counters no tenant owns. Every other service-wide figure is a sum
/// over the tenants' counters, taken in [`JobService::metrics`].
#[derive(Default)]
struct ServiceCounters {
    retries: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_unknown: AtomicU64,
    stalls: AtomicU64,
}

/// Everything the service's threads share. The tenants live in the queue's
/// slots, and "shutting down" is the queue being closed.
struct ServiceInner {
    queue: IngestQueue,
    counters: ServiceCounters,
    dispatcher_count: usize,
    last_stall: Mutex<Option<StallReport>>,
    watchdog_stop: AtomicBool,
}

/// The multi-tenant job frontend. See the [crate docs](crate) for the
/// model; construct with [`JobService::new`], feed with
/// [`submit`](JobService::submit), observe with
/// [`metrics`](JobService::metrics), stop with
/// [`shutdown`](JobService::shutdown).
pub struct JobService {
    inner: Arc<ServiceInner>,
    dispatchers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl JobService {
    /// Start the service: the ingest queue plus `config.dispatchers`
    /// dispatcher threads (at least one), all idle until tenants register
    /// and submit.
    pub fn new(config: ServiceConfig) -> Self {
        let dispatcher_count = config.dispatchers.max(1);
        let inner = Arc::new(ServiceInner {
            queue: IngestQueue::new(config.queue_capacity, config.fault_plan),
            counters: ServiceCounters::default(),
            dispatcher_count,
            last_stall: Mutex::new(None),
            watchdog_stop: AtomicBool::new(false),
        });
        let dispatchers = (0..dispatcher_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("svc-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&inner.queue))
                    .expect("spawn dispatcher thread")
            })
            .collect();
        let watchdog = (config.watchdog_interval > Duration::ZERO).then(|| {
            let inner = Arc::clone(&inner);
            let (interval, window) = (config.watchdog_interval, config.stall_window);
            std::thread::Builder::new()
                .name("svc-watchdog".to_string())
                .spawn(move || watchdog_loop(&inner, interval, window))
                .expect("spawn watchdog thread")
        });
        JobService {
            inner,
            dispatchers,
            watchdog,
        }
    }

    /// Register a tenant, creating its private runtime. A spec whose
    /// runtime cannot be built is refused with
    /// [`AdmissionError::InvalidTenant`]; once shutdown has begun, every
    /// spec is refused with [`AdmissionError::ShuttingDown`].
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<TenantId, AdmissionError> {
        let runtime = Runtime::try_new(spec.runtime.clone())
            .map_err(|err| AdmissionError::InvalidTenant(err.to_string()))?;
        self.inner
            .queue
            .register(|id| TenantState::new(id, spec, runtime))
            .ok_or(AdmissionError::ShuttingDown)
    }

    /// Submit one job for `tenant`. On admission the job is queued behind
    /// the tenant's earlier jobs and a [`JobTicket`] tracks it to completion; on
    /// rejection the job comes back inside [`Rejected`] together with the
    /// typed reason, so soft rejections can be resubmitted without
    /// rebuilding the job.
    pub fn submit(&self, tenant: TenantId, job: JobSpec) -> Result<JobTicket, Rejected> {
        let c = &self.inner.counters;
        let Some(state) = self.inner.queue.tenant(tenant) else {
            c.rejected_unknown.fetch_add(1, Ordering::SeqCst);
            return Err(Rejected {
                job,
                error: AdmissionError::UnknownTenant(tenant),
            });
        };
        state.counters.submitted.fetch_add(1, Ordering::SeqCst);
        let ticket = JobTicket::new(state.runtime.cancel_scope());
        let deadline_spec = job.deadline;
        let queued = QueuedJob {
            kind: job.kind,
            ticket: ticket.clone(),
            deadline: deadline_spec.map(|d| Instant::now() + d),
        };
        match self.inner.queue.push(tenant, queued) {
            Ok(()) => {
                state.counters.accepted.fetch_add(1, Ordering::SeqCst);
                Ok(ticket)
            }
            Err((back, error)) => {
                let counter = match error {
                    AdmissionError::ShuttingDown => &c.rejected_shutdown,
                    AdmissionError::TenantBudget { .. } => &state.counters.rejected_budget,
                    _ => &state.counters.rejected_queue_full,
                };
                counter.fetch_add(1, Ordering::SeqCst);
                Err(Rejected {
                    job: JobSpec {
                        kind: back.kind,
                        deadline: deadline_spec,
                    },
                    error,
                })
            }
        }
    }

    /// [`submit`](Self::submit), but soft rejections (queue full, tenant
    /// budget) are retried up to `policy.attempts` times with exponential
    /// backoff. Hard rejections return immediately.
    pub fn submit_with_retry(
        &self,
        tenant: TenantId,
        job: JobSpec,
        policy: &RetryPolicy,
    ) -> Result<JobTicket, Rejected> {
        let mut job = job;
        let mut attempt = 0;
        loop {
            match self.submit(tenant, job) {
                Ok(ticket) => return Ok(ticket),
                Err(rejected) if rejected.error.is_soft() && attempt < policy.attempts => {
                    self.inner.counters.retries.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                    job = rejected.job;
                }
                Err(rejected) => return Err(rejected),
            }
        }
    }

    /// Block until every admitted job has finished (queue empty and no
    /// dispatcher mid-job). New submissions arriving while draining extend
    /// the wait.
    pub fn drain(&self) {
        self.inner.queue.wait_drained();
    }

    /// Snapshot service- and per-tenant metrics. The service-wide job
    /// counters are sums over the tenant snapshots; a submission naming an
    /// unregistered tenant is the one kind no tenant counts.
    pub fn metrics(&self) -> ServiceMetrics {
        let inner = &self.inner;
        let c = &inner.counters;
        let queue = inner.queue.snapshot();
        let tenants: Vec<TenantMetrics> = queue.tenants.iter().map(tenant_metrics).collect();
        let sum = |field: fn(&TenantMetrics) -> u64| tenants.iter().map(field).sum::<u64>();
        let rejected_unknown_tenant = c.rejected_unknown.load(Ordering::SeqCst);
        ServiceMetrics {
            ingest_queue_depth: queue.depth,
            peak_queue_depth: queue.peak,
            queue_capacity: inner.queue.capacity,
            dispatchers: inner.dispatcher_count,
            active_dispatchers: queue.running,
            submitted: sum(|t| t.submitted) + rejected_unknown_tenant,
            accepted: sum(|t| t.accepted),
            completed: sum(|t| t.completed),
            failed: sum(|t| t.failed),
            cancelled: sum(|t| t.cancelled),
            expired: sum(|t| t.expired),
            retries: c.retries.load(Ordering::SeqCst),
            rejected_queue_full: sum(|t| t.rejected_queue_full),
            rejected_tenant_budget: sum(|t| t.rejected_budget),
            rejected_shutdown: c.rejected_shutdown.load(Ordering::SeqCst),
            rejected_unknown_tenant,
            stalls_detected: c.stalls.load(Ordering::SeqCst),
            last_stall: inner.last_stall.lock().clone(),
            tenants,
        }
    }

    /// Stop admitting, let the dispatchers drain every already-admitted job
    /// (none are lost), join them, and return the final metrics snapshot.
    /// Tenant runtimes shut down when the service is dropped.
    pub fn shutdown(mut self) -> ServiceMetrics {
        self.begin_shutdown();
        self.metrics()
    }

    fn begin_shutdown(&mut self) {
        self.inner.queue.close();
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
        // Dispatchers have drained every admitted job; only now stop the
        // watchdog, so deadlines stay enforced through the shutdown drain.
        self.inner.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

impl std::fmt::Debug for JobService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let queue = self.inner.queue.snapshot();
        f.debug_struct("JobService")
            .field("dispatchers", &self.inner.dispatcher_count)
            .field("queue_depth", &queue.depth)
            .field("tenants", &queue.tenants.len())
            .finish()
    }
}

fn tenant_metrics(view: &TenantView) -> TenantMetrics {
    let state = &view.tenant;
    let c = &state.counters;
    TenantMetrics {
        tenant: state.id,
        name: state.name.clone(),
        lane: state.lane,
        in_flight: view.in_flight,
        submitted: c.submitted.load(Ordering::SeqCst),
        accepted: c.accepted.load(Ordering::SeqCst),
        completed: c.completed.load(Ordering::SeqCst),
        failed: c.failed.load(Ordering::SeqCst),
        cancelled: c.cancelled.load(Ordering::SeqCst),
        expired: c.expired.load(Ordering::SeqCst),
        rejected_queue_full: c.rejected_queue_full.load(Ordering::SeqCst),
        rejected_budget: c.rejected_budget.load(Ordering::SeqCst),
        spawn_jobs: c.spawn_jobs.load(Ordering::SeqCst),
        replay_jobs: c.replay_jobs.load(Ordering::SeqCst),
        runtime: state.runtime.stats(),
    }
}

fn dispatcher_loop(queue: &IngestQueue) {
    let mut finished = None;
    while let Some((tenant, job)) = queue.next(finished) {
        run_job(&tenant, job);
        finished = Some(tenant.id);
    }
}

fn run_job(tenant: &TenantState, job: QueuedJob) {
    let QueuedJob {
        kind,
        ticket,
        deadline,
    } = job;
    // Shed at dequeue: a cancel request or an already-passed deadline means
    // no work runs at all — the ticket resolves terminal without touching
    // the tenant's runtime. Time spent behind the tenant's earlier jobs in
    // its FIFO counts against the deadline, exactly like time in the lane.
    if let Some(stop) = ticket.stop_reason() {
        finish(tenant, &ticket, stop);
        return;
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        finish(tenant, &ticket, JobStatus::Expired);
        return;
    }
    ticket.set(JobStatus::Running);
    let kind_counter = match &kind {
        JobKind::Spawn(_) => &tenant.counters.spawn_jobs,
        JobKind::Replay { .. } => &tenant.counters.replay_jobs,
    };
    kind_counter.fetch_add(1, Ordering::SeqCst);

    // Every task the job spawns joins the ticket's cancel scope, so a
    // mid-run `JobTicket::cancel()` or watchdog deadline hit retires the
    // job's not-yet-started tasks without running them.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tenant
            .runtime
            .with_cancel_scope(ticket.token(), || execute(kind, tenant))
    }));
    // Quiesce the runtime (a panicked body may have left a half-spawned
    // graph) and *consume* any poison note so neither can leak into the
    // tenant's next job.
    let poison = match catch_unwind(AssertUnwindSafe(|| tenant.runtime.try_taskwait())) {
        Ok(result) => result.err(),
        Err(_) => None,
    };
    let panics = tenant.runtime.take_panics();
    // A stop request decides the status; expiry has won over a cancel.
    let status = ticket.stop_reason().unwrap_or_else(|| match outcome {
        Ok(Ok(())) => {
            if let Some(first) = panics.first() {
                JobStatus::Failed(format!("{} task panic(s), first: {first}", panics.len()))
            } else if let Some(err) = poison {
                JobStatus::Failed(err.to_string())
            } else {
                JobStatus::Completed
            }
        }
        Ok(Err(msg)) => JobStatus::Failed(msg),
        Err(payload) => JobStatus::Failed(panic_message(payload.as_ref())),
    });
    finish(tenant, &ticket, status);
}

/// Resolve the ticket and settle exactly one of the tenant's four terminal
/// ledger counters — the ledger invariant
/// `completed + failed + cancelled + expired == accepted` lives here. The
/// dispatcher hands the tenant's slot back, freeing its budget, after this.
fn finish(tenant: &TenantState, ticket: &JobTicket, status: JobStatus) {
    let counter = match &status {
        JobStatus::Completed => &tenant.counters.completed,
        JobStatus::Failed(_) => &tenant.counters.failed,
        JobStatus::Cancelled => &tenant.counters.cancelled,
        JobStatus::Expired => &tenant.counters.expired,
        JobStatus::Queued | JobStatus::Running => {
            unreachable!("finish() with non-terminal status")
        }
    };
    ticket.set(status);
    counter.fetch_add(1, Ordering::SeqCst);
}

/// A tenant runtime's retired-task count — the progress signal the stall
/// detector watches. Poisoned and cancelled retirements count: a draining
/// poisoned graph is progress, not a stall.
fn progress(tenant: &TenantState) -> u64 {
    let stats = tenant.runtime.stats();
    stats.tasks_executed + stats.tasks_poisoned + stats.tasks_cancelled
}

fn watchdog_loop(inner: &ServiceInner, interval: Duration, window: Duration) {
    // No tenant is registered before the watchdog starts.
    let mut last_progress = 0;
    let mut last_change = Instant::now();
    while !inner.watchdog_stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        let now = Instant::now();
        let mut total_progress = 0;
        let mut stuck_jobs = 0;
        let mut oldest: Option<(&TenantState, Instant)> = None;
        // Read under the queue lock once; no lock is held while poking the
        // tickets.
        let queue = inner.queue.snapshot();
        for TenantView {
            tenant, running, ..
        } in &queue.tenants
        {
            total_progress += progress(tenant);
            let Some(job) = running else {
                continue;
            };
            // Deadline enforcement: cancel the task-graph scope of a running
            // job whose deadline has passed.
            if job.deadline.is_some_and(|d| now >= d) {
                job.ticket.expire();
            }
            stuck_jobs += 1;
            if oldest
                .as_ref()
                .is_none_or(|(_, started)| job.started < *started)
            {
                oldest = Some((tenant, job.started));
            }
        }
        // Stall detection: progress flatlined for a full window while jobs
        // are marked running.
        let Some((tenant, started)) = oldest.filter(|_| total_progress == last_progress) else {
            last_progress = total_progress;
            last_change = now;
            continue;
        };
        if now.duration_since(last_change) >= window {
            *inner.last_stall.lock() = Some(StallReport {
                tenant: tenant.id,
                stuck_jobs,
                oldest_age: now.duration_since(started),
                in_flight_tasks: tenant.runtime.in_flight_tasks(),
            });
            inner.counters.stalls.fetch_add(1, Ordering::SeqCst);
            // Re-arm: report again only after another silent window, not
            // every tick.
            last_change = now;
        }
    }
}

fn execute(kind: JobKind, tenant: &TenantState) -> Result<(), String> {
    match kind {
        JobKind::Spawn(body) => {
            let cx = TenantCx {
                runtime: &tenant.runtime,
                templates: &tenant.templates,
            };
            body(&cx);
            tenant.runtime.taskwait();
            Ok(())
        }
        JobKind::Replay { slot, passes } => {
            let template = tenant
                .templates
                .get(slot)
                .ok_or_else(|| format!("no template in slot {slot}"))?;
            let bindings = ReplayBindings::new();
            for _ in 0..passes {
                tenant.runtime.replay(&template, &bindings);
            }
            tenant.runtime.taskwait();
            Ok(())
        }
    }
}

/// A panicked job's failure reason. `ompss`'s `worker.rs` has a function of
/// the same name on purpose: that one renders a task's panic message bare,
/// and the two crates share no private home.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}
