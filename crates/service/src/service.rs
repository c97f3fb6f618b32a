//! The service itself: tenant registry, admission, dispatcher pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ompss::{FaultPlan, ReplayBindings};
use parking_lot::{Condvar, Mutex};

use crate::admission::{AdmissionError, Rejected, RetryPolicy};
use crate::job::{JobKind, JobSpec, JobStatus, JobTicket, TenantCx};
use crate::metrics::{ServiceMetrics, StallReport, TenantMetrics};
use crate::queue::{IngestQueue, QueuedJob};
use crate::tenant::{Lane, TenantId, TenantSpec, TenantState};

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingest-queue capacity, bounding both lanes combined (default 256).
    pub queue_capacity: usize,
    /// Dispatcher threads popping and executing jobs (default 2).
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

/// The job a tenant's dispatcher is executing right now, parked on the
/// tenant so the watchdog can reach it (deadline cancellation, stall
/// attribution).
#[derive(Clone)]
pub(crate) struct RunningJob {
    ticket: JobTicket,
    deadline: Option<Instant>,
    started: Instant,
}

struct ServiceInner {
    queue: IngestQueue,
    tenants: Mutex<Vec<Arc<TenantState>>>,
    counters: ServiceCounters,
    dispatcher_count: usize,
    shutting_down: AtomicBool,
    drain_lock: Mutex<()>,
    drain_cv: Condvar,
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
    /// dispatcher threads, all idle until tenants register and submit.
    pub fn new(config: ServiceConfig) -> Self {
        let mut queue = IngestQueue::new(config.queue_capacity);
        if let Some(plan) = config.fault_plan.clone() {
            queue.set_fault_plan(plan);
        }
        let inner = Arc::new(ServiceInner {
            queue,
            tenants: Mutex::new(Vec::new()),
            counters: ServiceCounters::default(),
            dispatcher_count: config.dispatchers,
            shutting_down: AtomicBool::new(false),
            drain_lock: Mutex::new(()),
            drain_cv: Condvar::new(),
            last_stall: Mutex::new(None),
            watchdog_stop: AtomicBool::new(false),
        });
        let dispatchers = (0..config.dispatchers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("svc-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&inner))
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

    /// Register a tenant, creating its private runtime. Tenants cannot
    /// be registered once shutdown has begun.
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<TenantId, AdmissionError> {
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return Err(AdmissionError::ShuttingDown);
        }
        let mut tenants = self.inner.tenants.lock();
        let id = TenantId(tenants.len() as u32);
        tenants.push(Arc::new(TenantState::new(id, spec)));
        Ok(id)
    }

    /// Submit one job for `tenant`. On admission the job is queued on the
    /// tenant's lane and a [`JobTicket`] tracks it to completion; on
    /// rejection the job comes back inside [`Rejected`] together with the
    /// typed reason, so soft rejections can be resubmitted without
    /// rebuilding the job.
    pub fn submit(&self, tenant: TenantId, job: JobSpec) -> Result<JobTicket, Rejected> {
        let c = &self.inner.counters;
        let state = match self.tenant_state(tenant) {
            Some(state) => state,
            None => {
                c.rejected_unknown.fetch_add(1, Ordering::SeqCst);
                return Err(Rejected {
                    job,
                    error: AdmissionError::UnknownTenant(tenant),
                });
            }
        };
        state.counters.submitted.fetch_add(1, Ordering::SeqCst);
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            c.rejected_shutdown.fetch_add(1, Ordering::SeqCst);
            return Err(Rejected {
                job,
                error: AdmissionError::ShuttingDown,
            });
        }
        if let Err(in_flight) = state.try_claim_in_flight() {
            state.counters.rejected_budget.fetch_add(1, Ordering::SeqCst);
            return Err(Rejected {
                job,
                error: AdmissionError::TenantBudget {
                    tenant,
                    in_flight,
                    budget: state.in_flight_budget,
                },
            });
        }
        let ticket = JobTicket::new();
        let deadline_spec = job.deadline;
        let queued = QueuedJob {
            tenant: Arc::clone(&state),
            kind: job.kind,
            ticket: ticket.clone(),
            deadline: deadline_spec.map(|d| Instant::now() + d),
        };
        match self
            .inner
            .queue
            .push(queued, matches!(state.lane, Lane::Latency))
        {
            Ok(_) => {
                state.counters.accepted.fetch_add(1, Ordering::SeqCst);
                Ok(ticket)
            }
            Err((back, depth)) => {
                state.release_in_flight();
                state
                    .counters
                    .rejected_queue_full
                    .fetch_add(1, Ordering::SeqCst);
                Err(Rejected {
                    job: JobSpec {
                        kind: back.kind,
                        deadline: deadline_spec,
                    },
                    error: AdmissionError::QueueFull {
                        depth,
                        capacity: self.inner.queue.capacity(),
                    },
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
        let mut guard = self.inner.drain_lock.lock();
        while self.inner.queue.depth() != 0 || self.inner.queue.active() != 0 {
            self.inner
                .drain_cv
                .wait_for(&mut guard, Duration::from_millis(1));
        }
    }

    /// Snapshot service- and per-tenant metrics. The service-wide job
    /// counters are sums over the tenant snapshots; a submission naming an
    /// unregistered tenant is the one kind no tenant counts.
    pub fn metrics(&self) -> ServiceMetrics {
        let inner = &self.inner;
        let c = &inner.counters;
        let tenants: Vec<TenantMetrics> = inner
            .tenants
            .lock()
            .iter()
            .map(|state| tenant_metrics(state))
            .collect();
        let sum = |field: fn(&TenantMetrics) -> u64| tenants.iter().map(field).sum::<u64>();
        let rejected_unknown_tenant = c.rejected_unknown.load(Ordering::SeqCst);
        ServiceMetrics {
            ingest_queue_depth: inner.queue.depth(),
            peak_queue_depth: inner.queue.peak(),
            queue_capacity: inner.queue.capacity(),
            dispatchers: inner.dispatcher_count,
            active_dispatchers: inner.queue.active(),
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
        self.inner.shutting_down.store(true, Ordering::SeqCst);
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

    fn tenant_state(&self, tenant: TenantId) -> Option<Arc<TenantState>> {
        self.inner
            .tenants
            .lock()
            .get(tenant.0 as usize)
            .map(Arc::clone)
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        self.begin_shutdown();
    }
}

impl std::fmt::Debug for JobService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobService")
            .field("dispatchers", &self.inner.dispatcher_count)
            .field("queue_depth", &self.inner.queue.depth())
            .field("tenants", &self.inner.tenants.lock().len())
            .finish()
    }
}

fn tenant_metrics(state: &TenantState) -> TenantMetrics {
    let diag = state.runtime.tracker_diagnostics();
    let c = &state.counters;
    TenantMetrics {
        tenant: state.id,
        name: state.name.clone(),
        lane: state.lane,
        in_flight: state.in_flight.load(Ordering::SeqCst),
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
        tracked_regions: diag.total_regions(),
        tracked_allocs: diag.total_allocs(),
    }
}

fn dispatcher_loop(inner: &ServiceInner) {
    while let Some(job) = inner.queue.pop() {
        run_job(job);
        inner.queue.finish_active();
        // Taken and dropped so a drain() between the check and the wait
        // still sees the notify.
        drop(inner.drain_lock.lock());
        inner.drain_cv.notify_all();
    }
}

fn run_job(job: QueuedJob) {
    let QueuedJob {
        tenant,
        kind,
        ticket,
        deadline,
    } = job;
    // Serialize on the tenant's runtime first: time spent waiting for the
    // tenant's previous job counts against the deadline check below,
    // exactly like time spent queued.
    let _job_guard = tenant.busy.lock();
    // Shed at dequeue: a cancel request or an already-passed deadline means
    // no work runs at all — the ticket resolves terminal without touching
    // the tenant's runtime.
    if ticket.cancel_requested() {
        finish(&tenant, &ticket, JobStatus::Cancelled);
        return;
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        finish(&tenant, &ticket, JobStatus::Expired);
        return;
    }
    ticket.set(JobStatus::Running);
    let kind_counter = match &kind {
        JobKind::Spawn(_) => &tenant.counters.spawn_jobs,
        JobKind::Replay { .. } => &tenant.counters.replay_jobs,
    };
    kind_counter.fetch_add(1, Ordering::SeqCst);

    // Every task the job spawns joins this cancel scope, so a mid-run
    // `JobTicket::cancel()` or watchdog deadline hit retires the job's
    // not-yet-started tasks without running them.
    let token = tenant.runtime.cancel_scope();
    ticket.register_scope(token.clone());
    *tenant.running.lock() = Some(RunningJob {
        ticket: ticket.clone(),
        deadline,
        started: Instant::now(),
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tenant.runtime.with_cancel_scope(&token, || execute(kind, &tenant))
    }));
    *tenant.running.lock() = None;
    ticket.clear_scope();
    // Quiesce the runtime (a panicked body may have left a half-spawned
    // graph) and *consume* any poison note so neither can leak into the
    // tenant's next job.
    let poison = match catch_unwind(AssertUnwindSafe(|| tenant.runtime.try_taskwait())) {
        Ok(result) => result.err(),
        Err(_) => None,
    };
    let panics = tenant.runtime.take_panics();
    let status = if ticket.deadline_expired() {
        JobStatus::Expired
    } else if ticket.cancel_requested() {
        JobStatus::Cancelled
    } else {
        match outcome {
            Ok(Ok(())) => {
                if let Some(first) = panics.first() {
                    JobStatus::Failed(format!(
                        "{} task panic(s), first: {first}",
                        panics.len()
                    ))
                } else if let Some(err) = poison {
                    JobStatus::Failed(err.to_string())
                } else {
                    JobStatus::Completed
                }
            }
            Ok(Err(msg)) => JobStatus::Failed(msg),
            Err(payload) => JobStatus::Failed(panic_message(payload.as_ref())),
        }
    };
    finish(&tenant, &ticket, status);
}

/// Resolve the ticket, release the tenant's budget and settle exactly one of
/// the tenant's four terminal ledger counters — the ledger invariant
/// `completed + failed + cancelled + expired == accepted` lives here.
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
    tenant.release_in_flight();
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
        let mut oldest: Option<(Arc<TenantState>, Instant)> = None;
        for tenant in inner.tenants.lock().iter() {
            total_progress += progress(tenant);
            // Cloned out so no lock is held while poking the ticket.
            let Some(job) = tenant.running.lock().clone() else {
                continue;
            };
            // Deadline enforcement: cancel the task-graph scope of a running
            // job whose deadline has passed.
            if job.deadline.is_some_and(|d| now >= d) && !job.ticket.deadline_expired() {
                job.ticket.expire();
            }
            stuck_jobs += 1;
            if oldest.as_ref().is_none_or(|(_, started)| job.started < *started) {
                oldest = Some((Arc::clone(tenant), job.started));
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
            let diag = tenant.runtime.tracker_diagnostics();
            *inner.last_stall.lock() = Some(StallReport {
                tenant: tenant.id,
                stuck_jobs,
                oldest_age: now.duration_since(started),
                in_flight_tasks: tenant.runtime.in_flight_tasks(),
                tracked_regions: diag.total_regions(),
                tracked_allocs: diag.total_allocs(),
                // Separate ledger corruption from genuine slowness: a mid-run
                // audit only checks identities that must hold while tasks
                // are in flight, so any violation here is a real bug, not an
                // artefact of the stall.
                audit: tenant.runtime.audit().err(),
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
