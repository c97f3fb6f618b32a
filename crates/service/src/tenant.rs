//! Tenant identity, configuration and the runtime each tenant owns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ompss::{GraphTemplate, Runtime, RuntimeConfig};
use parking_lot::Mutex;

use crate::service::RunningJob;

/// Identifies a registered tenant (index into the service's registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Which ingest lane a tenant's jobs queue on. Dispatchers drain
/// [`Lane::Latency`] strictly before [`Lane::Bulk`], so a latency-sensitive
/// tenant's jobs are never stuck behind a bulk tenant's backlog — only
/// behind other latency jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Latency-sensitive: drained first.
    Latency,
    /// Throughput-oriented (the default): drained when the latency lane is
    /// empty.
    #[default]
    Bulk,
}

/// Configuration of one tenant, consumed by
/// [`JobService::register_tenant`](crate::JobService::register_tenant).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (shown in metrics).
    pub name: String,
    /// Ingest lane of this tenant's jobs.
    pub lane: Lane,
    /// Maximum number of this tenant's jobs queued or executing at once;
    /// submissions beyond it are shed with
    /// [`AdmissionError::TenantBudget`](crate::AdmissionError::TenantBudget).
    pub in_flight_budget: usize,
    /// Configuration of the tenant's runtime (worker count, renaming knobs…).
    pub runtime: RuntimeConfig,
}

impl TenantSpec {
    /// A tenant on the bulk lane with a 64-job in-flight budget; its runtime
    /// gets one worker thread (tenants share the machine — size runtimes
    /// deliberately, not by `available_parallelism`).
    pub fn new(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            lane: Lane::default(),
            in_flight_budget: 64,
            runtime: RuntimeConfig::default().with_workers(1),
        }
    }

    /// Set the ingest lane.
    pub fn with_lane(mut self, lane: Lane) -> Self {
        self.lane = lane;
        self
    }

    /// Set the in-flight job budget (clamped to at least 1).
    pub fn with_in_flight_budget(mut self, budget: usize) -> Self {
        self.in_flight_budget = budget.max(1);
        self
    }

    /// Set the configuration of the tenant's runtime.
    pub fn with_runtime_config(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }
}

/// A tenant's store of captured [`GraphTemplate`]s, keyed by small slot
/// numbers the client picks. A capture job stores the template it captured;
/// the tenant's later replay jobs find it here. Templates are
/// runtime-specific (replaying on another runtime panics in the core
/// crate), which is why the slots live beside the tenant's one runtime.
#[derive(Default)]
pub struct TemplateSlots {
    slots: Mutex<HashMap<u32, Arc<GraphTemplate>>>,
}

impl TemplateSlots {
    /// Store `template` in `slot`, replacing any previous occupant.
    pub fn store(&self, slot: u32, template: GraphTemplate) {
        self.slots.lock().insert(slot, Arc::new(template));
    }

    /// The template in `slot`, if a capture job has stored one.
    pub fn get(&self, slot: u32) -> Option<Arc<GraphTemplate>> {
        self.slots.lock().get(&slot).cloned()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }
}

impl std::fmt::Debug for TemplateSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateSlots")
            .field("slots", &self.len())
            .finish()
    }
}

/// Per-tenant service-side counters (all monotonic except `in_flight`).
#[derive(Default)]
pub(crate) struct TenantCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) accepted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) rejected_queue_full: AtomicU64,
    pub(crate) rejected_budget: AtomicU64,
    pub(crate) spawn_jobs: AtomicU64,
    pub(crate) replay_jobs: AtomicU64,
}

/// The service-side state of one registered tenant.
pub(crate) struct TenantState {
    pub(crate) id: TenantId,
    pub(crate) name: String,
    pub(crate) lane: Lane,
    pub(crate) in_flight_budget: usize,
    pub(crate) runtime: Runtime,
    pub(crate) templates: TemplateSlots,
    /// Serializes the tenant's jobs. A runtime's poison note, panic
    /// sink and `taskwait` are runtime-global: two jobs interleaved on one
    /// runtime would misattribute each other's failures (one job resolving
    /// `Completed` with another job's panic charged to it). Dispatchers
    /// hold this for the whole execute-and-quiesce span, so failure
    /// attribution is exact per job.
    pub(crate) busy: Mutex<()>,
    /// The job holding `busy`, if any; set and cleared under `busy`, so the
    /// watchdog can reach it (deadline cancellation, stall attribution).
    pub(crate) running: Mutex<Option<RunningJob>>,
    /// Jobs queued or executing right now (admission-controlled).
    pub(crate) in_flight: AtomicUsize,
    pub(crate) counters: TenantCounters,
}

impl TenantState {
    pub(crate) fn new(id: TenantId, spec: TenantSpec) -> Self {
        TenantState {
            id,
            name: spec.name,
            lane: spec.lane,
            in_flight_budget: spec.in_flight_budget,
            runtime: Runtime::new(spec.runtime),
            templates: TemplateSlots::default(),
            busy: Mutex::new(()),
            running: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            counters: TenantCounters::default(),
        }
    }

    /// Atomically claim one unit of the in-flight budget. Returns the
    /// pre-claim count on success, or the observed count when the budget is
    /// exhausted (the caller sheds). A compare-exchange loop, so the budget
    /// is an exact bound however many clients submit concurrently.
    pub(crate) fn try_claim_in_flight(&self) -> Result<usize, usize> {
        self.in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v < self.in_flight_budget).then_some(v + 1)
            })
    }

    /// Release one unit of the in-flight budget (job completed, or its
    /// queue push was rejected after the claim).
    pub(crate) fn release_in_flight(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "in-flight release without a claim");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_claims_are_exact() {
        let state = TenantState::new(
            TenantId(0),
            TenantSpec::new("t").with_in_flight_budget(2),
        );
        assert_eq!(state.try_claim_in_flight(), Ok(0));
        assert_eq!(state.try_claim_in_flight(), Ok(1));
        assert_eq!(state.try_claim_in_flight(), Err(2));
        state.release_in_flight();
        assert_eq!(state.try_claim_in_flight(), Ok(1));
    }

    #[test]
    fn template_slots_store_and_get() {
        let rt = Runtime::new(RuntimeConfig::default().with_workers(1));
        let slots = TemplateSlots::default();
        assert!(slots.is_empty());
        let scope = rt.capture();
        slots.store(7, scope.finish());
        assert_eq!(slots.len(), 1);
        assert!(slots.get(7).is_some());
        assert!(slots.get(8).is_none());
    }
}
