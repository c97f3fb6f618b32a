//! The runtime: task spawning, dependence registration, synchronisation.
//!
//! [`Runtime`] owns the worker threads and the shared state (scheduler,
//! dependence tracker, statistics, trace). Tasks are spawned through
//! [`TaskBuilder`] which mirrors the OmpSs pragma clauses; inside a task body
//! a [`TaskContext`] gives checked access to the declared data and allows
//! nested task creation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::access::{Access, AccessKind};
use crate::critical::CriticalSections;
use crate::dcheck::{AuditReport, AuditViolation, RaceReport};
use crate::error::{Error, Result};
use crate::failpoint::FaultPlan;
use crate::graph::{self, Tracker};
use crate::handle::{
    Accessible, Chunk, Data, PartitionedData, ReadGuard, SliceReadGuard, SliceWriteGuard, Whole,
    WriteGuard,
};
use crate::region::{Region, RegionId};
use crate::rename::{
    RenameCx, RenameEvent, RenamePool, ResolvedAccess, DEFAULT_RENAME_MAX_VERSIONS,
    DEFAULT_RENAME_MEMORY_CAP, DEFAULT_RENAME_POOL_DEPTH,
};
use crate::scheduler::{SchedState, SchedulerPolicy};
use crate::stats::{CachePadded, RuntimeStats, StatCounters, StatField};
use crate::task::{
    ChildTracker, TaskId, TaskNode, TaskPriority, TaskSlab, DEFAULT_TASK_SLAB_CAPACITY,
};
use crate::trace::{TraceEvent, TraceRecorder};
use crate::worker;

/// Default garbage-collection cadence of the dependence tracker, in spawned
/// tasks (see [`RuntimeConfig::with_tracker_gc_interval`]).
pub const DEFAULT_TRACKER_GC_INTERVAL: u64 = 512;

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads executing tasks. The main (spawning) thread
    /// does not execute tasks, mirroring a dedicated-master configuration.
    pub workers: usize,
    /// Ready-task scheduling policy.
    pub policy: SchedulerPolicy,
    /// Whether to record an execution trace.
    pub tracing: bool,
    /// Whether `output` accesses on versioned handles rename automatically
    /// (see [`crate::rename`]). Enabled by default; plain handles are never
    /// affected.
    pub renaming: bool,
    /// Global byte budget for renamed versions; when exhausted, `output`
    /// accesses fall back to serialising (backpressure). Versioned
    /// partitions account each chunk's deep payload; scalar handles account
    /// `size_of::<T>()` unless given a size hint
    /// ([`Runtime::versioned_data_with_size`]) — see [`crate::rename`].
    pub rename_memory_cap: usize,
    /// Bound on each versioned handle's pool of recycled version slots.
    pub rename_pool_depth: usize,
    /// Bound on the number of live versions per handle; the effective
    /// in-flight window for heap-backed types (Listing 1's ring depth `N`).
    pub rename_max_versions: usize,
    /// Whether an `output` access on a versioned handle may **elide** its
    /// rename when the current version has no in-flight bindings, binding it
    /// in place instead of allocating a fresh version. Enabled by default;
    /// see [`crate::rename`], "First-write rename elision".
    pub rename_elision: bool,
    /// How often (in spawned tasks) the dependence tracker is garbage
    /// collected from the spawn path; `0` disables the periodic sweep
    /// entirely (quiescent `taskwait` and explicit
    /// [`Runtime::tracker_gc`] still collect). The sweep holds the
    /// tracker's gate, so registrations wait for its duration. Default
    /// [`DEFAULT_TRACKER_GC_INTERVAL`].
    pub tracker_gc_interval: u64,
    /// Whether eligible [`GraphTemplate`](crate::GraphTemplate)s freeze into
    /// pre-wired form after a clean replay pass (see [`crate::capture`],
    /// "Pre-wired templates"). Enabled by default; `false` keeps every
    /// replay on the resolved-per-pass path — what the ledger's
    /// `capture.replay_resolved_ns_per_task` probe times.
    pub replay_prewiring: bool,
    /// Optional deterministic fault-injection plan (see [`crate::failpoint`]).
    /// `None` (the default) compiles the hooks down to a single `Option`
    /// check; a seeded plan injects task panics, delayed completions, forced
    /// rename-budget exhaustion and forced tracker fallbacks at the plan's
    /// rates — reproducibly, from nothing but the seed.
    pub fault_plan: Option<FaultPlan>,
    /// Whether the [`dcheck`](crate::dcheck) race oracle is armed: every
    /// task carries a vector clock, bind-time accesses append to per-worker
    /// shadow logs, and each quiescent `taskwait` runs the
    /// happens-before checker plus [`Runtime::audit`] (see
    /// [`RuntimeConfig::with_dcheck`] for when its verdict holds). Off by
    /// default — when off every hook is a single `Option` check and the
    /// spawn path stays allocation-free.
    pub dcheck: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        RuntimeConfig {
            workers,
            policy: SchedulerPolicy::default(),
            tracing: false,
            renaming: true,
            rename_memory_cap: DEFAULT_RENAME_MEMORY_CAP,
            rename_pool_depth: DEFAULT_RENAME_POOL_DEPTH,
            rename_max_versions: DEFAULT_RENAME_MAX_VERSIONS,
            rename_elision: true,
            tracker_gc_interval: DEFAULT_TRACKER_GC_INTERVAL,
            replay_prewiring: true,
            fault_plan: None,
            dcheck: false,
        }
    }
}

impl RuntimeConfig {
    /// Set the number of worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable or disable execution tracing.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Enable or disable automatic renaming of `output` accesses on
    /// versioned handles. With renaming off, versioned handles keep a
    /// single version and WAR/WAW edges serialise tasks — the behaviour of
    /// the OmpSs implementation evaluated in the paper.
    pub fn with_renaming(mut self, renaming: bool) -> Self {
        self.renaming = renaming;
        self
    }

    /// Set the global byte budget for renamed versions.
    pub fn with_rename_memory_cap(mut self, bytes: usize) -> Self {
        self.rename_memory_cap = bytes;
        self
    }

    /// Set the bound on each versioned handle's recycled-slot pool.
    pub fn with_rename_pool_depth(mut self, depth: usize) -> Self {
        self.rename_pool_depth = depth;
        self
    }

    /// Set the bound on live versions per handle (must be at least 1; the
    /// canonical version always exists).
    pub fn with_rename_max_versions(mut self, max_versions: usize) -> Self {
        self.rename_max_versions = max_versions.max(1);
        self
    }

    /// Enable or disable first-write rename elision on versioned handles
    /// (see [`crate::rename`]). With `false`, every renaming-enabled
    /// `output` allocates (or pool-recycles) a fresh version even when the
    /// current one is unreferenced.
    pub fn with_rename_elision(mut self, elision: bool) -> Self {
        self.rename_elision = elision;
        self
    }

    /// Set the tracker garbage-collection cadence in spawned tasks; `0`
    /// disables the periodic sweep (quiescent and explicit GC still run).
    /// Lower values bound history memory tighter at the cost of sweeping —
    /// and of registrations waiting while the tracker is swept.
    pub fn with_tracker_gc_interval(mut self, interval: u64) -> Self {
        self.tracker_gc_interval = interval;
        self
    }

    /// Enable or disable pre-wired replay templates. With `false`, every
    /// [`Runtime::replay`] pass re-resolves clauses and re-derives edges
    /// (the resolved-per-pass path); the discovered dependence structure is
    /// identical either way — `tests/replay_equivalence.rs` pins it.
    pub fn with_replay_prewiring(mut self, prewiring: bool) -> Self {
        self.replay_prewiring = prewiring;
        self
    }

    /// Install a deterministic fault-injection plan (see
    /// [`crate::failpoint`] for the worked chaos-test example). Keep a clone
    /// of the plan to read its injection counters after the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Arm the [`dcheck`](crate::dcheck) vector-clock race oracle and the
    /// automatic quiescent audit (see [`RuntimeConfig::dcheck`]). That pass
    /// runs [`Runtime::audit`]'s checks after a `taskwait`, so its verdicts
    /// hold only while no other thread is spawning: with two root spawners,
    /// one's `taskwait` can audit the other's spawn half-way through.
    pub fn with_dcheck(mut self, dcheck: bool) -> Self {
        self.dcheck = dcheck;
        self
    }
}

/// The tasks in flight, as two monotone counts on cache-line pairs of their
/// own: `entered` is bumped by whoever inserts tasks — the spawner — and
/// `left` by whoever retires one — a worker. A single count that the spawner
/// incremented and the workers decremented was one line every spawn and
/// every completion took away from the other side.
#[derive(Default)]
pub(crate) struct InFlight {
    entered: CachePadded<AtomicUsize>,
    left: CachePadded<AtomicUsize>,
}

impl InFlight {
    /// `n` tasks enter, before any of them can start.
    pub(crate) fn enter(&self, n: usize) {
        self.entered.fetch_add(n, Ordering::SeqCst);
    }

    /// One task leaves, after its retirement, recycling and parent
    /// bookkeeping are done.
    pub(crate) fn leave(&self) {
        self.left.fetch_add(1, Ordering::SeqCst);
    }

    /// The tasks in flight right now. `left` is read first: every task that
    /// had left by then had entered before it, so the later read of
    /// `entered` is never smaller, and a zero means that at the moment
    /// `left` was read every task that had entered had also left — the
    /// runtime was quiescent. Reading that zero synchronises with every
    /// retirement (the SeqCst increments), as reading the single count's
    /// last decrement did.
    pub(crate) fn count(&self) -> usize {
        let left = self.left.load(Ordering::SeqCst);
        self.entered.load(Ordering::SeqCst).wrapping_sub(left)
    }
}

pub(crate) struct RuntimeInner {
    pub(crate) config: RuntimeConfig,
    pub(crate) sched: SchedState,
    pub(crate) tracker: Tracker,
    pub(crate) in_flight: InFlight,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: StatCounters,
    pub(crate) trace: TraceRecorder,
    pub(crate) critical: CriticalSections,
    pub(crate) panics: Mutex<Vec<Error>>,
    pub(crate) rename: Arc<RenamePool>,
    /// Shared with the tracker, whose writer generations and GC sweeps park
    /// the completed nodes they let go of here (see
    /// [`Tracker::set_recycler`]).
    pub(crate) slab: Arc<TaskSlab>,
    pub(crate) fault: Option<FaultPlan>,
    /// The race-oracle + auditor state, present only under
    /// [`RuntimeConfig::with_dcheck`] — `None` keeps every hook down to one
    /// branch (see [`crate::dcheck`]).
    pub(crate) dcheck: Option<crate::dcheck::DcheckState>,
    /// First poison origin observed since the last `try_taskwait` — the
    /// panicked or cancelled task a subsequent typed error points at.
    poison_note: Mutex<Option<TaskId>>,
}

impl RuntimeInner {
    // lint: hot-path-begin — the insertion tail: every task, freshly spawned
    // or replayed, is published through here; no panicking calls allowed
    // (see `cargo xtask lint`).

    /// Insert a batch of armed nodes — one for a fresh spawn, a replay's
    /// whole (super-)batch — into the graph and the scheduler. The callers
    /// differ in how the nodes' clauses were resolved and in the `register`
    /// they hand in (which runs the tracker registration over the batch,
    /// with edge records or without); everything else is here, once.
    ///
    /// `batch` yields the nodes by value — all children of one parent — and
    /// each reference is dropped or queued the moment its node's sentinel is
    /// released, so a worker retiring the node finds it uniquely held and
    /// the recycler keeps feeding the slab; a ready node is queued at that
    /// moment too, by `worker` when a worker spawned the batch from a task
    /// body. `renames[i]` are node `i`'s rename events, for the trace.
    /// `registered` runs after the
    /// `Spawned`/`Edge`/`Renamed` events of a traced insertion, before any
    /// node can start (replay's marker events).
    pub(crate) fn insert<B>(
        &self,
        batch: B,
        renames: &[Vec<RenameEvent>],
        worker: Option<usize>,
        register: impl FnOnce(&[Arc<TaskNode>], bool) -> graph::Registration,
        registered: impl FnOnce(&[Arc<TaskNode>]),
    ) where
        B: AsRef<[Arc<TaskNode>]> + IntoIterator<Item = Arc<TaskNode>>,
    {
        let nodes = batch.as_ref();
        let Some(first) = nodes.first() else { return };
        let total = nodes.len();
        let mut spills = 0u64;
        for node in nodes {
            // Race oracle: assign the task its epoch index *before* tracker
            // registration, so no completion or edge can reference an
            // unregistered task (see `crate::dcheck`).
            if let Some(d) = &self.dcheck {
                d.register_task(node);
            }
            spills += u64::from(node.accesses.spilled());
        }
        // Counted before the batch can start executing.
        let spawned_before = self.stats.add(StatField::TasksSpawned, total as u64);
        // Only the rare spill is counted; inline hits are derived as
        // `tasks_spawned - spills` at snapshot time, so the common case
        // adds no extra shared-line RMW to the spawn path.
        if spills != 0 {
            self.stats.add(StatField::AccessInlineSpills, spills);
        }
        self.in_flight.enter(total);
        if let Some(parent) = &first.parent_children {
            parent.add_children(total);
        }

        let trace_enabled = self.trace.is_enabled();
        let registration = register(nodes, trace_enabled);
        // Every edge is exactly one of RAW / WAR / WAW, so the total is not
        // counted a second time: `Runtime::stats` derives it.
        debug_assert_eq!(
            registration.edges,
            registration.raw_edges + registration.war_edges + registration.waw_edges
        );
        self.stats
            .add(StatField::EdgesRaw, registration.raw_edges as u64);
        self.stats
            .add(StatField::EdgesWar, registration.war_edges as u64);
        self.stats
            .add(StatField::EdgesWaw, registration.waw_edges as u64);
        self.stats.add(
            StatField::DependencesSeen,
            registration.predecessors_seen as u64,
        );
        // Race oracle: now that registration has discovered every live
        // predecessor, fold in the completed-task snapshot — it covers
        // exactly the predecessors registration saw as already done.
        if let Some(d) = &self.dcheck {
            for node in nodes {
                d.merge_completed_snapshot(node);
            }
        }
        if trace_enabled {
            for node in nodes {
                self.trace.record(TraceEvent::Spawned {
                    task: node.id,
                    name: node.name.clone(),
                    at_ns: self.trace.now_ns(),
                    deps: node.in_edges.load(Ordering::Relaxed),
                    generation: node.generation,
                });
            }
            // Live edge records, indexed by the stored batch position: dense
            // (every task) except on the pre-wired path, which registers
            // only its frontier live.
            for (i, preds) in &registration.per_task {
                for &from in preds {
                    self.trace.record(TraceEvent::Edge {
                        task: nodes[*i].id,
                        from,
                        fast_path: registration.fast_path,
                        at_ns: self.trace.now_ns(),
                    });
                }
            }
            for (node, events) in nodes.iter().zip(renames) {
                for ev in events {
                    self.trace.record(TraceEvent::Renamed {
                        task: node.id,
                        from_alloc: ev.from.raw(),
                        to_alloc: ev.to.raw(),
                        recycled: ev.recycled,
                        chunk: ev.chunk,
                        at_ns: self.trace.now_ns(),
                    });
                }
            }
            registered(nodes);
        }

        // Release every registration sentinel in batch order, queueing the
        // nodes that are ready at once.
        let mut immediately_ready = 0u64;
        for node in batch {
            if !graph::finish_registration(&node) {
                continue;
            }
            immediately_ready += 1;
            if trace_enabled {
                self.trace.record(TraceEvent::Ready {
                    task: node.id,
                    at_ns: self.trace.now_ns(),
                });
            }
            self.sched.push(node, worker, false, &self.stats);
        }
        if immediately_ready != 0 {
            self.stats
                .add(StatField::ImmediatelyReady, immediately_ready);
        }
        // The periodic tracker GC, when this batch took the spawn count
        // across a multiple of the interval — after every lock is released:
        // the sweep takes the gate itself.
        let interval = self.config.tracker_gc_interval;
        if interval != 0 && (spawned_before + total as u64) / interval != spawned_before / interval
        {
            self.tracker.garbage_collect(&self.stats);
        }
    }
    // lint: hot-path-end

    pub(crate) fn record_panic(&self, err: Error) {
        self.stats.add(StatField::TasksPanicked, 1);
        self.panics.lock().push(err);
    }

    /// Remember the first poison origin (a panicked or cancelled task).
    /// Recorded at the source only — transitively poisoned retirements keep
    /// the original culprit.
    pub(crate) fn note_poison(&self, origin: TaskId) {
        let mut note = self.poison_note.lock();
        if note.is_none() {
            *note = Some(origin);
        }
    }

    pub(crate) fn take_poison_note(&self) -> Option<TaskId> {
        self.poison_note.lock().take()
    }

    pub(crate) fn peek_poison_note(&self) -> Option<TaskId> {
        *self.poison_note.lock()
    }

    /// The rename context clause resolution runs under — one construction
    /// shared by the builder's declaration path and template replay, so both
    /// resolve against identical policy knobs.
    pub(crate) fn rename_cx(&self) -> RenameCx<'_> {
        RenameCx {
            enabled: self.config.renaming,
            elision: self.config.rename_elision,
            pool: &self.rename,
            stats: &self.stats,
            pool_depth: self.config.rename_pool_depth,
            max_versions: self.config.rename_max_versions,
            fault: self.fault.as_ref(),
        }
    }

    fn quiescent(&self) -> bool {
        self.in_flight.count() == 0
    }

    /// The dcheck work done at every quiescent `taskwait`: run the
    /// happens-before checker over the epoch's shadow logs, then the full
    /// invariant audit, recording any violation. No-op when dcheck is off.
    pub(crate) fn dcheck_quiescent_pass(&self) {
        let Some(d) = &self.dcheck else { return };
        d.run_check();
        if let Err(violation) = self.audit_inner() {
            d.note_audit(violation);
        }
    }

    /// See [`Runtime::audit`]. Lives on the inner so the worker-facing
    /// quiescent pass and the public API share one implementation.
    pub(crate) fn audit_inner(
        &self,
    ) -> std::result::Result<crate::AuditReport, crate::AuditViolation> {
        use crate::{AuditReport, AuditViolation};
        // The in-flight count first: observing zero synchronises with every
        // retirement, so the counters read below are the settled post-drain
        // values.
        let in_flight = self.in_flight.count() as u64;
        let quiescent = in_flight == 0;
        if quiescent {
            // Deterministically drop the completed tasks' history before
            // checking for residue, exactly as a quiescent `taskwait` does.
            self.tracker.garbage_collect(&self.stats);
        }
        let executed = self.stats.get(StatField::TasksExecuted);
        let poisoned = self.stats.get(StatField::TasksPoisoned);
        let cancelled = self.stats.get(StatField::TasksCancelled);
        // Spawned is read *after* the completion-side counters: the
        // completion ledger can then never spuriously overtake it mid-run.
        let spawned = self.stats.get(StatField::TasksSpawned);
        let (tracked_regions, tracked_allocs) = self.tracker.residue(&self.stats);
        let report = AuditReport {
            quiescent,
            spawned,
            executed,
            poisoned,
            cancelled,
            in_flight,
            tracked_regions,
            tracked_allocs,
            slab_outstanding: self.slab.gauges().1,
            ticket_refs_bound: self.stats.get(StatField::TicketRefsBound),
            ticket_refs_released: self.stats.get(StatField::TicketRefsReleased),
        };
        let drained = executed + poisoned + cancelled;
        if (quiescent && drained != spawned) || (!quiescent && drained > spawned) {
            return Err(AuditViolation::LedgerMismatch {
                spawned,
                executed,
                poisoned,
                cancelled,
                in_flight,
            });
        }
        if !quiescent {
            // Mid-run only the overcount direction is checkable; the rest of
            // the identities legitimately hold state while tasks fly.
            return Ok(report);
        }
        if self.tracker.gate_held() {
            return Err(AuditViolation::GateHeld);
        }
        if report.tracked_regions != 0 || report.tracked_allocs != 0 {
            return Err(AuditViolation::TrackerResidue {
                regions: report.tracked_regions,
                allocs: report.tracked_allocs,
            });
        }
        if report.slab_outstanding != 0 {
            return Err(AuditViolation::SlabLeak {
                outstanding: report.slab_outstanding,
            });
        }
        if report.ticket_refs_bound != report.ticket_refs_released {
            return Err(AuditViolation::TicketImbalance {
                bound: report.ticket_refs_bound,
                released: report.ticket_refs_released,
            });
        }
        Ok(report)
    }
}

thread_local! {
    /// The cancel scope tasks spawned from this thread inherit (set by
    /// [`Runtime::with_cancel_scope`]; nested tasks inherit their parent's
    /// scope from the task node instead).
    static CANCEL_SCOPE: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// The cancel scope of the current (spawning) thread, if any.
pub(crate) fn current_cancel_scope() -> Option<Arc<AtomicBool>> {
    CANCEL_SCOPE.with(|scope| scope.borrow().clone())
}

/// A cancellation token for a subtree of work (see
/// [`Runtime::cancel_scope`]).
///
/// Cancelling is cooperative and *graph-shaped*, not preemptive: a running
/// task body is never interrupted, but every not-yet-started task carrying
/// this token is retired without running the next time a worker dequeues it
/// — and it poisons its own transitive successors on the way out, so the
/// graph still drains, version tickets are still released, and
/// [`Runtime::try_taskwait`] reports [`Error::Poisoned`] instead of hanging.
///
/// Clones share the flag; cancelling any clone cancels them all. Cheap to
/// store (one `Arc<AtomicBool>`), checked with one atomic load per task
/// dispatch.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Raise the flag: every not-yet-started task in the scope is retired
    /// without running from now on. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        self.flag.clone()
    }
}

/// The OmpSs-style task runtime.
///
/// Dropping the runtime shuts the workers down after waiting for all
/// in-flight tasks to finish.
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
    threads: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Create a runtime, panicking on invalid configuration.
    ///
    /// See [`Runtime::try_new`] for the fallible variant.
    pub fn new(config: RuntimeConfig) -> Self {
        Self::try_new(config).expect("invalid runtime configuration")
    }

    /// Create a runtime with the given configuration. Returns once every
    /// worker thread has started and entered its polling loop.
    pub fn try_new(config: RuntimeConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(Error::InvalidConfig(
                "at least one worker thread is required".into(),
            ));
        }
        let sched = SchedState::new(config.policy, config.workers);
        let slab = Arc::new(TaskSlab::new(DEFAULT_TASK_SLAB_CAPACITY));
        let mut tracker = Tracker::new();
        tracker.set_recycler(slab.clone());
        if let Some(plan) = config.fault_plan.clone() {
            tracker.set_fault_plan(plan);
        }
        let inner = Arc::new(RuntimeInner {
            sched,
            tracker,
            in_flight: InFlight::default(),
            shutdown: AtomicBool::new(false),
            stats: StatCounters::default(),
            trace: TraceRecorder::new(config.tracing),
            critical: CriticalSections::new(),
            panics: Mutex::new(Vec::new()),
            rename: Arc::new(RenamePool::new(config.rename_memory_cap)),
            slab,
            fault: config.fault_plan.clone(),
            dcheck: config
                .dcheck
                .then(|| crate::dcheck::DcheckState::new(config.workers)),
            poison_note: Mutex::new(None),
            config,
        });
        let mut threads = Vec::with_capacity(inner.config.workers);
        let started = Arc::new(Barrier::new(inner.config.workers + 1));
        for id in 0..inner.config.workers {
            let inner = inner.clone();
            let started = started.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ompss-worker-{id}"))
                    .spawn(move || worker::worker_loop(inner, id, started))
                    .expect("failed to spawn worker thread"),
            );
        }
        // Return a started runtime: every worker is in its loop.
        started.wait();
        Ok(Runtime { inner, threads })
    }

    /// The scheduling policy in use.
    pub fn policy(&self) -> SchedulerPolicy {
        self.inner.config.policy
    }

    /// Garbage-collect the dependence tracker now: drop the history
    /// references of completed tasks (returning their nodes to the slab),
    /// entries they emptied, and the `by_alloc` overlap-index ids of dropped
    /// entries. This happens automatically
    /// every few hundred spawns and at every quiescent [`Runtime::taskwait`];
    /// the explicit entry point exists for leak tests and long-idle services.
    pub fn tracker_gc(&self) {
        self.inner.tracker.garbage_collect(&self.inner.stats);
    }

    /// Number of tasks spawned but not yet finished executing, right now.
    /// A cheap atomic read — unlike [`Runtime::stats`] it allocates nothing,
    /// so allocation-regression tests can poll it inside their measurement
    /// window.
    pub fn in_flight_tasks(&self) -> usize {
        self.inner.in_flight.count()
    }

    /// Test support: hold the dependence tracker's gate until the returned
    /// guard drops. Tasks still complete while it is held — completion takes
    /// no gate — which is what the protocol tests show with it. The holding
    /// thread must not register, `taskwait` or `audit` meanwhile (those take
    /// the gate); [`Runtime::stats`] takes no gate.
    #[doc(hidden)]
    pub fn hold_tracker(&self) -> graph::TrackerHold<'_> {
        self.inner.tracker.hold(&self.inner.stats)
    }

    /// Register a value with the runtime, obtaining a dependence handle.
    pub fn data<T: Send + 'static>(&self, value: T) -> Data<T> {
        Data::new(value)
    }

    /// Register a value behind a **versioned** handle: `output` accesses
    /// rename to a fresh version (initialised with `T::default()`) instead
    /// of serialising on WAR/WAW hazards. See [`crate::rename`].
    pub fn versioned_data<T: Send + Default + 'static>(&self, value: T) -> Data<T> {
        Data::versioned(value)
    }

    /// Like [`Runtime::versioned_data`] with an explicit initialiser for
    /// fresh versions (for types without a useful `Default`), additionally
    /// declaring the **deep** size of one version (heap payload included) so
    /// the rename byte budget accounts heap-backed types correctly. See
    /// [`Data::versioned_with_size`].
    pub fn versioned_data_with_size<T: Send + 'static>(
        &self,
        value: T,
        make: impl Fn() -> T + Send + Sync + 'static,
        bytes_per_version: usize,
    ) -> Data<T> {
        Data::versioned_with_size(value, make, bytes_per_version)
    }

    /// Register a vector partitioned into chunks of `chunk_len` elements.
    pub fn partitioned<T: Send + 'static>(
        &self,
        data: Vec<T>,
        chunk_len: usize,
    ) -> PartitionedData<T> {
        PartitionedData::new(data, chunk_len)
    }

    /// Register a vector partitioned into chunks of `chunk_len` elements
    /// behind a **versioned** partition: every chunk owns its own version
    /// chain, and an `output` access to a chunk renames just that chunk
    /// (fresh versions start from `T::default()`), eliminating WAR/WAW
    /// serialisation at chunk granularity. Whole-array accesses synchronise
    /// across all chunk chains. See [`crate::rename`].
    pub fn versioned_partitioned<T: Send + Default + 'static>(
        &self,
        data: Vec<T>,
        chunk_len: usize,
    ) -> PartitionedData<T> {
        PartitionedData::versioned(data, chunk_len)
    }

    /// Begin building a task spawned from the main program context. The task
    /// inherits the calling thread's cancel scope, if one is active (see
    /// [`Runtime::with_cancel_scope`]).
    pub fn task(&self) -> TaskBuilder<'_> {
        TaskBuilder::new(&self.inner, None, None, current_cancel_scope())
    }

    /// Mint a fresh [`CancelToken`]. Pair with
    /// [`Runtime::with_cancel_scope`] to attach it to a subtree of spawns.
    pub fn cancel_scope(&self) -> CancelToken {
        CancelToken::new()
    }

    /// Run `f`, attaching `token` to every task spawned from this thread
    /// inside it (and, transitively, to tasks those tasks spawn). Restores
    /// the previous scope on exit, panic included, so scopes nest.
    ///
    /// Cancelling the token afterwards retires every not-yet-started task of
    /// the scope without running it (see [`CancelToken`]).
    pub fn with_cancel_scope<R>(&self, token: &CancelToken, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Option<Arc<AtomicBool>>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(prev) = self.0.take() {
                    CANCEL_SCOPE.with(|scope| *scope.borrow_mut() = prev);
                }
            }
        }
        let prev = CANCEL_SCOPE.with(|scope| scope.replace(Some(token.flag())));
        let _restore = Restore(Some(prev));
        f()
    }

    /// Wait until every task spawned from the main context (and transitively
    /// every task those spawned, since children always finish before their
    /// parents' counters drop) has completed.
    ///
    /// This is the polling "task barrier" of the paper: the calling thread
    /// polls rather than blocking in the kernel and, like the paper's master
    /// thread, runs the ready tasks it finds meanwhile — a task body may
    /// execute on the thread that waits for it.
    pub fn taskwait(&self) {
        self.inner.stats.add(StatField::Taskwaits, 1);
        // The main context's tasks are counted nowhere but in `in_flight`
        // (they carry no parent child tracker), so waiting for them is
        // waiting for quiescence: a nested task enters `in_flight` before
        // its parent can leave it.
        help_while(&self.inner, None, || !self.inner.quiescent());
        // Quiescence: every task has completed, so this sweep
        // deterministically drops every history reference and returns the
        // nodes to the slab — a drained runtime tracks nothing (see
        // `Runtime::audit`).
        self.inner.tracker.garbage_collect(&self.inner.stats);
        self.inner.dcheck_quiescent_pass();
    }

    /// [`Runtime::taskwait`] that reports failure instead of swallowing it:
    /// waits for the graph to drain (poisoned or not — a poisoned graph
    /// still drains, its unrun tasks are just retired without executing),
    /// then returns [`Error::Poisoned`] naming the first panicked or
    /// cancelled task if any poison flowed since the last call. The note is
    /// consumed: a subsequent clean round reports `Ok`.
    pub fn try_taskwait(&self) -> Result<()> {
        self.taskwait();
        match self.inner.take_poison_note() {
            Some(origin) => Err(Error::Poisoned { origin }),
            None => Ok(()),
        }
    }

    /// Wait only for the in-flight tasks that access (a region overlapping)
    /// `handle` — the `#pragma omp taskwait on (x)` of Listing 1. For a
    /// versioned handle this covers every version still in flight. Like
    /// [`Runtime::taskwait`], the waiting thread runs ready tasks meanwhile,
    /// so the task it waits for may run on it.
    pub fn taskwait_on(&self, handle: &impl Accessible) {
        wait_on(&self.inner, None, handle);
    }

    /// Wait on `handle`, then refuse data a poisoned run may have left torn
    /// (a poisoned task's renamed output committed at spawn time). The note
    /// is only peeked; `try_taskwait` is the call that consumes it.
    fn settle<H: Accessible>(&self, handle: H) -> std::result::Result<H, (H, Error)> {
        self.taskwait_on(&handle);
        match self.inner.peek_poison_note() {
            Some(origin) => Err((handle, Error::Poisoned { origin })),
            None => Ok(handle),
        }
    }

    /// Execute `f` under the named critical section (the `#pragma omp
    /// critical(name)` used to protect the hidden DPB/PIB buffers in the
    /// paper's H.264 decoder).
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.inner.critical.enter(name, f)
    }

    /// Read back a copy of the value behind `data`, respecting dependences:
    /// the copy observes every task spawned before this call that writes
    /// `data`. A reader task copies it out while this thread waits on `data`
    /// as [`Runtime::taskwait_on`] does. Panics naming the origin after a
    /// poisoned run (the reader may never have run), as
    /// [`Runtime::into_inner`] does.
    pub fn fetch<T: Clone + Send + 'static>(&self, data: &Data<T>) -> T {
        let slot = Arc::new(Mutex::new(None));
        let (reader_slot, reader_data) = (slot.clone(), data.clone());
        self.task()
            .name("ompss::fetch")
            .input(data)
            .spawn(move |ctx| *reader_slot.lock() = Some(ctx.read(&reader_data).clone()));
        or_panic(self.settle(data.clone()), "try_taskwait");
        let value = slot.lock().take();
        value.expect("the fetch task ran")
    }

    /// Wait for all tasks touching `data`, then unwrap the value. Panics if
    /// other clones of the handle are still alive, or naming the origin after
    /// a poisoned run — multi-tenant callers that must not crash a shared
    /// process use [`Runtime::try_into_inner`] instead.
    pub fn into_inner<T: Send + 'static>(&self, data: Data<T>) -> T {
        or_panic(self.try_into_inner(data), "try_into_inner")
    }

    /// Fallible [`Runtime::into_inner`]: wait for all tasks touching
    /// `data`, then try to unwrap the value. If other clones of the handle
    /// are still alive, returns [`Error::StillShared`] together with the
    /// handle (unharmed — the caller can drop the stray clones and retry)
    /// instead of panicking, so a misbehaving service tenant cannot take
    /// down the shared process. The wait is [`Runtime::taskwait_on`]'s (the
    /// waiting thread runs ready tasks); after a poisoned run it returns
    /// [`Error::Poisoned`] naming the origin instead of torn data.
    pub fn try_into_inner<T: Send + 'static>(
        &self,
        data: Data<T>,
    ) -> std::result::Result<T, (Data<T>, Error)> {
        self.settle(data)?
            .try_into_inner()
            .map_err(|d| (d, Error::StillShared))
    }

    /// Wait for all tasks touching the partitioned vector, then unwrap it.
    /// Panics if other clones of the handle (or of any chunk) are alive, or
    /// after a poisoned run — see [`Runtime::try_into_vec`] for the
    /// non-panicking variant.
    pub fn into_vec<T: Send + 'static>(&self, data: PartitionedData<T>) -> Vec<T> {
        or_panic(self.try_into_vec(data), "try_into_vec")
    }

    /// Fallible [`Runtime::into_vec`]: wait for all tasks touching the
    /// partitioned vector, then try to unwrap it. If other clones of the
    /// handle (or of any chunk) are still alive, returns
    /// [`Error::StillShared`] together with the handle instead of
    /// panicking. Waits and refuses poisoned data as
    /// [`Runtime::try_into_inner`] does.
    pub fn try_into_vec<T: Send + 'static>(
        &self,
        data: PartitionedData<T>,
    ) -> std::result::Result<Vec<T>, (PartitionedData<T>, Error)> {
        self.settle(data)?
            .try_into_vec()
            .map_err(|d| (d, Error::StillShared))
    }

    /// Snapshot of the runtime statistics: every event count (one place, see
    /// [`crate::stats`]), plus the rename bytes held and the task-node slab's
    /// counts and gauges (read under its free-list lock). Takes no tracker
    /// gate, so it is safe to call while the gate is held, and never checks
    /// anything — [`Runtime::audit`] does.
    pub fn stats(&self) -> RuntimeStats {
        let c = &self.inner.stats;
        let raw_edges = c.get(StatField::EdgesRaw);
        let war_edges = c.get(StatField::EdgesWar);
        let waw_edges = c.get(StatField::EdgesWaw);
        let (task_nodes_free, task_nodes_outstanding) = self.inner.slab.gauges();
        RuntimeStats {
            workers: self.inner.config.workers,
            tasks_spawned: c.get(StatField::TasksSpawned),
            tasks_executed: c.get(StatField::TasksExecuted),
            tasks_panicked: c.get(StatField::TasksPanicked),
            tasks_poisoned: c.get(StatField::TasksPoisoned),
            tasks_cancelled: c.get(StatField::TasksCancelled),
            edges_added: raw_edges + war_edges + waw_edges,
            raw_edges,
            war_edges,
            waw_edges,
            dependences_seen: c.get(StatField::DependencesSeen),
            renames: c.get(StatField::Renames),
            chunk_renames: c.get(StatField::ChunkRenames),
            renames_recycled: c.get(StatField::RenamesRecycled),
            rename_fallbacks: c.get(StatField::RenameFallbacks),
            renames_elided: c.get(StatField::RenamesElided),
            rename_bytes_held: self.inner.rename.bytes_held() as u64,
            immediately_ready: c.get(StatField::ImmediatelyReady),
            taskwaits: c.get(StatField::Taskwaits),
            taskwait_ons: c.get(StatField::TaskwaitOns),
            sched_local_pops: c.get(StatField::SchedLocalPops),
            sched_global_pops: c.get(StatField::SchedGlobalPops),
            sched_steals: c.get(StatField::SchedSteals),
            sched_local_wakeups: c.get(StatField::SchedLocalWakeups),
            sched_global_wakeups: c.get(StatField::SchedGlobalWakeups),
            sched_priority_pops: c.get(StatField::SchedPriorityPops),
            task_nodes_recycled: self.inner.slab.recycled_count(),
            task_nodes_allocated: self.inner.slab.allocated_count(),
            task_nodes_free,
            task_nodes_outstanding,
            access_inline_hits: c
                .get(StatField::TasksSpawned)
                .saturating_sub(c.get(StatField::AccessInlineSpills)),
            access_inline_spills: c.get(StatField::AccessInlineSpills),
            spawn_body_spills: c.get(StatField::SpawnBodySpills),
            replay_passes: c.get(StatField::ReplayPasses),
            replay_tasks: c.get(StatField::ReplayTasks),
            tracker_lock_contention: c.get(StatField::TrackerLockContention),
            tracker_fast_path_hits: c.get(StatField::TrackerFastPathHits),
            tracker_fast_path_fallbacks: c.get(StatField::TrackerFastPathFallbacks),
            tracker_entries_scanned: c.get(StatField::TrackerEntriesScanned),
        }
    }

    /// What the runtime still holds, checked against its cross-layer
    /// bookkeeping identities (see [`crate::dcheck`], "The invariant
    /// auditor") — the one view of tracker residue, slab nodes and version
    /// tickets.
    ///
    /// At quiescence (`in_flight == 0`) the full set of drain-time
    /// identities is checked: `executed + poisoned + cancelled == spawned`,
    /// the tracker gate even, no tracked history residue after GC,
    /// slab `outstanding == 0`, and version-ticket bind/release balance. While
    /// tasks are in flight only the direction that must hold mid-run is
    /// checked (the completion ledger never overtakes the spawn counter).
    ///
    /// **Call it only while no other thread can spawn** — for example right
    /// after the caller's own [`Runtime::taskwait`]. Quiescence is decided
    /// from one `in_flight` read, and the counters, tracker, slab and
    /// tickets are read after it; a spawn running meanwhile (it commits
    /// tickets, then takes a slab node, then inserts the task) breaks the
    /// drain-time identities of a correct program, and the audit reports a
    /// violation that is not there.
    ///
    /// Runs automatically at every quiescent `taskwait` when
    /// dcheck is armed; violations found there are reported by
    /// [`Runtime::take_dcheck_audit_violations`].
    pub fn audit(&self) -> std::result::Result<AuditReport, AuditViolation> {
        self.inner.audit_inner()
    }

    /// Drain the race reports the [`dcheck`](crate::dcheck) oracle has
    /// accumulated (always empty when dcheck is off).
    pub fn take_dcheck_reports(&self) -> Vec<RaceReport> {
        self.inner
            .dcheck
            .as_ref()
            .map_or_else(Vec::new, |d| d.take_reports())
    }

    /// Drain the violations found by the automatic quiescent audits dcheck
    /// runs at every `taskwait` (always empty when dcheck is off).
    pub fn take_dcheck_audit_violations(&self) -> Vec<AuditViolation> {
        self.inner
            .dcheck
            .as_ref()
            .map_or_else(Vec::new, |d| d.take_audit_violations())
    }

    /// Test-only mutation hook ("checker checks the checker"): suppress the
    /// oracle's clock merge for the dcheck epoch-index pair `(pred, succ)`
    /// — indices are assigned in spawn order from 0 per epoch — simulating
    /// a missed tracker edge. The dependence graph itself is untouched; only
    /// the oracle's view loses the ordering, so a run over genuinely
    /// conflicting data must produce exactly that race report. No-op when
    /// dcheck is off.
    #[doc(hidden)]
    pub fn dcheck_suppress_edge(&self, pred: u64, succ: u64) {
        if let Some(d) = &self.inner.dcheck {
            d.suppress_edge(pred, succ);
        }
    }

    /// Snapshot of the execution trace (empty unless tracing was enabled).
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.inner.trace.snapshot()
    }

    /// Busy nanoseconds per worker derived from the trace.
    pub fn busy_ns_per_worker(&self) -> Vec<u64> {
        self.inner.trace.busy_ns_per_worker()
    }

    /// Export the execution trace in Chrome-tracing JSON format (empty array
    /// unless tracing was enabled). Load the string into `chrome://tracing`
    /// or Perfetto to get the per-worker Gantt view the OmpSs toolchain
    /// produces with Paraver.
    pub fn chrome_trace(&self) -> String {
        self.inner.trace.to_chrome_trace()
    }

    /// Errors recorded from panicking task bodies since the last call.
    pub fn take_panics(&self) -> Vec<Error> {
        std::mem::take(&mut *self.inner.panics.lock())
    }

    /// Shut the runtime down explicitly (also happens on drop): waits for all
    /// in-flight tasks and joins the worker threads.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.taskwait();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown_impl();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.inner.config.workers)
            .field("policy", &self.inner.config.policy)
            .field("in_flight", &self.inner.in_flight.count())
            .finish()
    }
}

/// How a guard request reads in the undeclared-access panic.
fn access_mode(write: bool) -> &'static str {
    if write {
        "mutably"
    } else {
        "for reading"
    }
}

/// The panicking face of `Runtime::settle` and the fallible unwraps;
/// `fallible` names the call that reports instead.
fn or_panic<T, H>(result: std::result::Result<T, (H, Error)>, fallible: &str) -> T {
    match result {
        Ok(value) => value,
        Err((_, Error::Poisoned { origin })) => {
            panic!("cannot read data back after a poisoned run (origin {origin}); see {fallible}")
        }
        Err((_, err)) => panic!("{err}; drop the other clones first"),
    }
}

/// Poll until `pending` turns false, running ready tasks in between: a
/// thread waiting for tasks is one more executor of them, as the paper's
/// master thread is at a task barrier, and a nested `taskwait` that only
/// spun could deadlock the pool. It is also what keeps one program at one
/// speed: a waiter that only spins holds a core to itself while the workers
/// share the others, so whether the drain runs on every core or on one
/// fewer is decided by where the OS put the threads. Every wait comes here:
/// `taskwait`, `taskwait on` and `fetch`, from the main context or inside a
/// task.
///
/// Back-off is chosen by role: a waiter spins, then yields (`backoff`); an
/// idle worker yields after every empty poll (`SchedState::idle_wait`). One
/// back-off for every thread loses a workload either way (ledger, 2-vCPU
/// host): all on `idle_wait`, `service.closed` `fresh_time_ms` +4.7 %; all
/// on `backoff`, `insert.storm` +5.8 % and `service.closed` +5.2 %.
fn help_while(inner: &Arc<RuntimeInner>, worker: Option<usize>, pending: impl Fn() -> bool) {
    let mut spins = 0u32;
    let mut ready = Vec::new();
    while pending() {
        match inner.sched.pop(worker, &inner.stats) {
            Some(task) => {
                worker::execute_task(inner, task, worker, &mut ready);
                spins = 0;
            }
            None => backoff(&mut spins),
        }
    }
}

/// The one `taskwait on` body, from the main context (`worker == None`) or
/// inside a task. The waiter lets go of each node as every holder does, so
/// the last one parks it in the slab (its worker owes the `child_done`).
fn wait_on(inner: &Arc<RuntimeInner>, worker: Option<usize>, handle: &impl Accessible) {
    inner.stats.add(StatField::TaskwaitOns, 1);
    for region in handle.sync_regions() {
        for task in inner.tracker.tasks_touching(&region, &inner.stats) {
            help_while(inner, worker, || !task.is_completed());
            inner.slab.try_recycle(task);
        }
    }
}

fn backoff(spins: &mut u32) {
    if *spins < 64 {
        std::hint::spin_loop();
        *spins += 1;
    } else {
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// TaskBuilder
// ---------------------------------------------------------------------------

/// Builder for a task, mirroring the clauses of `#pragma omp task`.
///
/// Access clauses resolve to a concrete data version *at declaration time*
/// (in program order on the spawning thread): an `output` clause on a
/// versioned handle renames it to a fresh version, and every later clause —
/// of this task or of later tasks — binds the renamed version.
pub struct TaskBuilder<'r> {
    inner: &'r Arc<RuntimeInner>,
    /// The spawning task's child tracker; `None` from the main context.
    parent_children: Option<Arc<ChildTracker>>,
    /// The worker whose task body is spawning, if one is.
    worker: Option<usize>,
    name: Option<Arc<str>>,
    priority: TaskPriority,
    /// The clauses declared so far, resolved. Dropping the builder without
    /// [`TaskBuilder::spawn`] drops the set, which releases what it bound.
    clauses: ClauseSet,
    /// Cancel scope the spawned task will carry: the spawning thread's
    /// active scope for root spawns, the parent task's flag for nested ones.
    cancel: Option<Arc<AtomicBool>>,
}

impl<'r> TaskBuilder<'r> {
    pub(crate) fn new(
        inner: &'r Arc<RuntimeInner>,
        parent_children: Option<Arc<ChildTracker>>,
        worker: Option<usize>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Self {
        TaskBuilder {
            inner,
            parent_children,
            worker,
            name: None,
            priority: TaskPriority::default(),
            clauses: ClauseSet::default(),
            cancel,
        }
    }

    /// Give the task a name (shown in traces and panic reports).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(Arc::from(name));
        self
    }

    /// Set the scheduling priority (higher runs earlier among ready tasks).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = TaskPriority(priority);
        self
    }

    /// Declare an access with an explicit kind.
    pub fn access(mut self, kind: AccessKind, handle: &impl Accessible) -> Self {
        let cx = self.inner.rename_cx();
        if let Err(clash) = self.clauses.declare(kind, handle, &cx) {
            // Unwinding drops the builder, releasing the earlier clauses.
            clash.raise();
        }
        self
    }

    /// Declare a read access (`input(x)`).
    pub fn input(self, handle: &impl Accessible) -> Self {
        self.access(AccessKind::Input, handle)
    }

    /// Declare a write access (`output(x)`). On a versioned handle this
    /// renames to a fresh version (when renaming is enabled), eliminating
    /// WAR/WAW serialisation.
    pub fn output(self, handle: &impl Accessible) -> Self {
        self.access(AccessKind::Output, handle)
    }

    /// Declare a read-write access (`inout(x)`).
    pub fn inout(self, handle: &impl Accessible) -> Self {
        self.access(AccessKind::InOut, handle)
    }

    /// Declare a commutative-update access (`concurrent(x)`).
    pub fn concurrent(self, handle: &impl Accessible) -> Self {
        self.access(AccessKind::Concurrent, handle)
    }

    /// Spawn the task. The closure receives a [`TaskContext`] through which
    /// it obtains guarded access to the declared data.
    pub fn spawn<F>(self, body: F) -> TaskId
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        let inner = self.inner;
        let bound = self.clauses.commit(&inner.stats);
        // The node comes from the runtime's slab: recycled storage when a
        // retired node is available, a fresh allocation otherwise. Small
        // bodies are written into the node's inline buffer — a steady-state
        // ≤2-access spawn allocates nothing here at all.
        let mut spilled = false;
        let node = inner.slab.acquire(
            self.name,
            self.priority,
            bound.accesses,
            bound.tickets,
            body,
            self.parent_children,
            0,
            self.cancel,
            &mut spilled,
        );
        if spilled {
            inner.stats.add(StatField::SpawnBodySpills, 1);
        }
        let id = node.id;
        inner.insert(
            [node],
            std::slice::from_ref(&bound.renamed),
            self.worker,
            |nodes, record_edges| {
                inner
                    .tracker
                    .register(&nodes[0], record_edges, &inner.stats)
            },
            |_| {},
        );
        id
    }
}

// ---------------------------------------------------------------------------
// ClauseSet
// ---------------------------------------------------------------------------

/// The access clauses of one task under construction, resolved: the one
/// place a clause becomes bindings, whether a [`TaskBuilder`] declares it or
/// a template replay re-resolves a recorded recipe. Owns what resolution
/// bound until [`ClauseSet::commit`] hands it to the task; a set dropped
/// before that releases its bindings, or the bound versions (and their share
/// of the rename budget) would be pinned forever — its uncommitted renames
/// simply never happen, and the handles' values are untouched.
#[derive(Default)]
pub(crate) struct ClauseSet {
    /// What the clauses declared so far resolved to, as one resolution: the
    /// accesses in declaration order (≤2 inline, so the dominant task shapes
    /// never touch the heap), their version tickets, the renames.
    bound: ResolvedAccess,
}

/// Two writing clauses on overlapping sub-regions of one *versioned* handle
/// are ill-formed (as `inout(x) output(x)` is in OmpSs): each clause binds
/// its own version, so the task body's write would target one version while
/// the rename commit makes another current — a silent lost write. Rejected
/// at declaration, at sub-region granularity: `output` on chunk 1 and chunk 2
/// of one partition is fine (disjoint chains), `output` on chunk 2 and on
/// `whole()` is not. (`input` + `output` on the same region is also fine:
/// the read binds the previous version, the write the fresh one.) A
/// [`ReplayBindings`](crate::ReplayBindings) substitution that folds two
/// captured handles onto one overlapping target is the same clash.
pub(crate) struct WriteClash(RegionId);

impl WriteClash {
    pub(crate) fn raise(self) -> ! {
        panic!(
            "task declares more than one writing access (output/inout/concurrent) \
             on overlapping regions of the same versioned handle (region {}); \
             declare a single inout (to update in place) or a single output \
             (to rename)",
            self.0
        );
    }
}

// lint: hot-path-begin — clause resolution: every clause of every task,
// freshly declared or replayed, passes through here; no panicking calls
// allowed (see `cargo xtask lint`) — a clash comes back as a value.
impl ClauseSet {
    /// Resolve one clause against `handle` (for a versioned handle: to a
    /// concrete data version, in program order on the spawning thread) and
    /// add its bindings. On a [`WriteClash`] the clause's own bindings are
    /// released and the set is left as it was.
    pub(crate) fn declare(
        &mut self,
        kind: AccessKind,
        handle: &dyn Accessible,
        cx: &RenameCx<'_>,
    ) -> std::result::Result<(), WriteClash> {
        let mut resolved = handle.resolve(kind, cx);
        if let Some(clash) = self.write_clash(&resolved) {
            // Unbind the just-created versions (their renames were never
            // committed, so the handle is untouched).
            for ticket in resolved.tickets.drain(..) {
                ticket.release();
            }
            return Err(clash);
        }
        // The output-before-input corner: a reading clause that overlaps an
        // *elided* earlier output of this same task would read the very
        // storage the task overwrites (inout-like aliasing). Un-elide the
        // write now — move its binding to a real fresh version — so the
        // read keeps observing the pre-task value whatever the clause order.
        // Only backpressure (budget / version bound) leaves the aliasing in
        // place, exactly like the rename fallback always has.
        if kind.reads() {
            self.unelide_overlapping(&resolved, cx);
        }
        self.bound.accesses.append(resolved.accesses);
        self.bound.tickets.append(&mut resolved.tickets);
        self.bound.renamed.append(&mut resolved.renamed);
        // Pin the invariant `unelide_overlapping` indexes by: version
        // tickets run 1:1, in order, with the canonical-carrying accesses
        // (every `ResolvedAccess` constructor pairs them).
        debug_assert_eq!(
            self.bound.tickets.len(),
            self.bound
                .accesses
                .iter()
                .filter(|a| a.canonical_region().is_some())
                .count(),
            "version tickets must parallel the version-bound accesses"
        );
        Ok(())
    }

    /// The clash, if a writing access in `resolved` overlaps a writing
    /// access already in the set on the same versioned handle.
    fn write_clash(&self, resolved: &ResolvedAccess) -> Option<WriteClash> {
        resolved.accesses.iter().find_map(|access| {
            let canon = access.canonical_region()?;
            (access.kind.allows_mutation()
                && self.bound.accesses.iter().any(|a| {
                    a.kind.allows_mutation()
                        && a.canonical_region().is_some_and(|c| c.overlaps(canon))
                }))
            .then_some(WriteClash(canon.id))
        })
    }

    /// Un-elide every earlier elided `output` binding whose canonical
    /// sub-region overlaps a (reading) access in `resolved`. See
    /// [`crate::rename`], "First-write rename elision". Replay re-resolves
    /// every clause through this same set, so a template captured before an
    /// un-elision cannot bake in the aliased write.
    fn unelide_overlapping(&mut self, resolved: &ResolvedAccess, cx: &RenameCx<'_>) {
        // Tickets run parallel to the version-bound subsequence of the
        // access list: `ticket` counts the canonical-carrying accesses seen.
        let mut ticket = 0;
        let bound = &mut self.bound;
        for j in 0..bound.accesses.len() {
            let Some(canon) = bound.accesses[j].canonical_region() else {
                continue;
            };
            ticket += 1;
            let aliased = bound.accesses[j].is_elided()
                && resolved
                    .accesses
                    .iter()
                    .any(|r| r.canonical_region().is_some_and(|c| c.overlaps(canon)));
            if !aliased {
                continue;
            }
            if let Some((access, event)) = bound.tickets[ticket - 1].unelide(cx) {
                debug_assert_eq!(access.kind, bound.accesses[j].kind);
                bound.accesses.as_mut_slice()[j] = access;
                bound.renamed.push(event);
            }
        }
    }

    /// The task is being inserted: this is the point in program order where
    /// its renames take effect. Committing here (not at clause declaration)
    /// means an abandoned set never changes a handle's value. Hands over
    /// what the task node takes — accesses and version tickets, counted on
    /// the bind side of the ticket ledger (release side: the worker's retire
    /// tail; [`Runtime::audit`] checks the two balance at quiescence) — and
    /// the rename events for the trace.
    pub(crate) fn commit(mut self, stats: &StatCounters) -> ResolvedAccess {
        let mut bound = std::mem::take(&mut self.bound);
        if !bound.renamed.is_empty() {
            for ticket in &mut bound.tickets {
                ticket.commit();
            }
        }
        if !bound.tickets.is_empty() {
            stats.add(StatField::TicketRefsBound, bound.tickets.len() as u64);
        }
        bound
    }
}
// lint: hot-path-end

impl Drop for ClauseSet {
    fn drop(&mut self) {
        for ticket in self.bound.tickets.drain(..) {
            ticket.release();
        }
    }
}

// ---------------------------------------------------------------------------
// TaskContext
// ---------------------------------------------------------------------------

/// Handed to every task body; provides checked access to declared data,
/// nested task creation and synchronisation.
pub struct TaskContext<'a> {
    pub(crate) inner: &'a Arc<RuntimeInner>,
    pub(crate) node: &'a Arc<TaskNode>,
    pub(crate) worker: Option<usize>,
}

impl<'a> TaskContext<'a> {
    /// Id of the executing task.
    pub fn task_id(&self) -> TaskId {
        self.node.id
    }

    /// Index of the worker executing this task; `None` on a thread that runs
    /// it while waiting in [`Runtime::taskwait`].
    pub fn worker_id(&self) -> Option<usize> {
        self.worker
    }

    /// 1-based replay pass of the [`GraphTemplate`](crate::GraphTemplate)
    /// batch this task was stamped by, or `0` for an ordinary spawn —
    /// including the capture iteration itself, which executes through the
    /// regular spawn path. Lets a captured body compute per-pass state (a
    /// pipeline ring-slot index, an iteration-dependent coefficient) that
    /// binding substitution alone cannot express.
    pub fn replay_pass(&self) -> u64 {
        self.node.replay_pass
    }

    /// The one declared-access lookup behind every guard: find the access
    /// `matches` accepts (and, for `write`, that allows mutation), panic if
    /// the task declared none, and log the access with the race oracle —
    /// under the `requested` region when the caller asks for a subset of the
    /// declared one, else under the bound version's own region.
    ///
    /// For reads on a handle declared with several accesses (e.g. input +
    /// output under renaming), the access that *reads* is preferred: it is
    /// bound to the version holding the value this task may observe.
    fn declared(
        &self,
        write: bool,
        requested: Option<&Region>,
        subject: std::fmt::Arguments<'_>,
        matches: impl Fn(&Access) -> bool,
    ) -> &Access {
        let viable = |a: &&Access| matches(a) && (!write || a.kind.allows_mutation());
        let access = if write {
            self.node.accesses.iter().find(viable)
        } else {
            self.node
                .accesses
                .iter()
                .filter(viable)
                .max_by_key(|a| a.kind.reads())
        };
        let Some(access) = access else {
            panic!(
                "task `{}` accessed {subject} without declaring a matching {} access",
                self.node.display_name(),
                if write {
                    "output/inout/concurrent"
                } else {
                    "input/inout"
                },
            );
        };
        if let Some(d) = &self.inner.dcheck {
            // A requested region is a subset of the declared one: any
            // overlap the oracle sees on it, the tracker saw on the declared
            // region too, so oracle conflicts never outrun tracker edges. A
            // bound region carries the *version's* AllocId (renamed versions
            // mint fresh ids), so "same version" falls out of the record's
            // alloc field in the oracle.
            d.log_access(
                self.worker,
                self.node,
                requested.unwrap_or(&access.region),
                write,
                access.kind == AccessKind::Concurrent,
            );
        }
        access
    }

    /// Check that the task declared an access covering `region` of a plain
    /// partition.
    fn check_access(&self, region: &Region, write: bool, what: &str) {
        self.declared(
            write,
            Some(region),
            format_args!("{what} {} {}", region.id, access_mode(write)),
            |a| a.region.contains(region),
        );
    }

    /// The storage of the version of `data` this task is bound to — resolved
    /// once at bind time, so this is lock-free however the handle is
    /// versioned.
    fn data_binding<T: Send + 'static>(&self, data: &Data<T>, write: bool) -> *mut T {
        let root = data.root_alloc();
        let access = self.declared(
            write,
            None,
            format_args!("data {} {}", root.raw(), access_mode(write)),
            |a| a.root_alloc() == root,
        );
        let (ptr, _len) = access
            .bound_ptr()
            .expect("runtime-resolved accesses carry their storage pointer");
        // The pointer was resolved at bind time; the bound version cannot
        // move or be reclaimed while this task holds its ticket.
        debug_assert_eq!(
            data.ptr_for_alloc(access.region.id.alloc),
            Some(ptr as *mut T),
            "bind-time pointer must match the live version storage"
        );
        ptr as *mut T
    }

    /// The storage of the version of chunk `index` of a versioned partition
    /// this task is bound to. An access declared on `whole()` covers every
    /// chunk (whole accesses on versioned partitions resolve to one binding
    /// per chunk).
    fn chunk_binding<T: Send + 'static>(
        &self,
        part: &std::sync::Arc<crate::handle::PartInner<T>>,
        index: usize,
        write: bool,
    ) -> (*mut T, usize) {
        let canon = part.chunk_canonical_region(index);
        let access = self.declared(
            write,
            None,
            format_args!("chunk {} {}", canon.id, access_mode(write)),
            |a| a.canonical_region().is_some_and(|c| c.contains(&canon)),
        );
        let (ptr, len) = access
            .bound_ptr()
            .expect("runtime-resolved accesses carry their storage pointer");
        (ptr as *mut T, len)
    }

    /// Obtain shared access to `data`; the task must have declared any access
    /// on it. For a versioned handle the guard refers to the version this
    /// task was bound to at spawn time.
    pub fn read<'d, T: Send + 'static>(&self, data: &'d Data<T>) -> ReadGuard<'d, T> {
        let ptr = self.data_binding(data, false);
        ReadGuard {
            // SAFETY: the declared access was verified by `data_binding`,
            // the bound version is pinned by this task's ticket for the
            // guard's lifetime, and the dependence tracker orders every
            // conflicting writer before or after this task.
            value: unsafe { &*ptr },
        }
    }

    /// Obtain exclusive access to `data`; the task must have declared an
    /// `output`, `inout` or `concurrent` access on it. For a versioned
    /// handle the guard refers to the version this task was bound to at
    /// spawn time (for a renamed `output`: the fresh version).
    pub fn write<'d, T: Send + 'static>(&self, data: &'d Data<T>) -> WriteGuard<'d, T> {
        let ptr = self.data_binding(data, true);
        WriteGuard {
            // SAFETY: as in `read`, and the mutation-capable declared access
            // makes this task the version's sole writer while it runs.
            value: unsafe { &mut *ptr },
        }
    }

    /// Obtain shared access to one chunk of a partitioned vector. For a
    /// versioned partition the guard refers to the chunk version this task
    /// was bound to at spawn time; a whole-array declaration covers every
    /// chunk.
    pub fn read_chunk<'d, T: Send + 'static>(&self, chunk: &'d Chunk<T>) -> SliceReadGuard<'d, T> {
        let (ptr, len) = if chunk.is_versioned() {
            self.chunk_binding(&chunk.inner, chunk.index(), false)
        } else {
            self.check_access(&chunk.region(), false, "chunk");
            chunk.slice_ptr()
        };
        SliceReadGuard {
            // SAFETY: `(ptr, len)` is the chunk's bound (or checked plain)
            // storage; the tracker orders conflicting writers, and the
            // binding pins the version for the guard's lifetime.
            slice: unsafe { std::slice::from_raw_parts(ptr, len) },
        }
    }

    /// Obtain exclusive access to one chunk of a partitioned vector. For a
    /// versioned partition the guard refers to the chunk version this task
    /// was bound to at spawn time (for a renamed `output`: the fresh
    /// version).
    pub fn write_chunk<'d, T: Send + 'static>(
        &self,
        chunk: &'d Chunk<T>,
    ) -> SliceWriteGuard<'d, T> {
        let (ptr, len) = if chunk.is_versioned() {
            self.chunk_binding(&chunk.inner, chunk.index(), true)
        } else {
            self.check_access(&chunk.region(), true, "chunk");
            chunk.slice_ptr()
        };
        SliceWriteGuard {
            // SAFETY: as in `read_chunk`, and the mutation-capable declared
            // access makes this task the chunk's sole writer while it runs.
            slice: unsafe { std::slice::from_raw_parts_mut(ptr, len) },
        }
    }

    /// Obtain shared access to the whole partitioned vector as one
    /// contiguous slice.
    ///
    /// # Panics
    /// Panics on a **versioned** partition: its chunks live in independent
    /// version buffers, so no contiguous slice exists. Use
    /// [`TaskContext::read_chunk`] per chunk, or
    /// [`TaskContext::gather_whole`] for a copied-out contiguous view.
    pub fn read_whole<'d, T: Send + 'static>(&self, whole: &'d Whole<T>) -> SliceReadGuard<'d, T> {
        assert!(
            !whole.is_versioned(),
            "read_whole needs contiguous storage; a versioned partition's chunks \
             live in independent version buffers — use read_chunk or gather_whole",
        );
        self.check_access(&whole.region(), false, "array");
        let (ptr, len) = whole.slice_ptr();
        SliceReadGuard {
            // SAFETY: `(ptr, len)` is the plain partition's whole backing
            // array; `check_access` verified the declared access, and the
            // tracker orders conflicting writers around this task.
            slice: unsafe { std::slice::from_raw_parts(ptr, len) },
        }
    }

    /// Obtain exclusive access to the whole partitioned vector as one
    /// contiguous slice.
    ///
    /// # Panics
    /// Panics on a **versioned** partition (see [`TaskContext::read_whole`]);
    /// use [`TaskContext::write_chunk`] per chunk, or
    /// [`TaskContext::scatter_whole`].
    pub fn write_whole<'d, T: Send + 'static>(
        &self,
        whole: &'d Whole<T>,
    ) -> SliceWriteGuard<'d, T> {
        assert!(
            !whole.is_versioned(),
            "write_whole needs contiguous storage; a versioned partition's chunks \
             live in independent version buffers — use write_chunk or scatter_whole",
        );
        self.check_access(&whole.region(), true, "array");
        let (ptr, len) = whole.slice_ptr();
        SliceWriteGuard {
            // SAFETY: as in `read_whole`, and the mutation-capable declared
            // access makes this task the array's sole writer.
            slice: unsafe { std::slice::from_raw_parts_mut(ptr, len) },
        }
    }

    /// Copy the whole partitioned vector out into one contiguous `Vec`,
    /// chunk by chunk, through this task's read bindings. Works on plain and
    /// versioned partitions alike; on a versioned partition each chunk is
    /// read from the version the task was bound to.
    pub fn gather_whole<T: Send + Clone + 'static>(&self, whole: &Whole<T>) -> Vec<T> {
        if !whole.is_versioned() {
            return self.read_whole(whole).to_vec();
        }
        let mut out = Vec::with_capacity(whole.len());
        for index in 0..whole.inner.chunks.len() {
            let (ptr, len) = self.chunk_binding(&whole.inner, index, false);
            // SAFETY: `(ptr, len)` is the chunk's bound storage, pinned by
            // this task's binding (same argument as `read_chunk`).
            out.extend_from_slice(unsafe { std::slice::from_raw_parts(ptr, len) });
        }
        out
    }

    /// Copy `src` into the whole partitioned vector, chunk by chunk, through
    /// this task's write bindings (for renamed `output` accesses: the fresh
    /// chunk versions). Works on plain and versioned partitions alike.
    ///
    /// # Panics
    /// Panics if `src.len()` differs from the partition length.
    pub fn scatter_whole<T: Send + Clone + 'static>(&self, whole: &Whole<T>, src: &[T]) {
        assert_eq!(
            src.len(),
            whole.len(),
            "scatter_whole source length must match the partition length"
        );
        if !whole.is_versioned() {
            self.write_whole(whole).clone_from_slice(src);
            return;
        }
        for index in 0..whole.inner.chunks.len() {
            let (ptr, len) = self.chunk_binding(&whole.inner, index, true);
            // SAFETY: `(ptr, len)` is the chunk's bound storage and the
            // write binding makes this task its sole writer (as in
            // `write_chunk`).
            let dst = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
            dst.clone_from_slice(&src[whole.inner.chunks[index].clone()]);
        }
    }

    /// Begin building a nested task (child of the current task). The child
    /// inherits the current task's cancel scope, so cancelling a subtree's
    /// token also covers tasks spawned from inside its tasks.
    pub fn task(&self) -> TaskBuilder<'a> {
        TaskBuilder::new(
            self.inner,
            Some(self.node.children.clone()),
            self.worker,
            self.node.cancel.clone(),
        )
    }

    /// Wait for the direct children of the current task. While waiting, the
    /// calling worker helps execute ready tasks so that nested `taskwait`
    /// never deadlocks the pool.
    pub fn taskwait(&self) {
        self.inner.stats.add(StatField::Taskwaits, 1);
        help_while(self.inner, self.worker, || {
            self.node.children.live_children() > 0
        });
    }

    /// Wait for the in-flight tasks accessing `handle` (helping execute ready
    /// tasks meanwhile). For a versioned handle this covers every version
    /// still in flight.
    pub fn taskwait_on(&self, handle: &impl Accessible) {
        wait_on(self.inner, self.worker, handle);
    }

    /// Execute `f` under the named critical section.
    pub fn critical<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.inner.critical.enter(name, f)
    }
}

impl std::fmt::Debug for TaskContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskContext")
            .field("task", &self.node.id)
            .field("worker", &self.worker)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::InFlight;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn in_flight_is_entered_minus_left_on_separate_lines() {
        let f = InFlight::default();
        assert_eq!(f.count(), 0);
        f.enter(3);
        f.leave();
        f.leave();
        assert_eq!(f.count(), 1);
        f.enter(1);
        f.leave();
        f.leave();
        assert_eq!(f.count(), 0);
        let at = |count: &AtomicUsize| count as *const _ as usize;
        assert!(at(&f.entered).abs_diff(at(&f.left)) >= 128);
    }
}
