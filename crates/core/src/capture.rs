//! Graph capture & batch replay: record one iteration's task graph, stamp
//! the rest.
//!
//! Every benchmark in this reproduction is an outer loop whose iteration *k*
//! has the same dependence shape as iteration *k−1*, yet each spawn re-runs
//! clause resolution and a full tracker registration — the per-task
//! insertion overhead the paper identifies as the scalability ceiling of
//! task-superscalar runtimes. Capture/replay amortises that overhead across
//! the batch (à la CUDA graphs):
//!
//! * [`Runtime::capture`] opens a [`CaptureScope`]. Tasks spawned through
//!   the scope **execute normally** — the capture iteration *is* a regular
//!   iteration, going through the ordinary [`TaskBuilder`] path — and are
//!   additionally recorded as *recipes*: the clause list (kind + handle),
//!   the body, name and priority.
//! * [`CaptureScope::finish`] freezes the recipes into a [`GraphTemplate`].
//! * [`Runtime::replay`] re-stamps the whole batch: every recipe's clauses
//!   are re-resolved (optionally substituted through [`ReplayBindings`]),
//!   the nodes are acquired from the task slab, and the entire batch is
//!   registered with the dependence tracker under **one** gate
//!   acquisition instead of one per task, then each ready root is queued as
//!   its registration sentinel is released.
//!
//! A fresh spawn and a replay differ in two things only: **how the clauses
//! are resolved** (a [`TaskBuilder`] declares them call by call; a replay
//! feeds a recipe's recorded clauses — or, pre-wired, takes the frozen
//! plan's access copies — through the same `ClauseSet`) and **which
//! registration runs** (`register` for one node, `register_batch` /
//! `register_batch_prewired` for the batch). Everything after registration
//! is `RuntimeInner::insert`, for which a fresh spawn is a batch of one. So
//! a replay also *fails* like the spawn loop it stands for: on a write clash
//! from folded bindings the recipes before it are inserted and run, the
//! clashing recipe's bindings are released, then the panic propagates.
//!
//! # Resolved passes, and the freeze → pre-wired state machine
//!
//! A template starts life **unfrozen**. An unfrozen (or binding-substituted)
//! replay runs a *resolved* pass: it does not copy the captured iteration's
//! resolved accesses or successor edges, because both depend on mutable
//! version state — renaming binds each `output` clause to a fresh version,
//! first-write elision depends on the live reference count of the current
//! version, and the output-before-elided-input corner can force a bind-time
//! un-elision. Baking any of that in would replay yesterday's decisions
//! against today's state. So each resolved pass re-runs resolution — through
//! the very `ClauseSet` the builder path declares into, so the same
//! [`crate::rename`] machinery, write-clash rejection and un-elision check
//! by construction — and re-derives the edges
//! inside the batch registration: node *i*'s history update lands before
//! node *i+1*'s predecessor scan, so intra-batch edges fall out of the
//! ordinary three-pass dance, and cross-batch predecessors (tasks of the
//! previous iteration still in flight) are discovered exactly as a fresh
//! spawn would discover them. What the batch saves is the per-task
//! synchronisation overhead: one gate acquisition and one
//! in-flight/stat/GC update for the whole batch.
//!
//! For the renaming-free case all of that re-derivation is itself
//! redundant: the resolved accesses are identical every pass, and so are
//! the intra-batch edges. The template tracks this with a small state
//! machine:
//!
//! * **Unfrozen → Frozen.** A resolved pass that ran with empty bindings
//!   and observed *zero* version tickets (so no renames either) proves
//!   clause resolution is pass-invariant (plain handles only), and
//!   the template **freezes**: the batch is shadow-registered once against
//!   an empty history to bake a [`graph`]-level plan — per-task resolved
//!   accesses, the intra-batch successor edges and dep counts of every
//!   *interior* task (one whose accesses all land on regions an earlier
//!   in-batch `output`/`inout` fully overwrote), and the per-allocation
//!   region-id sets that validate the plan later. Those sets must be
//!   pairwise disjoint — the chunks of a partition freeze fine, but a
//!   batch mixing *overlapping* regions on one allocation (a chunk plus
//!   the whole array) never freezes: the live overlap scan could see
//!   history through one region that the other's baked edges cannot.
//! * **Frozen + empty bindings → pre-wired pass.** `replay` skips clause
//!   resolution entirely, arms slab nodes from the frozen accesses, wires
//!   the baked interior edges *before* taking any gate, then under the
//!   usual batch gate only (a) **validates** the plan — each frozen
//!   allocation must still carry only the plan's region ids — (b) registers
//!   the *live prefix* (every task up to the last frontier task — the first
//!   write per region, which can see the previous iteration's in-flight
//!   tasks — since a frontier scan may need any earlier prefix entry), and
//!   (c) **bulk-publishes the interior tail**: the tasks after the last
//!   frontier task never touch the history maps per task at all — the
//!   plan's baked per-region installs replace each overwritten region's
//!   history with the batch's net final state in one pass.
//! * **Frozen + validation failure → fallback.** If live state disagrees —
//!   a rename or sub-region access elsewhere minted another region id on a
//!   frozen allocation — the pass unwires the baked edges and falls back to
//!   the resolved-per-pass registration above, so correctness is never
//!   baked in. The plan is kept: the conflicting history is usually
//!   transient (completed tasks that the next garbage-collection sweep
//!   drops).
//! * **Frozen + non-empty bindings → resolved pass.** Substituted handles
//!   must re-resolve; the plan is kept for later empty-binding passes.
//!
//! Templates whose clauses touch versioned handles produce tickets on every
//! pass and therefore never freeze — renaming and pre-wiring are mutually
//! exclusive by construction, which is exactly the paper's trade: renaming
//! removes WAR/WAW serialisation, pre-wiring removes bookkeeping from
//! graphs that have no false dependences left to remove.
//!
//! Consecutive replays need no barrier between them: every task's history
//! update lands in batch order, so pass *m*'s frontier scan (or, resolved,
//! every scan) picks up pass *m−1*'s writers — the carried inter-iteration
//! dependences. Replays also run **concurrently**: scratch buffers
//! are leased from a pool rather than held under one template-wide mutex,
//! so two templates — or two disjoint-binding replays of one template —
//! stamp in parallel and serialise only at the tracker gate, like any two
//! spawning threads.
//!
//! # Bindings
//!
//! [`ReplayBindings`] substitutes handles at clause-resolution time, keyed
//! by [`Accessible::replay_key`] (the canonical region id, stable across
//! renames). Bodies still reference the handles they captured: a binding
//! redirects the *dependence* (and, for versioned handles, the version
//! chain being advanced), so the idiomatic pairing is clause substitution
//! plus a body that derives its storage from
//! [`TaskContext::replay_pass`](crate::TaskContext::replay_pass) — see
//! [`RenameRing::rebind`](crate::RenameRing::rebind) for the pipeline
//! pattern. For plain same-handle iteration (the dominant benchmark shape),
//! replay with empty bindings re-runs the captured iteration as-is.
//!
//! # Invalidation rules
//!
//! A template never dangles — recipes hold owning handles — but it must be
//! **dropped and re-captured** when the graph it describes is no longer the
//! graph the program wants:
//!
//! * the per-iteration task structure changes (different task count, bodies,
//!   clause lists, or clause order);
//! * a handle it captured is retired from the computation and no
//!   [`ReplayBindings`] entry redirects it;
//! * the runtime it was captured on shuts down ([`Runtime::replay`] panics
//!   if handed a template captured on a different runtime).
//!
//! Version state is *not* an invalidation concern: resolved passes pick up
//! current versions, budgets and elision opportunities on every pass, and a
//! frozen plan is validated against live tracker state under the gate on
//! every pre-wired pass (falling back when it disagrees).
//!
//! Equivalence with fresh spawning is pinned by
//! `tests/replay_equivalence.rs` (edge multisets and final values, against
//! the forced-fallback reference too) and the replay extension of
//! `tests/property_runtime.rs` (sequential-semantics oracle).

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::access::AccessKind;
use crate::graph;
use crate::handle::Accessible;
use crate::region::RegionId;
use crate::rename::RenameEvent;
use crate::runtime::{ClauseSet, Runtime, RuntimeInner, TaskBuilder, TaskContext};
use crate::stats::StatField;
use crate::task::{TaskId, TaskNode, TaskPriority};
use crate::trace::TraceEvent;

/// A recorded task body: shared by the capture iteration and every replay
/// pass, so it is `Fn` (re-runnable) rather than the builder's `FnOnce`.
type CapturedBody = Arc<dyn Fn(&TaskContext<'_>) + Send + Sync + 'static>;

/// One recorded access clause: the kind, the handle it named (owned, so the
/// template keeps the data alive), and the handle's stable replay key.
struct CapturedClause {
    kind: AccessKind,
    key: RegionId,
    handle: Arc<dyn Accessible + Send + Sync>,
}

/// One recorded task recipe, replayed in capture order.
struct CapturedTask {
    name: Option<Arc<str>>,
    priority: TaskPriority,
    clauses: Vec<CapturedClause>,
    body: CapturedBody,
}

/// Records one iteration's task graph while it is being spawned (and
/// executed) normally. Obtained from [`Runtime::capture`]; finished into a
/// [`GraphTemplate`] with [`CaptureScope::finish`].
pub struct CaptureScope<'r> {
    rt: &'r Runtime,
    tasks: Vec<CapturedTask>,
    first: Option<TaskId>,
}

impl<'r> CaptureScope<'r> {
    /// Begin building a task that is spawned normally **and** recorded into
    /// the template under construction.
    pub fn task(&mut self) -> CapturedTaskBuilder<'_, 'r> {
        let builder = self.rt.task();
        CapturedTaskBuilder {
            scope: self,
            builder,
            name: None,
            priority: TaskPriority::default(),
            clauses: Vec::new(),
        }
    }

    /// Number of tasks recorded so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no task has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Freeze the recorded recipes into a [`GraphTemplate`]. Records a
    /// [`TraceEvent::Captured`] event when tracing is enabled.
    pub fn finish(self) -> GraphTemplate {
        let inner = &self.rt.inner;
        if inner.trace.is_enabled() {
            inner.trace.record(TraceEvent::Captured {
                task: self.first.unwrap_or(TaskId(0)),
                tasks: self.tasks.len(),
                at_ns: inner.trace.now_ns(),
            });
        }
        GraphTemplate {
            owner: Arc::downgrade(inner),
            tasks: self.tasks,
            scratch: Mutex::new(Vec::new()),
            frozen: Mutex::new(None),
            passes: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for CaptureScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureScope")
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

/// Builder for a task spawned through a [`CaptureScope`]: mirrors
/// [`TaskBuilder`]'s clause methods, forwarding each clause to a real
/// builder (the capture iteration resolves, registers and executes
/// normally) while recording the clause recipe for replay.
///
/// Handles must additionally be `Clone + Send + Sync` (the template owns a
/// clone of each), and the body must be a re-runnable `Fn + Send + Sync`
/// rather than the builder's `FnOnce`.
pub struct CapturedTaskBuilder<'s, 'r> {
    scope: &'s mut CaptureScope<'r>,
    builder: TaskBuilder<'r>,
    name: Option<Arc<str>>,
    priority: TaskPriority,
    clauses: Vec<CapturedClause>,
}

impl CapturedTaskBuilder<'_, '_> {
    /// Give the task a name (shown in traces and panic reports).
    pub fn name(mut self, name: &str) -> Self {
        self.name = Some(Arc::from(name));
        self.builder = self.builder.name(name);
        self
    }

    /// Set the scheduling priority (higher runs earlier among ready tasks).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = TaskPriority(priority);
        self.builder = self.builder.priority(priority);
        self
    }

    /// Declare an access with an explicit kind, recording it for replay.
    pub fn access<H>(mut self, kind: AccessKind, handle: &H) -> Self
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.clauses.push(CapturedClause {
            kind,
            key: handle.replay_key(),
            handle: Arc::new(handle.clone()),
        });
        self.builder = self.builder.access(kind, handle);
        self
    }

    /// Declare a read access (`input(x)`).
    pub fn input<H>(self, handle: &H) -> Self
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.access(AccessKind::Input, handle)
    }

    /// Declare a write access (`output(x)`).
    pub fn output<H>(self, handle: &H) -> Self
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.access(AccessKind::Output, handle)
    }

    /// Declare a read-write access (`inout(x)`).
    pub fn inout<H>(self, handle: &H) -> Self
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.access(AccessKind::InOut, handle)
    }

    /// Declare a commutative-update access (`concurrent(x)`).
    pub fn concurrent<H>(self, handle: &H) -> Self
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.access(AccessKind::Concurrent, handle)
    }

    /// Spawn the task now (through the ordinary builder path — the capture
    /// iteration executes like any other) and record its recipe in the
    /// scope. Returns the capture iteration's task id.
    pub fn spawn<F>(self, body: F) -> TaskId
    where
        F: Fn(&TaskContext<'_>) + Send + Sync + 'static,
    {
        let body: CapturedBody = Arc::new(body);
        let run = body.clone();
        let id = self.builder.spawn(move |ctx| run(ctx));
        self.scope.first.get_or_insert(id);
        self.scope.tasks.push(CapturedTask {
            name: self.name,
            priority: self.priority,
            clauses: self.clauses,
            body,
        });
        id
    }
}

/// A recorded batch of task recipes, produced by [`CaptureScope::finish`]
/// and re-stamped by [`Runtime::replay`]. See
/// the [module docs](self) for the capture/replay semantics, the
/// freeze → pre-wired state machine and the invalidation rules.
pub struct GraphTemplate {
    owner: Weak<RuntimeInner>,
    tasks: Vec<CapturedTask>,
    /// Scratch lease pool of node buffers, one per concurrent replay lane: a
    /// replay pops one (or starts a fresh one), stamps the pass's acquired
    /// nodes into it without holding any template-wide lock, and pushes it
    /// back — so a warm replay allocates nothing and two passes never
    /// serialise on a buffer mutex.
    scratch: Mutex<Vec<Vec<Arc<TaskNode>>>>,
    /// The frozen pre-wired plan, once a pass has proven the batch is
    /// renaming-free (see the module docs). Replay passes clone the `Arc`
    /// out, so freezing never blocks a concurrent pass.
    frozen: Mutex<Option<Arc<graph::FrozenPlan>>>,
    passes: AtomicU64,
}

impl GraphTemplate {
    /// Number of tasks one replay pass spawns.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the template records no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of replay passes stamped so far (the capture itself is pass
    /// 0 and is not counted).
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Whether the template has been frozen into a pre-wired plan. Frozen
    /// templates stamp empty-binding replays through the baked-edge fast
    /// path (unless live validation falls a pass back — see the module
    /// docs); templates over versioned (renameable) handles never freeze.
    pub fn is_frozen(&self) -> bool {
        self.frozen.lock().is_some()
    }
}

impl std::fmt::Debug for GraphTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphTemplate")
            .field("tasks", &self.tasks.len())
            .field("passes", &self.passes())
            .finish()
    }
}

/// Handle substitutions applied at replay-resolution time, keyed by
/// [`Accessible::replay_key`]. An empty `ReplayBindings` (the common
/// same-handles iteration) adds no lookup cost and no allocation to the
/// replay path.
#[derive(Default)]
pub struct ReplayBindings {
    map: HashMap<RegionId, Arc<dyn Accessible + Send + Sync>>,
}

impl ReplayBindings {
    /// An empty binding set: every clause resolves against the handle it
    /// captured.
    pub fn new() -> Self {
        Self::default()
    }

    /// Redirect every captured clause on `from` to resolve against `to`
    /// instead. Later bindings for the same handle replace earlier ones.
    pub fn bind<H>(&mut self, from: &H, to: &H)
    where
        H: Accessible + Clone + Send + Sync + 'static,
    {
        self.map.insert(from.replay_key(), Arc::new(to.clone()));
    }

    /// Number of bindings installed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no binding is installed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Remove every binding.
    pub fn clear(&mut self) {
        self.map.clear()
    }

    fn lookup(&self, key: RegionId) -> Option<&(dyn Accessible + Send + Sync)> {
        if self.map.is_empty() {
            return None;
        }
        self.map.get(&key).map(|a| &**a)
    }
}

impl std::fmt::Debug for ReplayBindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayBindings")
            .field("bindings", &self.map.len())
            .finish()
    }
}

impl Runtime {
    /// Open a capture scope: tasks spawned through it run normally *and*
    /// are recorded into a [`GraphTemplate`] for later [`Runtime::replay`].
    ///
    /// ```
    /// use ompss::{ReplayBindings, Runtime, RuntimeConfig};
    ///
    /// let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    /// let a = rt.data(0u64);
    /// let mut scope = rt.capture();
    /// {
    ///     let a = a.clone();
    ///     scope.task().inout(&a).spawn(move |ctx| *ctx.write(&a) += 1);
    /// }
    /// let template = scope.finish(); // the capture iteration ran: a == 1
    /// for _ in 0..3 {
    ///     rt.replay(&template, &ReplayBindings::new());
    /// }
    /// rt.taskwait();
    /// assert_eq!(rt.fetch(&a), 4);
    /// ```
    pub fn capture(&self) -> CaptureScope<'_> {
        CaptureScope {
            rt: self,
            tasks: Vec::new(),
            first: None,
        }
    }

    /// Re-stamp a captured batch: on a frozen template with empty bindings
    /// this is the pre-wired fast path (baked interior edges, frontier-only
    /// live registration, no clause resolution); otherwise every recipe's
    /// clauses are re-resolved (substituted through `bindings` where bound).
    /// Either way the whole batch registers under a single multi-gate
    /// acquisition; its ready roots are queued as their sentinels are
    /// released.
    /// Returns the 1-based pass number of this replay.
    ///
    /// Once warm (slab stocked, scratch buffers at capacity) a replay of a
    /// plain-handle batch performs **zero** heap allocations —
    /// `tests/spawn_alloc.rs` pins it. Equivalence with spawning the same
    /// tasks freshly is pinned by `tests/replay_equivalence.rs`.
    ///
    /// # Panics
    ///
    /// Panics if the template was captured on a different [`Runtime`], or
    /// if a binding substitution produces a write clash a fresh spawn would
    /// also reject (see [`TaskBuilder`]'s clause documentation).
    pub fn replay(&self, template: &GraphTemplate, bindings: &ReplayBindings) -> u64 {
        let inner = &self.inner;
        assert!(
            template.owner.ptr_eq(&Arc::downgrade(inner)),
            "GraphTemplate was captured on a different Runtime than it is replayed on"
        );
        let pass = template.passes.fetch_add(1, Ordering::Relaxed) + 1;
        let trace_enabled = inner.trace.is_enabled();
        inner.stats.add(StatField::ReplayPasses, 1);
        if template.tasks.is_empty() {
            if trace_enabled {
                inner.trace.record(TraceEvent::Replayed {
                    task: TaskId(0),
                    tasks: 0,
                    pass,
                    prewired: false,
                    at_ns: inner.trace.now_ns(),
                });
            }
            return pass;
        }
        // Replayed tasks join the replaying thread's cancel scope, exactly
        // as fresh root spawns do — a cancelled job's queued replay batches
        // are retired without running, and the template stays reusable.
        let cancel = crate::runtime::current_cancel_scope();
        let mut nodes = template.scratch.lock().pop().unwrap_or_default();
        nodes.clear();

        // Mode select: a frozen plan is only usable when no binding
        // substitutes handles (substitution must re-resolve) and the config
        // knob allows pre-wiring.
        let prewiring_ok = inner.config.replay_prewiring && bindings.is_empty();
        let plan = if prewiring_ok {
            template.frozen.lock().clone()
        } else {
            None
        };
        // Whether this pass can *become* the frozen plan (resolved path:
        // proven below by observing zero version bindings).
        let mut pure = prewiring_ok && plan.is_none();

        // Rename events per task, kept only for the trace (the non-traced
        // steady state must stay allocation-free).
        let mut renames_per_task: Vec<Vec<RenameEvent>> = Vec::new();
        let mut body_spills = 0u64;
        let mut clash = None;

        // Phase 1 — arm one slab node per recipe, in capture order.
        // Pre-wired: no clause resolution — freezing proved it
        // pass-invariant, so the accesses are the plan's copies
        // (no tickets, no renames by construction). Resolved: the recipe's
        // clauses go through a `ClauseSet` against current version state
        // (bindings substituting handles), exactly as a `TaskBuilder`'s do,
        // and are committed here — the batch's point in program order. A
        // write clash stops the stamping at its recipe, as it would stop the
        // fresh-spawn loop this replay stands for: the recipes before it are
        // inserted below, its own bindings are released with its set.
        let cx = inner.rename_cx();
        'stamp: for (t, recipe) in template.tasks.iter().enumerate() {
            let (accesses, tickets) = if let Some(plan) = &plan {
                (plan.accesses[t].clone(), Vec::new())
            } else {
                let mut clauses = ClauseSet::default();
                for clause in &recipe.clauses {
                    let handle: &dyn Accessible = match bindings.lookup(clause.key) {
                        Some(h) => h,
                        None => &*clause.handle,
                    };
                    if let Err(c) = clauses.declare(clause.kind, handle, &cx) {
                        clash = Some(c);
                        break 'stamp;
                    }
                }
                let bound = clauses.commit(&inner.stats);
                // Any version machinery at all disqualifies freezing:
                // resolution is only pass-invariant for plain handles.
                pure &= bound.tickets.is_empty();
                if trace_enabled {
                    renames_per_task.push(bound.renamed);
                }
                (bound.accesses, bound.tickets)
            };
            let run = recipe.body.clone();
            let mut spilled = false;
            nodes.push(inner.slab.acquire(
                recipe.name.clone(),
                recipe.priority,
                accesses,
                tickets,
                move |ctx: &TaskContext<'_>| run(ctx),
                None,
                pass,
                cancel.clone(),
                &mut spilled,
            ));
            body_spills += u64::from(spilled);
        }
        if let Some(plan) = &plan {
            // The baked interior edges are wired in before any gate is taken.
            graph::prewire_batch(&nodes, plan);
        }
        // Freeze attempt — a resolved pass with empty bindings that used no
        // version machinery proves the batch renaming-free; bake it. Done
        // outside the gate (the shadow registration touches no live history).
        if pure && clash.is_none() {
            let mut frozen = template.frozen.lock();
            if frozen.is_none() {
                *frozen = graph::build_frozen_plan(&nodes).map(Arc::new);
            }
        }

        inner.stats.add(StatField::ReplayTasks, nodes.len() as u64);
        if body_spills != 0 {
            inner.stats.add(StatField::SpawnBodySpills, body_spills);
        }

        // Phase 2 — the insertion every task goes through, with one gate
        // acquisition for the whole batch as its registration.
        let prewired = Cell::new(false);
        inner.insert(
            nodes.drain(..),
            &renames_per_task,
            None,
            |nodes, record_edges| {
                let Some(plan) = &plan else {
                    return inner
                        .tracker
                        .register_batch(nodes, record_edges, &inner.stats);
                };
                if let Some(batch) =
                    inner
                        .tracker
                        .register_batch_prewired(nodes, plan, record_edges, &inner.stats)
                {
                    prewired.set(true);
                    return batch;
                }
                // Live state disagrees with the plan (another region id
                // appeared on a frozen allocation): unwire the baked edges
                // and fall back to full re-derivation. The plan's accesses
                // are still the right resolution — freezing proved it
                // pass-invariant — so only the registration repeats. The
                // plan is kept: the conflict is usually a completed task
                // the next GC sweep drops.
                graph::unwire_batch(nodes);
                inner
                    .tracker
                    .register_batch(nodes, record_edges, &inner.stats)
            },
            |nodes| {
                // The live edges are out; a pre-wired pass adds its baked
                // ones.
                if let (true, Some(plan)) = (prewired.get(), &plan) {
                    for e in &plan.edges {
                        inner.trace.record(TraceEvent::Edge {
                            task: nodes[e.succ].id,
                            from: nodes[e.pred].id,
                            fast_path: false,
                            at_ns: inner.trace.now_ns(),
                        });
                    }
                }
                inner.trace.record(TraceEvent::Replayed {
                    task: nodes[0].id,
                    tasks: nodes.len(),
                    pass,
                    prewired: prewired.get(),
                    at_ns: inner.trace.now_ns(),
                });
            },
        );
        template.scratch.lock().push(nodes);
        if let Some(clash) = clash {
            clash.raise();
        }
        pass
    }

    /// `k` sequential [`Runtime::replay`]s with empty bindings;
    /// returns the last pass number. Exists only for the ledger's
    /// `capture.replay_fused_ns_per_task` probe (`ledger/src/probes.rs`) and
    /// goes with that probe.
    #[doc(hidden)]
    pub fn replay_fused(&self, template: &GraphTemplate, k: usize) -> u64 {
        let bindings = ReplayBindings::new();
        let mut last = 0;
        for _ in 0..k {
            last = self.replay(template, &bindings);
        }
        last
    }
}
