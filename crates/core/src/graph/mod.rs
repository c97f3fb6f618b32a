//! Runtime dependence analysis and the task graph.
//!
//! This module is the OmpSs "superscalar" piece: just like an out-of-order
//! processor renames and tracks register dependences between in-flight
//! instructions, the tracker here records, per memory region, which in-flight
//! tasks last wrote it and which have read it since, and derives the
//! dependence edges of every newly spawned task from its declared accesses.
//!
//! The rules implemented (for a *later* task L registering after an *earlier*
//! task E, on overlapping regions):
//!
//! * L reads (`input`): L depends on E if E writes (RAW) — including
//!   `concurrent` writers.
//! * L writes (`output`/`inout`): L depends on every earlier reader (WAR) and
//!   writer (WAW).
//! * L is `concurrent`: L depends on earlier plain writers and readers, but
//!   **not** on earlier `concurrent` accesses (commutative updates may
//!   reorder among themselves).
//!
//! WAR/WAW edges serialise tasks on a given data *version* — the behaviour
//! the paper works around with circular buffers in the H.264 pipeline
//! (Listing 1). With automatic renaming (see [`crate::rename`]), `output`
//! accesses on versioned handles resolve to a **fresh version** (a fresh
//! allocation identity) *before* they reach this tracker, so the WAR/WAW
//! edges that would serialise them simply never arise here: the renamed
//! writer overlaps nothing in flight. The tracker itself needs no renaming
//! special-case; it classifies every edge it does insert (RAW / WAR / WAW)
//! so the effect of renaming is visible in the statistics.
//!
//! The graph exists only while it runs: edges are discovered as tasks are
//! spawned, live in the predecessors' successor lists, and are gone once the
//! tasks retire. That is why it shares no representation with `simsched`'s
//! `SimDag`, a static, cost-annotated, topologically ordered DAG that list
//! scheduling needs whole before it starts — a recorded trace is the bridge
//! between the two (ROADMAP direction 5).
//!
//! ## One gate
//!
//! The tracker is the insertion-side critical path: every spawned task takes
//! it to register. It has **one** gate and one history. A program in this
//! model has one task-creating thread — the master thread running the
//! sequential code — and so does every workload of the benchmark ledger
//! (`ledger/`: the main thread in `table1.*`, the round loop in
//! `insert.storm`, each tenant's running job in `service.closed`), so the
//! gate belongs to that spawner: completing a task takes no gate (see
//! "Completion is the tombstone"). Routing allocations over `2 × workers` gates bought nothing
//! there and cost an ordered multi-gate acquisition on every registration
//! that touched two allocations: with one gate instead (10 alternating 20 s
//! benchmark pairs per workload, 2-vCPU host), no end-to-end median got
//! worse by more than 1 %, and `insert.storm` and `service.closed` ran 6–8 %
//! faster. Concurrent spawners (task bodies spawning children, several
//! threads sharing one runtime) stay correct: they serialise on the gate.
//!
//! ## The overlap index
//!
//! `by_alloc` holds one `AllocIndex` per allocation: the recorded regions
//! ordered by **(size class, start offset, chunk id)**, where the size class
//! is the bit length of the region's byte length. A region id is indexed
//! when its history entry is created and leaves the index when garbage
//! collection drops the entry — recording an access never reorders anything.
//! "Which recorded regions overlap `[s, e)`" is one binary search plus a
//! short forward walk per occupied size class (regions of class `c` are
//! shorter than `2^c` bytes, so the ones reaching `s` start after
//! `s - 2^c`): a chunk access on an N-chunk partition examines its
//! neighbours, a `whole()` access the N chunks it really overlaps, nested
//! and partially overlapping sub-ranges whatever is near them. The cost of a
//! registration therefore follows what the task touches, not what the
//! allocation holds; `tracker_entries_scanned` in
//! [`RuntimeStats`](crate::RuntimeStats) counts the spans examined, and
//! `tests/tracker_scaling.rs` pins the counts.
//!
//! **Overlap order.** A registration visits the overlapping entries of an
//! access in index order — narrow size classes before wide ones, then by
//! start, then by chunk id — and, across accesses, in declaration order.
//! Predecessors (and so edge records and first-conflict RAW/WAR/WAW
//! classification) come out in that order. It is a pure function of the set
//! of tracked regions: not of the order they were recorded in, nor of how
//! the gate was acquired or the replay path.
//!
//! Every registration runs the same three passes per task
//! (`Tracker::register_node`): collect the conflicting predecessors of every
//! access (deduplicated in constant time — see `PredSet`), add an edge from
//! each live one, record the accesses. A fresh spawn registers a batch of
//! one node; a template replay registers its whole batch under one
//! acquisition.
//!
//! ## Exclusion: the gate
//!
//! The gate is a mutex over the history (`parking_lot::Mutex<History>`),
//! and it is the only lock there is. Every operation — registering one node
//! or a replay batch, garbage collection, the audit's residue read,
//! `taskwait on` — goes through one guard type (`gate::Held`), acquired one
//! way: one `try_lock`, and if the gate is held, a blocking `lock()`. Every
//! acquirer is a thread that spawns or waits; completing a task takes no
//! gate (below).
//!
//! The history keeps the registration's scratch predecessor set, so a warm
//! registration allocates nothing, whatever it touches.
//!
//! The counters (all in [`RuntimeStats`](crate::RuntimeStats)):
//! `tracker_lock_contention` counts acquisitions whose `try_lock` found the
//! gate held. `tracker_fast_path_fallbacks` counts fresh registrations whose
//! `try_lock` failed — another spawning thread held the gate — and
//! `tracker_fast_path_hits` the rest. With one spawning thread and no
//! `taskwait on` in a task body, every registration is a hit. A fresh spawn
//! without accesses takes no gate and counts in neither; nor does a replay
//! batch.
//!
//! `tests/tracker_equivalence.rs` checks the tracker against a model of
//! the rules above: a sequential interpreter that keeps, per region, the
//! writers, the readers since and the `concurrent` accessors since (an
//! `output`/`inout` clears all three). The tracker must discover exactly
//! the edge multiset, per-task dependence counts and edge-class counters
//! the model predicts.
//!
//! ## Completion is the tombstone
//!
//! A completing task does not touch the tracker. `complete_into` publishes
//! its `Completed` state and closes its successor list; from then on every
//! history reference to it is a *tombstone*. A registration that meets one
//! counts it in `predecessors_seen` — so the count stays deterministic until
//! the next garbage collection — but neither clones it nor adds an edge
//! from it (`PredSet::push`). History keeps the node until one of two places
//! lets go: the region's next writer generation (`RegionEntry::clear`) or a
//! GC sweep (`History::garbage_collect`), which also drops emptied entries
//! and their index spans, so an allocation whose tasks all completed leaves
//! both maps. GC runs periodically from the spawn path and at every
//! quiescent `taskwait`. Until one of them runs, a completed node stays out
//! of the slab: a stream of readers of one region pins at most the readers
//! spawned since the last sweep (`tests/tracker_scaling.rs` pins the bound).
//!
//! The invariants this keeps, each load-bearing elsewhere:
//!
//! * **(a) Completion happens-before ticket release.** `complete_into`
//!   stores `Completed` (SeqCst) and closes the successor list before the
//!   worker releases the task's version tickets. A spawner that observes a
//!   binding count of zero (and elides a rename, see [`crate::rename`])
//!   therefore observes every earlier task on the version completed: each
//!   is a tombstone, so the elided write inherits no WAR/WAW edge,
//!   deterministically.
//! * **(b) Quiescence means collectable.** Once `in_flight == 0` is
//!   observed every tracked task has completed, so the sweep a quiescent
//!   `taskwait` (or `Runtime::audit`) runs drops every history reference:
//!   "no history residue after GC, no held gate, slab `outstanding == 0`"
//!   remain post-drain facts.
//! * **(c) History's hold does not cost the recycler.** The worker's own
//!   hand-back to the slab fails while history holds the node, so history
//!   usually holds a completed task's *last* reference. Every place history
//!   lets go of one — a writer generation clearing it, a GC sweep pruning
//!   it, a registration dropping the predecessor clones it borrowed — goes
//!   through `release_node`, which hands a completed task's node to the
//!   slab (`TaskSlab::try_recycle`, which also settles who is last when
//!   several holders let go at once) instead of freeing it.
//! * **(d) A tombstone cannot alias.** History holds the node itself, so it
//!   cannot be recycled — re-armed with a new id and a fresh state — while
//!   a list still names it: `Completed` read through a history reference is
//!   always about the task that recorded it.
//!
//! [`crate::rename`]: crate::rename

mod complete;
mod gate;
mod history;
mod index;
mod plan;

#[cfg(test)]
pub(crate) use complete::complete;
pub(crate) use complete::{add_edge, complete_into, finish_registration};
pub(crate) use plan::{build_frozen_plan, prewire_batch, unwire_batch, FrozenPlan};

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use gate::Held;
use history::{History, PredRef, PredSet, Recycler};

use crate::access::Dependence;
use crate::region::Region;
use crate::stats::{StatCounters, StatField};
use crate::task::{TaskId, TaskNode, TaskSlab};

/// A cheap multiply–xorshift hasher for the tracker's id-keyed maps.
/// Allocation and region ids are small sequential counters minted by the
/// runtime itself (never attacker-controlled), so SipHash's DoS resistance
/// buys nothing here while its latency sits directly on the task-insertion
/// hot path — every registration performs several map operations per access.
#[derive(Default, Clone)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the id key types, which are u64/u32).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Golden-ratio multiply + xorshift: sequential ids spread over the
        // whole table.
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

/// Result of registering one task — or a whole template-replay batch under a
/// single acquisition — with the tracker: the counters summed over the
/// registered nodes, plus optional per-task edge records for tracing.
#[derive(Default)]
pub(crate) struct Registration {
    /// Number of predecessor edges actually added (predecessors that had not
    /// yet completed; intra-batch edges included).
    pub edges: usize,
    /// Added edges that are true (read-after-write) dependences.
    pub raw_edges: usize,
    /// Added edges that are anti (write-after-read) dependences.
    pub war_edges: usize,
    /// Added edges that are output (write-after-write) dependences.
    pub waw_edges: usize,
    /// Number of distinct conflicting predecessors discovered at
    /// registration, whether or not they had already completed (retired
    /// predecessors are counted through their tombstones). Unlike `edges`
    /// this does not depend on execution timing (until history is
    /// garbage-collected), which makes it the right counter for tests and
    /// comparisons that must be deterministic under load.
    pub predecessors_seen: usize,
    /// `(batch index, predecessors of the added edges)` per task, in batch
    /// order. Populated only when the caller asked for edge records
    /// (tracing enabled); empty — and allocation-free — otherwise. The
    /// pre-wired path records only the *frontier* tasks here (interior edges
    /// come from the plan), so entries are sparse: index by the stored batch
    /// position, not by vector offset.
    pub per_task: Vec<(usize, Vec<TaskId>)>,
    /// Whether the registration was a fast-path hit: it took the gate
    /// without waiting behind another acquirer (see the module docs).
    pub fast_path: bool,
    /// Overlap-index spans examined.
    scanned: u64,
}

/// The dependence tracker: one gate over one history, and what the gate
/// holders need besides. See the module docs.
///
/// Every registration takes the gate, so the tracker is aligned to a
/// cache-line pair (the sizing of
/// [`CachePadded`](crate::stats::CachePadded)), gate first, and no
/// other runtime field shares its lines: packed beside the runtime's other
/// fields, the tracker's fields once shared a line with the
/// critical-section registry's lock, and `table1.fine` replayed 4.8 %
/// slower (2-vCPU host, 10 alternating benchmark pairs).
#[repr(C, align(128))]
pub(crate) struct Tracker {
    /// The gate: all access to the history — reads included — goes through
    /// a [`Held`] guard.
    gate: Mutex<History>,
    /// Where the node references history lets go of after their worker did
    /// are parked (see `history::release_node`): the runtime's slab, or
    /// `None` for a tracker without a runtime.
    recycler: Recycler,
}

impl Tracker {
    pub(crate) fn new(recycler: Option<Arc<TaskSlab>>) -> Self {
        Tracker {
            gate: Mutex::new(History::default()),
            recycler,
        }
    }

    // lint: hot-path-begin — registration: every spawned task and every
    // replayed batch passes through here; no panicking calls allowed (see
    // `cargo xtask lint`).

    /// The three registration passes of one node against the held history,
    /// shared by every registration (fresh, batch, pre-wired frontier) so
    /// all of them produce byte-identical edge sets: collect the conflicting
    /// predecessors from every overlapping region entry in
    /// access-declaration order (each remembered with the dependence class
    /// of the first conflict that introduced it), add an edge from every
    /// live one, then record the accesses on the *exact* region entries.
    /// `preds` is the caller's scratch set, returned empty. Adds the node's
    /// counts to `reg`, and — with `record_edges` — its edge records under
    /// batch position `at`.
    fn register_node(
        &self,
        node: &Arc<TaskNode>,
        at: usize,
        preds: &mut PredSet,
        history: &mut History,
        record_edges: bool,
        reg: &mut Registration,
    ) {
        debug_assert!(preds.is_empty());
        for access in node.accesses.iter() {
            reg.scanned += history.collect_preds(access, preds);
        }
        let edge_list = add_pred_edges(&preds.preds, node, record_edges, reg);
        if record_edges {
            reg.per_task.push((at, edge_list));
        }
        for access in node.accesses.iter() {
            history.record_access(access, node, &self.recycler);
        }
        reg.predecessors_seen += preds.preds.len();
        preds.clear(&self.recycler);
    }

    /// Register the declared accesses of `node`, adding dependence edges from
    /// every conflicting in-flight task, and updating the per-region history
    /// so that future tasks depend on `node` where required: a
    /// [`register_batch`](Tracker::register_batch) of one node, counted as a
    /// fast-path hit or fallback (its `try_lock` failed) unless it has no
    /// access.
    /// `record_edges` asks for edge records (only the tracing path wants
    /// them).
    pub(crate) fn register(
        &self,
        node: &Arc<TaskNode>,
        record_edges: bool,
        stats: &StatCounters,
    ) -> Registration {
        let reg = self.register_batch(std::slice::from_ref(node), record_edges, stats);
        if !node.accesses.is_empty() {
            let field = if reg.fast_path {
                StatField::TrackerFastPathHits
            } else {
                StatField::TrackerFastPathFallbacks
            };
            stats.add(field, 1);
        }
        reg
    }

    /// Register a batch — a template replay's, or a fresh spawn's one node —
    /// under **one** gate acquisition, then run the three registration
    /// passes per node in batch order. Because pass 3 (history update) of
    /// node *i* runs before pass 1 (predecessor collection) of node *i+1*,
    /// intra-batch dependences fall out of the ordinary history scan — the
    /// edges are re-derived, not copied from the template, so they stay
    /// correct when per-replay renaming resolves clauses to different
    /// versions than the captured iteration did.
    ///
    /// Equivalence with per-task registration: the batch is one legal
    /// linearization of the same per-node pass sequence, and the gate makes
    /// it atomic against concurrent registrations and sweeps. A batch
    /// without any access takes no gate. Gate waits and the spans scanned
    /// are counted into `stats`.
    pub(crate) fn register_batch(
        &self,
        nodes: &[Arc<TaskNode>],
        record_edges: bool,
        stats: &StatCounters,
    ) -> Registration {
        let mut reg = Registration::default();
        if nodes.iter().all(|node| node.accesses.is_empty()) {
            // Access-free: nothing to track, nothing to gate.
            for node in nodes {
                node.in_edges.store(0, Ordering::Relaxed);
            }
            return reg;
        }
        let mut held = Held::acquire(self, stats);
        reg.fast_path = held.fast_path();
        let history = held.history();
        // The scratch set is borrowed for the whole registration (the gate
        // is held, so it is exclusively ours), keeping a warm registration
        // allocation-free.
        let mut preds = std::mem::take(&mut history.scratch_preds);
        for (i, node) in nodes.iter().enumerate() {
            self.register_node(node, i, &mut preds, history, record_edges, &mut reg);
        }
        history.scratch_preds = preds;
        stats.add(StatField::TrackerEntriesScanned, reg.scanned);
        reg
    }
    // lint: hot-path-end

    /// All in-flight tasks that currently access a region overlapping
    /// `region` (used by `taskwait on`).
    pub(crate) fn tasks_touching(
        &self,
        region: &Region,
        stats: &StatCounters,
    ) -> Vec<Arc<TaskNode>> {
        Held::acquire(self, stats).history().tasks_touching(region)
    }

    /// Garbage-collect the history: drop completed tasks, emptied entries
    /// and their index spans. Called periodically from the
    /// spawn path (cadence:
    /// [`RuntimeConfig::with_tracker_gc_interval`](crate::RuntimeConfig::with_tracker_gc_interval))
    /// and from quiescent `taskwait`s to bound memory on long-running
    /// programs. Registrations wait behind the sweep.
    pub(crate) fn garbage_collect(&self, stats: &StatCounters) {
        Held::acquire(self, stats)
            .history()
            .garbage_collect(&self.recycler);
    }

    /// Whether some mutator holds the gate right now. At runtime quiescence
    /// no registration or sweep can be mid-publication, so a held gate is an
    /// invariant violation (see [`crate::Runtime::audit`]).
    pub(crate) fn gate_held(&self) -> bool {
        self.gate.try_lock().is_none()
    }

    /// What the tracker still holds, `(regions, allocs)`: the history
    /// entries and the allocations indexed in `by_alloc`. After a quiescent
    /// `taskwait` (which garbage-collects) both read zero; anything else is
    /// a leak.
    pub(crate) fn residue(&self, stats: &StatCounters) -> (usize, usize) {
        let mut held = Held::acquire(self, stats);
        let history = held.history();
        (history.entries.len(), history.by_alloc.len())
    }

    /// Test support: hold the gate until the returned guard drops, so a test
    /// can show that tasks complete without it.
    pub(crate) fn hold(&self, stats: &StatCounters) -> TrackerHold<'_> {
        TrackerHold {
            _held: Held::acquire(self, stats),
        }
    }
}

/// The held tracker gate (test support; see
/// [`Runtime::hold_tracker`](crate::Runtime::hold_tracker)).
#[doc(hidden)]
pub struct TrackerHold<'a> {
    _held: Held<'a>,
}

// lint: hot-path-begin — pass 2 of registration: runs once per predecessor;
// no panicking calls allowed (see `cargo xtask lint`).
/// Pass 2 of registration, shared verbatim by every registration (so all
/// produce byte-identical edge sets): add an edge from every live
/// predecessor, classifying it RAW / WAR / WAW into `reg`, and store the
/// node's in-edge count. Returns the predecessors of the added edges (empty
/// unless `record_edges`).
fn add_pred_edges(
    preds: &[PredRef],
    node: &Arc<TaskNode>,
    record_edges: bool,
    reg: &mut Registration,
) -> Vec<TaskId> {
    let mut edges = 0usize;
    let mut edge_list = Vec::new();
    for pred in preds {
        if pred.id == node.id {
            continue;
        }
        let Some(live) = &pred.live else { continue };
        if add_edge(live, node) {
            edges += 1;
            match pred.dependence {
                Dependence::ReadAfterWrite => reg.raw_edges += 1,
                Dependence::WriteAfterRead => reg.war_edges += 1,
                Dependence::WriteAfterWrite => reg.waw_edges += 1,
            }
            if record_edges {
                edge_list.push(pred.id);
            }
        }
    }
    node.in_edges.store(edges, Ordering::Relaxed);
    reg.edges += edges;
    edge_list
}
// lint: hot-path-end

#[cfg(test)]
mod tests {
    use super::index::Span;
    use super::*;
    use crate::access::{Access, AccessKind};
    use crate::region::AllocId;
    use crate::task::TaskState;
    use proptest::prelude::*;

    fn node_with(accesses: Vec<Access>) -> Arc<TaskNode> {
        crate::task::tests::test_node(None, None, 0, accesses.into_iter().collect())
    }

    fn region(alloc: u64, chunk: u32, range: std::ops::Range<usize>) -> Region {
        Region::new(AllocId(alloc), chunk, range)
    }

    fn acc(alloc: u64, chunk: u32, range: std::ops::Range<usize>, kind: AccessKind) -> Access {
        Access::new(region(alloc, chunk, range), kind)
    }

    /// A tracker and the counters its registrations and gate waits tally
    /// into, as a runtime lends them.
    struct TestTracker {
        tr: Tracker,
        stats: StatCounters,
    }

    impl TestTracker {
        fn register(&self, node: &Arc<TaskNode>, record_edges: bool) -> Registration {
            self.tr.register(node, record_edges, &self.stats)
        }

        fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
            self.tr.tasks_touching(region, &self.stats)
        }

        fn garbage_collect(&self) {
            self.tr.garbage_collect(&self.stats);
        }

        fn residue(&self) -> (usize, usize) {
            self.tr.residue(&self.stats)
        }

        fn tracked_regions(&self) -> usize {
            self.residue().0
        }

        fn hold(&self) -> TrackerHold<'_> {
            self.tr.hold(&self.stats)
        }

        fn count(&self, field: StatField) -> u64 {
            self.stats.get(field)
        }

        /// Fast-path hits and fallbacks so far.
        fn fast_path(&self) -> (u64, u64) {
            (
                self.count(StatField::TrackerFastPathHits),
                self.count(StatField::TrackerFastPathFallbacks),
            )
        }
    }

    impl std::ops::Deref for TestTracker {
        type Target = Tracker;
        fn deref(&self) -> &Tracker {
            &self.tr
        }
    }

    fn tracker_with(recycler: Option<Arc<TaskSlab>>) -> TestTracker {
        TestTracker {
            tr: Tracker::new(recycler),
            stats: StatCounters::default(),
        }
    }

    fn tracker() -> TestTracker {
        tracker_with(None)
    }

    /// Drain a node as if it executed (without a runtime).
    fn finish(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
        complete(node)
    }

    /// The edge records of a single-node registration made with
    /// `record_edges`.
    fn edge_list(reg: &Registration) -> &[TaskId] {
        &reg.per_task[0].1
    }

    #[test]
    fn raw_dependence_creates_edge() {
        let tr = tracker();
        let producer = node_with(vec![acc(1, 0, 0..100, AccessKind::Output)]);
        let consumer = node_with(vec![acc(1, 0, 0..100, AccessKind::Input)]);

        let r1 = tr.register(&producer, false);
        assert_eq!(r1.edges, 0);
        assert!(finish_registration(&producer));

        let r2 = tr.register(&consumer, false);
        assert_eq!(r2.edges, 1);
        assert!(!finish_registration(&consumer));
        assert_eq!(consumer.task_state(), TaskState::WaitingDeps);

        let ready = finish(&producer);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].id, consumer.id);
        assert_eq!(consumer.task_state(), TaskState::Ready);
    }

    #[test]
    fn war_and_waw_serialise_without_renaming() {
        let tr = tracker();
        let reader = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let writer1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let writer2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);

        tr.register(&reader, false);
        finish_registration(&reader);
        let r_w1 = tr.register(&writer1, false);
        // WAR edge from reader.
        assert_eq!(r_w1.edges, 1);
        finish_registration(&writer1);
        let r_w2 = tr.register(&writer2, false);
        // WAW edge from writer1 only (reader history cleared by writer1).
        assert_eq!(r_w2.edges, 1);
        finish_registration(&writer2);

        assert!(finish(&reader).iter().any(|t| t.id == writer1.id));
        assert!(finish(&writer1).iter().any(|t| t.id == writer2.id));
    }

    #[test]
    fn independent_regions_do_not_serialise() {
        let tr = tracker();
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let b = node_with(vec![acc(1, 1, 10..20, AccessKind::Output)]);
        let c = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&a, false);
        tr.register(&b, false);
        tr.register(&c, false);
        assert!(finish_registration(&a));
        assert!(finish_registration(&b));
        assert!(finish_registration(&c));
    }

    #[test]
    fn readers_do_not_serialise_with_each_other() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let r1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let r2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        tr.register(&w, false);
        finish_registration(&w);
        let e1 = tr.register(&r1, false);
        let e2 = tr.register(&r2, false);
        assert_eq!(e1.edges, 1);
        assert_eq!(e2.edges, 1);
        finish_registration(&r1);
        finish_registration(&r2);
        let ready = finish(&w);
        assert_eq!(ready.len(), 2, "both readers become ready together");
    }

    #[test]
    fn concurrent_accesses_commute_but_order_against_writers() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let c1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Concurrent)]);
        let c2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Concurrent)]);
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);

        tr.register(&w, false);
        finish_registration(&w);
        let e1 = tr.register(&c1, false);
        let e2 = tr.register(&c2, false);
        assert_eq!(e1.edges, 1, "concurrent waits for plain writer");
        assert_eq!(e2.edges, 1, "concurrent does not wait for other concurrent");
        let er = tr.register(&r, false);
        assert_eq!(er.edges, 3, "reader waits for writer and both accumulators");
        finish_registration(&c1);
        finish_registration(&c2);
        finish_registration(&r);
    }

    #[test]
    fn overlapping_chunk_and_whole_regions_serialise() {
        let tr = tracker();
        // Whole-array write, then chunk write, then whole read.
        let whole_w = node_with(vec![acc(1, 0, 0..100, AccessKind::Output)]);
        let chunk_w = node_with(vec![acc(1, 3, 20..30, AccessKind::Output)]);
        let whole_r = node_with(vec![acc(1, 0, 0..100, AccessKind::Input)]);
        tr.register(&whole_w, false);
        finish_registration(&whole_w);
        let e_chunk = tr.register(&chunk_w, false);
        assert_eq!(e_chunk.edges, 1, "chunk write depends on whole write (WAW)");
        finish_registration(&chunk_w);
        let e_read = tr.register(&whole_r, false);
        assert_eq!(
            e_read.edges, 2,
            "whole read depends on both the whole write and the chunk write"
        );
        finish_registration(&whole_r);
    }

    #[test]
    fn disjoint_chunk_writes_to_same_alloc_run_in_parallel() {
        let tr = tracker();
        let chunks: Vec<_> = (0..8u32)
            .map(|i| {
                node_with(vec![acc(
                    5,
                    i + 1,
                    (i as usize) * 10..(i as usize + 1) * 10,
                    AccessKind::Output,
                )])
            })
            .collect();
        for c in &chunks {
            tr.register(c, false);
            assert!(finish_registration(c), "chunk writes must be independent");
        }
    }

    #[test]
    fn completed_predecessors_do_not_create_edges() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w); // completes before the consumer is spawned
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r, false);
        assert_eq!(reg.edges, 0);
        assert_eq!(reg.predecessors_seen, 1);
        assert!(finish_registration(&r));
    }

    #[test]
    fn retired_predecessors_are_still_seen_until_gc() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        // Completion is the tombstone: history keeps the node …
        finish(&w);
        assert_eq!(Arc::strong_count(&w), 2, "history still holds the node");
        let r1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r1, false);
        assert_eq!(reg.edges, 0, "a completed predecessor can take no edge");
        assert_eq!(
            reg.predecessors_seen, 1,
            "a completed conflicting predecessor still counts as seen"
        );
        assert_eq!(
            Arc::strong_count(&w),
            2,
            "the registration took no clone of the completed predecessor"
        );
        finish_registration(&r1);
        finish(&r1);
        // … and garbage collection drops it.
        tr.garbage_collect();
        assert_eq!(Arc::strong_count(&w), 1);
        let r2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r2, false);
        assert_eq!(reg.predecessors_seen, 0);
        finish_registration(&r2);
    }

    #[test]
    fn completion_tombstones_without_a_tracker_call() {
        let tr = tracker();
        // An access-free task completes without the tracker ever seeing it.
        let free = node_with(vec![]);
        tr.register(&free, false);
        finish_registration(&free);
        finish(&free);
        assert_eq!(tr.residue(), (0, 0));
        // A completed writer is seen — once each, without an edge — by every
        // later registration until a sweep drops it.
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        for _ in 0..2 {
            let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
            let reg = tr.register(&r, false);
            assert_eq!((reg.edges, reg.predecessors_seen), (0, 1));
            assert!(finish_registration(&r));
        }
    }

    #[test]
    fn fully_retired_allocations_leave_by_alloc() {
        // Regression test for the sweep: once every task of an allocation
        // has completed and a GC ran, the allocation must be gone from
        // `entries` *and* from the `by_alloc` overlap index — a stale
        // `by_alloc` region id is a leak that also slows every future
        // overlap scan.
        let tr = tracker();
        let nodes: Vec<_> = (0..6u64)
            .map(|a| {
                let w = node_with(vec![acc(100 + a, 0, 0..10, AccessKind::Output)]);
                tr.register(&w, false);
                finish_registration(&w);
                w
            })
            .collect();
        assert_eq!(tr.residue(), (6, 6));
        for n in &nodes {
            finish(n);
        }
        // Completed tasks keep the maps populated (deterministic counting) …
        assert_eq!(tr.tracked_regions(), 6);
        tr.garbage_collect();
        // … and GC must empty both maps.
        let (regions, allocs) = tr.residue();
        assert_eq!(regions, 0, "entries leak after every task completed");
        assert_eq!(
            allocs, 0,
            "by_alloc holds stale region ids after every task completed"
        );
    }

    #[test]
    fn writer_clear_plus_gc_cleans_by_alloc_of_superseded_history() {
        let tr = tracker();
        let w1 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        finish_registration(&w1);
        finish(&w1);
        // A later writer generation clears the completed history in place.
        let w2 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w2, false);
        assert_eq!(Arc::strong_count(&w1), 1, "the new generation let go");
        finish_registration(&w2);
        finish(&w2);
        tr.garbage_collect();
        assert_eq!(tr.residue(), (0, 0));
    }

    #[test]
    fn registration_outcome_is_the_same_tried_or_forced() {
        // Each registration's edge count, classification, predecessors seen
        // and edge order, derived by hand from the rules in the module docs.
        // (The name predates the one tracker configuration, when this
        // compared a tried gate acquisition with a forced one.)
        let program: Vec<Vec<Access>> = vec![
            vec![acc(11, 0, 0..64, AccessKind::Output)],
            vec![
                acc(11, 0, 0..64, AccessKind::Input),
                acc(12, 0, 0..64, AccessKind::Output),
            ],
            vec![
                acc(12, 0, 0..64, AccessKind::InOut),
                acc(13, 0, 0..8, AccessKind::Output),
            ],
            vec![acc(11, 0, 0..64, AccessKind::Output)],
            vec![
                acc(13, 0, 0..8, AccessKind::Concurrent),
                acc(11, 0, 0..64, AccessKind::Input),
            ],
        ];
        // (edges, raw, war, waw, predecessors seen, predecessor indices)
        let expected: Vec<(usize, usize, usize, usize, usize, Vec<usize>)> = vec![
            (0, 0, 0, 0, 0, vec![]),
            // Reads 11 after task 0 wrote it.
            (1, 1, 0, 0, 1, vec![0]),
            // An `inout` reads what task 1 wrote: RAW, not WAW.
            (1, 1, 0, 0, 1, vec![1]),
            // Overwrites 11: after its writer (WAW), then its reader (WAR).
            (2, 0, 1, 1, 2, vec![0, 1]),
            // A `concurrent` reads too: RAW from 13's writer, then 11's.
            (2, 2, 0, 0, 2, vec![2, 3]),
        ];
        let tr = tracker();
        let mut nodes: Vec<Arc<TaskNode>> = Vec::new();
        for (accesses, expected) in program.into_iter().zip(expected) {
            let n = node_with(accesses);
            let reg = tr.register(&n, true);
            let preds: Vec<usize> = edge_list(&reg)
                .iter()
                .map(|id| nodes.iter().position(|p| p.id == *id).unwrap())
                .collect();
            let got = (
                reg.edges,
                reg.raw_edges,
                reg.war_edges,
                reg.waw_edges,
                reg.predecessors_seen,
                preds,
            );
            assert_eq!(got, expected, "task {}", nodes.len());
            finish_registration(&n);
            nodes.push(n);
        }
        assert_eq!(tr.fast_path(), (5, 0));
    }

    #[test]
    fn fast_path_hits_and_fallbacks_are_counted() {
        let tr = tracker();
        // An uncontended gate falls to the first try, whatever the
        // registration touches: one allocation or two.
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let b = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(1, 1, 0..4, AccessKind::Output),
        ]);
        let c = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(2, 0, 0..10, AccessKind::Output),
        ]);
        for n in [&a, &b, &c] {
            assert!(tr.register(n, false).fast_path);
            finish_registration(n);
        }
        assert_eq!(tr.fast_path(), (3, 0));
        // Access-free tasks neither hit nor fall back.
        let free = node_with(vec![]);
        tr.register(&free, false);
        finish_registration(&free);
        assert_eq!(tr.fast_path(), (3, 0));
    }

    #[test]
    fn a_registration_waits_out_a_held_gate_and_counts_as_a_fallback() {
        let tr = tracker();
        let a = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        let hold = tr.hold(); // e.g. a GC sweep
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| tr.register(&a, false));
            // The registration's `try_lock` failed and it now waits in
            // `lock()`: it found the gate held, which is what the contention
            // counter counts. Only then let it through.
            while tr.count(StatField::TrackerLockContention) == 0 {
                std::thread::yield_now();
            }
            drop(hold);
            let reg = waiter.join().unwrap();
            assert!(!reg.fast_path, "the gate was held: the try must fail");
        });
        finish_registration(&a);
        assert_eq!(tr.fast_path(), (0, 1));
        assert_eq!(tr.count(StatField::TrackerLockContention), 1);
        // Gate released: the next registration takes it at the first try.
        let b = node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]);
        assert!(tr.register(&b, false).fast_path);
        finish_registration(&b);
    }

    #[test]
    fn multi_alloc_registration_collects_every_allocation() {
        let tr = tracker();
        // A task reading two allocations collects its predecessors from
        // both, in declaration order.
        let w1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let w2 = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        tr.register(&w2, false);
        finish_registration(&w1);
        finish_registration(&w2);
        let r = node_with(vec![
            acc(2, 0, 0..10, AccessKind::Input),
            acc(1, 0, 0..10, AccessKind::Input),
        ]);
        let reg = tr.register(&r, true);
        assert_eq!(reg.edges, 2);
        assert_eq!(edge_list(&reg), [w2.id, w1.id]);
        finish_registration(&r);
    }

    #[test]
    fn single_threaded_registrations_never_contend() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        assert!(tr.register(&w, false).fast_path);
        finish_registration(&w);
        assert_eq!(tr.count(StatField::TrackerLockContention), 0);
    }

    #[test]
    fn taskwait_on_lists_only_incomplete_tasks() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        tr.register(&w, false);
        finish_registration(&w);
        tr.register(&r, false);
        finish_registration(&r);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 2);
        finish(&w);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 1);
        assert_eq!(touching[0].id, r.id);
        // A non-overlapping range sees nothing.
        assert!(tr.tasks_touching(&region(1, 9, 50..60)).is_empty());
        assert!(tr.tasks_touching(&region(2, 0, 0..10)).is_empty());
    }

    #[test]
    fn garbage_collect_drops_dead_entries() {
        let tr = tracker();
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let w2 = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        tr.register(&w2, false);
        finish_registration(&w);
        finish_registration(&w2);
        assert_eq!(tr.tracked_regions(), 2);
        finish(&w);
        tr.garbage_collect();
        assert_eq!(tr.tracked_regions(), 1);
        finish(&w2);
        tr.garbage_collect();
        assert_eq!(tr.tracked_regions(), 0);
    }

    #[test]
    fn self_dependence_is_ignored() {
        let tr = tracker();
        // A task that both reads and writes the same region through two
        // accesses must not depend on itself.
        let n = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(1, 0, 0..10, AccessKind::Output),
        ]);
        let reg = tr.register(&n, false);
        assert_eq!(reg.edges, 0);
        assert!(finish_registration(&n));
    }

    #[test]
    fn overlaps_are_visited_in_index_order() {
        // Overlap order is a pure function of the recorded regions: size
        // class first (narrow before wide), then start, then chunk id —
        // whatever order the regions were recorded in.
        let program = |order: &[usize]| {
            let regions = [
                region(3, 7, 0..100),   // class 7, the "whole" region
                region(3, 1, 40..50),   // class 4
                region(3, 2, 10..20),   // class 4
                region(3, 9, 10..20),   // same range as chunk 2
                region(3, 4, 12..14),   // class 2, nested in chunks 2 and 9
                region(3, 5, 300..310), // disjoint from the query
            ];
            let tr = tracker();
            let mut ids = Vec::new();
            for &i in order {
                let w = node_with(vec![Access::new(regions[i].clone(), AccessKind::Output)]);
                tr.register(&w, false);
                finish_registration(&w);
                ids.push((regions[i].id.chunk, w.id));
            }
            let r = node_with(vec![acc(3, 8, 5..60, AccessKind::Input)]);
            let reg = tr.register(&r, true);
            finish_registration(&r);
            edge_list(&reg)
                .iter()
                .map(|e| ids.iter().find(|(_, id)| id == e).unwrap().0)
                .collect::<Vec<_>>()
        };
        let expected = vec![4, 2, 9, 1, 7];
        assert_eq!(program(&[0, 1, 2, 3, 4, 5]), expected);
        assert_eq!(program(&[5, 4, 3, 2, 1, 0]), expected);
        assert_eq!(program(&[2, 0, 4, 5, 1, 3]), expected);
    }

    #[test]
    fn chunk_queries_scan_neighbours_not_the_allocation() {
        const CHUNKS: u32 = 512;
        let tr = tracker();
        let mut nodes = Vec::new();
        for c in 0..CHUNKS {
            let before = tr.count(StatField::TrackerEntriesScanned);
            let start = c as usize * 48;
            let w = node_with(vec![acc(4, c + 1, start..start + 48, AccessKind::Output)]);
            tr.register(&w, false);
            finish_registration(&w);
            nodes.push(w);
            assert!(
                tr.count(StatField::TrackerEntriesScanned) - before <= 2,
                "a chunk access examines its neighbours only"
            );
        }
        let before = tr.count(StatField::TrackerEntriesScanned);
        let whole = node_with(vec![acc(4, 0, 0..CHUNKS as usize * 48, AccessKind::Input)]);
        let reg = tr.register(&whole, false);
        finish_registration(&whole);
        assert_eq!(
            tr.count(StatField::TrackerEntriesScanned) - before,
            u64::from(CHUNKS)
        );
        assert_eq!(reg.predecessors_seen, CHUNKS as usize);
        assert_eq!(reg.edges, CHUNKS as usize);
        // An empty access examines nothing and conflicts with nothing.
        let before = tr.count(StatField::TrackerEntriesScanned);
        let empty = node_with(vec![acc(4, 9999, 100..100, AccessKind::Output)]);
        assert_eq!(tr.register(&empty, false).predecessors_seen, 0);
        finish_registration(&empty);
        assert_eq!(tr.count(StatField::TrackerEntriesScanned), before);
    }

    #[test]
    fn dedupe_survives_descending_and_repeated_ids() {
        // One early task spans every chunk (so it conflicts through every
        // entry, after tasks with higher ids), and the chunk writers are
        // recorded in descending chunk order, so a whole-region scan meets
        // ids in *descending* order: every duplicate check leaves the
        // ascending shortcut, and past the linear window the hash index.
        const CHUNKS: usize = 64;
        let tr = tracker();
        let spanning = node_with(
            (0..CHUNKS)
                .map(|c| acc(6, c as u32 + 1, c * 10..c * 10 + 10, AccessKind::Input))
                .collect(),
        );
        tr.register(&spanning, false);
        finish_registration(&spanning);
        let mut readers = Vec::new();
        for c in (0..CHUNKS).rev() {
            let r = node_with(vec![acc(
                6,
                c as u32 + 1,
                c * 10..c * 10 + 10,
                AccessKind::Input,
            )]);
            tr.register(&r, false);
            finish_registration(&r);
            readers.push(r);
        }
        let w = node_with(vec![acc(6, 0, 0..CHUNKS * 10, AccessKind::Output)]);
        let reg = tr.register(&w, true);
        finish_registration(&w);
        assert_eq!(reg.predecessors_seen, CHUNKS + 1, "every reader once");
        assert_eq!(reg.war_edges, CHUNKS + 1);
        // First-conflict order: the spanning task is met first (chunk 1's
        // entry lists it before that chunk's own reader).
        assert_eq!(edge_list(&reg)[0], spanning.id);
        assert_eq!(edge_list(&reg)[1], readers[CHUNKS - 1].id);
    }

    #[test]
    fn history_release_parks_completed_nodes_in_the_slab() {
        let slab = Arc::new(TaskSlab::new(8));
        let tr = tracker_with(Some(slab.clone()));
        let writer = || {
            let accesses = [acc(2, 0, 0..10, AccessKind::Output)].into_iter().collect();
            let w = crate::task::tests::test_node(Some(&slab), None, 0, accesses);
            tr.register(&w, false);
            finish_registration(&w);
            let _ = w.body.lock().take();
            finish(&w);
            w
        };
        let w1 = writer();
        // The worker's own hand-back fails — history still holds the node —
        // and it moves on.
        slab.try_recycle(w1);
        assert_eq!(slab.gauges(), (0, 1));
        // The next writer generation drops the last reference: parked, not
        // freed.
        let w2 = writer();
        slab.try_recycle(w2);
        assert_eq!(slab.gauges(), (1, 1));
        // So does a GC sweep.
        tr.garbage_collect();
        assert_eq!(slab.gauges(), (2, 0));
    }

    #[test]
    fn add_edge_refuses_completed_pred() {
        let a = node_with(vec![]);
        let b = node_with(vec![]);
        finish_registration(&a);
        complete(&a);
        assert!(!add_edge(&a, &b));
        assert!(finish_registration(&b));
    }

    /// Simulate executing every registered task in dependence order and check
    /// liveness: every task eventually becomes ready and runs exactly once.
    fn run_to_completion(nodes: Vec<Arc<TaskNode>>, initially_ready: Vec<Arc<TaskNode>>) {
        use std::collections::VecDeque;
        let mut ready: VecDeque<_> = initially_ready.into();
        let mut executed = 0usize;
        while let Some(n) = ready.pop_front() {
            executed += 1;
            for r in complete(&n) {
                ready.push_back(r);
            }
        }
        assert_eq!(
            executed,
            nodes.len(),
            "every task must execute exactly once"
        );
        for n in &nodes {
            assert!(n.is_completed());
        }
    }

    /// One step of the index oracle: record a region, or drop the `n`-th
    /// tracked one (garbage collection's effect on the index).
    #[derive(Debug, Clone)]
    enum IndexOp {
        Insert {
            alloc: u64,
            start: usize,
            len: usize,
        },
        Remove {
            nth: usize,
        },
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        // Lengths: empty, tiny, chunk-sized (many share a size class and
        // touch), and allocation-wide; starts on a coarse grid so duplicate
        // starts, touching and nested ranges are all common.
        let len = prop_oneof![
            Just(0usize),
            1usize..4,
            Just(16usize),
            10usize..40,
            200usize..1200,
        ];
        prop_oneof![
            (1u64..4, 0usize..64, len).prop_map(|(alloc, slot, len)| IndexOp::Insert {
                alloc,
                start: slot * 16,
                len,
            }),
            (1u64..4, 0usize..1024, 1usize..9)
                .prop_map(|(alloc, start, len)| { IndexOp::Insert { alloc, start, len } }),
            (0usize..64).prop_map(|nth| IndexOp::Remove { nth }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The overlap index answers exactly what a brute-force
        /// `Region::overlaps` scan over the tracked regions answers — after
        /// any sequence of inserts and removals, for nested, partially
        /// overlapping, touching, empty and duplicate-start regions on
        /// several allocations — in index order, examining at least what it
        /// returns.
        #[test]
        fn prop_overlap_index_matches_brute_force(
            ops in proptest::collection::vec(index_op(), 1..80),
            queries in proptest::collection::vec((1u64..4, 0usize..1100, 0usize..600), 1..12),
        ) {
            let mut history = History::default();
            let mut model: Vec<Region> = Vec::new();
            let mut next_chunk = 0u32;
            for op in ops {
                match op {
                    IndexOp::Insert { alloc, start, len } => {
                        let r = region(alloc, next_chunk, start..start + len);
                        next_chunk += 1;
                        history.entry_mut(&r);
                        let _ = history.entry_mut(&r); // idempotent per region id
                        model.push(r);
                    }
                    IndexOp::Remove { nth } => {
                        if model.is_empty() {
                            continue;
                        }
                        let victim = model.remove(nth % model.len());
                        // What GC does to an entry whose history emptied.
                        history.entries.remove(&victim.id);
                        let index = history.by_alloc.get_mut(&victim.id.alloc).unwrap();
                        index.retain(|chunk| chunk != victim.id.chunk);
                        if index.spans.is_empty() {
                            history.by_alloc.remove(&victim.id.alloc);
                        }
                    }
                }
                prop_assert_eq!(
                    history.by_alloc.values().map(|i| i.spans.len()).sum::<usize>(),
                    model.len()
                );
                for &(alloc, start, len) in &queries {
                    let q = region(alloc, u32::MAX, start..start + len);
                    let mut expected: Vec<Span> = model
                        .iter()
                        .filter(|r| r.overlaps(&q))
                        .map(Span::of)
                        .collect();
                    expected.sort_by_key(Span::key);
                    let mut got = Vec::new();
                    let scanned = history
                        .by_alloc
                        .get(&AllocId(alloc))
                        .map_or(0, |index| index.for_each_overlap(&q.bytes, |c| got.push(c)));
                    prop_assert_eq!(&got, &expected.iter().map(|s| s.chunk).collect::<Vec<_>>());
                    prop_assert!(scanned >= got.len() as u64);
                    prop_assert_eq!(history.overlaps_any(&q), !expected.is_empty());
                }
            }
        }

        /// Random access patterns over a handful of regions always produce an
        /// acyclic graph in which every task eventually runs (liveness), and
        /// tasks writing the same region are totally ordered.
        #[test]
        fn prop_random_graphs_are_live(
            specs in proptest::collection::vec(
                (0u32..4, prop_oneof![
                    Just(AccessKind::Input),
                    Just(AccessKind::Output),
                    Just(AccessKind::InOut),
                    Just(AccessKind::Concurrent),
                ]),
                1..40,
            ),
        ) {
            let tr = tracker();
            let mut nodes = Vec::new();
            let mut ready = Vec::new();
            for (chunk, kind) in specs {
                let n = node_with(vec![acc(9, chunk, (chunk as usize) * 10..(chunk as usize + 1) * 10, kind)]);
                tr.register(&n, false);
                if finish_registration(&n) {
                    ready.push(n.clone());
                }
                nodes.push(n);
            }
            run_to_completion(nodes, ready);
        }

        /// Multi-access tasks over overlapping regions of several
        /// allocations also stay live.
        #[test]
        fn prop_multi_access_graphs_are_live(
            specs in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..50, 1usize..30, prop_oneof![
                        Just(AccessKind::Input),
                        Just(AccessKind::Output),
                        Just(AccessKind::InOut),
                    ]),
                    1..3,
                ),
                1..25,
            ),
        ) {
            let tr = tracker();
            let mut nodes = Vec::new();
            let mut ready = Vec::new();
            for (i, accesses) in specs.into_iter().enumerate() {
                // Spread tasks over several allocations.
                let alloc = 7 + (i % 3) as u64;
                let accs: Vec<Access> = accesses
                    .into_iter()
                    .enumerate()
                    .map(|(j, (start, len, kind))| acc(alloc, (i * 4 + j) as u32 + 1, start..start + len, kind))
                    .collect();
                let n = node_with(accs);
                tr.register(&n, false);
                if finish_registration(&n) {
                    ready.push(n.clone());
                }
                nodes.push(n);
            }
            run_to_completion(nodes, ready);
        }
    }
}
