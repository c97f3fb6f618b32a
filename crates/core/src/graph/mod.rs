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
//! ## Sharding and the overlap index
//!
//! The tracker is the insertion-side critical path: every spawned task takes
//! it to register, and every completed task takes it again to retire its
//! history. A single map behind a single lock serialises all of that, so the
//! tracker is **sharded by allocation id**: `ShardedTracker` routes every
//! region to the shard `alloc_id % num_shards`, and each `TrackerShard`
//! owns its own gate, `entries` map, `by_alloc` overlap index and retire
//! inbox. Renaming gives every data version a fresh allocation id, so shards
//! stay naturally balanced.
//!
//! Within a shard, `by_alloc` holds one `AllocIndex` per allocation: the
//! recorded regions ordered by **(size class, start offset, chunk id)**,
//! where the size class is the bit length of the region's byte length. A
//! region id is indexed when its history entry is created and leaves the
//! index when garbage collection drops the entry — recording an access never
//! reorders anything. "Which recorded regions overlap `[s, e)`" is one binary
//! search plus a short forward walk per occupied size class (regions of
//! class `c` are shorter than `2^c` bytes, so the ones reaching `s` start
//! after `s - 2^c`): a chunk access on an N-chunk partition examines its
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
//! of tracked regions: not of the order they were recorded in, nor of the
//! shard count, how the gates were acquired or the replay path.
//!
//! A registration that touches several allocations takes the gate of every
//! involved shard **in canonical order** (ascending shard index) and holds
//! them all for the whole registration, which keeps multi-shard registration
//! atomic (the linearisation point of the spawn) and deadlock-free. Because
//! regions of one allocation always live in exactly one shard, the
//! per-registration outcome — predecessors discovered, edges added, and their
//! order — is identical for every shard count; `tests/tracker_equivalence.rs`
//! pins this.
//!
//! Every registration runs the same three passes per task
//! (`ShardedTracker::register_node`): collect the conflicting predecessors
//! of every access (deduplicated in constant time — see `PredSet`), add an
//! edge from each live one, record the accesses. A fresh spawn registers a
//! batch of one node; a template replay registers its whole batch under one
//! acquisition.
//!
//! ## Exclusion: one gate protocol
//!
//! Each shard carries a seqlock-style **sequence gate** (`AtomicU64`; even =
//! quiescent, odd = a mutator holds the shard), and the gate is the only
//! lock there is. Every operation — registering one node or a replay batch,
//! retiring, garbage collection, the audit's residue read, `taskwait on` —
//! goes through one guard type (`gate::Held`) over an ascending,
//! deduplicated set of shard ids, acquired one way:
//!
//! 1. **Try.** Per gate, in order: one CAS if the gate is free and nobody is
//!    waiting for it, repeated for a bounded number of spins while a holder
//!    is outwaited (a retirement, a one-region registration or an inbox
//!    drain is gone long before the budget runs out). No blocking, no flag.
//! 2. **Wait.** If the try fails — the holder is slow (a wide registration,
//!    a GC sweep) or another acquirer is already waiting — raise the waiter
//!    flag in the gate word and spin, then yield, until the CAS succeeds.
//!    The flag turns new polite tries away at once, so a waiter is bounded
//!    by real mutator work and cannot be starved by a stream of short
//!    publications; several waiters re-raise it in turn.
//!
//! The ids of a node's shards are computed on the registering thread's stack
//! (inline for up to four distinct shards — always, for a node whose access
//! list is inline), per-shard scratch buffers hold the predecessor set, and
//! a replay batch passes its reusable sorted id list, so a warm registration
//! allocates nothing whether it touches one shard or several.
//!
//! How often does a registration touch exactly one shard? Less often than
//! this module once assumed. Measured on the benchmark ledger (`ledger/`,
//! `--quick --trace 1`, 2 workers) the single-shard share of fresh
//! registrations (`graph.fast_path_share`) is **0.20** on `insert.storm`,
//! **0.29** on `table1.coarse`, **0.35** on `table1.fine` and **1.00** only
//! on `service.closed` — most tasks read one allocation and write another —
//! while a waiting acquirer finds the gate held
//! (`graph.lock_contention_per_ktask`) less than once per three thousand
//! tasks on every workload. So the multi-shard acquisition is the common
//! case and gets the same cheap protocol as the single-shard one; there is
//! no second, blocking tier.
//!
//! The counters keep their meaning across that history:
//! `tracker_fast_path_hits` counts fresh registrations on a single shard
//! whose try succeeded, `tracker_fast_path_fallbacks` those that spanned
//! several shards or had to wait, and `tracker_lock_contention` waiting
//! acquisitions that found the gate held (all in
//! [`RuntimeStats`](crate::RuntimeStats)); traced edges carry a `fast_path`
//! flag. The equivalence suites' reference configuration is a fault plan
//! ([`FaultPlan::tracker_fallback_one_in(1)`](crate::FaultPlan::tracker_fallback_one_in)):
//! it skips step 1 everywhere (every acquisition waits, every fresh
//! registration counts as a fallback) and sends every retirement through the
//! inbox. Both configurations run the same passes on the same history maps,
//! which is why the edge multiset is byte-identical between them;
//! `tests/tracker_equivalence.rs` pins that too.
//!
//! **Every** acquisition first applies the retire inbox (below) of each shard
//! it takes, so no holder ever reads history with a retirement pending that
//! was handed over before it acquired.
//!
//! ## Retirement
//!
//! When a task completes, the worker retires it through the router: each of
//! its history references is replaced by a lightweight *tombstone* (its
//! [`TaskId`]); only the list the access kind recorded into is searched.
//! Tombstones keep `predecessors_seen` deterministic (a
//! completed-but-conflicting predecessor is still *seen*) while releasing
//! the task node itself — closures, successor lists, version tickets — as
//! soon as the task finishes. `TrackerShard::garbage_collect` then drops
//! tombstoned entries and their index spans, so fully retired allocations
//! leave both maps; it runs per shard, periodically from the spawn path and
//! at every quiescent `taskwait`.
//!
//! **A retirement never blocks the worker.** It takes the shard gate only if
//! the gate is free right now (one CAS, no spinning). If the gate is held —
//! typically by a spawner in the middle of a long registration — or a fault
//! plan forces it, the worker pushes `(region, task, access kind)` onto that
//! shard's **retire inbox**, looks at the gate once more, and goes back to
//! executing tasks.
//! Were it to wait instead, every worker would park behind the one long
//! registration, nothing would complete, and each following registration
//! would find *more* live predecessors and hold the gate longer still.
//!
//! Who drains: every gate acquisition, before it touches history; and every
//! gate **release**, which re-checks the inbox and, if something arrived
//! during the hold and the gate is still free, takes it back to apply it.
//! Together with the deferring worker's own second look this is a
//! store-then-load handshake on (`inbox_len`, gate) in the SeqCst order: a
//! retirement is applied either by the holder it collided with, by the
//! worker itself, or by whoever took the gate in between — always by a
//! thread that is still inside a registration or a completion.
//!
//! The invariants this keeps, each load-bearing elsewhere:
//!
//! * **(a) Hand-off happens-before ticket release.** `ShardedTracker::retire`
//!   returns with every access tombstoned or in an inbox, and only then does
//!   the worker release the task's version tickets. A spawner that observes
//!   a binding count of zero (and elides a rename, see [`crate::rename`])
//!   therefore observes the inbox entries too, and its registration drains
//!   them before scanning: "count zero ⇒ every earlier task on the version
//!   is a tombstone" holds exactly as with in-place retirement.
//! * **(b) Quiescence means drained.** Whoever applies a deferred
//!   retirement is a task still counted in flight (a worker in its
//!   completion tail, a spawner whose task cannot run before its
//!   registration returns) or the observing thread itself, so once
//!   `in_flight == 0` is observed no inbox holds anything: "no history
//!   residue after GC, no held gate, slab `outstanding == 0`" remain
//!   post-drain facts for `taskwait` and `Runtime::audit` (whose residue
//!   read drains on acquisition anyway).
//! * **(c) Deferral does not cost the recycler.** The deferring worker's own
//!   hand-back to the slab fails (history still references the node), so
//!   history may now hold a completed task's *last* reference. Every place
//!   history lets go of a reference — the drain that tombstones it, a later
//!   writer generation clearing it, a GC sweep pruning it, a registration
//!   dropping the predecessor clones it borrowed — goes through
//!   `release_node`, which hands a completed task's node to the
//!   slab (`TaskSlab::try_recycle`, which also settles who is last when
//!   several holders let go at once) instead of freeing it.
//! * **(d) The inbox is allocation-free when warm.** It is a pre-sized
//!   vector behind a mutex held only for one push or one swap; a drain swaps
//!   it with a per-shard scratch vector, so both keep their capacity.
//!
//! [`crate::rename`]: crate::rename


mod complete;
mod gate;
mod index;
mod plan;
mod shard;

#[cfg(test)]
pub(crate) use complete::complete;
pub(crate) use complete::{add_edge, complete_into, finish_registration};
pub(crate) use plan::{build_frozen_plan, prewire_batch, unwire_batch, FrozenPlan};

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gate::{Held, ShardIds, ShardSlot};
use shard::{PredRef, PredSet, Recycler};

use crate::access::Dependence;
use crate::region::{AllocId, Region};
use crate::stats::{CachePadded, TrackerCounters};
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
    /// `(batch index, added edges)` per task, in batch order: predecessor id
    /// plus the tracker shard the conflict was found in. Populated only when
    /// the caller asked for edge records (tracing enabled); empty — and
    /// allocation-free — otherwise. The pre-wired path records only the
    /// *frontier* tasks here (interior edges come from the plan), so entries
    /// are sparse: index by the stored batch position, not by vector offset.
    pub per_task: Vec<(usize, Vec<EdgeRecord>)>,
    /// Whether the registration touched a single shard and took its gate at
    /// the first, polite try (see the module docs).
    pub fast_path: bool,
    /// Overlap-index spans examined.
    scanned: u64,
}

/// One added dependence edge, as reported to the trace.
pub(crate) struct EdgeRecord {
    /// The predecessor task of the edge.
    pub pred: TaskId,
    /// Tracker shard in which the conflict was discovered.
    pub shard: usize,
}

/// The sharded dependence tracker: routes every allocation to one shard and
/// runs registrations, retirements and sweeps under the shard gates. See the
/// module docs.
pub(crate) struct ShardedTracker {
    shards: Box<[ShardSlot]>,
    /// `0..shards.len()`: the slice a guard over the single shard `sid`
    /// borrows its id from (see [`ShardedTracker::one`]).
    shard_ids: Box<[usize]>,
    /// Written by every registration; on a line pair of its own so that the
    /// router fields beside it, which every retiring worker reads, stay put.
    counters: CachePadded<TrackerCounters>,
    /// Chaos-test hook: when set, individual gate acquisitions may be forced
    /// to skip the polite try and individual retirements through the inbox
    /// ([`FaultClass::TrackerFallback`](crate::failpoint::FaultClass)); at a
    /// rate of one in one that is the equivalence suites' reference
    /// configuration. `None` in production — a single pointer check on the
    /// hot path.
    fault: Option<crate::failpoint::FaultPlan>,
    /// Where the node references history lets go of after their worker did
    /// are parked (see `shard::release_node`).
    recycler: Recycler,
}

impl ShardedTracker {
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards >= 1, "the tracker needs at least one shard");
        ShardedTracker {
            shards: (0..shards).map(|_| ShardSlot::new()).collect(),
            shard_ids: (0..shards).collect(),
            counters: CachePadded::default(),
            fault: None,
            recycler: None,
        }
    }

    /// Install a fault-injection plan (chaos tests only; see
    /// [`crate::failpoint`]). Called before the tracker is shared.
    pub(crate) fn set_fault_plan(&mut self, plan: crate::failpoint::FaultPlan) {
        self.fault = Some(plan);
    }

    /// Route the references history lets go of after their worker did (see
    /// `shard::release_node`) back to `slab`. Called before the tracker is
    /// shared.
    pub(crate) fn set_recycler(&mut self, slab: Arc<TaskSlab>) {
        self.recycler = Some(slab);
    }

    /// Whether the installed fault plan (if any) forces this operation —
    /// one gate acquisition, or one retirement — to skip the polite try.
    pub(super) fn forced_fallback(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|p| p.roll_next(crate::failpoint::FaultClass::TrackerFallback))
    }

    /// Number of shards.
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard an allocation is routed to. Allocation ids are handed out
    /// sequentially (and renaming mints a fresh one per version), so plain
    /// modulo spreads concurrent workloads evenly.
    pub(crate) fn shard_of(&self, alloc: AllocId) -> usize {
        (alloc.raw() % self.shards.len() as u64) as usize
    }

    /// Per-shard hit / contention counters.
    pub(crate) fn counters(&self) -> &TrackerCounters {
        &self.counters
    }

    /// The one-element id set `[sid]`.
    fn one(&self, sid: usize) -> &[usize] {
        &self.shard_ids[sid..=sid]
    }

    /// Hold shard `sid` alone (sweeps, residue reads, lookups).
    fn hold_one(&self, sid: usize) -> Held<'_> {
        Held::acquire(self, self.one(sid))
    }

    // lint: hot-path-begin — registration: every spawned task and every
    // replayed batch passes through here; no panicking calls allowed (see
    // `cargo xtask lint`).

    /// The three registration passes of one node against shards the caller
    /// holds, shared by every registration (fresh, batch, pre-wired
    /// frontier) so all of them produce byte-identical edge sets: collect
    /// the conflicting predecessors from every overlapping region entry in
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
        held: &mut Held<'_>,
        record_edges: bool,
        reg: &mut Registration,
    ) {
        debug_assert!(preds.is_empty());
        for access in node.accesses.iter() {
            let sid = self.shard_of(access.region.id.alloc);
            reg.scanned += held.shard(sid).collect_preds(access, sid, preds);
        }
        let edge_list = add_pred_edges(&preds.preds, node, record_edges, reg);
        if record_edges {
            reg.per_task.push((at, edge_list));
        }
        for access in node.accesses.iter() {
            let sid = self.shard_of(access.region.id.alloc);
            held.shard(sid).record_access(access, node, &self.recycler);
        }
        reg.predecessors_seen += preds.preds.len();
        preds.clear(&self.recycler);
    }

    /// Register the declared accesses of `node`, adding dependence edges from
    /// every conflicting in-flight task, and updating the per-region history
    /// so that future tasks depend on `node` where required: a
    /// [`register_batch`](ShardedTracker::register_batch) of one node over
    /// the shards its accesses touch, counted as a fast-path hit (single
    /// shard, gate taken at the first try) or fallback (several shards, a
    /// wait, or a try the fault plan forced off). `record_edges` asks for
    /// [`EdgeRecord`]s (only the tracing path wants them).
    pub(crate) fn register(&self, node: &Arc<TaskNode>, record_edges: bool) -> Registration {
        let sids = ShardIds::of(self, &node.accesses);
        let reg = self.register_batch(std::slice::from_ref(node), &sids, record_edges);
        if !sids.is_empty() {
            if reg.fast_path {
                self.counters.fast_hit();
            } else {
                self.counters.fast_fallback();
            }
        }
        reg
    }

    /// Register a batch — a template replay's, or a fresh spawn's one node —
    /// under **one** acquisition:
    /// every shard in `sids` (the sorted, deduplicated union of the shards
    /// the batch's accesses touch — computed by the caller so the buffer can
    /// be reused across replays) is gated once, then the three registration
    /// passes run per node in batch order. Because pass 3 (history update)
    /// of node *i* runs before pass 1 (predecessor collection) of node
    /// *i+1*, intra-batch dependences fall out of the ordinary history scan
    /// — the edges are re-derived, not copied from the template, so they
    /// stay correct when per-replay renaming resolves clauses to different
    /// versions than the captured iteration did.
    ///
    /// Equivalence with per-task registration: the batch is one legal
    /// linearization of the same per-node pass sequence, and gate exclusion
    /// makes it atomic against concurrent registrations and retirements on
    /// the involved shards.
    pub(crate) fn register_batch(
        &self,
        nodes: &[Arc<TaskNode>],
        sids: &[usize],
        record_edges: bool,
    ) -> Registration {
        let mut reg = Registration::default();
        let Some(&first) = sids.first() else {
            // Access-free: nothing to track, nothing to gate.
            for node in nodes {
                node.in_edges.store(0, Ordering::Relaxed);
            }
            return reg;
        };
        let mut held = Held::acquire(self, sids);
        reg.fast_path = sids.len() == 1 && held.tried();
        for &sid in sids {
            self.shards[sid].hit();
        }
        // The scratch set of the first involved shard is borrowed for the
        // whole registration (its gate is held, so it is exclusively ours),
        // keeping a warm registration allocation-free.
        let mut preds = std::mem::take(&mut held.shard(first).scratch_preds);
        for (i, node) in nodes.iter().enumerate() {
            self.register_node(node, i, &mut preds, &mut held, record_edges, &mut reg);
        }
        held.shard(first).scratch_preds = preds;
        self.counters.scanned(reg.scanned);
        reg
    }
    // lint: hot-path-end

    /// All in-flight tasks that currently access a region overlapping
    /// `region` (used by `taskwait on`). A region lives in exactly one shard.
    pub(crate) fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
        let sid = self.shard_of(region.id.alloc);
        self.shards[sid].hit();
        self.hold_one(sid).shard(sid).tasks_touching(region)
    }

    /// Gate acquisitions per shard by registrations, retirements and
    /// `taskwait on` lookups.
    pub(crate) fn shard_hits(&self) -> Vec<u64> {
        self.shards.iter().map(ShardSlot::hits).collect()
    }

    /// Garbage-collect every shard (one gate at a time): drop tombstones,
    /// completed tasks, emptied entries and their index spans. Called
    /// periodically from the spawn path (cadence:
    /// [`RuntimeConfig::with_tracker_gc_interval`](crate::RuntimeConfig::with_tracker_gc_interval))
    /// and from quiescent `taskwait`s to bound memory on long-running
    /// programs. Bypasses the hit counters: those attribute gate traffic to
    /// the registration, retire and `taskwait on` paths only, and a sweep
    /// touching every shard would drown the signal. Registrations on a shard
    /// being swept wait behind the sweep — which drains the shard's retire
    /// inbox first, like every acquisition.
    pub(crate) fn garbage_collect(&self) {
        for sid in 0..self.shards.len() {
            self.hold_one(sid)
                .shard(sid)
                .garbage_collect(&self.recycler);
        }
    }

    /// Index of the first shard whose gate is currently held by some
    /// mutator, or `None` when every gate is quiescent. At runtime
    /// quiescence no registration or retirement can be mid-publication, so
    /// a held gate is an invariant violation (see [`crate::Runtime::audit`]).
    pub(crate) fn first_held_gate(&self) -> Option<usize> {
        self.shards.iter().position(ShardSlot::is_held)
    }

    /// What the tracker still holds, `(regions, allocs)`: the history
    /// entries and the allocations indexed in `by_alloc`, summed over the
    /// shards. After a quiescent `taskwait` (which garbage-collects) both
    /// read zero; anything else is a retire-path leak. Takes each shard's
    /// gate in turn and leaves the hit counters untouched (see
    /// [`ShardedTracker::garbage_collect`]); like every acquisition it
    /// applies pending deferred retirements first.
    pub(crate) fn residue(&self) -> (usize, usize) {
        (0..self.shards.len()).fold((0, 0), |(regions, allocs), sid| {
            let mut held = self.hold_one(sid);
            let shard = held.shard(sid);
            (regions + shard.entries.len(), allocs + shard.by_alloc.len())
        })
    }

    /// Number of regions currently tracked across all shards.
    #[cfg(test)]
    pub(crate) fn tracked_regions(&self) -> usize {
        self.residue().0
    }

    /// Test support: hold `shard`'s gate until the returned guard drops, so
    /// a test can make completions on that shard defer their retirements
    /// deterministically.
    pub(crate) fn hold_shard(&self, shard: usize) -> ShardHold<'_> {
        ShardHold(self.hold_one(shard))
    }
}

/// A held tracker shard (test support; see
/// [`Runtime::hold_tracker_shard`](crate::Runtime::hold_tracker_shard)).
#[doc(hidden)]
pub struct ShardHold<'a>(Held<'a>);

impl ShardHold<'_> {
    /// Retirements currently waiting in the held shard's inbox.
    pub fn deferred_retirements(&self) -> usize {
        self.0.pending_retirements()
    }
}

// lint: hot-path-begin — pass 2 of registration: runs once per predecessor;
// no panicking calls allowed (see `cargo xtask lint`).
/// Pass 2 of registration, shared verbatim by every registration (so all
/// produce byte-identical edge sets): add an edge from every live
/// predecessor, classifying it RAW / WAR / WAW into `reg`, and store the
/// node's in-edge count. Returns the edge records (empty unless
/// `record_edges`).
fn add_pred_edges(
    preds: &[PredRef],
    node: &Arc<TaskNode>,
    record_edges: bool,
    reg: &mut Registration,
) -> Vec<EdgeRecord> {
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
                edge_list.push(EdgeRecord {
                    pred: pred.id,
                    shard: pred.shard,
                });
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
    use super::shard::{Retirement, TrackerShard};
    use super::*;
    use crate::access::{Access, AccessKind};
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

    fn tracker(shards: usize) -> ShardedTracker {
        ShardedTracker::new(shards)
    }

    /// The reference configuration: every gate acquisition forced off the
    /// polite try, every retirement through the inbox.
    fn tracker_locked(shards: usize) -> ShardedTracker {
        let mut tr = ShardedTracker::new(shards);
        tr.set_fault_plan(crate::failpoint::FaultPlan::seeded(0).tracker_fallback_one_in(1));
        tr
    }

    /// Drain a node as if it executed (without a runtime).
    fn finish(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
        complete(node)
    }

    /// The edge records of a single-node registration made with
    /// `record_edges`.
    fn edge_list(reg: &Registration) -> &[EdgeRecord] {
        &reg.per_task[0].1
    }

    #[test]
    fn raw_dependence_creates_edge() {
        let tr = tracker(4);
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
        let tr = tracker(2);
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
        let tr = tracker(3);
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
        let tr = tracker(1);
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
        let tr = tracker(2);
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
        let tr = tracker(4);
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
        let tr = tracker(4);
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
        let tr = tracker(2);
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
        let tr = tracker(2);
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        // The retire path replaces the live reference with a tombstone …
        tr.retire(&w);
        let r1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r1, false);
        assert_eq!(reg.edges, 0, "a tombstone can take no edge");
        assert_eq!(
            reg.predecessors_seen, 1,
            "a retired conflicting predecessor still counts as seen"
        );
        finish_registration(&r1);
        finish(&r1);
        tr.retire(&r1);
        // … and garbage collection drops the tombstones.
        tr.garbage_collect();
        let r2 = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r2, false);
        assert_eq!(reg.predecessors_seen, 0);
        finish_registration(&r2);
    }

    #[test]
    fn retire_is_idempotent_and_skips_access_free_tasks() {
        let tr = tracker(2);
        let free = node_with(vec![]);
        finish_registration(&free);
        finish(&free);
        tr.retire(&free); // no accesses: nothing to do, must not panic
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        tr.retire(&w);
        tr.retire(&w); // second retire is a no-op
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        assert_eq!(tr.register(&r, false).predecessors_seen, 1);
        finish_registration(&r);
    }

    #[test]
    fn fully_retired_allocations_leave_by_alloc() {
        // Regression test for the retire path: once every task of an
        // allocation has retired and a GC ran, the allocation must be gone
        // from `entries` *and* from the `by_alloc` overlap index — a stale
        // `by_alloc` region id is a leak that also slows every future
        // overlap scan on that shard.
        let tr = tracker(3);
        let nodes: Vec<_> = (0..6u64)
            .map(|a| {
                let w = node_with(vec![acc(100 + a, 0, 0..10, AccessKind::Output)]);
                tr.register(&w, false);
                finish_registration(&w);
                w
            })
            .collect();
        assert_eq!(tr.residue(), (6, 6));
        assert_eq!(tr.num_shards(), 3);
        for n in &nodes {
            finish(n);
            tr.retire(n);
        }
        // Tombstones keep the maps populated (deterministic counting) …
        assert_eq!(tr.tracked_regions(), 6);
        tr.garbage_collect();
        // … and GC must empty both maps in every shard.
        let (regions, allocs) = tr.residue();
        assert_eq!(regions, 0, "entries leak after full retire");
        assert_eq!(allocs, 0, "by_alloc holds stale region ids after full retire");
    }

    #[test]
    fn writer_clear_plus_gc_cleans_by_alloc_of_superseded_history() {
        let tr = tracker(2);
        let w1 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        finish_registration(&w1);
        finish(&w1);
        tr.retire(&w1);
        // A later writer generation clears the tombstoned history in place.
        let w2 = node_with(vec![acc(7, 0, 0..10, AccessKind::Output)]);
        tr.register(&w2, false);
        finish_registration(&w2);
        finish(&w2);
        tr.retire(&w2);
        tr.garbage_collect();
        assert_eq!(tr.residue(), (0, 0));
    }

    #[test]
    fn registration_outcome_is_shard_count_invariant() {
        // The same program must produce identical registrations (edge count,
        // classification, predecessors seen, and edge order) whatever the
        // shard count — regions of one allocation live in exactly one shard.
        let program: Vec<Vec<Access>> = vec![
            vec![acc(11, 0, 0..64, AccessKind::Output)],
            vec![
                acc(11, 0, 0..64, AccessKind::Input),
                acc(12, 0, 0..64, AccessKind::Output),
            ],
            vec![acc(12, 0, 0..64, AccessKind::InOut), acc(13, 0, 0..8, AccessKind::Output)],
            vec![acc(11, 0, 0..64, AccessKind::Output)],
            vec![
                acc(13, 0, 0..8, AccessKind::Concurrent),
                acc(11, 0, 0..64, AccessKind::Input),
            ],
        ];
        let outcome = |tr: ShardedTracker| {
            let mut out = Vec::new();
            let mut nodes = Vec::new();
            for accesses in &program {
                let n = node_with(accesses.clone());
                let reg = tr.register(&n, true);
                out.push((
                    reg.edges,
                    reg.raw_edges,
                    reg.war_edges,
                    reg.waw_edges,
                    reg.predecessors_seen,
                    edge_list(&reg).iter().map(|e| e.pred).collect::<Vec<_>>(),
                ));
                finish_registration(&n);
                nodes.push(n);
            }
            // Map TaskIds to per-run spawn indices so runs compare equal.
            let index_of = |id: TaskId| nodes.iter().position(|n| n.id == id).unwrap();
            out.into_iter()
                .map(|(e, r, w, ww, seen, preds)| {
                    (e, r, w, ww, seen, preds.into_iter().map(index_of).collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
        };
        // Reference: single shard, forced-locked (the historical tracker).
        let reference = outcome(tracker_locked(1));
        for shards in [1, 2, 3, 7, 16] {
            assert_eq!(outcome(tracker(shards)), reference, "optimistic, shards = {shards}");
            assert_eq!(
                outcome(tracker_locked(shards)),
                reference,
                "forced-locked, shards = {shards}"
            );
        }
    }

    #[test]
    fn fast_path_hits_and_fallbacks_are_counted() {
        let tr = tracker(4);
        // Single-allocation registrations take the fast path.
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let b = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(1, 1, 0..4, AccessKind::Output),
        ]);
        assert!(tr.register(&a, false).fast_path);
        assert!(tr.register(&b, false).fast_path, "same-shard two-access task");
        finish_registration(&a);
        finish_registration(&b);
        // A span over two shards counts as a fallback.
        assert_ne!(tr.shard_of(AllocId(1)), tr.shard_of(AllocId(2)));
        let c = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(2, 0, 0..10, AccessKind::Output),
        ]);
        assert!(!tr.register(&c, false).fast_path);
        finish_registration(&c);
        let c = tr.counters();
        assert_eq!(c.fast_hits(), 2);
        assert_eq!(c.fast_fallbacks(), 1);
        // Access-free tasks neither hit nor fall back.
        let free = node_with(vec![]);
        tr.register(&free, false);
        finish_registration(&free);
        let c = tr.counters();
        assert_eq!((c.fast_hits(), c.fast_fallbacks()), (2, 1));
    }

    #[test]
    fn forced_locked_tracker_never_takes_the_fast_path() {
        let tr = tracker_locked(4);
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        assert!(!tr.register(&a, false).fast_path);
        finish_registration(&a);
        let c = tr.counters();
        assert_eq!(
            (c.fast_hits(), c.fast_fallbacks()),
            (0, 1),
            "a forced fallback counts as a fallback"
        );
    }

    #[test]
    fn a_registration_waits_out_a_held_gate_and_counts_as_a_fallback() {
        let tr = tracker(2);
        let a = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        let hold = tr.hold_shard(tr.shard_of(AllocId(2))); // e.g. a GC sweep
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| tr.register(&a, false));
            // The registration's try ran out of spins and it now waits: it
            // found the gate held, which is what the contention counter
            // counts. Only then let it through.
            while tr.counters().contention() == 0 {
                std::thread::yield_now();
            }
            drop(hold);
            let reg = waiter.join().unwrap();
            assert!(!reg.fast_path, "the gate was held: the try must fail");
        });
        finish_registration(&a);
        let c = tr.counters();
        assert_eq!((c.fast_hits(), c.fast_fallbacks()), (0, 1));
        assert_eq!(tr.counters().contention(), 1);
        // Gate released: the next registration takes it at the first try.
        let b = node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]);
        assert!(tr.register(&b, false).fast_path);
        finish_registration(&b);
    }

    #[test]
    fn shard_id_sets_are_sorted_deduplicated_and_spill_past_four() {
        let tr = tracker(16);
        let ids = |allocs: &[u64]| -> Vec<usize> {
            let accesses: Vec<Access> = allocs
                .iter()
                .map(|&a| acc(a, 0, 0..8, AccessKind::Input))
                .collect();
            ShardIds::of(&tr, &accesses).to_vec()
        };
        assert_eq!(ids(&[]), Vec::<usize>::new());
        assert_eq!(ids(&[5, 5, 21]), vec![5], "same shard, listed once");
        assert_eq!(ids(&[9, 3, 9, 1]), vec![1, 3, 9]);
        assert_eq!(ids(&[4, 3, 2, 1]), vec![1, 2, 3, 4], "four fit in place");
        assert_eq!(ids(&[7, 4, 3, 2, 1, 4, 15, 0]), vec![0, 1, 2, 3, 4, 7, 15]);
    }

    #[test]
    fn multi_alloc_registration_spans_shards() {
        let tr = tracker(4);
        // Allocations 1 and 2 land in different shards; a task reading both
        // must collect predecessors from both shards atomically.
        assert_ne!(tr.shard_of(AllocId(1)), tr.shard_of(AllocId(2)));
        let w1 = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let w2 = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w1, false);
        tr.register(&w2, false);
        finish_registration(&w1);
        finish_registration(&w2);
        let r = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(2, 0, 0..10, AccessKind::Input),
        ]);
        let reg = tr.register(&r, true);
        assert_eq!(reg.edges, 2);
        let shards: Vec<usize> = edge_list(&reg).iter().map(|e| e.shard).collect();
        assert_eq!(shards.len(), 2);
        assert_ne!(shards[0], shards[1], "edges found in two distinct shards");
        finish_registration(&r);
    }

    #[test]
    fn shard_routing_covers_all_shards() {
        let tr = tracker(5);
        let mut hit = [false; 5];
        for a in 1..=40u64 {
            let s = tr.shard_of(AllocId(a));
            assert!(s < 5);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "sequential ids reach every shard");
    }

    #[test]
    fn shard_hit_and_contention_counters_accumulate() {
        let tr = tracker(2);
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        let hits: u64 = tr.shard_hits().iter().sum();
        assert!(hits >= 1);
        // Single-threaded use never contends.
        assert_eq!(tr.counters().contention(), 0);
    }

    #[test]
    fn taskwait_on_lists_only_incomplete_tasks() {
        let tr = tracker(3);
        let w = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        let r = node_with(vec![acc(1, 0, 0..10, AccessKind::Input)]);
        tr.register(&w, false);
        finish_registration(&w);
        tr.register(&r, false);
        finish_registration(&r);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 2);
        finish(&w);
        tr.retire(&w);
        let touching = tr.tasks_touching(&region(1, 9, 0..5));
        assert_eq!(touching.len(), 1);
        assert_eq!(touching[0].id, r.id);
        // A non-overlapping range sees nothing.
        assert!(tr.tasks_touching(&region(1, 9, 50..60)).is_empty());
        assert!(tr.tasks_touching(&region(2, 0, 0..10)).is_empty());
    }

    #[test]
    fn garbage_collect_drops_dead_entries() {
        let tr = tracker(2);
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
        let tr = tracker(2);
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
                region(3, 7, 0..100),  // class 7, the "whole" region
                region(3, 1, 40..50),  // class 4
                region(3, 2, 10..20),  // class 4
                region(3, 9, 10..20),  // same range as chunk 2
                region(3, 4, 12..14),  // class 2, nested in chunks 2 and 9
                region(3, 5, 300..310), // disjoint from the query
            ];
            let tr = tracker(1);
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
                .map(|e| ids.iter().find(|(_, id)| *id == e.pred).unwrap().0)
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
        let tr = tracker(2);
        let mut nodes = Vec::new();
        for c in 0..CHUNKS {
            let before = tr.counters().entries_scanned();
            let start = c as usize * 48;
            let w = node_with(vec![acc(4, c + 1, start..start + 48, AccessKind::Output)]);
            tr.register(&w, false);
            finish_registration(&w);
            nodes.push(w);
            assert!(
                tr.counters().entries_scanned() - before <= 2,
                "a chunk access examines its neighbours only"
            );
        }
        let before = tr.counters().entries_scanned();
        let whole = node_with(vec![acc(4, 0, 0..CHUNKS as usize * 48, AccessKind::Input)]);
        let reg = tr.register(&whole, false);
        finish_registration(&whole);
        assert_eq!(tr.counters().entries_scanned() - before, u64::from(CHUNKS));
        assert_eq!(reg.predecessors_seen, CHUNKS as usize);
        assert_eq!(reg.edges, CHUNKS as usize);
        // An empty access examines nothing and conflicts with nothing.
        let before = tr.counters().entries_scanned();
        let empty = node_with(vec![acc(4, 9999, 100..100, AccessKind::Output)]);
        assert_eq!(tr.register(&empty, false).predecessors_seen, 0);
        finish_registration(&empty);
        assert_eq!(tr.counters().entries_scanned(), before);
    }

    #[test]
    fn dedupe_survives_descending_and_repeated_ids() {
        // One early task spans every chunk (so it conflicts through every
        // entry, after tasks with higher ids), and the chunk writers are
        // recorded in descending chunk order, so a whole-region scan meets
        // ids in *descending* order: every duplicate check leaves the
        // ascending shortcut, and past the linear window the hash index.
        const CHUNKS: usize = 64;
        let tr = tracker(1);
        let spanning = node_with(
            (0..CHUNKS)
                .map(|c| acc(6, c as u32 + 1, c * 10..c * 10 + 10, AccessKind::Input))
                .collect(),
        );
        tr.register(&spanning, false);
        finish_registration(&spanning);
        let mut readers = Vec::new();
        for c in (0..CHUNKS).rev() {
            let r = node_with(vec![acc(6, c as u32 + 1, c * 10..c * 10 + 10, AccessKind::Input)]);
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
        assert_eq!(edge_list(&reg)[0].pred, spanning.id);
        assert_eq!(edge_list(&reg)[1].pred, readers[CHUNKS - 1].id);
    }

    #[test]
    fn retire_under_a_held_gate_defers_and_is_applied_before_the_next_scan() {
        let tr = tracker(2);
        let w = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        tr.register(&w, false);
        finish_registration(&w);
        finish(&w);
        let sid = tr.shard_of(AllocId(2));
        {
            let hold = tr.hold_shard(sid);
            // Returns at once although this very thread holds the gate — a
            // blocking retire would deadlock right here.
            tr.retire(&w);
            assert_eq!(hold.deferred_retirements(), 1);
            assert_eq!(Arc::strong_count(&w), 2, "history still pins the node");
            tr.retire(&w); // idempotent while deferred, too
            assert_eq!(hold.deferred_retirements(), 1);
        }
        // Releasing the gate applied the inbox: the reference is a tombstone.
        assert_eq!(Arc::strong_count(&w), 1);
        let r = node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]);
        let reg = tr.register(&r, false);
        assert_eq!((reg.edges, reg.predecessors_seen), (0, 1));
        finish_registration(&r);
    }

    #[test]
    fn every_acquisition_drains_the_inbox_first() {
        // Push retirements straight into the inbox (as a worker that lost
        // the race for the gate would, minus its own second look), then
        // check each way of taking the gate applies them before using the
        // history.
        let defer = |tr: &ShardedTracker, node: &Arc<TaskNode>| {
            assert!(node.mark_retired());
            let a = &node.accesses[0];
            tr.shards[tr.shard_of(a.region.id.alloc)].push_retirement(Retirement {
                rid: a.region.id,
                task: node.id,
                kind: a.kind,
            });
        };
        let completed_writer = |tr: &ShardedTracker| {
            let w = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
            tr.register(&w, false);
            finish_registration(&w);
            finish(&w);
            w
        };
        // Registration, gate taken at the first try.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        let r = node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]);
        assert!(tr.register(&r, false).fast_path);
        assert_eq!(Arc::strong_count(&w), 1, "tried gate drained");
        // Registration, waiting acquisition.
        let tr = tracker_locked(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        tr.register(&node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]), false);
        assert_eq!(Arc::strong_count(&w), 1, "awaited gate drained");
        // Batch registration.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        let batch = [node_with(vec![acc(2, 0, 0..10, AccessKind::Input)])];
        tr.register_batch(&batch, &[tr.shard_of(AllocId(2))], false);
        assert_eq!(Arc::strong_count(&w), 1, "batch drained");
        // Garbage collection: drains, then drops the tombstone it produced.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        tr.garbage_collect();
        assert_eq!(Arc::strong_count(&w), 1, "GC drained");
        assert_eq!(tr.tracked_regions(), 0);
        // `taskwait on` lookups and residue reads.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        assert!(tr.tasks_touching(&region(2, 0, 0..10)).is_empty());
        assert_eq!(Arc::strong_count(&w), 1, "lookup drained");
        let w2 = completed_writer(&tr);
        defer(&tr, &w2);
        tr.residue();
        assert_eq!(Arc::strong_count(&w2), 1, "the residue read drained");
    }

    #[test]
    fn a_drain_parks_released_nodes_in_the_slab() {
        let slab = Arc::new(TaskSlab::new(8));
        let mut tr = tracker(1);
        tr.set_recycler(slab.clone());
        let accesses = [acc(2, 0, 0..10, AccessKind::Output)].into_iter().collect();
        let w = crate::task::tests::test_node(Some(&slab), None, 0, accesses);
        tr.register(&w, false);
        finish_registration(&w);
        let _ = w.body.lock().take();
        finish(&w);
        let hold = tr.hold_shard(0);
        tr.retire(&w);
        // The worker's own hand-back fails — history still pins the node —
        // and it moves on.
        slab.try_recycle(w);
        assert_eq!(slab.gauges(), (0, 1));
        drop(hold);
        // The drain dropped the last reference: parked, not freed.
        assert_eq!(slab.gauges(), (1, 0));
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
        assert_eq!(executed, nodes.len(), "every task must execute exactly once");
        for n in &nodes {
            assert!(n.is_completed());
        }
    }

    /// One step of the index oracle: record a region, or drop the `n`-th
    /// tracked one (garbage collection's effect on the index).
    #[derive(Debug, Clone)]
    enum IndexOp {
        Insert { alloc: u64, start: usize, len: usize },
        Remove { nth: usize },
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
            (1u64..4, 0usize..1024, 1usize..9).prop_map(|(alloc, start, len)| {
                IndexOp::Insert { alloc, start, len }
            }),
            (0usize..64).prop_map(|nth| IndexOp::Remove { nth }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The overlap index answers exactly what a brute-force
        /// `Region::overlaps` scan over the tracked regions answers — after
        /// any sequence of inserts and removals, for nested, partially
        /// overlapping, touching, empty and duplicate-start regions on
        /// several allocations of one shard — in index order, examining at
        /// least what it returns.
        #[test]
        fn prop_overlap_index_matches_brute_force(
            ops in proptest::collection::vec(index_op(), 1..80),
            queries in proptest::collection::vec((1u64..4, 0usize..1100, 0usize..600), 1..12),
        ) {
            let mut shard = TrackerShard::default();
            let mut model: Vec<Region> = Vec::new();
            let mut next_chunk = 0u32;
            for op in ops {
                match op {
                    IndexOp::Insert { alloc, start, len } => {
                        let r = region(alloc, next_chunk, start..start + len);
                        next_chunk += 1;
                        shard.entry_mut(&r);
                        let _ = shard.entry_mut(&r); // idempotent per region id
                        model.push(r);
                    }
                    IndexOp::Remove { nth } => {
                        if model.is_empty() {
                            continue;
                        }
                        let victim = model.remove(nth % model.len());
                        // What GC does to an entry whose history emptied.
                        shard.entries.remove(&victim.id);
                        let index = shard.by_alloc.get_mut(&victim.id.alloc).unwrap();
                        index.retain(|chunk| chunk != victim.id.chunk);
                        if index.spans.is_empty() {
                            shard.by_alloc.remove(&victim.id.alloc);
                        }
                    }
                }
                prop_assert_eq!(
                    shard.by_alloc.values().map(|i| i.spans.len()).sum::<usize>(),
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
                    let scanned = shard
                        .by_alloc
                        .get(&AllocId(alloc))
                        .map_or(0, |index| index.for_each_overlap(&q.bytes, |c| got.push(c)));
                    prop_assert_eq!(&got, &expected.iter().map(|s| s.chunk).collect::<Vec<_>>());
                    prop_assert!(scanned >= got.len() as u64);
                    prop_assert_eq!(shard.overlaps_any(&q), !expected.is_empty());
                }
            }
        }

        /// Random access patterns over a handful of regions always produce an
        /// acyclic graph in which every task eventually runs (liveness), and
        /// tasks writing the same region are totally ordered — whatever the
        /// shard count.
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
            shards in 1usize..9,
        ) {
            let tr = tracker(shards);
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

        /// Multi-access tasks over overlapping regions (and therefore over
        /// multiple shards) also stay live.
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
            shards in 1usize..9,
        ) {
            let tr = tracker(shards);
            let mut nodes = Vec::new();
            let mut ready = Vec::new();
            for (i, accesses) in specs.into_iter().enumerate() {
                // Spread tasks over several allocations so registrations
                // genuinely span shards.
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
