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
//! ## Sharding and the overlap index
//!
//! The tracker is the insertion-side critical path: every spawned task takes
//! it to register, and every completed task takes it again to retire its
//! history. A single map behind a single lock serialises all of that, so the
//! tracker is **sharded by allocation id**: [`ShardedTracker`] routes every
//! region to the shard `alloc_id % num_shards`, and each [`TrackerShard`]
//! owns its own gate, `entries` map, `by_alloc` overlap index and retire
//! inbox. Renaming gives every data version a fresh allocation id, so shards
//! stay naturally balanced.
//!
//! Within a shard, `by_alloc` holds one [`AllocIndex`] per allocation: the
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
//! shard count, the registration tier or the replay path.
//!
//! A registration that touches several allocations locks every involved
//! shard **in canonical order** (ascending shard index) and holds them all
//! for the whole registration, which keeps multi-shard registration atomic
//! (the linearisation point of the spawn) and deadlock-free. Because regions
//! of one allocation always live in exactly one shard, the per-registration
//! outcome — predecessors discovered, edges added, and their order — is
//! identical for every shard count; `tests/tracker_equivalence.rs` pins this.
//!
//! Every tier runs the same three passes per task
//! ([`ShardedTracker::register_node`]): collect the conflicting predecessors
//! of every access (deduplicated in constant time — see [`PredSet`]), add an
//! edge from each live one, record the accesses.
//!
//! ## The optimistic fast path
//!
//! Most tasks declare one or two accesses on a single allocation (renaming
//! makes this the steady state: every version is a fresh allocation), so the
//! dominant registration touches exactly one shard. For that case each shard
//! carries a seqlock-style **sequence gate** (`AtomicU64`; even = quiescent,
//! odd = a mutator holds the shard): a single-shard registration publishes
//! itself with **one CAS** on the gate — no mutex, no blocking — walks the
//! shard history to discover its RAW/WAR/WAW predecessors exactly as the
//! locked path would, records its accesses, and releases the gate with one
//! add. Per-shard scratch buffers make the steady-state fast path
//! allocation-free. A busy gate is outwaited for a bounded number of spins
//! (a retirement or another one-region registration is gone long before the
//! budget runs out, and the mutex path would wait for the same holder
//! anyway); past that the registration **falls back** to the mutex path.
//! Fallbacks happen on
//!
//! * sustained contention (a wide registration or a `taskwait on` lookup
//!   holds the shard beyond the spin budget, or a mutex-path acquirer is
//!   already waiting — it raises a flag that turns optimistic attempts away
//!   at once, so it cannot be starved),
//! * multi-allocation spans (accesses mapping to more than one shard), and
//! * garbage collection in progress (GC locks every shard, which holds every
//!   gate odd for the duration of the sweep).
//!
//! The mutex path *also* acquires the gate (after the mutex, waiting out at
//! most one short fast-path publication), so the gate is the single point of
//! mutual exclusion per shard and both paths mutate the same history maps —
//! which is why the edge multiset is byte-identical between the optimistic
//! and the forced-locked configuration
//! ([`RuntimeConfig::with_tracker_fast_path`](crate::RuntimeConfig::with_tracker_fast_path));
//! `tests/tracker_equivalence.rs` pins that too. Hits and fallbacks are
//! counted (`tracker_fast_path_hits` / `tracker_fast_path_fallbacks` in
//! [`RuntimeStats`](crate::RuntimeStats)), and traced edges carry a
//! `fast_path` flag. **Every** way of taking a gate — fast CAS, shard lock,
//! batch guard, GC, diagnostics, `taskwait on` — first applies the shard's
//! retire inbox (below), so no holder ever reads history with a retirement
//! pending that was handed over before it acquired.
//!
//! ## Retirement
//!
//! When a task completes, the worker retires it through the router: each of
//! its history references is replaced by a lightweight *tombstone* (its
//! [`TaskId`]); only the list the access kind recorded into is searched.
//! Tombstones keep `predecessors_seen` deterministic (a
//! completed-but-conflicting predecessor is still *seen*) while releasing
//! the task node itself — closures, successor lists, version tickets — as
//! soon as the task finishes. [`TrackerShard::garbage_collect`] then drops
//! tombstoned entries and their index spans, so fully retired allocations
//! leave both maps; it runs per shard, periodically from the spawn path and
//! at every quiescent `taskwait`.
//!
//! **A retirement never blocks the worker.** It takes the shard gate only if
//! the gate is free right now (the same single CAS as a fast-path
//! registration). If the gate is held — typically by a spawner in the middle
//! of a long registration — or the optimistic tier is switched off, the
//! worker pushes `(region, task, access kind)` onto that shard's **retire
//! inbox**, looks at the gate once more, and goes back to executing tasks.
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
//! * **(a) Hand-off happens-before ticket release.** [`ShardedTracker::retire`]
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
//!   post-drain facts for `taskwait`, `Runtime::audit` and
//!   `Runtime::tracker_diagnostics` (which drain on acquisition anyway).
//! * **(c) Deferral does not cost the recycler.** The deferring worker's own
//!   hand-back to the slab fails (history still references the node), so
//!   history may now hold a completed task's *last* reference. Every place
//!   history lets go of a reference — the drain that tombstones it, a later
//!   writer generation clearing it, a GC sweep pruning it, a registration
//!   dropping the predecessor clones it borrowed — goes through
//!   [`release_node`], which hands a completed task's node to the
//!   slab ([`TaskSlab::try_recycle`], which also settles who is last when
//!   several holders let go at once) instead of freeing it.
//! * **(d) The inbox is allocation-free when warm.** It is a pre-sized
//!   vector behind a mutex held only for one push or one swap; a drain swaps
//!   it with a per-shard scratch vector, so both keep their capacity.
//!
//! [`crate::rename`]: crate::rename

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::access::{Access, AccessKind, AccessVec, Dependence};
use crate::region::{AllocId, Region, RegionId};
use crate::stats::TrackerCounters;
use crate::task::{TaskId, TaskNode, TaskSlab, TaskState};

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

/// One in-flight (or retired) access recorded in a region's history.
enum HistoryRef {
    /// The task is still live: edges can be added to it and `taskwait on`
    /// must wait for it.
    Live(Arc<TaskNode>),
    /// The task completed and was retired: only its identity is kept, so
    /// that `predecessors_seen` stays deterministic until the next garbage
    /// collection (see [`Registration::predecessors_seen`]).
    Retired(TaskId),
}

impl HistoryRef {
    fn id(&self) -> TaskId {
        match self {
            HistoryRef::Live(t) => t.id,
            HistoryRef::Retired(id) => *id,
        }
    }

    fn live(&self) -> Option<&Arc<TaskNode>> {
        match self {
            HistoryRef::Live(t) => Some(t),
            HistoryRef::Retired(_) => None,
        }
    }

    /// Whether the reference still pins a live, incomplete task (everything
    /// else is garbage-collectable).
    fn is_live_incomplete(&self) -> bool {
        match self {
            HistoryRef::Live(t) => !t.is_completed(),
            HistoryRef::Retired(_) => false,
        }
    }

    /// Let go of a reference history no longer needs (see [`release_node`]).
    fn release(self, recycler: &Recycler) {
        if let HistoryRef::Live(node) = self {
            release_node(node, recycler);
        }
    }
}

/// Where node references released by history go (see [`release_node`]): the
/// runtime's slab, or nowhere for trackers built without a runtime (unit
/// tests, benches, the freeze-time shadow).
type Recycler = Option<Arc<TaskSlab>>;

/// Let go of a node reference the tracker held — in history, or borrowed
/// from it as a predecessor. A task still running is referenced by its
/// worker too, which hands the node back to the slab itself. A *completed*
/// task's worker may already have let go — its retirement was deferred and
/// is applied only now, or arrived during the very registration or sweep
/// that is dropping this reference — and then this is the node's last
/// reference: it is parked in the slab, not freed, so deferral costs the
/// recycler nothing.
fn release_node(node: Arc<TaskNode>, recycler: &Recycler) {
    if let Some(slab) = recycler {
        if node.is_completed() {
            slab.try_recycle(node, None);
        }
    }
}

/// Per-region bookkeeping of in-flight accesses. The byte range the region
/// id stands for lives in the allocation's [`AllocIndex`], not here.
#[derive(Default)]
struct RegionEntry {
    /// Tasks forming the last "writer generation".
    writers: Vec<HistoryRef>,
    /// Tasks that have read the region since the last writer generation.
    readers: Vec<HistoryRef>,
    /// Tasks with `concurrent` access since the last plain writer.
    concurrent: Vec<HistoryRef>,
}

impl RegionEntry {
    /// The list an access of `kind` records itself into — and therefore the
    /// only list a retirement of that access has to search.
    fn list_mut(&mut self, kind: AccessKind) -> &mut Vec<HistoryRef> {
        match kind {
            AccessKind::Input => &mut self.readers,
            AccessKind::Output | AccessKind::InOut => &mut self.writers,
            AccessKind::Concurrent => &mut self.concurrent,
        }
    }

    fn refs(&self) -> impl Iterator<Item = &HistoryRef> {
        self.writers
            .iter()
            .chain(self.readers.iter())
            .chain(self.concurrent.iter())
    }

    /// Start a new writer generation: forget every recorded access.
    fn clear(&mut self, recycler: &Recycler) {
        for list in [&mut self.writers, &mut self.readers, &mut self.concurrent] {
            while let Some(r) = list.pop() {
                r.release(recycler);
            }
        }
    }

    /// Drop references that no longer pin anything (tombstones and completed
    /// tasks); returns whether the entry is now empty.
    fn prune(&mut self, recycler: &Recycler) -> bool {
        for list in [&mut self.writers, &mut self.readers, &mut self.concurrent] {
            list.retain_mut(|r| {
                let keep = r.is_live_incomplete();
                if !keep {
                    std::mem::replace(r, HistoryRef::Retired(r.id())).release(recycler);
                }
                keep
            });
        }
        self.writers.is_empty() && self.readers.is_empty() && self.concurrent.is_empty()
    }
}

// lint: hot-path-begin — overlap index + predecessor dedupe: every access of
// every registration runs a query here; no panicking calls allowed (see
// `cargo xtask lint`).

/// One recorded region of an allocation, as the overlap index sees it: its
/// byte range, the chunk half of its [`RegionId`] (the allocation half is the
/// `by_alloc` key) and its size class.
#[derive(Clone, Copy)]
struct Span {
    /// Bit length of the byte length: `0` for an empty region, `c` for a
    /// length in `[2^(c-1), 2^c)`.
    class: u32,
    start: usize,
    end: usize,
    chunk: u32,
}

impl Span {
    fn of(region: &Region) -> Span {
        let len = region.len();
        Span {
            class: usize::BITS - len.leading_zeros(),
            start: region.bytes.start,
            end: region.bytes.start + len,
            chunk: region.id.chunk,
        }
    }

    /// The index order: size class, then start offset, then chunk id (the
    /// last only separates regions with identical ranges).
    fn key(&self) -> (u32, usize, u32) {
        (self.class, self.start, self.chunk)
    }

    /// This span's bit in [`AllocIndex::classes`] (none for an empty one).
    fn class_bit(&self) -> u64 {
        match self.class {
            0 => 0,
            c => 1 << (c - 1),
        }
    }
}

/// The per-allocation overlap index: every region id with a live
/// [`RegionEntry`], ordered by **(size class, start, chunk)**.
///
/// Within one size class every region is shorter than `2^class` bytes, so
/// the members overlapping a query `[s, e)` all start inside the window
/// `(s - 2^class, e)` — one binary search plus a forward walk per occupied
/// class. The walk also touches *near misses* (same class, starting inside
/// the window but ending at or before `s`); regions of one class that do not
/// nest contribute at most two of those, so a query costs
/// `O(classes · log n + overlaps)` for partitions, whole-allocation regions
/// over partitions, nested sub-ranges and any mix of them, and degrades only
/// when many same-sized regions pile up just before the query. Nothing here
/// looks at how a handle minted its region ids: only byte ranges decide.
///
/// Empty regions (class 0) are indexed — garbage collection finds entries
/// through the index — but never returned: they overlap nothing.
#[derive(Default)]
struct AllocIndex {
    spans: Vec<Span>,
    /// Bit `c - 1` is set iff some span of size class `c ≥ 1` is present.
    classes: u64,
}

impl AllocIndex {
    /// Index `region`. Called exactly once per region id, when its
    /// [`RegionEntry`] is created.
    fn insert(&mut self, region: &Region) {
        let span = Span::of(region);
        let at = self.spans.partition_point(|s| s.key() < span.key());
        self.spans.insert(at, span);
        self.classes |= span.class_bit();
    }

    /// Call `hit(chunk)` for every indexed region overlapping `bytes`, in
    /// index order, and return how many spans were examined.
    fn for_each_overlap(&self, bytes: &std::ops::Range<usize>, mut hit: impl FnMut(u32)) -> u64 {
        let (s, e) = (bytes.start, bytes.end);
        if e <= s {
            return 0;
        }
        // One region — every plain `Data` handle — needs no search.
        if let [only] = self.spans[..] {
            if only.start < e && only.end > s && only.class != 0 {
                hit(only.chunk);
            }
            return 1;
        }
        let mut scanned = 0u64;
        let mut classes = self.classes;
        while classes != 0 {
            let class = classes.trailing_zeros() + 1;
            classes &= classes - 1;
            // Longest member of the class: 2^class - 1 bytes. A span reaches
            // past `s` only if `start + longest > s`.
            let longest = 1usize.checked_shl(class).map_or(usize::MAX, |w| w - 1);
            let first = s.saturating_sub(longest - 1);
            let from = self
                .spans
                .partition_point(|sp| (sp.class, sp.start) < (class, first));
            for sp in &self.spans[from..] {
                if sp.class != class || sp.start >= e {
                    break;
                }
                scanned += 1;
                if sp.end > s {
                    hit(sp.chunk);
                }
            }
        }
        scanned
    }

    /// The ids of every indexed region, in index order.
    fn region_ids(&self, alloc: AllocId) -> impl Iterator<Item = RegionId> + '_ {
        self.spans.iter().map(move |sp| RegionId {
            alloc,
            chunk: sp.chunk,
        })
    }

    /// Keep only the spans `keep(chunk)` accepts (garbage collection).
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut classes = 0u64;
        self.spans.retain(|sp| {
            let kept = keep(sp.chunk);
            if kept {
                classes |= sp.class_bit();
            }
            kept
        });
        self.classes = classes;
    }
}

/// A predecessor discovered during registration: its identity, the live node
/// (when an edge can still be added), the dependence class of the first
/// conflict that introduced it, and the shard it was found in.
struct PredRef {
    id: TaskId,
    live: Option<Arc<TaskNode>>,
    dependence: Dependence,
    shard: usize,
}

/// Up to this many collected predecessors a duplicate check is a linear scan
/// of the list itself — the 1–2-predecessor common case never hashes.
const LINEAR_DEDUPE_MAX: usize = 8;

/// The predecessors one registration has collected so far, in first-conflict
/// order, with constant-time rejection of a task seen before (the same task
/// can sit in several overlapping entries, or twice in one list).
///
/// Task ids are minted ascending and every history list is in registration
/// order, so conflicts overwhelmingly arrive in ascending id order: an id
/// above everything collected so far is new without any lookup. Only an id
/// at or below the running maximum is looked up — linearly while the list is
/// short, through a hash set (filled lazily, up to the current length, the
/// first time it is needed) beyond that.
#[derive(Default)]
struct PredSet {
    preds: Vec<PredRef>,
    /// Highest raw id in `preds` (`0` when empty; ids start at 1).
    max_id: u64,
    /// The ids of `preds[..indexed]`.
    index: HashSet<TaskId, IdBuildHasher>,
    indexed: usize,
}

impl PredSet {
    fn push(&mut self, t: &HistoryRef, dependence: Dependence, shard: usize) {
        let id = t.id();
        if id.0 > self.max_id {
            self.max_id = id.0;
        } else if self.contains(id) {
            return;
        }
        self.preds.push(PredRef {
            id,
            live: t.live().cloned(),
            dependence,
            shard,
        });
    }

    fn contains(&mut self, id: TaskId) -> bool {
        if self.preds.len() <= LINEAR_DEDUPE_MAX {
            return self.preds.iter().any(|p| p.id == id);
        }
        for p in &self.preds[self.indexed..] {
            self.index.insert(p.id);
        }
        self.indexed = self.preds.len();
        self.index.contains(&id)
    }

    fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Empty the set. The node references it borrowed from history go
    /// through [`release_node`]: a predecessor that completed *and*
    /// was dropped by both its worker and history while the registration
    /// held this clone must not be freed by it.
    fn clear(&mut self, recycler: &Recycler) {
        while let Some(pred) = self.preds.pop() {
            if let Some(node) = pred.live {
                release_node(node, recycler);
            }
        }
        self.max_id = 0;
        if self.indexed != 0 {
            self.index.clear();
            self.indexed = 0;
        }
    }
}

/// One retirement a worker handed to a shard's inbox because the gate was
/// held: "task `task` is done with its `kind` access on `rid`".
struct Retirement {
    rid: RegionId,
    task: TaskId,
    kind: AccessKind,
}

/// One shard of the dependence tracker: the region history and per-allocation
/// index for every allocation routed to it. All methods expect the caller
/// (the [`ShardedTracker`] router) to hold this shard's gate.
#[derive(Default)]
pub(crate) struct TrackerShard {
    entries: HashMap<RegionId, RegionEntry, IdBuildHasher>,
    /// The overlap index of every allocation with tracked regions. A region
    /// id is indexed exactly while it has an entry in `entries`.
    by_alloc: HashMap<AllocId, AllocIndex, IdBuildHasher>,
    /// Scratch predecessor set reused by every registration on this shard —
    /// the optimistic fast path *and* the mutex path — so the steady-state
    /// registration allocates nothing on either tier. Only ever touched
    /// while the shard's gate is held (exclusive access), and always left
    /// empty.
    scratch_preds: PredSet,
    /// The buffer an inbox drain swaps the pending retirements into (see
    /// [`ShardedTracker::drain_inbox`]); always left empty.
    scratch_inbox: Vec<Retirement>,
}

impl TrackerShard {
    /// Pass 1 of registration: collect the predecessors `access` conflicts
    /// with from this shard's history into `preds`. Overlapping entries are
    /// visited in index order (see [`AllocIndex`]). Returns the number of
    /// index spans examined.
    fn collect_preds(&self, access: &Access, shard: usize, preds: &mut PredSet) -> u64 {
        let alloc = access.region.id.alloc;
        let Some(index) = self.by_alloc.get(&alloc) else {
            return 0;
        };
        let later = access.kind;
        // Statistics classification. This deliberately diverges from
        // `access::classify` for read-modify-writes: an `inout` (or
        // `concurrent`) after a writer *reads* the written data, so
        // the edge carries a genuine data flow and is counted RAW —
        // it is not serialisation that renaming could remove. WAR and
        // WAW are reserved for edges where the successor overwrites
        // without reading (the renameable false dependences).
        let vs_writer = if later.reads() {
            Dependence::ReadAfterWrite
        } else {
            Dependence::WriteAfterWrite
        };
        index.for_each_overlap(&access.region.bytes, |chunk| {
            let Some(entry) = self.entries.get(&RegionId { alloc, chunk }) else {
                return;
            };
            // Earlier writers always order later readers and writers.
            for w in &entry.writers {
                preds.push(w, vs_writer, shard);
            }
            match later {
                AccessKind::Input => {
                    // RAW only; concurrent accumulators count as writers.
                    for c in &entry.concurrent {
                        preds.push(c, Dependence::ReadAfterWrite, shard);
                    }
                }
                AccessKind::Output | AccessKind::InOut => {
                    for r in &entry.readers {
                        preds.push(r, Dependence::WriteAfterRead, shard);
                    }
                    for c in &entry.concurrent {
                        preds.push(c, vs_writer, shard);
                    }
                }
                AccessKind::Concurrent => {
                    // Order against plain readers, not against other
                    // concurrent accesses.
                    for r in &entry.readers {
                        preds.push(r, Dependence::WriteAfterRead, shard);
                    }
                }
            }
        })
    }

    /// The history entry of `region`, created — and indexed — on first use.
    fn entry_mut(&mut self, region: &Region) -> &mut RegionEntry {
        match self.entries.entry(region.id) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.by_alloc.entry(region.id.alloc).or_default().insert(region);
                v.insert(RegionEntry::default())
            }
        }
    }

    /// Pass 3 of registration: record `access` of `node` in this shard's
    /// history so that future tasks depend on `node` where required.
    fn record_access(&mut self, access: &Access, node: &Arc<TaskNode>, recycler: &Recycler) {
        let entry = self.entry_mut(&access.region);
        if matches!(access.kind, AccessKind::Output | AccessKind::InOut) {
            entry.clear(recycler);
        }
        entry
            .list_mut(access.kind)
            .push(HistoryRef::Live(node.clone()));
    }

    /// Bulk-publish one [`FrozenInstall`]: replace the region's history with
    /// the batch's baked net effect — exactly the state the per-task
    /// `record_access` interleave of a resolved registration would have left
    /// (an in-batch overwrite rebuilds the lists from scratch, so the final
    /// state is a pure function of the batch). `nodes` is the current
    /// iteration's node slice; the install's positions index into it. In the
    /// warm steady state this allocates nothing: the entry, its list
    /// capacities and the index span all survive from the previous pass.
    fn apply_install(
        &mut self,
        inst: &FrozenInstall,
        nodes: &[Arc<TaskNode>],
        recycler: &Recycler,
    ) {
        let entry = self.entry_mut(&inst.region);
        entry.clear(recycler);
        for &p in &inst.writers {
            entry.writers.push(HistoryRef::Live(nodes[p].clone()));
        }
        for &p in &inst.readers {
            entry.readers.push(HistoryRef::Live(nodes[p].clone()));
        }
        for &p in &inst.concurrent {
            entry.concurrent.push(HistoryRef::Live(nodes[p].clone()));
        }
    }

    /// Replace the live history reference task `id` recorded under region
    /// `rid` through an access of `kind` with a tombstone (the retire path),
    /// handing the released node reference back. Only the list that kind
    /// records into is searched. A reference already cleared by a later
    /// writer generation is silently gone — that is fine.
    fn retire_region(
        &mut self,
        rid: RegionId,
        id: TaskId,
        kind: AccessKind,
    ) -> Option<Arc<TaskNode>> {
        let slot = self
            .entries
            .get_mut(&rid)?
            .list_mut(kind)
            .iter_mut()
            .find(|r| r.id() == id && r.live().is_some())?;
        match std::mem::replace(slot, HistoryRef::Retired(id)) {
            HistoryRef::Live(node) => Some(node),
            HistoryRef::Retired(_) => None,
        }
    }

    /// Whether any tracked region overlaps `region`.
    fn overlaps_any(&self, region: &Region) -> bool {
        let mut any = false;
        if let Some(index) = self.by_alloc.get(&region.id.alloc) {
            index.for_each_overlap(&region.bytes, |_| any = true);
        }
        any
    }

    /// All in-flight tasks in this shard currently accessing a region
    /// overlapping `region` (used by `taskwait on`).
    fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
        let mut out: Vec<Arc<TaskNode>> = Vec::new();
        let alloc = region.id.alloc;
        let Some(index) = self.by_alloc.get(&alloc) else {
            // No history means nothing in flight.
            return out;
        };
        index.for_each_overlap(&region.bytes, |chunk| {
            let Some(entry) = self.entries.get(&RegionId { alloc, chunk }) else {
                return;
            };
            for t in entry.refs().filter_map(HistoryRef::live) {
                if !t.is_completed() && !out.iter().any(|o| o.id == t.id) {
                    out.push(t.clone());
                }
            }
        });
        out
    }

    /// Drop history references that no longer pin anything (tombstones and
    /// completed tasks), then entries left empty together with their index
    /// spans, then allocations left without spans — so a fully retired
    /// allocation leaves **both** maps (`tests` pin this). The sweep walks
    /// the index, which reaches every entry: a region id is indexed exactly
    /// while it has one.
    fn garbage_collect(&mut self, recycler: &Recycler) {
        let entries = &mut self.entries;
        self.by_alloc.retain(|&alloc, index| {
            index.retain(|chunk| {
                let rid = RegionId { alloc, chunk };
                let emptied = entries.get_mut(&rid).is_none_or(|e| e.prune(recycler));
                if emptied {
                    entries.remove(&rid);
                }
                !emptied
            });
            !index.spans.is_empty()
        });
        debug_assert_eq!(
            self.entries.len(),
            self.by_alloc.values().map(|i| i.spans.len()).sum::<usize>(),
            "every tracked region is indexed exactly once"
        );
    }
}
// lint: hot-path-end

/// Result of registering a task with the tracker.
pub(crate) struct Registration {
    /// Number of predecessor edges actually added (predecessors that had not
    /// yet completed).
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
    /// The added edges, for trace recording: predecessor id plus the tracker
    /// shard the conflict was found in. Populated only when the caller asked
    /// for it (tracing enabled).
    pub edge_list: Vec<EdgeRecord>,
    /// Whether this registration went through the optimistic (gate-CAS)
    /// single-shard fast path rather than the mutex path.
    pub fast_path: bool,
}

impl Registration {
    fn from_tally(tally: &EdgeTally, edge_list: Vec<EdgeRecord>, fast_path: bool) -> Self {
        Registration {
            edges: tally.edges,
            raw_edges: tally.raw,
            war_edges: tally.war,
            waw_edges: tally.waw,
            predecessors_seen: tally.preds_seen,
            edge_list,
            fast_path,
        }
    }
}

/// One added dependence edge, as reported to the trace.
pub(crate) struct EdgeRecord {
    /// The predecessor task of the edge.
    pub pred: TaskId,
    /// Tracker shard in which the conflict was discovered.
    pub shard: usize,
}

/// Result of registering a whole template-replay batch with the tracker
/// under a single multi-gate acquisition: the [`Registration`] counters
/// summed over the batch, plus optional per-task edge records for tracing.
pub(crate) struct BatchRegistration {
    /// Predecessor edges actually added, summed over the batch
    /// (intra-batch edges included).
    pub edges: usize,
    /// Added true (read-after-write) dependences, summed.
    pub raw_edges: usize,
    /// Added anti (write-after-read) dependences, summed.
    pub war_edges: usize,
    /// Added output (write-after-write) dependences, summed.
    pub waw_edges: usize,
    /// Distinct conflicting predecessors seen, summed (see
    /// [`Registration::predecessors_seen`]).
    pub predecessors_seen: usize,
    /// `(batch index, added edges)` per task, in batch order. Populated only
    /// when the caller asked for edge records (tracing enabled); empty — and
    /// allocation-free — otherwise. The pre-wired path records only the
    /// *frontier* tasks here (interior edges come from the plan), so entries
    /// are sparse: index by the stored batch position, not by vector offset.
    pub per_task: Vec<(usize, Vec<EdgeRecord>)>,
}

impl BatchRegistration {
    fn from_tally(tally: &EdgeTally, per_task: Vec<(usize, Vec<EdgeRecord>)>) -> Self {
        BatchRegistration {
            edges: tally.edges,
            raw_edges: tally.raw,
            war_edges: tally.war,
            waw_edges: tally.waw,
            predecessors_seen: tally.preds_seen,
            per_task,
        }
    }
}

/// One pre-resolved intra-batch dependence edge of a [`FrozenPlan`]: both
/// endpoints are batch positions (stable across passes — task ids are not),
/// plus the shard label the live scan would have produced, so traces stay
/// byte-identical with re-derivation. The dependence *class* is not stored
/// per edge — the per-pass RAW/WAR/WAW contributions are pre-summed into
/// the plan's counters at freeze time.
pub(crate) struct FrozenEdge {
    pub pred: usize,
    pub succ: usize,
    pub shard: usize,
}

/// A replay batch frozen into pre-wired form by [`build_frozen_plan`]: the
/// per-task resolved accesses (pass-invariant — freezing requires a pass
/// with zero renames, tickets or binding substitutions, so every clause
/// resolves to the same plain region every time), the intra-batch edges and
/// dep counts of every *interior* task baked in, and the validation keys
/// that let [`ShardedTracker::register_batch_prewired`] prove, under the
/// gate, that the baked edges are still the edges a live scan would derive.
///
/// A task is **interior** when every one of its accesses lands on a region
/// some earlier in-batch task fully overwrote (`output`/`inout` clears the
/// region's history and installs itself as the sole writer): from that point
/// the region's history is a pure function of the batch prefix, so the
/// task's predecessors — found by shadow-registering the batch against an
/// *empty* history — are its real predecessors on every pass. Every other
/// task is **frontier**: its history scan can see pre-batch state (the
/// previous iteration's tasks still in flight), so it is registered live
/// under the gate each pass. In an iterative workload the frontier is the
/// first write per region — a small fixed fringe of the batch.
pub(crate) struct FrozenPlan {
    /// Resolved accesses per task, cloned into each pass's nodes.
    pub accesses: Vec<AccessVec>,
    /// Sorted, deduplicated union of tracker shards the batch touches.
    pub sids: Vec<usize>,
    /// The region ids the batch uses on each allocation it touches, each
    /// list **sorted** (validation binary-searches it) — pairwise
    /// **disjoint** by construction (chunked partitions qualify, sub-region
    /// mixes do not: an overlapping pair would let one region's pre-batch
    /// history reach an interior task through the other's scan).
    pub allocs: Vec<(AllocId, Vec<RegionId>)>,
    /// Whether each task (by batch position) must be registered live.
    pub frontier: Vec<bool>,
    /// Position after the last frontier task. Tasks before it register
    /// their history live (a later frontier scan may need the prefix);
    /// tasks at and after it — the interior tail — never touch the history
    /// maps per task at all: their net effect is applied by the per-region
    /// bulk [`FrozenInstall`]s below, after each iteration's live prefix.
    pub scan_upto: usize,
    /// Per-region bulk history installs (one per region the batch touches,
    /// when there is anything the live prefix did not already record).
    pub installs: Vec<FrozenInstall>,
    /// Baked intra-batch edges into interior tasks.
    pub edges: Vec<FrozenEdge>,
    /// Baked in-edge count per task (zero for frontier tasks).
    pub baked_in: Vec<usize>,
    /// Baked per-pass counter contributions (interior tasks only).
    pub baked_raw: usize,
    pub baked_war: usize,
    pub baked_waw: usize,
    pub baked_preds: usize,
}

// SAFETY: `FrozenPlan` stops being auto-Send/Sync only because the resolved
// per-task `Access`es carry the raw storage pointer of the version each
// clause bound (see `crate::access::BoundPtr`). Freezing requires a pass
// with zero renames or binding substitutions, so those pointers target the
// sole, address-stable version of each handle, kept alive by the owning
// `GraphTemplate`'s recorded clauses for as long as the plan exists; the
// plan itself is immutable after construction, and the accesses are only
// *cloned* into pass nodes, where `TaskNode`'s own Send/Sync argument
// governs dereferencing. Sharing the plan across threads (templates are
// replayed concurrently) is therefore sound.
unsafe impl Send for FrozenPlan {}
unsafe impl Sync for FrozenPlan {}

impl FrozenPlan {
    /// Number of tasks one pass of the plan stamps.
    pub fn len(&self) -> usize {
        self.frontier.len()
    }
}

/// The net history effect of one batch pass on one region, baked at freeze
/// time so the interior tail can be published in O(regions + final refs)
/// instead of O(accesses) per-task `record_access` calls. Only regions an
/// in-batch `output`/`inout` overwrote get an install (interior tasks touch
/// no other kind — a task on a never-overwritten region is frontier by
/// definition, hence inside the live prefix), and an overwrite rebuilds the
/// region's history from scratch, so every install *replaces* the entry's
/// lists with the batch's final state. Positions index into the iteration's
/// node slice.
pub(crate) struct FrozenInstall {
    /// The region (carries the id; the range seeds a fresh entry).
    pub region: Region,
    /// Live tracker shard of the region's allocation.
    pub shard: usize,
    /// Final writer generation (a single position: the last overwriter).
    pub writers: Vec<usize>,
    /// Readers since the last writer generation, in batch order.
    pub readers: Vec<usize>,
    /// Concurrent accessors since the last plain writer, in batch order.
    pub concurrent: Vec<usize>,
}

/// Try to freeze a replay batch into a [`FrozenPlan`]. `nodes` are the
/// freshly resolved nodes of a pass that performed **zero** renames, version
/// tickets or binding substitutions (the caller checks — that is what makes
/// clause resolution pass-invariant). Returns `None` when the batch cannot
/// be frozen: two *overlapping* regions on one allocation (a sub-region mix
/// would let the live overlap scan reach history through one region that
/// the other's baked edges cannot see). Disjoint region ids on one
/// allocation — the chunks of a partition — freeze fine: no scan of one
/// chunk ever reaches another's history.
///
/// The plan is built by *shadow registration*: the batch runs the very same
/// `collect_preds`/`record_access` passes a live registration runs, against
/// a throwaway empty shard. For interior tasks the shadow history at their
/// position equals the live history (both were rebuilt from scratch by the
/// same in-batch writes), so the shadow edges are the real edges — the
/// classification logic is shared with the live path, not re-implemented.
pub(crate) fn build_frozen_plan(
    nodes: &[Arc<TaskNode>],
    tracker: &ShardedTracker,
) -> Option<FrozenPlan> {
    let n = nodes.len();
    if n == 0 {
        return None;
    }
    let mut shadow = TrackerShard::default();
    // Regions fully overwritten by an earlier in-batch `output`/`inout`, in
    // first-overwrite order (keeps the install list deterministic across
    // freezes), plus the same ids as a set for the per-access lookups.
    let mut cleared: Vec<Region> = Vec::new();
    let mut cleared_ids: HashSet<RegionId, IdBuildHasher> = HashSet::default();
    let mut index_of: HashMap<TaskId, usize, IdBuildHasher> = HashMap::default();
    let mut plan = FrozenPlan {
        accesses: Vec::with_capacity(n),
        sids: Vec::new(),
        allocs: Vec::new(),
        frontier: vec![false; n],
        scan_upto: 0,
        installs: Vec::new(),
        edges: Vec::new(),
        baked_in: vec![0; n],
        baked_raw: 0,
        baked_war: 0,
        baked_waw: 0,
        baked_preds: 0,
    };
    let mut preds = PredSet::default();
    for (i, node) in nodes.iter().enumerate() {
        index_of.insert(node.id, i);
        let is_frontier = node
            .accesses
            .iter()
            .any(|a| !cleared_ids.contains(&a.region.id));
        plan.frontier[i] = is_frontier;
        preds.clear(&None);
        for access in node.accesses.iter() {
            let sid = tracker.shard_of(access.region.id.alloc);
            plan.sids.push(sid);
            // The shard label is the live shard of the access, not the
            // shadow's — traces must match the live scan's labelling.
            shadow.collect_preds(access, sid, &mut preds);
        }
        if !is_frontier {
            for pred in &preds.preds {
                if pred.id == node.id {
                    continue;
                }
                let p = *index_of
                    .get(&pred.id)
                    .expect("shadow history only ever holds in-batch tasks");
                plan.edges.push(FrozenEdge {
                    pred: p,
                    succ: i,
                    shard: pred.shard,
                });
                plan.baked_in[i] += 1;
                match pred.dependence {
                    Dependence::ReadAfterWrite => plan.baked_raw += 1,
                    Dependence::WriteAfterRead => plan.baked_war += 1,
                    Dependence::WriteAfterWrite => plan.baked_waw += 1,
                    Dependence::None => {}
                }
            }
            plan.baked_preds += preds.preds.len();
        }
        for access in node.accesses.iter() {
            // A region id new to the batch must overlap nothing the batch
            // already uses on its allocation (the shadow index holds exactly
            // those), or the plan cannot be frozen.
            if !shadow.entries.contains_key(&access.region.id)
                && shadow.overlaps_any(&access.region)
            {
                return None;
            }
            shadow.record_access(access, node, &None);
            if matches!(access.kind, AccessKind::Output | AccessKind::InOut)
                && cleared_ids.insert(access.region.id)
            {
                cleared.push(access.region.clone());
            }
        }
        plan.accesses.push(node.accesses.clone());
    }
    plan.sids.sort_unstable();
    plan.sids.dedup();
    plan.scan_upto = plan.frontier.iter().rposition(|&f| f).map_or(0, |p| p + 1);
    // The validation keys: every region id the batch recorded, per
    // allocation, sorted.
    plan.allocs = shadow
        .by_alloc
        .iter()
        .map(|(&alloc, index)| {
            let mut ids: Vec<RegionId> = index.region_ids(alloc).collect();
            ids.sort_unstable();
            (alloc, ids)
        })
        .collect();
    plan.allocs.sort_unstable_by_key(|(alloc, _)| *alloc);
    // Bake the batch's net history effect per overwritten region from the
    // shadow's final state.
    let to_positions = |refs: &[HistoryRef]| -> Vec<usize> {
        refs.iter()
            .map(|r| *index_of.get(&r.id()).expect("shadow refs are in-batch"))
            .collect()
    };
    for region in &cleared {
        let entry = shadow
            .entries
            .get(&region.id)
            .expect("an overwritten region has a shadow entry");
        plan.installs.push(FrozenInstall {
            region: region.clone(),
            shard: tracker.shard_of(region.id.alloc),
            writers: to_positions(&entry.writers),
            readers: to_positions(&entry.readers),
            concurrent: to_positions(&entry.concurrent),
        });
    }
    // Never-overwritten regions need no install: every task touching one is
    // frontier, so all their refs land inside the live prefix.
    debug_assert!(shadow.entries.iter().all(|(rid, entry)| {
        cleared_ids.contains(rid) || entry.refs().all(|r| index_of[&r.id()] < plan.scan_upto)
    }));
    Some(plan)
}

/// Wire the baked edges of `plan` into `iterations` consecutive copies of
/// the batch **before** any gate is taken: push each interior successor onto
/// its predecessor's link list, bump its `pending`, and store the baked
/// in-edge counts. Nothing here touches tracker state — the nodes are
/// unpublished (their registration sentinel is still up), so no predecessor
/// can complete out from under the wiring and `add_edge` semantics are
/// preserved exactly.
pub(crate) fn prewire_batch(nodes: &[Arc<TaskNode>], plan: &FrozenPlan, iterations: usize) {
    let per = plan.len();
    debug_assert_eq!(nodes.len(), per * iterations);
    for m in 0..iterations {
        let base = m * per;
        for e in &plan.edges {
            let succ = &nodes[base + e.succ];
            nodes[base + e.pred]
                .links
                .lock()
                .successors
                .push(succ.clone());
            succ.pending.fetch_add(1, Ordering::SeqCst);
        }
        for (t, &baked) in plan.baked_in.iter().enumerate() {
            if !plan.frontier[t] {
                nodes[base + t].in_edges.store(baked, Ordering::Relaxed);
            }
        }
    }
}

/// Undo [`prewire_batch`] after the plan failed live validation: drop the
/// baked successor links and reset every node's registration sentinel so an
/// ordinary [`ShardedTracker::register_batch`] can start from scratch.
pub(crate) fn unwire_batch(nodes: &[Arc<TaskNode>]) {
    for node in nodes {
        node.links.lock().successors.clear();
        node.pending.store(1, Ordering::SeqCst);
        node.in_edges.store(0, Ordering::Relaxed);
    }
}

/// Shard-count-aware diagnostics of the dependence tracker, from
/// [`Runtime::tracker_diagnostics`](crate::Runtime::tracker_diagnostics).
/// Counts *currently tracked* state — after a quiescent `taskwait` (which
/// garbage-collects) everything should read zero; a monotonically growing
/// count across quiescent points is a leak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerDiagnostics {
    /// Regions currently tracked, per shard.
    pub regions_per_shard: Vec<usize>,
    /// Allocations currently indexed in `by_alloc`, per shard.
    pub allocs_per_shard: Vec<usize>,
    /// Registrations that went through the optimistic single-shard fast path
    /// (monotonic; see the module docs).
    pub fast_path_hits: u64,
    /// Registrations that wanted the fast path but fell back to the mutex
    /// path (contention, multi-allocation span, or GC in progress).
    pub fast_path_fallbacks: u64,
    /// Overlap-index spans examined by registrations so far (monotonic; see
    /// [`RuntimeStats::tracker_entries_scanned`](crate::RuntimeStats::tracker_entries_scanned)).
    pub entries_scanned: u64,
}

impl TrackerDiagnostics {
    /// Number of tracker shards.
    pub fn shards(&self) -> usize {
        self.regions_per_shard.len()
    }

    /// Total regions tracked across all shards.
    pub fn total_regions(&self) -> usize {
        self.regions_per_shard.iter().sum()
    }

    /// Total allocations indexed across all shards.
    pub fn total_allocs(&self) -> usize {
        self.allocs_per_shard.iter().sum()
    }
}

/// One shard cell of the tracker: the history data, the two-tier exclusion
/// protecting it, and the inbox of retirements deferred while it was held.
///
/// * `gate` is the seqlock-style sequence counter and the **single point of
///   mutual exclusion**: even = quiescent, odd = some mutator (fast path or
///   mutex path) owns the shard. The optimistic fast path acquires it with
///   one CAS and never blocks (CAS failure → fallback).
/// * `queue` is the blocking tier for the mutex path: it serialises slow
///   acquirers so that, once a thread holds `queue`, the only competitor for
///   the gate is a short fast-path publication — the gate spin is bounded.
/// * `inbox` holds the retirements of workers that found the gate held (see
///   [`ShardedTracker::retire`]); its mutex is only ever held for one push
///   or one buffer swap, never across history work. `inbox_len` mirrors its
///   length so a gate holder can skip the lock when nothing is pending.
///
/// All access to `data` — reads included — happens with the gate held odd.
struct ShardSlot {
    gate: AtomicU64,
    inbox_len: AtomicUsize,
    queue: Mutex<()>,
    inbox: Mutex<Vec<Retirement>>,
    data: UnsafeCell<TrackerShard>,
}

/// Flag bit in the gate word set by a mutex-path acquirer while it waits:
/// fast-path publications refuse while it is set, so the (single — the
/// queue mutex serialises slow acquirers) waiter cannot be starved by a
/// stream of fast publications. The sequence occupies the remaining bits.
const GATE_WAITER: u64 = 1 << 63;

/// How many spins an optimistic registration outwaits a gate holder for
/// before it falls back to the mutex path (see
/// [`ShardSlot::try_acquire_gate_for_registration`]) — the same budget the
/// mutex path itself spins for before it starts yielding.
const REGISTRATION_GATE_SPINS: u32 = 64;

/// Retirements an inbox (and the shard-side buffer it is swapped with) can
/// hold before growing: sized for the completions of one long gate hold, so
/// a warm runtime defers without allocating.
const INBOX_CAPACITY: usize = 64;

// SAFETY: `data` is only ever accessed while the shard's gate is held odd
// (acquired with a SeqCst CAS, released with a SeqCst add), which makes
// every access exclusive; `TrackerShard` itself is `Send` (task nodes are
// `Send + Sync`).
unsafe impl Sync for ShardSlot {}

// lint: hot-path-begin — gate/guard tier: every task registration and
// completion passes through here; no panicking calls allowed (see
// `cargo xtask lint`).
//
// Memory ordering: the gate CASes/adds and the `inbox_len` accesses are all
// SeqCst. A deferring worker *stores* `inbox_len` and then *loads* the gate;
// a gate holder *stores* the gate (release) and then *loads* `inbox_len` —
// the store-then-load pairing needs the single total order so that at least
// one side sees the other (see `ShardedTracker::retire`).
impl ShardSlot {
    fn new() -> Self {
        ShardSlot {
            gate: AtomicU64::new(0),
            inbox_len: AtomicUsize::new(0),
            queue: Mutex::new(()),
            inbox: Mutex::new(Vec::with_capacity(INBOX_CAPACITY)),
            data: UnsafeCell::new(TrackerShard {
                scratch_inbox: Vec::with_capacity(INBOX_CAPACITY),
                ..TrackerShard::default()
            }),
        }
    }

    /// Spin until the gate is acquired. With `queued` the caller holds
    /// `queue`, so it is the shard's only slow acquirer: raising
    /// [`GATE_WAITER`] once makes every new fast-path publication fall back
    /// and the wait is bounded by the one publication already in flight (the
    /// fast path never blocks while holding the gate). Without it — the
    /// batch replay path takes a whole set of gates directly, since
    /// collecting the queue mutex guards would allocate — several waiters
    /// may spin here concurrently, so the flag is re-raised on every failed
    /// iteration: another waiter's acquisition clears it, and the wait must
    /// stay bounded by real mutator work rather than a publication stream.
    fn acquire_gate(&self, queued: bool) {
        let mut seq = self.gate.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER;
        let mut spins = 0u32;
        loop {
            if seq & 1 == 0
                && self
                    .gate
                    .compare_exchange_weak(
                        seq,
                        (seq & !GATE_WAITER) + 1,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return;
            }
            if spins < 64 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
            seq = if queued {
                self.gate.load(Ordering::Relaxed)
            } else {
                self.gate.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER
            };
        }
    }

    /// Try to acquire the gate without blocking. Succeeds only when the gate
    /// is free *and* no mutex-path acquirer is waiting.
    fn try_acquire_gate(&self) -> bool {
        let seq = self.gate.load(Ordering::SeqCst);
        seq & 1 == 0
            && seq & GATE_WAITER == 0
            && self
                .gate
                .compare_exchange(seq, seq + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
    }

    /// [`ShardSlot::try_acquire_gate`] for a registration: outwait a holder
    /// for a bounded number of spins before giving up. The mutex path a
    /// failed attempt falls back to waits for the very same holder (plus a
    /// mutex and the waiter flag), so leaving at the first busy read only
    /// pays off when the holder is slow — a wide registration, a GC sweep —
    /// or a mutex-path acquirer is already waiting (which ends the attempt
    /// at once: it must not be starved). A retirement, a one-region
    /// registration or an inbox drain is gone within the spin budget.
    fn try_acquire_gate_for_registration(&self) -> bool {
        for _ in 0..REGISTRATION_GATE_SPINS {
            if self.try_acquire_gate() {
                return true;
            }
            if self.gate.load(Ordering::Relaxed) & GATE_WAITER != 0 {
                return false;
            }
            std::hint::spin_loop();
        }
        self.try_acquire_gate()
    }
}

/// Exclusive access to one shard: the proof that its gate is held (odd),
/// however it was acquired. Dropping releases the gate (so a panic
/// mid-publication cannot wedge the shard).
struct FastGate<'a> {
    tracker: &'a ShardedTracker,
    sid: usize,
}

impl<'a> FastGate<'a> {
    /// Wrap a gate the caller has *just acquired* and apply the shard's
    /// retire inbox — every acquisition goes through here, which is what
    /// makes "drain before touching history" hold for all of them.
    fn adopt(tracker: &'a ShardedTracker, sid: usize) -> Self {
        let mut gate = FastGate { tracker, sid };
        tracker.drain_inbox(sid, &mut gate);
        gate
    }
}

impl std::ops::Deref for FastGate<'_> {
    type Target = TrackerShard;
    fn deref(&self) -> &TrackerShard {
        // SAFETY: the gate is held odd for the guard's lifetime.
        unsafe { &*self.tracker.shards[self.sid].data.get() }
    }
}

impl std::ops::DerefMut for FastGate<'_> {
    fn deref_mut(&mut self) -> &mut TrackerShard {
        // SAFETY: as above; gate exclusivity makes the access unique.
        unsafe { &mut *self.tracker.shards[self.sid].data.get() }
    }
}

impl Drop for FastGate<'_> {
    fn drop(&mut self) {
        self.tracker.release_gate(self.sid);
    }
}

/// Exclusive access to one shard through the blocking (mutex) tier: holds
/// the queue mutex *and* the gate. Dropping releases the gate (bumping the
/// sequence back to even) before the queue.
struct ShardGuard<'a> {
    gate: FastGate<'a>,
    _queue: MutexGuard<'a, ()>,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = TrackerShard;
    fn deref(&self) -> &TrackerShard {
        &self.gate
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut TrackerShard {
        &mut self.gate
    }
}

/// Exclusive access to a whole *set* of shards for one template-replay
/// batch, through their gates only — no queue mutexes (a `Vec` of mutex
/// guards would allocate on the replay hot path). Gates are acquired in
/// canonical ascending shard order, the same global order `lock_for` uses
/// for its multi-shard guards, so the batch tier cannot deadlock against
/// the mutex tier. Dropping releases every gate (odd → even), panics
/// included.
struct BatchGuard<'a> {
    tracker: &'a ShardedTracker,
    sids: &'a [usize],
}

impl<'a> BatchGuard<'a> {
    /// Acquire the gates of `sids` (which must be sorted ascending and
    /// deduplicated) in order, draining each shard's inbox.
    fn acquire(tracker: &'a ShardedTracker, sids: &'a [usize]) -> Self {
        debug_assert!(
            sids.windows(2).all(|w| w[0] < w[1]),
            "batch shard ids must be sorted and deduplicated"
        );
        for &sid in sids {
            tracker.shards[sid].acquire_gate(false);
            // Drained like every acquisition; the gate stays with the batch
            // guard, whose own `Drop` releases it.
            std::mem::forget(FastGate::adopt(tracker, sid));
        }
        BatchGuard { tracker, sids }
    }
}

impl HeldShards for BatchGuard<'_> {
    /// Takes `&mut self` so the borrow checker serialises access through the
    /// guard; the underlying exclusivity comes from the held gate.
    fn shard_mut(&mut self, sid: usize) -> &mut TrackerShard {
        debug_assert!(self.sids.contains(&sid), "shard {sid} is not held");
        // SAFETY: the gate of every shard in `sids` is held odd for the
        // guard's lifetime, making this access exclusive.
        unsafe { &mut *self.tracker.shards[sid].data.get() }
    }
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        for &sid in self.sids {
            self.tracker.release_gate(sid);
        }
    }
}
// lint: hot-path-end

/// The sharded dependence tracker: routes every allocation to one
/// [`TrackerShard`] and coordinates multi-shard registrations (canonical
/// lock order), the optimistic single-shard fast path, and the completion
/// retire path. See the module docs.
pub(crate) struct ShardedTracker {
    shards: Box<[ShardSlot]>,
    counters: TrackerCounters,
    /// Whether single-shard registrations may take the optimistic gate-CAS
    /// path and retirements may tombstone in place. `false` forces every
    /// registration through the mutex path and every retirement through the
    /// inbox (the equivalence-suite reference configuration).
    fast_path: bool,
    /// Chaos-test hook: when set, individual operations may be forced off
    /// the fast path ([`FaultClass::TrackerFallback`](crate::failpoint::FaultClass)).
    /// `None` in production — a single pointer check on the hot path.
    fault: Option<crate::failpoint::FaultPlan>,
    /// Where the node references history lets go of after their worker did
    /// are parked (see [`release_node`]).
    recycler: Recycler,
}

/// The shard locks one registration holds: the allocation-free singleton
/// case stays on the allocation-free fast path.
enum LockedShards<'a> {
    /// Every access maps to this one shard.
    One(usize, ShardGuard<'a>),
    /// Canonically ordered shard indices with their guards (parallel
    /// vectors); also the empty no-access case.
    Many(Vec<usize>, Vec<ShardGuard<'a>>),
}

/// The held shards one registration works on, addressed by shard index.
trait HeldShards {
    /// The data of shard `sid`, which must be one of the held shards.
    fn shard_mut(&mut self, sid: usize) -> &mut TrackerShard;
}

/// A single held shard.
impl HeldShards for (usize, &mut TrackerShard) {
    fn shard_mut(&mut self, sid: usize) -> &mut TrackerShard {
        debug_assert_eq!(self.0, sid);
        self.1
    }
}

impl HeldShards for LockedShards<'_> {
    fn shard_mut(&mut self, sid: usize) -> &mut TrackerShard {
        match self {
            LockedShards::One(s, guard) => {
                debug_assert_eq!(*s, sid);
                guard
            }
            LockedShards::Many(ids, guards) => {
                let pos = ids
                    .binary_search(&sid)
                    .expect("every access shard was locked");
                &mut guards[pos]
            }
        }
    }
}

/// Counter sums of one or more registrations (the public
/// [`Registration`]/[`BatchRegistration`] minus their edge records).
#[derive(Default)]
struct EdgeTally {
    edges: usize,
    raw: usize,
    war: usize,
    waw: usize,
    preds_seen: usize,
    scanned: u64,
}

impl ShardedTracker {
    pub(crate) fn new(shards: usize, fast_path: bool) -> Self {
        assert!(shards >= 1, "the tracker needs at least one shard");
        ShardedTracker {
            shards: (0..shards).map(|_| ShardSlot::new()).collect(),
            counters: TrackerCounters::new(shards),
            fast_path,
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
    /// [`release_node`]) back to `slab`. Called before the tracker is
    /// shared.
    pub(crate) fn set_recycler(&mut self, slab: Arc<TaskSlab>) {
        self.recycler = Some(slab);
    }

    /// Whether the installed fault plan (if any) forces this operation off
    /// the optimistic fast path.
    fn forced_fallback(&self) -> bool {
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

    // lint: hot-path-begin — gate acquisition/release wrappers and the
    // retirement inbox: every registration and completion passes through
    // here; no panicking calls allowed (see `cargo xtask lint`).

    /// Apply the retirements workers deferred into `sid`'s inbox to `shard`,
    /// that shard's data (see [`FastGate::adopt`]: **every** acquisition
    /// runs this before it reads or writes history). Allocation-free: the
    /// inbox vector and the shard's scratch vector swap roles, both keeping
    /// their capacity.
    fn drain_inbox(&self, sid: usize, shard: &mut TrackerShard) {
        let slot = &self.shards[sid];
        if slot.inbox_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut batch = std::mem::take(&mut shard.scratch_inbox);
        {
            let mut inbox = slot.inbox.lock();
            std::mem::swap(&mut *inbox, &mut batch);
            slot.inbox_len.store(0, Ordering::SeqCst);
        }
        for r in batch.drain(..) {
            // The worker that deferred this usually finished with the node
            // long ago, which makes the history reference the last one.
            if let Some(node) = shard.retire_region(r.rid, r.task, r.kind) {
                release_node(node, &self.recycler);
            }
        }
        shard.scratch_inbox = batch;
    }

    /// Release `sid`'s gate, then look at the inbox once more: a worker that
    /// found the gate held may have deferred a retirement after our
    /// acquisition-time drain. If so, and the gate is still free, take it
    /// back and drain — so a deferred retirement never outlives the gate
    /// hold that displaced it (and never waits for the next registration).
    /// If someone else got the gate first, their acquisition drains.
    fn release_gate(&self, sid: usize) {
        let slot = &self.shards[sid];
        // Odd → even; a concurrently raised GATE_WAITER bit survives.
        slot.gate.fetch_add(1, Ordering::SeqCst);
        while slot.inbox_len.load(Ordering::SeqCst) != 0 && slot.try_acquire_gate() {
            // Released right here, not through `Drop` (which is this
            // function): the loop re-checks instead of recursing.
            std::mem::forget(FastGate::adopt(self, sid));
            slot.gate.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Take `sid`'s gate if it is free right now (see
    /// [`ShardSlot::try_acquire_gate`]); drains the inbox on success.
    fn try_fast_gate(&self, sid: usize) -> Option<FastGate<'_>> {
        self.shards[sid]
            .try_acquire_gate()
            .then(|| FastGate::adopt(self, sid))
    }

    /// Lock one shard through the blocking tier, try-lock-first so contended
    /// acquisitions are counted, then acquire the gate (waiting out at most
    /// one fast-path publication).
    fn lock_shard(&self, shard: usize) -> ShardGuard<'_> {
        self.counters.hit(shard);
        self.lock_shard_uncounted(shard)
    }

    /// As [`ShardedTracker::lock_shard`] but without touching the hit
    /// counter (GC sweeps and diagnostics reads would drown the signal).
    fn lock_shard_uncounted(&self, shard: usize) -> ShardGuard<'_> {
        let slot = &self.shards[shard];
        let queue = match slot.queue.try_lock() {
            Some(guard) => guard,
            None => {
                self.counters.contended();
                slot.queue.lock()
            }
        };
        slot.acquire_gate(true);
        ShardGuard {
            gate: FastGate::adopt(self, shard),
            _queue: queue,
        }
    }

    /// Retire a completed task from the history: every live reference it
    /// still holds in any shard is replaced by a tombstone, releasing the
    /// node. Idempotent per task, and **never blocks**: a shard whose gate
    /// is free right now (one CAS, as for a fast-path registration) is
    /// updated in place; for a shard that is held (or always, when the
    /// optimistic tier is switched off), the retirement goes into that
    /// shard's inbox and whoever holds or next takes the gate applies it. A
    /// worker stalled here would stop executing tasks while the spawner's
    /// next registration finds ever more live predecessors.
    ///
    /// Ordering contract (load-bearing, see the module docs): by the time
    /// this returns, every access is either tombstoned or in an inbox, and
    /// the caller releases the task's version tickets only *afterwards*. A
    /// registration drains the inbox before it scans, so a spawner that saw
    /// a binding count of zero also sees the tombstones.
    pub(crate) fn retire(&self, node: &Arc<TaskNode>) {
        if node.accesses.is_empty() || !node.mark_retired() {
            return;
        }
        // The forced-locked configuration takes no gate optimistically, so
        // its retirements all travel through the inbox (which also makes the
        // equivalence suites' reference run the deferred path throughout);
        // the chaos hook forces the same for single operations.
        let forced = !self.fast_path || self.forced_fallback();
        let mut held: Option<FastGate<'_>> = None;
        for access in node.accesses.iter() {
            let rid = access.region.id;
            let sid = self.shard_of(rid.alloc);
            if held.as_ref().is_none_or(|gate| gate.sid != sid) {
                // Release the previous shard before trying the next one.
                held = None;
                if !forced {
                    held = self.try_fast_gate(sid);
                    if held.is_some() {
                        self.counters.hit(sid);
                    }
                }
            }
            match &mut held {
                // The worker still holds the node, so the reference coming
                // back is never the last one.
                Some(gate) => drop(gate.retire_region(rid, node.id, access.kind)),
                None => self.defer_retirement(
                    sid,
                    Retirement {
                        rid,
                        task: node.id,
                        kind: access.kind,
                    },
                ),
            }
        }
    }

    /// Hand one retirement to `sid`'s inbox, then try the gate once more.
    ///
    /// The second look closes the window in which the holder we collided
    /// with released (and checked the inbox) just before our push: in the
    /// SeqCst order either its post-release `inbox_len` load follows our
    /// store — it drains — or our gate load follows its release — we find
    /// the gate free and drain ourselves, or find a *newer* holder, whose
    /// own release repeats the argument. Either way the entry is applied by
    /// a thread that is still inside a registration or a completion, i.e.
    /// before the runtime can look quiescent.
    fn defer_retirement(&self, sid: usize, retirement: Retirement) {
        let slot = &self.shards[sid];
        {
            let mut inbox = slot.inbox.lock();
            inbox.push(retirement);
            slot.inbox_len.store(inbox.len(), Ordering::SeqCst);
        }
        drop(self.try_fast_gate(sid));
    }
    // lint: hot-path-end

    /// Try to register `node` through the optimistic fast path: all accesses
    /// on one shard, whose gate is free right now. Returns `None` (and
    /// mutates nothing) when the registration must take the mutex path.
    fn try_register_fast(&self, node: &Arc<TaskNode>, record_edges: bool) -> Option<Registration> {
        let mut shards = node.accesses.iter().map(|a| self.shard_of(a.region.id.alloc));
        let sid = shards.next()?;
        if !shards.all(|s| s == sid) {
            return None; // multi-allocation span: canonical-order mutex path
        }
        // Gate held beyond the spin budget (a wide registration, GC) or a
        // mutex-path acquirer waiting → fallback; the guard grants exclusive
        // access and releases on drop, panics included.
        if !self.shards[sid].try_acquire_gate_for_registration() {
            return None;
        }
        let mut gate = FastGate::adopt(self, sid);
        self.counters.hit(sid);
        Some(self.register_single_shard(&mut gate, sid, node, record_edges, true))
    }

    /// Lock every shard the accesses touch, in canonical (ascending index)
    /// order. The dominant case — every access on one allocation, or several
    /// allocations that happen to share a shard — takes exactly one lock and
    /// allocates nothing.
    fn lock_for(&self, accesses: &[Access]) -> LockedShards<'_> {
        let mut shards = accesses.iter().map(|a| self.shard_of(a.region.id.alloc));
        let Some(first) = shards.next() else {
            return LockedShards::Many(Vec::new(), Vec::new());
        };
        if shards.all(|s| s == first) {
            return LockedShards::One(first, self.lock_shard(first));
        }
        let mut ids: Vec<usize> = accesses
            .iter()
            .map(|a| self.shard_of(a.region.id.alloc))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let guards = ids.iter().map(|&s| self.lock_shard(s)).collect();
        LockedShards::Many(ids, guards)
    }

    /// The three registration passes of one node against shards the caller
    /// holds, shared by every tier (optimistic, mutex, multi-shard, batch) so
    /// all of them produce byte-identical edge sets: collect the conflicting
    /// predecessors from every overlapping region entry in
    /// access-declaration order (each remembered with the dependence class
    /// of the first conflict that introduced it), add an edge from every
    /// live one, then record the accesses on the *exact* region entries.
    /// `preds` is the caller's scratch set, returned empty. Adds the node's
    /// counts to `tally` and returns its edge records (empty unless
    /// `record_edges`).
    fn register_node(
        &self,
        node: &Arc<TaskNode>,
        preds: &mut PredSet,
        held: &mut impl HeldShards,
        record_edges: bool,
        tally: &mut EdgeTally,
    ) -> Vec<EdgeRecord> {
        debug_assert!(preds.is_empty());
        for access in node.accesses.iter() {
            let sid = self.shard_of(access.region.id.alloc);
            tally.scanned += held.shard_mut(sid).collect_preds(access, sid, preds);
        }
        let edge_list = add_pred_edges(&preds.preds, node, record_edges, tally);
        for access in node.accesses.iter() {
            let sid = self.shard_of(access.region.id.alloc);
            held
                .shard_mut(sid)
                .record_access(access, node, &self.recycler);
        }
        tally.preds_seen += preds.preds.len();
        preds.clear(&self.recycler);
        edge_list
    }

    /// [`ShardedTracker::register_node`] against a single held shard, using
    /// the shard's scratch set so the steady state allocates nothing. Shared
    /// by the optimistic fast path and the single-shard mutex path (`fast`
    /// records which tier obtained exclusion — the passes are
    /// byte-identical).
    fn register_single_shard(
        &self,
        shard: &mut TrackerShard,
        sid: usize,
        node: &Arc<TaskNode>,
        record_edges: bool,
        fast: bool,
    ) -> Registration {
        let mut preds = std::mem::take(&mut shard.scratch_preds);
        let mut tally = EdgeTally::default();
        let edge_list =
            self.register_node(node, &mut preds, &mut (sid, &mut *shard), record_edges, &mut tally);
        shard.scratch_preds = preds;
        self.counters.scanned(tally.scanned);
        Registration::from_tally(&tally, edge_list, fast)
    }

    /// Register the declared accesses of `node`, adding dependence edges from
    /// every conflicting in-flight task, and updating the per-region history
    /// so that future tasks depend on `node` where required.
    ///
    /// Every shard touched by the accesses is locked in canonical (ascending
    /// index) order and held for the whole registration, making it atomic
    /// with respect to concurrent registrations and retirements on
    /// overlapping allocations. `record_edges` asks for [`EdgeRecord`]s (only
    /// the tracing path wants them).
    pub(crate) fn register(&self, node: &Arc<TaskNode>, record_edges: bool) -> Registration {
        if node.accesses.is_empty() {
            node.in_edges.store(0, Ordering::Relaxed);
            return Registration::from_tally(&EdgeTally::default(), Vec::new(), false);
        }
        if self.fast_path {
            if self.forced_fallback() {
                self.counters.fast_fallback();
            } else {
                match self.try_register_fast(node, record_edges) {
                    Some(registration) => {
                        self.counters.fast_hit();
                        return registration;
                    }
                    None => self.counters.fast_fallback(),
                }
            }
        }
        let mut locked = self.lock_for(&node.accesses);
        // Single shard behind the mutex: exactly the fast-path passes, via
        // the same per-shard scratch set — the mutex tier is allocation-free
        // in steady state too.
        if let LockedShards::One(sid, ref mut guard) = locked {
            return self.register_single_shard(guard, sid, node, record_edges, false);
        }
        // Multi-shard span: run the passes across the canonically locked
        // shards, borrowing the first access's shard scratch set (every
        // involved gate is held, so the scratch is exclusively ours).
        let first = self.shard_of(node.accesses[0].region.id.alloc);
        let mut preds = std::mem::take(&mut locked.shard_mut(first).scratch_preds);
        let mut tally = EdgeTally::default();
        let edge_list =
            self.register_node(node, &mut preds, &mut locked, record_edges, &mut tally);
        locked.shard_mut(first).scratch_preds = preds;
        self.counters.scanned(tally.scanned);
        Registration::from_tally(&tally, edge_list, false)
    }

    /// Register a whole template-replay batch under **one** multi-gate
    /// acquisition: every shard in `sids` (the sorted, deduplicated union of
    /// the shards the batch's accesses touch — computed by the caller so the
    /// buffer can be reused across replays) is gated once, then the three
    /// registration passes run per node in batch order. Because pass 3
    /// (history update) of node *i* runs before pass 1 (predecessor
    /// collection) of node *i+1*, intra-batch dependences fall out of the
    /// ordinary history scan — the edges are re-derived, not copied from the
    /// template, so they stay correct when per-replay renaming resolves
    /// clauses to different versions than the captured iteration did.
    ///
    /// The scratch set of the first involved shard is borrowed for the whole
    /// batch (its gate is held, so it is exclusively ours), keeping a warm
    /// replay allocation-free. Equivalence with per-task registration: the
    /// batch is one legal linearization of the same per-node pass sequence,
    /// and gate exclusion makes it atomic against concurrent registrations
    /// and retirements on the involved shards.
    pub(crate) fn register_batch(
        &self,
        nodes: &[Arc<TaskNode>],
        sids: &[usize],
        record_edges: bool,
    ) -> BatchRegistration {
        if sids.is_empty() {
            // Access-free batch: nothing to track, nothing to gate.
            for node in nodes {
                node.in_edges.store(0, Ordering::Relaxed);
            }
            return BatchRegistration::from_tally(&EdgeTally::default(), Vec::new());
        }
        let mut guard = BatchGuard::acquire(self, sids);
        for &sid in sids {
            self.counters.hit(sid);
        }
        let first = sids[0];
        let mut preds = std::mem::take(&mut guard.shard_mut(first).scratch_preds);
        let mut tally = EdgeTally::default();
        let mut per_task = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let edge_list =
                self.register_node(node, &mut preds, &mut guard, record_edges, &mut tally);
            if record_edges {
                per_task.push((i, edge_list));
            }
        }
        guard.shard_mut(first).scratch_preds = preds;
        self.counters.scanned(tally.scanned);
        BatchRegistration::from_tally(&tally, per_task)
    }

    /// Register `iterations` consecutive copies of a [`FrozenPlan`] batch
    /// whose interior edges were already wired by [`prewire_batch`]: under
    /// one multi-gate acquisition, **validate** the plan against live state,
    /// then stamp each iteration in two steps. The *live prefix* — batch
    /// positions up to the last frontier task — runs the ordinary
    /// scan/record interleave (frontier tasks scan live history; every
    /// prefix task records its accesses, since a later frontier scan may
    /// need them). The *interior tail* after it never touches the history
    /// maps per task: the plan's baked [`FrozenInstall`]s publish the
    /// iteration's net per-region effect in one pass, so the next
    /// iteration's frontier scan picks up this iteration's final writers —
    /// exactly the carried inter-iteration dependence of a fused replay.
    /// Interior tasks' edges and counters come pre-summed from the plan.
    ///
    /// Validation: for each allocation the plan touches, the live overlap
    /// index must hold no region id outside the plan's (pairwise disjoint,
    /// sorted) set — one binary search per indexed region. Any other id — a
    /// sub-region access or a rename minted elsewhere since the freeze —
    /// would be visible to a live overlap scan but not to the baked edges,
    /// so the batch returns `None` (having touched nothing) and the caller
    /// unwires and falls back to [`ShardedTracker::register_batch`].
    pub(crate) fn register_batch_prewired(
        &self,
        nodes: &[Arc<TaskNode>],
        plan: &FrozenPlan,
        iterations: usize,
        record_edges: bool,
    ) -> Option<BatchRegistration> {
        let per = plan.len();
        debug_assert_eq!(nodes.len(), per * iterations);
        let mut tally = EdgeTally {
            edges: plan.edges.len() * iterations,
            raw: plan.baked_raw * iterations,
            war: plan.baked_war * iterations,
            waw: plan.baked_waw * iterations,
            preds_seen: plan.baked_preds * iterations,
            scanned: 0,
        };
        if plan.sids.is_empty() {
            // Access-free batch: nothing to validate, nothing to gate; the
            // pre-wiring already stored every (zero) in-edge count.
            return Some(BatchRegistration::from_tally(&tally, Vec::new()));
        }
        let mut guard = BatchGuard::acquire(self, &plan.sids);
        for (alloc, rids) in &plan.allocs {
            let sid = self.shard_of(*alloc);
            if let Some(index) = guard.shard_mut(sid).by_alloc.get(alloc) {
                if index.spans.len() > rids.len()
                    || index
                        .region_ids(*alloc)
                        .any(|rid| rids.binary_search(&rid).is_err())
                {
                    return None;
                }
            }
        }
        for &sid in &plan.sids {
            self.counters.hit(sid);
        }
        let first = plan.sids[0];
        let mut preds = std::mem::take(&mut guard.shard_mut(first).scratch_preds);
        let mut per_task = Vec::new();
        for m in 0..iterations {
            let base = m * per;
            // Live prefix: up to (and including) the last frontier task,
            // scan and record in batch order — a frontier task's scan may
            // need any earlier prefix task's history entry.
            for t in 0..plan.scan_upto {
                let node = &nodes[base + t];
                if plan.frontier[t] {
                    let edge_list = self.register_node(
                        node,
                        &mut preds,
                        &mut guard,
                        record_edges,
                        &mut tally,
                    );
                    if record_edges {
                        per_task.push((base + t, edge_list));
                    }
                } else {
                    for access in node.accesses.iter() {
                        let sid = self.shard_of(access.region.id.alloc);
                        guard
                            .shard_mut(sid)
                            .record_access(access, node, &self.recycler);
                    }
                }
            }
            // Interior tail: no per-task history work at all — the baked
            // installs publish the iteration's net effect per region, so the
            // next iteration's frontier (and post-batch registrations) see
            // exactly the state a full per-task interleave would have left.
            for inst in &plan.installs {
                guard.shard_mut(inst.shard).apply_install(
                    inst,
                    &nodes[base..base + per],
                    &self.recycler,
                );
            }
        }
        guard.shard_mut(first).scratch_preds = preds;
        self.counters.scanned(tally.scanned);
        Some(BatchRegistration::from_tally(&tally, per_task))
    }

    /// All in-flight tasks that currently access a region overlapping
    /// `region` (used by `taskwait on`). A region lives in exactly one shard.
    pub(crate) fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
        let sid = self.shard_of(region.id.alloc);
        self.lock_shard(sid).tasks_touching(region)
    }

    /// Garbage-collect every shard (one lock at a time): drop tombstones,
    /// completed tasks, emptied entries and their index spans. Called
    /// periodically from the spawn path (cadence:
    /// [`RuntimeConfig::with_tracker_gc_interval`](crate::RuntimeConfig::with_tracker_gc_interval))
    /// and from quiescent `taskwait`s to bound memory on long-running
    /// programs. Bypasses the hit/contention counters: those attribute lock
    /// traffic to the registration, retire and `taskwait on` paths only, and
    /// a sweep touching every shard would drown the signal (uniform hits,
    /// phantom contention). Taking each shard's lock holds its gate odd, so
    /// optimistic registrations on a shard being swept fall back to the
    /// mutex path and queue behind the sweep — and drains the shard's retire
    /// inbox first, like every acquisition.
    pub(crate) fn garbage_collect(&self) {
        for sid in 0..self.shards.len() {
            self.lock_shard_uncounted(sid)
                .garbage_collect(&self.recycler);
        }
    }

    /// Index of the first shard whose sequence gate currently reads odd
    /// (held by some mutator), or `None` when every gate is quiescent. At
    /// runtime quiescence no registration or retirement can be
    /// mid-publication, so a held gate is an invariant violation (see
    /// [`crate::Runtime::audit`]). The waiter flag is advisory and masked
    /// out; only the low sequence bit decides held vs quiescent.
    pub(crate) fn first_held_gate(&self) -> Option<usize> {
        self.shards
            .iter()
            .position(|slot| slot.gate.load(Ordering::Acquire) & 1 == 1)
    }

    /// Current per-shard map sizes plus the monotonic counters. Reading
    /// diagnostics leaves the hit/contention counters untouched (see
    /// [`ShardedTracker::garbage_collect`]); like every acquisition it
    /// applies pending deferred retirements first.
    pub(crate) fn diagnostics(&self) -> TrackerDiagnostics {
        let mut regions = Vec::with_capacity(self.shards.len());
        let mut allocs = Vec::with_capacity(self.shards.len());
        for sid in 0..self.shards.len() {
            let guard = self.lock_shard_uncounted(sid);
            regions.push(guard.entries.len());
            allocs.push(guard.by_alloc.len());
        }
        TrackerDiagnostics {
            regions_per_shard: regions,
            allocs_per_shard: allocs,
            fast_path_hits: self.counters.fast_hits(),
            fast_path_fallbacks: self.counters.fast_fallbacks(),
            entries_scanned: self.counters.entries_scanned(),
        }
    }

    /// Number of regions currently tracked across all shards (diagnostics;
    /// exercised by unit tests).
    #[allow(dead_code)]
    pub(crate) fn tracked_regions(&self) -> usize {
        self.diagnostics().total_regions()
    }

    /// Test support: hold `shard`'s gate (through the blocking tier) until
    /// the returned guard drops, so a test can make completions on that
    /// shard defer their retirements deterministically.
    pub(crate) fn hold_shard(&self, shard: usize) -> ShardHold<'_> {
        ShardHold(self.lock_shard_uncounted(shard))
    }
}

/// A held tracker shard (test support; see
/// [`Runtime::hold_tracker_shard`](crate::Runtime::hold_tracker_shard)).
#[doc(hidden)]
pub struct ShardHold<'a>(ShardGuard<'a>);

impl ShardHold<'_> {
    /// Retirements currently waiting in the held shard's inbox.
    pub fn deferred_retirements(&self) -> usize {
        let gate = &self.0.gate;
        gate.tracker.shards[gate.sid].inbox_len.load(Ordering::SeqCst)
    }
}

// lint: hot-path-begin — edge insertion + completion tier: run once per
// predecessor / per task; no panicking calls allowed (see `cargo xtask lint`).
/// Pass 2 of registration, shared verbatim by every tier (so all produce
/// byte-identical edge sets): add an edge from every live predecessor,
/// classifying it RAW / WAR / WAW into `tally`, and store the node's in-edge
/// count.
fn add_pred_edges(
    preds: &[PredRef],
    node: &Arc<TaskNode>,
    record_edges: bool,
    tally: &mut EdgeTally,
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
                Dependence::ReadAfterWrite => tally.raw += 1,
                Dependence::WriteAfterRead => tally.war += 1,
                Dependence::WriteAfterWrite => tally.waw += 1,
                Dependence::None => {}
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
    tally.edges += edges;
    edge_list
}

/// Add a dependence edge `pred -> succ`. Returns `false` (and adds nothing)
/// if `pred` already completed.
pub(crate) fn add_edge(pred: &Arc<TaskNode>, succ: &Arc<TaskNode>) -> bool {
    let mut links = pred.links.lock();
    if links.completed {
        return false;
    }
    links.successors.push(succ.clone());
    succ.pending.fetch_add(1, Ordering::SeqCst);
    true
}

/// Release the registration sentinel of a freshly registered task. Returns
/// `true` if the task became ready (no unresolved predecessors).
pub(crate) fn finish_registration(node: &Arc<TaskNode>) -> bool {
    let prev = node.pending.fetch_sub(1, Ordering::SeqCst);
    debug_assert!(prev >= 1);
    let ready = prev == 1;
    if ready {
        node.set_state(TaskState::Ready);
    }
    ready
}

/// Mark `node` completed and notify its successors, appending those that
/// became ready onto `ready`. The successor list is drained **in place** —
/// its capacity stays with the node for its next (recycled) life, and the
/// caller's `ready` buffer is reused across completions, so the steady-state
/// wakeup path allocates nothing. Decrementing `pending` under the
/// predecessor's links lock is the same single-lock+atomic pattern
/// [`add_edge`] uses, so no lock ordering is introduced.
pub(crate) fn complete_into(
    node: &Arc<TaskNode>,
    ready: &mut Vec<Arc<TaskNode>>,
    dcheck: Option<&crate::dcheck::DcheckState>,
) {
    node.set_state(TaskState::Completed);
    // Publish completion to the race oracle's snapshot *before* the
    // successor list closes: a registration racing with this completion then
    // either gets a live edge (merged below) or observes `links.completed`
    // and inherits the ordering from the snapshot instead.
    if let Some(d) = dcheck {
        d.mark_completed(node);
    }
    let mut links = node.links.lock();
    links.completed = true;
    for succ in links.successors.drain(..) {
        if let Some(d) = dcheck {
            d.merge_edge(node, &succ);
        }
        let prev = succ.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1);
        if prev == 1 {
            succ.set_state(TaskState::Ready);
            ready.push(succ);
        }
    }
}

/// Mark `node` completed and notify its successors. Returns the successors
/// that became ready as a result. Allocating convenience wrapper around
/// [`complete_into`] for tests and benches; the worker hot path passes its
/// own reusable buffer.
pub(crate) fn complete(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
    let mut ready = Vec::new();
    complete_into(node, &mut ready, None);
    ready
}

/// The poisoning counterpart of [`complete_into`]: mark `node` completed,
/// poison every still-linked successor with `origin`, and release them
/// exactly as a normal completion would. Poisoning under the predecessor's
/// links lock before the `pending` decrement is race-free: a successor
/// cannot become ready (and so cannot start running) until every
/// predecessor has completed, so the poison mark is always visible to the
/// worker that eventually dequeues it. Transitive propagation is inductive —
/// each poisoned node passes the *same* origin to its own successors when it
/// is retired without running (see `worker::retire_without_run`).
pub(crate) fn complete_into_poison(
    node: &Arc<TaskNode>,
    ready: &mut Vec<Arc<TaskNode>>,
    origin: TaskId,
    dcheck: Option<&crate::dcheck::DcheckState>,
) {
    node.set_state(TaskState::Completed);
    // Same snapshot-before-close ordering as `complete_into`: poisoned
    // completions participate in happens-before like any other (their
    // bodies never ran, so they log no accesses — but their successors
    // still inherit the ordering).
    if let Some(d) = dcheck {
        d.mark_completed(node);
    }
    let mut links = node.links.lock();
    links.completed = true;
    for succ in links.successors.drain(..) {
        if let Some(d) = dcheck {
            d.merge_edge(node, &succ);
        }
        succ.poison_with(origin);
        let prev = succ.pending.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1);
        if prev == 1 {
            succ.set_state(TaskState::Ready);
            ready.push(succ);
        }
    }
}
// lint: hot-path-end

/// Benchmark support: drives the tracker's register→complete→retire cycle
/// directly, without workers or scheduling, so the insertion-side cost being
/// compared (optimistic fast path vs forced-locked mutex path) dominates the
/// measurement. Used by `insertion_bench` and the `rename_ablation`
/// fast-path scenario; not part of the public API surface.
#[doc(hidden)]
pub mod bench {
    use super::{complete, finish_registration, ShardedTracker};
    use crate::access::{Access, AccessKind, AccessVec};
    use crate::region::{AllocId, Region};
    use crate::task::{ChildTracker, TaskNode, TaskPriority};
    use std::sync::Arc;

    /// Register, complete and retire `per_spawner` single-`output`-access
    /// tasks per spawner thread (each thread cycling through `cells` private
    /// allocations) against a fresh tracker. Returns operations per second
    /// over the whole storm. This is the tracker's full insertion round
    /// trip: predecessor discovery, history update, readiness release,
    /// completion and retirement.
    pub fn register_retire_rate(
        shards: usize,
        fast_path: bool,
        spawners: usize,
        per_spawner: usize,
        cells: usize,
    ) -> f64 {
        let tracker = ShardedTracker::new(shards, fast_path);
        // Node construction (a handful of allocations per task) is hoisted
        // out of the timed region: it is identical for both configurations
        // and would otherwise dilute the path being compared.
        let batches: Vec<Vec<Arc<TaskNode>>> = (0..spawners)
            .map(|_| {
                let allocs: Vec<AllocId> = (0..cells).map(|_| AllocId::fresh()).collect();
                let parent = ChildTracker::new();
                (0..per_spawner)
                    .map(|i| {
                        let region = Region::new(allocs[i % cells], 0, 0..64);
                        TaskNode::new(
                            None,
                            TaskPriority::default(),
                            AccessVec::one(Access::new(region, AccessKind::Output)),
                            |_| {},
                            parent.clone(),
                            crate::task::INLINE_BODY_BYTES,
                            &mut false,
                        )
                    })
                    .collect()
            })
            .collect();
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for batch in &batches {
                let tracker = &tracker;
                scope.spawn(move || {
                    for node in batch {
                        tracker.register(node, false);
                        finish_registration(node);
                        complete(node);
                        tracker.retire(node);
                    }
                });
            }
        });
        (spawners * per_spawner) as f64 / start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessKind};
    use crate::region::AllocId;
    use crate::task::{ChildTracker, TaskPriority};
    use proptest::prelude::*;

    fn node_with(accesses: Vec<Access>) -> Arc<TaskNode> {
        TaskNode::new(
            None,
            TaskPriority::default(),
            accesses.into_iter().collect(),
            |_ctx| {},
            ChildTracker::new(),
            crate::task::INLINE_BODY_BYTES,
            &mut false,
        )
    }

    fn region(alloc: u64, chunk: u32, range: std::ops::Range<usize>) -> Region {
        Region::new(AllocId(alloc), chunk, range)
    }

    fn acc(alloc: u64, chunk: u32, range: std::ops::Range<usize>, kind: AccessKind) -> Access {
        Access::new(region(alloc, chunk, range), kind)
    }

    fn tracker(shards: usize) -> ShardedTracker {
        ShardedTracker::new(shards, true)
    }

    fn tracker_locked(shards: usize) -> ShardedTracker {
        ShardedTracker::new(shards, false)
    }

    /// Drain a node as if it executed (without a runtime).
    fn finish(node: &Arc<TaskNode>) -> Vec<Arc<TaskNode>> {
        complete(node)
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
        let diag = tr.diagnostics();
        assert_eq!(diag.total_regions(), 6);
        assert_eq!(diag.total_allocs(), 6);
        assert_eq!(diag.shards(), 3);
        for n in &nodes {
            finish(n);
            tr.retire(n);
        }
        // Tombstones keep the maps populated (deterministic counting) …
        assert_eq!(tr.diagnostics().total_regions(), 6);
        tr.garbage_collect();
        // … and GC must empty both maps in every shard.
        let diag = tr.diagnostics();
        assert_eq!(diag.total_regions(), 0, "entries leak after full retire");
        assert_eq!(
            diag.total_allocs(),
            0,
            "by_alloc holds stale region ids after full retire"
        );
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
        let diag = tr.diagnostics();
        assert_eq!((diag.total_regions(), diag.total_allocs()), (0, 0));
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
                    reg.edge_list.iter().map(|e| e.pred).collect::<Vec<_>>(),
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
        // A span over two shards falls back to the mutex path.
        assert_ne!(tr.shard_of(AllocId(1)), tr.shard_of(AllocId(2)));
        let c = node_with(vec![
            acc(1, 0, 0..10, AccessKind::Input),
            acc(2, 0, 0..10, AccessKind::Output),
        ]);
        assert!(!tr.register(&c, false).fast_path);
        finish_registration(&c);
        let diag = tr.diagnostics();
        assert_eq!(diag.fast_path_hits, 2);
        assert_eq!(diag.fast_path_fallbacks, 1);
        // Access-free tasks neither hit nor fall back.
        let free = node_with(vec![]);
        tr.register(&free, false);
        finish_registration(&free);
        let diag = tr.diagnostics();
        assert_eq!((diag.fast_path_hits, diag.fast_path_fallbacks), (2, 1));
    }

    #[test]
    fn forced_locked_tracker_never_takes_the_fast_path() {
        let tr = tracker_locked(4);
        let a = node_with(vec![acc(1, 0, 0..10, AccessKind::Output)]);
        assert!(!tr.register(&a, false).fast_path);
        finish_registration(&a);
        let diag = tr.diagnostics();
        assert_eq!((diag.fast_path_hits, diag.fast_path_fallbacks), (0, 0));
    }

    #[test]
    fn fast_path_falls_back_while_a_shard_is_held() {
        let tr = tracker(2);
        let a = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
        let sid = tr.shard_of(AllocId(2));
        {
            let _guard = tr.lock_shard(sid); // e.g. GC sweeping this shard
            assert!(
                tr.try_register_fast(&a, false).is_none(),
                "the gate is odd: the optimistic path must refuse"
            );
        }
        // Gate released: the fast path works again.
        assert!(tr.register(&a, false).fast_path);
        finish_registration(&a);
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
        let shards: Vec<usize> = reg.edge_list.iter().map(|e| e.shard).collect();
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
        let hits: u64 = tr.counters().hits().iter().sum();
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
            reg.edge_list
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
            let before = tr.diagnostics().entries_scanned;
            let start = c as usize * 48;
            let w = node_with(vec![acc(4, c + 1, start..start + 48, AccessKind::Output)]);
            tr.register(&w, false);
            finish_registration(&w);
            nodes.push(w);
            assert!(
                tr.diagnostics().entries_scanned - before <= 2,
                "a chunk access examines its neighbours only"
            );
        }
        let before = tr.diagnostics().entries_scanned;
        let whole = node_with(vec![acc(4, 0, 0..CHUNKS as usize * 48, AccessKind::Input)]);
        let reg = tr.register(&whole, false);
        finish_registration(&whole);
        assert_eq!(tr.diagnostics().entries_scanned - before, u64::from(CHUNKS));
        assert_eq!(reg.predecessors_seen, CHUNKS as usize);
        assert_eq!(reg.edges, CHUNKS as usize);
        // An empty access examines nothing and conflicts with nothing.
        let before = tr.diagnostics().entries_scanned;
        let empty = node_with(vec![acc(4, 9999, 100..100, AccessKind::Output)]);
        assert_eq!(tr.register(&empty, false).predecessors_seen, 0);
        finish_registration(&empty);
        assert_eq!(tr.diagnostics().entries_scanned, before);
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
        assert_eq!(reg.edge_list[0].pred, spanning.id);
        assert_eq!(reg.edge_list[1].pred, readers[CHUNKS - 1].id);
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
            let slot = &tr.shards[tr.shard_of(a.region.id.alloc)];
            let mut inbox = slot.inbox.lock();
            inbox.push(Retirement {
                rid: a.region.id,
                task: node.id,
                kind: a.kind,
            });
            slot.inbox_len.store(inbox.len(), Ordering::SeqCst);
        };
        let completed_writer = |tr: &ShardedTracker| {
            let w = node_with(vec![acc(2, 0, 0..10, AccessKind::Output)]);
            tr.register(&w, false);
            finish_registration(&w);
            finish(&w);
            w
        };
        // Optimistic registration.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        let r = node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]);
        assert!(tr.register(&r, false).fast_path);
        assert_eq!(Arc::strong_count(&w), 1, "fast gate drained");
        // Mutex registration.
        let tr = tracker_locked(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        tr.register(&node_with(vec![acc(2, 0, 0..10, AccessKind::Input)]), false);
        assert_eq!(Arc::strong_count(&w), 1, "shard lock drained");
        // Batch registration.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        let batch = [node_with(vec![acc(2, 0, 0..10, AccessKind::Input)])];
        tr.register_batch(&batch, &[tr.shard_of(AllocId(2))], false);
        assert_eq!(Arc::strong_count(&w), 1, "batch guard drained");
        // Garbage collection: drains, then drops the tombstone it produced.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        tr.garbage_collect();
        assert_eq!(Arc::strong_count(&w), 1, "GC drained");
        assert_eq!(tr.tracked_regions(), 0);
        // `taskwait on` lookups and diagnostics.
        let tr = tracker(2);
        let w = completed_writer(&tr);
        defer(&tr, &w);
        assert!(tr.tasks_touching(&region(2, 0, 0..10)).is_empty());
        assert_eq!(Arc::strong_count(&w), 1, "lookup drained");
        let w2 = completed_writer(&tr);
        defer(&tr, &w2);
        tr.diagnostics();
        assert_eq!(Arc::strong_count(&w2), 1, "diagnostics drained");
    }

    #[test]
    fn a_drain_parks_released_nodes_in_the_slab() {
        let slab = Arc::new(TaskSlab::new(8, 0, crate::task::INLINE_BODY_BYTES));
        let mut tr = tracker(1);
        tr.set_recycler(slab.clone());
        let w = slab.acquire(
            None,
            None,
            TaskPriority::default(),
            [acc(2, 0, 0..10, AccessKind::Output)].into_iter().collect(),
            Vec::new(),
            |_ctx| {},
            ChildTracker::new(),
            &mut false,
        );
        tr.register(&w, false);
        finish_registration(&w);
        let _ = w.body.lock().take();
        finish(&w);
        let hold = tr.hold_shard(0);
        tr.retire(&w);
        // The worker's own hand-back fails — history still pins the node —
        // and it moves on.
        slab.try_recycle(w, None);
        assert_eq!((slab.diagnostics().free, slab.diagnostics().outstanding), (0, 1));
        drop(hold);
        // The drain dropped the last reference: parked, not freed.
        assert_eq!((slab.diagnostics().free, slab.diagnostics().outstanding), (1, 0));
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
