//! One shard's dependence history: per-region reader/writer lists, the
//! predecessor set a registration collects from them, and the passes that
//! read and update them. Everything here expects the caller to hold the
//! shard's gate (see [`super::gate`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::index::AllocIndex;
use super::plan::FrozenInstall;
use super::IdBuildHasher;
use crate::access::{Access, AccessKind, Dependence};
use crate::region::{AllocId, Region, RegionId};
use crate::task::{TaskId, TaskNode, TaskSlab};

/// One in-flight (or retired) access recorded in a region's history.
pub(super) enum HistoryRef {
    /// The task is still live: edges can be added to it and `taskwait on`
    /// must wait for it.
    Live(Arc<TaskNode>),
    /// The task completed and was retired: only its identity is kept, so
    /// that `predecessors_seen` stays deterministic until the next garbage
    /// collection (see [`Registration::predecessors_seen`](super::Registration::predecessors_seen)).
    Retired(TaskId),
}

impl HistoryRef {
    pub(super) fn id(&self) -> TaskId {
        match self {
            HistoryRef::Live(t) => t.id,
            HistoryRef::Retired(id) => *id,
        }
    }

    pub(super) fn live(&self) -> Option<&Arc<TaskNode>> {
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
pub(super) type Recycler = Option<Arc<TaskSlab>>;

/// Let go of a node reference the tracker held — in history, or borrowed
/// from it as a predecessor. A task still running is referenced by its
/// worker too, which hands the node back to the slab itself. A *completed*
/// task's worker may already have let go — its retirement was deferred and
/// is applied only now, or arrived during the very registration or sweep
/// that is dropping this reference — and then this is the node's last
/// reference: it is parked in the slab, not freed, so deferral costs the
/// recycler nothing.
pub(super) fn release_node(node: Arc<TaskNode>, recycler: &Recycler) {
    if let Some(slab) = recycler {
        if node.is_completed() {
            slab.try_recycle(node);
        }
    }
}

/// Per-region bookkeeping of in-flight accesses. The byte range the region
/// id stands for lives in the allocation's [`AllocIndex`], not here.
#[derive(Default)]
pub(super) struct RegionEntry {
    /// Tasks forming the last "writer generation".
    pub(super) writers: Vec<HistoryRef>,
    /// Tasks that have read the region since the last writer generation.
    pub(super) readers: Vec<HistoryRef>,
    /// Tasks with `concurrent` access since the last plain writer.
    pub(super) concurrent: Vec<HistoryRef>,
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

    pub(super) fn refs(&self) -> impl Iterator<Item = &HistoryRef> {
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

// lint: hot-path-begin — predecessor dedupe + per-shard history passes: every
// access of every registration runs through here; no panicking calls allowed
// (see `cargo xtask lint`).

/// A predecessor discovered during registration: its identity, the live node
/// (when an edge can still be added), the dependence class of the first
/// conflict that introduced it, and the shard it was found in.
pub(super) struct PredRef {
    pub(super) id: TaskId,
    pub(super) live: Option<Arc<TaskNode>>,
    pub(super) dependence: Dependence,
    pub(super) shard: usize,
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
pub(super) struct PredSet {
    pub(super) preds: Vec<PredRef>,
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

    pub(super) fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Empty the set. The node references it borrowed from history go
    /// through [`release_node`]: a predecessor that completed *and*
    /// was dropped by both its worker and history while the registration
    /// held this clone must not be freed by it.
    pub(super) fn clear(&mut self, recycler: &Recycler) {
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
pub(super) struct Retirement {
    pub(super) rid: RegionId,
    pub(super) task: TaskId,
    pub(super) kind: AccessKind,
}

/// One shard of the dependence tracker: the region history and per-allocation
/// index for every allocation routed to it. All methods expect the caller
/// (the [`ShardedTracker`](super::ShardedTracker) router) to hold this shard's
/// gate.
#[derive(Default)]
pub(super) struct TrackerShard {
    pub(super) entries: HashMap<RegionId, RegionEntry, IdBuildHasher>,
    /// The overlap index of every allocation with tracked regions. A region
    /// id is indexed exactly while it has an entry in `entries`.
    pub(super) by_alloc: HashMap<AllocId, AllocIndex, IdBuildHasher>,
    /// Scratch predecessor set reused by every registration whose first
    /// shard this is, so the steady-state registration allocates nothing.
    /// Only ever touched while the shard's gate is held (exclusive access),
    /// and always left empty.
    pub(super) scratch_preds: PredSet,
    /// The buffer an inbox drain swaps the pending retirements into (see
    /// [`super::gate`]); always left empty.
    pub(super) scratch_inbox: Vec<Retirement>,
}

impl TrackerShard {
    /// Pass 1 of registration: collect the predecessors `access` conflicts
    /// with from this shard's history into `preds`. Overlapping entries are
    /// visited in index order (see [`AllocIndex`]). Returns the number of
    /// index spans examined.
    pub(super) fn collect_preds(&self, access: &Access, shard: usize, preds: &mut PredSet) -> u64 {
        let alloc = access.region.id.alloc;
        let Some(index) = self.by_alloc.get(&alloc) else {
            return 0;
        };
        let later = access.kind;
        // Statistics classification. A read-modify-write counts as a
        // read: an `inout` (or `concurrent`) after a writer *reads* the
        // written data, so the edge carries a genuine data flow and is
        // counted RAW — it is not serialisation that renaming could
        // remove. WAR and WAW are reserved for edges where the successor
        // overwrites without reading (the renameable false dependences).
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
    pub(super) fn entry_mut(&mut self, region: &Region) -> &mut RegionEntry {
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
    pub(super) fn record_access(&mut self, access: &Access, node: &Arc<TaskNode>, recycler: &Recycler) {
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
    pub(super) fn apply_install(
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
    pub(super) fn retire_region(
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
    pub(super) fn overlaps_any(&self, region: &Region) -> bool {
        let mut any = false;
        if let Some(index) = self.by_alloc.get(&region.id.alloc) {
            index.for_each_overlap(&region.bytes, |_| any = true);
        }
        any
    }

    /// All in-flight tasks in this shard currently accessing a region
    /// overlapping `region` (used by `taskwait on`).
    pub(super) fn tasks_touching(&self, region: &Region) -> Vec<Arc<TaskNode>> {
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
    pub(super) fn garbage_collect(&mut self, recycler: &Recycler) {
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
