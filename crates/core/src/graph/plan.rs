//! Pre-wired template replay: freezing a renaming-free batch into a
//! [`FrozenPlan`] (baked interior edges, bulk history installs, validation
//! keys) and registering copies of it under one gate acquisition.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::gate::Held;
use super::history::{History, PredSet};
use super::{IdBuildHasher, Registration, Tracker};
use crate::access::{AccessKind, AccessVec, Dependence};
use crate::region::{AllocId, Region, RegionId};
use crate::stats::{StatCounters, StatField};
use crate::task::{TaskId, TaskNode};

/// One pre-resolved intra-batch dependence edge of a [`FrozenPlan`]: both
/// endpoints are batch positions (stable across passes — task ids are not).
/// The dependence *class* is not stored per edge — the per-pass RAW/WAR/WAW
/// contributions are pre-summed into the plan's counters at freeze time.
pub(crate) struct FrozenEdge {
    pub pred: usize,
    pub succ: usize,
}

/// A replay batch frozen into pre-wired form by [`build_frozen_plan`]: the
/// per-task resolved accesses (pass-invariant — freezing requires a pass
/// with zero renames, tickets or binding substitutions, so every clause
/// resolves to the same plain region every time), the intra-batch edges and
/// dep counts of every *interior* task baked in, and the validation keys
/// that let [`Tracker::register_batch_prewired`] prove, under the
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
    /// bulk [`FrozenInstall`]s below, after the live prefix.
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
/// lists with the batch's final state. Positions index into the pass's
/// node slice.
pub(crate) struct FrozenInstall {
    /// The region (carries the id; the range seeds a fresh entry).
    pub region: Region,
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
/// a throwaway empty history. For interior tasks the shadow history at their
/// position equals the live history (both were rebuilt from scratch by the
/// same in-batch writes), so the shadow edges are the real edges — the
/// classification logic is shared with the live path, not re-implemented.
pub(crate) fn build_frozen_plan(nodes: &[Arc<TaskNode>]) -> Option<FrozenPlan> {
    let n = nodes.len();
    if n == 0 {
        return None;
    }
    let mut shadow = History::default();
    // Regions fully overwritten by an earlier in-batch `output`/`inout`, in
    // first-overwrite order (keeps the install list deterministic across
    // freezes), plus the same ids as a set for the per-access lookups.
    let mut cleared: Vec<Region> = Vec::new();
    let mut cleared_ids: HashSet<RegionId, IdBuildHasher> = HashSet::default();
    let mut index_of: HashMap<TaskId, usize, IdBuildHasher> = HashMap::default();
    let mut plan = FrozenPlan {
        accesses: Vec::with_capacity(n),
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
            shadow.collect_preds(access, &mut preds);
        }
        if !is_frontier {
            for pred in &preds.preds {
                if pred.id == node.id {
                    continue;
                }
                let p = *index_of
                    .get(&pred.id)
                    .expect("shadow history only ever holds in-batch tasks");
                plan.edges.push(FrozenEdge { pred: p, succ: i });
                plan.baked_in[i] += 1;
                match pred.dependence {
                    Dependence::ReadAfterWrite => plan.baked_raw += 1,
                    Dependence::WriteAfterRead => plan.baked_war += 1,
                    Dependence::WriteAfterWrite => plan.baked_waw += 1,
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
    let to_positions = |refs: &[Arc<TaskNode>]| -> Vec<usize> {
        refs.iter()
            .map(|r| *index_of.get(&r.id).expect("shadow refs are in-batch"))
            .collect()
    };
    for region in &cleared {
        let entry = shadow
            .entries
            .get(&region.id)
            .expect("an overwritten region has a shadow entry");
        plan.installs.push(FrozenInstall {
            region: region.clone(),
            writers: to_positions(&entry.writers),
            readers: to_positions(&entry.readers),
            concurrent: to_positions(&entry.concurrent),
        });
    }
    // Never-overwritten regions need no install: every task touching one is
    // frontier, so all their refs land inside the live prefix.
    debug_assert!(shadow.entries.iter().all(|(rid, entry)| {
        cleared_ids.contains(rid) || entry.refs().all(|r| index_of[&r.id] < plan.scan_upto)
    }));
    Some(plan)
}

/// Wire the baked edges of `plan` into one pass of the batch **before** any
/// gate is taken: push each interior successor onto its predecessor's link
/// list, bump its `pending`, and store the baked in-edge counts. Nothing
/// here touches tracker state — the nodes are unpublished (their
/// registration sentinel is still up), so no predecessor can complete out
/// from under the wiring and `add_edge` semantics are preserved exactly.
pub(crate) fn prewire_batch(nodes: &[Arc<TaskNode>], plan: &FrozenPlan) {
    debug_assert_eq!(nodes.len(), plan.len());
    for e in &plan.edges {
        let succ = &nodes[e.succ];
        nodes[e.pred].links.lock().successors.push(succ.clone());
        succ.pending.fetch_add(1, Ordering::SeqCst);
    }
    for (t, &baked) in plan.baked_in.iter().enumerate() {
        if !plan.frontier[t] {
            nodes[t].in_edges.store(baked, Ordering::Relaxed);
        }
    }
}

/// Undo [`prewire_batch`] after the plan failed live validation: drop the
/// baked successor links and reset every node's registration sentinel so an
/// ordinary [`Tracker::register_batch`] can start from scratch.
pub(crate) fn unwire_batch(nodes: &[Arc<TaskNode>]) {
    for node in nodes {
        node.links.lock().successors.clear();
        node.pending.store(1, Ordering::SeqCst);
        node.in_edges.store(0, Ordering::Relaxed);
    }
}

// lint: hot-path-begin — pre-wired registration: every replay of a frozen
// template passes through here; no panicking calls allowed (see
// `cargo xtask lint`).
impl Tracker {
    /// Register one pass of a [`FrozenPlan`] batch whose interior edges were
    /// already wired by [`prewire_batch`]: under one gate acquisition,
    /// **validate** the plan against live state, then stamp
    /// the pass in two steps. The *live prefix* — batch positions up to the
    /// last frontier task — runs the ordinary scan/record interleave
    /// (frontier tasks scan live history; every prefix task records its
    /// accesses, since a later frontier scan may need them). The *interior
    /// tail* after it never touches the history maps per task: the plan's
    /// baked [`FrozenInstall`]s publish the pass's net per-region effect in
    /// one pass, so the next pass's frontier scan picks up this pass's final
    /// writers. Interior tasks' edges and counters come pre-summed from the
    /// plan.
    ///
    /// Validation: for each allocation the plan touches, the live overlap
    /// index must hold no region id outside the plan's (pairwise disjoint,
    /// sorted) set — one binary search per indexed region. Any other id — a
    /// sub-region access or a rename minted elsewhere since the freeze —
    /// would be visible to a live overlap scan but not to the baked edges,
    /// so the batch returns `None` (having touched nothing) and the caller
    /// unwires and falls back to [`Tracker::register_batch`]. A batch
    /// without any access has nothing to validate and takes no gate.
    pub(crate) fn register_batch_prewired(
        &self,
        nodes: &[Arc<TaskNode>],
        plan: &FrozenPlan,
        record_edges: bool,
        stats: &StatCounters,
    ) -> Option<Registration> {
        debug_assert_eq!(nodes.len(), plan.len());
        let mut reg = Registration {
            edges: plan.edges.len(),
            raw_edges: plan.baked_raw,
            war_edges: plan.baked_war,
            waw_edges: plan.baked_waw,
            predecessors_seen: plan.baked_preds,
            ..Registration::default()
        };
        if plan.allocs.is_empty() {
            // Access-free batch: the pre-wiring already stored every (zero)
            // in-edge count.
            return Some(reg);
        }
        let mut held = Held::acquire(self, stats);
        let history = held.history();
        for (alloc, rids) in &plan.allocs {
            if let Some(index) = history.by_alloc.get(alloc) {
                if index.spans.len() > rids.len()
                    || index
                        .region_ids(*alloc)
                        .any(|rid| rids.binary_search(&rid).is_err())
                {
                    return None;
                }
            }
        }
        let mut preds = std::mem::take(&mut history.scratch_preds);
        // Live prefix: up to (and including) the last frontier task, scan
        // and record in batch order — a frontier task's scan may need any
        // earlier prefix task's history entry.
        for (t, node) in nodes[..plan.scan_upto].iter().enumerate() {
            if plan.frontier[t] {
                self.register_node(node, t, &mut preds, history, record_edges, &mut reg);
            } else {
                for access in node.accesses.iter() {
                    history.record_access(access, node, &self.recycler);
                }
            }
        }
        // Interior tail: no per-task history work at all — the baked
        // installs publish the pass's net effect per region, so the next
        // pass's frontier (and later registrations) see exactly the state a
        // full per-task interleave would have left.
        for inst in &plan.installs {
            history.apply_install(inst, nodes, &self.recycler);
        }
        history.scratch_preds = preds;
        stats.add(StatField::TrackerEntriesScanned, reg.scanned);
        Some(reg)
    }
}
// lint: hot-path-end
