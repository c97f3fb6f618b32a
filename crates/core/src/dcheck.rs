//! `dcheck`: an independent correctness-analysis layer for the runtime —
//! a vector-clock race oracle plus a drain-time invariant auditor.
//!
//! # The race oracle
//!
//! Under [`RuntimeConfig::with_dcheck`](crate::RuntimeConfig::with_dcheck)
//! every spawned task carries a *vector clock*, represented as a dense
//! happens-before bitset over the tasks of the current epoch (the window
//! since the last quiescent `taskwait`/`barrier`). The clock is built from
//! exactly two sources, both independent of the dependence tracker's own
//! edge bookkeeping:
//!
//! * **Edge merges at completion.** When a predecessor completes,
//!   [`graph::complete_into`](crate::graph) folds the predecessor's clock —
//!   plus its own bit — into every still-linked successor. A task's clock is
//!   final by the time it becomes ready, because a task cannot start until
//!   every predecessor has completed.
//! * **The completed snapshot at registration.** Immediately after a task
//!   registers with the tracker (single spawn or replay batch alike), the
//!   global set of already-completed tasks is OR-ed into its clock. This is
//!   what orders a fresh task after predecessors that completed — and were
//!   possibly tombstoned and garbage-collected — before the task ever
//!   existed: completion is published to the snapshot *before* the
//!   predecessor reads as completed or its successor list closes, so any
//!   edge the tracker declined to add (`add_edge` on a completed node) or
//!   never looked for (a GC sweep dropped the completed predecessor from
//!   history) is covered by the snapshot instead. The snapshot is transitively closed by construction: a task
//!   only completes after everything that happened before it completed.
//!
//! Meanwhile every **bind-time-resolved region access** a task body performs
//! (`ctx.read`/`ctx.write`/chunk and whole-array guards) appends one record
//! to a per-worker shadow log: the bound version's region — renamed versions
//! carry fresh allocation ids, so "same version" falls out of the region
//! identity — the access direction, and whether the declared access was
//! `concurrent`. At a quiescent `taskwait`/`barrier` the checker verifies
//! that every conflicting pair of records (W-W, W-R, R-W on overlapping
//! byte ranges of the same allocation, not both `concurrent`) is ordered by
//! the happens-before relation above, reporting a [`RaceReport`] for every
//! pair that is not. This catches both missed tracker edges (the clock never
//! learned an ordering the data required) and bodies touching versions in
//! ways their declared accesses do not order.
//!
//! # Interaction with replay batches and poison
//!
//! Replay-stamped tasks flow through the same two clock sources: batch
//! registration assigns indices in stamp order before the batch gate, and
//! the completed snapshot is merged per node after `register_batch` /
//! `register_batch_prewired` returns — pre-wired edges need no special
//! handling because clocks merge at *completion* time along the live
//! successor lists, which pre-wiring populates like any other edge. Poisoned
//! and cancelled tasks complete through the same
//! [`graph::complete_into`](crate::graph) (with a poison origin), which
//! performs the same clock merges — a task retired without running logs no accesses, so poison can
//! suppress log records but never invents an unordered pair.
//!
//! After each check the epoch resets: quiescence orders everything before
//! the barrier ahead of everything after it, so clocks, logs and the
//! completed snapshot all restart empty — keeping the oracle's memory
//! proportional to one epoch, not the whole run.
//!
//! # The invariant auditor
//!
//! [`Runtime::audit`](crate::Runtime::audit) unifies the drain-time
//! identities that were previously asserted piecemeal across the test
//! suites: the task ledger (`executed + poisoned + cancelled == spawned`),
//! every tracker shard gate even at quiescence, tombstones and by-alloc
//! maps scrubbed after GC, slab `outstanding == 0`, and version-ticket
//! bind/release balance. Under dcheck the audit runs automatically at every
//! quiescent `taskwait`/`barrier`; the service layer's stall watchdog calls
//! it on stuck runtimes to separate ledger corruption from genuine
//! slowness (a non-quiescent audit checks the one direction that must hold
//! mid-run: the completion ledger never overtakes the spawn counter).
//!
//! When dcheck is off the runtime carries a single `Option` check per hook
//! site and no allocations — the steady-state spawn path stays
//! allocation-free (`tests/spawn_alloc.rs`).

use std::ops::Range;
use std::sync::atomic::Ordering;

use parking_lot::Mutex;

use crate::region::Region;
use crate::task::{TaskId, TaskNode};

/// Sentinel for "not registered with the oracle" (dcheck off, or a node
/// recycled since its last registration).
pub(crate) const NO_INDEX: u64 = u64::MAX;

/// One bind-time access performed by a task body, recorded in a per-worker
/// shadow log.
#[derive(Debug, Clone)]
struct AccessRecord {
    /// Dense per-epoch index of the performing task.
    index: u64,
    /// Public id of the performing task (for reporting).
    task: TaskId,
    /// Allocation of the bound version (fresh per renamed version, so this
    /// also identifies the version).
    alloc: u64,
    /// Byte range touched within the allocation.
    bytes: Range<usize>,
    /// Whether the guard was a write.
    write: bool,
    /// Whether the declared access was `concurrent` (unordered by design).
    concurrent: bool,
}

/// A happens-before bitset: bit `i` set means epoch-task `i` is ordered
/// before the owner.
type Clock = Vec<u64>;

fn set_bit(clock: &mut Clock, bit: u64) {
    let word = (bit / 64) as usize;
    if clock.len() <= word {
        clock.resize(word + 1, 0);
    }
    clock[word] |= 1 << (bit % 64);
}

fn has_bit(clock: &Clock, bit: u64) -> bool {
    let word = (bit / 64) as usize;
    clock.get(word).is_some_and(|w| w & (1 << (bit % 64)) != 0)
}

fn or_into(dst: &mut Clock, src: &Clock) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d |= *s;
    }
}

fn clear_bit(clock: &mut Clock, bit: u64) {
    let word = (bit / 64) as usize;
    if let Some(w) = clock.get_mut(word) {
        *w &= !(1 << (bit % 64));
    }
}

/// Per-epoch clock table. All clock state lives centrally (indexed by the
/// dense per-epoch task index) so task nodes only carry one `AtomicU64` and
/// recycling stays trivial.
#[derive(Default)]
struct ClockTable {
    /// Index of the first task of the current epoch; indices below this are
    /// from before the last quiescent check and are ordered before
    /// everything current, so operations on them are no-ops.
    epoch_base: u64,
    /// Next dense index to assign.
    next: u64,
    /// Happens-before set per epoch task (`clocks[i - epoch_base]`), bits
    /// relative to `epoch_base`.
    clocks: Vec<Clock>,
    /// Bits of epoch tasks whose completion has been published. OR-ing this
    /// into a freshly registered task's clock is sound and transitively
    /// closed: a task completes only after everything ordered before it has.
    completed: Clock,
}

impl ClockTable {
    fn slot(&self, index: u64) -> Option<usize> {
        if index == NO_INDEX || index < self.epoch_base {
            return None;
        }
        let slot = (index - self.epoch_base) as usize;
        (slot < self.clocks.len()).then_some(slot)
    }
}

/// A conflicting, happens-before-unordered pair of accesses found by the
/// race oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The task registered first (lower epoch index).
    pub first: TaskId,
    /// Whether the first task's conflicting access was a write.
    pub first_write: bool,
    /// The task registered second.
    pub second: TaskId,
    /// Whether the second task's conflicting access was a write.
    pub second_write: bool,
    /// Raw allocation id of the contested version.
    pub alloc: u64,
    /// Overlapping byte range of the two accesses.
    pub bytes: Range<usize>,
}

impl RaceReport {
    /// The conflict shape: `"W-W"`, `"W-R"` or `"R-W"` in registration
    /// order.
    pub fn kind(&self) -> &'static str {
        match (self.first_write, self.second_write) {
            (true, true) => "W-W",
            (true, false) => "W-R",
            (false, true) => "R-W",
            (false, false) => "R-R",
        }
    }
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} race on alloc {} bytes {}..{}: task {:?} and task {:?} are not ordered by happens-before",
            self.kind(),
            self.alloc,
            self.bytes.start,
            self.bytes.end,
            self.first,
            self.second,
        )
    }
}

/// Snapshot of the audited runtime counters (see
/// [`Runtime::audit`](crate::Runtime::audit)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Whether the runtime was quiescent (`in_flight == 0`) when audited —
    /// only then are the full drain-time identities checkable.
    pub quiescent: bool,
    /// Tasks spawned (fresh and replay-stamped).
    pub spawned: u64,
    /// Tasks that ran their bodies.
    pub executed: u64,
    /// Tasks retired without running due to upstream poison.
    pub poisoned: u64,
    /// Tasks retired without running due to cancellation.
    pub cancelled: u64,
    /// Tasks in flight at audit time.
    pub in_flight: u64,
    /// Regions still tracked after a quiescent GC sweep (0 expected).
    pub tracked_regions: usize,
    /// Allocations still tracked after a quiescent GC sweep (0 expected).
    pub tracked_allocs: usize,
    /// Task nodes checked out of the slab (0 expected at quiescence).
    pub slab_outstanding: usize,
    /// Version tickets bound to spawned tasks so far.
    pub ticket_refs_bound: u64,
    /// Version tickets released by retired tasks so far.
    pub ticket_refs_released: u64,
}

/// A broken drain-time identity found by [`Runtime::audit`](crate::Runtime::audit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditViolation {
    /// `executed + poisoned + cancelled` disagrees with `spawned` (at
    /// quiescence: not equal; mid-run: the completion ledger overtook the
    /// spawn counter).
    LedgerMismatch {
        /// Tasks spawned.
        spawned: u64,
        /// Tasks that ran their bodies.
        executed: u64,
        /// Tasks retired poisoned.
        poisoned: u64,
        /// Tasks retired cancelled.
        cancelled: u64,
        /// Tasks in flight at audit time.
        in_flight: u64,
    },
    /// A tracker shard's sequence gate read odd at quiescence — some
    /// registration or retirement never released it.
    GateHeld {
        /// Index of the held shard.
        shard: usize,
    },
    /// The tracker still holds region or allocation history after a
    /// quiescent GC sweep (tombstones or by-alloc entries leaked).
    TrackerResidue {
        /// Regions still tracked.
        regions: usize,
        /// Allocations still tracked.
        allocs: usize,
    },
    /// Task nodes still checked out of the slab at quiescence (a node
    /// leak: some retirement path dropped the accounting token).
    SlabLeak {
        /// Nodes outstanding.
        outstanding: usize,
    },
    /// Version tickets bound at spawn were not all released at retirement.
    TicketImbalance {
        /// Tickets bound to spawned tasks.
        bound: u64,
        /// Tickets released by retired tasks.
        released: u64,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The `Debug` form (variant + named fields) is already the most
        // useful rendering for logs and error messages.
        write!(f, "audit violation: {self:?}")
    }
}

/// Shared state of the race oracle + auditor for one runtime. Present only
/// when [`RuntimeConfig::with_dcheck`](crate::RuntimeConfig::with_dcheck)
/// was set; every hook in the spawn/complete/bind paths is a single
/// `Option` check when absent.
pub(crate) struct DcheckState {
    table: Mutex<ClockTable>,
    /// Per-worker shadow logs (slot `workers` catches bindings performed
    /// outside a worker thread, e.g. a main-thread `taskwait` helper).
    logs: Box<[Mutex<Vec<AccessRecord>>]>,
    reports: Mutex<Vec<RaceReport>>,
    audits: Mutex<Vec<AuditViolation>>,
    /// Test-only mutation hook: a `(pred, succ)` epoch-index pair whose
    /// completion-time clock merge (and snapshot bit) is suppressed,
    /// simulating a missed tracker edge so tests can prove the oracle
    /// actually detects one (see `tests/dcheck_oracle.rs`).
    suppress: Mutex<Option<(u64, u64)>>,
}

impl DcheckState {
    pub(crate) fn new(workers: usize) -> Self {
        DcheckState {
            table: Mutex::new(ClockTable::default()),
            logs: (0..=workers).map(|_| Mutex::new(Vec::new())).collect(),
            reports: Mutex::new(Vec::new()),
            audits: Mutex::new(Vec::new()),
            suppress: Mutex::new(None),
        }
    }

    /// Assign the next dense epoch index to `node`. Must run before the
    /// node's tracker registration, so no edge or completion can reference
    /// an unassigned task.
    pub(crate) fn register_task(&self, node: &TaskNode) {
        let mut t = self.table.lock();
        let index = t.next;
        t.next += 1;
        t.clocks.push(Clock::new());
        node.dcheck_index.store(index, Ordering::Relaxed);
    }

    /// Fold the completed-task snapshot into `node`'s clock. Must run after
    /// the node's tracker registration returned: any predecessor the
    /// tracker saw as already completed published its completion bit before
    /// closing its successor list, so the snapshot covers exactly the edges
    /// `add_edge` declined.
    pub(crate) fn merge_completed_snapshot(&self, node: &TaskNode) {
        let index = node.dcheck_index.load(Ordering::Relaxed);
        // Lock order: `suppress` strictly before `table` (as in
        // `merge_edge`).
        let suppress = *self.suppress.lock();
        let mut t = self.table.lock();
        let Some(slot) = t.slot(index) else { return };
        let completed = std::mem::take(&mut t.completed);
        or_into(&mut t.clocks[slot], &completed);
        t.completed = completed;
        if let Some((pred, succ)) = suppress {
            if succ == index && pred >= t.epoch_base {
                let bit = pred - t.epoch_base;
                clear_bit(&mut t.clocks[slot], bit);
            }
        }
    }

    /// Publish `node`'s completion to the snapshot. Must run before the
    /// node reads as completed — its `Completed` state, on which a tracker
    /// GC sweep drops it from history, and its closed successor list
    /// (`links.completed = true`) — so a registration that races with this
    /// completion either gets the edge or sees the snapshot bit.
    pub(crate) fn mark_completed(&self, node: &TaskNode) {
        let index = node.dcheck_index.load(Ordering::Relaxed);
        let mut t = self.table.lock();
        if index == NO_INDEX || index < t.epoch_base {
            return;
        }
        let bit = index - t.epoch_base;
        set_bit(&mut t.completed, bit);
    }

    /// Merge `pred`'s clock (plus its own bit) into `succ` — called at
    /// `pred`'s completion for every still-linked successor.
    pub(crate) fn merge_edge(&self, pred: &TaskNode, succ: &TaskNode) {
        let p = pred.dcheck_index.load(Ordering::Relaxed);
        let s = succ.dcheck_index.load(Ordering::Relaxed);
        if *self.suppress.lock() == Some((p, s)) {
            return;
        }
        let mut t = self.table.lock();
        let (Some(ps), Some(ss)) = (t.slot(p), t.slot(s)) else {
            return;
        };
        if ps == ss {
            return;
        }
        let pred_bit = p - t.epoch_base;
        let pred_clock = std::mem::take(&mut t.clocks[ps]);
        or_into(&mut t.clocks[ss], &pred_clock);
        t.clocks[ps] = pred_clock;
        set_bit(&mut t.clocks[ss], pred_bit);
    }

    /// Append one bind-time access to the calling worker's shadow log.
    pub(crate) fn log_access(
        &self,
        worker: Option<usize>,
        node: &TaskNode,
        region: &Region,
        write: bool,
        concurrent: bool,
    ) {
        let index = node.dcheck_index.load(Ordering::Relaxed);
        if index == NO_INDEX || region.is_empty() {
            return;
        }
        let last = self.logs.len() - 1;
        let slot = worker.map_or(last, |w| w.min(last));
        self.logs[slot].lock().push(AccessRecord {
            index,
            task: node.id,
            alloc: region.id.alloc.raw(),
            bytes: region.bytes.clone(),
            write,
            concurrent,
        });
    }

    /// Run the happens-before check over the epoch's shadow logs, append any
    /// races found to the report list, and reset the epoch. Call only at
    /// quiescence (every logged task completed).
    pub(crate) fn run_check(&self) {
        let mut records: Vec<AccessRecord> = Vec::new();
        for log in self.logs.iter() {
            records.append(&mut log.lock());
        }
        let mut t = self.table.lock();
        // Group by allocation so the pairwise scan only compares records
        // that can conflict at all.
        records.sort_by(|a, b| {
            (a.alloc, a.index, a.bytes.start).cmp(&(b.alloc, b.index, b.bytes.start))
        });
        records.dedup_by(|a, b| {
            a.alloc == b.alloc
                && a.index == b.index
                && a.bytes == b.bytes
                && a.write == b.write
                && a.concurrent == b.concurrent
        });
        let mut reports = self.reports.lock();
        let mut seen_pairs: Vec<(u64, u64, u64)> = Vec::new();
        let mut start = 0;
        while start < records.len() {
            let alloc = records[start].alloc;
            let mut end = start;
            while end < records.len() && records[end].alloc == alloc {
                end += 1;
            }
            let group = &records[start..end];
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let (a, b) = (&group[i], &group[j]);
                    if a.index == b.index
                        || (!a.write && !b.write)
                        || (a.concurrent && b.concurrent)
                    {
                        continue;
                    }
                    let overlap =
                        a.bytes.start.max(b.bytes.start)..a.bytes.end.min(b.bytes.end);
                    if overlap.start >= overlap.end {
                        continue;
                    }
                    let ordered = match (t.slot(a.index), t.slot(b.index)) {
                        (Some(sa), Some(sb)) => {
                            has_bit(&t.clocks[sb], a.index - t.epoch_base)
                                || has_bit(&t.clocks[sa], b.index - t.epoch_base)
                        }
                        // A record from before the epoch base is ordered
                        // before everything current by the barrier itself.
                        _ => true,
                    };
                    if ordered {
                        continue;
                    }
                    let key = (a.index.min(b.index), a.index.max(b.index), alloc);
                    if seen_pairs.contains(&key) {
                        continue;
                    }
                    seen_pairs.push(key);
                    reports.push(RaceReport {
                        first: a.task,
                        first_write: a.write,
                        second: b.task,
                        second_write: b.write,
                        alloc,
                        bytes: overlap,
                    });
                }
            }
            start = end;
        }
        // Epoch reset: quiescence orders everything before this check ahead
        // of everything after it, so the oracle's memory restarts empty.
        t.epoch_base = t.next;
        t.clocks.clear();
        t.completed.clear();
    }

    /// Drain the accumulated race reports.
    pub(crate) fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports.lock())
    }

    /// Record an audit violation found by the automatic quiescent audit.
    pub(crate) fn note_audit(&self, violation: AuditViolation) {
        self.audits.lock().push(violation);
    }

    /// Drain the audit violations recorded by the automatic quiescent audit.
    pub(crate) fn take_audit_violations(&self) -> Vec<AuditViolation> {
        std::mem::take(&mut self.audits.lock())
    }

    /// Test-only: suppress the clock merge of the `(pred, succ)` epoch-index
    /// pair, simulating a missed tracker edge.
    pub(crate) fn suppress_edge(&self, pred: u64, succ: u64) {
        *self.suppress.lock() = Some((pred, succ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_ops() {
        let mut c = Clock::new();
        assert!(!has_bit(&c, 0));
        set_bit(&mut c, 0);
        set_bit(&mut c, 70);
        assert!(has_bit(&c, 0) && has_bit(&c, 70) && !has_bit(&c, 69));
        clear_bit(&mut c, 70);
        assert!(!has_bit(&c, 70));
        let mut d = Clock::new();
        set_bit(&mut d, 3);
        or_into(&mut d, &c);
        assert!(has_bit(&d, 0) && has_bit(&d, 3));
    }
}
