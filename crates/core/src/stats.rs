//! Aggregated runtime statistics.
//!
//! Every monotone event count the runtime keeps — spawns and retirements,
//! edges, scheduler pops and wakeups, tracker gate traffic, renames and the
//! version-ticket ledger — is one `StatField` of one `StatCounters`, owned
//! by the runtime and lent by reference to the layer that counts (the
//! scheduler's `push`/`pop`, the tracker's registrations and gate waits, the
//! rename context of clause resolution). [`Runtime::stats`](crate::Runtime::stats)
//! and [`Runtime::audit`](crate::Runtime::audit) read every tally from there.
//!
//! Two counts live elsewhere, each because it is part of the state it
//! counts rather than a tally beside it:
//!
//! * the task-node slab's acquisition, park and discard counts derive its
//!   `outstanding` gauge: a park is counted under the free-list lock it
//!   takes anyway, and the slab reads the three together;
//! * the rename pool's held bytes are the rename budget itself: a
//!   reservation is a compare-exchange against the cap, so the count must
//!   be the number the cap is checked against.
//!
//! The tracker's gate counts say how a registration took the gate (see
//! [`crate::graph`]): `tracker_fast_path_hits` + `tracker_fast_path_fallbacks`
//! is the number of fresh spawns with at least one access. A registration
//! falls back when its `try_lock` fails or a fault plan forces it; only
//! spawning (or waiting) threads take the gate — completing a task takes
//! none — so where one thread spawns per runtime, as in every workload of
//! the benchmark ledger, the hit share (`graph.fast_path_share`,
//! `--trace 1`) reads 1.0 and `tracker_lock_contention` stays near zero.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads a counter to its own cache-line pair so relaxed increments from
/// different threads never bounce one line between cores. 128 bytes covers
/// the common 64-byte line plus the adjacent-line spatial prefetcher of x86
/// parts.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Internal atomic counters, updated by workers and the spawn path: one per
/// [`StatField`], indexed by it, each on its own cache-line pair. The spawner
/// counts spawns, edges and immediately-ready tasks while the workers count
/// executions; packed into one array, every spawn and every completion took
/// the same line away from the other side.
#[derive(Debug)]
pub(crate) struct StatCounters([CachePadded<AtomicU64>; StatField::COUNT]);

impl Default for StatCounters {
    fn default() -> Self {
        StatCounters(std::array::from_fn(|_| CachePadded::default()))
    }
}

impl StatCounters {
    /// Add `n` to `field`; returns the value before the addition. Adding
    /// zero writes nothing.
    pub(crate) fn add(&self, field: StatField, n: u64) -> u64 {
        let counter = &self.0[field as usize];
        if n == 0 {
            return counter.load(Ordering::Relaxed);
        }
        counter.fetch_add(n, Ordering::Relaxed)
    }

    /// Take back one count of `field`: an elided rename the clause set
    /// turned into a real one, so each access is counted exactly once.
    pub(crate) fn undo(&self, field: StatField) {
        self.0[field as usize].fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn get(&self, field: StatField) -> u64 {
        self.0[field as usize].load(Ordering::Relaxed)
    }
}

/// Names of the counters tracked by the runtime. The total edge count is
/// not among them: every edge is one of RAW / WAR / WAW, so
/// [`RuntimeStats::edges_added`] is their sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StatField {
    TasksSpawned,
    TasksExecuted,
    TasksPanicked,
    EdgesRaw,
    EdgesWar,
    EdgesWaw,
    DependencesSeen,
    Taskwaits,
    TaskwaitOns,
    ImmediatelyReady,
    /// Spawns whose access list spilled past the inline capacity. Only the
    /// rare spill is counted on the hot path; inline hits are derived as
    /// `tasks_spawned - spills` when stats are snapshotted.
    AccessInlineSpills,
    /// Spawns whose body closure spilled past the node's inline body buffer
    /// into a `Box`.
    SpawnBodySpills,
    /// Template passes stamped through `Runtime::replay`.
    ReplayPasses,
    /// Tasks stamped by template replay, a subset of `TasksSpawned`.
    ReplayTasks,
    /// Tasks retired without running because a failing predecessor (panic or
    /// cancellation) poisoned them. Disjoint from `TasksExecuted`.
    TasksPoisoned,
    /// Tasks retired without running because their cancel scope was
    /// cancelled before they started. Disjoint from `TasksExecuted` and
    /// `TasksPoisoned`.
    TasksCancelled,
    /// Tasks popped from a worker's own deque.
    SchedLocalPops,
    /// Unprioritised tasks taken from the shared queue.
    SchedGlobalPops,
    /// Prioritised tasks taken from the shared queue.
    SchedPriorityPops,
    /// Tasks taken from another worker's deque.
    SchedSteals,
    /// Woken successors pushed onto the waking worker's own deque.
    SchedLocalWakeups,
    /// Woken successors pushed onto the shared queue.
    SchedGlobalWakeups,
    /// Tracker gate acquisitions whose `try_lock` found the gate held.
    TrackerLockContention,
    /// Fresh registrations that took the gate without waiting behind
    /// another blocking acquirer.
    TrackerFastPathHits,
    /// Fresh registrations that waited behind another blocking acquirer, or
    /// that a fault plan forced.
    TrackerFastPathFallbacks,
    /// Overlap-index spans registrations examined, added once per
    /// registration (or replay batch).
    TrackerEntriesScanned,
    /// Versions allocated by renaming, fresh or recycled.
    Renames,
    /// Renames of one chunk of a versioned partition, a subset of `Renames`.
    ChunkRenames,
    /// Renames served from a handle's recycle pool, a subset of `Renames`.
    RenamesRecycled,
    /// `output` accesses that wanted to rename and serialised instead.
    RenameFallbacks,
    /// `output` accesses bound in place because nobody held the current
    /// version; taken back by an un-elision, so disjoint from `Renames`.
    RenamesElided,
    /// Version tickets moved into spawned task nodes (bind side of the
    /// ticket ledger [`Runtime::audit`](crate::Runtime::audit) balances).
    TicketRefsBound,
    /// Version tickets released by retired task nodes (release side).
    TicketRefsReleased,
}

impl StatField {
    /// Number of variants; `TicketRefsReleased` is the last.
    pub(crate) const COUNT: usize = StatField::TicketRefsReleased as usize + 1;
}

/// A point-in-time snapshot of runtime statistics, obtained from
/// [`Runtime::stats`](crate::Runtime::stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Tasks spawned since the runtime was created.
    pub tasks_spawned: u64,
    /// Tasks that finished executing.
    pub tasks_executed: u64,
    /// Tasks whose body panicked.
    pub tasks_panicked: u64,
    /// Dependence edges inserted into the task graph. Only predecessors
    /// still in flight at registration produce an edge, so this count (and
    /// its RAW/WAR/WAW split) depends on execution timing; use
    /// [`RuntimeStats::dependences_seen`] for a timing-independent count.
    pub edges_added: u64,
    /// Edges carrying a true data flow: the successor reads data the
    /// predecessor wrote, including read-modify-write (`inout` /
    /// `concurrent`) chains. Renaming preserves these.
    pub raw_edges: u64,
    /// Edges that are anti (write-after-read) dependences: an `output`
    /// overwrites data an earlier task reads — false dependences that
    /// automatic renaming removes.
    pub war_edges: u64,
    /// Edges that are output (write-after-write) dependences: an `output`
    /// overwrites data an earlier task wrote, without reading it — false
    /// dependences that automatic renaming removes.
    pub waw_edges: u64,
    /// Conflicting predecessor accesses discovered at registration, whether
    /// or not the predecessor had already completed. Independent of
    /// execution timing (deterministic for a fixed program, until history is
    /// garbage-collected), unlike `edges_added`.
    pub dependences_seen: u64,
    /// Versions allocated by automatic renaming (`output` accesses on
    /// versioned handles), whole-handle and per-chunk combined.
    pub renames: u64,
    /// Renames performed at sub-region granularity — `output` accesses on
    /// chunks of a versioned partition. A subset of
    /// [`RuntimeStats::renames`].
    pub chunk_renames: u64,
    /// Renames that reused pooled storage instead of allocating.
    pub renames_recycled: u64,
    /// `output` accesses that wanted to rename but serialised instead,
    /// either because the rename memory budget was exhausted or because the
    /// handle already had `rename_max_versions` live versions.
    pub rename_fallbacks: u64,
    /// Bytes currently held by renamed versions (live and pooled).
    pub rename_bytes_held: u64,
    /// Tasks that were ready at spawn time (no unresolved dependences).
    pub immediately_ready: u64,
    /// Number of `taskwait` calls.
    pub taskwaits: u64,
    /// Number of `taskwait_on` calls.
    pub taskwait_ons: u64,
    /// Tasks popped from a worker's own deque.
    pub sched_local_pops: u64,
    /// Tasks popped from the global queue.
    pub sched_global_pops: u64,
    /// Tasks stolen from another worker.
    pub sched_steals: u64,
    /// Successor tasks pushed onto the waking worker's deque (locality hits).
    pub sched_local_wakeups: u64,
    /// Successor tasks pushed onto the global queue.
    pub sched_global_wakeups: u64,
    /// Tasks that went through the priority heap.
    pub sched_priority_pops: u64,
    /// Tracker gate acquisitions whose first `try_lock` found the gate held
    /// by another thread: the collisions of registrations, sweeps and
    /// lookups on different threads, however short.
    pub tracker_lock_contention: u64,
    /// Fresh spawns with at least one access whose registration took the
    /// tracker gate at its first `try_lock`, unforced — see
    /// [`crate::graph`], "Exclusion: the gate". Access-free spawns and
    /// replayed tasks count neither here nor in
    /// [`RuntimeStats::tracker_fast_path_fallbacks`].
    pub tracker_fast_path_hits: u64,
    /// Fresh spawns with at least one access whose registration did not:
    /// its `try_lock` found the gate held, or a fault plan forced the
    /// acquisition.
    pub tracker_fast_path_fallbacks: u64,
    /// History entries examined by the tracker's overlap queries: for every
    /// access of every registration, the spans of the allocation's overlap
    /// index the query had to look at (real overlaps plus near misses). The
    /// count depends only on the program and on which history garbage
    /// collection has already dropped — not on timing — and
    /// `tracker_entries_scanned / tasks_spawned` is what a registration
    /// costs beyond its fixed part: about one per access for chunk accesses
    /// on a partition, the chunk count for a whole-partition access.
    pub tracker_entries_scanned: u64,
    /// `output` accesses on versioned handles whose rename was **elided**:
    /// the current version had no in-flight bindings (every earlier bound
    /// task had completed and retired), so the access bound it in place
    /// instead of allocating a fresh version. Disjoint from
    /// [`RuntimeStats::renames`].
    pub renames_elided: u64,
    /// Task-node acquisitions served from the runtime's slab free list
    /// instead of the heap (the spawn-side allocation diet).
    pub task_nodes_recycled: u64,
    /// Task nodes allocated fresh from the heap.
    pub task_nodes_allocated: u64,
    /// Gauge: task nodes parked in the slab's free list right now.
    pub task_nodes_free: usize,
    /// Gauge: task nodes checked out of the slab right now — allocated or
    /// recycled, and neither back in the free list nor deallocated. Exact
    /// only at quiescence, where it reads zero (an invariant
    /// [`Runtime::audit`](crate::Runtime::audit) checks).
    pub task_nodes_outstanding: usize,
    /// Spawned tasks whose declared accesses fit the node's inline access
    /// storage (≤2 accesses — no access-list heap allocation).
    pub access_inline_hits: u64,
    /// Spawned tasks whose access list spilled to the heap (more than 2
    /// declared accesses).
    pub access_inline_spills: u64,
    /// Spawned tasks whose body closure was too large (or too aligned) for
    /// the node's 64-byte inline body buffer and was boxed instead.
    pub spawn_body_spills: u64,
    /// Template passes stamped through
    /// [`Runtime::replay`](crate::Runtime::replay).
    pub replay_passes: u64,
    /// Tasks stamped by template replay — a subset of
    /// [`RuntimeStats::tasks_spawned`], which counts them too.
    pub replay_tasks: u64,
    /// Tasks retired without running because a failing predecessor (panic
    /// or cancellation) poisoned them — see the README's "Failure
    /// semantics". Disjoint from [`RuntimeStats::tasks_executed`]; a drained
    /// runtime satisfies `spawned == executed + poisoned + cancelled`.
    pub tasks_poisoned: u64,
    /// Tasks retired without running because their
    /// [`CancelToken`](crate::CancelToken) scope was cancelled before they
    /// started. Disjoint from [`RuntimeStats::tasks_executed`] and
    /// [`RuntimeStats::tasks_poisoned`].
    pub tasks_cancelled: u64,
}

impl RuntimeStats {
    /// Fraction of dependent-task wakeups that stayed on the waking worker
    /// (the locality mechanism the paper credits for `ray-rot`). Returns
    /// `None` when no wakeups happened.
    pub fn locality_hit_rate(&self) -> Option<f64> {
        let total = self.sched_local_wakeups + self.sched_global_wakeups;
        if total == 0 {
            None
        } else {
            Some(self.sched_local_wakeups as f64 / total as f64)
        }
    }

    /// Average number of dependence edges per spawned task.
    pub fn mean_edges_per_task(&self) -> f64 {
        if self.tasks_spawned == 0 {
            0.0
        } else {
            self.edges_added as f64 / self.tasks_spawned as f64
        }
    }

    /// Fraction of fresh registrations that were fast-path hits (see
    /// [`RuntimeStats::tracker_fast_path_hits`]). `None` when no fresh spawn with accesses happened (hits +
    /// fallbacks account for every such spawn).
    pub fn tracker_fast_path_rate(&self) -> Option<f64> {
        let total = self.tracker_fast_path_hits + self.tracker_fast_path_fallbacks;
        if total == 0 {
            None
        } else {
            Some(self.tracker_fast_path_hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_get() {
        let c = StatCounters::default();
        c.add(StatField::TasksSpawned, 3);
        c.add(StatField::TasksSpawned, 2);
        c.add(StatField::EdgesRaw, 7);
        assert_eq!(c.get(StatField::TasksSpawned), 5);
        assert_eq!(c.get(StatField::EdgesRaw), 7);
        assert_eq!(c.get(StatField::TasksExecuted), 0);
        assert_eq!(
            c.add(StatField::EdgesRaw, 0),
            7,
            "adding zero reads the count"
        );
        // What the spawner counts and what the workers count never share a
        // line pair.
        let at = |field: StatField| &c.0[field as usize] as *const _ as usize;
        assert!(at(StatField::TasksSpawned).abs_diff(at(StatField::TasksExecuted)) >= 128);
        assert_eq!(at(StatField::TasksSpawned) % 128, 0);
    }

    #[test]
    fn undo_takes_back_one_count() {
        let c = StatCounters::default();
        c.add(StatField::RenamesElided, 2);
        c.undo(StatField::RenamesElided);
        assert_eq!(c.get(StatField::RenamesElided), 1);
    }

    #[test]
    fn fast_path_rate() {
        let s = RuntimeStats {
            tracker_fast_path_hits: 3,
            tracker_fast_path_fallbacks: 1,
            ..Default::default()
        };
        assert!((s.tracker_fast_path_rate().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(RuntimeStats::default().tracker_fast_path_rate(), None);
    }

    #[test]
    fn locality_hit_rate() {
        let mut s = RuntimeStats::default();
        assert_eq!(s.locality_hit_rate(), None);
        s.sched_local_wakeups = 3;
        s.sched_global_wakeups = 1;
        assert!((s.locality_hit_rate().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn derived_metrics() {
        let s = RuntimeStats {
            tasks_spawned: 10,
            tasks_executed: 7,
            edges_added: 25,
            ..Default::default()
        };
        assert!((s.mean_edges_per_task() - 2.5).abs() < 1e-12);
        let empty = RuntimeStats::default();
        assert_eq!(empty.mean_edges_per_task(), 0.0);
    }
}
