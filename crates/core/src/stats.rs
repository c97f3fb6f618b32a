//! Aggregated runtime statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads a counter to its own cache-line pair so relaxed increments from
/// different threads never bounce one line between cores. 128 bytes covers
/// the common 64-byte line plus the adjacent-line spatial prefetcher of x86
/// parts.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Internal atomic counters, updated by workers and the spawn path: one per
/// [`StatField`], indexed by it.
#[derive(Debug, Default)]
pub(crate) struct StatCounters([AtomicU64; StatField::COUNT]);

impl StatCounters {
    /// Add `n` to `field`; returns the value before the addition.
    pub(crate) fn add(&self, field: StatField, n: u64) -> u64 {
        self.0[field as usize].fetch_add(n, Ordering::Relaxed)
    }

    pub(crate) fn get(&self, field: StatField) -> u64 {
        self.0[field as usize].load(Ordering::Relaxed)
    }
}

/// Counters of the sharded dependence tracker: one hit counter per shard
/// plus a global contention counter. Owned by the tracker router
/// ([`crate::graph`]) and snapshotted into [`RuntimeStats`].
///
/// Shard gates are acquired try-first: a successful try is an uncontended
/// hit; an acquirer that has to wait bumps `lock_contention` if it finds the
/// gate held at that point. `lock_contention / sum(shard_hits)` is therefore
/// the fraction of tracker accesses that waited behind a holder — the number
/// sharding is meant to drive to zero.
#[derive(Debug)]
pub(crate) struct TrackerCounters {
    /// One hit counter per shard, each padded to its own cache-line pair:
    /// shards are hit concurrently by independent spawners, and a dense
    /// `[AtomicU64]` made adjacent shards' relaxed increments bounce one
    /// line between every spawning core (measured as pure overhead at 8
    /// spawners — the counters are statistics, they must not *create*
    /// contention the shards were built to remove).
    shard_hits: Box<[CachePadded<AtomicU64>]>,
    lock_contention: AtomicU64,
    fast_path_hits: AtomicU64,
    fast_path_fallbacks: AtomicU64,
    entries_scanned: AtomicU64,
}

impl TrackerCounters {
    pub(crate) fn new(shards: usize) -> Self {
        TrackerCounters {
            shard_hits: (0..shards)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
            lock_contention: AtomicU64::new(0),
            fast_path_hits: AtomicU64::new(0),
            fast_path_fallbacks: AtomicU64::new(0),
            entries_scanned: AtomicU64::new(0),
        }
    }

    /// Record an acquisition of `shard`'s gate.
    pub(crate) fn hit(&self, shard: usize) {
        self.shard_hits[shard].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a waiting acquisition that found the gate held.
    pub(crate) fn contended(&self) {
        self.lock_contention.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a single-shard registration whose gate fell to the first try.
    pub(crate) fn fast_hit(&self) {
        self.fast_path_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a registration that spanned several shards or had to wait for
    /// its gate (contention, GC in progress).
    pub(crate) fn fast_fallback(&self) {
        self.fast_path_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the overlap-index spans one registration (or one replay
    /// batch) examined — added once per registration, not per span.
    pub(crate) fn scanned(&self, spans: u64) {
        if spans != 0 {
            self.entries_scanned.fetch_add(spans, Ordering::Relaxed);
        }
    }

    /// Per-shard hit counts.
    pub(crate) fn hits(&self) -> Vec<u64> {
        self.shard_hits
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .collect()
    }

    /// Total contended acquisitions.
    pub(crate) fn contention(&self) -> u64 {
        self.lock_contention.load(Ordering::Relaxed)
    }

    /// Total fast-path registrations.
    pub(crate) fn fast_hits(&self) -> u64 {
        self.fast_path_hits.load(Ordering::Relaxed)
    }

    /// Total fast-path fallbacks.
    pub(crate) fn fast_fallbacks(&self) -> u64 {
        self.fast_path_fallbacks.load(Ordering::Relaxed)
    }

    /// Total overlap-index spans examined by registrations.
    pub(crate) fn entries_scanned(&self) -> u64 {
        self.entries_scanned.load(Ordering::Relaxed)
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
    /// Template passes stamped through `Runtime::replay` / `replay_fused`
    /// (a fused super-batch counts each of its iterations).
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
}

impl StatField {
    /// Number of variants; `TasksCancelled` is the last.
    pub(crate) const COUNT: usize = StatField::TasksCancelled as usize + 1;
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
    /// Number of shards of the dependence tracker (see
    /// [`RuntimeConfig::with_tracker_shards`](crate::RuntimeConfig::with_tracker_shards)).
    pub tracker_shards: usize,
    /// Gate acquisitions per tracker shard (registration, completion
    /// retirement and `taskwait on` lookups), indexed by shard. Renamed
    /// versions carry fresh allocation ids, so a balanced workload shows a
    /// near-uniform distribution here.
    pub tracker_shard_hits: Vec<u64>,
    /// Tracker gate acquisitions that had to wait and found the gate held by
    /// another thread at that point. With one shard this counts the
    /// spawn/spawn and spawn/sweep collisions that outlast the spin budget;
    /// with enough shards it should stay near zero for tasks touching
    /// disjoint allocations.
    pub tracker_lock_contention: u64,
    /// Registrations that touched a single shard and took its gate at the
    /// first try, without waiting — see [`crate::graph`], "Exclusion: one
    /// gate protocol".
    pub tracker_fast_path_hits: u64,
    /// Registrations that did not: the accesses spanned several shards, the
    /// shard's gate was held (contention, a GC sweep) past the spin budget,
    /// or a fault plan forced the acquisition off the try.
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
    /// instead of the heap (the spawn-side allocation diet; see
    /// [`RuntimeConfig::with_task_recycler`](crate::RuntimeConfig::with_task_recycler)).
    pub task_nodes_recycled: u64,
    /// Task nodes allocated fresh from the heap.
    pub task_nodes_allocated: u64,
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
    /// [`Runtime::replay`](crate::Runtime::replay) /
    /// [`Runtime::replay_fused`](crate::Runtime::replay_fused) (a fused
    /// super-batch counts each of its iterations as one pass).
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

    /// Tasks still in flight (spawned but not yet executed, poisoned or
    /// cancelled).
    pub fn tasks_in_flight(&self) -> u64 {
        self.tasks_spawned
            .saturating_sub(self.tasks_executed)
            .saturating_sub(self.tasks_poisoned)
            .saturating_sub(self.tasks_cancelled)
    }

    /// Fraction of registrations that touched a single shard and took its
    /// gate at the first try. `None` when no registration with
    /// accesses happened (hits + fallbacks account for every such
    /// registration while the fast path is enabled).
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
    }

    #[test]
    fn tracker_counters_count_hits_and_contention() {
        let c = TrackerCounters::new(4);
        c.hit(0);
        c.hit(0);
        c.hit(3);
        c.contended();
        assert_eq!(c.hits(), vec![2, 0, 0, 1]);
        assert_eq!(c.contention(), 1);
    }

    #[test]
    fn fast_path_counters_and_rate() {
        let c = TrackerCounters::new(2);
        c.fast_hit();
        c.fast_hit();
        c.fast_hit();
        c.fast_fallback();
        assert_eq!(c.fast_hits(), 3);
        assert_eq!(c.fast_fallbacks(), 1);
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
        assert_eq!(s.tasks_in_flight(), 3);
        assert!((s.mean_edges_per_task() - 2.5).abs() < 1e-12);
        let empty = RuntimeStats::default();
        assert_eq!(empty.mean_edges_per_task(), 0.0);
        assert_eq!(empty.tasks_in_flight(), 0);
    }
}
