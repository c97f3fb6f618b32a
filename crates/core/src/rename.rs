//! Automatic data renaming: runtime-managed version chains that eliminate
//! WAR/WAW serialisation.
//!
//! ## The problem
//!
//! The dependence rules of the OmpSs model (see [`crate::graph`]) serialise a
//! later writer behind every earlier reader (WAR, anti dependence) and every
//! earlier writer (WAW, output dependence) of the same data. The paper's
//! H.264 pipeline (Listing 1) would therefore serialise completely — every
//! iteration overwrites the same stage buffers — and the programmer has to
//! break the false dependences *manually* with circular buffers
//! ([`crate::pipeline::RenameRing`]).
//!
//! ## The model
//!
//! This module brings the superscalar analogy to its conclusion: exactly as
//! an out-of-order core renames architectural registers onto a larger
//! physical register file, a *versioned* [`Data`](crate::handle::Data)
//! handle is backed by a **chain of storage versions**. Accesses resolve to
//! a concrete version at task-insertion time:
//!
//! * `input` / `inout` / `concurrent` accesses bind to the **current**
//!   version — true (RAW) dependences are preserved, and `inout` chains
//!   still serialise (an in-place update genuinely needs the previous
//!   value).
//! * An `output` access **allocates a fresh version** (or recycles one from
//!   a bounded per-handle pool) and makes it current. Because every version
//!   has its own allocation identity, the new writer conflicts with nothing
//!   in flight: the WAR/WAW edges simply never arise.
//!
//! ## First-write rename elision
//!
//! Allocating a fresh version buys nothing when nobody holds the old one: a
//! single-pass workload (rotate writes every output band exactly once) would
//! pay one allocation per band for versions that never conflict with
//! anything. So an `output` access first checks the current version's
//! in-flight binding count: when it is **zero** — and, because workers
//! release their version tickets only *after* retiring the task from the
//! dependence tracker, zero means every earlier bound task has completed
//! *and* its history references are tombstones — the access **binds the
//! current version in place** instead of renaming. The elided write
//! provably inherits no WAR/WAW edge (tombstones can take none), so the
//! zero-false-dependence property of renaming is preserved deterministically;
//! the elision is counted in
//! [`RuntimeStats::renames_elided`](crate::RuntimeStats::renames_elided)
//! rather than `renames`. Disable with
//! [`RuntimeConfig::with_rename_elision(false)`](crate::RuntimeConfig::with_rename_elision)
//! to force every `output` to allocate, as earlier revisions did.
//!
//! One corner needs care: a task declaring `output(&x)` *before* `input(&x)`
//! on the same versioned handle would bind both clauses to the same storage
//! when the write elides, silently degrading to `inout`-like in-place
//! semantics. The task builder detects this pattern at bind time — an
//! `input` clause arriving after an elided `output` on an overlapping
//! sub-region — and **un-elides** the write (`VersionTicket::unelide`):
//! the output binding is transferred to a freshly allocated (or
//! pool-recycled) version before the task is inserted, so the read keeps
//! observing the pre-task value whatever the clause order. Only when
//! renaming is impossible (budget or version-count backpressure) does the
//! in-place aliasing remain — the same degradation the budget-exhaustion
//! fallback (and renaming-off mode) always had.
//!
//! ## Region granularity: one chain, `n` chains
//!
//! The unit of renaming is the **version chain**, and there is one
//! implementation of it ([`crate::handle`]): a
//! [`Data`](crate::handle::Data) handle is one chain; a *versioned*
//! [`PartitionedData`](crate::handle::PartitionedData)
//! ([`Runtime::versioned_partitioned`](crate::Runtime::versioned_partitioned))
//! is `n` chains, **one per chunk**, so an `output` access to chunk *i*
//! renames just that chunk while the other chunks stay untouched — the
//! region model the paper's scanline/block pipelines (rotate, rgbcmy,
//! bodytrack weight updates) need. Every decision described on this page is
//! taken per chain, by the same code, whichever handle owns it; the two
//! differ only in what a version stores (`T` or a chunk's `Vec<T>`) and how
//! many bytes it is accounted for. A whole-array access synchronises across
//! all chunk chains: it binds (for `output`: renames) the current version of
//! every chunk. One access clause may therefore resolve to **several**
//! concrete bindings, which is why [`ResolvedAccess`] carries vectors.
//!
//! The chain always has a well-defined *current* version, which is what
//! later tasks, [`Runtime::fetch`](crate::Runtime::fetch) and
//! [`Data::try_into_inner`](crate::handle::Data::try_into_inner) observe; a
//! `taskwait` therefore sees the final version "committed back" as the value
//! of the handle. Superseded versions are reclaimed as soon as their last
//! in-flight task completes: the storage returns to the handle's recycle
//! pool (bounded by [`RuntimeConfig::rename_pool_depth`](crate::RuntimeConfig::rename_pool_depth)) or is dropped.
//!
//! ## Fresh versions hold fresh values
//!
//! A renamed `output` version is produced by the handle's *initialiser*
//! (`T::default()` for [`Runtime::versioned_data`](crate::Runtime::versioned_data),
//! or the closure given to
//! [`Data::versioned_with`](crate::handle::Data::versioned_with)) — or, when
//! storage is recycled, it simply keeps the superseded version's leftover
//! contents. It is never a copy of the current version. This is precisely
//! the `output` contract: the task declares that it overwrites the data
//! without reading it, so the pre-existing contents are unobservable to a
//! correct program. A task that wants to read the previous value must
//! declare `inout`, which binds (and serialises on) the current version.
//!
//! ## Backpressure: version-count bound and memory cap
//!
//! Every version beyond a handle's canonical first one consumes memory, and
//! a producer far ahead of its consumers could allocate without bound. Two
//! bounds apply; hitting either makes an `output` access **fall back to
//! binding the current version**, serialising behind the in-flight readers
//! and writers exactly as without renaming. The program stays correct —
//! renaming is purely a scheduling optimisation — and the fallback is
//! counted in [`RuntimeStats::rename_fallbacks`](crate::RuntimeStats).
//!
//! * **Per-handle version count** ([`RuntimeConfig::rename_max_versions`](crate::RuntimeConfig::rename_max_versions),
//!   default 16): at most this many versions of one handle may be live at
//!   once. This is the bound that matters for heap-backed types — it limits
//!   a handle's footprint to `max_versions` deep copies, playing the role
//!   of Listing 1's ring depth `N`.
//! * **Global byte budget** ([`RuntimeConfig::rename_memory_cap`](crate::RuntimeConfig::rename_memory_cap), default
//!   256 MiB): all extra versions are accounted against it. Versioned
//!   partitions account the **deep** payload of each chunk version
//!   (`chunk_len * size_of::<T>()`), and scalar handles accept a per-handle
//!   `size_hint`
//!   ([`Data::versioned_with_size`](crate::handle::Data::versioned_with_size))
//!   for heap-backed types; without a hint the accounting falls back to the
//!   shallow `size_of::<T>()`, in which case the version-count bound is the
//!   effective limit.
//!
//! Disabling renaming entirely ([`RuntimeConfig::with_renaming(false)`](crate::RuntimeConfig::with_renaming)) makes every versioned handle
//! behave like a plain one: all accesses bind the single current version and
//! WAR/WAW edges serialise tasks, which is the configuration the
//! `rename_ablation` harness compares against.
//!
//! ## Interplay with graph capture/replay
//!
//! A [`GraphTemplate`](crate::GraphTemplate) records *clauses*, never
//! resolved version bindings: every
//! [`Runtime::replay`](crate::Runtime::replay) pass runs this module's
//! resolution again — fresh renames, elision decisions, and bind-time
//! un-elision are all re-evaluated against the version chains as they stand
//! at replay time. Version state is therefore never a template-invalidation
//! concern, and the elided-output-then-input corner above cannot be "baked
//! in" by capture. Handle substitution happens one step earlier still:
//! [`ReplayBindings`](crate::ReplayBindings) swaps which *handle* a captured
//! clause resolves against (keyed by its canonical
//! [`replay_key`](crate::Accessible::replay_key), which is stable across
//! renames), and only then does the chosen handle's chain decide the
//! concrete version.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::region::AllocId;
use crate::stats::StatCounters;

/// Default global memory budget for renamed versions (bytes).
pub const DEFAULT_RENAME_MEMORY_CAP: usize = 256 * 1024 * 1024;

/// Default bound on each handle's pool of recycled version slots.
pub const DEFAULT_RENAME_POOL_DEPTH: usize = 8;

/// Default bound on the number of live versions per handle.
pub const DEFAULT_RENAME_MAX_VERSIONS: usize = 16;

/// Global accounting of the memory held by renamed versions, shared by every
/// versioned handle used with one runtime.
///
/// The pool does not own any storage; it is a budget. Version storage is
/// owned by the handles, each extra version holding a [`Reservation`] that
/// returns its bytes to the budget when the storage is dropped. What renaming
/// does is counted in the runtime's statistics, not here.
#[derive(Debug)]
pub(crate) struct RenamePool {
    cap: usize,
    held: AtomicUsize,
}

impl RenamePool {
    /// Create a pool with the given byte budget.
    pub(crate) fn new(cap: usize) -> Self {
        RenamePool {
            cap,
            held: AtomicUsize::new(0),
        }
    }

    /// Bytes currently held by renamed versions (live and pooled).
    pub(crate) fn bytes_held(&self) -> usize {
        self.held.load(Ordering::Relaxed)
    }

    /// Try to reserve `bytes` for a new version. Returns the reservation, or
    /// `None` when the budget would be exceeded (backpressure).
    pub(crate) fn try_reserve(self: &Arc<Self>, bytes: usize) -> Option<Reservation> {
        let mut held = self.held.load(Ordering::Relaxed);
        loop {
            if held.saturating_add(bytes) > self.cap {
                return None;
            }
            match self.held.compare_exchange_weak(
                held,
                held + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(Reservation {
                        pool: self.clone(),
                        bytes,
                    })
                }
                Err(actual) => held = actual,
            }
        }
    }
}

/// RAII share of the rename budget: created by [`RenamePool::try_reserve`],
/// returns its bytes on drop.
#[derive(Debug)]
pub(crate) struct Reservation {
    pool: Arc<RenamePool>,
    bytes: usize,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.pool.held.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Context a handle needs to resolve an access to a concrete version:
/// whether renaming is enabled, which budget to draw from and where to count
/// what it did. Built by the runtime for every
/// [`TaskBuilder`](crate::TaskBuilder) access clause.
#[derive(Clone)]
pub struct RenameCx<'a> {
    pub(crate) enabled: bool,
    pub(crate) elision: bool,
    pub(crate) pool: &'a Arc<RenamePool>,
    /// The runtime's counters: renames, recycles, fallbacks and elisions.
    pub(crate) stats: &'a StatCounters,
    pub(crate) pool_depth: usize,
    pub(crate) max_versions: usize,
    /// Fault-injection plan, if one is installed: may force a reservation to
    /// see an exhausted budget (see [`crate::failpoint`]).
    pub(crate) fault: Option<&'a crate::failpoint::FaultPlan>,
}

impl<'a> RenameCx<'a> {
    /// Whether `output` accesses should rename.
    pub fn renaming_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether an `output` access may **elide** its rename when the current
    /// version has no in-flight bindings (first-write elision — see
    /// [`crate::rename`], "First-write rename elision").
    pub fn elision_enabled(&self) -> bool {
        self.elision
    }

    /// Bound on each handle's recycle pool.
    pub fn pool_depth(&self) -> usize {
        self.pool_depth
    }

    /// Bound on the number of live versions per handle.
    pub fn max_versions(&self) -> usize {
        self.max_versions
    }

    /// Reserve `bytes` against the rename budget — the fault-aware front
    /// door every rename-allocation site goes through. An installed
    /// [`FaultPlan`](crate::failpoint::FaultPlan) may force the reservation
    /// to report exhaustion, driving the access down the documented
    /// serialise-in-place backpressure path with the budget untouched.
    pub(crate) fn try_reserve(&self, bytes: usize) -> Option<Reservation> {
        if let Some(plan) = self.fault {
            if plan.roll_next(crate::failpoint::FaultClass::RenameExhaustion) {
                // The caller counts the fallback, exactly as for a genuine
                // budget miss.
                return None;
            }
        }
        self.pool.try_reserve(bytes)
    }
}

/// What happened when an access clause was resolved against a handle.
///
/// Returned by [`Accessible::resolve`](crate::handle::Accessible::resolve);
/// consumed by the task's clause set, which stores the bindings on the task
/// and records rename statistics. One clause usually resolves to one concrete
/// access, but a whole-array clause on a versioned partition resolves to one
/// binding **per chunk chain** — hence the vectors. The default value is the
/// empty resolution, to `bind` versions into.
#[derive(Default)]
pub struct ResolvedAccess {
    /// The concrete accesses (region of each bound version + access kind).
    /// Stored inline (≤2) so the dominant single-binding resolution
    /// allocates nothing.
    pub(crate) accesses: crate::access::AccessVec,
    /// The task's binding to each bound version (empty for unversioned
    /// handles). Parallel to the version-bound (canonical-carrying)
    /// subsequence of `accesses`.
    pub(crate) tickets: Vec<Box<dyn VersionTicket>>,
    /// One entry per sub-region the resolution renamed to a new version.
    pub(crate) renamed: Vec<RenameEvent>,
}

impl ResolvedAccess {
    /// An access on an unversioned handle: no binding, no rename.
    pub fn plain(access: crate::access::Access) -> Self {
        ResolvedAccess {
            accesses: crate::access::AccessVec::one(access),
            tickets: Vec::new(),
            renamed: Vec::new(),
        }
    }

    /// Add an access bound to one version of one chain, with the ticket
    /// holding that binding and the rename that made the version, if any.
    pub(crate) fn bind(
        &mut self,
        access: crate::access::Access,
        ticket: Box<dyn VersionTicket>,
        renamed: Option<RenameEvent>,
    ) {
        self.accesses.push(access);
        self.tickets.push(ticket);
        self.renamed.extend(renamed);
    }

    /// The primary concrete access (single-binding resolutions).
    #[cfg(test)]
    pub(crate) fn access(&self) -> &crate::access::Access {
        &self.accesses[0]
    }
}

/// Record of one rename, reported through the trace as
/// [`TraceEvent::Renamed`](crate::trace::TraceEvent::Renamed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameEvent {
    /// Allocation id of the superseded version.
    pub from: AllocId,
    /// Allocation id of the new current version.
    pub to: AllocId,
    /// Whether the new version reused pooled storage.
    pub recycled: bool,
    /// For per-chunk renames: index of the renamed chunk within its
    /// partition. `None` for whole-handle renames.
    pub chunk: Option<u32>,
}

/// A task's hold on one version it is bound to, from clause resolution to
/// task completion.
pub(crate) trait VersionTicket: Send {
    /// Decrement the bound version's in-flight count (recycling the version
    /// if it became unreferenced and is no longer current). Invoked exactly
    /// once: when the task completes, or when its clause set is dropped
    /// without being inserted.
    fn release(&self);

    /// The deferred half of a rename. Resolution *allocates* the new version
    /// (so the renaming task is bound to it), but the version only becomes
    /// the handle's **current** one when the task is actually inserted —
    /// which is when this runs, superseding (and possibly reclaiming) the
    /// previous version. A no-op for a binding no rename made. A clause set
    /// dropped without inserting never commits: its ticket release reclaims
    /// the never-current version and the handle's value is untouched,
    /// exactly as if the task had never been written.
    fn commit(&mut self);

    /// Convert an **elided** in-place `output` binding into a real rename:
    /// allocate (or pool-recycle) a fresh version, move this binding onto it
    /// (with its commit pending) and return the replacement access. The
    /// handle's *current* version is untouched until the commit.
    ///
    /// The clause set calls this when it detects the output-before-input
    /// aliasing corner: an `input` clause arriving after an elided `output`
    /// on the same sub-region would otherwise read the very storage the
    /// task overwrites. Returns `None` when renaming is impossible (budget
    /// or version-count backpressure, or the ticket is not an in-place
    /// binding on the current version), in which case the in-place binding —
    /// and the documented `inout`-like fallback semantics — stay.
    fn unelide(&mut self, cx: &RenameCx<'_>) -> Option<(crate::access::Access, RenameEvent)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let pool = Arc::new(RenamePool::new(100));
        let a = pool.try_reserve(60).expect("fits");
        assert_eq!(pool.bytes_held(), 60);
        assert!(pool.try_reserve(50).is_none(), "over budget");
        let b = pool.try_reserve(40).expect("exactly fits");
        assert_eq!(pool.bytes_held(), 100);
        drop(a);
        assert_eq!(pool.bytes_held(), 40);
        drop(b);
        assert_eq!(pool.bytes_held(), 0);
    }

    #[test]
    fn zero_cap_refuses_everything_but_zero() {
        let pool = Arc::new(RenamePool::new(0));
        assert!(pool.try_reserve(1).is_none());
        assert!(pool.try_reserve(0).is_some());
    }
}
