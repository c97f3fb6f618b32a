//! Data handles: the objects named in `input` / `output` / `inout` clauses.
//!
//! OmpSs clauses name C pointers; here, tasks declare accesses on *handles*:
//!
//! * [`Data<T>`] — a single shared object (one region covering the whole
//!   allocation).
//! * [`PartitionedData<T>`] — a `Vec<T>` split into fixed, disjoint chunks;
//!   every chunk is its own region so that one task per chunk (scanline,
//!   block, macroblock row, …) runs in parallel, while whole-array accesses
//!   still conflict with every chunk.
//!
//! The handles themselves never hand out references. Inside a task body,
//! [`TaskContext::read`](crate::runtime::TaskContext::read) /
//! [`TaskContext::write`](crate::runtime::TaskContext::write) (and the chunk
//! equivalents) validate the requested access against the task's declared
//! access list and only then produce a guard. Conflicting declared accesses
//! are serialised by the dependence graph, which is what makes handing out
//! `&mut` sound.
//!
//! Either handle can additionally be **versioned** ([`Data::versioned`] /
//! [`PartitionedData::versioned`], normally through
//! [`Runtime::versioned_data`] / [`Runtime::versioned_partitioned`]): its
//! storage is then a **version chain** — a `Data` is one chain, a partition
//! is `n` chains, one per chunk — and an `output` access allocates a fresh
//! version of the chain it names instead of inheriting WAR/WAW dependences:
//! the automatic renaming of [`crate::rename`]. What a chain does (bind the
//! current version, elide a first write, rename or fall back, un-elide,
//! commit, release and reclaim) is written once in this module, over a
//! description of who owns the chain (`ChainOwner`). A whole-array access
//! binds (for `output`: renames) the current version of every chunk's chain,
//! and the backing `Vec<T>` is reassembled from the chunks' final versions
//! when the partition is unwrapped ([`PartitionedData::try_into_vec`] /
//! [`Runtime::into_vec`]).
//!
//! [`Runtime::versioned_data`]: crate::Runtime::versioned_data
//! [`Runtime::versioned_partitioned`]: crate::Runtime::versioned_partitioned
//! [`Runtime::into_vec`]: crate::Runtime::into_vec

use std::cell::UnsafeCell;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::access::{Access, AccessKind};
use crate::region::{AllocId, Region, RegionId};
use crate::rename::{RenameCx, RenameEvent, Reservation, ResolvedAccess, VersionTicket};
use crate::stats::StatField;

/// Trait of everything that can appear in an access clause.
pub trait Accessible {
    /// The memory region this handle stands for. For a versioned handle this
    /// is the region of the *current* version.
    fn region(&self) -> Region;

    /// Every region a synchronisation on this handle must cover. Plain
    /// handles have exactly one; a versioned handle reports the region of
    /// every version still referenced by in-flight tasks, so that
    /// `taskwait_on` waits for tasks bound to superseded versions too.
    fn sync_regions(&self) -> Vec<Region> {
        vec![self.region()]
    }

    /// Resolve a declared access to a concrete region (and, for versioned
    /// handles, a concrete data version) at task-insertion time. The default
    /// implementation performs no renaming.
    fn resolve(&self, kind: AccessKind, cx: &RenameCx<'_>) -> ResolvedAccess {
        let _ = cx;
        ResolvedAccess::plain(Access::new(self.region(), kind))
    }

    /// Stable identity of this handle for
    /// [`ReplayBindings`](crate::ReplayBindings) lookups: the **canonical**
    /// region id, unchanged by version renaming. Two clones naming the same
    /// logical object report the same key whatever concrete version either
    /// currently points at, so a binding installed against the handle used
    /// at capture time matches every recorded clause on that handle.
    fn replay_key(&self) -> RegionId {
        self.region().id
    }
}

// ---------------------------------------------------------------------------
// The version chain
// ---------------------------------------------------------------------------

/// One version chain: the live versions of one renameable unit of storage —
/// a whole [`Data`], or one chunk of a versioned [`PartitionedData`] — plus
/// its recycle pool and which version is current. `C` is what one version
/// stores (`T`, or a chunk's `Vec<T>`). See [`crate::rename`] for the model.
struct ChainState<C> {
    /// Live versions. Slot cells are boxed so their addresses survive the
    /// vector reallocating.
    slots: Vec<Slot<C>>,
    /// Recycled storage (bounded by the runtime's rename pool depth).
    free: Vec<FreeSlot<C>>,
    /// Index into `slots` of the current (program-order latest) version.
    current: usize,
}

struct Slot<C> {
    alloc: AllocId,
    cell: Box<UnsafeCell<C>>,
    /// In-flight tasks bound to this version.
    refs: usize,
    /// Budget share of this version; `None` for the canonical first slot
    /// (which exists whether or not renaming ever happens).
    reservation: Option<Reservation>,
}

struct FreeSlot<C> {
    cell: Box<UnsafeCell<C>>,
    reservation: Option<Reservation>,
}

impl<C> ChainState<C> {
    /// A chain holding only its canonical version.
    fn new(alloc: AllocId, value: C) -> Self {
        ChainState {
            slots: vec![Slot {
                alloc,
                cell: Box::new(UnsafeCell::new(value)),
                refs: 0,
                reservation: None,
            }],
            free: Vec::new(),
            current: 0,
        }
    }

    fn slot_index(&self, alloc: AllocId) -> Option<usize> {
        self.slots.iter().position(|s| s.alloc == alloc)
    }

    /// Recycle slot `idx` if it is superseded and unreferenced. The storage
    /// goes back to the free pool when there is room, otherwise it is
    /// dropped (returning its bytes to the rename budget).
    fn reclaim(&mut self, idx: usize, pool_depth: usize) {
        if idx == self.current || self.slots[idx].refs != 0 {
            return;
        }
        let slot = self.slots.swap_remove(idx);
        if self.current == self.slots.len() {
            // `current` pointed at the slot that was swapped into `idx`.
            self.current = idx;
        }
        if self.free.len() < pool_depth {
            self.free.push(FreeSlot {
                cell: slot.cell,
                reservation: slot.reservation,
            });
        }
    }
}

/// Who owns version chains and what one of their versions looks like. All
/// that ever happens to a [`ChainState`] — [`resolve_chains`], [`rename`],
/// [`bind_current`] and the [`ChainTicket`] release / commit / un-elide — is
/// written once over this description: a [`Data`] is one chain, a versioned
/// [`PartitionedData`] is one chain per chunk.
trait ChainOwner: Send + Sync + 'static {
    /// Storage of one version.
    type Cell;

    /// Chain `i` (always `0` for a [`Data`]; the chunk index for a
    /// partition). Only called on versioned storage.
    fn chain(&self, i: usize) -> &Mutex<ChainState<Self::Cell>>;

    /// The sub-region of the handle that chain `i` versions: the identity
    /// its bindings are keyed by, whatever concrete version they resolve to.
    fn canonical(&self, i: usize) -> Region;

    /// Region of the version of chain `i` with allocation identity `alloc`.
    fn version_region(&self, i: usize, alloc: AllocId) -> Region;

    /// Bytes one version of chain `i` draws from the rename budget.
    fn bytes_per_version(&self, i: usize) -> usize;

    /// The contents a freshly allocated version of chain `i` starts from.
    fn make(&self, i: usize) -> Self::Cell;

    /// Storage pointer and element count of a version cell of chain `i`.
    fn cell_ptr(&self, i: usize, cell: &UnsafeCell<Self::Cell>) -> (*mut (), usize);

    /// Chunk index the [`RenameEvent`]s of chain `i` report.
    fn chunk(&self, i: usize) -> Option<u32>;

    /// An access of `kind` bound to the version of chain `i` with identity
    /// `alloc`, stored in `cell`. The version's storage pointer is resolved
    /// here, once, so the task-body guards never lock the chain.
    fn bound_access(
        &self,
        i: usize,
        alloc: AllocId,
        cell: &UnsafeCell<Self::Cell>,
        kind: AccessKind,
    ) -> Access {
        let (ptr, len) = self.cell_ptr(i, cell);
        Access::bound_to(
            self.version_region(i, alloc),
            kind,
            self.canonical(i),
            ptr,
            len,
        )
    }

    /// Region of the current version of chain `i`.
    fn current_region(&self, i: usize) -> Region {
        let st = self.chain(i).lock();
        self.version_region(i, st.slots[st.current].alloc)
    }

    /// Region of every live version of chain `i` (what a synchronisation on
    /// it must cover).
    fn live_regions(&self, i: usize) -> Vec<Region> {
        let st = self.chain(i).lock();
        st.slots
            .iter()
            .map(|s| self.version_region(i, s.alloc))
            .collect()
    }
}

/// A task's binding to one version of one chain: the release hook, run
/// exactly once (task completion, or an abandoned builder), and — for a
/// binding a rename made — that rename's pending commit.
struct ChainTicket<O: ChainOwner> {
    owner: Arc<O>,
    chain: usize,
    alloc: AllocId,
    pool_depth: usize,
    /// The bound version was allocated by a rename and is not current yet.
    uncommitted: bool,
}

impl<O: ChainOwner> VersionTicket for ChainTicket<O> {
    fn release(&self) {
        let mut st = self.owner.chain(self.chain).lock();
        if let Some(idx) = st.slot_index(self.alloc) {
            debug_assert!(st.slots[idx].refs > 0, "ticket released twice");
            st.slots[idx].refs -= 1;
            st.reclaim(idx, self.pool_depth);
        }
    }

    fn commit(&mut self) {
        if !std::mem::take(&mut self.uncommitted) {
            return;
        }
        let mut st = self.owner.chain(self.chain).lock();
        if let Some(idx) = st.slot_index(self.alloc) {
            if idx != st.current {
                let superseded = st.current;
                st.current = idx;
                st.reclaim(superseded, self.pool_depth);
            }
        }
    }

    fn unelide(&mut self, cx: &RenameCx<'_>) -> Option<(Access, RenameEvent)> {
        let mut st = self.owner.chain(self.chain).lock();
        let idx = st.slot_index(self.alloc)?;
        if idx != st.current {
            // Not an in-place binding on the current version: nothing to
            // un-elide (the write already targets its own version).
            return None;
        }
        let (access, event) = rename(&*self.owner, self.chain, &mut st, AccessKind::Output, cx)?;
        // The binding moves to the fresh version; release the in-place
        // reference it held. The old version stays current — and readable —
        // until the commit at insertion.
        debug_assert!(st.slots[idx].refs > 0, "elided binding already released");
        st.slots[idx].refs -= 1;
        cx.stats.undo(StatField::RenamesElided);
        self.alloc = event.to;
        self.uncommitted = true;
        Some((access, event))
    }
}

/// Bind the current version of chain `i`: bump its refcount and build the
/// access. `elided` marks the binding as an elided in-place `output` (so the
/// clause set can un-elide it if an `input` on the same sub-region follows).
fn bind_current<O: ChainOwner>(
    owner: &O,
    i: usize,
    st: &mut ChainState<O::Cell>,
    kind: AccessKind,
    elided: bool,
) -> Access {
    let slot = &mut st.slots[st.current];
    slot.refs += 1;
    let access = owner.bound_access(i, slot.alloc, &slot.cell, kind);
    if elided {
        access.mark_elided()
    } else {
        access
    }
}

/// The rename arm shared by [`resolve_chains`] and [`ChainTicket::unelide`]:
/// with the chain lock held, allocate (or pool-recycle) a fresh version and
/// bind the task to it (refs = 1). Returns `None` — after counting a
/// fallback — when the chain is at its version bound or the byte budget
/// refuses the reservation.
fn rename<O: ChainOwner>(
    owner: &O,
    i: usize,
    st: &mut ChainState<O::Cell>,
    kind: AccessKind,
    cx: &RenameCx<'_>,
) -> Option<(Access, RenameEvent)> {
    // Version-count backpressure first: a `Data`'s byte accounting is
    // shallow (`size_of::<T>()` unless a deep hint was given), so this is
    // the bound that actually limits heap-backed types. Then prefer recycled
    // storage (no new memory), else draw on the budget.
    let storage = if st.slots.len() >= cx.max_versions() {
        None
    } else if let Some(free) = st.free.pop() {
        Some((free.cell, free.reservation, true))
    } else {
        cx.try_reserve(owner.bytes_per_version(i))
            .map(|res| (Box::new(UnsafeCell::new(owner.make(i))), Some(res), false))
    };
    let Some((cell, reservation, recycled)) = storage else {
        cx.stats.add(StatField::RenameFallbacks, 1);
        return None;
    };
    let alloc = AllocId::fresh();
    let from = st.slots[st.current].alloc;
    let access = owner.bound_access(i, alloc, &cell, kind);
    // The new version is allocated (and this task bound to it) but NOT yet
    // current: it becomes the handle's value only when the task is actually
    // inserted (`ClauseSet::commit` runs the ticket's commit). A clause set
    // abandoned before that releases its ticket, reclaiming the
    // never-current version without disturbing the handle.
    st.slots.push(Slot {
        alloc,
        cell,
        refs: 1,
        reservation,
    });
    let chunk = owner.chunk(i);
    cx.stats.add(StatField::Renames, 1);
    cx.stats
        .add(StatField::ChunkRenames, u64::from(chunk.is_some()));
    cx.stats
        .add(StatField::RenamesRecycled, u64::from(recycled));
    let event = RenameEvent {
        from,
        to: alloc,
        recycled,
        chunk,
    };
    Some((access, event))
}

/// Resolve an access of `kind` against each of `chains` in turn — one chain
/// for a [`Data`] or a [`Chunk`], every chunk's chain for a whole-array
/// clause, which binds (for `output`: renames) the current version of all of
/// them.
fn resolve_chains<O: ChainOwner>(
    owner: &Arc<O>,
    chains: std::ops::Range<usize>,
    kind: AccessKind,
    cx: &RenameCx<'_>,
) -> ResolvedAccess {
    let mut out = ResolvedAccess::default();
    for i in chains {
        let mut st = owner.chain(i).lock();
        // Reads (and in-place updates) bind the latest version: true
        // dependences are preserved, `inout` chains still serialise.
        let writes_fresh = kind == AccessKind::Output && cx.renaming_enabled();
        // First-write rename elision: nobody is bound to the current version
        // (ticket release happens after completion is published, so "no
        // bindings" means every earlier task on this version is a tombstone
        // that can take no WAR/WAW edge) — overwrite it in place instead of paying
        // for a version that would conflict with nothing anyway. The binding
        // is marked elided so the clause set can undo it if an `input` on
        // the same sub-region follows (the output-before-input corner).
        let elide = writes_fresh && cx.elision_enabled() && st.slots[st.current].refs == 0;
        if elide {
            cx.stats.add(StatField::RenamesElided, 1);
        }
        // `output`: rename; if the version bound or the byte budget refuses,
        // fall back to the current version, serialising like the
        // non-renaming runtime.
        let renamed = if writes_fresh && !elide {
            rename(&**owner, i, &mut st, kind, cx)
        } else {
            None
        };
        let (access, event) = match renamed {
            Some((access, event)) => (access, Some(event)),
            None => (bind_current(&**owner, i, &mut st, kind, elide), None),
        };
        drop(st);
        let ticket = Box::new(ChainTicket {
            owner: owner.clone(),
            chain: i,
            alloc: access.region.id.alloc,
            pool_depth: cx.pool_depth(),
            uncommitted: event.is_some(),
        });
        out.bind(access, ticket, event);
    }
    out
}

// ---------------------------------------------------------------------------
// Data<T>
// ---------------------------------------------------------------------------

pub(crate) struct DataInner<T> {
    /// Canonical region: its allocation id is the stable identity ("root")
    /// of the handle, and — for plain storage — the region used in clauses.
    pub(crate) region: Region,
    storage: Storage<T>,
}

enum Storage<T> {
    /// A single cell; accesses always resolve to the canonical region.
    Plain(UnsafeCell<T>),
    /// One version chain; `output` accesses may rename (see
    /// [`crate::rename`]).
    Versioned(Chain<T>),
}

struct Chain<T> {
    /// Produces the value a freshly allocated version starts from.
    make: Box<dyn Fn() -> T + Send + Sync>,
    /// Bytes one version is accounted for against the rename budget. Defaults
    /// to the shallow `size_of::<T>()`; [`Data::versioned_with_size`] lets
    /// heap-backed types declare their deep payload.
    bytes_per_version: usize,
    state: Mutex<ChainState<T>>,
}

// SAFETY: access to the cells is mediated by the runtime: a mutable guard is
// only produced for a task that declared a write access, tasks with
// conflicting declared accesses on the same version are ordered by the
// dependence graph, and distinct versions are distinct storage. All other
// chain state is behind a mutex.
unsafe impl<T: Send> Send for DataInner<T> {}
unsafe impl<T: Send> Sync for DataInner<T> {}

impl<T> DataInner<T> {
    fn versioned(&self) -> &Chain<T> {
        match &self.storage {
            Storage::Versioned(chain) => chain,
            Storage::Plain(_) => unreachable!("version chains only exist on versioned handles"),
        }
    }
}

impl<T: Send + 'static> ChainOwner for DataInner<T> {
    type Cell = T;

    fn chain(&self, _: usize) -> &Mutex<ChainState<T>> {
        &self.versioned().state
    }

    fn canonical(&self, _: usize) -> Region {
        self.region.clone()
    }

    fn version_region(&self, _: usize, alloc: AllocId) -> Region {
        Region::new(alloc, 0, self.region.bytes.clone())
    }

    fn bytes_per_version(&self, _: usize) -> usize {
        self.versioned().bytes_per_version
    }

    fn make(&self, _: usize) -> T {
        (self.versioned().make)()
    }

    fn cell_ptr(&self, _: usize, cell: &UnsafeCell<T>) -> (*mut (), usize) {
        (cell.get() as *mut (), 1)
    }

    fn chunk(&self, _: usize) -> Option<u32> {
        None
    }
}

/// A handle to a single shared object managed by the runtime.
///
/// Cloning the handle is cheap (it is reference counted); all clones refer to
/// the same object and the same dependence region.
pub struct Data<T> {
    pub(crate) inner: Arc<DataInner<T>>,
}

impl<T> Clone for Data<T> {
    fn clone(&self) -> Self {
        Data {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Data<T> {
    /// Wrap `value` in a new handle with its own fresh region.
    ///
    /// Normally constructed through [`Runtime::data`](crate::Runtime::data);
    /// exposed for tests and for building handles before a runtime exists.
    pub fn new(value: T) -> Self {
        let alloc = AllocId::fresh();
        let size = std::mem::size_of::<T>().max(1);
        Data {
            inner: Arc::new(DataInner {
                region: Region::new(alloc, 0, 0..size),
                storage: Storage::Plain(UnsafeCell::new(value)),
            }),
        }
    }

    /// Wrap `value` in a *versioned* handle: `output` accesses rename to a
    /// fresh version (initialised with `T::default()`) instead of inheriting
    /// WAR/WAW dependences. See [`crate::rename`] for the full model.
    ///
    /// Normally constructed through
    /// [`Runtime::versioned_data`](crate::Runtime::versioned_data).
    pub fn versioned(value: T) -> Self
    where
        T: Default,
    {
        Self::versioned_with(value, T::default)
    }

    /// Like [`Data::versioned`], but fresh versions are initialised with
    /// `make()` instead of `T::default()`.
    pub fn versioned_with(value: T, make: impl Fn() -> T + Send + Sync + 'static) -> Self {
        Self::versioned_with_size(value, make, std::mem::size_of::<T>())
    }

    /// Like [`Data::versioned_with`], additionally declaring how many bytes
    /// one version of this handle really occupies (**deep** size, including
    /// heap payloads such as a `Vec<T>`'s buffer). Renamed versions draw
    /// `bytes_per_version` from the global rename budget instead of the
    /// shallow `size_of::<T>()`, which makes
    /// [`RuntimeConfig::rename_memory_cap`](crate::RuntimeConfig) meaningful
    /// for heap-backed types.
    pub fn versioned_with_size(
        value: T,
        make: impl Fn() -> T + Send + Sync + 'static,
        bytes_per_version: usize,
    ) -> Self {
        let alloc = AllocId::fresh();
        let size = std::mem::size_of::<T>().max(1);
        Data {
            inner: Arc::new(DataInner {
                region: Region::new(alloc, 0, 0..size),
                storage: Storage::Versioned(Chain {
                    make: Box::new(make),
                    bytes_per_version,
                    state: Mutex::new(ChainState::new(alloc, value)),
                }),
            }),
        }
    }

    /// Whether this handle carries a version chain (renaming-capable).
    pub fn is_versioned(&self) -> bool {
        matches!(self.inner.storage, Storage::Versioned(_))
    }

    /// Number of live versions (1 for plain handles; diagnostics).
    pub fn live_versions(&self) -> usize {
        match &self.inner.storage {
            Storage::Plain(_) => 1,
            Storage::Versioned(chain) => chain.state.lock().slots.len(),
        }
    }

    /// Recover the inner value if this is the last handle. For a versioned
    /// handle this is the value of the **current** version — the final
    /// version of the program, "committed back" once all tasks finished.
    pub fn try_into_inner(self) -> Result<T, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => match inner.storage {
                Storage::Plain(cell) => Ok(cell.into_inner()),
                Storage::Versioned(chain) => {
                    let mut st = chain.state.into_inner();
                    let current = st.current;
                    Ok(st.slots.swap_remove(current).cell.into_inner())
                }
            },
            Err(arc) => Err(Data { inner: arc }),
        }
    }

    /// Number of live handles to this object (diagnostics).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Stable identity of the handle across versions.
    pub(crate) fn root_alloc(&self) -> AllocId {
        self.inner.region.id.alloc
    }

    /// Pointer to the storage of the version with allocation id `alloc`.
    /// Returns `None` when no live version has that id.
    pub(crate) fn ptr_for_alloc(&self, alloc: AllocId) -> Option<*mut T> {
        match &self.inner.storage {
            Storage::Plain(cell) => (alloc == self.inner.region.id.alloc).then(|| cell.get()),
            Storage::Versioned(chain) => {
                let st = chain.state.lock();
                st.slot_index(alloc).map(|i| st.slots[i].cell.get())
            }
        }
    }
}

impl<T: Send + 'static> Accessible for Data<T> {
    fn region(&self) -> Region {
        match &self.inner.storage {
            Storage::Plain(_) => self.inner.region.clone(),
            Storage::Versioned(_) => self.inner.current_region(0),
        }
    }

    fn sync_regions(&self) -> Vec<Region> {
        match &self.inner.storage {
            Storage::Plain(_) => vec![self.inner.region.clone()],
            Storage::Versioned(_) => self.inner.live_regions(0),
        }
    }

    fn replay_key(&self) -> RegionId {
        // The canonical ("root") region, not the current version's: stable
        // across renames, shared by every clone of the handle.
        self.inner.region.id
    }

    fn resolve(&self, kind: AccessKind, cx: &RenameCx<'_>) -> ResolvedAccess {
        match &self.inner.storage {
            Storage::Plain(cell) => ResolvedAccess::plain(
                Access::new(self.inner.region.clone(), kind).with_ptr(cell.get() as *mut (), 1),
            ),
            Storage::Versioned(_) => resolve_chains(&self.inner, 0..1, kind, cx),
        }
    }
}

impl<T> std::fmt::Debug for Data<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner.storage {
            Storage::Plain(_) => write!(f, "Data({})", self.inner.region.id),
            Storage::Versioned(chain) => {
                let st = chain.state.lock();
                write!(
                    f,
                    "Data({}, {} versions, current {})",
                    self.inner.region.id,
                    st.slots.len(),
                    st.slots[st.current].alloc.raw()
                )
            }
        }
    }
}

/// Shared read guard produced by [`TaskContext::read`](crate::runtime::TaskContext::read).
pub struct ReadGuard<'a, T> {
    pub(crate) value: &'a T,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value
    }
}

/// Exclusive write guard produced by [`TaskContext::write`](crate::runtime::TaskContext::write).
pub struct WriteGuard<'a, T> {
    pub(crate) value: &'a mut T,
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value
    }
}

// ---------------------------------------------------------------------------
// PartitionedData<T>
// ---------------------------------------------------------------------------

pub(crate) struct PartInner<T> {
    pub(crate) alloc: AllocId,
    /// Element ranges of each chunk (disjoint, covering `0..len`).
    pub(crate) chunks: Vec<std::ops::Range<usize>>,
    pub(crate) elem_size: usize,
    pub(crate) len: usize,
    storage: PartStorage<T>,
}

enum PartStorage<T> {
    /// One contiguous backing vector; chunk accesses resolve to canonical
    /// sub-regions of the single allocation.
    Plain(UnsafeCell<Vec<T>>),
    /// One version chain **per chunk**: `output` accesses rename individual
    /// chunks (see [`crate::rename`], "Region granularity").
    Versioned(PartChains<T>),
}

struct PartChains<T> {
    /// Produces the contents a freshly allocated chunk version starts from
    /// (argument: chunk length in elements).
    make: Box<dyn Fn(usize) -> Vec<T> + Send + Sync>,
    /// Chain `i` versions chunk `i`, with the chunk's `Vec<T>` as the
    /// per-version storage.
    chains: Vec<Mutex<ChainState<Vec<T>>>>,
}

impl<T> PartInner<T> {
    fn is_versioned(&self) -> bool {
        matches!(self.storage, PartStorage::Versioned(_))
    }

    fn versioned(&self) -> &PartChains<T> {
        match &self.storage {
            PartStorage::Versioned(chains) => chains,
            PartStorage::Plain(_) => {
                unreachable!("version chains only exist on versioned partitions")
            }
        }
    }

    /// Canonical region of chunk `i`: a sub-range of the partition's own
    /// allocation. This is the identity chunk bindings are keyed by, whatever
    /// concrete version they resolve to.
    pub(crate) fn chunk_canonical_region(&self, i: usize) -> Region {
        let r = self.chunks[i].clone();
        Region::new(
            self.alloc,
            i as u32 + 1,
            r.start * self.elem_size..r.end * self.elem_size,
        )
    }

    /// Canonical region of the whole array.
    fn whole_region(&self) -> Region {
        Region::new(self.alloc, 0, 0..self.len.max(1) * self.elem_size)
    }

    /// Pointer/length of an element range of the plain backing vector.
    ///
    /// # Panics
    /// Panics on versioned storage (which has no contiguous backing array).
    fn plain_ptr(&self, elems: std::ops::Range<usize>) -> (*mut T, usize) {
        match &self.storage {
            PartStorage::Plain(cell) => {
                // SAFETY: we only manufacture the pointer here; dereferencing
                // is gated by the runtime (see module docs).
                let base = unsafe { (*cell.get()).as_mut_ptr() };
                // SAFETY: `elems` is a chunk range validated against the
                // backing vector's length at partition time, so the offset
                // stays within the same allocation.
                (unsafe { base.add(elems.start) }, elems.len())
            }
            PartStorage::Versioned(_) => {
                unreachable!("plain_ptr is only called for plain partitions")
            }
        }
    }
}

impl<T: Send + 'static> PartInner<T> {
    /// All regions a synchronisation on chunk `i` must cover.
    fn chunk_sync_regions(&self, i: usize) -> Vec<Region> {
        match &self.storage {
            PartStorage::Plain(_) => vec![self.chunk_canonical_region(i)],
            PartStorage::Versioned(_) => self.live_regions(i),
        }
    }

    /// All regions a synchronisation on the whole array must cover.
    fn whole_sync_regions(&self) -> Vec<Region> {
        match &self.storage {
            PartStorage::Plain(_) => vec![self.whole_region()],
            PartStorage::Versioned(_) => (0..self.chunks.len())
                .flat_map(|i| self.chunk_sync_regions(i))
                .collect(),
        }
    }
}

// SAFETY: the `UnsafeCell` backing store (plain tier) and raw chunk
// pointers are only dereferenced through task guards, and the runtime's
// dependence tracking serialises conflicting accesses (same argument as
// `DataInner`); all other state is behind locks or atomics, so sharing the
// partition across threads is sound for `T: Send`.
unsafe impl<T: Send> Send for PartInner<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send> Sync for PartInner<T> {}

impl<T: Send + 'static> ChainOwner for PartInner<T> {
    type Cell = Vec<T>;

    fn chain(&self, i: usize) -> &Mutex<ChainState<Vec<T>>> {
        &self.versioned().chains[i]
    }

    fn canonical(&self, i: usize) -> Region {
        self.chunk_canonical_region(i)
    }

    fn version_region(&self, i: usize, alloc: AllocId) -> Region {
        Region::new(alloc, 0, 0..self.chunks[i].len() * self.elem_size)
    }

    /// The chunk's deep payload, so the byte budget is meaningful for
    /// partitions however large their element chunks are.
    fn bytes_per_version(&self, i: usize) -> usize {
        self.chunks[i].len() * self.elem_size
    }

    fn make(&self, i: usize) -> Vec<T> {
        let fresh = (self.versioned().make)(self.chunks[i].len());
        debug_assert_eq!(
            fresh.len(),
            self.chunks[i].len(),
            "make() returned the wrong length"
        );
        fresh
    }

    fn cell_ptr(&self, i: usize, cell: &UnsafeCell<Vec<T>>) -> (*mut (), usize) {
        // SAFETY: pointer manufacture only; the caller holds the chain lock,
        // and the version cannot be reclaimed while a ticket on it is live.
        let ptr = unsafe { (*cell.get()).as_mut_ptr() };
        (ptr as *mut (), self.chunks[i].len())
    }

    fn chunk(&self, i: usize) -> Option<u32> {
        Some(i as u32)
    }
}

/// A `Vec<T>` partitioned into disjoint chunks, each chunk being an
/// independent dependence region.
///
/// Chunk `i` covers elements `chunk_ranges()[i]`; chunk regions use byte
/// ranges derived from element indices so that a whole-array handle
/// ([`PartitionedData::whole`]) overlaps every chunk.
pub struct PartitionedData<T> {
    pub(crate) inner: Arc<PartInner<T>>,
}

impl<T> Clone for PartitionedData<T> {
    fn clone(&self) -> Self {
        PartitionedData {
            inner: self.inner.clone(),
        }
    }
}

fn chunk_ranges(len: usize, chunk_len: usize) -> Vec<std::ops::Range<usize>> {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let mut chunks = Vec::new();
    let mut start = 0;
    while start < len {
        let end = (start + chunk_len).min(len);
        chunks.push(start..end);
        start = end;
    }
    if chunks.is_empty() {
        chunks.push(0..0);
    }
    chunks
}

impl<T: Send + 'static> PartitionedData<T> {
    /// Partition `data` into chunks of at most `chunk_len` elements.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn new(data: Vec<T>, chunk_len: usize) -> Self {
        let len = data.len();
        let chunks = chunk_ranges(len, chunk_len);
        PartitionedData {
            inner: Arc::new(PartInner {
                alloc: AllocId::fresh(),
                chunks,
                elem_size: std::mem::size_of::<T>().max(1),
                len,
                storage: PartStorage::Plain(UnsafeCell::new(data)),
            }),
        }
    }

    /// Partition `data` into a **versioned** partition: every chunk owns its
    /// own version chain, so an `output` access to one chunk renames just
    /// that chunk (fresh versions start from `T::default()`); see
    /// [`crate::rename`]. Normally constructed through
    /// [`Runtime::versioned_partitioned`](crate::Runtime::versioned_partitioned).
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn versioned(data: Vec<T>, chunk_len: usize) -> Self
    where
        T: Default,
    {
        Self::versioned_with(data, chunk_len, |len| {
            (0..len).map(|_| T::default()).collect()
        })
    }

    /// Like [`PartitionedData::versioned`], but fresh chunk versions are
    /// produced by `make(chunk_len)` instead of `T::default()` fills.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn versioned_with(
        mut data: Vec<T>,
        chunk_len: usize,
        make: impl Fn(usize) -> Vec<T> + Send + Sync + 'static,
    ) -> Self {
        let len = data.len();
        let chunks = chunk_ranges(len, chunk_len);
        // Split the vector into one owned buffer per chunk, back to front so
        // each split_off detaches exactly one chunk.
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(chunks.len());
        for r in chunks.iter().rev() {
            parts.push(data.split_off(r.start));
        }
        parts.reverse();
        let chains = parts
            .into_iter()
            .map(|part| Mutex::new(ChainState::new(AllocId::fresh(), part)))
            .collect();
        PartitionedData {
            inner: Arc::new(PartInner {
                alloc: AllocId::fresh(),
                chunks,
                elem_size: std::mem::size_of::<T>().max(1),
                len,
                storage: PartStorage::Versioned(PartChains {
                    make: Box::new(make),
                    chains,
                }),
            }),
        }
    }

    /// Whether this partition versions its chunks (renaming-capable).
    pub fn is_versioned(&self) -> bool {
        self.inner.is_versioned()
    }

    /// Number of live versions of chunk `i` (1 for plain partitions;
    /// diagnostics).
    pub fn live_chunk_versions(&self, i: usize) -> usize {
        match &self.inner.storage {
            PartStorage::Plain(_) => 1,
            PartStorage::Versioned(chains) => chains.chains[i].lock().slots.len(),
        }
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.inner.chunks.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the partitioned vector is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Element range of chunk `i`.
    pub fn chunk_range(&self, i: usize) -> std::ops::Range<usize> {
        self.inner.chunks[i].clone()
    }

    /// Handle naming chunk `i` in access clauses.
    pub fn chunk(&self, i: usize) -> Chunk<T> {
        assert!(i < self.num_chunks(), "chunk index out of range");
        Chunk {
            inner: self.inner.clone(),
            index: i,
        }
    }

    /// Handle naming the whole array in access clauses (conflicts with every
    /// chunk).
    pub fn whole(&self) -> Whole<T> {
        Whole {
            inner: self.inner.clone(),
        }
    }

    /// Iterate over all chunk handles.
    pub fn chunk_handles(&self) -> impl Iterator<Item = Chunk<T>> + '_ {
        (0..self.num_chunks()).map(move |i| self.chunk(i))
    }

    /// Recover the inner vector if this is the last handle. For a versioned
    /// partition this **reassembles** the array from every chunk's *current*
    /// version — the final value of the program, committed back chunk by
    /// chunk.
    pub fn try_into_vec(self) -> Result<Vec<T>, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => match inner.storage {
                PartStorage::Plain(cell) => Ok(cell.into_inner()),
                PartStorage::Versioned(chains) => {
                    let mut out = Vec::with_capacity(inner.len);
                    for chain in chains.chains {
                        let mut st = chain.into_inner();
                        let current = st.current;
                        out.extend(st.slots.swap_remove(current).cell.into_inner());
                    }
                    Ok(out)
                }
            },
            Err(arc) => Err(PartitionedData { inner: arc }),
        }
    }
}

impl<T: Send + 'static> Accessible for PartitionedData<T> {
    fn region(&self) -> Region {
        self.inner.whole_region()
    }

    fn sync_regions(&self) -> Vec<Region> {
        self.inner.whole_sync_regions()
    }

    fn resolve(&self, kind: AccessKind, cx: &RenameCx<'_>) -> ResolvedAccess {
        self.whole().resolve(kind, cx)
    }

    fn replay_key(&self) -> RegionId {
        self.inner.whole_region().id
    }
}

impl<T> std::fmt::Debug for PartitionedData<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PartitionedData(alloc {}, {} chunks{})",
            self.inner.alloc.raw(),
            self.inner.chunks.len(),
            if self.inner.is_versioned() {
                ", versioned"
            } else {
                ""
            }
        )
    }
}

/// Handle to one chunk of a [`PartitionedData`].
pub struct Chunk<T> {
    pub(crate) inner: Arc<PartInner<T>>,
    pub(crate) index: usize,
}

impl<T> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        Chunk {
            inner: self.inner.clone(),
            index: self.index,
        }
    }
}

impl<T> Chunk<T> {
    /// Chunk index within the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Element range covered by this chunk.
    pub fn elem_range(&self) -> std::ops::Range<usize> {
        self.inner.chunks[self.index].clone()
    }

    /// Number of elements in the chunk.
    pub fn len(&self) -> usize {
        let r = self.elem_range();
        r.end - r.start
    }

    /// Whether the chunk holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the owning partition versions its chunks.
    pub fn is_versioned(&self) -> bool {
        self.inner.is_versioned()
    }

    pub(crate) fn slice_ptr(&self) -> (*mut T, usize) {
        self.inner.plain_ptr(self.elem_range())
    }
}

impl<T: Send + 'static> Accessible for Chunk<T> {
    fn region(&self) -> Region {
        match &self.inner.storage {
            PartStorage::Plain(_) => self.inner.chunk_canonical_region(self.index),
            PartStorage::Versioned(_) => self.inner.current_region(self.index),
        }
    }

    fn sync_regions(&self) -> Vec<Region> {
        self.inner.chunk_sync_regions(self.index)
    }

    fn resolve(&self, kind: AccessKind, cx: &RenameCx<'_>) -> ResolvedAccess {
        match &self.inner.storage {
            PartStorage::Plain(_) => ResolvedAccess::plain(Access::new(
                self.inner.chunk_canonical_region(self.index),
                kind,
            )),
            PartStorage::Versioned(_) => {
                resolve_chains(&self.inner, self.index..self.index + 1, kind, cx)
            }
        }
    }

    fn replay_key(&self) -> RegionId {
        self.inner.chunk_canonical_region(self.index).id
    }
}

impl<T> std::fmt::Debug for Chunk<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Chunk(alloc {}, #{} [{:?}])",
            self.inner.alloc.raw(),
            self.index,
            self.elem_range()
        )
    }
}

/// Handle to the whole array of a [`PartitionedData`].
pub struct Whole<T> {
    pub(crate) inner: Arc<PartInner<T>>,
}

impl<T> Clone for Whole<T> {
    fn clone(&self) -> Self {
        Whole {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Whole<T> {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Whether the owning partition versions its chunks.
    pub fn is_versioned(&self) -> bool {
        self.inner.is_versioned()
    }

    pub(crate) fn slice_ptr(&self) -> (*mut T, usize) {
        self.inner.plain_ptr(0..self.inner.len)
    }
}

impl<T: Send + 'static> Accessible for Whole<T> {
    fn region(&self) -> Region {
        self.inner.whole_region()
    }

    fn sync_regions(&self) -> Vec<Region> {
        self.inner.whole_sync_regions()
    }

    fn resolve(&self, kind: AccessKind, cx: &RenameCx<'_>) -> ResolvedAccess {
        match &self.inner.storage {
            PartStorage::Plain(_) => {
                ResolvedAccess::plain(Access::new(self.inner.whole_region(), kind))
            }
            PartStorage::Versioned(_) => {
                resolve_chains(&self.inner, 0..self.inner.chunks.len(), kind, cx)
            }
        }
    }

    fn replay_key(&self) -> RegionId {
        self.inner.whole_region().id
    }
}

impl<T> std::fmt::Debug for Whole<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Whole(alloc {})", self.inner.alloc.raw())
    }
}

/// Read guard over a slice (chunk or whole array).
pub struct SliceReadGuard<'a, T> {
    pub(crate) slice: &'a [T],
}

impl<T> std::ops::Deref for SliceReadGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.slice
    }
}

/// Write guard over a slice (chunk or whole array).
pub struct SliceWriteGuard<'a, T> {
    pub(crate) slice: &'a mut [T],
}

impl<T> std::ops::Deref for SliceWriteGuard<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.slice
    }
}

impl<T> std::ops::DerefMut for SliceWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rename::RenamePool;
    use proptest::prelude::*;

    /// Run the deferred rename commits of a resolution, as insertion does.
    fn commit(r: &mut ResolvedAccess) {
        assert!(!r.renamed.is_empty(), "resolution renamed");
        for t in &mut r.tickets {
            t.commit();
        }
    }

    /// Release every version binding of a resolution, as task completion
    /// does.
    fn release(mut r: ResolvedAccess) {
        for t in r.tickets.drain(..) {
            t.release();
        }
    }

    /// A rename budget and the counters resolutions against it tally into,
    /// as a runtime lends them.
    struct Budget {
        pool: Arc<RenamePool>,
        stats: crate::stats::StatCounters,
    }

    impl Budget {
        fn new(cap: usize) -> Self {
            Budget {
                pool: Arc::new(RenamePool::new(cap)),
                stats: Default::default(),
            }
        }

        fn bytes_held(&self) -> usize {
            self.pool.bytes_held()
        }

        fn renames(&self) -> u64 {
            self.stats.get(StatField::Renames)
        }

        fn chunk_renames(&self) -> u64 {
            self.stats.get(StatField::ChunkRenames)
        }

        fn recycled(&self) -> u64 {
            self.stats.get(StatField::RenamesRecycled)
        }

        fn fallbacks(&self) -> u64 {
            self.stats.get(StatField::RenameFallbacks)
        }

        fn elided(&self) -> u64 {
            self.stats.get(StatField::RenamesElided)
        }
    }

    /// A context with elision *off*, so the long-standing rename tests keep
    /// exercising the allocate-a-fresh-version path; `cx_eliding` opts in.
    fn cx(budget: &Budget, enabled: bool) -> RenameCx<'_> {
        RenameCx {
            enabled,
            elision: false,
            pool: &budget.pool,
            stats: &budget.stats,
            pool_depth: 4,
            max_versions: 16,
            fault: None,
        }
    }

    fn cx_eliding(budget: &Budget) -> RenameCx<'_> {
        RenameCx {
            elision: true,
            ..cx(budget, true)
        }
    }

    #[test]
    fn data_roundtrip() {
        let d = Data::new(41u64);
        assert_eq!(d.handle_count(), 1);
        let d2 = d.clone();
        assert_eq!(d.handle_count(), 2);
        assert!(d2.region().overlaps(&d.region()));
        drop(d2);
        assert_eq!(d.try_into_inner().unwrap(), 41);
    }

    #[test]
    fn data_try_into_inner_fails_while_shared() {
        let d = Data::new(1u8);
        let d2 = d.clone();
        let d = d.try_into_inner().unwrap_err();
        drop(d2);
        assert_eq!(d.try_into_inner().unwrap(), 1);
    }

    #[test]
    fn distinct_data_handles_never_overlap() {
        let a = Data::new([0u8; 16]);
        let b = Data::new([0u8; 16]);
        assert!(!a.region().overlaps(&b.region()));
    }

    #[test]
    fn zero_sized_data_still_has_nonempty_region() {
        let d = Data::new(());
        assert!(!d.region().is_empty());
        assert!(d.region().overlaps(&d.region()));
    }

    #[test]
    fn partition_chunk_layout() {
        let p = PartitionedData::new((0..10u32).collect::<Vec<_>>(), 4);
        assert_eq!(p.num_chunks(), 3);
        assert_eq!(p.len(), 10);
        assert_eq!(p.chunk_range(0), 0..4);
        assert_eq!(p.chunk_range(1), 4..8);
        assert_eq!(p.chunk_range(2), 8..10);
        assert_eq!(p.chunk(2).len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn partition_of_empty_vec() {
        let p = PartitionedData::new(Vec::<u8>::new(), 4);
        assert_eq!(p.num_chunks(), 1);
        assert!(p.is_empty());
        assert!(p.chunk(0).is_empty());
        assert_eq!(p.try_into_vec().unwrap(), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn partition_zero_chunk_len_panics() {
        let _ = PartitionedData::new(vec![1u8, 2, 3], 0);
    }

    #[test]
    #[should_panic(expected = "chunk index out of range")]
    fn chunk_out_of_range_panics() {
        let p = PartitionedData::new(vec![1u8, 2, 3], 2);
        let _ = p.chunk(5);
    }

    #[test]
    fn chunk_regions_are_disjoint_and_within_whole() {
        let p = PartitionedData::new(vec![0f64; 100], 7);
        let whole = p.whole().region();
        for i in 0..p.num_chunks() {
            let ri = p.chunk(i).region();
            assert!(whole.contains(&ri), "whole must contain chunk {i}");
            assert!(whole.overlaps(&ri));
            for j in 0..p.num_chunks() {
                if i != j {
                    assert!(
                        !ri.overlaps(&p.chunk(j).region()),
                        "chunks {i} and {j} must not overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn whole_and_partitioned_data_share_region() {
        let p = PartitionedData::new(vec![0u8; 10], 3);
        assert_eq!(p.region(), p.whole().region());
    }

    #[test]
    fn debug_formats() {
        let d = Data::new(3u8);
        let p = PartitionedData::new(vec![1u8, 2, 3], 2);
        assert!(format!("{d:?}").starts_with("Data("));
        assert!(format!("{p:?}").contains("chunks"));
        assert!(format!("{:?}", p.chunk(0)).contains("Chunk"));
        assert!(format!("{:?}", p.whole()).contains("Whole"));
    }

    mod versioned {
        use super::*;

        #[test]
        fn plain_handles_are_not_versioned() {
            let d = Data::new(1u32);
            assert!(!d.is_versioned());
            assert_eq!(d.live_versions(), 1);
        }

        #[test]
        fn output_renames_to_a_fresh_region() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(0u64);
            let before = d.region();
            let mut resolved = d.resolve(AccessKind::Output, &cx(&pool, true));
            // The new version exists but is not current until the spawning
            // point commits it (abandoned builders never do).
            assert_eq!(d.region(), before, "uncommitted rename is invisible");
            commit(&mut resolved);
            let after = d.region();
            assert_ne!(
                before.id.alloc, after.id.alloc,
                "rename advanced the current version"
            );
            assert_eq!(
                resolved.access().region,
                after,
                "output bound the fresh version"
            );
            assert_eq!(resolved.access().root_alloc(), d.root_alloc());
            assert!(!before.overlaps(&after), "versions never conflict");
            assert_eq!(pool.renames(), 1);
            // The superseded version had no in-flight tasks bound to it, so
            // it was recycled at commit: only the fresh version is live.
            assert_eq!(d.live_versions(), 1);
        }

        #[test]
        fn uncommitted_rename_leaves_the_value_untouched() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(42u64);
            let r = d.resolve(AccessKind::Output, &cx(&pool, true));
            // Abandon: release the binding without committing (what
            // dropping an unspawned TaskBuilder does).
            release(r);
            assert_eq!(d.live_versions(), 1);
            assert_eq!(d.try_into_inner().unwrap(), 42, "value must survive");
        }

        #[test]
        fn reads_bind_the_current_version() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(7u64);
            let r = d.resolve(AccessKind::Input, &cx(&pool, true));
            assert_eq!(r.access().region, d.region());
            assert!(r.renamed.is_empty());
            assert_eq!(pool.renames(), 0);
        }

        #[test]
        fn ticket_release_recycles_superseded_versions() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(0u64);
            let cx = cx(&pool, true);
            // Reader pins version 0; writer renames to version 1.
            let reader = d.resolve(AccessKind::Input, &cx);
            let mut writer = d.resolve(AccessKind::Output, &cx);
            commit(&mut writer);
            assert_eq!(d.live_versions(), 2);
            // Reader done: version 0 is superseded and unreferenced -> recycled.
            release(reader);
            assert_eq!(d.live_versions(), 1);
            // Next rename reuses the pooled storage.
            let _w2 = d.resolve(AccessKind::Output, &cx);
            assert_eq!(pool.recycled(), 1);
            release(writer);
        }

        #[test]
        fn renaming_disabled_keeps_one_version() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(0u64);
            let cx = cx(&pool, false);
            let a = d.resolve(AccessKind::Output, &cx);
            let b = d.resolve(AccessKind::Output, &cx);
            assert_eq!(
                a.access().region,
                b.access().region,
                "no renaming: same version"
            );
            assert_eq!(d.live_versions(), 1);
            assert_eq!(pool.renames(), 0);
        }

        #[test]
        fn version_count_bound_falls_back_to_serialising() {
            let pool = Budget::new(1 << 20);
            let cx = RenameCx {
                enabled: true,
                elision: false,
                pool: &pool.pool,
                stats: &pool.stats,
                pool_depth: 0,
                max_versions: 3,
                fault: None,
            };
            let d = Data::versioned(0u64);
            // Hold every version in flight so none can be reclaimed.
            let mut held = Vec::new();
            for _ in 0..8 {
                held.push(d.resolve(AccessKind::Output, &cx));
            }
            // The canonical version stays current (nothing commits), so two
            // uncommitted versions fill the bound of 3.
            assert_eq!(d.live_versions(), 3, "live versions capped");
            assert_eq!(pool.renames(), 2);
            assert_eq!(pool.fallbacks(), 6, "the rest serialised");
            for r in held {
                release(r);
            }
            assert_eq!(d.live_versions(), 1, "superseded versions reclaimed");
        }

        #[test]
        fn exhausted_budget_falls_back_to_serialising() {
            let pool = Budget::new(0);
            let d = Data::versioned(0u64);
            let cx = cx(&pool, true);
            // size_of::<u64>() > 0-byte budget: no rename possible.
            let r = d.resolve(AccessKind::Output, &cx);
            assert!(r.renamed.is_empty());
            assert_eq!(r.access().region, d.region());
            assert_eq!(pool.fallbacks(), 1);
        }

        #[test]
        fn into_inner_returns_the_final_version() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(1u64);
            let cx = cx(&pool, true);
            let mut w = d.resolve(AccessKind::Output, &cx);
            commit(&mut w);
            // Write through the bound version as a task body would.
            let ptr = d.ptr_for_alloc(w.access().region.id.alloc).unwrap();
            // SAFETY: `w` holds the only binding of this live version.
            unsafe { *ptr = 42 };
            release(w);
            assert_eq!(d.try_into_inner().unwrap(), 42);
        }

        #[test]
        fn versioned_with_initialises_fresh_versions() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned_with(5u32, || 99);
            let cx = cx(&pool, true);
            let w = d.resolve(AccessKind::Output, &cx);
            let ptr = d.ptr_for_alloc(w.access().region.id.alloc).unwrap();
            // SAFETY: `w` holds the only binding of this live version.
            assert_eq!(unsafe { *ptr }, 99, "fresh version starts from make()");
        }

        #[test]
        fn unreferenced_output_elides_the_rename() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(5u64);
            let before = d.region();
            let w = d.resolve(AccessKind::Output, &cx_eliding(&pool));
            // Bound in place: same version, no rename, no commit needed.
            assert_eq!(
                w.access().region,
                before,
                "elided write binds the current version"
            );
            assert!(w.renamed.is_empty());
            assert_eq!(pool.renames(), 0);
            assert_eq!(pool.elided(), 1);
            assert_eq!(pool.bytes_held(), 0, "elision allocates nothing");
            assert_eq!(d.live_versions(), 1);
            release(w);
        }

        #[test]
        fn in_flight_binding_blocks_elision() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(0u64);
            let cx = cx_eliding(&pool);
            let reader = d.resolve(AccessKind::Input, &cx);
            // The reader pins the current version: the write must rename.
            let mut w = d.resolve(AccessKind::Output, &cx);
            assert_eq!(w.renamed.len(), 1);
            assert_eq!(pool.renames(), 1);
            assert_eq!(pool.elided(), 0);
            commit(&mut w);
            release(reader);
            release(w);
            // Now the (fresh) current version is unreferenced again: elide.
            let w2 = d.resolve(AccessKind::Output, &cx);
            assert!(w2.renamed.is_empty());
            assert_eq!(pool.elided(), 1);
            release(w2);
        }

        #[test]
        fn elided_write_overwrites_in_place() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(3u64);
            let w = d.resolve(AccessKind::Output, &cx_eliding(&pool));
            let ptr = d.ptr_for_alloc(w.access().region.id.alloc).unwrap();
            // SAFETY: `w` holds the only binding of this live version.
            unsafe { *ptr = 9 };
            release(w);
            assert_eq!(d.try_into_inner().unwrap(), 9);
        }

        #[test]
        fn sync_regions_cover_all_live_versions() {
            let pool = Budget::new(1 << 20);
            let d = Data::versioned(0u64);
            let cx = cx(&pool, true);
            let _r = d.resolve(AccessKind::Input, &cx);
            let _w = d.resolve(AccessKind::Output, &cx);
            assert_eq!(d.sync_regions().len(), 2);
            assert_eq!(Data::new(0u8).sync_regions().len(), 1);
        }
    }

    mod versioned_partition {
        use super::*;

        #[test]
        fn plain_partitions_are_not_versioned() {
            let p = PartitionedData::new(vec![0u8; 8], 4);
            assert!(!p.is_versioned());
            assert!(!p.chunk(0).is_versioned());
            assert!(!p.whole().is_versioned());
            assert_eq!(p.live_chunk_versions(1), 1);
        }

        #[test]
        fn chunk_output_renames_only_that_chunk() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned((0..8u32).collect::<Vec<_>>(), 4);
            assert!(p.is_versioned());
            let before_other = p.chunk(1).region();
            let mut w = p.chunk(0).resolve(AccessKind::Output, &cx(&pool, true));
            commit(&mut w);
            assert_eq!(
                p.chunk(1).region(),
                before_other,
                "untouched chunk keeps its version"
            );
            assert_eq!(w.accesses.len(), 1);
            assert_eq!(
                w.access().region,
                p.chunk(0).region(),
                "fresh version is current"
            );
            assert_eq!(w.renamed.len(), 1);
            assert_eq!(w.renamed[0].chunk, Some(0), "rename recorded per chunk");
            assert_eq!(pool.renames(), 1);
            assert_eq!(pool.chunk_renames(), 1);
            release(w);
        }

        #[test]
        fn renamed_chunks_conflict_with_nothing() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![0u64; 6], 3);
            let cx = cx(&pool, true);
            let reader = p.chunk(0).resolve(AccessKind::Input, &cx);
            let mut writer = p.chunk(0).resolve(AccessKind::Output, &cx);
            assert!(
                !writer.access().region.overlaps(&reader.access().region),
                "renamed chunk version must not conflict with the pinned one"
            );
            commit(&mut writer);
            assert_eq!(p.live_chunk_versions(0), 2, "reader still pins version 0");
            release(reader);
            assert_eq!(p.live_chunk_versions(0), 1, "superseded version reclaimed");
            // The next rename of this chunk reuses the pooled storage.
            let w2 = p.chunk(0).resolve(AccessKind::Output, &cx);
            assert_eq!(pool.recycled(), 1);
            release(w2);
            release(writer);
        }

        #[test]
        fn whole_access_binds_every_chunk_chain() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![0u8; 10], 4);
            let cx = cx(&pool, true);
            let r = p.whole().resolve(AccessKind::Input, &cx);
            assert_eq!(r.accesses.len(), 3, "one binding per chunk");
            assert!(r.renamed.is_empty());
            let mut w = p.whole().resolve(AccessKind::Output, &cx);
            assert_eq!(w.accesses.len(), 3);
            assert_eq!(w.renamed.len(), 3, "whole output renames every chunk");
            commit(&mut w);
            release(w);
            release(r);
        }

        #[test]
        fn reservations_cover_the_chunk_payload() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![0u64; 100], 25);
            let w = p.chunk(0).resolve(AccessKind::Output, &cx(&pool, true));
            assert_eq!(
                pool.bytes_held(),
                25 * std::mem::size_of::<u64>(),
                "deep per-chunk payload accounted, not size_of::<Vec>"
            );
            release(w);
        }

        #[test]
        fn exhausted_budget_serialises_the_chunk() {
            // Budget fits one extra 4-element u64 chunk but not two.
            let pool = Budget::new(40);
            let p = PartitionedData::versioned(vec![0u64; 8], 4);
            let cx = cx(&pool, true);
            let a = p.chunk(0).resolve(AccessKind::Output, &cx);
            assert_eq!(pool.renames(), 1);
            let b = p.chunk(1).resolve(AccessKind::Output, &cx);
            assert!(b.renamed.is_empty(), "second chunk fell back");
            assert_eq!(pool.fallbacks(), 1);
            assert_eq!(b.access().region, p.chunk(1).region());
            release(a);
            release(b);
        }

        #[test]
        fn try_into_vec_reassembles_current_versions() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![1u32; 6], 2);
            let cx = cx(&pool, true);
            // Rename chunk 1 and write through the fresh version.
            let mut w = p.chunk(1).resolve(AccessKind::Output, &cx);
            let (ptr, len) = w.access().bound_ptr().unwrap();
            assert_eq!(len, 2);
            // SAFETY: `w` holds the only binding of this fresh chunk version,
            // and `(ptr, len)` is its full bound storage.
            unsafe {
                let slice = std::slice::from_raw_parts_mut(ptr as *mut u32, len);
                slice.copy_from_slice(&[7, 8]);
            }
            commit(&mut w);
            release(w);
            assert_eq!(p.try_into_vec().unwrap(), vec![1, 1, 7, 8, 1, 1]);
        }

        #[test]
        fn uncommitted_chunk_rename_leaves_the_array_untouched() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![9u8; 4], 2);
            let r = p.chunk(0).resolve(AccessKind::Output, &cx(&pool, true));
            release(r); // abandon without committing
            assert_eq!(p.live_chunk_versions(0), 1);
            assert_eq!(p.try_into_vec().unwrap(), vec![9; 4]);
        }

        #[test]
        fn sync_regions_cover_all_chunk_versions() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![0u16; 9], 3);
            let cx = cx(&pool, true);
            assert_eq!(p.whole().sync_regions().len(), 3, "one region per chunk");
            let r = p.chunk(0).resolve(AccessKind::Input, &cx);
            let mut w = p.chunk(0).resolve(AccessKind::Output, &cx);
            commit(&mut w);
            assert_eq!(p.chunk(0).sync_regions().len(), 2, "pinned + current");
            assert_eq!(p.whole().sync_regions().len(), 4);
            release(r);
            release(w);
            assert_eq!(p.whole().sync_regions().len(), 3);
        }

        #[test]
        fn versioned_with_controls_fresh_chunk_contents() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned_with(vec![0u8; 4], 2, |len| vec![0xAB; len]);
            let w = p.chunk(0).resolve(AccessKind::Output, &cx(&pool, true));
            let (ptr, len) = w.access().bound_ptr().unwrap();
            // SAFETY: `(ptr, len)` is the bound storage of the version `w`
            // pins; nothing else writes it while `w` is held.
            let fresh = unsafe { std::slice::from_raw_parts(ptr as *const u8, len) };
            assert_eq!(fresh, &[0xAB, 0xAB], "fresh version starts from make()");
            release(w);
        }

        #[test]
        fn unreferenced_chunk_output_elides_per_chunk() {
            let pool = Budget::new(1 << 20);
            let p = PartitionedData::versioned(vec![1u32; 6], 3);
            let cx = cx_eliding(&pool);
            // Chunk 1 is pinned by a reader; chunk 0 is free.
            let r1 = p.chunk(1).resolve(AccessKind::Input, &cx);
            let w0 = p.chunk(0).resolve(AccessKind::Output, &cx);
            let mut w1 = p.chunk(1).resolve(AccessKind::Output, &cx);
            assert!(w0.renamed.is_empty(), "free chunk elides");
            assert_eq!(w1.renamed.len(), 1, "pinned chunk renames");
            assert_eq!(pool.elided(), 1);
            assert_eq!(pool.chunk_renames(), 1);
            assert_eq!(p.live_chunk_versions(0), 1);
            commit(&mut w1);
            // Write the elided chunk in place and check commit-back.
            let (ptr, len) = w0.access().bound_ptr().unwrap();
            // SAFETY: `w0` holds the only binding of the elided chunk, and
            // `(ptr, len)` is its full bound storage.
            unsafe {
                std::slice::from_raw_parts_mut(ptr as *mut u32, len).copy_from_slice(&[7, 8, 9])
            };
            release(w0);
            release(w1);
            release(r1);
            let out = p.try_into_vec().unwrap();
            assert_eq!(&out[..3], &[7, 8, 9]);
        }

        #[test]
        fn empty_versioned_partition_roundtrips() {
            let p = PartitionedData::versioned(Vec::<u8>::new(), 4);
            assert_eq!(p.num_chunks(), 1);
            assert!(p.is_versioned());
            assert_eq!(p.try_into_vec().unwrap(), Vec::<u8>::new());
        }
    }

    proptest! {
        /// Chunk ranges tile the vector exactly: disjoint, ordered, covering.
        #[test]
        fn prop_chunks_tile_vector(len in 0usize..500, chunk_len in 1usize..64) {
            let p = PartitionedData::new(vec![0u8; len], chunk_len);
            let mut covered = 0usize;
            for i in 0..p.num_chunks() {
                let r = p.chunk_range(i);
                prop_assert_eq!(r.start, covered);
                prop_assert!(r.end >= r.start);
                covered = r.end;
                if len > 0 {
                    prop_assert!(r.end - r.start <= chunk_len);
                }
            }
            prop_assert_eq!(covered, len);
        }

        /// Chunk byte regions never overlap each other.
        #[test]
        fn prop_chunk_regions_disjoint(len in 1usize..300, chunk_len in 1usize..50) {
            let p = PartitionedData::new(vec![0u32; len], chunk_len);
            for i in 0..p.num_chunks() {
                for j in (i + 1)..p.num_chunks() {
                    prop_assert!(!p.chunk(i).region().overlaps(&p.chunk(j).region()));
                }
            }
        }
    }
}
