//! Task descriptors and their lifecycle.
//!
//! A *task* in OmpSs is a deferred function call annotated with the data
//! accesses it performs. Internally every spawned task is represented by a
//! `TaskNode` that carries the closure to run, the declared accesses, a
//! count of unresolved predecessors, and the list of successors to wake up on
//! completion.
//!
//! ## The node slab
//!
//! Fine-grained workloads spawn nodes faster than their bodies run, so node
//! construction sits squarely on the insertion hot path. Two mechanisms make
//! the steady-state spawn of a ≤2-access task on plain (unversioned)
//! handles **allocation-free** (versioned bindings still box one version
//! ticket each):
//!
//! * **Inline storage.** Accesses live in an `AccessVec` (≤2 inline, heap
//!   beyond), and small task closures (≤ `INLINE_BODY_BYTES` bytes,
//!   alignment ≤ 16) are written into a `BodySlot` buffer inside the node
//!   itself instead of a fresh `Box`.
//! * **Recycling.** Retired nodes return to a per-runtime `TaskSlab`: when
//!   the executing worker holds the *last* reference to a completed node
//!   (verified with `Arc::get_mut`, so reuse is provably exclusive), the
//!   node is reset — the successor-list capacity staying warm for its next
//!   life — and pushed onto the slab's free list (a mutex-protected FIFO).
//!   The next spawn pops it back instead of allocating. A node
//!   whose retirement was deferred (see [`crate::graph`], "Retirement") is
//!   still referenced by tracker history when its worker lets go; whoever
//!   drops that reference later hands the node in the same way, and
//!   `TaskSlab::try_recycle` settles which of several simultaneous
//!   holders is the last. The slab builds a fixed stock before it reuses
//!   anything (`TaskSlab::acquire`), so whether a runtime is warm does not
//!   depend on how far its spawner happened to run ahead of the workers.
//!
//! Staleness is guarded twice over: [`TaskId`]s are minted from a global
//! never-reused serial (an id can therefore never alias across reuses —
//! tracker tombstones and trace events stay ABA-proof), and each node
//! carries a `TaskNode::generation` reuse counter, bumped on every
//! recycle, that the worker asserts against mid-execution and the trace
//! records per spawn.

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::access::AccessVec;
use crate::rename::VersionTicket;
use crate::runtime::TaskContext;
use crate::stats::CachePadded;

/// Globally unique task identifier (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

static NEXT_TASK_ID: AtomicU64 = AtomicU64::new(1);

impl TaskId {
    pub(crate) fn fresh() -> Self {
        TaskId(NEXT_TASK_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric value of the id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Scheduling priority of a task. Higher values are scheduled before lower
/// values when both are ready (the OmpSs `priority` clause). The default is
/// `0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct TaskPriority(pub i32);

/// Observable states of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskState {
    /// Spawned, still waiting for at least one predecessor.
    WaitingDeps = 0,
    /// All dependencies satisfied; queued for execution.
    Ready = 1,
    /// Currently executing on a worker.
    Running = 2,
    /// Finished executing (successfully or by panicking).
    Completed = 3,
}

impl TaskState {
    fn from_u8(v: u8) -> TaskState {
        match v {
            0 => TaskState::WaitingDeps,
            1 => TaskState::Ready,
            2 => TaskState::Running,
            _ => TaskState::Completed,
        }
    }
}

/// Boxed fallback for task closures too large (or too aligned) for the
/// node's inline body buffer.
pub(crate) type BoxedBody = Box<dyn FnOnce(&TaskContext<'_>) + Send + 'static>;

/// Bytes of closure storage inlined in every [`TaskNode`] (see [`BodySlot`]).
/// 64 bytes hold the dominant capture shapes — a few handle clones plus loop
/// indices — while keeping the node compact.
pub(crate) const INLINE_BODY_BYTES: usize = 64;

/// Alignment of the inline body buffer; closures needing more fall back to a
/// `Box`.
const INLINE_BODY_ALIGN: usize = 16;

/// Raw closure bytes, aligned for any capture the inline path accepts.
#[repr(align(16))]
#[derive(Clone, Copy)]
struct InlineBuf([MaybeUninit<u8>; INLINE_BODY_BYTES]);

impl InlineBuf {
    const fn uninit() -> Self {
        InlineBuf([const { MaybeUninit::uninit() }; INLINE_BODY_BYTES])
    }
}

type CallThunk = unsafe fn(*mut u8, &TaskContext<'_>);
type DropThunk = unsafe fn(*mut u8);

unsafe fn call_thunk<F: FnOnce(&TaskContext<'_>)>(p: *mut u8, ctx: &TaskContext<'_>) {
    // SAFETY: the caller guarantees `p` holds an initialised `F` that is
    // consumed exactly once by this read.
    let f = unsafe { (p as *mut F).read() };
    f(ctx)
}

unsafe fn drop_thunk<F>(p: *mut u8) {
    // SAFETY: as in `call_thunk`, but the closure is dropped unrun.
    unsafe { (p as *mut F).drop_in_place() }
}

/// The closure storage of one task: small closures are written into the
/// node-resident inline buffer (no allocation), everything else goes in a
/// `Box`. The slot is re-armed in place when the node is recycled.
pub(crate) struct BodySlot {
    buf: InlineBuf,
    /// Set while `buf` holds a live (not yet taken) closure.
    inline: Option<(CallThunk, DropThunk)>,
    boxed: Option<BoxedBody>,
}

impl Default for BodySlot {
    fn default() -> Self {
        BodySlot {
            buf: InlineBuf::uninit(),
            inline: None,
            boxed: None,
        }
    }
}

impl BodySlot {
    /// Store `f`, inline when it fits the [`INLINE_BODY_BYTES`] buffer.
    /// Returns `true` when the closure spilled to a `Box` — the caller feeds
    /// the `spawn_body_spills` counter so workloads can see when their
    /// captures do not fit.
    pub(crate) fn set<F>(&mut self, f: F) -> bool
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        debug_assert!(self.is_empty(), "body slot armed twice");
        if std::mem::size_of::<F>() <= INLINE_BODY_BYTES
            && std::mem::align_of::<F>() <= INLINE_BODY_ALIGN
        {
            // SAFETY: the buffer is large and aligned enough for `F`, and the
            // thunks recorded alongside are instantiated for this exact `F`.
            unsafe { (self.buf.0.as_mut_ptr() as *mut F).write(f) };
            self.inline = Some((call_thunk::<F>, drop_thunk::<F>));
            false
        } else {
            self.boxed = Some(Box::new(f));
            true
        }
    }

    /// Whether the slot currently holds no closure.
    pub(crate) fn is_empty(&self) -> bool {
        self.inline.is_none() && self.boxed.is_none()
    }

    /// Whether the armed closure lives inline (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        self.inline.is_some()
    }

    /// Take the closure out for execution. Returns `None` if the slot is
    /// empty (body already taken).
    pub(crate) fn take(&mut self) -> Option<TakenBody> {
        if let Some((call, drop)) = self.inline.take() {
            // The buffer bytes move into the taken body; `inline` is already
            // cleared so the slot no longer owns the closure.
            return Some(TakenBody {
                inline: Some((self.buf, call, drop)),
                boxed: None,
            });
        }
        self.boxed.take().map(|b| TakenBody {
            inline: None,
            boxed: Some(b),
        })
    }

    /// Drop an armed-but-never-run closure (runtime shutdown paths).
    pub(crate) fn clear(&mut self) {
        if let Some((_, drop)) = self.inline.take() {
            // SAFETY: the buffer held a live closure; `inline` is cleared so
            // this drop happens exactly once.
            unsafe { drop(self.buf.0.as_mut_ptr() as *mut u8) };
        }
        self.boxed = None;
    }
}

impl Drop for BodySlot {
    fn drop(&mut self) {
        self.clear();
    }
}

/// A closure moved out of a [`BodySlot`], ready to run exactly once.
/// Dropping it unrun drops the closure (and its captures) cleanly.
pub(crate) struct TakenBody {
    inline: Option<(InlineBuf, CallThunk, DropThunk)>,
    boxed: Option<BoxedBody>,
}

impl TakenBody {
    /// Execute the closure.
    pub(crate) fn run(mut self, ctx: &TaskContext<'_>) {
        if let Some((mut buf, call, _)) = self.inline.take() {
            // SAFETY: the buffer holds the closure moved out of the slot;
            // `inline` is cleared first so `Drop` cannot double-free, even
            // if the closure panics.
            unsafe { call(buf.0.as_mut_ptr() as *mut u8, ctx) }
        } else if let Some(boxed) = self.boxed.take() {
            boxed(ctx)
        }
    }
}

impl Drop for TakenBody {
    fn drop(&mut self) {
        if let Some((mut buf, _, drop)) = self.inline.take() {
            // SAFETY: the closure was never run; drop it in place once.
            unsafe { drop(buf.0.as_mut_ptr() as *mut u8) }
        }
    }
}

/// Tracks the number of live direct children of a task (or of the main
/// program context). `taskwait` waits for this to reach zero.
#[derive(Debug, Default)]
pub(crate) struct ChildTracker {
    live: AtomicUsize,
}

impl ChildTracker {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ChildTracker::default())
    }

    /// Register `n` children — one inserted batch — with one atomic add.
    pub(crate) fn add_children(&self, n: usize) {
        self.live.fetch_add(n, Ordering::SeqCst);
    }

    pub(crate) fn child_done(&self) {
        let prev = self.live.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "child_done without matching add_children");
    }

    pub(crate) fn live_children(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }
}

/// Successor bookkeeping, protected by a mutex so that edge insertion and
/// completion cannot race.
#[derive(Default)]
pub(crate) struct NodeLinks {
    /// Set once the task has finished executing and its successors have been
    /// notified. Edges may no longer be added afterwards.
    pub completed: bool,
    /// Tasks that must be notified when this task completes.
    pub successors: Vec<Arc<TaskNode>>,
}

/// Internal representation of a spawned task.
///
/// Nodes are re-initialised and reused through the [`TaskSlab`]; every field
/// written per spawn is set either through `Arc::get_mut` (provably unique
/// ownership — fresh nodes and nodes just popped from the free list) or
/// through its own synchronisation (atomics, mutexes).
pub(crate) struct TaskNode {
    /// Unique id, minted from a global never-reused serial (re-minted on
    /// every slab reuse, so a stale id can never alias a recycled node).
    pub id: TaskId,
    /// Optional human-readable name (used in traces and panics).
    pub name: Option<Arc<str>>,
    /// Scheduling priority.
    pub priority: TaskPriority,
    /// Declared data accesses (immutable after publication; ≤2 inline).
    pub accesses: AccessVec,
    /// Times this node's storage has been recycled (0 for a fresh node);
    /// recorded in `TraceEvent::Spawned` and asserted stable across one
    /// execution.
    pub generation: u32,
    /// The closure to execute; taken (and dropped) exactly once.
    pub body: Mutex<BodySlot>,
    /// Number of unresolved predecessors plus one registration sentinel.
    pub pending: AtomicUsize,
    /// Successor list + completion flag.
    pub links: Mutex<NodeLinks>,
    /// Live direct children of this task (for nested `taskwait`).
    pub children: Arc<ChildTracker>,
    /// The child tracker of the task that spawned this one, decremented on
    /// completion; `None` for a task of the main program context, whose wait
    /// is for quiescence and counts nothing per parent — so a root spawn and
    /// its completion share no parent line.
    pub parent_children: Option<Arc<ChildTracker>>,
    /// Coarse state for introspection / assertions.
    pub state: AtomicU8,
    /// Number of predecessor edges that were actually registered (stats).
    pub in_edges: AtomicUsize,
    /// 1-based replay pass of the [`GraphTemplate`](crate::capture) batch
    /// this node was stamped by; 0 for ordinary spawns (including the
    /// capture iteration itself). Written under `Arc::get_mut` right after
    /// acquisition, exposed to bodies as
    /// [`TaskContext::replay_pass`](crate::TaskContext::replay_pass).
    pub replay_pass: u64,
    /// Release hooks for the data versions this task is bound to (one per
    /// access that resolved against a versioned handle); drained exactly
    /// once on completion.
    pub tickets: Mutex<Vec<Box<dyn VersionTicket>>>,
    /// Set once the completion path has retired this task from the
    /// dependence tracker, making retirement idempotent (see
    /// [`TaskNode::mark_retired`]).
    pub retired: AtomicBool,
    /// Raw id of the task whose failure poisoned this node (`0` = clean —
    /// ids are minted from 1). A poisoned node is dequeued and retired
    /// without running its body, propagating the same origin to its own
    /// successors; set at most once, under the poisoning predecessor's
    /// links lock (see `graph::complete_into`).
    pub poison: AtomicU64,
    /// Cancellation flag of the [`CancelToken`](crate::CancelToken) scope
    /// this task was spawned under (`None` outside any scope). Written under
    /// `Arc::get_mut` before publication, like the other per-spawn fields;
    /// checked by the worker at execute time.
    pub cancel: Option<Arc<AtomicBool>>,
    /// The node's tie to the slab that allocated it, for the slab's
    /// outstanding-node count.
    link: SlabLink,
    /// Dense per-epoch index assigned by the race oracle
    /// ([`crate::dcheck`]) at registration; [`crate::dcheck::NO_INDEX`]
    /// when dcheck is off or the node was recycled since. All clock state
    /// lives centrally, so this one word is the node's entire dcheck
    /// footprint.
    pub dcheck_index: AtomicU64,
}

// SAFETY: `TaskNode` stops being auto-Send/Sync because each version-bound
// `Access` carries the raw storage pointer of the version it bound (resolved
// once at bind time — see `crate::access`), and `BodySlot` stores a closure
// as raw bytes. Sharing the pointers across workers is sound: the pointed-to
// version storage is address-stable and kept alive by the `tickets` this
// node holds until completion, and dereferencing is gated by the
// `TaskContext` guard rules (declared-access checks plus dependence ordering
// of conflicting tasks). The body bytes always represent a `Send + 'static`
// closure (enforced by `BodySlot::set`'s bounds). Everything else in the
// node is already thread-safe (atomics, mutexes, `Arc`s), and the per-spawn
// re-initialised plain fields (`id`, `name`, `accesses`, …) are only ever
// written through `Arc::get_mut`, i.e. under provably unique ownership.
unsafe impl Send for TaskNode {}
unsafe impl Sync for TaskNode {}

impl TaskNode {
    /// A node with no task in it: the registration sentinel held
    /// (pending = 1), nothing armed, no parent, tied to the slab whose
    /// discard count is `discarded` — the state [`TaskNode::reset_for_reuse`]
    /// returns a retired node to, so [`TaskNode::arm`] is the one way a task
    /// gets into a node, fresh or recycled.
    fn blank(discarded: Arc<AtomicU64>) -> Self {
        TaskNode {
            id: TaskId(0),
            name: None,
            priority: TaskPriority::default(),
            accesses: AccessVec::new(),
            generation: 0,
            body: Mutex::new(BodySlot::default()),
            pending: AtomicUsize::new(1),
            // A little successor capacity from birth: `complete_into` drains
            // in place and recycling keeps the buffer, so this makes the
            // first few edge insertions through any node allocation-free no
            // matter which batch position a recycled node lands in
            // (`tests/spawn_alloc.rs` counts a warmed window).
            links: Mutex::new(NodeLinks {
                completed: false,
                successors: Vec::with_capacity(4),
            }),
            children: ChildTracker::new(),
            parent_children: None,
            state: AtomicU8::new(TaskState::WaitingDeps as u8),
            in_edges: AtomicUsize::new(0),
            replay_pass: 0,
            tickets: Mutex::new(Vec::new()),
            retired: AtomicBool::new(false),
            poison: AtomicU64::new(0),
            cancel: None,
            link: SlabLink {
                discarded,
                checked_out: false,
            },
            dcheck_index: AtomicU64::new(crate::dcheck::NO_INDEX),
        }
    }

    /// Arm a blank or recycled node for its next task. The caller holds the
    /// only reference (a plain value, or `&mut` through `Arc::get_mut`), so
    /// plain field writes are unique. `spilled` reports whether the body
    /// missed the inline buffer. (One argument per armed field — splitting
    /// the parameter list would only add a struct the hot path then builds.)
    #[allow(clippy::too_many_arguments)]
    fn arm<F>(
        &mut self,
        name: Option<Arc<str>>,
        priority: TaskPriority,
        accesses: AccessVec,
        tickets: Vec<Box<dyn VersionTicket>>,
        body: F,
        parent_children: Option<Arc<ChildTracker>>,
        replay_pass: u64,
        cancel: Option<Arc<AtomicBool>>,
        spilled: &mut bool,
    ) where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        debug_assert_eq!(self.pending.load(Ordering::Relaxed), 1);
        debug_assert_eq!(self.task_state(), TaskState::WaitingDeps);
        debug_assert!(self.body.get_mut().is_empty());
        debug_assert!(!self.link.checked_out, "arming a node that is checked out");
        self.link.checked_out = true;
        self.id = TaskId::fresh();
        self.name = name;
        self.priority = priority;
        self.accesses = accesses;
        *spilled = self.body.get_mut().set(body);
        if !tickets.is_empty() {
            // Move the hooks into the node-resident vector, which keeps its
            // capacity across the in-place release at each completion.
            self.tickets.get_mut().extend(tickets);
        }
        self.parent_children = parent_children;
        // The child tracker is reused when nothing else holds it; children
        // of the node's previous task may legitimately outlive their parent
        // and still hold (and later decrement) the old tracker.
        if let Some(children) = Arc::get_mut(&mut self.children) {
            debug_assert_eq!(children.live_children(), 0);
        } else {
            self.children = ChildTracker::new();
        }
        self.replay_pass = replay_pass;
        self.cancel = cancel;
    }

    /// Reset a just-completed node for reuse. The successor-list capacity is
    /// kept warm (it survives `arm` — the wakeup path drains it in
    /// place); the access and ticket storage is merely dropped here, since
    /// the next task moves its own builder-owned vectors in. Called with
    /// the only reference. Returns the parent's child tracker, taken out so
    /// a parked node pins nothing of its previous task (the worker still
    /// owes it a `child_done`). The node stays checked out: parking it is
    /// what checks it in.
    fn reset_for_reuse(&mut self) -> Option<Arc<ChildTracker>> {
        debug_assert!(self.retired.load(Ordering::Relaxed) || self.accesses.is_empty());
        self.name = None;
        self.accesses.clear();
        self.body.get_mut().clear();
        debug_assert!(
            self.tickets.get_mut().is_empty(),
            "tickets released at completion"
        );
        self.tickets.get_mut().clear();
        // The free list must not keep a real parent's tracker alive, nor keep
        // the parent's own node from reusing it via `Arc::get_mut`.
        let parent = self.parent_children.take();
        let links = self.links.get_mut();
        debug_assert!(links.completed, "recycling a node that never completed");
        debug_assert!(
            links.successors.is_empty(),
            "successors drained at completion"
        );
        links.completed = false;
        links.successors.clear();
        self.pending.store(1, Ordering::Relaxed);
        self.state
            .store(TaskState::WaitingDeps as u8, Ordering::Relaxed);
        self.in_edges.store(0, Ordering::Relaxed);
        self.retired.store(false, Ordering::Relaxed);
        self.poison.store(0, Ordering::Relaxed);
        self.cancel = None;
        self.dcheck_index
            .store(crate::dcheck::NO_INDEX, Ordering::Relaxed);
        self.generation = self.generation.wrapping_add(1);
        parent
    }

    /// Claim the right to retire this task from the dependence history.
    /// Returns `true` exactly once; later callers see `false` and skip the
    /// history walk.
    pub(crate) fn mark_retired(&self) -> bool {
        !self.retired.swap(true, Ordering::AcqRel)
    }

    /// Poison this node with `origin` unless it is already poisoned (the
    /// first origin wins, so a diamond of failing predecessors reports one
    /// stable culprit).
    pub(crate) fn poison_with(&self, origin: TaskId) {
        let _ = self
            .poison
            .compare_exchange(0, origin.0, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The origin this node was poisoned with, if any.
    pub(crate) fn poison_origin(&self) -> Option<TaskId> {
        match self.poison.load(Ordering::Acquire) {
            0 => None,
            raw => Some(TaskId(raw)),
        }
    }

    /// Whether the cancel scope this task was spawned under (if any) has
    /// been cancelled.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Release the version-binding hooks in place (called once, at
    /// completion), keeping the vector's capacity for the node's next life.
    /// Returns how many tickets were released, so the caller can balance
    /// the rename pool's bind/release ledger (see [`crate::Runtime::audit`]).
    pub(crate) fn release_tickets(&self) -> usize {
        let mut tickets = self.tickets.lock();
        let released = tickets.len();
        for ticket in tickets.drain(..) {
            ticket.release();
        }
        released
    }

    /// Current coarse state.
    pub(crate) fn task_state(&self) -> TaskState {
        TaskState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub(crate) fn set_state(&self, s: TaskState) {
        self.state.store(s as u8, Ordering::SeqCst);
    }

    /// Whether the task has finished executing.
    pub(crate) fn is_completed(&self) -> bool {
        self.task_state() == TaskState::Completed
    }

    /// Name for diagnostics.
    pub(crate) fn display_name(&self) -> String {
        match &self.name {
            Some(n) => n.to_string(),
            None => format!("{}", self.id),
        }
    }
}

impl std::fmt::Debug for TaskNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskNode")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("pending", &self.pending.load(Ordering::SeqCst))
            .field("state", &self.task_state())
            .field("generation", &self.generation)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// TaskSlab: the per-runtime node recycler
// ---------------------------------------------------------------------------

/// Default bound on the number of retired nodes a runtime keeps for reuse.
pub(crate) const DEFAULT_TASK_SLAB_CAPACITY: usize = 4096;

/// Slots the free list starts with (or the slab's capacity, if smaller):
/// enough that a list of a few hundred parked nodes never regrows it, so
/// `tests/spawn_alloc.rs`, which counts steady-state allocations, does not
/// depend on how long the list happened to get while the runtime warmed up.
const FREE_LIST_INITIAL_CAP: usize = 512;

/// The share of a slab's capacity it builds up as stock before it starts
/// reusing nodes: one sixteenth — 256 nodes at the default capacity. See
/// [`TaskSlab::acquire`].
const WARM_STOCK_SHARE: usize = 16;

/// A node's tie to the slab that allocated it: made once, when the node is
/// allocated, and kept across every reuse. Checking the node out and parking
/// it again are plain writes to `checked_out` under the unique ownership the
/// slab proves anyway, so acquiring a node — the spawner's side — writes no
/// line that parking one — the workers' side — writes too.
struct SlabLink {
    /// The slab's count of nodes deallocated while checked out.
    discarded: Arc<AtomicU64>,
    /// Acquired, and not parked since.
    checked_out: bool,
}

impl Drop for SlabLink {
    /// A node deallocated while checked out has left the slab for good.
    fn drop(&mut self) {
        if self.checked_out {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The free list, with the count of every node ever parked in it: both
/// written under the one lock a park takes anyway.
struct FreeList {
    nodes: VecDeque<Arc<TaskNode>>,
    parked: u64,
}

/// Acquisitions, counted by whichever thread spawns.
#[derive(Default)]
struct Acquisitions {
    /// Served by a fresh heap allocation.
    allocated: AtomicU64,
    /// Served from the free list.
    recycled: AtomicU64,
}

/// The per-runtime task-node recycler: a bounded free list of retired nodes.
///
/// The free list is a mutex-protected FIFO, bounded exactly: its length is
/// read under the lock a push takes anyway. Every `Arc` in it is *unique* by
/// construction — a node is only pushed after `Arc::get_mut` proved the
/// worker held the last reference — which is what makes re-initialising
/// plain fields on reuse safe without any interior mutability.
///
/// The outstanding-node count is derived, never kept: acquisitions (counted
/// by the spawner, on a line pair of their own) minus parks (counted by the
/// parking worker under the free-list lock) minus nodes deallocated while
/// checked out (counted by their [`SlabLink`]). A count kept up to date by
/// both sides was one line every acquisition and every park took from the
/// other, plus a reference-count round trip per node.
pub(crate) struct TaskSlab {
    free: Mutex<FreeList>,
    /// Bound on the free list.
    capacity: usize,
    /// Nodes allocated before parked ones are reused
    /// (`capacity / WARM_STOCK_SHARE`).
    warm_stock: u64,
    acquired: CachePadded<Acquisitions>,
    /// Nodes deallocated while checked out (see [`SlabLink`]).
    discarded: Arc<AtomicU64>,
    /// Serialises "not unique, so drop" between the holders of a shared
    /// node (see [`TaskSlab::try_recycle`]).
    handback: Mutex<()>,
}

impl TaskSlab {
    /// Create a slab keeping at most `capacity` retired nodes.
    pub(crate) fn new(capacity: usize) -> Self {
        TaskSlab {
            free: Mutex::new(FreeList {
                nodes: VecDeque::with_capacity(FREE_LIST_INITIAL_CAP.min(capacity)),
                parked: 0,
            }),
            capacity,
            warm_stock: (capacity / WARM_STOCK_SHARE) as u64,
            acquired: CachePadded::default(),
            discarded: Arc::default(),
            handback: Mutex::new(()),
        }
    }

    /// Obtain a node armed for `body` — recycled from the free list, freshly
    /// allocated otherwise. The node has the registration sentinel held
    /// (pending = 1) and a fresh [`TaskId`]. `spilled` reports whether the
    /// body missed the inline buffer (the `spawn_body_spills` counter).
    /// `replay_pass` and `cancel` are stamped here, while the node is still
    /// provably unshared, so no caller has to reach back into it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn acquire<F>(
        &self,
        name: Option<Arc<str>>,
        priority: TaskPriority,
        accesses: AccessVec,
        tickets: Vec<Box<dyn VersionTicket>>,
        body: F,
        parent_children: Option<Arc<ChildTracker>>,
        replay_pass: u64,
        cancel: Option<Arc<AtomicBool>>,
        spilled: &mut bool,
    ) -> Arc<TaskNode>
    where
        F: FnOnce(&TaskContext<'_>) + Send + 'static,
    {
        let arm = |n: &mut TaskNode| {
            n.arm(
                name,
                priority,
                accesses,
                tickets,
                body,
                parent_children,
                replay_pass,
                cancel,
                spilled,
            )
        };
        // Until the stock has reached its floor, allocate even when a parked
        // node is on offer. How many nodes a spawner needs at once depends
        // on how far it runs ahead of the workers, which is a race that
        // differs from one burst to the next; a stock equal to the largest
        // lead seen so far allocates again whenever a burst sets a new
        // record. Building a fixed stock first makes "warm" a property of
        // the spawn count, not of the schedule.
        let acquired = &self.acquired;
        let parked = if acquired.allocated.load(Ordering::Relaxed) >= self.warm_stock {
            self.free.lock().nodes.pop_front()
        } else {
            None
        };
        if let Some(mut node) = parked {
            if let Some(n) = Arc::get_mut(&mut node) {
                arm(n);
                acquired.recycled.fetch_add(1, Ordering::Relaxed);
                return node;
            }
            // Unreachable by construction (parked entries are unique);
            // tolerate by falling through to a fresh allocation rather than
            // risking shared re-init.
            debug_assert!(false, "shared node in the slab free list");
        }
        acquired.allocated.fetch_add(1, Ordering::Relaxed);
        // Armed as a plain value and only then shared: no `Arc::get_mut`,
        // so no panicking unwrap on the hot path (`cargo xtask lint`).
        let mut n = TaskNode::blank(self.discarded.clone());
        arm(&mut n);
        Arc::new(n)
    }

    /// Return a completed node to the free list, if the caller holds the
    /// last reference and the slab has room. Nodes still referenced
    /// elsewhere (a `taskwait on` waiter, tracker history awaiting a
    /// deferred retirement) simply drop normally here; a waiter or a history
    /// drain that lets go last parks the node — correctness never depends
    /// on recycling succeeding.
    ///
    /// A node whose retirement was deferred has several holders letting go
    /// at about the same time: the worker that completed it, the tracker
    /// drain that tombstones its history reference, possibly a registration
    /// that borrowed it as a predecessor. If each ran "not unique, so drop"
    /// unsynchronised, all of them could see another's reference and the
    /// node would be freed although one of them was its last holder. So a
    /// *failed* uniqueness check is repeated under `handback`, and the drop
    /// happens under it too: of any number of racing holders the last finds
    /// the node unique and parks it. The lock is never taken on the common
    /// path (first check succeeds) and only ever held for these few
    /// instructions.
    ///
    /// Returns the node's parent child-tracker, if it has one, in every case
    /// (the worker still owes it a `child_done`): taken out of the node when
    /// it is parked, cloned only on the non-recycling paths — so the steady
    /// state adds no refcount traffic on the sibling-shared tracker line.
    pub(crate) fn try_recycle(&self, mut node: Arc<TaskNode>) -> Option<Arc<ChildTracker>> {
        let serial = if Arc::get_mut(&mut node).is_none() {
            Some(self.handback.lock())
        } else {
            None
        };
        if let Some(n) = Arc::get_mut(&mut node) {
            // Reset before the list's lock is taken, so the lock covers the
            // bound check and the push and nothing else.
            let parent = n.reset_for_reuse();
            let mut free = self.free.lock();
            if free.nodes.len() < self.capacity {
                n.link.checked_out = false;
                free.parked += 1;
                free.nodes.push_back(node);
            }
            // A full list refuses the node: it deallocates on return, still
            // checked out, and its link counts it as discarded.
            return parent;
        }
        // Recycling refused (the node is still shared): the node — and its
        // accounting token, via Drop — deallocates when the last reference
        // goes. Ours goes here, before `serial` is released.
        let parent = node.parent_children.clone();
        drop(node);
        drop(serial);
        parent
    }

    /// The slab's two gauges, `(free, outstanding)`: nodes parked in the
    /// free list, and nodes checked out — allocated or recycled, and neither
    /// back in the free list nor deallocated. Exact once the runtime is
    /// quiescent, when `outstanding` is zero; mid-run the counts are read at
    /// slightly different moments, so `outstanding` is approximate there
    /// (and saturates at zero).
    pub(crate) fn gauges(&self) -> (usize, usize) {
        let (free, parked) = {
            let list = self.free.lock();
            (list.nodes.len(), list.parked)
        };
        let discarded = self.discarded.load(Ordering::Relaxed);
        let acquired = self.allocated_count() + self.recycled_count();
        (free, acquired.saturating_sub(parked + discarded) as usize)
    }

    /// Total acquisitions served from the free list (stats).
    pub(crate) fn recycled_count(&self) -> u64 {
        self.acquired.recycled.load(Ordering::Relaxed)
    }

    /// Total fresh heap allocations (stats).
    pub(crate) fn allocated_count(&self) -> u64 {
        self.acquired.allocated.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A node with an empty body for unit tests, acquired like any other (from
    /// `slab`, or from a throwaway non-recycling slab).
    pub(crate) fn test_node(
        slab: Option<&TaskSlab>,
        name: Option<&str>,
        priority: i32,
        accesses: AccessVec,
    ) -> Arc<TaskNode> {
        slab.unwrap_or(&TaskSlab::new(0)).acquire(
            name.map(Arc::from),
            TaskPriority(priority),
            accesses,
            Vec::new(),
            |_ctx| {},
            None,
            0,
            None,
            &mut false,
        )
    }

    fn dummy_node() -> Arc<TaskNode> {
        test_node(None, Some("dummy"), 2, AccessVec::new())
    }

    fn acquire_plain(slab: &TaskSlab) -> Arc<TaskNode> {
        test_node(Some(slab), None, 0, AccessVec::new())
    }

    /// Complete a node by hand so `try_recycle` accepts it.
    fn finish_by_hand(n: &Arc<TaskNode>) {
        let _ = n.body.lock().take();
        n.links.lock().completed = true;
        n.pending.store(1, Ordering::Relaxed);
        n.set_state(TaskState::WaitingDeps);
    }

    #[test]
    fn task_ids_are_unique_and_increasing() {
        let a = TaskId::fresh();
        let b = TaskId::fresh();
        assert!(b.raw() > a.raw());
        assert_eq!(format!("{a}"), format!("t{}", a.raw()));
    }

    #[test]
    fn new_node_starts_waiting_with_sentinel() {
        let n = dummy_node();
        assert_eq!(n.task_state(), TaskState::WaitingDeps);
        assert_eq!(n.pending.load(Ordering::SeqCst), 1);
        assert!(!n.is_completed());
        assert_eq!(n.display_name(), "dummy");
        assert_eq!(n.priority, TaskPriority(2));
    }

    #[test]
    fn unnamed_node_displays_id() {
        let n = acquire_plain(&TaskSlab::new(0));
        assert_eq!(n.display_name(), format!("{}", n.id));
    }

    #[test]
    fn state_transitions() {
        let n = dummy_node();
        n.set_state(TaskState::Ready);
        assert_eq!(n.task_state(), TaskState::Ready);
        n.set_state(TaskState::Running);
        assert_eq!(n.task_state(), TaskState::Running);
        n.set_state(TaskState::Completed);
        assert!(n.is_completed());
    }

    #[test]
    fn child_tracker_counts() {
        let c = ChildTracker::new();
        assert_eq!(c.live_children(), 0);
        c.add_children(2);
        assert_eq!(c.live_children(), 2);
        c.child_done();
        assert_eq!(c.live_children(), 1);
        c.child_done();
        assert_eq!(c.live_children(), 0);
    }

    #[test]
    fn mark_retired_claims_exactly_once() {
        let n = dummy_node();
        assert!(n.mark_retired());
        assert!(!n.mark_retired());
        assert!(!n.mark_retired());
    }

    #[test]
    fn priority_ordering() {
        assert!(TaskPriority(3) > TaskPriority(0));
        assert!(TaskPriority(-1) < TaskPriority::default());
    }

    #[test]
    fn debug_format_includes_id_and_state() {
        let n = dummy_node();
        let s = format!("{n:?}");
        assert!(s.contains("TaskNode"));
        assert!(s.contains("WaitingDeps"));
    }

    #[test]
    fn small_bodies_store_inline_large_bodies_box() {
        let mut slot = BodySlot::default();
        let small = [7u64; 2];
        let spilled = slot.set(move |_ctx: &TaskContext<'_>| {
            std::hint::black_box(small);
        });
        assert!(!spilled);
        assert!(slot.is_inline());
        slot.clear();
        assert!(slot.is_empty());
        let big = [0u64; 32]; // 256 bytes: over the inline bound
        let spilled = slot.set(move |_ctx: &TaskContext<'_>| {
            std::hint::black_box(big);
        });
        assert!(spilled);
        assert!(!slot.is_inline());
        assert!(!slot.is_empty());
        assert!(slot.take().is_some());
        assert!(slot.is_empty());
        assert!(slot.take().is_none());
    }

    #[test]
    fn unrun_taken_body_drops_its_captures() {
        let marker = Arc::new(());
        let mut slot = BodySlot::default();
        let held = marker.clone();
        slot.set(move |_ctx: &TaskContext<'_>| {
            let _ = &held;
        });
        assert!(slot.is_inline());
        let taken = slot.take().expect("armed");
        assert_eq!(Arc::strong_count(&marker), 2);
        drop(taken);
        assert_eq!(Arc::strong_count(&marker), 1, "captures dropped unrun");
        // And clearing an armed slot drops the captures too.
        let held = marker.clone();
        slot.set(move |_ctx: &TaskContext<'_>| {
            let _ = &held;
        });
        slot.clear();
        assert_eq!(Arc::strong_count(&marker), 1);
    }

    #[test]
    fn slab_recycles_the_same_storage_with_bumped_generation() {
        let slab = TaskSlab::new(8);
        let n1 = acquire_plain(&slab);
        let first_id = n1.id;
        assert_eq!(n1.generation, 0);
        let counts = (slab.allocated_count(), slab.recycled_count());
        assert_eq!((counts, slab.gauges().1), ((1, 0), 1));
        finish_by_hand(&n1);
        let raw = Arc::as_ptr(&n1);
        slab.try_recycle(n1);
        assert_eq!(slab.gauges(), (1, 0));
        let n2 = acquire_plain(&slab);
        assert_eq!(Arc::as_ptr(&n2), raw, "storage reused");
        assert_eq!(n2.generation, 1, "generation bumped on recycle");
        assert!(n2.id.raw() > first_id.raw(), "fresh id per reuse");
        assert_eq!((slab.allocated_count(), slab.recycled_count()), (1, 1));
    }

    #[test]
    fn shared_nodes_are_never_recycled() {
        let slab = TaskSlab::new(8);
        let n = acquire_plain(&slab);
        let _ = n.body.lock().take();
        n.links.lock().completed = true;
        let held = n.clone();
        slab.try_recycle(n); // shared: plain drop path
        assert_eq!(slab.gauges().0, 0);
        drop(held);
        assert_eq!(
            slab.gauges().1,
            0,
            "final drop released the accounting token"
        );
    }

    #[test]
    fn free_list_bound_is_exact() {
        const CAPACITY: usize = 3;
        let slab = TaskSlab::new(CAPACITY);
        let nodes: Vec<_> = (0..=CAPACITY).map(|_| acquire_plain(&slab)).collect();
        for (parked, n) in nodes.into_iter().enumerate() {
            assert_eq!(slab.gauges().0, parked);
            finish_by_hand(&n);
            slab.try_recycle(n);
        }
        let (free, outstanding) = slab.gauges();
        assert_eq!(free, CAPACITY, "the capacity + 1-th node is refused");
        assert_eq!(outstanding, 0, "and deallocated, not leaked");
    }
}
