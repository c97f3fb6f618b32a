//! The shard gate — the tracker's **one** exclusion protocol — and the retire
//! inbox that lets a completion go past a held gate. The `unsafe` access to
//! shard data and the SeqCst gate/inbox handshake live here and nowhere else
//! (see the [module docs](super), "Exclusion: one gate protocol" and
//! "Retirement").

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::shard::{release_node, Retirement, TrackerShard};
use super::ShardedTracker;
use crate::access::Access;
use crate::stats::TrackerCounters;
use crate::task::TaskNode;

/// One shard cell of the tracker: the history data, the gate protecting it,
/// and the inbox of retirements deferred while it was held.
///
/// * `gate` is the seqlock-style sequence counter and the **single point of
///   mutual exclusion**: even = quiescent, odd = some mutator owns the shard.
/// * `inbox` holds the retirements of workers that found the gate held (see
///   [`ShardedTracker::retire`]); its mutex is only ever held for one push
///   or one buffer swap, never across history work. `inbox_len` mirrors its
///   length so a gate holder can skip the lock when nothing is pending.
///
/// All access to `data` — reads included — happens with the gate held odd,
/// through a [`Held`] guard.
///
/// Slots sit side by side in one boxed slice and are worked on by different
/// threads at once, so each is aligned to its own cache-line pair (the sizing
/// of [`CachePadded`](crate::stats::CachePadded)): otherwise the tail of one
/// shard's history and the gate of the next share a line, and a worker
/// retiring on shard *k* slows whoever CASes the gate of shard *k + 1*
/// (measured: 8 % of `insert.storm`'s replay round time).
#[repr(align(128))]
pub(super) struct ShardSlot {
    gate: AtomicU64,
    inbox_len: AtomicUsize,
    inbox: Mutex<Vec<Retirement>>,
    data: UnsafeCell<TrackerShard>,
}

/// Flag bit in the gate word set by an acquirer while it *waits*: polite
/// attempts ([`ShardSlot::try_acquire`]) refuse while it is set, so a waiter
/// cannot be starved by a stream of short publications. The sequence
/// occupies the remaining bits.
const GATE_WAITER: u64 = 1 << 63;

/// How many spins an acquisition outwaits a gate holder for before it raises
/// [`GATE_WAITER`], and how many more a waiter spins before it starts
/// yielding. A retirement, a one-region registration or an inbox drain is
/// gone long before the budget runs out.
const GATE_SPINS: u32 = 64;

/// Retirements an inbox (and the shard-side buffer it is swapped with) can
/// hold before growing: sized for the completions of one long gate hold, so
/// a warm runtime defers without allocating.
const INBOX_CAPACITY: usize = 64;

// SAFETY: `data` is only ever accessed while the shard's gate is held odd
// (acquired with a SeqCst CAS, released with a SeqCst add), which makes
// every access exclusive; `TrackerShard` itself is `Send` (task nodes are
// `Send + Sync`). The remaining fields are atomics and a mutex.
unsafe impl Sync for ShardSlot {}

// lint: hot-path-begin — gate, guard and retire inbox: every task
// registration and completion passes through here; no panicking calls
// allowed (see `cargo xtask lint`).
//
// Memory ordering: the gate CASes/adds and the `inbox_len` accesses are all
// SeqCst. A deferring worker *stores* `inbox_len` and then *loads* the gate;
// a gate holder *stores* the gate (release) and then *loads* `inbox_len` —
// the store-then-load pairing needs the single total order so that at least
// one side sees the other (see `ShardedTracker::retire`).
impl ShardSlot {
    pub(super) fn new() -> Self {
        ShardSlot {
            gate: AtomicU64::new(0),
            inbox_len: AtomicUsize::new(0),
            inbox: Mutex::new(Vec::with_capacity(INBOX_CAPACITY)),
            data: UnsafeCell::new(TrackerShard {
                scratch_inbox: Vec::with_capacity(INBOX_CAPACITY),
                ..TrackerShard::default()
            }),
        }
    }

    /// Whether some mutator holds the gate right now. The waiter flag is
    /// advisory and masked out; only the low sequence bit decides.
    pub(super) fn is_held(&self) -> bool {
        self.gate.load(Ordering::Acquire) & 1 == 1
    }

    /// Take the gate if it is free right now *and* nobody is waiting for it.
    /// Never blocks.
    fn try_acquire(&self) -> bool {
        let seq = self.gate.load(Ordering::SeqCst);
        seq & 1 == 0
            && seq & GATE_WAITER == 0
            && self
                .gate
                .compare_exchange(seq, seq + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
    }

    /// The polite first step of a blocking acquisition:
    /// [`ShardSlot::try_acquire`] for up to [`GATE_SPINS`] spins, giving up
    /// at once when somebody is already waiting (it must not be starved).
    fn try_acquire_spinning(&self) -> bool {
        for _ in 0..GATE_SPINS {
            if self.try_acquire() {
                return true;
            }
            if self.gate.load(Ordering::Relaxed) & GATE_WAITER != 0 {
                return false;
            }
            std::hint::spin_loop();
        }
        self.try_acquire()
    }

    /// Wait until the gate is acquired, counting the wait as contended if
    /// the gate is found held. Raising [`GATE_WAITER`] turns every polite
    /// attempt away, so the wait is bounded by real mutator work rather than
    /// by a stream of short publications. Several waiters may spin here at
    /// once and whichever acquires clears the flag, so each re-raises it on
    /// every failed iteration.
    fn wait_acquire(&self, counters: &TrackerCounters) {
        let mut seq = self.gate.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER;
        if seq & 1 == 1 {
            counters.contended();
        }
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
            if spins < GATE_SPINS {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
            seq = self.gate.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER;
        }
    }

    /// Append one retirement to the inbox (the first half of
    /// [`ShardedTracker::defer_retirement`]).
    pub(super) fn push_retirement(&self, retirement: Retirement) {
        let mut inbox = self.inbox.lock();
        inbox.push(retirement);
        self.inbox_len.store(inbox.len(), Ordering::SeqCst);
    }
}

/// Distinct shards a [`ShardIds`] holds in place. A node whose `AccessVec`
/// is inline (≤ 2 accesses) touches at most two, so every such registration
/// is allocation-free; four also covers the usual three- and four-clause
/// kernels.
const INLINE_SHARDS: usize = 4;

/// The shards one node's accesses touch, **ascending and deduplicated** —
/// the canonical acquisition order. Lives on the registering thread's stack;
/// only a node spanning more than [`INLINE_SHARDS`] shards touches the heap.
pub(super) struct ShardIds {
    inline: [usize; INLINE_SHARDS],
    len: usize,
    /// Takes over (holding every id) once the inline slots overflow.
    spill: Vec<usize>,
}

impl ShardIds {
    pub(super) fn of(tracker: &ShardedTracker, accesses: &[Access]) -> Self {
        let mut ids = ShardIds {
            inline: [0; INLINE_SHARDS],
            len: 0,
            spill: Vec::new(),
        };
        for access in accesses {
            ids.insert(tracker.shard_of(access.region.id.alloc));
        }
        ids
    }

    fn insert(&mut self, sid: usize) {
        if !self.spill.is_empty() {
            if let Err(at) = self.spill.binary_search(&sid) {
                self.spill.insert(at, sid);
            }
            return;
        }
        let at = self.inline[..self.len].partition_point(|&s| s < sid);
        if at < self.len && self.inline[at] == sid {
            return;
        }
        if self.len == INLINE_SHARDS {
            self.spill.extend_from_slice(&self.inline);
            self.spill.insert(at, sid);
            return;
        }
        self.inline.copy_within(at..self.len, at + 1);
        self.inline[at] = sid;
        self.len += 1;
    }
}

impl std::ops::Deref for ShardIds {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Exclusive access to a set of shards: the proof that the gate of every
/// shard in `sids` is held (odd), and the only way to reach shard data.
/// Every tracker operation — a registration of one node or of a whole replay
/// batch, a retirement, a GC sweep, a diagnostics read, a `taskwait on`
/// lookup — works through one of these. Dropping it releases every gate (so
/// a panic while holding cannot wedge a shard).
pub(super) struct Held<'a> {
    tracker: &'a ShardedTracker,
    /// The held shards, ascending and deduplicated.
    sids: &'a [usize],
    /// Whether every gate was taken by the polite try, without waiting.
    tried: bool,
}

impl<'a> Held<'a> {
    /// Acquire the gates of `sids` — ascending and deduplicated: the one
    /// global order, which is what makes multi-shard holds deadlock-free —
    /// waiting as long as it takes. Per gate: a polite attempt within the
    /// spin budget; failing that (or when the fault plan forces this
    /// acquisition off the try), the waiter-flag wait. Each shard's retire
    /// inbox is applied as its gate is taken, so no holder ever reads
    /// history with a retirement pending that was handed over before it
    /// acquired.
    pub(super) fn acquire(tracker: &'a ShardedTracker, sids: &'a [usize]) -> Self {
        let try_first = !tracker.forced_fallback();
        debug_assert!(
            sids.windows(2).all(|w| w[0] < w[1]),
            "shard ids must be sorted and deduplicated"
        );
        // Grows gate by gate, so an unwind releases exactly what was taken.
        let mut held = Held {
            tracker,
            sids: &sids[..0],
            tried: true,
        };
        for (i, &sid) in sids.iter().enumerate() {
            let slot = &tracker.shards[sid];
            if !(try_first && slot.try_acquire_spinning()) {
                held.tried = false;
                slot.wait_acquire(&tracker.counters);
            }
            held.sids = &sids[..=i];
            held.drain_inbox(sid);
        }
        held
    }

    /// Take `sid`'s gate if it is free right now; never waits.
    fn try_one(tracker: &'a ShardedTracker, sid: usize) -> Option<Self> {
        tracker.shards[sid].try_acquire().then(|| {
            let mut held = Held {
                tracker,
                sids: tracker.one(sid),
                tried: true,
            };
            held.drain_inbox(sid);
            held
        })
    }

    /// Whether the acquisition never had to wait: every gate fell to the
    /// polite try.
    pub(super) fn tried(&self) -> bool {
        self.tried
    }

    /// The data of shard `sid`, which must be one of the held shards. Takes
    /// `&mut self` so the borrow checker serialises access through the
    /// guard; the underlying exclusivity comes from the held gate.
    pub(super) fn shard(&mut self, sid: usize) -> &mut TrackerShard {
        assert!(self.sids.contains(&sid), "shard {sid} is not held");
        // SAFETY: a shard is listed in `sids` only after its gate was taken
        // (`acquire`, `try_one`), and `drop` — the only place that releases —
        // comes back here only after re-taking the gate. So whenever this
        // runs, this guard holds `sid`'s gate odd, which makes the access
        // exclusive; the returned borrow is tied to `&mut self`.
        unsafe { &mut *self.tracker.shards[sid].data.get() }
    }

    /// Retirements waiting in the inboxes of the held shards.
    pub(super) fn pending_retirements(&self) -> usize {
        self.sids
            .iter()
            .map(|&sid| self.tracker.shards[sid].inbox_len.load(Ordering::SeqCst))
            .sum()
    }

    /// Apply the retirements workers deferred into `sid`'s inbox.
    /// Allocation-free: the inbox vector and the shard's scratch vector swap
    /// roles, both keeping their capacity.
    fn drain_inbox(&mut self, sid: usize) {
        let tracker = self.tracker;
        let slot = &tracker.shards[sid];
        if slot.inbox_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let shard = self.shard(sid);
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
                release_node(node, &tracker.recycler);
            }
        }
        shard.scratch_inbox = batch;
    }
}

impl Drop for Held<'_> {
    /// Release every gate, then look at its inbox once more: a worker that
    /// found the gate held may have deferred a retirement after our
    /// acquisition-time drain. If so, and the gate is still free, take it
    /// back and drain — so a deferred retirement never outlives the gate
    /// hold that displaced it (and never waits for the next registration).
    /// If someone else got the gate first, their acquisition drains.
    fn drop(&mut self) {
        for &sid in self.sids {
            let slot = &self.tracker.shards[sid];
            loop {
                // Odd → even; a concurrently raised GATE_WAITER bit survives.
                slot.gate.fetch_add(1, Ordering::SeqCst);
                if slot.inbox_len.load(Ordering::SeqCst) == 0 || !slot.try_acquire() {
                    break;
                }
                self.drain_inbox(sid);
            }
        }
    }
}

impl ShardedTracker {
    /// Retire a completed task from the history: every live reference it
    /// still holds in any shard is replaced by a tombstone, releasing the
    /// node. Idempotent per task, and **never blocks**: a shard whose gate
    /// is free right now (one CAS) is updated in place; for a shard that is
    /// held (or when the fault plan forces it), the retirement goes into
    /// that shard's inbox and whoever holds or next takes the gate applies
    /// it. A worker stalled here would stop executing tasks while
    /// the spawner's next registration finds ever more live predecessors.
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
        // A forced retirement tries no gate and travels through the inbox;
        // forced at every roll, the equivalence suites' reference
        // configuration runs the deferred path throughout.
        let forced = self.forced_fallback();
        let mut held: Option<Held<'_>> = None;
        for access in node.accesses.iter() {
            let rid = access.region.id;
            let sid = self.shard_of(rid.alloc);
            if held.as_ref().is_none_or(|h| h.sids != [sid]) {
                // Release the previous shard before trying the next one.
                held = None;
                if !forced {
                    held = Held::try_one(self, sid);
                    if held.is_some() {
                        self.counters.hit(sid);
                    }
                }
            }
            match &mut held {
                // The worker still holds the node, so the reference coming
                // back is never the last one.
                Some(h) => drop(h.shard(sid).retire_region(rid, node.id, access.kind)),
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
        self.shards[sid].push_retirement(retirement);
        drop(Held::try_one(self, sid));
    }
}
// lint: hot-path-end
