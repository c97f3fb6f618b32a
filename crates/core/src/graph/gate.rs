//! The tracker gate — the tracker's **one** exclusion protocol — and the
//! retire inbox that lets a completion go past a held gate. The `unsafe`
//! access to the history and the SeqCst gate/inbox handshake live here and
//! nowhere else (see the [module docs](super), "Exclusion: one gate" and
//! "Retirement").

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::history::{release_node, History, Retirement};
use super::Tracker;
use crate::stats::{StatCounters, StatField};
use crate::task::TaskNode;

/// The history, the gate protecting it, and the inbox of retirements
/// deferred while it was held.
///
/// * `word` is the seqlock-style sequence counter and the **single point of
///   mutual exclusion**: even = quiescent, odd = some mutator owns the
///   history.
/// * `inbox` holds the retirements of workers that found the gate held (see
///   [`Tracker::retire`]); its mutex is only ever held for one push or one
///   buffer swap, never across history work. `inbox_len` mirrors its length
///   so a gate holder can skip the lock when nothing is pending.
///
/// All access to `history` — reads included — happens with the gate held
/// odd, through a [`Held`] guard.
pub(super) struct Gate {
    word: AtomicU64,
    inbox_len: AtomicUsize,
    inbox: Mutex<Vec<Retirement>>,
    history: UnsafeCell<History>,
}

/// Flag bit in the gate word set by an acquirer while it *waits*: polite
/// attempts ([`Gate::try_acquire`]) refuse while it is set, so a waiter
/// cannot be starved by a stream of short publications. The sequence
/// occupies the remaining bits.
const GATE_WAITER: u64 = 1 << 63;

/// How many spins an acquisition outwaits a gate holder for before it raises
/// [`GATE_WAITER`], and how many more a waiter spins before it starts
/// yielding. A retirement, a one-region registration or an inbox drain is
/// gone long before the budget runs out.
const GATE_SPINS: u32 = 64;

/// Retirements the inbox (and the history-side buffer it is swapped with)
/// can hold before growing: sized for the completions of one long gate hold,
/// so a warm runtime defers without allocating.
const INBOX_CAPACITY: usize = 64;

// SAFETY: `history` is only ever accessed while the gate is held odd
// (acquired with a SeqCst CAS, released with a SeqCst add), which makes
// every access exclusive; `History` itself is `Send` (task nodes are
// `Send + Sync`). The remaining fields are atomics and a mutex.
unsafe impl Sync for Gate {}

// lint: hot-path-begin — gate, guard and retire inbox: every task
// registration and completion passes through here; no panicking calls
// allowed (see `cargo xtask lint`).
//
// Memory ordering: the gate CASes/adds and the `inbox_len` accesses are all
// SeqCst. A deferring worker *stores* `inbox_len` and then *loads* the gate;
// a gate holder *stores* the gate (release) and then *loads* `inbox_len` —
// the store-then-load pairing needs the single total order so that at least
// one side sees the other (see `Tracker::retire`).
impl Gate {
    pub(super) fn new() -> Self {
        Gate {
            word: AtomicU64::new(0),
            inbox_len: AtomicUsize::new(0),
            inbox: Mutex::new(Vec::with_capacity(INBOX_CAPACITY)),
            history: UnsafeCell::new(History {
                scratch_inbox: Vec::with_capacity(INBOX_CAPACITY),
                ..History::default()
            }),
        }
    }

    /// Whether some mutator holds the gate right now. The waiter flag is
    /// advisory and masked out; only the low sequence bit decides.
    pub(super) fn is_held(&self) -> bool {
        self.word.load(Ordering::Acquire) & 1 == 1
    }

    /// Take the gate if it is free right now *and* nobody is waiting for it.
    /// Never blocks.
    fn try_acquire(&self) -> bool {
        let seq = self.word.load(Ordering::SeqCst);
        seq & 1 == 0
            && seq & GATE_WAITER == 0
            && self
                .word
                .compare_exchange(seq, seq + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
    }

    /// The polite first step of a blocking acquisition:
    /// [`Gate::try_acquire`] for up to [`GATE_SPINS`] spins, giving up at
    /// once when somebody is already waiting (it must not be starved).
    fn try_acquire_spinning(&self) -> bool {
        for _ in 0..GATE_SPINS {
            if self.try_acquire() {
                return true;
            }
            if self.word.load(Ordering::Relaxed) & GATE_WAITER != 0 {
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
    fn wait_acquire(&self, stats: &StatCounters) {
        let mut seq = self.word.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER;
        if seq & 1 == 1 {
            stats.add(StatField::TrackerLockContention, 1);
        }
        let mut spins = 0u32;
        loop {
            if seq & 1 == 0
                && self
                    .word
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
            seq = self.word.fetch_or(GATE_WAITER, Ordering::Relaxed) | GATE_WAITER;
        }
    }

    /// Append the retirements of one node's accesses to the inbox (the
    /// first half of [`Tracker::defer_retirement`]).
    pub(super) fn push_retirements(&self, retirements: impl Iterator<Item = Retirement>) {
        let mut inbox = self.inbox.lock();
        inbox.extend(retirements);
        self.inbox_len.store(inbox.len(), Ordering::SeqCst);
    }
}

/// Exclusive access to the history: the proof that the gate is held (odd),
/// and the only way to reach the history. Every tracker operation — a
/// registration of one node or of a whole replay batch, a retirement, a GC
/// sweep, a residue read, a `taskwait on` lookup — works through one of
/// these. Dropping it releases the gate (so a panic while holding cannot
/// wedge the tracker).
pub(super) struct Held<'a> {
    tracker: &'a Tracker,
    /// Whether the gate fell to the polite try, without waiting.
    tried: bool,
}

impl<'a> Held<'a> {
    /// Acquire the gate, waiting as long as it takes: a polite attempt
    /// within the spin budget; failing that (or when the fault plan forces
    /// this acquisition off the try), the waiter-flag wait. The retire inbox
    /// is applied as the gate is taken, so no holder ever reads history with
    /// a retirement pending that was handed over before it acquired. A wait
    /// that finds the gate held is counted into `stats`.
    pub(super) fn acquire(tracker: &'a Tracker, stats: &StatCounters) -> Self {
        let gate = &tracker.gate;
        let tried = !tracker.forced_fallback() && gate.try_acquire_spinning();
        if !tried {
            gate.wait_acquire(stats);
        }
        let mut held = Held { tracker, tried };
        held.drain_inbox();
        held
    }

    /// Take the gate if it is free right now; never waits.
    fn try_acquire(tracker: &'a Tracker) -> Option<Self> {
        tracker.gate.try_acquire().then(|| {
            let mut held = Held {
                tracker,
                tried: true,
            };
            held.drain_inbox();
            held
        })
    }

    /// Whether the acquisition never had to wait: the gate fell to the
    /// polite try.
    pub(super) fn tried(&self) -> bool {
        self.tried
    }

    /// The history. Takes `&mut self` so the borrow checker serialises
    /// access through the guard; the underlying exclusivity comes from the
    /// held gate.
    pub(super) fn history(&mut self) -> &mut History {
        // SAFETY: a `Held` exists only after its gate was taken (`acquire`,
        // `try_acquire`), and `drop` — the only place that releases — comes
        // back here only after re-taking the gate. So whenever this runs,
        // this guard holds the gate odd, which makes the access exclusive;
        // the returned borrow is tied to `&mut self`.
        unsafe { &mut *self.tracker.gate.history.get() }
    }

    /// Retirements waiting in the inbox.
    pub(super) fn pending_retirements(&self) -> usize {
        self.tracker.gate.inbox_len.load(Ordering::SeqCst)
    }

    /// Apply the retirements workers deferred into the inbox.
    /// Allocation-free: the inbox vector and the history's scratch vector
    /// swap roles, both keeping their capacity.
    fn drain_inbox(&mut self) {
        let tracker = self.tracker;
        let gate = &tracker.gate;
        if gate.inbox_len.load(Ordering::SeqCst) == 0 {
            return;
        }
        let history = self.history();
        let mut batch = std::mem::take(&mut history.scratch_inbox);
        {
            let mut inbox = gate.inbox.lock();
            std::mem::swap(&mut *inbox, &mut batch);
            gate.inbox_len.store(0, Ordering::SeqCst);
        }
        for r in batch.drain(..) {
            // The worker that deferred this usually finished with the node
            // long ago, which makes the history reference the last one.
            if let Some(node) = history.retire_region(r.rid, r.task, r.kind) {
                release_node(node, &tracker.recycler);
            }
        }
        history.scratch_inbox = batch;
    }
}

impl Drop for Held<'_> {
    /// Release the gate, then look at the inbox once more: a worker that
    /// found the gate held may have deferred a retirement after our
    /// acquisition-time drain. If so, and the gate is still free, take it
    /// back and drain — so a deferred retirement never outlives the gate
    /// hold that displaced it (and never waits for the next registration).
    /// If someone else got the gate first, their acquisition drains.
    fn drop(&mut self) {
        let gate = &self.tracker.gate;
        loop {
            // Odd → even; a concurrently raised GATE_WAITER bit survives.
            gate.word.fetch_add(1, Ordering::SeqCst);
            if gate.inbox_len.load(Ordering::SeqCst) == 0 || !gate.try_acquire() {
                break;
            }
            self.drain_inbox();
        }
    }
}

impl Tracker {
    /// Retire a completed task from the history: every live reference it
    /// still holds is replaced by a tombstone, releasing the node.
    /// Idempotent per task, and **never blocks**: if the gate is free right
    /// now (one CAS) the history is updated in place; if it is held (or the
    /// fault plan forces it), the retirements go into the inbox and whoever
    /// holds or next takes the gate applies them. A worker stalled here
    /// would stop executing tasks while the spawner's next registration
    /// finds ever more live predecessors.
    ///
    /// Ordering contract (load-bearing, see the module docs): by the time
    /// this returns, every access is either tombstoned or in the inbox, and
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
        let held = if self.forced_fallback() {
            None
        } else {
            Held::try_acquire(self)
        };
        let Some(mut held) = held else {
            self.defer_retirement(node);
            return;
        };
        let history = held.history();
        for access in node.accesses.iter() {
            // The worker still holds the node, so the reference coming back
            // is never the last one.
            drop(history.retire_region(access.region.id, node.id, access.kind));
        }
    }

    /// Hand `node`'s retirements to the inbox, then try the gate once more.
    ///
    /// The second look closes the window in which the holder we collided
    /// with released (and checked the inbox) just before our push: in the
    /// SeqCst order either its post-release `inbox_len` load follows our
    /// store — it drains — or our gate load follows its release — we find
    /// the gate free and drain ourselves, or find a *newer* holder, whose
    /// own release repeats the argument. Either way the entries are applied
    /// by a thread that is still inside a registration or a completion, i.e.
    /// before the runtime can look quiescent.
    fn defer_retirement(&self, node: &TaskNode) {
        self.gate
            .push_retirements(node.accesses.iter().map(|access| Retirement {
                rid: access.region.id,
                task: node.id,
                kind: access.kind,
            }));
        drop(Held::try_acquire(self));
    }
}
// lint: hot-path-end
