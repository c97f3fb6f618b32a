//! The tracker gate — a mutex over the history, the tracker's **one** lock —
//! and the retire inbox that lets a completion go past it while it is held.
//! The fence handshake that keeps a deferred retirement from being stranded
//! lives here and nowhere else (see the [module docs](super), "Exclusion:
//! the gate" and "Retirement").
//!
//! **Starvation.** The gate is an ordinary mutex: a registration that finds
//! it held waits in `lock()`. While it waits, the only acquirers that do not
//! block are retirements — a task's one `try_lock`, its second look after a
//! deferral, and a release's re-check, which takes the gate only to apply
//! entries deferred since — and a task retires once, so they are bounded by
//! the tasks in flight. Every blocking acquirer (GC, the residue read,
//! `taskwait on`, another registration) is a spawning thread waiting in the
//! same `lock()`. That is also why a registration that waited behind a
//! retirement still counts as a fast-path hit, and only one that waited
//! behind another blocking acquirer (or was forced) counts as a fallback.

use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use super::history::{release_node, History, Retirement};
use super::Tracker;
use crate::stats::{StatCounters, StatField};
use crate::task::TaskNode;

/// The history behind its lock, and the inbox of retirements deferred while
/// the lock was held.
///
/// * `history` is the **single point of mutual exclusion**: all access to
///   it — reads included — goes through a [`Held`] guard.
/// * `blocker_holds` says whether the holder took the gate with a blocking
///   acquisition ([`Held::acquire`]: a registration, a sweep, a lookup) —
///   a spawning thread, then, not a retirement. Only that holder writes it;
///   only a registration whose `try_lock` failed reads it, to count the
///   wait as a fast-path fallback or not. It orders nothing.
/// * `inbox` holds the retirements of workers that found the gate held (see
///   [`Tracker::retire`]); its mutex is only ever held for one push or one
///   buffer swap, never across history work. `inbox_len` mirrors its length
///   so a gate holder can skip the lock when nothing is pending.
pub(super) struct Gate {
    history: Mutex<History>,
    blocker_holds: AtomicBool,
    inbox_len: AtomicUsize,
    inbox: Mutex<Vec<Retirement>>,
}

/// Retirements the inbox (and the history-side buffer it is swapped with)
/// can hold before growing: sized for the completions of one long gate hold,
/// so a warm runtime defers without allocating.
const INBOX_CAPACITY: usize = 64;

// lint: hot-path-begin — gate, guard and retire inbox: every task
// registration and completion passes through here; no panicking calls
// allowed (see `cargo xtask lint`).
//
// Memory ordering: `inbox_len` is read and written `Relaxed`. What a holder
// must see of it comes from three places: the inbox mutex (the entries
// themselves), the happens-before chain of invariant (a) (a retirement is
// handed over before the ticket release a spawner observes under the
// handle's chain lock), and the fence handshake between a deferring worker
// and a releasing holder (`Tracker::defer_retirement`, `Release::drop`).
impl Gate {
    pub(super) fn new() -> Self {
        Gate {
            history: Mutex::new(History {
                scratch_inbox: Vec::with_capacity(INBOX_CAPACITY),
                ..History::default()
            }),
            blocker_holds: AtomicBool::new(false),
            inbox_len: AtomicUsize::new(0),
            inbox: Mutex::new(Vec::with_capacity(INBOX_CAPACITY)),
        }
    }

    /// Append the retirements of one node's accesses to the inbox (the
    /// first half of [`Tracker::defer_retirement`]).
    pub(super) fn push_retirements(&self, retirements: impl Iterator<Item = Retirement>) {
        let mut inbox = self.inbox.lock();
        inbox.extend(retirements);
        self.inbox_len.store(inbox.len(), Ordering::Relaxed);
    }

    /// Retirements waiting in the inbox.
    pub(super) fn pending_retirements(&self) -> usize {
        self.inbox_len.load(Ordering::Relaxed)
    }
}

/// Exclusive access to the history: the held lock, and the only way to
/// reach the history. Every tracker operation — a registration of one node
/// or of a whole replay batch, a retirement, a GC sweep, a residue read, a
/// `taskwait on` lookup — works through one of these. Dropping it releases
/// the gate (so a panic while holding cannot wedge the tracker) and then
/// re-checks the inbox.
pub(super) struct Held<'a> {
    /// Declared before `release`, so it drops first: the lock is free by
    /// the time `release` looks at the inbox.
    history: MutexGuard<'a, History>,
    release: Release<'a>,
    /// Whether the acquisition was a fast-path hit (see [`Held::acquire`]).
    fast_path: bool,
    /// Whether this guard came from [`Held::acquire`] and so raised
    /// `blocker_holds`.
    blocker: bool,
}

/// The second half of dropping a [`Held`]: runs after its lock is released.
struct Release<'a>(&'a Tracker);

impl<'a> Held<'a> {
    /// Acquire the gate, waiting as long as it takes: one `try_lock`;
    /// failing that, a blocking `lock()`, counted into `stats` as
    /// contention. The acquisition is a fast-path hit unless the try found
    /// another blocking acquirer holding the gate or the fault plan forced
    /// it: a wait behind a retirement is bounded (see the module doc) and
    /// still a hit. The retire inbox is applied as the gate is taken, so no
    /// holder ever reads history with a retirement pending that was handed
    /// over before it acquired.
    pub(super) fn acquire(tracker: &'a Tracker, stats: &StatCounters) -> Self {
        let gate = &tracker.gate;
        let forced = tracker.forced_fallback();
        let (history, behind_blocker) = match gate.history.try_lock() {
            Some(history) => (history, false),
            None => {
                stats.add(StatField::TrackerLockContention, 1);
                let behind_blocker = gate.blocker_holds.load(Ordering::Relaxed);
                (gate.history.lock(), behind_blocker)
            }
        };
        gate.blocker_holds.store(true, Ordering::Relaxed);
        Held::new(tracker, history, !forced && !behind_blocker, true)
    }

    /// Take the gate if it is free right now; never waits.
    pub(super) fn try_acquire(tracker: &'a Tracker) -> Option<Self> {
        let history = tracker.gate.history.try_lock()?;
        Some(Held::new(tracker, history, true, false))
    }

    fn new(
        tracker: &'a Tracker,
        mut history: MutexGuard<'a, History>,
        fast_path: bool,
        blocker: bool,
    ) -> Self {
        drain_inbox(tracker, &mut history);
        Held {
            history,
            release: Release(tracker),
            fast_path,
            blocker,
        }
    }

    /// Whether the acquisition was a fast-path hit: its `try_lock` found
    /// the gate free or held by a retirement, and no fault plan forced it.
    pub(super) fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The history. Takes `&mut self` so the borrow checker serialises
    /// access through the guard.
    pub(super) fn history(&mut self) -> &mut History {
        &mut self.history
    }

    /// Retirements waiting in the inbox.
    pub(super) fn pending_retirements(&self) -> usize {
        self.release.0.gate.pending_retirements()
    }
}

/// Apply the retirements workers deferred into the inbox. Allocation-free:
/// the inbox vector and the history's scratch vector swap roles, both
/// keeping their capacity.
fn drain_inbox(tracker: &Tracker, history: &mut History) {
    let gate = &tracker.gate;
    if gate.pending_retirements() == 0 {
        return;
    }
    let mut batch = std::mem::take(&mut history.scratch_inbox);
    {
        let mut inbox = gate.inbox.lock();
        std::mem::swap(&mut *inbox, &mut batch);
        gate.inbox_len.store(0, Ordering::Relaxed);
    }
    for r in batch.drain(..) {
        // The worker that deferred this usually finished with the node long
        // ago, which makes the history reference the last one.
        if let Some(node) = history.retire_region(r.rid, r.task, r.kind) {
            release_node(node, &tracker.recycler);
        }
    }
    history.scratch_inbox = batch;
}

impl Drop for Held<'_> {
    /// Runs before the fields drop, so the flag falls while the gate is
    /// still held.
    fn drop(&mut self) {
        if self.blocker {
            let gate = &self.release.0.gate;
            gate.blocker_holds.store(false, Ordering::Relaxed);
        }
    }
}

impl Drop for Release<'_> {
    /// The gate was just released; look at the inbox once more: a worker
    /// that found the gate held may have deferred a retirement after the
    /// acquisition-time drain. If so, and the gate is still free, take it
    /// back and drain — so a deferred retirement never outlives the gate
    /// hold that displaced it (and never waits for the next registration).
    /// If someone else got the gate first, their acquisition drains.
    fn drop(&mut self) {
        let tracker = self.0;
        let gate = &tracker.gate;
        loop {
            // Pairs with the fence in `Tracker::defer_retirement`: see there.
            fence(Ordering::SeqCst);
            if gate.pending_retirements() == 0 {
                return;
            }
            let Some(mut history) = gate.history.try_lock() else {
                return;
            };
            drain_inbox(tracker, &mut history);
        }
    }
}

impl Tracker {
    /// Retire a completed task from the history: every live reference it
    /// still holds is replaced by a tombstone, releasing the node.
    /// Idempotent per task, and **never blocks**: if the gate is free right
    /// now (one `try_lock`) the history is updated in place; if it is held
    /// (or the fault plan forces it), the retirements go into the inbox and
    /// whoever holds or next takes the gate applies them. A worker stalled
    /// here would stop executing tasks while the spawner's next registration
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
    /// with released (and checked the inbox) just before our push. This
    /// thread stores `inbox_len`, fences, then reads the lock word in
    /// `try_lock`; the holder writes the lock word in its unlock, fences
    /// (`Release::drop`), then loads `inbox_len`. The two SeqCst fences are
    /// totally ordered. If ours comes first, the holder's load sees our
    /// store (or a later one — a drainer that already took the entries), so
    /// it drains. If the holder's comes first, our `try_lock` sees its
    /// unlock: we find the gate free and drain ourselves, or find a *newer*
    /// holder, whose own release repeats the argument. Either way the
    /// entries are applied by a thread that is still inside a registration
    /// or a completion, i.e. before the runtime can look quiescent.
    fn defer_retirement(&self, node: &TaskNode) {
        self.gate
            .push_retirements(node.accesses.iter().map(|access| Retirement {
                rid: access.region.id,
                task: node.id,
                kind: access.kind,
            }));
        fence(Ordering::SeqCst);
        drop(Held::try_acquire(self));
    }
}
// lint: hot-path-end
