//! The tracker gate — a mutex over the history, the tracker's **one** lock —
//! and the guard every tracker operation holds it through (see the
//! [module docs](super), "Exclusion: the gate").
//!
//! **Starvation.** The gate is an ordinary mutex, and every acquirer — a
//! registration, a GC sweep, the residue read, `taskwait on` — is a
//! spawning thread that waits in the same `lock()` when its `try_lock`
//! fails. No worker takes it: a completing task leaves its history
//! references in place (completion is the tombstone), so nothing but
//! another spawner can stand between a registration and the gate.

use parking_lot::MutexGuard;

use super::history::History;
use super::Tracker;
use crate::stats::{StatCounters, StatField};

// lint: hot-path-begin — gate and guard: every task registration passes
// through here; no panicking calls allowed (see `cargo xtask lint`).

/// Exclusive access to the history: the held lock, and the only way to
/// reach the history. Every tracker operation — a registration of one node
/// or of a whole replay batch, a GC sweep, a residue read, a `taskwait on`
/// lookup — works through one of these. Dropping it releases the gate, so a
/// panic while holding cannot wedge the tracker.
pub(super) struct Held<'a> {
    history: MutexGuard<'a, History>,
    /// Whether the acquisition was a fast-path hit (see [`Held::acquire`]).
    fast_path: bool,
}

impl<'a> Held<'a> {
    /// Acquire the gate, waiting as long as it takes: one `try_lock`;
    /// failing that, a blocking `lock()`, counted into `stats` as
    /// contention. The acquisition is a fast-path hit unless the try failed.
    pub(super) fn acquire(tracker: &'a Tracker, stats: &StatCounters) -> Self {
        let (history, fast_path) = match tracker.gate.try_lock() {
            Some(history) => (history, true),
            None => {
                stats.add(StatField::TrackerLockContention, 1);
                (tracker.gate.lock(), false)
            }
        };
        Held { history, fast_path }
    }

    /// Whether the acquisition was a fast-path hit: its `try_lock` took the
    /// gate.
    pub(super) fn fast_path(&self) -> bool {
        self.fast_path
    }

    /// The history. Takes `&mut self` so the borrow checker serialises
    /// access through the guard.
    pub(super) fn history(&mut self) -> &mut History {
        &mut self.history
    }
}
// lint: hot-path-end
