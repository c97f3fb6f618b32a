//! Deterministic, seeded fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a pure function from `(seed, fault class, serial)` to
//! "inject or not": no wall clock, no global RNG state, no environment
//! variables. The serial is the task's spawn id for task-granular faults
//! (task-body panics, delayed completions) and a per-class call counter for
//! infrastructure faults (forced rename-budget exhaustion, forced tracker
//! fast-path fallbacks, queue-full bursts), so a plan replays the *same*
//! decisions for the same workload shape — a chaos counterexample found in
//! CI reproduces locally from nothing but the seed.
//!
//! Rates are expressed per million rolls. The decision is
//! `splitmix64(seed ⊕ class ⊕ serial) mod 1_000_000 < rate`, which makes
//! every class an independent Bernoulli stream over serials.
//!
//! When no plan is installed ([`RuntimeConfig`](crate::RuntimeConfig) default)
//! the hooks cost a single `Option` check on an `Arc` field — no atomics, no
//! hashing.
//!
//! # Worked example: a chaos test
//!
//! Inject a panic into roughly 1 in 50 task bodies and delay 1 in 20
//! completions, then assert the failure semantics: the graph drains (no
//! stranded successor hangs the `taskwait`), poisoned work never commits,
//! and the tracker/slab diagnostics return to zero.
//!
//! ```
//! use ompss::{FaultClass, FaultPlan, Runtime, RuntimeConfig};
//!
//! let plan = FaultPlan::seeded(0xC4A05)
//!     .panic_one_in(50)
//!     .delay_one_in(20, 64);
//! let rt = Runtime::new(
//!     RuntimeConfig::default()
//!         .with_workers(2)
//!         .with_fault_plan(plan.clone()),
//! );
//! let sum = rt.data(0u64);
//! for i in 0..200u64 {
//!     let sum = sum.clone();
//!     rt.task().inout(&sum).spawn(move |ctx| {
//!         *ctx.write(&sum) += i;
//!     });
//! }
//! // The chain is serialised on `sum`: the first injected panic poisons
//! // every later task, so the surviving prefix sum is still exact.
//! let poisoned = rt.try_taskwait().is_err();
//! assert_eq!(poisoned, plan.injected(FaultClass::TaskPanic) > 0);
//! assert_eq!(rt.in_flight_tasks(), 0);
//! assert_eq!(rt.task_slab_diagnostics().outstanding, 0);
//! assert!(rt.tracker_diagnostics().total_regions() == 0);
//! rt.shutdown();
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The classes of fault a [`FaultPlan`] can inject. Each class draws from an
/// independent deterministic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Panic injected into a task body just as it starts executing (the
    /// body's captures are dropped unrun; successors are poisoned exactly as
    /// for a genuine body panic). Serial: the task's spawn id.
    TaskPanic = 0,
    /// Spin/yield delay inserted between a task body finishing and its
    /// completion being published, widening the window in which successors
    /// are registered against a finished-but-incomplete predecessor.
    /// Serial: the task's spawn id.
    DelayedCompletion = 1,
    /// An `output` rename forced to behave as if the byte budget were
    /// exhausted: the access falls back to serialising in place (the
    /// documented backpressure path). Serial: per-class call counter.
    RenameExhaustion = 2,
    /// A tracker gate acquisition forced to skip the polite try (a fresh
    /// registration so forced counts as a fast-path fallback), or a
    /// retirement forced through the shard's retire inbox. Serial: per-class
    /// call counter.
    TrackerFallback = 3,
    /// An ingest-queue push forced to report the queue as full, shedding the
    /// job even below capacity. Serial: per-class call counter.
    QueueFull = 4,
}

const NUM_CLASSES: usize = 5;

/// SplitMix64: a full-period mixer; consecutive serials map to
/// statistically independent outputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded, deterministic fault-injection plan. See the [module
/// docs](crate::failpoint) for the indexing discipline and a worked example.
///
/// Cheap to share: install one plan into a
/// [`RuntimeConfig`](crate::RuntimeConfig::with_fault_plan) and keep a clone
/// to read the injection counters after the run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

#[derive(Debug)]
struct PlanInner {
    seed: u64,
    /// Injection rate per million rolls, per class.
    rates: [u32; NUM_CLASSES],
    /// Yields inserted per delayed completion.
    delay_spins: u32,
    /// Per-class call counters for classes without a natural serial.
    serials: [AtomicU64; NUM_CLASSES],
    /// Per-class count of faults actually injected.
    injected: [AtomicU64; NUM_CLASSES],
}

impl FaultPlan {
    /// A plan with the given seed and every rate zero.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                rates: [0; NUM_CLASSES],
                delay_spins: 32,
                serials: Default::default(),
                injected: Default::default(),
            }),
        }
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    fn with_rate(self, class: FaultClass, per_million: u32) -> Self {
        let mut inner = PlanInner {
            seed: self.inner.seed,
            rates: self.inner.rates,
            delay_spins: self.inner.delay_spins,
            serials: Default::default(),
            injected: Default::default(),
        };
        inner.rates[class as usize] = per_million.min(1_000_000);
        FaultPlan {
            inner: Arc::new(inner),
        }
    }

    /// Set an explicit per-million injection rate for `class`.
    pub fn rate_per_million(self, class: FaultClass, per_million: u32) -> Self {
        self.with_rate(class, per_million)
    }

    /// Inject a task-body panic roughly once per `n` tasks.
    pub fn panic_one_in(self, n: u64) -> Self {
        self.with_rate(FaultClass::TaskPanic, one_in(n))
    }

    /// Delay roughly one in `n` completions by `spins` scheduler yields.
    pub fn delay_one_in(self, n: u64, spins: u32) -> Self {
        let mut plan = self.with_rate(FaultClass::DelayedCompletion, one_in(n));
        // The Arc was just freshly minted by `with_rate`.
        Arc::get_mut(&mut plan.inner)
            .expect("freshly built plan is unshared")
            .delay_spins = spins;
        plan
    }

    /// Force roughly one in `n` renames to see an exhausted byte budget.
    pub fn rename_exhaust_one_in(self, n: u64) -> Self {
        self.with_rate(FaultClass::RenameExhaustion, one_in(n))
    }

    /// Force roughly one in `n` tracker operations off the fast path; `n = 1`
    /// forces all of them — the tracker's reference configuration.
    pub fn tracker_fallback_one_in(self, n: u64) -> Self {
        self.with_rate(FaultClass::TrackerFallback, one_in(n))
    }

    /// Force roughly one in `n` ingest-queue pushes to see a full queue.
    pub fn queue_full_one_in(self, n: u64) -> Self {
        self.with_rate(FaultClass::QueueFull, one_in(n))
    }

    /// Decide (and record) whether to inject `class` at `serial`. Pure in
    /// `(seed, class, serial)`; the only mutation is the injected counter.
    pub fn roll(&self, class: FaultClass, serial: u64) -> bool {
        let rate = self.inner.rates[class as usize];
        if rate == 0 {
            return false;
        }
        let key = self
            .inner
            .seed
            .wrapping_add((class as u64).wrapping_mul(0xA076_1D64_78BD_642F))
            ^ serial.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        let hit = splitmix64(key) % 1_000_000 < rate as u64;
        if hit {
            self.inner.injected[class as usize].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// As [`FaultPlan::roll`] with the class's own call counter as serial —
    /// for hooks without a natural serial (rename, tracker, queue).
    pub fn roll_next(&self, class: FaultClass) -> bool {
        if self.inner.rates[class as usize] == 0 {
            return false;
        }
        let serial = self.inner.serials[class as usize].fetch_add(1, Ordering::Relaxed);
        self.roll(class, serial)
    }

    /// Yields inserted per delayed completion.
    pub fn delay_spins(&self) -> u32 {
        self.inner.delay_spins
    }

    /// Faults of `class` injected so far.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.inner.injected[class as usize].load(Ordering::Relaxed)
    }
}

/// `1/n` as a per-million rate (`n = 0` means never, `n = 1` always).
fn one_in(n: u64) -> u32 {
    match n {
        0 => 0,
        n => (1_000_000 / n).max(1) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_in_seed_class_serial() {
        let a = FaultPlan::seeded(7).panic_one_in(10);
        let b = FaultPlan::seeded(7).panic_one_in(10);
        let decisions_a: Vec<bool> = (0..1000).map(|s| a.roll(FaultClass::TaskPanic, s)).collect();
        let decisions_b: Vec<bool> = (0..1000).map(|s| b.roll(FaultClass::TaskPanic, s)).collect();
        assert_eq!(decisions_a, decisions_b);
        assert_eq!(
            a.injected(FaultClass::TaskPanic),
            b.injected(FaultClass::TaskPanic)
        );
        assert!(a.injected(FaultClass::TaskPanic) > 0, "1-in-10 over 1000");
    }

    #[test]
    fn different_seeds_differ_and_classes_are_independent() {
        let a = FaultPlan::seeded(1).panic_one_in(4);
        let b = FaultPlan::seeded(2).panic_one_in(4);
        let da: Vec<bool> = (0..256).map(|s| a.roll(FaultClass::TaskPanic, s)).collect();
        let db: Vec<bool> = (0..256).map(|s| b.roll(FaultClass::TaskPanic, s)).collect();
        assert_ne!(da, db, "seed must matter");
        // A class with rate 0 never fires even at a hot serial.
        assert!((0..256).all(|s| !a.roll(FaultClass::QueueFull, s)));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan::seeded(42).rate_per_million(FaultClass::TaskPanic, 100_000);
        let hits = (0..10_000)
            .filter(|&s| plan.roll(FaultClass::TaskPanic, s))
            .count();
        // 10% of 10k = 1000 expected; allow a generous deterministic band.
        assert!((600..1400).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn roll_next_advances_the_class_serial() {
        let plan = FaultPlan::seeded(3).queue_full_one_in(2);
        let first: Vec<bool> = (0..100).map(|_| plan.roll_next(FaultClass::QueueFull)).collect();
        assert!(first.iter().any(|&h| h) && first.iter().any(|&h| !h));
        // Re-seeded plan replays the same stream.
        let replay = FaultPlan::seeded(3).queue_full_one_in(2);
        let second: Vec<bool> = (0..100)
            .map(|_| replay.roll_next(FaultClass::QueueFull))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn one_in_bounds() {
        assert_eq!(one_in(0), 0);
        assert_eq!(one_in(1), 1_000_000);
        assert_eq!(one_in(2), 500_000);
        assert_eq!(one_in(10_000_000), 1, "sub-ppm clamps to 1");
    }
}
