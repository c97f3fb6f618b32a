//! Manual renaming support for pipeline parallelism.
//!
//! OmpSs performs no automatic renaming, so a pipeline in which every
//! iteration writes the same buffers would serialise completely on WAR/WAW
//! hazards. Listing 1 of the paper works around this with circular buffers of
//! size `N` (`frm[k % N]`, `slice[k % N]`, …): iteration `k` uses entry
//! `k mod N`, which removes the false dependences between iterations that are
//! at least `N` apart while keeping the true dependences within an iteration
//! and between iteration `k` and `k + N`.
//!
//! [`RenameRing`] packages that idiom: a fixed ring of [`Data`] handles
//! indexed by iteration number.

use crate::capture::ReplayBindings;
use crate::handle::Data;

/// A circular buffer of `N` independently-tracked [`Data`] slots.
///
/// `ring.slot(k)` returns the handle for iteration `k` (i.e. slot `k % N`).
/// Using the returned handle in access clauses gives exactly the manual
/// renaming pattern of Listing 1.
pub struct RenameRing<T> {
    slots: Vec<Data<T>>,
}

impl<T: Send + 'static> RenameRing<T> {
    /// Create a ring of `n` slots, each initialised with `init(slot_index)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        assert!(n > 0, "rename ring needs at least one slot");
        RenameRing {
            slots: (0..n).map(|i| Data::new(init(i))).collect(),
        }
    }

    /// Create a ring of `n` default-initialised slots.
    pub fn with_default(n: usize) -> Self
    where
        T: Default,
    {
        Self::new(n, |_| T::default())
    }

    /// Number of slots in the ring (the renaming depth `N`).
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// The handle used by iteration `iteration` (slot `iteration % N`).
    pub fn slot(&self, iteration: usize) -> &Data<T> {
        &self.slots[iteration % self.slots.len()]
    }

    /// The handle of slot `index` directly (0-based, must be `< depth()`).
    pub fn slot_by_index(&self, index: usize) -> &Data<T> {
        &self.slots[index]
    }

    /// Iterate over all slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Data<T>> {
        self.slots.iter()
    }

    /// Install bindings that rotate every slot by the iteration distance
    /// between a captured iteration and the one a replay stamps: the clause
    /// captured against slot `i` resolves against slot
    /// `(i + replay_iteration − captured_iteration) mod N`, which is exactly
    /// the `k % N` indexing of Listing 1 applied to the whole batch.
    ///
    /// Clause substitution redirects the *dependences*; the captured bodies
    /// still name the slots they captured, so pair this with bodies that
    /// pick their slot from
    /// [`TaskContext::replay_pass`](crate::TaskContext::replay_pass) (e.g.
    /// `ring.slot(captured_iteration + ctx.replay_pass() as usize)`).
    ///
    /// # Panics
    /// Panics if `replay_iteration < captured_iteration`.
    pub fn rebind(
        &self,
        bindings: &mut ReplayBindings,
        captured_iteration: usize,
        replay_iteration: usize,
    ) {
        assert!(
            replay_iteration >= captured_iteration,
            "replay iterations run after the captured iteration"
        );
        let n = self.slots.len();
        let offset = (replay_iteration - captured_iteration) % n;
        for i in 0..n {
            bindings.bind(&self.slots[i], &self.slots[(i + offset) % n]);
        }
    }

    /// Consume the ring, returning the slot handles.
    pub fn into_slots(self) -> Vec<Data<T>> {
        self.slots
    }
}

impl<T> std::fmt::Debug for RenameRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RenameRing(depth {})", self.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_panics() {
        let _ = RenameRing::<u32>::new(0, |_| 0);
    }

    #[test]
    fn slots_are_distinct_regions() {
        let ring = RenameRing::new(4, |i| i as u64);
        use crate::handle::Accessible;
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    !ring
                        .slot_by_index(i)
                        .region()
                        .overlaps(&ring.slot_by_index(j).region()),
                    "slots {i} and {j} must be independent"
                );
            }
        }
    }

    #[test]
    fn iteration_maps_to_modular_slot() {
        use crate::handle::Accessible;
        let ring = RenameRing::<u32>::with_default(3);
        assert_eq!(ring.depth(), 3);
        // Iterations 0,3,6 share a slot; 0 and 1 do not.
        assert_eq!(ring.slot(0).region(), ring.slot(3).region());
        assert_eq!(ring.slot(3).region(), ring.slot(6).region());
        assert_ne!(ring.slot(0).region().id, ring.slot(1).region().id);
    }

    #[test]
    fn init_receives_slot_index() {
        let ring = RenameRing::new(5, |i| i * 10);
        let values: Vec<usize> = ring
            .into_slots()
            .into_iter()
            .map(|d| d.try_into_inner().unwrap())
            .collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn iter_visits_every_slot_once() {
        let ring = RenameRing::new(4, |_| 0u8);
        assert_eq!(ring.iter().count(), 4);
        assert!(format!("{ring:?}").contains("depth 4"));
    }

    proptest! {
        /// Two iterations map to the same slot iff they are congruent mod N.
        #[test]
        fn prop_modular_renaming(n in 1usize..16, a in 0usize..1000, b in 0usize..1000) {
            use crate::handle::Accessible;
            let ring = RenameRing::<u64>::with_default(n);
            let same = ring.slot(a).region().id == ring.slot(b).region().id;
            prop_assert_eq!(same, a % n == b % n);
        }
    }
}
