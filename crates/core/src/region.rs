//! Memory regions: the unit of dependence analysis.
//!
//! OmpSs resolves dependences between tasks by comparing the *memory
//! regions* named in their `input`/`output`/`inout` clauses. In this crate a
//! region is an abstract `(allocation, byte-range)` pair: every [`Data`]
//! handle owns one allocation, and a [`PartitionedData`] exposes several
//! disjoint sub-ranges of a single allocation as independent regions so that
//! data-parallel codes (one task per block/scanline) only serialise on the
//! blocks they actually touch.
//!
//! [`Data`]: crate::handle::Data
//! [`PartitionedData`]: crate::handle::PartitionedData

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Globally unique identifier of an allocation registered with the runtime.
///
/// Allocation ids are never reused within a process, which keeps dependence
/// bookkeeping immune to ABA problems when handles are dropped and new data
/// is registered at the same machine address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub(crate) u64);

static NEXT_ALLOC_ID: AtomicU64 = AtomicU64::new(1);

impl AllocId {
    /// Allocate a fresh id.
    pub(crate) fn fresh() -> Self {
        AllocId(NEXT_ALLOC_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric value (useful for diagnostics / traces).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Identifier of a region: an allocation plus an index of the registered
/// sub-range within it (`0` for whole-allocation handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId {
    /// The allocation this region belongs to.
    pub alloc: AllocId,
    /// Index of the registered sub-range within the allocation.
    pub chunk: u32,
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.alloc.0, self.chunk)
    }
}

/// A byte-range region of a registered allocation.
///
/// Two regions *conflict* (for the purpose of dependence analysis) when they
/// belong to the same allocation and their byte ranges overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Identity of this region.
    pub id: RegionId,
    /// Byte range within the allocation covered by this region.
    pub bytes: Range<usize>,
}

impl Region {
    /// Create a region covering `bytes` of allocation `alloc`, registered as
    /// chunk number `chunk`.
    pub fn new(alloc: AllocId, chunk: u32, bytes: Range<usize>) -> Self {
        Region {
            id: RegionId { alloc, chunk },
            bytes,
        }
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.bytes.end.saturating_sub(self.bytes.start)
    }

    /// Whether the region covers zero bytes.
    ///
    /// Zero-length regions never overlap anything (including themselves),
    /// matching the OmpSs treatment of zero-length array sections.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `self` and `other` name overlapping memory.
    pub fn overlaps(&self, other: &Region) -> bool {
        if self.id.alloc != other.id.alloc {
            return false;
        }
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.bytes.start < other.bytes.end && other.bytes.start < self.bytes.end
    }

    /// Whether `self` fully contains `other` (same allocation, superset
    /// byte-range). Empty regions are contained in anything of the same
    /// allocation.
    pub fn contains(&self, other: &Region) -> bool {
        if self.id.alloc != other.id.alloc {
            return false;
        }
        if other.is_empty() {
            return true;
        }
        self.bytes.start <= other.bytes.start && other.bytes.end <= self.bytes.end
    }

    /// The intersection of two regions, if they overlap.
    pub fn intersection(&self, other: &Region) -> Option<Range<usize>> {
        if !self.overlaps(other) {
            return None;
        }
        Some(self.bytes.start.max(other.bytes.start)..self.bytes.end.min(other.bytes.end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn region(alloc: u64, chunk: u32, range: Range<usize>) -> Region {
        Region::new(AllocId(alloc), chunk, range)
    }

    #[test]
    fn fresh_alloc_ids_are_unique_and_increasing() {
        let a = AllocId::fresh();
        let b = AllocId::fresh();
        assert!(b.raw() > a.raw());
        assert_ne!(a, b);
    }

    #[test]
    fn overlap_same_alloc() {
        let a = region(1, 0, 0..10);
        let b = region(1, 1, 5..15);
        let c = region(1, 2, 10..20);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching ranges do not overlap");
        assert!(b.overlaps(&c));
    }

    #[test]
    fn overlap_different_alloc_never() {
        let a = region(1, 0, 0..10);
        let b = region(2, 0, 0..10);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn empty_region_overlaps_nothing() {
        let e = region(1, 0, 5..5);
        let a = region(1, 1, 0..10);
        assert!(e.is_empty());
        assert!(!e.overlaps(&a));
        assert!(!a.overlaps(&e));
        assert!(!e.overlaps(&e));
    }

    #[test]
    fn contains_and_intersection() {
        let whole = region(3, 0, 0..100);
        let part = region(3, 1, 20..40);
        let other = region(3, 2, 30..60);
        assert!(whole.contains(&part));
        assert!(!part.contains(&whole));
        assert_eq!(part.intersection(&other), Some(30..40));
        assert_eq!(part.intersection(&region(4, 0, 0..100)), None);
    }

    #[test]
    fn empty_region_contained_in_same_alloc() {
        let whole = region(3, 0, 0..100);
        let empty = region(3, 1, 500..500);
        assert!(whole.contains(&empty));
        assert!(!region(4, 0, 0..100).contains(&empty));
    }

    #[test]
    fn region_display() {
        let r = region(7, 3, 0..1);
        assert_eq!(r.id.to_string(), "r7.3");
    }

    proptest! {
        /// Overlap is symmetric.
        #[test]
        fn prop_overlap_symmetric(
            a_start in 0usize..1000, a_len in 0usize..1000,
            b_start in 0usize..1000, b_len in 0usize..1000,
            same_alloc in proptest::bool::ANY,
        ) {
            let a = region(1, 0, a_start..a_start + a_len);
            let alloc_b = if same_alloc { 1 } else { 2 };
            let b = region(alloc_b, 1, b_start..b_start + b_len);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        /// A region always contains itself (when non-empty) and containment
        /// implies overlap for non-empty regions.
        #[test]
        fn prop_contains_implies_overlap(
            a_start in 0usize..1000, a_len in 1usize..1000,
            b_start in 0usize..1000, b_len in 1usize..1000,
        ) {
            let a = region(1, 0, a_start..a_start + a_len);
            let b = region(1, 1, b_start..b_start + b_len);
            prop_assert!(a.contains(&a));
            if a.contains(&b) {
                prop_assert!(a.overlaps(&b));
            }
        }

        /// Intersection is exactly the overlapping byte range: it is a
        /// sub-range of both inputs and non-empty iff the regions overlap.
        #[test]
        fn prop_intersection_consistent(
            a_start in 0usize..1000, a_len in 0usize..1000,
            b_start in 0usize..1000, b_len in 0usize..1000,
        ) {
            let a = region(1, 0, a_start..a_start + a_len);
            let b = region(1, 1, b_start..b_start + b_len);
            match a.intersection(&b) {
                Some(r) => {
                    prop_assert!(a.overlaps(&b));
                    prop_assert!(r.start < r.end);
                    prop_assert!(r.start >= a.bytes.start && r.end <= a.bytes.end);
                    prop_assert!(r.start >= b.bytes.start && r.end <= b.bytes.end);
                }
                None => prop_assert!(!a.overlaps(&b)),
            }
        }
    }
}
