//! Access declarations.
//!
//! OmpSs tasks declare, per argument, whether they read (`input`), write
//! (`output`), or read-and-write (`inout`) the argument's memory. From pairs
//! of such declarations on overlapping regions the dependence tracker
//! ([`crate::graph`]) derives the classical dependence kinds:
//!
//! * read-after-write (**RAW**, true dependence),
//! * write-after-read (**WAR**, anti dependence),
//! * write-after-write (**WAW**, output dependence).
//!
//! The paper stresses that the evaluated OmpSs implementation performs *no
//! automatic renaming*: WAR and WAW hazards serialise tasks unless the
//! programmer renames buffers manually (the circular-buffer pattern of
//! Listing 1, provided here by [`crate::pipeline::RenameRing`]). This
//! runtime goes further: *versioned* handles rename `output` accesses
//! automatically (see [`crate::rename`]), in which case an access resolves
//! to a concrete data **version** at task-insertion time. The version's
//! identity is carried in [`Access::region`]; the sub-region of the handle it
//! stands for (the whole object for `Data`, one chunk for a versioned
//! `PartitionedData`) is recorded as the access's *canonical* region so that
//! the task body can be routed back to the version it was bound to, and so
//! that ill-formed double-write declarations can be detected at sub-region
//! granularity.
//!
//! Version-bound accesses additionally carry the **resolved storage
//! pointer** of the version they bound. The bound version cannot move (or be
//! reclaimed) while the task holds its release ticket, so the pointer is
//! resolved exactly once — at bind time, on the spawning thread — and the
//! task-body guards (`ctx.read` / `ctx.write` and the chunk equivalents)
//! never have to lock and scan the version chain on the hot path.

use std::mem::MaybeUninit;

use crate::region::{AllocId, Region};

/// Type-erased storage pointer of the data version an access bound, plus the
/// element count for slice-shaped accesses (1 for scalar handles).
///
/// Carried inside [`Access`] (and therefore inside `TaskNode`); the pointed-to
/// storage is kept alive and address-stable by the version ticket the owning
/// task holds until completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BoundPtr {
    pub(crate) ptr: *mut (),
    pub(crate) len: usize,
}

/// The kind of access a task declares on a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// `input(x)` — the task only reads the region.
    Input,
    /// `output(x)` — the task overwrites the region without reading it.
    Output,
    /// `inout(x)` — the task reads and writes the region.
    InOut,
    /// `concurrent(x)` — the task updates the region commutatively;
    /// concurrent tasks with `Concurrent` access to the same region may run
    /// in parallel with each other (they must protect the actual update with
    /// a critical section or atomic op), but are still ordered against
    /// ordinary readers and writers.
    Concurrent,
}

impl AccessKind {
    /// Does this access read the previous contents of the region?
    pub fn reads(self) -> bool {
        matches!(self, AccessKind::Input | AccessKind::InOut | AccessKind::Concurrent)
    }

    /// Does this access (potentially) modify the region?
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Output | AccessKind::InOut | AccessKind::Concurrent)
    }

    /// Whether the task body is allowed to obtain a mutable guard for data
    /// declared with this access kind.
    pub fn allows_mutation(self) -> bool {
        self.writes()
    }
}

/// A single declared access: a region plus how it is accessed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The region being accessed (for a renamed access: the region of the
    /// concrete version the task was bound to).
    pub region: Region,
    /// How the region is accessed.
    pub kind: AccessKind,
    /// For accesses bound to a version of a versioned handle: the canonical
    /// sub-region of the handle this binding stands for (whole object for
    /// `Data`, one chunk for a versioned partition). `None` for plain
    /// accesses.
    canonical: Option<Region>,
    /// Storage pointer of the bound version, resolved at bind time. `None`
    /// only for accesses built through the public [`Access::new`].
    bound: Option<BoundPtr>,
    /// Whether this is an `output` binding whose rename was **elided** (the
    /// access binds the handle's current version in place — see
    /// [`crate::rename`], "First-write rename elision"). The task builder
    /// uses the marker to detect the output-before-input aliasing corner and
    /// un-elide the write before the task is inserted.
    elided: bool,
}

impl Access {
    /// Construct an access.
    pub fn new(region: Region, kind: AccessKind) -> Self {
        Access {
            region,
            kind,
            canonical: None,
            bound: None,
            elided: false,
        }
    }

    /// Attach the resolved storage pointer (plain handles: the single
    /// storage; `len` is the element count for slice accesses).
    pub(crate) fn with_ptr(mut self, ptr: *mut (), len: usize) -> Self {
        self.bound = Some(BoundPtr { ptr, len });
        self
    }

    /// Construct an access bound to a version of the handle sub-region
    /// `canonical`, carrying the version's resolved storage pointer.
    pub(crate) fn bound_to(
        region: Region,
        kind: AccessKind,
        canonical: Region,
        ptr: *mut (),
        len: usize,
    ) -> Self {
        Access {
            region,
            kind,
            canonical: Some(canonical),
            bound: Some(BoundPtr { ptr, len }),
            elided: false,
        }
    }

    /// Mark this access as an elided in-place `output` binding.
    pub(crate) fn mark_elided(mut self) -> Self {
        self.elided = true;
        self
    }

    /// Whether this access is an elided in-place `output` binding.
    pub(crate) fn is_elided(&self) -> bool {
        self.elided
    }

    /// The allocation id identifying the *handle* this access refers to:
    /// the canonical allocation for version-bound accesses, otherwise the
    /// accessed region's own allocation.
    pub fn root_alloc(&self) -> AllocId {
        self.canonical
            .as_ref()
            .map(|c| c.id.alloc)
            .unwrap_or(self.region.id.alloc)
    }

    /// The canonical sub-region of the versioned handle this access is bound
    /// to, or `None` for plain accesses.
    pub(crate) fn canonical_region(&self) -> Option<&Region> {
        self.canonical.as_ref()
    }

    /// The storage pointer (and element count) resolved at bind time.
    pub(crate) fn bound_ptr(&self) -> Option<(*mut (), usize)> {
        self.bound.map(|b| (b.ptr, b.len))
    }
}

/// The class of a dependence edge from an earlier to a later access on
/// overlapping regions (in program/spawn order), as the tracker counts it
/// (`graph/shard.rs` decides which pairs are ordered, and how they count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Dependence {
    /// Later task reads data produced by the earlier task.
    ReadAfterWrite,
    /// Later task overwrites data the earlier task reads.
    WriteAfterRead,
    /// Later task overwrites data the earlier task writes.
    WriteAfterWrite,
}

// ---------------------------------------------------------------------------
// AccessVec: the inline small-vector the spawn path stores accesses in
// ---------------------------------------------------------------------------

/// Number of accesses stored inline (without a heap allocation) by
/// [`AccessVec`]. Two covers the dominant spawn shapes measured by the
/// insertion benchmarks: single-access tasks and the input+output /
/// inout+input pairs of pipeline stages.
pub(crate) const ACCESS_INLINE_CAP: usize = 2;

/// A small-vector of [`Access`]es: up to [`ACCESS_INLINE_CAP`] elements live
/// inline, larger declarations spill to a heap `Vec`. The task builder, the
/// resolved-access plumbing and `TaskNode` all store accesses in this
/// representation, which is what makes the steady-state `spawn` of a
/// ≤2-access task allocation-free end to end.
///
/// Invariant: when `spilled` is false the live elements are
/// `inline[0..len]`; once a push overflows the inline slots, every element
/// moves to `spill` and the vector stays heap-backed for the rest of its
/// life (`len` then mirrors `spill.len()` only through [`AccessVec::len`]).
pub(crate) struct AccessVec {
    inline: [MaybeUninit<Access>; ACCESS_INLINE_CAP],
    len: usize,
    spilled: bool,
    spill: Vec<Access>,
}

impl Default for AccessVec {
    fn default() -> Self {
        AccessVec::new()
    }
}

impl Clone for AccessVec {
    /// Cloning preserves the inline/spilled shape: a ≤[`ACCESS_INLINE_CAP`]
    /// vector clones without touching the heap, which is what keeps the
    /// pre-wired replay path (arming nodes from a frozen plan's access
    /// copies) allocation-free.
    fn clone(&self) -> Self {
        let mut v = AccessVec::new();
        for access in self.as_slice() {
            v.push(access.clone());
        }
        v
    }
}

impl AccessVec {
    /// An empty vector (no heap allocation).
    pub(crate) fn new() -> Self {
        AccessVec {
            inline: [const { MaybeUninit::uninit() }; ACCESS_INLINE_CAP],
            len: 0,
            spilled: false,
            spill: Vec::new(),
        }
    }

    /// A vector holding exactly one access (no heap allocation).
    pub(crate) fn one(access: Access) -> Self {
        let mut v = AccessVec::new();
        v.push(access);
        v
    }

    /// Number of accesses.
    pub(crate) fn len(&self) -> usize {
        if self.spilled {
            self.spill.len()
        } else {
            self.len
        }
    }

    /// Whether the vector holds no accesses.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the accesses have spilled to the heap (more than
    /// [`ACCESS_INLINE_CAP`] were pushed at some point).
    pub(crate) fn spilled(&self) -> bool {
        self.spilled
    }

    /// Append an access, spilling every element to the heap when the inline
    /// capacity is exceeded.
    pub(crate) fn push(&mut self, access: Access) {
        if self.spilled {
            self.spill.push(access);
            return;
        }
        if self.len < ACCESS_INLINE_CAP {
            self.inline[self.len].write(access);
            self.len += 1;
            return;
        }
        // Overflow: move the inline elements into the heap vector.
        self.spill.reserve(ACCESS_INLINE_CAP + 1);
        for slot in &mut self.inline[..self.len] {
            // SAFETY: slots 0..len are initialised; they are logically moved
            // out here and `len` is reset so they are never touched again.
            self.spill.push(unsafe { slot.assume_init_read() });
        }
        self.len = 0;
        self.spilled = true;
        self.spill.push(access);
    }

    /// Move every access of `other` onto the end of `self`.
    pub(crate) fn append(&mut self, mut other: AccessVec) {
        if other.spilled {
            for access in other.spill.drain(..) {
                self.push(access);
            }
        } else {
            let n = other.len;
            other.len = 0;
            for slot in &mut other.inline[..n] {
                // SAFETY: slots 0..n were initialised and `other.len` is
                // already zeroed, so ownership transfers exactly once.
                self.push(unsafe { slot.assume_init_read() });
            }
        }
    }

    /// The accesses as a contiguous slice.
    pub(crate) fn as_slice(&self) -> &[Access] {
        if self.spilled {
            &self.spill
        } else {
            // SAFETY: elements 0..len are initialised, and
            // `MaybeUninit<Access>` has the same layout as `Access`.
            unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr() as *const Access, self.len)
            }
        }
    }

    /// The accesses as a mutable contiguous slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Access] {
        if self.spilled {
            &mut self.spill
        } else {
            // SAFETY: as in `as_slice`, plus `&mut self` makes it unique.
            unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr() as *mut Access, self.len)
            }
        }
    }

    /// Drop every access, keeping the heap capacity (and the spilled state)
    /// for the vector's next life.
    pub(crate) fn clear(&mut self) {
        if self.spilled {
            self.spill.clear();
        } else {
            for slot in &mut self.inline[..self.len] {
                // SAFETY: slots 0..len are initialised; len is reset below.
                unsafe { slot.assume_init_drop() };
            }
            self.len = 0;
        }
    }
}

impl Drop for AccessVec {
    fn drop(&mut self) {
        self.clear();
    }
}

impl std::ops::Deref for AccessVec {
    type Target = [Access];
    fn deref(&self) -> &[Access] {
        self.as_slice()
    }
}

impl std::fmt::Debug for AccessVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<Access> for AccessVec {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        let mut v = AccessVec::new();
        for access in iter {
            v.push(access);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::AllocId;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Input.reads());
        assert!(!AccessKind::Input.writes());
        assert!(!AccessKind::Output.reads());
        assert!(AccessKind::Output.writes());
        assert!(AccessKind::InOut.reads() && AccessKind::InOut.writes());
        assert!(AccessKind::Concurrent.reads() && AccessKind::Concurrent.writes());
        assert!(!AccessKind::Input.allows_mutation());
        assert!(AccessKind::Output.allows_mutation());
    }

    #[test]
    fn access_new_keeps_fields() {
        let r = Region::new(AllocId(1), 0, 0..8);
        let a = Access::new(r.clone(), AccessKind::InOut);
        assert_eq!(a.region, r);
        assert_eq!(a.kind, AccessKind::InOut);
    }

    fn mk(alloc: u64, chunk: u32) -> Access {
        Access::new(Region::new(AllocId(alloc), chunk, 0..8), AccessKind::Input)
    }

    #[test]
    fn access_vec_stays_inline_up_to_two() {
        let mut v = AccessVec::new();
        assert!(v.is_empty());
        assert!(!v.spilled());
        v.push(mk(1, 0));
        v.push(mk(2, 0));
        assert_eq!(v.len(), 2);
        assert!(!v.spilled(), "two accesses fit inline");
        assert_eq!(v[0].region.id.alloc, AllocId(1));
        assert_eq!(v[1].region.id.alloc, AllocId(2));
        v.push(mk(3, 0));
        assert!(v.spilled(), "the third access spills to the heap");
        assert_eq!(v.len(), 3);
        // Order preserved across the spill.
        let allocs: Vec<u64> = v.iter().map(|a| a.region.id.alloc.raw()).collect();
        assert_eq!(allocs, vec![1, 2, 3]);
    }

    #[test]
    fn access_vec_append_and_collect() {
        let mut a = AccessVec::one(mk(1, 0));
        let mut b = AccessVec::new();
        b.push(mk(2, 0));
        b.push(mk(3, 0));
        b.push(mk(4, 0));
        a.append(b);
        assert_eq!(a.len(), 4);
        assert!(a.spilled());
        let c: AccessVec = (1..=2u64).map(|i| mk(i, 0)).collect();
        assert_eq!(c.len(), 2);
        assert!(!c.spilled());
        // Slice patterns work through Deref, as the tracker's retire fast
        // path relies on.
        if let [only] = &*AccessVec::one(mk(9, 1)) {
            assert_eq!(only.region.id.chunk, 1);
        } else {
            panic!("single-element slice pattern must match");
        }
    }

    #[test]
    fn access_vec_clear_keeps_spilled_capacity() {
        let mut v: AccessVec = (1..=5u64).map(|i| mk(i, 0)).collect();
        assert!(v.spilled());
        v.clear();
        assert!(v.is_empty());
        v.push(mk(7, 0));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].region.id.alloc, AllocId(7));
    }

    #[test]
    fn elided_marker_roundtrip() {
        let a = mk(1, 0);
        assert!(!a.is_elided());
        let a = a.mark_elided();
        assert!(a.is_elided());
    }
}
